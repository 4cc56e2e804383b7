"""Word-size modular arithmetic backends with operation counting.

Three interchangeable strategies compute (a op b) mod m on w-bit words:

* ``NaiveModulo``    -- plain remainder, each reduction charged to the
  hardware divide/modulo unit,
* ``PseudoMersenne`` -- division-free folding for moduli m = 2^w - c,
* ``InstructionSim`` -- fused modular instructions, one counter tick per op.

The strategies return identical values on identical inputs, so the value
path is written once, in ``WordModBackend``, and a kind is its row of
``WordModBackend.COSTS`` (the counters one op of each class ticks) and its
modulus bounds.  Multi-channel values are computed by the layers that own
their tables (``rnscore``, ``baseext``, ``modmul``); a backend only counts
the op chains they stand for.  A backend owns its bounds and mutable
counters and nothing else, so one instance must not be shared between
threads.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple

MIN_WIDTH = 8
MAX_WIDTH = 64


def check_width(w: int) -> int:
    if not MIN_WIDTH <= w <= MAX_WIDTH:
        raise ValueError(f"word width must be in [{MIN_WIDTH}, {MAX_WIDTH}], got {w}")
    return w


class PmModulus(NamedTuple):
    """A pseudo-Mersenne modulus m = 2^w - c with small odd c."""

    m: int
    c: int
    w: int
    mask: int


def pm_modulus(m: int, w: int) -> PmModulus:
    """Validate that m has pseudo-Mersenne form and package its parameters.

    Requires m = 2^w - c with c odd and 1 <= c < 2^(w/2).  The bound on c
    keeps the three folding passes of the reduction inside double-width
    intermediates; oddness makes every accepted modulus odd.
    """
    check_width(w)
    c = (1 << w) - m
    if c < 1 or c >= (1 << (w // 2)) or c % 2 == 0:
        raise ValueError(
            f"modulus {m} is not pseudo-Mersenne at w={w}: "
            f"need m = 2^{w} - c with c odd, 1 <= c < 2^{w // 2}"
        )
    return PmModulus(m, c, w, (1 << w) - 1)


@dataclass
class OpCounters:
    """Tally of executed operation classes.

    word_add/word_sub/word_mul/shift/mask are ordinary integer-unit ops,
    div_mod is the hardware divide/modulo unit, and modadd/modsub/modmul
    are the fused modular instructions.
    """

    word_add: int = 0
    word_sub: int = 0
    word_mul: int = 0
    shift: int = 0
    mask: int = 0
    div_mod: int = 0
    modadd: int = 0
    modsub: int = 0
    modmul: int = 0

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def total(self) -> int:
        return sum(self.as_dict().values())


OPS = ("add", "sub", "mul", "red")


class WordModBackend:
    """The one scalar value path: validation, scalar ops, counters.

    Scalar ops (addmod/submod/mulmod/redmod) enforce the reduced-input
    contract: operands of addmod/submod/mulmod must already be canonical
    residues, anything else signals a caller bug.  redmod is the one entry
    gate accepting an arbitrary w-bit word (it canonicalizes words crossing
    between channels with different moduli).

    A kind is its ``COSTS`` row and its modulus bounds, computed once per
    backend: m from ``_m_min`` to ``_m_max``, odd if ``_m_odd``.  Every
    modulus check reads them.  A scalar op tests them and its operands in
    one comparison chain, and calls the helpers that word the errors only
    when the chain fails; ``check_modulus`` judges one modulus, and
    ``check_base`` a base's width, then its channels.

    Every op counts one event of its class; the chain counters count the
    events of a whole op chain at once.  ``counters`` is derived on each
    read as the raw ticks plus every event times its ``COSTS`` row; work
    that is no modular op (pm_reduce's folds, the Kawamura accumulator)
    ticks ``raw`` directly.
    ``tally`` reads the events and raw ticks of a fixed op sequence counted
    on a scratch backend, and ``charge`` adds them to another in one step.
    """

    misfit = "out of range"  # what check_modulus calls a rejected modulus

    # kind -> op class -> counter deltas of one op
    COSTS = {
        "modulo": {
            "add": {"word_add": 1, "div_mod": 1},
            # portable C form (a + m - b) % m: add, sub, then the remainder
            "sub": {"word_add": 1, "word_sub": 1, "div_mod": 1},
            "mul": {"word_mul": 1, "div_mod": 1},
            "red": {"div_mod": 1},
        },
        "pm": {
            # add, sub and red need one conditional correction each, since
            # every accepted modulus exceeds 2^(w-1); mul is the product plus
            # pm_reduce's three folds and final subtraction
            "add": {"word_add": 1, "word_sub": 1},
            "sub": {"word_add": 1, "word_sub": 1},
            "mul": {"word_mul": 4, "shift": 3, "mask": 3, "word_add": 3, "word_sub": 1},
            "red": {"word_sub": 1},
        },
        "inst": {
            "add": {"modadd": 1},
            "sub": {"modsub": 1},
            "mul": {"modmul": 1},
            # redmod is realized as an addmod with zero
            "red": {"modadd": 1},
        },
    }

    def __init__(self, w: int = 64):
        self.width = check_width(w)
        # the accepted moduli: 2 <= m <= 2^w - 1, odd ones only if _m_odd
        self._m_min, self._m_max, self._m_odd = 2, (1 << w) - 1, 0
        # the cost rows flattened to (counter, op index, delta) terms
        self._terms = [
            (name, i, delta)
            for i, op in enumerate(OPS)
            for name, delta in self.COSTS[self.kind][op].items()
        ]
        self.reset_counters()

    # -- validation helpers ------------------------------------------------

    def check_modulus(self, m: int) -> None:
        """That m lies within this kind's modulus bounds."""
        if not (self._m_min <= m <= self._m_max and m % 2 >= self._m_odd):
            raise ValueError(
                f"modulus {m} is {self.misfit} at w={self.width}: need "
                f"{'odd ' * self._m_odd}m in [{self._m_min}, {self._m_max}]"
            )

    def _check_word(self, a: int) -> None:
        if not 0 <= a < (1 << self.width):
            raise ValueError(f"redmod operand {a} exceeds {self.width} bits")

    def _check_reduced(self, a: int, b: int, m: int) -> None:
        self.check_modulus(m)
        if not (0 <= a < m and 0 <= b < m):
            raise ValueError(
                f"unreduced operand for modulus {m}: a={a}, b={b} (caller bug)"
            )

    def check_base(self, base):
        """Validate a base for this backend and return its moduli: its
        width, then every channel against the modulus bounds, the first
        bad channel named."""
        if base.w != self.width:
            raise ValueError(f"base has w={base.w}, backend expects w={self.width}")
        mods = base.moduli
        # every channel is odd exactly when their product M is
        if min(mods) < self._m_min or max(mods) > self._m_max or base.M % 2 < self._m_odd:
            for m in mods:
                self.check_modulus(m)
        return mods

    # -- scalar operations ---------------------------------------------------

    def addmod(self, a: int, b: int, m: int) -> int:
        if not (
            self._m_min <= m <= self._m_max and m % 2 >= self._m_odd
            and 0 <= a < m and 0 <= b < m
        ):
            self._check_reduced(a, b, m)
        self.n_add += 1
        return (a + b) % m

    def submod(self, a: int, b: int, m: int) -> int:
        if not (
            self._m_min <= m <= self._m_max and m % 2 >= self._m_odd
            and 0 <= a < m and 0 <= b < m
        ):
            self._check_reduced(a, b, m)
        self.n_sub += 1
        return (a - b) % m

    def mulmod(self, a: int, b: int, m: int) -> int:
        if not (
            self._m_min <= m <= self._m_max and m % 2 >= self._m_odd
            and 0 <= a < m and 0 <= b < m
        ):
            self._check_reduced(a, b, m)
        self.n_mul += 1
        return a * b % m

    def redmod(self, a: int, m: int) -> int:
        """Canonicalize an arbitrary w-bit word into [0, m)."""
        if not (
            self._m_min <= m <= self._m_max and m % 2 >= self._m_odd
            and 0 <= a <= self._m_max
        ):
            self.check_modulus(m)
            self._check_word(a)
        self.n_red += 1
        return a % m

    # -- counter access -----------------------------------------------------

    @property
    def counters(self) -> OpCounters:
        """Live totals, derived on each read: a read-only view.  Assigning
        to the property fails and changing the returned object changes
        nothing; tick ``raw`` to count work outside the cost table."""
        totals = vars(self.raw).copy()
        events = (self.n_add, self.n_sub, self.n_mul, self.n_red)
        for name, i, delta in self._terms:
            totals[name] += events[i] * delta
        return OpCounters(**totals)

    def reset_counters(self) -> None:
        self.raw = OpCounters()
        self.n_add = self.n_sub = self.n_mul = self.n_red = 0

    def read_counters(self) -> OpCounters:
        return self.counters

    def tally(self) -> tuple:
        """Everything counted so far as a table for ``charge``: the four
        event counts and the nonzero raw ticks."""
        raw = tuple((k, v) for k, v in vars(self.raw).items() if v)
        return self.n_add, self.n_sub, self.n_mul, self.n_red, raw

    def charge(self, table) -> None:
        """Count at once the op sequence another backend's ``tally`` holds."""
        add, sub, mul, red, raw = table
        self.n_add += add
        self.n_sub += sub
        self.n_mul += mul
        self.n_red += red
        cnt = self.raw
        for name, delta in raw:
            setattr(cnt, name, getattr(cnt, name) + delta)

    # -- op-chain counters ----------------------------------------------------

    def count_dot_mods(self, n, c, k=None):
        """Count c dot_mod chains of n terms, the op chains a CRT sum
        (``baseext.crt_sum``) reduced into c channels stands for: n redmod,
        n mulmod and n-1 addmod each, plus, with a quotient k, redmod(k), a
        mulmod by M and a submod.  k keeps redmod's contract: a w-bit word."""
        if k is not None:
            self._check_word(k)
            self.n_red += c
            self.n_mul += c
            self.n_sub += c
        self.n_red += n * c
        self.n_mul += n * c
        self.n_add += max(n - 1, 0) * c

    def count_mrs_chain(self, n):
        """Count the mixed-radix elimination chain on n channels: n(n-1)/2
        each of redmod, submod and mulmod."""
        steps = n * (n - 1) // 2
        self.n_red += steps
        self.n_sub += steps
        self.n_mul += steps


class NaiveModulo(WordModBackend):
    """C-style `%` on every reduction; each one hits the divide unit."""

    kind = "modulo"


class PseudoMersenne(WordModBackend):
    """Folding reduction for pseudo-Mersenne moduli m = 2^w - c.

    Its bounds are pm_modulus's set: the odd m = 2^w - c with
    1 <= c < 2^(w/2); any other modulus is a configuration error.
    pm_reduce is the folding reduction the cost row of "mul" describes,
    tested against ``%`` on its own.
    """

    kind = "pm"
    misfit = "not pseudo-Mersenne"

    def __init__(self, w: int = 64):
        super().__init__(w)
        self._m_min, self._m_odd = (1 << w) - (1 << (w // 2)) + 1, 1

    def pm_reduce(self, a: int, pm: PmModulus) -> int:
        """Reduce a double-width value to the canonical residue mod pm.m.

        Three folding passes replace the high part via 2^w = c (mod m);
        each pass costs one multiplication by c plus shift/mask/add.  The
        third pass leaves a value below 2^w + c, so one trailing
        conditional subtraction makes the result canonical.
        """
        w = pm.w
        if not 0 <= a < (1 << (2 * w)):
            raise ValueError(f"pm_reduce operand {a} exceeds {2 * w} bits")
        cnt = self.raw
        cnt.word_mul += 3
        cnt.shift += 3
        cnt.mask += 3
        cnt.word_add += 3
        cnt.word_sub += 1
        c = pm.c
        mask = pm.mask
        t = c * (a >> w)
        t = (a & mask) + (t & mask) + c * (t >> w)
        t = (t & mask) + c * (t >> w)
        return t - pm.m if t >= pm.m else t


class InstructionSim(WordModBackend):
    """Fused modular instructions: one counter tick per modular op."""

    kind = "inst"


BACKEND_KINDS = {
    "modulo": NaiveModulo,
    "pm": PseudoMersenne,
    "inst": InstructionSim,
}


def make_backend(kind: str, w: int = 64) -> WordModBackend:
    try:
        cls = BACKEND_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown backend kind {kind!r}, expected one of {sorted(BACKEND_KINDS)}"
        ) from None
    return cls(w)
