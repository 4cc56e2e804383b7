"""RNS representation, conversions (CRT and mixed-radix), channel arithmetic.

Residues are kept canonical everywhere: residues[i] < moduli[i].  The CRT
reconstruction exists for I/O and oracle checks; the mixed-radix digits are
computed on Python integers in Garner's form over the base's tables and
counted as the w-bit word ops of the elimination chain.
"""

from __future__ import annotations

from operator import add, mul, sub
from typing import NamedTuple

from .basegen import RnsBase
from .wordmod import WordModBackend


class RnsInt(NamedTuple):
    """A value as its residue vector on a base (canonical form)."""

    residues: tuple
    base: RnsBase


class MrsDigits(NamedTuple):
    """Mixed-radix digits: value = d0 + d1*m0 + d2*m0*m1 + ..."""

    digits: tuple
    base: RnsBase


def to_rns(x: int, base: RnsBase) -> RnsInt:
    """Forward conversion: one remainder per channel (RnsBase.residues)."""
    if not 0 <= x < base.M:
        raise ValueError(
            f"value {x} outside dynamic range [0, {base.M}) of the base"
        )
    return RnsInt(tuple(base.residues(x)), base)


def from_rns_crt(x: RnsInt) -> int:
    """Backward conversion via the CRT sum in one pass: sum_i x_i*e_i mod M
    with the base's idempotents e_i = (M/m_i)*|(M/m_i)^-1|_{m_i}.
    Arbitrary precision; off the hot path."""
    base = x.base
    return sum(map(mul, x.residues, base.idempotents)) % base.M


def mrs_digits_vec(values, base: RnsBase, backend: WordModBackend) -> tuple:
    """Mixed-radix digits of a residue vector (list form) in Garner's form,
    and their value X = sum_i d_i*W_i.

    Digit i is d_i = (x_i - X mod m_i) * W_i^-1 mod m_i, with X the value of
    the digits so far, W_i = m_0 * ... * m_{i-1} (``base.weights``) and
    W_i^-1 mod m_i (``base.winv``).  The elimination chain leaves
    (x_i - sum_{j<i} d_j W_j) * W_i^-1 mod m_i in channel i after i steps,
    the same residue, so the digits are bit-identical to the chain's; digit
    0 is x_0 as the chain leaves it.  Counted as the chain
    (``WordModBackend.count_mrs_chain``).
    """
    mods, winv, weights = base.moduli, base.winv, base.weights
    backend.count_mrs_chain(len(values))
    x = values[0]
    digits = [x]
    for i in range(1, len(values)):
        m = mods[i]
        d = (values[i] - x % m) * winv[i] % m
        digits.append(d)
        x += d * weights[i]
    return digits, x


def to_mrs(x: RnsInt, backend: WordModBackend) -> MrsDigits:
    backend.check_base(x.base)
    digits, _ = mrs_digits_vec(x.residues, x.base, backend)
    return MrsDigits(tuple(digits), x.base)


def mrs_value(d: MrsDigits) -> int:
    """Positional value of mixed-radix digits (Horner, big-integer)."""
    moduli = d.base.moduli
    acc = 0
    for i in range(d.base.n - 1, -1, -1):
        acc = acc * moduli[i] + d.digits[i]
    return acc


# op -> (channel operation, the backend's event count of its class)
_ELEMENTWISE = {"add": (add, "n_add"), "sub": (sub, "n_sub"), "mul": (mul, "n_mul")}


def rns_elementwise(op: str, x: RnsInt, y: RnsInt, backend: WordModBackend) -> RnsInt:
    """Channel-parallel add/sub/mul; congruent to (x op y) mod M.  Counted
    as one op of its class per channel."""
    if x.base is not y.base:
        raise ValueError("operands live on different bases")
    try:
        fn, events = _ELEMENTWISE[op]
    except KeyError:
        raise ValueError(f"unknown elementwise op {op!r}") from None
    mods = backend.check_base(x.base)
    setattr(backend, events, getattr(backend, events) + len(mods))
    res = [fn(a, b) % m for a, b, m in zip(x.residues, y.residues, mods)]
    return RnsInt(tuple(res), x.base)
