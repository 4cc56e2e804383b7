"""RNS Montgomery modular multiplication over a pair of coprime bases.

One multiplication computes z = x*y*M^-1 mod p, counted as word operations
only: channel products, one approximate extension (Bajard-Imbert) to carry
the Montgomery quotient across, the exact division by M in the second
base, and one correction-quality extension (Szabo-Tanaka or Kawamura) back.
The values themselves take two big-integer CRT sums, each reduced into the
other base through its remainder tree; the residues equal the word chains'.

Values in the pipeline are bounded by (n+2)*p rather than the textbook 2p:
the approximate first extension leaves an excess of up to (n-1)*M on the
quotient, which the sizing rules M > (n+2)^2 * p and M' > 2*(n+2)*p absorb,
keeping the bound closed under iteration and the Kawamura step inside its
exactness window (1-alpha)*M', which a context checks for its alpha.

``mont_mul`` separates the count from the value.  The context counts one
call's op events once, into a charge table (``MontgomeryContext.charges``)
that serves every backend kind; the values run in merged passes, the
channel constants folded together as in the Cox-Rower design (Kawamura et
al., EUROCRYPT 2000) and Bajard-Imbert (IEEE TC 2004): with r_i =
(M/m_i) mod m_i, c_i = -(p*r_i)^-1 on Bm, and c'_j = (M*r'_j)^-1 and
p*c'_j on Bm', one modular inverse per channel.  The op-by-op
``baseext.extend_*`` are the reference.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import mul
from typing import NamedTuple

from .basegen import generate_pm_moduli, split_bases
from .baseext import KawamuraParams, count_rower, crt_residues, rower_estimate
from .oracle import check_mont
from .rnscore import RnsInt, from_rns_crt, to_rns
from .wordmod import InstructionSim, WordModBackend

VARIANT_ST = "st"
VARIANT_KAWAMURA = "kawamura"
VARIANTS = (VARIANT_ST, VARIANT_KAWAMURA)
VARIANT_ALIASES = {
    "st": VARIANT_ST,
    "szabo-tanaka": VARIANT_ST,
    "kawamura": VARIANT_KAWAMURA,
    "k": VARIANT_KAWAMURA,
}


class MontPair(NamedTuple):
    """One value carried on both bases (required by the interleaving)."""

    in_bm: RnsInt
    in_bmp: RnsInt


@lru_cache(maxsize=1)
def _channel_tables(p, bm, bmp) -> dict:
    """The tables mont_mul reads, shared by every variant's context on
    (p, bm, bmp) (a base hashes by identity), one inverse per channel:
    c_i = -(p*r_i)^-1 on Bm, c'_j = (M*r'_j)^-1 and p*c'_j on Bm', where
    r_i = (M/m_i) mod m_i and r'_j = (M'/m'_j) mod m'_j (``Mi_mod``)."""
    c_bm = [
        -pow(a * r % m, -1, m) % m
        for a, r, m in zip(bm.residues(p), bm.Mi_mod, bm.moduli)
    ]
    c_bmp = [
        pow(a * r % m, -1, m)
        for a, r, m in zip(bmp.residues(bm.M), bmp.Mi_mod, bmp.moduli)
    ]
    return dict(
        c_bm=tuple(c_bm),
        c_bmp=tuple(c_bmp),
        pc_bmp=tuple([a * c % m for a, c, m in zip(bmp.residues(p), c_bmp, bmp.moduli)]),
    )


class MontgomeryContext:
    """Bases, the channel tables mont_mul reads and its charge table.

    The one place a context is checked and completed: p must be odd and
    >= 3, the variant name goes through VARIANT_ALIASES, omitted Kawamura
    parameters are derived for bmp, given ones must have been built for
    bmp with a window (1-alpha)*M' that holds the bound (n+2)*p, and the
    bases must share their width and no factor.  ``charges`` records the
    backend kinds that passed their base check, which a race can at most
    repeat; pass a per-thread backend to mont_mul.
    """

    def __init__(self, p, bm, bmp, variant=VARIANT_KAWAMURA, kparams=None):
        if p < 3 or p % 2 == 0:
            raise ValueError(f"modulus p must be odd and >= 3, got {p}")
        try:
            variant = VARIANT_ALIASES[variant]
        except KeyError:
            raise ValueError(
                f"unknown variant {variant!r}, expected one of {sorted(VARIANTS)}"
            ) from None
        if kparams is None and variant == VARIANT_KAWAMURA:
            kparams = KawamuraParams.for_base(bmp)
        elif kparams is not None:
            kparams.check(bmp)
        self.p = p
        self.bm = bm
        self.bmp = bmp
        self.n = bm.n
        self.variant = variant
        self.kparams = kparams
        self.bound = (self.n + 2) * p
        self._check_sizing()
        vars(self).update(_channel_tables(p, bm, bmp))
        # one call's op events and raw ticks, the same for every kind; the
        # scratch backend is built from its class, unseen by make_backend's tracer
        n, n2, cnt = self.n, bmp.n, InstructionSim(bm.w)
        # x*y on both bases, -p^-1 and xi on Bm, p and M^-1 on Bm', an add
        cnt.n_mul += 3 * n + 3 * n2
        cnt.n_add += n2
        cnt.count_dot_mods(n, n2)  # Bajard-Imbert
        if variant == VARIANT_KAWAMURA:
            cnt.n_mul += n2  # xi on Bm'
            count_rower(cnt, n2)
            cnt.count_dot_mods(n2, n, 0)
        else:
            cnt.count_mrs_chain(n2)
            cnt.count_dot_mods(n2, n)
        self._table = cnt.tally()
        self._checked = set()

    def charges(self, backend: WordModBackend) -> tuple:
        """One call's counters as a table for backend.charge, once
        backend.check_base has passed on both bases (a failure records nothing)."""
        if (key := (type(backend), backend.width)) not in self._checked:
            backend.check_base(self.bm)
            backend.check_base(self.bmp)
            self._checked.add(key)
        return self._table

    def _check_sizing(self):
        p, bm, bmp, n = self.p, self.bm, self.bmp, self.n
        for name, g in (
            ("p and M", math.gcd(p, bm.M)),
            ("p and M'", math.gcd(p, bmp.M)),
        ):
            if g != 1:
                raise ValueError(f"{name} share factor {g}")
        need_m, need_mp = range_needs(n, p)
        if bm.M <= need_m or bmp.M <= need_mp:
            raise ValueError(
                f"dynamic range too small for p of {p.bit_length()} bits: "
                f"need M > (n+2)^2*p ({need_m.bit_length()} bits, have "
                f"{bm.M.bit_length()}) and M' > 2(n+2)*p "
                f"({need_mp.bit_length()} bits, have {bmp.M.bit_length()})"
            )
        if bm.w != bmp.w:
            raise ValueError(f"mixed word sizes: Bm has w={bm.w}, Bm' has w={bmp.w}")
        if (g := math.gcd(bm.M, bmp.M)) != 1:
            raise ValueError(f"Bm and Bm' are not coprime: M and M' share factor {g}")
        if self.kparams and self.bound > (1 - self.kparams.alpha) * bmp.M:
            raise ValueError(
                f"Kawamura offset alpha={self.kparams.alpha} leaves the exactness "
                f"window (1-alpha)*M' below the bound (n+2)*p = {self.bound}"
            )


def range_needs(n: int, p: int) -> tuple:
    """The sizing rule: the bounds M > (n+2)^2*p and M' > 2(n+2)*p that
    the two base products of an n-channel context for p must exceed."""
    return (n + 2) * (n + 2) * p, 2 * (n + 2) * p


def context_new(
    p: int, n: int, w: int = 64, variant: str = VARIANT_KAWAMURA
) -> MontgomeryContext:
    """Build a context on the first 2n sieved moduli of width w, split
    alternately into the two bases (keeping their products close)."""
    bm, bmp = split_bases([pm.m for pm in generate_pm_moduli(2 * n, w)], w)
    return MontgomeryContext(p, bm, bmp, variant)


def mont_pair(ctx: MontgomeryContext, value: int) -> MontPair:
    """Represent a raw value (< bound) on both bases."""
    if not 0 <= value < ctx.bound:
        raise ValueError(f"value {value} exceeds the domain bound {ctx.bound}")
    return MontPair(to_rns(value, ctx.bm), to_rns(value, ctx.bmp))


def to_mont(ctx: MontgomeryContext, a: int) -> MontPair:
    """Enter the Montgomery domain: the pair representing a*M mod p."""
    if not 0 <= a < ctx.p:
        raise ValueError(f"value {a} not reduced mod p={ctx.p}")
    return mont_pair(ctx, a * ctx.bm.M % ctx.p)


def from_mont(ctx: MontgomeryContext, z: MontPair, backend: WordModBackend) -> int:
    """Leave the Montgomery domain: multiply by the pair of 1 and reduce."""
    one = mont_pair(ctx, 1)
    r = mont_mul(ctx, z, one, backend)
    return from_rns_crt(r.in_bm) % ctx.p


def mont_mul(
    ctx: MontgomeryContext,
    x: MontPair,
    y: MontPair,
    backend: WordModBackend,
    check: bool = False,
) -> MontPair:
    """One Montgomery product: result value is x*y*M^-1 mod p up to a
    multiple of p, below (n+2)*p, represented on both bases.

    On Bm, xi_i = x_i*y_i*c_i; t = sum_i xi_i*M/m_i on Bm' keeps the
    Bajard-Imbert excess; on Bm', xi'_j = x'_j*y'_j*c'_j + t_j*p*c'_j and
    the result's w_j = xi'_j*r'_j; back on Bm, sum_j xi'_j*M'/m'_j less
    k*M', with k from the rower accumulator (Kawamura) or exact
    (Szabo-Tanaka).  The constants are _channel_tables'.

    mont_pair and mont_mul are the only producers of valid pairs; a pair
    whose halves disagree gives a wrong product that only check=True
    names.  check=True re-reads every contract through oracle.check_mont;
    it is for tests only and changes nothing about the computation.
    """
    bm, bmp = ctx.bm, ctx.bmp
    if not (
        x.in_bm.base is y.in_bm.base is bm and x.in_bmp.base is y.in_bmp.base is bmp
    ):
        raise ValueError("operand does not live on the context's bases")
    table = ctx.charges(backend)
    mods = bm.moduli
    xi = [
        a * b * c % m
        for a, b, c, m in zip(x.in_bm.residues, y.in_bm.residues, ctx.c_bm, mods)
    ]
    t = crt_residues(xi, bm, bmp)
    mods = bmp.moduli
    xi = [
        (a * b * c + tj * d) % m
        for a, b, tj, c, d, m in zip(
            x.in_bmp.residues, y.in_bmp.residues, t, ctx.c_bmp, ctx.pc_bmp, mods
        )
    ]
    w = [v * r % m for v, r, m in zip(xi, bmp.Mi_mod, mods)]
    if ctx.variant == VARIANT_KAWAMURA:
        z = crt_residues(xi, bmp, bm, rower_estimate(xi, ctx.kparams))
    else:
        z = bm.residues(sum(map(mul, xi, bmp.Mi)) % bmp.M)
    backend.charge(table)
    result = MontPair(RnsInt(tuple(z), bm), RnsInt(tuple(w), bmp))
    if check:
        check_mont(ctx, x, y, result)
    return result


def mont_exp(
    ctx: MontgomeryContext,
    a: int,
    e: int,
    backend: WordModBackend,
    check: bool = False,
) -> int:
    """a^e mod p by square-and-multiply entirely inside the domain."""
    if e < 0:
        raise ValueError("exponent must be non-negative")
    acc = to_mont(ctx, 1)
    am = to_mont(ctx, a)
    for bit in bin(e)[2:] if e else "":
        acc = mont_mul(ctx, acc, acc, backend, check=check)
        if bit == "1":
            acc = mont_mul(ctx, acc, am, backend, check=check)
    return from_mont(ctx, acc, backend)
