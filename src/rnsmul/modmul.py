"""RNS Montgomery modular multiplication over a pair of coprime bases.

One multiplication computes z = x*y*M^-1 mod p without any big-integer
work: channel products, one approximate extension (Bajard-Imbert) to carry
the Montgomery quotient across, the exact division by M in the second
base, and one correction-quality extension (Szabo-Tanaka or Kawamura) back.

Values in the pipeline are bounded by (n+2)*p rather than the textbook 2p:
the approximate first extension leaves an excess of up to (n-1)*M on the
quotient, which the sizing rules M > (n+2)^2 * p and M' > 2*(n+2)*p absorb,
keeping the bound closed under iteration and the Kawamura step inside its
alpha = 1/2 exactness window.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .basegen import generate_pm_moduli, split_bases
from .baseext import (
    ExtensionPair,
    KawamuraParams,
    bajard_imbert_vec,
    kawamura_extend_vec,
    st_extend_vec,
)
from .oracle import check_mont
from .rnscore import RnsInt, from_rns_crt, to_rns
from .wordmod import WordModBackend

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


class MontgomeryContext:
    """Bases, precomputed channel constants and sizing data for one modulus.

    The one place a context is checked and completed: p must be odd and
    >= 3, the variant name goes through VARIANT_ALIASES, omitted Kawamura
    parameters are derived for bmp, and given ones must have been built
    for bmp.  Immutable after construction; pass a per-thread backend to
    mont_mul.
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
        self.w = bm.w
        self.variant = variant
        self.kparams = kparams
        self.bound = (self.n + 2) * p
        self._check_sizing()
        self.fwd = ExtensionPair(bm, bmp)
        self.bwd = ExtensionPair(bmp, bm)
        # p and M reach the channels through the bases' remainder trees
        p_bm = bm.residues(p)
        self.neg_p_inv_bm = tuple(-pow(r, -1, m) % m for r, m in zip(p_bm, bm.moduli))
        self.p_bmp = tuple(bmp.residues(p))
        m_bmp = bmp.residues(bm.M)
        self.m_inv_bmp = tuple(pow(r, -1, m) for r, m in zip(m_bmp, bmp.moduli))

    def _check_sizing(self):
        p, bm, bmp, n = self.p, self.bm, self.bmp, self.n
        for name, g in (
            ("p and M", math.gcd(p, bm.M)),
            ("p and M'", math.gcd(p, bmp.M)),
        ):
            if g != 1:
                raise ValueError(f"{name} share factor {g}")
        need_m = (n + 2) * (n + 2) * p
        need_mp = 2 * (n + 2) * p
        if bm.M <= need_m or bmp.M <= need_mp:
            raise ValueError(
                f"dynamic range too small for p of {p.bit_length()} bits: "
                f"need M > (n+2)^2*p ({need_m.bit_length()} bits, have "
                f"{bm.M.bit_length()}) and M' > 2(n+2)*p "
                f"({need_mp.bit_length()} bits, have {bmp.M.bit_length()})"
            )


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

    check=True re-reads every contract through oracle.check_mont
    (congruence, bound, both halves agreeing, Kawamura window); it is for
    tests only and changes nothing about the computation.
    """
    bm, bmp = ctx.bm, ctx.bmp
    if not (
        x.in_bm.base is y.in_bm.base is bm and x.in_bmp.base is y.in_bmp.base is bmp
    ):
        raise ValueError("operand does not live on the context's bases")
    s_m = backend.vec_mul(x.in_bm.residues, y.in_bm.residues, bm)
    s_mp = backend.vec_mul(x.in_bmp.residues, y.in_bmp.residues, bmp)
    t = backend.vec_mul(s_m, ctx.neg_p_inv_bm, bm)
    t_ext = bajard_imbert_vec(t, ctx.fwd, backend)
    u = backend.vec_mul(t_ext, ctx.p_bmp, bmp)
    v = backend.vec_add(s_mp, u, bmp)
    w_mp = backend.vec_mul(v, ctx.m_inv_bmp, bmp)
    if ctx.variant == VARIANT_KAWAMURA:
        w_m = kawamura_extend_vec(w_mp, ctx.bwd, ctx.kparams, backend)
    else:
        w_m = st_extend_vec(w_mp, ctx.bwd, backend)
    result = MontPair(
        RnsInt(tuple(w_m), bm), RnsInt(tuple(w_mp), bmp)
    )
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
    if not 0 <= a < ctx.p:
        raise ValueError(f"base {a} not reduced mod p={ctx.p}")
    if e < 0:
        raise ValueError("exponent must be non-negative")
    acc = to_mont(ctx, 1)
    am = to_mont(ctx, a)
    for bit in bin(e)[2:] if e else "":
        acc = mont_mul(ctx, acc, acc, backend, check=check)
        if bit == "1":
            acc = mont_mul(ctx, acc, am, backend, check=check)
    return from_mont(ctx, acc, backend)
