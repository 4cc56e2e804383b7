"""The big-integer reference that verify, mont_mul(check=True) and the tests
read residues back through.

Everything here is computed from the moduli alone: no RnsBase table and no
rnscore conversion is used, so a wrong library table cannot hide from a
check built on this module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


@lru_cache(maxsize=256)
def _crt_table(moduli: tuple) -> tuple:
    """M and, per channel, (m_i, M/m_i, (M/m_i)^-1 mod m_i)."""
    M = math.prod(moduli)
    return M, tuple((m, M // m, pow(M // m % m, -1, m)) for m in moduli)


def _crt_divmod(residues, moduli) -> tuple:
    """divmod(sum_i xi_i * M/m_i, M) with xi_i = r_i * (M/m_i)^-1 mod m_i."""
    M, table = _crt_table(tuple(moduli))
    total = sum((r * inv % m) * mi for r, (m, mi, inv) in zip(residues, table))
    return divmod(total, M)


def crt_value(residues, moduli) -> int:
    """The value in [0, M) whose residues these are."""
    return _crt_divmod(residues, moduli)[1]


def crt_quotient(residues, moduli) -> int:
    """The true CRT quotient k = sum_i xi_i * M/m_i // M that Kawamura's
    accumulator estimates and Shenoy-Kumaresan recovers."""
    return _crt_divmod(residues, moduli)[0]


def check_mont(ctx, x, y, z) -> None:
    """Raise AssertionError unless z = mont_mul(ctx, x, y) keeps every
    contract: the halves of each operand agree, both halves of z agree,
    the value is below the bound, the Bm' half lies inside the Kawamura
    window (1-alpha)*M' (alpha=1/2 with no kparams), and the value is
    congruent to x*y*M^-1 mod p."""
    bm, bmp = ctx.bm.moduli, ctx.bmp.moduli
    xv = crt_value(x.in_bm.residues, bm)
    yv = crt_value(y.in_bm.residues, bm)
    for name, v, half in (("x", xv, x.in_bmp), ("y", yv, y.in_bmp)):
        if v != crt_value(half.residues, bmp):
            raise AssertionError(f"operand halves disagree: {name} is not a valid pair")
    zv = crt_value(z.in_bm.residues, bm)
    zv_mp = crt_value(z.in_bmp.residues, bmp)
    if zv != zv_mp:
        raise AssertionError(f"halves disagree: {zv} on Bm vs {zv_mp} on Bm'")
    if zv >= ctx.bound:
        raise AssertionError(f"result {zv} breaks the bound {ctx.bound}")
    alpha = ctx.kparams.alpha if ctx.kparams else Fraction(1, 2)
    if zv_mp >= (1 - alpha) * math.prod(bmp):
        raise AssertionError(f"step-7 operand left the Kawamura window, alpha={alpha}")
    if zv % ctx.p != xv * yv * pow(math.prod(bm), -1, ctx.p) % ctx.p:
        raise AssertionError("result incongruent to x*y*M^-1 mod p")
