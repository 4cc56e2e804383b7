"""The big-integer oracle: exact on whole small bases, independent of the
library's base tables, and loud on a wrong Montgomery product."""

import math

import pytest

from rnsmul.basegen import RnsBase
from rnsmul.modmul import MontPair, context_new, mont_mul, mont_pair
from rnsmul.oracle import check_mont, crt_quotient, crt_value
from rnsmul.rnscore import RnsInt, from_rns_crt, to_rns
from rnsmul.wordmod import make_backend


@pytest.mark.parametrize("moduli", [(3, 5, 7), (251, 247)])
def test_crt_value_and_quotient_exhaustive(moduli):
    M = math.prod(moduli)
    for x in range(M):
        residues = tuple(x % m for m in moduli)
        xi = [r * pow(M // m, -1, m) % m for r, m in zip(residues, moduli)]
        total = sum(c * (M // m) for c, m in zip(xi, moduli))
        k = crt_quotient(residues, moduli)
        assert crt_value(residues, moduli) == x
        assert total == x + k * M and 0 <= k < len(moduli)


def test_oracle_ignores_base_tables():
    base = RnsBase((251, 247, 239), 8)
    base.inv_Mi = ((base.inv_Mi[0] + 1) % 251,) + base.inv_Mi[1:]
    x = 12345
    xi = RnsInt(tuple(x % m for m in base.moduli), base)
    assert from_rns_crt(xi) != x
    assert crt_value(xi.residues, base.moduli) == x


def _flip_one_residue(ctx, z, zv):
    r = z.in_bm.residues
    return MontPair(RnsInt(((r[0] + 1) % ctx.bm.moduli[0],) + r[1:], ctx.bm), z.in_bmp)


def _at(ctx, v):
    return MontPair(to_rns(v, ctx.bm), to_rns(v, ctx.bmp))


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_flip_one_residue, "halves disagree"),
        (lambda ctx, z, zv: _at(ctx, ctx.bound), "breaks the bound"),
        (lambda ctx, z, zv: _at(ctx, (zv + 1) % ctx.bound), "incongruent"),
    ],
)
def test_check_mont_rejects_a_wrong_product(corrupt, message):
    ctx = context_new(97, 2, 8, "kawamura")
    x, y = mont_pair(ctx, 10), mont_pair(ctx, 20)
    z = mont_mul(ctx, x, y, make_backend("inst", 8))
    check_mont(ctx, x, y, z)
    zv = crt_value(z.in_bm.residues, ctx.bm.moduli)
    with pytest.raises(AssertionError, match=message):
        check_mont(ctx, x, y, corrupt(ctx, z, zv))
