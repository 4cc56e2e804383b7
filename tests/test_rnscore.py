"""Conversions and channel arithmetic on tiny bases, checked exhaustively
against plain big-integer remainders."""

import random

import pytest

from rnsmul.basegen import build_base, build_pm_base
from rnsmul.rnscore import (
    from_rns_crt,
    mrs_value,
    rns_elementwise,
    to_mrs,
    to_rns,
)
from rnsmul.wordmod import InstructionSim, make_backend

BASE357 = build_base((3, 5, 7), 8)


def test_to_rns_examples():
    assert to_rns(0, BASE357).residues == (0, 0, 0)
    assert to_rns(23, BASE357).residues == (2, 3, 2)
    w8 = build_base((251, 247), 8)
    assert to_rns(1000, w8).residues == (1000 % 251, 1000 % 247) == (247, 12)


def test_to_rns_rejects_alias():
    with pytest.raises(ValueError, match="dynamic range"):
        to_rns(105, BASE357)
    with pytest.raises(ValueError, match="dynamic range"):
        to_rns(-1, BASE357)


def test_crt_round_trip_exhaustive():
    for x in range(BASE357.M):
        assert from_rns_crt(to_rns(x, BASE357)) == x


@pytest.mark.parametrize("n", (2, 5, 64))
def test_crt_round_trip_edges(n):
    base = build_pm_base(n, 64)
    rng = random.Random(n)
    for x in (0, 1, base.M - 1, *(rng.randrange(base.M) for _ in range(100))):
        assert from_rns_crt(to_rns(x, base)) == x


def test_crt_examples():
    from rnsmul.rnscore import RnsInt

    assert from_rns_crt(RnsInt((2, 3, 2), BASE357)) == 23
    assert from_rns_crt(RnsInt((0, 0, 0), BASE357)) == 0


def test_mrs_example():
    be = make_backend("modulo", 8)
    d = to_mrs(to_rns(23, BASE357), be)
    assert d.digits == (2, 2, 1)  # 23 = 2 + 2*3 + 1*15
    assert mrs_value(d) == 23
    assert to_mrs(to_rns(0, BASE357), be).digits == (0, 0, 0)


def test_mrs_round_trip_and_digit_bounds():
    be = make_backend("inst", 8)
    for x in range(BASE357.M):
        d = to_mrs(to_rns(x, BASE357), be)
        assert all(di < m for di, m in zip(d.digits, BASE357.moduli))
        assert mrs_value(d) == x


def test_mrs_round_trip_n64():
    """to_mrs -> mrs_value at n=64, w=64 on 0, M-1 and random values, on
    every kind; the digits stay canonical."""
    import random

    from rnsmul.basegen import build_pm_base
    from rnsmul.wordmod import BACKEND_KINDS

    base = build_pm_base(64, 64)
    rng = random.Random(43)
    values = [0, base.M - 1] + [rng.randrange(base.M) for _ in range(8)]
    for kind in BACKEND_KINDS:
        be = make_backend(kind, 64)
        for x in values:
            d = to_mrs(to_rns(x, base), be)
            assert all(di < m for di, m in zip(d.digits, base.moduli))
            assert mrs_value(d) == x, (kind, x)


def test_mrs_value_extremes():
    from rnsmul.rnscore import MrsDigits

    assert mrs_value(MrsDigits((0, 0, 0), BASE357)) == 0
    top = MrsDigits(tuple(m - 1 for m in BASE357.moduli), BASE357)
    assert mrs_value(top) == BASE357.M - 1


def test_mrs_op_count():
    # n(n-1)/2 multiplications and subtractions, the quadratic bound made exact
    for n, w in ((3, 8), (8, 64)):
        from rnsmul.basegen import build_pm_base

        base = build_pm_base(n, w)
        be = InstructionSim(w)
        to_mrs(to_rns(base.M - 1, base), be)
        c = be.read_counters()
        assert c.modmul == n * (n - 1) // 2
        assert c.modsub == n * (n - 1) // 2


def test_elementwise_examples():
    be = make_backend("modulo", 8)
    x, y = to_rns(23, BASE357), to_rns(40, BASE357)
    assert rns_elementwise("add", x, y, be) == to_rns(63, BASE357)
    one = to_rns(1, BASE357)
    assert rns_elementwise("mul", x, one, be) == x
    a, b = to_rns(5, BASE357), to_rns(10, BASE357)
    assert rns_elementwise("sub", a, b, be) == to_rns(BASE357.M - 5, BASE357)


def test_elementwise_homomorphism_exhaustive():
    be = make_backend("inst", 8)
    M = BASE357.M
    reps = [to_rns(x, BASE357) for x in range(M)]
    for x in range(M):
        for y in range(M):
            xr, yr = reps[x], reps[y]
            assert from_rns_crt(rns_elementwise("add", xr, yr, be)) == (x + y) % M
            assert from_rns_crt(rns_elementwise("sub", xr, yr, be)) == (x - y) % M
            assert from_rns_crt(rns_elementwise("mul", xr, yr, be)) == (x * y) % M


def test_elementwise_validation():
    be = make_backend("modulo", 8)
    other = build_base((11, 13), 8)
    with pytest.raises(ValueError, match="different bases"):
        rns_elementwise("add", to_rns(1, BASE357), to_rns(1, other), be)
    with pytest.raises(ValueError, match="unknown"):
        rns_elementwise("xor", to_rns(1, BASE357), to_rns(2, BASE357), be)


def test_results_stay_canonical():
    be = make_backend("pm", 8)
    base = build_base((255, 253, 251), 8)
    ys = [to_rns(y, base) for y in range(0, base.M, 12007)]
    for x in range(0, base.M, 9973):
        rx = to_rns(x, base)
        for ry in ys:
            z = rns_elementwise("mul", rx, ry, be)
            assert all(r < m for r, m in zip(z.residues, base.moduli))
