"""Base-extension exactness against the big-integer oracle, the fixed-point
quotient estimate, and the operation-count formulas."""

import math
import random
from fractions import Fraction

import pytest

from rnsmul.basegen import RnsBase, build_base, generate_pm_moduli
from rnsmul.baseext import (
    ExtensionPair,
    KawamuraParams,
    compute_k_hat,
    extend_bajard_imbert,
    extend_kawamura,
    extend_shenoy_kumaresan,
    extend_szabo_tanaka,
)
from rnsmul.oracle import crt_quotient, crt_value
from rnsmul.rnscore import to_rns
from rnsmul.wordmod import InstructionSim, make_backend


SRC2 = build_base((251, 247), 8)
DST2 = build_base((239, 233), 8)
PAIR22 = ExtensionPair(SRC2, DST2)


def test_pair_tables():
    # Szabo-Tanaka sums against the source base's mixed-radix weights
    # m_0*...*m_{i-1}, unreduced
    assert PAIR22.src.weights == (1, 251)
    src3 = build_base((251, 247, 241), 8)
    assert ExtensionPair(src3, DST2).src.weights == (1, 251, 251 * 247)


def test_pair_rejects_shared_factor():
    with pytest.raises(ValueError, match="coprime"):
        ExtensionPair(build_base((3, 5), 8), build_base((7, 9), 8))


def test_st_examples():
    be = make_backend("modulo", 8)
    got = extend_szabo_tanaka(to_rns(247, SRC2), PAIR22, be)
    assert got.residues == (247 % 239, 247 % 233) == (8, 14)
    assert extend_szabo_tanaka(to_rns(0, SRC2), PAIR22, be).residues == (0, 0)


def test_st_exhaustive_tiny():
    src = build_base((3, 5), 8)
    dst = build_base((7, 11), 8)
    pair = ExtensionPair(src, dst)
    be = make_backend("inst", 8)
    for x in range(src.M):
        got = extend_szabo_tanaka(to_rns(x, src), pair, be)
        assert got.residues == (x % 7, x % 11)


def test_kawamura_params_defaults():
    params = KawamuraParams.for_base(SRC2)
    assert params.q == 8 and params.alpha_fp == 128
    # eps = n*(2^-q + c_max*2^-w) with c_max = 9
    assert params.eps == Fraction(2, 256) + Fraction(2 * 9, 256)
    assert params.eps <= params.alpha


def test_kawamura_params_config_errors():
    # moduli far from 2^w push the error bound past alpha
    with pytest.raises(ValueError, match="eps"):
        KawamuraParams.for_base(build_base((3, 5), 8))
    with pytest.raises(ValueError, match="q="):
        KawamuraParams.for_base(SRC2, q=9)
    with pytest.raises(ValueError, match="alpha"):
        KawamuraParams.for_base(SRC2, alpha=Fraction(3, 2))
    # built directly, the params are checked just the same
    with pytest.raises(ValueError, match="eps"):
        KawamuraParams(SRC2, 1, 1)
    # 999/1000 rounds to 1 on q=8 bits, which leaves no window
    with pytest.raises(ValueError, match="alpha"):
        KawamuraParams.for_base(SRC2, alpha=Fraction(999, 1000))
    with pytest.raises(ValueError, match="q="):
        KawamuraParams.for_base(SRC2, q=0)


def test_k_hat_zero():
    be = make_backend("inst", 8)
    params = KawamuraParams.for_base(SRC2)
    assert compute_k_hat(to_rns(0, SRC2), params, be) == 0


def test_k_hat_exhaustive_below_half_range():
    be = make_backend("inst", 8)
    params = KawamuraParams.for_base(SRC2)
    for x in range(SRC2.M // 2):
        xi = to_rns(x, SRC2)
        assert compute_k_hat(xi, params, be) == crt_quotient(xi.residues, SRC2.moduli)


def test_k_hat_boundary():
    be = make_backend("inst", 8)
    params = KawamuraParams.for_base(SRC2)
    x = (SRC2.M - 1) // 2  # largest value below (1 - alpha) * M
    xi = to_rns(x, SRC2)
    assert compute_k_hat(xi, params, be) == crt_quotient(xi.residues, SRC2.moduli)


def test_kawamura_examples():
    be = make_backend("modulo", 8)
    params = KawamuraParams.for_base(SRC2)
    assert extend_kawamura(to_rns(0, SRC2), PAIR22, params, be).residues == (0, 0)
    got = extend_kawamura(to_rns(1000, SRC2), PAIR22, params, be)
    assert got.residues == (1000 % 239, 1000 % 233) == (44, 68)


def test_kawamura_matches_st_below_half_range():
    be = make_backend("inst", 8)
    params = KawamuraParams.for_base(SRC2)
    for x in range(0, SRC2.M // 2):
        xi = to_rns(x, SRC2)
        assert (
            extend_kawamura(xi, PAIR22, params, be).residues
            == extend_szabo_tanaka(xi, PAIR22, be).residues
            == (x % 239, x % 233)
        )


def test_bajard_imbert_examples():
    src = build_base((3, 5), 8)
    dst = build_base((7, 11), 8)
    pair = ExtensionPair(src, dst)
    be = make_backend("modulo", 8)
    assert extend_bajard_imbert(to_rns(0, src), pair, be).residues == (0, 0)
    got = extend_bajard_imbert(to_rns(7, src), pair, be)
    v = crt_value(got.residues, dst.moduli)
    lam = (v - 7) // src.M
    assert v == 7 + lam * src.M and 0 <= lam <= src.n - 1


def test_bajard_imbert_excess_bound_exhaustive():
    src = build_base((3, 5), 8)
    dst = build_base((7, 11), 8)
    pair = ExtensionPair(src, dst)
    be = make_backend("inst", 8)
    seen = set()
    for x in range(src.M):
        got = extend_bajard_imbert(to_rns(x, src), pair, be)
        v = crt_value(got.residues, dst.moduli)
        lam, rem = divmod(v - x, src.M)
        assert rem == 0 and 0 <= lam <= src.n - 1
        seen.add(lam)
    assert seen == {0, 1}  # the approximate extension really is approximate


def test_shenoy_kumaresan_exhaustive_tiny():
    src = build_base((3, 5), 8)
    dst = build_base((11, 13), 8)
    pair = ExtensionPair(src, dst)
    be = make_backend("modulo", 8)
    m_e = 7
    assert extend_shenoy_kumaresan(to_rns(0, src), 0, m_e, pair, be).residues == (0, 0)
    for x in range(src.M):
        got = extend_shenoy_kumaresan(to_rns(x, src), x % m_e, m_e, pair, be)
        assert got.residues == (x % 11, x % 13)


def test_shenoy_kumaresan_recovers_k():
    src = build_base((251, 247), 8)
    dst = build_base((255, 253), 8)
    pair = ExtensionPair(src, dst)
    m_e = 239
    be = make_backend("inst", 8)
    for x in range(0, src.M, 97):
        xi = to_rns(x, src)
        got = extend_shenoy_kumaresan(xi, x % m_e, m_e, pair, be)
        assert got.residues == (x % 255, x % 253)
        assert crt_quotient(xi.residues, src.moduli) <= src.n - 1


@pytest.mark.parametrize("kind", ["modulo", "inst"])
def test_shenoy_kumaresan_rejects_a_recovered_k_of_n_or_more(kind):
    pair = ExtensionPair(SRC2, build_base((253, 241), 8))
    be = make_backend(kind, 8)
    x = to_rns(40000, SRC2)
    assert extend_shenoy_kumaresan(x, 40000 % 239, 239, pair, be).residues == (26, 235)
    with pytest.raises(ValueError, match="k=.* is not below n=2.*x_e=88"):
        extend_shenoy_kumaresan(x, 40001 % 239, 239, pair, be)
    # x_e ranges over m_e values and k with it: exactly n of them pass,
    # the true residue among them
    src, m_e = build_base((3, 5), 8), 7
    tiny = ExtensionPair(src, build_base((11, 13), 8))
    for v in range(src.M):
        passed = set()
        for x_e in range(m_e):
            try:
                extend_shenoy_kumaresan(to_rns(v, src), x_e, m_e, tiny, be)
                passed.add(x_e)
            except ValueError as exc:
                assert "is not below n=2" in str(exc)
        assert len(passed) == src.n and v % m_e in passed, v


def test_shenoy_kumaresan_config_errors():
    src = build_base((3, 5), 8)
    dst = build_base((11, 13), 8)
    pair = ExtensionPair(src, dst)
    be = make_backend("modulo", 8)
    with pytest.raises(ValueError, match="exceed"):
        extend_shenoy_kumaresan(to_rns(1, src), 1 % 2, 2, pair, be)
    with pytest.raises(ValueError, match="factor"):
        extend_shenoy_kumaresan(to_rns(1, src), 1 % 9, 9, pair, be)
    with pytest.raises(ValueError, match="residue"):
        extend_shenoy_kumaresan(to_rns(1, src), 7, 7, pair, be)
    # m_e is judged by the backend's own bounds before anything is counted
    pm_pair = ExtensionPair(SRC2, build_base((253, 241), 8))
    for kind, pair, m_e, match in (
        ("pm", pm_pair, 239, "modulus 239 is not pseudo-Mersenne"),  # c = 17
        ("modulo", PAIR22, 256, "modulus 256 is out of range at w=8"),
    ):
        be = make_backend(kind, 8)
        with pytest.raises(ValueError, match=match):
            extend_shenoy_kumaresan(to_rns(1000, pair.src), 1000 % m_e, m_e, pair, be)
        assert be.read_counters().total() == 0, kind


def test_wrong_base_rejected():
    be = make_backend("modulo", 8)
    other = build_base((11, 13), 8)
    with pytest.raises(ValueError, match="source base"):
        extend_szabo_tanaka(to_rns(1, other), PAIR22, be)


def test_exactness_randomized_w64():
    """At least 1e5 extension-vs-oracle checks across the algorithms."""
    rng = random.Random(101)
    checks = 0
    for n in (8, 16):
        pool = [p.m for p in generate_pm_moduli(2 * n, 64)]
        src, dst = RnsBase(pool[0::2], 64), RnsBase(pool[1::2], 64)
        pair = ExtensionPair(src, dst)
        params = KawamuraParams.for_base(src)
        be = make_backend("pm", 64)
        m_e = (1 << 64) - 363  # coprime odd extra modulus
        assert math.gcd(m_e, src.M) == 1
        m_inv = pow(src.M, -1, dst.M)
        for _ in range(15000):
            x = rng.randrange(src.M)
            xi = to_rns(x, src)
            want = tuple(x % m for m in dst.moduli)
            assert extend_szabo_tanaka(xi, pair, be).residues == want
            bi = extend_bajard_imbert(xi, pair, be)
            # x + lam*M is read modulo M', and M > M' here, so lam is
            # recovered modularly rather than by floor division
            lam = (crt_value(bi.residues, dst.moduli) - x) * m_inv % dst.M
            assert lam <= n - 1
            checks += 2
            if 2 * x < src.M:
                assert extend_kawamura(xi, pair, params, be).residues == want
                checks += 1
            sk = extend_shenoy_kumaresan(xi, x % m_e, m_e, pair, be)
            assert sk.residues == want
            checks += 1
    assert checks >= 100_000


def formula_counts_st(n, np_):
    return {
        "modmul": n * (n - 1) // 2 + n * np_,
        "modsub": n * (n - 1) // 2,
        "modadd": n * (n - 1) // 2 + n * np_ + np_ * (n - 1),
    }


def formula_counts_kawamura(n, np_):
    return {
        "modmul": n + n * np_ + np_,
        "modsub": np_,
        "modadd": 2 * n * np_,
    }


@pytest.mark.parametrize("n", [8, 16, 32])
def test_operation_count_formulas(n):
    """Quadratic cross-product cost plus linear accumulator cost, exact."""
    pool = [p.m for p in generate_pm_moduli(2 * n, 64)]
    src, dst = RnsBase(pool[0::2], 64), RnsBase(pool[1::2], 64)
    pair = ExtensionPair(src, dst)
    params = KawamuraParams.for_base(src)
    x = to_rns(src.M // 3, src)

    be = InstructionSim(64)
    extend_szabo_tanaka(x, pair, be)
    c = be.read_counters()
    want = formula_counts_st(n, dst.n)
    assert c.modmul == want["modmul"]
    assert c.modsub == want["modsub"]
    assert c.modadd == want["modadd"]

    be = InstructionSim(64)
    extend_kawamura(x, pair, params, be)
    c = be.read_counters()
    want = formula_counts_kawamura(n, dst.n)
    assert c.modmul == want["modmul"]
    assert c.modsub == want["modsub"]
    assert c.modadd == want["modadd"]
    # fixed-point accumulator: two shifts, two adds, one mask per channel
    assert c.shift == 2 * n and c.mask == n and c.word_add == 2 * n


# Per-call counters of every extension on every backend kind, one fixed
# 3-channel -> 2-channel pseudo-Mersenne pair at w=8 (zero counters left out).
# Measured on the per-algorithm loops before the extensions shared one
# destination-channel kernel; a change here is a change to the cost model.
PINNED_EXTENSION_COUNTERS = {
    "inst": {
        "st": {"modadd": 13, "modsub": 3, "modmul": 9},
        "kawamura": {"word_add": 6, "shift": 6, "mask": 3,
                     "modadd": 12, "modsub": 2, "modmul": 11},
        "bi": {"modadd": 10, "modmul": 9},
        "sk": {"modadd": 17, "modsub": 3, "modmul": 15},
    },
    "modulo": {
        "st": {"word_add": 7, "word_sub": 3, "word_mul": 9, "div_mod": 25},
        "kawamura": {"word_add": 12, "word_sub": 2, "word_mul": 11,
                     "shift": 6, "mask": 3, "div_mod": 25},
        "bi": {"word_add": 4, "word_mul": 9, "div_mod": 19},
        "sk": {"word_add": 9, "word_sub": 3, "word_mul": 15, "div_mod": 35},
    },
    "pm": {
        "st": {"word_add": 34, "word_sub": 25, "word_mul": 36,
               "shift": 27, "mask": 27},
        "kawamura": {"word_add": 45, "word_sub": 25, "word_mul": 44,
                     "shift": 39, "mask": 36},
        "bi": {"word_add": 31, "word_sub": 19, "word_mul": 36,
               "shift": 27, "mask": 27},
        "sk": {"word_add": 54, "word_sub": 35, "word_mul": 60,
               "shift": 45, "mask": 45},
    },
}


def test_extension_counters_pinned_per_kind():
    src = build_base((253, 251, 247), 8)
    dst = build_base((255, 241), 8)
    pair = ExtensionPair(src, dst)
    params = KawamuraParams.for_base(src)
    x = 1234567  # below M/2, so Kawamura is exact too
    xr = to_rns(x, src)
    want = (x % 255, x % 241)
    runs = {
        "st": lambda be: extend_szabo_tanaka(xr, pair, be),
        "kawamura": lambda be: extend_kawamura(xr, pair, params, be),
        "bi": lambda be: extend_bajard_imbert(xr, pair, be),
        "sk": lambda be: extend_shenoy_kumaresan(xr, x % 245, 245, pair, be),
    }
    for kind, pinned in PINNED_EXTENSION_COUNTERS.items():
        for name, run in runs.items():
            be = make_backend(kind, 8)
            got = run(be).residues
            if name == "bi":
                # the skipped correction leaves x + lambda*M, lambda = 1 here
                assert got == tuple((x + src.M) % m for m in dst.moduli)
            else:
                assert got == want, (kind, name)
            counts = {k: v for k, v in be.read_counters().as_dict().items() if v}
            assert counts == pinned[name], (kind, name)
