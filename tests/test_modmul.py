"""Montgomery pipeline: context sizing, domain entry/exit, congruence and
bound preservation, tiny-scale exhaustive sweeps."""

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from rnsmul import wordmod
from rnsmul.basegen import RnsBase, generate_pm_moduli, split_bases
from rnsmul.baseext import (
    ExtensionPair,
    KawamuraParams,
    extend_bajard_imbert,
    extend_kawamura,
    extend_szabo_tanaka,
)
from rnsmul.bench import pick_modulus
from rnsmul.modmul import (
    VARIANTS,
    MontgomeryContext,
    MontPair,
    context_new,
    from_mont,
    mont_exp,
    mont_mul,
    mont_pair,
    to_mont,
)
from rnsmul.rnscore import RnsInt, from_rns_crt, rns_elementwise
from rnsmul.wordmod import BACKEND_KINDS, make_backend

PINS = Path(__file__).resolve().parents[1] / "perfbench" / "pins.json"

CTX97 = context_new(97, 2, 8, "kawamura")
CTX97_ST = context_new(97, 2, 8, "st")
MINV97 = pow(CTX97.bm.M, -1, 97)


def test_context_tiny_sizing():
    assert CTX97.bm.moduli == (255, 251)
    assert CTX97.bmp.moduli == (253, 247)
    assert CTX97.bm.M == 64005 and CTX97.bm.M > 16 * 97
    assert CTX97.bmp.M == 62491 and CTX97.bmp.M > 2 * 4 * 97
    assert CTX97.bound == 4 * 97


def test_context_rejects_even_p():
    with pytest.raises(ValueError, match="odd"):
        context_new(96, 2, 8)
    with pytest.raises(ValueError, match="odd"):
        context_new(1, 2, 8)


def test_context_rejects_oversized_p():
    # 16 * 4001 = 64016 > M = 64005
    with pytest.raises(ValueError, match="bits"):
        context_new(4001, 2, 8)


def test_context_unknown_variant():
    with pytest.raises(ValueError, match="variant"):
        context_new(97, 2, 8, "cook")


def test_context_wide():
    rng = random.Random(3)
    pool = math.prod(p.m for p in generate_pm_moduli(16, 64))
    p = rng.getrandbits(499) | (1 << 499) | 1
    while math.gcd(p, pool) != 1:
        p += 2
    ctx = context_new(p, 8, 64, "kawamura")
    assert ctx.bm.M.bit_length() == 512
    assert ctx.bm.M > 100 * p  # (n+2)^2 = 100
    assert ctx.bmp.M > 20 * p


def test_precomputed_residues():
    """The channel constants' defining identities, with r_i = (M/m_i) mod m_i:
    c_i*p*r_i = -1 on Bm, c'_j*M*r'_j = 1 and pc'_j*M*r'_j = p on Bm',
    on CTX97 and on every FUSED_CASES shape."""
    contexts = [CTX97]
    for n, n2, w in FUSED_CASES:
        bm, bmp, p, _ = _fused_bases(n, n2, w)
        contexts.append(MontgomeryContext(p, bm, bmp))
    for ctx in contexts:
        p, bm, bmp = ctx.p, ctx.bm, ctx.bmp
        for c, m in zip(ctx.c_bm, bm.moduli):
            assert c * p * (bm.M // m) % m == m - 1
        for c, pc, m in zip(ctx.c_bmp, ctx.pc_bmp, bmp.moduli):
            assert c * bm.M * (bmp.M // m) % m == 1
            assert pc * bm.M * (bmp.M // m) % m == p % m


def test_to_mont_examples():
    z = to_mont(CTX97, 0)
    assert set(z.in_bm.residues) == {0} and set(z.in_bmp.residues) == {0}
    # 10*M mod 97 = 10*82 mod 97 = 44
    assert CTX97.bm.M % 97 == 82
    assert from_rns_crt(to_mont(CTX97, 10).in_bm) == 44
    with pytest.raises(ValueError, match="reduced"):
        to_mont(CTX97, 97)


def test_mont_round_trip_exhaustive():
    be = make_backend("inst", 8)
    for a in range(97):
        assert from_mont(CTX97, to_mont(CTX97, a), be) == a


def test_mont_mul_example():
    be = make_backend("inst", 8)
    z = mont_mul(CTX97, to_mont(CTX97, 10), to_mont(CTX97, 20), be, check=True)
    assert from_mont(CTX97, z, be) == 200 % 97 == 6


def test_mont_mul_identity():
    be = make_backend("modulo", 8)
    one = to_mont(CTX97, 1)
    for a in (0, 1, 42, 96):
        z = mont_mul(CTX97, to_mont(CTX97, a), one, be, check=True)
        assert from_mont(CTX97, z, be) == a


def test_mont_mul_raw_semantics():
    # raw (non-encoded) pairs pick up the M^-1 factor:
    # 10*20*M^-1 mod 97 with M^-1 = 84 gives 19
    be = make_backend("inst", 8)
    assert MINV97 == 84
    z = mont_mul(CTX97, mont_pair(CTX97, 10), mont_pair(CTX97, 20), be, check=True)
    assert from_rns_crt(z.in_bm) % 97 == 10 * 20 * MINV97 % 97 == 19


def test_mont_pair_bound():
    with pytest.raises(ValueError, match="bound"):
        mont_pair(CTX97, CTX97.bound)


def test_mont_exp_examples():
    be = make_backend("inst", 8)
    assert mont_exp(CTX97, 5, 0, be) == 1
    assert mont_exp(CTX97, 5, 1, be) == 5
    assert mont_exp(CTX97, 5, 96, be, check=True) == 1  # Fermat, 97 prime
    assert mont_exp(CTX97, 17, 1234, be) == pow(17, 1234, 97)
    with pytest.raises(ValueError, match="reduced"):
        mont_exp(CTX97, 97, 2, be)
    with pytest.raises(ValueError, match="non-negative"):
        mont_exp(CTX97, 5, -1, be)


def test_exhaustive_tiny_congruence():
    """Every raw input pair below the bound, one variant per run."""
    be = make_backend("inst", 8)
    bound = CTX97.bound
    pairs = [mont_pair(CTX97, v) for v in range(bound)]
    for xv in range(bound):
        x = pairs[xv]
        for yv in range(xv, bound, 7):
            z = mont_mul(CTX97, x, pairs[yv], be)
            zv = from_rns_crt(z.in_bm)
            assert zv < bound
            assert zv == from_rns_crt(z.in_bmp)
            assert zv % 97 == xv * yv * MINV97 % 97


def test_variant_agreement():
    rng = random.Random(7)
    be = make_backend("inst", 8)
    for _ in range(500):
        xv, yv = rng.randrange(CTX97.bound), rng.randrange(CTX97.bound)
        zk = mont_mul(CTX97, mont_pair(CTX97, xv), mont_pair(CTX97, yv), be)
        zs = mont_mul(CTX97_ST, mont_pair(CTX97_ST, xv), mont_pair(CTX97_ST, yv), be)
        assert from_rns_crt(zk.in_bm) % 97 == from_rns_crt(zs.in_bm) % 97


def test_bound_preserved_under_chains():
    be = make_backend("pm", 8)
    # long multiply chain driven through the oracle-checked path
    mont_exp(CTX97, 93, 4099, be, check=True)
    mont_exp(CTX97_ST, 93, 4099, be, check=True)


def test_every_backend_and_variant_w64():
    rng = random.Random(13)
    n = 8
    pool = [p.m for p in generate_pm_moduli(2 * n, 64)]
    bm, bmp = RnsBase(pool[0::2], 64), RnsBase(pool[1::2], 64)
    p = (1 << 499) | rng.getrandbits(498) | 1
    while math.gcd(p, bm.M * bmp.M) != 1:
        p += 2
    for variant in ("st", "kawamura"):
        kp = KawamuraParams.for_base(bmp) if variant == "kawamura" else None
        ctx = MontgomeryContext(p, bm, bmp, variant, kp)
        minv = pow(bm.M, -1, p)
        for kind in BACKEND_KINDS:
            be = make_backend(kind, 64)
            for _ in range(40):
                xv, yv = rng.randrange(ctx.bound), rng.randrange(ctx.bound)
                z = mont_mul(ctx, mont_pair(ctx, xv), mont_pair(ctx, yv), be, check=True)
                assert from_rns_crt(z.in_bm) % p == xv * yv * minv % p


def test_intermediate_channel_counts_w64():
    """Oracle spot checks at the sweep sizes between the acceptance n's."""
    from rnsmul.bench import pick_modulus

    rng = random.Random(37)
    kinds = sorted(BACKEND_KINDS)
    for i, n in enumerate((24, 40, 48, 56)):
        pool = [p.m for p in generate_pm_moduli(2 * n, 64)]
        bm, bmp = RnsBase(pool[0::2], 64), RnsBase(pool[1::2], 64)
        p = pick_modulus(n, 64, rng, bm, bmp)
        variant = ("st", "kawamura")[i % 2]
        kp = KawamuraParams.for_base(bmp) if variant == "kawamura" else None
        ctx = MontgomeryContext(p, bm, bmp, variant, kp)
        be = make_backend(kinds[i % 3], 64)
        for _ in range(50):
            xv, yv = rng.randrange(ctx.bound), rng.randrange(ctx.bound)
            mont_mul(ctx, mont_pair(ctx, xv), mont_pair(ctx, yv), be, check=True)


# -- the context contract: MontgomeryContext checks and completes itself ----


def _products(ctx, kind="inst"):
    """Residues and counters of a fixed run of products on one context."""
    be = make_backend(kind, 8)
    rng = random.Random(11)
    out = []
    for _ in range(20):
        xv, yv = rng.randrange(ctx.bound), rng.randrange(ctx.bound)
        z = mont_mul(ctx, mont_pair(ctx, xv), mont_pair(ctx, yv), be, check=True)
        out.append((z.in_bm.residues, z.in_bmp.residues))
    return out, be.read_counters()


def test_constructor_alias_runs_the_named_variant():
    bm, bmp = CTX97.bm, CTX97.bmp
    for kind in BACKEND_KINDS:
        want_k = _products(CTX97, kind)
        want_st = _products(CTX97_ST, kind)
        ctx = MontgomeryContext(97, bm, bmp, "k", KawamuraParams.for_base(bmp))
        assert ctx.variant == "kawamura"
        assert _products(ctx, kind) == want_k
        ctx = MontgomeryContext(97, bm, bmp, "szabo-tanaka")
        assert ctx.variant == "st"
        assert _products(ctx, kind) == want_st
    # the two variants really differ in cost on this pair
    assert want_k[1] != want_st[1]


def test_constructor_derives_omitted_kparams():
    bm, bmp = CTX97.bm, CTX97.bmp
    for ctx in (
        MontgomeryContext(97, bm, bmp, "kawamura", None),
        MontgomeryContext(97, bm, bmp, "kawamura"),
        MontgomeryContext(97, bm, bmp),
    ):
        assert ctx.variant == "kawamura"
        assert ctx.kparams == KawamuraParams.for_base(bmp)
        assert ctx.kparams.base is bmp
        assert _products(ctx) == _products(CTX97)
    assert MontgomeryContext(97, bm, bmp, "st").kparams is None


def test_constructor_rejects_unknown_variant():
    with pytest.raises(ValueError, match="unknown variant 'cook'"):
        MontgomeryContext(97, CTX97.bm, CTX97.bmp, "cook", None)


def test_constructor_rejects_foreign_kparams():
    bm, bmp = CTX97.bm, CTX97.bmp
    for variant in ("kawamura", "st"):
        with pytest.raises(ValueError, match="different base"):
            MontgomeryContext(97, bm, bmp, variant, KawamuraParams.for_base(bm))


def test_constructor_rejects_even_or_small_p():
    for p in (98, 96, 2, 1, 0, -3):
        with pytest.raises(ValueError, match="odd"):
            MontgomeryContext(p, CTX97.bm, CTX97.bmp, "st", None)
        with pytest.raises(ValueError, match="odd"):
            MontgomeryContext(p, CTX97.bm, CTX97.bmp)


def test_constructor_accepts_the_smallest_p():
    bm, bmp = RnsBase((251, 247), 8), RnsBase((253, 241), 8)
    be = make_backend("inst", 8)
    for variant in VARIANTS:
        ctx = MontgomeryContext(3, bm, bmp, variant)
        for a in range(3):
            for b in range(3):
                z = mont_mul(ctx, to_mont(ctx, a), to_mont(ctx, b), be, check=True)
                assert from_mont(ctx, z, be) == a * b % 3, (variant, a, b)


def test_constructor_rejects_p_sharing_a_factor_with_a_base():
    # Bm = (255, 251) and Bm' = (253, 247); 255 = 3*5*17, 253 = 11*23
    for p, message in (
        (3 * 97, "p and M share factor 3"),
        (11 * 97, "p and M' share factor 11"),
    ):
        for variant in VARIANTS:
            with pytest.raises(ValueError, match=message):
                MontgomeryContext(p, CTX97.bm, CTX97.bmp, variant)


def test_constructor_rejects_bases_of_mixed_widths():
    bmp = RnsBase((65521, 65519), 16)
    for variant in VARIANTS:
        with pytest.raises(ValueError, match="mixed word sizes: Bm has w=8, Bm' has"):
            MontgomeryContext(97, CTX97.bm, bmp, variant)


def test_constructor_rejects_bases_that_share_a_factor():
    bmp = RnsBase((253, 245), 8)  # 245 = 5 * 7^2 and 255 = 3 * 5 * 17
    for variant in VARIANTS:
        with pytest.raises(ValueError, match="M and M' share factor 5"):
            MontgomeryContext(97, CTX97.bm, bmp, variant)


def test_constructor_rejects_kparams_whose_window_misses_the_bound():
    """On Bm = (255, 251), Bm' = (253, 247) and p = 3997 the bound is
    15988 = 0.256*M'.  With alpha = 9/10, unchecked, 1654 of 20,000
    products came out wrong; the window (1-alpha)*M' must hold the bound."""
    bm, bmp = split_bases([pm.m for pm in generate_pm_moduli(4, 8)], 8)
    for alpha in (Fraction(9, 10), Fraction(191, 256)):
        kp = KawamuraParams.for_base(bmp, alpha=alpha)
        for variant in VARIANTS:
            with pytest.raises(
                ValueError, match=rf"alpha={kp.alpha} .* bound \(n\+2\)\*p = 15988"
            ):
                MontgomeryContext(3997, bm, bmp, variant, kp)
    # the widest window on q = 8 bits that holds the bound stays exact
    kp = KawamuraParams.for_base(bmp, alpha=Fraction(190, 256))
    ctx = MontgomeryContext(3997, bm, bmp, "kawamura", kp)
    be, rng = make_backend("inst", 8), random.Random(9)
    for _ in range(300):
        x, y = (mont_pair(ctx, rng.randrange(ctx.bound)) for _ in "xy")
        mont_mul(ctx, x, y, be, check=True)


def test_context_holds_only_what_mont_mul_reads():
    """No extension pair and no op-by-op constant: the reference
    (``_op_by_op``) builds those itself."""
    for ctx in (CTX97, CTX97_ST):
        assert set(vars(ctx)) == {
            "p", "bm", "bmp", "n", "variant", "kparams", "bound",
            "c_bm", "c_bmp", "pc_bmp", "_table", "_checked",
        }


def test_one_charge_table_serves_every_kind():
    for ctx in (CTX97, CTX97_ST):
        first, *rest = [ctx.charges(make_backend(k, 8)) for k in BACKEND_KINDS]
        assert rest and all(table is first for table in rest)


@pytest.mark.parametrize("kind", sorted(BACKEND_KINDS))
def test_mont_mul_rejects_backend_of_another_width(kind):
    ctx = context_new(1_000_003, 2, 64, "st")
    x = to_mont(ctx, 5)
    for _ in range(2):  # a failed check records nothing
        with pytest.raises(ValueError, match="base has w=64, backend expects w=8"):
            mont_mul(ctx, x, x, make_backend(kind, 8))
    # nor does a kind that passed at the context's width pass at another
    mont_mul(ctx, x, x, make_backend(kind, 64))
    with pytest.raises(ValueError, match="base has w=64, backend expects w=8"):
        mont_mul(ctx, x, x, make_backend(kind, 8))


def test_mont_mul_rejects_pm_backend_on_other_moduli():
    pool, prod = [], 1
    for m in range(65001, 60000, -2):  # c = 2^16 - m >= 2^8: not PM form
        if math.gcd(m, prod) == 1:
            pool.append(m)
            prod *= m
        if len(pool) == 4:
            break
    bm, bmp = RnsBase(pool[0::2], 16), RnsBase(pool[1::2], 16)
    for variant in VARIANTS:
        ctx = MontgomeryContext(1_000_003, bm, bmp, variant)
        x = to_mont(ctx, 5)
        for _ in range(2):
            with pytest.raises(ValueError, match="not pseudo-Mersenne"):
                mont_mul(ctx, x, x, make_backend("pm", 16))
        z = mont_mul(ctx, x, x, make_backend("modulo", 16), check=True)
        assert from_mont(ctx, z, make_backend("inst", 16)) == 25


def test_check_names_a_mismatched_pair():
    be = make_backend("inst", 8)
    for ctx in (CTX97, CTX97_ST):
        x = mont_pair(ctx, 10)
        bad = MontPair(x.in_bm, mont_pair(ctx, 11).in_bmp)
        for a, b in ((bad, x), (x, bad)):
            with pytest.raises(AssertionError, match="operand halves disagree"):
                mont_mul(ctx, a, b, be, check=True)


def test_mont_mul_makes_no_backend(monkeypatch):
    be = make_backend("pm", 16)
    ctx = context_new(1_000_003, 4, 16, "kawamura")
    x = to_mont(ctx, 5)

    def refuse(*args, **kwargs):
        raise AssertionError("mont_mul built a backend through a factory name")

    monkeypatch.setattr(wordmod, "make_backend", refuse)
    monkeypatch.setattr(wordmod, "PseudoMersenne", refuse)
    for _ in range(2):
        mont_mul(ctx, x, x, be, check=True)


# -- fused passes against the op-by-op reference ------------------------------


def _op_by_op(ctx, x, y, be):
    """mont_mul's stages one op at a time through the public kernels, on
    constants and extension pairs built here from the bases alone."""
    bm, bmp, p = ctx.bm, ctx.bmp, ctx.p
    neg_p_inv = RnsInt(tuple(-pow(p, -1, m) % m for m in bm.moduli), bm)
    p_bmp = RnsInt(tuple(p % m for m in bmp.moduli), bmp)
    m_inv = RnsInt(tuple(pow(bm.M, -1, m) for m in bmp.moduli), bmp)
    s_m = rns_elementwise("mul", x.in_bm, y.in_bm, be)
    s_mp = rns_elementwise("mul", x.in_bmp, y.in_bmp, be)
    t = rns_elementwise("mul", s_m, neg_p_inv, be)
    t_ext = extend_bajard_imbert(t, ExtensionPair(bm, bmp), be)
    u = rns_elementwise("mul", t_ext, p_bmp, be)
    v = rns_elementwise("add", s_mp, u, be)
    w = rns_elementwise("mul", v, m_inv, be)
    bwd = ExtensionPair(bmp, bm)
    if ctx.variant == "kawamura":
        return MontPair(extend_kawamura(w, bwd, ctx.kparams, be), w)
    return MontPair(extend_szabo_tanaka(w, bwd, be), w)


FUSED_CASES = (
    [(n, n, w) for w in (16, 64) for n in (2, 3, 5, 8)]
    + [(64, 64, 64)]  # w=16 has 42 pseudo-Mersenne moduli, too few for n=64
    + [(a, b, w) for w in (16, 64) for a, b in ((5, 3), (3, 5))]
)


def _fused_bases(n, n2, w):
    """Bm of n and Bm' of n2 sieved moduli, an odd p coprime to both
    inside the sizing range, and the rng that drew p."""
    pool = [pm.m for pm in generate_pm_moduli(n + n2, w)]
    if n == n2:
        bm, bmp = RnsBase(pool[0::2], w), RnsBase(pool[1::2], w)
    else:
        bm, bmp = RnsBase(pool[:n], w), RnsBase(pool[n:], w)
    rng = random.Random(f"{n}:{n2}:{w}")
    limit = min(bm.M // (n + 2) ** 2, bmp.M // (2 * (n + 2)))
    p = 0
    while math.gcd(p, bm.M * bmp.M) != 1:
        p = rng.randrange(limit // 2, limit - 1) | 1
    return bm, bmp, p, rng


@pytest.mark.parametrize("n, n2, w", FUSED_CASES)
def test_fused_matches_op_by_op(n, n2, w):
    """Same residues and the same counters as the reference composition,
    for every kind and variant, on equal and unequal bases."""
    bm, bmp, p, rng = _fused_bases(n, n2, w)
    for variant in VARIANTS:
        ctx = MontgomeryContext(p, bm, bmp, variant)
        for kind in BACKEND_KINDS:
            fused, ref = make_backend(kind, w), make_backend(kind, w)
            for _ in range(4):
                x = mont_pair(ctx, rng.randrange(ctx.bound))
                y = mont_pair(ctx, rng.randrange(ctx.bound))
                assert mont_mul(ctx, x, y, fused) == _op_by_op(ctx, x, y, ref)
            assert fused.read_counters() == ref.read_counters(), (kind, variant)


@pytest.mark.parametrize("n", (8, 64))
def test_counters_match_the_pins(n):
    """One call ticks exactly the pinned row of perfbench/pins.json, and
    every further call the same row again."""
    pins = json.loads(PINS.read_text())["counters"][str(n)]
    pool = [pm.m for pm in generate_pm_moduli(2 * n, 64)]
    bm, bmp = RnsBase(pool[0::2], 64), RnsBase(pool[1::2], 64)
    p = pick_modulus(n, 64, random.Random(n), bm, bmp)
    for variant in VARIANTS:
        ctx = MontgomeryContext(p, bm, bmp, variant)
        x, y = to_mont(ctx, 3), to_mont(ctx, 5)
        for kind in BACKEND_KINDS:
            be = make_backend(kind, 64)
            for calls in (1, 2, 3):
                mont_mul(ctx, x, y, be)
                row = pins[f"{kind}.{variant}"]
                assert be.read_counters().as_dict() == {
                    k: calls * v for k, v in row.items()
                }, (kind, variant, calls)


def test_mont_mul_rejects_operands_of_another_context():
    ctx6 = context_new(1_000_003, 6, 16, "kawamura")
    ctx4 = context_new(1_000_003, 4, 16, "kawamura")
    twin = context_new(1_000_003, 6, 16, "kawamura")  # equal bases, other objects
    y = to_mont(ctx6, 7)
    be = make_backend("pm", 16)
    for x in (
        to_mont(ctx4, 5),
        to_mont(twin, 5),
        y._replace(in_bmp=to_mont(twin, 7).in_bmp),
    ):
        with pytest.raises(ValueError, match="context's bases"):
            mont_mul(ctx6, x, y, be)
        with pytest.raises(ValueError, match="context's bases"):
            mont_mul(ctx6, y, x, be)
