"""Acceptance criteria, one test per criterion, each printing one
PASS/FAIL line.  Tolerances are pinned here and nowhere else.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import random
import time

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
from rnsmul.bench import BenchConfig, pick_modulus, run_sweep
from rnsmul.cli import main as cli_main
from rnsmul.costmodel import quadratic_fit_r2
from rnsmul.isa import FUNCT3, ModInstr, decode, encode
from rnsmul.modmul import MontgomeryContext, mont_mul, mont_pair
from rnsmul.oracle import crt_quotient, crt_value
from rnsmul.rnscore import from_rns_crt, to_mrs, to_rns
from rnsmul.wordmod import (
    BACKEND_KINDS,
    InstructionSim,
    PseudoMersenne,
    make_backend,
    pm_modulus,
)

SEED = 20240901


def report(num: int, ok: bool, desc: str) -> None:
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} {desc}", flush=True)
    assert ok, f"criterion {num}: {desc}"


_BASES_CACHE = {}


def bases_for(n):
    if n not in _BASES_CACHE:
        pool = [p.m for p in generate_pm_moduli(2 * n, 64)]
        bm, bmp = RnsBase(pool[0::2], 64), RnsBase(pool[1::2], 64)
        p = pick_modulus(n, 64, random.Random(f"{SEED}:p:{n}"), bm, bmp)
        _BASES_CACHE[n] = (bm, bmp, p)
    return _BASES_CACHE[n]


def test_criterion_1_correctness_oracle():
    """10^4 seeded mont_mul calls per (backend x variant x n), all results
    congruent to x*y*M^-1 mod p and below (n+2)p.  Target < 5 min."""
    t0 = time.perf_counter()
    failures = 0
    calls = 0
    for n in (8, 16, 32, 64):
        bm, bmp, p = bases_for(n)
        for variant in ("st", "kawamura"):
            kp = KawamuraParams.for_base(bmp) if variant == "kawamura" else None
            ctx = MontgomeryContext(p, bm, bmp, variant, kp)
            minv = pow(bm.M, -1, p)
            bound = ctx.bound
            for kind in BACKEND_KINDS:
                backend = make_backend(kind, 64)
                rng = random.Random(f"{SEED}:{n}:{variant}:{kind}")
                pool = []
                for _ in range(32):
                    v = rng.randrange(bound)
                    pool.append((v, mont_pair(ctx, v)))
                for _ in range(10_000):
                    xv, x = pool[rng.randrange(32)]
                    yv, y = pool[rng.randrange(32)]
                    z = mont_mul(ctx, x, y, backend)
                    zv = from_rns_crt(z.in_bm)
                    calls += 1
                    if zv >= bound or zv % p != xv * yv * minv % p:
                        failures += 1
                    else:
                        pool[rng.randrange(32)] = (zv, z)
    elapsed = time.perf_counter() - t0
    report(
        1,
        failures == 0 and elapsed < 300.0,
        f"correctness oracle: {calls} mont_mul calls across "
        f"{{backend}}x{{variant}}x{{n}}, {failures} failures, {elapsed:.1f}s",
    )


def test_criterion_2_exhaustive_tiny_equivalence():
    """Every extension algorithm against the CRT oracle over its full valid
    domain on w=8 bases of 2-3 channels.  Target < 60 s."""
    t0 = time.perf_counter()
    be = make_backend("inst", 8)
    bad = 0

    src = build_base((251, 247), 8)
    dst = build_base((255, 253, 241), 8)
    pair = ExtensionPair(src, dst)
    params = KawamuraParams.for_base(src)
    m_e = 239
    half = src.M // 2
    lam_max = 0
    for x in range(src.M):
        xi = to_rns(x, src)
        want = tuple(x % m for m in dst.moduli)
        if extend_szabo_tanaka(xi, pair, be).residues != want:
            bad += 1
        if extend_shenoy_kumaresan(xi, x % m_e, m_e, pair, be).residues != want:
            bad += 1
        v = crt_value(extend_bajard_imbert(xi, pair, be).residues, dst.moduli)
        lam, rem = divmod(v - x, src.M)
        if rem != 0 or not 0 <= lam <= src.n - 1:
            bad += 1
        lam_max = max(lam_max, lam)
        if x <= half:
            if extend_kawamura(xi, pair, params, be).residues != want:
                bad += 1

    src3 = build_base((3, 5, 7), 8)
    dst3 = build_base((11, 13, 17), 8)
    pair3 = ExtensionPair(src3, dst3)
    for x in range(src3.M):
        xi = to_rns(x, src3)
        want = tuple(x % m for m in dst3.moduli)
        if extend_szabo_tanaka(xi, pair3, be).residues != want:
            bad += 1
        if extend_shenoy_kumaresan(xi, x % 19, 19, pair3, be).residues != want:
            bad += 1
        v = crt_value(extend_bajard_imbert(xi, pair3, be).residues, dst3.moduli)
        lam, rem = divmod(v - x, src3.M)
        if rem != 0 or not 0 <= lam <= src3.n - 1:
            bad += 1
    elapsed = time.perf_counter() - t0
    report(
        2,
        bad == 0 and elapsed < 60.0,
        f"exhaustive tiny-scale extension equivalence (ST/SK all x, "
        f"Kawamura x<=M/2, BI lambda<=n-1, max lambda {lam_max}), "
        f"{bad} failures, {elapsed:.1f}s",
    )


def test_criterion_3_pm_reduce_equivalence():
    be8 = PseudoMersenne(8)
    mismatches = 0
    for c in (1, 3, 5, 9):
        pm = pm_modulus(256 - c, 8)
        for a in range(1 << 16):
            if be8.pm_reduce(a, pm) != a % pm.m:
                mismatches += 1
    be64 = PseudoMersenne(64)
    pms = [pm_modulus(p.m, 64) for p in generate_pm_moduli(8, 64)]
    for pm in pms:
        for a in (0, pm.m - 1, pm.m, (1 << 64) - 1, (1 << 128) - 1):
            if be64.pm_reduce(a, pm) != a % pm.m:
                mismatches += 1
    rng = random.Random(SEED)
    cases = 1_000_000
    for _ in range(cases):
        pm = pms[rng.randrange(8)]
        a = rng.getrandbits(128)
        if be64.pm_reduce(a, pm) != a % pm.m:
            mismatches += 1
    report(
        3,
        mismatches == 0,
        f"pm_reduce vs remainder oracle: 4x2^16 exhaustive at w=8, "
        f"{cases} random double-words at w=64, {mismatches} mismatches",
    )


def test_criterion_4_k_hat_exactness():
    bad = 0
    be = make_backend("inst", 8)
    src = build_base((251, 247), 8)
    params = KawamuraParams.for_base(src)
    for x in range(src.M // 2):
        xi = to_rns(x, src)
        if compute_k_hat(xi, params, be) != crt_quotient(xi.residues, src.moduli):
            bad += 1

    src64 = RnsBase([p.m for p in generate_pm_moduli(64, 64)], 64)
    params64 = KawamuraParams.for_base(src64)  # q=8, alpha=1/2
    be64 = make_backend("inst", 64)
    rng = random.Random(SEED + 4)
    cases = 100_000
    half = src64.M // 2
    for _ in range(cases):
        x = rng.randrange(half)
        xi = to_rns(x, src64)
        if compute_k_hat(xi, params64, be64) != crt_quotient(xi.residues, src64.moduli):
            bad += 1
    report(
        4,
        bad == 0,
        f"Kawamura k estimate exact: exhaustive tiny + {cases} random at "
        f"n=64, w=64, q=8, alpha=1/2, {bad} failures",
    )


@pytest.fixture(scope="module")
def sweep():
    cfg = BenchConfig(seed=SEED)
    return run_sweep(cfg)


def test_criterion_5_cost_ratio_reproduction(sweep):
    reports, ratios = sweep
    by_key = {
        (r.n, r.model, r.preset, r.backend, r.variant): r.cycles for r in reports
    }

    def ratio(n, model, preset, slow, fast):
        return by_key[(n, model, preset) + slow] / by_key[(n, model, preset) + fast]

    checks = []
    r_pm_inst = ratio(64, "io", "default", ("pm", "kawamura"), ("inst", "kawamura"))
    checks.append(("PM-K/Inst-K io default in [2.0, 3.5]", 2.0 <= r_pm_inst <= 3.5))
    for kind in BACKEND_KINDS:
        r_st_k = ratio(64, "io", "default", (kind, "st"), (kind, "kawamura"))
        checks.append(
            (f"{kind} ST/K io default in [1.1, 1.8]", 1.1 <= r_st_k <= 1.8)
        )
    for variant in ("st", "kawamura"):
        r_long = ratio(64, "io", "long", ("pm", variant), ("inst", variant))
        checks.append(
            (f"PM/Inst io long ({variant}) in [1.4, 2.6]", 1.4 <= r_long <= 2.6)
        )
    for n in (8, 16, 24, 32, 40, 48, 56, 64):
        for model in ("io", "ooo"):
            for preset in ("default", "long"):
                for variant in ("st", "kawamura"):
                    cm = by_key[(n, model, preset, "modulo", variant)]
                    cp = by_key[(n, model, preset, "pm", variant)]
                    ci = by_key[(n, model, preset, "inst", variant)]
                    checks.append(
                        (f"ordering at n={n} {model} {preset} {variant}", cm > cp > ci)
                    )
    bad = [name for name, ok in checks if not ok]
    report(
        5,
        not bad,
        f"cost ratios: PM-K/Inst-K={r_pm_inst:.2f} in [2.0, 3.5], "
        f"{len(checks)} band/ordering checks, failing: {bad or 'none'}",
    )


def test_criterion_6_quadratic_scaling(sweep):
    reports, _ = sweep
    series = {}
    for r in reports:
        series.setdefault((r.backend, r.variant, r.model, r.preset), []).append(
            (r.n, r.cycles)
        )
    worst = 1.0
    for pts in series.values():
        pts.sort()
        r2 = quadratic_fit_r2([n for n, _ in pts], [c for _, c in pts])
        worst = min(worst, r2)
    report(
        6,
        worst > 0.99,
        f"degree-2 fit of est_cycles vs n over {len(series)} configurations, "
        f"worst R^2 = {worst:.6f} > 0.99",
    )


def test_criterion_7_counter_formulas():
    ok = True
    detail = []
    for n in (8, 16, 32):
        bm, bmp, _ = bases_for(n)
        be = InstructionSim(64)
        to_mrs(to_rns(bm.M - 1, bm), be)
        c = be.read_counters()
        mrs_ok = c.modmul == n * (n - 1) // 2 and c.modsub == n * (n - 1) // 2
        pair = ExtensionPair(bm, bmp)
        params = KawamuraParams.for_base(bm)
        be = InstructionSim(64)
        extend_kawamura(to_rns(bm.M // 3, bm), pair, params, be)
        c = be.read_counters()
        np_ = bmp.n
        kaw_ok = (
            c.modmul == n + n * np_ + np_
            and c.shift == 2 * n
            and c.mask == n
            and c.word_add == 2 * n
        )
        ok = ok and mrs_ok and kaw_ok
        detail.append(f"n={n}: mrs={'ok' if mrs_ok else 'BAD'} kaw={'ok' if kaw_ok else 'BAD'}")
    report(
        7,
        ok,
        "exact op counts: to_mrs n(n-1)/2 modmul, Kawamura n + n*n' + n' "
        f"modmul with 2n-shift/n-mask accumulator ({'; '.join(detail)})",
    )


def test_criterion_8_isa_round_trip():
    rng = random.Random(SEED + 8)
    kinds = sorted(FUNCT3)
    cases = [ModInstr(k, 0, 0, 0, 0) for k in kinds]
    cases += [ModInstr(k, 31, 31, 31, 31) for k in kinds]
    cases += [
        ModInstr(
            rng.choice(kinds),
            rng.randrange(32),
            rng.randrange(32),
            rng.randrange(32),
            rng.randrange(32),
        )
        for _ in range(10_000)
    ]
    bad = sum(1 for instr in cases if decode(encode(instr)) != instr)
    report(8, bad == 0, f"ISA decode(encode(i)) == i over {len(cases)} words")


def test_criterion_9_bench_determinism(tmp_path):
    args = [
        "bench", "--channels", "8,16,24,32", "--seed", "77", "--out",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(args + [str(a)]) == 0
    assert cli_main(args + [str(b)]) == 0
    same = a.read_bytes() == b.read_bytes()
    same_ratios = (tmp_path / "a_ratios.csv").read_bytes() == (
        tmp_path / "b_ratios.csv"
    ).read_bytes()
    report(
        9,
        same and same_ratios,
        "fixed-seed bench runs byte-identical (rows and ratios CSV)",
    )
