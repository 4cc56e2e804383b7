"""Self-check suites behind the CLI `verify` subcommand.

Every suite checks library output against independently computed
big-integer remainders.  Tiny scale is exhaustive at w=8 and finishes
within a minute; full scale adds seeded randomized sweeps at w=64.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, List

from . import baseext, isa, rnscore
from .basegen import RnsBase, build_pm_base, generate_pm_moduli, split_bases
from .baseext import ExtensionPair, KawamuraParams
from .modmul import MontgomeryContext, context_new, mont_mul, mont_pair
from .wordmod import BACKEND_KINDS, PseudoMersenne, make_backend, pm_modulus


@dataclass
class SuiteResult:
    name: str
    cases: int = 0
    failures: List[str] = field(default_factory=list)

    def check(self, ok: bool, msg: str) -> None:
        self.cases += 1
        if not ok and len(self.failures) < 10:
            self.failures.append(msg)

    @property
    def passed(self) -> bool:
        return not self.failures


def _crt_value(residues, moduli) -> int:
    # independent reconstruction: garner-free direct CRT sum
    M = math.prod(moduli)
    acc = 0
    for r, m in zip(residues, moduli):
        mi = M // m
        acc += r * (pow(mi % m, -1, m) * mi)
    return acc % M


def suite_wordmod_agreement(seed: int) -> SuiteResult:
    res = SuiteResult("wordmod-agreement-w8")
    backends = [make_backend(k, 8) for k in BACKEND_KINDS]
    for m in (251, 247):
        for a in range(m):
            for b in range(m):
                add_want = (a + b) % m
                sub_want = (a - b) % m
                mul_want = a * b % m
                for be in backends:
                    res.check(
                        be.addmod(a, b, m) == add_want
                        and be.submod(a, b, m) == sub_want
                        and be.mulmod(a, b, m) == mul_want,
                        f"{be.kind} disagrees with remainder oracle at "
                        f"(a={a}, b={b}, m={m})",
                    )
    return res


def suite_pm_reduce(seed: int) -> SuiteResult:
    res = SuiteResult("pm-reduce-w8-exhaustive")
    be = PseudoMersenne(8)
    for c in (1, 3, 5, 9):
        pm = pm_modulus(256 - c, 8)
        for a in range(1 << 16):
            got = be.pm_reduce(a, pm)
            if got != a % pm.m and len(res.failures) < 10:
                res.failures.append(f"pm_reduce({a}) = {got} != {a % pm.m} at c={c}")
        res.cases += 1 << 16
    return res


def suite_basegen(seed: int) -> SuiteResult:
    res = SuiteResult("basegen")
    sieve = [p.m for p in generate_pm_moduli(4, 8)]
    res.check(sieve == [255, 253, 251, 247], f"w=8 sieve produced {sieve}")
    res.check(
        sieve == [p.m for p in generate_pm_moduli(4, 8)], "sieve not deterministic"
    )
    for n, w in ((8, 16), (16, 32), (32, 64)):
        base = build_pm_base(n, w)
        ok = all(
            math.gcd(base.moduli[i], base.moduli[j]) == 1
            for i in range(n)
            for j in range(i + 1, n)
        )
        res.check(ok, f"non-coprime pair in generated base n={n}, w={w}")
        res.check(
            base.M > 1 << ((w - 1) * n), f"dynamic range too small at n={n}, w={w}"
        )
    try:
        generate_pm_moduli(256, 8)
        res.check(False, "sieve exhaustion not reported")
    except ValueError:
        res.check(True, "")
    return res


def suite_rnscore(seed: int) -> SuiteResult:
    res = SuiteResult("rnscore-roundtrip-357")
    base = RnsBase((3, 5, 7), 8)
    be = make_backend("modulo", 8)
    for x in range(base.M):
        xi = rnscore.to_rns(x, base)
        res.check(
            rnscore.from_rns_crt(xi) == x, f"CRT round trip broken at x={x}"
        )
        res.check(
            rnscore.mrs_value(rnscore.to_mrs(xi, be)) == x,
            f"MRS round trip broken at x={x}",
        )
    rng = random.Random(seed)
    for _ in range(3000):
        x, y = rng.randrange(base.M), rng.randrange(base.M)
        for op, ref in (
            ("add", (x + y) % base.M),
            ("sub", (x - y) % base.M),
            ("mul", (x * y) % base.M),
        ):
            got = rnscore.rns_elementwise(
                op, rnscore.to_rns(x, base), rnscore.to_rns(y, base), be
            )
            res.check(
                rnscore.from_rns_crt(got) == ref,
                f"homomorphism broken: {x} {op} {y}",
            )
    return res


def _extension_fixture():
    src = RnsBase((251, 247), 8)
    dst = RnsBase((255, 253, 241), 8)
    return src, dst, ExtensionPair(src, dst)


def suite_baseext_exact(seed: int) -> SuiteResult:
    res = SuiteResult("baseext-exhaustive-tiny")
    be = make_backend("modulo", 8)
    src, dst, pair = _extension_fixture()
    params = KawamuraParams.for_base(src)
    m_e = 239
    half = src.M // 2
    for x in range(src.M):
        xi = rnscore.to_rns(x, src)
        want = tuple(x % m for m in dst.moduli)
        st = baseext.extend_szabo_tanaka(xi, pair, be)
        res.check(st.residues == want, f"ST wrong at x={x}")
        sk = baseext.extend_shenoy_kumaresan(xi, x % m_e, m_e, pair, be)
        res.check(sk.residues == want, f"SK wrong at x={x}")
        bi = baseext.extend_bajard_imbert(xi, pair, be)
        v = _crt_value(bi.residues, dst.moduli)
        lam = (v - x) // src.M
        res.check(
            v == x + lam * src.M and 0 <= lam <= src.n - 1,
            f"BI excess out of range at x={x}: got {v}",
        )
        if x < half:
            ka = baseext.extend_kawamura(xi, pair, params, be)
            res.check(ka.residues == want, f"Kawamura wrong at x={x}")
    # 3-channel tiny base, non-PM moduli
    src3 = RnsBase((3, 5, 7), 8)
    dst3 = RnsBase((11, 13, 17), 8)
    pair3 = ExtensionPair(src3, dst3)
    for x in range(src3.M):
        xi = rnscore.to_rns(x, src3)
        want = tuple(x % m for m in dst3.moduli)
        res.check(
            baseext.extend_szabo_tanaka(xi, pair3, be).residues == want,
            f"ST wrong at x={x} on 3-channel base",
        )
        res.check(
            baseext.extend_shenoy_kumaresan(xi, x % 19, 19, pair3, be).residues
            == want,
            f"SK wrong at x={x} on 3-channel base",
        )
    return res


def suite_k_hat(seed: int) -> SuiteResult:
    res = SuiteResult("kawamura-k-exhaustive-tiny")
    src = RnsBase((251, 247), 8)
    be = make_backend("inst", 8)
    params = KawamuraParams.for_base(src)
    for x in range(src.M // 2):
        xi = rnscore.to_rns(x, src)
        k_hat = baseext.compute_k_hat(xi, params, be)
        coeffs = [r * inv % m for r, inv, m in zip(xi.residues, src.inv_Mi, src.moduli)]
        k_true = (sum(c * mi for c, mi in zip(coeffs, src.Mi)) - x) // src.M
        res.check(k_hat == k_true, f"k estimate {k_hat} != {k_true} at x={x}")
    return res


def suite_modmul_tiny(seed: int) -> SuiteResult:
    res = SuiteResult("montgomery-tiny-p97")
    p = 97
    rng = random.Random(seed)
    contexts = {v: context_new(p, 2, 8, v) for v in ("st", "kawamura")}
    m_inv = {v: pow(c.bm.M, -1, p) for v, c in contexts.items()}
    for variant, ctx in contexts.items():
        be = make_backend("inst", 8)
        for xv in range(ctx.bound):
            x = mont_pair(ctx, xv)
            yv = rng.randrange(ctx.bound)
            y = mont_pair(ctx, yv)
            r = mont_mul(ctx, x, y, be)
            rv = rnscore.from_rns_crt(r.in_bm)
            res.check(
                rv < ctx.bound
                and rv == rnscore.from_rns_crt(r.in_bmp)
                and rv % p == xv * yv * m_inv[variant] % p,
                f"{variant}: wrong product at x={xv}, y={yv}",
            )
        for kind in ("modulo", "pm"):
            be = make_backend(kind, 8)
            for _ in range(4000):
                xv, yv = rng.randrange(ctx.bound), rng.randrange(ctx.bound)
                r = mont_mul(ctx, mont_pair(ctx, xv), mont_pair(ctx, yv), be)
                rv = rnscore.from_rns_crt(r.in_bm)
                res.check(
                    rv < ctx.bound and rv % p == xv * yv * m_inv[variant] % p,
                    f"{variant}/{kind}: wrong product at x={xv}, y={yv}",
                )
    return res


def suite_isa(seed: int) -> SuiteResult:
    res = SuiteResult("isa-roundtrip")
    rng = random.Random(seed)
    kinds = list(isa.FUNCT3)
    samples = [isa.ModInstr(k, 0, 0, 0, 0) for k in kinds]
    samples += [isa.ModInstr(k, 31, 31, 31, 31) for k in kinds]
    samples += [
        isa.ModInstr(
            rng.choice(kinds),
            rng.randrange(32),
            rng.randrange(32),
            rng.randrange(32),
            rng.randrange(32),
        )
        for _ in range(10000)
    ]
    for instr in samples:
        res.check(
            isa.decode(isa.encode(instr)) == instr, f"round trip broken: {instr}"
        )
    return res


# -- full-scale additions ------------------------------------------------------


def suite_wordmod_w64(seed: int) -> SuiteResult:
    res = SuiteResult("wordmod-agreement-w64")
    rng = random.Random(seed)
    backends = [make_backend(k, 64) for k in BACKEND_KINDS]
    moduli = [(1 << 64) - c for c in (59, 83, 95, 179, 189)]
    for _ in range(30000):
        m = rng.choice(moduli)
        a, b = rng.randrange(m), rng.randrange(m)
        for be in backends:
            res.check(
                be.addmod(a, b, m) == (a + b) % m
                and be.submod(a, b, m) == (a - b) % m
                and be.mulmod(a, b, m) == a * b % m,
                f"{be.kind} disagrees at w=64 (a={a}, b={b}, m={m})",
            )
    base = build_pm_base(16, 64)
    vec_backends = [make_backend(k, 64) for k in BACKEND_KINDS]
    for _ in range(2000):
        xs = [rng.randrange(m) for m in base.moduli]
        ys = [rng.randrange(m) for m in base.moduli]
        want = [x * y % m for x, y, m in zip(xs, ys, base.moduli)]
        for be in vec_backends:
            res.check(
                be.vec_mul(xs, ys, base) == want,
                f"{be.kind} vector kernel disagrees",
            )
    return res


def suite_pm_reduce_w64(seed: int) -> SuiteResult:
    res = SuiteResult("pm-reduce-w64-random")
    rng = random.Random(seed)
    be = PseudoMersenne(64)
    pms = [pm_modulus((1 << 64) - c, 64) for c in (59, 83, 95, 179)]
    for pm in pms:
        for a in (0, pm.m - 1, pm.m, (1 << 64) - 1, (1 << 128) - 1):
            res.check(be.pm_reduce(a, pm) == a % pm.m, f"edge {a} broken")
    for _ in range(200000):
        pm = pms[rng.randrange(len(pms))]
        a = rng.getrandbits(128)
        if be.pm_reduce(a, pm) != a % pm.m and len(res.failures) < 10:
            res.failures.append(f"pm_reduce({a}) wrong for c={pm.c}")
    res.cases += 200000
    return res


def suite_baseext_w64(seed: int) -> SuiteResult:
    res = SuiteResult("baseext-w64-random")
    rng = random.Random(seed)
    for n in (8, 16):
        src, dst = split_bases([p.m for p in generate_pm_moduli(2 * n, 64)], 64)
        pair = ExtensionPair(src, dst)
        params = KawamuraParams.for_base(src)
        be = make_backend("pm", 64)
        for _ in range(1500):
            x = rng.randrange(src.M)
            xi = rnscore.to_rns(x, src)
            want = tuple(x % m for m in dst.moduli)
            res.check(
                baseext.extend_szabo_tanaka(xi, pair, be).residues == want,
                f"ST wrong at n={n}, x={x}",
            )
            bi = baseext.extend_bajard_imbert(xi, pair, be)
            lam = (_crt_value(bi.residues, dst.moduli) - x) // src.M
            res.check(0 <= lam <= n - 1, f"BI excess {lam} out of range at n={n}")
            if 2 * x < src.M:
                res.check(
                    baseext.extend_kawamura(xi, pair, params, be).residues == want,
                    f"Kawamura wrong at n={n}, x={x}",
                )
    return res


def suite_modmul_w64(seed: int) -> SuiteResult:
    res = SuiteResult("montgomery-w64-random")
    rng = random.Random(seed)
    from .bench import pick_modulus

    for n in (8, 16):
        bm, bmp = split_bases([p.m for p in generate_pm_moduli(2 * n, 64)], 64)
        p = pick_modulus(n, 64, rng, bm, bmp)
        for variant in ("st", "kawamura"):
            ctx = MontgomeryContext(p, bm, bmp, variant)
            for kind in BACKEND_KINDS:
                be = make_backend(kind, 64)
                for _ in range(250):
                    xv, yv = rng.randrange(ctx.bound), rng.randrange(ctx.bound)
                    try:
                        mont_mul(
                            ctx, mont_pair(ctx, xv), mont_pair(ctx, yv), be, check=True
                        )
                        res.check(True, "")
                    except AssertionError as exc:
                        res.check(False, f"{kind}/{variant} n={n}: {exc}")
    return res


TINY_SUITES: List[Callable[[int], SuiteResult]] = [
    suite_wordmod_agreement,
    suite_pm_reduce,
    suite_basegen,
    suite_rnscore,
    suite_baseext_exact,
    suite_k_hat,
    suite_modmul_tiny,
    suite_isa,
]

FULL_SUITES = TINY_SUITES + [
    suite_wordmod_w64,
    suite_pm_reduce_w64,
    suite_baseext_w64,
    suite_modmul_w64,
]


def run_suites(scale: str, seed: int) -> List[SuiteResult]:
    suites = TINY_SUITES if scale == "tiny" else FULL_SUITES
    return [fn(seed) for fn in suites]
