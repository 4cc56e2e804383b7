"""Self-check suites behind the CLI `verify` subcommand.

Every suite checks library output against independently computed
big-integer remainders.  Tiny scale is exhaustive at w=8 and finishes
within a minute; full scale adds seeded randomized sweeps at w=64.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Callable, List

from . import baseext, isa, rnscore
from .basegen import RnsBase, build_pm_base, generate_pm_moduli, split_bases
from .baseext import ExtensionPair, KawamuraParams
from .bench import pick_modulus
from .modmul import MontgomeryContext, context_new, mont_mul, mont_pair
from .oracle import crt_quotient, crt_value
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


# -- checks shared by both scales ---------------------------------------------


def _check_word_ops(res: SuiteResult, backends, cases) -> None:
    """addmod/submod/mulmod on every backend against Python's remainder,
    for each (a, b, m) in cases."""
    for a, b, m in cases:
        want = ((a + b) % m, (a - b) % m, a * b % m)
        for be in backends:
            res.check(
                (be.addmod(a, b, m), be.submod(a, b, m), be.mulmod(a, b, m))
                == want,
                f"{be.kind} disagrees with remainder oracle at "
                f"(a={a}, b={b}, m={m})",
            )


def _check_pm_reduce(res: SuiteResult, be: PseudoMersenne, cases) -> None:
    """pm_reduce(a) == a mod m for each (pm, a) in cases."""
    for pm, a in cases:
        got = be.pm_reduce(a, pm)
        res.check(got == a % pm.m, f"pm_reduce({a}) = {got} wrong for c={pm.c}")


def _check_extensions(
    res: SuiteResult, pair, be, xs, m_e=None, kparams=None, bi=True
) -> None:
    """Szabo-Tanaka, and where asked Shenoy-Kumaresan under m_e,
    Bajard-Imbert's excess and Kawamura inside its window x < (1-alpha)*M,
    for each x in xs against x's residues on the destination base.

    Bajard-Imbert returns x + lambda*M read modulo M', which wraps when M' is
    not much larger than M, so lambda is taken as (v - x) * M^-1 mod M'."""
    src, dst = pair.src, pair.dst
    m_inv = pow(src.M, -1, dst.M)
    window = math.ceil((1 - kparams.alpha) * src.M) if kparams else 0
    for x in xs:
        xi = rnscore.to_rns(x, src)
        want = tuple(x % m for m in dst.moduli)
        at = f"n={src.n}, x={x}"
        st = baseext.extend_szabo_tanaka(xi, pair, be)
        res.check(st.residues == want, f"ST wrong at {at}")
        if m_e is not None:
            sk = baseext.extend_shenoy_kumaresan(xi, x % m_e, m_e, pair, be)
            res.check(sk.residues == want, f"SK wrong at {at}")
        if bi:
            bi_x = baseext.extend_bajard_imbert(xi, pair, be)
            v = crt_value(bi_x.residues, dst.moduli)
            lam = (v - x) * m_inv % dst.M
            res.check(lam <= src.n - 1, f"BI excess {lam} out of range at {at}")
        if x < window:
            ka = baseext.extend_kawamura(xi, pair, kparams, be)
            res.check(ka.residues == want, f"Kawamura wrong at {at}")


def _check_products(res: SuiteResult, ctx, be, operands) -> None:
    """mont_mul(check=True) for each (x, y) value pair in operands."""
    for xv, yv in operands:
        try:
            mont_mul(ctx, mont_pair(ctx, xv), mont_pair(ctx, yv), be, check=True)
            res.check(True, "")
        except AssertionError as exc:
            res.check(False, f"{ctx.variant}/{be.kind} n={ctx.n}: {exc} at {xv}, {yv}")


def _random_operands(rng: random.Random, bound: int, count: int):
    for _ in range(count):
        yield rng.randrange(bound), rng.randrange(bound)


def suite_wordmod_agreement(seed: int) -> SuiteResult:
    res = SuiteResult("wordmod-agreement-w8")
    backends = [make_backend(k, 8) for k in BACKEND_KINDS]
    cases = ((a, b, m) for m in (251, 247) for a in range(m) for b in range(m))
    _check_word_ops(res, backends, cases)
    return res


def suite_pm_reduce(seed: int) -> SuiteResult:
    res = SuiteResult("pm-reduce-w8-exhaustive")
    pms = [pm_modulus(256 - c, 8) for c in (1, 3, 5, 9)]
    cases = ((pm, a) for pm in pms for a in range(1 << 16))
    _check_pm_reduce(res, PseudoMersenne(8), cases)
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
                crt_value(got.residues, base.moduli) == ref,
                f"homomorphism broken: {x} {op} {y}",
            )
    return res


def suite_baseext_exact(seed: int) -> SuiteResult:
    res = SuiteResult("baseext-exhaustive-tiny")
    be = make_backend("modulo", 8)
    src = RnsBase((251, 247), 8)
    pair = ExtensionPair(src, RnsBase((255, 253, 241), 8))
    kparams = KawamuraParams.for_base(src)
    _check_extensions(res, pair, be, range(src.M), m_e=239, kparams=kparams)
    # 3-channel tiny base, non-PM moduli
    src3 = RnsBase((3, 5, 7), 8)
    pair3 = ExtensionPair(src3, RnsBase((11, 13, 17), 8))
    _check_extensions(res, pair3, be, range(src3.M), m_e=19, bi=False)
    return res


def suite_k_hat(seed: int) -> SuiteResult:
    res = SuiteResult("kawamura-k-exhaustive-tiny")
    src = RnsBase((251, 247), 8)
    be = make_backend("inst", 8)
    params = KawamuraParams.for_base(src)
    for x in range(math.ceil((1 - params.alpha) * src.M)):
        xi = rnscore.to_rns(x, src)
        k_hat = baseext.compute_k_hat(xi, params, be)
        k_true = crt_quotient(xi.residues, src.moduli)
        res.check(k_hat == k_true, f"k estimate {k_hat} != {k_true} at x={x}")
    return res


def suite_modmul_tiny(seed: int) -> SuiteResult:
    res = SuiteResult("montgomery-tiny-p97")
    rng = random.Random(seed)
    for variant in ("st", "kawamura"):
        ctx = context_new(97, 2, 8, variant)
        exhaustive_x = ((xv, rng.randrange(ctx.bound)) for xv in range(ctx.bound))
        _check_products(res, ctx, make_backend("inst", 8), exhaustive_x)
        for kind in ("modulo", "pm"):
            operands = _random_operands(rng, ctx.bound, 4000)
            _check_products(res, ctx, make_backend(kind, 8), operands)
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

    def draws():
        for _ in range(30000):
            m = rng.choice(moduli)
            yield rng.randrange(m), rng.randrange(m), m

    _check_word_ops(res, backends, draws())
    base = build_pm_base(16, 64)
    for _ in range(2000):
        xs = [rng.randrange(m) for m in base.moduli]
        ys = [rng.randrange(m) for m in base.moduli]
        want = [x * y % m for x, y, m in zip(xs, ys, base.moduli)]
        x, y = rnscore.RnsInt(tuple(xs), base), rnscore.RnsInt(tuple(ys), base)
        for be in backends:
            res.check(
                rnscore.rns_elementwise("mul", x, y, be).residues == tuple(want),
                f"{be.kind} vector kernel disagrees",
            )
    return res


def suite_pm_reduce_w64(seed: int) -> SuiteResult:
    res = SuiteResult("pm-reduce-w64-random")
    rng = random.Random(seed)
    pms = [pm_modulus((1 << 64) - c, 64) for c in (59, 83, 95, 179)]
    edges = [
        (pm, a)
        for pm in pms
        for a in (0, pm.m - 1, pm.m, (1 << 64) - 1, (1 << 128) - 1)
    ]
    draws = (
        (pms[rng.randrange(len(pms))], rng.getrandbits(128)) for _ in range(200000)
    )
    _check_pm_reduce(res, PseudoMersenne(64), itertools.chain(edges, draws))
    return res


def suite_baseext_w64(seed: int) -> SuiteResult:
    res = SuiteResult("baseext-w64-random")
    rng = random.Random(seed)
    for n in (8, 16):
        src, dst = split_bases([p.m for p in generate_pm_moduli(2 * n, 64)], 64)
        xs = (rng.randrange(src.M) for _ in range(1500))
        _check_extensions(
            res,
            ExtensionPair(src, dst),
            make_backend("pm", 64),
            xs,
            kparams=KawamuraParams.for_base(src),
        )
    return res


def suite_modmul_w64(seed: int) -> SuiteResult:
    res = SuiteResult("montgomery-w64-random")
    rng = random.Random(seed)
    for n in (8, 16):
        bm, bmp = split_bases([p.m for p in generate_pm_moduli(2 * n, 64)], 64)
        p = pick_modulus(n, 64, rng, bm, bmp)
        for variant in ("st", "kawamura"):
            ctx = MontgomeryContext(p, bm, bmp, variant)
            for kind in BACKEND_KINDS:
                operands = _random_operands(rng, ctx.bound, 250)
                _check_products(res, ctx, make_backend(kind, 64), operands)
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
