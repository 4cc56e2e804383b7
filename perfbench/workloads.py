"""The benchmark's workloads.  Each has a set-up (timed as part of setup_s)
and a closed loop of steps with one client: a step is a round on mul-*,
one default sweep on sweep and one batch of w=8 scalar calls on scalar-w8.
Outputs are checked outside the timed region.
"""

from __future__ import annotations

import io
import itertools
import random
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import List, Optional

from oracle import MontOracle, counters_match, file_sha256

W = 64
POOL = 32
BACKENDS = ("modulo", "pm", "inst")
VARIANTS = ("st", "kawamura")
CHECK_EVERY = 64  # rounds held before their results are checked


@dataclass
class Measurement:
    """Step wall times (s) and what the checks found."""

    times: List[float] = field(default_factory=list)
    mont_mul_calls: int = 0
    attempted: int = 0
    failed: int = 0
    digests: Optional[list] = None  # per-step output fingerprints
    notes: List[str] = field(default_factory=list)


@dataclass
class Lane:
    """One (backend, variant) context fed by its own operand chain."""

    kind: str
    variant: str
    ctx: object
    backend: object
    values: list  # oracle-side values of the pool entries
    pairs: list  # the same operands as MontPairs
    calls: int = 0


def closed_loop(seconds, min_steps, on_step, prepare, timed, check):
    """Run steps one after another until they have taken `seconds` of wall
    time and there are at least `min_steps` of them; return their times.

    A step is ``args = prepare()``, then ``on_step()``, then the timed
    ``out = timed(args)``, then ``check(args, out)``; only ``timed`` is timed.
    """
    times = []
    total = 0.0
    while total < seconds or len(times) < min_steps:
        args = prepare()
        if on_step is not None:
            on_step()
        t0 = perf_counter()
        out = timed(args)
        dt = perf_counter() - t0
        times.append(dt)
        total += dt
        check(args, out)
    return times


class MulWorkload:
    """Rounds of six mont_mul calls, one per backend x variant context.

    Operand pools are drawn from the seed like acceptance criterion 1 and
    each product replaces a random pool entry, so the chains stay inside
    the (n+2)p domain the pipeline promises.
    """

    min_steps = 100

    def __init__(self, n: int):
        self.n = n

    def setup(self, rns, seed: int):
        n = self.n
        pool = [pm.m for pm in rns.basegen.generate_pm_moduli(2 * n, W)]
        bm = rns.basegen.RnsBase(pool[0::2], W)
        bmp = rns.basegen.RnsBase(pool[1::2], W)
        p = rns.bench.pick_modulus(n, W, random.Random(f"{seed}:p:{n}"), bm, bmp)
        contexts = {}
        for variant in VARIANTS:
            kp = (
                rns.baseext.KawamuraParams.for_base(bmp)
                if variant == "kawamura"
                else None
            )
            contexts[variant] = rns.modmul.MontgomeryContext(p, bm, bmp, variant, kp)
        bound = (n + 2) * p
        lanes = []
        for kind in BACKENDS:
            for variant in VARIANTS:
                ctx = contexts[variant]
                rng = random.Random(f"{seed}:{n}:{kind}:{variant}")
                values = [rng.randrange(bound) for _ in range(POOL)]
                pairs = [rns.modmul.mont_pair(ctx, v) for v in values]
                backend = rns.wordmod.make_backend(kind, W)
                lanes.append(Lane(kind, variant, ctx, backend, values, pairs))
        return {"rns": rns, "seed": seed, "p": p, "bm": bm.moduli,
                "bmp": bmp.moduli, "lanes": lanes}

    def measure(self, state, seconds: float, pins: dict, fingerprints=False,
                on_step=None, min_steps=None):
        rns = state["rns"]
        mont_mul = rns.modmul.mont_mul  # looked up now, so a tracer is seen
        lanes = state["lanes"]
        oracle = MontOracle(state["p"], state["bm"], state["bmp"])
        pick = random.Random(f"{state['seed']}:picks:{self.n}").randrange
        m = Measurement(digests=[] if fingerprints else None)
        held = []

        def prepare():
            return [(pick(POOL), pick(POOL), pick(POOL)) for _ in lanes]

        def timed(picks):
            return [
                mont_mul(lane.ctx, lane.pairs[i], lane.pairs[j], lane.backend)
                for lane, (i, j, _) in zip(lanes, picks)
            ]

        def check(picks, zs):
            nonlocal held
            for lane, (_, _, k), z in zip(lanes, picks, zs):
                lane.pairs[k] = z
            held.append((picks, zs))
            if len(held) >= CHECK_EVERY:
                self._check(held, lanes, oracle, m)
                held = []

        m.times = closed_loop(seconds, min_steps or self.min_steps, on_step,
                              prepare, timed, check)
        self._check(held, lanes, oracle, m)
        table = pins["counters"][str(self.n)]
        for lane in lanes:
            row = table[f"{lane.kind}.{lane.variant}"]
            if not counters_match(lane.backend.read_counters().as_dict(), row, lane.calls):
                m.failed += lane.calls
                m.notes.append(
                    f"counters of {lane.kind}/{lane.variant} disagree with the pinned table"
                )
        return m

    @staticmethod
    def _check(held, lanes, oracle, m):
        """Replay the held rounds in order against the oracle-side values."""
        for picks, zs in held:
            for lane, (i, j, k), z in zip(lanes, picks, zs):
                xv, yv = lane.values[i], lane.values[j]
                zv = None if xv is None or yv is None else oracle.check(xv, yv, z)
                lane.values[k] = zv
                lane.calls += 1
                m.mont_mul_calls += 1
                m.attempted += 1
                if zv is None:
                    m.failed += 1
                    if len(m.notes) < 5:
                        m.notes.append(f"{lane.kind}/{lane.variant}: wrong product")
            if m.digests is not None:
                m.digests.append(
                    hash(tuple(z.in_bm.residues + z.in_bmp.residues for z in zs))
                )


class SweepWorkload:
    """The default ``rnsmul bench`` sweep, in-process, repeated."""

    min_steps = 5

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def setup(self, rns, seed: int):
        out = self.workdir / "sweep.csv"
        argv = ["bench", "--seed", str(seed), "--out", str(out)]
        rns.cli.build_parser().parse_args(argv)
        return {"rns": rns, "argv": argv, "out": out,
                "ratios": out.with_name("sweep_ratios.csv")}

    def measure(self, state, seconds: float, pins: dict, fingerprints=False,
                on_step=None, min_steps=None):
        rns = state["rns"]
        bench = rns.bench
        calls_per_sweep = (
            len(bench.DEFAULT_CHANNELS) * len(bench.ALL_BACKENDS) * len(bench.ALL_VARIANTS)
        )
        want = pins["sweep"]
        m = Measurement(digests=[] if fingerprints else None)

        def prepare():
            for path in (state["out"], state["ratios"]):
                path.unlink(missing_ok=True)

        def timed(_):
            with redirect_stdout(io.StringIO()):
                return rns.cli.main(state["argv"])

        def check(_, rc):
            got = {
                "sweep.csv": file_sha256(state["out"]),
                "sweep_ratios.csv": file_sha256(state["ratios"]),
            }
            m.attempted += 1
            m.mont_mul_calls += calls_per_sweep
            if rc != 0 or got != want:
                m.failed += 1
                m.notes.append(f"sweep output differs from the pinned digests: {got}")
            if m.digests is not None:
                m.digests.append(tuple(sorted(got.items())))

        m.times = closed_loop(seconds, min_steps or self.min_steps, on_step,
                              prepare, timed, check)
        return m


class ScalarWorkload:
    """Seeded slices of the checks ``rnsmul verify --scale tiny`` makes at
    w=8: the scalar entry points of every backend, pm_reduce, the CRT
    conversion and one mont_mul at p=97, n=2 (the backend x variant
    combinations take turns), each step a few hundred calls checked
    against Python's integer arithmetic and the CRT oracle.  A whole tiny
    verify takes seconds, too few steps for a steady percentile in one run;
    these steps take about half a millisecond.
    """

    min_steps = 100
    moduli = (251, 247)  # the wordmod-agreement-w8 moduli
    pm_cs = (1, 3, 5, 9)  # the pm-reduce-w8-exhaustive moduli 2^8 - c
    pairs = 32  # (a, b, m) draws per step, each run on every backend
    reductions = 32  # pm_reduce calls per step
    conversions = 8  # CRT round trips per step
    p = 97  # the montgomery-tiny-p97 modulus, on n=2 channels

    def setup(self, rns, seed: int):
        wordmod = rns.wordmod
        crt_base = rns.basegen.RnsBase(
            [pm.m for pm in rns.basegen.generate_pm_moduli(4, 8)], 8
        )
        rng = random.Random(f"{seed}:scalar")
        contexts = {v: rns.modmul.context_new(self.p, 2, 8, v) for v in VARIANTS}
        lanes = []
        for kind in BACKENDS:
            for variant in VARIANTS:
                ctx = contexts[variant]
                values = [rng.randrange(ctx.bound) for _ in range(POOL)]
                pairs = [rns.modmul.mont_pair(ctx, v) for v in values]
                lanes.append((ctx, wordmod.make_backend(kind, 8), values, pairs))
        return {
            "rns": rns,
            "rng": rng,
            "backends": [wordmod.make_backend(k, 8) for k in BACKENDS],
            "pm_backend": wordmod.PseudoMersenne(8),
            "pms": [wordmod.pm_modulus(256 - c, 8) for c in self.pm_cs],
            "crt_base": crt_base,
            "lanes": lanes,
        }

    def measure(self, state, seconds: float, pins: dict, fingerprints=False,
                on_step=None, min_steps=None):
        rnscore, modmul = state["rns"].rnscore, state["rns"].modmul
        from_rns_crt, to_rns = rnscore.from_rns_crt, rnscore.to_rns
        mont_mul = modmul.mont_mul
        lanes = itertools.cycle(state["lanes"])
        oracles = {ctx.variant: MontOracle(ctx.p, ctx.bm.moduli, ctx.bmp.moduli)
                   for ctx, *_ in state["lanes"]}
        rng, backends = state["rng"], state["backends"]
        pm_reduce = state["pm_backend"].pm_reduce
        pms, base = state["pms"], state["crt_base"]
        m = Measurement(digests=[] if fingerprints else None)

        def prepare():
            draws = []
            for _ in range(self.pairs):
                mod = rng.choice(self.moduli)
                draws.append((rng.randrange(mod), rng.randrange(mod), mod,
                              rng.randrange(256)))
            reds = [(rng.randrange(1 << 16), rng.choice(pms))
                    for _ in range(self.reductions)]
            xs = [rng.randrange(base.M) for _ in range(self.conversions)]
            return draws, reds, xs, next(lanes), rng.randrange(POOL), rng.randrange(POOL)

        def timed(args):
            draws, reds, xs, (ctx, lane_be, _, pairs), i, j = args
            scalar = [
                (be.addmod(a, b, mod), be.submod(a, b, mod), be.mulmod(a, b, mod),
                 be.redmod(r, mod))
                for be in backends
                for a, b, mod, r in draws
            ]
            reduced = [pm_reduce(a, pm) for a, pm in reds]
            converted = [from_rns_crt(to_rns(v, base)) for v in xs]
            return scalar, reduced, converted, mont_mul(ctx, pairs[i], pairs[j], lane_be)

        def check(args, out):
            draws, reds, xs, (ctx, _, values, _), i, j = args
            scalar, reduced, converted, z = out
            m.mont_mul_calls += 1
            got = [v for ops in scalar for v in ops] + reduced + converted
            want = [v for _ in backends for a, b, mod, r in draws
                    for v in ((a + b) % mod, (a - b) % mod, a * b % mod, r % mod)]
            want += [a % pm.m for a, pm in reds] + xs
            bad = abs(len(want) - len(got)) + sum(g != w for g, w in zip(got, want))
            bad += oracles[ctx.variant].check(values[i], values[j], z) is None
            m.attempted += len(want) + 1
            m.failed += bad
            if bad and len(m.notes) < 5:
                m.notes.append(f"{bad} scalar results differ from Python's")
            if m.digests is not None:
                m.digests.append(hash((tuple(got), z.in_bm.residues, z.in_bmp.residues)))

        m.times = closed_loop(seconds, min_steps or self.min_steps, on_step,
                              prepare, timed, check)
        return m


def make_workload(name: str, workdir: Path):
    if name == "mul-n64":
        return MulWorkload(64)
    if name == "mul-n8":
        return MulWorkload(8)
    if name == "sweep":
        return SweepWorkload(workdir)
    if name == "scalar-w8":
        return ScalarWorkload()
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("mul-n64", "mul-n8", "sweep", "scalar-w8")
