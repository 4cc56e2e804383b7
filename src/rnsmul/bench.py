"""Benchmark sweep: run the multiplication across configurations, weigh
the collected counters with the delay tables, emit plottable CSV."""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import IO, List, Optional, Sequence, Tuple

from .basegen import RnsBase, generate_pm_moduli, split_bases
from .costmodel import MODELS, PRESETS, CostReport, class_counts, estimate, ratio_report
from .modmul import VARIANT_ALIASES, VARIANTS, MontgomeryContext, mont_mul
from .modmul import range_needs, to_mont
from .wordmod import BACKEND_KINDS, check_width, make_backend

CSV_HEADER = (
    "n,w,backend,variant,model,preset,"
    "modadd_count,modmul_count,mul_count,alu_count,divmod_count,est_cycles"
)
RATIOS_HEADER = (
    "n,w,model,preset,slow_backend,slow_variant,fast_backend,fast_variant,ratio"
)

DEFAULT_CHANNELS = tuple(range(8, 65, 8))
ALL_BACKENDS = tuple(BACKEND_KINDS)
ALL_VARIANTS = VARIANTS


@dataclass
class BenchConfig:
    channels: Tuple[int, ...] = DEFAULT_CHANNELS
    w: int = 64
    backends: Tuple[str, ...] = ALL_BACKENDS
    variants: Tuple[str, ...] = ALL_VARIANTS
    models: Tuple[str, ...] = MODELS
    presets: Tuple[str, ...] = tuple(PRESETS)
    seed: int = 1
    moduli_pool: Optional[Tuple[int, ...]] = None  # overrides the sieve

    def __post_init__(self):
        """The one judge of a sweep configuration: every bad value raises
        ValueError here, before anything runs."""
        if not self.channels:
            raise ValueError("no channel counts given")
        pool = self.moduli_pool
        for n in self.channels:
            if n < 2 or n % 2 != 0:
                raise ValueError(f"channel count {n} must be even and >= 2")
            if pool is not None and len(pool) != 2 * n:
                raise ValueError(
                    f"moduli pool holds {len(pool)} entries, need {2 * n} for n={n}"
                )
        check_width(self.w)
        for what, names, known in (
            ("backend", self.backends, BACKEND_KINDS),
            ("variant", self.variants, VARIANT_ALIASES),
            ("model", self.models, MODELS),
            ("preset", self.presets, PRESETS),
        ):
            for name in names:
                if name not in known:
                    raise ValueError(
                        f"unknown {what} {name!r}, expected one of {sorted(known)}"
                    )
        if pool is not None:
            # each requested kind judges the pool by its own modulus bounds
            for kind in self.backends:
                check = make_backend(kind, self.w).check_modulus
                for m in pool:
                    check(m)
            check_pool_range(pool, len(pool) // 2, self.w)
        # each name once, in order, variant aliases resolved
        self.backends = tuple(dict.fromkeys(self.backends))
        self.variants = tuple(dict.fromkeys(VARIANT_ALIASES[v] for v in self.variants))
        self.models = tuple(dict.fromkeys(self.models))
        self.presets = tuple(dict.fromkeys(self.presets))

    @cached_property
    def pool(self) -> Tuple[int, ...]:
        """moduli_pool, or one prefix-stable sieve of 2*max(channels)
        moduli on first read; each n splits the first 2n."""
        return self.moduli_pool or tuple(
            pm.m for pm in generate_pm_moduli(2 * max(self.channels), self.w)
        )


def modulus_bits(n: int, w: int) -> int:
    """Bit length of the sweep's modulus p: n*w - 2*bits(n+2) - 4 leaves
    room for both sizing rules on a sieved pool."""
    bits = n * w - 2 * (n + 2).bit_length() - 4
    if bits < 2:
        raise ValueError(f"no room for a modulus at n={n}, w={w}")
    return bits


def check_pool_range(pool: Sequence[int], n: int, w: int) -> None:
    """That the two bases split from pool hold every p pick_modulus can
    draw: modmul.range_needs for all p below 2^bits."""
    bits = modulus_bits(n, w)
    need_m, need_mp = range_needs(n, (1 << bits) - 1)
    M, Mp = math.prod(pool[0::2]), math.prod(pool[1::2])
    if M <= need_m or Mp <= need_mp:
        raise ValueError(
            f"moduli pool too small for the sweep's modulus of {bits} bits "
            f"at n={n}, w={w}: need M > (n+2)^2*p ({need_m.bit_length()} bits, "
            f"pool gives {M.bit_length()}) and M' > 2(n+2)*p "
            f"({need_mp.bit_length()} bits, pool gives {Mp.bit_length()})"
        )


def pick_modulus(n: int, w: int, rng: random.Random, bm: RnsBase, bmp: RnsBase) -> int:
    """Seeded odd modulus p of modulus_bits(n, w) bits, sized well inside
    the dynamic range; rejection keeps p coprime to the base products.
    """
    bits = modulus_bits(n, w)
    while True:
        p = rng.getrandbits(bits - 1) | (1 << (bits - 1)) | 1
        if math.gcd(p, bm.M) == 1 and math.gcd(p, bmp.M) == 1:
            return p


def measure_counters(cfg: BenchConfig) -> List[Tuple[int, str, str, object]]:
    """Run the sweep and collect one counter snapshot per
    (n, backend, variant), each of one mont_mul.  Deterministic in
    cfg.seed."""
    out = []
    for n in cfg.channels:
        bm, bmp = split_bases(cfg.pool[: 2 * n], cfg.w)
        p = pick_modulus(n, cfg.w, random.Random(f"{cfg.seed}:p:{n}"), bm, bmp)
        contexts = []  # drops the previous n's contexts before building these
        for variant in cfg.variants:
            contexts.append(MontgomeryContext(p, bm, bmp, variant))
        # counters do not depend on the data: one operand, 1 in the domain,
        # shared by the variants, whose contexts live on the same bases
        x = contexts and to_mont(contexts[0], 1)
        for kind in cfg.backends:
            for ctx in contexts:
                backend = make_backend(kind, cfg.w)
                mont_mul(ctx, x, x, backend)
                out.append((n, kind, ctx.variant, backend.read_counters()))
    return out


def reports_from_counters(cfg: BenchConfig, measured) -> List[CostReport]:
    reports = []
    for n, kind, variant, counters in measured:
        for preset in cfg.presets:
            for model in cfg.models:
                reports.append(
                    CostReport(
                        backend=kind,
                        variant=variant,
                        n=n,
                        w=cfg.w,
                        model=model,
                        preset=preset,
                        cycles=estimate(counters, PRESETS[preset], model),
                        counters=counters,
                    )
                )
    return reports


def run_sweep(cfg: BenchConfig) -> Tuple[List[CostReport], List[dict]]:
    """All cost reports plus the companion ratio rows, taken at the
    largest measured channel count."""
    reports = reports_from_counters(cfg, measure_counters(cfg))
    n_top = max(cfg.channels)
    top = [r for r in reports if r.n == n_top]
    ratios = ratio_report(top) if len(top) >= 2 else []
    return reports, ratios


def write_rows(reports: Sequence[CostReport], fp: IO[str]) -> None:
    fp.write(CSV_HEADER + "\n")
    for r in reports:
        c = class_counts(r.counters)
        fp.write(
            f"{r.n},{r.w},{r.backend},{r.variant},{r.model},{r.preset},"
            f"{c['modadd'] + c['modsub']},{c['modmul']},{c['int_mul']},"
            f"{c['int_alu']},{c['hardware_div_mod']},{r.cycles}\n"
        )


def write_ratios(ratios: Sequence[dict], fp: IO[str]) -> None:
    fp.write(RATIOS_HEADER + "\n")
    for row in ratios:
        fp.write(
            f"{row['n']},{row['w']},{row['model']},{row['preset']},"
            f"{row['slow_backend']},{row['slow_variant']},"
            f"{row['fast_backend']},{row['fast_variant']},{row['ratio']:.4f}\n"
        )


def read_rows(fp: IO[str]) -> List[dict]:
    """Parse a sweep CSV back into dicts (schema round-trip helper)."""
    reader = csv.DictReader(fp)
    if reader.fieldnames != CSV_HEADER.split(","):
        raise ValueError(f"unexpected CSV header: {reader.fieldnames}")
    rows = []
    for raw in reader:
        row = dict(raw)
        for key in (
            "n",
            "w",
            "modadd_count",
            "modmul_count",
            "mul_count",
            "alu_count",
            "divmod_count",
            "est_cycles",
        ):
            row[key] = int(row[key])
        rows.append(row)
    return rows
