"""Static cycle estimation from operation counters under delay tables.

Counter classes are grouped onto functional units: plain adds, subs,
shifts and masks share the integer ALU; word multiplies the integer
multiplier; every `%` the divide/modulo unit; and the fused modular ops
their dedicated units.  Two estimators are provided: a fully serialized
in-order sum, and a coarse throughput bound for out-of-order cores.
Estimates are meant for ratios and orderings, never absolute cycle counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence

from .wordmod import OpCounters

CLASSES = ("int_alu", "int_mul", "hardware_div_mod", "modadd", "modsub", "modmul")


@dataclass(frozen=True)
class DelayTable:
    """Per-unit latencies in cycles."""

    int_alu: int = 1
    int_mul: int = 3
    hardware_div_mod: int = 20
    modadd: int = 2
    modsub: int = 2
    modmul: int = 4

    def __post_init__(self):
        for c in CLASSES:
            if getattr(self, c) < 1:
                raise ValueError(f"delay of {c} must be >= 1")


#: named delay tables; "long" has slower modular operators (adder 4, multiplier 9)
PRESETS = {
    "default": DelayTable(),
    "long": DelayTable(modadd=4, modsub=4, modmul=9),
}

#: out-of-order functional unit counts: two integer ALUs, one of the rest
UNITS = {
    "int_alu": 2,
    "int_mul": 1,
    "hardware_div_mod": 1,
    "modadd": 1,
    "modsub": 1,
    "modmul": 1,
}

#: the only unit that is not pipelined: each op holds it for its full latency
NOT_PIPELINED = "hardware_div_mod"


def class_counts(counters: OpCounters) -> Dict[str, int]:
    """Collapse raw counters onto the functional-unit classes."""
    return {
        "int_alu": counters.word_add + counters.word_sub + counters.shift + counters.mask,
        "int_mul": counters.word_mul,
        "hardware_div_mod": counters.div_mod,
        "modadd": counters.modadd,
        "modsub": counters.modsub,
        "modmul": counters.modmul,
    }


def estimate_io(counters: OpCounters, delays: DelayTable) -> int:
    """Fully serialized issue: every op pays its unit latency."""
    counts = class_counts(counters)
    return sum(counts[c] * getattr(delays, c) for c in CLASSES)


def estimate_ooo(counters: OpCounters, delays: DelayTable) -> int:
    """Throughput-bound heuristic for an out-of-order core.

    The busiest unit sets the pace: pipelined units retire one op per
    cycle each, non-pipelined ones stall for their full latency; one
    drain of the slowest active unit is added.  Deliberately coarse;
    only orderings are meaningful.
    """
    counts = class_counts(counters)
    active = [c for c in CLASSES if counts[c] > 0]
    if not active:
        return 0
    best = 0
    for c in active:
        per_op = getattr(delays, c) if c == NOT_PIPELINED else 1
        best = max(best, -(-counts[c] // UNITS[c]) * per_op)
    return best + max(getattr(delays, c) for c in active)


MODELS = ("io", "ooo")


def estimate(counters: OpCounters, delays: DelayTable, model: str) -> int:
    if model == "io":
        return estimate_io(counters, delays)
    if model == "ooo":
        return estimate_ooo(counters, delays)
    raise ValueError(f"unknown processor model {model!r}")


@dataclass(frozen=True)
class CostReport:
    """Cycle estimate for one measured configuration."""

    backend: str
    variant: str
    n: int
    w: int
    model: str
    preset: str
    cycles: int
    counters: OpCounters


#: canonical slow/fast comparison pairs for the ratio table
RATIO_ROWS = (
    (("modulo", "st"), ("inst", "kawamura")),
    (("modulo", "st"), ("inst", "st")),
    (("modulo", "st"), ("pm", "st")),
    (("pm", "st"), ("inst", "st")),
    (("pm", "st"), ("pm", "kawamura")),
    (("pm", "kawamura"), ("inst", "kawamura")),
    (("inst", "st"), ("inst", "kawamura")),
)


def ratio_report(reports: Sequence[CostReport]) -> List[dict]:
    """Pairwise slow/fast cycle ratios between configurations measured
    under the same n and w, grouped by (model, preset)."""
    if len(reports) < 2:
        raise ValueError("need at least two configurations to form ratios")
    n_set = {r.n for r in reports}
    w_set = {r.w for r in reports}
    if len(n_set) > 1 or len(w_set) > 1:
        raise ValueError(
            f"configurations not comparable: n in {sorted(n_set)}, w in {sorted(w_set)}"
        )
    by_key = {}
    for r in reports:
        by_key[(r.model, r.preset, r.backend, r.variant)] = r
    out = []
    groups = sorted({(r.model, r.preset) for r in reports})
    for model, preset in groups:
        for (sb, sv), (fb, fv) in RATIO_ROWS:
            slow = by_key.get((model, preset, sb, sv))
            fast = by_key.get((model, preset, fb, fv))
            if slow is None or fast is None:
                continue
            out.append(
                {
                    "n": slow.n,
                    "w": slow.w,
                    "model": model,
                    "preset": preset,
                    "slow_backend": sb,
                    "slow_variant": sv,
                    "fast_backend": fb,
                    "fast_variant": fv,
                    "ratio": slow.cycles / fast.cycles,
                }
            )
    return out


def quadratic_fit_r2(ns: Sequence[int], cycles: Sequence[int]) -> float:
    """R^2 of the degree-2 least-squares fit of cycles against channel
    count, solved exactly from the 3x3 normal equations."""
    pts = [(Fraction(x), Fraction(y)) for x, y in zip(ns, cycles, strict=True)]
    if len({x for x, _ in pts}) < 3:
        raise ValueError("a degree-2 fit needs at least three distinct n")
    s = [sum(x**k for x, _ in pts) for k in range(5)]
    t = [sum(x**k * y for x, y in pts) for k in range(3)]
    rows = [[s[i], s[i + 1], s[i + 2], t[i]] for i in range(3)]
    # Gauss-Jordan; the Gram matrix of three distinct n is positive definite,
    # so no pivot is zero
    for i in range(3):
        rows[i] = [v / rows[i][i] for v in rows[i]]
        for r in range(3):
            if r != i:
                rows[r] = [v - rows[r][i] * p for v, p in zip(rows[r], rows[i])]
    a, b, c = (row[3] for row in rows)
    mean = t[0] / len(pts)
    ss_res = sum((y - a - b * x - c * x * x) ** 2 for x, y in pts)
    ss_tot = sum((y - mean) ** 2 for _, y in pts)
    if ss_tot == 0:
        return 1.0
    return float(1 - ss_res / ss_tot)
