"""Cycle estimators, delay presets, ratio plumbing."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rnsmul

from rnsmul.costmodel import (
    CLASSES,
    PRESETS,
    CostReport,
    DelayTable,
    class_counts,
    estimate_io,
    estimate_ooo,
    quadratic_fit_r2,
    ratio_report,
)
from rnsmul.modmul import context_new, mont_mul, mont_pair
from rnsmul.wordmod import InstructionSim, OpCounters, make_backend


def test_estimate_io_basics():
    d = DelayTable()
    assert estimate_io(OpCounters(), d) == 0
    assert estimate_io(OpCounters(modmul=10), d) == 40
    assert estimate_io(OpCounters(word_add=3, shift=2, mask=1, word_mul=2), d) == 12


def test_estimate_io_self_consistency():
    """The estimate equals the counter-weighted sum recomputed here."""
    ctx = context_new(97, 2, 8, "kawamura")
    be = InstructionSim(8)
    mont_mul(ctx, mont_pair(ctx, 10), mont_pair(ctx, 20), be)
    counters = be.read_counters()
    d = DelayTable()
    weights = {
        "int_alu": counters.word_add + counters.word_sub + counters.shift + counters.mask,
        "int_mul": counters.word_mul,
        "hardware_div_mod": counters.div_mod,
        "modadd": counters.modadd,
        "modsub": counters.modsub,
        "modmul": counters.modmul,
    }
    want = sum(weights[c] * getattr(d, c) for c in CLASSES)
    assert estimate_io(counters, d) == want > 0


def test_estimate_ooo_basics():
    d = DelayTable()
    assert estimate_ooo(OpCounters(), d) == 0
    # one pipelined unit: ten issues plus one drain of the 4-cycle latency
    assert estimate_ooo(OpCounters(modmul=10), d) == 14
    # the divide unit is not pipelined: every op pays the full 20 cycles
    assert estimate_ooo(OpCounters(div_mod=5), d) == 5 * 20 + 20
    # two ALUs halve the alu stream
    assert estimate_ooo(OpCounters(word_add=10), d) == 5 + 1


def test_delay_validation_and_presets():
    with pytest.raises(ValueError, match=">= 1"):
        DelayTable(modadd=0)
    long = PRESETS["long"]
    assert (long.modadd, long.modsub, long.modmul) == (4, 4, 9)
    assert long.int_alu == 1 and long.int_mul == 3


def test_monotonic_in_delays():
    ctx = context_new(97, 2, 8, "st")
    be = make_backend("pm", 8)
    mont_mul(ctx, mont_pair(ctx, 5), mont_pair(ctx, 6), be)
    counters = be.read_counters()
    base_table = DelayTable()
    io0 = estimate_io(counters, base_table)
    ooo0 = estimate_ooo(counters, base_table)
    for cls in CLASSES:
        bumped = dataclasses.replace(base_table, **{cls: getattr(base_table, cls) + 1})
        assert estimate_io(counters, bumped) >= io0
        assert estimate_ooo(counters, bumped) >= ooo0


def _report(backend, variant, cycles, model="io", preset="default", n=64, w=64):
    return CostReport(backend, variant, n, w, model, preset, cycles, OpCounters())


def test_ratio_report_rows():
    reports = [
        _report("modulo", "st", 6000),
        _report("pm", "st", 3000),
        _report("pm", "kawamura", 2400),
        _report("inst", "st", 1000),
        _report("inst", "kawamura", 800),
    ]
    rows = ratio_report(reports)
    by_pair = {
        (r["slow_backend"], r["slow_variant"], r["fast_backend"], r["fast_variant"]): r
        for r in rows
    }
    assert by_pair[("modulo", "st", "inst", "kawamura")]["ratio"] == pytest.approx(7.5)
    assert by_pair[("pm", "kawamura", "inst", "kawamura")]["ratio"] == pytest.approx(3.0)
    assert by_pair[("inst", "st", "inst", "kawamura")]["ratio"] == pytest.approx(1.25)


def test_ratio_report_validation():
    with pytest.raises(ValueError, match="at least two"):
        ratio_report([_report("pm", "st", 10)])
    with pytest.raises(ValueError, match="comparable"):
        ratio_report([_report("pm", "st", 10), _report("inst", "st", 5, n=32)])


def test_class_counts_mapping():
    c = OpCounters(
        word_add=1, word_sub=2, word_mul=3, shift=4, mask=5, div_mod=6,
        modadd=7, modsub=8, modmul=9,
    )
    got = class_counts(c)
    assert got == {
        "int_alu": 12, "int_mul": 3, "hardware_div_mod": 6,
        "modadd": 7, "modsub": 8, "modmul": 9,
    }


def test_quadratic_fit_r2():
    ns = [8, 16, 24, 32, 40, 48, 56, 64]
    perfect = [3 * n * n + 5 * n + 11 for n in ns]
    assert quadratic_fit_r2(ns, perfect) == pytest.approx(1.0)
    linear_noise = [n * n + (n % 3) * 10000 for n in ns]
    assert quadratic_fit_r2(ns, linear_noise) < 0.99
    with pytest.raises(ValueError, match="three distinct"):
        quadratic_fit_r2([8, 16, 16, 8], [1, 2, 3, 4])


def test_ooo_never_exceeds_io_on_real_traces():
    from rnsmul.bench import BenchConfig, measure_counters

    measured = measure_counters(BenchConfig(channels=(8, 16, 24, 32), seed=2))
    assert measured
    for _, _, _, counters in measured:
        for preset in ("default", "long"):
            d = PRESETS[preset]
            assert estimate_ooo(counters, d) <= estimate_io(counters, d)


def test_import_does_not_load_numpy():
    """The package has no third-party runtime dependency."""
    env = dict(os.environ, PYTHONPATH=str(Path(rnsmul.__file__).parents[1]))
    code = "import sys, rnsmul; sys.exit('numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
