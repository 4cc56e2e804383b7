"""Self-tests of the benchmark itself (not of rnsmul).

    python3 perfbench/selftest.py

Prints one PASS/FAIL line per check and exits 1 if any failed.  Takes a
few seconds.
"""

from __future__ import annotations

import sys
import traceback

import run
from oracle import MontOracle, counters_match, load_pins
from tracing import Tracer
from workloads import MulWorkload, ScalarWorkload, SweepWorkload

SEED = 11
ROUNDS = 40


def measure_rounds(wl, state, pins, **kw):
    return wl.measure(state, 0, pins, fingerprints=True, min_steps=ROUNDS, **kw)


def test_traced_run_matches_untraced():
    """Same seed, with and without the tracer: identical outputs and
    counters, and span self deltas that add up to the backend counters."""
    pins = load_pins()
    wl = MulWorkload(8)
    rns = run.load_rnsmul()
    plain_state = wl.setup(rns, SEED)
    plain = measure_rounds(wl, plain_state, pins)
    tracer = Tracer(rns)
    tracer.install()
    try:
        traced_state = wl.setup(rns, SEED)
        traced = measure_rounds(wl, traced_state, pins)
    finally:
        tracer.uninstall()
    assert plain.failed == traced.failed == 0, (plain.notes, traced.notes)
    assert plain.digests == traced.digests
    for a, b in zip(plain_state["lanes"], traced_state["lanes"]):
        assert a.backend.read_counters() == b.backend.read_counters()
    assert tracer.self_delta_sum() == tracer.backend_counter_sum()
    assert not hasattr(rns.modmul.mont_mul, "__wrapped__"), "uninstall left a wrapper"


def test_span_deltas_sum_to_whole_call():
    """For one traced mont_mul per backend x variant at n=8 and n=64, the
    self deltas of the spans under it sum exactly to the counters of the
    whole call, which equal the pinned row."""
    pins = load_pins()
    for n in (8, 64):
        wl = MulWorkload(n)
        rns = run.load_rnsmul()
        tracer = Tracer(rns)
        tracer.install()
        try:
            state = wl.setup(rns, SEED)
            for lane in state["lanes"]:
                tracer.reset()
                before = lane.backend.read_counters().as_dict()
                rns.modmul.mont_mul(lane.ctx, lane.pairs[0], lane.pairs[1], lane.backend)
                after = lane.backend.read_counters().as_dict()
                fields = tracer.counter_fields
                whole = tuple(after[f] - before[f] for f in fields)
                spans = tracer.spans
                roots = [i for i, s in enumerate(spans) if s[1] == -1]
                assert len(roots) == 1 and tracer.names[spans[0][0]] == "modmul.mont_mul"
                total = [0] * len(fields)
                for s in spans:
                    for k, v in enumerate(s[4]):
                        total[k] += v
                assert tuple(total) == whole, (n, lane.kind, lane.variant)
                row = pins["counters"][str(n)][f"{lane.kind}.{lane.variant}"]
                assert dict(zip(fields, whole)) == row
        finally:
            tracer.uninstall()


def test_seed_changes_operands_not_counters():
    pins = load_pins()
    wl = MulWorkload(8)
    states = []
    for seed in (SEED, SEED + 1):
        state = wl.setup(run.load_rnsmul(), seed)
        m = measure_rounds(wl, state, pins)
        assert m.failed == 0, m.notes
        states.append(state)
    a, b = states
    assert a["p"] != b["p"]
    assert [l.values for l in a["lanes"]] != [l.values for l in b["lanes"]]
    for la, lb in zip(a["lanes"], b["lanes"]):  # two imports: compare as dicts
        assert la.backend.read_counters().as_dict() == lb.backend.read_counters().as_dict()


def test_oracle_rejects_wrong_products():
    wl = MulWorkload(8)
    rns = run.load_rnsmul()
    state = wl.setup(rns, SEED)
    oracle = MontOracle(state["p"], state["bm"], state["bmp"])
    lane = state["lanes"][0]
    z = rns.modmul.mont_mul(lane.ctx, lane.pairs[0], lane.pairs[1], lane.backend)
    assert oracle.check(lane.values[0], lane.values[1], z) is not None
    assert oracle.check(lane.values[0] + 1, lane.values[1], z) is None
    res = list(z.in_bm.residues)
    res[3] = (res[3] + 1) % state["bm"][3]
    bad_half = z._replace(in_bm=z.in_bm._replace(residues=tuple(res)))
    assert oracle.check(lane.values[0], lane.values[1], bad_half) is None


def test_counter_pin_rejects_an_extra_op():
    row = load_pins()["counters"]["8"]["pm.st"]
    assert counters_match({k: 3 * v for k, v in row.items()}, row, 3)
    off = {k: 3 * v for k, v in row.items()}
    off["word_add"] += 1
    assert not counters_match(off, row, 3)


def test_sweep_gate_rejects_a_changed_byte():
    pins = load_pins()
    workdir = run.OUT_DIR / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    wl = SweepWorkload(workdir)
    rns = run.load_rnsmul()
    assert wl.measure(wl.setup(rns, SEED), 0, pins, min_steps=1).failed == 0
    rns.bench.CSV_HEADER = "N" + rns.bench.CSV_HEADER[1:]
    assert wl.measure(wl.setup(rns, SEED), 0, pins, min_steps=1).failed == 1


def test_scalar_gate_counts_wrong_results():
    wl = ScalarWorkload()
    pins = load_pins()
    rns = run.load_rnsmul()
    assert wl.measure(wl.setup(rns, SEED), 0, pins, min_steps=3).failed == 0
    state = wl.setup(rns, SEED)
    state["pm_backend"].pm_reduce = lambda a, pm: (a + 1) % pm.m
    m = wl.measure(state, 0, pins, min_steps=3)
    assert m.failed == 3 * wl.reductions, m.failed


TESTS = [v for k, v in sorted(globals().items()) if k.startswith("test_")]


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    failed = 0
    for test in TESTS:
        try:
            test()
            print(f"PASS {test.__name__}")
        except Exception:
            failed += 1
            print(f"FAIL {test.__name__}")
            traceback.print_exc()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
