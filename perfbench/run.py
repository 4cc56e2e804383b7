"""rnsmul benchmark: one workload per run, one process, one thread.

    python3 perfbench/run.py --workload mul-n64 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; rnsmul is imported from ``src/`` there.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Every result,
with the host, the versions and the seed, is also written under
``.perfbench_out/`` in the checkout.  Exit code 0 when every check passed,
1 when a check failed, 2 when the program or its arguments are missing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from hashlib import sha256
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from oracle import load_pins
from tracing import EXTENSION_SPANS, Tracer
from workloads import WORKLOADS, make_workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
MODULES = ("wordmod", "basegen", "rnscore", "baseext", "modmul", "costmodel",
           "isa", "bench", "verify", "cli")
SETUPS = 9  # set-ups per run; setup_s is the p90 of all but the first
SCALAR_OPS = ("addmod", "submod", "mulmod", "redmod")
KERNELS = ("vec_mul", "vec_add", "dot_mod", "submul")
COMBOS = tuple(f"{b}.{v}" for b in ("modulo", "pm", "inst") for v in ("st", "kawamura"))
LAYERS = ("modmul", "baseext", "rnscore", "wordmod", "basegen", "costmodel",
          "bench")


def load_rnsmul():
    """Import rnsmul from the checkout afresh (module bodies re-execute;
    third-party modules such as numpy stay loaded after the first time)."""
    for name in [k for k in sys.modules if k == "rnsmul" or k.startswith("rnsmul.")]:
        del sys.modules[name]
    pkg = importlib.import_module("rnsmul")
    if Path(pkg.__file__).resolve().parent != SRC / "rnsmul":
        raise ImportError(f"rnsmul was imported from {pkg.__file__}, not the checkout")
    rns = SimpleNamespace(pkg=pkg)
    for name in MODULES:
        setattr(rns, name, importlib.import_module(f"rnsmul.{name}"))
    rns.modules = [pkg] + [getattr(rns, name) for name in MODULES]
    return rns


def environment(seed: int) -> dict:
    import numpy

    return {
        "host": platform.node(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": git_revision(),
        "src_sha256": src_digest(),
        "seed": seed,
    }


def git_revision() -> str:
    # the ceiling keeps git from searching the directories above the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def src_digest() -> str:
    h = sha256()
    for path in sorted((SRC / "rnsmul").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def p50(xs):
    return statistics.median(xs)


def p90(xs):
    # "inclusive" stays inside the data; with the 8 set-up times the default
    # method would extrapolate past the slowest one
    return statistics.quantiles(xs, n=10, method="inclusive")[8]


def metric(value, unit):
    return {"value": value, "unit": unit}


# -- untraced run ----------------------------------------------------------------


def run_untraced(wl, seed, seconds, pins):
    setup_times = []

    def set_up():
        t0 = perf_counter()
        state = wl.setup(load_rnsmul(), seed)
        setup_times.append(perf_counter() - t0)
        return state

    # The host's speed drifts over seconds, so the repeat set-ups are spread
    # over the timed loop (between steps, outside their timings) instead of
    # all sampling its first second.  Their states are discarded.
    gap = seconds / SETUPS
    due = perf_counter() + gap

    def between_steps():
        nonlocal due
        if len(setup_times) < SETUPS and perf_counter() >= due:
            set_up()
            due += gap

    m = wl.measure(set_up(), seconds, pins, on_step=between_steps)
    while len(setup_times) < SETUPS:
        set_up()
    # The first set-up also imports numpy and is left out.  Like the step
    # times, the others fall in the host's fast or slow speed level; their
    # median follows the share of each and moved by up to 31% between sets of
    # ten runs, while the p90 stays in the slow level.
    metrics = {
        "round_ms_p90": metric(p90(m.times) * 1e3, "ms"),
        "setup_s": metric(p90(setup_times[1:]), "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
    }
    # Printed and recorded but not gated: on a host whose speed switches
    # between two levels every few seconds, the median and the mean follow
    # the share of time spent at each level and spread more than any bound.
    reported = {
        "mont_mul_per_s": metric(m.mont_mul_calls / sum(m.times), "1/s"),
        "round_ms_p50": metric(p50(m.times) * 1e3, "ms"),
    }
    extra = {"rounds": len(m.times), "reported": reported, "setups": setup_times,
             "round_s": m.times}
    return m, metrics, extra


# -- traced run ------------------------------------------------------------------


def run_traced(wl, seed, seconds, pins):
    """Untraced then traced halves on the same seed; the per-layer metrics
    come from the traced half, the overhead from the difference."""
    rns = load_rnsmul()
    plain = wl.measure(wl.setup(rns, seed), seconds / 2, pins, fingerprints=True,
                       min_steps=1)
    tracer = Tracer(rns)
    tracer.install()
    try:
        state = wl.setup(rns, seed)
        setup_names = tracer.by_name()
        tracer.reset()

        def next_phase():
            tracer.phase += 1

        traced = wl.measure(state, seconds / 2, pins, fingerprints=True,
                            on_step=next_phase, min_steps=1)
    finally:
        tracer.uninstall()
    problems = consistency(plain, traced, tracer)
    metrics, extra = layer_metrics(tracer, setup_names, plain, traced)
    extra["consistency_problems"] = problems
    return plain, traced, problems, metrics, extra


def consistency(plain, traced, tracer):
    """Tracing must not change what the program computes or counts."""
    problems = []
    k = min(len(plain.digests), len(traced.digests))
    if k == 0 or plain.digests[:k] != traced.digests[:k]:
        problems.append("traced and untraced outputs differ for the same seed")
    if tracer.self_delta_sum() != tracer.backend_counter_sum():
        problems.append("per-span counter deltas do not sum to the backend counters")
    return problems


def layer_metrics(tracer, setup_names, plain, traced):
    steps = len(traced.times)
    step_ns = sum(traced.times) * 1e9
    names = tracer.by_name()
    merged = {k: list(v) for k, v in setup_names.items()}
    for k, v in names.items():
        if k in merged:
            merged[k][0] += v[0]
            merged[k][1] += v[1]
        else:
            merged[k] = list(v)

    def mean(table, name, scale):
        s = table.get(name)
        return s[1] / s[0] / scale if s and s[0] else 0.0

    def calls(name):
        s = names.get(name)
        return s[0] / steps if s else 0.0

    mont = names.get("modmul.mont_mul", [0, 0, 0])
    ext_ns = sum(tracer.under(e, lambda p: p == "modmul.mont_mul")[1]
                 for e in EXTENSION_SPANS)
    xi_calls, xi_ns = tracer.under("wordmod.vec_mul", lambda p: p.startswith("baseext."))
    scalar = [names.get(f"wordmod.{op}", [0, 0]) for op in SCALAR_OPS]
    scalar_calls = sum(s[0] for s in scalar)
    pair_built, pair_reuse = pair_stats(tracer.pairs)

    m = {
        "modmul.mont_mul_us": metric(mean(names, "modmul.mont_mul", 1e3), "us"),
        "modmul.self_us": metric(mont[2] / mont[0] / 1e3 if mont[0] else 0.0, "us"),
        "modmul.context_ms": metric(mean(merged, "modmul.MontgomeryContext", 1e6), "ms"),
        "baseext.bajard_imbert_us": metric(mean(names, "baseext.bajard_imbert_vec", 1e3), "us"),
        "baseext.st_extend_us": metric(mean(names, "baseext.st_extend_vec", 1e3), "us"),
        "baseext.kawamura_extend_us": metric(mean(names, "baseext.kawamura_extend_vec", 1e3), "us"),
        "baseext.ext_share": metric(ext_ns / mont[1] if mont[1] else 0.0, "ratio"),
        "baseext.pair_ms": metric(mean(merged, "baseext.ExtensionPair", 1e6), "ms"),
        "baseext.pairs_built": metric(pair_built, "count"),
        "baseext.pair_reuse": metric(pair_reuse, "ratio"),
        "rnscore.mrs_chain_us": metric(mean(names, "rnscore.mrs_digits_vec", 1e3), "us"),
    }
    for k in KERNELS:
        m[f"wordmod.{k}_us"] = metric(mean(names, f"wordmod.{k}", 1e3), "us")
        m[f"wordmod.{k}.calls"] = metric(calls(f"wordmod.{k}"), "count")
    m["wordmod.xi_us"] = metric(xi_ns / xi_calls / 1e3 if xi_calls else 0.0, "us")
    m["wordmod.scalar_us"] = metric(
        sum(s[1] for s in scalar) / scalar_calls / 1e3 if scalar_calls else 0.0, "us")
    m["wordmod.scalar.calls"] = metric(scalar_calls / steps, "count")
    m["wordmod.pm_reduce_us"] = metric(mean(names, "wordmod.pm_reduce", 1e3), "us")
    mont_id = tracer.name_id("modmul.mont_mul")
    for combo in COMBOS:
        t = tracer.tagged.get((mont_id, combo))
        m[f"wordmod.ops.{combo}"] = metric(sum(t[2]) / t[0] if t else 0.0, "count")
    m["basegen.sieve_ms"] = metric(mean(merged, "basegen.generate_pm_moduli", 1e6), "ms")
    m["basegen.base_ms"] = metric(mean(merged, "basegen.RnsBase", 1e6), "ms")
    m["trace.overhead_ms"] = metric((p50(traced.times) - p50(plain.times)) * 1e3, "ms")

    # layers only some workloads reach: reported beside the metrics
    specific = {
        "rnscore.crt_us": mean(names, "rnscore.from_rns_crt", 1e3),
        "costmodel.estimate_ms": names.get("costmodel.estimate", [0, 0])[1] / steps / 1e6,
        "costmodel.ratio_ms": names.get("costmodel.ratio_report", [0, 0])[1] / steps / 1e6,
        "bench.measure_s": names.get("bench.measure_counters", [0, 0])[1] / steps / 1e9,
        "bench.write_ms": sum(names.get(f"bench.{w}", [0, 0])[1]
                              for w in ("write_rows", "write_ratios")) / steps / 1e6,
    }
    layer_self = {}
    for name, s in names.items():
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0) + s[2]
    shares = {layer: layer_self.get(layer, 0) / step_ns for layer in LAYERS}
    shares["unspanned"] = 1.0 - sum(shares.values())
    span_shares = {
        name: s[2] / step_ns
        for name, s in sorted(names.items(), key=lambda kv: -kv[1][2])
    }
    extra = {
        "workload_specific": specific,
        "layer_self_share": shares,
        "span_self_share": span_shares,
        "traced_round_ms_p50": p50(traced.times) * 1e3,
        "untraced_round_ms_p50": p50(plain.times) * 1e3,
        "traced_rounds": steps,
        "spans_logged": sum(1 for s in tracer.spans if s is not None),
        "span_log": tracer.span_log(),
    }
    return m, extra


def pair_stats(pairs):
    """Mean ExtensionPair constructions per phase that built any, and mean
    distinct/built within those phases (set-up is phase 0, step i phase i)."""
    by_phase = {}
    for phase, key in pairs:
        by_phase.setdefault(phase, []).append(key)
    if not by_phase:
        return 0.0, 0.0
    built = [len(keys) for keys in by_phase.values()]
    reuse = [len(set(keys)) / len(keys) for keys in by_phase.values()]
    return statistics.fmean(built), statistics.fmean(reuse)


# -- entry point -----------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rnsmul" / "__init__.py").is_file():
        print(f"error: no rnsmul sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pins = load_pins()
    workdir = OUT_DIR / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    wl = make_workload(args.workload, workdir)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        plain, m, problems, metrics, extra = run_traced(wl, args.seed, args.seconds, pins)
        attempted = plain.attempted + m.attempted
        failed = plain.failed + m.failed + len(problems)
        notes = plain.notes + m.notes + problems
        span_log = extra.pop("span_log")
        (OUT_DIR / f"{tag}-spans.json").write_text(json.dumps(span_log))
    else:
        m, metrics, extra = run_untraced(wl, args.seed, args.seconds, pins)
        attempted, failed, notes = m.attempted, m.failed, m.notes
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {"workload": args.workload, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(args.seed),
              "error_rate": failed / attempted, "notes": notes,
              "result": result, "detail": extra}
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1))
    print_table(args, record)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def print_table(args, record):
    env = record["environment"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"host {env['host']} ({env['nproc']} cpus)  python {env['python']}  "
          f"numpy {env['numpy']}  revision {env['git_revision']}")
    detail = record["detail"]
    if "rounds" in detail:
        print(f"  rounds measured: {detail['rounds']}")
    shown = {**record["result"]["metrics"], **detail.get("reported", {})}
    for name, v in shown.items():
        print(f"  {name:32s} {v['value']:14.6g} {v['unit']}")
    print(f"  {'error_rate':32s} {record['error_rate']:14.6g} failed/attempted")
    if args.trace:
        for name, v in detail["workload_specific"].items():
            print(f"  {name:32s} {v:14.6g}")
        print("  layer self share of traced step time:")
        for layer, share in detail["layer_self_share"].items():
            print(f"    {layer:12s} {share:7.1%}")
    for note in record["notes"][:10]:
        print(f"  FAIL {note}")


if __name__ == "__main__":
    sys.exit(main())
