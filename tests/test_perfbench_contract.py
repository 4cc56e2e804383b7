"""The benchmark's contract with the package: every entry point its tracer
rebinds resolves, its self-test passes, and a short traced run of each
workload exits 0 with correct output.  Reads perfbench/ and edits nothing
there; the runs write under the gitignored .perfbench_out/."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("numpy")  # perfbench/run.py records its version

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
WORKLOADS = ("mul-n64", "mul-n8", "sweep", "scalar-w8")


def run_script(*args):
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=300
    )


def test_tracer_entry_points_resolve():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, name, _ in tracing.ENTRY_POINTS:
        assert hasattr(importlib.import_module(f"rnsmul.{module}"), name), (module, name)


def test_selftest_passes():
    proc = run_script("perfbench/selftest.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_is_correct(workload):
    proc = run_script(
        "perfbench/run.py", "--workload", workload, "--seed", "3",
        "--seconds", "0.5", "--trace", "1",
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
