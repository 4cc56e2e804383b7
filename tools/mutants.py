"""A list of mutants that the tier-1 tests must kill.

Each mutant names a file, one exact source snippet, its replacement and
the test ids that must fail once the snippet is replaced.  The script
copies the checkout to a temporary directory and checks that every listed
test passes there unmutated.  It then applies one mutant at a time, runs
``pytest -x -q`` on that mutant's ids and restores the file.  It prints
each mutant as killed or survived, and exits 1 if any survives or a run
cannot be judged (the tests error out, or pass on the unmutated copy only
in part).

    python tools/mutants.py

A change that moves a snippet updates its entry in the same change:
``tests/test_mutants.py`` checks that every snippet occurs exactly once.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SKIP = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_out"
)


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the checkout root
    snippet: str
    replacement: str
    tests: tuple  # pytest ids, relative to the checkout root


MODMUL = "src/rnsmul/modmul.py"
BASEEXT = "src/rnsmul/baseext.py"
BASEGEN = "src/rnsmul/basegen.py"
WORDMOD = "src/rnsmul/wordmod.py"

MUTANTS = (
    Mutant(
        "charges-drop-an-add", MODMUL,
        "        cnt.n_add += n2\n", "",
        ("tests/test_modmul.py::test_counters_match_the_pins",),
    ),
    Mutant(
        "charge-skipped", MODMUL,
        "    backend.charge(table)\n", "",
        ("tests/test_modmul.py::test_counters_match_the_pins",),
    ),
    Mutant(
        "st-reduction-changed", MODMUL,
        "z = bm.residues(sum(map(mul, xi, bmp.Mi)) % bmp.M)",
        "z = bm.residues(sum(map(mul, xi, bmp.Mi)))",
        ("tests/test_modmul.py::test_variant_agreement",),
    ),
    Mutant(
        "k-hat-off-by-one", BASEEXT,
        "return (params.alpha_fp + sum([x >> sh for x in xi])) >> params.q",
        "return ((params.alpha_fp + sum([x >> sh for x in xi])) >> params.q) + 1",
        ("tests/test_baseext.py::test_k_hat_zero",),
    ),
    Mutant(
        "tree-leaf-corrupted", BASEGEN,
        "    if len(mods) <= TREE_LEAF:\n        return mods\n",
        "    if len(mods) <= TREE_LEAF:\n        return mods[1:] + mods[:1]\n",
        ("tests/test_basegen.py::test_residues_match_plain_remainder",),
    ),
    Mutant(
        "base-unit-check-bypassed", BASEGEN,
        "        if not all(math.gcd(r, m) == 1 for r, m in zip(Mi_mod, moduli)):\n"
        "            _name_fault(moduli, w)\n",
        "",
        ("tests/test_basegen.py::"
         "test_base_accepts_exactly_the_pairwise_coprime_moduli_in_range",),
    ),
    Mutant(
        "winv-last-corrupted", BASEGEN,
        "return tuple([pow(W % m, -1, m) for W, m in zip(self.weights, self.moduli)])",
        "return tuple([pow(W % m, -1, m) for W, m in zip(self.weights, self.moduli)]"
        "[:-1] + [0])",
        ("tests/test_rnscore.py::test_mrs_round_trip_and_digit_bounds",),
    ),
    Mutant(
        "addmod-exclusive-top", WORDMOD,
        "    def addmod(self, a: int, b: int, m: int) -> int:\n"
        "        if not (\n"
        "            self._m_min <= m <= self._m_max",
        "    def addmod(self, a: int, b: int, m: int) -> int:\n"
        "        if not (\n"
        "            self._m_min <= m < self._m_max",
        ("tests/test_wordmod.py::test_chain_bounds_match_helpers_small_widths",),
    ),
    Mutant(
        "mulmod-no-parity-test", WORDMOD,
        "    def mulmod(self, a: int, b: int, m: int) -> int:\n"
        "        if not (\n"
        "            self._m_min <= m <= self._m_max and m % 2 >= self._m_odd\n",
        "    def mulmod(self, a: int, b: int, m: int) -> int:\n"
        "        if not (\n"
        "            self._m_min <= m <= self._m_max\n",
        ("tests/test_wordmod.py::test_chain_bounds_match_helpers_at_edges",),
    ),
    Mutant(
        "pm-min-two-below-the-edge", WORDMOD,
        "self._m_min, self._m_odd = (1 << w) - (1 << (w // 2)) + 1, 1",
        "self._m_min, self._m_odd = (1 << w) - (1 << (w // 2)) - 1, 1",
        ("tests/test_wordmod.py::test_chain_bounds_match_helpers_small_widths",),
    ),
    Mutant(
        "redmod-bound-widened", WORDMOD,
        "and 0 <= a <= self._m_max\n",
        "and 0 <= a <= self._m_max + 1\n",
        ("tests/test_wordmod.py::test_redmod_is_entry_gate",),
    ),
    Mutant(
        "bajard-imbert-adds-n-m", BASEEXT,
        "    return crt_residues(xi, src, dst)\n",
        "    return crt_residues(xi, src, dst, -src.n)\n",
        ("tests/test_baseext.py::test_bajard_imbert_excess_bound_exhaustive",),
    ),
    Mutant(
        "bench-charges-without-mont-mul", "src/rnsmul/bench.py",
        "                mont_mul(ctx, x, x, backend)\n",
        "                backend.charge(ctx.charges(backend))\n",
        ("tests/test_perfbench_contract.py::test_traced_run_is_correct[sweep]",),
    ),
    Mutant(
        "pc-drops-p", MODMUL,
        "pc_bmp=tuple([a * c % m for a, c, m in zip(bmp.residues(p), c_bmp, bmp.moduli)])",
        "pc_bmp=tuple([c % m for a, c, m in zip(bmp.residues(p), c_bmp, bmp.moduli)])",
        ("tests/test_modmul.py::test_precomputed_residues",),
    ),
    Mutant(
        "context-window-check-removed", MODMUL,
        "if self.kparams and self.bound > (1 - self.kparams.alpha) * bmp.M:",
        "if False:",
        ("tests/test_modmul.py::"
         "test_constructor_rejects_kparams_whose_window_misses_the_bound",
         "tests/test_properties.py::test_mont_mul_and_exp_on_random_bases"),
    ),
    Mutant(
        "kawamura-eps-check-removed", BASEEXT,
        "        if self.eps > self.alpha:\n",
        "        if False:\n",
        ("tests/test_baseext.py::test_kawamura_params_config_errors",),
    ),
    Mutant(
        "check-base-bounds-removed", WORDMOD,
        "            for m in mods:\n                self.check_modulus(m)\n",
        "            pass\n",
        ("tests/test_wordmod.py::test_pm_check_base_names_the_first_non_pm_channel",
         "tests/test_modmul.py::test_mont_mul_rejects_pm_backend_on_other_moduli"),
    ),
    Mutant(
        "sk-extra-modulus-unjudged", BASEEXT,
        "    backend.check_modulus(m_e)\n", "",
        ("tests/test_baseext.py::test_shenoy_kumaresan_config_errors",),
    ),
    Mutant(
        "sk-quotient-unchecked", BASEEXT,
        "    if k >= src.n:\n", "    if False:\n",
        ("tests/test_baseext.py::"
         "test_shenoy_kumaresan_rejects_a_recovered_k_of_n_or_more",),
    ),
    Mutant(
        "bench-pool-unjudged", "src/rnsmul/bench.py",
        "            for kind in self.backends:\n"
        "                check = make_backend(kind, self.w).check_modulus\n"
        "                for m in pool:\n"
        "                    check(m)\n",
        "",
        ("tests/test_cli.py::test_bench_base_file_pm_needs_pseudo_mersenne_pool",),
    ),
)


def pytest(tree: Path, ids) -> subprocess.CompletedProcess:
    # no bytecode: a mutated file keeps its size and may keep its mtime
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *ids],
        cwd=tree, env=env, capture_output=True, text=True, timeout=600,
    )


def tail(proc: subprocess.CompletedProcess) -> str:
    return "\n".join((proc.stdout + proc.stderr).strip().splitlines()[-5:])


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="rnsmul-mutants-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=SKIP)
        ids = list(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        proc = pytest(tree, ids)
        if proc.returncode != 0:
            print("the listed tests fail on the unmutated tree:\n" + tail(proc))
            return 1
        bad = 0
        for m in MUTANTS:
            path = tree / m.path
            text = path.read_text()
            if text.count(m.snippet) != 1:
                print(f"{m.name}: snippet does not occur exactly once in {m.path}")
                bad += 1
                continue
            path.write_text(text.replace(m.snippet, m.replacement))
            start = time.perf_counter()
            proc = pytest(tree, m.tests)
            path.write_text(text)
            # pytest exits 1 when a test failed; other codes mean it could not run
            verdict = {0: "SURVIVED", 1: "killed"}.get(proc.returncode, "ERROR")
            print(f"{verdict:8} {m.name} ({time.perf_counter() - start:.1f} s)")
            if verdict != "killed":
                print(tail(proc))
                bad += 1
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
