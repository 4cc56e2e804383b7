"""Command-line surface: file formats, exit codes, determinism."""

import io

import pytest

from rnsmul.bench import (
    CSV_HEADER,
    RATIOS_HEADER,
    BenchConfig,
    measure_counters,
    read_rows,
)
from rnsmul.cli import main
from rnsmul.verify import FULL_SUITES, TINY_SUITES
from rnsmul.wordmod import check_width


def test_gen_base_writes_file(tmp_path):
    out = tmp_path / "base8.txt"
    assert main(["gen-base", "-n", "4", "-w", "8", "-o", str(out)]) == 0
    assert out.read_text() == "8 4\n255\n253\n251\n247\n"


def test_gen_base_stdout(capsys):
    assert main(["gen-base", "-n", "2", "-w", "8"]) == 0
    assert capsys.readouterr().out == "8 2\n255\n253\n"


def test_gen_base_usage_error_bad_width():
    with pytest.raises(SystemExit) as exc:
        main(["gen-base", "-n", "4", "-w", "4"])
    assert exc.value.code == 2


def test_gen_base_bad_width_reports_check_width(capsys):
    with pytest.raises(ValueError) as want:
        check_width(4)
    with pytest.raises(SystemExit) as exc:
        main(["gen-base", "-n", "4", "-w", "4"])
    assert exc.value.code == 2
    assert f"error: argument -w/--width: {want.value}" in capsys.readouterr().err


def test_gen_base_usage_error_non_integer_width(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen-base", "-n", "4", "-w", "x"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "word width must be an integer, got 'x'" in err and "_width" not in err


@pytest.mark.parametrize("n", ["1", "0", "-3"])
def test_gen_base_usage_error_too_few_moduli(n, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen-base", "-n", n, "-w", "8"])
    assert exc.value.code == 2
    assert "error: need at least 2 moduli" in capsys.readouterr().err


def test_gen_base_exhaustion(tmp_path, capsys):
    assert main(["gen-base", "-n", "200", "-w", "8", "-o", str(tmp_path / "x")]) == 1
    assert "exhausted" in capsys.readouterr().err


def test_verify_base_file_happy(tmp_path, capsys):
    path = tmp_path / "ok.txt"
    path.write_text("8 3\n255\n253\n251\n")
    assert main(["verify", "--base", str(path)]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_base_file_corrupted(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("8 3\n255\n253\n250\n")  # gcd(255, 250) = 5
    assert main(["verify", "--base", str(path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "255 and 250" in out


def test_verify_tiny_passes_and_is_deterministic(capsys):
    assert main(["verify", "--scale", "tiny", "--seed", "9"]) == 0
    first = capsys.readouterr().out
    assert first.count("PASS") == 8 and "FAIL" not in first
    assert main(["verify", "--scale", "tiny", "--seed", "9"]) == 0
    assert capsys.readouterr().out == first


def test_verify_full_scale_suites_pass():
    results = [suite(3) for suite in FULL_SUITES[len(TINY_SUITES):]]
    assert [(r.name, r.cases, r.failures) for r in results] == [
        ("wordmod-agreement-w64", 96000, []),
        ("pm-reduce-w64-random", 200020, []),
        ("baseext-w64-random", 7459, []),
        ("montgomery-w64-random", 3000, []),
    ]


def test_encode_instr(capsys):
    assert main(["encode-instr", "mulmod", "0", "0", "0", "0"]) == 0
    assert capsys.readouterr().out.strip() == "0x0000000B"
    assert main(["encode-instr", "addmod", "5", "6", "7", "28"]) == 0
    assert capsys.readouterr().out.strip() == "0xE073128B"


def test_encode_instr_bad_register(capsys):
    assert main(["encode-instr", "mulmod", "32", "0", "0", "0"]) == 2


BENCH_ARGS = [
    "bench", "--channels", "8,16", "--seed", "5",
    "--backend", "all", "--variant", "all",
]


def test_bench_csv_schema(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(BENCH_ARGS + ["--out", str(out)]) == 0
    text = out.read_text()
    lines = text.strip().splitlines()
    assert lines[0] == CSV_HEADER
    # 2 n-values x 3 backends x 2 variants x 2 models x 2 presets
    assert len(lines) == 1 + 2 * 3 * 2 * 2 * 2
    rows = read_rows(io.StringIO(text))
    assert {r["backend"] for r in rows} == {"modulo", "pm", "inst"}
    assert {r["variant"] for r in rows} == {"st", "kawamura"}
    # six configurations at fixed n
    combos = {(r["backend"], r["variant"]) for r in rows if r["n"] == 8}
    assert len(combos) == 6

    ratios = (tmp_path / "sweep_ratios.csv").read_text().strip().splitlines()
    assert ratios[0] == RATIOS_HEADER
    assert len(ratios) > 1


def test_bench_cycles_grow_with_n(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["bench", "--channels", "8,16,24", "--out", str(out)]) == 0
    rows = read_rows(io.StringIO(out.read_text()))
    series = {}
    for r in rows:
        series.setdefault(
            (r["backend"], r["variant"], r["model"], r["preset"]), []
        ).append((r["n"], r["est_cycles"]))
    for pts in series.values():
        pts.sort()
        cyc = [c for _, c in pts]
        assert cyc == sorted(cyc) and len(set(cyc)) == len(cyc)


def test_bench_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(BENCH_ARGS + ["--out", str(a)]) == 0
    assert main(BENCH_ARGS + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    ra = (tmp_path / "a_ratios.csv").read_bytes()
    rb = (tmp_path / "b_ratios.csv").read_bytes()
    assert ra == rb


def test_bench_from_base_file(tmp_path):
    base_path = tmp_path / "pool.txt"
    assert main(["gen-base", "-n", "16", "-w", "64", "-o", str(base_path)]) == 0
    out = tmp_path / "sweep.csv"
    assert main(["bench", "--base", str(base_path), "--out", str(out)]) == 0
    rows = read_rows(io.StringIO(out.read_text()))
    assert {r["n"] for r in rows} == {8}


def test_bench_usage_error_backend():
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--backend", "gpu", "--out", "x.csv"])
    assert exc.value.code == 2


def test_missing_subcommand():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "args",
    [
        ["--channels", "7"],
        ["--channels", "8:4"],
        ["--model", "x"],
        ["--preset", "fast"],
        ["--variant", "rower"],
        ["--channels", "x"],
        ["--channels", "8:x"],
        ["--channels", "8:16:0"],
        ["-w", "0"],
    ],
)
def test_bench_usage_error_argument_values(args, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", *args, "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "_parse_channels" not in err and "_width" not in err


def test_bench_sieve_exhausted(tmp_path, capsys):
    assert main(["bench", "-w", "8", "--channels", "8", "--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "exhausted" in err and err.count("\n") == 1
    assert not (tmp_path / "x.csv").exists()
    assert not (tmp_path / "x_ratios.csv").exists()


def test_bench_sieves_once_per_sweep(monkeypatch):
    import rnsmul.bench

    calls = []
    sieve = rnsmul.bench.generate_pm_moduli

    def counted(n, w):
        calls.append((n, w))
        return sieve(n, w)

    monkeypatch.setattr(rnsmul.bench, "generate_pm_moduli", counted)
    cfg = BenchConfig(channels=(2, 6, 4), backends=("inst",), variants=("k",))
    assert len(measure_counters(cfg)) == 3
    assert calls == [(12, 64)]


def test_bench_base_pool_bypasses_sieve(tmp_path, monkeypatch):
    import rnsmul.bench

    base_path = tmp_path / "pool.txt"
    assert main(["gen-base", "-n", "8", "-w", "64", "-o", str(base_path)]) == 0

    def no_sieve(n, w):
        raise AssertionError("the sweep sieved although --base gave its pool")

    monkeypatch.setattr(rnsmul.bench, "generate_pm_moduli", no_sieve)
    args = ["--base", str(base_path), "--backend", "inst", "--variant", "k"]
    assert main(["bench", *args, "--out", str(tmp_path / "x.csv")]) == 0


def test_bench_unwritable_out_fails_before_sweep(tmp_path, capsys, monkeypatch):
    import rnsmul.bench

    def no_sweep(cfg):
        raise AssertionError("the sweep ran before --out was checked")

    monkeypatch.setattr(rnsmul.bench, "run_sweep", no_sweep)
    out = tmp_path / "missing" / "x.csv"
    assert main(["bench", "--channels", "8", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_gen_base_unwritable_out(tmp_path, capsys):
    out = tmp_path / "missing" / "x.txt"
    assert main(["gen-base", "-n", "4", "-w", "8", "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_bench_variant_aliases(tmp_path):
    out = tmp_path / "k.csv"
    args = ["bench", "--channels", "4", "--backend", "inst", "--out", str(out)]
    assert main(args + ["--variant", "k,szabo-tanaka"]) == 0
    rows = read_rows(io.StringIO(out.read_text()))
    assert [r["variant"] for r in rows[::4]] == ["kawamura", "st"]


def test_bench_config_resolves_and_dedupes_names():
    cfg = BenchConfig(
        channels=(4,), backends=("inst", "inst"), variants=("k", "kawamura")
    )
    assert cfg.backends == ("inst",) and cfg.variants == ("kawamura",)
    measured = [(kind, v) for _, kind, v, _ in measure_counters(cfg)]
    assert measured == [("inst", "kawamura")]
    with pytest.raises(ValueError, match="unknown variant"):
        BenchConfig(variants=("rower",))


def test_bench_repeated_model_and_preset_write_one_row(tmp_path):
    out = tmp_path / "x.csv"
    args = ["--channels", "4", "--backend", "inst", "--variant", "k"]
    args += ["--model", "io,io", "--preset", "default,default"]
    assert main(["bench", *args, "--out", str(out)]) == 0
    with open(out) as fp:
        rows = read_rows(fp)
    assert [(r["model"], r["preset"]) for r in rows] == [("io", "default")]


@pytest.mark.parametrize(
    "kwargs",
    [
        {"presets": ("fast",)},
        {"models": ("x",)},
        {"channels": ()},
        {"w": 4},
        {"channels": (2,), "backends": ("inst",), "moduli_pool": (3, 5, 7, 11)},
    ],
)
def test_bench_config_rejects_bad_values_at_construction(kwargs):
    with pytest.raises(ValueError):
        BenchConfig(**kwargs)


@pytest.mark.parametrize("count", [5, 6])
def test_bench_base_file_pool_unusable(count, tmp_path, capsys, monkeypatch):
    import rnsmul.bench

    def no_sweep(cfg):
        raise AssertionError("the sweep ran on a pool it cannot split")

    monkeypatch.setattr(rnsmul.bench, "run_sweep", no_sweep)
    base_path = tmp_path / "pool.txt"
    assert main(["gen-base", "-n", str(count), "-w", "64", "-o", str(base_path)]) == 0
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--base", str(base_path), "--out", str(out)])
    assert exc.value.code == 2
    assert "error: " in capsys.readouterr().err and not out.exists()


@pytest.mark.parametrize(
    "sizes", [["--channels", "32"], ["-w", "64"], ["--channels", "32", "-w", "64"]]
)
def test_bench_base_file_excludes_channels_and_width(sizes, tmp_path, capsys):
    base_path = tmp_path / "pool.txt"
    assert main(["gen-base", "-n", "8", "-w", "16", "-o", str(base_path)]) == 0
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--base", str(base_path), *sizes, "--out", str(out)])
    assert exc.value.code == 2
    assert "--base" in capsys.readouterr().err and not out.exists()


def test_bench_base_file_pm_needs_pseudo_mersenne_pool(tmp_path, capsys):
    base_path = tmp_path / "pool.txt"
    base_path.write_text("8 4\n251\n247\n241\n239\n")  # 239 = 2^8 - 17, c too big
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--base", str(base_path), "--out", str(out)])
    assert exc.value.code == 2
    assert "not pseudo-Mersenne" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [base_path]
    args = ["bench", "--base", str(base_path), "--backend", "inst", "--out", str(out)]
    assert main(args) == 0
    assert {r["backend"] for r in read_rows(io.StringIO(out.read_text()))} == {"inst"}


def test_bench_base_file_pool_too_small_for_modulus(tmp_path, capsys):
    """A pool whose products cannot hold the sweep's p is a usage error
    before any output file exists, naming the bits on both sides."""
    base_path = tmp_path / "pool.txt"
    base_path.write_text("64 4\n3\n5\n7\n11\n")
    out = tmp_path / "x.csv"
    args = ["bench", "--base", str(base_path), "--backend", "inst", "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "modulus of 118 bits" in err and "pool gives 5" in err
    assert list(tmp_path.iterdir()) == [base_path]
