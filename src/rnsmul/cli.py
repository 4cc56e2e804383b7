"""Command-line harness: base generation, verification, benchmark sweeps,
instruction encoding.  Exit codes: 0 success, 1 verification failure or a
run that cannot complete (sieve exhausted, output not writable), 2 usage
error."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import basegen, bench, isa
from .costmodel import MODELS, PRESETS
from .wordmod import check_width


def _parse_channels(text: str):
    """Accept '8:64:8' range syntax or a comma list like '8,16,24'."""
    try:
        if ":" not in text:
            return tuple(int(t) for t in text.split(","))
        parts = [int(t) for t in text.split(":")]
        lo, hi, step = parts if len(parts) == 3 else (*parts, 8)
        return tuple(range(lo, hi + 1, step))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad channel list {text!r}: expected LO:HI[:STEP] with STEP != 0 "
            "or a comma list of integers"
        ) from None


def _width(text: str) -> int:
    try:
        w = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"word width must be an integer, got {text!r}"
        ) from None
    try:
        return check_width(w)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _csv_names(all_values):
    """A comma list of names, or 'all'/'both' for every one; the names
    themselves are judged by bench.BenchConfig."""

    def convert(text: str):
        if text == "all" or text == "both":
            return tuple(all_values)
        return tuple(text.split(","))

    return convert


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rnsmul",
        description="RNS Montgomery multiplication toolbox and benchmark",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-base", help="sieve a pseudo-Mersenne base and write it")
    g.set_defaults(func=cmd_gen_base, usage_error=g.error)
    g.add_argument("-n", "--channels", type=int, required=True)
    g.add_argument("-w", "--width", type=_width, default=64)
    g.add_argument("-o", "--out", default=None, help="output path (default stdout)")

    v = sub.add_parser("verify", help="run the self-check suites")
    v.set_defaults(func=cmd_verify)
    v.add_argument("--scale", choices=("tiny", "full"), default="tiny")
    v.add_argument("--seed", type=int, default=1)
    v.add_argument("--base", default=None, help="validate a serialized base file only")

    b = sub.add_parser("bench", help="benchmark sweep, writes CSV")
    b.set_defaults(func=cmd_bench, usage_error=b.error)
    # both default to BenchConfig's, or to the --base file's
    b.add_argument("--channels", type=_parse_channels, default=None)
    b.add_argument("-w", "--width", type=int, default=None)
    b.add_argument(
        "--backend", type=_csv_names(bench.ALL_BACKENDS), default=bench.ALL_BACKENDS
    )
    b.add_argument(
        "--variant", type=_csv_names(bench.ALL_VARIANTS), default=bench.ALL_VARIANTS
    )
    b.add_argument("--model", type=_csv_names(MODELS), default=MODELS)
    b.add_argument("--preset", type=_csv_names(tuple(PRESETS)), default=tuple(PRESETS))
    b.add_argument("--seed", type=int, default=1)
    b.add_argument("--base", default=None, help="take moduli from a base file")
    b.add_argument("--out", required=True, help="CSV output path")

    e = sub.add_parser("encode-instr", help="encode one modular instruction")
    e.set_defaults(func=cmd_encode_instr)
    e.add_argument("mnemonic", choices=sorted(isa.FUNCT3))
    e.add_argument("rd", type=int)
    e.add_argument("rs1", type=int)
    e.add_argument("rs2", type=int)
    e.add_argument("rs3", type=int)

    return parser


def cmd_gen_base(args) -> int:
    if args.channels < 2:
        args.usage_error(f"need at least 2 moduli, got -n {args.channels}")
    try:
        base = basegen.build_pm_base(args.channels, args.width)
        if args.out:
            basegen.save_base(base, args.out)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        print(f"wrote {base.n} moduli (w={base.w}) to {args.out}")
    else:
        basegen.write_base(base, sys.stdout)
    return 0


def cmd_verify(args) -> int:
    if args.base is not None:
        try:
            base = basegen.load_base(args.base)
        except (OSError, ValueError) as exc:
            print(f"FAIL base file {args.base}: {exc}")
            return 1
        print(f"PASS base file {args.base}: n={base.n}, w={base.w}, moduli pairwise coprime")
        return 0
    from .verify import run_suites

    results = run_suites(args.scale, args.seed)
    failed = False
    for r in results:
        if r.passed:
            print(f"PASS {r.name}: {r.cases} cases")
        else:
            failed = True
            print(f"FAIL {r.name}: {len(r.failures)} failures in {r.cases} cases")
            for msg in r.failures:
                print(f"  {msg}")
    return 1 if failed else 0


def cmd_bench(args) -> int:
    sizes = {"channels": args.channels, "w": args.width}
    sizes = {key: value for key, value in sizes.items() if value is not None}
    moduli_pool = None
    if args.base is not None:
        if sizes:
            args.usage_error(
                "--base takes n and w from the file; drop --channels and -w"
            )
        try:
            pool_base = basegen.load_base(args.base)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        moduli_pool = pool_base.moduli
        sizes = {"channels": (pool_base.n // 2,), "w": pool_base.w}
    try:
        cfg = bench.BenchConfig(
            **sizes,
            backends=args.backend,
            variants=args.variant,
            models=args.model,
            presets=args.preset,
            seed=args.seed,
            moduli_pool=moduli_pool,
        )
    except ValueError as exc:
        args.usage_error(str(exc))  # exits 2 before --out is opened
    out = Path(args.out)
    ratios_path = out.with_name(out.stem + "_ratios" + (out.suffix or ".csv"))
    # sieve before any output exists (an exhausted sieve leaves no file) and
    # open both outputs before the sweep (a bad path fails fast)
    try:
        cfg.pool  # ValueError: sieve exhausted
        with open(out, "w") as fp, open(ratios_path, "w") as ratios_fp:
            reports, ratios = bench.run_sweep(cfg)
            bench.write_rows(reports, fp)
            bench.write_ratios(ratios, ratios_fp)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {len(reports)} rows to {out} and {len(ratios)} ratios to {ratios_path}")
    return 0


def cmd_encode_instr(args) -> int:
    try:
        word = isa.encode(
            isa.ModInstr(args.mnemonic, args.rd, args.rs1, args.rs2, args.rs3)
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"0x{word:08X}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
