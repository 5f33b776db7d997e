"""Command-line front end for validation, pricing, and comparison runs.

Subcommands:

- ``validate``: print the market-setup validation report.
- ``price-caplets``: Monte Carlo caplet prices as CSV.
- ``price-swaptions``: Monte Carlo swaption prices as CSV.
- ``compare``: three-scheme common-random-numbers comparison CSV, with
  optional gnuplot-ready implied-vol difference surfaces.
- ``reproduce-paper``: the full bundled-setup experiment; runs every
  acceptance criterion, prints one pass/fail line per criterion, and
  writes the comparison artifacts.

All randomness flows from ``--seed``; outputs are byte-deterministic for a
fixed configuration.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import math
import sys
from pathlib import Path

from . import acceptance
from .driver import SEED_LIMIT
from .market import MarketSetup, bundled_setup, load_setup, validate_setup
from .simulate import DEFAULT_SUBSTEPS, Scheme
from .pricing import (
    DEFAULT_MONEYNESS,
    DEFAULT_SWAPTION_PAIRS,
    CapletSpec,
    SwaptionSpec,
    compare_schemes,
    forward_swap_rate,
    price_instruments_mc,
    write_iv_surface,
)

_PRICE_HEADER = [
    "instrument", "maturity_index", "end_index", "strike", "scheme",
    "price", "std_error", "n_paths", "n_invalid", "seed",
]


def _parse_moneyness(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"bad moneyness list {text!r}: {err}")
    if not values:
        raise argparse.ArgumentTypeError("moneyness list is empty")
    return values


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if not 0 <= value < SEED_LIMIT:
        raise argparse.ArgumentTypeError(
            f"must lie in [0, 2^64), got {value}")
    return value


def _paths_scale(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be a finite positive number, got {value}")
    return value


def _add_setup(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--setup", metavar="FILE", default=None,
                        help="market setup file (default: bundled setup)")


def _add_run(parser: argparse.ArgumentParser) -> None:
    """``--setup``, ``--seed`` and ``--substeps``: every simulating command."""
    _add_setup(parser)
    parser.add_argument("--seed", type=_seed, default=acceptance.DEFAULT_SEED,
                        metavar="N", help="master seed in [0, 2^64); the random "
                        "stream of each block of paths derives from it")
    parser.add_argument("--substeps", type=int, default=DEFAULT_SUBSTEPS,
                        metavar="N", help="time steps per accrual period "
                        f"(default: {DEFAULT_SUBSTEPS})")


def _add_pricing(parser: argparse.ArgumentParser, reference: str) -> None:
    """:func:`_add_run` plus ``--paths``, ``--out`` and a ``--moneyness``
    grid of strike/``reference`` ratios."""
    _add_run(parser)
    parser.add_argument("--paths", type=int, default=100_000, metavar="N",
                        help="Monte Carlo paths (default: 100000)")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="output CSV path (default: stdout)")
    parser.add_argument("--moneyness", type=_parse_moneyness,
                        default=DEFAULT_MONEYNESS, metavar="LIST",
                        help=f"comma-separated strike/{reference} ratios")


def _add_price(sub, name: str, reference: str,
               specs) -> argparse.ArgumentParser:
    """A one-scheme price command whose instruments ``specs(setup, args)``
    yields."""
    p = sub.add_parser(
        name, help=f"price {name.removeprefix('price-')} by Monte Carlo")
    _add_pricing(p, reference)
    p.add_argument("--scheme", default="full",
                   choices=[s.value for s in Scheme],
                   help="simulation scheme (default: full)")
    p.add_argument("--strike", type=float, default=None,
                   help="absolute strike (default: moneyness grid)")
    p.set_defaults(func=_cmd_price, specs=specs)
    return p


def _load(args: argparse.Namespace) -> MarketSetup:
    if args.setup is None:
        return bundled_setup()
    return load_setup(args.setup)


def _load_valid(args: argparse.Namespace) -> MarketSetup:
    setup = _load(args)
    validate_setup(setup).raise_on_failure()
    return setup


@contextlib.contextmanager
def _open_out(path: str | None):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", newline="") as fh:
            yield fh


def _cmd_validate(args: argparse.Namespace) -> int:
    setup = _load(args)
    report = validate_setup(setup)
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def _caplet_specs(setup: MarketSetup, args: argparse.Namespace):
    rates = args.rate if args.rate else list(range(1, setup.n_rates + 1))
    for i in rates:
        if not 1 <= i <= setup.n_rates:
            raise ValueError(f"rate index {i} outside 1..{setup.n_rates}")
        if args.strike is not None:
            yield CapletSpec(i, args.strike)
        else:
            forward = setup.initial_rate(i)
            for m in args.moneyness:
                yield CapletSpec(i, m * forward)


def _swaption_specs(setup: MarketSetup, args: argparse.Namespace):
    if (args.expiry is None) != (args.end is None):
        raise ValueError("--expiry and --end must be given together")
    pairs = ([(args.expiry, args.end)] if args.expiry is not None
             else list(DEFAULT_SWAPTION_PAIRS))
    for i, end in pairs:
        if args.strike is not None:
            yield SwaptionSpec(i, end, args.strike)
        else:
            par = forward_swap_rate(setup, i, end)
            for m in args.moneyness:
                yield SwaptionSpec(i, end, m * par)


def _cmd_price(args: argparse.Namespace) -> int:
    setup = _load_valid(args)
    scheme = Scheme.parse(args.scheme)
    specs = list(args.specs(setup, args))
    estimates = price_instruments_mc(
        setup, specs, [scheme], args.paths, args.seed, args.substeps)[scheme]
    with _open_out(args.out) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_PRICE_HEADER)
        for spec, est in zip(specs, estimates):
            writer.writerow([
                spec.name, spec.maturity_index,
                "" if isinstance(spec, CapletSpec) else spec.end_index,
                f"{spec.strike:.10g}", est.scheme.value, f"{est.price:.12g}",
                f"{est.std_error:.6g}", est.n_paths, est.n_invalid, est.seed,
            ])
    return 0


def _write_surfaces(table, prefix: str) -> list:
    written = []
    for scheme in (Scheme.FROZEN_DRIFT, Scheme.STRONG_TAYLOR):
        if scheme not in table.schemes:
            continue
        path = Path(f"{prefix}_{scheme.value}.dat")
        with open(path, "w", newline="") as fh:
            write_iv_surface(table, scheme, fh)
        written.append(path)
    return written


def _cmd_compare(args: argparse.Namespace) -> int:
    setup = _load_valid(args)
    schemes = tuple(Scheme.parse(tok) for tok in args.schemes.split(","))
    table = compare_schemes(
        setup, args.paths, args.seed, substeps=args.substeps,
        moneyness=args.moneyness, schemes=schemes)
    with _open_out(args.out) as fh:
        table.write_csv(fh)
    for line in table.iv_failure_lines():
        print(line, file=sys.stderr)
    if args.surface_out is not None:
        for path in _write_surfaces(table, args.surface_out):
            print(f"wrote {path}", file=sys.stderr)
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    setup = _load(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.paths_scale != 1.0:
        print(f"note: path counts scaled by {args.paths_scale:g}; this is a "
              "smoke run, tolerances are calibrated to the full counts")
    results, table = acceptance.run_all(
        setup, seed=args.seed, paths_scale=args.paths_scale,
        substeps=args.substeps)
    csv_path = out_dir / "comparison.csv"
    with open(csv_path, "w", newline="") as fh:
        table.write_csv(fh)
    print(f"wrote {csv_path}")
    for line in table.iv_failure_lines():
        print(line, file=sys.stderr)
    for path in _write_surfaces(table, str(out_dir / "iv_surface")):
        print(f"wrote {path}")
    for result in results:
        for line in result.lines():
            print(line)
    failed = [r for r in results if not r.passed]
    print("acceptance summary: %d/%d criteria passed"
          % (len(results) - len(failed), len(results)))
    return 0 if not failed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levylibor",
        description="Monte Carlo pricing for a jump-driven forward-rate "
                    "model: three simulation schemes, caplets, swaptions, "
                    "and scheme-comparison experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a market setup file")
    _add_setup(p)
    p.set_defaults(func=_cmd_validate)

    p = _add_price(sub, "price-caplets", "forward", _caplet_specs)
    p.add_argument("--rate", type=int, action="append", metavar="I",
                   help="rate index (repeatable; default: all rates)")

    p = _add_price(sub, "price-swaptions", "par-rate", _swaption_specs)
    p.add_argument("--expiry", type=int, default=None, metavar="I",
                   help="option expiry rate index")
    p.add_argument("--end", type=int, default=None, metavar="M",
                   help="swap end index (exclusive with the default grid)")

    # No abbreviations: --scheme would be read as a prefix of --schemes.
    p = sub.add_parser("compare", allow_abbrev=False,
                       help="price the instrument grids under several "
                            "schemes on common random numbers")
    _add_pricing(p, "forward")
    p.add_argument("--schemes", default="full,frozen,taylor", metavar="LIST",
                   help="comma-separated schemes (must include full)")
    p.add_argument("--surface-out", metavar="PREFIX", default=None,
                   help="also write implied-vol difference surfaces to "
                        "PREFIX_<scheme>.dat")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("reproduce-paper",
                       help="run the full bundled-setup experiment and the "
                            "acceptance-criteria summary")
    _add_run(p)
    p.add_argument("--paths-scale", type=_paths_scale, default=1.0,
                   metavar="X",
                   help="rescale all path counts (smoke runs only)")
    p.add_argument("--out-dir", default=".", metavar="DIR",
                   help="directory for comparison artifacts (default: .)")
    p.set_defaults(func=_cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
