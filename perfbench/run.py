"""levylibor benchmark: one workload per invocation, closed loop.

    python3 perfbench/run.py --workload crn-compare --seed 1 --seconds 10 \
        --trace 0

Runs the workload's command line through ``levylibor.cli.main`` in this
process, one job at a time, until ``--seconds`` have passed (at least two
jobs), with output going to a temporary directory inside the checkout.  The
program is imported from ``src/`` next to this directory, so without it the
benchmark exits 2 and prints no result.

``--trace 0`` prints the end-to-end metrics, with times rescaled by the
host's measured speed (host.py); ``--trace 1`` runs three jobs untraced,
then traced jobs, then the rates and thread sweeps, and prints the
per-layer metrics.  Every output check runs in both modes; a failed check
prints ``"correct": false`` and exits 1.  The last stdout line is one JSON
object; the full record, spans included, goes to ``.perfbench_out/``.
README.md says why each workload exists.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def import_program() -> None:
    """Import levylibor from this checkout's src/, and only from there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import levylibor
    where = Path(levylibor.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"levylibor imported from {where}, not {src}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True
    try:
        import_program()
    except ImportError as err:
        print(f"error: cannot import the program: {err}", file=sys.stderr)
        return 2
    import bench
    return bench.run(args.workload, args.seed, args.seconds, bool(args.trace),
                     ROOT)


if __name__ == "__main__":
    raise SystemExit(main())
