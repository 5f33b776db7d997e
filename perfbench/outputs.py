"""Output checks, failure accounting and summary statistics.

Everything here reads what a job wrote (its CSV files and its stdout), so
the checks keep working when the program's internals change.  Nothing here
imports the program.
"""

from __future__ import annotations

import csv
import io
import math
import re
import statistics
from pathlib import Path

# time_to_se_s is the time to bring the reference caplet's standard error
# down to 0.1 vol points.
TARGET_SE_IV = 1e-3
ORACLE_SE_LIMIT = 4.0
# Fields of a last-rate caplet row that must agree across schemes.
CRN_FIELDS = ("strike", "price", "std_error", "implied_vol", "n_paths")
_SUMMARY = re.compile(r"acceptance summary: (\d+)/(\d+) criteria passed")


def parse_rows(data: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode())))


def read_outputs(directory: Path) -> dict[str, bytes]:
    """Every file a job wrote, by name."""
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())
            if p.is_file()}


def caplet_rows(rows: list[dict], rate: int, scheme: str) -> list[dict]:
    """Caplet rows of one rate and scheme, in strike-grid order."""
    return [r for r in rows if r["instrument"] == "caplet"
            and int(r["maturity_index"]) == rate and r["scheme"] == scheme]


def schemes_in(rows: list[dict]) -> list[str]:
    return list(dict.fromkeys(r["scheme"] for r in rows))


def check_oracle(rows: list[dict], last_rate: int,
                 oracle: list[float]) -> list[str]:
    """Each last-rate caplet within ORACLE_SE_LIMIT standard errors of the
    quadrature price; ``oracle`` follows the strike grid."""
    errors = []
    for scheme in schemes_in(rows):
        cells = caplet_rows(rows, last_rate, scheme)
        if len(cells) != len(oracle):
            errors.append(f"{scheme}: {len(cells)} last-rate caplets, "
                          f"expected {len(oracle)}")
            continue
        for row, ref in zip(cells, oracle):
            price, se = float(row["price"]), float(row["std_error"])
            if not abs(price - ref) <= ORACLE_SE_LIMIT * se:
                errors.append(
                    f"{scheme} caplet {last_rate} strike {row['strike']}: "
                    f"price {price:.8g} vs quadrature {ref:.8g} is "
                    f"{abs(price - ref) / se:.1f} SE away")
    return errors


def check_crn_identity(rows: list[dict], last_rate: int) -> list[str]:
    """The last rate's drift is state-free, so its caplet cells are
    textually identical across schemes (the invariant of criterion 3)."""
    schemes = schemes_in(rows)
    base = [tuple(r[f] for f in CRN_FIELDS)
            for r in caplet_rows(rows, last_rate, schemes[0])]
    errors = []
    for scheme in schemes[1:]:
        other = [tuple(r[f] for f in CRN_FIELDS)
                 for r in caplet_rows(rows, last_rate, scheme)]
        if other != base:
            errors.append(f"last-rate caplet cells differ between "
                          f"{schemes[0]} and {scheme}")
    return errors


def check_identical(outputs: list[dict[str, bytes]]) -> list[str]:
    """Repetitions at one seed must write byte-identical files."""
    errors = []
    for k, out in enumerate(outputs[1:], start=2):
        if out.keys() != outputs[0].keys():
            errors.append(f"job {k} wrote files {sorted(out)}, job 1 wrote "
                          f"{sorted(outputs[0])}")
            continue
        errors += [f"job {k} wrote a different {name}"
                   for name in out if out[name] != outputs[0][name]]
    return errors


def invalid_paths(rows: list[dict], requested: int) -> tuple[int, int]:
    """(overflowed paths, paths attempted), summed over schemes.

    Uses ``n_invalid`` where the CSV has it; otherwise every requested path
    missing from ``n_paths`` was dropped.
    """
    invalid = 0
    first = {}
    for r in rows:
        first.setdefault(r["scheme"], r)
    for r in first.values():
        if r.get("n_invalid", "") != "":
            invalid += int(r["n_invalid"])
        else:
            invalid += requested - int(r["n_paths"])
    return invalid, requested * len(first)


def iv_failures(rows: list[dict]) -> tuple[int, int]:
    """(caplet cells with no implied vol, caplet cells quoted)."""
    quoted = [r for r in rows if r["instrument"] == "caplet"]
    return sum(1 for r in quoted if r["implied_vol"] == ""), len(quoted)


def criteria_failures(stdout: str) -> tuple[int, int] | None:
    """(criteria not passed, criteria run) from the acceptance summary."""
    m = _SUMMARY.search(stdout)
    if m is None:
        return None
    passed, total = int(m.group(1)), int(m.group(2))
    return total - passed, total


def black76_vega(forward: float, strike: float, vol: float, expiry: float,
                 discount: float, accrual: float) -> float:
    """d(Black-76 caplet price)/d(vol)."""
    stddev = vol * math.sqrt(expiry)
    d1 = (math.log(forward / strike) + 0.5 * stddev * stddev) / stddev
    density = math.exp(-0.5 * d1 * d1) / math.sqrt(2.0 * math.pi)
    return discount * accrual * forward * density * math.sqrt(expiry)


def time_to_se(setup_s: float, job_s: float, se_iv: float) -> float:
    """Set-up plus path time rescaled to reach TARGET_SE_IV (variance
    falls as 1/paths, so path time scales with the squared error ratio)."""
    return setup_s + (job_s - setup_s) * (se_iv / TARGET_SE_IV) ** 2


def summarize(samples: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples above it
    (None below eleven samples), and the sample count."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n,
           "tail_pct": None, "tail": None}
    if n >= 11:
        out["tail_pct"] = 100.0 * (n - 10) / n
        out["tail"] = ordered[n - 11]
    return out
