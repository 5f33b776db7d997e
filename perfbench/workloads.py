"""The four benchmark workloads and the inputs they are generated from.

Every workload is one ``levylibor`` command line, run in-process through
``levylibor.cli.main``.  The seed is the benchmark's ``--seed`` passed through
unchanged; only the synthetic long-tenor setup is generated here, and it does
not depend on the seed.  README.md says which layer each workload loads and
which end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

from levylibor.market import (MarketSetup, bundled_setup, load_setup,
                              setup_from_dict, setup_to_dict)

# The CLI default; setup_s builds the engine on the grid the job uses.
SUBSTEPS = 4

# Synthetic setups: semiannual tenor, flat continuously compounded curve,
# loadings constant in time and interpolated from 0.13 down to 0.06 on the
# 0.01 lattice the drift DP of ROADMAP item 2 needs.
SYNTH_SPACING = 0.5
SYNTH_RATE = 0.04
SYNTH_FIRST_LOADING = 13  # hundredths
SYNTH_LAST_LOADING = 6


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    # Scheme of the reference caplet behind time_to_se_s.
    scheme: str
    # Paths requested per job.  For reproduce-paper this is the scaled
    # 1M-path comparison, the one pass whose CSV the job writes.
    paths: int
    synthetic_rates: int | None = None
    paths_scale: float | None = None

    @property
    def csv_name(self) -> str:
        return "caplets.csv" if self.command == "price-caplets" \
            else "comparison.csv"


# Why each workload exists: README.md, "Workloads".
WORKLOADS = {w.name: w for w in (
    # The paper's experiment; every pricing layer is busy.
    Workload("crn-compare", "compare", "full", 8192),
    # Bypasses the drift layer and IV inversion; increments dominate.
    Workload("frozen-caplets", "price-caplets", "frozen", 16384),
    # The 2^m drift tables and step_drift dominate; large set-up.
    Workload("long-tenor", "price-caplets", "full", 2048, synthetic_rates=14),
    # The only run of acceptance, the drift quadrature and the oracle.
    Workload("reproduce-smoke", "reproduce-paper", "full", 5000,
             paths_scale=0.005),
)}


def synthetic_setup(n_rates: int) -> dict:
    """Setup file contents for ``n_rates`` semiannual rates.

    The NIG driver and the exponential-moment bound are the bundled setup's.
    Loadings fall from 0.13 to 0.06, rounded to the 0.01 lattice, so the
    14-rate setup sums to 1.33 against the bound 1.45; the last loading is
    constant in time, which keeps the last-rate quadrature oracle valid.
    """
    if n_rates < 2:
        raise ValueError("need at least two rates")
    bundled = setup_to_dict(bundled_setup())
    dates = [SYNTH_SPACING * k for k in range(n_rates + 2)]
    drop = SYNTH_FIRST_LOADING - SYNTH_LAST_LOADING
    loadings = [round(SYNTH_FIRST_LOADING - drop * k / (n_rates - 1)) / 100
                for k in range(n_rates)]
    return {
        "name": f"synthetic_{n_rates}",
        "tenor_dates": dates,
        "bond_prices": [math.exp(-SYNTH_RATE * t) for t in dates[1:]],
        "vols": loadings,
        "nig": bundled["nig"],
        "em": bundled["em"],
    }


def setup_sha256(setup: MarketSetup) -> str:
    """sha256 of the canonical ``setup_to_dict`` JSON."""
    text = json.dumps(setup_to_dict(setup), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def write_setup_file(w: Workload, directory: Path) -> Path | None:
    """Write the workload's generated setup; None for the bundled setup."""
    if w.synthetic_rates is None:
        return None
    path = directory / f"synthetic_{w.synthetic_rates}.json"
    path.write_text(json.dumps(synthetic_setup(w.synthetic_rates), indent=1))
    return path


def load(setup_file: Path | None) -> MarketSetup:
    """The setup the job's CLI call loads."""
    return bundled_setup() if setup_file is None else load_setup(str(setup_file))


def job_argv(w: Workload, seed: int, setup_file: Path | None,
             out_dir: Path) -> list[str]:
    """The command line of one job; never passes --threads or --drift-method."""
    argv = [w.command]
    if setup_file is not None:
        argv += ["--setup", str(setup_file)]
    if w.command == "reproduce-paper":
        return argv + ["--paths-scale", f"{w.paths_scale:g}",
                       "--seed", str(seed), "--out-dir", str(out_dir)]
    argv += ["--paths", str(w.paths), "--seed", str(seed),
             "--out", str(out_dir / w.csv_name)]
    if w.command == "compare":
        return argv + ["--surface-out", str(out_dir / "iv_surface")]
    return argv + ["--scheme", w.scheme]
