"""Path simulation of the log forward rates under the terminal measure.

Three schemes integrate the same log-rate equation

    z_i(t_(k+1)) = z_i(t_k) + b(t_k, T_i; state) dt_k + lam_i(t_k) dH_k

and differ only in the state the drift is read from (:data:`DRIFT_SOURCE`):
``FROZEN_DRIFT`` reads the initial curve (the drift's zeroth-order
expansion), ``STRONG_TAYLOR`` the frozen state (its first-order expansion)
and ``FULL_SDE`` its own state (the exact recursion).

:meth:`SimulationEngine.states` advances every requested scheme in one loop
over the time steps on one batch of driver increments, so runs at the same
seed are coupled pathwise.  The noise term is computed once a step and the
frozen state advanced once, however many schemes read it; each scheme's
states are bitwise those it has when run alone.  The last rate has a
state-free drift and is bitwise equal in every scheme; under
``STRONG_TAYLOR`` so is rate N-1, whose drift reads only rate N.  Loadings
appearing in a step are the ones in force on the open interval (read at
the midpoint), so a rate stays exactly constant from its fixing date on.
Pricing reads only the tenor dates, from :meth:`SimulationEngine.log_fixings`.
Every path and fixing array has the axis order (paths, time, rate).

Driver increments are drawn a block of ``RNG_BLOCK`` consecutive paths at a
time: path ``j`` at seed ``s`` is row ``j % RNG_BLOCK`` of the block
``j // RNG_BLOCK``, drawn whole from the Philox stream keyed by
``(s, j // RNG_BLOCK)``.  So the increments of path ``j`` depend only on
``(s, j)``, whatever the batch they are drawn in.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

import numpy as np

from .drift import DriftEvaluator
from .driver import SEED_LIMIT, block_rng, sample_nig_increment
from .market import MarketSetup, TenorStructure

# Paths per batch of every Monte Carlo estimator.  A path does not depend
# on its batch, but estimators sum batch by batch, so changing this moves
# prices in the last bits.
DEFAULT_BATCH = 4096
# Time steps per accrual interval of every simulating entry point.
DEFAULT_SUBSTEPS = 4
# Paths per random stream; fixed, so no batch size can move a path's draws.
RNG_BLOCK = 1024


class Scheme(Enum):
    FULL_SDE = "full"
    FROZEN_DRIFT = "frozen"
    STRONG_TAYLOR = "taylor"

    @classmethod
    def parse(cls, text: str) -> "Scheme":
        for s in cls:
            if s.value == text:
                return s
        raise ValueError(f"unknown scheme {text!r}; "
                         f"choose from {[s.value for s in cls]}")


# The state each scheme's drift reads; ``None`` reads ``frozen_table``.
DRIFT_SOURCE = {Scheme.FULL_SDE: Scheme.FULL_SDE, Scheme.FROZEN_DRIFT: None,
                Scheme.STRONG_TAYLOR: Scheme.FROZEN_DRIFT}


@dataclass(frozen=True)
class SimulationGrid:
    """Time grid from 0 to the last fixing date, tenor dates on the grid."""

    times: np.ndarray
    tenor_indices: np.ndarray

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1


def build_grid(tenor: TenorStructure, substeps: int) -> SimulationGrid:
    """Uniform refinement of the accrual intervals up to the last fixing.

    ``substeps`` steps per accrual interval; tenor dates land on the grid
    exactly (they are inserted, not accumulated).
    """
    if substeps < 1:
        raise ValueError("substeps must be a positive integer")
    if tenor.date(0) != 0.0:
        raise ValueError("simulation assumes the first tenor date is 0")
    n = tenor.n_rates
    times = []
    for j in range(n):
        left, right = tenor.date(j), tenor.date(j + 1)
        for s in range(substeps):
            times.append(left + (right - left) * (s / substeps))
    times.append(tenor.date(n))
    grid_times = np.asarray(times)
    grid_times.setflags(write=False)
    tenor_indices = np.arange(0, n * substeps + 1, substeps)
    tenor_indices.setflags(write=False)
    return SimulationGrid(times=grid_times, tenor_indices=tenor_indices)


class SimulationEngine:
    """Shared machinery for one (setup, grid) pair.

    Holds the precomputed drift evaluator, the deterministic drift table and
    the step lengths, so pricing runs pay the setup cost once.
    """

    def __init__(self, setup: MarketSetup, grid: SimulationGrid) -> None:
        self.setup = setup
        self.grid = grid
        self.evaluator = DriftEvaluator(setup, grid)
        self.frozen_table = self.evaluator.frozen_table()
        self.dt = self.evaluator.dt
        self.step_vols = self.evaluator.step_vols
        self.n_rates = setup.n_rates

    # -- driver increments -------------------------------------------------

    def path_increments(self, seed: int, first_index: int,
                        count: int) -> np.ndarray:
        """Total driver increments dH for paths ``first_index`` onward.

        Every block of ``RNG_BLOCK`` paths the batch touches is drawn whole
        by :func:`~levylibor.driver.sample_nig_increment` from
        :func:`~levylibor.driver.block_rng` ``(seed, block)``; the batch's
        rows are sliced out.

        Raises
        ------
        ValueError
            If a path index lies outside ``[0, 2^64)``.
        """
        stop = first_index + count
        if first_index < 0 or stop > SEED_LIMIT:
            raise ValueError(f"path indices {first_index}..{stop - 1} "
                             f"outside [0, 2^64)")
        k = len(self.dt)
        out = np.empty((count, k))
        for block in range(first_index // RNG_BLOCK,
                           (stop + RNG_BLOCK - 1) // RNG_BLOCK):
            dh = sample_nig_increment(self.dt, self.setup.nig,
                                      block_rng(seed, block),
                                      size=(RNG_BLOCK, k))
            base = block * RNG_BLOCK
            lo, hi = max(first_index, base), min(stop, base + RNG_BLOCK)
            out[lo - first_index:hi - first_index] = dh[lo - base:hi - base]
        return out

    # -- log-rate recursion -------------------------------------------------

    def states(self, schemes: Sequence[Scheme],
               dh: np.ndarray) -> Iterator[dict[Scheme, np.ndarray]]:
        """Log-rate states (paths, rates) per scheme at grid points
        0..n_steps, fresh arrays after point 0.  The states the drifts read
        are advanced alongside, each once; every drift is read before any
        state moves."""
        needed = set(schemes) | {DRIFT_SOURCE[s] for s in schemes}
        run = [s for s in Scheme if s in needed]
        z = dict.fromkeys(run, np.repeat(self.setup.log_initial_rates[None, :],
                                         dh.shape[0], axis=0))
        yield {s: z[s] for s in schemes}
        for k, dt in enumerate(self.dt):
            noise = dh[:, k, None] * self.step_vols[k][None, :]
            b = {s: self._drift(k, z, s) for s in run}
            z = {s: z[s] + b[s] * dt + noise for s in run}
            yield {s: z[s] for s in schemes}

    def _drift(self, k: int, z: dict, scheme: Scheme) -> np.ndarray:
        """Step ``k``'s drift of ``scheme``, read from the states ``z``."""
        source = DRIFT_SOURCE[scheme]
        return (self.frozen_table[k] if source is None
                else self.evaluator.step_drift(k, z[source]))

    def log_fixings(self, schemes: Sequence[Scheme],
                    dh: np.ndarray) -> dict[Scheme, np.ndarray]:
        """Log-rate states at the fixing dates T_1..T_N per scheme, each
        (paths, N, rates); row ``i - 1`` holds every rate at ``T_i``."""
        out = {s: np.empty((dh.shape[0], self.n_rates, self.n_rates))
               for s in schemes}
        row = {int(k): i for i, k in enumerate(self.grid.tenor_indices[1:])}
        for k, zs in enumerate(self.states(schemes, dh)):
            if k in row:
                for s, z in zs.items():
                    out[s][:, row[k]] = z
        return out

    # -- derived quantities --------------------------------------------------

    def fixings(self, log_fix: np.ndarray) -> np.ndarray:
        """Tenor-date fixings L(T_i, T_l), same layout as ``log_fix``.

        A rate is constant from its fixing date on, so on a valid path,
        below the diagonal (l < i) each rate repeats its own fixing
        L(T_l, T_l)."""
        with np.errstate(over="ignore"):
            return np.exp(log_fix)

    def valid_mask(self, log_fix: np.ndarray,
                   fixings: np.ndarray) -> np.ndarray:
        """Paths whose log rates stay finite and whose fixings do not
        overflow.

        Reading the states at ``T_N`` alone is exact: each step adds to the
        state, so a non-finite log rate stays non-finite to the last grid
        point (a rate at -inf fails even though its fixing, 0, is finite).
        """
        return (np.isfinite(log_fix[:, -1, :]).all(axis=1)
                & np.isfinite(fixings).all(axis=(1, 2)))
