"""Path simulation of the log forward rates under the terminal measure.

Three schemes integrate the same log-rate equation

    z_i(t_(k+1)) = z_i(t_k) + b(t_k, T_i; state) dt_k + lam_i(t_k) dH_k :

* ``FULL_SDE``     reads the drift from the simulated state at the left grid
                   point (joint Euler recursion over all rates),
* ``FROZEN_DRIFT`` reads it from the initial state (drift deterministic),
* ``STRONG_TAYLOR`` runs the deterministic-drift recursion first and feeds
                   those stage-one paths into the drift of a second pass.

All three run on one batch engine, :class:`SimulationEngine`, read their
drift from its single :class:`~levylibor.drift.DriftEvaluator`, and consume
identical driver increments, so runs at the same seed are coupled pathwise;
the last rate has a state-free drift and is produced by the same arithmetic
in every scheme, bit for bit.  Loadings appearing in a step are the ones in
force on the open interval (read at the midpoint), so a rate stays exactly
constant from its fixing date on.

Driver increments are drawn a block of ``RNG_BLOCK`` consecutive paths at a
time: path ``j`` at seed ``s`` is row ``j % RNG_BLOCK`` of the block
``j // RNG_BLOCK``, drawn whole from the Philox stream keyed by
``(s, j // RNG_BLOCK)``.  So the increments of path ``j`` depend only on
``(s, j)``, whatever the batch they are drawn in.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .drift import DriftEvaluator
from .driver import SEED_LIMIT, block_rng, sample_nig_increment
from .market import MarketSetup, TenorStructure

DEFAULT_BATCH = 4096
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


@dataclass(frozen=True)
class SimulationGrid:
    """Time grid from 0 to the last fixing date, tenor dates on the grid."""

    times: np.ndarray
    tenor_indices: np.ndarray
    substeps: int

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    def fixing_index(self, i: int) -> int:
        """Grid index of the fixing date ``T_i``."""
        return int(self.tenor_indices[i])


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
    return SimulationGrid(times=grid_times, tenor_indices=tenor_indices,
                          substeps=substeps)


class SimulationEngine:
    """Shared machinery for one (setup, grid) pair.

    Holds the precomputed drift evaluator, the deterministic drift table and
    the per-step sampling constants, so pricing runs pay the setup cost
    once.
    """

    def __init__(self, setup: MarketSetup, grid: SimulationGrid) -> None:
        self.setup = setup
        self.grid = grid
        self.evaluator = DriftEvaluator(setup, grid)
        self.frozen_table = self.evaluator.frozen_table()
        self.dt = self.evaluator.dt
        self.step_vols = self.evaluator.step_vols
        self.z0 = np.asarray(setup.log_initial_rates, dtype=float)
        self.n_rates = setup.n_rates
        triplet = setup.triplet
        mids = self.evaluator.mids
        self._drift_dt = np.array([triplet.drift(t) for t in mids]) * self.dt
        gauss = np.array([triplet.gauss(t) for t in mids])
        self._gauss_sd = np.sqrt(gauss * self.dt) if triplet.has_gauss else None
        self._jumps = triplet.jumps

    # -- driver increments -------------------------------------------------

    def path_increments(self, seed: int, first_index: int,
                        count: int) -> np.ndarray:
        """Total driver increments dH for paths ``first_index`` onward.

        Every block of ``RNG_BLOCK`` paths the batch touches is drawn whole
        from :func:`~levylibor.driver.block_rng` ``(seed, block)``, Gaussian
        part first (one ``(RNG_BLOCK, steps)`` standard normal array), then
        the jump part by
        :func:`~levylibor.driver.sample_nig_increment`; the batch's rows are
        sliced out.

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
            rng = block_rng(seed, block)
            dh = np.broadcast_to(self._drift_dt, (RNG_BLOCK, k)).copy()
            if self._gauss_sd is not None:
                dh += self._gauss_sd * rng.standard_normal((RNG_BLOCK, k))
            if self._jumps is not None:
                dh += sample_nig_increment(self.dt, self._jumps, rng,
                                           size=(RNG_BLOCK, k))
            base = block * RNG_BLOCK
            lo, hi = max(first_index, base), min(stop, base + RNG_BLOCK)
            out[lo - first_index:hi - first_index] = dh[lo - base:hi - base]
        return out

    # -- log-rate recursions -----------------------------------------------

    def _recurse(self, drift_fn, dh: np.ndarray) -> np.ndarray:
        paths = dh.shape[0]
        out = np.empty((paths, self.n_rates, len(self.dt) + 1))
        z = np.repeat(self.z0[None, :], paths, axis=0)
        out[:, :, 0] = z
        for k in range(len(self.dt)):
            b = drift_fn(k, z)
            z = z + b * self.dt[k] + dh[:, k, None] * self.step_vols[k][None, :]
            out[:, :, k + 1] = z
        return out

    def evolve(self, scheme: Scheme, dh: np.ndarray,
               stage1: np.ndarray | None = None) -> np.ndarray:
        """Log-rate paths (paths, rates, grid points) for one scheme.

        ``stage1`` lets the corrected scheme reuse deterministic-drift paths
        already computed for the same increments.
        """
        if scheme is Scheme.FROZEN_DRIFT:
            table = self.frozen_table
            return self._recurse(
                lambda k, z: np.broadcast_to(table[k], z.shape), dh)
        if scheme is Scheme.FULL_SDE:
            return self._recurse(self.evaluator.step_drift, dh)
        if scheme is Scheme.STRONG_TAYLOR:
            if stage1 is None:
                stage1 = self.evolve(Scheme.FROZEN_DRIFT, dh)
            return self._recurse(
                lambda k, z: self.evaluator.step_drift(k, stage1[:, :, k]), dh)
        raise ValueError(f"unknown scheme {scheme}")

    # -- derived quantities --------------------------------------------------

    def fixings(self, log_paths: np.ndarray) -> np.ndarray:
        """Tenor-date fixings L(T_i, T_l), nan below the diagonal."""
        paths, n, _ = log_paths.shape
        out = np.full((paths, n, n), np.nan)
        with np.errstate(over="ignore"):
            for i in range(1, n + 1):
                idx = self.grid.fixing_index(i)
                out[:, i - 1, i - 1:] = np.exp(log_paths[:, i - 1:, idx])
        return out

    def valid_mask(self, log_paths: np.ndarray,
                   fixings: np.ndarray) -> np.ndarray:
        ok = np.isfinite(log_paths).all(axis=(1, 2))
        n = self.n_rates
        for i in range(n):
            ok &= np.isfinite(fixings[:, i, i:]).all(axis=1)
        return ok
