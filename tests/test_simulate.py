"""Tests for grids, path generation, and the three recursion schemes."""

import itertools

import numpy as np
import pytest

from levylibor import (
    Scheme,
    SimulationEngine,
    block_rng,
    build_grid,
    bundled_setup,
    nig_cumulant,
    nig_variance_rate,
    sample_nig_increment,
    setup_from_dict,
    setup_to_dict,
)
from levylibor.simulate import RNG_BLOCK

from helpers import regular_tenor


@pytest.fixture(scope="module")
def setup():
    return bundled_setup()


@pytest.fixture(scope="module")
def grid(setup):
    return build_grid(setup.tenor, 4)


@pytest.fixture(scope="module")
def engine(setup, grid):
    return SimulationEngine(setup, grid)


class TestGrid:
    def test_tenor_dates_land_exactly(self, setup, grid):
        assert grid.n_steps == 9 * 4
        for i in range(0, 10):
            k = grid.tenor_indices[i]
            assert grid.times[k] == setup.tenor.date(i)

    def test_single_substep(self, setup):
        g = build_grid(setup.tenor, 1)
        assert g.n_steps == 9
        assert np.array_equal(g.times, np.linspace(0.0, 4.5, 10))

    def test_bad_arguments(self, setup):
        with pytest.raises(ValueError):
            build_grid(setup.tenor, 0)
        with pytest.raises(ValueError):
            build_grid(regular_tenor(3, 0.5, start=1.0), 2)

    def test_schemes_parse(self):
        assert Scheme.parse("full") is Scheme.FULL_SDE
        assert Scheme.parse("frozen") is Scheme.FROZEN_DRIFT
        assert Scheme.parse("taylor") is Scheme.STRONG_TAYLOR
        with pytest.raises(ValueError):
            Scheme.parse("euler")


class TestIncrements:
    def test_deterministic_per_path(self, engine):
        a = engine.path_increments(11, 0, 4)
        b = engine.path_increments(11, 0, 4)
        assert np.array_equal(a, b)

    def test_batch_split_invariance(self, engine):
        whole = engine.path_increments(11, 0, 10)
        head = engine.path_increments(11, 0, 6)
        tail = engine.path_increments(11, 6, 4)
        assert np.array_equal(whole, np.vstack([head, tail]))

    def test_matches_single_path_driver_route(self, setup, grid, engine):
        # the bundled driver is pure jump and driftless, so each block of
        # paths is exactly the standalone NIG sampler's draw from that
        # block's stream
        dt = np.diff(grid.times)
        dh = engine.path_increments(11, 0, 2 * RNG_BLOCK)
        for b in range(2):
            ref = sample_nig_increment(dt, setup.nig,
                                       block_rng(11, b),
                                       size=(RNG_BLOCK, grid.n_steps))
            assert np.array_equal(dh[b * RNG_BLOCK:(b + 1) * RNG_BLOCK], ref)

    @pytest.mark.parametrize("batch", [1, 3, 7, 21])
    def test_batches_across_a_block_boundary(self, engine, batch):
        first, count = RNG_BLOCK - 9, 21
        whole = engine.path_increments(5, first, count)
        parts = [engine.path_increments(5, start, batch)
                 for start in range(first, first + count, batch)]
        assert np.array_equal(np.vstack(parts), whole)

    @pytest.mark.parametrize("first, count", [(-1, 1), ((1 << 64) - 2, 3)])
    def test_path_indices_outside_64_bits_raise(self, engine, first, count):
        with pytest.raises(ValueError):
            engine.path_increments(1, first, count)

    def test_last_path_indices_are_accepted(self, engine):
        dh = engine.path_increments(1, (1 << 64) - 3, 3)
        assert dh.shape == (3, 36) and np.isfinite(dh).all()

    def test_increment_moments(self, setup, engine, grid):
        n = 4000
        dh = engine.path_increments(1, 0, n)
        # driftless driver: mean 0, var delta/alpha * dt per step; the
        # grand mean's standard error is sqrt(rate * sum(dt)) / (n * steps)
        dt = np.diff(grid.times)
        rate = nig_variance_rate(setup.nig)
        se = np.sqrt(rate * dt.sum() / n) / len(dt)
        assert abs(dh.mean()) < 4.0 * se
        # per-step sample variance within 4 standard errors,
        # sqrt((kappa4 + 2 var^2) / n), with the NIG fourth cumulant
        # kappa4 = 3 delta alpha^2 (alpha^2 + 4 beta^2) / gamma^7 * dt
        p = setup.nig
        var = rate * dt
        kappa4 = (3.0 * p.delta * p.alpha**2 * (p.alpha**2 + 4.0 * p.beta**2)
                  / p.gamma**7 * dt)
        var_se = np.sqrt((kappa4 + 2.0 * var**2) / n)
        assert np.all(np.abs(dh.var(axis=0) - var) < 4.0 * var_se)


def whole_paths(engine, schemes, dh):
    """Log-rate paths (paths, grid points, rates) per scheme."""
    return engine.log_states(schemes, dh, range(engine.grid.n_steps + 1))


def whole_path(engine, scheme, dh):
    """Log-rate paths of ``scheme`` run alone."""
    return whole_paths(engine, [scheme], dh)[scheme]


def log_fixings(engine, schemes, dh):
    """Fixing-date log rates (paths, N, rates) per scheme."""
    return engine.log_states(schemes, dh, engine.grid.tenor_indices[1:])


def log_fixing(engine, scheme, dh):
    """Fixing-date log rates of ``scheme`` run alone."""
    return log_fixings(engine, [scheme], dh)[scheme]


class TestSchemes:
    def test_last_rate_coincides_bitwise(self, engine):
        dh = engine.path_increments(21, 0, 64)
        paths = whole_paths(engine, list(Scheme), dh)
        for s in (Scheme.FROZEN_DRIFT, Scheme.STRONG_TAYLOR):
            assert np.array_equal(paths[s][:, :, 8],
                                  paths[Scheme.FULL_SDE][:, :, 8])

    @pytest.mark.parametrize("substeps", [1, 4])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_taylor_next_to_last_rate_is_exact(self, setup, seed, substeps):
        # the drift of rate N-1 reads only rate N, which stage one already
        # carries exactly, so the corrected scheme reproduces the full
        # recursion bitwise on rate N-1 (and no further down)
        eng = SimulationEngine(setup, build_grid(setup.tenor, substeps))
        dh = eng.path_increments(seed, 0, 256)
        full, taylor = whole_paths(
            eng, [Scheme.FULL_SDE, Scheme.STRONG_TAYLOR], dh).values()
        assert np.array_equal(taylor[:, :, 7], full[:, :, 7])
        assert not np.array_equal(taylor[:, :, 6], full[:, :, 6])

    def test_stage_one_is_the_frozen_path(self, engine):
        # rebuild every two-stage step from the drift at the frozen path;
        # each scheme runs alone
        dh = engine.path_increments(21, 0, 32)
        frozen = whole_path(engine, Scheme.FROZEN_DRIFT, dh)
        taylor = whole_path(engine, Scheme.STRONG_TAYLOR, dh)
        z = frozen[:, 0]
        assert np.array_equal(taylor[:, 0], z)
        for k, dt in enumerate(engine.dt):
            b = engine.evaluator.step_drift(k, frozen[:, k])
            z = z + b * dt + dh[:, k, None] * engine.step_vols[k][None, :]
            assert np.array_equal(taylor[:, k + 1], z)

    def test_first_step_identical_across_schemes(self, engine):
        # all schemes read the same state at time zero, so the first grid
        # step must agree bitwise for every rate
        dh = engine.path_increments(21, 0, 16)
        res = [whole_path(engine, s, dh)[:, 1] for s in Scheme]
        assert np.array_equal(res[0], res[1])
        assert np.array_equal(res[1], res[2])

    def test_one_step_recursion_reconstruction(self, setup, engine, grid):
        # reconstruct step 0 by hand: z1 = z0 + b*dt + lambda*dh
        dh = engine.path_increments(21, 0, 8)
        full = whole_path(engine, Scheme.FULL_SDE, dh)
        z0 = setup.log_initial_rates
        b = engine.evaluator.step_drift(0, z0[None, :])[0]
        dt = grid.times[1] - grid.times[0]
        lam = engine.step_vols[0]
        expected = z0 + b * dt + dh[:, 0, None] * lam[None, :]
        assert np.array_equal(full[:, 1], expected)

    def test_rates_freeze_at_fixing(self, engine, grid):
        dh = engine.path_increments(33, 0, 8)
        for paths in whole_paths(engine, list(Scheme), dh).values():
            for i in (1, 5, 9):
                k = grid.tenor_indices[i]
                tail = paths[:, k:, i - 1]
                assert np.all(tail == tail[:, :1])

    def test_fixings_matrix_layout(self, engine, grid):
        dh = engine.path_increments(33, 0, 4)
        log_fixes = log_fixings(engine, list(Scheme), dh)
        for scheme, paths in whole_paths(engine, list(Scheme), dh).items():
            log_fix = log_fixes[scheme]
            assert log_fix.shape == (4, 9, 9)
            assert np.array_equal(log_fix, paths[:, grid.tenor_indices[1:]])
            fix = engine.fixings(log_fix)
            assert fix.shape == (4, 9, 9)
            k = grid.tenor_indices[4]
            assert np.array_equal(fix[:, 3], np.exp(paths[:, k]))
            # a rate is constant from its fixing date on, so below the
            # diagonal it repeats its own fixing
            for i in range(9):
                for l in range(i):
                    assert np.array_equal(fix[:, i, l], fix[:, l, l])
            assert np.all(engine.valid_mask(log_fix, fix))

    def test_initial_column_is_the_curve(self, setup, engine):
        dh = engine.path_increments(33, 0, 8)
        for paths in whole_paths(engine, list(Scheme), dh).values():
            assert np.array_equal(paths[:, 0],
                                  np.broadcast_to(setup.log_initial_rates,
                                                  (8, 9)))

    def test_zero_volatility_freezes_every_path(self, setup):
        # lambda = 0 kills both the noise term and the drift, whatever
        # the scheme
        raw = setup_to_dict(setup)
        raw["vols"] = [0.0] * 9
        quiet = setup_from_dict(raw)
        g = build_grid(quiet.tenor, 2)
        eng = SimulationEngine(quiet, g)
        dh = eng.path_increments(5, 0, 8)
        for paths in whole_paths(eng, list(Scheme), dh).values():
            assert np.all(paths == quiet.log_initial_rates[None, None, :])

    def test_frozen_scheme_exponential_moment(self, setup, engine, grid):
        # subtracting the deterministic drift from a frozen-drift log rate
        # leaves lambda-weighted driver increments, whose exponential mean
        # is the integrated cumulant; checked within three standard errors
        i, n = 5, 20_000
        fx = grid.tenor_indices[i]
        dt = np.diff(grid.times)[:fx]
        table = engine.evaluator.frozen_table()[:fx, i - 1]
        dh = engine.path_increments(77, 0, n)
        log_fix = log_fixing(engine, Scheme.FROZEN_DRIFT, dh)
        resid = (log_fix[:, i - 1, i - 1] - setup.log_initial_rates[i - 1]
                 - (table * dt).sum())
        y = np.exp(resid)
        lam = setup.vols.loadings(0.0)[i - 1]
        target = np.exp(nig_cumulant(lam, setup.nig)
                        * setup.tenor.date(i))
        assert abs(y.mean() - target) <= 3.0 * y.std(ddof=1) / np.sqrt(n)


SCHEME_ORDERS = [list(p) for r in (1, 2, 3)
                 for p in itertools.permutations(Scheme, r)]


class TestOneLoop:
    @pytest.mark.parametrize(
        "schemes", SCHEME_ORDERS,
        ids=["-".join(s.value for s in order) for order in SCHEME_ORDERS])
    def test_each_scheme_is_bitwise_its_run_alone(self, engine, grid,
                                                  schemes):
        # the schemes share one loop, its noise term and its frozen state;
        # each still gets the states it has alone, bit for bit, on invalid
        # paths too
        dh = engine.path_increments(41, 0, 8)
        dh[1, 0] = np.inf
        dh[2, 9] = -np.inf
        dh[3, 20] = np.nan
        with np.errstate(all="ignore"):
            alone = {s: whole_path(engine, s, dh) for s in schemes}
            alone_fix = {s: log_fixing(engine, s, dh) for s in schemes}
            together = whole_paths(engine, schemes, dh)
            log_fix = log_fixings(engine, schemes, dh)
        assert list(together) == list(log_fix) == schemes
        for s in schemes:
            assert not np.isfinite(alone[s][1:4]).all(axis=(1, 2)).any()
            assert together[s].tobytes() == alone[s].tobytes()
            fixing_rows = alone[s][:, grid.tenor_indices[1:]].tobytes()
            assert log_fix[s].tobytes() == fixing_rows
            assert alone_fix[s].tobytes() == fixing_rows

    def test_points_pick_grid_rows_in_order(self, engine):
        dh = engine.path_increments(41, 0, 8)
        whole = whole_paths(engine, list(Scheme), dh)
        picked = engine.log_states(list(Scheme), dh, [36, 0, 7])
        for s in Scheme:
            assert picked[s].shape == (8, 3, 9)
            assert np.array_equal(picked[s], whole[s][:, [36, 0, 7]])


class TestEnsembleApi:
    @staticmethod
    def _simulate(engine, scheme, n_paths, seed, batch_size):
        """Whole log paths and fixings of paths 0..n_paths-1, batch by
        batch."""
        logs, fixes = [], []
        for start in range(0, n_paths, batch_size):
            count = min(batch_size, n_paths - start)
            dh = engine.path_increments(seed, start, count)
            logs.append(whole_path(engine, scheme, dh))
            fixes.append(engine.fixings(log_fixing(engine, scheme, dh)))
        return np.concatenate(logs), np.concatenate(fixes)

    def test_path_bundle_fields_and_determinism(self, engine, grid):
        logs, fix = self._simulate(engine, Scheme.FULL_SDE, 5, 9, 4096)
        assert logs.shape == (5, grid.n_steps + 1, 9)
        assert fix.shape == (5, 9, 9)
        assert engine.valid_mask(logs[:, grid.tenor_indices[1:]], fix).all()
        again, _ = self._simulate(engine, Scheme.FULL_SDE, 5, 9, 4096)
        assert np.array_equal(logs, again)

    def test_batch_size_does_not_change_paths(self, engine):
        small = self._simulate(engine, Scheme.STRONG_TAYLOR, 7, 9, 2)
        big = self._simulate(engine, Scheme.STRONG_TAYLOR, 7, 9, 100)
        assert np.array_equal(small[0], big[0])
        assert np.array_equal(small[1], big[1])

    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize("scheme", [Scheme.FULL_SDE,
                                        Scheme.STRONG_TAYLOR])
    def test_state_dependent_schemes_ignore_batch_size(self, engine, scheme,
                                                       seed):
        # the drift of paths 0-8 must not depend on which paths share its
        # batch, down to a lone path (a BLAS matrix-vector reduction once
        # moved the last bit at these seeds)
        ref = self._simulate(engine, scheme, 9, seed, 9)
        for batch_size in (1, 2, 3):
            logs, fix = self._simulate(engine, scheme, 9, seed, batch_size)
            assert np.array_equal(logs, ref[0])
            assert np.array_equal(fix, ref[1])

    def test_single_path_matches_ensemble(self, engine):
        logs, fix = self._simulate(engine, Scheme.FROZEN_DRIFT, 3, 9, 4096)
        dh = engine.path_increments(9, 2, 1)
        alone = whole_path(engine, Scheme.FROZEN_DRIFT, dh)
        assert np.array_equal(alone[0], logs[2])
        assert np.array_equal(
            engine.fixings(log_fixing(engine, Scheme.FROZEN_DRIFT, dh))[0],
            fix[2])


class TestOverflowHandling:
    def test_heavy_driver_stays_finite_under_compensation(self, setup):
        # an absurdly heavy driver carries an equally heavy compensator, so
        # rates collapse toward zero rather than exploding; paths stay
        # finite and valid
        raw = setup_to_dict(setup)
        raw["nig"]["delta_bar"] = 1e8
        raw["em"] = {"M": 1e9, "epsilon": 0.0}
        wild = setup_from_dict(raw)
        grid = build_grid(wild.tenor, 1)
        engine = SimulationEngine(wild, grid)
        dh = engine.path_increments(5, 0, 64)
        paths = log_fixing(engine, Scheme.FROZEN_DRIFT, dh)
        fix = engine.fixings(paths)
        assert engine.valid_mask(paths, fix).all()

    def test_nonfinite_paths_are_flagged_not_raised(self, setup, engine):
        # inject a corrupt increment: the path must be flagged invalid and
        # leave its neighbours untouched
        dh = engine.path_increments(5, 0, 8)
        dh[3, 0] = np.inf
        dh[6, 2] = np.nan
        with np.errstate(invalid="ignore", over="ignore"):
            paths = log_fixing(engine, Scheme.FROZEN_DRIFT, dh)
            fix = engine.fixings(paths)
            mask = engine.valid_mask(paths, fix)
        assert list(mask) == [True, True, True, False, True, True, False,
                              True]

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_valid_mask_matches_the_whole_path(self, engine, grid, scheme):
        # valid_mask reads only the fixing dates; the oracle reads every
        # grid point: every log rate finite, every fixing finite
        dh = engine.path_increments(5, 0, 8)
        dh[1, 0] = -np.inf
        dh[2, 30] = -np.inf
        dh[3, 12] = np.inf
        dh[4, 20] = np.nan
        dh[5, 5] = 800.0
        with np.errstate(all="ignore"):
            paths = whole_path(engine, scheme, dh)
            log_fix = log_fixing(engine, scheme, dh)
            fix = engine.fixings(log_fix)
            mask = engine.valid_mask(log_fix, fix)
            oracle = np.isfinite(paths).all(axis=(1, 2))
            for i in range(1, 10):
                k = grid.tenor_indices[i]
                oracle &= np.isfinite(np.exp(paths[:, k, i - 1:])).all(axis=1)
        assert np.array_equal(mask, oracle)
        assert list(mask[:5]) == [True, False, False, False, False]
        # a rate sent to -inf fixes at 0, which is finite, yet the path
        # is invalid
        assert all(np.isfinite(fix[1, i, i:]).all() for i in range(9))
        # the 800.0 shock leaves finite fixings only where the drift
        # ignores the state
        assert mask[5] == (scheme is Scheme.FROZEN_DRIFT)
