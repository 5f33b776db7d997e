"""Tests for the terminal-measure drift: the evaluator's lattice DP, its
frozen tables, and the oracles it is checked against."""

import itertools
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levylibor import (
    DriftEvaluator,
    bundled_setup,
    build_grid,
    drift_quadrature,
    loading_lattice,
    nig_jump_cumulant,
    setup_from_dict,
    setup_to_dict,
)
from levylibor.drift import _absorb, link_weight
from levylibor.market import LOADING_QUANTA

from helpers import FORTY_LOADINGS, REGULAR_LOADINGS, regular_setup


@pytest.fixture(scope="module")
def setup():
    return bundled_setup()


@pytest.fixture(scope="module")
def initial_state(setup):
    return setup.log_initial_rates.copy()


@pytest.fixture(scope="module")
def evaluator(setup):
    # Step 0 spans [0, 0.5]: its loadings are the ones in force at s = 0.25.
    return DriftEvaluator(setup, build_grid(setup.tenor, 1))


def jump_term(evaluator, s, i, state):
    """J of rate ``i`` at time ``s`` for one state, through the evaluator."""
    return evaluator.jump_terms(s, np.asarray(state)[None, :])[0, i - 1]


class TestLinkWeight:
    def test_frozen_value(self, setup):
        z1 = np.log(setup.initial_rate(1))
        assert link_weight(z1, 0.5) == 0.018939293017939538

    def test_limits_are_exact(self):
        assert link_weight(-np.inf, 0.5) == 0.0
        assert link_weight(np.inf, 0.5) == 1.0

    def test_matches_naive_formula(self):
        for z in (-3.0, 0.0, 2.5):
            delta_l = 0.5 * np.exp(z)
            assert link_weight(z, 0.5) == pytest.approx(
                delta_l / (1.0 + delta_l), rel=1e-15)


class TestDriftRoutes:
    def test_routes_agree_at_initial_state(self, setup, initial_state,
                                           evaluator):
        rates = np.array([1, 4, 8, 9])
        a = evaluator.jump_terms(0.25, initial_state[None, :])[0, rates - 1]
        b = drift_quadrature(0.25, rates, initial_state, setup)
        np.testing.assert_allclose(a, b, rtol=1e-9)

    def test_frozen_regression_rate_8(self, setup, initial_state, evaluator):
        a = jump_term(evaluator, 0.25, 8, initial_state)
        b = drift_quadrature(0.25, 8, initial_state, setup)
        assert a == 0.008879356025046817
        assert b == pytest.approx(a, rel=1e-12)

    def test_last_rate_has_state_free_jump_term(self, setup, initial_state,
                                                evaluator):
        # no rates after the last one: J collapses to the jump cumulant of
        # its own loading, whatever the state
        p = setup.nig
        lam = setup.vols.loadings(0.25)[8]
        expected = nig_jump_cumulant(lam, p)
        assert jump_term(evaluator, 0.25, 9, initial_state) == expected
        shifted = setup.log_initial_rates + 2.0
        assert jump_term(evaluator, 0.25, 9, shifted) == expected

    def test_last_rate_drift_is_negative_jump_cumulant(self, setup,
                                                       initial_state,
                                                       evaluator):
        # b = -J, and J of the last rate is kappa(lam)
        p = setup.nig
        lam = setup.vols.loadings(0.25)[8]
        assert evaluator.step_drift(0, initial_state[None, :])[0, 8] == \
            -nig_jump_cumulant(lam, p)

    def test_last_rate_quadrature_integral_identity(self, setup,
                                                    initial_state):
        # int (e^(lam x) - 1 - lam x) F(dx) recovers the jump cumulant
        p = setup.nig
        lam = setup.vols.loadings(0.25)[8]
        assert drift_quadrature(0.25, 9, initial_state, setup) == \
            pytest.approx(nig_jump_cumulant(lam, p), rel=1e-10)

    def test_collapsed_state_gives_single_rate_drift(self, setup, evaluator):
        # all later rates at -inf: every link weight vanishes and J reduces
        # to the jump cumulant of the rate's own loading, exactly
        dead = np.full(9, -np.inf)
        p = setup.nig
        lam = setup.vols.loadings(0.25)[2]
        assert jump_term(evaluator, 0.25, 3, dead) == \
            nig_jump_cumulant(lam, p)

    def test_drift_decreases_when_later_rates_rise(self, setup, initial_state,
                                                   evaluator):
        # raising any later rate raises its link weight, which raises the
        # compensator J and so lowers the drift
        base = evaluator.step_drift(0, initial_state[None, :])[0, 1]
        for l in (3, 6, 9):
            bumped = setup.log_initial_rates.copy()
            bumped[l - 1] += 0.5
            higher = evaluator.step_drift(0, bumped[None, :])[0, 1]
            assert higher < base

    def test_zero_past_fixing(self, setup, initial_state, evaluator):
        assert jump_term(evaluator, 1.7, 2, initial_state) == 0.0
        assert drift_quadrature(1.7, 2, initial_state, setup) == 0.0

    def test_zero_loading_collapses_drift(self, setup):
        raw = setup_to_dict(setup)
        raw["vols"][2] = 0.0
        quiet = setup_from_dict(raw)
        ev = DriftEvaluator(quiet, build_grid(quiet.tenor, 1))
        b = ev.step_drift(0, quiet.log_initial_rates[None, :])[0]
        assert b[2] == 0.0
        # other rates still see rate 3 in their compensator products, but
        # with a vanished jump factor contribution
        assert b[1] != 0.0


@pytest.fixture(scope="module")
def mixed_batch(setup):
    """Cases (s, i, state) mixing general rates, a rate past its fixing
    (case 1) and the last rate (case 3)."""
    rng = np.random.default_rng(8)
    states = setup.log_initial_rates + rng.normal(0.0, 0.5, size=(5, 9))
    return (np.array([0.25, 1.7, 0.6, 2.2, 3.9]), np.array([1, 2, 4, 9, 8]),
            states)


class TestQuadratureBatch:
    def test_past_fixing_case_is_exactly_zero(self, setup, mixed_batch):
        assert drift_quadrature(*mixed_batch, setup)[1] == 0.0

    def test_last_rate_case_is_the_jump_cumulant(self, setup, mixed_batch):
        s = mixed_batch[0][3]
        expected = nig_jump_cumulant(setup.vols.loadings(s)[8], setup.nig)
        assert drift_quadrature(*mixed_batch, setup)[3] == pytest.approx(
            expected, rel=1e-10)

    def test_batch_matches_one_case_calls(self, setup, mixed_batch):
        batch = drift_quadrature(*mixed_batch, setup)
        assert batch.shape == (5,)
        for b, s, i, z in zip(batch, *mixed_batch):
            assert b == pytest.approx(drift_quadrature(s, i, z, setup),
                                      rel=1e-11)

    def test_shared_state_broadcasts(self, setup, mixed_batch, initial_state):
        s, i, _ = mixed_batch
        shared = drift_quadrature(s, i, initial_state, setup)
        stacked = drift_quadrature(s, i, np.tile(initial_state, (5, 1)),
                                   setup)
        assert np.array_equal(shared, stacked)

    def test_scalar_arguments_give_a_float(self, setup, initial_state):
        assert type(drift_quadrature(0.25, 4, initial_state, setup)) is float
        assert type(drift_quadrature(1.7, 2, initial_state, setup)) is float

    @pytest.mark.parametrize("bad", [0, 10])
    def test_bad_rate_index_anywhere_raises(self, setup, mixed_batch, bad):
        s, i, states = mixed_batch
        i = i.copy()
        i[2] = bad
        with pytest.raises(IndexError, match="outside"):
            drift_quadrature(s, i, states, setup)

    def test_wrong_length_state_raises(self, setup, mixed_batch):
        s, i, states = mixed_batch
        with pytest.raises(ValueError, match="9 log rates"):
            drift_quadrature(s, i, states[:, :8], setup)
        with pytest.raises(ValueError, match="9 log rates"):
            drift_quadrature(s[0], i[0], states[0, :8], setup)

    def test_oracle_is_independent_of_the_dp(self, setup, mixed_batch,
                                             monkeypatch):
        expected = drift_quadrature(*mixed_batch, setup)

        def boom(*args, **kwargs):
            raise AssertionError("the oracle reached the lattice DP")

        monkeypatch.setattr(DriftEvaluator, "_jump_pass", boom)
        monkeypatch.setattr(DriftEvaluator, "_plan", boom)
        monkeypatch.setattr("levylibor.drift._absorb", boom)
        assert np.array_equal(drift_quadrature(*mixed_batch, setup), expected)


class TestDriftEvaluator:
    def test_step_drift_matches_pointwise_route(self, setup):
        # the per-step drift is the jump pass at the step's midpoint
        # loadings, on random states
        grid = build_grid(setup.tenor, 2)
        ev = DriftEvaluator(setup, grid)
        rng = np.random.default_rng(3)
        z = setup.log_initial_rates + rng.normal(0.0, 0.4, size=(5, 9))
        for k in (0, 3, 10, 17):
            mid = 0.5 * (grid.times[k] + grid.times[k + 1])
            batch = ev.step_drift(k, z)
            assert np.array_equal(batch, -ev.jump_terms(mid, z))

    def test_step_vols_are_the_midpoint_loadings(self, setup):
        ev = DriftEvaluator(setup, build_grid(setup.tenor, 3))
        expected = np.array([[setup.vols.loadings(t)[i - 1]
                              for i in range(1, 10)] for t in ev.mids])
        assert np.array_equal(ev.step_vols, expected)

    def test_frozen_table_rows_are_initial_state_drifts(self, setup):
        grid = build_grid(setup.tenor, 2)
        ev = DriftEvaluator(setup, grid)
        table = ev.frozen_table()
        z0 = setup.log_initial_rates[None, :]
        for k in range(len(ev.dt)):
            assert np.array_equal(table[k], ev.step_drift(k, z0)[0])

    def test_dead_rates_have_zero_drift(self, setup):
        grid = build_grid(setup.tenor, 2)
        table = DriftEvaluator(setup, grid).frozen_table()
        # after T_1 (step index 2 onward) rate 1 is fixed: zero drift
        assert np.all(table[2:, 0] == 0.0)
        assert table[1, 0] != 0.0

    def test_last_rate_row_is_constant(self, setup):
        # the last rate never sees a later rate, so its frozen drift is the
        # same state-free value on every step up to the terminal date
        grid = build_grid(setup.tenor, 2)
        table = DriftEvaluator(setup, grid).frozen_table()
        p = setup.nig
        expected = -nig_jump_cumulant(setup.vols.loadings(0.0)[8], p)
        assert np.all(table[:, 8] == expected)

    def test_quadrature_method_evaluator(self, setup, evaluator):
        # the engine's step drift against the quadrature oracle at the
        # step's midpoint, for every rate
        z = setup.log_initial_rates
        mid = evaluator.mids[0]
        slow = -drift_quadrature(mid, np.arange(1, 10), z, setup)
        np.testing.assert_allclose(evaluator.step_drift(0, z[None, :])[0],
                                   slow, rtol=1e-9)


def brute_force_jump_term(setup, s, i, state):
    """J of rate ``i`` as E[kappa(lam_i + Lam) - kappa(Lam)], enumerating
    all 2^m outcomes of the Bernoulli variables of the m live later rates."""
    p = setup.nig
    loadings = setup.vols.loadings(s)
    lam_i = loadings[i - 1]
    if lam_i == 0.0:
        return 0.0
    later = [(loadings[l - 1],
              link_weight(state[l - 1], setup.tenor.accrual(l)))
             for l in range(i + 1, setup.n_rates + 1)]
    later = [(lam, u) for lam, u in later if lam != 0.0]
    total = 0.0
    for bits in itertools.product((0, 1), repeat=len(later)):
        prob = math.prod(u if b else 1.0 - u for b, (_, u) in zip(bits, later))
        lam_sum = sum(lam for b, (lam, _) in zip(bits, later) if b)
        total += prob * (nig_jump_cumulant(lam_i + lam_sum, p)
                         - nig_jump_cumulant(lam_sum, p))
    return total


def hull_jump_pass(ev, lam, z):
    """Jump terms by the lattice DP over the whole hull of lattice points
    between the extreme loading sums, unreachable points included: the
    oracle the evaluator's pass over the reachable points must match bit
    for bit, since an unreachable point only ever adds a zero."""
    paths = z.shape[0]
    if paths == 1:
        return hull_jump_pass(ev, lam, np.repeat(z, 2, axis=0))[:1]
    out = np.zeros((paths, ev.n_rates))
    live = np.flatnonzero(lam)[::-1]
    if live.size == 0:
        return out
    step = loading_lattice(ev.setup.vols)[0]
    units = [round(lam[col] * LOADING_QUANTA) // step for col in live]
    absorbed = units[:-1]
    origin = -sum(a for a in absorbed if a < 0)
    p = np.zeros((origin + sum(a for a in absorbed if a > 0) + 1, paths))
    p[origin] = 1.0
    norm = np.ones(paths)
    first = last = origin
    with np.errstate(over="ignore", invalid="ignore"):
        odds = np.exp(z[:, live].T) * ev.accruals[live, None]
        for r, (col, a) in enumerate(zip(live, units)):
            x = (np.arange(first - origin, last - origin + 1) * step
                 / LOADING_QUANTA)
            g = (nig_jump_cumulant(lam[col] + x, ev.setup.nig)
                 - nig_jump_cumulant(x, ev.setup.nig))
            out[:, col] = np.einsum("jp,j->p", p[first:last + 1], g) / norm
            if r == len(absorbed):
                break
            p[first + a:last + a + 1] += p[first:last + 1] * odds[r]
            norm *= 1.0 + odds[r]
            if a > 0:
                last += a
            else:
                first += a
    return out


class HullEvaluator(DriftEvaluator):
    """The evaluator with its jump pass replaced by :func:`hull_jump_pass`."""

    _jump_pass = hull_jump_pass


def oracle_setups():
    return ([("bundled", bundled_setup())]
            + [(f"regular{k}", regular_setup(v))
               for k, v in enumerate(REGULAR_LOADINGS)]
            + [("forty", regular_setup(FORTY_LOADINGS, name="forty"))])


class TestReachableSupport:
    """The evaluator's pass runs on the reachable loading sums only; it
    must reproduce the whole-hull pass bit for bit."""

    @pytest.fixture(scope="class", params=oracle_setups(),
                    ids=lambda named: named[0])
    def pair(self, request):
        setup = request.param[1]
        grid = build_grid(setup.tenor, 1)
        return DriftEvaluator(setup, grid), HullEvaluator(setup, grid)

    @staticmethod
    def states(setup, paths):
        # the first rows each put one rate at an extreme state: overflow of
        # the odds (+inf, 800), a collapsed rate (-inf) and nan
        n = setup.n_rates
        z = setup.log_initial_rates + np.random.default_rng(8).normal(
            0.0, 0.8, size=(paths, n))
        extremes = (np.inf, 800.0, -np.inf, np.nan)
        for row in range(min(paths, 2 * len(extremes))):
            z[row, (3 * row + 1) % n] = extremes[row % len(extremes)]
        return z

    @pytest.mark.parametrize("paths", [1, 2, 3, 257])
    def test_matches_hull_pass_bitwise(self, pair, paths):
        ev, hull = pair
        whole = self.states(ev.setup, max(paths, 8))
        # small batches slide over the rows, so each extreme state also
        # runs in a batch of its own
        batches = ([whole[j:j + paths] for j in range(8)] if paths < 8
                   else [whole])
        times = ev.mids[::2]
        for z in batches:
            for s in times:
                assert np.array_equal(ev.jump_terms(s, z),
                                      hull.jump_terms(s, z), equal_nan=True)
            for k in range(len(ev.dt)):
                assert np.array_equal(ev.step_drift(k, z),
                                      hull.step_drift(k, z), equal_nan=True)

    def test_supports_are_the_reachable_sums(self, pair):
        # every point set a plan reduces on is the set of sums of subsets
        # of the loadings absorbed before it, in lattice steps, enumerated
        # point by point
        ev, _ = pair
        step = loading_lattice(ev.setup.vols)[0]
        for lam in ev.step_vols:
            live = np.flatnonzero(lam)[::-1]
            if live.size == 0:
                continue
            plan = ev._plan(tuple(lam[live].tolist()))
            assert len(plan) == live.size
            sums = {0}
            for (points, _, _), col in zip(plan, live):
                assert points == tuple(sorted(sums))
                a = round(lam[col] * LOADING_QUANTA) // step
                sums |= {x + a for x in sums}


def _row(points, x):
    return points.index(x) if x in points else None


def _next_row(j, n):
    return None if j is None else j + n


class TestAbsorb:
    @settings(max_examples=300, derandomize=True, database=None,
              deadline=None)
    @given(st.lists(st.integers(-40, 40), min_size=1, unique=True),
           st.integers(-30, 30).filter(bool))
    def test_segments_are_maximal_runs_of_source_rows(self, xs, a):
        support = tuple(sorted(xs))
        points, segments = _absorb(support, a)
        assert points == tuple(sorted(set(support) | {x + a for x in support}))
        dst = 0
        for first, n, keep, shift in segments:
            # the segments tile the rows of the new law in order
            assert first == dst and n >= 1
            for k, x in enumerate(points[dst:dst + n]):
                assert _next_row(keep, k) == _row(support, x)
                assert _next_row(shift, k) == _row(support, x - a)
            dst += n
        assert dst == len(points)
        for (_, n, keep, shift), (_, _, keep1, shift1) in zip(
                segments, segments[1:]):
            assert (keep1, shift1) != (_next_row(keep, n),
                                       _next_row(shift, n))


class TestLatticeDp:
    @pytest.mark.parametrize("loadings", REGULAR_LOADINGS)
    def test_matches_brute_force_enumeration(self, loadings):
        setup = regular_setup(loadings)
        n = setup.n_rates
        ev = DriftEvaluator(setup, build_grid(setup.tenor, 2))
        rng = np.random.default_rng(11)
        z = setup.log_initial_rates + rng.normal(0.0, 0.8, size=(4, n))
        for s in (0.1, 0.7, 2.3):
            dp = ev.jump_terms(s, z)
            for row, state in enumerate(z):
                brute = [brute_force_jump_term(setup, s, i, state)
                         for i in range(1, n + 1)]
                np.testing.assert_allclose(dp[row], brute, rtol=1e-12,
                                           atol=1e-17)

    def test_forty_rates_match_quadrature(self):
        setup = regular_setup(FORTY_LOADINGS, name="forty")
        ev = DriftEvaluator(setup, build_grid(setup.tenor, 1))
        rng = np.random.default_rng(5)
        z = setup.log_initial_rates + rng.normal(0.0, 0.5, size=40)
        for s, rates in ((0.3, (1, 2, 20, 39, 40)), (9.7, (20, 31))):
            rates = np.array(rates)
            dp = ev.jump_terms(s, z[None, :])[0, rates - 1]
            np.testing.assert_allclose(
                dp, drift_quadrature(s, rates, z, setup), rtol=1e-9)

    def test_off_lattice_setup_is_rejected(self, setup):
        raw = setup_to_dict(setup)
        raw["vols"][4] = 0.1234567
        off = setup_from_dict(raw)
        with pytest.raises(ValueError, match="not a multiple"):
            DriftEvaluator(off, build_grid(off.tenor, 1))

    def test_too_wide_lattice_is_rejected(self, setup):
        # every level is on the quantum, but their common step is 1e-6
        raw = setup_to_dict(setup)
        raw["vols"][4] = 0.160001
        wide = setup_from_dict(raw)
        with pytest.raises(ValueError, match="points"):
            DriftEvaluator(wide, build_grid(wide.tenor, 1))

    def test_threads_share_the_plan_memo(self, setup):
        # more threads than cores race to fill a fresh evaluator's plan
        # memo; every thread must see the single-threaded jump terms
        grid = build_grid(setup.tenor, 3)
        z = setup.log_initial_rates + np.random.default_rng(4).normal(
            0.0, 0.5, size=(3, 9))
        times = np.linspace(0.0, 4.5, 41)
        expected = DriftEvaluator(setup, grid)
        want = [expected.jump_terms(s, z) for s in times]
        shared = DriftEvaluator(setup, grid)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(lambda: [shared.jump_terms(s, z)
                                                for s in times])
                           for _ in range(8)]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(old)
        for got in results:
            assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_lone_path_matches_its_batch_row(self, setup, evaluator):
        rng = np.random.default_rng(2)
        z = setup.log_initial_rates + rng.normal(0.0, 0.5, size=(6, 9))
        batch = evaluator.step_drift(0, z)
        for row in range(6):
            assert np.array_equal(evaluator.step_drift(0, z[row:row + 1])[0],
                                  batch[row])
