"""Acceptance gate: every criterion at its stated tolerance and path count.

Criteria 1 and 2 share one 100,000-path full-scheme sample, and criteria
5-7 one million-path common-random-numbers comparison; each is built once
per test session at module scope.  Each test prints the criterion verdict
with its measurements and asserts the overall pass flag.
"""

import math
import re
import time

import numpy as np
import pytest

from levylibor import (CapletSpec, Scheme, SimulationEngine, acceptance,
                       build_grid, bundled_setup, price_instruments_mc,
                       setup_from_dict, setup_to_dict)

from helpers import REGULAR_LOADINGS, regular_setup


@pytest.fixture(scope="module")
def setup():
    return bundled_setup()


@pytest.fixture(scope="module")
def last_rate_sample(setup):
    start = time.perf_counter()
    sample = acceptance.build_last_rate_sample(setup)
    return sample, time.perf_counter() - start


@pytest.fixture(scope="module")
def comparison(setup):
    start = time.perf_counter()
    table = acceptance.build_comparison(setup)
    return table, time.perf_counter() - start


def report(result):
    for line in result.lines():
        print(line)
    assert result.passed, result.summary_line()


def test_last_rate_sample_matches_separate_pricing(setup):
    # one run pricing both caplets gives each bit for bit what a run
    # pricing it alone gives
    zero_strike, atm = acceptance.build_last_rate_sample(
        setup, acceptance.DEFAULT_SEED, 1000)
    alone = [
        price_instruments_mc(setup, [CapletSpec(9, strike)],
                             [Scheme.FULL_SDE], 1000, acceptance.DEFAULT_SEED,
                             acceptance.DEFAULT_SUBSTEPS)[Scheme.FULL_SDE][0]
        for strike in (0.0, setup.initial_rate(9))]
    assert [zero_strike, atm] == alone
    assert zero_strike.n_paths + zero_strike.n_invalid == 1000


def test_criteria_1_and_2_on_a_deterministic_last_rate():
    # a zero last loading makes the last rate deterministic: every ATM
    # caplet payoff is equal, its SE is 0, and the oracle prices the
    # discounted intrinsic value
    setup = regular_setup(REGULAR_LOADINGS[0][:-1] + [0.0])
    sample = acceptance.build_last_rate_sample(
        setup, acceptance.DEFAULT_SEED, 1000)
    assert sample[1].std_error == 0.0
    oracle = acceptance.criterion_last_rate_caplet_oracle(setup, sample)
    assert oracle.passed
    assert oracle.details[1] == "deviation +0 = +0.00 SE (SE 0)"
    report(acceptance.criterion_martingale_mean(setup, sample, 0.0))


def test_criterion_1_terminal_rate_martingale_mean(setup, last_rate_sample):
    sample, build_seconds = last_rate_sample
    report(acceptance.criterion_martingale_mean(setup, sample, build_seconds))


def test_criterion_2_last_rate_caplet_vs_quadrature(setup, last_rate_sample):
    sample, _ = last_rate_sample
    report(acceptance.criterion_last_rate_caplet_oracle(setup, sample))


def test_criterion_3_scheme_coincidence_bitwise(setup):
    report(acceptance.criterion_scheme_coincidence(setup))


def test_criterion_4_drift_route_agreement(setup):
    report(acceptance.criterion_drift_route_agreement(setup))


def test_criterion_4_reads_the_loadings_of_each_time(setup):
    # loadings that change from one accrual interval to the next: the DP
    # side, one pass per loading vector, must give each case its own
    raw = setup_to_dict(setup)
    raw["vols"] = [[round(lv[0] - 0.02 * (j % 2), 2) for j in range(len(lv))]
                   for lv in raw["vols"]]
    report(acceptance.criterion_drift_route_agreement(setup_from_dict(raw)))


def test_criterion_5_two_stage_implied_vol_accuracy(comparison):
    table, build_seconds = comparison
    report(acceptance.criterion_taylor_iv_accuracy(table, build_seconds))


def test_criterion_6_frozen_drift_deficiency_pattern(comparison):
    table, _ = comparison
    report(acceptance.criterion_frozen_iv_pattern(table))


def test_criterion_7_swaption_consistency_and_growth(comparison):
    table, _ = comparison
    report(acceptance.criterion_swaption_consistency(table))


def test_criterion_8_unit_property_suite(setup):
    report(acceptance.criterion_unit_property_suite(setup))


def test_criterion_8_price_checks_leave_out_invalid_paths(setup,
                                                         monkeypatch):
    # one poisoned path per grid is dropped from both grids' prices and
    # counted, where it once turned the gap and its bound into nan
    real = SimulationEngine.path_increments

    def poisoned(self, seed, first_index, count):
        out = real(self, seed, first_index, count)
        if first_index == 0:
            out[0, 0] = np.inf
        return out

    monkeypatch.setattr(SimulationEngine, "path_increments", poisoned)
    with np.errstate(all="ignore"):
        ok, msg = acceptance._check_grid_refinement(setup, 1, 3000, 4)
        zero_ok, zero_msg = acceptance._check_zero_strike_caplet(
            setup, 1, 3000, 4)
    gap, bound = map(float, re.search(
        r"\|price gap\| (\S+) vs 3 x MC SE (\S+);", msg).groups())
    assert ok and math.isfinite(gap) and math.isfinite(bound)
    assert msg.endswith("; invalid paths left out: 1 at 4x, 1 at 8x")
    assert zero_ok and zero_msg.endswith("; invalid paths left out: 1")


def test_criterion_8_swaption_identity_leaves_out_invalid_paths(setup):
    # a poisoned path's nan gaps once made every rate's maximum nan, which
    # the fold into the worst gap skipped: the check read 0 and passed
    engine = SimulationEngine(setup, build_grid(setup.tenor, 4))
    dh = engine.path_increments(1, 0, 512)
    dh[0, 0] = np.inf
    with np.errstate(all="ignore"):
        full = engine.log_states([Scheme.FULL_SDE], dh,
                                 range(engine.grid.n_steps + 1))
        ok, msg = acceptance._check_single_period_swaption(
            setup, engine, full[Scheme.FULL_SDE])
    worst = float(re.search(r"max \|payoff gap\| (\S+) ", msg).group(1))
    assert ok and 0.0 < worst <= 1e-13
    assert msg.endswith("; invalid paths left out: 1")
