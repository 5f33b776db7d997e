"""Acceptance gate: every criterion at its stated tolerance and path count.

Criteria 1 and 2 share one 100,000-path full-scheme sample, and criteria
5-7 one million-path common-random-numbers comparison; each is built once
per test session at module scope.  Each test prints the criterion verdict
with its measurements and asserts the overall pass flag.
"""

import time

import pytest

from levylibor import (CapletSpec, Scheme, acceptance, bundled_setup,
                       price_instruments_mc, setup_from_dict, setup_to_dict)


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
