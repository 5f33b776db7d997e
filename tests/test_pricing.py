"""Tests for payoffs, Black-76 quoting, the quadrature oracle, and the
Monte Carlo estimators."""

import csv
import dataclasses
import io
import math

import numpy as np
import pytest
from scipy.stats import norm

import levylibor.pricing as pricing
from levylibor import (
    CapletSpec,
    ImpliedVolError,
    Scheme,
    SimulationEngine,
    SwaptionSpec,
    black76_implied_vol,
    black76_implied_vols,
    black76_price,
    build_grid,
    bundled_setup,
    caplet_price_last_rate,
    chain_products,
    compare_schemes,
    forward_swap_rate,
    price_instruments_mc,
    setup_from_dict,
    setup_to_dict,
    zero_strike_caplet_value,
)


def _oracle_price(forward, strike, vol, expiry, discount=1.0, accrual=1.0):
    # scalar Black-76 on scipy.stats.norm.cdf, as the package had it
    scale = discount * accrual
    if strike <= 0.0:
        return scale * forward
    stddev = vol * np.sqrt(expiry)
    if stddev <= 0.0:
        return scale * max(forward - strike, 0.0)
    d1 = (np.log(forward / strike) + 0.5 * stddev * stddev) / stddev
    d2 = d1 - stddev
    return scale * (forward * norm.cdf(d1) - strike * norm.cdf(d2))


def _oracle_vol(price, forward, strike, expiry, discount=1.0, accrual=1.0,
                lo=1e-4, hi=5.0, tol=1e-10):
    """The scalar bisection the array inversion replaced: same bracket,
    tolerance and stopping rule, one cell at a time."""
    if strike <= 0.0:
        raise ImpliedVolError("implied volatility undefined for zero strike",
                              price, 0.0, "strike")
    floor = _oracle_price(forward, strike, lo, expiry, discount, accrual)
    cap = _oracle_price(forward, strike, hi, expiry, discount, accrual)
    if price < floor:
        raise ImpliedVolError(
            f"price {price:.8g} below the bracket floor {floor:.8g} "
            f"(vol {lo:g}); at or under intrinsic value", price, floor, "lower")
    if price > cap:
        raise ImpliedVolError(
            f"price {price:.8g} above the bracket cap {cap:.8g} "
            f"(vol {hi:g})", price, cap, "upper")
    a, b = lo, hi
    for _ in range(200):
        mid = 0.5 * (a + b)
        diff = _oracle_price(forward, strike, mid, expiry, discount,
                             accrual) - price
        if diff == 0.0:
            return mid
        if diff > 0.0:
            b = mid
        else:
            a = mid
        if b - a <= tol:
            break
    return 0.5 * (a + b)


def _oracle_outcome(*args):
    try:
        return _oracle_vol(*args)
    except ImpliedVolError as err:
        return err.side, str(err)


def _outcome(vols, failures, j):
    if j in failures:
        return failures[j].side, str(failures[j])
    return vols[j]


@pytest.fixture(scope="module")
def setup():
    return bundled_setup()


@pytest.fixture(scope="module")
def small_table(setup):
    return compare_schemes(setup, n_paths=400, seed=23, substeps=2,
                           moneyness=(0.9, 1.0, 1.1))


class TestSpecs:
    def test_caplet_spec_validation(self):
        with pytest.raises(ValueError):
            CapletSpec(0, 0.05)
        with pytest.raises(ValueError):
            CapletSpec(3, -0.01)
        with pytest.raises(ValueError):
            CapletSpec(3, math.nan)
        with pytest.raises(ValueError):
            CapletSpec(3, math.inf)
        CapletSpec(3, 0.0)  # zero strike is a legitimate boundary contract

    def test_swaption_spec_validation(self):
        with pytest.raises(ValueError):
            SwaptionSpec(3, 3, 0.05)
        with pytest.raises(ValueError):
            SwaptionSpec(0, 2, 0.05)
        with pytest.raises(ValueError):
            SwaptionSpec(2, 4, math.nan)
        with pytest.raises(ValueError):
            SwaptionSpec(2, 4, math.inf)
        SwaptionSpec(2, 4, 0.05)

    @pytest.mark.parametrize("spec", [CapletSpec(10, 0.05),
                                      SwaptionSpec(9, 11, 0.05)])
    def test_instrument_off_the_tenor_is_rejected(self, setup, spec):
        # each spec checks its own dates, wherever it sits in the list
        with pytest.raises(ValueError, match="1 <= expiry|outside 1..9"):
            price_instruments_mc(setup, [CapletSpec(2, 0.04), spec],
                                 [Scheme.FULL_SDE], 10, 1)


class TestBlack76:
    def test_frozen_atm_value(self):
        assert black76_price(0.04, 0.04, 0.2, 1.0) == \
            pytest.approx(0.003186226982162317, rel=1e-14)

    def test_boundaries(self):
        assert black76_price(0.04, 0.0, 0.2, 1.0, 0.9, 0.5) == \
            0.9 * 0.5 * 0.04
        assert black76_price(0.05, 0.04, 0.0, 1.0) == pytest.approx(0.01)

    def test_round_trip_spec_example(self):
        price = black76_price(0.04, 0.04, 0.2, 1.0)
        assert black76_implied_vol(price, 0.04, 0.04, 1.0) == \
            pytest.approx(0.2, abs=1e-8)

    def test_round_trip_across_surface(self):
        for ratio in (0.7, 1.0, 1.3):
            for vol in (0.1, 0.4):
                for expiry in (0.5, 4.5):
                    price = black76_price(0.05, 0.05 * ratio, vol, expiry,
                                          0.85, 0.5)
                    back = black76_implied_vol(price, 0.05, 0.05 * ratio,
                                               expiry, 0.85, 0.5)
                    assert back == pytest.approx(vol, abs=1e-8)

    def test_atm_closed_form(self):
        # at the money d1 = -d2, so the value collapses to an erf of the
        # total standard deviation
        forward, vol, expiry = 0.048, 0.23, 2.5
        scale = 0.87 * 0.5
        expected = scale * forward * math.erf(
            vol * math.sqrt(expiry) / (2.0 * math.sqrt(2.0)))
        assert black76_price(forward, forward, vol, expiry, 0.87, 0.5) == \
            pytest.approx(expected, rel=1e-14)

    def test_implied_vol_monotone_in_price(self):
        vols = [black76_implied_vol(p, 0.05, 0.045, 2.0, 0.9, 0.5)
                for p in (0.003, 0.006, 0.012)]
        assert vols[0] < vols[1] < vols[2]

    def test_below_intrinsic_raises_lower(self):
        with pytest.raises(ImpliedVolError) as err:
            black76_implied_vol(0.0, 0.05, 0.04, 1.0)
        assert err.value.side == "lower"

    def test_above_cap_raises_upper(self):
        with pytest.raises(ImpliedVolError) as err:
            black76_implied_vol(0.2, 0.05, 0.04, 1.0)
        assert err.value.side == "upper"

    def test_zero_strike_has_no_vol(self):
        with pytest.raises(ImpliedVolError):
            black76_implied_vol(0.01, 0.05, 0.0, 1.0)

    def test_array_price_matches_scalar_oracle_bitwise(self):
        forward = np.array([0.05, 0.05, 0.04, 0.05, 0.05])
        strike = np.array([0.035, 0.065, 0.0, 0.05, 0.04])
        vol = np.array([0.2, 0.35, 0.2, 1e-4, 0.0])
        expiry = np.array([0.5, 4.5, 1.0, 2.0, 1.0])
        prices = black76_price(forward, strike, vol, expiry, 0.9, 0.5)
        assert prices.tolist() == [
            _oracle_price(*args, 0.9, 0.5)
            for args in zip(forward.tolist(), strike.tolist(), vol.tolist(),
                            expiry.tolist())]

    def test_array_inversion_matches_scalar_oracle_bitwise(self):
        # ordinary cells mixed with every failure side in one call
        cells = []
        for ratio in (0.7, 1.0, 1.3):
            for vol in (0.1, 0.4):
                for expiry in (0.5, 4.5):
                    strike = 0.05 * ratio
                    cells.append((black76_price(0.05, strike, vol, expiry,
                                                0.85, 0.5),
                                  0.05, strike, expiry, 0.85, 0.5))
        cells += [
            (0.0, 0.05, 0.04, 1.0, 1.0, 1.0),       # under intrinsic
            (0.2, 0.05, 0.04, 1.0, 1.0, 1.0),       # above the cap
            (0.01, 0.05, 0.0, 1.0, 1.0, 1.0),       # zero strike
            (0.003, 0.05, 0.045, 2.0, 0.9, 0.5),    # ordinary, off-grid
        ]
        non_finite = [
            (math.nan, 0.05, 0.045, 2.0, 0.9, 0.5),
            (0.003, math.nan, 0.045, 2.0, 0.9, 0.5),
            (0.003, 0.05, math.nan, 2.0, 0.9, 0.5),
            (0.003, 0.05, 0.045, math.nan, 0.9, 0.5),
            (0.003, 0.05, 0.045, math.inf, 0.9, 0.5),
            (0.003, -0.05, 0.045, 2.0, 0.9, 0.5),   # nan bracket prices
        ]
        grid = cells + non_finite
        vols, failures = black76_implied_vols(*map(list, zip(*grid)))
        assert {failures[j].side for j in failures} == \
            {"lower", "upper", "strike", "nan"}
        for j, args in enumerate(cells):
            assert _outcome(vols, failures, j) == _oracle_outcome(*args)
            try:
                single = black76_implied_vol(*args)
            except ImpliedVolError as err:
                single = (err.side, str(err))
            assert single == _oracle_outcome(*args)
        for j in range(len(cells), len(grid)):
            assert failures[j].side == "nan"
            assert math.isnan(vols[j])

    @pytest.mark.parametrize("arg", range(4))
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_input_fails_with_side_nan(self, arg, bad):
        # price, forward, strike, expiry: each would otherwise bisect to
        # the top of the bracket and return a vol near 5
        args = [0.003, 0.05, 0.045, 2.0]
        args[arg] = bad
        with pytest.raises(ImpliedVolError) as err:
            black76_implied_vol(*args, 0.9, 0.5)
        assert err.value.side == "nan"


class TestQuadratureOracle:
    def test_zero_strike_reduces_to_bond_difference(self, setup):
        assert caplet_price_last_rate(setup, 0.0) == \
            pytest.approx(zero_strike_caplet_value(setup, 9), abs=1e-12)

    def test_frozen_atm_value(self, setup):
        atm = setup.initial_rate(9)
        assert caplet_price_last_rate(setup, atm) == \
            pytest.approx(0.002134278237354326, rel=1e-12)

    def test_decreasing_in_strike(self, setup):
        strikes = [0.0, 0.02, 0.04, 0.0538, 0.08]
        prices = [caplet_price_last_rate(setup, k) for k in strikes]
        assert all(a > b for a, b in zip(prices, prices[1:]))
        assert all(p > 0 for p in prices)


class TestForwardSwapRate:
    def test_single_period_equals_forward(self, setup):
        for i in (1, 5, 9):
            assert forward_swap_rate(setup, i, i + 1) == \
                pytest.approx(setup.initial_rate(i), rel=1e-12)

    def test_zero_strike_values(self, setup):
        assert zero_strike_caplet_value(setup, 9) == \
            setup.curve.bond(9) - setup.curve.bond(10)


def _price_caplet(setup, spec, scheme, n_paths, seed, substeps=4):
    # one caplet under one scheme
    res = price_instruments_mc(setup, [spec], [scheme], n_paths, seed,
                               substeps)
    return res[scheme][0]


class TestMonteCarloEstimators:
    def test_zero_strike_caplet_matches_forward(self, setup):
        est = _price_caplet(setup, CapletSpec(5, 0.0), Scheme.FULL_SDE,
                            n_paths=20_000, seed=7)
        target = zero_strike_caplet_value(setup, 5)
        assert abs(est.price - target) <= 3.0 * est.std_error
        assert est.n_invalid == 0
        assert est.n_paths == 20_000

    def test_estimates_are_deterministic(self, setup):
        a = _price_caplet(setup, CapletSpec(3, 0.045), Scheme.FROZEN_DRIFT,
                          n_paths=2000, seed=11)
        b = _price_caplet(setup, CapletSpec(3, 0.045), Scheme.FROZEN_DRIFT,
                          n_paths=2000, seed=11)
        assert (a.price, a.std_error) == (b.price, b.std_error)

    def test_single_period_swaption_equals_caplet(self, setup):
        strike = setup.initial_rate(6)
        res = price_instruments_mc(setup, [CapletSpec(6, strike),
                                           SwaptionSpec(6, 7, strike)],
                                   [Scheme.FULL_SDE], n_paths=3000, seed=13,
                                   substeps=2)
        cap, swp = res[Scheme.FULL_SDE]
        assert swp.price == pytest.approx(cap.price, rel=1e-12)
        assert swp.std_error == pytest.approx(cap.std_error, rel=1e-10)

    def test_shared_increments_across_instruments(self, setup):
        # one run over an interleaved list of caplets and swaptions equals
        # a separate run per instrument at the same seed, bit for bit:
        # estimates depend only on (seed, path index), in input order
        specs = [SwaptionSpec(4, 8, 0.05), CapletSpec(2, 0.04),
                 SwaptionSpec(2, 5, 0.045), CapletSpec(7, 0.05),
                 CapletSpec(9, 0.0)]
        schemes = [Scheme.FULL_SDE, Scheme.STRONG_TAYLOR]
        mixed = price_instruments_mc(setup, specs, schemes, 2000, 17, 2)
        for j, spec in enumerate(specs):
            alone = price_instruments_mc(setup, [spec], schemes, 2000, 17, 2)
            for scheme in schemes:
                assert mixed[scheme][j] == alone[scheme][0]

    def test_taylor_alone_equals_its_share_of_every_scheme(self, setup):
        # taylor alone still advances the frozen state its drift reads, so
        # its estimates are bitwise those of a run of all three schemes
        specs = [CapletSpec(3, 0.045), SwaptionSpec(2, 5, 0.045)]
        taylor = Scheme.STRONG_TAYLOR
        every = price_instruments_mc(setup, specs, list(Scheme), 2000, 17, 2)
        alone = price_instruments_mc(setup, specs, [taylor], 2000, 17, 2)
        assert alone[taylor] == every[taylor]

    def test_repeated_scheme_is_rejected(self, setup):
        # two entries for one scheme would pool their paths into one
        # estimator: twice the path count and a sqrt(2) too small error
        with pytest.raises(ValueError, match="more than once"):
            price_instruments_mc(setup, [CapletSpec(9, 0.05)],
                                 [Scheme.FULL_SDE, Scheme.FULL_SDE], 100, 1)
        with pytest.raises(ValueError, match="more than once"):
            compare_schemes(setup, n_paths=10, seed=1,
                            schemes=(Scheme.FULL_SDE, Scheme.FROZEN_DRIFT,
                                     Scheme.FULL_SDE))

    def test_single_path_reports_infinite_error(self, setup):
        est = _price_caplet(setup, CapletSpec(5, 0.0), Scheme.FULL_SDE,
                            n_paths=1, seed=3, substeps=2)
        assert math.isfinite(est.price)
        assert est.std_error == math.inf
        assert est.n_paths == 1

    def test_zero_volatility_market_prices_exactly(self, setup):
        # lambda = 0 pins every rate at its initial value, so a zero-strike
        # caplet is priced without noise and matches the bond difference
        raw = setup_to_dict(setup)
        raw["vols"] = [0.0] * 9
        quiet = setup_from_dict(raw)
        est = _price_caplet(quiet, CapletSpec(8, 0.0), Scheme.FULL_SDE,
                            n_paths=64, seed=3, substeps=2)
        assert est.price == pytest.approx(zero_strike_caplet_value(quiet, 8),
                                          rel=1e-12)
        # identical payoffs: anything left is one-pass accumulator rounding
        assert est.std_error < 1e-8 * est.price

    def test_zero_rate_swaption_is_worthless(self, setup):
        # all rates at zero: the floating leg pays nothing, so a payer
        # swaption has no value at any positive strike; nan below the
        # diagonal makes a payoff that reads a fixed rate's row come out nan
        fix = np.zeros((1, 9, 9))
        fix[0][np.tril_indices(9, k=-1)] = np.nan
        payoff = SwaptionSpec(2, 5, 0.05).payoffs(chain_products(fix, setup),
                                                  fix, setup)
        assert payoff.tolist() == [0.0]


class TestMcSums:
    def test_matches_numpy_on_the_valid_paths(self):
        # two batches, each with non-finite payoffs on its invalid paths
        rng = np.random.default_rng(3)
        batches = []
        for bad in ([1, 4], [0, 2, 6]):
            payoffs = rng.lognormal(size=(2, 9))
            valid = np.ones(9, dtype=bool)
            valid[bad] = False
            payoffs[0, bad] = [np.inf, -np.inf, np.nan][:len(bad)]
            payoffs[1, bad] = np.nan
            batches.append((payoffs, valid))
        sums = pricing.McSums(2)
        for payoffs, valid in batches:
            sums.add(list(payoffs), valid)
        estimates = sums.estimates(5, Scheme.FROZEN_DRIFT)
        kept = np.concatenate([p[:, v] for p, v in batches], axis=1)
        for j, est in enumerate(estimates):
            assert est.price == pytest.approx(kept[j].mean(), rel=1e-12)
            assert est.std_error == pytest.approx(
                kept[j].std(ddof=1) / np.sqrt(13), rel=1e-12)
            assert (est.n_paths, est.n_invalid) == (13, 5)
            assert (est.seed, est.scheme) == (5, Scheme.FROZEN_DRIFT)

    @pytest.mark.parametrize("n_valid", [0, 1])
    def test_too_few_valid_paths(self, n_valid):
        sums = pricing.McSums(1)
        valid = np.arange(3) < n_valid
        sums.add([np.array([0.5, np.inf, np.nan])], valid)
        (est,) = sums.estimates(1, Scheme.FULL_SDE)
        assert est.std_error == math.inf
        assert (est.n_paths, est.n_invalid) == (n_valid, 3 - n_valid)
        if n_valid:
            assert est.price == 0.5
        else:
            assert math.isnan(est.price)


class TestSchemePayoffs:
    def test_payoffs_in_order_with_the_valid_mask(self, setup):
        engine = SimulationEngine(setup, build_grid(setup.tenor, 2))
        dh = engine.path_increments(5, 0, 6)
        dh[4, 3] = np.inf
        specs = [SwaptionSpec(2, 5, 0.045), CapletSpec(3, 0.0)]
        with np.errstate(all="ignore"):
            log_fix = engine.log_states([Scheme.FULL_SDE], dh,
                                        engine.grid.tenor_indices[1:])
            payoffs, valid = pricing.scheme_payoffs(
                engine, specs, log_fix[Scheme.FULL_SDE])
        assert valid.tolist() == [True] * 4 + [False, True]
        assert [p.shape for p in payoffs] == [(6,), (6,)]
        # the zero-strike caplet pays accrual * L(T_3, T_3) * B(0, T_10)
        # times the chain product over rates 4..9 fixed at T_3
        fix = np.exp(log_fix[Scheme.FULL_SDE][valid, 2])
        chain = np.prod(1.0 + setup.tenor.accruals[4:] * fix[:, 3:], axis=1)
        expected = (setup.tenor.accrual(3) * setup.curve.bond(10)
                    * fix[:, 2] * chain)
        assert payoffs[1][valid] == pytest.approx(expected, rel=1e-12)


class TestChainProducts:
    @staticmethod
    def _loop(fixings, setup):
        # reference: one multiplication per k, from k = N down
        accruals = setup.tenor.accruals[1:]
        paths, n, _ = fixings.shape
        out = np.ones((paths, n, n + 2))
        for k in range(n, 0, -1):
            out[:, :, k] = out[:, :, k + 1] * (1.0 + accruals[k - 1]
                                               * fixings[:, :, k - 1])
        return out

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_matches_the_per_rate_loop_bitwise(self, setup, scheme):
        engine = SimulationEngine(setup, build_grid(setup.tenor, 4))
        dh = engine.path_increments(5, 0, 8)
        dh[3, 12] = np.inf
        with np.errstate(all="ignore"):
            log_fix = engine.log_states([scheme], dh,
                                        engine.grid.tenor_indices[1:])[scheme]
            fix = engine.fixings(log_fix)
            valid = engine.valid_mask(log_fix, fix)
            got = chain_products(fix, setup)
            expected = self._loop(fix, setup)
        assert valid.tolist() == [True] * 3 + [False] + [True] * 4
        assert not np.isfinite(got[3]).all()
        # bit patterns, so nan entries and signed zeros count too
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))


class TestCompareSchemes:
    def test_grid_shape(self, setup, small_table):
        caplets = small_table.caplet_cells()
        swaptions = small_table.swaption_cells()
        assert len(caplets) == 9 * 3
        assert len(swaptions) == 8 * 3
        assert all(len(c.estimates) == 3 for c in caplets)

    def test_common_random_numbers_tighten_scheme_gaps(self, small_table):
        # with shared increments the corrected scheme tracks the full one
        # orders of magnitude inside the Monte Carlo noise
        for cell in small_table.caplet_cells():
            full = cell.estimates[Scheme.FULL_SDE]
            tay = cell.estimates[Scheme.STRONG_TAYLOR]
            assert abs(tay.price - full.price) < 0.05 * full.std_error

    def test_last_maturity_cells_identical(self, small_table):
        for cell in small_table.caplet_cells():
            if cell.maturity_index == 9:
                prices = {e.price for e in cell.estimates.values()}
                assert len(prices) == 1

    def test_csv_deterministic_and_parseable(self, setup, small_table):
        buf_a, buf_b = io.StringIO(), io.StringIO()
        small_table.write_csv(buf_a)
        compare_schemes(setup, n_paths=400, seed=23, substeps=2,
                        moneyness=(0.9, 1.0, 1.1)).write_csv(buf_b)
        assert buf_a.getvalue() == buf_b.getvalue()
        header = buf_a.getvalue().splitlines()[0].split(",")
        assert header[:4] == ["instrument", "maturity_index", "strike",
                              "scheme"]

    def test_csv_counts_invalid_paths(self, setup):
        # overflowed paths are dropped from the estimators; the CSV says
        # how many, per scheme
        table = compare_schemes(setup, n_paths=40, seed=23, substeps=1,
                                moneyness=(1.0,))
        cell = table.cells[0]
        cell.estimates[Scheme.FROZEN_DRIFT] = dataclasses.replace(
            cell.estimates[Scheme.FROZEN_DRIFT], n_paths=37, n_invalid=3)
        buf = io.StringIO()
        table.write_csv(buf)
        rows = list(csv.DictReader(buf.getvalue().splitlines()))
        assert [(r["scheme"], r["n_paths"], r["n_invalid"])
                for r in rows[:3]] == [("full", "40", "0"),
                                       ("frozen", "37", "3"),
                                       ("taylor", "40", "0")]
        assert all(r["n_invalid"] == "0" for r in rows[3:])

    def test_requires_full_scheme(self, setup):
        with pytest.raises(ValueError):
            compare_schemes(setup, n_paths=10, seed=1,
                            schemes=(Scheme.FROZEN_DRIFT,))

    def test_implied_vols_match_scalar_oracle_bitwise(self, setup,
                                                      small_table):
        for cell in small_table.caplet_cells():
            i = cell.maturity_index
            for scheme in small_table.schemes:
                expected = _oracle_outcome(
                    cell.estimates[scheme].price, cell.forward, cell.strike,
                    cell.expiry, setup.curve.bond(i + 1),
                    setup.tenor.accrual(i))
                if scheme in cell.iv_failures:
                    err = cell.iv_failures[scheme]
                    assert (err.side, str(err)) == expected
                else:
                    assert cell.implied_vols[scheme] == expected

    def test_nan_estimate_is_a_recorded_failure(self, setup, monkeypatch):
        # a scheme whose paths are all invalid prices at nan; its cells
        # must fail with side "nan", not quote a vol near the bracket cap
        real = pricing.price_instruments_mc

        def all_frozen_paths_invalid(*args, **kwargs):
            out = real(*args, **kwargs)
            out[Scheme.FROZEN_DRIFT] = [dataclasses.replace(e, price=math.nan)
                                        for e in out[Scheme.FROZEN_DRIFT]]
            return out

        monkeypatch.setattr(pricing, "price_instruments_mc",
                            all_frozen_paths_invalid)
        table = compare_schemes(setup, n_paths=40, seed=23, substeps=1,
                                moneyness=(1.0,))
        for cell in table.caplet_cells():
            assert cell.iv_failures[Scheme.FROZEN_DRIFT].side == "nan"
            assert Scheme.FROZEN_DRIFT not in cell.implied_vols
            assert Scheme.FULL_SDE in cell.implied_vols
        buf = io.StringIO()
        table.write_csv(buf)
        rows = [r for r in csv.DictReader(buf.getvalue().splitlines())
                if r["instrument"] == "caplet" and r["scheme"] == "frozen"]
        assert rows and all(r["implied_vol"] == "" == r["iv_diff_vs_full"]
                            for r in rows)
        assert table.iv_failure_lines()[1] == \
            "implied-vol failures, frozen: 9 of 9 caplet cells (nan 9)"

    def test_iv_failure_recorded_not_raised(self, setup):
        # at 10 paths some deep cells price under intrinsic: the failure is
        # recorded per cell and the comparison still completes
        table = compare_schemes(setup, n_paths=10, seed=1,
                                moneyness=(0.7, 1.0))
        assert any(c.iv_failures for c in table.caplet_cells())
