"""Tests for the market-data layer: tenor, curve, vols, setup files."""

import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levylibor import (
    BUNDLED_SETUP,
    DiscountCurve,
    ExponentialMomentBound,
    MarketSetup,
    NigParams,
    SetupValidationReport,
    TenorStructure,
    VolatilityStructure,
    bundled_setup,
    load_setup,
    loading_lattice,
    setup_from_dict,
    setup_to_dict,
    validate_setup,
)

from helpers import flat_per_rate, regular_tenor


@pytest.fixture(scope="module")
def setup():
    return bundled_setup()


class TestTenorStructure:
    def test_regular_grid(self):
        tenor = regular_tenor(9, 0.5)
        assert tenor.n_rates == 9
        assert tenor.date(0) == 0.0
        assert tenor.date(tenor.n_rates + 1) == 5.0
        assert tenor.accrual(9) == 0.5

    def test_nonincreasing_dates_raise(self):
        with pytest.raises(ValueError):
            TenorStructure((0.0, 0.5, 0.5))


class TestDiscountCurveAndRates:
    def test_bundled_initial_rates_frozen(self, setup):
        # bootstrapped from the bundled curve; first and last pinned to
        # full float precision, all strictly positive
        assert setup.initial_rate(1) == 0.0386098288987653
        assert setup.initial_rate(9) == 0.05376479706708093
        assert np.all(setup.initial_rates > 0)
        assert setup.n_rates == 9

    def test_curve_round_trip(self, setup):
        # rates back to bond ratios: B(0,T_i)/B(0,T_(i+1)) reconstructed
        # from the bootstrapped rates to 1e-12 relative
        for i in range(1, 10):
            ratio = setup.curve.bond(i) / setup.curve.bond(i + 1)
            rebuilt = 1.0 + setup.tenor.accrual(i) * setup.initial_rate(i)
            assert rebuilt == pytest.approx(ratio, rel=1e-12)

    @staticmethod
    def _curve_order(setup, bonds):
        tenor = regular_tenor(len(bonds) - 1, 0.5)
        curved = MarketSetup(
            tenor=tenor, curve=DiscountCurve(bonds),
            vols=flat_per_rate(tenor, [0.1] * tenor.n_rates),
            nig=setup.nig, em=setup.em)
        return validate_setup(curved).item("curve_order")

    def test_increasing_curve_is_rejected(self, setup):
        item = self._curve_order(setup, (0.95, 0.96, 0.90))
        assert not item.passed
        assert item.detail == "B(0, T_1) = 0.95 <= B(0, T_2) = 0.96"

    def test_flat_curve_is_rejected(self, setup):
        # zero rates would need strictly decreasing bonds; a flat curve
        # has none
        item = self._curve_order(setup, (1.0, 1.0, 1.0, 1.0))
        assert not item.passed
        assert item.detail == "B(0, T_1) = 1.0 <= B(0, T_2) = 1.0"

    def test_bond_index_is_one_based(self, setup):
        with pytest.raises(IndexError):
            setup.curve.bond(0)


class TestVolatilityStructure:
    def test_point_query_conventions(self, setup):
        vols = setup.vols
        # constant-in-time loadings: any time before the fixing sees the
        # level, anything after it sees zero
        assert vols.loadings(0.0)[0] == 0.20
        assert vols.loadings(0.49)[0] == 0.20
        assert vols.loadings(0.5)[0] == 0.20  # closed at the fixing date
        assert vols.loadings(0.51)[0] == 0.0
        assert vols.loadings(1.0)[0] == 0.0
        assert vols.loadings(3.0)[8] == 0.12
        assert vols.loadings(4.4)[8] == 0.12
        assert vols.loadings(4.51)[8] == 0.0

    @staticmethod
    def _scalar_rule(vols, s, i):
        # the per-rate reading: zero before 0 and past the fixing T_i,
        # closed at T_i, else the level of the interval holding s
        dates = vols.tenor.dates
        if s < 0.0 or s > dates[i]:
            return 0.0
        j = max(k for k in range(len(dates)) if dates[k] <= s)
        return vols.levels[i - 1][min(j, i - 1)]

    def test_loadings_match_the_per_rate_reading(self, setup):
        tenor = regular_tenor(3, 0.5)
        stepped = VolatilityStructure(
            tenor, ((0.1,), (0.2, 0.3), (0.4, 0.5, 0.6)))
        for vols in (setup.vols, stepped):
            dates = vols.tenor.dates
            mids = [0.5 * (a + b) for a, b in zip(dates, dates[1:])]
            n = vols.tenor.n_rates
            for s in [*dates, *mids, -0.25, -1e-12, dates[n] + 1e-9, 99.0]:
                got = vols.loadings(s)
                expected = [self._scalar_rule(vols, s, i)
                            for i in range(1, n + 1)]
                assert got.shape == (n,)
                assert got.tolist() == expected
        assert stepped.loadings(0.5).tolist() == [0.1, 0.3, 0.5]
        assert stepped.loadings(1.5).tolist() == [0.0, 0.0, 0.6]

    def test_per_rate_sup(self, setup):
        sups = setup.vols.per_rate_sup
        assert sups[0] == 0.20 and sups[-1] == 0.12
        assert len(sups) == 9

    def test_flat_per_rate_length_check(self):
        tenor = regular_tenor(3, 0.5)
        with pytest.raises(ValueError, match="need one loading per rate"):
            flat_per_rate(tenor, [0.2, 0.1])


class TestSetupSerialization:
    def test_bundled_name(self, setup):
        assert BUNDLED_SETUP == "paper_feb2002"
        assert setup.name == BUNDLED_SETUP

    def test_dict_round_trip(self, setup):
        raw = setup_to_dict(setup)
        again = setup_from_dict(raw, name=setup.name)
        assert np.array_equal(again.initial_rates, setup.initial_rates)
        assert again.tenor == setup.tenor
        assert again.nig == setup.nig
        assert again.em == setup.em

    def test_load_setup_from_file(self, setup, tmp_path):
        path = tmp_path / "copy.json"
        path.write_text(json.dumps(setup_to_dict(setup)))
        again = load_setup(str(path))
        assert np.array_equal(again.initial_rates, setup.initial_rates)

    def test_missing_key_raises(self, setup):
        raw = setup_to_dict(setup)
        del raw["bond_prices"]
        with pytest.raises(ValueError, match="'bond_prices'"):
            setup_from_dict(raw)

    @pytest.mark.parametrize("key, value", [
        ("nig", None), ("tenor_dates", "0, 0.5"), ("vols", [0.1, "x"]),
        ("bond_prices", [0.9, math.nan]), ("em", {"M": math.inf})])
    def test_bad_value_names_its_key(self, setup, key, value):
        raw = setup_to_dict(setup)
        raw[key] = value
        with pytest.raises(ValueError, match=key):
            setup_from_dict(raw)


BUNDLED_RAW = setup_to_dict(bundled_setup())
JUNK = (None, "x", True, [], {}, [None], {"x": 1.0}, ["0.5"])
NON_FINITE = (math.nan, math.inf, -math.inf)
# Finite but out of any sensible range: zero bonds, negative loadings, ...
EXTREME = (0.0, -1.0, 1e300)


def _locations(node, path=()):
    """Every (path, value) below ``node``; paths are key/index tuples."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,), value
        yield from _locations(value, path + (key,))


def _parent(raw, path):
    for key in path[:-1]:
        raw = raw[key]
    return raw


@st.composite
def mangled_setups(draw):
    """The bundled setup dict with one to three of: a dropped key, a value
    of the wrong type, a list of the wrong length, a non-finite or extreme
    number."""
    raw = copy.deepcopy(BUNDLED_RAW)
    for _ in range(draw(st.integers(1, 3))):
        spots = list(_locations(raw))
        kind = draw(st.sampled_from(["drop", "type", "length", "number"]))
        if kind == "drop":
            spots = [(p, v) for p, v in spots
                     if isinstance(_parent(raw, p), dict)]
        elif kind == "length":
            spots = [(p, v) for p, v in spots if isinstance(v, list)]
        elif kind == "number":
            spots = [(p, v) for p, v in spots if isinstance(v, float)]
        if not spots:
            continue
        path, value = draw(st.sampled_from(spots))
        parent = _parent(raw, path)
        if kind == "drop":
            del parent[path[-1]]
        elif kind == "type":
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(JUNK)))
        elif kind == "length":
            size = draw(st.integers(0, len(value) + 2))
            pad = value[-1] if value else 0.5
            parent[path[-1]] = (value + [pad, pad])[:size]
        else:
            parent[path[-1]] = draw(st.sampled_from(NON_FINITE + EXTREME))
    return raw


class TestMalformedSetups:
    @settings(max_examples=300, derandomize=True, database=None,
              deadline=None)
    @given(mangled_setups())
    def test_report_or_value_error(self, raw):
        try:
            setup = setup_from_dict(raw)
        except ValueError:
            return
        assert isinstance(validate_setup(setup), SetupValidationReport)

    @pytest.mark.parametrize("raw", JUNK)
    def test_junk_setup_is_a_value_error(self, raw):
        with pytest.raises(ValueError):
            setup_from_dict(raw)


class TestValidation:
    def test_bundled_setup_passes(self, setup):
        report = validate_setup(setup)
        assert report.passed
        names = [item.name for item in report.items]
        assert names == ["curve_order", "initial_rates_positive",
                         "volatility_sum", "moment_domain",
                         "loading_lattice", "driver_driftless"]
        assert report.item("loading_lattice").detail == (
            "loadings on a 0.01 lattice of 145 points (at most 2048)")
        assert all("[ok]" in line for line in report.lines())

    def _raw(self, setup):
        return setup_to_dict(setup)

    def test_raise_on_failure_names_the_failed_details(self, setup):
        validate_setup(setup).raise_on_failure()
        raw = self._raw(setup)
        raw["nig"]["mu"] = 0.02
        raw["em"]["M"] = 0.5
        report = validate_setup(setup_from_dict(raw))
        failed = [item.detail for item in report.items if not item.passed]
        assert len(failed) == 2
        with pytest.raises(ValueError) as err:
            report.raise_on_failure()
        assert str(err.value) == "; ".join(failed)

    def test_bad_curve_reported_not_raised(self, setup):
        raw = self._raw(setup)
        raw["bond_prices"][3] = raw["bond_prices"][2] * 1.01
        report = validate_setup(setup_from_dict(raw))
        assert not report.passed
        assert not report.item("curve_order").passed

    def test_nan_bond_reported_not_raised(self, setup):
        bonds = list(setup.curve.bonds)
        bonds[3] = math.nan
        nan_curve = MarketSetup(tenor=setup.tenor, curve=DiscountCurve(
            tuple(bonds)), vols=setup.vols, nig=setup.nig,
            em=setup.em)
        item = validate_setup(nan_curve).item("curve_order")
        assert not item.passed
        assert "T_4" in item.detail

    def test_vol_sum_violation(self, setup):
        raw = self._raw(setup)
        raw["vols"] = [0.5] * 9  # sums to 4.5 > M
        report = validate_setup(setup_from_dict(raw))
        assert not report.item("volatility_sum").passed

    def test_moment_domain_violation(self, setup):
        raw = self._raw(setup)
        raw["em"] = {"M": 1.45, "epsilon": 0.05}  # 1.05 * 1.45 > 1.5
        report = validate_setup(setup_from_dict(raw))
        assert not report.item("moment_domain").passed
        assert report.item("volatility_sum").passed

    @pytest.mark.parametrize("loadings, bound, slack, sum_ok, domain_ok", [
        pytest.param((0.2, 0.19, 0.12), 0.6, 0.05, True, True,
                     id="passes_with_slack"),
        # slack zero and (1+0)*M equal to the domain half-width still passes
        pytest.param((1.5,), 1.5, 0.0, True, True, id="boundary_is_closed"),
        pytest.param((0.0,) * 9, 1.45, 0.03, True, True,
                     id="zero_volatilities_always_pass"),
        pytest.param((1.0, 0.6), 1.45, 0.03, False, True,
                     id="sum_violation_fails"),
        pytest.param((0.5,), 1.49, 0.02, True, False,
                     id="domain_violation_fails"),
    ])
    def test_exponential_moment_items(self, loadings, bound, slack, sum_ok,
                                      domain_ok):
        # alpha - |beta| = 1.5 is the half-width of the moment domain
        tenor = regular_tenor(len(loadings))
        curve = DiscountCurve(tuple(0.98**k
                                    for k in range(1, len(loadings) + 2)))
        report = validate_setup(MarketSetup(
            tenor=tenor, curve=curve, vols=flat_per_rate(tenor, loadings),
            nig=NigParams(alpha=1.5, beta=0.0, delta=1.5, mu=0.0),
            em=ExponentialMomentBound(bound, slack)))
        vol_sum = report.item("volatility_sum")
        assert vol_sum.passed is sum_ok
        assert vol_sum.detail.startswith(
            f"summed loadings {sum(loadings):.6g} vs")
        assert report.item("moment_domain").passed is domain_ok

    def test_off_lattice_loading_reported_not_raised(self, setup):
        raw = self._raw(setup)
        raw["vols"][4] = 0.1234567
        report = validate_setup(setup_from_dict(raw))
        item = report.item("loading_lattice")
        assert not item.passed
        assert "0.1234567 of rate 5" in item.detail
        assert report.item("volatility_sum").passed

    def test_negative_loadings_widen_the_lattice(self, setup):
        raw = self._raw(setup)
        raw["vols"][0] = -0.2
        _, points = loading_lattice(setup_from_dict(raw).vols)
        assert points == loading_lattice(setup.vols)[1] == 145

    @pytest.mark.parametrize("levels, expected", [
        ([0.2, 0.13], (10_000, 34)),
        ([0.125, -0.005], (5_000, 27)),
        ([0.0, 0.0], (1, 1)),
    ])
    def test_lattice_step_is_the_common_step(self, levels, expected):
        tenor = regular_tenor(len(levels))
        vols = flat_per_rate(tenor, levels)
        assert loading_lattice(vols) == expected

    def test_drifting_driver_flagged(self, setup):
        raw = self._raw(setup)
        raw["nig"]["mu"] = 0.02
        report = validate_setup(setup_from_dict(raw))
        assert not report.item("driver_driftless").passed


class TestStructuralChecks:
    def test_mismatched_bond_count_raises(self, setup):
        tenor = regular_tenor(9, 0.5)
        with pytest.raises(ValueError):
            MarketSetup(tenor=tenor,
                        curve=DiscountCurve(setup.curve.bonds[:-1]),
                        vols=setup.vols, nig=setup.nig, em=setup.em)

    @pytest.mark.parametrize("i", [0, 10, -1])
    def test_initial_rate_index_is_checked(self, setup, i):
        with pytest.raises(IndexError):
            setup.initial_rate(i)

    def test_initial_rates_read_only(self, setup):
        with pytest.raises(ValueError):
            setup.initial_rates[0] = 1.0
