"""Tests of the benchmark's own checks and arithmetic.

Run with ``python -m pytest perfbench``; the repository's test run (which
collects ``tests/`` only) does not include them.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from levylibor import cli  # noqa: E402
from levylibor.acceptance import DEFAULT_SEED  # noqa: E402
from levylibor.market import (bundled_setup, setup_from_dict,  # noqa: E402
                              validate_setup)
from levylibor.pricing import (DEFAULT_MONEYNESS, black76_price,  # noqa: E402
                               caplet_price_last_rate)

import bench  # noqa: E402
import host  # noqa: E402
import outputs  # noqa: E402
import spans  # noqa: E402
from workloads import synthetic_setup  # noqa: E402


@pytest.fixture(scope="module")
def compare_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("compare") / "comparison.csv"
    assert cli.main(["compare", "--paths", "2048", "--seed",
                     str(DEFAULT_SEED), "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.fixture(scope="module")
def oracle():
    setup = bundled_setup()
    forward = setup.initial_rate(setup.n_rates)
    return [caplet_price_last_rate(setup, m * forward)
            for m in DEFAULT_MONEYNESS]


def _last_rate_rows(rows, scheme):
    return outputs.caplet_rows(rows, bundled_setup().n_rates, scheme)


def test_untampered_compare_output_passes(compare_csv, oracle):
    rows = outputs.parse_rows(compare_csv)
    n = bundled_setup().n_rates
    assert outputs.check_oracle(rows, n, oracle) == []
    assert outputs.check_crn_identity(rows, n) == []
    assert outputs.invalid_paths(rows, 2048) == (0, 3 * 2048)
    assert outputs.iv_failures(rows)[1] == 3 * 63


def test_price_moved_ten_se_fails_oracle(compare_csv, oracle):
    rows = outputs.parse_rows(compare_csv)
    for row in _last_rate_rows(rows, "full"):
        if float(row["strike"]) == pytest.approx(
                bundled_setup().initial_rate(9), rel=1e-9):
            row["price"] = repr(float(row["price"])
                                + 10.0 * float(row["std_error"]))
    errors = outputs.check_oracle(rows, bundled_setup().n_rates, oracle)
    assert len(errors) == 1 and errors[0].startswith("full caplet 9")


def test_one_scheme_last_rate_cell_changed_fails_identity(compare_csv):
    rows = outputs.parse_rows(compare_csv)
    cell = _last_rate_rows(rows, "taylor")[0]
    cell["price"] = cell["price"][:-1] + ("1" if cell["price"][-1] != "1"
                                          else "2")
    errors = outputs.check_crn_identity(rows, bundled_setup().n_rates)
    assert errors == ["last-rate caplet cells differ between full and "
                      "taylor"]


def test_check_identical_flags_changed_bytes():
    a = {"comparison.csv": b"x,1\n", "iv_surface_frozen.dat": b"1 2\n"}
    assert outputs.check_identical([a, dict(a)]) == []
    b = dict(a, **{"comparison.csv": b"x,2\n"})
    assert outputs.check_identical([a, b]) == [
        "job 2 wrote a different comparison.csv"]
    assert len(outputs.check_identical([a, {"comparison.csv": b""}])) == 1


def test_invalid_paths_with_and_without_n_invalid_column():
    with_column = [{"scheme": "full", "n_paths": "990", "n_invalid": "10"},
                   {"scheme": "full", "n_paths": "990", "n_invalid": "10"}]
    assert outputs.invalid_paths(with_column, 1000) == (10, 1000)
    without = [{"scheme": "full", "n_paths": "1000"},
               {"scheme": "frozen", "n_paths": "997"}]
    assert outputs.invalid_paths(without, 1000) == (3, 2000)


def test_iv_failures_count_empty_caplet_vols():
    rows = [{"instrument": "caplet", "implied_vol": "0.2"},
            {"instrument": "caplet", "implied_vol": ""},
            {"instrument": "swaption_2_4", "implied_vol": ""}]
    assert outputs.iv_failures(rows) == (1, 2)


def test_criteria_failures_from_summary_line():
    assert outputs.criteria_failures(
        "x\nacceptance summary: 6/8 criteria passed\n") == (2, 8)
    assert outputs.criteria_failures("no summary") is None


def test_self_times_on_hand_built_tree():
    tree = [
        spans.Span("root", 0.0, 10.0),
        spans.Span("a", 1.0, 4.0, parent=0),
        spans.Span("b", 3.0, 6.0, parent=0),   # overlaps a
        spans.Span("a.child", 2.0, 3.0, parent=1),
        spans.Span("c", 8.0, 12.0, parent=0),  # runs past its parent
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 3.0, 1.0, 4.0])


def test_layer_metrics_on_hand_built_tree():
    tree = [
        spans.Span("cli.main", 0.0, 10.0),
        spans.Span("pricing.price_instruments_mc", 1.0, 9.0, parent=0),
        spans.Span("drift.step_drift", 2.0, 5.0, parent=1,
                   attrs={"path_rates": 1000}),
        spans.Span("simulate.evolve", 5.0, 6.0, parent=1,
                   attrs={"scheme": "frozen", "bytes": 64}),
    ]
    m = spans.layer_metrics(tree, n_jobs=2, job_total_s=11.0)
    assert m["cli.self_s"] == pytest.approx(1.0)
    assert m["pricing.payoff_s"] == pytest.approx(2.0)
    assert m["drift.step_drift_s"] == pytest.approx(1.5)
    assert m["drift.step_drift_ns_per_path_rate"] == pytest.approx(3e6)
    assert m["simulate.evolve_s.frozen"] == pytest.approx(0.5)
    assert m["simulate.traj_bytes"] == 32
    assert m["unaccounted_s"] == pytest.approx(0.5)


def test_tracer_parents_follow_nesting():
    tracer = spans.Tracer()
    outer = tracer.begin("outer")
    tracer.end(tracer.begin("inner"))
    tracer.end(outer)
    tracer.end(tracer.begin("after"))
    assert [s.parent for s in tracer.spans] == [None, 0, None]


def test_accuracy_metrics_are_zero_where_they_do_not_apply():
    checked = {"se_iv": None, "fractions": {
        "invalid_path_frac": (3, 300), "criteria_fail_frac": (1, 8)}}
    m = bench.accuracy_metrics(checked, setup_s=1.0, job_s=3.0)
    assert m == pytest.approx({"time_to_se_s": 0.0, "invalid_path_frac": 0.01,
                               "iv_fail_frac": 0.0,
                               "criteria_fail_frac": 0.125})
    assert [spans.unit(name) for name in m] == ["s"] + ["ratio"] * 3
    checked["se_iv"] = 2 * outputs.TARGET_SE_IV
    assert bench.accuracy_metrics(checked, 1.0, 3.0)["time_to_se_s"] == \
        pytest.approx(9.0)


def test_instrument_restores_the_program():
    original = (cli.main, cli.price_instruments_mc)
    tracer = spans.Tracer()
    undo, missing = spans.instrument(tracer)
    try:
        assert missing == []
        assert cli.main is not original[0]
    finally:
        undo()
    assert (cli.main, cli.price_instruments_mc) == original


def test_host_factor_rescales_to_reference_seconds(monkeypatch):
    ref = host.CAL_REF_S
    # Ten calibrations around a job, their median 1.5x the reference.
    assert host.factor([ref] * 5, [2 * ref] * 5) == pytest.approx(1.5)
    job = bench.Job(3.0, 0, "", {}, factor=1.5)
    assert job.ref_seconds == pytest.approx(2.0)
    # Each measured step takes the rounds right before and after it.
    timings = iter([9.0] * 5 + [ref] * 5 + [2 * ref] * 5 + [4 * ref] * 5)
    monkeypatch.setattr(host, "calibration", lambda: next(timings))
    clock = bench.HostClock()  # the first round is a warm-up
    assert clock.measure(lambda: "a") == ("a", pytest.approx(1.5))
    assert clock.measure(lambda: "b") == ("b", pytest.approx(3.0))


def test_black76_vega_matches_finite_difference():
    args = (0.05, 0.055, 0.2, 2.0, 0.9, 0.5)
    h = 1e-6
    bump = (black76_price(*args[:2], args[2] + h, *args[3:])
            - black76_price(*args[:2], args[2] - h, *args[3:])) / (2 * h)
    assert outputs.black76_vega(*args) == pytest.approx(bump, rel=1e-7)


def test_time_to_se_on_known_vega():
    # At the money, unit expiry, 20% vol: vega = F * phi(0.1).
    vega = outputs.black76_vega(0.05, 0.05, 0.2, 1.0, 1.0, 1.0)
    assert vega == pytest.approx(
        0.05 * math.exp(-0.005) / math.sqrt(2 * math.pi), rel=1e-12)
    se_iv = (0.002 * vega) / vega
    # Twice the target error needs four times the path time.
    assert outputs.time_to_se(1.0, 3.0, se_iv) == pytest.approx(9.0)


def test_summarize_tail_keeps_ten_samples_beyond():
    s = outputs.summarize([float(v) for v in range(1, 21)])
    assert s["median"] == 10.5 and s["n"] == 20
    assert s["tail_pct"] == 50.0 and s["tail"] == 10.0
    assert outputs.summarize([1.0] * 10)["tail"] is None


def test_synthetic_long_tenor_setup():
    raw = synthetic_setup(14)
    assert raw["tenor_dates"][-1] == 7.5
    assert [round(v * 100) for v in raw["vols"]] == [
        13, 12, 12, 11, 11, 10, 10, 9, 9, 8, 8, 7, 7, 6]
    assert math.isclose(sum(raw["vols"]), 1.33)
    setup = setup_from_dict(raw)
    assert validate_setup(setup).passed
    assert setup.initial_rate(1) == pytest.approx(math.expm1(0.02) / 0.5)
