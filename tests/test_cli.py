"""Tests for the command-line front end."""

import csv
import importlib.metadata as md
import json
from pathlib import Path

import pytest

from levylibor import (acceptance, bundled_setup, compare_schemes,
                       setup_to_dict, zero_strike_caplet_value)
from levylibor.cli import build_parser, main


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _is_installed(dist_name):
    try:
        md.distribution(dist_name)
    except md.PackageNotFoundError:
        return False
    return True


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_bundled_setup_passes(self, capsys):
        code, out, _ = run_cli(["validate"], capsys)
        assert code == 0
        assert out.count("[ok]") == 6

    def test_bad_setup_fails_with_report(self, tmp_path, capsys):
        raw = setup_to_dict(bundled_setup())
        raw["bond_prices"][2] = raw["bond_prices"][1] * 1.02
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        code, out, _ = run_cli(["validate", "--setup", str(path)], capsys)
        assert code == 1
        assert "[FAIL]" in out

    def test_unreadable_setup_is_a_structured_error(self, capsys):
        code, _, err = run_cli(["validate", "--setup", "/no/such/file.json"],
                               capsys)
        assert code == 2
        assert "error:" in err

    def test_missing_key_is_a_structured_error(self, tmp_path, capsys):
        raw = setup_to_dict(bundled_setup())
        del raw["nig"]
        path = tmp_path / "no_nig.json"
        path.write_text(json.dumps(raw))
        code, _, err = run_cli(["validate", "--setup", str(path)], capsys)
        assert code == 2
        assert err.startswith("error:")
        assert "'nig'" in err


def _off_lattice_setup(tmp_path):
    raw = setup_to_dict(bundled_setup())
    raw["vols"][4] = 0.1234567
    path = tmp_path / "off_lattice.json"
    path.write_text(json.dumps(raw))
    return str(path)


class TestLoadingLattice:
    def test_validate_reports_off_lattice_loading(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["validate", "--setup", _off_lattice_setup(tmp_path)], capsys)
        assert code == 1
        assert "[FAIL] loading_lattice: loading 0.1234567 of rate 5" in out
        assert out.count("[ok]") == 5

    def test_pricing_off_lattice_setup_is_a_structured_error(self, tmp_path,
                                                             capsys):
        code, out, err = run_cli(
            ["price-caplets", "--setup", _off_lattice_setup(tmp_path),
             "--paths", "10"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: loading 0.1234567 of rate 5")


def _rejected_setup(tmp_path, name):
    # a setup that validate rejects; each is priced quietly wrong at the
    # engine: a drifting driver, a rising curve, a loading sum over M, a
    # last bond so small that the last forward rate overflows to inf
    raw = setup_to_dict(bundled_setup())
    if name == "drifting_driver":
        raw["nig"]["mu"] = 0.02
        detail = "driver mean rate 0.02 != 0"
    elif name == "rising_curve":
        raw["bond_prices"][2] = raw["bond_prices"][1] * 1.01
        detail = "B(0, T_2) = "
    elif name == "tiny_last_bond":
        raw["bond_prices"][-1] = 1e-310
        detail = "initial forward rates in [0.0386098, inf]"
    else:
        raw["em"]["M"] = 0.5
        detail = "vs bound 0.5"
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(raw))
    return str(path), detail


class TestRejectedSetup:
    @pytest.mark.parametrize("name", ["drifting_driver", "rising_curve",
                                      "small_moment_bound", "tiny_last_bond"])
    @pytest.mark.parametrize("command", [
        ["price-caplets", "--rate", "5", "--moneyness", "1.0"],
        ["price-swaptions", "--expiry", "2", "--end", "4"],
        ["compare"],
    ], ids=["price-caplets", "price-swaptions", "compare"])
    def test_pricing_commands_refuse_it(self, command, name, tmp_path,
                                        capsys):
        path, detail = _rejected_setup(tmp_path, name)
        code, out, err = run_cli(
            [*command, "--setup", path, "--paths", "2000"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert detail in err


class TestSeed:
    @pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
    @pytest.mark.parametrize("command", ["price-caplets", "reproduce-paper"])
    def test_seed_outside_64_bits_exits_with_usage(self, command, seed,
                                                   capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--seed", seed])
        assert exc.value.code == 2
        assert "[0, 2^64)" in capsys.readouterr().err

    def test_largest_seed_is_accepted(self, capsys):
        top = str((1 << 64) - 1)
        code, out, _ = run_cli(
            ["price-caplets", "--rate", "9", "--strike", "0.05",
             "--paths", "10", "--seed", top], capsys)
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert rows[0]["seed"] == top


class TestPriceCaplets:
    def test_zero_strike_forward_identity(self, capsys):
        code, out, _ = run_cli(
            ["price-caplets", "--rate", "9", "--strike", "0",
             "--paths", "20000", "--seed", "7"], capsys)
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert len(rows) == 1
        row = rows[0]
        assert row["instrument"] == "caplet"
        assert row["end_index"] == ""
        target = zero_strike_caplet_value(bundled_setup(), 9)
        price, se = float(row["price"]), float(row["std_error"])
        assert abs(price - target) <= 3.0 * se

    def test_out_of_range_rate_is_rejected(self, capsys):
        code, _, err = run_cli(
            ["price-caplets", "--rate", "12", "--paths", "1000"], capsys)
        assert code == 2
        assert "rate index" in err

    def test_nan_strike_is_rejected(self, capsys):
        # so is an infinite one, which would price at zero
        for strike in ("nan", "inf"):
            code, out, err = run_cli(
                ["price-caplets", "--rate", "2", "--strike", strike,
                 "--paths", "100"], capsys)
            assert code == 2
            assert out == ""
            assert err.startswith("error: strike must be finite")

    def test_moneyness_grid_row_count(self, capsys):
        code, out, _ = run_cli(
            ["price-caplets", "--rate", "2", "--moneyness", "0.9,1.0,1.1",
             "--paths", "500", "--scheme", "frozen", "--substeps", "2"],
            capsys)
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert len(rows) == 3
        assert {r["scheme"] for r in rows} == {"frozen"}


class TestPriceSwaptions:
    def test_explicit_contract(self, capsys):
        code, out, _ = run_cli(
            ["price-swaptions", "--expiry", "2", "--end", "4",
             "--strike", "0.045", "--paths", "500", "--substeps", "2"],
            capsys)
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert len(rows) == 1
        assert rows[0]["instrument"] == "swaption_2_4"
        assert rows[0]["end_index"] == "4"

    def test_expiry_without_end_is_rejected(self, capsys):
        code, _, err = run_cli(
            ["price-swaptions", "--expiry", "2", "--paths", "100"], capsys)
        assert code == 2
        assert "--end" in err

    @pytest.mark.parametrize("dates", [
        ["--expiry", "9", "--end", "12"],
        ["--expiry", "0", "--end", "3"],
        ["--expiry", "3", "--end", "3"],
        ["--expiry", "9", "--end", "12", "--strike", "0.05"],
    ])
    def test_swap_dates_off_the_tenor_are_rejected(self, dates, capsys):
        code, out, err = run_cli(
            ["price-swaptions", *dates, "--paths", "100"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_convention_option_is_a_usage_error(self, capsys):
        # the fixed leg always pays accrual-weighted coupons
        with pytest.raises(SystemExit) as exc:
            main(["price-swaptions", "--convention", "unit", "--paths", "10"])
        assert exc.value.code == 2
        assert "--convention" in capsys.readouterr().err

    def test_default_grid_runs_all_pairs(self, capsys):
        code, out, _ = run_cli(
            ["price-swaptions", "--paths", "200", "--substeps", "1",
             "--moneyness", "1.0"], capsys)
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert len(rows) == 8


class TestCompare:
    def test_byte_identical_reruns(self, tmp_path, capsys):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        for out in (out_a, out_b):
            code, _, _ = run_cli(
                ["compare", "--paths", "10", "--seed", "1",
                 "--out", str(out)], capsys)
            assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        rows = list(csv.DictReader(out_a.read_text().splitlines()))
        assert {r["n_invalid"] for r in rows} == {"0"}

    def test_surface_files_written(self, tmp_path, capsys):
        prefix = tmp_path / "surf"
        code, _, _ = run_cli(
            ["compare", "--paths", "10", "--seed", "1",
             "--out", str(tmp_path / "c.csv"), "--surface-out", str(prefix)],
            capsys)
        assert code == 0
        frozen = (tmp_path / "surf_frozen.dat").read_text()
        assert frozen.startswith("# caplet implied-vol difference")
        assert (tmp_path / "surf_taylor.dat").exists()

    def test_schemes_must_include_full(self, capsys):
        code, _, err = run_cli(
            ["compare", "--paths", "10", "--seed", "1",
             "--schemes", "frozen,taylor"], capsys)
        assert code == 2
        assert "full" in err

    def test_repeated_scheme_is_rejected(self, capsys):
        code, out, err = run_cli(
            ["compare", "--paths", "100", "--seed", "1",
             "--schemes", "full,full"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: schemes listed more than once")

    def test_scheme_option_is_a_usage_error(self, capsys):
        # compare takes --schemes only; --scheme, even as a prefix of
        # --schemes, must not be taken and ignored
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--scheme", "taylor", "--schemes", "full,frozen",
                  "--paths", "10"])
        assert exc.value.code == 2
        assert "--scheme" in capsys.readouterr().err

    def test_iv_failures_counted_on_stderr(self, capsys):
        # at 10 paths some deep cells price under intrinsic: stderr counts
        # the failures per scheme by side, stdout holds the CSV alone
        code, out, err = run_cli(
            ["compare", "--paths", "10", "--seed", "1",
             "--moneyness", "0.7,1.0"], capsys)
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        lines = err.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            f"implied-vol failures, {s}" for s in ("full", "frozen", "taylor")]
        for scheme, line in zip(("full", "frozen", "taylor"), lines):
            empty = sum(1 for r in rows if r["instrument"] == "caplet"
                        and r["scheme"] == scheme and r["implied_vol"] == "")
            assert empty > 0
            assert line.endswith(f": {empty} of 18 caplet cells "
                                 f"(lower {empty})")

    def test_no_failure_lines_when_every_cell_is_quoted(self, capsys):
        code, _, err = run_cli(
            ["compare", "--paths", "400", "--seed", "23", "--substeps", "2",
             "--moneyness", "1.0"], capsys)
        assert code == 0
        assert err == ""


class TestReproduce:
    def test_iv_failures_counted_on_stderr(self, tmp_path, monkeypatch,
                                           capsys):
        # the comparison table is written as after a full run; the
        # acceptance criteria themselves are left out
        def run_all(setup, seed, paths_scale, substeps):
            return [], compare_schemes(setup, n_paths=10, seed=1,
                                       moneyness=(0.7, 1.0))

        monkeypatch.setattr(acceptance, "run_all", run_all)
        code, out, err = run_cli(
            ["reproduce-paper", "--out-dir", str(tmp_path)], capsys)
        assert code == 0
        assert "implied-vol failures" not in out
        assert len(err.splitlines()) == 3
        assert all(line.startswith("implied-vol failures, ")
                   for line in err.splitlines())

    @pytest.mark.parametrize("scale", ["inf", "nan", "0", "-3", "x"])
    def test_paths_scale_must_be_finite_and_positive(self, scale, tmp_path,
                                                     capsys):
        with pytest.raises(SystemExit) as exc:
            main(["reproduce-paper", "--paths-scale", scale,
                  "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "--paths-scale" in capsys.readouterr().err


class TestParser:
    def test_unknown_scheme_exits_with_usage(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["price-caplets", "--scheme", "euler"])
        assert exc.value.code == 2

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_entry_point_is_exposed(self):
        # An installed distribution must carry the console script in its
        # metadata; a from-source run (PYTHONPATH=src) has none to check.
        if _is_installed("levylibor"):
            eps = md.entry_points()
            scripts = eps.select(group="console_scripts", name="levylibor")
            assert any(ep.value == "levylibor.cli:main" for ep in scripts)

        # The declaration the metadata is built from, checked in any checkout.
        tomllib = pytest.importorskip("tomllib")
        with PYPROJECT.open("rb") as fh:
            declared = tomllib.load(fh)["project"].get("scripts", {})
        assert declared.get("levylibor") == "levylibor.cli:main"
        ep = md.EntryPoint(name="levylibor", value=declared["levylibor"],
                           group="console_scripts")
        assert ep.load() is main
