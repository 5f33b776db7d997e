"""Acceptance checks for the complete simulation and pricing pipeline.

Each criterion is a standalone runner returning a :class:`CriterionResult`
with a one-line verdict and supporting detail lines.  Criteria that read
the same paths get one sample, built once and passed to each of them:
criteria 1 and 2 the last-rate caplets of :func:`build_last_rate_sample`,
criteria 5-7 the million-path comparison of :func:`build_comparison`.

Criteria overview:

1. Terminal-rate martingale: under the terminal measure the last forward
   rate is a martingale, so its simulated mean at the fixing date (the
   zero-strike caplet on it, over the caplet's scale) must match the
   initial rate within Monte Carlo noise.
2. Last-rate caplet oracle: the Monte Carlo caplet price on the last rate
   must agree with an independent one-dimensional quadrature price.
3. Scheme coincidence: the last rate has a deterministic drift, so all
   three schemes must produce bit-identical paths and prices for it.
4. Drift route agreement: the jump term of the engine's drift evaluator
   (the Bernoulli-sum lattice DP) must match the direct quadrature oracle on
   random states to near machine precision.
5. Two-stage scheme accuracy: implied vols from the two-stage scheme stay
   within one vol point of the full recursive solution across the caplet
   surface.
6. Frozen-drift deficiency: the frozen-drift error exceeds the two-stage
   error and concentrates at in-the-money strikes, with the worst error
   appearing beyond the shortest maturity.
7. Swaption consistency: two-stage prices agree with the full solution on
   every in-the-money swaption cell, and the frozen-drift error grows with
   swap maturity at the deepest in-the-money strike.
8. Unit/property suite: implied-vol round trip, single-period swaption
   versus caplet payoff identity, stage-one path identity, closed-form
   cumulant values, exponential-moment margin, zero-strike caplet value,
   and a coupled grid-refinement bias check.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .driver import SEED_LIMIT, nig_cumulant
from .market import MarketSetup, bundled_setup, validate_setup
from .drift import DriftEvaluator, drift_quadrature
from .simulate import (DEFAULT_BATCH, DEFAULT_SUBSTEPS, Scheme,
                       SimulationEngine, build_grid)
from .pricing import (
    CapletSpec,
    SwaptionSpec,
    ComparisonTable,
    McEstimate,
    McSums,
    black76_implied_vol,
    black76_price,
    caplet_price_last_rate,
    compare_schemes,
    price_instruments_mc,
    scheme_payoffs,
    zero_strike_caplet_value,
)

DEFAULT_SEED = 20020219

_FULL_SCALE_COMPARISON_PATHS = 1_000_000
_FULL_SCALE_SINGLE_PATHS = 100_000


@dataclass
class CriterionResult:
    """Outcome of one acceptance criterion.

    A criterion with a ``runtime_limit`` passes only if its checks hold and
    it ran for less than that many seconds.
    """

    index: int
    name: str
    passed: bool
    runtime_seconds: float
    runtime_limit: Optional[float] = None
    details: list = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.runtime_limit is not None:
            self.passed = self.passed and self.runtime_seconds < self.runtime_limit

    @property
    def verdict(self) -> str:
        return "PASS" if self.passed else "FAIL"

    def summary_line(self) -> str:
        line = "[%s] criterion %d: %s (%.1f s" % (
            self.verdict,
            self.index,
            self.name,
            self.runtime_seconds,
        )
        if self.runtime_limit is not None:
            line += ", limit %.0f s" % self.runtime_limit
        return line + ")"

    def lines(self) -> list:
        return [self.summary_line()] + ["    " + d for d in self.details]


def build_last_rate_sample(
    setup: MarketSetup,
    seed: int = DEFAULT_SEED,
    n_paths: int = _FULL_SCALE_SINGLE_PATHS,
    substeps: int = DEFAULT_SUBSTEPS,
) -> list[McEstimate]:
    """Price the shared full-scheme sample used by criteria 1 and 2.

    One set of paths prices the zero-strike caplet and the at-the-money
    caplet on the last rate; returns their estimates in that order.
    """
    last = setup.tenor.n_rates
    specs = [CapletSpec(last, 0.0), CapletSpec(last, setup.initial_rate(last))]
    return price_instruments_mc(setup, specs, [Scheme.FULL_SDE], n_paths,
                                seed, substeps)[Scheme.FULL_SDE]


def criterion_martingale_mean(
    setup: MarketSetup,
    sample: list[McEstimate],
    build_seconds: float,
) -> CriterionResult:
    """Criterion 1: simulated mean of the last rate at its fixing date.

    The last forward rate is a martingale under the terminal measure, so
    the full-recursion Monte Carlo mean of L(T_last, T_last) must lie
    within three standard errors of L(0, T_last), with no invalid path.
    That mean is the zero-strike caplet on the last rate, whose payoff is
    ``delta_last * B(0, T_(last+1)) * L(T_last, T_last)``, over that scale.
    The time spent building ``sample`` counts against the runtime limit.
    """
    start = time.perf_counter()
    last = setup.tenor.n_rates
    estimate = sample[0]
    scale = setup.tenor.accrual(last) * setup.curve.bond(last + 1)
    mean = estimate.price / scale
    se = estimate.std_error / scale
    target = setup.initial_rate(last)
    dev = mean - target
    elapsed = build_seconds + (time.perf_counter() - start)
    passed = abs(dev) <= 3.0 * se and estimate.n_invalid == 0
    details = [
        "mean L(T_%d,T_%d) = %.8f, target %.8f" % (last, last, mean, target),
        "deviation %+.3g = %+.2f SE (SE %.3g), %d/%d valid paths"
        % (dev, dev / se, se, estimate.n_paths,
           estimate.n_paths + estimate.n_invalid),
    ]
    return CriterionResult(1, "terminal-rate martingale mean", passed, elapsed, 60.0, details)


def criterion_last_rate_caplet_oracle(
    setup: MarketSetup,
    sample: list[McEstimate],
) -> CriterionResult:
    """Criterion 2: ATM caplet on the last rate versus density quadrature.

    The last log-rate has a deterministic drift, so its caplet price has an
    independent one-dimensional integral representation against the driver
    density.  The Monte Carlo price, the second estimate of ``sample``,
    must match it within three standard errors.
    """
    start = time.perf_counter()
    oracle = caplet_price_last_rate(setup, setup.initial_rate(setup.n_rates))
    estimate = sample[1]
    dev = estimate.price - oracle
    elapsed = time.perf_counter() - start
    passed = abs(dev) <= 3.0 * estimate.std_error
    details = [
        "mc %.8g vs quadrature %.8g" % (estimate.price, oracle),
        "deviation %+.3g = %+.2f SE (SE %.3g)" % (dev, dev / estimate.std_error, estimate.std_error),
    ]
    return CriterionResult(2, "last-rate caplet vs quadrature oracle", passed, elapsed, details=details)


def criterion_scheme_coincidence(
    setup: MarketSetup,
    seed: int = DEFAULT_SEED,
    substeps: int = DEFAULT_SUBSTEPS,
) -> CriterionResult:
    """Criterion 3: all schemes coincide bitwise on the last rate.

    The drift of the last rate never depends on the state, so the full,
    frozen, and two-stage recursions must produce identical floating-point
    paths and caplet prices for it at any seed.
    """
    start = time.perf_counter()
    grid = build_grid(setup.tenor, substeps)
    engine = SimulationEngine(setup, grid)
    last = setup.tenor.n_rates
    strike = setup.initial_rate(last)
    spec = CapletSpec(last, strike)
    paths_ok = True
    prices_ok = True
    for offset in range(3):
        # Consecutive seeds, wrapping at 2^64 so every valid seed runs.
        dh = engine.path_increments((seed + offset) % SEED_LIMIT, 0, 2048)
        logs = engine.log_states(list(Scheme), dh, range(grid.n_steps + 1))
        payoffs = {}
        for s, arr in logs.items():
            (payoffs[s],), _ = scheme_payoffs(engine, [spec], arr[:, grid.tenor_indices[1:]])
        ref = logs[Scheme.FULL_SDE][:, :, last - 1]
        ref_pay = payoffs[Scheme.FULL_SDE]
        for s in (Scheme.FROZEN_DRIFT, Scheme.STRONG_TAYLOR):
            paths_ok &= bool(np.array_equal(logs[s][:, :, last - 1], ref))
            prices_ok &= bool(np.array_equal(payoffs[s], ref_pay))
    elapsed = time.perf_counter() - start
    passed = paths_ok and prices_ok
    details = [
        "paths bit-identical across schemes: %s" % paths_ok,
        "caplet payoffs bit-identical across schemes: %s" % prices_ok,
        "2048 paths x 3 seeds",
    ]
    return CriterionResult(3, "last-rate scheme coincidence (bitwise)", passed, elapsed, details=details)


def criterion_drift_route_agreement(
    setup: MarketSetup,
    seed: int = DEFAULT_SEED,
) -> CriterionResult:
    """Criterion 4: the engine's drift evaluator versus quadrature drift.

    Evaluates the jump term of the drift through the
    :class:`~levylibor.drift.DriftEvaluator` the engine runs and through the
    quadrature oracle, on random log-rate states at random times for every
    rate index, and requires relative agreement within 1e-6.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    n = setup.tenor.n_rates
    # The loadings at any time in [0, T_N] are setup levels, so one grid
    # step per accrual interval serves every draw of s.
    evaluator = DriftEvaluator(setup, build_grid(setup.tenor, 1))
    times, rates, states = [], [], []
    for _ in range(100):
        values = setup.log_initial_rates + rng.normal(0.0, 0.5, size=n)
        for i in range(1, n + 1):
            times.append(rng.uniform(0.0, setup.tenor.date(i)))
            rates.append(i)
            states.append(values)
    times, rates, states = np.array(times), np.array(rates), np.array(states)
    # The DP sees a time only through its loadings: one pass per loading
    # vector, over the stacked states of its cases.
    groups: dict[bytes, list[int]] = {}
    for k, s in enumerate(times):
        groups.setdefault(setup.vols.loadings(s).tobytes(), []).append(k)
    dp = np.empty(len(times))
    for ks in groups.values():
        terms = evaluator.jump_terms(times[ks[0]], states[ks])
        dp[ks] = terms[np.arange(len(ks)), rates[ks] - 1]
    oracle = drift_quadrature(times, rates, states, setup)
    worst = 0.0
    worst_where = (0, 0.0)
    for a, b, i, s in zip(dp, oracle, rates, times):
        scale = max(abs(a), abs(b), 1e-300)
        rel = abs(a - b) / scale
        if rel > worst:
            worst = rel
            worst_where = (i, s)
    elapsed = time.perf_counter() - start
    passed = worst <= 1e-6
    details = [
        "max relative difference %.3g (tolerance 1e-06)" % worst,
        "worst at rate %d, time %.4f; 100 states x %d rates" % (worst_where[0], worst_where[1], n),
    ]
    return CriterionResult(4, "drift route agreement (lattice DP vs quadrature)", passed, elapsed, 30.0, details)


def build_comparison(
    setup: MarketSetup,
    seed: int = DEFAULT_SEED,
    n_paths: int = _FULL_SCALE_COMPARISON_PATHS,
    substeps: int = DEFAULT_SUBSTEPS,
) -> ComparisonTable:
    """Run the shared three-scheme comparison used by criteria 5-7.

    One set of driver increments per path feeds all three schemes (common
    random numbers), caplets for every live maturity across the default
    moneyness grid, and the eight swaption contracts.
    """
    return compare_schemes(setup, n_paths, seed, substeps=substeps)


def criterion_taylor_iv_accuracy(
    table: ComparisonTable,
    build_seconds: float,
) -> CriterionResult:
    """Criterion 5: two-stage implied vols within one vol point of full.

    Over the caplet surface (all live maturities, strikes 0.7-1.3 times
    the forward) the maximum absolute implied-vol gap between the
    two-stage scheme and the full recursion must stay below the tolerance.
    """
    start = time.perf_counter()
    cells = table.caplet_cells()
    failures = []
    worst = 0.0
    worst_cell = None
    for cell in cells:
        diff = cell.iv_diff(Scheme.STRONG_TAYLOR)
        if cell.iv_failures or diff is None:
            failures.append(cell)
            continue
        if abs(diff) > worst:
            worst = abs(diff)
            worst_cell = cell
    elapsed = build_seconds + (time.perf_counter() - start)
    passed = not failures and worst < 0.01
    details = [
        "max |iv(two-stage) - iv(full)| = %.3g (tolerance 0.01)" % worst,
        "%d caplet cells, %d implied-vol failures" % (len(cells), len(failures)),
    ]
    if worst_cell is not None:
        details.append(
            "worst cell: maturity index %d, moneyness %.2f" % (worst_cell.maturity_index, worst_cell.moneyness)
        )
    return CriterionResult(5, "two-stage implied-vol accuracy", passed, elapsed, 900.0, details)


def criterion_frozen_iv_pattern(
    table: ComparisonTable,
) -> CriterionResult:
    """Criterion 6: frozen-drift error dominates and sits at ITM strikes.

    Checks three qualitative facts about the frozen-drift implied-vol
    error surface: it exceeds the two-stage error overall, its in-the-money
    maximum exceeds its out-of-the-money maximum, and the worst error
    occurs beyond the shortest maturity (the bias needs time to build; the
    final maturity is excluded from interpretation because the last rate
    is scheme-identical by construction, making its error exactly zero).
    """
    start = time.perf_counter()
    frozen = {}
    taylor = {}
    incomplete = 0
    for cell in table.caplet_cells():
        df = cell.iv_diff(Scheme.FROZEN_DRIFT)
        dt = cell.iv_diff(Scheme.STRONG_TAYLOR)
        if df is None or dt is None:
            incomplete += 1
            continue
        key = (cell.maturity_index, cell.moneyness)
        frozen[key] = abs(df)
        taylor[key] = abs(dt)
    max_frozen = max(frozen.values())
    max_taylor = max(taylor.values())
    itm_max = max(v for (i, m), v in frozen.items() if m < 1.0)
    otm_max = max(v for (i, m), v in frozen.items() if m > 1.0)
    first_maturity = min(i for i, _ in frozen)
    later_max = max(v for (i, m), v in frozen.items() if i > first_maturity)
    first_max = max(v for (i, m), v in frozen.items() if i == first_maturity)
    dominates = max_frozen > max_taylor
    itm_concentrated = itm_max > otm_max
    builds_with_time = later_max > first_max
    elapsed = time.perf_counter() - start
    passed = (
        incomplete == 0
        and dominates
        and itm_concentrated
        and builds_with_time
    )
    maturities = sorted({i for i, _ in frozen})
    profile = ", ".join("T_%d: %.2e" % (i, max(v for (j, m), v in frozen.items() if j == i)) for i in maturities)
    details = [
        "max frozen %.3g > max two-stage %.3g: %s" % (max_frozen, max_taylor, dominates),
        "ITM max %.3g > OTM max %.3g: %s" % (itm_max, otm_max, itm_concentrated),
        "worst error beyond shortest maturity (%.3g > %.3g at T_%d): %s"
        % (later_max, first_max, first_maturity, builds_with_time),
        "frozen error profile by maturity: " + profile,
        "last maturity is scheme-identical, so its error is structurally zero",
    ]
    if incomplete:
        details.append("cells without both implied vols: %d" % incomplete)
    return CriterionResult(6, "frozen-drift implied-vol deficiency pattern", passed, elapsed, details=details)


def criterion_swaption_consistency(
    table: ComparisonTable,
) -> CriterionResult:
    """Criterion 7: swaption grid consistency and frozen-error growth.

    For every in-the-money swaption cell the two-stage price must agree
    with the full price within the larger of three combined standard errors
    and the frozen-drift gap.  At the deepest in-the-money strike the
    frozen-drift gap must grow with swap maturity within each expiry group,
    allowing at most one inversion of standard-error size.
    """
    start = time.perf_counter()
    cells = table.swaption_cells()
    violations = []
    for cell in cells:
        if cell.moneyness >= 1.0:
            continue
        full = cell.estimates[Scheme.FULL_SDE]
        tay = cell.estimates[Scheme.STRONG_TAYLOR]
        fro = cell.estimates[Scheme.FROZEN_DRIFT]
        gap = abs(full.price - tay.price)
        combined = math.hypot(full.std_error, tay.std_error)
        allowed = max(3.0 * combined, abs(full.price - fro.price))
        if gap > allowed:
            violations.append((cell.maturity_index, cell.spec.end_index, cell.moneyness, gap, allowed))
    deep = min(c.moneyness for c in cells)
    groups = {}
    for cell in cells:
        if cell.moneyness == deep:
            groups.setdefault(cell.maturity_index, []).append(cell)
    trend_ok = True
    trend_lines = []
    for expiry, cells in sorted(groups.items()):
        cells.sort(key=lambda c: c.spec.end_index)
        diffs = []
        noise = []
        for cell in cells:
            full = cell.estimates[Scheme.FULL_SDE]
            fro = cell.estimates[Scheme.FROZEN_DRIFT]
            diffs.append(abs(full.price - fro.price))
            noise.append(math.hypot(full.std_error, fro.std_error))
        drops = [
            (j, diffs[j] - diffs[j + 1])
            for j in range(len(diffs) - 1)
            if diffs[j + 1] < diffs[j]
        ]
        group_ok = len(drops) <= 1 and all(
            gap <= 3.0 * math.hypot(noise[j], noise[j + 1]) for j, gap in drops
        )
        trend_ok &= group_ok
        trend_lines.append(
            "expiry T_%d frozen gaps by swap end: %s (%d inversion(s)) -> %s"
            % (expiry, ", ".join("%.3e" % d for d in diffs), len(drops), "ok" if group_ok else "violated")
        )
    elapsed = time.perf_counter() - start
    passed = not violations and trend_ok
    details = ["ITM cells with two-stage gap above allowance: %d" % len(violations)]
    details += ["  expiry %d end %d moneyness %.2f gap %.3g > %.3g" % v for v in violations]
    details += trend_lines
    return CriterionResult(7, "swaption grid consistency and frozen growth", passed, elapsed, details=details)


def _check_black76_round_trip():
    worst = 0.0
    for strike_ratio in (0.7, 1.0, 1.3):
        for vol in (0.12, 0.2, 0.35):
            for expiry in (0.5, 4.5):
                forward = 0.05
                strike = forward * strike_ratio
                price = black76_price(forward, strike, vol, expiry, 0.9, accrual=0.5)
                recovered = black76_implied_vol(price, forward, strike, expiry, 0.9, accrual=0.5)
                worst = max(worst, abs(recovered - vol))
    return worst <= 1e-8, "implied-vol round trip max error %.3g (tolerance 1e-08)" % worst


def _check_single_period_swaption(setup, engine, full):
    rates = (2, 5, 8)
    specs = [CapletSpec(i, setup.initial_rate(i)) for i in rates]
    specs += [SwaptionSpec(i, i + 1, setup.initial_rate(i)) for i in rates]
    payoffs, _ = scheme_payoffs(engine, specs, full[:, engine.grid.tenor_indices[1:]])
    worst = 0.0
    for cap, swp in zip(payoffs[:3], payoffs[3:]):
        worst = max(worst, float(np.max(np.abs(cap - swp))))
    return worst <= 1e-13, "single-period swaption vs caplet: max |payoff gap| %.3g (tolerance 1e-13)" % worst


def _check_stage_one_identity(engine, dh, frozen, taylor):
    z = taylor[:, 0]
    ok = bool(np.array_equal(z, frozen[:, 0]))
    for k, dt in enumerate(engine.dt):
        b = engine.evaluator.step_drift(k, frozen[:, k])
        z = z + b * dt + dh[:, k, None] * engine.step_vols[k][None, :]
        ok &= bool(np.array_equal(z, taylor[:, k + 1]))
    return ok, "two-stage recursion with frozen paths as stage one is bit-identical: %s" % ok


def _check_cumulant_values(setup):
    p = setup.nig
    alpha = Fraction(3, 2)
    delta = Fraction(3, 2)
    u = Fraction(36, 25)
    radicand = alpha * alpha - u * u
    root = Fraction(21, 50)
    exact_root = root * root == radicand
    exact_value = delta * (alpha - root)
    rational_ok = exact_root and exact_value == Fraction(81, 50)
    computed = nig_cumulant(1.44, p)
    ulp_ok = abs(computed - 1.62) <= 2.0 * np.spacing(1.62)
    vol_sum = math.fsum(setup.vols.per_rate_sup)
    halfwidth = p.alpha - abs(p.beta)
    sum_ok = vol_sum < halfwidth
    ok = rational_ok and ulp_ok and sum_ok
    msg = (
        "cumulant(1.44) = 81/50 = 1.62 in exact arithmetic: %s; float %.17g within 2 ulp: %s; "
        "vol sum %.6g < domain half-width %.6g: %s" % (rational_ok, computed, ulp_ok, vol_sum, halfwidth, sum_ok)
    )
    return ok, msg


def _check_zero_strike_caplet(setup, seed, n_paths, substeps):
    rate = 5
    result = price_instruments_mc(setup, [CapletSpec(rate, 0.0)],
                                  [Scheme.FULL_SDE], n_paths, seed, substeps)
    estimate = result[Scheme.FULL_SDE][0]
    target = zero_strike_caplet_value(setup, rate)
    dev = estimate.price - target
    ok = abs(dev) <= 3.0 * estimate.std_error
    msg = "zero-strike caplet mc %.6g vs bond difference %.6g (%+.2f SE)" % (
        estimate.price,
        target,
        dev / estimate.std_error,
    )
    if estimate.n_invalid:
        msg += "; invalid paths left out: %d" % estimate.n_invalid
    return ok, msg


def _check_grid_refinement(setup, seed, n_paths, substeps):
    """Coupled-grid bias check: refine the step count at fixed randomness.

    Increments on the fine grid are aggregated pairwise to drive the coarse
    grid, so the price difference isolates the discretization effect from
    Monte Carlo noise.  The bias must be invisible at MC resolution.
    Invalid paths are left out of each grid's price and counted.
    """
    fine = build_grid(setup.tenor, 2 * substeps)
    coarse = build_grid(setup.tenor, substeps)
    engine_fine = SimulationEngine(setup, fine)
    engine_coarse = SimulationEngine(setup, coarse)
    rate = 5
    spec = CapletSpec(rate, setup.initial_rate(rate))
    sums = {engine_coarse: McSums(1), engine_fine: McSums(1)}
    for first in range(0, n_paths, DEFAULT_BATCH):
        size = min(DEFAULT_BATCH, n_paths - first)
        dh_fine = engine_fine.path_increments(seed, first, size)
        dh_coarse = dh_fine.reshape(size, coarse.n_steps, 2).sum(axis=2)
        for engine, dh in ((engine_coarse, dh_coarse), (engine_fine, dh_fine)):
            log_fix = engine.log_states([Scheme.FULL_SDE], dh, engine.grid.tenor_indices[1:])
            sums[engine].add(*scheme_payoffs(engine, [spec], log_fix[Scheme.FULL_SDE]))
    est_coarse, est_fine = (s.estimates(seed, Scheme.FULL_SDE)[0] for s in sums.values())
    bias = abs(est_coarse.price - est_fine.price)
    ok = bias < 3.0 * est_fine.std_error
    msg = "grid refinement %dx vs %dx substeps: |price gap| %.3g vs 3 x MC SE %.3g" % (
        substeps,
        2 * substeps,
        bias,
        3.0 * est_fine.std_error,
    )
    if est_coarse.n_invalid or est_fine.n_invalid:
        msg += "; invalid paths left out: %d at %dx, %d at %dx" % (
            est_coarse.n_invalid, substeps, est_fine.n_invalid, 2 * substeps)
    return ok, msg


def criterion_unit_property_suite(
    setup: MarketSetup,
    seed: int = DEFAULT_SEED,
    n_paths: int = 20_000,
    substeps: int = DEFAULT_SUBSTEPS,
) -> CriterionResult:
    """Criterion 8: bundled unit and property checks with a runtime cap."""
    start = time.perf_counter()
    grid = build_grid(setup.tenor, substeps)
    engine = SimulationEngine(setup, grid)
    dh = engine.path_increments(seed, 0, 4096)
    paths = engine.log_states(list(Scheme), dh, range(grid.n_steps + 1))
    checks = [
        _check_black76_round_trip(),
        _check_single_period_swaption(setup, engine, paths[Scheme.FULL_SDE]),
        _check_stage_one_identity(engine, dh, paths[Scheme.FROZEN_DRIFT], paths[Scheme.STRONG_TAYLOR]),
        _check_cumulant_values(setup),
        _check_zero_strike_caplet(setup, seed, n_paths, substeps),
        _check_grid_refinement(setup, seed, n_paths, substeps),
    ]
    elapsed = time.perf_counter() - start
    passed = all(ok for ok, _ in checks)
    details = ["[%s] %s" % ("ok" if ok else "FAIL", msg) for ok, msg in checks]
    return CriterionResult(8, "unit/property suite", passed, elapsed, 60.0, details)


def run_all(
    setup: Optional[MarketSetup] = None,
    seed: int = DEFAULT_SEED,
    paths_scale: float = 1.0,
    substeps: int = DEFAULT_SUBSTEPS,
) -> tuple[list[CriterionResult], ComparisonTable]:
    """Run all eight acceptance criteria; return their results and the
    shared comparison table of criteria 5-7, whose CSV and surface files
    callers can write without a second run.

    ``paths_scale`` rescales every Monte Carlo path count (floored at one
    thousand paths).  Scales other than one are for smoke runs only; the
    stated tolerances are calibrated to the full path counts.
    """
    if setup is None:
        setup = bundled_setup()
    validate_setup(setup).raise_on_failure()

    def scaled(n: int) -> int:
        return max(1000, int(round(n * paths_scale)))

    t0 = time.perf_counter()
    sample = build_last_rate_sample(setup, seed, scaled(_FULL_SCALE_SINGLE_PATHS), substeps)
    sample_seconds = time.perf_counter() - t0
    results = [
        criterion_martingale_mean(setup, sample, sample_seconds),
        criterion_last_rate_caplet_oracle(setup, sample),
        criterion_scheme_coincidence(setup, seed, substeps=substeps),
        criterion_drift_route_agreement(setup, seed),
    ]
    t0 = time.perf_counter()
    table = build_comparison(setup, seed, scaled(_FULL_SCALE_COMPARISON_PATHS), substeps)
    build_seconds = time.perf_counter() - t0
    results.append(criterion_taylor_iv_accuracy(table, build_seconds))
    results.append(criterion_frozen_iv_pattern(table))
    results.append(criterion_swaption_consistency(table))
    results.append(criterion_unit_property_suite(setup, seed, scaled(20_000), substeps))
    return results, table
