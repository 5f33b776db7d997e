"""Pricing under the terminal measure.

Monte Carlo caplet and swaption prices are single discounted expectations
under the terminal measure: the payoff seen from the terminal numeraire is
the physical payoff times the chain product ``prod (1 + delta_l L(T_i, T_l))``
over the rates between the payment date and the terminal date.  A
one-dimensional quadrature benchmark is available for caplets on the last
rate, whose drift is deterministic.  Black-76 wraps prices into implied
volatilities for like-for-like scheme comparisons.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.special import ndtr

from .driver import NigParams, nig_density, nig_jump_cumulant, nig_mean_rate
from .market import MarketSetup
from .simulate import (DEFAULT_BATCH, DEFAULT_SUBSTEPS, Scheme,
                       SimulationEngine, build_grid)

DEFAULT_MONEYNESS = (0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3)
DEFAULT_SWAPTION_PAIRS = ((2, 4), (2, 5), (2, 6), (2, 7),
                          (4, 6), (4, 7), (4, 8), (4, 9))
# Black-76 inversion: the vol bracket and the bracket width that ends a
# bisection.
IV_LO, IV_HI, IV_TOL = 1e-4, 5.0, 1e-10


@dataclass(frozen=True)
class CapletSpec:
    """Caplet on rate ``maturity_index``: fixes at T_i, pays at T_(i+1).

    A zero strike is allowed and prices the discounted forward."""

    maturity_index: int
    strike: float

    def __post_init__(self) -> None:
        if self.maturity_index < 1:
            raise ValueError("maturity_index is 1-based")
        if not 0.0 <= self.strike < math.inf:
            raise ValueError(
                f"strike must be finite and nonnegative, got {self.strike}")

    @property
    def name(self) -> str:
        return "caplet"

    def check_tenor(self, setup: MarketSetup) -> None:
        """Raise ValueError unless the rate index lies in 1..N, as
        :meth:`payoffs` assumes."""
        n = setup.n_rates
        if not 1 <= self.maturity_index <= n:
            raise ValueError(
                f"rate index {self.maturity_index} outside 1..{n}")

    def payoffs(self, products: np.ndarray, fixings: np.ndarray,
                setup: MarketSetup) -> np.ndarray:
        """Discounted payoff per path (terminal-measure weighting)."""
        i = self.maturity_index
        scale = setup.tenor.accrual(i) * setup.curve.bond(setup.n_rates + 1)
        raw = np.maximum(fixings[:, i - 1, i - 1] - self.strike, 0.0)
        return scale * products[:, i - 1, i + 1] * raw


@dataclass(frozen=True)
class SwaptionSpec:
    """Payer swaption: option expiry T_i, swap dates T_(i+1) .. T_m.

    The fixed leg pays the accrual-weighted coupon ``delta_(k-1)*K`` at each
    ``T_k``, so a one-period swaption is its caplet."""

    expiry_index: int
    end_index: int
    strike: float

    def __post_init__(self) -> None:
        if self.expiry_index < 1:
            raise ValueError("expiry_index is 1-based")
        if self.end_index <= self.expiry_index:
            raise ValueError("end_index must exceed expiry_index")
        if not 0.0 <= self.strike < math.inf:
            raise ValueError(
                f"strike must be finite and nonnegative, got {self.strike}")

    @property
    def maturity_index(self) -> int:
        return self.expiry_index

    @property
    def name(self) -> str:
        return f"swaption_{self.expiry_index}_{self.end_index}"

    def check_tenor(self, setup: MarketSetup) -> None:
        """Raise ValueError unless ``1 <= expiry < end <= N+1``, as
        :meth:`payoffs` assumes."""
        _check_swap_dates(setup, self.expiry_index, self.end_index)

    def payoffs(self, products: np.ndarray, fixings: np.ndarray,
                setup: MarketSetup) -> np.ndarray:
        """Discounted payoff per path; reads the chain products only."""
        i, m = self.expiry_index, self.end_index
        row = products[:, i - 1, :]
        fixed_leg = np.zeros(row.shape[0])
        for k in range(i + 1, m + 1):
            fixed_leg += setup.tenor.accrual(k - 1) * row[:, k]
        value = row[:, i] - row[:, m] - self.strike * fixed_leg
        return setup.curve.bond(setup.n_rates + 1) * np.maximum(value, 0.0)


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo price with its standard error (sample std / sqrt(n))."""

    price: float
    std_error: float
    n_paths: int
    n_invalid: int
    seed: int
    scheme: Scheme


# ---------------------------------------------------------------------------
# Payoffs
# ---------------------------------------------------------------------------

def _check_swap_dates(setup: MarketSetup, expiry_index: int,
                      end_index: int) -> None:
    last = setup.n_rates + 1
    if not 1 <= expiry_index < end_index <= last:
        raise ValueError(
            f"swaption expiry {expiry_index} and end {end_index} need "
            f"1 <= expiry < end <= {last}")


def chain_products(fixings: np.ndarray, setup: MarketSetup) -> np.ndarray:
    """Chain products G[:, i-1, k] = prod_(l=k..N) (1 + delta_l L(T_i, T_l)).

    ``fixings`` has the engine's layout (paths, time, rate).  Shape
    (paths, N, N + 2); index k runs 1..N+1 with the empty product at
    k = N+1.  Entries with k <= i-1 multiply in the fixings of rates
    already fixed; no payoff reads them.  One array serves every instrument
    of a batch."""
    paths, n, _ = fixings.shape
    out = np.ones((paths, n, n + 2))
    # Multiplied from k = N down, in the order a loop over k would use.
    np.cumprod((1.0 + setup.tenor.accruals[1:] * fixings)[:, :, ::-1],
               axis=2, out=out[:, :, n:0:-1])
    return out


# ---------------------------------------------------------------------------
# Curve-side quantities
# ---------------------------------------------------------------------------

def zero_strike_caplet_value(setup: MarketSetup, i: int) -> float:
    """Model-free value of the zero-strike caplet: B(0,T_i) - B(0,T_(i+1))."""
    return setup.curve.bond(i) - setup.curve.bond(i + 1)


def forward_swap_rate(setup: MarketSetup, expiry_index: int,
                      end_index: int) -> float:
    """Par rate of the forward swap over [T_i, T_m] implied by the curve."""
    _check_swap_dates(setup, expiry_index, end_index)
    i, m = expiry_index, end_index
    annuity = 0.0
    for k in range(i + 1, m + 1):
        annuity += setup.tenor.accrual(k - 1) * setup.curve.bond(k)
    return (setup.curve.bond(i) - setup.curve.bond(m)) / annuity


# ---------------------------------------------------------------------------
# Black-76 quoting layer
# ---------------------------------------------------------------------------

class ImpliedVolError(ValueError):
    """Price not attainable inside the volatility bracket.

    ``side`` names the reason: ``"lower"`` (below the bracket floor),
    ``"upper"`` (above its cap), ``"strike"`` (zero strike, no vol) or
    ``"nan"`` (a non-finite input or bracket bound)."""

    def __init__(self, message: str, price: float, bound: float,
                 side: str) -> None:
        super().__init__(message)
        self.price = price
        self.bound = bound
        self.side = side


IV_FAILURE_SIDES = ("lower", "upper", "strike", "nan")


def black76_price(forward, strike, vol, expiry, discount=1.0, accrual=1.0):
    """Black-76 call value ``discount*accrual*(F N(d1) - K N(d2))``.

    Arguments may be arrays; they broadcast elementwise."""
    scale = discount * accrual
    with np.errstate(divide="ignore", invalid="ignore"):
        stddev = vol * np.sqrt(expiry)
        d1 = (np.log(np.divide(forward, strike)) + 0.5 * stddev * stddev) \
            / stddev
        d2 = d1 - stddev
        value = forward * ndtr(d1) - strike * ndtr(d2)
    value = np.where(stddev <= 0.0, np.maximum(forward - strike, 0.0), value)
    return scale * np.where(strike <= 0.0, forward, value)


def _iv_error(side: str, price: float, forward: float, strike: float,
              expiry: float, floor: float, cap: float) -> ImpliedVolError:
    if side == "nan":
        return ImpliedVolError(
            f"no implied volatility for price {price:.8g}, forward "
            f"{forward:.8g}, strike {strike:.8g}, expiry {expiry:.8g}: an "
            "input or a bracket price is not finite", price, math.nan, side)
    if side == "strike":
        return ImpliedVolError("implied volatility undefined for zero strike",
                               price, 0.0, side)
    if side == "lower":
        return ImpliedVolError(
            f"price {price:.8g} below the bracket floor {floor:.8g} "
            f"(vol {IV_LO:g}); at or under intrinsic value", price, floor,
            side)
    return ImpliedVolError(
        f"price {price:.8g} above the bracket cap {cap:.8g} (vol {IV_HI:g})",
        price, cap, side)


def black76_implied_vols(price, forward, strike, expiry, discount=1.0,
                         accrual=1.0
                         ) -> tuple[np.ndarray, dict[int, ImpliedVolError]]:
    """Invert Black-76 for many cells at once by bisection on
    [``IV_LO``, ``IV_HI``].

    The arguments broadcast together and are read flat.  Every cell
    bisects until its bracket is narrower than ``IV_TOL`` in vol units (or a
    midpoint prices it exactly), so each vol is within ``IV_TOL`` of its root
    however flat the price is in vol.  Returns the vols, nan where a cell
    fails, and an :class:`ImpliedVolError` per failed cell keyed by its
    flat index.
    """
    price, forward, strike, expiry, discount, accrual = (
        x.ravel() for x in np.broadcast_arrays(
            price, forward, strike, expiry, discount, accrual))
    floor = black76_price(forward, strike, IV_LO, expiry, discount, accrual)
    cap = black76_price(forward, strike, IV_HI, expiry, discount, accrual)
    finite = np.isfinite([price, forward, strike, expiry, discount,
                          accrual]).all(axis=0)
    side = np.select(
        [~finite, strike <= 0.0, ~np.isfinite(floor) | ~np.isfinite(cap),
         price < floor, price > cap],
        ["nan", "strike", "nan", "lower", "upper"], default="")
    failures = {
        int(j): _iv_error(str(side[j]), float(price[j]), float(forward[j]),
                          float(strike[j]), float(expiry[j]), float(floor[j]),
                          float(cap[j]))
        for j in np.flatnonzero(side != "")
    }

    vols = np.full(price.size, math.nan)
    live = np.flatnonzero(side == "")
    a = np.full(live.size, IV_LO)
    b = np.full(live.size, IV_HI)
    todo = np.arange(live.size)
    for _ in range(200):
        if todo.size == 0:
            break
        cells = live[todo]
        mid = 0.5 * (a[todo] + b[todo])
        diff = black76_price(forward[cells], strike[cells], mid,
                             expiry[cells], discount[cells],
                             accrual[cells]) - price[cells]
        hit = diff == 0.0
        vols[cells[hit]] = mid[hit]
        up = diff > 0.0
        b[todo[up]] = mid[up]
        a[todo[~up]] = mid[~up]
        todo = todo[~hit & (b[todo] - a[todo] > IV_TOL)]
    bisected = np.isnan(vols[live])
    vols[live[bisected]] = 0.5 * (a[bisected] + b[bisected])
    return vols, failures


def black76_implied_vol(price: float, forward: float, strike: float,
                        expiry: float, discount: float = 1.0,
                        accrual: float = 1.0) -> float:
    """Invert Black-76 for one cell: :func:`black76_implied_vols` on a
    single element.  Raises :class:`ImpliedVolError` naming the violated
    bound, or side ``"nan"`` for a non-finite input."""
    vols, failures = black76_implied_vols(price, forward, strike, expiry,
                                          discount, accrual)
    if failures:
        raise failures[0]
    return float(vols[0])


# ---------------------------------------------------------------------------
# Quadrature benchmark for the last rate
# ---------------------------------------------------------------------------

# The oracle's composite rule: Gauss-Legendre nodes and weights on [-1, 1],
# the share of the price its truncated tails may leave out, and the panels
# a walk evaluates per round.
GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(20)
ORACLE_TAIL = 1e-16
WALK_PANELS = 64


def _walk(integrand, tail, start: float, stop: float, step: float,
          total: float) -> float:
    """Integral of ``integrand`` from ``start`` toward ``stop`` on panels of
    width ``|step|``, walking away from the law's location.  The walk ends
    at ``stop`` or at the first panel end where ``tail`` falls under
    ``ORACLE_TAIL`` times the integral so far, ``total`` included."""
    acc, a = 0.0, start
    while a != stop:
        ends = a + step * np.arange(1.0, WALK_PANELS + 1.0)
        past = ends >= stop if step > 0.0 else ends <= stop
        if past.any():
            ends = ends[:np.argmax(past) + 1]
            ends[-1] = stop
        edges = np.concatenate(([a], ends))
        half = 0.5 * np.diff(edges)
        nodes = (edges[:-1] + half)[:, None] + half[:, None] * GL_NODES
        sums = acc + np.cumsum(np.abs(half) * (integrand(nodes) @ GL_WEIGHTS))
        done = tail(ends) <= ORACLE_TAIL * (total + sums)
        if done.any():
            return float(sums[np.argmax(done)])
        acc, a = float(sums[-1]), float(ends[-1])
    return acc


def caplet_price_last_rate(setup: MarketSetup, strike: float) -> float:
    """Caplet price on the last rate by quadrature against the exact law.

    The last rate carries a deterministic drift (no rates after it), so with
    its loading ``lam`` constant in time its log at the fixing date T = T_N
    is ``log F + d + lam*H(T)``, ``d = -kappa_J(lam)*T``, with ``H(T)`` ~
    NIG(alpha, beta, delta*T, mu*T) (Eberlein and Oezkan, "The Levy LIBOR
    model", 2005).  The price is a one-dimensional integral evaluated
    independently of any path machinery:

    * ``lam = 0``: the rate is deterministic; the discounted intrinsic value.
    * Otherwise put ``u = sign(lam)*H(T)``, NIG(alpha, b, delta*T, m) with
      ``b = sign(lam)*beta`` and ``m = sign(lam)*mu*T``, and ``l = |lam|``.
      The payoff is positive for ``u > c = (log(K/F) - d)/l`` (``c = -inf``
      at ``K = 0``), where ``F e^(d + l u) - K = F e^(d + l u) *
      (-expm1(l (c - u)))``.  The factor ``e^(l u)`` tilts the law:
      ``e^(l u) f(u) = e^(T kappa(lam)) g(u)`` with ``g`` the density of
      NIG(alpha, b + l, delta*T, m), defined while ``|beta + lam| < alpha``
      (the moment-domain check keeps it so).  With ``d + T kappa(lam) =
      T lam mean`` the price is ``accrual * B(T_(N+1)) * F e^(T lam mean) *
      int_c^inf g(u) (-expm1(l (c - u))) du``.
    * Tails.  Away from ``m`` write ``y = u - m``, ``q = sqrt((delta T)^2 +
      y^2)``.  ``K_1(z) e^z / q`` decreases along ``|y|``, and the exponent
      ``(b + l) y - alpha q`` of ``g`` is concave with slope ``-s`` at the
      far side of ``y``, ``s = alpha |y|/q - sign(y) (b + l)``, so on
      ``|y'| >= |y|`` past that point ``g(u') <= g(u) e^(-s |y' - y|)``.
      Where ``s > 0`` the integral beyond ``u`` is therefore at most
      ``g(u)/s``; ``s`` rises to ``alpha - |beta + lam| > 0``.  The integral
      is cut where that bound falls under ``ORACLE_TAIL`` times the part
      already summed, a lower bound of the whole because the integrand is
      nonnegative.
    * Panels.  The integral walks right from ``max(c, m)`` and, when
      ``c < m``, left from ``m`` to ``c``, on panels of width at most
      ``min(delta T, 1/alpha)``, each a 20-point Gauss-Legendre rule.  The
      density's branch points ``m +- i delta T`` then lie at least a panel
      width off its axis, and the exponential rates of the integrand, at
      most ``2 alpha``, change it by a bounded factor over a panel.

    Requires a loading constant in time.
    """
    n = setup.n_rates
    levels = set(setup.vols.levels[n - 1])
    if len(levels) != 1:
        raise ValueError("benchmark needs a loading constant in time")
    lam = levels.pop()
    p = setup.nig
    expiry = setup.tenor.date(n)
    forward = setup.initial_rate(n)
    scale = setup.tenor.accrual(n) * setup.curve.bond(n + 1)
    if lam == 0.0:
        return scale * max(forward - strike, 0.0)
    if not abs(p.beta + lam) < p.alpha:
        raise ValueError(
            f"benchmark needs |beta + loading| < alpha, got beta {p.beta:g}, "
            f"loading {lam:g}, alpha {p.alpha:g}")
    drift = -nig_jump_cumulant(lam, p) * expiry
    sign, lam = math.copysign(1.0, lam), abs(lam)
    cut = -math.inf if strike <= 0.0 else (
        (math.log(strike / forward) - drift) / lam)
    tilted = NigParams(alpha=p.alpha, beta=sign * p.beta + lam,
                       delta=p.delta, mu=sign * p.mu)
    loc, spread = tilted.mu * expiry, tilted.delta * expiry

    def integrand(u):
        return nig_density(u, expiry, tilted) * -np.expm1(lam * (cut - u))

    def tail(u):
        y = u - loc
        slope = p.alpha * np.abs(y) / np.hypot(spread, y) \
            - np.sign(y) * tilted.beta
        with np.errstate(divide="ignore"):
            return np.where(slope > 0.0,
                            nig_density(u, expiry, tilted) / slope, np.inf)

    width = min(spread, 1.0 / p.alpha)
    right = _walk(integrand, tail, max(cut, loc), math.inf, width, 0.0)
    left = (_walk(integrand, tail, loc, cut, -width, right)
            if cut < loc else 0.0)
    return (scale * forward * math.exp(expiry * sign * lam * nig_mean_rate(p))
            * (right + left))


# ---------------------------------------------------------------------------
# Monte Carlo pricing
# ---------------------------------------------------------------------------

def scheme_payoffs(engine: SimulationEngine,
                   instruments: Sequence[CapletSpec | SwaptionSpec],
                   log_fix: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Per-path discounted payoffs of every instrument, in order, on one
    scheme's fixing-date log rates ``log_fix`` (paths, N, rates), and the
    mask of valid paths.  An invalid path's payoffs are not meaningful."""
    fix = engine.fixings(log_fix)
    products = chain_products(fix, engine.setup)
    return ([spec.payoffs(products, fix, engine.setup) for spec in instruments],
            engine.valid_mask(log_fix, fix))


class McSums:
    """Running sums of many instruments' payoffs over one scheme's paths,
    added batch by batch.  Invalid paths are left out and counted."""

    def __init__(self, n_instruments: int) -> None:
        self.total = np.zeros(n_instruments)
        self.total_sq = np.zeros(n_instruments)
        self.n_valid = 0
        self.n_invalid = 0

    def add(self, payoffs: Sequence[np.ndarray], valid: np.ndarray) -> None:
        """Add one batch: each instrument's payoff on every path, and the
        mask of valid paths."""
        for j, p in enumerate(payoffs):
            p = p[valid]
            self.total[j] += p.sum()
            self.total_sq[j] += (p * p).sum()
        n_valid = int(valid.sum())
        self.n_valid += n_valid
        self.n_invalid += valid.size - n_valid

    def estimates(self, seed: int, scheme: Scheme) -> list[McEstimate]:
        """One estimate per instrument: the mean over the valid paths and
        its standard error, nan and inf without a valid path, inf SE with
        one."""
        n = self.n_valid
        out = []
        for total, total_sq in zip(self.total, self.total_sq):
            mean = total / n if n else float("nan")
            se = float("inf")
            if n > 1:
                var = max(total_sq - n * mean * mean, 0.0) / (n - 1)
                se = float(np.sqrt(var / n))
            out.append(McEstimate(price=float(mean), std_error=se,
                                  n_paths=n, n_invalid=self.n_invalid,
                                  seed=seed, scheme=scheme))
        return out


def price_instruments_mc(setup: MarketSetup,
                         instruments: Sequence[CapletSpec | SwaptionSpec],
                         schemes: Sequence[Scheme],
                         n_paths: int, seed: int,
                         substeps: int = DEFAULT_SUBSTEPS
                         ) -> dict[Scheme, list[McEstimate]]:
    """Price many instruments under several schemes on shared increments.

    One ensemble of driver increments feeds every scheme (common random
    numbers), so cross-scheme differences carry no sampling noise from the
    driver itself.  ``instruments`` may mix caplets and swaptions in any
    order; returns per scheme one estimate per instrument, in that order.
    Invalid (overflowed) paths are excluded from the estimators and counted.

    Raises
    ------
    ValueError
        If ``n_paths`` is below one, a scheme is listed twice or an
        instrument does not live on the setup's tenor.
    """
    if n_paths < 1:
        raise ValueError("need at least one path")
    schemes = list(schemes)
    if len(set(schemes)) != len(schemes):
        raise ValueError("schemes listed more than once: "
                         + ",".join(s.value for s in schemes))
    for spec in instruments:
        spec.check_tenor(setup)
    grid = build_grid(setup.tenor, substeps)
    engine = SimulationEngine(setup, grid)
    sums = {s: McSums(len(instruments)) for s in schemes}

    # One call per batch, so a batch's arrays are freed before the next
    # batch allocates its own.
    def add_batch(start: int, count: int) -> None:
        dh = engine.path_increments(seed, start, count)
        log_fix = engine.log_states(schemes, dh, grid.tenor_indices[1:])
        for scheme in schemes:
            sums[scheme].add(*scheme_payoffs(engine, instruments,
                                             log_fix[scheme]))

    for start in range(0, n_paths, DEFAULT_BATCH):
        add_batch(start, min(DEFAULT_BATCH, n_paths - start))
    return {s: sums[s].estimates(seed, s) for s in schemes}


# ---------------------------------------------------------------------------
# Scheme comparison
# ---------------------------------------------------------------------------

@dataclass
class ComparisonCell:
    """One instrument-strike cell with its per-scheme estimates."""

    spec: CapletSpec | SwaptionSpec
    moneyness: float
    forward: float
    expiry: float
    estimates: dict[Scheme, McEstimate] = field(default_factory=dict)
    implied_vols: dict[Scheme, float] = field(default_factory=dict)
    iv_failures: dict[Scheme, ImpliedVolError] = field(default_factory=dict)

    @property
    def maturity_index(self) -> int:
        return self.spec.maturity_index

    @property
    def strike(self) -> float:
        return self.spec.strike

    @property
    def is_caplet(self) -> bool:
        return isinstance(self.spec, CapletSpec)

    def iv_diff(self, scheme: Scheme) -> float | None:
        if scheme in self.implied_vols and Scheme.FULL_SDE in self.implied_vols:
            return self.implied_vols[scheme] - self.implied_vols[Scheme.FULL_SDE]
        return None

    def price_diff(self, scheme: Scheme) -> float:
        return (self.estimates[scheme].price
                - self.estimates[Scheme.FULL_SDE].price)


@dataclass
class ComparisonTable:
    """All cells of one common-random-numbers comparison run."""

    cells: list[ComparisonCell]
    schemes: list[Scheme]

    def caplet_cells(self) -> list[ComparisonCell]:
        return [c for c in self.cells if c.is_caplet]

    def swaption_cells(self) -> list[ComparisonCell]:
        return [c for c in self.cells if not c.is_caplet]

    def iv_failure_lines(self) -> list[str]:
        """One line per scheme counting its caplet implied-vol failures by
        side; no lines when every caplet cell was quoted."""
        cells = self.caplet_cells()
        if not any(cell.iv_failures for cell in cells):
            return []
        lines = []
        for scheme in self.schemes:
            sides = [cell.iv_failures[scheme].side for cell in cells
                     if scheme in cell.iv_failures]
            counts = ", ".join(f"{side} {sides.count(side)}"
                               for side in IV_FAILURE_SIDES
                               if side in sides)
            lines.append(f"implied-vol failures, {scheme.value}: "
                         f"{len(sides)} of {len(cells)} caplet cells"
                         + (f" ({counts})" if counts else ""))
        return lines

    def write_csv(self, file) -> None:
        writer = csv.writer(file, lineterminator="\n")
        writer.writerow(["instrument", "maturity_index", "strike", "scheme",
                         "price", "std_error", "implied_vol",
                         "iv_diff_vs_full", "price_diff_vs_full",
                         "n_paths", "n_invalid", "seed"])
        for cell in self.cells:
            for scheme in self.schemes:
                est = cell.estimates[scheme]
                iv = cell.implied_vols.get(scheme)
                ivd = cell.iv_diff(scheme)
                is_full = scheme is Scheme.FULL_SDE
                writer.writerow([
                    cell.spec.name, cell.maturity_index,
                    f"{cell.strike:.10g}", scheme.value,
                    f"{est.price:.12g}", f"{est.std_error:.6g}",
                    "" if iv is None else f"{iv:.10g}",
                    "" if (ivd is None or is_full) else f"{ivd:.10g}",
                    "" if is_full else f"{cell.price_diff(scheme):.12g}",
                    est.n_paths, est.n_invalid, est.seed,
                ])


def write_iv_surface(table: ComparisonTable, scheme: Scheme, file) -> None:
    """Implied-vol difference surface vs the full scheme, one block per
    maturity, in a layout gnuplot's splot reads directly."""
    file.write("# caplet implied-vol difference: "
               f"{scheme.value} minus {Scheme.FULL_SDE.value}\n")
    file.write("# expiry  moneyness  iv_diff\n")
    last = None
    for cell in table.caplet_cells():
        d = cell.iv_diff(scheme)
        if d is None:
            continue
        if last is not None and cell.maturity_index != last:
            file.write("\n")
        last = cell.maturity_index
        file.write(f"{cell.expiry:.6g} {cell.moneyness:.6g} {d:.10g}\n")


def compare_schemes(setup: MarketSetup, n_paths: int, seed: int,
                    substeps: int = DEFAULT_SUBSTEPS,
                    moneyness: Sequence[float] = DEFAULT_MONEYNESS,
                    schemes: Sequence[Scheme] = (Scheme.FULL_SDE,
                                                 Scheme.FROZEN_DRIFT,
                                                 Scheme.STRONG_TAYLOR)
                    ) -> ComparisonTable:
    """Price the caplet grid and the ``DEFAULT_SWAPTION_PAIRS`` swaptions
    (accrual coupons) under every scheme on common random numbers and quote
    caplets as Black-76 implied vols."""
    if Scheme.FULL_SDE not in schemes:
        raise ValueError("comparisons are quoted against the full scheme")
    # (spec type, its tenor indices, the forward its strikes scale)
    grids = [(CapletSpec, (i,), setup.initial_rate(i))
             for i in range(1, setup.n_rates + 1)]
    grids += [(SwaptionSpec, pair, forward_swap_rate(setup, *pair))
              for pair in DEFAULT_SWAPTION_PAIRS]
    cells = [ComparisonCell(spec=kind(*dates, m * forward), moneyness=m,
                            forward=forward, expiry=setup.tenor.date(dates[0]))
             for kind, dates, forward in grids for m in moneyness]

    results = price_instruments_mc(setup, [cell.spec for cell in cells],
                                   schemes, n_paths, seed, substeps)
    for scheme in schemes:
        for cell, est in zip(cells, results[scheme]):
            cell.estimates[scheme] = est

    # One inversion for every caplet cell under every scheme, cell-major.
    quoted = [(cell, scheme) for cell in cells if cell.is_caplet
              for scheme in schemes]
    vols, failures = black76_implied_vols(
        [cell.estimates[scheme].price for cell, scheme in quoted],
        [cell.forward for cell, _ in quoted],
        [cell.strike for cell, _ in quoted],
        [cell.expiry for cell, _ in quoted],
        [setup.curve.bond(cell.maturity_index + 1) for cell, _ in quoted],
        [setup.tenor.accrual(cell.maturity_index) for cell, _ in quoted])
    for j, (cell, scheme) in enumerate(quoted):
        if j in failures:
            cell.iv_failures[scheme] = failures[j]
        else:
            cell.implied_vols[scheme] = float(vols[j])

    return ComparisonTable(cells=cells, schemes=list(schemes))
