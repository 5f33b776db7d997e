"""Market inputs: tenor grid, discount curve, volatility loadings.

A :class:`MarketSetup` bundles everything the simulator consumes: the tenor
structure ``T_0 < T_1 < ... < T_(N+1)`` with the terminal date last, the
initial discount curve, one volatility loading per forward rate and the
NIG law of the driving process.  Rates are indexed 1..N throughout the
public interface; rate ``i`` fixes at ``T_i`` and accrues over
``[T_i, T_(i+1)]``.
"""

from __future__ import annotations

import bisect
import json
import math
import numbers
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .driver import ExponentialMomentBound, NigParams, nig_mean_rate

BUNDLED_SETUP = "paper_feb2002"

# The drift's jump term is computed on a lattice of summed loadings (see
# levylibor.drift).  Loading levels are read in quanta of 1/LOADING_QUANTA;
# the lattice step is their greatest common step and the lattice may hold
# at most MAX_LATTICE_POINTS points.  Every loading with three decimals fits
# while the loadings sum to at most 2.047.
LOADING_QUANTA = 10**6
MAX_LATTICE_POINTS = 2048


@dataclass(frozen=True)
class TenorStructure:
    """Increasing payment dates ``T_0 < ... < T_(N+1)``; N forward rates."""

    dates: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.dates) < 3:
            raise ValueError("need at least three tenor dates (one rate)")
        if self.dates[0] < 0.0:
            raise ValueError("first tenor date must be nonnegative")
        if any(x >= y for x, y in zip(self.dates, self.dates[1:])):
            raise ValueError("tenor dates must be strictly increasing")

    @property
    def n_rates(self) -> int:
        return len(self.dates) - 2

    def date(self, k: int) -> float:
        """``T_k`` for ``k`` in 0..N+1."""
        return self.dates[k]

    def accrual(self, k: int) -> float:
        """``delta_k = T_(k+1) - T_k`` for ``k`` in 0..N."""
        return self.dates[k + 1] - self.dates[k]

    @property
    def accruals(self) -> np.ndarray:
        out = np.diff(np.asarray(self.dates))
        out.setflags(write=False)
        return out


@dataclass(frozen=True)
class DiscountCurve:
    """Initial bond prices ``B(0, T_k)`` for ``k`` in 1..N+1; B(0, T_0) = 1 is
    implied only when ``T_0 = 0``."""

    bonds: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.bonds) < 2:
            raise ValueError("need at least two bond prices")

    def bond(self, k: int) -> float:
        """``B(0, T_k)`` for ``k`` in 1..N+1."""
        if k < 1:
            raise IndexError("bond prices are quoted for k >= 1")
        return self.bonds[k - 1]


@dataclass(frozen=True)
class VolatilityStructure:
    """Piecewise-constant loading per rate: ``levels[i-1][j]`` applies to rate
    ``i`` on ``[T_j, T_(j+1))`` for ``j < i``; the loading is zero past the
    fixing date ``T_i``."""

    tenor: TenorStructure
    levels: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        if len(self.levels) != self.tenor.n_rates:
            raise ValueError("need one loading per rate")
        for i, lv in enumerate(self.levels, start=1):
            if len(lv) != i:
                raise ValueError(
                    f"rate {i} needs {i} interval levels (one per accrual "
                    f"interval before its fixing), got {len(lv)}"
                )

    def loadings(self, s: float) -> np.ndarray:
        """Loadings of rates 1..N at time ``s``, shape (N,); a rate's loading
        is zero before 0 and past its fixing ``T_i``, and at ``T_i`` it is
        still the level of its last interval."""
        j = bisect.bisect_right(self.tenor.dates, s) - 1
        return np.array([lv[min(j, i - 1)] if 0.0 <= s <= self.tenor.date(i)
                         else 0.0 for i, lv in enumerate(self.levels, 1)],
                        dtype=float)

    @property
    def per_rate_sup(self) -> tuple[float, ...]:
        """Sup over time of the absolute loading, one per rate."""
        return tuple(max(abs(v) for v in lv) for lv in self.levels)


def loading_lattice(vols: VolatilityStructure) -> tuple[int, int]:
    """Step of the loading lattice, in quanta, and its width in points.

    The step is the greatest common divisor of every loading level counted
    in quanta of ``1/LOADING_QUANTA``; the width is the number of lattice
    points between the most negative and the most positive sum of loadings
    the rates can reach together.  Negative loadings are allowed.

    Raises
    ------
    ValueError
        If a level is not a whole number of quanta, or the width exceeds
        ``MAX_LATTICE_POINTS``.
    """
    step = 0
    sups = []
    for i, levels in enumerate(vols.levels, start=1):
        counts = []
        for v in levels:
            scaled = v * LOADING_QUANTA
            if not math.isfinite(scaled) or abs(scaled - round(scaled)) > 1e-6:
                raise ValueError(
                    f"loading {v!r} of rate {i} is not a multiple of "
                    f"{1 / LOADING_QUANTA:g}")
            counts.append(abs(round(scaled)))
            step = math.gcd(step, counts[-1])
        sups.append(max(counts))
    if step == 0:
        return 1, 1
    points = 1 + sum(sups) // step
    if points > MAX_LATTICE_POINTS:
        raise ValueError(
            f"loadings on a {step / LOADING_QUANTA:g} lattice need {points} "
            f"points, more than the {MAX_LATTICE_POINTS} allowed")
    return step, points


def _bootstrap(curve: DiscountCurve, tenor: TenorStructure) -> np.ndarray:
    """Initial forward rates ``(B(0, T_i)/B(0, T_(i+1)) - 1)/delta_i``,
    ``i`` in 1..N, without economic checks (:func:`validate_setup` reports
    those): bad curves yield rates <= 0, or non-finite ones where a bond
    price is zero or so small that the ratio overflows."""
    bonds = np.asarray(curve.bonds, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return (bonds[:-1] / bonds[1:] - 1.0) / tenor.accruals[1:]


@dataclass(frozen=True)
class MarketSetup:
    """Immutable bundle of market data and the driver's NIG law.

    Construction only enforces structural consistency (lengths, index
    ranges); economic conditions are the business of :func:`validate_setup`,
    which reports rather than throws, so malformed markets can be loaded and
    diagnosed.
    """

    tenor: TenorStructure
    curve: DiscountCurve
    vols: VolatilityStructure
    nig: NigParams
    em: ExponentialMomentBound
    name: str = ""
    initial_rates: np.ndarray = field(init=False, repr=False, compare=False)
    log_initial_rates: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.curve.bonds) != self.tenor.n_rates + 1:
            raise ValueError("curve length does not match tenor structure")
        if self.vols.tenor.dates != self.tenor.dates:
            raise ValueError("volatility structure built on a different tenor")
        rates = _bootstrap(self.curve, self.tenor)
        with np.errstate(invalid="ignore", divide="ignore"):
            logs = np.log(rates)
        rates.setflags(write=False)
        logs.setflags(write=False)
        object.__setattr__(self, "initial_rates", rates)
        object.__setattr__(self, "log_initial_rates", logs)

    @property
    def n_rates(self) -> int:
        return self.tenor.n_rates

    def initial_rate(self, i: int) -> float:
        """``L(0, T_i)`` for ``i`` in 1..N."""
        if not 1 <= i <= self.n_rates:
            raise IndexError(f"rate index {i} outside 1..{self.n_rates}")
        return float(self.initial_rates[i - 1])


@dataclass(frozen=True)
class ValidationItem:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class SetupValidationReport:
    """Per-condition outcome of market validation; machine readable."""

    items: tuple[ValidationItem, ...]

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)

    def raise_on_failure(self) -> None:
        """Raise ValueError with the failed items' details joined by
        ``"; "``; return when every item passed."""
        failed = [item.detail for item in self.items if not item.passed]
        if failed:
            raise ValueError("; ".join(failed))

    def item(self, name: str) -> ValidationItem:
        for it in self.items:
            if it.name == name:
                return it
        raise KeyError(name)

    def lines(self) -> list[str]:
        out = []
        for item in self.items:
            tag = "ok" if item.passed else "FAIL"
            out.append(f"[{tag}] {item.name}: {item.detail}")
        return out


def validate_setup(setup: MarketSetup) -> SetupValidationReport:
    """Run every economic admissibility check; never throws on bad data."""
    items = []

    bonds = [setup.curve.bond(k) for k in range(1, setup.n_rates + 2)]
    positive = all(b > 0.0 for b in bonds)
    decreasing = all(x > y for x, y in zip(bonds, bonds[1:]))
    if positive and decreasing:
        detail = "bond prices positive and strictly decreasing"
    elif not positive:
        k = 1 + next(j for j, b in enumerate(bonds) if not b > 0.0)
        detail = f"bond price B(0, T_{k}) = {bonds[k - 1]} is not positive"
    else:
        k = 1 + next(j for j in range(len(bonds) - 1)
                     if bonds[j] <= bonds[j + 1])
        detail = (f"B(0, T_{k}) = {bonds[k - 1]} <= "
                  f"B(0, T_{k + 1}) = {bonds[k]}")
    items.append(ValidationItem("curve_order", positive and decreasing, detail))

    rates = setup.initial_rates
    rates_ok = bool(np.all((rates > 0.0) & (rates < math.inf)))
    lo, hi = float(np.min(rates)), float(np.max(rates))
    items.append(ValidationItem(
        "initial_rates_positive", rates_ok,
        f"initial forward rates in [{lo:.6g}, {hi:.6g}]"))

    # The drift evaluates cumulants at sums of loadings, all inside
    # [-M, M] when the summed sups are at most M.  The NIG law has finite
    # exponential moments exactly for |beta + u| <= alpha, boundary
    # included, so (1 + epsilon) * M must not pass alpha - |beta|.
    vol_sum = float(np.sum(setup.vols.per_rate_sup))
    bound = setup.em.bound
    items.append(ValidationItem(
        "volatility_sum", vol_sum <= bound,
        f"summed loadings {vol_sum:.6g} vs bound {bound:.6g}"))
    required = (1.0 + setup.em.slack) * bound
    halfwidth = setup.nig.alpha - abs(setup.nig.beta)
    items.append(ValidationItem(
        "moment_domain", required <= halfwidth,
        f"required range {required:.6g} vs domain halfwidth {halfwidth:.6g}"))

    try:
        step, points = loading_lattice(setup.vols)
    except ValueError as err:
        items.append(ValidationItem("loading_lattice", False, str(err)))
    else:
        items.append(ValidationItem(
            "loading_lattice", True,
            f"loadings on a {step / LOADING_QUANTA:g} lattice of {points} "
            f"points (at most {MAX_LATTICE_POINTS})"))

    mean = nig_mean_rate(setup.nig)
    driftless = abs(mean) <= 1e-12
    items.append(ValidationItem(
        "driver_driftless", driftless,
        "driver has zero mean rate" if driftless else
        f"driver mean rate {mean:.6g} != 0; the "
        "terminal-measure construction needs a driftless driver"))

    return SetupValidationReport(items=tuple(items))


# ---------------------------------------------------------------------------
# Setup files
# ---------------------------------------------------------------------------

def _field(raw, key: str, where: str = ""):
    """``raw[key]``, or ValueError naming the key when ``raw`` is not a
    mapping or lacks it."""
    path = f"{where}.{key}" if where else key
    if not isinstance(raw, dict):
        what = f"setup key {where!r}" if where else "a setup"
        raise ValueError(f"{what} must be a mapping, "
                         f"got {type(raw).__name__}")
    if key not in raw:
        raise ValueError(f"setup key {path!r} is missing")
    return raw[key]


def _number(value, path: str) -> float:
    """A finite number, or ValueError naming the key it came from."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"setup key {path!r} must be a number, "
                         f"got {value!r}")
    out = float(value)
    if not math.isfinite(out):
        raise ValueError(f"setup key {path!r} must be finite, got {out}")
    return out


def _numbers(value, path: str) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"setup key {path!r} must be a list of numbers, "
                         f"got {value!r}")
    return tuple(_number(v, path) for v in value)


def setup_from_dict(raw: dict, name: str = "") -> MarketSetup:
    """Build a setup from the documented mapping layout.

    Required keys: ``tenor_dates`` (T_0..T_(N+1)), ``bond_prices`` (T_1..
    T_(N+1)), ``vols`` (per rate: a number, or one number per accrual
    interval before the fixing), ``nig`` (``alpha``, ``beta``, ``delta_bar``,
    ``mu``) and ``em`` (``M``, ``epsilon``).

    Raises
    ------
    ValueError
        Naming the key, when one is missing, has the wrong type or holds a
        non-finite number, or when the pieces do not fit together.
    """
    tenor = TenorStructure(_numbers(_field(raw, "tenor_dates"),
                                    "tenor_dates"))
    curve = DiscountCurve(_numbers(_field(raw, "bond_prices"),
                                   "bond_prices"))
    spec = _field(raw, "vols")
    if not isinstance(spec, (list, tuple)):
        raise ValueError(f"setup key 'vols' must be a list, got {spec!r}")
    levels = []
    for i, entry in enumerate(spec, start=1):
        if isinstance(entry, (list, tuple)):
            levels.append(_numbers(entry, "vols"))
        else:
            levels.append(tuple([_number(entry, "vols")] * i))
    vols = VolatilityStructure(tenor, tuple(levels))
    nig = _field(raw, "nig")
    alpha = _number(_field(nig, "alpha", "nig"), "nig.alpha")
    delta = _number(_field(nig, "delta_bar", "nig"), "nig.delta_bar")
    beta = _number(nig.get("beta", 0.0), "nig.beta")
    mu = _number(nig.get("mu", 0.0), "nig.mu")
    params = NigParams(alpha=alpha, beta=beta, delta=delta, mu=mu)
    em_raw = _field(raw, "em")
    bound = _number(_field(em_raw, "M", "em"), "em.M")
    slack = _number(em_raw.get("epsilon", 0.0), "em.epsilon")
    em = ExponentialMomentBound(bound=bound, slack=slack)
    return MarketSetup(tenor=tenor, curve=curve, vols=vols,
                       nig=params, em=em,
                       name=name or str(raw.get("name", "")))


def setup_to_dict(setup: MarketSetup) -> dict:
    p = setup.nig
    return {
        "name": setup.name,
        "tenor_dates": list(setup.tenor.dates),
        "bond_prices": list(setup.curve.bonds),
        "vols": [list(lv) for lv in setup.vols.levels],
        "nig": {"alpha": p.alpha, "beta": p.beta, "delta_bar": p.delta,
                "mu": p.mu},
        "em": {"M": setup.em.bound, "epsilon": setup.em.slack},
    }


def load_setup(path: str) -> MarketSetup:
    """Read a market setup from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    return setup_from_dict(raw)


def bundled_setup(name: str = BUNDLED_SETUP) -> MarketSetup:
    """Load one of the setups shipped with the package."""
    ref = resources.files(__package__).joinpath(f"data/{name}.json")
    with ref.open("r", encoding="utf-8") as fh:
        raw = json.load(fh)
    return setup_from_dict(raw, name=name)
