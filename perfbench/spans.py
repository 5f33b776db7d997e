"""Spans recorded around the program's layers, from outside the program.

:func:`instrument` swaps wrappers onto the public functions and methods of
``market``, ``drift``, ``simulate``, ``pricing``, ``acceptance`` and ``cli``
(class attributes, module globals, and the names other modules imported) and
returns a function that puts the originals back.  Spans stay in memory until
the run ends.  A span's self time is its duration minus the part of it that
its child spans cover.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

# acceptance function -> criterion number; the shared comparison run is
# charged to criterion 5, as acceptance itself does.
CRITERIA = {
    "criterion_martingale_mean": 1,
    "criterion_last_rate_caplet_oracle": 2,
    "criterion_scheme_coincidence": 3,
    "criterion_drift_route_agreement": 4,
    "build_comparison": 5,
    "criterion_taylor_iv_accuracy": 5,
    "criterion_frozen_iv_pattern": 6,
    "criterion_swaption_consistency": 7,
    "criterion_unit_property_suite": 8,
}
SCHEMES = ("full", "frozen", "taylor")

# metric -> spans whose self time it sums.
SELF_TIME_METRICS = {
    "market.load_validate_s": ("market.load", "market.validate"),
    "drift.build_s": ("drift.build",),
    "drift.step_drift_s": ("drift.step_drift",),
    "drift.quadrature_s": ("drift.quadrature",),
    "simulate.increments_s": ("simulate.increments",),
    "simulate.fixings_s": ("simulate.fixings",),
    "pricing.payoff_s": ("pricing.price_instruments_mc",),
    "pricing.iv_s": ("pricing.iv",),
    "pricing.oracle_s": ("pricing.oracle",),
    "cli.self_s": ("cli.main",),
}


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    for marker, u in (("_frac", "ratio"), ("_calls", "count"),
                      ("iv_fail", "count"),
                      ("ns_per_path_rate", "ns/path-rate"),
                      ("us_per_path", "us/path"), ("traj_bytes", "bytes"),
                      ("speedup", "ratio")):
        if marker in metric:
            return u
    return "s"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder for single-threaded jobs."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def begin(self, name: str) -> Span:
        span = Span(name, time.perf_counter(),
                    parent=self._stack[-1] if self._stack else None)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for idx, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for a, b in sorted(children[idx]):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out.append((s.end - s.start) - covered)
    return out


def _wrap(tracer: Tracer, fn, name: str, measure=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as err:
            span.attrs["error"] = type(err).__name__
            raise
        finally:
            tracer.end(span)
        if measure is not None:
            span.attrs.update(measure(args, result))
        return result
    return wrapper


def _step_drift_work(args, result) -> dict:
    evaluator, k, z = args[0], args[1], args[2]
    active = int(np.count_nonzero(evaluator.step_vols[k]))
    return {"path_rates": z.shape[0] * active}


def _evolve_work(args, result) -> dict:
    return {"scheme": args[1].value, "bytes": int(result.nbytes)}


def _increments_work(args, result) -> dict:
    return {"paths": result.shape[0]}


def instrument(tracer: Tracer):
    """Wrap the program's layer boundaries; returns (undo, names missing).

    A target the program no longer has is skipped and reported, so a later
    refactor shows up as a missing name rather than a crash.
    """
    from levylibor import acceptance, cli, drift, market, pricing, simulate

    engine, evaluator = simulate.SimulationEngine, drift.DriftEvaluator
    targets = [
        (market, "load_setup", "market.load", None),
        (market, "bundled_setup", "market.load", None),
        (market, "validate_setup", "market.validate", None),
        (cli, "load_setup", "market.load", None),
        (cli, "bundled_setup", "market.load", None),
        (cli, "validate_setup", "market.validate", None),
        (acceptance, "bundled_setup", "market.load", None),
        (acceptance, "validate_setup", "market.validate", None),
        (evaluator, "__init__", "drift.build", None),
        (evaluator, "step_drift", "drift.step_drift", _step_drift_work),
        (drift, "drift_quadrature", "drift.quadrature", None),
        (acceptance, "drift_quadrature", "drift.quadrature", None),
        (engine, "__init__", "simulate.engine_init", None),
        (engine, "path_increments", "simulate.increments", _increments_work),
        (engine, "evolve", "simulate.evolve", _evolve_work),
        (engine, "fixings", "simulate.fixings", None),
        (engine, "valid_mask", "simulate.fixings", None),
        (pricing, "price_instruments_mc", "pricing.price_instruments_mc", None),
        (cli, "price_instruments_mc", "pricing.price_instruments_mc", None),
        (pricing, "compare_schemes", "pricing.compare_schemes", None),
        (cli, "compare_schemes", "pricing.compare_schemes", None),
        (acceptance, "compare_schemes", "pricing.compare_schemes", None),
        (pricing, "black76_implied_vol", "pricing.iv", None),
        (acceptance, "black76_implied_vol", "pricing.iv", None),
        (pricing, "caplet_price_last_rate", "pricing.oracle", None),
        (acceptance, "caplet_price_last_rate", "pricing.oracle", None),
        (acceptance, "run_all", "acceptance.run_all", None),
        (cli, "main", "cli.main", None),
    ] + [(acceptance, fn, f"acceptance.criterion.{n}", None)
         for fn, n in CRITERIA.items()]

    saved, missing = [], []
    for owner, attr, name, measure in targets:
        original = owner.__dict__.get(attr)
        if original is None:
            missing.append(f"{owner.__name__}.{attr}")
            continue
        saved.append((owner, attr, original))
        setattr(owner, attr, _wrap(tracer, original, name, measure))

    def undo() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return undo, missing


def layer_metrics(spans: list[Span], n_jobs: int, job_total_s: float) -> dict:
    """Per-layer metrics per job from the spans of ``n_jobs`` traced jobs.

    ``unaccounted_s`` is job wall time not covered by any self time reported
    here: engine set-up bookkeeping, comparison and acceptance glue, and the
    wrappers themselves.
    """
    own = self_times(spans)
    total = defaultdict(float)
    count = defaultdict(int)
    duration = defaultdict(float)
    attr_sum = defaultdict(float)
    for s, t in zip(spans, own):
        key = s.name
        if s.name == "simulate.evolve":
            key = f"simulate.evolve.{s.attrs.get('scheme')}"
            attr_sum["traj_bytes"] += s.attrs.get("bytes", 0)
        total[key] += t
        count[key] += 1
        duration[key] += s.end - s.start
        attr_sum["path_rates"] += s.attrs.get("path_rates", 0)
        attr_sum["paths"] += s.attrs.get("paths", 0)
        if s.name == "pricing.iv" and "error" in s.attrs:
            attr_sum["iv_fail"] += 1

    out = {metric: sum(total[n] for n in names) / n_jobs
           for metric, names in SELF_TIME_METRICS.items()}
    for scheme in SCHEMES:
        out[f"simulate.evolve_s.{scheme}"] = \
            total[f"simulate.evolve.{scheme}"] / n_jobs
    out["drift.step_drift_calls"] = count["drift.step_drift"] / n_jobs
    out["drift.step_drift_ns_per_path_rate"] = (
        1e9 * total["drift.step_drift"] / attr_sum["path_rates"]
        if attr_sum["path_rates"] else 0.0)
    out["drift.quadrature_calls"] = count["drift.quadrature"] / n_jobs
    out["simulate.increments_us_per_path"] = (
        1e6 * total["simulate.increments"] / attr_sum["paths"]
        if attr_sum["paths"] else 0.0)
    out["simulate.traj_bytes"] = attr_sum["traj_bytes"] / n_jobs
    out["pricing.iv_calls"] = count["pricing.iv"] / n_jobs
    out["pricing.iv_fail"] = attr_sum["iv_fail"] / n_jobs
    for n in sorted(set(CRITERIA.values())):
        out[f"acceptance.criterion_s.{n}"] = \
            duration[f"acceptance.criterion.{n}"] / n_jobs
    accounted = sum(out[m] for m in SELF_TIME_METRICS) + sum(
        out[f"simulate.evolve_s.{scheme}"] for scheme in SCHEMES)
    out["unaccounted_s"] = job_total_s / n_jobs - accounted
    return out
