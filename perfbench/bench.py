"""One benchmark run: set-up timing, the job loop, checks and metrics.

Imported by run.py once the program is importable.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy
from levylibor import cli
from levylibor.drift import DriftEvaluator
from levylibor.market import setup_from_dict, validate_setup
from levylibor.pricing import (DEFAULT_MONEYNESS, black76_implied_vol,
                               caplet_price_last_rate)
from levylibor.simulate import SimulationEngine, build_grid

import host
import outputs
import spans
from workloads import (SUBSTEPS, WORKLOADS, Workload, job_argv, load,
                       setup_sha256, synthetic_setup, write_setup_file)

MIN_JOBS = 2
# One set-up round before the jobs and one before each job, so set-up samples
# span the run as the jobs do.  A round repeats the set-up until it has taken
# SETUP_ROUND_S: one sample when a set-up takes seconds, about twelve when it
# takes milliseconds.
SETUP_ROUND_S = 0.3
SWEEP_RATES = (9, 10, 12, 14)
SWEEP_PATHS = 1024
SWEEP_REPEATS = 3
END_TO_END = {"job_s": "s", "setup_s": "s", "paths_per_s": "paths/s",
              "time_to_se_s": "s", "peak_rss_mb": "MiB"}
# The metrics BENCHMARK.json bounds.  time_to_se_s and the failure
# fractions are among its per-layer metrics, from the traced run;
# README.md says why they are not bounded.
GATED = ("job_s", "setup_s", "paths_per_s", "peak_rss_mb")
FRACTIONS = ("invalid_path_frac", "iv_fail_frac", "criteria_fail_frac")


@dataclass
class Job:
    seconds: float
    code: int | None
    stdout: str
    files: dict
    # Host factor over the job (host.factor); 1 when not calibrated.
    factor: float = 1.0

    @property
    def ref_seconds(self) -> float:
        return self.seconds / self.factor


class HostClock:
    """Calibration rounds between measured steps, so each step's host
    factor comes from the rounds right before and right after it."""

    def __init__(self) -> None:
        # The first rounds of a process run slow; one is left out.
        host.calibration_round()
        self.rounds = [host.calibration_round()]

    def measure(self, fn):
        """``fn()`` and the host factor over it."""
        result = fn()
        self.rounds.append(host.calibration_round())
        return result, host.factor(self.rounds[-2], self.rounds[-1])


def run_job(argv: list[str], out_dir: Path) -> Job:
    out_dir.mkdir()
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = cli.main(argv)
    except SystemExit as err:  # argparse rejected the command line
        code = err.code if isinstance(err.code, int) else 2
    except Exception:  # a crash is a failed job, reported with its traceback
        buf.write(traceback.format_exc())
        code = None
    seconds = time.perf_counter() - start
    return Job(seconds, code, buf.getvalue(), outputs.read_outputs(out_dir))


def run_jobs(argv_for, jobs_dir: Path, seconds: float, min_jobs: int,
             before_each=None, clock: HostClock | None = None) -> list[Job]:
    """At least ``min_jobs`` jobs, then more until the jobs have taken
    ``seconds`` of wall time.  ``before_each`` runs before every job, off
    that clock; with a ``clock`` every job gets its host factor."""
    jobs: list[Job] = []
    while len(jobs) < min_jobs or sum(j.seconds for j in jobs) < seconds:
        if before_each is not None:
            before_each()
        out = jobs_dir / f"job{len(os.listdir(jobs_dir))}"
        if clock is None:
            jobs.append(run_job(argv_for(out), out))
        else:
            job, factor = clock.measure(lambda: run_job(argv_for(out), out))
            job.factor = factor
            jobs.append(job)
    return jobs


def job_ok(w: Workload, job: Job) -> bool:
    """reproduce-paper exits 1 when a criterion fails; that verdict is
    counted in criteria_fail_frac, not as a failed job."""
    if w.command == "reproduce-paper" and job.code == 1:
        return outputs.criteria_failures(job.stdout) is not None
    return job.code == 0


def time_setup(setup_file: Path | None) -> float:
    """load + validate + engine build, timed together."""
    start = time.perf_counter()
    setup = load(setup_file)
    if not validate_setup(setup).passed:
        raise ValueError("benchmark setup failed validation")
    SimulationEngine(setup, build_grid(setup.tenor, SUBSTEPS))
    return time.perf_counter() - start


def setup_round(setup_file: Path | None) -> list[float]:
    """Set-up timings taken back to back until they add up to
    SETUP_ROUND_S; at least one."""
    times = [time_setup(setup_file)]
    while sum(times) < SETUP_ROUND_S:
        times.append(time_setup(setup_file))
    return times


def oracle_prices(setup) -> list[float]:
    """Quadrature prices of the last-rate caplets on the CLI's strike grid."""
    forward = setup.initial_rate(setup.n_rates)
    return [caplet_price_last_rate(setup, m * forward)
            for m in DEFAULT_MONEYNESS]


def reference_se_iv(w: Workload, setup, rows: list[dict]) -> float:
    """Standard error of the reference caplet (at the money, middle rate,
    the workload's scheme) in implied-vol units."""
    rate = (setup.n_rates + 1) // 2
    row = outputs.caplet_rows(rows, rate, w.scheme)[DEFAULT_MONEYNESS.index(1.0)]
    forward = setup.initial_rate(rate)
    strike = float(row["strike"])
    expiry = setup.tenor.date(rate)
    discount = setup.curve.bond(rate + 1)
    accrual = setup.tenor.accrual(rate)
    vol = black76_implied_vol(float(row["price"]), forward, strike, expiry,
                              discount, accrual)
    vega = outputs.black76_vega(forward, strike, vol, expiry, discount,
                                accrual)
    return float(row["std_error"]) / vega


def evaluate(w: Workload, setup, jobs: list[Job], oracle) -> dict:
    """Output checks and failure accounting over one run's jobs."""
    failed = [k for k, job in enumerate(jobs, 1) if not job_ok(w, job)]
    errors = [f"job {k} failed (exit {jobs[k - 1].code}): "
              f"{jobs[k - 1].stdout.strip()[-400:]}" for k in failed]
    result = {"errors": errors, "failed": len(failed), "fractions": {},
              "se_iv": None}
    if failed:
        return result
    errors += outputs.check_identical([job.files for job in jobs])
    if w.csv_name not in jobs[0].files:
        errors.append(f"job 1 wrote no {w.csv_name}")
        return result
    rows = outputs.parse_rows(jobs[0].files[w.csv_name])
    last = setup.n_rates
    if oracle is not None:
        errors += outputs.check_oracle(rows, last, oracle)
    if w.command == "compare":
        errors += outputs.check_crn_identity(rows, last)
    fractions = result["fractions"]
    fractions["invalid_path_frac"] = outputs.invalid_paths(rows, w.paths)
    if w.command == "compare":
        fractions["iv_fail_frac"] = outputs.iv_failures(rows)
    if w.command == "reproduce-paper":
        fractions["criteria_fail_frac"] = \
            outputs.criteria_failures(jobs[0].stdout)
        # Most of that job is fixed work that does not scale with paths,
        # so time to a standard error means nothing there.
        return result
    try:
        result["se_iv"] = reference_se_iv(w, setup, rows)
    except ValueError as err:
        errors.append(f"reference caplet has no implied vol: {err}")
    return result


def rates_sweep() -> dict:
    """Drift build time and per path-rate step cost against tenor length."""
    out = {}
    for n in SWEEP_RATES:
        setup = setup_from_dict(synthetic_setup(n))
        grid = build_grid(setup.tenor, SUBSTEPS)
        start = time.perf_counter()
        evaluator = DriftEvaluator(setup, grid)
        out[f"drift.build_s.n{n}"] = time.perf_counter() - start
        # Step 0 has every rate alive.
        z = np.repeat(setup.log_initial_rates[None, :], SWEEP_PATHS, axis=0)
        steps = []
        for _ in range(SWEEP_REPEATS):
            start = time.perf_counter()
            evaluator.step_drift(0, z)
            steps.append(time.perf_counter() - start)
        out[f"drift.step_drift_ns_per_path_rate.n{n}"] = \
            1e9 * statistics.median(steps) / (SWEEP_PATHS * n)
    return out


def threads_sweep(seed: int, tmp: Path) -> tuple[float, str]:
    """crn-compare job time at --threads 1 over --threads 2, untraced."""
    w = WORKLOADS["crn-compare"]
    times = {}
    for threads in (1, 2):
        out = tmp / f"threads{threads}"
        job = run_job(job_argv(w, seed, None, out)
                      + ["--threads", str(threads)], out)
        if job.code != 0:
            return 1.0, (f"--threads {threads} failed (exit {job.code}); "
                         "speedup reported as 1")
        times[threads] = job.seconds
    return times[1] / times[2], ""


def environment(root: Path) -> dict:
    cpu = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown"
    with contextlib.suppress(OSError):
        ref = (root / ".git" / "HEAD").read_text().strip()
        commit = ((root / ".git" / ref[5:]).read_text().strip()
                  if ref.startswith("ref: ") else ref)
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "commit": commit}


def end_to_end(w: Workload, setups: list[tuple[float, float]],
               jobs: list[Job], checked: dict) -> tuple[dict, list[str]]:
    """Summaries of every end-to-end metric, and their report lines.

    Times are in reference seconds (host.py); ``setups`` holds (wall
    seconds, host factor) pairs.  The wall-time medians and the host factor
    are reported beside them.
    """
    ref_setups = [t / f for t, f in setups]
    samples = {
        "job_s": [j.ref_seconds for j in jobs],
        "setup_s": ref_setups,
        "paths_per_s": [w.paths / j.ref_seconds for j in jobs],
        "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0],
    }
    if checked["se_iv"] is not None:
        setup_s = statistics.median(ref_setups)
        samples["time_to_se_s"] = [
            outputs.time_to_se(setup_s, j.ref_seconds, checked["se_iv"])
            for j in jobs]
    summaries = {name: outputs.summarize(v) for name, v in samples.items()}
    summaries["wall"] = {
        "job_s": statistics.median(j.seconds for j in jobs),
        "setup_s": statistics.median(t for t, _ in setups),
        "host_factor": statistics.median(j.factor for j in jobs)}
    lines = []
    for name, unit in END_TO_END.items():
        if name in summaries:
            s = summaries[name]
            tail = ("tail n/a" if s["tail"] is None else
                    f"p{s['tail_pct']:.0f} {s['tail']:.6g}")
            lines.append(f"{name:<20} median {s['median']:.6g} {unit:<8} "
                         f"{tail}  n={s['n']}")
    for name, value in checked["fractions"].items():
        if value is not None:
            bad, total = value
            lines.append(f"{name:<20} {bad / total:.6g} ratio "
                         f"({bad} of {total})")
    wall = summaries["wall"]
    lines.append(f"wall time            job_s median {wall['job_s']:.6g} s, "
                 f"setup_s median {wall['setup_s']:.6g} s, host factor "
                 f"median {wall['host_factor']:.4g}")
    return summaries, lines


def traced_run(w: Workload, seed: int, seconds: float, argv_for,
               jobs_dir: Path, tmp: Path, setup_file: Path | None,
               record: dict):
    """Untraced jobs and a set-up round, traced jobs for ``seconds``, then
    the sweeps.  The first untraced job is a warm-up."""
    untraced = run_jobs(argv_for, jobs_dir, 0.0, 1 + MIN_JOBS)
    setups = setup_round(setup_file)
    tracer = spans.Tracer()
    undo, missing = spans.instrument(tracer)
    try:
        traced = run_jobs(argv_for, jobs_dir, seconds, 1)
    finally:
        undo()
    metrics = spans.layer_metrics(tracer.spans, len(traced),
                                  sum(j.seconds for j in traced))
    job_s = statistics.median(j.seconds for j in untraced[1:])
    metrics["trace.overhead_s"] = (
        statistics.median(j.seconds for j in traced) - job_s)
    metrics.update(rates_sweep())
    speedup, note = threads_sweep(seed, tmp)
    metrics["pricing.threads2_speedup"] = speedup
    notes = [f"note: {note}"] if note else []
    if missing:
        notes.append("not instrumented: " + ", ".join(missing))
    record["setups"] = setups
    record["spans"] = [[s.name, s.start, s.end, s.parent, s.attrs]
                       for s in tracer.spans]
    return untraced + traced, statistics.median(setups), job_s, metrics, notes


def accuracy_metrics(checked: dict, setup_s: float, job_s: float) -> dict:
    """time_to_se_s and the failure fractions of the traced run, 0 where
    one does not apply to the workload."""
    se_iv = checked["se_iv"]
    out = {"time_to_se_s": (0.0 if se_iv is None else
                            outputs.time_to_se(setup_s, job_s, se_iv))}
    for name in FRACTIONS:
        value = checked["fractions"].get(name)
        out[name] = value[0] / value[1] if value and value[1] else 0.0
    return out


def run(name: str, seed: int, seconds: float, trace: bool, root: Path) -> int:
    w = WORKLOADS.get(name)
    if w is None:
        print(f"error: unknown workload {name!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    record = {"workload": w.name, "seed": seed, "trace": int(trace),
              "environment": environment(root)}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
        tmp = Path(tmp)
        setup_file = write_setup_file(w, tmp)
        setup = load(setup_file)
        record["setup_sha256"] = setup_sha256(setup)
        jobs_dir = tmp / "jobs"
        jobs_dir.mkdir()

        def argv_for(out: Path) -> list[str]:
            return job_argv(w, seed, setup_file, out)

        record["argv"] = argv_for(Path("OUT"))
        oracle = (None if w.command == "reproduce-paper"
                  else oracle_prices(setup))
        if trace:
            jobs, setup_s, job_s, layers, notes = traced_run(
                w, seed, seconds, argv_for, jobs_dir, tmp, setup_file, record)
            checked = evaluate(w, setup, jobs, oracle)
            layers.update(accuracy_metrics(checked, setup_s, job_s))
            lines = [f"{name:<40} {value:.6g} {spans.unit(name)}"
                     for name, value in layers.items()] + notes
            metrics = {name: {"value": value, "unit": spans.unit(name)}
                       for name, value in layers.items()}
        else:
            clock = HostClock()
            setups: list[tuple[float, float]] = []

            def add_setups() -> None:
                times, factor = clock.measure(lambda: setup_round(setup_file))
                setups.extend((t, factor) for t in times)

            add_setups()
            jobs = run_jobs(argv_for, jobs_dir, seconds, MIN_JOBS, add_setups,
                            clock)
            checked = evaluate(w, setup, jobs, oracle)
            summaries, lines = end_to_end(w, setups, jobs, checked)
            record.update(summaries=summaries, setups=setups,
                          factors=[j.factor for j in jobs],
                          calibration=clock.rounds)
            metrics = {name: {"value": summaries[name]["median"],
                              "unit": END_TO_END[name]} for name in GATED}

    correct = not checked["errors"]
    record.update(jobs=[j.seconds for j in jobs], se_iv=checked["se_iv"],
                  errors=checked["errors"], fractions=checked["fractions"],
                  metrics=metrics)
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{w.name}-seed{seed}-trace{int(trace)}.json"
    out_file.write_text(json.dumps(record, indent=1))

    print(f"workload {w.name}  seed {seed}  trace {int(trace)}  "
          f"jobs {len(jobs)}  setup sha256 {record['setup_sha256']}")
    for line in lines:
        print(line)
    for err in checked["errors"]:
        print(f"CHECK FAILED: {err}")
    print(json.dumps({"correct": correct, "attempted": len(jobs),
                      "failed": checked["failed"], "metrics": metrics}))
    return 0 if correct else 1
