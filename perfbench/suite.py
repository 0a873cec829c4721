"""Traced in-process suite: spans around the calls into each cylstable module.

The layers are the package modules (``cli``, ``rng``, ``sampling``,
``constants``, ``hilbert``, ``picard``, ``integral``, ``experiments`` and
``reporting``).  Spans are recorded by the benchmark around its calls into
them; nothing inside the package is instrumented.  Counts come from a
benchmark-side model subclass and a wrapper around numpy's Philox
constructor, through which the package builds every stream.  Each span keeps its
name, start, end and parent id in memory, and the spans are written to
``spans.jsonl`` when the suite ends.

The suite runs the same calls at the same sizes as the CLI workloads, in
three sections (pathwise, ensemble, montecarlo), plus two process-start
probes for the ``cli`` layer.  One run makes, after a warm-up at tiny
sizes, pairs of one traced and one untraced pass while ``seconds`` allow
(at least one pair).  Per-layer timings are medians over the traced
passes; the tracing overhead is the median traced pass minus the median
untraced pass (noisy on a shared host), next to the measured cost of one
span.  Exact counts (streams built, coefficient calls, sweeps,
pieces, bytes written) are taken in every pass, traced or not, and must
agree exactly between passes.
"""

from __future__ import annotations

import dataclasses
import json
import os
import statistics
import subprocess
import sys
import threading
import time
import tracemalloc
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

from cylstable.constants import c3_and_Tmax, levy_tail_mass
from cylstable.experiments import (
    isotropic_gof_report,
    moment_experiment,
    picard_convergence_experiment,
    tail_experiment,
    uniqueness_experiment,
)
from cylstable.hilbert import DiagonalModel, HSMatrix, heat_preset
from cylstable.integral import constant_integrand, refinement_experiment
from cylstable.picard import (
    SolverConfig,
    binding_time_bound,
    glue_solve,
    picard_step,
    residual,
    solve,
)
from cylstable.reporting import write_csv, write_report, write_summary
from cylstable.rng import substream
from cylstable.sampling import generate_noise_path, noise_path_to_csv, sample_isotropic

SUBSTREAM_CALLS = 2_000
CONSTANT_CALLS = 5
BOOTSTRAP = 200  # moment_experiment's default bootstrap resample count


# ------------------------------------------------------------------ tracing

class Tracer:
    """Spans kept in memory as [name, start_ns, end_ns, parent id]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), None,
                           self._open[-1] if self._open else None])
        self._open.append(sid)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[sid][2] = time.perf_counter_ns()

    def seconds(self, name: str) -> float:
        """Total duration of the spans called ``name``."""
        return sum(end - start for n, start, end, _ in self.spans if n == name) / 1e9

    def self_seconds(self) -> dict[str, float]:
        """Self time per span name: duration minus the time covered by its children.

        Spans are opened from one thread and children run one after another,
        so the children's durations never overlap.
        """
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= end - start
        totals: dict[str, float] = {}
        for (name, *_), ns in zip(self.spans, own):
            totals[name] = totals.get(name, 0.0) + ns / 1e9
        return totals


class Untraced:
    """Drop-in for :class:`Tracer` that records nothing."""

    def span(self, name: str):
        return nullcontext()


# ------------------------------------------------------------------ counters

class Counters:
    """Thread-safe event counts and the time spent in the events, summed over threads.

    Replica experiments call into the model from a thread pool.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.counts = {"streams": 0, "coef_calls": 0}
        self.ns = dict.fromkeys(self.counts, 0)

    def add(self, key: str, ns: int = 0) -> None:
        with self._lock:
            self.counts[key] += 1
            self.ns[key] += ns


@contextmanager
def counting_streams(counters: Counters):
    """Count every Philox stream built while active (the package builds all streams there)."""
    original = np.random.Philox

    def philox(*args, **kwargs):
        counters.add("streams")
        return original(*args, **kwargs)

    np.random.Philox = philox
    try:
        yield
    finally:
        np.random.Philox = original


class CountingModel(DiagonalModel):
    """Diagonal model that counts and times calls to its coefficients F and G."""

    def drift(self, x):
        start = time.perf_counter_ns()
        try:
            return super().drift(x)
        finally:
            self.counters.add("coef_calls", time.perf_counter_ns() - start)

    def diffusion_diagonal(self, x):
        start = time.perf_counter_ns()
        try:
            return super().diffusion_diagonal(x)
        finally:
            self.counters.add("coef_calls", time.perf_counter_ns() - start)


def heat_model(counters: Counters) -> DiagonalModel:
    base = heat_preset(n=8)
    model = CountingModel(**{f.name: getattr(base, f.name) for f in dataclasses.fields(base)})
    object.__setattr__(model, "counters", counters)
    return model


@contextmanager
def single_thread():
    """Run with CYLSTABLE_THREADS=1, the package's single-threaded schedule."""
    saved = os.environ.get("CYLSTABLE_THREADS")
    os.environ["CYLSTABLE_THREADS"] = "1"
    try:
        yield
    finally:
        if saved is None:
            del os.environ["CYLSTABLE_THREADS"]
        else:
            os.environ["CYLSTABLE_THREADS"] = saved


# ------------------------------------------------------------------ the suite

class Checks:
    """Correctness checks made by a pass: attempted count and failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _report_ok(checks: Checks, report) -> None:
    failed = [v.name for v in report.verdicts if not v.passed]
    checks.expect(report.passed, f"{report.name}: passed=false (failed: {failed}, "
                                 f"inconclusive={report.inconclusive})")


def _written_bytes(paths) -> int:
    return sum(Path(p).stat().st_size for p in paths)


def suite_pass(s, seed: int, tr, checks: Checks, out: Path,
               counters: Counters) -> dict[str, float]:
    """One pass over every layer; returns the exact counts and other non-span values."""
    with counting_streams(counters):
        values = _calls(s, seed, tr, counters, checks, out)
    values["rng.streams"] = counters.counts["streams"]
    values["hilbert.coef_calls"] = counters.counts["coef_calls"]
    return values


def _calls(s, seed: int, tr, counters: Counters, checks: Checks, out: Path) -> dict[str, float]:
    values: dict[str, float] = {}
    written = 0
    model = heat_model(counters)

    with tr.span("suite.pathwise"):
        with tr.span("rng.substream"):
            for i in range(SUBSTREAM_CALLS):
                substream(seed, 1, i)
        grid = np.linspace(0.0, s.path_T, s.noise_M + 1)
        with single_thread(), tr.span("sampling.generate_noise_path[threads=1]"):
            single = generate_noise_path(s.alpha, s.noise_m, grid, seed)
        with tr.span("sampling.generate_noise_path"):
            noise = generate_noise_path(s.alpha, s.noise_m, grid, seed)
        checks.expect(np.array_equal(single.increments, noise.increments),
                      "noise path differs between CYLSTABLE_THREADS=1 and the default")
        values["sampling.rows"] = noise.increments.shape[0]
        with tr.span("sampling.noise_path_to_csv"):
            noise_path_to_csv(noise)

        config = SolverConfig(alpha=s.alpha, T=s.path_T, M=s.solve_M, n=model.n, seed=seed)
        with tr.span("picard.solve"):
            path = solve(model, config)
        checks.expect(path.residual < 1e-10, f"solve residual {path.residual:.3g} >= 1e-10")
        values["picard.sweeps"] = path.iteration_count
        with tr.span("sampling.generate_noise_path[solve grid]"):
            solve_noise = generate_noise_path(s.alpha, config.noise_dim, config.grid(), seed)
        x0 = config.initial_state()
        with tr.span("picard.picard_step"):
            picard_step(model, path.states, solve_noise, x0)
        with tr.span("picard.residual"):
            again = residual(model, path, solve_noise, x0)
        checks.expect(again == path.residual, "residual of the solved path is not reproducible")
        with tr.span("reporting.write_csv"):
            columns = {"t": path.grid, **{f"x_{j + 1}": path.states[:, j]
                                          for j in range(model.n)}}
            write_csv(out / "mild_path.csv", columns, {"seed": seed})
        with tr.span("reporting.write_summary"):
            write_summary(out / "mild_path.summary",
                          {"iteration_count": path.iteration_count,
                           "residual": path.residual}, {"seed": seed})
        written += _written_bytes([out / "mild_path.csv", out / "mild_path.summary"])

        glue_config = dataclasses.replace(config, T=s.glue_T, M=s.glue_M)
        with tr.span("picard.glue_solve"):
            glued = glue_solve(model, glue_config)
        checks.expect(glued.residual < 1e-10, f"glue residual {glued.residual:.3g} >= 1e-10")
        values["picard.pieces"] = len(glued.piece_residuals)

    with tr.span("suite.ensemble"):
        with tr.span("picard.binding_time_bound"):
            horizon = 0.9 * binding_time_bound(model, s.alpha)
        config = SolverConfig(alpha=s.alpha, T=horizon, M=s.ensemble_M, n=model.n, seed=seed)
        with single_thread(), tr.span("experiments.picard_convergence_experiment[threads=1]"):
            single = picard_convergence_experiment(model, config, replicas=s.picard_replicas,
                                                   seed=seed)
        with tr.span("experiments.picard_convergence_experiment"):
            picard_report = picard_convergence_experiment(model, config,
                                                          replicas=s.picard_replicas, seed=seed)
        decay = picard_report.tables["decay"]
        checks.expect(all(np.array_equal(single.tables["decay"][k], decay[k]) for k in decay),
                      "picard experiment differs between CYLSTABLE_THREADS=1 and the default")
        _report_ok(checks, picard_report)
        with tr.span("experiments.uniqueness_experiment"):
            uniqueness_report = uniqueness_experiment(model, config,
                                                      replicas=s.uniqueness_replicas, seed=seed)
        _report_ok(checks, uniqueness_report)
        with tr.span("reporting.write_report"):
            written += _written_bytes(write_report(picard_report, out, {"seed": seed}))
            written += _written_bytes(write_report(uniqueness_report, out, {"seed": seed}))

    with tr.span("suite.montecarlo"):
        with tr.span("sampling.sample_isotropic"):
            sample_isotropic(s.alpha, 3, seed, size=s.tail_N)
        c_f, c_g = model.holder_constants()
        with tr.span("constants.c3_and_Tmax"):
            for _ in range(CONSTANT_CALLS):
                c3_and_Tmax(s.alpha, c_f, c_g)
        gamma = np.array([1.0, 0.5, 0.25])
        with tr.span("constants.levy_tail_mass"):
            for _ in range(CONSTANT_CALLS):
                levy_tail_mass(gamma, s.alpha)

        r_grid = np.geomspace(s.tail_r[0], s.tail_r[1], 13)
        with tr.span("experiments.tail_experiment"):
            tail_report = tail_experiment(HSMatrix.diagonal(gamma), s.alpha, n_samples=s.tail_N,
                                          r_grid=r_grid, seed=seed)
        _report_ok(checks, tail_report)
        exceedances = tail_report.tables["tail"]["p_hat"] * s.tail_N
        values["experiments.tail_resolved_frac"] = float(np.mean(exceedances >= 50))

        integrand = constant_integrand(HSMatrix.diagonal([1.0]), np.linspace(0.0, 1.0, 17))
        with tr.span("experiments.moment_experiment"):
            moment_report = moment_experiment(integrand, s.alpha, s.moment_p, s.moment_N,
                                              seed=seed)
        _report_ok(checks, moment_report)
        with tr.span("experiments.isotropic_gof_report"):
            gof_report = isotropic_gof_report(s.alpha, 3, s.gof_N, seed)
        _report_ok(checks, gof_report)
        with tr.span("integral.refinement_experiment"):
            refinement = refinement_experiment(lambda t: t, HSMatrix.diagonal([1.0]), s.alpha, 1.0,
                                               8, s.refine_levels, s.refine_replicas, 0.02, seed)
        checks.expect(refinement["monotone"], "refinement table is not monotone")
        with tr.span("reporting.write_report"):
            for report in (tail_report, moment_report, gof_report):
                written += _written_bytes(write_report(report, out, {"seed": seed}))

    values["reporting.bytes"] = written
    return values


def residual_peak_mb(s, seed: int) -> float:
    """Peak traced allocation of one residual evaluation at the solve size, in MiB."""
    model = heat_preset(n=8)
    config = SolverConfig(alpha=s.alpha, T=s.path_T, M=s.solve_M, n=model.n, seed=seed)
    noise = generate_noise_path(s.alpha, config.noise_dim, config.grid(), seed)
    path = solve(model, config, noise=noise)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        residual(model, path, noise, config.initial_state())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def cli_probes(tr: Tracer, src: Path, repeats: int = 3) -> dict[str, float]:
    """Bare interpreter start and ``import cylstable.cli`` start, medians of ``repeats``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))

    def start(code: str, name: str, repeats: int = repeats) -> float:
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            with tr.span(name):
                subprocess.run([sys.executable, "-c", code], env=env, check=True,
                               stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    with tr.span("suite.cli"):
        start("import cylstable.cli", "suite.cli_warmup", 1)  # bytecode compile, paid once
        interp = start("pass", "cli.interp")
        imported = start("import cylstable.cli", "cli.import")
    return {"cli.interp_s": interp, "cli.import_s": imported - interp}


def span_cost_us(count: int = 10_000) -> float:
    """Cost of opening and closing one empty span, in microseconds."""
    tracer = Tracer()
    start = time.perf_counter()
    for _ in range(count):
        with tracer.span("empty"):
            pass
    return (time.perf_counter() - start) / count * 1e6


# ------------------------------------------------------------------ the run

# Unit of every per-layer metric.  COUNTS labels the exact counts as measured
# or computed; every timing is measured.
UNITS = {
    "cli.interp_s": "s", "cli.import_s": "s",
    "rng.substream_us": "us", "rng.streams": "count", "rng.pool_speedup": "ratio",
    "sampling.noise_path_s": "s", "sampling.rows": "count", "sampling.noise_csv_s": "s",
    "sampling.isotropic_ns_per_draw": "ns",
    "constants.c3_s": "s", "constants.levy_tail_mass_s": "s",
    "hilbert.coef_calls": "count", "hilbert.coef_s": "s",
    "picard.step_s": "s", "picard.sweeps": "count", "picard.residual_s": "s",
    "picard.residual_share": "ratio", "picard.residual_peak_mb": "MiB",
    "picard.solve_s": "s", "picard.glue_s": "s", "picard.pieces": "count",
    "integral.refinement_s": "s", "integral.refinement_replica_us": "us",
    "experiments.picard_replica_ms": "ms", "experiments.uniqueness_replica_ms": "ms",
    "experiments.picard_pool_speedup": "ratio",
    "experiments.tail_s": "s", "experiments.moment_s": "s", "experiments.gof_s": "s",
    "experiments.tail_resolved_frac": "fraction", "experiments.bootstrap_mb": "MiB",
    "reporting.write_s": "s", "reporting.bytes": "bytes",
    "trace.overhead_s": "s", "trace.span_us": "us", "trace.spans": "count",
}
SELF_LAYERS = ("cli", "rng", "sampling", "constants", "picard", "integral", "experiments",
               "reporting", "suite")
UNITS.update({f"{layer}.self_s": "s" for layer in SELF_LAYERS})

COUNTS = {
    "rng.streams": "measured", "sampling.rows": "measured", "picard.sweeps": "measured",
    "picard.pieces": "measured", "hilbert.coef_calls": "measured",
    "reporting.bytes": "measured", "experiments.bootstrap_mb": "computed",
    "trace.spans": "measured",
}


def timings(tr: Tracer, s) -> dict[str, float]:
    """Per-layer timing metrics from one traced pass."""
    sec = tr.seconds
    noise_s = sec("sampling.generate_noise_path")
    picard_s = sec("experiments.picard_convergence_experiment")
    return {
        "rng.substream_us": sec("rng.substream") / SUBSTREAM_CALLS * 1e6,
        "rng.pool_speedup": sec("sampling.generate_noise_path[threads=1]") / noise_s,
        "sampling.noise_path_s": noise_s,
        "sampling.noise_csv_s": sec("sampling.noise_path_to_csv"),
        "sampling.isotropic_ns_per_draw": sec("sampling.sample_isotropic") / s.tail_N * 1e9,
        "constants.c3_s": sec("constants.c3_and_Tmax") / CONSTANT_CALLS,
        "constants.levy_tail_mass_s": sec("constants.levy_tail_mass") / CONSTANT_CALLS,
        "picard.step_s": sec("picard.picard_step"),
        "picard.residual_s": sec("picard.residual"),
        "picard.residual_share": sec("picard.residual") / sec("picard.solve"),
        "picard.solve_s": sec("picard.solve"),
        "picard.glue_s": sec("picard.glue_solve"),
        "integral.refinement_s": sec("integral.refinement_experiment"),
        "integral.refinement_replica_us":
            sec("integral.refinement_experiment") / s.refine_replicas * 1e6,
        "experiments.picard_replica_ms": picard_s / s.picard_replicas * 1e3,
        "experiments.uniqueness_replica_ms":
            sec("experiments.uniqueness_experiment") / s.uniqueness_replicas * 1e3,
        "experiments.picard_pool_speedup":
            sec("experiments.picard_convergence_experiment[threads=1]") / picard_s,
        "experiments.tail_s": sec("experiments.tail_experiment"),
        "experiments.moment_s": sec("experiments.moment_experiment"),
        "experiments.gof_s": sec("experiments.isotropic_gof_report"),
        "reporting.write_s": sum(sec(n) for n in ("reporting.write_csv",
                                                  "reporting.write_summary",
                                                  "reporting.write_report")),
    }


@dataclasses.dataclass
class SuiteReport:
    lines: list[str]
    metrics: dict
    counts: dict
    attempted: int
    failures: list[str]


def run(s, seed: int, seconds: float, out: Path, src: Path, warmup) -> SuiteReport:
    """Warm up, then traced and untraced passes in pairs while time allows."""
    checks = Checks()
    work = out / "suite"
    work.mkdir(parents=True, exist_ok=True)
    suite_pass(warmup, seed, Untraced(), Checks(), work, Counters())

    cli_tracer = Tracer()
    cli_values = cli_probes(cli_tracer, src)

    traced: list[tuple[Tracer, dict, float]] = []
    untraced: list[float] = []
    counts: list[dict] = []
    coef_s: list[float] = []
    deadline = time.perf_counter() + seconds
    # Start a pair only if it is expected to end before the deadline.
    while not traced or (time.perf_counter() + traced[-1][2] + untraced[-1]) <= deadline:
        tracer, counters = Tracer(), Counters()
        start = time.perf_counter()
        values = suite_pass(s, seed, tracer, checks, work, counters)
        traced.append((tracer, values, time.perf_counter() - start))
        counts.append(values)
        coef_s.append(counters.ns["coef_calls"] / 1e9)
        start = time.perf_counter()
        counts.append(suite_pass(s, seed, Untraced(), checks, work, Counters()))
        untraced.append(time.perf_counter() - start)

    for key in counts[0]:
        seen = [c[key] for c in counts]
        checks.expect(len(set(seen)) == 1, f"count {key} differs between passes: {seen}")

    metrics: dict[str, float] = dict(cli_values)
    per_pass = [timings(tracer, s) for tracer, _, _ in traced]
    for key in per_pass[0]:
        metrics[key] = statistics.median(p[key] for p in per_pass)
    metrics.update(counts[0])
    metrics["hilbert.coef_s"] = statistics.median(coef_s)
    metrics["picard.residual_peak_mb"] = residual_peak_mb(s, seed)
    metrics["experiments.bootstrap_mb"] = BOOTSTRAP * 2 * s.moment_N * 8 / 2**20
    metrics["trace.overhead_s"] = (statistics.median(w for _, _, w in traced)
                                   - statistics.median(untraced))
    metrics["trace.spans"] = len(traced[0][0].spans)
    metrics["trace.span_us"] = span_cost_us()

    self_per_pass = [tracer.self_seconds() for tracer, _, _ in traced]
    span_self = {name: statistics.median(p[name] for p in self_per_pass)
                 for name in self_per_pass[0]}
    span_self.update(cli_tracer.self_seconds())
    span_total = {name: statistics.median(tracer.seconds(name) for tracer, _, _ in traced)
                  for name in self_per_pass[0]}
    span_total.update({name: cli_tracer.seconds(name) for name in cli_tracer.self_seconds()})
    for layer in SELF_LAYERS:
        metrics[f"{layer}.self_s"] = sum(v for name, v in span_self.items()
                                         if name.split(".")[0] == layer)

    with open(out / "spans.jsonl", "w") as fh:
        for index, (tracer, _, _) in enumerate([(cli_tracer, None, None), *traced]):
            for sid, (name, start, end, parent) in enumerate(tracer.spans):
                fh.write(json.dumps({"pass": index, "id": sid, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent}) + "\n")

    lines = [f"traced passes: {len(traced)}, untraced passes: {len(untraced)}, "
             f"pass wall traced={statistics.median(w for _, _, w in traced):.4f}s "
             f"untraced={statistics.median(untraced):.4f}s",
             f"{'span':56s} {'total_s':>10s} {'self_s':>10s}"]
    lines += [f"{name:56s} {span_total[name]:10.6f} {span_self[name]:10.6f}"
              for name in sorted(span_self)]
    lines.append(f"{'metric':36s} {'value':>14s} unit")
    for name in sorted(metrics):
        label = f" ({COUNTS[name]}, exact)" if name in COUNTS else ""
        lines.append(f"{name:36s} {metrics[name]:14.6g} {UNITS[name]}{label}")
    json_metrics = {name: {"value": float(metrics[name]), "unit": UNITS[name]}
                    for name in sorted(metrics)}
    counts_record = {name: {"value": metrics[name], "label": label}
                     for name, label in COUNTS.items()}
    return SuiteReport(lines, json_metrics, counts_record, checks.attempted, checks.failures)
