"""Benchmark of the cylstable laboratory: CLI workloads end to end, modules traced.

Run from the repository root (``perfbench/smoke_test.py`` checks the benchmark
itself at tiny sizes):

    python3 perfbench/run.py --workload pathwise --seed 7 --seconds 30 --trace 0

``--trace 0`` runs one closed loop with a single client: the workload's real
CLI commands run one after another, each as a fresh ``python -m cylstable.cli``
process with the seed passed as ``--seed``, round after round while a round
still fits in ``--seconds`` (at least two rounds, so that byte identity is
checked).  Set-up time is the median of several ``--version`` starts.  Every
command goes through the output gate (:func:`gate`).  The client prints the
end-to-end metrics, each timing as its median, the highest percentile with at
least ten samples beyond it (or its absence) and the sample count:
``setup_s``, ``wall_s`` (one round), ``peak_rss_mb``, ``fail_frac`` and
``cmd.<command>_s`` for each of the nine commands.  The last line is one JSON
object whose metrics are the end-to-end metrics of BENCHMARK.json, those that
every workload has and that are never 0; ``fail_frac`` is its ``failed`` over
``attempted``.

``--trace 1`` runs the in-process traced suite of ``suite.py`` instead: spans
around the calls into each package module, at the same sizes.

Outputs, logs and ``result.json`` (metrics, per-command samples, machine and
provenance record) go to ``.perfbench_out/`` under the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

RESIDUAL_LIMIT = 1e-10


@dataclass(frozen=True)
class Sizes:
    """Problem sizes shared by the CLI workloads and the traced suite."""

    alpha: float = 1.5
    noise_M: int = 10_000
    noise_m: int = 8
    path_T: float = 0.05
    solve_M: int = 5_000
    glue_T: float = 0.15
    glue_M: int = 120
    ensemble_M: int = 200
    picard_replicas: int = 50
    uniqueness_replicas: int = 25
    tail_N: int = 1_000_000
    tail_r: tuple[float, float] = (10.0, 100.0)
    moment_N: int = 10_000
    # p <= 0.7 keeps p below alpha/2, where the p-th moment estimate has finite
    # variance and the N -> 2N stability verdict is not a coin toss.
    moment_p: tuple[float, ...] = (0.5, 0.7)
    gof_N: int = 100_000
    refine_levels: int = 5
    refine_replicas: int = 2_000
    setup_runs: int = 5


FULL = Sizes()
# Small enough for a smoke test and the traced suite's warm-up, large enough
# that every verdict still resolves.
TINY = Sizes(noise_M=200, solve_M=100, ensemble_M=50, picard_replicas=4,
             uniqueness_replicas=3, tail_N=50_000, tail_r=(8.0, 40.0), moment_N=2_000,
             gof_N=5_000, refine_replicas=100, setup_runs=2)


def workloads(s: Sizes) -> dict[str, dict[str, list[str]]]:
    """Workload name -> {command name: CLI arguments without --seed/--out}."""
    alpha = str(s.alpha)
    return {
        "pathwise": {
            "noise": ["noise", "--alpha", alpha, "--m", str(s.noise_m), "--T", str(s.path_T),
                      "--M", str(s.noise_M)],
            "solve": ["solve", "--alpha", alpha, "--preset", "heat", "--T", str(s.path_T),
                      "--M", str(s.solve_M)],
            "glue": ["glue", "--alpha", alpha, "--preset", "heat", "--T-total", str(s.glue_T),
                     "--M", str(s.glue_M)],
        },
        "ensemble": {
            "picard": ["picard", "--alpha", alpha, "--preset", "heat", "--M", str(s.ensemble_M),
                       "--replicas", str(s.picard_replicas)],
            "uniqueness": ["uniqueness", "--alpha", alpha, "--preset", "heat",
                           "--M", str(s.ensemble_M), "--replicas", str(s.uniqueness_replicas)],
        },
        "montecarlo": {
            "tail": ["tail", "--alpha", alpha, "--gamma", "1,0.5,0.25", "--N", str(s.tail_N),
                     "--r-min", str(s.tail_r[0]), "--r-max", str(s.tail_r[1])],
            "moment": ["moment", "--alpha", alpha, "--p-list", ",".join(map(str, s.moment_p)),
                       "--N", str(s.moment_N)],
            "gof": ["gof", "--alpha", alpha, "--n", "3", "--N", str(s.gof_N)],
            "integrate": ["integrate", "--alpha", alpha, "--gamma", "1", "--profile", "linear",
                          "--M", "8", "--refinement-levels", str(s.refine_levels),
                          "--replicas", str(s.refine_replicas)],
        },
    }


ALL_COMMANDS = [name for cmds in workloads(FULL).values() for name in cmds]


# ------------------------------------------------------------------ statistics

def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """(p, value) for the highest percentile with at least ten samples beyond it."""
    n = len(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            ordered = sorted(values)
            return p, ordered[min(n - 1, int(p / 100.0 * n))]
    return None


def describe(name: str, unit: str, values: list[float]) -> str:
    if not values:
        return f"{name:22s} {'-':>12s} {unit:8s} not run by this workload"
    tail = tail_percentile(values)
    tail_text = (f"p{tail[0]:g}={tail[1]:.6g}" if tail
                 else "no tail percentile (needs n >= 11)")
    return (f"{name:22s} {statistics.median(values):12.6g} {unit:8s} "
            f"median, {tail_text}, n={len(values)}")


# ------------------------------------------------------------------ processes

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass
class Run:
    seconds: float
    returncode: int
    max_rss_mb: float


def run_process(argv: list[str], log: Path) -> Run:
    """Start one process, wait for it, and return its wall time, exit code and peak RSS."""
    log.parent.mkdir(parents=True, exist_ok=True)
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=fh, stderr=fh,
                                stdin=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(elapsed, proc.returncode, usage.ru_maxrss / 1024.0)


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "cylstable.cli", *args]


# ------------------------------------------------------------------ output gate

def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_summary(path: Path) -> dict[str, str]:
    entries = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            key, _, value = line.partition("=")
            entries[key] = value
    return entries


def gate(returncode: int, out_dir: Path,
         reference: dict[str, str] | None) -> tuple[list[str], dict[str, str]]:
    """Reasons a command failed (empty if it passed), and the SHA-256 of its artifacts.

    A command fails when its exit code is not 0, a ``.summary`` reports
    ``passed=false`` or a failed verdict, a solver summary reports a
    residual of ``RESIDUAL_LIMIT`` or more, or an artifact differs from the
    first round of the same workload and seed (byte identity; stdout, which
    carries runtimes, is not an artifact).
    """
    reasons = []
    if returncode != 0:
        reasons.append(f"exit code {returncode}, expected 0")
    files = sorted(out_dir.iterdir()) if out_dir.is_dir() else []
    if not files:
        reasons.append("no artifacts written")
    hashes = {p.name: sha256(p) for p in files}
    for path in files:
        if path.suffix != ".summary":
            continue
        entries = read_summary(path)
        if entries.get("passed") == "false":
            reasons.append(f"{path.name}: passed=false")
        reasons += [f"{path.name}: {k}=fail" for k, v in entries.items()
                    if k.startswith("verdict.") and v == "fail"]
        if path.stem in ("mild_path", "glued_path"):
            residual = float(entries.get("residual", "inf"))
            if not residual < RESIDUAL_LIMIT:
                reasons.append(f"{path.name}: residual={residual:.3g} >= {RESIDUAL_LIMIT:g}")
    if reference is not None and hashes != reference:
        changed = sorted(set(hashes) ^ set(reference)
                         | {k for k in hashes.keys() & reference.keys()
                            if hashes[k] != reference[k]})
        reasons.append(f"artifacts differ from the first round: {', '.join(changed)}")
    return reasons, hashes


# ------------------------------------------------------------------ closed loop

@dataclass
class LoopResult:
    setup_s: list[float]
    round_s: list[float]
    command_s: dict[str, list[float]]
    peak_rss_mb: float
    attempted: int
    failures: list[str]


def measure(commands: dict[str, list[str]], seed: int, seconds: float, out: Path,
            setup_runs: int,
            tamper: Callable[[int, str, Path], None] | None = None) -> LoopResult:
    """Set-up timing, then the closed loop over ``commands`` for about ``seconds``.

    ``tamper(round, command, out_dir)`` runs after each command and before
    its gate; the smoke test uses it to corrupt an artifact.
    """
    # The first start compiles bytecode, which users pay once, not per run.
    run_process(cli_argv(["--version"]), out / "log" / "warmup.txt")
    setup = [run_process(cli_argv(["--version"]), out / "log" / f"setup{i}.txt").seconds
             for i in range(setup_runs)]

    command_s: dict[str, list[float]] = {name: [] for name in commands}
    round_s: list[float] = []
    failures: list[str] = []
    reference: dict[str, dict[str, str]] = {}
    peak = 0.0
    attempted = 0
    deadline = time.perf_counter() + seconds
    rnd = 0
    # Start a round only if a typical round still ends before the deadline.
    while rnd < 2 or time.perf_counter() + statistics.median(round_s) <= deadline:
        round_start = time.perf_counter()
        for name, args in commands.items():
            # The same --out every round: the resolved options, --out included,
            # are part of each artifact's header.
            out_dir = out / "artifacts" / name
            if out_dir.exists():
                shutil.rmtree(out_dir)
            log = out / "log" / f"round{rnd}-{name}.txt"
            run = run_process(cli_argv([*args, "--seed", str(seed), "--out", str(out_dir)]), log)
            if tamper is not None:
                tamper(rnd, name, out_dir)
            reasons, hashes = gate(run.returncode, out_dir, reference.get(name))
            reference.setdefault(name, hashes)
            attempted += 1
            command_s[name].append(run.seconds)
            peak = max(peak, run.max_rss_mb)
            if reasons:
                failures.append(f"round {rnd} {name}: " + "; ".join(reasons))
                if out_dir.exists():
                    shutil.copytree(out_dir, out / "failed" / f"round{rnd}-{name}")
        round_s.append(time.perf_counter() - round_start)
        rnd += 1
    return LoopResult(setup, round_s, command_s, peak, attempted, failures)


# ------------------------------------------------------------------ provenance

def _probe(argv: list[str]) -> str:
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return proc.stdout.strip() if proc.returncode == 0 else ""


def git_commit() -> str:
    top = _probe(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"])
    if not top or Path(top).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return _probe(["git", "-C", str(ROOT), "rev-parse", "HEAD"]) or "unknown"


def machine_record(seed: int) -> dict:
    """Machine and provenance: cores, caches, library versions, commit and seed."""
    import numpy
    import scipy

    caches = {}
    for key in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        value = _probe(["getconf", key])
        caches[key.lower()] = int(value) if value.isdigit() else None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "caches_bytes": caches,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "cylstable_threads": os.environ.get("CYLSTABLE_THREADS", "default"),
        "git_commit": git_commit(),
        "seed": seed,
    }


# ------------------------------------------------------------------ reporting

def end_to_end(result: LoopResult) -> tuple[list[str], dict]:
    """Human-readable rows for all end-to-end metrics, and the metrics of the JSON line."""
    failed = len(result.failures)
    rows = [
        describe("setup_s", "s", result.setup_s),
        describe("wall_s", "s", result.round_s),
        f"{'peak_rss_mb':22s} {result.peak_rss_mb:12.6g} {'MiB':8s} "
        f"max ru_maxrss over {result.attempted} commands",
        f"{'fail_frac':22s} {failed / result.attempted:12.6g} {'fraction':8s} "
        f"{failed} failed of {result.attempted} attempted",
    ]
    rows += [describe(f"cmd.{name}_s", "s", result.command_s.get(name, []))
             for name in ALL_COMMANDS]
    metrics = {
        "setup_s": {"value": statistics.median(result.setup_s), "unit": "s"},
        "wall_s": {"value": statistics.median(result.round_s), "unit": "s"},
        "peak_rss_mb": {"value": result.peak_rss_mb, "unit": "MiB"},
    }
    return rows, metrics


def fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def main(argv: list[str] | None = None, sizes: Sizes = FULL) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads(sizes)))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cylstable" / "cli.py").is_file():
        print(f"error: {SRC / 'cylstable'} not found; run from a full source checkout",
              file=sys.stderr)
        return 2

    out = fresh_dir(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}")
    machine = machine_record(args.seed)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    print(f"workload: {args.workload} ({why[args.workload]})")
    print(f"machine: {json.dumps(machine, sort_keys=True)}")
    print(f"sizes: {json.dumps(asdict(sizes))}")

    if args.trace:
        sys.path.insert(0, str(SRC))
        import suite

        report = suite.run(sizes, args.seed, args.seconds, out, SRC, warmup=TINY)
        for line in report.lines:
            print(line)
        record = {"machine": machine, "workload": args.workload, "trace": 1,
                  "metrics": report.metrics, "counts": report.counts,
                  "failures": report.failures}
        attempted, failed, metrics = report.attempted, len(report.failures), report.metrics
        failures = report.failures
    else:
        commands = workloads(sizes)[args.workload]
        print(f"closed loop: 1 client, {len(commands)} commands per round: "
              + ", ".join(" ".join(c) for c in commands.values()))
        result = measure(commands, args.seed, args.seconds, out, sizes.setup_runs)
        rows, metrics = end_to_end(result)
        print(f"{'metric':22s} {'median':>12s} {'unit':8s}")
        for row in rows:
            print(row)
        record = {"machine": machine, "workload": args.workload, "trace": 0,
                  "commands": commands, "loop": asdict(result), "metrics": metrics}
        attempted, failed, failures = result.attempted, len(result.failures), result.failures
    for failure in failures:
        print(f"FAILED: {failure}")
    (out / "result.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
