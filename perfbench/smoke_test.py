"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/smoke_test.py

It checks that
- each workload runs at the TINY sizes, passes the output gate, and prints
  every end-to-end metric, each with a unit; the JSON line carries exactly
  the end-to-end metrics of BENCHMARK.json with their units;
- the traced suite at the TINY sizes prints every per-layer metric of
  BENCHMARK.json with its unit, and its checks pass;
- a corrupted artifact, a failed verdict and a large solver residual are
  each counted as a failed command;
- the benchmark exits non-zero, printing no result, without the source tree.
Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def run_main(argv: list[str]) -> tuple[int, list[str], dict]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = run.main(argv, sizes=run.TINY)
    lines = buffer.getvalue().splitlines()
    return code, lines, json.loads(lines[-1])


def printed_with_unit(lines: list[str], name: str, unit: str) -> bool:
    return any(line.split()[:1] == [name] and f" {unit}" in line for line in lines)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(run.workloads(run.TINY)),
          "BENCHMARK.json names the workloads run.py defines")

    printed = ["setup_s", "wall_s", "peak_rss_mb", "fail_frac",
               *[f"cmd.{name}_s" for name in run.ALL_COMMANDS]]
    for workload in sorted(run.workloads(run.TINY)):
        code, lines, result = run_main(["--workload", workload, "--seed", "3",
                                        "--seconds", "0", "--trace", "0"])
        check(code == 0 and result["correct"] and result["failed"] == 0
              and result["attempted"] >= 2, f"{workload}: tiny run passes the gate")
        check(all(any(line.split()[:1] == [name] and len(line.split()) >= 3 for line in lines)
                  for name in printed), f"{workload}: all 13 end-to-end metrics printed")
        check({k: v["unit"] for k, v in result["metrics"].items()} == end_to_end
              and all(v["value"] > 0 for v in result["metrics"].values()),
              f"{workload}: JSON has every end-to-end metric with its unit, all positive")
        check(all(printed_with_unit(lines, k, u) for k, u in end_to_end.items()),
              f"{workload}: end-to-end metrics printed with their units")

    code, lines, result = run_main(["--workload", "ensemble", "--seed", "3",
                                    "--seconds", "0", "--trace", "1"])
    check(code == 0 and result["correct"] and result["failed"] == 0,
          "traced suite: every check passes")
    check({k: v["unit"] for k, v in result["metrics"].items()} == per_layer,
          "traced suite: JSON has every per-layer metric with its unit")
    check(all(printed_with_unit(lines, k, u) for k, u in per_layer.items()),
          "traced suite: per-layer metrics printed with their units")

    # A corrupted artifact in the second round must count as one failed command.
    commands = {"gof": run.workloads(run.TINY)["montecarlo"]["gof"]}
    out = run.fresh_dir(run.OUT / "smoke-corrupt")

    def corrupt(rnd: int, name: str, out_dir: Path) -> None:
        if rnd == 1:
            csv = out_dir / "gof_isotropic.csv"
            csv.write_bytes(csv.read_bytes() + b"\n")

    result = run.measure(commands, 3, 0.0, out, setup_runs=1, tamper=corrupt)
    rows, _ = run.end_to_end(result)
    fail_row = next(row for row in rows if row.startswith("fail_frac"))
    check(len(result.failures) == 1 and "gof_isotropic.csv" in result.failures[0]
          and float(fail_row.split()[1]) == 1 / result.attempted,
          f"corrupted artifact counted in fail_frac ({fail_row.split()[1]})")

    summaries = run.fresh_dir(run.OUT / "smoke-gate")
    (summaries / "gof_isotropic.summary").write_text("# x=1\nverdict.max_deviation=fail\n")
    reasons, _ = run.gate(0, summaries, None)
    check(any("verdict.max_deviation=fail" in r for r in reasons), "failed verdict is a failure")
    (summaries / "gof_isotropic.summary").unlink()
    (summaries / "mild_path.summary").write_text("iteration_count=3\nresidual=2e-10\n")
    reasons, _ = run.gate(0, summaries, None)
    check(any("residual" in r for r in reasons), "solver residual >= 1e-10 is a failure")
    reasons, _ = run.gate(3, summaries, None)
    check(any("exit code 3" in r for r in reasons), "exit code 3 is a failure")

    # Only BENCHMARK.json and the benchmark's own files: it must refuse to run.
    bare = run.fresh_dir(run.OUT / "smoke-bare")
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pathwise",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    check(proc.returncode != 0 and "correct" not in proc.stdout,
          f"refuses to run without src/ (exit {proc.returncode})")
    shutil.rmtree(bare)

    print(f"smoke test: {len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
