"""Count the failures of each Monte-Carlo verdict over many seeds, for one or two source trees.

    python3 tools/verdict_calibration.py SRC [OTHER_SRC] [--seeds 0-99]

SRC and OTHER_SRC are ``src/`` directories (for example of a ``git archive``
of the parent commit and of the working tree).  The commands are the
Monte-Carlo commands among the README's CLI examples and the benchmark's
commands (``tail``, ``moment``, ``gof`` and ``integrate --refinement-levels``,
taken as ``tools/artifact_diff.py`` takes them; a command that both list
runs once).  Each runs once per seed and tree as ``python -m cylstable.cli``
with the tree on ``PYTHONPATH``, in a fresh directory, and its ``.summary``
is read: every ``verdict.<name>`` entry, ``refinement.summary``'s
``monotone`` (the refinement verdict) and ``inconclusive`` (a failure when
true).

The output is one Markdown table: per command and verdict, the failures over
the runs that judged it, for each tree, and the same for the exit codes
other than 0.  A verdict that a tree never judges reads ``-``.  Like
``artifact_diff.py`` this launcher imports no numpy, so it stays small
beside its children, and runs one command at a time.
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import os
import subprocess
import sys
import tempfile
from collections import Counter, defaultdict
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "artifact_diff", Path(__file__).resolve().parent / "artifact_diff.py")
artifact_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifact_diff)


def monte_carlo_commands() -> list[tuple[str, list[str]]]:
    """The README's and the benchmark's Monte-Carlo commands, each distinct one once."""
    commands, seen = [], set()
    for label, args in artifact_diff.readme_commands() + artifact_diff.benchmark_commands():
        monte_carlo = args[0] in ("tail", "moment", "gof") or (
            args[0] == "integrate" and "--refinement-levels" in args)
        key = tuple(artifact_diff.with_seed_and_out(args, 0))  # the README sets --seed, --out
        if monte_carlo and key not in seen:
            seen.add(key)
            commands.append((label, args))
    return commands


def verdicts(src: Path, args: list[str], cwd: Path) -> tuple[int, dict[str, bool]]:
    """Exit code and {verdict: passed} of one run."""
    cwd.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = subprocess.run([sys.executable, "-m", "cylstable.cli", *args], cwd=cwd, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
    found = {}
    for summary in cwd.glob("*.summary"):
        for line in summary.read_text(encoding="utf-8").splitlines():
            key, _, value = line.rpartition("=")  # a verdict's name may hold "="
            if key.startswith("verdict."):
                found[key[len("verdict."):]] = value == "pass"
            elif key == "monotone":
                found[key] = value == "true"
            elif key == "inconclusive":
                found[key] = value != "true"
    return code, found


def parse_seeds(text: str) -> list[int]:
    """``0-99`` or ``3,7,11`` (or both, comma-separated) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("srcs", type=Path, nargs="+", metavar="SRC")
    parser.add_argument("--seeds", default="0-99")
    opts = parser.parse_args(argv)
    if not 1 <= len(opts.srcs) <= 2:
        parser.error("give one or two source trees")
    trees = [src.resolve() for src in opts.srcs]
    seeds = parse_seeds(opts.seeds)
    commands = monte_carlo_commands()
    # (command, tree) -> Counter of runs and failures per verdict and per exit code
    judged: dict[tuple[int, int], Counter] = defaultdict(Counter)
    failed: dict[tuple[int, int], Counter] = defaultdict(Counter)
    with tempfile.TemporaryDirectory(prefix="verdict_calibration_") as tmp:
        for (c, (_, args)), (t, tree), seed in itertools.product(
                enumerate(commands), enumerate(trees), seeds):
            cwd = Path(tmp) / str(t) / str(c) / str(seed)
            code, found = verdicts(tree, artifact_diff.with_seed_and_out(args, seed), cwd)
            judged[c, t]["exit != 0"] += 1
            failed[c, t]["exit != 0"] += code != 0
            for name, passed in found.items():
                judged[c, t][name] += 1
                failed[c, t][name] += not passed

    print(f"seeds {opts.seeds}; trees: " + ", ".join(f"({t + 1}) {tree}"
                                                     for t, tree in enumerate(trees)))
    print()
    heads = [f"fails ({t + 1})" for t in range(len(trees))]
    print("| command | verdict | " + " | ".join(heads) + " |")
    print("|---|---|" + "---:|" * len(trees))
    for c, (label, args) in enumerate(commands):
        shown = " ".join(artifact_diff.with_seed_and_out(args, 0)[:-4])  # without --seed, --out
        names = sorted({n for t in range(len(trees)) for n in judged[c, t]} - {"exit != 0"})
        for name in [*names, "exit != 0"]:
            cells = [f"{failed[c, t][name]} / {judged[c, t][name]}" if judged[c, t][name]
                     else "-" for t in range(len(trees))]
            print(f"| `{shown}` | {name} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
