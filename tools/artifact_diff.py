"""Compare the artifacts that two source trees of cylstable write, command by command.

    python3 tools/artifact_diff.py OLD_SRC NEW_SRC [--seeds 3,7]

OLD_SRC and NEW_SRC are ``src/`` directories (for example of a ``git archive``
of the parent commit and of the working tree).  The commands are the README's
CLI examples, the benchmark commands of ``perfbench/run.py``
(``workloads(FULL)``, imported, never edited), a few replica experiments
whose block-budget chunks split differently from the benchmark's (``CHUNKED``),
so that a change to batching is compared where its chunks differ, one
command for each mode that neither of the first two runs, ``tail`` and
``moment`` with nine state coordinates, the solver's warning path (``solve``
beyond the admissible horizon), ``glue`` over pieces that do not divide M and
over 20 pieces, ``uniqueness`` from a state that no noise reaches, and a few
requests that are refused as usage errors (``MODES``).  Each runs once per seed
as ``python -m cylstable.cli`` with the tree on ``PYTHONPATH``, in a fresh
directory of its own (``--out .`` is set on every command, and ``--seed`` on
every command whose mode reads one: not on ``constants``, which takes none,
nor on ``gronwall`` without ``--case random``, which refuses one).  A
command's standard error, if it writes any, is kept as the artifact
``stderr.log`` (its warnings and its ``FAIL:`` or ``usage error:`` line).

One line per artifact says ``identical`` or gives the largest absolute
difference of each numeric column that moved (a CSV column, a ``.summary``
key, or a ``key=value`` of a ``#`` line); ``text`` marks a non-numeric
change, and ``only in old`` or ``only in new`` a column or key that one tree
does not write.  The ``# cylstable version=`` and ``# out=`` header lines are
ignored.  One line per command gives both exit codes and both peak resident
sets (the child's ``ru_maxrss``, in MiB).  Passing the same tree twice checks
that reruns write identical bytes.
"""

from __future__ import annotations

import argparse
import importlib.util
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IGNORED = ("# cylstable version=", "# out=")
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf)")


def readme_commands() -> list[tuple[str, list[str]]]:
    """The CLI examples of the README (the fenced block that runs ``cylstable constants``).

    Each is labelled by the README line it starts on, so two examples of one
    subcommand stay apart.
    """
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    for block in re.finditer(r"```sh\n(.*?)```", text, flags=re.S):
        if "cylstable constants" in block[1]:
            commands = []
            # one command: a line starting with `cylstable`, through its backslash continuations
            for command in re.finditer(r"^cylstable .*?(?<!\\)$", block[1], flags=re.M | re.S):
                args = shlex.split(command[0].replace("\\\n", " "))[1:]
                line = text.count("\n", 0, block.start(1) + command.start()) + 1
                commands.append((f"readme line {line} {args[0]}", args))
            return commands
    raise SystemExit("README.md has no CLI example block")


def benchmark_commands() -> list[tuple[str, list[str]]]:
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = run  # dataclasses look their module up while it executes
    spec.loader.exec_module(run)
    return [(f"bench {workload}/{name}", args)
            for workload, commands in run.workloads(run.FULL).items()
            for name, args in commands.items()]


# chunk boundaries the benchmark's sizes do not reach: several replicas a chunk and a
# short last chunk, one replica a chunk, and the picard loop at a long grid
CHUNKED = [
    ("chunked uniqueness M=50", ["uniqueness", "--preset", "heat", "--M", "50",
                                 "--replicas", "40"]),
    ("chunked uniqueness M=1000", ["uniqueness", "--preset", "heat", "--M", "1000",
                                   "--replicas", "4"]),
    ("chunked picard M=1000", ["picard", "--preset", "heat", "--M", "1000", "--replicas", "12"]),
]


# the modes that neither the README nor the benchmark runs, and the sups of nine coordinates
MODES = [
    *((f"mode sample {kind}", ["sample", "--kind", kind, "--alpha", "1.5", "--N", "1000"])
      for kind in ("sas", "positive")),
    ("mode sample isotropic", ["sample", "--kind", "isotropic", "--alpha", "1.5", "--n", "3",
                               "--N", "1000"]),
    ("mode integrate path", ["integrate", "--alpha", "1.5", "--gamma", "1,0.5", "--M", "100"]),
    ("mode tail const", ["tail", "--alpha", "1.5", "--integrand", "const", "--N", "20000"]),
    ("mode gronwall near-equality", ["gronwall", "--case", "near-equality"]),
    # nine state coordinates: numpy sums eight or more pairwise along a contiguous axis, so
    # these are the sup norms that a change to their reduction can move in the last bits
    *((f"n=9 {command}",
       [command, "--alpha", "1.5", "--gamma", "1,0.9,0.8,0.7,0.6,0.5,0.4,0.3,0.2"])
      for command in ("tail", "moment")),
    # the solver's warning path
    ("mode solve beyond T_bound", ["solve", "--preset", "heat", "--T", "0.2", "--M", "200"]),
    # glue where the pieces do not divide M, and glue over 20 pieces
    ("mode glue M=121", ["glue", "--preset", "heat", "--T-total", "0.15", "--M", "121"]),
    ("mode glue 20 pieces", ["glue", "--preset", "heat", "--T-total", "1.0", "--M", "3000"]),
    # the heat preset's F(0) = G(0) = 0: every path from x0 = 0 stays 0, on any noise
    ("mode uniqueness x0=0", ["uniqueness", "--preset", "heat", "--n", "3", "--x0", "0,0,0",
                              "--M", "50", "--replicas", "4"]),
    # refused before anything is written: exit 2 with a usage error line
    *((f"refused {' '.join(args)}", args) for args in (
        ["solve", "--T", "0.01", "--x0", ","],
        ["moment", "--alpha", "1.5", "--p-list", ","],
        ["check-model", "--deltas", ","],
        ["solve", "--T", "0.01", "--n", "3", "--x0", "1,2"],
        ["glue", "--T-total", "0.01", "--n", "3", "--x0", "1,2"],
        ["solve", "--T", "0.01", "--n", "3", "--x0", "nan,0,0"],
        ["tail", "--alpha", "1.5", "--integrand", "const", "--T", "inf"],
        *(["picard", "--alpha", "1.5", "--p", p] for p in ("0", "-1", "nan", "1.5")),
    )),
]


def reads_seed(args: list[str]) -> bool:
    """Whether the command's mode reads ``--seed``: gronwall's only with ``--case random``."""
    if args[0] == "gronwall":
        return "--case" in args and args[args.index("--case") + 1] == "random"
    return args[0] != "constants"  # it draws nothing and takes no seed


def with_seed_and_out(args: list[str], seed: int) -> list[str]:
    """args with ``--seed seed`` (if its mode reads one) and ``--out .``, replaced or appended."""
    args = list(args)
    settings = [("--out", ".")]
    if reads_seed(args):
        settings.insert(0, ("--seed", str(seed)))
    for flag, value in settings:
        if flag in args:
            args[args.index(flag) + 1] = value
        else:
            args += [flag, value]
    return args


# This tool imports no numpy: a child's ru_maxrss includes its parent's peak
# (subprocess starts it with vfork), so a heavy parent would hide the command's.
def run(src: Path, args: list[str], cwd: Path) -> tuple[int, float]:
    """Exit code and peak resident set (MiB) of one CLI command; stderr to ``stderr.log``."""
    cwd.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(src))
    log = cwd / "stderr.log"
    with open(log, "wb") as err:
        proc = subprocess.Popen([sys.executable, "-m", "cylstable.cli", *args], cwd=cwd,
                                env=env, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
    if not log.stat().st_size:
        log.unlink()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def cell_diff(a: str, b: str) -> float | None:
    """None if equal, else the largest difference of their numbers (nan if the text differs)."""
    if a == b:
        return None
    na, nb = NUMBER.findall(a), NUMBER.findall(b)
    if NUMBER.sub("#", a) != NUMBER.sub("#", b) or len(na) != len(nb):
        return math.nan
    worst = 0.0
    for x, y in zip(map(float, na), map(float, nb)):
        if x != y and not (math.isnan(x) and math.isnan(y)):
            worst = max(worst, abs(x - y))
    return worst


def columns(path: Path) -> dict[str, list[str]]:
    """Cells of an artifact by column: CSV columns, summary keys, ``#`` line keys."""
    cols: dict[str, list[str]] = {}
    names = None
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith(IGNORED):
            continue
        if line.startswith("#"):
            for token in line[1:].split():
                key, _, value = token.rstrip(",").partition("=")
                cols.setdefault(f"#{key}", []).append(value)
        elif path.suffix == ".csv":
            if names is None:
                names = line.split(",")
                continue
            for name, cell in zip(names, line.split(",")):
                cols.setdefault(name, []).append(cell)
        else:
            key, _, value = line.partition("=")
            cols.setdefault(key, []).append(value)
    return cols


def compare(a: Path, b: Path) -> str:
    if a.read_bytes() == b.read_bytes():
        return "identical"
    ca, cb = columns(a), columns(b)
    moved = []
    for name in dict.fromkeys([*ca, *cb]):
        if name not in ca or name not in cb:
            moved.append(f"{name} only in {'new' if name in cb else 'old'}")
            continue
        va, vb = ca[name], cb[name]
        diffs = [cell_diff(x, y) for x, y in zip(va, vb)]
        diffs = [d for d in diffs if d is not None]
        if len(va) != len(vb) or any(math.isnan(d) for d in diffs):
            moved.append(f"{name} text")
        elif diffs:
            moved.append(f"{name} {max(diffs):.2g}")
    return "; ".join(moved) if moved else "identical (ignored lines only)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--seeds", default="3,7")
    opts = parser.parse_args(argv)
    trees = [opts.old_src.resolve(), opts.new_src.resolve()]
    seeds = [int(s) for s in opts.seeds.split(",")]
    commands = readme_commands() + benchmark_commands() + CHUNKED + MODES
    with tempfile.TemporaryDirectory(prefix="artifact_diff_") as tmp:
        runs = []
        for seed in seeds:
            for index, (label, args) in enumerate(commands):
                args = with_seed_and_out(args, seed)
                dirs = [Path(tmp) / side / str(seed) / str(index) for side in ("old", "new")]
                runs.append((f"seed={seed} {label}", dirs,
                             [run(tree, args, d) for tree, d in zip(trees, dirs)]))
        # every command runs before any artifact is read: reading a large one raises
        # this process's peak, which every child started after it would report
        for tag, dirs, ((old_code, old_rss), (new_code, new_rss)) in runs:
            print(f"{tag}: exit {old_code} -> {new_code}, "
                  f"peak {old_rss:.1f} -> {new_rss:.1f} MiB"
                  + ("" if old_code == new_code else "  EXIT CODES DIFFER"))
            for name in sorted({p.name for d in dirs for p in d.iterdir()}):
                a, b = (d / name for d in dirs)
                if not (a.exists() and b.exists()):
                    print(f"{tag} {name}: only in {'new' if b.exists() else 'old'}")
                else:
                    print(f"{tag} {name}: {compare(a, b)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
