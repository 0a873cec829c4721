"""CSV and summary emission with the package's serialisation conventions.

Reals use `.` decimals and 17 significant digits (round-trip exact for
doubles), fields are comma-separated, line endings are LF, and every file
begins with `# ` comment lines recording the resolved configuration and
the artifact version.  Wall-clock runtimes never enter files: outputs of
identical invocations are byte-identical.  Run and model configurations
are read from the same flat ``key=value`` format.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, Mapping

import numpy as np

from . import __version__
from .rng import _blocks

__all__ = ["RunFailed", "format_value", "format_rows", "header_lines", "parse_key_values",
           "write_csv", "write_summary", "write_report"]


class RunFailed(Exception):
    """A run that fails outright (exit 1): a violated hypothesis or a non-converged solve."""


def format_value(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    if isinstance(value, (tuple, list)):
        return ",".join(format_value(v) for v in value)
    return str(value)


def _column_cells(column: np.ndarray) -> tuple[str, list]:
    """printf conversion and cell values of a column, rendering each cell as format_value."""
    if column.dtype.kind == "b":
        return "%s", ["true" if v else "false" for v in column.tolist()]
    if column.dtype.kind in "iu":
        return "%d", column.tolist()
    if column.dtype.kind == "f":
        return "%.17g", column.tolist()
    return "%s", [format_value(v) for v in column]


def format_rows(columns: Iterable[np.ndarray]) -> Iterator[str]:
    """CSV lines of equal-length 1-d columns, one ``%`` operation per line.

    Byte-identical to joining :func:`format_value` of every cell, including
    nan, inf and -0.  Yields the lines in blocks of :func:`rng._blocks`, so
    the Python cell objects alive at once stay bounded whatever the row count.
    """
    columns = [np.asarray(c) for c in columns]
    # a line's cells, their Python objects and text, and the line itself: about 80 B each
    for block in _blocks(len(columns[0]), 80 * (1 + len(columns))):
        cut = slice(block.start, block.stop)
        conversions, cells = zip(*(_column_cells(c[cut]) for c in columns))
        line = ",".join(conversions) + "\n"
        yield "".join(line % row for row in zip(*cells))


def header_lines(config: Mapping) -> list[str]:
    lines = [f"cylstable version={__version__}"]
    for key in sorted(config):
        lines.append(f"{key}={format_value(config[key])}")
    return lines


def parse_key_values(text: str, known_keys: Iterable[str], kind: str) -> dict[str, str]:
    """Flat ``key=value`` lines; blank and ``#`` lines are skipped, unknown keys refused."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key = key.strip()
        if key not in known_keys:
            raise ValueError(f"line {lineno}: unknown {kind} key {key!r}")
        values[key] = value.strip()
    return values


def write_csv(path: Path, columns: Mapping[str, Iterable], config: Mapping) -> None:
    """Columnar CSV with a comment header; all columns must share a length."""
    cols = {name: np.atleast_1d(np.asarray(vals)) for name, vals in columns.items()}
    lengths = {c.size for c in cols.values()}
    if len(lengths) > 1:
        raise ValueError(f"columns have mismatched lengths: {lengths}")
    with open(path, "w", newline="\n") as fh:
        for line in header_lines(config):
            fh.write(f"# {line}\n")
        fh.write(",".join(cols) + "\n")
        if cols:
            fh.writelines(format_rows(cols.values()))


def write_summary(path: Path, entries: Mapping, config: Mapping) -> None:
    with open(path, "w", newline="\n") as fh:
        for line in header_lines(config):
            fh.write(f"# {line}\n")
        for key, value in entries.items():
            fh.write(f"{key}={format_value(value)}\n")


def write_report(report, out_dir: Path, config: Mapping) -> list[Path]:
    """Write `<name>.csv` (first table), `<name>.<table>.csv` (others), `<name>.summary`."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    table_names = list(report.tables)
    for idx, table_name in enumerate(table_names):
        suffix = f".{table_name}" if idx else ""
        path = out_dir / f"{report.name}{suffix}.csv"
        write_csv(path, report.tables[table_name], config)
        written.append(path)

    entries: dict[str, object] = {}
    for key, value in report.parameters.items():
        entries[f"param.{key}"] = value
    entries["seed"] = report.seed
    for verdict in report.verdicts:
        entries[f"verdict.{verdict.name}"] = "pass" if verdict.passed else "fail"
        entries[f"threshold.{verdict.name}"] = verdict.threshold
        entries[f"observed.{verdict.name}"] = verdict.observed
    entries["inconclusive"] = report.inconclusive
    entries["passed"] = report.passed
    for i, note in enumerate(report.notes):
        entries[f"note.{i}"] = note
    summary_path = out_dir / f"{report.name}.summary"
    write_summary(summary_path, entries, config)
    written.append(summary_path)
    return written
