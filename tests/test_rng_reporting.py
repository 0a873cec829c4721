"""Stream derivation and file conventions."""

import numpy as np
import pytest

from cylstable.reporting import format_value, write_csv, write_summary
from cylstable.rng import substream


def test_substream_determinism_and_independence():
    a = substream(42, 1, 2).random(8)
    b = substream(42, 1, 2).random(8)
    c = substream(42, 1, 3).random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, substream(43, 1, 2).random(8))


def test_substream_handles_wide_and_negative_seeds():
    assert substream(2**66 + 5).random(1).size == 1
    assert substream(-7).random(1).size == 1


def test_format_value_round_trip_doubles():
    for x in (1.0 / 3.0, 2.5066282746310002, 1e-300, -0.1):
        assert float(format_value(x)) == x
    assert format_value(True) == "true"
    assert format_value(7) == "7"


def test_write_csv_conventions(tmp_path):
    path = tmp_path / "table.csv"
    write_csv(path, {"a": [1.0, 2.0], "b": [0.1, 0.2]}, {"seed": 1})
    raw = path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0].startswith("# cylstable version=")
    assert lines[1] == "# seed=1"
    assert lines[2] == "a,b"
    assert lines[3] == "1,0.10000000000000001"


def test_write_csv_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "bad.csv", {"a": [1.0], "b": [1.0, 2.0]}, {})


def test_write_summary(tmp_path):
    path = tmp_path / "out.summary"
    write_summary(path, {"verdict.x": "pass", "value": 0.5}, {"alpha": 1.5})
    text = path.read_text()
    assert "# alpha=1.5" in text
    assert "verdict.x=pass" in text
    assert "value=0.5" in text
