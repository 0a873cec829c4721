"""Stream derivation and file conventions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylstable import reporting, rng
from cylstable.reporting import format_rows, format_value, write_csv, write_summary
from cylstable.rng import open_uniform, open_uniform_rows, stream_keys, substream


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


@given(
    seed=st.one_of(st.integers(0, 2**64 - 1), st.integers(2**64, 2**80)),
    tags=st.lists(st.integers(0, 2**40), min_size=1, max_size=3),
    indices=st.lists(st.one_of(st.just(0), st.integers(0, 2**32 - 1),
                               st.integers(2**32, 2**64 - 1)), min_size=1, max_size=4),
    count=st.integers(1, 40),
)
@settings(max_examples=150, deadline=None)
def test_open_uniform_rows_equal_substream_streams(seed, tags, indices, count):
    reference = np.stack([open_uniform(substream(seed, *tags, i), count) for i in indices])
    rows = open_uniform_rows(seed, tags, np.array(indices, dtype=np.uint64), count)
    assert np.array_equal(rows, reference)
    keys = stream_keys(seed, tags, np.array(indices, dtype=np.uint64))[0]
    words = [np.random.SeedSequence([seed & (2**64 - 1), *tags, i]).generate_state(1, np.uint64)[0]
             for i in indices]
    assert np.array_equal(keys, words)


def test_open_uniform_rows_broadcast_seeds_and_mask_like_substream():
    seeds = np.array([0, 7, 2**32, 2**64 - 1], dtype=np.uint64)
    rows = open_uniform_rows(seeds[:, None], (5,), np.arange(3), 6)
    assert rows.shape == (4, 3, 6)
    for s, seed in enumerate(seeds):
        for i in range(3):
            assert np.array_equal(rows[s, i], open_uniform(substream(int(seed), 5, i), 6))
    for seed in (-1, -(2**70), 2**64 + 5):
        assert np.array_equal(open_uniform_rows(seed, (5,), [0, 1], 3),
                              np.stack([open_uniform(substream(seed, 5, i), 3) for i in (0, 1)]))
    with pytest.raises(ValueError):
        open_uniform_rows(1, (2,), [-1], 4)
    with pytest.raises(ValueError):
        open_uniform_rows(1, (-2,), [0], 4)


def test_open_uniform_rows_pass_budget_does_not_change_rows(monkeypatch):
    rows = 24
    whole = open_uniform_rows(11, (3,), np.arange(rows), 9)  # one pass
    assert np.array_equal(whole[:-1], open_uniform_rows(11, (3,), np.arange(rows - 1), 9))
    monkeypatch.setattr(rng, "_PASS_BLOCKS", 1)
    assert np.array_equal(open_uniform_rows(11, (3,), np.arange(rows), 9), whole)


def test_format_rows_equals_format_value_per_cell(monkeypatch):
    cols = [
        np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-300, 1.0 / 3.0]),
        np.array([True, False, True, False, True, False, True]),
        np.arange(-3, 4),
        np.array([1, 2, 3, 4, 5, 6, 2**64 - 1], dtype=np.uint64),
        np.linspace(0.0, 1.0, 7, dtype=np.float32),
        np.array(list("abcdefg")),
        np.array([1, "x", 2.5, None, (1, 2), -0.0, True], dtype=object),
    ]
    reference = "".join(",".join(format_value(c[i]) for c in cols) + "\n" for i in range(7))
    assert "".join(format_rows(cols)) == reference
    monkeypatch.setattr(reporting, "_BLOCK_ROWS", 3)
    assert "".join(format_rows(cols)) == reference
    assert len(list(format_rows(cols))) == 3
    assert list(format_rows([np.array([]), np.array([], dtype=int)])) == []


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
