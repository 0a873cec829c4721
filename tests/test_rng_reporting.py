"""Stream derivation and file conventions."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylstable import reporting, rng
from cylstable.reporting import format_rows, format_value, write_csv, write_summary
from cylstable.rng import TAG_ALT_NOISE, TAG_REPLICA, open_uniform, open_uniform_rows, substream

from stream_oracles import keyed_stream


def test_substream_determinism_and_independence():
    a = substream(42, 1, 2).random(8)
    b = substream(42, 1, 2).random(8)
    c = substream(42, 1, 3).random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, substream(43, 1, 2).random(8))


# a name word, with both ends of its range drawn often
WORDS = st.one_of(st.just(0), st.just(2**32 - 1), st.integers(0, 2**32 - 1))


@given(
    seed=WORDS,
    tags=st.lists(WORDS, min_size=1, max_size=2),
    replicas=st.lists(WORDS, min_size=1, max_size=3),
    indices=st.lists(WORDS, min_size=1, max_size=4),
    count=st.integers(1, 40),
)
@settings(max_examples=150, deadline=None)
def test_open_uniform_rows_equal_philox_keyed_streams(seed, tags, replicas, indices, count):
    # array entries in three positions of the name: tag x replica x row
    rows = open_uniform_rows([seed, np.array(tags)[:, None, None], np.array(replicas)[:, None],
                              np.array(indices, dtype=np.uint64)], count)
    reference = np.stack([[[open_uniform(keyed_stream(seed, tag, r, i), count)
                            for i in indices] for r in replicas] for tag in tags])
    assert np.array_equal(rows, reference)


@given(seeds=st.lists(WORDS, min_size=1, max_size=3), word=WORDS, count=st.integers(1, 12))
@settings(max_examples=50, deadline=None)
def test_open_uniform_rows_broadcast_array_words_like_keyed_streams(seeds, word, count):
    seeds = np.array(seeds, dtype=np.uint64)
    rows = open_uniform_rows([seeds[:, None], word, 0, np.arange(3)], count)
    assert rows.shape == (len(seeds), 3, count)
    for s, seed in enumerate(seeds):
        for i in range(3):
            assert np.array_equal(rows[s, i], open_uniform(keyed_stream(seed, word, 0, i), count))
    assert np.array_equal(open_uniform_rows([word, 0, 0, 0], count),
                          open_uniform(keyed_stream(word, 0, 0, 0), count))
    assert open_uniform_rows([1, 2, 3, np.arange(0)], count).shape == (0, count)


@pytest.mark.parametrize("words", [[1, 2, 3], [1, 2, 3, 4, 5], [1, 2, np.arange(3)],
                                   [1, 2, 3, np.arange(3), 5]])
def test_open_uniform_rows_refuse_names_not_four_words_long(words):
    with pytest.raises(ValueError, match="exactly 4 words"):
        open_uniform_rows(words, 3)


def test_rows_of_neighbouring_keys_are_uncorrelated():
    # streams whose names differ in one word, from a replica row's name: the seed, the
    # tag (TAG_REPLICA against TAG_ALT_NOISE), the replica, the row
    n = 100_000
    base = (41, TAG_REPLICA, 6, 9)
    neighbours = [(42, TAG_REPLICA, 6, 9), (41, TAG_ALT_NOISE, 6, 9), (41, TAG_REPLICA, 7, 9),
                  (41, TAG_REPLICA, 6, 10)]
    u = open_uniform_rows(list(np.array([base, *neighbours]).T), n)
    for row in u[1:]:
        assert abs(np.corrcoef(u[0], row)[0, 1]) < 4.0 / math.sqrt(n)


@pytest.mark.parametrize("word", [-1, 2**32, 2**64 + 5])
def test_stream_names_refuse_words_outside_32_bits(word):
    for draw in (lambda: substream(word), lambda: substream(1, 2, word),
                 lambda: open_uniform_rows([word, 1, 2, 3], 3),
                 lambda: open_uniform_rows([1, 2, 3, np.array([0, word])], 3)):
        with pytest.raises(ValueError, match=r"\[0, 2\*\*32\)"):
            draw()


def test_multiword_entries_are_refused_not_split():
    # SeedSequence splits an entry into 32-bit words, so this name would alias (5, 7, 9)
    aliased = [np.random.SeedSequence(name).generate_state(2, np.uint64)
               for name in ([5 + 7 * 2**32, 9], [5, 7, 9])]
    assert np.array_equal(*aliased)
    with pytest.raises(ValueError):
        substream(5 + 7 * 2**32, 9)
    assert not np.array_equal(substream(5, 7, 9).random(4), substream(5, 9).random(4))


def test_tags_are_distinct_nonzero_words():
    # SeedSequence pads short names with zeros, so a zero tag could alias a shorter name
    tags = {name: value for name, value in vars(rng).items() if name.startswith("TAG_")}
    assert len(tags) == 12  # one per tag of the name table in the rng docstring
    assert len(set(tags.values())) == len(tags)
    assert all(0 < value < 2**32 for value in tags.values())


def test_open_uniform_rows_pass_budget_does_not_change_rows(monkeypatch):
    rows = 24
    whole = open_uniform_rows([11, 3, 0, np.arange(rows)], 9)  # one pass
    assert np.array_equal(whole[:-1], open_uniform_rows([11, 3, 0, np.arange(rows - 1)], 9))
    monkeypatch.setattr(rng, "_BLOCK_BYTES", 1)  # one row a pass
    assert np.array_equal(open_uniform_rows([11, 3, 0, np.arange(rows)], 9), whole)


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
    monkeypatch.setattr(rng, "_BLOCK_BYTES", 3 * 80 * (1 + len(cols)))  # three lines a block
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


def _block_sites():
    """Each memory-bounded loop at a size spanning several blocks: (module whose loop it is, run)."""
    from cylstable import experiments, hilbert, integral, sampling
    from cylstable.experiments import picard_convergence_experiment, uniqueness_experiment
    from cylstable.hilbert import heat_preset
    from cylstable.integral import constant_integrand
    from cylstable.picard import SolverConfig, binding_time_bound, horizon_bounds

    model = heat_preset(8)
    picard_cfg = SolverConfig(alpha=1.5, T=0.9 * horizon_bounds(model, 1.5)["T_picard"],
                              M=200, n=8, seed=3)
    # a chunk holds several replicas (twelve at M = 50, three at M = 200), so their bytes are
    # summed
    uniq_cfg = SolverConfig(alpha=1.5, T=0.8 * binding_time_bound(model, 1.5), M=50, n=8,
                            seed=3)
    path = sampling.generate_noise_path(1.5, 8, np.linspace(0.0, 1.0, 3_001), seed=3)
    columns = [np.random.default_rng(3).standard_normal(3_000) for _ in range(8)]
    integrands = [constant_integrand(np.random.default_rng(4).standard_normal(shape),
                                     np.linspace(0.0, 1.0, 5)) for shape in [(3, 2), (16, 1)]]
    weights = np.random.default_rng(5).uniform(0.0, 1.0, (5, 128))
    return {
        "picard": (experiments, lambda: picard_convergence_experiment(
            model, picard_cfg, n_iters=3, replicas=30, seed=3)),
        "uniqueness": (experiments, lambda: uniqueness_experiment(
            model, uniq_cfg, replicas=36, seed=3)),
        "uniqueness_M200": (experiments, lambda: uniqueness_experiment(
            model, replace(uniq_cfg, M=200), replicas=9, seed=3)),
        "open_uniform_rows": (rng, lambda: open_uniform_rows([3, 5, 0, np.arange(20_000)], 10)),
        "box_muller": (sampling, lambda: sampling._box_muller(open_uniform(substream(3),
                                                                           (3 * 2**15, 2)))),
        "sup_integral_norms": (sampling, lambda: [list(experiments._sup_integral_norms(
            integrand, 1.5, 4_000, 3, 5)) for integrand in integrands]),
        "sample_isotropic": (sampling, lambda: sampling.sample_isotropic(1.5, 3, 3, 20_000)),
        "gof": (sampling, lambda: experiments.isotropic_gof_report(1.5, 3, 20_000, 3)),
        # noise.csv's rows: t_start, t_end and 8 increment columns
        "noise_format_rows": (reporting, lambda: sum(map(len, format_rows(
            path.columns().values())))),
        "format_rows": (reporting, lambda: sum(map(len, format_rows([*columns, np.arange(3_000)])))),
        "refinement_diffs": (sampling, lambda: integral._refinement_diffs(
            weights, np.eye(1), 1.5, 1.0 / 128, 250, 3)),
        "a2_envelope": (hilbert, lambda: hilbert.check_A2(model, [1e-4, 1.0], [np.ones(8)])),
    }


@pytest.mark.parametrize("site", sorted(_block_sites()))
def test_each_blocked_loop_stays_within_the_block_budget(monkeypatch, site):
    # traced peak of each block above the memory held when its loop began; a nested
    # loop (a Box-Muller transform inside a replica block) counts in its enclosing block
    module, run = _block_sites()[site]
    blocks, peaks, open_loops = rng._blocks, [], []

    def traced_blocks(count, bytes_per_index):
        if open_loops:
            yield from blocks(count, bytes_per_index)
            return
        open_loops.append(count)
        try:
            start = tracemalloc.get_traced_memory()[0]
            for block in blocks(count, bytes_per_index):
                tracemalloc.reset_peak()
                yield block
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
        finally:
            open_loops.pop()

    monkeypatch.setattr(module, "_blocks", traced_blocks)
    tracemalloc.start()
    try:
        run()
    finally:
        tracemalloc.stop()
    assert len(peaks) >= 3
    assert max(peaks) <= 1.5 * rng._BLOCK_BYTES
