"""Samplers: distributional oracles, projective consistency, determinism."""

import math

import numpy as np
import pytest
from scipy.stats import ks_2samp, levy_stable

from cylstable import rng, sampling
from cylstable.cli import main
from cylstable.experiments import char_function_test
from cylstable.rng import TAG_NOISE_ROW, TAG_PIECE, TAG_REPLICA, open_uniform, substream
from cylstable.sampling import (
    AlphaParams,
    _noise_increments,
    generate_noise_path,
    noise_path_to_csv,
    sample_isotropic,
    sample_positive_stable,
    sample_scalar_sas,
)

from csv_oracles import long_noise_lines
from stream_oracles import keyed_stream

# two-sample KS critical value at the 1% level: c(0.01) * sqrt((n+m)/(n*m))
KS_COEFF_1PCT = math.sqrt(-math.log(0.005) / 2.0)


def ks_below_1pct(a: np.ndarray, b: np.ndarray) -> bool:
    stat = ks_2samp(a, b).statistic
    crit = KS_COEFF_1PCT * math.sqrt((a.size + b.size) / (a.size * b.size))
    return stat < crit


def test_params_validation():
    with pytest.raises(ValueError):
        AlphaParams(0.0)
    with pytest.raises(ValueError):
        AlphaParams(2.0)
    with pytest.raises(ValueError):
        AlphaParams(1.5, scale=0.0)


def test_scalar_median_is_zero():
    x = sample_scalar_sas(AlphaParams(1.5), seed=10, size=100_000)
    assert abs(np.median(x)) < 0.02


def test_scalar_cauchy_exceedance_arctan_oracle():
    # alpha = 1 is the Cauchy law: P(|X| > 1) = 1 - (2/pi) arctan(1) = 1/2
    oracle = 1.0 - (2.0 / math.pi) * math.atan(1.0)
    x = sample_scalar_sas(AlphaParams(1.0), seed=11, size=1_000_000)
    assert abs(np.mean(np.abs(x) > 1.0) - oracle) < 0.01


def test_scalar_characteristic_function():
    x = sample_scalar_sas(AlphaParams(1.5), seed=12, size=100_000)
    assert abs(np.mean(np.cos(x)) - math.exp(-1.0)) < 0.02


def test_scalar_scale_convention():
    # cf exp(-scale^alpha |u|^alpha): ecf at u = 1/scale equals e^-1
    scale = 2.0
    x = sample_scalar_sas(AlphaParams(1.5, scale=scale), seed=13, size=100_000)
    assert abs(np.mean(np.cos(x / scale)) - math.exp(-1.0)) < 0.02


def test_scalar_against_scipy_oracle():
    # independent implementation of the same law (scipy S1 parameterisation
    # with beta=0 has cf exp(-|u|^alpha))
    ours = sample_scalar_sas(AlphaParams(1.7), seed=14, size=10_000)
    ref = levy_stable.rvs(1.7, 0.0, size=10_000, random_state=np.random.default_rng(7))
    assert ks_below_1pct(ours, ref)


def test_positive_stable_strictly_positive():
    draws = sample_positive_stable(0.75, seed=20, size=50_000)
    assert np.all(draws > 0.0)


def test_positive_stable_rejects_bad_index():
    for bad in (0.0, 1.0, 1.5):
        with pytest.raises(ValueError):
            sample_positive_stable(bad, seed=0)


def test_positive_stable_laplace_transform():
    # calibrated closed form: E[exp(-s A)] = exp(-s^beta)
    draws = sample_positive_stable(0.75, seed=21, size=200_000)
    emp = np.mean(np.exp(-draws))
    assert abs(emp - math.exp(-1.0)) < 0.02


def test_positive_stable_tail_index():
    draws = sample_positive_stable(0.75, seed=22, size=1_000_000)
    r = np.geomspace(20.0, 100.0, 9)
    surv = np.array([(draws > rr).mean() for rr in r])
    slope = np.polyfit(np.log(r), np.log(surv), 1)[0]
    assert abs(slope + 0.75) < 0.1


def test_isotropic_cf_at_zero_is_one():
    x = sample_isotropic(1.5, 3, seed=30, size=1_000)
    ecf = np.mean(np.exp(1j * (x @ np.zeros(3))))
    assert ecf == 1.0


def test_isotropic_marginal_matches_scalar():
    # self-consistency: n=1 marginal equals the scalar sampler's law
    iso = sample_isotropic(1.5, 1, seed=31, size=10_000)[:, 0]
    sca = sample_scalar_sas(AlphaParams(1.5), seed=32, size=10_000)
    assert ks_below_1pct(iso, sca)


def test_isotropic_characteristic_function_direction():
    x = sample_isotropic(1.5, 3, seed=33, size=100_000)
    ecf = np.mean(np.exp(1j * (x @ np.array([1.0, 0.0, 0.0]))))
    assert abs(ecf - math.exp(-1.0)) < 0.02


def test_isotropic_rotation_invariance():
    n_draws = 100_000
    x = sample_isotropic(1.5, 2, seed=34, size=n_draws)
    theta = 0.7
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    u = np.array([0.8, 0.3])
    ecf_u = np.mean(np.exp(1j * (x @ u)))
    ecf_ru = np.mean(np.exp(1j * (x @ (rot @ u))))
    assert abs(ecf_u - ecf_ru) < 2.0 * 3.0 / math.sqrt(n_draws)


def test_sampler_symmetry_sign_statistic():
    n_draws = 100_000
    for seed, draws in (
        (35, sample_scalar_sas(AlphaParams(1.3), seed=35, size=n_draws)[:, None]),
        (36, sample_isotropic(1.5, 3, seed=36, size=n_draws)),
    ):
        u = np.arange(1, draws.shape[1] + 1, dtype=float)
        signs = np.sign(draws @ u)
        assert abs(signs.mean()) < 3.0 / math.sqrt(n_draws)


def test_noise_path_self_similarity():
    # sum of increments over [0, T] ~ T^(1/alpha) x standard scalar draw
    alpha, T, steps = 1.5, 2.0, 16
    grid = np.linspace(0.0, T, steps + 1)
    # one pass draws every path; row r equals generate_noise_path(..., seed=1000 + r)
    totals = _noise_increments(alpha, 1, grid, 1000 + np.arange(10_000))[:, :, 0].sum(axis=1)
    ref = T ** (1.0 / alpha) * sample_scalar_sas(AlphaParams(alpha), seed=40, size=10_000)
    assert ks_below_1pct(totals, ref)


def test_noise_path_single_step_grid():
    path = generate_noise_path(1.5, 2, [0.0, 1.0], seed=41)
    assert path.increments.shape == (1, 2)


def test_noise_path_row_characteristic_function():
    # rows of a uniform grid are iid (dt)^(1/alpha) x isotropic draws
    alpha, dt, rows = 1.5, 0.1, 100_000
    grid = np.linspace(0.0, rows * dt, rows + 1)
    path = generate_noise_path(alpha, 2, grid, seed=42)
    u = np.array([1.0, 1.0])
    ecf = np.mean(np.exp(1j * (path.increments @ u)))
    target = math.exp(-dt * 2.0**0.75)
    assert abs(ecf - target) < 0.02


def test_noise_path_rejects_bad_grids():
    with pytest.raises(ValueError):
        generate_noise_path(1.5, 1, [0.0, 0.5, 0.5, 1.0], seed=0)
    with pytest.raises(ValueError):
        generate_noise_path(1.5, 1, [0.1, 0.5], seed=0)


def test_extend_dimension_projects_back_bit_exactly():
    # a wider path at the same seed and grid holds the narrower one as its first columns,
    # also from an odd m, whose last pair drops its sine
    grid = np.linspace(0, 1, 9)
    wide = generate_noise_path(1.5, 5, grid, seed=51)
    for m in (2, 3):
        path = generate_noise_path(1.5, m, grid, seed=51)
        assert np.array_equal(wide.increments[:, :m], path.increments)
    # so does a batch of replicas, drawn as picard and uniqueness draw a chunk
    replicas = np.arange(3, 7)
    wide = _noise_increments(1.5, 5, grid, 51, TAG_REPLICA, replicas)
    assert wide.shape == (4, 8, 5)
    for m in (2, 3):
        narrow = _noise_increments(1.5, m, grid, 51, TAG_REPLICA, replicas)
        assert narrow.shape == (4, 8, m)
        assert np.array_equal(wide[..., :m], narrow)


def test_isotropic_blocks_are_the_rows_of_sample_isotropic():
    whole = sample_isotropic(1.5, 3, seed=53, size=1_000)
    own = 8 * (8 + 3 * 3)  # the sampler's own bytes a row at n = 3
    # one block, blocks of seven rows, blocks of one row
    for extra_row_bytes, block_rows in ((64 * 4, 1_000), (2**20 // 7 - own, 7), (2**21, 1)):
        blocks = list(sampling._isotropic_blocks(1.5, 3, 53, 1_000, extra_row_bytes))
        assert len(blocks[0]) == block_rows
        assert np.array_equal(np.concatenate(blocks), whole)
    with pytest.raises(ValueError, match="dimension n"):
        sampling._isotropic_blocks(1.5, 0, 53, 10, 64)  # checked at the call, not when drawn


def test_sample_isotropic_rows_are_the_rows_of_their_chunk_streams():
    # row r is row r mod 2**16 of chunk r // 2**16, named (seed, TAG_ISOTROPIC, n, k)
    rows = sample_isotropic(1.5, 2, seed=54, size=rng._CHUNK + 3)
    for k, chunk in ((0, rows[:3]), (1, rows[rng._CHUNK:])):
        name = (54, rng.TAG_ISOTROPIC, 2, k)
        sub, gauss = substream(*name), substream(*name, rng.TAG_GAUSSIAN)
        u = open_uniform(sub, (3, 2))
        expected = sampling._subgaussian(1.5, u, gauss.standard_normal((3, 2)))
        assert np.array_equal(chunk, expected)


def test_extended_rows_pass_isotropic_gof():
    dt, rows = 0.25, 20_000
    grid = np.linspace(0.0, rows * dt, rows + 1)
    path = generate_noise_path(1.5, 5, grid, seed=52)
    standardized = path.increments / dt ** (1.0 / 1.5)
    u_grid = np.eye(5) * 0.9
    result = char_function_test(
        [standardized], lambda u: math.exp(-np.linalg.norm(u) ** 1.5), u_grid
    )
    assert result["passed"], result


def test_determinism_across_runs_and_schedules():
    grid = np.linspace(0.0, 1.0, 33)
    first = generate_noise_path(1.5, 4, grid, seed=60)
    second = generate_noise_path(1.5, 4, grid, seed=60)
    assert np.array_equal(first.increments, second.increments)
    again = generate_noise_path(1.5, 4, grid, seed=60)
    assert np.array_equal(first.increments, again.increments)
    other = generate_noise_path(1.5, 4, grid, seed=61)
    assert not np.array_equal(first.increments, other.increments)


def test_noise_csv_cells_equal_the_per_value_long_layout(tmp_path, monkeypatch):
    # every cell of the wide noise.csv, rebuilt into the long layout of 0.17.0, is the
    # per-value %.17g text; one step a block writes the same bytes
    argv = ["noise", "--alpha", "1.5", "--m", "3", "--T", "0.3", "--M", "7", "--seed", "61",
            "--out", str(tmp_path)]
    assert main(argv) == 0
    text = (tmp_path / "noise.csv").read_text()
    monkeypatch.setattr(rng, "_BLOCK_BYTES", 1)
    assert main(argv) == 0
    assert (tmp_path / "noise.csv").read_text() == text

    path = generate_noise_path(1.5, 3, np.linspace(0.0, 0.3, 8), seed=61)
    reference = ["t_start,t_end,j,increment"]
    for i in range(path.steps):
        for j in range(path.m):
            reference.append(f"{path.grid[i]:.17g},{path.grid[i + 1]:.17g},{j + 1},"
                             f"{path.increments[i, j]:.17g}")
    assert long_noise_lines(text) == reference
    assert not any(line.startswith("# alpha=1.5,") for line in text.splitlines())
    assert text.endswith(noise_path_to_csv(path))
    assert noise_path_to_csv(path).count("\n") == 1 + path.steps


def test_positive_stable_finite_at_stream_extremes():
    # clip-boundary uniforms and extreme indices must not overflow
    from cylstable.sampling import _positive_stable_transform

    u1 = np.array([1e-16, 1e-12, 0.5, 1 - 1e-12, 1 - 1e-16])
    u2 = np.array([1e-16, 0.5, 1 - 1e-16, 1e-16, 0.5])
    for beta in (0.05, 0.5, 0.95):
        out = _positive_stable_transform(beta, u1, u2)
        assert np.all(np.isfinite(out)) and np.all(out > 0.0)


def _noise_rows_reference(alpha: float, grid: np.ndarray, seed: int, tag: int,
                          index: int) -> np.ndarray:
    """Three coordinates a row: row i's stream, keyed (seed, tag, index, i), gives 2 + 4 uniforms.

    u0, u1 feed the subordinator; pair k of u2..u5 gives coordinates 2k and 2k + 1 as
    R cos(Theta) and R sin(Theta), R = sqrt(-2 log u(2+2k)), Theta = 2 pi u(3+2k); the
    third coordinate's sine is dropped.
    """
    u = np.stack([open_uniform(keyed_stream(seed, tag, index, i), 2 + 4)
                  for i in range(grid.size - 1)])
    radius, theta = np.sqrt(-2.0 * np.log(u[:, 2::2])), 2.0 * np.pi * u[:, 3::2]
    z = np.stack([radius * np.cos(theta), radius * np.sin(theta)], axis=-1).reshape(-1, 4)
    rows = sampling._subgaussian(alpha, u[:, :2], z[:, :3])
    return np.diff(grid)[:, None] ** (1.0 / alpha) * rows


def test_noise_rows_equal_per_row_keyed_streams():
    # row i is drawn from its own stream, keyed by its name (seed, TAG_NOISE_ROW, 0, i)
    grid = np.concatenate([[0.0], np.cumsum(np.linspace(0.01, 0.05, 23))])
    for seed in (0, 17, 2**32 - 1):
        reference = _noise_rows_reference(1.6, grid, seed, TAG_NOISE_ROW, 0)
        assert np.array_equal(generate_noise_path(1.6, 3, grid, seed).increments, reference)
    seeds = np.array([5, 2**32 - 1], dtype=np.uint64)
    batch = _noise_increments(1.6, 3, grid, seeds)
    for path, seed in zip(batch, seeds, strict=True):
        assert np.array_equal(path, generate_noise_path(1.6, 3, grid, int(seed)).increments)
    # a glue piece's name: row i from (seed, TAG_PIECE, piece, i)
    reference = _noise_rows_reference(1.6, grid, 9, TAG_PIECE, 2)
    assert np.array_equal(_noise_increments(1.6, 3, grid, 9, TAG_PIECE, 2), reference)


def test_box_muller_pair_is_two_independent_standard_normals():
    # one pair of noise-row uniforms (u2, u3) of 10^5 rows: its two coordinates
    n = 100_000
    u = rng.open_uniform_rows([83, TAG_NOISE_ROW, 0, np.arange(n)], 4)[:, 2:]
    z = sampling._box_muller(u)
    # their empirical 2-d cf is the N(0, I) one exp(-|v|^2 / 2): each is N(0, 1), and the
    # points off the axes see their dependence
    points = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0], [0.5, 1.5], [2.0, 0.5]])
    ecf = np.exp(1j * (z @ points.T)).mean(axis=0)
    target = np.exp(-0.5 * (points**2).sum(axis=1))
    assert np.abs(ecf - target).max() < 3.0 / math.sqrt(n)


def test_box_muller_pair_is_the_polar_form_of_its_uniforms():
    # the first uniform of a pair gives R, the second Theta
    u = rng.open_uniform_rows([84, TAG_NOISE_ROW, 0, np.arange(20_000)], 4)[:, 2:]
    z = sampling._box_muller(u)
    assert np.allclose(np.exp(-0.5 * (z**2).sum(axis=1)), u[:, 0], rtol=1e-12, atol=0.0)
    turns = np.arctan2(z[:, 1], z[:, 0]) / (2.0 * np.pi) - u[:, 1]
    assert np.abs(turns - np.round(turns)).max() < 1e-12


def test_box_muller_blocks_change_no_bit(monkeypatch):
    u = rng.open_uniform_rows([85, TAG_NOISE_ROW, 0, np.arange(60_000)], 6)[:, 2:]
    whole = sampling._box_muller(u)  # two pairs a row, (60_000, 4)
    assert whole.shape == u.shape and len(rng._blocks(2 * 60_000, 32)) == 4
    monkeypatch.setattr(rng, "_BLOCK_BYTES", 32 * 7)  # seven pairs a block
    assert np.array_equal(sampling._box_muller(u[-3_000:]).view(np.int64),
                          whole[-3_000:].view(np.int64))
    monkeypatch.setattr(rng, "_BLOCK_BYTES", 1)  # one pair a block
    assert np.array_equal(sampling._box_muller(u[:500]).view(np.int64),
                          whole[:500].view(np.int64))


def test_box_muller_finite_at_stream_extremes():
    # the clip bounds of open_uniform, every binade down to them and 1 - 2^-k: R stays
    # within sqrt(-2 log LO) and above 0, and Theta sweeps the circle without a NaN
    radii = np.concatenate([[rng._UNIFORM_LO, rng._UNIFORM_HI, 0.5],
                            2.0 ** -np.arange(1, 54.0), 1.0 - 2.0 ** -np.arange(1, 54.0)])
    angles = np.array([rng._UNIFORM_LO, 0.25, 0.5, 0.75, rng._UNIFORM_HI])
    u = np.stack(np.meshgrid(radii, angles, indexing="ij"), axis=-1).reshape(-1, 2)
    z = sampling._box_muller(u)
    assert np.all(np.isfinite(z))
    norm = np.hypot(z[:, 0], z[:, 1])
    assert norm.max() <= math.sqrt(-2.0 * math.log(rng._UNIFORM_LO)) * (1.0 + 1e-15)
    assert np.all(norm > 0.0)
