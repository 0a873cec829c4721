"""Samplers: distributional oracles, projective consistency, determinism."""

import io
import math

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import ks_2samp, levy_stable

from cylstable import rng, sampling
from cylstable.experiments import char_function_test
from cylstable.rng import TAG_NOISE_ROW, TAG_PIECE, TAG_REPLICA, open_uniform, substream
from cylstable.sampling import (
    AlphaParams,
    _isotropic_from_uniforms,
    _noise_increments,
    generate_noise_path,
    noise_csv_lines,
    noise_path_to_csv,
    sample_isotropic,
    sample_positive_stable,
    sample_scalar_sas,
)

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
    # a wider path at the same seed and grid holds the narrower one as its first columns
    grid = np.linspace(0, 1, 9)
    path = generate_noise_path(1.5, 2, grid, seed=51)
    wide = generate_noise_path(1.5, 5, grid, seed=51)
    assert np.array_equal(wide.increments[:, :2], path.increments)
    # so does a batch of replicas, drawn as picard and uniqueness draw a chunk
    replicas = np.arange(3, 7)
    narrow = _noise_increments(1.5, 2, grid, 51, TAG_REPLICA, replicas)
    wide = _noise_increments(1.5, 5, grid, 51, TAG_REPLICA, replicas)
    assert narrow.shape == (4, 8, 2) and wide.shape == (4, 8, 5)
    assert np.array_equal(wide[..., :2], narrow)


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


def test_noise_csv_round_trip():
    path = generate_noise_path(1.5, 2, np.linspace(0, 0.5, 6), seed=70)
    text = noise_path_to_csv(path)
    assert text.splitlines()[0] == f"# alpha={path.alpha!r}, m={path.m}, seed={path.seed}"
    assert text.splitlines()[1] == "t_start,t_end,j,increment"
    rows = np.genfromtxt(io.StringIO(text), delimiter=",", names=True, skip_header=1)
    assert np.array_equal(rows["t_start"], np.repeat(path.grid[:-1], path.m))
    assert np.array_equal(rows["t_end"], np.repeat(path.grid[1:], path.m))
    assert np.array_equal(rows["j"], np.tile(np.arange(1, path.m + 1), path.steps))
    assert np.array_equal(rows["increment"].reshape(path.steps, path.m), path.increments)


def test_positive_stable_finite_at_stream_extremes():
    # clip-boundary uniforms and extreme indices must not overflow
    from cylstable.sampling import _positive_stable_transform

    u1 = np.array([1e-16, 1e-12, 0.5, 1 - 1e-12, 1 - 1e-16])
    u2 = np.array([1e-16, 0.5, 1 - 1e-16, 1e-16, 0.5])
    for beta in (0.05, 0.5, 0.95):
        out = _positive_stable_transform(beta, u1, u2)
        assert np.all(np.isfinite(out)) and np.all(out > 0.0)


def test_noise_rows_equal_per_row_substreams():
    # row i is drawn from its own stream (seed, TAG_NOISE_ROW, i)
    grid = np.concatenate([[0.0], np.cumsum(np.linspace(0.01, 0.05, 23))])
    for seed in (0, 17, 2**32 - 1):
        uniforms = np.stack([open_uniform(substream(seed, TAG_NOISE_ROW, i), 2 + 3)
                             for i in range(grid.size - 1)])
        reference = np.diff(grid)[:, None] ** (1.0 / 1.6) * _isotropic_from_uniforms(1.6, uniforms)
        assert np.array_equal(generate_noise_path(1.6, 3, grid, seed).increments, reference)
    seeds = np.array([5, 2**32 - 1], dtype=np.uint64)
    batch = _noise_increments(1.6, 3, grid, seeds)
    for path, seed in zip(batch, seeds, strict=True):
        assert np.array_equal(path, generate_noise_path(1.6, 3, grid, int(seed)).increments)
    # a longer name: row i from (*name, TAG_NOISE_ROW, i)
    uniforms = np.stack([open_uniform(substream(9, TAG_PIECE, 2, TAG_NOISE_ROW, i), 2 + 3)
                         for i in range(grid.size - 1)])
    reference = np.diff(grid)[:, None] ** (1.0 / 1.6) * _isotropic_from_uniforms(1.6, uniforms)
    assert np.array_equal(_noise_increments(1.6, 3, grid, 9, TAG_PIECE, 2), reference)


def test_noise_csv_equals_per_value_writer(monkeypatch):
    path = generate_noise_path(1.5, 3, np.linspace(0.0, 0.3, 8), seed=61)
    lines = ["# note", f"# alpha={path.alpha!r}, m={path.m}, seed={path.seed}",
             "t_start,t_end,j,increment"]
    for i in range(path.steps):
        for j in range(path.m):
            lines.append(f"{path.grid[i]:.17g},{path.grid[i + 1]:.17g},{j + 1},"
                         f"{path.increments[i, j]:.17g}")
    reference = "\n".join(lines) + "\n"
    assert "".join(noise_csv_lines(path, ("note",))) == reference
    assert noise_path_to_csv(path) == reference.partition("\n")[2]
    monkeypatch.setattr(rng, "_BLOCK_BYTES", 1)  # one step a block
    assert len(list(noise_csv_lines(path))) == 2 + path.steps
    assert "".join(noise_csv_lines(path, ("note",))) == reference


def _ndtri_edges() -> np.ndarray:
    """Smallest doubles of every binade, 1 - 2^-k, 1/2 and the Cephes split points."""
    splits = np.array([math.exp(-2.0), 1.0 - math.exp(-2.0)])
    return np.concatenate([
        2.0 ** -np.arange(1, 1075.0), 1.0 - 2.0 ** -np.arange(1, 54.0), [0.5],
        splits, np.nextafter(splits, 0.0), np.nextafter(splits, 1.0),
    ])


def test_ndtri_with_libm_log_equals_scipy_bit_for_bit(monkeypatch):
    # the port is Cephes ndtri operation for operation; libm's log makes it scipy's
    monkeypatch.setattr(sampling, "_log", lambda x: np.array([math.log(v) for v in x]))
    u = np.concatenate([open_uniform(substream(80), 100_000), _ndtri_edges()])
    assert np.all((u > 0.0) & (u < 1.0))
    assert np.array_equal(sampling._ndtri(u).view(np.int64), ndtri(u).view(np.int64))


def test_ndtri_blocks_change_no_bit(monkeypatch):
    u = np.concatenate([open_uniform(substream(82), 60_000), _ndtri_edges()])
    whole = sampling._ndtri_block(u).view(np.int64)  # every element in one pass
    assert len(rng._blocks(u.size, 40)) == 3
    assert np.array_equal(sampling._ndtri(u).view(np.int64), whole)
    monkeypatch.setattr(rng, "_BLOCK_BYTES", 40 * 7)  # seven elements a block
    assert np.array_equal(sampling._ndtri(u[-3_000:]).view(np.int64), whole[-3_000:])


def test_ndtri_with_numpy_log_is_within_8_ulp_of_scipy():
    # numpy's SIMD log may differ from libm's by an ulp, moving a few draws slightly
    u = open_uniform(substream(81), (1000, 1000))
    ours, ref = sampling._ndtri(u), ndtri(u)
    assert ours.shape == u.shape
    assert np.array_equal(np.signbit(ours), np.signbit(ref))
    ulps = np.abs(ours.view(np.int64) - ref.view(np.int64))
    assert np.count_nonzero(ulps) < 1e-3 * u.size
    assert ulps.max() <= 8
