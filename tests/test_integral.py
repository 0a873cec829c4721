"""Stochastic integral: linearity, adaptedness, refinement convergence."""

import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from cylstable.integral import (
    StepIntegrand,
    _refinement_diffs,
    constant_integrand,
    integrate,
    refinement_experiment,
)
from cylstable.rng import TAG_GAUSSIAN, TAG_REFINE, _blocks, open_uniform, substream
from cylstable.sampling import (
    AlphaParams,
    NoisePath,
    _noise_increments,
    _positive_stable_transform,
    generate_noise_path,
    sample_scalar_sas,
)

KS_COEFF_1PCT = math.sqrt(-math.log(0.005) / 2.0)


def test_radonify_tail_index():
    # ||psi(L(1))|| has log-log survival slope -alpha
    alpha = 1.5
    from cylstable.sampling import sample_isotropic

    draws = sample_isotropic(alpha, 2, seed=80, size=1_000_000)
    norms = np.linalg.norm(draws @ np.diag([1.0, 0.5]).T, axis=1)
    r = np.geomspace(10.0, 100.0, 9)
    surv = np.array([(norms > rr).mean() for rr in r])
    slope = np.polyfit(np.log(r), np.log(surv), 1)[0]
    assert abs(slope + alpha) < 0.1


def test_integrate_zero_integrand():
    grid = np.linspace(0.0, 1.0, 9)
    noise = generate_noise_path(1.5, 2, grid, seed=81)
    path = integrate(StepIntegrand(grid, np.zeros((8, 3, 2))), noise)
    assert np.array_equal(path, np.zeros((9, 3)))


def test_integrate_constant_rank_one_couples_to_scalar():
    # I(T) = h1 * (total first-coordinate increment); with T = 1 its law is
    # T^(1/alpha) x standard scalar stable
    alpha, steps, n_rep = 1.5, 8, 10_000
    grid = np.linspace(0.0, 1.0, steps + 1)
    psi = np.zeros((2, 2))
    psi[0, 0] = 1.0
    integrand = constant_integrand(psi, grid)
    totals = np.empty(n_rep)
    seeds = 9_000 + np.arange(n_rep)
    # one pass draws every path; row r equals generate_noise_path(..., seed=seeds[r])
    increments = _noise_increments(alpha, 2, grid, seeds)
    for r in range(n_rep):
        noise = NoisePath(alpha, 2, grid, increments[r], int(seeds[r]))
        path = integrate(integrand, noise)
        assert path[-1, 1] == 0.0
        assert path[-1, 0] == np.cumsum(noise.increments[:, 0])[-1]
        totals[r] = path[-1, 0]
    ref = sample_scalar_sas(AlphaParams(alpha), seed=82, size=n_rep)
    stat = ks_2samp(totals, ref).statistic
    assert stat < KS_COEFF_1PCT * math.sqrt(2.0 / n_rep)


def test_integrate_linearity():
    grid = np.linspace(0.0, 1.0, 17)
    noise = generate_noise_path(1.5, 3, grid, seed=83)
    rng = np.random.default_rng(5)
    psi1 = StepIntegrand(grid, rng.standard_normal((16, 2, 3)))
    psi2 = StepIntegrand(grid, rng.standard_normal((16, 2, 3)))
    a, b = 2.0, -0.5
    combo = StepIntegrand(grid, a * psi1.values + b * psi2.values)
    lhs = integrate(combo, noise)
    rhs = a * integrate(psi1, noise) + b * integrate(psi2, noise)
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_integrate_grid_mismatch():
    noise = generate_noise_path(1.5, 1, np.linspace(0, 1, 5), seed=84)
    other = StepIntegrand(np.linspace(0, 1, 9), np.ones((8, 1, 1)))
    with pytest.raises(ValueError):
        integrate(other, noise)


def test_stopping_consistency_bit_exact():
    grid = np.linspace(0.0, 1.0, 11)
    noise = generate_noise_path(1.5, 2, grid, seed=85)
    integrand = StepIntegrand(grid, np.random.default_rng(3).standard_normal((10, 2, 2)))
    values = integrand.values.copy()
    values[6:] = 0.0  # times 1_[0, tau] for tau = grid[6]
    full = integrate(integrand, noise)
    stopped = integrate(StepIntegrand(grid, values), noise)
    assert np.array_equal(stopped[-1], full[6])
    assert np.array_equal(stopped[6:], np.broadcast_to(full[6], stopped[6:].shape))


def test_refinement_piecewise_constant_is_exact():
    result = refinement_experiment(
        profile=lambda t: np.ones_like(t),
        psi0=np.array([[1.0]]),
        alpha=1.5,
        T=1.0,
        coarse_steps=4,
        levels=4,
        replicas=200,
        epsilon=1e-12,
        seed=90,
    )
    assert np.array_equal(result["table"]["exceedance"], np.zeros(3))
    assert result["monotone"]


def test_refinement_linear_profile_decays():
    result = refinement_experiment(
        profile=lambda t: t,
        psi0=np.array([[1.0]]),
        alpha=1.5,
        T=1.0,
        coarse_steps=8,
        levels=5,
        replicas=2000,
        epsilon=0.02,
        seed=91,
    )
    assert result["monotone"]
    exceed = result["table"]["exceedance"]
    assert exceed[0] > exceed[-1]


def test_refinement_large_epsilon_all_zero():
    result = refinement_experiment(
        profile=lambda t: t,
        psi0=np.array([[1.0]]),
        alpha=1.5,
        T=1.0,
        coarse_steps=8,
        levels=4,
        replicas=300,
        epsilon=1e6,
        seed=92,
    )
    assert np.array_equal(result["table"]["exceedance"], np.zeros(3))


def test_alpha_scale_power_of_two_exact():
    grid = np.linspace(0.0, 1.0, 9)
    values = np.random.default_rng(1).standard_normal((8, 2, 2))
    base = StepIntegrand(grid, values)
    scaled = StepIntegrand(grid, 4.0 * values)
    assert scaled.alpha_scale(1.5) == 4.0 * base.alpha_scale(1.5)


def per_replica_refinement_diffs(weights, entries, alpha, dt, replicas, seed):
    """Reference for _refinement_diffs: each replica's own draws of chunk 0's two streams (2 open
    uniforms, then m Gaussians a step), and one 1-d norm per replica and level."""
    levels, steps = weights.shape
    diffs = np.empty((levels - 1, replicas))
    sub, gauss = substream(seed, TAG_REFINE, 0), substream(seed, TAG_REFINE, 0, TAG_GAUSSIAN)
    for r in range(replicas):
        u = open_uniform(sub, (steps, 2))
        z = gauss.standard_normal((steps, entries.shape[1]))
        a = _positive_stable_transform(alpha / 2.0, u[:, 0], u[:, 1])
        projected = dt ** (1.0 / alpha) * (np.sqrt(2.0 * a)[:, None] * z) @ entries.T
        fine_total = weights[-1] @ projected
        for k in range(levels - 1):
            diffs[k, r] = np.linalg.norm(weights[k] @ projected - fine_total, axis=-1)
    return diffs


@pytest.mark.parametrize("entries", [np.array([[1.0]]),
                                     np.array([[1.0, 0.3, 0.0], [0.2, 0.5, -0.4]])])
def test_refinement_diffs_equal_per_replica_reference(entries, monkeypatch):
    weights = np.random.default_rng(3).uniform(0.0, 1.0, (4, 32))
    reference = per_replica_refinement_diffs(weights, entries, 1.4, 1.0 / 32, 30, 93)
    assert np.array_equal(_refinement_diffs(weights, entries, 1.4, 1.0 / 32, 30, 93), reference)
    monkeypatch.setattr("cylstable.rng._BLOCK_BYTES", 1 << 16)  # several replica blocks
    n, m = entries.shape
    assert len(_blocks(30, 8 * 32 * (8 + 3 * m + 2 * n))) > 1
    assert np.array_equal(_refinement_diffs(weights, entries, 1.4, 1.0 / 32, 30, 93), reference)
