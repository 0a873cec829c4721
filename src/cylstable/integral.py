"""Stochastic integrals of step integrands against truncated cylindrical noise.

A step integrand holds one Hilbert-Schmidt matrix per grid cell
(t_i, t_{i+1}], measurable at the left endpoint; the integral path is the
running sum of matrix-vector products with the noise increments.  Left
endpoints everywhere: the matrix of cell i multiplies the increment over
(t_i, t_{i+1}], so I(t_k) depends only on the matrices and increments of
the cells before t_k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .hilbert import as_matrix
from .rng import TAG_REFINE
from .sampling import AlphaParams, NoisePath, _chunked_isotropic, _row_norms

__all__ = [
    "StepIntegrand",
    "integrate",
    "constant_integrand",
    "refinement_experiment",
]


@dataclass(frozen=True)
class StepIntegrand:
    """Piecewise-constant predictable operator-valued integrand on a grid.

    ``values[i]`` is the n x m matrix acting on (t_i, t_{i+1}]; it may
    depend only on information available at or before t_i.
    """

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        if grid.ndim != 1 or grid.size < 2 or not np.all(np.diff(grid) > 0.0):
            raise ValueError("grid must be strictly increasing with at least two times")
        if values.ndim != 3 or values.shape[0] != grid.size - 1:
            raise ValueError(
                f"values must have shape (steps, n, m) with steps={grid.size - 1}, "
                f"got {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("integrand matrices must have finite entries")

    @property
    def steps(self) -> int:
        return self.grid.size - 1

    def alpha_scale(self, alpha: float) -> float:
        """(sum_i ||Psi_i||_HS^alpha dt_i)^(1/alpha), max-factored.

        Factoring out the largest HS norm keeps the result exactly
        homogeneous under power-of-two rescaling of the integrand.
        """
        norms = np.linalg.norm(self.values.reshape(self.steps, -1), axis=1)
        peak = norms.max()
        if peak == 0.0:
            return 0.0
        dts = np.diff(self.grid)
        return float(peak * np.sum((norms / peak) ** alpha * dts) ** (1.0 / alpha))


def integrate(integrand: StepIntegrand, noise: NoisePath) -> np.ndarray:
    """Partial-sum integral path I(t_k) = sum_{i<k} Psi_i dL_i, shape (M+1, n)."""
    if not np.array_equal(integrand.grid, noise.grid):
        raise ValueError("integrand and noise grids differ; generate noise on the finest grid")
    terms = np.einsum("inm,im->in", integrand.values, noise.increments)
    path = np.zeros((noise.steps + 1, integrand.values.shape[1]))
    np.cumsum(terms, axis=0, out=path[1:])
    return path


def constant_integrand(psi, grid) -> StepIntegrand:
    entries = as_matrix(psi)
    grid = np.asarray(grid, dtype=float)
    return StepIntegrand(grid, np.broadcast_to(entries, (grid.size - 1, *entries.shape)).copy())


def _binomial_se(p_hat: np.ndarray, n: int) -> np.ndarray:
    return np.sqrt(np.clip(p_hat * (1.0 - p_hat), 0.0, None) / n)


def _refinement_diffs(weights: np.ndarray, entries: np.ndarray, alpha: float, dt: float,
                      replicas: int, seed: int) -> np.ndarray:
    """||I_k(T) - I_K(T)|| per coarse level k and replica, shape (levels - 1, replicas).

    I_k(T) = sum_i weights[k, i] psi0 dL_i; only the projected increment
    psi0 dL_i enters, so the m-dim noise is integrated once per replica.
    Replica r's increments are the rows of sample r of
    :func:`sampling._chunked_isotropic` named (seed, TAG_REFINE), one row a
    step, drawn for a block of replicas at once; every product is per replica.
    """
    levels, steps = weights.shape
    n, m = entries.shape
    diffs = np.empty((levels - 1, replicas))
    scale = dt ** (1.0 / alpha)
    start = 0
    # float64 temporaries per step of a replica: 8 for the subordinator, 3 per noise and 2 per
    # projected coordinate (traced at n, m = 1, 1; 2, 3; 1, 4: 11.1, 17.9 and 19.9 floats)
    for rows in _chunked_isotropic(alpha, replicas, (steps, m), 8 * steps * (8 + 3 * m + 2 * n),
                                   seed, TAG_REFINE):
        block = slice(start, start + len(rows))
        projected = scale * rows @ entries.T  # (R, steps, n)
        fine_total = weights[-1] @ projected
        for k in range(levels - 1):
            diffs[k, block] = _row_norms(weights[k] @ projected - fine_total)
        start = block.stop
    return diffs


def refinement_experiment(
    profile: Callable[[np.ndarray], np.ndarray],
    psi0,
    alpha: float,
    T: float,
    coarse_steps: int,
    levels: int,
    replicas: int,
    epsilon: float,
    seed: int,
) -> dict:
    """Integral convergence under dyadic left-endpoint refinement.

    The target integrand is Psi(s) = profile(s) * psi0 (deterministic,
    continuous in time).  Level k samples it at the left endpoints of a
    grid with coarse_steps * 2^k cells; all levels are integrated against
    the same noise, generated once per replica on the finest grid.  Reports
    the exceedance probabilities P(||I_k(T) - I_K(T)|| > epsilon) against
    the finest level K with binomial standard errors; the L^alpha distances
    of the levels to the target decay like 2^-k, so the table must be
    nonincreasing to within Monte-Carlo noise.
    """
    entries = as_matrix(psi0)
    AlphaParams(alpha)
    if levels < 2:
        raise ValueError("need at least two refinement levels")
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    if coarse_steps < 1:
        raise ValueError(f"need at least one coarse step, got {coarse_steps}")
    for name, value in (("T", T), ("epsilon", epsilon)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")
    fine_steps = coarse_steps * 2 ** (levels - 1)
    fine_grid = np.linspace(0.0, T, fine_steps + 1)
    dt = T / fine_steps

    # profile at the left endpoint of the containing cell, per level
    weights = np.empty((levels, fine_steps))
    for k in range(levels):
        stride = 2 ** (levels - 1 - k)
        left_idx = (np.arange(fine_steps) // stride) * stride
        weights[k] = profile(fine_grid[left_idx])

    diffs = _refinement_diffs(weights, entries, alpha, dt, replicas, seed)
    exceed = (diffs > epsilon).mean(axis=1)
    se = _binomial_se(exceed, replicas)
    table = {
        "level": np.arange(levels - 1),
        "epsilon": np.full(levels - 1, epsilon),
        "exceedance": exceed,
        "stderr": se,
    }
    monotone = all(
        exceed[k + 1] <= exceed[k] + 2.0 * math.hypot(se[k], se[k + 1])
        for k in range(levels - 2)
    )
    return {"table": table, "monotone": monotone, "replicas": replicas}
