"""Discrete mild-solution solver: Picard iteration, residual certificate, gluing.

The mild form on a grid 0 = t_0 < ... < t_M = T reads

    X(t_k) = S(t_k) x0 + sum_{i<k} S(t_k - t_i) F(X(t_i)) dt_i
                       + sum_{i<k} S(t_k - t_i) G(X(t_i)) dL_i,

with left-endpoint evaluation in both sums (the predictable convention;
a midpoint rule would break adaptedness).  The semigroup factor is applied
exactly through the diagonal exponentials, so the fixed-point residual
isolates Picard convergence rather than discretisation error.  Successive
iterates are propagated by the exact one-step recurrence
C_{k+1} = e^{-lambda dt_k) (C_k + b_k); the residual certificate
re-evaluates the defining double sum directly.

Given a fixed noise realisation the iteration map is strictly causal in
time, hence nilpotent: the discrete fixed point exists, is unique, and is
reached after at most M+1 sweeps regardless of the Picard seed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .constants import c3_and_Tmax
from .hilbert import DiagonalModel
from .rng import TAG_PIECE
from .sampling import NoisePath, generate_noise_path

__all__ = [
    "NonConvergenceError",
    "SolverConfig",
    "MildPath",
    "picard_step",
    "solve",
    "residual",
    "glue_solve",
    "binding_time_bound",
]

GLUE_SAFETY = 0.99


class NonConvergenceError(Exception):
    """Picard gap above tolerance at the iteration cap."""

    def __init__(self, message: str, path: "MildPath | None" = None):
        super().__init__(message)
        self.path = path


@dataclass(frozen=True)
class SolverConfig:
    """Horizon, grid size, truncations, Picard controls and the seed."""

    alpha: float
    T: float
    M: int
    n: int
    m: int | None = None
    N_max: int = 64
    tol: float = 1e-12
    seed: int = 0
    x0: np.ndarray | None = None

    def __post_init__(self):
        if not 1.0 < self.alpha < 2.0:
            raise ValueError(f"alpha must lie in (1, 2) for the solver, got {self.alpha}")
        if not 0.0 < self.T < math.inf:
            raise ValueError(f"T must be positive and finite, got {self.T}")
        if self.M < 1:
            raise ValueError(f"M must be >= 1, got {self.M}")
        if self.N_max < 1:
            raise ValueError("N_max must be >= 1")
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.x0 is not None:
            object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float))

    @property
    def noise_dim(self) -> int:
        return self.m if self.m is not None else self.n

    def initial_state(self) -> np.ndarray:
        if self.x0 is None:
            k = np.arange(1, self.n + 1, dtype=float)
            x0 = 1.0 / k
            return x0 / np.linalg.norm(x0)
        if self.x0.shape != (self.n,):
            raise ValueError(f"x0 must have shape ({self.n},), got {self.x0.shape}")
        return self.x0

    def grid(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.M + 1)


@dataclass
class MildPath:
    """Discrete trajectory of the (approximate) mild solution plus diagnostics."""

    grid: np.ndarray
    states: np.ndarray
    iteration_count: int
    final_picard_gap: float
    residual: float
    gaps: list[float] = field(default_factory=list)
    piece_breaks: list[int] = field(default_factory=list)
    piece_residuals: list[float] = field(default_factory=list)

    def __post_init__(self):
        if self.states.shape[0] != self.grid.size:
            raise ValueError("states must provide one vector per grid time")
        if not np.all(np.isfinite(self.states)):
            raise ValueError("states must be finite")
        if self.final_picard_gap < 0.0 or self.residual < 0.0:
            raise ValueError("diagnostics must be nonnegative")

    @property
    def terminal(self) -> np.ndarray:
        return self.states[-1]


def horizon_bounds(model: DiagonalModel, alpha: float, c_convention: float = 1.0) -> dict:
    """Admissible-horizon bounds (c3, T_uniq, T_picard, T_bound) for this model."""
    c_f, c_g = model.holder_constants()
    return c3_and_Tmax(alpha, c_f, c_g, c_convention)


def binding_time_bound(model: DiagonalModel, alpha: float, c_convention: float = 1.0) -> float:
    """min of the uniqueness and iteration horizons for this model's constants."""
    return horizon_bounds(model, alpha, c_convention)["T_bound"]


def _driven_diagonal(model: DiagonalModel, increments: np.ndarray) -> np.ndarray:
    """Noise increments aligned with the state coordinates (pad/truncate to n)."""
    steps, m = increments.shape
    n = model.n
    if m >= n:
        return increments[:, :n]
    out = np.zeros((steps, n))
    out[:, :m] = increments
    return out


def _semigroup_flow(model: DiagonalModel, grid: np.ndarray, x0: np.ndarray) -> np.ndarray:
    return np.exp(-np.outer(grid, model.lambdas)) * x0[None, :]


def picard_step(
    model: DiagonalModel,
    prev_states: np.ndarray,
    noise: NoisePath,
    x0: np.ndarray,
) -> np.ndarray:
    """One Picard sweep: new states from the previous path and the fixed noise.

    Both convolution sums are advanced by the exact recurrence
    C_{k+1} = e^{-lambda dt_k} (C_k + b_k) with b_k the left-endpoint load.
    """
    grid = noise.grid
    prev_states = np.asarray(prev_states, dtype=float)
    if prev_states.shape != (grid.size, model.n):
        raise ValueError(
            f"previous path has shape {prev_states.shape}, expected {(grid.size, model.n)}"
        )
    driven = _driven_diagonal(model, noise.increments)
    dts = noise.dts
    lam = model.lambdas
    new = _semigroup_flow(model, grid, x0)
    conv = np.zeros(model.n)
    for k in range(1, grid.size):
        decay = np.exp(-lam * dts[k - 1])
        x_prev = prev_states[k - 1]
        load = model.drift(x_prev) * dts[k - 1] + model.diffusion_diagonal(x_prev) * driven[k - 1]
        conv = decay * (conv + load)
        new[k] += conv
    return new


def residual(model: DiagonalModel, path: MildPath, noise: NoisePath, x0: np.ndarray) -> float:
    """Fixed-point certificate: sup_k distance of X(t_k) from its defining sum.

    Evaluated through the direct double sum (matrix of exact exponentials),
    independent of the recurrence used inside :func:`picard_step`.
    """
    grid = noise.grid
    if not np.array_equal(grid, path.grid):
        raise ValueError("path and noise must share a grid")
    states = path.states
    driven = _driven_diagonal(model, noise.increments)
    dts = noise.dts
    loads = model.drift(states[:-1]) * dts[:, None] + model.diffusion_diagonal(states[:-1]) * driven
    lags = grid[:, None] - grid[None, :-1]  # (M+1, M) matrix of t_k - t_i
    worst = 0.0
    flow = _semigroup_flow(model, grid, x0)
    for k in range(grid.size):
        weights = np.exp(-np.outer(model.lambdas, lags[k, :k]))  # (n, k)
        rhs = flow[k] + (weights * loads[:k].T).sum(axis=1)
        worst = max(worst, float(np.linalg.norm(states[k] - rhs)))
    return worst


def solve(
    model: DiagonalModel,
    config: SolverConfig,
    noise: NoisePath | None = None,
    zero_seed_path: bool = False,
    warn_beyond_bound: bool = True,
) -> MildPath:
    """Iterate the Picard map to the discrete fixed point.

    Seeds with the semigroup flow S(t)x0 (the zero path is available for
    the uniqueness experiment only).  Raises :class:`NonConvergenceError`
    with the partial path attached when the gap is still above tolerance at
    N_max; beyond the proven admissible horizon that outcome is a
    diagnostic, not a bug.
    """
    grid = config.grid()
    if noise is None:
        noise = generate_noise_path(config.alpha, config.noise_dim, grid, config.seed)
    elif not np.array_equal(noise.grid, grid):
        raise ValueError("provided noise grid does not match the solver grid")
    if warn_beyond_bound:
        bound = binding_time_bound(model, config.alpha)
        if config.T > bound:
            warnings.warn(
                f"horizon T={config.T:.6g} exceeds the binding admissible bound "
                f"{bound:.6g}; convergence is no longer guaranteed",
                stacklevel=2,
            )
    x0 = config.initial_state()
    prev = np.zeros((grid.size, model.n)) if zero_seed_path else _semigroup_flow(model, grid, x0)
    gaps: list[float] = []
    for _ in range(config.N_max):
        new = picard_step(model, prev, noise, x0)
        gap = float(np.linalg.norm(new - prev, axis=1).max())
        gaps.append(gap)
        prev = new
        if gap < config.tol:
            path = MildPath(
                grid=grid,
                states=prev,
                iteration_count=len(gaps),
                final_picard_gap=gap,
                residual=0.0,
                gaps=gaps,
            )
            path.residual = residual(model, path, noise, x0)
            return path
    partial = MildPath(
        grid=grid,
        states=prev,
        iteration_count=len(gaps),
        final_picard_gap=gaps[-1],
        residual=math.inf,
        gaps=gaps,
    )
    raise NonConvergenceError(
        f"Picard gap {gaps[-1]:.3e} still above tol {config.tol:.1e} after "
        f"{config.N_max} iterations",
        path=partial,
    )


def glue_solve(
    model: DiagonalModel,
    config: SolverConfig,
    c_convention: float = 1.0,
) -> MildPath:
    """Solve on an arbitrary horizon by gluing admissible-length pieces.

    The horizon is split into equal pieces of length
    T/ceil(T/(0.99 * T_bound)); each piece is solved with the previous
    terminal state as initial condition (bit-exact handoff) and its own
    noise stream derived from (seed, piece index).  Every piece must get at
    least 2 of the M steps, so the work stays bounded by M: a one-step
    piece is solved exactly by 2 sweeps (the causal Picard map is
    nilpotent) and could never report non-convergence.  Requests with
    more than M // 2 pieces raise ValueError before any noise is drawn.
    """
    bound = binding_time_bound(model, config.alpha, c_convention)
    pieces = max(1, math.ceil(config.T / (GLUE_SAFETY * bound)))
    if pieces > config.M // 2:
        raise ValueError(
            f"gluing T={config.T:.6g} needs pieces={pieces} (each at most "
            f"{GLUE_SAFETY} * T_bound={bound:.6g} long), but M={config.M} steps allow at "
            f"most {config.M // 2} pieces of 2 steps or more; raise M or shorten T"
        )
    piece_T = config.T / pieces
    steps = math.ceil(config.M / pieces)

    grids: list[np.ndarray] = []
    states: list[np.ndarray] = []
    gaps: list[float] = []
    piece_residuals: list[float] = []
    iterations = 0
    final_gap = 0.0
    x0 = config.initial_state()
    for piece in range(pieces):
        sub = replace(config, T=piece_T, M=steps, x0=x0)
        noise = generate_noise_path(
            config.alpha, config.noise_dim, sub.grid(), _piece_seed(config.seed, piece)
        )
        try:
            part = solve(model, sub, noise=noise, warn_beyond_bound=False)
        except NonConvergenceError as exc:
            raise NonConvergenceError(
                f"piece {piece} of {pieces} failed to converge: {exc}", path=exc.path
            ) from exc
        offset = piece * piece_T
        if piece == 0:
            grids.append(part.grid)
            states.append(part.states)
        else:
            grids.append(part.grid[1:] + offset)
            states.append(part.states[1:])
        piece_residuals.append(part.residual)
        iterations = max(iterations, part.iteration_count)
        final_gap = part.final_picard_gap
        gaps.extend(part.gaps)
        x0 = part.terminal
    return MildPath(
        grid=np.concatenate(grids),
        states=np.concatenate(states),
        iteration_count=iterations,
        final_picard_gap=final_gap,
        residual=max(piece_residuals),
        gaps=gaps,
        piece_breaks=[p * steps for p in range(1, pieces)],
        piece_residuals=piece_residuals,
    )


def _piece_seed(seed: int, piece: int) -> int:
    # distinct noise per piece, derived deterministically from the master seed
    return (int(seed) << 8) ^ (TAG_PIECE + piece)
