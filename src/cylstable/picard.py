"""Discrete mild-solution solver: exponential-Euler pass, residual certificate, gluing.

The mild form on a grid 0 = t_0 < ... < t_M = T reads

    X(t_k) = S(t_k) x0 + sum_{i<k} S(t_k - t_i) F(X(t_i)) dt_i
                       + sum_{i<k} S(t_k - t_i) G(X(t_i)) dL_i,

with left-endpoint evaluation in both sums (the predictable convention;
a midpoint rule would break adaptedness).  The solver accepts only the
uniform grids it builds, np.linspace(0, T, M+1), and applies the diagonal
semigroup there as S(t_k - t_i) = a^(k-i), integer powers of the one
rounded a = exp(-lambda dt), so the fixed-point residual isolates the solve
rather than discretisation error.

Given a fixed noise realisation the Picard map of the mild form is strictly
causal in time, hence nilpotent: the discrete fixed point exists, is
unique, and satisfies the causal recursion
X(t_{k+1}) = a (X(t_k) + F(X(t_k)) dt + G(X(t_k)) dL_k), the exponential
Euler scheme (Hochbruck & Ostermann, "Exponential integrators", Acta
Numerica 2010; Jentzen & Kloeden, Proc. R. Soc. A 2009).  The solver
computes that recursion in one forward pass (:func:`_causal_pass`) and
certifies it by one sweep of the Picard map: the certificate
sup_k ||X(t_k) - Phi(X)(t_k)|| must lie below :data:`TOL`, or the solve
raises :class:`NonConvergenceError`, so a wrong pass fails loudly.  The
Picard iterates themselves, from the semigroup flow S(t) x0, are what
``picard`` studies, and that command keeps the flow seed and its sweeps.

Every solve is one batch of R replicas that share the grid: states of
shape (R, M+1, n) and driven noise increments of shape (R, M, n), solved
and certified by one function.  Per element, a replica's arithmetic is the
same in any batch, so results do not depend on how replicas are batched:
:func:`solve` and :func:`glue_solve` (whose pieces restart the recursion
from each previous terminal state, so continue it) are the batch of one,
and ``uniqueness`` solves three paths per replica in one batch per chunk.

A sweep evaluates all left-endpoint loads F(X(t_k)) dt_k + G(X(t_k)) dL_k
in whole-array operations; both sums are then one causal convolution along
time per coordinate, of the loads with the lag kernel a^j, j = 1..M,
evaluated by a real FFT in O(M log M).  Per state element of a batch, a
sweep holds at most 32 B above its inputs, each buffer being dropped after
its last use: the shape s(X) and the loads, then the loads and their
time-contiguous copy (8 + 8 B), that copy and its complex spectrum
(8 + 16 B), the spectrum and the real convolution (16 + 16 B), then the
convolution and the new states (16 + 8 B).  :func:`residual` computes the
certificate for any path on the solver's grid.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .constants import c3_and_Tmax
from .hilbert import DiagonalModel
from .reporting import RunFailed
from .rng import TAG_PIECE
from .sampling import NoisePath, _noise_increments

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
# the bound on a solved path's certificate; the pass reads a few ulp of the path's sup norm
# (3.9e-15 at M = 5000 on the heat preset), so only a wrong or non-finite pass reaches it
TOL = 1e-12


class NonConvergenceError(RunFailed):
    """The certificate of a solved path is not below TOL."""


@dataclass(frozen=True)
class SolverConfig:
    """Horizon, grid size, truncations, initial state and the seed."""

    alpha: float
    T: float
    M: int
    n: int
    m: int | None = None
    seed: int = 0
    x0: np.ndarray | None = None

    def __post_init__(self):
        if not 1.0 < self.alpha < 2.0:
            raise ValueError(f"alpha must lie in (1, 2) for the solver, got {self.alpha}")
        if not 0.0 < self.T < math.inf:
            raise ValueError(f"T must be positive and finite, got {self.T}")
        if self.M < 1:
            raise ValueError(f"M must be >= 1, got {self.M}")
        if self.x0 is not None:
            object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float))
            if self.x0.shape != (self.n,):
                raise ValueError(f"x0 must have shape ({self.n},), got {self.x0.shape}")
            if not np.all(np.isfinite(self.x0)):
                raise ValueError(f"x0 must be finite, got {self.x0.tolist()}")

    @property
    def noise_dim(self) -> int:
        return self.m if self.m is not None else self.n

    def initial_state(self) -> np.ndarray:
        if self.x0 is None:
            k = np.arange(1, self.n + 1, dtype=float)
            x0 = 1.0 / k
            return x0 / np.linalg.norm(x0)
        return self.x0

    def grid(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.M + 1)


@dataclass
class MildPath:
    """Discrete trajectory of the (approximate) mild solution plus diagnostics."""

    grid: np.ndarray
    states: np.ndarray
    residual: float
    piece_residuals: list[float] = field(default_factory=list)

    def __post_init__(self):
        if self.states.shape[0] != self.grid.size:
            raise ValueError("states must provide one vector per grid time")
        if not np.all(np.isfinite(self.states)):
            raise ValueError("states must be finite")
        if self.residual < 0.0:
            raise ValueError("the residual must be nonnegative")

    @property
    def iteration_count(self) -> int:
        """Picard sweeps a solve runs: the one that certifies the pass."""
        return 1

    def columns(self) -> dict[str, np.ndarray]:
        """The CSV columns: one row per grid time, ``t, x_1..x_n``."""
        return {"t": self.grid, **{f"x_{j + 1}": x for j, x in enumerate(self.states.T)}}


def _check_dimensions(model: DiagonalModel, config: SolverConfig) -> None:
    """Refuse a config whose state and noise dimensions are not the model's."""
    if (config.n, config.noise_dim) != (model.n, model.noise_dim):
        raise ValueError(
            f"config dimensions (n, m)=({config.n}, {config.noise_dim}) do not match the "
            f"model's (n, m)=({model.n}, {model.noise_dim})"
        )


def horizon_bounds(model: DiagonalModel, alpha: float) -> dict:
    """Admissible-horizon bounds (c3, T_uniq, T_picard, T_bound) for this model."""
    c_f, c_g = model.holder_constants()
    return c3_and_Tmax(alpha, c_f, c_g)


def binding_time_bound(model: DiagonalModel, alpha: float) -> float:
    """min of the uniqueness and iteration horizons for this model's constants."""
    return horizon_bounds(model, alpha)["T_bound"]


def _driven_diagonal(model: DiagonalModel, increments: np.ndarray) -> np.ndarray:
    """Noise increments (..., M, m) aligned with the state coordinates (pad/truncate to n)."""
    m = increments.shape[-1]
    n = model.n
    if m >= n:
        return increments[..., :n]
    out = np.zeros((*increments.shape[:-1], n))
    out[..., :m] = increments
    return out


def _loads(model: DiagonalModel, states: np.ndarray, driven: np.ndarray,
           dts: np.ndarray) -> np.ndarray:
    """Left-endpoint loads F(X(t_k)) dt_k + G(X(t_k)) dL_k, time-contiguous: shape (..., n, M).

    The shape s(X(t_k)) is evaluated once; F = f s and G = kappa s are then
    formed in place, in the order of ``model.drift`` and
    ``model.diffusion_diagonal``, so the loads are theirs bit for bit.  At
    most two (..., M, n) arrays are alive at once.
    """
    shape = model.shape_fn(states[..., :-1, :])
    loads = model.f * shape
    loads *= dts[:, None]
    shape *= model.kappa
    shape *= driven
    loads += shape
    del shape
    return np.swapaxes(loads, -1, -2).copy()


def _fft_length(M: int) -> int:
    """Smallest 2^a 3^b 5^c >= 2M - 1: no wrap-around reaches the M lags kept."""
    need = 2 * M - 1
    best = 1 << (need - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:  # the smallest p35 * 2^a >= need
            best = min(best, p35 << (-(-need // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


class _Kernel(NamedTuple):
    """What the Picard map reads of the grid, built once per batch by :func:`_kernel`."""

    dts: np.ndarray  # (M,) steps
    decay: np.ndarray  # (M+1, n): a^k, so S(t_k) x0 = decay * x0
    size: int  # FFT length, _fft_length(M)
    spectrum: np.ndarray  # (n, size // 2 + 1): rfft of the lag kernel a^j, j = 1..M


def _kernel(model: DiagonalModel, grid: np.ndarray) -> _Kernel:
    """The grid factors of the Picard map: integer powers of the one rounded a = exp(-lambda dt).

    These are the semigroup factors that :func:`_causal_pass` multiplies by,
    step by step, so the map and the pass differ only in the rounding of
    their sums.  The grid must be the solver's np.linspace(0, T, M + 1), with
    dt = T / M; any other grid raises ValueError.
    """
    M = grid.size - 1
    if not np.array_equal(grid, np.linspace(0.0, grid[-1], M + 1)):
        raise ValueError("the Picard map needs the solver's grid np.linspace(0, T, M + 1)")
    size = _fft_length(M)
    powers = np.power(np.exp(-model.lambdas * (grid[-1] / M)), np.arange(M + 1.0)[:, None])
    return _Kernel(np.diff(grid), powers, size, np.fft.rfft(powers[1:].T, size, axis=-1))


def _sweep(model: DiagonalModel, prev: np.ndarray, driven: np.ndarray, x0s: np.ndarray,
           kernel: _Kernel) -> np.ndarray:
    """One Picard sweep of a batch: prev (R, M+1, n), driven (R, M, n), x0s (R, n).

    The sum at t_k is the causal convolution sum_{j=1..k} a^j b_{k-j}
    of the loads b_i with the lag kernel, by real FFT along time.  Alive at
    once, per state element: two copies of the loads (8 + 8 B), the loads and
    their spectrum (8 + 16 B), the spectrum and the convolution (16 + 16 B),
    the convolution and the result (16 + 8 B); at most 32 B above the inputs.
    """
    M = kernel.dts.size
    product = np.fft.rfft(_loads(model, prev, driven, kernel.dts), kernel.size, axis=-1)
    product *= kernel.spectrum
    conv = np.fft.irfft(product, kernel.size, axis=-1)
    del product
    # the sums plus S(t_k) x0 (-0.0 + x is x, signed zeros too), added in place: a ufunc
    # on the strided view of conv would allocate numpy's iteration buffers, a copy does not
    new = np.empty((conv.shape[0], M + 1, conv.shape[1]))
    new[:, 0] = -0.0
    np.copyto(new[:, 1:], np.swapaxes(conv[..., :M], -1, -2))
    del conv
    new += kernel.decay * x0s[:, None, :]
    return new


def picard_step(
    model: DiagonalModel,
    prev_states: np.ndarray,
    noise: NoisePath,
    x0: np.ndarray,
) -> np.ndarray:
    """One Picard sweep: new states from the previous path and the fixed noise.

    The noise grid must be the solver's np.linspace(0, T, M + 1); any other
    grid raises ValueError.
    """
    grid = noise.grid
    prev_states = np.asarray(prev_states, dtype=float)
    if prev_states.shape != (grid.size, model.n):
        raise ValueError(
            f"previous path has shape {prev_states.shape}, expected {(grid.size, model.n)}"
        )
    driven = _driven_diagonal(model, noise.increments)
    return _sweep(model, prev_states[None], driven[None], x0[None], _kernel(model, grid))[0]


def residual(model: DiagonalModel, path: MildPath, noise: NoisePath, x0: np.ndarray) -> float:
    """Fixed-point certificate: sup_k ||X(t_k) - Phi(X)(t_k)|| for the Picard map Phi.

    Phi is :func:`picard_step`, so the grid must be the solver's
    np.linspace(0, T, M + 1); any other grid raises ValueError.
    """
    if not np.array_equal(noise.grid, path.grid):
        raise ValueError("path and noise must share a grid")
    gaps = path.states - picard_step(model, path.states, noise, x0)
    return float(np.linalg.norm(gaps, axis=1).max())


def _causal_pass(model: DiagonalModel, driven: np.ndarray, x0s: np.ndarray,
                 kernel: _Kernel) -> np.ndarray:
    """One exponential-Euler pass: states (R, M+1, n), the discrete fixed point up to rounding.

    X(t_{k+1}) = a X(t_k) + s(X(t_k)) c_k with a = exp(-lambda dt) and
    c_k = a (f dt + kappa dL_k), formed once for all k.  Time row k holds the
    pair (X(t_k), s(X(t_k))) and the coefficients the pair (a, c_k), so a step
    is one product, one sum of its two halves and the shape, each in place.
    Per state element, the coefficients and the pairs hold 16 + 16 B above
    the inputs, then the pairs and the (R, M+1, n) copy of the states 16 + 8 B.

    The loop over time steps is a deliberate exception to array code: it is
    the solver, and one sweep, five times cheaper at M = 5000, certifies it.
    The pair layout costs one ufunc call a step fewer than separate state
    and shape rows, and the rows are bit-identical to it.  Measured in
    process (2 cores, numpy 2.4, median of 41) at M = 200, the pairs take
    0.86 ms for one path and 1.09 ms for 9, the rows 1.20 ms and 1.63 ms;
    the rows win only at 75 paths (3.3 ms against 3.8 ms), a batch larger
    than any the benchmark runs.
    """
    count, M, n = driven.shape
    a = kernel.decay[1]  # the rounded exp(-lambda dt) whose powers the kernel holds
    coef = np.empty((M, 2, count, n))
    coef[:, 0] = a
    np.multiply(np.swapaxes(driven, 0, 1), model.kappa, out=coef[:, 1])
    coef[:, 1] += model.f * kernel.dts[:, None, None]
    coef[:, 1] *= a
    pairs = np.empty((M + 1, 2, count, n))
    pairs[0, 0] = x0s
    shape = model.shape_fn
    if not isinstance(shape, np.ufunc):  # the constant shapes take no out=
        shape = lambda x, out, fn=shape: np.copyto(out, fn(x))  # noqa: E731
    shape(x0s, out=pairs[0, 1])
    terms = np.empty((2, count, n))
    decayed, load = terms  # a X(t_k) and s(X(t_k)) c_k
    for pair, c, x, s in zip(pairs[:-1], coef, pairs[1:, 0], pairs[1:, 1]):
        np.multiply(pair, c, out=terms)
        np.add(decayed, load, out=x)
        shape(x, out=s)
    del coef, c  # the last row view holds the coefficients too
    return np.ascontiguousarray(np.swapaxes(pairs[:, 0], 0, 1))


def _certified_pass(model: DiagonalModel, driven: np.ndarray, x0s: np.ndarray,
                    kernel: _Kernel, starts: np.ndarray | None = None,
                    ) -> tuple[np.ndarray, np.ndarray]:
    """States (R, M+1, n) of :func:`_causal_pass` and their certificates (R,), one sweep.

    Replica r starts from x0s[r] (shape (R, n)) with its driven increments
    driven[r] (shape (R, M, n)); ``kernel`` is :func:`_kernel` of their grid.
    The certificate of a path is sup_k ||X(t_k) - Phi(X)(t_k)||, or with
    ``starts``, the first steps of P glue pieces, its sup over each piece's
    steps, shape (R, P).  Raises :class:`NonConvergenceError`, naming the
    first certificate, by replica then piece, not below TOL (nan never is).
    """
    states = _causal_pass(model, driven, x0s, kernel)
    lags = states - _sweep(model, states, driven, x0s, kernel)
    lags = np.linalg.norm(lags[:, 1:], axis=2)  # (R, M): the lag after each step
    certificates = lags.max(axis=1) if starts is None else np.maximum.reduceat(lags, starts, axis=1)
    failed = np.argwhere(~(certificates < TOL))
    if failed.size:
        first = tuple(failed[0])
        where = "" if starts is None else f"piece {first[-1]} of {len(starts)}: "
        raise NonConvergenceError(
            f"{where}Picard certificate {certificates[first]:.3e} of the exponential-Euler pass "
            f"is not below TOL={TOL:.0e}")
    return states, certificates


def _solve(model: DiagonalModel, config: SolverConfig, increments: np.ndarray,
           starts: np.ndarray | None = None) -> MildPath:
    """The certified fixed point on the config's grid, driven by noise increments (M, m)."""
    grid = config.grid()
    states, certificates = _certified_pass(model, _driven_diagonal(model, increments)[None],
                                           config.initial_state()[None], _kernel(model, grid),
                                           starts)
    return MildPath(grid=grid, states=states[0], residual=float(certificates[0].max()),
                    piece_residuals=[] if starts is None else certificates[0].tolist())


def solve(model: DiagonalModel, config: SolverConfig, noise: NoisePath | None = None) -> MildPath:
    """The discrete fixed point by one exponential-Euler pass, certified by one Picard sweep.

    Warns when T exceeds the binding admissible bound: that bound governs
    the Picard contraction of the continuum mild equation, which ``picard``
    studies, not this pass, whose sweep certifies it at any horizon.  Raises
    :class:`NonConvergenceError` when the certificate is not below TOL: for
    a pass that is not the fixed point, or a path that is not finite.
    Without ``noise``, the path's rows are the streams (seed, TAG_NOISE_ROW,
    0, i) of :func:`sampling.generate_noise_path`.
    """
    _check_dimensions(model, config)
    grid = config.grid()
    if noise is None:
        increments = _noise_increments(config.alpha, config.noise_dim, grid, config.seed)
    elif not np.array_equal(noise.grid, grid):
        raise ValueError("provided noise grid does not match the solver grid")
    else:
        increments = noise.increments
    bound = binding_time_bound(model, config.alpha)
    if config.T > bound:
        warnings.warn(f"horizon T={config.T:.6g} exceeds the binding admissible bound "
                      f"{bound:.6g}, which governs the continuum Picard contraction; the "
                      f"discrete pass is still certified by its sweep", stacklevel=2)
    return _solve(model, config, increments)


def _piece_steps(T: float, M: int, bound: float) -> list[int]:
    """Step counts of the glue pieces: the M steps dealt out evenly over ceil(M / s) pieces.

    s = floor(GLUE_SAFETY * bound * M / T), exact in these floats, is the most
    steps that a piece at most GLUE_SAFETY * bound long holds; s < 1 raises ValueError.
    """
    safe, safe_den = (GLUE_SAFETY * bound).as_integer_ratio()
    horizon, horizon_den = T.as_integer_ratio()
    most = safe * horizon_den * M // (safe_den * horizon)
    if most < 1:
        raise ValueError(
            f"gluing T={T:.6g} needs pieces at most {GLUE_SAFETY} * T_bound={bound:.6g} long, "
            f"but M={M} steps of {T / M:.6g} are longer; raise M or shorten T")
    pieces = -(-M // most)
    return [M // pieces + (p < M % pieces) for p in range(pieces)]


def glue_solve(model: DiagonalModel, config: SolverConfig) -> MildPath:
    """Solve on an arbitrary horizon by gluing admissible-length pieces, in one certified pass.

    The pieces of :func:`_piece_steps` (refused before any draw) split the
    solver's grid at step counts.  Row i of piece p, from the stream (seed,
    TAG_PIECE, p, i) on the piece's slice of the grid, drives one pass, and
    its sweep certifies each piece; a failure names the first failing piece.
    """
    _check_dimensions(model, config)
    steps = _piece_steps(config.T, config.M, binding_time_bound(model, config.alpha))
    starts, grid = np.cumsum([0, *steps[:-1]]), config.grid()
    increments = np.concatenate([
        _noise_increments(config.alpha, config.noise_dim, grid[start:start + count + 1],
                          config.seed, TAG_PIECE, piece)
        for piece, (start, count) in enumerate(zip(starts, steps))])
    return _solve(model, config, increments, starts)
