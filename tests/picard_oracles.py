"""Test-only oracles for the Picard solver: the semigroup flow and the zero-seeded iteration.

The discrete Picard map is strictly causal, so its fixed point does not
depend on the seed of the iteration (:mod:`cylstable.picard`).  The solver
computes it by one exponential-Euler pass, and ``picard`` iterates from the
semigroup flow; :func:`zero_seeded_states` iterates the sweeps from zero, so
a test can compare the fixed points.
"""

import numpy as np

from cylstable import picard


# the sweeps zero_seeded_states may run: from zero, the heat preset below its horizon bound
# reaches a gap below picard.TOL in 9 to 11 (the seeds and sizes of the tests)
ZERO_SEEDED_SWEEPS = 64


def semigroup_flow(model, grid, x0) -> np.ndarray:
    """S(t_k) x0 on a grid np.linspace(0, T, M + 1), M >= 1, as the solver applies it.

    Shape (M+1, n) for x0 of shape (n,), (R, M+1, n) for (R, n): the k-th
    power of the one rounded a = exp(-lambda T / M) times x0, the arithmetic
    of ``picard``'s seed and of every sweep's S(t_k) x0 term.
    """
    M = grid.size - 1
    a = np.exp(-model.lambdas * (grid[-1] / M))
    return np.power(a, np.arange(M + 1.0)[:, None]) * x0[..., None, :]


def zero_seeded_states(model, config, noise) -> np.ndarray:
    """States (M+1, n) of ``picard._sweep`` iterated from the zero path on ``noise``.

    Stops at the first sweep whose gap is below ``picard.TOL``; raises
    AssertionError if none is within ``ZERO_SEEDED_SWEEPS`` sweeps.
    """
    grid = config.grid()
    kernel = picard._kernel(model, grid)
    x0s = config.initial_state()[None]
    driven = picard._driven_diagonal(model, noise.increments)[None]
    states = np.zeros((1, grid.size, model.n))
    for _ in range(ZERO_SEEDED_SWEEPS):
        new = picard._sweep(model, states, driven, x0s, kernel)
        gap = np.linalg.norm(new - states, axis=2).max()
        states = new
        if gap < picard.TOL:
            return states[0]
    raise AssertionError(f"zero-seeded Picard gap {gap:.3e} above picard.TOL after "
                         f"{ZERO_SEEDED_SWEEPS} sweeps")


def piece_breaks(M: int, pieces: int) -> list[int]:
    """Grid indices of the glue junctions, by the rule of :func:`picard.glue_solve`.

    The M steps are dealt out as evenly as possible, the first M % pieces
    pieces getting one step more; piece p ends at the sum of the steps of
    pieces 0..p.
    """
    steps = [M // pieces + (p < M % pieces) for p in range(pieces)]
    return np.cumsum(steps[:-1]).tolist()
