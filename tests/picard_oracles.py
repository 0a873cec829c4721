"""Test-only oracle for the Picard solver: the iteration seeded by the zero path.

The discrete Picard map is strictly causal, so its fixed point does not
depend on the seed of the iteration (:mod:`cylstable.picard`).  The solver
seeds with the semigroup flow only; this oracle runs the same sweeps from
zero, so a test can compare the two fixed points.
"""

import numpy as np

from cylstable import picard


def zero_seeded_states(model, config, noise) -> np.ndarray:
    """States (M+1, n) of ``picard._sweep`` iterated from the zero path on ``noise``.

    Stops at the first sweep whose gap is below ``config.tol``, as the solver
    does; raises AssertionError if none is within ``config.N_max`` sweeps.
    """
    grid = config.grid()
    dts = np.diff(grid)
    spectrum = picard._kernel_spectrum(model, grid)
    flow = picard._semigroup_flow(model, grid, config.initial_state())[None]
    driven = picard._driven_diagonal(model, noise.increments)[None]
    states = np.zeros_like(flow)
    for _ in range(config.N_max):
        new = picard._sweep(model, states, driven, dts, flow, spectrum)
        gap = np.linalg.norm(new - states, axis=2).max()
        states = new
        if gap < config.tol:
            return states[0]
    raise AssertionError(f"zero-seeded Picard gap {gap:.3e} above tol after {config.N_max} sweeps")
