"""Picard solver: oracles, fixed point, residual certificate, gluing."""

import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cylstable import picard
from cylstable.hilbert import heat_preset, make_model
from cylstable.experiments import _picard_diffs
from cylstable.picard import (
    GLUE_SAFETY,
    MildPath,
    NonConvergenceError,
    SolverConfig,
    binding_time_bound,
    glue_solve,
    picard_step,
    residual,
    solve,
    _driven_diagonal,
)
from cylstable.rng import TAG_PIECE
from cylstable.sampling import NoisePath, _noise_increments, generate_noise_path

from picard_oracles import piece_breaks, semigroup_flow, zero_seeded_states

EPS = np.finfo(float).eps


def drift_convolution(model, states, grid):
    """sum_{i<k} S(t_k - t_i) F(X(t_i)) dt_i at every t_k, as one Picard sweep computes it.

    With kappa = 0 and x0 = 0 the noise and the semigroup flow drop out of
    :func:`picard_step`, which leaves the drift convolution alone.
    """
    assert not np.any(model.kappa)
    noise = generate_noise_path(1.5, model.n, grid, seed=0)
    return picard_step(model, states, noise, np.zeros(model.n))


def test_drift_convolution_zero_drift():
    model = make_model(n=3, f_rule="zero", kappa_rule="zero")
    grid = np.linspace(0.0, 1.0, 6)
    states = np.random.default_rng(0).standard_normal((6, 3))
    assert np.array_equal(drift_convolution(model, states, grid), np.zeros((6, 3)))


def test_drift_convolution_tiny_lambda_riemann_sum():
    # S ~ identity: the sum approaches t_k * f for constant F
    model = make_model(n=2, lambda_rule="power:1e-8:1", kappa_rule="zero",
                       f_rule="const:0.5", shape="one")
    grid = np.linspace(0.0, 1.0, 501)
    states = np.zeros((501, 2))
    out = drift_convolution(model, states, grid)[500]
    assert out == pytest.approx(np.full(2, 0.5 * 1.0), rel=3e-3)


def test_drift_convolution_geometric_series_oracle():
    # constant F, uniform grid: coordinate k sums f_k dt q (1 - q^k)/(1 - q)
    model = make_model(n=2, lambda_rule="power:2:1", kappa_rule="zero",
                       f_rule="const:0.7", shape="one")
    grid = np.linspace(0.0, 1.0, 11)
    dt = 0.1
    states = np.zeros((11, 2))
    out = drift_convolution(model, states, grid)
    for k in (1, 5, 10):
        q = np.exp(-model.lambdas * dt)
        oracle = 0.7 * dt * q * (1.0 - q**k) / (1.0 - q)
        assert np.all(np.abs(out[k] - oracle) < 1e-12)


def hand_rolled_picard_step(model, prev, noise, x0):
    """Independent small-instance oracle: explicit triple loop, no recurrences."""
    grid = noise.grid
    n = model.n
    out = np.zeros((grid.size, n))
    for k in range(grid.size):
        for j in range(n):
            acc = math.exp(-model.lambdas[j] * grid[k]) * x0[j]
            for i in range(k):
                decay = math.exp(-model.lambdas[j] * (grid[k] - grid[i]))
                s_val = model.shape_fn(prev[i, j])
                acc += decay * model.f[j] * s_val * (grid[i + 1] - grid[i])
                if j < noise.m:
                    acc += decay * model.kappa[j] * s_val * noise.increments[i, j]
            out[k, j] = acc
    return out


def direct_sum_picard_step(model, prev, noise, x0):
    """Reference sweep: the mild-form double sum over the full (M+1, M) lag matrix."""
    grid = noise.grid
    loads = (model.drift(prev[:-1]) * np.diff(grid)[:, None]
             + model.diffusion_diagonal(prev[:-1]) * _driven_diagonal(model, noise.increments))
    lags = grid[:, None] - grid[None, :-1]
    new = semigroup_flow(model, grid, x0)
    for k in range(grid.size):
        weights = np.exp(-np.outer(model.lambdas, lags[k, :k]))
        new[k] += (weights * loads[:k].T).sum(axis=1)
    return new


def full_lag_residual(model, path, noise, x0):
    """Reference certificate: sup_k distance of X(t_k) from its direct double sum."""
    rhs = direct_sum_picard_step(model, path.states, noise, x0)
    return float(np.linalg.norm(path.states - rhs, axis=1).max())


def test_picard_step_and_residual_equal_the_direct_double_sum():
    # the FFT convolution sums in another order than the double sum; M = 199 is prime
    model = heat_preset(8)
    for M in (200, 199):
        config = SolverConfig(alpha=1.5, T=0.05, M=M, n=8, seed=7)
        noise = generate_noise_path(1.5, 8, config.grid(), config.seed)
        x0 = config.initial_state()
        prev = semigroup_flow(model, config.grid(), x0)
        for _ in range(3):
            new = picard_step(model, prev, noise, x0)
            assert np.abs(new - direct_sum_picard_step(model, prev, noise, x0)).max() <= 1e-14
            prev = new
        path = solve(model, config, noise=noise)
        assert abs(path.residual - full_lag_residual(model, path, noise, x0)) <= 1e-14


def test_picard_step_is_within_5e_16_of_a_long_double_direct_sum():
    model = heat_preset(8)
    config = SolverConfig(alpha=1.5, T=0.05, M=5000, n=8, seed=7)
    noise = generate_noise_path(1.5, 8, config.grid(), config.seed)
    x0 = config.initial_state()
    flow = semigroup_flow(model, config.grid(), x0)
    new = picard_step(model, flow, noise, x0)
    loads = (model.drift(flow[:-1]) * np.diff(noise.grid)[:, None]
             + model.diffusion_diagonal(flow[:-1]) * noise.increments).astype(np.longdouble)
    # the map's lag kernel a^j, j = 1..M, of the one rounded a = exp(-lambda dt), its powers
    # taken in long double: what is left is the rounding of the FFT's sums
    a = np.exp(-model.lambdas * (config.T / config.M)).astype(np.longdouble)
    kernel = a ** np.arange(1, config.M + 1, dtype=np.longdouble)[:, None]
    for k in range(0, config.M + 1, 25):
        exact = flow[k].astype(np.longdouble) + (kernel[:k] * loads[k - 1::-1][:k]).sum(axis=0)
        assert np.abs(new[k] - exact).max() <= 5e-16


def test_loads_equal_drift_and_diffusion_bit_for_bit():
    # the shape is evaluated once and the products formed in place, in the order of
    # model.drift and model.diffusion_diagonal
    rng = np.random.default_rng(5)
    states = rng.standard_normal((3, 41, 8))
    driven = rng.standard_normal((3, 40, 8))
    dts = rng.uniform(0.01, 0.02, 40)
    for shape in ("tanh", "one", "zero"):
        model = make_model(n=8, shape=shape)
        x = states[:, :-1]
        expected = model.drift(x) * dts[:, None] + model.diffusion_diagonal(x) * driven
        loads = picard._loads(model, states, driven, dts)
        assert loads.flags.c_contiguous  # time-contiguous, as the FFT reads it
        assert np.swapaxes(loads, -1, -2).tobytes() == np.ascontiguousarray(expected).tobytes()


def traced_peak(run) -> int:
    """Peak bytes that ``run()`` holds above what was held before it, by tracemalloc."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_sweep_holds_at_most_32_bytes_per_state_element_above_its_inputs():
    # two copies of the loads, the loads and their spectrum, the spectrum and the convolution,
    # the convolution and the result: each freed after its last use, so a buffer kept alive
    # again adds 8 B or more
    model = heat_preset(8)
    config = SolverConfig(alpha=1.5, T=0.05, M=200, n=8)
    kernel = picard._kernel(model, config.grid())
    rng = np.random.default_rng(6)
    prev = rng.standard_normal((9, 201, 8))
    driven = 0.01 * rng.standard_normal((9, 200, 8))
    x0s = rng.standard_normal((9, 8))
    picard._sweep(model, prev, driven, x0s, kernel)  # numpy.fft's first call allocates once
    peak = traced_peak(lambda: picard._sweep(model, prev, driven, x0s, kernel))
    assert peak <= 33 * prev.size  # 32 B and numpy's small fixed allocations


def test_causal_pass_holds_at_most_32_bytes_per_state_element_above_its_inputs():
    # the coefficients and the pairs (16 + 16 B), then the pairs and the states (16 + 8 B):
    # coefficients kept alive into the copy would add 16 B
    rng = np.random.default_rng(6)
    driven = 0.01 * rng.standard_normal((9, 200, 8))
    x0s = rng.standard_normal((9, 8))
    for shape in ("tanh", "one"):
        model = make_model(n=8, shape=shape)
        kernel = picard._kernel(model, np.linspace(0.0, 0.05, 201))
        peak = traced_peak(lambda: picard._causal_pass(model, driven, x0s, kernel))
        assert peak <= 33 * 9 * 201 * 8


def test_fft_length_is_the_smallest_5_smooth_length_without_wrap_around():
    def smooth(x):
        for p in (2, 3, 5):
            while x % p == 0:
                x //= p
        return x == 1

    for M in range(1, 3001):
        length = 2 * M - 1
        while not smooth(length):
            length += 1
        assert picard._fft_length(M) == length


def test_solve_matches_exponential_euler_oracle():
    # the discrete fixed point is one forward exponential-Euler sweep
    # X_{k+1} = e^{-lambda dt_k} (X_k + F(X_k) dt_k + G(X_k) dL_k)
    model = heat_preset(8)
    config = SolverConfig(alpha=1.5, T=0.9 * binding_time_bound(model, 1.5), M=400, n=8,
                          seed=113)
    noise = generate_noise_path(1.5, 8, config.grid(), config.seed)
    path = solve(model, config, noise=noise)
    euler = np.empty_like(path.states)
    euler[0] = config.initial_state()
    for k, dt in enumerate(np.diff(noise.grid)):
        x = euler[k]
        euler[k + 1] = np.exp(-model.lambdas * dt) * (
            x + model.drift(x) * dt + model.diffusion_diagonal(x) * noise.increments[k]
        )
    assert np.abs(path.states - euler).max() <= 1e-12


def test_picard_step_matches_hand_rolled_oracle():
    model = heat_preset(2)
    grid = np.linspace(0.0, 0.3, 4)
    noise = generate_noise_path(1.5, 2, grid, seed=100)
    x0 = np.array([0.8, -0.4])
    prev = np.zeros((4, 2))
    ours = picard_step(model, prev, noise, x0)
    oracle = hand_rolled_picard_step(model, prev, noise, x0)
    assert np.all(np.abs(ours - oracle) < 1e-12)
    # second sweep from a nonzero path
    ours2 = picard_step(model, ours, noise, x0)
    oracle2 = hand_rolled_picard_step(model, oracle, noise, x0)
    assert np.all(np.abs(ours2 - oracle2) < 1e-12)


def flow_seeded_sweeps(model, config, sweeps):
    """The semigroup flow and the first ``sweeps`` Picard iterates from it, on solve's noise."""
    noise = generate_noise_path(config.alpha, config.noise_dim, config.grid(), config.seed)
    x0 = config.initial_state()
    iterates = [semigroup_flow(model, config.grid(), x0)]
    for _ in range(sweeps):
        iterates.append(picard_step(model, iterates[-1], noise, x0))
    return iterates


def test_zero_coefficients_reduce_to_flow():
    # the flow is the fixed point: the first flow-seeded sweep returns it bit for bit, on the
    # whole path and in the picard command's loop; solve's pass, which multiplies by a once a
    # step, is it up to an ulp a step
    model = make_model(n=3, f_rule="zero", kappa_rule="zero")
    config = SolverConfig(alpha=1.5, T=0.5, M=20, n=3, seed=101)
    flow, first = flow_seeded_sweeps(model, config, 1)
    assert np.array_equal(first, flow)
    kernel = picard._kernel(model, config.grid())
    assert not _picard_diffs(model, config, kernel, config.seed, range(3), 2).any()
    path = solve(model, config)
    assert np.abs(path.states - flow).max() <= config.M * EPS * np.abs(flow).max()
    assert path.residual < picard.TOL


def test_additive_noise_fixed_in_two_iterations():
    # state-independent coefficients: the map no longer depends on the previous path, so from
    # the flow the second sweep reproduces the first exactly, on the whole path and in the
    # picard command's loop; solve's pass is that same path up to an ulp a step
    model = make_model(n=3, f_rule="zero", kappa_rule="power:1:1.5", shape="one")
    config = SolverConfig(alpha=1.5, T=0.02, M=50, n=3, seed=102)
    flow, first, second = flow_seeded_sweeps(model, config, 2)
    assert not np.array_equal(first, flow)
    assert np.array_equal(second, first)
    kernel = picard._kernel(model, config.grid())
    diffs = _picard_diffs(model, config, kernel, config.seed, range(3), 3)
    assert diffs[:, 0].all() and not diffs[:, 1:].any()
    path = solve(model, config)
    assert np.abs(path.states - first).max() <= config.M * EPS * np.abs(first).max()
    assert path.residual < picard.TOL


def test_solve_preset_residual_certificate():
    model = heat_preset(8)
    config = SolverConfig(alpha=1.5, T=0.05, M=200, n=8, seed=7)
    path = solve(model, config)
    assert path.iteration_count == 1
    assert path.residual < picard.TOL


def test_residual_detects_perturbation():
    model = heat_preset(4)
    config = SolverConfig(alpha=1.5, T=0.04, M=60, n=4, seed=103)
    noise = generate_noise_path(1.5, 4, config.grid(), config.seed)
    path = solve(model, config, noise=noise)
    x0 = config.initial_state()
    base = residual(model, path, noise, x0)
    assert base < 1e-12
    perturbed = MildPath(grid=path.grid, states=path.states.copy(), residual=0.0)
    perturbed.states[30, 0] += 1e-3
    assert residual(model, perturbed, noise, x0) >= 0.9e-3


@given(M=st.integers(1, 400), n=st.integers(1, 8), m=st.integers(1, 8),
       alpha=st.floats(1.0, 2.0, exclude_min=True, exclude_max=True),
       seed=st.integers(0, 2**32 - 1), data=st.data())
@settings(max_examples=100, deadline=None)
def test_fft_residual_equals_direct_sum_and_reads_a_perturbation(M, n, m, alpha, seed, data):
    model = heat_preset(n, m)
    config = SolverConfig(alpha=alpha, T=0.9 * binding_time_bound(model, alpha), M=M, n=n, m=m,
                          seed=seed)
    noise = generate_noise_path(alpha, m, config.grid(), seed)
    path = solve(model, config, noise=noise)
    x0 = config.initial_state()
    scale = max(1.0, float(np.abs(path.states).max()))
    assert abs(path.residual - full_lag_residual(model, path, noise, x0)) <= 1e-14 * scale

    delta = 1e-9
    perturbed = replace(path, states=path.states.copy())
    perturbed.states[data.draw(st.integers(1, M)), data.draw(st.integers(0, n - 1))] += delta
    reading = residual(model, perturbed, noise, x0)
    # the perturbed row reads delta; its load moves too, so a later row may read more
    assert reading >= 0.99 * delta
    assert abs(reading - full_lag_residual(model, perturbed, noise, x0)) <= 0.01 * delta


def test_residual_refuses_grids_other_than_the_solver_linspace():
    model = heat_preset(3)
    grid = np.linspace(0.0, 0.02, 21)
    grid[7] += 1e-4
    noise = generate_noise_path(1.5, 3, grid, seed=114)
    path = MildPath(grid=grid, states=np.zeros((21, 3)), residual=0.0)
    with pytest.raises(ValueError, match=r"np\.linspace\(0, T, M \+ 1\)"):
        residual(model, path, noise, np.zeros(3))
    with pytest.raises(ValueError, match=r"np\.linspace\(0, T, M \+ 1\)"):
        picard_step(model, path.states, noise, np.zeros(3))


def test_solve_deterministic_and_warns_beyond_bound():
    model = heat_preset(8)
    config = SolverConfig(alpha=1.5, T=0.06, M=100, n=8, seed=104)
    with pytest.warns(UserWarning, match="exceeds the binding admissible bound") as caught:
        a = solve(model, config)
    assert str(caught[0].message).endswith("the discrete pass is still certified by its sweep")
    with pytest.warns(UserWarning):
        b = solve(model, config)
    assert np.array_equal(a.states, b.states)


def test_solve_below_bound_no_warning():
    model = heat_preset(8)
    bound = binding_time_bound(model, 1.5)
    config = SolverConfig(alpha=1.5, T=0.9 * bound, M=50, n=8, seed=105)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solve(model, config)


def test_solve_returns_the_causal_pass_certified_to_a_few_ulp():
    # the kernel holds the powers of the one rounded a = exp(-lambda dt) that the pass
    # multiplies by, so the pass and the map differ only in how they round their sums: the
    # certificate reads a few ulp of sup|X|, not the ulp per step of exp(-lambda j dt)
    model = heat_preset(8)
    for M in (200, 5000):
        config = SolverConfig(alpha=1.5, T=0.05, M=M, n=8, seed=7)
        noise = generate_noise_path(1.5, 8, config.grid(), config.seed)
        path = solve(model, config, noise=noise)
        states = picard._causal_pass(model, _driven_diagonal(model, noise.increments)[None],
                                     config.initial_state()[None],
                                     picard._kernel(model, config.grid()))[0]
        assert np.array_equal(states, path.states)
        assert path.residual <= 64 * EPS * np.abs(path.states).max()


def test_solve_fails_on_a_pass_that_is_not_the_fixed_point(monkeypatch):
    # the semigroup flow in place of the pass: its certificate is the size of the noise's
    # first Picard sweep, and the solve raises instead of returning it
    model = heat_preset(8)
    config = SolverConfig(alpha=1.5, T=0.05, M=200, n=8, seed=7)
    monkeypatch.setattr(picard, "_causal_pass", lambda model, driven, x0s, kernel:
                        kernel.decay * x0s[:, None, :])
    with pytest.raises(NonConvergenceError, match=r"^Picard certificate \d\.\d{3}e-0\d of the "
                       r"exponential-Euler pass is not below TOL=1e-12$"):
        solve(model, config)


def test_picard_seed_independence():
    model = heat_preset(6)
    config = SolverConfig(alpha=1.5, T=0.03, M=80, n=6, seed=106)
    noise = generate_noise_path(1.5, 6, config.grid(), config.seed)
    flow_seeded = solve(model, config, noise=noise)
    zero_seeded = zero_seeded_states(model, config, noise)
    dist = np.linalg.norm(flow_seeded.states - zero_seeded, axis=1).max()
    assert dist < 10.0 * picard.TOL


def test_batch_raises_when_only_a_later_replica_fails(monkeypatch):
    # replica 1's pass is moved by 1e-6 at its terminal state, which the sweep does not read,
    # so its certificate is that 1e-6 and the batch's error names it; replica 0 alone passes
    model = heat_preset(3)
    config = SolverConfig(alpha=1.5, T=0.01, M=20, n=3, seed=3)
    noise = _driven_diagonal(model, generate_noise_path(1.5, 3, config.grid(), 3).increments)
    driven = np.stack([noise, noise])
    kernel = picard._kernel(model, config.grid())
    x0s = np.tile(config.initial_state(), (2, 1))
    causal_pass = picard._causal_pass

    def moved(*args):
        states = causal_pass(*args)
        states[1:, -1, 0] += 1e-6
        return states

    monkeypatch.setattr(picard, "_causal_pass", moved)
    _, certificates = picard._certified_pass(model, driven[:1], x0s[:1], kernel)
    assert certificates[0] < picard.TOL
    with pytest.raises(NonConvergenceError, match=r"^Picard certificate 1\.000e-06 of the "
                       r"exponential-Euler pass is not below TOL=1e-12$"):
        picard._certified_pass(model, driven, x0s, kernel)


def test_batch_raises_on_a_nan_gap():
    # replica 1's states are nan from t_6 on, and so is its certificate, which is not below
    # TOL; replica 0 alone passes
    model = heat_preset(3)
    config = SolverConfig(alpha=1.5, T=0.01, M=20, n=3, seed=3)
    noise = _driven_diagonal(model, generate_noise_path(1.5, 3, config.grid(), 3).increments)
    driven = np.stack([noise, noise])
    driven[1, 5, 0] = np.nan
    kernel = picard._kernel(model, config.grid())
    x0s = np.tile(config.initial_state(), (2, 1))
    _, certificates = picard._certified_pass(model, driven[:1], x0s[:1], kernel)
    assert certificates[0] < picard.TOL
    with pytest.raises(NonConvergenceError, match=r"^Picard certificate nan "):
        picard._certified_pass(model, driven, x0s, kernel)


def test_solve_and_glue_build_one_kernel(monkeypatch):
    built, build = [], picard._kernel

    def counted(model, grid):
        built.append(grid.size)
        return build(model, grid)

    monkeypatch.setattr(picard, "_kernel", counted)
    model = heat_preset(4)
    bound = binding_time_bound(model, 1.5)
    solve(model, SolverConfig(alpha=1.5, T=0.5 * bound, M=40, n=4, seed=1))
    assert built == [41]  # the iteration and the certificate share it
    built.clear()
    glued = glue_solve(model, SolverConfig(alpha=1.5, T=2.5 * bound, M=120, n=4, seed=110))
    assert built == [121] and len(glued.piece_residuals) == 3  # one pass over all pieces


def piece_noise(config, piece):
    """Noise of glue piece ``piece`` on the grid of ``config``, named (seed, TAG_PIECE, piece)."""
    grid = config.grid()
    rows = _noise_increments(config.alpha, config.noise_dim, grid, config.seed, TAG_PIECE, piece)
    return NoisePath(config.alpha, config.noise_dim, grid, rows, config.seed)


def test_glue_single_piece_matches_solve():
    model = heat_preset(8)
    bound = binding_time_bound(model, 1.5)
    config = SolverConfig(alpha=1.5, T=0.5 * bound, M=40, n=8, seed=108)
    glued = glue_solve(model, config)
    assert len(glued.piece_residuals) == 1
    noise = piece_noise(config, 0)
    direct = solve(model, config, noise=noise)
    assert np.array_equal(glued.states, direct.states)


@pytest.mark.parametrize("T, M, pieces", [(0.15, 120, 3), (0.15, 121, 3), (1.0, 3000, 20)])
def test_glue_is_a_solve_on_the_concatenated_piece_noise(T, M, pieces):
    # a junction restarts the one exponential-Euler recursion from the previous piece's
    # terminal state, which continues it, so the glued path is the solve on the piece
    # increments (seed, TAG_PIECE, p, i), each drawn on its slice of the solver's grid and laid
    # end to end, and its worst piece residual is that solve's residual
    model = heat_preset(8)
    config = SolverConfig(alpha=1.5, T=T, M=M, n=8, seed=7)
    glued = glue_solve(model, config)
    assert len(glued.piece_residuals) == pieces
    grid, ends = config.grid(), [0, *piece_breaks(M, pieces), M]
    increments = np.concatenate([
        _noise_increments(1.5, 8, grid[start:end + 1], config.seed, TAG_PIECE, p)
        for p, (start, end) in enumerate(zip(ends, ends[1:]))])
    whole = picard._solve(model, config, increments)
    assert np.array_equal(glued.grid, whole.grid) and np.array_equal(glued.states, whole.states)
    assert glued.residual == whole.residual


def test_glue_piece_noise_does_not_alias_other_seeds():
    # pieces were once seeded by (seed << 8) ^ (TAG_PIECE + piece), so piece 0 of seed 7
    # drew exactly the noise of piece 256 of seed 6
    grid = np.linspace(0.0, 0.01, 3)
    piece_256_of_6 = _noise_increments(1.5, 3, grid, 6, TAG_PIECE, 256)
    piece_0_of_7 = _noise_increments(1.5, 3, grid, 7, TAG_PIECE, 0)
    assert not np.any(piece_256_of_6 == piece_0_of_7)


GLUE_BOUND = binding_time_bound(heat_preset(8), 1.5)


@given(T=st.floats(1e-6, 100.0), M=st.integers(1, 10**6))
@example(T=0.15, M=120).via("the benchmark's glue")
@example(T=0.15, M=121).via("an M that the 3 pieces do not divide")
@example(T=1.0, M=3000).via("20 pieces")
@example(T=0.01, M=1).via("one piece of one step")
@example(T=1.0, M=4).via("a step longer than an admissible piece")
@settings(max_examples=200, deadline=None)
def test_glue_piece_rule(T, M):
    # exact rationals of the floats given: no piece longer than GLUE_SAFETY * T_bound, M steps
    # dealt out evenly, the fewest pieces ceil(T / (GLUE_SAFETY * T_bound)) when that count
    # divides M, and a refusal exactly when one step is longer than an admissible piece
    admissible, dt = Fraction(GLUE_SAFETY * GLUE_BOUND), Fraction(T) / M
    if dt > admissible:
        with pytest.raises(ValueError, match=r"needs pieces at most 0\.99 \* T_bound="):
            picard._piece_steps(T, M, GLUE_BOUND)
        return
    steps = picard._piece_steps(T, M, GLUE_BOUND)
    assert sum(steps) == M and max(steps) * dt <= admissible
    assert steps == sorted(steps, reverse=True) and steps[0] - steps[-1] <= 1
    fewest = math.ceil(Fraction(T) / admissible)
    if M % fewest == 0:
        assert len(steps) == fewest


def test_glue_three_times_bound_gives_four_pieces():
    model = heat_preset(8)
    bound = binding_time_bound(model, 1.5)
    config = SolverConfig(alpha=1.5, T=3.0 * bound, M=200, n=8, seed=109)
    glued = glue_solve(model, config)
    assert len(glued.piece_residuals) == 4
    assert all(res < picard.TOL for res in glued.piece_residuals)
    for p, junction in enumerate(piece_breaks(config.M, 4), 1):
        assert glued.grid[junction] == pytest.approx(p * config.T / 4.0)
    assert glued.grid.size == config_grid_points(glued)


def config_grid_points(path: MildPath) -> int:
    return path.states.shape[0]


def test_glue_junctions_bit_exact():
    model = heat_preset(4)
    bound = binding_time_bound(model, 1.5)
    config = SolverConfig(alpha=1.5, T=2.5 * bound, M=120, n=4, seed=110)
    glued = glue_solve(model, config)
    # re-solve piece 0 independently; its terminal must equal the glued
    # state at the first junction bit-for-bit
    pieces = len(glued.piece_residuals)
    junction = piece_breaks(config.M, pieces)[0]
    sub = SolverConfig(alpha=1.5, T=config.T / pieces, M=junction, n=4, seed=config.seed)
    piece0 = solve(model, sub, noise=piece_noise(sub, 0))
    assert np.array_equal(glued.states[junction], piece0.states[-1])


def test_glue_deals_out_exactly_M_steps():
    # 121 steps over 3 pieces: 41 + 40 + 40, not 3 * ceil(121 / 3) = 123
    model = heat_preset(8)
    bound = binding_time_bound(model, 1.5)
    config = SolverConfig(alpha=1.5, T=2.5 * bound, M=121, n=8, seed=110)
    glued = glue_solve(model, config)
    assert len(glued.piece_residuals) == 3
    assert np.array_equal(glued.grid, config.grid())  # the junctions sit on the uniform grid
    steps = picard._piece_steps(config.T, config.M, bound)
    assert np.cumsum(steps[:-1]).tolist() == piece_breaks(config.M, 3) == [41, 81]


def test_glue_propagates_nonconvergence_with_piece_index(monkeypatch):
    # the one pass moves a state inside the third of 4 pieces of 100 steps by 1e-6, and that
    # piece's certificate reads it; the earlier pieces' lags stay at rounding level
    model = make_model(n=2, kappa_rule="const:80", f_rule="const:80")
    bound = binding_time_bound(model, 1.5)
    config = SolverConfig(alpha=1.5, T=3.0 * bound, M=400, n=2, seed=111)
    passes, causal_pass = [], picard._causal_pass

    def moved(*args):
        states = causal_pass(*args)
        passes.append(1)
        states[0, 250, 0] += 1e-6
        return states

    monkeypatch.setattr(picard, "_causal_pass", moved)
    with pytest.raises(NonConvergenceError,
                       match=r"^piece 2 of 4: Picard certificate 1\.0\d\de-06 "):
        glue_solve(model, config)
    assert len(passes) == 1


def test_glue_refuses_a_step_longer_than_an_admissible_piece(monkeypatch):
    # T_bound = 1.5e-6 here: each of the 64 steps of T=3 is ~3e4 admissible pieces long, and
    # the refusal comes before any noise is drawn
    model = make_model(n=2, kappa_rule="const:80", f_rule="const:80")
    config = SolverConfig(alpha=1.5, T=3.0, M=64, n=2, seed=111)
    monkeypatch.setattr(picard, "_noise_increments", None)
    with pytest.raises(ValueError, match=r"T_bound=1\.53\d*e-06 long, but M=64 steps of "
                                         r"0\.046875 are longer"):
        glue_solve(model, config)


@pytest.mark.parametrize("field", ["T"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_config_rejects_non_finite_values(field, value):
    kwargs = {"alpha": 1.5, "T": 0.01, "M": 10, "n": 2, field: value}
    with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
        SolverConfig(**kwargs)


def test_solve_rejects_wrong_x0_shape():
    with pytest.raises(ValueError, match=r"x0 must have shape \(3,\), got \(2,\)"):
        SolverConfig(alpha=1.5, T=0.01, M=10, n=3, seed=112, x0=np.array([1.0, 2.0]))
