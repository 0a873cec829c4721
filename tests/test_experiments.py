"""Experiment harness: verdict logic, exactness claims, determinism."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from cylstable import experiments, integral, picard, rng, sampling
from cylstable.constants import c_alpha
from cylstable.experiments import (
    HypothesisFailed,
    char_function_test,
    gof_test_vectors,
    isotropic_gof_report,
    moment_experiment,
    picard_convergence_experiment,
    random_hypothesis_triples,
    tail_experiment,
    uniqueness_experiment,
    willet_wong_check,
)
from cylstable.hilbert import HSMatrix, heat_preset
from cylstable.integral import constant_integrand, refinement_experiment
from cylstable.experiments import _cumulative_trapezoid
from cylstable.picard import (
    SolverConfig,
    _driven_diagonal,
    binding_time_bound,
    horizon_bounds,
    picard_step,
    solve,
)
from cylstable.rng import (TAG_ALT_NOISE, TAG_BOOTSTRAP, TAG_GAUSSIAN, TAG_REPLICA, open_uniform,
                           substream)
from cylstable.sampling import NoisePath, _noise_increments, sample_isotropic

import levy_oracles
from picard_oracles import semigroup_flow


def test_tail_zero_operator():
    report = tail_experiment(HSMatrix(np.zeros((2, 2))), 1.5, n_samples=2_000, seed=1)
    assert report.passed
    assert np.array_equal(report.tables["tail"]["p_hat"], np.zeros_like(report.tables["tail"]["p_hat"]))


def test_tail_scalar_plateau_matches_constants():
    report = tail_experiment(HSMatrix([[1.0]]), 1.5, t=1.0, n_samples=300_000, seed=2)
    assert report.passed, [(v.name, v.observed) for v in report.verdicts]
    names = {v.name for v in report.verdicts}
    assert {"plateau_flatness", "plateau_level", "tail_slope"} <= names


def test_tail_time_scaling_of_level():
    # plateau level is t * levy mass: doubling t doubles the target
    report = tail_experiment(
        HSMatrix([[1.0]]), 1.5, t=2.0, n_samples=300_000,
        r_grid=np.geomspace(25, 60, 7), seed=3,
    )
    by_name = {v.name: v for v in report.verdicts}
    assert by_name["plateau_level"].passed
    level = float(report.tables["tail"]["plateau"].mean())
    assert level == pytest.approx(2.0 / c_alpha(1.5), rel=0.15)


def test_tail_under_resolved_is_inconclusive():
    report = tail_experiment(
        HSMatrix([[1.0]]), 1.5, n_samples=2_000,
        r_grid=np.geomspace(50, 400, 5), seed=4,
    )
    assert report.inconclusive
    assert not report.passed


def test_tail_integrand_plateau_and_scaling():
    grid = np.linspace(0.0, 1.0, 9)
    integrand = constant_integrand(np.diag([1.0, 0.5]), grid)
    r_grid = np.geomspace(10, 60, 9)
    report = tail_experiment(integrand, 1.5, n_samples=60_000, r_grid=r_grid, seed=5)
    assert report.passed, [(v.name, v.observed, v.threshold) for v in report.verdicts]
    assert [v.name for v in report.verdicts] == ["plateau_flatness", "tail_slope"]
    assert list(report.tables) == ["tail"]
    # the integral is linear in the integrand and c = 2 scales every sup exactly, so on the
    # same streams the table of c*Psi at radii c*r is that of Psi at r, bit for bit
    doubled = tail_experiment(integral.StepIntegrand(grid, 2.0 * integrand.values), 1.5,
                              n_samples=60_000, r_grid=2.0 * r_grid, seed=5)
    assert np.array_equal(doubled.tables["tail"]["p_hat"], report.tables["tail"]["p_hat"])


def _tiny_tail_integrand(seed):
    integrand = constant_integrand(np.eye(1), np.linspace(0.0, 1.0, 5))
    return tail_experiment(integrand, 1.5, n_samples=4_000, r_grid=np.geomspace(1.0, 8.0, 13),
                           seed=seed)


def _record_streams(monkeypatch) -> tuple[list[tuple[int, ...]], list[tuple[int, int]]]:
    """Make every module that draws streams record the name and Philox key of each stream.

    A noise row's key is its packed 4-word name, a substream's the key its
    ``SeedSequence`` hashes from the name, read from the Generator itself.
    """
    names, keys = [], []

    def rows(words, count):
        entries = np.broadcast_arrays(*(np.asarray(word) for word in words))
        names.extend(zip(*(entry.ravel().tolist() for entry in entries)))
        keys.extend(map(tuple, rng._row_keys(words).reshape(2, -1).T.tolist()))
        return rng.open_uniform_rows(words, count)

    def stream(*name):
        names.append(tuple(int(word) for word in name))
        generator = rng.substream(*name)
        keys.append(tuple(generator.bit_generator.state["state"]["key"].tolist()))
        return generator

    for module in (experiments, integral, sampling):
        for attr, recorder in (("substream", stream), ("open_uniform_rows", rows)):
            if hasattr(module, attr):
                monkeypatch.setattr(module, attr, recorder)
    return names, keys


def _tiny_runs():
    model = heat_preset(4)
    bound = binding_time_bound(model, 1.5)
    grid = np.linspace(0.0, 1.0, 5)
    return {
        # 3 replicas x 20 rows, shared and fresh noise
        "uniqueness": (120, lambda: uniqueness_experiment(
            model, SolverConfig(alpha=1.5, T=0.8 * bound, M=20, n=4, seed=23), replicas=3,
            seed=23)),
        # 40 rows over 3 pieces
        "glue": (40, lambda: picard.glue_solve(
            model, SolverConfig(alpha=1.5, T=2.5 * bound, M=40, n=4, seed=23))),
        # one chunk's subordinator and Gaussian streams, and the bootstrap
        "moment": (3, lambda: moment_experiment(constant_integrand(np.eye(1), grid), 1.5,
                                                [1.0], 500, seed=23)),
        # one chunk's two streams
        "tail_integrand": (2, lambda: _tiny_tail_integrand(23)),
        "refinement": (2, lambda: refinement_experiment(lambda t: 1.0 + t, np.eye(2), 1.5, 1.0,
                                                        2, 3, 40, 0.05, seed=23)),
    }


@pytest.mark.parametrize("run", sorted(_tiny_runs()))
def test_streams_of_one_run_have_distinct_keys(monkeypatch, run):
    expected, draw = _tiny_runs()[run]
    names, keys = _record_streams(monkeypatch)
    draw()
    # one key per stream: no two names of the run share a Philox key, port rows and
    # substreams alike
    assert len(set(keys)) == len(set(names)) == expected


def test_radonified_tail_with_eight_singular_values_draws_only_its_chunks(monkeypatch):
    # the Levy mass is exact for every dimension: no stream of its own, whatever n
    names, _ = _record_streams(monkeypatch)
    n_samples = rng._CHUNK + 1_000
    tail_experiment(HSMatrix.diagonal(np.linspace(1.0, 0.3, 8)), 1.5, n_samples=n_samples,
                    seed=23)
    chunks = math.ceil(n_samples / rng._CHUNK)
    assert names == [name for k in range(chunks)
                     for name in [(23, TAG_REPLICA, k), (23, TAG_REPLICA, k, TAG_GAUSSIAN)]]


def test_moment_zero_integrand():
    grid = np.linspace(0.0, 1.0, 5)
    report = moment_experiment(constant_integrand(np.zeros((1, 1)), grid), 1.5,
                               [1.0], 500, seed=6)
    assert np.array_equal(report.tables["moments"]["moment_2N"], np.zeros(1))


def test_moment_stability_and_bit_exact_homogeneity():
    grid = np.linspace(0.0, 1.0, 9)
    integrand = constant_integrand(np.array([[1.0], [0.0]]), grid)
    report = moment_experiment(integrand, 1.5, [1.0, 1.2], 10_000, seed=7)
    # p >= alpha/2: each relative change N -> 2N is noted without a threshold
    assert report.passed and not report.verdicts
    assert [note.partition(":")[0] for note in report.notes[-3:]] == [
        "stability_p=1 not judged (p >= alpha/2, infinite variance)",
        "stability_p=1.2 not judged (p >= alpha/2, infinite variance)",
        "no stability verdict"]
    table = report.tables["moments"]
    assert np.all(table["moment_2N"] > 0.0)
    assert np.all(table["ci_lo"] <= table["moment_2N"])
    assert np.all(table["moment_2N"] <= table["ci_hi"])

    # scaling by a power of two is exact in floating point, so moment draws its 2N sups
    # once: sup(c*Psi) == c*sup(Psi) bitwise on the same streams, in every block, and the
    # normalised ratio it reports is bit-identical
    sups = list(experiments._sup_integral_norms(integrand, 1.5, 20_000, 7, TAG_REPLICA))
    assert len(sups) >= 2
    for c in (2.0, 4.0, 0.5):
        scaled = integral.StepIntegrand(grid, c * integrand.values)
        for ours, base in zip(experiments._sup_integral_norms(scaled, 1.5, 20_000, 7,
                                                              TAG_REPLICA), sups, strict=True):
            assert np.array_equal(ours, c * base)
        other = moment_experiment(scaled, 1.5, [1.0, 1.2], 10_000, seed=7)
        assert np.array_equal(other.tables["moments"]["ratio"], table["ratio"])


def test_moment_judges_stability_below_half_alpha():
    # p < alpha/2 = 0.75: |sup I|^p has finite variance, and the N -> 2N change is judged
    integrand = constant_integrand(np.array([[1.0], [0.0]]), np.linspace(0.0, 1.0, 9))
    report = moment_experiment(integrand, 1.5, [0.5, 0.7], 10_000, seed=7)
    assert [(v.name, v.passed, v.threshold) for v in report.verdicts] == [
        (f"stability_p={p}", True, "relative change N -> 2N < 20%") for p in (0.5, 0.7)]
    assert not any("stability" in note for note in report.notes)
    assert report.passed


def test_every_p_sees_the_same_bootstrap_resamples():
    # one index set a resample, applied to every p: the intervals of a (200, 2N) index draw
    integrand = constant_integrand(np.array([[1.0], [0.5]]), np.linspace(0.0, 1.0, 9))
    n_samples, p_list = 1_000, [0.5, 0.7, 0.5]
    table = moment_experiment(integrand, 1.5, p_list, n_samples, seed=7).tables["moments"]
    sups = np.concatenate([*experiments._sup_integral_norms(integrand, 1.5, 2 * n_samples, 7,
                                                            TAG_REPLICA)])
    indices = substream(7, TAG_REPLICA, TAG_BOOTSTRAP).integers(
        0, 2 * n_samples, size=(experiments._BOOTSTRAP, 2 * n_samples))
    for row, p in enumerate(p_list):
        boots = np.array([(sups**p)[index].mean() for index in indices])
        assert np.array_equal(np.percentile(boots, [2.5, 97.5]),
                              [table["ci_lo"][row], table["ci_hi"][row]])
    assert table["ci_lo"][0] == table["ci_lo"][2] and table["ci_hi"][0] == table["ci_hi"][2]


@pytest.mark.parametrize("part", [7, 1000, 4096, 5000, 8192, 16_000])
def test_split_index_draws_concatenate_to_one_draw(part):
    # moment fills each resample index by draws of at most experiments._INDEX_DRAW
    size = 20_000
    whole, split = (substream(7, TAG_REPLICA, TAG_BOOTSTRAP) for _ in range(2))
    for _ in range(5):
        drawn = [split.integers(0, size, size=min(part, size - start))
                 for start in range(0, size, part)]
        assert np.array_equal(np.concatenate(drawn), whole.integers(0, size, size=size))


def test_moment_bootstrap_does_not_depend_on_the_index_draw(monkeypatch):
    integrand = constant_integrand(np.array([[1.0], [0.5]]), np.linspace(0.0, 1.0, 9))
    assert 2 * 10_000 > experiments._INDEX_DRAW  # each resample index takes two draws
    split = moment_experiment(integrand, 1.5, [0.5, 0.7], 10_000, seed=7).tables["moments"]
    monkeypatch.setattr(experiments, "_INDEX_DRAW", 1 << 20)  # one draw a resample index
    whole = moment_experiment(integrand, 1.5, [0.5, 0.7], 10_000, seed=7).tables["moments"]
    for key, column in whole.items():
        assert np.array_equal(split[key], column), key

def per_path_increments(alpha, scale, n_samples, m, *name):
    """Each path's (steps, m) increments from its own draws of the chunk's two streams, in order:
    2 open uniforms a step from ``(*name, 0)``, then m Gaussians a step from its Gaussian stream."""
    sub, gauss = substream(*name, 0), substream(*name, 0, TAG_GAUSSIAN)
    paths = []
    for _ in range(n_samples):
        u = open_uniform(sub, (scale.shape[0], 2))
        z = gauss.standard_normal((scale.shape[0], m))
        a = sampling._positive_stable_transform(alpha / 2.0, u[:, 0], u[:, 1])
        paths.append(scale * (np.sqrt(2.0 * a)[:, None] * z))
    return np.array(paths)


@pytest.mark.parametrize("rows", ["one-row", "many-row"])
def test_sup_integral_norms_equal_the_path_major_oracle(monkeypatch, rows):
    # the coordinate-major reduction equals the path-major one bit for bit up to 7 state
    # coordinates, where numpy sums a row's contiguous coordinates in order; from 8 on it
    # sums them pairwise, so the two may differ in the last bits
    if rows == "one-row":
        monkeypatch.setattr(rng, "_BLOCK_BYTES", 1)
    n_samples = 16 if rows == "one-row" else 3_000
    values_rng = np.random.default_rng(41)
    for steps in (1, 2, 16):
        grid = np.concatenate([[0.0], np.cumsum(values_rng.uniform(0.5, 1.5, steps))])
        scale = np.diff(grid)[:, None] ** (1.0 / 1.5)
        for m in (1, 2, 3, 4):
            increments = per_path_increments(1.5, scale, n_samples, m, 3, steps, m)
            for n in (1, 2, 3, 5, 7, 8, 9, 16):
                integrand = integral.StepIntegrand(grid, values_rng.standard_normal((steps, n, m)))
                blocks = list(experiments._sup_integral_norms(integrand, 1.5, n_samples, 3,
                                                              steps, m))
                assert (max(map(len, blocks)) == 1) == (rows == "one-row")
                oracle = levy_oracles.sup_integral_norms(integrand.values, increments)
                ours = np.concatenate(blocks)
                ulps = np.abs(ours.view(np.int64) - oracle.view(np.int64)).max()
                assert ulps <= (0 if n <= 7 else 4), (steps, n, m, ulps)


def test_percentiles_equal_numpy_bit_for_bit():
    rng = np.random.default_rng(23)
    for trial in range(480):
        size = (1, 2, 3, 10, experiments._BOOTSTRAP, 1_001)[trial % 6]
        values = (rng.standard_normal(size), rng.pareto(1.2, size) * 1e3,
                  np.round(rng.uniform(0.0, 5.0, size)), rng.standard_cauchy(size))[trial % 4]
        for q in ([2.5, 97.5], [0.0, 50.0, 100.0], rng.uniform(0.0, 100.0, 3).tolist()):
            assert np.array_equal(experiments._percentiles(values, q).view(np.int64),
                                  np.percentile(values, q).view(np.int64))


def test_median_equals_numpy_bit_for_bit():
    rng = np.random.default_rng(29)
    for size in (1, 2, 3, 4, 25, 100, 1_001):
        for values in (rng.standard_normal(size), rng.pareto(1.2, size) * 1e3,
                       np.round(rng.uniform(0.0, 5.0, size))):
            assert (np.float64(experiments._median(values)).view(np.int64)
                    == np.median(values).view(np.int64))


def test_moment_rejects_bad_p():
    grid = np.linspace(0.0, 1.0, 5)
    integrand = constant_integrand(np.ones((1, 1)), grid)
    with pytest.raises(ValueError):
        moment_experiment(integrand, 1.5, [1.6], 100, seed=0)


def test_moment_flags_p_close_to_alpha():
    grid = np.linspace(0.0, 1.0, 5)
    integrand = constant_integrand(np.ones((1, 1)), grid)
    report = moment_experiment(integrand, 1.5, [1.45], 2_000, seed=8)
    assert any("close to alpha" in note for note in report.notes)


def test_picard_convergence_experiment_preset():
    model = heat_preset(6)
    bound = binding_time_bound(model, 1.5)
    config = SolverConfig(alpha=1.5, T=0.9 * bound, M=60, n=6, seed=9)
    report = picard_convergence_experiment(model, config, n_iters=6, p=1.0,
                                           replicas=60, seed=9)
    assert report.passed, [(v.name, v.observed) for v in report.verdicts]
    moments = report.tables["decay"]["moment"]
    assert moments[-1] < 1e-3


def test_picard_convergence_rejects_horizon_beyond_bound():
    model = heat_preset(4)
    config = SolverConfig(alpha=1.5, T=1.0, M=10, n=4, seed=10)
    with pytest.raises(ValueError, match="admissible"):
        picard_convergence_experiment(model, config, replicas=2, seed=10)


def test_uniqueness_experiment_small():
    model = heat_preset(5)
    bound = binding_time_bound(model, 1.5)
    config = SolverConfig(alpha=1.5, T=0.8 * bound, M=50, n=5, seed=11)
    report = uniqueness_experiment(model, config, replicas=12, seed=11)
    assert report.passed and not report.verdicts  # both distances are notes, not verdicts
    assert [note.partition(" (")[0] for note in report.notes] == ["x0-perturbed distance",
                                                                  "fresh-noise distance"]
    dists = report.tables["distances"]
    assert list(dists) == ["replica", "x0_perturbed", "fresh_noise"]
    assert np.all(dists["fresh_noise"] > 10 * picard.TOL)


def test_fresh_noise_differs_from_the_reference_noise_in_every_replica():
    # uniqueness drives its reference path by the streams (seed, TAG_REPLICA, r, ...) and its
    # fresh-noise path by (seed, TAG_ALT_NOISE, r, ...), in one draw per chunk (here the
    # second chunk of three at the benchmark's M = 200): no increment of the one equals the
    # other's, so the two paths differ wherever noise reaches them
    replicas = np.arange(3, 6)[:, None]
    noise = _noise_increments(1.5, 8, np.linspace(0.0, 0.05, 201), 7,
                              np.array([TAG_REPLICA, TAG_ALT_NOISE]), replicas)
    assert noise.shape == (3, 2, 200, 8)
    assert np.all(noise[:, 0] != noise[:, 1])


def test_willet_wong_zero_function():
    t = np.linspace(0.0, 1.0, 101)
    result = willet_wong_check(np.zeros_like(t), np.zeros_like(t), np.ones_like(t), 0.5, t=t)
    assert result["holds"] and result["margin"] >= 0.0


def test_willet_wong_near_equality_instance():
    t = np.linspace(0.0, 1.0, 10_001)
    result = willet_wong_check(t**2 / 4.0, np.zeros_like(t), np.ones_like(t), 0.5, t=t)
    assert result["holds"]
    assert abs(result["margin"]) < 1e-4


def test_willet_wong_hypothesis_failure():
    t = np.linspace(0.0, 1.0, 1_001)
    with pytest.raises(HypothesisFailed):
        willet_wong_check(np.exp(10 * t), np.zeros_like(t), np.ones_like(t), 0.5, t=t)


def test_willet_wong_p_above_one_is_vacuous():
    t = np.linspace(0.0, 1.0, 101)
    result = willet_wong_check(np.zeros_like(t), np.ones_like(t), np.ones_like(t), 2.0, t=t)
    assert result["holds"] and result["margin"] == math.inf


def test_willet_wong_validation():
    t = np.linspace(0.0, 1.0, 11)
    u = np.zeros_like(t)
    with pytest.raises(ValueError):
        willet_wong_check(u, u, u, 1.0, t=t)
    with pytest.raises(ValueError):
        willet_wong_check(u - 1.0, u, u, 0.5, t=t)
    with pytest.raises(ValueError):
        willet_wong_check(u, u, u, 0.5, t=t**2)  # non-uniform grid


def test_random_hypothesis_triples_margins():
    triples = list(random_hypothesis_triples(20, 2_000, seed=12))
    assert len(triples) == 20
    for t, u, v, w, p in triples:
        result = willet_wong_check(u, v, w, p, t=t)
        assert result["margin"] >= -1e-6


def test_char_function_zero_vector_contributes_zero():
    samples = sample_isotropic(1.5, 2, seed=13, size=5_000)
    result = char_function_test([samples], lambda u: math.exp(-np.linalg.norm(u) ** 1.5),
                                np.zeros((1, 2)))
    assert result["max_abs_dev"] < 1e-12


def test_char_function_isotropic_passes_and_wrong_target_fails():
    samples = sample_isotropic(1.5, 3, seed=14, size=100_000)
    grid = gof_test_vectors(3, 10)
    good = char_function_test([samples], lambda u: math.exp(-np.linalg.norm(u) ** 1.5), grid)
    assert good["passed"] and good["max_abs_dev"] < 0.02
    bad = char_function_test([samples], lambda u: math.exp(-np.linalg.norm(u) ** 2), grid)
    assert bad["max_abs_dev"] > 0.05


def test_char_function_blocks_equal_one_array_and_the_direct_mean():
    samples = sample_isotropic(1.5, 3, seed=17, size=2_001)
    grid = gof_test_vectors(3, 4)

    def target(u):
        return math.exp(-np.linalg.norm(u) ** 1.5)

    whole = char_function_test([samples], target, grid)
    # the terms are summed strictly in row order, so no split of the rows moves a bit
    for size in (1, 7, 1_000):
        blocks = (samples[start:start + size] for start in range(0, samples.shape[0], size))
        assert np.array_equal(char_function_test(blocks, target, grid)["devs"], whole["devs"])
    # the direct per-vector mean sums in another order: equal to rounding
    direct = [abs(np.exp(1j * (samples @ u)).mean() - target(u)) for u in grid]
    assert np.allclose(whole["devs"], direct, rtol=0.0, atol=1e-13)
    assert whole["n_samples"] == 2_001


def test_char_function_needs_samples_of_the_test_dimension():
    for samples in ([], iter([]), [np.zeros((0, 2))]):
        with pytest.raises(ValueError, match="at least one sample"):
            char_function_test(samples, lambda u: 1.0, np.ones((1, 2)))
    with pytest.raises(ValueError, match="dimension 3"):
        char_function_test([np.zeros((5, 3))], lambda u: 1.0, np.ones((1, 2)))


def test_char_function_empty_grid_rejected():
    with pytest.raises(ValueError):
        char_function_test([np.zeros((10, 2))], lambda u: 1.0, np.zeros((0, 2)))


def test_gof_report_passes():
    report = isotropic_gof_report(1.5, 3, 50_000, seed=15)
    assert report.passed


def test_reports_deterministic_across_schedules():
    def run():
        return tail_experiment(HSMatrix([[1.0]]), 1.5, n_samples=50_000,
                               r_grid=np.geomspace(10, 40, 5), seed=16)

    first = run()
    second = run()
    assert np.array_equal(first.tables["tail"]["p_hat"], second.tables["tail"]["p_hat"])
    assert [v.observed for v in first.verdicts] == [v.observed for v in second.verdicts]


def test_picard_experiment_zero_coefficients_all_zero_from_n1():
    from cylstable.hilbert import make_model

    model = make_model(n=4, f_rule="zero", kappa_rule="zero")
    config = SolverConfig(alpha=1.5, T=0.5, M=20, n=4, seed=17)
    report = picard_convergence_experiment(model, config, n_iters=4, replicas=5, seed=17)
    assert np.array_equal(report.tables["decay"]["moment"], np.zeros(4))


def test_picard_experiment_additive_zero_from_n2():
    from cylstable.hilbert import make_model

    model = make_model(n=4, f_rule="zero", kappa_rule="power:0.1:1.5", shape="one")
    config = SolverConfig(alpha=1.5, T=0.05, M=30, n=4, seed=18)
    report = picard_convergence_experiment(model, config, n_iters=4, replicas=5, seed=18)
    moments = report.tables["decay"]["moment"]
    assert moments[0] > 0.0
    assert np.array_equal(moments[1:], np.zeros(3))


def replica_noise(config, seed, tag, replica):
    """Noise of one replica, its rows named (seed, tag, replica, i)."""
    grid = config.grid()
    rows = _noise_increments(config.alpha, config.noise_dim, grid, seed, tag, replica)
    return NoisePath(config.alpha, config.noise_dim, grid, rows, seed)


def per_replica_picard_decay(model, config, n_iters, p, replicas, seed):
    """Reference for picard_convergence_experiment: one public picard_step per replica."""
    x0 = config.initial_state()
    grid = config.grid()
    diffs = np.empty((replicas, n_iters))
    for r in range(replicas):
        noise = replica_noise(config, seed, TAG_REPLICA, r)
        prev = semigroup_flow(model, grid, x0)
        for it in range(n_iters):
            new = picard_step(model, prev, noise, x0)
            diffs[r, it] = np.linalg.norm(new[-1] - prev[-1], axis=-1)
            prev = new
    powered = diffs**p
    return powered.mean(axis=0), powered.std(axis=0, ddof=1) / math.sqrt(replicas)


def per_replica_uniqueness_paths(model, config, replicas, seed):
    """Reference for uniqueness_experiment: three public solves per replica.

    Returns the distance columns and the solved paths, replica-major in the
    order reference, perturbed x0, fresh noise.
    """
    x0 = config.initial_state()
    x0_alt = x0.copy()
    x0_alt[0] += 0.1
    paths, noises, rows = [], [], np.empty((replicas, 2))
    for r in range(replicas):
        noise = replica_noise(config, seed, TAG_REPLICA, r)
        alt_noise = replica_noise(config, seed, TAG_ALT_NOISE, r)
        cfg = replace(config, x0=x0)
        triple = [
            solve(model, cfg, noise=noise),
            solve(model, replace(cfg, x0=x0_alt), noise=noise),
            solve(model, cfg, noise=alt_noise),
        ]
        rows[r] = [np.linalg.norm(triple[0].states - other.states, axis=1).max()
                   for other in triple[1:]]
        paths += triple
        noises += [noise, noise, alt_noise]
    return rows.T, paths, noises, np.stack([x0, x0_alt, x0] * replicas)


def _ensemble_setup():
    model = heat_preset(8)
    picard_cfg = SolverConfig(alpha=1.5, T=0.9 * horizon_bounds(model, 1.5)["T_picard"],
                              M=50, n=8, seed=19)
    uniq_cfg = SolverConfig(alpha=1.5, T=0.8 * binding_time_bound(model, 1.5), M=50, n=8,
                            seed=19)
    return model, picard_cfg, uniq_cfg


def test_contraction_ratio_counts_only_gaps_at_or_above_tol(monkeypatch):
    # a gap below picard.TOL is rounding noise: halving every such gap moves no counted ratio,
    # at the benchmark's size (M = 200, 50 replicas), where some ratio still counts
    model = heat_preset(8)
    config = SolverConfig(alpha=1.5, T=0.9 * binding_time_bound(model, 1.5), M=200, n=8, seed=7)
    gaps = []
    diffs = experiments._picard_diffs

    def halved_below_tol(*args):
        gaps.append(diffs(*args))
        return np.where(gaps[-1] < picard.TOL, 0.5 * gaps[-1], gaps[-1])

    base = picard_convergence_experiment(model, config, replicas=50, seed=7)
    monkeypatch.setattr(experiments, "_picard_diffs", halved_below_tol)
    halved = picard_convergence_experiment(model, config, replicas=50, seed=7)
    gaps = np.concatenate(gaps)
    assert (gaps < picard.TOL).any()
    assert ((gaps[:, 1:] >= picard.TOL) & (gaps[:, :-1] >= picard.TOL)).any()
    assert halved.verdicts[-1] == base.verdicts[-1]
    assert base.verdicts[-1].name == "contraction_ratio" and base.verdicts[-1].passed


def test_batched_experiments_equal_per_replica_reference():
    model, picard_cfg, uniq_cfg = _ensemble_setup()
    report = picard_convergence_experiment(model, picard_cfg, n_iters=5, p=1.0, replicas=4,
                                           seed=19)
    moments, ses = per_replica_picard_decay(model, picard_cfg, 5, 1.0, 4, 19)
    assert np.array_equal(report.tables["decay"]["moment"], moments)
    assert np.array_equal(report.tables["decay"]["stderr"], ses)

    report = uniqueness_experiment(model, uniq_cfg, replicas=3, seed=19)
    columns, _, _, _ = per_replica_uniqueness_paths(model, uniq_cfg, 3, 19)
    dists = report.tables["distances"]
    for name, column in zip(["x0_perturbed", "fresh_noise"], columns, strict=True):
        assert np.array_equal(dists[name], column)


def test_solve_batch_equals_batches_of_one():
    # the batch's states and certificates are each replica's alone, and the public solve's
    model, _, uniq_cfg = _ensemble_setup()
    _, paths, noises, x0s = per_replica_uniqueness_paths(model, uniq_cfg, 3, 19)
    driven = np.stack([_driven_diagonal(model, noise.increments) for noise in noises])
    kernel = picard._kernel(model, uniq_cfg.grid())
    states, certificates = picard._certified_pass(model, driven, x0s, kernel)
    assert certificates.shape == (len(paths),)
    for r, reference in enumerate(paths):
        assert np.array_equal(states[r], reference.states)
        assert certificates[r] == reference.residual
        alone = picard._certified_pass(model, driven[r:r + 1], x0s[r:r + 1], kernel)
        assert np.array_equal(alone[0][0], states[r]) and alone[1][0] == certificates[r]


def test_experiment_tables_independent_of_batch_budget(monkeypatch):
    model, picard_cfg, uniq_cfg = _ensemble_setup()

    def tables():
        decay = picard_convergence_experiment(model, picard_cfg, n_iters=5, replicas=6,
                                              seed=20).tables["decay"]
        dists = uniqueness_experiment(model, uniq_cfg, replicas=5, seed=20).tables["distances"]
        return [decay["moment"], decay["stderr"], dists["x0_perturbed"], dists["fresh_noise"]]

    assert len(rng._blocks(5, 66 * 3 * 51 * 8)) == 1
    batched = tables()
    monkeypatch.setattr(rng, "_BLOCK_BYTES", 64 * 51 * 8)  # one replica a chunk
    assert len(rng._blocks(5, 66 * 3 * 51 * 8)) == 5
    chunked = tables()
    for ours, reference in zip(batched, chunked, strict=True):
        assert np.array_equal(ours, reference)



def test_ensemble_experiments_build_one_kernel_a_run(monkeypatch):
    model, picard_cfg, uniq_cfg = _ensemble_setup()
    built, build = [], picard._kernel

    def counted(model, grid):
        built.append(grid.size)
        return build(model, grid)

    monkeypatch.setattr(picard, "_kernel", counted)
    monkeypatch.setattr(rng, "_BLOCK_BYTES", 64 * 51 * 8)  # one replica a chunk
    picard_convergence_experiment(model, picard_cfg, n_iters=3, replicas=3, seed=20)
    uniqueness_experiment(model, uniq_cfg, replicas=3, seed=20)
    assert built == [51, 51]

def test_uniqueness_batches_three_replicas_a_chunk_on_the_benchmark_grid(monkeypatch):
    # 25 replicas at M = 200, n = 8: nine chunks (one Picard batch and one noise draw each)
    model = heat_preset(8)
    config = SolverConfig(alpha=1.5, T=0.9 * binding_time_bound(model, 1.5), M=200, n=8, seed=7)
    calls = {"batches": 0, "draws": 0}

    def counted(module, name, key):
        original = getattr(module, name)

        def wrapper(*args):
            calls[key] += 1
            return original(*args)
        monkeypatch.setattr(module, name, wrapper)

    counted(picard, "_certified_pass", "batches")
    counted(experiments, "_noise_increments", "draws")
    uniqueness_experiment(model, config, replicas=25, seed=7)
    assert calls["batches"] <= 9
    assert calls["draws"] == calls["batches"]


def _report_bits(report):
    """Every table column (as bytes), verdict and note of a report."""
    tables = {name: {column: np.asarray(values).tobytes() for column, values in table.items()}
              for name, table in report.tables.items()}
    verdicts = [(v.name, v.passed, v.threshold, v.observed) for v in report.verdicts]
    return tables, verdicts, report.notes, report.inconclusive


def _monte_carlo_results():
    grid = np.linspace(0.0, 1.0, 5)
    # five rows and two noise coordinates: the block budget counts the wider sup terms
    integrand = integral.StepIntegrand(grid, np.random.default_rng(1).normal(size=(4, 5, 2)))
    tail_integrand = tail_experiment(integrand, 1.5, n_samples=1_500,
                                     r_grid=np.geomspace(2.0, 8.0, 5), seed=31)
    assert tail_integrand.verdicts  # its verdicts are compared too
    return {
        "tail_radonified": _report_bits(tail_experiment(
            HSMatrix([[1.0, 0.3, 0.0], [0.2, 0.5, -0.4]]), 1.5, n_samples=3_000,
            r_grid=np.geomspace(0.5, 5.0, 5), seed=30)),
        "tail_integrand": _report_bits(tail_integrand),
        "moment": _report_bits(moment_experiment(constant_integrand(np.diag([1.0, 0.5]), grid),
                                                 1.5, [0.5, 0.7], 750, seed=32)),
        "gof": _report_bits(isotropic_gof_report(1.5, 3, 3_000, seed=33)),
        # eight fine steps, two noise and two projected coordinates
        "refinement": {name: np.asarray(column).tobytes() for name, column in
                       refinement_experiment(lambda t: 1.0 + t, np.diag([1.0, 0.5]), 1.5, 1.0, 2,
                                             3, 40, 0.05, seed=34)["table"].items()},
    }


def test_monte_carlo_results_independent_of_draw_budget(monkeypatch):
    # each stream is drawn in the same order whatever its blocks, and every
    # reduction is per sample or a sum taken strictly in row order (gof's
    # characteristic function), so blocks of one to four rows change no bit
    default = _monte_carlo_results()
    assert len(rng._blocks(3_000, 8 * 17)) == 1  # the isotropic sampler's rows, n = 3
    assert len(rng._blocks(40, 8 * 8 * 18)) == 1  # the refinement replicas
    monkeypatch.setattr(rng, "_BLOCK_BYTES", 1_024)
    assert len(rng._blocks(3_000, 8 * 17)) == 429
    assert len(rng._blocks(40, 8 * 8 * 18)) == 40
    assert _monte_carlo_results() == default


@pytest.mark.parametrize("chunk", [rng._CHUNK, 4])
def test_first_samples_of_a_larger_run_equal_the_smaller_run(monkeypatch, chunk):
    # sample r is row r mod _CHUNK of chunk r // _CHUNK, drawn in order: a run of 2R samples
    # begins with the run of R, also where a chunk boundary falls inside it (at 4 a chunk)
    monkeypatch.setattr(sampling, "_CHUNK", chunk)
    count = 6
    integrand = constant_integrand(np.array([[1.0, 0.3], [0.0, 0.5]]), np.linspace(0.0, 1.0, 4))
    weights = np.random.default_rng(5).uniform(0.0, 1.0, (3, 8))
    runs = {
        "sups": lambda size: np.concatenate(list(experiments._sup_integral_norms(
            integrand, 1.5, size, 3, TAG_REPLICA))),
        "refinement": lambda size: integral._refinement_diffs(
            weights, np.eye(2), 1.5, 1.0 / 8, size, 3).T,
        "isotropic": lambda size: sample_isotropic(1.5, 3, 3, size),
    }
    for name, run in runs.items():
        assert np.array_equal(run(2 * count)[:count], run(count)), name


def _traced_peak(run) -> int:
    """Peak bytes traced by tracemalloc (numpy's buffers included) while run() runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_monte_carlo_memory_is_bounded_by_the_draw_budget():
    # the (200, 2N) int64 bootstrap index alone was 32 MB at N = 10^4
    integrand = constant_integrand(np.eye(1), np.linspace(0.0, 1.0, 17))
    assert _traced_peak(lambda: moment_experiment(integrand, 1.5, [0.5, 0.7], 10_000,
                                                  seed=35)) < 8 * 2**20

    # no temporary grows with N: the norms of 4x the samples once took 2.4 MB more
    def tail(n_samples):
        return lambda: tail_experiment(HSMatrix.diagonal([1.0, 0.5, 0.25]), 1.5,
                                       n_samples=n_samples, seed=36)

    assert abs(_traced_peak(tail(400_000)) - _traced_peak(tail(100_000))) < 2**20

    # gof reduces its draws block by block: 4x the samples once took 16 MB more
    def gof(n_samples):
        return lambda: isotropic_gof_report(1.5, 3, n_samples, seed=38)

    assert abs(_traced_peak(gof(400_000)) - _traced_peak(gof(100_000))) < 2**20


@pytest.mark.parametrize("block", [1_000, 7])
def test_exceedance_counts_equal_comparison_oracle(block):
    norms = np.round(np.random.default_rng(37).pareto(1.5, 1_000), 1)  # many ties
    norms[[3, 500]] = np.inf, np.nan
    # radii equal to norms, between them and beyond them
    r_grid = np.unique(np.concatenate([norms[10:40], [0.0, 0.05, 1e9]]))
    r_grid = r_grid[np.isfinite(r_grid)]
    blocks = [norms[start:start + block] for start in range(0, norms.size, block)]
    counts = experiments._exceedance_counts(blocks, r_grid)
    assert np.array_equal(counts, [(norms > r).sum() for r in r_grid])
    table = experiments._tail_table(blocks, norms.size, 1.5, r_grid)
    assert np.array_equal(table["p_hat"], [(norms > r).mean() for r in r_grid])


def test_uniqueness_skips_the_residual_certificate(monkeypatch):
    # the report has no residual column, so the certificate must not run
    model, _, uniq_cfg = _ensemble_setup()
    expected = uniqueness_experiment(model, uniq_cfg, replicas=3, seed=21).tables["distances"]

    def refuse(*args):
        raise AssertionError("uniqueness_experiment evaluated a residual certificate")

    monkeypatch.setattr(picard, "residual", refuse)
    report = uniqueness_experiment(model, uniq_cfg, replicas=3, seed=21)
    for name, column in expected.items():
        assert np.array_equal(report.tables["distances"][name], column)


def test_cumulative_trapezoid_equals_scipy_bit_for_bit():
    from scipy.integrate import cumulative_trapezoid

    rng = np.random.default_rng(22)
    for size in (2, 3, 1001):
        t = np.sort(rng.uniform(0.0, 3.0, size))
        y = rng.standard_normal(size) * 10.0 ** rng.integers(-5, 5, size)
        assert np.array_equal(_cumulative_trapezoid(y, t), cumulative_trapezoid(y, t, initial=0.0))
    t = np.linspace(0.0, 1.0, 10_001)
    assert np.array_equal(_cumulative_trapezoid(t**2 / 4.0, t),
                          cumulative_trapezoid(t**2 / 4.0, t, initial=0.0))


@pytest.mark.parametrize("model, n", [
    (heat_preset(8), 1),  # x0 = [1.0] would be broadcast into all eight coordinates
    (heat_preset(8, m=3), 8),  # eight noise coordinates would drive a model with m=3
    (heat_preset(8), 4),  # a numpy broadcast error deep in the sweep
])
def test_solvers_refuse_config_dimensions_other_than_the_model(model, n):
    config = SolverConfig(alpha=1.5, T=0.01, M=10, n=n, seed=1)
    runs = [
        lambda: solve(model, config),
        lambda: picard.glue_solve(model, config),
        lambda: picard_convergence_experiment(model, config, replicas=2),
        lambda: uniqueness_experiment(model, config, replicas=1),
    ]
    for run in runs:
        with pytest.raises(ValueError, match=r"\(n, m\)=\(8, (8|3)\)"):
            run()
