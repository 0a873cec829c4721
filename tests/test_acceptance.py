"""Acceptance suite: one test per criterion, tolerances pinned as stated.

Run with `pytest tests/test_acceptance.py -v -s` to see the one-line
PASS/FAIL report per criterion (a failed assert prints as FAIL with the
observed value in the message).
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import ks_2samp

from cylstable import picard
from cylstable.constants import c_alpha, levy_tail_mass
from cylstable.experiments import (
    _picard_diffs,
    _sup_integral_norms,
    isotropic_gof_report,
    moment_experiment,
    picard_convergence_experiment,
    random_hypothesis_triples,
    tail_experiment,
    willet_wong_check,
)
from cylstable.hilbert import HSMatrix, check_norm_continuity, heat_preset, make_model
from cylstable.integral import StepIntegrand, constant_integrand, refinement_experiment
from cylstable.picard import SolverConfig, binding_time_bound, glue_solve, solve
from cylstable.rng import TAG_PIECE, TAG_REPLICA
from cylstable.sampling import (
    AlphaParams,
    NoisePath,
    _noise_increments,
    generate_noise_path,
    sample_scalar_sas,
)

import levy_oracles
from picard_oracles import piece_breaks, zero_seeded_states

SEED = 20260810
KS_COEFF_1PCT = math.sqrt(-math.log(0.005) / 2.0)


def _report(number: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


def test_criterion_01_tail_limit_identity():
    start = time.perf_counter()
    n_samples = 1_000_000
    r_grid = np.geomspace(20.0, 50.0, 9)

    scalar = tail_experiment(HSMatrix([[1.0]]), 1.5, t=1.0, n_samples=n_samples,
                             r_grid=r_grid, seed=SEED)
    level = float(scalar.tables["tail"]["plateau"].mean())
    target = 1.0 / c_alpha(1.5)
    ok_scalar = abs(level - target) <= 0.15 * target

    diag = HSMatrix.diagonal([1.0, 0.5, 0.25])
    multi = tail_experiment(diag, 1.5, t=1.0, n_samples=n_samples, r_grid=r_grid,
                            seed=SEED + 1)
    level3 = float(multi.tables["tail"]["plateau"].mean())
    level3_se = float(multi.tables["tail"]["plateau_se"].mean())
    target3 = levy_tail_mass([1.0, 0.5, 0.25], 1.5)
    ok_multi = abs(level3 - target3) <= 0.15 * target3 + 3.0 * level3_se

    elapsed = time.perf_counter() - start
    _report(1, ok_scalar and ok_multi and elapsed < 60.0,
            f"plateau {level:.4f} vs 1/c_alpha {target:.4f} (15%); "
            f"diag plateau {level3:.4f} vs mass {target3:.4f} (15% + 3 SE); "
            f"runtime {elapsed:.1f}s < 60s")


def test_criterion_02_tail_index_slopes():
    start = time.perf_counter()
    r_grid = np.geomspace(10.0, 100.0, 13)
    slopes = {}
    for i, alpha in enumerate((1.2, 1.5, 1.8)):
        draws = np.abs(sample_scalar_sas(AlphaParams(alpha), seed=SEED + 10 + i,
                                         size=1_000_000))
        surv = np.array([(draws > r).mean() for r in r_grid])
        mask = surv > 0
        slopes[alpha] = float(np.polyfit(np.log(r_grid[mask]), np.log(surv[mask]), 1)[0])
    elapsed = time.perf_counter() - start
    ok = all(abs(slopes[a] + a) <= 0.1 for a in slopes) and elapsed < 300.0
    _report(2, ok, f"survival slopes {slopes} each within +-0.1; runtime {elapsed:.1f}s < 5min")


def test_criterion_03_characteristic_function_gof():
    start = time.perf_counter()
    report = isotropic_gof_report(1.5, 3, 100_000, seed=SEED + 20, count=10)
    dev = float(report.tables["gof"]["abs_dev"].max())
    elapsed = time.perf_counter() - start
    _report(3, dev < 0.02 and elapsed < 10.0,
            f"max ecf deviation {dev:.4f} < 0.02 over 10 fixed vectors; "
            f"runtime {elapsed:.1f}s < 10s")


def test_criterion_04_self_similarity_and_projective_consistency():
    alpha, t_long, steps, n_rep = 1.5, 2.0, 8, 10_000
    grid = np.linspace(0.0, t_long, steps + 1)
    # one pass draws every path; row r equals generate_noise_path(..., seed=SEED + 30_000 + r)
    seeds = SEED + 30_000 + np.arange(n_rep)
    totals = _noise_increments(alpha, 1, grid, seeds)[:, :, 0].sum(axis=1)
    rescaled = totals * t_long ** (-1.0 / alpha)
    reference = sample_scalar_sas(AlphaParams(alpha), seed=SEED + 31, size=n_rep)
    stat = ks_2samp(rescaled, reference).statistic
    crit = KS_COEFF_1PCT * math.sqrt(2.0 / n_rep)

    base = generate_noise_path(alpha, 3, np.linspace(0, 1, 33), seed=SEED + 32)
    wide = generate_noise_path(alpha, 7, np.linspace(0, 1, 33), seed=SEED + 32)
    bit_exact = np.array_equal(wide.increments[:, :3], base.increments)
    _report(4, stat < crit and bit_exact,
            f"KS statistic {stat:.4f} < 1% critical {crit:.4f}; "
            f"dimension extension projects back bit-exactly: {bit_exact}")


def test_criterion_05_sup_tail_structure():
    grid = np.linspace(0.0, 1.0, 9)
    integrand = constant_integrand(np.diag([1.0, 0.5]), grid)
    r_grid = np.geomspace(10.0, 100.0, 13)
    report = tail_experiment(integrand, 1.5, n_samples=200_000, r_grid=r_grid, seed=SEED + 40)
    by_name = {v.name: v for v in report.verdicts}
    flat_ok = by_name["plateau_flatness"].passed
    # homogeneity on the same streams: the table of 2*Psi at radii 2r is that of Psi at r
    doubled = tail_experiment(StepIntegrand(grid, 2.0 * integrand.values), 1.5,
                              n_samples=200_000, r_grid=2.0 * r_grid, seed=SEED + 40)
    scale_exact = np.array_equal(doubled.tables["tail"]["p_hat"], report.tables["tail"]["p_hat"])
    _report(5, flat_ok and scale_exact and not report.inconclusive,
            f"sup-statistic plateau flatness {by_name['plateau_flatness'].observed} <= 1.5; "
            f"exceedances of 2*Psi at 2r bit-identical to Psi at r: {scale_exact}")


def test_criterion_06_moment_structure():
    alpha = 1.5
    grid = np.linspace(0.0, 1.0, 9)
    integrand = constant_integrand(np.array([[1.0], [0.5]]), grid)
    p_list = [1.0, alpha - 0.3]
    report = moment_experiment(integrand, alpha, p_list, 10_000, seed=SEED + 50)
    # both p lie at or above alpha/2, where |sup I|^p has infinite variance: the N -> 2N change
    # is noted without a threshold, and nothing is judged
    stability = [note for note in report.notes
                 if note.startswith(("stability_p=1 not judged", "stability_p=1.2 not judged"))]
    # power-of-two homogeneity on the same streams: the 2N sups moment draws, and its ratios
    scaled = StepIntegrand(grid, 2.0 * integrand.values)
    sups, sups_scaled = (np.concatenate([*_sup_integral_norms(psi, alpha, 20_000, SEED + 50,
                                                              TAG_REPLICA)])
                         for psi in (integrand, scaled))
    sup_exact = np.array_equal(sups_scaled, 2.0 * sups)
    ratio_bits = (report.tables["moments"]["ratio"]
                  == moment_experiment(scaled, alpha, p_list, 10_000,
                                       seed=SEED + 50).tables["moments"]["ratio"])
    ok = not report.verdicts and len(stability) == 2 and sup_exact and ratio_bits.all()
    _report(6, ok,
            f"stability noted, not judged (p >= alpha/2): "
            f"{[note.rpartition(' ')[2] for note in stability]}; "
            f"homogeneity and normalised ratio bit-identical: "
            f"{[sup_exact, *ratio_bits.tolist()]}")


def test_criterion_07_jensen_bound():
    rng = np.random.default_rng(SEED + 60)
    worst_gap = -np.inf
    checked = 0
    for _ in range(50):
        n = int(rng.integers(1, 6))
        gamma = rng.uniform(0.05, 2.0, size=n)
        bound = levy_oracles.jensen_bound(gamma, 1.5)
        mass = levy_tail_mass(gamma, 1.5)
        assert mass <= bound + 1e-10, (gamma, mass, bound)
        worst_gap = max(worst_gap, mass - bound)
        checked += 1

    equality_dev = 0.0
    for n in (1, 2, 3):
        gamma = np.full(n, 0.8)
        mass = levy_tail_mass(gamma, 1.5)
        equality_dev = max(equality_dev, abs(mass - levy_oracles.jensen_bound(gamma, 1.5)))

    agree = True
    for gamma in ([1.0, 0.4], [0.7, 0.7, 0.1]):
        mass = levy_tail_mass(gamma, 1.5)
        mc, se = levy_oracles.monte_carlo(gamma, 1.5, 400_000, seed=SEED + 62)
        agree = agree and abs(mc - mass) <= 3.0 * se
    _report(7, checked == 50 and equality_dev < 1e-8 and agree,
            f"50 random gammas dominated (worst mass-bound gap {worst_gap:.2e}); "
            f"constant-gamma equality dev {equality_dev:.2e} < 1e-8; "
            f"exact mass vs MC within 3 SE: {agree}")


def test_criterion_08_picard_moment_decay():
    start = time.perf_counter()
    model = heat_preset(8)
    bound = binding_time_bound(model, 1.5)
    config = SolverConfig(alpha=1.5, T=0.9 * bound, M=200, n=8, seed=SEED + 70)
    report = picard_convergence_experiment(model, config, n_iters=8, p=1.0,
                                           replicas=200, seed=SEED + 70)
    moments = report.tables["decay"]["moment"]
    ses = report.tables["decay"]["stderr"]
    decreasing = all(
        moments[i + 1] <= moments[i] + 2.0 * math.hypot(ses[i], ses[i + 1])
        for i in range(len(moments) - 1)
    )
    elapsed = time.perf_counter() - start
    _report(8, decreasing and moments[-1] < 1e-3 and elapsed < 300.0,
            f"E||X_n - X_(n-1)(T)|| decreasing (2 SE) to {moments[-1]:.2e} < 1e-3 "
            f"by n=8 over 200 replicas; runtime {elapsed:.1f}s < 5min")


def test_criterion_09_fixed_point_and_uniqueness():
    model = heat_preset(8)
    config = SolverConfig(alpha=1.5, T=0.05, M=200, n=8, seed=7)
    path = solve(model, config)
    residual_ok = path.residual < 1e-10

    bound = binding_time_bound(model, 1.5)
    ucfg = SolverConfig(alpha=1.5, T=0.9 * bound, M=200, n=8, seed=SEED + 80)
    # the exponential-Euler solve and the zero-seeded Picard limit on each uniqueness
    # replica's noise
    agree = 0
    for replica in range(100):
        rows = _noise_increments(1.5, 8, ucfg.grid(), SEED + 80, TAG_REPLICA, replica)
        noise = NoisePath(1.5, 8, ucfg.grid(), rows, SEED + 80)
        solved = solve(model, ucfg, noise=noise)
        dist = np.linalg.norm(solved.states - zero_seeded_states(model, ucfg, noise),
                              axis=1).max()
        agree += bool(dist < 10.0 * picard.TOL)

    # state-independent coefficients: from the flow, the second Picard iterate is the first
    additive = make_model(n=8, f_rule="zero", kappa_rule="power:1:1.5", shape="one")
    acfg = SolverConfig(alpha=1.5, T=0.02, M=100, n=8, seed=SEED + 81)
    diffs = _picard_diffs(additive, acfg, picard._kernel(additive, acfg.grid()), acfg.seed,
                          range(1), 3)[0]
    additive_ok = diffs[0] > 0.0 and not diffs[1:].any()
    _report(9, residual_ok and agree == 100 and additive_ok,
            f"solve residual {path.residual:.2e} < 1e-10; exponential-Euler solve equals the "
            f"zero-seeded Picard limit in {agree}/100 within 10*TOL; additive case: "
            f"flow-seeded differences "
            f"{np.array2string(diffs, precision=3)}")


def test_criterion_10_gluing():
    model = heat_preset(8)
    bound = binding_time_bound(model, 1.5)
    config = SolverConfig(alpha=1.5, T=3.0 * bound, M=200, n=8, seed=SEED + 90)
    glued = glue_solve(model, config)
    residuals_ok = all(res < picard.TOL for res in glued.piece_residuals)

    pieces = len(glued.piece_residuals)
    junction = piece_breaks(config.M, pieces)[0]
    sub = SolverConfig(alpha=1.5, T=config.T / pieces, M=junction, n=8, seed=config.seed)
    rows0 = _noise_increments(1.5, 8, sub.grid(), config.seed, TAG_PIECE, 0)
    noise0 = NoisePath(1.5, 8, sub.grid(), rows0, config.seed)
    piece0 = solve(model, sub, noise=noise0)
    junction_exact = np.array_equal(glued.states[junction], piece0.terminal)
    _report(10, pieces == 4 and residuals_ok and junction_exact,
            f"{pieces} pieces (T_total = 3x bound), per-piece residuals "
            f"{[f'{r:.1e}' for r in glued.piece_residuals]} all < TOL; "
            f"junction states bit-exact: {junction_exact}")


def test_criterion_11_willet_wong():
    t = np.linspace(0.0, 1.0, 10_001)
    near = willet_wong_check(t**2 / 4.0, np.zeros_like(t), np.ones_like(t), 0.5, t=t)
    near_ok = abs(near["margin"]) < 1e-4

    margins = []
    for tt, u, v, w, p in random_hypothesis_triples(100, 4_000, seed=SEED + 100):
        margins.append(willet_wong_check(u, v, w, p, t=tt)["margin"])
    margins = np.asarray(margins)
    _report(11, near_ok and bool(np.all(margins >= -1e-6)),
            f"near-equality margin {near['margin']:.2e} (|.| < 1e-4); "
            f"100 random triples min margin {margins.min():.2e} >= -1e-6")


def test_criterion_12_semigroup_norm_continuity():
    model = heat_preset(8)
    t_grid = np.geomspace(1e-8, 1.0, 50)
    ratios = {}
    for delta in (0.25, 0.5, 1.0):
        ratios[delta] = check_norm_continuity(model, delta, t_grid)["worst_ratio"]
    ok = all(r <= 1.0 + 1e-6 for r in ratios.values())
    _report(12, ok, f"worst ratios {ratios} all <= 1 + 1e-6")


def test_criterion_13_refinement_convergence():
    result = refinement_experiment(
        profile=lambda s: s,
        psi0=np.array([[1.0]]),
        alpha=1.5,
        T=1.0,
        coarse_steps=8,
        levels=5,
        replicas=2_000,
        epsilon=0.02,
        seed=SEED + 110,
    )
    exceed = result["table"]["exceedance"]
    _report(13, result["monotone"] and exceed[0] > exceed[-1],
            f"exceedance probabilities {np.round(exceed, 4)} nonincreasing "
            f"across 5 dyadic levels (2 SE)")
