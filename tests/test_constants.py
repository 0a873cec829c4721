"""Constants module: closed forms against independent oracles."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma as scipy_gamma

from cylstable.constants import (
    c3_and_Tmax,
    c_alpha,
    chain_constants,
    constants_report,
    levy_tail_mass,
    sphere_total_mass,
)

import levy_oracles


def test_gamma_backend_against_mpmath_oracle():
    # pre-build validation of the Gamma implementation, frozen as a test
    points = np.linspace(0.1, 10.0, 20)
    for x in points:
        ref = float(mp.gamma(x))
        assert abs(scipy_gamma(x) - ref) <= 1e-13 * abs(ref)
        assert abs(math.gamma(x) - ref) <= 1e-13 * abs(ref)


def test_c_alpha_at_one_is_half_pi():
    assert c_alpha(1.0) == math.pi / 2.0


@pytest.mark.parametrize("alpha", [0.5, 1.5])
def test_c_alpha_matches_gamma_oracle(alpha):
    ref = float(-alpha * mp.cos(alpha * mp.pi / 2) * mp.gamma(-alpha))
    assert c_alpha(alpha) == pytest.approx(ref, rel=1e-13)


def test_c_alpha_continuous_across_one():
    # |dc/dalpha| at 1 is order 1, so within 1e-7 of the point the value
    # must sit within 1e-6 of the alpha=1 branch
    for k in range(7, 14):
        for eps in (10.0**-k, -(10.0**-k)):
            assert abs(c_alpha(1.0 + eps) - math.pi / 2.0) < 1e-6


@pytest.mark.parametrize("alpha", [0.3, 1.0, 1.7])
def test_c_alpha_rejects_out_of_range(alpha):
    for bad in (0.0, 2.0, -1.0, 2.5):
        with pytest.raises(ValueError):
            c_alpha(bad)
    assert c_alpha(alpha) > 0.0


def test_sphere_mass_n1_is_exactly_one():
    for alpha in (0.4, 1.0, 1.5, 1.9):
        assert sphere_total_mass(1, alpha) == pytest.approx(1.0, rel=1e-14)


def test_sphere_mass_n2_gamma_oracle():
    ref = float(mp.gamma(0.5) * mp.gamma(1.75) / (mp.gamma(1.0) * mp.gamma(1.25)))
    assert sphere_total_mass(2, 1.5) == pytest.approx(ref, rel=1e-13)


def test_sphere_mass_large_n_asymptotic():
    # Gamma((n+alpha)/2)/Gamma(n/2) ~ (n/2)^(alpha/2), so
    # mass(n)/n^(alpha/2) -> 2^(-alpha/2) Gamma(1/2)/Gamma((1+alpha)/2)
    alpha = 1.5
    limit = 2.0 ** (-alpha / 2) * math.gamma(0.5) / math.gamma((1 + alpha) / 2)
    for n in (100, 1000, 10000):
        ratio = sphere_total_mass(n, alpha) / n ** (alpha / 2)
        assert ratio == pytest.approx(limit, rel=5.0 / n)


def test_chain_ratio_eliminates_convention():
    for alpha in (1.1, 1.5, 1.9):
        for conv in (0.5, 1.0, 3.0):
            chain = chain_constants(alpha, alpha / 2, c_convention=conv)
            assert chain["c2"] / chain["c1"] == pytest.approx((4 - alpha) / (2 - alpha), rel=1e-14)


def test_chain_identity_C_times_gap():
    alpha, p = 1.5, 1.2
    chain = chain_constants(alpha, p)
    assert chain["C"] * (alpha - p) / alpha == pytest.approx(chain["c2"] ** (p / alpha), rel=1e-14)


def test_chain_example_alpha15_p1():
    chain = chain_constants(1.5, 1.0, c_convention=1.0)
    assert chain["C"] == pytest.approx(chain["c2"] ** (2.0 / 3.0) * 3.0, rel=1e-13)


def test_C_diverges_as_p_approaches_alpha():
    alpha = 1.5
    values = [chain_constants(alpha, p)["C"] for p in (1.0, 1.2, 1.4, 1.49, 1.499)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[-1] > 100.0


def test_chain_rejects_p_at_or_above_alpha():
    with pytest.raises(ValueError):
        chain_constants(1.5, 1.5)
    with pytest.raises(ValueError):
        chain_constants(1.5, 1.7)


def test_c3_degenerate_zero_coefficients():
    result = c3_and_Tmax(1.5, 0.0, 0.0)
    assert result["c3"] == 0.0
    assert result["T_uniq"] == 1.0 and result["T_picard"] == 1.0


def test_c3_monotone_in_coefficients():
    base = c3_and_Tmax(1.5, 1.0, 1.0)["c3"]
    assert c3_and_Tmax(1.5, 2.0, 1.0)["c3"] >= base
    assert c3_and_Tmax(1.5, 1.0, 2.0)["c3"] >= base
    # doubling both multiplies each p-term by at most 2^p <= 2^alpha
    doubled = c3_and_Tmax(1.5, 2.0, 2.0)["c3"]
    assert base <= doubled <= 2.0**1.5 * base * (1 + 1e-12)


def dense_grid_c3(alpha, c_f, c_g):
    """Test oracle: the c3 objective maximised over a dense grid of the open interval (1, alpha).

    A uniform grid plus points 10^-k (alpha - 1) away from each endpoint, k = 1..13.
    """
    c2 = chain_constants(alpha, (1.0 + alpha) / 2.0)["c2"]
    k = (alpha - 1.0) / (min(c2 ** (1.0 / alpha), c2) * alpha)
    offsets = (alpha - 1.0) * 10.0 ** -np.arange(1.0, 14.0)
    p = np.concatenate([np.linspace(1.0, alpha, 2001), 1.0 + offsets, alpha - offsets])
    p = p[(p > 1.0) & (p < alpha)]
    return float((2.0 ** (p - 1.0) * (k * c_f**p + c_g**p)).max())


def test_c3_is_the_sup_of_a_dense_p_grid():
    rng = np.random.default_rng(12)
    alphas = rng.uniform(1.0, 2.0, 500)
    coefs = rng.uniform(0.0, 5.0, (500, 2))
    coefs[:100, 0] = 0.0  # zeros included: c_f = 0, c_g = 0 and both
    coefs[50:150, 1] = 0.0
    for alpha, (c_f, c_g) in zip(alphas, coefs):
        c3 = c3_and_Tmax(alpha, c_f, c_g)["c3"]
        oracle = dense_grid_c3(alpha, c_f, c_g)
        # >= up to the rounding of the two evaluations, which differ in operation order
        assert c3 >= oracle * (1.0 - 1e-15), (alpha, c_f, c_g)
        assert c3 <= oracle * (1.0 + 1e-12), (alpha, c_f, c_g)


def test_levy_tail_mass_zero_gamma():
    value = levy_tail_mass([0.0, 0.0], 1.5)
    assert value == 0.0 and isinstance(value, float)


def test_levy_tail_mass_scalar_unit():
    value = levy_tail_mass([1.0], 1.5)
    assert value == pytest.approx(1.0 / c_alpha(1.5), rel=1e-12)


@given(
    alpha=st.floats(0.3, 1.9),
    scale=st.floats(0.25, 4.0),
    n=st.integers(1, 3),
)
@settings(max_examples=25, deadline=None)
def test_levy_tail_mass_homogeneity(alpha, scale, n):
    gamma = np.linspace(1.0, 0.3, n)
    base = levy_tail_mass(gamma, alpha)
    scaled = levy_tail_mass(scale * gamma, alpha)
    assert scaled == pytest.approx(scale**alpha * base, rel=1e-6)


@pytest.mark.parametrize("scale", [2.0**400, 2.0**-400, 1e100, 1e-100])
def test_levy_tail_mass_homogeneity_at_extreme_scales(scale):
    gamma = np.array([1.0, 0.7, 0.05, 0.3, 2.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha in (0.3, 1.0, 1.5, 1.99):
            base = levy_tail_mass(gamma, alpha)
            assert levy_tail_mass(scale * gamma, alpha) == pytest.approx(
                scale**alpha * base, rel=1e-14, abs=0.0)


def test_levy_tail_mass_matches_product_quadrature():
    rng = np.random.default_rng(11)
    for alpha in (0.05, 0.3, 0.7, 1.0, 1.01, 1.5, 1.99):
        for n in (1, 2, 3):
            for _ in range(5):
                gamma = rng.uniform(0.05, 3.0, n)
                oracle = levy_oracles.product_quadrature(gamma, alpha)
                assert levy_tail_mass(gamma, alpha) == pytest.approx(oracle, rel=1e-13), (
                    alpha, gamma)


@pytest.mark.parametrize("alpha", [0.3, 1.0, 1.5, 1.99])
def test_levy_tail_mass_exact_limits(alpha):
    # gamma = e_1 in R^3: the sphere average of |x_1|^alpha is 1/(alpha+1)
    prefactor3 = sphere_total_mass(3, alpha) / c_alpha(alpha)
    assert levy_tail_mass([1.0, 0.0, 0.0], alpha) == pytest.approx(
        prefactor3 / (alpha + 1.0), rel=1e-14)
    # gamma = e_1 in R^2: the circle average of |cos|^alpha
    prefactor2 = sphere_total_mass(2, alpha) / c_alpha(alpha)
    circle = math.gamma((1.0 + alpha) / 2.0) / (math.sqrt(math.pi) * math.gamma(1.0 + alpha / 2.0))
    assert levy_tail_mass([1.0, 0.0], alpha) == pytest.approx(prefactor2 * circle, rel=1e-14)


def test_levy_tail_mass_equal_gammas_match_chi_square_moment():
    # all gamma_j = 1: the Gaussian moment is E[chi2_n^(alpha/2)] in closed form
    for alpha in (0.3, 1.0, 1.5, 1.99):
        s = alpha / 2.0
        abs_moment = 2.0**s * mp.gamma((1 + alpha) / 2.0) / mp.sqrt(mp.pi)
        for n in (1, 4, 8, 16, 64):
            chi = 2.0**s * mp.gamma(n / 2.0 + s) / mp.gamma(n / 2.0)
            exact = float(chi / (abs_moment * c_alpha(alpha)))
            assert levy_tail_mass(np.ones(n), alpha) == pytest.approx(exact, rel=1e-13)


@pytest.mark.parametrize("gamma", [[1.0, math.inf], [math.nan, 1.0], [[1.0, 0.5]]])
def test_levy_tail_mass_refuses_non_finite_or_non_vector_gamma(gamma):
    with pytest.raises(ValueError, match="gamma"):
        levy_tail_mass(gamma, 1.5)


def test_levy_tail_mass_quadrature_vs_monte_carlo():
    gamma = np.array([1.0, 0.5, 0.25])
    quad = levy_tail_mass(gamma, 1.5)
    mc, se = levy_oracles.monte_carlo(gamma, 1.5, 400_000, seed=5)
    assert abs(mc - quad) <= 3.0 * se


@pytest.mark.parametrize("n", [4, 8, 16])
def test_levy_tail_mass_beyond_three_dimensions_vs_monte_carlo(n):
    gamma = np.random.default_rng(40 + n).uniform(0.05, 3.0, n)
    mc, se = levy_oracles.monte_carlo(gamma, 1.5, 400_000, seed=n)
    assert abs(mc - levy_tail_mass(gamma, 1.5)) <= 3.0 * se


def test_jensen_equality_for_constant_gamma():
    for n in (1, 2, 3):
        gamma = np.full(n, 0.7)
        mass = levy_tail_mass(gamma, 1.5)
        assert abs(mass - levy_oracles.jensen_bound(gamma, 1.5)) < 1e-8


def test_jensen_strict_for_uneven_gamma():
    mass = levy_tail_mass([1.0, 0.0], 1.5)
    bound = levy_oracles.jensen_bound([1.0, 0.0], 1.5)
    assert mass < bound - 1e-3


def test_jensen_dominates_on_random_gammas():
    rng = np.random.default_rng(123)
    for _ in range(50):
        n = rng.integers(1, 4)
        gamma = rng.uniform(0.0, 2.0, size=n)
        if not gamma.any():
            continue
        mass = levy_tail_mass(gamma, 1.5)
        assert mass <= levy_oracles.jensen_bound(gamma, 1.5) + 1e-6


def test_jensen_large_n_limit_matches_c_free_combination():
    # with sum gamma^2 fixed, the bound tends to the c-free combination
    # 2^(-alpha/2) Gamma(1/2)/(c_alpha Gamma((1+alpha)/2)) * (sum gamma^2)^(alpha/2);
    # the sharp prefactor carries the 2^(-alpha/2) from the sphere-mass
    # asymptotic, which the stated chain constant c1 upper-bounds away
    alpha = 1.5
    total_sq = 2.0
    target = (
        2.0 ** (-alpha / 2)
        * math.gamma(0.5)
        / (c_alpha(alpha) * math.gamma((1 + alpha) / 2))
        * total_sq ** (alpha / 2)
    )
    for n in (100, 1000, 10000):
        gamma = np.full(n, math.sqrt(total_sq / n))
        assert levy_oracles.jensen_bound(gamma, alpha) == pytest.approx(target, rel=5.0 / n)
    # the stated chain constant dominates the sharp limit (c = 1)
    from cylstable.constants import chain_constants

    c1 = chain_constants(alpha, 1.0)["c1"]
    assert target <= c1 * total_sq ** (alpha / 2)


def test_constants_report_positive_entries():
    report = constants_report(1.5, 1.2, c_f=1.0, c_g=1.0, n=3)
    for key, value in report.items():
        assert np.isfinite(value), key
        if key not in ("lambda_mass_n",):
            assert value > 0.0, key
