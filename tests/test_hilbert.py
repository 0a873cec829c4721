"""Semigroup and the assumption certifiers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylstable.hilbert import (
    DiagonalModel,
    HSMatrix,
    as_matrix,
    check_A2,
    check_A3,
    check_norm_continuity,
    heat_preset,
    make_model,
    norm_continuity_constant,
    parse_model_config,
)
from cylstable.integral import constant_integrand

from picard_oracles import semigroup_flow


def two_mode_model(lambdas=(1.0, 4.0)):
    return DiagonalModel(
        lambdas=np.asarray(lambdas, float),
        delta=0.5,
        kappa=np.zeros(len(lambdas)),
        f=np.zeros(len(lambdas)),
    )


def test_hsmatrix_norm_and_diagonal():
    # the HS norm the package uses: the alpha-scale of one cell of unit length
    psi = HSMatrix([[3.0, 0.0], [0.0, 4.0]])
    assert constant_integrand(psi, [0.0, 1.0]).alpha_scale(1.5) == pytest.approx(5.0)
    assert np.array_equal(as_matrix(HSMatrix.diagonal([1.0, 2.0])), [[1.0, 0.0], [0.0, 2.0]])
    assert np.array_equal(HSMatrix.diagonal(3.0).entries, [[3.0]])
    with pytest.raises(ValueError):
        HSMatrix.diagonal([1.0, np.inf])


def semigroup(model, t, x):
    """S(t)x as the solver applies it: its flow at the end of the one-step grid [0, t]."""
    return semigroup_flow(model, np.array([0.0, t]), x)[-1]


def test_semigroup_identity_at_zero():
    model = two_mode_model()
    x = np.array([0.3, -0.7])
    assert np.array_equal(semigroup(model, 0.0, x), x)


def test_semigroup_hand_example():
    model = two_mode_model((1.0, 4.0))
    out = semigroup(model, math.log(2.0), np.array([1.0, 1.0]))
    assert out == pytest.approx([0.5, 1.0 / 16.0], rel=1e-14)


@given(
    t=st.floats(0.0, 50.0),
    s=st.floats(0.0, 50.0),
    coords=st.tuples(st.floats(-10, 10), st.floats(-10, 10)),
)
@settings(max_examples=100, deadline=None)
def test_semigroup_contraction_and_law(t, s, coords):
    model = two_mode_model((0.5, 3.0))
    x = np.asarray(coords)
    once = semigroup(model, t, x)
    assert np.linalg.norm(once) <= np.linalg.norm(x) * (1 + 1e-12)
    twice = semigroup(model, s, once)
    direct = semigroup(model, s + t, x)
    eps = np.finfo(float).eps
    # the rounding unit of exp(-lambda t) scales with the exponent argument
    unit = eps * (1.0 + model.lambdas * (s + t))
    assert np.all(np.abs(twice - direct) <= 4 * unit * (np.abs(direct) + 1e-300))


def test_norm_continuity_constant_delta_one():
    assert norm_continuity_constant(1.0) == 1.0


def test_norm_continuity_constant_against_dense_grid_oracle():
    # independent oracle: brute maximum on a very fine grid
    for delta in (0.25, 0.5, 0.9):
        y = np.logspace(-9, 9, 2_000_001)
        oracle = float((-np.expm1(-y) * y**-delta).max())
        assert norm_continuity_constant(delta) == pytest.approx(oracle, rel=1e-9)


@pytest.mark.parametrize("delta", [1e-300, 1e-12, 1.0 - 1e-12])
def test_norm_continuity_constant_extreme_deltas(delta):
    value = norm_continuity_constant(delta)
    assert math.isfinite(value) and 0.0 < value <= 1.0


def test_check_norm_continuity_zero_time():
    model = heat_preset(3)
    result = check_norm_continuity(model, 0.5, [0.0])
    assert result["worst_ratio"] == 0.0


def test_check_norm_continuity_delta_one_elementary():
    model = heat_preset(5)
    result = check_norm_continuity(model, 1.0, np.geomspace(1e-8, 10.0, 40))
    assert result["worst_ratio"] <= 1.0


def test_check_norm_continuity_small_t_tight():
    model = make_model(n=3, lambda_rule="dirichlet", delta=0.5)
    result = check_norm_continuity(model, 0.5, [1e-3])
    assert result["worst_ratio"] <= 1.0 + 1e-9


@pytest.mark.parametrize("delta", [0.25, 0.5, 1.0])
def test_check_norm_continuity_presets(delta):
    model = heat_preset(8)
    result = check_norm_continuity(model, delta, np.geomspace(1e-6, 1.0, 30))
    assert result["worst_ratio"] <= 1.0 + 1e-6


def test_check_A2_zero_coefficients():
    model = make_model(n=4, kappa_rule="zero", f_rule="zero")
    result = check_A2(model, [0.01, 0.1], [np.ones(4)])
    assert result["M0"] == 0.0 and not result["divergent"]


def test_check_A2_preset_is_bounded():
    # kappa_k = k^-1.5, delta = 0.25: series sum k^(4 delta - 3) * pi-power converges
    model = heat_preset(8)
    result = check_A2(model, np.geomspace(1e-4, 1.0, 10), [np.ones(8), np.zeros(8)])
    assert not result["divergent"]
    assert result["M0"] <= result["series_envelope_sup"] + 1e-12
    assert np.isfinite(result["series_envelope_sup"])


def test_check_A2_flags_divergent_amplitudes():
    model = make_model(n=8, kappa_rule="power:1:0.3", f_rule="zero")
    result = check_A2(model, np.geomspace(1e-3, 0.1, 5), [np.ones(8)])
    assert result["divergent"]


def test_check_A3_constant_coefficients_give_zero():
    model = make_model(n=4, shape="one")
    pairs = [(np.zeros(4), np.ones(4))]
    result = check_A3(model, pairs)
    assert result["C_F"] == 0.0 and result["C_G"] == 0.0


def test_check_A3_bounds():
    model = make_model(n=6, f_rule="power:2:2", kappa_rule="power:1:1.5")
    rng = np.random.default_rng(8)
    pairs = [(rng.standard_normal(6), rng.standard_normal(6)) for _ in range(64)]
    pairs += [(0.01 * rng.standard_normal(6), 0.01 * rng.standard_normal(6)) for _ in range(64)]
    result = check_A3(model, pairs, t_grid=(0.0, 0.05))
    assert result["C_F"] <= 2.0 + 1e-12
    assert result["C_G"] <= 1.0 + 1e-12
    # small perturbations around 0 approach the bound max_k f_k (tanh'(0) = 1)
    assert result["C_F"] > 1.0


def test_check_A3_rejects_equal_points():
    with pytest.raises(ValueError):
        check_A3(heat_preset(3), [(np.ones(3), np.ones(3))])


def test_model_validation():
    with pytest.raises(ValueError):
        DiagonalModel(lambdas=np.array([1.0, 0.5]), delta=0.5,
                      kappa=np.zeros(2), f=np.zeros(2))  # not increasing
    with pytest.raises(ValueError):
        DiagonalModel(lambdas=np.array([-1.0]), delta=0.5, kappa=np.zeros(1), f=np.zeros(1))
    with pytest.raises(ValueError):
        make_model(n=3, delta=1.5)
    with pytest.raises(ValueError):
        make_model(n=3, shape="sigmoid")


def test_parse_model_config_round_trip():
    text = """
    # heat-like model
    n = 6
    m = 4
    lambda_rule = dirichlet
    delta = 0.25
    kappa_rule = power:0.5:1.5
    f_rule = power:1:2
    shape = tanh
    """
    model = parse_model_config(text)
    assert model.n == 6 and model.noise_dim == 4
    assert model.lambdas[2] == pytest.approx(math.pi**2 * 9)
    assert model.kappa[0] == 0.5
    assert model.f[1] == pytest.approx(0.25)


def test_parse_model_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown model key"):
        parse_model_config("n = 3\nbogus = 1\n")
    with pytest.raises(ValueError, match="must set n"):
        parse_model_config("delta = 0.5\n")


def test_holder_constants_preset_values():
    model = heat_preset(8)
    c_f, c_g = model.holder_constants()
    # C_F = max f_k = 1; M0' = sqrt(sum k^-3) ~ 1.0932 dominates
    expected = math.sqrt(sum(k**-3.0 for k in range(1, 9)))
    assert c_f == pytest.approx(expected, rel=1e-12)
    assert c_g == c_f
