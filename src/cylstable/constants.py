"""Closed-form constants and measure quantities of the stable calculus.

Everything here is deterministic: the normalisation c_alpha, the uniform
sphere mass of the cylindrical Levy measure, the tail/moment constant
chain c1 -> c2 -> C(p), the contraction constant c3 with its two
admissible-horizon bounds, and the tail mass of a radonified stable
variable.  That mass is a sphere integral, computed for every dimension n
as a fractional Gaussian moment,

    m(gamma) = E[(sum_j gamma_j^2 Z_j^2)^(alpha/2)] / (c_alpha * E|Z_1|^alpha),

Z standard normal in R^n, which is one integral in log t of the Laplace
transform of sum_j gamma_j^2 Z_j^2.

The universal tail-comparison constant has no formula; it is carried as
``c_convention`` (default 1) and every shipped verdict is confined to
c-free quantities (ratios, the limit identity, homogeneity).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "c_alpha",
    "sphere_total_mass",
    "chain_constants",
    "c3_and_Tmax",
    "levy_tail_mass",
    "constants_report",
]


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in the open interval (0, 2), got {alpha}")
    return alpha


def c_alpha(alpha: float) -> float:
    """Stable normalisation constant of the polar Levy-measure form.

    Equals -alpha*cos(alpha*pi/2)*Gamma(-alpha) away from 1 and pi/2 at 1.
    Evaluated through the reflection formula,

        c_alpha = alpha*pi*sin((alpha-1)*pi/2) / (sin((alpha-1)*pi) * Gamma(1+alpha)),

    which is cancellation-free across alpha = 1.
    """
    alpha = _check_alpha(alpha)
    if alpha == 1.0:
        return math.pi / 2.0
    eps = alpha - 1.0
    return (
        alpha
        * math.pi
        * math.sin(eps * math.pi / 2.0)
        / (math.sin(eps * math.pi) * math.gamma(1.0 + alpha))
    )


def sphere_total_mass(n: int, alpha: float) -> float:
    """Total mass of the uniform spherical part in dimension ``n``.

    Gamma(1/2)Gamma((n+alpha)/2) / (Gamma(n/2)Gamma((1+alpha)/2)),
    computed in log space so large ``n`` does not overflow.
    """
    alpha = _check_alpha(alpha)
    if n < 1:
        raise ValueError(f"dimension n must be >= 1, got {n}")
    return math.exp(
        math.lgamma(0.5)
        + math.lgamma((n + alpha) / 2.0)
        - math.lgamma(n / 2.0)
        - math.lgamma((1.0 + alpha) / 2.0)
    )


def chain_constants(alpha: float, p: float, c_convention: float = 1.0) -> dict[str, float]:
    """The chained constants c1, c2 and C(p) of the tail/moment estimates.

    c1 = c*Gamma(1/2)/(c_alpha*Gamma((1+alpha)/2)), c2 = c1*(4-alpha)/(2-alpha)
    and C = c2^(p/alpha)*alpha/(alpha-p), under the substitution
    c = ``c_convention`` for the non-computable universal constant.
    """
    alpha = _check_alpha(alpha)
    if not 0.0 < p < alpha:
        raise ValueError(f"p must lie in (0, alpha)=(0, {alpha}), got {p}")
    if c_convention <= 0.0:
        raise ValueError("c_convention must be positive")
    c1 = c_convention * math.gamma(0.5) / (c_alpha(alpha) * math.gamma((1.0 + alpha) / 2.0))
    c2 = c1 * (4.0 - alpha) / (2.0 - alpha)
    big_c = c2 ** (p / alpha) * alpha / (alpha - p)
    return {"c1": c1, "c2": c2, "C": big_c}


def c3_and_Tmax(
    alpha: float, c_f: float, c_g: float, c_convention: float = 1.0
) -> dict[str, float]:
    """Contraction constant c3 and the two admissible-horizon bounds.

    c3 = sup over p in (1, alpha) of g(p) = 2^(p-1)*(K*c_f^p + c_g^p) with
    K = (alpha-1)/((c2^(1/alpha) ^ c2)*alpha).  As g(p) = (K*(2c_f)^p +
    (2c_g)^p)/2 is a nonnegative sum of exponentials in p, it is convex, so
    the sup over the open interval is max(g(1), g(alpha)).  Returns c3, the
    uniqueness horizon T_uniq = min{1, 1/(alpha*c2*(c3^alpha v c3))}, the
    iteration horizon T_picard = min{1, ((c2 v c2^(1/alpha))*c3)^(-alpha)}
    and their minimum ``T_bound`` (the binding bound).
    """
    alpha = _check_alpha(alpha)
    if alpha <= 1.0:
        raise ValueError(f"the contraction constants require alpha in (1, 2), got {alpha}")
    if not (0.0 <= c_f < math.inf and 0.0 <= c_g < math.inf):
        raise ValueError(f"c_f and c_g must be finite and nonnegative, got {c_f}, {c_g}")
    c2 = chain_constants(alpha, (1.0 + alpha) / 2.0, c_convention)["c2"]

    if c_f == 0.0 and c_g == 0.0:
        # Degenerate contraction constants: both horizons are capped at 1
        # (the underlying inequalities are strict).
        return {"c3": 0.0, "T_uniq": 1.0, "T_picard": 1.0, "T_bound": 1.0, "c2": c2}

    k = (alpha - 1.0) / (min(c2 ** (1.0 / alpha), c2) * alpha)
    c3 = max(2.0 ** (p - 1.0) * (k * c_f**p + c_g**p) for p in (1.0, alpha))

    t_uniq = min(1.0, 1.0 / (alpha * c2 * max(c3**alpha, c3)))
    t_picard = min(1.0, (max(c2, c2 ** (1.0 / alpha)) * c3) ** (-alpha))
    return {
        "c3": c3,
        "T_uniq": t_uniq,
        "T_picard": t_picard,
        "T_bound": min(t_uniq, t_picard),
        "c2": c2,
    }


def _gaussian_moment(g2: np.ndarray, s: float) -> float:
    """E[Y^s] for Y = sum_j g2_j Z_j^2, Z standard normal, 0 < s < 1 and max g2 = 1.

    With the Laplace transform L(t) = prod_j (1 + 2t g2_j)^(-1/2) of Y and
    g = -L' = L * sum_j g2_j / (1 + 2t g2_j), E[Y^s] is
    Gamma(1-s)^(-1) * integral over t > 0 of t^(-s) g(t).  Subtracting
    g(0) / (1 + ct)^2 with c = 2 max g2 = 2, whose integral against t^(-s)
    is g(0) c^(s-1) Gamma(1+s) Gamma(1-s), leaves an integrand that vanishes
    like t^(2-s) at 0 and like t^(-s-1/2) at infinity; in u = log t it is
    analytic in |Im u| < pi, so the trapezoid rule with step 1/4 converges
    far below double precision (Trefethen and Weideman, SIAM Review 2014).
    The grid ends where each tail is below 1e-17.
    """
    n, step = g2.size, 0.25
    u = np.arange(-(40.0 + 2.0 * math.log(n + 3.0)), 2.0 * (40.0 + math.log(2.0 * n)), step)
    t = np.exp(u)
    d = 1.0 + 2.0 * t[:, None] * g2
    g = (g2 / d).sum(axis=1) * np.exp(-0.5 * np.log(d).sum(axis=1))
    g0 = float(g2.sum())
    rest = step * float((t ** (1.0 - s) * (g - g0 / (1.0 + 2.0 * t) ** 2)).sum())
    return g0 * 2.0 ** (s - 1.0) * math.gamma(1.0 + s) + rest / math.gamma(1.0 - s)


def levy_tail_mass(gamma, alpha: float) -> float:
    """Levy mass outside the closed unit ball for a radonified stable law.

    The mass is (1/c_alpha) * integral over the sphere of
    (sum_j gamma_j^2 x_j^2)^(alpha/2) against the uniform measure of total
    mass :func:`sphere_total_mass`.  Writing a standard normal Z in R^n as
    |Z| times a uniform point of the sphere (the spherical-Gaussian
    representation of rotation-invariant stable laws, Samorodnitsky and
    Taqqu 1994) turns it into

        E[(sum_j gamma_j^2 Z_j^2)^(alpha/2)] / (c_alpha * E|Z_1|^alpha),

    with E|Z_1|^alpha = 2^(alpha/2) Gamma((1+alpha)/2) / sqrt(pi), the same
    one-dimensional integral for every n.  gamma is scaled by its largest
    entry first, and the mass is homogeneous of degree alpha in gamma.
    """
    alpha = _check_alpha(alpha)
    gamma = np.atleast_1d(np.asarray(gamma, dtype=float))
    if gamma.ndim != 1:
        raise ValueError("gamma must be a vector of singular values")
    if not np.all(np.isfinite(gamma)):
        raise ValueError("gamma must be finite")
    if not np.any(gamma):
        return 0.0
    top = np.abs(gamma).max()
    s = alpha / 2.0
    moment = _gaussian_moment((gamma / top) ** 2, s)
    abs_moment = 2.0**s * math.gamma((1.0 + alpha) / 2.0) / math.sqrt(math.pi)
    return float(top**alpha) * moment / (c_alpha(alpha) * abs_moment)


def constants_report(
    alpha: float,
    p: float,
    c_f: float = 1.0,
    c_g: float = 1.0,
    n: int = 1,
    c_convention: float = 1.0,
) -> dict[str, float]:
    """Every explicit constant for one parameter choice, by name, in report order."""
    chain = chain_constants(alpha, p, c_convention)
    horizon = c3_and_Tmax(alpha, c_f, c_g, c_convention)
    return {
        "alpha": float(alpha),
        "p": float(p),
        "c_convention": float(c_convention),
        "c_alpha": c_alpha(alpha),
        "lambda_mass_n": int(n),
        "lambda_total_mass": sphere_total_mass(n, alpha),
        **{key: chain[key] for key in ("c1", "c2", "C")},
        "c_F": float(c_f),
        "c_G": float(c_g),
        **{key: horizon[key] for key in ("c3", "T_uniq", "T_picard", "T_bound")},
    }
