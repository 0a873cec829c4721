"""Closed-form constants and measure quantities of the stable calculus.

Everything here is deterministic: the normalisation c_alpha, the uniform
sphere mass of the cylindrical Levy measure, the tail/moment constant
chain c1 -> c2 -> C(p), the contraction constant c3 with its two
admissible-horizon bounds, and the sphere integral giving the tail mass
of a radonified stable variable (with its Jensen upper bound).

The universal tail-comparison constant has no formula; it is carried as
``c_convention`` (default 1) and every shipped verdict is confined to
c-free quantities (ratios, the limit identity, homogeneity).
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from .rng import TAG_SPHERE_MC, _draw_blocks, substream

__all__ = [
    "c_alpha",
    "sphere_total_mass",
    "chain_constants",
    "c3_and_Tmax",
    "levy_tail_mass",
    "jensen_bound",
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


def _sphere_average(gamma: np.ndarray, alpha: float, nodes: int) -> float:
    """Average of (sum gamma_j^2 x_j^2)^(alpha/2) over the unit sphere, n <= 3."""
    n = gamma.size
    if n == 1:
        return float(abs(gamma[0]) ** alpha)
    if n == 2:
        theta = (np.arange(nodes) + 0.5) * 2.0 * math.pi / nodes
        vals = (gamma[0] ** 2 * np.cos(theta) ** 2 + gamma[1] ** 2 * np.sin(theta) ** 2) ** (
            alpha / 2.0
        )
        return float(vals.mean())
    # n == 3: Gauss-Legendre in cos(phi), periodic trapezoid in theta, the grid
    # built in blocks of column pairs.  A block never holds a single column: the
    # sum down one column is pairwise, not row after row as in a wider block.
    u, w_u = leggauss(nodes)
    theta = (np.arange(2 * nodes) + 0.5) * math.pi / nodes
    sin_phi_sq = 1.0 - u**2
    column_sums = np.empty(theta.size)
    for pairs in _draw_blocks(nodes, 2 * nodes):
        cols = slice(2 * pairs.start, 2 * pairs.stop)
        vals = (
            gamma[0] ** 2 * sin_phi_sq[:, None] * np.cos(theta[cols])[None, :] ** 2
            + gamma[1] ** 2 * sin_phi_sq[:, None] * np.sin(theta[cols])[None, :] ** 2
            + gamma[2] ** 2 * (u**2)[:, None]
        ) ** (alpha / 2.0)
        column_sums[cols] = (w_u[:, None] * vals).sum(axis=0)
    return float(column_sums.mean() / 2.0)


def levy_tail_mass(
    gamma,
    alpha: float,
    method: str = "quadrature",
    mc_points: int = 1_000_000,
    seed: int = 0,
    nodes: int = 512,
) -> tuple[float, float]:
    """Levy mass outside the closed unit ball for a radonified stable law.

    Returns ``(value, stderr)`` where value is
    (1/c_alpha) * integral over the sphere of (sum gamma_j^2 x_j^2)^(alpha/2)
    against the uniform measure of total mass :func:`sphere_total_mass`.
    Deterministic product quadrature for n <= 3, Monte Carlo (with reported
    standard error) otherwise or when ``method="monte_carlo"``.
    """
    alpha = _check_alpha(alpha)
    gamma = np.atleast_1d(np.asarray(gamma, dtype=float))
    if gamma.ndim != 1:
        raise ValueError("gamma must be a vector of singular values")
    n = gamma.size
    if not np.any(gamma):
        return 0.0, 0.0
    prefactor = sphere_total_mass(n, alpha) / c_alpha(alpha)

    if method == "quadrature":
        if n > 3:
            raise ValueError("deterministic quadrature is only available for n <= 3")
        return prefactor * _sphere_average(gamma, alpha, nodes), 0.0
    if method != "monte_carlo":
        raise ValueError(f"unknown method {method!r}")

    rng = substream(seed, TAG_SPHERE_MC, n)
    f = np.empty(mc_points)
    for block in _draw_blocks(mc_points, n):
        z = rng.standard_normal((len(block), n))
        x = z / np.linalg.norm(z, axis=1, keepdims=True)
        # a sum along each row, not a BLAS matrix-vector product, whose rounding of
        # a row depends on where the row falls among the product's kernels and threads
        f[block.start:block.stop] = (x**2 * gamma**2).sum(axis=1) ** (alpha / 2.0)
    value = prefactor * float(f.mean())
    stderr = prefactor * float(f.std(ddof=1)) / math.sqrt(mc_points)
    return value, stderr


def jensen_bound(gamma, alpha: float) -> float:
    """Jensen upper bound lambda_n(S)/(c_alpha*n^(alpha/2)) * (sum gamma^2)^(alpha/2).

    Dominates :func:`levy_tail_mass` with equality exactly when all |gamma_j|
    coincide (the sphere integrand is then constant).
    """
    alpha = _check_alpha(alpha)
    gamma = np.atleast_1d(np.asarray(gamma, dtype=float))
    n = gamma.size
    return (
        sphere_total_mass(n, alpha)
        / (c_alpha(alpha) * n ** (alpha / 2.0))
        * float(gamma @ gamma) ** (alpha / 2.0)
    )


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
