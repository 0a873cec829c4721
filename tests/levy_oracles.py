"""Independent oracles of the Levy tail mass, for the tests only.

The quadrature and the Monte-Carlo estimate integrate
(sum_j gamma_j^2 x_j^2)^(alpha/2) over the unit sphere directly, against
the uniform measure of total mass ``sphere_total_mass``, and divide by
c_alpha; neither uses the Gaussian-moment identity that
``constants.levy_tail_mass`` evaluates.  :func:`jensen_bound` is the
closed-form upper bound that Jensen's inequality gives for that integral.
:func:`sup_integral_norms` is the path-major reduction of a stochastic
integral's running sup, against which the experiments' coordinate-major one
is checked.
"""

import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from cylstable.constants import c_alpha, sphere_total_mass


def _prefactor(n: int, alpha: float) -> float:
    return sphere_total_mass(n, alpha) / c_alpha(alpha)


def product_quadrature(gamma, alpha: float, nodes: int = 512) -> float:
    """Sphere average by a product rule, n <= 3.

    n = 1 is exact, n = 2 the periodic midpoint rule in the angle, n = 3
    Gauss-Legendre in cos(phi) times the periodic midpoint rule in theta.
    """
    gamma = np.asarray(gamma, dtype=float)
    n = gamma.size
    if n == 1:
        average = abs(gamma[0]) ** alpha
    elif n == 2:
        theta = (np.arange(nodes) + 0.5) * 2.0 * math.pi / nodes
        average = ((gamma[0] * np.cos(theta)) ** 2
                   + (gamma[1] * np.sin(theta)) ** 2) ** (alpha / 2.0)
        average = average.mean()
    elif n == 3:
        u, w_u = leggauss(nodes)
        theta = (np.arange(2 * nodes) + 0.5) * math.pi / nodes
        sin_phi_sq = (1.0 - u**2)[:, None]
        vals = (gamma[0] ** 2 * sin_phi_sq * np.cos(theta) ** 2
                + gamma[1] ** 2 * sin_phi_sq * np.sin(theta) ** 2
                + gamma[2] ** 2 * (u**2)[:, None]) ** (alpha / 2.0)
        average = (w_u[:, None] * vals).sum(axis=0).mean() / 2.0
    else:
        raise ValueError("the product quadrature covers n <= 3")
    return _prefactor(n, alpha) * float(average)


def monte_carlo(gamma, alpha: float, points: int, seed: int) -> tuple[float, float]:
    """Sphere average over ``points`` uniform directions: (value, standard error)."""
    gamma = np.asarray(gamma, dtype=float)
    rng = np.random.default_rng(seed)
    f = np.empty(points)
    for start in range(0, points, 50_000):
        z = rng.standard_normal((min(50_000, points - start), gamma.size))
        x = z / np.linalg.norm(z, axis=1, keepdims=True)
        f[start:start + len(z)] = ((gamma * x) ** 2).sum(axis=1) ** (alpha / 2.0)
    prefactor = _prefactor(gamma.size, alpha)
    return prefactor * float(f.mean()), prefactor * float(f.std(ddof=1)) / math.sqrt(points)


def jensen_bound(gamma, alpha: float) -> float:
    """Jensen upper bound lambda_n(S)/(c_alpha*n^(alpha/2)) * (sum gamma^2)^(alpha/2).

    Dominates ``constants.levy_tail_mass`` with equality exactly when all
    |gamma_j| coincide (the sphere integrand is then constant).
    """
    gamma = np.atleast_1d(np.asarray(gamma, dtype=float))
    n = gamma.size
    return (
        sphere_total_mass(n, alpha)
        / (c_alpha(alpha) * n ** (alpha / 2.0))
        * float(gamma @ gamma) ** (alpha / 2.0)
    )


def sup_integral_norms(values, increments) -> np.ndarray:
    """sup_k ||I(t_k)|| of each path, path-major: the terms (paths, steps, n), their partial
    sums along the steps, the Euclidean norm of each and the max over the steps.

    ``values`` is a step integrand's (steps, n, m) array and ``increments`` the
    (paths, steps, m) noise increments of its cells.
    """
    terms = np.einsum("knm,rkm->rkn", values, increments)
    return np.linalg.norm(np.cumsum(terms, axis=1), axis=2).max(axis=1)
