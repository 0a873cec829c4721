"""Truncated Hilbert-space machinery for the diagonal model class.

A negative diagonal generator with eigenvalues -lambda_k acts on the first
``n`` eigencoordinates; the semigroup multiplies coordinate k by
exp(-lambda_k t).  Drift and diffusion coefficients are diagonal families

    F(x)_k = f_k * s(x_k),        G(x)[k, j] = kappa_k * s(x_k) * delta_kj,

with a fixed bounded 1-Lipschitz scalar shape s (|s| <= 1).  The module
also ships numerical certifiers for the structural assumptions: a
contraction/boundedness check in the fractional norm (A2-type), Lipschitz
estimates (A3-type), and the t^delta norm-continuity bound of the
semigroup on fractional domains.  Certifiers sample finite trial sets:
they certify, they do not prove.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .reporting import parse_key_values
from .rng import _blocks

__all__ = [
    "HSMatrix",
    "as_matrix",
    "DiagonalModel",
    "SHAPES",
    "make_model",
    "heat_preset",
    "parse_model_config",
    "norm_continuity_constant",
    "check_norm_continuity",
    "check_A2",
    "check_A3",
]


class HSMatrix:
    """Finite-rank Hilbert-Schmidt operator U -> H as an n x m real matrix."""

    def __init__(self, entries):
        entries = np.atleast_2d(np.asarray(entries, dtype=float))
        if entries.ndim != 2:
            raise ValueError("entries must form a 2-d matrix")
        if entries.size == 0:
            raise ValueError("an operator needs at least one entry")
        if not np.all(np.isfinite(entries)):
            raise ValueError("entries must be finite")
        self.entries = entries

    @classmethod
    def diagonal(cls, values) -> "HSMatrix":
        """The square matrix with ``values`` on its diagonal."""
        return cls(np.diag(np.atleast_1d(np.asarray(values, dtype=float))))


def as_matrix(psi) -> np.ndarray:
    """The n x m entries of an :class:`HSMatrix` or of an array-like operator."""
    if isinstance(psi, HSMatrix):
        return psi.entries
    return np.atleast_2d(np.asarray(psi, dtype=float))


# Shape functions: bounded by 1 and 1-Lipschitz.  "one" disables the state
# dependence (constant coefficients), "zero" disables the coefficient.
SHAPES: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "tanh": np.tanh,
    "one": lambda x: np.ones_like(np.asarray(x, dtype=float)),
    "zero": lambda x: np.zeros_like(np.asarray(x, dtype=float)),
}


# rule name -> number of ``:``-separated fields after it
_RULE_FIELDS = {"dirichlet": 0, "zero": 0, "const": 1, "power": 2}


def _rule_values(rule: str, k: np.ndarray, kind: str) -> np.ndarray:
    """Evaluate a coefficient rule at the (float) indices k, counted from 1.

    Grammar: ``dirichlet`` (pi^2 k^2, eigenvalues only), ``power:c:p``
    (c*k^p for eigenvalues, c*k^-p for amplitudes), ``const:c``, ``zero``.
    """
    key = f"{kind}_rule"
    name, *fields = rule.split(":")
    if name not in _RULE_FIELDS:
        raise ValueError(f"unknown {key} {rule!r}")
    if len(fields) != _RULE_FIELDS[name]:
        raise ValueError(f"{key} {rule!r}: {name!r} takes {_RULE_FIELDS[name]} "
                         f"field(s) after the name, got {len(fields)}")
    if name == "dirichlet":
        if kind != "lambda":
            raise ValueError(f"{key} 'dirichlet' is only valid for lambda_rule")
        return math.pi**2 * k**2
    if name == "zero":
        if kind == "lambda":
            raise ValueError(f"{key} 'zero': eigenvalues must be strictly positive")
        return np.zeros_like(k)
    try:
        numbers = [float(field) for field in fields]
    except ValueError:
        raise ValueError(f"{key} {rule!r}: the fields after {name!r} must be numbers") from None
    if name == "const":
        return np.full_like(k, numbers[0])
    c, p = numbers
    # an overflow gives inf, which DiagonalModel refuses naming the rule: no warning first
    with np.errstate(over="ignore", invalid="ignore"):
        return c * k**p if kind == "lambda" else c * k ** (-p)


@dataclass(frozen=True)
class DiagonalModel:
    """Diagonal generator, fractional exponent and coefficient families.

    Carries the materialised arrays for the truncation plus the rule names
    so that t->0 divergence checks can extend the series beyond it.
    """

    lambdas: np.ndarray
    delta: float
    kappa: np.ndarray
    f: np.ndarray
    shape_name: str = "tanh"
    lambda_rule: str | None = None
    kappa_rule: str | None = None
    f_rule: str | None = None
    m: int | None = None
    name: str = "custom"

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        kap = np.asarray(self.kappa, dtype=float)
        f = np.asarray(self.f, dtype=float)
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "kappa", kap)
        object.__setattr__(self, "f", f)
        if lam.ndim != 1 or lam.size < 1:
            raise ValueError("lambdas must be a nonempty vector")
        for name, values, key, rule in (("lambdas", lam, "lambda_rule", self.lambda_rule),
                                        ("kappa", kap, "kappa_rule", self.kappa_rule),
                                        ("f", f, "f_rule", self.f_rule)):
            if not np.all(np.isfinite(values)):
                source = "" if rule is None else f" ({key}={rule})"
                raise ValueError(f"{name} must be finite{source}")
        if np.any(lam <= 0.0):
            raise ValueError("eigenvalues lambda_k must be strictly positive")
        if np.any(np.diff(lam) < 0.0):
            raise ValueError("eigenvalues must be nondecreasing")
        if not 0.0 < self.delta <= 1.0:
            raise ValueError(f"delta must lie in (0, 1], got {self.delta}")
        if kap.shape != lam.shape or f.shape != lam.shape:
            raise ValueError("kappa and f must have the same length as lambdas")
        if np.any(kap < 0.0) or np.any(f < 0.0):
            raise ValueError("coefficient amplitudes must be nonnegative")
        if self.shape_name not in SHAPES:
            raise ValueError(f"unknown shape {self.shape_name!r}; options: {sorted(SHAPES)}")

    @property
    def n(self) -> int:
        return self.lambdas.size

    @property
    def noise_dim(self) -> int:
        return self.m if self.m is not None else self.n

    @property
    def shape_fn(self) -> Callable[[np.ndarray], np.ndarray]:
        return SHAPES[self.shape_name]

    def drift(self, x: np.ndarray) -> np.ndarray:
        """F(x), coordinatewise f_k * s(x_k)."""
        return self.f * self.shape_fn(x)

    def diffusion_diagonal(self, x: np.ndarray) -> np.ndarray:
        """Diagonal entries of G(x) (length n; zero-padded beyond min(n, m))."""
        return self.kappa * self.shape_fn(x)

    def lipschitz_constants(self) -> tuple[float, float]:
        """(C_F, C_G): Lipschitz constants at t=0 for a 1-Lipschitz shape."""
        lip = 1.0 if self.shape_name == "tanh" else 0.0
        return lip * float(self.f.max()), lip * float(self.kappa.max())

    def plain_bound_M0(self) -> float:
        """Plain-norm uniform bound: max of sqrt(sum f^2) and sqrt(sum kappa^2)."""
        if self.shape_name == "zero":
            return 0.0
        return max(float(np.linalg.norm(self.f)), float(np.linalg.norm(self.kappa)))

    def holder_constants(self) -> tuple[float, float]:
        """(c_F, c_G) = (C_F v M0, C_G v M0) entering the contraction constant."""
        c_f, c_g = self.lipschitz_constants()
        m0 = self.plain_bound_M0()
        return max(c_f, m0), max(c_g, m0)


def make_model(
    n: int,
    lambda_rule: str = "dirichlet",
    delta: float = 0.25,
    kappa_rule: str = "power:1:1.5",
    f_rule: str = "power:1:1.5",
    shape: str = "tanh",
    m: int | None = None,
    name: str = "custom",
) -> DiagonalModel:
    k = np.arange(1, n + 1, dtype=float)
    return DiagonalModel(
        lambdas=_rule_values(lambda_rule, k, "lambda"),
        delta=delta,
        kappa=_rule_values(kappa_rule, k, "kappa"),
        f=_rule_values(f_rule, k, "f"),
        shape_name=shape,
        lambda_rule=lambda_rule,
        kappa_rule=kappa_rule,
        f_rule=f_rule,
        m=m,
        name=name,
    )


def heat_preset(n: int = 8, m: int | None = None) -> DiagonalModel:
    """Default preset: Dirichlet heat semigroup on (0,1) with tanh coefficients.

    lambda_k = pi^2 k^2, delta = 0.25, kappa_k = f_k = k^(-1.5).  Satisfies
    the structural assumptions with margin; the sector condition holds
    structurally for any positive diagonal generator (recorded, not
    computed).
    """
    return make_model(n=n, m=m, name="heat")


# model-file key -> caster; make_model supplies the default of every key a file omits
_MODEL_KEYS = {"n": int, "m": int, "lambda_rule": str, "delta": float, "kappa_rule": str,
               "f_rule": str, "shape": str, "name": str}


def parse_model_config(text: str) -> DiagonalModel:
    """Parse a flat key=value model configuration (documented keys only)."""
    values = parse_key_values(text, _MODEL_KEYS, "model")
    if "n" not in values:
        raise ValueError("model config must set n")
    return make_model(**{key: _MODEL_KEYS[key](value) for key, value in values.items()})


def norm_continuity_constant(delta: float) -> float:
    """C = sup_{y>0} (1 - e^-y) y^-delta, attained at the root of y = delta*(e^y - 1).

    For delta < 1 the stationary equation reads phi(y) = y - log1p(y/delta) = 0
    with phi convex, phi(0) = 0 and phi'(0) < 0.  Newton's method started at
    y = 2*log1p(1/delta), where phi >= 0, decreases monotonically to the
    positive root and stops once a step no longer decreases y.
    """
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    if delta == 1.0:
        return 1.0  # (1-e^-y)/y decreases from its y->0 limit 1
    y = 2.0 * math.log1p(1.0 / delta)
    for _ in range(100):  # at most 53 steps, taken as delta -> 1 where the root -> 0
        step = (y - math.log1p(y / delta)) * (y + delta) / (y - (1.0 - delta))
        if not step > 0.0:
            break
        y -= step
    return -math.expm1(-y) * y**-delta


def check_norm_continuity(model: DiagonalModel, delta: float, t_grid) -> dict:
    """Verify ||S(t) - Id|| on the fractional domain is <= C t^delta.

    The operator norm for the diagonal model is max_k (1 - e^(-lambda_k t))
    lambda_k^(-delta); the ratio against C t^delta is 1 at most up to the
    rounding of C.  Returns {"worst_ratio"}, the largest ratio over the grid.
    """
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid < 0.0):
        raise ValueError("t_grid must be nonnegative")
    c_bound = norm_continuity_constant(delta)
    lam = model.lambdas
    op_norms = (-np.expm1(-lam * t_grid[:, None]) * lam ** (-delta)).max(axis=1)
    positive = t_grid > 0.0
    ratios = np.zeros(t_grid.size)
    ratios[positive] = op_norms[positive] / (c_bound * t_grid[positive] ** delta)
    return {"worst_ratio": float(ratios.max()) if ratios.size else 0.0}


def _a2_envelope(model: DiagonalModel, t_refine: np.ndarray) -> np.ndarray:
    """Upper envelope (|s| <= 1) of the A2 series at each time of t_refine, extended by rules.

    The rules extend the series far enough that exp(-2 lambda_k t) has
    decayed at the smallest t; each term is evaluated once, block by block,
    and summed for every t.
    """
    rules = {"lambda": model.lambda_rule, "kappa": model.kappa_rule, "f": model.f_rule}

    def coefficients(block: range) -> tuple[np.ndarray, ...]:
        if None in rules.values():
            return model.lambdas[block], model.kappa[block], model.f[block]
        k = np.arange(block.start + 1, block.stop + 1, dtype=float)
        return tuple(_rule_values(rule, k, kind) for kind, rule in rules.items())

    size = model.n
    while None not in rules.values() and size <= 2_000_000:
        if 2.0 * coefficients(range(size - 1, size))[0][0] * t_refine.min() > 50.0:
            break
        size *= 4
    sums = np.zeros((2, t_refine.size))
    # per series index, float64s: four per t (exponential, weight, weighted square, and the
    # last block's weight) and the index, coefficients and their temporaries (traced: 47 to
    # 56 at 12 t)
    for block in _blocks(size, 8 * (4 * t_refine.size + 12)):
        lam, kap, f = coefficients(block)
        w = lam ** (2.0 * model.delta) * np.exp(-2.0 * lam * t_refine[:, None])
        for row, coef in zip(sums, (kap, f)):
            row += (w * coef**2).sum(axis=1)
    return np.sqrt(sums.max(axis=0))


_A2_DIVERGENCE_FACTOR = 100.0  # envelope growth over the refining t-grid that flags divergence


def check_A2(model: DiagonalModel, t_grid, trial_points) -> dict:
    """Estimate the fractional-domain uniform bound M0 and flag t->0 divergence.

    Reports the empirical maximum of the drift/diffusion fractional norms
    over ``t_grid x trial_points`` plus the rule-extended series envelope
    on a refining t-grid; flagged divergent when the envelope keeps growing
    past ``_A2_DIVERGENCE_FACTOR`` times its value at the largest refining t.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid <= 0.0):
        raise ValueError("A2 is a bound over t in (0, T]; t_grid must be positive")
    trial_points = np.atleast_2d(np.asarray(trial_points, dtype=float))
    lam = model.lambdas
    t_refine = float(t_grid.min()) * 4.0 ** -np.arange(0, 12, dtype=float)
    # a series whose squares overflow gives inf or nan, which flags it divergent: no warning
    with np.errstate(over="ignore", invalid="ignore"):
        # weights (T, 1, n) against squared coefficients (P, n): one sum per (t, x)
        weights = lam ** (2.0 * model.delta) * np.exp(-2.0 * lam * t_grid[:, None, None])
        m0 = max(
            float(np.sqrt((weights * coef(trial_points) ** 2).sum(axis=-1)).max(initial=0.0))
            for coef in (model.drift, model.diffusion_diagonal)
        )
        envelope = _a2_envelope(model, t_refine)
        growing = bool(np.all(np.diff(envelope) > 0.0))
    finite = envelope[np.isfinite(envelope)]
    divergent = bool(growing and envelope[-1] > _A2_DIVERGENCE_FACTOR * envelope[0])
    return {
        "M0": m0,
        "series_envelope_sup": float(finite.max()) if finite.size else math.inf,
        "divergent": divergent or finite.size < envelope.size,
    }


def check_A3(model: DiagonalModel, point_pairs, t_grid=(0.0,)) -> dict:
    """Empirical Lipschitz estimates for S(t)F and S(t)G over point pairs.

    For the diagonal model with a 1-Lipschitz shape the true constants are
    bounded by max_k f_k and max_k kappa_k; the estimates approach them
    from below.
    """
    damp = np.exp(-model.lambdas * np.asarray(t_grid, dtype=float)[:, None])
    pairs = np.asarray(point_pairs, dtype=float)
    x, y = pairs[:, 0], pairs[:, 1]
    dist = np.linalg.norm(x - y, axis=1)
    if np.any(dist == 0.0):
        raise ValueError("point pairs must be distinct")

    def estimate(coef):
        # (P, T) ratios of the damped coefficient distance over the point distance; a
        # distance whose squares overflow reads inf, above any bound, with no warning
        diff = (coef(x) - coef(y))[:, None] * damp
        with np.errstate(over="ignore"):
            return float((np.linalg.norm(diff, axis=2) / dist[:, None]).max(initial=0.0))

    c_f_hat, c_g_hat = estimate(model.drift), estimate(model.diffusion_diagonal)
    bound_f, bound_g = model.lipschitz_constants()
    return {"C_F": c_f_hat, "C_G": c_g_hat, "bound_C_F": bound_f, "bound_C_G": bound_g}
