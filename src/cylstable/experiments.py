"""Monte-Carlo and deterministic verification harness.

Each experiment is a pure function of (parameters, master seed): replica
streams are derived with counter-based tags, chunk sizes are fixed
constants, and replicas and chunks are reduced in index order, so a rerun
reproduces every report bit for bit.

Verdict policy: tail plateaus are judged against the constant-free limit
identity (the Levy mass outside the unit ball); the inequality-shaped
claims are verified structurally (boundedness, plateau flatness, tail
index), since their universal constant is not computable.  Identities of
the discrete arithmetic are pinned by tests, not re-checked on every run:
the bit-exact power-of-two homogeneity of the sups, and so of the moment
ratios and of the tail table at rescaled radii, and the unique fixed point
of the causal Picard map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

import numpy as np

from .reporting import RunFailed
from .rng import (TAG_ALT_NOISE, TAG_BOOTSTRAP, TAG_GOF, TAG_REPLICA, TAG_TRIPLES,
                  _blocks, substream)
from .sampling import AlphaParams, _chunked_isotropic, _isotropic_blocks, _noise_increments

if TYPE_CHECKING:  # annotations only; each experiment imports the solver modules it calls
    from .hilbert import DiagonalModel
    from .integral import StepIntegrand
    from .picard import SolverConfig

__all__ = [
    "HypothesisFailed",
    "Verdict",
    "ExperimentReport",
    "tail_experiment",
    "moment_experiment",
    "picard_convergence_experiment",
    "uniqueness_experiment",
    "willet_wong_check",
    "char_function_test",
    "gof_test_vectors",
    "random_hypothesis_triples",
    "isotropic_gof_report",
]

_MIN_EXCEEDANCES = 50  # a radius with fewer is not judged
_MIN_RADII = 3  # fewer judged radii make the tail experiment inconclusive
# tail tolerances: plateau max/min over the top half, level error as a share of the Levy
# target (plus 3 SE), and the log-log slope's distance from -alpha
_FLATNESS_MAX, _LEVEL_FRAC, _SLOPE_TOL = 1.5, 0.15, 0.1


class HypothesisFailed(RunFailed):
    """The input triple violates the integral-inequality hypothesis."""


@dataclass
class Verdict:
    name: str
    passed: bool
    threshold: str
    observed: str


@dataclass
class ExperimentReport:
    """Named tables plus pass/fail verdicts, reproducible from (name, params, seed)."""

    name: str
    parameters: dict
    seed: int
    tables: dict[str, dict[str, np.ndarray]] = field(default_factory=dict)
    verdicts: list[Verdict] = field(default_factory=list, init=False)
    notes: list[str] = field(default_factory=list, init=False)
    inconclusive: bool = field(default=False, init=False)

    @property
    def passed(self) -> bool:
        return not self.inconclusive and all(v.passed for v in self.verdicts)

    def add_verdict(self, name: str, passed: bool, threshold, observed) -> None:
        self.verdicts.append(Verdict(name, bool(passed), str(threshold), str(observed)))


def _sup_integral_norms(
    integrand: StepIntegrand, alpha: float, n_samples: int, *name: int
) -> Iterator[np.ndarray]:
    """sup_k ||I(t_k)|| over n_samples independent noise paths, in consecutive blocks.

    Path r's increments are the rows of sample r of
    :func:`sampling._chunked_isotropic` named ``name`` (one row a step); every
    value is per path, so the blocks do not show in the sups.
    """
    n, m = integrand.values.shape[1:]
    dts = np.diff(integrand.grid)
    steps = integrand.steps
    scale = dts[:, None] ** (1.0 / alpha)
    # float64 temporaries per step of a path: about 10 for the subordinator, 9 per noise
    # coordinate (Gaussian, product, increment, einsum's operands) and 3 per state coordinate
    # (the einsum output and its buffers) (traced at n, m = 1, 1; 3, 2; 3, 3; 16, 1; 1, 8 and
    # 1 or 16 steps: 93% of the stated bytes at most)
    for rows in _chunked_isotropic(alpha, n_samples, (steps, m), 8 * steps * (10 + 9 * m + 3 * n),
                                   *name):
        increments = scale[None] * rows
        # coordinate-major (steps, n, paths), so that each reduction runs along the paths
        paths = np.einsum("knm,rkm->knr", integrand.values, increments)
        if steps > 1:  # a one-step integrand is its own partial sum
            np.cumsum(paths, axis=0, out=paths)
        squares = np.add.reduce(np.square(paths, out=paths), axis=1)
        # sqrt is correctly rounded and monotone: the root of the sup of the squared
        # norms is the sup of the norms, bit for bit
        yield np.sqrt(squares.max(axis=0))


def _exceedance_counts(blocks: Iterable[np.ndarray], r_grid: np.ndarray) -> np.ndarray:
    """Per radius r, the number of values > r over all blocks.

    Each block is sorted once and searched for every radius (and for inf,
    whose count leaves NaN out as ``>`` does), so no (block, radii) matrix
    is built.
    """
    counts = np.zeros(r_grid.size, dtype=np.int64)
    bounds = np.append(r_grid, np.inf)
    for block in blocks:
        at_most = np.searchsorted(np.sort(block), bounds, side="right")
        counts += at_most[-1] - at_most[:-1]
    return counts


def _tail_table(blocks: Iterable[np.ndarray], n: int, alpha: float,
                r_grid: np.ndarray) -> dict[str, np.ndarray]:
    """Exceedance table of the n values in ``blocks`` at the radii ``r_grid``."""
    from .integral import _binomial_se

    p_hat = _exceedance_counts(blocks, r_grid) / n  # (values > r).mean() for n < 2**53
    se = _binomial_se(p_hat, n)
    return {
        "r": r_grid,
        "p_hat": p_hat,
        "stderr": se,
        "plateau": r_grid**alpha * p_hat,
        "plateau_se": r_grid**alpha * se,
    }


def _tail_verdicts(report: ExperimentReport, table: dict, alpha: float, n_samples: int,
                   target: float | None) -> None:
    """Verdicts on the radii with at least 50 exceedances.

    Fewer than 3 such radii mark the report inconclusive instead.  The
    plateau level is judged only against a ``target``.
    """
    r_grid, p_hat = table["r"], table["p_hat"]
    resolved = p_hat * n_samples >= _MIN_EXCEEDANCES
    if resolved.sum() < _MIN_RADII:
        report.inconclusive = True
        report.notes.append(
            f"under-resolved tail: only {int(resolved.sum())} of {r_grid.size} radii have "
            f">= {_MIN_EXCEEDANCES} exceedances (need {_MIN_RADII})"
        )
        return
    if not resolved.all():
        skipped = ", ".join(f"{r:.6g}" for r in r_grid[~resolved])
        report.notes.append(f"not judged, fewer than {_MIN_EXCEEDANCES} exceedances: r={skipped}")
    judged = np.flatnonzero(resolved)
    plateau_top = table["plateau"][judged[judged.size // 2:]]
    flat = float(plateau_top.max() / plateau_top.min())
    report.add_verdict("plateau_flatness", flat <= _FLATNESS_MAX,
                       f"max/min <= {_FLATNESS_MAX} (top half)", f"{flat:.4f}")

    level = float(table["plateau"][judged].mean())
    level_se = float(table["plateau_se"][judged].mean())  # conservative for correlated radii
    if target is not None:
        tol = _LEVEL_FRAC * target + 3.0 * level_se
        report.add_verdict(
            "plateau_level",
            abs(level - target) <= tol,
            f"|level - {target:.6g}| <= {tol:.3g} ({_LEVEL_FRAC:.0%} + 3 SE)",
            f"{level:.6g}",
        )
    slope = float(np.polyfit(np.log(r_grid[judged]), np.log(p_hat[judged]), 1)[0])
    report.add_verdict(
        "tail_slope", abs(slope + alpha) <= _SLOPE_TOL,
        f"slope = -{alpha} +- {_SLOPE_TOL}", f"{slope:.4f}"
    )


def tail_experiment(
    psi,
    alpha: float,
    t: float = 1.0,
    n_samples: int = 100_000,
    r_grid=None,
    seed: int = 0,
) -> ExperimentReport:
    """Tail plateau of a radonified variable, or of the running-sup integral.

    With an operator matrix: verifies the constant-free limit identity —
    r^alpha P(||psi(L(t))|| > r) plateaus at t times the Levy mass outside
    the unit ball — plus flatness and the log-log tail index.  With a
    :class:`StepIntegrand`: the sup-over-grid statistic, whose plateau must
    be flat with tail index alpha; ``t`` is read only with an operator
    matrix.  The integral is linear in the integrand, so the table of c*psi
    at radii c*r is that of psi at r, which tests pin bit for bit.
    """
    from .constants import levy_tail_mass
    from .hilbert import as_matrix
    from .integral import StepIntegrand

    AlphaParams(alpha)
    is_integrand = isinstance(psi, StepIntegrand)
    if r_grid is None:
        r_grid = np.geomspace(10.0, 100.0, 13)
    r_grid = np.asarray(r_grid, dtype=float)
    if r_grid.size < 2:
        raise ValueError("r_grid needs at least two radii")
    if not (np.all(np.isfinite(r_grid)) and r_grid[0] > 0.0 and np.all(np.diff(r_grid) > 0.0)):
        raise ValueError("radii must be finite, positive and strictly increasing, "
                         f"got {r_grid[0]:g} ... {r_grid[-1]:g}")
    if n_samples < 1_000:
        raise ValueError("n_samples is too small to resolve any tail")

    report = ExperimentReport(
        name="tail_integral" if is_integrand else "tail_radonified",
        parameters={"alpha": alpha, "t": t, "N": n_samples,
                    "r_min": float(r_grid[0]), "r_max": float(r_grid[-1])},
        seed=seed,
    )
    if is_integrand:
        del report.parameters["t"]  # the sup over the integrand's own grid reads no t
        integrand, target = psi, None
    else:
        if not 0.0 < t < math.inf:
            raise ValueError(f"t must be positive and finite, got {t}")
        entries = as_matrix(psi)
        # psi(L(t)) is the one-cell integral of psi on [0, t]: its sup is its norm
        integrand = StepIntegrand(np.array([0.0, t]), entries[None])
        target = t * levy_tail_mass(np.linalg.svd(entries, compute_uv=False), alpha)
    table = _tail_table(_sup_integral_norms(integrand, alpha, n_samples, seed, TAG_REPLICA),
                        n_samples, alpha, r_grid)
    report.tables["tail"] = table
    if is_integrand or np.any(integrand.values):
        _tail_verdicts(report, table, alpha, n_samples, target)
    else:
        report.add_verdict("plateau_level", bool(np.all(table["p_hat"] == 0.0)),
                           "all exceedances zero for psi = 0", "zero operator")
    return report


_BOOTSTRAP = 200  # resamples behind each moment's 95% confidence interval
# resample indices drawn at a time: 125 KiB, below glibc's 128 KiB mmap threshold, so a draw
# is served from the heap whatever the allocations before it left
_INDEX_DRAW = 16_000


def _percentiles(values: np.ndarray, q: Sequence[float]) -> np.ndarray:
    """``np.percentile(values, q)`` (its default 'linear' method) of 1-d values without NaN.

    The same operations on a sorted copy: numpy's own quantile code calls
    ``np.unique``, whose import of ``numpy.ma`` costs a cold run about 13 ms.
    """
    ordered = np.sort(values)
    virtual = (ordered.size - 1) * np.true_divide(q, 100)
    below = np.floor(virtual)
    below[virtual >= ordered.size - 1] = -1  # at the top, numpy takes the last value twice
    below = below.astype(np.intp)
    lo, hi = ordered[below], ordered[np.where(below < 0, below, below + 1)]
    gamma = virtual - below
    diff = hi - lo
    out = lo + diff * gamma
    np.subtract(hi, diff * (1 - gamma), out=out, where=gamma >= 0.5)
    return out


def moment_experiment(
    integrand: StepIntegrand,
    alpha: float,
    p_list: Sequence[float],
    n_samples: int,
    seed: int = 0,
) -> ExperimentReport:
    """Moments of the running-sup integral below the stability index.

    Estimates E[sup_k ||I(t_k)||^p] for each p from one draw of 2N sups,
    with bootstrap confidence intervals, and logs the normalised ratio
    against the c=1 moment constant (no pass threshold: the universal
    constant is not computable).  Estimate stability between N and 2N
    samples is judged only for p < alpha/2, where ||sup I||^p has finite
    variance; beyond it the relative change fluctuates on the scale
    N^(p/alpha - 1) with heavy tails, so it is noted without a threshold.  A
    run with no judged p says so in a note.
    """
    from .constants import chain_constants

    AlphaParams(alpha)
    if n_samples < 1:
        raise ValueError(f"N must be >= 1, got {n_samples}")
    p_list = [float(p) for p in p_list]
    if any(p <= 0.0 or p >= alpha for p in p_list):
        raise ValueError(f"all p must lie in (0, alpha)=(0, {alpha})")
    report = ExperimentReport(
        name="moment",
        parameters={"alpha": alpha, "N": n_samples, "p_list": tuple(p_list)},
        seed=seed,
    )
    for p in p_list:
        if p > alpha - 0.1:
            report.notes.append(f"p={p} is close to alpha; expect slow Monte-Carlo convergence")

    sups = np.concatenate([*_sup_integral_norms(integrand, alpha, 2 * n_samples, seed,
                                                TAG_REPLICA)])
    denom = integrand.alpha_scale(alpha)

    powered = [sups**p for p in p_list]
    rng_boot = substream(seed, TAG_REPLICA, TAG_BOOTSTRAP)
    # one resample index and one gather a run; consecutive draws concatenate to one draw
    index = np.empty(2 * n_samples, dtype=np.int64)
    gather = np.empty(2 * n_samples)
    parts = [range(start, min(start + _INDEX_DRAW, 2 * n_samples))
             for start in range(0, 2 * n_samples, _INDEX_DRAW)]
    # one resample at a time, drawn in the order of one (bootstrap, 2N) draw, and applied to
    # every p
    boots = np.empty((len(p_list), _BOOTSTRAP))
    for b in range(_BOOTSTRAP):
        for part in parts:
            index[part.start:part.stop] = rng_boot.integers(0, 2 * n_samples, size=len(part))
        for i, values in enumerate(powered):
            # "clip" (a no-op here) writes to gather directly; "raise" would use a new buffer
            boots[i, b] = values.take(index, out=gather, mode="clip").mean()
    rows = {"p": [], "moment_N": [], "moment_2N": [], "ci_lo": [], "ci_hi": [], "ratio": [],
            "C_alpha_p": []}
    for p, values, resampled in zip(p_list, powered, boots):
        est_n = float(values[:n_samples].mean())
        est_2n = float(values.mean())
        lo, hi = _percentiles(resampled, [2.5, 97.5])
        ratio = float(np.mean((sups / denom) ** p)) if denom > 0.0 else 0.0
        rows["p"].append(p)
        rows["moment_N"].append(est_n)
        rows["moment_2N"].append(est_2n)
        rows["ci_lo"].append(float(lo))
        rows["ci_hi"].append(float(hi))
        rows["ratio"].append(ratio)
        rows["C_alpha_p"].append(chain_constants(alpha, p)["C"])
        rel = abs(est_2n - est_n) / est_2n if est_2n > 0.0 else 0.0
        if p < alpha / 2.0:
            report.add_verdict(
                f"stability_p={p:g}", rel < 0.20, "relative change N -> 2N < 20%", f"{rel:.4f}"
            )
        else:
            report.notes.append(f"stability_p={p:g} not judged (p >= alpha/2, infinite "
                                f"variance): relative change N -> 2N {rel:.4f}")
    report.tables["moments"] = {k: np.asarray(v) for k, v in rows.items()}
    if not report.verdicts:
        report.notes.append(f"no stability verdict: every p is at least alpha/2 = "
                            f"{alpha / 2.0:g}, so this run judges nothing")
    return report


def _picard_diffs(model: DiagonalModel, config: SolverConfig, kernel, seed: int, chunk: range,
                  n_iters: int) -> np.ndarray:
    """||X_n(T) - X_{n-1}(T)|| of the replicas in chunk, n = 1..n_iters: shape (R, n_iters)."""
    from .picard import _driven_diagonal, _sweep

    replicas = np.arange(chunk.start, chunk.stop)
    driven = _driven_diagonal(model, _noise_increments(config.alpha, config.noise_dim,
                                                       config.grid(), seed, TAG_REPLICA, replicas))
    x0 = config.initial_state()
    x0s = np.broadcast_to(x0, (len(chunk), model.n))
    prev = np.broadcast_to(kernel.decay * x0, (len(chunk), *kernel.decay.shape))  # S(t_k) x0
    diffs = np.empty((len(chunk), n_iters))
    for it in range(n_iters):
        new = _sweep(model, prev, driven, x0s, kernel)
        diffs[:, it] = np.linalg.norm(new[:, -1] - prev[:, -1], axis=-1)
        prev = new
    return diffs


def picard_convergence_experiment(
    model: DiagonalModel,
    config: SolverConfig,
    n_iters: int = 8,
    p: float = 1.0,
    replicas: int = 200,
    seed: int = 0,
) -> ExperimentReport:
    """Decay of E||X_n(T) - X_{n-1}(T)||^p across independent noise replicas."""
    from .picard import TOL, _check_dimensions, _kernel, horizon_bounds

    if replicas < 2:
        raise ValueError(f"replicas must be >= 2 for a standard error, got {replicas}")
    if n_iters < 1:
        raise ValueError(f"iters must be >= 1, got {n_iters}")
    if not 0.0 < p < config.alpha:
        raise ValueError(f"p must lie in (0, alpha)=(0, {config.alpha}), got {p}")
    _check_dimensions(model, config)
    bound = horizon_bounds(model, config.alpha)["T_picard"]
    if config.T > bound:
        raise ValueError(
            f"T={config.T} exceeds the admissible iteration bound {bound:.6g}"
        )
    kernel = _kernel(model, config.grid())
    all_diffs = np.empty((replicas, n_iters))
    # a replica's noise draw, or its states, noise and sweep: 64 B per state element, which
    # keeps the 2^14-element batch measured fastest (traced in chunks of ten at M = 200:
    # 58.6 B in the noise draw's Philox passes, 48.3 B in the sweeps; in chunks of two at
    # M = 1000: 59.7 B and 48.2 B)
    for chunk in _blocks(replicas, 64 * (config.M + 1) * model.n):
        all_diffs[chunk] = _picard_diffs(model, config, kernel, seed, chunk, n_iters)
    moments = (all_diffs**p).mean(axis=0)
    ses = (all_diffs**p).std(axis=0, ddof=1) / math.sqrt(replicas)
    # a gap below the certificate bound TOL is rounding noise, and so is a ratio with one
    valid = (all_diffs[:, 1:] >= TOL) & (all_diffs[:, :-1] >= TOL)
    ratios = all_diffs[:, 1:][valid] / all_diffs[:, :-1][valid]
    q_hat = float(ratios.mean()) if ratios.size else 0.0

    report = ExperimentReport(
        name="picard_convergence",
        parameters={"alpha": config.alpha, "T": config.T, "M": config.M, "n": config.n,
                    "m": config.noise_dim, "p": p, "replicas": replicas, "n_iters": n_iters},
        seed=seed,
        tables={"decay": {"n": np.arange(1, n_iters + 1), "moment": moments, "stderr": ses}},
    )
    decreasing = all(
        moments[i + 1] <= moments[i] + 2.0 * math.hypot(ses[i], ses[i + 1])
        for i in range(n_iters - 1)
    )
    report.add_verdict("decreasing", decreasing, "nonincreasing up to 2 SE",
                       np.array2string(moments, precision=3))
    report.add_verdict("final_below_1e-3", moments[-1] < 1e-3, "E||X_n - X_(n-1)(T)||^p < 1e-3",
                       f"{moments[-1]:.3e}")
    report.add_verdict("contraction_ratio", q_hat < 0.9, f"mean gap ratio < 0.9 (gaps >= {TOL:g})",
                       f"{q_hat:.4f}")
    return report


def _uniqueness_distances(model: DiagonalModel, config: SolverConfig, kernel, seed: int,
                          chunk: range, x0_triple: np.ndarray) -> np.ndarray:
    """Sup distances (R, 2) of paths b and c from path a, for the replicas in chunk."""
    from .picard import _certified_pass, _driven_diagonal

    # each replica's shared and fresh noise in one draw, (R, 2, M, m): the rows of its
    # streams under TAG_REPLICA and TAG_ALT_NOISE, for paths (a, b) and c
    replicas = np.arange(chunk.start, chunk.stop)[:, None]
    noise = _noise_increments(config.alpha, config.noise_dim, config.grid(), seed,
                              np.array([TAG_REPLICA, TAG_ALT_NOISE]), replicas)
    driven = _driven_diagonal(model, noise[:, [0, 0, 1]].reshape(-1, *noise.shape[2:]))
    del noise
    states, _ = _certified_pass(model, driven, np.tile(x0_triple, (len(chunk), 1)), kernel)
    states = states.reshape(len(chunk), 3, config.M + 1, -1)
    return np.linalg.norm(states[:, :1] - states[:, 1:], axis=3).max(axis=2)


def uniqueness_experiment(
    model: DiagonalModel,
    config: SolverConfig,
    replicas: int = 100,
    seed: int = 0,
) -> ExperimentReport:
    """Pathwise dependence of the discrete solution on its initial state and noise.

    Per replica, three paths are solved: the reference, one from a
    perturbed initial state on the same noise, and one on fresh noise.
    Their sup distances from the reference are tabulated and noted without
    a threshold: uniqueness is claimed only for equal initial conditions,
    and that the fresh noise differs from the reference noise is a property
    of the stream names, pinned by tests.  The discrete fixed point itself
    is unique for any Picard seed (see :mod:`cylstable.picard`), so no
    second seed is solved.
    """
    from .picard import _check_dimensions, _kernel, binding_time_bound

    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    _check_dimensions(model, config)
    bound = binding_time_bound(model, config.alpha)
    if config.T > bound:
        raise ValueError(f"T={config.T} exceeds the admissible uniqueness bound {bound:.6g}")
    x0 = config.initial_state()
    x0_alt = x0.copy()
    x0_alt[0] += 0.1
    # per replica, three paths (a, b, c): reference, perturbed x0 and fresh noise, both
    # compared with path a
    x0_triple = np.stack([x0, x0_alt, x0])

    kernel = _kernel(model, config.grid())
    rows = np.empty((replicas, 2))
    # three Picard paths per replica, 66 B per state element: the noise draw, then each path's
    # noise with the causal pass's 32 B, or with its states and the sweep's 32 B (traced in
    # chunks of three at M = 200: 53.6 B in the draw, 48.2 B after it; one replica a chunk at
    # M = 1000: 39.7 B in the draw, 48.2 B after it)
    for chunk in _blocks(replicas, 66 * 3 * (config.M + 1) * model.n):
        rows[chunk] = _uniqueness_distances(model, config, kernel, seed, chunk, x0_triple)
    x0_dists, noise_dists = rows.T
    report = ExperimentReport(
        name="uniqueness",
        parameters={"alpha": config.alpha, "T": config.T, "M": config.M, "n": config.n,
                    "m": config.noise_dim, "replicas": replicas},
        seed=seed,
        tables={"distances": {"replica": np.arange(replicas), "x0_perturbed": x0_dists,
                              "fresh_noise": noise_dists}},
    )
    report.notes.append(
        f"x0-perturbed distance (no threshold; uniqueness asserted only on equal x0): "
        f"median={_median(x0_dists):.3e} max={x0_dists.max():.3e}"
    )
    report.notes.append(
        f"fresh-noise distance (no threshold; distinct noise streams are pinned by tests): "
        f"median={_median(noise_dists):.3e} min={noise_dists.min():.3e}"
    )
    return report


def _median(values: np.ndarray) -> float:
    """``np.median(values)`` of 1-d values without NaN: the mean of the middle sorted values.

    numpy's own median imports ``numpy.ma``, about 13 ms of a cold run.
    """
    ordered = np.sort(values)
    return float(ordered[(ordered.size - 1) // 2:ordered.size // 2 + 1].mean())


def _cumulative_trapezoid(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of y over t, starting at 0.

    The expression ``scipy.integrate.cumulative_trapezoid(y, t, initial=0.0)``
    evaluates, so the result is bit-identical without importing scipy.integrate.
    """
    return np.concatenate([[0.0], np.cumsum(np.diff(t) * (y[1:] + y[:-1]) / 2.0)])


_WW_HYP_TOL = 1e-8  # largest tolerated violation of the hypothesis inequality


def willet_wong_check(u, v, w, p: float, t=None) -> dict:
    """Check the nonlinear integral-inequality bound on a uniform grid.

    Hypothesis (validated first, trapezoidal quadrature):
        u(t) <= int_0^t v u ds + int_0^t w u^p ds   for all grid t.
    Conclusion, with q = 1 - p:
        u(t) exp(-int v) <= (q int_0^t w exp(-q int v) ds)^(1/q).

    Returns {"holds", "margin"} with margin the minimum of RHS - LHS over
    the grid points after t_0, which holds down to -1e-6.  (At t_0 the RHS is
    0 and the hypothesis bounds u(t_0) by 1e-8, so that point would pin every
    margin to about 0.)  For p > 1 the zero-constant bound degenerates
    (negative base to a real power); the check is then vacuous and reports
    margin = +inf.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    if not (u.shape == v.shape == w.shape) or u.ndim != 1 or u.size < 2:
        raise ValueError("u, v, w must be equal-length 1-d grid functions")
    if np.any(u < 0.0) or np.any(v < 0.0) or np.any(w < 0.0):
        raise ValueError("u, v, w must be nonnegative")
    if p < 0.0 or p == 1.0:
        raise ValueError(f"p must be >= 0 and != 1, got {p}")
    if t is None:
        t = np.linspace(0.0, 1.0, u.size)
    t = np.asarray(t, dtype=float)
    dts = np.diff(t)
    # last-bit jitter from linspace is fine; real non-uniformity is not
    if not np.allclose(dts, dts.mean(), rtol=1e-9, atol=1e-12 * abs(t[-1] - t[0])):
        raise ValueError("grid must be uniform")

    hyp_rhs = _cumulative_trapezoid(v * u, t) + _cumulative_trapezoid(w * u**p, t)
    violation = float((u - hyp_rhs).max())
    if violation > _WW_HYP_TOL:
        raise HypothesisFailed(
            f"hypothesis inequality violated by {violation:.3e} (tolerance {_WW_HYP_TOL:.1e})"
        )

    if p > 1.0:  # the zero-constant bound is vacuous: the base of its power is negative
        return {"holds": True, "margin": math.inf}

    q = 1.0 - p
    big_v = _cumulative_trapezoid(v, t)
    lhs = u * np.exp(-big_v)
    rhs = (q * _cumulative_trapezoid(w * np.exp(-q * big_v), t)) ** (1.0 / q)
    margin = float((rhs - lhs)[1:].min())
    return {"holds": margin >= -1e-6, "margin": margin}


def random_hypothesis_triples(count: int, grid_points: int, seed: int) -> Iterator[tuple]:
    """Yield ``count`` (t, u, v, w, p) triples satisfying the discrete hypothesis on [0, 1].

    Starts from the closed-form equality solution of the comparison
    equation u' = v u + w u^p with u(0) = 0, scales it strictly inside the
    hypothesis (theta in [0.2, 0.8]) and keeps only candidates that satisfy
    the discrete trapezoid inequality: near t = 0 the quadrature error can
    exceed the analytic slack, so candidates are rejection-filtered rather
    than trusted.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = substream(seed, TAG_TRIPLES, grid_points)
    t = np.linspace(0.0, 1.0, grid_points + 1)
    kept = attempts = 0
    while kept < count:
        attempts += 1
        if attempts > 50 * count:
            raise RuntimeError("triple generation rejected too many candidates")
        p = float(rng.uniform(0.3, 0.8))
        q = 1.0 - p
        v = rng.uniform(0.0, 2.0) * (1.0 + np.sin(rng.uniform(0, 6) * t + rng.uniform(0, 6))) / 2
        w = rng.uniform(0.2, 2.0) * (1.0 + np.cos(rng.uniform(0, 6) * t + rng.uniform(0, 6))) / 2
        big_v = _cumulative_trapezoid(v, t)
        equality = np.exp(big_v) * (
            q * _cumulative_trapezoid(w * np.exp(-q * big_v), t)
        ) ** (1.0 / q)
        u = float(rng.uniform(0.2, 0.8)) * equality
        hyp_rhs = _cumulative_trapezoid(v * u, t) + _cumulative_trapezoid(w * u**p, t)
        if np.all(u <= hyp_rhs + 1e-8):
            kept += 1
            yield t, u, v, w, p


def gof_test_vectors(n: int, count: int = 10) -> np.ndarray:
    """Deterministic test directions with norms spread over [0.4, 1.4]."""
    rng = substream(0, TAG_GOF, n, count)
    raw = rng.standard_normal((count, n))
    unit = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    radii = np.linspace(0.4, 1.4, count)
    return radii[:, None] * unit


def _cf_running_sums(sums: np.ndarray, block: np.ndarray, u_grid: np.ndarray) -> np.ndarray:
    """``sums`` plus exp(i <u, x>) of every row x of the block, for each u of ``u_grid``.

    Terms are added strictly in row order (the running sums join the first
    row's terms, then a cumulative sum runs along the rows), so the totals do
    not depend on how the rows are split into blocks.  The phases are formed
    one coordinate at a time: a BLAS product rounds a one-row block differently.
    """
    coords = block.T
    phases = u_grid[:, :1] * coords[0]
    for j in range(1, coords.shape[0]):
        phases += u_grid[:, j:j + 1] * coords[j]
    terms = np.multiply(phases, 1j)
    np.exp(terms, out=terms)
    terms[:, 0] += sums
    return np.cumsum(terms, axis=1, out=terms)[:, -1].copy()


def char_function_test(
    samples: Iterable[np.ndarray],
    target: Callable[[np.ndarray], complex],
    u_grid: np.ndarray,
) -> dict:
    """Max deviation of the empirical characteristic function on a grid.

    ``samples`` is an iterable of (rows, n) blocks of the N samples, which
    are reduced one at a time.  Passes below the threshold 3/sqrt(N) + 0.01.
    """
    u_grid = np.atleast_2d(np.asarray(u_grid, dtype=float))
    if u_grid.size == 0:
        raise ValueError("u_grid must not be empty")
    sums = np.zeros(u_grid.shape[0], dtype=complex)
    n_samples = 0
    for block in samples:
        block = np.atleast_2d(np.asarray(block, dtype=float))
        if block.shape[1] != u_grid.shape[1]:
            raise ValueError(f"samples have dimension {block.shape[1]}, "
                             f"the test vectors {u_grid.shape[1]}")
        if block.shape[0]:
            sums = _cf_running_sums(sums, block, u_grid)
            n_samples += block.shape[0]
    if n_samples == 0:
        raise ValueError("the characteristic-function test needs at least one sample")
    threshold = 3.0 / math.sqrt(n_samples) + 0.01
    devs = np.array([abs(total / n_samples - target(u)) for total, u in zip(sums, u_grid)])
    return {
        "max_abs_dev": float(devs.max()),
        "devs": devs,
        "threshold": threshold,
        "passed": bool(devs.max() < threshold),
        "n_samples": n_samples,
    }


def isotropic_gof_report(alpha: float, n: int, n_samples: int, seed: int,
                         count: int = 10) -> ExperimentReport:
    """Characteristic-function goodness of fit for the isotropic sampler."""
    if n_samples < 1:
        raise ValueError(f"N must be >= 1, got {n_samples}")
    # per row, beyond the sampler's scratch: per test vector a phase and a complex term, 32 B
    # with numpy's casting buffers (traced: about 29 B a vector at 100 vectors)
    blocks = _isotropic_blocks(alpha, n, seed, n_samples, 32 * count)
    grid = gof_test_vectors(n, count)
    result = char_function_test(blocks, lambda u: math.exp(-np.linalg.norm(u) ** alpha), grid)
    report = ExperimentReport(
        name="gof_isotropic",
        parameters={"alpha": alpha, "n": n, "N": n_samples, "vectors": count},
        seed=seed,
        tables={"gof": {"norm_u": np.linalg.norm(grid, axis=1), "abs_dev": result["devs"]}},
    )
    report.add_verdict("max_deviation", result["passed"],
                       f"max |ecf - target| < {result['threshold']:.4f}",
                       f"{result['max_abs_dev']:.5f}")
    return report
