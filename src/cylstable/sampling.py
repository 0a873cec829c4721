"""Exact samplers for the stable laws and truncated cylindrical noise paths.

The target laws are fixed by their characteristic functions only:

* scalar symmetric stable with cf exp(-scale^alpha |u|^alpha), via the
  trigonometric transform of a uniform and an exponential;
* totally right-skewed positive stable with Laplace transform exp(-s^beta),
  via the Zolotarev/Kanter transform;
* isotropic vectors with cf exp(-||u||^alpha), via the sub-Gaussian
  representation sqrt(2A)*Z with A positive (alpha/2)-stable (the factor
  was calibrated against the characteristic-function oracle; see tests).

The sub-Gaussian construction gives exact isotropy and, because each grid
row shares one subordinator draw across coordinates, pathwise projective
consistency: :func:`generate_noise_path` at the same seed and grid with
more coordinates m' > m returns the m-coordinate path as its first m
columns, bit for bit.  Each row's stream draws the shared subordinator
first and then one uniform per coordinate in column order, so a longer
block reproduces the shorter one as its prefix.

Isotropic rows are drawn in one of two layouts, each reproducing every
row bit for bit on a rerun with the same seed:

* **Noise rows** (:func:`_noise_increments`: ``noise``, ``solve``, ``glue``,
  ``picard``, ``uniqueness`` and ``integrate``'s path mode) are short
  counter-based streams, one per row, drawn by the integer port
  :func:`rng.open_uniform_rows` with a fixed uniform-consumption layout: 2
  uniforms for the subordinator, then one per Gaussian coordinate through
  the inverse normal CDF :func:`_ndtri`, a numpy port of the Cephes
  rational approximation (S. L. Moshier, *Methods and Programs for
  Mathematical Functions*, 1989), the same one that
  ``scipy.special.ndtri`` evaluates.  The port keeps ``numpy.random`` out
  of these commands: importing it adds 6.2 MiB to a process (26.8 ->
  33.0 MiB), against a cold ``picard`` peak of 31.9 MiB.
* **Monte-Carlo chunks** (``tail``, ``moment``, ``gof``, ``sample --kind
  isotropic`` and ``integrate --refinement-levels``), which load
  ``numpy.random`` anyway, draw each chunk of 2**16 samples from two
  Generator streams, a subordinator stream (2 open uniforms a row) and a
  Gaussian stream whose coordinates are ``standard_normal``, numpy's
  ziggurat (Marsaglia & Tsang, J. Stat. Softw. 2000), about half the cost
  of a uniform and ``_ndtri``.  See :func:`_chunked_isotropic`.

The package runs on numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .rng import (
    TAG_GAUSSIAN,
    TAG_ISOTROPIC,
    TAG_NOISE_ROW,
    TAG_POSITIVE,
    TAG_SCALAR,
    _CHUNK,
    _blocks,
    open_uniform,
    open_uniform_rows,
    substream,
)

__all__ = [
    "AlphaParams",
    "NoisePath",
    "sample_scalar_sas",
    "sample_positive_stable",
    "sample_isotropic",
    "generate_noise_path",
    "noise_csv_lines",
    "noise_path_to_csv",
]


@dataclass(frozen=True)
class AlphaParams:
    """Stability index and scale, convention cf = exp(-scale^alpha |u|^alpha)."""

    alpha: float
    scale: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.alpha < 2.0:
            raise ValueError(f"alpha must lie in (0, 2), got {self.alpha}")
        if not self.scale > 0.0:
            raise ValueError(f"scale must be positive, got {self.scale}")


def _sas_transform(alpha: float, u_angle: np.ndarray, u_exp: np.ndarray) -> np.ndarray:
    """CMS transform: standard symmetric stable from two open uniforms."""
    v = np.pi * (u_angle - 0.5)
    w = -np.log1p(-u_exp)
    return (
        np.sin(alpha * v)
        / np.cos(v) ** (1.0 / alpha)
        * (np.cos(v - alpha * v) / w) ** ((1.0 - alpha) / alpha)
    )


def _positive_stable_transform(beta: float, u_angle: np.ndarray, u_exp: np.ndarray) -> np.ndarray:
    """Kanter transform: positive stable with Laplace transform exp(-s^beta).

    Evaluated in log space: the angular factor spans hundreds of orders of
    magnitude near the endpoints of (0, pi) when beta is close to 1.
    """
    theta = np.pi * u_angle
    w = -np.log1p(-u_exp)
    log_a = (
        beta / (1.0 - beta) * np.log(np.sin(beta * theta))
        + np.log(np.sin((1.0 - beta) * theta))
        - 1.0 / (1.0 - beta) * np.log(np.sin(theta))
    )
    # cap at the double range: for tiny beta the law's extreme quantiles
    # (mass ~1e-15 beyond 1e308) are not representable anyway
    exponent = (1.0 - beta) / beta * (log_a - np.log(w))
    return np.exp(np.clip(exponent, -708.0, 708.0))


def sample_scalar_sas(params: AlphaParams, seed: int, size: int = 1) -> np.ndarray:
    """Draws of the symmetric stable law with cf exp(-scale^alpha |u|^alpha)."""
    rng = substream(seed, TAG_SCALAR)
    u = open_uniform(rng, (2, size))
    return params.scale * _sas_transform(params.alpha, u[0], u[1])


def sample_positive_stable(alpha_half: float, seed: int, size: int = 1) -> np.ndarray:
    """Totally right-skewed positive stable draws, Laplace transform exp(-s^alpha_half)."""
    if not 0.0 < alpha_half < 1.0:
        raise ValueError(f"alpha_half must lie in (0, 1), got {alpha_half}")
    rng = substream(seed, TAG_POSITIVE)
    u = open_uniform(rng, (2, size))
    return _positive_stable_transform(alpha_half, u[0], u[1])


# Cephes ndtri.c: P0/Q0 on the centre |u - 1/2| < 1/2 - exp(-2), P1/Q1 on the tails
# with sqrt(-2 log y) < 8, P2/Q2 beyond (y < exp(-32)).
_S2PI = 2.50662827463100050242E0
_EXP_M2 = 0.13533528323661269189
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
       1.39312609387279679503E1, -1.23916583867381258016E0)
_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
       -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
       4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4)
_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
       1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
       1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)
_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
       2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)
_log = np.log


def _ratio(x: np.ndarray, p: tuple, q: tuple) -> np.ndarray:
    """(x * polevl(x, p)) / p1evl(x, q), in C's left-to-right order.

    ``polevl`` is Horner's scheme from ``p[0]``; ``p1evl`` has an implicit
    leading coefficient 1.
    """
    num = x * p[0]
    num += p[1]
    for c in p[2:]:
        num *= x
        num += c
    den = x + q[0]
    for c in q[1:]:
        den *= x
        den += c
    num *= x
    num /= den
    return num


def _ndtri_block(u: np.ndarray) -> np.ndarray:
    """Each Cephes branch evaluated only on its own elements of the block.

    The centre and tail indices are taken once with ``np.flatnonzero``; each
    formula runs on its gathered elements and is scattered back.  Every
    element sees the operations of its branch alone, so the result equals
    evaluating both branches everywhere and selecting, at half the arithmetic.
    """
    out = np.empty_like(u)
    mid = (u > _EXP_M2) & (u <= 1.0 - _EXP_M2)
    centre = np.flatnonzero(mid)
    c = u[centre] - 0.5
    x = _ratio(c * c, _P0, _Q0)
    x *= c
    x += c
    x *= _S2PI
    out[centre] = x
    # tails: y = u below exp(-2) (result negated), y = 1 - u above 1 - exp(-2)
    tails = np.flatnonzero(~mid)
    v = u[tails]
    x = _log(np.minimum(v, 1.0 - v))
    x *= -2.0
    np.sqrt(x, out=x)
    z = 1.0 / x
    x1 = _ratio(z, _P1, _Q1)
    far = x >= 8.0
    if far.any():
        x1[far] = _ratio(z[far], _P2, _Q2)
    x -= _log(x) / x
    x -= x1
    np.copysign(x, v - 0.5, out=x)
    out[tails] = x
    return out


def _ndtri(u: np.ndarray) -> np.ndarray:
    """Inverse standard normal CDF of open uniforms ``u`` in (0, 1), any shape.

    Cephes ``ndtri`` operation for operation, so it equals
    ``scipy.special.ndtri`` bit for bit wherever ``_log`` equals libm's
    ``log`` (numpy's SIMD ``log`` may differ from it by an ulp).  Only open
    uniforms are valid inputs: 0 and 1 are not mapped to infinities.
    """
    u = np.asarray(u, dtype=float)
    flat = u.ravel()
    out = np.empty(flat.size)
    for block in _blocks(flat.size, 40):  # an element's branch temporaries: about 5 floats
        out[block.start:block.stop] = _ndtri_block(flat[block.start:block.stop])
    return out.reshape(u.shape)


def _subgaussian(alpha: float, u: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sqrt(2A) z with A the Kanter draw of the (..., 2) uniforms ``u``: isotropic rows."""
    a = _positive_stable_transform(alpha / 2.0, u[..., 0], u[..., 1])
    return np.sqrt(2.0 * a)[..., None] * z


def _isotropic_from_uniforms(alpha: float, u: np.ndarray) -> np.ndarray:
    """Isotropic draws from a (..., 2+n) uniform block: 2 subordinator + n Gaussian."""
    return _subgaussian(alpha, u[..., :2], _ndtri(u[..., 2:]))


def _isotropic_from_streams(alpha: float, sub: np.random.Generator,
                            gauss: np.random.Generator, shape) -> np.ndarray:
    """Isotropic rows of ``shape`` = (*rows, m): the subordinators from ``sub``, Z from ``gauss``.

    Row by row in order, ``sub`` gives 2 open uniforms and ``gauss`` m
    ``standard_normal`` coordinates, so consecutive calls draw the rows of
    one call: the blocks a caller splits its rows into never show.
    """
    *rows, m = shape
    return _subgaussian(alpha, open_uniform(sub, (*rows, 2)), gauss.standard_normal((*rows, m)))


def _chunked_isotropic(alpha: float, count: int, row_shape: tuple[int, ...], sample_bytes: int,
                       *name: int) -> Iterator[np.ndarray]:
    """Blocks (samples, *rows, m) of ``count`` isotropic samples, each ``row_shape`` = (*rows, m).

    Sample r is sample r mod ``_CHUNK`` of chunk r // ``_CHUNK``, whose streams
    are ``(*name, k)`` and ``(*name, k, TAG_GAUSSIAN)``.  A chunk's samples
    come in the blocks of :func:`rng._blocks` at ``sample_bytes`` a sample,
    drawn in order, so no sample depends on the budget or on ``count``.
    """
    for index, start in enumerate(range(0, count, _CHUNK)):
        sub, gauss = substream(*name, index), substream(*name, index, TAG_GAUSSIAN)
        for block in _blocks(min(_CHUNK, count - start), sample_bytes):
            yield _isotropic_from_streams(alpha, sub, gauss, (len(block), *row_shape))


def _isotropic_blocks(alpha: float, n: int, seed: int, size: int,
                      extra_row_bytes: int) -> Iterator[np.ndarray]:
    """The ``size`` rows of :func:`sample_isotropic` as consecutive (rows, n) blocks.

    The rows are the :func:`_chunked_isotropic` samples named (seed,
    TAG_ISOTROPIC, n), in blocks at the sampler's bytes a row plus
    ``extra_row_bytes``, the caller's own per row, so every row equals its row
    of ``sample_isotropic`` whatever the blocks.  Arguments are checked at the call.
    """
    AlphaParams(alpha)
    if n < 1:
        raise ValueError(f"dimension n must be >= 1, got {n}")
    # per row: 8 floats for the subordinator and 3 per coordinate (traced at n = 1 and 3:
    # 10.1 and 15.4 floats)
    return _chunked_isotropic(alpha, size, (n,), 8 * (8 + 3 * n) + extra_row_bytes,
                              seed, TAG_ISOTROPIC, n)


def sample_isotropic(alpha: float, n: int, seed: int, size: int = 1) -> np.ndarray:
    """Isotropic alpha-stable vectors with cf exp(-||u||^alpha), shape (size, n)."""
    blocks = _isotropic_blocks(alpha, n, seed, size, 0)
    out = np.empty((size, n))
    start = 0
    for rows in blocks:
        out[start:start + len(rows)] = rows
        start += len(rows)
    return out


@dataclass(frozen=True)
class NoisePath:
    """Truncated coordinate increments of the cylindrical process on a grid.

    Row i holds the increments (L(t_{i+1}) - L(t_i))e_j for j = 1..m; each
    row is an independent isotropic vector with cf exp(-dt_i ||u||^alpha).
    """

    alpha: float
    m: int
    grid: np.ndarray
    increments: np.ndarray
    seed: int

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        inc = np.asarray(self.increments, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "increments", inc)
        _validate_grid(grid)
        if inc.shape != (grid.size - 1, self.m):
            raise ValueError(
                f"increments shape {inc.shape} does not match grid/m "
                f"({grid.size - 1}, {self.m})"
            )
        if not np.all(np.isfinite(inc)):
            raise ValueError("increments must be finite")

    @property
    def steps(self) -> int:
        return self.grid.size - 1


def _validate_grid(grid: np.ndarray) -> None:
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("grid must be a 1-d array with at least two times")
    if grid[0] != 0.0:
        raise ValueError(f"grid must start at 0, got t0={grid[0]}")
    if not np.all(np.diff(grid) > 0.0):
        raise ValueError("grid must be strictly increasing")


def _noise_increments(alpha: float, m: int, grid: np.ndarray, *name) -> np.ndarray:
    """Row i: (dt_i)^(1/alpha) x isotropic, from its own stream (*name, TAG_NOISE_ROW, i).

    Scalar entries of ``name`` give one path, shape (M, m); array entries of
    shape S give a batch of paths, shape S + (M, m), each equal to the path
    named by its own entries.
    """
    rows = np.arange(grid.size - 1)
    words = [np.expand_dims(word, -1) for word in name]
    uniforms = open_uniform_rows([*words, TAG_NOISE_ROW, rows], 2 + m)
    return np.diff(grid)[:, None] ** (1.0 / alpha) * _isotropic_from_uniforms(alpha, uniforms)


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis, bit-identical to 1-d ``np.linalg.norm``.

    The 1-d norm is sqrt(x.dot(x)), a BLAS dot whose rounding an
    ``axis=-1`` reduction does not reproduce, so each row is dotted alone;
    rows are made contiguous first, because a strided dot rounds differently.
    """
    flat = np.ascontiguousarray(rows).reshape(-1, rows.shape[-1])
    return np.sqrt([row.dot(row) for row in flat]).reshape(rows.shape[:-1])


def generate_noise_path(alpha: float, m: int, grid, seed: int) -> NoisePath:
    """Sample a NoisePath: independent rows, row i ~ (dt_i)^(1/alpha) x isotropic.

    Row i is generated from its own counter-based stream, named
    (seed, TAG_NOISE_ROW, i), so a rerun with the same seed reproduces the path,
    and a rerun with a larger m reproduces it as its first m columns.
    """
    AlphaParams(alpha)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    grid = np.asarray(grid, dtype=float)
    _validate_grid(grid)
    increments = _noise_increments(alpha, m, grid, seed)
    return NoisePath(alpha=alpha, m=m, grid=grid, increments=increments, seed=seed)


def noise_csv_lines(path: NoisePath, extra_header: Iterable[str] = ()) -> Iterator[str]:
    """Metadata comments, then one `t_start,t_end,j,increment` row per cell, in blocks.

    Cells use the ``%.17g`` of ``reporting.format_rows``, but each grid time
    is formatted once, not once per coordinate: a step's m lines come from
    one template, filled with its two times and then its m increments.
    """
    for line in extra_header:
        yield f"# {line}\n"
    yield f"# alpha={path.alpha!r}, m={path.m}, seed={path.seed}\n"
    yield "t_start,t_end,j,increment\n"
    times = ["%.17g" % t for t in path.grid.tolist()]
    step_lines = "".join(f"{{0}},{j},%.17g\n" for j in range(1, path.m + 1))
    # a step's two times and m increments: their Python objects and their text
    for block in _blocks(path.steps, 160 * (path.m + 1)):
        ts = times[block.start:block.stop + 1]
        rows = path.increments[block.start:block.stop].tolist()
        yield "".join(step_lines.format(f"{t0},{t1}") % tuple(row)
                      for t0, t1, row in zip(ts, ts[1:], rows))


def noise_path_to_csv(path: NoisePath) -> str:
    """Serialize: the lines of :func:`noise_csv_lines` as one string."""
    return "".join(noise_csv_lines(path))

