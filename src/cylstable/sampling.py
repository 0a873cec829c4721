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
first and then the Gaussian coordinates in column order, two to a pair of
uniforms, so a longer block reproduces the shorter one as its prefix.

Isotropic rows are drawn in one of two layouts, each reproducing every
row bit for bit on a rerun with the same seed:

* **Noise rows** (:func:`_noise_increments`: ``noise``, ``solve``, ``glue``,
  ``picard``, ``uniqueness`` and ``integrate``'s path mode) are short
  counter-based streams, one per row, each keyed by its four-word name
  (seed, tag, index, row) and drawn by the integer Philox port
  :func:`rng.open_uniform_rows`.  A row of m coordinates draws 2 + 2
  ceil(m/2) uniforms: 2 for the subordinator, then one pair per two
  Gaussian coordinates through the Box-Muller transform
  :func:`_box_muller`, the cosine first; an odd m drops the last sine.
  The port keeps ``numpy.random`` out of these commands: importing it
  adds 6.3 MiB to a process (26.8 -> 33.1 MiB), and would lift a cold
  ``picard`` peak from 32.0 to 37.7 MiB.
* **Monte-Carlo chunks** (``tail``, ``moment``, ``gof``, ``sample --kind
  isotropic`` and ``integrate --refinement-levels``), which load
  ``numpy.random`` anyway, draw each chunk of 2**16 samples from two
  Generator streams, a subordinator stream (2 open uniforms a row) and a
  Gaussian stream whose coordinates are ``standard_normal``, numpy's
  ziggurat (Marsaglia & Tsang, J. Stat. Softw. 2000).  See
  :func:`_chunked_isotropic`.

A path serialises as one wide row per step, ``t_start, t_end, x_1..x_m``
(:meth:`NoisePath.columns`), which ``noise`` writes through
``reporting.write_csv`` like every other artifact.

The package runs on numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .reporting import format_rows
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


def _box_muller(u: np.ndarray) -> np.ndarray:
    """Standard normals from open uniforms in pairs: shape (..., 2k) to (..., 2k).

    Pair k of the last axis gives coordinate 2k = R cos(Theta) and 2k + 1 =
    R sin(Theta), with R = sqrt(-2 log u[2k]) and Theta = 2 pi u[2k + 1]: two
    independent standard normals from the pair alone (Box & Muller, Ann.
    Math. Statist. 1958), so a prefix of pairs gives a prefix of coordinates.
    """
    pairs = u.reshape(-1, 2)
    out = np.empty_like(pairs)
    for block in _blocks(len(pairs), 32):  # a pair's temporaries (traced): R, Theta, 2 products
        rows = slice(block.start, block.stop)
        r = np.sqrt(-2.0 * np.log(pairs[rows, 0]))
        theta = 2.0 * np.pi * pairs[rows, 1]
        out[rows, 0] = r * np.cos(theta)
        out[rows, 1] = r * np.sin(theta)
    return out.reshape(u.shape)


def _subgaussian(alpha: float, u: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sqrt(2A) z with A the Kanter draw of the (..., 2) uniforms ``u``: isotropic rows."""
    a = _positive_stable_transform(alpha / 2.0, u[..., 0], u[..., 1])
    return np.sqrt(2.0 * a)[..., None] * z


def _chunked_isotropic(alpha: float, count: int, row_shape: tuple[int, ...], sample_bytes: int,
                       *name: int) -> Iterator[np.ndarray]:
    """Blocks (samples, *rows, m) of ``count`` isotropic samples, each ``row_shape`` = (*rows, m).

    Sample r is sample r mod ``_CHUNK`` of chunk r // ``_CHUNK``, whose streams
    are ``(*name, k)`` and ``(*name, k, TAG_GAUSSIAN)``: row by row, the first
    gives 2 open uniforms for the subordinator and the second m
    ``standard_normal`` coordinates.  A chunk's samples come in the blocks of
    :func:`rng._blocks` at ``sample_bytes`` a sample, drawn in order, so no
    sample depends on the budget or on ``count``.
    """
    for index, start in enumerate(range(0, count, _CHUNK)):
        sub, gauss = substream(*name, index), substream(*name, index, TAG_GAUSSIAN)
        for block in _blocks(min(_CHUNK, count - start), sample_bytes):
            u = open_uniform(sub, (len(block), *row_shape[:-1], 2))
            yield _subgaussian(alpha, u, gauss.standard_normal((len(block), *row_shape)))


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

    def columns(self) -> dict[str, np.ndarray]:
        """The CSV columns: one row per step, ``t_start, t_end, x_1..x_m``."""
        return {"t_start": self.grid[:-1], "t_end": self.grid[1:],
                **{f"x_{j + 1}": x for j, x in enumerate(self.increments.T)}}


def _validate_grid(grid: np.ndarray) -> None:
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("grid must be a 1-d array with at least two times")
    if grid[0] != 0.0:
        raise ValueError(f"grid must start at 0, got t0={grid[0]}")
    if not np.all(np.diff(grid) > 0.0):
        raise ValueError("grid must be strictly increasing")


def _noise_increments(alpha: float, m: int, grid: np.ndarray, seed, tag=TAG_NOISE_ROW,
                      index=0) -> np.ndarray:
    """Row i: (dt_i)^(1/alpha) x isotropic, from its own stream (seed, tag, index, i).

    Its first 2 uniforms give the subordinator, and the next 2 ceil(m/2) the
    Gaussian coordinates in :func:`_box_muller`'s pairs; an odd m drops the
    last sine.  Scalar ``seed``, ``tag`` and ``index`` name one path, shape
    (M, m); array ones of broadcast shape S name a batch of paths, shape
    S + (M, m), each equal to the path named by its own words.
    """
    rows = np.arange(grid.size - 1)
    words = [np.expand_dims(word, -1) for word in (seed, tag, index)]
    u = open_uniform_rows([*words, rows], 2 + m + m % 2)
    isotropic = _subgaussian(alpha, u[..., :2], _box_muller(u[..., 2:])[..., :m])
    return np.diff(grid)[:, None] ** (1.0 / alpha) * isotropic


def generate_noise_path(alpha: float, m: int, grid, seed: int) -> NoisePath:
    """Sample a NoisePath: independent rows, row i ~ (dt_i)^(1/alpha) x isotropic.

    Row i is generated from its own counter-based stream, keyed by its name
    (seed, TAG_NOISE_ROW, 0, i), so a rerun with the same seed reproduces the
    path, and a rerun with a larger m reproduces it as its first m columns.
    """
    AlphaParams(alpha)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    grid = np.asarray(grid, dtype=float)
    _validate_grid(grid)
    increments = _noise_increments(alpha, m, grid, seed)
    return NoisePath(alpha=alpha, m=m, grid=grid, increments=increments, seed=seed)


def noise_path_to_csv(path: NoisePath) -> str:
    """Serialize: the column line and rows of :meth:`NoisePath.columns`, as in ``noise.csv``."""
    columns = path.columns()
    return ",".join(columns) + "\n" + "".join(format_rows(columns.values()))
