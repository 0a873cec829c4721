"""Deterministic seeding.

All randomness in the package flows through :func:`substream`: a master
64-bit seed plus an integer tag path is hashed (via ``SeedSequence``) into
an independent counter-based Philox stream.  Streams depend only on
``(seed, *tags)``, never on draw order elsewhere, so every row, chunk or
replica draws the same numbers on every rerun.
"""

from __future__ import annotations

import numpy as np

# Tag namespaces for derived streams.  Values are arbitrary but frozen:
# changing them changes every sampled path.
TAG_SCALAR = 0x5CA1A
TAG_POSITIVE = 0x9051
TAG_ISOTROPIC = 0x150
TAG_NOISE_ROW = 0x4E0153
TAG_REPLICA = 0x4E9
TAG_PIECE = 0x91ECE

_UNIFORM_LO = 1e-16
_UNIFORM_HI = 1.0 - 1e-16


def substream(seed: int, *tags: int) -> np.random.Generator:
    """Derive an independent Philox stream from a master seed and a tag path."""
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF, *[int(t) for t in tags]]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def open_uniform(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniforms clipped into the open interval (0, 1).

    The clip guards the measure-zero endpoints that would produce
    log(0)/division-by-zero in the stable transforms.
    """
    return np.clip(rng.random(shape), _UNIFORM_LO, _UNIFORM_HI)

