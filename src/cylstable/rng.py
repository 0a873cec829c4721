"""Deterministic seeding: every random stream is named by a list of 32-bit words.

All randomness comes from counter-based Philox streams (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC'11), and a stream is fully
determined by its name: the master seed, then tags and indices, each an
integer in [0, 2**32), so every row, chunk or replica draws the same numbers
on every rerun.  A name reaches its Philox4x64-10 key in one of two ways:

* **Generator streams** (:func:`substream`): numpy's
  ``Generator(Philox(SeedSequence(name)))``, for the few long streams
  (samplers and Monte-Carlo chunks of 10^5 values and more, whose Gaussian
  coordinates are ``standard_normal`` draws; see :mod:`cylstable.sampling`).
  The name is the ``SeedSequence`` entropy, which pads a name shorter than
  4 words with zeros (``[5, 1]`` hashes like ``[5, 1, 0]``).  So no tag is
  0, and within one namespace, the word after the seed, no name is another
  one padded with zeros: names of a namespace differ in a word they both
  hold, or a longer one ends in a non-zero tag where a shorter one is padded
  (the Gaussian stream of a Monte-Carlo chunk adds ``TAG_GAUSSIAN`` to the
  chunk's name).
* **Noise rows** (:func:`open_uniform_rows`): a name of exactly 4 words
  ``(seed, tag, index, row)`` is the key itself, packed low word first into
  two 64-bit words (:func:`_row_keys`); different keys give independent
  Philox streams.  An integer-exact numpy port of Philox4x64-10 and of
  ``Generator.random`` draws the first uniforms of thousands of such rows
  at once without importing ``numpy.random``; a row equals
  ``open_uniform(Generator(Philox(key=[k0, k1])), count)`` bit for bit, the
  key given as a uint64 array.

Each entry must be exactly one word: :func:`substream` and
:func:`open_uniform_rows` refuse any entry outside [0, 2**32) with
``ValueError`` (``SeedSequence`` would split ``5 + 7 * 2**32`` into two words
and alias ``[5, 7]``), and :func:`open_uniform_rows` any name that is not 4
words long.  The names (r a replica, k a chunk, i a noise row, p a glue
piece; a chunk holds ``_CHUNK`` = 2**16 samples):

    (seed)                                      check-model trial points
    (seed, TAG_SCALAR), (seed, TAG_POSITIVE)    scalar and positive stable draws
    (seed, TAG_ISOTROPIC, n, k)                 isotropic draws in R^n, chunk k: subordinators
    (seed, TAG_ISOTROPIC, n, k, TAG_GAUSSIAN)     and their Gaussian coordinates
    (seed, TAG_REPLICA, k)                      tail/moment chunk k: subordinators
    (seed, TAG_REPLICA, k, TAG_GAUSSIAN)          and their Gaussian coordinates
    (seed, TAG_REPLICA, TAG_BOOTSTRAP)          moment bootstrap
    (seed, TAG_REFINE, k)                       refinement chunk k: subordinators
    (seed, TAG_REFINE, k, TAG_GAUSSIAN)           and their Gaussian coordinates
    (seed, TAG_TRIPLES, M)                      random hypothesis triples
    (0, TAG_GOF, n, count)                      goodness-of-fit test directions

and the noise rows, keyed by their names:

    (seed, TAG_NOISE_ROW, 0, i)                 generate_noise_path
    (seed, TAG_PIECE, p, i)                     glue piece p
    (seed, TAG_REPLICA, r, i)                   picard and uniqueness replica r
    (seed, TAG_ALT_NOISE, r, i)                 uniqueness fresh noise, replica r
"""

from __future__ import annotations

import operator
from typing import Sequence

import numpy as np

# Tags: arbitrary, pairwise distinct, non-zero and frozen; changing one
# changes every stream named with it.
TAG_SCALAR = 0x5CA1A
TAG_POSITIVE = 0x9051
TAG_ISOTROPIC = 0x150
TAG_NOISE_ROW = 0x4E0153
TAG_PIECE = 0x91ECE
TAG_REPLICA = 0x4E9
TAG_ALT_NOISE = 0xA17
TAG_TRIPLES = 0x77
TAG_GOF = 0x60F
TAG_BOOTSTRAP = 0xB007
TAG_GAUSSIAN = 0x6A55
TAG_REFINE = 0x4EF1

# Samples of one Monte-Carlo chunk, part of the stream names: sample r is sample
# r mod _CHUNK of chunk r // _CHUNK.
_CHUNK = 1 << 16

_UNIFORM_LO = 1e-16
_UNIFORM_HI = 1.0 - 1e-16

_MASK32 = 0xFFFFFFFF
_WORD_RANGE = "stream name entries must be integers in [0, 2**32)"

# Shifts and masks as numpy scalars: a Python int operand costs each array
# operation a conversion, a sizeable share of the port's small passes.
_U64_11, _U64_32 = np.uint64(11), np.uint64(32)
_U64_LOW = np.uint64(_MASK32)

# Philox4x64-10: round multipliers and the Weyl increments of the key.
_PHILOX_M0, _PHILOX_M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_PHILOX_W0, _PHILOX_W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_PHILOX_ROUNDS = 10


def stream_word(value) -> int:
    """One entry of a stream name as an int; ValueError unless it is an integer in [0, 2**32)."""
    word = operator.index(value)
    if not 0 <= word <= _MASK32:
        raise ValueError(f"{_WORD_RANGE}, got {word}")
    return word


def substream(seed: int, *tags: int) -> np.random.Generator:
    """The Philox stream named by ``(seed, *tags)``."""
    name = [stream_word(word) for word in (seed, *tags)]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(name)))


def open_uniform(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniforms clipped into the open interval (0, 1).

    The clip guards the measure-zero endpoints that would produce
    log(0)/division-by-zero in the stable transforms.
    """
    return np.clip(rng.random(shape), _UNIFORM_LO, _UNIFORM_HI)


# The one memory budget: every loop over rows, replicas, elements or lines that
# could outgrow memory takes them in blocks whose temporaries stay within it,
# whatever the count.  Each caller states the bytes one index holds, measured
# with tracemalloc.  A stream's blocks are drawn from its one Generator in
# order, and every value is per index or a sum taken strictly in index order
# (a running total carried from block to block), so no value depends on the budget.
_BLOCK_BYTES = 1 << 20


def _blocks(count: int, bytes_per_index: int) -> list[range]:
    """Consecutive ranges of ``count`` indices, one at least each, within ``_BLOCK_BYTES``."""
    size = max(1, _BLOCK_BYTES // bytes_per_index)
    return [range(start, min(start + size, count)) for start in range(0, count, size)]


def _row_keys(words: Sequence) -> np.ndarray:
    """Philox keys (2, *rows) of the 4-word names the entries of ``words`` broadcast to.

    Name ``(w0, w1, w2, w3)`` is packed low word first: ``k0 = w0 | w1 << 32`` and
    ``k1 = w2 | w3 << 32``, so distinct names are distinct keys.
    """
    if len(words) != 4:
        raise ValueError(f"a noise row is named by exactly 4 words, got {len(words)}")
    entries = [np.asarray(word) for word in words]
    for entry in entries:
        if entry.size and not (entry.dtype.kind in "iu" and entry.min() >= 0
                               and entry.max() <= _MASK32):
            raise ValueError(f"{_WORD_RANGE}, got values from {entry.min()} to {entry.max()}")
    keys = np.empty((2, *np.broadcast_shapes(*(e.shape for e in entries))), dtype=np.uint64)
    for k in range(2):
        keys[k] = entries[2 * k]
        keys[k] |= entries[2 * k + 1].astype(np.uint64) << _U64_32
    return keys


_PHILOX_M = np.array([_PHILOX_M0, _PHILOX_M1], dtype=np.uint64)[:, None, None]
_PHILOX_M_LO, _PHILOX_M_HI = _PHILOX_M & _MASK32, _PHILOX_M >> 32
_PHILOX_W = np.array([_PHILOX_W0, _PHILOX_W1], dtype=np.uint64)[:, None, None]


def _mulhilo(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Low and high words of the 128-bit products a * _PHILOX_M, from 32-bit halves."""
    a_lo, a_hi = a & _U64_LOW, a >> _U64_32
    t = a_hi * _PHILOX_M_LO + ((a_lo * _PHILOX_M_LO) >> _U64_32)
    w = (t & _U64_LOW) + a_lo * _PHILOX_M_HI
    return a * _PHILOX_M, a_hi * _PHILOX_M_HI + (t >> _U64_32) + (w >> _U64_32)


def _philox_blocks(keys: np.ndarray, blocks: int) -> np.ndarray:
    """Philox4x64-10 outputs at counters 1..blocks for each key (2, K): shape (K, 4 * blocks).

    numpy's Philox starts at counter 0 and increments before each block, so
    its first block is counter 1; the four words of a block are drawn in
    order.  The counter is held as its even words (c0, c2) and odd words
    (c1, c3), each of shape (2, K, blocks), so one product serves both
    multipliers of a round.
    """
    even = np.zeros((2, keys.shape[1], blocks), dtype=np.uint64)
    even[0] = np.arange(1, blocks + 1, dtype=np.uint64)
    odd = np.zeros_like(even)
    key = keys[:, :, None]
    for rnd in range(_PHILOX_ROUNDS):
        if rnd:
            key = key + _PHILOX_W
        lo, hi = _mulhilo(even)
        even, odd = hi[::-1] ^ odd ^ key, lo[::-1]
    # block word order: c0, c1, c2, c3 = even[0], odd[0], even[1], odd[1]
    words = np.stack([even, odd], axis=-1).transpose(1, 2, 0, 3)
    return words.reshape(keys.shape[1], 4 * blocks)


def open_uniform_rows(words: Sequence, count: int) -> np.ndarray:
    """The first ``count`` open uniforms of the stream of every 4-word name ``words`` forms.

    Each entry is an int or an int array, and the entries broadcast to the
    row shape: row ``idx`` is the stream named by ``[w[idx] for w in words]``,
    equal bit for bit to ``open_uniform(Generator(Philox(key=key)), count)``
    with ``key`` its uint64 words from :func:`_row_keys`.  Returns shape
    ``rows + (count,)``.
    Rows go through the port in passes of :func:`_blocks`, so the
    temporaries stay bounded whatever the number of rows.
    """
    keys = _row_keys(words)
    shape = keys.shape[1:]
    keys = keys.reshape(2, -1)
    blocks = -(-count // 4)
    out = np.empty((keys.shape[1], count))
    # a pass's temporaries per Philox block of a row, stated as 32 uint64 (256 B); traced
    # above the output: 178-209 B, the most at one block a row
    for block in _blocks(keys.shape[1], 256 * blocks):
        rows = slice(block.start, block.stop)
        raw = _philox_blocks(keys[:, rows], blocks)[:, :count]
        out[rows] = (raw >> _U64_11) * (1.0 / 9007199254740992.0)  # Generator.random: 53 bits
    return np.clip(out, _UNIFORM_LO, _UNIFORM_HI, out=out).reshape(*shape, count)
