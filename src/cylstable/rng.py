"""Deterministic seeding.

All randomness in the package comes from counter-based Philox streams, each
named by a master 64-bit seed plus an integer tag path hashed through
``SeedSequence``.  Streams depend only on ``(seed, *tags)``, never on draw
order elsewhere, so every row, chunk or replica draws the same numbers on
every rerun.  A stream can be drawn in two equal ways:

* :func:`substream` builds numpy's ``Generator(Philox(SeedSequence(...)))``.
  It serves the few long streams (sampler and Monte-Carlo chunks of 10^5 and
  more values), where numpy's C generator is fastest and the 13 us of
  building it do not count.
* :func:`open_uniform_rows` draws the first ``count`` uniforms of many short
  streams at once: an integer-exact numpy port of ``SeedSequence``'s entropy
  hashing, of Philox4x64-10 (Salmon et al., "Parallel random numbers: as
  easy as 1, 2, 3", SC'11) and of ``Generator.random``.  It serves the
  thousands of per-row and per-replica streams of a noise path or an
  ensemble, which would otherwise cost one generator construction each.

Row r of ``open_uniform_rows(seeds, tags, indices, count)`` equals
``open_uniform(substream(seeds[r], *tags, indices[r]), count)`` bit for bit,
so the choice between the two never shows in an artifact.
"""

from __future__ import annotations

import functools
from typing import Sequence

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

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF

# SeedSequence's hash constants and pool size (numpy.random.bit_generator).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)

# Shifts and masks as numpy scalars: a Python int operand costs each array
# operation a conversion, a sizeable share of the port's small passes.
_U32_16 = np.uint32(16)
_U64_11, _U64_32 = np.uint64(11), np.uint64(32)
_U64_LOW = np.uint64(_MASK32)

# Philox4x64-10: round multipliers and the Weyl increments of the key.
_PHILOX_M0, _PHILOX_M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_PHILOX_W0, _PHILOX_W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_PHILOX_ROUNDS = 10

# Philox blocks (4 uint64 each) computed per pass of the port: keeps each of
# the pass's temporaries at 256 KiB whatever the number of rows.
_PASS_BLOCKS = 1 << 14


def substream(seed: int, *tags: int) -> np.random.Generator:
    """Derive an independent Philox stream from a master seed and a tag path."""
    entropy = [int(seed) & _MASK64, *[int(t) for t in tags]]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def open_uniform(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniforms clipped into the open interval (0, 1).

    The clip guards the measure-zero endpoints that would produce
    log(0)/division-by-zero in the stable transforms.
    """
    return np.clip(rng.random(shape), _UNIFORM_LO, _UNIFORM_HI)


def _masked_seeds(seeds) -> np.ndarray:
    """Seeds reduced to 64 bits as :func:`substream` does (``int(seed) & (2**64 - 1)``)."""
    seeds = np.asarray(seeds)
    if seeds.dtype.kind in "iu":
        return seeds.astype(np.uint64)  # two's complement: negatives wrap like the mask
    return np.vectorize(lambda s: int(s) & _MASK64, otypes=[np.uint64])(seeds)


def _stream_indices(indices) -> np.ndarray:
    indices = np.asarray(indices)
    if indices.dtype.kind not in "iu" or (indices.dtype.kind == "i" and np.any(indices < 0)):
        raise ValueError("stream indices must be integers in [0, 2**64)")
    return indices.astype(np.uint64)


def _int_words(value: int) -> list[int]:
    """SeedSequence's coercion of one non-negative integer: little-endian uint32 words."""
    value = int(value)
    if value < 0:
        raise ValueError(f"stream tags must be non-negative, got {value}")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _u64_words(values: np.ndarray, wide: bool) -> np.ndarray:
    """Coercion of uint64 values that all have one word (wide=False) or two (wide=True)."""
    if wide:
        return np.stack([values & _U64_LOW, values >> _U64_32]).astype(np.uint32)
    return values.astype(np.uint32)[None]


@functools.lru_cache(maxsize=None)
def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """The hash constant before each of ``count`` hashing steps, as a (count, 1) column."""
    consts = [init]
    for _ in range(count):
        consts.append((consts[-1] * mult) & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


def _hash(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """Steps i = 0, 1, ... of SeedSequence's hashmix on rows of values, constants consts[i:i+2]."""
    values = (values ^ consts[:-1]) * consts[1:]
    return values ^ (values >> _U32_16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> _U32_16)


def _entropy_pool(words: np.ndarray) -> np.ndarray:
    """``SeedSequence.mix_entropy`` of entropy words (L, rows) uint32: the pool (4, rows).

    Each hashing step advances one shared constant, so the steps whose
    inputs are known together (the pool fill, one source word against
    every other pool word) run as one array operation.
    """
    extra = max(0, words.shape[0] - _POOL_SIZE)
    consts = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE ** 2 + _POOL_SIZE * extra)
    fill = np.zeros((_POOL_SIZE, words.shape[1]), dtype=np.uint32)
    fill[:min(_POOL_SIZE, words.shape[0])] = words[:_POOL_SIZE]
    pool = _hash(fill, consts[:_POOL_SIZE + 1])
    step = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        hashed = _hash(pool[src], consts[step:step + _POOL_SIZE])
        pool[dst] = _mix(pool[dst], hashed)
        step += _POOL_SIZE - 1
    for word in words[_POOL_SIZE:]:
        pool = _mix(pool, _hash(word, consts[step:step + _POOL_SIZE + 1]))
        step += _POOL_SIZE
    return pool


_STATE_CONSTS = _hash_consts(_INIT_B, _MULT_B, _POOL_SIZE)


def _philox_key(pool: np.ndarray) -> np.ndarray:
    """``generate_state(2, np.uint64)`` of each pool column: Philox's key words, (2, rows)."""
    state = _hash(pool, _STATE_CONSTS).astype(np.uint64)
    return state[0::2] | state[1::2] << _U64_32


def _stream_rows(seeds, indices) -> tuple[np.ndarray, np.ndarray]:
    """Masked uint64 seeds and checked uint64 indices, broadcast against each other."""
    return np.broadcast_arrays(_masked_seeds(seeds), _stream_indices(indices))


def stream_keys(seeds, tags: Sequence[int], indices) -> np.ndarray:
    """Philox keys, shape (2, ...), of the streams ``substream(seed, *tags, index)``.

    Seeds and indices broadcast.  Word 0 equals
    ``SeedSequence(entropy).generate_state(1, np.uint64)[0]``.
    """
    seeds, indices = _stream_rows(seeds, indices)
    return _keys(seeds.ravel(), tags, indices.ravel()).reshape(2, *seeds.shape)


def _keys(seeds: np.ndarray, tags: Sequence[int], indices: np.ndarray) -> np.ndarray:
    """Philox keys (2, K) of 1-d uint64 seeds and indices.

    SeedSequence turns a value below 2**32 into one entropy word and a
    larger one into two, so rows are hashed in groups of equal word count;
    the usual single group is hashed without gathering its rows.
    """
    tag_words = np.array([w for tag in tags for w in _int_words(tag)], dtype=np.uint32)
    group = 2 * (seeds > _MASK32) + (indices > _MASK32)
    groups = np.flatnonzero(np.bincount(group, minlength=4))
    keys = np.empty((2, seeds.size), dtype=np.uint64)
    for g in groups:
        rows = slice(None) if groups.size == 1 else np.flatnonzero(group == g)
        group_seeds, group_indices = seeds[rows], indices[rows]
        words = np.concatenate([_u64_words(group_seeds, g >= 2),
                                np.repeat(tag_words[:, None], group_seeds.size, axis=1),
                                _u64_words(group_indices, g % 2 == 1)])
        keys[:, rows] = _philox_key(_entropy_pool(words))
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


def open_uniform_rows(seeds, tags: Sequence[int], indices, count: int) -> np.ndarray:
    """``open_uniform(substream(seed, *tags, index), count)`` for every broadcast (seed, index).

    Returns shape ``broadcast(seeds, indices).shape + (count,)``.  Rows go
    through the port in passes of a fixed block budget, so the temporaries
    stay bounded whatever the number of rows.
    """
    seeds, indices = _stream_rows(seeds, indices)
    flat_seeds, flat_indices = seeds.ravel(), indices.ravel()
    blocks = -(-count // 4)
    out = np.empty((flat_seeds.size, count))
    step = max(1, _PASS_BLOCKS // blocks)
    for start in range(0, flat_seeds.size, step):
        rows = slice(start, start + step)
        keys = _keys(flat_seeds[rows], tags, flat_indices[rows])
        raw = _philox_blocks(keys, blocks)[:, :count]
        out[rows] = (raw >> _U64_11) * (1.0 / 9007199254740992.0)  # Generator.random: 53 bits
    return np.clip(out, _UNIFORM_LO, _UNIFORM_HI, out=out).reshape(*seeds.shape, count)
