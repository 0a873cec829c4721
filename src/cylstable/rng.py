"""Deterministic seeding: every random stream is named by a list of 32-bit words.

All randomness comes from counter-based Philox streams (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC'11), and a stream is fully
determined by its name: the master seed, then tags and indices, each an
integer in [0, 2**32).  The name is the stream's ``SeedSequence`` entropy,
so every row, chunk or replica draws the same numbers on every rerun.

Each entry must be exactly one ``SeedSequence`` word: a larger integer is
split into its 32-bit words, so ``[5 + 7 * 2**32, 9]`` would hash like
``[5, 7, 9]``.  Both :func:`substream` and :func:`open_uniform_rows` refuse
any entry outside [0, 2**32) with ``ValueError``.  ``SeedSequence`` also pads
a name shorter than 4 words with zeros (``[5, 1]`` hashes like ``[5, 1, 0]``),
so no tag is 0, and within one namespace, the word after the seed, no name
is another one padded with zeros: names of a namespace differ in a word
they both hold, or a longer one ends in a non-zero tag where a shorter one
is padded (the Gaussian stream of a Monte-Carlo chunk adds
``TAG_GAUSSIAN`` to the chunk's name).  The names (r a replica, k a chunk,
i a noise row, p a glue piece; a chunk holds ``_CHUNK`` = 2**16 samples):

    (seed)                                      check-model trial points
    (seed, TAG_SCALAR), (seed, TAG_POSITIVE)    scalar and positive stable draws
    (seed, TAG_ISOTROPIC, n, k)                 isotropic draws in R^n, chunk k: subordinators
    (seed, TAG_ISOTROPIC, n, k, TAG_GAUSSIAN)     and their Gaussian coordinates
    (seed, TAG_NOISE_ROW, i)                    generate_noise_path
    (seed, TAG_PIECE, p, TAG_NOISE_ROW, i)      glue piece p
    (seed, TAG_REPLICA, r, TAG_NOISE_ROW, i)    picard and uniqueness replica r
    (seed, TAG_ALT_NOISE, r, TAG_NOISE_ROW, i)  uniqueness fresh noise, replica r
    (seed, TAG_REPLICA, k)                      tail/moment chunk k: subordinators
    (seed, TAG_REPLICA, k, TAG_GAUSSIAN)          and their Gaussian coordinates
    (seed, TAG_REPLICA, TAG_BOOTSTRAP)          moment bootstrap
    (seed, TAG_REFINE, k)                       refinement chunk k: subordinators
    (seed, TAG_REFINE, k, TAG_GAUSSIAN)           and their Gaussian coordinates
    (seed, TAG_TRIPLES, M)                      random hypothesis triples
    (0, TAG_GOF, n, count)                      goodness-of-fit test directions

A stream can be drawn in two equal ways.  :func:`substream` builds numpy's
``Generator(Philox(SeedSequence(name)))``, for the few long streams
(sampler and Monte-Carlo chunks of 10^5 values and more, whose Gaussian
coordinates are ``standard_normal`` draws; see :mod:`cylstable.sampling`).
:func:`open_uniform_rows` draws the first ``count`` uniforms of many short
streams at once, without importing ``numpy.random``: an integer-exact numpy
port of ``SeedSequence``'s entropy hashing, of Philox4x64-10 and of
``Generator.random``, for the thousands of per-row and per-replica streams
of a noise path or an ensemble.  Its rows equal
``open_uniform(substream(*name), count)`` bit for bit, so the choice never
shows in an artifact.
"""

from __future__ import annotations

import functools
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


def _name_words(words: Sequence) -> np.ndarray:
    """Entries (ints or int arrays) broadcast to the row shape: uint32 words (L, *rows)."""
    entries = [np.asarray(word) for word in words]
    for entry in entries:
        if entry.size and not (entry.dtype.kind in "iu" and entry.min() >= 0
                               and entry.max() <= _MASK32):
            raise ValueError(f"{_WORD_RANGE}, got values from {entry.min()} to {entry.max()}")
    names = np.empty((len(entries), *np.broadcast_shapes(*(e.shape for e in entries))),
                     dtype=np.uint32)
    for k, entry in enumerate(entries):
        names[k] = entry
    return names


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
    """``open_uniform(substream(*name), count)`` for every name the entries of ``words`` form.

    Each entry is an int or an int array, and the entries broadcast to the
    row shape: row ``idx`` is the stream named by ``[w[idx] for w in words]``.
    Returns shape ``rows + (count,)``.  Rows go through the port in passes
    of :func:`_blocks`, so the temporaries stay bounded whatever the number
    of rows.
    """
    names = _name_words(words)
    shape = names.shape[1:]
    names = names.reshape(names.shape[0], -1)
    blocks = -(-count // 4)
    out = np.empty((names.shape[1], count))
    # a pass holds about 32 uint64 temporaries per Philox block of a row
    for block in _blocks(names.shape[1], 256 * blocks):
        rows = slice(block.start, block.stop)
        keys = _philox_key(_entropy_pool(names[:, rows]))
        raw = _philox_blocks(keys, blocks)[:, :count]
        out[rows] = (raw >> _U64_11) * (1.0 / 9007199254740992.0)  # Generator.random: 53 bits
    return np.clip(out, _UNIFORM_LO, _UNIFORM_HI, out=out).reshape(*shape, count)
