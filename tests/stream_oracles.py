"""Test-only oracle of the noise-row streams: numpy's own Philox, keyed by a row's name.

A noise row is named by four 32-bit words (see :mod:`cylstable.rng`), and the
name is its Philox4x64-10 key, packed low word first into two 64-bit words.
numpy's ``Philox(key=)`` draws that stream, so ``rng.open_uniform_rows``, the
integer port, is checked against it.
"""

import numpy as np


def keyed_stream(*name: int) -> np.random.Generator:
    """numpy's Generator on the Philox stream keyed by the 4-word name (w0, w1, w2, w3).

    The key is (w0 | w1 << 32, w2 | w3 << 32), given as a uint64 array: a list
    holding a word of 2**63 or more is cast through float64 and loses its low
    bits (2**64 - 1 becomes 0).
    """
    w0, w1, w2, w3 = (int(word) for word in name)
    key = np.array([w0 | w1 << 32, w2 | w3 << 32], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
