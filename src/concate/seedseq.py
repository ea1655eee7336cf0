"""SeedSequence states for a block of spawn keys at once.

``numpy.random.SeedSequence`` hashes its entropy and spawn key into a pool
of four uint32 words with a mixing algorithm that numpy documents as fixed
across releases, then hashes the pool into the requested state.  Building
one SeedSequence object per key is dominated by per-object overhead.
``SpawnKeys`` serves many keys that share their entropy and leading
spawn-key elements: numpy's own SeedSequence mixes that shared prefix into
the pool once, and each remaining word then enters all four pool words in
one step over a (4, rows) uint32 array, which wraps modulo 2**32 as the C
code does.  ``FixedState`` hands one resulting row to ``PCG64``.

This module imports ``numpy.random`` and is imported only where
generators are built, which keeps ``numpy.random`` off the CLI's start-up
path.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

POOL_SIZE = 4
MASK32 = 0xFFFF_FFFF
XSHIFT = 16
INIT_A = 0x43B0_D7E5
MULT_A = 0x931E_8875
INIT_B = 0x8B51_F9DD
MULT_B = 0x58F3_8DED
MIX_MULT_L = 0xCA01_F9DD
MIX_MULT_R = 0x4973_F715


def _hash_constants(init: int, mult: int, calls: int) -> list[int]:
    """The multipliers of ``calls`` hashmix calls: call k xors with
    element k, then multiplies by element k + 1."""
    consts = [init]
    for _ in range(calls):
        consts.append((consts[-1] * mult) & MASK32)
    return consts


# generate_state(4, np.uint64) cycles through the pool twice: 8 hashed words
_GENERATE = np.array(_hash_constants(INIT_B, MULT_B, 2 * POOL_SIZE), dtype=np.uint32)[:, None]


def _hashmix(value, xor, mult):
    value = ((value ^ xor) * mult) & MASK32
    return value ^ (value >> XSHIFT)


def _mix(x, y):
    result = (((MIX_MULT_L * x) & MASK32) - ((MIX_MULT_R * y) & MASK32)) & MASK32
    return result ^ (result >> XSHIFT)


def _words(value: int) -> list[int]:
    """A non-negative int as little-endian uint32 words (0 is one word)."""
    if value < 0:
        raise ValueError(f"expected a non-negative integer, got {value}")
    words = [value & MASK32]
    value >>= 32
    while value:
        words.append(value & MASK32)
        value >>= 32
    return words


class SpawnKeys:
    """``SeedSequence(entropy, spawn_key=prefix + suffix)`` states for
    suffixes that share ``entropy`` and a non-empty ``prefix`` of
    non-negative ints.  The shared pool is ``SeedSequence(entropy,
    spawn_key=prefix).pool``; the suffix words continue its hash constants,
    which :func:`_hash_constants` recomputes from the prefix's word count."""

    def __init__(self, entropy: int, prefix: tuple[int, ...]) -> None:
        self._pool = np.random.SeedSequence(entropy, spawn_key=prefix).pool[:, None]
        # the pool has taken 4 hashmix calls per word: the entropy's words,
        # zero-padded to the pool size as a spawn key requires, then the prefix's
        words = max(len(_words(entropy)), POOL_SIZE) + sum(len(_words(e)) for e in prefix)
        self._next_const = _hash_constants(INIT_A, MULT_A, POOL_SIZE * words)[-1]

    def states(self, *suffix) -> np.ndarray:
        """``generate_state(4, np.uint64)`` for the keys ``prefix + suffix``,
        as a (rows, 4) uint64 array.  Each suffix element is a non-negative
        int shared by every row, or a 1-d uint32 array with one element per
        row (a single word, as SeedSequence makes of a value below 2**32)."""
        words = []
        for element in suffix:
            words += [element] if isinstance(element, np.ndarray) else _words(element)
        a = np.array(_hash_constants(self._next_const, MULT_A, POOL_SIZE * len(words)),
                     dtype=np.uint32)[:, None]
        # each word enters the four pool words independently, with four
        # consecutive multipliers: one array step per word
        pool = self._pool
        for j, word in enumerate(words):
            k = POOL_SIZE * j
            pool = _mix(pool, _hashmix(word, a[k:k + POOL_SIZE], a[k + 1:k + POOL_SIZE + 1]))
        state = _hashmix(np.concatenate([pool, pool]), _GENERATE[:-1], _GENERATE[1:])
        # pairs of words read as little-endian uint64, as generate_state does
        return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


class FixedState(ISeedSequence):
    """A seed for ``np.random.PCG64`` that returns one row of
    ``SpawnKeys.states``: what the SeedSequence it mirrors would return."""

    def __init__(self, state: np.ndarray) -> None:
        self.state = state

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != self.state.size or np.dtype(dtype) != self.state.dtype:
            raise ValueError(
                f"holds generate_state({self.state.size}, {self.state.dtype}) only, "
                f"asked for ({n_words}, {np.dtype(dtype)})"
            )
        return self.state
