"""Deterministic substream derivation.

Every source of randomness in the package flows from an integer seed
plus a tuple of indices (cell, instance, trial, ...).  Substreams built
this way are reproducible bit-for-bit across runs and worker counts and
never require generating earlier streams first.

``derive_rng(seed, k)`` defines the stream of trial ``k``.  The order
lottery draws a whole probe at once: ``substream_doubles`` reaches the
same PCG64 states as ``derive_rng`` for every trial key, by numpy's own
``SeedSequence`` and PCG64 seeding arithmetic, without building a
``SeedSequence`` or a ``PCG64`` per key.  A reference test compares the
two bit for bit, so a numpy that seeds differently fails that test
instead of silently changing a table.
"""

from __future__ import annotations

import numpy as np

__all__ = ["derive_rng", "derive_seed", "substream_doubles"]

# numpy's SeedSequence hash and mix constants and PCG64's multiplier
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = (1 << 32) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """A generator for the substream identified by ``(seed, *key)``."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.PCG64(ss))


def derive_seed(seed: int, *key: int) -> int:
    """A stable 63-bit integer seed for the substream ``(seed, *key)``."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
    return int(ss.generate_state(1, np.uint64)[0] >> 1)


def _hash_words(
    words: np.ndarray, hash_const: int, mult: int
) -> tuple[np.ndarray, int]:
    """SeedSequence's hash of ``words`` at the running constant
    ``hash_const``; returns the hashed words and the next constant."""
    words = words ^ np.uint32(hash_const)
    hash_const = hash_const * mult & _MASK32
    words *= np.uint32(hash_const)
    words ^= words >> 16
    return words, hash_const


def substream_doubles(seed: int, trials: int, count: int) -> np.ndarray:
    """``count`` doubles of each substream ``(seed, k)``, ``k < trials``.

    Returns a ``(trials, count)`` float64 array whose row ``k`` equals
    ``derive_rng(seed, k).random(count)`` bit for bit.  A negative seed
    raises ``ValueError``, as ``SeedSequence`` does.
    """
    if trials > 1 << 32:
        raise ValueError("trial keys must fit one 32-bit word")
    # The key is the last entropy word, so the seed's words mix into the
    # pool as they would without a key; a seed shorter than the pool is
    # padded with zero words, which hash as the pool's missing words do.
    pool = [int(w) for w in np.random.SeedSequence(seed).pool]
    # hashes so far: one per pool word, 12 for the cross mix, and one per
    # pool word for each seed word beyond the pool
    calls = 16 + 4 * max(0, (int(seed).bit_length() + 31) // 32 - 4)
    hash_const = _INIT_A * pow(_MULT_A, calls, 1 << 32) & _MASK32
    key = np.arange(trials, dtype=np.uint32)
    mixed = []
    for word in pool:
        # mix(pool word, hash(key)) for each pool word in turn
        hashed, hash_const = _hash_words(key, hash_const, _MULT_A)
        result = np.uint32(_MIX_MULT_L * word & _MASK32)
        result = result - np.uint32(_MIX_MULT_R) * hashed
        result ^= result >> 16
        mixed.append(result)
    # generate_state(4, uint64): eight words cycled from the pool, read
    # as four little-endian 64-bit words
    state = []
    hash_const = _INIT_B
    for i in range(8):
        hashed, hash_const = _hash_words(mixed[i % 4], hash_const, _MULT_B)
        state.append(hashed.astype(np.uint64))
    words64 = np.stack([state[j] | state[j + 1] << 32 for j in (0, 2, 4, 6)], axis=1)
    out = np.empty((trials, count), dtype=np.float64)
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    for k, (s_hi, s_lo, i_hi, i_lo) in enumerate(words64.tolist()):
        # PCG64 seeding: inc = (initseq << 1) | 1, then two LCG steps
        # around adding initstate
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        st = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128
        bitgen.state = {
            "bit_generator": "PCG64",
            "state": {"state": st, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        gen.random(out=out[k])
    return out
