"""Deterministic substream derivation.

Every source of randomness in the package flows from an integer seed
plus a tuple of indices (cell, instance, trial, ...).  Substreams built
this way are reproducible bit-for-bit across runs and worker counts and
never require generating earlier streams first.

``derive_rng(seed, k)`` defines the stream of trial ``k``.  The order
lottery draws a pass of probes at once, each probe from its own
seed: ``substream_doubles`` reaches the same PCG64 states as
``derive_rng`` for every seed and trial key, by numpy's own
``SeedSequence`` and PCG64 seeding arithmetic, without building a
``SeedSequence`` or a ``PCG64`` per key.  A reference test compares the
two bit for bit, so a numpy that seeds differently fails that test
instead of silently changing a table.

PCG64 (O'Neill 2014) steps a 128-bit LCG, ``s -> M s + inc mod 2^128``,
so ``c`` steps are one affine map (Brown 1994, arbitrary strides):

    s_c = M^c s + (M^(c-1) + ... + M + 1) inc  (mod 2^128)

``substream_doubles`` takes every (trial, round) state at once from the
seeding step's state by this formula, on uint64 limbs, and reads the
double as ``Generator.random`` does: the XSL-RR output
``rotr(hi ^ lo, hi >> 58)`` of the state, shifted right by 11 and
scaled by 2^-53.

The limbs are laid out round-major, one line per round and one column
per trial: each trial's seeded state is a (1, rows) line and each
round's jump constants a (rounds, 1) column.  numpy runs a broadcast
operation as one inner loop per line of its output, so this layout
runs one loop over all trials per round, where a trial-major table runs
one loop per trial over its ~20 rounds: one uint64 multiply of 2,250
trials by 20 rounds takes 43 us against 59-63 us (one 2-CPU host,
numpy 2.4).  The caller gets the transposed view, (rows, rounds), whose
columns, one round of every trial, are contiguous: the order draw reads
one round at a time.
"""

from __future__ import annotations

from typing import Sequence

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
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """A generator for the substream identified by ``(seed, *key)``."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.PCG64(ss))


def derive_seed(seed: int, *key: int) -> int:
    """A stable 63-bit integer seed for the substream ``(seed, *key)``."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
    return int(ss.generate_state(1, np.uint64)[0] >> 1)


def _hash_words(words: np.ndarray, hash_const, mult: int):
    """SeedSequence's hash of ``words`` at the running constant
    ``hash_const``, an int or a uint32 array that broadcasts against
    ``words``; returns the hashed words and the next constant."""
    words = words ^ np.uint32(hash_const)
    hash_const = hash_const * mult & _MASK32
    words *= np.uint32(hash_const)
    words ^= words >> 16
    return words, hash_const


def substream_doubles(
    seed: int | Sequence[int], trials: int, count: int
) -> np.ndarray:
    """``count`` doubles of each substream ``(seed, k)``, ``k < trials``.

    Returns a ``(trials, count)`` float64 array whose row ``k`` equals
    ``derive_rng(seed, k).random(count)`` bit for bit.  Given a sequence
    of seeds, returns the rows of each seed in turn, stacked in seed
    order: ``(len(seeds) * trials, count)``.  A negative seed raises
    ``ValueError``, as ``SeedSequence`` does.
    """
    if trials > 1 << 32:
        raise ValueError("trial keys must fit one 32-bit word")
    seeds = [seed] if isinstance(seed, (int, np.integer)) else list(seed)
    # The key is the last entropy word, so the seed's words mix into the
    # pool as they would without a key; a seed shorter than the pool is
    # padded with zero words, which hash as the pool's missing words do.
    pools = np.array(
        [np.random.SeedSequence(s).pool for s in seeds], dtype=np.uint32
    ).reshape(len(seeds), 4)
    # hashes so far, per seed: one per pool word, 12 for the cross mix,
    # and one per pool word for each seed word beyond the pool
    calls = [16 + 4 * max(0, (int(s).bit_length() + 31) // 32 - 4) for s in seeds]
    hash_const = np.array(
        [_INIT_A * pow(_MULT_A, c, 1 << 32) & _MASK32 for c in calls],
        dtype=np.uint32,
    )[:, None]
    key = np.arange(trials, dtype=np.uint32)
    mixed = []
    for word in pools.T:
        # mix(pool word, hash(key)) for each pool word in turn, one row
        # per seed; uint32 arrays wrap, which is the mask to 32 bits
        hashed, hash_const = _hash_words(key, hash_const, _MULT_A)
        result = word[:, None] * np.uint32(_MIX_MULT_L)
        result = result - np.uint32(_MIX_MULT_R) * hashed
        result ^= result >> 16
        mixed.append(result.ravel())
    # generate_state(4, uint64): eight words cycled from the pool, read
    # as four little-endian 64-bit words
    state = []
    hash_const = _INIT_B
    for i in range(8):
        hashed, hash_const = _hash_words(mixed[i % 4], hash_const, _MULT_B)
        state.append(hashed.astype(np.uint64))
    # one column per row of the result, one row per round: see the
    # module docstring
    s_hi, s_lo, i_hi, i_lo = (
        (state[j] | state[j + 1] << 32)[None] for j in (0, 2, 4, 6)
    )
    # PCG64 seeding: inc = (initseq << 1) | 1, one LCG step from 0 to inc,
    # then initstate is added; the double of round c is the output of the
    # state c + 2 steps later.  Every operand is an array, which wraps
    # silently, and there is one state per (trial, round) cell.
    inc_hi = i_hi << 1 | i_lo >> 63
    inc_lo = i_lo << 1 | 1
    lo = inc_lo + s_lo
    hi = inc_hi + s_hi + (lo < s_lo)
    mult, total = _jump_table(range(2, count + 2))
    # five (count, rows) uint64 buffers hold every full-size product and
    # sum: the limbs of both terms and one scratch array
    shape = (count, hi.shape[1])
    a_hi, a_lo, b_hi, b_lo, tmp = (np.empty(shape, np.uint64) for _ in range(5))
    _mul128(hi, lo, mult, a_hi, a_lo, tmp)
    _mul128(inc_hi, inc_lo, total, b_hi, b_lo, tmp)
    lo, hi = b_lo, a_hi
    lo += a_lo
    hi += b_hi
    hi += lo < a_lo
    # XSL-RR output, then numpy's 53-bit double
    rot = np.right_shift(hi, 58, out=tmp)
    word = np.bitwise_xor(hi, lo, out=lo)
    np.right_shift(word, rot, out=a_lo)
    np.subtract(64, rot, out=rot)
    rot &= 63
    word <<= rot
    word |= a_lo
    word >>= 11
    doubles = word.astype(np.float64)
    doubles *= 2.0**-53
    return doubles.T


def _limbs(values: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """128-bit ints as their high and low uint64 limbs, one row each."""
    return (
        np.array([v >> 64 for v in values], dtype=np.uint64)[:, None],
        np.array([v & _MASK64 for v in values], dtype=np.uint64)[:, None],
    )


def _jump_table(steps: range) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The limbs of ``M^k`` and of ``M^(k-1) + ... + M + 1`` mod 2^128 for
    each ``k`` in ``steps``: ``k`` LCG steps take a state ``s`` to
    ``M^k s + (M^(k-1) + ... + M + 1) inc``."""
    mult, total = [], []
    power, partial = 1, 0
    for k in range(steps.stop):
        if k in steps:
            mult.append(power)
            total.append(partial)
        partial = partial + power & _MASK128
        power = power * _PCG64_MULT & _MASK128
    return _limbs(mult), _limbs(total)


def _mul128(
    x_hi: np.ndarray, x_lo: np.ndarray, y: tuple[np.ndarray, np.ndarray],
    hi: np.ndarray, lo: np.ndarray, tmp: np.ndarray,
) -> None:
    """Writes ``x * y mod 2^128`` on uint64 limbs, broadcast, to ``hi``
    and ``lo``; ``tmp`` is scratch of their shape.  The high word of
    ``x_lo * y_lo`` is summed from the products of 32-bit halves, and no
    partial sum exceeds 64 bits (Warren, Hacker's Delight, 8-2)."""
    y_hi, y_lo = y
    x0, x1 = x_lo & _MASK32, x_lo >> 32
    y0, y1 = y_lo & _MASK32, y_lo >> 32
    # lo holds mid = x1 y0 + (x0 y0 >> 32), hi holds mid2 = x0 y1 + (mid & M)
    np.multiply(x1, y0, out=lo)
    np.multiply(x0, y0, out=tmp)
    tmp >>= 32
    lo += tmp
    np.multiply(x0, y1, out=hi)
    np.bitwise_and(lo, _MASK32, out=tmp)
    hi += tmp
    # hi = x1 y1 + (mid >> 32) + (mid2 >> 32) + x_hi y_lo + x_lo y_hi
    hi >>= 32
    lo >>= 32
    hi += lo
    for u, v in ((x1, y1), (x_hi, y_lo), (x_lo, y_hi)):
        np.multiply(u, v, out=tmp)
        hi += tmp
    np.multiply(x_lo, y_lo, out=lo)
