import tracemalloc

import numpy as np
import pytest

from bmatch.seeds import derive_rng, substream_doubles

# seeds of one, two, four, five, seven and nine 32-bit words: narrower
# than numpy's four-word SeedSequence pool, as wide, and wider
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**200 + 12345,
         987654321, 2**96 + 1, 2**128 + 1, 2**256 + 1]


def _reference(seed, trials, count):
    return np.stack([derive_rng(seed, k).random(count) for k in range(trials)])


@pytest.mark.parametrize("seed", SEEDS)
def test_batched_substreams_equal_derive_rng(seed):
    # 6 seeds x 350 keys: every PCG64 state the batch reaches is the one
    # SeedSequence and PCG64 reach for the same key
    batch = substream_doubles(seed, 350, 3)
    assert batch.shape == (350, 3) and batch.dtype == np.float64
    assert batch.tobytes() == _reference(seed, 350, 3).tobytes()


@pytest.mark.parametrize("seed", SEEDS)
# 2, 64 and 300 rounds jump the PCG64 state up to 301 steps past seeding
@pytest.mark.parametrize(
    "trials, count", [(1, 5), (4, 0), (4, 1), (1, 0), (3, 2), (2, 64), (2, 300)]
)
def test_batched_substreams_at_the_edges(seed, trials, count):
    batch = substream_doubles(seed, trials, count)
    assert batch.shape == (trials, count)
    assert batch.tobytes() == _reference(seed, trials, count).tobytes()


@pytest.mark.parametrize("count", [0, 3])
def test_no_trials_give_no_rows(count):
    batch = substream_doubles(7, 0, count)
    assert batch.shape == (0, count) and batch.dtype == np.float64


def test_negative_seed_is_rejected():
    with pytest.raises(ValueError):
        derive_rng(-1, 0)
    with pytest.raises(ValueError):
        substream_doubles(-1, 3, 2)


def test_trial_keys_must_fit_one_word():
    # a key of 2**32 or more has two words, which the batch does not mix
    with pytest.raises(ValueError):
        substream_doubles(0, 2**32 + 1, 1)


def test_a_seed_vector_stacks_the_rows_of_each_seed():
    # one and two pool words, and a seed of five words, which shifts the
    # hash constant of its rows only
    seeds = [0, 1, 2**63 - 1, 2**64 + 1, 2**130]
    batch = substream_doubles(seeds, 40, 7)
    assert batch.shape == (len(seeds) * 40, 7)
    stacked = np.concatenate([substream_doubles(s, 40, 7) for s in seeds])
    assert batch.tobytes() == stacked.tobytes()
    assert batch[-40:].tobytes() == _reference(2**130, 40, 7).tobytes()
    assert substream_doubles([], 4, 3).shape == (0, 3)


def test_a_seed_vector_keeps_the_checks():
    with pytest.raises(ValueError):
        substream_doubles([3, -1], 3, 2)
    with pytest.raises(ValueError):
        substream_doubles([0, 1], 2**32 + 1, 1)


def test_a_lottery_pass_of_doubles_equals_derive_rng():
    # 20 seeds x 250 trials x 20 rounds, as a pass of the order lottery
    # calls it: the round-major table's transposed view, row by row
    seeds = list(range(200, 220))
    batch = substream_doubles(seeds, 250, 20)
    assert batch.shape == (5000, 20) and batch.flags.f_contiguous
    for i, seed in enumerate(seeds):
        rows = batch[250 * i : 250 * (i + 1)]
        assert rows.tobytes() == _reference(seed, 250, 20).tobytes(), seed


def test_a_lottery_pass_of_doubles_stays_small():
    # 9 seeds x 250 trials x 20 rounds, one pass of the order lottery:
    # 360 kB of doubles.  The limbs are computed in five preallocated
    # buffers, where a fresh array per operation peaked at 4.26 MB.
    seeds = list(range(100, 109))
    substream_doubles(seeds, 250, 20)
    tracemalloc.start()
    try:
        substream_doubles(seeds, 250, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000
