import numpy as np
import pytest

from bmatch.seeds import derive_rng, substream_doubles

# one-word, two-word and four-word seeds, and one wider than numpy's
# four-word SeedSequence pool
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**200 + 12345]


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
@pytest.mark.parametrize("trials, count", [(1, 5), (4, 0), (4, 1), (1, 0)])
def test_batched_substreams_at_the_edges(seed, trials, count):
    batch = substream_doubles(seed, trials, count)
    assert batch.shape == (trials, count)
    assert batch.tobytes() == _reference(seed, trials, count).tobytes()


def test_negative_seed_is_rejected():
    with pytest.raises(ValueError):
        derive_rng(-1, 0)
    with pytest.raises(ValueError):
        substream_doubles(-1, 3, 2)


def test_trial_keys_must_fit_one_word():
    # a key of 2**32 or more has two words, which the batch does not mix
    with pytest.raises(ValueError):
        substream_doubles(0, 2**32 + 1, 1)
