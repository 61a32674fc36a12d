import math

import numpy as np
import pytest

from bmatch.core import Instance
from bmatch.gen import GenConfig, generate_batch, generate_instance
from bmatch.seeds import derive_rng


def test_identical_config_and_index_reproduce_bit_for_bit():
    cfg = GenConfig(n=5, m=7, p=0.5, capacity_low=1, capacity_high=4, seed=42)
    a = generate_instance(cfg, 3)
    b = generate_instance(cfg, 3)
    assert a.capacities == b.capacities
    assert a.values == b.values
    assert a.edge_set() == b.edge_set()


def test_indices_are_independent_substreams():
    cfg = GenConfig(n=4, m=4, p=0.5, capacity_low=1, capacity_high=2, seed=42)
    batch = generate_batch(cfg, 4)
    direct = generate_instance(cfg, 3)
    assert batch[3] == direct
    assert batch[0] != batch[1]


def _loop_built_instance(cfg, index):
    """``generate_instance`` with the edges listed one ``int()`` pair at a
    time: the reference for the generator's single ``tolist`` call."""
    rng = derive_rng(cfg.seed, index)
    capacities = rng.integers(cfg.capacity_low, cfg.capacity_high + 1, size=cfg.n)
    values = np.maximum(rng.normal(cfg.value_mean, cfg.value_sigma, size=cfg.m), 0.0)
    mask = rng.random((cfg.n, cfg.m)) < cfg.p
    edges = [(int(a), int(t)) for a, t in np.argwhere(mask)]
    return Instance(capacities.tolist(), values.tolist(), edges)


def test_edges_match_the_per_pair_reference():
    for cfg in (GenConfig(20, 200, 0.2, 3, 7, seed=9), GenConfig(7, 5, 0.6, 1, 2, seed=4),
                GenConfig(0, 3, 0.5, 1, 1, seed=1), GenConfig(3, 0, 0.5, 1, 1, seed=1)):
        for i in range(5):
            got, want = generate_instance(cfg, i), _loop_built_instance(cfg, i)
            assert got == want
            assert got.task_adj == want.task_adj and got.task_order == want.task_order


def test_connection_probability_extremes():
    full = generate_instance(GenConfig(3, 4, 1.0, 1, 1, seed=1), 0)
    assert len(full.edge_set()) == 12
    empty = generate_instance(GenConfig(3, 4, 0.0, 1, 1, seed=1), 0)
    assert empty.edge_set() == frozenset()


def test_capacities_respect_bounds():
    cfg = GenConfig(n=50, m=1, p=0.0, capacity_low=2, capacity_high=5, seed=3)
    inst = generate_instance(cfg, 0)
    assert all(2 <= c <= 5 for c in inst.capacities)
    assert set(inst.capacities) == {2, 3, 4, 5}


def test_generated_instances_validate():
    cfg = GenConfig(n=6, m=9, p=0.4, capacity_low=1, capacity_high=3, seed=8)
    for i in range(50):
        # the constructor raises on any violation, so building is the check
        inst = generate_instance(cfg, i)
        assert min(inst.capacities) >= 1 and min(inst.values) >= 0.0


def test_config_validation():
    with pytest.raises(ValueError):
        GenConfig(n=2, m=2, p=1.5, capacity_low=1, capacity_high=2)
    with pytest.raises(ValueError):
        GenConfig(n=2, m=2, p=0.5, capacity_low=0, capacity_high=2)
    with pytest.raises(ValueError):
        GenConfig(n=2, m=2, p=0.5, capacity_low=3, capacity_high=2)


@pytest.mark.parametrize("mean, sigma", [
    (math.inf, 0.77), (-math.inf, 0.77), (math.nan, 0.77),
    (3.0, math.inf), (3.0, math.nan),
])
def test_config_rejects_non_finite_value_parameters(mean, sigma):
    # an infinite draw would be written as the non-standard ``Infinity``
    with pytest.raises(ValueError, match="value mean and spread must be finite"):
        GenConfig(n=2, m=2, p=0.5, capacity_low=1, capacity_high=2,
                  value_mean=mean, value_sigma=sigma)


@pytest.mark.slow
def test_value_distribution_moments():
    cfg = GenConfig(n=0, m=100_000, p=0.0, capacity_low=1, capacity_high=1,
                    seed=314)
    values = np.asarray(generate_instance(cfg, 0).values)
    # truncation at zero moves the mean by well under 0.01 at this spread
    assert abs(values.mean() - 3.0) < 0.01
    assert (values == 0.0).mean() < 1e-4
    assert values.min() >= 0.0


@pytest.mark.slow
def test_edge_counts_match_the_binomial_mean():
    cfg = GenConfig(n=20, m=30, p=0.6, capacity_low=1, capacity_high=3,
                    seed=2718)
    counts = [len(generate_instance(cfg, i).edge_set()) for i in range(10_000)]
    mean = float(np.mean(counts))
    # mean of 10k binomial(600, 0.6) draws: sigma = sqrt(600*0.24/10000)
    sigma_mean = float(np.sqrt(600 * 0.6 * 0.4 / 10_000))
    assert abs(mean - 360.0) < 3 * sigma_mean
