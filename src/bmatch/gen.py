"""Seeded random market generation.

Capacities are uniform integers in a closed range, task values are
``max(Z, 0)`` for Gaussian ``Z`` (mean 3, standard deviation 0.77 by
default), and each of the n*m possible edges appears independently with
the connection probability.

The 0.77 parameter is read as a standard deviation; pass
``value_sigma`` explicitly for any other spread.  A truncated draw can
land exactly on 0 (about 5e-5 of the mass at the defaults); such tasks
are kept in the instance and simply never help anyone.

Instance ``index`` selects an independent substream of the seed, so any
instance of a batch is reproducible without generating the ones before
it, in any order, on any number of workers.  The draw order inside one
instance is fixed: capacities, then values, then edges row by row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Instance
from .seeds import derive_rng

__all__ = ["GenConfig", "generate_instance", "generate_batch"]


@dataclass(frozen=True)
class GenConfig:
    n: int
    m: int
    p: float
    capacity_low: int
    capacity_high: int
    value_mean: float = 3.0
    value_sigma: float = 0.77
    seed: int = 0

    def __post_init__(self):
        if self.n < 0 or self.m < 0:
            raise ValueError("n and m must be non-negative")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("connection probability must be in [0, 1]")
        if not 1 <= self.capacity_low <= self.capacity_high:
            raise ValueError("capacity bounds must satisfy 1 <= low <= high")
        if not (math.isfinite(self.value_mean) and math.isfinite(self.value_sigma)):
            raise ValueError("value mean and spread must be finite")
        if self.value_sigma < 0:
            raise ValueError("value spread must be non-negative")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


def generate_instance(cfg: GenConfig, index: int) -> Instance:
    """The ``index``-th instance of the stream identified by the config."""
    rng = derive_rng(cfg.seed, index)
    capacities = rng.integers(
        cfg.capacity_low, cfg.capacity_high + 1, size=cfg.n
    ).tolist()
    values = np.maximum(
        rng.normal(cfg.value_mean, cfg.value_sigma, size=cfg.m), 0.0
    ).tolist()
    mask = rng.random((cfg.n, cfg.m)) < cfg.p
    edges = np.argwhere(mask).tolist()
    return Instance(capacities, values, edges)


def generate_batch(cfg: GenConfig, count: int) -> list[Instance]:
    return [generate_instance(cfg, i) for i in range(count)]
