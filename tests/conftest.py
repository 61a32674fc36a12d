"""Shared helpers for the test suite."""

from __future__ import annotations

import pytest

from bmatch.core import Instance
from bmatch.gen import GenConfig, generate_instance
from bmatch.mechanisms import AGENTS


def small_instances(count: int, seed: int, n_max: int = 4, m_max: int = 4,
                    b_high: int = 2, ps=(0.3, 0.6, 1.0)):
    """A deterministic stream of small markets cycling over shapes."""
    out = []
    for i in range(count):
        n = (i % n_max) + 1
        m = ((i // n_max) % m_max) + 1
        p = ps[i % len(ps)]
        cfg = GenConfig(n=n, m=m, p=p, capacity_low=1, capacity_high=b_high,
                        seed=seed)
        out.append(generate_instance(cfg, i))
    return out


@pytest.fixture(scope="session")
def small_batch():
    return small_instances(120, seed=1234)


def rebuilt_effective_instance(profile):
    """An agent-side reported market built from its materialized edges by
    the checked constructor: the reference for the patched build of
    ``build_effective_instance``."""
    assert profile.side == AGENTS
    base = profile.base
    rows = list(base.agent_adj)
    capacities = list(base.capacities)
    for a, report in enumerate(profile.reports):
        if report is not None:
            rows[a] = report.edges
            if report.capacity is not None:
                capacities[a] = report.capacity
    edges = [(a, t) for a, row in enumerate(rows) for t in row]
    return Instance(capacities, base.values, edges)
