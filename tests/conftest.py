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
    """A reported market, of either side, built from its materialized
    edges by the checked constructor: the reference for the patched
    build of ``build_effective_instance``."""
    base = profile.base
    agents = profile.side == AGENTS
    rows = list(base.agent_adj if agents else base.task_adj)
    bounds = list(base.capacities if agents else base.values)
    for e, report in enumerate(profile.reports):
        if report is not None:
            rows[e] = report.edges
            bound = report.capacity if agents else report.value
            if bound is not None:
                bounds[e] = bound
    pairs = [(e, peer) for e, row in enumerate(rows) for peer in row]
    if agents:
        return Instance(bounds, base.values, pairs)
    return Instance(base.capacities, bounds, [(a, t) for t, a in pairs])
