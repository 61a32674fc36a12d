"""The lottery sampler's probes against one probe at a time.

``mechanisms._lottery_samples`` draws and solves any probes, of one
agent or of many, in one call.  Each probe's rows must be its agent's
column of ``randomized_utility_samples`` on the reported profile, bit
for bit, and so must the mean and the standard error the harness reads
from them.
The grids are c11's shape, small tight markets, and both with every task
value tied.
"""

import numpy as np
import pytest

from bmatch import solver
from bmatch.core import Instance
from bmatch.gen import GenConfig, generate_instance
from bmatch.harness import _stderr
from bmatch.mechanisms import (
    AGENTS,
    AgentReport,
    Profile,
    _lottery_samples,
    randomized_utility_samples,
    truthful_profile,
)
from bmatch.solver import _State, _flip_depth_two
from bmatch.strategies import KOrder, _family_reports

# KOrder(k) for k >= an agent's degree falls back to its best edge
SPECS = [KOrder(k) for k in range(5)]


def _grid() -> list[Instance]:
    shapes = [(GenConfig(20, 25, 0.2, 3, 3, seed=301), 2),
              (GenConfig(6, 10, 0.5, 1, 2, seed=302), 4)]
    markets = []
    for sigma in (0.77, 0.0):
        for cfg, count in shapes:
            cfg = GenConfig(cfg.n, cfg.m, cfg.p, cfg.capacity_low,
                            cfg.capacity_high, value_sigma=sigma, seed=cfg.seed)
            markets += [generate_instance(cfg, i) for i in range(count)]
    return markets


class _Counts:
    """The deviant of the probes being solved, and the rows where it
    hides the start task that take the depth-2 flip or fall back."""

    deviant = None
    flips = 0
    fallbacks = 0


def _hides(inst, a, t, reported) -> bool:
    return t in inst.agent_adj[a] and a not in reported


def _counted_depth_two(markets, start, rows, ids, *arrays):
    left = _flip_depth_two(markets, start, rows, ids, *arrays)
    if markets.entities:
        (a,) = markets.entities
        moved = ~np.isin(rows, left)
        for i in np.flatnonzero(moved).tolist():
            reported = markets.market(int(ids[i])).task_adj[start]
            _Counts.flips += _hides(markets.inst, a, start, reported)
    return left


class _CountedState(_State):
    # within a probe call only the pass's fallback runs a state
    def run(self, traversal, start=0, *args, **kwargs):
        if _Counts.deviant is not None:
            a, inst = _Counts.deviant
            t = self.task_order[start]
            _Counts.fallbacks += _hides(inst, a, t, self.task_agents[t])
        return super().run(traversal, start, *args, **kwargs)


def _probe(monkeypatch, inst, a, reports, trials, seeds):
    monkeypatch.setattr(solver, "_State", _CountedState)
    monkeypatch.setattr(solver, "_flip_depth_two", _counted_depth_two)
    _Counts.deviant = (a, inst)
    try:
        got = _lottery_samples(truthful_profile(inst), trials, seeds,
                               [(a, report) for report in reports])
    finally:
        _Counts.deviant = None
    assert got.shape == (len(reports) * trials, 1)
    return got.reshape(len(reports), trials)


@pytest.mark.parametrize("trials", [1, 10, 250])
def test_each_probe_equals_its_own_sampler_call(monkeypatch, trials):
    _Counts.flips = _Counts.fallbacks = 0
    probes = single = 0
    for index, inst in enumerate(_grid()):
        truthful = truthful_profile(inst)
        for a in range(inst.n):
            if not inst.agent_adj[a]:
                continue
            reports = list(_family_reports(inst, a, SPECS))
            if not reports:
                continue
            seeds = [1_000 * index + 10 * a + i for i in range(len(reports))]
            got = _probe(monkeypatch, inst, a, reports, trials, seeds)
            for samples, report, seed in zip(got, reports, seeds):
                profile = truthful.with_report(a, report)
                expected = randomized_utility_samples(profile, trials, seed)[:, a]
                assert samples.tobytes() == expected.tobytes(), (index, a, report)
                assert samples.mean().tobytes() == expected.mean().tobytes()
                assert _stderr(samples) == _stderr(expected)
                probes += 1
                single += len(report.edges) == 1
    assert probes > 100 and single > 0
    if trials == 250:
        assert _Counts.flips > 0 and _Counts.fallbacks > 0


def test_a_task_only_the_deviant_hides_has_no_search(monkeypatch):
    # task 1 has agent 0 alone, and KOrder(1) hides it: no row of the
    # probe searches from it, so none falls back to the state machine
    inst = Instance([1, 1], [3.0, 1.0], [(0, 0), (0, 1), (1, 0)])
    reports = list(_family_reports(inst, 0, [KOrder(1)]))
    assert reports == [AgentReport(edges=(0,))]
    _Counts.fallbacks = 0
    got = _probe(monkeypatch, inst, 0, reports, 50, [7])
    profile = truthful_profile(inst).with_report(0, reports[0])
    expected = randomized_utility_samples(profile, 50, 7)[:, 0]
    assert got[0].tobytes() == expected.tobytes()
    assert _Counts.fallbacks == 0


def test_probes_keep_the_checks_of_a_reported_profile():
    inst = generate_instance(GenConfig(6, 10, 0.5, 1, 2, seed=302), 0)
    truthful = truthful_profile(inst)
    a = next(a for a in range(inst.n) if inst.agent_adj[a] and inst.capacities[a] > 1)
    best = AgentReport(inst.agent_adj[a][:1])
    outside = next(t for t in range(inst.m) if t not in inst.agent_adj[a])
    with pytest.raises(ValueError, match="non-existing edges"):
        _lottery_samples(truthful, 5, [1], [(a, AgentReport(edges=(outside,)))])
    with pytest.raises(ValueError, match="at least 1"):
        _lottery_samples(truthful, 0, [1], [(a, best)])
    with pytest.raises(ValueError, match="capacity"):
        _lottery_samples(truthful, 5, [1], [(a, AgentReport(best.edges, capacity=1))])


def _assert_probes_on_a_misreported_profile(profile, a, reports, trials, seeds):
    got = _lottery_samples(profile, trials, seeds, [(a, report) for report in reports])
    got = got.reshape(len(reports), trials)
    for samples, report, seed in zip(got, reports, seeds):
        expected = randomized_utility_samples(profile.with_report(a, report), trials, seed)
        assert samples.tobytes() == expected[:, a].tobytes(), (a, report)
    return got


def test_a_probe_lists_a_task_the_profile_report_hides():
    # agent 0 reports task 1 only; the probe lists task 0 again, and in
    # the orders that put agent 0 first it takes task 0, worth 2.0
    inst = Instance([1, 1], [2.0, 1.0], [(0, 0), (0, 1), (1, 0), (1, 1)])
    profile = truthful_profile(inst).with_report(0, AgentReport(edges=(1,)))
    got = _assert_probes_on_a_misreported_profile(
        profile, 0, [AgentReport(edges=(0, 1))], 20, [7])
    assert (got == 2.0).any()


def test_probes_on_a_profile_where_every_agent_hides_its_first_task():
    # c11's shape; each probe lists the first task of the agent's true
    # row, which the agent's own profile report hides
    inst = generate_instance(GenConfig(20, 25, 0.2, 3, 3, seed=11), 0)
    deep = [a for a in range(inst.n) if len(inst.agent_adj[a]) > 1]
    reports = [AgentReport(inst.agent_adj[a][1:]) if a in deep else None
               for a in range(inst.n)]
    profile = truthful_profile(inst)
    for a, report in enumerate(reports):
        profile = profile.with_report(a, report)
    assert len(deep) > 10
    for a in deep:
        probes = [AgentReport(inst.agent_adj[a]), AgentReport(inst.agent_adj[a][:1])]
        _assert_probes_on_a_misreported_profile(profile, a, probes, 20, [11 * a, 11 * a + 1])


def _hiding_profile(inst):
    """Every agent with two or more tasks hides its first one."""
    return Profile(AGENTS, inst, tuple(
        AgentReport(adj[1:]) if len(adj) > 1 else None for adj in inst.agent_adj))


@pytest.mark.parametrize("hide", [False, True])
def test_probes_of_every_agent_equal_their_own_sampler_calls(hide):
    # all probes of all agents, in passes of 1 probe, 4 probes and one
    # pass over all of them
    trials = 25
    probes = checked = 0
    for index, inst in enumerate(_grid()):
        profile = _hiding_profile(inst) if hide else truthful_profile(inst)
        flat = [(a, report) for a in range(inst.n) if inst.agent_adj[a]
                for report in _family_reports(inst, a, SPECS)]
        seeds = [1_000 * index + i for i in range(len(flat))]
        expected = [
            randomized_utility_samples(profile.with_report(a, report), trials, seed)[:, a]
            for (a, report), seed in zip(flat, seeds)]
        for cut in (1, 4, len(flat)):
            for first in range(0, len(flat), cut):
                batch = flat[first:first + cut]
                got = _lottery_samples(profile, trials, seeds[first:first + cut], batch)
                assert got.shape == (len(batch) * trials, 1)
                for i, samples in enumerate(got.reshape(len(batch), trials)):
                    want = expected[first + i]
                    assert samples.tobytes() == want.tobytes(), (index, cut, batch[i])
                    assert samples.mean().tobytes() == want.mean().tobytes()
                    assert _stderr(samples) == _stderr(want)
                    checked += 1
        probes += len(flat)
    assert probes > 400 and checked == 3 * probes


def test_probes_and_probing_agents_keep_their_capacity():
    inst = generate_instance(GenConfig(6, 10, 0.5, 1, 2, seed=302), 0)
    a, b = [a for a in range(inst.n) if inst.agent_adj[a] and inst.capacities[a] > 1][:2]
    probe = (a, AgentReport(inst.agent_adj[a]))
    cut = AgentReport(inst.agent_adj[b], capacity=1)
    with pytest.raises(ValueError, match="a probe of agent"):
        _lottery_samples(truthful_profile(inst), 5, [1, 2],
                         [probe, (b, AgentReport(inst.agent_adj[b], capacity=1))])
    # a probing agent's profile report, whether it probes first or not
    profile = truthful_profile(inst).with_report(b, cut)
    for probes in ([probe, (b, AgentReport(inst.agent_adj[b]))],
                   [(b, AgentReport(inst.agent_adj[b])), probe]):
        with pytest.raises(ValueError, match="profile report of agent"):
            _lottery_samples(profile, 5, [1, 2], probes)
    # an agent that does not probe may report any capacity
    got = _lottery_samples(profile, 5, [1], [probe])
    expected = randomized_utility_samples(profile.with_report(*probe), 5, 1)[:, a]
    assert got[:, 0].tobytes() == expected.tobytes()


def test_every_row_of_a_pass_draws_as_many_rounds():
    # agent 0 withdraws in the profile, so a probe of agent 1 draws one
    # round fewer than a probe of agent 0
    inst = Instance([1, 1], [2.0, 1.0], [(0, 0), (0, 1), (1, 0), (1, 1)])
    profile = truthful_profile(inst).with_report(0, AgentReport(edges=()))
    probes = [(0, AgentReport(edges=(0,))), (1, AgentReport(edges=(1,)))]
    with pytest.raises(ValueError, match="rounds"):
        _lottery_samples(profile, 5, [1, 2], probes)
    for probe in probes:
        _assert_probes_on_a_misreported_profile(profile, probe[0], [probe[1]], 5, [3])
