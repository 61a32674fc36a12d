"""Equilibrium and coalition checks against references composed from
per-agent best responses and chained ``with_report`` profiles.

``verify_nash`` runs one deviation pass over the profile, and the oracle
solves every joint report in one vector pass over the players' stacked
option rows, without a ``Profile``.  The references below
answer the same questions the long way: a ``run_mechanism`` baseline
with one best-response search per agent, and joint profiles built one
``with_report`` at a time.
"""

import itertools
import random
from collections import Counter
from math import inf

import pytest

from bmatch import mechanisms, oracle, strategies
from bmatch.core import WEIGHT_TOL, Instance, agent_utility, task_utility
from bmatch.fixtures import complete_three_agent_instance
from bmatch.mechanisms import (
    AGENTS,
    TASKS,
    AgentReport,
    MechanismKind,
    Profile,
    run_mechanism,
    truthful_profile,
    worst_ne_profile,
)
from bmatch.oracle import (
    CoalitionDeviation,
    enumerate_pure_nash,
    find_agent_coalition,
    find_task_coalition,
)
from bmatch.strategies import (
    ProfitableDeviation,
    _report_candidates,
    best_response_exhaustive,
    verify_nash,
)
from conftest import small_instances

_KINDS = (MechanismKind.MBFS, MechanismKind.MDFS, MechanismKind.MAP)


def _reference_verify_nash(profile, kind, setting):
    inst = profile.base
    mu = run_mechanism(kind, profile)
    for a in range(inst.n):
        if not inst.agent_adj[a]:
            continue
        current = agent_utility(inst, mu, a)
        report, utility = best_response_exhaustive(
            inst, kind, a, others=profile.with_report(a, None), setting=setting)
        if utility > current + WEIGHT_TOL:
            return False, ProfitableDeviation(a, report, current, utility)
    return True, None


def _reference_joint_outcomes(inst, kind, side, entities):
    truthful = truthful_profile(inst, side)
    option_sets = [_report_candidates(inst, side, e, "ems") for e in entities]
    for key in itertools.product(*(range(len(o)) for o in option_sets)):
        profile = truthful
        for e, options, choice in zip(entities, option_sets, key):
            profile = profile.with_report(e, options[choice])
        yield key, profile, run_mechanism(kind, profile)


def _reference_pure_nash(inst, kind):
    players = [a for a in range(inst.n) if inst.agent_adj[a]]
    counts = [len(_report_candidates(inst, AGENTS, a, "ems")) for a in players]
    outcomes = {
        key: (profile, tuple(agent_utility(inst, mu, a) for a in range(inst.n)))
        for key, profile, mu in _reference_joint_outcomes(inst, kind, AGENTS, players)
    }
    equilibria = []
    for key, (profile, utils) in outcomes.items():
        stable = True
        for idx, player in enumerate(players):
            for alt in range(counts[idx]):
                alt_key = key[:idx] + (alt,) + key[idx + 1:]
                if outcomes[alt_key][1][player] > utils[player] + WEIGHT_TOL:
                    stable = False
        if stable:
            welfare = 0.0
            for u in utils:
                welfare += u
            equilibria.append((profile, welfare))
    return equilibria


def _reference_coalition(inst, kind, side, max_size):
    if side == AGENTS:
        adjacency, utility = inst.agent_adj, lambda mu, e: agent_utility(inst, mu, e)
    else:
        adjacency, utility = inst.task_adj, lambda mu, e: float(task_utility(mu, e))
    mu = run_mechanism(kind, truthful_profile(inst, side))
    eligible = [e for e, adj in enumerate(adjacency) if adj]
    for size in range(1, max_size + 1):
        for coalition in itertools.combinations(eligible, size):
            old = tuple(utility(mu, e) for e in coalition)
            joint_outcomes = _reference_joint_outcomes(inst, kind, side, coalition)
            for _, profile, dev in joint_outcomes:
                new = tuple(utility(dev, e) for e in coalition)
                if all(u >= o - WEIGHT_TOL for u, o in zip(new, old)) and any(
                        u > o + WEIGHT_TOL for u, o in zip(new, old)):
                    joint = tuple(profile.reports[e] for e in coalition)
                    return CoalitionDeviation(coalition, joint, old, new)
    return None


def _random_agent_profile(inst, rnd):
    """A profile in which some agents hide edges, lower their capacity or
    withdraw, and the rest report truthfully."""
    reports = []
    for a, adj in enumerate(inst.agent_adj):
        draw = rnd.random()
        if not adj or draw < 0.3:
            reports.append(None)
        elif draw < 0.4:
            reports.append(AgentReport(()))
        else:
            edges = tuple(t for t in adj if rnd.random() < 0.6) or adj[:1]
            capacity = rnd.choice([None, *range(1, inst.capacities[a] + 1)])
            reports.append(AgentReport(edges, capacity))
    return Profile(AGENTS, inst, tuple(reports))


def _markets(count, seed):
    # 1-3 agents x 1-4 tasks, capacities up to 2, and every third market
    # with rounded values so that ties occur
    markets = small_instances(count, seed=seed, n_max=3, m_max=4)
    for i, inst in enumerate(markets[::3]):
        markets[3 * i] = type(inst)(
            list(inst.capacities), [float(round(v)) for v in inst.values],
            sorted(inst.edge_set()))
    return markets


@pytest.mark.parametrize("setting", ["ems", "ecms"])
def test_verify_nash_equals_per_agent_best_responses(setting):
    rnd = random.Random(20261019)
    verdicts = []
    for inst in _markets(48, seed=4141):
        profiles = [truthful_profile(inst), _random_agent_profile(inst, rnd),
                    worst_ne_profile(inst)[0]]
        for profile in profiles:
            for kind in _KINDS:
                got = verify_nash(profile, kind, setting)
                assert got == _reference_verify_nash(profile, kind, setting), (
                    inst, profile, kind)
                verdicts.append(got[0])
    # both verdicts occur, so both return paths are compared
    assert True in verdicts and False in verdicts


def test_oracle_loop_equals_chained_profiles():
    found = 0
    for inst in _markets(24, seed=5151):
        for kind in _KINDS:
            assert enumerate_pure_nash(inst, kind) == _reference_pure_nash(inst, kind)
            agent = find_agent_coalition(inst, kind, max_size=2)
            task = find_task_coalition(inst, kind, max_size=2)
            assert agent == _reference_coalition(inst, kind, AGENTS, 2)
            assert task == _reference_coalition(inst, kind, TASKS, 2)
            found += (agent is not None) + (task is not None)
    assert found > 0


@pytest.mark.parametrize("kind", _KINDS)
def test_verify_nash_journals_one_solve(monkeypatch, kind):
    # the worst equilibrium passes, so every agent's reports are tried;
    # strategies holds its own reference to solver._solve_journaled
    calls = []
    journaled = strategies._solve_journaled

    def counting(*args):
        calls.append(args)
        return journaled(*args)

    monkeypatch.setattr(strategies, "_solve_journaled", counting)
    profile, _ = worst_ne_profile(complete_three_agent_instance())
    ok, _ = verify_nash(profile, kind)
    assert ok
    assert len(calls) == 1


def _joint_groups(inst, side):
    """Every coalition of one or two entities with edges, and all of them."""
    adjacency = inst.agent_adj if side == AGENTS else inst.task_adj
    eligible = [e for e, adj in enumerate(adjacency) if adj]
    small = [c for size in (1, 2) for c in itertools.combinations(eligible, size)]
    return small + [tuple(eligible)]


@pytest.mark.parametrize("kind", _KINDS)
def test_joint_markets_equal_built_profiles(kind):
    # every row the loop solves is the mechanism's outcome on the joint
    # profile chained one ``with_report`` at a time
    compared = 0
    for inst in _markets(24, seed=5151):
        for side in (AGENTS, TASKS):
            for entities in _joint_groups(inst, side):
                _, owners = oracle._joint_outcomes(
                    inst, kind, side, entities, oracle.NASH_PROFILE_CAP)
                expected = [mu for _, _, mu in _reference_joint_outcomes(
                    inst, kind, side, entities)]
                assert list(map(tuple, owners.tolist())) == expected, (
                    inst, side, entities)
                compared += len(expected)
    assert compared > 1000


def test_oracle_checks_each_option_once_and_builds_no_profile(monkeypatch):
    # options are checked once per joint-report loop; no loop builds a
    # market through build_effective_instance
    built, checked = [], []
    build, bounded = mechanisms.build_effective_instance, oracle._bounded_report

    def counting_build(profile):
        built.append(profile)
        return build(profile)

    def counting_check(base, side, e, report):
        checked.append((side, e, report))
        return bounded(base, side, e, report)

    for module in (mechanisms, strategies):
        monkeypatch.setattr(module, "build_effective_instance", counting_build)
    monkeypatch.setattr(oracle, "_bounded_report", counting_check)
    inst = complete_three_agent_instance()
    candidates = [_report_candidates(inst, AGENTS, a, "ems") for a in range(inst.n)]

    enumerate_pure_nash(inst, MechanismKind.MBFS)
    assert Counter(checked) == Counter(
        (AGENTS, a, r) for a in range(inst.n) for r in candidates[a])

    checked.clear()
    found = find_agent_coalition(inst, MechanismKind.MBFS, max_size=2)
    expected = Counter()
    for coalition in itertools.chain.from_iterable(
            itertools.combinations(range(inst.n), size) for size in (1, 2)):
        expected.update((AGENTS, a, r) for a in coalition for r in candidates[a])
        if found is not None and coalition == found.entities:
            break
    assert Counter(checked) == expected
    assert built == []


@pytest.mark.parametrize("values", [(inf, 1.0, inf), (1.0, 1.0 + 1e-12, 1.0)],
                         ids=["infinite", "within-tolerance"])
@pytest.mark.parametrize("kind", [MechanismKind.MBFS, MechanismKind.MDFS])
def test_pure_nash_at_extreme_values(kind, values):
    # the constructor accepts an infinite value; a utility less than
    # WEIGHT_TOL above another is no improvement
    inst = Instance([1, 2], values, [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2)])
    equilibria = enumerate_pure_nash(inst, kind)
    assert equilibria and equilibria == _reference_pure_nash(inst, kind)
