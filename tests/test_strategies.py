import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmatch import strategies
from bmatch.core import Instance, SizeCapExceededError, agent_utility, task_utility
from bmatch.fixtures import (
    complete_three_agent_instance,
    epsilon_gap_instance,
    geometric_cascade_instance,
)
from bmatch.mechanisms import (
    AGENTS,
    TASKS,
    AgentReport,
    MechanismKind,
    TaskReport,
    first_agent_best_report,
    run_mechanism,
    truthful_profile,
    worst_ne_profile,
)
from bmatch.strategies import (
    ExplicitReport,
    KOrder,
    TLevel,
    TopB,
    apply_manipulation,
    best_response_exhaustive,
    mpug,
    pma,
    pmi,
    unilateral_deviations,
    utility_gain_ratio,
    verify_nash,
)
from conftest import small_instances


def test_threshold_manipulation_keeps_values_at_or_above_cutoff():
    inst = geometric_cascade_instance()
    assert apply_manipulation(inst, 0, TLevel(0.2)).edges == (0, 1)
    # a cutoff above every value clamps to the single best edge
    assert apply_manipulation(inst, 0, TLevel(9.0)).edges == (0,)


def test_order_manipulation_drops_lowest_values():
    inst = geometric_cascade_instance()
    assert apply_manipulation(inst, 0, KOrder(0)).edges == (0, 1, 2, 3)
    assert apply_manipulation(inst, 0, KOrder(2)).edges == (0, 1)
    assert apply_manipulation(inst, 0, KOrder(99)).edges == (0,)
    with pytest.raises(ValueError):
        apply_manipulation(inst, 0, KOrder(-1))


def test_order_manipulation_drops_higher_ids_among_ties():
    inst = Instance.from_parts([2], [1.0, 0.5, 0.5], [(0, 0), (0, 1), (0, 2)])
    assert apply_manipulation(inst, 0, KOrder(1)).edges == (0, 1)


def test_top_capacity_manipulation():
    inst = geometric_cascade_instance()
    assert apply_manipulation(inst, 0, TopB()).edges == (0, 1)
    assert apply_manipulation(inst, 1, TopB()).edges == (0,)


def test_manipulation_requires_edges():
    isolated = Instance.from_parts([1, 1], [1.0], [(1, 0)])
    with pytest.raises(ValueError):
        apply_manipulation(isolated, 0, TopB())


def test_gain_ratio_on_epsilon_market():
    inst = epsilon_gap_instance(0.5)
    report = utility_gain_ratio(inst, MechanismKind.MBFS, 0, TopB())
    assert report.truthful_utility == pytest.approx(1.0)
    assert report.manipulated_utility == pytest.approx(1.5)
    assert report.gain_ratio == pytest.approx(0.5)


def test_gain_ratio_is_zero_without_change():
    inst = epsilon_gap_instance(0.5)
    report = utility_gain_ratio(inst, MechanismKind.MBFS, 1, TopB())
    assert report.gain_ratio == 0.0


def test_gain_ratio_uses_zero_over_zero_convention():
    # the third agent stays unmatched truthfully and after manipulating
    inst = complete_three_agent_instance()
    report = utility_gain_ratio(inst, MechanismKind.MBFS, 2, KOrder(1))
    assert report.truthful_utility == 0.0
    assert report.manipulated_utility == 0.0
    assert report.gain_ratio == 1.0


def test_instance_gain_maximum():
    inst = epsilon_gap_instance(0.5)
    assert mpug(inst, MechanismKind.MBFS, [1.2]) == pytest.approx(0.5)
    # a cutoff below every value keeps all edges: nothing changes
    assert mpug(inst, MechanismKind.MBFS, [0.01]) == 0.0
    with pytest.raises(ValueError):
        mpug(inst, MechanismKind.MBFS, [])


def test_instance_gain_excludes_degenerate_zero_agents():
    # nobody can gain here: ratios stay at 0 even though the third agent
    # would contribute 1 under the bare 0/0 convention
    inst = complete_three_agent_instance()
    assert mpug(inst, MechanismKind.MBFS, [0.7, 2.0]) == 0.0


def test_manipulative_agent_fraction():
    inst = epsilon_gap_instance(0.5)
    assert pma(inst, MechanismKind.MBFS, [TopB()]) == pytest.approx(0.5)
    quiet = Instance.from_parts([1, 1], [1.0], [])
    assert pma(quiet, MechanismKind.MBFS, [TopB()]) == 0.0
    with pytest.raises(ValueError):
        pma(inst, MechanismKind.MBFS, [])


def test_manipulable_instance_fraction():
    gainful = epsilon_gap_instance(0.5)
    quiet = Instance.from_parts([1, 1], [1.0], [])
    assert pmi([gainful], MechanismKind.MBFS, [TopB()]) == 1.0
    assert pmi([quiet], MechanismKind.MBFS, [TopB()]) == 0.0
    assert pmi([gainful, quiet], MechanismKind.MBFS, [TopB()]) == 0.5
    with pytest.raises(ValueError):
        pmi([], MechanismKind.MBFS, [TopB()])


def test_explicit_report_spec_passes_through():
    inst = epsilon_gap_instance(0.5)
    spec = ExplicitReport(AgentReport(edges=(0,)))
    report = utility_gain_ratio(inst, MechanismKind.MBFS, 0, spec)
    assert report.gain_ratio == pytest.approx(0.5)


def test_best_response_on_epsilon_market():
    inst = epsilon_gap_instance(0.5)
    report, utility = best_response_exhaustive(inst, MechanismKind.MBFS, 0)
    assert report.edges == (0,)
    assert utility == pytest.approx(1.5)


def test_best_response_matches_truthful_when_nothing_helps():
    inst = epsilon_gap_instance(0.5)
    truthful = truthful_profile(inst)
    mu = run_mechanism(MechanismKind.MBFS, truthful)
    _, utility = best_response_exhaustive(inst, MechanismKind.MBFS, 1)
    assert utility == pytest.approx(agent_utility(inst, mu, 1))


def test_best_response_input_guards():
    isolated = Instance.from_parts([1, 1], [1.0], [(1, 0)])
    with pytest.raises(ValueError):
        best_response_exhaustive(isolated, MechanismKind.MBFS, 0)
    wide = Instance.from_parts([1], [1.0] * 21,
                               [(0, t) for t in range(21)])
    with pytest.raises(SizeCapExceededError):
        best_response_exhaustive(wide, MechanismKind.MBFS, 0)


def test_worst_equilibrium_verifies_on_random_markets():
    for inst in small_instances(25, seed=2025, n_max=3):
        profile, _ = worst_ne_profile(inst)
        for kind in (MechanismKind.MBFS, MechanismKind.MDFS):
            ok, deviation = verify_nash(profile, kind)
            assert ok, deviation


def test_truthful_profile_of_epsilon_market_is_not_an_equilibrium():
    inst = epsilon_gap_instance(0.5)
    ok, deviation = verify_nash(truthful_profile(inst), MechanismKind.MBFS)
    assert not ok
    assert deviation.entity == 0
    assert deviation.report.edges == (0,)


def test_single_agent_truthful_profile_is_an_equilibrium():
    inst = Instance.from_parts([1], [1.0, 0.5], [(0, 0), (0, 1)])
    ok, _ = verify_nash(truthful_profile(inst), MechanismKind.MBFS)
    assert ok


def test_top_capacity_report_is_the_first_agents_best_response():
    markets = small_instances(40, seed=606, n_max=4, m_max=4)
    # a few wider markets push the enumeration to degree 8
    markets += small_instances(10, seed=607, n_max=4, m_max=8, b_high=3)
    for inst in markets:
        if not inst.agent_adj[0]:
            continue
        for kind in (MechanismKind.MBFS, MechanismKind.MDFS):
            _, best = best_response_exhaustive(inst, kind, 0)
            report = AgentReport(edges=first_agent_best_report(inst))
            mu = run_mechanism(
                kind, truthful_profile(inst).with_report(0, report))
            assert agent_utility(inst, mu, 0) == pytest.approx(best, abs=1e-9)


def test_unmatched_agents_cannot_gain_by_hiding():
    for inst in small_instances(40, seed=808):
        for kind in (MechanismKind.MBFS, MechanismKind.MDFS):
            mu = run_mechanism(kind, truthful_profile(inst))
            for a in range(inst.n):
                if not inst.agent_adj[a]:
                    continue
                if agent_utility(inst, mu, a) > 1e-9:
                    continue
                _, best = best_response_exhaustive(inst, kind, a)
                assert best <= 1e-9, (inst, kind, a)


def test_greedy_mechanism_resists_unilateral_agent_deviations():
    for inst in small_instances(40, seed=707):
        truthful = truthful_profile(inst)
        mu = run_mechanism(MechanismKind.MAP, truthful)
        for a in range(inst.n):
            if not inst.agent_adj[a]:
                continue
            baseline = agent_utility(inst, mu, a)
            for setting in ("ems", "ecms"):
                _, best = best_response_exhaustive(
                    inst, MechanismKind.MAP, a, setting=setting)
                assert best <= baseline + 1e-9


def _all_reports(inst, side, entity):
    """Every bounded report, the truthful ones included."""
    adj = inst.agent_adj[entity] if side == AGENTS else inst.task_adj[entity]
    subsets = [c for k in range(1, len(adj) + 1)
               for c in itertools.combinations(adj, k)]
    if side == AGENTS:
        cap = inst.agents[entity].capacity
        return [AgentReport(c, b) for c in subsets for b in (None, *range(1, cap + 1))]
    value = inst.tasks[entity].value
    return [TaskReport(c, v) for c in subsets for v in (None, value, value / 2)
            if v is None or v > 0]


def _resolved(inst, kind, side, entity, profile, report):
    mu = run_mechanism(kind, profile.with_report(entity, report))
    if side == AGENTS:
        return agent_utility(inst, mu, entity)
    return float(task_utility(mu, entity))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), side=st.sampled_from([AGENTS, TASKS]),
       kind=st.sampled_from([MechanismKind.MBFS, MechanismKind.MDFS,
                             MechanismKind.MAP]))
def test_deviations_equal_a_full_resolve(seed, side, kind):
    # every yielded deviant utility, the truthful reports' included, equals
    # solving the swapped profile from scratch; order and coverage follow
    # the entities with edges, then the candidates
    inst = small_instances(seed % 9 + 1, seed=seed, n_max=3, m_max=3)[-1]
    profile = truthful_profile(inst, side)
    count = inst.n if side == AGENTS else inst.m
    adjacency = inst.agent_adj if side == AGENTS else inst.task_adj
    got = list(unilateral_deviations(
        kind, profile, lambda e, _: _all_reports(inst, side, e)))
    expected = [
        (e, r, _resolved(inst, kind, side, e, profile, None),
         _resolved(inst, kind, side, e, profile, r))
        for e in range(count) if adjacency[e]
        for r in _all_reports(inst, side, e)
    ]
    assert got == expected


def test_deviations_are_lazy_and_skip_the_truthful_solve(monkeypatch):
    inst = epsilon_gap_instance(0.5)
    calls = []

    def counting(kind, profile, rng_seed=None):
        calls.append(profile)
        return run_mechanism(kind, profile, rng_seed)

    monkeypatch.setattr(strategies, "run_mechanism", counting)
    deviations = unilateral_deviations(
        MechanismKind.MBFS, truthful_profile(inst),
        lambda a, _: [AgentReport(inst.agent_adj[a]), AgentReport((0,))])
    assert calls == []
    # the truthful report reads the baseline: one solve so far
    agent, report, baseline, deviant = next(deviations)
    assert (agent, report.edges, deviant) == (0, inst.agent_adj[0], baseline)
    assert len(calls) == 1
    # the first gain ends any() before the other agent is tried
    assert any(after > before for _, _, before, after in deviations)
    assert len(calls) == 2
