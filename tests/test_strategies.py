import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmatch import mechanisms, solver, strategies
from bmatch.core import Instance, SizeCapExceededError, agent_utility, task_utility
from bmatch.gen import GenConfig, generate_instance
from bmatch.fixtures import (
    complete_three_agent_instance,
    epsilon_gap_instance,
    geometric_cascade_instance,
    two_class_instance,
)
from bmatch.mechanisms import (
    _TRAVERSALS,
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
from bmatch.oracle import (
    audit_agent_truthfulness,
    audit_task_truthfulness,
    enumerate_pure_nash,
    find_agent_coalition,
    find_task_coalition,
)
from bmatch.solver import solve_ap, solve_mvbm
from bmatch.strategies import (
    _report_candidates,
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
from conftest import rebuilt_effective_instance, small_instances


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
    inst = Instance([2], [1.0, 0.5, 0.5], [(0, 0), (0, 1), (0, 2)])
    assert apply_manipulation(inst, 0, KOrder(1)).edges == (0, 1)


def test_top_capacity_manipulation():
    inst = geometric_cascade_instance()
    assert apply_manipulation(inst, 0, TopB()).edges == (0, 1)
    assert apply_manipulation(inst, 1, TopB()).edges == (0,)


def test_manipulation_requires_edges():
    isolated = Instance([1, 1], [1.0], [(1, 0)])
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
    quiet = Instance([1, 1], [1.0], [])
    assert pma(quiet, MechanismKind.MBFS, [TopB()]) == 0.0
    with pytest.raises(ValueError):
        pma(inst, MechanismKind.MBFS, [])


def test_manipulable_instance_fraction():
    gainful = epsilon_gap_instance(0.5)
    quiet = Instance([1, 1], [1.0], [])
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
    isolated = Instance([1, 1], [1.0], [(1, 0)])
    with pytest.raises(ValueError):
        best_response_exhaustive(isolated, MechanismKind.MBFS, 0)
    wide = Instance([1], [1.0] * 21, [(0, t) for t in range(21)])
    with pytest.raises(SizeCapExceededError):
        best_response_exhaustive(wide, MechanismKind.MBFS, 0)
    for agent in (2, -1):
        with pytest.raises(ValueError, match=f"unknown agent id {agent}"):
            best_response_exhaustive(isolated, MechanismKind.MBFS, agent)
    with pytest.raises(ValueError, match="best responses need an agent-side profile"):
        best_response_exhaustive(isolated, MechanismKind.MBFS, 1,
                                 others=truthful_profile(isolated, TASKS))


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
    inst = Instance([1], [1.0, 0.5], [(0, 0), (0, 1)])
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
        cap = inst.capacities[entity]
        return [AgentReport(c, b) for c in subsets for b in (None, *range(1, cap + 1))]
    value = inst.values[entity]
    return [TaskReport(c, v) for c in subsets for v in (None, value, value / 2)
            if v is None or v > 0]


def _resolved(inst, kind, side, entity, profile, report):
    mu = run_mechanism(kind, profile.with_report(entity, report))
    if side == AGENTS:
        return agent_utility(inst, mu, entity)
    return float(task_utility(mu, entity))


def _assert_deviations_are_full_resolves(inst, kind, profile):
    # every yielded deviant utility, the truthful reports' included, equals
    # solving the swapped profile from scratch; order and coverage follow
    # the entities with edges, then the candidates
    side = profile.side
    count = inst.n if side == AGENTS else inst.m
    adjacency = inst.agent_adj if side == AGENTS else inst.task_adj
    entities = [e for e in range(count) if adjacency[e]]
    got = list(unilateral_deviations(
        kind, profile, lambda e, _: _all_reports(inst, side, e)))
    expected = [
        (e, r, _resolved(inst, kind, side, e, profile, profile.reports[e]),
         _resolved(inst, kind, side, e, profile, r))
        for e in entities
        for r in _all_reports(inst, side, e)
    ]
    assert got == expected


def test_a_raised_task_value_resumes_at_its_new_rank():
    # task 1 reports half its value and moves to the last rank; its
    # truthful candidate moves it back up to rank 2, ahead of task 0.  A
    # resume at its old rank would skip it and read it as unmatched.  This
    # runs before the property below, which a wrong rank can send into a
    # resume that never ends
    inst = Instance([2], [3.1418, 3.1674, 3.4766, 3.6967], [(0, 0), (0, 1), (0, 3)])
    profile = truthful_profile(inst, TASKS).with_report(1, TaskReport((0,), 3.1674 / 2))
    ((_, _, baseline, deviant),) = unilateral_deviations(
        MechanismKind.MBFS, profile, lambda j, _: [TaskReport((0,))], (1,))
    assert (baseline, deviant) == (0.0, 1.0)
    _assert_deviations_are_full_resolves(inst, MechanismKind.MBFS, profile)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), side=st.sampled_from([AGENTS, TASKS]),
       kind=st.sampled_from([MechanismKind.MBFS, MechanismKind.MDFS,
                             MechanismKind.MAP]),
       hiding=st.booleans())
def test_deviations_equal_a_full_resolve(seed, side, kind, hiding):
    # with ``hiding`` the first entity's own slot keeps one edge, and a
    # task's slot also halves its value, so the truthful candidates change
    # the market (a raised value moves the task up the processing order)
    inst = small_instances(seed % 9 + 1, seed=seed, n_max=3, m_max=3)[-1]
    profile = truthful_profile(inst, side)
    adjacency = inst.agent_adj if side == AGENTS else inst.task_adj
    entities = [e for e, adj in enumerate(adjacency) if adj]
    if hiding and entities:
        first = entities[0]
        if side == AGENTS:
            report = AgentReport(adjacency[first][:1])
        else:
            value = inst.values[first]
            report = TaskReport(adjacency[first][:1], value / 2 if value > 0 else None)
        profile = profile.with_report(first, report)
    _assert_deviations_are_full_resolves(inst, kind, profile)


def test_deviations_need_a_deterministic_mechanism():
    inst = epsilon_gap_instance(0.5)
    message = "deterministic mechanisms MBFS, MDFS and MAP"
    with pytest.raises(ValueError, match=message):
        pma(inst, MechanismKind.MRBFS, [TopB()])
    with pytest.raises(ValueError, match=message):
        best_response_exhaustive(inst, MechanismKind.MRBFS, 0)
    with pytest.raises(ValueError, match=message):
        audit_agent_truthfulness(inst, MechanismKind.MRBFS)
    with pytest.raises(ValueError, match=message):
        audit_task_truthfulness(inst, MechanismKind.MRBFS)
    with pytest.raises(ValueError, match=message):
        verify_nash(truthful_profile(inst), MechanismKind.MRBFS)
    with pytest.raises(ValueError, match=message):
        enumerate_pure_nash(inst, MechanismKind.MRBFS)
    with pytest.raises(ValueError, match=message):
        find_agent_coalition(inst, MechanismKind.MRBFS)
    with pytest.raises(ValueError, match=message):
        find_task_coalition(inst, MechanismKind.MRBFS)


def test_gain_ratio_and_nash_check_name_bad_inputs():
    inst = epsilon_gap_instance(0.5)
    with pytest.raises(ValueError, match="verify_nash needs an agent-side profile"):
        verify_nash(truthful_profile(inst, TASKS), MechanismKind.MBFS)
    for agent in (5, 2, -1):
        with pytest.raises(ValueError, match=f"unknown agent id {agent}"):
            utility_gain_ratio(inst, MechanismKind.MBFS, agent, TopB())


def test_deviations_name_an_unknown_entity():
    inst = epsilon_gap_instance(0.5)
    for side, noun, count in ((AGENTS, "agent", inst.n), (TASKS, "task", inst.m)):
        for entity in (-1, count):
            with pytest.raises(ValueError, match=f"unknown {noun} id {entity}"):
                next(unilateral_deviations(MechanismKind.MBFS, truthful_profile(inst, side),
                                           lambda e, _: [None], (entity,)))


def _counting_runs(monkeypatch):
    calls = []
    run = solver._State.run

    def counting(state, *args, **kwargs):
        calls.append(args)
        return run(state, *args, **kwargs)

    monkeypatch.setattr(solver._State, "run", counting)
    return calls


def test_deviations_are_lazy_and_skip_the_truthful_solve(monkeypatch):
    # solves are counted where every solve runs: a full solve, the
    # journaled baseline and a resumed deviation all enter _State.run
    inst = epsilon_gap_instance(0.5)
    calls = _counting_runs(monkeypatch)
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


@pytest.mark.parametrize("kind", [MechanismKind.MBFS, MechanismKind.MAP])
def test_only_an_unchanged_task_report_skips_the_solve(monkeypatch, kind):
    # task 2 has the last rank; its truthful report is not solved again,
    # while only lowering its value, or dropping agent 0, resumes a solve
    inst = Instance([2, 1], [2.0, 1.0, 0.5], [(0, 0), (0, 2), (1, 1), (1, 2)])
    calls = _counting_runs(monkeypatch)
    reports = [None, TaskReport((0, 1)), TaskReport((0, 1), 0.25), TaskReport((1,))]
    got = list(unilateral_deviations(
        kind, truthful_profile(inst, TASKS), lambda j, _: reports, (2,)))
    assert [d for _, _, _, d in got] == [1.0, 1.0, 1.0, 0.0]
    assert len(calls) == 3


def test_a_task_reports_first_change_is_its_earlier_position(monkeypatch):
    # task 3 reports 1.0 of its 5.0, so the process order is 0, 1, 2, 3;
    # a task moved by its value changes the ranks from the earlier of its
    # two positions on, ties going by id, and its resumed run starts
    # there; an unchanged report runs none
    inst = Instance([1], [4.0, 3.0, 2.0, 5.0], [(0, t) for t in range(4)])
    profile = truthful_profile(inst, TASKS).with_report(3, TaskReport((0,), 1.0))
    calls = _counting_runs(monkeypatch)

    def resume_start(task, edges, value):
        calls.clear()
        report = TaskReport(edges, value)
        ((_, _, _, deviant),) = unilateral_deviations(
            MechanismKind.MBFS, profile, lambda j, _: [report], (task,))
        # the journaled solve, then the resumed run's (traversal, start)
        start = calls[1][1] if len(calls) == 2 else inst.m
        assert len(calls) == (1 if start == inst.m else 2)
        assert deviant == _full_resolve(
            MechanismKind.MBFS, profile.with_report(task, report), task)
        return start

    column = (0,)
    assert resume_start(3, column, 1.0) == 4
    assert resume_start(3, (), 1.0) == 3
    assert resume_start(1, column, 1.5) == 1
    assert resume_start(3, column, 2.5) == 2
    assert resume_start(3, column, 2.0) == 3
    assert resume_start(3, column, 3.0) == 2
    assert resume_start(3, column, 5.0) == 0


def _retiring_market():
    # agent 0 takes task 0 and agent 1 task 1; the search from task 2
    # (rank 2) reaches both, both saturated, and retires them; agent 2
    # then takes task 3, and the search from task 4 retires it
    return Instance([1, 1, 1], [3.0, 2.0, 1.0, 0.5, 0.25],
                    [(0, 0), (0, 2), (0, 3), (1, 0), (1, 1), (2, 3), (2, 4)])


@pytest.mark.parametrize("kind", [MechanismKind.MBFS, MechanismKind.MDFS])
def test_a_retired_deviant_keeps_its_baseline_without_a_solve(monkeypatch, kind):
    inst = _retiring_market()
    profile = truthful_profile(inst)
    # hiding task 3 changes rank 3, hiding task 2 the retiring rank 2
    reports = [AgentReport((0, 2)), AgentReport((0, 3)), AgentReport((0,))]
    calls = _counting_runs(monkeypatch)
    got = list(unilateral_deviations(kind, profile, lambda a, _: reports, (0,)))
    # the baseline solve is the only one
    assert len(calls) == 1
    assert [(r, b, d) for _, r, b, d in got] == [(r, 3.0, 3.0) for r in reports]
    for report in reports:
        assert _full_resolve(kind, profile.with_report(0, report), 0) == 3.0


@pytest.mark.parametrize("kind", [MechanismKind.MBFS, MechanismKind.MDFS])
def test_a_saturated_deviant_that_is_not_retired_is_solved(monkeypatch, kind):
    # agent 0 is saturated by task 0 from rank 0 on, but the search from
    # task 1 frees it through agent 1, so it is never retired; hiding
    # task 1 (rank 1) keeps task 0
    inst = epsilon_gap_instance(0.5)
    calls = _counting_runs(monkeypatch)
    ((_, _, baseline, deviant),) = unilateral_deviations(
        kind, truthful_profile(inst), lambda a, _: [AgentReport((0,))], (0,))
    assert (baseline, deviant) == (1.0, 1.5)
    assert len(calls) == 2


@pytest.mark.parametrize("report, message", [
    # task 4 has the last rank, after agent 0 is retired
    (AgentReport((0, 2, 3, 4)), "non-existing edges to tasks \\[4\\]"),
    (AgentReport((0, 2, 3), 0), "capacity 0 outside \\[1, 1\\]"),
    (AgentReport((0, 2), 2), "capacity 2 outside \\[1, 1\\]"),
])
def test_a_retired_deviant_still_needs_a_bounded_report(report, message):
    inst = _retiring_market()
    deviations = unilateral_deviations(
        MechanismKind.MBFS, truthful_profile(inst), lambda a, _: [report], (0,))
    with pytest.raises(ValueError, match=message):
        next(deviations)


def _full_resolve(kind, profile, entity):
    """The entity's utility from a full solve of the market rebuilt by
    the checked constructor: what ``run_mechanism`` computed before the
    reported market was patched and the solve resumed."""
    market = rebuilt_effective_instance(profile)
    if kind is MechanismKind.MAP:
        owner = solve_ap(market)
    else:
        owner = solve_mvbm(market, _TRAVERSALS[kind])
    if profile.side == AGENTS:
        return agent_utility(profile.base, owner, entity)
    return float(task_utility(owner, entity))


def _assert_resumed_deviations_are_full_resolves(profile, candidates, entities=None):
    for kind in (MechanismKind.MBFS, MechanismKind.MDFS, MechanismKind.MAP):
        tried = 0
        for entity, report, baseline, deviant in unilateral_deviations(
                kind, profile, candidates, entities):
            assert baseline == _full_resolve(kind, profile, entity)
            expected = _full_resolve(kind, profile.with_report(entity, report), entity)
            assert deviant == expected, (kind, entity, report)
            tried += 1
        assert tried > 0


def _hiding_reports(inst, seed):
    """The threshold family of the gain curve, order and top-capacity
    reports, random edge subsets (empty ones included) and the truthful
    report, per agent."""
    rng = np.random.default_rng(seed)
    specs = [TLevel(t) for t in (1.5, 2.0, 2.5, 3.0)] + [KOrder(1), KOrder(3), TopB()]

    def candidates(agent, _):
        row = inst.agent_adj[agent]
        reports = [apply_manipulation(inst, agent, spec) for spec in specs]
        for keep in (0.9, 0.6, 0.0):
            kept = rng.random(len(row)) < keep
            reports.append(AgentReport(tuple(t for t, k in zip(row, kept) if k)))
        reports.append(AgentReport(row))
        return reports

    return candidates


@pytest.mark.parametrize(
    "n, m, p, low, high",
    [
        (40, 30, 0.8, 1, 3),  # dense
        (20, 200, 0.1, 1, 3),  # sparse
        (15, 200, 0.2, 3, 7),  # the gain curve's shape
        (20, 200, 0.2, 3, 7),
    ],
)
def test_resumed_deviations_equal_full_resolves(n, m, p, low, high):
    inst = generate_instance(GenConfig(n, m, p, low, high, seed=211), 0)
    _assert_resumed_deviations_are_full_resolves(
        truthful_profile(inst), _hiding_reports(inst, n))


def _task_reports(inst, seed):
    """Random column subsets per task (the full and the empty one
    included) crossed with the ``evms`` value grid 1, 0.5, 0.25."""
    rng = np.random.default_rng(seed)

    def candidates(task, _):
        column, value = inst.task_adj[task], inst.values[task]
        reports = []
        for keep in (1.0, 0.9, 0.6, 0.0):
            kept = rng.random(len(column)) < keep
            edges = tuple(a for a, k in zip(column, kept) if k)
            reports += [TaskReport(edges, value * f) for f in (1, 0.5, 0.25)
                        if value * f > 0]
        return reports

    return candidates


@pytest.mark.parametrize(
    "n, m, p, low, high, stride",
    [
        (40, 30, 0.8, 1, 3, 1),  # dense
        (20, 200, 0.1, 1, 3, 5),  # sparse, every fifth task
    ],
)
def test_resumed_task_deviations_equal_full_resolves(n, m, p, low, high, stride):
    inst = generate_instance(GenConfig(n, m, p, low, high, seed=211), 0)
    _assert_resumed_deviations_are_full_resolves(
        truthful_profile(inst, TASKS), _task_reports(inst, m), range(0, m, stride))


def test_resumed_deviations_against_a_non_truthful_profile():
    # the others report their FCFS claims and the deviating agent starts
    # truthful, as in verify_nash; in the full worst profile every
    # agent's own slot holds its claim too, so a truthful candidate
    # re-adds the edges that slot hid
    cfg = GenConfig(12, 40, 0.3, 1, 3, seed=212)
    for i in range(3):
        inst = generate_instance(cfg, i)
        worst, _ = worst_ne_profile(inst)
        candidates = _hiding_reports(inst, i)
        for a in range(0, inst.n, 3):
            _assert_resumed_deviations_are_full_resolves(
                worst.with_report(a, None), candidates, (a,))
        _assert_resumed_deviations_are_full_resolves(worst, candidates)


@pytest.mark.parametrize("make, checks", [
    # 3 profile reports and 9 candidates; 5 profile reports and 27
    (complete_three_agent_instance, 12),
    (two_class_instance, 32),
])
def test_a_nash_check_checks_each_report_once(monkeypatch, make, checks):
    # the profile's reports are checked once, for its market, and each
    # candidate once, before it is patched into that market
    checked = []
    bounded = mechanisms._bounded_report

    def counting_check(*args):
        checked.append(args)
        return bounded(*args)

    for module in (mechanisms, strategies):
        monkeypatch.setattr(module, "_bounded_report", counting_check)
    worst, _ = worst_ne_profile(make())
    assert verify_nash(worst, MechanismKind.MBFS) == (True, None)
    assert len(checked) == checks


def test_resumed_deviations_with_capacity_reports():
    markets = small_instances(40, seed=213, n_max=4, m_max=5, b_high=3)
    for inst in markets:
        if not any(inst.agent_adj):
            continue
        _assert_resumed_deviations_are_full_resolves(
            truthful_profile(inst),
            lambda a, _: _report_candidates(inst, AGENTS, a, "ecms"))


def _reference_first_change(before, entity, edges, bound):
    """The agent branch of the first-change rule before it was capped at
    the step from which the agent's outcome is final: rank 0 for a new
    capacity, else the lowest rank in the symmetric difference of the
    profile's row and ``edges``, or ``m`` when they are equal."""
    if bound != before.capacities[entity]:
        return 0
    changed = set(before.agent_adj[entity]).symmetric_difference(edges)
    return min(map(before.task_rank.__getitem__, changed), default=before.m)


@st.composite
def _tied_markets(draw):
    """Small markets whose task values repeat, with a profile in which
    some agents hide tasks or lower their capacity."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    capacities = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    values = draw(st.lists(st.sampled_from([1.0, 2.0, 2.0, 3.0, 0.0]),
                           min_size=m, max_size=m))
    edges = [(a, t) for a in range(n) for t in range(m) if draw(st.booleans())]
    inst = Instance(capacities, values, edges)
    profile = truthful_profile(inst)
    for a in range(n):
        row = inst.agent_adj[a]
        if row and draw(st.booleans()):
            kept = tuple(t for t in row if draw(st.booleans()))
            capacity = draw(st.one_of(st.none(), st.integers(1, capacities[a])))
            profile = profile.with_report(a, AgentReport(kept, capacity))
    return profile


@settings(derandomize=True, max_examples=80, deadline=None)
@given(profile=_tied_markets(),
       kind=st.sampled_from([MechanismKind.MBFS, MechanismKind.MDFS, MechanismKind.MAP]))
def test_capped_first_change_resumes_where_the_uncapped_rule_did(profile, kind):
    # every deviant equals a full re-solve, and a report resumes the
    # journal exactly when the uncapped rank is below the agent's final
    # step, starting at that rank
    inst = profile.base
    effective = mechanisms.build_effective_instance(profile)
    _, _, final_at = solver._solve_journaled(effective, _TRAVERSALS.get(kind), True)
    starts = []
    run = solver._State.run

    def recording(state, traversal, start=0, journal=None, **kwargs):
        if journal is None:
            starts.append(start)
        return run(state, traversal, start, journal, **kwargs)

    with mock.patch.object(solver._State, "run", recording):
        got = list(unilateral_deviations(
            kind, profile, lambda a, _: _all_reports(inst, AGENTS, a)))
    expected_starts = []
    for agent, report, baseline, deviant in got:
        assert baseline == _full_resolve(kind, profile, agent)
        assert deviant == _full_resolve(kind, profile.with_report(agent, report), agent)
        bound = inst.capacities[agent] if report.capacity is None else report.capacity
        rank = _reference_first_change(effective, agent, report.edges, bound)
        if rank < final_at[agent]:
            expected_starts.append(rank)
        else:
            assert deviant == baseline
    assert starts == expected_starts


def _reference_family_reports(inst, agent, specs):
    """``_family_reports`` as the families define it: each spec's report,
    built by filtering the row, deduped by edges, the truthful one
    dropped, in spec order."""
    seen = {inst.agent_adj[agent]}
    ordered = sorted(inst.agent_adj[agent], key=lambda t: (-inst.values[t], t))
    for spec in specs:
        if isinstance(spec, ExplicitReport):
            report = spec.report
        else:
            if isinstance(spec, TLevel):
                keep = [t for t in ordered if inst.values[t] >= spec.threshold]
            elif isinstance(spec, KOrder):
                keep = ordered[:len(ordered) - spec.k] if spec.k < len(ordered) else []
            else:
                keep = ordered[:inst.capacities[agent]]
            report = AgentReport(tuple(keep or ordered[:1]))
        if report.edges not in seen:
            seen.add(report.edges)
            yield report


@st.composite
def _family_cases(draw):
    """A market with repeated values, one agent with edges, and a spec
    list mixing every family: thresholds at, between and beyond the
    values (NaN and both infinities included), orders up to past the
    degree, top-b, and explicit reports of prefixes, the truth and other
    subsets, some with a capacity."""
    m = draw(st.integers(1, 7))
    values = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0, 3.5]),
                           min_size=m, max_size=m))
    row = [t for t in range(m) if draw(st.booleans())] or [0]
    inst = Instance([draw(st.integers(1, 4))], values, [(0, t) for t in row])
    ordered = strategies._ordered_row(inst, 0)
    spec = st.one_of(
        st.builds(TLevel, st.one_of(st.sampled_from(values + [math.nan, math.inf, -math.inf]),
                                    st.floats(-1.0, 4.0))),
        st.builds(KOrder, st.integers(0, len(row) + 2)),
        st.just(TopB()),
        st.builds(lambda k, c: ExplicitReport(AgentReport(tuple(ordered[:k]), c)),
                  st.integers(1, len(row)), st.one_of(st.none(), st.integers(1, 4))),
        st.builds(lambda kept: ExplicitReport(AgentReport(tuple(kept))),
                  st.lists(st.sampled_from(row), min_size=1, unique=True)),
    )
    return inst, draw(st.lists(spec, max_size=8))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(case=_family_cases())
def test_family_reports_equal_the_filtered_reference(case):
    inst, specs = case
    assert (list(strategies._family_reports(inst, 0, specs))
            == list(_reference_family_reports(inst, 0, specs)))


def _family(inst, *specs):
    return [r.edges for r in strategies._family_reports(inst, 0, specs)]


def test_family_reports_at_the_edges_of_each_family():
    # values by task: 3.0, 1.0, 2.0, 1.0, 0.5; ordered row 0, 2, 1, 3, 4
    inst = Instance([2], [3.0, 1.0, 2.0, 1.0, 0.5], [(0, t) for t in range(5)])
    # a NaN threshold keeps no task, as ``not v >= nan``: the best one alone
    assert _family(inst, TLevel(math.nan)) == [(0,)]
    assert _family(inst, TLevel(math.inf)) == [(0,)]
    # minus infinity keeps every task: the truth, dropped
    assert _family(inst, TLevel(-math.inf)) == []
    # a threshold equal to a value keeps the tied tasks too
    assert _family(inst, TLevel(1.0)) == [(0, 1, 2, 3)]
    assert _family(inst, TLevel(2.0)) == [(0, 2)]
    assert _family(inst, TLevel(0.5)) == []
    # dropping none is the truth; dropping the degree or more keeps one
    assert _family(inst, KOrder(0)) == []
    assert _family(inst, KOrder(5), KOrder(7), TLevel(3.0)) == [(0,)]
    assert _family(inst, KOrder(2), TLevel(1.0)) == [(0, 1, 2), (0, 1, 2, 3)]
    assert _family(inst, TopB(), TLevel(2.0)) == [(0, 2)]
    assert _family(Instance([9], [1.0], [(0, 0)]), TopB()) == []
    # an explicit report is deduped against the prefixes and the truth,
    # by edges only
    explicit = ExplicitReport(AgentReport((2, 0)))
    assert _family(inst, TopB(), explicit) == [(0, 2)]
    assert _family(inst, explicit, TopB()) == [(0, 2)]
    truth = ExplicitReport(AgentReport(tuple(range(5)), 1))
    assert _family(inst, truth, KOrder(1)) == [(0, 1, 2, 3)]
    with pytest.raises(ValueError, match="k must be non-negative"):
        _family(inst, KOrder(-1))
