import pytest

from bmatch import oracle
from bmatch.core import Instance, SizeCapExceededError, agent_utility
from bmatch.fixtures import (
    epsilon_gap_instance,
    equal_value_collusion_instance,
    task_collusion_instance,
    tied_optimum_instance,
)
from bmatch.mechanisms import (
    AgentReport,
    MechanismKind,
    TaskReport,
    run_mechanism,
    truthful_profile,
)
from bmatch.oracle import (
    CoalitionDeviation,
    audit_agent_truthfulness,
    audit_task_truthfulness,
    brute_force_mvbm,
    enumerate_pure_nash,
    find_agent_coalition,
    find_task_coalition,
    poa_pos_on_instance,
)
from conftest import small_instances


def test_brute_force_on_tied_optimum():
    cert = brute_force_mvbm(tied_optimum_instance())
    assert cert.weight == pytest.approx(1.1, abs=1e-12)
    # counted by hand: 2 + 2 + 4 complete feasible assignments
    assert cert.enumerated == 8


def test_brute_force_prefers_lexicographically_smallest_assignment():
    cert = brute_force_mvbm(task_collusion_instance())
    assert cert.weight == pytest.approx(1.9, abs=1e-12)
    assert cert.matching == (0, 1, -1)


def test_brute_force_on_empty_edge_set():
    cert = brute_force_mvbm(Instance([1, 1], [1.0, 0.5], []))
    assert cert.weight == 0.0
    assert cert.matching == (-1, -1)
    assert cert.enumerated == 1


def test_brute_force_size_caps():
    wide = Instance([1], [1.0] * 9, [(0, t) for t in range(9)])
    with pytest.raises(SizeCapExceededError):
        brute_force_mvbm(wide)
    deep = Instance(
        [1] * 20, [1.0] * 8, [(a, t) for a in range(20) for t in range(8)])
    with pytest.raises(SizeCapExceededError):
        brute_force_mvbm(deep)


def test_agent_audit_flags_the_tied_optimum_market():
    found = audit_agent_truthfulness(tied_optimum_instance(), MechanismKind.MBFS)
    assert found
    # every reported deviation replays to the claimed utility
    truthful = truthful_profile(tied_optimum_instance())
    for dev in found:
        mu = run_mechanism(
            MechanismKind.MBFS, truthful.with_report(dev.entity, dev.report))
        replayed = agent_utility(tied_optimum_instance(), mu, dev.entity)
        assert replayed == dev.deviant_utility
        assert replayed > dev.baseline_utility


def test_greedy_mechanism_audits_clean(small_batch):
    for inst in small_batch[:60]:
        assert audit_agent_truthfulness(inst, MechanismKind.MAP, "ems") == []
        assert audit_agent_truthfulness(inst, MechanismKind.MAP, "ecms") == []


def test_saturation_free_markets_audit_clean():
    # capacities at least the degree: no agent can ever saturate
    for base in small_instances(30, seed=515):
        caps = [max(1, len(base.agent_adj[a])) for a in range(base.n)]
        inst = Instance(caps, base.values, sorted(base.edge_set()))
        assert audit_agent_truthfulness(inst, MechanismKind.MBFS) == []
        assert audit_agent_truthfulness(inst, MechanismKind.MDFS) == []


def test_task_audits_clean_everywhere(small_batch):
    for inst in small_batch[:60]:
        for kind in (MechanismKind.MBFS, MechanismKind.MDFS, MechanismKind.MAP):
            assert audit_task_truthfulness(inst, kind, "ems") == []
            assert audit_task_truthfulness(
                inst, kind, "evms", value_grid=(1.0, 0.5, 0.25)) == []


def test_task_coalition_found_on_collusion_market():
    coalition = find_task_coalition(
        task_collusion_instance(), MechanismKind.MBFS, max_size=2)
    assert coalition is not None
    assert coalition.entities == (0, 2)
    assert coalition.deviant_utilities == (1.0, 1.0)
    # the whole first coalition in search order: task 0 keeps agent 1
    # only, task 2 agent 0 only, and task 2 is matched without task 0
    # losing its agent
    assert coalition == CoalitionDeviation(
        entities=(0, 2),
        reports=(TaskReport(edges=(1,)), TaskReport(edges=(0,))),
        baseline_utilities=(1.0, 0.0),
        deviant_utilities=(1.0, 1.0),
    )


def test_agent_coalition_on_equal_values_under_greedy():
    coalition = find_agent_coalition(
        equal_value_collusion_instance(), MechanismKind.MAP, max_size=2)
    assert coalition is not None
    assert 2 in coalition.entities  # the third agent is the strict gainer
    # the whole first coalition in search order
    assert coalition == CoalitionDeviation(
        entities=(0, 2),
        reports=(AgentReport(edges=(1,)), AgentReport(edges=(0,))),
        baseline_utilities=(1.0, 0.0),
        deviant_utilities=(1.0, 1.0),
    )


def test_no_greedy_agent_coalition_with_distinct_values():
    for inst in small_instances(25, seed=929, n_max=3, m_max=3):
        if len(set(inst.values)) != inst.m:
            continue
        assert find_agent_coalition(inst, MechanismKind.MAP, max_size=3) is None


def test_equilibrium_enumeration_on_epsilon_market():
    inst = epsilon_gap_instance(0.5)
    equilibria = enumerate_pure_nash(inst, MechanismKind.MBFS)
    assert len(equilibria) == 1
    _, welfare = equilibria[0]
    assert welfare == pytest.approx(1.5)


def test_equilibrium_welfare_adds_left_to_right():
    # one profile, utilities (1, 1e-16, 1e-16): left to right the small
    # ones round away, a compensated sum would keep them
    inst = Instance([1, 1, 1], [1.0, 1e-16, 1e-16], [(0, 0), (1, 1), (2, 2)])
    [(_, welfare)] = enumerate_pure_nash(inst, MechanismKind.MBFS)
    assert welfare == 1.0


@pytest.mark.parametrize("inst", [
    Instance([1, 2], [1.0, 2.0], []),
    Instance([], [1.0, 2.0], []),
    Instance([1, 2], [], []),
], ids=["no-edges", "no-agents", "no-tasks"])
@pytest.mark.parametrize("kind", [MechanismKind.MBFS, MechanismKind.MDFS, MechanismKind.MAP])
def test_pure_nash_without_players_is_the_truthful_profile(inst, kind):
    # no agent has a strategy, so the one joint report is the truthful one
    assert enumerate_pure_nash(inst, kind) == [(truthful_profile(inst), 0.0)]


def test_efficiency_ratios_on_epsilon_market():
    inst = epsilon_gap_instance(1e-3)
    expected = (2 + 1e-3) / (1 + 1e-3)
    poa, pos = poa_pos_on_instance(inst, MechanismKind.MBFS)
    assert poa == pytest.approx(expected, abs=1e-9)
    # the equilibrium is unique, so both ratios coincide
    assert pos == pytest.approx(expected, abs=1e-9)
    poa_fb, pos_fb = poa_pos_on_instance(inst, MechanismKind.MBFS, exact=False)
    assert poa_fb == pytest.approx(expected, abs=1e-9)
    assert pos_fb is None


def test_efficiency_ratios_on_single_agent_market():
    inst = Instance([1], [1.0, 0.5], [(0, 0), (0, 1)])
    assert poa_pos_on_instance(inst, MechanismKind.MBFS) == (
        pytest.approx(1.0), pytest.approx(1.0))


def test_efficiency_ratio_never_exceeds_two(small_batch):
    for inst in small_batch[:60]:
        for kind in (MechanismKind.MBFS, MechanismKind.MDFS):
            poa, _ = poa_pos_on_instance(inst, kind, exact=False)
            assert poa <= 2 + 1e-6


def test_joint_report_cap_names_the_entities():
    inst = Instance([1, 1], [1.0, 1.0], [(0, 0), (0, 1), (1, 0), (1, 1)])
    # three reports per agent, nine joint reports
    with pytest.raises(SizeCapExceededError,
                       match=r"9 joint reports of agents \(0, 1\) exceed the cap 8"):
        find_agent_coalition(inst, MechanismKind.MBFS, max_size=2, joint_cap=8)
    assert find_agent_coalition(inst, MechanismKind.MBFS, max_size=2, joint_cap=9) is None


@pytest.mark.parametrize("find", [find_agent_coalition, find_task_coalition])
@pytest.mark.parametrize("max_size", [0, -1])
def test_a_coalition_search_below_size_one_is_refused(find, max_size):
    # a search over no coalition would return None, which reads as a
    # certificate of group strategyproofness
    with pytest.raises(ValueError, match=f"max_size must be at least 1, got {max_size}"):
        find(task_collusion_instance(), MechanismKind.MBFS, max_size=max_size)


def test_pure_nash_cap_is_checked_before_any_solve(monkeypatch):
    # 127 reports per agent, 127**3 joint reports: over the cap
    inst = Instance([1, 1, 1], [1.0] * 7, [(a, t) for a in range(3) for t in range(7)])

    def no_solve(*args):
        raise AssertionError("solved before the cap check")

    monkeypatch.setattr(oracle, "_solve_rows", no_solve)
    with pytest.raises(SizeCapExceededError, match="2048383 joint reports of agents"):
        enumerate_pure_nash(inst, MechanismKind.MBFS)
