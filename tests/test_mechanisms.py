import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bmatch.core import Instance, agent_utility, matching_weight
from bmatch.fixtures import (
    epsilon_gap_instance,
    equal_value_collusion_instance,
    geometric_cascade_instance,
    tied_optimum_instance,
    two_by_two_complete_instance,
)
from bmatch.gen import GenConfig, generate_instance
from bmatch.mechanisms import (
    AgentReport,
    MechanismKind,
    Profile,
    TaskReport,
    build_effective_instance,
    fcfs_policies,
    first_agent_best_report,
    lottery_weights,
    profile_from_json_dict,
    profile_to_json_dict,
    randomized_utility_samples,
    run_mechanism,
    run_randomized_bfs,
    sample_agent_order,
    truthful_profile,
    worst_ne_profile,
    _draw_orders,
)
from bmatch.seeds import derive_rng, substream_doubles
from bmatch.solver import Traversal, solve_ap, solve_mvbm
from conftest import rebuilt_effective_instance, small_instances


def test_effective_instance_identity_for_truthful_profile():
    inst = geometric_cascade_instance()
    assert build_effective_instance(truthful_profile(inst)) == inst


def test_effective_instance_after_hiding_one_edge():
    inst = geometric_cascade_instance()
    profile = truthful_profile(inst).with_report(0, AgentReport(edges=(0, 1, 2)))
    effective = build_effective_instance(profile)
    assert effective.edge_set() == inst.edge_set() - {(0, 3)}


def test_effective_instance_capacity_report():
    inst = Instance([3, 1], [1.0, 0.5], [(0, 0), (0, 1), (1, 0)])
    profile = truthful_profile(inst).with_report(
        0, AgentReport(edges=(0, 1), capacity=1))
    assert build_effective_instance(profile).capacities == (1, 1)


def test_effective_instance_rejects_unbounded_reports():
    inst = tied_optimum_instance()
    with pytest.raises(ValueError):
        build_effective_instance(
            truthful_profile(inst).with_report(0, AgentReport(edges=(2,))))
    with pytest.raises(ValueError):
        build_effective_instance(
            truthful_profile(inst).with_report(
                0, AgentReport(edges=(0,), capacity=2)))
    with pytest.raises(ValueError):
        build_effective_instance(
            truthful_profile(inst, "tasks").with_report(
                0, TaskReport(edges=(0,), value=2.0)))


def test_effective_instance_rejects_non_integral_capacity_reports():
    inst = Instance([2], [1.0, 0.5], [(0, 0), (0, 1)])
    profile = truthful_profile(inst)
    for capacity in (1.5, True):
        with pytest.raises(ValueError, match="non-integral capacity"):
            build_effective_instance(
                profile.with_report(0, AgentReport((0, 1), capacity)))
    # an integral float is a capacity, stored as an int
    effective = build_effective_instance(profile.with_report(0, AgentReport((0, 1), 1.0)))
    assert effective.capacities == (1,)
    assert type(effective.capacities[0]) is int


@st.composite
def _agent_profiles(draw):
    """Agent-side profiles over small markets: any number of reports,
    each an edge subset of the true row (empty withdraws the agent),
    some with a capacity report."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 8))
    capacities = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    values = draw(st.lists(st.sampled_from([0.0, 1.0, 2.0, 2.5]), min_size=m, max_size=m))
    edges = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1))))
    inst = Instance(capacities, values, sorted(edges))
    reports = []
    for a in range(n):
        if draw(st.booleans()):
            reports.append(None)
            continue
        row = draw(st.sets(st.sampled_from(inst.agent_adj[a]))) if inst.agent_adj[a] else set()
        capacity = draw(st.none() | st.integers(1, inst.capacities[a]))
        reports.append(AgentReport(tuple(row), capacity))
    return Profile("agents", inst, tuple(reports))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(profile=_agent_profiles())
def test_patched_agent_market_equals_the_rebuilt_one(profile):
    patched = build_effective_instance(profile)
    rebuilt = rebuilt_effective_instance(profile)
    for field in ("capacities", "values", "agent_adj", "task_adj",
                  "task_order", "task_rank"):
        assert getattr(patched, field) == getattr(rebuilt, field), field
    # what no report touches is shared with the base, not copied
    base = profile.base
    assert patched.values is base.values
    assert patched.task_order is base.task_order
    assert patched.task_rank is base.task_rank
    hidden = set()
    for a, report in enumerate(profile.reports):
        if report is None:
            assert patched.agent_adj[a] is base.agent_adj[a]
        else:
            hidden.update(set(base.agent_adj[a]) - set(report.edges))
    for t in range(base.m):
        if t not in hidden:
            assert patched.task_adj[t] is base.task_adj[t]


@st.composite
def _task_profiles(draw):
    """Task-side profiles over small markets: any number of reports,
    each an agent subset of the true column (empty hides the task from
    every agent), some with a lowered value that may tie another task's
    value (ties go to the lower id)."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 8))
    capacities = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    grid = [0.0, 0.5, 1.0, 2.0, 2.5]
    values = draw(st.lists(st.sampled_from(grid), min_size=m, max_size=m))
    edges = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1))))
    inst = Instance(capacities, values, sorted(edges))
    reports = []
    for t in range(m):
        if draw(st.booleans()):
            reports.append(None)
            continue
        column = draw(st.sets(st.sampled_from(inst.task_adj[t]))) if inst.task_adj[t] else set()
        lower = [v for v in grid if 0 < v <= inst.values[t]]
        value = draw(st.sampled_from([None, *lower]))
        reports.append(TaskReport(tuple(column), value))
    return Profile("tasks", inst, tuple(reports))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(profile=_task_profiles())
def test_patched_task_market_equals_the_rebuilt_one(profile):
    patched = build_effective_instance(profile)
    rebuilt = rebuilt_effective_instance(profile)
    for field in ("capacities", "values", "agent_adj", "task_adj",
                  "task_order", "task_rank"):
        assert getattr(patched, field) == getattr(rebuilt, field), field
    # what no report touches is shared with the base, not copied
    base = profile.base
    assert patched.capacities is base.capacities
    if patched.values == base.values:
        assert patched.task_order is base.task_order
        assert patched.task_rank is base.task_rank
    hidden = set()
    for t, report in enumerate(profile.reports):
        if report is None:
            assert patched.task_adj[t] is base.task_adj[t]
        else:
            hidden.update(set(base.task_adj[t]) - set(report.edges))
    for a in range(base.n):
        if a not in hidden:
            assert patched.agent_adj[a] is base.agent_adj[a]


def test_task_side_value_report_changes_processing_order():
    inst = Instance([1], [1.0, 0.8], [(0, 0), (0, 1)])
    profile = truthful_profile(inst, "tasks").with_report(
        0, TaskReport(edges=(0,), value=0.5))
    effective = build_effective_instance(profile)
    assert effective.values == (0.5, 0.8)
    assert effective.task_order == (1, 0)


def test_run_mechanism_reference_outcomes():
    mu = run_mechanism(MechanismKind.MBFS, truthful_profile(tied_optimum_instance()))
    assert matching_weight(tied_optimum_instance(), mu) == pytest.approx(1.1)
    eps = epsilon_gap_instance(1e-3)
    mu = run_mechanism(MechanismKind.MAP, truthful_profile(eps))
    assert matching_weight(eps, mu) == pytest.approx(1.001)
    collusion = equal_value_collusion_instance()
    hidden = truthful_profile(collusion).with_report(0, AgentReport(edges=(1,)))
    assert run_mechanism(MechanismKind.MAP, hidden) == (2, 0)


def test_randomized_mechanism_requires_seed():
    with pytest.raises(ValueError):
        run_mechanism(MechanismKind.MRBFS,
                      truthful_profile(two_by_two_complete_instance()))


def test_fcfs_policies_on_cascade_market():
    inst = geometric_cascade_instance()
    policy_set = fcfs_policies(inst)
    assert policy_set.policies == ((0, 1), (), ())
    assert policy_set.residual_chain[0] == frozenset({0, 1, 2, 3})
    assert policy_set.residual_chain[1] == frozenset({2, 3})
    assert policy_set.residual_chain[3] == frozenset({2, 3})


def test_fcfs_policy_empty_without_adjacency():
    inst = Instance([1, 1], [1.0], [(0, 0)])
    assert fcfs_policies(inst).policies[1] == ()


def test_greedy_equals_fcfs_union_on_random_markets():
    for inst in small_instances(80, seed=31):
        assert solve_ap(inst) == fcfs_policies(inst).owner()


def test_worst_equilibrium_profile_welfare_and_fixed_point():
    eps = epsilon_gap_instance(1e-3)
    profile, welfare = worst_ne_profile(eps)
    assert welfare == pytest.approx(1.001)
    cascade = geometric_cascade_instance()
    profile, welfare = worst_ne_profile(cascade)
    assert welfare == pytest.approx(0.75)
    claims = fcfs_policies(cascade).owner()
    assert claims == (0, 0, -1, -1)
    assert run_mechanism(MechanismKind.MBFS, profile) == claims
    assert run_mechanism(MechanismKind.MDFS, profile) == claims


def test_worst_equilibrium_matches_optimum_when_claims_cover_everything():
    # disjoint interests: the claim profile is the truthful adjacency
    inst = Instance([2, 1], [1.0, 0.5, 0.25], [(0, 0), (0, 1), (1, 2)])
    policy_set = fcfs_policies(inst)
    assert policy_set.owner() == (0, 0, 1)
    _, welfare = worst_ne_profile(inst)
    assert welfare == pytest.approx(
        matching_weight(inst, solve_mvbm(inst, Traversal.BREADTH_FIRST)))


def test_first_agent_best_report_examples():
    cascade = geometric_cascade_instance()
    assert first_agent_best_report(cascade) == (0, 1)
    wide = Instance([5], [1.0, 0.5], [(0, 0), (0, 1)])
    assert first_agent_best_report(wide) == (0, 1)
    assert first_agent_best_report(epsilon_gap_instance(0.5)) == (0,)
    isolated = Instance([1, 1], [1.0], [(1, 0)])
    with pytest.raises(ValueError):
        first_agent_best_report(isolated)
    # -1 would read the last agent's row, and n is past the end
    for agent_id in (-1, cascade.n):
        with pytest.raises(ValueError, match=f"unknown agent id {agent_id}"):
            first_agent_best_report(cascade, agent_id)


def test_lottery_weight_is_sum_of_inverse_shifted_values():
    inst = Instance([1], [1.0, 0.5], [(0, 0), (0, 1)])
    # independent hand computation: 1/(1+1) + 1/(1+0.5)
    expected = 0.5 + 1.0 / 1.5
    assert lottery_weights(inst)[0] == pytest.approx(expected, abs=1e-12)


def test_lottery_weight_adds_left_to_right():
    # 1 + 1e-16 rounds back to 1 at every step; a compensated sum (the
    # builtin sum() of Python 3.12+) would give the next double up
    inst = Instance([1], [0.0, 1e16, 1e16], [(0, 0), (0, 1), (0, 2)])
    assert lottery_weights(inst) == [1.0]
    for inst in small_instances(60, seed=77, n_max=4, m_max=6):
        expected = []
        for a in range(inst.n):
            weight = 0.0
            for t in inst.agent_adj[a]:
                weight += 1.0 / (1.0 + inst.values[t])
            expected.append(weight)
        assert lottery_weights(inst) == expected


def _scalar_draw_order(weights, rng):
    """The order draw with one scalar ``rng.random()`` call per round and
    a linear scan: the reference for the batched draw."""
    n = len(weights)
    remaining = [a for a in range(n) if weights[a] > 0.0]
    order = []
    while remaining:
        total = 0.0
        for a in remaining:
            total += weights[a]
        x = rng.random() * total
        acc = 0.0
        chosen = remaining[-1]
        for a in remaining:
            acc += weights[a]
            if x < acc:
                chosen = a
                break
        order.append(chosen)
        remaining.remove(chosen)
    order.extend(a for a in range(n) if weights[a] <= 0.0)
    return tuple(order)


def _assert_rows_match_the_scalar_draw(weights, seed, keys):
    """``_draw_orders`` over the rows ``derive_rng(seed, k).random(R)``
    gives, row by row, the scalar draw of the stream ``(seed, k)``."""
    rounds = sum(1 for w in weights if w > 0.0)
    doubles = np.stack([derive_rng(seed, k).random(rounds) for k in keys])
    for k, order in zip(keys, _draw_orders(weights, doubles).tolist()):
        assert tuple(order) == _scalar_draw_order(weights, derive_rng(seed, k)), k


def test_batched_draw_equals_the_scalar_draw():
    # the randomized experiment's shape: some agents have no edges
    cfg = GenConfig(20, 25, 0.2, 3, 3, seed=41)
    weights = [lottery_weights(generate_instance(cfg, i)) for i in range(30)]
    assert any(0.0 in w for w in weights)
    for i, w in enumerate(weights):
        _assert_rows_match_the_scalar_draw(w, 43, range(i, 3000, len(weights)))
    zeros = [0.0, 0.5, 0.0, 0.25, 0.25, 0.0, 1e-300]
    _assert_rows_match_the_scalar_draw(zeros, 44, range(200))
    assert _draw_orders([0.0, 0.0], np.empty((3, 0))).tolist() == [[0, 1]] * 3
    market = generate_instance(GenConfig(200, 2000, 0.01, 1, 3, seed=46), 0)
    _assert_rows_match_the_scalar_draw(lottery_weights(market), 47, range(5))


class _FixedRng:
    """Stands in for a generator that returns the given doubles in turn."""

    def __init__(self, doubles):
        self.doubles = iter(doubles)

    def random(self, size=None):
        if size is None:
            return next(self.doubles)
        return np.array([next(self.doubles) for _ in range(size)])


def test_draw_falls_back_to_the_last_remaining_agent():
    # three one-ulp weights: 0.95 * total rounds up to total, so no
    # running sum exceeds x and every round takes the last agent left
    weights = [5e-324, 0.0, 5e-324, 5e-324]
    assert 0.95 * 1.5e-323 == 1.5e-323
    assert _scalar_draw_order(weights, _FixedRng([0.95] * 3)) == (3, 2, 0, 1)
    assert _draw_orders(weights, np.full((2, 3), 0.95)).tolist() == [[3, 2, 0, 1]] * 2
    # task values near the largest double give subnormal weights, whose
    # totals the largest double below 1 cannot shrink
    inst = Instance([1, 1, 1], [1.7e308, 1.6e308], [(0, 0), (1, 1), (2, 0)])
    weights = lottery_weights(inst)
    u = 1.0 - 2.0**-53
    assert 0.0 < weights[0] < sys.float_info.min and u * weights[0] == weights[0]
    assert _scalar_draw_order(weights, _FixedRng([u] * 3)) == (2, 1, 0)
    assert sample_agent_order(inst, _FixedRng([u] * 3)) == (2, 1, 0)
    rows = [[u, 0.5, u], [0.0, u, 0.0], [0.5, 0.0, u]]
    assert _draw_orders(weights, np.array(rows)).tolist() == [
        list(_scalar_draw_order(weights, _FixedRng(row))) for row in rows
    ]


def test_draw_counts_past_255_agents():
    # 300 agents: the count of running sums that do not exceed x reaches
    # 256 and more, which a uint8 count would wrap
    rng = np.random.default_rng(50)
    weights = rng.random(300)
    weights[rng.random(300) < 0.2] = 0.0
    _assert_rows_match_the_scalar_draw(weights.tolist(), 51, range(6))
    # 260 one-ulp weights among zero-weight agents: 0.999 * total rounds
    # up to total while fewer than 500 remain, so those rows take the
    # fallback in every round; the other rows draw from the stream
    tiny = [0.0 if a % 7 == 3 else 5e-324 for a in range(303)]
    rounds = sum(1 for w in tiny if w > 0.0)
    assert rounds == 260 and 0.999 * rounds * 5e-324 == rounds * 5e-324
    rows = [[0.999] * rounds, derive_rng(52, 0).random(rounds),
            [0.999] * 130 + derive_rng(52, 1).random(130).tolist()]
    assert _draw_orders(tiny, np.array(rows)).tolist() == [
        list(_scalar_draw_order(tiny, _FixedRng(row))) for row in rows
    ]
    assert _draw_orders(tiny, np.array(rows))[0, :rounds].tolist() == [
        a for a in reversed(range(303)) if tiny[a] > 0.0
    ]


def test_draw_reads_the_doubles_view_and_no_last_double():
    # three weight lines at c11's shape, 40 orders each: a market's
    # weights and two probes that each lower one agent's weight, as the
    # sampler's lines do; the doubles are the sampler's column-major view
    # of its round-major table
    inst = generate_instance(GenConfig(20, 25, 0.2, 3, 3, seed=53), 0)
    weights = [lottery_weights(inst) for _ in range(3)]
    assert 0.0 in weights[0]
    positive = [a for a in range(inst.n) if weights[0][a] > 0.0]
    weights[1][positive[0]] *= 0.5
    weights[2][positive[-1]] *= 0.25
    rounds = len(positive)
    doubles = substream_doubles([54, 55, 56], 40, rounds)
    assert doubles.flags.f_contiguous and not doubles.flags.c_contiguous
    expected = [list(_scalar_draw_order(weights[i // 40], derive_rng(54 + i // 40, i % 40)))
                for i in range(120)]
    assert _draw_orders(weights, doubles).tolist() == expected
    assert _draw_orders(np.repeat(weights, 40, axis=0), doubles).tolist() == expected
    copy = np.ascontiguousarray(doubles)
    assert _draw_orders(weights, copy).tolist() == expected
    for last in (0.0, 1.0 - 2.0**-53):
        copy[:, -1] = last
        assert _draw_orders(weights, copy).tolist() == expected
    assert _draw_orders(weights, doubles[:, :-1]).tolist() == expected
    shorter = substream_doubles([54, 55, 56], 40, rounds - 1)
    assert _draw_orders(weights, shorter).tolist() == expected


def test_sampler_rows_equal_single_order_draws():
    # c11's shape: the truthful profile, one agent withdrawn (so one
    # weight is zero) and one agent hiding an edge; byte for byte
    cfg = GenConfig(20, 25, 0.2, 3, 3, seed=48)
    for i in range(3):
        inst = generate_instance(cfg, i)
        truthful = truthful_profile(inst)
        withdrawn = next(a for a in range(inst.n) if inst.agent_adj[a])
        hider = max(range(inst.n), key=lambda a: len(inst.agent_adj[a]))
        hidden = AgentReport(edges=inst.agent_adj[hider][1:])
        for profile in (
            truthful,
            truthful.with_report(withdrawn, AgentReport(edges=())),
            truthful.with_report(hider, hidden),
        ):
            effective = build_effective_instance(profile)
            samples = randomized_utility_samples(profile, 250, 49 + i)
            expected = np.empty_like(samples)
            for k in range(250):
                order = sample_agent_order(effective, derive_rng(49 + i, k))
                owner = solve_mvbm(effective, Traversal.BREADTH_FIRST, order)
                expected[k] = [agent_utility(effective, owner, a) for a in range(inst.n)]
            assert samples.tobytes() == expected.tobytes(), (i, profile.reports)


def test_single_agent_order_is_identity():
    inst = Instance([1], [1.0], [(0, 0)])
    rng = derive_rng(5)
    assert sample_agent_order(inst, rng) == (0,)


def test_equal_agents_win_the_first_slot_equally_often():
    inst = two_by_two_complete_instance()
    rng = derive_rng(123)
    first_counts = [0, 0]
    for _ in range(10_000):
        order = sample_agent_order(inst, rng)
        first_counts[order[0]] += 1
    # binomial(10000, 0.5): three standard deviations is 150
    assert abs(first_counts[0] - 5000) <= 150


def test_zero_weight_agents_go_last_in_id_order():
    inst = Instance([1, 1, 1], [1.0], [(1, 0)])
    reports = (AgentReport(edges=()), None, AgentReport(edges=()))
    reported = build_effective_instance(Profile("agents", inst, reports))
    rng = derive_rng(9)
    assert sample_agent_order(reported, rng) == (1, 0, 2)


def test_randomized_expectations_on_complete_market():
    inst = two_by_two_complete_instance()
    means = run_randomized_bfs(truthful_profile(inst), trials=400, seed=11)
    assert means.sum() == pytest.approx(3.0, abs=1e-9)
    assert 1.0 <= means[0] <= 2.0 and 1.0 <= means[1] <= 2.0
    hidden = truthful_profile(inst).with_report(0, AgentReport(edges=(0,)))
    means = run_randomized_bfs(hidden, trials=100, seed=11)
    assert means[0] == 2.0


def test_single_trial_equals_one_mechanism_run():
    inst = two_by_two_complete_instance()
    profile = truthful_profile(inst)
    means = run_randomized_bfs(profile, trials=1, seed=303)
    mu = run_mechanism(MechanismKind.MRBFS, profile, rng_seed=303)
    expected = [agent_utility(inst, mu, a) for a in range(inst.n)]
    assert list(means) == expected


def test_randomized_streams_are_bit_reproducible():
    inst = two_by_two_complete_instance()
    profile = truthful_profile(inst)
    a = randomized_utility_samples(profile, trials=64, seed=99)
    b = randomized_utility_samples(profile, trials=64, seed=99)
    assert np.array_equal(a, b)
    # per-trial substreams: a longer run starts with the same rows
    c = randomized_utility_samples(profile, trials=80, seed=99)
    assert np.array_equal(c[:64], a)


def test_profile_json_round_trip():
    inst = geometric_cascade_instance()
    profile = truthful_profile(inst).with_report(
        0, AgentReport(edges=(0, 1), capacity=2)).with_report(
        1, AgentReport(edges=()))
    data = profile_to_json_dict(profile)
    assert data["reports"][2] is None
    restored = profile_from_json_dict(data, inst)
    assert restored == profile


@pytest.mark.parametrize("index", [-1, 2, 5])
def test_with_report_rejects_an_unknown_agent_id(index):
    # a negative index would rewrite agent 1's slot, a large one overflow
    profile = truthful_profile(tied_optimum_instance())
    with pytest.raises(ValueError, match=f"unknown agent id {index}"):
        profile.with_report(index, AgentReport((0,)))


@pytest.mark.parametrize("index", [-1, 3, 5])
def test_with_report_rejects_an_unknown_task_id(index):
    profile = truthful_profile(tied_optimum_instance(), "tasks")
    with pytest.raises(ValueError, match=f"unknown task id {index}"):
        profile.with_report(index, TaskReport((0,)))


def test_profile_validates_report_count():
    inst = geometric_cascade_instance()
    with pytest.raises(ValueError):
        Profile("agents", inst, (None,))
    with pytest.raises(ValueError):
        Profile("nobody", inst, (None, None, None))
