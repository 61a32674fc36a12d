import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from bmatch.core import (
    Instance,
    InfeasibleMatchingError,
    InvalidInstanceError,
    _agent_utilities,
    agent_utility,
    dump_instance,
    is_feasible_matching,
    load_instance,
    matched_pairs,
    matching_weight,
    task_utility,
)
from bmatch.fixtures import (
    geometric_cascade_instance,
    task_collusion_instance,
    tied_optimum_instance,
)
from bmatch.gen import GenConfig, generate_instance
from bmatch.solver import Traversal, solve_mvbm


def _reference_violations(capacities, values, edges) -> list[str]:
    """Every invariant breach of a raw market, found by a separate pass
    over the converted inputs; the reference for ``Instance``'s checks."""
    values = [float(v) for v in values]
    n, m = len(capacities), len(values)
    violations: list[str] = []
    for i, capacity in enumerate(capacities):
        if type(capacity) is bool or capacity != int(capacity):
            violations.append(f"non-integral capacity {capacity!r} on agent {i}")
        elif capacity < 1:
            violations.append(f"non-positive capacity {int(capacity)} on agent {i}")
    for j, value in enumerate(values):
        if value < 0 or value != value:
            violations.append(f"negative or NaN value {value} on task {j}")
    seen: set[tuple[int, int]] = set()
    for a, t in ((int(a), int(t)) for a, t in edges):
        if not 0 <= a < n:
            violations.append(f"out-of-range agent id {a} in edge ({a}, {t})")
            continue
        if not 0 <= t < m:
            violations.append(f"out-of-range task id {t} in edge ({a}, {t})")
            continue
        if (a, t) in seen:
            violations.append(f"duplicate edge ({a}, {t})")
        seen.add((a, t))
    return violations


def _violations(capacities, values, edges) -> list[str]:
    with pytest.raises(InvalidInstanceError) as info:
        Instance(capacities, values, edges)
    return info.value.violations


def test_validate_well_formed_instance_is_clean():
    raw = ([2, 1], [1.0, 0.5, 0.25], [(0, 0), (0, 1), (1, 2)])
    assert _reference_violations(*raw) == []
    assert Instance(*raw).edge_set() == {(0, 0), (0, 1), (1, 2)}


def test_validate_reports_out_of_range_agent():
    violations = _violations([1, 1], [1.0], [(5, 0)])
    assert len(violations) == 1
    assert "agent id 5" in violations[0]


def test_validate_reports_non_positive_capacity():
    violations = _violations([0, 1], [1.0], [(1, 0)])
    assert any("capacity" in v and "agent 0" in v for v in violations)


def test_validate_reports_duplicates_and_bad_task():
    violations = _violations([1], [1.0], [(0, 0), (0, 0), (0, 7)])
    assert any("duplicate" in v for v in violations)
    assert any("task id 7" in v for v in violations)


def test_validate_reports_non_integral_capacity():
    # a fraction or a boolean is not truncated into a capacity
    assert _violations([2.7], [1.0], [(0, 0)]) == ["non-integral capacity 2.7 on agent 0"]
    assert _violations([True], [1.0], [(0, 0)]) == ["non-integral capacity True on agent 0"]
    assert Instance([2.0], [1.0], [(0, 0)]).capacities == (2,)


def test_invalid_instance_lists_every_violation_in_order():
    with pytest.raises(InvalidInstanceError) as info:
        Instance([0, -2], [-1.0, math.nan], [(5, 0), (1, 1), (1, 1), (0, 9)])
    expected = [
        "non-positive capacity 0 on agent 0",
        "non-positive capacity -2 on agent 1",
        "negative or NaN value -1.0 on task 0",
        "negative or NaN value nan on task 1",
        "out-of-range agent id 5 in edge (5, 0)",
        "duplicate edge (1, 1)",
        "out-of-range task id 9 in edge (0, 9)",
    ]
    assert info.value.violations == expected
    assert str(info.value) == "; ".join(expected)


def test_capacities_and_values_too_large_for_a_float_are_violations():
    # ``float`` raises on such an integer; each is listed like any other
    # violation, with the rest of the market still checked
    huge = 10**400
    assert _violations([huge, 0], [1.0, huge, -1.0], [(0, 0)]) == [
        "capacity of agent 0 too large for a float",
        "non-positive capacity 0 on agent 1",
        "value of task 1 too large for a float",
        "negative or NaN value -1.0 on task 2",
    ]
    # one that fits a float is not a violation
    assert Instance([1], [10**300], [(0, 0)]).values == (1e300,)


@st.composite
def _raw_markets(draw):
    """Possibly malformed raw markets: zero, negative, fractional or
    boolean capacities, negative or NaN values, out-of-range and
    duplicate edges."""
    n = draw(st.integers(0, 4))
    m = draw(st.integers(0, 5))
    capacities = draw(st.lists(
        st.one_of(st.integers(-1, 3), st.sampled_from([2.0, 1.5, True])),
        min_size=n, max_size=n))
    values = draw(st.lists(
        st.one_of(st.sampled_from([0.0, 1.0, 2.5, -0.5, math.nan]),
                  st.floats(-1.0, 5.0)),
        min_size=m, max_size=m))
    edges = draw(st.lists(st.tuples(st.integers(-1, n), st.integers(-1, m)),
                          max_size=12))
    return capacities, values, edges


@settings(derandomize=True, max_examples=400, deadline=None)
@given(raw=_raw_markets())
def test_constructor_checks_match_the_reference(raw):
    capacities, values, edges = raw
    expected = _reference_violations(capacities, values, edges)
    if expected:
        assert _violations(capacities, values, edges) == expected
        return
    inst = Instance(capacities, values, edges)
    assert inst.capacities == tuple(map(int, capacities))
    pairs = set(edges)
    assert inst.agent_adj == tuple(
        tuple(sorted(t for a2, t in pairs if a2 == a)) for a in range(len(capacities))
    )
    assert inst.task_adj == tuple(
        tuple(sorted(a for a, t2 in pairs if t2 == t)) for t in range(len(values))
    )
    order = tuple(sorted(range(len(values)), key=lambda j: (-values[j], j)))
    assert inst.task_order == order
    assert tuple(order[r] for r in inst.task_rank) == tuple(range(len(values)))


def test_feasibility_of_tied_optimum_matchings():
    inst = tied_optimum_instance()
    assert is_feasible_matching(inst, (0, -1, 1))
    # capacity 1 forbids two tasks on agent 0
    assert not is_feasible_matching(inst, (0, 0, -1))
    assert is_feasible_matching(inst, (-1, -1, -1))
    # owners must be adjacent to their tasks
    assert not is_feasible_matching(inst, (-1, 1, -1))
    # one owner per task, and only agent ids or -1
    assert not is_feasible_matching(inst, (0, -1))
    assert not is_feasible_matching(inst, (0, -1, 5))


def test_matching_weight_examples():
    inst = tied_optimum_instance()
    assert matching_weight(inst, (0, -1, 1)) == pytest.approx(1.1, abs=1e-12)
    assert matching_weight(inst, (-1, -1, -1)) == 0.0
    cascade = geometric_cascade_instance()
    mu = solve_mvbm(cascade, Traversal.BREADTH_FIRST)
    # 1/2 + 1/4 + 1/8 + 1/16, summed by hand
    assert matching_weight(cascade, mu) == pytest.approx(0.9375, abs=1e-12)


def test_matching_weight_rejects_infeasible():
    inst = tied_optimum_instance()
    with pytest.raises(InfeasibleMatchingError):
        matching_weight(inst, (0, 0, -1))


def test_agent_utility_examples():
    cascade = geometric_cascade_instance()
    mu = solve_mvbm(cascade, Traversal.BREADTH_FIRST)
    # the big agent is left with the two cheapest tasks
    assert agent_utility(cascade, mu, 0) == pytest.approx(0.1875, abs=1e-12)
    inst = tied_optimum_instance()
    assert agent_utility(inst, (-1, -1, -1), 1) == 0.0
    with pytest.raises(ValueError):
        agent_utility(inst, (-1, -1, -1), 9)


def test_task_utility_examples():
    inst = task_collusion_instance()
    mu = (0, 1, -1)
    assert task_utility(mu, 2) == 0
    assert task_utility(mu, 0) == 1
    assert sum(task_utility(mu, j) for j in range(inst.m)) == len(matched_pairs(mu))
    # a negative id must not read the last task
    for bad in (-1, 3, 99):
        with pytest.raises(ValueError, match="unknown task id"):
            task_utility(mu, bad)


def test_matched_pairs_lists_owner_entries_by_agent():
    assert matched_pairs((1, -1, 0, 1)) == [(0, 2), (1, 0), (1, 3)]
    assert matched_pairs((-1, -1)) == []


@settings(derandomize=True, max_examples=60)
@given(index=st.integers(0, 10_000), data=st.data())
def test_agent_utilities_partition_weight_exactly(index, data):
    n = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(1, 4))
    p = data.draw(st.sampled_from([0.3, 0.6, 1.0]))
    inst = generate_instance(GenConfig(n, m, p, 1, 2, seed=99), index)
    mu = solve_mvbm(inst, Traversal.BREADTH_FIRST)
    total = sum(agent_utility(inst, mu, a) for a in range(inst.n))
    assert total == matching_weight(inst, mu)


@pytest.mark.parametrize("index", range(3))
def test_one_pass_utilities_keep_every_bit(index):
    # 200 tasks held by 20 agents: each sum runs over many values, in
    # increasing task id as ``agent_utility`` adds them
    inst = generate_instance(GenConfig(20, 200, 0.2, 3, 7, seed=5), index)
    mu = solve_mvbm(inst, Traversal.BREADTH_FIRST)
    assert _agent_utilities(inst, mu) == [agent_utility(inst, mu, a) for a in range(inst.n)]


@settings(derandomize=True, max_examples=60)
@given(index=st.integers(0, 10_000), data=st.data())
def test_feasibility_is_monotone_under_edge_removal(index, data):
    inst = generate_instance(GenConfig(3, 4, 0.6, 1, 2, seed=7), index)
    mu = solve_mvbm(inst, Traversal.DEPTH_FIRST)
    assert is_feasible_matching(inst, mu)
    matched = [t for t, a in enumerate(mu) if a != -1]
    drop = data.draw(st.sets(st.sampled_from(matched)) if matched else st.just(set()))
    kept = tuple(-1 if t in drop else a for t, a in enumerate(mu))
    assert is_feasible_matching(inst, kept)


def test_generated_instances_always_validate(small_batch):
    for inst in small_batch:
        edges = sorted(inst.edge_set())
        assert _reference_violations(inst.capacities, inst.values, edges) == []
        assert Instance(inst.capacities, inst.values, edges) == inst


def test_json_round_trip(tmp_path):
    inst = geometric_cascade_instance()
    path = tmp_path / "inst.json"
    dump_instance(inst, str(path))
    loaded = load_instance(str(path))
    assert loaded == inst


def test_json_load_normalizes_edges(tmp_path):
    data = {
        "agents": [{"capacity": 1}, {"capacity": 2}],
        "tasks": [{"value": 1.0}, {"value": 0.5}],
        # unsorted and duplicated on purpose
        "edges": [[1, 1], [0, 0], [1, 1], [1, 0]],
    }
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(data))
    inst = load_instance(str(path))
    edges = sorted(inst.edge_set())
    assert _reference_violations(inst.capacities, inst.values, edges) == []
    assert inst.agent_adj == ((0,), (0, 1))
    assert inst.task_adj == ((0, 1), (1,))


def test_json_load_rejects_non_instance_payloads(tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"seed": 3, "files": []}))
    with pytest.raises(ValueError, match="not an instance"):
        load_instance(str(path))


def test_json_load_rejects_deep_nesting_and_huge_numbers(tmp_path):
    # neither escapes as anything but a one-line ValueError
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(ValueError, match="^JSON nested too deeply to read$"):
        load_instance(str(path))
    huge = 10**400
    for data, message in [
        ({"agents": [{"capacity": huge}], "tasks": [{"value": 1.0}], "edges": [[0, 0]]},
         "^capacity of agent 0 too large for a float$"),
        ({"agents": [{"capacity": 1}], "tasks": [{"value": huge}], "edges": [[0, 0]]},
         "^value of task 0 too large for a float$"),
    ]:
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=message):
            load_instance(str(path))


def test_json_dump_writes_standard_json_only(tmp_path):
    path = tmp_path / "inst.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        dump_instance(Instance([1], [math.inf], [(0, 0)]), str(path))
    assert "Infinity" not in path.read_text()


def test_instance_stores_plain_tuples():
    inst = Instance([2.0, 1], [1, 0.5], [(0.0, 1)])
    assert inst.capacities == (2, 1) and type(inst.capacities[0]) is int
    assert inst.values == (1.0, 0.5) and type(inst.values[0]) is float
    assert inst.agent_adj == ((1,), ()) and type(inst.agent_adj[0][0]) is int
    assert "edges" not in Instance.__slots__
    assert (inst.n, inst.m) == (2, 2)


def test_task_processing_order_breaks_ties_by_id():
    inst = Instance([1], [0.5, 1.0, 0.5], [(0, 0)])
    assert inst.task_order == (1, 0, 2)
    assert inst.task_rank == (1, 0, 2)
