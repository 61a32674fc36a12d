import json

import pytest
from hypothesis import given, settings, strategies as st

from bmatch.core import (
    Instance,
    InfeasibleMatchingError,
    agent_utility,
    dump_instance,
    is_feasible_matching,
    load_instance,
    matched_pairs,
    matching_weight,
    task_utility,
    validate_instance,
)
from bmatch.fixtures import (
    geometric_cascade_instance,
    task_collusion_instance,
    tied_optimum_instance,
)
from bmatch.gen import GenConfig, generate_instance
from bmatch.solver import Traversal, solve_mvbm


def test_validate_well_formed_instance_is_clean():
    inst = Instance([2, 1], [1.0, 0.5, 0.25], [(0, 0), (0, 1), (1, 2)])
    assert validate_instance(inst) == []


def test_validate_reports_out_of_range_agent():
    inst = Instance([1, 1], [1.0], [(5, 0)])
    violations = validate_instance(inst)
    assert len(violations) == 1
    assert "agent id 5" in violations[0]


def test_validate_reports_non_positive_capacity():
    inst = Instance([0, 1], [1.0], [(1, 0)])
    violations = validate_instance(inst)
    assert any("capacity" in v and "agent 0" in v for v in violations)


def test_validate_reports_duplicates_and_bad_task():
    inst = Instance([1], [1.0], [(0, 0), (0, 0), (0, 7)])
    violations = validate_instance(inst)
    assert any("duplicate" in v for v in violations)
    assert any("task id 7" in v for v in violations)


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
        assert validate_instance(inst) == []


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
    assert validate_instance(inst) == []
    assert inst.agent_adj == ((0,), (0, 1))
    assert inst.task_adj == ((0, 1), (1,))


def test_json_load_rejects_non_instance_payloads(tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"seed": 3, "files": []}))
    with pytest.raises(ValueError, match="not an instance"):
        load_instance(str(path))


def test_instance_stores_plain_tuples():
    inst = Instance([2.0, 1], [1, 0.5], [(0.0, 1)])
    assert inst.capacities == (2, 1) and type(inst.capacities[0]) is int
    assert inst.values == (1.0, 0.5) and type(inst.values[0]) is float
    assert inst.edges == ((0, 1),)
    assert (inst.n, inst.m) == (2, 2)


def test_task_processing_order_breaks_ties_by_id():
    inst = Instance([1], [0.5, 1.0, 0.5], [(0, 0)])
    assert inst.task_order == (1, 0, 2)
    assert inst.task_rank == (1, 0, 2)
