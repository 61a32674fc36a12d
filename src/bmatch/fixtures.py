"""Small reference markets with hand-checked outcomes.

Each constructor returns a tiny instance whose optimal matchings,
mechanism outputs, or equilibria can be verified by hand.  ``replay_all``
re-runs every check and reports any drift; the command line exposes it
as the ``fixtures`` subcommand.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Instance, matched_pairs
from .mechanisms import (
    AgentReport,
    MechanismKind,
    run_mechanism,
    run_randomized_bfs,
    truthful_profile,
)
from .oracle import brute_force_mvbm
from .solver import Traversal, solve_ap, solve_mvbm

__all__ = [
    "tied_optimum_instance",
    "epsilon_gap_instance",
    "equal_value_collusion_instance",
    "geometric_cascade_instance",
    "complete_three_agent_instance",
    "two_class_instance",
    "task_collusion_instance",
    "two_by_two_complete_instance",
    "FixtureResult",
    "replay_all",
]


def tied_optimum_instance() -> Instance:
    """Two unit-capacity agents, three tasks valued (1, 0.1, 0.1).

    Two different matchings reach the optimal weight 1.1, which is what
    makes every optimal mechanism manipulable here.
    """
    return Instance(
        capacities=[1, 1],
        values=[1.0, 0.1, 0.1],
        edges=[(0, 0), (0, 1), (1, 0), (1, 2)],
    )


def epsilon_gap_instance(eps: float = 1e-3) -> Instance:
    """Two unit-capacity agents, tasks valued (1 + eps, 1).

    Agent 0 sees both tasks, agent 1 only the first.  The greedy
    mechanism keeps only the top task (weight 1 + eps) against an
    optimum of 2 + eps, so the ratio approaches 2 as eps shrinks; the
    same market also pins the worst-equilibrium welfare at 1 + eps.
    """
    return Instance(
        capacities=[1, 1],
        values=[1.0 + eps, 1.0],
        edges=[(0, 0), (0, 1), (1, 0)],
    )


def equal_value_collusion_instance() -> Instance:
    """Three unit-capacity agents, two tasks of equal value 1.

    With tied task values the greedy mechanism stops being group
    strategyproof: agents 0 and 2 can coordinate so that agent 2 gains
    while agent 0 keeps the same utility.
    """
    return Instance(
        capacities=[1, 1, 1],
        values=[1.0, 1.0],
        edges=[(0, 0), (0, 1), (1, 1), (2, 0)],
    )


def geometric_cascade_instance() -> Instance:
    """Capacity-2 agent facing two single-task rivals; values 2^-j.

    Solving truthfully hands the big agent only the two cheap tasks;
    claiming the two best up front more than quadruples its utility.
    """
    return Instance(
        capacities=[2, 1, 1],
        values=[0.5, 0.25, 0.125, 0.0625],
        edges=[(0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (2, 1)],
    )


def complete_three_agent_instance() -> Instance:
    """Three unit-capacity agents, complete adjacency, values (1, 0.5).

    Breadth-first search keeps agent 0 on the top task; depth-first
    reroutes it through agent 0, which is exactly what makes the
    depth-first variant manipulable by agent 0 here.
    """
    return Instance(
        capacities=[1, 1, 1],
        values=[1.0, 0.5],
        edges=[(a, t) for a in range(3) for t in range(2)],
    )


def two_class_instance() -> Instance:
    """Five capacity-2 agents in two interest classes, values 3^-j.

    Agents 0, 2, 3 see all three tasks; agents 1 and 4 see only the last
    two.  Each class has enough members that breadth-first search cannot
    be manipulated, while depth-first search still can.  The reference
    depth-first output assigns the top task to agent 2 (the second agent
    of the first class); agent 1 cannot hold it, being adjacent only to
    the last two tasks.
    """
    third = 1.0 / 3.0
    return Instance(
        capacities=[2, 2, 2, 2, 2],
        values=[third, third ** 2, third ** 3],
        edges=(
            [(a, t) for a in (0, 2, 3) for t in range(3)]
            + [(a, t) for a in (1, 4) for t in (1, 2)]
        ),
    )


def task_collusion_instance() -> Instance:
    """Two unit-capacity agents, tasks valued (1, 0.9, 0.1).

    The unique optimum matches the first two tasks (weight 1.9).  Tasks
    0 and 2 can collude: if task 0 hides its edge to agent 0, the new
    optimum matches tasks 0 and 2, so task 2 flips from unmatched to
    matched while task 0 stays matched.
    """
    return Instance(
        capacities=[1, 1],
        values=[1.0, 0.9, 0.1],
        edges=[(0, 0), (0, 2), (1, 0), (1, 1)],
    )


def two_by_two_complete_instance() -> Instance:
    """Two unit-capacity agents, complete adjacency, values (2, 1).

    Under any order lottery the agents split the tasks; by hiding its
    edge to the cheap task, agent 0 forces every optimal matching to
    hand it the expensive one, so its expected utility becomes exactly 2.
    No shuffling rule avoids this.
    """
    return Instance(
        capacities=[1, 1],
        values=[2.0, 1.0],
        edges=[(0, 0), (0, 1), (1, 0), (1, 1)],
    )


@dataclass(frozen=True)
class FixtureResult:
    name: str
    passed: bool
    expected: str
    actual: str


def _pairs(owner: tuple[int, ...]) -> str:
    return str(matched_pairs(owner))


def _check(name: str, expected, actual) -> FixtureResult:
    return FixtureResult(name, expected == actual, str(expected), str(actual))


def replay_all() -> list[FixtureResult]:
    """Re-run every reference market and diff against the frozen outcome."""
    results: list[FixtureResult] = []

    inst = tied_optimum_instance()
    cert = brute_force_mvbm(inst)
    results.append(_check("tied-optimum-weight", 1.1, cert.weight))

    inst = task_collusion_instance()
    cert = brute_force_mvbm(inst)
    results.append(_check("unique-optimum-weight", 1.9, cert.weight))
    results.append(
        _check("unique-optimum-matching", "[(0, 0), (1, 1)]", _pairs(cert.matching))
    )

    inst = equal_value_collusion_instance()
    before = solve_ap(inst)
    results.append(
        _check("greedy-before-hide", "[(0, 0), (1, 1)]", _pairs(before))
    )
    hidden = truthful_profile(inst).with_report(0, AgentReport(edges=(1,)))
    after = run_mechanism(MechanismKind.MAP, hidden)
    results.append(_check("greedy-after-hide", "[(0, 1), (2, 0)]", _pairs(after)))

    inst = complete_three_agent_instance()
    results.append(
        _check(
            "complete-market-breadth-first",
            "[(0, 0), (1, 1)]",
            _pairs(solve_mvbm(inst, Traversal.BREADTH_FIRST)),
        )
    )
    results.append(
        _check(
            "complete-market-depth-first",
            "[(0, 1), (1, 0)]",
            _pairs(solve_mvbm(inst, Traversal.DEPTH_FIRST)),
        )
    )

    inst = two_class_instance()
    results.append(
        _check(
            "two-class-breadth-first",
            "[(0, 0), (0, 1), (1, 2)]",
            _pairs(solve_mvbm(inst, Traversal.BREADTH_FIRST)),
        )
    )
    results.append(
        _check(
            "two-class-depth-first",
            "[(0, 1), (0, 2), (2, 0)]",
            _pairs(solve_mvbm(inst, Traversal.DEPTH_FIRST)),
        )
    )

    inst = two_by_two_complete_instance()
    hidden = truthful_profile(inst).with_report(0, AgentReport(edges=(0,)))
    expectation = run_randomized_bfs(hidden, trials=128, seed=20240811)
    results.append(_check("lottery-hide-expectation", 2.0, float(expectation[0])))

    return results
