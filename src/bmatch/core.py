"""Domain types for vertex-weighted bipartite b-matching markets.

A market instance has agents with integer capacities on one side, tasks
with non-negative values on the other, and an adjacency relation between
them.  A feasible b-matching assigns every task to at most one adjacent
agent and every agent to at most ``capacity`` tasks; its weight is the
total value of the matched tasks.

Instances and matchings are immutable after construction and safe to
share across workers.  All operations in this module are pure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "WEIGHT_TOL",
    "Agent",
    "Task",
    "Instance",
    "Matching",
    "InvalidInstanceError",
    "InfeasibleMatchingError",
    "SizeCapExceededError",
    "validate_instance",
    "is_feasible_matching",
    "matching_weight",
    "agent_utility",
    "task_utility",
    "load_instance",
    "dump_instance",
]

# Absolute tolerance for all weight comparisons.  Reference values are
# small sums of plain literals, which stay exact well inside this band.
WEIGHT_TOL = 1e-9


class InvalidInstanceError(ValueError):
    """Raised when an operation requires a valid instance but got violations."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


class InfeasibleMatchingError(ValueError):
    """Raised when a matching violates capacity, uniqueness, or adjacency."""


class SizeCapExceededError(ValueError):
    """Raised when an exhaustive enumeration would exceed its size cap."""


@dataclass(frozen=True)
class Agent:
    """An agent with a processing priority (its index) and a capacity."""

    id: int
    capacity: int


@dataclass(frozen=True)
class Task:
    """A task with an index and a publicly known value."""

    id: int
    value: float


class Instance:
    """A bipartite market: agents, tasks, and their adjacency.

    The raw edge list is kept as given so that validation can report
    duplicates and out-of-range endpoints.  Derived views (sorted
    adjacency per agent and per task, the task processing order) ignore
    malformed edges and are only meaningful once ``validate_instance``
    returns no violations.

    Tasks are processed in decreasing value, ties broken by increasing
    task id.  Agent priority is the list index: agent 0 goes first.
    """

    __slots__ = (
        "agents",
        "tasks",
        "edges",
        "agent_adj",
        "task_adj",
        "task_order",
        "task_rank",
    )

    def __init__(
        self,
        agents: Iterable[Agent],
        tasks: Iterable[Task],
        edges: Iterable[tuple[int, int]],
    ):
        self.agents: tuple[Agent, ...] = tuple(agents)
        self.tasks: tuple[Task, ...] = tuple(tasks)
        self.edges: tuple[tuple[int, int], ...] = tuple(
            (int(a), int(t)) for a, t in edges
        )
        n, m = len(self.agents), len(self.tasks)
        agent_adj: list[set[int]] = [set() for _ in range(n)]
        task_adj: list[set[int]] = [set() for _ in range(m)]
        for a, t in self.edges:
            if 0 <= a < n and 0 <= t < m:
                agent_adj[a].add(t)
                task_adj[t].add(a)
        self.agent_adj: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(s)) for s in agent_adj
        )
        self.task_adj: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(s)) for s in task_adj
        )
        values = [task.value for task in self.tasks]
        order = sorted(range(m), key=lambda j: (-values[j], j))
        self.task_order: tuple[int, ...] = tuple(order)
        rank = [0] * m
        for pos, j in enumerate(order):
            rank[j] = pos
        self.task_rank: tuple[int, ...] = tuple(rank)

    @classmethod
    def from_parts(
        cls,
        capacities: Sequence[int],
        values: Sequence[float],
        edges: Iterable[tuple[int, int]],
    ) -> "Instance":
        agents = [Agent(i, int(c)) for i, c in enumerate(capacities)]
        tasks = [Task(j, float(v)) for j, v in enumerate(values)]
        return cls(agents, tasks, edges)

    @property
    def n(self) -> int:
        return len(self.agents)

    @property
    def m(self) -> int:
        return len(self.tasks)

    @property
    def capacities(self) -> tuple[int, ...]:
        return tuple(a.capacity for a in self.agents)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(t.value for t in self.tasks)

    def degree(self, agent_id: int) -> int:
        return len(self.agent_adj[agent_id])

    def edge_set(self) -> frozenset[tuple[int, int]]:
        """The normalized (deduplicated) edge set."""
        return frozenset(
            (a, t) for a in range(self.n) for t in self.agent_adj[a]
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return (
            self.capacities == other.capacities
            and self.values == other.values
            and self.edge_set() == other.edge_set()
        )

    def __hash__(self) -> int:
        return hash((self.capacities, self.values, self.edge_set()))

    def __repr__(self) -> str:
        return f"Instance(n={self.n}, m={self.m}, edges={len(self.edges)})"

    def to_json_dict(self) -> dict:
        return {
            "agents": [{"capacity": a.capacity} for a in self.agents],
            "tasks": [{"value": t.value} for t in self.tasks],
            "edges": sorted([a, t] for a, t in self.edge_set()),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Instance":
        """Build from the JSON schema; edge order is irrelevant and the
        loaded adjacency is normalized (deduplicated, sorted)."""
        if not isinstance(data, dict):
            raise ValueError("not an instance: expected a JSON object")
        missing = {"agents", "tasks", "edges"} - set(data)
        if missing:
            raise ValueError(
                f"not an instance: missing {sorted(missing)} "
                "(expected agents/tasks/edges)"
            )
        for key in ("agents", "tasks", "edges"):
            if not isinstance(data[key], list):
                raise ValueError(f"not an instance: {key!r} must be a list")
        try:
            capacities = [
                _parse_integral(entry["capacity"], f"capacity of agent {i}")
                for i, entry in enumerate(data["agents"])
            ]
            values = [
                _parse_finite(entry["value"], f"value of task {j}")
                for j, entry in enumerate(data["tasks"])
            ]
            edges = sorted(
                {
                    (_parse_integral(a, "edge agent"), _parse_integral(t, "edge task"))
                    for a, t in data["edges"]
                }
            )
        except (TypeError, KeyError) as exc:
            raise ValueError(f"malformed instance: {exc!r}") from None
        return cls.from_parts(capacities, values, edges)


def _parse_integral(raw, what: str) -> int:
    """``raw`` as an int; integral floats are accepted, fractions are not."""
    if isinstance(raw, int):
        return raw
    number = float(raw)
    if not number.is_integer():
        raise ValueError(f"non-integral {what}: {raw!r}")
    return int(number)


def _parse_finite(raw, what: str) -> float:
    number = float(raw)
    if not math.isfinite(number):
        raise ValueError(f"non-finite {what}: {raw!r}")
    return number


@dataclass(frozen=True)
class Matching:
    """A set of (agent id, task id) pairs.

    Stored as a plain edge set so that symmetric differences against
    augmenting paths are ordinary set operations.
    """

    pairs: frozenset[tuple[int, int]]

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "Matching":
        return cls(frozenset((int(a), int(t)) for a, t in pairs))

    @classmethod
    def empty(cls) -> "Matching":
        return cls(frozenset())

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __contains__(self, pair: tuple[int, int]) -> bool:
        return pair in self.pairs

    def tasks_of(self, agent_id: int) -> tuple[int, ...]:
        return tuple(sorted(t for a, t in self.pairs if a == agent_id))

    def owner_of(self, task_id: int) -> int | None:
        for a, t in self.pairs:
            if t == task_id:
                return a
        return None

    def matched_tasks(self) -> frozenset[int]:
        return frozenset(t for _, t in self.pairs)


def validate_instance(inst: Instance) -> list[str]:
    """Return every invariant breach with its location; empty means valid.

    Violations are data, not failures: malformed instances can be
    inspected, they just cannot be solved.
    """
    violations: list[str] = []
    for i, agent in enumerate(inst.agents):
        if agent.id != i:
            violations.append(f"agent at position {i} has id {agent.id}")
        if agent.capacity < 1:
            violations.append(f"non-positive capacity {agent.capacity} on agent {i}")
    for j, task in enumerate(inst.tasks):
        if task.id != j:
            violations.append(f"task at position {j} has id {task.id}")
        if task.value < 0 or task.value != task.value:
            violations.append(f"negative or NaN value {task.value} on task {j}")
    seen: set[tuple[int, int]] = set()
    for a, t in inst.edges:
        if not 0 <= a < inst.n:
            violations.append(f"out-of-range agent id {a} in edge ({a}, {t})")
            continue
        if not 0 <= t < inst.m:
            violations.append(f"out-of-range task id {t} in edge ({a}, {t})")
            continue
        if (a, t) in seen:
            violations.append(f"duplicate edge ({a}, {t})")
        seen.add((a, t))
    return violations


def require_valid(inst: Instance) -> None:
    violations = validate_instance(inst)
    if violations:
        raise InvalidInstanceError(violations)


def is_feasible_matching(inst: Instance, mu: Matching) -> bool:
    """True iff ``mu`` respects adjacency, task uniqueness, and capacities."""
    edge_set = inst.edge_set()
    task_seen: set[int] = set()
    agent_count: dict[int, int] = {}
    for a, t in mu.pairs:
        if (a, t) not in edge_set:
            return False
        if t in task_seen:
            return False
        task_seen.add(t)
        agent_count[a] = agent_count.get(a, 0) + 1
    for a, count in agent_count.items():
        if count > inst.agents[a].capacity:
            return False
    return True


def agent_utility(inst: Instance, mu: Matching, agent_id: int) -> float:
    """Total value of the tasks matched to ``agent_id``."""
    if not 0 <= agent_id < inst.n:
        raise ValueError(f"unknown agent id {agent_id}")
    total = 0.0
    for t in mu.tasks_of(agent_id):
        total += inst.tasks[t].value
    return total


def matching_weight(inst: Instance, mu: Matching) -> float:
    """Total value of the matched tasks.

    Summed agent by agent, in the same order as ``agent_utility``, so
    that the per-agent utilities partition the weight exactly.
    """
    if not is_feasible_matching(inst, mu):
        raise InfeasibleMatchingError(f"matching {sorted(mu.pairs)} is infeasible")
    total = 0.0
    for a in range(inst.n):
        total += agent_utility(inst, mu, a)
    return total


def task_utility(mu: Matching, task_id: int) -> int:
    """1 iff the task is assigned to any agent."""
    return 1 if any(t == task_id for _, t in mu.pairs) else 0


def load_instance(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    inst = Instance.from_json_dict(data)
    require_valid(inst)
    return inst


def dump_instance(inst: Instance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(inst.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
