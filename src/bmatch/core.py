"""Plain-array data layer for vertex-weighted bipartite b-matching markets.

A market is its agent capacities (integers), its task values
(non-negative floats) and an adjacency relation between them; agent
``a`` and task ``t`` are plain indices into those tuples.  A feasible
b-matching assigns every task to at most one adjacent agent and every
agent to at most ``capacity`` tasks, so it is fully described by an
owner tuple: ``owner[t]`` is the agent holding task ``t``, or -1.  Its
weight is the total value of the matched tasks.

An ``Instance`` checks itself once, when it is built, so every instance
in the program is valid.  Instances and owner tuples are immutable and
safe to share across workers.  All operations in this module are pure.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, Sequence

__all__ = [
    "WEIGHT_TOL",
    "Instance",
    "InvalidInstanceError",
    "InfeasibleMatchingError",
    "SizeCapExceededError",
    "is_feasible_matching",
    "matching_weight",
    "agent_utility",
    "task_utility",
    "matched_pairs",
    "load_instance",
    "dump_instance",
]

# Absolute tolerance for all weight comparisons.  Reference values are
# small sums of plain literals, which stay exact well inside this band.
WEIGHT_TOL = 1e-9


class InvalidInstanceError(ValueError):
    """Raised by the ``Instance`` constructor with every violation found."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


class InfeasibleMatchingError(ValueError):
    """Raised when an owner array violates capacity or adjacency, or does
    not hold one entry per task."""


class SizeCapExceededError(ValueError):
    """Raised when an exhaustive enumeration would exceed its size cap."""


class Instance:
    """A bipartite market: agent capacities, task values, and adjacency.

    The constructor is the one place where a market is checked: it
    raises ``InvalidInstanceError`` listing every non-integral (boolean
    included) or non-positive capacity, negative or NaN value, capacity
    or value too large for a float, out-of-range endpoint and duplicate
    edge, so every ``Instance`` is valid and no later layer checks it
    again.  The adjacency per agent and per task is kept sorted and
    deduplicated.

    Tasks are processed in decreasing value, ties broken by increasing
    task id.  Agent priority is the list index: agent 0 goes first.
    """

    __slots__ = (
        "capacities",
        "values",
        "agent_adj",
        "task_adj",
        "task_order",
        "task_rank",
    )

    def __init__(
        self,
        capacities: Iterable[int],
        values: Iterable[float],
        edges: Iterable[tuple[int, int]],
    ):
        capacities, values = tuple(capacities), tuple(values)
        n, m = len(capacities), len(values)
        violations = []
        for i, capacity in enumerate(capacities):
            try:
                integral = not isinstance(capacity, bool) and float(capacity).is_integer()
            except OverflowError:
                violations.append(f"capacity of agent {i} too large for a float")
                continue
            if not integral:
                violations.append(f"non-integral capacity {capacity!r} on agent {i}")
            elif capacity < 1:
                violations.append(f"non-positive capacity {int(capacity)} on agent {i}")
        self.values: tuple[float, ...] = _floats(values, violations)
        violations += [
            f"negative or NaN value {value} on task {j}"
            for j, value in enumerate(self.values)
            if not value >= 0
        ]
        agent_adj: list[set[int]] = [set() for _ in range(n)]
        task_adj: list[list[int]] = [[] for _ in range(m)]
        for a, t in edges:
            a, t = int(a), int(t)
            if not 0 <= a < n:
                violations.append(f"out-of-range agent id {a} in edge ({a}, {t})")
            elif not 0 <= t < m:
                violations.append(f"out-of-range task id {t} in edge ({a}, {t})")
            elif t in agent_adj[a]:
                violations.append(f"duplicate edge ({a}, {t})")
            else:
                agent_adj[a].add(t)
                task_adj[t].append(a)
        if violations:
            raise InvalidInstanceError(violations)
        self.capacities: tuple[int, ...] = tuple(map(int, capacities))
        self.agent_adj: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(adj)) for adj in agent_adj
        )
        self.task_adj: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(adj)) for adj in task_adj
        )
        self.task_order, self.task_rank = _process_order(self.values)

    @property
    def n(self) -> int:
        return len(self.capacities)

    @property
    def m(self) -> int:
        return len(self.values)

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
            and self.agent_adj == other.agent_adj
        )

    def __hash__(self) -> int:
        return hash((self.capacities, self.values, self.agent_adj))

    def __repr__(self) -> str:
        return f"Instance(n={self.n}, m={self.m}, edges={len(self.edge_set())})"

    def to_json_dict(self) -> dict:
        return {
            "agents": [{"capacity": c} for c in self.capacities],
            "tasks": [{"value": v} for v in self.values],
            "edges": [[a, t] for a, adj in enumerate(self.agent_adj) for t in adj],
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

        def field(side, k, entry, key):
            if not isinstance(entry, dict) or key not in entry:
                raise ValueError(
                    f"{side} {k} is not an object with a {key!r}: {entry!r}"
                )
            return entry[key]

        def pair(k, entry):
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise ValueError(f"edge {k} is not an [agent, task] pair: {entry!r}")
            return (
                _parse_integral(entry[0], "edge agent"),
                _parse_integral(entry[1], "edge task"),
            )

        capacities = [
            _parse_integral(field("agent", i, e, "capacity"), f"capacity of agent {i}")
            for i, e in enumerate(data["agents"])
        ]
        values = [
            _parse_finite(field("task", j, e, "value"), f"value of task {j}")
            for j, e in enumerate(data["tasks"])
        ]
        edges = sorted({pair(k, e) for k, e in enumerate(data["edges"])})
        return cls(capacities, values, edges)


def _floats(values: tuple, violations: list[str]) -> tuple[float, ...]:
    """The task values as floats; a value too large for one is added to
    ``violations`` and read as 0.0."""
    try:
        return tuple(map(float, values))
    except OverflowError:
        pass
    floats = []
    for j, value in enumerate(values):
        try:
            floats.append(float(value))
        except OverflowError:
            violations.append(f"value of task {j} too large for a float")
            floats.append(0.0)
    return tuple(floats)


def _process_order(
    values: tuple[float, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The task order (decreasing value, ties by increasing id) and each
    task's rank in it."""
    order = sorted(range(len(values)), key=lambda j: (-values[j], j))
    rank = [0] * len(order)
    for pos, j in enumerate(order):
        rank[j] = pos
    return tuple(order), tuple(rank)


def _with_reports(
    base: Instance,
    agents: bool,
    bounds: Iterable[int] | Iterable[float],
    reported: dict[int, tuple[int, ...]],
) -> Instance:
    """``base`` with the bounds of one side (the capacities when
    ``agents``, else the values) and each of that side's entities in
    ``reported`` cut down to the given peers, built without the
    constructor's checks: the one builder of reported markets.

    Every reported row must be a sorted subset of the true row and every
    bound must pass ``mechanisms._bounded_report``; such a market is
    valid because ``base`` is.  A reported row as long as the true row
    is the true row and is skipped; any other is taken as given.  Each
    peer column a report cuts is cut once, for all the entities that
    hide it.  Every adjacency tuple no report cuts is shared with
    ``base``, and so is the task order while the values are.
    """
    rows = list(base.agent_adj if agents else base.task_adj)
    cols = list(base.task_adj if agents else base.agent_adj)
    hidden_from: dict[int, set[int]] = {}
    for e, edges in reported.items():
        row = rows[e]
        if len(edges) == len(row):
            continue
        rows[e] = edges
        keep = set(edges)
        for p in row:
            if p not in keep:
                hidden_from.setdefault(p, set()).add(e)
    for p, entities in hidden_from.items():
        cols[p] = tuple([e for e in cols[p] if e not in entities])
    inst = object.__new__(Instance)
    if agents:
        inst.capacities, inst.values = tuple(bounds), base.values
        inst.agent_adj, inst.task_adj = tuple(rows), tuple(cols)
    else:
        inst.capacities, inst.values = base.capacities, tuple(bounds)
        inst.agent_adj, inst.task_adj = tuple(cols), tuple(rows)
    if inst.values == base.values:
        inst.task_order, inst.task_rank = base.task_order, base.task_rank
    else:
        inst.task_order, inst.task_rank = _process_order(inst.values)
    return inst


def _parse_number(raw, what: str) -> float:
    """``raw`` as a float; a JSON boolean is not a number, and an integer
    too large for a float is rejected."""
    if not isinstance(raw, bool):
        try:
            return float(raw)
        except OverflowError:
            raise ValueError(f"{what} too large for a float") from None
        except (TypeError, ValueError):
            pass
    raise ValueError(f"non-numeric {what}: {raw!r}")


def _parse_integral(raw, what: str) -> int:
    """``raw`` as an int; integral floats are accepted, fractions and
    booleans are not."""
    if type(raw) is int:
        return raw
    number = _parse_number(raw, what)
    if not number.is_integer():
        raise ValueError(f"non-integral {what}: {raw!r}")
    return int(number)


def _parse_finite(raw, what: str) -> float:
    number = _parse_number(raw, what)
    if not math.isfinite(number):
        raise ValueError(f"non-finite {what}: {raw!r}")
    return number


def is_feasible_matching(inst: Instance, owner: Sequence[int]) -> bool:
    """True iff ``owner`` has one entry per task and respects adjacency
    and capacities."""
    if len(owner) != inst.m:
        return False
    load = [0] * inst.n
    for t, a in enumerate(owner):
        if a == -1:
            continue
        if a not in inst.task_adj[t]:
            return False
        load[a] += 1
    return all(count <= cap for count, cap in zip(load, inst.capacities))


def agent_utility(inst: Instance, owner: Sequence[int], agent_id: int) -> float:
    """Total value of the tasks ``agent_id`` holds, summed in increasing
    task id."""
    if not 0 <= agent_id < inst.n:
        raise ValueError(f"unknown agent id {agent_id}")
    values = inst.values
    total = 0.0
    for t, a in enumerate(owner):
        if a == agent_id:
            total += values[t]
    return total


def _agent_utilities(inst: Instance, owner: Sequence[int]) -> list[float]:
    """Every agent's ``agent_utility`` in one pass over ``owner``: each
    agent's values summed in increasing task id, so the sums are the
    same."""
    totals = [0.0] * inst.n
    for value, a in zip(inst.values, owner):
        if a != -1:
            totals[a] += value
    return totals


def matching_weight(inst: Instance, owner: Sequence[int]) -> float:
    """Total value of the matched tasks.

    Summed agent by agent over the ``agent_utility`` sums, so that the
    per-agent utilities partition the weight exactly.
    """
    if not is_feasible_matching(inst, owner):
        raise InfeasibleMatchingError(f"owner array {list(owner)} is infeasible")
    total = 0.0
    for utility in _agent_utilities(inst, owner):
        total += utility
    return total


def task_utility(owner: Sequence[int], task_id: int) -> int:
    """1 iff the task is assigned to any agent."""
    if not 0 <= task_id < len(owner):
        raise ValueError(f"unknown task id {task_id}")
    return 0 if owner[task_id] == -1 else 1


def matched_pairs(owner: Sequence[int]) -> list[tuple[int, int]]:
    """The (agent id, task id) pairs of an owner array, sorted."""
    return sorted((a, t) for t, a in enumerate(owner) if a != -1)


def _load_json(path: str):
    """The JSON document in the file ``path``.  One nested too deeply
    for the parser raises ``ValueError``, as other malformed JSON does."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError("JSON nested too deeply to read") from None


def load_instance(path: str) -> Instance:
    return Instance.from_json_dict(_load_json(path))


def dump_instance(inst: Instance, path: str) -> None:
    """Write ``inst`` as standard JSON: a non-finite value raises
    ``ValueError``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(inst.to_json_dict(), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
