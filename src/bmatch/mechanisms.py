"""Mechanisms over strategic reports, first-come-first-served policies,
and the randomized-order variant.

Agents (or tasks) report a subset of their true adjacency, optionally
with a reduced capacity (agents) or value (tasks); reports can hide
information but never invent it.  A mechanism materializes the reported
market and solves it:

* ``MBFS`` / ``MDFS``: exact solve with breadth- or depth-first search;
* ``MAP``: the greedy length-1 approximation (truthful for agents);
* ``MRBFS``: a lottery orders the agents, then ``MBFS`` runs on the
  permuted market and the assignment is mapped back to original ids.

The first-come-first-served (FCFS) recursion gives each agent, in
priority order, the best remaining tasks it is adjacent to, up to its
capacity.  The profile of FCFS reports is a worst pure Nash equilibrium
of the exact mechanisms, and its outcome coincides with ``MAP``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    Agent,
    Instance,
    Matching,
    Task,
    _parse_finite,
    _parse_integral,
    require_valid,
)
from .seeds import derive_rng
from .solver import Traversal, _as_matching, _solve_owner_array

__all__ = [
    "AGENTS",
    "TASKS",
    "MechanismKind",
    "AgentReport",
    "TaskReport",
    "Profile",
    "FcfsPolicySet",
    "truthful_profile",
    "build_effective_instance",
    "run_mechanism",
    "fcfs_policies",
    "worst_ne_profile",
    "first_agent_best_report",
    "lottery_weights",
    "sample_agent_order",
    "randomized_utility_samples",
    "run_randomized_bfs",
    "profile_to_json_dict",
    "profile_from_json_dict",
]

AGENTS = "agents"
TASKS = "tasks"


class MechanismKind(enum.Enum):
    MBFS = "bfs"
    MDFS = "dfs"
    MAP = "ap"
    MRBFS = "rbfs"


DETERMINISTIC_KINDS = (MechanismKind.MBFS, MechanismKind.MDFS, MechanismKind.MAP)

# The traversal each mechanism solves with; ``None`` is the greedy solver.
_TRAVERSALS = {
    MechanismKind.MBFS: Traversal.BREADTH_FIRST,
    MechanismKind.MDFS: Traversal.DEPTH_FIRST,
    MechanismKind.MAP: None,
    MechanismKind.MRBFS: Traversal.BREADTH_FIRST,
}


@dataclass(frozen=True)
class AgentReport:
    """An agent-side report: an edge subset and, optionally, a capacity.

    ``edges`` lists task ids and must be a subset of the agent's true
    adjacency.  An empty tuple withdraws the agent entirely; it is not a
    strategy in the usual sense (strategy enumeration never emits it)
    but it makes worst-equilibrium profiles representable when an
    agent's FCFS policy is empty.
    """

    edges: tuple[int, ...]
    capacity: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(sorted(set(self.edges))))


@dataclass(frozen=True)
class TaskReport:
    """A task-side report: an agent-id subset and, optionally, a value in
    (0, true value]."""

    edges: tuple[int, ...]
    value: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(sorted(set(self.edges))))


@dataclass(frozen=True)
class Profile:
    """One report per strategic entity against a true base instance.

    ``None`` entries mean a truthful report.
    """

    side: str
    base: Instance
    reports: tuple[AgentReport | TaskReport | None, ...]

    def __post_init__(self):
        if self.side not in (AGENTS, TASKS):
            raise ValueError(f"unknown side {self.side!r}")
        expected = self.base.n if self.side == AGENTS else self.base.m
        if len(self.reports) != expected:
            raise ValueError(
                f"expected {expected} reports for side {self.side!r}, "
                f"got {len(self.reports)}"
            )

    def with_report(self, index: int, report) -> "Profile":
        reports = list(self.reports)
        reports[index] = report
        return Profile(self.side, self.base, tuple(reports))


def truthful_profile(inst: Instance, side: str = AGENTS) -> Profile:
    count = inst.n if side == AGENTS else inst.m
    return Profile(side, inst, (None,) * count)


def build_effective_instance(profile: Profile) -> Instance:
    """Materialize the reported market.

    Raises ``ValueError`` when a report is not bounded by the truth
    (extra edges, capacity outside [1, true], value outside (0, true]).
    """
    base = profile.base
    agents = profile.side == AGENTS
    if agents:
        noun, peers, report_type, key = "agent", "tasks", AgentReport, "capacity"
        true_adj, bounds, low = base.agent_adj, list(base.capacities), "[1"
    else:
        noun, peers, report_type, key = "task", "agents", TaskReport, "value"
        true_adj, bounds, low = base.task_adj, list(base.values), "(0"
    reported = list(true_adj)
    for e, report in enumerate(profile.reports):
        if report is None:
            continue
        if not isinstance(report, report_type):
            raise ValueError(f"{noun} {e} carries a non-{noun} report")
        extra = set(report.edges) - set(true_adj[e])
        if extra:
            raise ValueError(
                f"{noun} {e} reports non-existing edges to {peers} {sorted(extra)}"
            )
        bound = getattr(report, key)
        if bound is not None:
            if not (bound >= 1 if agents else bound > 0) or bound > bounds[e]:
                raise ValueError(
                    f"{noun} {e} reports {key} {bound} outside {low}, {bounds[e]}]"
                )
            bounds[e] = bound
        reported[e] = report.edges
    if agents:
        edges = [(a, t) for a, adj in enumerate(reported) for t in adj]
        return Instance([Agent(a, c) for a, c in enumerate(bounds)], base.tasks, edges)
    edges = [(a, j) for j, adj in enumerate(reported) for a in adj]
    return Instance(base.agents, [Task(j, v) for j, v in enumerate(bounds)], edges)


def run_mechanism(
    kind: MechanismKind, profile: Profile, rng_seed: int | None = None
) -> Matching:
    """Run a mechanism on a profile of reports.

    The randomized kind needs ``rng_seed``; the assignment it returns is
    always expressed in the original agent ids.
    """
    effective = build_effective_instance(profile)
    randomized = kind is MechanismKind.MRBFS
    if randomized and rng_seed is None:
        raise ValueError("the randomized mechanism requires rng_seed")
    require_valid(effective)
    order = None
    if randomized:
        # one run equals trial 0 of the Monte Carlo sampler for the same seed
        order = sample_agent_order(effective, None, derive_rng(rng_seed, 0))
    return _as_matching(_solve_owner_array(effective, order, _TRAVERSALS[kind]))


@dataclass(frozen=True)
class FcfsPolicySet:
    """Per-agent first-come-first-served task claims.

    ``policies[i]`` holds the task ids agent ``i`` claims; the sets are
    pairwise disjoint and never exceed the agent's capacity.
    ``residual_chain[i]`` is the pool of tasks still unclaimed after the
    first ``i`` agents.
    """

    policies: tuple[tuple[int, ...], ...]
    residual_chain: tuple[frozenset[int], ...]

    def union_pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset(
            (a, t) for a, policy in enumerate(self.policies) for t in policy
        )


def fcfs_policies(inst: Instance) -> FcfsPolicySet:
    """The claim recursion: each agent, in priority order, takes the
    highest-valued remaining tasks it is adjacent to, up to capacity."""
    values = inst.values
    remaining = set(range(inst.m))
    chain = [frozenset(remaining)]
    policies = []
    for a in range(inst.n):
        candidates = [t for t in inst.agent_adj[a] if t in remaining]
        candidates.sort(key=lambda t: (-values[t], t))
        take = candidates[: inst.agents[a].capacity]
        remaining.difference_update(take)
        policies.append(tuple(sorted(take)))
        chain.append(frozenset(remaining))
    return FcfsPolicySet(tuple(policies), tuple(chain))


def worst_ne_profile(inst: Instance) -> tuple[Profile, float]:
    """The profile where every agent reports exactly its FCFS claim.

    Agents with an empty claim withdraw.  The profile is a pure Nash
    equilibrium of both exact mechanisms with the lowest welfare among
    all equilibria, and both mechanisms return exactly the union of the
    claims on it.
    """
    policy_set = fcfs_policies(inst)
    reports = tuple(AgentReport(edges=p) for p in policy_set.policies)
    profile = Profile(AGENTS, inst, reports)
    welfare = 0.0
    for t in sorted(t for p in policy_set.policies for t in p):
        welfare += inst.tasks[t].value
    return profile, welfare


def first_agent_best_report(inst: Instance, agent_id: int = 0) -> tuple[int, ...]:
    """The highest-valued adjacent tasks, up to capacity.

    For the first-processed agent this report is a dominant strategy
    under both exact mechanisms.
    """
    adj = inst.agent_adj[agent_id]
    if not adj:
        raise ValueError(f"agent {agent_id} has no edges")
    values = inst.values
    ordered = sorted(adj, key=lambda t: (-values[t], t))
    keep = ordered[: inst.agents[agent_id].capacity]
    return tuple(sorted(keep))


def lottery_weights(
    inst: Instance, reports: Sequence[AgentReport | None] | None
) -> list[float]:
    """Per-agent lottery weight: the sum of 1/(1 + value) over the
    *reported* adjacent tasks.  Hiding a low-valued edge lowers the
    weight, so concealment is penalized in the order draw."""
    values = inst.values
    weights = []
    for a in range(inst.n):
        if reports is not None and reports[a] is not None:
            adj = reports[a].edges
        else:
            adj = inst.agent_adj[a]
        weights.append(sum(1.0 / (1.0 + values[t]) for t in adj))
    return weights


def sample_agent_order(
    inst: Instance,
    reports: Sequence[AgentReport | None] | None,
    rng: np.random.Generator,
) -> tuple[int, ...]:
    """Sequential weighted draw without replacement.

    Each round picks one of the remaining agents with probability
    proportional to its lottery weight.  Agents whose weight is zero
    (no reported edges) are appended after all positive-weight agents,
    in id order.
    """
    return _draw_order(lottery_weights(inst, reports), rng)


def _draw_order(weights: Sequence[float], rng: np.random.Generator) -> tuple[int, ...]:
    """The draw of ``sample_agent_order`` over precomputed weights."""
    n = len(weights)
    remaining = [a for a in range(n) if weights[a] > 0.0]
    order: list[int] = []
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


def randomized_utility_samples(
    profile: Profile, trials: int, seed: int
) -> np.ndarray:
    """Per-trial agent utilities of the randomized mechanism.

    Returns a (trials, n) array.  Trial ``k`` uses the substream
    ``(seed, k)``, so results are independent of execution order and
    identical for identical seeds.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    effective = build_effective_instance(profile)
    require_valid(effective)
    values = effective.values
    n = effective.n
    weights = lottery_weights(effective, None)
    samples = np.zeros((trials, n), dtype=np.float64)
    for k in range(trials):
        order = _draw_order(weights, derive_rng(seed, k))
        owner = _solve_owner_array(effective, order, Traversal.BREADTH_FIRST)
        row = samples[k]
        for t, a in enumerate(owner):
            if a != -1:
                row[a] += values[t]
    return samples


def run_randomized_bfs(profile: Profile, trials: int, seed: int) -> np.ndarray:
    """Monte Carlo estimate of each agent's expected utility under the
    randomized mechanism; deterministic given the seed."""
    samples = randomized_utility_samples(profile, trials, seed)
    return samples.mean(axis=0)


def profile_to_json_dict(profile: Profile) -> dict:
    reports = []
    for report in profile.reports:
        entry = None
        if report is not None:
            key = "capacity" if isinstance(report, AgentReport) else "value"
            entry = {"edges": list(report.edges)}
            if getattr(report, key) is not None:
                entry[key] = getattr(report, key)
        reports.append(entry)
    return {"side": profile.side, "reports": reports}


def profile_from_json_dict(data: dict, base: Instance) -> Profile:
    if not isinstance(data, dict) or not isinstance(data.get("reports"), list):
        raise ValueError("not a profile: expected an object with a 'reports' list")
    side = data.get("side")
    if side == AGENTS:
        report_type, key, parse, peer = AgentReport, "capacity", _parse_integral, "task"
    else:
        report_type, key, parse, peer = TaskReport, "value", _parse_finite, "agent"
    reports: list[AgentReport | TaskReport | None] = []
    for i, entry in enumerate(data["reports"]):
        if entry is None:
            reports.append(None)
            continue
        if not isinstance(entry, dict) or not isinstance(entry.get("edges"), list):
            raise ValueError(f"report {i} is not an object with an 'edges' list")
        bound = entry.get(key)
        if bound is not None:
            bound = parse(bound, f"reported {key}")
        edges = [_parse_integral(e, f"reported {peer} id") for e in entry["edges"]]
        reports.append(report_type(tuple(edges), bound))
    return Profile(side, base, tuple(reports))
