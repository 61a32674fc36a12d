"""Manipulation families, gain metrics, and equilibrium verification.

The manipulation families mirror how agents hide edges in practice:

* threshold manipulation drops every edge to a task valued below a
  cutoff;
* order manipulation drops the k lowest-valued adjacent tasks;
* the top-capacity report keeps only the best tasks up to capacity.

All families are clamped to keep at least one edge, since a report must
be a non-empty subset of the true adjacency.

Gain is measured as the clipped relative utility increase
``max(after - before, 0) / before`` with the convention 0/0 = 1.  The
instance-level maximum gain excludes agents whose utility is zero both
before and after (the degenerate 0/0 cases would otherwise dominate the
maximum).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import inf
from typing import Callable, Iterable, Iterator

from .core import (
    Instance,
    SizeCapExceededError,
    WEIGHT_TOL,
    agent_utility,
    task_utility,
)
from .mechanisms import (
    AGENTS,
    AgentReport,
    DETERMINISTIC_KINDS,
    MechanismKind,
    Profile,
    TASKS,
    TaskReport,
    run_mechanism,
    truthful_profile,
)

__all__ = [
    "TLevel",
    "KOrder",
    "TopB",
    "ExplicitReport",
    "GainReport",
    "ProfitableDeviation",
    "ENUMERATION_DEGREE_CAP",
    "apply_manipulation",
    "utility_gain_ratio",
    "unilateral_deviations",
    "mpug",
    "pma",
    "pmi",
    "best_response_exhaustive",
    "verify_nash",
]

# Largest degree for which unilateral deviations are enumerated in full.
ENUMERATION_DEGREE_CAP = 20


@dataclass(frozen=True)
class TLevel:
    """Keep only edges to tasks valued at least ``threshold``."""

    threshold: float


@dataclass(frozen=True)
class KOrder:
    """Drop the ``k`` lowest-valued adjacent tasks."""

    k: int


@dataclass(frozen=True)
class TopB:
    """Keep the highest-valued tasks up to the agent's capacity."""


@dataclass(frozen=True)
class ExplicitReport:
    """Use a fully specified report."""

    report: AgentReport


ManipulationSpec = TLevel | KOrder | TopB | ExplicitReport


@dataclass(frozen=True)
class GainReport:
    agent: int
    truthful_utility: float
    manipulated_utility: float
    gain_ratio: float


@dataclass(frozen=True)
class ProfitableDeviation:
    """One profitable unilateral deviation found by an audit or a
    best-response search."""

    entity: int
    report: object
    baseline_utility: float
    deviant_utility: float


def _by_value(inst: Instance):
    values = inst.values
    return lambda t: (-values[t], t)


def apply_manipulation(
    inst: Instance, agent_id: int, spec: ManipulationSpec
) -> AgentReport:
    """Build the report an agent submits under a manipulation family.

    If a family would drop every edge, the single highest-valued edge is
    kept instead, since a report cannot be empty.
    """
    adj = inst.agent_adj[agent_id]
    if not adj:
        raise ValueError(f"agent {agent_id} has no edges to manipulate")
    if isinstance(spec, ExplicitReport):
        return spec.report
    ordered = sorted(adj, key=_by_value(inst))
    if isinstance(spec, TLevel):
        keep = [t for t in ordered if inst.tasks[t].value >= spec.threshold]
    elif isinstance(spec, KOrder):
        if spec.k < 0:
            raise ValueError("k must be non-negative")
        keep = ordered[: len(ordered) - spec.k] if spec.k < len(ordered) else []
    elif isinstance(spec, TopB):
        keep = ordered[: inst.agents[agent_id].capacity]
    else:
        raise TypeError(f"unknown manipulation spec {spec!r}")
    if not keep:
        keep = ordered[:1]
    return AgentReport(edges=tuple(keep))


def _gain_ratio(before: float, after: float) -> float:
    if before > WEIGHT_TOL:
        return max(after - before, 0.0) / before
    return 1.0 if after <= WEIGHT_TOL else inf


def utility_gain_ratio(
    inst: Instance,
    kind: MechanismKind,
    agent_id: int,
    spec: ManipulationSpec,
) -> GainReport:
    """Solve the truthful and the manipulated market and compare the
    agent's utility; the ratio is clipped at zero and uses 0/0 = 1."""
    if kind not in DETERMINISTIC_KINDS:
        raise ValueError("gain ratios are defined for deterministic mechanisms")
    report = apply_manipulation(inst, agent_id, spec)
    ((_, _, before, after),) = unilateral_deviations(
        kind, truthful_profile(inst), lambda a, _: (report,), (agent_id,)
    )
    return GainReport(agent_id, before, after, _gain_ratio(before, after))


def _side_view(inst: Instance, side: str):
    """The true adjacency of one side's entities and the utility of one
    entity under a matching (task utilities as 0.0 or 1.0)."""
    if side == AGENTS:
        return inst.agent_adj, lambda mu, e: agent_utility(inst, mu, e)
    return inst.task_adj, lambda mu, e: float(task_utility(mu, e))


def _is_truthful(inst: Instance, side: str, entity: int, report) -> bool:
    if side == AGENTS:
        return report.edges == inst.agent_adj[entity] and report.capacity in (
            None,
            inst.agents[entity].capacity,
        )
    return report.edges == inst.task_adj[entity] and report.value in (
        None,
        inst.tasks[entity].value,
    )


def unilateral_deviations(
    kind: MechanismKind,
    profile: Profile,
    candidates: Callable[[int, float], Iterable],
    entities: Iterable[int] | None = None,
) -> Iterator[tuple[int, object, float, float]]:
    """Swap one entity's report at a time into ``profile`` and re-solve.

    Yields ``(entity, report, baseline, deviant)``: the entity's utility
    under ``profile`` and under ``profile`` with ``report`` in its slot,
    in entity order, then in the order of ``candidates(entity,
    baseline)``.  Entities default to every one of ``profile.side`` with
    a non-empty true adjacency; entities without one are skipped.  The
    profile is solved once, on the first request.  A truthful report is
    never solved again: its deviant utility is the baseline, so it never
    reads as a gain and still competes in an argmax.
    """
    inst, side = profile.base, profile.side
    adjacency, utility = _side_view(inst, side)
    mu = run_mechanism(kind, profile)
    if entities is None:
        entities = range(len(adjacency))
    for entity in entities:
        if not adjacency[entity]:
            continue
        baseline = utility(mu, entity)
        for report in candidates(entity, baseline):
            if _is_truthful(inst, side, entity, report):
                deviant = baseline
            else:
                deviant = utility(
                    run_mechanism(kind, profile.with_report(entity, report)), entity
                )
            yield entity, report, baseline, deviant


def _family_reports(
    inst: Instance, agent_id: int, specs: Iterable[ManipulationSpec]
) -> Iterator[AgentReport]:
    """The distinct reports the specs build for one agent, in spec order,
    without the truthful one."""
    seen = {inst.agent_adj[agent_id]}
    for spec in specs:
        report = apply_manipulation(inst, agent_id, spec)
        if report.edges not in seen:
            seen.add(report.edges)
            yield report


def _family_deviations(
    inst: Instance, kind: MechanismKind, specs: list[ManipulationSpec]
) -> Iterator[tuple[int, object, float, float]]:
    return unilateral_deviations(
        kind, truthful_profile(inst), lambda a, _: _family_reports(inst, a, specs)
    )


def mpug(
    inst: Instance, kind: MechanismKind, thresholds: list[float]
) -> float:
    """Maximum gain ratio over all agents and all threshold manipulations.

    Agents whose utility is zero both truthfully and after manipulating
    are excluded; with no remaining candidates the result is 0.
    """
    if not thresholds:
        raise ValueError("thresholds must be non-empty")
    if kind not in DETERMINISTIC_KINDS:
        raise ValueError("gain ratios are defined for deterministic mechanisms")
    specs: list[ManipulationSpec] = [TLevel(t) for t in thresholds]
    best = 0.0
    for _, _, before, after in _family_deviations(inst, kind, specs):
        if before <= WEIGHT_TOL and after <= WEIGHT_TOL:
            continue
        best = max(best, _gain_ratio(before, after))
    return best


def pma(
    inst: Instance, kind: MechanismKind, specs: list[ManipulationSpec]
) -> float:
    """Fraction of agents that strictly gain under at least one spec."""
    if not specs:
        raise ValueError("specs must be non-empty")
    if inst.n == 0:
        return 0.0
    gainers = {
        a
        for a, _, before, after in _family_deviations(inst, kind, list(specs))
        if after - before > WEIGHT_TOL
    }
    return len(gainers) / inst.n


def pmi(
    batch: list[Instance], kind: MechanismKind, specs: list[ManipulationSpec]
) -> float:
    """Fraction of instances on which at least one agent can gain."""
    if not batch:
        raise ValueError("batch must be non-empty")
    hit = sum(1 for inst in batch if pma(inst, kind, specs) > 0.0)
    return hit / len(batch)


def _report_candidates(
    inst: Instance,
    side: str,
    entity: int,
    setting: str,
    value_grid: tuple[float, ...] = (),
) -> list[AgentReport] | list[TaskReport]:
    """Every bounded report of one agent or task: each non-empty subset
    of its true adjacency, by size and then lexicographically, crossed
    with every capacity in 1..true (``ecms``, agents) or every reported
    value ``true value * f`` for the grid fractions ``f``, highest first
    (``evms``, tasks)."""
    if side == AGENTS:
        adj, noun = inst.agent_adj[entity], "agent"
    else:
        adj, noun = inst.task_adj[entity], "task"
    degree = len(adj)
    if degree == 0:
        raise ValueError(f"{noun} {entity} has an empty strategy set")
    if degree > ENUMERATION_DEGREE_CAP:
        raise SizeCapExceededError(
            f"{noun} degree {degree} exceeds the enumeration cap "
            f"{ENUMERATION_DEGREE_CAP}"
        )
    subsets = [
        combo
        for size in range(1, degree + 1)
        for combo in itertools.combinations(adj, size)
    ]
    if setting == "ems":
        report_type = AgentReport if side == AGENTS else TaskReport
        return [report_type(edges=combo) for combo in subsets]
    if side == AGENTS and setting == "ecms":
        cap = inst.agents[entity].capacity
        return [
            AgentReport(edges=combo, capacity=c)
            for combo in subsets
            for c in range(1, cap + 1)
        ]
    if side == TASKS and setting == "evms":
        value = inst.tasks[entity].value
        reported = sorted({value * f for f in value_grid if 0 < f <= 1}, reverse=True)
        return [
            TaskReport(edges=combo, value=v)
            for combo in subsets
            for v in reported
            if v > 0
        ]
    raise ValueError(f"unknown setting {setting!r}")


def best_response_exhaustive(
    inst: Instance,
    kind: MechanismKind,
    agent_id: int,
    others: Profile | None = None,
    setting: str = "ems",
) -> tuple[AgentReport, float]:
    """Argmax utility over every non-empty edge subset (and, in the
    capacity setting, every capacity report).

    Ties go to the lexicographically smallest subset, then to the
    largest capacity.
    """
    if others is None:
        others = truthful_profile(inst)
    candidates = _report_candidates(inst, AGENTS, agent_id, setting)
    best_report: AgentReport | None = None
    best_utility = -inf
    for _, report, _, utility in unilateral_deviations(
        kind, others.with_report(agent_id, None), lambda a, _: candidates, (agent_id,)
    ):
        if utility > best_utility + WEIGHT_TOL:
            best_report, best_utility = report, utility
        elif utility > best_utility - WEIGHT_TOL and best_report is not None:
            key = (report.edges, -(report.capacity or 0))
            best_key = (best_report.edges, -(best_report.capacity or 0))
            if key < best_key:
                best_report = report
    assert best_report is not None
    return best_report, best_utility


def verify_nash(
    profile: Profile, kind: MechanismKind, setting: str = "ems"
) -> tuple[bool, ProfitableDeviation | None]:
    """True iff no agent has a strictly improving unilateral deviation;
    otherwise also returns the first one found (in agent order)."""
    inst = profile.base
    mu = run_mechanism(kind, profile)
    for a in range(inst.n):
        if not inst.agent_adj[a]:
            continue
        current = agent_utility(inst, mu, a)
        report, utility = best_response_exhaustive(
            inst, kind, a, others=profile, setting=setting
        )
        if utility > current + WEIGHT_TOL:
            return False, ProfitableDeviation(a, report, current, utility)
    return True, None
