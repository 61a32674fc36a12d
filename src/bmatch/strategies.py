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
from bisect import bisect_right
from dataclasses import dataclass
from math import inf
from typing import Callable, Iterable, Iterator

from .core import (
    Instance,
    SizeCapExceededError,
    WEIGHT_TOL,
    _agent_utilities,
    _with_reports,
    agent_utility,
    task_utility,
)
from .mechanisms import (
    _TRAVERSALS,
    AGENTS,
    AgentReport,
    DETERMINISTIC_KINDS,
    MechanismKind,
    Profile,
    TASKS,
    TaskReport,
    _bounded_report,
    build_effective_instance,
    truthful_profile,
)
from .solver import _first_change, _resume, _solve_journaled

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


def apply_manipulation(
    inst: Instance, agent_id: int, spec: ManipulationSpec
) -> AgentReport:
    """Build the report an agent submits under a manipulation family.

    If a family would drop every edge, the single highest-valued edge is
    kept instead, since a report cannot be empty.
    """
    ordered = _ordered_row(inst, agent_id)
    if isinstance(spec, ExplicitReport):
        return spec.report
    return AgentReport(edges=tuple(ordered[:_kept(inst, agent_id, ordered, spec)]))


def _ordered_row(inst: Instance, agent_id: int) -> list[int]:
    """The agent's adjacent tasks by decreasing value, ties by id."""
    if not 0 <= agent_id < inst.n:
        raise ValueError(f"unknown agent id {agent_id}")
    adj = inst.agent_adj[agent_id]
    if not adj:
        raise ValueError(f"agent {agent_id} has no edges to manipulate")
    return sorted(adj, key=inst.task_rank.__getitem__)


def _kept(
    inst: Instance, agent_id: int, ordered: list[int], spec: ManipulationSpec
) -> int:
    """How many tasks of the ``_ordered_row`` a ``TLevel``, ``KOrder`` or
    ``TopB`` report keeps, from the first: at least one."""
    if isinstance(spec, TLevel):
        # the values never increase along the row; ``not v >= nan`` holds
        # for every value, so a NaN threshold keeps none
        threshold, values = spec.threshold, inst.values
        keep = (bisect_right(ordered, -threshold, key=lambda t: -values[t])
                if threshold == threshold else 0)
    elif isinstance(spec, KOrder):
        if spec.k < 0:
            raise ValueError("k must be non-negative")
        keep = len(ordered) - spec.k
    elif isinstance(spec, TopB):
        keep = min(inst.capacities[agent_id], len(ordered))
    else:
        raise TypeError(f"unknown manipulation spec {spec!r}")
    return max(keep, 1)


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


def _require_deterministic(kind: MechanismKind) -> None:
    if kind not in DETERMINISTIC_KINDS:
        raise ValueError(
            "deviations are defined for the deterministic mechanisms MBFS, MDFS and MAP"
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
    mechanism must be deterministic: ``ValueError`` otherwise.

    The profile's solve is journaled once, on the first request.  Each
    report is checked once, as ``build_effective_instance`` checks it.
    One that changes nothing before the entity's outcome is final keeps
    the baseline unbuilt and unsolved, so it never reads as a gain and
    still competes in an argmax; any other is patched into the profile's
    market (``core._with_reports``) and resumes the journal (see the
    ``solver`` module docstring).  An agent report that keeps the
    capacity is compared with the profile's row only at the ranks below
    the step from which the agent's outcome is final.
    """
    _require_deterministic(kind)
    inst, side = profile.base, profile.side
    agents = side == AGENTS
    adjacency, utility = _side_view(inst, side)
    traversal = _TRAVERSALS.get(kind)  # None: MAP's length-1 solve
    effective = build_effective_instance(profile)
    mu, journal, final_at = _solve_journaled(effective, traversal, agents)
    # every entity's utility under the profile, from one pass over ``mu``
    baselines = _agent_utilities(inst, mu) if agents else [float(a != -1) for a in mu]
    # the checked rows and bounds of the profile's market
    rows = dict(enumerate(effective.agent_adj if agents else effective.task_adj))
    bounds = effective.capacities if agents else effective.values
    if entities is None:
        entities = range(len(adjacency))
    for entity in entities:
        if not 0 <= entity < len(adjacency):
            raise ValueError(f"unknown {'agent' if agents else 'task'} id {entity}")
        if not adjacency[entity]:
            continue
        baseline = baselines[entity]
        final = final_at[entity]
        first_change = _first_change(effective, agents, entity, final)
        for report in candidates(entity, baseline):
            edges, bound = _bounded_report(inst, side, entity, report)
            rank = first_change(edges, bound)
            if final <= rank:
                deviant = baseline
            else:
                reported = _with_reports(
                    inst, agents, bounds[:entity] + (bound,) + bounds[entity + 1:],
                    {**rows, entity: edges})
                owner = _resume(reported, traversal, journal, rank, agents, entity)
                deviant = utility(owner, entity)
            yield entity, report, baseline, deviant


def _family_reports(
    inst: Instance, agent_id: int, specs: Iterable[ManipulationSpec]
) -> Iterator[AgentReport]:
    """The distinct reports the specs build for one agent, in spec order,
    without the truthful one: those of ``apply_manipulation``, deduped
    by edges.  A ``TLevel``, ``KOrder`` or ``TopB`` report is a prefix of
    the ``_ordered_row``, so it is told by its length and built once."""
    ordered = _ordered_row(inst, agent_id)
    seen = {inst.agent_adj[agent_id]}
    # the prefix lengths told already; the whole row is the truth
    told = {len(ordered)}
    for spec in specs:
        if isinstance(spec, ExplicitReport):
            report = spec.report
        else:
            keep = _kept(inst, agent_id, ordered, spec)
            if keep in told:
                continue
            told.add(keep)
            report = AgentReport(edges=tuple(ordered[:keep]))
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
        adjacency, noun = inst.agent_adj, "agent"
    else:
        adjacency, noun = inst.task_adj, "task"
    if not 0 <= entity < len(adjacency):
        raise ValueError(f"unknown {noun} id {entity}")
    adj = adjacency[entity]
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
        cap = inst.capacities[entity]
        return [
            AgentReport(edges=combo, capacity=c)
            for combo in subsets
            for c in range(1, cap + 1)
        ]
    if side == TASKS and setting == "evms":
        value = inst.values[entity]
        reported = sorted({value * f for f in value_grid if 0 < f <= 1}, reverse=True)
        return [
            TaskReport(edges=combo, value=v)
            for combo in subsets
            for v in reported
            if v > 0
        ]
    raise ValueError(f"unknown setting {setting!r}")


def _argmax(deviations: Iterable[tuple]) -> tuple[int, AgentReport, float, float]:
    """One agent's best ``unilateral_deviations`` yield; ties as in
    ``best_response_exhaustive``."""
    best_report, best_utility = None, -inf
    for agent, report, baseline, utility in deviations:
        if utility > best_utility + WEIGHT_TOL:
            best_report, best_utility = report, utility
        elif utility > best_utility - WEIGHT_TOL:
            key = (report.edges, -(report.capacity or 0))
            if key < (best_report.edges, -(best_report.capacity or 0)):
                best_report = report
    assert best_report is not None
    return agent, best_report, baseline, best_utility


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
    elif others.side != AGENTS:
        raise ValueError("best responses need an agent-side profile")
    candidates = _report_candidates(inst, AGENTS, agent_id, setting)
    _, report, _, utility = _argmax(unilateral_deviations(
        kind, others.with_report(agent_id, None), lambda a, _: candidates, (agent_id,)
    ))
    return report, utility


def verify_nash(
    profile: Profile, kind: MechanismKind, setting: str = "ems"
) -> tuple[bool, ProfitableDeviation | None]:
    """True iff no agent has a strictly improving unilateral deviation;
    otherwise also returns the first one found (in agent order), from
    one deviation pass over ``profile``."""
    if profile.side != AGENTS:
        raise ValueError("verify_nash needs an agent-side profile")
    inst = profile.base
    deviations = unilateral_deviations(
        kind, profile, lambda a, _: _report_candidates(inst, AGENTS, a, setting)
    )
    for _, group in itertools.groupby(deviations, key=lambda d: d[0]):
        agent, report, current, utility = _argmax(group)
        if utility > current + WEIGHT_TOL:
            return False, ProfitableDeviation(agent, report, current, utility)
    return True, None
