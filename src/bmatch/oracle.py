"""Brute-force ground truth.

The optimum is found by enumerating assignments task by task, without
the augmenting-path solvers: ``brute_force_mvbm`` is the one independent
check of their optimality.  The other checks enumerate strategies and
run the mechanisms under test on each: truthfulness audits try every
bounded unilateral report, coalition searches every joint report of a
small group, and equilibria are enumerated over full pure-strategy
profiles.

Coalition searches and equilibrium enumeration share one joint-report
solve, ``_joint_outcomes``.  After the mechanism and cap checks it
checks each player's options once.  An ``ems`` report changes no
capacity or value, so the joint markets differ only in the players'
rows, and one vector pass (``solver._solve_rows``) solves them all in
product order, reading each market's player rows from the option rows
(``solver._Markets``); no joint adjacency is stacked, and no ``Profile``
or market is built per joint report.  The owner array is scored with
numpy (``mechanisms._utilities``).  A ``Profile`` is made only for an
equilibrium that is returned, and a coalition returns its reports.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from math import inf
from typing import Sequence

import numpy as np

from .core import (
    Instance,
    SizeCapExceededError,
    WEIGHT_TOL,
    matching_weight,
)
from .mechanisms import (
    _TRAVERSALS,
    AGENTS,
    MechanismKind,
    Profile,
    TASKS,
    _bounded_report,
    _utilities,
    truthful_profile,
    worst_ne_profile,
)
from .solver import Traversal, _Markets, _solve_rows, solve_mvbm
from .strategies import (
    ProfitableDeviation,
    _report_candidates,
    _require_deterministic,
    unilateral_deviations,
)

__all__ = [
    "OptimumCertificate",
    "CoalitionDeviation",
    "brute_force_mvbm",
    "audit_agent_truthfulness",
    "audit_task_truthfulness",
    "find_agent_coalition",
    "find_task_coalition",
    "enumerate_pure_nash",
    "poa_pos_on_instance",
]

BRUTE_FORCE_TASK_CAP = 8
BRUTE_FORCE_BRANCH_CAP = 10_000_000
NASH_PROFILE_CAP = 1_000_000


@dataclass(frozen=True)
class OptimumCertificate:
    """The exact optimum with one witness owner tuple and the number of
    feasible assignments enumerated on the way."""

    weight: float
    matching: tuple[int, ...]
    enumerated: int


def brute_force_mvbm(inst: Instance) -> OptimumCertificate:
    """Exact optimum by exhaustive enumeration.

    Walks the tasks in id order; each task either goes to one adjacent
    agent with residual capacity or stays unmatched.  Ties are broken
    toward the lexicographically smallest assignment vector (agents in
    ascending id, unmatched last).
    """
    if inst.m > BRUTE_FORCE_TASK_CAP:
        raise SizeCapExceededError(
            f"{inst.m} tasks exceed the brute-force cap {BRUTE_FORCE_TASK_CAP}"
        )
    branches = 1
    for adj in inst.task_adj:
        branches *= len(adj) + 1
    if branches > BRUTE_FORCE_BRANCH_CAP:
        raise SizeCapExceededError(
            f"{branches} assignment branches exceed the cap {BRUTE_FORCE_BRANCH_CAP}"
        )

    m = inst.m
    values = inst.values
    residual = list(inst.capacities)
    assign = [-1] * m
    best_weight = -1.0
    best_assign: list[int] = assign.copy()
    leaves = 0

    def recurse(j: int, weight: float) -> None:
        nonlocal best_weight, best_assign, leaves
        if j == m:
            leaves += 1
            if weight > best_weight:
                best_weight = weight
                best_assign = assign.copy()
            return
        for a in inst.task_adj[j]:
            if residual[a] > 0:
                residual[a] -= 1
                assign[j] = a
                recurse(j + 1, weight + values[j])
                residual[a] += 1
                assign[j] = -1
        recurse(j + 1, weight)

    recurse(0, 0.0)
    return OptimumCertificate(max(best_weight, 0.0), tuple(best_assign), leaves)


def _profitable(deviations) -> list[ProfitableDeviation]:
    return [
        ProfitableDeviation(entity, report, baseline, deviant)
        for entity, report, baseline, deviant in deviations
        if deviant > baseline + WEIGHT_TOL
    ]


def audit_agent_truthfulness(
    inst: Instance, kind: MechanismKind, setting: str = "ems"
) -> list[ProfitableDeviation]:
    """Every profitable unilateral agent deviation against truthful
    others; an empty list certifies truthfulness on this instance."""
    return _profitable(
        unilateral_deviations(
            kind,
            truthful_profile(inst),
            lambda a, _: _report_candidates(inst, AGENTS, a, setting),
        )
    )


def audit_task_truthfulness(
    inst: Instance,
    kind: MechanismKind,
    setting: str = "ems",
    value_grid: tuple[float, ...] = (1.0, 0.5, 0.25),
) -> list[ProfitableDeviation]:
    """Every bounded task report that flips the task from unmatched to
    matched; an empty list certifies truthfulness on this instance.

    In the value setting each unmatched task tries every edge subset
    combined with each reported value ``true value * f`` for the grid
    fractions ``f``.
    """
    return _profitable(
        unilateral_deviations(
            kind,
            truthful_profile(inst, TASKS),
            lambda j, matched: ()
            if matched
            else _report_candidates(inst, TASKS, j, setting, value_grid),
        )
    )


@dataclass(frozen=True)
class CoalitionDeviation:
    """A joint misreport under which no member loses and at least one
    strictly gains."""

    entities: tuple[int, ...]
    reports: tuple[object, ...]
    baseline_utilities: tuple[float, ...]
    deviant_utilities: tuple[float, ...]


def _joint_outcomes(
    inst: Instance, kind: MechanismKind, side: str, entities: Sequence[int], cap: int
) -> tuple[list[list], np.ndarray]:
    """Run a deterministic mechanism on every joint ``ems`` report of
    ``entities``, the others truthful, at most ``cap`` of them.

    Returns each entity's options and the (joint reports, m) owner array
    of the joint reports in product order of the option indices.  The
    mechanism, the degree and the cap are checked, and each option once
    with ``_bounded_report``, before the solve.  Each joint market is the
    base with the chosen option rows in place of the entities' rows: an
    ``ems`` report changes no capacity or value, so one ``_solve_rows``
    call solves them all.
    """
    _require_deterministic(kind)
    options = [_report_candidates(inst, side, e, "ems") for e in entities]
    count = math.prod(len(o) for o in options)
    if count > cap:
        raise SizeCapExceededError(
            f"{count} joint reports of {side} {tuple(entities)} exceed the cap {cap}"
        )
    option_rows = [
        [_bounded_report(inst, side, e, report)[0] for report in o]
        for e, o in zip(entities, options)
    ]
    markets = _Markets(inst, side == AGENTS, entities, option_rows)
    traversal = _TRAVERSALS.get(kind)  # None: MAP's length-1 solve
    return options, _solve_rows(markets, traversal)


def _find_coalition(
    inst: Instance, kind: MechanismKind, side: str, max_size: int, cap: int
) -> CoalitionDeviation | None:
    """The first coalition of ``side`` entities up to ``max_size``, by
    size and then lexicographically, with a joint edge-hiding report
    under which no member loses and one strictly gains."""
    if max_size < 1:
        raise ValueError(f"max_size must be at least 1, got {max_size}")
    _require_deterministic(kind)
    adjacency = inst.agent_adj if side == AGENTS else inst.task_adj
    eligible = [e for e, adj in enumerate(adjacency) if adj]
    baseline = None
    for size in range(1, max_size + 1):
        for coalition in itertools.combinations(eligible, size):
            options, owners = _joint_outcomes(inst, kind, side, coalition, cap)
            if baseline is None:
                # the first coalition is one entity, whose last option,
                # its whole row, is the truthful report
                everyone = range(len(adjacency))
                (baseline,) = _utilities(inst, side, owners[-1:], everyone)
            old = baseline[list(coalition)]
            new = _utilities(inst, side, owners, coalition)
            gain = (new >= old - WEIGHT_TOL).all(axis=1) & (
                new > old + WEIGHT_TOL
            ).any(axis=1)
            if gain.any():
                # the rows run in product order, the first joint report first
                index = int(gain.argmax())
                key = np.unravel_index(index, tuple(map(len, options)))
                joint = tuple(o[c] for o, c in zip(options, key))
                return CoalitionDeviation(
                    coalition, joint, tuple(old.tolist()), tuple(new[index].tolist())
                )
    return None


def find_agent_coalition(
    inst: Instance,
    kind: MechanismKind,
    max_size: int = 3,
    joint_cap: int = NASH_PROFILE_CAP,
) -> CoalitionDeviation | None:
    """Search every agent coalition up to ``max_size`` for a weakly
    improving joint report with one strict gainer; ``None`` certifies
    group strategyproofness at this coalition size."""
    return _find_coalition(inst, kind, AGENTS, max_size, joint_cap)


def find_task_coalition(
    inst: Instance,
    kind: MechanismKind,
    max_size: int = 2,
    joint_cap: int = NASH_PROFILE_CAP,
) -> CoalitionDeviation | None:
    """Search task coalitions for a joint edge-hiding report that keeps
    every truthfully matched member matched and flips at least one
    unmatched member to matched."""
    return _find_coalition(inst, kind, TASKS, max_size, joint_cap)


def enumerate_pure_nash(
    inst: Instance, kind: MechanismKind
) -> list[tuple[Profile, float]]:
    """All pure Nash equilibria over non-empty edge-subset strategies.

    Agents without edges have no strategies and are held at a truthful
    (empty) report.  Raises when the profile space exceeds the cap.

    Every joint report is solved in one pass (``_joint_outcomes``), and
    the owner array is scored task by task in id order, so each agent's
    utility is summed left to right as ``agent_utility`` sums it.  A
    profile is stable iff for every player the best utility along the
    player's axis of the ``(options..., n)`` utility table is not above
    its own plus ``WEIGHT_TOL``; the player's own option never is.  A
    ``Profile`` is built only for a stable one.
    """
    n = inst.n
    players = [a for a in range(n) if inst.agent_adj[a]]
    options, owners = _joint_outcomes(inst, kind, AGENTS, players, NASH_PROFILE_CAP)
    shape = tuple(len(o) for o in options)
    utils = _utilities(inst, AGENTS, owners, range(n))
    table = utils.reshape(*shape, n)
    stable = np.ones(shape, dtype=bool)
    for axis, player in enumerate(players):
        own = table[..., player]
        stable &= own.max(axis=axis, keepdims=True) <= own + WEIGHT_TOL

    equilibria: list[tuple[Profile, float]] = []
    # the table's row-major order is the rows' product order
    for index in np.flatnonzero(stable).tolist():
        reports: list[object] = [None] * n
        for player, o, choice in zip(players, options, np.unravel_index(index, shape)):
            reports[player] = o[choice]
        # left to right: builtin sum() compensates from Python 3.12 on
        welfare = 0.0
        for x in utils[index].tolist():
            welfare += x
        equilibria.append((Profile(AGENTS, inst, tuple(reports)), welfare))
    return equilibria


def poa_pos_on_instance(
    inst: Instance, kind: MechanismKind, exact: bool | None = None
) -> tuple[float, float | None]:
    """Optimal welfare over worst and best equilibrium welfare.

    With small strategy spaces (``exact``) the equilibria are enumerated
    outright; otherwise the worst-equilibrium welfare comes from the
    first-come-first-served profile and only the first ratio is
    returned.
    """
    if kind not in (MechanismKind.MBFS, MechanismKind.MDFS):
        raise ValueError("equilibrium ratios are defined for the exact mechanisms")
    if exact is None:
        exact = inst.n <= 3 and all(len(adj) <= 4 for adj in inst.agent_adj)
    try:
        optimum = brute_force_mvbm(inst).weight
    except SizeCapExceededError:
        optimum = matching_weight(inst, solve_mvbm(inst, Traversal.BREADTH_FIRST))
    if optimum <= WEIGHT_TOL:
        return 1.0, 1.0 if exact else None
    if exact:
        equilibria = enumerate_pure_nash(inst, kind)
        if not equilibria:
            raise RuntimeError("no pure equilibrium found, which should not happen")
        welfares = [w for _, w in equilibria]
        worst, best = min(welfares), max(welfares)
        return optimum / worst if worst > WEIGHT_TOL else inf, (
            optimum / best if best > WEIGHT_TOL else inf
        )
    _, welfare = worst_ne_profile(inst)
    return optimum / welfare if welfare > WEIGHT_TOL else inf, None
