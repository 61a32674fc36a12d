"""Brute-force ground truth.

The optimum is found by enumerating assignments task by task, without
the augmenting-path solvers: ``brute_force_mvbm`` is the one independent
check of their optimality.  The other checks enumerate strategies and
run the mechanisms under test on each: truthfulness audits try every
bounded unilateral report, coalition searches every joint report of a
small group, and equilibria are enumerated over full pure-strategy
profiles.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from math import inf

from .core import (
    Instance,
    Matching,
    SizeCapExceededError,
    WEIGHT_TOL,
    agent_utility,
    matching_weight,
    require_valid,
)
from .mechanisms import (
    AGENTS,
    MechanismKind,
    Profile,
    TASKS,
    run_mechanism,
    truthful_profile,
    worst_ne_profile,
)
from .solver import Traversal, solve_mvbm
from .strategies import (
    ProfitableDeviation,
    _report_candidates,
    _side_view,
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
    """The exact optimum with one witness matching and the number of
    feasible assignments enumerated on the way."""

    weight: float
    matching: Matching
    enumerated: int


def brute_force_mvbm(inst: Instance) -> OptimumCertificate:
    """Exact optimum by exhaustive enumeration.

    Walks the tasks in id order; each task either goes to one adjacent
    agent with residual capacity or stays unmatched.  Ties are broken
    toward the lexicographically smallest assignment vector (agents in
    ascending id, unmatched last).
    """
    require_valid(inst)
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
    matching = Matching.from_pairs(
        (a, j) for j, a in enumerate(best_assign) if a != -1
    )
    return OptimumCertificate(max(best_weight, 0.0), matching, leaves)


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
    require_valid(inst)
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
    require_valid(inst)
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


def _find_coalition(
    inst: Instance, kind: MechanismKind, side: str, max_size: int, joint_cap: int
) -> CoalitionDeviation | None:
    """The first coalition of ``side`` entities up to ``max_size``, by
    size and then lexicographically, with a joint edge-hiding report
    under which no member loses and one strictly gains."""
    require_valid(inst)
    adjacency, utility = _side_view(inst, side)
    truthful = truthful_profile(inst, side)
    mu = run_mechanism(kind, truthful)
    baseline = [utility(mu, e) for e in range(len(adjacency))]
    eligible = [e for e, adj in enumerate(adjacency) if adj]
    for size in range(1, max_size + 1):
        for coalition in itertools.combinations(eligible, size):
            option_sets = [_report_candidates(inst, side, e, "ems") for e in coalition]
            joint_count = math.prod(len(options) for options in option_sets)
            if joint_count > joint_cap:
                raise SizeCapExceededError(
                    f"coalition {coalition} has {joint_count} joint reports"
                )
            old = tuple(baseline[e] for e in coalition)
            for joint in itertools.product(*option_sets):
                profile = truthful
                for e, report in zip(coalition, joint):
                    profile = profile.with_report(e, report)
                mu_dev = run_mechanism(kind, profile)
                new = tuple(utility(mu_dev, e) for e in coalition)
                no_loss = all(u >= o - WEIGHT_TOL for u, o in zip(new, old))
                strict = any(u > o + WEIGHT_TOL for u, o in zip(new, old))
                if no_loss and strict:
                    return CoalitionDeviation(coalition, joint, old, new)
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
    """
    require_valid(inst)
    players = [a for a in range(inst.n) if inst.agent_adj[a]]
    option_sets = [_report_candidates(inst, AGENTS, a, "ems") for a in players]
    profile_count = math.prod(len(options) for options in option_sets)
    if profile_count > NASH_PROFILE_CAP:
        raise SizeCapExceededError(
            f"{profile_count} pure profiles exceed the cap {NASH_PROFILE_CAP}"
        )
    truthful = truthful_profile(inst)

    utilities: dict[tuple[int, ...], tuple[float, ...]] = {}
    for key in itertools.product(*(range(len(o)) for o in option_sets)):
        profile = truthful
        for idx, choice in enumerate(key):
            profile = profile.with_report(players[idx], option_sets[idx][choice])
        mu = run_mechanism(kind, profile)
        utilities[key] = tuple(agent_utility(inst, mu, a) for a in range(inst.n))

    equilibria: list[tuple[Profile, float]] = []
    for key, utils in utilities.items():
        is_ne = True
        for idx, player in enumerate(players):
            current = utils[player]
            for alt in range(len(option_sets[idx])):
                if alt == key[idx]:
                    continue
                alt_key = key[:idx] + (alt,) + key[idx + 1 :]
                if utilities[alt_key][player] > current + WEIGHT_TOL:
                    is_ne = False
                    break
            if not is_ne:
                break
        if is_ne:
            profile = truthful
            for idx, player in enumerate(players):
                profile = profile.with_report(player, option_sets[idx][key[idx]])
            equilibria.append((profile, sum(utils)))
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
    require_valid(inst)
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
