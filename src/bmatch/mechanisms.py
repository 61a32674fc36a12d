"""Mechanisms over strategic reports, first-come-first-served policies,
and the randomized-order variant.

Agents (or tasks) report a subset of their true adjacency, optionally
with a reduced capacity (agents) or value (tasks); reports can hide
information but never invent it.  A mechanism materializes the reported
market and solves it:

* ``MBFS`` / ``MDFS``: exact solve with breadth- or depth-first search;
* ``MAP``: the greedy length-1 approximation (truthful for agents);
* ``MRBFS``: a lottery orders the agents, then ``MBFS`` runs on the
  market as it is, reading each agent's priority from its position in
  that order; no permuted market is built.
  One sampler (``_lottery_samples``) serves the Monte Carlo probes:
  ``randomized_utility_samples`` on one profile, or a flat list of
  probes, each one agent's report, of any agents in one call.  It
  draws the substreams and orders of all trials of all probes at
  once; trial ``k``'s order is still the one ``sample_agent_order``
  draws from ``derive_rng(seed, k)``, the definition of that trial's
  stream.  It then solves all the trials
  at once, one market each, in the solver's vector pass
  (``solver._solve_rows``), which also solves the oracle's joint
  reports: one pass over the ranks for every trial while its searches
  end at depth 1 or 2 or fail, and ``MBFS`` on the solver's state
  machine for each trial from its first search that goes deeper on.
  Each row is the owner tuple ``solve_mvbm`` gives for its market and
  order.

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

from .core import Instance, _parse_finite, _parse_integral, _with_reports
from .seeds import derive_rng, substream_doubles
from .solver import Traversal, _Markets, _solve_rows, solve_ap, solve_mvbm

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

# The traversal each exact mechanism solves with; ``MAP`` is the greedy solver.
_TRAVERSALS = {
    MechanismKind.MBFS: Traversal.BREADTH_FIRST,
    MechanismKind.MDFS: Traversal.DEPTH_FIRST,
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
        if not 0 <= index < len(self.reports):
            noun = "agent" if self.side == AGENTS else "task"
            raise ValueError(f"unknown {noun} id {index}")
        reports = list(self.reports)
        reports[index] = report
        return Profile(self.side, self.base, tuple(reports))


def truthful_profile(inst: Instance, side: str = AGENTS) -> Profile:
    count = inst.n if side == AGENTS else inst.m
    return Profile(side, inst, (None,) * count)


def _bounded_report(
    base: Instance, side: str, e: int, report: AgentReport | TaskReport | None
) -> tuple[tuple[int, ...], int | float]:
    """The edges and the capacity (agents) or value (tasks) that entity
    ``e`` of ``side`` reports; ``None`` reports the truth.

    Raises ``ValueError`` when the report is not bounded by the truth
    (extra edges, capacity outside [1, true], value outside (0, true])
    or its capacity is not an integer (a boolean is not one).  The
    capacity comes back as an ``int`` and the value as a ``float``, as
    the ``Instance`` constructor stores them.
    """
    agents = side == AGENTS
    if agents:
        noun, peers, report_type, key = "agent", "tasks", AgentReport, "capacity"
        true_adj, true_bound, low = base.agent_adj[e], base.capacities[e], "[1"
    else:
        noun, peers, report_type, key = "task", "agents", TaskReport, "value"
        true_adj, true_bound, low = base.task_adj[e], base.values[e], "(0"
    if report is None:
        return true_adj, true_bound
    if not isinstance(report, report_type):
        raise ValueError(f"{noun} {e} carries a non-{noun} report")
    extra = set(report.edges).difference(true_adj)
    if extra:
        raise ValueError(
            f"{noun} {e} reports non-existing edges to {peers} {sorted(extra)}"
        )
    bound = getattr(report, key)
    if bound is None:
        return report.edges, true_bound
    if not (bound >= 1 if agents else bound > 0) or bound > true_bound:
        raise ValueError(
            f"{noun} {e} reports {key} {bound} outside {low}, {true_bound}]"
        )
    if agents and (isinstance(bound, bool) or bound != int(bound)):
        raise ValueError(f"agent {e} reports non-integral capacity {bound!r}")
    return report.edges, int(bound) if agents else float(bound)


def build_effective_instance(profile: Profile) -> Instance:
    """Materialize the reported market.

    Raises ``ValueError`` when a report is not bounded by the truth
    (see ``_bounded_report``).  The market is patched from the base, on
    either side: it shares every adjacency tuple no report touches, and
    the task order while no reported value differs from the truth.
    """
    base, side = profile.base, profile.side
    agents = side == AGENTS
    bounds = list(base.capacities if agents else base.values)
    reported: dict[int, tuple[int, ...]] = {}
    for e, report in enumerate(profile.reports):
        if report is not None:
            reported[e], bounds[e] = _bounded_report(base, side, e, report)
    return _with_reports(base, agents, bounds, reported)


def run_mechanism(
    kind: MechanismKind, profile: Profile, rng_seed: int | None = None
) -> tuple[int, ...]:
    """Run a mechanism on a profile of reports; returns the owner tuple.

    The randomized kind needs ``rng_seed``; the assignment it returns is
    always expressed in the original agent ids.
    """
    effective = build_effective_instance(profile)
    randomized = kind is MechanismKind.MRBFS
    if randomized and rng_seed is None:
        raise ValueError("the randomized mechanism requires rng_seed")
    if kind is MechanismKind.MAP:
        return solve_ap(effective)
    order = None
    if randomized:
        # one run equals trial 0 of the Monte Carlo sampler for the same seed
        order = sample_agent_order(effective, derive_rng(rng_seed, 0))
    return solve_mvbm(effective, _TRAVERSALS[kind], order)


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

    def owner(self) -> tuple[int, ...]:
        """The union of the claims as an owner tuple."""
        owner = [-1] * len(self.residual_chain[0])
        for a, policy in enumerate(self.policies):
            for t in policy:
                owner[t] = a
        return tuple(owner)


def fcfs_policies(inst: Instance) -> FcfsPolicySet:
    """The claim recursion: each agent, in priority order, takes the
    highest-valued remaining tasks it is adjacent to, up to capacity."""
    remaining = set(range(inst.m))
    chain = [frozenset(remaining)]
    policies = []
    for a in range(inst.n):
        candidates = [t for t in inst.agent_adj[a] if t in remaining]
        candidates.sort(key=inst.task_rank.__getitem__)
        take = candidates[: inst.capacities[a]]
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
        welfare += inst.values[t]
    return profile, welfare


def first_agent_best_report(inst: Instance, agent_id: int = 0) -> tuple[int, ...]:
    """The highest-valued adjacent tasks, up to capacity.

    For the first-processed agent this report is a dominant strategy
    under both exact mechanisms.
    """
    if not 0 <= agent_id < inst.n:
        raise ValueError(f"unknown agent id {agent_id}")
    adj = inst.agent_adj[agent_id]
    if not adj:
        raise ValueError(f"agent {agent_id} has no edges")
    ordered = sorted(adj, key=inst.task_rank.__getitem__)
    keep = ordered[: inst.capacities[agent_id]]
    return tuple(sorted(keep))


def lottery_weights(inst: Instance) -> list[float]:
    """Per-agent lottery weight: the sum of 1/(1 + value) over the
    adjacent tasks of ``inst``, which for a reported market (see
    ``build_effective_instance``) are the *reported* ones.  Hiding a
    low-valued edge lowers the weight, so concealment is penalized in
    the order draw."""
    return [_lottery_weight(inst.values, adj) for adj in inst.agent_adj]


def _lottery_weight(values: Sequence[float], tasks: Sequence[int]) -> float:
    """One agent's lottery weight over ``tasks``, its adjacent tasks."""
    # left to right: builtin sum() compensates its float additions since
    # Python 3.12, which would change the draws by interpreter
    weight = 0.0
    for t in tasks:
        weight += 1.0 / (1.0 + values[t])
    return weight


def sample_agent_order(inst: Instance, rng: np.random.Generator) -> tuple[int, ...]:
    """Sequential weighted draw without replacement.

    Each round picks one of the remaining agents with probability
    proportional to its lottery weight.  Agents whose weight is zero
    (no reported edges) are appended after all positive-weight agents,
    in id order.  One ``rng.random(k)`` call supplies the doubles of all
    ``k`` rounds; they are the values ``k`` scalar calls would give, and
    the generator advances as far, although the last round reads none.
    """
    weights = lottery_weights(inst)
    rounds = sum(1 for w in weights if w > 0.0)
    return tuple(_draw_orders(weights, rng.random(rounds)[None])[0].tolist())


def _draw_orders(weights, doubles: np.ndarray) -> np.ndarray:
    """The draw of ``sample_agent_order``, once per row of ``doubles``.

    ``weights`` holds the agents' weights, one row for all orders or
    (lines, n): each line serves ``len(doubles) // lines`` consecutive
    orders, such as one probe's trials, or one order.  ``doubles`` has
    one row per order and one column per
    round, that is per positive weight, so every row has as many positive
    weights; the last round's column may be left out.  A round scans the
    remaining agents in id order: with ``total`` their weight sum and
    ``x = u * total``, it picks the first agent whose running sum ``acc``
    exceeds ``x``, or the last remaining agent when rounding leaves none.
    The last round has one agent left, which either rule picks whatever
    its double, so that double is never read.

    All orders advance one round at a time, agent by agent: the weights
    are stored one line per agent, and each line of running sums is the
    line before plus the agent's weights, one vector add across all
    orders.  Drawn and zero-weight agents keep their line with weight
    0.0, and adding 0.0 leaves a positive sum unchanged, so ``total`` and
    ``acc`` are those of the scalar scan bit for bit, and a weight-0.0
    line is never the first whose ``acc`` exceeds ``x``.  The running
    sums never fall, so that first agent is the count of those that do
    not exceed ``x``: one reduce over the agents of a bool table read as
    bytes, summed in ``np.min_scalar_type(n)``, the smallest unsigned type
    that holds ``n``.  The last round takes the one agent whose id the
    earlier rounds left in each order's sum of its positive ids.
    """
    rows = len(doubles)
    weights = np.atleast_2d(np.asarray(weights, dtype=np.float64))
    lines, n = weights.shape
    positive = weights > 0.0
    rounds = int(positive[0].sum())
    assert (positive.sum(axis=1) == rounds).all() and rows % lines == 0
    assert doubles.shape[1] >= rounds - 1
    per_line = rows // lines
    # one line per agent, each weight repeated for the orders of its line
    live = weights.T.repeat(per_line, axis=1)
    # the agent each order draws in each round, one line per round
    drawn = np.empty((n, rows), dtype=np.intp)
    left = (positive @ np.arange(n)).repeat(per_line)
    cells = live.reshape(-1)
    order = np.arange(rows)
    acc = np.empty_like(live)
    below = np.empty(live.shape, dtype=bool)
    count = np.min_scalar_type(n)
    for r in range(rounds - 1):
        acc[0] = live[0]
        for a in range(1, n):
            np.add(acc[a - 1], live[a], out=acc[a])
        np.less_equal(acc, doubles[:, r] * acc[-1], out=below)
        agent = np.add.reduce(below.view(np.uint8), axis=0, dtype=count)
        missed = agent == n
        if missed.any():
            # the last agent still holding a positive weight
            agent[missed] = n - 1 - (live[::-1, missed] > 0.0).argmax(axis=0)
        drawn[r] = agent
        left -= drawn[r]
        # each order's drawn cell, by its flat index in the agent lines
        cells[drawn[r] * rows + order] = 0.0
    if rounds:
        drawn[rounds - 1] = left
    # the zero-weight agents of each order, in id order
    zero = np.nonzero(~positive)[1].reshape(lines, n - rounds)
    drawn[rounds:] = zero.T.repeat(per_line, axis=1)
    return np.ascontiguousarray(drawn.T)


def _utilities(
    inst: Instance, side: str, owners: np.ndarray, entities: Sequence[int]
) -> np.ndarray:
    """Each of ``entities``' utility under each owner row, as a (rows,
    entities) array.  An agent's values are added task by task in id
    order, as ``agent_utility`` adds them, so every sum keeps its bits; a
    task's utility is 1.0 when it is matched."""
    if side == TASKS:
        return (owners[:, list(entities)] >= 0).astype(float)
    # each agent's column, and the spare last column for the others and
    # for owner -1
    column = np.full(inst.n + 1, len(entities))
    column[list(entities)] = range(len(entities))
    utils = np.zeros((len(owners), len(entities) + 1))
    lines = np.arange(len(owners))
    for t, value in enumerate(inst.values):
        utils[lines, column[owners[:, t]]] += value
    return utils[:, :-1]


def randomized_utility_samples(
    profile: Profile, trials: int, seed: int
) -> np.ndarray:
    """Per-trial agent utilities of the randomized mechanism.

    Returns a (trials, n) array.  Trial ``k`` uses the substream
    ``(seed, k)``, so results are independent of execution order and
    identical for identical seeds.  Row ``k`` is the trial
    ``sample_agent_order(effective, derive_rng(seed, k))`` and
    ``solve_mvbm`` would give; ``_lottery_samples`` draws and solves
    all trials at once.
    """
    return _lottery_samples(profile, trials, [seed])


def _lottery_samples(
    profile: Profile,
    trials: int,
    seeds: Sequence[int],
    probes: Sequence[tuple[int, AgentReport]] = (),
) -> np.ndarray:
    """The sampler of ``randomized_utility_samples``.

    With no ``probes``, returns ``randomized_utility_samples(profile,
    trials, seeds[0])``.  Else each probe ``(a, report)`` files
    ``report`` in place of agent ``a``'s report in ``profile`` and runs
    on the seed ``seeds[i]``, probes of any agents in any order; returns
    a (len(probes) * trials, 1) array whose rows of probe ``i`` are
    ``randomized_utility_samples(profile.with_report(a, report), trials,
    seeds[i])[:, a]``, bit for bit.  A probe, and the profile report of
    a probing agent, must keep the agent's true capacity.  Every row
    must draw as many rounds, so a probe or such a profile report may
    list no task only if all of them list none.

    The doubles of every trial of every probe come from one
    ``substream_doubles`` call, their orders from one ``_draw_orders``
    call, and all rows are solved in one ``solver._solve_rows`` pass,
    one market per row.  The pass's players are the probing agents:
    option 0 of each is its row in the profile's market, and its probes
    follow it.  A probe's rows, once per trial, take its option for its
    agent and option 0 for every other player, and only its agent's
    weight differs from the profile market's.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if len(seeds) != max(1, len(probes)):
        raise ValueError("the sampler takes one seed per probe")
    base = profile.base
    # each probing agent in the order of its first probe
    players = list(dict.fromkeys(a for a, _ in probes))
    if players and profile.side != AGENTS:
        raise ValueError("probes need an agent-side profile")
    # the players' true rows stand in the shared market; an option row
    # cuts one of them
    reports = tuple(None if e in players else report
                    for e, report in enumerate(profile.reports))
    effective = build_effective_instance(Profile(profile.side, base, reports))

    def edges(a, report, what):
        edges, capacity = _bounded_report(base, AGENTS, a, report)
        if capacity != base.capacities[a]:
            raise ValueError(f"{what} of agent {a} changes its capacity")
        return edges

    column = {a: p for p, a in enumerate(players)}
    options = [[edges(a, profile.reports[a], "the profile report")] for a in players]
    # one line per probe, or one line with no probe: each player's option
    # and each agent's weight
    picks = np.zeros((max(1, len(probes)), len(players)), dtype=np.intp)
    own = []
    for i, (a, report) in enumerate(probes):
        rows = options[column[a]]
        picks[i, column[a]] = len(rows)
        rows.append(edges(a, report, "a probe"))
        own.append(_lottery_weight(effective.values, rows[-1]))
    agents = np.array([a for a, _ in probes], dtype=np.intp)
    weights = np.array([lottery_weights(effective)]).repeat(len(picks), axis=0)
    weights[:, players] = [_lottery_weight(effective.values, rows[0]) for rows in options]
    weights[np.arange(len(probes)), agents] = own
    rounds = (weights > 0.0).sum(axis=1)
    if (rounds != rounds[0]).any():
        raise ValueError("the probes' rows draw different numbers of rounds")
    # each line once per trial
    markets = _Markets(effective, True, players, options, picks.repeat(trials, axis=0))
    # the last round reads no double
    doubles = substream_doubles(seeds, trials, max(0, int(rounds[0]) - 1))
    orders = _draw_orders(weights, doubles)
    owner = _solve_rows(markets, Traversal.BREADTH_FIRST, orders)
    if not probes:
        return _utilities(effective, AGENTS, owner, range(effective.n))
    # each agent's sum runs left to right by task id; adding 0.0 for
    # another agent's task leaves it unchanged, and one add per task
    # column costs less than ``_utilities``' scattered adds or a cumsum
    # along each row
    values = np.asarray(effective.values, dtype=np.float64)
    mine = owner == agents.repeat(trials)[:, None]
    gains = np.where(mine, values, 0.0)
    total = gains[:, :1].copy()
    for column in gains.T[1:]:
        total[:, 0] += column
    return total


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
