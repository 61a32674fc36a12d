"""Exact and approximate solvers for maximum vertex-weighted b-matching.

The exact solver processes tasks in decreasing value and grows the
matching by augmenting paths, found with either breadth-first or
depth-first traversal.  Both traversals produce a maximum-weight
matching; they differ in which agent ends up with which task:

* breadth-first returns a shortest augmenting path, expanding the
  frontier in agent-priority order, and breaks ties among terminals at
  the minimal depth by lowest priority position (the lowest agent index
  when no order is given).  A task's agents are listed in priority
  order, so at depth 1 the first unsaturated agent is that terminal and
  the search returns it without scanning the rest;
* depth-first explores a task's adjacent agents in increasing priority
  and dives through a saturated agent's matched tasks (in increasing
  task-process order) before trying the next agent at the same level.

Both traversals retire the agents of a failed search.  When no
augmenting path starts at task ``t``, every agent the search reached is
saturated, and every task matched to one of them has only reached agents
as neighbours.  No later path can end in that closed set, so no later
flip touches it and it stays closed (a failed alternating tree stays
failed: Hopcroft & Karp 1973; Spencer & Mayr, ICALP 1984).  Later
searches skip these dead agents.  This keeps both tie-breaks: a dead
agent is never a terminal, and the tasks behind it lead only to other
dead agents, so the frontier order, parent pointers, lowest-priority
terminal and dive order for live agents are the ones an unpruned search
would produce.

The approximate solver considers only length-1 paths: each task goes to
the lowest-index unsaturated adjacent agent, and assignments never move.
Its weight is at least half the optimum.

The exact solve is the greedy algorithm on a transversal matroid
(Edmonds 1971), so a re-solve can start late.  The search from the task
of rank ``k`` touches only that task, the tasks matched before it (all
of rank below ``k``) and their adjacent agents.  Two markets with the
same capacities and the same task, with the same adjacent agents, at
every rank below ``r`` therefore take the same first ``r`` steps, in the
length-1 approximation too: the same paths are flipped, and the same
searches fail and retire the same agents.  ``_solve_journaled`` records
the assignments of each step, and ``_resume`` loads those of the first
``r`` steps as one owner array with no dead marks, as the vector pass
loads a row that leaves it, and goes on in the other market.  A dead
agent's tasks have rank below ``r``, so there too they lead only to
saturated agents, and dropping the marks changes nothing (see the pass).

A new report of one entity gives ``r`` (``_first_change``): for an
agent, rank 0 for a new capacity, else the lowest rank of a task its
row gains or loses, looked for only among the tasks ranked below the
step from which the agent's outcome is final (below); for a task, the
lower of its ranks in the two markets, since a new value moves only
that task in the order.  ``_resume`` reads the second rank from the
reported market.

An agent that a failed search retires keeps its tasks to the end of the
solve, since no later path reaches it.  The set the search closed was
closed already before that step, because a search changes no
assignment.  So let one solve retire agent ``a`` at step ``s``, and let
another market have the same capacities and differ from this one only
in the tasks of rank ``s`` and above in ``a``'s row.  Both solves reach
step ``s`` in the same state.  The closed set's matched tasks have rank
below ``s``, so they have the same adjacent agents in both markets, and
the set is closed and saturated in the other market too: ``a`` ends the
other solve with the tasks it ends this one with.  For the same reason
a solve that only needs one agent's tasks can stop as soon as that
agent is retired (``_resume``).

A task's outcome is final right after its own rank.  Flipping an
augmenting path matches its start task and moves every other task on
it from one agent to another, so a matched task stays matched; an
unmatched task is searched from once, at its rank, and a failed search
changes no assignment.  So a solve that only needs to know whether task
``j`` is matched can stop after the step of ``j``'s rank (``_resume``).

So an entity's outcome is final against any report of its own from
the step that retires an agent, or from ``m`` for a task, whose report
changes the market at its own rank (``_solve_journaled``).  A report
whose first change is there or later, ``m`` if it changes nothing,
needs no solve.  So an agent's rank is capped at that step ``f``: the
row and the report each give the set of their tasks ranked below
``f``; when the two are equal the report needs no solve, and otherwise
every change below ``f`` lies in their symmetric difference, whose
lowest rank is the first change.

One vector pass (``_solve_rows``) solves many markets at once: the
joint reports of an equilibrium enumeration or a coalition search, and
a pass of the order lottery's probes, of any agents, each once per
trial.
The markets share capacities, values and task order and differ only in
some players' rows.  ``_Markets`` reads them through one adjacency with
the players' true lines cleared, per player one bool mask per option,
and a table of each market's option of each player, read in place of
the line for each market.  A row of the pass is one market, under its
own agent order or in id order, and the pass holds one owner, ``key``
and ``room`` line per row still in it, never a (markets, m, n) array.  A solve is given by its owner
array alone while no agent is dead: a new epoch has visited no agent,
old parent pointers are never read, the loads are the counts of the
owner array, and each agent's matched tasks in rank order are the
``agent_tasks`` of the solve.  So all rows walk the ranks together, one
task at a time: a depth-first row to the end, and a breadth-first row
while each of its searches ends at depth 1 or 2 or fails.

At depth 1, the loop of ``search_bfs`` returns the first unsaturated
agent in the start task's priority list, which is the unsaturated
adjacent agent of lowest position, and flipping that length-1 path only
matches the start task; ``search_dfs`` returns the first agent of the
list if it is unsaturated.  ``key`` holds each agent's position, read
as ``n`` once the agent is saturated, and the order gives the agent at
a position.  The pass gathers the keys of the true agents of the task
``t`` and reads an agent that a row's market does not list for ``t`` as
``n`` too: a player whose option hides ``t``, or, when ``t`` is a
player, an agent that its option leaves out.  ``t``'s agents in the
market are its true agents less these, since an option row is a subset
of the true row.  So the minimum is the market's minimum, as adding
values of ``n`` to a set of values at most ``n`` leaves its minimum
where it is, or gives ``n`` to an empty set, and the key of the first
agent listed is the market's first agent's.  A result below ``n`` is
then the position of the agent that the market's search returns.  A
result of ``n`` means either that ``t`` has agents in the market and
the search goes on (breadth-first, all of them are saturated; depth-first,
the first one is), or that ``t`` has none, when ``run`` skips it; the
second can only happen in a row whose options hide all of ``t``'s true
agents.

When the start task has agents, all of them saturated, breadth-first
search reaches them all at depth 1 and goes on from them
(``_flip_depth_two``).  The frontier is the tasks they own, listed agent
by agent in priority order and each agent's tasks by rank, so in the
order (owner's position, rank); the start task is unmatched and not
among them.  The level visits each frontier task's agents in that
order, and an agent takes as parent the first frontier task it is
adjacent to.  The terminal is the unsaturated agent of lowest position
among all the agents it reaches, which excludes the start task's agents.
The flip gives the parent task to the terminal and the start task to
the parent's old owner, whose load stays the same: again a new owner
array, with the terminal's load one higher.  So the pass goes on.  The
step reads every adjacency of a row through ``_Markets``, given the
row's market.

Depth-first search, in id order, takes the first dive
(``_first_dive``).  From ``t`` it visits ``t``'s first agent ``a1``;
nothing else is visited yet.  If ``a1`` is unsaturated it is the
terminal.  Otherwise the search goes through ``a1``'s tasks by rank
(``t`` is unmatched, so not among them), and at each one tries its
agents by id, skipping only ``a1``.  So the first agent ``b`` other than
``a1`` in the order (rank of ``a1``'s task, agent id) decides:
unsaturated, it is the terminal, and the flip gives that task to ``b``
and ``t`` to ``a1``, whose load stays the same; saturated, the search
dives deeper.  When ``a1``'s tasks have no other agent, every frame
below ``a1`` runs out and the search backs up to ``t``, whose next agent
``a2`` is the next one it visits: the terminal if unsaturated, else the
search dives on.

A failed search stays in the pass.  A search from task ``t`` fails
exactly when the alternating closure of ``t`` (its agents, the tasks
they hold, the agents of those tasks, and so on) holds no unsaturated
agent: both traversals reach every agent of the closure before they
give up, and the agents that dead marks hide lead only to other dead,
saturated agents.  The failed search changes no assignment, so the owner
array stays the state; only the dead marks are not kept.  Without them
every later search is the unpruned one, which by the pruning argument
above returns the same terminal and flips the same path, under any
agent order; the vector steps read a dead agent as what it is, a
saturated agent whose held tasks lead only to saturated agents.  A dead
``a1`` is such an agent, so the row takes ``a2`` or goes on, as the
pruned search, which skips ``a1``, would take ``a2`` or go on past it.
So the pass checks the closure (``_reaches_free``) only for a row that
no vector step moves.

A depth-first row whose closure holds an unsaturated agent finishes its
search in the pass (``_dive``), from ``t`` in id order.  The owner array
gives every step of the unpruned search: a task frame tries the market's
agents of its task by id and an agent frame the tasks the agent holds in
the owner row by rank, each skipping the nodes already visited, and the
first visited agent with room is the terminal.  That is ``search_dfs``
with no dead marks, which by the pruning argument returns the terminal
and path of the pruned search.  Both traversals reach every agent of the
closure before they give up, so the dive finds a terminal in every row
it gets.  The stack of frames is then the path, and the flip gives each
task on it to the agent after it and the last task to the terminal, so
only the terminal's load grows: again a new owner array.

A breadth-first row whose closure holds an unsaturated agent, at the
task of rank ``r``, needs a search of depth 3 or more and leaves the
pass: ``seed_matching`` loads its owner array into a fresh ``_State``
with no dead marks, under the row's order, which is then the state of
the unpruned solve before rank ``r``, and ``run`` goes on from rank
``r``.
"""

from __future__ import annotations

import bisect
import enum
import math
from dataclasses import dataclass
from itertools import chain, islice
from typing import Sequence

import numpy as np

from .core import InfeasibleMatchingError, Instance, _with_reports, is_feasible_matching

__all__ = [
    "Traversal",
    "AugmentingPath",
    "find_augmenting_path",
    "solve_mvbm",
    "solve_ap",
]


class Traversal(enum.Enum):
    BREADTH_FIRST = "bfs"
    DEPTH_FIRST = "dfs"


@dataclass(frozen=True)
class AugmentingPath:
    """An alternating path from an unmatched task to an unsaturated agent.

    ``edges`` are (agent id, task id) pairs in path order starting at the
    task: even positions are outside the current matching, odd positions
    inside it.  The length (number of edges) is always odd.
    """

    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if len(self.edges) % 2 != 1:
            raise ValueError("augmenting path must have odd length")
        for k in range(len(self.edges) - 1):
            a1, t1 = self.edges[k]
            a2, t2 = self.edges[k + 1]
            # consecutive edges share the agent (even->odd) or the task
            if k % 2 == 0:
                if a1 != a2:
                    raise ValueError("path edges do not chain on an agent")
            else:
                if t1 != t2:
                    raise ValueError("path edges do not chain on a task")

    @property
    def length(self) -> int:
        return len(self.edges)

    @property
    def terminal_agent(self) -> int:
        return self.edges[-1][0]

    @property
    def start_task(self) -> int:
        return self.edges[0][1]


# ``visit_a`` stamp of a dead agent: above every epoch, so the visited
# test ``visit_a[a] >= epoch`` skips it at no extra cost.
_DEAD = 1 << 62


class _State:
    """Mutable solve state over one instance and one agent ordering."""

    __slots__ = (
        "caps",
        "pos",
        "task_agents",
        "rank",
        "task_order",
        "owner",
        "load",
        "agent_tasks",
        "visit_a",
        "visit_t",
        "from_task",
        "epoch",
        "retired",
    )

    def __init__(self, inst: Instance, order: Sequence[int] | None):
        n, m = inst.n, inst.m
        self.caps = list(inst.capacities)
        if order is None:
            self.pos = list(range(n))
            self.task_agents = inst.task_adj
        else:
            if sorted(order) != list(range(n)):
                raise ValueError(
                    f"order {list(order)} is not a permutation of range({n})"
                )
            pos = [0] * n
            for position, agent in enumerate(order):
                pos[agent] = position
            self.pos = pos
            # one pass in priority order lists each task's agents by position
            task_agents: list[list[int]] = [[] for _ in range(m)]
            agent_adj = inst.agent_adj
            for agent in order:
                for t in agent_adj[agent]:
                    task_agents[t].append(agent)
            self.task_agents = task_agents
        self.rank = inst.task_rank
        self.task_order = inst.task_order
        self.owner = [-1] * m
        self.load = [0] * n
        # each agent's matched tasks, kept in process order (by rank)
        self.agent_tasks: list[list[int]] = [[] for _ in range(n)]
        self.visit_a = [0] * n
        self.visit_t = [0] * m
        self.from_task = [0] * n
        self.epoch = 0
        # the agents the last failed search retired; length-1 searches retire none
        self.retired: list[int] = []

    def seed_matching(self, owner: Sequence[int]) -> None:
        """Load the matching ``owner`` into a fresh state.  One pass in
        process order appends each agent's tasks already sorted by rank."""
        for t in self.task_order:
            a = owner[t]
            if a != -1:
                self.owner[t] = a
                self.load[a] += 1
                self.agent_tasks[a].append(t)

    def search_bfs(self, start: int) -> int:
        """Return the terminal agent of a shortest augmenting path from
        ``start``, or -1.  Parent pointers land in ``from_task``/``owner``."""
        self.epoch += 1
        epoch = self.epoch
        visit_a, from_task = self.visit_a, self.from_task
        caps, load = self.caps, self.load
        # every saturated agent reached so far, level by level
        reached: list[int] = []
        # depth 1: the start task's agents come in priority order, so the
        # first unsaturated one is the terminal of lowest position
        for a in self.task_agents[start]:
            if visit_a[a] >= epoch:
                continue
            visit_a[a] = epoch
            from_task[a] = start
            if load[a] < caps[a]:
                return a
            reached.append(a)
        visit_t, pos, task_agents = self.visit_t, self.pos, self.task_agents
        visit_t[start] = epoch
        level = 0
        while True:
            frontier = []
            for a in reached[level:]:
                for t2 in self.agent_tasks[a]:
                    if visit_t[t2] == epoch:
                        continue
                    visit_t[t2] = epoch
                    frontier.append(t2)
            if not frontier:
                break
            best = -1
            level = len(reached)
            for t in frontier:
                for a in task_agents[t]:
                    if visit_a[a] >= epoch:
                        continue
                    visit_a[a] = epoch
                    from_task[a] = t
                    if load[a] < caps[a]:
                        if best == -1 or pos[a] < pos[best]:
                            best = a
                    else:
                        reached.append(a)
            if best != -1:
                return best
        self.retire(reached)
        return -1

    def search_dfs(self, start: int) -> int:
        """Depth-first counterpart of ``search_bfs``."""
        self.epoch += 1
        epoch = self.epoch
        visit_a, visit_t, from_task = self.visit_a, self.visit_t, self.from_task
        caps, load, task_agents = self.caps, self.load, self.task_agents
        visit_t[start] = epoch
        # every saturated agent reached, one per agent frame
        reached: list[int] = []
        # (node, neighbours left to try); task and agent frames alternate
        frames = [(start, iter(task_agents[start]))]
        while frames:
            node, rest = frames[-1]
            if len(frames) % 2:  # a task frame
                for a in rest:
                    if visit_a[a] >= epoch:
                        continue
                    visit_a[a] = epoch
                    from_task[a] = node
                    if load[a] < caps[a]:
                        return a
                    reached.append(a)
                    frames.append((a, iter(self.agent_tasks[a])))
                    break
                else:
                    frames.pop()
            else:
                for t2 in rest:
                    if visit_t[t2] == epoch:
                        continue
                    visit_t[t2] = epoch
                    frames.append((t2, iter(task_agents[t2])))
                    break
                else:
                    frames.pop()
        self.retire(reached)
        return -1

    def search_direct(self, start: int) -> int:
        """Length-1 counterpart of ``search_bfs``: the first unsaturated
        agent adjacent to ``start``, or -1.  It retires nobody."""
        for a in self.task_agents[start]:
            if self.load[a] < self.caps[a]:
                self.from_task[a] = start
                return a
        return -1

    def retire(self, reached: list[int]) -> None:
        """Mark the agents a failed search reached dead; they are all
        saturated, and the module docstring gives why they stay
        unreachable."""
        visit_a = self.visit_a
        for a in reached:
            visit_a[a] = _DEAD
        self.retired = reached

    def path_pairs(self, terminal: int) -> tuple[tuple[int, int], ...]:
        """Edges of the found path in path order, from the start task."""
        rev: list[tuple[int, int]] = []
        a = terminal
        while True:
            t = self.from_task[a]
            rev.append((a, t))
            prev = self.owner[t]
            if prev == -1:
                break
            rev.append((prev, t))
            a = prev
        return tuple(reversed(rev))

    def flip(self, terminal: int) -> tuple[tuple[int, int], ...]:
        """Apply the symmetric difference with the found path and return
        the (agent, task) pairs it assigns, in path order: the path's
        even edges."""
        a = terminal
        self.load[a] += 1
        t = self.from_task[a]
        rank = self.rank
        assigned = []
        while True:
            assigned.append((a, t))
            prev = self.owner[t]
            self.owner[t] = a
            tasks = self.agent_tasks[a]
            # most tasks arrive after the agent's others: append them and
            # leave insort, whose key calls are slow, to the rest
            if tasks and rank[t] < rank[tasks[-1]]:
                bisect.insort(tasks, t, key=rank.__getitem__)
            else:
                tasks.append(t)
            if prev == -1:
                break
            self.agent_tasks[prev].remove(t)
            a = prev
            t = self.from_task[a]
        return tuple(reversed(assigned))

    def run(
        self,
        traversal: Traversal | None,
        start: int = 0,
        journal: list | None = None,
        until_retired: int | None = None,
        end: int | None = None,
    ) -> tuple[int, ...]:
        """Process the tasks of rank ``start`` up to ``end`` in decreasing
        value and return the owner tuple; ``None`` keeps only length-1
        paths.

        With a ``journal`` list, append one ``(assigned, retired)`` entry
        per task: the path's even edges, which the flip assigns, and the
        agents a failed search retired (both empty where they do not apply).

        With ``until_retired``, stop as soon as a failed search retires
        that agent.  The owner tuple is then partial; only that agent's
        entries are final (see the module docstring).
        """
        if traversal is None:
            search = self.search_direct
        elif traversal is Traversal.BREADTH_FIRST:
            search = self.search_bfs
        else:
            search = self.search_dfs
        task_agents, visit_a = self.task_agents, self.visit_a
        for t in islice(self.task_order, start, end):
            if not task_agents[t]:
                if journal is not None:
                    journal.append(((), ()))
                continue
            terminal = search(t)
            if terminal == -1:
                if journal is not None:
                    journal.append(((), self.retired))
                if until_retired is not None and visit_a[until_retired] == _DEAD:
                    break
                continue
            assigned = self.flip(terminal)
            if journal is not None:
                journal.append((assigned, ()))
        return tuple(self.owner)

    def replay(self, journal: list, stop: int) -> None:
        """Load the owner array of the journaled solve before the task of
        rank ``stop``, with no dead marks (see the module docstring)."""
        owner = [-1] * len(self.owner)
        for assigned, _ in islice(journal, stop):
            for a, t in assigned:
                owner[t] = a
        self.seed_matching(owner)


def find_augmenting_path(
    inst: Instance,
    partial: Sequence[int],
    task_id: int,
    traversal: Traversal,
) -> AugmentingPath | None:
    """Search for an augmenting path from an unmatched task.

    ``partial`` is a feasible owner array.  Returns ``None`` iff no
    augmenting path from ``task_id`` exists under it.
    """
    if not 0 <= task_id < inst.m:
        raise ValueError(f"unknown task id {task_id}")
    if not is_feasible_matching(inst, partial):
        raise InfeasibleMatchingError(f"partial matching {list(partial)} is infeasible")
    if partial[task_id] != -1:
        raise ValueError(f"task {task_id} is already matched")
    state = _State(inst, None)
    state.seed_matching(partial)
    bfs = traversal is Traversal.BREADTH_FIRST
    terminal = (state.search_bfs if bfs else state.search_dfs)(task_id)
    if terminal == -1:
        return None
    return AugmentingPath(state.path_pairs(terminal))


def solve_mvbm(
    inst: Instance, traversal: Traversal, order: Sequence[int] | None = None
) -> tuple[int, ...]:
    """Maximum vertex-weighted b-matching via augmenting paths, as an
    owner tuple: the agent of each task, or -1.

    ``order[k]`` is the agent that holds priority position ``k``; ``None``
    keeps the id order, and an order that is not a permutation of
    ``range(n)`` raises ``ValueError``.  The returned matching always has
    maximum weight; the traversal and the order only decide how tasks are
    distributed among the agents.
    """
    return _State(inst, order).run(traversal)


class _Markets:
    """Markets that share ``inst``'s capacities, values and task order
    and differ only in some players' rows: the agents' tasks when
    ``agents``, else the tasks' agents.  Player ``p`` is the entity
    ``entities[p]`` with the option rows ``options[p]``, and market ``k``
    takes the option ``picks[k, p]`` of each player ``p``.  ``picks``
    defaults to every joint choice in product order, the last player's
    moving fastest; with no players that is one market, ``inst``.

    A vector pass reads the markets' adjacencies through the methods
    below, one line or one product per row of the pass, given the market
    of each row, so no (markets, m, n) array is built: a player's true
    line is cleared from the shared adjacency, and each market's option
    row is read in its place.
    """

    __slots__ = (
        "inst", "agents", "entities", "options", "masks", "picks", "count",
        "small", "rank", "adjacent", "product", "degree",
    )

    def __init__(
        self,
        inst: Instance,
        agents: bool = True,
        entities: Sequence[int] = (),
        options: Sequence[Sequence[tuple[int, ...]]] = (),
        picks: np.ndarray | None = None,
    ):
        self.inst, self.agents = inst, agents
        self.entities, self.options = list(entities), list(options)
        sizes = [len(rows) for rows in self.options]
        # the smallest unsigned type that holds every option index
        index = np.min_scalar_type(max([0] + [size - 1 for size in sizes]))
        if picks is None:
            picks = np.indices(sizes, dtype=index).reshape(len(sizes), math.prod(sizes)).T
        self.picks = np.ascontiguousarray(picks, dtype=index)
        self.count = len(self.picks)
        # an integer type that holds -1 and every agent id up to n
        self.small = np.min_scalar_type(-inst.n - 1)
        self.rank = np.array(inst.task_rank, dtype=np.min_scalar_type(inst.m))
        adjacent = _adjacency(inst)
        self.masks = []
        for e, rows in zip(self.entities, self.options):
            masks = np.zeros((len(rows), inst.m if agents else inst.n), dtype=bool)
            for i, row in enumerate(rows):
                masks[i, row] = True
            self.masks.append(masks)
            if agents:
                adjacent[:, e] = False
            else:
                adjacent[e] = False
        self.adjacent = adjacent
        # a product over float32 is exact for the test ``> 0``: a sum of
        # ones is never 0
        self.product = adjacent.astype(np.float32)
        self.degree = adjacent.sum(axis=1, dtype=self.small)

    def _picks(self, rows: np.ndarray) -> np.ndarray:
        """(players, rows): each player's option index in each of ``rows``."""
        # ``take`` gathers whole rows faster than fancy indexing does
        return np.take(self.picks, rows, axis=0).T

    def shown(self, rows: np.ndarray, t: int) -> np.ndarray | None:
        """(rows, deg) bool: which of the ``deg`` true agents of task ``t``
        are its agents in each of ``rows``, or ``None`` when no player's
        option touches ``t``, so that all of them are in every row."""
        agents = self.inst.task_adj[t]
        got = None
        for p, e in enumerate(self.entities):
            if not self.agents:
                # a task's option row is a subset of its true row
                if e == t:
                    return self.masks[p][:, agents][self.picks[rows, p]]
            elif e in agents:
                if got is None:
                    got = np.ones((rows.size, len(agents)), dtype=bool)
                got[:, agents.index(e)] = self.masks[p][self.picks[rows, p], t]
        return got

    def task(self, rows: np.ndarray, t) -> np.ndarray:
        """(rows, n) bool: the agents of task ``t``, one task or one per
        row, in each of ``rows``."""
        return self._line(rows, t, True)

    def agent(self, rows: np.ndarray, a) -> np.ndarray:
        """(rows, m) bool: the tasks of agent ``a``, one agent or one per
        row, in each of ``rows``."""
        return self._line(rows, a, False)

    def _line(self, rows: np.ndarray, index, tasks: bool) -> np.ndarray:
        table = self.adjacent if tasks else self.adjacent.T
        if isinstance(index, np.ndarray):
            got = table[index]
        else:
            got = table[index][None].repeat(rows.size, axis=0)
        for e, masks, pick in zip(self.entities, self.masks, self._picks(rows)):
            if tasks == self.agents:
                # the players' lines cross this table's lines
                got[:, e] = masks[pick, index]
            elif isinstance(index, np.ndarray):
                hit = index == e
                got[hit] = masks[pick[hit]]
            elif index == e:
                got = masks[pick]
        return got

    def reach(self, rows: np.ndarray, tasks: np.ndarray) -> np.ndarray:
        """(rows, n) bool: the agents adjacent to one of ``tasks``, a
        (rows, m) bool row for each of ``rows``."""
        got = (tasks @ self.product) > 0
        for e, masks, pick in zip(self.entities, self.masks, self._picks(rows)):
            if self.agents:
                got[:, e] = (tasks & masks[pick]).any(axis=1)
            else:
                got |= tasks[:, e, None] & masks[pick]
        return got

    def degrees(self, rows: np.ndarray) -> np.ndarray:
        """(rows, m): the number of agents of each task in each of
        ``rows``."""
        got = self.degree[None].repeat(rows.size, axis=0)
        for e, masks, pick in zip(self.entities, self.masks, self._picks(rows)):
            if self.agents:
                got += masks[pick]
            else:
                got[:, e] = masks.sum(axis=1)[pick]
        return got

    def market(self, row: int) -> Instance:
        """Market ``row`` as an ``Instance``: ``inst`` with each player's
        option row as its report, through the patch of reported markets
        (``core._with_reports``)."""
        inst, agents = self.inst, self.agents
        picks = self.picks[row].tolist()
        reported = {e: rows[i] for e, rows, i in zip(self.entities, self.options, picks)}
        bounds = inst.capacities if agents else inst.values
        return _with_reports(inst, agents, bounds, reported)


def _solve_rows(
    markets: _Markets, traversal: Traversal | None, orders: np.ndarray | None = None
) -> np.ndarray:
    """``solve_mvbm(markets.market(k), traversal, orders[k])``
    (``solve_ap`` for ``None``) as row ``k`` of a (markets, m) owner
    array, for every market; without ``orders``, in id order.
    ``orders``, one row per market, needs breadth-first search.

    All rows walk the ranks together (see the module docstring).
    Breadth-first search and the length-1 solve take the unsaturated
    adjacent agent of lowest position, depth-first search only the first
    adjacent agent, and only when it is unsaturated.  Otherwise
    breadth-first takes the depth-2 step (``_flip_depth_two``) and
    depth-first its first dive (``_first_dive``).  A search whose
    alternating closure holds no unsaturated agent fails and changes
    nothing (``_reaches_free``).  Any other depth-first row finishes its
    search in the pass (``_dive``), and any other breadth-first row
    leaves the pass and finishes on ``_State`` from its owner row.

    The state is one owner, ``key`` and ``room`` line per row still in
    the pass, in the smallest integer types that hold them; a row that
    leaves is written to the result.
    """
    inst = markets.inst
    n, m, small = inst.n, inst.m, markets.small
    rows = markets.count
    # the row, and so the market, of each state line
    live = np.arange(rows)
    # an agent's position, in a type that holds n * m, and in ``key`` the
    # same read as n once the agent is saturated
    wide = np.min_scalar_type(n * m)
    if orders is None:
        # the positions are the ids
        key = np.arange(n, dtype=small)[None].repeat(rows, axis=0)
    else:
        assert traversal is Traversal.BREADTH_FIRST and len(orders) == rows
        pos = np.empty((rows, n), dtype=wide)
        pos[live[:, None], orders] = np.arange(n)
        key = pos.astype(small)
        # each line's first cell in ``orders``
        base = live * n
    most = max(inst.capacities, default=0)
    capacities = np.array(inst.capacities, dtype=np.min_scalar_type(-most - 1))
    room = capacities[None].repeat(rows, axis=0)
    # the result, and the owner line of each row in the pass: one array
    # until a row leaves
    result = owner = np.full((rows, m), -1, dtype=small)
    dfs = traversal is Traversal.DEPTH_FIRST
    for r, t in enumerate(inst.task_order):
        if not live.size:
            break
        agents = inst.task_adj[t]
        if not agents:
            continue
        # the keys of ``t``'s true agents, with an agent that a row's
        # market does not list for ``t`` read as n
        near = key[:, agents]
        shown = markets.shown(live, t)
        if shown is not None:
            near[~shown] = n
        if dfs:
            # the first agent listed
            first = (np.zeros(live.size, dtype=np.intp) if shown is None
                     else shown.argmax(axis=1))
            best = near[np.arange(live.size), first]
        else:
            best = near.min(axis=1)
        if best.max() < n:
            took, stuck = np.arange(live.size), None
        else:
            stuck = best == n
            if shown is not None:
                # a row where ``t`` has no agent has no search
                stuck &= shown.any(axis=1)
            took = (best < n).nonzero()[0]
            best = best[took]
        if orders is not None:
            # the agent at each position
            best = orders.ravel()[(base if stuck is None else base[took]) + best]
        _take(took, t, best, owner, key, room)
        if traversal is None or stuck is None or not stuck.any():
            continue
        stuck = stuck.nonzero()[0]
        if dfs:
            first = np.array(agents)[first[stuck]]
            left = _first_dive(markets, t, stuck, live[stuck], first, owner, key, room)
        else:
            if orders is None:
                pos = np.broadcast_to(np.arange(n, dtype=wide), key.shape)
            left = _flip_depth_two(markets, t, stuck, live[stuck], pos, owner, key, room)
        if not left.size:
            continue
        left = left[_reaches_free(markets, t, live[left], owner[left], room[left])]
        if not left.size:
            continue
        if dfs:
            _dive(markets, t, left, live[left], owner, key, room)
            continue
        for line in left.tolist():
            order = None if orders is None else orders[line].tolist()
            state = _State(markets.market(int(live[line])), order)
            state.seed_matching(owner[line].tolist())
            result[live[line]] = state.run(traversal, r)
        keep = np.ones(live.size, dtype=bool)
        keep[left] = False
        owner, key, room, live = owner[keep], key[keep], room[keep], live[keep]
        if orders is not None:
            pos, orders = pos[keep], orders[keep]
            base = np.arange(live.size) * n
    if owner is not result:
        result[live] = owner
    return result


def _take(rows: np.ndarray, task, agents: np.ndarray, owner, key, room) -> None:
    """Give ``task`` (one task, or one per row) to ``agents[i]`` in line
    ``rows[i]``, and read an agent that this saturates as ``n`` in
    ``key``.  ``rows`` increase, so as many rows as lines are all lines.
    ``key`` and ``room`` are C-contiguous, so their ``ravel`` views write
    through."""
    if not rows.size:
        return
    if rows.size == len(owner) and isinstance(task, int):
        owner[:, task] = agents
    else:
        owner[rows, task] = agents
    n = key.shape[1]
    cell = rows * n + agents
    free = room.ravel()
    rest = free[cell] - 1
    free[cell] = rest
    key.ravel()[cell[rest == 0]] = n


def _flip_depth_two(
    markets: _Markets,
    start: int,
    rows: np.ndarray,
    ids: np.ndarray,
    pos: np.ndarray,
    owner: np.ndarray,
    key: np.ndarray,
    room: np.ndarray,
) -> np.ndarray:
    """The depth-2 level of ``search_bfs`` from ``start``, and the flip
    of the path it finds, for those lines ``rows`` of a vector pass over
    ``markets`` that have a depth-2 terminal; line ``rows[i]`` solves the
    market ``ids[i]``, and ``start``'s agents are saturated in every
    line.  Updates ``owner``, ``key`` and ``room`` of these lines and
    returns the other lines (see the module docstring).
    """
    n, m = key.shape[1], markets.inst.m
    lines = np.arange(rows.size)
    held = owner[rows]
    # the frontier: the tasks that the start task's agents own; owner -1
    # reads the last agent, and an unmatched task is not in it
    frontier = markets.task(ids, start)[lines[:, None], held] & (held >= 0)
    # the terminal: the unsaturated agent of lowest position that is
    # adjacent to a frontier task
    reach = np.where(markets.reach(ids, frontier), key[rows], n)
    terminal = reach.argmin(axis=1)
    found = reach[lines, terminal] < n
    # its parent: the first frontier task adjacent to it, in the order
    # (owner's position, rank) that the frontier is built in
    ahead = pos[rows[:, None], held] * m + markets.rank
    candidate = frontier & markets.agent(ids, terminal)
    parent = np.where(candidate, ahead, n * m).argmin(axis=1)
    left = rows[~found]
    rows, terminal, parent = rows[found], terminal[found], parent[found]
    # the flip: the parent task to the terminal, the start task to the
    # parent's old owner, whose load stays the same
    owner[rows, start] = owner[rows, parent]
    _take(rows, parent, terminal, owner, key, room)
    return left


def _first_dive(
    markets: _Markets,
    start: int,
    rows: np.ndarray,
    ids: np.ndarray,
    first: np.ndarray,
    owner: np.ndarray,
    key: np.ndarray,
    room: np.ndarray,
) -> np.ndarray:
    """The first dive of ``search_dfs`` from ``start`` in id order, and
    the flip of the path it finds, for those lines ``rows`` of
    ``_solve_rows``' pass where it ends at depth 2; line ``rows[i]``
    solves the market ``ids[i]``, and ``first[i]``, the first agent of
    ``start`` there, is saturated.

    The dive goes through ``first``'s tasks by rank, and the first agent
    other than ``first`` that it meets is the terminal if it is
    unsaturated; when it meets none, the search backs up to ``start``,
    whose next agent is the one it meets.  Updates ``owner``, ``key`` and
    ``room`` of these lines and returns the lines where the agent met is
    saturated or missing (see the module docstring), which ``_dive``
    finishes when their closure holds an unsaturated agent.
    """
    n, inst = key.shape[1], markets.inst
    lines = np.arange(rows.size)
    # the tasks of ``first`` with another agent; the dive meets the first
    # of them by rank, and there its agent of lowest id
    meets = (owner[rows] == first[:, None]) & (markets.degrees(ids) > 1)
    via = np.where(meets, markets.rank, inst.m).argmin(axis=1)
    dive = meets[lines, via]
    # else the search backs up to ``start`` and meets its next agent
    met = markets.task(ids, np.where(dive, via, start))
    met[lines, first] = False
    terminal = met.argmax(axis=1)
    found = met[lines, terminal] & (key[rows, terminal] < n)
    left = rows[~found]
    deep = found & dive
    back = found & ~dive
    # the flip: ``via`` to the terminal and the start task to ``first``,
    # or the start task to the terminal
    owner[rows[deep], start] = first[deep]
    _take(rows[deep], via[deep], terminal[deep], owner, key, room)
    _take(rows[back], start, terminal[back], owner, key, room)
    return left


def _dive(
    markets: _Markets,
    start: int,
    rows: np.ndarray,
    ids: np.ndarray,
    owner: np.ndarray,
    key: np.ndarray,
    room: np.ndarray,
) -> None:
    """The whole of ``search_dfs`` from ``start`` in id order, and the
    flip of the path it finds, for those lines ``rows`` of
    ``_solve_rows``' pass that ``_first_dive`` leaves and whose closure
    holds an unsaturated agent; line ``rows[i]`` solves the market
    ``ids[i]``.  Updates ``owner``, ``key`` and ``room`` of these lines.

    Each line keeps its own stack of frames, task and agent frames in
    turn from ``start``'s.  A task frame goes on to the market's first
    agent of its task, by id, that is not visited yet, and an agent frame
    to the first task that the agent holds, by rank, that is not visited
    yet; a frame with none left is popped.  The stack is then the path,
    and every line finds one (see the module docstring).
    """
    inst = markets.inst
    n, m = key.shape[1], inst.m
    order = np.array(inst.task_order)
    # each line's owners in rank order, which the search does not change
    held = owner[rows][:, order]
    seen_agents = np.zeros((rows.size, n), dtype=bool)
    seen_ranks = np.zeros((rows.size, m), dtype=bool)
    seen_ranks[:, inst.task_rank[start]] = True
    # the frames' nodes: a task at even and an agent at odd depth; each
    # agent frame holds a saturated agent, so there are at most 2n + 1
    stack = np.zeros((rows.size, 2 * n + 1), dtype=np.intp)
    stack[:, 0] = start
    depth = np.ones(rows.size, dtype=np.intp)
    terminal = np.full(rows.size, -1, dtype=np.intp)
    # the lines still searching
    on = np.arange(rows.size)
    while on.size:
        top = stack[on, depth[on] - 1]
        tasks = depth[on] % 2 == 1
        lines, node = on[tasks], top[tasks]
        fresh = markets.task(ids[lines], node) & ~seen_agents[lines]
        found = fresh.any(axis=1)
        depth[lines[~found]] -= 1
        lines, agent = lines[found], fresh[found].argmax(axis=1)
        seen_agents[lines, agent] = True
        free = room[rows[lines], agent] > 0
        terminal[lines[free]] = agent[free]
        lines, agent = lines[~free], agent[~free]
        stack[lines, depth[lines]] = agent
        depth[lines] += 1
        lines, node = on[~tasks], top[~tasks]
        fresh = (held[lines] == node[:, None]) & ~seen_ranks[lines]
        found = fresh.any(axis=1)
        depth[lines[~found]] -= 1
        lines, rank = lines[found], fresh[found].argmax(axis=1)
        seen_ranks[lines, rank] = True
        stack[lines, depth[lines]] = order[rank]
        depth[lines] += 1
        assert depth.all(), "a line whose closure holds an unsaturated agent found none"
        on = on[terminal[on] < 0]
    # the flip: each task on the path to the agent after it, the last
    # one to the terminal, whose load alone grows
    frame = np.arange(stack.shape[1] - 1)
    line, at = ((frame % 2 == 0) & (frame < depth[:, None] - 1)).nonzero()
    owner[rows[line], stack[line, at]] = stack[line, at + 1]
    _take(rows, stack[np.arange(rows.size), depth - 1], terminal, owner, key, room)


def _reaches_free(
    markets: _Markets,
    start: int,
    ids: np.ndarray,
    held: np.ndarray,
    room: np.ndarray,
) -> np.ndarray:
    """Whether the alternating closure from the unmatched task ``start``
    holds an unsaturated agent, in each of the markets ``ids`` with the
    owner rows ``held`` and the agents' ``room``: the agents of
    ``start``, the tasks they hold, the agents of those tasks, and so on.
    A search fails exactly when it does not."""
    lines = np.arange(ids.size)[:, None]
    matched = held >= 0
    reach = markets.task(ids, start)
    while True:
        # owner -1 reads the last agent, and an unmatched task is not held
        tasks = reach[lines, held] & matched
        grown = markets.reach(ids, tasks) | reach
        if np.array_equal(grown, reach):
            return (reach & (room > 0)).any(axis=1)
        reach = grown


def _adjacency(inst: Instance) -> np.ndarray:
    """The (m, n) bool adjacency of ``inst``: True where a task and an
    agent are adjacent."""
    adjacent = np.zeros((inst.m, inst.n), dtype=bool)
    degrees = [len(agents) for agents in inst.task_adj]
    adjacent[
        np.repeat(np.arange(inst.m), degrees), list(chain.from_iterable(inst.task_adj))
    ] = True
    return adjacent


def solve_ap(inst: Instance) -> tuple[int, ...]:
    """Greedy length-1 approximation.

    Each task, in processing order, goes to the lowest-index unsaturated
    adjacent agent; assignments are never revisited.  The weight is at
    least half of the optimum.
    """
    return _State(inst, None).run(None)


def _solve_journaled(
    inst: Instance, traversal: Traversal | None, agents: bool
) -> tuple[tuple[int, ...], list, list[int]]:
    """The owner tuple of ``solve_mvbm(inst, traversal)`` (``solve_ap``
    for ``None``), the journal of its steps, one per rank, and for each
    agent (``agents``) or task the step from which its outcome is final:
    the step that retires the agent, or ``m`` (see the module docstring).
    """
    journal: list = []
    owner = _State(inst, None).run(traversal, 0, journal)
    final_at = [inst.m] * (inst.n if agents else inst.m)
    if agents:
        # a dead agent is never reached again, so no agent is retired twice
        for step, (_, retired) in enumerate(journal):
            for a in retired:
                final_at[a] = step
    return owner, journal, final_at


def _first_change(before: Instance, agents: bool, entity: int, final: int):
    """The function of ``edges`` and ``bound`` that gives the rank from
    which a re-solve of ``before``, with agent (``agents``) or task
    ``entity`` reporting them, must run, where ``final`` is the step from
    which the entity's outcome is final.  For an agent, rank 0 for a new
    capacity, else the lowest rank below ``final`` of a task its row
    gains or loses; for a task, its own rank, which ``_resume`` lowers to
    the task's rank in the reported market.  ``m`` means the report
    changes nothing before ``final`` (see the module docstring)."""
    m = before.m
    if not agents:
        value, column = before.values[entity], before.task_adj[entity]
        own = before.task_rank[entity]
        return lambda edges, bound: own if bound != value or column != edges else m
    capacity, rank = before.capacities[entity], before.task_rank
    # the row's tasks ranked below ``final``, in id order as ``edges`` are
    early = tuple([t for t in before.agent_adj[entity] if rank[t] < final])

    def first(edges, bound):
        if bound != capacity:
            return 0
        mine = tuple([t for t in edges if rank[t] < final])
        if mine == early:
            return m
        return min(map(rank.__getitem__, set(mine).symmetric_difference(early)))

    return first


def _resume(
    inst: Instance,
    traversal: Traversal | None,
    journal: list,
    rank: int,
    agents: bool,
    entity: int,
) -> tuple[int, ...]:
    """An owner tuple of ``inst`` whose entries for the watched agent
    (``agents``) or task ``entity`` are those of a full solve, resumed at
    ``rank`` (or the task's lower rank in ``inst``) from another market's
    journal, with no dead marks, as a row that leaves the vector pass.

    That market must have the capacities of ``inst`` and the same task,
    with the same adjacent agents, at every rank below the start.  The
    run stops once the watched agent is retired, or right after the
    watched task's rank; the module docstring gives why.
    """
    if not agents:
        rank = min(rank, inst.task_rank[entity])
    state = _State(inst, None)
    state.replay(journal, rank)
    if agents:
        return state.run(traversal, rank, until_retired=entity)
    return state.run(traversal, rank, end=inst.task_rank[entity] + 1)
