"""Exact and approximate solvers for maximum vertex-weighted b-matching.

The exact solver processes tasks in decreasing value and grows the
matching by augmenting paths, found with either breadth-first or
depth-first traversal.  Both traversals produce a maximum-weight
matching; they differ in which agent ends up with which task:

* breadth-first returns a shortest augmenting path, expanding the
  frontier in agent-priority order, and breaks ties among terminals at
  the minimal depth by lowest agent index;
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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from .core import Instance, Matching, require_valid

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
    )

    def __init__(self, inst: Instance, order: Sequence[int] | None):
        n, m = inst.n, inst.m
        self.caps = list(inst.capacities)
        pos = list(range(n))
        if order is not None:
            for position, agent in enumerate(order):
                pos[agent] = position
        self.pos = pos
        if order is None:
            self.task_agents = inst.task_adj
        else:
            self.task_agents = [
                sorted(adj, key=pos.__getitem__) for adj in inst.task_adj
            ]
        self.rank = inst.task_rank
        self.task_order = inst.task_order
        self.owner = [-1] * m
        self.load = [0] * n
        self.agent_tasks: list[list[int]] = [[] for _ in range(n)]
        self.visit_a = [0] * n
        self.visit_t = [0] * m
        self.from_task = [0] * n
        self.epoch = 0

    def seed_matching(self, mu: Matching) -> None:
        for a, t in mu.pairs:
            self.owner[t] = a
            self.load[a] += 1
            self.agent_tasks[a].append(t)

    def matched_tasks_in_process_order(self, agent: int) -> list[int]:
        tasks = self.agent_tasks[agent]
        if len(tasks) > 1:
            return sorted(tasks, key=self.rank.__getitem__)
        return tasks

    def search_bfs(self, start: int) -> int:
        """Return the terminal agent of a shortest augmenting path from
        ``start``, or -1.  Parent pointers land in ``from_task``/``owner``."""
        self.epoch += 1
        epoch = self.epoch
        visit_a, visit_t = self.visit_a, self.visit_t
        caps, load, pos = self.caps, self.load, self.pos
        visit_t[start] = epoch
        frontier = [start]
        while frontier:
            best = -1
            next_agents: list[int] = []
            for t in frontier:
                for a in self.task_agents[t]:
                    if visit_a[a] >= epoch:
                        continue
                    visit_a[a] = epoch
                    self.from_task[a] = t
                    if load[a] < caps[a]:
                        if best == -1 or pos[a] < pos[best]:
                            best = a
                    else:
                        next_agents.append(a)
            if best != -1:
                return best
            frontier = []
            for a in next_agents:
                for t2 in self.matched_tasks_in_process_order(a):
                    if visit_t[t2] == epoch:
                        continue
                    visit_t[t2] = epoch
                    frontier.append(t2)
        self.retire_reached()
        return -1

    def search_dfs(self, start: int) -> int:
        """Depth-first counterpart of ``search_bfs``."""
        self.epoch += 1
        epoch = self.epoch
        visit_a, visit_t = self.visit_a, self.visit_t
        caps, load = self.caps, self.load
        visit_t[start] = epoch
        # frames: [is_task_frame, node id, sequence, cursor]
        frames: list[list] = [[True, start, self.task_agents[start], 0]]
        while frames:
            frame = frames[-1]
            is_task, node, seq, i = frame
            moved = False
            if is_task:
                while i < len(seq):
                    a = seq[i]
                    i += 1
                    if visit_a[a] >= epoch:
                        continue
                    visit_a[a] = epoch
                    self.from_task[a] = node
                    if load[a] < caps[a]:
                        return a
                    frame[3] = i
                    frames.append(
                        [False, a, self.matched_tasks_in_process_order(a), 0]
                    )
                    moved = True
                    break
            else:
                while i < len(seq):
                    t2 = seq[i]
                    i += 1
                    if visit_t[t2] == epoch:
                        continue
                    visit_t[t2] = epoch
                    frame[3] = i
                    frames.append([True, t2, self.task_agents[t2], 0])
                    moved = True
                    break
            if not moved:
                frames.pop()
        self.retire_reached()
        return -1

    def retire_reached(self) -> None:
        """Mark every agent reached by the failed search of this epoch
        dead; see the module docstring for why it stays unreachable."""
        visit_a, epoch = self.visit_a, self.epoch
        for a, stamp in enumerate(visit_a):
            if stamp == epoch:
                visit_a[a] = _DEAD

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

    def flip(self, terminal: int) -> None:
        """Apply the symmetric difference with the found path."""
        a = terminal
        self.load[a] += 1
        t = self.from_task[a]
        while True:
            prev = self.owner[t]
            self.owner[t] = a
            self.agent_tasks[a].append(t)
            if prev == -1:
                break
            self.agent_tasks[prev].remove(t)
            a = prev
            t = self.from_task[a]

    def assign_direct(self, task: int) -> bool:
        """Length-1 assignment to the first unsaturated agent, if any."""
        for a in self.task_agents[task]:
            if self.load[a] < self.caps[a]:
                self.owner[task] = a
                self.load[a] += 1
                self.agent_tasks[a].append(task)
                return True
        return False

    def run(self, traversal: Traversal | None) -> None:
        """Process every task in decreasing value; ``None`` keeps only
        length-1 paths."""
        bfs = traversal is Traversal.BREADTH_FIRST
        search = self.search_bfs if bfs else self.search_dfs
        for t in self.task_order:
            if not self.task_agents[t]:
                continue
            if traversal is None:
                self.assign_direct(t)
            else:
                terminal = search(t)
                if terminal != -1:
                    self.flip(terminal)


def find_augmenting_path(
    inst: Instance,
    partial: Matching,
    task_id: int,
    traversal: Traversal,
) -> AugmentingPath | None:
    """Search for an augmenting path from an unmatched task.

    Returns ``None`` iff no augmenting path from ``task_id`` exists under
    the given partial matching.
    """
    require_valid(inst)
    if partial.owner_of(task_id) is not None:
        raise ValueError(f"task {task_id} is already matched")
    state = _State(inst, None)
    state.seed_matching(partial)
    bfs = traversal is Traversal.BREADTH_FIRST
    terminal = (state.search_bfs if bfs else state.search_dfs)(task_id)
    if terminal == -1:
        return None
    return AugmentingPath(state.path_pairs(terminal))


def solve_mvbm(inst: Instance, traversal: Traversal) -> Matching:
    """Maximum vertex-weighted b-matching via augmenting paths.

    The returned matching always has maximum weight; the traversal only
    decides how tasks are distributed among the agents.
    """
    require_valid(inst)
    return _as_matching(_solve_owner_array(inst, None, traversal))


def solve_ap(inst: Instance) -> Matching:
    """Greedy length-1 approximation.

    Each task, in processing order, goes to the lowest-index unsaturated
    adjacent agent; assignments are never revisited.  The weight is at
    least half of the optimum.
    """
    require_valid(inst)
    return _as_matching(_solve_owner_array(inst, None, None))


def _solve_owner_array(
    inst: Instance, order: Sequence[int] | None, traversal: Traversal | None
) -> list[int]:
    """The one solve behind every entry point: the owning agent of each
    task, or -1.

    ``order[k]`` is the agent that holds priority position ``k`` (``None``
    keeps the id order); ``traversal`` ``None`` runs the greedy length-1
    solver.  Skips validation; callers must pass valid instances.
    """
    state = _State(inst, list(order) if order is not None else None)
    state.run(traversal)
    return state.owner


def _as_matching(owner: Sequence[int]) -> Matching:
    return Matching.from_pairs((a, t) for t, a in enumerate(owner) if a != -1)
