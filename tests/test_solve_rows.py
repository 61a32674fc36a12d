"""``solver._solve_rows`` against one market solved at a time.

Each grid market holds the joint reports of a few players over a small
base market (``solver._Markets``), as the oracle's joint-report solve
does: every player gets some random non-empty sub-rows of its true row,
and the joint reports run through their product.  Every row of the pass
must equal ``solve_mvbm`` or ``solve_ap`` on the market the checked
``Instance`` constructor builds from the same rows, and every branch of
the pass must occur on the grid; under random agent orders, as the order
lottery solves them, every row must equal ``solve_mvbm`` under its
order.  Every market ``_Markets.market`` patches must equal the checked
one in all six fields and share every row and column it leaves as it
is; every line the pass reads must equal the one of the joint market's
own adjacency, and a large joint solve must hold no stacked adjacency.
On hand-built markets whose depth-first searches back up and go deep,
every dive must equal one ``search_dfs`` and ``flip`` of ``_State``, and
no depth-first pass over the audit workload's shapes may build a
``_State``.
"""

import itertools
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from bmatch import gen, oracle, solver
from bmatch.core import Instance
from bmatch.mechanisms import AGENTS, TASKS, MechanismKind
from bmatch.solver import Traversal, _Markets, _solve_rows, solve_ap, solve_mvbm

TRAVERSALS = (Traversal.BREADTH_FIRST, Traversal.DEPTH_FIRST, None)
FIELDS = ("capacities", "values", "agent_adj", "task_adj", "task_order", "task_rank")

# (markets, agents, tasks, density), fixed before the first run:
# capacities 1-3 and values in {1, 2, 3}, so the task order has ties
GRIDS = ((80, (1, 3), (1, 4), 0.6), (40, (4, 4), (6, 6), 0.7))


def _market(rnd, agents, tasks, density):
    n, m = rnd.randint(*agents), rnd.randint(*tasks)
    capacities = [rnd.randint(1, 3) for _ in range(n)]
    values = [float(rnd.randint(1, 3)) for _ in range(m)]
    edges = [(a, t) for a in range(n) for t in range(m) if rnd.random() < density]
    return Instance(capacities, values, edges)


def _players(inst, agents, rnd):
    """Up to three players of one side with one to four random options
    each."""
    true_rows = inst.agent_adj if agents else inst.task_adj
    eligible = [e for e, row in enumerate(true_rows) if row]
    players = rnd.sample(eligible, min(len(eligible), rnd.randint(1, 3)))
    options = []
    for e in players:
        row = true_rows[e]
        options.append([
            tuple(p for p in row if rnd.random() < 0.6) or row[:1]
            for _ in range(rnd.randint(1, 4))
        ])
    return players, options


def _stacks(inst, agents, players, options):
    """The rows of every joint choice, in product order."""
    true_rows = inst.agent_adj if agents else inst.task_adj
    stacks = []
    for choice in itertools.product(*options):
        rows = list(true_rows)
        for e, chosen in zip(players, choice):
            rows[e] = chosen
        stacks.append(rows)
    return stacks


def _rebuilt(inst, agents, rows):
    """The market of ``rows``, one per entity of the players' side, built
    by the checked constructor from its edges."""
    edges = [(e, p) if agents else (p, e) for e, row in enumerate(rows) for p in row]
    return Instance(inst.capacities, inst.values, edges)


def _adjacency(inst, agents, rows):
    adjacent = np.zeros((inst.m, inst.n), dtype=bool)
    for e, row in enumerate(rows):
        for p in row:
            if agents:
                adjacent[p, e] = True
            else:
                adjacent[e, p] = True
    return adjacent


def _expected(market, traversal):
    if traversal is None:
        return solve_ap(market)
    return solve_mvbm(market, traversal)


class _Branches:
    """Counts the branches the pass takes, for the traversal under test."""

    def __init__(self, patch):
        self.counts = Counter()
        self.traversal = None
        self.stepping = False
        take, depth_two = solver._take, solver._flip_depth_two
        dive, reaches = solver._first_dive, solver._reaches_free
        deeper = solver._dive
        branches = self

        def counting_take(rows, *args):
            # a take outside the depth-2 steps is a depth-1 step
            if not branches.stepping:
                branches.count("depth 1", rows.size)
            take(rows, *args)

        def counting_depth_two(inst, start, rows, *arrays):
            branches.stepping = True
            left = depth_two(inst, start, rows, *arrays)
            branches.stepping = False
            branches.count("depth 2", rows.size - left.size)
            return left

        def counting_dive(inst, start, rows, ids, first, owner, *arrays):
            branches.stepping = True
            left = dive(inst, start, rows, ids, first, owner, *arrays)
            branches.stepping = False
            moved = np.setdiff1d(rows, left)
            # the dive gives the start task to the first agent; a search
            # that backs up to the start task gives it to its next agent
            deep = owner[moved, start] == first[np.isin(rows, moved)]
            branches.count("depth 2", int(deep.sum()))
            branches.count("backed up", int((~deep).sum()))
            return left

        def counting_deeper(inst, start, rows, *arrays):
            branches.stepping = True
            deeper(inst, start, rows, *arrays)
            branches.stepping = False
            branches.count("dive", rows.size)

        def counting_reaches(*args):
            free = reaches(*args)
            branches.count("failed", int((~free).sum()))
            return free

        class SeededCount(solver._State):
            def seed_matching(self, owner):
                branches.count("left", 1)
                super().seed_matching(owner)

        patch.setattr(solver, "_take", counting_take)
        patch.setattr(solver, "_flip_depth_two", counting_depth_two)
        patch.setattr(solver, "_first_dive", counting_dive)
        patch.setattr(solver, "_dive", counting_deeper)
        patch.setattr(solver, "_reaches_free", counting_reaches)
        patch.setattr(solver, "_State", SeededCount)

    def count(self, branch, rows):
        self.counts[self.traversal, branch] += rows


def test_row_pass_equals_one_market_at_a_time(monkeypatch):
    rnd = random.Random(20261020)
    branches = _Branches(monkeypatch)
    compared = 0
    for count, agents_range, tasks_range, density in GRIDS:
        for _ in range(count):
            inst = _market(rnd, agents_range, tasks_range, density)
            agents = rnd.random() < 0.5
            players, options = _players(inst, agents, rnd)
            markets = _Markets(inst, agents, players, options)
            stacks = _stacks(inst, agents, players, options)
            for traversal in TRAVERSALS:
                branches.traversal = traversal
                owners = _solve_rows(markets, traversal)
                assert owners.shape == (len(stacks), inst.m)
                for rows, got in zip(stacks, owners.tolist()):
                    expected = _expected(_rebuilt(inst, agents, rows), traversal)
                    assert tuple(got) == expected, (inst, agents, rows, traversal)
                    compared += 1
    counts = branches.counts
    bfs, dfs = Traversal.BREADTH_FIRST, Traversal.DEPTH_FIRST
    for traversal in TRAVERSALS:
        assert counts[traversal, "depth 1"] > 0, traversal
    for traversal in (bfs, dfs):
        for branch in ("depth 2", "failed"):
            assert counts[traversal, branch] > 0, (traversal, branch)
    assert counts[dfs, "backed up"] > 0
    # a depth-first row that the first dive leaves dives on in the pass;
    # a breadth-first row that needs depth 3 leaves it
    assert counts[dfs, "dive"] > 0 and counts[dfs, "left"] == 0
    assert counts[bfs, "left"] > 0 and counts[bfs, "dive"] == 0
    # the length-1 solve never searches past depth 1
    assert not any(counts[None, branch]
                   for branch in ("depth 2", "failed", "dive", "left"))
    assert compared > 1000


def test_row_pass_solves_each_order_of_each_market(monkeypatch):
    # three random agent orders per joint market, with agent and task
    # players: the table repeats each joint choice three times, row k
    # solves its market under orders[k], and identity orders give the
    # pass without orders, row by row
    rnd = random.Random(20261022)
    draw = np.random.default_rng(20261023)
    bfs, trials = Traversal.BREADTH_FIRST, 3
    branches = _Branches(monkeypatch)
    branches.traversal = bfs
    sides = Counter()
    for count, agents_range, tasks_range, density in GRIDS:
        for _ in range(count):
            inst = _market(rnd, agents_range, tasks_range, density)
            agents = rnd.random() < 0.5
            players, options = _players(inst, agents, rnd)
            product = _Markets(inst, agents, players, options)
            picks = product.picks.repeat(trials, axis=0)
            markets = _Markets(inst, agents, players, options, picks)
            rows = markets.count
            orders = np.argsort(draw.random((rows, inst.n)), axis=1)
            owners = _solve_rows(markets, bfs, orders)
            assert owners.shape == (rows, inst.m)
            for k, got in enumerate(owners.tolist()):
                market = markets.market(k)
                expected = solve_mvbm(market, bfs, orders[k].tolist())
                assert tuple(got) == expected, (inst, agents, k, orders[k])
            identity = np.arange(inst.n)[None].repeat(rows, axis=0)
            assert (_solve_rows(markets, bfs, identity)
                    == _solve_rows(product, bfs).repeat(trials, axis=0)).all()
            sides[agents] += 1
    assert sides[True] > 0 and sides[False] > 0
    for branch in ("depth 1", "depth 2", "failed", "left"):
        assert branches.counts[bfs, branch] > 0, branch


def _coalition(options, members):
    """The option table of the members' joint choices in product order,
    every other player at its last option."""
    ranges = [range(len(o)) if p in members else [len(o) - 1]
              for p, o in enumerate(options)]
    table = list(itertools.product(*ranges))
    return np.array(table, dtype=np.intp).reshape(len(table), len(options))


def test_row_pass_solves_any_table_of_markets():
    # tables that are no product: the product's rows reversed, rows
    # repeated, a slice of the product, and two coalitions' products one
    # after the other, with each player's true row as its last option;
    # row k solves market k, with and without agent orders
    rnd = random.Random(20261024)
    draw = np.random.default_rng(20261025)
    bfs = Traversal.BREADTH_FIRST
    for _ in range(60):
        inst = _market(rnd, (1, 4), (1, 5), 0.6)
        agents = rnd.random() < 0.5
        players, options = _players(inst, agents, rnd)
        true_rows = inst.agent_adj if agents else inst.task_adj
        options = [o + [true_rows[e]] for e, o in zip(players, options)]
        product = _Markets(inst, agents, players, options).picks
        start, stop = sorted(rnd.sample(range(len(product) + 1), 2))
        split = rnd.randint(0, len(players))
        tables = (
            product[::-1],
            product[rnd.choices(range(len(product)), k=2 * len(product))],
            product[start:stop],
            np.concatenate([_coalition(options, range(split)),
                            _coalition(options, range(split, len(players)))]),
        )
        for table in tables:
            markets = _Markets(inst, agents, players, options, table)
            assert markets.count == len(table)
            assert markets.picks.dtype == np.uint8
            for k, choice in enumerate(table.tolist()):
                rows = list(true_rows)
                for e, o, i in zip(players, options, choice):
                    rows[e] = o[i]
                market, rebuilt = markets.market(k), _rebuilt(inst, agents, rows)
                for field in FIELDS:
                    assert getattr(market, field) == getattr(rebuilt, field), field
            for traversal in TRAVERSALS:
                owners = _solve_rows(markets, traversal)
                for k, got in enumerate(owners.tolist()):
                    assert tuple(got) == _expected(markets.market(k), traversal)
            orders = np.argsort(draw.random((len(table), inst.n)), axis=1)
            for k, got in enumerate(_solve_rows(markets, bfs, orders).tolist()):
                assert tuple(got) == solve_mvbm(markets.market(k), bfs, orders[k].tolist())


# (market, agent players, task players), built by hand so that the
# truthful market's last depth-first search backs up and dives through
# two or more saturated agents
DIVES = (
    # agent 0 (capacity 2) holds tasks 0 and 1, agent 1 task 2 and agent
    # 3 task 3; the search from task 4 meets agent 3 behind task 0, backs
    # up, and reaches agent 2 through task 1 and agent 1
    (Instance([2, 1, 1, 1], [9.0, 8.0, 7.0, 6.0, 5.0],
              [(0, 0), (3, 0), (0, 1), (1, 1), (1, 2), (2, 2), (3, 3),
               (0, 4), (1, 4), (2, 4)]),
     (0, 1, 3), (0, 1, 4)),
    # a ladder: agent i holds task i for i = 0..4, tasks 2 and 3 also
    # list the dead end agent 0; the search from task 5 climbs from agent
    # 1 to the free agent 5 through four saturated agents, backing up
    # from agent 0 on the way
    (Instance([1] * 6, [10.0, 9.0, 8.0, 7.0, 6.0, 5.0],
              [(0, 0), (1, 1), (2, 1), (0, 2), (2, 2), (3, 2), (0, 3),
               (3, 3), (4, 3), (4, 4), (5, 4), (1, 5), (5, 5)]),
     (0, 2, 3), (2, 3, 5)),
)


def _subsets(row):
    """Every non-empty subset of ``row``."""
    return [c for size in range(1, len(row) + 1) for c in itertools.combinations(row, size)]


def _checked_dives(patch):
    """Wraps ``solver._dive``: each line it gets must end as ``search_dfs``
    and ``flip`` leave a ``_State`` seeded with the line's owner row.
    Returns a list that gets, per line, the saturated agents on the path
    and whether the search backed up, which it did when it visited an
    agent off the path."""
    dive, seen = solver._dive, []

    def checked(markets, start, rows, ids, owner, key, room):
        before = owner[rows].tolist()
        dive(markets, start, rows, ids, owner, key, room)
        for k, held, after in zip(ids.tolist(), before, owner[rows].tolist()):
            state = solver._State(markets.market(k), None)
            state.seed_matching(held)
            terminal = state.search_dfs(start)
            path = state.path_pairs(terminal)
            visited = state.visit_a.count(state.epoch)
            state.flip(terminal)
            assert after == state.owner, (k, start)
            seen.append((len(path) // 2, visited > len(path) // 2 + 1))

    patch.setattr(solver, "_dive", checked)
    return seen


@pytest.mark.parametrize("inst, agent_players, task_players", DIVES)
@pytest.mark.parametrize("agents", (True, False))
def test_the_dive_finishes_depth_first_rows_in_the_pass(
    monkeypatch, inst, agent_players, task_players, agents
):
    # every non-empty sub-row of each player's true row, over all joint
    # choices; each dive equals one search and flip on its owner row,
    # and every row equals the depth-first solve of its market
    dfs = Traversal.DEPTH_FIRST
    seen = _checked_dives(monkeypatch)
    players = agent_players if agents else task_players
    true_rows = inst.agent_adj if agents else inst.task_adj
    markets = _Markets(inst, agents, players, [_subsets(true_rows[e]) for e in players])
    owners = _solve_rows(markets, dfs)
    assert len(owners) >= 63
    for k, got in enumerate(owners.tolist()):
        assert tuple(got) == solve_mvbm(markets.market(k), dfs), k
    assert any(saturated >= 2 and backed for saturated, backed in seen), seen


def test_depth_first_passes_build_no_state(monkeypatch):
    # every MDFS joint-report pass, of agents and of tasks, over four
    # blocks of the audit workload's shapes (1-3 agents x 1-4 tasks,
    # densities 0.3, 0.6 and 1.0, capacities 1-2) finishes in the pass
    dives = Counter()
    dive = solver._dive

    def counted(markets, start, rows, *arrays):
        dives["lines"] += rows.size
        dive(markets, start, rows, *arrays)

    class Unbuilt:
        def __init__(self, *args):
            raise AssertionError("a depth-first row left the pass")

    monkeypatch.setattr(solver, "_dive", counted)
    monkeypatch.setattr(solver, "_State", Unbuilt)
    shapes = list(itertools.product((1, 2, 3), (1, 2, 3, 4), (0.3, 0.6, 1.0)))
    for index in range(4 * len(shapes)):
        n, m, p = shapes[index % len(shapes)]
        inst = gen.generate_instance(gen.GenConfig(n, m, p, 1, 2, seed=27), index)
        for side, rows in ((AGENTS, inst.agent_adj), (TASKS, inst.task_adj)):
            players = [e for e, row in enumerate(rows) if row]
            oracle._joint_outcomes(inst, MechanismKind.MDFS, side, players, 10**6)
    assert dives["lines"] > 0


def test_the_option_table_takes_the_smallest_unsigned_type():
    inst = Instance([1], [1.0, 2.0], [(0, 0), (0, 1)])
    for count, kind in ((1, np.uint8), (256, np.uint8), (257, np.uint16)):
        markets = _Markets(inst, True, [0], [[(0,)] * count])
        assert markets.picks.dtype == kind
        assert markets.picks[:, 0].tolist() == list(range(count))
    assert _Markets(inst).picks.shape == (1, 0)
    assert _Markets(inst).picks.dtype == np.uint8


@pytest.mark.parametrize("traversal", TRAVERSALS)
def test_row_pass_on_degenerate_markets(traversal):
    # no tasks, no agents, a task without agents and withdrawn agents and
    # tasks: each entity with edges reports its row or nothing
    for inst in (
        Instance([1, 2], [], []),
        Instance([], [1.0, 2.0], []),
        Instance([1, 2, 1], [3.0, 5.0, 2.0, 2.0], [(0, 0), (0, 2), (1, 0), (1, 3)]),
    ):
        assert _solve_rows(_Markets(inst), traversal).tolist() == [
            list(_expected(inst, traversal))]
        for agents in (True, False):
            true_rows = inst.agent_adj if agents else inst.task_adj
            players = [e for e, row in enumerate(true_rows) if row]
            options = [[true_rows[e], ()] for e in players]
            owners = _solve_rows(_Markets(inst, agents, players, options), traversal)
            stacks = _stacks(inst, agents, players, options)
            assert len(owners) == len(stacks)
            for rows, got in zip(stacks, owners.tolist()):
                market = _rebuilt(inst, agents, rows)
                assert tuple(got) == _expected(market, traversal)


def test_markets_read_each_rows_adjacency():
    # every line, product and degree the pass reads equals the one read
    # off the market's own (m, n) adjacency
    rnd = random.Random(20261021)
    for _ in range(60):
        inst = _market(rnd, (1, 4), (1, 5), 0.6)
        agents = rnd.random() < 0.5
        players, options = _players(inst, agents, rnd)
        markets = _Markets(inst, agents, players, options)
        stacks = _stacks(inst, agents, players, options)
        dense = np.array([_adjacency(inst, agents, rows) for rows in stacks])
        rows = np.arange(len(stacks))
        true_rows = inst.agent_adj if agents else inst.task_adj
        true_cols = inst.task_adj if agents else inst.agent_adj
        for k, s in enumerate(stacks):
            market, rebuilt = markets.market(k), _rebuilt(inst, agents, s)
            for field in FIELDS:
                assert getattr(market, field) == getattr(rebuilt, field), field
            # what no player changes is shared with the base, not copied
            for field in ("capacities", "values", "task_order", "task_rank"):
                assert getattr(market, field) is getattr(inst, field), field
            got_rows = market.agent_adj if agents else market.task_adj
            got_cols = market.task_adj if agents else market.agent_adj
            hidden = set()
            for e, row in enumerate(s):
                if row == true_rows[e]:
                    assert got_rows[e] is true_rows[e]
                hidden.update(set(true_rows[e]) - set(row))
            for p, col in enumerate(true_cols):
                if p not in hidden:
                    assert got_cols[p] is col
        for t in range(inst.m):
            assert (markets.task(rows, t) == dense[:, t]).all()
        for a in range(inst.n):
            assert (markets.agent(rows, a) == dense[:, :, a]).all()
        each_task = rows % inst.m
        each_agent = rows % max(inst.n, 1)
        assert (markets.task(rows, each_task) == dense[rows, each_task]).all()
        if inst.n:
            assert (markets.agent(rows, each_agent)
                    == dense[rows, :, each_agent]).all()
        tasks = np.array([[rnd.random() < 0.5 for _ in range(inst.m)]
                          for _ in rows], dtype=bool).reshape(rows.size, inst.m)
        assert (markets.reach(rows, tasks)
                == (tasks[:, :, None] & dense).any(axis=1)).all()
        assert (markets.degrees(rows) == dense.sum(axis=2)).all()


@pytest.mark.parametrize("kind", [MechanismKind.MBFS, MechanismKind.MDFS,
                                  MechanismKind.MAP])
def test_joint_reports_hold_no_stacked_adjacency(kind):
    # one agent of degree 10 on a 40 x 200 market: 1,023 joint reports,
    # whose stacked (reports, m, n) bool adjacency alone would take 8,000
    # bytes a report; the pass holds a few bytes a report per task and
    # agent (owner, key and room rows and one row of temporaries)
    rnd = random.Random(7)
    n, m = 40, 200
    edges = {(0, t) for t in rnd.sample(range(m), 10)}
    edges |= {(a, t) for a in range(1, n) for t in range(m) if rnd.random() < 0.02}
    inst = Instance([rnd.randint(3, 5) for _ in range(n)],
                    [float(rnd.randint(1, 20)) for _ in range(m)], sorted(edges))
    tracemalloc.start()
    try:
        _, owners = oracle._joint_outcomes(inst, kind, AGENTS, (0,), 10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert owners.shape == (1023, m)
    assert peak < 16 * len(owners) * (m + n)


def test_coalition_search_checks_the_mechanism_without_entities():
    # no entity has edges, so there is no coalition to solve
    inst = Instance([1], [1.0], [])
    with pytest.raises(ValueError, match="deterministic mechanisms"):
        oracle.find_agent_coalition(inst, MechanismKind.MRBFS)
    assert oracle.find_agent_coalition(inst, MechanismKind.MBFS) is None
