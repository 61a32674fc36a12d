import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bmatch.core import (
    InfeasibleMatchingError,
    Instance,
    InvalidInstanceError,
    matched_pairs,
    matching_weight,
)
from bmatch.fixtures import (
    complete_three_agent_instance,
    epsilon_gap_instance,
    equal_value_collusion_instance,
    tied_optimum_instance,
    two_class_instance,
)
from bmatch.gen import GenConfig, generate_instance
from bmatch.oracle import brute_force_mvbm
from bmatch.solver import (
    _DEAD,
    AugmentingPath,
    Traversal,
    _Markets,
    _State,
    _flip_depth_two,
    _resume,
    _solve_journaled,
    _solve_rows,
    find_augmenting_path,
    solve_ap,
    solve_mvbm,
)
from bmatch import solver
from conftest import small_instances


def test_breadth_first_path_is_shortest():
    inst = complete_three_agent_instance()
    partial = (0, -1)
    path = find_augmenting_path(inst, partial, 1, Traversal.BREADTH_FIRST)
    assert path is not None
    assert path.length == 1
    assert path.edges == ((1, 1),)


def test_depth_first_path_dives_through_first_agent():
    inst = complete_three_agent_instance()
    partial = (0, -1)
    path = find_augmenting_path(inst, partial, 1, Traversal.DEPTH_FIRST)
    assert path is not None
    assert path.length == 3
    assert path.edges == ((0, 1), (0, 0), (1, 0))
    assert path.start_task == 1
    assert path.terminal_agent == 1


def test_path_search_rejects_matched_start():
    inst = complete_three_agent_instance()
    partial = (0, -1)
    with pytest.raises(ValueError):
        find_augmenting_path(inst, partial, 0, Traversal.BREADTH_FIRST)


def test_path_search_returns_none_for_isolated_task():
    inst = Instance([1], [1.0, 0.5], [(0, 0)])
    assert find_augmenting_path(inst, (-1, -1), 1, Traversal.BREADTH_FIRST) is None


def test_path_search_rejects_unknown_task():
    inst = complete_three_agent_instance()
    for task_id in (-1, 2, 9):
        for traversal in Traversal:
            with pytest.raises(ValueError, match="unknown task id"):
                find_augmenting_path(inst, (-1, -1), task_id, traversal)


def test_path_search_rejects_infeasible_partial_matching():
    inst = complete_three_agent_instance()
    tied = tied_optimum_instance()
    for traversal in Traversal:
        # agent 0 over its capacity of 1
        with pytest.raises(InfeasibleMatchingError):
            find_augmenting_path(tied, (0, 0, -1), 2, traversal)
        # (1, 1) is not an edge of the tied market
        with pytest.raises(InfeasibleMatchingError):
            find_augmenting_path(tied, (-1, 1, -1), 0, traversal)
        # one owner per task
        with pytest.raises(InfeasibleMatchingError):
            find_augmenting_path(inst, (-1,), 1, traversal)


def test_augmenting_path_shape_is_validated():
    with pytest.raises(ValueError):
        AugmentingPath(edges=((0, 0), (0, 1)))  # even length
    with pytest.raises(ValueError):
        AugmentingPath(edges=((0, 0), (1, 1), (1, 2)))  # broken chain


def test_exact_solver_on_complete_market():
    inst = complete_three_agent_instance()
    assert solve_mvbm(inst, Traversal.BREADTH_FIRST) == (0, 1)
    assert solve_mvbm(inst, Traversal.DEPTH_FIRST) == (1, 0)


def test_exact_solver_on_two_class_market():
    inst = two_class_instance()
    assert solve_mvbm(inst, Traversal.BREADTH_FIRST) == (0, 0, 1)
    assert solve_mvbm(inst, Traversal.DEPTH_FIRST) == (2, 0, 0)


def test_greedy_solver_examples():
    assert solve_ap(epsilon_gap_instance(0.5)) == (0, -1)
    assert solve_ap(equal_value_collusion_instance()) == (0, 1)
    single = Instance([1], [1.0], [(0, 0)])
    assert solve_ap(single) == (0,)


def test_solver_rejects_invalid_instance():
    # the market is rejected where it is built, so no solver can get it
    with pytest.raises(InvalidInstanceError, match="non-positive capacity 0 on agent 0"):
        Instance([0], [1.0], [(0, 0)])


def test_both_traversals_reach_the_brute_force_optimum(small_batch):
    for inst in small_batch:
        cert = brute_force_mvbm(inst)
        for traversal in Traversal:
            weight = matching_weight(inst, solve_mvbm(inst, traversal))
            assert weight == pytest.approx(cert.weight, abs=1e-9)


def test_greedy_weight_is_at_least_half_the_optimum(small_batch):
    for inst in small_batch:
        cert = brute_force_mvbm(inst)
        greedy = matching_weight(inst, solve_ap(inst))
        assert greedy >= 0.5 * cert.weight - 1e-9


def test_matched_tasks_grow_monotonically():
    # independent re-implementation of the solve loop: one path search per
    # task, applied by symmetric difference; matched tasks never drop out
    for inst in small_instances(40, seed=4321):
        for traversal in Traversal:
            pairs: set[tuple[int, int]] = set()
            matched_before: set[int] = set()
            for t in inst.task_order:
                owner = [-1] * inst.m
                for a, task in pairs:
                    owner[task] = a
                if owner[t] != -1:
                    continue
                path = find_augmenting_path(inst, tuple(owner), t, traversal)
                if path is not None:
                    pairs ^= set(path.edges)
                matched_now = {task for _, task in pairs}
                assert matched_before <= matched_now
                matched_before = matched_now
            assert pairs == set(matched_pairs(solve_mvbm(inst, traversal)))


def test_greedy_output_is_maximal_for_single_edge_paths(small_batch):
    for inst in small_batch:
        mu = solve_ap(inst)
        load = {a: 0 for a in range(inst.n)}
        for a in mu:
            if a != -1:
                load[a] += 1
        for t in range(inst.m):
            if mu[t] != -1:
                continue
            for a in inst.task_adj[t]:
                assert load[a] >= inst.capacities[a]


class _UnprunedState(_State):
    """The searches without dead-agent pruning: every search walks the
    whole alternating tree again, and sorts each agent's matched tasks
    into process order itself.  Reference for the differential tests."""

    __slots__ = ()

    def search_bfs(self, start: int) -> int:
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
                    if visit_a[a] == epoch:
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
                for t2 in sorted(self.agent_tasks[a], key=self.rank.__getitem__):
                    if visit_t[t2] == epoch:
                        continue
                    visit_t[t2] = epoch
                    frontier.append(t2)
        return -1

    def search_dfs(self, start: int) -> int:
        self.epoch += 1
        epoch = self.epoch
        visit_a, visit_t = self.visit_a, self.visit_t
        caps, load = self.caps, self.load
        visit_t[start] = epoch
        frames: list[list] = [[True, start, self.task_agents[start], 0]]
        while frames:
            frame = frames[-1]
            is_task, node, seq, i = frame
            moved = False
            if is_task:
                while i < len(seq):
                    a = seq[i]
                    i += 1
                    if visit_a[a] == epoch:
                        continue
                    visit_a[a] = epoch
                    self.from_task[a] = node
                    if load[a] < caps[a]:
                        return a
                    frame[3] = i
                    tasks = sorted(self.agent_tasks[a], key=self.rank.__getitem__)
                    frames.append([False, a, tasks, 0])
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
        return -1


def _assert_agent_tasks_in_process_order(state, inst):
    for a, tasks in enumerate(state.agent_tasks):
        held = [t for t, owner in enumerate(state.owner) if owner == a]
        assert tasks == sorted(held, key=inst.task_rank.__getitem__), (a, tasks)


def _owners(inst, order, traversal, state_cls=_State):
    state = state_cls(inst, order)
    state.run(traversal)
    _assert_agent_tasks_in_process_order(state, inst)
    return state.owner


def _assert_pruning_keeps_owners(inst, order):
    for traversal in Traversal:
        assert _owners(inst, order, traversal) == _owners(
            inst, order, traversal, _UnprunedState
        ), (inst, order, traversal)


@pytest.mark.parametrize(
    "n, m, p, count",
    [
        (40, 30, 0.8, 6),  # dense
        (20, 200, 0.1, 6),  # sparse
        (20, 25, 0.2, 20),  # the randomized-order experiment's shape
    ],
)
def test_pruning_keeps_owner_arrays(n, m, p, count):
    cfg = GenConfig(n, m, p, 1, 3, seed=97)
    rng = np.random.default_rng(98)
    for i in range(count):
        inst = generate_instance(cfg, i)
        _assert_pruning_keeps_owners(inst, None)
        _assert_pruning_keeps_owners(inst, rng.permutation(n).tolist())


def test_pruning_keeps_owner_arrays_under_lottery_orders():
    # the lottery's solves: 40 markets of the randomized experiment's
    # shape and capacity, 5 random orders each; the reference scans all
    # of depth 1 for the lowest position
    cfg = GenConfig(20, 25, 0.2, 3, 3, seed=101)
    rng = np.random.default_rng(102)
    for i in range(40):
        inst = generate_instance(cfg, i)
        for _ in range(5):
            order = rng.permutation(20).tolist()
            assert _owners(inst, order, Traversal.BREADTH_FIRST) == _owners(
                inst, order, Traversal.BREADTH_FIRST, _UnprunedState
            ), (i, order)


def test_priority_adjacency_is_each_task_sorted_by_position():
    rng = np.random.default_rng(103)
    for inst in small_instances(60, seed=104, n_max=5, m_max=6) + [
        generate_instance(GenConfig(20, 25, 0.2, 3, 3, seed=105), 0)
    ]:
        order = rng.permutation(inst.n).tolist()
        pos = {a: k for k, a in enumerate(order)}
        expected = [sorted(adj, key=pos.__getitem__) for adj in inst.task_adj]
        state = _State(inst, order)
        assert state.task_agents == expected
        assert state.pos == [pos[a] for a in range(inst.n)]


@pytest.mark.parametrize(
    "order",
    [
        [0, 1],  # agent 2 missing
        [0, 0, 2],  # duplicate
        [-1, 0, 1],  # negative id
        [0, 1, 2, 3],  # too long
        [0, 1, 3],  # out of range
        [],
    ],
)
def test_solver_rejects_orders_that_are_not_permutations(order):
    inst = complete_three_agent_instance()
    for traversal in Traversal:
        with pytest.raises(ValueError, match="not a permutation"):
            solve_mvbm(inst, traversal, order)


def test_pruning_keeps_owner_arrays_on_small_markets():
    rng = np.random.default_rng(99)
    for i in range(200):
        n = (i % 3) + 1
        m = (i % 4) + 1
        p = (0.3, 0.6, 1.0)[i % 3]
        inst = generate_instance(GenConfig(n, m, p, 1, 2, seed=100), i)
        _assert_pruning_keeps_owners(inst, None)
        _assert_pruning_keeps_owners(inst, rng.permutation(n).tolist())


@st.composite
def _markets(draw, values=st.sampled_from([0.0, 1.0, 2.0, 2.5])):
    """Small random markets; the default values repeat often, so
    processing-order ties are common."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 8))
    capacities = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    task_values = draw(st.lists(values, min_size=m, max_size=m))
    edges = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1))))
    return Instance(capacities, task_values, sorted(edges))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_pruning_keeps_owner_arrays_property(data):
    inst = data.draw(_markets())
    order = data.draw(st.permutations(range(inst.n)))
    _assert_pruning_keeps_owners(inst, None)
    _assert_pruning_keeps_owners(inst, list(order))


def test_later_search_routes_around_the_dead_set():
    # tasks in process order: t0 -> a0 and t1 -> a1 directly; t2 only
    # reaches the saturated a0, whose task t0 leads back to a0 only, so
    # the search fails and retires a0.  t3 must then skip a0 and still
    # find the free a2 through a1: t3 - a1 - t1 - a2.
    inst = Instance(
        [1, 1, 1],
        [5.0, 4.0, 3.0, 2.0],
        [(0, 0), (1, 1), (2, 1), (0, 2), (0, 3), (1, 3)],
    )
    for traversal in Traversal:
        state = _State(inst, None)
        search = (
            state.search_bfs
            if traversal is Traversal.BREADTH_FIRST
            else state.search_dfs
        )
        for t in (0, 1):
            state.flip(search(t))
        assert search(2) == -1
        assert [stamp == _DEAD for stamp in state.visit_a] == [True, False, False]
        terminal = search(3)
        assert terminal == 2
        assert state.path_pairs(terminal) == ((1, 3), (1, 1), (2, 1))
        state.flip(terminal)
        assert state.owner == [0, 2, -1, 1]
        assert state.owner == _owners(inst, None, traversal, _UnprunedState)


def _assignment_optimum(inst: Instance) -> float:
    """Maximum matching weight with no size cap: each agent becomes
    ``capacity`` slots and the task-to-slot assignment problem is solved
    exactly (non-adjacent pairs weigh 0, so they add nothing)."""
    from scipy.optimize import linear_sum_assignment

    slots = [a for a in range(inst.n) for _ in range(inst.capacities[a])]
    weights = np.zeros((inst.m, len(slots)))
    for col, a in enumerate(slots):
        for t in inst.agent_adj[a]:
            weights[t, col] = inst.values[t]
    rows, cols = linear_sum_assignment(weights, maximize=True)
    return float(weights[rows, cols].sum())


def _assert_optimal_and_greedy_half(inst: Instance) -> None:
    optimum = _assignment_optimum(inst)
    # relative tolerance: sums of hundreds of values outgrow WEIGHT_TOL
    for traversal in Traversal:
        weight = matching_weight(inst, solve_mvbm(inst, traversal))
        assert weight == pytest.approx(optimum, rel=1e-12, abs=1e-12), traversal
    greedy = matching_weight(inst, solve_ap(inst))
    assert greedy >= 0.5 * optimum * (1 - 1e-12)


def test_exact_solvers_reach_the_assignment_optimum_at_scale():
    pytest.importorskip("scipy")
    cfg = GenConfig(30, 200, 0.2, 3, 7, seed=101)
    for i in range(8):
        _assert_optimal_and_greedy_half(generate_instance(cfg, i))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(inst=_markets(values=st.floats(0.0, 10.0)))
def test_exact_solvers_reach_the_assignment_optimum_property(inst):
    pytest.importorskip("scipy")
    _assert_optimal_and_greedy_half(inst)


def test_agent_tasks_stay_in_process_order_when_seeded_and_greedy():
    cfg = GenConfig(6, 12, 0.5, 1, 3, seed=103)
    for i in range(20):
        inst = generate_instance(cfg, i)
        _owners(inst, None, None)
        seeded = _State(inst, None)
        seeded.seed_matching(solve_mvbm(inst, Traversal.DEPTH_FIRST))
        _assert_agent_tasks_in_process_order(seeded, inst)


def _state_snapshot(state):
    return state.owner, state.load, state.agent_tasks


_RESUME_SHAPES = [
    (40, 30, 0.8, 1, 3),  # dense
    (20, 200, 0.1, 1, 3),  # sparse
    (20, 200, 0.2, 3, 7),  # the gain curve's shape
]


@pytest.mark.parametrize("n, m, p, low, high", _RESUME_SHAPES)
def test_replay_restores_the_state_before_each_rank(n, m, p, low, high):
    # the market cut down to the tasks of rank below r takes the same
    # first r steps and then stops, so its final state is the checkpoint
    for i in range(2):
        inst = generate_instance(GenConfig(n, m, p, low, high, seed=104), i)
        for traversal in (*Traversal, None):
            _, journal, _ = _solve_journaled(inst, traversal, True)
            assert len(journal) == inst.m
            retiring = [k + 1 for k, (_, retired) in enumerate(journal) if retired]
            for rank in sorted({0, inst.m, *range(0, inst.m, 7), *retiring}):
                edges = [(a, t) for a, adj in enumerate(inst.agent_adj) for t in adj
                         if inst.task_rank[t] < rank]
                prefix = _State(Instance(inst.capacities, inst.values, edges), None)
                prefix.run(traversal)
                replayed = _State(inst, None)
                replayed.replay(journal, rank)
                assert _state_snapshot(replayed) == _state_snapshot(prefix), rank
                assert _DEAD not in replayed.visit_a


@pytest.mark.parametrize("n, m, p, low, high", _RESUME_SHAPES)
def test_resume_ends_in_the_full_solve_state(n, m, p, low, high):
    # hide part of one agent's row from a random rank on; replaying the
    # truthful journal up to the first hidden rank and running on from
    # there ends where a full solve does: owners, loads and agent_tasks
    rng = np.random.default_rng(n * m)
    for i in range(2):
        inst = generate_instance(GenConfig(n, m, p, low, high, seed=104), i)
        for traversal in (*Traversal, None):
            _, journal, _ = _solve_journaled(inst, traversal, True)
            for agent in range(inst.n):
                cut = rng.integers(inst.m)
                hidden = {t for t in inst.agent_adj[agent]
                          if inst.task_rank[t] >= cut and rng.random() < 0.5}
                if not hidden:
                    continue
                edges = [(a, t) for a, adj in enumerate(inst.agent_adj) for t in adj
                         if a != agent or t not in hidden]
                market = Instance(inst.capacities, inst.values, edges)
                rank = min(inst.task_rank[t] for t in hidden)
                full = _State(market, None)
                owner = full.run(traversal)
                resumed = _State(market, None)
                resumed.replay(journal, rank)
                assert resumed.run(traversal, rank) == owner
                assert _state_snapshot(resumed) == _state_snapshot(full)
                # a watched entity's entries are those of the full solve
                watched = _resume(market, traversal, journal, rank, True, agent)
                tasks = [t for t, a in enumerate(owner) if a == agent]
                assert [t for t, a in enumerate(watched) if a == agent] == tasks
                for t in hidden:
                    watched = _resume(market, traversal, journal, rank, False, t)
                    assert (watched[t] == -1) == (owner[t] == -1)


@pytest.mark.parametrize("traversal", list(Traversal))
def test_a_run_stops_once_the_watched_agent_is_retired(traversal):
    # agents 0 and 1 hold tasks 0 and 1 when the search from task 2
    # retires both; the full solve goes on to give task 3 to agent 2
    inst = Instance([1, 1, 1], [3.0, 2.0, 1.0, 0.5],
                    [(0, 0), (0, 2), (0, 3), (1, 0), (1, 1), (2, 3)])
    assert _State(inst, None).run(traversal) == (0, 1, -1, 2)
    assert _State(inst, None).run(traversal, until_retired=0) == (0, 1, -1, -1)
    assert _State(inst, None).run(traversal, until_retired=2) == (0, 1, -1, 2)
    _, journal, final_at = _solve_journaled(inst, traversal, True)
    assert _resume(inst, traversal, journal, 0, True, 0) == (0, 1, -1, -1)
    # agents 0 and 1 are final from the step that retires them, agent 2
    # and every task only from m
    assert final_at == [2, 2, 4]
    assert _solve_journaled(inst, traversal, False)[2] == [4] * 4


@pytest.mark.parametrize("traversal", [*Traversal, None])
def test_a_resume_stops_after_the_watched_tasks_rank(traversal):
    # tasks 1, 0, 3, 2 in process order, and every traversal matches
    # three of them; a resume watching task j reads j's full-solve
    # outcome and leaves every later rank unmatched, as the replay left it
    inst = Instance([1, 1, 1], [2.0, 3.0, 0.5, 1.0],
                    [(0, 0), (0, 1), (0, 3), (1, 1), (1, 2), (2, 0)])
    assert inst.task_order == (1, 0, 3, 2)
    full = _State(inst, None).run(traversal)
    assert sum(a != -1 for a in full) == 3
    _, journal, _ = _solve_journaled(inst, traversal, False)
    for rank in range(inst.m):
        for j in inst.task_order[rank:]:
            owner = _resume(inst, traversal, journal, rank, False, j)
            assert (owner[j] == -1) == (full[j] == -1)
            later = inst.task_order[inst.task_rank[j] + 1:]
            assert [owner[t] for t in later] == [-1] * len(later)


class _SeededCount(_State):
    """Counts the lottery rows that ``_solve_rows`` finishes on the state
    machine, and the rows its depth-2 step moves."""

    seeded = 0
    moved = 0

    def seed_matching(self, owner):
        _SeededCount.seeded += 1
        super().seed_matching(owner)


def _counted_depth_two(markets, start, rows, *arrays):
    left = _flip_depth_two(markets, start, rows, *arrays)
    _SeededCount.moved += rows.size - left.size
    return left


def _random_orders(rng, trials, n):
    return np.argsort(rng.random((trials, n)), axis=1)


def _assert_solves_each_order(inst, orders):
    # the one market of no players, once per order
    markets = _Markets(inst, picks=_Markets(inst).picks.repeat(len(orders), axis=0))
    owners = _solve_rows(markets, Traversal.BREADTH_FIRST, orders)
    assert owners.shape == (len(orders), inst.m)
    for k, order in enumerate(orders.tolist()):
        expected = solve_mvbm(markets.market(k), Traversal.BREADTH_FIRST, order)
        assert tuple(owners[k].tolist()) == expected, (k, order)


def _solve_and_count_resumes(monkeypatch, inst, orders):
    """Checks every row against ``solve_mvbm`` and returns the resumed
    trials; ``_SeededCount.moved`` then holds the depth-2 flips."""
    monkeypatch.setattr(solver, "_State", _SeededCount)
    monkeypatch.setattr(solver, "_flip_depth_two", _counted_depth_two)
    _SeededCount.seeded = _SeededCount.moved = 0
    _assert_solves_each_order(inst, orders)
    return _SeededCount.seeded


def test_batched_orders_solve_as_one_by_one_on_lottery_markets(monkeypatch):
    # the randomized experiment's shape: most trials end every search at
    # depth 1, the rest also meet tasks whose agents are all saturated and
    # take the depth-2 step
    cfg = GenConfig(20, 25, 0.2, 3, 3, seed=107)
    rng = np.random.default_rng(108)
    moved = trials = 0
    for i in range(24):
        orders = _random_orders(rng, 60, cfg.n)
        _solve_and_count_resumes(monkeypatch, generate_instance(cfg, i), orders)
        moved += _SeededCount.moved
        trials += len(orders)
    assert 0 < moved < trials


def test_batched_orders_take_the_depth_two_step_and_resume(monkeypatch):
    # unit and double capacities on small dense markets: searches end at
    # depth 2, fail, or go deeper, so both the step and the resume run
    cfg = GenConfig(6, 10, 0.5, 1, 2, seed=112)
    rng = np.random.default_rng(113)
    resumed = moved = 0
    for i in range(8):
        orders = _random_orders(rng, 60, cfg.n)
        resumed += _solve_and_count_resumes(monkeypatch, generate_instance(cfg, i), orders)
        moved += _SeededCount.moved
    assert resumed > 0 and moved > 0


def test_depth_two_step_follows_the_frontier_order(monkeypatch):
    # Tasks Z=1, X=2, Y=0, start=3 and W=4 come in that rank order, and
    # the order puts agents 1, 2, 3, 4, 0.  Depth 1 gives Z to 3, X to 2
    # and Y to 1, which saturates the start task's agents 1, 2 and 3.
    # The frontier is their tasks by (owner's position, rank): Y, X, Z,
    # which is neither id order (Y, Z, X) nor rank order (Z, X, Y).
    # Agent 4 comes before agent 0 in the order, so it is the terminal;
    # Y does not reach it, and X is the first frontier task next to it,
    # though Z, next to it too, has the lower id and rank.  The flip
    # gives X to agent 4 and the start task to X's old owner 2; agent 4
    # is then saturated, so W goes to agent 0.
    inst = Instance(
        [1, 1, 1, 1, 1],
        [3.0, 5.0, 4.0, 2.0, 1.0],
        [(3, 1), (4, 1), (0, 1), (2, 2), (4, 2), (1, 0),
         (1, 3), (2, 3), (3, 3), (4, 4), (0, 4)],
    )
    order = [1, 2, 3, 4, 0]
    expected = (1, 3, 4, 2, 0)
    assert solve_mvbm(inst, Traversal.BREADTH_FIRST, order) == expected
    assert _solve_and_count_resumes(monkeypatch, inst, np.array([order])) == 0
    assert _SeededCount.moved == 1


def test_batched_orders_solve_as_one_by_one_on_tight_markets(monkeypatch):
    # unit capacities: searches fail and retire agents; in the pass
    # ``_reaches_free`` settles a failed search, and the row stays
    cfg = GenConfig(20, 25, 0.4, 1, 1, seed=109)
    rng = np.random.default_rng(110)
    reaches = solver._reaches_free
    failed = 0

    def counted_reaches(*args):
        nonlocal failed
        free = reaches(*args)
        failed += int((~free).sum())
        return free

    monkeypatch.setattr(solver, "_reaches_free", counted_reaches)
    for i in range(8):
        inst = generate_instance(cfg, i)
        orders = _random_orders(rng, 40, cfg.n)
        _solve_and_count_resumes(monkeypatch, inst, orders)
        dead = _State(inst, orders[0].tolist())
        dead.run(Traversal.BREADTH_FIRST)
        assert _DEAD in dead.visit_a
    assert failed > 0


def test_batched_orders_on_degenerate_markets():
    rng = np.random.default_rng(111)
    # task 1 has no agents, agent 2 has no edges (withdrawn)
    inst = Instance([1, 2, 1], [3.0, 5.0, 2.0, 2.0], [(0, 0), (0, 2), (1, 0), (1, 3)])
    _assert_solves_each_order(inst, _random_orders(rng, 30, 3))
    one_agent = Instance([2], [1.0, 3.0, 2.0], [(0, 0), (0, 1), (0, 2)])
    _assert_solves_each_order(one_agent, _random_orders(rng, 5, 1))
    _assert_solves_each_order(inst, np.array([[2, 0, 1]]))
    no_agents = Instance([], [1.0, 2.0], [])
    _assert_solves_each_order(no_agents, np.empty((3, 0), dtype=np.intp))
    no_tasks = Instance([1, 2], [], [])
    _assert_solves_each_order(no_tasks, _random_orders(rng, 4, 2))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_batched_orders_solve_as_one_by_one_property(data):
    inst = data.draw(_markets())
    orders = data.draw(st.lists(st.permutations(range(inst.n)), min_size=1, max_size=6))
    _assert_solves_each_order(inst, np.array(orders, dtype=np.intp))
