"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The expensive
experiment tables are computed once per session and reused by the
determinism criterion.
"""

import time

import pytest

from bmatch.core import Instance, matching_weight
from bmatch.fixtures import (
    complete_three_agent_instance,
    epsilon_gap_instance,
    replay_all,
    two_class_instance,
)
from bmatch.gen import GenConfig, generate_instance
from bmatch.harness import ExperimentConfig, export_results, run_experiment
from bmatch.mechanisms import (
    MechanismKind,
    fcfs_policies,
    worst_ne_profile,
)
from bmatch.oracle import (
    audit_agent_truthfulness,
    audit_task_truthfulness,
    brute_force_mvbm,
    enumerate_pure_nash,
    find_agent_coalition,
    poa_pos_on_instance,
)
from bmatch.solver import Traversal, solve_ap, solve_mvbm
from bmatch.strategies import verify_nash

SEED = 20240811


def _report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d} {status}: {detail}")


# ---------------------------------------------------------------------------
# shared instance batches


@pytest.fixture(scope="session")
def small_thousand():
    out = []
    for i in range(1000):
        n = (i % 4) + 1
        m = ((i // 4) % 4) + 1
        p = (0.3, 0.6, 1.0)[i % 3]
        cfg = GenConfig(n, m, p, 1, 2, seed=SEED)
        out.append(generate_instance(cfg, i))
    return out


@pytest.fixture(scope="session")
def larger_hundred():
    cfg = GenConfig(20, 30, 0.6, 1, 3, seed=SEED + 1)
    return [generate_instance(cfg, i) for i in range(100)]


# ---------------------------------------------------------------------------
# criterion 1: exact fixture replay


def test_criterion_01_fixture_replay():
    start = time.perf_counter()
    results = replay_all()
    elapsed = time.perf_counter() - start
    ok = all(r.passed for r in results) and elapsed < 1.0
    _report(1, ok, f"{sum(r.passed for r in results)}/{len(results)} "
                   f"reference outcomes in {elapsed:.2f}s")
    for r in results:
        assert r.passed, f"{r.name}: expected {r.expected}, got {r.actual}"
    assert elapsed < 1.0


# criterion 2: both traversals match the brute-force optimum


def test_criterion_02_oracle_optimality(small_thousand):
    start = time.perf_counter()
    for inst in small_thousand:
        cert = brute_force_mvbm(inst)
        for traversal in Traversal:
            weight = matching_weight(inst, solve_mvbm(inst, traversal))
            assert abs(weight - cert.weight) <= 1e-9, inst
    elapsed = time.perf_counter() - start
    _report(2, elapsed < 10.0, f"1000 instances optimal in {elapsed:.1f}s")
    assert elapsed < 10.0


# criterion 3: greedy approximation ratio


def test_criterion_03_approximation_ratio(small_thousand):
    for inst in small_thousand:
        cert = brute_force_mvbm(inst)
        greedy = matching_weight(inst, solve_ap(inst))
        assert greedy >= 0.5 * cert.weight - 1e-9, inst
    eps = 1e-3
    inst = epsilon_gap_instance(eps)
    optimum = brute_force_mvbm(inst).weight
    greedy = matching_weight(inst, solve_ap(inst))
    ratio = optimum / greedy
    expected = (2 + eps) / (1 + eps)
    ok = abs(ratio - expected) <= 1e-9
    _report(3, ok, f"half-optimum bound on 1000 instances; "
                   f"tight-family ratio {ratio:.6f}")
    assert ok


# criterion 4: greedy output equals the union of the FCFS claims


def test_criterion_04_greedy_equals_fcfs(small_thousand, larger_hundred):
    start = time.perf_counter()
    for inst in small_thousand + larger_hundred:
        assert solve_ap(inst) == fcfs_policies(inst).owner(), inst
    elapsed = time.perf_counter() - start
    _report(4, elapsed < 10.0, f"1100 owner-tuple equalities in {elapsed:.1f}s")
    assert elapsed < 10.0


# criterion 5: the FCFS profile is a worst pure equilibrium


def test_criterion_05_worst_equilibrium_certification():
    start = time.perf_counter()
    checked = 0
    for i in range(200):
        n = (i % 3) + 1
        m = (i % 4) + 1
        p = (0.3, 0.6, 1.0)[i % 3]
        inst = generate_instance(GenConfig(n, m, p, 1, 2, seed=SEED + 2), i)
        profile, welfare = worst_ne_profile(inst)
        for kind in (MechanismKind.MBFS, MechanismKind.MDFS):
            ok, deviation = verify_nash(profile, kind)
            assert ok, (inst, kind, deviation)
            for _, ne_welfare in enumerate_pure_nash(inst, kind):
                assert welfare <= ne_welfare + 1e-9, (inst, kind)
        checked += 1
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0
    _report(5, ok, f"{checked} worst-equilibrium certificates in {elapsed:.1f}s")
    assert elapsed < 60.0


# criterion 6: exhaustive truthfulness audits stay empty


def test_criterion_06_truthfulness_audits():
    start = time.perf_counter()
    for i in range(200):
        n = (i % 4) + 1
        m = ((i // 4) % 4) + 1
        p = (0.3, 0.6, 1.0)[i % 3]
        inst = generate_instance(GenConfig(n, m, p, 1, 2, seed=SEED + 3), i)
        assert audit_agent_truthfulness(inst, MechanismKind.MAP, "ems") == []
        assert audit_agent_truthfulness(inst, MechanismKind.MAP, "ecms") == []
        for kind in (MechanismKind.MBFS, MechanismKind.MDFS, MechanismKind.MAP):
            assert audit_task_truthfulness(inst, kind, "ems") == []
            assert audit_task_truthfulness(
                inst, kind, "evms", value_grid=(1.0, 0.5, 0.25)) == []
    coalition_checked = 0
    for i in range(100):
        n = (i % 3) + 1
        m = (i % 3) + 1
        inst = generate_instance(
            GenConfig(n, m, 0.8, 1, 2, seed=SEED + 4), i)
        if len(set(inst.values)) != inst.m:
            continue
        assert find_agent_coalition(inst, MechanismKind.MAP, max_size=3) is None
        coalition_checked += 1
    elapsed = time.perf_counter() - start
    ok = elapsed < 120.0 and coalition_checked >= 95
    _report(6, ok, f"200 audited markets, {coalition_checked} coalition "
                   f"searches in {elapsed:.1f}s")
    assert coalition_checked >= 95
    assert elapsed < 120.0


# criterion 7: structurally truthful market families


def _family_degree_within_capacity(i: int) -> Instance:
    base = generate_instance(GenConfig(4, 5, 0.5, 1, 2, seed=SEED + 5), i)
    caps = [max(1, len(base.agent_adj[a]) + (i + a) % 2) for a in range(base.n)]
    return Instance(caps, base.values, sorted(base.edge_set()))


def _family_contested_complete(i: int) -> Instance:
    rng_inst = generate_instance(GenConfig(4, 1, 1.0, 1, 2, seed=SEED + 6), i)
    n = 2 + i % 3
    caps = [rng_inst.capacities[a % rng_inst.n] for a in range(n)]
    m = max(1, sum(caps) - max(caps) - i % 2)
    values = [3.0 + ((i * 7 + j * 13) % 11) / 10.0 for j in range(m)]
    edges = [(a, t) for a in range(n) for t in range(m)]
    return Instance(caps, values, edges)


def _family_agent_classes(i: int) -> Instance:
    class_count = 1 + i % 2
    caps: list[int] = []
    edges: list[tuple[int, int]] = []
    values: list[float] = []
    task_base = 0
    for c in range(class_count):
        b = 1 + (i + c) % 2
        tasks = 1 + (i + 2 * c) % 3
        members = -(-tasks // b) + 2  # ceil + 2 beats the bound by one
        task_ids = list(range(task_base, task_base + tasks))
        values.extend(2.0 + ((i + 3 * c + k) % 7) / 10.0 for k in range(tasks))
        for _ in range(members):
            agent = len(caps)
            caps.append(b)
            edges.extend((agent, t) for t in task_ids)
        task_base += tasks
    return Instance(caps, values, edges)


def test_criterion_07_truthful_families():
    for i in range(100):
        inst = _family_degree_within_capacity(i)
        assert audit_agent_truthfulness(inst, MechanismKind.MBFS) == [], i
        assert audit_agent_truthfulness(inst, MechanismKind.MDFS) == [], i
    for i in range(100):
        inst = _family_contested_complete(i)
        assert audit_agent_truthfulness(inst, MechanismKind.MBFS) == [], i
    for i in range(100):
        inst = _family_agent_classes(i)
        assert audit_agent_truthfulness(inst, MechanismKind.MBFS) == [], i
    # the same structures leave the depth-first variant manipulable
    separations = 0
    for inst in (complete_three_agent_instance(), two_class_instance()):
        deviations = audit_agent_truthfulness(inst, MechanismKind.MDFS)
        assert any(d.entity == 0 for d in deviations)
        separations += 1
    _report(7, True, f"300 truthful-family audits clean; "
                     f"{separations} depth-first separations shown")


# criterion 8: efficiency ratio bound and tight witness


def test_criterion_08_poa_bound(small_thousand, larger_hundred):
    for inst in small_thousand + larger_hundred:
        for kind in (MechanismKind.MBFS, MechanismKind.MDFS):
            poa, _ = poa_pos_on_instance(inst, kind, exact=False)
            assert poa <= 2 + 1e-6, (inst, kind, poa)
    witness, _ = poa_pos_on_instance(
        epsilon_gap_instance(1e-3), MechanismKind.MBFS, exact=False)
    ok = witness >= 1.99
    _report(8, ok, f"ratio bounded by 2 on 1100 instances; "
                   f"tight witness {witness:.4f}")
    assert ok


# ---------------------------------------------------------------------------
# experiment-level criteria (shared tables, re-run by the determinism check)


def _criterion_9_configs() -> list[ExperimentConfig]:
    shared = dict(kind="compare-first-agent", p_values=(0.6,),
                  capacity_ranges=((3, 3),), iterations=50, seed=SEED)
    cell_a = ExperimentConfig(**{**shared, "n_values": (40,), "m_values": (30,)})
    cell_b = ExperimentConfig(**{**shared, "n_values": (20,), "m_values": (70,),
                                 "p_values": (0.4,)})
    return [cell_a, cell_b]


def _criterion_10_config() -> ExperimentConfig:
    return ExperimentConfig(
        kind="mpug-curve",
        n_values=(10, 15, 20),
        m_values=(100, 125, 150, 175, 200),
        p_values=(0.2,),
        capacity_ranges=((3, 7),),
        iterations=50,
        thresholds=(1.5, 2.0, 2.5, 3.0),
        seed=SEED,
    )


def _criterion_11_config() -> ExperimentConfig:
    return ExperimentConfig(
        kind="randomized-vs-deterministic",
        n_values=(20,),
        m_values=(25,),
        p_values=(0.2,),
        capacity_ranges=((3, 3),),
        iterations=100,
        orders=(2, 3, 4),
        mc_trials=250,
        seed=SEED,
    )


@pytest.fixture(scope="session")
def table_c9():
    return [run_experiment(cfg) for cfg in _criterion_9_configs()]


@pytest.fixture(scope="session")
def table_c10():
    return run_experiment(_criterion_10_config())


@pytest.fixture(scope="session")
def table_c11():
    return run_experiment(_criterion_11_config())


def _metric(table, name: str) -> float:
    rows = table.metric_rows(name)
    assert len(rows) == 1
    return rows[0].value


@pytest.mark.slow
def test_criterion_09_first_agent_trend(table_c9):
    cell_a, cell_b = table_c9
    bfs_a = _metric(cell_a, "bfs_ratio_mean")
    dfs_a = _metric(cell_a, "dfs_ratio_mean")
    bfs_b = _metric(cell_b, "bfs_ratio_mean")
    ok = bfs_a >= 0.99 and 0.80 <= dfs_a <= 0.92 and bfs_b <= 0.95
    _report(9, ok, f"bfs(m30,n40)={bfs_a:.3f} dfs(m30,n40)={dfs_a:.3f} "
                   f"bfs(m70,n20)={bfs_b:.3f}")
    assert bfs_a >= 0.99
    assert bfs_b <= 0.95
    assert 0.80 <= dfs_a <= 0.92

    # Known red: the depth-first dive order that reproduces the exact
    # worked-example outputs (criterion 1) drives the first agent's mean
    # ratio here to about 0.50, outside the stated band.  See the solver
    # module docstring for the order contract; both cannot hold at once.


@pytest.mark.slow
def test_criterion_10_gain_curve_trend(table_c10):
    series: dict[int, list[tuple[int, float]]] = {}
    for row in table_c10.metric_rows("mpug_mean"):
        series.setdefault(row.n, []).append((row.m, row.value))
    summaries = []
    for n, points in sorted(series.items()):
        points.sort()
        values = [v for _, v in points]
        inversions = [
            max(values[k + 1] - values[k], 0.0) for k in range(len(values) - 1)
        ]
        bad = [x for x in inversions if x > 0]
        assert len(bad) <= 1, (n, values)
        assert all(x <= 0.01 for x in bad), (n, values)
        summaries.append(f"n={n}:" + "/".join(f"{v:.3f}" for v in values))
    _report(10, True, "non-increasing gain curves " + " ".join(summaries))


@pytest.mark.slow
def test_criterion_11_randomized_order_helps(table_c11):
    bfs = _metric(table_c11, "bfs_manipulable_fraction")
    rbfs = _metric(table_c11, "rbfs_manipulable_fraction")
    ok = rbfs <= bfs and rbfs <= 0.05
    _report(11, ok, f"manipulable fraction bfs={bfs:.2f} rbfs={rbfs:.2f}")
    assert rbfs <= bfs
    assert rbfs <= 0.05


@pytest.mark.slow
def test_criterion_12_experiment_determinism(
        tmp_path, table_c9, table_c10, table_c11):
    def csv_bytes(table, name):
        path = tmp_path / name
        export_results(table, "csv", str(path))
        return path.read_bytes()

    firsts = [
        csv_bytes(table_c9[0], "c9a_first.csv"),
        csv_bytes(table_c9[1], "c9b_first.csv"),
        csv_bytes(table_c10, "c10_first.csv"),
        csv_bytes(table_c11, "c11_first.csv"),
    ]
    reruns = [run_experiment(cfg) for cfg in _criterion_9_configs()]
    reruns.append(run_experiment(_criterion_10_config()))
    reruns.append(run_experiment(_criterion_11_config()))
    seconds = [
        csv_bytes(reruns[0], "c9a_second.csv"),
        csv_bytes(reruns[1], "c9b_second.csv"),
        csv_bytes(reruns[2], "c10_second.csv"),
        csv_bytes(reruns[3], "c11_second.csv"),
    ]
    ok = firsts == seconds
    _report(12, ok, "byte-identical CSV outputs across repeated runs")
    assert firsts == seconds


# ---------------------------------------------------------------------------
# criterion 13: the paper's claim (ii), MBFS is more manipulable when the
# total capacity equals the number of tasks


def _criterion_13_config() -> ExperimentConfig:
    # ten agents of capacity 3, so the total capacity is 30; a seed no
    # other measurement of this sweep used
    return ExperimentConfig(
        kind="pma-pmi",
        n_values=(10,),
        m_values=(15, 30, 45),
        p_values=(0.3,),
        capacity_ranges=((3, 3),),
        iterations=100,
        seed=SEED + 13,
    )


def test_criterion_13_manipulability_peaks_at_total_capacity():
    table = run_experiment(_criterion_13_config(), workers=1)
    pma = {row.m: row.value for row in table.metric_rows("pma_mean")}
    ok = pma[30] > pma[15] and pma[30] > pma[45]
    _report(13, ok, "pma_mean " + " ".join(
        f"m{m}={value:.3f}" for m, value in sorted(pma.items())))
    assert pma[30] > pma[15]
    assert pma[30] > pma[45]
