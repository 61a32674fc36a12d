import json
import math
import os
import signal
import subprocess
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

import pytest

from bmatch import harness, mechanisms
from bmatch.harness import (
    EXPERIMENT_KINDS,
    ExperimentConfig,
    ResultRow,
    ResultsTable,
    export_results,
    render_plot,
    results_from_json_dict,
    run_experiment,
)
from bmatch.gen import generate_instance
from bmatch.strategies import KOrder, _family_reports
from test_reference_experiments import _reference_csv


def tiny_config(kind: str, **overrides) -> ExperimentConfig:
    base = dict(
        kind=kind,
        n_values=(3,),
        m_values=(4,),
        p_values=(0.6,),
        capacity_ranges=((1, 2),),
        iterations=5,
        thresholds=(1.5, 2.5),
        orders=(1, 2),
        mc_trials=20,
        seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_config("nonsense")
    with pytest.raises(ValueError):
        tiny_config("mpug-curve", n_values=())
    with pytest.raises(ValueError):
        tiny_config("pma-pmi", iterations=0)


def test_config_checks_every_cell_up_front(monkeypatch):
    # a config with one bad cell fails when it is built, so no job runs
    def no_job(job):
        raise AssertionError("a job ran")

    monkeypatch.setattr(harness, "_run_instance", no_job)
    for overrides in (dict(n_values=(3, -1)), dict(m_values=(-4,)),
                      dict(p_values=(0.6, 1.5)), dict(p_values=(-0.1,)),
                      dict(capacity_ranges=((1, 2), (0, 2))),
                      dict(capacity_ranges=((3, 2),))):
        with pytest.raises(ValueError):
            run_experiment(tiny_config("pma-pmi", **overrides), workers=1)


def test_config_json_round_trip():
    cfg = tiny_config("pma-pmi")
    assert ExperimentConfig.from_json_dict(cfg.to_json_dict()) == cfg


def test_compare_first_agent_metrics_present():
    table = run_experiment(tiny_config("compare-first-agent"), workers=1)
    metrics = {r.metric for r in table.rows}
    assert {"bfs_ratio_mean", "dfs_ratio_mean", "bfs_loss_max",
            "dfs_loss_min", "bfs_ratio_min", "dfs_ratio_max"} <= metrics
    for row in table.rows:
        if row.metric.endswith("ratio_mean"):
            assert 0.0 <= row.value <= 1.0
            assert row.stderr is not None


def test_compare_first_agent_without_agents():
    # a market without agents has no first agent to manipulate: every
    # ratio is 1 and every loss 0
    table = run_experiment(tiny_config("compare-first-agent", n_values=(0,)), workers=1)
    for row in table.rows:
        expected = 0.0 if "loss" in row.metric else 1.0
        assert row.value == expected, row.metric


def test_fixed_instance_cell_reproduces_the_direct_ratio():
    # a single-cell grid on a deterministic 2x2 shape: the mean ratio must
    # equal the ratio computed by hand on each generated market
    from bmatch.gen import generate_instance
    from bmatch.harness import _cell_gen_config, _first_agent_ratio
    from bmatch.mechanisms import MechanismKind

    cfg = tiny_config("compare-first-agent", n_values=(2,), m_values=(2,),
                      p_values=(1.0,), iterations=3)
    table = run_experiment(cfg, workers=1)
    gen_cfg = _cell_gen_config(cfg, 0, cfg.cells()[0])
    expected = [
        _first_agent_ratio(generate_instance(gen_cfg, i), MechanismKind.MBFS)
        for i in range(3)
    ]
    row = [r for r in table.rows if r.metric == "bfs_ratio_mean"][0]
    assert row.value == pytest.approx(sum(expected) / 3)


def test_first_agent_ratio_on_a_fixed_tight_market():
    from bmatch.fixtures import epsilon_gap_instance
    from bmatch.harness import _first_agent_ratio
    from bmatch.mechanisms import MechanismKind

    eps = 0.5
    ratio = _first_agent_ratio(epsilon_gap_instance(eps), MechanismKind.MBFS)
    assert ratio == pytest.approx(1.0 / (1.0 + eps))


def test_pma_pmi_zero_probability_grid_is_all_zero():
    table = run_experiment(
        tiny_config("pma-pmi", p_values=(0.0,)), workers=1)
    for row in table.rows:
        assert row.value == 0.0


def test_mpug_curve_rows():
    table = run_experiment(tiny_config("mpug-curve"), workers=1)
    rows = table.metric_rows("mpug_mean")
    assert len(rows) == 1
    assert rows[0].iterations == 5


def test_randomized_cell_fractions_are_probabilities():
    table = run_experiment(
        tiny_config("randomized-vs-deterministic", iterations=4, mc_trials=10),
        workers=1)
    metrics = {r.metric: r.value for r in table.rows}
    assert 0.0 <= metrics["bfs_manipulable_fraction"] <= 1.0
    assert 0.0 <= metrics["rbfs_manipulable_fraction"] <= 1.0


def test_randomized_cell_with_one_trial_is_pinned(tmp_path):
    # one Monte Carlo trial has no standard error: the lottery test then
    # compares plain means against a zero guard
    table = run_experiment(
        tiny_config("randomized-vs-deterministic", iterations=8, mc_trials=1),
        workers=1)
    path = tmp_path / "one-trial.csv"
    export_results(table, "csv", str(path))
    assert path.read_text().splitlines()[1:] == [
        "3,4,0.6,1,2,8,bfs_manipulable_fraction,0.875000,0.125000,7",
        "3,4,0.6,1,2,8,rbfs_manipulable_fraction,0.625000,0.182981,7",
    ]


def test_csv_export_shape_and_formatting(tmp_path):
    row = ResultRow(3, 4, 0.6, 1, 2, 5, "pma_mean", 0.83, None)
    table = ResultsTable("pma-pmi", 7, {}, (row,))
    path = tmp_path / "out.csv"
    export_results(table, "csv", str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == "n,m,p,b_low,b_high,iterations,metric,value,stderr,seed"
    assert lines[1] == "3,4,0.6,1,2,5,pma_mean,0.830000,,7"


def test_json_export_round_trips(tmp_path):
    table = run_experiment(tiny_config("pma-pmi"), workers=1)
    path = tmp_path / "out.json"
    export_results(table, "json", str(path))
    restored = results_from_json_dict(json.loads(path.read_text()))
    assert restored == table


def test_an_infinite_gain_exports_standard_json(tmp_path):
    # instance 150 has an agent that gains from a truthful utility of 0,
    # so its gain ratio, and the cell's mean, is infinite
    cfg = tiny_config("mpug-curve", n_values=(2,), m_values=(3,),
                      p_values=(0.8,), thresholds=(1.5, 2.0, 2.5, 3.0),
                      iterations=151, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        table = run_experiment(cfg, workers=1)
    (row,) = table.rows
    assert row.value == math.inf and row.stderr is None
    csv_path, json_path = tmp_path / "out.csv", tmp_path / "out.json"
    export_results(table, "csv", str(csv_path))
    assert csv_path.read_text().splitlines()[1] == "2,3,0.8,1,2,151,mpug_mean,inf,,0"
    export_results(table, "json", str(json_path))

    def no_constant(name):
        raise ValueError(f"non-standard JSON constant {name}")

    data = json.loads(json_path.read_text(), parse_constant=no_constant)
    assert data["rows"][0]["value"] == "inf"
    assert results_from_json_dict(data) == table
    svg_path = tmp_path / "out.svg"
    render_plot(table, str(svg_path))
    assert "nan" not in svg_path.read_text() and ">inf</text>" in svg_path.read_text()


def test_export_rejects_unknown_format(tmp_path):
    table = ResultsTable("pma-pmi", 7, {}, ())
    with pytest.raises(ValueError):
        export_results(table, "xml", str(tmp_path / "out.xml"))


def test_single_iteration_reports_no_stderr(tmp_path):
    table = run_experiment(tiny_config("mpug-curve", iterations=1), workers=1)
    row = table.metric_rows("mpug_mean")[0]
    assert row.stderr is None
    path = tmp_path / "one.csv"
    export_results(table, "csv", str(path))
    assert path.read_text().splitlines()[1].split(",")[8] == ""


def test_worker_count_does_not_change_the_bytes(tmp_path):
    cfg = tiny_config("compare-first-agent", n_values=(2, 3), m_values=(2, 3))
    serial = run_experiment(cfg, workers=1)
    parallel = run_experiment(cfg, workers=2)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    export_results(serial, "csv", str(p1))
    export_results(parallel, "csv", str(p2))
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_chunked_cell_gives_the_same_bytes_at_every_worker_count(kind, fresh_pool,
                                                                 monkeypatch, tmp_path):
    # one cell of seven instances, handed out one at a time at two and at
    # three workers; the bytes pin each cell's samples to instance order
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    cfg = tiny_config(kind, iterations=7, mc_trials=8)
    outputs = []
    for workers in (1, 2, 3):
        path = tmp_path / f"w{workers}.csv"
        export_results(run_experiment(cfg, workers=workers), "csv", str(path))
        outputs.append(path.read_bytes())
        if workers > 1:
            assert harness._pool[1] == workers
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_worker_count_does_not_change_the_plot(tmp_path):
    cfg = tiny_config("mpug-curve", n_values=(2, 3), m_values=(2, 4))
    s1, s2 = tmp_path / "a.svg", tmp_path / "b.svg"
    render_plot(run_experiment(cfg, workers=1), str(s1))
    render_plot(run_experiment(cfg, workers=2), str(s2))
    assert s1.read_bytes() == s2.read_bytes()


@pytest.fixture
def fresh_pool():
    """No pool cached before or after the test."""
    harness._drop_pool()
    yield
    harness._drop_pool()


def _csv(table, path) -> bytes:
    export_results(table, "csv", str(path))
    return path.read_bytes()


def test_reused_and_replaced_pools_give_the_serial_bytes(fresh_pool, monkeypatch,
                                                        tmp_path):
    # one cell of seven instances: seven jobs at two and at three workers;
    # three CPUs, so that three workers is a new count on a smaller host
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    cfg = tiny_config("pma-pmi", iterations=7)
    serial = _csv(run_experiment(cfg, workers=1), tmp_path / "serial.csv")
    assert harness._pool is None
    pools = []
    for workers in (2, 2, 3, 2):
        path = tmp_path / f"w{workers}.csv"
        assert _csv(run_experiment(cfg, workers=workers), path) == serial
        pid, count, pool = harness._pool
        assert (pid, count) == (os.getpid(), workers)
        pools.append(pool)
    assert pools[1] is pools[0]
    assert pools[2] is not pools[1] and pools[3] is not pools[2]


def test_a_killed_worker_is_replaced_by_a_fresh_pool(fresh_pool, tmp_path):
    cfg = tiny_config("mpug-curve", iterations=7)
    serial = _csv(run_experiment(cfg, workers=1), tmp_path / "serial.csv")
    run_experiment(cfg, workers=2)
    broken = harness._pool[2]
    victim = next(iter(broken._processes))
    os.kill(victim, signal.SIGKILL)
    # the pool manager marks the pool broken once it sees the worker's
    # sentinel, which a survivor finishing every job could outrun: wait
    # for the mark, so that the rerun meets a broken pool
    deadline = time.monotonic() + 30
    while not broken._broken and time.monotonic() < deadline:
        time.sleep(0.01)
    assert broken._broken
    assert _csv(run_experiment(cfg, workers=2), tmp_path / "after.csv") == serial
    assert harness._pool[2] is not broken


def test_a_pool_that_cannot_start_runs_serially(fresh_pool, monkeypatch, tmp_path):
    def no_pool(*args, **kwargs):
        raise OSError("no semaphores")

    monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
    cfg = tiny_config("compare-first-agent", iterations=7)
    serial = _csv(run_experiment(cfg, workers=1), tmp_path / "serial.csv")
    assert _csv(run_experiment(cfg, workers=2), tmp_path / "w2.csv") == serial
    assert harness._pool is None


@pytest.mark.parametrize("cpus", [1, 2, 3, 8, None])
def test_the_pool_never_outgrows_the_cpus(fresh_pool, monkeypatch, tmp_path,
                                          cpus):
    sizes = []

    class CountingPool:
        """A stand-in executor: records the size asked for, starts nothing."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def map(self, fn, jobs):
            return map(fn, jobs)

        def shutdown(self):
            pass

    monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    cfg = tiny_config("pma-pmi", iterations=7)
    serial = _csv(run_experiment(cfg, workers=1), tmp_path / "serial.csv")
    monkeypatch.setenv(harness.WORKERS_ENV_VAR, "100000")
    for workers in (100000, None):
        path = tmp_path / f"{workers}.csv"
        assert _csv(run_experiment(cfg, workers=workers), path) == serial
    # seven jobs; one CPU, or an unknown count, runs in this process
    size = min(cpus or 1, 7)
    assert sizes == ([size] if size > 1 else [])


_POOL_SCRIPT = """
from bmatch import harness
cfg = harness.ExperimentConfig(
    kind="pma-pmi", n_values=(3,), m_values=(4,), p_values=(0.6,),
    capacity_ranges=((1, 2),), iterations=7, seed=7)
harness.run_experiment(cfg, workers=2)
print(*harness._pool[2]._processes)
"""


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_the_pool_workers_end_with_the_process():
    src = Path(harness.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", _POOL_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    pids = [int(pid) for pid in done.stdout.split()]
    assert len(pids) == 2
    assert not any(_alive(pid) for pid in pids)


def _mpug_table(points_by_n: dict[int, list[tuple[int, float]]]) -> ResultsTable:
    rows = tuple(
        ResultRow(n, m, 0.2, 3, 7, 50, "mpug_mean", v, 0.01)
        for n, pts in points_by_n.items()
        for m, v in pts
    )
    return ResultsTable("mpug-curve", 7, {}, rows)


def test_plot_emits_one_polyline_per_series(tmp_path):
    table = _mpug_table({10: [(100, 0.5), (150, 0.2)]})
    path = tmp_path / "curve.svg"
    render_plot(table, str(path))
    text = path.read_text()
    assert text.count("<polyline") == 1
    points = text.split('points="')[1].split('"')[0].split()
    assert len(points) == 2


def test_plot_preserves_monotone_order(tmp_path):
    table = _mpug_table({10: [(100, 0.5), (150, 0.3), (200, 0.1)]})
    path = tmp_path / "curve.svg"
    render_plot(table, str(path))
    points = path.read_text().split('points="')[1].split('"')[0].split()
    ys = [float(p.split(",")[1]) for p in points]
    # decreasing data maps to increasing pixel y (origin is top-left)
    assert ys == sorted(ys)


def test_plot_is_byte_deterministic(tmp_path):
    table = _mpug_table({10: [(100, 0.5), (150, 0.2)], 20: [(100, 0.9), (150, 0.4)]})
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    render_plot(table, str(p1))
    render_plot(table, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_plot_scales_over_finite_means_and_marks_infinite_ones(tmp_path):
    finite = _mpug_table({10: [(100, 0.5), (200, 0.25)], 20: [(150, 0.2)]})
    mixed = _mpug_table({10: [(100, 0.5), (150, math.inf), (200, 0.25)],
                         20: [(150, 0.2)]})
    render_plot(finite, str(tmp_path / "finite.svg"))
    render_plot(mixed, str(tmp_path / "mixed.svg"))
    finite_text = (tmp_path / "finite.svg").read_text()
    text = (tmp_path / "mixed.svg").read_text()
    assert "nan" not in text and "inf" not in finite_text
    # the axis and the finite points are those of the finite means alone
    assert '<text x="62.0" y="34.0" font-size="11" text-anchor="end">0.500</text>' in text
    added = [line for line in text.splitlines() if line not in finite_text.splitlines()]
    assert added == [
        '<polyline points="70.00,30.00 280.00,30.00 490.00,207.50" fill="none" '
        'stroke="#1f77b4" stroke-width="1.5"/>',
        '<polygon points="276.00,33.00 284.00,33.00 280.00,26.00" fill="#1f77b4"/>',
        '<text x="280.0" y="22.0" font-size="11" text-anchor="middle" '
        'fill="#1f77b4">inf</text>',
    ]
    for value in (-math.inf, math.nan):
        with pytest.raises(ValueError):
            render_plot(_mpug_table({10: [(100, value)]}), str(tmp_path / "x.svg"))


def test_plot_rejects_wrong_kind_and_empty_tables(tmp_path):
    wrong = ResultsTable("pma-pmi", 7, {}, ())
    with pytest.raises(ValueError):
        render_plot(wrong, str(tmp_path / "x.svg"))
    empty = ResultsTable("mpug-curve", 7, {}, ())
    with pytest.raises(ValueError):
        render_plot(empty, str(tmp_path / "y.svg"))


def test_lottery_verdicts_do_not_depend_on_the_pass_size(monkeypatch):
    # c11's shape at 50 trials, 45 probes a pass by default, so a
    # non-manipulable instance's 50 or so probes span two passes; seed
    # 52's instance 8 is manipulable under the lottery
    cfg = ExperimentConfig(
        kind="randomized-vs-deterministic", n_values=(20,), m_values=(25,),
        p_values=(0.2,), capacity_ranges=((3, 3),), iterations=9,
        orders=(2, 3, 4), mc_trials=50, seed=52)
    gen = harness._cell_gen_config(cfg, 0, cfg.cells()[0])
    specs = [KOrder(k) for k in cfg.orders]
    markets = [generate_instance(gen, i) for i in range(cfg.iterations)]
    verdicts = []
    # one probe a pass, the default, and every probe in one pass
    for rows in (1, harness._PASS_ROWS, 10**9):
        monkeypatch.setattr(harness, "_PASS_ROWS", rows)
        verdicts.append([harness._lottery_manipulable(cfg, 0, i, inst, specs)
                         for i, inst in enumerate(markets)])
    assert verdicts[0] == verdicts[1] == verdicts[2]
    assert verdicts[0] == [False] * 8 + [True]


def _lottery_config(seed, n, m, trials, **overrides) -> ExperimentConfig:
    base = dict(kind="randomized-vs-deterministic", n_values=(n,),
                m_values=(m,), p_values=(0.5,), capacity_ranges=((1, 2),),
                iterations=1, orders=(1, 2), mc_trials=trials, seed=seed)
    return ExperimentConfig(**{**base, **overrides})


def _instance(cfg):
    return generate_instance(harness._cell_gen_config(cfg, 0, cfg.cells()[0]), 0)


# One-instance lottery configs as (seed, n, m, trials): at two workers
# each is cut into two shares.  Seeds 21 and 17 have one manipulable
# probe (of 8 and of 6), in the second share, and no deterministic gain;
# seed 2's gains lie in the first share, seed 0's in both and seed 1 has
# none.
_SHARED_LOTTERIES = [(21, 5, 8, 250), (17, 4, 6, 3), (2, 4, 6, 60),
                     (0, 6, 10, 12), (1, 5, 8, 250)]


@pytest.mark.parametrize("seed, n, m, trials", _SHARED_LOTTERIES)
def test_lottery_shares_give_the_serial_table(seed, n, m, trials, fresh_pool,
                                              monkeypatch, tmp_path):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    cfg = _lottery_config(seed, n, m, trials)
    if seed in (21, 17):
        shares = [harness._randomized_sample(cfg, 0, 0, _instance(cfg), s, 2)
                  for s in range(2)]
        assert shares == [(0.0, 0.0), (0.0, 1.0)]
    expected = _reference_csv(cfg)
    assert _csv(run_experiment(cfg, workers=1), tmp_path / "one.csv") == expected
    assert _csv(run_experiment(cfg, workers=2), tmp_path / "two.csv") == expected
    assert harness._pool[:2] == (os.getpid(), 2)


def test_a_lottery_job_does_the_serial_work(fresh_pool, monkeypatch, tmp_path):
    # c11's shape and seed: instance 0 has 40 probes, 9 a pass at 250
    # trials, and no manipulable one, so no share stops early
    cfg = _lottery_config(20240811, 20, 25, 250, p_values=(0.2,),
                          capacity_ranges=((3, 3),), orders=(2, 3, 4))
    inst = _instance(cfg)
    specs = [KOrder(k) for k in cfg.orders]
    probes = sum(1 for a in range(inst.n) if inst.agent_adj[a]
                 for _ in _family_reports(inst, a, specs))
    step = harness._PASS_ROWS // cfg.mc_trials
    assert (probes, step) == (40, 9)
    calls, jobs = Counter(), []
    sampler, run_instance = mechanisms._lottery_samples, harness._run_instance

    def counting_sampler(*args):
        calls["sampler"] += 1
        return sampler(*args)

    def counting_job(job):
        jobs.append(job)
        return run_instance(job)

    class InProcessPool:
        """A stand-in executor that runs the jobs in this process."""

        def __init__(self, max_workers):
            pass

        def map(self, fn, jobs):
            return map(fn, jobs)

        def shutdown(self):
            pass

    # the truth goes through mechanisms' name, the passes through harness'
    monkeypatch.setattr(mechanisms, "_lottery_samples", counting_sampler)
    monkeypatch.setattr(harness, "_lottery_samples", counting_sampler)
    monkeypatch.setattr(harness, "_run_instance", counting_job)
    monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    serial = _csv(run_experiment(cfg, workers=1), tmp_path / "one.csv")
    # one job: the truth and ceil(40 / 9) passes, as in one process before
    assert len(jobs) == 1 and calls["sampler"] == 1 + math.ceil(probes / step)
    jobs.clear()
    calls.clear()
    assert _csv(run_experiment(cfg, workers=2), tmp_path / "two.csv") == serial
    # two shares of 20 probes, each with its own truth and 3 passes
    assert [job[4:] for job in jobs] == [(0, 2), (1, 2)]
    assert calls["sampler"] == 2 * (1 + 3)
