import json

import pytest

from bmatch.harness import (
    ExperimentConfig,
    ResultRow,
    ResultsTable,
    export_results,
    render_plot,
    results_from_json_dict,
    run_experiment,
)


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


def test_worker_count_does_not_change_the_plot(tmp_path):
    cfg = tiny_config("mpug-curve", n_values=(2, 3), m_values=(2, 4))
    s1, s2 = tmp_path / "a.svg", tmp_path / "b.svg"
    render_plot(run_experiment(cfg, workers=1), str(s1))
    render_plot(run_experiment(cfg, workers=2), str(s2))
    assert s1.read_bytes() == s2.read_bytes()


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


def test_plot_rejects_wrong_kind_and_empty_tables(tmp_path):
    wrong = ResultsTable("pma-pmi", 7, {}, ())
    with pytest.raises(ValueError):
        render_plot(wrong, str(tmp_path / "x.svg"))
    empty = ResultsTable("mpug-curve", 7, {}, ())
    with pytest.raises(ValueError):
        render_plot(empty, str(tmp_path / "y.svg"))
