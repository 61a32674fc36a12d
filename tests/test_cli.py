import json

import pytest

from bmatch.cli import main
from bmatch.core import dump_instance
from bmatch.fixtures import tied_optimum_instance


@pytest.fixture()
def instance_path(tmp_path):
    path = tmp_path / "market.json"
    dump_instance(tied_optimum_instance(), str(path))
    return str(path)


def test_solve_prints_matching(instance_path, capsys):
    assert main(["solve", instance_path, "--mech", "bfs"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["weight"] == pytest.approx(1.1)
    assert len(out["pairs"]) == 2


def test_solve_greedy_with_profile(tmp_path, instance_path, capsys):
    profile_path = tmp_path / "profile.json"
    profile_path.write_text(json.dumps({
        "side": "agents",
        "reports": [{"edges": [0]}, None],
    }))
    assert main(["solve", instance_path, "--mech", "ap",
                 "--profile", str(profile_path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pairs"] == [[0, 0], [1, 2]]


def test_solve_randomized_requires_seed(instance_path, capsys):
    assert main(["solve", instance_path, "--mech", "rbfs"]) == 2
    assert main(["solve", instance_path, "--mech", "rbfs", "--seed", "5"]) == 0
    capsys.readouterr()
    assert main(["solve", instance_path, "--mech", "rbfs", "--seed", "-3"]) == 2
    _assert_one_error_line(capsys, "error: --seed must be non-negative, got -3")


def test_gen_writes_batch_and_manifest(tmp_path, capsys):
    out_dir = tmp_path / "batch"
    code = main(["gen", "--n", "3", "--m", "4", "--p", "0.5", "--seed", "11",
                 "--count", "3", "--out", str(out_dir)])
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["seed"] == 11
    assert [f["index"] for f in manifest["files"]] == [0, 1, 2]
    for entry in manifest["files"]:
        assert (out_dir / entry["file"]).exists()


def test_audit_exit_codes(instance_path, capsys):
    # the exact mechanism is manipulable on this market
    assert main(["audit", "agents", instance_path, "--mech", "bfs"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["instances"][0]["violations"]
    # the greedy mechanism is not
    assert main(["audit", "agents", instance_path, "--mech", "ap"]) == 0
    # tasks cannot flip themselves matched either
    assert main(["audit", "tasks", instance_path, "--mech", "bfs",
                 "--setting", "evms"]) == 0


def test_audit_rejects_mismatched_setting(instance_path, capsys):
    assert main(["audit", "agents", instance_path, "--setting", "evms"]) == 2
    assert main(["audit", "tasks", instance_path, "--setting", "ecms"]) == 2


def test_audit_report_file(tmp_path, instance_path, capsys):
    report_path = tmp_path / "report.json"
    main(["audit", "agents", instance_path, "--mech", "bfs",
          "--report", str(report_path)])
    capsys.readouterr()
    data = json.loads(report_path.read_text())
    violation = data["instances"][0]["violations"][0]
    assert {"agent", "report", "truthful_utility", "deviant_utility"} <= set(violation)


def test_experiment_writes_outputs(tmp_path, capsys):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({
        "kind": "mpug-curve",
        "n": [2], "m": [3], "p": [0.8], "capacities": [[1, 2]],
        "iterations": 3, "thresholds": [1.5, 2.5], "seed": 3,
    }))
    out_dir = tmp_path / "results"
    code = main(["experiment", "--config", str(config_path),
                 "--out-dir", str(out_dir), "--workers", "1"])
    assert code == 0
    assert (out_dir / "mpug-curve.csv").exists()
    assert (out_dir / "mpug-curve.json").exists()
    assert (out_dir / "mpug-curve.svg").exists()


def test_first_agent_experiment_without_agents(tmp_path, capsys):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(dict(_CONFIG, n=[0])))
    out_dir = tmp_path / "results"
    code = main(["experiment", "compare-first-agent", "--config", str(config_path),
                 "--out-dir", str(out_dir), "--workers", "1"])
    assert code == 0
    csv = (out_dir / "compare-first-agent.csv").read_text()
    assert ",bfs_ratio_mean,1.000000," in csv


def test_experiment_fast_preset(tmp_path, capsys):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({
        "kind": "pma-pmi",
        "n": [2], "m": [2], "p": [0.5], "capacities": [[1, 1]],
        "iterations": 200, "thresholds": [2.0], "seed": 3,
    }))
    out_dir = tmp_path / "results"
    code = main(["experiment", "--config", str(config_path),
                 "--out-dir", str(out_dir), "--fast", "--workers", "1"])
    assert code == 0
    text = (out_dir / "pma-pmi.csv").read_text()
    assert ",50," in text.splitlines()[1]


def test_fixture_replay_passes(capsys):
    assert main(["fixtures"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "10/10" in out


def test_usage_errors(capsys, instance_path):
    assert main(["no-such-command"]) == 2
    assert main(["solve", "/does/not/exist.json"]) == 2
    assert main(["--help"]) == 0


_ONE_EDGE = {"agents": [{"capacity": 1}], "tasks": [{"value": 1.0}], "edges": [[0, 0]]}


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"agents": 5, "tasks": [], "edges": []}, "'agents' must be a list"),
        ({"agents": [{"capacity": 1}], "tasks": [{"value": "inf"}],
          "edges": [[0, 0]]}, "non-finite value of task 0"),
        ({"agents": [{"capacity": 2.7}], "tasks": [{"value": 1.0}],
          "edges": [[0, 0]]}, "non-integral capacity of agent 0"),
        # each entry of the wrong shape is named, with its index
        (dict(_ONE_EDGE, edges=[[0, 0, 1]]),
         "edge 0 is not an [agent, task] pair: [0, 0, 1]"),
        (dict(_ONE_EDGE, edges=[[0, 0], [0]]),
         "edge 1 is not an [agent, task] pair: [0]"),
        (dict(_ONE_EDGE, edges=[5]), "edge 0 is not an [agent, task] pair: 5"),
        (dict(_ONE_EDGE, agents=[5]),
         "agent 0 is not an object with a 'capacity': 5"),
        (dict(_ONE_EDGE, agents=[{"capacity": 1}, {}]),
         "agent 1 is not an object with a 'capacity': {}"),
        (dict(_ONE_EDGE, tasks=[[1.0]]),
         "task 0 is not an object with a 'value': [1.0]"),
    ],
)
def test_solve_rejects_malformed_instances(tmp_path, capsys, payload, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    assert main(["solve", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and message in lines[0]


@pytest.mark.parametrize(
    "payload, line",
    [
        (dict(_ONE_EDGE, agents=[{"capacity": True}]),
         "error: non-numeric capacity of agent 0: True"),
        (dict(_ONE_EDGE, tasks=[{"value": True}]),
         "error: non-numeric value of task 0: True"),
        (dict(_ONE_EDGE, edges=[[True, 0]]), "error: non-numeric edge agent: True"),
        # parseable but invalid markets, rejected by the Instance constructor
        (dict(_ONE_EDGE, agents=[{"capacity": 0}]),
         "error: non-positive capacity 0 on agent 0"),
        (dict(_ONE_EDGE, tasks=[{"value": -1}]),
         "error: negative or NaN value -1.0 on task 0"),
        (dict(_ONE_EDGE, edges=[[0, 7]]),
         "error: out-of-range task id 7 in edge (0, 7)"),
        # integers too large for a float
        (dict(_ONE_EDGE, agents=[{"capacity": 10**400}]),
         "error: capacity of agent 0 too large for a float"),
        (dict(_ONE_EDGE, tasks=[{"value": 10**400}]),
         "error: value of task 0 too large for a float"),
        # JSON nested deeper than the parser goes
        ("[" * 100_000 + "]" * 100_000, "error: JSON nested too deeply to read"),
    ],
)
def test_solve_and_audit_reject_invalid_instances(tmp_path, capsys, payload, line):
    path = tmp_path / "bad.json"
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    # audit names the file, since it takes many
    audit_line = line.replace("error: ", f"error: {path}: ", 1)
    for command, expected in ((["solve", str(path)], line),
                              (["audit", "agents", str(path)], audit_line)):
        assert main(command) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [expected]


@pytest.mark.parametrize(
    "reports, message",
    [
        ([{"edges": [0], "capacity": 1.5}, None], "non-integral reported capacity"),
        ([{"edges": [1.5]}, None], "non-integral reported task id"),
        ([{"edges": [0], "capacity": True}, None], "non-numeric reported capacity: True"),
    ],
)
def test_solve_rejects_non_integral_agent_reports(tmp_path, instance_path,
                                                  capsys, reports, message):
    profile_path = tmp_path / "profile.json"
    profile_path.write_text(json.dumps({"side": "agents", "reports": reports}))
    assert main(["solve", instance_path, "--profile", str(profile_path)]) == 2
    assert message in capsys.readouterr().err


def _task_value_profile(value):
    return {"side": "tasks", "reports": [{"edges": [0], "value": value}, None, None]}


@pytest.mark.parametrize(
    "payload, message",
    [
        (_task_value_profile("abc"), "non-numeric reported value: 'abc'"),
        (_task_value_profile("inf"), "non-finite reported value: 'inf'"),
        (_task_value_profile([0.5]), "non-numeric reported value: [0.5]"),
        ({"side": "tasks", "reports": 5}, "not a profile"),
        ({"side": "agents", "reports": [5, None]},
         "report 0 is not an object with an 'edges' list"),
        ({"side": "agents", "reports": [None, {"capacity": 1}]},
         "report 1 is not an object with an 'edges' list"),
        # reports are bounded by the truth: the reported market is patched
        # from the true one without the instance checks
        ({"side": "agents", "reports": [{"edges": [0, 2]}, None]},
         "agent 0 reports non-existing edges to tasks [2]"),
        ({"side": "agents", "reports": [{"edges": [0], "capacity": 2}, None]},
         "agent 0 reports capacity 2 outside [1, 1]"),
        (_task_value_profile(2.0), "task 0 reports value 2.0 outside (0, 1.0]"),
    ],
)
def test_solve_rejects_malformed_profiles(tmp_path, instance_path, capsys,
                                          payload, message):
    profile_path = tmp_path / "profile.json"
    profile_path.write_text(json.dumps(payload))
    assert main(["solve", instance_path, "--profile", str(profile_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and message in lines[0]


def test_solve_parses_numeric_string_report_values(tmp_path, instance_path,
                                                   capsys):
    # a numeric string reads like the number, as task values in instance
    # files do; task 0 (value 1.0) keeps only agent 0 and goes to it
    outputs = []
    for value in ("0.5", 0.5):
        profile_path = tmp_path / "profile.json"
        profile_path.write_text(json.dumps(_task_value_profile(value)))
        assert main(["solve", instance_path, "--profile", str(profile_path)]) == 0
        outputs.append(json.loads(capsys.readouterr().out))
    assert outputs[0] == outputs[1]
    assert [0, 0] in outputs[0]["pairs"]


_CONFIG = {"kind": "mpug-curve", "n": [2], "m": [3], "p": [0.8],
           "capacities": [[1, 2]], "iterations": 2, "seed": 3}


def _assert_one_error_line(capsys, message):
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and message in lines[0]


@pytest.mark.parametrize(
    "payload, message",
    [
        (dict(_CONFIG, n=[2.7]), "non-integral n: 2.7"),
        (dict(_CONFIG, m=["x"]), "non-numeric m: 'x'"),
        (dict(_CONFIG, iterations=2.9), "non-integral iterations: 2.9"),
        (dict(_CONFIG, capacities=[[1, 2.5]]), "non-integral capacity high: 2.5"),
        (dict(_CONFIG, orders=[2.5]), "non-integral order: 2.5"),
        (dict(_CONFIG, mc_trials=1.5), "non-integral mc_trials: 1.5"),
        (dict(_CONFIG, seed=0.5), "non-integral seed: 0.5"),
        (dict(_CONFIG, p=["inf"]), "non-finite p: 'inf'"),
        (dict(_CONFIG, thresholds=["nan"]), "non-finite threshold: 'nan'"),
        (dict(_CONFIG, mc_trials=0), "mc_trials must be at least 1"),
        ([_CONFIG], "not an experiment config: expected a JSON object"),
        (dict(_CONFIG, out_csv=2), "out_csv must be a path string, got 2"),
        (dict(_CONFIG, n=[True]), "non-numeric n: True"),
        (dict(_CONFIG, p=[True]), "non-numeric p: True"),
        # a string is not read one character at a time
        (dict(_CONFIG, n="12"), "n must be a list, got '12'"),
        (dict(_CONFIG, m=3), "m must be a list, got 3"),
        (dict(_CONFIG, p=0.8), "p must be a list, got 0.8"),
        (dict(_CONFIG, thresholds="25"), "thresholds must be a list, got '25'"),
        (dict(_CONFIG, orders="23"), "orders must be a list, got '23'"),
        (dict(_CONFIG, capacities="12"), "capacities must be a list, got '12'"),
        (dict(_CONFIG, capacities=["13"]),
         "capacities entries must be [low, high] lists, got '13'"),
        (dict(_CONFIG, capacities=[5]),
         "capacities entries must be [low, high] lists, got 5"),
        (dict(_CONFIG, capacities=[[1, 2, 3]]),
         "capacities entries must be [low, high] lists, got [1, 2, 3]"),
        # rejected up front: numpy and KOrder would fail later, unnamed
        (dict(_CONFIG, seed=-5), "seed must be non-negative, got -5"),
        (dict(_CONFIG, orders=[2, -1]), "orders must be non-negative, got [2, -1]"),
        # the generator's checks run for every cell before any cell runs
        (dict(_CONFIG, n=[2, -1]), "n and m must be non-negative"),
        (dict(_CONFIG, m=[-3]), "n and m must be non-negative"),
        (dict(_CONFIG, p=[0.8, 1.5]), "connection probability must be in [0, 1]"),
        (dict(_CONFIG, capacities=[[1, 2], [0, 2]]),
         "capacity bounds must satisfy 1 <= low <= high"),
        (dict(_CONFIG, capacities=[[3, 2]]),
         "capacity bounds must satisfy 1 <= low <= high"),
        # trial keys are one 32-bit word; checked before any cell runs
        (dict(_CONFIG, mc_trials=2**32 + 1),
         "mc_trials must be at most 2**32, got 4294967297"),
    ],
)
def test_experiment_rejects_malformed_configs(tmp_path, capsys, payload, message):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(payload))
    out_dir = tmp_path / "results"
    for kind in ([], ["mpug-curve"]):
        code = main(["experiment", *kind, "--config", str(config_path),
                     "--out-dir", str(out_dir), "--workers", "1"])
        assert code == 2
        _assert_one_error_line(capsys, message)
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--count", "-2"], "error: --count must be non-negative, got -2"),
        (["--seed", "-1"], "error: seed must be non-negative, got -1"),
    ],
)
def test_gen_rejects_negative_count_and_seed(tmp_path, capsys, flags, message):
    out_dir = tmp_path / "batch"
    code = main(["gen", "--n", "2", "--m", "3", "--p", "0.5", *flags,
                 "--out", str(out_dir)])
    assert code == 2
    _assert_one_error_line(capsys, message)
    assert not out_dir.exists()


def test_gen_rejects_non_finite_value_parameters(tmp_path, capsys):
    # a non-finite mean or spread would write ``Infinity`` or ``NaN``
    out_dir = tmp_path / "batch"
    for flag, value in (("--value-sigma", "inf"), ("--value-mean", "-inf"),
                        ("--value-mean", "nan")):
        code = main(["gen", "--n", "2", "--m", "3", "--p", "0.5", f"{flag}={value}",
                     "--out", str(out_dir)])
        assert code == 2
        _assert_one_error_line(capsys, "error: value mean and spread must be finite")
    assert not out_dir.exists()


def test_deeply_nested_profile_and_config_are_input_errors(tmp_path, instance_path,
                                                           capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    out_dir = tmp_path / "results"
    for command in (["solve", instance_path, "--profile", str(deep)],
                    ["experiment", "--config", str(deep), "--out-dir", str(out_dir)]):
        assert main(command) == 2
        _assert_one_error_line(capsys, "error: JSON nested too deeply to read")
    assert not out_dir.exists()


def test_experiment_with_a_bad_cell_writes_no_csv(tmp_path, capsys):
    out_csv = tmp_path / "named.csv"
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(dict(_CONFIG, n=[2, -1], out_csv=str(out_csv))))
    code = main(["experiment", "--config", str(config_path),
                 "--out-dir", str(tmp_path / "results"), "--workers", "1"])
    assert code == 2
    _assert_one_error_line(capsys, "n and m must be non-negative")
    assert not out_csv.exists()


def test_experiment_rejects_empty_orders(tmp_path, capsys):
    # no order would be probed, and both manipulable fractions read 0
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(
        dict(_CONFIG, kind="randomized-vs-deterministic", orders=[])))
    out_dir = tmp_path / "results"
    code = main(["experiment", "--config", str(config_path),
                 "--out-dir", str(out_dir), "--workers", "1"])
    assert code == 2
    _assert_one_error_line(capsys, "orders must be non-empty")
    assert not out_dir.exists()


def test_experiment_rejects_non_integer_worker_variable(tmp_path, capsys,
                                                         monkeypatch):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(_CONFIG))
    monkeypatch.setenv("BMATCH_WORKERS", "abc")
    code = main(["experiment", "--config", str(config_path),
                 "--out-dir", str(tmp_path / "results")])
    assert code == 2
    _assert_one_error_line(capsys, "BMATCH_WORKERS")


@pytest.mark.parametrize("flags, env, message", [
    (["--workers", "-3"], None, "workers must be at least 1, got -3"),
    (["--workers", "0"], None, "workers must be at least 1, got 0"),
    ([], "0", "BMATCH_WORKERS must be at least 1, got 0"),
])
def test_experiment_rejects_worker_counts_below_one(tmp_path, capsys, monkeypatch,
                                                    flags, env, message):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(_CONFIG))
    if env is not None:
        monkeypatch.setenv("BMATCH_WORKERS", env)
    out_dir = tmp_path / "results"
    code = main(["experiment", "--config", str(config_path),
                 "--out-dir", str(out_dir), *flags])
    assert code == 2
    _assert_one_error_line(capsys, message)
    assert not out_dir.exists()
