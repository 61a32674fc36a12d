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


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"agents": 5, "tasks": [], "edges": []}, "'agents' must be a list"),
        ({"agents": [{"capacity": 1}], "tasks": [{"value": "inf"}],
          "edges": [[0, 0]]}, "non-finite value of task 0"),
        ({"agents": [{"capacity": 2.7}], "tasks": [{"value": 1.0}],
          "edges": [[0, 0]]}, "non-integral capacity of agent 0"),
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
    "reports, message",
    [
        ([{"edges": [0], "capacity": 1.5}, None], "non-integral reported capacity"),
        ([{"edges": [1.5]}, None], "non-integral reported task id"),
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
