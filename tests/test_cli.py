import json
import subprocess
import sys
from pathlib import Path

import pytest

from fedspectrum.cli import _parse_seeds, main

FAST_SCENARIO = {
    "seed": 3,
    "area_size_m": 300.0,
    "n_sensors": 3,
    "n_primary_users": 1,
    "schedule": {
        "n_training_slots": 40,
        "n_eval_slots": 20,
        "local_train_period_slots": 20,
        "federation_period_slots": 20,
        "window_samples": 8,
    },
}


@pytest.fixture
def scenario_path(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(FAST_SCENARIO), encoding="utf-8")
    return str(path)


def test_parse_seeds():
    assert _parse_seeds("1,2,3") == [1, 2, 3]
    assert _parse_seeds("7") == [7]
    assert _parse_seeds(" 4 , 5 ") == [4, 5]
    import argparse

    with pytest.raises(argparse.ArgumentTypeError):
        _parse_seeds("a,b")
    with pytest.raises(argparse.ArgumentTypeError):
        _parse_seeds(",")
    assert _parse_seeds("0,18446744073709551615") == [0, 2**64 - 1]


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
def test_compare_rejects_seeds_outside_64_bits(seed, scenario_path, tmp_path, capsys):
    # these used to wrap onto 2**64 - 1 and 0 and exit 0
    out = tmp_path / "out"
    argv = ["compare", "--scenario", scenario_path, "--out-dir", str(out), "--seeds", seed]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "seeds" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "generate"])
@pytest.mark.parametrize("seed", ["-1", "18446744073709551616", "x"])
def test_seed_option_rejects_what_seeds_rejects(command, seed, scenario_path, tmp_path, capsys):
    # one parser for --seed and --seeds: a usage error before any work
    out = tmp_path / "out"
    argv = [command, "--scenario", scenario_path, "--out-dir", str(out), "--seed", seed]
    if command == "run":
        argv += ["--topology", "isolated"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "argument --seed: seed " in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_diverging_run_names_the_node(tmp_path, capsys):
    scenario = json.loads(Path("scenarios/default.json").read_text(encoding="utf-8"))
    scenario["training"]["learning_rate"] = 1.7e308
    path = tmp_path / "diverge.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    argv = ["run", "--scenario", str(path), "--out-dir", str(tmp_path / "out"),
            "--topology", "gossip", "--training-slots", "200", "--eval-slots", "10"]
    assert main(argv) == 1
    # the named error is the whole report: no numpy overflow warnings before it
    err = capsys.readouterr().err
    assert err.startswith("fedspectrum: error: node 0: ") and err.count("\n") == 1


def test_run_writes_metrics_and_summary(tmp_path, scenario_path, capsys):
    out = tmp_path / "out"
    code = main(
        ["run", "--scenario", scenario_path, "--out-dir", str(out), "--topology", "central"]
    )
    assert code == 0
    lines = (out / "metrics.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("run_id,topology,seed,node_id")
    assert len(lines) == 1 + 3 + 1
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["topology"] == "central"
    assert summary["seed"] == 3
    assert summary["federation_rounds"] == 2
    assert summary["traffic"]["total_bytes"] == 2 * 2 * 3 * 48
    assert summary["global"]["tp"] + summary["global"]["fp"] + summary["global"][
        "tn"
    ] + summary["global"]["fn"] == 60
    assert "wall" in capsys.readouterr().out


def test_run_seed_and_slot_overrides(tmp_path, scenario_path):
    out = tmp_path / "out"
    code = main(
        [
            "run",
            "--scenario", scenario_path,
            "--out-dir", str(out),
            "--topology", "isolated",
            "--seed", "11",
            "--training-slots", "20",
            "--eval-slots", "10",
        ]
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["seed"] == 11
    total = sum(summary["global"][k] for k in ("tp", "fp", "tn", "fn"))
    assert total == 3 * 10


def test_run_refuses_overwrite_without_force(tmp_path, scenario_path, capsys):
    out = tmp_path / "out"
    args = ["run", "--scenario", scenario_path, "--out-dir", str(out), "--topology", "isolated"]
    assert main(args) == 0
    assert main(args) == 1
    assert "--force" in capsys.readouterr().err
    assert main(args + ["--force"]) == 0


def test_run_export_models(tmp_path, scenario_path):
    out = tmp_path / "out"
    code = main(
        [
            "run",
            "--scenario", scenario_path,
            "--out-dir", str(out),
            "--topology", "gossip",
            "--export-models",
        ]
    )
    assert code == 0
    models = json.loads((out / "models.json").read_text(encoding="utf-8"))
    assert len(models) == 3
    for m in models:
        assert m["kind"] == "logistic"
        assert len(m["theta"]) == 4


def test_generate_dataset_cli(tmp_path, scenario_path):
    out = tmp_path / "data"
    code = main(
        [
            "generate",
            "--scenario", scenario_path,
            "--out-dir", str(out),
            "--sensor-id", "1",
            "--slots", "50",
        ]
    )
    assert code == 0
    lines = (out / "dataset.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "slot,f1,f2,f3,label"
    assert len(lines) == 51


def test_compare_outputs_and_determinism(tmp_path, scenario_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        code = main(
            [
                "compare",
                "--scenario", scenario_path,
                "--out-dir", str(out),
                "--seeds", "1,2",
            ]
        )
        assert code == 0
    captured = capsys.readouterr().out
    assert "aspect" in captured and "detection quality" in captured
    for name in ("metrics.csv", "comparison.json", "comparison.txt"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    payload = json.loads((out_a / "comparison.json").read_text(encoding="utf-8"))
    assert payload["seeds"] == [1, 2]
    assert set(payload["topologies"]) == {"central", "gossip", "isolated"}
    metrics = (out_a / "metrics.csv").read_text(encoding="utf-8").splitlines()
    assert len(metrics) == 1 + 3 * 2 * (3 + 1)


def test_missing_scenario_file_is_runtime_error(tmp_path, capsys):
    code = main(
        [
            "run",
            "--scenario", str(tmp_path / "nope.json"),
            "--out-dir", str(tmp_path / "out"),
            "--topology", "isolated",
        ]
    )
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_invalid_scenario_json_is_runtime_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    code = main(
        [
            "run",
            "--scenario", str(bad),
            "--out-dir", str(tmp_path / "out"),
            "--topology", "isolated",
        ]
    )
    assert code == 1
    assert "bad.json" in capsys.readouterr().err


def test_usage_errors_exit_two(scenario_path, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--scenario", scenario_path, "--out-dir", str(tmp_path), "--topology", "ring"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--scenario", scenario_path, "--out-dir", str(tmp_path), "--seeds", "x"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_console_script_help():
    proc = subprocess.run(
        [sys.executable, "-m", "fedspectrum.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    for token in ("run", "generate", "compare"):
        assert token in proc.stdout


def test_run_rejects_non_finite_radius_by_name(tmp_path, capsys):
    # a NaN radius used to make every node isolated: gossip with total_bytes 0
    scenario = json.loads(Path("scenarios/data_scarce.json").read_text(encoding="utf-8"))
    scenario["federation"]["neighbor_radius_m"] = float("nan")
    path = tmp_path / "nan_radius.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    out = tmp_path / "out"
    argv = ["run", "--scenario", str(path), "--out-dir", str(out), "--topology", "gossip"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "federation.neighbor_radius_m: must be finite (got nan)" in captured.err
    assert captured.out == ""
    assert not (out / "summary.json").exists()


def test_run_topology_defaults_to_the_scenario(tmp_path):
    # bench/scenarios/dense_gossip.json sets federation.topology to gossip
    argv = ["run", "--scenario", "bench/scenarios/dense_gossip.json",
            "--training-slots", "40", "--eval-slots", "5"]
    assert main(argv + ["--out-dir", str(tmp_path / "default")]) == 0
    assert main(argv + ["--out-dir", str(tmp_path / "gossip"), "--topology", "gossip"]) == 0
    summary = (tmp_path / "default" / "summary.json").read_bytes()
    assert summary == (tmp_path / "gossip" / "summary.json").read_bytes()
    assert json.loads(summary)["topology"] == "gossip"
