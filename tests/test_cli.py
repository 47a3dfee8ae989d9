import functools
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import fedspectrum
from fedspectrum import radio
from fedspectrum.cli import _parse_seeds, main
from fedspectrum.engine import sense_run
from fedspectrum.scenario import load_scenario

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


# slots of the runs that generate is checked against
ROW_SLOTS = 120


@functools.lru_cache(maxsize=8)  # 2 scenarios x 2 seeds x 2 lengths
def sensed(scenario_file, seed, n_slots):
    """``sense_run`` of the scenario file at ``seed`` (None: the file's own),
    with the schedule cut to ``n_slots`` slots."""
    scenario = load_scenario(scenario_file)
    schedule = replace(scenario.schedule, n_training_slots=n_slots - 20, n_eval_slots=20)
    return sense_run(replace(scenario, schedule=schedule), scenario.seed if seed is None else seed)


@pytest.mark.parametrize("slots", [70, ROW_SLOTS + 80])
@pytest.mark.parametrize("sensor", [0, 5, -1])
@pytest.mark.parametrize("seed", [None, 2**64 - 1])
@pytest.mark.parametrize(
    "scenario_file", ["scenarios/default.json", "bench/scenarios/dense_gossip.json"]
)
def test_generate_writes_a_row_of_the_run(scenario_file, seed, sensor, slots, tmp_path):
    # generate writes sensor k's row of the windows and truth labels a run of
    # the same seed senses; past the run's slots, the row of a longer run
    k = sensor % load_scenario(scenario_file).n_sensors
    argv = ["generate", "--scenario", scenario_file, "--out-dir", str(tmp_path),
            "--sensor-id", str(k), "--slots", str(slots)]
    assert main(argv + ([] if seed is None else ["--seed", str(seed)])) == 0
    lines = (tmp_path / "dataset.csv").read_text(encoding="utf-8").splitlines()
    rows = [line.split(",") for line in lines[1:]]
    assert [int(row[0]) for row in rows] == list(range(slots))
    assert {row[4] for row in rows} <= {"0", "1"}
    windows = np.array([[float(v) for v in row[1:4]] for row in rows])
    truths = [row[4] == "1" for row in rows]
    run = sensed(scenario_file, seed, ROW_SLOTS)
    m = min(slots, ROW_SLOTS)
    assert windows[:m].tobytes() == run.windows[k, :m].tobytes()
    assert truths[:m] == run.truths[:m].tolist()
    if slots > ROW_SLOTS:
        longer = sensed(scenario_file, seed, slots)
        assert windows.tobytes() == longer.windows[k].tobytes()
        assert truths == longer.truths.tolist()


# the CLI in a child process imports the package these tests import
CLI = [sys.executable, "-m", "fedspectrum.cli"]
PACKAGE_ROOT = str(Path(fedspectrum.__file__).parents[1])
CLI_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")])),
}


def run_cli(*argv):
    return subprocess.run([*CLI, *argv], capture_output=True, text=True, timeout=60, env=CLI_ENV)


@pytest.mark.parametrize(
    "n_pus,slots,limit",
    [(1, 10**20, 10**8), (0, 10**8 + 1, 10**8), (4, 25 * 10**6 + 1, 25 * 10**6)],
    ids=["huge", "windows", "chain-steps"],
)
def test_generate_rejects_slots_beyond_the_window_limit(n_pus, slots, limit, tmp_path):
    # --slots 10**20 used to write rows until the process was killed
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**FAST_SCENARIO, "n_primary_users": n_pus}), encoding="utf-8")
    out = tmp_path / "out"
    proc = run_cli("generate", "--scenario", str(path), "--out-dir", str(out),
                   "--slots", str(slots))
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        f"fedspectrum: error: n_slots: must be in 0..{limit} (got {slots}); "
        f"the limit is 100000000 / max(1, n_primary_users)"
    ]
    assert proc.stdout == ""
    assert list(out.iterdir()) == []


def test_sigterm_leaves_no_temp_file(tmp_path):
    # a SIGTERM used to end generate before its temp file was removed
    out = tmp_path / "out"
    argv = [*CLI, "generate", "--out-dir", str(out),
            "--scenario", "scenarios/default.json", "--slots", "1000000"]
    with subprocess.Popen(
        argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=CLI_ENV
    ) as proc:
        try:
            deadline = time.monotonic() + 60
            while not list(out.glob(".dataset.csv.*.tmp")):
                assert proc.poll() is None, "generate ended before writing its temp file"
                assert time.monotonic() < deadline, "no temp file within 60 s"
                time.sleep(0.01)
            proc.send_signal(signal.SIGTERM)
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()  # only still running if an assertion failed
    assert proc.returncode == 128 + signal.SIGTERM == 143
    assert err == b""
    assert list(out.iterdir()) == []


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
    proc = run_cli("--help")
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


def test_run_names_an_integer_beyond_float_range(tmp_path):
    # float(10**400) raises OverflowError, which used to escape as a traceback
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({**FAST_SCENARIO, "area_size_m": 10**400}), encoding="utf-8")
    proc = run_cli("run", "--scenario", str(path), "--out-dir", str(tmp_path / "out"))
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == ["fedspectrum: error: area_size_m: must be finite (got inf)"]
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "body,message",
    [
        ('"channel": ' + "[" * 100_000 + "]" * 100_000,
         "invalid JSON: maximum recursion depth exceeded"),
        ('"n_sensors": ' + "9" * 5000, "invalid JSON: Exceeds the limit (4300 digits)"),
    ],
    ids=["deep-nesting", "5000-digit-integer"],
)
def test_unreadable_json_is_one_error_line_naming_the_file(tmp_path, body, message):
    # deep nesting used to print a RecursionError traceback
    path = tmp_path / "unreadable.json"
    path.write_text('{"seed": 1, ' + body + "}", encoding="utf-8")
    proc = run_cli("run", "--scenario", str(path), "--out-dir", str(tmp_path / "out"))
    assert proc.returncode == 1
    [line] = proc.stderr.splitlines()
    assert line.startswith(f"fedspectrum: error: {path}: {message}")
    assert proc.stdout == "" and not (tmp_path / "out").exists()


def test_duplicate_key_is_rejected(tmp_path, capsys):
    # the last value used to win silently: this ran with 9 sensors
    path = tmp_path / "dup.json"
    path.write_text('{"seed": 1, "n_sensors": 4, "n_sensors": 9}', encoding="utf-8")
    assert main(["run", "--scenario", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.err == "fedspectrum: error: duplicate key 'n_sensors'\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "command,changes,message",
    [
        ("run", {"n_sensors": 10**400}, "n_sensors: must be <= 1000000 (got 1000000000"),
        ("compare", {"n_primary_users": 10**400}, "n_primary_users: must be <= 1000000 (got 10"),
        ("run", {"schedule": {"window_samples": 10**6 + 1}},
         "schedule.window_samples: must be <= 1000000 (got 1000001)"),
        ("compare", {"n_sensors": 10**6, "schedule": {"n_training_slots": 0, "n_eval_slots": 101}},
         "n_sensors: 1000000 x 101 slots is 101000000 windows, above the limit of 100000000"),
        ("run", {"n_primary_users": 10**6, "schedule": {"n_training_slots": 1000}},
         "n_primary_users: 1000000 x 1020 slots is 1020000000 chain steps, above the limit"),
    ],
    ids=["sensors", "primary-users", "window-samples", "windows", "chain-steps"],
)
def test_huge_counts_are_rejected_by_name_before_any_work(command, changes, message, tmp_path,
                                                         capsys):
    # 10**400 sensors used to raise OverflowError in placement, and as many
    # primary users kept placing until killed
    raw = {**FAST_SCENARIO, **changes}
    raw["schedule"] = {**FAST_SCENARIO["schedule"], **changes.get("schedule", {})}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    argv = [command, "--scenario", str(path), "--out-dir", str(tmp_path / "out")]
    started = time.perf_counter()
    assert main(argv + (["--seeds", "1"] if command == "compare" else [])) == 1
    assert time.perf_counter() - started < 1.0
    captured = capsys.readouterr()
    assert captured.err.startswith(f"fedspectrum: error: {message}")
    assert captured.err.count("\n") == 1 and captured.out == ""


def fail_second_write_midway(monkeypatch):
    """Make the second ``Path.write_text`` write half its text, then fail."""
    write_text, calls = Path.write_text, []

    def write_half_then_fail(self, text, **kwargs):
        calls.append(self)
        if len(calls) == 2:
            write_text(self, text[: len(text) // 2], **kwargs)
            raise OSError(28, "No space left on device")
        return write_text(self, text, **kwargs)

    monkeypatch.setattr(Path, "write_text", write_half_then_fail)


@pytest.mark.parametrize(
    "argv",
    [["run", "--export-models"], ["compare", "--seeds", "1"]],
    ids=["run", "compare"],
)
def test_failed_write_leaves_no_output(argv, scenario_path, tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    argv = argv + ["--scenario", scenario_path, "--out-dir", str(out)]
    with monkeypatch.context() as patch:
        fail_second_write_midway(patch)
        assert main(argv) == 1
    assert capsys.readouterr().err.endswith("No space left on device\n")
    assert list(out.iterdir()) == []  # no target, no temp file
    # nothing was written, so the next run needs no --force
    assert main(argv) == 0
    written = {p.name: p.read_bytes() for p in out.iterdir()}
    assert len(written) == 3
    # a failed --force run keeps the previous outputs whole
    with monkeypatch.context() as patch:
        fail_second_write_midway(patch)
        assert main(argv + ["--force"]) == 1
    assert {p.name: p.read_bytes() for p in out.iterdir()} == written


def test_failed_generate_leaves_no_dataset(scenario_path, tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    argv = ["generate", "--scenario", scenario_path, "--out-dir", str(out), "--slots", "20"]

    raised = []

    def fail_the_draw(*args):
        # the row is drawn once the temp file is open
        assert len(list(out.glob(".dataset.csv.*.tmp"))) == 1
        raised.append(OSError("sensor read failed"))
        raise raised[-1]

    with monkeypatch.context() as patch:
        patch.setattr(radio, "draw_windows", fail_the_draw)
        assert main(argv) == 1
    assert len(raised) == 1
    assert "sensor read failed" in capsys.readouterr().err
    assert list(out.iterdir()) == []
    assert main(argv) == 0
    assert len((out / "dataset.csv").read_text(encoding="utf-8").splitlines()) == 21
