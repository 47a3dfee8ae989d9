"""fedspectrum benchmark: end-to-end and per-layer cost of simulation sweeps.

Each workload is one closed-loop call of the public CLI entry point
(``fedspectrum.cli.main``) in this process, made once untimed on the
workload's fixed reference seed and then repeated for ``--seconds`` on
``--seed``.  Every run the CLI makes is checked against closed
forms (``checks.py``); the last line of standard output is one JSON object
with the verdict and the metrics.
``--trace 0`` reports the end-to-end metrics with tracing off; ``--trace 1``
alternates untraced and traced calls and reports the per-layer metrics
(``layers.py``), writing the spans to ``.bench_traces/``.

    python3 bench/run.py --workload default-compare --seed 7 --seconds 40 --trace 0
    python3 bench/run.py --write-manifest    # regenerate BENCHMARK.json

Run it from anywhere; it simulates the ``src/`` tree of the checkout it lives
in, and reads and writes only inside that checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_traces"
RUN_DIR_PREFIX = ".bench_run-"

# The simulator's arrays are far too small to gain from BLAS threads, and
# on a small shared box extra threads only add noise.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
RUN_SECONDS = 40
SETUP_PROBES = 5
MAX_SEED = 2**64 - 1
TOPOLOGIES = ("isolated", "gossip", "central")


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str  # relative to the repository root
    subcommand: str  # "compare" (every topology) or "run" (gossip only)
    reference_seed: int  # fixed seed of the untimed first call, which detect_accuracy reads
    why: str

    @property
    def topologies(self) -> tuple[str, ...]:
        return TOPOLOGIES if self.subcommand == "compare" else ("gossip",)

    def expected_runs(self, seed: int) -> list[tuple[str, int]]:
        """(topology, seed) of every run, in the order the CLI makes them."""
        return [(t, seed) for t in self.topologies]

    def argv(self, seed: int, out_dir: Path, slots: tuple[int, int] | None) -> list[str]:
        argv = [self.subcommand, "--scenario", str(ROOT / self.scenario), "--out-dir", str(out_dir)]
        if self.subcommand == "compare":
            argv += ["--seeds", str(seed)]
        else:
            argv += ["--topology", "gossip", "--seed", str(seed)]
        if slots is not None:
            argv += ["--training-slots", str(slots[0]), "--eval-slots", str(slots[1])]
        return argv


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "default-compare",
            "scenarios/default.json",
            "compare",
            7,
            "Shipped preset (criterion 1): compare on 1 seed, 3 runs, 168k windows. Radio is "
            "~75% of wall, so radio.* and sensing.* move norm_wall_s and norm_windows_per_s.",
        ),
        Workload(
            "dense-gossip",
            "bench/scenarios/dense_gossip.json",
            "run",
            1,
            "Gossip every slot on a 400-sensor grid, degree ~31: 120 rounds, 1.49M messages in "
            "one run. Federation is ~66% of wall, so federation.* move norm_wall_s and peak_rss_mb.",
        ),
    )
}

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.
END_TO_END = (
    ("norm_wall_s", "s", "lower", 0.25),
    ("norm_windows_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("ok_ratio", "ratio", "higher", 0.01),
    ("detect_accuracy", "ratio", "higher", 0.1),
)

# (name, unit, better).  Times are self time: a span's duration minus the
# spans it caused.  Counts come from the RunResults and the scenario.
PER_LAYER = (
    ("radio.busy_s", "s", "lower"),
    ("radio.us_per_window", "us", "lower"),
    ("sensing.train_s", "s", "lower"),
    ("sensing.samples_trained", "count", "higher"),
    ("sensing.us_per_sample", "us", "lower"),
    ("sensing.eval_s", "s", "lower"),
    ("sensing.predictions", "count", "higher"),
    ("sensing.us_per_prediction", "us", "lower"),
    ("engine.self_s", "s", "lower"),
    ("engine.self_share", "ratio", "lower"),
    ("federation.busy_s", "s", "lower"),
    ("federation.rounds", "count", "higher"),
    ("federation.messages", "count", "lower"),
    ("federation.bytes", "bytes", "lower"),
    ("federation.us_per_message", "us", "lower"),
    ("scenario.busy_s", "s", "lower"),
    ("scenario.calls", "count", "lower"),
    ("rng.busy_s", "s", "lower"),
    ("rng.streams", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
)
UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def manifest() -> dict:
    """The contents of BENCHMARK.json."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def child_env() -> dict[str, str]:
    return {**os.environ, **THREAD_PINS, "PYTHONPATH": str(SRC)}


def windows_per_call(scenario, n_runs: int) -> int:
    """Simulated sensing windows: every sensor, every slot, every run."""
    sched = scenario.schedule
    return scenario.n_sensors * (sched.n_training_slots + sched.n_eval_slots) * n_runs


def effective_scenario(workload: Workload, slots: tuple[int, int] | None):
    """The scenario file as the CLI sees it, with the same slot overrides."""
    from fedspectrum.scenario import load_scenario

    scenario = load_scenario(ROOT / workload.scenario)
    if slots is not None:
        schedule = replace(scenario.schedule, n_training_slots=slots[0], n_eval_slots=slots[1])
        scenario = replace(scenario, schedule=schedule)
    return scenario


def setup_times(workload: Workload, seed: int, probes: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to a loaded, placed scenario.

    One extra probe runs first, untimed, so every timed one finds the files
    in the page cache.
    """
    cmd = [
        sys.executable,
        str(BENCH / "probe.py"),
        str(ROOT / workload.scenario),
        str(seed),
        "1" if "gossip" in workload.topologies else "0",
    ]
    times = []
    for _ in range(probes + 1):
        started = time.perf_counter()
        subprocess.run(cmd, env=child_env(), cwd=ROOT, check=True, timeout=120)
        times.append(time.perf_counter() - started)
    return times[1:]


def output_digest(out_dir: Path) -> tuple[str, int]:
    """(sha256 over the CLI's output files in name order, bytes written)."""
    h = hashlib.sha256()
    written = 0
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        written += len(data)
        h.update(path.name.encode() + b"\0" + data)
    return h.hexdigest(), written


def judge(code, results, workload: Workload, scenario, seed: int) -> tuple[int, list[str]]:
    """(failed runs, problems) for one CLI call."""
    from checks import check_run

    expected = workload.expected_runs(seed)
    got = [(r.topology, r.seed) for r in results]
    if code != 0 or got != expected:
        return len(expected), [f"exit code {code}; runs {got} != expected {expected}"]
    problems, failed = [], 0
    for result, (topology, run_seed) in zip(results, expected):
        found = check_run(result, scenario, topology, run_seed)
        failed += bool(found)
        problems += [f"{topology}/{run_seed}: {p}" for p in found]
    return failed, problems


@dataclass
class Call:
    """One measured CLI call."""

    wall_s: float
    norm_wall_s: float | None  # host-speed normalised (speed.py); untraced calls only
    probe_s: float | None  # median host speed probe during the call
    failed: int
    problems: list[str]
    digest: str
    accuracy: float
    layers: dict[str, float] | None


def layer_metrics(tracer, results, scenario, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced call (``trace.overhead_s`` is added later)."""
    busy: dict[str, int] = defaultdict(int)
    calls: Counter = Counter()
    train_ns = eval_ns = 0
    for _, _, request, layer, name, _, _, self_ns in tracer.spans:
        if request != tracer.request:
            continue
        busy[layer] += self_ns
        calls[layer] += 1
        if layer == "sensing" and "train" in name:
            train_ns += self_ns
        elif layer == "sensing" and "predict" in name:
            eval_ns += self_ns

    def per(ns: int, count: int) -> float:
        return ns / 1e3 / count if count else 0.0

    windows = windows_per_call(scenario, len(results))
    samples = sum(
        c.train_macs_accumulated // (3 * c.macs_per_inference)
        for r in results
        for c in r.per_node_cost
    )
    predictions = sum(
        g.tp + g.fp + g.tn + g.fn for g in (r.global_metrics for r in results)
    )
    messages = sum(r.traffic.messages for r in results)
    return {
        "radio.busy_s": busy["radio"] / 1e9,
        "radio.us_per_window": per(busy["radio"], windows),
        "sensing.train_s": train_ns / 1e9,
        "sensing.samples_trained": samples,
        "sensing.us_per_sample": per(train_ns, samples),
        "sensing.eval_s": eval_ns / 1e9,
        "sensing.predictions": predictions,
        "sensing.us_per_prediction": per(eval_ns, predictions),
        "engine.self_s": busy["engine"] / 1e9,
        "engine.self_share": busy["engine"] / 1e9 / wall_s,
        "federation.busy_s": busy["federation"] / 1e9,
        "federation.rounds": sum(r.federation_rounds for r in results),
        "federation.messages": messages,
        "federation.bytes": sum(r.traffic.total_bytes for r in results),
        "federation.us_per_message": per(busy["federation"], messages),
        "scenario.busy_s": busy["scenario"] / 1e9,
        "scenario.calls": calls["scenario"],
        "rng.busy_s": busy["rng"] / 1e9,
        "rng.streams": calls["rng"],
        "cli.self_s": busy["cli"] / 1e9,
    }


def call_cli(workload, scenario, seed, slots, work_dir: Path, tracer=None, probe=None) -> Call:
    """One CLI call, timed with the simulator's own output silenced.

    With a ``SpeedProbe``, the host's speed is sampled while the call runs.
    """
    from fedspectrum import cli
    from layers import instrument

    out_dir = Path(tempfile.mkdtemp(dir=work_dir))
    argv = workload.argv(seed, out_dir, slots)
    results: list = []
    code = None
    with contextlib.ExitStack() as stack:
        stack.enter_context(instrument(results.append, tracer))
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        if probe is not None:
            stack.enter_context(probe.during())
        started = time.perf_counter()
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.call("cli", "main", cli.main, argv)
        except Exception:  # a crash is a failed call, not a failed benchmark
            traceback.print_exc()
        wall_s = time.perf_counter() - started
    failed, problems = judge(code, results, workload, scenario, seed)
    digest, written = output_digest(out_dir)
    shutil.rmtree(out_dir)
    accuracies = [r.global_metrics.accuracy for r in results]
    layers = None
    if tracer is not None:
        layers = layer_metrics(tracer, results, scenario, wall_s)
        layers["cli.bytes_written"] = written
        tracer.request += 1
    return Call(
        wall_s=wall_s,
        norm_wall_s=None if probe is None else probe.normalise(wall_s),
        probe_s=None if probe is None else statistics.median(probe.samples),
        failed=failed,
        problems=problems,
        digest=digest,
        accuracy=statistics.fmean(accuracies) if accuracies and None not in accuracies else 0.0,
        layers=layers,
    )


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_PINS},
        "loadavg": list(os.getloadavg()),
    }


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    slots: tuple[int, int] | None = None,
    probes: int = SETUP_PROBES,
) -> tuple[dict, dict]:
    """(information, verdict with metrics) for one benchmark run."""
    from layers import Tracer
    from speed import SpeedProbe

    env = environment()
    scenario = effective_scenario(workload, slots)
    setup = [] if trace else setup_times(workload, seed, probes)
    tracer = Tracer() if trace else None
    # Traced runs compare raw wall times (trace.overhead_s), so only
    # untraced runs carry the speed probe.
    probe = None if trace else SpeedProbe()

    work_dir = Path(tempfile.mkdtemp(prefix=RUN_DIR_PREFIX, dir=ROOT))
    try:
        # Untimed warm-up on the reference seed.  Detection quality varies
        # by ~20% between seeds (primary-user positions), so accuracy is
        # read from these fixed inputs, where it repeats exactly.
        reference = call_cli(workload, scenario, workload.reference_seed, slots, work_dir)
        plain: list[Call] = []
        traced: list[Call] = []
        started = time.perf_counter()
        while True:
            cycle_start = time.perf_counter()
            plain.append(call_cli(workload, scenario, seed, slots, work_dir, probe=probe))
            if trace:
                traced.append(call_cli(workload, scenario, seed, slots, work_dir, tracer))
            # Stop when another cycle would likely end further past the
            # deadline than stopping now falls short of it, so the run
            # lasts --seconds to within half a cycle.
            now = time.perf_counter()
            if now - started + (now - cycle_start) / 2 > seconds:
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    timed = plain + traced
    # Same seed, same outputs: a call whose files differ from the first
    # call's failed, whatever its closed-form checks said.
    n_runs = len(workload.expected_runs(seed))
    for call in timed[1:]:
        if call.digest != timed[0].digest and not call.failed:
            call.failed = n_runs
            call.problems.append(f"output digest {call.digest} != {timed[0].digest}")
    calls = [reference] + timed
    attempted = n_runs * len(calls)
    failed = sum(c.failed for c in calls)

    walls = [c.wall_s for c in plain]
    windows = windows_per_call(scenario, n_runs)
    if trace:
        values = {
            name: statistics.median(c.layers[name] for c in traced)
            for name, *_ in PER_LAYER
            if name != "trace.overhead_s"
        }
        values["trace.overhead_s"] = statistics.median(c.wall_s for c in traced) - statistics.median(walls)
        trace_path = TRACE_DIR / f"{workload.name}-seed{seed}.jsonl.gz"
        tracer.write(trace_path)
    else:
        norm_walls = [c.norm_wall_s for c in plain]
        values = {
            "norm_wall_s": statistics.median(norm_walls),
            "norm_windows_per_s": statistics.median(windows / w for w in norm_walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_ratio": (attempted - failed) / attempted,
            "detect_accuracy": reference.accuracy,
        }

    info = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "calls_timed": len(walls),
        "runs_per_call": n_runs,
        "windows_per_call": windows,
        "wall_s_samples": walls,
        "norm_wall_s_samples": [c.norm_wall_s for c in plain],
        "probe_s_samples": [c.probe_s for c in plain],
        "traced_wall_s_samples": [c.wall_s for c in traced],
        "setup_s_samples": setup,
        "sim_digest": timed[0].digest,
        "reference_seed": workload.reference_seed,
        "reference_digest": reference.digest,
        "problems": [p for c in calls for p in c.problems][:20],
        "environment": {**env, "loadavg_end": list(os.getloadavg())},
    }
    if trace:
        info["trace_file"] = os.path.relpath(trace_path, ROOT)
    verdict = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()},
    }
    return info, verdict


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-manifest", action="store_true", help="write BENCHMARK.json and exit"
    )
    args = parser.parse_args(argv)
    if args.write_manifest:
        return args
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required")
    if not 0 <= args.seed <= MAX_SEED:
        parser.error(f"--seed must be within 0..{MAX_SEED}")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
        return 0
    if not (SRC / "fedspectrum" / "__init__.py").is_file():
        print(f"bench: error: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_PINS)  # before numpy is first imported
    sys.path.insert(0, str(SRC))
    info, verdict = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"info": info}))
    print(json.dumps(verdict))
    return 0


if __name__ == "__main__":
    sys.exit(main())
