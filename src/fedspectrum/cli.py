"""Command-line front end: run, generate, compare.

Exit codes: 0 success, 1 runtime/validation/IO failure, 2 usage error.
Progress goes to stdout prefixed ``fedspectrum:``; diagnostics go to stderr.
``main`` loads the scenario, applies the command's overrides with
``dataclasses.replace`` (a Scenario validates itself as it is built, so a
bad override fails by field name), checks ``generate``'s sensor and row
count, and makes ``--out-dir`` before it calls the command.  All outputs
land under ``--out-dir`` and existing files are only replaced with
``--force``; every file, output format, summary across seeds and
wall-clock reading is here, the engine returns data: ``compare`` keeps
each topology's runs in seed order and ``comparison_summary`` averages
them in one pass.
Each output is written to a temp file beside it and moved into place once
the command's outputs are all written, so a failed or interrupted command
leaves no output behind, whole or partial; SIGTERM exits through the same
cleanup, with code 143.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import engine
from .federation import TOPOLOGIES
from .rng import MAX_SEED
from .scenario import MAX_WINDOWS, Scenario, load_scenario
from .sensing import ModelParams

PROG = "fedspectrum"


def _parse_seed(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed {text!r} is not an integer")
    if not 0 <= seed <= MAX_SEED:
        raise argparse.ArgumentTypeError(f"seed {seed} is outside 0..{MAX_SEED}")
    return seed


def _parse_seeds(text: str) -> list[int]:
    seeds = [_parse_seed(part) for part in text.split(",") if part.strip() != ""]
    if not seeds:
        raise argparse.ArgumentTypeError("need at least one seed")
    # a seed listed twice would repeat its run ids and count twice in the means
    repeats = [seed for seed, count in Counter(seeds).items() if count > 1]
    if repeats:
        raise argparse.ArgumentTypeError(f"seed {repeats[0]} repeats")
    return seeds


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description=(
            "Deterministic comparison of isolated, gossip, and "
            "coordinator-based federated spectrum sensing."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--out-dir", required=True, help="directory for outputs")
        p.add_argument("--force", action="store_true", help="overwrite existing outputs")

    run_p = sub.add_parser("run", help="simulate one topology and write metrics")
    common(run_p)
    run_p.add_argument(
        "--topology", choices=TOPOLOGIES, help="default: the scenario's federation.topology"
    )
    run_p.add_argument("--seed", type=_parse_seed, default=None, help="override scenario seed")
    run_p.add_argument("--training-slots", type=int, default=None)
    run_p.add_argument("--eval-slots", type=int, default=None)
    run_p.add_argument(
        "--export-models",
        action="store_true",
        help="also write per-node model snapshots (models.json)",
    )

    gen_p = sub.add_parser("generate", help="write a labeled dataset CSV for one sensor")
    common(gen_p)
    gen_p.add_argument("--sensor-id", type=int, default=0)
    gen_p.add_argument(
        "--slots", type=int, default=1000,
        help=f"number of dataset rows, at most {MAX_WINDOWS} / max(1, n_primary_users)",
    )
    gen_p.add_argument("--seed", type=_parse_seed, default=None, help="override scenario seed")

    cmp_p = sub.add_parser(
        "compare", help="run all three topologies over a seed list and summarize"
    )
    common(cmp_p)
    cmp_p.add_argument("--seeds", required=True, type=_parse_seeds, metavar="N,N,...")
    cmp_p.add_argument("--training-slots", type=int, default=None)
    cmp_p.add_argument("--eval-slots", type=int, default=None)

    return parser


def _apply_overrides(scenario: Scenario, args: argparse.Namespace) -> Scenario:
    """``scenario`` with the command's overrides; ``replace`` validates the variant."""
    if getattr(args, "seed", None) is not None:
        scenario = replace(scenario, seed=args.seed)
    schedule = scenario.schedule
    if getattr(args, "training_slots", None) is not None:
        schedule = replace(schedule, n_training_slots=args.training_slots)
    if getattr(args, "eval_slots", None) is not None:
        schedule = replace(schedule, n_eval_slots=args.eval_slots)
    if schedule is not scenario.schedule:
        scenario = replace(scenario, schedule=schedule)
    return scenario


def _target(out_dir: Path, name: str, force: bool) -> Path:
    path = out_dir / name
    if path.exists() and not path.is_file():  # no --force replaces it
        raise FileExistsError(f"{path}: exists and is not a regular file")
    if path.exists() and not force:
        raise FileExistsError(f"{path}: exists; pass --force to overwrite")
    return path


@contextmanager
def _atomic(*paths: Path):
    """Yield a temp path beside each of ``paths``; they replace the targets
    when the block succeeds and are removed when it fails."""
    temps = [path.with_name(f".{path.name}.{os.getpid()}.tmp") for path in paths]
    try:
        yield temps
        for temp, path in zip(temps, paths):
            os.replace(temp, path)
    finally:
        for temp in temps:
            temp.unlink(missing_ok=True)


def _write_all(texts: dict[Path, str]) -> None:
    """Write each text to its path, all or none."""
    with _atomic(*texts) as temps:
        for temp, text in zip(temps, texts.values()):
            temp.write_text(text, encoding="utf-8")


def _say(message: str) -> None:
    print(f"{PROG}: {message}")


METRICS_HEADER = (
    "run_id,topology,seed,node_id,pd,pfa,accuracy,"
    "tx_bytes,rx_bytes,train_macs,param_bytes"
)


def _rate_cells(confusion: np.ndarray) -> list[str]:
    """The pd, pfa and accuracy cells of each ``(tp, fp, tn, fn)`` row, ""
    for a rate without support: float64 divisions, which round as Python's
    ``int / int`` does, counts below 2**53 being exact."""
    tp, fp, tn, fn = np.asarray(confusion, np.float64).T
    with np.errstate(invalid="ignore"):  # 0 / 0 is NaN: no support
        rates = tp / (tp + fn), fp / (fp + tn), (tp + tn) / (tp + fp + tn + fn)
    cells = [["" if r != r else repr(r) for r in column.tolist()] for column in rates]
    return [f"{pd},{pfa},{accuracy}" for pd, pfa, accuracy in zip(*cells)]


def metrics_csv_lines(runs: Sequence[engine.RunResult]) -> list[str]:
    """CSV rows: one per sensor per run plus a totals row per run."""
    lines = [METRICS_HEADER]
    for run in runs:
        prefix = f"{run.topology}-s{run.seed},{run.topology},{run.seed}"
        costs, g = run.per_node_cost, run.global_metrics
        *rates, global_rates = _rate_cells(np.vstack([run.confusion, [[g.tp, g.fp, g.tn, g.fn]]]))
        # every node receives as many bytes as it sends: rx_bytes repeats tx_bytes
        lines += [
            f"{prefix},{i},{r},{tx},{tx},{c.train_macs_accumulated},{c.model_bytes}"
            for i, (r, tx, c) in enumerate(zip(rates, run.traffic.tx_bytes.tolist(), costs))
        ]
        # totals over every node, the coordinator's traffic included
        total = run.traffic.total_bytes
        lines.append(
            f"{prefix},global,{global_rates},{total},{total},"
            f"{sum(c.train_macs_accumulated for c in costs)},{sum(c.model_bytes for c in costs)}"
        )
    return lines


def _fmt_mean(value: float | None) -> str:
    return "undefined" if value is None else f"{value:.4f}"


def comparison_summary(runs: dict[str, list[engine.RunResult]]) -> dict:
    """``comparison.json``'s dict from each topology's runs, in seed order.

    Byte and MAC fields are means over the seeds.  ``mean_pd`` and
    ``mean_pfa`` are means over the runs that define them (None if none
    does); ``pd_undefined_runs`` and ``pfa_undefined_runs`` count the others.
    Every run evaluates at least one window, so accuracy is always defined.
    """
    topologies = {}
    for topology, group in runs.items():
        n, metrics = len(group), [r.global_metrics for r in group]
        pd = [m.pd for m in metrics if m.pd is not None]
        pfa = [m.pfa for m in metrics if m.pfa is not None]
        topologies[topology] = {
            "busiest_node_bytes": sum(r.busiest_node_bytes() for r in group) / n,
            "total_bytes": sum(r.traffic.total_bytes for r in group) / n,
            "central_bytes": sum(r.traffic.central_bytes for r in group) / n,
            "aggregation_macs_central": sum(r.central_aggregation_macs for r in group) / n,
            "max_node_aggregation_macs": sum(int(r.node_aggregation_macs.max()) for r in group) / n,
            "mean_accuracy": sum(m.accuracy for m in metrics) / n,
            "mean_pd": sum(pd) / len(pd) if pd else None,
            "mean_pfa": sum(pfa) / len(pfa) if pfa else None,
            "pd_undefined_runs": n - len(pd),
            "pfa_undefined_runs": n - len(pfa),
        }
    first = runs[TOPOLOGIES[0]]
    return {
        "scenario_digest": first[0].scenario_digest,
        "seeds": [r.seed for r in first],
        "topologies": topologies,
    }


def comparison_table(summary: dict) -> str:
    """Aligned text table: one row per compared aspect, one column per
    topology, every cell read from ``summary``'s topology entries; a line
    ends at its last cell.  Neighbor communication is ``required`` where the
    sensors sent each other bytes (more than the coordinator's share), else
    ``none``."""
    summaries = [summary["topologies"][t] for t in TOPOLOGIES]
    rows = [
        ["aspect", *TOPOLOGIES],
        ["neighbor communication"] + [
            "required" if s["total_bytes"] > s["central_bytes"] else "none" for s in summaries
        ],
        ["traffic volume (bytes)"] + [
            f"total {s['total_bytes']:.0f}; central {s['central_bytes']:.0f}; "
            f"busiest node {s['busiest_node_bytes']:.0f}"
            for s in summaries
        ],
        ["aggregation compute (MACs)"] + [
            f"central {s['aggregation_macs_central']:.0f}; "
            f"busiest node {s['max_node_aggregation_macs']:.0f}"
            for s in summaries
        ],
        ["detection quality"] + [
            f"acc {_fmt_mean(s['mean_accuracy'])}; pd {_fmt_mean(s['mean_pd'])}; "
            f"pfa {_fmt_mean(s['mean_pfa'])}"
            for s in summaries
        ],
    ]
    widths = [max(len(row[col]) for row in rows) for col in range(len(rows[0]))]
    lines = [" | ".join(map(str.ljust, row, widths)).rstrip() for row in rows]
    lines.insert(1, "-+-".join("-" * width for width in widths))
    return "\n".join(lines) + "\n"


def model_snapshot_json(model: ModelParams) -> str:
    """One-line JSON snapshot with 17-significant-digit coefficients."""
    theta = ", ".join(format(float(v), ".17g") for v in model.theta)
    return f'{{"kind": "{model.kind}", "theta": [{theta}]}}'


def cmd_run(args: argparse.Namespace, scenario: Scenario, out_dir: Path) -> int:
    metrics_path = _target(out_dir, "metrics.csv", args.force)
    summary_path = _target(out_dir, "summary.json", args.force)
    models_path = (
        _target(out_dir, "models.json", args.force) if args.export_models else None
    )
    topology = args.topology or scenario.federation.topology
    _say(f"running topology={topology} seed={scenario.seed}")
    started = time.perf_counter()
    result = engine.run_simulation(scenario, topology, scenario.seed)
    wall = time.perf_counter() - started
    g, schedule = result.global_metrics, scenario.schedule
    summary = {
        "scenario_digest": result.scenario_digest,
        "topology": result.topology,
        "seed": result.seed,
        "federation_rounds": result.federation_rounds,
        "training_periods": schedule.n_training_slots // schedule.local_train_period_slots,
        "global": {**asdict(g), "pd": g.pd, "pfa": g.pfa, "accuracy": g.accuracy},
        "traffic": {
            "total_bytes": result.traffic.total_bytes,
            "central_bytes": result.traffic.central_bytes,
            "messages": result.traffic.messages,
            "busiest_node_bytes": result.busiest_node_bytes(),
        },
        "cost": {
            "macs_per_inference": result.per_node_cost[0].macs_per_inference,
            "param_count": result.per_node_cost[0].param_count,
            "model_bytes": result.per_node_cost[0].model_bytes,
            "total_train_macs": sum(
                c.train_macs_accumulated for c in result.per_node_cost
            ),
            "central_aggregation_macs": result.central_aggregation_macs,
            "max_node_aggregation_macs": int(result.node_aggregation_macs.max()),
        },
    }
    texts = {
        metrics_path: "\n".join(metrics_csv_lines([result])) + "\n",
        summary_path: json.dumps(summary, indent=2, sort_keys=True) + "\n",
    }
    if models_path is not None:
        body = ",\n".join("  " + model_snapshot_json(m) for m in result.final_models)
        texts[models_path] = "[\n" + body + "\n]\n"
    _write_all(texts)
    if models_path is not None:
        _say(f"wrote {models_path}")
    _say(f"accuracy={g.accuracy:.4f} total_bytes={result.traffic.total_bytes} wall={wall:.2f}s")
    _say(f"wrote {metrics_path} and {summary_path}")
    return 0


def cmd_generate(args: argparse.Namespace, scenario: Scenario, out_dir: Path) -> int:
    path = _target(out_dir, "dataset.csv", args.force)
    with _atomic(path) as (temp,), open(temp, "w", encoding="utf-8", newline="") as fh:
        fh.write("slot,f1,f2,f3,label\n")
        windows, truths = engine.generate_dataset(scenario, args.sensor_id, args.slots)
        for slot, ((f1, f2, f3), label) in enumerate(zip(windows.tolist(), truths.tolist())):
            fh.write(f"{slot},{f1!r},{f2!r},{f3!r},{int(label)}\n")
    fraction = truths.mean() if truths.size else 0.0
    _say(f"wrote {path}: {truths.size} rows, positive fraction {fraction:.4f}")
    return 0


def cmd_compare(args: argparse.Namespace, scenario: Scenario, out_dir: Path) -> int:
    metrics_path = _target(out_dir, "metrics.csv", args.force)
    json_path = _target(out_dir, "comparison.json", args.force)
    table_path = _target(out_dir, "comparison.txt", args.force)
    runs: dict[str, list[engine.RunResult]] = {t: [] for t in TOPOLOGIES}
    for seed in args.seeds:
        # every topology trains on one draw of the seed's radio environment, in one loop
        trained = engine.train_topologies(engine.sense_run(scenario, seed), TOPOLOGIES)
        for topology in TOPOLOGIES:
            _say(f"running topology={topology} seed={seed}")
            runs[topology].append(engine.run_simulation(scenario, topology, seed, trained=trained))
        del trained  # one seed's tensor alive at a time
    lines = metrics_csv_lines([run for group in runs.values() for run in group])  # topology-major
    summary = comparison_summary(runs)
    table = comparison_table(summary)
    _write_all(
        {
            metrics_path: "\n".join(lines) + "\n",
            json_path: json.dumps(summary, indent=2, sort_keys=True) + "\n",
            table_path: table,
        }
    )
    print(table, end="")
    _say(f"wrote {metrics_path}, {json_path}, {table_path}")
    return 0


def _terminate(signum, frame) -> None:
    raise SystemExit(128 + signum)  # unwinds through _atomic's cleanup


def main(argv: list[str] | None = None) -> int:
    """Run one command; call from the main thread (it sets a SIGTERM handler
    for the command's duration)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": cmd_run, "generate": cmd_generate, "compare": cmd_compare}
    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        scenario = _apply_overrides(load_scenario(args.scenario), args)
        if args.command == "generate":  # a bad sensor or row count makes no out dir
            engine.check_dataset(scenario, args.sensor_id, args.slots)
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        return handlers[args.command](args, scenario, out_dir)
    except (OSError, ValueError) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
