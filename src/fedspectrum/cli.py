"""Command-line front end: run, generate, compare.

Exit codes: 0 success, 1 runtime/validation/IO failure, 2 usage error.
Progress goes to stdout prefixed ``fedspectrum:``; diagnostics go to stderr.
All outputs land under ``--out-dir`` and existing files are only replaced
with ``--force``.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import engine
from .federation import TOPOLOGIES
from .radio import generate_dataset
from .rng import MAX_SEED, substream
from .scenario import Scenario, load_scenario
from .sensing import model_snapshot_json

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
    gen_p.add_argument("--slots", type=int, default=1000, help="number of dataset rows")
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
    if path.exists() and not force:
        raise FileExistsError(f"{path}: exists; pass --force to overwrite")
    return path


def _say(message: str) -> None:
    print(f"{PROG}: {message}")


def cmd_run(args: argparse.Namespace) -> int:
    scenario = _apply_overrides(load_scenario(args.scenario), args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics_path = _target(out_dir, "metrics.csv", args.force)
    summary_path = _target(out_dir, "summary.json", args.force)
    models_path = (
        _target(out_dir, "models.json", args.force) if args.export_models else None
    )
    topology = args.topology or scenario.federation.topology
    _say(f"running topology={topology} seed={scenario.seed}")
    result = engine.run_simulation(scenario, topology, scenario.seed)
    metrics_path.write_text(
        "\n".join(engine.metrics_csv_lines([result])) + "\n", encoding="utf-8"
    )
    summary = {
        "scenario_digest": result.scenario_digest,
        "topology": result.topology,
        "seed": result.seed,
        "federation_rounds": result.federation_rounds,
        "global": {
            "tp": result.global_metrics.tp,
            "fp": result.global_metrics.fp,
            "tn": result.global_metrics.tn,
            "fn": result.global_metrics.fn,
            "pd": result.global_metrics.pd,
            "pfa": result.global_metrics.pfa,
            "accuracy": result.global_metrics.accuracy,
        },
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
            "max_node_aggregation_macs": max(result.node_aggregation_macs),
        },
    }
    summary_path.write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    if models_path is not None:
        body = ",\n".join(
            "  " + model_snapshot_json(m) for m in result.final_models
        )
        models_path.write_text("[\n" + body + "\n]\n", encoding="utf-8")
        _say(f"wrote {models_path}")
    acc = result.global_metrics.accuracy
    _say(
        f"accuracy={acc:.4f} total_bytes={result.traffic.total_bytes} "
        f"wall={result.wall_seconds:.2f}s"
    )
    _say(f"wrote {metrics_path} and {summary_path}")
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    scenario = _apply_overrides(load_scenario(args.scenario), args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = _target(out_dir, "dataset.csv", args.force)
    rng = substream(scenario.seed, "dataset")
    summary = generate_dataset(scenario, args.sensor_id, args.slots, rng, path)
    _say(
        f"wrote {path}: {summary.rows_written} rows, "
        f"positive fraction {summary.positive_fraction:.4f}"
    )
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    scenario = _apply_overrides(load_scenario(args.scenario), args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics_path = _target(out_dir, "metrics.csv", args.force)
    json_path = _target(out_dir, "comparison.json", args.force)
    table_path = _target(out_dir, "comparison.txt", args.force)
    runs = []
    for topology in TOPOLOGIES:
        for seed in args.seeds:
            _say(f"running topology={topology} seed={seed}")
            runs.append(engine.run_simulation(scenario, topology, seed))
    report = engine.summarize_runs(runs, args.seeds)
    metrics_path.write_text(
        "\n".join(engine.metrics_csv_lines(runs)) + "\n", encoding="utf-8"
    )
    json_path.write_text(
        json.dumps(engine.comparison_to_dict(report), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    table = engine.comparison_table(report)
    table_path.write_text(table, encoding="utf-8")
    print(table, end="")
    _say(f"wrote {metrics_path}, {json_path}, {table_path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": cmd_run, "generate": cmd_generate, "compare": cmd_compare}
    try:
        return handlers[args.command](args)
    except (OSError, ValueError) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
