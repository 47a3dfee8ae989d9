"""Federated spectrum-occupancy sensing simulator.

Compares three ways a network of energy-sensing nodes can learn a channel
occupancy classifier: training in isolation, merging models with radio-range
neighbors (gossip), and collect/average/distribute through a central
coordinator (FedAvg).  Every run is reproducible from one 64-bit seed.
"""

from .engine import (
    ComparisonReport,
    DetectionMetrics,
    DivergenceError,
    RunResult,
    TopologySummary,
    evaluate_detection,
    roc_sweep,
    run_simulation,
)
from .federation import (
    FederationConfig,
    NeighborGraph,
    NeighborTable,
    TrafficStats,
    build_neighbor_graph,
    exchange_traffic,
    fedavg_aggregate,
    fedavg_mix,
    gossip_mix,
    merge_models,
    neighbor_table,
    payload_bytes,
)
from .radio import (
    ChannelModel,
    PuTrafficModel,
    dbm_to_mw,
    generate_dataset,
    mw_to_dbm,
    path_loss_db,
    pu_activity_step,
    received_power_dbm,
    sense_slot,
    window_features,
)
from .rng import substream
from .scenario import (
    Placement,
    Scenario,
    SlotSchedule,
    load_scenario,
    place_nodes,
    scenario_digest,
    validate_scenario,
)
from .sensing import (
    CostReport,
    ModelParams,
    TrainingConfig,
    bce_gradient,
    bce_loss,
    energy_baseline_decide,
    init_model,
    model_cost,
    predict,
    train_local,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelModel",
    "ComparisonReport",
    "CostReport",
    "DetectionMetrics",
    "DivergenceError",
    "FederationConfig",
    "ModelParams",
    "NeighborGraph",
    "NeighborTable",
    "Placement",
    "PuTrafficModel",
    "RunResult",
    "Scenario",
    "SlotSchedule",
    "TopologySummary",
    "TrafficStats",
    "TrainingConfig",
    "bce_gradient",
    "bce_loss",
    "build_neighbor_graph",
    "dbm_to_mw",
    "energy_baseline_decide",
    "evaluate_detection",
    "exchange_traffic",
    "fedavg_aggregate",
    "fedavg_mix",
    "generate_dataset",
    "gossip_mix",
    "init_model",
    "load_scenario",
    "merge_models",
    "model_cost",
    "mw_to_dbm",
    "neighbor_table",
    "path_loss_db",
    "payload_bytes",
    "place_nodes",
    "predict",
    "pu_activity_step",
    "received_power_dbm",
    "roc_sweep",
    "run_simulation",
    "scenario_digest",
    "sense_slot",
    "substream",
    "train_local",
    "validate_scenario",
    "window_features",
]
