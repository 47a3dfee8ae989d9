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
    RunSensing,
    TopologySummary,
    evaluate_detection,
    generate_dataset,
    roc_sweep,
    run_simulation,
    sense_run,
)
from .federation import (
    FederationConfig,
    NeighborTable,
    TrafficStats,
    build_neighbor_graph,
    exchange_traffic,
    fedavg_mix,
    gossip_mix,
    gossip_mixer,
    payload_bytes,
)
from .radio import (
    ChannelModel,
    PuTrafficModel,
    SensorStreams,
    dbm_to_mw,
    mw_to_dbm,
    path_loss_db,
    pu_chain,
    sense_windows,
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
    train_rows,
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
    "NeighborTable",
    "Placement",
    "PuTrafficModel",
    "RunResult",
    "RunSensing",
    "Scenario",
    "SensorStreams",
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
    "fedavg_mix",
    "generate_dataset",
    "gossip_mix",
    "gossip_mixer",
    "init_model",
    "load_scenario",
    "mw_to_dbm",
    "path_loss_db",
    "payload_bytes",
    "place_nodes",
    "pu_chain",
    "roc_sweep",
    "run_simulation",
    "scenario_digest",
    "sense_run",
    "sense_windows",
    "substream",
    "train_rows",
    "validate_scenario",
]
