"""Federated spectrum-occupancy sensing simulator.

Compares three ways a network of energy-sensing nodes can learn a channel
occupancy classifier: training in isolation, merging models with radio-range
neighbors (gossip), and collect/average/distribute through a central
coordinator (FedAvg).  Every run is reproducible from one 64-bit seed.
"""

from .engine import generate_dataset, run_simulation, sense_run, train_topologies
from .scenario import load_scenario

__version__ = "0.1.0"

__all__ = [
    "generate_dataset",
    "load_scenario",
    "run_simulation",
    "sense_run",
    "train_topologies",
]
