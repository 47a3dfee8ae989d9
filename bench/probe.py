"""Set-up probe: import the simulator, then load, validate and place one scenario.

Run in a fresh interpreter by ``run.py``, which times the whole process:
``python3 bench/probe.py <scenario.json> <seed> <with_graph 0|1>``.
"""

import sys

from fedspectrum import cli  # noqa: F401  imports numpy, scipy and every layer
from fedspectrum.federation import build_neighbor_graph
from fedspectrum.rng import substream
from fedspectrum.scenario import load_scenario, place_nodes


def main(path: str, seed: str, with_graph: str) -> None:
    scenario = load_scenario(path)
    placements = place_nodes(scenario, substream(int(seed), "placement"))
    if with_graph == "1":
        sensors = [p for p in placements if p.kind == "sensor"]
        build_neighbor_graph(sensors, scenario.federation.neighbor_radius_m)


if __name__ == "__main__":
    main(*sys.argv[1:])
