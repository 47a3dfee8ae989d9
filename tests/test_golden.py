"""Golden outputs: sha256 of every file four short CLI calls write.

The hashes pin the simulator's behaviour byte for byte.  A change that is
meant to keep outputs identical (a refactor or a speed-up) must pass them
unchanged; a deliberate change in output re-pins them and says why in
CHANGES.md.
"""

import hashlib

import pytest

from fedspectrum.cli import main

CASES = {
    "default-compare": (
        ["compare", "--scenario", "scenarios/default.json", "--seeds", "7",
         "--training-slots", "400", "--eval-slots", "200"],
        {
            "comparison.json": "51e31719537200b44272561f432b2eec1da83de5c411412319d7be753a55b9ac",
            "comparison.txt": "0f170cda39256dbcfd7313591ad7d00f7c3c1f8e0c9588b5aa63063b2bc4910d",
            "metrics.csv": "d1b0b3a9947fd2f9deba91247f1f9819029977e8f15ac7f175e5c963447bbd68",
        },
    ),
    "data-scarce-compare": (
        ["compare", "--scenario", "scenarios/data_scarce.json", "--seeds", "3,4",
         "--eval-slots", "200"],
        {
            "comparison.json": "da7ef9cbefb5dd6cad003fa0c07ace3a269b7593e2c814084f4bc7461f45db5e",
            "comparison.txt": "84e0ea21811d695b6659c820a87936dec8f012aed15350ce4b3639f20952edf4",
            "metrics.csv": "82d2390d971b77f493563a505160c8184325b99a6867416e5bae869124279407",
        },
    ),
    "dense-gossip-run": (
        ["run", "--scenario", "bench/scenarios/dense_gossip.json", "--topology", "gossip",
         "--export-models", "--training-slots", "40", "--eval-slots", "5"],
        {
            "metrics.csv": "f8d7fac5bb6db884ed62896169ea7116a877182c96f60f1fd1bb3ef7892e4683",
            "models.json": "4a071c13b73c1c1b3b460329e05284b308091e6c16b6b5b534cfae6022445999",
            "summary.json": "4f7717b5769f284bcc1af1e111a5d7f0c0a6b3beef46a21c4ea69ff8cc121f09",
        },
    ),
    "default-generate": (
        ["generate", "--scenario", "scenarios/default.json", "--sensor-id", "5",
         "--slots", "1000"],
        {
            "dataset.csv": "0c03d519d73f181d3cd00d2380c696e6a19f4c250c0bfe08f1d32f7eb981a82a",
        },
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_outputs_match_pinned_hashes(name, tmp_path):
    argv, pinned = CASES[name]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 0
    written = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.iterdir()
    }
    assert written == pinned
