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
            "comparison.json": "05dc85b7eac29f3426a1cdc848bf75b7401c0dfa821d2c4f223fa1aff0d57089",
            "comparison.txt": "15a105c291acce4bfe4c02f9ac205bed319d3a3c97d10d698da749e98ed90fa4",
            "metrics.csv": "0e673e7ae71c9a45930448204d1e4c9af5db6d713d7d59205cce4dd07f1e399a",
        },
    ),
    "data-scarce-compare": (
        ["compare", "--scenario", "scenarios/data_scarce.json", "--seeds", "3,4",
         "--eval-slots", "200"],
        {
            "comparison.json": "c51762d6caf4ceba200ff95c8d845e8fc2612fec058c71ff0a5b6f3850f11c8b",
            "comparison.txt": "e2dcc7527480e4e12228dc2e291865494b35b9c3d99dfaa7cd070c18f0728899",
            "metrics.csv": "db6a6cfeecd3d50b57c81086d808fee2ca452b7ea2f16ceb918506ce5e51b02f",
        },
    ),
    "dense-gossip-run": (
        ["run", "--scenario", "bench/scenarios/dense_gossip.json", "--topology", "gossip",
         "--export-models", "--training-slots", "40", "--eval-slots", "5"],
        {
            "metrics.csv": "f8d7fac5bb6db884ed62896169ea7116a877182c96f60f1fd1bb3ef7892e4683",
            "models.json": "5bd01b124fb1c3332c9362baba226fd40754533be3cd8007df57b59cd20f7886",
            "summary.json": "ee86f2c94b0487b5d3e9d821be5dcdef6a3ee0cedf8c83f533e1bebb6fd4085d",
        },
    ),
    "default-generate": (
        ["generate", "--scenario", "scenarios/default.json", "--sensor-id", "5",
         "--slots", "1000"],
        {
            "dataset.csv": "38ce4f184674e8ed1d4f70ee8982f73ac151cd6291092881540e456662ac6b7f",
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
