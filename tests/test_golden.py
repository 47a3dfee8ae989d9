"""Golden outputs: sha256 of every file four short CLI calls write.

The hashes pin the simulator's behaviour byte for byte.  A change that is
meant to keep outputs identical (a refactor or a speed-up) must pass them
unchanged; a deliberate change in output re-pins them and says why in
CHANGES.md.  ``PYTHONPATH=src python tests/test_golden.py``, run from the repo
root, prints every case's current hashes in ``CASES`` layout.
"""

import contextlib
import hashlib
import sys
import tempfile
from pathlib import Path

import pytest

from fedspectrum.cli import main

CASES = {
    "default-compare": (
        ["compare", "--scenario", "scenarios/default.json", "--seeds", "7",
         "--training-slots", "400", "--eval-slots", "200"],
        {
            "comparison.json": "af61a94c1bd47cf7b0f999517cf4ff5e5ef39f385dfdf5c00524d7f8c399febc",
            "comparison.txt": "0ef3876bdd1a1d847a2e26257aa0a8f2881f73b11b3f4e502b8e8c9da25505c8",
            "metrics.csv": "d42e284b1bfc96842a05eb0b9f228d099beaa1aa9d4d76158a44cb0cec7458f4",
        },
    ),
    "data-scarce-compare": (
        ["compare", "--scenario", "scenarios/data_scarce.json", "--seeds", "3,4",
         "--eval-slots", "200"],
        {
            "comparison.json": "55d36094ba9ab934a188cc25d7f3c1ff703792dbc604c8166fcd2ba2e678137c",
            "comparison.txt": "486a61f724b294123fba61168b12e9fdb38a9d7dabed436bef35a7dad05f67ce",
            "metrics.csv": "1fcb4c5efa06c460bf13e21ed8aeb18cfa266d2495c4cf1b34410a31f4cffee2",
        },
    ),
    "dense-gossip-run": (
        ["run", "--scenario", "bench/scenarios/dense_gossip.json", "--topology", "gossip",
         "--export-models", "--training-slots", "40", "--eval-slots", "5"],
        {
            "metrics.csv": "f8d7fac5bb6db884ed62896169ea7116a877182c96f60f1fd1bb3ef7892e4683",
            "models.json": "6129c0066d8943950883ce6e2fba644b2fcda35f5e4e8ced5b0db779158541f5",
            "summary.json": "cb52ba1ee21999ecac09fc263ab69230fcfd5484b54bccbb551782ac7f60619f",
        },
    ),
    "default-generate": (
        ["generate", "--scenario", "scenarios/default.json", "--sensor-id", "5",
         "--slots", "1000"],
        {
            "dataset.csv": "7bebe517c0cedc2fdac85299b98a25a2263f63377a568740c3d1551e7c42c8da",
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


if __name__ == "__main__":
    for name, (argv, _) in CASES.items():
        with tempfile.TemporaryDirectory() as out:
            with contextlib.redirect_stdout(sys.stderr):  # the CLI's "wrote" lines
                assert main(argv + ["--out-dir", out]) == 0
            print(f'    "{name}": (\n        ...\n        {{')
            for path in sorted(Path(out).iterdir()):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f'            "{path.name}": "{digest}",')
            print("        },\n    ),")
