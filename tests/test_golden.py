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
            "comparison.json": "b543dd42475157bb1cb991ccba4f8cac75f460c6847f4b34cae61c430f72526a",
            "comparison.txt": "1dd4a7198e20e52ed9f532a50dda65c755759ce97b6cfba3fa3589bbeb0188ef",
            "metrics.csv": "1da14b45254ffbea5250fd4928bedbee391c615a03aaad6aa6c3a72bb2e10214",
        },
    ),
    "data-scarce-compare": (
        ["compare", "--scenario", "scenarios/data_scarce.json", "--seeds", "3,4",
         "--eval-slots", "200"],
        {
            "comparison.json": "adcd0a0275a04ecbf22c38bb8ecd4a79d8909a5abcba9cc608f6146ac731ad2c",
            "comparison.txt": "1bd4735aaef2cbfa89aa091a0884d1194a57d6c41826ead09a7065bec3055abb",
            "metrics.csv": "fae6171f7a6b257481c520f63ad38a90b18e50f441f62a58dc93c94330f7be1d",
        },
    ),
    "dense-gossip-run": (
        ["run", "--scenario", "bench/scenarios/dense_gossip.json", "--topology", "gossip",
         "--export-models", "--training-slots", "40", "--eval-slots", "5"],
        {
            "metrics.csv": "f8d7fac5bb6db884ed62896169ea7116a877182c96f60f1fd1bb3ef7892e4683",
            "models.json": "f845d985f3fc838a0fde0e86049717f9144eb4c80a316d518b896d5e0874337b",
            "summary.json": "6f6ccbf4a67550e0d36497e25254264b0b7005683a2b2f47ae6a5b8cc21aa369",
        },
    ),
    "default-generate": (
        ["generate", "--scenario", "scenarios/default.json", "--sensor-id", "5",
         "--slots", "1000"],
        {
            "dataset.csv": "e9c66c273f7401351d24ab0622010f82960a4650fd6ce3428ede80ffd3dad26e",
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
