"""The golden cases in a child process on one CPU and under another host's
numpy and OpenBLAS dispatch.

On one CPU sensing draws every sensor on the calling thread.  Each sensor's
rows are its own whichever worker draws them, so every file a golden case
writes there, float files included, must match its pinned hash in
``test_golden.py``.  The child pins itself before it imports the simulator and
stops if sensing still sees more than one CPU, so a pin that fails is a failing
case, not a quiet two-worker run.

A host whose numpy picks other SIMD targets, or whose OpenBLAS picks another
kernel, may round floats differently, so ``models.json`` and ``dataset.csv``
can change there.  The count-valued files must not: each golden case runs
under an emulated setting, which must be in the environment before numpy is
imported, and every count file it writes must match its pinned hash.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_golden import CASES

ROOT = Path(__file__).resolve().parents[1]
COUNT_FILES = {"metrics.csv", "comparison.json", "comparison.txt", "summary.json"}
AVX512_TARGETS = ("X86_V4", "AVX512_ICL", "AVX512_SPR")
SETTINGS = {
    # numpy's AVX512 targets off: an AVX2 host's dispatch
    "avx2": {"NPY_DISABLE_CPU_FEATURES": " ".join(AVX512_TARGETS)},
    "haswell": {"OPENBLAS_CORETYPE": "Haswell"},
}
CLI = ["-m", "fedspectrum.cli"]
ONE_CPU_CLI = ["-c", """\
import os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from fedspectrum import radio
if radio._worker_count() != 1:
    sys.exit(f"pinned to one CPU, sensing still sees {radio._worker_count()}")
from fedspectrum.cli import main
sys.exit(main(sys.argv[1:]))
"""]


def dispatched_targets():
    """The SIMD targets numpy dispatches, read as CI's AVX2 step reads them."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__
    return set(__cpu_dispatch__)


def run_case(name, cli, setting, out):
    """sha256 of each file golden case ``name`` writes to ``out`` when ``python
    *cli`` runs it in a child with ``setting`` as its only dispatch setting."""
    # one setting at a time, whatever the calling environment sets
    env = {k: v for k, v in os.environ.items() if not any(k in s for s in SETTINGS.values())}
    env.update(setting)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv, _ = CASES[name]
    done = subprocess.run(
        [sys.executable, *cli, *argv, "--out-dir", str(out)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()}


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity to pin")
@pytest.mark.parametrize("name", list(CASES))
def test_every_output_holds_on_one_cpu(name, tmp_path):
    assert run_case(name, ONE_CPU_CLI, {}, tmp_path) == CASES[name][1]


@pytest.mark.parametrize("name", list(CASES))
@pytest.mark.parametrize("setting", list(SETTINGS))
def test_count_outputs_hold_under_other_dispatch(setting, name, tmp_path):
    if setting == "avx2" and not set(AVX512_TARGETS) <= dispatched_targets():
        # naming a target numpy does not dispatch aborts its import
        pytest.skip(f"numpy does not dispatch {' '.join(AVX512_TARGETS)}")
    written, pinned = run_case(name, CLI, SETTINGS[setting], tmp_path), CASES[name][1]
    assert set(written) == set(pinned)
    counts = {file: digest for file, digest in written.items() if file in COUNT_FILES}
    assert counts == {file: digest for file, digest in pinned.items() if file in COUNT_FILES}
