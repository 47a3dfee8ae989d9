"""The count outputs under another host's numpy and OpenBLAS dispatch.

A host whose numpy picks other SIMD targets, or whose OpenBLAS picks another
kernel, may round floats differently, so ``models.json`` and
``dataset.csv`` can change there.  The count-valued files must not: each
golden case runs in a subprocess under an emulated setting, which must be in
the environment before numpy is imported, and every count file it writes
must match its pinned hash in ``test_golden.py``.
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


def dispatched_targets():
    """The SIMD targets numpy dispatches, read as CI's AVX2 step reads them."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__
    return set(__cpu_dispatch__)


@pytest.mark.parametrize("name", list(CASES))
@pytest.mark.parametrize("setting", list(SETTINGS))
def test_count_outputs_hold_under_other_dispatch(setting, name, tmp_path):
    if setting == "avx2" and not set(AVX512_TARGETS) <= dispatched_targets():
        # naming a target numpy does not dispatch aborts its import
        pytest.skip(f"numpy does not dispatch {' '.join(AVX512_TARGETS)}")
    # one setting at a time, whatever the calling environment sets
    env = {k: v for k, v in os.environ.items() if not any(k in s for s in SETTINGS.values())}
    env.update(SETTINGS[setting])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv, pinned = CASES[name]
    done = subprocess.run(
        [sys.executable, "-m", "fedspectrum.cli", *argv, "--out-dir", str(tmp_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    written = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.iterdir()
    }
    assert set(written) == set(pinned)
    counts = {file: digest for file, digest in written.items() if file in COUNT_FILES}
    assert counts == {file: digest for file, digest in pinned.items() if file in COUNT_FILES}
