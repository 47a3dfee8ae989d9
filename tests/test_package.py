import os
import subprocess
import sys
from pathlib import Path

import fedspectrum


def test_every_exported_name_resolves_and_is_listed_once():
    names = fedspectrum.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(fedspectrum, name)] == []


def test_runtime_imports_no_scipy():
    # scipy is a test dependency only: importing the CLI must not load it
    src = Path(fedspectrum.__file__).resolve().parents[1]
    code = "import sys, fedspectrum.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (done.returncode, done.stderr, done.stdout) == (0, "", "[]\n")
