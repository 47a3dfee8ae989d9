import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import fedspectrum
from fedspectrum import engine


def test_every_exported_name_resolves_and_is_listed_once():
    names = fedspectrum.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(fedspectrum, name)] == []


def test_every_exported_name_is_documented_in_the_readme():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert [name for name in fedspectrum.__all__ if name not in readme] == []


def test_the_readme_python_block_runs_from_the_repo_root():
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run(
        [sys.executable, "-c", blocks[0]], cwd=root, capture_output=True, text=True, env=env
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert 0.0 <= float(done.stdout) <= 1.0  # the printed accuracy


def test_every_bench_import_from_the_package_resolves():
    # no test imports bench/probe.py, so a name pruned from the package would
    # otherwise fail only when the benchmark runs
    bench = Path(__file__).resolve().parents[1] / "bench"
    missing = []
    for path in sorted(bench.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.ImportFrom) and node.level == 0 and node.module):
                continue
            if node.module.split(".")[0] != "fedspectrum":
                continue
            module = importlib.import_module(node.module)
            for alias in node.names:
                if not hasattr(module, alias.name):
                    try:  # a submodule: ``from fedspectrum import cli``
                        importlib.import_module(f"{node.module}.{alias.name}")
                    except ModuleNotFoundError:
                        missing.append(f"{path.name}: {node.module}.{alias.name}")
    assert missing == []


def test_runtime_imports_no_scipy():
    # scipy is a test dependency only: importing the CLI must not load it
    src = Path(fedspectrum.__file__).resolve().parents[1]
    code = "import sys, fedspectrum.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (done.returncode, done.stderr, done.stdout) == (0, "", "[]\n")


def test_engine_calls_into_federation_through_its_own_functions():
    # bench/layers.py times a call into a layer by wrapping the functions
    # engine imports, and names the layer by their __module__; a closure or a
    # callable object would count as engine time
    tree = ast.parse(Path(engine.__file__).read_text(encoding="utf-8"))
    names = [
        alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and (node.level, node.module) == (1, "federation")
        for alias in node.names
    ]
    assert {"gossip_mix", "gossip_mixer", "fedavg_mix"} <= set(names)
    for name in names:
        obj = getattr(engine, name)
        if callable(obj):
            assert inspect.isfunction(obj) or inspect.isclass(obj), name
            assert obj.__module__ == "fedspectrum.federation", name
