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


BENCH = Path(__file__).resolve().parents[1] / "bench"


def bench_imports():
    """(file, import) of each ``from fedspectrum[.module] import`` in ``bench/``."""
    for path in sorted(BENCH.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                if node.module.split(".")[0] == "fedspectrum":
                    yield path, node


def test_every_bench_import_from_the_package_resolves():
    # no test imports bench/probe.py, so a name pruned from the package would
    # otherwise fail only when the benchmark runs
    missing = []
    for path, node in bench_imports():
        module = importlib.import_module(node.module)
        for alias in node.names:
            if not hasattr(module, alias.name):
                try:  # a submodule: ``from fedspectrum import cli``
                    importlib.import_module(f"{node.module}.{alias.name}")
                except ModuleNotFoundError:
                    missing.append(f"{path.name}: {node.module}.{alias.name}")
    assert missing == []


def test_the_cli_imports_numpy_and_the_standard_library_only():
    # pyproject's one dependency is numpy (scipy is for the tests only), and
    # every module the CLI loads beyond numpy's adds to each command's set-up
    code = ("import sys, numpy, numpy.random; before = {m.split('.')[0] for m in sys.modules}; "
            "import fedspectrum.cli; new = {m.split('.')[0] for m in sys.modules} - before; "
            "print(sorted(new - set(sys.stdlib_module_names)))")
    env = {**os.environ, "PYTHONPATH": str(Path(fedspectrum.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (done.returncode, done.stderr, done.stdout) == (0, "", "['fedspectrum']\n")


def test_src_holds_no_api_that_only_the_tests_call():
    # a public top-level function, class or constant of src/ that no other
    # top-level statement there uses, that __all__ does not list and that no
    # bench/ file imports is test-only API, which belongs in tests/oracles.py
    reads = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}  # the name a node reads
    kept = set(fedspectrum.__all__) | {a.name for _, node in bench_imports() for a in node.names}
    statements = [(path.stem, node) for path in sorted(BENCH.parent.glob("src/fedspectrum/*.py"))
                  for node in ast.parse(path.read_text(encoding="utf-8")).body]
    uses = [{getattr(sub, reads[type(sub)]) for sub in ast.walk(node) if type(sub) in reads}
            for _, node in statements]
    unused = []
    for (module, node), own in zip(statements, uses):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        else:  # an Assign's targets or an AnnAssign's target
            names = [t.id for t in getattr(node, "targets", [getattr(node, "target", None)])
                     if isinstance(t, ast.Name)]
        unused += [f"{module}.{name}" for name in names if not name.startswith("_")
                   and name not in kept and not any(name in use for use in uses if use is not own)]
    assert unused == []


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
