"""Spans around the calls ``engine`` and ``cli`` make into the other layers.

The layers are the package's modules.  Tracing replaces, for the duration of
a ``with instrument(...)`` block, every public function that ``engine`` and
``cli`` import from another ``fedspectrum`` module by a wrapper that records
one span per call.  The layer is read from the function's ``__module__``, so
a function renamed or added later is still attributed to its module.
No package source is edited and the patches are undone when the block exits;
calls a layer makes to itself are part of its own time.
"""

from __future__ import annotations

import gzip
import inspect
import json
import time
from contextlib import contextmanager
from types import ModuleType
from typing import Callable, Iterator

PACKAGE = "fedspectrum"
SPAN_FIELDS = ("span_id", "parent_id", "request", "layer", "name", "start_ns", "end_ns", "self_ns")


def layer_of(fn: Callable) -> str:
    return fn.__module__.rsplit(".", 1)[-1]


class Tracer:
    """In-memory spans; a span's self time excludes the spans it caused."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.request = 0
        self._stack: list[list[int]] = []  # [span_id, child_ns] per open span
        self._next_id = 0

    def call(self, layer: str, name: str, fn: Callable, *args, **kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent_id = self._stack[-1][0] if self._stack else -1
        frame = [span_id, 0]
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += end - start
            self.spans.append(
                (span_id, parent_id, self.request, layer, name, start, end, end - start - frame[1])
            )

    def wrap(self, fn: Callable) -> Callable:
        layer, name, call = layer_of(fn), fn.__name__, self.call

        def traced(*args, **kwargs):
            return call(layer, name, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def write(self, path) -> None:
        """Gzipped JSON lines: a header naming the fields, then one array per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"fields": SPAN_FIELDS}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def imported_callables(modules) -> Iterator[tuple[ModuleType, str, Callable]]:
    """(namespace, attribute, function) for every cross-layer call target.

    A function imported by name is patched in the importing module; a
    function reached through an imported module (``cli`` calls
    ``engine.run_simulation``) is patched in its own module.
    """
    for mod in modules:
        for attr, obj in vars(mod).items():
            if attr.startswith("_"):
                continue
            if isinstance(obj, ModuleType) and obj.__name__.startswith(PACKAGE + "."):
                for name, fn in vars(obj).items():
                    if (
                        not name.startswith("_")
                        and inspect.isfunction(fn)
                        and fn.__module__ == obj.__name__
                    ):
                        yield obj, name, fn
            elif (
                inspect.isfunction(obj)
                and obj.__module__.startswith(PACKAGE + ".")
                and obj.__module__ != mod.__name__
            ):
                yield mod, attr, obj


@contextmanager
def instrument(on_result: Callable, tracer: Tracer | None = None):
    """Capture every ``RunResult`` (and trace, when given a tracer) inside the block."""
    from fedspectrum import cli, engine

    patches: dict[tuple[ModuleType, str], Callable] = {}
    if tracer is not None:
        for ns, attr, fn in imported_callables((engine, cli)):
            patches[(ns, attr)] = tracer.wrap(fn)
    simulate = patches.get((engine, "run_simulation"), engine.run_simulation)

    def capture(*args, **kwargs):
        result = simulate(*args, **kwargs)
        on_result(result)
        return result

    patches[(engine, "run_simulation")] = capture
    saved = {key: getattr(*key) for key in patches}
    try:
        for (ns, attr), fn in patches.items():
            setattr(ns, attr, fn)
        yield
    finally:
        for (ns, attr), fn in saved.items():
            setattr(ns, attr, fn)
