"""Span tracing of the program's layers, installed from outside the program.

A layer is a module of the ``causalcrit`` package. Its boundary functions
are the plain functions it lists in ``__all__`` plus the ones another
module of the package imports from it (found by parsing the package's
``from .module import name`` statements). Each is replaced by a wrapper in
every module namespace that binds it, so calls through any import path are
seen. A wrapper records one span per call: function, parent span, request,
start and end, whether an exception escaped, and for a few functions a
count read from the returned value. Spans stay in memory; :meth:`summary`
turns them into per-function totals, where self time is the inclusive time
minus the time of the wrapped children.
"""

from __future__ import annotations

import ast
import functools
import importlib
import inspect
import json
import pkgutil
import time
from pathlib import Path


# Per-function totals kept by :meth:`Tracer.summary`.
FIELDS = ("calls", "errors", "incl_ns", "self_ns", "count_sum", "count_max")

# Exact work counters read from return values: (layer, function) -> extractor.
EXTRACT = {
    ("model", "joint_table"): lambda out: int(out[1].size),
    ("graph", "enumerate_adjustment_sets"): len,
    ("model", "sample"): len,
    ("io", "load_dataset"): len,
}


def boundary_functions(package) -> dict[tuple[str, str], object]:
    """(layer, name) -> function for every layer boundary of ``package``."""
    modules = {}
    for info in pkgutil.iter_modules(package.__path__):
        modules[info.name] = importlib.import_module(f"{package.__name__}.{info.name}")
    names = {layer: set(getattr(mod, "__all__", ())) for layer, mod in modules.items()}
    for mod in modules.values():
        tree = ast.parse(Path(mod.__file__).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in names:
                names[node.module].update(alias.name for alias in node.names)
    out = {}
    for layer, wanted in names.items():
        mod = modules[layer]
        for name in sorted(wanted):
            fn = getattr(mod, name, None)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                out[(layer, name)] = fn
    return out


class Tracer:
    def __init__(self):
        self.keys: list[tuple[str, str]] = []
        self.spans: list = []
        self.stack = [-1]
        self.request = -1
        self.enabled = True

    def _wrap(self, fn, key: tuple[str, str]):
        key_id = len(self.keys)
        self.keys.append(key)
        extract = EXTRACT.get(key)
        spans, stack, clock, tracer = self.spans, self.stack, time.perf_counter_ns, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            failed, count = True, 0
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                failed = False
                return out
            finally:
                t1 = clock()
                stack.pop()
                if extract is not None and not failed:
                    count = extract(out)
                spans[sid] = (key_id, parent, tracer.request, t0, t1, failed, count)

        return wrapper

    def install(self, package, roots=()) -> None:
        """Wrap every boundary function of ``package`` and each ``(module, name)`` in ``roots``.

        ``roots`` are entry points the benchmark calls directly, such as
        ``cli.main``; they are wrapped where they are defined.
        """
        targets = boundary_functions(package)
        for mod, name in roots:
            targets[(mod.__name__.rsplit(".", 1)[-1], name)] = getattr(mod, name)
        wrappers = {id(fn): self._wrap(fn, key) for key, fn in sorted(targets.items())}
        namespaces = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if id(value) in wrappers:
                    setattr(ns, attr, wrappers[id(value)])

    def reset(self) -> None:
        self.spans.clear()

    def summary(self) -> dict[str, dict]:
        """Per-function totals over the recorded spans, keyed ``layer.function``."""
        child_ns = [0] * len(self.spans)
        for key_id, parent, _req, t0, t1, _failed, _count in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        totals = {f"{layer}.{name}": dict.fromkeys(FIELDS, 0) for layer, name in self.keys}
        for sid, (key_id, _parent, _req, t0, t1, failed, count) in enumerate(self.spans):
            t = totals["%s.%s" % self.keys[key_id]]
            t["calls"] += 1
            t["errors"] += int(failed)
            t["incl_ns"] += t1 - t0
            t["self_ns"] += t1 - t0 - child_ns[sid]
            t["count_sum"] += count
            t["count_max"] = max(t["count_max"], count)
        return totals

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines, after a header line naming the functions."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"functions": ["%s.%s" % k for k in self.keys]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
