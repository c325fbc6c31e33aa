"""Span tracer for the benchmark's traced run.

`Tracer.install` wraps every public function defined in the sdlattice layer
modules and rebinds each name wherever it is bound: in the defining module,
in every sdlattice module that imported it by name (`solver` binds
`curvature`, `residual` and `shifted_read`; `cli` binds `load` and `save`),
and in the package namespace.  Modules are looked up through
``sys.modules["sdlattice.<mod>"]`` because ``import sdlattice.curvature``
yields the re-exported *function*, not the module.

Each call made while the tracer is active records a span: name, start, end,
parent span and op id.  Spans are kept in memory, in flat typed arrays, and
written out by `write`.  Per-name totals (calls, self time, computed bytes)
are accumulated as spans close; a span's self time is its duration minus
the time its child spans cover.
"""
from __future__ import annotations

import inspect
import os
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("solver", "curvature", "cochain", "hodge", "duality", "fieldio", "cli")


def _array_bytes(obj) -> int:
    """Bytes of the arrays an argument or result holds (fields via .data)."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    data = getattr(obj, "data", None)
    if isinstance(data, np.ndarray):
        return data.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_array_bytes(x) for x in obj)
    return 0


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


# Field I/O is measured in bytes of file written or read, not array bytes.
_FILE_ARG = {"fieldio.save": 1, "fieldio.load": 0}


class Tracer:
    def __init__(self):
        self.active = False
        self.op_id = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._next_id = 0
        self._stack: list[list] = []  # [span id, name, child time]
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.nbytes: Counter = Counter()
        self.calls_by_parent: Counter = Counter()  # (name, parent name)
        self.solver_iterations = 0
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        self._name_ids[name] = name_id
        file_arg = _FILE_ARG.get(name)
        stack = self._stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [sid, name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[2] += duration
                self.span_id.append(sid)
                self.span_name.append(name_id)
                self.span_parent.append(parent[0] if parent is not None else -1)
                self.span_op.append(self.op_id)
                self.span_start.append(start)
                self.span_end.append(end)
                self.calls[name] += 1
                self.self_s[name] += duration - frame[2]
                self.calls_by_parent[(name, parent[1] if parent else None)] += 1
            if file_arg is not None:
                self.nbytes[name] += _file_bytes(args[file_arg])
            else:
                self.nbytes[name] += (
                    sum(_array_bytes(a) for a in args)
                    + sum(_array_bytes(a) for a in kwargs.values())
                    + _array_bytes(result)
                )
            if name == "solver.solve":
                self.solver_iterations += result[1].iterations
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, extra_modules=()) -> None:
        """Wrap the layer modules' public functions and rebind every alias."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"sdlattice.{layer}"]
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == module.__name__
                ):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        targets = [
            m for n, m in list(sys.modules.items())
            if n == "sdlattice" or n.startswith("sdlattice.")
        ]
        targets.extend(extra_modules)
        for module in targets:
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patches):
            setattr(module, attr, obj)
        self._patches.clear()

    @property
    def n_spans(self) -> int:
        return len(self.span_id)

    def write(self, path) -> None:
        """Write every recorded span to an .npz file (times in perf_counter s)."""
        np.savez(
            path,
            names=np.array(self.names),
            span_id=np.frombuffer(self.span_id, dtype=np.int64),
            name_id=np.frombuffer(self.span_name, dtype=np.int32),
            parent_id=np.frombuffer(self.span_parent, dtype=np.int64),
            op_id=np.frombuffer(self.span_op, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
