"""In-memory span tracer around imondrian's public functions.

`Tracer.install` replaces module attributes with timing wrappers, so it sees
exactly the calls that go through the name a calling module looks up
(``imondrian.forest.fit_tree``, ``imondrian.cli.load_model``, ...). Nothing in
the package is edited, and `Tracer.uninstall` puts the originals back.

A traced function that no longer exists is skipped: its span records zero
calls, and the time it used to take shows up as self time of its caller.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from contextlib import contextmanager

import numpy as np

from adapters import as_scores

# span name -> (module under imondrian, function name)
TRACED = {
    "cli.fit": ("cli", "cmd_fit"),
    "cli.score": ("cli", "cmd_score"),
    "data_io.load_csv": ("data_io", "load_csv"),
    "data_io.save_model": ("data_io", "save_model"),
    "data_io.load_model": ("data_io", "load_model"),
    "data_io.write_scores": ("data_io", "write_scores"),
    "decision.fit_kmeans2": ("decision", "fit_kmeans2"),
    "decision.assign_all": ("decision", "assign_all"),
    "evaluation.auc": ("evaluation", "auc"),
    "forest.train_batch": ("forest", "train_batch"),
    "forest.score_all": ("forest", "score_all"),
    "forest.extend_forest": ("forest", "extend_forest"),
    "forest.rescore_window": ("forest", "rescore_window"),
    "tree.fit_tree": ("tree", "fit_tree"),
    "tree.path_lengths": ("tree", "path_lengths"),
    "tree.extend_tree": ("tree", "extend_tree"),
}


# Counts taken from a call's arguments and result, keyed by span name.
# Each returns {count name: amount}.
def _file_bytes(path) -> dict:
    return {"bytes": os.path.getsize(path)}


COUNTERS = {
    "data_io.load_csv": lambda args, out: _file_bytes(args[0]),
    "data_io.save_model": lambda args, out: _file_bytes(args[1]),
    "data_io.load_model": lambda args, out: _file_bytes(args[0]),
    "data_io.write_scores": lambda args, out: {"rows": len(args[1])},
    "forest.score_all": lambda args, out: {"points": as_scores(out).size},
    "forest.rescore_window": lambda args, out: {"points": as_scores(out).size},
    "forest.extend_forest": lambda args, out: {"points": len(args[1])},
    "tree.fit_tree": lambda args, out: {"nodes": out.node_count},
    "tree.path_lengths": lambda args, out: {"points": out.size, "depth": int(out.sum())},
}

# spans whose result is a forest worth inspecting at the end of a cycle
FOREST_RESULTS = ("forest.train_batch", "data_io.load_model")


class Tracer:
    """Spans (name, start, end, parent) and per-span-name counts, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: dict[str, dict[str, float]] = {}
        self.last_forest = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.starts)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Span around the benchmark's own unit of work (a cycle, an arrival)."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _count(self, name: str, args, out) -> None:
        if name in FOREST_RESULTS:
            self.last_forest = out
        counter = COUNTERS.get(name)
        if counter is None:
            return
        try:
            amounts = counter(args, out)
        except (AttributeError, IndexError, OSError, TypeError, ValueError):
            return  # the call's shape changed; its time is still recorded
        totals = self.counts.setdefault(name, {})
        for key, value in amounts.items():
            totals[key] = totals.get(key, 0) + value

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self._count(name, args, out)
            return out

        return traced

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function under every module name that refers to it."""
        modules = [m for key, m in list(sys.modules.items()) if key == "imondrian" or key.startswith("imondrian.")]
        for name, (module_name, fn_name) in TRACED.items():
            try:
                home = importlib.import_module(f"imondrian.{module_name}")
            except ImportError:
                continue
            fn = getattr(home, fn_name, None)
            if fn is None:
                continue
            wrapper = self._wrap(name, fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds, and its counts.

        Self time is a span's duration minus the durations of its direct
        children; calls are synchronous, so children never overlap.
        """
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents, dtype=np.int64)
        child = np.zeros_like(dur)
        nested = parents >= 0
        np.add.at(child, parents[nested], dur[nested])
        own = dur - child
        out: dict[str, dict[str, float]] = {}
        names = np.asarray(self.names)
        for name in sorted(set(self.names)):
            mask = names == name
            out[name] = {
                "calls": int(mask.sum()),
                "total_s": float(dur[mask].sum()),
                "self_s": float(own[mask].sum()),
                **self.counts.get(name, {}),
            }
        return out

    def write(self, path) -> None:
        """Write every span as [name index, start, end, parent index]."""
        names = sorted(set(self.names))
        index = {name: i for i, name in enumerate(names)}
        spans = [
            [index[n], s, e, p] for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]
        with open(path, "w") as handle:
            json.dump({"names": names, "spans": spans}, handle, separators=(",", ":"))
