"""Spans around calls into dstk, recorded from outside the library.

``install`` wraps every public function of the eight dstk modules wherever
its name is bound inside dstk (the modules import each other's names), and
``numpy.linalg.svd``, ``scipy.linalg.qz`` and ``scipy.linalg.ordqz``.  A
wrapper records a span only while an operation is open, so the checks,
which run between operations, are never counted.  Spans are kept in flat
lists and written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np
import scipy.linalg

LAYERS = ("kernels", "system", "ops", "pencil", "analysis", "factor", "solve", "cli")

# functions whose calls and inclusive time are reported per operation
FUNCTIONS = {
    "kernels": ("rank_tol", "null_basis", "gschur_ordered", "gsylv_separation", "glyap"),
    "system": ("make_system", "eval_tfm", "probe_points"),
    "pencil": ("klf",),
    "analysis": ("minreal", "poles", "zeros", "normal_rank"),
    "factor": ("additive_decompose", "inner_outer", "rcf"),
    "solve": ("right_nullspace", "solve_right"),
    "cli": ("parse_system", "format_system"),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self.op = []
        self._stack = []
        self._op = -1

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid):
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op < 0:
                return fn(*args, **kwargs)
            sid = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)

        return traced

    def run_op(self, op_id, label, fn):
        """Run ``fn`` as operation ``op_id`` under a top-level span."""
        self._op = op_id
        sid = self._open(self._id("bench." + label))
        try:
            return fn()
        finally:
            self._close(sid)
            self._op = -1

    def install(self):
        import dstk

        modules = {name: sys.modules[f"dstk.{name}"] for name in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        for mod in [dstk, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
        np.linalg.svd = self.wrap("linalg.svd", np.linalg.svd)
        scipy.linalg.qz = self.wrap("linalg.qz", scipy.linalg.qz)
        scipy.linalg.ordqz = self.wrap("linalg.qz", scipy.linalg.ordqz)

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("op\tname\tstart\tend\tparent\n")
            for i in range(len(self.start)):
                fh.write(f"{self.op[i]}\t{self.names[self.name[i]]}\t{self.start[i]!r}\t{self.end[i]!r}\t{self.parent[i]}\n")

    def per_op(self, n_ops):
        """Per-layer metrics, per operation, from the recorded spans."""
        count = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(count)]
        child = [0.0] * count
        for i in range(count):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        calls = defaultdict(int)
        incl = defaultdict(float)
        self_time = defaultdict(float)
        for i in range(count):
            name = self.names[self.name[i]]
            calls[name] += 1
            self_time[name.split(".", 1)[0]] += dur[i] - child[i]
            # inclusive time counts only the outermost span of a name
            j = self.parent[i]
            while j >= 0 and self.name[j] != self.name[i]:
                j = self.parent[j]
            if j < 0:
                incl[name] += dur[i]
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_ms_per_op"] = (1e3 * self_time[layer] / n_ops, "ms/op")
        for layer, fns in FUNCTIONS.items():
            for fn in fns:
                out[f"{layer}.{fn}.calls_per_op"] = (calls[f"{layer}.{fn}"] / n_ops, "calls/op")
                out[f"{layer}.{fn}.ms_per_op"] = (1e3 * incl[f"{layer}.{fn}"] / n_ops, "ms/op")
        out["linalg.svd.calls_per_op"] = (calls["linalg.svd"] / n_ops, "calls/op")
        out["linalg.qz.calls_per_op"] = (calls["linalg.qz"] / n_ops, "calls/op")
        return out
