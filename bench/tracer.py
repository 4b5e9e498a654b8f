"""Span tracer for the benchmark's traced run.

Wraps, at the names the package looks them up by:
  * every public function and public method of the layer modules
    (``seqmps.linalg``, ``mps``, ``states``, ``compress``, ``seqgen``), in
    every ``seqmps`` namespace that holds it, e.g. ``seqmps.seqgen.procrustes_unitary``;
  * the numpy/scipy kernel entry points the package calls, e.g.
    ``numpy.einsum`` and ``scipy.linalg.schur``.  A kernel call is recorded
    only when its immediate caller is seqmps code, never when a kernel calls
    another kernel or when the benchmark itself calls numpy.

Each recorded call is a span (name, start, end, parent span, operation id)
kept in flat in-memory arrays and written out once at the end.  Self time is
a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from array import array

import numpy as np
import scipy.linalg

LAYERS = ("linalg", "mps", "states", "compress", "seqgen")

# Kernel span name -> (module, attribute) entry points that seqmps calls.
KERNELS = {
    "einsum": ((np, "einsum"),),
    "kron": ((np, "kron"),),
    "tensordot": ((np, "tensordot"),),
    "svd": ((np.linalg, "svd"),),
    "qr": ((np.linalg, "qr"),),
    "eigh": ((np.linalg, "eigh"), (scipy.linalg, "eigh")),
    "schur": ((scipy.linalg, "schur"),),
}


def _called_from_seqmps() -> bool:
    # Frame 0 is this function, 1 the wrapper, 2 the kernel's caller.
    return sys._getframe(2).f_globals.get("__name__", "").startswith("seqmps")


def einsum_costs(subscripts: str, shapes) -> tuple[int, int]:
    """(naive, best) multiply-add counts of one einsum call.

    Subscripts must name the output explicitly ("...->..."), as every seqmps
    call does.  naive is the product of every index extent (one loop nest over all
    indices); best sums, over the pairwise contractions of the path that
    ``np.einsum_path`` picks, the product of the extents each step touches.
    """
    lhs, _, out = subscripts.replace(" ", "").partition("->")
    terms = lhs.split(",")
    sizes = {}
    for term, shape in zip(terms, shapes):
        sizes.update(zip(term, shape))
    naive = math.prod(sizes.values())
    operands = [np.empty(shape, dtype=np.int8) for shape in shapes]
    path = np.einsum_path(subscripts, *operands, optimize="greedy")[0][1:]
    live = list(terms)
    best = 0
    for step in path:
        taken = [live.pop(j) for j in sorted(step, reverse=True)]
        touched = set("".join(taken))
        keep = set("".join(live)) | set(out)
        best += math.prod(sizes[c] for c in touched)
        live.append("".join(sorted(touched & keep)))
    return naive, best


class Tracer:
    """Installs span-recording wrappers; ``enabled`` gates recording."""

    def __init__(self):
        self.enabled = False
        self.op_id = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self._stack: list[list] = []  # open spans: [span index, child seconds]
        self.einsum_ops_naive = 0
        self.einsum_ops_best = 0
        self._einsum_memo: dict = {}
        self._patches: list[tuple] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        for short, sites in KERNELS.items():
            for owner, attr in sites:
                original = getattr(owner, attr)
                self._patch(owner, attr, self._wrap(f"kernels.{short}", original, kernel=True))
        namespaces = [m for name, m in sys.modules.items()
                      if name == "seqmps" or name.startswith("seqmps.")]
        for layer in LAYERS:
            module = sys.modules[f"seqmps.{layer}"]
            for attr, obj in vars(module).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrapper = self._wrap(f"{layer}.{attr}", obj)
                    for ns in namespaces:
                        for name, value in list(vars(ns).items()):
                            if value is obj:
                                self._patch(ns, name, wrapper)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._install_methods(layer, obj)

    def _install_methods(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(f"{layer}.{attr}", raw.__func__))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(f"{layer}.{attr}", raw)
            else:
                continue  # properties and class constants stay as they are
            self._patch(cls, attr, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        # vars() keeps a staticmethod wrapped, so uninstall restores it as is.
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self._ids[name]

    def _wrap(self, name: str, fn, kernel: bool = False):
        nid = self._id(name)
        is_einsum = name == "kernels.einsum"
        tracer = self
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled or (kernel and not _called_from_seqmps()):
                return fn(*args, **kwargs)
            if is_einsum:
                tracer._count_einsum(args)
            stack = tracer._stack
            idx = len(tracer.span_start)
            tracer.span_name.append(nid)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            tracer.span_op.append(tracer.op_id)
            tracer.span_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            start = perf()
            tracer.span_start.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                tracer.span_end[idx] = end
                dur = end - start
                tracer.calls[nid] += 1
                tracer.self_s[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        return wrapper

    def _count_einsum(self, args) -> None:
        subscripts, operands = args[0], args[1:]
        key = (subscripts, tuple(np.shape(a) for a in operands))
        costs = self._einsum_memo.get(key)
        if costs is None:
            costs = self._einsum_memo[key] = einsum_costs(subscripts, key[1])
        self.einsum_ops_naive += costs[0]
        self.einsum_ops_best += costs[1]

    # -- results --------------------------------------------------------

    def stat(self, name: str) -> tuple[int, float]:
        """(calls, self seconds) of one span name, zeros if never wrapped."""
        nid = self._ids.get(name)
        return (0, 0.0) if nid is None else (self.calls[nid], self.self_s[nid])

    def save(self, path) -> None:
        """Write every span as flat arrays (numpy .npz) plus the name table."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
