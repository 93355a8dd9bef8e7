"""Per-module timing for the traced run.

`Tracer.install` wraps named relguide functions in place. A module that
bound a function with ``from ... import`` holds its own reference, so the
wrapper replaces the function under every name, in every relguide module,
that refers to it. Each wrapper records calls, inclusive time and self time
(inclusive time minus the time of wrapped calls made inside it, and minus
the tracer's own bookkeeping). Recording is on only while `recording` is set,
so the benchmark's checks stay out of the figures.

`TRACED` is the one table of traced functions: what each one counts and the
metric rows reported for it. `PER_LAYER` is derived from it.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

PACKAGE = "relguide"


@dataclass
class Stat:
    calls: int = 0
    incl: float = 0.0  # seconds
    self: float = 0.0  # seconds
    count: float = 0.0  # a per-call quantity summed over calls (samples, seeds, nodes, ...)


def graph_nodes(root) -> int:
    """Nodes reachable from an autodiff tensor through `parents`."""
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(getattr(node, "parents", ()))
    return len(seen)


def _length_of(param):
    """A counter reading the length of one argument, by parameter name."""
    def make(fn):
        sig = inspect.signature(fn)
        return lambda args, kwargs: len(sig.bind(*args, **kwargs).arguments[param])
    return make


@dataclass(frozen=True)
class Traced:
    """One wrapped function, ``module.qualname`` under relguide, and its rows.

    ``ms`` and ``self_ms`` name what inclusive and self time are divided by
    (None: not reported): "call", "round", "training sample", "mini-batch",
    or "counted" (the quantity `count` adds up). ``calls`` reports calls per
    round. ``count`` is (metric name, better, basis) for the counted
    quantity, read from the call's arguments by ``on_args`` (before the
    call, so backward's graph is still whole) or from its result by
    ``on_result``.
    """

    key: str
    ms: Optional[str] = "call"
    self_ms: Optional[str] = None
    calls: bool = True
    count: Optional[tuple] = None
    on_args: Optional[Callable] = None  # fn -> (args, kwargs) -> number
    on_result: Optional[Callable] = None  # result -> number

    def rows(self):
        """(name, unit, better, key, field, basis) for each reported metric."""
        out = []
        if self.ms:
            out.append((f"{self.key}.ms", "ms", "lower", self.key, "ms", self.ms))
        if self.self_ms:
            out.append((f"{self.key}.self_ms", "ms", "lower", self.key, "self_ms", self.self_ms))
        if self.calls:
            out.append((f"{self.key}.calls", "count", "lower", self.key, "calls", "round"))
        if self.count:
            name, better, basis = self.count
            out.append((name, "count", better, self.key, "count", basis))
        return out


TRACED = (
    Traced("data.augment", ms="training sample"),
    Traced("data.load_dataset"),
    Traced("network.forward_with_trace", ms="training sample", self_ms="training sample"),
    Traced("network.forward_inference", self_ms="call"),
    Traced("network.load_weights"),
    Traced("lrp.relevance_graph", ms="training sample", self_ms="training sample"),
    Traced("lrp.relevance_stack", self_ms="call", count=("lrp.relevance_stack.seeds", "lower", "round"),
           on_args=_length_of("seeds")),
    Traced("lrp.render_heatmap"),
    Traced("engine.backward", ms="training sample", self_ms="training sample",
           count=("engine.backward.nodes", "lower", "call"),
           on_args=lambda fn: lambda args, kwargs: graph_nodes(args[0])),
    Traced("training.Adam.step", ms="mini-batch"),
    Traced("training.train", ms=None, self_ms="mini-batch", calls=False),
    Traced("training.evaluate", ms="counted", self_ms="counted", on_args=_length_of("dataset")),
    *(Traced(f"kernels.{k}") for k in
      ("im2col", "col2im", "col2im_stack", "maxpool_forward", "pool_scatter", "pool_gather")),
    Traced("atlas.build_index", ms="counted", calls=False, on_args=_length_of("samples")),
    Traced("atlas.query_knn", calls=False),
    Traced("bilrp.bilrp", self_ms="call", calls=False, count=("bilrp.units_used", "higher", "call"),
           on_result=lambda out: out.units_used),
    Traced("bilrp.export_json", calls=False),
)

PER_LAYER = tuple(row for t in TRACED for row in t.rows())


class Tracer:
    def __init__(self):
        self.stats = {}
        self.missing = []  # keys of TRACED the program does not have
        self.recording = False
        self._stack = []  # per active wrapped call: seconds spent in wrapped children
        self._undo = []

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for t in TRACED:
            mod_name, qual = t.key.split(".", 1)
            owner = sys.modules.get(f"{PACKAGE}.{mod_name}")
            *cls_path, attr = qual.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(t.key)
                print(f"tracing: {PACKAGE}.{t.key} not found; its metrics read 0", file=sys.stderr)
                continue
            self.stats[t.key] = Stat()
            wrapper = self._wrap(self.stats[t.key], fn, t.on_args(fn) if t.on_args else None, t.on_result)
            for holder in [owner] if cls_path else modules:
                for name, value in list(vars(holder).items()):
                    if value is fn:
                        self._undo.append((holder, name, fn))
                        setattr(holder, name, wrapper)

    def uninstall(self) -> None:
        for holder, name, fn in reversed(self._undo):
            setattr(holder, name, fn)
        self._undo.clear()

    def value(self, row, norm: dict) -> float:
        """One row of PER_LAYER from the records; `norm` holds the counts of
        rounds, training samples and mini-batches."""
        _, _, _, key, field, basis = row
        st = self.stats.get(key, Stat())
        value = {"ms": 1e3 * st.incl, "self_ms": 1e3 * st.self, "calls": st.calls, "count": st.count}[field]
        denom = {"call": st.calls, "counted": st.count}.get(basis, norm.get(basis))
        return value / denom if denom else 0.0

    def _wrap(self, stat, fn, count_args, count_result):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            enter = time.perf_counter()
            if count_args:
                stat.count += count_args(args, kwargs)
            stack.append(0.0)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                stat.calls += 1
                stat.incl += elapsed
                stat.self += elapsed - children
            if count_result:
                stat.count += count_result(out)
            if stack:
                stack[-1] += time.perf_counter() - enter
            return out

        return wrapper
