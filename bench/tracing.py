"""Span tracing of pqpan's public functions, installed from outside.

:func:`install` replaces every public function of the layer modules with a
wrapper that records a span (name, parent span, start, end); every op runs
under a root span, so the parent chain ties each span to its op. The
package re-imports many names with ``from .x import y``, so each wrapper is
also written over every other module attribute that held the original.
Spans live in flat integer arrays until :meth:`Tracer.layer_stats` folds
them into per-name call counts and self times (span minus child spans).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

LAYERS = ("reference", "config", "link", "energy", "kem", "sim", "cli")
#: Methods traced besides module-level functions: span name -> (module, class, method).
METHODS = {"sim.to_jsonl": ("sim", "FrameTrace", "to_jsonl")}
ROOT_SPAN = "op"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.parent = array("q")
        self.name = array("q")
        self.t0 = array("q")
        self.t1 = array("q")
        self._stack = [-1]
        self.counters: dict[str, int] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        sid = len(self.t0)
        self.parent.append(self._stack[-1])
        self.name.append(nid)
        self.t1.append(0)
        self._stack.append(sid)
        self.t0.append(time.perf_counter_ns())
        return sid

    def close(self, sid: int) -> None:
        self.t1[sid] = time.perf_counter_ns()
        self._stack.pop()

    def count(self, key: str, n: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def run_op(self, fn, *args):
        """Run one benchmark op under a root span that all its spans descend from."""
        sid = self.open(self.name_id(ROOT_SPAN))
        try:
            return fn(*args)
        finally:
            self.close(sid)

    def layer_stats(self) -> dict[str, tuple[int, int]]:
        """Span name -> (calls, self time in ns)."""
        n = len(self.t0)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.t1[i] - self.t0[i]
        stats = {name: [0, 0] for name in self.names}
        for i in range(n):
            s = stats[self.names[self.name[i]]]
            s[0] += 1
            s[1] += self.t1[i] - self.t0[i] - child[i]
        return {k: (c, t) for k, (c, t) in stats.items()}

    def total_ns(self, name: str) -> int:
        """Summed duration, children included, of every span called ``name``."""
        nid = self._ids.get(name)
        return sum(self.t1[i] - self.t0[i] for i in range(len(self.t0))
                   if self.name[i] == nid)


def _wrap(tracer: Tracer, name: str, fn, hook=None):
    nid = tracer.name_id(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = tracer.open(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
        if hook is not None:
            hook(tracer, out)
        return out

    return traced


def _count_frames(t: Tracer, plan) -> None:
    t.count("link.frames_built", len(plan.frames))


def _count_records(t: Tracer, out) -> None:
    trace = out[0] if isinstance(out, tuple) else out.trace
    t.count("sim.trace_records", len(trace.records))


def _count_kem_bytes(t: Tracer, out) -> None:
    if isinstance(out, bytes):
        n = len(out)
    elif hasattr(out, "pk"):
        n = len(out.pk) + len(out.sk)
    else:
        n = len(out.ct) + len(out.ss)
    t.count("kem.bytes_out", n)


HOOKS = {
    "link.plan_transfer": _count_frames,
    "sim.run_handshake": _count_records,
    "sim.send_secured_payload": _count_records,
    "kem.keygen": _count_kem_bytes,
    "kem.encapsulate": _count_kem_bytes,
    "kem.decapsulate": _count_kem_bytes,
}


def install(tracer: Tracer):
    """Wrap the public functions of every layer; returns a function that
    puts the originals back."""
    modules = {layer: importlib.import_module(f"pqpan.{layer}") for layer in LAYERS}
    namespaces = [m for name, m in sys.modules.items()
                  if m is not None and (name == "pqpan" or name.startswith("pqpan."))]
    replaced: list[tuple[object, str, object]] = []

    def replace(owner, key: str, new) -> None:
        replaced.append((owner, key, getattr(owner, key)))
        setattr(owner, key, new)

    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__):
                continue
            name = f"{layer}.{attr}"
            new = _wrap(tracer, name, obj, HOOKS.get(name))
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is obj:
                        replace(ns, key, new)
    for name, (layer, cls_name, meth) in METHODS.items():
        cls = getattr(modules[layer], cls_name)
        replace(cls, meth, _wrap(tracer, name, getattr(cls, meth), HOOKS.get(name)))

    def restore() -> None:
        for owner, key, original in reversed(replaced):
            setattr(owner, key, original)

    return restore
