"""Outside-in layer tracing: spans around the program's public functions.

``install`` replaces each layer's public function at the binding site
its callers resolve (a module attribute or a class method) with a thin
wrapper that records a span: layer name, start, end, parent span and a
little layer-specific information.  Spans are kept in memory and
written out once, when the phase ends (``Tracer.dump``).  The parent
is tracked through a ``contextvars.ContextVar``, so nesting is right
in plain calls, in asyncio tasks (which copy the context) and in
executor threads (which start from an empty context, so work there
opens its own root).

``aggregate`` (standard library only; the orchestrator calls it) turns
one phase's spans into the per-layer metrics.  A layer's ``.s`` is the
time of its outermost spans: a span nested inside a span of the same
layer, such as ``kernel_run_key`` under ``store_key_for``, counts once.
Self time is a span's duration minus the union of its children's
intervals; the phase span's own self time, the part of the phase
outside every wrapped layer, is ``unattributed.s``.  On a serial phase
the self times of all spans therefore sum to the phase time by
construction: that sum checks nothing, so it is not computed.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import itertools
import json
import threading
import time
from typing import Any, Callable

_current: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_span", default=None
)


def _sim_info(args: tuple, kwargs: dict, result: Any) -> dict:
    kernel = args[0] if args else kwargs["kernel"]
    return {"cores": kernel.plan.n_cores, "instrs": result.total_instrs}


def _get_info(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"hit": result is not None}


def _compute_info(args: tuple, kwargs: dict, result: Any) -> dict:
    kind, kernel, cfg = args[:3]
    return {"cell": [kernel, cfg["n_cores"], cfg["trip"], cfg.get("seed", 0)]}


def _request_info(args: tuple, kwargs: dict, result: Any) -> dict:
    obj = args[1] if len(args) > 1 else kwargs["obj"]
    cell = None
    if isinstance(obj, dict) and obj.get("op") == "run":
        cell = [obj.get("kernel"), obj.get("cores"), obj.get("trip"),
                obj.get("seed", 0)]
    return {"cell": cell}


#: (module, attribute, layer, info) — module attributes the program's
#: callers resolve at call time.  Two bindings of one function (the
#: package import and the defining module) both appear, because callers
#: use both.
FUNCTIONS = (
    ("repro.store.sweep", "run_grid", "store.sweep", None),
    ("repro.experiments.common", "run_kernel", "experiments.run_kernel", None),
    ("repro.experiments.common", "store_key_for", "store.keys", None),
    ("repro.store.keys", "kernel_run_key", "store.keys", None),
    ("repro.experiments.common", "run_loop", "interp", None),
    ("repro.experiments.common", "verify_result", "verify", None),
    ("repro.experiments.common", "execute_kernel", "sim", _sim_info),
    ("repro.runtime.exec", "execute_kernel", "sim", _sim_info),
    ("repro.runtime.exec", "parallelize", "compiler.parallelize", None),
    ("repro.runtime.exec", "lower_plan", "isa.lower", None),
    ("repro.isa.lower", "lower_plan", "isa.lower", None),
    ("repro.check", "check_kernel", "check", None),
    ("repro.compiler.pipeline", "apply_speculation", "compiler.speculate", None),
    ("repro.compiler.pipeline", "normalize", "compiler.normalize", None),
    ("repro.compiler.pipeline", "build_code_graph", "compiler.codegraph", None),
    ("repro.compiler.pipeline", "merge_partitions", "compiler.merge", None),
    ("repro.compiler.refine", "refine_partitions", "compiler.refine", None),
    ("repro.compiler.pipeline", "plan_communication", "compiler.comm", None),
    ("repro.compiler.pipeline", "schedule_all", "compiler.schedule", None),
    ("repro.serve.service", "compute_payload", "serve.compute", _compute_info),
)

#: (module, class, method, layer, info) — methods called on instances.
METHODS = (
    ("repro.store.disk", "ResultStore", "get", "store.disk.get", _get_info),
    ("repro.store.disk", "ResultStore", "get_run", "store.disk.get", _get_info),
    ("repro.store.disk", "ResultStore", "get_seq", "store.disk.get", _get_info),
    ("repro.store.disk", "ResultStore", "get_src", "store.disk.get", _get_info),
    ("repro.store.disk", "ResultStore", "put", "store.disk.put", None),
    ("repro.store.disk", "ResultStore", "put_run", "store.disk.put", None),
    ("repro.store.disk", "ResultStore", "put_seq", "store.disk.put", None),
    ("repro.store.disk", "ResultStore", "put_src", "store.disk.put", None),
    ("repro.serve.service", "ServeService", "handle", "serve.request",
     _request_info),
)


class Tracer:
    """In-memory span recorder; one per traced phase process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self.missing: list[str] = []

    def _open(self) -> tuple[int, int | None, contextvars.Token]:
        sid = next(self._ids)
        parent = _current.get()
        return sid, parent, _current.set(sid)

    def _close(self, sid, parent, token, layer, t0, extra) -> None:
        t1 = time.perf_counter()
        _current.reset(token)
        self.spans.append([sid, layer, parent, t0, t1,
                           threading.get_ident(), extra])

    def wrap(self, fn: Callable, layer: str,
             info: Callable | None = None) -> Callable:
        """``fn`` recording one span per call; ``info`` reads extra
        fields from the arguments and result of a call that returned."""
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                sid, parent, token = self._open()
                t0 = time.perf_counter()
                try:
                    result = await fn(*args, **kwargs)
                except BaseException:
                    self._close(sid, parent, token, layer, t0, None)
                    raise
                self._close(sid, parent, token, layer, t0,
                            info and info(args, kwargs, result))
                return result
            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent, token = self._open()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(sid, parent, token, layer, t0, None)
                raise
            self._close(sid, parent, token, layer, t0,
                        info and info(args, kwargs, result))
            return result
        return traced

    def install(self) -> None:
        """Wrap every binding site; a site that no longer exists is
        recorded in ``missing`` (reported as ``trace.missing``)."""
        import importlib

        for mod_name, attr, layer, info in FUNCTIONS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            setattr(mod, attr, self.wrap(fn, layer, info))
        for mod_name, cls_name, meth, layer, info in METHODS:
            cls = getattr(importlib.import_module(mod_name), cls_name, None)
            fn = getattr(cls, meth, None) if cls is not None else None
            if fn is None:
                self.missing.append(f"{mod_name}.{cls_name}.{meth}")
                continue
            setattr(cls, meth, self.wrap(fn, layer, info))

    @contextlib.contextmanager
    def phase(self):
        """The root span around a timed phase."""
        sid, parent, token = self._open()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, parent, token, "phase", t0, None)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"missing": self.missing, "spans": self.spans}, f)


# -- aggregation (orchestrator side) ---------------------------------------

#: the layers whose ``calls`` and ``s`` are reported, in report order.
TIMED_LAYERS = (
    "store.keys", "store.disk.get", "store.disk.put", "check", "isa.lower",
    "interp", "verify", "serve.compute",
    "compiler.speculate", "compiler.normalize", "compiler.codegraph",
    "compiler.merge", "compiler.refine", "compiler.comm",
    "compiler.schedule",
)
SELF_LAYERS = ("store.sweep", "experiments.run_kernel", "compiler.parallelize")
SIM_KINDS = ("par", "seq", "profile")


def _union(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def aggregate(doc: dict) -> dict:
    """Per-layer sums for one traced phase (see the module docstring).

    Returns the per-layer ``layers``, the phase span's duration
    ``phase_s`` and self time ``unattributed_s``, ``serial``
    (False when spans of one parent overlap, as concurrent requests
    do, so that self times may sum to more than the phase), each serve
    request's own time ``request_self_ms``, and the ``missing`` binding
    sites.
    """
    spans = {s[0]: s for s in doc["spans"]}
    children: dict[int | None, list] = {}
    for s in spans.values():
        children.setdefault(s[2], []).append(s)

    def self_time(s) -> float:
        t0, t1 = s[3], s[4]
        kids = [(max(c[3], t0), min(c[4], t1)) for c in children.get(s[0], ())]
        return (t1 - t0) - _union([k for k in kids if k[1] > k[0]])

    def ancestors(s):
        p = s[2]
        while p is not None and p in spans:
            yield spans[p]
            p = spans[p][2]

    out: dict[str, float] = {}

    def add(name: str, v: float) -> None:
        out[name] = out.get(name, 0.0) + v

    phases = [s for s in spans.values() if s[1] == "phase"]
    phase = phases[0] if phases else None
    serial = True
    for kids in children.values():
        iv = sorted((c[3], c[4]) for c in kids)
        if any(b[0] < a[1] for a, b in zip(iv, iv[1:])):
            serial = False
            break

    for s in spans.values():
        layer = s[1]
        if layer in SELF_LAYERS:
            add(f"{layer}.self_s", self_time(s))
        nested = any(a[1] == layer for a in ancestors(s))
        if nested:
            continue
        dur = s[4] - s[3]
        if layer == "sim":
            info = s[6] or {}
            if any(a[1] == "compiler.parallelize" for a in ancestors(s)):
                kind = "profile"
            elif info.get("cores") == 1:
                kind = "seq"
            else:
                kind = "par"
            add(f"sim.{kind}.calls", 1)
            add(f"sim.{kind}.s", dur)
            add(f"sim.{kind}.instrs", info.get("instrs", 0))
        elif layer in TIMED_LAYERS or layer == "compiler.parallelize":
            add(f"{layer}.calls", 1)
            add(f"{layer}.s", dur)
            if layer == "store.disk.get" and (s[6] or {}).get("hit"):
                add("store.disk.get.hits", 1)

    # serve: a request's own time is its duration minus the store
    # spans beneath it and minus the compute spans (executor threads)
    # of the same cell that overlap it — a coalesced waiter is waiting
    # on compute too.
    computes = [s for s in spans.values() if s[1] == "serve.compute"]
    request_self = []
    for s in spans.values():
        if s[1] != "serve.request" or not (s[6] or {}).get("cell"):
            continue
        cut = [
            (max(c[3], s[3]), min(c[4], s[4])) for c in computes
            if (c[6] or {}).get("cell") == s[6]["cell"]
        ]
        stack = list(children.get(s[0], ()))
        while stack:
            c = stack.pop()
            if c[1].startswith("store.disk."):
                cut.append((c[3], c[4]))
            else:
                stack.extend(children.get(c[0], ()))
        cut = [k for k in cut if k[1] > k[0]]
        request_self.append(((s[4] - s[3]) - _union(cut)) * 1e3)

    return {
        "layers": out,
        "phase_s": (phase[4] - phase[3]) if phase is not None else 0.0,
        "unattributed_s": self_time(phase) if phase is not None else 0.0,
        "serial": serial,
        "request_self_ms": request_self,
        "missing": doc.get("missing", []),
    }
