"""Content-addressed cache keys for simulation results.

A key is the SHA-256 digest of a canonical JSON document combining

* the kernel's IR, rendered through :mod:`repro.ir.printer` in both
  structured (``fmt_loop``) and normalized flat (``fmt_flat``) form —
  any change to the loop body, its arrays, params or live-outs changes
  the text and therefore the key;
* the :class:`~repro.compiler.CompilerConfig` (``profile_workload``
  excluded: it is derived from the workload ``(trip, seed)`` which is
  keyed separately);
* the :class:`~repro.sim.MachineParams` (queue geometry, latency
  table, cache model);
* the core count and the workload recipe ``(trip, seed, scalars,
  array specs)``.

Keys also embed :data:`SCHEMA_VERSION` so that changing how keys or
records are built invalidates the whole store instead of silently
reusing incompatible entries.

:func:`kernel_run_key` is the definition.  Callers that derive many
keys (every grid cell needs at least one) go through a
:meth:`KeyMemo.key`, which serializes each part of the document once —
the IR once per kernel spec object and expression height, the
compiler and machine forms once per configuration — and joins the
cached JSON fragments into exactly the bytes :func:`stable_digest`
would hash (:func:`key_from_parts`).  The digests are byte-identical;
``tests/golden_keys.json`` locks them.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import threading
from collections import OrderedDict
from typing import Any, Hashable, Mapping

from ..compiler.config import CompilerConfig
from ..ir import fmt_flat, fmt_loop, normalize
from ..ir.stmts import Loop
from ..sim.machine import MachineParams

#: bump to invalidate every existing key and record.
#: v2: adaptive runtime — CompilerConfig.runtime_mode,
#: MachineParams.queue_depths, ExpConfig.adaptive and KernelRun
#: resolution provenance all enter the digests/payloads.
SCHEMA_VERSION = 2

#: CompilerConfig fields that never influence results content-wise.
#: ``profile_workload`` is derived from the workload ``(trip, seed)``
#: keyed separately; ``sim_mode`` selects a simulator back end whose
#: results are bit-identical by contract (enforced by the differential
#: battery in ``tests/test_sim_fast.py``), so warm caches are shared
#: across modes.
_EXCLUDED_FIELDS = frozenset({"profile_workload", "sim_mode"})


def _plain(obj: Any) -> Any:
    """Reduce ``obj`` to canonical JSON-serializable plain data."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out: dict[str, Any] = {"__type__": type(obj).__name__}
        for f in dataclasses.fields(obj):
            if f.name in _EXCLUDED_FIELDS:
                continue
            out[f.name] = _plain(getattr(obj, f.name))
        return out
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__name__}.{obj.name}"
    if isinstance(obj, Mapping):
        return {str(k): _plain(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = [_plain(v) for v in obj]
        return sorted(items, key=repr) if isinstance(obj, (set, frozenset)) else items
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    if hasattr(obj, "item"):  # numpy scalar
        return obj.item()
    return repr(obj)


def canonical_json(obj: Any) -> str:
    """Canonical JSON text of ``obj`` (the bytes :func:`stable_digest` hashes)."""
    return json.dumps(_plain(obj), sort_keys=True, separators=(",", ":"))


def stable_digest(obj: Any) -> str:
    """SHA-256 hex digest of the canonical JSON form of ``obj``."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def ir_text(loop: Loop, max_expr_height: int = 2) -> str:
    """Canonical printed form of a loop: structured + normalized flat."""
    return fmt_loop(loop) + "\n" + fmt_flat(normalize(loop, max_height=max_expr_height))


def kernel_run_key(
    loop: Loop,
    n_cores: int,
    config: CompilerConfig,
    machine: MachineParams,
    trip: int,
    seed: int,
    *,
    workload: Mapping[str, Any] | None = None,
    kind: str = "run",
) -> str:
    """Cache key for one simulated cell of the kernel × config matrix.

    ``kind`` separates full parallel runs (``"run"``) from the
    lightweight sequential-baseline cycle records (``"seq"``).
    """
    return stable_digest(
        {
            "schema": SCHEMA_VERSION,
            "kind": kind,
            "ir": ir_text(loop, config.max_expr_height),
            "n_cores": n_cores,
            "compiler": _plain(config),
            "machine": _plain(machine),
            "trip": trip,
            "seed": seed,
            "workload": _plain(workload) if workload is not None else None,
        }
    )


def workload_recipe(spec: Any) -> dict:
    """The workload part of a kernel spec's key: its scalars and array specs."""
    return {"scalars": dict(spec.scalars), "specs": dict(spec.specs)}


def key_from_parts(
    kind: str,
    ir: str,
    n_cores: int,
    compiler: str,
    machine: str,
    trip: int,
    seed: int,
    workload: str,
) -> str:
    """:func:`kernel_run_key` from canonical JSON fragments of its parts.

    ``ir``, ``compiler``, ``machine`` and ``workload`` are
    :func:`canonical_json` texts.  The fields are written in sorted
    key order, so the bytes hashed are the ones :func:`stable_digest`
    writes for the same document.
    """
    blob = (
        f'{{"compiler":{compiler},"ir":{ir},"kind":{canonical_json(kind)},'
        f'"machine":{machine},"n_cores":{canonical_json(n_cores)},'
        f'"schema":{canonical_json(SCHEMA_VERSION)},'
        f'"seed":{canonical_json(seed)},"trip":{canonical_json(trip)},'
        f'"workload":{workload}}}'
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class BoundedMemo:
    """Thread-safe LRU map that holds at most ``capacity`` entries."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable) -> Any:
        with self._lock:
            value = self._data.get(key)
            if value is not None:
                self._data.move_to_end(key)
            return value

    def put(self, key: Hashable, value: Any) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)

    def __len__(self) -> int:
        return len(self._data)


class KeyMemo:
    """Memoized store keys of (kernel spec, experiment cell) pairs.

    ``key(spec, cell, kind)`` equals the definition

        kernel_run_key(spec.loop(), n_cores, compiler, cell.machine(),
                       cell.trip, spec.seed + cell.seed,
                       workload=workload_recipe(spec), kind=kind)

    where ``(n_cores, compiler)`` is ``(1, cell.seq_compiler())`` for
    the sequential baseline (``kind="seq"``) and
    ``(cell.n_cores, cell.compiler())`` for every other kind.  A cell
    is a frozen dataclass with those fields and methods
    (:class:`repro.experiments.common.ExpConfig`).

    The key is assembled (:func:`key_from_parts`) from three layers,
    each a :class:`BoundedMemo`:

    * ``digests`` — the finished key per (spec, cell, kind);
    * ``specs`` — the JSON of the IR text and the workload recipe per
      (spec, ``max_expr_height``);
    * ``forms`` — the JSON of the compiler and machine configuration
      per cell with its :data:`FORM_NEUTRAL` fields reset, so every
      trip, seed and simulator back end of a configuration shares one
      form.  ``tests/test_keys_memo.py`` checks that those fields
      never reach the compiler or machine JSON.

    Specs are keyed by object identity (``id``) and the entry holds the
    spec itself, so a live entry's id cannot be reused by another
    object, and two specs that share a name but not a ``build`` never
    share a key.  Cells are matched by equality, which is sound because
    a cell's fields are normalized to their declared types (``10.0``
    and ``10`` are the same cell and the same key).  Every layer is
    bounded (a long-running daemon sees client-chosen trips and seeds)
    and locked (serve derives keys on executor threads).  Two threads
    that miss the same entry at once both compute it; the results are
    equal, so either may win.
    """

    #: cell fields that never reach the compiler or machine form:
    #: ``trip`` and ``seed`` are keyed on their own, and ``sim_mode`` is
    #: one of the :data:`_EXCLUDED_FIELDS`.
    FORM_NEUTRAL = {"trip": 0, "seed": 0, "sim_mode": "reference"}

    def __init__(self, capacity: int = 4096, spec_capacity: int = 256) -> None:
        self.digests = BoundedMemo(capacity)
        self.specs = BoundedMemo(spec_capacity)
        self.forms = BoundedMemo(spec_capacity)

    def key(self, spec: Any, cell: Any, kind: str = "run") -> str:
        """The store key of ``cell`` of ``spec`` (see the class doc)."""
        memo_key = (id(spec), cell, kind)
        hit = self.digests.get(memo_key)
        if hit is not None and hit[0] is spec:
            return hit[1]
        seq = kind == "seq"
        ir, workload = self._spec_parts(spec, cell.max_expr_height)
        compiler, machine = self._form_parts(cell, seq)
        digest = key_from_parts(
            kind, ir, 1 if seq else cell.n_cores, compiler, machine,
            cell.trip, spec.seed + cell.seed, workload,
        )
        self.digests.put(memo_key, (spec, digest))
        return digest

    def _spec_parts(self, spec: Any, max_expr_height: int) -> tuple[str, str]:
        memo_key = (id(spec), max_expr_height)
        hit = self.specs.get(memo_key)
        if hit is not None and hit[0] is spec:
            return hit[1], hit[2]
        ir = canonical_json(ir_text(spec.loop(), max_expr_height))
        workload = canonical_json(workload_recipe(spec))
        self.specs.put(memo_key, (spec, ir, workload))
        return ir, workload

    def _form_parts(self, cell: Any, seq: bool) -> tuple[str, str]:
        memo_key = (seq, dataclasses.replace(cell, **self.FORM_NEUTRAL))
        hit = self.forms.get(memo_key)
        if hit is None:
            compiler = cell.seq_compiler() if seq else cell.compiler()
            hit = (canonical_json(compiler), canonical_json(cell.machine()))
            self.forms.put(memo_key, hit)
        return hit
