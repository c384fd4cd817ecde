"""Store-key memoization: golden digests, memo safety, one read per cell.

``golden_keys.json`` holds store keys derived by the un-memoized
definition (:func:`repro.store.keys.kernel_run_key`) before the memo
existed: the 18 Table-I kernels plus four frontend kernels, for the
``run``, ``seq``, ``compile`` and ``trace`` kinds, under varied
configurations.  Every key call site must reproduce it byte for byte;
a mismatch would silently orphan every record of an existing store.
Regenerate it only together with a ``SCHEMA_VERSION`` bump, from the
definition: ``PYTHONPATH=src python -m tests.test_keys_memo``.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import common as C
from repro.experiments.common import ExpConfig, store_key_for
from repro.frontend.ingest import ingest_source, to_kernel_spec
from repro.kernels import KernelSpec, all_kernels, get_kernel, table1_kernels
from repro.serve.service import cell_key
from repro.store import ResultStore, keys, run_grid, sweep
from repro.store.keys import (
    SCHEMA_VERSION,
    BoundedMemo,
    KeyMemo,
    canonical_json,
    kernel_run_key,
    workload_recipe,
)

from .conftest import build_demo_loop, build_straightline_loop

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = json.loads((Path(__file__).parent / "golden_keys.json").read_text())
KINDS = ("run", "seq", "compile", "trace")


def _frontend_specs() -> dict[str, KernelSpec]:
    """The example corpus ingested under a *relative* file name.

    The printed IR names the loop's source file, so the registry's
    frontend kernels (ingested by absolute path) have checkout-specific
    keys; these specs have the same keys in every checkout.
    """
    out = {}
    for path in sorted((ROOT / "examples" / "ingest").glob("*.py")):
        for ing in ingest_source(path.read_text(),
                                 filename=f"examples/ingest/{path.name}"):
            spec = to_kernel_spec(ing)
            out[spec.name] = spec
    return out


FRONTEND = _frontend_specs()


def _spec(name: str) -> KernelSpec:
    return FRONTEND[name] if name.startswith("frontend/") else get_kernel(name)


def _definition(spec: KernelSpec, cfg: ExpConfig, kind: str) -> str:
    """The un-memoized key: ``kernel_run_key`` on a freshly built loop."""
    seq = kind == "seq"
    return kernel_run_key(
        spec.loop(),
        1 if seq else cfg.n_cores,
        cfg.seq_compiler() if seq else cfg.compiler(),
        cfg.machine(),
        cfg.trip,
        spec.seed + cfg.seed,
        workload=workload_recipe(spec),
        kind=kind,
    )


@pytest.fixture
def memo(monkeypatch):
    """A fresh process-wide key memo (cold first touch for every test)."""
    fresh = KeyMemo()
    monkeypatch.setattr(C, "_KEYS", fresh)
    return fresh


# -- golden lock ---------------------------------------------------------

class TestGoldenKeys:
    CONFIGS = [ExpConfig(**c) for c in GOLDEN["configs"]]

    def test_fixture_shape(self):
        assert GOLDEN["schema"] == SCHEMA_VERSION
        names = {name for name, *_ in GOLDEN["cells"]}
        assert {s.name for s in table1_kernels()} <= names
        assert sum(n.startswith("frontend/") for n in names) == 4
        assert {kind for _, _, kind, _ in GOLDEN["cells"]} == set(KINDS)

    @pytest.mark.parametrize("touch", ["first", "repeat"])
    def test_every_call_site_reproduces_the_fixture(self, memo, touch):
        scribe = sweep._JournalScribe(journal=None, by_name={})
        for _ in range(2 if touch == "repeat" else 1):
            for name, j, kind, key in GOLDEN["cells"]:
                spec, cfg = _spec(name), self.CONFIGS[j]
                scribe.by_name = {name: spec}
                assert store_key_for(spec, cfg, kind=kind) == key, (name, j, kind)
                assert cell_key(spec, cfg, kind=kind) == key
                if kind == "run":
                    assert store_key_for(spec, cfg) == key
                    assert sweep._task_key(spec, cfg) == key
                    assert scribe.key_for(sweep.SweepTask(name, cfg)) == key

    def test_definition_reproduces_the_fixture(self):
        for name, j, kind, key in GOLDEN["cells"][::7]:
            assert _definition(_spec(name), self.CONFIGS[j], kind) == key


def test_memo_matches_definition_on_the_whole_registry(memo):
    configs = [
        ExpConfig(n_cores=2, trip=24),
        ExpConfig(max_expr_height=3, seed=5, sim_mode="specialized"),
        ExpConfig(n_cores=2, adaptive=True, speculation=True),
        ExpConfig(trip=np.int64(24), seed=np.int64(1)),  # numpy scalars
    ]
    for spec in all_kernels():
        for cfg in configs:
            for kind in ("run", "seq"):
                assert (store_key_for(spec, cfg, kind=kind)
                        == _definition(spec, cfg, kind)), (spec.name, cfg, kind)


def test_form_neutral_fields_never_reach_the_forms():
    """The memo shares one compiler/machine form across these fields."""
    for cfg in TestGoldenKeys.CONFIGS:
        for value in ({"trip": 7, "seed": 3, "sim_mode": "batched"},
                      KeyMemo.FORM_NEUTRAL):
            other = replace(cfg, **value)
            for form in ("compiler", "seq_compiler", "machine"):
                assert (canonical_json(getattr(other, form)())
                        == canonical_json(getattr(cfg, form)()))


def test_equal_cells_of_different_field_types_share_the_definition(memo):
    spec = get_kernel("umt2k-1")
    ints = ExpConfig(n_cores=2, queue_latency=10, speculation=True, trip=24)
    others = ExpConfig(n_cores=np.int64(2), queue_latency=10.0,
                       speculation=1, trip=24.0)
    assert others == ints and type(others.queue_latency) is int
    assert type(others.speculation) is bool
    # either cell may be derived first; both get the definition's key
    for kind, order in (("run", (ints, others)), ("seq", (others, ints))):
        got = [store_key_for(spec, cfg, kind) for cfg in order]
        assert got == [_definition(spec, cfg, kind) for cfg in order]
        assert got[0] == got[1]
    for bad in ({"queue_latency": 10.5}, {"trip": "24"},
                {"speculation": 2}, {"sim_mode": 5}):
        with pytest.raises(TypeError):
            ExpConfig(**bad)


# -- memo safety ---------------------------------------------------------

def _twin(build) -> KernelSpec:
    return KernelSpec(name="twin", app="lammps", source="test", pct_time=0.0,
                      category="amenable", build=build)


class TestMemoSafety:
    def test_same_name_different_build_gets_different_keys(self, memo):
        a, b = _twin(build_demo_loop), _twin(build_straightline_loop)
        cfg = ExpConfig(n_cores=2, trip=16)
        for kind in KINDS:
            ka, kb = store_key_for(a, cfg, kind), store_key_for(b, cfg, kind)
            assert ka != kb
            assert ka == _definition(a, cfg, kind)
            assert kb == _definition(b, cfg, kind)

    def test_memo_stays_within_its_bound(self, monkeypatch):
        small = KeyMemo(capacity=16, spec_capacity=4)
        monkeypatch.setattr(C, "_KEYS", small)
        spec = get_kernel("umt2k-1")
        cells = [ExpConfig(n_cores=2, trip=8 + t, seed=s)
                 for t in range(10) for s in range(5)]
        for cfg in cells:
            store_key_for(spec, cfg)
            store_key_for(spec, cfg, kind="seq")
            assert len(small.digests) <= 16
        # every (trip, seed) shares one IR and one form per kind
        assert len(small.specs) == 1 and len(small.forms) == 2
        for cfg in cells[:3] + cells[-3:]:  # evicted and resident entries
            assert store_key_for(spec, cfg) == _definition(spec, cfg, "run")

    def test_bounded_memo_evicts_least_recently_used(self):
        m = BoundedMemo(2)
        m.put("a", 1)
        m.put("b", 2)
        assert m.get("a") == 1  # "b" is now the oldest
        m.put("c", 3)
        assert m.get("b") is None and m.get("a") == 1 and len(m) == 2
        with pytest.raises(ValueError):
            BoundedMemo(0)

    def test_concurrent_threads_get_identical_keys(self, monkeypatch):
        # a memo smaller than the working set, so threads also race on
        # eviction; a short switch interval makes interleavings likely
        small = KeyMemo(capacity=8, spec_capacity=2)
        monkeypatch.setattr(C, "_KEYS", small)
        specs = table1_kernels()[:4]
        cfgs = [ExpConfig(n_cores=n, trip=t) for n in (2, 4) for t in (16, 24)]
        cells = [(s, c, k) for s in specs for c in cfgs for k in ("run", "seq")]
        expected = [_definition(s, c, k) for s, c, k in cells]
        n_threads = 8
        barrier = threading.Barrier(n_threads, timeout=60)
        results: list = [None] * n_threads
        errors: list = []

        def worker(slot: int) -> None:
            try:
                barrier.wait()
                order = cells if slot % 2 else cells[::-1]
                got = {(s.name, c, k): store_key_for(s, c, k)
                       for s, c, k in order * 2}
                results[slot] = [got[(s.name, c, k)] for s, c, k in cells]
            except Exception as exc:  # surfaced below, not swallowed
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert all(r == expected for r in results)
        assert len(small.digests) <= 8 and len(small.specs) <= 2

    def test_bounded_memo_survives_racing_threads(self):
        memo = BoundedMemo(4)
        n_threads = 8
        barrier = threading.Barrier(n_threads, timeout=60)
        errors: list = []

        def worker(slot: int) -> None:
            try:
                barrier.wait()
                deadline = time.monotonic() + 2.0
                i = 0
                while time.monotonic() < deadline:
                    i += 1
                    key = (slot * 7 + i) % 16
                    value = memo.get(key)
                    if value is not None and value != key * 2:
                        raise AssertionError(f"{key} -> {value}")
                    memo.put(key, key * 2)
            except Exception as exc:  # surfaced below, not swallowed
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert len(memo) <= 4

    def test_sim_mode_never_splits_a_key(self, memo):
        spec = get_kernel("lammps-2")
        base = ExpConfig(n_cores=2, trip=24, seed=1)
        for kind in KINDS:
            keys_by_mode = {
                store_key_for(spec, replace(base, sim_mode=m), kind)
                for m in ("reference", "specialized", "batched")
            }
            assert len(keys_by_mode) == 1
        assert len(memo.forms) == 2  # one run form, one seq form

    def test_ir_is_built_once_per_kernel(self, memo, monkeypatch):
        calls = []
        real = keys.ir_text
        monkeypatch.setattr(
            keys, "ir_text", lambda *a, **k: calls.append(a) or real(*a, **k)
        )
        for spec in table1_kernels():
            for n in (2, 4):
                for trip in (16, 64):
                    for mode in ("reference", "specialized"):
                        cfg = ExpConfig(n_cores=n, trip=trip, sim_mode=mode)
                        for kind in KINDS:
                            store_key_for(spec, cfg, kind)
        assert len(calls) == len(table1_kernels())


# -- one record read per warm serial cell -------------------------------

class _CountingStore(ResultStore):
    def __init__(self, root) -> None:
        super().__init__(root)
        self.run_reads: list[str] = []

    def get_run(self, key):
        self.run_reads.append(key)
        return super().get_run(key)


def test_warm_serial_grid_reads_each_record_once(tmp_path):
    specs = [get_kernel("umt2k-1"), get_kernel("lammps-1")]
    configs = [ExpConfig(n_cores=2, trip=12), ExpConfig(n_cores=4, trip=12)]
    store = _CountingStore(tmp_path / "s")
    cold = run_grid(specs, configs, workers=0, store=store)
    C.clear_cache()
    store.run_reads.clear()
    writes = store.writes

    journal = tmp_path / "grid.journal"
    warm = run_grid(specs, configs, workers=0, store=store, journal=journal)
    expected = sorted(store_key_for(s, c) for s in specs for c in configs)
    assert sorted(store.run_reads) == expected  # exactly once per cell
    assert warm == cold
    assert store.writes == writes  # a warm grid writes nothing

    from repro.store.journal import load_journal

    state = load_journal(journal)
    assert set(state.intents) == set(expected) == set(state.done)
    assert state.closed
    C.clear_cache()


def test_pool_dispatch_still_orders_longest_job_first(tmp_path, monkeypatch):
    class _NoPoolCtx:
        def Pool(self, *a, **k):
            raise OSError("no pool here")

    monkeypatch.setattr(
        sweep.multiprocessing, "get_context", lambda *a, **k: _NoPoolCtx()
    )
    estimated = []
    real = sweep._estimate_cycles
    monkeypatch.setattr(
        sweep, "_estimate_cycles",
        lambda store, spec, cfg: estimated.append(spec.name)
        or real(store, spec, cfg),
    )
    specs = [get_kernel("umt2k-1"), get_kernel("lammps-1")]
    cfg = ExpConfig(n_cores=2, trip=12)
    store = ResultStore(tmp_path / "s")
    run_grid(specs, [cfg], workers=0, store=store)
    assert estimated == []  # serial: no pre-pass
    run_grid(specs, [cfg], workers=2, store=store)
    assert sorted(estimated) == sorted(s.name for s in specs)
    C.clear_cache()


if __name__ == "__main__":
    # Rewrite the fixture's digests (same cells) from the definition.
    configs = [ExpConfig(**c) for c in GOLDEN["configs"]]
    cells = [[name, j, kind, _definition(_spec(name), configs[j], kind)]
             for name, j, kind, _ in GOLDEN["cells"]]
    lines = ["{", f'  "schema": {SCHEMA_VERSION},', '  "configs": [']
    lines.append(",\n".join("    " + json.dumps(c, sort_keys=True)
                            for c in GOLDEN["configs"]))
    lines += ["  ],", '  "cells": [']
    lines.append(",\n".join("    " + json.dumps(c) for c in cells))
    lines += ["  ]", "}"]
    (Path(__file__).parent / "golden_keys.json").write_text(
        "\n".join(lines) + "\n")
