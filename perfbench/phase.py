"""One measured phase of one repetition, in a fresh process.

    python3 perfbench/phase.py --workload W --seed S --phase cold|warm|serve
        --store DIR [--serve-store DIR] [--trace FILE]

``run.py`` starts this with ``PYTHONPATH`` pointing at the checkout's
``src`` and ``REPRO_CACHE_DIR`` at the repetition's own store, so the
user's store is never touched and no in-process memo survives from one
phase to the next.  The process pins itself to one CPU, so the
calibration ruler (``hostspeed.py``) always measures the core the work
runs on, executor threads included.  Set-up (importing the program,
loading the kernel corpus, opening the store) is timed apart from the
phase.  Untraced, the phase runs the ruler at every mark and reports
the marks with its timings.  Marks are set only by this file, between
calls into the program: a grid phase calls ``run_grid`` once per
kernel, core count and trip and marks between the calls, and a serve
phase marks at the clients' barriers.  So the workload, not the
program's call graph, fixes the segments.  With ``--trace FILE`` the layers are wrapped
(``tracing.py``) instead and the spans are written to FILE when the
phase ends.

The last line of standard output is one JSON object with the timings,
the per-cell results the orchestrator checks, and peak RSS.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import random
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from hostspeed import ruler  # noqa: E402
from workloads import (  # noqa: E402
    DRAW_SEED, SERVE_CHUNK, SERVE_CLIENTS, SERVE_REQUESTS, TABLE1, WORKLOADS,
    ZIPF_S,
)


class Timeline:
    """Ruler samples ``[start, ruler CPU seconds, end]`` on the
    ``perf_counter`` clock."""

    def __init__(self) -> None:
        self.marks: list[list[float]] = []

    def mark(self) -> None:
        t0 = time.perf_counter()
        r = ruler()
        self.marks.append([t0, r, time.perf_counter()])


def _cell_row(run) -> dict:
    cfg = run.config
    return {
        "cell": [run.kernel, cfg.n_cores, cfg.trip, cfg.seed],
        "seq": run.seq_cycles, "par": run.par_cycles, "instrs": run.instrs,
        "ok": bool(run.correct and run.failure is None),
    }


def _grid(workload, seed: int, store, timeline: Timeline | None) -> dict:
    from repro.experiments.common import ExpConfig
    from repro.kernels import table1_kernels
    from repro.store import sweep

    # one serial grid per kernel, core count and trip, so that each is
    # one segment; its seed columns stay in one call, for seed batching
    calls = [
        ([spec], [ExpConfig(n_cores=c, trip=t, seed=seed + off)
                  for off in workload.seed_offsets])
        for spec in table1_kernels()
        for c in workload.cores
        for t in workload.trips
    ]
    mark = timeline.mark if timeline is not None else (lambda: None)
    writes0 = store.writes
    grids = []
    t0 = time.perf_counter()
    mark()
    for specs, configs in calls:
        grids.append(sweep.run_grid(specs, configs, workers=1, store=store))
        mark()
    elapsed = time.perf_counter() - t0
    return {
        "elapsed_s": elapsed,
        "rows": [_cell_row(run) for grid in grids for run in grid.values()],
        "store_writes": store.writes - writes0,
    }


async def _client(client, seq, out: list) -> None:
    """One closed-loop client: the next request goes out when the
    previous reply is in.  Appends ``(start, end, reply)``."""
    for kernel, cores, trip, seed in seq:
        t0 = time.perf_counter()
        resp = await client.request(
            "run", kernel=kernel, cores=cores, trip=trip, seed=seed,
            timeout=120.0,
        )
        out.append((t0, time.perf_counter(), resp))


async def _serve_campaign(workload, seed: int, store_root: str,
                          timeline: Timeline | None) -> dict:
    from repro.serve.client import ServeClient
    from repro.serve.loadgen import draw_sequence, zipf_cdf
    from repro.serve.service import ServeConfig, ServeService

    # The order is the same at every seed (README.md, "Workloads"); the
    # seed changes the cells' inputs.
    cells = [tuple(c) for c in workload.cells(seed)]
    random.Random(DRAW_SEED).shuffle(cells)
    cdf = zipf_cdf(len(cells), ZIPF_S)
    per = SERVE_REQUESTS // SERVE_CLIENTS
    sequences = [
        draw_sequence(cells, cdf, random.Random(DRAW_SEED * 1_000_003 + i), per)
        for i in range(SERVE_CLIENTS)
    ]
    service = ServeService(ServeConfig(store_root=store_root))
    clients = [ServeClient(service, client_id=f"bench-{i}")
               for i in range(SERVE_CLIENTS)]
    outs: list[list] = [[] for _ in clients]
    # The clients meet at a barrier every SERVE_CHUNK requests, where the
    # ruler runs with no request in flight: chunk i is the same requests
    # in every repetition, and a ruler run between requests would slow
    # the next ones (README.md, "Noise").
    chunks = []
    try:
        for lo in range(0, per, SERVE_CHUNK):
            if timeline is not None:
                timeline.mark()
            t0 = time.perf_counter()
            await asyncio.gather(*(
                _client(c, seq[lo:lo + SERVE_CHUNK], out)
                for c, seq, out in zip(clients, sequences, outs)
            ))
            chunks.append([t0, time.perf_counter()])
        if timeline is not None:
            timeline.mark()
        metrics = (await clients[0].request("metrics"))["result"]
    finally:
        await service.aclose()

    rows, errors = {}, {}
    for out in outs:
        for _, _, resp in out:
            if not resp.get("ok"):
                kind = resp.get("error", {}).get("kind", "unknown")
                errors[kind] = errors.get(kind, 0) + 1
                continue
            p = resp["result"]
            cfg = p["config"]
            rows[(p["kernel"], cfg["n_cores"], cfg["trip"], cfg["seed"])] = {
                "cell": [p["kernel"], cfg["n_cores"], cfg["trip"], cfg["seed"]],
                "seq": p["seq_cycles"], "par": p["par_cycles"],
                "instrs": p["instrs"],
                "ok": bool(p["correct"] and p["failure"] is None),
            }
    counters = metrics.get("counters", {})

    def counter(name: str) -> int:
        return int(counters.get(name, {}).get("value", 0))

    return {
        "elapsed_s": sum(b - a for a, b in chunks),
        "chunks": chunks,
        "requests": [[[a, b] for a, b, _ in out] for out in outs],
        "errors": errors,
        "rows": list(rows.values()),
        "serve_counters": {
            "l1_hits": counter("cache.l1_hit"),
            "l2_hits": counter("cache.l2_hit"),
            "computed": counter("serve.computed"),
            "coalesced": counter("cache.coalesced"),
        },
    }


def _fig12(workload, seed: int, rows: list[dict]) -> dict:
    """Fig 12 as E2 computes it (``amean`` of the cell speedups, in
    table order) over the seed-``s`` column, and the mean 4-core error
    against the published per-kernel figures."""
    from repro.experiments.common import amean
    from repro.experiments.fig12_speedup import PAPER_AVG, PAPER_SPEEDUP_4

    by_cell = {tuple(r["cell"]): r for r in rows}
    speed = {}
    for k, c, t, s in workload.fig_cells(seed):
        r = by_cell[(k, c, t, s)]
        speed[(k, c)] = r["seq"] / r["par"] if r["par"] > 0 else 0.0
    return {
        "fig12_speedup_2c": amean(speed[(k, 2)] for k in TABLE1),
        "fig12_speedup_4c": amean(speed[(k, 4)] for k in TABLE1),
        "fig12_err_4c": amean(abs(speed[(k, 4)] - PAPER_SPEEDUP_4[k])
                              for k in TABLE1),
        "per_kernel_4c": {k: speed[(k, 4)] for k in TABLE1},
        "paper_avg": {str(c): v for c, v in PAPER_AVG.items()},
        "paper_4c": dict(PAPER_SPEEDUP_4),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--phase", required=True,
                    choices=("setup", "cold", "warm", "serve"))
    ap.add_argument("--store", required=True)
    ap.add_argument("--serve-store")
    ap.add_argument("--trace")
    args = ap.parse_args()
    workload = WORKLOADS[args.workload]
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    # -- set-up: import, kernel corpus, store open ------------------------
    ruler()  # the first run in a process warms the interpreter up
    r_before = ruler()
    t0 = time.perf_counter()
    import repro
    import repro.experiments.common  # noqa: F401
    import repro.serve.client  # noqa: F401
    import repro.serve.service  # noqa: F401
    import repro.store.sweep  # noqa: F401
    from repro.kernels import table1_kernels
    from repro.store.disk import default_store
    t_import = time.perf_counter()
    names = tuple(s.name for s in table1_kernels())
    store = default_store()
    setup_s = time.perf_counter() - t0
    r_after = ruler()

    src = os.path.realpath(os.environ["PYTHONPATH"].split(os.pathsep)[0])
    if not os.path.realpath(repro.__file__).startswith(src + os.sep):
        raise SystemExit(f"repro imported from {repro.__file__}, not {src}")
    if names != TABLE1:
        raise SystemExit(f"Table-I kernel list changed: {names}")
    if store is None or os.path.realpath(store.root) != os.path.realpath(
            args.store):
        raise SystemExit(f"store is not the repetition's own: {store}")

    result: dict = {
        "phase": args.phase, "setup": [setup_s, r_before, r_after],
        "import_s": t_import - t0,
    }
    tracer = timeline = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    elif args.phase != "setup":
        timeline = Timeline()

    if args.phase in ("cold", "warm"):
        if tracer is not None:
            with tracer.phase():
                result.update(_grid(workload, args.seed, store, None))
        else:
            result.update(_grid(workload, args.seed, store, timeline))
        if args.phase == "cold":
            result["fig12"] = _fig12(workload, args.seed, result["rows"])
    elif args.phase == "serve":
        root = args.serve_store or args.store

        async def campaign() -> dict:
            if tracer is None:
                return await _serve_campaign(workload, args.seed, root,
                                             timeline)
            with tracer.phase():
                return await _serve_campaign(workload, args.seed, root, None)

        result.update(asyncio.run(campaign()))

    if timeline is not None:
        result["marks"] = sorted(timeline.marks)
    if tracer is not None:
        from repro.sim.fast.specialize import counters

        result["sim_fast"] = counters()
        tracer.dump(args.trace)
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
