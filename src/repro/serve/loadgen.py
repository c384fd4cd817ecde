"""Load generator: thousands of synthetic clients, zipf-shaped demand.

Real serving traffic is heavy-tailed: a few hot kernels dominate while
a long tail stays cold.  The generator draws (kernel, cores) cells
from a seeded zipf distribution over the corpus and replays them
through N concurrent synthetic clients, in two phases against the same
service: **cold** (empty caches — every distinct cell pays one
compile/simulate) and **warm** (same distribution, fresh sample — the
tiered cache should absorb nearly everything).

Everything is deterministic per seed: the population order, each
client's draw sequence, and the phase structure.  The report carries
per-phase throughput and exact p50/p95/p99 latency, per-tier hit
counts from the responses' ``cached`` field, the server's own metrics
snapshot, and the coalescing proof (distinct cells drawn vs run
records actually written).  ``write_bench`` persists the headline
numbers to ``BENCH_serve.json`` so the serving-performance trajectory
accumulates in-repo, like ``BENCH_obs.json`` does for the simulator.
"""

from __future__ import annotations

import asyncio
import bisect
import json
import os
import random
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Sequence

from ..store.disk import atomic_write_json
from .client import ServeClient, TCPClient
from .service import ServeConfig, ServeService
from .stats import percentiles

#: serve bench file schema version.
BENCH_SCHEMA = 1
#: default bench trajectory file (repo root / current directory).
BENCH_PATH = "BENCH_serve.json"


@dataclass(frozen=True)
class LoadgenConfig:
    """One campaign: request volume, population, and distribution."""

    requests: int = 1000          # per phase
    clients: int = 50
    zipf_s: float = 1.1           # zipf exponent (higher = hotter head)
    seed: int = 0
    kernels: tuple[str, ...] = ()  # empty → the 18 Table-I kernels
    cores: tuple[int, ...] = (2, 4)
    trip: int = 16
    timeout: float = 120.0        # per-request client-side timeout
    #: serve-side fault kind (see ``repro.faults.SERVE_FAULT_KINDS``) to
    #: arm on the owned in-process service; only valid without ``host``.
    chaos: str | None = None


@dataclass
class PhaseReport:
    name: str
    requests: int = 0
    errors: int = 0
    duration_s: float = 0.0
    throughput_rps: float = 0.0
    p50_ms: float = 0.0
    p95_ms: float = 0.0
    p99_ms: float = 0.0
    max_ms: float = 0.0
    tiers: dict = field(default_factory=lambda: {"l1": 0, "l2": 0, "compute": 0})
    error_kinds: dict = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        served = self.requests - self.errors
        if served <= 0:
            return 0.0
        return (self.tiers["l1"] + self.tiers["l2"]) / served

    def row(self) -> dict:
        return {
            "requests": self.requests,
            "errors": self.errors,
            "duration_s": round(self.duration_s, 3),
            "throughput_rps": round(self.throughput_rps, 1),
            "p50_ms": round(self.p50_ms, 3),
            "p95_ms": round(self.p95_ms, 3),
            "p99_ms": round(self.p99_ms, 3),
            "max_ms": round(self.max_ms, 3),
            "hit_rate": round(self.hit_rate, 4),
            "tiers": dict(self.tiers),
        }


def population(cfg: LoadgenConfig) -> list[tuple[str, int]]:
    """The (kernel, cores) cells demand is drawn over, in a seeded
    shuffle so zipf rank ↛ corpus order."""
    names = list(cfg.kernels)
    if not names:
        from ..kernels import table1_kernels

        names = [s.name for s in table1_kernels()]
    cells = [(k, c) for k in names for c in cfg.cores]
    random.Random(cfg.seed ^ 0x5EED).shuffle(cells)
    return cells


def zipf_cdf(n: int, s: float) -> list[float]:
    """Cumulative zipf weights for ranks 1..n (platform-deterministic —
    pure python, no float surprises across numpy versions)."""
    weights = [1.0 / (rank ** s) for rank in range(1, n + 1)]
    total = sum(weights)
    acc, cdf = 0.0, []
    for w in weights:
        acc += w / total
        cdf.append(acc)
    cdf[-1] = 1.0
    return cdf


def draw_sequence(
    cells: Sequence[tuple[str, int]], cdf: Sequence[float],
    rng: random.Random, n: int,
) -> list[tuple[str, int]]:
    return [cells[bisect.bisect_left(cdf, rng.random())] for _ in range(n)]


async def _client_run(
    client: Any, seq: Sequence[tuple[str, int]], cfg: LoadgenConfig,
) -> list[tuple[float, str | None, str | None]]:
    """One synthetic client: sequential requests, per-request timing.
    Returns (latency_ms, cached_tier, error_kind) triples."""
    out = []
    for kernel, cores in seq:
        t0 = time.perf_counter()
        resp = await client.request(
            "run", kernel=kernel, cores=cores, trip=cfg.trip,
            timeout=cfg.timeout,
        )
        ms = (time.perf_counter() - t0) * 1e3
        if resp.get("ok"):
            out.append((ms, resp.get("cached"), None))
        else:
            out.append((ms, None, resp.get("error", {}).get("kind", "unknown")))
    return out


async def _run_phase(
    name: str,
    clients: Sequence[Any],
    cells: Sequence[tuple[str, int]],
    cdf: Sequence[float],
    cfg: LoadgenConfig,
    salt: int,
    drawn: set[tuple[str, int]],
) -> PhaseReport:
    per_client = [cfg.requests // len(clients)] * len(clients)
    for i in range(cfg.requests - sum(per_client)):
        per_client[i] += 1
    sequences = []
    for i, n in enumerate(per_client):
        rng = random.Random((cfg.seed * 1_000_003) ^ salt ^ (i * 7919))
        seq = draw_sequence(cells, cdf, rng, n)
        drawn.update(seq)
        sequences.append(seq)

    t0 = time.perf_counter()
    results = await asyncio.gather(*(
        _client_run(client, seq, cfg)
        for client, seq in zip(clients, sequences)
    ))
    duration = time.perf_counter() - t0

    report = PhaseReport(name=name, requests=cfg.requests, duration_s=duration)
    latencies: list[float] = []
    for triples in results:
        for ms, tier, err in triples:
            latencies.append(ms)
            if err is not None:
                report.errors += 1
                report.error_kinds[err] = report.error_kinds.get(err, 0) + 1
            else:
                report.tiers[tier if tier in ("l1", "l2") else "compute"] += 1
    report.throughput_rps = cfg.requests / duration if duration > 0 else 0.0
    report.p50_ms, report.p95_ms, report.p99_ms = percentiles(
        latencies, (50.0, 95.0, 99.0)
    )
    report.max_ms = max(latencies) if latencies else 0.0
    return report


async def _run_campaign(
    cfg: LoadgenConfig,
    *,
    service: ServeService | None,
    host: str | None,
    port: int | None,
) -> dict:
    cells = population(cfg)
    cdf = zipf_cdf(len(cells), cfg.zipf_s)
    drawn: set[tuple[str, int]] = set()

    owned_service = service is None and host is None
    if cfg.chaos is not None and not owned_service:
        raise ValueError(
            "chaos injection arms the owned in-process service; it cannot "
            "target a TCP daemon or a caller-supplied service"
        )
    tmp_store: str | None = None
    if owned_service:
        # Self-contained campaign: fresh service over a fresh temp
        # store, so "cold" genuinely means cold.
        fault_plan = None
        if cfg.chaos is not None:
            from ..faults import ServeFaultPlan

            fault_plan = ServeFaultPlan.single(cfg.chaos, seed=cfg.seed)
        tmp_store = tempfile.mkdtemp(prefix="repro-loadgen-store-")
        service = ServeService(ServeConfig(
            store_root=tmp_store, fault_plan=fault_plan,
        ))

    if host is not None:
        clients: list[Any] = []
        for i in range(cfg.clients):
            clients.append(await TCPClient.connect(
                host, port or 7421, client_id=f"lg-{i}"
            ))
    else:
        clients = [ServeClient(service, client_id=f"lg-{i}")
                   for i in range(cfg.clients)]

    try:
        phases = [
            await _run_phase("cold", clients, cells, cdf, cfg, 0xC01D, drawn),
            await _run_phase("warm", clients, cells, cdf, cfg, 0x3A53, drawn),
        ]
        metrics = (await clients[0].request("metrics"))["result"]
    finally:
        for c in clients:
            await c.close()
        if owned_service:
            await service.aclose()
            if tmp_store is not None:
                import shutil

                shutil.rmtree(tmp_store, ignore_errors=True)

    counters = metrics.get("counters", {})

    def counter(name: str) -> float:
        return counters.get(name, {}).get("value", 0.0)

    store = metrics.get("store", {})
    report = {
        "schema": BENCH_SCHEMA,
        "config": {
            "requests": cfg.requests, "clients": cfg.clients,
            "zipf_s": cfg.zipf_s, "seed": cfg.seed, "trip": cfg.trip,
            "cores": list(cfg.cores),
            "population": len(cells),
            "transport": "tcp" if host is not None else "inproc",
            "chaos": cfg.chaos,
        },
        "phases": {p.name: p.row() for p in phases},
        "unique_cells_drawn": len(drawn),
        "coalesced": int(counter("cache.coalesced")),
        "computed": int(counter("serve.computed")),
        "unhandled": int(counter("serve.unhandled")),
        "run_records": store.get("run_records"),
        "store_writes": store.get("writes"),
        "server_latency_ms": metrics.get("latency_ms"),
    }
    return report


def run_loadgen(
    cfg: LoadgenConfig,
    *,
    service: ServeService | None = None,
    host: str | None = None,
    port: int | None = None,
) -> dict:
    """Run a cold+warm campaign; in-process by default, TCP when
    ``host`` is given.  Returns the report dict."""
    return asyncio.run(_run_campaign(cfg, service=service, host=host, port=port))


def format_report(report: dict) -> str:
    cfg = report["config"]
    lines = [
        f"loadgen      : {cfg['requests']} req/phase x "
        f"{cfg['clients']} clients ({cfg['transport']}), "
        f"zipf s={cfg['zipf_s']:g} over {cfg['population']} cells, "
        f"seed {cfg['seed']}"
        + (f", chaos={cfg['chaos']}" if cfg.get("chaos") else ""),
    ]
    for name, p in report["phases"].items():
        lines.append(
            f"  {name:4s}       : {p['throughput_rps']:9.1f} req/s  "
            f"p50 {p['p50_ms']:7.2f} ms  p95 {p['p95_ms']:8.2f} ms  "
            f"p99 {p['p99_ms']:8.2f} ms  hit {100 * p['hit_rate']:5.1f}%  "
            f"errors {p['errors']}"
        )
    lines.append(
        f"coalescing   : {report['unique_cells_drawn']} unique cells drawn, "
        f"{report['computed']} computed, {report['coalesced']} coalesced, "
        f"{report['run_records'] if report['run_records'] is not None else '?'} "
        f"run records"
    )
    lines.append(f"unhandled    : {report['unhandled']}")
    return "\n".join(lines)


def _bench_key(row: dict) -> tuple:
    c = row.get("config", {})
    return (c.get("requests"), c.get("clients"), c.get("zipf_s"),
            c.get("seed"), c.get("trip"), c.get("transport"),
            c.get("chaos"))


def write_bench(path: str | os.PathLike, report: dict) -> dict:
    """Merge the campaign report into the serve bench trajectory file.

    Rows are keyed by campaign shape (requests, clients, zipf, seed,
    trip, transport): re-running the same campaign replaces its row, so
    the file tracks current numbers per configuration.  Missing or
    corrupt files start fresh; writes are atomic.
    """
    doc = {"schema": BENCH_SCHEMA, "rows": []}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if isinstance(loaded, dict) and isinstance(loaded.get("rows"), list):
            doc["rows"] = [r for r in loaded["rows"] if isinstance(r, dict)]
    except (OSError, ValueError):
        pass
    row = dict(report)
    doc["rows"] = [r for r in doc["rows"] if _bench_key(r) != _bench_key(row)]
    doc["rows"].append(row)
    doc["rows"].sort(key=lambda r: json.dumps(_bench_key(r), default=str))
    atomic_write_json(path, doc)
    return doc
