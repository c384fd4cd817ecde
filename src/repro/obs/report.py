"""Stall attribution, queue pressure, and the bench emitter.

Where did the cycles go?  For each core the simulator tracks an exact
decomposition of its finish time::

    core_time = busy + queue-full + queue-empty + transfer-latency

(busy covers compute/memory/branch work *and* the fixed cost of the
queue ops themselves; the three stall buckets are the §V reasons a
fine-grained thread waits).  :func:`profile_result` turns a finished
:class:`~repro.sim.machine.SimResult` into a :class:`KernelProfile`
whose per-core percentages sum to 100 by construction, plus per-queue
pressure rows.  :func:`update_bench` appends the headline numbers to
``BENCH_obs.json`` so the repository finally accumulates a performance
trajectory.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from .events import STALL_QUEUE_EMPTY, STALL_QUEUE_FULL, STALL_TRANSFER

#: bench file schema version.
BENCH_SCHEMA = 1
#: default bench trajectory file (repo root / current directory).
BENCH_PATH = "BENCH_obs.json"
#: adaptive-runtime bench trajectory (static vs adaptive cycles on
#: skewed workloads; written by ``repro chaos-adapt --bench``).
BENCH_ADAPTIVE_PATH = "BENCH_adaptive.json"


@dataclass(frozen=True)
class CoreRow:
    """One core's exact cycle attribution."""

    cid: int
    time: float                   # core finish time (cycles)
    instrs: int
    busy: float                   # time - all queue stalls
    stall_full: float             # enqueue waited for a slot
    stall_empty: float            # dequeue waited for the producer
    stall_transfer: float         # dequeue waited for the in-flight hop

    def _pct(self, part: float) -> float:
        return 100.0 * part / self.time if self.time > 0 else 0.0

    @property
    def pct_busy(self) -> float:
        # busy picks up the remainder so the four buckets always close
        # to exactly 100% of a non-idle core's time.
        return self._pct(self.busy)

    @property
    def pct_full(self) -> float:
        return self._pct(self.stall_full)

    @property
    def pct_empty(self) -> float:
        return self._pct(self.stall_empty)

    @property
    def pct_transfer(self) -> float:
        return self._pct(self.stall_transfer)

    @property
    def stall(self) -> float:
        return self.stall_full + self.stall_empty + self.stall_transfer

    @property
    def idle_frac(self) -> float:
        """Fraction of this core's time spent stalled on queues — the
        per-core signal the adaptive runtime's imbalance detector uses
        (straggler cores show a *low* idle fraction while the rest of
        the gang waits on them)."""
        return self.stall / self.time if self.time > 0 else 0.0

    def breakdown(self) -> dict[str, float]:
        return {
            "busy": self.pct_busy,
            STALL_QUEUE_FULL: self.pct_full,
            STALL_QUEUE_EMPTY: self.pct_empty,
            STALL_TRANSFER: self.pct_transfer,
        }


@dataclass(frozen=True)
class QueueRow:
    qid: str
    transfers: int
    max_outstanding: int
    depth: int | None = None
    #: time-weighted occupancy histogram (level -> simulated cycles).
    occupancy_hist: dict = field(default_factory=dict)
    #: simulated cycles the producer / consumer stalled on this queue.
    stall_full: float = 0.0
    stall_empty: float = 0.0

    @property
    def pressure(self) -> float:
        """Peak occupancy as a fraction of capacity (0 when unknown)."""
        if not self.depth:
            return 0.0
        return self.max_outstanding / self.depth

    @property
    def mean_occupancy(self) -> float:
        """Time-weighted mean occupancy across the run."""
        total = sum(self.occupancy_hist.values())
        if total <= 0:
            return 0.0
        return sum(k * v for k, v in self.occupancy_hist.items()) / total

    def occupancy_sparkline(self, width: int = 8) -> str:
        """Coarse text histogram of occupancy over time.

        Buckets the occupancy levels 0..depth into ``width`` bins and
        renders the time share of each as a bar glyph — enough to see
        "mostly empty", "pegged at capacity", or "bimodal" at a glance.
        """
        if not self.occupancy_hist or not self.depth:
            return "-" * width
        bins = [0.0] * width
        for level, cycles in self.occupancy_hist.items():
            b = min(width - 1, int(level * width / (self.depth + 1)))
            bins[b] += cycles
        total = sum(bins)
        if total <= 0:
            return "-" * width
        glyphs = " .:-=+*#@"
        out = []
        for share in (b / total for b in bins):
            g = min(len(glyphs) - 1, int(share * (len(glyphs) - 1) + 0.5))
            out.append(glyphs[g] if share > 0 else " ")
        return "".join(out)


@dataclass
class KernelProfile:
    """Per-kernel observability report."""

    kernel: str
    n_cores: int
    trip: int
    cycles: float
    total_instrs: int
    rows: list[CoreRow] = field(default_factory=list)
    queues: list[QueueRow] = field(default_factory=list)
    com_ops: int | None = None        # compiler Table-III statistic
    seq_cycles: float | None = None   # sequential baseline, if measured

    @property
    def total_stall(self) -> float:
        return sum(r.stall for r in self.rows)

    @property
    def stall_pct(self) -> float:
        """Aggregate stall share of all core-cycles actually spent."""
        spent = sum(r.time for r in self.rows)
        return 100.0 * self.total_stall / spent if spent > 0 else 0.0

    @property
    def speedup(self) -> float | None:
        if self.seq_cycles is None or self.cycles <= 0:
            return None
        return self.seq_cycles / self.cycles

    @property
    def imbalance(self) -> float:
        """Idle-fraction spread across cores (the IMBALANCE trigger)."""
        fracs = [r.idle_frac for r in self.rows]
        if len(fracs) < 2:
            return 0.0
        return max(fracs) - min(fracs)


def profile_result(
    result,
    *,
    kernel: str = "?",
    trip: int = 0,
    queue_depth: int | None = None,
    stats=None,
    seq_cycles: float | None = None,
) -> KernelProfile:
    """Build a :class:`KernelProfile` from a finished ``SimResult``.

    The attribution is taken from the machine's own accounting
    (:class:`~repro.sim.core.CoreStats`), so it agrees with
    ``SimResult.total_queue_stall`` to the last cycle.
    """
    rows = []
    for cid, (t, st) in enumerate(zip(result.core_times, result.core_stats)):
        rows.append(CoreRow(
            cid=cid,
            time=t,
            instrs=st.instrs,
            busy=t - st.queue_stall,
            stall_full=st.stall_full,
            stall_empty=st.stall_empty,
            stall_transfer=st.stall_transfer,
        ))
    queues = [
        QueueRow(
            qid=repr(qs.qid),
            transfers=qs.n_transfers,
            max_outstanding=qs.max_outstanding,
            # prefer the queue's actual run-time capacity (it may have
            # been retuned per queue); fall back to the machine default.
            depth=getattr(qs, "depth", 0) or queue_depth,
            occupancy_hist=dict(getattr(qs, "occupancy_hist", {}) or {}),
            stall_full=getattr(qs, "stall_full", 0.0),
            stall_empty=getattr(qs, "stall_empty", 0.0),
        )
        for qs in result.queue_stats
    ]
    return KernelProfile(
        kernel=kernel,
        n_cores=len(rows),
        trip=trip,
        cycles=result.cycles,
        total_instrs=result.total_instrs,
        rows=rows,
        queues=queues,
        com_ops=getattr(stats, "com_ops", None),
        seq_cycles=seq_cycles,
    )


def format_profile(p: KernelProfile) -> str:
    """Human-readable stall-attribution + queue-pressure report."""
    lines = [
        f"profile      : {p.kernel}  ({p.n_cores} cores, trip {p.trip})",
        f"cycles       : {p.cycles:.0f}   instrs: {p.total_instrs}",
    ]
    if p.speedup is not None:
        lines.append(
            f"sequential   : {p.seq_cycles:.0f} cycles   "
            f"speedup: {p.speedup:.2f}x"
        )
    lines += [
        f"stall share  : {p.stall_pct:.1f}% of spent core-cycles",
        f"imbalance    : {p.imbalance:.2f} idle-fraction spread across cores",
        "",
        "stall attribution (% of each core's time; rows sum to 100):",
        "  core     cycles    instrs    busy%   q-full%  q-empty%   xfer%"
        "   idle",
    ]
    for r in p.rows:
        lines.append(
            f"  {r.cid:<4d} {r.time:10.0f} {r.instrs:9d} "
            f"{r.pct_busy:8.1f} {r.pct_full:9.1f} {r.pct_empty:9.1f} "
            f"{r.pct_transfer:7.1f} {r.idle_frac:6.2f}"
        )
    lines.append("")
    if p.queues:
        lines.append(
            "queue pressure (peak/mean occupancy vs depth; histogram is"
            " time share per occupancy bin, empty->full):"
        )
        lines.append(
            "  queue            transfers   peak  depth   mean  press"
            "  p-stall  c-stall  occupancy"
        )
        for q in p.queues:
            pressure = f"{100 * q.pressure:.0f}%" if q.depth else "n/a"
            lines.append(
                f"  {q.qid:<16s} {q.transfers:9d} {q.max_outstanding:6d}"
                f" {q.depth or 0:6d} {q.mean_occupancy:6.2f}"
                f" {pressure:>6s} {q.stall_full:8.0f} {q.stall_empty:8.0f}"
                f"  |{q.occupancy_sparkline()}|"
            )
    else:
        lines.append("queue pressure: no queues used (single partition)")
    if p.com_ops is not None:
        lines.append(f"com ops/iter : {p.com_ops}")
    return "\n".join(lines)


# -- bench emitter -------------------------------------------------------

def bench_row(p: KernelProfile, **extra) -> dict:
    """The headline numbers persisted per kernel run."""
    row = {
        "kernel": p.kernel,
        "cores": p.n_cores,
        "trip": p.trip,
        "cycles": p.cycles,
        "instrs": p.total_instrs,
        "stall_pct": round(p.stall_pct, 3),
        "comm_ops": p.com_ops,
        "queues": len(p.queues),
        "stall_breakdown": {
            STALL_QUEUE_FULL: round(sum(r.stall_full for r in p.rows), 3),
            STALL_QUEUE_EMPTY: round(sum(r.stall_empty for r in p.rows), 3),
            STALL_TRANSFER: round(sum(r.stall_transfer for r in p.rows), 3),
        },
    }
    if p.seq_cycles is not None:
        row["seq_cycles"] = p.seq_cycles
        row["speedup"] = round(p.speedup, 4)
    row.update(extra)
    return row


def adaptive_bench_row(cell, *, trip: int, cores: int = 4) -> dict:
    """Headline numbers for one E13 cell (static vs adaptive cycles).

    ``cell`` is an :class:`repro.experiments.imbalance.ImbalanceCell`;
    duck-typed so the emitter has no import-time dependency on the
    experiments package.
    """
    return {
        "kernel": cell.kernel,
        "scenario": cell.scenario,
        "cores": cores,
        "trip": trip,
        "static_cycles": cell.static_cycles,
        "adaptive_cycles": cell.adaptive_cycles,
        "gain": round(cell.gain, 4),
        "imbalance": round(cell.imbalance, 4),
        "resolved_by": cell.resolved_by,
        "migrated": cell.migrated,
        "depth_actions": cell.depth_actions,
        "checks": cell.checks,
        "checks_ok": cell.checks_ok,
        "outcome": cell.outcome,
    }


def _row_key(row: dict) -> tuple:
    return (row.get("kernel"), row.get("cores"), row.get("trip"),
            row.get("scenario"))


def update_bench(path: str | os.PathLike, row: dict) -> dict:
    """Merge ``row`` into the bench trajectory file at ``path``.

    A row replaces an existing entry with the same (kernel, cores,
    trip) key, so the file tracks the *current* numbers per
    configuration rather than growing without bound.  A missing or
    corrupt file starts fresh (the emitter must never be the thing that
    breaks a perf run); writes are atomic (temp file + rename).
    """
    doc = {"schema": BENCH_SCHEMA, "rows": []}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if isinstance(loaded, dict) and isinstance(loaded.get("rows"), list):
            doc["rows"] = [r for r in loaded["rows"] if isinstance(r, dict)]
    except (OSError, ValueError):
        pass
    doc["rows"] = [r for r in doc["rows"] if _row_key(r) != _row_key(row)]
    doc["rows"].append(row)
    doc["rows"].sort(key=lambda r: (str(r.get("kernel")), r.get("cores") or 0,
                                    r.get("trip") or 0))
    # imported here: repro.store imports the compiler, which imports obs
    from ..store.disk import atomic_write_json

    atomic_write_json(path, doc)
    return doc
