"""``repro bench-sim``: specialized-vs-reference simulator benchmark.

Times the reference interpreter core against the specialized generator
back end over the Table I paper corpus and records the per-kernel
ratios plus their geometric mean in ``BENCH_sim.json``.  The committed
baseline documents the speedup this repo promises (>= 3x geomean when
it was recorded); CI re-measures with ``--check`` and fails below the
file's ``floor`` — set well under the recorded geomean so shared-
runner noise cannot produce false alarms, while a real fast-path
regression (a codegen change that quietly de-specializes) still trips
it.

Every timed pair also re-asserts bit-identical results, so the bench
doubles as a coarse differential test: a run that got faster by
getting wrong answers fails before it reports a number.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field

from ...store.disk import atomic_write_json

BENCH_SIM_PATH = "BENCH_sim.json"
BENCH_SIM_SCHEMA = 1

#: CI floor on the measured geomean speedup.  Deliberately far below
#: the recorded baseline: it guards against "the fast path stopped
#: being fast" (ratio ~1), not against machine-to-machine variance.
DEFAULT_FLOOR = 2.0


@dataclass
class SimBenchRow:
    kernel: str
    cores: int
    trip: int
    instrs: int
    ref_ms: float
    spec_ms: float

    @property
    def speedup(self) -> float:
        return self.ref_ms / self.spec_ms if self.spec_ms > 0 else 0.0


@dataclass
class SimBenchResult:
    trip: int
    cores: int
    repeats: int
    rows: list[SimBenchRow] = field(default_factory=list)

    @property
    def geomean(self) -> float:
        ratios = [r.speedup for r in self.rows if r.speedup > 0]
        if not ratios:
            return 0.0
        return math.exp(sum(math.log(x) for x in ratios) / len(ratios))

    def format(self) -> str:
        lines = [
            f"{'kernel':12s} {'ref':>9s} {'specialized':>12s} {'speedup':>8s}"
        ]
        for r in self.rows:
            lines.append(
                f"{r.kernel:12s} {r.ref_ms:7.1f}ms {r.spec_ms:10.1f}ms "
                f"{r.speedup:7.2f}x"
            )
        lines.append(
            f"geomean speedup over {len(self.rows)} kernel(s): "
            f"{self.geomean:.2f}x"
        )
        return "\n".join(lines)


def _time_mode(kernel, workload, params, mode: str, repeats: int):
    """Best-of-``repeats`` wall time for one (kernel, mode) pair."""
    from ...runtime.exec import execute_kernel

    best = math.inf
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = execute_kernel(kernel, workload, params, sim_mode=mode)
        best = min(best, time.perf_counter() - t0)
    return best, result


def run_bench(
    trip: int = 512,
    n_cores: int = 4,
    repeats: int = 3,
    kernels: list[str] | None = None,
) -> SimBenchResult:
    """Benchmark the Table I corpus; raises on any result mismatch."""
    from ...compiler.config import CompilerConfig
    from ...fuzz.campaign import results_equal
    from ...kernels import get_kernel, table1_kernels
    from ...runtime.exec import compile_loop
    from ...sim.machine import MachineParams

    specs = (
        [get_kernel(name) for name in kernels]
        if kernels else table1_kernels()
    )
    out = SimBenchResult(trip=trip, cores=n_cores, repeats=repeats)
    params = MachineParams()
    for spec in specs:
        loop = spec.loop()
        kernel = compile_loop(loop, n_cores, CompilerConfig())
        wl = spec.workload(trip=trip)
        # warm the runner cache so codegen time is not in the timing
        _, warm = _time_mode(kernel, wl, params, "specialized", 1)
        ref_s, ref = _time_mode(kernel, wl, params, "reference", repeats)
        spec_s, fast = _time_mode(kernel, wl, params, "specialized", repeats)
        if not results_equal(ref, fast) or not results_equal(ref, warm):
            raise AssertionError(
                f"{spec.name}: specialized result differs from reference — "
                "refusing to record a benchmark for a wrong answer"
            )
        out.rows.append(SimBenchRow(
            kernel=spec.name, cores=n_cores, trip=trip,
            instrs=ref.total_instrs,
            ref_ms=1e3 * ref_s, spec_ms=1e3 * spec_s,
        ))
    return out


def bench_doc(result: SimBenchResult, floor: float = DEFAULT_FLOOR) -> dict:
    return {
        "schema": BENCH_SIM_SCHEMA,
        "config": {
            "trip": result.trip,
            "cores": result.cores,
            "repeats": result.repeats,
        },
        "floor": floor,
        "geomean": round(result.geomean, 4),
        "rows": [
            {
                "kernel": r.kernel,
                "cores": r.cores,
                "trip": r.trip,
                "instrs": r.instrs,
                "ref_ms": round(r.ref_ms, 3),
                "spec_ms": round(r.spec_ms, 3),
                "speedup": round(r.speedup, 4),
            }
            for r in result.rows
        ],
    }


def write_bench(path: str | os.PathLike, doc: dict) -> None:
    """Atomic whole-document write (temp file + rename)."""
    atomic_write_json(path, doc)


def load_floor(path: str | os.PathLike) -> float:
    """CI floor recorded in a committed bench file (default if unreadable)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        return float(doc["floor"])
    except (OSError, ValueError, KeyError, TypeError):
        return DEFAULT_FLOOR
