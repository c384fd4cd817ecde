"""The repository benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload table1-grid|long-trip|serve-zipf|all
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Every repetition runs three
phases, each in a fresh process (``phase.py``) on a fresh temporary
store under ``.perfbench_tmp/``: a cold grid, a warm grid recalling
the cold grid's store, and a serve phase.  Host noise on a shared
machine only ever slows a run down, so each timing is the best over
the repetitions of one run, segment by segment, in reference seconds
(``hostspeed.py``); ``p50_ms``, set-up time and peak RSS are medians
(README.md, "Estimator").  The number of repetitions k is
``--seconds`` over the workload's repetition time in a slow spell of
the host, at least 2.  It does not depend on how fast the host happens
to be: a run always makes all k repetitions, and one that takes longer
than ``--seconds`` says so and still reports.  With
``--trace 1`` a traced repetition and one untraced repetition run; the
per-layer metrics come from the traced one and ``trace.overhead``
compares the two.

Every cell must verify, every serve reply must be ``ok``, and the
simulated fingerprint (per-cell sequential and parallel cycles and
instructions) must be identical in every phase of every repetition,
traced or not.  Otherwise the command prints the result with
``"correct": false`` and exits 1.  README.md documents the workloads,
the metrics and the estimator.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from hostspeed import RefClock, reference_s  # noqa: E402
from tracing import SIM_KINDS, SELF_LAYERS, TIMED_LAYERS, aggregate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: fewest untraced repetitions per run (the k of best-of-k).
MIN_REPS = 2
#: largest share of a traced grid phase that the leaf layers may leave
#: uncovered: ``unattributed.s`` plus the self time of the container
#: layers (SELF_LAYERS).  Measured at most 2.8% cold and 4.9% warm.
GLUE_MAX = 0.15
#: a phase process that has not finished by then has hung.
PHASE_TIMEOUT = 150.0

END_TO_END = {
    "setup_s": "s", "cold_cells_per_s": "1/s", "warm_cells_per_s": "1/s",
    "fig12_speedup_2c": "x", "fig12_speedup_4c": "x", "fig12_err_4c": "x",
    "req_per_s": "1/s", "p50_ms": "ms", "p99_ms": "ms", "peak_rss_mb": "MB",
}


def per_layer_names() -> list[str]:
    names = ["import.s"]
    for layer in TIMED_LAYERS:
        names += [f"{layer}.calls", f"{layer}.s"]
        if layer == "store.disk.get":
            names.append("store.disk.get.hits")
    names += [f"{layer}.self_s" for layer in SELF_LAYERS]
    names += ["compiler.parallelize.calls", "compiler.parallelize.s",
              "compiler.autotune.sims"]
    for kind in SIM_KINDS:
        names += [f"sim.{kind}.{m}" for m in ("calls", "s", "instrs",
                                              "ns_per_instr")]
    names += ["sim.fast.codegen", "sim.fast.mem_hit", "sim.fast.disk_hit"]
    names += ["serve.requests", "serve.self_ms_p50", "serve.l1_hits",
              "serve.l2_hits", "serve.computed", "serve.coalesced"]
    names += ["unattributed.s", "trace.phase_s", "trace.overhead",
              "trace.missing"]
    return names


def unit(name: str) -> str:
    """Unit of an end-to-end or per-layer metric."""
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_ms_p50"):
        return "ms"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("ns_per_instr"):
        return "ns"
    if name == "trace.overhead":
        return "x"
    return "count"


class BenchError(Exception):
    """A phase failed to run or produced output the benchmark rejects."""


class Runner:
    def __init__(self, root: Path, workload, seed: int) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.tmp = root / ".perfbench_tmp" / f"{os.getpid()}-{time.time_ns()}"
        self.tmp.mkdir(parents=True)
        self.env = dict(os.environ)
        # unpinned hash seed (pinning could hide nondeterminism); serial
        # sweeps; the store always enabled and always the run's own.
        for var in ("PYTHONHASHSEED", "REPRO_WORKERS", "REPRO_CACHE"):
            self.env.pop(var, None)
        self.env["PYTHONPATH"] = str(root / "src")
        self.env["TMPDIR"] = str(self.tmp)
        self.reps = 0

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            self.tmp.parent.rmdir()
        except OSError:
            pass  # another run is using it

    def phase(self, phase: str, store: Path, serve_store: Path | None = None,
              trace: Path | None = None) -> dict:
        cmd = [sys.executable, str(HERE / "phase.py"),
               "--workload", self.workload.name, "--seed", str(self.seed),
               "--phase", phase, "--store", str(store)]
        if serve_store is not None:
            cmd += ["--serve-store", str(serve_store)]
        if trace is not None:
            cmd += ["--trace", str(trace)]
        env = dict(self.env, REPRO_CACHE_DIR=str(store))
        try:
            proc = subprocess.run(cmd, env=env, cwd=self.root,
                                  capture_output=True, text=True,
                                  timeout=PHASE_TIMEOUT)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{phase} phase exceeded {PHASE_TIMEOUT:g}s")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{phase} phase exited {proc.returncode}:\n"
                             + proc.stderr[-4000:])
        return json.loads(lines[-1])

    def repetition(self, traced: bool = False) -> dict:
        """Cold grid, warm grid, serve — three fresh processes."""
        self.reps += 1
        rep = self.tmp / f"rep{self.reps}"
        store = rep / "store"
        serve_store = rep / "serve-store" if self.workload.serve_cold else None
        trace = (lambda name: rep / f"spans-{name}.json") if traced else (
            lambda name: None)
        out = {
            "cold": self.phase("cold", store, trace=trace("cold")),
            "warm": self.phase("warm", store, trace=trace("warm")),
            "serve": self.phase("serve", store, serve_store, trace("serve")),
        }
        if traced:
            out["spans"] = {
                name: aggregate(json.loads(trace(name).read_text()))
                for name in ("cold", "warm", "serve")
            }
        shutil.rmtree(rep, ignore_errors=True)
        return out


def check(reps: list[dict], workload, seed: int) -> tuple[int, int, list[str]]:
    """Correctness gate: returns (attempted, failed, problems)."""
    attempted = failed = 0
    problems: list[str] = []
    expected_cells = {tuple(c) for c in workload.cells(seed)}
    reference = None
    for i, rep in enumerate(reps):
        for name in ("cold", "warm", "serve"):
            ph = rep[name]
            fp = {tuple(r["cell"]): (r["seq"], r["par"], r["instrs"])
                  for r in ph["rows"]}
            bad = [r["cell"] for r in ph["rows"] if not r["ok"]]
            if name == "serve":
                attempted += sum(map(len, ph["requests"]))
                n_err = sum(ph["errors"].values())
                failed += n_err + len(bad)
                if n_err:
                    problems.append(f"rep {i + 1} serve: error replies "
                                    f"{ph['errors']}")
                if not set(fp) <= expected_cells:
                    problems.append(f"rep {i + 1} serve: unexpected cells")
            else:
                attempted += len(ph["rows"])
                failed += len(bad)
                if set(fp) != expected_cells:
                    problems.append(f"rep {i + 1} {name}: cell set differs "
                                    "from the workload's")
            if bad:
                problems.append(f"rep {i + 1} {name}: unverified or failed "
                                f"cells {bad[:4]}")
            if name == "warm" and ph["store_writes"]:
                problems.append(f"rep {i + 1} warm: {ph['store_writes']} "
                                "store writes on a recall-only phase")
            if reference is None:
                reference = fp
            elif any(reference.get(c) != v for c, v in fp.items()):
                problems.append(f"rep {i + 1} {name}: simulated fingerprint "
                                "differs from the first cold phase")
    if len({json.dumps(r["cold"]["fig12"], sort_keys=True) for r in reps}) != 1:
        problems.append("fig12 values differ between repetitions")
    return attempted, failed, problems


def best_grid_s(phases: list[dict]) -> float:
    """Grid phase time in reference seconds, best of k per segment: the
    sum over the gaps between marks (one per ``run_grid`` call in
    phase.py) of the fastest repetition of each."""
    segs = [RefClock(p["marks"]).segments() for p in phases]
    if len({len(s) for s in segs}) != 1:
        raise BenchError("grid repetitions were cut into different numbers "
                         f"of segments: {[len(s) for s in segs]}")
    return sum(min(col) for col in zip(*segs))


def serve_estimates(phases: list[dict]) -> tuple[float, float, float]:
    """Serve phase time in reference seconds, best of k per chunk (the
    same requests in every repetition), and request latency p50 and p99
    in reference milliseconds: each repetition's nearest-rank
    percentile over its requests, then the median over the repetitions
    for p50 and the best for p99 (README.md, "Estimator")."""
    clocks = [RefClock(p["marks"]) for p in phases]
    total = sum(
        min(c.ref(a, b) for c, (a, b) in zip(clocks, col))
        for col in zip(*(p["chunks"] for p in phases))
    )
    lats = [[c.ref(a, b) * 1e3 for seq in p["requests"] for a, b in seq]
            for c, p in zip(clocks, phases)]
    return (total, statistics.median(pct(lat, 50) for lat in lats),
            min(pct(lat, 99) for lat in lats))


def host_s(phase: dict) -> float:
    """Host seconds of a phase, ruler time excluded."""
    if "marks" not in phase:  # traced: no rulers ran
        return phase["elapsed_s"]
    clock = RefClock(phase["marks"])
    if "chunks" in phase:
        return sum(clock.host(a, b) for a, b in phase["chunks"])
    return clock.host(clock.marks[0][2], clock.marks[-1][0])


def pct(vals: list[float], q: float) -> float:
    """Nearest-rank percentile, as the serve metrics endpoint reads it."""
    vals = sorted(vals)
    return vals[max(1, math.ceil(q / 100 * len(vals))) - 1]


def end_to_end(reps: list[dict]) -> dict:
    n_cells = len(reps[0]["cold"]["rows"])
    procs = [rep[name] for rep in reps for name in ("cold", "warm", "serve")]
    serve_s, p50, p99 = serve_estimates([rep["serve"] for rep in reps])
    n_requests = sum(map(len, reps[0]["serve"]["requests"]))
    fig = reps[0]["cold"]["fig12"]
    return {
        "setup_s": statistics.median(reference_s(*p["setup"]) for p in procs),
        "cold_cells_per_s": n_cells / best_grid_s([r["cold"] for r in reps]),
        "warm_cells_per_s": n_cells / best_grid_s([r["warm"] for r in reps]),
        "fig12_speedup_2c": fig["fig12_speedup_2c"],
        "fig12_speedup_4c": fig["fig12_speedup_4c"],
        "fig12_err_4c": fig["fig12_err_4c"],
        "req_per_s": n_requests / serve_s,
        "p50_ms": p50,
        "p99_ms": p99,
        "peak_rss_mb": statistics.median(
            max(r[n]["peak_rss_mb"] for n in ("cold", "warm", "serve"))
            for r in reps),
    }


def per_layer(traced: dict, untraced: list[dict]) -> dict:
    out = {name: 0.0 for name in per_layer_names()}
    spans = traced["spans"]
    for agg in spans.values():
        for name, v in agg["layers"].items():
            out[name] = out.get(name, 0.0) + v
        out["unattributed.s"] += agg["unattributed_s"]
        out["trace.phase_s"] += agg["phase_s"]
        out["trace.missing"] = max(out["trace.missing"], len(agg["missing"]))
    for kind in SIM_KINDS:
        n = out[f"sim.{kind}.instrs"]
        out[f"sim.{kind}.ns_per_instr"] = (
            out[f"sim.{kind}.s"] * 1e9 / n if n else 0.0)
    out["compiler.autotune.sims"] = out["sim.profile.calls"]
    out["import.s"] = traced["cold"]["import_s"]
    for key in ("codegen", "mem_hit", "disk_hit"):
        out[f"sim.fast.{key}"] = float(sum(
            traced[n]["sim_fast"].get(key, 0) for n in ("cold", "warm", "serve")))
    serve = traced["serve"]
    out["serve.requests"] = float(sum(map(len, serve["requests"])))
    selfs = sorted(spans["serve"]["request_self_ms"])
    out["serve.self_ms_p50"] = selfs[(len(selfs) - 1) // 2] if selfs else 0.0
    for key, v in serve["serve_counters"].items():
        out[f"serve.{key}"] = float(v)

    def phase_time(rep: dict) -> float:
        return sum(host_s(rep[n]) for n in ("cold", "warm", "serve"))

    out["trace.overhead"] = phase_time(traced) / min(
        phase_time(r) for r in untraced)
    return {name: out[name] for name in per_layer_names()}


def trace_problems(traced: dict, workload) -> list[str]:
    """The traced run's self-check: the layers that must fire on this
    workload did, no binding site is missing, and on the serial grid
    phases the leaf layers cover all but GLUE_MAX of the phase."""
    problems = []
    spans = traced["spans"]
    must = {
        "cold": ["store.sweep.self_s", "experiments.run_kernel.self_s",
                 "compiler.parallelize.calls", "interp.calls",
                 "sim.par.calls", "sim.seq.calls", "check.calls",
                 "isa.lower.calls", "verify.calls", "store.disk.put.calls"],
        "warm": ["store.keys.calls", "store.disk.get.hits"],
        "serve": ["store.keys.calls"],
    }
    if workload.serve_cold:
        must["serve"].append("serve.compute.calls")
    else:
        must["serve"].append("store.disk.get.hits")
    for name, layers in must.items():
        agg = spans[name]
        for layer in layers:
            if not agg["layers"].get(layer):
                problems.append(f"traced {name} phase: layer {layer} "
                                "never fired")
        if agg["missing"]:
            problems.append(f"traced {name} phase: binding sites missing "
                            f"{agg['missing']}")
    for name in ("cold", "warm"):
        agg = spans[name]
        if not agg["serial"]:
            problems.append(f"traced {name} phase: overlapping spans on a "
                            "serial phase")
        glue = agg["unattributed_s"] + sum(
            agg["layers"].get(f"{layer}.self_s", 0.0) for layer in SELF_LAYERS)
        if glue > GLUE_MAX * agg["phase_s"]:
            problems.append(f"traced {name} phase: {glue / agg['phase_s']:.1%}"
                            " of the phase is outside the leaf layers (at "
                            f"most {GLUE_MAX:.0%})")
    return problems


def run_workload(root: Path, name: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    workload = WORKLOADS[name]
    runner = Runner(root, workload, seed)
    try:
        # untimed: byte-compiles the program once, so no timed process
        # pays for it
        runner.phase("setup", runner.tmp / "setup-store")
        start = time.perf_counter()
        traced = runner.repetition(traced=True) if trace else None
        k = 1 if trace else max(MIN_REPS, int(seconds // workload.rep_seconds))
        reps = [runner.repetition() for _ in range(k)]
    finally:
        runner.close()

    everything = reps + ([traced] if traced else [])
    attempted, failed, problems = check(everything, workload, seed)
    if trace:
        problems += trace_problems(traced, workload)
        metrics = per_layer(traced, reps)
    else:
        metrics = end_to_end(reps)
    return {
        "workload": name, "reps": len(reps), "attempted": attempted,
        "failed": failed, "problems": problems, "metrics": metrics,
        "fig12": reps[0]["cold"]["fig12"],
        "serve_samples": sum(map(len, reps[0]["serve"]["requests"])),
        "elapsed_s": time.perf_counter() - start, "seconds": seconds,
    }


def report(res: dict, trace: bool) -> None:
    w = res["workload"]
    print(f"== {w}: {res['reps']} untraced repetition(s), "
          f"{res['elapsed_s']:.1f}s; attempted {res['attempted']}, "
          f"failed {res['failed']}")
    if res["elapsed_s"] > res["seconds"]:
        print(f"  note: the run took {res['elapsed_s']:.1f}s, longer than "
              f"--seconds {res['seconds']:g}; k is unchanged")
    fig = res["fig12"]
    for name, v in res["metrics"].items():
        note = ""
        if name == "fig12_speedup_2c":
            note = f"  (paper avg {fig['paper_avg']['2']})"
        elif name == "fig12_speedup_4c":
            note = f"  (paper avg {fig['paper_avg']['4']})"
        elif name in ("p50_ms", "p99_ms", "req_per_s"):
            note = f"  ({res['serve_samples']} requests per repetition)"
        print(f"  {name:32s} {v:14.6g} {unit(name)}{note}")
    if not trace:
        print("  fig12 per kernel, 4 cores (simulated vs PAPER_SPEEDUP_4; "
              "the model is validated only against these published figures):")
        for k, v in fig["per_kernel_4c"].items():
            print(f"    {k:10s} {v:6.3f}  paper {fig['paper_4c'][k]:.2f}")
    for p in res["problems"]:
        print(f"  FAIL: {p}")


def main() -> int:
    ap = argparse.ArgumentParser(
        description="Run the repository benchmark (see perfbench/README.md).")
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not 0 <= args.seed < 2 ** 31 - 1:
        ap.error("--seed must be in [0, 2**31 - 1)")

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a checkout of the program "
              "(src/repro not found)", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        try:
            res = run_workload(root, name, args.seed, args.seconds,
                               bool(args.trace))
        except BenchError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        report(res, bool(args.trace))
        results.append(res)

    if len(results) == 1:
        metrics = {n: {"value": v, "unit": unit(n)}
                   for n, v in results[0]["metrics"].items()}
    else:
        metrics = {f"{r['workload']}:{n}": {"value": v, "unit": unit(n)}
                   for r in results for n, v in r["metrics"].items()}
    ok = all(not r["problems"] and r["failed"] == 0 for r in results)
    print(json.dumps({
        "correct": ok,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
