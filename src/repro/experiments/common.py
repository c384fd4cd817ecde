"""Shared experiment harness.

``run_kernel`` compiles and simulates one kernel in one configuration
and returns a :class:`KernelRun` with cycles, speedup vs. the
sequential baseline, compile-time statistics and correctness checks
(every simulated run is verified against the reference interpreter —
an experiment that produces wrong answers is not a result).

Results are memoised at two levels: a per-process dict, and the
persistent content-addressed store (:mod:`repro.store`) keyed by the
kernel's normalized IR, the compiler and machine configuration, and
the workload ``(trip, seed)`` recipe.  A warm store makes every
experiment idempotent — zero compile/simulate calls on re-run.
``run_table1_grid`` additionally fans whole kernel × config matrices
out over the :mod:`repro.store.sweep` worker pool.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, fields, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..compiler import CompilerConfig, MergeWeights
from ..compiler.pipeline import PlanStats
from ..interp import run_loop
from ..kernels import KernelSpec, table1_kernels
from ..runtime import compile_loop, execute_kernel
from ..runtime.guard import FailureKind, classify_failure
from ..sim import BudgetExceeded, DeadlockError, MachineParams, MemoryFault, SimError
from ..store.keys import KeyMemo
from ..verify import verify_result

log = logging.getLogger(__name__)

#: default evaluation trip count (large enough to amortise the §III-G
#: startup overhead, as the paper requires of its kernels).
DEFAULT_TRIP = 64

_UNSET = object()


@dataclass(frozen=True)
class ExpConfig:
    """One experiment cell: compiler + machine configuration."""

    n_cores: int = 4
    queue_latency: int = 5
    queue_depth: int = 20
    speculation: bool = False
    throughput_heuristic: bool = False
    multi_pair_merge: bool = False
    max_expr_height: int = 2
    trip: int = DEFAULT_TRIP
    seed: int = 0
    #: queue latency the compiler plans against (E10 varies this
    #: independently of the machine's true ``queue_latency``).
    assumed_queue_latency: int = 5
    #: route the cell through the adaptive runtime (guarded_run with
    #: the adapt rung enabled: work-stealing placement + self-tuned
    #: queue depths, every dynamic config checker-verified).  The
    #: compiler emits the stealing protocol, so the store digest of an
    #: adaptive cell differs from its static twin by construction.
    adaptive: bool = False
    #: simulator back end for this cell ("reference" | "specialized" |
    #: "batched").  Excluded from store keys — all modes are bit-exact
    #: by contract, so warm caches are shared across modes.
    sim_mode: str = "reference"

    def __post_init__(self) -> None:
        # Cells are matched by equality (run cache, key memo) but keyed
        # by their JSON; 10 == 10.0 and 1 == True while their JSON
        # differs, so every field takes its declared type here.
        for name, kind in _EXP_FIELD_TYPES:
            value = getattr(self, name)
            if type(value) is not kind:
                object.__setattr__(self, name, _coerce_field(name, kind, value))

    def compiler(self, profile_workload=None) -> CompilerConfig:
        return CompilerConfig(
            max_expr_height=self.max_expr_height,
            speculation=self.speculation,
            throughput_heuristic=self.throughput_heuristic,
            multi_pair_merge=self.multi_pair_merge,
            assumed_queue_latency=self.assumed_queue_latency,
            runtime_mode="stealing" if self.adaptive else "static",
            profile_workload=profile_workload,
            sim_mode=self.sim_mode,
        )

    def machine(self) -> MachineParams:
        return MachineParams(
            queue_depth=self.queue_depth,
            queue_latency=self.queue_latency,
        )

    def seq_compiler(self) -> CompilerConfig:
        """Compiler configuration of the cell's single-core sequential
        baseline."""
        return CompilerConfig(max_expr_height=self.max_expr_height)


#: (name, type) of every ExpConfig field.
_EXP_FIELD_TYPES = tuple(
    (f.name, {"int": int, "bool": bool, "str": str}[f.type])
    for f in fields(ExpConfig)
)


def _coerce_field(name: str, kind: type, value):
    """``value`` as ``kind`` when that is the same number or string
    (``10.0`` → ``10``, ``1`` → ``True``, numpy scalars); else TypeError."""
    try:
        coerced = kind(value)
    except (TypeError, ValueError):
        coerced = None
    if coerced is None or coerced != value:
        raise TypeError(
            f"ExpConfig.{name} must be {kind.__name__}, got {value!r}"
        )
    return coerced


@dataclass
class KernelRun:
    kernel: str
    config: ExpConfig
    seq_cycles: float
    par_cycles: float
    correct: bool
    deadlocked: bool
    stats: PlanStats | None
    queue_stall: float = 0.0
    instrs: int = 0
    #: guard-taxonomy kind (str) when the parallel run failed, else None
    #: (see :class:`repro.runtime.guard.FailureKind`).
    failure: str | None = None
    #: True when no verified parallel result exists and the cell's
    #: trustworthy data came from the sequential path only.
    fallback: bool = False
    #: escalation rung that served the result on adaptive cells
    #: ("first-try" | "static" | "adaptive" | ... | "fallback");
    #: None on plain static cells that never entered the guard.
    resolved_by: str | None = None

    @property
    def speedup(self) -> float:
        if self.deadlocked or self.par_cycles <= 0:
            return 0.0
        return self.seq_cycles / self.par_cycles


#: L1: per-process memo of full runs, keyed by (kernel name, config).
_cache: dict[tuple, KernelRun] = {}
#: L1 for sequential-baseline cycles, keyed by content digest.
_seq_cache: dict[str, float] = {}


def clear_cache() -> None:
    _cache.clear()
    _seq_cache.clear()


def seed_cache(run: KernelRun) -> None:
    """Insert an externally computed run (e.g. from a sweep worker)."""
    _cache[(run.kernel, run.config)] = run


#: process-wide memo behind every store key (see :func:`store_key_for`).
_KEYS = KeyMemo()


def store_key_for(spec: KernelSpec, config: ExpConfig, kind: str = "run") -> str:
    """Persistent-store key of one grid cell.

    ``kind="run"`` keys the parallel run, ``"seq"`` the sequential
    baseline (one core, :meth:`ExpConfig.seq_compiler`); serve also
    keys its ``compile`` and ``trace`` payloads here.  The digest equals
    :func:`repro.store.keys.kernel_run_key` on the cell's loop and
    configuration, byte for byte, but comes from the process-wide
    :class:`~repro.store.keys.KeyMemo`: the IR is built and printed once
    per (spec object, ``max_expr_height``), the compiler and machine
    forms are serialized once per configuration (ignoring trip, seed
    and ``sim_mode``), and a repeated (spec, config, kind) costs one
    lookup.  Safe to call from several threads.
    """
    return _KEYS.key(spec, config, kind)


def _task_event(obs, name: str, t0: float, status: str) -> None:
    if obs is not None and obs.enabled:
        import time as _time

        obs.emit_task(name, t0, _time.perf_counter(), status)


def run_kernel(
    spec: KernelSpec, config: ExpConfig, store=_UNSET, obs=None,
) -> KernelRun:
    """Run (or recall) one grid cell.

    ``obs`` is the opt-in observability hook: when an enabled
    :class:`repro.obs.events.EventBus` is passed, the cell emits a
    ``task`` lifecycle event (status ``cached`` / ``ok`` / a failure
    kind) and the compile + simulate stages emit their pass spans and
    simulator events into the same bus.
    """
    import time as _time

    if store is _UNSET:
        from ..store.disk import default_store

        store = default_store()

    t0 = _time.perf_counter()
    task = f"{spec.name}:c{config.n_cores}"
    key = (spec.name, config)
    hit = _cache.get(key)
    if hit is not None:
        if store is not None:
            # The memo says "computed"; the caller needs "durable in
            # *this* store".  After a gc/clear, or when resuming a
            # different store root in a warm process, the record may
            # be absent — rewrite it so run_kernel's contract (return
            # implies a durable record) holds for crash recovery.
            digest = store_key_for(spec, config)
            if store.get_run(digest) is None:
                store.put_run(digest, hit)
        _task_event(obs, task, t0, "cached")
        return hit

    digest = store_key_for(spec, config)
    if store is not None:
        cached = store.get_run(digest)
        if cached is not None:
            _cache[key] = cached
            _task_event(obs, task, t0, "cached")
            return cached

    loop = spec.loop()
    wl = spec.workload(trip=config.trip, seed=spec.seed + config.seed)
    ref = run_loop(loop, wl)

    # Sequential baseline: cached separately (digest-keyed) so the
    # record under the baseline key is never a parallel KernelRun.
    seq_digest = store_key_for(spec, config, "seq")
    seq_cycles = _seq_cache.get(seq_digest)
    if seq_cycles is None and store is not None:
        seq_cycles = store.get_seq(seq_digest)
    if seq_cycles is None:
        k1 = compile_loop(loop, 1, config.seq_compiler())
        seq_cycles = execute_kernel(k1, wl, config.machine()).cycles
        if store is not None:
            store.put_seq(seq_digest, spec.name, seq_cycles)
    _seq_cache[seq_digest] = seq_cycles

    deadlocked = False
    correct = True
    stats = None
    par_cycles = float("inf")
    qstall = 0.0
    instrs = 0
    failure = None
    resolved_by = None
    if config.adaptive:
        # Adaptive cell: the whole compile/execute/verify path runs
        # under the guard's escalation ladder (adapt -> relax ->
        # sequential), and the rung that served the result lands in
        # the record as provenance.
        from ..runtime.guard import GuardPolicy, guarded_run

        g = guarded_run(
            loop, wl, config.n_cores,
            config=config.compiler(profile_workload=wl),
            params=config.machine(),
            policy=GuardPolicy(adapt=True),
            obs=obs,
        )
        correct = g.source == "parallel"
        resolved_by = g.resolved_by
        if g.sim is not None:
            par_cycles = g.sim.cycles
            qstall = g.sim.total_queue_stall
            instrs = g.sim.total_instrs
        if g.degraded:
            deadlocked = any(
                k is FailureKind.DEADLOCK for k in g.failure_kinds
            )
            failure = (g.failure_kinds[-1].value
                       if g.failure_kinds else None)
    else:
        try:
            k = compile_loop(loop, config.n_cores,
                             config.compiler(profile_workload=wl), obs=obs)
            stats = k.plan.stats
            res = execute_kernel(k, wl, config.machine(), obs=obs)
            par_cycles = res.cycles
            qstall = res.total_queue_stall
            instrs = res.total_instrs
            correct = verify_result(ref, res)
            if not correct:
                failure = FailureKind.VERIFY_MISMATCH.value
                if config.sim_mode != "reference":
                    # Bisect the blame: if the reference back end gets
                    # the right answer for the same kernel, the fast
                    # path broke its bit-exactness contract — report
                    # that loudly instead of a generic mismatch.
                    refres = execute_kernel(k, wl, config.machine(),
                                            sim_mode="reference")
                    if verify_result(ref, refres):
                        failure = FailureKind.SIM_DIVERGENCE.value
                        log.error(
                            "%s: %s simulator diverged from the reference "
                            "back end — fast-path bug, result rejected",
                            spec.name, config.sim_mode,
                        )
        except DeadlockError:
            deadlocked = True
            correct = False
            failure = FailureKind.DEADLOCK.value
        except (BudgetExceeded, MemoryFault, SimError) as exc:
            # keep the grid alive: classify and record instead of
            # crashing the whole sweep; the sequential baseline above
            # is still valid.
            log.warning("%s: parallel run failed (%s: %s)",
                        spec.name, type(exc).__name__, exc)
            correct = False
            failure = classify_failure(exc).value

    run = KernelRun(
        kernel=spec.name,
        config=config,
        seq_cycles=seq_cycles,
        par_cycles=par_cycles,
        correct=correct,
        deadlocked=deadlocked,
        stats=stats,
        queue_stall=qstall,
        instrs=instrs,
        failure=failure,
        fallback=failure is not None,
        resolved_by=resolved_by,
    )
    _cache[key] = run
    if store is not None:
        store.put_run(digest, run)
    _task_event(obs, task, t0, failure or "ok")
    return run


def run_kernel_batch(
    spec: KernelSpec,
    configs: Sequence[ExpConfig],
    store=_UNSET,
    obs=None,
) -> list[KernelRun]:
    """Run many grid cells of one kernel, batching where possible.

    Cells that are cached, adaptive, or not in ``sim_mode="batched"``
    go through :func:`run_kernel` unchanged.  The rest are grouped by
    configuration-modulo-seed and advanced in numpy lockstep by
    :func:`repro.sim.fast.batch.run_batch` — one simulation for the
    whole seed column.  Any divergence or machine failure degrades that
    group to the per-lane scalar path, so the returned records are
    always exactly what :func:`run_kernel` would have produced.
    """
    if store is _UNSET:
        from ..store.disk import default_store

        store = default_store()

    configs = list(configs)
    out: dict[int, KernelRun] = {}
    groups: dict[ExpConfig, list[int]] = {}
    for i, cfg in enumerate(configs):
        batchable = not cfg.adaptive and cfg.sim_mode == "batched"
        if batchable and (spec.name, cfg) not in _cache:
            if (store is None
                    or store.get_run(store_key_for(spec, cfg)) is None):
                groups.setdefault(replace(cfg, seed=0), []).append(i)
                continue
        out[i] = run_kernel(spec, cfg, store=store, obs=obs)
    for lanes in groups.values():
        if len(lanes) < 2:
            for i in lanes:
                out[i] = run_kernel(spec, configs[i], store=store, obs=obs)
            continue
        runs = _run_batch_group(
            spec, [configs[i] for i in lanes], store, obs,
        )
        for i, run in zip(lanes, runs):
            out[i] = run
    return [out[i] for i in range(len(configs))]


def _run_batch_group(
    spec: KernelSpec, cells: list[ExpConfig], store, obs,
) -> list[KernelRun]:
    """Compute one config-modulo-seed column of uncached batched cells."""
    import time as _time

    from ..sim.fast.batch import Divergence, run_batch
    from ..sim.fast.specialize import source_key

    t0 = _time.perf_counter()
    loop = spec.loop()
    machine = cells[0].machine()
    wls = [
        spec.workload(trip=c.trip, seed=spec.seed + c.seed) for c in cells
    ]
    refs = [run_loop(loop, wl) for wl in wls]
    _sim_failures = (DeadlockError, BudgetExceeded, MemoryFault, SimError)

    # Sequential baselines: one single-core kernel serves every lane
    # (no profile feedback in the baseline config), so the uncached
    # lanes can run as one batch too.
    seq_digests = [store_key_for(spec, c, "seq") for c in cells]
    seq_cycles: list[float | None] = []
    for d in seq_digests:
        v = _seq_cache.get(d)
        if v is None and store is not None:
            v = store.get_seq(d)
        seq_cycles.append(v)
    missing = [i for i, v in enumerate(seq_cycles) if v is None]
    if missing:
        k1 = compile_loop(loop, 1, cells[0].seq_compiler())
        try:
            vals = [
                r.cycles
                for r in run_batch(k1, [wls[i] for i in missing], machine)
            ]
        except (Divergence, *_sim_failures):
            vals = [
                execute_kernel(k1, wls[i], machine).cycles for i in missing
            ]
        for i, v in zip(missing, vals):
            seq_cycles[i] = v
            if store is not None:
                store.put_seq(seq_digests[i], spec.name, v)
    for d, v in zip(seq_digests, seq_cycles):
        _seq_cache[d] = v

    # Parallel runs: compile each lane with its own profile workload
    # (identical to run_kernel), then batch the lanes whose compiled
    # programs came out identical — autotuning *may* pick a different
    # partitioning for a different seed, and those lanes must not share
    # a lockstep machine.
    kernels = [
        compile_loop(loop, c.n_cores, c.compiler(profile_workload=w),
                     obs=obs)
        for c, w in zip(cells, wls)
    ]
    subgroups: dict[tuple, list[int]] = {}
    for i, k in enumerate(kernels):
        pdig = tuple(source_key(p) for p in k.programs)
        subgroups.setdefault(pdig, []).append(i)
    results: list = [None] * len(cells)
    failures: list[str | None] = [None] * len(cells)
    deadlocked = [False] * len(cells)
    for lanes in subgroups.values():
        try:
            rs = run_batch(
                kernels[lanes[0]], [wls[i] for i in lanes], machine,
            )
            for i, r in zip(lanes, rs):
                results[i] = r
            continue
        except (Divergence, *_sim_failures):
            pass  # degrade this subgroup to per-lane scalar runs
        for i in lanes:
            try:
                results[i] = execute_kernel(
                    kernels[i], wls[i], machine, sim_mode="specialized",
                )
            except DeadlockError:
                deadlocked[i] = True
                failures[i] = FailureKind.DEADLOCK.value
            except _sim_failures as exc:
                log.warning("%s: parallel run failed (%s: %s)",
                            spec.name, type(exc).__name__, exc)
                failures[i] = classify_failure(exc).value

    runs = []
    for i, c in enumerate(cells):
        res = results[i]
        correct = False
        par_cycles = float("inf")
        qstall = 0.0
        instrs = 0
        failure = failures[i]
        if res is not None:
            par_cycles = res.cycles
            qstall = res.total_queue_stall
            instrs = res.total_instrs
            correct = verify_result(refs[i], res)
            if not correct:
                failure = FailureKind.VERIFY_MISMATCH.value
                refres = execute_kernel(kernels[i], wls[i], machine,
                                        sim_mode="reference")
                if verify_result(refs[i], refres):
                    failure = FailureKind.SIM_DIVERGENCE.value
                    log.error(
                        "%s: batched simulator diverged from the reference "
                        "back end — fast-path bug, result rejected",
                        spec.name,
                    )
        run = KernelRun(
            kernel=spec.name,
            config=c,
            seq_cycles=seq_cycles[i],
            par_cycles=par_cycles,
            correct=correct,
            deadlocked=deadlocked[i],
            stats=kernels[i].plan.stats,
            queue_stall=qstall,
            instrs=instrs,
            failure=failure,
            fallback=failure is not None,
        )
        _cache[(spec.name, c)] = run
        if store is not None:
            store.put_run(store_key_for(spec, c), run)
        _task_event(obs, f"{spec.name}:c{c.n_cores}", t0, failure or "ok")
        runs.append(run)
    return runs


#: kept as an alias — older callers imported the private helper.
_verify = verify_result


def geomean(values: Iterable[float], label: str = "") -> float:
    """Geometric mean of the positive values.

    Non-positive entries (deadlocked kernels report speedup 0) cannot
    enter a geometric mean; they are excluded, and the exclusion is
    logged so deadlocks never silently inflate an average.
    """
    all_vals = list(values)
    vals = [v for v in all_vals if v > 0]
    dropped = len(all_vals) - len(vals)
    if dropped:
        log.warning(
            "geomean%s: dropped %d non-positive value(s) of %d",
            f" ({label})" if label else "", dropped, len(all_vals),
        )
    if not vals:
        return 0.0
    return float(np.exp(np.mean(np.log(vals))))


def amean(values: Iterable[float]) -> float:
    vals = list(values)
    return float(np.mean(vals)) if vals else 0.0


def run_table1(config: ExpConfig, store=_UNSET, obs=None) -> list[KernelRun]:
    return [
        run_kernel(spec, config, store=store, obs=obs)
        for spec in table1_kernels()
    ]


def run_table1_grid(
    configs: Sequence[ExpConfig],
    *,
    workers: int | str | None = None,
    store=_UNSET,
) -> Mapping[ExpConfig, list[KernelRun]]:
    """Run the 18 Table-I kernels under every config as one sweep grid.

    With ``workers`` (or ``$REPRO_WORKERS``) set, the whole matrix is
    scheduled over the :mod:`repro.store.sweep` pool; otherwise cells
    run serially in-process.  Results are identical either way.
    """
    from ..store.sweep import run_grid

    if store is _UNSET:
        from ..store.disk import default_store

        store = default_store()
    specs = table1_kernels()
    grid = run_grid(specs, list(configs), workers=workers, store=store)
    return {cfg: [grid[(s.name, cfg)] for s in specs] for cfg in configs}
