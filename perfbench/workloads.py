"""The benchmark's workloads: which grid cells and which request mix.

Every workload runs the same three phases, each in a fresh process
(see ``run.py``): a cold grid over its cells on an empty store, a warm
grid recalling the same cells from that store, and a serve phase in
which two closed-loop clients request the same cells.  The workloads
differ in their cells, in the trip count the Fig 12 metrics are read
at, and in the store the serve phase starts from.  README.md says why
each one exists.

This module is standard-library only: the orchestrator imports it
without importing the program.
"""

from __future__ import annotations

from dataclasses import dataclass

#: the 18 Table-I kernels, in table order (checked against
#: ``repro.kernels.table1_kernels()`` by every phase process).
TABLE1 = (
    "lammps-1", "lammps-2", "lammps-3", "lammps-4", "lammps-5",
    "irs-1", "irs-2", "irs-3", "irs-4", "irs-5",
    "umt2k-1", "umt2k-2", "umt2k-3", "umt2k-4", "umt2k-5", "umt2k-6",
    "sphot-1", "sphot-2",
)

#: requests per serve phase: nearest-rank p99 of 2000 samples leaves
#: 20 samples beyond it.
SERVE_REQUESTS = 2000
SERVE_CLIENTS = 2
#: requests per client between two calibration barriers (phase.py)
SERVE_CHUNK = 10
ZIPF_S = 1.1
#: seeds the serve phase's request order, which is the same at every
#: benchmark seed: which first touches of the two clients collide moved
#: p99 by up to 30% from seed to seed.
DRAW_SEED = 0x5EED

#: a grid cell: (kernel, cores, trip, workload seed offset).
Cell = tuple[str, int, int, int]


@dataclass(frozen=True)
class Workload:
    name: str
    cores: tuple[int, ...]
    trips: tuple[int, ...]
    #: workload seed offsets added to the benchmark seed.
    seed_offsets: tuple[int, ...]
    #: trip count whose seed-``s`` cells give the fig12_* metrics.
    fig_trip: int
    #: True: the serve phase starts from an empty store, so first
    #: touches compute.  False: it starts from the store the grid
    #: phases filled, so first touches are disk (L2) reads.
    serve_cold: bool
    #: host seconds of one repetition in a slow spell of the 2-vCPU
    #: guest it was measured on (Python 3.11).  ``--seconds`` over this
    #: is the run's k, so that k repetitions end within ``--seconds``
    #: even then.
    rep_seconds: float
    why: str

    def cells(self, seed: int) -> list[Cell]:
        return [
            (k, c, t, seed + off)
            for k in TABLE1
            for c in self.cores
            for t in self.trips
            for off in self.seed_offsets
        ]

    def fig_cells(self, seed: int) -> list[Cell]:
        return [
            cell for cell in self.cells(seed)
            if cell[2] == self.fig_trip and cell[3] == seed
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="table1-grid",
            cores=(2, 4), trips=(64,), seed_offsets=(0, 1), fig_trip=64,
            serve_cold=False, rep_seconds=11.0,
            why="the Fig 12 grid at the default trip: compiler-bound cold, "
                "key- and record-read-bound warm; two seed columns",
        ),
        Workload(
            name="long-trip",
            cores=(2, 4), trips=(512,), seed_offsets=(0,), fig_trip=512,
            serve_cold=False, rep_seconds=14.0,
            why="long trip counts: the simulator and the interpreter oracle "
                "dominate, the compiler barely shows",
        ),
        Workload(
            name="serve-zipf",
            cores=(2, 4), trips=(16, 64), seed_offsets=(0,), fig_trip=64,
            serve_cold=True, rep_seconds=15.0,
            why="zipf(1.1) requests from two closed-loop clients on an empty "
                "store: computes beside sub-millisecond L1 hits",
        ),
    )
}
