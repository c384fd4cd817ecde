"""Code-graph merging down to one node per hardware core (paper §III-B).

"The graph is transformed by merging a pair of nodes at each step,
until the total number of nodes is equal to the number of hardware
cores available for execution. ... Each step of the graph
transformation chooses one or more pairs of nodes to merge based on a
set of heuristics.  Multiple individual heuristics are weighted and
combined to compute an affinity value for each node pair.  The node
pair with the greatest affinity is merged, and then affinities are
recomputed for the next merge step."

Implemented heuristics (weights in :class:`~repro.compiler.config.MergeWeights`):

1. more dependence edges between the pair → higher affinity;
2. smaller combined static compute time → higher affinity (the estimate
   uses fixed op latencies + profile-fed memory latencies);
3. greater source-code proximity (statement line numbers) → higher
   affinity.

Variants:

* **multi-pair merge** — choose several disjoint best pairs per step
  (faster compilation for large fiber counts);
* **throughput heuristic** — "constrains partitioning to allow only
  unidirectional dependences between any two nodes in the final graph",
  implemented exactly as described: "looking for cycles at each step in
  the graph transformation.  If any cycles are found, then all nodes
  that are part of the same cycle are merged together."

Correctness pre-step: *cohesion groups* (loop-carried dependences,
see :mod:`repro.compiler.codegraph`) are unioned before any heuristic
merging.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterable

from ..analysis.cost import CostModel
from .codegraph import CodeGraph
from .config import CompilerConfig, MergeWeights
from .fibers import Fiber, Op, consumed_leaves


@dataclass
class Partition:
    """A final code-graph node: the set of fibers one core executes."""

    pid: int
    fids: frozenset[int]
    ops: list[Op]            # rank-ordered ops of all member fibers
    cost: float              # static compute-time estimate
    n_compute_ops: int       # Table III "load balance" numerator input

    def __repr__(self) -> str:
        return f"Partition(p{self.pid}, {len(self.fids)} fibers, {self.n_compute_ops} ops)"


class _UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> int:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if ra > rb:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return ra


@dataclass
class _Node:
    """Mutable merge-time node state."""

    nid: int
    fids: set[int]
    cost: float
    lo_line: int
    hi_line: int
    version: int = 0


def _fiber_cost(fiber: Fiber, cost: CostModel) -> float:
    total = 0.0
    for op in fiber.ops:
        if op.kind == "expr":
            total += cost.op_cost(op.node)
        elif op.kind == "store":
            total += cost.lat.store
        else:  # move
            total += cost.lat.mov
        for leaf in consumed_leaves(op):
            total += cost.leaf_cost(leaf)
    return total


def strongly_connected_components(
    nodes: Iterable[int], edges: Iterable[tuple[int, int]],
) -> list[list[int]]:
    """Strongly connected components of a digraph (iterative Tarjan).

    Endpoints of ``edges`` missing from ``nodes`` are nodes too.  Each
    component is a sorted list; the order of the components is not.
    """
    succ: dict[int, list[int]] = {n: [] for n in nodes}
    for a, b in edges:
        succ.setdefault(a, []).append(b)
        succ.setdefault(b, [])
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    stack: list[int] = []
    on_stack: set[int] = set()
    comps: list[list[int]] = []
    for root in succ:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ[w])))
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    comp: list[int] = []
                    while not comp or comp[-1] != v:
                        comp.append(stack.pop())
                        on_stack.discard(comp[-1])
                    comps.append(sorted(comp))
    return comps


def merge_partitions(
    graph: CodeGraph,
    n_parts: int,
    config: CompilerConfig | None = None,
) -> list[Partition]:
    """Merge the code graph down to at most ``n_parts`` partitions.

    Returns partitions ordered deterministically (by earliest op rank);
    partition 0 is the one the primary core runs inline (§III-G).  If
    the graph has fewer independent nodes than cores (tiny loop bodies,
    or heavy cohesion), fewer partitions are returned.
    """
    config = config or CompilerConfig()
    fibers = graph.fibers
    if not fibers:
        raise ValueError("empty code graph")
    cost_model = config.cost
    weights = config.weights

    # -- initial nodes: fibers unioned by cohesion ---------------------
    uf = _UnionFind(len(fibers))
    for group in graph.cohesion:
        members = sorted(group)
        for other in members[1:]:
            uf.union(members[0], other)

    nodes: dict[int, _Node] = {}
    fid_node: dict[int, int] = {}
    for f in fibers:
        root = uf.find(f.fid)
        fid_node[f.fid] = root
        node = nodes.get(root)
        fcost = _fiber_cost(f, cost_model)
        if node is None:
            nodes[root] = _Node(
                nid=root, fids={f.fid}, cost=fcost,
                lo_line=f.line, hi_line=f.line,
            )
        else:
            node.fids.add(f.fid)
            node.cost += fcost
            node.lo_line = min(node.lo_line, f.line)
            node.hi_line = max(node.hi_line, f.line)

    # -- pairwise dependence-edge counts at node granularity ----------
    edge_w: dict[tuple[int, int], int] = {}
    for (fa, fb), cnt in graph.fiber_pairs().items():
        na, nb = fid_node[fa], fid_node[fb]
        if na == nb:
            continue
        key = (min(na, nb), max(na, nb))
        edge_w[key] = edge_w.get(key, 0) + cnt

    # directed node graph for the throughput heuristic
    fs = graph.fiberset
    directed: dict[tuple[int, int], int] = {}
    for e in graph.edges:
        na = uf.find(fs.fiber_of(e.producer).fid)
        nb = uf.find(fs.fiber_of(e.consumer).fid)
        if na != nb:
            directed[(na, nb)] = directed.get((na, nb), 0) + 1

    total_cost = sum(n.cost for n in nodes.values())
    mean_cost = max(1e-9, total_cost / max(1, len(nodes)))
    # soft size cap: merging beyond an even per-core share is strongly
    # discouraged (the balancing intent behind the §III-B "smaller
    # compute time" heuristic — concurrency is maximised when no node
    # hogs the work).
    cap = 1.15 * total_cost / max(1, n_parts)

    def affinity(a: _Node, b: _Node) -> float:
        key = (min(a.nid, b.nid), max(a.nid, b.nid))
        dep = edge_w.get(key, 0)
        dep_term = dep / (1.0 + dep)
        time_term = 1.0 / (1.0 + (a.cost + b.cost) / mean_cost)
        gap = max(a.lo_line, b.lo_line) - min(a.hi_line, b.hi_line)
        prox_term = 1.0 / (1.0 + max(0, gap))
        score = (
            weights.dep_edges * dep_term
            + weights.small_time * time_term
            + weights.proximity * prox_term
        )
        if a.cost + b.cost > cap:
            score -= 100.0
        return score

    # -- heap of candidate pairs with lazy invalidation ----------------
    heap: list[tuple[float, int, int, int, int]] = []

    def push_pairs_for(a: int) -> None:
        na = nodes[a]
        for b, nb in nodes.items():
            if b == a:
                continue
            heapq.heappush(
                heap,
                (-affinity(na, nb), min(a, b), max(a, b),
                 na.version + nb.version, 0),
            )

    active = sorted(nodes)
    for i, a in enumerate(active):
        na = nodes[a]
        for b in active[i + 1:]:
            nb = nodes[b]
            heapq.heappush(
                heap, (-affinity(na, nb), a, b, na.version + nb.version, 0)
            )

    def do_merge(a: int, b: int) -> int:
        """Merge node b into node a (a < b); returns surviving id."""
        na, nb = nodes[a], nodes[b]
        na.fids |= nb.fids
        na.cost += nb.cost
        na.lo_line = min(na.lo_line, nb.lo_line)
        na.hi_line = max(na.hi_line, nb.hi_line)
        na.version += nb.version + 1
        del nodes[b]
        # re-aggregate undirected edge weights
        for (x, y) in list(edge_w):
            if b in (x, y):
                w = edge_w.pop((x, y))
                other = y if x == b else x
                if other == a:
                    continue
                key = (min(a, other), max(a, other))
                edge_w[key] = edge_w.get(key, 0) + w
        for (x, y) in list(directed):
            if b in (x, y):
                w = directed.pop((x, y))
                nx_, ny_ = (a if x == b else x), (a if y == b else y)
                if nx_ != ny_:
                    directed[(nx_, ny_)] = directed.get((nx_, ny_), 0) + w
        push_pairs_for(a)
        return a

    def merge_cycles() -> None:
        """Throughput heuristic: collapse every directed cycle."""
        while True:
            sccs = [c for c in strongly_connected_components(nodes, directed)
                    if len(c) > 1]
            if not sccs:
                return
            for comp in sorted(sccs):
                base = comp[0]
                for other in comp[1:]:
                    if other in nodes and base in nodes:
                        do_merge(min(base, other), max(base, other))
                        base = min(base, other)

    if config.throughput_heuristic:
        merge_cycles()

    def pop_best() -> tuple[int, int] | None:
        while heap:
            negaff, a, b, ver, _ = heapq.heappop(heap)
            if a in nodes and b in nodes and nodes[a].version + nodes[b].version == ver:
                return a, b
        return None

    while len(nodes) > n_parts:
        if config.multi_pair_merge:
            budget = len(nodes) - n_parts
            picked: list[tuple[int, int]] = []
            used: set[int] = set()
            stash: list[tuple[float, int, int, int, int]] = []
            while heap and budget > 0:
                item = heapq.heappop(heap)
                _, a, b, ver, _ = item
                if a not in nodes or b not in nodes:
                    continue
                if nodes[a].version + nodes[b].version != ver:
                    continue
                if a in used or b in used:
                    stash.append(item)
                    continue
                picked.append((a, b))
                used.update((a, b))
                budget -= 1
            for item in stash:
                heapq.heappush(heap, item)
            if not picked:
                break
            for a, b in picked:
                do_merge(a, b)
        else:
            best = pop_best()
            if best is None:
                break
            do_merge(*best)
        if config.throughput_heuristic:
            merge_cycles()

    # -- materialise partitions ----------------------------------------
    fid_final: dict[int, int] = {}
    for nid, node in nodes.items():
        for fid in node.fids:
            fid_final[fid] = nid

    groups: dict[int, list[Op]] = {nid: [] for nid in nodes}
    for op in graph.fiberset.ops:
        fib = graph.fiberset.fiber_of(op)
        groups[fid_final[fib.fid]].append(op)

    ordered = sorted(
        groups.items(), key=lambda kv: min(op.rank for op in kv[1])
    )
    partitions: list[Partition] = []
    for pid, (nid, ops) in enumerate(ordered):
        ops_sorted = sorted(ops, key=lambda o: o.rank)
        partitions.append(
            Partition(
                pid=pid,
                fids=frozenset(nodes[nid].fids),
                ops=ops_sorted,
                cost=nodes[nid].cost,
                n_compute_ops=sum(1 for o in ops_sorted if o.kind == "expr"),
            )
        )
    return partitions


def load_balance_ratio(partitions: list[Partition]) -> float:
    """Table III "Load Balance": largest / smallest compute-op count."""
    counts = [max(1, p.n_compute_ops) for p in partitions]
    return max(counts) / min(counts)
