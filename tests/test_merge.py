"""Unit tests for code-graph merging (§III-B) and refinement."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import (
    CompilerConfig,
    build_code_graph,
    load_balance_ratio,
    merge_partitions,
)
from repro.compiler.config import MergeWeights
from repro.compiler.merge import strongly_connected_components
from repro.ir import F64, LoopBuilder, normalize
from repro.kernels import get_kernel


def _graph(loop, h=2):
    return build_code_graph(normalize(loop, max_height=h))


class TestBasics:
    def test_reaches_requested_count(self, demo_loop):
        g = _graph(demo_loop)
        for n in (1, 2, 3, 4):
            parts = merge_partitions(g, n)
            assert len(parts) <= n
            assert len(parts) >= 1

    def test_partitions_cover_all_ops(self, demo_loop):
        g = _graph(demo_loop)
        parts = merge_partitions(g, 4)
        ids = [id(op) for p in parts for op in p.ops]
        assert sorted(ids) == sorted(id(op) for op in g.fiberset.ops)
        assert len(set(ids)) == len(ids)

    def test_fibers_never_split(self, demo_loop):
        g = _graph(demo_loop)
        parts = merge_partitions(g, 4)
        for fiber in g.fibers:
            homes = {
                p.pid
                for p in parts
                for op in fiber.ops
                if id(op) in {id(o) for o in p.ops}
            }
            assert len(homes) == 1

    def test_cohesion_respected(self, demo_loop):
        g = _graph(demo_loop)
        parts = merge_partitions(g, 4)
        fid_home = {}
        for p in parts:
            for fid in p.fids:
                fid_home[fid] = p.pid
        for group in g.cohesion:
            assert len({fid_home[f] for f in group}) == 1

    def test_deterministic(self, demo_loop):
        g1 = _graph(demo_loop)
        g2 = _graph(demo_loop)
        p1 = merge_partitions(g1, 4)
        p2 = merge_partitions(g2, 4)
        assert [sorted(p.fids) for p in p1] == [sorted(p.fids) for p in p2]

    def test_partition_zero_has_earliest_op(self, demo_loop):
        g = _graph(demo_loop)
        parts = merge_partitions(g, 3)
        firsts = [min(op.rank for op in p.ops) for p in parts]
        assert firsts == sorted(firsts)

    def test_empty_graph_rejected(self):
        from repro.compiler.codegraph import CodeGraph
        from repro.compiler.fibers import FiberSet
        from repro.ir import LoopBuilder

        b = LoopBuilder("empty")
        o = b.array("o", F64)
        b.store(o, b.index, 1.0)
        g = _graph(b.build())
        g.fiberset.fibers.clear()
        with pytest.raises(ValueError):
            merge_partitions(g, 2)


class TestThroughputHeuristic:
    def test_acyclic_partitions(self):
        g = _graph(get_kernel("lammps-2").loop())
        parts = merge_partitions(
            g, 4, CompilerConfig(throughput_heuristic=True)
        )
        # build the partition-level digraph and assert it is a DAG:
        # with no self-loops, acyclic means no component of size > 1
        fs = g.fiberset
        home = {}
        for p in parts:
            for op in p.ops:
                home[id(op)] = p.pid
        dg = set()
        for e in g.edges:
            a, b = home[id(e.producer)], home[id(e.consumer)]
            if a != b:
                dg.add((a, b))
        sccs = strongly_connected_components((p.pid for p in parts), dg)
        assert all(len(c) == 1 for c in sccs)

    def test_unconstrained_may_cycle(self):
        """Sanity: the default merge is allowed to produce cyclic
        partition graphs (the paper found forbidding them costs 11%)."""
        # not an assertion on every kernel; just check the API runs
        g = _graph(get_kernel("lammps-2").loop())
        parts = merge_partitions(g, 4, CompilerConfig())
        assert len(parts) >= 2


class TestMultiPair:
    def test_same_partition_count(self):
        g = _graph(get_kernel("irs-1").loop())
        single = merge_partitions(g, 4, CompilerConfig())
        multi = merge_partitions(g, 4, CompilerConfig(multi_pair_merge=True))
        assert len(single) == len(multi) == 4

    def test_covers_all_ops(self):
        g = _graph(get_kernel("irs-4").loop())
        multi = merge_partitions(g, 4, CompilerConfig(multi_pair_merge=True))
        total = sum(len(p.ops) for p in multi)
        assert total == len(g.fiberset.ops)


class TestLoadBalance:
    def test_ratio_at_least_one(self, demo_loop):
        g = _graph(demo_loop)
        parts = merge_partitions(g, 4)
        assert load_balance_ratio(parts) >= 1.0

    def test_single_partition_ratio_one(self, demo_loop):
        g = _graph(demo_loop)
        parts = merge_partitions(g, 1)
        assert load_balance_ratio(parts) == 1.0


class TestWeights:
    def test_weights_change_outcome(self):
        loop = get_kernel("irs-4").loop()
        g1 = _graph(loop)
        g2 = _graph(loop)
        a = merge_partitions(
            g1, 4, CompilerConfig(weights=MergeWeights(1.0, 0.6, 0.3))
        )
        b = merge_partitions(
            g2, 4, CompilerConfig(weights=MergeWeights(0.0, 0.0, 1.0))
        )
        sig_a = sorted(sorted(p.fids) for p in a)
        sig_b = sorted(sorted(p.fids) for p in b)
        assert sig_a != sig_b


def _scc_oracle(n, edges):
    """Components by brute-force mutual reachability (transitive closure)."""
    reach = [[i == j for j in range(n)] for i in range(n)]
    for a, b in edges:
        reach[a][b] = True
    for k, i, j in itertools.product(range(n), repeat=3):
        reach[i][j] = reach[i][j] or (reach[i][k] and reach[k][j])
    return sorted({
        tuple(w for w in range(n) if reach[v][w] and reach[w][v])
        for v in range(n)
    })


class TestStronglyConnectedComponents:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 9).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, max(0, n - 1)),
                           st.integers(0, max(0, n - 1))),
                 max_size=3 * n),
    )))
    def test_matches_mutual_reachability(self, graph):
        n, edges = graph
        got = strongly_connected_components(range(n), edges)
        assert all(c == sorted(c) for c in got)
        assert sorted(map(tuple, got)) == _scc_oracle(n, edges)

    def test_edge_endpoints_are_nodes(self):
        assert sorted(strongly_connected_components([], [(1, 2), (2, 1)])) \
            == [[1, 2]]
