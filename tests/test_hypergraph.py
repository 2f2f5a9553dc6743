from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgmeta import hypergraph
from hgmeta.data import SyntheticSpec, generate_synthetic
from hgmeta.errors import ContractError
from hgmeta.hypergraph import Hypergraph

from conftest import random_hypergraph


class TestConstruction:
    def test_rejects_empty_hyperedge(self):
        with pytest.raises(ContractError, match="empty"):
            Hypergraph(3, [[0, 1], []])

    def test_rejects_duplicate_membership(self):
        with pytest.raises(ContractError, match="duplicate"):
            Hypergraph(3, [[0, 0, 1]])

    def test_rejects_out_of_range_node(self):
        with pytest.raises(ContractError, match="outside"):
            Hypergraph(2, [[0, 2]])

    def test_duplicate_hyperedges_are_allowed(self):
        g = Hypergraph(2, [[0, 1], [0, 1]])
        assert g.num_hyperedges == 2
        assert g.node_degree(0) == 2

    def test_nnz_counts_incidences(self, toy):
        assert toy.nnz == 12
        assert toy.nnz == sum(toy.node_degree(v) for v in range(toy.num_nodes))


class TestDegree:
    def test_hub_node_degree(self, toy):
        assert toy.node_degree(0) == 3

    def test_isolated_node_degree(self):
        g = Hypergraph(3, [[0, 1]])
        assert g.node_degree(2) == 0

    def test_single_membership_degree(self):
        g = Hypergraph(2, [[0, 1]])
        assert g.node_degree(1) == 1

    def test_out_of_range_raises(self, toy):
        with pytest.raises(IndexError):
            toy.node_degree(7)


class TestHyperedgeAvgDegree:
    def test_single_edge_graph(self):
        g = Hypergraph(2, [[0, 1]])
        assert g.hyperedge_avg_degree(0) == 1.0

    def test_mixed_degrees(self):
        # edge {u, v} with d_u = 1 and d_v = 3 averages to 2
        g = Hypergraph(4, [[0, 1], [1, 2], [1, 3]])
        assert g.hyperedge_avg_degree(0) == 2.0

    def test_triangle_of_pairs(self):
        # three size-2 hyperedges over three nodes, every degree is 2
        g = Hypergraph(3, [[0, 1], [1, 2], [0, 2]])
        for e in range(3):
            assert g.hyperedge_avg_degree(e) == 2.0

    def test_out_of_range_raises(self, toy):
        with pytest.raises(IndexError):
            toy.hyperedge_avg_degree(3)


class TestEgonet:
    def test_hub_egonet(self, toy):
        assert toy.egonet(0) == frozenset({0, 1, 2})

    def test_isolated_node(self):
        g = Hypergraph(3, [[0, 1]])
        assert g.egonet(2) == frozenset()

    def test_node_in_all_edges(self):
        g = Hypergraph(3, [[0, 1], [0, 2], [0, 1, 2]])
        assert g.egonet(0) == frozenset({0, 1, 2})


class TestOverlapness:
    def test_hub_value_is_exact(self, toy):
        assert toy.overlapness(0) == 12 / 7

    def test_single_edge_membership_gives_one(self):
        g = Hypergraph(4, [[0, 1, 2, 3]])
        for v in range(4):
            assert g.overlapness(v) == 1.0

    def test_two_pair_edges(self):
        # v in {v,a} and {v,b}: (2+2)/3
        g = Hypergraph(3, [[0, 1], [0, 2]])
        assert g.overlapness(0) == pytest.approx(4 / 3)

    def test_empty_egonet_is_undefined(self):
        g = Hypergraph(2, [[0]])
        assert g.overlapness(1) is None

    def test_identical_duplicate_edges(self):
        # m identical hyperedges: p = m * |e| / |e| = m
        for m in (2, 3, 5):
            g = Hypergraph(4, [[0, 1, 2, 3]] * m)
            assert g.overlapness(0) == float(m)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10_000))
    def test_at_least_one_where_defined(self, seed):
        g = random_hypergraph(np.random.default_rng(seed))
        for v in range(g.num_nodes):
            p = g.overlapness(v)
            if p is not None:
                assert p >= 1.0

    def test_invariant_under_edge_relabeling(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            g = random_hypergraph(rng, max_nodes=20)
            if g.num_hyperedges < 2:
                continue
            perm = rng.permutation(g.num_hyperedges)
            shuffled = Hypergraph(g.num_nodes, [g.edge_to_nodes(int(e)) for e in perm])
            for v in range(g.num_nodes):
                assert g.overlapness(v) == shuffled.overlapness(v)

    def test_equivariant_under_node_relabeling(self):
        # relabeling all nodes maps overlapness along; in particular relabeling
        # nodes outside a probe's neighborhood never changes the probe's value
        rng = np.random.default_rng(13)
        for _ in range(25):
            g = random_hypergraph(rng, max_nodes=20)
            perm = rng.permutation(g.num_nodes)
            relabeled = Hypergraph(
                g.num_nodes,
                [[int(perm[v]) for v in g.edge_to_nodes(e)] for e in range(g.num_hyperedges)],
            )
            for v in range(g.num_nodes):
                assert g.overlapness(v) == relabeled.overlapness(int(perm[v]))


class TestOverlapVector:
    def test_matches_scalar_query(self, toy):
        vec = toy.overlap_vector([0])
        assert vec.valid[0]
        assert vec.values[0] == 12 / 7

    def test_empty_input(self, toy):
        vec = toy.overlap_vector([])
        assert len(vec) == 0

    def test_isolated_slot_is_masked(self):
        g = Hypergraph(3, [[0, 1]])
        vec = g.overlap_vector([2, 0])
        assert not vec.valid[0] and np.isnan(vec.values[0])
        assert vec.valid[1] and vec.values[1] == 1.0

    def test_order_matches_input(self, toy):
        vec = toy.overlap_vector([2, 0, 2])
        assert vec.values[1] == 12 / 7
        assert vec.values[0] == vec.values[2]


def _overlap_loop(g: Hypergraph, nodes) -> tuple[np.ndarray, np.ndarray]:
    """Reference: ``overlapness`` one node at a time."""
    values, valid = np.full(len(nodes), np.nan), np.zeros(len(nodes), dtype=bool)
    for i, v in enumerate(nodes):
        p = g.overlapness(int(v))
        if p is not None:
            values[i], valid[i] = p, True
    return values, valid


def _isolated_graph() -> Hypergraph:
    """Twelve nodes, four of them in no hyperedge, and a repeated hyperedge."""
    return Hypergraph(12, [[0, 1, 2], [2, 3], [0, 1, 2], [3, 4, 5, 6, 7], [7]])


# the feature width does not change the generated hyperedges
VECTOR_GRAPHS = {
    "toy": lambda: Hypergraph(7, [[0, 1, 2, 3], [0, 3, 4, 5], [0, 1, 5, 6]]),
    "isolated": _isolated_graph,
    "desk": lambda: generate_synthetic(SyntheticSpec(), 0).graph,
    "coraca": lambda: generate_synthetic(SyntheticSpec(nodes=2708, hyperedges=1072, dim=7, classes=7), 0).graph,
}


@pytest.mark.bitwise
class TestVectorizedOverlap:
    """``overlap_vector`` equals the per-node ``overlapness`` byte for byte."""

    @pytest.mark.parametrize("name", sorted(VECTOR_GRAPHS))
    def test_equals_per_node_loop(self, name):
        g = VECTOR_GRAPHS[name]()
        rng = np.random.default_rng(3)
        for nodes in (np.arange(g.num_nodes), rng.integers(0, g.num_nodes, size=2 * g.num_nodes), [], [0]):
            vec = g.overlap_vector(nodes)
            values, valid = _overlap_loop(g, nodes)
            assert vec.values.tobytes() == values.tobytes()
            np.testing.assert_array_equal(vec.valid, valid)
        if name in ("isolated", "coraca"):  # both have nodes in no hyperedge
            assert not g.overlap_vector(np.arange(g.num_nodes)).valid.all()

    @pytest.mark.parametrize("block", [1, 5, 64])
    def test_blocks_of_member_slots_keep_the_bytes(self, monkeypatch, block):
        monkeypatch.setattr(hypergraph, "_UNION_BLOCK", block)
        for seed in range(20):
            g = random_hypergraph(np.random.default_rng(seed))
            nodes = np.random.default_rng(seed + 100).integers(0, g.num_nodes, size=3 * g.num_nodes)
            values, valid = _overlap_loop(g, nodes)
            vec = g.overlap_vector(nodes)
            assert vec.values.tobytes() == values.tobytes()
            np.testing.assert_array_equal(vec.valid, valid)

    @pytest.mark.parametrize("nodes", [[0, 12], [-1], [3, 99, -2]])
    def test_out_of_range_node_raises_index_error_naming_it(self, nodes):
        g = _isolated_graph()
        bad = next(v for v in nodes if not 0 <= v < 12)
        with pytest.raises(IndexError, match=f"node id {bad} outside"):
            g.overlap_vector(nodes)

    def test_non_integer_ids_are_rejected(self):
        with pytest.raises(TypeError):
            _isolated_graph().overlap_vector([0.5])


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000))
def test_dual_consistency_roundtrip(seed):
    g = random_hypergraph(np.random.default_rng(seed))
    rebuilt = [[] for _ in range(g.num_nodes)]
    for e in range(g.num_hyperedges):
        for v in g.edge_to_nodes(e):
            rebuilt[v].append(e)
    for v in range(g.num_nodes):
        assert tuple(sorted(rebuilt[v])) == g.node_to_edges(v)


def test_incidence_arrays_are_read_only(toy):
    arrays = toy.incidence_arrays()
    with pytest.raises(ValueError):
        arrays["pair_nodes"][0] = 99
