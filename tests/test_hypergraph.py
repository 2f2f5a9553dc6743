from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgmeta import hypergraph
from hgmeta import tensor as T
from hgmeta.model import ss_coefficients
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

    @pytest.mark.parametrize("edges", [[[0, 1.5]], [[0, 1], [2.0]], [[np.float64(1.0)]]])
    def test_rejects_non_integer_member(self, edges):
        # int64 would truncate 1.5 to node 1 and take 2.0 as node 2
        with pytest.raises(TypeError):
            Hypergraph(3, edges)

    def test_duplicate_hyperedges_are_allowed(self):
        g = Hypergraph(2, [[0, 1], [0, 1]])
        assert g.num_hyperedges == 2
        assert g.incidence_arrays()["node_degrees"][0] == 2

    def test_nnz_counts_incidences(self, toy):
        arrays = toy.incidence_arrays()
        assert arrays["member_nodes"].size == arrays["pair_nodes"].size == 12
        assert arrays["node_degrees"].sum() == arrays["edge_sizes"].sum() == 12


class TestDegree:
    def test_hub_node_degree(self, toy):
        assert toy.incidence_arrays()["node_degrees"][0] == 3

    def test_isolated_node_degree(self):
        g = Hypergraph(3, [[0, 1]])
        assert g.incidence_arrays()["node_degrees"][2] == 0

    def test_single_membership_degree(self):
        g = Hypergraph(2, [[0, 1]])
        assert g.incidence_arrays()["node_degrees"][1] == 1

    def test_out_of_range_raises(self, toy):
        with pytest.raises(IndexError, match="node id 7 outside"):
            toy.node_to_edges(7)


def _ss_at(g: Hypergraph, e: int) -> tuple[np.ndarray, np.ndarray]:
    """``ss_coefficients`` at the pairs of hyperedge ``e``, 1 / (d_v * d_e), and the degrees d_v of those pairs."""
    arrays = g.incidence_arrays()
    at = arrays["pair_edges"] == e
    return ss_coefficients(g)[at], arrays["node_degrees"][arrays["pair_nodes"][at]]


class TestHyperedgeAvgDegree:
    """The mean member degree d_e of a hyperedge, as ``ss_coefficients`` divides by it."""

    def test_single_edge_graph(self):
        ss, degrees = _ss_at(Hypergraph(2, [[0, 1]]), 0)
        assert ss.tobytes() == (1.0 / (degrees * 1.0)).tobytes()

    def test_mixed_degrees(self):
        # edge {u, v} with d_u = 1 and d_v = 3 averages to 2
        ss, degrees = _ss_at(Hypergraph(4, [[0, 1], [1, 2], [1, 3]]), 0)
        assert degrees.tolist() == [1, 3]
        assert ss.tobytes() == (1.0 / (degrees * 2.0)).tobytes()

    def test_triangle_of_pairs(self):
        # three size-2 hyperedges over three nodes, every degree is 2
        g = Hypergraph(3, [[0, 1], [1, 2], [0, 2]])
        for e in range(3):
            ss, degrees = _ss_at(g, e)
            assert ss.tobytes() == (1.0 / (degrees * 2.0)).tobytes()

    def test_out_of_range_raises(self, toy):
        with pytest.raises(IndexError, match="hyperedge id 3 outside"):
            toy.edge_to_nodes(3)


class TestEgonet:
    def test_hub_egonet(self, toy):
        assert frozenset(toy.node_to_edges(0)) == frozenset({0, 1, 2})

    def test_isolated_node(self):
        g = Hypergraph(3, [[0, 1]])
        assert g.node_to_edges(2) == ()

    def test_node_in_all_edges(self):
        g = Hypergraph(3, [[0, 1], [0, 2], [0, 1, 2]])
        assert frozenset(g.node_to_edges(0)) == frozenset({0, 1, 2})


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
        assert vec.values.shape == vec.valid.shape == (0,)

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


def _reference_arrays(num_nodes: int, edges) -> dict:
    """The six incidence arrays, from sorted Python lists."""
    members = [sorted(edge) for edge in edges]
    pairs = sorted((v, e) for e, edge in enumerate(members) for v in edge)
    arrays = {
        "pair_nodes": [v for v, _ in pairs],
        "pair_edges": [e for _, e in pairs],
        "member_edges": [e for e, edge in enumerate(members) for _ in edge],
        "member_nodes": [v for edge in members for v in edge],
        "node_degrees": [sum(v in edge for edge in members) for v in range(num_nodes)],
        "edge_sizes": [len(edge) for edge in members],
    }
    return {name: np.array(values, dtype=np.int64) for name, values in arrays.items()}


@pytest.mark.bitwise
class TestIncidenceArrays:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_equal_a_reference_from_sorted_edge_lists(self, data):
        n = data.draw(st.integers(0, 12), label="num_nodes")
        # members in drawn order, so rarely sorted; nodes in no hyperedge stay isolated
        edge = st.lists(st.integers(0, max(n - 1, 0)), min_size=1, unique=True)
        edges = data.draw(st.lists(edge, max_size=10 if n else 0), label="edges")
        repeats = data.draw(st.lists(st.sampled_from(range(len(edges))), max_size=3) if edges else st.just([]))
        edges += [edges[e][::-1] for e in repeats]
        g = Hypergraph(n, edges)
        arrays, reference = g.incidence_arrays(), _reference_arrays(n, edges)
        assert sorted(arrays) == sorted(reference)
        for name, expected in reference.items():
            assert arrays[name].dtype == np.int64 and arrays[name].tobytes() == expected.tobytes(), name
            assert T.frozen(arrays[name]), name

    def test_member_order_leaves_equality_and_hash(self):
        g = Hypergraph(5, [[3, 0, 1], [4, 2], [1, 0, 3]])
        same = Hypergraph(5, [[0, 1, 3], [2, 4], [3, 1, 0]])
        assert g == same and hash(g) == hash(same)
        # hyperedge ids, the node count and where one hyperedge ends all count
        for other in (
            Hypergraph(5, [[4, 2], [3, 0, 1], [1, 0, 3]]),
            Hypergraph(6, [[3, 0, 1], [4, 2], [1, 0, 3]]),
            Hypergraph(5, [[0, 1], [3, 2, 4], [0, 1, 3]]),
        ):
            assert g != other

    @pytest.mark.parametrize("seed", range(10))
    def test_queries_return_python_values_and_edges_rebuild_the_graph(self, seed):
        g = random_hypergraph(np.random.default_rng(seed))
        edges = g.edges()
        assert type(edges) is tuple and all(type(m) is tuple and all(type(v) is int for v in m) for m in edges)
        assert Hypergraph(g.num_nodes, edges) == g
        for v in range(g.num_nodes):
            assert all(type(e) is int for e in g.node_to_edges(v)) and type(g.overlapness(v)) in (float, type(None))
        for e in range(g.num_hyperedges):
            assert g.edge_to_nodes(e) == edges[e]
        assert all(type(n) is int for n in (g.num_nodes, g.num_hyperedges))


@pytest.mark.parametrize("query", ["overlap_vector", "receptive_field"])
def test_one_id_check_for_every_id_array(query):
    g = Hypergraph(3, [[0, 1]])
    ask = g.overlap_vector if query == "overlap_vector" else lambda ids: g.receptive_field(ids, 1)
    with pytest.raises(TypeError):
        ask([1.7])  # not node 1
    with pytest.raises(ContractError, match="1-D"):
        ask([[0]])
    for bad in (3, -1):
        with pytest.raises(IndexError, match=f"node id {bad} outside"):
            ask([0, bad])


def _field_reference(g: Hypergraph, ids, hops: int) -> tuple[list[int], list[int]]:
    """The nodes within ``hops`` hops of ``ids`` and the hyperedges that touch them, by sets."""
    nodes = set(int(v) for v in ids)
    for _ in range(hops):
        nodes |= {u for v in nodes for e in g.node_to_edges(v) for u in g.edge_to_nodes(e)}
    return sorted(nodes), sorted({e for v in nodes for e in g.node_to_edges(v)})


class TestReceptiveField:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10_000), hops=st.integers(0, 3), samples=st.integers(0, 8))
    def test_matches_a_set_walk_with_whole_incidences_in_graph_order(self, seed, hops, samples):
        rng = np.random.default_rng(seed)
        g = random_hypergraph(rng)
        ids = rng.choice(g.num_nodes, size=min(samples, g.num_nodes), replace=False)
        field = g.receptive_field(ids, hops)
        nodes, edges = _field_reference(g, ids, hops)
        assert field.nodes.tolist() == nodes and field.edges.tolist() == edges
        assert (field.num_nodes, field.num_hyperedges) == (len(nodes), len(edges))
        arrays, whole = field.incidence_arrays(), g.incidence_arrays()
        pairs = [(nodes.index(v), edges.index(e)) for v in nodes for e in g.node_to_edges(v)]
        assert list(zip(arrays["pair_nodes"].tolist(), arrays["pair_edges"].tolist())) == pairs
        assert whole["pair_nodes"][field.pairs].tolist() == [nodes[v] for v, _ in pairs]
        assert whole["pair_edges"][field.pairs].tolist() == [edges[e] for _, e in pairs]
        members = [(edges.index(e), nodes.index(u)) for e in edges for u in g.edge_to_nodes(e) if u in nodes]
        assert list(zip(arrays["member_edges"].tolist(), arrays["member_nodes"].tolist())) == members
        assert arrays["node_degrees"].tolist() == [len(g.node_to_edges(v)) for v in nodes]
        assert arrays["edge_sizes"].tolist() == [sum(u in nodes for u in g.edge_to_nodes(e)) for e in edges]
        # a hyperedge that touches a node within hops - 1 hops keeps every member
        inner, _ = _field_reference(g, ids, hops - 1) if hops else ([], [])
        for e in {e for v in inner for e in g.node_to_edges(v)}:
            assert arrays["edge_sizes"][edges.index(e)] == len(g.edge_to_nodes(e))
        # layer 0 reads every member of every field hyperedge, in the graph's order, and the field's nodes
        layer0 = field.layer0_arrays
        rows = sorted(set(nodes) | {u for e in edges for u in g.edge_to_nodes(e)})
        assert layer0["rows"].tolist() == rows
        assert layer0["rows"][layer0["node_rows"]].tolist() == nodes
        memberships = [(edges.index(e), u) for e in edges for u in g.edge_to_nodes(e)]
        assert list(zip(layer0["member_edges"].tolist(), layer0["rows"][layer0["member_rows"]].tolist())) == memberships
        checked = [("ids", field.ids), ("nodes", field.nodes), ("pairs", field.pairs), *arrays.items(), *layer0.items()]
        for name, values in checked:
            assert values.dtype == np.int64 and T.frozen(values), name

    def test_rows_map_its_ids_and_refuse_any_other_node(self):
        g = Hypergraph(6, [[0, 1], [1, 2, 3], [4, 5]])
        field = g.receptive_field([3, 1], hops=1)
        assert field.nodes.tolist() == [0, 1, 2, 3] and field.edges.tolist() == [0, 1]
        assert field.rows([1, 3, 1]).tolist() == [1, 3, 1]
        # no hyperedge of the field reaches past it here, so layer 0 reads the field's rows alone
        assert field.layer0_arrays["rows"].tolist() == [0, 1, 2, 3]
        # node 2 lies in the field, but its rows hold no loss the field was built for
        for outside in ([2], [1, 4]):
            with pytest.raises(ContractError, match="not one of the ids"):
                field.rows(outside)

    def test_rows_pass_the_graphs_one_id_check(self):
        field = Hypergraph(6, [[0, 1], [1, 2, 3], [4, 5]]).receptive_field([1], hops=1)
        with pytest.raises(TypeError):
            field.rows([1.7])  # not node 1
        with pytest.raises(ContractError, match="1-D"):
            field.rows([[1]])
        for bad in (6, -1):
            with pytest.raises(IndexError, match=f"node id {bad} outside"):
                field.rows([1, bad])

    def test_zero_hops_keep_the_ids_and_every_hyperedge_they_touch(self):
        g = Hypergraph(6, [[0, 1], [1, 2, 3], [4, 5]])
        field = g.receptive_field([1], hops=0)
        assert field.nodes.tolist() == [1] and field.edges.tolist() == [0, 1]
        assert field.incidence_arrays()["edge_sizes"].tolist() == [1, 1]
        # but layer 0 averages both hyperedges over all of their members
        assert field.layer0_arrays["rows"].tolist() == [0, 1, 2, 3]
        assert field.layer0_arrays["member_edges"].tolist() == [0, 0, 1, 1, 1]

    def test_bad_arguments_are_rejected(self):
        g = Hypergraph(3, [[0, 1]])
        with pytest.raises(IndexError, match="node id 3 outside"):
            g.receptive_field([0, 3], 1)
        with pytest.raises(ContractError, match="hops"):
            g.receptive_field([0], -1)
        with pytest.raises(ContractError, match="1-D"):
            g.receptive_field([[0]], 1)
