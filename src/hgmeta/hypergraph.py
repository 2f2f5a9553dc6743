"""Immutable hypergraph with incidence, receptive-field and neighborhood-overlap queries.

A hypergraph is its node-hyperedge incidence, held only as six frozen int64
arrays (``Hypergraph.incidence_arrays``): every incidence once by hyperedge,
members ascending, and once by node, hyperedges ascending, with the degree
of every node and the size of every hyperedge. ``_incidence`` lays them out
for a graph and for a receptive field alike. All queries are pure;
instances are safe to share across threads.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import ContractError


@dataclass(frozen=True)
class OverlapVector:
    """Per-node neighborhood overlap with a validity mask.

    ``values[i]`` is NaN wherever ``valid[i]`` is False (node with an empty
    egonet); valid entries are always >= 1.
    """

    values: np.ndarray
    valid: np.ndarray


@dataclass(frozen=True)
class ReceptiveField:
    """The nodes within ``hops`` hops of ``ids``, and the hyperedges that touch them, relabelled 0, 1, ...

    ``nodes`` and ``edges`` hold their graph ids in ascending order, so the
    field's ids keep the graph's order. ``incidence_arrays`` is laid out by
    the graph's own builder, from the members of the field's hyperedges that
    lie in the field, relabelled to field ids, so message passing runs on a
    field as on a graph:

    * every node keeps all of its incidences, in the graph's order, and so
      its degree; ``pairs`` are their positions among the graph's pairs;
    * every hyperedge keeps those of its members that lie in the field, in
      the graph's order. A hyperedge that touches a node within ``hops - 1``
      hops of ``ids`` keeps all of them. One further out may keep only some,
      and its ``edge_sizes`` entry counts only those.

    So a forward of up to ``hops + 1`` layers reads, for the rows of
    ``ids``, what it reads on the whole graph, as long as what depends on a
    hyperedge's whole membership is read from the graph, never computed on
    the field's incidence: the structural coefficients at ``pairs``, and
    the layer-0 hyperedge means, over the full membership that
    ``layer0_arrays`` lists, one hop past the field at its outermost
    hyperedges.

    The incidence arrays are built on first use, so a field whose size
    alone is asked for costs only its walk.
    """

    ids: np.ndarray
    hops: int
    nodes: np.ndarray
    edges: np.ndarray
    pairs: np.ndarray
    graph: Hypergraph = field(repr=False, compare=False)

    @property
    def num_nodes(self) -> int:
        return int(self.nodes.size)

    @property
    def num_hyperedges(self) -> int:
        return int(self.edges.size)

    def incidence_arrays(self) -> dict:
        return self._arrays

    @cached_property
    def _arrays(self) -> dict:
        members, member_edges = self._memberships
        kept = np.isin(members, self.nodes)
        kept_sizes = np.bincount(member_edges[kept], minlength=self.edges.size)
        # nodes are ascending, so a graph id's rank among them is its field id
        return _incidence(self.nodes.size, kept_sizes, np.searchsorted(self.nodes, members[kept]))

    @cached_property
    def layer0_arrays(self) -> dict:
        """What layer 0 reads on the field, where each of its hyperedges reads all of its members: four frozen arrays.

        ``rows`` holds the graph ids of the field's nodes and of every
        member of its hyperedges, ascending: the rows of the input features
        that layer 0 multiplies. ``node_rows`` is each field node's position
        among them. ``member_rows`` and ``member_edges`` list every
        membership of a field hyperedge, hyperedge by hyperedge and members
        ascending as the graph lists them, as a position among ``rows`` and
        a field hyperedge id. So a hyperedge's mean over ``member_rows``
        sums the graph's rows in the graph's order.
        """
        members, member_edges = self._memberships
        rows = np.union1d(self.nodes, members)
        return {
            "rows": _frozen_ints(rows),
            "node_rows": _frozen_ints(np.searchsorted(rows, self.nodes)),
            "member_rows": _frozen_ints(np.searchsorted(rows, members)),
            "member_edges": _frozen_ints(member_edges),
        }

    @cached_property
    def _memberships(self) -> tuple[np.ndarray, np.ndarray]:
        """Every member of the field's hyperedges as a graph id, in the graph's order, and its field hyperedge id."""
        whole = self.graph.incidence_arrays()
        sizes = whole["edge_sizes"][self.edges]
        members = whole["member_nodes"][_ranges(self.graph._member_starts[self.edges], sizes)]
        return members, np.repeat(np.arange(self.edges.size), sizes)

    def rows(self, ids) -> np.ndarray:
        """The field rows of the graph ids ``ids``, each of which must be one of the field's ``ids``.

        ``ids`` pass the graph's one id check first (``Hypergraph.node_ids``).
        """
        ids = self.graph.node_ids(ids)
        rows = np.searchsorted(self.nodes, ids)
        inside = np.isin(ids, self.ids)
        if not inside.all():
            raise ContractError(f"node {int(ids[np.argmin(inside)])} is not one of the ids this field was built for")
        return rows


class Hypergraph:
    """Immutable incidence structure over dense 0-based node/edge ids."""

    __slots__ = ("_arrays", "_node_starts", "_member_starts")

    def __init__(self, num_nodes: int, edges: Iterable[Iterable[int]]):
        if num_nodes < 0:
            raise ContractError("num_nodes must be nonnegative")
        sizes, members = [], []
        for e, edge in enumerate(edges):
            edge = list(edge)
            if not edge:
                raise ContractError(f"hyperedge {e} is empty")
            if len(set(edge)) != len(edge):
                raise ContractError(f"hyperedge {e} has duplicate members")
            for v in edge:
                if not 0 <= v < num_nodes:
                    raise ContractError(f"hyperedge {e} references node {v} outside [0, {num_nodes})")
                members.append(operator.index(v))  # a TypeError for 1.5, which int64 would truncate
            sizes.append(len(edge))
        self._arrays = _incidence(operator.index(num_nodes), sizes, members)
        self._node_starts = _frozen_ints(_running_sums(self._arrays["node_degrees"]))
        self._member_starts = _frozen_ints(_running_sums(self._arrays["edge_sizes"]))

    @property
    def num_nodes(self) -> int:
        return int(self._arrays["node_degrees"].size)

    @property
    def num_hyperedges(self) -> int:
        return int(self._arrays["edge_sizes"].size)

    def node_to_edges(self, v: int) -> tuple[int, ...]:
        v = self._check_node(v)
        return tuple(self._arrays["pair_edges"][self._node_starts[v] : self._node_starts[v + 1]].tolist())

    def edge_to_nodes(self, e: int) -> tuple[int, ...]:
        if not 0 <= e < self.num_hyperedges:
            raise IndexError(f"hyperedge id {e} outside [0, {self.num_hyperedges})")
        e = operator.index(e)
        return tuple(self._arrays["member_nodes"][self._member_starts[e] : self._member_starts[e + 1]].tolist())

    def edges(self) -> tuple[tuple[int, ...], ...]:
        members, starts = self._arrays["member_nodes"].tolist(), self._member_starts.tolist()
        return tuple(tuple(members[lo:hi]) for lo, hi in zip(starts[:-1], starts[1:]))

    def overlapness(self, v: int) -> float | None:
        """Sum of incident hyperedge sizes over the size of their union.

        Returns None for a node with no incident hyperedges. Valid values
        are >= 1 because every union member is counted at least once in the
        numerator. Computed with exact integer arithmetic and converted to
        float at the boundary.
        """
        incident = self.node_to_edges(v)
        if not incident:
            return None
        numerator = 0
        union: set[int] = set()
        for e in incident:
            members = self.edge_to_nodes(e)
            numerator += len(members)
            union.update(members)
        return numerator / len(union)

    def overlap_vector(self, nodes: Sequence[int]) -> OverlapVector:
        """Element-wise overlapness over ``nodes``, order preserved.

        Equal byte for byte to ``overlapness`` node by node: the numerators
        and union sizes are the same integers, and one float64 division of
        two integers below 2**53 is correctly rounded, as Python's int / int
        is. Union sizes count the distinct (node, member) pairs of at most
        ``_UNION_BLOCK`` member slots at a time.
        """
        ids = self.node_ids(nodes)
        arrays = self._arrays
        degrees = arrays["node_degrees"][ids]
        # incidences of the requested nodes, node by node, and their member slots
        incident = arrays["pair_edges"][_ranges(self._node_starts[ids], degrees)]
        slots = arrays["edge_sizes"][incident]
        slot_sums = _running_sums(slots)
        bounds = _running_sums(degrees)  # incidences of ids[i]: bounds[i] to bounds[i + 1]
        numerators = slot_sums[bounds[1:]] - slot_sums[bounds[:-1]]
        # nodes in blocks of about _UNION_BLOCK member slots, cut where a node's first slot starts a new block
        block = slot_sums[bounds[:-1]] // _UNION_BLOCK
        cuts = np.concatenate(([0], np.flatnonzero(np.diff(block)) + 1, [ids.size]))
        unions = np.zeros(ids.size, dtype=np.int64)
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            part = slice(bounds[lo], bounds[hi])
            members = arrays["member_nodes"][_ranges(self._member_starts[incident[part]], slots[part])]
            owners = np.repeat(np.repeat(np.arange(lo, hi), degrees[lo:hi]), slots[part])
            pairs = np.sort(owners * self.num_nodes + members)
            distinct = pairs[np.concatenate(([True], pairs[1:] != pairs[:-1]))] if pairs.size else pairs
            unions[lo:hi] = np.bincount(distinct // self.num_nodes - lo, minlength=hi - lo)
        valid = degrees > 0
        values = np.divide(numerators, unions, out=np.full(ids.size, np.nan), where=valid)
        return OverlapVector(values=values, valid=valid)

    def receptive_field(self, ids: Sequence[int], hops: int) -> ReceptiveField:
        """The nodes within ``hops`` hops of ``ids`` and the hyperedges that touch them (see ``ReceptiveField``).

        It walks the graph for the field's nodes, hyperedges and pairs; the
        field's incidence arrays wait for their first use.
        """
        ids = self.node_ids(ids)
        if hops < 0:
            raise ContractError("hops must be nonnegative")
        arrays = self._arrays
        pair_nodes, pair_edges = arrays["pair_nodes"], arrays["pair_edges"]
        in_field = np.zeros(self.num_nodes, dtype=bool)
        in_field[ids] = True
        touched = np.zeros(self.num_hyperedges, dtype=bool)
        for _ in range(hops):
            touched[pair_edges[in_field[pair_nodes]]] = True
            in_field[arrays["member_nodes"][touched[arrays["member_edges"]]]] = True
        pairs = np.flatnonzero(in_field[pair_nodes])
        touched[pair_edges[pairs]] = True
        return ReceptiveField(
            ids=_frozen_ints(ids),
            hops=hops,
            nodes=_frozen_ints(np.flatnonzero(in_field)),
            edges=_frozen_ints(np.flatnonzero(touched)),
            pairs=_frozen_ints(pairs),
            graph=self,
        )

    def node_ids(self, ids: Sequence[int]) -> np.ndarray:
        """``ids`` as a 1-D int64 array of this graph's node ids; the one check of every id array a query takes.

        ``ContractError`` unless 1-D, ``TypeError`` unless integer (an empty
        sequence of any dtype passes), ``IndexError`` naming an id outside.
        """
        ids = np.asarray(ids)
        if ids.ndim != 1:
            raise ContractError("ids must be 1-D")
        if ids.size and ids.dtype.kind not in "iub":
            raise TypeError("node ids must be integers")
        ids = ids.astype(np.int64)
        outside = (ids < 0) | (ids >= self.num_nodes)
        if outside.any():
            self._check_node(int(ids[np.argmax(outside)]))
        return ids

    def incidence_arrays(self) -> dict:
        """The graph's only store: six int64 arrays, laid out once by ``_incidence``.

        ``pair_nodes`` and ``pair_edges`` hold every incidence sorted by
        node, then by hyperedge; ``member_edges`` and ``member_nodes`` hold
        it sorted by hyperedge, then by node; ``node_degrees`` and
        ``edge_sizes`` count them. All are read-only over immutable
        ``bytes``, so NumPy cannot make them writeable again: the tape's
        gather and segment primitives index each of them once and rely on that.
        """
        return self._arrays

    def __eq__(self, other) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        return f"Hypergraph(|V|={self.num_nodes}, |E|={self.num_hyperedges}, nnz={self._arrays['member_nodes'].size})"

    def _key(self) -> tuple:
        return self.num_nodes, self._arrays["edge_sizes"].tobytes(), self._arrays["member_nodes"].tobytes()

    def _check_node(self, v: int) -> int:
        if not 0 <= v < self.num_nodes:
            raise IndexError(f"node id {v} outside [0, {self.num_nodes})")
        return operator.index(v)


# member slots whose distinct (node, member) pairs one overlap_vector block sorts
_UNION_BLOCK = 1 << 20


def _running_sums(counts: np.ndarray) -> np.ndarray:
    """0 followed by the running sums of ``counts``."""
    out = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The positions ``starts[i], ..., starts[i] + lengths[i] - 1`` for every i, in order."""
    ends = _running_sums(lengths)
    return np.repeat(starts - ends[:-1], lengths) + np.arange(ends[-1])


def _incidence(num_nodes: int, sizes, members) -> dict:
    """The six frozen incidence arrays of the hyperedges whose ``sizes[e]`` members ``members`` lists edge by edge.

    Members are sorted within each hyperedge; a stable sort of those by
    node gives the pairs, sorted by node, then by hyperedge.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    member_edges = np.repeat(np.arange(sizes.size), sizes)
    members = np.asarray(members, dtype=np.int64)
    member_nodes = members[np.lexsort((members, member_edges))]
    by_node = np.argsort(member_nodes, kind="stable")
    arrays = {
        "pair_nodes": member_nodes[by_node],
        "pair_edges": member_edges[by_node],
        "member_edges": member_edges,
        "member_nodes": member_nodes,
        "node_degrees": np.bincount(member_nodes, minlength=num_nodes),
        "edge_sizes": sizes,
    }
    return {name: _frozen_ints(values) for name, values in arrays.items()}


def _frozen_ints(values) -> np.ndarray:
    """A read-only int64 array over an immutable ``bytes`` copy of ``values``."""
    return np.frombuffer(np.asarray(values, dtype=np.int64).tobytes(), dtype=np.int64)
