"""Immutable hypergraph with degree, egonet, and neighborhood-overlap queries.

The structure is stored as a dual adjacency: for every node the sorted list
of incident hyperedge ids, and for every hyperedge the sorted list of member
node ids. Both sides are built from the same edge list, so they are
consistent by construction. All queries are pure; instances are safe to
share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
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

    def __len__(self) -> int:
        return int(self.values.shape[0])


@dataclass(frozen=True)
class ReceptiveField:
    """The nodes within ``hops`` hops of ``ids``, and the hyperedges that touch them, relabelled 0, 1, ...

    ``nodes`` and ``edges`` hold their graph ids in ascending order, so the
    field's ids keep the graph's order. ``incidence_arrays`` is laid out as
    the graph's, over the field's ids, so message passing runs on a field as
    on a graph:

    * every node keeps all of its incidences, in the graph's order, and so
      its degree; ``pairs`` are their positions among the graph's pairs;
    * every hyperedge keeps those of its members that lie in the field, in
      the graph's order. A hyperedge that touches a node within ``hops - 1``
      hops of ``ids`` keeps all of them. One further out may keep only some,
      and its ``edge_sizes`` entry counts only those.

    So a forward of up to ``hops + 1`` layers reads, for the rows of
    ``ids``, what it reads on the whole graph, as long as what depends on a
    hyperedge's whole membership (the structural coefficients, the layer-0
    means) is read from the graph, never computed on the field.

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
        whole = self.graph.incidence_arrays()
        degrees, sizes = whole["node_degrees"], whole["edge_sizes"]
        nodes, edges = self.nodes, self.edges
        in_field = np.zeros(self.graph.num_nodes, dtype=bool)
        in_field[nodes] = True
        members = whole["member_nodes"][_ranges(_running_sums(sizes)[edges], sizes[edges])]
        kept = in_field[members]
        member_edges = np.repeat(np.arange(edges.size), sizes[edges])[kept]
        # nodes and edges are ascending, so a graph id's rank among them is its field id
        arrays = {
            "pair_nodes": np.repeat(np.arange(nodes.size), degrees[nodes]),
            "pair_edges": np.searchsorted(edges, whole["pair_edges"][self.pairs]),
            "member_edges": member_edges,
            "member_nodes": np.searchsorted(nodes, members[kept]),
            "node_degrees": degrees[nodes],
            "edge_sizes": np.bincount(member_edges, minlength=edges.size),
        }
        return {name: _frozen_ints(values) for name, values in arrays.items()}

    def rows(self, ids) -> np.ndarray:
        """The field rows of the graph ids ``ids``, each of which must be one of the field's ``ids``."""
        ids = np.asarray(ids, dtype=np.int64)
        rows = np.searchsorted(self.nodes, ids)
        inside = np.isin(ids, self.ids)
        if not inside.all():
            raise ContractError(f"node {int(ids[np.argmin(inside)])} is not one of the ids this field was built for")
        return rows


class Hypergraph:
    """Immutable incidence structure over dense 0-based node/edge ids."""

    __slots__ = ("_node_to_edges", "_edge_to_nodes", "_degrees", "_arrays")

    def __init__(self, num_nodes: int, edges: Iterable[Iterable[int]]):
        if num_nodes < 0:
            raise ContractError("num_nodes must be nonnegative")
        edge_to_nodes: list[tuple[int, ...]] = []
        node_to_edges: list[list[int]] = [[] for _ in range(num_nodes)]
        for e, members in enumerate(edges):
            members = list(members)
            if not members:
                raise ContractError(f"hyperedge {e} is empty")
            if len(set(members)) != len(members):
                raise ContractError(f"hyperedge {e} has duplicate members")
            for v in members:
                if not 0 <= v < num_nodes:
                    raise ContractError(f"hyperedge {e} references node {v} outside [0, {num_nodes})")
                node_to_edges[v].append(e)
            edge_to_nodes.append(tuple(sorted(members)))
        self._edge_to_nodes = tuple(edge_to_nodes)
        self._node_to_edges = tuple(tuple(sorted(es)) for es in node_to_edges)
        self._degrees = tuple(len(es) for es in self._node_to_edges)
        self._arrays = None
        # both sides enumerate the same incidences
        assert sum(self._degrees) == sum(len(m) for m in self._edge_to_nodes)

    @property
    def num_nodes(self) -> int:
        return len(self._node_to_edges)

    @property
    def num_hyperedges(self) -> int:
        return len(self._edge_to_nodes)

    @property
    def nnz(self) -> int:
        """Number of (node, hyperedge) incidences."""
        return sum(self._degrees)

    def node_to_edges(self, v: int) -> tuple[int, ...]:
        self._check_node(v)
        return self._node_to_edges[v]

    def edge_to_nodes(self, e: int) -> tuple[int, ...]:
        self._check_edge(e)
        return self._edge_to_nodes[e]

    def edges(self) -> tuple[tuple[int, ...], ...]:
        return self._edge_to_nodes

    def node_degree(self, v: int) -> int:
        """Number of hyperedges incident to v."""
        self._check_node(v)
        return self._degrees[v]

    def hyperedge_avg_degree(self, e: int) -> float:
        """Mean node degree over the members of hyperedge e.

        The integer sum keeps the value independent of summation order, so
        independent recounts compare bit-for-bit.
        """
        self._check_edge(e)
        members = self._edge_to_nodes[e]
        return sum(self._degrees[v] for v in members) / len(members)

    def egonet(self, v: int) -> frozenset[int]:
        """Hyperedges incident to v, as a set."""
        self._check_node(v)
        return frozenset(self._node_to_edges[v])

    def overlapness(self, v: int) -> float | None:
        """Sum of incident hyperedge sizes over the size of their union.

        Returns None for a node with no incident hyperedges. Valid values
        are >= 1 because every union member is counted at least once in the
        numerator. Computed with exact integer arithmetic and converted to
        float at the boundary.
        """
        self._check_node(v)
        incident = self._node_to_edges[v]
        if not incident:
            return None
        numerator = 0
        union: set[int] = set()
        for e in incident:
            members = self._edge_to_nodes[e]
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
        ids = np.asarray(nodes)
        if ids.ndim != 1 or (ids.size and ids.dtype.kind not in "iub"):
            raise TypeError("nodes must be a sequence of integer node ids")
        ids = ids.astype(np.int64)
        outside = (ids < 0) | (ids >= self.num_nodes)
        if outside.any():
            self._check_node(int(ids[np.argmax(outside)]))
        arrays = self.incidence_arrays()
        node_degrees, sizes = arrays["node_degrees"], arrays["edge_sizes"]
        degrees = node_degrees[ids]
        # incidences of the requested nodes, node by node, and their member slots
        incident = arrays["pair_edges"][_ranges(_running_sums(node_degrees)[ids], degrees)]
        slots = sizes[incident]
        slot_sums = _running_sums(slots)
        bounds = _running_sums(degrees)  # incidences of ids[i]: bounds[i] to bounds[i + 1]
        numerators = slot_sums[bounds[1:]] - slot_sums[bounds[:-1]]
        # nodes in blocks of about _UNION_BLOCK member slots, cut where a node's first slot starts a new block
        block = slot_sums[bounds[:-1]] // _UNION_BLOCK
        cuts = np.concatenate(([0], np.flatnonzero(np.diff(block)) + 1, [ids.size]))
        member_starts = _running_sums(sizes)
        unions = np.zeros(ids.size, dtype=np.int64)
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            part = slice(bounds[lo], bounds[hi])
            members = arrays["member_nodes"][_ranges(member_starts[incident[part]], slots[part])]
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
        ids = np.asarray(ids, dtype=np.int64)
        if ids.ndim != 1:
            raise ContractError("ids must be 1-D")
        outside = (ids < 0) | (ids >= self.num_nodes)
        if outside.any():
            self._check_node(int(ids[np.argmax(outside)]))
        if hops < 0:
            raise ContractError("hops must be nonnegative")
        arrays = self.incidence_arrays()
        degrees, sizes = arrays["node_degrees"], arrays["edge_sizes"]
        node_starts, member_starts = _running_sums(degrees), _running_sums(sizes)
        in_field = np.zeros(self.num_nodes, dtype=bool)
        in_field[ids] = True
        frontier = np.flatnonzero(in_field)
        for _ in range(hops):
            touched = np.unique(arrays["pair_edges"][_ranges(node_starts[frontier], degrees[frontier])])
            reached = arrays["member_nodes"][_ranges(member_starts[touched], sizes[touched])]
            frontier = np.unique(reached[~in_field[reached]])
            in_field[frontier] = True
        nodes = np.flatnonzero(in_field)
        pairs = _ranges(node_starts[nodes], degrees[nodes])
        return ReceptiveField(
            ids=_frozen_ints(ids),
            hops=hops,
            nodes=_frozen_ints(nodes),
            edges=_frozen_ints(np.unique(arrays["pair_edges"][pairs])),
            pairs=_frozen_ints(pairs),
            graph=self,
        )

    def incidence_arrays(self):
        """Cached numpy views of the incidence structure.

        Returns a dict with node-major pair arrays (``pair_nodes``,
        ``pair_edges``: every incidence sorted by node then edge), edge-major
        member arrays (``member_edges``, ``member_nodes``), and per-node /
        per-edge degree arrays. All arrays are read-only over immutable
        ``bytes``, so NumPy cannot make them writeable again: the tape's
        gather and segment primitives index each of them once and rely on
        that.
        """
        if self._arrays is None:
            degrees = np.asarray(self._degrees, dtype=np.int64)
            sizes = np.fromiter(map(len, self._edge_to_nodes), dtype=np.int64, count=self.num_hyperedges)
            arrays = {
                "pair_nodes": np.repeat(np.arange(self.num_nodes), degrees),
                "pair_edges": np.fromiter(chain.from_iterable(self._node_to_edges), dtype=np.int64, count=self.nnz),
                "member_edges": np.repeat(np.arange(self.num_hyperedges), sizes),
                "member_nodes": np.fromiter(chain.from_iterable(self._edge_to_nodes), dtype=np.int64, count=self.nnz),
                "node_degrees": degrees,
                "edge_sizes": sizes,
            }
            self._arrays = {name: _frozen_ints(values) for name, values in arrays.items()}
        return self._arrays

    def __eq__(self, other) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return self.num_nodes == other.num_nodes and self._edge_to_nodes == other._edge_to_nodes

    def __hash__(self):
        return hash((self.num_nodes, self._edge_to_nodes))

    def __repr__(self) -> str:
        return f"Hypergraph(|V|={self.num_nodes}, |E|={self.num_hyperedges}, nnz={self.nnz})"

    def _check_node(self, v: int) -> None:
        if not 0 <= v < self.num_nodes:
            raise IndexError(f"node id {v} outside [0, {self.num_nodes})")

    def _check_edge(self, e: int) -> None:
        if not 0 <= e < self.num_hyperedges:
            raise IndexError(f"hyperedge id {e} outside [0, {self.num_hyperedges})")


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


def _frozen_ints(values) -> np.ndarray:
    """A read-only int64 array over an immutable ``bytes`` copy of ``values``."""
    return np.frombuffer(np.asarray(values, dtype=np.int64).tobytes(), dtype=np.int64)
