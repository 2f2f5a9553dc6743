"""Immutable hypergraph with degree, egonet, and neighborhood-overlap queries.

The structure is stored as a dual adjacency: for every node the sorted list
of incident hyperedge ids, and for every hyperedge the sorted list of member
node ids. Both sides are built from the same edge list, so they are
consistent by construction. All queries are pure; instances are safe to
share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
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
        """Element-wise overlapness over ``nodes``, order preserved."""
        values = np.full(len(nodes), np.nan)
        valid = np.zeros(len(nodes), dtype=bool)
        for i, v in enumerate(nodes):
            p = self.overlapness(v)
            if p is not None:
                values[i] = p
                valid[i] = True
        return OverlapVector(values=values, valid=valid)

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
            pair_nodes, pair_edges = [], []
            for v, es in enumerate(self._node_to_edges):
                pair_nodes.extend([v] * len(es))
                pair_edges.extend(es)
            member_edges, member_nodes = [], []
            for e, vs in enumerate(self._edge_to_nodes):
                member_edges.extend([e] * len(vs))
                member_nodes.extend(vs)
            self._arrays = {
                "pair_nodes": _frozen_ints(pair_nodes),
                "pair_edges": _frozen_ints(pair_edges),
                "member_edges": _frozen_ints(member_edges),
                "member_nodes": _frozen_ints(member_nodes),
                "node_degrees": _frozen_ints(self._degrees),
                "edge_sizes": _frozen_ints([len(m) for m in self._edge_to_nodes]),
            }
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


def overlapness(g: Hypergraph, v: int) -> float | None:
    return g.overlapness(v)


def overlap_vector(g: Hypergraph, nodes: Sequence[int]) -> OverlapVector:
    return g.overlap_vector(nodes)


def _frozen_ints(values) -> np.ndarray:
    """A read-only int64 array over an immutable ``bytes`` copy of ``values``."""
    return np.frombuffer(np.asarray(values, dtype=np.int64).tobytes(), dtype=np.int64)
