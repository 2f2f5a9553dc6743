from __future__ import annotations

import numpy as np
import pytest

from hgmeta.hypergraph import Hypergraph


def overlap_toy() -> Hypergraph:
    """Seven nodes, three size-4 hyperedges all containing node 0.

    The union of the three hyperedges has 7 distinct nodes, so node 0's
    overlapness is (4+4+4)/7 = 12/7 and every hyperedge's mean member
    degree is exactly 2.
    """
    return Hypergraph(7, [[0, 1, 2, 3], [0, 3, 4, 5], [0, 1, 5, 6]])


def random_hypergraph(rng: np.random.Generator, max_nodes: int = 50, allow_isolated: bool = True) -> Hypergraph:
    n = int(rng.integers(1, max_nodes + 1))
    num_edges = int(rng.integers(0, max(2 * n // 3, 1) + 1))
    edges = []
    for _ in range(num_edges):
        size = int(rng.integers(1, min(n, 6) + 1))
        edges.append(sorted(int(v) for v in rng.choice(n, size=size, replace=False)))
    return Hypergraph(n, edges)


@pytest.fixture
def toy():
    return overlap_toy()
