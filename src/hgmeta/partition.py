"""Partition scalar overlap values into K levels with 1-D k-means.

In one dimension the optimal clusters are contiguous runs of the sorted
values, so the exact optimum is found by dynamic programming over split
points. That optimum is a fixed point of Lloyd's algorithm (Wang & Song
2011, Ckmeans.1d.dp), so one assignment to its means, one re-average over
the values in input order and one reassignment finish the fit. Everything
is deterministic. Labels are relabeled so that level 0 is the
lowest-overlap cluster.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError


@dataclass(frozen=True)
class Partition:
    """Fitted overlap levels: ascending centroids plus per-value labels."""

    centroids: np.ndarray
    labels: np.ndarray
    k: int
    requested_k: int

    def __post_init__(self):
        if self.k != self.centroids.shape[0]:
            raise ContractError("k must match the number of centroids")


def _optimal_contiguous_means(ordered: np.ndarray, k: int) -> np.ndarray:
    """Cluster means of the SSE-optimal split of sorted values into k runs."""
    n = ordered.size
    prefix = np.concatenate([[0.0], np.cumsum(ordered)])
    prefix_sq = np.concatenate([[0.0], np.cumsum(ordered**2)])

    def run_costs(starts: np.ndarray, end: int) -> np.ndarray:
        # SSE of ordered[s..end] for each start s (inclusive bounds)
        sums = prefix[end + 1] - prefix[starts]
        sqs = prefix_sq[end + 1] - prefix_sq[starts]
        counts = end + 1 - starts
        return sqs - sums * sums / counts

    best = np.full((k + 1, n), np.inf)
    split_at = np.zeros((k + 1, n), dtype=np.int64)
    counts = np.arange(1, n + 1)
    best[1] = prefix_sq[1:] - prefix[1:] ** 2 / counts
    for m in range(2, k + 1):
        for j in range(m - 1, n):
            starts = np.arange(m - 1, j + 1)
            candidates = best[m - 1][starts - 1] + run_costs(starts, j)
            pick = int(candidates.argmin())
            best[m][j] = candidates[pick]
            split_at[m][j] = starts[pick]
    means = np.empty(k)
    j = n - 1
    for m in range(k, 0, -1):
        i = split_at[m][j] if m > 1 else 0
        means[m - 1] = ordered[i : j + 1].mean()
        j = i - 1
    return means


def kmeans_1d(values, k: int) -> Partition:
    """Exact 1-D k-means; k is clamped to the number of distinct values."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise ContractError("kmeans_1d needs a nonempty 1-D array")
    if not np.all(np.isfinite(values)):
        raise ContractError("kmeans_1d values must be finite")
    if k < 1:
        raise ContractError("k must be >= 1")
    requested_k = k
    k = min(k, np.unique(values).size)

    centroids = _optimal_contiguous_means(np.sort(values), k)
    labels = assign_levels(values, centroids)
    for c in range(k):
        members = values[labels == c]
        if members.size:
            centroids[c] = members.mean()
    labels = assign_levels(values, centroids)

    # ascending order, then merge degenerate duplicate centroids
    order = np.argsort(centroids, kind="stable")
    centroids = centroids[order]
    remap = np.empty(k, dtype=np.int64)
    remap[order] = np.arange(k)
    labels = remap[labels]
    keep: list[float] = []
    merge = np.empty(k, dtype=np.int64)
    for c in range(k):
        if keep and centroids[c] == keep[-1]:
            merge[c] = len(keep) - 1
        else:
            merge[c] = len(keep)
            keep.append(float(centroids[c]))
    centroids = np.asarray(keep)
    labels = merge[labels]

    centroids.setflags(write=False)
    labels.setflags(write=False)
    return Partition(
        centroids=centroids,
        labels=labels,
        k=int(centroids.size),
        requested_k=requested_k,
    )


def assign_levels(values, centroids) -> np.ndarray:
    """Index of the nearest centroid for every entry of ``values``; ties to the lower index.

    NaN marks a node without hyperedges, as in ``OverlapVector.values``, and
    maps to level 0.
    """
    centroids = np.asarray(centroids, dtype=np.float64)
    if centroids.ndim != 1 or centroids.size == 0:
        raise ContractError("assign_levels needs a nonempty centroid array")
    values = np.asarray(values, dtype=np.float64)
    # argmin returns the first minimum, which implements ties-to-lower-index
    levels = np.abs(values[:, None] - centroids[None, :]).argmin(axis=1)
    levels[np.isnan(values)] = 0
    return levels
