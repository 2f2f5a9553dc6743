"""Partition scalar overlap values into K levels with 1-D k-means.

In one dimension the optimal clusters are contiguous runs of the sorted
values, so the exact optimum is found by dynamic programming over split
points. That optimum is a fixed point of Lloyd's algorithm (Wang & Song
2011, Ckmeans.1d.dp), so one assignment to its means, one re-average over
the values in input order and one reassignment finish the fit. Everything
is deterministic. Labels are relabeled so that level 0 is the
lowest-overlap cluster.

Each level of the DP takes one of two paths, chosen by the number of values
n. Up to ``_ONE_PASS_MAX`` it evaluates every (start, end) candidate in one
vectorized pass. Above it, it uses that the first optimal start of the last
run never decreases as the run's end grows (the SSE of a run obeys the
quadrangle inequality; Grønlund et al. 2017, arXiv:1701.07204). Divide and
conquer over the ends then searches O(n) candidates per depth over O(log n)
depths, in O(k·n) memory, so a fit takes O(k·n log n) time where the
per-end loop took O(k·n²). Both paths compute each candidate by the same
expression of the same prefix sums and keep each end's first minimum, so
one pass gives the per-end loop's splits bit for bit by construction. Divide
and conquer gives them as long as the computed first minima stay monotone,
which exact arithmetic guarantees and rounding could break only between
near-equal candidates; the tests pin its splits against the loop's on
inputs where rounding decides between exactly tied splits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .tensor import checked_ids

# The most values for which each DP level evaluates all its O(n²) candidates
# in one pass. Below it, one pass beats the O(log n) passes of divide and
# conquer; above it, the quadratic candidate count and memory cost more.
_ONE_PASS_MAX = 128


@dataclass(frozen=True)
class Partition:
    """Fitted overlap levels: ascending centroids plus per-value labels.

    Building one checks what ``kmeans_1d`` guarantees: k 1-D, finite, strictly ascending centroids,
    ``1 <= k <= requested_k``, and labels (empty when no node has a hyperedge) kept as ``checked_ids``.
    """

    centroids: np.ndarray
    labels: np.ndarray
    k: int
    requested_k: int

    def __post_init__(self):
        object.__setattr__(self, "requested_k", _integer_count(self.requested_k, "requested_k"))
        if self.centroids.ndim != 1 or self.k != self.centroids.shape[0]:
            raise ContractError("k must match the number of centroids")
        if not np.all(np.isfinite(self.centroids)) or np.any(np.diff(self.centroids) <= 0.0):
            raise ContractError("centroids must be finite and strictly ascending")
        if not 1 <= self.k <= self.requested_k:
            raise ContractError(f"k = {self.k} must lie in [1, requested_k = {self.requested_k}]")
        object.__setattr__(self, "labels", checked_ids(self.labels, "level", self.k))


def _integer_count(k, what: str) -> int:
    """``k`` as an int; a bool or a non-integer is refused, a NumPy integer passes."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise ContractError(f"{what} must be an integer, got {k!r}")
    return int(k)


def _optimal_run_starts(ordered: np.ndarray, k: int) -> np.ndarray:
    """First index of each of the k runs of the SSE-optimal split of sorted values.

    ``best[m][j]`` is the least SSE of ``ordered[:j + 1]`` in m runs, and
    ``split_at[m][j]`` is the first start s that attains it over the
    candidates ``best[m - 1][s - 1] + SSE(ordered[s:j + 1])``. At most
    ``_ONE_PASS_MAX`` values, each level takes every (start, end) candidate
    in one pass. Above it, each level is solved breadth-first by divide and
    conquer: an interval of ends whose starts are known to lie in [lo, hi]
    searches only that range for its middle end, whose start s then bounds
    the left half's starts above and the right half's below. The middle ends
    of every interval at one depth go through one pass together.
    """
    n = ordered.size
    prefix = np.concatenate([[0.0], np.cumsum(ordered)])
    prefix_sq = np.concatenate([[0.0], np.cumsum(ordered**2)])
    best = np.full((k + 1, n), np.inf)
    split_at = np.zeros((k + 1, n), dtype=np.int64)
    counts = np.arange(1, n + 1)
    best[1] = prefix_sq[1:] - prefix[1:] ** 2 / counts

    def first_minima(m: int, ends: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        # each end's first minimizing start in [lo, hi] (inclusive, never empty), in one pass
        sizes = hi - lo + 1
        offsets = np.cumsum(sizes) - sizes
        stops = np.repeat(ends + 1, sizes)
        starts = np.arange(offsets[-1] + sizes[-1]) - np.repeat(offsets - lo, sizes)
        sums = prefix[stops] - prefix[starts]
        sqs = prefix_sq[stops] - prefix_sq[starts]
        candidates = best[m - 1][starts - 1] + (sqs - sums * sums / (stops - starts))
        minima = np.flatnonzero(candidates == np.repeat(np.minimum.reduceat(candidates, offsets), sizes))
        pick = minima[np.searchsorted(minima, offsets)]
        best[m][ends] = candidates[pick]
        split_at[m][ends] = starts[pick]
        return starts[pick]

    for m in range(2, k + 1):
        if n <= _ONE_PASS_MAX:
            ends = np.arange(m - 1, n)
            first_minima(m, ends, np.full(ends.size, m - 1), ends)
            continue
        # intervals of ends [end_lo, end_hi] whose starts lie in [start_lo, start_hi]
        end_lo, end_hi = np.array([m - 1]), np.array([n - 1])
        start_lo, start_hi = end_lo, end_hi
        while end_lo.size:
            mid = (end_lo + end_hi) // 2
            picked = first_minima(m, mid, start_lo, np.minimum(mid, start_hi))
            end_lo, end_hi = np.concatenate([end_lo, mid + 1]), np.concatenate([mid - 1, end_hi])
            start_lo, start_hi = np.concatenate([start_lo, picked]), np.concatenate([picked, start_hi])
            live = end_lo <= end_hi
            end_lo, end_hi, start_lo, start_hi = end_lo[live], end_hi[live], start_lo[live], start_hi[live]
    run_starts = np.zeros(k, dtype=np.int64)
    j = n - 1
    for m in range(k, 1, -1):
        run_starts[m - 1] = split_at[m][j]
        j = run_starts[m - 1] - 1
    return run_starts


def kmeans_1d(values, k: int) -> Partition:
    """Exact 1-D k-means; k is clamped to the number of distinct values."""
    requested_k = _integer_count(k, "k")
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise ContractError("kmeans_1d needs a nonempty 1-D array")
    if not np.all(np.isfinite(values)):
        raise ContractError("kmeans_1d values must be finite")
    if requested_k < 1:
        raise ContractError("k must be >= 1")
    k = min(requested_k, np.unique(values).size)

    ordered = np.sort(values)
    bounds = np.append(_optimal_run_starts(ordered, k), ordered.size)
    centroids = np.array([ordered[i:j].mean() for i, j in zip(bounds[:-1], bounds[1:])])
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
