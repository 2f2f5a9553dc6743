"""Correctness checks computed apart from hgmeta's own code paths.

Every check returns a list of problems; an empty list means it passed.
None of them compares against a stored copy of earlier output: each one
recomputes the expected value from the inputs (an exact overlapness recount,
a brute-force k-means optimum, an accuracy from raw labels) or tests a
property the method must have.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

WINDOW = 10  # moving-window length of the criterion-6 loss property
NONINCREASING_SHARE = 0.90
DESK_MIN_ACCURACY = 0.90


def exact_overlapness(num_nodes: int, edges, nodes) -> list[Fraction | None]:
    """Overlapness of each node in ``nodes`` as an exact fraction.

    Counted straight from the hyperedge list: the summed sizes of the
    hyperedges that contain the node over the size of their union. None for
    a node that no hyperedge contains.
    """
    incident: list[list[int]] = [[] for _ in range(num_nodes)]
    for e, members in enumerate(edges):
        for v in members:
            incident[v].append(e)
    out: list[Fraction | None] = []
    for v in nodes:
        if not incident[v]:
            out.append(None)
            continue
        union: set[int] = set()
        total = 0
        for e in incident[v]:
            total += len(edges[e])
            union.update(edges[e])
        out.append(Fraction(total, len(union)))
    return out


def nearest_level(value: float | None, centroids) -> int:
    """Index of the nearest centroid, ties to the lower index, None to 0."""
    if value is None:
        return 0
    best, best_dist = 0, math.inf
    for c, m in enumerate(centroids):
        dist = abs(value - float(m))
        if dist < best_dist:
            best, best_dist = c, dist
    return best


def overlap_level_problems(exact, program_values, centroids, levels) -> list[str]:
    """The program's overlapness values and levels against an exact recount.

    ``exact`` holds the recount per node, ``program_values`` the library's
    float values for the same nodes (NaN where undefined), ``levels`` the
    level the library gave each node.
    """
    problems = []
    for i, (p_exact, p_prog, level) in enumerate(zip(exact, program_values, levels)):
        if p_exact is None:
            if not math.isnan(p_prog):
                problems.append(f"node #{i}: overlapness {p_prog!r} for an isolated node")
        elif float(p_exact) != p_prog:
            problems.append(f"node #{i}: overlapness {p_prog!r}, exact recount {p_exact}")
        expected = nearest_level(None if p_exact is None else float(p_exact), centroids)
        if int(level) != expected:
            problems.append(f"node #{i}: level {int(level)}, nearest centroid is {expected}")
    if len(levels) != len(exact):
        problems.append(f"{len(levels)} levels for {len(exact)} nodes")
    return problems


def _run_sse(prefix: list[float], prefix_sq: list[float], start: int, stop: int) -> float:
    total = prefix[stop] - prefix[start]
    return prefix_sq[stop] - prefix_sq[start] - total * total / (stop - start)


def brute_force_split(values, k: int) -> tuple[float, list[float]]:
    """Least within-cluster SSE over every split of the sorted values into k runs.

    Enumerates all placements of k - 1 cut points, so it is exact for 1-D
    k-means, whose optimal clusters are contiguous in sorted order. Returns
    the SSE and the run means.
    """
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    n = ordered.size
    # plain floats: the enumeration is a Python loop, where numpy scalars are slow
    prefix = np.concatenate([[0.0], np.cumsum(ordered)]).tolist()
    prefix_sq = np.concatenate([[0.0], np.cumsum(ordered**2)]).tolist()
    best_sse, best_cuts = math.inf, ()
    for cuts in itertools.combinations(range(1, n), k - 1):
        bounds = (0, *cuts, n)
        sse = sum(_run_sse(prefix, prefix_sq, a, b) for a, b in zip(bounds[:-1], bounds[1:]))
        if sse < best_sse:
            best_sse, best_cuts = sse, cuts
    bounds = (0, *best_cuts, n)
    means = [float(ordered[a:b].mean()) for a, b in zip(bounds[:-1], bounds[1:])]
    return best_sse, means


def kmeans_problems(values, centroids, requested_k: int) -> list[str]:
    """Fitted centroids against the brute-force optimal contiguous split.

    The fit must keep min(k, distinct values) levels in ascending order, and
    its within-cluster SSE under nearest-centroid assignment must equal the
    brute-force optimum up to rounding.
    """
    values = np.asarray(values, dtype=np.float64)
    centroids = [float(c) for c in centroids]
    k = min(requested_k, np.unique(values).size)
    problems = []
    if len(centroids) != k:
        problems.append(f"{len(centroids)} levels, expected min(k, distinct values) = {k}")
        return problems
    if any(a >= b for a, b in zip(centroids, centroids[1:])):
        problems.append(f"centroids {centroids} are not strictly ascending")
    best_sse, best_means = brute_force_split(values, k)
    fit_sse = float(sum((v - centroids[nearest_level(float(v), centroids)]) ** 2 for v in values))
    tolerance = 1e-9 * max(1.0, best_sse)
    if fit_sse > best_sse + tolerance:
        problems.append(
            f"SSE {fit_sse!r} exceeds the brute-force optimum {best_sse!r} (means {best_means})"
        )
    return problems


def history_problems(history: list[dict], steps: int) -> list[str]:
    """One finite record per step, numbered 1..steps."""
    problems = []
    if len(history) != steps:
        problems.append(f"{len(history)} history records for {steps} steps")
    for i, rec in enumerate(history):
        if rec["step"] != i + 1:
            problems.append(f"record {i} is numbered {rec['step']}")
        scalars = [rec[key] for key in ("lr1", "lr2", "train_loss", "meta_loss", "grad_w_norm", "grad_theta_norm")]
        alphas = [a for a in rec["mean_alpha"] if a is not None]
        if not all(math.isfinite(x) for x in scalars + alphas):
            problems.append(f"step {rec['step']} holds a non-finite value")
    return problems


def alpha_problems(history: list[dict], pin: float | None) -> list[str]:
    """Step 1 starts every non-empty level at alpha 0.5; a pin holds throughout."""
    problems = []
    if pin is not None:
        for rec in history:
            if any(a is not None and a != pin for a in rec["mean_alpha"]):
                problems.append(f"step {rec['step']}: mean alpha {rec['mean_alpha']} departs from the pin {pin}")
    elif history:
        first = history[0]["mean_alpha"]
        if any(a is not None and a != 0.5 for a in first):
            problems.append(f"step 1 mean alpha {first}, expected exactly 0.5 on every non-empty level")
    return problems


def accuracy(predicted, truth) -> float:
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    return float(np.count_nonzero(predicted == truth)) / truth.size


def majority_rate(truth) -> float:
    truth = np.asarray(truth, dtype=np.int64)
    return float(np.bincount(truth).max()) / truth.size


def nonincreasing_window_share(losses) -> float:
    """Share of consecutive 10-step moving-average windows that do not rise."""
    windows = np.convolve(np.asarray(losses, dtype=np.float64), np.ones(WINDOW) / WINDOW, mode="valid")
    if windows.size < 2:
        return math.nan
    return float(np.mean(np.diff(windows) <= 0.0))


def learning_problems(acc: float, truth, history: list[dict], desk_criterion: bool) -> list[str]:
    """Criterion-6 learning on the desk workload; better than majority elsewhere."""
    problems = []
    if desk_criterion:
        if acc < DESK_MIN_ACCURACY:
            problems.append(f"blend accuracy {acc:.4f} below {DESK_MIN_ACCURACY}")
        share = nonincreasing_window_share([rec["train_loss"] for rec in history])
        if not share >= NONINCREASING_SHARE:
            problems.append(f"non-increasing loss windows {share:.3f} below {NONINCREASING_SHARE}")
    else:
        floor = majority_rate(truth)
        if not acc > floor:
            problems.append(f"blend accuracy {acc:.4f} does not beat the majority rate {floor:.4f}")
    return problems
