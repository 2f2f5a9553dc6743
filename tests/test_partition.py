from __future__ import annotations

import numpy as np
import pytest

from hgmeta.errors import ContractError
from hgmeta import partition
from hgmeta.data import SyntheticSpec, generate_synthetic
from hgmeta.partition import Partition, assign_levels, kmeans_1d


def brute_force_two_means(values: np.ndarray) -> float:
    """Minimal within-cluster SSE over all contiguous splits of the sorted values."""
    ordered = np.sort(values)
    best = np.inf
    for cut in range(1, ordered.size):
        left, right = ordered[:cut], ordered[cut:]
        sse = ((left - left.mean()) ** 2).sum() + ((right - right.mean()) ** 2).sum()
        best = min(best, sse)
    return float(best)


def fitted_sse(values: np.ndarray, part: Partition) -> float:
    return float(((values - part.centroids[part.labels]) ** 2).sum())


class TestKmeans:
    def test_perfectly_separated_pairs(self):
        part = kmeans_1d([0.0, 0.0, 10.0, 10.0], k=2)
        np.testing.assert_array_equal(part.centroids, [0.0, 10.0])
        np.testing.assert_array_equal(part.labels, [0, 0, 1, 1])

    def test_all_equal_values_clamp_k(self):
        part = kmeans_1d([4.2, 4.2, 4.2], k=3)
        assert part.k == 1
        assert part.requested_k == 3
        np.testing.assert_array_equal(part.centroids, [4.2])

    def test_known_two_cluster_instance(self):
        # optimal contiguous split of [1,2,8,9,10] is {1,2} | {8,9,10}
        part = kmeans_1d([1.0, 2.0, 8.0, 9.0, 10.0], k=2)
        np.testing.assert_allclose(part.centroids, [1.5, 9.0])
        np.testing.assert_array_equal(part.labels, [0, 0, 1, 1, 1])

    def test_empty_input_rejected(self):
        with pytest.raises(ContractError):
            kmeans_1d([], k=2)

    def test_matches_brute_force_for_k2(self):
        rng = np.random.default_rng(0)
        for trial in range(300):
            n = int(rng.integers(2, 21))
            if rng.random() < 0.5:
                values = rng.uniform(0, 10, n)
            else:
                # bimodal-ish inputs exercise the interesting splits
                values = np.concatenate(
                    [rng.normal(0, 1, n // 2 + n % 2), rng.normal(rng.uniform(1, 8), 1, n // 2)]
                )
            part = kmeans_1d(values, k=2)
            if part.k < 2:
                continue
            assert fitted_sse(values, part) <= brute_force_two_means(values) + 1e-9

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            values = rng.uniform(0, 5, int(rng.integers(3, 25)))
            perm = rng.permutation(values.size)
            a = kmeans_1d(values, k=3)
            b = kmeans_1d(values[perm], k=3)
            np.testing.assert_allclose(a.centroids, b.centroids, rtol=1e-12)
            np.testing.assert_array_equal(a.labels[perm], b.labels)

    def test_centroids_strictly_ascending(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            values = rng.uniform(0, 3, int(rng.integers(2, 30)))
            part = kmeans_1d(values, k=int(rng.integers(1, 5)))
            assert np.all(np.diff(part.centroids) > 0)

    def test_lloyd_fixed_point_property(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            values = rng.uniform(0, 3, int(rng.integers(2, 30)))
            part = kmeans_1d(values, k=3)
            dist = np.abs(values[:, None] - part.centroids[None, :])
            own = dist[np.arange(values.size), part.labels]
            assert np.all(own <= dist.min(axis=1) + 1e-12)


class TestAssignLevel:
    def test_hub_overlap_level(self):
        # 12/7 sits closest to the middle centroid
        assert assign_levels([12 / 7], [1.0, 1.7, 3.0])[0] == 1

    def test_midway_tie_goes_to_lower_index(self):
        assert assign_levels([2.0], [1.0, 3.0])[0] == 0

    def test_undefined_maps_to_level_zero(self):
        assert assign_levels([None], [1.0, 2.0, 3.0])[0] == 0
        assert assign_levels([float("nan")], [1.0, 2.0, 3.0])[0] == 0

    def test_rejects_empty_centroids(self):
        with pytest.raises(ContractError):
            assign_levels([1.0], [])


def _loop_level(p, centroids) -> int:
    """The per-node level rule that predict and fit_overlap_partition applied one node at a time."""
    if p is None:
        return 0
    return int(np.abs(float(p) - np.asarray(centroids, dtype=np.float64)).argmin())


# the criterion-6 desk graph and the Cora-CA-shaped benchmark graph (the
# feature width does not change the generated hyperedges)
LEVEL_GRAPHS = {
    "desk": SyntheticSpec(),
    "coraca": SyntheticSpec(nodes=2708, hyperedges=1072, dim=7, classes=7),
}


class TestAssignLevels:
    @pytest.mark.parametrize("name", sorted(LEVEL_GRAPHS))
    def test_equals_per_node_loop_on_every_node(self, name):
        g = generate_synthetic(LEVEL_GRAPHS[name], 0).graph
        nodes = range(g.num_nodes)
        vec = g.overlap_vector(nodes)
        valid = vec.values[vec.valid]
        # fitted levels, plus centroid pairs midway around common overlap values
        centroid_sets = [kmeans_1d(valid, k).centroids for k in (1, 2, 3, 5)]
        centroid_sets += [np.array([0.5, 1.5]), np.array([1.0, 2.0, 3.0]), np.array([1.25, 1.75])]
        ties = 0
        for centroids in centroid_sets:
            loop = [_loop_level(g.overlapness(v), centroids) for v in nodes]
            np.testing.assert_array_equal(assign_levels(vec.values, centroids), loop)
            dist = np.sort(np.abs(valid[:, None] - centroids[None, :]), axis=1)
            ties += int((dist[:, 0] == dist[:, 1:2].min(axis=1, initial=np.inf)).sum())
        assert ties > 0
        if name == "coraca":
            assert not vec.valid.all()

    def test_empty_values_give_no_levels(self):
        assert assign_levels(np.zeros(0), [1.0, 2.0]).shape == (0,)


def _nearest(values: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """The Lloyd loop's own assignment: the first nearest centroid, so ties go to the lower index."""
    return np.abs(values[:, None] - centroids[None, :]).argmin(axis=1)


def lloyd_from_optimum(values, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference: Lloyd iterations from the DP optimum until the centroids stop moving.

    This is the loop ``kmeans_1d`` ran before it was cut to one re-average
    (max_iter 100, tol 1e-9), with the same ordering and merging afterwards.
    Returns (centroids, labels).
    """
    values = np.asarray(values, dtype=np.float64)
    k = min(k, np.unique(values).size)
    centroids = partition._optimal_contiguous_means(np.sort(values), k)
    labels = _nearest(values, centroids)
    prev_sse = float(((values - centroids[labels]) ** 2).sum())
    for _ in range(100):
        new_centroids = centroids.copy()
        for c in range(k):
            members = values[labels == c]
            if members.size:
                new_centroids[c] = members.mean()
        movement = float(np.abs(new_centroids - centroids).max())
        centroids = new_centroids
        labels = _nearest(values, centroids)
        sse = float(((values - centroids[labels]) ** 2).sum())
        assert sse <= prev_sse + 1e-12 * max(1.0, prev_sse)
        prev_sse = sse
        if movement <= 1e-9:
            break
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
    return np.asarray(keep), merge[labels]


def _kmeans_inputs():
    """(values, k) cases: random, rounded with ties, small-integer ratios, and training-node
    overlaps of generated graphs, the desk and Cora-CA-shaped graphs among them."""
    rng = np.random.default_rng(41)
    cases = []
    for _ in range(500):
        cases.append((rng.uniform(0, 5, int(rng.integers(1, 80))), int(rng.integers(1, 6))))
    for _ in range(500):
        values = np.round(rng.uniform(0, 3, int(rng.integers(1, 80))), int(rng.integers(0, 2)))
        cases.append((values, int(rng.integers(1, 6))))
    for _ in range(400):
        n = int(rng.integers(1, 60))
        cases.append((rng.integers(1, 9, n) / rng.integers(1, 9, n), int(rng.integers(1, 6))))
    specs = [SyntheticSpec(nodes=int(rng.integers(40, 160)), hyperedges=int(rng.integers(20, 120)), dim=3) for _ in range(120)]
    for seed, spec in enumerate(specs + list(LEVEL_GRAPHS.values())):
        ds = generate_synthetic(spec, seed)
        vec = ds.graph.overlap_vector(ds.splits.train)
        valid = vec.values[vec.valid]
        if valid.size:
            cases += [(valid, k) for k in (1, 2, 3, 4, 5)]
    return cases


@pytest.mark.bitwise
def test_kmeans_equals_lloyd_loop_from_the_optimum_byte_for_byte():
    cases = _kmeans_inputs()
    assert len(cases) >= 2000
    ties = 0
    for values, k in cases:
        part = kmeans_1d(values, k)
        centroids, labels = lloyd_from_optimum(values, k)
        assert part.centroids.tobytes() == centroids.tobytes()
        assert part.labels.tobytes() == labels.astype(np.int64).tobytes()
        ties += np.unique(values).size < values.size
    assert ties > 1000
