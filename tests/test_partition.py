from __future__ import annotations

import functools
import tracemalloc

import numpy as np
import pytest

from hgmeta.errors import ContractError
from hgmeta import partition
from hgmeta.data import SyntheticSpec, generate_synthetic
from hgmeta.hypergraph import Hypergraph
from hgmeta.partition import Partition, assign_levels, kmeans_1d
from hgmeta.trainer import fit_levels


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

    @pytest.mark.parametrize("k", [True, False, np.bool_(True), 2.5, 3.0, np.float64(2.0), "3", None])
    def test_a_k_that_is_not_an_integer_is_refused(self, k):
        with pytest.raises(ContractError, match="k must be an integer"):
            kmeans_1d([1.0, 2.0, 4.0], k)
        no_valid_node = Hypergraph(3, []).overlap_vector([0, 1, 2])
        with pytest.raises(ContractError, match="k must be an integer"):
            fit_levels(no_valid_node, k)

    @pytest.mark.parametrize("k", [np.int64(2), np.int32(2), np.uint8(2)])
    def test_a_numpy_integer_k_is_an_int(self, k):
        part = kmeans_1d([1.0, 2.0, 8.0, 9.0], k)
        assert part.centroids.tolist() == [1.5, 8.5]
        assert part.requested_k == 2 and type(part.requested_k) is int
        no_valid_node = Hypergraph(3, []).overlap_vector([0, 1, 2])
        assert type(fit_levels(no_valid_node, k)[0].requested_k) is int

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


def loop_optimum(ordered: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference: the per-end DP loop ``partition`` ran before its one-pass and divide-and-conquer paths.

    For every end j of every level m it evaluates each start of the last run
    and keeps the first minimum. Returns (run starts, run means) of the
    SSE-optimal split of the sorted values into k runs.
    """
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
    run_starts = np.zeros(k, dtype=np.int64)
    means = np.empty(k)
    j = n - 1
    for m in range(k, 0, -1):
        i = split_at[m][j] if m > 1 else 0
        run_starts[m - 1] = i
        means[m - 1] = ordered[i : j + 1].mean()
        j = i - 1
    return run_starts, means


def lloyd_from(values: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reference: Lloyd iterations from ``centroids`` until they stop moving.

    This is the loop ``kmeans_1d`` ran before it was cut to one re-average
    (max_iter 100, tol 1e-9), with the same ordering and merging afterwards.
    Returns (centroids, labels).
    """
    k = centroids.size
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


# the one-pass bound as shipped; tests below patch it to force one path
SHIPPED_BOUND = partition._ONE_PASS_MAX


def _large_kmeans_inputs():
    """(values, k) cases above the one-pass bound, up to about 2000 values: uniform, small-integer
    ratios, rounded values, runs of equal values and log-normal values, and the overlap of every
    node of the Cora-CA-shaped graph with k from 1 to 5."""
    rng = np.random.default_rng(43)
    draws = [
        lambda n: rng.uniform(0, 5, n),
        lambda n: rng.integers(1, 9, n) / rng.integers(1, 9, n),
        lambda n: np.round(rng.uniform(0, 3, n), int(rng.integers(0, 3))),
        lambda n: np.repeat(rng.uniform(0, 5, n // 20), rng.integers(1, 40, n // 20)),
        lambda n: rng.lognormal(0, 1, n),
    ]
    cases = [(draw(int(rng.integers(129, 2001))), int(rng.integers(1, 6))) for draw in draws for _ in range(4)]
    g = generate_synthetic(LEVEL_GRAPHS["coraca"], 0).graph
    vec = g.overlap_vector(range(g.num_nodes))
    return cases + [(vec.values[vec.valid], k) for k in (1, 2, 3, 4, 5)]


def _rounding_tied_kmeans_inputs():
    """(values, k) cases whose optimal splits tie in exact arithmetic, so that rounding of the
    candidate expression picks the split: arithmetic progressions with a step that is not a
    dyadic fraction, and values mirrored around a centre; up to 120 values and above the bound."""
    rng = np.random.default_rng(45)
    cases = []
    for n in [int(rng.integers(2, 121)) for _ in range(300)] + [int(rng.integers(129, 1501)) for _ in range(8)]:
        if rng.random() < 0.5:
            values = rng.uniform(-3, 3) + rng.uniform(0.01, 1) * np.arange(n)
        else:
            half = rng.uniform(0, 2, n // 2)
            centre = rng.uniform(0, 3)
            values = np.concatenate([centre - half, centre + half])
        cases.append((values, int(rng.integers(2, 6))))
    return cases


@functools.cache
def _loop_references():
    """Every input of ``_kmeans_inputs``, ``_large_kmeans_inputs`` and ``_rounding_tied_kmeans_inputs``
    with its per-end loop run starts, and the centroids and labels of Lloyd's loop from that optimum."""
    refs = []
    for values, k in _kmeans_inputs() + _large_kmeans_inputs() + _rounding_tied_kmeans_inputs():
        ordered = np.sort(values)
        starts, means = loop_optimum(ordered, min(k, np.unique(values).size))
        refs.append((values, k, starts, *lloyd_from(values, means)))
    return refs


@pytest.mark.bitwise
@pytest.mark.parametrize("one_pass_max", [SHIPPED_BOUND, 0, 600])
def test_kmeans_equals_lloyd_loop_from_the_optimum_byte_for_byte(monkeypatch, one_pass_max):
    """The run starts and the fit equal the per-end loop's on every input: at the shipped bound,
    by divide and conquer alone (bound 0), and by one pass up to 600 values."""
    monkeypatch.setattr(partition, "_ONE_PASS_MAX", one_pass_max)
    refs = _loop_references()
    assert len(refs) >= 2000 and sum(values.size > SHIPPED_BOUND for values, *_ in refs) >= 25
    ties = 0
    for values, k, starts, centroids, labels in refs:
        ordered = np.sort(values)
        assert partition._optimal_run_starts(ordered, starts.size).tobytes() == starts.tobytes()
        part = kmeans_1d(values, k)
        assert part.centroids.tobytes() == centroids.tobytes()
        assert part.labels.tobytes() == labels.astype(np.int64).tobytes()
        ties += np.unique(values).size < values.size
    assert ties > 1000


_edge_rng = np.random.default_rng(47)
# (values, k) by name; the last two sit at the shipped one-pass bound and one above it
EDGE_INPUTS = {
    "one value": (np.array([2.5]), 3),
    "two values": (np.array([3.0, 1.0]), 2),
    "k is one": (_edge_rng.uniform(0, 5, 300), 1),
    "k above the distinct values": (np.repeat([4.0, 1.0, 2.0], 100), 5),
    "all equal": (np.full(300, 0.75), 4),
    "two distinct values repeated": (np.tile([2.0, 1.0], 150), 3),
    "at the bound": (_edge_rng.uniform(0, 5, SHIPPED_BOUND), 3),
    "one above the bound": (_edge_rng.uniform(0, 5, SHIPPED_BOUND + 1), 3),
}
# the fit (centroids, k) of the inputs whose optimum is plain
EDGE_FITS = {
    "one value": ([2.5], 1),
    "two values": ([1.0, 3.0], 2),
    "k above the distinct values": ([1.0, 2.0, 4.0], 3),
    "all equal": ([0.75], 1),
    "two distinct values repeated": ([1.0, 2.0], 2),
}


@pytest.mark.bitwise
@pytest.mark.parametrize("one_pass_max", [SHIPPED_BOUND, 0, 10**6])
@pytest.mark.parametrize("name", sorted(EDGE_INPUTS))
def test_edge_cases_on_both_paths(monkeypatch, name, one_pass_max):
    """Each edge input as shipped, by divide and conquer alone (bound 0) and by one pass alone."""
    monkeypatch.setattr(partition, "_ONE_PASS_MAX", one_pass_max)
    values, k = EDGE_INPUTS[name]
    ordered = np.sort(values)
    starts, means = loop_optimum(ordered, min(k, np.unique(values).size))
    centroids, labels = lloyd_from(values, means)
    assert partition._optimal_run_starts(ordered, starts.size).tobytes() == starts.tobytes()
    part = kmeans_1d(values, k)
    assert part.centroids.tobytes() == centroids.tobytes()
    assert part.labels.tobytes() == labels.astype(np.int64).tobytes()
    assert part.requested_k == k
    if name in EDGE_FITS:
        expected, levels = EDGE_FITS[name]
        assert part.centroids.tolist() == expected and part.k == levels
        np.testing.assert_array_equal(part.centroids[part.labels], values)


def test_fit_memory_is_linear_in_the_number_of_values():
    """20,000 values at k = 5 peak at a few MB: one (n, n) float64 array would be 3.2 GB."""
    values = np.random.default_rng(53).uniform(0, 5, 20_000)
    tracemalloc.start()
    try:
        part = kmeans_1d(values, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert part.k == 5
    assert peak < 12 * 2**20


def _partition(**changes) -> Partition:
    """A valid two-level partition of four values, with ``changes`` applied."""
    fields = dict(centroids=np.array([1.0, 1.4]), labels=np.array([0, 1, 1, 0]), k=2, requested_k=3)
    return Partition(**{**fields, **changes})


class TestPartitionInvariants:
    """A partition holds what ``kmeans_1d`` guarantees, so none read back from an artifact can place nodes
    at levels that no fit makes: a NaN centroid put every node at level 0."""

    def test_a_valid_partition_keeps_int64_labels(self):
        part = _partition(labels=np.array([0, 1, 1, 0], dtype=np.int32))
        assert part.labels.dtype == np.int64 and part.labels.tolist() == [0, 1, 1, 0]

    @pytest.mark.parametrize("empty", [np.zeros(0), np.zeros(0, dtype=np.int64), []])
    def test_labels_may_be_empty(self, empty):
        assert _partition(labels=np.asarray(empty)).labels.size == 0

    def test_every_kmeans_partition_passes(self):
        for values, k in _kmeans_inputs()[::20]:
            part = kmeans_1d(values, k)
            again = Partition(part.centroids, part.labels, part.k, part.requested_k)
            assert again.labels.tobytes() == part.labels.tobytes() and again.labels.dtype == np.int64

    def test_centroids_must_be_one_dimensional(self):
        with pytest.raises(ContractError, match="number of centroids"):
            _partition(centroids=np.array([[1.0], [1.4]]))

    def test_k_must_count_the_centroids(self):
        with pytest.raises(ContractError, match="number of centroids"):
            _partition(centroids=np.array([1.0, 1.4, 2.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_centroids_must_be_finite(self, bad):
        with pytest.raises(ContractError, match="finite and strictly ascending"):
            _partition(centroids=np.array([bad, 1.3977]))

    @pytest.mark.parametrize("centroids", [[1.4, 1.0], [1.0, 1.0]])
    def test_centroids_must_strictly_ascend(self, centroids):
        with pytest.raises(ContractError, match="finite and strictly ascending"):
            _partition(centroids=np.array(centroids))

    @pytest.mark.parametrize("k,requested_k", [(0, 3), (2, 1), (2, -3)])
    def test_k_must_lie_between_one_and_the_requested_k(self, k, requested_k):
        centroids = np.array([1.0, 1.4][:k])
        with pytest.raises(ContractError, match=r"must lie in \[1, requested_k"):
            _partition(centroids=centroids, labels=np.zeros(0, dtype=np.int64), k=k, requested_k=requested_k)

    @pytest.mark.parametrize("labels", [[0, 2, 1, 0], [7, 7, 7, 7], [0, -1, 1, 0]])
    def test_labels_must_name_a_level(self, labels):
        with pytest.raises(ContractError, match="level ids out of range"):
            _partition(labels=np.array(labels))

    def test_labels_must_be_integers(self):
        with pytest.raises(ContractError, match="level ids must be integers"):
            _partition(labels=np.array([0.0, 1.7, 1.0, 0.0]))

    def test_labels_must_be_one_dimensional(self):
        with pytest.raises(ContractError, match="level ids must be 1-D"):
            _partition(labels=np.array([[0, 1], [1, 0]]))

    def test_fit_levels_refuses_k_below_one_without_a_valid_node(self):
        vec = Hypergraph(3, []).overlap_vector([0, 1, 2])
        assert not vec.valid.any()
        assert fit_levels(vec, 1)[0].k == 1
        for k in (0, -2):
            with pytest.raises(ContractError):
                fit_levels(vec, k)
