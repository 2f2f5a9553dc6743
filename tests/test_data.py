from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgmeta import tensor as T
from hgmeta.data import (
    Dataset,
    Splits,
    SyntheticSpec,
    _untaken,
    generate_synthetic,
    impure_hyperedge_fraction,
    load_dataset,
    save_dataset,
)
from hgmeta.errors import ContractError, DataError
from hgmeta.hypergraph import Hypergraph

from conftest import overlap_toy


def write_toy_dataset(root, *, splits=None, label_lines=None, feature_rows=None, edges=None):
    root.mkdir(parents=True, exist_ok=True)
    g = overlap_toy()
    edge_lines = edges if edges is not None else [" ".join(str(v) for v in e) for e in g.edges()]
    (root / "hyperedges.txt").write_text("\n".join(edge_lines) + "\n")
    rows = feature_rows if feature_rows is not None else [",".join(["0.5"] * 3) for _ in range(7)]
    (root / "features.csv").write_text("\n".join(rows) + "\n")
    labels = label_lines if label_lines is not None else [f"{v},{v % 2}" for v in range(7)]
    (root / "labels.csv").write_text("\n".join(labels) + "\n")
    payload = splits if splits is not None else {"train": [0, 1, 2], "meta": [3, 4], "test": [5, 6]}
    (root / "splits.json").write_text(json.dumps(payload))
    return root


class TestLoad:
    def test_loads_hub_toy_with_exact_overlap(self, tmp_path):
        ds = load_dataset(write_toy_dataset(tmp_path / "toy"))
        assert ds.graph == overlap_toy()
        assert ds.graph.overlapness(0) == 12 / 7
        assert ds.num_classes == 2
        assert ds.splits.train == (0, 1, 2)

    def test_missing_file(self, tmp_path):
        root = write_toy_dataset(tmp_path / "toy")
        (root / "labels.csv").unlink()
        with pytest.raises(DataError) as err:
            load_dataset(root)
        assert err.value.code == "missing-file"

    def test_ragged_features(self, tmp_path):
        root = write_toy_dataset(tmp_path / "toy", feature_rows=["1.0,2.0"] * 6 + ["1.0"])
        with pytest.raises(DataError) as err:
            load_dataset(root)
        assert err.value.code == "ragged-features"

    def test_split_overlap(self, tmp_path):
        root = write_toy_dataset(
            tmp_path / "toy", splits={"train": [0, 1], "meta": [1], "test": [2]}
        )
        with pytest.raises(DataError) as err:
            load_dataset(root)
        assert err.value.code == "split-overlap"

    @pytest.mark.parametrize("flag", [True, False])
    def test_json_bool_in_a_split_is_not_a_node_id(self, tmp_path, flag):
        root = write_toy_dataset(tmp_path / "toy", splits={"train": [0, flag], "meta": [3], "test": [5]})
        with pytest.raises(DataError) as err:
            load_dataset(root)
        assert err.value.code == "split-parse"

    def test_split_index_out_of_range(self, tmp_path):
        root = write_toy_dataset(tmp_path / "toy", splits={"train": [0], "meta": [1], "test": [9]})
        with pytest.raises(DataError) as err:
            load_dataset(root)
        assert err.value.code == "split-range"

    def test_split_of_unlabeled_node(self, tmp_path):
        root = write_toy_dataset(tmp_path / "toy", label_lines=[f"{v},0" for v in range(6)])
        with pytest.raises(DataError) as err:
            load_dataset(root)  # node 6 is in the test split but unlabeled
        assert err.value.code == "split-unlabeled"

    def test_duplicate_membership(self, tmp_path):
        root = write_toy_dataset(tmp_path / "toy", edges=["0 1 1"])
        with pytest.raises(DataError) as err:
            load_dataset(root)
        assert err.value.code == "duplicate-member"

    def test_hyperedge_referencing_missing_node(self, tmp_path):
        root = write_toy_dataset(tmp_path / "toy", edges=["0 12"])
        with pytest.raises(DataError) as err:
            load_dataset(root)
        assert err.value.code == "hyperedge-range"

    def test_negative_label(self, tmp_path):
        root = write_toy_dataset(tmp_path / "toy", label_lines=["0,-1"] + [f"{v},0" for v in range(1, 7)])
        with pytest.raises(DataError) as err:
            load_dataset(root)
        assert err.value.code == "label-range"


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path):
        ds = generate_synthetic(SyntheticSpec(nodes=30, hyperedges=15, size_range=(2, 4)), seed=5)
        save_dataset(ds, tmp_path / "d")
        assert load_dataset(tmp_path / "d") == ds

    def test_save_load_save_is_byte_identical(self, tmp_path):
        ds = generate_synthetic(SyntheticSpec(nodes=25, hyperedges=12, size_range=(2, 3)), seed=6)
        save_dataset(ds, tmp_path / "a")
        reloaded = load_dataset(tmp_path / "a")
        save_dataset(reloaded, tmp_path / "b")
        for fname in ("hyperedges.txt", "features.csv", "labels.csv", "splits.json"):
            assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()

    def test_roundtrip_keeps_the_class_count_when_the_top_class_draws_no_node(self, tmp_path):
        # three classes requested, labels {0, 1} drawn: the count is the one the layout carries
        ds = generate_synthetic(SyntheticSpec(nodes=15, hyperedges=8, size_range=(1, 4), dim=4), seed=217)
        assert ds.num_classes == 2 and set(ds.labels) == {0, 1}
        save_dataset(ds, tmp_path / "d")
        assert load_dataset(tmp_path / "d") == ds

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_roundtrip_property_over_random_synthetics(self, tmp_path_factory, seed):
        ds = generate_synthetic(SyntheticSpec(nodes=15, hyperedges=8, size_range=(1, 4), dim=4), seed=seed)
        root = tmp_path_factory.mktemp("rt")
        save_dataset(ds, root)
        assert load_dataset(root) == ds


class TestSynthetic:
    def test_same_seed_is_identical(self):
        spec = SyntheticSpec(nodes=40, hyperedges=20)
        assert generate_synthetic(spec, seed=9) == generate_synthetic(spec, seed=9)

    def test_different_seeds_differ(self):
        spec = SyntheticSpec(nodes=40, hyperedges=20)
        assert generate_synthetic(spec, seed=1) != generate_synthetic(spec, seed=2)

    def test_full_homophily_gives_pure_hyperedges(self):
        ds = generate_synthetic(
            SyntheticSpec(nodes=60, classes=3, hyperedges=40, size_range=(2, 4), homophily=1.0),
            seed=3,
        )
        assert impure_hyperedge_fraction(ds) == 0.0

    def test_noiseless_features_separate_classes_perfectly(self):
        # nearest class-mean on clean features must hit 100% everywhere
        spec = SyntheticSpec(nodes=50, classes=4, hyperedges=20, dim=6, noise=0.0, homophily=1.0)
        ds = generate_synthetic(spec, seed=4)
        means = np.zeros((4, 6))
        means[np.arange(4), np.arange(4)] = spec.signal
        predicted = np.linalg.norm(ds.features[:, None, :] - means[None], axis=2).argmin(axis=1)
        assert np.array_equal(predicted, ds.labels)

    def test_structure_noise_increases_impurity(self):
        base = SyntheticSpec(nodes=60, classes=3, hyperedges=40, homophily=0.95)
        biased = SyntheticSpec(
            nodes=60, classes=3, hyperedges=40, homophily=0.95, bias="structure", bias_fraction=0.5
        )
        diffs = []
        for seed in range(10):
            clean = impure_hyperedge_fraction(generate_synthetic(base, seed))
            noisy = impure_hyperedge_fraction(generate_synthetic(biased, seed))
            diffs.append(noisy - clean)
        assert np.mean(diffs) > 0.1
        assert sum(d > 0 for d in diffs) >= 9

    def test_bias_leaves_base_structure_and_splits_alone(self):
        base = SyntheticSpec(nodes=30, hyperedges=10)
        feature_biased = SyntheticSpec(nodes=30, hyperedges=10, bias="feature", bias_fraction=0.4)
        a = generate_synthetic(base, seed=11)
        b = generate_synthetic(feature_biased, seed=11)
        assert a.graph == b.graph
        assert a.splits == b.splits
        assert np.array_equal(a.labels, b.labels)
        assert not np.array_equal(a.features, b.features)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 80))
    def test_untaken_draws_equal_draws_from_the_set_difference(self, seed, n):
        # the generator draws a position among the untaken nodes; it must equal a draw from the nodes themselves
        rng = np.random.default_rng(seed)
        taken = np.sort(rng.choice(n, size=int(rng.integers(0, n)), replace=False))
        remaining = np.setdiff1d(np.arange(n), taken)
        k = int(rng.integers(1, remaining.size + 1))
        positions, nodes = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
        expected = nodes.choice(remaining, size=k, replace=False)
        assert _untaken(positions.choice(remaining.size, size=k, replace=False), taken).tolist() == expected.tolist()
        assert int(_untaken(positions.choice(remaining.size), taken)) == int(nodes.choice(remaining))

    def test_infeasible_size_range_rejected(self):
        with pytest.raises(ContractError, match="size range"):
            generate_synthetic(SyntheticSpec(nodes=4, size_range=(5, 6)), seed=0)

    def test_feature_dim_smaller_than_classes_rejected(self):
        with pytest.raises(ContractError, match="dim"):
            generate_synthetic(SyntheticSpec(nodes=10, classes=4, dim=2), seed=0)


def test_loaded_and_generated_features_reject_in_place_writes(tmp_path):
    loaded = load_dataset(write_toy_dataset(tmp_path / "toy"))
    generated = generate_synthetic(SyntheticSpec(nodes=20, hyperedges=8), seed=0)
    for ds in (loaded, generated):
        assert T.frozen(ds.features)
        with pytest.raises(ValueError):
            ds.features.setflags(write=True)
        with pytest.raises(ValueError, match="read-only"):
            ds.features[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            ds.features *= 2.0


def test_validation_catches_split_overlap_in_constructed_dataset():
    g = Hypergraph(4, [[0, 1], [2, 3]])
    with pytest.raises(DataError):
        ds = Dataset(
            graph=g,
            features=np.zeros((4, 2)),
            labels=np.array([0, 1, 0, 1]),
            splits=Splits(train=(0, 1), meta=(1,), test=(2,)),
            num_classes=2,
        )
        save_dataset(ds, "/tmp/never-written")
