from __future__ import annotations

import gc
import os
import subprocess
import sys
import weakref
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgmeta import model, trainer
from hgmeta import tensor as T
from hgmeta.data import SyntheticSpec, generate_synthetic
from hgmeta.errors import ContractError
from hgmeta.hypergraph import Hypergraph
from hgmeta.model import BRANCHES, HGNNParams, branch_losses, forward, ss_coefficients, taped_forward
from hgmeta.rng import stream
from hgmeta.verify import hgnn_gradient_check

from conftest import random_hypergraph
from test_trainer import reference_per_sample_grads


def pair_edge() -> Hypergraph:
    return Hypergraph(2, [[0, 1]])


def random_params(dims, seed=0):
    return HGNNParams.init(dims, stream(seed, "init-w"), stream(seed, "init-a"))


class TestHGNNParams:
    def test_zero_layers_are_rejected(self):
        with pytest.raises(ContractError, match="at least one layer"):
            HGNNParams(weights=[], attn=[])


class TestSSCoefficients:
    def test_direct_formula(self):
        # node of degree 2 meeting an edge whose mean member degree is 3
        g = Hypergraph(6, [[0, 1], [0, 2, 3], [2, 4], [2, 5], [3, 4], [3, 5]])
        coeffs = ss_coefficients(g)
        arrays = g.incidence_arrays()
        idx = int(np.flatnonzero((arrays["pair_nodes"] == 0) & (arrays["pair_edges"] == 1))[0])
        # d_0 = 2, edge 1 members have degrees (2, 3, 3) -> mean 8/3
        assert coeffs[idx] == 1.0 / (2 * (8 / 3))

    def test_single_pair_edge_gives_one(self):
        assert ss_coefficients(pair_edge()).tolist() == [1.0, 1.0]

    def test_hub_toy_hand_values(self, toy):
        # every hyperedge's mean member degree is 2 and the hub has degree 3
        coeffs = ss_coefficients(toy)
        arrays = toy.incidence_arrays()
        hub = arrays["pair_nodes"] == 0
        np.testing.assert_array_equal(coeffs[hub], [1 / 6, 1 / 6, 1 / 6])

    def test_identical_across_repeated_queries(self, toy):
        # structural coefficients never change for a fixed graph
        np.testing.assert_array_equal(ss_coefficients(toy), ss_coefficients(toy))

    def test_matches_independent_recount(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            g = random_hypergraph(rng, max_nodes=30)
            coeffs = ss_coefficients(g)
            assert np.all(coeffs > 0)
            arrays = g.incidence_arrays()
            for i in range(arrays["pair_nodes"].size):
                v = int(arrays["pair_nodes"][i])
                e = int(arrays["pair_edges"][i])
                members = g.edge_to_nodes(e)
                d_e = sum(len(g.node_to_edges(u)) for u in members) / len(members)
                assert coeffs[i] == 1.0 / (len(g.node_to_edges(v)) * d_e)

    def test_dropped_dataset_frees_its_graph_without_the_cyclic_collector(self):
        ds = generate_synthetic(SyntheticSpec(nodes=30, hyperedges=12, dim=4), seed=3)
        params = random_params([4, 3, 2], seed=3)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            forward(ds.graph, ds.features, params, [0], ("ss",))
            assert ss_coefficients(ds.graph) is ss_coefficients(ds.graph)
            pair_nodes_ref = weakref.ref(ds.graph.incidence_arrays()["pair_nodes"])
            del ds
            assert pair_nodes_ref() is None
        finally:
            if was_enabled:
                gc.enable()


class TestAggregateHyperedges:
    def test_identical_members_passthrough(self):
        g = pair_edge()
        feats = np.array([[2.0, -1.0], [2.0, -1.0]])
        np.testing.assert_array_equal(model._edge_means_t(g, T.as_tensor(feats)).data, [[2.0, -1.0]])

    def test_two_member_mean(self):
        g = pair_edge()
        feats = np.array([[0.0], [2.0]])
        np.testing.assert_array_equal(model._edge_means_t(g, T.as_tensor(feats)).data, [[1.0]])

    def test_hub_toy_one_hot_means(self, toy):
        out = model._edge_means_t(toy, T.as_tensor(np.eye(7))).data
        expected = np.zeros((3, 7))
        for e, members in enumerate(toy.edges()):
            expected[e, list(members)] = 0.25
        np.testing.assert_allclose(out, expected, rtol=1e-15)


class TestFSCoefficients:
    def test_singleton_softmax_is_one(self):
        g = pair_edge()
        rng = np.random.default_rng(0)
        node_proj, edge_proj, a = (T.as_tensor(rng.normal(size=shape)) for shape in [(2, 3), (1, 3), (6, 1)])
        coeffs = model._fs_coefficients_t(g, node_proj, edge_proj, a)
        np.testing.assert_array_equal(coeffs.data, [[1.0], [1.0]])

    def test_zero_attention_vector_gives_uniform(self, toy):
        rng = np.random.default_rng(1)
        node_proj = T.as_tensor(rng.normal(size=(7, 4)))
        edge_proj = T.as_tensor(rng.normal(size=(3, 4)))
        coeffs = model._fs_coefficients_t(toy, node_proj, edge_proj, T.as_tensor(np.zeros((8, 1))))
        arrays = toy.incidence_arrays()
        expected = 1.0 / arrays["node_degrees"][arrays["pair_nodes"]]
        np.testing.assert_allclose(coeffs.data[:, 0], expected, rtol=1e-12)

    def test_sums_to_one_per_node(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            g = random_hypergraph(rng, max_nodes=25)
            if not g.incidence_arrays()["member_nodes"].size:
                continue
            node_proj = T.as_tensor(rng.normal(size=(g.num_nodes, 3)))
            edge_proj = T.as_tensor(rng.normal(size=(g.num_hyperedges, 3)))
            coeffs = model._fs_coefficients_t(g, node_proj, edge_proj, T.as_tensor(rng.normal(size=(6, 1)))).data[:, 0]
            arrays = g.incidence_arrays()
            sums = np.bincount(arrays["pair_nodes"], weights=coeffs, minlength=g.num_nodes)
            covered = arrays["node_degrees"] > 0
            np.testing.assert_allclose(sums[covered], 1.0, atol=1e-9)


def _node_update(g: Hypergraph, feats, coeffs, w) -> T.Tensor:
    """The stage-2 update of ``feats`` projected by ``w``, with the stage-1 means of ``feats``."""
    x, w = T.as_tensor(feats), T.as_tensor(w)
    edge_feats = model._edge_means_t(g, x)
    return model._node_update_t(g, T.matmul(x, w), T.matmul(edge_feats, w), T.as_tensor(T.column(coeffs)))


class TestNodeUpdate:
    def test_no_incident_edges_reduces_to_self_term(self):
        g = Hypergraph(3, [[0, 1]])
        feats = np.array([[1.0], [2.0], [-3.0]])
        out = T.elu(_node_update(g, feats, np.zeros(2), np.eye(1))).data
        # zero coefficients kill the message term everywhere; elu keeps positives
        assert out[0, 0] == 1.0
        assert out[2, 0] == pytest.approx(np.expm1(-3.0))

    def test_pair_edge_identity_weight_hand_value(self):
        g = pair_edge()
        feats = np.array([[1.0, 0.0], [0.0, 1.0]])
        # the hyperedge mean is [[0.5, 0.5]]
        out = T.elu(_node_update(g, feats, np.ones(2), np.eye(2))).data
        np.testing.assert_allclose(out, [[1.5, 0.5], [0.5, 1.5]], rtol=1e-15)


class TestForward:
    def test_zero_weights_give_zero_logits(self, toy):
        params = random_params([5, 4, 3])
        params = params.with_vec(np.zeros(params.flatten().size))
        X = np.random.default_rng(0).normal(size=(7, 5))
        for branch in ("ss", "fs"):
            np.testing.assert_array_equal(forward(toy, X, params, range(7), (branch,))[0], np.zeros((7, 3)))

    def test_one_layer_matches_node_update(self):
        g = pair_edge()
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        params = HGNNParams(weights=[np.eye(2)], attn=[np.zeros((4, 1))])
        logits = forward(g, X, params, [0, 1], ("ss",))[0]
        # output layer is linear, ss coefficient is exactly 1
        np.testing.assert_allclose(logits, [[1.5, 0.5], [0.5, 1.5]], rtol=1e-15)

    @pytest.mark.parametrize("branch", ["ss", "fs"])
    def test_three_layers_match_chain_of_stage_helpers(self, branch):
        # forward is built from the stage helpers, so the chain
        # aggregate -> project -> coefficients -> update reproduces it bit for bit
        rng = np.random.default_rng(18)
        for trial in range(20):
            g = random_hypergraph(rng, max_nodes=30)
            X = rng.normal(size=(g.num_nodes, 5))
            params = random_params([5, 4, 6, 3], seed=trial)
            h = T.as_tensor(X)
            for t, (w, a) in enumerate(zip(params.weights, params.attn)):
                w = T.as_tensor(w)
                hw, ew = T.matmul(h, w), T.matmul(model._edge_means_t(g, h), w)
                if branch == "ss":
                    coeff = T.as_tensor(T.column(ss_coefficients(g)))
                else:
                    coeff = model._fs_coefficients_t(g, hw, ew, T.as_tensor(a))
                h = model._node_update_t(g, hw, ew, coeff)
                if t < params.num_layers - 1:
                    h = T.elu(h)
            np.testing.assert_array_equal(forward(g, X, params, range(g.num_nodes), (branch,))[0], h.data)

    def test_ids_pass_the_graphs_one_id_check(self, toy):
        params = random_params([5, 4, 3])
        X = np.random.default_rng(0).normal(size=(7, 5))
        y = np.arange(7) % 3
        taped = taped_forward(toy, X, params)
        field = taped_forward(toy, X, params, field=toy.receptive_field([1, 2], 1))
        asks = (lambda ids: forward(toy, X, params, ids), lambda ids: taped.losses(y, ids), lambda ids: field.losses(y, ids))
        for ask in asks:
            # neither truncated to node 1 nor wrapped to the last node
            with pytest.raises(TypeError):
                ask([1.7])
            for bad in (-1, 7):
                with pytest.raises(IndexError, match=f"node id {bad} outside"):
                    ask([1, bad])
            with pytest.raises(ContractError, match="1-D"):
                ask([[1]])

    def test_hyperedge_permutation_invariance(self, toy):
        params = random_params([5, 4, 3], seed=3)
        X = np.random.default_rng(4).normal(size=(7, 5))
        perm = [2, 0, 1]
        permuted = Hypergraph(7, [toy.edge_to_nodes(e) for e in perm])
        for branch in ("ss", "fs"):
            a = forward(toy, X, params, range(7), (branch,))[0]
            b = forward(permuted, X, params, range(7), (branch,))[0]
            np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_node_permutation_equivariance(self, toy):
        params = random_params([5, 4, 3], seed=5)
        rng = np.random.default_rng(6)
        X = rng.normal(size=(7, 5))
        perm = rng.permutation(7)
        remapped = Hypergraph(7, [[int(perm[v]) for v in toy.edge_to_nodes(e)] for e in range(3)])
        X_perm = np.empty_like(X)
        X_perm[perm] = X
        for branch in ("ss", "fs"):
            base = forward(toy, X, params, range(7), (branch,))[0]
            moved = forward(remapped, X_perm, params, perm, (branch,))[0]
            np.testing.assert_allclose(moved, base, rtol=1e-12)


class TestInputMeansCache:
    """Layer-0 hyperedge means of frozen features are computed once per graph and features pair."""

    @staticmethod
    def _instance(seed=21):
        """A graph, frozen features over ``bytes`` (as the loaders build them) and parameters."""
        rng = np.random.default_rng(seed)
        g = random_hypergraph(rng, max_nodes=30, allow_isolated=False)
        X = np.frombuffer(rng.normal(size=(g.num_nodes, 5)).tobytes()).reshape(g.num_nodes, 5)
        assert T.frozen(X)
        return g, X, random_params([5, 4, 3], seed=seed)

    @pytest.fixture
    def builds(self, monkeypatch):
        """A weakref to every layer-0 means array built, in order."""
        made, build = [], T.gathered_segment_mean

        def counting(*args):
            means = build(*args)
            made.append(weakref.ref(means))
            return means

        monkeypatch.setattr(T, "gathered_segment_mean", counting)
        return made

    @pytest.mark.parametrize("branch", ["ss", "fs"])
    def test_read_only_features_reuse_their_means_with_the_same_bits(self, branch, builds):
        g, X, params = self._instance()
        ids = range(g.num_nodes)
        first = forward(g, X, params, ids, (branch,))[0]
        second = forward(g, X, params, ids, (branch,))[0]
        assert len(builds) == 1
        assert not builds[0]().flags.writeable
        np.testing.assert_array_equal(first, second)
        writeable = X.copy()
        np.testing.assert_array_equal(forward(g, writeable, params, ids, (branch,))[0], first)
        np.testing.assert_array_equal(forward(g, writeable, params, ids, (branch,))[0], first)
        assert len(builds) == 3  # fresh means on every pass over a writeable array
        forward(g, X, params, ids, (branch,))
        assert len(builds) == 3  # and the frozen features' means are still held

    def test_taped_gradients_match_writeable_features_bitwise(self):
        g, X, params = self._instance(seed=22)
        y = np.arange(g.num_nodes) % 3
        ids = np.arange(g.num_nodes)
        results = []
        for feats in (X, X.copy(), X):
            ss, fs = taped_forward(g, feats, params).losses(y, ids)
            results.append(ss.tape.backward(T.add(ss.mean_loss, fs.mean_loss)))
        for grads in results[1:]:
            for name, value in results[0].items():
                np.testing.assert_array_equal(grads[name], value)

    def test_view_of_writeable_array_is_not_cached(self, builds):
        g, X, params = self._instance(seed=23)
        base = X.copy()
        view = base[:]
        view.setflags(write=False)
        forward(g, X, params, [0], ("ss",))
        forward(g, view, params, [0], ("ss",))
        forward(g, view, params, [0], ("ss",))
        forward(g, X, params, [0], ("ss",))
        assert len(builds) == 3

    @pytest.mark.parametrize("branch", ["ss", "fs"])
    def test_owner_edited_between_passes_gives_fresh_means(self, branch):
        g, frozen_x, params = self._instance(seed=25)
        X = frozen_x.copy()
        X.setflags(write=False)  # owns its memory, so it can be made writeable again
        ids = range(g.num_nodes)
        before = forward(g, X, params, ids, (branch,))[0]
        X.setflags(write=True)
        X *= -1.5
        X.setflags(write=False)
        after = forward(g, X, params, ids, (branch,))[0]
        np.testing.assert_array_equal(after, forward(g, X.copy(), params, ids, (branch,))[0])
        assert not np.array_equal(after, before)

    def test_dropped_graph_is_not_kept_alive_by_its_features(self, builds):
        g, X, params = self._instance(seed=26)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            forward(g, X, params, [0], ("fs",))
            members_ref = weakref.ref(g.incidence_arrays()["member_nodes"])
            assert builds[0]() is not None
            del g
            assert members_ref() is None and builds[0]() is None
        finally:
            if was_enabled:
                gc.enable()

    def test_dropped_features_free_their_means_without_the_cyclic_collector(self, builds):
        g, X, params = self._instance(seed=24)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            forward(g, X, params, [0], ("fs",))
            x_ref = weakref.ref(X)
            assert builds[0]() is not None
            del X
            assert x_ref() is None and builds[0]() is None
        finally:
            if was_enabled:
                gc.enable()


@pytest.mark.bitwise
class TestSharedLayer0:
    """Both branches of a pass read one pair of layer-0 product nodes of the constant input."""

    # of the largest entry of |A| + |B| in each parameter: the joint sweep adds the two
    # branches' gradients before a product, where the single-root sweeps add after it
    JOINT_TOLERANCE = 1e-12

    @staticmethod
    def _instance(seed: int, layers: int, frozen: bool):
        rng = np.random.default_rng(seed)
        g = random_hypergraph(rng, max_nodes=30)
        n = g.num_nodes
        X = rng.normal(size=(n, 5))
        if frozen:
            X = np.frombuffer(X.tobytes()).reshape(n, 5)
        masks = [(rng.random((n, 4)) < 0.7) / 0.7 for _ in range(layers - 1)]
        ids = np.sort(rng.choice(n, size=min(n, 6), replace=False))
        y = rng.integers(0, 3, size=n)
        return g, X, y, random_params([5] + [4] * (layers - 1) + [3], seed=seed), masks, ids

    @pytest.mark.parametrize("frozen", [True, False], ids=["frozen", "writeable"])
    def test_taped_branches_read_two_layer0_nodes_on_w0(self, frozen):
        g, X, y, params, masks, ids = self._instance(31, 2, frozen)
        ss, fs = taped_forward(g, X, params, masks).losses(y, ids)
        tape = ss.tape
        w0 = tape._params["w0"][0]
        layer0 = [i for i, (_, in_idxs, *_) in enumerate(tape._records) if w0 in in_idxs]
        assert layer0 == [0, 1] and all(tape._records[i][1] == (None, w0) for i in layer0)
        ran = []
        for i in layer0:
            out, in_idxs, grad_fn, tangent_fn = tape._records[i]
            tape._records[i] = (out, in_idxs, lambda g, i=i, fn=grad_fn: ran.append(i) or fn(g), tangent_fn)
        seed = np.ones((ids.size, 1))
        # each branch reaches both nodes, and a joint sweep runs each node's rule once
        for roots in ([(ss.loss_vec, seed)], [(fs.loss_vec, seed)], [(ss.loss_vec, seed), (fs.loss_vec, seed)]):
            ran.clear()
            tape.backward(roots)
            assert ran == [1, 0]

    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_a_zero_seeded_root_is_no_root(self, layers):
        g, X, y, params, masks, ids = self._instance(40 + layers, layers, frozen=True)
        ss, fs = taped_forward(g, X, params, masks).losses(y, ids)
        tape = ss.tape
        ran = []
        for i, (out, in_idxs, grad_fn, tangent_fn) in enumerate(tape._records):
            tape._records[i] = (out, in_idxs, lambda g, i=i, fn=grad_fn: ran.append(i) or fn(g), tangent_fn)

        def sweep(roots):
            ran.clear()
            grads = tape.backward(roots)
            return set(ran), grads

        ones, zeros = np.ones((ids.size, 1)), np.zeros((ids.size, 1))
        for live, dead in ((ss, fs), (fs, ss)):
            alone, expected = sweep([(live.loss_vec, ones)])
            exclusive = sweep([(dead.loss_vec, ones)])[0] - alone
            assert exclusive
            for zero in (zeros, -zeros):
                visited, grads = sweep([(live.loss_vec, ones), (dead.loss_vec, zero)])
                assert visited == alone and not visited & exclusive
                _assert_same_bytes(grads, expected)

    def test_untaped_branches_have_the_bits_of_one_branch(self):
        g, X, _, params, _, ids = self._instance(32, 3, frozen=True)
        both = forward(g, X, params, ids)
        for branch, logits in zip(model.BRANCHES, both):
            assert logits.tobytes() == forward(g, X, params, ids, (branch,))[0].tobytes()

    @pytest.mark.parametrize("frozen", [True, False], ids=["frozen", "writeable"])
    @pytest.mark.parametrize("dropout", [False, True], ids=["plain", "dropout"])
    @pytest.mark.parametrize("layers", [2, 3])
    def test_joint_sweep_is_the_sum_of_single_root_sweeps(self, layers, dropout, frozen):
        g, X, y, params, masks, ids = self._instance(33 + layers, layers, frozen)
        ss, fs = taped_forward(g, X, params, masks if dropout else None).losses(y, ids)
        tape = ss.tape
        rng = np.random.default_rng(layers)
        a, b = rng.uniform(0.0, 1.0, (2, ids.size, 1))
        joint = tape.backward([(ss.loss_vec, a), (fs.loss_vec, b)])
        alone = tape.backward(ss.loss_vec, a), tape.backward(fs.loss_vec, b)
        for name, value in joint.items():
            summed = alone[0][name] + alone[1][name]
            scale = (np.abs(alone[0][name]) + np.abs(alone[1][name])).max()
            assert np.abs(value - summed).max() <= self.JOINT_TOLERANCE * scale, name
        # a zero seed at one root leaves the other root's bits, as a pinned alpha of 1 or 0 seeds them
        ones, zeros = np.ones((ids.size, 1)), np.zeros((ids.size, 1))
        _assert_same_bytes(tape.backward([(ss.loss_vec, ones), (fs.loss_vec, zeros)]), tape.backward(ss.loss_vec, ones))
        _assert_same_bytes(tape.backward([(ss.loss_vec, zeros), (fs.loss_vec, ones)]), tape.backward(fs.loss_vec, ones))

    @pytest.mark.bitwise
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_heads_added_to_a_kept_forward_have_the_bits_of_a_fresh_tape(self, layers):
        g, X, y, params, _, ids = self._instance(36 + layers, layers, frozen=True)
        kept = taped_forward(g, X, params)
        # heads of another id set first, as the meta loss leaves them before the next probe
        kept.losses(y, np.arange(g.num_nodes)[::2])
        reused = kept.losses(y, ids)
        fresh = taped_forward(g, X, params).losses(y, ids)
        a, b = np.random.default_rng(layers).uniform(0.0, 1.0, (2, ids.size, 1))
        for old, new in zip(fresh, reused):
            assert old.loss_vec.data.tobytes() == new.loss_vec.data.tobytes()
        _assert_same_bytes(
            kept.tape.backward([(reused[0].loss_vec, a), (reused[1].loss_vec, b)]),
            fresh[0].tape.backward([(fresh[0].loss_vec, a), (fresh[1].loss_vec, b)]),
        )

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        samples=st.integers(1, 11),
        hidden=st.integers(1, 64),
        layers=st.integers(1, 3),
        dropout=st.booleans(),
    )
    def test_reference_rows_have_the_bits_of_one_branch_tapes(self, seed, samples, hidden, layers, dropout):
        rng = np.random.default_rng(seed)
        g = random_hypergraph(rng, max_nodes=40)
        dim, classes = int(rng.integers(1, 20)), int(rng.integers(2, 5))
        X, y = rng.normal(size=(g.num_nodes, dim)), rng.integers(0, classes, size=g.num_nodes)
        hgnn = HGNNParams.init([dim] + [hidden] * (layers - 1) + [classes], rng, rng)
        masks = [(rng.random((g.num_nodes, hidden)) < 0.5) / 0.5 for _ in range(layers - 1)] if dropout else None
        ids = rng.choice(g.num_nodes, size=min(samples, g.num_nodes), replace=False)
        assert_reference_rows_match(g, X, y, ids, hgnn, masks)

    @pytest.mark.slow
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_reference_rows_at_coraca_width_in_a_fresh_process(self, threads):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": str(Path(model.__file__).parents[1])}
        script = (
            "import sys; sys.path.insert(0, sys.argv[1]); from test_model import coraca_reference_rows_match; "
            "coraca_reference_rows_match(6)"
        )
        done = subprocess.run(
            [sys.executable, "-c", script, str(Path(__file__).parent)],
            env=env,
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert done.returncode == 0, done.stderr[-2000:]


@pytest.fixture(scope="module")
def coraca():
    """The Cora-CA-shaped dataset, generated once for this module, and a classifier of hidden width 64."""
    ds = generate_synthetic(SyntheticSpec(nodes=2708, hyperedges=1072, dim=1433, classes=7), 0)
    return ds, HGNNParams.init([1433, 64, ds.num_classes], stream(0, "init-w"), stream(0, "init-a"))


def field_and_whole_losses(g, X, y, hgnn, ids, masks=None):
    """The loss graphs of ``ids`` on a tape of their receptive field, and on a whole-graph tape."""
    field = g.receptive_field(ids, hgnn.num_layers - 1)
    return taped_forward(g, X, hgnn, masks, field=field).losses(y, ids), taped_forward(g, X, hgnn, masks).losses(y, ids)


def random_field_instance(seed, samples, hidden, layers, dropout):
    rng = np.random.default_rng(seed)
    g = random_hypergraph(rng, max_nodes=60)
    dim, classes = int(rng.integers(1, 20)), int(rng.integers(2, 5))
    X, y = rng.normal(size=(g.num_nodes, dim)), rng.integers(0, classes, size=g.num_nodes)
    hgnn = HGNNParams.init([dim] + [hidden] * (layers - 1) + [classes], rng, rng)
    masks = [(rng.random((g.num_nodes, hidden)) < 0.5) / 0.5 for _ in range(layers - 1)] if dropout else None
    ids = np.sort(rng.choice(g.num_nodes, size=min(samples, g.num_nodes), replace=False))
    return g, X, y, hgnn, ids, masks, rng


# random sparse graphs with 1-3 layers, with and without dropout, and batches of 1-24
random_fields = given(
    seed=st.integers(0, 2**32 - 1),
    samples=st.integers(1, 24),
    hidden=st.integers(1, 64),
    layers=st.integers(1, 3),
    dropout=st.booleans(),
)


@contextmanager
def rowwise_products():
    """``tensor.matmul`` with each output row from a product of its own, so no row's bits depend on the others.

    OpenBLAS picks its kernels by the number of rows it multiplies, and
    some give a row other bits than others do: a field's product can round
    a row apart from the whole graph's. Measured at Cora-CA shape, the
    feature branch's (pairs, 128) @ (128, 1) attention product did so on
    about one batch of 64 in 20, and layer 0 on fields of under 12 rows.
    With this product, what is left to compare is the field's own build.
    """
    matmul = T.matmul

    def rowwise(a, b):
        out = matmul(a, b)
        for i, row in enumerate(a.data):
            out.data[i] = np.dot(row, b.data)
        return out

    T.matmul = rowwise
    try:
        yield
    finally:
        T.matmul = matmul


class TestReceptiveFieldTape:
    """A forward taped on the receptive field of a batch, against one taped on the whole graph."""

    # of each array's largest entry: each product of the field's sweeps sums fewer rows
    TOLERANCE = 1e-12

    @staticmethod
    def _assert_same_loss_bytes(field, whole):
        for part, full in zip(field, whole):
            assert part.logits.data.tobytes() == full.logits.data.tobytes(), part.branch
            assert part.loss_vec.data.tobytes() == full.loss_vec.data.tobytes(), part.branch
            assert part.mean_loss.data.tobytes() == full.mean_loss.data.tobytes(), part.branch

    @classmethod
    def _assert_close(cls, got, expected, name: str):
        assert np.abs(got - expected).max(initial=0.0) <= cls.TOLERANCE * np.abs(expected).max(initial=0.0), name

    @classmethod
    def _assert_derivatives_close(cls, field, whole, hgnn, rng):
        """The step gradient (a sweep seeded at both loss columns) and the tangents of both loss columns."""
        for part, full in zip(field, whole):
            cls._assert_close(part.loss_vec.data, full.loss_vec.data, part.branch)
        a, b = rng.uniform(0.0, 1.0, (2, field[0].loss_vec.shape[0], 1))
        # one array, as a step applies it: a parameter whose gradient is zero reads rounding noise on one side
        grads = [
            trainer._flatten_grads(graphs[0].tape.backward([(graphs[0].loss_vec, a), (graphs[1].loss_vec, b)]), hgnn)
            for graphs in (field, whole)
        ]
        cls._assert_close(*grads, "step gradient")
        direction = {name: rng.normal(size=arr.shape) for name, arr in hgnn.param_items()}
        tangents = [graphs[0].tape.jvp((graphs[0].loss_vec, graphs[1].loss_vec), direction) for graphs in (field, whole)]
        for branch, part, full in zip(BRANCHES, *tangents):
            cls._assert_close(part, full, f"tangent {branch}")

    @pytest.mark.bitwise
    @pytest.mark.parametrize("samples", [8, 64])
    def test_coraca_loss_columns_have_the_whole_graph_bits(self, samples, coraca):
        ds, hgnn = coraca
        ids = np.asarray(ds.splits.train[:samples])
        with rowwise_products():
            field, whole = field_and_whole_losses(ds.graph, ds.features, ds.labels, hgnn, ids)
        assert field[0].tape is not whole[0].tape
        self._assert_same_loss_bytes(field, whole)

    @pytest.mark.bitwise
    @settings(max_examples=60, deadline=None)
    @random_fields
    def test_loss_columns_have_the_whole_graph_bits(self, seed, samples, hidden, layers, dropout):
        g, X, y, hgnn, ids, masks, _ = random_field_instance(seed, samples, hidden, layers, dropout)
        with rowwise_products():
            self._assert_same_loss_bytes(*field_and_whole_losses(g, X, y, hgnn, ids, masks))

    @pytest.mark.parametrize("samples", [8, 64])
    def test_coraca_derivatives_match_the_whole_graph(self, samples, coraca):
        ds, hgnn = coraca
        ids = np.asarray(ds.splits.train[:samples])
        field, whole = field_and_whole_losses(ds.graph, ds.features, ds.labels, hgnn, ids)
        self._assert_derivatives_close(field, whole, hgnn, np.random.default_rng(samples))

    @settings(max_examples=60, deadline=None)
    @random_fields
    def test_derivatives_match_the_whole_graph(self, seed, samples, hidden, layers, dropout):
        g, X, y, hgnn, ids, masks, rng = random_field_instance(seed, samples, hidden, layers, dropout)
        self._assert_derivatives_close(*field_and_whole_losses(g, X, y, hgnn, ids, masks), hgnn, rng)

    def test_losses_refuse_an_id_the_field_was_not_built_for(self):
        g = Hypergraph(6, [[0, 1], [1, 2, 3], [4, 5]])
        X, y = np.random.default_rng(0).normal(size=(6, 3)), np.arange(6) % 2
        forward = taped_forward(g, X, random_params([3, 4, 2]), field=g.receptive_field([1], 1))
        assert forward.losses(y, [1])[0].loss_vec.shape == (1, 1)
        # node 4 lies outside the field; node 0 inside it, but its rows are not exact
        for ids in ([4], [1, 0]):
            with pytest.raises(ContractError, match="not one of the ids"):
                forward.losses(y, ids)

    def test_a_field_needs_a_hop_per_layer_after_the_first(self):
        g = Hypergraph(4, [[0, 1], [1, 2], [2, 3]])
        X = np.ones((4, 3))
        with pytest.raises(ContractError, match="needs a field of 2 hops"):
            taped_forward(g, X, random_params([3, 4, 4, 2]), field=g.receptive_field([0], 1))


def assert_reference_rows_match(g, X, y, ids, hgnn, masks=None):
    """Each branch's ``_grad_rows`` on the two-branch tape carry the bytes of one-branch tapes, one per sample."""
    for graph in taped_forward(g, X, hgnn, masks).losses(y, ids):
        rows = trainer._grad_rows(graph, hgnn)
        expected = reference_per_sample_grads(g, X, y, hgnn, ids, graph.branch, masks)
        assert rows.tobytes() == expected.tobytes(), graph.branch


def coraca_reference_rows_match(samples: int) -> None:
    ds = generate_synthetic(SyntheticSpec(nodes=2708, hyperedges=1072, dim=1433, classes=7), 0)
    hgnn = HGNNParams.init([1433, 64, ds.num_classes], stream(0, "init-w"), stream(0, "init-a"))
    assert_reference_rows_match(ds.graph, ds.features, ds.labels, np.asarray(ds.splits.train[:samples]), hgnn)


def _assert_same_bytes(grads: dict, expected: dict) -> None:
    assert list(grads) == list(expected)
    for name, value in expected.items():
        assert grads[name].tobytes() == value.tobytes(), name


class TestCELoss:
    """The CE head of ``TapedForward.losses``, read through ``branch_losses``."""

    @staticmethod
    def _pair_edge_losses(scale: float):
        # one linear layer on a pair edge: both branches' coefficients are exactly 1,
        # so node 0 has logits scale * [1.5, 0.5] (see test_one_layer_matches_node_update)
        params = HGNNParams(weights=[scale * np.eye(2)], attn=[np.zeros((4, 1))])
        out = branch_losses(pair_edge(), np.eye(2), np.array([0, 1]), params, [0])
        return out.loss_ss[0], out.loss_fs[0]

    def test_uniform_logits(self, toy):
        params = HGNNParams(weights=[np.zeros((5, 4))], attn=[np.zeros((8, 1))])
        out = branch_losses(toy, np.ones((7, 5)), np.arange(7) % 4, params, np.arange(7))
        np.testing.assert_allclose(out.loss_ss, np.log(4.0), rtol=1e-12)
        np.testing.assert_allclose(out.loss_fs, np.log(4.0), rtol=1e-12)

    def test_two_class_margin_value(self):
        for loss in self._pair_edge_losses(1.0):
            assert loss == pytest.approx(np.log1p(np.exp(-1.0)), rel=1e-12)

    def test_large_margin_drives_loss_to_zero(self):
        for loss in self._pair_edge_losses(50.0):
            assert loss < 1e-20

    def test_losses_are_nonnegative(self):
        rng = np.random.default_rng(9)
        for trial in range(30):
            g = random_hypergraph(rng, max_nodes=20)
            c = int(rng.integers(2, 6))
            X, y = rng.normal(size=(g.num_nodes, 3)), rng.integers(0, c, g.num_nodes)
            out = branch_losses(g, X, y, random_params([3, 4, c], seed=trial), np.arange(g.num_nodes))
            assert np.all(out.loss_ss >= 0.0) and np.all(out.loss_fs >= 0.0)


def test_one_hot_refuses_labels_it_would_truncate_or_wrap():
    np.testing.assert_array_equal(model.one_hot(np.array([2, 0], dtype=np.uint8), 3), [[0, 0, 1], [1, 0, 0]])
    with pytest.raises(ContractError, match="label ids must be integers, got dtype float64"):
        model.one_hot([1.9, 0.2], 3)
    for labels in ([3], [-1]):
        with pytest.raises(ContractError, match="label ids out of range"):
            model.one_hot(labels, 3)


class TestBranchLosses:
    def test_equal_when_coefficient_fields_coincide(self):
        # single pair edge: ss coefficient is exactly 1 and the fs softmax of a
        # singleton is exactly 1, so with shared weights the branches agree
        g = pair_edge()
        rng = np.random.default_rng(10)
        X = rng.normal(size=(2, 3))
        y = np.array([0, 1])
        params = random_params([3, 4, 2], seed=11)
        out = branch_losses(g, X, y, params, [0, 1])
        logits_ss, logits_fs = forward(g, X, params, [0, 1])
        np.testing.assert_array_equal(logits_ss, logits_fs)
        np.testing.assert_array_equal(out.loss_ss, out.loss_fs)

    def test_float_labels_are_refused_not_truncated(self, toy):
        y = np.array([0, 1, 2, 0, 1, 2, 0])
        with pytest.raises(ContractError, match="label ids must be integers, got dtype float64"):
            branch_losses(toy, np.ones((7, 5)), y + 0.6, random_params([5, 4, 3]), np.arange(7))

    def test_zero_weights_give_log_c_everywhere(self, toy):
        params = random_params([5, 4, 3])
        params = params.with_vec(np.zeros(params.flatten().size))
        y = np.array([0, 1, 2, 0, 1, 2, 0])
        out = branch_losses(toy, np.ones((7, 5)), y, params, np.arange(7))
        np.testing.assert_allclose(out.loss_ss, np.log(3.0), rtol=1e-12)
        np.testing.assert_allclose(out.loss_fs, np.log(3.0), rtol=1e-12)

    def test_branches_generally_differ_on_irregular_graphs(self, toy):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(7, 5))
        y = rng.integers(0, 3, size=7)
        params = random_params([5, 4, 3], seed=13)
        out = branch_losses(toy, X, y, params, np.arange(7))
        assert np.abs(out.loss_ss - out.loss_fs).max() > 1e-6

    def test_losses_nonnegative_and_softmax_rows_normalize(self, toy):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(7, 5))
        y = rng.integers(0, 3, size=7)
        params = random_params([5, 4, 3], seed=15)
        out = branch_losses(toy, X, y, params, np.arange(7))
        assert np.all(out.loss_ss >= 0) and np.all(out.loss_fs >= 0)
        for logits in forward(toy, X, params, np.arange(7)):
            probs = np.exp(logits - logits.max(axis=1, keepdims=True))
            probs /= probs.sum(axis=1, keepdims=True)
            np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


class TestGradients:
    def test_backward_matches_finite_differences_both_branches(self):
        report = hgnn_gradient_check(nodes=8, hidden=4, seed=0, eps=1e-4)
        assert report["ss"] <= 1e-4
        assert report["fs"] <= 1e-4

    def test_structural_branch_ignores_attention_vectors(self, toy):
        rng = np.random.default_rng(16)
        X = rng.normal(size=(7, 5))
        y = rng.integers(0, 3, size=7)
        params = random_params([5, 4, 3], seed=17)
        (graph,) = taped_forward(toy, X, params, branches=("ss",)).losses(y, np.arange(7))
        grads = graph.tape.backward(graph.mean_loss)
        assert np.all(grads["a0"] == 0.0) and np.all(grads["a1"] == 0.0)
        assert np.abs(grads["w0"]).max() > 0
