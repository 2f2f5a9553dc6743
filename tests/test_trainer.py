from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgmeta import tensor as T
from hgmeta import trainer
from hgmeta.data import Dataset, Splits, SyntheticSpec, generate_synthetic
from hgmeta.errors import ContractError, NumericsError, TrainingError
from hgmeta.hypergraph import Hypergraph
from hgmeta.model import HGNNParams, build_branch_graph, one_hot, register_params, taped_losses
from hgmeta.mwn import MWNParams, mwn_forward_batch, weighted_alpha_theta_grad
from hgmeta.rng import stream
from hgmeta.tensor import Tape
from hgmeta.trainer import (
    PREDICT_MODES,
    ScheduleSpec,
    TrainSettings,
    external_update,
    intermediate_update,
    internal_update,
    lr,
    evaluate,
    meta_gradient,
    predict,
    train,
)
from hgmeta import verify
from hgmeta.verify import meta_gradient_check, random_toy_dataset

from conftest import count_rules, random_hypergraph


class TestSchedule:
    def test_inverse_sqrt_large_t_takes_decay_branch(self):
        assert lr(ScheduleSpec(kind="inverse-sqrt", c=1.0, m_hat=1.0), 100) == pytest.approx(0.1)

    def test_inverse_sqrt_early_t_hits_cap(self):
        assert lr(ScheduleSpec(kind="inverse-sqrt", c=1.0, m_hat=10.0), 1) == pytest.approx(0.1)

    def test_constant(self):
        spec = ScheduleSpec(kind="constant", c=0.01)
        assert lr(spec, 1) == lr(spec, 1000) == 0.01

    def test_rates_non_increasing(self):
        spec = ScheduleSpec(kind="inverse-sqrt", c=0.5, m_hat=5.0)
        rates = [lr(spec, t) for t in range(1, 200)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))
        assert all(r > 0 for r in rates)

    def test_rejects_zero_step(self):
        with pytest.raises(ContractError):
            lr(ScheduleSpec(), 0)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ContractError):
            ScheduleSpec(kind="linear")


def width2_instance(seed=0):
    """Tiny instance: 4 nodes, 2 hyperedges, width-2 single-layer classifier."""
    g = Hypergraph(4, [[0, 1, 2], [1, 2, 3]])
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(4, 2))
    y = np.array([0, 1, 0, 1])
    hgnn = HGNNParams.init([2, 2], stream(seed, "init-w"), stream(seed, "init-a"))
    mwn = MWNParams.init(2, hidden=4, rng=stream(seed, "init-mwn"))
    ids = np.array([0, 1, 2, 3])
    tasks = np.array([0, 0, 1, 1])
    return g, X, y, hgnn, mwn, ids, tasks


def reference_per_sample_grads(g, X, y, hgnn, ids, branch, num_classes=2):
    """Independent re-derivation: one scalar backward per sample."""
    onehot = one_hot(y[ids], num_classes)
    rows = []
    for j in range(ids.size):
        tape = Tape()
        weights, attn = register_params(tape, hgnn)
        graph = build_branch_graph(g, X, onehot, ids, branch, tape, weights, attn)
        seed_vec = np.zeros((ids.size, 1))
        seed_vec[j, 0] = 1.0
        grads = tape.backward(graph.loss_vec, seed_vec)
        rows.append(np.concatenate([grads[name].ravel() for name, _ in hgnn.param_items()]))
    return np.vstack(rows)


def reference_branch_sum(g, X, y, hgnn, ids, branch, num_classes=2):
    """Independent re-derivation of a branch's gradient sum: one ones-seeded backward."""
    tape = Tape()
    weights, attn = register_params(tape, hgnn)
    graph = build_branch_graph(g, X, one_hot(y[ids], num_classes), ids, branch, tape, weights, attn)
    grads = tape.backward(graph.loss_vec, np.ones((ids.size, 1)))
    return np.concatenate([grads[name].ravel() for name, _ in hgnn.param_items()])


def one_seed_rows(tape, graph, params) -> np.ndarray:
    """Reference per-sample rows: ``tape.backward`` called with one unit seed at a time."""
    n = graph.loss_vec.shape[0]
    rows = []
    for j in range(n):
        seed = np.zeros((n, 1))
        seed[j, 0] = 1.0
        grads = tape.backward(graph.loss_vec, seed)
        rows.append(np.concatenate([grads[name].ravel() for name, _ in params.param_items()]))
    return np.vstack(rows)


def assert_stacked_rows_match(g, X, y, ids, hgnn, masks=None):
    """Both branches' stacked per-sample rows carry the bytes of one-seed backward calls."""
    tape, graphs = taped_losses(g, X, y, ids, hgnn, masks)
    for graph in graphs:
        rows = trainer._grad_rows(graph, tape, hgnn, per_sample=True)
        assert rows.tobytes() == one_seed_rows(tape, graph, hgnn).tobytes(), graph.branch


@pytest.mark.bitwise
class TestStackedGradRows:
    """One stacked backward call per branch gives each sample's row the bits of its own pass."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        samples=st.integers(1, 11),
        hidden=st.integers(1, 64),
        layers=st.integers(1, 3),
        dropout=st.booleans(),
    )
    def test_rows_over_random_graphs(self, seed, samples, hidden, layers, dropout):
        rng = np.random.default_rng(seed)
        g = random_hypergraph(rng, max_nodes=40)
        dim, classes = int(rng.integers(1, 20)), int(rng.integers(2, 5))
        X, y = rng.normal(size=(g.num_nodes, dim)), rng.integers(0, classes, size=g.num_nodes)
        hgnn = HGNNParams.init([dim] + [hidden] * (layers - 1) + [classes], rng, rng)
        masks = [(rng.random((g.num_nodes, hidden)) < 0.5) / 0.5 for _ in range(layers - 1)] if dropout else None
        ids = rng.choice(g.num_nodes, size=min(samples, g.num_nodes), replace=False)
        assert_stacked_rows_match(g, X, y, ids, hgnn, masks)

    @staticmethod
    def _synthetic_rows(spec, samples):
        ds = generate_synthetic(spec, 0)
        hgnn = HGNNParams.init([spec.dim, 64, ds.num_classes], stream(0, "init-w"), stream(0, "init-a"))
        ids = np.asarray(ds.splits.train[:samples])
        assert_stacked_rows_match(ds.graph, ds.features, ds.labels, ids, hgnn)

    @pytest.mark.slow
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_coraca_width_in_a_fresh_process(self, threads):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": str(Path(trainer.__file__).parents[1])}
        script = (
            "import sys; sys.path.insert(0, sys.argv[1]); from test_trainer import TestStackedGradRows, SyntheticSpec; "
            "TestStackedGradRows._synthetic_rows(SyntheticSpec(nodes=2708, hyperedges=1072, dim=1433, classes=7), 6)"
        )
        done = subprocess.run(
            [sys.executable, "-c", script, str(Path(__file__).parent)],
            env=env,
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert done.returncode == 0, done.stderr[-2000:]


CORACA_SPEC = SyntheticSpec(nodes=2708, hyperedges=1072, dim=1433, classes=7)


@pytest.fixture(scope="module")
def shaped_datasets():
    """The desk dataset and the Cora-CA-shaped one, each generated once for this module."""
    return {"desk": generate_synthetic(SyntheticSpec(), 0), "coraca": generate_synthetic(CORACA_SPEC, 0)}


@pytest.fixture
def layer0_products(monkeypatch):
    """(rows of the constant, share of them multiplied, rule taken) of every constant-by-parameter weight gradient.

    The rule is ``"rows"`` for the row rule, which multiplies the carried
    rows only, or ``"dense"``, whose product is checked to be ``av.T @ g``
    byte for byte.
    """
    seen, matmul = [], T.matmul

    def recording(a, b, product=None):
        out = matmul(a, b, product)
        if a.idx is None and b.idx is not None:
            av, tape = a.data, out.tape
            out_idx, inputs, grad_fn, row_fn, *sizes = tape._records[-1]

            def dense(g):
                grads = grad_fn(g)
                assert grads[1].tobytes() == (av.T @ g).tobytes()
                seen.append((av.shape[0], 1.0, "dense"))
                return grads

            def rows(live, g):
                seen.append((av.shape[0], live.size / av.shape[0], "rows"))
                return row_fn(live, g)

            tape._records[-1] = (out_idx, inputs, dense, rows, *sizes)
        return out

    monkeypatch.setattr(T, "matmul", recording)
    return seen


class TestLiveRowsProducts:
    """Which layer-0 weight gradients take the row rule, and what one sample's gradient is then."""

    @staticmethod
    def _taped(ds, ids):
        hgnn = HGNNParams.init([ds.features.shape[1], 64, ds.num_classes], stream(0, "init-w"), stream(0, "init-a"))
        return (*taped_losses(ds.graph, ds.features, ds.labels, np.asarray(ids), hgnn), hgnn)

    # batches of fewer than 8 samples, whose unit seeds are carried as one row of a small tensor, and a larger one
    @pytest.mark.parametrize("samples", [1, 6, 16])
    def test_per_sample_seeds_gather_the_live_rows(self, samples, shaped_datasets, layer0_products):
        for name, ds in shaped_datasets.items():
            layer0_products.clear()
            tape, graphs, hgnn = self._taped(ds, ds.splits.train[:samples])
            calls = count_rules(tape)
            for graph in graphs:
                trainer._grad_rows(graph, tape, hgnn, per_sample=True)
            # one X and one hyperedge-means product per sample and branch
            x_shares = [share for rows, share, _ in layer0_products if rows == ds.graph.num_nodes]
            assert len(layer0_products) == 4 * samples and len(x_shares) == 2 * samples
            if name == "coraca":
                # every sample's receptive field is a small share of the graph: every record takes its row rule
                assert all(rule == "rows" and share <= T._LIVE_ROWS for _, share, rule in layer0_products)
                assert calls["dense"] == 0
            else:
                # on the 200-node desk graph most samples' X rows are carried; the hyperedge means mostly are not
                assert np.median(x_shares) <= T._LIVE_ROWS
                assert calls["rows"] > calls["dense"]

    @pytest.mark.bitwise
    def test_ones_seed_and_meta_backward_never_take_the_row_path(self, shaped_datasets, layer0_products):
        for ds in shaped_datasets.values():
            # the ones seed over the whole training split, as a pinned step takes it
            tape, graphs, hgnn = self._taped(ds, ds.splits.train)
            calls = count_rules(tape)
            for graph in graphs:
                trainer._grad_rows(graph, tape, hgnn, per_sample=False)
            tape, (ss, fs), _ = self._taped(ds, ds.splits.meta)
            meta_loss = T.add(ss.mean_loss, fs.mean_loss)
            meta_calls = count_rules(tape)
            tape.backward(meta_loss)
            assert calls["rows"] == meta_calls["rows"] == 0
            assert calls["dense"] > 0 and meta_calls["dense"] > 0
        assert len(layer0_products) == 2 * 2 * 4
        assert all(rule == "dense" for _, _, rule in layer0_products)

    @pytest.mark.parametrize("samples", [1, 3, 15])
    def test_one_samples_gradient_matches_central_differences(self, samples, layer0_products, monkeypatch):
        # the grad-check's chain of 3-node hyperedges: the gradient of one sample lives on
        # at most 5 of the 120 nodes and 4 of the 59 hyperedges
        counted = []

        def counting_losses(*args, **kwargs):
            tape, graphs = taped_losses(*args, **kwargs)
            counted.append(count_rules(tape))
            return tape, graphs

        monkeypatch.setattr(verify, "taped_losses", counting_losses)
        report = verify.per_sample_row_check(hidden=4, seed=31, samples=samples)
        assert set(report) == {"ss", "fs"} and max(report.values()) <= 1e-7
        (calls,) = counted
        assert calls["dense"] == 0 and calls["rows"] > 0
        assert layer0_products and all(0.0 < share <= T._LIVE_ROWS for _, share, _ in layer0_products)


def _sparse_hypergraph(rng) -> Hypergraph:
    """60 to 200 nodes in n / 4 to n / 2 hyperedges of 1 to 6 nodes: small receptive fields, isolated nodes too."""
    n = int(rng.integers(60, 201))
    edges = [
        sorted(int(v) for v in rng.choice(n, size=int(rng.integers(1, 7)), replace=False))
        for _ in range(int(rng.integers(n // 4, n // 2)))
    ]
    return Hypergraph(n, edges)


class TestRowPath:
    """Per-sample rows from carried gradients agree with the dense sweep to rounding."""

    # of the row's largest entry: the products over carried rows round like the full ones, but not always alike
    TOLERANCE = 1e-12

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        samples=st.integers(1, 24),
        hidden=st.integers(1, 64),
        layers=st.integers(1, 3),
        dropout=st.booleans(),
    )
    def test_rows_match_the_dense_sweep(self, seed, samples, hidden, layers, dropout):
        rng = np.random.default_rng(seed)
        g = _sparse_hypergraph(rng)
        dim, classes = int(rng.integers(1, 20)), int(rng.integers(2, 5))
        X, y = rng.normal(size=(g.num_nodes, dim)), rng.integers(0, classes, size=g.num_nodes)
        hgnn = HGNNParams.init([dim] + [hidden] * (layers - 1) + [classes], rng, rng)
        masks = [(rng.random((g.num_nodes, hidden)) < 0.5) / 0.5 for _ in range(layers - 1)] if dropout else None
        # a batch of the nodes, as a batched step draws it
        ids = np.sort(rng.choice(g.num_nodes, size=samples, replace=False))
        tape, graphs = taped_losses(g, X, y, ids, hgnn, masks)
        calls = count_rules(tape)
        for graph in graphs:
            carried = trainer._grad_rows(graph, tape, hgnn, per_sample=True)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(T, "_LIVE_ROWS", 0.0)
                dense = trainer._grad_rows(graph, tape, hgnn, per_sample=True)
            bound = self.TOLERANCE * np.abs(dense).max(axis=1, keepdims=True)
            assert np.all(np.abs(carried - dense) <= bound), graph.branch
        # every unit seed is carried from the loss column on, whatever the batch
        assert calls["rows"] >= 2 * samples


class TestIntermediateUpdate:
    @pytest.mark.bitwise
    def test_zero_lr_keeps_parameters_bitwise(self):
        g, X, y, hgnn, mwn, ids, tasks = width2_instance()
        w_hat, cache = intermediate_update(g, X, y, hgnn, mwn, ids, tasks, lam1=0.0)
        np.testing.assert_array_equal(w_hat.flatten(), hgnn.flatten())

    @pytest.mark.bitwise
    def test_zero_head_step_bitwise_equals_unweighted_average_step(self):
        g, X, y, hgnn, mwn, ids, tasks = width2_instance()
        lam1 = 0.05
        w_hat, cache = intermediate_update(g, X, y, hgnn, mwn, ids, tasks, lam1=lam1)
        assert np.all(cache.alpha == 0.5) and np.all(cache.beta == 0.5)
        g1 = reference_per_sample_grads(g, X, y, hgnn, ids, "ss")
        g2 = reference_per_sample_grads(g, X, y, hgnn, ids, "fs")
        expected = hgnn.flatten() - lam1 * (0.5 * (g1 + g2)).sum(axis=0)
        np.testing.assert_array_equal(w_hat.flatten(), expected)

    @pytest.mark.bitwise
    def test_hand_rolled_weighted_step(self):
        g, X, y, hgnn, mwn, ids, tasks = width2_instance(seed=2)
        rng = np.random.default_rng(5)
        mwn = mwn.with_vec(mwn.flatten() + rng.normal(size=mwn.flatten().size))
        lam1 = 0.03
        w_hat, cache = intermediate_update(g, X, y, hgnn, mwn, ids, tasks, lam1=lam1)
        g1 = reference_per_sample_grads(g, X, y, hgnn, ids, "ss")
        g2 = reference_per_sample_grads(g, X, y, hgnn, ids, "fs")
        alpha, beta = mwn_forward_batch(cache.l1, cache.l2, tasks, mwn)
        expected = hgnn.flatten() - lam1 * (alpha[:, None] * g1 + beta[:, None] * g2).sum(axis=0)
        np.testing.assert_array_equal(w_hat.flatten(), expected)
        np.testing.assert_array_equal(cache.grads1, g1)
        np.testing.assert_array_equal(cache.grads2, g2)

    def test_pinned_alpha_overrides_the_net(self):
        g, X, y, hgnn, mwn, ids, tasks = width2_instance(seed=3)
        _, cache = intermediate_update(g, X, y, hgnn, mwn, ids, tasks, lam1=0.01, pin_alpha=1.0)
        assert np.all(cache.alpha == 1.0) and np.all(cache.beta == 0.0)


class TestMetaGradient:
    def test_zero_lr_gives_exactly_zero(self):
        g, X, y, hgnn, mwn, ids, tasks = width2_instance(seed=4)
        meta_ids = np.array([0, 3])
        w_hat, cache = intermediate_update(g, X, y, hgnn, mwn, ids, tasks, lam1=0.0)
        d_theta, _, _ = meta_gradient(g, X, y, w_hat, cache, meta_ids, mwn, lam1=0.0)
        assert np.all(d_theta == 0.0)

    def test_matches_finite_difference_oracle(self):
        report = meta_gradient_check(nodes=8, hidden=4, mwn_hidden=8, seed=0)
        assert report.max_rel_err <= 1e-3

    def test_independent_mode_matches_finite_difference_oracle(self):
        report = meta_gradient_check(nodes=8, hidden=4, mwn_hidden=8, seed=0, mode="independent")
        assert report.analytic_norm > 0
        assert report.max_rel_err <= 1e-3

    @pytest.mark.bitwise
    def test_complementary_mode_is_the_alpha_term_bitwise(self):
        g, X, y, hgnn, mwn, ids, tasks = width2_instance(seed=6)
        rng = np.random.default_rng(7)
        mwn = mwn.with_vec(mwn.flatten() + 0.3 * rng.normal(size=mwn.flatten().size))
        lam1, meta_ids = 0.05, np.array([1, 2])
        w_hat, cache = intermediate_update(g, X, y, hgnn, mwn, ids, tasks, lam1=lam1)
        d_theta, _, gbar = meta_gradient(g, X, y, w_hat, cache, meta_ids, mwn, lam1=lam1)
        grads = weighted_alpha_theta_grad(cache.l1, cache.l2, cache.tasks, mwn, gbar)
        expected = -lam1 * np.concatenate([grads[name].ravel() for name, _ in mwn.param_items()])
        np.testing.assert_array_equal(d_theta, expected)


class TestParameterUpdates:
    def test_internal_update_identities(self):
        mwn = MWNParams.init(2, hidden=4, rng=np.random.default_rng(0))
        theta = mwn.flatten()
        np.testing.assert_array_equal(internal_update(mwn, np.zeros_like(theta), 0.5).flatten(), theta)
        np.testing.assert_array_equal(internal_update(mwn, np.ones_like(theta), 0.0).flatten(), theta)
        stepped = internal_update(mwn, np.ones_like(theta), 0.1)
        np.testing.assert_allclose(stepped.flatten(), theta - 0.1, rtol=1e-15)

    def test_external_update_with_unchanged_theta_commits_w_hat(self):
        g, X, y, hgnn, mwn, ids, tasks = width2_instance(seed=8)
        lam1 = 0.04
        w_hat, cache = intermediate_update(g, X, y, hgnn, mwn, ids, tasks, lam1=lam1)
        committed, alpha2, _ = external_update(cache, hgnn, mwn, lam1)
        np.testing.assert_array_equal(committed.flatten(), w_hat.flatten())
        np.testing.assert_array_equal(alpha2, cache.alpha)

    def test_external_update_zero_lr_keeps_w(self):
        g, X, y, hgnn, mwn, ids, tasks = width2_instance(seed=9)
        _, cache = intermediate_update(g, X, y, hgnn, mwn, ids, tasks, lam1=0.0)
        committed, _, _ = external_update(cache, hgnn, mwn, 0.0)
        np.testing.assert_array_equal(committed.flatten(), hgnn.flatten())


class TestPinnedStep:
    """A pinned step applies one shared weight to the two branch sums."""

    @pytest.mark.bitwise
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01], ids=["no-decay", "decay"])
    @pytest.mark.parametrize("optimizer", ["gd", "adam"])
    @pytest.mark.parametrize("pin", [0.0, 0.3, 1.0])
    def test_probe_and_commit_equal_the_weighted_branch_sums_byte_for_byte(self, pin, optimizer, weight_decay):
        ds = random_toy_dataset(nodes=12, seed=21)
        settings = quick_settings(1, pin_alpha=pin, optimizer=optimizer, weight_decay=weight_decay)
        state, _ = train(ds, settings)

        g, X, y, c = ds.graph, ds.features, ds.labels, ds.num_classes
        train_ids = np.asarray(ds.splits.train)
        dims = [X.shape[1], settings.hidden, c]
        hgnn0 = HGNNParams.init(dims, stream(0, "init-w"), stream(0, "init-a"))
        mwn0 = MWNParams.init(state.partition.k, hidden=settings.mwn_hidden, rng=stream(0, "init-mwn"))
        lam1 = lr(settings.schedule1, 1)
        alpha = np.full(train_ids.size, pin)
        beta = 1.0 - alpha
        grad = alpha[0] * reference_branch_sum(g, X, y, hgnn0, train_ids, "ss", c) + beta[0] * reference_branch_sum(
            g, X, y, hgnn0, train_ids, "fs", c
        )
        if weight_decay:
            grad = grad + weight_decay * hgnn0.flatten()
        expected_probe = hgnn0.flatten() - lam1 * grad
        if optimizer == "gd":
            expected_w = expected_probe
        else:
            m_hat = ((1 - 0.9) * grad) / (1 - 0.9)
            v_hat = ((1 - 0.999) * grad * grad) / (1 - 0.999)
            expected_w = hgnn0.flatten() - lam1 * m_hat / (np.sqrt(v_hat) + 1e-8)

        w_hat, cache = intermediate_update(g, X, y, hgnn0, mwn0, train_ids, state.train_tasks, lam1, pin, weight_decay)
        assert w_hat.flatten().tobytes() == expected_probe.tobytes()
        assert state.hgnn.flatten().tobytes() == expected_w.tobytes()
        assert cache.alpha.tobytes() == alpha.tobytes() and cache.beta.tobytes() == beta.tobytes()
        # Theta never moves on a pinned run
        assert state.mwn.flatten().tobytes() == mwn0.flatten().tobytes()

    def test_meta_gradient_refuses_a_pinned_cache(self):
        g, X, y, hgnn, mwn, ids, tasks = width2_instance(seed=10)
        w_hat, cache = intermediate_update(g, X, y, hgnn, mwn, ids, tasks, lam1=0.01, pin_alpha=0.3)
        with pytest.raises(ContractError, match="per-sample gradients"):
            meta_gradient(g, X, y, w_hat, cache, np.array([0, 3]), mwn, lam1=0.01)


def _gradient_cache(grads1, grads2, w_vec):
    n = grads1.shape[0]
    return trainer.StepCache(
        ids=np.arange(n),
        tasks=np.zeros(n, dtype=np.int64),
        l1=np.zeros(n),
        l2=np.zeros(n),
        alpha=np.zeros(n),
        beta=np.zeros(n),
        w_vec=w_vec,
        grads1=grads1,
        grads2=grads2,
    )


class TestWeightedGradSum:
    @staticmethod
    def _with_signed_zeros(rng, shape):
        out = rng.normal(size=shape)
        flat = out.reshape(-1)
        picks = rng.choice(flat.size, size=min(flat.size, max(2, flat.size // 7)), replace=False)
        flat[picks[::2]] = 0.0
        flat[picks[1::2]] = -0.0
        return out

    @pytest.mark.bitwise
    @pytest.mark.parametrize(
        "n,p",
        [(1, 2), (2, 3), (3, 17), (5, 4099), (40, 1350), (64, 1001), (131, 64), (542, 40), (4, 92_302)],
    )
    def test_row_sum_equals_the_column_sum_of_the_weighted_matrix_byte_for_byte(self, n, p):
        rng = np.random.default_rng(n * 100_003 + p)
        grads1, grads2 = self._with_signed_zeros(rng, (n, p)), self._with_signed_zeros(rng, (n, p))
        alpha, beta = self._with_signed_zeros(rng, n), self._with_signed_zeros(rng, n)
        # every product in the first column is -0.0; numpy's sum starts at +0.0, so it reads +0.0
        grads1[:, 0], grads2[:, 0] = np.copysign(0.0, -alpha), np.copysign(0.0, -beta)
        grads1[:, 1] = grads2[:, 1] = -0.0
        w_vec = rng.normal(size=p)
        cache = _gradient_cache(grads1, grads2, w_vec)
        expected = (alpha[:, None] * grads1 + beta[:, None] * grads2).sum(axis=0)
        assert trainer._weighted_grad_sum(alpha, beta, cache, 0.0).tobytes() == expected.tobytes()
        decayed = expected + 0.01 * w_vec
        assert trainer._weighted_grad_sum(alpha, beta, cache, 0.01).tobytes() == decayed.tobytes()

    def test_one_row_takes_the_first_weights(self):
        rng = np.random.default_rng(3)
        row1, row2 = rng.normal(size=(1, 9)), rng.normal(size=(1, 9))
        alpha = np.full(5, 0.3)
        cache = _gradient_cache(row1, row2, np.zeros(9))
        np.testing.assert_array_equal(
            trainer._weighted_grad_sum(alpha, 1.0 - alpha, cache, 0.0), 0.3 * row1[0] + (1.0 - 0.3) * row2[0]
        )

    def test_peak_memory_stays_a_few_rows_wide(self):
        n, p = 64, 92_302
        rng = np.random.default_rng(0)
        # both branches may share one matrix: the sum's memory does not depend on the values
        grads = rng.normal(size=(n, p))
        alpha = rng.random(n)
        cache = _gradient_cache(grads, grads, np.zeros(p))
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            trainer._weighted_grad_sum(alpha, 1.0 - alpha, cache, 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - entry < 4 * p * 8


def quick_settings(steps, **kwargs):
    defaults = dict(
        steps=steps,
        schedule1=ScheduleSpec(kind="inverse-sqrt", c=0.02),
        schedule2=ScheduleSpec(kind="inverse-sqrt", c=1.0),
        layers=2,
        hidden=8,
        k=2,
        mwn_hidden=8,
        seed=0,
    )
    defaults.update(kwargs)
    return TrainSettings(**defaults)


class TestTrainLoop:
    def test_zero_steps_returns_initial_state(self):
        ds = random_toy_dataset(nodes=9, seed=1)
        state, metrics = train(ds, quick_settings(0))
        assert state.step == 0 and state.history == []
        assert metrics["train_loss_final"] is None
        assert metrics["final_mean_alpha"] == [0.5] * state.partition.k

    def test_zero_rates_leave_parameters_untouched(self):
        ds = random_toy_dataset(nodes=9, seed=2)
        settings = quick_settings(
            3,
            schedule1=ScheduleSpec(kind="constant", c=0.0),
            schedule2=ScheduleSpec(kind="constant", c=0.0),
        )
        state, metrics = train(ds, settings)
        fresh, fresh_metrics = train(ds, quick_settings(0))
        np.testing.assert_array_equal(state.hgnn.flatten(), fresh.hgnn.flatten())
        np.testing.assert_array_equal(state.mwn.flatten(), fresh.mwn.flatten())
        for mode in ("ss", "fs", "blend"):
            assert metrics[f"test_acc_{mode}"] == fresh_metrics[f"test_acc_{mode}"]

    def test_history_length_and_alpha_range(self):
        ds = random_toy_dataset(nodes=12, seed=3)
        state, _ = train(ds, quick_settings(5))
        assert [rec.step for rec in state.history] == [1, 2, 3, 4, 5]
        for rec in state.history:
            for a in rec.mean_alpha:
                if not np.isnan(a):
                    assert 0.0 < a < 1.0

    @pytest.mark.bitwise
    def test_full_iteration_matches_hand_rolled_reference(self):
        ds = random_toy_dataset(nodes=8, seed=4)
        settings = quick_settings(1, hidden=2, layers=1, k=2)
        state, _ = train(ds, settings)

        # independent reconstruction of one iteration
        from hgmeta.trainer import fit_overlap_partition

        train_ids = np.asarray(ds.splits.train)
        meta_ids = np.asarray(ds.splits.meta)
        partition, tasks = fit_overlap_partition(ds.graph, train_ids, 2)
        hgnn0 = HGNNParams.init(
            [ds.features.shape[1], ds.num_classes], stream(0, "init-w"), stream(0, "init-a")
        )
        mwn0 = MWNParams.init(partition.k, hidden=8, rng=stream(0, "init-mwn"))
        lam1 = lr(settings.schedule1, 1)
        lam2 = lr(settings.schedule2, 1)
        g1 = reference_per_sample_grads(ds.graph, ds.features, ds.labels, hgnn0, train_ids, "ss", ds.num_classes)
        g2 = reference_per_sample_grads(ds.graph, ds.features, ds.labels, hgnn0, train_ids, "fs", ds.num_classes)
        w_hat, cache = intermediate_update(
            ds.graph, ds.features, ds.labels, hgnn0, mwn0, train_ids, tasks, lam1
        )
        np.testing.assert_array_equal(cache.grads1, g1)
        np.testing.assert_array_equal(cache.grads2, g2)
        d_theta, _, _ = meta_gradient(
            ds.graph, ds.features, ds.labels, w_hat, cache, meta_ids, mwn0, lam1
        )
        mwn1 = internal_update(mwn0, d_theta, lam2)
        np.testing.assert_array_equal(state.mwn.flatten(), mwn1.flatten())
        alpha2, beta2 = mwn_forward_batch(cache.l1, cache.l2, tasks, mwn1)
        expected_w = hgnn0.flatten() - lam1 * (alpha2[:, None] * g1 + beta2[:, None] * g2).sum(axis=0)
        np.testing.assert_array_equal(state.hgnn.flatten(), expected_w)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_training_error_preserves_partial_history(self):
        ds = random_toy_dataset(nodes=9, seed=5)
        bad = Dataset(
            graph=ds.graph,
            features=ds.features * 1e300,  # loss overflows once multiplied through
            labels=ds.labels,
            splits=ds.splits,
            num_classes=ds.num_classes,
        )
        with pytest.raises(TrainingError) as excinfo:
            train(bad, quick_settings(3))
        assert excinfo.value.step >= 1
        assert excinfo.value.state is not None
        assert str(excinfo.value).startswith(f"step {excinfo.value.step}, {excinfo.value.phase}: ")

    @pytest.mark.parametrize(
        "failing,phase,pin",
        [
            ("intermediate_update", "probe", None),
            ("meta_gradient", "meta", None),
            ("internal_update", "meta", None),
            ("meta_loss_value", "meta", 0.5),
            ("external_update", "commit", None),
            ("evaluate", "evaluate", None),
        ],
    )
    def test_training_error_names_the_phase_that_failed(self, monkeypatch, failing, phase, pin):
        def fail(*args, **kwargs):
            raise NumericsError("planted")

        monkeypatch.setattr(trainer, failing, fail)
        with pytest.raises(TrainingError) as excinfo:
            train(random_toy_dataset(nodes=9, seed=5), quick_settings(2, pin_alpha=pin))
        step = 2 if phase == "evaluate" else 1
        assert (excinfo.value.step, excinfo.value.phase, str(excinfo.value)) == (step, phase, f"step {step}, {phase}: planted")
        assert len(excinfo.value.state.history) == step - 1 + (phase == "evaluate")

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_numeric_failure_in_the_final_evaluate_is_a_training_error(self):
        ds = random_toy_dataset(nodes=9, seed=5)
        # every hyperedge mean of two or more members overflows
        huge = Dataset(
            graph=ds.graph,
            features=np.full(ds.features.shape, 1.7e308),
            labels=ds.labels,
            splits=ds.splits,
            num_classes=ds.num_classes,
        )
        with pytest.raises(TrainingError, match=r"^step 0, evaluate: segment_mean produced non-finite values") as excinfo:
            train(huge, quick_settings(0))
        assert excinfo.value.state.step == 0
        assert (excinfo.value.primitive, excinfo.value.shape) == ("segment_mean", (ds.graph.num_hyperedges, 5))

    @pytest.mark.parametrize("optimizer", ["gd", "adam"])
    @pytest.mark.parametrize("failing_step", [1, 2])
    def test_failed_commit_leaves_the_state_of_the_step_before(self, monkeypatch, optimizer, failing_step):
        ds = random_toy_dataset(nodes=9, seed=5)
        before, _ = train(ds, quick_settings(failing_step - 1, optimizer=optimizer))
        commit, calls = trainer.external_update, []

        def overflowing(cache, hgnn, mwn_new, lam1, *args):
            calls.append(lam1)
            # an infinite rate: the Adam moments are computed, then the new classifier is not finite
            with np.errstate(invalid="ignore"):
                return commit(cache, hgnn, mwn_new, np.inf if len(calls) == failing_step else lam1, *args)

        monkeypatch.setattr(trainer, "external_update", overflowing)
        with pytest.raises(TrainingError) as excinfo:
            train(ds, quick_settings(3, optimizer=optimizer))
        # a check of the trainer's own failed, not a primitive
        assert (excinfo.value.step, excinfo.value.phase) == (failing_step, "commit")
        assert excinfo.value.primitive is None and excinfo.value.shape is None
        state = excinfo.value.state
        assert state.step == failing_step - 1 and len(state.history) == failing_step - 1
        assert state.hgnn.flatten().tobytes() == before.hgnn.flatten().tobytes()
        assert state.mwn.flatten().tobytes() == before.mwn.flatten().tobytes()
        if optimizer == "adam":
            assert state.adam.count == before.adam.count == failing_step - 1
            assert state.adam.m.tobytes() == before.adam.m.tobytes()
            assert state.adam.v.tobytes() == before.adam.v.tobytes()

    def test_determinism_across_runs(self):
        ds = random_toy_dataset(nodes=10, seed=6)
        s1, m1 = train(ds, quick_settings(4))
        s2, m2 = train(ds, quick_settings(4))
        np.testing.assert_array_equal(s1.hgnn.flatten(), s2.hgnn.flatten())
        np.testing.assert_array_equal(s1.mwn.flatten(), s2.mwn.flatten())
        assert [r.to_dict() for r in s1.history] == [r.to_dict() for r in s2.history]
        assert m1 == m2

    def test_minibatch_mode_runs(self):
        ds = random_toy_dataset(nodes=12, seed=7)
        state, _ = train(ds, quick_settings(3, batch_size=2))
        assert state.step == 3

    def test_adam_optimizer_runs(self):
        ds = random_toy_dataset(nodes=10, seed=8)
        state, _ = train(ds, quick_settings(3, optimizer="adam"))
        assert state.adam is not None and state.adam.count == 3

    def test_dropout_and_weight_decay_run(self):
        ds = random_toy_dataset(nodes=10, seed=9)
        state, _ = train(ds, quick_settings(2, dropout=0.3, weight_decay=0.01))
        assert state.step == 2

    def test_meta_from_test_split_warns_and_runs(self, caplog):
        ds = random_toy_dataset(nodes=10, seed=14)
        with caplog.at_level("WARNING"):
            state, _ = train(ds, quick_settings(2, meta_source="test-split"))
        assert "test split" in caplog.text
        assert state.step == 2

    def test_log1p_inputs_flag_runs(self):
        ds = random_toy_dataset(nodes=10, seed=15)
        state, _ = train(ds, quick_settings(2, mwn_log1p=True))
        assert state.mwn.log1p_inputs and state.step == 2

    def test_independent_mode_trains(self):
        ds = random_toy_dataset(nodes=8, seed=16)
        state, _ = train(ds, quick_settings(2, mwn_mode="independent", mwn_hidden=4))
        assert state.step == 2
        assert state.mwn.mode == "independent"


class TestPredict:
    def test_ss_mode_is_argmax_of_branch_logits(self):
        ds = random_toy_dataset(nodes=9, seed=10)
        state, _ = train(ds, quick_settings(2))
        from hgmeta.model import forward

        ids = np.asarray(ds.splits.test)
        labels, scores = predict(state, ds, ids, "ss")
        np.testing.assert_array_equal(labels, forward(ds.graph, ds.features, state.hgnn, "ss", ids).argmax(axis=1))
        np.testing.assert_allclose(scores.sum(axis=1), 1.0, atol=1e-12)

    def test_alpha_one_blend_equals_ss(self):
        ds = random_toy_dataset(nodes=9, seed=11)
        state, _ = train(ds, quick_settings(2))
        for rec in state.history:
            rec.mean_alpha = [1.0] * state.partition.k
        ids = np.asarray(ds.splits.test)
        blend_labels, blend_scores = predict(state, ds, ids, "blend")
        ss_labels, ss_scores = predict(state, ds, ids, "ss")
        np.testing.assert_array_equal(blend_labels, ss_labels)
        np.testing.assert_allclose(blend_scores, ss_scores, rtol=1e-12)

    def test_balanced_blend_with_identical_branches(self):
        # single pair edge makes both branches bitwise identical
        g = Hypergraph(2, [[0, 1]])
        rng = np.random.default_rng(12)
        ds = Dataset(
            graph=g,
            features=rng.normal(size=(2, 3)),
            labels=np.array([0, 1]),
            splits=Splits(train=(0,), meta=(1,), test=(0, 1)),
            num_classes=2,
        )
        state, _ = train(ds, quick_settings(0, k=1))
        ids = np.array([0, 1])
        blend_labels, blend_scores = predict(state, ds, ids, "blend")
        ss_labels, ss_scores = predict(state, ds, ids, "ss")
        np.testing.assert_array_equal(blend_labels, ss_labels)
        np.testing.assert_allclose(blend_scores, ss_scores, rtol=1e-12)

    @pytest.mark.bitwise
    @pytest.mark.parametrize("seed", [14, 15])
    def test_evaluate_equals_predict_in_every_mode(self, seed):
        ds = random_toy_dataset(nodes=12, seed=seed)
        state, metrics = train(ds, quick_settings(3, seed=seed))
        ids = np.asarray(ds.splits.test)
        truth = ds.labels[ids]
        assert evaluate(state, ds) == metrics
        scores = trainer._scores(state, ds, ids, PREDICT_MODES)
        for mode in PREDICT_MODES:
            labels, expected = predict(state, ds, ids, mode)
            assert scores[mode].tobytes() == expected.tobytes()
            assert metrics[f"test_acc_{mode}"] == float((labels == truth).mean())

    def test_unknown_mode_rejected(self):
        ds = random_toy_dataset(nodes=9, seed=13)
        state, _ = train(ds, quick_settings(0))
        with pytest.raises(ContractError):
            predict(state, ds, [0], "both")
