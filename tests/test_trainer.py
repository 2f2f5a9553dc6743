from __future__ import annotations

import numpy as np
import pytest

from hgmeta import trainer
from hgmeta.data import Dataset, Splits
from hgmeta.errors import ContractError, TrainingError
from hgmeta.hypergraph import Hypergraph
from hgmeta.model import HGNNParams, build_branch_graph, one_hot, register_params
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
from hgmeta.verify import meta_gradient_check, random_toy_dataset


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


class TestIntermediateUpdate:
    @pytest.mark.bitwise
    def test_zero_lr_keeps_parameters_bitwise(self):
        g, X, y, hgnn, mwn, ids, tasks = width2_instance()
        w_hat, cache = intermediate_update(g, X, y, 2, hgnn, mwn, ids, tasks, lam1=0.0)
        np.testing.assert_array_equal(w_hat.flatten(), hgnn.flatten())

    @pytest.mark.bitwise
    def test_zero_head_step_bitwise_equals_unweighted_average_step(self):
        g, X, y, hgnn, mwn, ids, tasks = width2_instance()
        lam1 = 0.05
        w_hat, cache = intermediate_update(g, X, y, 2, hgnn, mwn, ids, tasks, lam1=lam1)
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
        w_hat, cache = intermediate_update(g, X, y, 2, hgnn, mwn, ids, tasks, lam1=lam1)
        g1 = reference_per_sample_grads(g, X, y, hgnn, ids, "ss")
        g2 = reference_per_sample_grads(g, X, y, hgnn, ids, "fs")
        alpha, beta = mwn_forward_batch(cache.l1, cache.l2, tasks, mwn)
        expected = hgnn.flatten() - lam1 * (alpha[:, None] * g1 + beta[:, None] * g2).sum(axis=0)
        np.testing.assert_array_equal(w_hat.flatten(), expected)
        np.testing.assert_array_equal(cache.grads1, g1)
        np.testing.assert_array_equal(cache.grads2, g2)

    def test_pinned_alpha_overrides_the_net(self):
        g, X, y, hgnn, mwn, ids, tasks = width2_instance(seed=3)
        _, cache = intermediate_update(g, X, y, 2, hgnn, mwn, ids, tasks, lam1=0.01, pin_alpha=1.0)
        assert np.all(cache.alpha == 1.0) and np.all(cache.beta == 0.0)


class TestMetaGradient:
    def test_zero_lr_gives_exactly_zero(self):
        g, X, y, hgnn, mwn, ids, tasks = width2_instance(seed=4)
        meta_ids = np.array([0, 3])
        w_hat, cache = intermediate_update(g, X, y, 2, hgnn, mwn, ids, tasks, lam1=0.0)
        d_theta, _, _ = meta_gradient(g, X, y, 2, w_hat, cache, meta_ids, mwn, lam1=0.0)
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
        w_hat, cache = intermediate_update(g, X, y, 2, hgnn, mwn, ids, tasks, lam1=lam1)
        d_theta, _, gbar = meta_gradient(g, X, y, 2, w_hat, cache, meta_ids, mwn, lam1=lam1)
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
        w_hat, cache = intermediate_update(g, X, y, 2, hgnn, mwn, ids, tasks, lam1=lam1)
        committed, alpha2, _ = external_update(cache, hgnn, mwn, lam1)
        np.testing.assert_array_equal(committed.flatten(), w_hat.flatten())
        np.testing.assert_array_equal(alpha2, cache.alpha)

    def test_external_update_zero_lr_keeps_w(self):
        g, X, y, hgnn, mwn, ids, tasks = width2_instance(seed=9)
        _, cache = intermediate_update(g, X, y, 2, hgnn, mwn, ids, tasks, lam1=0.0)
        committed, _, _ = external_update(cache, hgnn, mwn, 0.0)
        np.testing.assert_array_equal(committed.flatten(), hgnn.flatten())


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
            ds.graph, ds.features, ds.labels, ds.num_classes, hgnn0, mwn0, train_ids, tasks, lam1
        )
        np.testing.assert_array_equal(cache.grads1, g1)
        np.testing.assert_array_equal(cache.grads2, g2)
        d_theta, _, _ = meta_gradient(
            ds.graph, ds.features, ds.labels, ds.num_classes, w_hat, cache, meta_ids, mwn0, lam1
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
