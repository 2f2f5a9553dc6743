from __future__ import annotations

import dataclasses
import tracemalloc
import weakref

import numpy as np
import pytest

from hgmeta import model
from hgmeta import tensor as T
from hgmeta import trainer
from hgmeta.data import Dataset, Splits, SyntheticSpec, generate_synthetic
from hgmeta.errors import ContractError, NumericsError, TrainingError
from hgmeta.hypergraph import Hypergraph, ReceptiveField
from hgmeta.model import HGNNParams, taped_forward
from hgmeta.mwn import MWNParams, mwn_forward_batch, weighted_alpha_theta_grad
from hgmeta.rng import stream
from hgmeta.tensor import Tape
from hgmeta.trainer import (
    PREDICT_MODES,
    ScheduleSpec,
    StepRecord,
    TrainSettings,
    external_update,
    intermediate_update,
    internal_update,
    lr,
    evaluate,
    meta_gradient,
    meta_loss_value,
    predict,
    train,
)
from hgmeta import verify
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


def reference_per_sample_grads(g, X, y, hgnn, ids, branch, masks=None):
    """Independent re-derivation: one backward per sample, each on a fresh one-branch tape."""
    rows = []
    for j in range(ids.size):
        (graph,) = taped_forward(g, X, hgnn, masks, (branch,)).losses(y, ids)
        seed_vec = np.zeros((ids.size, 1))
        seed_vec[j, 0] = 1.0
        grads = graph.tape.backward(graph.loss_vec, seed_vec)
        rows.append(np.concatenate([grads[name].ravel() for name, _ in hgnn.param_items()]))
    return np.vstack(rows)


def reference_branch_sum(g, X, y, hgnn, ids, branch):
    """Independent re-derivation of a branch's gradient sum: one ones-seeded backward on a one-branch tape."""
    (graph,) = taped_forward(g, X, hgnn, branches=(branch,)).losses(y, ids)
    grads = graph.tape.backward(graph.loss_vec, np.ones((ids.size, 1)))
    return np.concatenate([grads[name].ravel() for name, _ in hgnn.param_items()])


class TestPerSampleRowCheck:
    @pytest.mark.parametrize("samples", [1, 3, 15])
    def test_one_samples_gradient_matches_central_differences(self, samples):
        report = verify.per_sample_row_check(hidden=4, seed=31, samples=samples)
        assert set(report) == {"ss", "fs"} and max(report.values()) <= 1e-7


@pytest.fixture(scope="module")
def shaped_datasets():
    """The desk dataset and the Cora-CA-shaped one, each generated once for this module."""
    coraca = SyntheticSpec(nodes=2708, hyperedges=1072, dim=1433, classes=7)
    return {"desk": generate_synthetic(SyntheticSpec(), 0), "coraca": generate_synthetic(coraca, 0)}


class TestReferenceRowsAtScale:
    """The per-sample reference rows on the desk graph and at Cora-CA shape, against what a step computes."""

    # of |G| @ |t| and of the rows' absolute sum: rounding in any summation order is proportional to them
    TOLERANCE = 1e-12

    @staticmethod
    def _taped(ds, ids):
        hgnn = HGNNParams.init([ds.features.shape[1], 64, ds.num_classes], stream(0, "init-w"), stream(0, "init-a"))
        return taped_forward(ds.graph, ds.features, hgnn).losses(ds.labels, np.asarray(ids)), hgnn

    @pytest.mark.parametrize("samples", [1, 6, 16])
    def test_rows_along_a_direction_are_the_tangent_of_the_loss_column(self, samples, shaped_datasets):
        # the meta step takes g_meta . g_j from one tangent sweep; the rows are its reference
        for ds in shaped_datasets.values():
            graphs, hgnn = self._taped(ds, ds.splits.train[:samples])
            rng = np.random.default_rng(samples)
            t = rng.normal(size=hgnn.flatten().size)
            tangents, offset = {}, 0
            for name, arr in hgnn.param_items():
                tangents[name] = t[offset : offset + arr.size].reshape(arr.shape)
                offset += arr.size
            for graph in graphs:
                rows = trainer._grad_rows(graph, hgnn)
                assert rows.shape == (samples, t.size) and np.all(np.any(rows, axis=1))
                (tangent,) = graph.tape.jvp([graph.loss_vec], tangents)
                bound = self.TOLERANCE * (np.abs(rows) @ np.abs(t))
                assert np.all(np.abs(rows @ t - tangent[:, 0]) <= bound), graph.branch

    def test_ones_seed_is_the_sum_of_the_per_sample_rows(self, shaped_datasets):
        # the whole training split on the desk graph, as a pinned step seeds it; 16 samples at Cora-CA shape
        for name, ds in shaped_datasets.items():
            ids = ds.splits.train if name == "desk" else ds.splits.train[:16]
            graphs, hgnn = self._taped(ds, ids)
            for graph in graphs:
                rows = trainer._grad_rows(graph, hgnn)
                total = trainer._flatten_grads(graph.tape.backward(graph.loss_vec, np.ones((len(ids), 1))), hgnn)
                bound = self.TOLERANCE * np.abs(rows).sum(axis=0)
                assert np.all(np.abs(total - rows.sum(axis=0)) <= bound), (name, graph.branch)


# of each entry's scale: a seeded backward pass adds the samples' terms in another order than a sum of their rows
STEP_TOLERANCE = 1e-12


def step_error(w_new, w, lam1, alpha, beta, g1, g2, weight_decay=0.0) -> float:
    """Largest error of ``w_new`` against ``w - lam1 * (sum_j (alpha_j g1_j + beta_j g2_j) + decay * w)``.

    Each entry's error is over its scale: ``|w|`` plus ``lam1`` times the
    sum of the absolute terms, what rounding in any summation order is
    proportional to.
    """
    terms = np.abs(alpha)[:, None] * np.abs(g1) + np.abs(beta)[:, None] * np.abs(g2)
    expected = w - lam1 * ((alpha[:, None] * g1 + beta[:, None] * g2).sum(axis=0) + weight_decay * w)
    scale = np.abs(w) + lam1 * (terms.sum(axis=0) + weight_decay * np.abs(w))
    return float((np.abs(w_new - expected) / scale).max())


class TestIntermediateUpdate:
    @pytest.mark.bitwise
    def test_zero_lr_keeps_parameters_bitwise(self):
        g, X, y, hgnn, mwn, ids, tasks = width2_instance()
        w_hat, cache = intermediate_update(g, X, y, hgnn, mwn, ids, tasks, lam1=0.0)
        np.testing.assert_array_equal(w_hat.flatten(), hgnn.flatten())

    def test_zero_head_step_equals_unweighted_average_step(self):
        g, X, y, hgnn, mwn, ids, tasks = width2_instance()
        lam1 = 0.05
        w_hat, cache = intermediate_update(g, X, y, hgnn, mwn, ids, tasks, lam1=lam1)
        assert np.all(cache.alpha == 0.5) and np.all(cache.beta == 0.5)
        g1 = reference_per_sample_grads(g, X, y, hgnn, ids, "ss")
        g2 = reference_per_sample_grads(g, X, y, hgnn, ids, "fs")
        assert step_error(w_hat.flatten(), hgnn.flatten(), lam1, cache.alpha, cache.beta, g1, g2) <= STEP_TOLERANCE

    def test_hand_rolled_weighted_step(self):
        g, X, y, hgnn, mwn, ids, tasks = width2_instance(seed=2)
        rng = np.random.default_rng(5)
        mwn = mwn.with_vec(mwn.flatten() + rng.normal(size=mwn.flatten().size))
        lam1 = 0.03
        w_hat, cache = intermediate_update(g, X, y, hgnn, mwn, ids, tasks, lam1=lam1)
        g1 = reference_per_sample_grads(g, X, y, hgnn, ids, "ss")
        g2 = reference_per_sample_grads(g, X, y, hgnn, ids, "fs")
        alpha, beta = mwn_forward_batch(cache.l1, cache.l2, tasks, mwn)
        assert step_error(w_hat.flatten(), hgnn.flatten(), lam1, alpha, beta, g1, g2) <= STEP_TOLERANCE
        # no per-sample rows are kept
        assert cache.grads1 is None and cache.grads2 is None

    @pytest.mark.parametrize("pin_alpha", [None, 1.0])
    def test_float_tasks_are_refused_not_truncated(self, pin_alpha):
        g, X, y, hgnn, mwn, ids, _ = width2_instance()
        with pytest.raises(ContractError, match="task ids must be integers, got dtype float64"):
            intermediate_update(g, X, y, hgnn, mwn, ids, np.array([0.2, 0.7, 1.0, 1.9]), 0.01, pin_alpha)

    def test_pinned_alpha_overrides_the_net(self):
        g, X, y, hgnn, mwn, ids, tasks = width2_instance(seed=3)
        _, cache = intermediate_update(g, X, y, hgnn, mwn, ids, tasks, lam1=0.01, pin_alpha=1.0)
        assert np.all(cache.alpha == 1.0) and np.all(cache.beta == 0.0)


class TestAgainstPerSampleRows:
    """Probe, meta signal and commit of a weight-net step against the materialized per-sample rows.

    gbar1_j = g_meta . g1_j and gbar2_j = g_meta . g2_j come from one tangent
    sweep, the reference from the rows of ``_grad_rows`` with unit seeds.
    Each gbar entry may differ from its reference by ``GBAR_TOLERANCE`` of
    ``|G| @ |g_meta|``, what rounding in any order of the dot product is
    proportional to. d_theta is linear in gbar, so it may differ by
    ``THETA_TOLERANCE`` of the reference's largest entry.
    """

    GBAR_TOLERANCE = 1e-10
    THETA_TOLERANCE = 1e-10

    @pytest.mark.parametrize("batch", [None, 7, 1], ids=["full", "batch", "one"])
    @pytest.mark.parametrize("dropout", [False, True], ids=["no-dropout", "dropout"])
    @pytest.mark.parametrize("mode", ["complementary", "independent"])
    def test_step_matches_the_rows(self, mode, dropout, batch, monkeypatch):
        ds = generate_synthetic(SyntheticSpec(nodes=90, hyperedges=60, dim=6), seed=3)
        g, X, y = ds.graph, ds.features, ds.labels
        rng = np.random.default_rng(17)
        ids = np.asarray(ds.splits.train)
        if batch:
            ids = np.sort(rng.choice(ids, size=batch, replace=False))
        tasks = rng.integers(0, 2, size=ids.size)
        hgnn = HGNNParams.init([6, 8, ds.num_classes], stream(1, "init-w"), stream(1, "init-a"))
        mwn = MWNParams.init(2, hidden=8, mode=mode, rng=stream(1, "init-mwn"))
        mwn = mwn.with_vec(mwn.flatten() + 0.3 * rng.normal(size=mwn.flatten().size))
        masks = [(rng.random((g.num_nodes, 8)) < 0.7) / 0.7] if dropout else None
        lam1, lam2, decay = 0.05, 0.5, 0.01
        w = hgnn.flatten()

        rows1, rows2 = (trainer._grad_rows(graph, hgnn) for graph in taped_forward(g, X, hgnn, masks).losses(y, ids))

        w_hat, cache = intermediate_update(g, X, y, hgnn, mwn, ids, tasks, lam1, None, decay, masks)
        assert cache.grads1 is None and cache.grads2 is None
        assert step_error(w_hat.flatten(), w, lam1, cache.alpha, cache.beta, rows1, rows2, decay) <= STEP_TOLERANCE

        seen = []
        theta_grad = trainer.weighted_alpha_theta_grad
        monkeypatch.setattr(trainer, "weighted_alpha_theta_grad", lambda *args: seen.append(args[4:]) or theta_grad(*args))
        meta_ids = np.asarray(ds.splits.meta)
        d_theta, _, gbar = meta_gradient(g, X, y, w_hat, cache, meta_ids, mwn, lam1)
        ss, fs = taped_forward(g, X, w_hat).losses(y, meta_ids)
        g_meta = trainer._flatten_grads(ss.tape.backward(T.add(ss.mean_loss, fs.mean_loss)), w_hat)
        reference = {"gbar": (rows1 - rows2) @ g_meta, "gbar1": rows1 @ g_meta, "gbar2": rows2 @ g_meta}
        bounds = {
            "gbar": self.GBAR_TOLERANCE * ((np.abs(rows1) + np.abs(rows2)) @ np.abs(g_meta)),
            "gbar1": self.GBAR_TOLERANCE * (np.abs(rows1) @ np.abs(g_meta)),
            "gbar2": self.GBAR_TOLERANCE * (np.abs(rows2) @ np.abs(g_meta)),
        }
        got = {"gbar": gbar}
        if mode == "independent":
            got["gbar1"], got["gbar2"] = seen[0]
        for name, value in got.items():
            assert np.all(np.abs(value - reference[name]) <= bounds[name]), name
        signal = (reference["gbar"],) if mode == "complementary" else (reference["gbar1"], reference["gbar2"])
        expected_theta = -lam1 * trainer._flatten_grads(theta_grad(cache.l1, cache.l2, cache.tasks, mwn, *signal), mwn)
        assert np.abs(d_theta - expected_theta).max() <= self.THETA_TOLERANCE * np.abs(expected_theta).max()

        mwn_new = internal_update(mwn, d_theta, lam2)
        committed, alpha_new, _ = external_update(cache, hgnn, mwn_new, lam1, decay)
        beta_new = mwn_forward_batch(cache.l1, cache.l2, cache.tasks, mwn_new)[1]
        assert step_error(committed.flatten(), w, lam1, alpha_new, beta_new, rows1, rows2, decay) <= STEP_TOLERANCE


class TestStepMemory:
    """A step holds no per-sample gradients: its peak does not grow with n_train."""

    @staticmethod
    def _step_peak(ds, ids, hgnn, mwn, pin_alpha=None) -> int:
        g, X, y = ds.graph, ds.features, ds.labels
        tasks = np.zeros(ids.size, dtype=np.int64)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            w_hat, cache = intermediate_update(g, X, y, hgnn, mwn, ids, tasks, 0.01, pin_alpha)
            if pin_alpha is None:
                d_theta, _, _ = meta_gradient(g, X, y, w_hat, cache, np.asarray(ds.splits.meta), mwn, 0.01)
                mwn = internal_update(mwn, d_theta, 0.5)
            external_update(cache, hgnn, mwn, 0.01)
            del w_hat, cache
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - entry

    @staticmethod
    def _peaks(pin_alpha):
        ds = generate_synthetic(SyntheticSpec(nodes=400, hyperedges=200, dim=300, classes=4), seed=5)
        hgnn = HGNNParams.init([300, 24, ds.num_classes], stream(0, "init-w"), stream(0, "init-a"))
        mwn = MWNParams.init(1, hidden=8, rng=stream(0, "init-mwn"))
        p = hgnn.flatten().size
        assert p > 7000
        train_ids = np.arange(ds.graph.num_nodes)[::3]
        # the first step fills the graph's caches (run indexes, coefficients)
        TestStepMemory._step_peak(ds, train_ids[:8], hgnn, mwn, pin_alpha)
        small, large = (TestStepMemory._step_peak(ds, train_ids[:n], hgnn, mwn, pin_alpha) for n in (8, 128))
        return small, large, p

    def test_peak_grows_by_less_than_a_tenth_of_the_rows(self):
        small, large, p = self._peaks(None)
        # the rows of 128 samples, one branch: 128 * P * 8 bytes
        assert large - small < 0.1 * 128 * p * 8, (small, large)

    def test_pinned_peak_grows_by_less_than_a_tenth_of_the_rows(self, monkeypatch):
        # 8 samples tape only their receptive field, 128 the whole graph
        field_small, _, _ = self._peaks(0.3)
        # so both sizes take the whole-graph path, for a growth of like against like
        monkeypatch.setattr(trainer, "_FIELD_SHARE", 0.0)
        small, large, p = self._peaks(0.3)
        assert large - small < 0.1 * 128 * p * 8, (small, large)
        assert field_small <= small, (field_small, small)


class TestProbeField:
    """A probe tapes the receptive field of a small batch, and its step matches a whole-graph probe's."""

    # of each array's largest entry: each product of the field's sweeps sums fewer rows
    TOLERANCE = 1e-12

    @staticmethod
    def _share(g, ids) -> float:
        field = g.receptive_field(ids, 1)
        return (field.num_nodes + field.num_hyperedges) / (g.num_nodes + g.num_hyperedges)

    def test_a_small_batch_tapes_its_field_and_a_full_one_the_graph(self, shaped_datasets, monkeypatch):
        desk, coraca = shaped_datasets["desk"], shaped_datasets["coraca"]
        cases = [
            (coraca, coraca.splits.train[:64], 0.28, True),
            (desk, desk.splits.train, 0.93, False),
            (coraca, coraca.splits.train, 0.79, False),
        ]
        fields = []
        taped = trainer.taped_forward
        monkeypatch.setattr(trainer, "taped_forward", lambda *args, field: fields.append(field) or taped(*args, field=field))
        for ds, ids, share, small in cases:
            ids = np.asarray(ids)
            assert self._share(ds.graph, ids) == pytest.approx(share, abs=0.01)
            hgnn = HGNNParams.init([ds.features.shape[1], 16, ds.num_classes], stream(0, "init-w"), stream(0, "init-a"))
            mwn = MWNParams.init(1, hidden=8, rng=stream(0, "init-mwn"))
            tasks = np.zeros(ids.size, dtype=np.int64)
            intermediate_update(ds.graph, ds.features, ds.labels, hgnn, mwn, ids, tasks, 0.01)
            assert (fields.pop() is not None) == small
            assert (trainer._probe_field(ds.graph, ids, 2) is not None) == small

    def test_a_field_is_sized_before_its_arrays_are_built(self, shaped_datasets, monkeypatch):
        ds = shaped_datasets["coraca"]
        built = []
        arrays = ReceptiveField.__dict__["_arrays"]
        monkeypatch.setattr(arrays, "func", lambda field, build=arrays.func: built.append(field) or build(field))
        hgnn = HGNNParams.init([ds.features.shape[1], 16, ds.num_classes], stream(0, "init-w"), stream(0, "init-a"))
        mwn = MWNParams.init(1, hidden=8, rng=stream(0, "init-mwn"))
        # a full batch's field is sized and dropped; a small one's arrays are built once, for its tape
        for ids, builds in [(ds.splits.train, 0), (ds.splits.train[:64], 1)]:
            ids = np.asarray(ids)
            intermediate_update(ds.graph, ds.features, ds.labels, hgnn, mwn, ids, np.zeros(ids.size, dtype=np.int64), 0.01)
            assert len(built) == builds
            built.clear()

    @pytest.mark.parametrize("samples", [8, 64])
    def test_step_gradient_and_meta_signal_match_a_whole_graph_probe(self, samples, shaped_datasets, monkeypatch):
        ds = shaped_datasets["coraca"]
        g, X, y = ds.graph, ds.features, ds.labels
        ids, meta_ids = np.asarray(ds.splits.train[:samples]), np.asarray(ds.splits.meta)
        tasks = np.arange(samples) % 2
        hgnn = HGNNParams.init([X.shape[1], 64, ds.num_classes], stream(0, "init-w"), stream(0, "init-a"))
        mwn = MWNParams.init(2, hidden=8, rng=stream(0, "init-mwn"))
        mwn = mwn.with_vec(mwn.flatten() + 0.3 * np.random.default_rng(samples).normal(size=mwn.flatten().size))
        assert trainer._probe_field(g, ids, 2) is not None

        def step():
            w_hat, cache = intermediate_update(g, X, y, hgnn, mwn, ids, tasks, 0.05)
            d_theta, _, gbar = meta_gradient(g, X, y, w_hat, cache, meta_ids, mwn, 0.05)
            probe = trainer._step_gradient(cache.alpha, cache.beta, cache, hgnn, 0.0)
            commit = external_update(cache, hgnn, internal_update(mwn, d_theta, 0.5), 0.05)[2]
            return {"l1": cache.l1, "l2": cache.l2, "probe": probe, "gbar": gbar, "d_theta": d_theta, "commit": commit}

        field = step()
        monkeypatch.setattr(trainer, "_FIELD_SHARE", 0.0)
        whole = step()
        for name, expected in whole.items():
            assert np.abs(field[name] - expected).max() <= self.TOLERANCE * np.abs(expected).max(), name


class TestMetaGradient:
    @pytest.mark.bitwise
    def test_one_taped_meta_loss_serves_the_gradient_and_the_value(self, monkeypatch):
        g, X, y, hgnn, mwn, ids, tasks = width2_instance(seed=5)
        meta_ids = np.array([0, 3])
        w_hat, cache = intermediate_update(g, X, y, hgnn, mwn, ids, tasks, lam1=0.05)
        taped = []
        original = trainer._meta_loss
        monkeypatch.setattr(trainer, "_meta_loss", lambda *args: taped.append(args[-1]) or original(*args))
        _, meta_loss, _ = meta_gradient(g, X, y, w_hat, cache, meta_ids, mwn, lam1=0.05)
        value, _ = meta_loss_value(g, X, y, meta_ids, w_hat)
        assert taped == [w_hat, w_hat]
        assert np.float64(meta_loss).tobytes() == np.float64(value).tobytes()

    def test_zero_lr_gives_exactly_zero(self):
        g, X, y, hgnn, mwn, ids, tasks = width2_instance(seed=4)
        meta_ids = np.array([0, 3])
        w_hat, cache = intermediate_update(g, X, y, hgnn, mwn, ids, tasks, lam1=0.0)
        d_theta, _, _ = meta_gradient(g, X, y, w_hat, cache, meta_ids, mwn, lam1=0.0)
        assert np.all(d_theta == 0.0)

    def test_matches_finite_difference_oracle(self):
        report = meta_gradient_check(nodes=8, hidden=4, mwn_hidden=8, seed=0)
        assert report.max_rel_err <= 1e-3

    def test_a_zero_derivative_differencing_to_noise_is_no_breach_at_seed_6(self):
        # an error per coordinate read 5.8e-3 here: one ulp of the meta loss over 2 eps, on a derivative about 0
        assert meta_gradient_check(nodes=8, hidden=4, mwn_hidden=8, seed=6).max_rel_err <= verify.META_TOLERANCE

    def test_an_exactly_zero_block_is_differenced_again_and_reported(self):
        # task 1's one training node has degree 0, so both branches give it one loss and head 1 moves nothing;
        # at eps its difference is roundoff of 4.4e-11 and read 4.4e-3, at 100 eps it reads 4.4e-13
        report = meta_gradient_check(nodes=8, hidden=4, mwn_hidden=8, seed=6)
        assert report.redifferenced == ("head1_w", "head1_b")
        assert report.max_rel_err <= verify.META_TOLERANCE

    def test_a_block_zeroed_by_hand_still_breaches_when_differenced_again(self, monkeypatch):
        # negative control: head0_w's true derivative is not zero, and the larger step still finds it
        gradient = verify.meta_gradient
        settled = meta_gradient_check(nodes=8, hidden=4, mwn_hidden=8, seed=6)
        assert "head0_w" not in settled.redifferenced

        def zeroed(*args, **kwargs):
            d_theta, *rest = gradient(*args, **kwargs)
            d_theta = d_theta.copy()
            d_theta[24:32] = 0.0  # head0_w, after shared_w (2, 8) and shared_b (1, 8)
            return (d_theta, *rest)

        monkeypatch.setattr(verify, "meta_gradient", zeroed)
        report = meta_gradient_check(nodes=8, hidden=4, mwn_hidden=8, seed=6)
        assert "head0_w" in report.redifferenced
        assert report.max_rel_err > 0.5

    @pytest.mark.slow
    def test_no_seed_of_40_breaches_either_gradient_check_but_the_kink_at_18(self):
        # seed 18's layer-0 attention score lies 3.6e-5 from the leaky-relu kink, inside +-eps
        hgnn = [seed for seed in range(40) if max(verify.hgnn_gradient_check(seed=seed).values()) > verify.HGNN_TOLERANCE]
        meta = [
            (seed, mode)
            for seed in range(40)
            for mode in ("complementary", "independent")
            if meta_gradient_check(nodes=8, hidden=4, mwn_hidden=8, seed=seed, mode=mode).max_rel_err > verify.META_TOLERANCE
        ]
        assert (hgnn, meta) == ([18], [])

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
    """A pinned step applies one shared weight to the two branch losses, and the commit applies the probe's gradient."""

    @staticmethod
    def _run(pin, optimizer, weight_decay):
        """A one-step pinned run, and its probe taken by hand from the initial parameters."""
        ds = random_toy_dataset(nodes=12, seed=21)
        settings = quick_settings(1, pin_alpha=pin, optimizer=optimizer, weight_decay=weight_decay)
        state, _ = train(ds, settings)
        train_ids = np.asarray(ds.splits.train)
        dims = [ds.features.shape[1], settings.hidden, ds.num_classes]
        hgnn0 = HGNNParams.init(dims, stream(0, "init-w"), stream(0, "init-a"))
        mwn0 = MWNParams.init(state.partition.k, hidden=settings.mwn_hidden, rng=stream(0, "init-mwn"))
        lam1 = lr(settings.schedule1, 1)
        w_hat, cache = intermediate_update(
            ds.graph, ds.features, ds.labels, hgnn0, mwn0, train_ids, state.train_tasks, lam1, pin, weight_decay
        )
        alpha = np.full(train_ids.size, pin)
        assert cache.alpha.tobytes() == alpha.tobytes() and cache.beta.tobytes() == (1.0 - alpha).tobytes()
        # Theta never moves on a pinned run
        assert state.mwn.flatten().tobytes() == mwn0.flatten().tobytes()
        return ds, train_ids, hgnn0, lam1, w_hat, cache, state

    @staticmethod
    def _committed(w, lam1, grad, optimizer):
        if optimizer == "gd":
            return w - lam1 * grad
        m_hat = ((1 - 0.9) * grad) / (1 - 0.9)
        v_hat = ((1 - 0.999) * grad * grad) / (1 - 0.999)
        return w - lam1 * m_hat / (np.sqrt(v_hat) + 1e-8)

    @pytest.mark.bitwise
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01], ids=["no-decay", "decay"])
    @pytest.mark.parametrize("optimizer", ["gd", "adam"])
    @pytest.mark.parametrize("pin", [0.0, 1.0])
    def test_probe_and_commit_equal_the_weighted_branch_sums_byte_for_byte(self, pin, optimizer, weight_decay):
        ds, train_ids, hgnn0, lam1, w_hat, _, state = self._run(pin, optimizer, weight_decay)
        g, X, y = ds.graph, ds.features, ds.labels
        grad = pin * reference_branch_sum(g, X, y, hgnn0, train_ids, "ss") + (1.0 - pin) * reference_branch_sum(
            g, X, y, hgnn0, train_ids, "fs"
        )
        if weight_decay:
            grad = grad + weight_decay * hgnn0.flatten()
        assert w_hat.flatten().tobytes() == (hgnn0.flatten() - lam1 * grad).tobytes()
        assert state.hgnn.flatten().tobytes() == self._committed(hgnn0.flatten(), lam1, grad, optimizer).tobytes()

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01], ids=["no-decay", "decay"])
    @pytest.mark.parametrize("optimizer", ["gd", "adam"])
    def test_a_blended_pin_equals_the_weighted_rows_to_rounding(self, optimizer, weight_decay):
        # one sweep seeded (0.3, 0.7) adds the weighted terms, where 0.3 * sum_j g1_j scales a sum
        ds, train_ids, hgnn0, lam1, w_hat, cache, state = self._run(0.3, optimizer, weight_decay)
        g, X, y = ds.graph, ds.features, ds.labels
        g1, g2 = (reference_per_sample_grads(g, X, y, hgnn0, train_ids, branch) for branch in ("ss", "fs"))
        w = hgnn0.flatten()
        assert step_error(w_hat.flatten(), w, lam1, cache.alpha, cache.beta, g1, g2, weight_decay) <= STEP_TOLERANCE
        assert cache.graphs is None
        assert state.hgnn.flatten().tobytes() == self._committed(w, lam1, cache.grad, optimizer).tobytes()

    def test_meta_gradient_refuses_a_pinned_cache(self):
        g, X, y, hgnn, mwn, ids, tasks = width2_instance(seed=10)
        w_hat, cache = intermediate_update(g, X, y, hgnn, mwn, ids, tasks, lam1=0.01, pin_alpha=0.3)
        with pytest.raises(ContractError, match="probe tape of a weight-net step"):
            meta_gradient(g, X, y, w_hat, cache, np.array([0, 3]), mwn, lam1=0.01)


class TestStepSweeps:
    """Each step gradient is one backward sweep of the probe tape, seeded at both loss columns."""

    @pytest.mark.parametrize("pin", [None, 0.3], ids=["weight-net", "pinned"])
    def test_probe_and_commit_sweep_once_per_gradient(self, pin, monkeypatch):
        g, X, y, hgnn, mwn, ids, tasks = width2_instance(seed=11)
        sweep, roots = Tape.backward, []

        def counting(tape, output, seed=None):
            roots.append(output if isinstance(output, list) else [(output, seed)])
            return sweep(tape, output, seed)

        monkeypatch.setattr(Tape, "backward", counting)
        _, cache = intermediate_update(g, X, y, hgnn, mwn, ids, tasks, lam1=0.01, pin_alpha=pin)
        assert len(roots) == 1
        [(first, alpha), (second, beta)] = roots[0]
        assert first.shape == second.shape == (ids.size, 1) and first is not second
        assert alpha.tobytes() == cache.alpha[:, None].tobytes() and beta.tobytes() == cache.beta[:, None].tobytes()
        # the new weights reseed the probe tape; a pinned commit reuses the probe's gradient
        _, alpha, grad = external_update(cache, hgnn, mwn, 0.01)
        assert len(roots) == (1 if pin is not None else 2)
        if pin is not None:
            assert grad is cache.grad and alpha is cache.alpha


# (settings, whether the next probe can reuse the forward a step tapes at w_hat)
REUSE_CASES = {
    "pin-1": (dict(pin_alpha=1.0), True),
    "pin-0.3": (dict(pin_alpha=0.3), True),
    "pin-0-decay": (dict(pin_alpha=0.0, weight_decay=0.01), True),
    "pin-1-batch": (dict(pin_alpha=1.0, batch_size=2), True),
    "pin-1-adam": (dict(pin_alpha=1.0, optimizer="adam"), False),
    "pin-1-dropout": (dict(pin_alpha=1.0, dropout=0.3), False),
    "weight-net": (dict(), False),
}


def fresh_forward_replay(ds, settings):
    """``train``'s steps again, phase by phase, each probe on a fresh forward: (hgnn, mwn, history)."""
    start, _ = train(ds, dataclasses.replace(settings, steps=0))
    g, X, y = ds.graph, ds.features, ds.labels
    train_ids, meta_ids = np.asarray(ds.splits.train), np.asarray(ds.splits.meta)
    hgnn, mwn, pin, decay = start.hgnn, start.mwn, settings.pin_alpha, settings.weight_decay
    batch_rng = stream(settings.seed, "batch")
    history = []
    for t in range(1, settings.steps + 1):
        lam1, lam2 = lr(settings.schedule1, t), lr(settings.schedule2, t)
        ids, tasks = train_ids, start.train_tasks
        if settings.batch_size is not None and settings.batch_size < train_ids.size:
            pick = np.sort(batch_rng.choice(train_ids.size, size=settings.batch_size, replace=False))
            ids, tasks = train_ids[pick], start.train_tasks[pick]
        masks = trainer._dropout_masks(settings, g.num_nodes, batch_rng)
        w_hat, cache = intermediate_update(g, X, y, hgnn, mwn, ids, tasks, lam1, pin, decay, masks)
        if pin is None:
            d_theta, meta_loss, _ = meta_gradient(g, X, y, w_hat, cache, meta_ids, mwn, lam1)
            mwn = internal_update(mwn, d_theta, lam2)
        else:
            d_theta = np.zeros(0)
            meta_loss, _ = meta_loss_value(g, X, y, meta_ids, w_hat)
        hgnn, _, grad = external_update(cache, hgnn, mwn, lam1, decay, start.adam)
        history.append(
            StepRecord(
                step=t,
                lr1=float(lam1),
                lr2=float(lam2),
                train_loss=float((cache.alpha * cache.l1 + cache.beta * cache.l2).mean()),
                meta_loss=meta_loss,
                mean_alpha=trainer._mean_alpha_per_task(cache.alpha, cache.tasks, start.partition.k),
                grad_w_norm=float(np.linalg.norm(grad)),
                grad_theta_norm=float(np.linalg.norm(d_theta)),
            )
        )
    return hgnn, mwn, history


class TestReusedForward:
    """A pinned step under plain gradient descent commits w_hat, and the next probe reuses its meta-loss forward."""

    STEPS = 4

    @pytest.mark.bitwise
    @pytest.mark.parametrize("case", list(REUSE_CASES))
    def test_train_equals_a_replay_on_fresh_forwards(self, case):
        ds = random_toy_dataset(nodes=12, seed=23)
        settings = quick_settings(self.STEPS, **REUSE_CASES[case][0])
        state, _ = train(ds, settings)
        hgnn, mwn, history = fresh_forward_replay(ds, settings)
        assert state.hgnn.flatten().tobytes() == hgnn.flatten().tobytes()
        assert state.mwn.flatten().tobytes() == mwn.flatten().tobytes()
        assert [r.to_dict() for r in state.history] == [r.to_dict() for r in history]

    @pytest.mark.parametrize("case", list(REUSE_CASES))
    def test_a_reusing_run_tapes_one_forward_per_step_and_keeps_no_tape_past_it(self, case, monkeypatch):
        kwargs, reuses = REUSE_CASES[case]
        forwards, tapes, reused = [], [], []
        forward_t, tape_init, probe, evaluate_ = model._forward_t, Tape.__init__, trainer.intermediate_update, trainer.evaluate

        def counting_forward_t(*args, **kwargs):
            forwards.append(None)
            return forward_t(*args, **kwargs)

        def noting_tape_init(tape):
            tape_init(tape)
            tapes.append(weakref.ref(tape))

        def live_tapes():
            return [tape for tape in (ref() for ref in tapes) if tape is not None]

        def checked_probe(*args, forward=None, **kwargs):
            # between steps only the kept forward's tape lives, and only when it can be reused
            live = live_tapes()
            if forward is None:
                assert live == [] and (not reuses or not reused)
            else:
                assert reuses and live == [forward.tape]
            reused.append(forward is not None)
            return probe(*args, forward=forward, **kwargs)

        def checked_evaluate(*args):
            assert live_tapes() == []
            taped.append(len(forwards))
            return evaluate_(*args)

        taped = []
        monkeypatch.setattr(model, "_forward_t", counting_forward_t)
        monkeypatch.setattr(Tape, "__init__", noting_tape_init)
        monkeypatch.setattr(trainer, "intermediate_update", checked_probe)
        monkeypatch.setattr(trainer, "evaluate", checked_evaluate)
        train(random_toy_dataset(nodes=12, seed=23), quick_settings(self.STEPS, **kwargs))
        assert taped == [self.STEPS + 1 if reuses else 2 * self.STEPS]
        assert reused == [False] + [reuses] * (self.STEPS - 1)

    def test_a_forward_at_other_parameters_is_not_reused(self):
        g, X, y, hgnn, mwn, ids, tasks = width2_instance(seed=12)
        _, stale = meta_loss_value(g, X, y, ids, hgnn.with_vec(hgnn.flatten() + 1e-3))
        fresh = intermediate_update(g, X, y, hgnn, mwn, ids, tasks, 0.01)[1]
        _, cache = intermediate_update(g, X, y, hgnn, mwn, ids, tasks, 0.01, forward=stale)
        assert cache.graphs[0].tape is not stale.tape
        assert cache.l1.tobytes() == fresh.l1.tobytes() and cache.l2.tobytes() == fresh.l2.tobytes()


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
        g1 = reference_per_sample_grads(ds.graph, ds.features, ds.labels, hgnn0, train_ids, "ss")
        g2 = reference_per_sample_grads(ds.graph, ds.features, ds.labels, hgnn0, train_ids, "fs")
        w_hat, cache = intermediate_update(
            ds.graph, ds.features, ds.labels, hgnn0, mwn0, train_ids, tasks, lam1
        )
        d_theta, _, _ = meta_gradient(
            ds.graph, ds.features, ds.labels, w_hat, cache, meta_ids, mwn0, lam1
        )
        mwn1 = internal_update(mwn0, d_theta, lam2)
        np.testing.assert_array_equal(state.mwn.flatten(), mwn1.flatten())
        alpha2, beta2 = mwn_forward_batch(cache.l1, cache.l2, tasks, mwn1)
        assert step_error(state.hgnn.flatten(), hgnn0.flatten(), lam1, alpha2, beta2, g1, g2) <= STEP_TOLERANCE

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
        # a product of the 5 -> 8 layer 0 overflows: it widens, so its node projection X @ W0 comes first
        huge = Dataset(
            graph=ds.graph,
            features=np.full(ds.features.shape, 1.7e308),
            labels=ds.labels,
            splits=ds.splits,
            num_classes=ds.num_classes,
        )
        with pytest.raises(TrainingError, match=r"^step 0, evaluate: matmul produced non-finite values") as excinfo:
            train(huge, quick_settings(0))
        assert excinfo.value.state.step == 0
        assert (excinfo.value.primitive, excinfo.value.shape) == ("matmul", (ds.graph.num_nodes, 8))

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
        np.testing.assert_array_equal(labels, forward(ds.graph, ds.features, state.hgnn, ids, ("ss",))[0].argmax(axis=1))
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

    @pytest.mark.bitwise
    @pytest.mark.parametrize("mode", PREDICT_MODES)
    def test_zero_ids_give_no_labels_and_no_score_rows(self, mode):
        ds = random_toy_dataset(nodes=9, seed=13)
        state, _ = train(ds, quick_settings(1))
        labels, scores = predict(state, ds, [], mode)
        assert labels.shape == (0,) and scores.shape == (0, ds.num_classes)

    @pytest.mark.parametrize("mode", PREDICT_MODES)
    def test_ids_pass_the_graphs_one_id_check(self, mode):
        ds = random_toy_dataset(nodes=9, seed=13)
        state, _ = train(ds, quick_settings(1))
        # neither truncated to node 1 nor wrapped to the last node
        with pytest.raises(TypeError):
            predict(state, ds, [1.7], mode)
        for bad in (-1, ds.graph.num_nodes):
            with pytest.raises(IndexError, match=f"node id {bad} outside"):
                predict(state, ds, [0, bad], mode)
        with pytest.raises(ContractError, match="1-D"):
            predict(state, ds, [[0]], mode)

    def test_unknown_mode_rejected(self):
        ds = random_toy_dataset(nodes=9, seed=13)
        state, _ = train(ds, quick_settings(0))
        with pytest.raises(ContractError):
            predict(state, ds, [0], "both")
