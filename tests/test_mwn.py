from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from hgmeta.errors import ContractError
from hgmeta.mwn import MWNParams, mwn_forward_batch, weighted_alpha_theta_grad
from hgmeta.tensor import finite_diff_check, Tape
from hgmeta import mwn as mwn_mod
from hgmeta import tensor as T


def fresh_params(k=3, hidden=8, mode="complementary", seed=0, randomize_heads=False, log1p=False):
    params = MWNParams.init(k, hidden=hidden, mode=mode, log1p_inputs=log1p, rng=np.random.default_rng(seed))
    if randomize_heads:
        rng = np.random.default_rng(seed + 1)
        vec = params.flatten()
        params = params.with_vec(vec + 0.5 * rng.normal(size=vec.size))
    return params


def sample_grad(l1: float, l2: float, task: int, params: MWNParams) -> SimpleNamespace:
    """Tape gradients of one sample's alpha and beta w.r.t. Theta and (l1, l2).

    The per-sample oracle: ``d_alpha``/``d_beta`` map parameter names to
    gradients, ``d_alpha_inputs``/``d_beta_inputs`` are the (2,) gradients
    w.r.t. the two losses.
    """
    tape = Tape()
    losses = tape.param("inputs", np.array([[float(l1), float(l2)]]))
    alpha, beta = mwn_mod.alpha_beta_graph(tape, losses, [task], params)
    d_alpha, d_beta = tape.backward(alpha), tape.backward(beta)
    return SimpleNamespace(
        d_alpha={k: v for k, v in d_alpha.items() if k != "inputs"},
        d_beta={k: v for k, v in d_beta.items() if k != "inputs"},
        d_alpha_inputs=d_alpha["inputs"][0],
        d_beta_inputs=d_beta["inputs"][0],
    )


class TestForward:
    def test_zero_head_starts_balanced(self):
        params = fresh_params()
        alpha, beta = mwn_forward_batch([0.0, 1.3, 5.0], [0.0, 0.2, 5.0], [0, 1, 2], params)
        assert np.all(alpha == 0.5) and np.all(beta == 0.5)

    def test_complementary_sums_to_one_exactly(self):
        params = fresh_params(randomize_heads=True)
        rng = np.random.default_rng(3)
        l1, l2 = rng.uniform(0, 8, 200), rng.uniform(0, 8, 200)
        tasks = rng.integers(0, 3, 200)
        alpha, beta = mwn_forward_batch(l1, l2, tasks, params)
        assert np.all(alpha + beta == 1.0)

    def test_outputs_strictly_inside_unit_interval(self):
        params = fresh_params(randomize_heads=True)
        rng = np.random.default_rng(4)
        alpha, beta = mwn_forward_batch(rng.uniform(0, 10, 500), rng.uniform(0, 10, 500), rng.integers(0, 3, 500), params)
        assert np.all((alpha > 0) & (alpha < 1))
        assert np.all((beta > 0) & (beta < 1))

    def test_task_heads_differ_for_identical_losses(self):
        params = fresh_params(randomize_heads=True)
        alpha, _ = mwn_forward_batch([1.0] * 3, [2.0] * 3, [0, 1, 2], params)
        assert len(set(alpha.tolist())) > 1

    def test_same_task_same_losses_is_deterministic(self):
        params = fresh_params(randomize_heads=True)
        first = mwn_forward_batch([0.7], [0.9], [1], params)
        second = mwn_forward_batch([0.7], [0.9], [1], params)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(first, second))

    def test_task_out_of_range_rejected(self):
        with pytest.raises(ContractError):
            mwn_forward_batch([1.0], [1.0], [3], fresh_params(k=3))

    @pytest.mark.parametrize("entry", ["forward", "theta_grad"])
    def test_tasks_pass_the_tensor_layers_id_check(self, entry):
        params = fresh_params(k=2)
        call = {
            "forward": lambda tasks: mwn_forward_batch([1.0, 2.0], [2.0, 1.0], tasks, params),
            "theta_grad": lambda tasks: weighted_alpha_theta_grad([1.0, 2.0], [2.0, 1.0], tasks, params, [1.0, 1.0]),
        }[entry]
        # neither truncated to tasks [0, 1] nor broadcast over both samples
        with pytest.raises(ContractError, match="task ids must be integers, got dtype float64"):
            call([0.7, 1.9])
        with pytest.raises(ContractError, match="task ids must be 1-D and match the number of rows"):
            call([1])
        with pytest.raises(ContractError, match="task ids out of range"):
            call([0, 2])

    def test_negative_loss_rejected(self):
        with pytest.raises(ContractError):
            mwn_forward_batch([-0.1], [1.0], [0], fresh_params())

    def test_independent_mode_outputs_are_uncoupled(self):
        params = fresh_params(mode="independent", randomize_heads=True)
        (alpha,), (beta,) = mwn_forward_batch([1.0], [0.3], [0], params)
        assert 0 < alpha < 1 and 0 < beta < 1
        assert alpha + beta != 1.0  # no complementarity constraint


class TestGradients:
    def test_zero_head_gradient_is_quarter_hidden(self):
        params = fresh_params(k=2, hidden=8)
        grad = sample_grad(1.2, 0.4, 1, params)
        # with a zero head, d alpha / d head_w = sigmoid'(0) * hidden activation
        tape = Tape()
        losses = T.as_tensor(np.array([[1.2, 0.4]]))
        hidden = T.elu(T.add(T.matmul(losses, T.as_tensor(params.w_shared)), T.as_tensor(params.b_shared)))
        np.testing.assert_allclose(grad.d_alpha["head1_w"][:, 0], 0.25 * hidden.data[0], rtol=1e-12)
        np.testing.assert_allclose(grad.d_alpha["head1_b"], [[0.25]], rtol=1e-12)
        # the other task's head never sees this sample
        assert np.all(grad.d_alpha["head0_w"] == 0.0)

    def test_complementary_beta_gradient_is_negated_alpha(self):
        params = fresh_params(randomize_heads=True)
        grad = sample_grad(0.9, 1.7, 2, params)
        for name in grad.d_alpha:
            np.testing.assert_array_equal(grad.d_beta[name], -grad.d_alpha[name])
        np.testing.assert_array_equal(grad.d_beta_inputs, -grad.d_alpha_inputs)

    @pytest.mark.parametrize("mode", ["complementary", "independent"])
    @pytest.mark.parametrize("log1p", [False, True])
    def test_matches_finite_differences(self, mode, log1p):
        params = fresh_params(k=2, hidden=6, mode=mode, randomize_heads=True, log1p=log1p)
        l1, l2, task = 1.1, 0.6, 1

        def build(arrays):
            probe = MWNParams(
                w_shared=arrays["shared_w"],
                b_shared=arrays["shared_b"],
                head_w=[arrays["head0_w"], arrays["head1_w"]],
                head_b=[arrays["head0_b"], arrays["head1_b"]],
                mode=mode,
                log1p_inputs=log1p,
            )
            tape = Tape()
            losses = tape.constant(np.array([[l1, l2]]))
            alpha, beta = mwn_mod.alpha_beta_graph(tape, losses, [task], probe)
            return tape, T.add(T.scale(alpha, 2.0), beta)  # mixes both outputs

        err = finite_diff_check(build, dict(params.param_items()), eps=1e-5)
        assert err <= 1e-6

    def test_input_gradient_matches_finite_differences(self):
        params = fresh_params(k=2, hidden=6, randomize_heads=True)
        grad = sample_grad(1.3, 0.8, 0, params)
        eps = 1e-6
        for j, base in enumerate([1.3, 0.8]):
            args_plus = [1.3, 0.8]
            args_minus = [1.3, 0.8]
            args_plus[j] = base + eps
            args_minus[j] = base - eps
            (a_plus,), _ = mwn_forward_batch([args_plus[0]], [args_plus[1]], [0], params)
            (a_minus,), _ = mwn_forward_batch([args_minus[0]], [args_minus[1]], [0], params)
            numeric = (a_plus - a_minus) / (2 * eps)
            assert grad.d_alpha_inputs[j] == pytest.approx(numeric, rel=1e-5, abs=1e-10)


class TestWeightedAlphaGrad:
    @pytest.mark.parametrize("mode", ["complementary", "independent"])
    def test_matches_sum_of_per_sample_gradients(self, mode):
        params = fresh_params(k=2, hidden=5, mode=mode, randomize_heads=True)
        rng = np.random.default_rng(8)
        l1, l2 = rng.uniform(0, 3, 6), rng.uniform(0, 3, 6)
        tasks = rng.integers(0, 2, 6)
        coeffs = rng.normal(size=6)
        # complementary mode, as meta_gradient calls it, seeds the alpha term only
        beta_coeffs = rng.normal(size=6) if mode == "independent" else None
        combined = weighted_alpha_theta_grad(l1, l2, tasks, params, coeffs, beta_coeffs)
        expected = {name: np.zeros_like(arr) for name, arr in params.param_items()}
        for j in range(6):
            g = sample_grad(float(l1[j]), float(l2[j]), int(tasks[j]), params)
            for name in expected:
                expected[name] += coeffs[j] * g.d_alpha[name]
                if beta_coeffs is not None:
                    expected[name] += beta_coeffs[j] * g.d_beta[name]
        for name in expected:
            np.testing.assert_allclose(combined[name], expected[name], rtol=1e-10, atol=1e-12)


def per_mode_alpha_beta_graph(tape, losses, tasks, params):
    """Reference: ``alpha_beta_graph`` as it was with one head-building branch per output mode."""
    n = losses.shape[0]
    tasks = np.asarray(tasks, dtype=np.int64)
    ptensors = {name: tape.param(name, arr) for name, arr in params.param_items()}
    if params.log1p_inputs:
        losses = T.log1p(losses)
    hidden = T.elu(T.add(T.matmul(losses, ptensors["shared_w"]), ptensors["shared_b"]))
    mask = np.zeros((n, params.k))
    mask[np.arange(n), tasks] = 1.0
    mask_t = tape.constant(mask)
    if params.mode == "complementary":
        raw_cols = [
            T.add(T.matmul(hidden, ptensors[f"head{c}_w"]), ptensors[f"head{c}_b"])
            for c in range(params.k)
        ]
        raw_all = raw_cols[0]
        for col in raw_cols[1:]:
            raw_all = T.concat_cols(raw_all, col)
        alpha = T.sigmoid(T.row_sum(T.mul(raw_all, mask_t)))
        beta = T.add(T.scale(alpha, -1.0), tape.constant(np.ones((n, 1))))
        return alpha, beta
    cols_a, cols_b = [], []
    for c in range(params.k):
        raw_c = T.add(T.matmul(hidden, ptensors[f"head{c}_w"]), ptensors[f"head{c}_b"])
        cols_a.append(T.slice_cols(raw_c, 0, 1))
        cols_b.append(T.slice_cols(raw_c, 1, 2))
    raw_a, raw_b = cols_a[0], cols_b[0]
    for ca, cb in zip(cols_a[1:], cols_b[1:]):
        raw_a = T.concat_cols(raw_a, ca)
        raw_b = T.concat_cols(raw_b, cb)
    alpha = T.sigmoid(T.row_sum(T.mul(raw_a, mask_t)))
    beta = T.sigmoid(T.row_sum(T.mul(raw_b, mask_t)))
    return alpha, beta


@pytest.mark.bitwise
class TestOneHeadPath:
    """The one loop over output columns gives the per-mode head code's bits."""

    @staticmethod
    def _instance(k: int, mode: str, log1p: bool):
        params = fresh_params(k=k, hidden=7, mode=mode, seed=10 * k, randomize_heads=True, log1p=log1p)
        rng = np.random.default_rng(k)
        n = 23
        # every task present, and exact zeros among the losses and coefficients
        l1, l2 = rng.uniform(0, 6, n), rng.uniform(0, 6, n)
        l1[:2] = 0.0
        tasks = np.r_[np.arange(k), rng.integers(0, k, n - k)]
        coeffs, beta_coeffs = rng.normal(size=n), rng.normal(size=n)
        coeffs[3] = beta_coeffs[4] = 0.0
        return params, l1, l2, tasks, coeffs, beta_coeffs

    @pytest.mark.parametrize("log1p", [False, True], ids=["raw", "log1p"])
    @pytest.mark.parametrize("mode", ["complementary", "independent"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_alpha_beta_and_theta_gradient_equal_the_per_mode_heads_byte_for_byte(self, monkeypatch, k, mode, log1p):
        params, l1, l2, tasks, coeffs, beta_coeffs = self._instance(k, mode, log1p)
        results = []
        for graph in (mwn_mod.alpha_beta_graph, per_mode_alpha_beta_graph):
            monkeypatch.setattr(mwn_mod, "alpha_beta_graph", graph)
            alpha, beta = mwn_forward_batch(l1, l2, tasks, params)
            grads = weighted_alpha_theta_grad(l1, l2, tasks, params, coeffs, beta_coeffs)
            results.append((alpha, beta, grads))
        (alpha, beta, grads), (ref_alpha, ref_beta, ref_grads) = results
        assert alpha.tobytes() == ref_alpha.tobytes()
        assert beta.tobytes() == ref_beta.tobytes()
        assert list(grads) == list(ref_grads)
        for name, value in ref_grads.items():
            assert grads[name].tobytes() == value.tobytes(), name
