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
    ptensors = mwn_mod.register_mwn(tape, params)
    losses = tape.param("inputs", np.array([[float(l1), float(l2)]]))
    alpha, beta = mwn_mod.alpha_beta_graph(tape, losses, [task], params, ptensors)
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
            ptensors = mwn_mod.register_mwn(tape, probe)
            losses = tape.constant(np.array([[l1, l2]]))
            alpha, beta = mwn_mod.alpha_beta_graph(tape, losses, [task], probe, ptensors)
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
