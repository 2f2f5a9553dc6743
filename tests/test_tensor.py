from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from hgmeta import tensor as T
from hgmeta.errors import ContractError, NumericsError, OracleError
from hgmeta.tensor import Tape, finite_diff_check


def _param_tape(**arrays):
    tape = Tape()
    tensors = {name: tape.param(name, np.asarray(arr, dtype=np.float64)) for name, arr in arrays.items()}
    return tape, tensors


class TestBasicGradients:
    def test_sum_of_params_gives_ones(self):
        tape, ts = _param_tape(w=np.array([[1.0, 2.0], [3.0, 4.0]]))
        loss = T.sum_all(ts["w"])
        grads = tape.backward(loss)
        np.testing.assert_array_equal(grads["w"], np.ones((2, 2)))

    def test_half_squared_norm_gradient_is_w(self):
        w = np.array([[1.5, -2.0], [0.25, 3.0]])
        tape, ts = _param_tape(w=w)
        loss = T.scale(T.sum_all(T.mul(ts["w"], ts["w"])), 0.5)
        grads = tape.backward(loss)
        np.testing.assert_allclose(grads["w"], w, rtol=1e-12)

    def test_matmul_identity_passthrough(self):
        a = np.array([[2.0, -1.0], [0.5, 3.0]])
        out = T.matmul(T.as_tensor(np.eye(2)), T.as_tensor(a))
        np.testing.assert_array_equal(out.data, a)

    def test_backward_requires_scalar_without_seed(self):
        tape, ts = _param_tape(w=np.ones((2, 2)))
        out = T.elu(ts["w"])
        with pytest.raises(ContractError, match="scalar"):
            tape.backward(out)

    def test_backward_is_linear(self):
        rng = np.random.default_rng(3)
        w = rng.uniform(-1, 1, (3, 2))
        a, b = 1.7, -0.6

        def losses(tape, t):
            l1 = T.sum_all(T.elu(t))
            l2 = T.sum_all(T.mul(t, t))
            return l1, l2

        tape, ts = _param_tape(w=w)
        l1, l2 = losses(tape, ts["w"])
        combined = T.add(T.scale(l1, a), T.scale(l2, b))
        g_combined = tape.backward(combined)["w"]
        g1 = tape.backward(l1)["w"]
        g2 = tape.backward(l2)["w"]
        np.testing.assert_allclose(g_combined, a * g1 + b * g2, rtol=1e-12)

    def test_repeated_backward_calls_are_independent(self):
        tape, ts = _param_tape(w=np.array([[1.0, 2.0]]))
        loss = T.sum_all(ts["w"])
        first = tape.backward(loss)["w"]
        second = tape.backward(loss)["w"]
        np.testing.assert_array_equal(first, second)

    def test_tape_is_freed_without_the_cyclic_collector(self):
        def taped_step():
            tape, ts = _param_tape(w=np.array([[1.0, -2.0], [0.5, 3.0]]))
            loss = T.sum_all(T.sigmoid(T.matmul(ts["w"], ts["w"])))
            tape.backward(loss)
            return weakref.ref(tape)

        was_enabled = gc.isenabled()
        gc.disable()
        try:
            assert taped_step()() is None
        finally:
            if was_enabled:
                gc.enable()


class TestPrimitiveValues:
    def test_segment_softmax_singleton(self):
        out = T.segment_softmax(T.as_tensor([[0.37]]), [0])
        assert out.data[0, 0] == 1.0

    def test_segment_softmax_known_values(self):
        out = T.segment_softmax(T.as_tensor([[0.0], [np.log(3.0)]]), [0, 0])
        np.testing.assert_allclose(out.data[:, 0], [0.25, 0.75], rtol=1e-12)

    def test_segment_softmax_sums_to_one_per_segment(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            k = int(rng.integers(1, 40))
            ids = np.sort(rng.integers(0, 6, size=k))
            scores = rng.uniform(-5, 5, size=(k, 1))
            out = T.segment_softmax(T.as_tensor(scores), ids).data[:, 0]
            assert np.all(out >= 0)
            sums = np.bincount(ids, weights=out)
            present = np.bincount(ids) > 0
            np.testing.assert_allclose(sums[present], 1.0, atol=1e-9)

    def test_segment_mean_of_identical_rows(self):
        row = np.array([1.0, -2.0, 0.5])
        values = np.tile(row, (4, 1))
        out = T.segment_mean(T.as_tensor(values), [0, 0, 0, 0], 1)
        np.testing.assert_allclose(out.data[0], row, rtol=1e-15)

    def test_segment_mean_rejects_empty_segment(self):
        with pytest.raises(ContractError, match="empty segment"):
            T.segment_mean(T.as_tensor(np.ones((2, 1))), [0, 0], 2)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ContractError, match="matmul"):
            T.matmul(T.as_tensor(np.ones((2, 3))), T.as_tensor(np.ones((2, 3))))
        with pytest.raises(ContractError, match="add"):
            T.add(T.as_tensor(np.ones((2, 3))), T.as_tensor(np.ones((3, 2))))

    def test_row_broadcast_add(self):
        out = T.add(T.as_tensor(np.zeros((3, 2))), T.as_tensor([[1.0, 2.0]]))
        np.testing.assert_array_equal(out.data, np.tile([1.0, 2.0], (3, 1)))

    def test_nonfinite_input_rejected(self):
        with pytest.raises(NumericsError):
            T.as_tensor(np.array([[np.inf, 1.0]]))

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_nonfinite_output_names_primitive_and_shape(self):
        with pytest.raises(NumericsError, match=r"^scale produced non-finite values, shape \(3, 1\)$"):
            T.scale(T.as_tensor(np.full((3, 1), 1e300)), 1e300)

    def test_run_index_sum_matches_scatter_add(self):
        # reduceat does not add a run's rows strictly in sequence, so floats
        # can differ from np.add.at in the last bits; integers stay exact
        rng = np.random.default_rng(13)
        ids = rng.integers(0, 300, size=2000)
        index = T._RunIndex(ids)

        def scatter_add(values):
            out = np.zeros((300, 64))
            np.add.at(out, ids, values)
            return out

        floats = rng.normal(size=(2000, 64))
        # atol covers sums that cancel to nearly zero
        np.testing.assert_allclose(index.sum_into(floats, 300), scatter_add(floats), rtol=1e-12, atol=1e-12)
        integers = rng.integers(-1000, 1000, size=(2000, 64)).astype(np.float64)
        np.testing.assert_array_equal(index.sum_into(integers, 300), scatter_add(integers))

    def test_row_log_softmax_rows_normalize(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-3, 3, (6, 4))
        out = T.row_log_softmax(T.as_tensor(x))
        np.testing.assert_allclose(np.exp(out.data).sum(axis=1), 1.0, atol=1e-12)


class TestUntrackedOperands:
    """A constant operand gets no gradient computation; the parameters keep their bits."""

    # op, operand shapes, position of the constant operand
    CASES = {
        "matmul_left": (T.matmul, [(5, 4), (4, 3)], 0),
        "matmul_right": (T.matmul, [(5, 4), (4, 3)], 1),
        "mul": (T.mul, [(5, 3), (5, 3)], 0),
        "scale_rows_matrix": (T.scale_rows, [(5, 3), (5, 1)], 0),
        "scale_rows_column": (T.scale_rows, [(5, 3), (5, 1)], 1),
    }

    @staticmethod
    def _taped(op, arrays, constant):
        tape = Tape()
        operands = [
            T.as_tensor(arr, tape) if i == constant else tape.param(f"p{i}", arr) for i, arr in enumerate(arrays)
        ]
        out = op(*operands)
        return tape, out, tape.backward(T.sum_all(T.sigmoid(out)))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_parameter_gradient_is_bit_equal_to_fully_tracked_graph(self, case):
        op, shapes, constant = self.CASES[case]
        rng = np.random.default_rng(7)
        arrays = [rng.uniform(-1.0, 1.0, shape) for shape in shapes]
        tape, out, partial = self._taped(op, arrays, constant)
        _, _, full = self._taped(op, arrays, None)
        trained = f"p{1 - constant}"
        assert list(partial) == [trained]
        np.testing.assert_array_equal(partial[trained], full[trained])
        # the op's own record returns None in the constant's slot
        _, _, grad_fn = next(rec for rec in tape._records if rec[0] == out.idx)
        op_grads = grad_fn(np.ones(out.shape))
        assert op_grads[constant] is None and op_grads[1 - constant] is not None


def _random_matrix(rng, shape):
    return rng.uniform(-1.0, 1.0, shape)


PRIMITIVE_CASES = []


def _case(name):
    def wrap(fn):
        PRIMITIVE_CASES.append((name, fn))
        return fn

    return wrap


@_case("matmul")
def _build_matmul(params):
    tape, ts = _param_tape(**params)
    return tape, T.sum_all(T.elu(T.matmul(ts["a"], ts["b"])))


@_case("add_row_broadcast")
def _build_add(params):
    tape, ts = _param_tape(**params)
    return tape, T.sum_all(T.sigmoid(T.add(ts["a"], ts["bias"])))


@_case("concat_slice")
def _build_concat(params):
    tape, ts = _param_tape(**params)
    cat = T.concat_cols(ts["a"], ts["c"])
    return tape, T.sum_all(T.mul(cat, cat))


@_case("gather_segment")
def _build_gather(params):
    tape, ts = _param_tape(**params)
    gathered = T.gather_rows(ts["a"], [0, 2, 1, 2, 0])
    mean = T.segment_mean(gathered, [0, 0, 1, 1, 1], 2)
    return tape, T.sum_all(T.leaky_relu(mean, 0.2))


@_case("segment_softmax_scale_rows")
def _build_segsoft(params):
    tape, ts = _param_tape(**params)
    coeff = T.segment_softmax(ts["scores"], [0, 0, 1, 1, 1])
    scaled = T.scale_rows(ts["vals"], coeff)
    return tape, T.sum_all(T.segment_sum(scaled, [0, 0, 1, 1, 1], 2))


@_case("log_softmax_ce")
def _build_lsm(params):
    tape, ts = _param_tape(**params)
    onehot = np.zeros((3, 4))
    onehot[[0, 1, 2], [1, 0, 3]] = 1.0
    logp = T.row_log_softmax(ts["a"])
    return tape, T.scale(T.sum_all(T.mul(logp, T.as_tensor(onehot, tape))), -1.0)


@_case("log1p_row_sum")
def _build_log1p(params):
    tape, ts = _param_tape(**params)
    shifted = T.add(ts["a"], T.as_tensor(np.full((1, ts["a"].shape[1]), 2.0), tape))
    return tape, T.sum_all(T.row_sum(T.log1p(shifted)))


def _params_for(name, rng):
    if name == "matmul":
        return {"a": _random_matrix(rng, (3, 4)), "b": _random_matrix(rng, (4, 2))}
    if name == "add_row_broadcast":
        return {"a": _random_matrix(rng, (5, 3)), "bias": _random_matrix(rng, (1, 3))}
    if name == "concat_slice":
        return {"a": _random_matrix(rng, (4, 2)), "c": _random_matrix(rng, (4, 3))}
    if name == "gather_segment":
        return {"a": _random_matrix(rng, (3, 3))}
    if name == "segment_softmax_scale_rows":
        return {"scores": _random_matrix(rng, (5, 1)), "vals": _random_matrix(rng, (5, 2))}
    if name == "log_softmax_ce":
        return {"a": _random_matrix(rng, (3, 4))}
    if name == "log1p_row_sum":
        return {"a": _random_matrix(rng, (3, 3))}
    raise AssertionError(name)


@pytest.mark.parametrize("name,build", PRIMITIVE_CASES, ids=[n for n, _ in PRIMITIVE_CASES])
def test_primitive_backward_matches_finite_differences(name, build):
    rng = np.random.default_rng(hash(name) % 2**32)
    for trial in range(3):
        params = _params_for(name, rng)
        assert finite_diff_check(build, params, eps=1e-4) <= 1e-4


class TestFiniteDiffCheck:
    def test_square_at_three(self):
        def build(params):
            tape, ts = _param_tape(**params)
            return tape, T.sum_all(T.mul(ts["w"], ts["w"]))

        err = finite_diff_check(build, {"w": np.array([[3.0]])}, eps=1e-4)
        assert err <= 1e-8

    def test_constant_function_has_zero_error(self):
        def build(params):
            tape, ts = _param_tape(**params)
            return tape, T.scale(T.sum_all(ts["w"]), 0.0)

        assert finite_diff_check(build, {"w": np.array([[1.0, 2.0]])}, eps=1e-4) == 0.0

    def test_two_layer_mlp(self):
        rng = np.random.default_rng(17)
        x = rng.uniform(-1, 1, (6, 3))
        onehot = np.zeros((6, 2))
        onehot[np.arange(6), rng.integers(0, 2, 6)] = 1.0

        def build(params):
            tape, ts = _param_tape(**params)
            hidden = T.elu(T.add(T.matmul(T.as_tensor(x, tape), ts["w1"]), ts["b1"]))
            logits = T.matmul(hidden, ts["w2"])
            logp = T.row_log_softmax(logits)
            return tape, T.scale(T.sum_all(T.mul(logp, T.as_tensor(onehot, tape))), -1.0 / 6)

        params = {
            "w1": rng.uniform(-1, 1, (3, 4)),
            "b1": rng.uniform(-1, 1, (1, 4)),
            "w2": rng.uniform(-1, 1, (4, 2)),
        }
        assert finite_diff_check(build, params, eps=1e-4) <= 1e-4

    def test_nonfinite_evaluation_raises_oracle_error(self):
        def build(params):
            tape, ts = _param_tape(**params)
            # log1p blows past its domain once the parameter is perturbed below -1
            return tape, T.sum_all(T.log1p(ts["w"]))

        with pytest.raises((OracleError, ContractError)):
            finite_diff_check(build, {"w": np.array([[-1.0 + 5e-5]])}, eps=1e-4)

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ContractError):
            finite_diff_check(lambda p: None, {}, eps=0.0)
