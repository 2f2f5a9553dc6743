from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from hgmeta import tensor as T
from hgmeta.errors import ContractError, NumericsError, OracleError
from hgmeta.hypergraph import Hypergraph
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


def _reduceat_sum(ids, values, num_rows):
    """Per-id sums of ``values`` rows by ``np.add.reduceat`` over the stably sorted rows."""
    out = np.zeros((num_rows,) + values.shape[1:])
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    if ids.size:
        starts = np.flatnonzero(np.r_[True, sorted_ids[1:] != sorted_ids[:-1]])
        out[sorted_ids[starts]] = np.add.reduceat(values[order], starts, axis=0)
    return out


def _signed_zero_values(rng, k, d):
    """Values of mixed magnitude with many +0.0 and -0.0 entries."""
    values = rng.normal(size=(k, d)) * 10.0 ** rng.integers(-4, 5, size=(k, 1))
    zeros = rng.random((k, d)) < 0.3
    values[zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, 0.0, -0.0)
    return values


def _random_runs(rng):
    """Ids in random order: many short runs, a few runs of up to ~3000 rows, or both mixed."""
    kind = rng.random()
    if kind < 0.4:
        num_rows = int(rng.integers(1, 80))
        return rng.integers(0, num_rows, size=int(rng.integers(0, 600))), num_rows
    if kind < 0.7:
        lengths = rng.integers(1, 3000, size=int(rng.integers(1, 5)))
    else:
        short = rng.integers(1, 40, size=int(rng.integers(1, 60)))
        lengths = rng.permutation(np.r_[short, rng.integers(100, 1500, size=int(rng.integers(1, 6)))])
    num_rows = lengths.size + 2
    ids = rng.permutation(np.repeat(rng.permutation(num_rows)[: lengths.size], lengths))
    return ids, num_rows


class TestGroupedSums:
    """The run index and the primitives built on it give np.add.reduceat's bytes."""

    def test_run_index_sum_equals_reduceat_bytes(self):
        rng = np.random.default_rng(31)
        longest = 0
        for _ in range(60):
            ids, num_rows = _random_runs(rng)
            longest = max(longest, np.bincount(ids).max(initial=0))
            for d in (1, 5):
                values = _signed_zero_values(rng, ids.size, d)
                got = T._RunIndex(ids).sum_into(values, num_rows)
                assert got.tobytes() == _reduceat_sum(ids, values, num_rows).tobytes()
        assert longest > 1024

    def test_run_index_sum_over_taken_rows_equals_gathered(self):
        rng = np.random.default_rng(32)
        values = _signed_zero_values(rng, 50, 4)
        rows = rng.integers(0, 50, size=700)
        ids = rng.integers(0, 9, size=700)
        got = T._RunIndex(ids).sum_into(values, 9, take=rows)
        assert got.tobytes() == _reduceat_sum(ids, values[rows], 9).tobytes()

    def test_run_index_max_equals_reduceat(self):
        rng = np.random.default_rng(33)
        ids, num_rows = _random_runs(rng)
        values = _signed_zero_values(rng, ids.size, 3)
        got = T._RunIndex(ids).max_into(values, num_rows)
        present = np.bincount(ids, minlength=num_rows) > 0
        order = np.argsort(ids, kind="stable")
        starts = np.flatnonzero(np.r_[True, ids[order][1:] != ids[order][:-1]])
        np.testing.assert_array_equal(got[present], np.maximum.reduceat(values[order], starts, axis=0))
        assert np.all(got[~present] == -np.inf)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_primitives_match_reduceat_reference(self, seed):
        rng = np.random.default_rng(40 + seed)
        ids, num_rows = _random_runs(rng)
        ids = np.r_[ids, np.arange(num_rows)]  # no empty segment, for segment_mean
        k = ids.size
        values = _signed_zero_values(rng, k, 3)
        counts = np.bincount(ids, minlength=num_rows).astype(np.float64)

        tape = Tape()
        table = tape.param("table", _signed_zero_values(rng, num_rows, 3))
        seed_rows = _signed_zero_values(rng, k, 3)
        grad = tape.backward(T.gather_rows(table, ids), seed=seed_rows)["table"]
        assert grad.tobytes() == _reduceat_sum(ids, seed_rows, num_rows).tobytes()

        summed = T.segment_sum(T.as_tensor(values), ids, num_rows).data
        assert summed.tobytes() == _reduceat_sum(ids, values, num_rows).tobytes()
        mean = T.segment_mean(T.as_tensor(values), ids, num_rows).data
        assert mean.tobytes() == (_reduceat_sum(ids, values, num_rows) / counts[:, None]).tobytes()

        scores = rng.normal(size=(k, 1)) * 3.0
        upstream = _signed_zero_values(rng, k, 1)
        tape = Tape()
        s = tape.param("s", scores)
        soft = T.segment_softmax(s, ids)
        d_scores = tape.backward(soft, seed=upstream)["s"]
        ref_out, ref_grad = self._reduceat_softmax(scores[:, 0], ids, upstream)
        assert soft.data.tobytes() == ref_out.tobytes()
        assert d_scores.tobytes() == ref_grad.tobytes()

    @staticmethod
    def _reduceat_softmax(x, ids, upstream):
        num_segments = int(ids.max()) + 1
        order = np.argsort(ids, kind="stable")
        starts = np.flatnonzero(np.r_[True, ids[order][1:] != ids[order][:-1]])
        unique = ids[order][starts]
        seg_max = np.full(num_segments, -np.inf)
        seg_max[unique] = np.maximum.reduceat(x[order], starts)
        e = np.exp(x - seg_max[ids])
        denom = np.ones(num_segments)
        denom[unique] = np.add.reduceat(e[order], starts)
        out = (e / denom[ids])[:, None]
        weighted = np.zeros(num_segments)
        weighted[unique] = np.add.reduceat((upstream * out)[order, 0], starts)
        return out, out * (upstream - weighted[ids][:, None])

    def test_gathered_segment_mean_equals_taped_composition(self):
        rng = np.random.default_rng(34)
        values = _signed_zero_values(rng, 30, 150)  # more than one column block
        rows = rng.integers(0, 30, size=400)
        ids = np.r_[rng.integers(0, 12, size=388), np.arange(12)]
        composed = T.segment_mean(T.gather_rows(T.as_tensor(values), rows), ids, 12).data
        assert T.gathered_segment_mean(values, rows, ids, 12).tobytes() == composed.tobytes()


class TestRunIndexCache:
    """A frozen id array has its run index built once, and held no longer than the array."""

    @pytest.fixture
    def builds(self, monkeypatch):
        made = []

        class Counting(T._RunIndex):
            __slots__ = ()

            def __init__(self, ids):
                made.append(ids)
                super().__init__(ids)

        monkeypatch.setattr(T, "_RunIndex", Counting)
        return made

    @staticmethod
    def _use_every_primitive(ids, num_segments):
        values = np.random.default_rng(0).normal(size=(ids.size, 2))
        T.segment_sum(T.as_tensor(values), ids, num_segments)
        T.segment_mean(T.as_tensor(values), ids, num_segments)
        T.segment_softmax(T.as_tensor(values[:, :1]), ids)
        T.gathered_segment_mean(values, np.arange(ids.size), ids, num_segments)
        tape = Tape()
        table = tape.param("table", np.ones((num_segments, 2)))
        tape.backward(T.sum_all(T.gather_rows(table, ids)))

    @staticmethod
    def _frozen_ids():
        return np.frombuffer(np.array([2, 0, 1, 2, 0, 1, 1]).tobytes(), dtype=np.int64)

    def test_built_once_per_frozen_array(self, builds):
        ids = self._frozen_ids()
        self._use_every_primitive(ids, 3)
        self._use_every_primitive(ids, 3)
        assert len(builds) == 1 and builds[0] is ids
        assert T._run_index(ids) is T._run_index(ids)

    def test_graph_incidence_arrays_are_frozen_and_cannot_be_made_writeable(self, builds):
        g = Hypergraph(5, [[0, 1, 2], [1, 3], [0, 3, 4]])
        for name, ids in g.incidence_arrays().items():
            assert T.frozen(ids), name
            with pytest.raises(ValueError):
                ids.setflags(write=True)
            with pytest.raises(ValueError):
                ids[1:].setflags(write=True)
        self._use_every_primitive(g.incidence_arrays()["pair_nodes"], g.num_nodes)
        assert len(builds) == 1

    def test_arrays_that_could_be_made_writeable_are_not_cached(self, builds):
        ids = np.array([2, 0, 1, 2, 0, 1, 1])
        view = ids[:]
        view.setflags(write=False)
        owner = ids.copy()
        owner.setflags(write=False)  # owns its memory, so it can be made writeable again
        over_bytearray = np.frombuffer(bytearray(ids.tobytes()), dtype=np.int64)
        over_bytearray.setflags(write=False)
        # a read-only memoryview, while ``ids`` itself stays writeable
        over_readonly_view = np.frombuffer(memoryview(ids).toreadonly(), dtype=np.int64)
        for array in (ids, view, owner, over_bytearray, over_readonly_view):
            assert not T.frozen(array)
            before = len(builds)
            self._use_every_primitive(array, 3)
            assert len(builds) - before == 5
            assert (id(array), "run_index") not in T._derived

    def test_owner_made_writeable_again_gives_fresh_sums(self):
        ids = np.array([0, 0, 1, 1, 1])
        ids.setflags(write=False)
        values = np.arange(10.0).reshape(5, 2)
        before = T.segment_sum(T.as_tensor(values), ids, 2).data
        ids.setflags(write=True)
        ids[:] = [1, 1, 0, 0, 0]
        ids.setflags(write=False)
        after = T.segment_sum(T.as_tensor(values), ids, 2).data
        np.testing.assert_array_equal(after, before[::-1])

    def test_dropped_graph_frees_its_indexes_without_the_cyclic_collector(self):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            g = Hypergraph(5, [[0, 1, 2], [1, 3], [0, 3, 4]])
            arrays = g.incidence_arrays()
            self._use_every_primitive(arrays["pair_nodes"], g.num_nodes)
            self._use_every_primitive(arrays["member_edges"], g.num_hyperedges)
            keys = [(id(arrays[name]), "run_index") for name in ("pair_nodes", "member_edges")]
            held = [T._derived[key][1] for key in keys]
            refs = [weakref.ref(index.unique) for index in held] + [weakref.ref(arrays["pair_nodes"])]
            del g, arrays, held
            assert all(ref() is None for ref in refs)
            assert not any(key in T._derived for key in keys)
        finally:
            if was_enabled:
                gc.enable()


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
