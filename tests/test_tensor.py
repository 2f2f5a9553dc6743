from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from hgmeta import tensor as T
from hgmeta.errors import ContractError, NumericsError, OracleError
from hgmeta.hypergraph import Hypergraph
from hgmeta.tensor import Tape, finite_diff_check

from conftest import count_rules


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
    def test_slice_of_every_column_is_the_tensor_itself(self):
        tape = Tape()
        a = tape.param("a", np.arange(6.0).reshape(3, 2))
        records = len(tape._records)
        assert T.slice_cols(a, 0, 2) is a
        assert len(tape._records) == records
        np.testing.assert_array_equal(T.slice_cols(a, 1, 2).data, [[1.0], [3.0], [5.0]])

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


@pytest.mark.bitwise
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
            before, entries = len(builds), set(T._derived)
            self._use_every_primitive(array, 3)
            assert len(builds) - before == 5
            assert set(T._derived) <= entries  # nothing is kept for it

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
            names = ("pair_nodes", "member_edges")
            held = [T._run_index(arrays[name]) for name in names]
            # cached: the entries hold these indexes, which die only with them
            assert all(T._run_index(arrays[name]) is index for name, index in zip(names, held))
            refs = [weakref.ref(index.unique) for index in held] + [weakref.ref(arrays["pair_nodes"])]
            del g, arrays, held
            assert all(ref() is None for ref in refs)
        finally:
            if was_enabled:
                gc.enable()


class TestDerivedEntries:
    """``derived`` keeps a value while every one of its frozen keys lives."""

    @staticmethod
    def _frozen(*values):
        return np.frombuffer(np.array(values, dtype=np.float64).tobytes())

    @staticmethod
    def _builder(built: list):
        def build():
            value = np.zeros(3)
            built.append(weakref.ref(value))
            return value

        return build

    @pytest.mark.parametrize("dies", [0, 1], ids=["first-key-dies", "second-key-dies"])
    def test_entry_with_two_keys_is_freed_when_either_key_dies(self, dies):
        built = []
        build = self._builder(built)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            keys = [self._frozen(1.0, 2.0), self._frozen(3.0)]
            value = T.derived(tuple(keys), "pair", build)
            assert T.derived(tuple(keys), "pair", build) is value
            assert T.derived(keys[0], "pair", build) is not value  # one key alone is another entry
            assert len(built) == 2
            survivor, dead = keys[1 - dies], weakref.ref(keys[dies])
            del value, keys
            assert dead() is None
            assert built[0]() is None  # the pair's entry went with its key
            assert (built[1]() is None) == (dies == 0)  # the single-key entry lives with its key
            T.derived((survivor,), "other", build)
            assert len(built) == 3
        finally:
            if was_enabled:
                gc.enable()

    def test_a_key_that_is_not_frozen_gives_a_fresh_value_every_call(self):
        built = []
        build = self._builder(built)
        frozen, writeable = self._frozen(1.0), np.array([2.0])
        values = [T.derived((frozen, writeable), "pair", build) for _ in range(2)]
        assert values[0] is not values[1] and len(built) == 2


@pytest.mark.bitwise
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
        # the op's own record returns None in the constant's slot, from its dense rule and its row rule
        _, _, grad_fn, row_fn, *_ = next(rec for rec in tape._records if rec[0] == out.idx)
        for op_grads in (grad_fn(np.ones(out.shape)), row_fn(np.array([1, 3]), np.ones((2, out.shape[1])))):
            assert op_grads[constant] is None and op_grads[1 - constant] is not None


class _CountingNumpy:
    """Stands in for the ``np`` that ``tensor`` sees and counts ``isfinite`` calls on one array."""

    def __init__(self, watched):
        self.watched, self.scans = watched, 0

    def __getattr__(self, name):
        return getattr(np, name)

    def isfinite(self, a, *args, **kwargs):
        self.scans += a is self.watched
        return np.isfinite(a, *args, **kwargs)


@pytest.mark.bitwise
class TestFinitenessScan:
    """A frozen array is scanned for NaN/Inf once; any other array on every use."""

    @staticmethod
    def _frozen(values) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        return np.frombuffer(values.tobytes()).reshape(values.shape)

    def test_frozen_features_are_scanned_once(self, monkeypatch):
        X = self._frozen(np.arange(12.0).reshape(4, 3))
        counting = _CountingNumpy(X)
        monkeypatch.setattr(T, "np", counting)
        for _ in range(3):
            assert Tape().constant(X).data is X
            assert T.as_tensor(X).data is X
        assert counting.scans == 1

    def test_writeable_array_is_scanned_on_every_use(self, monkeypatch):
        X = np.arange(12.0).reshape(4, 3)
        counting = _CountingNumpy(X)
        monkeypatch.setattr(T, "np", counting)
        for _ in range(3):
            Tape().constant(X)
        assert counting.scans == 3

    def test_frozen_array_holding_nan_raises_on_every_call(self):
        X = self._frozen([[1.0, np.nan], [0.0, 2.0]])
        for _ in range(3):
            with pytest.raises(NumericsError):
                Tape().constant(X)
            with pytest.raises(NumericsError):
                T.as_tensor(X)

    def test_writeable_array_edited_to_nan_between_calls_raises(self):
        X = np.ones((3, 2))
        Tape().constant(X)
        X[1, 0] = np.nan
        with pytest.raises(NumericsError):
            Tape().constant(X)
        X[1, 0] = np.inf
        with pytest.raises(NumericsError):
            T.as_tensor(X)


class TestStackedSeeds:
    """A stack of seeds, shape (s, *output.shape), gives (s, *shape) gradient stacks."""

    SHAPES = {"u": (7, 5), "w": (5, 3), "v": (3, 5)}

    @staticmethod
    def _loss(rng):
        """A (4, 3) output; w gets two ``const @ w`` terms (the layer-0 kind) between tracked ones."""
        tape = Tape()
        u, w, v = (tape.param(name, rng.uniform(-1.0, 1.0, shape)) for name, shape in TestStackedSeeds.SHAPES.items())
        consts = [T.as_tensor(rng.uniform(-1.0, 1.0, (7, 5))) for _ in range(2)]
        h = T.matmul(T.elu(u), w)
        for const in consts:
            h = T.add(h, T.matmul(const, w))
        h = T.segment_mean(T.elu(h), np.array([0, 1, 2, 3, 0, 1, 2]), 4)
        return tape, T.add(h, T.matmul(T.elu(T.matmul(h, v)), w))

    @pytest.mark.bitwise
    def test_each_seed_keeps_the_bits_of_its_own_pass(self):
        rng = np.random.default_rng(11)
        tape, out = self._loss(rng)
        seeds = rng.uniform(-1.0, 1.0, (6, 4, 3))
        stacked = tape.backward(out, seeds)
        assert {name: grads.shape for name, grads in stacked.items()} == {
            name: (6, *shape) for name, shape in self.SHAPES.items()
        }
        for i, seed in enumerate(seeds):
            for name, grad in tape.backward(out, seed).items():
                assert stacked[name][i].tobytes() == grad.tobytes()

    def test_out_is_filled_in_place(self):
        tape, out = self._loss(np.random.default_rng(12))
        seeds = np.ones((2, 4, 3))
        given = {name: np.empty((2, *shape)) for name, shape in self.SHAPES.items()}
        assert tape.backward(out, seeds, out=given) is given
        np.testing.assert_array_equal(given["w"][0], tape.backward(out, seeds[0])["w"])
        with pytest.raises(ContractError, match=r"out\['v'\]"):
            tape.backward(out, seeds, out={**given, "v": np.empty((3, 5))})

    @pytest.mark.parametrize("shape", [(4,), (4, 1), (3, 4), (2, 4, 1), (2, 3, 4), (1, 2, 4, 3), ()])
    def test_seed_of_a_wrong_shape_names_both_shapes(self, shape):
        tape, out = self._loss(np.random.default_rng(13))
        with pytest.raises(ContractError) as err:
            tape.backward(out, np.ones(shape))
        assert str(shape) in str(err.value) and "(4, 3)" in str(err.value)


class TestLiveRowsProduct:
    """The weight gradient of ``const @ w`` over the carried rows of its output gradient."""

    @staticmethod
    def _gradient(rng, rows, k, live):
        g = np.zeros((rows, k))
        g[rng.choice(rows, size=live, replace=False)] = rng.uniform(-1.0, 1.0, (live, k))
        return g

    @staticmethod
    def _taped(av, k):
        """``av @ w`` for a (cols, k) parameter w, whose gradient does not depend on its value."""
        tape = Tape()
        return tape, T.matmul(T.as_tensor(av), tape.param("w", np.zeros((av.shape[1], k))))

    @pytest.mark.parametrize("share", [0.002, 0.02, 0.12])
    def test_gathered_product_is_the_full_one_to_rounding_at_coraca_shape(self, share):
        rng = np.random.default_rng(int(share * 1000))
        av = rng.uniform(-1.0, 1.0, (2708, 1433))
        g = self._gradient(rng, 2708, 64, round(share * 2708))
        assert np.count_nonzero(g.any(axis=1)) <= T._LIVE_ROWS * 2708
        full = av.T @ g
        tape, out = self._taped(av, 64)
        np.testing.assert_allclose(tape.backward(out, g)["w"], full, rtol=0, atol=1e-13 * np.abs(full).max())

    @pytest.mark.bitwise
    def test_without_live_rows_the_gradient_is_positive_zeros(self):
        av = np.random.default_rng(5).uniform(-1.0, 1.0, (40, 6))
        tape, out = self._taped(av, 3)
        av[3] = np.nan  # never read
        for g in (np.zeros((40, 3)), np.full((40, 3), -0.0)):
            grad = tape.backward(out, g)["w"]
            assert grad.shape == (6, 3)
            assert grad.tobytes() == np.zeros((6, 3)).tobytes()

    @pytest.mark.bitwise
    @pytest.mark.parametrize("live", [338, 339])
    def test_one_live_row_in_eight_is_the_crossover(self, live):
        rng = np.random.default_rng(6)
        av = rng.uniform(-1.0, 1.0, (8 * 338, 16))
        g = self._gradient(rng, 8 * 338, 64, live)
        rows = np.flatnonzero(g.any(axis=1))
        gathers = live == 338
        expected = av[rows].T @ g[rows] if gathers else av.T @ g
        tape, out = self._taped(av, 64)
        assert tape.backward(out, g)["w"].tobytes() == expected.tobytes()
        # a gathered product never reads a dead row
        av[np.setdiff1d(np.arange(8 * 338), rows)] = np.nan
        assert np.isfinite(tape.backward(out, g)["w"]).all() == gathers


def _carried_seed(rng, shape):
    """A seed with one live row in eight, as many as a carried gradient may have."""
    seed = np.zeros(shape)
    live = rng.choice(shape[0], size=max(shape[0] // 8, 1), replace=False)
    seed[live] = rng.normal(size=(live.size, shape[1]))
    return seed


@pytest.mark.bitwise
class TestRowRules:
    """A gradient carried as (rows, values) through each row rule, against the dense rules."""

    # a (40, 3) tracked input u, and the op under test applied to it
    OPS = {
        "add": lambda u, rng: T.add(u, T.elu(u)),
        "mul": lambda u, rng: T.mul(u, T.as_tensor(rng.normal(size=(40, 3)))),
        "scale": lambda u, rng: T.scale(u, -1.5),
        "scale_rows": lambda u, rng: T.scale_rows(u, T.row_sum(T.elu(u))),
        "concat_cols": lambda u, rng: T.concat_cols(u, T.elu(u)),
        "elu": lambda u, rng: T.elu(u),
        "leaky_relu": lambda u, rng: T.leaky_relu(u, 0.2),
        "row_sum": lambda u, rng: T.row_sum(u),
        "row_log_softmax": lambda u, rng: T.row_log_softmax(u),
        "gather_rows": lambda u, rng: T.gather_rows(u, rng.integers(0, 40, size=90)),
        "segment_sum": lambda u, rng: T.segment_sum(u, rng.integers(0, 48, size=40), 48),
        "segment_mean": lambda u, rng: T.segment_mean(u, rng.permutation(np.r_[np.arange(24), rng.integers(0, 24, 16)]), 24),
        "segment_softmax": lambda u, rng: T.segment_softmax(T.row_sum(u), rng.integers(0, 5, size=40)),
    }

    @pytest.mark.parametrize("name", sorted(OPS))
    def test_row_rule_keeps_the_dense_values(self, name, monkeypatch):
        for trial in range(5):
            rng = np.random.default_rng(trial)
            tape = Tape()
            u = tape.param("u", rng.normal(size=(40, 3)))
            out = T.elu(self.OPS[name](u, np.random.default_rng(100 + trial)))
            seed = _carried_seed(rng, out.shape)
            carried = tape.backward(out, seed)["u"]
            with monkeypatch.context() as dense:
                dense.setattr(T, "_LIVE_ROWS", 0.0)
                np.testing.assert_array_equal(carried, tape.backward(out, seed)["u"])

    def test_a_scalar_loss_without_a_seed_is_swept_dense(self):
        tape = Tape()
        u = tape.param("u", np.random.default_rng(37).normal(size=(60, 3)))
        loss = T.scale(T.sum_all(T.row_sum(T.gather_rows(u, [3, 41]))), 0.5)
        calls = count_rules(tape)
        unseeded = tape.backward(loss)["u"]
        assert calls == {"dense": 4, "rows": 0}
        # the same loss with its seed given: the seed is scanned, and its one row carried up to sum_all
        assert tape.backward(loss, np.ones((1, 1)))["u"].tobytes() == unseeded.tobytes()
        assert calls == {"dense": 7, "rows": 1}

    def test_touched_runs_sum_as_the_dense_rows_do(self):
        """A touched run with three or more live rows sums over its whole run in reduceat's tree."""
        rng = np.random.default_rng(35)
        lengths = set()
        for trial in range(60):
            ids, num_rows = _random_runs(rng)
            if not ids.size:
                continue
            index = T._RunIndex(ids)
            # odd trials touch only runs of at most 8 rows, which _run_sums adds without a run index
            groups = index.unique[index.counts <= 8] if trial % 2 else index.unique
            if not groups.size:
                continue
            live = []
            for group in rng.choice(groups, size=min(4, groups.size), replace=False):
                members = np.flatnonzero(ids == group)
                live.append(rng.choice(members, size=min(members.size, int(rng.integers(3, 12))), replace=False))
                if live[-1].size >= 3:
                    lengths.add(int(np.searchsorted([8, 129], members.size)))
            rows = np.unique(np.concatenate(live))
            g = rng.normal(size=(rows.size, 3))
            runs, values = index.touched(rows, g)
            positions = index.layout(runs)
            dense = np.zeros((ids.size, 3))
            dense[rows] = g
            assert positions.tolist() == [p for run in runs for p in np.flatnonzero(ids == index.unique[run])]
            assert values.tobytes() == dense[positions].tobytes()
            expected = index.sum_into(dense, num_rows)[index.unique[runs]]
            assert T._run_sums(values, index.counts[runs]).tobytes() == expected.tobytes()
        # runs of at most 8 rows, of 9 to 129 rows, and longer ones, each with three or more live rows
        assert lengths == {0, 1, 2}

    def test_a_long_run_among_short_ones_takes_only_their_rows(self):
        """Touched runs are laid out ragged: a hub's long run next to many short ones costs their rows, not runs x longest."""
        rng = np.random.default_rng(36)
        # 3000 runs of one to three rows, and one of 2000 rows, shuffled
        ids = rng.permutation(np.r_[np.repeat(np.arange(3000), rng.integers(1, 4, size=3000)), np.full(2000, 3000)])
        index = T._RunIndex(ids)
        rows = np.sort(np.r_[rng.choice(np.flatnonzero(ids < 3000), size=2900, replace=False), np.flatnonzero(ids == 3000)[:5]])
        g = rng.normal(size=(rows.size, 4))
        runs, values = index.touched(rows, g)
        assert index.layout(runs).size == values.shape[0]
        assert values.shape == (index.counts[runs].sum(), 4) and values.shape[0] <= ids.size
        assert runs[-1] == 3000
        dense = np.zeros((ids.size, 4))
        dense[rows] = g
        expected = index.sum_into(dense, 3001)[index.unique[runs]]
        assert T._run_sums(values, index.counts[runs]).tobytes() == expected.tobytes()
        # through the record: the gather's and the softmax's row rules give the dense values
        tape = Tape()
        u = tape.param("u", rng.normal(size=(3001, 4)))
        for out in (T.gather_rows(u, ids), T.segment_softmax(T.row_sum(T.gather_rows(u, ids)), ids)):
            # every eighth live row of the short runs, and the long run's
            live = np.r_[rows[ids[rows] < 3000][::8], rows[ids[rows] == 3000]]
            assert T._carries(live.size, out.shape[0])
            seed = np.zeros(out.shape)
            seed[live] = rng.normal(size=(live.size, out.shape[1]))
            carried = tape.backward(out, seed)["u"]
            with pytest.MonkeyPatch.context() as dense_sweep:
                dense_sweep.setattr(T, "_LIVE_ROWS", 0.0)
                np.testing.assert_array_equal(carried, tape.backward(out, seed)["u"])


@pytest.mark.bitwise
class TestDerivativeFactors:
    """Elementwise derivative factors are built once per node and reused by every backward pass."""

    @staticmethod
    def _loss(rng):
        tape = Tape()
        w = tape.param("w", rng.uniform(-1.0, 1.0, (6, 4)))
        ids = np.array([0, 2, 1, 0, 2, 2])
        h = T.elu(T.matmul(T.as_tensor(rng.uniform(-1.0, 1.0, (6, 6))), w))
        h = T.segment_mean(T.leaky_relu(h, 0.2), ids, 3)
        return tape, T.row_sum(T.elu(h))

    def test_repeated_backward_passes_equal_a_fresh_tape_byte_for_byte(self, monkeypatch):
        built = {"_d_elu": 0, "_d_leaky_relu": 0}
        for name in built:
            original = getattr(T, name)

            def counting(*args, name=name, original=original):
                built[name] += 1
                return original(*args)

            monkeypatch.setattr(T, name, counting)
        tape, loss = self._loss(np.random.default_rng(3))
        seeds = [np.ones((3, 1))] + list(np.eye(3)[:, :, None]) + [np.ones((3, 1))]
        grads = [tape.backward(loss, seed)["w"] for seed in seeds]
        assert built == {"_d_elu": 2, "_d_leaky_relu": 1}  # two elu nodes, one leaky_relu node
        assert grads[0].tobytes() == grads[-1].tobytes()
        for seed, grad in zip(seeds, grads):
            fresh_tape, fresh_loss = self._loss(np.random.default_rng(3))
            assert grad.tobytes() == fresh_tape.backward(fresh_loss, seed)["w"].tobytes()

    def test_matmul_checks_the_shape_of_a_given_product(self):
        a, b = T.as_tensor(np.ones((3, 2))), T.as_tensor(np.ones((2, 4)))
        assert T.matmul(a, b, product=a.data @ b.data).shape == (3, 4)
        with pytest.raises(ContractError, match="product"):
            T.matmul(a, b, product=np.ones((4, 3)))


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
