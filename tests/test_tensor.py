from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from hgmeta import tensor as T
from hgmeta.data import SyntheticSpec, generate_synthetic, load_dataset, save_dataset
from hgmeta.errors import ContractError, NumericsError, OracleError
from hgmeta.hypergraph import Hypergraph
from hgmeta.tensor import Tape, finite_diff_check
from hgmeta.trainer import TrainSettings, train


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

    @pytest.mark.bitwise
    def test_fan_in_adds_in_reverse_record_order(self):
        # u feeds elu, mul and scale: its gradient is scale's term, plus mul's, plus elu's, in that order
        u = np.random.default_rng(4).uniform(-1.0, 1.0, (3, 2))
        tape, ts = _param_tape(u=u)
        loss = T.sum_all(T.add(T.mul(ts["u"], T.elu(ts["u"])), T.scale(ts["u"], 0.3)))
        h = T.elu(T.as_tensor(u)).data
        expected = (np.full(u.shape, 0.3) + h) + u * T._d_elu(u, h)
        assert tape.backward(loss)["u"].tobytes() == expected.tobytes()

    @pytest.mark.bitwise
    def test_a_scalar_loss_seeded_with_ones_keeps_the_unseeded_bits(self):
        tape = Tape()
        u = tape.param("u", np.random.default_rng(37).normal(size=(60, 3)))
        loss = T.scale(T.sum_all(T.row_sum(T.gather_rows(u, [3, 41]))), 0.5)
        unseeded = tape.backward(loss)["u"]
        assert np.count_nonzero(unseeded.any(axis=1)) == 2
        assert tape.backward(loss, np.ones((1, 1)))["u"].tobytes() == unseeded.tobytes()

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

    def test_a_hub_run_among_short_ones_sums_as_reduceat(self):
        """One run of 2000 rows among 3000 of one to three: split levels next to thousands of tail-only leaves."""
        rng = np.random.default_rng(36)
        ids = rng.permutation(np.r_[np.repeat(np.arange(3000), rng.integers(1, 4, size=3000)), np.full(2000, 3000)])
        values = _signed_zero_values(rng, ids.size, 4)
        assert T._RunIndex(ids).sum_into(values, 3001).tobytes() == _reduceat_sum(ids, values, 3001).tobytes()
        # a sparse seed, as one sample's gradient is: every eighth row of the short runs, and a few of the hub's
        live = np.r_[np.flatnonzero(ids < 3000)[::8], np.flatnonzero(ids == 3000)[:5]]
        seed = np.zeros((ids.size, 4))
        seed[live] = rng.normal(size=(live.size, 4))
        tape = Tape()
        u = tape.param("u", rng.normal(size=(3001, 4)))
        grad = tape.backward(T.gather_rows(u, ids), seed)["u"]
        assert grad.tobytes() == _reduceat_sum(ids, seed, 3001).tobytes()
        scores = rng.normal(size=(ids.size, 1)) * 3.0
        tape = Tape()
        soft = T.segment_softmax(tape.param("s", scores), ids)
        d_scores = tape.backward(soft, seed[:, :1])["s"]
        ref_out, ref_grad = self._reduceat_softmax(scores[:, 0], ids, seed[:, :1])
        assert soft.data.tobytes() == ref_out.tobytes()
        assert d_scores.tobytes() == ref_grad.tobytes()

    def test_gathered_segment_mean_equals_taped_composition(self):
        rng = np.random.default_rng(34)
        values = _signed_zero_values(rng, 30, 150)  # more than one column block
        rows = rng.integers(0, 30, size=400)
        ids = np.r_[rng.integers(0, 12, size=388), np.arange(12)]
        composed = T.segment_mean(T.gather_rows(T.as_tensor(values), rows), ids, 12).data
        assert T.gathered_segment_mean(values, rows, ids, 12).tobytes() == composed.tobytes()


def _short_runs(rng, longest, num_runs):
    """Ids in random order for ``num_runs`` runs of 1 to ``longest`` rows each, and some ids without rows."""
    lengths = rng.integers(1, longest + 1, size=num_runs)
    lengths[: min(num_runs, longest)] = np.arange(1, min(num_runs, longest) + 1)  # every length present
    num_rows = num_runs + 3
    return rng.permutation(np.repeat(rng.permutation(num_rows)[:num_runs], lengths)), num_rows


def _reduceat_max(ids, values, num_rows):
    """Per-id maxima by ``np.maximum.reduceat`` over the stably sorted rows; -inf for an id without rows."""
    out = np.full((num_rows, values.shape[1]), -np.inf)
    order = np.argsort(ids, kind="stable")
    if ids.size:
        starts = np.flatnonzero(np.r_[True, ids[order][1:] != ids[order][:-1]])
        out[ids[order][starts]] = np.maximum.reduceat(values[order], starts, axis=0)
    return out


@pytest.mark.bitwise
class TestShortRuns:
    """An index whose runs have at most 8 rows sums and takes maxima without a scratch, with reduceat's bytes."""

    @staticmethod
    def _assert_reduceat_bytes(ids, num_rows, rng):
        index = T._RunIndex(ids)
        for d in (1, 3, 64):
            values = _signed_zero_values(rng, ids.size, d)
            assert index.sum_into(values, num_rows).tobytes() == _reduceat_sum(ids, values, num_rows).tobytes()
            assert index.max_into(values, num_rows).tobytes() == _reduceat_max(ids, values, num_rows).tobytes()
            table = _signed_zero_values(rng, 40, d)
            take = rng.integers(0, 40, size=ids.size)
            taken = index.sum_into(table, num_rows, take=take)
            assert taken.tobytes() == _reduceat_sum(ids, table[take], num_rows).tobytes()
        # only signed zeros: a run without a tail keeps its head's sign, and -0.0 sums stay -0.0
        zeros = np.where(rng.random((ids.size, 4)) < 0.5, 0.0, -0.0)
        assert index.sum_into(zeros, num_rows).tobytes() == _reduceat_sum(ids, zeros, num_rows).tobytes()
        assert index.max_into(zeros, num_rows).tobytes() == _reduceat_max(ids, zeros, num_rows).tobytes()

    @pytest.mark.parametrize("longest", range(1, 9))
    def test_runs_of_at_most_8_rows_take_the_short_path_with_reduceat_bytes(self, longest):
        rng = np.random.default_rng(70 + longest)
        for num_runs in (1, 5, 300):
            ids, num_rows = _short_runs(rng, longest, num_runs)
            index = T._RunIndex(ids)
            assert not index._blocks and not index._levels
            self._assert_reduceat_bytes(ids, num_rows, rng)

    def test_a_run_of_9_rows_takes_the_block_path_and_one_of_8_does_not(self):
        rng = np.random.default_rng(79)
        for longest, blocks in ((8, False), (9, True)):
            short = np.repeat(np.arange(1, 50), rng.integers(1, 8, size=49))
            ids = rng.permutation(np.r_[np.repeat(0, longest), short])
            assert bool(T._RunIndex(ids)._blocks) is blocks
            self._assert_reduceat_bytes(ids, 52, rng)

    def test_no_ids_and_runs_of_one_row(self):
        rng = np.random.default_rng(80)
        self._assert_reduceat_bytes(np.zeros(0, dtype=np.int64), 3, rng)
        self._assert_reduceat_bytes(rng.permutation(20), 23, rng)

    def test_gathered_segment_mean_over_short_runs(self):
        rng = np.random.default_rng(81)
        values = _signed_zero_values(rng, 30, 150)  # more than one column block
        ids = rng.permutation(np.repeat(np.arange(12), np.r_[np.arange(1, 9), [8, 3, 1, 2]]))
        rows = rng.integers(0, 30, size=ids.size)
        counts = np.bincount(ids, minlength=12).astype(np.float64)[:, None]
        assert not T._RunIndex(ids)._blocks
        got = T.gathered_segment_mean(values, rows, ids, 12)
        assert got.tobytes() == (_reduceat_sum(ids, values[rows], 12) / counts).tobytes()

    def test_cora_ca_shaped_incidence_takes_the_short_path(self, monkeypatch):
        """Node degrees of at most 8 and edge sizes of at most 6: all four run indexes sum without a scratch.

        The benchmark's graph: its structure does not depend on the feature width.
        """
        g = generate_synthetic(SyntheticSpec(nodes=2708, hyperedges=1072, dim=7, classes=7), 0).graph
        arrays = g.incidence_arrays()
        assert arrays["node_degrees"].max() <= 8 and arrays["edge_sizes"].max() <= 6
        fills = []

        class Watching:
            def __getattr__(self, name):
                return getattr(np, name)

            def full(self, *args, **kwargs):
                fills.append(args[0])
                return np.full(*args, **kwargs)

        values = np.ones((arrays["pair_nodes"].size, 3))
        for name in ("member_nodes", "member_edges", "pair_nodes", "pair_edges"):
            index = T._run_index(arrays[name])
            assert not index._blocks and not index._levels and index._tails, name
            monkeypatch.setattr(T, "np", Watching())
            index.sum_into(values, g.num_nodes)
            monkeypatch.setattr(T, "np", np)
        assert fills == []


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
            tape.constant(arr) if i == constant else tape.param(f"p{i}", arr) for i, arr in enumerate(arrays)
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
        _, _, grad_fn, _ = next(rec for rec in tape._records if rec[0] == out.idx)
        op_grads = grad_fn(np.ones(out.shape))
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

    @pytest.mark.parametrize("source", ["generated", "loaded"])
    def test_validation_scans_dataset_features_for_every_later_forward(self, tmp_path, monkeypatch, source):
        ds = generate_synthetic(SyntheticSpec(nodes=30, hyperedges=20, dim=4, classes=2), seed=0)
        if source == "loaded":
            save_dataset(ds, tmp_path)
            ds = load_dataset(tmp_path)
        counting = _CountingNumpy(ds.features)
        monkeypatch.setattr(T, "np", counting)
        train(ds, TrainSettings(steps=1, hidden=4, mwn_hidden=4))
        assert counting.scans == 0


@pytest.mark.bitwise
class TestCopiesAreNotScanned:
    """Pure copies skip the finiteness scan, since each output entry is an operand entry that was scanned."""

    COPIES = {
        "gather_rows": lambda a, b: T.gather_rows(a, [2, 0, 2, 1]),
        "concat_cols": T.concat_cols,
        "slice_cols": lambda a, b: T.slice_cols(a, 1, 3),
    }

    def test_every_skipped_op_has_a_case(self):
        assert set(self.COPIES) == T._COPIES

    @pytest.mark.parametrize("op", sorted(COPIES))
    def test_copies_of_extreme_finite_entries_are_finite_entries_of_their_operands(self, op, monkeypatch):
        scanned = []
        original = T._finite
        monkeypatch.setattr(T, "_finite", lambda name, a: scanned.append(name) or original(name, a))
        a = np.array([[1.7e308, -1.7e308, 0.0], [-1.7e308, -0.0, 1.7e308], [5e-324, 1.7e308, -1.7e308]])
        b = -a[:, ::-1].copy()
        tape = Tape()
        out = self.COPIES[op](tape.param("a", a), tape.param("b", b))
        assert scanned == []
        assert np.isfinite(out.data).all()
        assert np.isin(out.data, np.r_[a.ravel(), b.ravel()]).all()

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_an_overflow_before_a_copy_is_named_where_it_happens(self):
        big = T.as_tensor(np.full((3, 2), 1.7e308))
        with pytest.raises(NumericsError, match=r"^mul produced non-finite values, shape \(3, 2\)$") as caught:
            T.gather_rows(T.mul(big, big), [0, 2])
        assert (caught.value.op, caught.value.shape) == ("mul", (3, 2))


class TestTensorScan:
    """Every way to make a Tensor from data scans it; op outputs, scanned in ``_emit``, are not scanned again."""

    MAKERS = {
        "Tensor": T.Tensor,
        "as_tensor": T.as_tensor,
        "constant": lambda a: Tape().constant(a),
        "param": lambda a: Tape().param("p", a),
    }

    @pytest.mark.parametrize("make", sorted(MAKERS))
    def test_non_finite_or_non_matrix_data_is_refused(self, make):
        # an unscanned inf would pass the copies, which do not scan their outputs
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(NumericsError, match="non-finite values in tensor data"):
                self.MAKERS[make](np.array([[bad, 1.0]]))
        with pytest.raises(ContractError, match="tensors are 2-D, got ndim=1"):
            self.MAKERS[make](np.ones(2))
        made = self.MAKERS[make]([[1, 2]])
        assert made.data.dtype == np.float64 and made.data.tolist() == [[1.0, 2.0]]

    def test_op_outputs_are_not_scanned_again(self, monkeypatch):
        rng = np.random.default_rng(21)
        tape = Tape()
        a, b = tape.param("a", rng.normal(size=(3, 2))), tape.param("b", rng.normal(size=(2, 2)))
        verdicts = []
        monkeypatch.setattr(T, "all_finite", lambda values: verdicts.append(values) or True)
        h = T.elu(T.matmul(a, b))
        pairs = T.concat_cols(T.gather_rows(h, [2, 0]), T.gather_rows(T.slice_cols(T.mul(h, h), 0, 1), [1, 1]))
        tape.backward(T.sum_all(T.segment_sum(T.scale(pairs, 2.0), [0, 1], 2)))
        assert verdicts == []


class TestIdDtypes:
    """Ids of a non-integer dtype are refused before any cast, so none is truncated to a row it does not name."""

    FLOAT_IDS = {
        "gather_rows": lambda a: T.gather_rows(a, [1.7]),
        "segment_sum": lambda a: T.segment_sum(a, [0.2, 1.9, 1.0, 0.5], 2),
        "segment_mean": lambda a: T.segment_mean(a, [0.2, 1.9, 1.0, 0.5], 2),
        "segment_softmax": lambda a: T.segment_softmax(T.slice_cols(a, 0, 1), [0.2, 1.9, 1.0, 0.5]),
        "gathered_segment_mean-rows": lambda a: T.gathered_segment_mean(a.data, [0.0, 1.0], [0, 1], 2),
        "gathered_segment_mean-ids": lambda a: T.gathered_segment_mean(a.data, [0, 1], [0.0, 1.0], 2),
    }

    @pytest.mark.parametrize("call", sorted(FLOAT_IDS))
    def test_float_ids_are_refused(self, call):
        with pytest.raises(ContractError, match="must be integers, got dtype float64"):
            self.FLOAT_IDS[call](T.as_tensor(np.arange(8.0).reshape(4, 2)))

    def test_integer_bool_and_empty_ids_pass(self):
        a = T.as_tensor(np.arange(8.0).reshape(4, 2))
        for ids in (np.array([3, 1], dtype=np.uint8), np.array([3, 1], dtype=np.int32), [3, 1]):
            np.testing.assert_array_equal(T.gather_rows(a, ids).data, a.data[[3, 1]])
        np.testing.assert_array_equal(T.gather_rows(a, np.array([False, True])).data, a.data[[0, 1]])
        assert T.gather_rows(a, np.zeros(0)).shape == (0, 2)
        assert T.gather_rows(a, []).shape == (0, 2)
        summed = T.segment_sum(a, np.array([1, 0, 1, 0], dtype=np.uint16), 2)
        np.testing.assert_array_equal(summed.data, [[8.0, 10.0], [4.0, 6.0]])
        assert T.segment_softmax(T.as_tensor(np.zeros((0, 1))), np.zeros(0)).shape == (0, 1)

    def test_out_of_range_ids_are_refused_on_every_call_of_a_frozen_array(self):
        ids = np.frombuffer(np.array([0, 1, 2]).tobytes(), dtype=np.int64)
        a = T.as_tensor(np.ones((3, 1)))
        assert T.gather_rows(a, ids).shape == (3, 1)
        for _ in range(2):
            with pytest.raises(ContractError, match="gather_rows ids out of range"):
                T.gather_rows(T.as_tensor(np.ones((2, 1))), ids)
            with pytest.raises(ContractError, match="segment ids out of range"):
                T.segment_sum(a, ids, 2)


class TestSeveralRoots:
    """``Tape.backward`` sweeps once from several seeded outputs."""

    @pytest.mark.bitwise
    def test_two_roots_fan_in_in_one_sweep(self):
        # h feeds both roots, and the first root is seeded twice
        rng = np.random.default_rng(14)
        u = rng.uniform(-1.0, 1.0, (3, 2))
        s1, s2, s3 = rng.uniform(-1.0, 1.0, (3, 3, 2))
        tape, ts = _param_tape(u=u)
        h = T.elu(ts["u"])
        first, second = T.mul(h, ts["u"]), T.scale(h, 0.3)
        grads = tape.backward([(first, s1), (second, s2), (first, s3)])
        # reverse record order: scale's term reaches h before mul's, and the seeds of one output add first
        g = s1 + s3
        expected = g * h.data + (s2 * 0.3 + g * u) * T._d_elu(u, h.data)
        assert grads["u"].tobytes() == expected.tobytes()

    @staticmethod
    def _out(rng):
        tape = Tape()
        w = tape.param("w", rng.uniform(-1.0, 1.0, (5, 3)))
        return tape, T.matmul(_const(rng, (4, 5)), w)

    @pytest.mark.parametrize("shape", [(4,), (4, 1), (3, 4), (2, 4, 1), (2, 3, 4), (1, 2, 4, 3), ()])
    def test_seed_of_a_wrong_shape_names_both_shapes(self, shape):
        tape, out = self._out(np.random.default_rng(13))
        for roots in ((out, np.ones(shape)), ([(out, np.ones((4, 3))), (out, np.ones(shape))],)):
            with pytest.raises(ContractError) as err:
                tape.backward(*roots)
            assert str(shape) in str(err.value) and "(4, 3)" in str(err.value)

    def test_a_seed_beside_several_roots_is_refused(self):
        tape, out = self._out(np.random.default_rng(15))
        with pytest.raises(ContractError, match="pairs"):
            tape.backward([(out, np.ones((4, 3)))], np.ones((4, 3)))

    @pytest.mark.parametrize("second", ["other-tape", "constant"])
    def test_a_second_root_off_the_tape_is_refused(self, second):
        rng = np.random.default_rng(16)
        tape, out = self._out(rng)
        stray = self._out(rng)[1] if second == "other-tape" else _const(rng, (4, 3))
        # a constant belongs to no tape
        with pytest.raises(ContractError, match="does not belong"):
            tape.backward([(out, np.ones((4, 3))), (stray, np.ones((4, 3)))])

    @pytest.mark.bitwise
    def test_one_root_in_a_sequence_keeps_the_bits_of_the_lone_root(self):
        rng = np.random.default_rng(17)
        tape, out = self._out(rng)
        seed = rng.normal(size=(4, 3))
        assert tape.backward([(out, seed)])["w"].tobytes() == tape.backward(out, seed)["w"].tobytes()
        loss = T.sum_all(T.elu(out))
        assert tape.backward([(loss, None)])["w"].tobytes() == tape.backward(loss)["w"].tobytes()

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
    def test_column_seeds_weigh_the_rows_of_two_roots(self, n, p):
        # roots A @ w and B @ w have the per-sample gradient rows A and B; seeds alpha and beta weigh them
        rng = np.random.default_rng(n * 100_003 + p)
        rows1, rows2 = self._with_signed_zeros(rng, (n, p)), self._with_signed_zeros(rng, (n, p))
        seeds = rng.normal(size=(n, 2))
        seeds[1::3, 0], seeds[2::3, 1] = -0.0, 0.0
        alpha, beta = seeds[:, :1], seeds[:, 1:]
        tape = Tape()
        w = tape.param("w", rng.normal(size=(p, 1)))
        first, second = T.matmul(T.as_tensor(rows1), w), T.matmul(T.as_tensor(rows2), w)
        got = tape.backward([(first, alpha), (second, beta)])["w"]
        # reverse record order: the second root's term comes first
        assert got.tobytes() == (rows2.T @ beta + rows1.T @ alpha).tobytes()
        weighted_rows = (alpha * rows1 + beta * rows2).sum(axis=0)[:, None]
        scale = np.abs(rows1).T @ np.abs(alpha) + np.abs(rows2).T @ np.abs(beta)
        assert np.all(np.abs(got - weighted_rows) <= 1e-12 * max(float(scale.max()), 1.0))


def _const(rng, shape):
    return T.as_tensor(rng.normal(size=shape))


class TestTangentRules:
    """Each primitive's tangent rule is the adjoint of its dense rule: ``v . jvp(t) == vjp(v) . t``."""

    # primitive -> (shapes of its tracked inputs, the op on them); a "const" case leaves one operand untracked
    CASES = {
        "matmul": ({"a": (5, 4), "b": (4, 3)}, lambda t, rng: T.matmul(t["a"], t["b"])),
        "matmul-const": ({"b": (4, 3)}, lambda t, rng: T.matmul(_const(rng, (5, 4)), t["b"])),
        "add": ({"a": (5, 3), "b": (5, 3)}, lambda t, rng: T.add(t["a"], t["b"])),
        "add-row-broadcast": ({"a": (5, 3), "b": (1, 3)}, lambda t, rng: T.add(t["a"], t["b"])),
        "sub": ({"a": (5, 3), "b": (5, 3)}, lambda t, rng: T.sub(t["a"], t["b"])),
        "mul": ({"a": (5, 3), "b": (5, 3)}, lambda t, rng: T.mul(t["a"], t["b"])),
        "mul-const": ({"a": (5, 3)}, lambda t, rng: T.mul(t["a"], _const(rng, (5, 3)))),
        "scale": ({"a": (5, 3)}, lambda t, rng: T.scale(t["a"], -1.7)),
        "scale_rows": ({"a": (5, 3), "c": (5, 1)}, lambda t, rng: T.scale_rows(t["a"], t["c"])),
        "concat_cols": ({"a": (5, 2), "b": (5, 3)}, lambda t, rng: T.concat_cols(t["a"], t["b"])),
        "slice_cols": ({"a": (5, 4)}, lambda t, rng: T.slice_cols(t["a"], 1, 3)),
        "gather_rows": ({"a": (6, 3)}, lambda t, rng: T.gather_rows(t["a"], rng.integers(0, 6, size=9))),
        "row_sum": ({"a": (5, 3)}, lambda t, rng: T.row_sum(t["a"])),
        "sum_all": ({"a": (5, 3)}, lambda t, rng: T.sum_all(t["a"])),
        "elu": ({"a": (5, 3)}, lambda t, rng: T.elu(t["a"])),
        "leaky_relu": ({"a": (5, 3)}, lambda t, rng: T.leaky_relu(t["a"], 0.2)),
        "sigmoid": ({"a": (5, 3)}, lambda t, rng: T.sigmoid(t["a"])),
        "log1p": ({"a": (5, 3)}, lambda t, rng: T.log1p(t["a"])),
        "row_log_softmax": ({"a": (5, 4)}, lambda t, rng: T.row_log_softmax(t["a"])),
        "segment_sum": ({"a": (8, 3)}, lambda t, rng: T.segment_sum(t["a"], rng.integers(0, 4, size=8), 4)),
        "segment_mean": ({"a": (8, 3)}, lambda t, rng: T.segment_mean(t["a"], rng.permutation(np.r_[0:4, 0:4]), 4)),
        "segment_softmax": ({"a": (8, 1)}, lambda t, rng: T.segment_softmax(t["a"], rng.integers(0, 3, size=8))),
    }
    TOLERANCE = 1e-12

    def test_every_primitive_has_a_case(self):
        primitives = {name.split("-")[0] for name in self.CASES}
        assert len(primitives) == 19 and all(callable(getattr(T, name)) for name in primitives)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_tangent_is_the_adjoint_of_the_backward_rule(self, name):
        shapes, op = self.CASES[name]
        for trial in range(4):
            rng = np.random.default_rng(trial)
            tape = Tape()
            # log1p needs entries above -1
            inputs = {key: tape.param(key, rng.uniform(-0.9, 2.0, shape)) for key, shape in shapes.items()}
            out = op(inputs, np.random.default_rng(50 + trial))
            v = rng.normal(size=out.shape)
            vjp = tape.backward(out, v)
            # every subset of the inputs carries a tangent, the others count as zero
            for given in [list(shapes)] + ([[key] for key in shapes] if len(shapes) > 1 else []):
                t = {key: rng.normal(size=shapes[key]) for key in given}
                (jvp,) = tape.jvp([out], t)
                assert jvp.shape == out.shape
                lhs, rhs = float((v * jvp).sum()), sum(float((vjp[key] * t[key]).sum()) for key in given)
                scale = max(float((np.abs(v) * np.abs(jvp)).sum()), sum(float((np.abs(vjp[k]) * np.abs(t[k])).sum()) for k in given))
                assert abs(lhs - rhs) <= self.TOLERANCE * scale, (given, lhs, rhs)


    def test_tapes_of_every_primitive_are_freed_without_the_cyclic_collector(self):
        # a rule that held a Tensor would hold its tape: a cycle through Tensor.tape
        def taped(name):
            shapes, op = self.CASES[name]
            rng = np.random.default_rng(0)
            tape = Tape()
            out = op({key: tape.param(key, rng.uniform(-0.9, 2.0, shape)) for key, shape in shapes.items()}, rng)
            tape.backward(out, np.ones(out.shape))
            tape.jvp([out], {key: np.ones(shape) for key, shape in shapes.items()})
            return weakref.ref(tape)

        was_enabled = gc.isenabled()
        gc.disable()
        try:
            assert [name for name in self.CASES if taped(name)() is not None] == []
        finally:
            if was_enabled:
                gc.enable()


class TestJvp:
    """One forward-mode sweep over the records of a tape."""

    @staticmethod
    def _tape(rng):
        tape = Tape()
        w, v = tape.param("w", rng.normal(size=(4, 3))), tape.param("v", rng.normal(size=(3, 2)))
        x = _const(rng, (6, 4))
        h = T.elu(T.matmul(x, w))
        labels = tape.constant(rng.normal(size=(6, 2)))
        out = T.row_sum(T.mul(T.matmul(h, v), labels))
        return tape, out, h

    def test_tangent_is_the_directional_derivative(self):
        rng = np.random.default_rng(3)
        tape, out, _ = self._tape(rng)
        t = {"w": rng.normal(size=(4, 3)), "v": rng.normal(size=(3, 2))}
        (tangent,) = tape.jvp([out], t)
        # one backward pass per row of the column: J t row by row
        rows = [sum(float((g * t[k]).sum()) for k, g in tape.backward(out, np.eye(6)[:, [j]]).items()) for j in range(6)]
        np.testing.assert_allclose(tangent[:, 0], rows, rtol=1e-12)

    def test_an_output_no_tangent_reaches_reads_zeros(self):
        rng = np.random.default_rng(4)
        tape, out, h = self._tape(rng)
        # h reads only w; a tangent on v alone does not reach it
        tangent_out, tangent_h = tape.jvp([out, h], {"v": rng.normal(size=(3, 2))})
        assert np.any(tangent_out != 0.0)
        assert tangent_h.shape == h.shape and not np.any(tangent_h)

    def test_rejects_unknown_names_wrong_shapes_and_foreign_outputs(self):
        rng = np.random.default_rng(5)
        tape, out, _ = self._tape(rng)
        with pytest.raises(ContractError, match="unknown parameter 'u'"):
            tape.jvp([out], {"u": np.ones((4, 3))})
        with pytest.raises(ContractError, match=r"\(3, 4\), expected \(4, 3\)"):
            tape.jvp([out], {"w": np.ones((3, 4))})
        other, other_out, _ = self._tape(rng)
        with pytest.raises(ContractError, match="this tape"):
            tape.jvp([other_out], {"w": np.ones((4, 3))})

    def test_a_constant_times_a_tangent_is_computed_once_per_sweep(self):
        """A ``const @ w`` node that two records read computes its tangent once per sweep."""
        rng = np.random.default_rng(6)
        tape = Tape()
        w = tape.param("w", rng.normal(size=(4, 3)))
        x = _const(rng, (6, 4))
        product = T.matmul(x, w)
        out = T.add(T.elu(product), T.sigmoid(product))
        made = []
        idx, in_idxs, grad_fn, tangent_fn = tape._records[0]
        tape._records[0] = (idx, in_idxs, grad_fn, lambda *ts: made.append(idx) or tangent_fn(*ts))
        t = {"w": rng.normal(size=(4, 3))}
        for _ in range(2):
            (tangent,) = tape.jvp([out], t)
        assert made == [product.idx] * 2  # once in each sweep
        # two records of the one product give the same bits
        alone = Tape()
        w2 = alone.param("w", w.data)
        expected = T.add(T.elu(T.matmul(x, w2)), T.sigmoid(T.matmul(x, w2)))
        np.testing.assert_array_equal(tangent, alone.jvp([expected], t)[0])


class TestUnitSeeds:
    """Unit seeds, one backward call each, as the per-sample reference rows take them, through each primitive."""

    TOLERANCE = 1e-12

    @pytest.mark.parametrize("name", sorted(TestTangentRules.CASES))
    def test_unit_seed_rows_are_the_jacobian_the_tangent_rules_give(self, name):
        shapes, op = TestTangentRules.CASES[name]
        rng = np.random.default_rng(8)
        tape = Tape()
        inputs = {key: tape.param(key, rng.uniform(-0.9, 2.0, shape)) for key, shape in shapes.items()}
        # elu on top: every seed passes a derivative factor that all the sweeps share
        out = T.elu(op(inputs, np.random.default_rng(58)))
        m = out.data.size
        passes = [tape.backward(out, seed) for seed in np.eye(m).reshape(m, *out.shape)]
        for key, shape in shapes.items():
            jacobian = np.stack([grads[key] for grads in passes]).reshape(m, -1)
            assert np.any(jacobian)
            columns = []
            for j in range(jacobian.shape[1]):
                t = np.zeros(jacobian.shape[1])
                t[j] = 1.0
                (tangent,) = tape.jvp([out], {key: t.reshape(shape)})
                columns.append(tangent.ravel())
            np.testing.assert_allclose(
                jacobian, np.stack(columns, axis=1), rtol=0, atol=self.TOLERANCE * np.abs(jacobian).max()
            )


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


def _select_elu(x):
    """Reference: elu and its factor by the two-sided select, ``x`` where ``x > 0``, else ``expm1(x)``."""
    out = np.where(x > 0.0, x, np.expm1(np.minimum(x, 0.0)))
    return out, np.where(x > 0.0, 1.0, out + 1.0)


@pytest.mark.bitwise
class TestEluBits:
    """``elu`` and its factor, computed without a select, have the bits of the two-sided formula."""

    EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e-17, -1e-17, -1e-8, -36.0, -745.0, -800.0, 1e308, -1e308]

    @classmethod
    def _inputs(cls):
        rng = np.random.default_rng(90)
        magnitudes = 10.0 ** rng.uniform(-200.0, np.log10(300.0), size=10_000)
        random = np.where(rng.random(10_000) < 0.5, -1.0, 1.0) * magnitudes
        edges = np.array(cls.EDGES)
        # the edge values alone, and spread among the random ones at every offset of a vector lane
        return [edges[:, None], np.r_[np.tile(edges, 8), random].reshape(-1, 8), random[:, None]]

    def test_untaped_elu_equals_the_select(self):
        for x in self._inputs():
            assert T.elu(T.as_tensor(x)).data.tobytes() == _select_elu(x)[0].tobytes()

    def test_taped_elu_and_its_factor_equal_the_select(self):
        for x in self._inputs():
            want, factor = _select_elu(x)
            assert T._d_elu(x, want).tobytes() == factor.tobytes()
            tape = Tape()
            out = T.elu(tape.param("x", x))
            assert out.data.tobytes() == want.tobytes()
            # a unit seed and a unit tangent read the factor itself
            assert tape.backward(out, np.ones(x.shape))["x"].tobytes() == factor.tobytes()
            assert tape.jvp([out], {"x": np.ones(x.shape)})[0].tobytes() == factor.tobytes()


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
    return tape, T.scale(T.sum_all(T.mul(logp, tape.constant(onehot))), -1.0)


@_case("log1p_row_sum")
def _build_log1p(params):
    tape, ts = _param_tape(**params)
    shifted = T.add(ts["a"], tape.constant(np.full((1, ts["a"].shape[1]), 2.0)))
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
            hidden = T.elu(T.add(T.matmul(tape.constant(x), ts["w1"]), ts["b1"]))
            logits = T.matmul(hidden, ts["w2"])
            logp = T.row_log_softmax(logits)
            return tape, T.scale(T.sum_all(T.mul(logp, tape.constant(onehot))), -1.0 / 6)

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
