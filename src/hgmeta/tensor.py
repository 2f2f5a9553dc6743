"""Dense 2-D float64 tensors with reverse-mode differentiation.

Everything is a matrix: scalars are (1, 1), vectors are (n, 1) columns.
Operations run eagerly; when an operand is tracked on a Tape, the op also
records a backward closure. A Tape owns a registry of named trainable
parameters and replays its records in reverse to accumulate their gradients.
An operand that was untracked when the op ran (a constant such as the input
features or a label matrix) receives no gradient computation at all: the
closures of ``matmul``, ``mul`` and ``scale_rows`` return ``None`` for it.
The only implicit broadcast allowed anywhere is a (1, n) row added to an
(m, n) matrix; every other shape coercion must be spelled out by the caller.

All public operations police their outputs for NaN/Inf and raise
NumericsError, naming the operation and its output shape, instead of letting
non-finite values propagate. Inputs are scanned as they become tensors; a
frozen array (see ``frozen``) is scanned once and its verdict kept.

Every cache in the package follows one rule, ``derived``: a value built from
one or more frozen arrays is kept while all of them live, held weakly, and
is dropped when any of them dies. The finiteness verdicts, the run indexes
below, a graph's structural coefficients and the layer-0 hyperedge means of
the input features (keyed on the graph and the features) are kept this way.

``matmul`` accepts a product computed ahead (the layer-0 projections that
both branches share). The elementwise derivative factors of ``elu`` and
``leaky_relu`` are built once with a tracked node and reused by every
backward pass through it, so the repeated seeded passes of the per-sample
gradients do not rebuild them; ``segment_mean`` divides by each segment's
count before it spreads the gradient over the segment's rows.

``Tape.backward`` also takes a stack of seeds and sweeps the records once
per seed. One sample's gradient is nonzero only over its receptive field, a
small share of a large graph's rows, so a sweep carries a gradient as
``(rows, values)`` while its rows are at most ``_LIVE_ROWS`` (one in eight)
of its tensor's rows, or one row of a tensor of fewer than 8 rows, such as
one sample's loss in a small batch (see ``_carries``). Only an explicit
seed is scanned for them; from there each record's row rule, kept next to
its dense rule, derives the rows it passes on from the rows it gets and the
op's index arrays, and works on those rows alone. Row-local ops keep their
rows, segment reductions spread them over their segments' runs, grouped
sums sum the touched runs, laid out ragged so that they never take more
than the ids' rows, and a ``matmul`` multiplies only the carried rows, for
its weight gradient too. Ops without a row rule (``sum_all``, a
row-broadcast ``add``, ``slice_cols``, ``sub``, ``sigmoid``, ``log1p``) get
the gradient dense. Every row rule but ``matmul``'s gives the dense rule's
values on its rows, but for the sign of a zero; a product over the carried
rows alone can round differently from the full one, so per-sample gradients
differ from a dense sweep's at rounding level. A ones seed over a training
split of two or more nodes lights more than one row in eight of its loss
column, and a scalar loss backpropagated without a seed is swept dense:
both keep the dense rules' bits.

Grouped sums (the backward of ``gather_rows``, ``segment_sum``,
``segment_mean`` and both sums of ``segment_softmax``) associate exactly as
``np.add.reduceat`` over the stably sorted rows does: each group's first row
plus NumPy's pairwise sum of the rest (see ``_RunIndex``). They are computed
with plain vectorized adds instead, and the run index of a frozen id array
(such as a graph's incidence arrays, see ``frozen``) is built once.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, NumericsError, OracleError

Array = np.ndarray


@dataclass
class Tensor:
    """A float64 matrix, optionally tracked on a tape."""

    data: Array
    tape: "Tape | None" = None
    idx: int | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape  # type: ignore[return-value]


class Tape:
    """Ordered operation record supporting repeated backward passes.

    Records are appended in execution order, so the reversed list is a valid
    reverse-topological order; each record is visited exactly once per
    backward sweep and gradients accumulate additively.
    """

    def __init__(self):
        self._next_idx = 0
        # (out, inputs, dense rule, row rule or None, out rows, input rows)
        self._records: list[tuple[int, tuple[int | None, ...], GradFn, RowFn | None, int, tuple[int, ...]]] = []
        # (idx, shape) only: holding the Tensors would make a cycle through Tensor.tape
        self._params: dict[str, tuple[int, tuple[int, ...]]] = {}

    def _new_idx(self) -> int:
        idx = self._next_idx
        self._next_idx += 1
        return idx

    def param(self, name: str, value: Array) -> Tensor:
        """Register a trainable parameter slot under a unique name."""
        if name in self._params:
            raise ContractError(f"parameter {name!r} already registered")
        t = Tensor(_validated(value), self, self._new_idx())
        self._params[name] = (t.idx, t.shape)
        return t

    def constant(self, value: Array) -> Tensor:
        """A tracked leaf that never receives a gradient."""
        return Tensor(_validated(value), self, None)

    @property
    def param_names(self) -> list[str]:
        return list(self._params)

    def record(self, value: Array, inputs: Sequence[Tensor], grad_fn: GradFn, row_fn: RowFn | None = None) -> Tensor:
        """Append a node: its backward rule on a dense gradient and, where it has one, on carried rows."""
        out = Tensor(value, self, self._new_idx())
        in_rows = tuple(t.shape[0] for t in inputs)
        self._records.append((out.idx, tuple(t.idx for t in inputs), grad_fn, row_fn, value.shape[0], in_rows))
        return out

    def backward(
        self, output: Tensor, seed: Array | None = None, out: dict[str, Array] | None = None
    ) -> dict[str, Array]:
        """Gradients of ``output`` w.r.t. every registered parameter.

        Without a seed the output must be scalar, and the loss it holds is
        swept dense (see ``_sweep_stack``); a seed array of the output's
        shape differentiates the corresponding weighted sum of output
        entries. A stack of seeds, shape ``(s, *output.shape)``,
        gives every parameter an ``(s, *shape)`` stack of gradients, each
        with the bits of a backward pass on that seed alone; ``out``, when
        given, holds those stacks and is filled in place.
        """
        if output.tape is not self:
            raise ContractError("output does not belong to this tape")
        if seed is None:
            if output.shape != (1, 1):
                raise ContractError(f"backward without seed needs a scalar, got shape {output.shape}")
            seeds = np.ones((1, 1))
        else:
            seeds = np.asarray(seed, dtype=np.float64)
            if seeds.ndim not in (2, 3) or seeds.shape[-2:] != output.shape:
                raise ContractError(
                    f"seed of shape {seeds.shape} for an output of shape {output.shape}: "
                    f"expected {output.shape} or (seeds, *{output.shape})"
                )
        if output.idx is None:
            raise ContractError("cannot differentiate an untracked constant")
        stacked = seeds.ndim == 3
        seeds = seeds if stacked else seeds[None]
        if out is None:
            out = {name: np.empty((seeds.shape[0], *shape)) for name, (_, shape) in self._params.items()}
        else:
            for name, (_, shape) in self._params.items():
                given = out[name].shape if name in out else None
                if given != (seeds.shape[0], *shape):
                    raise ContractError(f"out[{name!r}] has shape {given}, expected {(seeds.shape[0], *shape)}")
        self._sweep_stack(output.idx, seeds, out, scan=seed is not None)
        return out if stacked else {name: grads[0] for name, grads in out.items()}

    def _sweep_stack(self, root: int, seeds: Array, out: dict[str, Array], scan: bool) -> None:
        """One reverse sweep per seed, writing seed i's gradients into ``out[name][i]``.

        With ``scan``, a seed whose nonzero rows may be carried (see
        ``_carries``) starts out carried as ``(rows, values)``; the seeds
        are the only arrays the sweep scans. Without it, the seed is a
        scalar loss's, whose gradient reaches the whole graph, and starts
        dense. Each record with a row rule maps carried rows to carried
        rows, and the rest run their dense rule (see ``_add``).
        """
        params = {idx: name for name, (idx, _) in self._params.items()}
        records = self._records[::-1]
        for i, seed in enumerate(seeds):
            grads: dict[int, Grad] = {root: seed}
            if scan:
                live = np.flatnonzero(seed.any(axis=1))
                if _carries(live.size, seed.shape[0]):
                    grads[root] = (live, seed[live])
            for out_idx, in_idxs, grad_fn, row_fn, rows, in_rows in records:
                g = grads.pop(out_idx, None)
                if g is None:
                    continue
                if type(g) is not tuple:
                    in_grads = grad_fn(g)
                elif row_fn is None:
                    in_grads = grad_fn(_dense(g, rows))
                else:
                    in_grads = row_fn(*g)
                for idx, gi, num_rows in zip(in_idxs, in_grads, in_rows):
                    if idx is not None and gi is not None:
                        grads[idx] = _add(grads.get(idx), gi, num_rows)
            for idx, name in params.items():
                g = grads.get(idx, 0.0)
                out[name][i] = _dense(g, out[name].shape[1]) if type(g) is tuple else g


# a gradient is carried as (rows, values) while its live rows are at most this share of its tensor's rows
_LIVE_ROWS = 1 / 8


def _carries(live: int, num_rows: int) -> bool:
    """Whether a gradient over ``live`` of a tensor's ``num_rows`` rows is carried as (rows, values).

    It is while ``live`` is at most ``_LIVE_ROWS`` of the rows, a tensor of
    fewer than 8 rows counting as 8. So one row of a small tensor is
    carried, and one sample's loss in a batch of any size reaches the
    graph's tensors carried.
    """
    return live <= _LIVE_ROWS * max(num_rows, 8)


# a gradient: dense, or carried as (ascending distinct rows, their values)
Grad = Array | tuple[Array, Array]
GradFn = Callable[[Array], Sequence[Grad | None]]
RowFn = Callable[[Array, Array], Sequence[Grad | None]]


def _dense(g: tuple[Array, Array], num_rows: int) -> Array:
    rows, values = g
    full = np.zeros((num_rows, values.shape[1]))
    full[rows] = values
    return full


def _distinct(x: Array) -> Array:
    """The ascending distinct values of ``x``; ``np.unique`` without its overhead on a few values."""
    x = np.sort(x)
    keep = np.empty(x.size, dtype=bool)
    keep[:1] = True
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


def _add(acc: Grad | None, g: Grad, num_rows: int) -> Grad:
    """``acc + g`` for a tensor of ``num_rows`` rows; a carried sum that ``_carries`` refuses is made dense.

    Two carried gradients add over the union of their rows; a carried one
    adds its rows into a copy of a dense one. Each row of the sum is the
    dense sum's row, but for the sign of a zero.
    """
    if acc is None:
        total = g
    elif type(acc) is not tuple and type(g) is not tuple:
        return acc + g
    elif type(acc) is tuple and type(g) is tuple:
        rows = _distinct(np.concatenate((acc[0], g[0])))
        values = np.zeros((rows.size, g[1].shape[1]))
        values[np.searchsorted(rows, acc[0])] = acc[1]
        values[np.searchsorted(rows, g[0])] += g[1]
        total = (rows, values)
    else:
        (rows, values), total = (acc, g) if type(acc) is tuple else (g, acc)
        total = total.copy()
        total[rows] += values
        return total
    if type(total) is tuple and not _carries(total[0].size, num_rows):
        return _dense(total, num_rows)
    return total


def _validated(value) -> Array:
    a = np.asarray(value, dtype=np.float64)
    if a.ndim != 2:
        raise ContractError(f"tensors are 2-D, got ndim={a.ndim}")
    # a frozen array (the input features) is scanned once, not on every pass
    if not derived(a, "finite", lambda: bool(np.all(np.isfinite(a)))):
        raise NumericsError("non-finite values in tensor data")
    return a


def _finite(op: str, a: Array) -> Array:
    if not np.all(np.isfinite(a)):
        raise NumericsError(f"{op} produced non-finite values, shape {a.shape}", op=op, shape=a.shape)
    return a


def _tape_of(*tensors: Tensor) -> Tape | None:
    tape = None
    for t in tensors:
        if t.tape is not None:
            if tape is not None and t.tape is not tape:
                raise ContractError("operands live on different tapes")
            tape = t.tape
    return tape


def _emit(op: str, value: Array, inputs: Sequence[Tensor], grad_fn: GradFn, row_fn: RowFn | None = None) -> Tensor:
    _finite(op, value)
    tape = _tape_of(*inputs)
    if tape is None or all(t.idx is None for t in inputs):
        return Tensor(value, tape, None)
    return tape.record(value, inputs, grad_fn, row_fn)


def as_tensor(value, tape: Tape | None = None) -> Tensor:
    if isinstance(value, Tensor):
        return value
    a = _validated(value)
    return Tensor(a, tape, None)


def column(values) -> Array:
    """Explicit 1-D -> (n, 1) column coercion."""
    a = np.asarray(values, dtype=np.float64)
    if a.ndim != 1:
        raise ContractError("column() expects a 1-D array")
    return a.reshape(-1, 1)


# ---------------------------------------------------------------------------
# primitives


def matmul(a: Tensor, b: Tensor, product: Array | None = None) -> Tensor:
    """``a @ b``; ``product``, when given, is that value already computed.

    A product shared by several nodes (the layer-0 projections of both
    branches) is computed once, while each node still records its own
    backward closure.
    """
    if a.shape[1] != b.shape[0]:
        raise ContractError(f"matmul shape mismatch {a.shape} @ {b.shape}")
    av, bv = a.data, b.data
    if product is None:
        product = av @ bv
    elif product.shape != (a.shape[0], b.shape[1]):
        raise ContractError(f"matmul product of shape {product.shape} given for {a.shape} @ {b.shape}")
    grad_a, grad_b = a.idx is not None, b.idx is not None

    def grad(g: Array):
        return (g @ bv.T if grad_a else None), (av.T @ g if grad_b else None)

    def row_grad(rows: Array, g: Array):
        return ((rows, g @ bv.T) if grad_a else None), (av[rows].T @ g if grad_b else None)

    return _emit("matmul", product, (a, b), grad, row_grad)


def add(a: Tensor, b: Tensor) -> Tensor:
    row_broadcast = b.shape == (1, a.shape[1]) and a.shape[0] != 1
    if not row_broadcast and a.shape != b.shape:
        raise ContractError(f"add shape mismatch {a.shape} + {b.shape}")

    def grad(g: Array):
        gb = g.sum(axis=0, keepdims=True) if row_broadcast else g
        return g, gb

    def row_grad(rows: Array, g: Array):
        return (rows, g), (rows, g)

    return _emit("add", a.data + b.data, (a, b), grad, None if row_broadcast else row_grad)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ContractError(f"sub shape mismatch {a.shape} - {b.shape}")

    def grad(g: Array):
        return g, -g

    return _emit("sub", a.data - b.data, (a, b), grad)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ContractError(f"mul shape mismatch {a.shape} * {b.shape}")
    av, bv = a.data, b.data
    grad_a, grad_b = a.idx is not None, b.idx is not None

    def grad(g: Array):
        return (g * bv if grad_a else None), (g * av if grad_b else None)

    def row_grad(rows: Array, g: Array):
        return ((rows, g * bv[rows]) if grad_a else None), ((rows, g * av[rows]) if grad_b else None)

    return _emit("mul", av * bv, (a, b), grad, row_grad)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def grad(g: Array):
        return (g * c,)

    def row_grad(rows: Array, g: Array):
        return ((rows, g * c),)

    return _emit("scale", a.data * c, (a,), grad, row_grad)


def scale_rows(a: Tensor, c: Tensor) -> Tensor:
    """Multiply row i of ``a`` by the scalar ``c[i, 0]``."""
    if c.shape != (a.shape[0], 1):
        raise ContractError(f"scale_rows needs a ({a.shape[0]}, 1) column, got {c.shape}")
    av, cv = a.data, c.data
    grad_a, grad_c = a.idx is not None, c.idx is not None

    def grad(g: Array):
        return (g * cv if grad_a else None), ((g * av).sum(axis=1, keepdims=True) if grad_c else None)

    def row_grad(rows: Array, g: Array):
        return (
            (rows, g * cv[rows]) if grad_a else None,
            (rows, (g * av[rows]).sum(axis=1, keepdims=True)) if grad_c else None,
        )

    return _emit("scale_rows", av * cv, (a, c), grad, row_grad)


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[0] != b.shape[0]:
        raise ContractError(f"concat_cols row mismatch {a.shape} | {b.shape}")
    na = a.shape[1]

    def grad(g: Array):
        return g[:, :na], g[:, na:]

    def row_grad(rows: Array, g: Array):
        return (rows, g[:, :na]), (rows, g[:, na:])

    return _emit("concat_cols", np.concatenate([a.data, b.data], axis=1), (a, b), grad, row_grad)


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    """Columns ``start:stop`` of ``a``; a slice of every column is ``a`` itself.

    So a gradient reaches ``a`` as its consumers give it, without a copy
    that could change how a later product sums it.
    """
    if not 0 <= start < stop <= a.shape[1]:
        raise ContractError(f"slice_cols [{start}:{stop}] out of range for {a.shape}")
    if stop - start == a.shape[1]:
        return a
    shape = a.shape

    def grad(g: Array):
        full = np.zeros(shape)
        full[:, start:stop] = g
        return (full,)

    return _emit("slice_cols", a.data[:, start:stop].copy(), (a,), grad)


class _RunIndex:
    """Grouped sums over the runs of equal ids, with ``np.add.reduceat``'s bits.

    The rows that share an id form a run, kept in their original order. For
    a run r0, ..., r_{n-1}, ``np.add.reduceat`` over the stably sorted rows
    returns ``r0 + P(r1, ..., r_{n-1})``, each column on its own, where P is
    NumPy's pairwise sum of m rows:

    * below 8 rows, they are added in sequence, starting from -0.0;
    * from 8 to 128 rows, 8 accumulators take rows i, i + 8, i + 16, ... of
      the whole blocks of 8, are combined as
      ``((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7))``, and the rows
      after the last whole block are added in sequence;
    * above 128 rows, P splits at m // 2 rounded down to a multiple of 8 and
      adds the pairwise sums of the two parts.

    The index cuts the rest r1, ..., r_{n-1} of every run into the leaves of
    that tree, parts of at most 128 rows (a run of one row has one empty
    leaf), and evaluates the leaves of all runs together. Leaves are kept in
    two orders, so that those taking part in a step are always a prefix:
    most whole blocks first for the accumulators, longest tail first for the
    in-sequence adds. The splits are then added level by level, deepest
    first, and each run's first row last. A reduction thus makes a bounded
    number of ufunc calls on (leaves, d) slices, whatever the run lengths:
    at most 16 block steps, 7 combining adds, 7 tail steps and one step per
    tree level. Sums equal reduceat's byte for byte (checked against NumPy
    2.4), and a max is exact in any order. The tree is spelled out here, so
    the sums do not depend on how a NumPy build implements reduceat.

    For a carried gradient (see ``Tape._sweep_stack``) the index also lays
    out a few runs whole, run after run (``layout``, ``touched``), so that
    ``_run_sums`` adds each touched run in this same tree.
    """

    __slots__ = (
        "unique", "counts", "_order", "_starts", "_run_at", "_rank",
        "_blocks", "_combined", "_tails", "_levels", "_size", "_heads", "_roots", "_rows",
    )

    def __init__(self, ids: Array):
        order = np.argsort(ids, kind="stable")
        sorted_ids = ids[order]
        starts = np.flatnonzero(np.r_[True, sorted_ids[1:] != sorted_ids[:-1]]) if ids.size else order[:0]
        self.unique = sorted_ids[starts]
        self.counts = np.diff(np.r_[starts, ids.size])
        # each position's run and its rank in the run, for the row rules' layouts
        self._order, self._starts = order, starts
        self._run_at = np.empty(ids.size, dtype=np.int64)
        self._run_at[order] = np.repeat(np.arange(starts.size), self.counts)
        self._rank = np.empty(ids.size, dtype=np.int64)
        self._rank[order] = np.arange(ids.size) - np.repeat(starts, self.counts)
        runs = starts.size
        # cut each run's rest into leaves; tree nodes are numbered as made, the runs' roots first
        base, length, node = starts + 1, self.counts - 1, np.arange(runs)
        leaves, splits, made = [], [], runs
        while True:
            big = length > 128
            leaves.append((base[~big], length[~big], node[~big]))
            if not big.any():
                break
            base, length, parent = base[big], length[big], node[big]
            half = length // 2 - length // 2 % 8
            left = np.arange(made, made + parent.size)
            right = left + parent.size
            made += 2 * parent.size
            splits.append((parent, left, right))
            base, length, node = np.r_[base, base + half], np.r_[half, length - half], np.r_[left, right]
        leaf_base, leaf_len, leaf_node = (np.concatenate(part) for part in zip(*leaves))
        blocks, tails = leaf_len // 8, leaf_len % 8

        # row of each node in the sums: the leaves longest tail first, then the splits
        by_tail = np.argsort(-tails.astype(np.int8), kind="stable")
        slot = np.empty(made, dtype=np.int64)
        slot[leaf_node[by_tail]] = np.arange(leaf_node.size)
        slot[np.concatenate([order[:0]] + [parent for parent, _, _ in splits])] = np.arange(leaf_node.size, made)
        self._size = made

        by_blocks = np.argsort(-blocks.astype(np.int8), kind="stable")
        first, blocks = leaf_base[by_blocks], blocks[by_blocks]
        within = np.arange(8)
        self._blocks = [
            order[first[: np.count_nonzero(blocks > i), None] + 8 * i + within] for i in range(blocks.max(initial=0))
        ]
        self._combined = slot[leaf_node[by_blocks[: np.count_nonzero(blocks)]]]
        first, tails = (leaf_base + leaf_len - tails)[by_tail], tails[by_tail]
        self._tails = [order[first[: np.count_nonzero(tails > j)] + j] for j in range(tails.max(initial=0))]
        self._levels = [(slot[parent], slot[left], slot[right]) for parent, left, right in reversed(splits)]

        run_at = np.full(made, -1)
        run_at[slot[:runs]] = np.arange(runs)
        by_root = run_at[run_at >= 0]
        self._heads, self._rows = order[starts[by_root]], self.unique[by_root]
        # without splits every leaf is a root, and the ascending roots are 0 .. runs - 1
        self._roots = slot[by_root] if splits else slice(0, runs)

    def layout(self, runs: Array) -> Array:
        """The positions of ``runs``, run after run and each in run order.

        The layout is ragged, as long as the runs together, so never longer
        than the ids, however long one run is.
        """
        counts = self.counts[runs]
        return self._order[np.arange(counts.sum()) + np.repeat(self._starts[runs] - np.cumsum(counts) + counts, counts)]

    def touched(self, rows: Array, g: Array) -> tuple[Array, Array]:
        """The ascending runs holding positions ``rows``, and ``g`` laid out over them as ``layout`` lays them.

        The values hold ``g`` at ``rows`` and zeros at the runs' other
        positions, as a dense gradient does.
        """
        run_at = self._run_at[rows]
        runs = _distinct(run_at)
        counts = self.counts[runs]
        starts = np.cumsum(counts) - counts
        values = np.zeros((counts.sum(), g.shape[1]))
        values[starts[np.searchsorted(runs, run_at)] + self._rank[rows]] = g
        return runs, values

    def runs_of(self, ids: Array) -> tuple[Array, Array]:
        """Run numbers of those of the ascending ``ids`` that have rows, and where they are in ``ids``."""
        runs = np.searchsorted(self.unique, ids)
        found = np.flatnonzero(self.unique.take(runs, mode="clip") == ids) if self.unique.size else runs[:0]
        return runs[found], found

    def sum_into(self, values: Array, num_rows: int, take: Array | None = None) -> Array:
        """Per-id sums of ``values`` rows (of ``values[take]`` rows when given) in a (num_rows, d) array."""
        return self._reduce(np.add, -0.0, np.zeros((num_rows, values.shape[1])), values, take)

    def max_into(self, values: Array, num_rows: int) -> Array:
        """Per-id maxima of ``values`` rows; ids without rows read -inf."""
        return self._reduce(np.maximum, -np.inf, np.full((num_rows, values.shape[1]), -np.inf), values, None)

    def _reduce(self, op, neutral: float, out: Array, values: Array, take: Array | None) -> Array:
        def rows(positions: Array) -> Array:
            return values[positions if take is None else take[positions]]

        sums = np.full((self._size, values.shape[1]), neutral)
        if self._blocks:
            acc = rows(self._blocks[0])  # (leaves, 8, d): the 8 accumulators of each leaf
            for positions in self._blocks[1:]:
                _accumulate(op, acc, rows(positions))
            a = [acc[:, k] for k in range(8)]
            sums[self._combined] = op(op(op(a[0], a[1]), op(a[2], a[3])), op(op(a[4], a[5]), op(a[6], a[7])))
        for positions in self._tails:
            _accumulate(op, sums, rows(positions))
        for parents, left, right in self._levels:
            sums[parents] = op(sums[left], sums[right])
        head = rows(self._heads)
        op(head, sums[self._roots], out=head)
        out[self._rows] = head
        return out


def _accumulate(op, acc: Array, x: Array) -> None:
    part = acc[: x.shape[0]]
    op(part, x, out=part)


def _run_sums(values: Array, counts: Array) -> Array:
    """Sums of runs of ``counts`` rows laid out in ``values`` (see ``_RunIndex.layout``), with ``np.add.reduceat``'s bits.

    Runs of at most 8 rows, the common case, are padded with -0.0 to the
    longest, a row per run, which adds nothing, and add their rest in
    sequence from -0.0 and then their first row, as ``_RunIndex`` does. A
    longer run takes reduceat's blocks of 8, so the runs then take a
    ``_RunIndex`` of their own.
    """
    longest = counts.max(initial=1)
    if longest > 8:
        return _RunIndex(np.repeat(np.arange(counts.size), counts)).sum_into(values, counts.size)
    if longest == 1:
        # r0 + -0.0 is r0
        return values
    block = np.full((counts.size, longest, values.shape[1]), -0.0)
    block[np.arange(longest) < counts[:, None]] = values
    # -0.0 + r1 is r1
    rest = block[:, 1].copy()
    for j in range(2, longest):
        rest += block[:, j]
    return block[:, 0] + rest


def _ascending(rows: Array, values: Array) -> tuple[Array, Array]:
    """The carried gradient of ``values`` at the distinct ``rows``, put in ascending row order."""
    order = np.argsort(rows)
    return rows[order], values[order]


def _spread_segments(index: _RunIndex, segments: Array, g: Array) -> tuple[Array, Array]:
    """The carried gradient of a segment reduction's rows: each of ``segments``' rows of ``g`` over its run."""
    runs, found = index.runs_of(segments)
    return _ascending(index.layout(runs), np.repeat(g[found], index.counts[runs], axis=0))


def frozen(a: Array) -> bool:
    """True when ``a`` is read-only over ``bytes``, memory that nothing can write.

    That is a read-only array, or a view of one, whose memory is a ``bytes``
    object: ``setflags(write=True)`` raises on it. A read-only array that
    owns its memory, or views a writeable one, can be made writeable again;
    a read-only memoryview may expose memory that its exporter still writes.
    Neither is frozen.
    """
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            return False
        a = a.base
    return isinstance(a, bytes)


# (ids of the frozen key arrays, kind of value) -> (weakrefs to the arrays, the value)
_derived: dict[tuple[tuple[int, ...], str], tuple[tuple[weakref.ref, ...], object]] = {}


def derived(keys: Array | tuple[Array, ...], kind: str, build: Callable[[], object]):
    """``build()``, kept under ``kind`` while every array of ``keys`` lives, if all are frozen.

    A frozen array (see ``frozen``) cannot change, so a value derived from
    frozen arrays stays valid while they live and is kept no longer: the
    cache holds them only weakly, drops the value when any of them dies, and
    the value must not refer to them. If any key is not frozen, every call
    gets a fresh ``build()``.
    """
    keys = keys if isinstance(keys, tuple) else (keys,)
    if not all(map(frozen, keys)):
        return build()
    slot = (tuple(map(id, keys)), kind)
    hit = _derived.get(slot)
    if hit is not None and all(ref() is key for ref, key in zip(hit[0], keys)):
        return hit[1]

    def forget(dead: weakref.ref) -> None:
        entry = _derived.get(slot)
        if entry is not None and any(ref is dead for ref in entry[0]):
            del _derived[slot]

    value = build()
    _derived[slot] = (tuple(weakref.ref(key, forget) for key in keys), value)
    return value


def _run_index(ids: Array) -> _RunIndex:
    """The run index of ``ids``, built once per frozen array (see ``derived``)."""
    return derived(ids, "run_index", lambda: _RunIndex(ids))


def gather_rows(a: Tensor, ids) -> Tensor:
    ids = _row_ids(ids, a.shape[0])
    num_rows = a.shape[0]
    looked_up: list[_RunIndex] = []  # only if a backward pass runs

    def run_index() -> _RunIndex:
        if not looked_up:
            looked_up.append(_run_index(ids))
        return looked_up[0]

    def grad(g: Array):
        return (run_index().sum_into(g, num_rows),)

    def row_grad(rows: Array, g: Array):
        # the touched rows of ``a``, each summed over its whole run
        index = run_index()
        runs, values = index.touched(rows, g)
        return ((index.unique[runs], _run_sums(values, index.counts[runs])),)

    return _emit("gather_rows", a.data[ids], (a,), grad, row_grad)


def _row_ids(ids, num_rows: int) -> Array:
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ContractError("gather_rows ids must be 1-D")
    if ids.size and (ids.min() < 0 or ids.max() >= num_rows):
        raise ContractError("gather_rows ids out of range")
    return ids


def row_sum(a: Tensor) -> Tensor:
    cols = a.shape[1]

    def grad(g: Array):
        return (np.repeat(g, cols, axis=1),)

    def row_grad(rows: Array, g: Array):
        return ((rows, np.repeat(g, cols, axis=1)),)

    return _emit("row_sum", a.data.sum(axis=1, keepdims=True), (a,), grad, row_grad)


def sum_all(a: Tensor) -> Tensor:
    shape = a.shape

    def grad(g: Array):
        return (np.full(shape, g[0, 0]),)

    return _emit("sum_all", np.full((1, 1), a.data.sum()), (a,), grad)


def _d_elu(x: Array, out: Array) -> Array:
    # for x <= 0, out = exp(x) - 1 so the derivative is out + 1
    return np.where(x > 0.0, 1.0, out + 1.0)


def elu(a: Tensor) -> Tensor:
    x = a.data
    out = np.where(x > 0.0, x, np.expm1(np.minimum(x, 0.0)))
    # built with a tracked node, held in place of x, and reused by every backward pass
    factor = _d_elu(x, out) if a.idx is not None else None

    def grad(g: Array):
        return (g * factor,)

    def row_grad(rows: Array, g: Array):
        return ((rows, g * factor[rows]),)

    return _emit("elu", out, (a,), grad, row_grad)


def _d_leaky_relu(x: Array, slope: float) -> Array:
    return np.where(x > 0.0, 1.0, slope)


def leaky_relu(a: Tensor, slope: float = 0.2) -> Tensor:
    x = a.data
    out = np.where(x > 0.0, x, slope * x)
    factor = _d_leaky_relu(x, slope) if a.idx is not None else None

    def grad(g: Array):
        return (g * factor,)

    def row_grad(rows: Array, g: Array):
        return ((rows, g * factor[rows]),)

    return _emit("leaky_relu", out, (a,), grad, row_grad)


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    out = np.empty_like(x)
    pos = x >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)

    def grad(g: Array):
        return (g * out * (1.0 - out),)

    return _emit("sigmoid", out, (a,), grad)


def log1p(a: Tensor) -> Tensor:
    x = a.data
    if np.any(x <= -1.0):
        raise ContractError("log1p domain requires entries > -1")

    def grad(g: Array):
        return (g / (1.0 + x),)

    return _emit("log1p", np.log1p(x), (a,), grad)


def row_log_softmax(a: Tensor) -> Tensor:
    x = a.data
    shifted = x - x.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    out = shifted - lse
    softmax = np.exp(out)

    def grad(g: Array):
        return (g - softmax * g.sum(axis=1, keepdims=True),)

    def row_grad(rows: Array, g: Array):
        return ((rows, g - softmax[rows] * g.sum(axis=1, keepdims=True)),)

    return _emit("row_log_softmax", out, (a,), grad, row_grad)


def _segment_ids(ids, num_segments: int, count: int) -> Array:
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1 or ids.size != count:
        raise ContractError("segment ids must be 1-D and match the number of rows")
    if ids.size and (ids.min() < 0 or ids.max() >= num_segments):
        raise ContractError("segment ids out of range")
    return ids


def segment_sum(values: Tensor, segment_ids, num_segments: int) -> Tensor:
    ids = _segment_ids(segment_ids, num_segments, values.shape[0])
    index = _run_index(ids)
    out = index.sum_into(values.data, num_segments)

    def grad(g: Array):
        return (g[ids],)

    def row_grad(rows: Array, g: Array):
        return (_spread_segments(index, rows, g),)

    return _emit("segment_sum", out, (values,), grad, row_grad)


def _segment_counts(index: _RunIndex, num_segments: int) -> Array:
    if index.unique.size != num_segments:
        raise ContractError("segment_mean encountered an empty segment")
    counts = np.zeros(num_segments)
    counts[index.unique] = index.counts
    return counts


def segment_mean(values: Tensor, segment_ids, num_segments: int) -> Tensor:
    ids = _segment_ids(segment_ids, num_segments, values.shape[0])
    index = _run_index(ids)
    counts = _segment_counts(index, num_segments)[:, None]
    out = index.sum_into(values.data, num_segments)
    out /= counts

    def grad(g: Array):
        # each row's quotient is the same division as g[ids] / counts[ids], done once per segment
        return ((g / counts)[ids],)

    def row_grad(rows: Array, g: Array):
        return (_spread_segments(index, rows, g / counts[rows]),)

    return _emit("segment_mean", out, (values,), grad, row_grad)


# column block of gathered_segment_mean, the width of a typical hidden layer
_MEAN_BLOCK = 64


def gathered_segment_mean(values: Array, rows, segment_ids, num_segments: int) -> Array:
    """Untaped ``segment_mean(gather_rows(values, rows), ...)`` with its bits.

    The sums read ``values[rows]`` rank by rank, so the gathered rows are
    never held as a whole. Columns are summed independently, so blocks of
    ``_MEAN_BLOCK`` columns give the same bits while keeping every temporary
    small: on wide inputs, freeing a temporary as large as the result lets
    glibc raise its mmap threshold to that size, and later per-step arrays
    below it then stay on the heap and raise the peak RSS of the run.
    """
    rows = _row_ids(rows, values.shape[0])
    ids = _segment_ids(segment_ids, num_segments, rows.size)
    index = _run_index(ids)
    counts = _segment_counts(index, num_segments)[:, None]
    out = np.empty((num_segments, values.shape[1]))
    for lo in range(0, values.shape[1], _MEAN_BLOCK):
        block = slice(lo, lo + _MEAN_BLOCK)
        out[:, block] = index.sum_into(values[:, block], num_segments, rows) / counts
    return _finite("segment_mean", out)


def segment_softmax(scores: Tensor, segment_ids) -> Tensor:
    """Softmax of (k, 1) scores within groups given by segment_ids."""
    if scores.shape[1] != 1:
        raise ContractError("segment_softmax expects a (k, 1) column of scores")
    num_segments = max(int(np.max(segment_ids)) + 1 if len(np.asarray(segment_ids)) else 0, 1)
    ids = _segment_ids(segment_ids, num_segments, scores.shape[0])
    index = _run_index(ids)
    x = scores.data
    e = np.exp(x - index.max_into(x, num_segments)[ids])
    denom = index.sum_into(e, num_segments)
    out = e / denom[ids]

    def grad(g: Array):
        weighted = index.sum_into(g * out, num_segments)
        return (out * (g - weighted[ids]),)

    def row_grad(rows: Array, g: Array):
        # every row of a touched segment, with its sum over the whole segment
        runs, values = index.touched(rows, g)
        positions, counts = index.layout(runs), index.counts[runs]
        share = out[positions]
        weighted = _run_sums(values * share, counts)
        return (_ascending(positions, share * (values - np.repeat(weighted, counts, axis=0))),)

    return _emit("segment_softmax", out, (scores,), grad, row_grad)


# ---------------------------------------------------------------------------
# verification oracle


def central_difference(value_at: Callable[[Array], float], x: Array, eps: float) -> Array:
    """Central-difference gradient of a scalar function of a flat vector.

    Coordinate i is (f(x + eps e_i) - f(x - eps e_i)) / (2 eps). ``value_at``
    must not keep or modify its argument; a non-finite value raises
    OracleError.
    """
    if eps <= 0:
        raise ContractError("eps must be positive")
    grad = np.empty_like(x)
    bumped = x.copy()
    for i in range(x.size):
        bumped[i] += eps
        f_plus = value_at(bumped)
        bumped[i] -= 2 * eps
        f_minus = value_at(bumped)
        bumped[i] = x[i]
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise OracleError("objective evaluated to a non-finite value")
        grad[i] = (f_plus - f_minus) / (2.0 * eps)
    return grad


def finite_diff_check(build, params: dict[str, Array], eps: float = 1e-4) -> float:
    """Max relative error between tape gradients and central differences.

    ``build`` maps a dict of parameter arrays to ``(tape, loss)`` with a
    scalar loss; it must be deterministic. Error per coordinate is
    |analytic - numeric| / max(1e-8, |numeric|).
    """
    if eps <= 0:
        raise ContractError("eps must be positive")
    tape, loss = build(params)
    if loss.shape != (1, 1):
        raise ContractError("finite_diff_check needs a scalar loss")
    analytic = tape.backward(loss)

    worst = 0.0
    for name, base in params.items():
        if name not in analytic:
            raise ContractError(f"build() did not register parameter {name!r}")

        def value_at(vec: Array, name=name, shape=base.shape) -> float:
            _, out = build({**params, name: vec.reshape(shape)})
            return float(out.data[0, 0])

        numeric = central_difference(value_at, base.ravel(), eps)
        err = np.abs(analytic[name].ravel() - numeric) / np.maximum(1e-8, np.abs(numeric))
        worst = max(worst, float(err.max(initial=0.0)))
    return worst
