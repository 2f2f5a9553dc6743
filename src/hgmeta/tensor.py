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
per seed, in blocks of ``_GRAD_BLOCK`` seeds. A ``matmul`` of an untracked
constant by a parameter (the layer-0 ``X @ W0`` and ``means @ W0``) parks
each seed's output gradient in a column block of a stash, and the block's
weight gradients come from one wide product ``const.T @ stash`` instead of
one narrow product per seed. OpenBLAS gives the wide product's slices the
narrow products' bits only where both take the same kernel path, which
depends on the shape, so ``_block_reproduces`` checks each (operand shape,
width, block) once on a pseudo-random probe; a shape that fails keeps the
narrow products. Either way every seed's gradient has the bits of a
backward pass on that seed alone.

Grouped sums (the backward of ``gather_rows``, ``segment_sum``,
``segment_mean`` and both sums of ``segment_softmax``) associate exactly as
``np.add.reduceat`` over the stably sorted rows does: each group's first row
plus NumPy's pairwise sum of the rest (see ``_RunIndex``). They are computed
with plain vectorized adds instead, and the run index of a frozen id array
(such as a graph's incidence arrays, see ``frozen``) is built once.
"""

from __future__ import annotations

import functools
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
        self._records: list[tuple[int, tuple[int | None, ...], Callable[[Array], Sequence[Array | None]]]] = []
        # output idx of a matmul with an untracked left operand -> that operand
        self._consts: dict[int, Array] = {}
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

    def record(
        self,
        value: Array,
        inputs: Sequence[Tensor],
        grad_fn: Callable[[Array], Sequence[Array | None]],
        const: Array | None = None,
    ) -> Tensor:
        """Append a node; ``const`` marks a ``const @ inputs[1]`` product with an untracked left operand."""
        out = Tensor(value, self, self._new_idx())
        self._records.append((out.idx, tuple(t.idx for t in inputs), grad_fn))
        if const is not None:
            self._consts[out.idx] = const
        return out

    def backward(
        self, output: Tensor, seed: Array | None = None, out: dict[str, Array] | None = None
    ) -> dict[str, Array]:
        """Gradients of ``output`` w.r.t. every registered parameter.

        Without a seed the output must be scalar; a seed array of the
        output's shape differentiates the corresponding weighted sum of
        output entries. A stack of seeds, shape ``(s, *output.shape)``,
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
        self._sweep_stack(output.idx, seeds, out)
        return out if stacked else {name: grads[0] for name, grads in out.items()}

    def _sweep_stack(self, root: int, seeds: Array, out: dict[str, Array]) -> None:
        """One reverse sweep per seed, in blocks of up to ``_GRAD_BLOCK`` seeds.

        Within a block, the layer-0 records (a ``matmul`` of an untracked
        constant by a parameter) put each seed's output gradient into a
        column block of one stash per record, and the block's weight
        gradients come from one product ``const.T @ stash``. Each seed's
        column slice then joins its parameter's gradient in the order one
        sweep would add it. A record takes this path only where
        ``_block_reproduces`` found that product to give the one-seed
        products' bits; elsewhere its own closure runs, as with one seed.
        """
        params = {idx: name for name, (idx, _) in self._params.items()}
        records = [(*record, self._consts.get(record[0])) for record in reversed(self._records)]
        width = max(1, min(_GRAD_BLOCK, seeds.shape[0]))
        stashes: dict[int, tuple[Array, Array] | None] = {}  # record output idx -> (const, stash)
        for start in range(0, seeds.shape[0], width):
            block = enumerate(seeds[start : start + width])
            swept = [_sweep(records, root, seed, column, width, params, stashes) for column, seed in block]
            products = {key: entry[0].T @ entry[1] for key, entry in stashes.items() if entry is not None}
            for i, (grads, terms) in enumerate(swept, start):
                for idx, name in params.items():
                    value = grads.get(idx)
                    for term in terms.get(idx, ()):
                        if isinstance(term, tuple):
                            key, lo, hi = term
                            term = products[key][:, lo:hi]
                        value = term if value is None else value + term
                    out[name][i] = 0.0 if value is None else value


def _sweep(records: list, root: int, seed: Array, column: int, width: int, params: dict, stashes: dict):
    """One seed's reverse sweep; returns its gradients and the terms that wait for a block product.

    ``records`` are a tape's records in reverse order, each with its
    constant left operand or None. Once a parameter receives a stashed
    term, its later terms are listed after it, in the order they arrive;
    its gradient is then its sum so far plus those terms, added in turn.
    """
    grads: dict[int, Array] = {root: seed}
    terms: dict[int, list] = {}
    for out_idx, in_idxs, grad_fn, const in records:
        g = grads.pop(out_idx, None)
        if g is None:
            continue
        if const is not None and g.flags.c_contiguous:
            if out_idx not in stashes:
                ok = (
                    width > 1
                    and in_idxs[1] in params
                    and const.flags.c_contiguous
                    and _block_reproduces(*const.shape, g.shape[1], width)
                )
                stashes[out_idx] = (const, np.zeros((const.shape[0], width * g.shape[1]))) if ok else None
            entry = stashes[out_idx]
            if entry is not None:
                k, w = g.shape[1], in_idxs[1]
                entry[1][:, column * k : (column + 1) * k] = g
                terms.setdefault(w, []).append((out_idx, column * k, (column + 1) * k))
                continue
        for idx, gi in zip(in_idxs, grad_fn(g)):
            if idx is None or gi is None:
                continue
            if idx in terms:
                terms[idx].append(gi)
                continue
            acc = grads.get(idx)
            grads[idx] = gi if acc is None else acc + gi
    return grads, terms


# seeds per block of a stacked backward: one stash column block each
_GRAD_BLOCK = 4


@functools.lru_cache(maxsize=None)
def _block_reproduces(rows: int, cols: int, k: int, width: int) -> bool:
    """Whether ``const.T @ stash`` gives the one-seed products' bits at this shape.

    ``const`` is (rows, cols) and ``stash`` (rows, width * k), both
    C-contiguous. Whether OpenBLAS computes each k-column slice of the wide
    product as it computes that slice alone depends on the kernel path it
    picks for each shape, not on the values, so one fixed pseudo-random
    probe per shape decides.
    """
    rng = np.random.default_rng((rows, cols, k, width))
    const = rng.standard_normal((rows, cols))
    stash = rng.standard_normal((rows, width * k))
    wide = const.T @ stash
    return all(
        (const.T @ stash[:, lo : lo + k].copy()).tobytes() == wide[:, lo : lo + k].tobytes()
        for lo in range(0, width * k, k)
    )


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
        raise NumericsError(f"{op} produced non-finite values, shape {a.shape}")
    return a


def _tape_of(*tensors: Tensor) -> Tape | None:
    tape = None
    for t in tensors:
        if t.tape is not None:
            if tape is not None and t.tape is not tape:
                raise ContractError("operands live on different tapes")
            tape = t.tape
    return tape


def _emit(op: str, value: Array, inputs: Sequence[Tensor], grad_fn, const: Array | None = None) -> Tensor:
    _finite(op, value)
    tape = _tape_of(*inputs)
    if tape is None or all(t.idx is None for t in inputs):
        return Tensor(value, tape, None)
    return tape.record(value, inputs, grad_fn, const)


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

    return _emit("matmul", product, (a, b), grad, av if grad_b and not grad_a else None)


def add(a: Tensor, b: Tensor) -> Tensor:
    row_broadcast = b.shape == (1, a.shape[1]) and a.shape[0] != 1
    if not row_broadcast and a.shape != b.shape:
        raise ContractError(f"add shape mismatch {a.shape} + {b.shape}")

    def grad(g: Array):
        gb = g.sum(axis=0, keepdims=True) if row_broadcast else g
        return g, gb

    return _emit("add", a.data + b.data, (a, b), grad)


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

    return _emit("mul", av * bv, (a, b), grad)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def grad(g: Array):
        return (g * c,)

    return _emit("scale", a.data * c, (a,), grad)


def scale_rows(a: Tensor, c: Tensor) -> Tensor:
    """Multiply row i of ``a`` by the scalar ``c[i, 0]``."""
    if c.shape != (a.shape[0], 1):
        raise ContractError(f"scale_rows needs a ({a.shape[0]}, 1) column, got {c.shape}")
    av, cv = a.data, c.data
    grad_a, grad_c = a.idx is not None, c.idx is not None

    def grad(g: Array):
        return (g * cv if grad_a else None), ((g * av).sum(axis=1, keepdims=True) if grad_c else None)

    return _emit("scale_rows", av * cv, (a, c), grad)


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[0] != b.shape[0]:
        raise ContractError(f"concat_cols row mismatch {a.shape} | {b.shape}")
    na = a.shape[1]

    def grad(g: Array):
        return g[:, :na], g[:, na:]

    return _emit("concat_cols", np.concatenate([a.data, b.data], axis=1), (a, b), grad)


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
    """

    __slots__ = ("unique", "counts", "_blocks", "_combined", "_tails", "_levels", "_size", "_heads", "_roots", "_rows")

    def __init__(self, ids: Array):
        order = np.argsort(ids, kind="stable")
        sorted_ids = ids[order]
        starts = np.flatnonzero(np.r_[True, sorted_ids[1:] != sorted_ids[:-1]]) if ids.size else order[:0]
        self.unique = sorted_ids[starts]
        self.counts = np.diff(np.r_[starts, ids.size])
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
    rows = a.shape[0]
    index: list[_RunIndex] = []  # looked up lazily, only if a backward pass runs

    def grad(g: Array):
        if not index:
            index.append(_run_index(ids))
        return (index[0].sum_into(g, rows),)

    return _emit("gather_rows", a.data[ids], (a,), grad)


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

    return _emit("row_sum", a.data.sum(axis=1, keepdims=True), (a,), grad)


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

    return _emit("elu", out, (a,), grad)


def _d_leaky_relu(x: Array, slope: float) -> Array:
    return np.where(x > 0.0, 1.0, slope)


def leaky_relu(a: Tensor, slope: float = 0.2) -> Tensor:
    x = a.data
    out = np.where(x > 0.0, x, slope * x)
    factor = _d_leaky_relu(x, slope) if a.idx is not None else None

    def grad(g: Array):
        return (g * factor,)

    return _emit("leaky_relu", out, (a,), grad)


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

    return _emit("row_log_softmax", out, (a,), grad)


def _segment_ids(ids, num_segments: int, count: int) -> Array:
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1 or ids.size != count:
        raise ContractError("segment ids must be 1-D and match the number of rows")
    if ids.size and (ids.min() < 0 or ids.max() >= num_segments):
        raise ContractError("segment ids out of range")
    return ids


def segment_sum(values: Tensor, segment_ids, num_segments: int) -> Tensor:
    ids = _segment_ids(segment_ids, num_segments, values.shape[0])
    out = _run_index(ids).sum_into(values.data, num_segments)

    def grad(g: Array):
        return (g[ids],)

    return _emit("segment_sum", out, (values,), grad)


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

    return _emit("segment_mean", out, (values,), grad)


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

    return _emit("segment_softmax", out, (scores,), grad)


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
