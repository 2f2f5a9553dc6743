"""Dense 2-D float64 tensors with reverse-mode and forward-mode differentiation.

Everything is a matrix: scalars are (1, 1), vectors are (n, 1) columns.
Operations run eagerly; when an operand is tracked on a Tape, the op also
records a backward closure and a tangent rule. A Tape owns a registry of
named trainable parameters, replays its records in reverse to accumulate
their gradients, or in record order to carry tangents (see ``Tape.jvp``).
An operand that was untracked when the op ran (a constant such as the input
features or a label matrix) receives no gradient computation at all: the
closures of ``matmul``, ``mul`` and ``scale_rows`` return ``None`` for it.
The only implicit broadcast allowed anywhere is a (1, n) row added to an
(m, n) matrix; every other shape coercion must be spelled out by the caller.

All public operations police their outputs for NaN/Inf and raise
NumericsError, naming the operation and its output shape, instead of letting
non-finite values propagate. Inputs are scanned as they become tensors; a
frozen array (see ``frozen``) is scanned once and its verdict kept
(``all_finite``), which dataset validation shares. The output of a pure copy
(``gather_rows``, ``concat_cols``, ``slice_cols``) is not scanned again:
each of its entries is an entry of an operand, and every operand was
scanned when it was made.

Every cache in the package follows one rule, ``derived``: a value built from
one or more frozen arrays is kept while all of them live, held weakly, and
is dropped when any of them dies. Four kinds of value are kept this way:
the finiteness verdicts, the run indexes below, the extremes of id arrays
and a graph's structural coefficients.

The elementwise derivative factors of ``elu`` and ``leaky_relu`` are built
once with a tracked node and reused by every backward pass and tangent sweep
through it, so repeated sweeps do not rebuild them; ``segment_mean`` divides
by each segment's count before it spreads the gradient over the segment's
rows. ``elu`` selects nothing: its value is ``expm1(min(x, 0)) + max(x, 0)``
and its factor ``min(out, 0) + 1``. Off zero one term is +0.0 and the other
is not zero, so these are the bits of the two-sided formula (``x`` where
``x > 0``, else ``expm1(x)``; factor 1, else ``out + 1``); at x = ±0 both
terms are +0.0, since NumPy's ``minimum`` and ``maximum`` return 0.0 on a
tie with it.

``Tape.backward`` sweeps the records once from one seeded output or from
several. Reverse mode is linear in its seed, so one sweep seeded at two loss
columns gives the sum of the two single-root sweeps, and a record that both
reach (such as a layer-0 product that both classifier branches read) runs
its backward rule once, on the sum of what reaches it. A root whose seed is
all zeros is no root: it would add only signed zeros, so the records that
only it reaches are never visited (a pinned alpha of 1 or 0 sweeps one
classifier branch).

``Tape.jvp`` runs forward mode: one sweep in record order carries the
tangent of every node along a direction in parameter space, with no forward
re-run, so it gives ``J t`` for a whole loss column, the dot product of
``t`` with every sample's gradient, at about the cost of a forward pass.
Each record's tangent rule reuses what its node holds (operand values,
dropout masks, derivative factors); a missing tangent counts as zero, and a
record none of whose inputs has one is skipped. Most rules are derived: a
linear map's tangent is the map itself (``slice_cols``, ``gather_rows``,
``row_sum``, ``sum_all``, ``segment_sum`` and ``segment_mean`` each compute
value and tangent with one local function); a bilinear product takes the
product rule ``f(ta, b) + f(a, tb)`` (``_bilinear``: ``matmul``, ``mul``,
``scale_rows``); an elementwise op's diagonal Jacobian is its own
transpose, so its backward rule is its tangent rule (``_elementwise``:
``scale``, ``elu``, ``leaky_relu``, ``sigmoid``, ``log1p``). Five are
written out: ``add`` and ``sub`` broadcast a row and take a tangent on one
side only, ``concat_cols`` fills zeros for a missing side, and the
Jacobians of ``row_log_softmax`` and ``segment_softmax`` are not symmetric.

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
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, NumericsError, OracleError

Array = np.ndarray


@dataclass
class Tensor:
    """A finite 2-D float64 matrix, optionally tracked on a tape.

    Building one checks ``data``: ``ContractError`` unless 2-D, and
    ``NumericsError`` unless every entry is finite (``all_finite``, so a
    frozen array is scanned once). Op outputs, scanned by ``_emit``, and rows
    of arrays already scanned are wrapped by ``_scanned`` without another scan.
    """

    data: Array
    tape: "Tape | None" = None
    idx: int | None = None

    def __post_init__(self):
        a = np.asarray(self.data, dtype=np.float64)
        if a.ndim != 2:
            raise ContractError(f"tensors are 2-D, got ndim={a.ndim}")
        if not all_finite(a):
            raise NumericsError("non-finite values in tensor data")
        self.data = a

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
        # (out, inputs, backward rule, tangent rule)
        self._records: list[tuple[int, tuple[int | None, ...], GradFn, TangentFn]] = []
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
        t = Tensor(value, self, self._new_idx())
        self._params[name] = (t.idx, t.shape)
        return t

    def constant(self, value: Array) -> Tensor:
        """A tracked leaf that never receives a gradient."""
        return Tensor(value, self, None)

    def record(self, value: Array, inputs: Sequence[Tensor], grad_fn: GradFn, tangent_fn: TangentFn) -> Tensor:
        """Append a node with its backward rule and its tangent rule."""
        out = _scanned(value, self, self._new_idx())
        self._records.append((out.idx, tuple(t.idx for t in inputs), grad_fn, tangent_fn))
        return out

    def backward(
        self, output: Tensor | Sequence[tuple[Tensor, Array | None]], seed: Array | None = None
    ) -> dict[str, Array]:
        """Gradients of the seeded outputs w.r.t. every registered parameter, from one reverse sweep.

        ``output`` is one tensor with its ``seed``, or a sequence of
        ``(output, seed)`` pairs, the roots of the sweep. A seed array of its
        output's shape differentiates the corresponding weighted sum of
        output entries; without a seed the output must be scalar. Several
        roots give the gradient of the sum of their weighted sums, and seeds
        of one output add up. A root whose seed is all zeros is checked and
        then left out: what it would add is signed zeros, which change no
        sum, so the records only it reaches are never visited and a
        parameter that only it reaches gets zeros.
        """
        roots = [(output, seed)] if isinstance(output, Tensor) else output
        if seed is not None and not isinstance(output, Tensor):
            raise ContractError("several roots carry their seeds in their (output, seed) pairs")
        grads: dict[int, Array] = {}
        for root, root_seed in roots:
            if root.tape is not self:
                raise ContractError("output does not belong to this tape")
            if root_seed is None:
                if root.shape != (1, 1):
                    raise ContractError(f"backward without seed needs a scalar, got shape {root.shape}")
                root_seed = np.ones((1, 1))
            else:
                root_seed = np.asarray(root_seed, dtype=np.float64)
                if root_seed.shape != root.shape:
                    raise ContractError(
                        f"seed of shape {root_seed.shape} for an output of shape {root.shape}: expected {root.shape}"
                    )
            if root.idx is None:
                raise ContractError("cannot differentiate an untracked constant")
            if not root_seed.any():
                continue
            grads[root.idx] = root_seed if root.idx not in grads else grads[root.idx] + root_seed
        for out_idx, in_idxs, grad_fn, _ in reversed(self._records):
            g = grads.pop(out_idx, None)
            if g is None:
                continue
            for idx, gi in zip(in_idxs, grad_fn(g)):
                if idx is not None and gi is not None:
                    grads[idx] = gi if idx not in grads else grads[idx] + gi
        # copies: a rule may hand one array to several inputs, and a parameter root's gradient is its seed
        return {
            name: grads[idx].copy() if idx in grads else np.zeros(shape) for name, (idx, shape) in self._params.items()
        }

    def jvp(self, outputs: Sequence[Tensor], tangents: dict[str, Array]) -> list[Array]:
        """Tangents of ``outputs`` along the parameter direction ``tangents``, from one forward-mode sweep.

        ``tangents`` maps parameter names to arrays of their shapes; a
        parameter it leaves out, like every constant, has a zero tangent.
        The sweep visits the records in the order they were made, with no
        forward re-run: each record's tangent rule works from what its node
        already holds (operand values, dropout masks, derivative factors),
        and a record none of whose inputs has a tangent is skipped. A
        linear map's rule is the map, a product's the product rule, and an
        elementwise op's its backward rule (see the module docstring). A
        tangent is dropped once no later record reads it, which holds the
        sweep's peak to about a third at Cora-CA shape. An output that no
        tangent reaches gets zeros.
        """
        for t in outputs:
            if t.tape is not self or t.idx is None:
                raise ContractError("jvp outputs must be tracked on this tape")
        live: dict[int | None, Array] = {}
        for name, value in tangents.items():
            if name not in self._params:
                raise ContractError(f"tangent for unknown parameter {name!r}")
            idx, shape = self._params[name]
            value = np.asarray(value, dtype=np.float64)
            if value.shape != shape:
                raise ContractError(f"tangent of {name!r} has shape {value.shape}, expected {shape}")
            live[idx] = value
        wanted = {t.idx for t in outputs}
        last_read = {idx: i for i, (_, in_idxs, *_) in enumerate(self._records) for idx in in_idxs}
        for i, (out_idx, in_idxs, _, tangent_fn) in enumerate(self._records):
            ts = [live.get(idx) for idx in in_idxs]
            if any(t is not None for t in ts):
                live[out_idx] = tangent_fn(*ts)
            for idx in in_idxs:
                if last_read[idx] == i and idx not in wanted:
                    live.pop(idx, None)
        return [live[t.idx] if t.idx in live else np.zeros(t.shape) for t in outputs]


def flatten_items(items: Iterable[tuple[str, Array]]) -> Array:
    """The arrays of ``(name, array)`` pairs, such as ``param_items``, raveled and joined in their order."""
    return np.concatenate([arr.ravel() for _, arr in items])


def split_items(items: Iterable[tuple[str, Array]], vec: Array) -> dict[str, Array]:
    """``vec`` cut into named copies shaped like the arrays of ``(name, array)`` pairs: ``flatten_items`` undone."""
    named, offset = {}, 0
    for name, arr in items:
        named[name] = vec[offset : offset + arr.size].reshape(arr.shape).copy()
        offset += arr.size
    if offset != vec.size:
        raise ContractError("flat vector size does not match parameter count")
    return named


GradFn = Callable[[Array], Sequence[Array | None]]
# input tangents, None for a zero one (at least one is given) -> output tangent
TangentFn = Callable[..., Array]


def all_finite(a: Array) -> bool:
    """Whether every entry of ``a`` is finite; a frozen array is scanned once (see ``derived``).

    So the input features are scanned when a dataset is validated, and
    every later tensor made of them reads that verdict.
    """
    return derived(a, "finite", lambda: bool(np.isfinite(a).all()))


def _scanned(data: Array, tape: Tape | None = None, idx: int | None = None) -> Tensor:
    """A Tensor of the finite 2-D float64 ``data`` without ``Tensor``'s scan: ``data`` was scanned already."""
    t = object.__new__(Tensor)
    t.data, t.tape, t.idx = data, tape, idx
    return t


def _finite(op: str, a: Array) -> Array:
    if not np.isfinite(a).all():
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


# ops whose every output entry is an entry of an operand, which was scanned when it was made
_COPIES = frozenset({"gather_rows", "concat_cols", "slice_cols"})


def _emit(op: str, value: Array, inputs: Sequence[Tensor], grad_fn: GradFn, tangent_fn: TangentFn) -> Tensor:
    if op not in _COPIES:
        _finite(op, value)
    tape = _tape_of(*inputs)
    if tape is None or all(t.idx is None for t in inputs):
        return _scanned(value, tape, None)
    return tape.record(value, inputs, grad_fn, tangent_fn)


def _plus(x: Array | None, y: Array | None) -> Array:
    """``x + y``, None standing for a zero; at least one is given."""
    if x is None:
        return y
    return x if y is None else x + y


def _bilinear(f: Callable[[Array, Array], Array], av: Array, bv: Array) -> TangentFn:
    """The product rule of the bilinear ``f`` at (``av``, ``bv``): ``f(ta, bv) + f(av, tb)``, None a zero tangent."""

    def tangent(ta: Array | None, tb: Array | None):
        return _plus(None if ta is None else f(ta, bv), None if tb is None else f(av, tb))

    return tangent


def _elementwise(op: str, value: Array, a: Tensor, rule: Callable[[Array], Array]) -> Tensor:
    """``_emit`` for an op whose diagonal Jacobian ``rule`` multiplies by: its own transpose, so both rules."""
    return _emit(op, value, (a,), lambda g: (rule(g),), rule)


def as_tensor(value) -> Tensor:
    """``value`` itself if it is a Tensor, else an untracked constant of it."""
    return value if isinstance(value, Tensor) else Tensor(value)


def column(values) -> Array:
    """Explicit 1-D -> (n, 1) column coercion."""
    a = np.asarray(values, dtype=np.float64)
    if a.ndim != 1:
        raise ContractError("column() expects a 1-D array")
    return a.reshape(-1, 1)


# ---------------------------------------------------------------------------
# primitives


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[1] != b.shape[0]:
        raise ContractError(f"matmul shape mismatch {a.shape} @ {b.shape}")
    av, bv = a.data, b.data
    grad_a, grad_b = a.idx is not None, b.idx is not None

    def grad(g: Array):
        return (g @ bv.T if grad_a else None), (av.T @ g if grad_b else None)

    return _emit("matmul", av @ bv, (a, b), grad, _bilinear(np.matmul, av, bv))


def add(a: Tensor, b: Tensor) -> Tensor:
    row_broadcast = b.shape == (1, a.shape[1]) and a.shape[0] != 1
    if not row_broadcast and a.shape != b.shape:
        raise ContractError(f"add shape mismatch {a.shape} + {b.shape}")
    # rules keep values, never a Tensor, whose tape would then hold itself in a cycle
    shape = a.shape

    def grad(g: Array):
        gb = g.sum(axis=0, keepdims=True) if row_broadcast else g
        return g, gb

    def tangent(ta: Array | None, tb: Array | None):
        if ta is None and row_broadcast:
            return np.broadcast_to(tb, shape)
        return _plus(ta, tb)

    return _emit("add", a.data + b.data, (a, b), grad, tangent)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ContractError(f"sub shape mismatch {a.shape} - {b.shape}")

    def grad(g: Array):
        return g, -g

    def tangent(ta: Array | None, tb: Array | None):
        return _plus(ta, None if tb is None else -tb)

    return _emit("sub", a.data - b.data, (a, b), grad, tangent)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ContractError(f"mul shape mismatch {a.shape} * {b.shape}")
    av, bv = a.data, b.data
    grad_a, grad_b = a.idx is not None, b.idx is not None

    def grad(g: Array):
        return (g * bv if grad_a else None), (g * av if grad_b else None)

    return _emit("mul", av * bv, (a, b), grad, _bilinear(np.multiply, av, bv))


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _elementwise("scale", a.data * c, a, lambda g: g * c)


def scale_rows(a: Tensor, c: Tensor) -> Tensor:
    """Multiply row i of ``a`` by the scalar ``c[i, 0]``."""
    if c.shape != (a.shape[0], 1):
        raise ContractError(f"scale_rows needs a ({a.shape[0]}, 1) column, got {c.shape}")
    av, cv = a.data, c.data
    grad_a, grad_c = a.idx is not None, c.idx is not None

    def grad(g: Array):
        return (g * cv if grad_a else None), ((g * av).sum(axis=1, keepdims=True) if grad_c else None)

    return _emit("scale_rows", av * cv, (a, c), grad, _bilinear(np.multiply, av, cv))


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[0] != b.shape[0]:
        raise ContractError(f"concat_cols row mismatch {a.shape} | {b.shape}")
    na, shape_a, shape_b = a.shape[1], a.shape, b.shape

    def grad(g: Array):
        return g[:, :na], g[:, na:]

    def tangent(ta: Array | None, tb: Array | None):
        return np.concatenate([np.zeros(shape_a) if ta is None else ta, np.zeros(shape_b) if tb is None else tb], axis=1)

    return _emit("concat_cols", np.concatenate([a.data, b.data], axis=1), (a, b), grad, tangent)


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

    def cols(x: Array) -> Array:
        return x[:, start:stop]

    return _emit("slice_cols", cols(a.data).copy(), (a,), grad, cols)


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

    When no run has more than 8 rows, as in a graph of low degrees, there is
    no block and no split, and every leaf is a run's root. The sums then
    start from the rows of the first tail step, with no scratch filled with
    the neutral value, and are added onto the heads of the runs that have a
    tail, which come first: -0.0 + x is x and max(-inf, x) is x, so the bits
    are those of the general path.
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

    def sum_into(self, values: Array, num_rows: int) -> Array:
        """Per-id sums of ``values`` rows in a (num_rows, d) array."""
        return self._reduce(np.add, -0.0, np.zeros((num_rows, values.shape[1])), values)

    def max_into(self, values: Array, num_rows: int) -> Array:
        """Per-id maxima of ``values`` rows; ids without rows read -inf."""
        return self._reduce(np.maximum, -np.inf, np.full((num_rows, values.shape[1]), -np.inf), values)

    def _reduce(self, op, neutral: float, out: Array, values: Array) -> Array:
        head = values[self._heads]
        if self._blocks:
            sums = np.full((self._size, values.shape[1]), neutral)
            acc = values[self._blocks[0]]  # (leaves, 8, d): the 8 accumulators of each leaf
            for positions in self._blocks[1:]:
                _accumulate(op, acc, values[positions])
            a = [acc[:, k] for k in range(8)]
            sums[self._combined] = op(op(op(a[0], a[1]), op(a[2], a[3])), op(op(a[4], a[5]), op(a[6], a[7])))
            for positions in self._tails:
                _accumulate(op, sums, values[positions])
            for parents, left, right in self._levels:
                sums[parents] = op(sums[left], sums[right])
            op(head, sums[self._roots], out=head)
        elif self._tails:  # runs of at most 8 rows, see the class docstring
            sums = values[self._tails[0]]
            for positions in self._tails[1:]:
                _accumulate(op, sums, values[positions])
            _accumulate(op, head, sums)
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
    ids = checked_ids(ids, "gather_rows", a.shape[0])
    num_rows = a.shape[0]
    looked_up: list[_RunIndex] = []  # only if a backward pass runs

    def run_index() -> _RunIndex:
        if not looked_up:
            looked_up.append(_run_index(ids))
        return looked_up[0]

    def grad(g: Array):
        return (run_index().sum_into(g, num_rows),)

    def rows(x: Array) -> Array:
        return x[ids]

    return _emit("gather_rows", rows(a.data), (a,), grad, rows)


def checked_ids(ids, what: str, bound: int | None, count: int | None = None) -> Array:
    """``ids`` as a 1-D int64 array in [0, ``bound``), of ``count`` ids when given: the tensor layer's one id check.

    Row and segment ids, task ids and class labels all pass it, and each
    ``ContractError`` names ``what``. A non-empty array of a non-integer
    dtype is refused before the cast, which would truncate it; booleans pass
    as 0 and 1. A ``bound`` of None checks only that no id is negative. The
    range of a frozen array is found once (``_extremes``).
    """
    ids = np.asarray(ids)
    if ids.size and ids.dtype.kind not in "iub":
        raise ContractError(f"{what} ids must be integers, got dtype {ids.dtype}")
    ids = ids.astype(np.int64, copy=False)
    if ids.ndim != 1 or (count is not None and ids.size != count):
        raise ContractError(f"{what} ids must be 1-D" + ("" if count is None else " and match the number of rows"))
    if ids.size:
        low, high = _extremes(ids)
        if low < 0 or (bound is not None and high >= bound):
            raise ContractError(f"{what} ids out of range")
    return ids


def _extremes(ids: Array) -> tuple[int, int]:
    """The least and the greatest of the non-empty ``ids``, found once for a frozen array (see ``derived``)."""
    return derived(ids, "extremes", lambda: (int(ids.min()), int(ids.max())))


def row_sum(a: Tensor) -> Tensor:
    cols = a.shape[1]

    def grad(g: Array):
        return (np.repeat(g, cols, axis=1),)

    def total(x: Array) -> Array:
        return x.sum(axis=1, keepdims=True)

    return _emit("row_sum", total(a.data), (a,), grad, total)


def sum_all(a: Tensor) -> Tensor:
    shape = a.shape

    def grad(g: Array):
        return (np.full(shape, g[0, 0]),)

    def total(x: Array) -> Array:
        return np.full((1, 1), x.sum())

    return _emit("sum_all", total(a.data), (a,), grad, total)


def _d_elu(x: Array, out: Array) -> Array:
    # read from out alone: for x <= 0, out = exp(x) - 1 <= 0 and the derivative is out + 1; for x > 0, out > 0
    factor = np.minimum(out, 0.0)
    factor += 1.0
    return factor


def elu(a: Tensor) -> Tensor:
    x = a.data
    out = np.minimum(x, 0.0)
    np.expm1(out, out=out)
    out += np.maximum(x, 0.0)
    # built with a tracked node, held in place of x, and reused by every backward pass
    factor = _d_elu(x, out) if a.idx is not None else None
    return _elementwise("elu", out, a, lambda g: g * factor)


def _d_leaky_relu(x: Array, slope: float) -> Array:
    return np.where(x > 0.0, 1.0, slope)


def leaky_relu(a: Tensor, slope: float = 0.2) -> Tensor:
    x = a.data
    out = np.where(x > 0.0, x, slope * x)
    factor = _d_leaky_relu(x, slope) if a.idx is not None else None
    return _elementwise("leaky_relu", out, a, lambda g: g * factor)


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    out = np.empty_like(x)
    pos = x >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return _elementwise("sigmoid", out, a, lambda g: g * out * (1.0 - out))


def log1p(a: Tensor) -> Tensor:
    x = a.data
    if np.any(x <= -1.0):
        raise ContractError("log1p domain requires entries > -1")
    return _elementwise("log1p", np.log1p(x), a, lambda g: g / (1.0 + x))


def row_log_softmax(a: Tensor) -> Tensor:
    x = a.data
    shifted = x - x.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    out = shifted - lse
    softmax = np.exp(out)

    def grad(g: Array):
        return (g - softmax * g.sum(axis=1, keepdims=True),)

    def tangent(ta: Array):
        return ta - (softmax * ta).sum(axis=1, keepdims=True)

    return _emit("row_log_softmax", out, (a,), grad, tangent)


def segment_sum(values: Tensor, segment_ids, num_segments: int) -> Tensor:
    ids = checked_ids(segment_ids, "segment", num_segments, values.shape[0])
    index = _run_index(ids)

    def grad(g: Array):
        return (g[ids],)

    def sums(x: Array) -> Array:
        return index.sum_into(x, num_segments)

    return _emit("segment_sum", sums(values.data), (values,), grad, sums)


def _segment_counts(index: _RunIndex, num_segments: int) -> Array:
    if index.unique.size != num_segments:
        raise ContractError("segment_mean encountered an empty segment")
    counts = np.zeros(num_segments)
    counts[index.unique] = index.counts
    return counts


def segment_mean(values: Tensor, segment_ids, num_segments: int) -> Tensor:
    ids = checked_ids(segment_ids, "segment", num_segments, values.shape[0])
    index = _run_index(ids)
    counts = _segment_counts(index, num_segments)[:, None]

    def grad(g: Array):
        # each row's quotient is the same division as g[ids] / counts[ids], done once per segment
        return ((g / counts)[ids],)

    def means(x: Array) -> Array:
        out = index.sum_into(x, num_segments)
        out /= counts
        return out

    return _emit("segment_mean", means(values.data), (values,), grad, means)


def segment_softmax(scores: Tensor, segment_ids) -> Tensor:
    """Softmax of (k, 1) scores within groups given by segment_ids."""
    if scores.shape[1] != 1:
        raise ContractError("segment_softmax expects a (k, 1) column of scores")
    ids = checked_ids(segment_ids, "segment", None, scores.shape[0])
    num_segments = _extremes(ids)[1] + 1 if ids.size else 1
    index = _run_index(ids)
    x = scores.data
    e = np.exp(x - index.max_into(x, num_segments)[ids])
    denom = index.sum_into(e, num_segments)
    out = e / denom[ids]

    def grad(g: Array):
        weighted = index.sum_into(g * out, num_segments)
        return (out * (g - weighted[ids]),)

    def tangent(ts: Array):
        return out * (ts - index.sum_into(out * ts, num_segments)[ids])

    return _emit("segment_softmax", out, (scores,), grad, tangent)


# ---------------------------------------------------------------------------
# verification oracle


def central_difference(value_at: Callable[[Array], float | Array], x: Array, eps: float) -> Array:
    """Central-difference derivative of a scalar or array function of a flat vector: row i for coordinate i.

    Row i is (f(x + eps e_i) - f(x - eps e_i)) / (2 eps); along a direction
    d, difference ``s -> f(w + s d)`` at ``s = [0.0]``. ``value_at`` must not
    keep or modify its argument; a non-finite value raises OracleError.
    """
    if eps <= 0:
        raise ContractError("eps must be positive")
    rows = []
    bumped = x.copy()
    for i in range(x.size):
        bumped[i] += eps
        f_plus = value_at(bumped)
        bumped[i] -= 2 * eps
        f_minus = value_at(bumped)
        bumped[i] = x[i]
        if not (np.isfinite(f_plus).all() and np.isfinite(f_minus).all()):
            raise OracleError("objective evaluated to a non-finite value")
        rows.append((f_plus - f_minus) / (2.0 * eps))
    return np.array(rows, dtype=np.float64)


def max_rel_err(analytic: Array, numeric: Array, items: Iterable[tuple[str, Array]] | None = None) -> float:
    """Largest block error of a derivative against its central differences; blocks cut by ``items``' shapes, or one.

    A block's error is max|analytic - numeric| / max(1e-8, max|numeric|) over
    the block, not per coordinate: a zero derivative differences to about one
    ulp of the value over 2 eps, noise that a per-coordinate error would count.
    """
    items = [("whole", numeric)] if items is None else items
    blocks = zip(split_items(items, analytic).values(), split_items(items, numeric).values())
    return max(float(np.abs(a - n).max() / max(1e-8, np.abs(n).max())) for a, n in blocks)


def finite_diff_check(build, params: dict[str, Array], eps: float = 1e-4) -> float:
    """Max relative error between tape gradients and central differences, by ``max_rel_err`` per parameter.

    ``build`` maps a dict of parameter arrays to ``(tape, loss)`` with a
    scalar loss; it must be deterministic.
    """
    if eps <= 0:
        raise ContractError("eps must be positive")
    tape, loss = build(params)
    if loss.shape != (1, 1):
        raise ContractError("finite_diff_check needs a scalar loss")
    analytic = tape.backward(loss)
    for name in params:
        if name not in analytic:
            raise ContractError(f"build() did not register parameter {name!r}")
    items = list(params.items())

    def value_at(vec: Array) -> float:
        _, out = build(split_items(items, vec))
        return float(out.data[0, 0])

    numeric = central_difference(value_at, flatten_items(items), eps)
    return max_rel_err(flatten_items((name, analytic[name]) for name in params), numeric, items)
