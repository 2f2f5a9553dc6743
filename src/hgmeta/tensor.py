"""Dense 2-D float64 tensors with reverse-mode differentiation.

Everything is a matrix: scalars are (1, 1), vectors are (n, 1) columns.
Operations run eagerly; when an operand is tracked on a Tape, the op also
records a backward closure. A Tape owns a registry of named trainable
parameters and replays its records in reverse to accumulate their gradients.
The only implicit broadcast allowed anywhere is a (1, n) row added to an
(m, n) matrix; every other shape coercion must be spelled out by the caller.

All public operations police their outputs for NaN/Inf and raise
NumericsError instead of letting non-finite values propagate.
"""

from __future__ import annotations

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
    backward call and gradients accumulate additively.
    """

    def __init__(self):
        self._next_idx = 0
        self._records: list[tuple[int, tuple[int | None, ...], Callable[[Array], Sequence[Array | None]]]] = []
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

    def record(self, value: Array, inputs: Sequence[Tensor], grad_fn: Callable[[Array], Sequence[Array | None]]) -> Tensor:
        out = Tensor(value, self, self._new_idx())
        self._records.append((out.idx, tuple(t.idx for t in inputs), grad_fn))
        return out

    def backward(self, output: Tensor, seed: Array | None = None) -> dict[str, Array]:
        """Gradients of ``output`` w.r.t. every registered parameter.

        Without a seed the output must be scalar; a seed array of the
        output's shape differentiates the corresponding weighted sum of
        output entries (used internally for per-row gradients).
        """
        if output.tape is not self:
            raise ContractError("output does not belong to this tape")
        if seed is None:
            if output.shape != (1, 1):
                raise ContractError(f"backward without seed needs a scalar, got shape {output.shape}")
            seed = np.ones((1, 1))
        else:
            seed = np.asarray(seed, dtype=np.float64)
            if seed.shape != output.shape:
                raise ContractError("seed shape must match output shape")
        if output.idx is None:
            raise ContractError("cannot differentiate an untracked constant")
        grads: dict[int, Array] = {output.idx: seed}
        for out_idx, in_idxs, grad_fn in reversed(self._records):
            g = grads.pop(out_idx, None)
            if g is None:
                continue
            for idx, gi in zip(in_idxs, grad_fn(g)):
                if idx is None or gi is None:
                    continue
                acc = grads.get(idx)
                grads[idx] = gi if acc is None else acc + gi
        return {name: grads.get(idx, np.zeros(shape)) for name, (idx, shape) in self._params.items()}


def _validated(value) -> Array:
    a = np.asarray(value, dtype=np.float64)
    if a.ndim != 2:
        raise ContractError(f"tensors are 2-D, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise NumericsError("non-finite values in tensor data")
    return a


def _finite(a: Array) -> Array:
    if not np.all(np.isfinite(a)):
        raise NumericsError("operation produced non-finite values")
    return a


def _tape_of(*tensors: Tensor) -> Tape | None:
    tape = None
    for t in tensors:
        if t.tape is not None:
            if tape is not None and t.tape is not tape:
                raise ContractError("operands live on different tapes")
            tape = t.tape
    return tape


def _emit(value: Array, inputs: Sequence[Tensor], grad_fn) -> Tensor:
    _finite(value)
    tape = _tape_of(*inputs)
    if tape is None or all(t.idx is None for t in inputs):
        return Tensor(value, tape, None)
    return tape.record(value, inputs, grad_fn)


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


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[1] != b.shape[0]:
        raise ContractError(f"matmul shape mismatch {a.shape} @ {b.shape}")
    av, bv = a.data, b.data

    def grad(g: Array):
        return g @ bv.T, av.T @ g

    return _emit(av @ bv, (a, b), grad)


def add(a: Tensor, b: Tensor) -> Tensor:
    row_broadcast = b.shape == (1, a.shape[1]) and a.shape[0] != 1
    if not row_broadcast and a.shape != b.shape:
        raise ContractError(f"add shape mismatch {a.shape} + {b.shape}")

    def grad(g: Array):
        gb = g.sum(axis=0, keepdims=True) if row_broadcast else g
        return g, gb

    return _emit(a.data + b.data, (a, b), grad)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ContractError(f"sub shape mismatch {a.shape} - {b.shape}")

    def grad(g: Array):
        return g, -g

    return _emit(a.data - b.data, (a, b), grad)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ContractError(f"mul shape mismatch {a.shape} * {b.shape}")
    av, bv = a.data, b.data

    def grad(g: Array):
        return g * bv, g * av

    return _emit(av * bv, (a, b), grad)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def grad(g: Array):
        return (g * c,)

    return _emit(a.data * c, (a,), grad)


def scale_rows(a: Tensor, c: Tensor) -> Tensor:
    """Multiply row i of ``a`` by the scalar ``c[i, 0]``."""
    if c.shape != (a.shape[0], 1):
        raise ContractError(f"scale_rows needs a ({a.shape[0]}, 1) column, got {c.shape}")
    av, cv = a.data, c.data

    def grad(g: Array):
        return g * cv, (g * av).sum(axis=1, keepdims=True)

    return _emit(av * cv, (a, c), grad)


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[0] != b.shape[0]:
        raise ContractError(f"concat_cols row mismatch {a.shape} | {b.shape}")
    na = a.shape[1]

    def grad(g: Array):
        return g[:, :na], g[:, na:]

    return _emit(np.concatenate([a.data, b.data], axis=1), (a, b), grad)


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    if not 0 <= start < stop <= a.shape[1]:
        raise ContractError(f"slice_cols [{start}:{stop}] out of range for {a.shape}")
    shape = a.shape

    def grad(g: Array):
        full = np.zeros(shape)
        full[:, start:stop] = g
        return (full,)

    return _emit(a.data[:, start:stop].copy(), (a,), grad)


class _RunIndex:
    """Sorted-run view of an integer id array for fast grouped reductions.

    ``order`` is a stable argsort of the ids; ``starts`` marks the first
    position of each distinct id in the sorted view and ``unique`` holds
    those ids. Reductions via reduceat visit elements in the same relative
    order as a sequential scatter-add, so results are bit-identical.
    """

    __slots__ = ("ids", "order", "starts", "unique", "counts")

    def __init__(self, ids: Array):
        self.ids = ids
        self.order = np.argsort(ids, kind="stable")
        sorted_ids = ids[self.order]
        if ids.size:
            self.starts = np.flatnonzero(np.r_[True, sorted_ids[1:] != sorted_ids[:-1]])
            self.unique = sorted_ids[self.starts]
            self.counts = np.diff(np.r_[self.starts, ids.size])
        else:
            self.starts = np.zeros(0, dtype=np.int64)
            self.unique = np.zeros(0, dtype=np.int64)
            self.counts = np.zeros(0, dtype=np.int64)

    def sum_into(self, values: Array, num_rows: int) -> Array:
        out = np.zeros((num_rows, values.shape[1]))
        if self.ids.size:
            out[self.unique] = np.add.reduceat(values[self.order], self.starts, axis=0)
        return out


def gather_rows(a: Tensor, ids) -> Tensor:
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ContractError("gather_rows ids must be 1-D")
    if ids.size and (ids.min() < 0 or ids.max() >= a.shape[0]):
        raise ContractError("gather_rows ids out of range")
    rows = a.shape[0]
    index: list[_RunIndex] = []  # built lazily, only if a backward pass runs

    def grad(g: Array):
        if not index:
            index.append(_RunIndex(ids))
        return (index[0].sum_into(g, rows),)

    return _emit(a.data[ids], (a,), grad)


def row_sum(a: Tensor) -> Tensor:
    cols = a.shape[1]

    def grad(g: Array):
        return (np.repeat(g, cols, axis=1),)

    return _emit(a.data.sum(axis=1, keepdims=True), (a,), grad)


def sum_all(a: Tensor) -> Tensor:
    shape = a.shape

    def grad(g: Array):
        return (np.full(shape, g[0, 0]),)

    return _emit(np.full((1, 1), a.data.sum()), (a,), grad)


def _d_elu(x: Array, out: Array) -> Array:
    # for x <= 0, out = exp(x) - 1 so the derivative is out + 1
    return np.where(x > 0.0, 1.0, out + 1.0)


def elu(a: Tensor) -> Tensor:
    x = a.data
    out = np.where(x > 0.0, x, np.expm1(np.minimum(x, 0.0)))

    def grad(g: Array):
        return (g * _d_elu(x, out),)

    return _emit(out, (a,), grad)


def _d_leaky_relu(x: Array, slope: float) -> Array:
    return np.where(x > 0.0, 1.0, slope)


def leaky_relu(a: Tensor, slope: float = 0.2) -> Tensor:
    x = a.data
    out = np.where(x > 0.0, x, slope * x)

    def grad(g: Array):
        return (g * _d_leaky_relu(x, slope),)

    return _emit(out, (a,), grad)


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    out = np.empty_like(x)
    pos = x >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)

    def grad(g: Array):
        return (g * out * (1.0 - out),)

    return _emit(out, (a,), grad)


def log1p(a: Tensor) -> Tensor:
    x = a.data
    if np.any(x <= -1.0):
        raise ContractError("log1p domain requires entries > -1")

    def grad(g: Array):
        return (g / (1.0 + x),)

    return _emit(np.log1p(x), (a,), grad)


def row_log_softmax(a: Tensor) -> Tensor:
    x = a.data
    shifted = x - x.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    out = shifted - lse
    softmax = np.exp(out)

    def grad(g: Array):
        return (g - softmax * g.sum(axis=1, keepdims=True),)

    return _emit(out, (a,), grad)


def _segment_ids(ids, num_segments: int, count: int) -> Array:
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1 or ids.size != count:
        raise ContractError("segment ids must be 1-D and match the number of rows")
    if ids.size and (ids.min() < 0 or ids.max() >= num_segments):
        raise ContractError("segment ids out of range")
    return ids


def segment_sum(values: Tensor, segment_ids, num_segments: int) -> Tensor:
    ids = _segment_ids(segment_ids, num_segments, values.shape[0])
    index = _RunIndex(ids)
    out = index.sum_into(values.data, num_segments)

    def grad(g: Array):
        return (g[ids],)

    return _emit(out, (values,), grad)


def segment_mean(values: Tensor, segment_ids, num_segments: int) -> Tensor:
    ids = _segment_ids(segment_ids, num_segments, values.shape[0])
    index = _RunIndex(ids)
    if index.unique.size != num_segments:
        raise ContractError("segment_mean encountered an empty segment")
    counts = np.zeros(num_segments)
    counts[index.unique] = index.counts
    out = index.sum_into(values.data, num_segments)
    out /= counts[:, None]

    def grad(g: Array):
        return (g[ids] / counts[ids, None],)

    return _emit(out, (values,), grad)


def segment_softmax(scores: Tensor, segment_ids) -> Tensor:
    """Softmax of (k, 1) scores within groups given by segment_ids."""
    if scores.shape[1] != 1:
        raise ContractError("segment_softmax expects a (k, 1) column of scores")
    num_segments = int(np.max(segment_ids)) + 1 if len(np.asarray(segment_ids)) else 0
    ids = _segment_ids(segment_ids, max(num_segments, 1), scores.shape[0])
    index = _RunIndex(ids)
    x = scores.data[:, 0]
    seg_max = np.full(max(num_segments, 1), -np.inf)
    if ids.size:
        seg_max[index.unique] = np.maximum.reduceat(x[index.order], index.starts)
    e = np.exp(x - seg_max[ids])
    denom = np.ones(max(num_segments, 1))
    if ids.size:
        denom[index.unique] = np.add.reduceat(e[index.order], index.starts)
    out = (e / denom[ids])[:, None]

    def grad(g: Array):
        weighted = np.zeros(max(num_segments, 1))
        if ids.size:
            weighted[index.unique] = np.add.reduceat((g * out)[index.order, 0], index.starts)
        return (out * (g - weighted[ids][:, None]),)

    return _emit(out, (scores,), grad)


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
