"""Two-branch hypergraph classifier sharing one set of weight matrices.

Each layer runs two-stage message passing: hyperedge features are the mean
of their member nodes, then every node combines its own projection with a
coefficient-weighted sum of incident hyperedge projections. The two branches
differ only in where the coefficients come from:

* structural branch ("ss"): 1 / (node degree * mean member degree of the
  hyperedge), fixed for the lifetime of a graph;
* feature branch ("fs"): a learned score over [node_proj | edge_proj],
  softmax-normalized over each node's incident hyperedges, recomputed from
  the current hidden state at every layer.

Weight matrices are shared between branches; the attention vectors are only
consumed by the feature branch.

Layer 0 aggregates the raw input features, which do not change between
steps. When they arrive as an untracked, frozen array (see ``tensor.frozen``;
``Dataset.features`` is one), their hyperedge means are computed once per
graph and features array and reused by every later forward pass, taped or
not. The structural coefficients are likewise computed once per graph.
A pass over both branches (``build_branch_graphs``, ``_forward_branches``)
computes the layer-0 products ``X @ W0`` and ``means(X) @ W0`` of an
untracked input once; on a tape each branch still records its own two
layer-0 ``matmul`` nodes with those values, so the record sequence and every
gradient are those of two separate branches.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tensor as T
from .errors import ContractError
from .hypergraph import Hypergraph
from .tensor import Array, Tape, Tensor

BRANCHES = ("ss", "fs")
FS_SLOPE = 0.2


@dataclass
class HGNNParams:
    """Per-layer weight matrices and attention vectors.

    ``weights[t]`` has shape (d_in, d_out); ``attn[t]`` has shape
    (2 * d_out, 1) and scores the concatenated node/edge projections.
    """

    weights: list[Array]
    attn: list[Array]

    def __post_init__(self):
        if len(self.weights) != len(self.attn):
            raise ContractError("one attention vector per layer is required")
        for t, (w, a) in enumerate(zip(self.weights, self.attn)):
            if a.shape != (2 * w.shape[1], 1):
                raise ContractError(f"layer {t}: attn shape {a.shape} does not match weight {w.shape}")
            if t and self.weights[t - 1].shape[1] != w.shape[0]:
                raise ContractError(f"layer {t}: input dim does not chain from layer {t - 1}")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(a))):
                raise ContractError("parameters must be finite")

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[1]

    @classmethod
    def init(cls, dims: Sequence[int], rng_w: np.random.Generator, rng_a: np.random.Generator) -> "HGNNParams":
        """Glorot-uniform init for the layer dims [d_in, h1, ..., C]."""
        if len(dims) < 2:
            raise ContractError("need at least input and output dims")
        weights, attn = [], []
        for d_in, d_out in zip(dims[:-1], dims[1:]):
            bound_w = np.sqrt(6.0 / (d_in + d_out))
            weights.append(rng_w.uniform(-bound_w, bound_w, size=(d_in, d_out)))
            bound_a = np.sqrt(6.0 / (2 * d_out + 1))
            attn.append(rng_a.uniform(-bound_a, bound_a, size=(2 * d_out, 1)))
        return cls(weights=weights, attn=attn)

    def param_items(self) -> list[tuple[str, Array]]:
        items: list[tuple[str, Array]] = []
        for t, (w, a) in enumerate(zip(self.weights, self.attn)):
            items.append((f"w{t}", w))
            items.append((f"a{t}", a))
        return items

    def flatten(self) -> Array:
        return np.concatenate([arr.ravel() for _, arr in self.param_items()])

    def with_vec(self, vec: Array) -> "HGNNParams":
        """Rebuild parameters from a flat vector in param_items() order."""
        weights, attn, offset = [], [], 0
        for t in range(self.num_layers):
            w = self.weights[t]
            a = self.attn[t]
            weights.append(vec[offset : offset + w.size].reshape(w.shape).copy())
            offset += w.size
            attn.append(vec[offset : offset + a.size].reshape(a.shape).copy())
            offset += a.size
        if offset != vec.size:
            raise ContractError("flat vector size does not match parameter count")
        return HGNNParams(weights=weights, attn=attn)


@dataclass
class ForwardOutput:
    """Evaluated logits and per-sample losses for both branches."""

    logits_ss: Array
    logits_fs: Array
    loss_ss: Array
    loss_fs: Array


@dataclass
class BranchGraph:
    """A taped forward pass: per-sample loss column, logits, and mean loss."""

    tape: Tape
    branch: str
    loss_vec: Tensor
    logits: Tensor
    mean_loss: Tensor


def ss_coefficients(g: Hypergraph) -> Array:
    """Structural coefficients 1/(d_i * d_e) over node-major incidence pairs.

    d_e is an integer degree sum over the members of e divided by its size,
    so the values match ``Hypergraph.hyperedge_avg_degree`` bit for bit.
    Every ``ss`` forward pass asks for them, so the read-only result is kept
    for as long as the graph's frozen ``pair_nodes`` array lives (see
    ``tensor.derived``): repeated passes over one graph allocate nothing here,
    and a dropped graph is not kept alive.
    """
    arrays = g.incidence_arrays()

    def build() -> Array:
        degrees = arrays["node_degrees"]
        degree_sums = np.zeros(g.num_hyperedges, dtype=np.int64)
        np.add.at(degree_sums, arrays["member_edges"], degrees[arrays["member_nodes"]])
        avg_degrees = degree_sums / arrays["edge_sizes"]
        out = 1.0 / (degrees[arrays["pair_nodes"]] * avg_degrees[arrays["pair_edges"]])
        out.setflags(write=False)
        return out

    return T.derived(arrays["pair_nodes"], "ss_coefficients", build)


def aggregate_hyperedges(g: Hypergraph, node_feats: Array) -> Array:
    """Stage-1 aggregation: mean member feature per hyperedge."""
    if node_feats.shape[0] != g.num_nodes:
        raise ContractError("node_feats must have one row per node")
    return _aggregate_t(g, T.as_tensor(node_feats)).data


def fs_coefficients(g: Hypergraph, node_proj: Array, edge_proj: Array, a: Array) -> Array:
    """Feature coefficients per incidence pair, softmaxed per node."""
    if a.shape != (node_proj.shape[1] + edge_proj.shape[1], 1):
        raise ContractError("attention vector length must match the concatenated projections")
    out = _fs_coefficients_t(g, T.as_tensor(node_proj), T.as_tensor(edge_proj), T.as_tensor(a))
    return out.data[:, 0]


def node_update(g: Hypergraph, node_feats: Array, edge_feats: Array, coeffs: Array, w: Array, activate: bool = True) -> Array:
    """Stage-2 update: sigma(x_i w + sum_e coeff_ie * x_e w)."""
    w = T.as_tensor(w)
    out = _node_update_t(
        g,
        T.matmul(T.as_tensor(node_feats), w),
        T.matmul(T.as_tensor(edge_feats), w),
        T.as_tensor(T.column(coeffs)),
    )
    return (T.elu(out) if activate else out).data


def _aggregate_t(g: Hypergraph, h: Tensor) -> Tensor:
    if h.idx is None and T.frozen(h.data):
        return Tensor(_input_edge_means(g, h.data), h.tape, None)
    return _edge_means_t(g, h)


def _edge_means_t(g: Hypergraph, h: Tensor) -> Tensor:
    arrays = g.incidence_arrays()
    gathered = T.gather_rows(h, arrays["member_nodes"])
    return T.segment_mean(gathered, arrays["member_edges"], g.num_hyperedges)


# weakrefs to the graph's frozen member_nodes and to the features, and their
# read-only hyperedge means, of the last call
_input_means_slot: list[tuple[weakref.ref, weakref.ref, Array]] = []


def _input_edge_means(g: Hypergraph, x: Array) -> Array:
    """Hyperedge means of frozen input features, kept for the last pair.

    The slot holds the graph (through its frozen ``member_nodes``) and the
    features only weakly and empties when either is freed, so dropping a
    dataset, or only its graph, frees the means too.
    """
    arrays = g.incidence_arrays()
    members = arrays["member_nodes"]
    if _input_means_slot:
        graph_ref, x_ref, means = _input_means_slot[0]
        if graph_ref() is members and x_ref() is x:
            return means
    means = T.gathered_segment_mean(x, members, arrays["member_edges"], g.num_hyperedges)
    means.setflags(write=False)

    def forget(dead: weakref.ref) -> None:
        if _input_means_slot and any(ref is dead for ref in _input_means_slot[0][:2]):
            _input_means_slot.clear()

    _input_means_slot[:] = [(weakref.ref(members, forget), weakref.ref(x, forget), means)]
    return means


def _fs_coefficients_t(g: Hypergraph, node_proj: Tensor, edge_proj: Tensor, a: Tensor) -> Tensor:
    arrays = g.incidence_arrays()
    pair_feats = T.concat_cols(
        T.gather_rows(node_proj, arrays["pair_nodes"]),
        T.gather_rows(edge_proj, arrays["pair_edges"]),
    )
    scores = T.leaky_relu(T.matmul(pair_feats, a), FS_SLOPE)
    return T.segment_softmax(scores, arrays["pair_nodes"])


def _node_update_t(g: Hypergraph, hw: Tensor, ew: Tensor, coeff_col: Tensor) -> Tensor:
    """Pre-activation update from projected node and hyperedge features."""
    arrays = g.incidence_arrays()
    messages = T.scale_rows(T.gather_rows(ew, arrays["pair_edges"]), coeff_col)
    return T.add(hw, T.segment_sum(messages, arrays["pair_nodes"], g.num_nodes))


@dataclass(frozen=True)
class _Layer0:
    """Layer-0 inputs and products of a constant input, shared by both branches.

    ``hw`` is ``x @ W0`` and ``ew`` is ``edge_feats @ W0``. Each branch still
    records its own two layer-0 ``matmul`` nodes, with these values.
    """

    x: Tensor
    edge_feats: Tensor
    hw: Array
    ew: Array


def _layer0_products(g: Hypergraph, x: Tensor, w0: Tensor) -> _Layer0 | None:
    """The layer-0 products of ``x``, or None when ``x`` is tracked."""
    if x.idx is not None:
        return None
    edge_feats = _aggregate_t(g, x)
    w0 = Tensor(w0.data)  # untracked, so the products record nothing
    return _Layer0(x, edge_feats, T.matmul(x, w0).data, T.matmul(edge_feats, w0).data)


def _forward_t(
    g: Hypergraph,
    x: Tensor,
    weights: list[Tensor],
    attn: list[Tensor],
    branch: str,
    dropout_masks: list[Array] | None = None,
    layer0: _Layer0 | None = None,
) -> Tensor:
    if branch not in BRANCHES:
        raise ContractError(f"unknown branch {branch!r}")
    tape = x.tape
    if branch == "ss":
        coeff = T.as_tensor(T.column(ss_coefficients(g)), tape)
    h = x
    last = len(weights) - 1
    for t, (w, a) in enumerate(zip(weights, attn)):
        if t == 0 and layer0 is not None:
            edge_feats = layer0.edge_feats
            hw = T.matmul(h, w, product=layer0.hw)
            ew = T.matmul(edge_feats, w, product=layer0.ew)
        else:
            edge_feats = _aggregate_t(g, h)
            hw = T.matmul(h, w)
            ew = T.matmul(edge_feats, w)
        if branch == "fs":
            coeff = _fs_coefficients_t(g, hw, ew, a)
        h = _node_update_t(g, hw, ew, coeff)
        if t < last:
            h = T.elu(h)
            if dropout_masks is not None:
                h = T.mul(h, T.as_tensor(dropout_masks[t], tape))
    return h


def forward(g: Hypergraph, X: Array, params: HGNNParams, branch: str, eval_ids) -> Array:
    """Untaped forward pass; returns logits rows for eval_ids."""
    (logits,) = _forward_branches(g, X, params, (branch,), eval_ids)
    return logits


def _forward_branches(g: Hypergraph, X: Array, params: HGNNParams, branches: Sequence[str], eval_ids) -> list[Array]:
    """Untaped logits rows for eval_ids of each branch, with one layer-0 projection."""
    if X.shape[0] != g.num_nodes:
        raise ContractError("X must have one row per node")
    x = T.as_tensor(X)
    weights = [T.as_tensor(w) for w in params.weights]
    attn = [T.as_tensor(a) for a in params.attn]
    layer0 = _layer0_products(g, x, weights[0])
    ids = np.asarray(eval_ids, dtype=np.int64)
    return [_forward_t(g, x, weights, attn, branch, layer0=layer0).data[ids] for branch in branches]


def ce_loss(logits_row: Array, onehot: Array) -> float:
    """Cross entropy of one logits row against a one-hot label (log-sum-exp form)."""
    logits_row = np.asarray(logits_row, dtype=np.float64).ravel()
    onehot = np.asarray(onehot, dtype=np.float64).ravel()
    if logits_row.shape != onehot.shape:
        raise ContractError("logits and one-hot label must have the same length")
    m = logits_row.max()
    lse = m + np.log(np.exp(logits_row - m).sum())
    return float(lse - (onehot * logits_row).sum())


def register_params(tape: Tape, params: HGNNParams, prefix: str = "") -> tuple[list[Tensor], list[Tensor]]:
    """Register all layer parameters on a tape; returns (weights, attn) tensors."""
    weights = [tape.param(f"{prefix}w{t}", w) for t, w in enumerate(params.weights)]
    attn = [tape.param(f"{prefix}a{t}", a) for t, a in enumerate(params.attn)]
    return weights, attn


def build_branch_graph(
    g: Hypergraph,
    X: Array,
    y_onehot: Array,
    eval_ids,
    branch: str,
    tape: Tape,
    weights: list[Tensor],
    attn: list[Tensor],
    dropout_masks: list[Array] | None = None,
    layer0: _Layer0 | None = None,
) -> BranchGraph:
    """Taped forward to per-sample CE losses for eval_ids on one branch.

    ``y_onehot`` must carry one row per eval id. Parameters are passed as
    tape tensors so both branches of one step can share a single tape (and
    therefore accumulate gradients into the same shared weights).
    ``layer0``, from ``build_branch_graphs``, carries this tape's constant
    ``X`` and its layer-0 products.
    """
    eval_ids = np.asarray(eval_ids, dtype=np.int64)
    if y_onehot.shape[0] != eval_ids.size:
        raise ContractError("one-hot labels must align with eval_ids")
    x = tape.constant(X) if layer0 is None else layer0.x
    hidden = _forward_t(g, x, weights, attn, branch, dropout_masks, layer0)
    logits = T.gather_rows(hidden, eval_ids)
    logp = T.row_log_softmax(logits)
    picked = T.row_sum(T.mul(logp, tape.constant(y_onehot)))
    loss_vec = T.scale(picked, -1.0)
    mean_loss = T.scale(T.sum_all(loss_vec), 1.0 / max(eval_ids.size, 1))
    return BranchGraph(tape=tape, branch=branch, loss_vec=loss_vec, logits=logits, mean_loss=mean_loss)


def build_branch_graphs(
    g: Hypergraph,
    X: Array,
    y_onehot: Array,
    eval_ids,
    tape: Tape,
    weights: list[Tensor],
    attn: list[Tensor],
    dropout_masks: list[Array] | None = None,
) -> tuple[BranchGraph, BranchGraph]:
    """``build_branch_graph`` for ss, then fs, on one tape.

    ``X @ W0`` and the layer-0 hyperedge means times ``W0`` are computed
    once for both branches. Each branch records the same nodes, in the same
    order and with the same backward closures, as on its own.
    """
    layer0 = _layer0_products(g, tape.constant(X), weights[0])
    graph_ss, graph_fs = (
        build_branch_graph(g, X, y_onehot, eval_ids, branch, tape, weights, attn, dropout_masks, layer0)
        for branch in BRANCHES
    )
    return graph_ss, graph_fs


def branch_losses(g: Hypergraph, X: Array, y: Array, params: HGNNParams, ids) -> ForwardOutput:
    """Per-sample losses for both branches with shared weights (no tape)."""
    ids = np.asarray(ids, dtype=np.int64)
    onehot = one_hot(np.asarray(y, dtype=np.int64)[ids], params.out_dim)
    tape = Tape()
    weights, attn = register_params(tape, params)
    ss, fs = build_branch_graphs(g, X, onehot, ids, tape, weights, attn)
    return ForwardOutput(
        logits_ss=ss.logits.data,
        logits_fs=fs.logits.data,
        loss_ss=ss.loss_vec.data[:, 0],
        loss_fs=fs.loss_vec.data[:, 0],
    )


def one_hot(labels: Array, num_classes: int) -> Array:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ContractError("label outside [0, num_classes)")
    out = np.zeros((labels.size, num_classes))
    out[np.arange(labels.size), labels] = 1.0
    return out
