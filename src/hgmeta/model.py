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

Layer 0 reads the raw input features, a constant that never receives a
gradient. One forward (``_forward_t``) serves every caller: it computes the
layer-0 hyperedge means and records the products ``X @ W0`` and
``means(X) @ W0`` once for all the branches it runs, and every branch reads
those two nodes. A backward sweep seeded at both branches' losses thus adds
what reaches each node and multiplies by ``X.T`` once; a sweep seeded at one
branch reaches only that branch's records, so its gradient has the bits of a
one-branch tape. ``forward`` and ``build_branch_graph`` are its one-branch
cases. ``taped_forward`` keeps a taped forward without loss heads, and
``TapedForward.losses`` adds heads for any ids to it, so one forward can
serve more than one id set. Values derived from frozen arrays (see
``tensor.frozen``) follow the one cache rule of ``tensor.derived``: the
structural coefficients live as long as the graph, and the layer-0 means as
long as both the graph and frozen features (``Dataset.features`` is
frozen).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

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


@dataclass
class TapedForward:
    """A taped forward at ``params``: their tape and the last hidden layer of each of ``branches``.

    ``losses`` adds loss heads for any ids to the tape, as often as asked. A
    sweep seeded at some heads skips the records of the others, so its
    gradient has the bits of a tape that holds only those heads.
    """

    params: HGNNParams
    tape: Tape
    branches: tuple[str, ...]
    hidden: list[Tensor]

    def losses(self, y: Array, ids) -> list[BranchGraph]:
        """The CE loss graphs of every branch for ``ids``, labelled by ``y[ids]``."""
        ids = np.asarray(ids, dtype=np.int64)
        onehot = one_hot(np.asarray(y, dtype=np.int64)[ids], self.params.out_dim)
        return loss_heads(self.tape, self.hidden, onehot, ids, self.branches)


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
    return _edge_means_t(g, T.as_tensor(node_feats)).data


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


def _edge_means_t(g: Hypergraph, h: Tensor) -> Tensor:
    arrays = g.incidence_arrays()
    gathered = T.gather_rows(h, arrays["member_nodes"])
    return T.segment_mean(gathered, arrays["member_edges"], g.num_hyperedges)


def _input_edge_means(g: Hypergraph, X: Array) -> Array:
    """Read-only hyperedge means of the input features, built once per frozen pair.

    They are kept by ``tensor.derived`` for as long as both the graph's
    frozen ``member_nodes`` and a frozen ``X`` live, so dropping a dataset,
    or only its graph, frees them too. Any other ``X`` gets fresh means,
    with the bits of ``_edge_means_t``.
    """
    arrays = g.incidence_arrays()
    members = arrays["member_nodes"]

    def build() -> Array:
        means = T.gathered_segment_mean(X, members, arrays["member_edges"], g.num_hyperedges)
        means.setflags(write=False)
        return means

    return T.derived((members, X), "edge_means", build)


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


def _forward_t(
    g: Hypergraph,
    X: Array,
    weights: list[Tensor],
    attn: list[Tensor],
    branches: Sequence[str],
    dropout_masks: list[Array] | None = None,
) -> Iterator[Tensor]:
    """The last hidden layer of each branch for the constant input ``X``, yielded in turn.

    ``X @ W0`` and ``means(X) @ W0`` are recorded once, before any branch,
    and every branch reads those two nodes.
    """
    unknown = [branch for branch in branches if branch not in BRANCHES]
    if unknown:
        raise ContractError(f"unknown branch {unknown[0]!r}")
    x = T.as_tensor(X)
    if x.shape[0] != g.num_nodes:
        raise ContractError("X must have one row per node")
    # finite already, so it is wrapped without another scan
    means = Tensor(_input_edge_means(g, x.data))
    x_w0, means_w0 = T.matmul(x, weights[0]), T.matmul(means, weights[0])
    last = len(weights) - 1
    for branch in branches:
        if branch == "ss":
            coeff = T.as_tensor(T.column(ss_coefficients(g)))
        for t, (w, a) in enumerate(zip(weights, attn)):
            if t == 0:
                hw, ew = x_w0, means_w0
            else:
                edge_feats = _edge_means_t(g, h)
                hw, ew = T.matmul(h, w), T.matmul(edge_feats, w)
            if branch == "fs":
                coeff = _fs_coefficients_t(g, hw, ew, a)
            h = _node_update_t(g, hw, ew, coeff)
            if t < last:
                h = T.elu(h)
                if dropout_masks is not None:
                    h = T.mul(h, T.as_tensor(dropout_masks[t]))
        yield h


def forward(g: Hypergraph, X: Array, params: HGNNParams, branch: str, eval_ids) -> Array:
    """Untaped forward pass; returns logits rows for eval_ids."""
    (logits,) = _forward_branches(g, X, params, (branch,), eval_ids)
    return logits


def _forward_branches(g: Hypergraph, X: Array, params: HGNNParams, branches: Sequence[str], eval_ids) -> list[Array]:
    """Untaped logits rows for eval_ids of each branch, with one layer-0 projection."""
    weights = [T.as_tensor(w) for w in params.weights]
    attn = [T.as_tensor(a) for a in params.attn]
    ids = np.asarray(eval_ids, dtype=np.int64)
    return [hidden.data[ids] for hidden in _forward_t(g, X, weights, attn, branches)]


def ce_loss(logits_row: Array, onehot: Array) -> float:
    """Cross entropy of one logits row against a one-hot label (log-sum-exp form)."""
    logits_row = np.asarray(logits_row, dtype=np.float64).ravel()
    onehot = np.asarray(onehot, dtype=np.float64).ravel()
    if logits_row.shape != onehot.shape:
        raise ContractError("logits and one-hot label must have the same length")
    m = logits_row.max()
    lse = m + np.log(np.exp(logits_row - m).sum())
    return float(lse - (onehot * logits_row).sum())


def register_params(tape: Tape, params: HGNNParams) -> tuple[list[Tensor], list[Tensor]]:
    """Register all layer parameters on a tape; returns (weights, attn) tensors."""
    weights = [tape.param(f"w{t}", w) for t, w in enumerate(params.weights)]
    attn = [tape.param(f"a{t}", a) for t, a in enumerate(params.attn)]
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
) -> BranchGraph:
    """``build_branch_graphs`` for one branch."""
    (graph,) = build_branch_graphs(g, X, y_onehot, eval_ids, tape, weights, attn, dropout_masks, (branch,))
    return graph


def build_branch_graphs(
    g: Hypergraph,
    X: Array,
    y_onehot: Array,
    eval_ids,
    tape: Tape,
    weights: list[Tensor],
    attn: list[Tensor],
    dropout_masks: list[Array] | None = None,
    branches: Sequence[str] = BRANCHES,
) -> list[BranchGraph]:
    """Taped forward to per-sample CE losses for eval_ids, one graph per branch.

    ``y_onehot`` must carry one row per eval id. Parameters are passed as
    tape tensors so the branches share one tape, and therefore accumulate
    gradients into the same shared weights. The branches read one pair of
    layer-0 product nodes, recorded before either branch.
    """
    hidden = _forward_t(g, X, weights, attn, branches, dropout_masks)
    return loss_heads(tape, hidden, y_onehot, eval_ids, branches)


def loss_heads(
    tape: Tape, hidden: Iterable[Tensor], y_onehot: Array, eval_ids, branches: Sequence[str]
) -> list[BranchGraph]:
    """Per-sample CE losses for eval_ids on each branch's last hidden layer, recorded on ``tape``.

    ``y_onehot`` must carry one row per eval id.
    """
    eval_ids = np.asarray(eval_ids, dtype=np.int64)
    if y_onehot.shape[0] != eval_ids.size:
        raise ContractError("one-hot labels must align with eval_ids")
    labels = tape.constant(y_onehot)
    graphs = []
    for branch, h in zip(branches, hidden):
        logits = T.gather_rows(h, eval_ids)
        picked = T.row_sum(T.mul(T.row_log_softmax(logits), labels))
        loss_vec = T.scale(picked, -1.0)
        mean_loss = T.scale(T.sum_all(loss_vec), 1.0 / max(eval_ids.size, 1))
        graphs.append(BranchGraph(tape=tape, branch=branch, loss_vec=loss_vec, logits=logits, mean_loss=mean_loss))
    return graphs


def taped_forward(
    g: Hypergraph,
    X: Array,
    params: HGNNParams,
    dropout_masks: list[Array] | None = None,
    branches: Sequence[str] = BRANCHES,
) -> TapedForward:
    """A fresh tape with ``params`` and the forward of ``branches`` on it, without loss heads."""
    tape = Tape()
    weights, attn = register_params(tape, params)
    hidden = list(_forward_t(g, X, weights, attn, branches, dropout_masks))
    return TapedForward(params=params, tape=tape, branches=tuple(branches), hidden=hidden)


def taped_losses(
    g: Hypergraph,
    X: Array,
    y: Array,
    ids,
    params: HGNNParams,
    dropout_masks: list[Array] | None = None,
    branches: Sequence[str] = BRANCHES,
) -> tuple[Tape, list[BranchGraph]]:
    """A fresh tape with ``params`` and the CE loss graphs of ``branches`` for ``ids``, labelled by ``y[ids]``."""
    forward = taped_forward(g, X, params, dropout_masks, branches)
    return forward.tape, forward.losses(y, ids)


def branch_losses(g: Hypergraph, X: Array, y: Array, params: HGNNParams, ids) -> ForwardOutput:
    """Per-sample logits and losses for both branches with shared weights."""
    _, (ss, fs) = taped_losses(g, X, y, ids, params)
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
