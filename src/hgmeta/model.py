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
one-branch tape. ``forward`` is its untaped case, for any of the branches,
and the rows of each branch have the bits of a one-branch pass.
``taped_forward(...).losses(...)`` is the one way to tape the classifier:
``taped_forward`` registers the parameters on a fresh tape and records the
forward without loss heads, and ``TapedForward.losses`` adds the CE heads
for any ids to it, so one forward can serve more than one id set.

``taped_forward`` can tape the receptive field of a batch
(``Hypergraph.receptive_field``) in place of the whole graph. Layer 0 then
records ``X[nodes] @ W0`` and ``means[edges] @ W0`` over the field's rows of
``X`` and of the graph's layer-0 means, the structural branch reads the
graph's coefficients at the field's pairs, and dropout masks, drawn at the
graph's shape, are read at the field's nodes. Every value the batch's loss
rows read is then the whole graph's, and so are those rows, up to how BLAS
rounds a product row by the number of rows it multiplies; the sweeps
multiply fewer rows, so gradients differ at rounding level.

Values derived from frozen arrays (see ``tensor.frozen``) follow the one
cache rule of ``tensor.derived``: the structural coefficients live as long
as the graph, and the layer-0 means as long as both the graph and frozen
features (``Dataset.features`` is frozen).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import tensor as T
from .errors import ContractError
from .hypergraph import Hypergraph, ReceptiveField
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
        if not self.weights:
            raise ContractError("need at least one layer")
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
    """Per-sample losses of both branches."""

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
    """A taped forward at ``params`` on ``graph``: their tape and the last hidden layer of each of ``branches``.

    ``losses`` adds loss heads for any ids to the tape, as often as asked. A
    sweep seeded at some heads skips the records of the others, so its
    gradient has the bits of a tape that holds only those heads. A forward
    taped on a ``field`` of ``graph`` holds the field's rows: ``losses``
    takes graph ids, which must be among those the field was built for.
    """

    params: HGNNParams
    tape: Tape
    branches: tuple[str, ...]
    hidden: list[Tensor]
    graph: Hypergraph
    field: ReceptiveField | None = None

    def losses(self, y: Array, ids) -> list[BranchGraph]:
        """The per-sample CE loss graph of every branch for ``ids``, labelled by ``y[ids]``.

        ``ids`` pass the graph's one id check (``Hypergraph.node_ids``).
        """
        ids = self.graph.node_ids(ids)
        rows = ids if self.field is None else self.field.rows(ids)
        labels = self.tape.constant(one_hot(np.asarray(y)[ids], self.params.out_dim))
        graphs = []
        for branch, h in zip(self.branches, self.hidden):
            logits = T.gather_rows(h, rows)
            picked = T.row_sum(T.mul(T.row_log_softmax(logits), labels))
            loss_vec = T.scale(picked, -1.0)
            mean_loss = T.scale(T.sum_all(loss_vec), 1.0 / max(ids.size, 1))
            graphs.append(BranchGraph(tape=self.tape, branch=branch, loss_vec=loss_vec, logits=logits, mean_loss=mean_loss))
        return graphs


def ss_coefficients(g: Hypergraph) -> Array:
    """Structural coefficients 1/(d_i * d_e) over node-major incidence pairs.

    d_e, the mean degree of the members of e, is their integer degree sum
    divided by e's size in one correctly rounded division, so it does not
    depend on summation order and an independent recount matches it bit for
    bit.
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
    field: ReceptiveField | None = None,
) -> Iterator[Tensor]:
    """The last hidden layer of each branch for the constant input ``X``, yielded in turn.

    ``X @ W0`` and ``means(X) @ W0`` are recorded once, before any branch,
    and every branch reads those two nodes. On a ``field`` of ``g``, the
    rows are the field's: layer 0 reads its rows of ``X``, of the graph's
    layer-0 means and of the dropout masks, and its pairs of the graph's
    structural coefficients.
    """
    unknown = [branch for branch in branches if branch not in BRANCHES]
    if unknown:
        raise ContractError(f"unknown branch {unknown[0]!r}")
    x = T.as_tensor(X)
    if x.shape[0] != g.num_nodes:
        raise ContractError("X must have one row per node")
    means = _input_edge_means(g, x.data)
    ss = ss_coefficients(g) if "ss" in branches else None
    if field is not None:
        if field.hops < len(weights) - 1:
            raise ContractError(f"a {len(weights)}-layer forward needs a field of {len(weights) - 1} hops, got {field.hops}")
        x, means = T._scanned(x.data[field.nodes]), means[field.edges]
        ss = None if ss is None else ss[field.pairs]
        dropout_masks = None if dropout_masks is None else [mask[field.nodes] for mask in dropout_masks]
        g = field
    # the means and the rows of X are finite already, so they are wrapped without another scan
    means = T._scanned(means)
    x_w0, means_w0 = T.matmul(x, weights[0]), T.matmul(means, weights[0])
    last = len(weights) - 1
    for branch in branches:
        if branch == "ss":
            coeff = T.as_tensor(T.column(ss))
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


def forward(g: Hypergraph, X: Array, params: HGNNParams, eval_ids, branches: Sequence[str] = BRANCHES) -> list[Array]:
    """Untaped logits rows for ``eval_ids`` of each of ``branches``, with one layer-0 projection.

    ``eval_ids`` pass the graph's one id check (``Hypergraph.node_ids``).
    """
    ids = g.node_ids(eval_ids)
    weights = [T.as_tensor(w) for w in params.weights]
    attn = [T.as_tensor(a) for a in params.attn]
    return [hidden.data[ids] for hidden in _forward_t(g, X, weights, attn, branches)]


def build_branch_graph(
    g: Hypergraph, X: Array, y: Array, ids, params: HGNNParams, branch: str, dropout_masks: list[Array] | None = None
) -> BranchGraph:
    """The loss graph of one branch for ``ids``, on a fresh ``taped_forward`` of that branch.

    Nothing in the package calls it: the benchmark's layer table still wraps
    it by name, so it stays until that table drops it.
    """
    return taped_forward(g, X, params, dropout_masks, (branch,)).losses(y, ids)[0]


def taped_forward(
    g: Hypergraph,
    X: Array,
    params: HGNNParams,
    dropout_masks: list[Array] | None = None,
    branches: Sequence[str] = BRANCHES,
    field: ReceptiveField | None = None,
) -> TapedForward:
    """A fresh tape with ``params`` registered and the forward of ``branches`` on it, without loss heads.

    The branches share the parameter tensors, so their gradients accumulate
    into the same weights, and they read one pair of layer-0 product nodes.
    With a ``field`` of ``g`` (``Hypergraph.receptive_field``) of at least
    ``layers - 1`` hops, only the field is taped, and ``losses`` takes the
    field's ids (see the module docstring for the bits this keeps).
    """
    tape = Tape()
    weights = [tape.param(f"w{t}", w) for t, w in enumerate(params.weights)]
    attn = [tape.param(f"a{t}", a) for t, a in enumerate(params.attn)]
    hidden = list(_forward_t(g, X, weights, attn, branches, dropout_masks, field))
    return TapedForward(params=params, tape=tape, branches=tuple(branches), hidden=hidden, graph=g, field=field)


def branch_losses(g: Hypergraph, X: Array, y: Array, params: HGNNParams, ids) -> ForwardOutput:
    """Per-sample losses of both branches with shared weights; ``model.forward`` gives the logits."""
    ss, fs = taped_forward(g, X, params).losses(y, ids)
    return ForwardOutput(loss_ss=ss.loss_vec.data[:, 0], loss_fs=fs.loss_vec.data[:, 0])


def one_hot(labels: Array, num_classes: int) -> Array:
    labels = T.checked_ids(labels, "label", num_classes)
    out = np.zeros((labels.size, num_classes))
    out[np.arange(labels.size), labels] = 1.0
    return out
