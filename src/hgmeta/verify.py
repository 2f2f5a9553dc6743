"""Gradient verification at toy scale.

Four checks against central finite differences: the taped backward pass
of each classifier branch over every parameter coordinate; one sample's
gradient row of each branch, taken as the weight-net step's reference
rows are (``_grad_rows`` with unit seeds); the forward-mode tangent of
each branch's loss column along a random parameter direction
(``Tape.jvp``, which gives the meta step its signal gbar); and the analytic
Theta-gradient of the weight-net update, in either output mode, pushed
through one probe step (perturb Theta, rebuild the probe parameters by the
probe's own rule, one backward sweep of the kept probe tape seeded with the
blend weights at both loss columns, and re-evaluate the meta loss).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, Splits
from .hypergraph import Hypergraph
from .model import BRANCHES, HGNNParams, branch_losses, taped_forward
from .mwn import MWNParams, mwn_forward_batch
from .rng import stream
from .tensor import Array, central_difference, finite_diff_check
from .trainer import (
    _grad_rows,
    _step_gradient,
    intermediate_update,
    meta_gradient,
    meta_loss_value,
)

HGNN_TOLERANCE = 1e-4
META_TOLERANCE = 1e-3


def random_toy_dataset(
    nodes: int = 8,
    edges: int = 6,
    classes: int = 3,
    dim: int = 5,
    seed: int = 0,
    max_edge_size: int = 4,
) -> Dataset:
    """Small dense-ish random instance with train/meta/test splits."""
    rng = stream(seed, "toy")
    edge_list = []
    for _ in range(edges):
        size = int(rng.integers(2, min(max_edge_size, nodes) + 1))
        edge_list.append(sorted(int(v) for v in rng.choice(nodes, size=size, replace=False)))
    labels = rng.integers(0, classes, size=nodes).astype(np.int64)
    features = rng.normal(0.0, 1.0, size=(nodes, dim))
    perm = [int(v) for v in rng.permutation(nodes)]
    third = max(1, nodes // 3)
    splits = Splits(
        train=tuple(perm[:third]),
        meta=tuple(perm[third : 2 * third]),
        test=tuple(perm[2 * third :]),
    )
    return Dataset(
        graph=Hypergraph(nodes, edge_list),
        features=features,
        labels=labels,
        splits=splits,
        num_classes=classes,
        name=f"toy-{seed}",
    )


def hgnn_gradient_check(
    nodes: int = 8,
    hidden: int = 4,
    classes: int = 3,
    seed: int = 0,
    eps: float = 1e-4,
) -> dict[str, float]:
    """Max relative backward-vs-numeric error per branch on a random toy."""
    ds = random_toy_dataset(nodes=nodes, classes=classes, seed=seed)
    ids = np.asarray(ds.splits.train + ds.splits.meta, dtype=np.int64)
    template = HGNNParams.init(
        [ds.features.shape[1], hidden, ds.num_classes],
        stream(seed, "init-w"),
        stream(seed, "init-a"),
    )
    report = {}
    for branch in ("ss", "fs"):

        def build(params: dict[str, Array], branch=branch):
            hp = HGNNParams(
                weights=[params[f"w{t}"] for t in range(template.num_layers)],
                attn=[params[f"a{t}"] for t in range(template.num_layers)],
            )
            (graph,) = taped_forward(ds.graph, ds.features, hp, branches=(branch,)).losses(ds.labels, ids)
            return graph.tape, graph.mean_loss

        report[branch] = finite_diff_check(build, dict(template.param_items()), eps=eps)
    return report


def per_sample_row_check(hidden: int = 4, seed: int = 0, eps: float = 1e-5, samples: int = 15) -> dict[str, float]:
    """Max error of one sample's gradient row per branch against central differences.

    The graph is a chain of 120 nodes in 59 hyperedges of 3, and the loss
    column has ``samples`` samples spread along it, so one sample's gradient
    lives on at most 5 nodes and 4 hyperedges. The error is relative to the
    row's largest entry: a row has many entries near zero, where central
    differences carry more noise than a per-coordinate relative error could
    tell from a fault.
    """
    g = Hypergraph(120, [[i, i + 1, i + 2] for i in range(0, 118, 2)])
    rng = stream(seed, "row-check")
    X, y = rng.normal(size=(120, 3)), rng.integers(0, 2, size=120)
    hgnn = HGNNParams.init([3, hidden, 2], stream(seed, "init-w"), stream(seed, "init-a"))
    ids = np.linspace(7, 111, samples).astype(np.int64)
    sample = ids.size // 2
    report = {}
    for branch, graph in zip(BRANCHES, taped_forward(g, X, hgnn).losses(y, ids)):
        row = _grad_rows(graph, hgnn)[sample]

        def loss_at(vec: Array, branch=branch) -> float:
            out = branch_losses(g, X, y, hgnn.with_vec(vec), ids)
            return float((out.loss_ss if branch == "ss" else out.loss_fs)[sample])

        numeric = central_difference(loss_at, hgnn.flatten(), eps)
        report[branch] = float(np.abs(row - numeric).max() / max(1e-8, np.abs(numeric).max()))
    return report


def jvp_check(nodes: int = 8, hidden: int = 4, seed: int = 0, eps: float = 1e-5) -> dict[str, float]:
    """Max error of each branch's loss-column tangent along a random direction against central differences.

    The tangent of sample j's loss is the derivative of that loss along the
    direction, taken numerically on the toy's train and meta ids. The error
    is relative to the column's largest entry, as in ``per_sample_row_check``.
    """
    ds = random_toy_dataset(nodes=nodes, seed=seed)
    ids = np.asarray(ds.splits.train + ds.splits.meta, dtype=np.int64)
    hgnn = HGNNParams.init([ds.features.shape[1], hidden, ds.num_classes], stream(seed, "init-w"), stream(seed, "init-a"))
    w = hgnn.flatten()
    direction = stream(seed, "jvp-check").normal(size=w.size)
    forward = taped_forward(ds.graph, ds.features, hgnn)
    graphs = forward.losses(ds.labels, ids)
    tangents = forward.tape.jvp([graph.loss_vec for graph in graphs], dict(hgnn.with_vec(direction).param_items()))
    report = {}
    for branch, tangent in zip(BRANCHES, tangents):

        def loss_at(step: Array, j: int, branch=branch) -> float:
            out = branch_losses(ds.graph, ds.features, ds.labels, hgnn.with_vec(w + step[0] * direction), ids)
            return float((out.loss_ss if branch == "ss" else out.loss_fs)[j])

        numeric = np.array([central_difference(lambda s, j=j: loss_at(s, j), np.zeros(1), eps)[0] for j in range(ids.size)])
        report[branch] = float(np.abs(tangent[:, 0] - numeric).max() / max(1e-8, np.abs(numeric).max()))
    return report


@dataclass
class MetaCheckReport:
    max_rel_err: float
    analytic_norm: float
    numeric_norm: float


def meta_gradient_check(
    nodes: int = 8,
    hidden: int = 4,
    mwn_hidden: int = 8,
    k: int = 2,
    seed: int = 0,
    lam1: float = 0.05,
    eps: float = 1e-5,
    mode: str = "complementary",
) -> MetaCheckReport:
    """Analytic Theta-gradient vs finite differences through one probe step, in output ``mode``."""
    ds = random_toy_dataset(nodes=nodes, seed=seed)
    rng = stream(seed, "meta-check")
    train_ids = np.asarray(ds.splits.train, dtype=np.int64)
    meta_ids = np.asarray(ds.splits.meta, dtype=np.int64)
    tasks = rng.integers(0, k, size=train_ids.size)
    hgnn = HGNNParams.init(
        [ds.features.shape[1], hidden, ds.num_classes],
        stream(seed, "init-w"),
        stream(seed, "init-a"),
    )
    mwn = MWNParams.init(k, hidden=mwn_hidden, mode=mode, rng=stream(seed, "init-mwn"))
    # random heads so the gradient is not trivially zero
    mwn = mwn.with_vec(mwn.flatten() + 0.3 * rng.normal(size=mwn.flatten().size))

    w_hat, cache = intermediate_update(ds.graph, ds.features, ds.labels, hgnn, mwn, train_ids, tasks, lam1)
    analytic, _, _ = meta_gradient(ds.graph, ds.features, ds.labels, w_hat, cache, meta_ids, mwn, lam1)

    def loss_at(theta_vec: Array) -> float:
        probe_mwn = mwn.with_vec(theta_vec)
        alpha, beta = mwn_forward_batch(cache.l1, cache.l2, cache.tasks, probe_mwn)
        w_vec = cache.w_vec - lam1 * _step_gradient(alpha, beta, cache, hgnn, 0.0)
        return meta_loss_value(ds.graph, ds.features, ds.labels, meta_ids, hgnn.with_vec(w_vec))[0]

    numeric = central_difference(loss_at, mwn.flatten(), eps)
    errs = np.abs(analytic - numeric) / np.maximum(1e-8, np.abs(numeric))
    return MetaCheckReport(
        max_rel_err=float(errs.max()),
        analytic_norm=float(np.linalg.norm(analytic)),
        numeric_norm=float(np.linalg.norm(numeric)),
    )
