"""Gradient verification at toy scale.

Two checks: the taped backward pass of each classifier branch against
central finite differences over every parameter coordinate, and the analytic
Theta-gradient of the weight-net update, in either output mode, against
finite differences pushed through one probe step (perturb Theta, rebuild the
probe parameters from the cached per-sample gradients, re-evaluate the meta
loss).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, Splits
from .hypergraph import Hypergraph
from .model import HGNNParams, taped_losses
from .mwn import MWNParams, mwn_forward_batch
from .rng import stream
from .tensor import Array, central_difference, finite_diff_check
from .trainer import (
    _weighted_grad_sum,
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
            tape, (graph,) = taped_losses(ds.graph, ds.features, ds.labels, ids, hp, branches=(branch,))
            return tape, graph.mean_loss

        report[branch] = finite_diff_check(build, dict(template.param_items()), eps=eps)
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
        w_vec = cache.w_vec - lam1 * _weighted_grad_sum(alpha, beta, cache, 0.0)
        return meta_loss_value(ds.graph, ds.features, ds.labels, meta_ids, hgnn.with_vec(w_vec))

    numeric = central_difference(loss_at, mwn.flatten(), eps)
    errs = np.abs(analytic - numeric) / np.maximum(1e-8, np.abs(numeric))
    return MetaCheckReport(
        max_rel_err=float(errs.max()),
        analytic_norm=float(np.linalg.norm(analytic)),
        numeric_norm=float(np.linalg.norm(numeric)),
    )
