"""Joint training of the classifier and the loss-weighting net.

Each iteration runs three steps on the shared weight vector w and the
weight-net parameters Theta:

1. probe step: per-sample losses and gradients for both branches at w give
   an intermediate w_hat = w - lr1 * sum_j (alpha_j g1_j + beta_j g2_j) with
   (alpha, beta) from the current Theta;
2. weight-net step: Theta moves along the analytic gradient of the meta-set
   loss at w_hat. Because w_hat is linear in each alpha_j and beta_j, that
   gradient is exactly
   -lr1 * sum_j (gbar1_j * d(alpha_j)/d(Theta) + gbar2_j * d(beta_j)/d(Theta))
   with gbar1_j = g_meta . g1_j and gbar2_j = g_meta . g2_j, so no
   second-order differentiation is needed. In complementary mode
   beta_j = 1 - alpha_j and the sum folds into one term with
   gbar_j = g_meta . (g1_j - g2_j);
3. commit step: recompute (alpha, beta) under the new Theta and apply them
   to the cached per-sample gradients, still evaluated at w.

Per-sample gradients are materialized as an (n, P) matrix per branch, which
is the memory bottleneck at scale but keeps step 2 a pair of matrix
products. All reductions are fixed-order, so runs are bit-reproducible.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from time import perf_counter
from typing import Sequence

import numpy as np

from . import tensor as T
from .errors import ContractError, NumericsError, TrainingError
from .hypergraph import Hypergraph
from .model import (
    HGNNParams,
    build_branch_graph,
    forward,
    one_hot,
    register_params,
)
from .mwn import MWNParams, mwn_forward_batch, weighted_alpha_theta_grad
from .partition import Partition, assign_levels, kmeans_1d
from .rng import stream
from .tensor import Array, Tape

logger = logging.getLogger(__name__)

SCHEDULE_KINDS = ("constant", "inverse-sqrt")
PREDICT_MODES = ("ss", "fs", "blend")


@dataclass(frozen=True)
class ScheduleSpec:
    """Learning-rate schedule: constant c, or min(1/m_hat, c/sqrt(t))."""

    kind: str = "inverse-sqrt"
    c: float = 0.02
    m_hat: float = 10.0

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ContractError(f"unknown schedule kind {self.kind!r}")
        if self.c < 0 or self.m_hat <= 0:
            raise ContractError("schedule constants must be positive")


def lr(spec: ScheduleSpec, t: int) -> float:
    if t < 1:
        raise ContractError("steps are 1-based")
    if spec.kind == "constant":
        return spec.c
    return min(1.0 / spec.m_hat, spec.c / np.sqrt(t))


@dataclass(frozen=True)
class TrainSettings:
    """Everything the training loop needs besides the dataset itself."""

    steps: int
    schedule1: ScheduleSpec = ScheduleSpec(c=0.02)
    schedule2: ScheduleSpec = ScheduleSpec(c=1.0)
    layers: int = 2
    hidden: int = 64
    k: int = 3
    mwn_hidden: int = 100
    mwn_mode: str = "complementary"
    mwn_log1p: bool = False
    seed: int = 0
    batch_size: int | None = None
    meta_source: str = "meta-split"  # "meta-split" | "test-split" (leaky, opt-in)
    pin_alpha: float | None = None
    optimizer: str = "gd"  # "gd" | "adam" (commit step only)
    weight_decay: float = 0.0
    dropout: float = 0.0


@dataclass
class StepRecord:
    step: int
    lr1: float
    lr2: float
    train_loss: float
    meta_loss: float
    mean_alpha: list[float]
    grad_w_norm: float
    grad_theta_norm: float

    def to_dict(self) -> dict:
        return {
            "step": self.step,
            "lr1": self.lr1,
            "lr2": self.lr2,
            "train_loss": self.train_loss,
            "meta_loss": self.meta_loss,
            "mean_alpha": [None if np.isnan(a) else a for a in self.mean_alpha],
            "grad_w_norm": self.grad_w_norm,
            "grad_theta_norm": self.grad_theta_norm,
        }


@dataclass
class AdamState:
    m: Array
    v: Array
    count: int = 0


@dataclass
class TrainState:
    """Mutable snapshot of a run: parameters, partition, step counter, history."""

    hgnn: HGNNParams
    mwn: MWNParams
    partition: Partition
    schedule1: ScheduleSpec
    schedule2: ScheduleSpec
    seed: int
    step: int = 0
    history: list[StepRecord] = field(default_factory=list)
    train_tasks: Array | None = None
    adam: AdamState | None = None
    # wall-clock seconds per completed step; diagnostics only, never serialized
    step_seconds: list[float] = field(default_factory=list)


@dataclass
class StepCache:
    """Per-step quantities shared by the three updates.

    Per-sample gradient matrices are only materialized when the weight net
    actually trains; pinned-alpha runs carry the cheaper branch sums instead.
    """

    ids: Array
    tasks: Array
    l1: Array
    l2: Array
    alpha: Array
    beta: Array
    w_vec: Array
    grads1: Array | None = None  # (n, P), per-sample structural-branch gradients
    grads2: Array | None = None  # (n, P), feature branch
    grad_sum1: Array | None = None  # (P,), column sums of grads1
    grad_sum2: Array | None = None


def _flatten_grads(grads: dict[str, Array], params: HGNNParams | MWNParams) -> Array:
    return np.concatenate([grads[name].ravel() for name, _ in params.param_items()])


def _per_sample_grads(graph, tape: Tape, params: HGNNParams) -> Array:
    n = graph.loss_vec.shape[0]
    rows = np.empty((n, params.flatten().size))
    seed = np.zeros((n, 1))
    for j in range(n):
        seed[j, 0] = 1.0
        rows[j] = _flatten_grads(tape.backward(graph.loss_vec, seed), params)
        seed[j, 0] = 0.0
    return rows


def _weighted_grad_sum(alpha: Array, beta: Array, cache: StepCache, weight_decay: float) -> Array:
    if cache.grads1 is not None:
        total = (alpha[:, None] * cache.grads1 + beta[:, None] * cache.grads2).sum(axis=0)
    else:
        # constant weights factor out of the per-sample sum
        total = alpha[0] * cache.grad_sum1 + beta[0] * cache.grad_sum2
    if weight_decay:
        total = total + weight_decay * cache.w_vec
    return total


def _dropout_masks(settings: TrainSettings, num_nodes: int, rng: np.random.Generator) -> list[Array] | None:
    if settings.dropout <= 0.0:
        return None
    keep = 1.0 - settings.dropout
    return [
        (rng.random((num_nodes, settings.hidden)) < keep) / keep
        for _ in range(settings.layers - 1)
    ]


def intermediate_update(
    g: Hypergraph,
    X: Array,
    y: Array,
    num_classes: int,
    hgnn: HGNNParams,
    mwn: MWNParams,
    ids: Array,
    tasks: Array,
    lam1: float,
    pin_alpha: float | None = None,
    weight_decay: float = 0.0,
    dropout_masks: list[Array] | None = None,
) -> tuple[HGNNParams, StepCache]:
    """Step 1: per-sample losses/gradients at w and the probe parameters w_hat."""
    ids = np.asarray(ids, dtype=np.int64)
    onehot = one_hot(np.asarray(y, dtype=np.int64)[ids], num_classes)
    tape = Tape()
    weights, attn = register_params(tape, hgnn)
    graph_ss = build_branch_graph(g, X, onehot, ids, "ss", tape, weights, attn, dropout_masks)
    graph_fs = build_branch_graph(g, X, onehot, ids, "fs", tape, weights, attn, dropout_masks)
    l1 = graph_ss.loss_vec.data[:, 0].copy()
    l2 = graph_fs.loss_vec.data[:, 0].copy()
    cache = StepCache(
        ids=ids,
        tasks=np.asarray(tasks, dtype=np.int64),
        l1=l1,
        l2=l2,
        alpha=np.zeros(0),
        beta=np.zeros(0),
        w_vec=hgnn.flatten(),
    )
    if pin_alpha is None:
        cache.grads1 = _per_sample_grads(graph_ss, tape, hgnn)
        cache.grads2 = _per_sample_grads(graph_fs, tape, hgnn)
        cache.alpha, cache.beta = mwn_forward_batch(l1, l2, tasks, mwn)
    else:
        ones = np.ones((ids.size, 1))
        cache.grad_sum1 = _flatten_grads(tape.backward(graph_ss.loss_vec, ones), hgnn)
        cache.grad_sum2 = _flatten_grads(tape.backward(graph_fs.loss_vec, ones), hgnn)
        cache.alpha = np.full(ids.size, float(pin_alpha))
        cache.beta = 1.0 - cache.alpha
    alpha, beta = cache.alpha, cache.beta
    w_hat_vec = cache.w_vec - lam1 * _weighted_grad_sum(alpha, beta, cache, weight_decay)
    if not np.all(np.isfinite(w_hat_vec)):
        raise NumericsError("non-finite probe parameters")
    return hgnn.with_vec(w_hat_vec), cache


def _meta_loss_graph(g, X, y_onehot, meta_ids, params: HGNNParams):
    tape = Tape()
    weights, attn = register_params(tape, params)
    graph_ss = build_branch_graph(g, X, y_onehot, meta_ids, "ss", tape, weights, attn)
    graph_fs = build_branch_graph(g, X, y_onehot, meta_ids, "fs", tape, weights, attn)
    total = T.add(graph_ss.mean_loss, graph_fs.mean_loss)
    return tape, total


def meta_loss_value(g, X, y, num_classes, meta_ids, params: HGNNParams) -> float:
    """Mean over the meta split of the summed branch losses."""
    meta_ids = np.asarray(meta_ids, dtype=np.int64)
    onehot = one_hot(np.asarray(y, dtype=np.int64)[meta_ids], num_classes)
    _, total = _meta_loss_graph(g, X, onehot, meta_ids, params)
    return float(total.data[0, 0])


def meta_gradient(
    g: Hypergraph,
    X: Array,
    y: Array,
    num_classes: int,
    w_hat: HGNNParams,
    cache: StepCache,
    meta_ids: Array,
    mwn: MWNParams,
    lam1: float,
) -> tuple[Array, float, Array]:
    """Step 2 gradient of the meta loss w.r.t. Theta, plus diagnostics.

    Returns (d_theta, meta_loss, gbar) where d_theta is flat in
    MWNParams.param_items() order and gbar[j] is the inner product of the
    meta-loss gradient at w_hat with the branch-gradient difference of
    training sample j. Weight decay moves w_hat by a term that does not
    depend on Theta, so it drops out of d_theta.
    """
    meta_ids = np.asarray(meta_ids, dtype=np.int64)
    onehot = one_hot(np.asarray(y, dtype=np.int64)[meta_ids], num_classes)
    if cache.grads1 is None:
        raise ContractError("meta_gradient needs per-sample gradients (not a pinned-alpha cache)")
    tape, total = _meta_loss_graph(g, X, onehot, meta_ids, w_hat)
    meta_loss = float(total.data[0, 0])
    g_meta = _flatten_grads(tape.backward(total), w_hat)
    if mwn.mode == "complementary":
        gbar = (cache.grads1 - cache.grads2) @ g_meta
        grad_dict = weighted_alpha_theta_grad(cache.l1, cache.l2, cache.tasks, mwn, gbar)
    else:
        gbar1, gbar2 = cache.grads1 @ g_meta, cache.grads2 @ g_meta
        gbar = gbar1 - gbar2
        grad_dict = weighted_alpha_theta_grad(cache.l1, cache.l2, cache.tasks, mwn, gbar1, gbar2)
    d_theta = -lam1 * _flatten_grads(grad_dict, mwn)
    return d_theta, meta_loss, gbar


def internal_update(mwn: MWNParams, d_theta: Array, lam2: float) -> MWNParams:
    """Step 2 commit: Theta <- Theta - lr2 * d_theta."""
    if not np.all(np.isfinite(d_theta)):
        raise NumericsError("non-finite Theta gradient")
    theta = mwn.flatten() - lam2 * d_theta
    if not np.all(np.isfinite(theta)):
        raise NumericsError("non-finite weight-net parameters after update")
    return mwn.with_vec(theta)


def external_update(
    cache: StepCache,
    hgnn: HGNNParams,
    mwn_new: MWNParams,
    lam1: float,
    pin_alpha: float | None = None,
    weight_decay: float = 0.0,
    adam: AdamState | None = None,
) -> tuple[HGNNParams, Array, Array]:
    """Step 3: reweight the cached gradients under the new Theta and commit.

    Gradients stay evaluated at the pre-step w. Returns the new parameters,
    the recomputed alpha, and the applied gradient vector.
    """
    if pin_alpha is None:
        alpha, beta = mwn_forward_batch(cache.l1, cache.l2, cache.tasks, mwn_new)
    else:
        alpha = np.full(cache.ids.size, float(pin_alpha))
        beta = 1.0 - alpha
    grad = _weighted_grad_sum(alpha, beta, cache, weight_decay)
    if adam is None:
        w_vec = cache.w_vec - lam1 * grad
    else:
        adam.count += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        adam.m = b1 * adam.m + (1 - b1) * grad
        adam.v = b2 * adam.v + (1 - b2) * grad * grad
        m_hat = adam.m / (1 - b1**adam.count)
        v_hat = adam.v / (1 - b2**adam.count)
        w_vec = cache.w_vec - lam1 * m_hat / (np.sqrt(v_hat) + eps)
    if not np.all(np.isfinite(w_vec)):
        raise NumericsError("non-finite classifier parameters after update")
    return hgnn.with_vec(w_vec), alpha, grad


def fit_overlap_partition(g: Hypergraph, train_ids: Sequence[int], k: int) -> tuple[Partition, Array]:
    """Overlap values on the training nodes, clustered into levels.

    Nodes with an empty egonet are excluded from the fit and land in level 0
    when assigned. Returns the partition and the per-training-node levels.
    """
    train_ids = np.asarray(train_ids, dtype=np.int64)
    vec = g.overlap_vector(train_ids)
    valid_values = vec.values[vec.valid]
    if valid_values.size:
        partition = kmeans_1d(valid_values, k)
    else:
        partition = Partition(centroids=np.array([1.0]), labels=np.zeros(0, dtype=np.int64), k=1, requested_k=k)
    return partition, assign_levels(vec.values, partition.centroids)


def _mean_alpha_per_task(alpha: Array, tasks: Array, k: int) -> list[float]:
    out = []
    for c in range(k):
        members = alpha[tasks == c]
        out.append(float(members.mean()) if members.size else float("nan"))
    return out


def train(dataset, settings: TrainSettings):
    """Full run per the three-step loop; returns (state, metrics).

    On a numeric failure mid-run the TrainingError carries the state with
    every completed step's history preserved.
    """
    g, X, y = dataset.graph, dataset.features, dataset.labels
    train_ids = np.asarray(dataset.splits.train, dtype=np.int64)
    if train_ids.size == 0:
        raise ContractError("training split is empty")
    partition, train_tasks = fit_overlap_partition(g, train_ids, settings.k)
    dims = [X.shape[1]] + [settings.hidden] * (settings.layers - 1) + [dataset.num_classes]
    hgnn = HGNNParams.init(dims, stream(settings.seed, "init-w"), stream(settings.seed, "init-a"))
    mwn = MWNParams.init(
        partition.k,
        hidden=settings.mwn_hidden,
        mode=settings.mwn_mode,
        log1p_inputs=settings.mwn_log1p,
        rng=stream(settings.seed, "init-mwn"),
    )
    adam = None
    if settings.optimizer == "adam":
        p_count = hgnn.flatten().size
        adam = AdamState(m=np.zeros(p_count), v=np.zeros(p_count))
    elif settings.optimizer != "gd":
        raise ContractError(f"unknown optimizer {settings.optimizer!r}")
    if settings.meta_source == "meta-split":
        meta_ids = np.asarray(dataset.splits.meta, dtype=np.int64)
    elif settings.meta_source == "test-split":
        logger.warning("meta set drawn from the test split; evaluation leaks into training")
        meta_ids = np.asarray(dataset.splits.test, dtype=np.int64)
    else:
        raise ContractError(f"unknown meta source {settings.meta_source!r}")
    if meta_ids.size == 0:
        raise ContractError("meta split is empty")

    state = TrainState(
        hgnn=hgnn,
        mwn=mwn,
        partition=partition,
        schedule1=settings.schedule1,
        schedule2=settings.schedule2,
        seed=settings.seed,
        train_tasks=train_tasks,
        adam=adam,
    )
    batch_rng = stream(settings.seed, "batch")

    for t in range(1, settings.steps + 1):
        started = perf_counter()
        try:
            _one_step(state, dataset, settings, t, train_ids, meta_ids, batch_rng)
        except NumericsError as exc:
            raise TrainingError(str(exc), step=t, state=state) from exc
        state.step = t
        state.step_seconds.append(perf_counter() - started)
    metrics = evaluate(state, dataset)
    return state, metrics


def _one_step(state: TrainState, dataset, settings: TrainSettings, t: int, train_ids, meta_ids, batch_rng):
    g, X, y = dataset.graph, dataset.features, dataset.labels
    lam1, lam2 = lr(state.schedule1, t), lr(state.schedule2, t)
    if settings.batch_size is not None and settings.batch_size < train_ids.size:
        pick = batch_rng.choice(train_ids.size, size=settings.batch_size, replace=False)
        pick.sort()
        ids, tasks = train_ids[pick], state.train_tasks[pick]
    else:
        ids, tasks = train_ids, state.train_tasks
    masks = _dropout_masks(settings, g.num_nodes, batch_rng)
    w_hat, cache = intermediate_update(
        g, X, y, dataset.num_classes, state.hgnn, state.mwn, ids, tasks,
        lam1, settings.pin_alpha, settings.weight_decay, masks,
    )
    if settings.pin_alpha is None:
        d_theta, meta_loss, _ = meta_gradient(
            g, X, y, dataset.num_classes, w_hat, cache, meta_ids, state.mwn, lam1
        )
        state.mwn = internal_update(state.mwn, d_theta, lam2)
    else:
        # pinned weights never update Theta; only the meta loss is reported
        d_theta = np.zeros(0)
        meta_loss = meta_loss_value(g, X, y, dataset.num_classes, meta_ids, w_hat)
    state.hgnn, alpha_new, grad_w = external_update(
        cache, state.hgnn, state.mwn, lam1, settings.pin_alpha, settings.weight_decay, state.adam
    )
    train_loss = float((cache.alpha * cache.l1 + cache.beta * cache.l2).mean())
    state.history.append(
        StepRecord(
            step=t,
            lr1=float(lam1),
            lr2=float(lam2),
            train_loss=train_loss,
            meta_loss=meta_loss,
            mean_alpha=_mean_alpha_per_task(cache.alpha, cache.tasks, state.partition.k),
            grad_w_norm=float(np.linalg.norm(grad_w)),
            grad_theta_norm=float(np.linalg.norm(d_theta)),
        )
    )


def _softmax_rows(logits: Array) -> Array:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def final_alpha_per_task(state: TrainState) -> Array:
    """Mean alpha per overlap level from the last recorded step (0.5 before training)."""
    k = state.partition.k
    if not state.history:
        return np.full(k, 0.5)
    out = np.asarray(state.history[-1].mean_alpha, dtype=np.float64)
    return np.where(np.isnan(out), 0.5, out)


def predict(state: TrainState, dataset, ids, mode: str = "blend") -> tuple[Array, Array]:
    """Labels and per-class scores for the requested branch or the blend.

    The blend weighs the structural branch's softmax by the final mean alpha
    of the node's overlap level and the feature branch's by its complement.
    """
    if mode not in PREDICT_MODES:
        raise ContractError(f"unknown predict mode {mode!r}")
    g, X = dataset.graph, dataset.features
    ids = np.asarray(ids, dtype=np.int64)
    if mode == "ss":
        scores = _softmax_rows(forward(g, X, state.hgnn, "ss", ids))
    elif mode == "fs":
        scores = _softmax_rows(forward(g, X, state.hgnn, "fs", ids))
    else:
        p_ss = _softmax_rows(forward(g, X, state.hgnn, "ss", ids))
        p_fs = _softmax_rows(forward(g, X, state.hgnn, "fs", ids))
        alpha_bar = final_alpha_per_task(state)
        levels = assign_levels(g.overlap_vector(ids).values, state.partition.centroids)
        weights = alpha_bar[levels][:, None]
        scores = weights * p_ss + (1.0 - weights) * p_fs
    return scores.argmax(axis=1), scores


def evaluate(state: TrainState, dataset) -> dict:
    """Test accuracies for both branches and the blend, plus final alphas."""
    test_ids = np.asarray(dataset.splits.test, dtype=np.int64)
    truth = dataset.labels[test_ids]
    out: dict = {}
    for mode in PREDICT_MODES:
        labels, _ = predict(state, dataset, test_ids, mode)
        out[f"test_acc_{mode}"] = float((labels == truth).mean()) if test_ids.size else float("nan")
    out["final_mean_alpha"] = [float(a) for a in final_alpha_per_task(state)]
    if state.history:
        out["train_loss_final"] = state.history[-1].train_loss
        out["meta_loss_final"] = state.history[-1].meta_loss
    else:
        out["train_loss_final"] = None
        out["meta_loss_final"] = None
    return out
