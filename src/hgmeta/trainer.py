"""Joint training of the classifier and the loss-weighting net.

Each iteration runs three steps on the shared weight vector w and the
weight-net parameters Theta, with g1_j and g2_j the gradients at w of
sample j's loss in each branch:

1. probe step: the per-sample losses of both branches at w give (alpha,
   beta) from the current Theta, and the intermediate
   w_hat = w - lr1 * sum_j (alpha_j g1_j + beta_j g2_j) takes one backward
   sweep of the probe tape, seeded with the alpha column at the structural
   loss column and the beta column at the feature one: no g_j is formed;
2. weight-net step: Theta moves along the analytic gradient of the meta-set
   loss at w_hat. Because w_hat is linear in each alpha_j and beta_j, that
   gradient is exactly
   -lr1 * sum_j (gbar1_j * d(alpha_j)/d(Theta) + gbar2_j * d(beta_j)/d(Theta))
   with gbar1_j = g_meta . g1_j and gbar2_j = g_meta . g2_j, so no
   second-order differentiation is needed. Both columns are the tangents of
   the two loss columns along g_meta, from one forward-mode sweep
   (``Tape.jvp``) over the kept probe tape. In complementary mode
   beta_j = 1 - alpha_j is taped, so the one sweep seeded with both columns
   folds the sum into one term with gbar_j = gbar1_j - gbar2_j;
3. commit step: recompute (alpha, beta) under the new Theta and reseed the
   probe tape's sweep with them, so the gradients are still evaluated at w.

A weight-net step thus costs a fixed number of sweeps over the graph, or
over the probe's receptive field when it is small, whatever n_train is,
and holds O(P) of gradients, never an (n, P) matrix. The per-sample rows
(``_grad_rows``, one unit-seeded sweep per sample) stay as the reference
that tests compare against. A pinned alpha is the constant
seed (alpha, 1 - alpha) of the same sweep. It cannot change between probe
and commit, so the probe's gradient serves both: the probe tape is dropped
after the probe and step 2 only reports the meta loss at w_hat, from a taped
forward there. Under plain gradient descent the commit computes w_hat again,
bit for bit, so ``train`` keeps that forward and the next probe adds its
loss heads to it instead of recording its own: a pinned step makes one
taped forward and one backward sweep. The forward is deterministic and a
sweep skips the records no seed reaches, so a reused forward gives the bits
of a fresh one. A seed of zeros reaches nothing either, so a pin of 1 or 0
sweeps one branch. All reductions are fixed-order, so runs are
bit-reproducible.

A step that fails leaves the state as the step before left it: the new
weight net and the Adam moments are stored only once the new classifier is
found finite.
"""

from __future__ import annotations

import logging
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Sequence

import numpy as np

from . import tensor as T
from .errors import ContractError, NumericsError, TrainingError
from .hypergraph import Hypergraph, OverlapVector, ReceptiveField
from . import model
from .model import BRANCHES, BranchGraph, HGNNParams, TapedForward, taped_forward
from .mwn import MWNParams, mwn_forward_batch, weighted_alpha_theta_grad
from .partition import Partition, assign_levels, kmeans_1d
from .rng import stream
from .tensor import Array

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
    step: int = 0
    history: list[StepRecord] = field(default_factory=list)
    train_tasks: Array | None = None
    adam: AdamState | None = None
    # wall-clock seconds per completed step; diagnostics only, never serialized
    step_seconds: list[float] = field(default_factory=list)


@dataclass
class StepCache:
    """Per-step quantities shared by the three updates.

    When the weight net trains, ``graphs`` holds the probe tape's two loss
    graphs, which probe and commit reseed and the meta step sweeps forward.
    When alpha is pinned, ``graphs`` is None and ``grad`` holds the probe's
    step gradient: the commit applies ``alpha`` and ``grad`` again, so the
    probe alone decides a step's mode. ``grads1`` and ``grads2`` are never
    set; ``perfbench`` still reads them.
    """

    tasks: Array
    l1: Array
    l2: Array
    alpha: Array
    beta: Array
    w_vec: Array
    grads1: Array | None = None
    grads2: Array | None = None
    graphs: tuple[BranchGraph, BranchGraph] | None = None
    grad: Array | None = None


def _flatten_grads(grads: dict[str, Array], params: HGNNParams | MWNParams) -> Array:
    return np.concatenate([grads[name].ravel() for name, _ in params.param_items()])


def _grad_rows(graph: BranchGraph, params: HGNNParams) -> Array:
    """One gradient row per sample of ``graph``'s loss column, each from a unit-seeded sweep of its tape.

    These are the reference the weight-net step is checked against.
    """
    seeds = np.eye(graph.loss_vec.shape[0])[:, :, None]
    return np.stack([_flatten_grads(graph.tape.backward(graph.loss_vec, seed), params) for seed in seeds])


def _step_gradient(alpha: Array, beta: Array, cache: StepCache, params: HGNNParams, weight_decay: float) -> Array:
    """sum_j (alpha_j g1_j + beta_j g2_j) plus weight decay, the gradient probe and commit apply.

    One backward sweep of the probe tape, seeded with the alpha column at
    the structural loss column and the beta column at the feature one. A
    column of zeros (alpha pinned at 0 or 1) is no root, so the sweep visits
    only the other branch's records.
    """
    ss, fs = cache.graphs
    grads = ss.tape.backward([(ss.loss_vec, alpha[:, None]), (fs.loss_vec, beta[:, None])])
    total = _flatten_grads(grads, params)
    if weight_decay:
        total += weight_decay * cache.w_vec
    return total


def _dropout_masks(settings: TrainSettings, num_nodes: int, rng: np.random.Generator) -> list[Array] | None:
    if settings.dropout <= 0.0:
        return None
    keep = 1.0 - settings.dropout
    return [
        (rng.random((num_nodes, settings.hidden)) < keep) / keep
        for _ in range(settings.layers - 1)
    ]


# the largest share of the graph's layer-0 rows (nodes plus hyperedges) for which a probe tapes only its field
_FIELD_SHARE = 0.5


def _probe_field(g: Hypergraph, ids: Array, layers: int) -> ReceptiveField | None:
    """The receptive field of ``ids`` for a ``layers``-layer forward, or None when it is not small.

    A field's layer-0 products multiply fewer rows, and its sweeps run over
    fewer; but its tape holds copies of its rows of the input features and
    of the layer-0 means, which the whole graph's tape reads in place, so a
    field that covers much of the graph holds more memory than the graph.
    """
    field = g.receptive_field(ids, layers - 1)
    if field.num_nodes + field.num_hyperedges <= _FIELD_SHARE * (g.num_nodes + g.num_hyperedges):
        return field
    return None


def intermediate_update(
    g: Hypergraph,
    X: Array,
    y: Array,
    hgnn: HGNNParams,
    mwn: MWNParams,
    ids: Array,
    tasks: Array,
    lam1: float,
    pin_alpha: float | None = None,
    weight_decay: float = 0.0,
    dropout_masks: list[Array] | None = None,
    forward: TapedForward | None = None,
) -> tuple[HGNNParams, StepCache]:
    """Step 1: per-sample losses at w, the probe tape, and the probe parameters w_hat.

    The probe tape is ``forward`` with the loss heads of ``ids`` added, when
    it was taped at these parameters bit for bit and the probe has no
    dropout masks; otherwise it is a fresh forward, of the receptive field
    of ``ids`` when that is small (``_probe_field``). The step's mode is
    decided here, once: with ``pin_alpha`` set, (alpha, beta) are the pinned
    alpha and its complement, and the cache keeps the step gradient in place
    of the probe tape, for the commit to apply again.
    """
    w_vec = hgnn.flatten()
    if forward is None or dropout_masks is not None or not np.array_equal(forward.params.flatten(), w_vec):
        forward = taped_forward(g, X, hgnn, dropout_masks, field=_probe_field(g, ids, hgnn.num_layers))
    graph_ss, graph_fs = forward.losses(y, ids)
    l1 = graph_ss.loss_vec.data[:, 0].copy()
    l2 = graph_fs.loss_vec.data[:, 0].copy()
    tasks = T.checked_ids(tasks, "task", mwn.k, l1.size)
    if pin_alpha is None:
        alpha, beta = mwn_forward_batch(l1, l2, tasks, mwn)
    else:
        alpha = np.full(l1.size, float(pin_alpha))
        beta = 1.0 - alpha
    cache = StepCache(
        tasks=tasks,
        l1=l1,
        l2=l2,
        alpha=alpha,
        beta=beta,
        w_vec=w_vec,
        graphs=(graph_ss, graph_fs),
    )
    grad = _step_gradient(alpha, beta, cache, hgnn, weight_decay)
    if pin_alpha is not None:
        cache.graphs, cache.grad = None, grad
    w_hat_vec = cache.w_vec - lam1 * grad
    if not np.all(np.isfinite(w_hat_vec)):
        raise NumericsError("non-finite probe parameters")
    return hgnn.with_vec(w_hat_vec), cache


def meta_loss_value(g, X, y, meta_ids, params: HGNNParams) -> tuple[float, TapedForward]:
    """Mean over the meta split of the summed branch losses, and the taped forward at ``params`` it used.

    A pinned step under plain gradient descent commits ``params`` exactly,
    so ``train`` hands the forward to the next probe.
    """
    forward = taped_forward(g, X, params)
    graph_ss, graph_fs = forward.losses(y, meta_ids)
    return float(T.add(graph_ss.mean_loss, graph_fs.mean_loss).data[0, 0]), forward


def meta_gradient(
    g: Hypergraph,
    X: Array,
    y: Array,
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
    training sample j. Those inner products are the tangents of the probe's
    two loss columns along the meta-loss gradient, one ``Tape.jvp`` sweep.
    Weight decay moves w_hat by a term that does not depend on Theta, so it
    drops out of d_theta. Both output modes seed alpha with gbar1 and beta
    with gbar2; complementary mode tapes beta = 1 - alpha, so its sweep adds
    -gbar2 to alpha's seed, and gbar1 + (-gbar2) is gbar1 - gbar2 exactly.
    """
    if cache.graphs is None:
        raise ContractError("meta_gradient needs the probe tape of a weight-net step, not a pinned-alpha cache")
    graph_ss, graph_fs = taped_forward(g, X, w_hat).losses(y, meta_ids)
    total = T.add(graph_ss.mean_loss, graph_fs.mean_loss)
    meta_loss = float(total.data[0, 0])
    # the probe tape registers the parameters under the meta tape's names
    probe_ss, probe_fs = cache.graphs
    tangent1, tangent2 = probe_ss.tape.jvp((probe_ss.loss_vec, probe_fs.loss_vec), graph_ss.tape.backward(total))
    gbar1, gbar2 = tangent1[:, 0], tangent2[:, 0]
    grad_dict = weighted_alpha_theta_grad(cache.l1, cache.l2, cache.tasks, mwn, gbar1, gbar2)
    d_theta = -lam1 * _flatten_grads(grad_dict, mwn)
    return d_theta, meta_loss, gbar1 - gbar2


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
    weight_decay: float = 0.0,
    adam: AdamState | None = None,
) -> tuple[HGNNParams, Array, Array]:
    """Step 3: reweight the gradients under the new Theta and commit.

    The probe tape is reseeded with the new weights, so gradients stay
    evaluated at the pre-step w. A pinned cache (no probe tape) commits the
    probe's alpha and gradient again, since its alpha cannot change; its
    gradient already holds the weight decay. Returns the new parameters, the
    alpha they were committed with, and the applied gradient vector.
    ``adam`` moves only when the new parameters are finite.
    """
    if cache.graphs is None:
        alpha, grad = cache.alpha, cache.grad
    else:
        alpha, beta = mwn_forward_batch(cache.l1, cache.l2, cache.tasks, mwn_new)
        grad = _step_gradient(alpha, beta, cache, hgnn, weight_decay)
    if adam is None:
        w_vec = cache.w_vec - lam1 * grad
    else:
        count = adam.count + 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        m = b1 * adam.m + (1 - b1) * grad
        v = b2 * adam.v + (1 - b2) * grad * grad
        m_hat = m / (1 - b1**count)
        v_hat = v / (1 - b2**count)
        w_vec = cache.w_vec - lam1 * m_hat / (np.sqrt(v_hat) + eps)
    if not np.all(np.isfinite(w_vec)):
        raise NumericsError("non-finite classifier parameters after update")
    if adam is not None:
        adam.count, adam.m, adam.v = count, m, v
    return hgnn.with_vec(w_vec), alpha, grad


def fit_overlap_partition(g: Hypergraph, train_ids: Sequence[int], k: int) -> tuple[Partition, Array]:
    """Overlap values on the training nodes, clustered into levels by ``fit_levels``."""
    return fit_levels(g.overlap_vector(np.asarray(train_ids, dtype=np.int64)), k)


def fit_levels(vec: OverlapVector, k: int) -> tuple[Partition, Array]:
    """The overlap values of ``vec`` clustered into at most ``k`` levels, and the level of each.

    Nodes with an empty egonet are excluded from the fit and land in level 0
    when assigned. With no node to fit, there is one level, at 1.0.
    """
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

    A numeric failure raises a TrainingError that names the step, the phase
    and, where a primitive's output was not finite, the primitive and the
    shape. It carries the state as the last completed step left it.
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

    state = TrainState(hgnn=hgnn, mwn=mwn, partition=partition, train_tasks=train_tasks, adam=adam)
    batch_rng = stream(settings.seed, "batch")
    # at most one forward, taped at the committed parameters, for the next
    # probe; a list, so that the step can drop it before it tapes another
    kept: list[TapedForward] = []

    for t in range(1, settings.steps + 1):
        started = perf_counter()
        _one_step(state, dataset, settings, t, train_ids, meta_ids, batch_rng, kept)
        state.step = t
        state.step_seconds.append(perf_counter() - started)
    kept.clear()
    with _phase(state, state.step, "evaluate"):
        metrics = evaluate(state, dataset)
    return state, metrics


@contextmanager
def _phase(state: TrainState, step: int, name: str):
    """Raises a NumericsError from the block as a TrainingError naming ``step`` and ``name``."""
    try:
        yield
    except NumericsError as exc:
        raise TrainingError(str(exc), step, name, state, primitive=exc.op, shape=exc.shape) from exc


def _one_step(
    state: TrainState, dataset, settings: TrainSettings, t: int, train_ids, meta_ids, batch_rng, kept: list[TapedForward]
):
    g, X, y = dataset.graph, dataset.features, dataset.labels
    lam1, lam2 = lr(settings.schedule1, t), lr(settings.schedule2, t)
    if settings.batch_size is not None and settings.batch_size < train_ids.size:
        pick = batch_rng.choice(train_ids.size, size=settings.batch_size, replace=False)
        pick.sort()
        ids, tasks = train_ids[pick], state.train_tasks[pick]
    else:
        ids, tasks = train_ids, state.train_tasks
    masks = _dropout_masks(settings, g.num_nodes, batch_rng)
    with _phase(state, t, "probe"):
        w_hat, cache = intermediate_update(
            g, X, y, state.hgnn, state.mwn, ids, tasks, lam1, settings.pin_alpha, settings.weight_decay, masks,
            forward=kept.pop() if kept else None,
        )
    forward = None
    with _phase(state, t, "meta"):
        if settings.pin_alpha is None:
            d_theta, meta_loss, _ = meta_gradient(g, X, y, w_hat, cache, meta_ids, state.mwn, lam1)
            mwn = internal_update(state.mwn, d_theta, lam2)
        else:
            # pinned weights never update Theta; only the meta loss is reported
            d_theta, mwn = np.zeros(0), state.mwn
            meta_loss, forward = meta_loss_value(g, X, y, meta_ids, w_hat)
    with _phase(state, t, "commit"):
        state.hgnn, alpha_new, grad_w = external_update(
            cache, state.hgnn, mwn, lam1, settings.weight_decay, state.adam
        )
    # the next probe can reuse the forward at w_hat only if w_hat was committed and it draws no dropout masks
    if forward is not None and settings.dropout <= 0.0 and np.array_equal(state.hgnn.flatten(), w_hat.flatten()):
        kept.append(forward)
    # the new weight net is kept only with the classifier it committed
    state.mwn = mwn
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
    It runs only the branches it weighs: a branch whose weight is zero for
    every requested node is not run, with the blend's bits unchanged.
    ``ids`` pass the graph's one id check (``Hypergraph.node_ids``).
    """
    if mode not in PREDICT_MODES:
        raise ContractError(f"unknown predict mode {mode!r}")
    scores = _scores(state, dataset, dataset.graph.node_ids(ids), (mode,))[mode]
    return scores.argmax(axis=1), scores


def _scores(state: TrainState, dataset, ids: Array, modes: Sequence[str]) -> dict[str, Array]:
    """``predict``'s scores for each of ``modes``, running each branch it needs once.

    The blend needs a branch only where it weighs it: a branch whose weight
    is zero on every row stands in as zeros. A softmax is finite and
    nonnegative, so ``0.0 * s`` is +0 either way, and ``1.0 * s + 0.0``
    has the bits of ``s``.
    """
    g = dataset.graph
    weights: dict[str, Array] = {}
    if "blend" in modes:
        alpha_bar = final_alpha_per_task(state)
        levels = assign_levels(g.overlap_vector(ids).values, state.partition.centroids)
        alpha = alpha_bar[levels][:, None]
        weights = {"ss": alpha, "fs": 1.0 - alpha}
    branches = tuple(branch for branch in BRANCHES if branch in modes or np.any(weights.get(branch, 0.0)))
    logits = model.forward(g, dataset.features, state.hgnn, ids, branches)
    scores = {branch: _softmax_rows(rows) for branch, rows in zip(branches, logits)}
    if weights:
        unweighed = np.zeros((ids.size, state.hgnn.out_dim))
        ss, fs = (scores.get(branch, unweighed) for branch in BRANCHES)
        scores["blend"] = weights["ss"] * ss + weights["fs"] * fs
    return scores


def evaluate(state: TrainState, dataset) -> dict:
    """Test accuracies for both branches and the blend, plus final alphas."""
    test_ids = np.asarray(dataset.splits.test, dtype=np.int64)
    truth = dataset.labels[test_ids]
    scores = _scores(state, dataset, test_ids, PREDICT_MODES)
    out: dict = {}
    for mode in PREDICT_MODES:
        labels = scores[mode].argmax(axis=1)
        out[f"test_acc_{mode}"] = float((labels == truth).mean()) if test_ids.size else float("nan")
    out["final_mean_alpha"] = [float(a) for a in final_alpha_per_task(state)]
    if state.history:
        out["train_loss_final"] = state.history[-1].train_loss
        out["meta_loss_final"] = state.history[-1].meta_loss
    else:
        out["train_loss_final"] = None
        out["meta_loss_final"] = None
    return out
