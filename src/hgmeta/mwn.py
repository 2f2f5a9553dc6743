"""Multi-task weight net mapping per-sample branch losses to (alpha, beta).

A shared hidden layer reads the two losses; one small head per overlap level
produces the blend weights for samples of that level. The two output modes
differ only in how many columns a head has. In the default complementary
mode a head emits a single logit, alpha is its sigmoid and beta = 1 - alpha.
In independent mode a head emits two logits, and alpha and beta are their
sigmoids. ``alpha_beta_graph`` registers Theta on the tape it is given,
builds the heads once and runs one loop over the output columns for both
modes. Both modes share one analytic meta-gradient: a seeded backward pass
through (alpha, beta) in ``weighted_alpha_theta_grad``.

Heads are zero-initialized so training starts with alpha = beta = 0.5.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from . import tensor as T
from .errors import ContractError
from .rng import drawable
from .tensor import Array, Tape, Tensor

OUTPUT_MODES = ("complementary", "independent")


@dataclass
class MWNParams:
    """Shared layer plus per-task heads."""

    w_shared: Array  # (2, hidden)
    b_shared: Array  # (1, hidden)
    head_w: list[Array]  # (hidden, 1) or (hidden, 2) per task
    head_b: list[Array]  # (1, 1) or (1, 2) per task
    mode: str = "complementary"
    log1p_inputs: bool = False

    def __post_init__(self):
        if self.mode not in OUTPUT_MODES:
            raise ContractError(f"unknown output mode {self.mode!r}")
        if len(self.head_w) != len(self.head_b) or not self.head_w:
            raise ContractError("need one (weight, bias) pair per task")
        out_cols = 1 if self.mode == "complementary" else 2
        hidden = self.w_shared.shape[1]
        if self.w_shared.shape != (2, hidden) or self.b_shared.shape != (1, hidden):
            raise ContractError("shared layer shapes are inconsistent")
        for w, b in zip(self.head_w, self.head_b):
            if w.shape != (hidden, out_cols) or b.shape != (1, out_cols):
                raise ContractError("head shapes are inconsistent with the mode")
        for arr in [self.w_shared, self.b_shared, *self.head_w, *self.head_b]:
            if not np.all(np.isfinite(arr)):
                raise ContractError("parameters must be finite")

    @property
    def k(self) -> int:
        return len(self.head_w)

    @property
    def hidden(self) -> int:
        return self.w_shared.shape[1]

    @classmethod
    def init(
        cls,
        k: int,
        hidden: int = 100,
        mode: str = "complementary",
        log1p_inputs: bool = False,
        rng: np.random.Generator | None = None,
    ) -> "MWNParams":
        if k < 1:
            raise ContractError("need at least one task head")
        rng = rng or np.random.default_rng(0)
        bound = np.sqrt(6.0 / (2 + hidden))
        out_cols = 1 if mode == "complementary" else 2
        return cls(
            w_shared=rng.uniform(-bound, bound, size=drawable((2, hidden), "the weight net's shared layer")),
            b_shared=np.zeros((1, hidden)),
            head_w=[np.zeros((hidden, out_cols)) for _ in range(k)],
            head_b=[np.zeros((1, out_cols)) for _ in range(k)],
            mode=mode,
            log1p_inputs=log1p_inputs,
        )

    def param_items(self) -> list[tuple[str, Array]]:
        items = [("shared_w", self.w_shared), ("shared_b", self.b_shared)]
        for c in range(self.k):
            items.append((f"head{c}_w", self.head_w[c]))
            items.append((f"head{c}_b", self.head_b[c]))
        return items

    @classmethod
    def from_named(cls, named: dict[str, Array], mode: str = "complementary", log1p_inputs: bool = False) -> "MWNParams":
        """The weight net whose ``param_items`` are the arrays of ``named``: the inverse of ``dict(param_items())``.

        ``named`` holds the shared layer and two arrays per head c, ``head{c}_w`` and ``head{c}_b``.
        """
        heads = range(len(named) // 2 - 1)
        return cls(
            w_shared=named["shared_w"],
            b_shared=named["shared_b"],
            head_w=[named[f"head{c}_w"] for c in heads],
            head_b=[named[f"head{c}_b"] for c in heads],
            mode=mode,
            log1p_inputs=log1p_inputs,
        )

    def flatten(self) -> Array:
        return T.flatten_items(self.param_items())

    def with_vec(self, vec: Array) -> "MWNParams":
        return MWNParams.from_named(T.split_items(self.param_items(), vec), self.mode, self.log1p_inputs)


def alpha_beta_graph(tape: Tape, losses: Tensor, tasks, params: MWNParams) -> tuple[Tensor, Tensor]:
    """Taped (alpha, beta) columns for an (n, 2) loss tensor and task labels.

    Theta is registered on ``tape`` under its ``param_items`` names.
    """
    n = losses.shape[0]
    if losses.shape[1] != 2:
        raise ContractError("losses tensor must have two columns (l1, l2)")
    tasks = T.checked_ids(tasks, "task", params.k, n)
    ptensors = {name: tape.param(name, arr) for name, arr in params.param_items()}
    if params.log1p_inputs:
        losses = T.log1p(losses)
    hidden = T.elu(T.add(T.matmul(losses, ptensors["shared_w"]), ptensors["shared_b"]))
    mask = np.zeros((n, params.k))
    mask[np.arange(n), tasks] = 1.0
    mask_t = tape.constant(mask)
    heads = [T.add(T.matmul(hidden, ptensors[f"head{c}_w"]), ptensors[f"head{c}_b"]) for c in range(params.k)]
    # column j of every head side by side, then each sample's own task's entry
    outputs = []
    for j in range(heads[0].shape[1]):
        raw = T.slice_cols(heads[0], j, j + 1)
        for head in heads[1:]:
            raw = T.concat_cols(raw, T.slice_cols(head, j, j + 1))
        outputs.append(T.sigmoid(T.row_sum(T.mul(raw, mask_t))))
    if params.mode == "complementary":
        outputs.append(T.sub(tape.constant(np.ones((n, 1))), outputs[0]))
    alpha, beta = outputs
    return alpha, beta


def _taped_alpha_beta(l1: Array, l2: Array, tasks, params: MWNParams) -> tuple[Tape, Tensor, Tensor]:
    """A fresh tape holding Theta and the (alpha, beta) columns for the loss arrays."""
    tape = Tape()
    losses = tape.constant(np.stack([l1, l2], axis=1))
    alpha, beta = alpha_beta_graph(tape, losses, tasks, params)
    return tape, alpha, beta


def mwn_forward_batch(l1, l2, tasks, params: MWNParams) -> tuple[Array, Array]:
    """Vectorized (alpha, beta) values for aligned loss arrays and task labels."""
    l1 = np.asarray(l1, dtype=np.float64).ravel()
    l2 = np.asarray(l2, dtype=np.float64).ravel()
    if l1.shape != l2.shape:
        raise ContractError("l1 and l2 must align")
    if np.any(l1 < 0) or np.any(l2 < 0) or not (np.all(np.isfinite(l1)) and np.all(np.isfinite(l2))):
        raise ContractError("losses must be finite and nonnegative")
    _, alpha, beta = _taped_alpha_beta(l1, l2, tasks, params)
    return alpha.data[:, 0].copy(), beta.data[:, 0].copy()


def weighted_alpha_theta_grad(l1, l2, tasks, params: MWNParams, coeffs, beta_coeffs=None) -> dict[str, Array]:
    """Gradient of sum_j (coeffs[j] * alpha_j + beta_coeffs[j] * beta_j) w.r.t. Theta.

    This realizes the per-sample chain rule of the analytic meta-update in a
    single backward sweep seeded at both columns; coefficients are treated
    as constants and ``beta_coeffs`` defaults to zero.
    """
    l1 = np.asarray(l1, dtype=np.float64).ravel()
    l2 = np.asarray(l2, dtype=np.float64).ravel()
    coeffs = np.asarray(coeffs, dtype=np.float64).ravel()
    if beta_coeffs is None:
        beta_coeffs = np.zeros_like(coeffs)
    beta_coeffs = np.asarray(beta_coeffs, dtype=np.float64).ravel()
    if not (l1.shape == l2.shape == coeffs.shape == beta_coeffs.shape):
        raise ContractError("losses and coefficients must align")
    tape, alpha, beta = _taped_alpha_beta(l1, l2, tasks, params)
    return tape.backward([(alpha, coeffs[:, None]), (beta, beta_coeffs[:, None])])
