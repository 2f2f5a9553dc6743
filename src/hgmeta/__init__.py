"""Overlap-aware hypergraph node classification with meta-learned loss weighting."""

from .data import Dataset, Splits, SyntheticSpec, generate_synthetic, load_dataset, save_dataset
from .hypergraph import Hypergraph, OverlapVector
from .model import HGNNParams, ForwardOutput, branch_losses, forward
from .mwn import MWNParams
from .partition import Partition, assign_levels, kmeans_1d
from .tensor import Tape, Tensor, finite_diff_check
from .trainer import ScheduleSpec, TrainSettings, TrainState, evaluate, lr, predict, train

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "ForwardOutput",
    "HGNNParams",
    "Hypergraph",
    "MWNParams",
    "OverlapVector",
    "Partition",
    "ScheduleSpec",
    "Splits",
    "SyntheticSpec",
    "Tape",
    "Tensor",
    "TrainSettings",
    "TrainState",
    "assign_levels",
    "branch_losses",
    "evaluate",
    "finite_diff_check",
    "forward",
    "generate_synthetic",
    "kmeans_1d",
    "load_dataset",
    "lr",
    "predict",
    "save_dataset",
    "train",
]
