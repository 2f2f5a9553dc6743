"""The benchmark's workloads: the config document each one trains from.

Kept free of numpy so that run.py can import it before it caps the BLAS
thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

# The desk workloads train on the criterion-6 dataset: default generator
# settings, generated in process with this seed on every setup. The run's
# --seed is the training seed (initialisation and batch draws) everywhere.
DESK_GENERATOR_SEED = 0

# Cora-CA shape (2708 nodes, 1072 hyperedges, 1433 features, 7 classes);
# every other generator setting is the default. The directory is written
# once per checkout by prepare.py and read by every coraca run.
CORACA_SYNTHETIC = {"nodes": 2708, "hyperedges": 1072, "dim": 1433, "classes": 7}
CORACA_GENERATOR_SEED = 0
CORACA_DIR = "perfbench/data/coraca"


@dataclass(frozen=True)
class Workload:
    """One training workload.

    ``steps`` is the fixed length of every training run. ``mwn_hidden``
    sets the weight net's hidden width where the default is not used.
    ``setup_repeats``
    adds setup-only passes per untraced round and ``eval_repeats`` times the
    eval path more than once, where one pass is too short to time steadily.
    ``desk_criterion`` selects the criterion-6 learning check instead of the
    majority-class floor.
    """

    name: str
    steps: int
    coraca: bool = False
    output_mode: str = "complementary"
    mwn_hidden: int | None = None
    pin_alpha: float | None = None
    batch: int | None = None
    setup_repeats: int = 0
    eval_repeats: int = 1
    desk_criterion: bool = False

    def config(self, seed: int, output: str) -> dict:
        """The `hgmeta train` config document for this workload and seed."""
        dataset = {"path": CORACA_DIR} if self.coraca else {"synthetic": {}}
        mwn = {"output_mode": self.output_mode}
        if self.mwn_hidden is not None:
            mwn["hidden"] = self.mwn_hidden
        return {
            "dataset": dataset,
            "mwn": mwn,
            "train": {"steps": self.steps, "batch": self.batch, "pin_alpha": self.pin_alpha},
            "seed": seed,
            "output": output,
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk-meta", steps=40, setup_repeats=50, eval_repeats=50, desk_criterion=True),
        # hidden 50 rather than the default 100 halves |Theta| to 456, and so the
        # finite-difference step, to keep all runs within the benchmark's time budget
        Workload(
            "desk-independent", steps=1, output_mode="independent", mwn_hidden=50, setup_repeats=50, eval_repeats=50
        ),
        Workload("coraca-pinned", steps=12, coraca=True, pin_alpha=1.0, eval_repeats=2),
        Workload("coraca-meta-batch", steps=1, coraca=True, batch=64, eval_repeats=2),
    )
}
