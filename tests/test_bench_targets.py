"""The benchmark wraps library functions by name; every name it wraps must exist.

``perfbench/bench.py`` replaces each (owner, attribute) of its layer table
with a timing wrapper, its step clock wraps ``trainer.intermediate_update``
and its speed probes wrap ``trainer.meta_loss_value`` and ``Tape.backward``.
A rename in the library would otherwise pass these tests and only crash the
benchmark, and a step that stopped calling them would silently drop the
step clock or the probe sites. A weight-net step must not call
``meta_loss_value`` either: each call adds speed-probe sites to the step.
Evaluation and prediction must run the classifier through ``model.forward``,
which the layer table times, or ``model.forward_s`` reads 0. Likewise a
complementary weight-net pass takes beta through ``tensor.sub``, and the
gradient check builds its loss graphs through ``model.build_branch_graph``.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from hgmeta import model, tensor, trainer, verify
from hgmeta.partition import assign_levels
from hgmeta.tensor import Tape
from hgmeta.trainer import TrainSettings, train
from hgmeta.verify import random_toy_dataset

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_wrapped_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import bench

    targets = [(row[1], row[2]) for row in bench.layer_table()]
    targets += [(trainer, "intermediate_update"), (trainer, "meta_loss_value"), (Tape, "backward")]
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr in targets
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []


def test_probe_cache_keeps_the_gradient_fields_the_benchmark_reads():
    names = {f.name for f in dataclasses.fields(trainer.StepCache)}
    assert {"grads1", "grads2"} <= names


# per step: the settings, and the calls of each wrapped site they make
STEP_CALLS = {
    "pinned": (
        dict(pin_alpha=1.0),
        {"intermediate_update": 1, "meta_loss_value": 1, "external_update": 1, "backward": 1},
    ),
    "weight-net-complementary": (
        dict(mwn_mode="complementary"),
        {"intermediate_update": 1, "meta_gradient": 1, "internal_update": 1, "external_update": 1, "backward": 4},
    ),
    "weight-net-independent": (
        dict(mwn_mode="independent"),
        {"intermediate_update": 1, "meta_gradient": 1, "internal_update": 1, "external_update": 1, "backward": 4},
    ),
}


@pytest.mark.parametrize("name", list(STEP_CALLS))
def test_a_step_calls_each_wrapped_site_through_the_module(name, monkeypatch):
    calls = {}
    sites = ["intermediate_update", "meta_gradient", "meta_loss_value", "internal_update", "external_update"]
    for owner, attr in [(trainer, site) for site in sites] + [(Tape, "backward")]:
        original = getattr(owner, attr)

        def counted(*args, _attr=attr, _original=original, **kwargs):
            calls[_attr] = calls.get(_attr, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)
    overrides, per_step = STEP_CALLS[name]
    steps = 3
    settings = TrainSettings(steps=steps, hidden=8, k=2, mwn_hidden=8, **overrides)
    train(random_toy_dataset(nodes=12, seed=23), settings)
    assert calls == {site: steps * count for site, count in per_step.items()}


# per-level alphas of the final step, and the branches a blend of the test split runs under them
BLEND_WEIGHTS = {
    "trained": (None, model.BRANCHES),
    "all-ss": ([1.0, 1.0], ("ss",)),
    "all-fs": ([0.0, 0.0], ("fs",)),
    "mixed": ([1.0, 0.0], model.BRANCHES),
}


@pytest.mark.bitwise
@pytest.mark.parametrize("weights", list(BLEND_WEIGHTS))
def test_evaluate_and_each_predict_call_the_wrapped_forward_once(monkeypatch, weights):
    dataset = random_toy_dataset(nodes=12, seed=23)
    state, _ = train(dataset, TrainSettings(steps=1, hidden=8, k=2, mwn_hidden=8))
    alphas, blend_branches = BLEND_WEIGHTS[weights]
    if alphas is not None:
        state.history[-1].mean_alpha = alphas
    ids = np.asarray(dataset.splits.test)
    levels = assign_levels(dataset.graph.overlap_vector(ids).values, state.partition.centroids)
    # so the mixed weights weigh each branch on some row
    assert set(levels.tolist()) == {0, 1}
    # the blend formula over both branches
    ss, fs = (trainer._softmax_rows(rows) for rows in model.forward(dataset.graph, dataset.features, state.hgnn, ids))
    alpha = trainer.final_alpha_per_task(state)[levels][:, None]
    formula = alpha * ss + (1.0 - alpha) * fs
    calls = []
    original = model.forward

    def counted(*args, **kwargs):
        calls.append(tuple(args[4]))
        return original(*args, **kwargs)

    monkeypatch.setattr(model, "forward", counted)
    trainer.evaluate(state, dataset)
    assert calls == [model.BRANCHES]
    for mode, branches in [("ss", ("ss",)), ("fs", ("fs",)), ("blend", blend_branches)]:
        calls.clear()
        _, scores = trainer.predict(state, dataset, ids, mode)
        assert calls == [branches], mode
    assert scores.tobytes() == formula.tobytes()


# per step: the settings, and the tensor.sub calls they make
SUB_CALLS = {
    "weight-net-complementary": (dict(mwn_mode="complementary"), 3),
    "weight-net-independent": (dict(mwn_mode="independent"), 0),
    "pinned": (dict(pin_alpha=1.0), 0),
}


@pytest.mark.parametrize("name", list(SUB_CALLS))
def test_complementary_beta_is_one_sub_per_weight_net_pass(name, monkeypatch):
    # probe, meta and commit each take beta = 1 - alpha once; the benchmark times tensor.sub by name
    calls = []
    original = tensor.sub

    def counted(a, b):
        calls.append(b.shape)
        return original(a, b)

    monkeypatch.setattr(tensor, "sub", counted)
    overrides, per_step = SUB_CALLS[name]
    steps = 3
    train(random_toy_dataset(nodes=12, seed=23), TrainSettings(steps=steps, hidden=8, k=2, mwn_hidden=8, **overrides))
    assert len(calls) == steps * per_step


def test_grad_check_builds_each_branch_through_the_wrapped_name(monkeypatch):
    calls = []
    original = model.build_branch_graph

    def counted(*args, **kwargs):
        calls.append(args[5])
        return original(*args, **kwargs)

    monkeypatch.setattr(model, "build_branch_graph", counted)
    verify.hgnn_gradient_check()
    assert sorted(set(calls)) == sorted(model.BRANCHES)
    assert calls.count("ss") == calls.count("fs")
