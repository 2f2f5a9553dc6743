"""The benchmark wraps library functions by name; every name it wraps must exist.

``perfbench/bench.py`` replaces each (owner, attribute) of its layer table
with a timing wrapper, its step clock wraps ``trainer.intermediate_update``
and its speed probes wrap ``trainer.meta_loss_value`` and ``Tape.backward``.
A rename in the library would otherwise pass these tests and only crash the
benchmark, and a step that stopped calling them would silently drop the
step clock or the probe sites.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

from hgmeta import trainer
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


def test_a_pinned_step_calls_each_wrapped_site_once_through_the_module(monkeypatch):
    calls = {}
    for owner, attr in [(trainer, "intermediate_update"), (trainer, "meta_loss_value"), (Tape, "backward")]:
        original = getattr(owner, attr)

        def counted(*args, _attr=attr, _original=original, **kwargs):
            calls[_attr] = calls.get(_attr, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)
    steps = 3
    settings = TrainSettings(steps=steps, hidden=8, k=2, mwn_hidden=8, pin_alpha=1.0)
    train(random_toy_dataset(nodes=12, seed=23), settings)
    assert calls == {"intermediate_update": steps, "meta_loss_value": steps, "backward": steps}
