"""The benchmark wraps library functions by name; every name it wraps must exist.

``perfbench/bench.py`` replaces each (owner, attribute) of its layer table
with a timing wrapper, its step clock wraps ``trainer.intermediate_update``
and its speed probes wrap ``trainer.meta_loss_value`` and ``Tape.backward``.
A rename in the library would otherwise pass these tests and only crash the
benchmark.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

from hgmeta import trainer
from hgmeta.tensor import Tape

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
