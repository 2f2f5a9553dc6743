"""Run configuration: a single JSON document, fully validated up front.

Every default is materialized into the echoed config embedded in the run
artifact, so an artifact alone is enough to rerun the experiment. Unknown
keys anywhere in the document are rejected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .data import BIAS_KINDS, SyntheticSpec
from .errors import ConfigError, ContractError
from .mwn import OUTPUT_MODES
from .trainer import SCHEDULE_KINDS, ScheduleSpec, TrainSettings

_MODEL_DEFAULTS = {"layers": 2, "hidden": 64, "dropout": 0.0, "weight_decay": 0.0}
_MWN_DEFAULTS = {"hidden": 100, "output_mode": "complementary", "log1p": False}
_SCHEDULE_DEFAULTS = {"kind": "inverse-sqrt", "c1": 0.02, "c2": 1.0, "m_hat": 10.0}
_TRAIN_DEFAULTS = {
    "steps": 200,
    "batch": None,
    "meta_source": "meta-split",
    "pin_alpha": None,
    "optimizer": "gd",
}
_SYNTH_DEFAULTS = {
    "nodes": 200,
    "classes": 3,
    "hyperedges": 150,
    "size_range": [3, 6],
    "homophily": 0.9,
    "dim": 16,
    "noise": 0.5,
    "signal": 1.0,
    "bias": "none",
    "bias_fraction": 0.0,
    "split_fractions": [0.2, 0.2, 0.6],
}


@dataclass
class RunConfig:
    """Parsed configuration plus the fully-defaulted echo document."""

    dataset_path: str | None
    synthetic: SyntheticSpec | None
    settings: TrainSettings
    k: int
    seed: int
    output: str
    echo: dict


def _take(section: dict, defaults: dict, where: str) -> dict:
    _require(isinstance(section, dict), f"{where} must be a JSON object")
    unknown = set(section) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")
    merged = dict(defaults)
    merged.update(section)
    return merged


def _number(section: dict, key: str, where: str, kind: type):
    """``kind(section[key])``; a value that does not convert is a ConfigError."""
    if kind is int:
        return _integer(section[key], f"{where}.{key}")
    try:
        return kind(section[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}.{key} must be a number, got {section[key]!r}") from exc


def _integer(value, where: str) -> int:
    """``int(value)``, refusing what ``int`` would truncate or reinterpret.

    A bool or a number with a fractional part is a ConfigError, as is a
    value that does not convert; an integral float such as 5.0 is accepted.
    """
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where} must be an integer, got {value!r}") from exc


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def parse_config(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    top_keys = {"dataset", "model", "partition", "mwn", "schedules", "train", "seed", "output"}
    unknown = set(doc) - top_keys
    if unknown:
        raise ConfigError(f"unknown top-level key(s): {sorted(unknown)}")

    dataset = doc.get("dataset")
    if not isinstance(dataset, dict) or ("path" in dataset) == ("synthetic" in dataset):
        raise ConfigError("dataset must hold exactly one of 'path' or 'synthetic'")
    dataset_path = None
    synthetic = None
    if "path" in dataset:
        _require(isinstance(dataset["path"], str), "dataset.path must be a string")
        _require(set(dataset) == {"path"}, "dataset.path takes no sibling keys")
        dataset_path = dataset["path"]
        synth_echo = None
    else:
        _require(set(dataset) == {"synthetic"}, "dataset.synthetic takes no sibling keys")
        synth = _take(dataset["synthetic"], _SYNTH_DEFAULTS, "dataset.synthetic")
        _require(synth["bias"] in BIAS_KINDS, f"dataset.synthetic.bias must be one of {BIAS_KINDS}")
        ints = {key: _number(synth, key, "dataset.synthetic", int) for key in ("nodes", "classes", "hyperedges", "dim")}
        _require(isinstance(synth["size_range"], list), "dataset.synthetic.size_range must be an array")
        size_range = [_integer(v, "dataset.synthetic.size_range") for v in synth["size_range"]]
        try:
            synthetic = SyntheticSpec(
                **ints,
                size_range=tuple(size_range),
                homophily=float(synth["homophily"]),
                noise=float(synth["noise"]),
                signal=float(synth["signal"]),
                bias=str(synth["bias"]),
                bias_fraction=float(synth["bias_fraction"]),
                split_fractions=tuple(float(v) for v in synth["split_fractions"]),
            ).validated()
        except (ContractError, TypeError, ValueError) as exc:
            raise ConfigError(f"dataset.synthetic: {exc}") from exc
        synth_echo = {
            **synth,
            "size_range": size_range,
            "split_fractions": [float(v) for v in synth["split_fractions"]],
        }

    model = _take(doc.get("model", {}), _MODEL_DEFAULTS, "model")
    layers, hidden = (_number(model, key, "model", int) for key in ("layers", "hidden"))
    dropout, weight_decay = (_number(model, key, "model", float) for key in ("dropout", "weight_decay"))
    _require(layers >= 1, "model.layers must be >= 1")
    _require(hidden >= 1, "model.hidden must be >= 1")
    _require(0.0 <= dropout < 1.0, "model.dropout must lie in [0, 1)")
    _require(weight_decay >= 0.0, "model.weight_decay must be >= 0")

    part = _take(doc.get("partition", {}), {"k": 3}, "partition")
    k = _number(part, "k", "partition", int)
    _require(k >= 1, "partition.k must be >= 1")

    mwn = _take(doc.get("mwn", {}), _MWN_DEFAULTS, "mwn")
    mwn_hidden = _number(mwn, "hidden", "mwn", int)
    _require(mwn["output_mode"] in OUTPUT_MODES, f"mwn.output_mode must be one of {OUTPUT_MODES}")
    _require(mwn_hidden >= 1, "mwn.hidden must be >= 1")
    _require(isinstance(mwn["log1p"], bool), "mwn.log1p must be a boolean")

    sched = _take(doc.get("schedules", {}), _SCHEDULE_DEFAULTS, "schedules")
    c1, c2, m_hat = (_number(sched, key, "schedules", float) for key in ("c1", "c2", "m_hat"))
    _require(sched["kind"] in SCHEDULE_KINDS, f"schedules.kind must be one of {SCHEDULE_KINDS}")
    _require(c1 >= 0 and c2 >= 0, "schedule constants must be >= 0")
    _require(m_hat > 0, "schedules.m_hat must be > 0")

    train = _take(doc.get("train", {}), _TRAIN_DEFAULTS, "train")
    steps = _number(train, "steps", "train", int)
    batch = None if train["batch"] is None else _number(train, "batch", "train", int)
    pin_alpha = None if train["pin_alpha"] is None else _number(train, "pin_alpha", "train", float)
    _require(steps >= 0, "train.steps must be >= 0")
    _require(batch is None or batch >= 1, "train.batch must be null or a positive integer")
    _require(
        train["meta_source"] in ("meta-split", "test-split"),
        "train.meta_source must be 'meta-split' or 'test-split'",
    )
    _require(pin_alpha is None or 0.0 <= pin_alpha <= 1.0, "train.pin_alpha must be null or lie in [0, 1]")
    _require(train["optimizer"] in ("gd", "adam"), "train.optimizer must be 'gd' or 'adam'")

    seed = doc.get("seed", 0)
    _require(isinstance(seed, int) and not isinstance(seed, bool), "seed must be an integer")
    output = doc.get("output", "run.json")
    _require(isinstance(output, str), "output must be a string path")

    settings = TrainSettings(
        steps=steps,
        schedule1=ScheduleSpec(kind=sched["kind"], c=c1, m_hat=m_hat),
        schedule2=ScheduleSpec(kind=sched["kind"], c=c2, m_hat=m_hat),
        layers=layers,
        hidden=hidden,
        k=k,
        mwn_hidden=mwn_hidden,
        mwn_mode=str(mwn["output_mode"]),
        mwn_log1p=bool(mwn["log1p"]),
        seed=int(seed),
        batch_size=batch,
        meta_source=str(train["meta_source"]),
        pin_alpha=pin_alpha,
        optimizer=str(train["optimizer"]),
        weight_decay=weight_decay,
        dropout=dropout,
    )

    echo = {
        "dataset": {"path": dataset_path} if dataset_path is not None else {"synthetic": synth_echo},
        "model": {"layers": layers, "hidden": hidden, "dropout": dropout, "weight_decay": weight_decay},
        "partition": {"k": k},
        "mwn": {
            "hidden": mwn_hidden,
            "output_mode": mwn["output_mode"],
            "log1p": bool(mwn["log1p"]),
        },
        "schedules": {
            "kind": sched["kind"],
            "c1": c1,
            "c2": c2,
            "m_hat": m_hat,
        },
        "train": {
            "steps": steps,
            "batch": train["batch"],
            "meta_source": train["meta_source"],
            "pin_alpha": train["pin_alpha"],
            "optimizer": train["optimizer"],
        },
        "seed": int(seed),
        "output": output,
    }
    return RunConfig(
        dataset_path=dataset_path,
        synthetic=synthetic,
        settings=settings,
        k=k,
        seed=int(seed),
        output=output,
        echo=echo,
    )


def load_config(path) -> RunConfig:
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(doc)
