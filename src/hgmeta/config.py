"""Run configuration: a single JSON document, fully validated up front.

Every default is materialized into the echoed config embedded in the run
artifact, so an artifact alone is enough to rerun the experiment. Unknown
keys anywhere in the document are rejected.

Each section, merged over its defaults, is itself its echo, and the
settings are read from it. Integer and float settings echo typed, as the
int or float they convert to (``"hidden": 6.0`` echoes ``6`` and
``"c1": 1`` echoes ``1.0``). The keys that echo exactly as written are the
generator's scalar settings, ``train.batch`` and ``train.pin_alpha``. Every
float setting must be finite: NaN and Infinity, which Python's ``json``
reads, are rejected. The seed must lie in ``[0, 2**64)``, the 64 bits that
``rng.stream`` reads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
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
# JSON has no tuples, so the pairs and triples of the generator echo as arrays
_SYNTH_DEFAULTS = {
    f.name: list(f.default) if isinstance(f.default, tuple) else f.default for f in fields(SyntheticSpec)
}


@dataclass
class RunConfig:
    """Parsed configuration plus the fully-defaulted echo document."""

    dataset_path: str | None
    synthetic: SyntheticSpec | None
    settings: TrainSettings
    output: str
    echo: dict


def _take(section: dict, defaults: dict, where: str, ints=(), floats=()) -> dict:
    """``section`` merged over ``defaults``: the section's echo.

    The ``ints`` and ``floats`` keys are converted in place, in that order.
    """
    _require(isinstance(section, dict), f"{where} must be a JSON object")
    unknown = set(section) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")
    merged = {**defaults, **section}
    for keys, convert in ((ints, _integer), (floats, _float)):
        for key in keys:
            merged[key] = convert(merged[key], f"{where}.{key}")
    return merged


def _number(section: dict, key: str, where: str, kind: type):
    """``section[key]`` as an int or a float; see ``_integer`` and ``_float``."""
    convert = _integer if kind is int else _float
    return convert(section[key], f"{where}.{key}")


def _integer(value, where: str) -> int:
    """``int(value)`` of a JSON number, refusing what ``int`` would truncate or reinterpret.

    A bool, a string, a number with a fractional part or any other value is
    a ConfigError; an integral float such as 5.0 is accepted.
    """
    if not _is_number(value) or (isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return int(value)


def _float(value, where: str) -> float:
    """``float(value)`` of a finite JSON number.

    A bool, a string, NaN, an infinity (``json`` reads ``1e400`` as one) or
    any other value is a ConfigError.
    """
    if not _is_number(value):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    try:
        converted = float(value)
    except OverflowError as exc:
        raise ConfigError(f"{where} must be a number, got {value!r}") from exc
    if not math.isfinite(converted):
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return converted


def _is_number(value) -> bool:
    # JSON true and false load as bool, a subclass of int
    return isinstance(value, (int, float)) and not isinstance(value, bool)


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
        dataset_echo = {"path": dataset_path}
    else:
        _require(set(dataset) == {"synthetic"}, "dataset.synthetic takes no sibling keys")
        synth = _take(dataset["synthetic"], _SYNTH_DEFAULTS, "dataset.synthetic")
        _require(synth["bias"] in BIAS_KINDS, f"dataset.synthetic.bias must be one of {BIAS_KINDS}")
        # the scalars echo as written; the spec takes them converted
        ints = {key: _number(synth, key, "dataset.synthetic", int) for key in ("nodes", "classes", "hyperedges", "dim")}
        floats = {
            key: _number(synth, key, "dataset.synthetic", float)
            for key in ("homophily", "noise", "signal", "bias_fraction")
        }
        for key in ("size_range", "split_fractions"):
            _require(isinstance(synth[key], list), f"dataset.synthetic.{key} must be an array")
        synth["size_range"] = [_integer(v, "dataset.synthetic.size_range") for v in synth["size_range"]]
        synth["split_fractions"] = [_float(v, "dataset.synthetic.split_fractions") for v in synth["split_fractions"]]
        tuples = {key: tuple(synth[key]) for key in ("size_range", "split_fractions")}
        try:
            synthetic = SyntheticSpec(**{**synth, **ints, **floats, **tuples}).validated()
        except (ContractError, TypeError, ValueError) as exc:
            raise ConfigError(f"dataset.synthetic: {exc}") from exc
        dataset_echo = {"synthetic": synth}

    model = _take(doc.get("model", {}), _MODEL_DEFAULTS, "model", ("layers", "hidden"), ("dropout", "weight_decay"))
    _require(model["layers"] >= 1, "model.layers must be >= 1")
    _require(model["hidden"] >= 1, "model.hidden must be >= 1")
    _require(0.0 <= model["dropout"] < 1.0, "model.dropout must lie in [0, 1)")
    _require(model["weight_decay"] >= 0.0, "model.weight_decay must be >= 0")

    part = _take(doc.get("partition", {}), {"k": 3}, "partition", ("k",))
    _require(part["k"] >= 1, "partition.k must be >= 1")

    mwn = _take(doc.get("mwn", {}), _MWN_DEFAULTS, "mwn", ("hidden",))
    _require(mwn["output_mode"] in OUTPUT_MODES, f"mwn.output_mode must be one of {OUTPUT_MODES}")
    _require(mwn["hidden"] >= 1, "mwn.hidden must be >= 1")
    _require(isinstance(mwn["log1p"], bool), "mwn.log1p must be a boolean")

    sched = _take(doc.get("schedules", {}), _SCHEDULE_DEFAULTS, "schedules", floats=("c1", "c2", "m_hat"))
    _require(sched["kind"] in SCHEDULE_KINDS, f"schedules.kind must be one of {SCHEDULE_KINDS}")
    _require(sched["c1"] >= 0 and sched["c2"] >= 0, "schedule constants must be >= 0")
    _require(sched["m_hat"] > 0, "schedules.m_hat must be > 0")

    train = _take(doc.get("train", {}), _TRAIN_DEFAULTS, "train", ("steps",))
    # batch and pin_alpha echo as written
    batch = None if train["batch"] is None else _number(train, "batch", "train", int)
    pin_alpha = None if train["pin_alpha"] is None else _number(train, "pin_alpha", "train", float)
    _require(train["steps"] >= 0, "train.steps must be >= 0")
    _require(batch is None or batch >= 1, "train.batch must be null or a positive integer")
    _require(
        train["meta_source"] in ("meta-split", "test-split"),
        "train.meta_source must be 'meta-split' or 'test-split'",
    )
    _require(pin_alpha is None or 0.0 <= pin_alpha <= 1.0, "train.pin_alpha must be null or lie in [0, 1]")
    _require(train["optimizer"] in ("gd", "adam"), "train.optimizer must be 'gd' or 'adam'")

    seed = doc.get("seed", 0)
    _require(isinstance(seed, int) and not isinstance(seed, bool), "seed must be an integer")
    # the random streams read 64 bits of the seed: -1 would train as 2**64 - 1
    _require(0 <= seed < 2**64, f"seed must lie in [0, 2**64), got {seed}")
    output = doc.get("output", "run.json")
    _require(isinstance(output, str), "output must be a string path")

    settings = TrainSettings(
        steps=train["steps"],
        schedule1=ScheduleSpec(kind=sched["kind"], c=sched["c1"], m_hat=sched["m_hat"]),
        schedule2=ScheduleSpec(kind=sched["kind"], c=sched["c2"], m_hat=sched["m_hat"]),
        layers=model["layers"],
        hidden=model["hidden"],
        k=part["k"],
        mwn_hidden=mwn["hidden"],
        mwn_mode=mwn["output_mode"],
        mwn_log1p=mwn["log1p"],
        seed=seed,
        batch_size=batch,
        meta_source=train["meta_source"],
        pin_alpha=pin_alpha,
        optimizer=train["optimizer"],
        weight_decay=model["weight_decay"],
        dropout=model["dropout"],
    )
    echo = {
        "dataset": dataset_echo,
        "model": model,
        "partition": part,
        "mwn": mwn,
        "schedules": sched,
        "train": train,
        "seed": seed,
        "output": output,
    }
    return RunConfig(dataset_path=dataset_path, synthetic=synthetic, settings=settings, output=output, echo=echo)


def load_config(path) -> RunConfig:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # not UTF-8, not JSON, or an int past the digit limit
        raise ConfigError(f"config {path} is not valid UTF-8 JSON: {exc}") from exc
    return parse_config(doc)
