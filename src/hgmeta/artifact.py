"""Single-file JSON run artifact with embedded binary tensor payloads.

One artifact fully describes a run: the echoed configuration, the fitted
overlap partition, the per-step history, final checkpoints for both models,
and the final metrics. Tensors are stored as base64-encoded little-endian
float64 buffers, so a reload restores them bit-for-bit and two runs with the
same configuration and seed produce byte-identical files.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import RunConfig, parse_config
from .errors import ConfigError, ContractError, DataError
from .model import HGNNParams
from .mwn import MWNParams
from .partition import Partition
from .trainer import StepRecord, TrainState

FORMAT = "hgmeta-run-v1"


def encode_array(a: np.ndarray) -> dict:
    a = np.ascontiguousarray(a, dtype=np.float64)
    return {
        "shape": list(a.shape),
        "data": base64.b64encode(a.astype("<f8").tobytes()).decode("ascii"),
    }


def decode_array(obj: dict) -> np.ndarray:
    raw = base64.b64decode(obj["data"])
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(obj["shape"]).copy()


def _encode_named(items) -> dict:
    return {name: encode_array(arr) for name, arr in items}


def _decode_params(section, from_named):
    """``from_named`` of every decoded entry of a checkpoint ``section``; an entry naming no parameter is an error."""
    if not isinstance(section, dict):
        raise TypeError(f"a checkpoint section must be a JSON object, got {type(section).__name__}")
    params = from_named({name: decode_array(obj) for name, obj in section.items()})
    unknown = sorted(set(section) - {name for name, _ in params.param_items()})
    if unknown:
        raise DataError("artifact-schema", f"checkpoint entries {unknown} name no parameter")
    return params


def _mwn_meta(mwn: MWNParams) -> dict:
    return {"k": mwn.k, "hidden": mwn.hidden, "mode": mwn.mode, "log1p_inputs": mwn.log1p_inputs}


@dataclass
class RunArtifact:
    """Deserialized artifact contents; ``config`` is the parsed config echo."""

    config: RunConfig
    partition: Partition
    history: list[dict]
    hgnn: HGNNParams
    mwn: MWNParams
    metrics: dict


def save_run_artifact(path, config_echo: dict, state: TrainState, metrics: dict) -> None:
    doc = {
        "format": FORMAT,
        "config": config_echo,
        "partition": {
            "centroids": [float(c) for c in state.partition.centroids],
            "labels": [int(v) for v in state.partition.labels],
            "k": state.partition.k,
            "requested_k": state.partition.requested_k,
        },
        "history": [rec.to_dict() for rec in state.history],
        "checkpoint": {
            "hgnn": _encode_named(state.hgnn.param_items()),
            "hgnn_layout": [
                {"name": name, "shape": list(arr.shape)} for name, arr in state.hgnn.param_items()
            ],
            "mwn": _encode_named(state.mwn.param_items()),
            "mwn_meta": _mwn_meta(state.mwn),
        },
        "metrics": metrics,
        "steps_run": state.step,
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def load_run_artifact(path) -> RunArtifact:
    """Read and decode an artifact; any malformed content raises DataError."""
    try:
        doc = json.loads(Path(path).read_bytes().decode("utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, not JSON, or an int past the digit limit
        raise DataError("artifact-parse", f"{path}: {exc}") from exc
    fmt = doc.get("format") if isinstance(doc, dict) else None
    if fmt != FORMAT:
        raise DataError("artifact-format", f"expected {FORMAT}, got {fmt!r}")
    try:
        return _decode(doc)
    except (KeyError, TypeError, ValueError, OverflowError, ContractError, ConfigError) as exc:
        detail = f"{type(exc).__name__}: {exc}"
        raise DataError("artifact-schema", f"{path}: missing or ill-typed content ({detail})") from exc


def _decode(doc: dict) -> RunArtifact:
    ck = doc["checkpoint"]
    hgnn = _decode_params(ck["hgnn"], HGNNParams.from_named)
    meta = ck["mwn_meta"]
    mwn = _decode_params(ck["mwn"], lambda named: MWNParams.from_named(named, meta["mode"], meta["log1p_inputs"]))
    if meta != _mwn_meta(mwn):
        raise DataError("artifact-schema", f"mwn_meta is {meta}, the weight net it describes {_mwn_meta(mwn)}")

    part = doc["partition"]
    # labels keep their JSON type, so that the partition's id check refuses a float
    partition = Partition(
        centroids=np.asarray(part["centroids"], dtype=np.float64),
        labels=np.asarray(part["labels"]),
        k=int(part["k"]),
        requested_k=int(part["requested_k"]),
    )
    if mwn.k != partition.k:
        raise DataError("artifact-schema", f"mwn_meta.k is {mwn.k}, partition.k is {partition.k}")
    history = [_step_record(rec).to_dict() for rec in doc["history"]]
    # training records one mean alpha per overlap level, which predict and evaluate index by level
    unlike = [rec["step"] for rec in history if len(rec["mean_alpha"]) != partition.k]
    if unlike:
        raise DataError("artifact-schema", f"step {unlike[0]}: mean_alpha needs partition.k = {partition.k} entries")
    if not isinstance(doc["metrics"], dict):
        raise DataError("artifact-schema", "metrics must be a JSON object")
    config = parse_config(doc["config"])
    # training echoes every default, so a valid echo is its own echo
    if config.echo != doc["config"]:
        raise DataError("artifact-schema", "config is not a complete config echo")
    layers = config.settings.layers
    if hgnn.num_layers != layers:
        raise DataError("artifact-schema", f"checkpoint has {hgnn.num_layers} layers, model.layers is {layers}")
    if partition.requested_k != config.settings.k:  # training asks for the echo's partition.k
        raise DataError("artifact-schema", f"partition.requested_k is {partition.requested_k}, not {config.settings.k}")
    return RunArtifact(
        config=config,
        partition=partition,
        history=history,
        hgnn=hgnn,
        mwn=mwn,
        metrics=doc["metrics"],
    )


def _step_record(rec: dict) -> StepRecord:
    return StepRecord(
        step=int(rec["step"]),
        lr1=float(rec["lr1"]),
        lr2=float(rec["lr2"]),
        train_loss=float(rec["train_loss"]),
        meta_loss=float(rec["meta_loss"]),
        mean_alpha=[float("nan") if a is None else float(a) for a in rec["mean_alpha"]],
        grad_w_norm=float(rec["grad_w_norm"]),
        grad_theta_norm=float(rec["grad_theta_norm"]),
    )


def state_from_artifact(artifact: RunArtifact) -> TrainState:
    """Rebuild a TrainState sufficient for prediction and evaluation."""
    state = TrainState(hgnn=artifact.hgnn, mwn=artifact.mwn, partition=artifact.partition, step=len(artifact.history))
    state.history.extend(_step_record(rec) for rec in artifact.history)
    return state
