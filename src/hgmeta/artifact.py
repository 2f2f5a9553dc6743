"""Single-file JSON run artifact with embedded binary tensor payloads.

One artifact fully describes a run: the echoed configuration, the fitted
overlap partition, the per-step history, final checkpoints for both models,
and the final metrics. Tensors are stored as base64-encoded little-endian
float64 buffers, so a reload restores them bit-for-bit and two runs with the
same configuration and seed produce byte-identical files.

The writer is the schema: ``_document`` states the format once, and each
fact once. The reader parses the config echo, the one statement of every run
setting, decodes the rest into the run's ``TrainState`` (the level count is
the number of centroids, the step count the number of history records) and
accepts it only if ``_document`` writes that state back as the document it
read, a boolean equalling only a boolean. So an unread entry and a number its
reads would truncate or reinterpret are refused by one comparison; by hand
the reader checks only what one section says about another.
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
    a = np.ascontiguousarray(a, dtype="<f8")  # b64encode reads its buffer: no copy of a float64 array
    return {"shape": list(a.shape), "data": base64.b64encode(a).decode("ascii")}


def decode_array(obj: dict) -> np.ndarray:
    raw = base64.b64decode(obj["data"])
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(obj["shape"])  # astype copies, so writable


def _encode_named(items) -> dict:
    return {name: encode_array(arr) for name, arr in items}


def _decode_named(section) -> dict:
    if not isinstance(section, dict):
        raise TypeError(f"a checkpoint section must be a JSON object, got {type(section).__name__}")
    return {name: decode_array(obj) for name, obj in section.items()}


@dataclass
class RunArtifact:
    """Deserialized artifact contents: the parsed config echo, the decoded run, its history as written, its metrics."""

    config: RunConfig
    state: TrainState
    history: list[dict]
    metrics: dict
    hgnn = property(lambda self: self.state.hgnn)
    mwn = property(lambda self: self.state.mwn)
    partition = property(lambda self: self.state.partition)


def _document(config_echo: dict, state: TrainState, metrics: dict) -> dict:
    """The artifact of a run, as a JSON document: the one statement of the format."""
    part = state.partition
    return {
        "format": FORMAT,
        "config": config_echo,
        "partition": {
            "centroids": [float(c) for c in part.centroids],
            "labels": [int(v) for v in part.labels],
        },
        "history": [rec.to_dict() for rec in state.history],
        "checkpoint": {
            "hgnn": _encode_named(state.hgnn.param_items()),
            "mwn": _encode_named(state.mwn.param_items()),
        },
        "metrics": metrics,
    }


def save_run_artifact(path, config_echo: dict, state: TrainState, metrics: dict) -> None:
    Path(path).write_text(json.dumps(_document(config_echo, state, metrics), sort_keys=True, indent=2) + "\n")


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
    config = parse_config(doc["config"])
    settings, ck, part = config.settings, doc["checkpoint"], doc["partition"]
    history = [StepRecord.from_dict(rec) for rec in doc["history"]]
    centroids = np.asarray(part["centroids"], dtype=np.float64)
    state = TrainState(
        hgnn=HGNNParams.from_named(_decode_named(ck["hgnn"])),
        mwn=MWNParams.from_named(_decode_named(ck["mwn"]), settings.mwn_mode, settings.mwn_log1p),
        # labels keep their JSON type, so that the partition's id check refuses a float
        partition=Partition(
            centroids=centroids,
            labels=np.asarray(part["labels"]),
            k=len(centroids),
            requested_k=settings.k,  # training asks for the echo's partition.k
        ),
        step=len(history),
        history=history,
    )
    written = _document(config.echo, state, doc["metrics"])
    if not _same(written, doc):
        unlike = sorted(key for key in written.keys() | doc.keys() if not _same(written.get(key), doc.get(key)))
        raise DataError("artifact-schema", f"{unlike} differ from what the decoded run writes back")
    if not isinstance(doc["metrics"], dict):
        raise DataError("artifact-schema", "metrics must be a JSON object")
    k = state.partition.k
    # the classifier's hidden widths (so its layer count), the weight net's width and its heads, one per level
    shape = [w.shape[1] for w in state.hgnn.weights[:-1]], state.mwn.hidden, state.mwn.k
    stated = [settings.hidden] * (settings.layers - 1), settings.mwn_hidden, k
    if shape != stated:
        raise DataError("artifact-schema", f"the checkpoint's widths and heads are {shape}, not {stated}")
    # training records one mean alpha per overlap level, which predict and evaluate index by level
    unlike = [rec.step for rec in history if len(rec.mean_alpha) != k]
    if unlike:
        raise DataError("artifact-schema", f"step {unlike[0]}: mean_alpha needs partition.k = {k} entries")
    return RunArtifact(config=config, state=state, history=written["history"], metrics=doc["metrics"])


def _same(written, read) -> bool:
    """``written == read`` for JSON values as lists compare them: a value, NaN too, is itself; ``True == 1`` is false."""
    if type(written) is dict:
        same_keys = type(read) is dict and written.keys() == read.keys()
        return same_keys and all(map(_same, written.values(), map(read.__getitem__, written)))
    if type(written) is list:
        return type(read) is list and len(written) == len(read) and all(map(_same, written, read))
    return written is read or written == read and (type(written) is bool) == (type(read) is bool)


def state_from_artifact(artifact: RunArtifact) -> TrainState:
    """The decoded run: a TrainState sufficient for prediction and evaluation, shared with ``artifact``."""
    return artifact.state
