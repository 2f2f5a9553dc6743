"""Command-line entry point.

Commands: ``train``, ``eval``, ``analyze-overlap``, ``emit-losses``,
``grad-check``. Exit codes: 0 success, 2 configuration error (an artifact
path whose directory does not exist among them), 3 data error (a failed
read of a dataset file, a failed output write and a standard output closed
by its reader among them), 4 numeric training failure, 5 gradient-check
tolerance breach.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .artifact import RunArtifact, load_run_artifact, save_run_artifact, state_from_artifact
from .config import RunConfig, load_config
from .data import Dataset, generate_synthetic, load_dataset, save_dataset
from .errors import ConfigError, DataError, HgmetaError, TrainingError
from .model import branch_losses
from .mwn import OUTPUT_MODES
from .trainer import PREDICT_MODES, fit_levels, predict, train
from .verify import (
    HGNN_TOLERANCE,
    META_TOLERANCE,
    hgnn_gradient_check,
    jvp_check,
    meta_gradient_check,
    per_sample_row_check,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_TRAINING = 4
EXIT_TOLERANCE = 5


@contextmanager
def _writing(path):
    """Guards the writes of one output file: an OSError becomes a DataError naming ``path``."""
    try:
        yield
    except OSError as exc:
        raise DataError("output-write", f"cannot write {path}: {exc}") from exc


def _resolve_dataset(cfg: RunConfig) -> Dataset:
    if cfg.dataset_path is not None:
        return load_dataset(cfg.dataset_path)
    return generate_synthetic(cfg.synthetic, cfg.settings.seed)


def _dataset_for_artifact(artifact: RunArtifact, dataset_dir: str | None, regen: bool) -> Dataset:
    if dataset_dir is not None:
        return load_dataset(dataset_dir)
    if not regen:
        raise DataError("dataset-missing", "pass --dataset DIR or --regen for synthetic runs")
    if artifact.config.synthetic is None:
        raise DataError("dataset-missing", "artifact was not trained on a synthetic dataset")
    return _resolve_dataset(artifact.config)


def _check_compat(artifact: RunArtifact, ds: Dataset) -> None:
    if artifact.hgnn.in_dim != ds.features.shape[1]:
        raise DataError(
            "shape-mismatch",
            f"checkpoint expects {artifact.hgnn.in_dim} features, dataset has {ds.features.shape[1]}",
        )
    if artifact.hgnn.out_dim != ds.num_classes:
        raise DataError(
            "shape-mismatch",
            f"checkpoint predicts {artifact.hgnn.out_dim} classes, dataset has {ds.num_classes}",
        )


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    output_dir = Path(cfg.output).parent
    if not output_dir.is_dir():
        raise ConfigError(f"output directory {output_dir} does not exist")
    ds = _resolve_dataset(cfg)
    if args.save_dataset:
        with _writing(args.save_dataset):
            save_dataset(ds, args.save_dataset)
    state, metrics = train(ds, cfg.settings)
    with _writing(cfg.output):
        save_run_artifact(cfg.output, cfg.echo, state, metrics)
    for mode in PREDICT_MODES:
        print(f"test_acc_{mode}={metrics[f'test_acc_{mode}']:.6f}")
    for c, a in enumerate(metrics["final_mean_alpha"]):
        print(f"mean_alpha_task{c}={a:.6f}")
    print(f"artifact={cfg.output}")
    return EXIT_OK


def cmd_eval(args) -> int:
    artifact = load_run_artifact(args.artifact)
    ds = _dataset_for_artifact(artifact, args.dataset, args.regen)
    _check_compat(artifact, ds)
    state = state_from_artifact(artifact)
    test_ids = np.asarray(ds.splits.test, dtype=np.int64)
    labels, _ = predict(state, ds, test_ids, args.mode)
    truth = ds.labels[test_ids]
    acc = float((labels == truth).mean()) if test_ids.size else float("nan")
    print(f"mode={args.mode}")
    print(f"accuracy={acc:.6f}")
    for c in range(ds.num_classes):
        predicted = labels == c
        actual = truth == c
        tp = int(np.sum(predicted & actual))
        precision = tp / predicted.sum() if predicted.sum() else float("nan")
        recall = tp / actual.sum() if actual.sum() else float("nan")
        print(f"class{c}: precision={precision:.6f} recall={recall:.6f}")
    return EXIT_OK


def cmd_analyze_overlap(args) -> int:
    ds = load_dataset(args.dataset)
    g = ds.graph
    vec = g.overlap_vector(range(g.num_nodes))
    partition, levels = fit_levels(vec, args.k)
    print("node_id p level")
    for v in range(g.num_nodes):
        p_str = f"{vec.values[v]:.6f}" if vec.valid[v] else "undefined"
        print(f"{v} {p_str} {levels[v]}")
    print(f"centroids={[round(float(m), 6) for m in partition.centroids]}")
    counts = np.bincount(levels, minlength=partition.k)
    for level, count in enumerate(counts):
        print(f"level{level}: {int(count)} nodes")
    if args.csv:
        with _writing(args.csv), Path(args.csv).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["node_id", "p", "level"])
            for v in range(g.num_nodes):
                writer.writerow([v, repr(float(vec.values[v])) if vec.valid[v] else "", levels[v]])
    return EXIT_OK


def cmd_emit_losses(args) -> int:
    artifact = load_run_artifact(args.artifact)
    ds = _dataset_for_artifact(artifact, args.dataset, args.regen)
    _check_compat(artifact, ds)
    train_ids = np.asarray(ds.splits.train, dtype=np.int64)
    out = branch_losses(ds.graph, ds.features, ds.labels, artifact.hgnn, train_ids)
    with _writing(args.losses_csv), Path(args.losses_csv).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_id", "loss_ss", "loss_fs"])
        for i, v in enumerate(train_ids):
            writer.writerow([int(v), repr(float(out.loss_ss[i])), repr(float(out.loss_fs[i]))])
    print(f"losses_csv={args.losses_csv} rows={train_ids.size}")
    if args.history_csv:
        k = artifact.partition.k
        with _writing(args.history_csv), Path(args.history_csv).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "train_loss", "meta_loss"] + [f"mean_alpha_task{c}" for c in range(k)])
            for rec in artifact.history:
                alphas = ["" if a is None else repr(float(a)) for a in rec["mean_alpha"]]
                writer.writerow([rec["step"], repr(float(rec["train_loss"])), repr(float(rec["meta_loss"]))] + alphas)
        print(f"history_csv={args.history_csv} rows={len(artifact.history)}")
    return EXIT_OK


def cmd_grad_check(args) -> int:
    # the random streams read 64 bits of the seed: -1 would check as 2**64 - 1
    if not 0 <= args.seed < 2**64:
        raise ConfigError(f"--seed must lie in [0, 2**64), got {args.seed}")
    if not math.isfinite(args.lam1):
        raise ConfigError(f"--lam1 must be finite, got {args.lam1}")
    # the toy draws hyperedges of at least two nodes, and a zero-width layer has nothing to check
    least_sizes = (("--nodes", args.nodes, 2), ("--hidden", args.hidden, 1), ("--mwn-hidden", args.mwn_hidden, 1))
    for flag, value, least in least_sizes:
        if value < least:
            raise ConfigError(f"{flag} must be >= {least}, got {value}")
    report = hgnn_gradient_check(nodes=args.nodes, hidden=args.hidden, seed=args.seed)
    print(f"hgnn_ss_max_rel_err={report['ss']:.3e}")
    print(f"hgnn_fs_max_rel_err={report['fs']:.3e}")
    rows = per_sample_row_check(hidden=args.hidden, seed=args.seed)
    print(f"per_sample_row_max_rel_err={max(rows.values()):.3e}")
    tangents = jvp_check(nodes=args.nodes, hidden=args.hidden, seed=args.seed)
    print(f"jvp_max_rel_err={max(tangents.values()):.3e}")
    ok = max(*report.values(), *rows.values(), *tangents.values()) <= HGNN_TOLERANCE
    for mode in OUTPUT_MODES:
        meta = meta_gradient_check(
            nodes=args.nodes,
            hidden=args.hidden,
            mwn_hidden=args.mwn_hidden,
            seed=args.seed,
            lam1=args.lam1,
            mode=mode,
        )
        print(f"{mode}_meta_max_rel_err={meta.max_rel_err:.3e}")
        print(f"{mode}_meta_grad_norm={meta.analytic_norm:.6e}")
        ok = ok and meta.max_rel_err <= META_TOLERANCE
        if args.lam1 == 0.0 and meta.analytic_norm != 0.0:
            ok = False
    print(f"result={'ok' if ok else 'tolerance-breach'}")
    return EXIT_OK if ok else EXIT_TOLERANCE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hgmeta")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run the three-step training loop from a JSON config")
    p_train.add_argument("config")
    p_train.add_argument("--save-dataset", default=None, help="also dump the resolved dataset here")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a run artifact on a dataset")
    p_eval.add_argument("artifact")
    p_eval.add_argument("--dataset", default=None)
    p_eval.add_argument("--regen", action="store_true", help="regenerate the synthetic dataset from the artifact config")
    p_eval.add_argument("--mode", default="blend", choices=PREDICT_MODES)
    p_eval.set_defaults(func=cmd_eval)

    p_ao = sub.add_parser("analyze-overlap", help="per-node overlap values and levels")
    p_ao.add_argument("dataset")
    p_ao.add_argument("--k", type=int, default=3)
    p_ao.add_argument("--csv", default=None)
    p_ao.set_defaults(func=cmd_analyze_overlap)

    p_el = sub.add_parser("emit-losses", help="per-sample branch losses and history CSVs")
    p_el.add_argument("artifact")
    p_el.add_argument("--dataset", default=None)
    p_el.add_argument("--regen", action="store_true")
    p_el.add_argument("--losses-csv", required=True)
    p_el.add_argument("--history-csv", default=None)
    p_el.set_defaults(func=cmd_emit_losses)

    p_gc = sub.add_parser("grad-check", help="verify backward passes and both meta-gradient modes against finite differences")
    p_gc.add_argument("--nodes", type=int, default=8)
    p_gc.add_argument("--hidden", type=int, default=4)
    p_gc.add_argument("--mwn-hidden", type=int, default=8)
    p_gc.add_argument("--seed", type=int, default=0)
    p_gc.add_argument("--lam1", type=float, default=0.05)
    p_gc.set_defaults(func=cmd_grad_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        # a reader that closed the pipe early fails here, not at shutdown
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the shutdown flush of what is still buffered goes nowhere instead of failing again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("data error: standard output was closed before the output was written", file=sys.stderr)
        return EXIT_DATA
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TrainingError as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    except HgmetaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
