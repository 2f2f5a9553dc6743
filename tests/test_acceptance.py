"""Acceptance criteria, one test per criterion.

Each test prints one `[PASS]`/`[FAIL]` line (visible with `pytest -s`) and
asserts the same condition, with tolerances pinned inline.
"""

from __future__ import annotations

import json
import os
import re
import time
from collections import Counter

import numpy as np
import pytest

from hgmeta import cli
from hgmeta import tensor as T
from hgmeta.data import SyntheticSpec, generate_synthetic, load_dataset
from hgmeta.model import _fs_coefficients_t, ss_coefficients
from hgmeta.trainer import ScheduleSpec, TrainSettings, intermediate_update, meta_gradient, train
from hgmeta.verify import meta_gradient_check

from conftest import random_hypergraph
from test_data import write_toy_dataset
from test_trainer import STEP_TOLERANCE, reference_per_sample_grads, step_error, width2_instance


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_overlapness_exactness(tmp_path):
    started = time.perf_counter()
    ds = load_dataset(write_toy_dataset(tmp_path / "toy"))
    p = ds.graph.overlapness(0)
    elapsed = time.perf_counter() - started
    ok = abs(p - 12 / 7) <= 1e-12 and elapsed < 1.0
    _report(1, ok, f"hub overlapness {p!r} vs 12/7, {elapsed:.3f}s")


def test_criterion_2_attention_normalization():
    rng = np.random.default_rng(2024)
    worst_sum_err = 0.0
    ss_exact = True
    for _ in range(100):
        g = random_hypergraph(rng, max_nodes=50)
        arrays = g.incidence_arrays()
        # independent degree recount straight from the edge list
        degree = Counter()
        for members in g.edges():
            for v in members:
                degree[v] += 1
        ss = ss_coefficients(g)
        for i in range(arrays["pair_nodes"].size):
            v, e = int(arrays["pair_nodes"][i]), int(arrays["pair_edges"][i])
            members = g.edge_to_nodes(e)
            d_e = sum(degree[u] for u in members) / len(members)
            if ss[i] != 1.0 / (degree[v] * d_e):
                ss_exact = False
        if arrays["member_nodes"].size:
            node_proj = T.as_tensor(rng.normal(size=(g.num_nodes, 3)))
            edge_proj = T.as_tensor(rng.normal(size=(g.num_hyperedges, 3)))
            coeffs = _fs_coefficients_t(g, node_proj, edge_proj, T.as_tensor(rng.normal(size=(6, 1)))).data[:, 0]
            sums = np.bincount(arrays["pair_nodes"], weights=coeffs, minlength=g.num_nodes)
            covered = arrays["node_degrees"] > 0
            worst_sum_err = max(worst_sum_err, float(np.abs(sums[covered] - 1.0).max()))
    ok = ss_exact and worst_sum_err <= 1e-9
    _report(2, ok, f"fs sum deviation {worst_sum_err:.2e}, ss exact: {ss_exact}")


def test_criterion_3_hgnn_gradient_fidelity(capsys):
    started = time.perf_counter()
    rc = cli.main(["grad-check", "--nodes", "8", "--hidden", "4", "--mwn-hidden", "8"])
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    errs = {
        m.group(1): float(m.group(2))
        for m in re.finditer(r"hgnn_(ss|fs)_max_rel_err=([0-9.e+-]+)", out)
    }
    ok = rc == 0 and errs["ss"] <= 1e-4 and errs["fs"] <= 1e-4 and elapsed < 10.0
    print(f"[{'PASS' if ok else 'FAIL'}] criterion 3: ss {errs['ss']:.2e}, fs {errs['fs']:.2e}, {elapsed:.2f}s")
    assert ok


def test_criterion_4_meta_gradient_fidelity():
    started = time.perf_counter()
    report = meta_gradient_check(nodes=8, hidden=4, mwn_hidden=8, k=2, seed=0)
    elapsed = time.perf_counter() - started
    ok = report.max_rel_err <= 1e-3 and elapsed < 30.0
    _report(4, ok, f"max rel err {report.max_rel_err:.2e}, {elapsed:.2f}s")


@pytest.mark.bitwise
def test_criterion_5_degenerate_identities():
    g, X, y, hgnn, mwn, ids, tasks = width2_instance(seed=0)
    # lam1 = 0: probe parameters unchanged, meta gradient exactly zero
    w_hat, cache = intermediate_update(g, X, y, hgnn, mwn, ids, tasks, lam1=0.0)
    d_theta, _, _ = meta_gradient(g, X, y, w_hat, cache, np.array([0, 3]), mwn, lam1=0.0)
    frozen = np.array_equal(w_hat.flatten(), hgnn.flatten()) and np.all(d_theta == 0.0)

    # zero-initialized head: alpha = beta = 0.5 and the probe step is the
    # unweighted average-loss gradient step (width-2 hand reference), to
    # rounding: the probe's seeded backward passes sum in another order
    lam1 = 0.05
    w_hat, cache = intermediate_update(g, X, y, hgnn, mwn, ids, tasks, lam1=lam1)
    balanced = np.all(cache.alpha == 0.5) and np.all(cache.beta == 0.5)
    g1 = reference_per_sample_grads(g, X, y, hgnn, ids, "ss")
    g2 = reference_per_sample_grads(g, X, y, hgnn, ids, "fs")
    err = step_error(w_hat.flatten(), hgnn.flatten(), lam1, cache.alpha, cache.beta, g1, g2)
    ok = frozen and balanced and err <= STEP_TOLERANCE
    _report(5, ok, f"lam1=0 frozen: {frozen}, alpha=beta=0.5: {balanced}, avg step error {err:.1e}")


def test_criterion_6_desk_scale_learning():
    spec = SyntheticSpec(
        nodes=200, classes=3, hyperedges=150, homophily=0.9, noise=0.5,
        split_fractions=(0.2, 0.2, 0.6),
    )
    ds = generate_synthetic(spec, seed=0)
    started = time.perf_counter()
    state, metrics = train(ds, TrainSettings(steps=200, seed=0))
    elapsed = time.perf_counter() - started
    losses = np.array([rec.train_loss for rec in state.history])
    windows = np.convolve(losses, np.ones(10) / 10, mode="valid")
    noninc = float(np.mean(np.diff(windows) <= 0.0))
    acc = metrics["test_acc_blend"]
    ok = acc >= 0.90 and noninc >= 0.90 and elapsed < 60.0
    _report(6, ok, f"blend acc {acc:.4f}, non-increasing windows {noninc:.3f}, {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_7_bias_adaptivity():
    base = dict(nodes=200, classes=3, hyperedges=150, homophily=0.9, noise=0.8)
    schedule2 = ScheduleSpec(kind="constant", c=3.0)
    alpha_lower, blends, bests = [], [], []
    for seed in range(5):
        biased = generate_synthetic(
            SyntheticSpec(**base, bias="structure", bias_fraction=0.5), seed
        )
        clean = generate_synthetic(SyntheticSpec(**base), seed)
        state_b, metrics_b = train(biased, TrainSettings(steps=120, seed=seed, schedule2=schedule2))
        state_u, _ = train(clean, TrainSettings(steps=120, seed=seed, schedule2=schedule2))
        _, pin_ss = train(biased, TrainSettings(steps=120, seed=seed, pin_alpha=1.0))
        _, pin_fs = train(biased, TrainSettings(steps=120, seed=seed, pin_alpha=0.0))
        a_biased = float(np.nanmean(state_b.history[-1].mean_alpha))
        a_clean = float(np.nanmean(state_u.history[-1].mean_alpha))
        alpha_lower.append(a_biased < a_clean)
        blends.append(metrics_b["test_acc_blend"])
        bests.append(max(pin_ss["test_acc_ss"], pin_fs["test_acc_fs"]))
    mean_blend, mean_best = float(np.mean(blends)), float(np.mean(bests))
    ok = all(alpha_lower) and mean_blend >= mean_best - 0.02
    _report(
        7,
        ok,
        f"alpha lower on biased: {alpha_lower}, mean blend {mean_blend:.4f} "
        f"vs best-branch floor {mean_best - 0.02:.4f}",
    )


def test_criterion_8_scaling_smoke():
    base = dict(nodes=200, classes=3, homophily=0.9, noise=0.5)
    small = generate_synthetic(SyntheticSpec(**base, hyperedges=150), seed=0)
    big = generate_synthetic(SyntheticSpec(**base, hyperedges=300), seed=0)
    nnz_ratio = big.graph.incidence_arrays()["member_nodes"].size / small.graph.incidence_arrays()["member_nodes"].size
    times = {}
    for name, ds in [("small", small), ("big", big)]:
        state, _ = train(ds, TrainSettings(steps=5, seed=0))
        times[name] = float(np.median(state.step_seconds))
    ratio = times["big"] / times["small"]
    ok = 1.8 <= nnz_ratio <= 2.2 and ratio <= 2.5
    _report(8, ok, f"nnz x{nnz_ratio:.2f}, median per-step time x{ratio:.2f}")


@pytest.mark.skipif(
    "HGMETA_CACORA_DIR" not in os.environ,
    reason="optional integration path: set HGMETA_CACORA_DIR to a converted co-authorship dataset",
)
def test_criterion_9_coauthorship_integration_advisory():
    ds = load_dataset(os.environ["HGMETA_CACORA_DIR"])
    accs = []
    for seed in range(5):
        _, metrics = train(ds, TrainSettings(steps=200, seed=seed))
        accs.append(metrics["test_acc_blend"])
    mean_acc = float(np.mean(accs))
    within = abs(mean_acc * 100 - 78.5) <= 5.0
    # advisory only: report the comparison, never gate on it
    print(f"[{'PASS' if within else 'INFO'}] criterion 9 (advisory): mean blend acc {mean_acc:.4f} vs 0.785 +/- 0.05")


# the criterion-10 config and variants through every optional training path;
# each entry is merged into the named sections of the base config
DETERMINISM_VARIANTS = {
    "default": {},
    "independent": {"mwn": {"output_mode": "independent"}},
    "pinned-batch": {"train": {"pin_alpha": 0.3, "batch": 10}},
    # a pinned alpha of 1 or 0 seeds one branch with zeros, which the sweep skips
    "pinned-ss": {"train": {"pin_alpha": 1.0}},
    "pinned-fs": {"train": {"pin_alpha": 0.0}},
    "dropout-decay-adam": {"model": {"dropout": 0.3, "weight_decay": 0.01}, "train": {"optimizer": "adam"}},
    "layers3-log1p": {"model": {"layers": 3}, "mwn": {"log1p": True}},
}


@pytest.mark.bitwise
@pytest.mark.parametrize("variant", list(DETERMINISM_VARIANTS))
def test_criterion_10_determinism(tmp_path, variant):
    doc = {
        "dataset": {"synthetic": {"nodes": 60, "classes": 3, "hyperedges": 40, "dim": 8}},
        "model": {"hidden": 16},
        "mwn": {"hidden": 20},
        "train": {"steps": 8},
        "seed": 11,
        "output": str(tmp_path / "run.json"),
    }
    for section, keys in DETERMINISM_VARIANTS[variant].items():
        doc[section].update(keys)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    assert cli.main(["train", str(cfg)]) == 0
    first = (tmp_path / "run.json").read_bytes()
    assert cli.main(["train", str(cfg)]) == 0
    ok = (tmp_path / "run.json").read_bytes() == first
    _report(10, ok, f"{variant}: two runs, {len(first)} artifact bytes, byte-identical: {ok}")
