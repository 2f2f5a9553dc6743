"""Tests of the benchmark's own correctness checks.

    python3 -m pytest perfbench

The 7-node toy is the hub example of the library's tests: three size-4
hyperedges that all contain node 0, whose union is all 7 nodes, so node 0
has overlapness 12/7.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import checks

ROOT = Path(__file__).resolve().parent.parent

TOY_EDGES = [(0, 1, 2, 3), (0, 3, 4, 5), (0, 1, 5, 6)]
# by hand: node 0 meets all three edges; nodes 1, 3 and 5 meet two edges
# whose union has 6 nodes; nodes 2, 4 and 6 meet one edge of size 4
TOY_OVERLAP = [Fraction(12, 7), Fraction(8, 6), Fraction(1), Fraction(8, 6), Fraction(1), Fraction(8, 6), Fraction(1)]
TOY_CENTROIDS = [1.0, 4 / 3, 12 / 7]
TOY_LEVELS = [2, 1, 0, 1, 0, 1, 0]


def test_exact_recount_matches_hand_computed_toy():
    exact = checks.exact_overlapness(7, TOY_EDGES, range(7))
    assert exact[0] == Fraction(12, 7)
    assert exact == TOY_OVERLAP


def test_isolated_node_has_no_overlapness():
    assert checks.exact_overlapness(3, [(0, 1)], [0, 2]) == [Fraction(1), None]


def test_brute_force_split_of_toy_is_exact():
    sse, means = checks.brute_force_split([float(p) for p in TOY_OVERLAP], 3)
    assert sse == pytest.approx(0.0, abs=1e-12)
    assert means == pytest.approx(TOY_CENTROIDS, abs=1e-15)


def test_checks_accept_the_right_partition():
    values = [float(p) for p in TOY_OVERLAP]
    assert checks.overlap_level_problems(TOY_OVERLAP, values, TOY_CENTROIDS, TOY_LEVELS) == []
    assert checks.kmeans_problems(values, TOY_CENTROIDS, 3) == []


def test_level_check_rejects_a_wrong_partition():
    values = [float(p) for p in TOY_OVERLAP]
    wrong_levels = [2, 1, 0, 1, 0, 0, 0]  # node 5 placed one level too low
    problems = checks.overlap_level_problems(TOY_OVERLAP, values, TOY_CENTROIDS, wrong_levels)
    assert problems and "node #5" in problems[0]


def test_level_check_rejects_a_wrong_overlap_value():
    values = [float(p) for p in TOY_OVERLAP]
    values[0] = 12 / 8  # hub union miscounted as 8 nodes
    problems = checks.overlap_level_problems(TOY_OVERLAP, values, TOY_CENTROIDS, TOY_LEVELS)
    assert problems and "node #0" in problems[0]


def test_kmeans_check_rejects_a_wrong_partition():
    values = [float(p) for p in TOY_OVERLAP]
    # 4/3 and 12/7 merged into one level: a worse split than the optimum
    assert checks.kmeans_problems(values, [1.0, 1.5, 12 / 7 + 1], 3)
    # right SSE is impossible with two levels when three distinct values exist
    assert checks.kmeans_problems(values, [1.0, 1.5], 3)


def test_kmeans_check_on_an_uneven_sample():
    values = [1.0, 1.1, 1.2, 2.0, 2.1, 5.0, 5.5, 9.0]
    sse, means = checks.brute_force_split(values, 3)
    assert checks.kmeans_problems(values, means, 3) == []
    shifted = [means[0], means[1] + 0.4, means[2]]
    assert checks.kmeans_problems(values, shifted, 3)


def test_window_share_and_learning_floor():
    falling = [{"train_loss": 2.0 - 0.01 * i} for i in range(30)]
    assert checks.nonincreasing_window_share([r["train_loss"] for r in falling]) == 1.0
    assert checks.learning_problems(0.95, [0, 1, 1], falling, desk_criterion=True) == []
    assert checks.learning_problems(0.89, [0, 1, 1], falling, desk_criterion=True)
    # majority rate of [0, 1, 1] is 2/3
    assert checks.learning_problems(0.7, [0, 1, 1], falling, desk_criterion=False) == []
    assert checks.learning_problems(2 / 3, [0, 1, 1], falling, desk_criterion=False)


def test_alpha_checks():
    history = [{"step": 1, "mean_alpha": [0.5, None, 0.5]}, {"step": 2, "mean_alpha": [0.4, None, 0.7]}]
    assert checks.alpha_problems(history, None) == []
    assert checks.alpha_problems([{"step": 1, "mean_alpha": [0.5, 0.51]}], None)
    pinned = [{"step": 1, "mean_alpha": [1.0, 1.0]}, {"step": 2, "mean_alpha": [1.0, None]}]
    assert checks.alpha_problems(pinned, 1.0) == []
    assert checks.alpha_problems(history, 1.0)


def test_benchmark_json_lists_every_reported_layer_metric():
    sys.path.insert(0, str(ROOT / "src"))
    import bench

    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == bench.per_layer_metrics()
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == bench.END_TO_END_UNITS


def test_reference_seconds_drops_inner_probes_and_rescales():
    import speed

    probes = speed.Probes()
    probes.starts = [0.0, 2.0, 3.0, 5.0]
    probes.durations = [0.01] * 4
    probes.speeds = [k * speed.REFERENCE_S for k in (1, 2, 3, 6)]
    # two probes inside [1, 4]: the mean of those and one neighbour each side, 3x
    assert probes.reference_seconds(1.0, 4.0) == pytest.approx(2.98 / 3)
    # one probe inside: the median of the nearest probes around, 2.5x
    assert probes.reference_seconds(1.5, 2.5) == pytest.approx(0.99 / 2.5)
    # none inside
    assert probes.reference_seconds(3.5, 4.0) == pytest.approx(0.5 / 2.5)
