"""One benchmark run: rounds of train, eval and a malformed-artifact eval.

A round is what a user does with the CLI, driven through the library:

1. train: config document -> dataset (generated or loaded) -> ``train`` ->
   run artifact written, as ``hgmeta train`` does;
2. eval: reload the artifact and predict the test split in blend mode, as
   ``hgmeta eval`` does once the dataset is in memory;
3. malformed eval: ``hgmeta eval`` on an artifact that holds only its format
   tag, which must exit with the data-error code 3.

Rounds repeat until the run has lasted ``seconds``, and at least twice, so
that two artifacts from one process can be compared byte for byte. With
tracing on, rounds alternate untraced and traced, at least three of them;
the per-layer metrics come from the traced rounds and the tracing overhead
from the difference to the untraced rounds after the first.
End-to-end timings are in reference seconds (speed.py); per-layer span
times are plain wall seconds.
"""

from __future__ import annotations

import json
import platform
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from hgmeta import artifact, cli, config, data, hypergraph, model, mwn, partition, tensor, trainer

import checks
from spans import Tracer, replace, restore, summary
from speed import Probes
from workloads import DESK_GENERATOR_SEED, Workload

OPS_PER_ROUND = 3
MALFORMED_ARTIFACT = {"format": "hgmeta-run-v1"}

PRIMITIVES = (
    "matmul", "add", "sub", "mul", "scale", "scale_rows", "concat_cols", "slice_cols",
    "gather_rows", "row_sum", "sum_all", "elu", "leaky_relu", "sigmoid", "log1p",
    "row_log_softmax", "segment_sum", "segment_mean", "segment_softmax",
)


def _record_grad_bytes(tracer: Tracer, out) -> None:
    cache = out[1]
    held = sum(g.nbytes for g in (cache.grads1, cache.grads2) if g is not None)
    tracer.observe("trainer.per_sample_grad_mb", held / 1e6)


def layer_table() -> list[tuple]:
    """(span name, owner, attribute, time metric, call-count metric, observer)."""
    rows = [
        ("data.generate", data, "generate_synthetic", "data.generate_s", None, None),
        ("data.load", data, "load_dataset", "data.load_s", None, None),
        ("hypergraph.overlap_vector", hypergraph.Hypergraph, "overlap_vector", "hypergraph.overlap_vector_s", None, None),
        ("hypergraph.overlapness", hypergraph.Hypergraph, "overlapness", "hypergraph.overlapness_s", "hypergraph.overlapness_calls", None),
        ("partition.kmeans_1d", partition, "kmeans_1d", "partition.kmeans_1d_s", None, None),
        ("model.ss_coefficients", model, "ss_coefficients", "model.ss_coefficients_s", None, None),
        ("model.branch_graph", model, "build_branch_graph", "model.branch_graph_s", None, None),
        ("model.forward", model, "forward", "model.forward_s", None, None),
        ("trainer.partition_fit", trainer, "fit_overlap_partition", "trainer.partition_fit_s", None, None),
        ("trainer.probe", trainer, "intermediate_update", "trainer.probe_s", None, _record_grad_bytes),
        ("trainer.meta_gradient", trainer, "meta_gradient", "trainer.meta_gradient_s", None, None),
        ("trainer.meta_loss", trainer, "meta_loss_value", "trainer.meta_loss_s", None, None),
        ("trainer.weight_net_update", trainer, "internal_update", "trainer.weight_net_update_s", None, None),
        ("trainer.commit", trainer, "external_update", "trainer.commit_s", None, None),
        ("trainer.evaluate", trainer, "evaluate", "trainer.evaluate_s", None, None),
        ("trainer.predict", trainer, "predict", "trainer.predict_s", None, None),
        ("mwn.forward", mwn, "mwn_forward_batch", "mwn.forward_s", "mwn.forward_calls", None),
        ("mwn.theta_grad", mwn, "weighted_alpha_theta_grad", "mwn.theta_grad_s", None, None),
        ("tensor.backward", tensor.Tape, "backward", "tensor.backward_s", "tensor.backward_calls", None),
        ("tensor.constant", tensor.Tape, "constant", "tensor.constant_s", None, None),
        ("artifact.save", artifact, "save_run_artifact", "artifact.save_s", None, None),
        ("artifact.load", artifact, "load_run_artifact", "artifact.load_s", None, None),
    ]
    rows += [(f"tensor.{p}", tensor, p, f"tensor.{p}.fwd_s", f"tensor.{p}.calls", None) for p in PRIMITIVES]
    return rows


# per-layer metrics that do not come straight from one span
DERIVED_LAYER_METRICS = (
    ("trainer.meta_loss_evals", "count"),
    ("trainer.per_sample_grad_mb", "MB"),
    ("artifact.bytes", "B"),
    ("trace.overhead_s", "s"),
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in reporting order."""
    out = []
    for _, _, _, time_metric, count_metric, _ in layer_table():
        out.append((time_metric, "s"))
        if count_metric:
            out.append((count_metric, "count"))
    return out + list(DERIVED_LAYER_METRICS)


END_TO_END_UNITS = {
    "setup_s": "s",
    "step_s_p50": "s",
    "run_s": "s",
    "eval_s": "s",
    "peak_rss_mb": "MB",
    "test_acc_blend": "fraction",
}


def wall(start: float, end: float) -> float:
    return end - start


class _SetupDone(Exception):
    """Stops a setup-only pass at the start of its first training step."""


class StepClock:
    """Notes when each training step of a round begins.

    Wraps ``trainer.intermediate_update``, the first phase of every step,
    for the whole run, and probes the machine's speed there when a probe is
    due. Armed with ``stop``, it ends ``train`` at the first step, which is
    how a setup-only pass is timed.
    """

    def __init__(self, probes: Probes):
        self.entries: list[float] = []
        self.stop = False
        original = trainer.intermediate_update

        def marked(*args, **kwargs):
            self.entries.append(perf_counter())
            if self.stop:
                raise _SetupDone
            probes.due()
            return original(*args, **kwargs)

        self._undo = replace(trainer, "intermediate_update", marked)

    @property
    def first(self) -> float:
        return self.entries[0]

    def arm(self, stop: bool = False) -> None:
        self.entries = []
        self.stop = stop

    def close(self) -> None:
        restore(self._undo)


Interval = tuple[float, float]  # perf_counter() at start and end


@dataclass
class Round:
    traced: bool
    run: Interval | None = None
    setups: list[Interval] = field(default_factory=list)
    steps: list[Interval] = field(default_factory=list)
    evals: list[Interval] = field(default_factory=list)
    artifact: bytes | None = None
    predicted: np.ndarray | None = None
    accuracy: float | None = None
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    layers: dict | None = None


class Bench:
    def __init__(self, workload: Workload, seed: int, out_dir: Path):
        self.workload = workload
        self.seed = seed
        self.artifact_path = out_dir / f"{workload.name}-seed{seed}.run.json"
        self.malformed_path = out_dir / "malformed.run.json"
        self.malformed_path.write_text(json.dumps(MALFORMED_ARTIFACT) + "\n")
        self.doc = workload.config(seed, str(self.artifact_path))
        self.probes = Probes()
        # probe sites inside long stretches of training: the backward passes
        # of every step, and the meta-loss evaluations of the finite-difference
        # Theta-gradient, which has no backward pass
        self.probes.attach(tensor.Tape, "backward")
        self.probes.attach(trainer, "meta_loss_value")
        self.clock = StepClock(self.probes)
        self.tracer = Tracer()
        self.layers = layer_table()
        self.problems: list[str] = []
        self.accuracy: float | None = None  # set by the checks of the first completed round
        self.rounds: list[Round] = []
        self.traced: list[tuple[list[list], dict]] = []  # (spans, summary) per traced round

    # -- the three operations of a round -----------------------------------

    def _setup(self):
        """Config document to dataset in memory, as `hgmeta train` starts.

        Unlike `hgmeta train`, a synthetic dataset is generated with a fixed
        seed rather than the config's, so the run seed only moves training.
        """
        cfg = config.parse_config(self.doc)
        if cfg.dataset_path is not None:
            ds = data.load_dataset(cfg.dataset_path)
        else:
            ds = data.generate_synthetic(cfg.synthetic, DESK_GENERATOR_SEED)
        return cfg, ds

    def _train(self, rnd: Round):
        self.clock.arm()
        started = perf_counter()
        cfg, ds = self._setup()
        state, metrics = trainer.train(ds, cfg.settings)
        artifact.save_run_artifact(cfg.output, cfg.echo, state, metrics)
        rnd.run = (started, perf_counter())
        rnd.setups.append((started, self.clock.first))
        if len(self.clock.entries) != len(state.step_seconds):
            self.problems.append(f"{len(self.clock.entries)} step starts seen for {len(state.step_seconds)} steps")
        rnd.steps += [(entry, entry + seconds) for entry, seconds in zip(self.clock.entries, state.step_seconds)]
        return cfg, ds, state, metrics

    def _eval(self, ds, test_ids):
        started = perf_counter()
        art = artifact.load_run_artifact(self.artifact_path)
        state = artifact.state_from_artifact(art)
        labels, scores = trainer.predict(state, ds, test_ids, "blend")
        return art, labels, scores, (started, perf_counter())

    def _malformed_eval(self) -> str | None:
        """None when `hgmeta eval` rejects the malformed artifact with exit 3."""
        try:
            code = cli.main(["eval", str(self.malformed_path), "--regen"])
        except Exception as exc:  # an escaped exception is the failure being counted
            return f"malformed artifact: {type(exc).__name__}: {exc}"
        return None if code == cli.EXIT_DATA else f"malformed artifact: exit {code}, expected {cli.EXIT_DATA}"

    def _setup_only(self) -> Interval:
        self.clock.arm(stop=True)
        started = perf_counter()
        cfg, ds = self._setup()
        try:
            trainer.train(ds, cfg.settings)
        except _SetupDone:
            pass
        return started, self.clock.first

    # -- rounds ------------------------------------------------------------

    def run_round(self, traced: bool) -> Round:
        rnd = Round(traced=traced)
        self.probes.take()
        if traced:
            self.tracer.install([(s, owner, attr, obs) for s, owner, attr, _, _, obs in self.layers])
            try:
                with self.tracer.span("round"):
                    self._round_ops(rnd)
            finally:
                self.tracer.uninstall()
            spans, observed = self.tracer.take()
            totals = summary(self.tracer.names, spans)
            rnd.layers = self._layer_values(totals, observed, rnd)
            self.traced.append((spans, totals))
        else:
            self._round_ops(rnd)
        self.probes.take()
        self.rounds.append(rnd)
        return rnd

    def _round_ops(self, rnd: Round) -> None:
        try:
            cfg, ds, state, metrics = self._train(rnd)
        except Exception as exc:  # counted as failed operations, not a crash of the benchmark
            rnd.failed += 2
            rnd.failures.append(f"train: {type(exc).__name__}: {exc}")
            self._count_malformed(rnd)
            return
        rnd.artifact = self.artifact_path.read_bytes()
        test_ids = np.asarray(ds.splits.test, dtype=np.int64)
        try:
            art, labels, scores, interval = self._eval(ds, test_ids)
        except Exception as exc:
            rnd.failed += 1
            rnd.failures.append(f"eval: {type(exc).__name__}: {exc}")
        else:
            rnd.evals.append(interval)
            rnd.predicted = labels
            rnd.accuracy = checks.accuracy(labels, ds.labels[test_ids])
            if self.accuracy is None:
                self._check_first_round(cfg, ds, state, metrics, art, labels, scores, test_ids)
        self._count_malformed(rnd)
        if not rnd.traced and rnd.evals:
            # interleaved, so both sample sets span the same stretch of time,
            # and probed between pairs, since each sample may last only ms
            extra_evals, extra_setups = self.workload.eval_repeats - 1, self.workload.setup_repeats
            for i in range(max(extra_evals, extra_setups)):
                self.probes.take()
                if i < extra_evals:
                    rnd.evals.append(self._eval(ds, test_ids)[3])
                if i < extra_setups:
                    rnd.setups.append(self._setup_only())

    def _count_malformed(self, rnd: Round) -> None:
        failure = self._malformed_eval()
        if failure is not None:
            rnd.failed += 1
            rnd.failures.append(failure)

    # -- correctness -------------------------------------------------------

    def _check_first_round(self, cfg, ds, state, metrics, art, labels, scores, test_ids) -> None:
        wl = self.workload
        truth = ds.labels[test_ids]
        problems = checks.history_problems(art.history, wl.steps)

        acc = self.accuracy = checks.accuracy(labels, truth)
        for where, reported in (("train", metrics["test_acc_blend"]), ("artifact", art.metrics["test_acc_blend"])):
            if acc != reported:
                problems.append(f"recomputed blend accuracy {acc!r} differs from the {where} value {reported!r}")

        same_params = (
            np.array_equal(art.hgnn.flatten(), state.hgnn.flatten())
            and np.array_equal(art.mwn.flatten(), state.mwn.flatten())
            and np.array_equal(art.partition.centroids, state.partition.centroids)
        )
        if not same_params:
            problems.append("reloaded artifact does not restore the parameters bit for bit")
        mem_labels, mem_scores = trainer.predict(state, ds, test_ids, "blend")
        if not (np.array_equal(mem_labels, labels) and np.array_equal(mem_scores, scores)):
            problems.append("reloaded artifact predicts differently from the trained state")

        train_ids = np.asarray(ds.splits.train, dtype=np.int64)
        exact = checks.exact_overlapness(ds.graph.num_nodes, ds.graph.edges(), train_ids.tolist())
        program = ds.graph.overlap_vector(train_ids).values
        problems += checks.overlap_level_problems(exact, program, state.partition.centroids, state.train_tasks)
        valid = [float(p) for p in exact if p is not None]
        if valid:
            problems += checks.kmeans_problems(valid, state.partition.centroids, cfg.settings.k)

        problems += checks.alpha_problems(art.history, wl.pin_alpha)
        problems += checks.learning_problems(acc, truth, art.history, wl.desk_criterion)
        self.problems += problems

    def _check_rounds(self) -> None:
        done = [r for r in self.rounds if r.artifact is not None]
        if len(done) < 2 or self.accuracy is None:
            self.problems.append(f"{len(done)} completed rounds; two, one of them checked, are needed")
            return
        for i, rnd in enumerate(done[1:], 2):
            if rnd.artifact != done[0].artifact:
                self.problems.append(f"round {i} wrote an artifact that differs from round 1")
            if rnd.predicted is not None and not np.array_equal(rnd.predicted, done[0].predicted):
                self.problems.append(f"round {i} predicted differently from round 1")

    # -- metrics -----------------------------------------------------------

    def _layer_values(self, totals, observed, rnd: Round) -> dict[str, float]:
        values: dict[str, float] = {}
        for span, _, _, time_metric, count_metric, _ in self.layers:
            entry = totals.get(span, {"calls": 0, "inclusive_s": 0.0})
            values[time_metric] = entry["inclusive_s"]
            if count_metric:
                values[count_metric] = entry["calls"]
        steps = max(self.workload.steps, 1)
        values["trainer.meta_loss_evals"] = totals.get("trainer.meta_loss", {"calls": 0})["calls"] / steps
        values["trainer.per_sample_grad_mb"] = max(observed.get("trainer.per_sample_grad_mb", [0.0]))
        values["artifact.bytes"] = len(rnd.artifact) if rnd.artifact is not None else 0
        return values

    def timings(self, seconds=None) -> dict[str, float]:
        """Median setup, step, run and eval times of the untraced rounds.

        In reference seconds by default; ``seconds=wall`` gives wall time.
        """
        seconds = seconds or self.probes.reference_seconds
        plain = [r for r in self.rounds if not r.traced and r.run is not None]
        return {
            "setup_s": statistics.median(seconds(*i) for r in plain for i in r.setups),
            "step_s_p50": statistics.median(seconds(*i) for r in plain for i in r.steps),
            "run_s": statistics.median(seconds(*r.run) for r in plain),
            "eval_s": statistics.median(seconds(*i) for r in plain for i in r.evals),
        }

    def end_to_end(self) -> dict[str, float]:
        return {
            **self.timings(),
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "test_acc_blend": self.accuracy,
        }

    def per_layer(self) -> dict[str, float]:
        traced = [r for r in self.rounds if r.traced and r.layers is not None]
        values = {}
        for name, _ in per_layer_metrics():
            if name == "trace.overhead_s":
                # against the untraced rounds after the first, which alone pays the process's cold start
                warm = [r for r in self.rounds[1:] if not r.traced and r.run is not None]
                seconds = self.probes.reference_seconds
                values[name] = statistics.median(seconds(*r.run) for r in traced) - statistics.median(
                    seconds(*r.run) for r in warm
                )
            else:
                values[name] = statistics.median(r.layers[name] for r in traced)
        return values

    # -- the whole run -----------------------------------------------------

    def run(self, seconds: float, trace: bool) -> dict:
        started = perf_counter()
        # two artifacts to compare; with tracing, a warm untraced round after the traced one
        min_rounds = 3 if trace else 2
        try:
            while len(self.rounds) < min_rounds or perf_counter() - started < seconds:
                self.run_round(traced=trace and len(self.rounds) % 2 == 1)
        finally:
            self.clock.close()
            self.probes.detach()
        self._check_rounds()
        attempted = OPS_PER_ROUND * len(self.rounds)
        failed = sum(r.failed for r in self.rounds)
        if trace:
            metrics = self.per_layer()
            units = dict(per_layer_metrics())
        else:
            metrics = self.end_to_end()
            units = END_TO_END_UNITS
        return {
            "correct": not self.problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        }

    def record(self, result: dict, env: dict) -> dict:
        """Everything a run measured, for the run record file.

        Times in it are seconds since the run's first probe.
        """
        t0 = self.probes.starts[0]
        probes = self.probes
        return {
            "workload": self.workload.name,
            "seed": self.seed,
            "env": env,
            "config": self.doc,
            "problems": self.problems,
            "wall_s": self.timings(wall),
            "speed": probes.summary(),
            # each as [start, duration, median time of one reference run]
            "probes": [[s - t0, d, v] for s, d, v in zip(probes.starts, probes.durations, probes.speeds)],
            "rounds": [
                {
                    "traced": r.traced,
                    # each as [start, end, reference seconds]
                    **{
                        key: [[a - t0, b - t0, probes.reference_seconds(a, b)] for a, b in intervals]
                        for key, intervals in (
                            ("run_s", [r.run] if r.run else []),
                            ("setup_s", r.setups),
                            ("step_s", r.steps),
                            ("eval_s", r.evals),
                        )
                    },
                    "accuracy": r.accuracy,
                    "failed": r.failed,
                    "failures": r.failures,
                    "layers": r.layers,
                }
                for r in self.rounds
            ],
            "result": result,
        }

    def trace_document(self) -> dict:
        """Spans of every traced round plus per-name calls, inclusive and self time."""
        names = self.tracer.names
        return {
            "workload": self.workload.name,
            "seed": self.seed,
            "span_fields": ["name", "parent", "start_s", "end_s"],
            "rounds": [
                {
                    "summary": totals,
                    "spans": [[names[i], parent, start - spans[0][2], end - spans[0][2]] for i, parent, start, end in spans],
                }
                for spans, totals in self.traced
            ],
        }


def environment(threads: dict) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "machine": platform.machine(),
        **threads,
    }
