"""Benchmark entry point: one workload, one seed, in this fresh process.

    python3 perfbench/run.py --workload desk-meta --seed 0 --seconds 10 --trace 0

Run from the root of an hgmeta checkout; the library is imported from
``src``. The coraca workloads first make sure the Cora-CA-shaped dataset
directory exists, writing it with prepare.py in a child process so that its
memory does not count towards this run. With ``--trace 0`` the last line of
standard output carries the end-to-end metrics, with ``--trace 1`` the
per-layer ones:

    {"correct": true, "attempted": 6, "failed": 2, "metrics": {...}}

Per-run records and traces go to perfbench/out/. A lock file there keeps
runs in one checkout from overlapping.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
PREPARE_TIMEOUT_S = 600


def cap_threads() -> dict:
    """Cap BLAS/OpenMP threads at the cores this process may run on.

    Takes effect only before numpy is first imported, since the BLAS
    library reads these variables when it loads.
    """
    cores = len(os.sched_getaffinity(0))
    caps = {"cores": cores}
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        value = min(int(current), cores) if current.isdigit() and int(current) > 0 else cores
        os.environ[var] = str(value)
        caps[var] = value
    return caps


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="run rounds until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "hgmeta" / "__init__.py").is_file():
        print("perfbench: src/hgmeta not found; run from the root of an hgmeta checkout", file=sys.stderr)
        return 2
    # relative, so the config echoed into each artifact does not depend on the checkout's location
    out_dir = Path("perfbench") / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "run.lock", "w") as lock:
        # one workload process at a time: a second run in this checkout waits here
        fcntl.flock(lock, fcntl.LOCK_EX)
        return run(args, root, out_dir)


def run(args, root: Path, out_dir: Path) -> int:
    threads = cap_threads()
    workload = WORKLOADS[args.workload]
    if workload.coraca:
        subprocess.run(
            [sys.executable, str(Path(__file__).with_name("prepare.py"))],
            cwd=root,
            check=True,
            timeout=PREPARE_TIMEOUT_S,
        )

    sys.path.insert(0, str(root / "src"))
    from bench import Bench, environment  # imports numpy, so only after cap_threads

    bench = Bench(workload, args.seed, out_dir)
    result = bench.run(args.seconds, trace=bool(args.trace))
    env = environment(threads)
    stem = out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = bench.record(result, env)
    stem.with_suffix(".record.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        stem.with_suffix(".spans.json").write_text(json.dumps(bench.trace_document()) + "\n")
    for problem in bench.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({"env": env, "rounds": len(bench.rounds), "wall_s": record["wall_s"], "speed": record["speed"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
