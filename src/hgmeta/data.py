"""Dataset ingestion, validation, serialization, and synthetic generation.

On-disk layout of a dataset directory (all plain text, UTF-8):

* ``hyperedges.txt``  one hyperedge per line, whitespace-separated 0-based
  node ids; blank lines are ignored;
* ``features.csv``    one row per node, comma-separated tokens that
  ``float()`` accepts; blank (empty or whitespace-only) lines are skipped;
  the row count defines the node count;
* ``labels.csv``      one ``node_id,class_id`` line per labelled node;
* ``splits.json``     object with integer arrays "train", "meta", "test".

Two readers parse ``features.csv`` to the same bits. NumPy's C reader
(``_read_features``) reads it in blocks of rows. ``_read_features_by_line``,
one ``float()`` per token, is the reference: it defines the grammar and
every error, and it re-reads any file the C reader rejects.

A ``features.csv`` of at least ``2 * _FEATURE_RANGE_MIN_BYTES`` (the
measured break-even of a second process) is cut into byte ranges just
after a ``\n``, one per usable core. The calling process parses the first
range and ``os.fork`` workers the others, each through a pipe, and the rows
are joined in file order to the bits of one reader. A worker only saves
time: one that fails in any way has its range re-read by the caller, and a
range the C reader rejects sends the whole file to the reference reader.
Where ``os.fork`` or ``os.sched_getaffinity`` is missing, or a second
Python thread runs, the file is one range.

Validation failures raise DataError with a machine-readable code so the CLI
can map them to a stable exit status; a file that is not UTF-8 is a parse
error of that file, and an OSError while reading one is ``file-read``.
"""

from __future__ import annotations

import io
import json
import os
import signal
import struct
import threading
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .errors import ContractError, DataError
from .hypergraph import Hypergraph
from .rng import drawable, stream
from .tensor import all_finite

REQUIRED_FILES = ("hyperedges.txt", "features.csv", "labels.csv", "splits.json")
SPLIT_NAMES = ("train", "meta", "test")
BIAS_KINDS = ("none", "structure", "feature")


@dataclass(frozen=True)
class Splits:
    train: tuple[int, ...]
    meta: tuple[int, ...]
    test: tuple[int, ...]


@dataclass
class Dataset:
    """Validated hypergraph classification data with disjoint splits.

    ``load_dataset`` and ``generate_synthetic`` return frozen ``features``
    (read-only over immutable ``bytes``, see ``tensor.frozen``), which the
    model may cache derived values of; copy the array before editing it.
    """

    graph: Hypergraph
    features: np.ndarray
    labels: np.ndarray  # -1 marks an unlabeled node
    splits: Splits
    num_classes: int
    name: str = "dataset"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.graph == other.graph
            and np.array_equal(self.features, other.features)
            and np.array_equal(self.labels, other.labels)
            and self.splits == other.splits
            and self.num_classes == other.num_classes
        )


def _validate_dataset(ds: Dataset) -> Dataset:
    n = ds.graph.num_nodes
    if ds.features.shape[0] != n:
        raise DataError("feature-count", f"{ds.features.shape[0]} feature rows for {n} nodes")
    if ds.labels.shape != (n,):
        raise DataError("label-count", "labels must carry one entry per node")
    labeled = ds.labels >= 0
    if np.any(ds.labels[labeled] >= ds.num_classes):
        raise DataError("label-range", "class id outside [0, num_classes)")
    seen: set[int] = set()
    for split_name in SPLIT_NAMES:
        ids = getattr(ds.splits, split_name)
        for v in ids:
            if not 0 <= v < n:
                raise DataError("split-range", f"{split_name} index {v} outside [0, {n})")
            if v in seen:
                raise DataError("split-overlap", f"node {v} appears in more than one split")
            seen.add(v)
            if ds.labels[v] < 0:
                raise DataError("split-unlabeled", f"{split_name} index {v} has no label")
    if not all_finite(ds.features):
        raise DataError("feature-nonfinite", "features contain NaN/Inf")
    # validation only reads: the loaders build frozen features themselves,
    # and a caller's own array keeps its flags
    return ds


# rows per np.loadtxt call in _range_blocks. Through glibc's mmap threshold
# the block shape sets the peak RSS of a Cora-CA-sized run: one call over the
# whole file, or one call per line, raised it by 8-10%.
_FEATURE_BLOCK_ROWS = 256

# bytes of features.csv below which a range is not worth a worker. In a process
# holding 150 MB resident on 2 cores (x86_64), two processes lost to one on an
# 8 MB file (108 against 95 ms, median of 11) and won on every file measured
# from 12 MB (92 against 143 ms) to 77 MB. The fork, pipe and join are the cost.
_FEATURE_RANGE_MIN_BYTES = 8 << 20


@contextmanager
def _reading(path: Path):
    """Guards the reads of one dataset file: an OSError becomes DataError ``file-read`` naming ``path``."""
    try:
        yield
    except OSError as exc:
        raise DataError("file-read", f"cannot read {path}: {exc}") from exc


def _range_count(size: int) -> int:
    """How many byte ranges to parse ``size`` bytes of features in, one per process.

    One per usable core, each at least ``_FEATURE_RANGE_MIN_BYTES``. Only a
    process with one Python thread forks, and only where it can.
    """
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity") or threading.active_count() != 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), size // _FEATURE_RANGE_MIN_BYTES))


def _feature_ranges(path: Path) -> list[tuple[int, int]]:
    """The byte ranges ``[start, stop)`` that ``features.csv`` is parsed in, in file order.

    With R = ``_range_count`` of the file's size, range i starts at the first
    line start at or after i/R of the file. So every range but the last ends
    just after a ``\n``, and no cut falls inside a UTF-8 sequence or a
    ``\r\n``. A range that would be empty is dropped.
    """
    size = path.stat().st_size
    count = _range_count(size)
    cuts = [0]
    with path.open("rb") as fh:
        for i in range(1, count):
            fh.seek(max(cuts[-1], i * size // count - 1))
            while (chunk := fh.read(1 << 16)) and b"\n" not in chunk:
                pass
            if not chunk:
                break
            cut = fh.tell() - len(chunk) + chunk.index(b"\n") + 1
            if cut >= size:
                break
            cuts.append(cut)
    return list(zip(cuts, cuts[1:] + [size]))


class _ByteRange(io.RawIOBase):
    """The bytes ``[start, stop)`` of a file as a raw stream, for a text handle over one range."""

    def __init__(self, path: Path, start: int, stop: int):
        super().__init__()
        self._file = path.open("rb", buffering=0)
        self._file.seek(start)
        self._left = stop - start

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = self._file.readinto(memoryview(buffer)[: self._left])
        self._left -= n
        return n

    def close(self) -> None:
        self._file.close()
        super().close()


def _range_blocks(path: Path, start: int, stop: int) -> tuple[int, list[np.ndarray]]:
    """The width (0 for no rows) and rows of bytes ``[start, stop)`` of ``features.csv``.

    The rows come in blocks parsed by NumPy's C reader. Raises ValueError
    where the C reader rejects the range, and on blocks of differing widths.
    """
    blocks: list[np.ndarray] = []
    with io.TextIOWrapper(io.BufferedReader(_ByteRange(path, start, stop)), encoding="utf-8") as fh:
        with warnings.catch_warnings():
            # loadtxt warns at the end of the range and on each skipped blank line
            warnings.filterwarnings("ignore", r"(loadtxt: input|Input line \d+) contained no data", UserWarning)
            while True:
                block = np.loadtxt(
                    fh, delimiter=",", dtype=np.float64, comments=None, ndmin=2, max_rows=_FEATURE_BLOCK_ROWS
                )
                if block.shape[0] == 0:
                    return (blocks[0].shape[1] if blocks else 0), blocks
                if blocks and block.shape[1] != blocks[0].shape[1]:
                    raise ValueError("feature rows have differing lengths")
                blocks.append(block)


# a worker's payload: the width of its rows (_REJECTED where the C reader
# rejected its range) and their byte count, then their float64 bytes
_HEADER = struct.Struct("<qq")
_REJECTED = -1


def _fork_worker(path: Path, start: int, stop: int, other_fds: list[int]) -> tuple[int, BinaryIO] | None:
    """Parse bytes ``[start, stop)`` of ``path`` in a forked worker.

    Returns the worker's pid and the read end of its pipe, or None when no
    worker could be started. The worker closes ``other_fds``, the read ends
    of the workers before it, so it holds only its own pipe's write end.
    """
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None
    try:
        # Python 3.12 and later warn at a fork in a process with native
        # threads, as OpenBLAS's pool is. Ignoring the warning also keeps a
        # warnings-as-errors filter from raising once the worker exists. The
        # fork is safe: OpenBLAS stops its pool in its own pthread_atfork
        # handler, and the worker only parses, writes to its pipe and ends in
        # os._exit.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        status = 1
        try:
            for fd in (read_fd, *other_fds):
                os.close(fd)
            try:
                width, blocks = _range_blocks(path, start, stop)
            except ValueError:
                width, blocks = _REJECTED, []
            with open(write_fd, "wb") as out:
                out.write(_HEADER.pack(width, sum(block.nbytes for block in blocks)))
                for block in blocks:
                    out.write(block)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _payload(pipe: BinaryIO) -> tuple[int, list[bytes]] | None:
    """The width and row bytes a worker wrote to ``pipe``; None for a short payload.

    The rows are read in pieces the size of one block, like the blocks this
    process parses itself: one piece the size of the range raised the peak
    RSS of a 12-step Cora-CA-sized run from 137 to 142 MB (medians of 6).
    """
    with pipe:
        header = pipe.read(_HEADER.size)
        if len(header) != _HEADER.size:
            return None
        width, nbytes = _HEADER.unpack(header)
        step = max(width, 1) * 8 * _FEATURE_BLOCK_ROWS
        rows = [pipe.read(min(step, nbytes - done)) for done in range(0, nbytes, step)]
    return (width, rows) if sum(map(len, rows)) == nbytes else None


def _parse_ranges(path: Path) -> list[tuple[int, list]]:
    """The width (0 for no rows) and row blocks of each range of ``features.csv``, in file order.

    This process parses the first range and a forked worker each other one.
    A worker that fails in any way (a non-zero exit, a signal, a short
    payload, no fork) only costs time: its range is re-read here. Raises
    ValueError where the C reader rejects a range. Every worker is killed
    if still running and reaped before this returns or raises.
    """
    ranges = _feature_ranges(path)
    workers: dict[int, tuple[int, BinaryIO]] = {}
    try:
        for index, (start, stop) in enumerate(ranges[1:], 1):
            worker = _fork_worker(path, start, stop, [pipe.fileno() for _, pipe in workers.values()])
            if worker is not None:
                workers[index] = worker
        parts = []
        for index, (start, stop) in enumerate(ranges):
            rows = None
            if index in workers:
                pid, pipe = workers[index]
                rows = _payload(pipe)
                if os.waitpid(pid, 0)[1] != 0:
                    rows = None
                del workers[index]
            if rows is None:
                rows = _range_blocks(path, start, stop)
            elif rows[0] == _REJECTED:
                raise ValueError(f"the C reader rejected bytes {start} to {stop}")
            parts.append(rows)
        return parts
    finally:
        for pid, pipe in workers.values():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _read_features(path: Path) -> np.ndarray:
    """The frozen float64 features of ``features.csv``, parsed by NumPy's C reader.

    The C tokenizer converts each token with the correctly rounded routine
    that ``float()`` uses, so every bit matches ``_read_features_by_line``.
    It accepts a subset of that reader's grammar. A file it rejects (a bad
    token, a ragged row, a whitespace-only line, bytes that are not UTF-8 or
    no rows at all) is re-read by ``_read_features_by_line``, which accepts
    what ``float()`` accepts and gives every error with its line number.

    A file of at least twice ``_FEATURE_RANGE_MIN_BYTES`` is parsed in byte
    ranges cut at line ends, one per usable core (``_parse_ranges``), and
    the rows are joined in file order, so the bits are those of one process
    reading the whole file. Ranges of differing widths are a rejection too.
    """
    try:
        parts = _parse_ranges(path)
    except ValueError:
        return _read_features_by_line(path)
    widths = {width for width, _ in parts if width}
    if len(widths) != 1:
        return _read_features_by_line(path)
    # bytes.join copies each block's buffer straight into the one frozen buffer
    rows = b"".join(block for _, blocks in parts for block in blocks)
    return np.frombuffer(rows, dtype=np.float64).reshape(-1, widths.pop())


def _read_features_by_line(path: Path) -> np.ndarray:
    """The reference feature reader: it defines the grammar and every error.

    Streamed into the float64 bytes of one row at a time: the whole text
    and a Python float per value would peak at several times the size of
    the features. Joining the rows once gives the frozen features without
    a second full-size array.
    """
    feature_rows: list[bytes] = []
    try:
        with path.open(encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    feature_rows.append(np.fromiter(map(float, line.split(",")), dtype=np.float64).tobytes())
                except ValueError as exc:
                    raise DataError("feature-parse", f"features.csv line {lineno}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError("feature-parse", f"features.csv is not UTF-8: {exc}") from exc
    if not feature_rows:
        raise DataError("feature-parse", "features.csv is empty")
    n, row_bytes = len(feature_rows), len(feature_rows[0])
    if any(len(row) != row_bytes for row in feature_rows):
        raise DataError("ragged-features", "feature rows have differing lengths")
    return np.frombuffer(b"".join(feature_rows), dtype=np.float64).reshape(n, -1)


def _read_text(root: Path, fname: str, code: str) -> str:
    """The UTF-8 text of ``root / fname``; bytes that are not UTF-8 raise DataError ``code``.

    An OSError while reading raises DataError ``file-read``.
    """
    try:
        with _reading(root / fname):
            return (root / fname).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(code, f"{fname} is not UTF-8: {exc}") from exc


def load_dataset(path) -> Dataset:
    """Read and validate the four-file layout rooted at ``path``."""
    root = Path(path)
    for fname in REQUIRED_FILES:
        if not (root / fname).is_file():
            raise DataError("missing-file", str(root / fname))

    with _reading(root / "features.csv"):
        features = _read_features(root / "features.csv")
    n = features.shape[0]

    edges: list[list[int]] = []
    for lineno, line in enumerate(_read_text(root, "hyperedges.txt", "hyperedge-parse").splitlines(), 1):
        if not line.strip():
            continue
        try:
            members = [int(tok) for tok in line.split()]
        except ValueError as exc:
            raise DataError("hyperedge-parse", f"hyperedges.txt line {lineno}: {exc}") from exc
        if len(set(members)) != len(members):
            raise DataError("duplicate-member", f"hyperedges.txt line {lineno} repeats a node")
        if any(not 0 <= v < n for v in members):
            raise DataError("hyperedge-range", f"hyperedges.txt line {lineno} references a missing node")
        edges.append(members)
    try:
        graph = Hypergraph(n, edges)
    except ContractError as exc:
        raise DataError("hyperedge-invalid", str(exc)) from exc

    labels = np.full(n, -1, dtype=np.int64)
    for lineno, line in enumerate(_read_text(root, "labels.csv", "label-parse").splitlines(), 1):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise DataError("label-parse", f"labels.csv line {lineno}: expected node_id,class_id")
        try:
            v, c = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise DataError("label-parse", f"labels.csv line {lineno}: {exc}") from exc
        if not 0 <= v < n:
            raise DataError("label-node-range", f"labels.csv line {lineno}: node {v} missing")
        # a class id is stored as int64
        if not 0 <= c < 2**63:
            raise DataError("label-range", f"labels.csv line {lineno}: class id {c} outside [0, 2**63)")
        if labels[v] >= 0:
            raise DataError("duplicate-label", f"labels.csv line {lineno} labels node {v} again")
        labels[v] = c
    if not np.any(labels >= 0):
        raise DataError("label-parse", "labels.csv defines no labels")
    num_classes = int(labels.max()) + 1

    try:
        raw_splits = json.loads(_read_text(root, "splits.json", "split-parse"))
    except json.JSONDecodeError as exc:
        raise DataError("split-parse", f"splits.json: {exc}") from exc
    if not isinstance(raw_splits, dict) or set(raw_splits) != set(SPLIT_NAMES):
        raise DataError("split-parse", "splits.json must hold exactly train/meta/test arrays")
    split_lists = {}
    for split_name in SPLIT_NAMES:
        ids = raw_splits[split_name]
        # JSON true/false load as bools, which are ints to isinstance
        if not isinstance(ids, list) or any(not isinstance(v, int) or isinstance(v, bool) for v in ids):
            raise DataError("split-parse", f"splits.json {split_name} must be an integer array")
        split_lists[split_name] = tuple(ids)
    ds = Dataset(
        graph=graph,
        features=features,
        labels=labels,
        splits=Splits(**split_lists),
        num_classes=num_classes,
        name=root.name,
    )
    return _validate_dataset(ds)


def _format_float(x: float) -> str:
    return repr(float(x))


def save_dataset(ds: Dataset, path) -> None:
    """Write the four-file layout; exact inverse of load_dataset."""
    _validate_dataset(ds)
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    with (root / "hyperedges.txt").open("w") as fh:
        for members in ds.graph.edges():
            fh.write(" ".join(str(v) for v in members) + "\n")
    with (root / "features.csv").open("w") as fh:
        for row in ds.features:
            fh.write(",".join(_format_float(x) for x in row) + "\n")
    with (root / "labels.csv").open("w") as fh:
        for v in range(ds.graph.num_nodes):
            if ds.labels[v] >= 0:
                fh.write(f"{v},{int(ds.labels[v])}\n")
    payload = {name: list(getattr(ds.splits, name)) for name in SPLIT_NAMES}
    (root / "splits.json").write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


@dataclass(frozen=True)
class SyntheticSpec:
    """Planted-community generator settings.

    Each node draws a class uniformly; each hyperedge picks an anchor class
    and fills member slots from that class with probability ``homophily``,
    uniformly otherwise. Features are an orthogonal per-class mean plus
    Gaussian noise. Bias injection either rewires a fraction of memberships
    to uniformly random nodes or replaces a fraction of feature rows with
    pure noise.
    """

    nodes: int = 200
    classes: int = 3
    hyperedges: int = 150
    size_range: tuple[int, int] = (3, 6)
    homophily: float = 0.9
    dim: int = 16
    noise: float = 0.5
    signal: float = 1.0
    bias: str = "none"
    bias_fraction: float = 0.0
    split_fractions: tuple[float, float, float] = (0.2, 0.2, 0.6)

    def validated(self) -> "SyntheticSpec":
        if self.nodes < 1 or self.classes < 1 or self.hyperedges < 0:
            raise ContractError("nodes, classes, hyperedges must be positive")
        lo, hi = self.size_range
        if not 1 <= lo <= hi:
            raise ContractError("size_range must satisfy 1 <= lo <= hi")
        if hi > self.nodes:
            raise ContractError("hyperedge size range exceeds the node count")
        if not 0.0 <= self.homophily <= 1.0:
            raise ContractError("homophily must lie in [0, 1]")
        if self.dim < self.classes:
            raise ContractError("feature dim must be >= the class count for orthogonal means")
        if self.noise < 0 or self.signal <= 0:
            raise ContractError("noise must be >= 0 and signal > 0")
        if self.bias not in BIAS_KINDS:
            raise ContractError(f"unknown bias kind {self.bias!r}")
        if not 0.0 <= self.bias_fraction <= 1.0:
            raise ContractError("bias_fraction must lie in [0, 1]")
        if self.bias != "none" and self.bias_fraction == 0.0:
            raise ContractError("bias injection needs a positive bias_fraction")
        fr = self.split_fractions
        if len(fr) != 3 or any(f < 0 for f in fr) or sum(fr) > 1.0 + 1e-9 or fr[0] <= 0:
            raise ContractError("split fractions must be nonnegative and sum to <= 1")
        return self


def _untaken(positions, taken: np.ndarray):
    """The nodes at ``positions`` among those not in ``taken``, sorted and distinct.

    Equal to ``np.setdiff1d(np.arange(n), taken)[positions]`` for any n above
    them, without building that array: ``taken[j] - j`` nodes outside
    ``taken`` precede ``taken[j]``, so a position moves up by one for every
    such count at or below it.
    """
    return positions + np.searchsorted(taken - np.arange(taken.size), positions, side="right")


def generate_synthetic(spec: SyntheticSpec, seed: int) -> Dataset:
    """Deterministic planted-community dataset for the given seed."""
    spec = spec.validated()
    drawable((spec.nodes, spec.dim), "the synthetic features")
    drawable((spec.classes, spec.dim), "the synthetic class means")
    rng_labels = stream(seed, "synth-labels")
    rng_edges = stream(seed, "synth-edges")
    rng_feats = stream(seed, "synth-features")
    rng_bias = stream(seed, "synth-bias")
    rng_splits = stream(seed, "synth-splits")

    n, c = spec.nodes, spec.classes
    labels = rng_labels.integers(0, c, size=n)
    class_pools = [np.flatnonzero(labels == ci) for ci in range(c)]

    lo, hi = spec.size_range
    edges: list[list[int]] = []
    for _ in range(spec.hyperedges):
        size = int(rng_edges.integers(lo, hi + 1))
        anchor = int(rng_edges.integers(0, c))
        from_class = int(rng_edges.binomial(size, spec.homophily))
        pool = class_pools[anchor]
        take_class = min(from_class, pool.size, size)
        members = list(rng_edges.choice(pool, size=take_class, replace=False)) if take_class else []
        if len(members) < size:
            taken = np.sort(np.asarray(members, dtype=np.int64))
            picks = rng_edges.choice(n - taken.size, size=size - len(members), replace=False)
            members.extend(int(v) for v in _untaken(picks, taken))
        edges.append(sorted(int(v) for v in members))

    means = np.zeros((c, spec.dim))
    means[np.arange(c), np.arange(c)] = spec.signal
    features = means[labels] + rng_feats.normal(0.0, spec.noise, size=(n, spec.dim))

    if spec.bias == "structure" and edges:
        for e, members in enumerate(edges):
            current = list(members)
            for slot in range(len(current)):
                if rng_bias.random() < spec.bias_fraction and len(current) < n:
                    taken = np.sort(np.asarray(current, dtype=np.int64))
                    current[slot] = int(_untaken(rng_bias.choice(n - taken.size), taken))
            edges[e] = sorted(current)
    elif spec.bias == "feature":
        flip = rng_bias.random(n) < spec.bias_fraction
        noise_rows = rng_bias.normal(0.0, 1.0, size=(n, spec.dim))
        features = np.where(flip[:, None], noise_rows, features)

    perm = rng_splits.permutation(n)
    n_train = max(1, int(round(spec.split_fractions[0] * n)))
    n_meta = int(round(spec.split_fractions[1] * n))
    n_test = int(round(spec.split_fractions[2] * n))
    n_meta = min(n_meta, n - n_train)
    n_test = min(n_test, n - n_train - n_meta)
    splits = Splits(
        train=tuple(int(v) for v in perm[:n_train]),
        meta=tuple(int(v) for v in perm[n_train : n_train + n_meta]),
        test=tuple(int(v) for v in perm[n_train + n_meta : n_train + n_meta + n_test]),
    )

    ds = Dataset(
        graph=Hypergraph(n, edges),
        features=np.frombuffer(features.tobytes(), dtype=np.float64).reshape(features.shape),
        labels=labels.astype(np.int64),
        splits=splits,
        # the class count the four-file layout carries, as load_dataset infers it
        num_classes=int(labels.max()) + 1,
        name=f"synthetic-{seed}",
    )
    return _validate_dataset(ds)
