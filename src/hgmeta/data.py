"""Dataset ingestion, validation, serialization, and synthetic generation.

On-disk layout of a dataset directory (all plain text, UTF-8):

* ``hyperedges.txt``  one hyperedge per line, whitespace-separated 0-based
  node ids; blank lines are ignored;
* ``features.csv``    one row per node, comma-separated tokens that
  ``float()`` accepts; blank (empty or whitespace-only) lines are skipped;
  the row count defines the node count;
* ``labels.csv``      lines ``node_id,class_id``; unlabeled nodes omitted;
* ``splits.json``     object with integer arrays "train", "meta", "test".

Two readers parse ``features.csv`` to the same bits. NumPy's C reader
(``_read_features``) reads it in blocks of rows. ``_read_features_by_line``,
one ``float()`` per token, is the reference: it defines the grammar and
every error, and it re-reads any file the C reader rejects.

Validation failures raise DataError with a machine-readable code so the CLI
can map them to a stable exit status; a file that is not UTF-8 is a parse
error of that file.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractError, DataError
from .hypergraph import Hypergraph
from .rng import stream
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


# rows per np.loadtxt call in _read_features. Through glibc's mmap threshold
# the block shape sets the peak RSS of a Cora-CA-sized run: one call over the
# whole file, or one call per line, raised it by 8-10%.
_FEATURE_BLOCK_ROWS = 256


def _read_features(path: Path) -> np.ndarray:
    """The frozen float64 features of ``features.csv``, parsed by NumPy's C reader.

    The C tokenizer converts each token with the correctly rounded routine
    that ``float()`` uses, so every bit matches ``_read_features_by_line``.
    It accepts a subset of that reader's grammar. A file it rejects (a bad
    token, a ragged row, a whitespace-only line, bytes that are not UTF-8 or
    no rows at all) is re-read by ``_read_features_by_line``, which accepts
    what ``float()`` accepts and gives every error with its line number.
    """
    blocks: list[np.ndarray] = []
    try:
        with path.open(encoding="utf-8") as fh, warnings.catch_warnings():
            # loadtxt warns at the end of the file and on each skipped blank line
            warnings.filterwarnings("ignore", r"(loadtxt: input|Input line \d+) contained no data", UserWarning)
            while True:
                block = np.loadtxt(
                    fh, delimiter=",", dtype=np.float64, comments=None, ndmin=2, max_rows=_FEATURE_BLOCK_ROWS
                )
                if block.shape[0] == 0:
                    break
                if blocks and block.shape[1] != blocks[0].shape[1]:
                    raise ValueError("feature rows have differing lengths")
                blocks.append(block)
    except ValueError:
        blocks = []
    if not blocks:
        return _read_features_by_line(path)
    # bytes.join copies each block's buffer straight into the one frozen buffer
    return np.frombuffer(b"".join(blocks), dtype=np.float64).reshape(-1, blocks[0].shape[1])


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
    """The UTF-8 text of ``root / fname``; bytes that are not UTF-8 raise DataError ``code``."""
    try:
        return (root / fname).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(code, f"{fname} is not UTF-8: {exc}") from exc


def load_dataset(path) -> Dataset:
    """Read and validate the four-file layout rooted at ``path``."""
    root = Path(path)
    for fname in REQUIRED_FILES:
        if not (root / fname).is_file():
            raise DataError("missing-file", str(root / fname))

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
        if c < 0:
            raise DataError("label-range", f"labels.csv line {lineno}: negative class id")
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
