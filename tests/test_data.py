from __future__ import annotations

import errno
import json
import os
import signal
import struct
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgmeta import data
from hgmeta import tensor as T
from hgmeta.data import (
    Dataset,
    Splits,
    SyntheticSpec,
    _untaken,
    generate_synthetic,
    load_dataset,
    save_dataset,
)
from hgmeta.errors import ContractError, DataError
from hgmeta.hypergraph import Hypergraph

from conftest import overlap_toy


def write_toy_dataset(root, *, splits=None, label_lines=None, feature_rows=None, edges=None):
    root.mkdir(parents=True, exist_ok=True)
    g = overlap_toy()
    edge_lines = edges if edges is not None else [" ".join(str(v) for v in e) for e in g.edges()]
    (root / "hyperedges.txt").write_text("\n".join(edge_lines) + "\n")
    rows = feature_rows if feature_rows is not None else [",".join(["0.5"] * 3) for _ in range(7)]
    (root / "features.csv").write_text("\n".join(rows) + "\n")
    labels = label_lines if label_lines is not None else [f"{v},{v % 2}" for v in range(7)]
    (root / "labels.csv").write_text("\n".join(labels) + "\n")
    payload = splits if splits is not None else {"train": [0, 1, 2], "meta": [3, 4], "test": [5, 6]}
    (root / "splits.json").write_text(json.dumps(payload))
    return root


def impure_hyperedge_fraction(ds: Dataset) -> float:
    """Share of hyperedges whose members span more than one class."""
    impure = 0
    for members in ds.graph.edges():
        if np.unique(ds.labels[list(members)]).size > 1:
            impure += 1
    return impure / max(ds.graph.num_hyperedges, 1)


class TestLoad:
    def test_loads_hub_toy_with_exact_overlap(self, tmp_path):
        ds = load_dataset(write_toy_dataset(tmp_path / "toy"))
        assert ds.graph == overlap_toy()
        assert ds.graph.overlapness(0) == 12 / 7
        assert ds.num_classes == 2
        assert ds.splits.train == (0, 1, 2)

    def test_missing_file(self, tmp_path):
        root = write_toy_dataset(tmp_path / "toy")
        (root / "labels.csv").unlink()
        with pytest.raises(DataError) as err:
            load_dataset(root)
        assert err.value.code == "missing-file"

    def test_ragged_features(self, tmp_path):
        root = write_toy_dataset(tmp_path / "toy", feature_rows=["1.0,2.0"] * 6 + ["1.0"])
        with pytest.raises(DataError) as err:
            load_dataset(root)
        assert err.value.code == "ragged-features"

    def test_split_overlap(self, tmp_path):
        root = write_toy_dataset(
            tmp_path / "toy", splits={"train": [0, 1], "meta": [1], "test": [2]}
        )
        with pytest.raises(DataError) as err:
            load_dataset(root)
        assert err.value.code == "split-overlap"

    @pytest.mark.parametrize("flag", [True, False])
    def test_json_bool_in_a_split_is_not_a_node_id(self, tmp_path, flag):
        root = write_toy_dataset(tmp_path / "toy", splits={"train": [0, flag], "meta": [3], "test": [5]})
        with pytest.raises(DataError) as err:
            load_dataset(root)
        assert err.value.code == "split-parse"

    def test_split_index_out_of_range(self, tmp_path):
        root = write_toy_dataset(tmp_path / "toy", splits={"train": [0], "meta": [1], "test": [9]})
        with pytest.raises(DataError) as err:
            load_dataset(root)
        assert err.value.code == "split-range"

    def test_split_of_unlabeled_node(self, tmp_path):
        root = write_toy_dataset(tmp_path / "toy", label_lines=[f"{v},0" for v in range(6)])
        with pytest.raises(DataError) as err:
            load_dataset(root)  # node 6 is in the test split but unlabeled
        assert err.value.code == "split-unlabeled"

    def test_duplicate_membership(self, tmp_path):
        root = write_toy_dataset(tmp_path / "toy", edges=["0 1 1"])
        with pytest.raises(DataError) as err:
            load_dataset(root)
        assert err.value.code == "duplicate-member"

    def test_node_labelled_twice(self, tmp_path):
        # the last line does not silently win: the repeat is refused with its line number
        root = write_toy_dataset(tmp_path / "toy", label_lines=[f"{v},0" for v in range(7)] + ["0,1"])
        with pytest.raises(DataError) as err:
            load_dataset(root)
        assert err.value.code == "duplicate-label"
        assert "labels.csv line 8 labels node 0 again" in str(err.value)

    def test_hyperedge_referencing_missing_node(self, tmp_path):
        root = write_toy_dataset(tmp_path / "toy", edges=["0 12"])
        with pytest.raises(DataError) as err:
            load_dataset(root)
        assert err.value.code == "hyperedge-range"

    def test_negative_label(self, tmp_path):
        root = write_toy_dataset(tmp_path / "toy", label_lines=["0,-1"] + [f"{v},0" for v in range(1, 7)])
        with pytest.raises(DataError) as err:
            load_dataset(root)
        assert err.value.code == "label-range"

    @pytest.mark.parametrize("class_id", [2**63, 99999999999999999999])
    def test_class_id_past_int64_is_a_label_range_error_with_its_line(self, tmp_path, class_id):
        root = write_toy_dataset(tmp_path / "toy", label_lines=[f"{v},0" for v in range(1, 7)] + [f"0,{class_id}"])
        with pytest.raises(DataError) as err:
            load_dataset(root)
        assert err.value.code == "label-range"
        assert f"labels.csv line 7: class id {class_id}" in str(err.value)


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path):
        ds = generate_synthetic(SyntheticSpec(nodes=30, hyperedges=15, size_range=(2, 4)), seed=5)
        save_dataset(ds, tmp_path / "d")
        assert load_dataset(tmp_path / "d") == ds

    def test_save_load_save_is_byte_identical(self, tmp_path):
        ds = generate_synthetic(SyntheticSpec(nodes=25, hyperedges=12, size_range=(2, 3)), seed=6)
        save_dataset(ds, tmp_path / "a")
        reloaded = load_dataset(tmp_path / "a")
        save_dataset(reloaded, tmp_path / "b")
        for fname in ("hyperedges.txt", "features.csv", "labels.csv", "splits.json"):
            assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()

    def test_roundtrip_keeps_the_class_count_when_the_top_class_draws_no_node(self, tmp_path):
        # three classes requested, labels {0, 1} drawn: the count is the one the layout carries
        ds = generate_synthetic(SyntheticSpec(nodes=15, hyperedges=8, size_range=(1, 4), dim=4), seed=217)
        assert ds.num_classes == 2 and set(ds.labels) == {0, 1}
        save_dataset(ds, tmp_path / "d")
        assert load_dataset(tmp_path / "d") == ds

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_roundtrip_property_over_random_synthetics(self, tmp_path_factory, seed):
        ds = generate_synthetic(SyntheticSpec(nodes=15, hyperedges=8, size_range=(1, 4), dim=4), seed=seed)
        root = tmp_path_factory.mktemp("rt")
        save_dataset(ds, root)
        assert load_dataset(root) == ds


def _rows(count: int, width: int = 2, bad: dict | None = None) -> str:
    """``count`` rows of ``width`` distinct decimals; ``bad`` maps 1-based line numbers to replacement lines."""
    lines = [",".join(f"{r}.{c}5" for c in range(width)) for r in range(count)]
    for lineno, line in (bad or {}).items():
        lines[lineno - 1] = line
    return "\n".join(lines) + "\n"


# features.csv texts (or bytes) that the C reader must read to the reference
# reader's bits, or reject to the reference reader's error
FEATURE_CORPUS = {
    "plain": "1.5,2\n-3,4e-3\n",
    "underscore-digits": "1,2\n1_0,2_5\n3,4\n",
    "non-ascii-digits": "1,2\n\u0661,\u0662.\u0665\n3,4\n",
    "whitespace-only-lines": "1,2\n   \n3,4\n\t\n5,6\n",
    "empty-line-in-a-block": "1,2\n\n3,4\n",
    "crlf": "1,2\r\n3,4\r\n",
    "no-final-newline": "1,2\n3,4",
    "one-column": "1\n2\n3\n",
    "nan-and-minus-infinity": "nan,1\n-Infinity,2\n",
    "overflow-to-infinity": "1e999,2\n",
    "padded-tokens": " 1 , 2\t\n+3,-0\n",
    "rounding-and-subnormals": "0.1000000000000000055511151231257827,5e-324\n2.2250738585072011e-308,1e23\n",
    "empty-field": "1,,2\n",
    "trailing-comma": "1,2,\n",
    "hash": "1,2\n#3,4\n",
    "hash-after-a-value": "1,2 # note\n",
    "quoted-values": '"1","2"\n',
    "empty-file": "",
    "all-blank-file": "\n  \n\t\n",
    "ragged-inside-a-block": "1,2\n3\n5,6\n",
    "ragged-across-blocks": _rows(data._FEATURE_BLOCK_ROWS) + _rows(44, width=3),
    "ragged-in-a-later-block": _rows(300, bad={280: "1,2,3"}),
    "ragged-then-bad-token": "1,2\n3\n4,x\n",
    "bad-token-past-line-256": _rows(300, bad={10: "", 290: "1.0,x"}),
    "bad-token-in-the-last-row": _rows(513, bad={513: "1.0,2.0.0"}),
    "not-utf8": b"1,2\n\xff3,4\n",
}


def _write_features(path, text) -> None:
    """Write a corpus entry as it stands: bytes as they are, text as UTF-8 with its own line ends."""
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text, encoding="utf-8", newline="")


def _outcome(read, path):
    """``read(path)``'s features bytes and shape, or its DataError code and message."""
    try:
        features = read(path)
    except DataError as exc:
        return ("error", exc.code, str(exc))
    return ("features", features.shape, features.tobytes(), T.frozen(features))


@pytest.mark.bitwise
class TestFeatureReaders:
    @pytest.mark.parametrize("case", sorted(FEATURE_CORPUS))
    def test_c_reader_matches_the_reference_reader(self, tmp_path, case):
        path = tmp_path / "features.csv"
        _write_features(path, FEATURE_CORPUS[case])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _outcome(data._read_features, path)
            want = _outcome(data._read_features_by_line, path)
        assert got == want

    @pytest.mark.parametrize(
        "case,expected",
        [
            ("underscore-digits", [[1, 2], [10, 25], [3, 4]]),
            ("non-ascii-digits", [[1, 2], [1, 2.5], [3, 4]]),
            ("whitespace-only-lines", [[1, 2], [3, 4], [5, 6]]),
            ("crlf", [[1, 2], [3, 4]]),
            ("one-column", [[1], [2], [3]]),
        ],
    )
    def test_the_reference_grammar_is_what_float_accepts(self, tmp_path, case, expected):
        path = tmp_path / "features.csv"
        path.write_text(FEATURE_CORPUS[case], encoding="utf-8", newline="")
        np.testing.assert_array_equal(data._read_features(path), np.array(expected, dtype=np.float64))

    @pytest.mark.parametrize(
        "case,code,message",
        [
            ("empty-field", "feature-parse", "features.csv line 1: could not convert string to float: ''"),
            ("hash", "feature-parse", "features.csv line 2: could not convert string to float: '#3'"),
            ("empty-file", "feature-parse", "features.csv is empty"),
            ("all-blank-file", "feature-parse", "features.csv is empty"),
            ("ragged-across-blocks", "ragged-features", "feature rows have differing lengths"),
            ("ragged-then-bad-token", "feature-parse", "features.csv line 3: could not convert string to float: 'x\\n'"),
            ("bad-token-past-line-256", "feature-parse", "features.csv line 290: could not convert string to float: 'x\\n'"),
        ],
    )
    def test_errors_name_the_reference_line(self, tmp_path, case, code, message):
        path = tmp_path / "features.csv"
        path.write_text(FEATURE_CORPUS[case], encoding="utf-8", newline="")
        with pytest.raises(DataError) as err:
            data._read_features(path)
        assert (err.value.code, str(err.value)) == (code, f"{code}: {message}")

    @settings(max_examples=150, deadline=None)
    @given(text=st.text(alphabet="0123456789.,-+e_ \t\r\n#\"nai\u0661", max_size=40))
    def test_c_reader_matches_the_reference_reader_on_random_texts(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("fuzz") / "features.csv"
        path.write_text(text, encoding="utf-8", newline="")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _outcome(data._read_features, path) == _outcome(data._read_features_by_line, path)

    def test_non_finite_values_reach_the_finiteness_check(self, tmp_path):
        root = write_toy_dataset(tmp_path / "toy", feature_rows=["nan,1", "-Infinity,2"] + ["1,2"] * 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError) as err:
                load_dataset(root)
        assert err.value.code == "feature-nonfinite"

    @pytest.mark.parametrize("case", ["plain", "empty-line-in-a-block", "crlf", "no-final-newline", "one-column"])
    def test_valid_files_never_reach_the_reference_reader(self, tmp_path, monkeypatch, case):
        path = tmp_path / "features.csv"
        path.write_text(FEATURE_CORPUS[case], encoding="utf-8", newline="")
        expected = data._read_features_by_line(path)
        monkeypatch.setattr(data, "_read_features_by_line", _reference_reader_reached)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert data._read_features(path).tobytes() == expected.tobytes()


def _reference_reader_reached(path):
    raise AssertionError(f"the reference reader re-read {path}")


def _split_into(monkeypatch, ranges: int) -> None:
    """Let a ``features.csv`` of any size be read in up to ``ranges`` byte ranges, one per process."""
    if ranges > 1 and not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        pytest.skip("reading in ranges needs os.fork and os.sched_getaffinity")
    monkeypatch.setattr(data, "_FEATURE_RANGE_MIN_BYTES", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(ranges)))
    assert data._range_count(10**6) == ranges


def _no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.bitwise
@pytest.mark.parametrize(
    "nodes,dim,ranges",
    [(600, 1433, 1), (512, 8, 1), (600, 1433, 2), (600, 1433, 3), (512, 8, 2), (512, 8, 3)],
    ids=[
        "three-wide-blocks",
        "two-full-blocks",
        "three-wide-blocks-in-2-ranges",
        "three-wide-blocks-in-3-ranges",
        "two-full-blocks-in-2-ranges",
        "two-full-blocks-in-3-ranges",
    ],
)
def test_multi_block_round_trip_keeps_every_feature_bit(tmp_path, monkeypatch, nodes, dim, ranges):
    assert nodes >= 2 * data._FEATURE_BLOCK_ROWS
    ds = generate_synthetic(SyntheticSpec(nodes=nodes, hyperedges=40, dim=dim), seed=3)
    save_dataset(ds, tmp_path / "d")
    _split_into(monkeypatch, ranges)
    assert len(data._feature_ranges(tmp_path / "d" / "features.csv")) == ranges
    monkeypatch.setattr(data, "_read_features_by_line", _reference_reader_reached)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loaded = load_dataset(tmp_path / "d")
    assert loaded.features.shape == (nodes, dim)
    assert loaded.features.tobytes() == ds.features.tobytes()
    assert T.frozen(loaded.features)
    _no_child_left()


# features.csv texts whose cut into two ranges falls next to what the name
# says; a worker reads the second range
CUT_CORPUS = {
    "blank-line-before-the-cut": "1,2\n\n3,4\n",
    "blank-line-after-the-cut": "1,2\n3,4\n\n5,6\n",
    "whitespace-only-line-in-the-worker": "1,2\n3,4\n  \n5,6\n",
    "only-blank-lines-in-the-worker": "1,2,3,4,5,6\n\n\n\n\n\n",
    "crlf-at-the-cut": "1,2\r\n3,4\r\n",
    "no-final-newline": "1,2\n3,4",
    "ragged-across-the-cut": "1,2\n3,4\n5\n",
    "ragged-in-the-worker": "1,2\n3,4\n5,6\n7\n",
    "bad-token-in-the-worker": "1,2\n3,4\n5,x\n",
    "underscore-digits-in-the-worker": "1,2\n3,4\n5_0,6\n",
    "only-blank-lines-before-a-rejected-worker": "\n\n\n\n\n\n1_0,2\n",
    "not-utf8-in-the-worker": b"1,2\n3,4\n\xff5,6\n",
}


@pytest.mark.bitwise
class TestFeatureRanges:
    """The reader in byte ranges, one per forked worker, against the reference reader."""

    @pytest.mark.parametrize("ranges", [2, 3])
    @pytest.mark.parametrize("case", sorted(FEATURE_CORPUS))
    def test_ranges_match_the_reference_reader(self, tmp_path, monkeypatch, case, ranges):
        path = tmp_path / "features.csv"
        _write_features(path, FEATURE_CORPUS[case])
        _split_into(monkeypatch, ranges)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _outcome(data._read_features, path) == _outcome(data._read_features_by_line, path)
        _no_child_left()

    @pytest.mark.parametrize("case", sorted(CUT_CORPUS))
    def test_a_cut_next_to_each_feature_of_the_grammar(self, tmp_path, monkeypatch, case):
        text = CUT_CORPUS[case]
        path = tmp_path / "features.csv"
        _write_features(path, text)
        _split_into(monkeypatch, 2)
        (_, cut), (start, stop) = data._feature_ranges(path)
        raw = path.read_bytes()
        assert cut == start and stop == len(raw) and raw[cut - 1 : cut] == b"\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _outcome(data._read_features, path) == _outcome(data._read_features_by_line, path)
        _no_child_left()

    def test_every_range_ends_just_after_a_line_end(self, tmp_path, monkeypatch):
        path = tmp_path / "features.csv"
        path.write_text(_rows(40, width=3, bad={5: "", 17: "  "}), encoding="utf-8")
        raw = path.read_bytes()
        for ranges in range(1, 12):
            _split_into(monkeypatch, ranges)
            cuts = data._feature_ranges(path)
            assert len(cuts) == ranges
            assert cuts[0][0] == 0 and cuts[-1][1] == len(raw)
            assert all(stop == start and raw[stop - 1 : stop] == b"\n" for (_, stop), (start, _) in zip(cuts, cuts[1:]))

    def test_a_range_that_would_be_empty_is_dropped(self, tmp_path, monkeypatch):
        path = tmp_path / "features.csv"
        path.write_text("1," + "2" * 100 + "\n3,4\n", encoding="utf-8")
        _split_into(monkeypatch, 3)
        assert data._feature_ranges(path) == [(0, 103), (103, 107)]

    @settings(max_examples=150, deadline=None)
    @given(text=st.text(alphabet="0123456789.,-+e_ \t\r\n#\"nai\u0661", max_size=40))
    def test_ranges_match_the_reference_reader_on_random_texts(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("fuzz") / "features.csv"
        path.write_text(text, encoding="utf-8", newline="")
        with pytest.MonkeyPatch.context() as monkeypatch:
            _split_into(monkeypatch, 3)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert _outcome(data._read_features, path) == _outcome(data._read_features_by_line, path)
        _no_child_left()


class _LyingHeader(struct.Struct):
    """A payload header that claims 8 bytes more than the worker writes."""

    def pack(self, width, nbytes):
        return super().pack(width, nbytes + 8)


def _eio(*args):
    raise OSError(errno.EIO, "Input/output error")


# how a worker fails: what it runs in place of its parse, and what the test patches
WORKER_FAILURES = {
    "exit-9": (lambda: os._exit(9), None),
    "sigkill": (lambda: os.kill(os.getpid(), signal.SIGKILL), None),
    "eio": (_eio, None),
    "short-payload": (None, ("_HEADER", _LyingHeader(data._HEADER.format))),
    "no-fork": (None, ("fork", _eio)),
    "no-pipe": (None, ("pipe", _eio)),
}


class TestFeatureWorkers:
    """A failed worker costs time only: the caller gives the bits or the error of one reader."""

    @pytest.mark.parametrize("failure", list(WORKER_FAILURES))
    def test_a_failed_worker_gives_the_serial_bits(self, tmp_path, monkeypatch, failure):
        ds = generate_synthetic(SyntheticSpec(nodes=600, hyperedges=40, dim=6), seed=4)
        save_dataset(ds, tmp_path / "d")
        _split_into(monkeypatch, 3)
        in_worker, patch = WORKER_FAILURES[failure]
        if patch is not None:
            name, value = patch
            monkeypatch.setattr(data if name == "_HEADER" else os, name, value)
        caller, parse, read_here = os.getpid(), data._range_blocks, []

        def blocks(path, start, stop):
            if os.getpid() == caller:
                read_here.append(start)
            elif in_worker is not None:
                in_worker()
            return parse(path, start, stop)

        monkeypatch.setattr(data, "_range_blocks", blocks)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = load_dataset(tmp_path / "d")
        assert len(read_here) == 3  # the caller read its own range and re-read both workers'
        assert loaded.features.tobytes() == ds.features.tobytes()
        assert T.frozen(loaded.features)
        _no_child_left()

    @pytest.mark.parametrize("ranges", [1, 3])
    def test_an_io_error_in_every_process_is_the_serial_data_error(self, tmp_path, monkeypatch, ranges):
        root = write_toy_dataset(tmp_path / "toy", feature_rows=[f"{v},1,2" for v in range(7)])
        _split_into(monkeypatch, ranges)
        monkeypatch.setattr(data, "_range_blocks", _eio)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError) as err:
                load_dataset(root)
        assert str(err.value) == f"file-read: cannot read {root / 'features.csv'}: [Errno 5] Input/output error"
        _no_child_left()

    def test_an_interrupted_read_kills_and_reaps_every_worker(self, tmp_path, monkeypatch):
        path = tmp_path / "features.csv"
        path.write_text(_rows(300), encoding="utf-8")
        _split_into(monkeypatch, 3)
        caller, parse = os.getpid(), data._range_blocks

        def blocks(path, start, stop):
            if os.getpid() != caller:
                signal.pause()  # a worker that never finishes
            if start == 0:
                raise KeyboardInterrupt
            return parse(path, start, stop)

        monkeypatch.setattr(data, "_range_blocks", blocks)
        with pytest.raises(KeyboardInterrupt):
            data._read_features(path)
        _no_child_left()

    def test_a_second_thread_reads_in_one_range(self, tmp_path, monkeypatch):
        path = tmp_path / "features.csv"
        path.write_text(_rows(300), encoding="utf-8")
        _split_into(monkeypatch, 3)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert data._feature_ranges(path) == [(0, path.stat().st_size)]
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()


class TestEncoding:
    @pytest.mark.parametrize(
        "fname,code",
        [
            ("features.csv", "feature-parse"),
            ("hyperedges.txt", "hyperedge-parse"),
            ("labels.csv", "label-parse"),
            ("splits.json", "split-parse"),
        ],
    )
    @pytest.mark.parametrize("where", ["first-byte", "later-line"])
    def test_bytes_that_are_not_utf8_raise_the_files_parse_code(self, tmp_path, fname, code, where):
        root = write_toy_dataset(tmp_path / "toy")
        raw = (root / fname).read_bytes()
        (root / fname).write_bytes(b"\xff" + raw if where == "first-byte" else raw + b"\n\xfe\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError) as err:
                load_dataset(root)
        assert err.value.code == code
        assert f"{fname} is not UTF-8" in str(err.value)

    def test_files_are_read_as_utf8_whatever_the_locale(self, tmp_path):
        # U+0661 ARABIC-INDIC DIGIT ONE is not ASCII, the encoding of the POSIX locale without UTF-8 mode
        root = write_toy_dataset(tmp_path / "toy", feature_rows=["\u0661,2,3"] + ["0.5,0.5,0.5"] * 6)
        env = {**os.environ, "LC_ALL": "POSIX", "PYTHONCOERCECLOCALE": "0", "PYTHONPATH": str(Path(data.__file__).parents[1])}
        script = "import sys; from hgmeta.data import load_dataset; print(load_dataset(sys.argv[1]).features[0].tolist())"
        done = subprocess.run(
            [sys.executable, "-X", "utf8=0", "-c", script, str(root)], env=env, capture_output=True, text=True, timeout=120
        )
        assert (done.returncode, done.stdout) == (0, "[1.0, 2.0, 3.0]\n"), done.stderr[-2000:]


class TestSynthetic:
    @pytest.mark.parametrize(
        "spec,shape",
        [
            (SyntheticSpec(nodes=10**20), r"features of shape \(100000000000000000000, 16\)"),
            (SyntheticSpec(classes=2**31, dim=2**31), r"class means of shape \(2147483648, 2147483648\)"),
        ],
        ids=["nodes", "classes"],
    )
    def test_arrays_past_the_address_space_are_refused_before_any_draw(self, spec, shape):
        with pytest.raises(ContractError, match=shape):
            generate_synthetic(spec, seed=0)

    def test_same_seed_is_identical(self):
        spec = SyntheticSpec(nodes=40, hyperedges=20)
        assert generate_synthetic(spec, seed=9) == generate_synthetic(spec, seed=9)

    def test_different_seeds_differ(self):
        spec = SyntheticSpec(nodes=40, hyperedges=20)
        assert generate_synthetic(spec, seed=1) != generate_synthetic(spec, seed=2)

    def test_full_homophily_gives_pure_hyperedges(self):
        ds = generate_synthetic(
            SyntheticSpec(nodes=60, classes=3, hyperedges=40, size_range=(2, 4), homophily=1.0),
            seed=3,
        )
        assert impure_hyperedge_fraction(ds) == 0.0

    def test_noiseless_features_separate_classes_perfectly(self):
        # nearest class-mean on clean features must hit 100% everywhere
        spec = SyntheticSpec(nodes=50, classes=4, hyperedges=20, dim=6, noise=0.0, homophily=1.0)
        ds = generate_synthetic(spec, seed=4)
        means = np.zeros((4, 6))
        means[np.arange(4), np.arange(4)] = spec.signal
        predicted = np.linalg.norm(ds.features[:, None, :] - means[None], axis=2).argmin(axis=1)
        assert np.array_equal(predicted, ds.labels)

    def test_structure_noise_increases_impurity(self):
        base = SyntheticSpec(nodes=60, classes=3, hyperedges=40, homophily=0.95)
        biased = SyntheticSpec(
            nodes=60, classes=3, hyperedges=40, homophily=0.95, bias="structure", bias_fraction=0.5
        )
        diffs = []
        for seed in range(10):
            clean = impure_hyperedge_fraction(generate_synthetic(base, seed))
            noisy = impure_hyperedge_fraction(generate_synthetic(biased, seed))
            diffs.append(noisy - clean)
        assert np.mean(diffs) > 0.1
        assert sum(d > 0 for d in diffs) >= 9

    def test_bias_leaves_base_structure_and_splits_alone(self):
        base = SyntheticSpec(nodes=30, hyperedges=10)
        feature_biased = SyntheticSpec(nodes=30, hyperedges=10, bias="feature", bias_fraction=0.4)
        a = generate_synthetic(base, seed=11)
        b = generate_synthetic(feature_biased, seed=11)
        assert a.graph == b.graph
        assert a.splits == b.splits
        assert np.array_equal(a.labels, b.labels)
        assert not np.array_equal(a.features, b.features)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 80))
    def test_untaken_draws_equal_draws_from_the_set_difference(self, seed, n):
        # the generator draws a position among the untaken nodes; it must equal a draw from the nodes themselves
        rng = np.random.default_rng(seed)
        taken = np.sort(rng.choice(n, size=int(rng.integers(0, n)), replace=False))
        remaining = np.setdiff1d(np.arange(n), taken)
        k = int(rng.integers(1, remaining.size + 1))
        positions, nodes = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
        expected = nodes.choice(remaining, size=k, replace=False)
        assert _untaken(positions.choice(remaining.size, size=k, replace=False), taken).tolist() == expected.tolist()
        assert int(_untaken(positions.choice(remaining.size), taken)) == int(nodes.choice(remaining))

    def test_infeasible_size_range_rejected(self):
        with pytest.raises(ContractError, match="size range"):
            generate_synthetic(SyntheticSpec(nodes=4, size_range=(5, 6)), seed=0)

    def test_feature_dim_smaller_than_classes_rejected(self):
        with pytest.raises(ContractError, match="dim"):
            generate_synthetic(SyntheticSpec(nodes=10, classes=4, dim=2), seed=0)


def test_loaded_and_generated_features_reject_in_place_writes(tmp_path):
    loaded = load_dataset(write_toy_dataset(tmp_path / "toy"))
    generated = generate_synthetic(SyntheticSpec(nodes=20, hyperedges=8), seed=0)
    for ds in (loaded, generated):
        assert T.frozen(ds.features)
        with pytest.raises(ValueError):
            ds.features.setflags(write=True)
        with pytest.raises(ValueError, match="read-only"):
            ds.features[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            ds.features *= 2.0


def test_validation_catches_split_overlap_in_constructed_dataset():
    g = Hypergraph(4, [[0, 1], [2, 3]])
    with pytest.raises(DataError):
        ds = Dataset(
            graph=g,
            features=np.zeros((4, 2)),
            labels=np.array([0, 1, 0, 1]),
            splits=Splits(train=(0, 1), meta=(1,), test=(2,)),
            num_classes=2,
        )
        save_dataset(ds, "/tmp/never-written")
