"""The public surface: what ``hgmeta`` exports, and the README's import of it."""

from __future__ import annotations

import re
from pathlib import Path
from types import SimpleNamespace

import pytest

import hgmeta
from hgmeta import data, hypergraph, model, mwn, partition

README = Path(__file__).resolve().parents[1] / "README.md"
# a dataclass field without a default is no class attribute, so the fields stand in for the class
FORWARD_OUTPUT_FIELDS = SimpleNamespace(**model.ForwardOutput.__dataclass_fields__)


def test_every_exported_name_resolves():
    assert [name for name in hgmeta.__all__ if not hasattr(hgmeta, name)] == []


def test_the_readme_library_import_block_runs():
    section = README.read_text(encoding="utf-8").split("## Library entry points\n", 1)[1]
    block = re.match(r"\s*```python\n(.*?)```", section, re.S).group(1)
    assert block.startswith("from hgmeta import (")
    exec(compile(block, str(README), "exec"), {})


@pytest.mark.parametrize("name", ["ce_loss", "overlapness", "overlap_vector", "assign_level"])
def test_removed_exports_are_gone(name):
    assert not hasattr(hgmeta, name)


@pytest.mark.parametrize(
    "owner,name",
    [
        (model, "ce_loss"),
        (model, "aggregate_hyperedges"),
        (model, "fs_coefficients"),
        (model, "node_update"),
        (model, "_forward_branches"),
        (mwn, "register_mwn"),
        (hypergraph, "overlapness"),
        (hypergraph, "overlap_vector"),
        (partition, "assign_level"),
        (hypergraph.Hypergraph, "node_degree"),
        (hypergraph.Hypergraph, "hyperedge_avg_degree"),
        (hypergraph.Hypergraph, "egonet"),
        (hypergraph.Hypergraph, "nnz"),
        (hypergraph.OverlapVector, "__len__"),
        pytest.param(FORWARD_OUTPUT_FIELDS, "logits_ss", id="ForwardOutput-logits_ss"),
        pytest.param(FORWARD_OUTPUT_FIELDS, "logits_fs", id="ForwardOutput-logits_fs"),
        (data, "impure_hyperedge_fraction"),
    ],
)
def test_removed_module_functions_are_gone(owner, name):
    assert not hasattr(owner, name)
