"""Vectorized row-wise trie kernels used by the frontier executor."""

import numpy as np
import pytest

import repro.trie.trie as trie_module
from repro.engines import EmptyHeadedEngine
from repro.storage.vertical import vertically_partition
from repro.trie.trie import Trie

from tests.integration.test_differential_sharded import (
    SHAPES,
    _community_graph,
)


@pytest.fixture()
def trie():
    rows = [
        (1, 10), (1, 20),
        (2, 10),
        (4, 7), (4, 8), (4, 9),
        (5, 100),
    ]
    cols = [np.array([r[i] for r in rows], dtype=np.uint32) for i in range(2)]
    return Trie.build(cols, ("x", "y"))


def test_packed_level_one_sorted(trie):
    packed = trie._packed_level(1)
    assert list(packed) == sorted(packed)


def test_descend_rows_mixed_hits(trie):
    # Parents: positions of x values [1, 2, 4, 4] = [0, 1, 2, 2].
    parents = np.array([0, 1, 2, 2], dtype=np.int64)
    values = np.array([20, 10, 8, 99], dtype=np.uint32)
    found, child_pos = trie.descend_rows(0, parents, values)
    assert list(found) == [True, True, True, False]
    # Verify the found children point at the right level-1 values.
    level1 = trie.level_values(1)
    assert [int(level1[p]) for p, f in zip(child_pos, found) if f] == [
        20, 10, 8,
    ]


def test_probe_rows_constant(trie):
    parents = np.array([0, 1, 2], dtype=np.int64)  # x = 1, 2, 4
    found, _ = trie.probe_rows(0, parents, 10)
    assert list(found) == [True, True, False]


def test_child_counts(trie):
    parents = np.array([0, 1, 2, 3], dtype=np.int64)
    assert list(trie.child_counts(0, parents)) == [2, 1, 3, 1]


def test_expand_children(trie):
    parents = np.array([2, 0], dtype=np.int64)  # x = 4 then x = 1
    counts, values, positions = trie.expand_children(0, parents)
    assert list(counts) == [3, 2]
    assert list(values) == [7, 8, 9, 10, 20]
    level1 = trie.level_values(1)
    assert [int(level1[p]) for p in positions] == [7, 8, 9, 10, 20]


def test_root_positions(trie):
    values = np.array([2, 5], dtype=np.uint32)
    assert list(trie.root_positions(values)) == [1, 3]


def test_three_level_descend_rows():
    rows = [(1, 1, 5), (1, 2, 6), (2, 1, 7)]
    cols = [np.array([r[i] for r in rows], dtype=np.uint32) for i in range(3)]
    t = Trie.build(cols, ("a", "b", "c"))
    # Descend a=1 (pos 0), then b=2: level-1 position should be 1.
    found, pos = t.descend_rows(
        0, np.array([0], dtype=np.int64), np.array([2], dtype=np.uint32)
    )
    assert found[0]
    # Now c under (1, 2) must be [6].
    counts, values, _ = t.expand_children(1, pos)
    assert list(values) == [6]


# ---------------------------------------------------------------------------
# Filtered per-row probes (clock-free guards)
# ---------------------------------------------------------------------------
def test_triangle_probe_searches_only_filter_survivors(monkeypatch):
    """A triangle's per-row probe outnumbers its level's entries, so the
    level gets a bytemap and the binary search sees fewer keys than the
    probe was handed (the misses the bytemap dropped)."""
    searched = []
    original_search = np.searchsorted

    def search_spy(array, keys, *args, **kwargs):
        searched.append((array, np.size(keys)))
        return original_search(array, keys, *args, **kwargs)

    probes = []
    original_descend = Trie.descend_rows

    def descend_spy(self, parent_level, parent_idx, values):
        first = len(searched)
        result = original_descend(self, parent_level, parent_idx, values)
        packed = self._packed_level(parent_level + 1)
        keys = sum(n for array, n in searched[first:] if array is packed)
        probes.append((self, parent_level + 1, len(values), keys))
        return result

    monkeypatch.setattr(np, "searchsorted", search_spy)
    monkeypatch.setattr(Trie, "descend_rows", descend_spy)
    engine = EmptyHeadedEngine(vertically_partition(_community_graph(11)))
    assert engine.execute_sparql(SHAPES["triangle"]).num_rows > 0
    filtered = [
        (handed, keys)
        for trie, level, handed, keys in probes
        if level in trie._filter_cache
    ]
    assert filtered, probes
    assert all(keys < handed for handed, keys in filtered), filtered


def test_paper_queries_on_lubm_build_no_filter(dataset, queries, monkeypatch):
    """No probe of the 12 paper queries on LUBM(1) outnumbers its
    level's entries under EmptyHeaded's plans (selections pushed down,
    attributes ordered), so none builds a bytemap, fresh or warm."""
    builds = []
    original = trie_module.build_probe_filter

    def build_spy(keys):
        builds.append(keys.shape[0])
        return original(keys)

    monkeypatch.setattr(trie_module, "build_probe_filter", build_spy)
    for query_id, text in queries.items():
        engine = EmptyHeadedEngine(dataset.store)
        for _ in range(2):
            engine.execute_sparql(text)
            assert builds == [], query_id
