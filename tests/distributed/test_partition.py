"""Subject hashing and the split of encoded pairs by home shard."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.distributed.partition import (
    shard_of,
    split_pairs,
    subject_hash,
    subject_hashes,
)
from repro.nputil import unpack_pairs
from repro.storage.vertical import group_pairs, vertically_partition

EX = "http://ex/"


def _graph(n=40):
    return [
        (
            f"<{EX}s{i % 11}>",
            f"<{EX}p{i % 3}>",
            f"<{EX}o{i % 7}>" if i % 2 else f'"lit{i}"',
        )
        for i in range(n)
    ]


def test_subject_hash_is_stable_fnv1a():
    # Pinned FNV-1a 64-bit values: the partitioning must never drift
    # across processes or releases (Python's own hash() is salted).
    assert subject_hash("a") == 0xAF63DC4C8601EC8C
    assert subject_hash("") == 0xCBF29CE484222325
    assert subject_hash("a") != subject_hash("b")


# Every code point but lone surrogates, which no UTF-8 term can hold.
@given(
    st.lists(
        st.text(alphabet=st.characters(exclude_categories=["Cs"])),
        max_size=12,
    )
)
@example([])
@example([""])
@example(["", "a", "", "ab"])
@example(["Ünïcödé", "日本語", "a"])
@example(["\U0001f600", "x\U00010348y", "\U0010ffff", ""])
@settings(max_examples=200)
def test_subject_hashes_match_scalar_hash(terms):
    hashes = subject_hashes(terms)
    assert hashes.dtype == np.uint64
    assert hashes.shape == (len(terms),)
    assert [int(h) for h in hashes] == [subject_hash(t) for t in terms]


def test_shard_of_is_in_range_and_deterministic():
    for subject in {s for s, _, _ in _graph()}:
        index = shard_of(subject, 3)
        assert 0 <= index < 3
        assert shard_of(subject, 3) == index
    assert shard_of("anything", 1) == 0


def test_split_pairs_keeps_subjects_whole():
    graph = _graph()
    dictionary = vertically_partition(list(graph)).dictionary
    pairs, _ = group_pairs(dictionary, graph, {}, encode=False)
    parts = split_pairs(dictionary, pairs, 3)
    assert len(parts) == 3
    for name, keys in pairs.items():
        mine = [part[name] for part in parts if name in part]
        assert all(piece.size for piece in mine)
        assert sorted(np.concatenate(mine).tolist()) == sorted(keys.tolist())
    for index, part in enumerate(parts):
        for keys in part.values():
            subjects, _ = unpack_pairs(keys)
            for subject in dictionary.decode_many(subjects):
                assert shard_of(subject, 3) == index
    assert split_pairs(dictionary, {}, 2) == [{}, {}]
