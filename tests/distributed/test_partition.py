"""Subject hashing, routing and the update pre-encode order."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.distributed.partition import (
    pre_encode_add,
    route_triples,
    shard_of,
    subject_hash,
    subject_hashes,
)
from repro.storage.vertical import vertically_partition

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


def test_route_triples_keeps_subjects_whole():
    graph = _graph()
    buckets = route_triples(graph, 3)
    assert sum(len(b) for b in buckets) == len(graph)
    owner: dict[str, int] = {}
    for index, bucket in enumerate(buckets):
        for s, _, _ in bucket:
            assert owner.setdefault(s, index) == index
    # Routing preserves the within-bucket stream order.
    for index, bucket in enumerate(buckets):
        assert bucket == [
            t for t in graph if shard_of(t[0], 3) == index
        ]


def test_pre_encode_add_matches_single_store_update_order():
    graph = _graph()
    single = vertically_partition(list(graph))
    dictionary = vertically_partition(list(graph)).dictionary

    batch = [
        (f"<{EX}new0>", f"<{EX}freshPred>", f"<{EX}new1>"),
        (f"<{EX}s1>", f"<{EX}p0>", '"added"'),
        (f"<{EX}new2>", f"<{EX}freshPred>", f"<{EX}new0>"),
    ]
    known = frozenset(single.tables)
    single.add_triples(list(batch))
    pre_encode_add(dictionary, list(batch), known)
    assert list(dictionary.items()) == list(single.dictionary.items())


def test_pre_encode_add_skips_predicates_for_known_tables():
    """Two IRIs sharing a local name: when the table already exists the
    single store never encodes the second IRI — the pre-encode must
    reproduce that exactly (known_tables is the cross-shard union)."""
    graph = [(f"<{EX}s0>", f"<{EX}a/knows>", f"<{EX}s1>")]
    single = vertically_partition(list(graph))
    dictionary = vertically_partition(list(graph)).dictionary

    batch = [(f"<{EX}s2>", f"<{EX}b/knows>", f"<{EX}s0>")]
    known = frozenset(single.tables)
    single.add_triples(list(batch))
    pre_encode_add(dictionary, list(batch), known)
    assert list(dictionary.items()) == list(single.dictionary.items())
