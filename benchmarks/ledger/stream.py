"""Seeded input generators: the serving request stream, the cyclic
graph and the update batches.

Everything the program under test receives is derived here from
``--seed``; the same seed gives byte-identical inputs (``stream_digest``
proves it). Inputs come in *slices* — fixed-size groups with an exact
op-type mix, each drawn from its own ``Random(f"{seed}:{tag}:{index}")``
— so any prefix of a stream can be regenerated without the rest, and a
run measured for a time window sees the same mix as a run of fixed
length.
"""

from __future__ import annotations

import functools
import hashlib
import random
from dataclasses import dataclass, field
from urllib.parse import quote

UB = "http://www.lehigh.edu/~zhp2/2004/0401/univ-bench.owl#"
RDF_TYPE = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"
PREFIXES = (
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> "
    f"PREFIX ub: <{UB}> "
)

#: Graduate students advised by ``$prof`` — the point/hot read and the
#: update workload's probe.
ADVISOR_TEMPLATE = (
    PREFIXES
    + "SELECT ?x WHERE { ?x ub:advisor $prof . ?x rdf:type ub:GraduateStudent }"
)
BULK_TEMPLATE = (
    PREFIXES
    + "SELECT ?x ?e WHERE { ?x ub:memberOf $dept . ?x ub:emailAddress ?e }"
)
TOPK_TEMPLATE = (
    PREFIXES
    + "SELECT ?x ?c WHERE { ?x ub:memberOf $dept . ?x ub:takesCourse ?c } LIMIT 10"
)

#: Serving mix per slice of 100 requests: 6 point : 2 hot : 1 bulk : 1 topk.
SERVING_SLICE = (("point", 60), ("hot", 20), ("bulk", 10), ("topk", 10))
SERVING_TYPES = tuple(name for name, _ in SERVING_SLICE)
HOT_SET_SIZE = 32


@dataclass(frozen=True)
class Request:
    """One serving request, as the driver holds it."""

    op_type: str
    text: str
    parameters: tuple[tuple[str, str], ...]
    stream: bool = False
    #: The pre-encoded HTTP request target (what the server sees).
    target: bytes = field(default=b"", compare=False)

    @property
    def key(self) -> tuple:
        return (self.text, self.parameters, self.stream)


_quote = functools.cache(quote)  # three templates, quoted once each


def _request(op_type: str, text: str, name: str, value: str, stream=False):
    query = f"query={_quote(text)}&{quote('$' + name)}={quote(value)}&format=json"
    if stream:
        query += "&stream=true"
    return Request(
        op_type, text, ((name, value),), stream, f"/sparql?{query}".encode()
    )


class ServingStream:
    """The request stream shared by the three ``serve_*`` workloads."""

    def __init__(
        self, seed: int, professors: list[str], departments: list[str]
    ) -> None:
        self.seed = seed
        self.professors = professors
        self.departments = departments
        self.hot = random.Random(f"{seed}:hot").sample(
            professors, min(HOT_SET_SIZE, len(professors))
        )

    def slice(self, index: int) -> list[Request]:
        rng = random.Random(f"{self.seed}:serve:{index}")
        requests: list[Request] = []
        for op_type, count in SERVING_SLICE:
            for _ in range(count):
                if op_type == "point":
                    prof = rng.choice(self.professors)
                    requests.append(
                        _request("point", ADVISOR_TEMPLATE, "prof", prof)
                    )
                elif op_type == "hot":
                    prof = rng.choice(self.hot)
                    requests.append(
                        _request("hot", ADVISOR_TEMPLATE, "prof", prof)
                    )
                elif op_type == "bulk":
                    dept = rng.choice(self.departments)
                    requests.append(
                        _request("bulk", BULK_TEMPLATE, "dept", dept)
                    )
                else:
                    dept = rng.choice(self.departments)
                    requests.append(
                        _request("topk", TOPK_TEMPLATE, "dept", dept, True)
                    )
        rng.shuffle(requests)
        return requests


def digest_of(parts) -> str:
    """sha256 over an iterable of byte strings (length-framed)."""
    sha = hashlib.sha256()
    for part in parts:
        sha.update(len(part).to_bytes(8, "big"))
        sha.update(part)
    return sha.hexdigest()


# ----------------------------------------------------------------------
# Cyclic graph (the "Join Processing for Graph Patterns" probes)
# ----------------------------------------------------------------------
EDGE = "<http://ledger.bench/edge>"
_E = EDGE
GRAPH_PATTERNS = {
    "triangle": (
        "SELECT ?a ?b ?c WHERE { "
        f"?a {_E} ?b . ?b {_E} ?c . ?c {_E} ?a }}"
    ),
    "cycle4": (
        "SELECT ?a ?b ?c ?d WHERE { "
        f"?a {_E} ?b . ?b {_E} ?c . ?c {_E} ?d . ?d {_E} ?a }}"
    ),
    "clique4": (
        "SELECT ?a ?b ?c ?d WHERE { "
        f"?a {_E} ?b . ?a {_E} ?c . ?a {_E} ?d . "
        f"?b {_E} ?c . ?b {_E} ?d . ?c {_E} ?d }}"
    ),
    "lollipop": (
        "SELECT ?a ?b ?c ?d WHERE { "
        f"?a {_E} ?b . ?b {_E} ?c . ?c {_E} ?a . ?a {_E} ?d }}"
    ),
}


def cyclic_graph(
    seed: int, nodes: int, edges: int, community: int
) -> list[tuple[str, str, str]]:
    """A random directed graph plus a planted dense community.

    The community is a circulant digraph (member ``i`` points at the
    next ``community // 2`` members), so every pattern has thousands of
    matches; the sparse random background makes the join kernel
    intersect many short lists. The *shape* is the same for every seed
    and the seed relabels the nodes: the planner's order choice hangs
    on the degree statistics, and a shape drawn per seed flips it
    between orders whose cost differs severalfold — a property of the
    planner worth a probe of its own, but noise in a kernel benchmark.
    """
    shape = random.Random("ledger:graph-shape")
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < edges:
        a, b = shape.randrange(nodes), shape.randrange(nodes)
        if a != b:
            pairs.add((a, b))
    members = shape.sample(range(nodes), community)
    for i, a in enumerate(members):
        for step in range(1, community // 2 + 1):
            pairs.add((a, members[(i + step) % community]))
    label = list(range(nodes))
    random.Random(f"{seed}:graph").shuffle(label)
    node = "<http://ledger.bench/n{}>".format
    return [
        (node(a), EDGE, node(b))
        for a, b in sorted((label[a], label[b]) for a, b in pairs)
    ]


# ----------------------------------------------------------------------
# Update batches
# ----------------------------------------------------------------------
GHOSTS_PER_BATCH = 8
#: A batch is removed this many cycles after it was added.
UPDATE_WINDOW = 8
READS_PER_CYCLE = 6


@dataclass(frozen=True)
class UpdateCycle:
    """One cycle's inputs: a ghost batch, its professor, steady reads."""

    professor: str
    ghosts: tuple[str, ...]
    batch: tuple[tuple[str, str, str], ...]
    steady: tuple[str, ...]


class UpdateStream:
    """Cycle inputs for ``update_mix``: 8 ghost graduate students of one
    professor per cycle (``type`` / ``advisor`` / ``headOf`` — 24
    triples) plus the professors of the steady reads.

    ``headOf`` is LUBM's smallest table (one row per department), so
    the 8-batch window pushes it over the store's 25 % delta threshold
    every few cycles and compaction stays part of the mix; a larger
    table would absorb the window without ever compacting.
    """

    def __init__(
        self, seed: int, professors: list[str], departments: list[str]
    ) -> None:
        self.seed = seed
        self.departments = departments
        self.professors = professors
        # Touched professors walk one seeded permutation, so none
        # repeats inside the removal window and the first read after a
        # commit sees exactly its own batch's ghosts.
        self._order = list(professors)
        random.Random(f"{seed}:update").shuffle(self._order)

    def cycle(self, index: int) -> UpdateCycle:
        rng = random.Random(f"{self.seed}:update:{index}")
        professor = self._order[index % len(self._order)]
        ghosts = tuple(
            f"<http://ledger.bench/ghost/{self.seed}/{index}/{j}>"
            for j in range(GHOSTS_PER_BATCH)
        )
        batch: list[tuple[str, str, str]] = []
        for ghost in ghosts:
            batch.append((ghost, RDF_TYPE, f"<{UB}GraduateStudent>"))
            batch.append((ghost, f"<{UB}advisor>", professor))
            batch.append(
                (ghost, f"<{UB}headOf>", rng.choice(self.departments))
            )
        steady = tuple(
            rng.choice(self.professors) for _ in range(READS_PER_CYCLE)
        )
        return UpdateCycle(professor, ghosts, tuple(batch), steady)
