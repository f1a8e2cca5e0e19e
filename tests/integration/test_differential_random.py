"""Randomized differential harness: random graphs, random queries,
five engines plus an independent reference evaluator must all agree.

Each seed deterministically generates a small RDF graph and a batch of
queries mixing UNION, OPTIONAL, variable predicates, FILTER (comparisons
plus the ``bound()``/``regex()`` functions), ORDER BY, and
LIMIT/OFFSET. The generator emits each query twice: as SPARQL text
(fed to the engines' full parse->translate->bind->execute pipeline) and
as a structured spec (fed to a naive bindings-based evaluator written
directly against the subset's documented semantics — matching by
lexical identity, numeric literals by candidate forms, unbound
comparisons as type errors, left-outer OPTIONAL with in-group filters,
sort-dedup UNION). Every query must return identical rows on all five
engines (including row order — engine output is canonically sorted) and
match the reference evaluator's row set. Any disagreement fails with
the offending seed + query text, so failures reproduce exactly.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import OptimizationConfig
from repro.engines import ALL_ENGINES
from repro.engines.emptyheaded import EmptyHeadedEngine
from repro.rdf.vocabulary import XSD_INTEGER
from repro.storage.vertical import vertically_partition

EX = "http://ex/"


# ---------------------------------------------------------------------------
# Random graph generation
# ---------------------------------------------------------------------------
def _make_graph(rng: random.Random) -> list[tuple[str, str, str]]:
    subjects = [f"<{EX}s{i}>" for i in range(rng.randint(4, 7))]
    predicates = [f"<{EX}p{i}>" for i in range(rng.randint(3, 5))]
    literals = ['"alpha"', '"beta"', '"gamma"', '"x y"@en']
    numbers = [
        '"3"', f'"3"^^<{XSD_INTEGER}>', '"7"', f'"5"^^<{XSD_INTEGER}>',
        '"4.5"',
    ]
    objects = subjects + literals + numbers
    triples = set()
    for _ in range(rng.randint(18, 45)):
        triples.add(
            (
                rng.choice(subjects),
                rng.choice(predicates),
                rng.choice(objects),
            )
        )
    return sorted(triples)


# ---------------------------------------------------------------------------
# Random query generation (text + structured spec)
#
# A spec is:
#   {"branches": [branch...], "filters": [(lhs, op, rhs)...],
#    "projection": [var...], "order": (var, desc) | None,
#    "limit": int | None, "offset": int}
# and a branch is:
#   {"patterns": [(s, p, o)...],
#    "optionals": [{"pattern": (s, p, o), "filters": [...]}, ...]}
# where every token is SPARQL surface syntax (?var, <iri>, "lit", 42).
# ---------------------------------------------------------------------------
class _QueryGen:
    def __init__(self, rng: random.Random, graph) -> None:
        self.rng = rng
        self.subjects = sorted({s for s, _, _ in graph})
        self.predicates = sorted({p for _, p, _ in graph})
        self.literals = sorted(
            {o for _, _, o in graph if not o.startswith("<")}
        )

    def _branch(self, node_vars: list[str]) -> dict:
        """One conjunctive branch: patterns chained over node variables."""
        rng = self.rng
        patterns = []
        introduced = [node_vars[0]]
        for i in range(rng.randint(1, 3)):
            subject = (
                introduced[0]
                if i == 0
                else rng.choice(introduced + self.subjects[:1])
            )
            if rng.random() < 0.25:
                predicate = rng.choice(["?q0", "?q1"])
            else:
                predicate = rng.choice(self.predicates)
            roll = rng.random()
            if roll < 0.45 and len(introduced) < len(node_vars):
                obj = node_vars[len(introduced)]
                introduced.append(obj)
            elif roll < 0.6:
                obj = rng.choice(self.subjects)
            elif roll < 0.8 and self.literals:
                obj = rng.choice(self.literals)
            else:
                obj = rng.choice(["3", "7", "5"])
            patterns.append((subject, predicate, obj))
        optionals = []
        if rng.random() < 0.5:
            opt_var = f"?o{rng.randint(0, 1)}"
            predicate = (
                "?q2" if rng.random() < 0.2 else rng.choice(self.predicates)
            )
            filters = []
            if rng.random() < 0.3:
                filters.append((opt_var, ">", str(rng.randint(1, 4))))
            optionals.append(
                {
                    "pattern": (introduced[0], predicate, opt_var),
                    "filters": filters,
                }
            )
            if rng.random() < 0.4:
                # A second OPTIONAL sharing ?oN without a required
                # binding: SPARQL compatibility-join semantics (a row
                # where the first OPTIONAL left ?oN unbound is
                # compatible with, and adopts, any binding here).
                optionals.append(
                    {
                        "pattern": (
                            opt_var,
                            rng.choice(self.predicates),
                            "?o2",
                        ),
                        "filters": [],
                    }
                )
        return {"patterns": patterns, "optionals": optionals}

    #: Safe regex patterns over the generated literal vocabulary
    #: (alpha/beta/gamma/"x y"/numbers), with optional "i" flag.
    _REGEX_PATTERNS = (
        ("al", ""),
        ("BET", "i"),
        ("gam", ""),
        ("^a", ""),
        ("a$", ""),
        ("3", ""),
        ("x y", ""),
    )

    def _comparison(self, variables: list[str]) -> tuple:
        """One random filter leaf over ``variables``: a comparison, a
        ``bound()`` test, a ``regex()`` match, a ``str()``/``lang()``
        operand comparison, or a ``!``-negated leaf."""
        rng = self.rng
        var = rng.choice(variables)
        kind = rng.random()
        if kind < 0.12:
            return ("bound", var)
        if kind < 0.24:
            pattern, flags = rng.choice(self._REGEX_PATTERNS)
            return ("regex", var, pattern, flags)
        if kind < 0.32:
            content = rng.choice(["alpha", "3", "http://ex/s0", "x y"])
            return ("str", var, rng.choice(("=", "!=")), content)
        if kind < 0.4:
            return ("lang", var, "=", rng.choice(["en", ""]))
        if kind < 0.48:
            return ("not", self._comparison(variables))
        if kind < 0.65:
            return (var, ">", str(rng.randint(1, 6)))
        if kind < 0.85:
            return (var, "!=", rng.choice(self.subjects))
        if self.literals:
            return (var, "=", rng.choice(self.literals))
        return (var, ">", str(rng.randint(1, 6)))

    @staticmethod
    def _branch_vars(branch: dict) -> set[str]:
        out = set()
        for pattern in branch["patterns"]:
            out.update(t for t in pattern if t.startswith("?"))
        for optional in branch["optionals"]:
            out.update(
                t for t in optional["pattern"] if t.startswith("?")
            )
        return out

    def spec(self) -> dict:
        rng = self.rng
        node_vars = ["?v0", "?v1", "?v2"]
        branches = [self._branch(node_vars)]
        if rng.random() < 0.5:
            other = (
                node_vars if rng.random() < 0.6 else ["?w0", "?w1", "?w2"]
            )
            branches.append(self._branch(other))

        variables = sorted(
            set().union(*(self._branch_vars(b) for b in branches))
        )
        filters = []
        if rng.random() < 0.4:
            comparison = self._comparison(variables)
            if rng.random() < 0.45:
                # Boolean connectives: two comparisons under && or ||.
                connective = "or" if rng.random() < 0.6 else "and"
                filters.append(
                    (connective, comparison, self._comparison(variables))
                )
            else:
                filters.append(comparison)

        count = rng.randint(1, min(3, len(variables)))
        projection = sorted(rng.sample(variables, count))
        order = None
        limit = None
        offset = 0
        if rng.random() < 0.4:
            order = (rng.choice(projection), rng.random() < 0.3)
            if rng.random() < 0.6:
                limit = rng.randint(1, 5)
                if rng.random() < 0.4:
                    offset = rng.randint(0, 3)
        return {
            "branches": branches,
            "filters": filters,
            "projection": projection,
            "order": order,
            "limit": limit,
            "offset": offset,
        }

    @classmethod
    def leaf_text(cls, spec_filter: tuple) -> str:
        """SPARQL surface syntax of one filter leaf."""
        if spec_filter[0] == "bound":
            return f"bound({spec_filter[1]})"
        if spec_filter[0] == "regex":
            _, var, pattern, flags = spec_filter
            if flags:
                return f'regex({var}, "{pattern}", "{flags}")'
            return f'regex({var}, "{pattern}")'
        if spec_filter[0] in ("str", "lang"):
            fn, var, op, content = spec_filter
            return f'{fn}({var}) {op} "{content}"'
        if spec_filter[0] == "not":
            return f"!({cls.leaf_text(spec_filter[1])})"
        lhs, op, rhs = spec_filter
        return f"{lhs} {op} {rhs}"

    @classmethod
    def filter_text(cls, spec_filter: tuple) -> str:
        """SPARQL surface syntax of one (possibly connective) filter."""
        if spec_filter[0] in ("or", "and"):
            symbol = "||" if spec_filter[0] == "or" else "&&"
            return (
                f"{cls.leaf_text(spec_filter[1])} {symbol} "
                f"{cls.leaf_text(spec_filter[2])}"
            )
        return cls.leaf_text(spec_filter)

    @classmethod
    def text(cls, spec: dict) -> str:
        def branch_text(branch: dict) -> str:
            parts = [" . ".join(" ".join(p) for p in branch["patterns"])]
            for optional in branch["optionals"]:
                inner = " ".join(optional["pattern"])
                for lhs, op, rhs in optional["filters"]:
                    inner += f" . FILTER({lhs} {op} {rhs})"
                parts.append(f"OPTIONAL {{ {inner} }}")
            return " ".join(parts)

        if len(spec["branches"]) == 2:
            first, second = spec["branches"]
            body = (
                f"{{ {branch_text(first)} }} UNION "
                f"{{ {branch_text(second)} }}"
            )
        else:
            body = branch_text(spec["branches"][0])
        for spec_filter in spec["filters"]:
            body += f" FILTER({cls.filter_text(spec_filter)})"
        text = (
            f"SELECT {' '.join(spec['projection'])} WHERE {{ {body} }}"
        )
        if spec["order"] is not None:
            key, descending = spec["order"]
            text += (
                f" ORDER BY DESC({key})" if descending
                else f" ORDER BY {key}"
            )
        if spec["limit"] is not None:
            text += f" LIMIT {spec['limit']}"
        if spec["offset"]:
            text += f" OFFSET {spec['offset']}"
        return text


# ---------------------------------------------------------------------------
# Independent reference evaluator (naive, bindings-based)
# ---------------------------------------------------------------------------
def _numeric_content(lexical: str):
    if lexical.startswith('"'):
        content = lexical[1 : lexical.rfind('"')]
        try:
            return float(content)
        except ValueError:
            return None
    return None


def _term_forms(token: str) -> list[str]:
    """Stored lexical forms a concrete query term matches."""
    if token.startswith("<") or token.startswith('"'):
        return [token]
    datatype = "decimal" if "." in token else "integer"
    return [
        f'"{token}"',
        f'"{token}"^^<http://www.w3.org/2001/XMLSchema#{datatype}>',
    ]


def _match(pattern, triple, binding):
    out = dict(binding)
    for token, value in zip(pattern, triple):
        if token.startswith("?"):
            if out.get(token, value) != value:
                return None
            out[token] = value
        elif value not in _term_forms(token):
            return None
    return out


#: Tri-state filter results: True, False, or _ERROR (SPARQL type error).
_ERROR = object()


def _filter_true(binding, lhs, op, rhs):
    """One comparison under the subset's semantics (tri-state)."""
    value = binding.get(lhs)
    if value is None:
        return _ERROR
    if rhs.startswith("?"):
        other = binding.get(rhs)
        if other is None:
            return _ERROR
        lnum, rnum = _numeric_content(value), _numeric_content(other)
        if op == "=":
            if lnum is not None and rnum is not None:
                return lnum == rnum
            one_numeric = (lnum is None) != (rnum is None)
            if one_numeric:
                non_numeric = value if lnum is None else other
                if not non_numeric.startswith("<"):
                    return _ERROR  # number vs non-numeric literal
            return value == other
        # op == "!=": a numeric literal against a non-numeric *literal*
        # is a type error (excluded); against an IRI, definitively
        # unequal (kept).
        one_numeric = (lnum is None) != (rnum is None)
        if one_numeric:
            non_numeric = value if lnum is None else other
            return True if non_numeric.startswith("<") else _ERROR
        if lnum is not None:
            return lnum != rnum
        return value != other
    if rhs.startswith("<") or rhs.startswith('"'):
        return (value == rhs) if op == "=" else (value != rhs)
    number = float(rhs)
    num = _numeric_content(value)
    if op == ">":
        return num > number if num is not None else _ERROR
    if op == "=":
        return num == number if num is not None else _ERROR
    if num is not None:
        return num != number
    # IRI != number: kept; non-numeric literal vs number: type error.
    return True if value.startswith("<") else _ERROR


def _str_lang_value(fn: str, value: str):
    """The content ``str()``/``lang()`` maps a bound term to."""
    if fn == "str":
        if value.startswith("<"):
            return value[1:-1]
        return value[1 : value.rfind('"')]
    if not value.startswith('"'):
        return _ERROR  # lang() of an IRI: type error
    rest = value[value.rfind('"') + 1 :]
    return rest[1:].lower() if rest.startswith("@") else ""


def _filter_holds(binding, spec_filter: tuple):
    """One (possibly connective) filter, under SPARQL's three-valued
    logic: returns True, False, or _ERROR."""
    if spec_filter[0] == "or":
        arms = [
            _filter_holds(binding, spec_filter[1]),
            _filter_holds(binding, spec_filter[2]),
        ]
        if True in arms:
            return True
        return False if arms == [False, False] else _ERROR
    if spec_filter[0] == "and":
        arms = [
            _filter_holds(binding, spec_filter[1]),
            _filter_holds(binding, spec_filter[2]),
        ]
        if False in arms:
            return False
        return True if arms == [True, True] else _ERROR
    if spec_filter[0] == "not":
        inner = _filter_holds(binding, spec_filter[1])
        return _ERROR if inner is _ERROR else not inner
    if spec_filter[0] == "bound":
        return binding.get(spec_filter[1]) is not None
    if spec_filter[0] == "regex":
        import re as _re

        _, var, pattern, flags = spec_filter
        value = binding.get(var)
        if value is None or not value.startswith('"'):
            return _ERROR  # unbound or non-literal: type error
        content = value[1 : value.rfind('"')]
        return (
            _re.search(
                pattern, content, _re.IGNORECASE if "i" in flags else 0
            )
            is not None
        )
    if spec_filter[0] in ("str", "lang"):
        fn, var, op, expected = spec_filter
        value = binding.get(var)
        if value is None:
            return _ERROR
        mapped = _str_lang_value(fn, value)
        if mapped is _ERROR:
            return _ERROR
        # The mapped content compares like a literal with that content:
        # numeric content by value, otherwise by string identity.
        mnum, enum = _numeric_content(f'"{mapped}"'), _numeric_content(
            f'"{expected}"'
        )
        if mnum is not None and enum is not None:
            equal = mnum == enum
        elif (mnum is None) != (enum is None):
            return _ERROR  # number vs non-numeric literal: type error
        else:
            equal = mapped == expected
        return equal if op == "=" else not equal
    return _filter_true(binding, *spec_filter)


def _eval_branch(graph, branch: dict):
    solutions = [dict()]
    for pattern in branch["patterns"]:
        solutions = [
            extended
            for binding in solutions
            for triple in graph
            if (extended := _match(pattern, triple, binding)) is not None
        ]
    for optional in branch["optionals"]:
        extended_solutions = []
        for binding in solutions:
            matches = []
            for triple in graph:
                extended = _match(optional["pattern"], triple, binding)
                if extended is not None and all(
                    _filter_true(extended, *f) is True
                    for f in optional["filters"]
                ):
                    matches.append(extended)
            extended_solutions.extend(matches if matches else [binding])
        solutions = extended_solutions
    return solutions


def _reference_rows(graph, spec: dict) -> set[tuple]:
    rows = set()
    for branch in spec["branches"]:
        for binding in _eval_branch(graph, branch):
            if all(
                _filter_holds(binding, f) is True
                for f in spec["filters"]
            ):
                rows.add(
                    tuple(binding.get(v) for v in spec["projection"])
                )
    return rows


# ---------------------------------------------------------------------------
# The harness
# ---------------------------------------------------------------------------
QUERIES_PER_SEED = 8


def _check_query(engines, graph, spec, text, context):
    """All engines agree with each other and the reference evaluator."""
    decoded = {}
    for name, engine in engines.items():
        result = engine.execute_sparql(text)
        decoded[name] = engine.decode(result)
    reference = decoded["emptyheaded"]
    for name, rows in decoded.items():
        assert rows == reference, (
            f"{context}: engine {name} returned {rows!r}, "
            f"emptyheaded returned {reference!r}"
        )

    expected = _reference_rows(graph, spec)
    if spec["limit"] is not None or spec["offset"]:
        remaining = max(0, len(expected) - spec["offset"])
        expected_count = (
            remaining
            if spec["limit"] is None
            else min(spec["limit"], remaining)
        )
        assert len(reference) == expected_count, (
            f"{context}: got {len(reference)} rows, expected "
            f"{expected_count} of {len(expected)} total"
        )
        assert set(reference) <= expected, context
    else:
        assert set(reference) == expected, (
            f"{context}: engines returned {set(reference)!r}, "
            f"reference evaluator {expected!r}"
        )


@pytest.mark.parametrize("seed", range(16))
def test_engines_agree_on_random_queries(seed):
    rng = random.Random(seed)
    graph = _make_graph(rng)
    store = vertically_partition(graph)
    engines = {cls.name: cls(store) for cls in ALL_ENGINES}
    gen = _QueryGen(rng, graph)
    for _ in range(QUERIES_PER_SEED):
        spec = gen.spec()
        text = gen.text(spec)
        _check_query(
            engines, graph, spec, text, f"seed={seed} query={text!r}"
        )


@pytest.mark.parametrize("seed", range(6))
def test_updates_interleaved_with_cached_execution(seed):
    """add/remove_triples between cached executions: every engine's
    QueryService must track the mutated graph exactly (reference
    evaluator re-run over the evolving triple list)."""
    from repro.service import QueryService

    rng = random.Random(1000 + seed)
    graph = list(_make_graph(rng))
    store = vertically_partition(graph)
    services = {
        cls.name: QueryService(cls(store)) for cls in ALL_ENGINES
    }
    gen = _QueryGen(rng, graph)
    specs = [gen.spec() for _ in range(3)]
    # Queries without LIMIT/OFFSET compare exactly against the
    # reference evaluator after every mutation.
    for spec in specs:
        spec["limit"] = None
        spec["offset"] = 0
    texts = [gen.text(spec) for spec in specs]

    subjects = sorted({s for s, _, _ in graph})
    predicates = sorted({p for _, p, _ in graph})

    def check(step: str) -> None:
        for spec, text in zip(specs, texts):
            expected = _reference_rows(graph, spec)
            for name, service in services.items():
                rows = set(
                    service.engine.decode(service.execute(text))
                )
                assert rows == expected, (
                    f"seed={seed} step={step} engine={name} "
                    f"query={text!r}: got {rows!r}, expected "
                    f"{expected!r}"
                )

    check("initial")  # caches are now warm for every text
    for step in range(3):
        additions = [
            (
                rng.choice(subjects),
                rng.choice(predicates),
                rng.choice(subjects),
            )
            for _ in range(rng.randint(1, 4))
        ]
        store.add_triples(additions)
        graph = sorted(set(graph) | set(additions))
        check(f"add{step}")
        removals = [
            graph[rng.randrange(len(graph))]
            for _ in range(rng.randint(1, 3))
        ]
        store.remove_triples(removals)
        graph = sorted(set(graph) - set(removals))
        check(f"remove{step}")


@pytest.mark.parametrize("seed", range(8))
def test_streamed_limit_offset_matches_materialized(seed):
    """Streamed execution must be row-for-row identical to materialized
    execution — same rows, same canonical order — on every engine, for
    random LIMIT/OFFSET queries (forced onto every spec)."""
    rng = random.Random(2000 + seed)
    graph = _make_graph(rng)
    store = vertically_partition(graph)
    engines = {cls.name: cls(store) for cls in ALL_ENGINES}
    gen = _QueryGen(rng, graph)
    for _ in range(QUERIES_PER_SEED):
        spec = gen.spec()
        if spec["limit"] is None:
            spec["limit"] = rng.randint(1, 6)
            spec["offset"] = rng.randint(0, 2)
        text = gen.text(spec)
        context = f"seed={seed} query={text!r}"
        for name, engine in engines.items():
            materialized = engine.decode(engine.execute_sparql(text))
            pages = list(engine.execute_iter(engine.prepare_sparql(text)))
            streamed = [
                row for page in pages for row in engine.decode(page)
            ]
            assert streamed == materialized, (
                f"{context}: engine {name} streamed {streamed!r}, "
                f"materialized {materialized!r}"
            )


@pytest.mark.parametrize("seed", range(4))
def test_open_streaming_cursors_survive_interleaved_updates(seed):
    """add/remove_triples against an *open* streaming cursor: the cursor
    keeps serving the epoch pinned at execute time on every engine, and
    a fresh streamed execute sees the mutated graph."""
    from repro.service import QueryService

    rng = random.Random(3000 + seed)
    graph = list(_make_graph(rng))
    store = vertically_partition(graph)
    services = {
        cls.name: QueryService(cls(store)) for cls in ALL_ENGINES
    }
    gen = _QueryGen(rng, graph)
    specs = [gen.spec() for _ in range(3)]
    for spec in specs:  # exact-comparison queries: no final slice
        spec["limit"] = None
        spec["offset"] = 0
    texts = [gen.text(spec) for spec in specs]
    subjects = sorted({s for s, _, _ in graph})
    predicates = sorted({p for _, p, _ in graph})

    for step, text in enumerate(texts):
        snapshots = {
            name: service.engine.decode(service.execute(text))
            for name, service in services.items()
        }
        cursors = {
            name: service.session().execute(
                text, page_size=2, stream=True
            )
            for name, service in services.items()
        }
        first = {name: cursor.fetch() for name, cursor in cursors.items()}
        additions = [
            (
                rng.choice(subjects),
                rng.choice(predicates),
                rng.choice(subjects),
            )
            for _ in range(rng.randint(1, 3))
        ]
        store.add_triples(additions)
        graph = sorted(set(graph) | set(additions))
        removals = [graph[rng.randrange(len(graph))]]
        store.remove_triples(removals)
        graph = sorted(set(graph) - set(removals))
        for name, cursor in cursors.items():
            rest = [] if first[name].done else cursor.fetch_all()
            rows = list(first[name].rows) + rest
            assert rows == snapshots[name], (
                f"seed={seed} step={step} engine={name} "
                f"query={text!r}: open cursor returned {rows!r}, "
                f"pre-update snapshot {snapshots[name]!r}"
            )
        # Fresh streamed executions see the mutated graph and agree
        # across engines.
        fresh = {
            name: service.session()
            .execute(text, stream=True)
            .fetch_all()
            for name, service in services.items()
        }
        reference = fresh["emptyheaded"]
        for name, rows in fresh.items():
            assert rows == reference, (
                f"seed={seed} step={step} engine={name}: post-update "
                f"stream returned {rows!r}, emptyheaded {reference!r}"
            )


# ---------------------------------------------------------------------------
# Zipf-skewed legs: data and parameter families with hot values, so the
# sketch-driven bound orders (and per-value re-optimized plans) differ
# from the uniform graphs above — plan diversity must never change rows.
# ---------------------------------------------------------------------------
def _make_skewed_graph(rng: random.Random) -> list[tuple[str, str, str]]:
    """Zipf-weighted term draws: a few hot subjects/predicates/objects
    dominate the graph, the tail is near-singleton."""
    subjects = [f"<{EX}s{i}>" for i in range(8)]
    predicates = [f"<{EX}p{i}>" for i in range(4)]
    literals = ['"alpha"', '"beta"', '"3"', f'"5"^^<{XSD_INTEGER}>']
    objects = subjects + literals
    exponent = 1.4
    subject_w = [1.0 / (r + 1) ** exponent for r in range(len(subjects))]
    predicate_w = [
        1.0 / (r + 1) ** exponent for r in range(len(predicates))
    ]
    object_w = [1.0 / (r + 1) ** exponent for r in range(len(objects))]
    triples = set()
    for _ in range(rng.randint(60, 120)):
        triples.add(
            (
                rng.choices(subjects, weights=subject_w)[0],
                rng.choices(predicates, weights=predicate_w)[0],
                rng.choices(objects, weights=object_w)[0],
            )
        )
    return sorted(triples)


@pytest.mark.parametrize("seed", range(8))
def test_engines_agree_on_zipf_skewed_graphs(seed):
    rng = random.Random(4000 + seed)
    graph = _make_skewed_graph(rng)
    store = vertically_partition(graph)
    engines = {cls.name: cls(store) for cls in ALL_ENGINES}
    gen = _QueryGen(rng, graph)
    for _ in range(QUERIES_PER_SEED):
        spec = gen.spec()
        text = gen.text(spec)
        _check_query(
            engines,
            graph,
            spec,
            text,
            f"zipf seed={seed} query={text!r}",
        )


@pytest.mark.parametrize("seed", range(4))
def test_prepared_zipf_parameters_stay_row_identical(seed):
    """A Zipf-sampled parameter stream through prepared statements on
    every engine: the per-value plans (structural-cached for the tail,
    re-optimized for the hot head on the EmptyHeaded family) must
    return exactly the one-shot execution's rows for each value, and
    all engines must agree."""
    from repro.service import QueryService

    rng = random.Random(4500 + seed)
    graph = _make_skewed_graph(rng)
    store = vertically_partition(graph)
    predicates = sorted({p for _, p, _ in graph})
    hot_pred, other_pred = predicates[0], predicates[1]
    template = (
        f"SELECT ?x ?y WHERE {{ ?x {hot_pred} $v . ?x {other_pred} ?y }}"
    )
    values = sorted(
        {o for _, p, o in graph if p == hot_pred and o.startswith("<")}
    )
    if not values:  # degenerate draw: probe a guaranteed-empty value
        values = [f"<{EX}s0>"]
    weights = [1.0 / (rank + 1) ** 1.4 for rank in range(len(values))]
    stream = rng.choices(values, weights=weights, k=10)

    services = {cls.name: QueryService(cls(store)) for cls in ALL_ENGINES}
    statements = {
        name: service.prepare(template)
        for name, service in services.items()
    }
    for value in stream:
        concrete = template.replace("$v", value)
        context = f"seed={seed} value={value}"
        rows = {}
        for name, service in services.items():
            engine = service.engine
            prepared = engine.decode(statements[name].execute(v=value))
            oneshot = engine.decode(engine.execute_sparql(concrete))
            assert prepared == oneshot, (
                f"{context}: engine {name} prepared {prepared!r}, "
                f"one-shot {oneshot!r}"
            )
            rows[name] = prepared
        reference = rows["emptyheaded"]
        for name, engine_rows in rows.items():
            assert engine_rows == reference, (
                f"{context}: engine {name} returned {engine_rows!r}, "
                f"emptyheaded returned {reference!r}"
            )


# ---------------------------------------------------------------------------
# Tree-shaped queries whose projection reaches a grandchild of the GHD
# root: the root's join must carry those attributes through the nodes
# between, under every GHD-building configuration.
# ---------------------------------------------------------------------------
_TREE_CONFIGS = {
    "all_on": OptimizationConfig.all_on(),
    "baseline_with_ghd": OptimizationConfig.baseline_with_ghd(),
    "no_pipelining": OptimizationConfig.all_on().but(pipelining=False),
}


@st.composite
def _tree_queries(draw):
    """A small graph and a tree-shaped query over it.

    Every pattern hangs a fresh variable off one already introduced.
    The first four form a path ``?a0 .. ?a4``, and both its ends are
    projected: whichever pattern the GHD root holds, one end lives only
    two or more nodes below it.
    """
    nodes = [f"<{EX}n{i}>" for i in range(5)]
    predicates = [f"<{EX}p{i}>" for i in range(2)]
    graph = sorted(
        draw(
            st.sets(
                st.tuples(
                    st.sampled_from(nodes),
                    st.sampled_from(predicates),
                    st.sampled_from(nodes),
                ),
                min_size=8,
                max_size=30,
            )
        )
    )
    present = sorted({p for _, p, _ in graph})
    variables = ["?a0"]
    patterns = []
    for i in range(draw(st.integers(4, 5))):
        anchor = variables[-1] if i < 4 else draw(st.sampled_from(variables))
        fresh = f"?a{len(variables)}"
        variables.append(fresh)
        predicate = draw(st.sampled_from(present))
        if draw(st.booleans()):
            patterns.append((anchor, predicate, fresh))
        else:
            patterns.append((fresh, predicate, anchor))
    extra = draw(st.lists(st.sampled_from(variables), max_size=1))
    spec = {
        "branches": [{"patterns": patterns, "optionals": []}],
        "filters": [],
        "projection": sorted({"?a0", "?a4", *extra}),
        "order": None,
        "limit": None,
        "offset": 0,
    }
    return graph, spec


def _projection_depth(plan) -> int:
    """How far below the GHD root the projection reaches: over the
    projected variables, the largest of the shallowest depth of a node
    holding one."""
    ghd = plan.ghd
    return max(
        min(ghd.depth(n.node_id) for n in ghd.nodes if v in n.chi)
        for v in plan.query.projection
    )


@given(_tree_queries())
@settings(max_examples=30)
def test_projection_through_grandchildren_matches_reference(case):
    graph, spec = case
    text = _QueryGen.text(spec)
    expected = _reference_rows(graph, spec)
    store = vertically_partition(graph)
    for name, config in _TREE_CONFIGS.items():
        engine = EmptyHeadedEngine(store, config)
        context = f"config={name} query={text!r} graph={graph!r}"
        plan = engine.plan_for(engine.bind(engine.prepare_sparql(text)))
        assert _projection_depth(plan) >= 2, (context, plan.explain())
        stream = engine.executor.execute_iter(plan, chunk_rows=2)
        assert stream is not None, context
        assert [row for chunk in stream for row in chunk.iter_rows()] == list(
            engine.executor.execute(plan).iter_rows()
        ), context
        rows = engine.decode(engine.execute_sparql(text))
        assert len(rows) == len(set(rows)), context
        assert set(rows) == expected, context
        limited = text + " LIMIT 3 OFFSET 1"
        pages = list(engine.execute_iter(engine.prepare_sparql(limited)))
        streamed = [row for page in pages for row in engine.decode(page)]
        assert streamed == engine.decode(
            engine.execute_sparql(limited)
        ), context


def test_harness_is_deterministic():
    """Same seed => same graph and same query batch (reproducibility)."""
    rng1, rng2 = random.Random(3), random.Random(3)
    graph1, graph2 = _make_graph(rng1), _make_graph(rng2)
    assert graph1 == graph2
    gen1, gen2 = _QueryGen(rng1, graph1), _QueryGen(rng2, graph2)
    assert [gen1.text(gen1.spec()) for _ in range(5)] == [
        gen2.text(gen2.spec()) for _ in range(5)
    ]


def test_generator_covers_all_constructs():
    """The random mix actually exercises every construct under test."""
    seen = {
        "union": False,
        "optional": False,
        "varpred": False,
        "filter": False,
        "connective": False,
        "order": False,
        "number": False,
        "optional_filter": False,
        "shared_optional": False,
        "bound": False,
        "regex": False,
        "str": False,
        "lang": False,
        "negation": False,
    }
    for seed in range(16):
        rng = random.Random(seed)
        graph = _make_graph(rng)
        gen = _QueryGen(rng, graph)
        for _ in range(QUERIES_PER_SEED):
            spec = gen.spec()
            text = gen.text(spec)
            seen["union"] |= len(spec["branches"]) == 2
            seen["optional"] |= any(
                b["optionals"] for b in spec["branches"]
            )
            seen["varpred"] |= "?q" in text
            seen["filter"] |= bool(spec["filters"])
            seen["connective"] |= any(
                f[0] in ("or", "and") for f in spec["filters"]
            )
            seen["order"] |= spec["order"] is not None
            seen["number"] |= any(
                p[2] in ("3", "7", "5")
                for b in spec["branches"]
                for p in b["patterns"]
            )
            seen["optional_filter"] |= any(
                o["filters"]
                for b in spec["branches"]
                for o in b["optionals"]
            )
            seen["shared_optional"] |= any(
                len(b["optionals"]) == 2 for b in spec["branches"]
            )
            seen["bound"] |= "bound(" in text
            seen["regex"] |= "regex(" in text
            seen["str"] |= "str(" in text
            seen["lang"] |= "lang(" in text
            seen["negation"] |= "!(" in text
    assert all(seen.values()), seen
