"""Shared fixtures: one generated LUBM dataset per test session, plus
the runtime lock-order sanitizer threaded under every test.

Every hypothesis test runs under one deterministic profile: the same
examples on every host and run, no wall-clock deadline (a loaded host
cannot fail a test by being slow), and no example database on disk.
Per-test ``@settings(max_examples=...)`` still apply on top of it."""

from __future__ import annotations

import tempfile
import threading

import numpy as np
import pytest
from hypothesis import configuration, settings

from repro.analysis import runtime

from repro import (
    ColumnStoreEngine,
    EmptyHeadedEngine,
    LogicBloxLikeEngine,
    RDF3XLikeEngine,
    TripleBitLikeEngine,
    generate_dataset,
    lubm_queries,
)

settings.register_profile(
    "deterministic", derandomize=True, deadline=None, database=None
)
settings.load_profile("deterministic")


def pytest_configure(config):
    """Hypothesis caches the constants it parses out of source files
    even without an example database (already during collection); keep
    that cache in a directory removed when the run ends, so a run
    writes no ``.hypothesis/`` into the tree."""
    home = tempfile.TemporaryDirectory(prefix="repro-hypothesis-")
    config.add_cleanup(home.cleanup)
    configuration.set_hypothesis_home_dir(home.name)


@pytest.fixture(autouse=True)
def lock_order_sanitizer(monkeypatch):
    """Route every project lock through :class:`runtime.OrderedLock`.

    Locks created while a test runs (engines, stores, HTTP servers)
    record their acquisition order into a global graph; an acquisition
    that inverts a previously seen order is recorded — not raised — and
    fails the test here at teardown.  This turns the whole suite into a
    lock-order regression harness for free.
    """
    monkeypatch.setattr(threading, "Lock", runtime.make_lock)
    monkeypatch.setattr(threading, "RLock", runtime.make_rlock)
    runtime.reset()
    yield
    found = runtime.violations()
    if found:
        pytest.fail(
            "runtime lock-order sanitizer recorded violation(s):\n\n"
            + "\n\n".join(violation.render() for violation in found),
            pytrace=False,
        )


@pytest.fixture
def sort_calls(monkeypatch):
    """Record ``(function, rows sorted)`` of every ``np.unique`` /
    ``np.sort`` / ``np.argsort`` / ``np.lexsort`` call made while the
    test runs (the clock-free guards that a path sorts only its batch,
    or nothing, never a whole column). A ``lexsort`` sorts the last axis
    of its key stack, so it counts rows, not key columns × rows."""
    seen: list[tuple[str, int]] = []
    for name in ("unique", "sort", "argsort", "lexsort"):

        def spy(array, *args, _name=name, _original=getattr(np, name), **kwargs):
            keys = np.asarray(array)
            rows = keys.shape[-1] if _name == "lexsort" else keys.size
            seen.append((_name, int(rows)))
            return _original(array, *args, **kwargs)

        monkeypatch.setattr(np, name, spy)
    return seen


@pytest.fixture(scope="session")
def dataset():
    """LUBM(1), fixed seed — about 120k triples."""
    return generate_dataset(universities=1, seed=0)


@pytest.fixture(scope="session")
def queries(dataset):
    """The twelve benchmark queries, parameterized for this dataset."""
    return lubm_queries(dataset.config)


@pytest.fixture(scope="session")
def emptyheaded(dataset):
    return EmptyHeadedEngine(dataset.store)


@pytest.fixture(scope="session")
def logicblox(dataset):
    return LogicBloxLikeEngine(dataset.store)


@pytest.fixture(scope="session")
def monetdb(dataset):
    return ColumnStoreEngine(dataset.store)


@pytest.fixture(scope="session")
def rdf3x(dataset):
    return RDF3XLikeEngine(dataset.store)


@pytest.fixture(scope="session")
def triplebit(dataset):
    return TripleBitLikeEngine(dataset.store)


@pytest.fixture(scope="session")
def all_engines(emptyheaded, logicblox, monetdb, rdf3x, triplebit):
    return {
        "emptyheaded": emptyheaded,
        "logicblox": logicblox,
        "monetdb": monetdb,
        "rdf3x": rdf3x,
        "triplebit": triplebit,
    }
