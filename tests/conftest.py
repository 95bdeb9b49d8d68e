"""Shared fixtures: the Figure 1 example store, small synthetic corpora,
and helper factories used across the suite.

With ``TIX_LOCK_SANITIZER=1`` (CI exports it for the test, chaos and
serve-loadtest jobs) the whole session runs under the runtime
lock-rank check (``docs/static-analysis.md``, "Lock ranks").  It is
installed here, before any test module allocates a lock, and
:func:`lock_rank_check` fails the session at teardown if any acquire
broke the rule, including one that a server thread swallowed.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis import sanitizer as _sanitizer
from repro.exampledata import example_store
from repro.workload import CorpusSpec, generate_corpus
from repro.xmldb.builder import DocumentBuilder
from repro.xmldb.store import XMLStore


_sanitizer.install_from_env()


@pytest.fixture(scope="session", autouse=True)
def lock_rank_check():
    yield
    errors = _sanitizer.errors()
    assert errors == [], (
        "lock-rank check: " + "; ".join(str(e) for e in errors)
    )


@pytest.fixture()
def lock_check(monkeypatch):
    """The lock-rank check installed for one test, with its errors kept
    apart from the session's: a test that breaks the rule on purpose
    must not fail the session."""
    was_active = _sanitizer.active()
    _sanitizer.install()
    monkeypatch.setattr(_sanitizer, "_ERRORS", [])
    yield _sanitizer
    if not was_active:
        _sanitizer.uninstall()


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="rewrite the tests/golden/*.json snapshots from the current "
             "outputs instead of comparing against them",
    )


@pytest.fixture()
def store() -> XMLStore:
    """Fresh Figure-1 example store per test."""
    return example_store()


@pytest.fixture(scope="session")
def small_corpus() -> XMLStore:
    """A small synthetic corpus with planted terms (shared, read-only)."""
    spec = CorpusSpec(
        n_articles=12,
        planted_terms={"alpha": 40, "beta": 25, "gamma": 10, "solo": 1},
        planted_phrases={("px", "py"): 8},
        seed=99,
    )
    return generate_corpus(spec)


def build_random_document(rng: random.Random, n_elements: int,
                          vocab=("red", "green", "blue", "cyan", "teal"),
                          doc_id: int = 0, name: str = "rand.xml"):
    """Random well-formed document with ~n_elements elements and random
    short texts — the workhorse generator for oracle-comparison tests."""
    b = DocumentBuilder()
    b.start_element("root")
    depth = 1
    made = 1
    while made < n_elements:
        action = rng.random()
        if action < 0.45 and depth < 12:
            b.start_element(rng.choice(["a", "b", "c", "d"]))
            depth += 1
            made += 1
            if rng.random() < 0.7:
                b.text(" ".join(
                    rng.choice(vocab) for _ in range(rng.randrange(0, 5))
                ))
        elif action < 0.8 and depth > 1:
            b.end_element()
            depth -= 1
        else:
            b.text(" ".join(
                rng.choice(vocab) for _ in range(rng.randrange(1, 4))
            ))
    while depth > 0:
        b.end_element()
        depth -= 1
    return b.finish(name, doc_id)


def build_many_article_store(n_articles: int = 200,
                             seed: int = 7) -> XMLStore:
    """One document ``lib.xml`` holding ``n_articles`` sibling
    ``<article>`` regions, so a ``//article`` For-path hands the
    structural filter many regions to probe.

    Each article has a short title ("paper number …") and four sections
    of random vocabulary with the term ``planted`` in ~60% of them."""
    rng = random.Random(seed)
    b = DocumentBuilder()
    b.start_element("library")
    for _ in range(n_articles):
        b.start_element("article")
        b.start_element("title")
        b.text("paper number "
               + " ".join(f"w{rng.randrange(200)}" for _ in range(4)))
        b.end_element()
        for _ in range(4):
            b.start_element("section")
            b.start_element("p")
            words = [f"w{rng.randrange(200)}" for _ in range(30)]
            if rng.random() < 0.6:
                words.insert(rng.randrange(len(words)), "planted")
            b.text(" ".join(words))
            b.end_element()
            b.end_element()
        b.end_element()
    b.end_element()
    store = XMLStore()
    store.add_document(b.finish("lib.xml"))
    return store


@pytest.fixture()
def random_store_factory():
    """Factory building stores of random documents for a given seed."""

    def make(seed: int, n_docs: int = 2, n_elements: int = 40) -> XMLStore:
        rng = random.Random(seed)
        s = XMLStore()
        for d in range(n_docs):
            s.add_document(
                build_random_document(
                    rng, n_elements, doc_id=d, name=f"rand{d}.xml"
                )
            )
        return s

    return make
