"""Shared fixtures for the ablation benchmarks: a full-scale synthetic
corpus.

``TIX_BENCH_SCALE`` (default 1.0) scales every planted term frequency;
the paper's nominal frequencies are used verbatim at 1.0.  The corpus is
session-scoped — it is built once and shared by all ablations in the
session.  The paper's tables themselves are regenerated by
``make_report.py`` and ``tix bench``, not here.
"""

from __future__ import annotations

import os

import pytest

from repro.workload import generate_corpus, table123_spec

SCALE = float(os.environ.get("TIX_BENCH_SCALE", "1.0"))


def pytest_report_header(config):
    return f"TIX bench scale: {SCALE} (set TIX_BENCH_SCALE to change)"


@pytest.fixture(scope="session")
def corpus123():
    """Corpus + sweep rows for Tables 1-3.  1,200 articles ≈ 82k
    elements: large enough that the Comp2 full-element-scan cost
    dominates at low frequencies and the Comp1/Comp2 crossover lands in
    the upper half of the sweep, as in the paper."""
    spec, rows = table123_spec(scale=SCALE, n_articles=1200)
    store = generate_corpus(spec)
    store.index          # build the inverted index up front
    store.structure      # and the structure index
    return store, rows
