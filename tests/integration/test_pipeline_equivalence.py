"""Cross-layer equivalence: compiled plans vs the query evaluator, and
the engine pipeline on a synthetic corpus."""

import pytest

from repro.access.termjoin import TermJoin
from repro.core.scoring import WeightedCountScorer
from repro.engine import Sort, TermJoinScan, execute
from repro.exampledata import example_store
from repro.query import parse_query, run_query
from repro.query.compiler import compile_query
from repro.workload import CorpusSpec, generate_corpus


@pytest.fixture(scope="module")
def store():
    return example_store()


class TestCompiledVsEvaluator:
    QUERY = '''
    For $a in document("articles.xml")//article/descendant-or-self::*
    Score $a using ScoreFooExact($a, {"search"}, {"retrieval"})
    Return <r><score>{ $a/@score }</score>{ $a }</r>
    Sortby(score)
    Threshold $a/@score > 0.5 stop after 6
    '''

    def test_same_scores(self, store):
        ev = sorted(t.score for t in run_query(store, self.QUERY))
        plan = compile_query(store, parse_query(self.QUERY))
        comp = sorted(t.score for t in execute(plan))
        assert comp == pytest.approx(ev)

    def test_same_elements(self, store):
        ev = run_query(store, self.QUERY)
        ev_tags = sorted(t.root.children[1].tag for t in ev)
        comp = execute(compile_query(store, parse_query(self.QUERY)))
        comp_tags = sorted(t.root.tag for t in comp)
        assert comp_tags == ev_tags


class TestSyntheticCorpusEndToEnd:
    @pytest.fixture(scope="class")
    def corpus(self):
        return generate_corpus(CorpusSpec(
            n_articles=6,
            planted_terms={"needle": 30, "haystack": 12},
            seed=21,
        ))

    def test_termjoin_pipeline_ranks_planted_terms(self, corpus):
        scorer = WeightedCountScorer(["needle"], ["haystack"])
        plan = Sort(TermJoinScan(
            corpus, ["needle", "haystack"], TermJoin(corpus, scorer)
        ))
        out = execute(plan)
        assert out, "planted terms must be found"
        scores = [t.score for t in out]
        assert scores == sorted(scores, reverse=True)
        # the best-scoring element contains at least one needle
        best = out[0]
        doc = corpus.document(best.root.source[0])
        assert "needle" in doc.subtree_words(best.root.source[1])

    def test_query_language_on_synthetic_corpus(self, corpus):
        name = corpus.document(0).name
        out = run_query(corpus, f'''
            For $a in document("{name}")//article/descendant-or-self::*
            Score $a using ScoreFooExact($a, {{"needle"}})
            Return <r><score>{{ $a/@score }}</score></r>
            Sortby(score)
            Threshold $a/@score > 0 stop after 3
        ''')
        assert len(out) <= 3
        for t in out:
            assert t.score > 0
