"""Unit tests for store persistence (save/load round trips)."""

import json
import os

import pytest

from repro.errors import TIXError
from repro.exampledata import example_store
from repro.xmldb.persist import FORMAT_VERSION, load_store, save_store
from repro.xmldb.store import XMLStore


class TestRoundTrip:
    def test_example_store(self, tmp_path):
        original = example_store()
        save_store(original, str(tmp_path / "db"))
        loaded = load_store(str(tmp_path / "db"))
        assert loaded.n_documents == original.n_documents
        for a, b in zip(original.documents(), loaded.documents()):
            assert a.name == b.name
            assert a.tags == b.tags
            assert a.starts == b.starts
            assert a.ends == b.ends
            assert a.parents == b.parents
            assert a.word_terms == b.word_terms
            assert a.word_offset == b.word_offset
            assert a.attrs == b.attrs

    def test_queries_identical_after_reload(self, tmp_path):
        from repro.query import run_query

        q = '''
        For $a in document("articles.xml")//article/descendant-or-self::*
        Score $a using ScoreFoo($a, {"search engine"}, {"internet"})
        Return <r><score>{ $a/@score }</score></r>
        Sortby(score)
        Threshold $a/@score > 0 stop after 5
        '''
        original = example_store()
        save_store(original, str(tmp_path / "db"))
        loaded = load_store(str(tmp_path / "db"))
        assert [t.score for t in run_query(original, q)] == \
            [t.score for t in run_query(loaded, q)]

    def test_synthetic_corpus_roundtrip(self, tmp_path, small_corpus):
        save_store(small_corpus, str(tmp_path / "db"))
        loaded = load_store(str(tmp_path / "db"))
        assert loaded.index.frequency("alpha") == \
            small_corpus.index.frequency("alpha")
        assert loaded.n_elements == small_corpus.n_elements

    def test_save_creates_directory(self, tmp_path):
        target = tmp_path / "deep" / "nested"
        save_store(example_store(), str(target))
        assert (target / "store.json").exists()


class TestErrors:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(TIXError, match="manifest"):
            load_store(str(tmp_path))

    def test_corrupt_manifest(self, tmp_path):
        (tmp_path / "store.json").write_text("{not json")
        with pytest.raises(TIXError, match="corrupt"):
            load_store(str(tmp_path))

    def test_wrong_version(self, tmp_path):
        (tmp_path / "store.json").write_text(json.dumps({
            "format_version": FORMAT_VERSION + 1, "documents": [],
        }))
        with pytest.raises(TIXError, match="version"):
            load_store(str(tmp_path))

    def test_missing_document_file(self, tmp_path):
        (tmp_path / "store.json").write_text(json.dumps({
            "format_version": FORMAT_VERSION,
            "documents": [{"name": "a.xml", "file": "gone.xml",
                           "sha256": "0" * 64}],
        }))
        with pytest.raises(TIXError, match="missing document"):
            load_store(str(tmp_path))


class TestCLIIntegration:
    def test_save_then_query(self, tmp_path, capsys):
        from repro.cli import main

        doc = tmp_path / "a.xml"
        doc.write_text("<a><b>hello world</b></a>")
        db = tmp_path / "db"
        assert main(["save", str(db), "--doc", f"a.xml={doc}"]) == 0
        capsys.readouterr()
        rc = main([
            "query", "--store", str(db),
            "-q", 'For $x in document("a.xml")//b Return $x',
        ])
        assert rc == 0
        assert "hello" in capsys.readouterr().out

    def test_stats_command(self, tmp_path, capsys):
        from repro.cli import main

        doc = tmp_path / "a.xml"
        doc.write_text("<a><b>hello hello world</b></a>")
        assert main(["stats", "--doc", f"a.xml={doc}"]) == 0
        out = capsys.readouterr().out
        assert "vocabulary" in out
        assert "hello" in out
