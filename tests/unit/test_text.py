"""Unit tests for tokenization and XML escaping."""

from hypothesis import given
from hypothesis import strategies as st

from repro.xmldb.text import (
    escape_attr,
    escape_text,
    tokenize_phrase,
    tokenize_text,
    tokenize_with_spans,
)


class TestTokenizeText:
    def test_basic_lowercasing(self):
        assert tokenize_text("Search Engine") == ["search", "engine"]

    def test_punctuation_is_separator(self):
        assert tokenize_text("a,b;c.d") == ["a", "b", "c", "d"]

    def test_digits_kept(self):
        assert tokenize_text("2nd ed. 1983") == ["2nd", "ed", "1983"]

    def test_empty_string(self):
        assert tokenize_text("") == []

    def test_whitespace_only(self):
        assert tokenize_text("  \t\n ") == []

    def test_ellipsis_yields_nothing(self):
        assert tokenize_text("...") == []

    def test_unicode_symbols_are_separators(self):
        assert tokenize_text("naïve") == ["na", "ve"]

    def test_hyphenated_words_split(self):
        assert tokenize_text("e-mail") == ["e", "mail"]


class TestTokenizeWithSpans:
    def test_spans_point_at_source(self):
        text = "Big CATS run"
        spans = tokenize_with_spans(text)
        assert [t for t, _s, _e in spans] == ["big", "cats", "run"]
        for term, s, e in spans:
            assert text[s:e].lower() == term

    def test_phrase_matches_document_tokenization(self):
        assert tokenize_phrase("Search Engine") == tokenize_text(
            "Search Engine"
        )


class TestEscaping:
    def test_text_escapes(self):
        assert escape_text("a<b&c>d") == "a&lt;b&amp;c&gt;d"

    def test_attr_escapes_quotes(self):
        assert escape_attr('say "hi" & bye') == "say &quot;hi&quot; &amp; bye"

    def test_plain_text_unchanged(self):
        assert escape_text("hello world") == "hello world"

    @given(st.text(alphabet='&<>"ab;', max_size=30))
    def test_equals_the_per_character_definition(self, text):
        text_escapes = {"&": "&amp;", "<": "&lt;", ">": "&gt;"}
        attr_escapes = {**text_escapes, '"': "&quot;"}
        assert escape_text(text) == "".join(
            text_escapes.get(c, c) for c in text)
        assert escape_attr(text) == "".join(
            attr_escapes.get(c, c) for c in text)
