"""Fuzz-style property tests: the XML parser and the query parser never
crash with anything but their declared error types, well-formed XML
round-trips, and a query parses the same way every time (the parsed
query is the answer cache's key)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QuerySyntaxError, TIXError, XMLParseError
from repro.query.parser import parse_query
from repro.xmldb.parser import parse_document


@given(st.text(max_size=200))
@settings(max_examples=200)
def test_xml_parser_total(text):
    """Arbitrary text either parses or raises XMLParseError — never any
    other exception."""
    try:
        doc = parse_document(text)
    except XMLParseError:
        return
    # If it parsed, the result must be coherent and serializable.
    assert len(doc) >= 1
    parse_document(doc.serialize())


@given(st.text(
    alphabet="<>/abc =\"'&;x!?-[]", max_size=120,
))
@settings(max_examples=200)
def test_xml_parser_markup_heavy_fuzz(text):
    """Markup-dense fuzz input exercises the parser's error paths."""
    try:
        parse_document(text)
    except XMLParseError:
        pass


@given(st.integers(min_value=0, max_value=0x11FFFF), st.booleans())
@settings(max_examples=300)
def test_character_reference_parses_or_raises(n, hexadecimal):
    """A reference to any code point, in or out of XML's Char range,
    raises XMLParseError or gives a document whose serialization
    encodes as UTF-8 and re-parses to the same words."""
    ref = f"&#x{n:x};" if hexadecimal else f"&#{n};"
    try:
        doc = parse_document(f"<a>{ref}</a>")
    except XMLParseError:
        return
    image = doc.serialize()
    image.encode("utf-8")
    assert parse_document(image).word_terms == doc.word_terms


@given(st.text(max_size=200))
@settings(max_examples=200)
def test_query_parser_total(text):
    """Arbitrary text either parses as a query or raises
    QuerySyntaxError."""
    try:
        parse_query(text)
    except QuerySyntaxError:
        pass


@given(st.text(
    alphabet="FordLetScPikRun$abc(){}\"/@<>=.,:* \n0123456789",
    max_size=150,
))
@settings(max_examples=200)
def test_query_parser_keyword_heavy_fuzz(text):
    try:
        query = parse_query(text)
    except QuerySyntaxError:
        return
    # Parsing is deterministic: the same source gives an equal AST
    # with an equal hash, so one query text maps to one cache key.
    again = parse_query(text)
    assert again == query
    assert hash(again) == hash(query)
