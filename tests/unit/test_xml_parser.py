"""Unit tests for the expat-driven XML parser."""

import gc
import time
from xml.parsers import expat

import pytest

from repro.errors import XMLParseError
from repro.xmldb.parser import parse_document, parse_fragment
from repro.xmldb.store import XMLStore


class TestBasicParsing:
    def test_single_element(self):
        doc = parse_document("<a/>")
        assert doc.tags == ["a"]
        assert doc.parents == [-1]

    def test_nested_elements(self):
        doc = parse_document("<a><b><c/></b><d/></a>")
        assert doc.tags == ["a", "b", "c", "d"]
        assert doc.parents == [-1, 0, 1, 0]

    def test_text_content_words(self):
        doc = parse_document("<a>Hello Brave World</a>")
        assert doc.direct_words(0) == ["hello", "brave", "world"]

    def test_mixed_content_order_preserved(self):
        doc = parse_document("<a>one<b>two</b>three</a>")
        assert doc.subtree_words(0) == ["one", "two", "three"]
        assert doc.direct_words(0) == ["one", "three"]
        assert doc.direct_words(1) == ["two"]

    def test_attributes(self):
        doc = parse_document('<a x="1" y="two words"/>')
        assert doc.attr(0, "x") == "1"
        assert doc.attr(0, "y") == "two words"
        assert doc.attr(0, "missing") is None

    def test_single_quoted_attributes(self):
        doc = parse_document("<a x='val'/>")
        assert doc.attr(0, "x") == "val"

    def test_self_closing_with_following_sibling(self):
        doc = parse_document("<a><b/><c>t</c></a>")
        assert doc.tags == ["a", "b", "c"]
        assert doc.parents == [-1, 0, 0]

    @pytest.mark.parametrize("source", ["<a>x</a>", "<a>&#0;</a>"])
    def test_parser_freed_without_the_cycle_collector(self, source):
        def live_parsers():
            return sum(isinstance(o, expat.XMLParserType)
                       for o in gc.get_objects())

        gc.collect()
        gc.disable()
        try:
            before = live_parsers()
            try:
                parse_document(source)
            except XMLParseError:
                pass
            assert live_parsers() == before
        finally:
            gc.enable()


class TestMarkupForms:
    def test_xml_declaration_skipped(self):
        doc = parse_document('<?xml version="1.0"?><a/>')
        assert doc.tags == ["a"]

    def test_comments_skipped(self):
        doc = parse_document("<a><!-- hidden words --><b/></a>")
        assert doc.tags == ["a", "b"]
        assert doc.subtree_words(0) == []

    def test_cdata_is_text(self):
        doc = parse_document("<a><![CDATA[raw <stuff> here]]></a>")
        assert doc.direct_words(0) == ["raw", "stuff", "here"]

    def test_doctype_skipped(self):
        doc = parse_document("<!DOCTYPE a [<!ELEMENT a ANY>]><a/>")
        assert doc.tags == ["a"]

    def test_processing_instruction_skipped(self):
        doc = parse_document("<a><?target data?><b/></a>")
        assert doc.tags == ["a", "b"]

    def test_entities_decoded(self):
        doc = parse_document("<a>fish &amp; chips &lt;now&gt;</a>")
        assert doc.direct_text(0) == "fish & chips <now>"

    def test_numeric_character_references(self):
        doc = parse_document("<a>&#65;&#x42;</a>")
        assert doc.direct_text(0) == "AB"

    def test_entities_in_attributes(self):
        doc = parse_document('<a t="a &amp; b"/>')
        assert doc.attr(0, "t") == "a & b"


class TestErrors:
    @pytest.mark.parametrize("source", [
        "<a>",                      # unclosed
        "<a></b>",                  # mismatch
        "</a>",                     # stray close
        "<a/><b/>",                 # two roots
        "text only",               # no root
        "<a><b></a></b>",           # interleaved
        "<a x=1/>",                 # unquoted attribute
        '<a x="1" x="2"/>',         # duplicate attribute
        "<a>&nosuch;</a>",          # unknown entity
        "",                         # empty
        "<a><!-- unterminated",     # unterminated comment
        "<a>&#x110000;</a>",        # reference above U+10FFFF
        "<a>&#0;</a>",              # reference to NUL
        "<a>&#xD800;</a>",          # reference to a surrogate
        "<a>AT&T</a>",              # bare ampersand
        "<a>x]]>y</a>",             # ']]>' in text
        "<a>&#65</a>",              # reference without ';'
        '<a x="1"y="2"/>',          # no space between attributes
        "<a>\x01</a>",              # control character
        "<a>\ud800</a>",            # lone surrogate in the str
    ])
    def test_malformed_raises(self, source):
        with pytest.raises(XMLParseError):
            parse_document(source)

    def test_error_carries_position(self):
        with pytest.raises(XMLParseError) as exc:
            parse_document("<a>\n<b></c></a>")
        assert exc.value.line == 2

    def test_lone_surrogate_position(self):
        with pytest.raises(XMLParseError) as exc:
            parse_document("<a>\n  \udfff</a>")
        assert (exc.value.line, exc.value.column) == (2, 3)

    def test_store_refuses_what_it_could_not_persist(self):
        store = XMLStore()
        store.load("ok.xml", "<a>x</a>")
        generation = store.generation
        with pytest.raises(XMLParseError):
            store.load("s.xml", "<a>x &#xD800; y</a>")
        assert len(list(store.documents())) == 1
        assert store.generation == generation


class TestEntities:
    @pytest.mark.parametrize("decl", [
        '<!ENTITY e "x">',
        '<!ENTITY e SYSTEM "e.xml">',
        '<!ENTITY % e "x">',         # parameter entity
    ])
    def test_entity_declaration_refused(self, decl):
        with pytest.raises(XMLParseError, match="'e' is not allowed"):
            parse_document(f"<!DOCTYPE a [{decl}]><a>&amp;</a>")

    def test_skipped_entity_under_external_dtd_refused(self):
        # expat skips an undeclared entity when an external subset might
        # declare it; the parser refuses it as it refuses any unknown one
        with pytest.raises(XMLParseError, match="'foo' is not allowed"):
            parse_document('<!DOCTYPE a SYSTEM "x.dtd"><a>x&foo;y</a>')

    def test_billion_laughs_refused_at_the_first_declaration(self):
        decls = ['<!ENTITY l0 "lol">'] + [
            f'<!ENTITY l{i} "{f"&l{i - 1};" * 10}">' for i in range(1, 10)]
        source = ("<!DOCTYPE a [\n" + "\n".join(decls) + "\n]>\n"
                  "<a>&l9;</a>")
        began = time.perf_counter()
        with pytest.raises(XMLParseError) as exc:
            parse_document(source)
        assert time.perf_counter() - began < 1.0
        assert "'l0'" in str(exc.value) and exc.value.line == 2


class TestAcceptedXML:
    def test_comment_splits_text(self):
        doc = parse_document("<a>a<!--c-->b</a>")
        assert doc.content[0] == ["a", "b"]
        assert doc.direct_words(0) == ["a", "b"]

    @pytest.mark.parametrize("marker", ["<?pi x?>", "<![CDATA[ ]]>"])
    def test_pi_and_cdata_end_a_text_run(self, marker):
        doc = parse_document(f"<a>x{marker}y</a>")
        assert doc.direct_words(0) == ["x", "y"]

    def test_entities_and_line_breaks_join_one_run(self):
        doc = parse_document("<a>x&amp;\ny&#65;z</a>")
        assert doc.content[0] == ["x&\nyAz"]

    def test_long_text_is_one_segment(self):
        text = "word " * 5000
        assert parse_document(f"<a>{text}</a>").content[0] == [text]

    def test_empty_cdata_leaves_no_segment(self):
        assert parse_document("<a><![CDATA[]]></a>").content[0] == []

    def test_whitespace_outside_root_ignored(self):
        doc = parse_document("\n  <a>x</a>\n\t")
        assert doc.content[0] == ["x"]

    def test_line_ends_normalised(self):
        doc = parse_document("<a>x\r\ny\rz</a>")
        assert doc.direct_text(0) == "x\ny\nz"

    def test_attribute_whitespace_normalised(self):
        doc = parse_document('<a t="x\ty\nz"/>')
        assert doc.attr(0, "t") == "x y z"

    def test_non_ascii_names_and_bom_accepted(self):
        doc = parse_document("\ufeff<\u00e9 \u00e0='1'/>")
        assert doc.tags == ["\u00e9"]
        assert doc.attr(0, "\u00e0") == "1"

    def test_dtd_attribute_defaults_not_added(self):
        doc = parse_document(
            '<!DOCTYPE a [<!ATTLIST a x CDATA "d">]><a/>')
        assert doc.attrs == {}


class TestRegionNumbering:
    def test_regions_nest(self):
        doc = parse_document("<a>x<b>y z</b>w</a>")
        a, b = doc.node(0), doc.node(1)
        assert a.start < b.start < b.end < a.end

    def test_words_inside_owner_region(self):
        doc = parse_document("<a>x<b>y z</b>w</a>")
        for i in range(doc.n_words):
            w = doc.word_occurrence(i)
            node = doc.node(w.node_id)
            assert node.start < w.pos < node.end

    def test_word_offsets_count_direct_text(self):
        doc = parse_document("<a>one<b>skip</b>two three</a>")
        occs = [doc.word_occurrence(i) for i in range(doc.n_words)]
        mine = [(o.term, o.offset) for o in occs if o.node_id == 0]
        assert mine == [("one", 0), ("two", 1), ("three", 2)]

    def test_levels(self):
        doc = parse_document("<a><b><c/></b></a>")
        assert doc.levels == [0, 1, 2]


class TestSerialization:
    def test_roundtrip_preserves_text(self):
        src = '<a x="1">Hello<b>nested &amp; escaped</b>tail</a>'
        doc = parse_document(src)
        again = parse_document(doc.serialize())
        assert again.subtree_words(0) == doc.subtree_words(0)
        assert again.tags == doc.tags

    def test_serialize_subtree(self):
        doc = parse_document("<a><b>x</b><c>y</c></a>")
        assert doc.serialize(2) == "<c>y</c>"

    def test_empty_element_self_closes(self):
        doc = parse_document("<a><b></b></a>")
        assert "<b/>" in doc.serialize()


class TestFragment:
    def test_fragment_wraps_in_root(self):
        doc = parse_fragment("<a/><b/>")
        assert doc.tags == ["root", "a", "b"]
