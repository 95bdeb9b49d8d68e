"""XML parser: CPython's expat drives the region-numbering builder.

Expat enforces well-formedness (one root, matching tags, no text outside
the root, XML 1.0 characters and references); numbering is delegated to
the shared :class:`~repro.xmldb.builder.DocumentBuilder`.  Each run of
character data becomes one ``builder.text`` segment; a run ends at an
element tag, a comment, a processing instruction, or a CDATA boundary.
Entity declarations and references to undeclared entities are refused,
so only the five predefined entities and character references expand.
"""

from __future__ import annotations

from typing import Dict, List
from xml.parsers import expat

from repro.errors import XMLParseError
from repro.xmldb.builder import DocumentBuilder
from repro.xmldb.document import Document


def parse_document(source: str, name: str = "document.xml",
                   doc_id: int = 0) -> Document:
    """Parse an XML string into a :class:`Document`.

    Raises :class:`~repro.errors.XMLParseError` on malformed input, with
    line/column information.
    """
    builder = DocumentBuilder()
    run: List[str] = []
    parser = expat.ParserCreate()

    def end_run(*_: object) -> None:
        if run:
            builder.text("".join(run))
            run.clear()

    def start(tag: str, attrs: Dict[str, str]) -> None:
        end_run()
        builder.start_element(tag, attrs)

    def end(_tag: str) -> None:
        end_run()
        builder.end_element()

    def refuse(entity: str, *_: object) -> None:
        raise XMLParseError(f"entity {entity!r} is not allowed",
                            parser.CurrentLineNumber,
                            parser.CurrentColumnNumber + 1)

    parser.buffer_text = True
    parser.specified_attributes = True  # DTD attribute defaults stay out
    parser.SetParamEntityParsing(expat.XML_PARAM_ENTITY_PARSING_NEVER)
    parser.CharacterDataHandler = run.append
    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CommentHandler = end_run
    parser.ProcessingInstructionHandler = end_run
    parser.StartCdataSectionHandler = end_run
    parser.EndCdataSectionHandler = end_run
    parser.EntityDeclHandler = refuse
    parser.SkippedEntityHandler = refuse
    try:
        parser.Parse(source, True)
    except expat.ExpatError as e:
        raise XMLParseError(expat.errors.messages[e.code], e.lineno,
                            e.offset + 1) from None
    except UnicodeEncodeError as e:  # a lone surrogate cannot be encoded
        line = source.count("\n", 0, e.start) + 1
        raise XMLParseError(
            "surrogate code point is not a character", line,
            e.start - source.rfind("\n", 0, e.start)) from None
    finally:
        # refuse() holds the parser: unhook it so the parser is freed at
        # once, not left in a reference cycle for the collector
        parser.EntityDeclHandler = parser.SkippedEntityHandler = None
    return builder.finish(name, doc_id)


def parse_fragment(source: str, name: str = "fragment.xml",
                   doc_id: int = 0) -> Document:
    """Parse a fragment that may have multiple top-level elements by
    wrapping it in a synthetic ``<root>`` element.

    Used by tests and by the Query-3 style product construction where a
    ``<root>`` wrapper appears in the paper's own XQuery.
    """
    return parse_document(f"<root>{source}</root>", name, doc_id)
