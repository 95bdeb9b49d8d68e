"""Unit tests for scored trees (SNode/STree) and hierarchy rebuilding."""

import sys
import threading

import pytest

from repro.core.trees import (
    SNode,
    STree,
    StoredTree,
    build_minimal_hierarchy,
    snode_from_document,
    tree_from_document,
    tree_from_text,
)
from repro.xmldb.document import Document
from repro.xmldb.parser import parse_document


def make_tree():
    root = SNode("a")
    b = root.add_child(SNode("b", words=["one", "two"]))
    c = root.add_child(SNode("c"))
    d = c.add_child(SNode("d", words=["three"]))
    return STree(root), (root, b, c, d)


class TestSNode:
    def test_preorder_document_order(self):
        tree, (root, b, c, d) = make_tree()
        assert [n.tag for n in tree.nodes()] == ["a", "b", "c", "d"]

    def test_subtree_words(self):
        tree, _ = make_tree()
        assert tree.root.subtree_words() == ["one", "two", "three"]

    def test_alltext(self):
        tree, (_r, _b, c, _d) = make_tree()
        assert c.alltext() == "three"

    def test_find_by_tag(self):
        tree, _ = make_tree()
        assert len(tree.root.find_by_tag("d")) == 1

    def test_n_nodes(self):
        tree, _ = make_tree()
        assert tree.n_nodes() == 4

    def test_shallow_copy_independent(self):
        tree, (_r, b, *_rest) = make_tree()
        b.score = 1.5
        b.labels = {"$1"}
        copy = b.shallow_copy()
        assert copy.score == 1.5 and copy.labels == {"$1"}
        copy.words.append("extra")
        assert b.words == ["one", "two"]

    def test_deep_copy_detached(self):
        tree, _ = make_tree()
        clone = tree.deep_copy()
        clone.root.children[0].words.append("mutated")
        assert tree.root.children[0].words == ["one", "two"]

    def test_is_ancestor_after_renumber(self):
        tree, (root, b, c, d) = make_tree()
        assert root.is_ancestor_of(d)
        assert c.is_ancestor_of(d)
        assert not b.is_ancestor_of(d)
        assert not d.is_ancestor_of(d)

    def test_sketch(self):
        tree, (_r, b, *_rest) = make_tree()
        b.score = 0.8
        assert tree.sketch() == "a(b[0.8],c(d))"

    def test_to_xml_with_scores(self):
        tree, (_r, b, *_rest) = make_tree()
        b.score = 0.8
        xml = tree.to_xml(with_scores=True)
        assert 'score="0.8"' in xml
        assert "<d>three</d>" in xml


class TestDocumentConversion:
    def test_snode_mirrors_document(self):
        doc = parse_document('<a x="1">t<b>u</b></a>')
        node = snode_from_document(doc, 0)
        assert node.tag == "a"
        assert node.attrs == {"x": "1"}
        assert node.source == (0, 0)
        assert node.words == ["t"]
        assert node.children[0].words == ["u"]

    def test_tree_from_subtree(self):
        doc = parse_document("<a><b>x y</b><c/></a>")
        tree = tree_from_document(doc, 1)
        assert tree.root.tag == "b"
        assert tree.n_nodes() == 1

    def test_tree_from_text(self):
        tree = tree_from_text("p", "Hello World")
        assert tree.root.words == ["hello", "world"]


class TestStoredImage:
    XML = ('<a id="&amp;1">t <b score="2">u v</b><c/>'
           '<d lang="x">w<e>y</e></d></a>')

    def test_rows_are_slices_of_one_image(self):
        doc = parse_document(self.XML)
        assert doc._image is None            # not written at load
        assert StoredTree(doc, 1, full=True).to_xml() == \
            '<b score="2">u v</b>'
        assert StoredTree(doc, 1, 0.5).to_xml(with_scores=True) == \
            '<b score="0.5"/>'
        assert StoredTree(doc, 0, 1.5, full=True).to_xml(True) == (
            '<a id="&amp;1" score="1.5">t<b score="2">u v</b><c/>'
            '<d lang="x">w<e>y</e></d></a>')
        image = doc.image()
        assert image is doc.image()
        assert image.text[image.start[3]:image.open_end[3]] == \
            '<d lang="x"'

    def test_racing_builds_publish_one_image(self, monkeypatch):
        # Every thread reaches the writer before any publishes: each
        # builds its own image, and the document keeps exactly one.
        doc = parse_document(self.XML)
        n_threads = 4                        # more than the cores we use
        all_building = threading.Barrier(n_threads, timeout=10)
        builds = []
        write = Document._write_image

        def racing_write(self):
            all_building.wait()
            image = write(self)
            builds.append(image)
            return image

        monkeypatch.setattr(Document, "_write_image", racing_write)
        answers = {}

        def serialise(i):
            answers[i] = [
                StoredTree(doc, n, 1.25, full=full).to_xml(ws)
                for n in range(len(doc))
                for full in (False, True) for ws in (False, True)]

        threads = [threading.Thread(target=serialise, args=(i,))
                   for i in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(builds) == n_threads
        assert all(image == builds[0] for image in builds)
        assert all(answers[i] == answers[0] for i in range(n_threads))
        held = doc.image()
        assert len(builds) == n_threads      # published: no more builds
        assert any(held is image for image in builds)
        assert held is doc.image()

        def tree_writer(n, full, ws):
            tree = tree_from_document(doc, n) if full else STree(
                SNode(doc.tags[n], dict(doc.attrs.get(n, {}))))
            tree.root.score = 1.25
            return tree.to_xml(ws)

        assert answers[0] == [
            tree_writer(n, full, ws) for n in range(len(doc))
            for full in (False, True) for ws in (False, True)]


class TestMinimalHierarchy:
    def test_rebuild_skips_middle(self):
        tree, (root, _b, _c, d) = make_tree()
        roots = build_minimal_hierarchy([d, root])
        assert len(roots) == 1
        assert roots[0].tag == "a"
        assert [c.tag for c in roots[0].children] == ["d"]

    def test_duplicates_merged(self):
        tree, (root, b, *_rest) = make_tree()
        roots = build_minimal_hierarchy([b, root, b])
        assert len(roots) == 1
        assert len(roots[0].children) == 1

    def test_forest_when_no_common_ancestor_included(self):
        tree, (_root, b, _c, d) = make_tree()
        roots = build_minimal_hierarchy([b, d])
        assert [r.tag for r in roots] == ["b", "d"]

    def test_order_is_document_order(self):
        tree, (root, b, c, d) = make_tree()
        roots = build_minimal_hierarchy([c, b, root])
        assert [k.tag for k in roots[0].children] == ["b", "c"]

    def test_copies_carry_order_intervals(self):
        tree, (root, _b, _c, d) = make_tree()
        roots = build_minimal_hierarchy([root, d])
        copy_d = roots[0].children[0]
        assert copy_d.order_start == d.order_start
        assert copy_d.order_end == d.order_end
