"""Unit tests for hardened persistence: checksums, atomic writes,
partial loads, and error wrapping (format version 2)."""

import json
import os

import pytest

from repro.errors import PersistError, TIXError
from repro.exampledata import example_store
from repro.resilience import FaultSpec, injecting
from repro.xmldb.persist import (
    FORMAT_VERSION,
    LoadReport,
    load_store,
    load_store_report,
    save_store,
)


@pytest.fixture()
def saved(tmp_path):
    """An example store saved to disk; returns (store, directory)."""
    store = example_store()
    directory = str(tmp_path / "db")
    save_store(store, directory)
    return store, directory


def _manifest(directory):
    with open(os.path.join(directory, "store.json")) as f:
        return json.load(f)


class TestFormatV2:
    def test_manifest_has_version_and_checksums(self, saved):
        _, directory = saved
        manifest = _manifest(directory)
        assert manifest["format_version"] == FORMAT_VERSION == 2
        for entry in manifest["documents"]:
            assert len(entry["sha256"]) == 64
            path = os.path.join(directory, entry["file"])
            assert os.path.getsize(path) == entry["bytes"]

    def test_no_tmp_files_after_save(self, saved):
        _, directory = saved
        assert not [f for f in os.listdir(directory)
                    if f.endswith(".tmp")]

    def _strip_checksums(self, directory, version):
        manifest = _manifest(directory)
        manifest["format_version"] = version
        for entry in manifest["documents"]:
            del entry["sha256"]
            del entry["bytes"]
        with open(os.path.join(directory, "store.json"), "w") as f:
            json.dump(manifest, f)

    def test_v1_manifest_is_an_unsupported_version(self, saved):
        _, directory = saved
        self._strip_checksums(directory, version=1)
        with pytest.raises(PersistError,
                           match="unsupported store format version 1"):
            load_store(directory)
        with pytest.raises(PersistError, match="unsupported"):
            load_store(directory, partial=True)  # manifest-level: raises

    def test_v2_entry_without_checksum_never_loads_unverified(self, saved):
        _, directory = saved
        self._strip_checksums(directory, version=FORMAT_VERSION)
        with pytest.raises(PersistError,
                           match="malformed manifest entry.*sha256"):
            load_store(directory)
        report = load_store_report(directory, partial=True)
        assert report.store.n_documents == 0
        assert len(report.skipped) == len(_manifest(directory)["documents"])


class TestCorruption:
    def _flip_byte(self, directory):
        """Flip one byte inside the first document file; return its path."""
        entry = _manifest(directory)["documents"][0]
        path = os.path.join(directory, entry["file"])
        data = bytearray(open(path, "rb").read())
        # flip a byte inside text content, keeping the XML well-formed
        i = data.index(b">") + 1
        data[i] ^= 0x01
        with open(path, "wb") as f:
            f.write(data)
        return path

    def test_flipped_byte_raises_persist_error_naming_file(self, saved):
        _, directory = saved
        path = self._flip_byte(directory)
        with pytest.raises(PersistError, match="checksum mismatch") as ei:
            load_store(directory)
        assert path in str(ei.value)
        assert ei.value.path == path

    def test_partial_load_skips_corrupt_doc(self, saved):
        store, directory = saved
        path = self._flip_byte(directory)
        report = load_store_report(directory, partial=True)
        assert isinstance(report, LoadReport)
        assert not report.complete
        assert len(report.skipped) == 1
        assert report.skipped[0].path == path
        assert report.store.n_documents == store.n_documents - 1

    def test_partial_load_skips_missing_doc(self, saved):
        store, directory = saved
        entry = _manifest(directory)["documents"][0]
        os.unlink(os.path.join(directory, entry["file"]))
        report = load_store_report(directory, partial=True)
        assert len(report.skipped) == 1
        assert "missing document" in str(report.skipped[0])
        assert report.store.n_documents == store.n_documents - 1

    def test_persist_error_is_tix_error(self):
        assert issubclass(PersistError, TIXError)


class TestErrorWrapping:
    def test_malformed_entry_wrapped_not_keyerror(self, saved):
        _, directory = saved
        manifest = _manifest(directory)
        manifest["documents"][0] = {"file": "doc00000.xml"}  # no "name"
        with open(os.path.join(directory, "store.json"), "w") as f:
            json.dump(manifest, f)
        with pytest.raises(PersistError, match="malformed manifest entry"):
            load_store(directory)

    def test_documents_not_a_list_wrapped(self, saved):
        _, directory = saved
        with open(os.path.join(directory, "store.json"), "w") as f:
            json.dump({"format_version": 2, "documents": {}}, f)
        with pytest.raises(PersistError, match="not a list"):
            load_store(directory)

    def test_manifest_not_an_object_wrapped(self, tmp_path):
        (tmp_path / "store.json").write_text("[1, 2]")
        with pytest.raises(PersistError, match="not a JSON object"):
            load_store(str(tmp_path))

    def test_unparsable_document_wrapped(self, saved):
        _, directory = saved
        entry = _manifest(directory)["documents"][0]
        path = os.path.join(directory, entry["file"])
        source = "<unclosed>"
        with open(path, "w") as f:
            f.write(source)
        # fix the checksum so the parse (not the digest) is what fails
        manifest = _manifest(directory)
        import hashlib
        manifest["documents"][0]["sha256"] = \
            hashlib.sha256(source.encode()).hexdigest()
        with open(os.path.join(directory, "store.json"), "w") as f:
            json.dump(manifest, f)
        with pytest.raises(PersistError, match="cannot parse") as ei:
            load_store(directory)
        assert ei.value.path == path

    def test_wrapped_errors_chain_cause(self, tmp_path):
        (tmp_path / "store.json").write_text("{broken")
        with pytest.raises(PersistError) as ei:
            load_store(str(tmp_path))
        assert isinstance(ei.value.__cause__, json.JSONDecodeError)


class TestAtomicity:
    def test_failed_save_leaves_previous_manifest(self, saved, tmp_path):
        store, directory = saved
        before = _manifest(directory)
        # every manifest write fails persistently: 3 retry attempts
        spec = FaultSpec("persist.write_manifest", at_calls=(1, 2, 3))
        with injecting([spec]):
            with pytest.raises(PersistError, match="cannot write"):
                save_store(store, directory)
        assert _manifest(directory) == before
        assert not [f for f in os.listdir(directory)
                    if f.endswith(".tmp")]

    def test_failed_replace_cleans_tmp(self, tmp_path):
        store = example_store()
        directory = str(tmp_path / "db")
        spec = FaultSpec("persist.replace", at_calls=(1, 2, 3))
        with injecting([spec]):
            with pytest.raises(PersistError):
                save_store(store, directory)
        assert not [f for f in os.listdir(directory)
                    if f.endswith(".tmp")]

    def test_transient_write_fault_survived_by_retry(self, tmp_path):
        store = example_store()
        directory = str(tmp_path / "db")
        # fail once on the first doc write; the retry must succeed
        spec = FaultSpec("persist.write_doc", at_calls=(1,), times=1)
        with injecting([spec]) as injector:
            save_store(store, directory)
        assert injector.fired.get("persist.write_doc") == 1
        loaded = load_store(directory)
        assert loaded.n_documents == store.n_documents
