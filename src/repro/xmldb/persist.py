"""Store persistence: save/load an :class:`~repro.xmldb.store.XMLStore`
to disk, hardened for faulty substrates.

The on-disk layout is one directory with a JSON manifest and one XML file
per document.  Loading re-parses the XML, which regenerates identical
region numbering (the builder is deterministic), so persisted stores are
bit-for-bit equivalent to their originals — the round-trip tests assert
tags, regions and word tables match.

This is deliberately a *logical* dump (documents as XML), not a binary
page dump: it keeps the format durable, diffable and independent of the
in-memory layout, at the cost of re-indexing on load (indexes are lazy
and rebuild on first use anyway).

Fault tolerance (format version 2, see ``docs/robustness.md``):

- **atomic writes** — every file is written to a ``*.tmp`` sibling,
  flushed, fsync'd, and ``os.replace``'d into place, so a crash mid-save
  never leaves a half-written document or manifest visible;
- **integrity** — the manifest records each document's SHA-256 and byte
  size; :func:`load_store` verifies them and fails with a
  :class:`~repro.errors.PersistError` *naming the corrupt file*;
- **error discipline** — raw ``OSError`` / ``json.JSONDecodeError`` /
  ``KeyError`` never escape; everything is wrapped in ``PersistError``
  with the offending path, chained to the original cause;
- **partial load** — ``load_store(dir, partial=True)`` (or
  :func:`load_store_report`) skips corrupt/missing documents, loads the
  rest, and reports what was skipped;
- **transient-I/O retries** — file reads/writes go through
  :func:`repro.resilience.retry` (missing files are not retried), and
  every I/O step is a named fault point for the chaos suite
  (``persist.read_manifest`` … ``persist.replace``).

Format 2 is the only version read: a version-1 manifest (no
checksums) is an unsupported-version error, and a format-2 entry
without its ``sha256`` is a corrupt entry — nothing loads unverified.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List

from repro import obs as _obs
from repro.errors import PersistError, TIXError
from repro.resilience import faultinject as _fi
from repro.xmldb.store import XMLStore

MANIFEST_NAME = "store.json"
FORMAT_VERSION = 2
#: Versions :func:`load_store` accepts.
SUPPORTED_VERSIONS = (FORMAT_VERSION,)

#: Retry policy for transient I/O (module-level so tests can tune it).
IO_ATTEMPTS = 3
IO_BASE_DELAY = 0.005


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _read_file(path: str, point: str) -> str:
    """Read a text file through the fault-injection point and the
    transient-I/O retry policy."""

    def attempt() -> str:
        _fi.INJECTOR.fire(point, path=path)
        with open(path, "r", encoding="utf-8") as f:
            return f.read()

    return _fi.retry(attempt, attempts=IO_ATTEMPTS,
                     base_delay=IO_BASE_DELAY)


def _atomic_write(path: str, payload: str, point: str) -> None:
    """Write ``payload`` to ``path`` atomically (tmp + fsync + rename),
    through the fault-injection points and the retry policy."""

    tmp = path + ".tmp"

    def attempt() -> None:
        _fi.INJECTOR.fire(point, path=path)
        try:
            with open(tmp, "w", encoding="utf-8") as f:
                f.write(payload)
                f.flush()
                os.fsync(f.fileno())
            _fi.INJECTOR.fire("persist.replace", path=path)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass  # the original error wins
            raise

    try:
        _fi.retry(attempt, attempts=IO_ATTEMPTS, base_delay=IO_BASE_DELAY)
    except OSError as exc:
        raise PersistError(
            f"cannot write {path}: {exc}", path=path
        ) from exc


@dataclass
class LoadReport:
    """Outcome of a (possibly partial) store load."""

    store: XMLStore
    #: one :class:`~repro.errors.PersistError` per skipped document
    skipped: List[PersistError] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return not self.skipped


def save_store(store: XMLStore, directory: str) -> None:
    """Write ``store`` to ``directory`` (created if missing).

    Layout::

        directory/
          store.json          # manifest: version + document list
                              #   (file, sha256, bytes per document)
          doc00000.xml        # one file per document, load order
          …

    Every file lands atomically and the manifest is written *last*, so a
    failed save leaves any previous manifest (and the store it describes)
    intact.
    """
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError as exc:
        raise PersistError(
            f"cannot create store directory {directory}: {exc}",
            path=directory,
        ) from exc
    documents = []
    with _obs.RECORDER.span("persist.save", directory=directory):
        for doc in store.documents():
            filename = f"doc{doc.doc_id:05d}.xml"
            path = os.path.join(directory, filename)
            payload = doc.serialize()
            _atomic_write(path, payload, "persist.write_doc")
            documents.append({
                "name": doc.name,
                "file": filename,
                "sha256": _sha256(payload),
                "bytes": len(payload.encode("utf-8")),
            })
        manifest = {
            "format_version": FORMAT_VERSION,
            "documents": documents,
        }
        _atomic_write(
            os.path.join(directory, MANIFEST_NAME),
            json.dumps(manifest, indent=2),
            "persist.write_manifest",
        )


def _load_manifest(directory: str) -> Dict:
    manifest_path = os.path.join(directory, MANIFEST_NAME)
    try:
        raw = _read_file(manifest_path, "persist.read_manifest")
    except FileNotFoundError as exc:
        raise PersistError(
            f"no store manifest at {manifest_path}", path=manifest_path
        ) from exc
    except OSError as exc:
        raise PersistError(
            f"cannot read store manifest {manifest_path}: {exc}",
            path=manifest_path,
        ) from exc
    try:
        manifest = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise PersistError(
            f"corrupt store manifest {manifest_path}: {exc}",
            path=manifest_path,
        ) from exc
    if not isinstance(manifest, dict):
        raise PersistError(
            f"corrupt store manifest {manifest_path}: not a JSON object",
            path=manifest_path,
        )
    version = manifest.get("format_version")
    if version not in SUPPORTED_VERSIONS:
        raise PersistError(
            f"unsupported store format version {version!r} in "
            f"{manifest_path} (this build reads versions "
            f"{', '.join(map(str, SUPPORTED_VERSIONS))})",
            path=manifest_path,
        )
    return manifest


def _load_document(store: XMLStore, directory: str, entry: Dict,
                   manifest_path: str) -> None:
    """Read, verify, and parse one manifest entry into ``store``."""
    missing = [k for k in ("name", "file", "sha256")
               if not isinstance(entry, dict) or k not in entry]
    if missing:
        raise PersistError(
            f"malformed manifest entry in {manifest_path}: missing "
            f"{', '.join(missing)} in {entry!r}",
            path=manifest_path,
        )
    path = os.path.join(directory, entry["file"])
    try:
        source = _read_file(path, "persist.read_doc")
    except FileNotFoundError as exc:
        raise PersistError(
            f"manifest references missing document file {path}",
            path=path,
        ) from exc
    except OSError as exc:
        raise PersistError(
            f"cannot read document file {path}: {exc}", path=path
        ) from exc
    expected = str(entry["sha256"])
    actual = _sha256(source)
    if actual != expected:
        raise PersistError(
            f"checksum mismatch in {path}: manifest says "
            f"{expected[:12]}…, file hashes to {actual[:12]}… — "
            "the document is corrupt",
            path=path,
        )
    try:
        _fi.INJECTOR.fire("store.parse_doc", path=path)
        # ValueError covers catalog conflicts (duplicate document names);
        # OSError covers injected parse faults from the chaos suite.
        store.load(entry["name"], source)
    except (TIXError, ValueError, OSError) as exc:
        raise PersistError(
            f"cannot parse document file {path}: {exc}", path=path
        ) from exc


def load_store_report(directory: str, partial: bool = False) -> LoadReport:
    """Load a store previously written by :func:`save_store`, returning a
    :class:`LoadReport`.

    With ``partial=False`` the first bad document aborts the load with a
    :class:`~repro.errors.PersistError` naming the file.  With
    ``partial=True`` bad documents are skipped (best effort), the rest
    load normally, and the report lists one error per skipped document.
    Manifest-level problems (missing/corrupt/unsupported) always raise —
    without a trustworthy catalog there is nothing to partially load.
    """
    manifest_path = os.path.join(directory, MANIFEST_NAME)
    manifest = _load_manifest(directory)
    store = XMLStore()
    skipped: List[PersistError] = []
    entries = manifest.get("documents", [])
    if not isinstance(entries, list):
        raise PersistError(
            f"corrupt store manifest {manifest_path}: 'documents' is "
            "not a list",
            path=manifest_path,
        )
    with _obs.RECORDER.span("persist.load", directory=directory):
        for entry in entries:
            try:
                _load_document(store, directory, entry, manifest_path)
            except PersistError as exc:
                if not partial:
                    raise
                skipped.append(exc)
                rec = _obs.RECORDER
                if rec.enabled:
                    rec.count("persist.documents_skipped")
    return LoadReport(store=store, skipped=skipped)


def load_store(directory: str, partial: bool = False) -> XMLStore:
    """Load a store previously written by :func:`save_store`.

    ``partial=True`` skips corrupt or missing documents instead of
    failing (use :func:`load_store_report` to also see *what* was
    skipped).
    """
    return load_store_report(directory, partial=partial).store
