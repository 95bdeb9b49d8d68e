"""Per-rule good/bad fixtures for the engine invariant linter.

Each test builds a miniature source tree under ``tmp_path`` and runs
:func:`repro.analysis.lint` over it with one rule selected, asserting
the rule fires on the contract violation and stays silent on the
conforming twin.  The registries the cross-file rules consume (the
metric catalog, the fault-point table) are plain literals parsed from
the fixture tree itself, so fixtures carry their own copies.
"""

import textwrap

import pytest

from repro.analysis import lint
from repro.obs.catalog import docs_block


def run_lint(tmp_path, files, rules, docs=None):
    """Write ``files`` (relpath -> source) under a tmp root and lint."""
    root = tmp_path / "src"
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text), encoding="utf-8")
    docs_dir = None
    if docs is not None:
        docs_dir = tmp_path / "docs"
        docs_dir.mkdir(exist_ok=True)
        for name, text in docs.items():
            (docs_dir / name).write_text(text, encoding="utf-8")
    return lint(root=root, rules=rules, docs_dir=docs_dir)


def messages(result):
    return [f"{f.path}:{f.line} {f.message}" for f in result.findings]


# ----------------------------------------------------------------------
# operator-contract
# ----------------------------------------------------------------------

_OPERATOR_BASE = {
    "repro/engine/base.py": """
        class Operator:
            def __init__(self):
                self.children = []

            def open(self):
                self._open()

            def next(self):
                return self._next()

            def close(self):
                self._close()

            def _open(self):
                pass

            def _next(self):
                raise NotImplementedError

            def _close(self):
                pass
    """,
}


class TestOperatorContract:
    RULE = ["operator-contract"]

    def test_conforming_subclass_is_clean(self, tmp_path):
        files = dict(_OPERATOR_BASE)
        files["repro/engine/ops.py"] = """
            from repro.engine.base import Operator

            class Scan(Operator):
                def __init__(self, rows):
                    super().__init__()
                    self.rows = rows

                def _next(self):
                    return None
        """
        result = run_lint(tmp_path, files, self.RULE)
        assert result.findings == []

    def test_inherited_next_counts(self, tmp_path):
        files = dict(_OPERATOR_BASE)
        files["repro/engine/ops.py"] = """
            from repro.engine.base import Operator

            class Scan(Operator):
                def _next(self):
                    return None

            class FilteredScan(Scan):
                pass
        """
        result = run_lint(tmp_path, files, self.RULE)
        assert result.findings == []

    def test_overriding_protocol_method_flagged(self, tmp_path):
        files = dict(_OPERATOR_BASE)
        files["repro/engine/ops.py"] = """
            from repro.engine.base import Operator

            class Rogue(Operator):
                def _next(self):
                    return None

                def next(self):
                    return self._next()
        """
        result = run_lint(tmp_path, files, self.RULE)
        assert len(result.findings) == 1
        assert "overrides Operator.next()" in result.findings[0].message

    def test_init_without_super_flagged(self, tmp_path):
        files = dict(_OPERATOR_BASE)
        files["repro/engine/ops.py"] = """
            from repro.engine.base import Operator

            class Scan(Operator):
                def __init__(self, rows):
                    self.rows = rows

                def _next(self):
                    return None
        """
        result = run_lint(tmp_path, files, self.RULE)
        assert len(result.findings) == 1
        assert "super().__init__" in result.findings[0].message

    def test_missing_next_flagged(self, tmp_path):
        files = dict(_OPERATOR_BASE)
        files["repro/engine/ops.py"] = """
            from repro.engine.base import Operator

            class Hollow(Operator):
                pass
        """
        result = run_lint(tmp_path, files, self.RULE)
        assert len(result.findings) == 1
        assert "_next()" in result.findings[0].message

    def test_unrelated_class_sharing_a_subclass_name(self, tmp_path):
        # A class that merely shares its simple name with an Operator
        # subclass must not be dragged into the hierarchy.
        files = dict(_OPERATOR_BASE)
        files["repro/engine/ops.py"] = """
            from repro.engine.base import Operator

            class Scan(Operator):
                def _next(self):
                    return None
        """
        files["repro/other.py"] = """
            class Scan:
                def __init__(self):
                    self.rows = []
        """
        result = run_lint(tmp_path, files, self.RULE)
        assert result.findings == []


# ----------------------------------------------------------------------
# guard-hook
# ----------------------------------------------------------------------

class TestGuardHook:
    RULE = ["guard-hook"]

    def test_loop_without_tick_flagged(self, tmp_path):
        files = {
            "repro/access/foo.py": """
                def scan_all(postings):
                    out = []
                    for p in postings:
                        out.append(p)
                    return out
            """,
        }
        result = run_lint(tmp_path, files, self.RULE)
        assert len(result.findings) == 1
        assert "guard" in result.findings[0].message

    def test_loop_with_tick_is_clean(self, tmp_path):
        files = {
            "repro/access/foo.py": """
                from repro.resilience import guard as _resguard

                def scan_all(postings):
                    guard = _resguard.GUARD
                    out = []
                    for p in postings:
                        guard.tick()
                        out.append(p)
                    return out
            """,
        }
        result = run_lint(tmp_path, files, self.RULE)
        assert result.findings == []

    def test_delegation_to_ticking_helper_is_clean(self, tmp_path):
        files = {
            "repro/access/foo.py": """
                from repro.resilience import guard as _resguard

                def _merge(postings):
                    guard = _resguard.GUARD
                    for p in postings:
                        guard.tick()

                class Finder:
                    def run(self, postings):
                        for chunk in [postings]:
                            _merge(chunk)
            """,
        }
        result = run_lint(tmp_path, files, self.RULE)
        assert result.findings == []

    def test_entry_method_with_silent_loop_flagged(self, tmp_path):
        files = {
            "repro/access/foo.py": """
                class Finder:
                    def run(self, postings):
                        total = 0
                        while postings:
                            total += postings.pop()
                        return total
            """,
        }
        result = run_lint(tmp_path, files, self.RULE)
        assert len(result.findings) == 1

    def test_loopless_entry_point_is_clean(self, tmp_path):
        files = {
            "repro/access/foo.py": """
                def lookup(index, term):
                    return index.get(term)
            """,
        }
        result = run_lint(tmp_path, files, self.RULE)
        assert result.findings == []

    def test_non_target_module_not_governed(self, tmp_path):
        files = {
            "repro/core/foo.py": """
                def scan_all(postings):
                    out = []
                    for p in postings:
                        out.append(p)
                    return out
            """,
        }
        result = run_lint(tmp_path, files, self.RULE)
        assert result.findings == []


# ----------------------------------------------------------------------
# metric-drift
# ----------------------------------------------------------------------

_CATALOG_MODULE = {
    "repro/obs/catalog.py": """
        CATALOG = {
            "scan.rows": ("counter", "rows scanned"),
            "scan.time_ms": ("histogram", "scan latency"),
            "operator.*.rows": ("counter", "rows per operator"),
        }
    """,
}

_EMITTER_ALL = {
    "repro/engine/scan.py": """
        from repro import obs as _obs

        def scan(name, rows, ms):
            rec = _obs.RECORDER
            rec.count("scan.rows", rows)
            rec.observe("scan.time_ms", ms)
            rec.count(f"operator.{name}.rows", rows)
    """,
}


class TestMetricDrift:
    RULE = ["metric-drift"]

    def test_code_catalog_in_sync(self, tmp_path):
        files = {**_CATALOG_MODULE, **_EMITTER_ALL}
        result = run_lint(tmp_path, files, self.RULE)
        assert result.findings == []

    def test_uncataloged_emission_flagged(self, tmp_path):
        files = {**_CATALOG_MODULE, **_EMITTER_ALL}
        files["repro/engine/extra.py"] = """
            from repro import obs as _obs

            def oops():
                rec = _obs.RECORDER
                rec.count("scan.typo_rows")
        """
        result = run_lint(tmp_path, files, self.RULE)
        assert len(result.findings) == 1
        assert "scan.typo_rows" in result.findings[0].message
        assert "not in" in result.findings[0].message

    def test_wrong_kind_flagged(self, tmp_path):
        files = {**_CATALOG_MODULE, **_EMITTER_ALL}
        files["repro/engine/extra.py"] = """
            from repro import obs as _obs

            def oops(ms):
                rec = _obs.RECORDER
                rec.count("scan.time_ms")
        """
        result = run_lint(tmp_path, files, self.RULE)
        assert len(result.findings) == 1
        assert ".count()" in result.findings[0].message

    def test_dead_catalog_entry_flagged(self, tmp_path):
        files = dict(_CATALOG_MODULE)
        files["repro/engine/scan.py"] = """
            from repro import obs as _obs

            def scan(rows):
                rec = _obs.RECORDER
                rec.count("scan.rows", rows)
        """
        result = run_lint(tmp_path, files, self.RULE)
        never = [f for f in result.findings if "never emitted" in f.message]
        assert {m.message.split("'")[1] for m in never} == {
            "operator.*.rows", "scan.time_ms",
        }

    def test_missing_catalog_module_flagged(self, tmp_path):
        result = run_lint(tmp_path, dict(_EMITTER_ALL), self.RULE)
        assert any(
            "catalog module not found" in f.message for f in result.findings
        )

    def test_stale_docs_table_flagged(self, tmp_path):
        files = {**_CATALOG_MODULE, **_EMITTER_ALL}
        result = run_lint(
            tmp_path, files, self.RULE,
            docs={"observability.md": "# Metrics\n\nno markers here\n"},
        )
        assert any("markers not found" in f.message for f in result.findings)

    def test_generated_docs_table_in_sync(self, tmp_path):
        catalog = {
            "scan.rows": ("counter", "rows scanned"),
            "scan.time_ms": ("histogram", "scan latency"),
            "operator.*.rows": ("counter", "rows per operator"),
        }
        files = {**_CATALOG_MODULE, **_EMITTER_ALL}
        result = run_lint(
            tmp_path, files, self.RULE,
            docs={"observability.md": f"# Metrics\n\n{docs_block(catalog)}\n"},
        )
        assert result.findings == []


# ----------------------------------------------------------------------
# fault-point-drift
# ----------------------------------------------------------------------

_FAULT_REGISTRY = {
    "repro/resilience/faultinject.py": """
        FAULT_POINTS = {
            "persist.read": "reading a file",
            "persist.write": "writing a file",
        }

        class NullInjector:
            def fire(self, point, **ctx):
                pass

        INJECTOR = NullInjector()
    """,
}


class TestFaultPointDrift:
    RULE = ["fault-point-drift"]

    def test_registry_and_sites_in_sync(self, tmp_path):
        files = dict(_FAULT_REGISTRY)
        files["repro/xmldb/persist.py"] = """
            from repro.resilience.faultinject import INJECTOR

            def read(path):
                INJECTOR.fire("persist.read", path=path)

            def write(path):
                INJECTOR.fire("persist.write", path=path)
        """
        result = run_lint(tmp_path, files, self.RULE)
        assert result.findings == []

    def test_undeclared_point_flagged(self, tmp_path):
        files = dict(_FAULT_REGISTRY)
        files["repro/xmldb/persist.py"] = """
            from repro.resilience.faultinject import INJECTOR

            def read(path):
                INJECTOR.fire("persist.read", path=path)

            def write(path):
                INJECTOR.fire("persist.write", path=path)

            def rename(path):
                INJECTOR.fire("persist.rename", path=path)
        """
        result = run_lint(tmp_path, files, self.RULE)
        assert len(result.findings) == 1
        assert "persist.rename" in result.findings[0].message

    def test_stale_registry_entry_flagged(self, tmp_path):
        files = dict(_FAULT_REGISTRY)
        files["repro/xmldb/persist.py"] = """
            from repro.resilience.faultinject import INJECTOR

            def read(path):
                INJECTOR.fire("persist.read", path=path)
        """
        result = run_lint(tmp_path, files, self.RULE)
        assert len(result.findings) == 1
        assert "persist.write" in result.findings[0].message
        assert "never fired" in result.findings[0].message

    def test_wrapper_call_site_counts(self, tmp_path):
        files = dict(_FAULT_REGISTRY)
        files["repro/xmldb/persist.py"] = """
            from repro.resilience.faultinject import INJECTOR

            def _io(path, point):
                INJECTOR.fire(point, path=path)
                return path

            def read(path):
                return _io(path, "persist.read")

            def write(path):
                return _io(path, point="persist.write")
        """
        result = run_lint(tmp_path, files, self.RULE)
        assert result.findings == []

    def test_missing_registry_module_flagged(self, tmp_path):
        files = {
            "repro/xmldb/persist.py": """
                def read(path):
                    return path
            """,
        }
        result = run_lint(tmp_path, files, self.RULE)
        assert any(
            "registry module not found" in f.message
            for f in result.findings
        )


# ----------------------------------------------------------------------
# lock-discipline
# ----------------------------------------------------------------------

class TestLockDiscipline:
    RULE = ["lock-discipline"]

    def test_mutation_under_lock_is_clean(self, tmp_path):
        files = {
            "repro/perf/cache.py": """
                import threading

                class Cache:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._data = {}
                        self.hits = 0

                    def put(self, key, value):
                        with self._lock:
                            self._data[key] = value

                    def get(self, key):
                        with self._lock:
                            self.hits += 1
                            return self._data.get(key)
            """,
        }
        result = run_lint(tmp_path, files, self.RULE)
        assert result.findings == []

    def test_assignment_outside_lock_flagged(self, tmp_path):
        files = {
            "repro/perf/cache.py": """
                import threading

                class Cache:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self.hits = 0

                    def get(self, key):
                        self.hits += 1
                        return None
            """,
        }
        result = run_lint(tmp_path, files, self.RULE)
        assert len(result.findings) == 1
        assert "self.hits" in result.findings[0].message

    def test_mutator_call_outside_lock_flagged(self, tmp_path):
        files = {
            "repro/perf/cache.py": """
                import threading

                class Cache:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._data = {}

                    def evict(self, key):
                        self._data.pop(key, None)
            """,
        }
        result = run_lint(tmp_path, files, self.RULE)
        assert len(result.findings) == 1
        assert "self._data" in result.findings[0].message

    def test_lockless_class_not_governed(self, tmp_path):
        files = {
            "repro/perf/stats.py": """
                class Tally:
                    def __init__(self):
                        self.n = 0

                    def bump(self):
                        self.n += 1
            """,
        }
        result = run_lint(tmp_path, files, self.RULE)
        assert result.findings == []

    def test_outside_perf_is_governed(self, tmp_path):
        # Every lock-owning class is checked, wherever it lives.
        files = {
            "repro/core/cache.py": """
                import threading

                class Cache:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self.hits = 0

                    def get(self):
                        self.hits += 1
            """,
        }
        result = run_lint(tmp_path, files, self.RULE)
        assert len(result.findings) == 1
        assert "Cache.get mutates self.hits" in result.findings[0].message


# ----------------------------------------------------------------------
# resource-safety
# ----------------------------------------------------------------------

class TestResourceSafety:
    RULE = ["resource-safety"]

    def test_open_in_with_is_clean(self, tmp_path):
        files = {
            "repro/xmldb/io.py": """
                def read(path):
                    with open(path, "r", encoding="utf-8") as f:
                        return f.read()
            """,
        }
        result = run_lint(tmp_path, files, self.RULE)
        assert result.findings == []

    def test_wrapped_open_in_with_is_clean(self, tmp_path):
        files = {
            "repro/xmldb/io.py": """
                import contextlib

                def read(path):
                    with contextlib.closing(open(path)) as f:
                        return f.read()
            """,
        }
        result = run_lint(tmp_path, files, self.RULE)
        assert result.findings == []

    def test_bare_open_flagged(self, tmp_path):
        files = {
            "repro/xmldb/io.py": """
                def read(path):
                    f = open(path)
                    data = f.read()
                    f.close()
                    return data
            """,
        }
        result = run_lint(tmp_path, files, self.RULE)
        assert len(result.findings) == 1
        assert "open(" in result.findings[0].message

    def test_open_in_nested_function_not_credited(self, tmp_path):
        # The `with` is in the outer scope; the open() leaks from the
        # closure — crossing a function boundary must not count.
        files = {
            "repro/xmldb/io.py": """
                def read(path):
                    with open(path) as f:
                        def reopen():
                            return open(path)
                        return f.read(), reopen
            """,
        }
        result = run_lint(tmp_path, files, self.RULE)
        assert len(result.findings) == 1


# ----------------------------------------------------------------------
# suppressions
# ----------------------------------------------------------------------

class TestSuppressions:
    def test_trailing_comment_suppresses_own_line(self, tmp_path):
        files = {
            "repro/xmldb/io.py": """
                def read(path):
                    f = open(path)  # tix-lint: disable=resource-safety
                    return f
            """,
        }
        result = run_lint(tmp_path, files, ["resource-safety"])
        assert result.findings == []
        assert len(result.suppressed) == 1
        assert result.suppressed[0].rule == "resource-safety"

    def test_standalone_comment_suppresses_next_line(self, tmp_path):
        files = {
            "repro/xmldb/io.py": """
                def read(path):
                    # tix-lint: disable=resource-safety
                    f = open(path)
                    return f
            """,
        }
        result = run_lint(tmp_path, files, ["resource-safety"])
        assert result.findings == []
        assert len(result.suppressed) == 1

    def test_disable_all(self, tmp_path):
        files = {
            "repro/xmldb/io.py": """
                def read(path):
                    f = open(path)  # tix-lint: disable=all
                    return f
            """,
        }
        result = run_lint(tmp_path, files, ["resource-safety"])
        assert result.findings == []
        assert len(result.suppressed) == 1

    def test_other_rule_not_suppressed(self, tmp_path):
        files = {
            "repro/xmldb/io.py": """
                def read(path):
                    f = open(path)  # tix-lint: disable=guard-hook
                    return f
            """,
        }
        result = run_lint(tmp_path, files, ["resource-safety"])
        assert len(result.findings) == 1
        assert result.suppressed == []

    def test_directive_inside_string_ignored(self, tmp_path):
        files = {
            "repro/xmldb/io.py": """
                DOC = "# tix-lint: disable=resource-safety"

                def read(path):
                    f = open(path)
                    return f
            """,
        }
        result = run_lint(tmp_path, files, ["resource-safety"])
        assert len(result.findings) == 1


# ----------------------------------------------------------------------
# rule selection
# ----------------------------------------------------------------------

def test_unknown_rule_name_raises(tmp_path):
    (tmp_path / "src" / "repro").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "x.py").write_text("A = 1\n")
    with pytest.raises(ValueError, match="unknown rule"):
        lint(root=tmp_path / "src", rules=["no-such-rule"])

