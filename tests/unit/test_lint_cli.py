"""``tix lint`` CLI behaviour, the JSON report contract, and the
self-check: the real source tree must lint clean.

The JSON shape asserted here is versioned
(:data:`repro.analysis.JSON_VERSION`) — CI consumers parse it, so field
removals or renames must bump the version.
"""

import json
import textwrap

import pytest

from repro.analysis import (
    JSON_VERSION,
    default_root,
    findings_from_payload,
    lint,
    render_human,
    render_json,
    rule_classes,
    to_dict,
)
from repro.cli import main

EXPECTED_RULES = {
    "blocking-under-lock",
    "fault-point-drift",
    "guard-hook",
    "lock-discipline",
    "lock-order",
    "metric-drift",
    "operator-contract",
    "planner-registry-drift",
    "resource-safety",
    "shared-state-race",
}


def write_tree(tmp_path, files):
    root = tmp_path / "src"
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text), encoding="utf-8")
    return root

# The CLI runs every rule, and the cross-file rules demand their
# registries exist — fixture trees carry empty ones.
_REGISTRIES = {
    "repro/obs/catalog.py": "CATALOG = {}\n",
    "repro/resilience/faultinject.py": "FAULT_POINTS = {}\n",
    "repro/access/registry.py": "ACCESS_METHODS = {}\n",
}

_BAD_TREE = {
    **_REGISTRIES,
    "repro/xmldb/io.py": """
        def read(path):
            f = open(path)
            return f.read()
    """,
}

_CLEAN_TREE = {
    **_REGISTRIES,
    "repro/xmldb/io.py": """
        def read(path):
            with open(path) as f:
                return f.read()
    """,
}


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

def test_all_engine_rules_registered():
    assert set(rule_classes()) == EXPECTED_RULES


def test_rules_carry_descriptions_and_severities():
    for name, cls in rule_classes().items():
        assert cls.description, name
        assert cls.severity.name in ("warning", "error"), name


# ----------------------------------------------------------------------
# JSON report contract
# ----------------------------------------------------------------------

def test_json_report_schema(tmp_path):
    root = write_tree(tmp_path, _BAD_TREE)
    result = lint(root=root, rules=["resource-safety"])
    payload = json.loads(render_json(result))
    assert payload == to_dict(result)
    assert payload["version"] == JSON_VERSION == 2
    assert set(payload) == {
        "version", "root", "files_checked", "rules_run", "findings",
        "suppressed", "summary",
    }
    assert payload["files_checked"] == len(_BAD_TREE)
    assert payload["rules_run"] == ["resource-safety"]
    assert payload["summary"] == {
        "error": 1, "warning": 0, "suppressed": 0,
    }
    (finding,) = payload["findings"]
    assert set(finding) == {
        "rule", "severity", "path", "line", "col", "message",
        "witness",
    }
    assert finding["rule"] == "resource-safety"
    assert finding["severity"] == "error"
    assert finding["path"] == "repro/xmldb/io.py"
    assert finding["line"] >= 1 and finding["col"] >= 1
    assert finding["witness"] == []


def test_report_reader_reads_the_current_version_only(tmp_path):
    root = write_tree(tmp_path, _BAD_TREE)
    result = lint(root=root, rules=["resource-safety"])
    current = json.loads(render_json(result))
    (finding,) = findings_from_payload(current)
    assert finding.rule == "resource-safety"
    assert finding.witness == ()
    # An archived v1 report (no witness field) and a future one are
    # both rejected with the same typed error.
    v1 = json.loads(render_json(result))
    v1["version"] = 1
    for f in v1["findings"]:
        del f["witness"]
    for payload in (v1, {"version": 99, "findings": []}):
        with pytest.raises(ValueError, match="unsupported"):
            findings_from_payload(payload)


def test_human_report_summary_line(tmp_path):
    root = write_tree(tmp_path, _BAD_TREE)
    result = lint(root=root, rules=["resource-safety"])
    text = render_human(result)
    assert "1 error(s), 0 warning(s), 0 suppressed" in text
    assert "repro/xmldb/io.py" in text.splitlines()[0]


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def test_cli_exit_zero_on_clean_tree(tmp_path, capsys):
    root = write_tree(tmp_path, _CLEAN_TREE)
    assert main(["lint", str(root)]) == 0
    out = capsys.readouterr().out
    assert "0 error(s)" in out


def test_cli_exit_one_on_findings(tmp_path, capsys):
    root = write_tree(tmp_path, _BAD_TREE)
    assert main(["lint", str(root)]) == 1
    out = capsys.readouterr().out
    assert "resource-safety" in out


def test_cli_fail_on_warning_threshold(tmp_path):
    # A clean tree stays 0 even at the stricter threshold.
    root = write_tree(tmp_path, _CLEAN_TREE)
    assert main(["lint", str(root), "--fail-on", "warning"]) == 0


def test_cli_json_output(tmp_path, capsys):
    root = write_tree(tmp_path, _BAD_TREE)
    assert main(["lint", "--json", str(root)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == JSON_VERSION
    assert payload["summary"]["error"] == 1


def test_cli_rule_selection(tmp_path):
    root = write_tree(tmp_path, _BAD_TREE)
    assert main(["lint", str(root), "--rule", "guard-hook"]) == 0
    assert main(["lint", str(root), "--rule", "resource-safety"]) == 1


def test_cli_unknown_rule_exits_with_message(tmp_path, capsys):
    root = write_tree(tmp_path, _CLEAN_TREE)
    with pytest.raises(SystemExit, match="unknown rule"):
        main(["lint", str(root), "--rule", "bogus"])


def test_cli_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for name in EXPECTED_RULES:
        assert name in out


def test_cli_suppressed_shown_only_when_verbose(tmp_path, capsys):
    files = {
        **_REGISTRIES,
        "repro/xmldb/io.py": """
            def read(path):
                f = open(path)  # tix-lint: disable=resource-safety
                return f.read()
        """,
    }
    root = write_tree(tmp_path, files)
    assert main(["lint", str(root)]) == 0
    quiet = capsys.readouterr().out
    assert "1 suppressed" in quiet
    assert "suppressed:" not in quiet
    assert main(["lint", "--verbose", str(root)]) == 0
    loud = capsys.readouterr().out
    assert "suppressed:" in loud


# ----------------------------------------------------------------------
# self-check: the shipped source tree obeys its own invariants
# ----------------------------------------------------------------------

def test_real_source_tree_lints_clean():
    result = lint()
    assert result.rules_run == sorted(EXPECTED_RULES)
    assert result.files_checked > 50
    assert result.findings == [], render_human(result)


def test_real_source_tree_docs_in_sync():
    from repro.obs.catalog import check_docs

    docs = default_root().parent / "docs" / "observability.md"
    if not docs.is_file():  # pragma: no cover - installed-package run
        pytest.skip("docs/ not present (not a checkout)")
    assert check_docs(docs.read_text(encoding="utf-8")) is None


def test_catalog_entries_are_well_formed():
    from repro.obs.catalog import CATALOG, KINDS

    for name, (kind, doc) in CATALOG.items():
        assert kind in KINDS, name
        assert doc.strip(), name
        assert name == name.strip() and " " not in name, name
