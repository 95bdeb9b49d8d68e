"""Reporters for lint results: human-readable text and JSON.

The JSON shape is versioned and asserted by
``tests/unit/test_lint_cli.py`` — CI consumers may rely on it::

    {
      "version": 2,
      "root": "/abs/path/to/src",
      "files_checked": 93,
      "rules_run": ["fault-point-drift", ...],
      "findings": [{"rule", "severity", "path", "line", "col",
                    "message", "witness"}, ...],
      "suppressed": [...same shape...],
      "summary": {"error": 0, "warning": 0, "suppressed": 0}
    }

Version history:

- **1** — initial shape; findings carry
  ``rule``/``severity``/``path``/``line``/``col``/``message``.
- **2** — findings gain ``witness``, the concurrency rules'
  step-by-step evidence trail (empty list for single-site rules).

:func:`findings_from_payload` reads the current version only; any
other version raises ``ValueError``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping

from repro.analysis.core import Finding
from repro.analysis.runner import LintResult

__all__ = [
    "render_human", "render_json", "findings_from_payload",
    "JSON_VERSION",
]

JSON_VERSION = 2

#: Versions :func:`findings_from_payload` understands.
READABLE_VERSIONS = (JSON_VERSION,)


def render_human(result: LintResult, verbose: bool = False) -> str:
    lines = [f.render() for f in result.findings]
    if verbose and result.suppressed:
        lines.append("suppressed:")
        lines.extend("  " + f.render() for f in result.suppressed)
    s = result.summary()
    lines.append(
        f"tix lint: {result.files_checked} files, "
        f"{len(result.rules_run)} rules, "
        f"{s['error']} error(s), {s['warning']} warning(s), "
        f"{s['suppressed']} suppressed"
    )
    return "\n".join(lines)


def to_dict(result: LintResult) -> Dict[str, object]:
    return {
        "version": JSON_VERSION,
        "root": result.root,
        "files_checked": result.files_checked,
        "rules_run": list(result.rules_run),
        "findings": [f.to_dict() for f in result.findings],
        "suppressed": [f.to_dict() for f in result.suppressed],
        "summary": result.summary(),
    }


def render_json(result: LintResult) -> str:
    return json.dumps(to_dict(result), indent=2, sort_keys=True)


def findings_from_payload(
    payload: Mapping[str, Any],
) -> List[Finding]:
    """Reconstruct the active findings from a parsed JSON report.

    Any version outside :data:`READABLE_VERSIONS` raises
    ``ValueError`` rather than silently dropping fields the caller
    might depend on.
    """
    version = payload.get("version")
    if version not in READABLE_VERSIONS:
        raise ValueError(
            f"unsupported lint report version {version!r}; "
            f"readable: {READABLE_VERSIONS}"
        )
    out: List[Finding] = []
    for raw in payload.get("findings", []):
        out.append(Finding(
            rule=raw["rule"],
            severity=raw["severity"],
            path=raw["path"],
            line=raw["line"],
            col=raw["col"],
            message=raw["message"],
            witness=tuple(raw["witness"]),
        ))
    return out
