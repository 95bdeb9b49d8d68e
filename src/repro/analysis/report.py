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
  Those whole-program rules are retired (the runtime lock-rank check,
  :mod:`repro.analysis.sanitizer`, replaces them), so every rule now
  anchors at one site and ``witness`` is always ``[]``.  The field
  stays so that version-2 readers keep working.
"""

from __future__ import annotations

import json
from typing import Dict

from repro.analysis.runner import LintResult

__all__ = ["render_human", "render_json", "JSON_VERSION"]

JSON_VERSION = 2


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
