"""Discover sources, run rules, collect findings.

:func:`lint` is the library entry point ``tix lint`` wraps: build a
:class:`~repro.analysis.core.Project` from every ``*.py`` under a source
root, run the selected rules, and split raw findings into *active* and
*suppressed* (``# tix-lint: disable=RULE``) sets.

The default source root is the directory containing the importable
``repro`` package (i.e. ``src/`` in a checkout); the docs directory is
discovered as a ``docs/`` sibling of the root's parent, so the
metric-drift rule can verify ``docs/observability.md`` without any
configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.analysis.core import (
    ERROR,
    Finding,
    ModuleInfo,
    Project,
    Severity,
    get_rules,
)

__all__ = ["LintResult", "build_project", "lint", "default_root"]


def default_root() -> Path:
    """The source root of the importable ``repro`` package."""
    import repro

    return Path(repro.__file__).resolve().parent.parent


def _discover_docs(root: Path) -> Optional[Path]:
    """``docs/`` next to the source root (checkout layout), if present."""
    for base in (root.parent, root):
        candidate = base / "docs"
        if (candidate / "observability.md").is_file():
            return candidate
    return None


@dataclass
class LintResult:
    """Everything one lint run produced."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    rules_run: List[str] = field(default_factory=list)
    root: str = ""

    def count_at_least(self, severity: Severity) -> int:
        return sum(
            1 for f in self.findings
            if Severity(f.severity) >= severity
        )

    @property
    def n_errors(self) -> int:
        return self.count_at_least(ERROR)

    @property
    def n_warnings(self) -> int:
        return len(self.findings) - self.n_errors

    def summary(self) -> Dict[str, int]:
        return {
            "error": self.n_errors,
            "warning": self.n_warnings,
            "suppressed": len(self.suppressed),
        }


def build_project(root: Optional[Path] = None,
                  docs_dir: Optional[Path] = None) -> Project:
    """Parse every ``*.py`` under ``root`` into a project model.

    Files that fail to parse are *not* silently skipped — a broken file
    would hide every finding in it, so the syntax error propagates.
    """
    root = Path(root) if root is not None else default_root()
    root = root.resolve()
    if not root.is_dir():
        raise ValueError(f"lint root is not a directory: {root}")
    modules: List[ModuleInfo] = []
    for path in sorted(root.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        modules.append(ModuleInfo.parse(path, root))
    if docs_dir is None:
        docs_dir = _discover_docs(root)
    return Project(root, modules, docs_dir=docs_dir)


def lint(root: Optional[Path] = None,
         rules: Optional[List[str]] = None,
         docs_dir: Optional[Path] = None,
         project: Optional[Project] = None) -> LintResult:
    """Run the selected rules (default: all) over the tree at ``root``."""
    if project is None:
        project = build_project(root, docs_dir=docs_dir)
    rule_objs = get_rules(rules)
    result = LintResult(
        files_checked=len(project.modules),
        rules_run=[r.name for r in rule_objs],
        root=str(project.root),
    )
    docs_suppressions = _docs_suppressions(project)
    for rule in rule_objs:
        for finding in rule.check(project):
            if _is_suppressed(project, finding, docs_suppressions):
                result.suppressed.append(finding)
            else:
                result.findings.append(finding)
    result.findings.sort(key=Finding.sort_key)
    result.suppressed.sort(key=Finding.sort_key)
    return result


def _docs_suppressions(project: Project) -> Dict[str, ModuleInfo]:
    """Suppression support is per *module*; non-Python findings (docs
    files) have none.  Index modules by relpath once."""
    return {m.relpath: m for m in project.modules}


def _is_suppressed(project: Project, finding: Finding,
                   by_relpath: Dict[str, ModuleInfo]) -> bool:
    module = by_relpath.get(finding.path)
    if module is None:
        return False
    return module.suppressed(finding.rule, finding.line)
