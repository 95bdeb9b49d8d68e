"""Engine invariant linter: AST rules for the contracts the repo's
own PRs introduced.

``tix lint`` (and CI) run :func:`repro.analysis.lint` over ``src/``:
engine-specific rules check the operator lifecycle protocol, guard
ticks in access-method loops, metric-name agreement with
:mod:`repro.obs.catalog` and ``docs/observability.md``, fault-point
names against :data:`repro.resilience.faultinject.FAULT_POINTS`,
context-managed file handles, and class-local lock discipline (a
class that owns a lock mutates its state only under it).  Lock
*order* is checked at runtime, not statically: the two-rank rule of
:mod:`repro.analysis.sanitizer` (``TIX_LOCK_SANITIZER=1``), which
the whole test suite runs under in CI.  See
``docs/static-analysis.md`` for the rule catalog and the
``# tix-lint: disable=RULE`` suppression syntax.
"""

from repro.analysis.core import (
    ERROR,
    WARNING,
    Finding,
    ModuleInfo,
    Project,
    Rule,
    Severity,
    get_rules,
    register,
    rule_classes,
)
from repro.analysis.report import (
    JSON_VERSION,
    render_human,
    render_json,
    to_dict,
)
from repro.analysis.runner import (
    LintResult,
    build_project,
    default_root,
    lint,
)

__all__ = [
    "ERROR",
    "WARNING",
    "Finding",
    "JSON_VERSION",
    "LintResult",
    "ModuleInfo",
    "Project",
    "Rule",
    "Severity",
    "build_project",
    "default_root",
    "get_rules",
    "lint",
    "register",
    "render_human",
    "render_json",
    "rule_classes",
    "to_dict",
]
