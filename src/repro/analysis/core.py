"""Core types of the engine invariant linter.

The linter is a custom static-analysis pass over the repo's own Python
AST.  It exists because PRs 1–3 introduced contracts that runtime code
can only enforce *after* the bug ships — the operator state machine,
guard ticks in hot loops, the metric catalog, named fault points, lock
discipline in the thread-safe caches.  Each contract gets an AST rule
(:mod:`repro.analysis.rules`) so drift is caught on every PR, the same
role race detectors and sanitizer wiring play in serving stacks.

Vocabulary:

- :class:`ModuleInfo` — one parsed source file: path, AST, and the
  per-line ``# tix-lint: disable=RULE`` suppressions extracted from its
  comment tokens;
- :class:`Project` — every module under one source root, plus a
  project-wide class index (name → definitions) so rules can resolve
  inheritance across files;
- :class:`Rule` — a named check producing :class:`Finding`\\ s; concrete
  rules register themselves with :func:`register`;
- :class:`Finding` — one diagnostic, anchored to ``path:line:col``.

Suppression syntax: ``# tix-lint: disable=rule-a,rule-b`` (or
``disable=all``) silences matching findings on the comment's own line;
a *standalone* comment line additionally silences the line below it.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Dict, FrozenSet, Iterator, List, Optional, Type,
)

__all__ = [
    "Severity", "Finding", "ModuleInfo", "ClassInfo", "Project",
    "Rule", "register", "rule_classes", "get_rules",
]

#: Severities, weakest first; ``--fail-on`` compares by this order.
_SEVERITY_ORDER = ("warning", "error")


class Severity:
    """An ordered severity level (``warning`` < ``error``)."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        if name not in _SEVERITY_ORDER:
            raise ValueError(f"unknown severity {name!r}")
        self.name = name

    @property
    def rank(self) -> int:
        return _SEVERITY_ORDER.index(self.name)

    def __ge__(self, other: "Severity") -> bool:
        return self.rank >= other.rank

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Severity) and other.name == self.name

    def __hash__(self) -> int:
        return hash(self.name)

    def __repr__(self) -> str:
        return f"Severity({self.name!r})"


WARNING = Severity("warning")
ERROR = Severity("error")


@dataclass(frozen=True)
class Finding:
    """One diagnostic emitted by a rule, anchored to one site."""

    rule: str
    severity: str          # "warning" | "error"
    path: str              # posix path relative to the lint root
    line: int
    col: int
    message: str

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule)

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            # Report v2 field, kept for its readers; every rule now
            # anchors at one site, so the trail is always empty.
            "witness": [],
        }

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"[{self.severity}] {self.rule}: {self.message}"
        )


_SUPPRESS_RE = re.compile(
    r"#\s*tix-lint:\s*disable=([A-Za-z0-9_.,\-\s]+)"
)


def _extract_suppressions(source: str) -> Dict[int, FrozenSet[str]]:
    """``{line: {rule names}}`` from ``# tix-lint: disable=...`` comments.

    Uses the tokenizer (not a regex over raw lines) so directives inside
    string literals never count.  A standalone comment line suppresses
    itself and the following line; a trailing comment suppresses its own
    line only.
    """
    out: Dict[int, set] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            m = _SUPPRESS_RE.search(tok.string)
            if not m:
                continue
            rules = frozenset(
                part.strip() for part in m.group(1).split(",")
                if part.strip()
            )
            line = tok.start[0]
            standalone = tok.line[:tok.start[1]].strip() == ""
            out.setdefault(line, set()).update(rules)
            if standalone:
                out.setdefault(line + 1, set()).update(rules)
    except tokenize.TokenError:  # pragma: no cover - defensive
        pass
    return {line: frozenset(rules) for line, rules in out.items()}


class ModuleInfo:
    """One parsed source file under the lint root."""

    def __init__(self, path: Path, relpath: str, source: str,
                 tree: ast.Module) -> None:
        self.path = path
        self.relpath = relpath
        self.source = source
        self.tree = tree
        self.suppressions = _extract_suppressions(source)
        self._parents: Optional[Dict[ast.AST, ast.AST]] = None

    @classmethod
    def parse(cls, path: Path, root: Path) -> "ModuleInfo":
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        relpath = path.relative_to(root).as_posix()
        return cls(path, relpath, source, tree)

    def suppressed(self, rule: str, line: int) -> bool:
        rules = self.suppressions.get(line)
        if not rules:
            return False
        return rule in rules or "all" in rules

    def parent_of(self, node: ast.AST) -> Optional[ast.AST]:
        """The AST parent of ``node`` (lazily built for the module)."""
        if self._parents is None:
            parents: Dict[ast.AST, ast.AST] = {}
            for outer in ast.walk(self.tree):
                for child in ast.iter_child_nodes(outer):
                    parents[child] = outer
            self._parents = parents
        return self._parents.get(node)


@dataclass
class ClassInfo:
    """One class definition plus resolved structural facts."""

    name: str
    module: ModuleInfo
    node: ast.ClassDef
    base_names: List[str]
    method_names: FrozenSet[str] = field(default_factory=frozenset)


def _base_name(expr: ast.expr) -> Optional[str]:
    """Simple name of a base-class expression (``Operator`` or
    ``base.Operator``)."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


class Project:
    """Every module under one source root, plus cross-file indexes."""

    def __init__(self, root: Path, modules: List[ModuleInfo],
                 docs_dir: Optional[Path] = None) -> None:
        self.root = root
        self.modules = modules
        self.docs_dir = docs_dir
        #: simple class name -> every definition of that name
        self.classes: Dict[str, List[ClassInfo]] = {}
        for module in modules:
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                bases = [
                    b for b in map(_base_name, node.bases) if b is not None
                ]
                methods = frozenset(
                    item.name for item in node.body
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef))
                )
                info = ClassInfo(node.name, module, node, bases, methods)
                self.classes.setdefault(node.name, []).append(info)

    def module_by_relpath(self, relpath: str) -> Optional[ModuleInfo]:
        for module in self.modules:
            if module.relpath == relpath:
                return module
        return None

    def subclasses_of(self, root_name: str) -> List[ClassInfo]:
        """Every class transitively derived (by simple base name) from
        ``root_name`` — the root class itself excluded."""
        known = {root_name}
        out: List[ClassInfo] = []
        changed = True
        while changed:
            changed = False
            for name, infos in self.classes.items():
                if name in known:
                    continue
                # Only definitions that actually derive from a known
                # name qualify — an unrelated class that merely shares
                # its simple name with a subclass must not be dragged in.
                matching = [
                    info for info in infos
                    if any(base in known for base in info.base_names)
                ]
                if matching:
                    known.add(name)
                    out.extend(matching)
                    changed = True
        return out

    def ancestors_of(self, info: ClassInfo) -> Iterator[ClassInfo]:
        """Transitive base classes of ``info`` resolved by simple name
        (cycles guarded)."""
        seen = set()
        queue = list(info.base_names)
        while queue:
            name = queue.pop()
            if name in seen:
                continue
            seen.add(name)
            for base in self.classes.get(name, ()):
                yield base
                queue.extend(base.base_names)


class Rule:
    """Base class for lint rules.

    Subclasses set :attr:`name` / :attr:`severity` / :attr:`description`
    and implement :meth:`check`, yielding findings over the whole
    project (cross-module rules need the global view; single-module
    rules just loop ``project.modules``).
    """

    name: str = ""
    severity: Severity = ERROR
    description: str = ""

    def check(self, project: Project) -> Iterator[Finding]:
        raise NotImplementedError

    # -- helpers ---------------------------------------------------------

    def finding(self, module: ModuleInfo, node: Optional[ast.AST],
                message: str,
                severity: Optional[Severity] = None) -> Finding:
        line = getattr(node, "lineno", 1) if node is not None else 1
        col = getattr(node, "col_offset", 0) if node is not None else 0
        return Finding(
            rule=self.name,
            severity=(severity or self.severity).name,
            path=module.relpath,
            line=line,
            col=col + 1,
            message=message,
        )

    def file_finding(self, path: str, line: int, message: str,
                     severity: Optional[Severity] = None) -> Finding:
        """A finding against a non-module file (e.g. a docs page)."""
        return Finding(
            rule=self.name,
            severity=(severity or self.severity).name,
            path=path,
            line=line,
            col=1,
            message=message,
        )


#: name -> rule class, populated by :func:`register`.
_REGISTRY: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} has no rule name")
    if cls.name in _REGISTRY:
        raise ValueError(f"duplicate rule name {cls.name!r}")
    _REGISTRY[cls.name] = cls
    return cls


def rule_classes() -> Dict[str, Type[Rule]]:
    """The registry (name -> class), import-side-effect populated."""
    from repro.analysis import rules as _rules  # noqa: F401  (registers)

    return dict(_REGISTRY)


def get_rules(names: Optional[List[str]] = None) -> List[Rule]:
    """Instantiate the requested rules (all registered rules by
    default).  Unknown names raise ``ValueError``."""
    registry = rule_classes()
    if names is None:
        selected = sorted(registry)
    else:
        unknown = [n for n in names if n not in registry]
        if unknown:
            raise ValueError(
                f"unknown rule(s): {', '.join(sorted(unknown))}; "
                f"known: {', '.join(sorted(registry))}"
            )
        selected = list(dict.fromkeys(names))
    return [registry[n]() for n in selected]
