"""Rule ``metric-drift``: code ↔ catalog ↔ docs agree on metric names.

Dashboards, the bench report, and the golden profiles all key on metric
name strings.  A typo'd name (``termjoin.posting_scanned``), a metric
added without documentation, or a doc row for a metric that no longer
exists are all silent at runtime — the registry happily creates any
name.  This rule pins the three artifacts together:

1. every ``rec.count`` / ``rec.observe`` / ``rec.set_gauge`` call site
   in the tree must name an entry of ``repro/obs/catalog.py``'s
   ``CATALOG`` (f-string segments are matched as wildcards, so
   ``f"operator.{self.name}.rows"`` is covered by
   ``operator.*.rows``), with the verb matching the declared kind
   (``count``→counter, ``observe``→histogram, ``set_gauge``→gauge);
2. every catalog entry must be emitted by at least one call site (no
   dead entries);
3. the metric table in ``docs/observability.md`` must equal the table
   generated from the catalog (``python -m repro.obs.catalog --write``
   refreshes it).

The catalog is read with ``ast.literal_eval`` from the tree being
linted — not imported — so the rule checks the code in front of it,
not whatever copy of the package happens to be installed.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from repro.analysis.core import Finding, ModuleInfo, Project, Rule, register

_CATALOG_RELPATH = "repro/obs/catalog.py"
_DOCS_NAME = "observability.md"

#: Emission verb -> required catalog kind.
_VERB_KIND = {"count": "counter", "observe": "histogram",
              "set_gauge": "gauge"}


def _load_catalog(module: ModuleInfo) -> Optional[Dict[str, tuple]]:
    """The ``CATALOG`` literal of the catalog module, or ``None``."""
    for node in module.tree.body:
        target = None
        if isinstance(node, ast.AnnAssign):
            target, value = node.target, node.value
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        else:
            continue
        if (
            isinstance(target, ast.Name)
            and target.id == "CATALOG"
            and value is not None
        ):
            try:
                parsed = ast.literal_eval(value)
            except ValueError:
                return None
            if isinstance(parsed, dict):
                return parsed
    return None


def _entry_line(module: ModuleInfo, name: str) -> int:
    """Source line of the catalog entry ``name`` (best effort)."""
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Constant) and node.value == name:
            return node.lineno
    return 1


def _is_recorder(expr: ast.expr) -> bool:
    """Is ``expr`` the obs recorder?  Matches the two idioms the
    codebase uses: a hoisted ``rec = _obs.RECORDER`` local (name
    ``rec``) and a direct ``..._obs.RECORDER.<verb>`` attribute chain."""
    if isinstance(expr, ast.Name):
        return expr.id == "rec"
    if isinstance(expr, ast.Attribute):
        return expr.attr == "RECORDER"
    return False


def _name_patterns(arg: ast.expr) -> List[str]:
    """Wildcard patterns a metric-name argument may evaluate to.

    ``Constant`` strings map to themselves; each f-string interpolation
    becomes a ``*``; an ``a if c else b`` conditional contributes both
    branches.  Anything else (a plain variable) is unresolvable and
    yields nothing — the registry-facing wrappers that forward a
    ``name`` parameter are not emission sites.
    """
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return [arg.value]
    if isinstance(arg, ast.JoinedStr):
        parts: List[str] = []
        for piece in arg.values:
            if isinstance(piece, ast.Constant):
                parts.append(str(piece.value))
            else:
                parts.append("*")
        pattern = "".join(parts)
        # Collapse adjacent wildcards introduced by back-to-back
        # interpolations so segment counts stay meaningful.
        while "**" in pattern:
            pattern = pattern.replace("**", "*")
        return [pattern]
    if isinstance(arg, ast.IfExp):
        return _name_patterns(arg.body) + _name_patterns(arg.orelse)
    return []


def _unify(a: str, b: str) -> bool:
    """Same semantics as :func:`repro.obs.catalog._unify`: ``*`` spans
    one or more segments, because interpolated prefixes carry dots
    (``metric_prefix = "cache.result"`` makes
    ``f"{self.metric_prefix}.hits"`` lint as ``*.hits``)."""
    sa, sb = a.split("."), b.split(".")

    def go(i: int, j: int) -> bool:
        if i == len(sa) and j == len(sb):
            return True
        if i == len(sa) or j == len(sb):
            return False
        x, y = sa[i], sb[j]
        if (x == "*" or y == "*" or x == y) and go(i + 1, j + 1):
            return True
        if x == "*" and go(i, j + 1):
            return True
        if y == "*" and go(i + 1, j):
            return True
        return False

    return go(0, 0)


@register
class MetricDriftRule(Rule):
    name = "metric-drift"
    description = (
        "metric names emitted in code, declared in "
        "repro/obs/catalog.py, and documented in "
        "docs/observability.md must agree"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        catalog_module = project.module_by_relpath(_CATALOG_RELPATH)
        if catalog_module is None:
            yield self.file_finding(
                _CATALOG_RELPATH, 1,
                "metric catalog module not found in the tree "
                "(repro/obs/catalog.py); the single source of truth "
                "for metric names is missing",
            )
            return
        catalog = _load_catalog(catalog_module)
        if catalog is None:
            yield self.finding(
                catalog_module, None,
                "CATALOG is not a literal dict; the lint pass (and "
                "docs generation) cannot read it",
            )
            return

        emitted: List[Tuple[str, str]] = []  # (pattern, kind)
        for module in project.modules:
            yield from self._check_module(module, catalog, emitted)

        # Catalog -> code: every entry must be emitted somewhere.
        for name, spec in sorted(catalog.items()):
            kind = spec[0] if isinstance(spec, (tuple, list)) else None
            covered = any(
                _unify(pattern, name)
                and (kind is None or emitted_kind == kind)
                for pattern, emitted_kind in emitted
            )
            if not covered:
                yield self.finding(
                    catalog_module,
                    _FakeNode(_entry_line(catalog_module, name)),
                    f"catalog entry {name!r} is never emitted by any "
                    f"rec.count/observe/set_gauge call site — remove it "
                    f"or wire up the emission",
                )

        yield from self._check_docs(project, catalog, catalog_module)

    # ------------------------------------------------------------------

    def _check_module(self, module: ModuleInfo, catalog: Dict[str, tuple],
                      emitted: List[Tuple[str, str]]) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            verb = func.attr
            if verb not in _VERB_KIND or not _is_recorder(func.value):
                continue
            if not node.args:
                continue
            kind = _VERB_KIND[verb]
            for pattern in _name_patterns(node.args[0]):
                if self._covered(catalog, pattern, kind):
                    emitted.append((pattern, kind))
                else:
                    wrong_kind = self._covered(catalog, pattern, None)
                    if wrong_kind:
                        yield self.finding(
                            module, node,
                            f"metric {pattern!r} is emitted via "
                            f".{verb}() but cataloged as "
                            f"{catalog[wrong_kind][0]!r} "
                            f"({wrong_kind!r})",
                        )
                    else:
                        yield self.finding(
                            module, node,
                            f"metric {pattern!r} ({kind}) is not in "
                            f"repro/obs/catalog.py — add it to CATALOG "
                            f"and regenerate the docs table",
                        )

    def _covered(self, catalog: Dict[str, tuple], pattern: str,
                 kind: Optional[str]) -> Optional[str]:
        for name, spec in catalog.items():
            entry_kind = spec[0] if isinstance(spec, (tuple, list)) else None
            if kind is not None and entry_kind != kind:
                continue
            if _unify(pattern, name):
                return name
        return None

    # ------------------------------------------------------------------

    def _check_docs(self, project: Project, catalog: Dict[str, tuple],
                    catalog_module: ModuleInfo) -> Iterator[Finding]:
        if project.docs_dir is None:
            return
        docs_path = project.docs_dir / _DOCS_NAME
        if not docs_path.is_file():
            return
        from repro.obs.catalog import check_docs

        normalized = {
            name: tuple(spec) if isinstance(spec, list) else spec
            for name, spec in catalog.items()
        }
        problem = check_docs(
            docs_path.read_text(encoding="utf-8"), normalized
        )
        if problem:
            yield self.file_finding(
                f"docs/{_DOCS_NAME}", 1, problem,
            )


class _FakeNode:
    """Minimal line/col anchor for findings not tied to one AST node."""

    def __init__(self, lineno: int, col_offset: int = 0) -> None:
        self.lineno = lineno
        self.col_offset = col_offset
