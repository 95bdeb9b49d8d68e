"""Rule ``lock-discipline``: a lock-owning class mutates its state only
under its lock.

Any class that owns a lock attribute (``self._lock =
threading.Lock()``, an ``RLock``, or a ``Condition`` under any
attribute name), wherever it lives, mutates its attributes **only**
inside ``with self.<lock>:``.  A write that drifts outside the block
is a data race that no test catches deterministically.

The check is class-local.  In every method, each

- assignment / augmented assignment to ``self.<attr>`` or
  ``self.<attr>[...]``, and
- mutator call on a ``self.<attr>`` container (``pop``, ``clear``,
  ``move_to_end``, ...)

must have a ``with self.<lock>:`` ancestor naming one of the class's
locks.  Exemptions: ``__init__`` (the object is not yet published);
mutator calls on attributes the class builds from an internally
synchronized type (``Event.clear``, ``Queue.put``); and a private
helper whose every call inside its own class sits under
``with self.<lock>:``.  Reads are not checked: lifetime tallies are
read without the lock on purpose.  A method may opt out with
``# tix-lint: disable=lock-discipline`` where single-threaded use is
guaranteed.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Optional, Set

from repro.analysis.core import Finding, ModuleInfo, Project, Rule, register

#: Container methods that mutate in place.
_MUTATORS = frozenset({
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "update", "setdefault", "move_to_end", "add", "discard",
})

_LOCKS = frozenset({"Lock", "RLock", "Condition"})

#: Constructors whose objects synchronize their own mutations.
_SYNC = _LOCKS | {"Event", "Semaphore", "BoundedSemaphore", "Barrier",
                  "Queue", "SimpleQueue", "LifoQueue", "PriorityQueue"}


def _self_attr(expr: ast.AST) -> Optional[str]:
    if (isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"):
        return expr.attr
    return None


def _ctor_attrs(cls: ast.ClassDef, names: FrozenSet[str]) -> Set[str]:
    """Attributes assigned ``self.<attr> = <one of names>(...)``."""
    out: Set[str] = set()
    for node in ast.walk(cls):
        if (isinstance(node, (ast.Assign, ast.AnnAssign))
                and isinstance(node.value, ast.Call)):
            func = node.value.func
            ctor = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None)
            if ctor in names:
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                out.update(a for a in map(_self_attr, targets) if a)
    return out


def _under_lock(module: ModuleInfo, node: ast.AST, stop: ast.AST,
                locks: Set[str]) -> bool:
    """Is ``node`` inside ``with self.<lock>:`` within ``stop``?"""
    cur: Optional[ast.AST] = node
    while cur is not None and cur is not stop:
        if isinstance(cur, ast.With) and any(
                _self_attr(item.context_expr) in locks
                for item in cur.items):
            return True
        cur = module.parent_of(cur)
    return False


def _written_attr(node: ast.AST) -> Optional[str]:
    """If ``node`` mutates ``self.<attr>`` state, the attribute name."""
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target])
        for target in targets:
            if isinstance(target, ast.Subscript):
                target = target.value
            attr = _self_attr(target)
            if attr:
                return attr
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATORS):
        return _self_attr(node.func.value)
    return None


@register
class LockDisciplineRule(Rule):
    name = "lock-discipline"
    description = (
        "a class owning a lock mutates its attributes only inside "
        "`with self.<lock>:` blocks"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.modules:
            for cls in ast.walk(module.tree):
                if isinstance(cls, ast.ClassDef):
                    locks = _ctor_attrs(cls, _LOCKS)
                    if locks:
                        yield from self._check_class(module, cls, locks)

    def _check_class(self, module: ModuleInfo, cls: ast.ClassDef,
                     locks: Set[str]) -> Iterator[Finding]:
        sync = _ctor_attrs(cls, _SYNC)
        methods = [f for f in cls.body if isinstance(f, ast.FunctionDef)]
        exempt = self._locked_helpers(module, methods, locks)
        names = ", ".join(f"self.{a}" for a in sorted(locks))
        for fn in methods:
            if fn.name == "__init__" or fn.name in exempt:
                continue
            for node in ast.walk(fn):
                attr = _written_attr(node)
                if (attr is None or attr in locks
                        or (isinstance(node, ast.Call) and attr in sync)
                        or _under_lock(module, node, fn, locks)):
                    continue
                yield self.finding(
                    module, node,
                    f"{cls.name}.{fn.name} mutates self.{attr} outside "
                    f"`with {names}:` — a data race across the threads "
                    f"sharing this object",
                )

    @staticmethod
    def _locked_helpers(module: ModuleInfo,
                        methods: List[ast.FunctionDef],
                        locks: Set[str]) -> Set[str]:
        """Private helpers every in-class call to which is under a
        lock."""
        calls: Dict[str, bool] = {}
        for fn in methods:
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    name = _self_attr(node.func)
                    if name:
                        calls[name] = calls.get(name, True) and _under_lock(
                            module, node, fn, locks)
        return {
            fn.name for fn in methods
            if fn.name.startswith("_") and not fn.name.startswith("__")
            and calls.get(fn.name, False)
        }
