"""The whole-program lock graph: one interprocedural walk feeding
every concurrency rule.

The walk starts from *roots* — public entry points in the concurrent
modules plus thread-entry points (``threading.Thread(target=...)``,
``executor.submit(f)``, ``do_*`` HTTP handler methods) — and follows
resolvable calls (``self.m()``, typed-attribute methods, same-module
and imported project functions, class instantiation) while tracking
the set of held locks.  Along the way it records:

- **lock identities**: every ``self.<attr> = threading.Lock() /
  RLock() / Condition()`` assignment becomes the stable identity
  ``ClassName.attr`` (class hierarchy resolved, so subclasses share
  the defining class's identity);
- **acquisition-order edges**: entering ``with <lock B>:`` while
  holding lock A adds edge ``A → B`` with the full witness trail
  (acquisition sites and call steps from the root);
- **self-deadlocks**: re-acquiring a held non-reentrant ``Lock`` on
  the *same receiver expression* is an immediate deadlock;
- **blocking calls**: curated blocking operations (``time.sleep``,
  socket recv/send, ``Condition.wait`` on a *different* lock,
  blocking ``Queue.get/put``, ``Thread.join``, file I/O) executed
  while any lock is held;
- **entry-held sets**: for private methods, the locks provably held
  at *every* project-internal call site — the "helper always called
  under the lock" exemption ``lock-discipline`` needs;
- **shared classes**: classes reachable from ≥ 2 distinct roots (a
  thread root plus the main thread, or two thread roots) — the race
  detector's candidate set.

Known limitations of the static approximation (documented in
``docs/static-analysis.md``): locks acquired inside
``@contextmanager`` helpers are invisible to callers, closures and
nested functions are not walked, and receivers are typed by a simple
flow-insensitive assignment scan.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    Dict, FrozenSet, List, Optional, Set, Tuple,
)

from repro.analysis.concurrency.config import is_concurrent_module
from repro.analysis.core import ClassInfo, ModuleInfo, Project

__all__ = [
    "Edge", "SelfDeadlock", "BlockingCall", "LockGraph", "lock_graph",
    "find_cycles",
]

#: Bound on call-chain depth; deeper chains are truncated silently.
_MAX_DEPTH = 12

#: threading factory name -> lock kind.
_LOCK_KINDS = {"Lock": "lock", "RLock": "rlock", "Condition": "condition"}

#: Constructor simple name -> synthetic type marker.
_CTOR_TYPES = {
    "Lock": "Lock", "RLock": "RLock", "Condition": "Condition",
    "Event": "Event", "Semaphore": "Semaphore",
    "BoundedSemaphore": "Semaphore", "Barrier": "Barrier",
    "Thread": "Thread", "Timer": "Thread",
    "Queue": "Queue", "SimpleQueue": "Queue", "LifoQueue": "Queue",
    "PriorityQueue": "Queue",
    "socket": "socket", "create_connection": "socket",
    "ThreadPoolExecutor": "Executor",
}

#: Types whose in-place mutations are internally synchronized.
SYNC_TYPES = frozenset({
    "Lock", "RLock", "Condition", "Event", "Semaphore", "Barrier",
    "Queue",
})

#: Attribute calls that block regardless of receiver type.
_SOCKET_ALWAYS = frozenset({"recv", "recv_into", "sendall", "accept"})
#: Attribute calls that block only on a socket-typed receiver.
_SOCKET_TYPED = frozenset({"send", "connect", "makefile"})
#: File-object calls that block on a file-typed receiver.
_FILE_CALLS = frozenset({"read", "readline", "readlines", "write",
                         "flush"})
#: Queue calls with blocking semantics (unless ``block=False``).
_QUEUE_CALLS = frozenset({"get", "put"})


@dataclass(frozen=True)
class Edge:
    """Acquisition-order edge: ``dst`` acquired while ``src`` held."""

    src: str
    dst: str
    path: str
    line: int
    witness: Tuple[str, ...]


@dataclass(frozen=True)
class SelfDeadlock:
    """A non-reentrant lock re-acquired on the same receiver."""

    identity: str
    path: str
    line: int
    witness: Tuple[str, ...]


@dataclass(frozen=True)
class BlockingCall:
    """A blocking operation executed while holding ≥ 1 lock."""

    desc: str
    held: Tuple[str, ...]
    path: str
    line: int
    witness: Tuple[str, ...]


@dataclass
class LockGraph:
    """Everything the interprocedural walk learned about the tree."""

    #: lock identity -> kind ("lock" | "rlock" | "condition")
    locks: Dict[str, str] = field(default_factory=dict)
    #: defining class name -> {attr -> identity}
    lock_attrs: Dict[str, Dict[str, str]] = field(default_factory=dict)
    #: (src, dst) -> first Edge observed
    edges: Dict[Tuple[str, str], Edge] = field(default_factory=dict)
    self_deadlocks: List[SelfDeadlock] = field(default_factory=list)
    blocking: List[BlockingCall] = field(default_factory=list)
    #: (class name, method name) -> locks held at every call site
    entry_held: Dict[Tuple[str, str], FrozenSet[str]] = field(
        default_factory=dict)
    #: class name -> sorted root names reaching it (shared classes only)
    shared: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: class name -> {attr -> type marker} for concurrent-module classes
    attr_types: Dict[str, Dict[str, str]] = field(default_factory=dict)

    def class_lock_attrs(self, project: Project,
                         cls_info: ClassInfo) -> Dict[str, str]:
        """``{attr -> identity}`` of ``cls_info`` including locks
        inherited from project-resolvable ancestors."""
        out: Dict[str, str] = {}
        for ci in [cls_info, *project.ancestors_of(cls_info)]:
            for attr, ident in self.lock_attrs.get(ci.name, {}).items():
                out.setdefault(attr, ident)
        return out

    def owns_lock(self, project: Project, cls_info: ClassInfo) -> bool:
        return bool(self.class_lock_attrs(project, cls_info))


def _last_name(expr: ast.expr) -> Optional[str]:
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


def _ann_name(ann: Optional[ast.expr]) -> Optional[str]:
    """Simple type name of an annotation (``Foo``, ``mod.Foo``,
    ``"Foo"`` string annotations, ``Optional[Foo]``)."""
    if ann is None:
        return None
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        text = ann.value.strip().strip("'\"")
        text = text.split("[", 1)[0]
        return text.split(".")[-1] or None
    if isinstance(ann, (ast.Name, ast.Attribute)):
        return _last_name(ann)
    if isinstance(ann, ast.Subscript):
        head = _last_name(ann.value)
        if head == "Optional":
            inner = ann.slice
            return _ann_name(inner if isinstance(inner, ast.expr)
                             else None)
    return None


def _unparse(expr: ast.expr) -> str:
    try:
        return ast.unparse(expr)
    except Exception:  # pragma: no cover - defensive
        return "<expr>"


class _Builder:
    """Builds one :class:`LockGraph` for one project."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.graph = LockGraph()
        #: relpath -> {name -> top-level FunctionDef}
        self._mod_funcs: Dict[str, Dict[str, ast.FunctionDef]] = {}
        #: relpath -> {local name -> (dotted module, original name)}
        self._imports: Dict[str, Dict[str, Tuple[str, str]]] = {}
        #: class-def node id -> ClassInfo
        self._info_by_node: Dict[int, ClassInfo] = {}
        #: (class, method) -> held-identity sets seen at call sites
        self._callsites: Dict[Tuple[str, str],
                              List[FrozenSet[str]]] = {}
        #: method keys that are thread/handler roots (never exempt)
        self._root_methods: Set[Tuple[str, str]] = set()
        #: class name -> root names that reach it
        self._reached: Dict[str, Set[str]] = {}
        self._memo: Set[Tuple[str, int, FrozenSet[str]]] = set()

    # -- indexes ---------------------------------------------------------

    def _index(self) -> None:
        for module in self.project.modules:
            funcs: Dict[str, ast.FunctionDef] = {}
            imports: Dict[str, Tuple[str, str]] = {}
            for node in module.tree.body:
                if isinstance(node, ast.FunctionDef):
                    funcs[node.name] = node
                elif isinstance(node, ast.ImportFrom) and node.module:
                    for alias in node.names:
                        local = alias.asname or alias.name
                        imports[local] = (node.module, alias.name)
            self._mod_funcs[module.relpath] = funcs
            self._imports[module.relpath] = imports
        for infos in self.project.classes.values():
            for info in infos:
                self._info_by_node[id(info.node)] = info

    def _collect_locks(self) -> None:
        for module in self.project.modules:
            for cls in ast.walk(module.tree):
                if not isinstance(cls, ast.ClassDef):
                    continue
                for node in ast.walk(cls):
                    attr_kind = _self_attr_lock_assign(node)
                    if attr_kind is None:
                        continue
                    attr, kind = attr_kind
                    ident = f"{cls.name}.{attr}"
                    self.graph.locks[ident] = kind
                    self.graph.lock_attrs.setdefault(
                        cls.name, {})[attr] = ident

    def _collect_attr_types(self) -> None:
        for module in self.project.modules:
            if not is_concurrent_module(module.relpath):
                continue
            for cls in ast.walk(module.tree):
                if not isinstance(cls, ast.ClassDef):
                    continue
                types = self.graph.attr_types.setdefault(cls.name, {})
                for node in ast.walk(cls):
                    for attr, marker in _attr_type_facts(
                            node, self.project):
                        types.setdefault(attr, marker)

    # -- roots -----------------------------------------------------------

    def _roots(self) -> List[Tuple[str, ast.FunctionDef, ModuleInfo,
                                   Optional[ClassInfo]]]:
        roots: List[Tuple[str, ast.FunctionDef, ModuleInfo,
                          Optional[ClassInfo]]] = []
        for module in self.project.modules:
            if not is_concurrent_module(module.relpath):
                continue
            for node in module.tree.body:
                if (isinstance(node, ast.FunctionDef)
                        and not node.name.startswith("_")):
                    roots.append(("<main>", node, module, None))
                if not isinstance(node, ast.ClassDef):
                    continue
                info = self._info_by_node.get(id(node))
                if info is None:
                    continue
                handler = any(
                    base.endswith("RequestHandler")
                    for base in info.base_names
                )
                for item in node.body:
                    if not isinstance(item, ast.FunctionDef):
                        continue
                    if not item.name.startswith("_"):
                        roots.append(("<main>", item, module, info))
                    if handler and item.name.startswith("do_"):
                        name = f"handler:{node.name}.{item.name}"
                        roots.append((name, item, module, info))
                        self._root_methods.add((node.name, item.name))
            roots.extend(self._thread_roots(module))
        return roots

    def _thread_roots(
        self, module: ModuleInfo,
    ) -> List[Tuple[str, ast.FunctionDef, ModuleInfo,
                    Optional[ClassInfo]]]:
        out: List[Tuple[str, ast.FunctionDef, ModuleInfo,
                        Optional[ClassInfo]]] = []
        for cls_node, call in _thread_entry_calls(module):
            target = _entry_target(call)
            if target is None:
                continue
            resolved = self._resolve_target(target, module, cls_node)
            if resolved is None:
                continue
            fn, fn_module, fn_cls = resolved
            qual = (f"{fn_cls.name}.{fn.name}" if fn_cls else fn.name)
            kind = ("submit" if isinstance(call.func, ast.Attribute)
                    and call.func.attr == "submit" else "thread")
            out.append((f"{kind}:{qual}", fn, fn_module, fn_cls))
            if fn_cls is not None:
                self._root_methods.add((fn_cls.name, fn.name))
        return out

    def _resolve_target(
        self, target: ast.expr, module: ModuleInfo,
        cls_node: Optional[ast.ClassDef],
    ) -> Optional[Tuple[ast.FunctionDef, ModuleInfo,
                        Optional[ClassInfo]]]:
        """A ``target=`` / ``submit`` first-arg expression, resolved."""
        if (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self" and cls_node is not None):
            info = self._info_by_node.get(id(cls_node))
            if info is None:
                return None
            found = self._find_method(info, target.attr)
            if found is None:
                return None
            fn, fn_module, _owner = found
            return fn, fn_module, info
        if isinstance(target, ast.Name):
            return self._resolve_name(target.id, module)
        return None

    def _resolve_name(
        self, name: str, module: ModuleInfo,
    ) -> Optional[Tuple[ast.FunctionDef, ModuleInfo,
                        Optional[ClassInfo]]]:
        fn = self._mod_funcs[module.relpath].get(name)
        if fn is not None:
            return fn, module, None
        imported = self._imports[module.relpath].get(name)
        if imported is None:
            return None
        dotted, orig = imported
        relpath = dotted.replace(".", "/") + ".py"
        target_mod = self.project.module_by_relpath(relpath)
        if target_mod is None:
            return None
        fn = self._mod_funcs.get(target_mod.relpath, {}).get(orig)
        if fn is None:
            return None
        return fn, target_mod, None

    def _find_method(
        self, info: ClassInfo, name: str,
    ) -> Optional[Tuple[ast.FunctionDef, ModuleInfo, ClassInfo]]:
        for ci in [info, *self.project.ancestors_of(info)]:
            for item in ci.node.body:
                if (isinstance(item, ast.FunctionDef)
                        and item.name == name):
                    return item, ci.module, ci
        return None

    # -- the walk --------------------------------------------------------

    def build(self) -> LockGraph:
        self._index()
        self._collect_locks()
        self._collect_attr_types()
        for root, fn, module, cls in self._roots():
            self._walk_function(fn, module, cls, root, (), (), 0)
        self._finish_entry_held()
        self._finish_shared()
        return self.graph

    def _walk_function(
        self, fn: ast.FunctionDef, module: ModuleInfo,
        cls: Optional[ClassInfo], root: str,
        held: Tuple[Tuple[str, str], ...],
        trail: Tuple[str, ...], depth: int,
    ) -> None:
        if depth > _MAX_DEPTH:
            return
        # The root is part of the key: per-root reachability is what
        # the shared-class detector consumes, so a function memoized
        # under one root must still be walked under another.
        key = (root, id(fn), frozenset(i for i, _ in held))
        if key in self._memo:
            return
        self._memo.add(key)
        if cls is not None and is_concurrent_module(module.relpath):
            self._reached.setdefault(cls.name, set()).add(root)
        env = _local_env(fn, self.graph.attr_types.get(
            cls.name if cls else "", {}))
        for stmt in fn.body:
            self._visit(stmt, fn, module, cls, root, env, held,
                        trail, depth)

    def _visit(
        self, node: ast.AST, fn: ast.FunctionDef, module: ModuleInfo,
        cls: Optional[ClassInfo], root: str, env: Dict[str, str],
        held: Tuple[Tuple[str, str], ...],
        trail: Tuple[str, ...], depth: int,
    ) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda)):
            return  # nested scopes are not walked (documented)
        if isinstance(node, (ast.With, ast.AsyncWith)):
            new_held = held
            new_trail = trail
            for item in node.items:
                self._visit(item.context_expr, fn, module, cls, root,
                            env, new_held, new_trail, depth)
                resolved = self._resolve_lock(item.context_expr, cls,
                                              env)
                if resolved is None:
                    continue
                ident, kind, token = resolved
                qual = (f"{cls.name}.{fn.name}" if cls else fn.name)
                step = (f"{module.relpath}:{item.context_expr.lineno}: "
                        f"{qual} acquires {ident} "
                        f"(`with {token}:`)")
                reentrant = any(
                    h_id == ident and h_tok == token
                    for h_id, h_tok in new_held
                )
                if reentrant:
                    if kind == "lock":
                        self.graph.self_deadlocks.append(SelfDeadlock(
                            identity=ident,
                            path=module.relpath,
                            line=item.context_expr.lineno,
                            witness=new_trail + (step,),
                        ))
                    continue  # rlock/condition: reentrant, no edge
                for h_id, _h_tok in new_held:
                    edge_key = (h_id, ident)
                    if edge_key not in self.graph.edges:
                        self.graph.edges[edge_key] = Edge(
                            src=h_id, dst=ident,
                            path=module.relpath,
                            line=item.context_expr.lineno,
                            witness=new_trail + (step,),
                        )
                new_held = new_held + ((ident, token),)
                new_trail = new_trail + (step,)
            for stmt in node.body:
                self._visit(stmt, fn, module, cls, root, env,
                            new_held, new_trail, depth)
            return
        if isinstance(node, ast.Call):
            self._handle_call(node, fn, module, cls, root, env, held,
                              trail, depth)
        for child in ast.iter_child_nodes(node):
            self._visit(child, fn, module, cls, root, env, held,
                        trail, depth)

    def _handle_call(
        self, call: ast.Call, fn: ast.FunctionDef, module: ModuleInfo,
        cls: Optional[ClassInfo], root: str, env: Dict[str, str],
        held: Tuple[Tuple[str, str], ...],
        trail: Tuple[str, ...], depth: int,
    ) -> None:
        qual = (f"{cls.name}.{fn.name}" if cls else fn.name)
        step = (f"{module.relpath}:{call.lineno}: "
                f"{qual} calls {_unparse(call.func)}()")
        held_ids = frozenset(i for i, _ in held)
        func = call.func
        # self.m(...) — method on the current class hierarchy
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "self" and cls is not None):
            found = self._find_method(cls, func.attr)
            if found is not None:
                target_fn, target_mod, owner = found
                self._callsites.setdefault(
                    (owner.name, func.attr), []).append(held_ids)
                self._walk_function(target_fn, target_mod, cls, root,
                                    held, trail + (step,), depth + 1)
                return
        # <typed receiver>.m(...) — method on a project class
        if isinstance(func, ast.Attribute):
            recv_type = self._expr_type(func.value, cls, env)
            if recv_type is not None:
                infos = self.project.classes.get(recv_type, ())
                for info in infos:
                    found = self._find_method(info, func.attr)
                    if found is None:
                        continue
                    target_fn, target_mod, owner = found
                    self._callsites.setdefault(
                        (owner.name, func.attr), []).append(held_ids)
                    self._walk_function(target_fn, target_mod, info,
                                        root, held, trail + (step,),
                                        depth + 1)
                    return
        # f(...) / Cls(...) — module function or instantiation
        if isinstance(func, ast.Name):
            resolved = self._resolve_name(func.id, module)
            if resolved is not None:
                target_fn, target_mod, _none = resolved
                self._walk_function(target_fn, target_mod, None, root,
                                    held, trail + (step,), depth + 1)
                return
            infos = self.project.classes.get(func.id, ())
            for info in infos:
                if is_concurrent_module(info.module.relpath):
                    self._reached.setdefault(
                        info.name, set()).add(root)
                found = self._find_method(info, "__init__")
                if found is not None:
                    target_fn, target_mod, _owner = found
                    self._walk_function(target_fn, target_mod, info,
                                        root, held, trail + (step,),
                                        depth + 1)
                return
        # unresolved — the blocking-call checks apply if any lock is held
        if held:
            desc = self._blocking_reason(call, cls, env, held)
            if desc is not None:
                self.graph.blocking.append(BlockingCall(
                    desc=desc,
                    held=tuple(i for i, _ in held),
                    path=module.relpath,
                    line=call.lineno,
                    witness=trail + (
                        f"{module.relpath}:{call.lineno}: "
                        f"{qual} blocks in {desc}",),
                ))

    # -- typing / matching ----------------------------------------------

    def _expr_type(self, expr: ast.expr, cls: Optional[ClassInfo],
                   env: Dict[str, str]) -> Optional[str]:
        if isinstance(expr, ast.Name):
            return env.get(expr.id)
        if isinstance(expr, ast.Attribute):
            if (isinstance(expr.value, ast.Name)
                    and expr.value.id == "self" and cls is not None):
                return self.graph.attr_types.get(
                    cls.name, {}).get(expr.attr)
            inner = self._expr_type(expr.value, cls, env)
            if inner is not None:
                return self.graph.attr_types.get(
                    inner, {}).get(expr.attr)
        if isinstance(expr, ast.Call):
            return _call_type(expr, self.project)
        return None

    def _resolve_lock(
        self, expr: ast.expr, cls: Optional[ClassInfo],
        env: Dict[str, str],
    ) -> Optional[Tuple[str, str, str]]:
        """``with <expr>:`` resolved to (identity, kind, token)."""
        if not isinstance(expr, ast.Attribute):
            return None
        owner_name: Optional[str] = None
        if (isinstance(expr.value, ast.Name)
                and expr.value.id == "self" and cls is not None):
            attrs = self.graph.class_lock_attrs(self.project, cls)
            ident = attrs.get(expr.attr)
            if ident is not None:
                return ident, self.graph.locks[ident], _unparse(expr)
            return None
        owner_name = self._expr_type(expr.value, cls, env)
        if owner_name is None:
            return None
        ident = self.graph.lock_attrs.get(
            owner_name, {}).get(expr.attr)
        if ident is None:
            return None
        return ident, self.graph.locks[ident], _unparse(expr)

    def _blocking_reason(
        self, call: ast.Call, cls: Optional[ClassInfo],
        env: Dict[str, str],
        held: Tuple[Tuple[str, str], ...],
    ) -> Optional[str]:
        func = call.func
        if isinstance(func, ast.Name):
            if func.id == "sleep":
                return "time.sleep()"
            if func.id == "open":
                return "open()"
            return None
        if not isinstance(func, ast.Attribute):
            return None
        attr = func.attr
        recv = func.value
        if (attr == "sleep" and isinstance(recv, ast.Name)
                and recv.id == "time"):
            return "time.sleep()"
        if isinstance(recv, ast.Constant):
            return None  # ", ".join(...) and friends
        recv_type = self._expr_type(recv, cls, env)
        if attr in ("wait", "wait_for"):
            lock = self._resolve_lock(recv, cls, env)
            if lock is not None:
                ident = lock[0]
                others = [i for i, _ in held if i != ident]
                if others:
                    return (f"{ident}.wait() while still holding "
                            f"{', '.join(sorted(set(others)))}")
                return None  # waiting on the only held lock releases it
            if recv_type == "Event":
                return "Event.wait()"
            return None
        if attr in _SOCKET_ALWAYS:
            return f"socket .{attr}()"
        if attr in _SOCKET_TYPED and recv_type == "socket":
            return f"socket .{attr}()"
        if attr == "join" and recv_type == "Thread":
            return "Thread.join()"
        if attr in _QUEUE_CALLS and recv_type == "Queue":
            for kw in call.keywords:
                if (kw.arg == "block"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value is False):
                    return None
            return f"Queue.{attr}()"
        if attr in _FILE_CALLS and recv_type == "file":
            return f"file .{attr}()"
        return None

    # -- finalization ----------------------------------------------------

    def _finish_entry_held(self) -> None:
        for (cls_name, method), sets in self._callsites.items():
            if not method.startswith("_") or method.startswith("__"):
                continue  # public / dunder: callable from anywhere
            if (cls_name, method) in self._root_methods:
                continue  # thread entry: starts with nothing held
            common: FrozenSet[str] = frozenset.intersection(*sets)
            if common:
                self.graph.entry_held[(cls_name, method)] = common

    def _finish_shared(self) -> None:
        for cls_name, roots in self._reached.items():
            thread_roots = {r for r in roots if r != "<main>"}
            if not thread_roots:
                continue
            if len(thread_roots) >= 2 or "<main>" in roots:
                self.graph.shared[cls_name] = tuple(sorted(roots))


def _self_attr_lock_assign(
    node: ast.AST,
) -> Optional[Tuple[str, str]]:
    """``self.<attr> = threading.Lock()`` (or RLock / Condition) →
    (attr, kind)."""
    if isinstance(node, ast.Assign):
        targets = node.targets
        value: Optional[ast.expr] = node.value
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
        value = node.value
    else:
        return None
    if not isinstance(value, ast.Call):
        return None
    ctor = _last_name(value.func)
    kind = _LOCK_KINDS.get(ctor or "")
    if kind is None:
        return None
    for target in targets:
        if (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"):
            return target.attr, kind
    return None


def _attr_type_facts(
    node: ast.AST, project: Project,
) -> List[Tuple[str, str]]:
    """Type markers a statement reveals about ``self.<attr>``."""
    out: List[Tuple[str, str]] = []
    if isinstance(node, ast.AnnAssign):
        marker = _ann_name(node.annotation)
        target = node.target
        attr: Optional[str] = None
        if (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"):
            attr = target.attr
        elif isinstance(target, ast.Name):
            attr = target.id  # class-level annotation (e.g. dataclass)
        if attr and marker:
            out.append((attr, _normalize_type(marker, project)))
        if attr and node.value is not None:
            value_type = _call_type_opt(node.value, project)
            if value_type:
                out.append((attr, value_type))
    elif isinstance(node, ast.Assign):
        value_type = _call_type_opt(node.value, project)
        if value_type:
            for target in node.targets:
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    out.append((target.attr, value_type))
    return out


def _normalize_type(name: str, project: Project) -> str:
    if name in _CTOR_TYPES:
        return _CTOR_TYPES[name]
    if name in ("IO", "TextIO", "BinaryIO"):
        return "file"
    return name


def _call_type_opt(expr: ast.expr,
                   project: Project) -> Optional[str]:
    if isinstance(expr, ast.Call):
        return _call_type(expr, project)
    return None


def _call_type(call: ast.Call, project: Project) -> Optional[str]:
    name = _last_name(call.func)
    if name is None:
        return None
    if name == "open":
        return "file"
    if name in _CTOR_TYPES:
        return _CTOR_TYPES[name]
    if name in project.classes:
        return name
    return None


def _local_env(fn: ast.FunctionDef,
               attr_types: Dict[str, str]) -> Dict[str, str]:
    """Flow-insensitive ``{local name -> type marker}`` for one
    function body (annotated params + constructor assignments +
    ``x = self.<typed attr>``)."""
    env: Dict[str, str] = {}
    args = list(fn.args.posonlyargs) + list(fn.args.args) + list(
        fn.args.kwonlyargs)
    for arg in args:
        marker = _ann_name(arg.annotation)
        if marker:
            env[arg.arg] = marker
    for node in ast.walk(fn):
        if not isinstance(node, ast.Assign):
            continue
        if len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        if isinstance(node.value, ast.Call):
            name = _last_name(node.value.func)
            if name == "open":
                env.setdefault(target.id, "file")
            elif name in _CTOR_TYPES:
                env.setdefault(target.id, _CTOR_TYPES[name])
            elif name is not None:
                env.setdefault(target.id, name)
        elif (isinstance(node.value, ast.Attribute)
                and isinstance(node.value.value, ast.Name)
                and node.value.value.id == "self"):
            marker = attr_types.get(node.value.attr)
            if marker:
                env.setdefault(target.id, marker)
    return env


def _thread_entry_calls(
    module: ModuleInfo,
) -> List[Tuple[Optional[ast.ClassDef], ast.Call]]:
    """Every ``Thread(...)`` / ``.submit(...)`` call in the module,
    paired with its enclosing class (if any)."""
    out: List[Tuple[Optional[ast.ClassDef], ast.Call]] = []

    def scan(tree: ast.AST, cls: Optional[ast.ClassDef]) -> None:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _last_name(node.func)
            if name in ("Thread", "Timer") and any(
                    kw.arg == "target" for kw in node.keywords):
                out.append((cls, node))
            elif (isinstance(node.func, ast.Attribute)
                    and node.func.attr == "submit" and node.args):
                out.append((cls, node))

    for node in module.tree.body:
        if isinstance(node, ast.ClassDef):
            scan(node, node)
        else:
            scan(node, None)
    return out


def _entry_target(call: ast.Call) -> Optional[ast.expr]:
    if (isinstance(call.func, ast.Attribute)
            and call.func.attr == "submit"):
        return call.args[0] if call.args else None
    for kw in call.keywords:
        if kw.arg == "target":
            return kw.value
    return None


def lock_graph(project: Project) -> LockGraph:
    """The (cached) lock graph of ``project`` — one walk, shared by
    every concurrency rule in the run."""
    cached = getattr(project, "_concurrency_lock_graph", None)
    if isinstance(cached, LockGraph):
        return cached
    graph = _Builder(project).build()
    setattr(project, "_concurrency_lock_graph", graph)
    return graph


def find_cycles(
    edges: Dict[Tuple[str, str], Edge],
) -> List[List[Edge]]:
    """Every elementary cycle in the acquisition graph, deduplicated
    by canonical rotation (smallest node first)."""
    adj: Dict[str, List[str]] = {}
    for src, dst in edges:
        adj.setdefault(src, []).append(dst)
    for dsts in adj.values():
        dsts.sort()
    seen: Set[Tuple[str, ...]] = set()
    cycles: List[List[Edge]] = []

    def dfs(start: str, node: str, path: List[str],
            on_path: Set[str]) -> None:
        for nxt in adj.get(node, ()):  # noqa: B007
            if nxt == start:
                cyc = path[:]
                pivot = cyc.index(min(cyc))
                canon = tuple(cyc[pivot:] + cyc[:pivot])
                if canon not in seen:
                    seen.add(canon)
                    ring = list(canon) + [canon[0]]
                    cycles.append([
                        edges[(ring[i], ring[i + 1])]
                        for i in range(len(canon))
                    ])
            elif nxt not in on_path and nxt > start:
                # only expand nodes ordered after the start node so
                # each cycle is discovered from its smallest node once
                path.append(nxt)
                on_path.add(nxt)
                dfs(start, nxt, path, on_path)
                on_path.discard(nxt)
                path.pop()

    for node in sorted(adj):
        dfs(node, node, [node], {node})
    return cycles
