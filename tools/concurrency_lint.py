#!/usr/bin/env python
"""Concurrency lint: prove the engine's lock discipline over the AST.

The engine serves concurrent sessions (ROADMAP item 1), so every class that
owns a lock — and every class declared shared in
``src/repro/core/concurrency.py`` — is held to a checkable contract:

**Mutation rule.**  Inside a checked class, every mutation of ``self``
state outside ``__init__`` — subscript stores (``self.x[k] = v``), attribute
rebinds (``self.x = v``), augmented assigns, ``del``, and mutator-method
calls (``.setdefault`` / ``.update`` / ``.pop`` / ``.append`` / …, the forms
the old tier_lint rule missed) — must be covered by exactly one declaration
in the tables of ``core/concurrency.py``:

* ``GUARDED_BY[Class.attr] = lock``: the mutation must be lexically inside
  ``with self.<lock>``.  Lock-free *reads* stay legal (the double-checked
  publish idiom: readers race only against idempotent publication).
* ``IMMUTABLE_AFTER_INIT``: any post-``__init__`` mutation is a violation.
* ``THREAD_LOCAL`` / ``BENIGN_RACES`` / ``EXTERNALLY_GUARDED``: audited
  suppressions; the mutation is allowed where it stands.

An undeclared mutation fails the build, as does a *stale* declaration (a
class or attribute that no longer exists, a named lock the class does not
own, or one attribute declared in two tables) — the same teeth as the
``SPAN_EXEMPT_OPERATORS`` inventory.

**Lock-order rule.**  A lock-acquisition graph is built statically: nodes
are ``Class.lockattr``; an edge ``a -> b`` is added when code acquires ``b``
(directly via ``with self.<lock>``, or transitively through a resolvable
method call) while lexically holding ``a``.  Cross-class calls resolve only
when the method name is defined by exactly one repo class and is not a
container-style name (``get`` / ``pop`` / ``update`` / …) — conservative,
no false resolution.  A cycle in the graph is a potential deadlock; a path
that re-acquires a lock already held is a self-deadlock (all engine locks
are non-reentrant).  Both fail the build.  The runtime ``DebugLock``
sanitizer (``PROTEUS_DEBUG_LOCKS``) is the dynamic complement: it observes
the orders the static pass cannot resolve.

**Thread-entry rule.**  Every class that spawns ``threading.Thread`` workers
must be in the checked set; ``--inventory`` prints the full thread-entry map
(spawn sites, callback gauges, per-thread state) and the lock inventory.

Run as ``python tools/concurrency_lint.py`` from the repo root; exits
non-zero with one line per violation.  Functions take explicit roots so the
test suite can run them against seeded synthetic violations.
"""

from __future__ import annotations

import argparse
import ast
import sys
from dataclasses import dataclass, field
from pathlib import Path

#: Module (repo-relative) holding the declaration tables.
CONCURRENCY_MODULE = "src/repro/core/concurrency.py"

#: Tree the lint walks.
SOURCE_ROOT = "src/repro"

#: The attribute-level declaration tables, checked in this order.
DECLARATION_TABLES = (
    "GUARDED_BY",
    "THREAD_LOCAL",
    "IMMUTABLE_AFTER_INIT",
    "BENIGN_RACES",
    "EXTERNALLY_GUARDED",
)

#: Callables whose result assigned to ``self.<attr>`` in ``__init__`` makes
#: ``attr`` a lock attribute (and its class a checked class).
LOCK_FACTORIES = frozenset({"Lock", "RLock", "make_lock", "make_rlock"})

#: Methods allowed to mutate freely: construction happens before sharing.
INIT_METHODS = frozenset({"__init__", "__post_init__"})

#: Naming convention for internal helpers that run with the owner's lock
#: already held (``CacheManager._evict_locked``).  Such methods are analyzed
#: as if every lock of their class were held — and in exchange, every call
#: site of a ``*_locked`` method must itself lexically hold a lock, which is
#: how the lint catches an unlocked caller.
LOCKED_HELPER_SUFFIX = "_locked"

#: Method names that mutate their receiver — the non-subscript forms the
#: old tier_lint lock rule missed (``setdefault``, ``update``, ``pop``, …),
#: and ``merge``, which folds a morsel's counters into a shared profile.
MUTATOR_METHODS = frozenset(
    {
        "setdefault",
        "update",
        "append",
        "appendleft",
        "extend",
        "extendleft",
        "add",
        "insert",
        "remove",
        "discard",
        "pop",
        "popleft",
        "popitem",
        "clear",
        "sort",
        "reverse",
        "merge",
    }
)

#: Method names never resolved across classes: they collide with the
#: built-in container/lock protocol, so ``x.pop()`` on an arbitrary object
#: must not be attributed to some repo class that happens to define ``pop``.
AMBIGUOUS_METHODS = MUTATOR_METHODS | frozenset(
    {
        "get",
        "set",
        "copy",
        "items",
        "keys",
        "values",
        "count",
        "index",
        "join",
        "split",
        "strip",
        "acquire",
        "release",
        "put",
        "close",
        "open",
        "read",
        "write",
    }
)


# ---------------------------------------------------------------------------
# Repo model
# ---------------------------------------------------------------------------


@dataclass
class ClassInfo:
    """Everything the lint knows about one class definition."""

    name: str
    module: str  # repo-relative path
    node: ast.ClassDef
    bases: list[str] = field(default_factory=list)
    lock_attrs: set[str] = field(default_factory=set)
    assigned_attrs: set[str] = field(default_factory=set)
    methods: dict[str, ast.FunctionDef] = field(default_factory=dict)


@dataclass
class ThreadEntry:
    """One inventoried thread-related site."""

    kind: str  # "thread-spawn" | "callback-gauge" | "thread-local-state"
    module: str
    lineno: int
    owner: str | None  # enclosing class, if any


@dataclass
class RepoModel:
    """All classes of the checked tree plus the thread-entry inventory."""

    classes: dict[str, ClassInfo] = field(default_factory=dict)
    entries: list[ThreadEntry] = field(default_factory=list)
    #: method name -> class names defining it (for unique resolution).
    method_owners: dict[str, set[str]] = field(default_factory=dict)

    def chain(self, class_name: str) -> list[ClassInfo]:
        """The class and its repo-defined bases, nearest first."""
        result: list[ClassInfo] = []
        queue = [class_name]
        seen: set[str] = set()
        while queue:
            name = queue.pop(0)
            if name in seen:
                continue
            seen.add(name)
            info = self.classes.get(name)
            if info is None:
                continue
            result.append(info)
            queue.extend(info.bases)
        return result

    def lock_attrs_of(self, class_name: str) -> set[str]:
        attrs: set[str] = set()
        for info in self.chain(class_name):
            attrs |= info.lock_attrs
        return attrs

    def lock_node(self, class_name: str, attr: str) -> str:
        """Graph node for a lock attribute: named after the owning class, so
        an inherited lock (``Gauge`` using ``Counter._lock``) is one node."""
        for info in self.chain(class_name):
            if attr in info.lock_attrs:
                return f"{info.name}.{attr}"
        return f"{class_name}.{attr}"

    def resolve_method(
        self, class_name: str | None, method: str
    ) -> tuple[str, str] | None:
        """Resolve a call target to a (class, method) key, or ``None``.

        ``self.m()`` resolves through the class chain; ``other.m()`` resolves
        only when exactly one repo class defines ``m`` and the name is not
        container-ambiguous.
        """
        if method.startswith("__"):
            return None
        if class_name is not None:
            for info in self.chain(class_name):
                if method in info.methods:
                    return (info.name, method)
            return None
        if method in AMBIGUOUS_METHODS:
            return None
        owners = self.method_owners.get(method, set())
        if len(owners) == 1:
            owner = next(iter(owners))
            return (owner, method)
        return None


def _self_base_attr(node: ast.expr) -> str | None:
    """The first attribute off ``self`` in a target/receiver chain:
    ``self.x`` → x, ``self.x[k]`` → x, ``self.stats.hits`` → stats."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if not isinstance(node, ast.Attribute):
        return None
    while isinstance(node.value, (ast.Attribute, ast.Subscript)):
        inner = node.value
        node = inner if isinstance(inner, ast.Attribute) else None  # type: ignore[assignment]
        if node is None:
            inner_sub = inner
            while isinstance(inner_sub, ast.Subscript):
                inner_sub = inner_sub.value
            if not isinstance(inner_sub, ast.Attribute):
                return None
            node = inner_sub
    if isinstance(node.value, ast.Name) and node.value.id == "self":
        return node.attr
    return None


def _is_lock_factory_call(value: ast.expr) -> bool:
    if isinstance(value, ast.IfExp):
        return _is_lock_factory_call(value.body) or _is_lock_factory_call(
            value.orelse
        )
    if not isinstance(value, ast.Call):
        return False
    func = value.func
    name = func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else None
    )
    return name in LOCK_FACTORIES


def build_model(root: Path) -> RepoModel:
    """Parse every module under ``root/src/repro`` into a :class:`RepoModel`."""
    model = RepoModel()
    source_root = root / SOURCE_ROOT
    for path in sorted(source_root.rglob("*.py")):
        rel = str(path.relative_to(root))
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=rel)
        _scan_module(model, tree, rel)
    for info in model.classes.values():
        for method in info.methods:
            model.method_owners.setdefault(method, set()).add(info.name)
    return model


def _scan_module(model: RepoModel, tree: ast.Module, rel: str) -> None:
    class_stack: list[str] = []

    def walk(node: ast.AST, owner: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            child_owner = owner
            if isinstance(child, ast.ClassDef):
                info = ClassInfo(name=child.name, module=rel, node=child)
                info.bases = [
                    base.id
                    if isinstance(base, ast.Name)
                    else base.attr
                    if isinstance(base, ast.Attribute)
                    else ""
                    for base in child.bases
                ]
                for member in child.body:
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        info.methods.setdefault(member.name, member)  # type: ignore[arg-type]
                    elif isinstance(member, ast.AnnAssign) and isinstance(
                        member.target, ast.Name
                    ):
                        info.assigned_attrs.add(member.target.id)
                    elif isinstance(member, ast.Assign):
                        for target in member.targets:
                            if isinstance(target, ast.Name):
                                info.assigned_attrs.add(target.id)
                _collect_attrs(info)
                model.classes.setdefault(child.name, info)
                child_owner = child.name
            elif isinstance(child, ast.Call):
                _inventory_call(model, child, rel, owner)
            walk(child, child_owner)

    walk(tree, None)


def _collect_attrs(info: ClassInfo) -> None:
    """Attributes assigned on ``self`` anywhere in the class; lock attributes
    from factory calls in ``__init__``/``__post_init__``."""
    for method_name, method in info.methods.items():
        for node in ast.walk(method):
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(node, ast.Assign):
                targets, value = list(node.targets), node.value
            elif isinstance(node, ast.AnnAssign):
                targets, value = [node.target], node.value
            elif isinstance(node, ast.AugAssign):
                targets = [node.target]
            for target in targets:
                elts = target.elts if isinstance(target, ast.Tuple) else [target]
                for element in elts:
                    if (
                        isinstance(element, ast.Attribute)
                        and isinstance(element.value, ast.Name)
                        and element.value.id == "self"
                    ):
                        info.assigned_attrs.add(element.attr)
                        if (
                            method_name in INIT_METHODS
                            and value is not None
                            and _is_lock_factory_call(value)
                        ):
                            info.lock_attrs.add(element.attr)


def _inventory_call(
    model: RepoModel, call: ast.Call, rel: str, owner: str | None
) -> None:
    func = call.func
    attr = func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else None
    )
    if attr == "Thread":
        model.entries.append(ThreadEntry("thread-spawn", rel, call.lineno, owner))
    elif attr == "gauge_callback":
        model.entries.append(
            ThreadEntry("callback-gauge", rel, call.lineno, owner)
        )
    elif attr in ("local", "get_ident"):
        base = func.value if isinstance(func, ast.Attribute) else None
        if isinstance(base, ast.Name) and base.id == "threading":
            model.entries.append(
                ThreadEntry("thread-local-state", rel, call.lineno, owner)
            )


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@dataclass
class Declarations:
    """The tables from ``core/concurrency.py`` plus the shared-class set."""

    shared_classes: dict[str, str] = field(default_factory=dict)
    tables: dict[str, dict[str, str]] = field(default_factory=dict)

    def lookup(
        self, chain: list[ClassInfo], attr: str
    ) -> tuple[str, str] | None:
        """(table, value) for ``attr`` on the nearest declaring class."""
        for info in chain:
            key = f"{info.name}.{attr}"
            for table in DECLARATION_TABLES:
                value = self.tables.get(table, {}).get(key)
                if value is not None:
                    return (table, value)
        return None


def load_declarations(concurrency_path: Path) -> Declarations:
    """Read the declaration dict literals (AST only, no import)."""
    tree = ast.parse(
        concurrency_path.read_text(encoding="utf-8"), filename=str(concurrency_path)
    )
    wanted = set(DECLARATION_TABLES) | {"SHARED_CLASSES"}
    found: dict[str, dict[str, str]] = {}
    for node in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = list(node.targets), node.value
        elif isinstance(node, ast.AnnAssign):
            targets, value = [node.target], node.value
        for target in targets:
            if (
                isinstance(target, ast.Name)
                and target.id in wanted
                and isinstance(value, ast.Dict)
            ):
                entries: dict[str, str] = {}
                for key, val in zip(value.keys, value.values):
                    if isinstance(key, ast.Constant) and isinstance(key.value, str):
                        entries[key.value] = (
                            val.value
                            if isinstance(val, ast.Constant)
                            and isinstance(val.value, str)
                            else ""
                        )
                found[target.id] = entries
    missing = sorted(wanted - set(found))
    if missing:
        raise SystemExit(
            f"concurrency_lint: {concurrency_path} lacks declaration "
            f"table(s): {', '.join(missing)}"
        )
    return Declarations(
        shared_classes=found["SHARED_CLASSES"],
        tables={name: found[name] for name in DECLARATION_TABLES},
    )


def checked_classes(model: RepoModel, decls: Declarations) -> set[str]:
    """Lock owners ∪ declared shared classes ∪ classes named in any table."""
    names = {
        info.name for info in model.classes.values() if model.lock_attrs_of(info.name)
    }
    names |= set(decls.shared_classes) & set(model.classes)
    for table in decls.tables.values():
        for key in table:
            class_name = key.split(".", 1)[0]
            if class_name in model.classes:
                names.add(class_name)
    return names


# ---------------------------------------------------------------------------
# Mutation rule
# ---------------------------------------------------------------------------


class _MutationVisitor(ast.NodeVisitor):
    """Walks one method, tracking held locks lexically, checking mutations."""

    def __init__(
        self,
        model: RepoModel,
        decls: Declarations,
        info: ClassInfo,
        method_name: str,
        in_init: bool,
        violations: list[str],
    ) -> None:
        self.model = model
        self.decls = decls
        self.info = info
        self.chain = model.chain(info.name)
        self.lock_attrs = model.lock_attrs_of(info.name)
        self.method_name = method_name
        self.in_init = in_init
        self.violations = violations
        self.held: list[str] = []  # lock attr names, innermost last
        if method_name.endswith(LOCKED_HELPER_SUFFIX):
            # A *_locked helper runs with its owner's lock already held;
            # the obligation moves to its call sites (checked below).
            self.held.extend(sorted(self.lock_attrs))

    # -- lock scopes -------------------------------------------------------

    def visit_With(self, node: ast.With) -> None:
        acquired: list[str] = []
        for item in node.items:
            expr = item.context_expr
            if (
                isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
                and expr.attr in self.lock_attrs
            ):
                acquired.append(expr.attr)
        self.held.extend(acquired)
        self.generic_visit(node)
        for _ in acquired:
            self.held.pop()

    # -- nested functions run later, possibly unlocked ---------------------

    def _visit_nested(self, node: ast.AST) -> None:
        nested = _MutationVisitor(
            self.model,
            self.decls,
            self.info,
            f"{self.method_name}.<nested>",
            in_init=False,
            violations=self.violations,
        )
        for child in ast.iter_child_nodes(node):
            nested.visit(child)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_nested(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_nested(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._visit_nested(node)

    # -- mutation forms ----------------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_target(target, node.lineno, "assignment")
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_target(node.target, node.lineno, "assignment")
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_target(node.target, node.lineno, "augmented assignment")
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._check_target(target, node.lineno, "del")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in MUTATOR_METHODS:
            attr = _self_base_attr(func.value)
            if attr is not None:
                self._check_mutation(attr, node.lineno, f".{func.attr}()")
        if (
            isinstance(func, ast.Attribute)
            and func.attr.endswith(LOCKED_HELPER_SUFFIX)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
            and not self.held
            and not self.in_init
        ):
            self.violations.append(
                f"{self.info.module}:{node.lineno}: {self.method_name} calls "
                f"{func.attr}() without holding a lock; *_locked helpers "
                "assume their owner's lock is held"
            )
        self.generic_visit(node)

    def _check_target(self, target: ast.expr, lineno: int, kind: str) -> None:
        elements = target.elts if isinstance(target, ast.Tuple) else [target]
        for element in elements:
            attr = _self_base_attr(element)
            if attr is not None:
                self._check_mutation(attr, lineno, kind)

    def _check_mutation(self, attr: str, lineno: int, kind: str) -> None:
        if self.in_init:
            return
        where = f"{self.info.module}:{lineno}"
        label = f"{self.info.name}.{attr}"
        declared = self.decls.lookup(self.chain, attr)
        if declared is None:
            self.violations.append(
                f"{where}: undeclared mutation of {label} ({kind} in "
                f"{self.method_name}); declare it in a core/concurrency.py "
                "table or guard it with a lock"
            )
            return
        table, value = declared
        if table == "GUARDED_BY":
            if value not in self.held:
                self.violations.append(
                    f"{where}: {label} is GUARDED_BY {value!r} but this "
                    f"{kind} in {self.method_name} runs outside "
                    f"'with self.{value}'"
                )
        elif table == "IMMUTABLE_AFTER_INIT":
            self.violations.append(
                f"{where}: {label} is declared IMMUTABLE_AFTER_INIT but is "
                f"mutated ({kind}) in {self.method_name}"
            )
        # THREAD_LOCAL / BENIGN_RACES / EXTERNALLY_GUARDED: audited, allowed.


def check_mutations(model: RepoModel, decls: Declarations) -> list[str]:
    """Mutation-rule violations across all checked classes."""
    violations: list[str] = []
    for name in sorted(checked_classes(model, decls)):
        info = model.classes[name]
        for method_name, method in sorted(info.methods.items()):
            visitor = _MutationVisitor(
                model,
                decls,
                info,
                method_name,
                in_init=method_name in INIT_METHODS,
                violations=violations,
            )
            for child in ast.iter_child_nodes(method):
                visitor.visit(child)
    return violations


# ---------------------------------------------------------------------------
# Lock-order rule
# ---------------------------------------------------------------------------


class _AcqCollector(ast.NodeVisitor):
    """Direct lock acquisitions and resolvable call targets of one method."""

    def __init__(self, model: RepoModel, class_name: str) -> None:
        self.model = model
        self.class_name = class_name
        self.lock_attrs = model.lock_attrs_of(class_name)
        self.direct: set[str] = set()
        self.calls: set[tuple[str, str]] = set()

    def visit_With(self, node: ast.With) -> None:
        for item in node.items:
            expr = item.context_expr
            if (
                isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
                and expr.attr in self.lock_attrs
            ):
                self.direct.add(self.model.lock_node(self.class_name, expr.attr))
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            if isinstance(func.value, ast.Name) and func.value.id == "self":
                target = self.model.resolve_method(self.class_name, func.attr)
            else:
                target = self.model.resolve_method(None, func.attr)
            if target is not None:
                self.calls.add(target)
        self.generic_visit(node)


def _method_summaries(
    model: RepoModel,
) -> dict[tuple[str, str], _AcqCollector]:
    summaries: dict[tuple[str, str], _AcqCollector] = {}
    for info in model.classes.values():
        for method_name, method in info.methods.items():
            collector = _AcqCollector(model, info.name)
            collector.visit(method)
            summaries[(info.name, method_name)] = collector
    return summaries


def _transitive_acquisitions(
    summaries: dict[tuple[str, str], _AcqCollector],
) -> dict[tuple[str, str], set[str]]:
    """Fixpoint: every lock a method may acquire, directly or via calls."""
    acq = {key: set(summary.direct) for key, summary in summaries.items()}
    changed = True
    while changed:
        changed = False
        for key, summary in summaries.items():
            current = acq[key]
            before = len(current)
            for callee in summary.calls:
                current |= acq.get(callee, set())
            if len(current) != before:
                changed = True
    return acq


class _EdgeVisitor(ast.NodeVisitor):
    """Walks one method with a held-lock stack, emitting order edges."""

    def __init__(
        self,
        model: RepoModel,
        info: ClassInfo,
        method_name: str,
        acq: dict[tuple[str, str], set[str]],
        edges: dict[str, set[str]],
        violations: list[str],
    ) -> None:
        self.model = model
        self.info = info
        self.method_name = method_name
        self.lock_attrs = model.lock_attrs_of(info.name)
        self.acq = acq
        self.edges = edges
        self.violations = violations
        self.held: list[str] = []  # lock nodes, innermost last
        if method_name.endswith(LOCKED_HELPER_SUFFIX):
            self.held.extend(
                model.lock_node(info.name, attr)
                for attr in sorted(self.lock_attrs)
            )

    def _edge(self, target: str, lineno: int) -> None:
        for source in self.held:
            if source == target:
                self.violations.append(
                    f"{self.info.module}:{lineno}: {self.method_name} "
                    f"re-acquires non-reentrant lock {target} already held "
                    "on this path (self-deadlock)"
                )
            else:
                self.edges.setdefault(source, set()).add(target)

    def visit_With(self, node: ast.With) -> None:
        acquired: list[str] = []
        for item in node.items:
            expr = item.context_expr
            if (
                isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
                and expr.attr in self.lock_attrs
            ):
                lock_node = self.model.lock_node(self.info.name, expr.attr)
                self._edge(lock_node, node.lineno)
                acquired.append(lock_node)
        self.held.extend(acquired)
        self.generic_visit(node)
        for _ in acquired:
            self.held.pop()

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and self.held:
            if isinstance(func.value, ast.Name) and func.value.id == "self":
                target = self.model.resolve_method(self.info.name, func.attr)
            else:
                target = self.model.resolve_method(None, func.attr)
            if target is not None:
                for acquired in sorted(self.acq.get(target, set())):
                    self._edge(acquired, node.lineno)
        self.generic_visit(node)

    def _visit_nested(self, node: ast.AST) -> None:
        # A nested function runs later, possibly on another thread with no
        # lock held: analyze its body with an empty held stack.
        nested = _EdgeVisitor(
            self.model,
            self.info,
            f"{self.method_name}.<nested>",
            self.acq,
            self.edges,
            self.violations,
        )
        for child in ast.iter_child_nodes(node):
            nested.visit(child)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_nested(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_nested(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._visit_nested(node)


def check_lock_order(model: RepoModel) -> tuple[dict[str, set[str]], list[str]]:
    """(static lock-order graph, violations: re-entries and cycles)."""
    summaries = _method_summaries(model)
    acq = _transitive_acquisitions(summaries)
    edges: dict[str, set[str]] = {}
    violations: list[str] = []
    for info in model.classes.values():
        for method_name, method in sorted(info.methods.items()):
            visitor = _EdgeVisitor(
                model, info, method_name, acq, edges, violations
            )
            for child in ast.iter_child_nodes(method):
                visitor.visit(child)
    violations.extend(_find_cycles(edges))
    return edges, violations


def _find_cycles(edges: dict[str, set[str]]) -> list[str]:
    """One violation line per elementary cycle found by DFS back edges."""
    violations: list[str] = []
    seen_cycles: set[frozenset[str]] = set()
    state: dict[str, int] = {}  # 0 = visiting, 1 = done
    path: list[str] = []

    def visit(node: str) -> None:
        state[node] = 0
        path.append(node)
        for target in sorted(edges.get(node, ())):
            if target not in state:
                visit(target)
            elif state[target] == 0:
                cycle = path[path.index(target) :] + [target]
                key = frozenset(cycle)
                if key not in seen_cycles:
                    seen_cycles.add(key)
                    violations.append(
                        "lock-order cycle (potential deadlock): "
                        + " -> ".join(cycle)
                    )
        path.pop()
        state[node] = 1

    for node in sorted(edges):
        if node not in state:
            visit(node)
    return violations


# ---------------------------------------------------------------------------
# Declaration hygiene and thread entries
# ---------------------------------------------------------------------------


def check_declarations(model: RepoModel, decls: Declarations) -> list[str]:
    """Stale/duplicate declarations: every table entry must name a live
    class + attribute, GUARDED_BY must name a lock the class owns, and no
    attribute may be declared twice."""
    violations: list[str] = []
    seen: dict[str, str] = {}
    for class_name in sorted(decls.shared_classes):
        if class_name not in model.classes:
            violations.append(
                f"{CONCURRENCY_MODULE}: SHARED_CLASSES names {class_name}, "
                "which is not a class in the checked tree"
            )
    for table in DECLARATION_TABLES:
        for key, value in sorted(decls.tables[table].items()):
            if key in seen:
                violations.append(
                    f"{CONCURRENCY_MODULE}: {key} is declared in both "
                    f"{seen[key]} and {table}"
                )
                continue
            seen[key] = table
            class_name, _, attr = key.partition(".")
            info = model.classes.get(class_name)
            if info is None or not attr:
                violations.append(
                    f"{CONCURRENCY_MODULE}: stale {table} entry {key!r}: "
                    f"no class named {class_name} in the checked tree"
                )
                continue
            attrs_in_chain: set[str] = set()
            for chained in model.chain(class_name):
                attrs_in_chain |= chained.assigned_attrs
            if attr not in attrs_in_chain:
                violations.append(
                    f"{CONCURRENCY_MODULE}: stale {table} entry {key!r}: "
                    f"{class_name} never assigns attribute {attr!r}"
                )
                continue
            if table == "GUARDED_BY" and value not in model.lock_attrs_of(
                class_name
            ):
                violations.append(
                    f"{CONCURRENCY_MODULE}: GUARDED_BY entry {key!r} names "
                    f"lock {value!r}, which {class_name} does not own"
                )
    return violations


def check_thread_entries(model: RepoModel, decls: Declarations) -> list[str]:
    """Every class spawning worker threads must be in the checked set."""
    checked = checked_classes(model, decls)
    violations: list[str] = []
    for entry in model.entries:
        if entry.kind != "thread-spawn" or entry.owner is None:
            continue
        if entry.owner not in checked:
            violations.append(
                f"{entry.module}:{entry.lineno}: class {entry.owner} spawns "
                "threads but owns no lock and is not declared in "
                "SHARED_CLASSES"
            )
    return violations


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def run(root: Path) -> list[str]:
    """All violations for a repo rooted at ``root``."""
    concurrency_path = root / CONCURRENCY_MODULE
    if not concurrency_path.exists():
        raise SystemExit(
            f"concurrency_lint: no declaration module at {concurrency_path}"
        )
    decls = load_declarations(concurrency_path)
    model = build_model(root)
    violations = check_declarations(model, decls)
    violations.extend(check_mutations(model, decls))
    _, order_violations = check_lock_order(model)
    violations.extend(order_violations)
    violations.extend(check_thread_entries(model, decls))
    return violations


def render_inventory(root: Path) -> str:
    """Human-readable thread-entry and lock inventory."""
    decls = load_declarations(root / CONCURRENCY_MODULE)
    model = build_model(root)
    edges, _ = check_lock_order(model)
    lines = ["== thread entry points =="]
    for entry in model.entries:
        owner = f" (class {entry.owner})" if entry.owner else ""
        lines.append(f"  [{entry.kind}] {entry.module}:{entry.lineno}{owner}")
    lines.append("== locks ==")
    for name in sorted(checked_classes(model, decls)):
        info = model.classes[name]
        for attr in sorted(model.lock_attrs_of(name) & info.lock_attrs):
            lines.append(f"  {name}.{attr} ({info.module})")
    lines.append("== static lock-order edges ==")
    for source in sorted(edges):
        for target in sorted(edges[source]):
            lines.append(f"  {source} -> {target}")
    lines.append(
        f"== checked classes: {len(checked_classes(model, decls))} =="
    )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        default=Path(__file__).resolve().parent.parent,
        type=Path,
        help="repository root (defaults to the checkout containing this file)",
    )
    parser.add_argument(
        "--inventory",
        action="store_true",
        help="print the thread-entry and lock inventory instead of linting",
    )
    options = parser.parse_args(argv)
    if options.inventory:
        print(render_inventory(options.root))
        return 0
    violations = run(options.root)
    for violation in violations:
        print(violation)
    if violations:
        print(
            f"concurrency_lint: {len(violations)} violation(s)", file=sys.stderr
        )
        return 1
    print("concurrency_lint: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
