"""The CI static checks, run by the test suite wherever their tools exist.

``ruff check .`` (``ruff.toml``) and ``mypy -p repro`` (``mypy.ini``) are the
CI lint and type jobs.  Where a tool is not importable its test does not pass
silently: it skips with a reason naming the tool and the command that did
NOT run, and emits the same text as a warning so it shows in the summary of
every run.  :func:`test_no_unused_imports` and :func:`test_no_undefined_names`
are ``ast``/``symtable``-only stand-ins for ruff's unused-import and
undefined-name rules that run everywhere; :func:`test_no_unreferenced_private_names`
and :func:`test_every_module_is_imported` stand in for dead-code checks.
"""

from __future__ import annotations

import ast
import builtins
import importlib.util
import os
import subprocess
import symtable
import sys
import warnings

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "tool,arguments", [("ruff", ["check", "."]), ("mypy", ["-p", "repro"])]
)
def test_static_check(tool, arguments):
    command = " ".join([tool, *arguments])
    if importlib.util.find_spec(tool) is None:
        message = f"{tool} is not installed: `{command}` NOT RUN"
        warnings.warn(message, UserWarning, stacklevel=1)
        pytest.skip(message)
    completed = subprocess.run(
        [sys.executable, "-m", tool, *arguments],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=False,
    )
    assert completed.returncode == 0, (
        f"`{command}` failed:\n{completed.stdout}{completed.stderr}"
    )


def _sources():
    """Every module of ``src/repro`` and ``tools``."""
    for base in ("src/repro", "tools"):
        for directory, _, files in os.walk(os.path.join(ROOT, base)):
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.join(directory, name)


#: Names every module has without binding them.
_MODULE_ATTRIBUTES = {
    "__annotations__", "__builtins__", "__doc__", "__file__", "__loader__",
    "__name__", "__package__", "__path__", "__spec__",
}


def _annotation_names(tree: ast.AST, unquoted: bool = False) -> set[str]:
    """Names inside quoted annotations (``"np.ndarray | None"``) and, with
    ``unquoted``, the plain names of every annotation as well."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names = set()
    for annotation in annotations:
        for node in ast.walk(annotation):
            if unquoted and isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                names |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return names


def unused_imports(path: str) -> list[str]:
    """``path:line: name`` for every imported name the module never uses —
    ruff's F401, from the ``ast`` alone.  ``__future__`` imports, lines
    marked ``noqa`` and names listed in ``__all__`` are exempt."""
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    used = _annotation_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__" or "noqa" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    return [f"{path}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    """The stand-in for ruff's unused-import rule that runs everywhere:
    every module of ``src/repro`` and ``tools`` but the package
    ``__init__`` files (whose imports are the package's exports)."""
    found = [
        problem
        for path in _sources()
        if os.path.basename(path) != "__init__.py"
        for problem in unused_imports(path)
    ]
    assert not found, "unused imports:\n" + "\n".join(found)


def undefined_names(path: str) -> list[str]:
    """``path:line: name`` for every global read that no module-level
    binding, import or builtin defines — ruff's F821, from ``symtable`` and
    the ``ast`` alone.  A read is global when the symbol table resolves it
    to module scope: at module level, in a class body, or free in a function
    or comprehension; names inside annotations count too, quoted or not."""
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    top = symtable.symtable(source, path, "exec")
    defined = set(dir(builtins)) | _MODULE_ATTRIBUTES
    reads: set[str] = set()

    def visit(table: symtable.SymbolTable) -> None:
        for symbol in table.get_symbols():
            name = symbol.get_name()
            if table is top or symbol.is_declared_global():
                if symbol.is_assigned() or symbol.is_imported() or symbol.is_namespace():
                    defined.add(name)
            if symbol.is_referenced() and (table is top or symbol.is_global()):
                reads.add(name)
        for child in table.get_children():
            visit(child)

    visit(top)
    tree = ast.parse(source)
    missing = (reads | _annotation_names(tree, unquoted=True)) - defined
    lines: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in missing:
            lines[node.id] = min(node.lineno, lines.get(node.id, node.lineno))
    return [f"{path}:{lines.get(name, 0)}: {name}" for name in sorted(missing)]


def test_no_undefined_names():
    """The stand-in for ruff's undefined-name rule that runs everywhere:
    every module of ``src/repro`` and ``tools``."""
    found = [problem for path in _sources() for problem in undefined_names(path)]
    assert not found, "undefined names:\n" + "\n".join(found)


def _repository_sources():
    """Every Python file of the repository (hidden directories aside)."""
    for directory, subdirectories, files in os.walk(ROOT):
        subdirectories[:] = sorted(
            name for name in subdirectories if not name.startswith((".", "__pycache__"))
        )
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(directory, name)


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level ``_name`` definitions (functions, classes, assigned
    names; dunders aside) and their lines."""
    defined: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined.setdefault(name, node.lineno)
    return defined


def _referenced_names(tree: ast.Module) -> set[str]:
    """Every name a module reads: loaded names, attributes, imported names,
    string constants (``getattr`` targets) and names inside annotations."""
    names = _annotation_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_no_unreferenced_private_names():
    """A dead-code stand-in that runs everywhere: every module-level
    ``_name`` defined in ``src/repro`` or ``tools`` is read somewhere in the
    repository — an orphan left behind by a deletion fails here."""
    referenced: set[str] = set()
    for path in _repository_sources():
        with open(path, encoding="utf-8") as handle:
            referenced |= _referenced_names(ast.parse(handle.read()))
    found = []
    for path in _sources():
        with open(path, encoding="utf-8") as handle:
            defined = _private_definitions(ast.parse(handle.read()))
        found += [f"{path}:{line}: {name}" for name, line in defined.items() if name not in referenced]
    assert not found, "unreferenced private names:\n" + "\n".join(found)



def _module_name(path: str) -> str:
    """The dotted name of a module file under ``src``."""
    relative = os.path.relpath(path, os.path.join(ROOT, "src"))[: -len(".py")]
    parts = relative.split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _imported_names(tree: ast.Module) -> set[str]:
    """Every dotted name a file imports: ``import a.b``, ``from a import b``
    (as ``a`` and ``a.b``, since ``b`` may be a submodule) and string
    constants, the way ``importlib.import_module`` callers name a module."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module is not None:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_module_is_imported():
    """A dead-module stand-in that runs everywhere: every module of
    ``src/repro`` is imported from ``src/repro``, ``tools`` or
    ``benchmarks`` (importing a module imports its packages too) — a module
    only the tests import is code nothing runs."""
    imported: set[str] = set()
    for base in ("src/repro", "tools", "benchmarks"):
        for directory, _, files in os.walk(os.path.join(ROOT, base)):
            for name in files:
                if name.endswith(".py"):
                    with open(os.path.join(directory, name), encoding="utf-8") as handle:
                        imported |= _imported_names(ast.parse(handle.read()))
    for name in list(imported):
        while "." in name:
            name = name.rsplit(".", 1)[0]
            imported.add(name)
    found = [
        f"{path}: {_module_name(path)}"
        for path in _sources()
        if path.startswith(os.path.join(ROOT, "src")) and _module_name(path) not in imported
    ]
    assert not found, "modules nothing imports:\n" + "\n".join(found)
