"""The package namespace: what __all__ promises is there, once; no unused imports,
no private helper that the library itself never reads, and no unbounded memo
cache keyed on arguments."""

from __future__ import annotations

import ast
from pathlib import Path

import fslab


def test_exported_names_resolve_once():
    assert len(fslab.__all__) == len(set(fslab.__all__)) == 32
    assert [n for n in fslab.__all__ if not hasattr(fslab, n)] == []


def test_no_test_only_or_wrapper_names():
    # rotation helpers and sample_measure live in tests/conftest.py
    gone = {
        "sample_measure", "rotate", "shift_measure", "psi",
        "classical_s_bound", "VerificationReport", "ExtremalConfig",
        "reduction_bound", "REDUCTION_PRESETS", "KM_SIGN_NOTE", "branch_value",
        "NearSingular",
    }
    assert gone.isdisjoint(fslab.__all__)
    assert [n for n in gone if hasattr(fslab, n)] == []


def test_no_unused_imports():
    # __init__.py is skipped: its imports are the package's re-exports
    root = Path(__file__).resolve().parents[1]
    files = sorted((root / "src" / "fslab").glob("*.py")) + sorted((root / "tests").glob("*.py"))
    unused = []
    for path in files:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == []


def test_private_names_have_a_library_reader():
    # a module-level _name that nothing in src/fslab reads is a helper left
    # behind, by a move say; a test that reads it does not keep it alive
    files = sorted((Path(__file__).resolve().parents[1] / "src" / "fslab").glob("*.py"))
    trees = [ast.parse(path.read_text(), str(path)) for path in files]
    defined = []
    for path, tree in zip(files, trees):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            private = [n for n in names if n.startswith("_") and not n.startswith("__")]
            defined += [(name, f"{path.name}:{node.lineno}") for name in private]
    read = set()
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    assert defined  # the scan found the library
    assert [f"{where} {name}" for name, where in defined if name not in read] == []


def _unbounded_memo(decorator: ast.expr) -> bool:
    """functools.cache, or lru_cache with maxsize None, as written in a decorator."""
    call = decorator if isinstance(decorator, ast.Call) else None
    target = call.func if call else decorator
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
    if name == "cache":
        return True
    if name != "lru_cache" or call is None:
        return False
    size = call.args[0] if call.args else next((k.value for k in call.keywords if k.arg == "maxsize"), None)
    return isinstance(size, ast.Constant) and size.value is None


def test_memo_caches_with_parameters_are_bounded():
    # an unbounded cache keyed on arguments grows with every distinct call;
    # one on a nullary function holds one value
    files = sorted((Path(__file__).resolve().parents[1] / "src" / "fslab").glob("*.py"))
    unbounded, nullary = [], set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not any(map(_unbounded_memo, node.decorator_list)):
                continue
            a = node.args
            if a.posonlyargs or a.args or a.vararg or a.kwonlyargs or a.kwarg:
                unbounded.append(f"{path.name}:{node.lineno} {node.name}")
            else:
                nullary.add(node.name)
    assert nullary == {"_csv_tables", "_build_parser"}  # the scan sees the decorators
    assert unbounded == []
