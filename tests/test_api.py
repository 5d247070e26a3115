"""The package namespace: what __all__ promises is there, once; no unused imports."""

from __future__ import annotations

import ast
from pathlib import Path

import fslab


def test_exported_names_resolve_once():
    assert len(fslab.__all__) == len(set(fslab.__all__))
    assert [n for n in fslab.__all__ if not hasattr(fslab, n)] == []


def test_no_test_only_or_wrapper_names():
    # rotation helpers and sample_measure live in tests/conftest.py
    gone = {
        "sample_measure", "rotate", "shift_measure", "psi",
        "classical_s_bound", "VerificationReport", "ExtremalConfig",
        "reduction_bound", "REDUCTION_PRESETS", "KM_SIGN_NOTE",
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
