"""The package namespace: what __all__ promises is there, once."""

from __future__ import annotations

import fslab


def test_exported_names_resolve_once():
    assert len(fslab.__all__) == len(set(fslab.__all__))
    assert [n for n in fslab.__all__ if not hasattr(fslab, n)] == []


def test_no_test_only_or_wrapper_names():
    # rotation helpers and sample_measure live in tests/conftest.py
    gone = {
        "sample_measure", "rotate", "shift_measure", "psi",
        "classical_s_bound", "VerificationReport", "ExtremalConfig",
    }
    assert gone.isdisjoint(fslab.__all__)
    assert [n for n in gone if hasattr(fslab, n)] == []
