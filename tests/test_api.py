"""The package namespace: what __all__ promises is there, once."""

from __future__ import annotations

import fslab


def test_exported_names_resolve_once():
    assert len(fslab.__all__) == len(set(fslab.__all__))
    assert [n for n in fslab.__all__ if not hasattr(fslab, n)] == []
