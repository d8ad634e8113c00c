"""The package's public names: every entry of ``__all__`` resolves."""

import steinperm


def test_every_exported_name_resolves():
    missing = [name for name in steinperm.__all__ if not hasattr(steinperm, name)]
    assert missing == []
    assert len(set(steinperm.__all__)) == len(steinperm.__all__)


def test_star_import():
    namespace = {}
    exec("from steinperm import *", namespace)
    assert set(steinperm.__all__) <= namespace.keys()
