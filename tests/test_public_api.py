"""The package's public names: every entry of ``__all__`` exists and star-imports."""

import hrislink


def test_all_names_resolve_and_star_import():
    missing = [name for name in hrislink.__all__ if not hasattr(hrislink, name)]
    assert not missing, missing
    namespace = {}
    exec("from hrislink import *", namespace)
    assert set(hrislink.__all__) <= namespace.keys()
