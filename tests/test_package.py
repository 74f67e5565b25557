"""The package's public surface: __all__ names exactly what it exports."""

import types

import hydrasim


def test_all_lists_every_public_name_and_each_resolves():
    public = {name for name, value in vars(hydrasim).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(hydrasim.__all__) == sorted(public)
    namespace = {}
    exec("from hydrasim import *", namespace)   # a stale name raises AttributeError
    assert public <= namespace.keys()
