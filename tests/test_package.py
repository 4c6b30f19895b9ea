"""The package namespace: ``__all__`` lists exactly the public names."""

import types

import decodelab


def test_star_import_takes_every_listed_name():
    namespace = {}
    exec("from decodelab import *", namespace)
    assert set(decodelab.__all__) <= namespace.keys()


def test_every_listed_name_resolves():
    missing = [name for name in decodelab.__all__ if not hasattr(decodelab, name)]
    assert missing == []


def test_every_public_name_is_listed():
    public = {
        name for name, value in vars(decodelab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public - set(decodelab.__all__) == set()
    assert len(decodelab.__all__) == len(set(decodelab.__all__))
