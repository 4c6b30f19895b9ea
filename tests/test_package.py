"""The package namespace: ``__all__`` lists exactly the public names, and only
``jsonvalues`` imports ``json``."""

import ast
import types
from pathlib import Path

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


def test_only_jsonvalues_imports_json():
    # jsonvalues is the one JSON boundary: reading, echoing and spelling JSON live there alone.
    importers = set()
    for path in Path(decodelab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name == "json" or name.startswith("json.") for name in names):
                importers.add(path.name)
    assert importers == {"jsonvalues.py"}
