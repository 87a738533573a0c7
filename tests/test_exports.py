"""The public surface: each module's __all__ and the package exports agree."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import saalib

MODULES = sorted(m.name for m in pkgutil.iter_modules(saalib.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"saalib.{name}")
    assert len(module.__all__) == len(set(module.__all__))
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_imports_only_public_names():
    # read the package's own imports, so a name that only __init__ names is seen
    tree = ast.parse(Path(saalib.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        public = importlib.import_module(f"saalib.{node.module}").__all__
        assert [a.name for a in node.names if a.name not in public] == [], node.module


@pytest.mark.parametrize("name", [m for m in MODULES if m != "cli"])
def test_package_reexports_every_public_name(name):
    # cli is the command-line front end; every library module's surface is
    # reachable from the package itself
    module = importlib.import_module(f"saalib.{name}")
    missing = [n for n in module.__all__ if getattr(saalib, n, None) is not getattr(module, n)]
    assert missing == []
