"""The public surface: each module's __all__ and the package exports agree;
and the one place the source applies the symplectic form."""

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


def form_index_sites(tree, module):
    """module.function for each BinOp x ^ 1 or 1 ^ x in the tree, named by
    the innermost function or class around it, or by the module alone."""
    sites = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{module}.{node.name}"
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitXor):
            if any(isinstance(side, ast.Constant) and side.value == 1 for side in (node.left, node.right)):
                sites.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, module)
    return sites


def test_form_index_rule_lives_in_two_places():
    # the standard form pairs coordinate c with c ^ 1; linalg applies it to
    # rows in one helper, and the row table reads the product off the
    # tensor by the same rule, which check_axioms tests against the dense
    # GramMatrix.data
    sites = set()
    for name in MODULES:
        path = Path(importlib.import_module(f"saalib.{name}").__file__)
        sites.update(form_index_sites(ast.parse(path.read_text(encoding="utf-8")), name))
    assert sorted(sites) == ["algebra._row_table", "linalg._times_form"]


# module-level private functions that no code in the package calls, each
# with the reason it stays
UNREFERENCED = {
    "_rref_array": "bench/tracer.py's TARGETS looks it up by name as a traced layer",
}


def private_functions_and_references(tree):
    """(names, referenced): the module-level private functions the tree
    defines, and every name it reads in code, as a Name or an attribute.

    Docstrings and other strings are constants, not names, so a function
    named only in prose is not referenced; neither is one named only in an
    import, or only inside its own body."""
    names, referenced = set(), set()
    for node in tree.body:
        own = None
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            own = node.name
            if own.startswith("_") and not own.startswith("__"):
                names.add(own)
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                read = sub.id
            elif isinstance(sub, ast.Attribute):
                read = sub.attr
            else:
                continue
            if read != own:
                referenced.add(read)
    return names, referenced


def test_every_private_function_is_referenced():
    defined, referenced = set(), set()
    for name in MODULES:
        path = Path(importlib.import_module(f"saalib.{name}").__file__)
        names, reads = private_functions_and_references(ast.parse(path.read_text(encoding="utf-8")))
        defined |= names
        referenced |= reads
    assert sorted(defined - referenced) == sorted(UNREFERENCED)
