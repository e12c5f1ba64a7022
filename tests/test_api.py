"""The public surface: each module's `__all__` and what `gmspec` re-exports;
and where the library may leave the integers."""

import ast
import importlib
import inspect
import pkgutil

import gmspec

MODULES = [importlib.import_module(f"gmspec.{m.name}") for m in pkgutil.iter_modules(gmspec.__path__)]


def test_every_all_entry_resolves():
    # a stale entry would otherwise fail only on `from gmspec.x import *`
    for mod in MODULES:
        missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
        assert not missing, (mod.__name__, missing)


def test_package_reexports_only_public_names():
    tree = ast.parse(inspect.getsource(gmspec))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1, ast.unparse(node)
        mod = importlib.import_module(f"gmspec.{node.module}")
        for alias in node.names:
            assert alias.name in mod.__all__, (mod.__name__, alias.name)


# where a `Fraction` may appear: the rational form, its sort key and the
# rational boundary of QuadSurd (construction, coercion and hash)
FRACTION_SCOPES = {
    "QForm", "qform_of", "SpectrumElement.sort_key", "QuadSurd.from_fraction",
    "QuadSurd.squared_fraction", "QuadSurd.__eq__", "QuadSurd.__lt__", "QuadSurd.__hash__",
}


def _names_in_scopes(node, scope=()):
    """(scope, node) for every node, the scope being the enclosing class and
    function names."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = (*scope, child.name)
        yield inner, child
        yield from _names_in_scopes(child, inner)


def test_no_float_and_fraction_only_at_the_rational_boundary():
    for mod in MODULES:
        for scope, node in _names_in_scopes(ast.parse(inspect.getsource(mod))):
            where = (mod.__name__, ".".join(scope))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                assert node.func.id != "float", where
            if isinstance(node, ast.Name) and node.id == "Fraction":
                assert any(".".join(scope[:i]) in FRACTION_SCOPES
                           for i in range(1, len(scope) + 1)), where
