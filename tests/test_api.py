"""The public surface: each module's `__all__` and what `gmspec` re-exports."""

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
