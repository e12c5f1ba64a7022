"""The public surface: each module's `__all__`, what `gmspec` re-exports and
what importing it loads; and where the library may leave the integers."""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys

import pytest

import gmspec

MODULES = [importlib.import_module(f"gmspec.{m.name}") for m in pkgutil.iter_modules(gmspec.__path__)]


def test_every_all_entry_resolves():
    # a stale entry would otherwise fail only on `from gmspec.x import *`
    for mod in MODULES:
        missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
        assert not missing, (mod.__name__, missing)


def test_package_reexports_only_public_names():
    assert gmspec.__all__ == list(gmspec._EXPORTS) and len(set(gmspec.__all__)) > 40
    for name, module in gmspec._EXPORTS.items():
        mod = importlib.import_module(f"gmspec.{module}")
        assert name in mod.__all__, (mod.__name__, name)
        assert getattr(gmspec, name) is getattr(mod, name), name
    assert set(gmspec._SUBMODULES) == {m.name for m in pkgutil.iter_modules(gmspec.__path__)} - {
        "__main__"}


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from gmspec import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(gmspec.__all__)
    assert set(dir(gmspec)) >= {*gmspec.__all__, *gmspec._SUBMODULES, "__version__"}


def test_a_patched_function_shows_through_and_is_restored(monkeypatch):
    from gmspec import exact

    original = exact.cf_matrix
    assert gmspec.cf_matrix is original
    with monkeypatch.context() as m:
        m.setattr(exact, "cf_matrix", len)
        assert gmspec.cf_matrix is len
        exec("from gmspec import cf_matrix as seen", namespace := {})
        assert namespace["seen"] is len
    assert gmspec.cf_matrix is original and "cf_matrix" not in vars(gmspec)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        gmspec.no_such_name


def _fresh(*argv: str) -> subprocess.CompletedProcess:
    """python argv in a fresh process, gmspec imported from this checkout."""
    src = os.path.dirname(os.path.dirname(gmspec.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def _imported(*argv: str) -> set[str]:
    """The modules a fresh `python -X importtime argv` imports."""
    err = _fresh("-X", "importtime", *argv).stderr
    return {line.rpartition("|")[2].strip() for line in err.splitlines()
            if line.startswith("import time:")}


def test_import_gmspec_loads_no_submodule():
    loaded = _imported("-c", "import gmspec")
    assert "gmspec" in loaded and not {m for m in loaded if m.startswith("gmspec.")}


def test_spectrum_to_json_loads_only_what_it_runs(tmp_path):
    out = tmp_path / "out.json"
    loaded = _imported("-m", "gmspec", "--format", "json", "spectrum", "--kmax", "2",
                       "--out", str(out))
    assert out.stat().st_size > 0
    assert {m for m in loaded if m.startswith("gmspec")} == {
        "gmspec", "gmspec.cli", "gmspec.exact", "gmspec.farey", "gmspec.gmtree", "gmspec.spectrum"}
    assert "csv" not in loaded and "json" not in loaded


def test_every_name_and_submodule_resolves_from_a_fresh_import():
    code = (
        "import gmspec, importlib\n"
        "for name in gmspec.__all__:\n"
        "    assert getattr(gmspec, name) is getattr("
        "importlib.import_module('gmspec.' + gmspec._EXPORTS[name]), name), name\n"
        "assert 'gmspec.verify' in __import__('sys').modules\n"
        "import gmspec as fresh\n"
        "for mod in gmspec._SUBMODULES:\n"
        "    assert getattr(fresh, mod).__name__ == 'gmspec.' + mod, mod\n"
        "print('ok')\n"
    )
    assert _fresh("-c", code).stdout == "ok\n"


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
