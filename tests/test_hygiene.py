"""Source hygiene: every module-level import in the package is used, and the
catalog reads Bessel I only in scaled or log-scaled form.

No linter is part of the toolchain, so this walks the package sources with
ast. A name counts as used when the module reads it anywhere (including in
annotations) or lists it in __all__."""

import ast
import pathlib

import pytest

import feynkac

_SOURCES = sorted(pathlib.Path(feynkac.__file__).parent.glob("*.py"))


def _imported_names(tree: ast.Module):
    """(bound name, line) for each import statement at module level."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used_names(tree: ast.Module):
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", _SOURCES, ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    unused = [f"{name} (line {line})" for name, line in _imported_names(tree)
              if name not in used]
    assert not unused, f"{path.name}: unused imports: {', '.join(unused)}"


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os\nimport sys\nfrom math import pi, tau\n"
                     "__all__ = ['tau']\nprint(sys.argv)\n")
    used = _used_names(tree)
    assert [n for n, _ in _imported_names(tree) if n not in used] == ["os", "pi"]


def _unscaled_bessel_uses(tree: ast.Module):
    """Lines that read specfun.log_bessel_i, or call specfun.bessel_i without
    scaled=True: a kernel built from them overflows (unscaled I_nu) or adds
    two terms of size z that cancel (log I_nu beside an exponent -z)."""
    calls = {id(n.func): n for n in ast.walk(tree) if isinstance(n, ast.Call)}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "specfun"):
            continue
        if node.attr == "log_bessel_i":
            yield node.lineno
        elif node.attr == "bessel_i":
            call = calls.get(id(node))
            if call is None or not any(
                    k.arg == "scaled" and isinstance(k.value, ast.Constant)
                    and k.value.value is True for k in call.keywords):
                yield node.lineno


def test_catalog_reads_bessel_i_scaled_only():
    path = pathlib.Path(feynkac.__file__).parent / "catalog.py"
    bad = list(_unscaled_bessel_uses(ast.parse(path.read_text(), filename=str(path))))
    assert not bad, f"catalog.py: unscaled Bessel I on lines {bad}"


def test_the_check_sees_an_unscaled_bessel_i():
    tree = ast.parse("a = specfun.bessel_i(1.0, z)\n"
                     "b = specfun.bessel_i(1.0, z, scaled=True)\n"
                     "c = specfun.log_bessel_i(1.0, z)\n"
                     "d = specfun.log_bessel_ive(1.0, z)\n"
                     "f = specfun.bessel_i\n")
    assert sorted(_unscaled_bessel_uses(tree)) == [1, 3, 5]
