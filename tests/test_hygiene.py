"""Source hygiene: every module-level import in the package is used.

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
