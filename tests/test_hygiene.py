"""Source hygiene: every module-level import in the package is used, no
module wraps a callable in numpy's vectorize, no module but the writer in
feynkac._jsonout calls json.dumps with an indent, the catalog reads Bessel I only
in scaled or log-scaled form, no entry passes its transform right-hand side
(CatalogEntry takes it from the symmetry module), no entry with terms writes
its drift, drift derivative or drift antiderivative (the terms give them),
the catalog takes its closed-form expectations from the kernels' Bessel-core
terms and every kernel, rational_drift's finite-part one too, from the
declared Riccati constants instead of writing them, riccati and symmetry
write the linear family's Bessel solution y once (riccati._bessel_y),
generic_linear and rational_drift's finite part take their two-branch kernel
and u0 from that y, a float in specfun reaches no fallback but through the
one array implementation of its function, the closed forms' moments
(catalog._core_at and _log_core_moments) are one formula for every omega t,
with no fork on omega = 0 or on a threshold of e^(-2 omega t), and the
catalog calls specfun's Laplace-Bessel moment from one function only, no
catalog function writes into module-level state but the entry cache, and each
entry's parameters are declared once, in the catalog's table: every builder
takes its row's parameters in the row's order, with no default.

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


def _numpy_vectorize_uses(tree: ast.Module):
    """Lines that read vectorize from numpy (np.vectorize, numpy.vectorize,
    from numpy import vectorize): drifts and potentials take float64 arrays,
    so nothing needs numpy's element-by-element loop."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "vectorize" \
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy" \
                and any(alias.name == "vectorize" for alias in node.names):
            yield node.lineno


@pytest.mark.parametrize("path", _SOURCES, ids=lambda p: p.name)
def test_no_module_reads_numpy_vectorize(path):
    bad = list(_numpy_vectorize_uses(ast.parse(path.read_text(), filename=str(path))))
    assert not bad, f"{path.name}: numpy vectorize on lines {bad}"


def test_the_check_sees_numpy_vectorize():
    tree = ast.parse("import numpy as np\n"
                     "f = np.vectorize(g, otypes=[float])\n"
                     "h = numpy.vectorize\n"
                     "from numpy import pi, vectorize\n"
                     "k = np.vectorized\n"
                     "m = other.vectorize(g)\n")
    assert sorted(_numpy_vectorize_uses(tree)) == [2, 3, 4]


def _indented_json_calls(tree: ast.Module):
    """Lines that call json's dump or dumps (as json.dumps, or imported from
    json) with an indent: json then runs its pure-Python encoder, and
    feynkac._jsonout writes the same bytes."""
    from_json = {alias.asname or alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module == "json"
                 for alias in node.names if alias.name in ("dump", "dumps")}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and any(k.arg == "indent" for k in node.keywords)):
            continue
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr in ("dump", "dumps")
                and isinstance(func.value, ast.Name) and func.value.id == "json") \
                or (isinstance(func, ast.Name) and func.id in from_json):
            yield node.lineno


@pytest.mark.parametrize("path", [p for p in _SOURCES if p.name != "_jsonout.py"],
                         ids=lambda p: p.name)
def test_json_output_goes_through_one_writer(path):
    bad = list(_indented_json_calls(ast.parse(path.read_text(), filename=str(path))))
    assert not bad, f"{path.name}: json.dumps with an indent on lines {bad}"


def test_the_check_sees_an_indented_json_dumps():
    tree = ast.parse("import json\n"
                     "a = json.dumps(doc, indent=2)\n"
                     "b = json.dumps(doc)\n"
                     "from json import dumps as d, loads\n"
                     "c = d(doc, sort_keys=True, indent=None)\n"
                     "json.dump(doc, fh, indent=1)\n"
                     "e = other.dumps(doc, indent=2)\n"
                     "f = loads(text)\n")
    assert sorted(_indented_json_calls(tree)) == [2, 5, 6]


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


def _bessel_reads_outside(tree: ast.Module, inside: str = "_bessel_y"):
    """Lines that read a Bessel function of specfun (a name with "bessel" in
    it, as specfun.<name> or imported from specfun) outside the function
    `inside`: the linear family's y(x) = sqrt(x) Z_nu(c x^(q/2)) is written
    once, in riccati._bessel_y, and build_drift, generic_linear and the
    linear stationary branches take it from there."""
    def walk(node, allowed):
        for child in ast.iter_child_nodes(node):
            ok = allowed or isinstance(child, ast.FunctionDef) and child.name == inside
            read = isinstance(child, ast.Attribute) and isinstance(child.value, ast.Name) \
                and child.value.id == "specfun" and "bessel" in child.attr
            imported = isinstance(child, ast.ImportFrom) and (child.module or "").endswith(
                "specfun") and any("bessel" in alias.name for alias in child.names)
            if (read or imported) and not ok:
                yield child.lineno
            yield from walk(child, ok)
    yield from walk(tree, False)


@pytest.mark.parametrize("name", ["riccati.py", "symmetry.py"])
def test_the_linear_family_y_is_written_once(name):
    path = pathlib.Path(feynkac.__file__).parent / name
    bad = list(_bessel_reads_outside(ast.parse(path.read_text(), filename=str(path))))
    assert not bad, f"{name}: a Bessel function read outside _bessel_y on lines {bad}"


def test_the_check_sees_a_bessel_function_outside_bessel_y():
    tree = ast.parse("def _bessel_y(nu, c):\n"
                     "    def log_y(x):\n"
                     "        return specfun.log_bessel_ive(nu, c * x)\n"
                     "    return log_y, specfun.bessel_k\n"
                     "def build_drift(A):\n"
                     "    return specfun.bessel_i(1.0, A, scaled=True)\n"
                     "from .specfun import bessel_k, tricomi_u\n"
                     "from . import specfun\n"
                     "g = specfun.log_hypergeom_1f1\n"
                     "h = other.bessel_i\n"
                     "def _stationary(x):\n"
                     "    return math.log(specfun.bessel_k(0.5, x, scaled=True))\n")
    assert sorted(_bessel_reads_outside(tree)) == [6, 7, 12]


def _local_closures(tree: ast.Module, field: str):
    """Lines of CatalogEntry(...) calls whose `field` is a lambda or a
    function defined inside the same builder: a hand-written closure where
    the catalog derives one (expectation_closed from the kernel's Bessel-core
    terms by _core_sum)."""
    for builder in tree.body:
        if not isinstance(builder, ast.FunctionDef):
            continue
        local = {n.name for n in ast.walk(builder)
                 if isinstance(n, ast.FunctionDef) and n is not builder}
        local |= {t.id for n in ast.walk(builder)
                  if isinstance(n, ast.Assign) and isinstance(n.value, ast.Lambda)
                  for t in n.targets if isinstance(t, ast.Name)}
        for call in ast.walk(builder):
            if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and call.func.id == "CatalogEntry"):
                continue
            for k in call.keywords:
                if k.arg == field and (
                        isinstance(k.value, ast.Lambda)
                        or isinstance(k.value, ast.Name) and k.value.id in local):
                    yield call.lineno


def _catalog_tree():
    path = pathlib.Path(feynkac.__file__).parent / "catalog.py"
    return ast.parse(path.read_text(), filename=str(path))


def _keyword_passes(tree: ast.Module, callee, field: str, caller_calls: str = ""):
    """Lines of the calls to callee (to any callable where it is None) that
    pass the keyword field, in the module-level functions that call
    caller_calls too (in every function where it is empty)."""
    for func in tree.body:
        if not isinstance(func, ast.FunctionDef):
            continue
        calls = [n for n in ast.walk(func) if isinstance(n, ast.Call)]
        if caller_calls and not any(getattr(c.func, "id", None) == caller_calls for c in calls):
            continue
        for call in calls:
            if callee in (None, getattr(call.func, "id", None)) and any(
                    k.arg == field for k in call.keywords):
                yield call.lineno


def test_catalog_writes_no_transform_by_hand():
    # CatalogEntry sets transform_rhs from u0 (symmetry.orbit_transform)
    bad = list(_keyword_passes(_catalog_tree(), "CatalogEntry", "transform_rhs"))
    assert not bad, f"catalog.py: transform_rhs passed to CatalogEntry on lines {bad}"


def test_the_check_sees_a_hand_written_transform():
    tree = ast.parse("def _make_a():\n"
                     "    def t_rhs(lam, t, x):\n"
                     "        return 1.0\n"
                     "    return CatalogEntry(transform_rhs=t_rhs)\n"
                     "def _make_b():\n"
                     "    g = orbit_transform(diff, u0, ric)\n"
                     "    return (CatalogEntry(transform_rhs=g), CatalogEntry(u0=u0),\n"
                     "            CatalogEntry(transform_rhs=None), Other(transform_rhs=g))\n")
    assert sorted(_keyword_passes(tree, "CatalogEntry", "transform_rhs")) == [4, 7, 8]


def test_terms_entries_write_no_drift_antiderivative():
    # a builder with a closed form (_core_sum's terms) takes F from its terms
    bad = list(_keyword_passes(_catalog_tree(), "DiffusionSpec", "drift_antiderivative",
                               "_core_sum"))
    assert not bad, f"catalog.py: drift_antiderivative next to _core_sum on lines {bad}"


def test_the_check_sees_a_hand_written_drift_antiderivative():
    tree = ast.parse("def _make_a(n):\n"
                     "    diff = DiffusionSpec(drift=f, drift_antiderivative=F)\n"
                     "    kernel, expect = _core_sum(diff, ric, terms)\n"
                     "def _make_b(n):\n"
                     "    diff = _terms_diffusion(terms, drift=f)\n"
                     "    kernel, expect = _core_sum(diff, ric, terms)\n"
                     "def _make_c(n):\n"
                     "    return DiffusionSpec(drift=f, drift_antiderivative=F)\n")
    assert list(_keyword_passes(tree, "DiffusionSpec", "drift_antiderivative",
                                "_core_sum")) == [2]


def _drift_passes(tree: ast.Module):
    """Lines of the calls, to any callable, that pass drift or drift_derivative
    in the module-level functions that call _core_sum."""
    return sorted(line for field in ("drift", "drift_derivative")
                  for line in _keyword_passes(tree, None, field, "_core_sum"))


def test_terms_entries_write_no_drift():
    # a builder with a closed form (_core_sum's terms) takes its drift and
    # drift derivative from its terms (_terms_diffusion), as it takes F
    bad = _drift_passes(_catalog_tree())
    assert not bad, f"catalog.py: a drift or its derivative next to _core_sum on lines {bad}"


def test_the_check_sees_a_hand_written_drift():
    tree = ast.parse("def _make_a(n):\n"
                     "    diff = _terms_diffusion(terms, drift=lambda x: n)\n"
                     "    kernel, expect = _core_sum(diff, ric, terms)\n"
                     "def _make_b(n):\n"
                     "    diff = DiffusionSpec(drift_derivative=fp, label='b')\n"
                     "    diff = dataclasses.replace(diff, drift=f)\n"
                     "    kernel, expect = _core_sum(diff, ric, terms)\n"
                     "def _make_c(n):\n"
                     "    diff = _terms_diffusion(terms, label='c')\n"
                     "    kernel, expect = _core_sum(diff, ric, terms)\n"
                     "def _make_d(n):\n"
                     "    return DiffusionSpec(drift=f, drift_derivative=fp)\n")
    assert _drift_passes(tree) == [2, 5, 6]


def test_catalog_writes_no_expectation_by_hand():
    bad = list(_local_closures(_catalog_tree(), "expectation_closed"))
    assert not bad, f"catalog.py: hand-written expectation_closed on lines {bad}"


def test_the_check_sees_a_hand_written_expectation():
    tree = ast.parse("def _make_a():\n"
                     "    def expect(lam, t, x):\n"
                     "        return 1.0\n"
                     "    return CatalogEntry(expectation_closed=expect)\n"
                     "def _make_b():\n"
                     "    kernel, expect = _core_sum(1.0, 1.0, 0.0, ((1.0, 0.0, 0.0),))\n"
                     "    f = lambda lam, t, x: 1.0\n"
                     "    return (CatalogEntry(expectation_closed=expect),\n"
                     "            CatalogEntry(expectation_closed=f, transform_rhs=f),\n"
                     "            CatalogEntry(expectation_closed=functools.partial(g, 1.0)),\n"
                     "            CatalogEntry(expectation_closed=lambda lam, t, x: 1.0))\n")
    assert sorted(_local_closures(tree, "expectation_closed")) == [4, 9, 11]


def _local_kernels(tree: ast.Module):
    """(builder, line) of each builder (a function that makes a CatalogEntry)
    that passes a lambda or a function it defines as its kernel: to
    CatalogEntry(kernel=...), as the log density of _kernel(...) or as
    continuous or log_continuous of Kernel(...). The catalog derives each
    kernel from the entry's declared constants (symmetry.bessel_core) and
    h-ratio instead; a builder may still define the weights of its branches."""
    for builder in tree.body:
        if not isinstance(builder, ast.FunctionDef) or not any(
                isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                and n.func.id == "CatalogEntry" for n in ast.walk(builder)):
            continue
        local = {n.name for n in ast.walk(builder)
                 if isinstance(n, ast.FunctionDef) and n is not builder}
        local |= {t.id for n in ast.walk(builder)
                  if isinstance(n, ast.Assign) and isinstance(n.value, ast.Lambda)
                  for t in n.targets if isinstance(t, ast.Name)}
        for call in ast.walk(builder):
            if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)):
                continue
            fields = {"CatalogEntry": ("kernel",), "_kernel": (0, "logf"),
                      "Kernel": (0, 1, "continuous", "log_continuous")}.get(call.func.id, ())
            args = [a for i, a in enumerate(call.args) if i in fields]
            args += [k.value for k in call.keywords if k.arg in fields]
            if any(isinstance(a, ast.Lambda) or isinstance(a, ast.Name) and a.id in local
                   for a in args):
                yield builder.name, call.lineno


def test_catalog_writes_no_kernel_by_hand():
    bad = list(_local_kernels(_catalog_tree()))
    assert not bad, f"catalog.py: hand-written kernels in {bad}"


def test_the_check_sees_a_hand_written_kernel():
    tree = ast.parse("def _make_a():\n"
                     "    def cont(t, x, y):\n"
                     "        return 1.0\n"
                     "    return CatalogEntry(kernel=Kernel(continuous=cont, log_continuous=0))\n"
                     "def _shared_kernel(logf):\n"
                     "    def cont(t, x, y):\n"
                     "        return 1.0\n"
                     "    return Kernel(continuous=cont, log_continuous=logf)\n"
                     "def _make_b():\n"
                     "    log_p = lambda t, x, y, xp=None: 0.0\n"
                     "    k = _kernel(log_p)\n"
                     "    return CatalogEntry(kernel=k)\n"
                     "def _make_c():\n"
                     "    def weights(y, xp):\n"
                     "        return 1.0, 0.0\n"
                     "    log_p, expect = _core_sum(diff, ric, terms)\n"
                     "    return (CatalogEntry(kernel=_kernel(log_p)),\n"
                     "            CatalogEntry(kernel=_branch_kernel(h, b, weights)),\n"
                     "            CatalogEntry(kernel=Kernel(None, lambda t, x, y: 0.0)),\n"
                     "            CatalogEntry(kernel=lambda t, x, y: 0.0))\n")
    assert sorted(_local_kernels(tree)) == [("_make_a", 4), ("_make_b", 11),
                                           ("_make_c", 19), ("_make_c", 20)]


_LINEAR_PAIR_BUILDERS = ("_make_generic_linear", "_rational_drift_inverse")


def _hand_built_pair_parts(tree: ast.Module, builders=_LINEAR_PAIR_BUILDERS):
    """(builder, line) of each call in the builders of the two-branch linear
    kernels (generic_linear's and rational_drift's finite part) to a specfun
    function, to StationarySolution, or to bessel_core with a sign: their
    branch weights and u0 come from riccati._bessel_y's y and their kernel
    from _linear_pair_kernel, on the one core of the declared constants."""
    for builder in tree.body:
        if not (isinstance(builder, ast.FunctionDef) and builder.name in builders):
            continue
        for call in ast.walk(builder):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            reads_specfun = isinstance(func, ast.Attribute) and isinstance(
                func.value, ast.Name) and func.value.id == "specfun"
            name = func.id if isinstance(func, ast.Name) else ""
            signed = name == "bessel_core" and (
                len(call.args) > 2 or any(k.arg == "sign" for k in call.keywords))
            if reads_specfun or name == "StationarySolution" or signed:
                yield builder.name, call.lineno


def test_two_branch_linear_kernels_are_built_from_y():
    bad = list(_hand_built_pair_parts(_catalog_tree()))
    assert not bad, f"catalog.py: hand-built two-branch linear parts in {bad}"


def test_the_check_sees_a_hand_built_pair_part():
    tree = ast.parse("def _make_generic_linear(c1, c2):\n"
                     "    plus, minus = bessel_core(d, r), bessel_core(d, r, -1.0)\n"
                     "    w = specfun.log_bessel_ive(-nu, z)\n"
                     "    return bessel_core(d, r, sign=-1.0), specfun\n"
                     "def _rational_drift_inverse(a):\n"
                     "    u0 = StationarySolution(eval=f, description='')\n"
                     "    return gauge_solution(diff, _bessel_y(r, 0.0, a, 2.0)[0], '')\n"
                     "def _make_cir(a):\n"
                     "    return specfun.bessel_i(1.0, a, scaled=True), StationarySolution()\n")
    assert sorted(_hand_built_pair_parts(tree)) == [
        ("_make_generic_linear", 2), ("_make_generic_linear", 3),
        ("_make_generic_linear", 4), ("_rational_drift_inverse", 6)]


def _module_imports(tree: ast.Module, module: str):
    """Lines that import `module` or a name from it, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(n == module or n.startswith(module + ".") for n in names):
            yield node.lineno


@pytest.mark.parametrize("path", _SOURCES, ids=lambda p: p.name)
def test_no_module_imports_scipy_integrate(path):
    # the catalog has its double-exponential rule and verify its Gauss-Kronrod
    # rule, and the import costs 0.3 s and about 20 MB
    bad = list(_module_imports(ast.parse(path.read_text(), filename=str(path)),
                               "scipy.integrate"))
    assert not bad, f"{path.name}: scipy.integrate imported on lines {bad}"


def test_the_check_sees_a_scipy_integrate_import():
    tree = ast.parse("import scipy.integrate\n"
                     "import scipy.special as sc\n"
                     "from scipy import integrate\n"
                     "def f():\n"
                     "    from scipy.integrate import quad\n"
                     "from scipy import interpolate\n"
                     "import scipy.integrate as si\n")
    assert sorted(_module_imports(tree, "scipy.integrate")) == [1, 3, 5, 7]


def test_cli_imports_no_argparse():
    # the CLI walks argv once against its own option tables; a second parser
    # would be a second definition of every option
    path = pathlib.Path(feynkac.__file__).parent / "cli.py"
    bad = list(_module_imports(ast.parse(path.read_text(), filename=str(path)), "argparse"))
    assert not bad, f"cli.py: argparse imported on lines {bad}"


def test_the_check_sees_an_argparse_import():
    tree = ast.parse("import argparse\n"
                     "from argparse import ArgumentParser\n"
                     "def f():\n"
                     "    import argparse as ap\n"
                     "import argparsex\n"
                     "import os, argparse\n")
    assert sorted(_module_imports(tree, "argparse")) == [1, 2, 4, 6]


_ONE_IMPLEMENTATION = ("bessel_i", "log_bessel_ive", "bessel_k", "tricomi_u", "whittaker_w")
_FALLBACKS = {"_large_z", "_log_ive_series", "hyperu"}


def _fast_path_fallbacks(tree: ast.Module):
    """(function, name) for each fallback helper, or scipy's hyperu, that the
    float path of a special function with an array implementation reads: the
    public function and every module-level function it reaches, except the
    array implementations (_*_array), which hold each check and fallback once."""
    funcs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    todo, seen = list(_ONE_IMPLEMENTATION), set()
    while todo:
        name = todo.pop()
        if name in seen or name.endswith("_array"):
            continue
        seen.add(name)
        read = {n.id for n in ast.walk(funcs[name]) if isinstance(n, ast.Name)}
        read |= {n.attr for n in ast.walk(funcs[name]) if isinstance(n, ast.Attribute)}
        yield from ((name, bad) for bad in sorted(read & _FALLBACKS))
        todo.extend(sorted(read & set(funcs)))


def test_specfun_float_paths_hand_off_to_the_array_code():
    path = pathlib.Path(feynkac.__file__).parent / "specfun.py"
    bad = list(_fast_path_fallbacks(ast.parse(path.read_text(), filename=str(path))))
    assert not bad, f"specfun.py: a float path reads a fallback: {bad}"


def test_the_check_sees_a_fallback_on_a_float_path():
    tree = ast.parse("def bessel_i(nu, z):\n"
                     "    return _helper(nu, z) if z > 0 else _bessel_i_array(nu, z)\n"
                     "def _helper(nu, z):\n"
                     "    return _large_z(nu, z)\n"
                     "def _bessel_i_array(nu, z):\n"
                     "    return _large_z(nu, z) + _log_ive_series(nu, z)\n"
                     "def log_bessel_ive(nu, z):\n"
                     "    return sc.hyperu(1.0, 2.0, z)\n"
                     "def bessel_k(nu, z):\n"
                     "    return _helper(nu, z)\n"
                     "def tricomi_u(a, b, z):\n"
                     "    return _tricomi_u_array(a, b, z)\n"
                     "def _tricomi_u_array(a, b, z):\n"
                     "    return sc.hyperu(a, b, z)\n"
                     "def whittaker_w(k, m, z):\n"
                     "    return _log_ive_series(k, m, z)\n")
    assert sorted(_fast_path_fallbacks(tree)) == [("_helper", "_large_z"),
                                                  ("log_bessel_ive", "hyperu"),
                                                  ("whittaker_w", "_log_ive_series")]


def _reads_omega_t(node) -> bool:
    return any(isinstance(n, ast.Name) and n.id in ("omega", "wt") for n in ast.walk(node))


def _callee(call: ast.Call) -> str:
    f = call.func
    return f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", "")


def _exp_of_omega_t(node) -> bool:
    """node is exp(...) or expm1(...) of an argument that reads omega or wt,
    negated or not: e^(-2 omega t) or 1 - e^(-2 omega t) themselves."""
    if isinstance(node, ast.UnaryOp):
        node = node.operand
    return (isinstance(node, ast.Call) and _callee(node) in ("exp", "expm1")
            and any(_reads_omega_t(a) for a in node.args))


def _moment_forks(tree: ast.Module, name: str = "_log_core_moments"):
    """Lines of the function name that compare omega with 0 or test omega
    alone, or that compare e^(-2 omega t) (an exp or expm1 of omega t, or a
    name bound to one) with anything: the forks of a moment formula written
    once per regime."""
    func = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name)
    exps = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = (zip(target.elts, node.value.elts)
                         if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                         else [(target, node.value)])
                exps |= {t.id for t, v in pairs if isinstance(t, ast.Name) and _exp_of_omega_t(v)}
    for node in ast.walk(func):
        if isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            names = {n.id for n in sides if isinstance(n, ast.Name)}
            zero = any(isinstance(n, ast.Constant) and n.value == 0 for n in sides)
            if ("omega" in names and zero) or names & exps or any(map(_exp_of_omega_t, sides)):
                yield node.lineno
        elif isinstance(node, (ast.If, ast.IfExp, ast.While)):
            test = node.test.operand if isinstance(node.test, ast.UnaryOp) else node.test
            if isinstance(test, ast.Name) and test.id == "omega":
                yield node.lineno


def test_core_moments_are_one_formula_for_every_omega_t():
    # the core's scales at t (_core_at) and the moments themselves
    tree = _catalog_tree()
    bad = [line for name in ("_core_at", "_log_core_moments") for line in _moment_forks(tree, name)]
    assert not bad, f"catalog.py: the moments fork on omega or e^(-2wt) on lines {bad}"


def test_the_check_sees_a_fork_on_omega_or_on_e_minus_2_omega_t():
    tree = ast.parse("def _log_core_moments(nu, c, omega, lam, t, sx, terms):\n"
                     "    if omega == 0.0:\n"
                     "        wt = 0.0\n"
                     "    E, em = math.exp(-2.0 * wt), -math.expm1(-2.0 * wt)\n"
                     "    log_k = math.log(c / t) if not omega else 0.0\n"
                     "    if E > 1e-300 or 0 != omega:\n"
                     "        pass\n"
                     "    while np.exp(-omega * t) >= 1e-300:\n"
                     "        pass\n"
                     "    arg = k0 * math.exp(-wt) * sx\n"
                     "    direct = B > 1e-300 and arg > 1e-300 and em < 1.0\n"
                     "def other(omega):\n"
                     "    return omega == 0.0\n")
    assert sorted(_moment_forks(tree)) == [2, 5, 6, 6, 8, 11]


_MOMENTS = ("laplace_bessel_moment", "log_laplace_bessel_moment_scaled",
            "log_laplace_bessel_moments")


def _moment_callers(tree: ast.Module):
    """(function, line) of each read of one of specfun's Laplace-Bessel
    moments (specfun.<moment>, or a name imported from specfun) in a
    module-level function, a nested function counted in its own: every
    closed form takes its moments through one function, so that a second
    copy of the moment formula shows."""
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("specfun")
                for alias in node.names if alias.name in _MOMENTS}
    for func in tree.body:
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            if (isinstance(node, ast.Attribute) and node.attr in _MOMENTS
                    and isinstance(node.value, ast.Name) and node.value.id == "specfun") \
                    or (isinstance(node, ast.Name) and node.id in imported):
                yield func.name, node.lineno


def test_catalog_takes_the_moment_in_one_function():
    callers = sorted({name for name, _ in _moment_callers(_catalog_tree())})
    assert len(callers) == 1, f"catalog.py: the Laplace-Bessel moment is called from {callers}"


def test_the_check_sees_a_second_caller_of_the_moment():
    tree = ast.parse("from .specfun import laplace_bessel_moment as lbm\n"
                     "def _log_moment(p, nu, s, c):\n"
                     "    return specfun.log_laplace_bessel_moment_scaled(p, nu, s, c)\n"
                     "def _series(terms, s, c):\n"
                     "    def block():\n"
                     "        return specfun.log_laplace_bessel_moments(terms, s, c)\n"
                     "    return block, specfun.laplace_bessel_terms(terms, 1.0)\n"
                     "def _other():\n"
                     "    return lbm(1.0, 1.0, 1.0, 1.0), other.log_laplace_bessel_moments\n")
    assert list(_moment_callers(tree)) == [("_log_moment", 3), ("_series", 6), ("_other", 9)]


_MUTATORS = {"append", "extend", "insert", "remove", "pop", "popitem", "clear", "update",
             "setdefault", "add", "discard", "fill", "put", "resize", "sort"}


def _module_state_writes(tree: ast.Module):
    """(function, name, line) of each write by a function into a name bound at
    module level: an item or attribute stored or deleted, a mutating method
    called, or a global statement. A name that a function binds itself (a
    parameter or an assignment) is its own, not the module's."""
    module_names = {t.id for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
                    for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
                    if isinstance(t, ast.Name)}
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        own = {a.arg for a in ast.walk(func.args) if isinstance(a, ast.arg)}
        own |= {n.id for n in ast.walk(func) if isinstance(n, ast.Name)
                and isinstance(n.ctx, ast.Store)}
        names = module_names - own
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                yield from ((func.name, name, node.lineno) for name in node.names)
            elif isinstance(node, (ast.Subscript, ast.Attribute)) \
                    and isinstance(node.ctx, (ast.Store, ast.Del)) \
                    and isinstance(node.value, ast.Name) and node.value.id in names:
                yield func.name, node.value.id, node.lineno
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _MUTATORS and isinstance(node.func.value, ast.Name) \
                    and node.func.value.id in names:
                yield func.name, node.func.value.id, node.lineno


def test_catalog_keeps_no_state_but_the_entry_cache():
    # the quadrature kept kernel values in a module-level dict between calls;
    # a lambda grid is now one pass, and only built entries are kept
    writes = [w for w in _module_state_writes(_catalog_tree()) if w[1] != "_ENTRIES"]
    assert not writes, f"catalog.py writes module-level state: {writes}"


def test_the_check_sees_a_module_level_cache():
    tree = ast.parse("_CACHE: dict = {}\n_KEYS = []\n_N = 0\n"
                     "def lookup(key):\n"
                     "    if key not in _CACHE:\n"
                     "        _CACHE[key] = len(_CACHE)\n"
                     "        _KEYS.append(key)\n"
                     "    while len(_CACHE) > 64:\n"
                     "        del _CACHE[_KEYS.pop(0)]\n"
                     "    return _CACHE[key]\n"
                     "def count():\n"
                     "    global _N\n"
                     "    _N += 1\n"
                     "def local(_CACHE):\n"
                     "    _KEYS = []\n"
                     "    _CACHE[0] = 1\n"
                     "    _KEYS.append(_CACHE)\n")
    assert sorted(_module_state_writes(tree)) == [
        ("count", "_N", 12), ("lookup", "_CACHE", 6), ("lookup", "_CACHE", 9),
        ("lookup", "_KEYS", 7), ("lookup", "_KEYS", 9)]


def _table_mismatches(tree: ast.Module, table: str = "_TABLE"):
    """(builder, fault) for each row of the module's table dict whose builder
    takes other parameters than the row declares, or in another order, or
    gives one a default."""
    funcs = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    rows = None
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        if any(isinstance(t, ast.Name) and t.id == table for t in targets):
            rows = node.value
    for row in rows.values:
        builder, params = row.elts[0].id, row.elts[1].elts
        args = funcs[builder].args
        takes = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        declared = [p.elts[0].value for p in params]
        if takes != declared:
            yield builder, f"takes {takes}, declared {declared}"
        if args.defaults or any(d is not None for d in args.kw_defaults):
            yield builder, "has defaults"


def test_each_builder_takes_its_declared_parameters():
    # a builder's signature was a second declaration of the parameter names
    # and defaults, beside its checks and the manifest's text
    bad = list(_table_mismatches(_catalog_tree()))
    assert not bad, f"catalog.py: builders differ from their table rows: {bad}"


def test_the_check_sees_a_builder_that_differs_from_its_row():
    tree = ast.parse("def _make_a(x, y): pass\n"
                     "def _make_b(y, x): pass\n"
                     "def _make_c(x, y=1.0): pass\n"
                     "def _make_d(x, *, y=None): pass\n"
                     "def _make_e(x): pass\n"
                     "_TABLE: dict = {\n"
                     "    'a': (_make_a, (('x', ..., '> 0'), ('y', 0.0, 'finite')), ''),\n"
                     "    'b': (_make_b, (('x', ..., '> 0'), ('y', 0.0, 'finite')), ''),\n"
                     "    'c': (_make_c, (('x', ..., '> 0'), ('y', 0.0, 'finite')), ''),\n"
                     "    'd': (_make_d, (('x', ..., '> 0'), ('y', 0.0, 'finite')), ''),\n"
                     "    'e': (_make_e, (('x', ..., '> 0'), ('y', 0.0, 'finite')), ''),\n"
                     "}\n")
    assert list(_table_mismatches(tree)) == [
        ("_make_b", "takes ['y', 'x'], declared ['x', 'y']"), ("_make_c", "has defaults"),
        ("_make_d", "has defaults"), ("_make_e", "takes ['x'], declared ['x', 'y']")]
