"""Verification harness: quadrature helpers, numerical Laplace inversion,
Monte Carlo, report serialization, and suite plumbing."""

import csv
import dataclasses
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from feynkac import catalog as cat
from feynkac import verify as v
from feynkac.errors import (CapabilityError, ConvergenceError, DomainError,
                            InstabilityError, SchemeError)
from feynkac.riccati import PotentialSpec


# ---------------------------------------------------------------------------
# CheckRow and reports
# ---------------------------------------------------------------------------

def test_check_row_pass_semantics():
    # mixed absolute/relative: abs_err <= tol * max(1, |reference|)
    assert v.CheckRow("id", "pt", 100.0, 100.0 + 5e-7, 1e-8).passed
    assert not v.CheckRow("id", "pt", 100.0, 100.0 + 2e-5, 1e-8).passed
    assert v.CheckRow("id", "pt", 1e-12, 5e-9, 1e-8).passed
    row = v.CheckRow("id", "pt", 2.0, 2.5, 1e-8)
    assert row.abs_err == pytest.approx(0.5)
    # relative error is normalized by the larger magnitude of the pair
    assert row.rel_err == pytest.approx(0.5 / 2.5)


def test_report_counters_and_status():
    rep = v.VerificationReport("demo")
    rep.add("a", "p1", 1.0, 1.0, 1e-8)
    rep.add("b", "p2", 1.0, 2.0, 1e-8)
    assert not rep.passed
    assert rep.n_failed == 1
    rep2 = v.VerificationReport("demo2")
    rep2.add("a", "p1", 1.0, 1.0 + 1e-12, 1e-8)
    assert rep2.passed


def test_report_csv_format():
    rep = v.VerificationReport("demo")
    rep.add("ident", "lam=0.1", 1.0 / 3.0, 1.0 / 3.0, 1e-8)
    buf = io.StringIO()
    rep.to_csv(buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert rows[0] == ["identity", "grid_point", "reference", "computed",
                       "abs_err", "rel_err", "passed"]
    # 15 significant digits on every float field
    assert rows[1][2] == "%.15g" % (1.0 / 3.0)
    assert rows[1][6] == "pass"


def test_report_json_round_trip():
    rep = v.VerificationReport("demo")
    rep.add("ident", "x=1", 0.1, 0.1 + 1e-13, 1e-8)
    buf = io.StringIO()
    rep.to_json(buf)
    obj = json.loads(buf.getvalue())
    assert obj["suite"] == "demo"
    (row,) = obj["rows"]
    # binary64 round trip: parsing the JSON float recovers the exact double
    assert row["reference"] == 0.1
    assert row["computed"] == 0.1 + 1e-13
    assert row["passed"] is True


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def test_integrate_semi_infinite_known_values():
    assert v.integrate_semi_infinite(lambda y: np.exp(-y)) \
        == pytest.approx(1.0, rel=1e-12)
    # integrable origin singularity: Gamma(1/2)
    assert v.integrate_semi_infinite(lambda y: np.exp(-y) / np.sqrt(y)) \
        == pytest.approx(math.sqrt(math.pi), rel=1e-10)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(alpha=st.floats(-0.9, 4.0), beta=st.floats(0.05, 20.0))
def test_integrate_semi_infinite_gamma_integrals(alpha, beta):
    # y^alpha e^(-beta y): an endpoint singularity at 0 and the tail's scale
    # 1/beta; the geometric splits of the panel at 0 resolve y^alpha
    got = v.integrate_semi_infinite(lambda y: y ** alpha * np.exp(-beta * y))
    assert got == pytest.approx(math.gamma(alpha + 1.0) / beta ** (alpha + 1.0),
                                rel=1e-10)


@pytest.mark.parametrize("f", [lambda y: 1.0 / (1.0 + y), lambda y: 1.0 / y],
                         ids=["log_tail", "log_origin"])
def test_integrate_semi_infinite_divergent_raises(f):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ConvergenceError):
            v.integrate_semi_infinite(f)


def test_integrate_semi_infinite_non_finite_raises():
    # a NaN error estimate compares false against any bound
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ConvergenceError):
            v.integrate_semi_infinite(lambda y: np.full_like(y, np.nan))


def test_integrate_semi_infinite_evaluates_each_round_in_one_call():
    # a 1-D integrand and a (k, n) one alike: one call of f per round
    for k in (None, 3):
        calls = []

        def f(y):
            calls.append(y.size)
            one = np.exp(-y) / np.sqrt(y)
            return one if k is None else np.outer(np.arange(1.0, k + 1.0), one)

        got = v.integrate_semi_infinite(f)
        assert len(calls) > 1 and all(n % 21 == 0 for n in calls)
        assert type(got) is float if k is None else got.shape == (k,)


_COMPONENTS = [lambda y: np.exp(-y) / np.sqrt(y),
               lambda y: y ** 2 * np.exp(-2.0 * y),
               lambda y: 1.0 / (1.0 + y) ** 2,
               lambda y: 1e-9 * np.exp(-50.0 * (y - 3.0) ** 2)]


def test_integrate_semi_infinite_of_a_vector_integrand_matches_each_component():
    # the k integrals share one mesh, refined until each meets its own
    # tolerance, so each is within 1e-12 of its own 1-D integration
    got = v.integrate_semi_infinite(lambda y: np.array([f(y) for f in _COMPONENTS]))
    assert got.shape == (len(_COMPONENTS),)
    for g, f in zip(got, _COMPONENTS):
        one = v.integrate_semi_infinite(f)
        assert g == pytest.approx(one, rel=1e-12, abs=0.0)
    # one row is the k = 1 case of the same code: an array of one
    one_row = v.integrate_semi_infinite(lambda y: np.exp(-y)[None, :])
    assert one_row.shape == (1,) and one_row[0] == v.integrate_semi_infinite(
        lambda y: np.exp(-y))


def _quadpack(f):
    """scipy's adaptive quad of an array integrand, split at 1, with the
    tolerances the verify suites used before they had their own rule."""
    from scipy import integrate

    def scalar(y):
        return float(f(np.array([y]))[0])

    kw = dict(limit=400, epsabs=1e-14, epsrel=1e-10)
    return (integrate.quad(scalar, 0.0, 1.0, **kw)[0]
            + integrate.quad(scalar, 1.0, math.inf, **kw)[0])


_QUADRATURE_CALLS = {"closed_form": 22, "mass": 35}


@pytest.mark.parametrize("suite,count", [("closed_form", 66), ("mass", 35)])
def test_integrate_semi_infinite_agrees_with_quadpack(suite, count, monkeypatch):
    # every integral of the two suites (closed_form's 3 lambdas of each (t,
    # x) are one call), with QUADPACK as an oracle; the suites' integrands
    # read loop variables, so each is checked at once
    pairs, calls = [], []

    def record(f, rule=v.integrate_semi_infinite):
        val = rule(f)
        calls.append(f)
        if np.ndim(val):
            pairs.extend((vj, _quadpack(lambda y, j=j: f(y)[j])) for j, vj in enumerate(val))
        else:
            pairs.append((val, _quadpack(f)))
        return val

    monkeypatch.setattr(v, "integrate_semi_infinite", record)
    v.run_suite(suite)
    assert len(pairs) == count and len(calls) == _QUADRATURE_CALLS[suite]
    for val, ref in pairs:
        assert val == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("suite,calls", [
    ("closed_form", 22), ("whittaker", 1),
    ("transform", len(v._transform_entries()) * len(v._TRANSFORM_TS) * len(v._TRANSFORM_XS))])
def test_each_lambda_sweep_is_one_integration(suite, calls, monkeypatch):
    # one integration per (entry, t, x), whatever the number of lambdas
    n = []

    def count(f, rule=v.integrate_semi_infinite):
        n.append(f)
        return rule(f)

    monkeypatch.setattr(v, "integrate_semi_infinite", count)
    v.run_suite(suite)
    assert len(n) == calls


def test_chapman_evaluates_no_kernel_at_a_single_node(monkeypatch):
    # the second step takes the nodes as x, in one call: the only kernel
    # calls at a float x and a float y are the one-step kernels, one a row
    kinds = []
    make = cat.make_entry

    def recording(name, **params):
        e = make(name, **params)
        k = e.kernel.continuous

        def cont(t, x, y):
            kinds.append((type(x) is np.ndarray, type(y) is np.ndarray))
            return k(t, x, y)
        return dataclasses.replace(e, kernel=dataclasses.replace(e.kernel, continuous=cont))

    monkeypatch.setattr(cat, "make_entry", recording)
    rows = v.run_suite("chapman").rows
    assert rows and all(r.passed for r in rows)
    assert kinds.count((False, False)) == len(rows)
    assert kinds.count((True, False)) == kinds.count((False, True)) > 0


# ---------------------------------------------------------------------------
# numerical Laplace inversion
# ---------------------------------------------------------------------------

def test_gaver_stehfest_weights_validation():
    w = v.gaver_stehfest_weights(14)
    assert len(w) == 14
    # the weights sum to zero (a necessary identity for any valid order)
    assert sum(w) == pytest.approx(0.0, abs=1e-4 * max(abs(x) for x in w))
    with pytest.raises(DomainError):
        v.gaver_stehfest_weights(13)
    with pytest.raises(DomainError):
        v.gaver_stehfest_weights(0)


@pytest.mark.parametrize("F,f,t", [
    (lambda s: 1.0 / (s + 1.0), lambda t: math.exp(-t), 1.0),
    (lambda s: 1.0 / (s * s), lambda t: t, 0.7),
    (lambda s: 1.0 / (s * s + 2.0 * s + 1.0), lambda t: t * math.exp(-t), 2.0),
])
def test_laplace_invert_known_pairs(F, f, t):
    assert v.laplace_invert(F, t) == pytest.approx(f(t), rel=5e-4)


def test_laplace_invert_flags_instability():
    # the transform of an oscillatory original defeats the real-axis scheme;
    # the order-12/14/16 cross-check must catch it instead of returning junk
    with pytest.raises(InstabilityError):
        v.laplace_invert(lambda s: 1.0 / math.sqrt(s * s + 1.0), 20.0)


def test_laplace_invert_recovers_transition_density():
    params = {"n": 3.0}
    y = 1.4

    def F(lam):
        return cat.transform_rhs("besq", params, lam, 1.0, 1.0) * math.exp(lam * 0.0)

    # invert the y-Laplace transform of the kernel at t=1, x=1
    def F_y(lam):
        return cat.transform_rhs("besq", params, lam, 1.0, 1.0)

    inv = v.laplace_invert(F_y, y)
    ref = cat.density("besq", params, 1.0, 1.0, y)
    assert inv == pytest.approx(ref, rel=1e-4)


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def test_mc_exact_sampler_matches_closed_form():
    entry = cat.make_entry("besq", n=3.0)
    mean, se = v.mc_expectation(entry, 0.5, 1.0, 1.0,
                                v.McSpec(n_paths=200000), run_index=0)
    ref = cat.expectation("besq", {"n": 3.0}, 0.5, 1.0, 1.0)
    assert se < 2e-3
    assert abs(mean - ref) < 4.0 * se


def test_mc_euler_scheme_matches_closed_form():
    entry = cat.make_entry("cir", a=1.0, b=0.8, sigma=0.5)
    mean, se = v.mc_expectation(entry, 0.5, 1.0, 1.0,
                                v.McSpec(n_paths=40000, n_steps=400))
    ref = cat.expectation("cir", {"a": 1.0, "b": 0.8, "sigma": 0.5},
                          0.5, 1.0, 1.0)
    assert abs(mean - ref) < 4.0 * max(se, 1e-3)


def test_mc_is_deterministic_given_seed_and_run_index():
    entry = cat.make_entry("besq", n=3.0)
    spec = v.McSpec(n_paths=5000)
    a = v.mc_expectation(entry, 0.5, 1.0, 1.0, spec, run_index=3)
    b = v.mc_expectation(entry, 0.5, 1.0, 1.0, spec, run_index=3)
    c = v.mc_expectation(entry, 0.5, 1.0, 1.0, spec, run_index=4)
    assert a == b
    assert a != c


def test_mc_exact_sampler_limited_to_supported_entries():
    entry = cat.make_entry("cir", a=1.0, b=0.8, sigma=0.5)
    with pytest.raises(CapabilityError):
        v.mc_expectation(entry, 0.5, 1.0, 1.0, v.McSpec(n_paths=100),
                         exact=True)


@pytest.mark.parametrize("kw", [{"n_paths": 1}, {"n_paths": 0}, {"n_paths": -5},
                                {"n_steps": 0}, {"n_steps": -1}, {"seed": -1}])
def test_mc_spec_rejects_unusable_sizes(kw):
    with pytest.raises(DomainError):
        v.McSpec(**kw)


# entries whose drift and killing take path arrays: the Euler step makes one
# call per step for each, never one per path
_ARRAY_NATIVE = [
    ("besq", {"n": 3.0}),  # constant drift: a scalar, broadcast over the paths
    ("tanh_drift", {"mu": 0.5}),
    ("sqrt_drift", {"a": 1.5, "b": 0.8, "A": 1.2, "B": 0.6}),
    ("cir", {"a": 1.0, "b": 1.0, "sigma": 1.0, "mu": 0.3}),
    ("bessel", {"a": 1.2, "mu": 0.6}),
    ("radial_ou", {"a": 2.0, "b": -0.4, "mu": 0.3}),
    ("bessel_drift", {"a": 0.5, "b": 1.3}),
    ("generic_linear", {"sigma": 1.0, "A": 1.0, "B": -0.3, "mu": 0.05}),
    ("generic_linear", {"sigma": 1.0, "A": 1.0, "B": -0.3, "mu": 0.05, "c2": 0.7}),
]
_SMALL_MC = v.McSpec(n_paths=200, n_steps=50)


def _no_vectorize(*args, **kwargs):
    raise AssertionError("np.vectorize called")


@pytest.mark.parametrize("name,params", _ARRAY_NATIVE)
def test_mc_euler_step_runs_on_path_arrays(name, params, monkeypatch):
    entry = cat.make_entry(name, **params)
    monkeypatch.setattr(np, "vectorize", _no_vectorize)
    mean, se = v.mc_expectation(entry, 0.3, 0.8, 1.2, _SMALL_MC, exact=False)
    assert math.isfinite(mean) and 0.0 < mean < 1.0 and se > 0.0


def _element_wise(entry):
    """entry with its drift and killing evaluated one path at a time"""
    diff, pot = entry.diffusion, entry.potential
    diff = dataclasses.replace(diff, drift=np.vectorize(diff.drift, otypes=[float]))
    if pot.form != "zero":
        pot = PotentialSpec(form="tabulated",
                            func=np.vectorize(pot.__call__, otypes=[float]))
    return dataclasses.replace(entry, diffusion=diff, potential=pot)


@pytest.mark.parametrize("name,params", _ARRAY_NATIVE)
def test_mc_euler_step_matches_element_wise_evaluation(name, params):
    entry = cat.make_entry(name, **params)
    fast = v.mc_expectation(entry, 0.3, 0.8, 1.2, _SMALL_MC, exact=False)
    slow = v.mc_expectation(_element_wise(entry), 0.3, 0.8, 1.2, _SMALL_MC,
                            exact=False)
    if name in ("besq", "cir"):
        assert fast == slow
    else:
        assert fast[0] == pytest.approx(slow[0], rel=1e-12, abs=0.0)
        assert fast[1] == pytest.approx(slow[1], rel=1e-12, abs=0.0)


def _frozen_mc_euler(entry, lam, t, x, spec, run_index):
    """the one-case Euler loop as it was written before the cases of a seed
    shared their draws: its own generator and one rng.normal(0, sqrt(dt)) per
    step"""
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, run_index]))
    diff, pot = entry.diffusion, entry.potential
    dt = t / spec.n_steps
    X = np.full(spec.n_paths, float(x))
    Xp = np.maximum(X, v._MC_CLIP)
    g_int = np.zeros(spec.n_paths)
    g_prev = pot(Xp)
    for _ in range(spec.n_steps):
        dW = rng.normal(0.0, math.sqrt(dt), size=spec.n_paths)
        X = X + diff.drift(Xp) * dt + np.sqrt(2.0 * diff.sigma * Xp ** diff.gamma) * dW
        Xp = np.maximum(X, v._MC_CLIP)
        g_now = pot(Xp)
        g_int += 0.5 * dt * (g_prev + g_now)
        g_prev = g_now
    vals = np.exp(-lam * np.maximum(X, 0.0) ** entry.state_power - g_int)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(vals.size))


def _mixed_cases():
    """every _ARRAY_NATIVE entry by Euler and besq by its exact sampler (by
    default and asked for), each at its own lam, t and x"""
    cases = [(cat.make_entry(name, **params), 0.1 + 0.05 * i, 0.5 + 0.1 * i,
              0.9 + 0.07 * i, False) for i, (name, params) in enumerate(_ARRAY_NATIVE)]
    besq = cat.make_entry("besq", n=3.0)
    cases.insert(3, (besq, 0.45, 1.1, 0.7, None))
    return cases + [(besq, 0.6, 0.4, 1.3, True)]


def test_mc_expectations_equal_each_case_alone():
    cases = _mixed_cases()
    batch = v.mc_expectations(cases, _SMALL_MC, run_index=2)
    alone = [v.mc_expectation(e, lam, t, x, _SMALL_MC, run_index=2, exact=exact)
             for e, lam, t, x, exact in cases]
    assert batch == alone
    assert batch != v.mc_expectations(cases, _SMALL_MC, run_index=3)
    for (e, lam, t, x, exact), got in zip(cases, batch):
        if exact is False:
            assert got == _frozen_mc_euler(e, lam, t, x, _SMALL_MC, 2)


class _LoggedGenerator:
    """a numpy Generator that appends the name of each method called to log"""

    def __init__(self, gen, log):
        self._gen, self._log = gen, log

    def __getattr__(self, name):
        method = getattr(self._gen, name)

        def logged(*args, **kwargs):
            self._log.append(name)
            return method(*args, **kwargs)
        return logged


@pytest.fixture
def generator_logs(monkeypatch):
    """one log per generator that default_rng makes"""
    logs, default_rng = [], np.random.default_rng

    def logged_rng(seed):
        logs.append([])
        return _LoggedGenerator(default_rng(seed), logs[-1])
    monkeypatch.setattr(np.random, "default_rng", logged_rng)
    return logs


@pytest.mark.parametrize("k", [1, 2, len(_ARRAY_NATIVE)])
def test_mc_expectations_draws_one_normal_array_per_step(k, generator_logs):
    cases = [(cat.make_entry(name, **params), 0.3, 0.8, 1.2, False)
             for name, params in _ARRAY_NATIVE[:k]]
    v.mc_expectations(cases, _SMALL_MC)
    assert generator_logs == [["standard_normal"] * _SMALL_MC.n_steps]
    generator_logs.clear()
    v.mc_expectations(cases + [(cat.make_entry("besq", n=3.0), 0.3, 0.8, 1.2, True)],
                      _SMALL_MC)
    assert sorted(generator_logs) == [["noncentral_chisquare"],
                                      ["standard_normal"] * _SMALL_MC.n_steps]


def test_mc_expectations_refuses_exact_sampling_before_any_draw(generator_logs):
    cir = cat.make_entry("cir", a=1.0, b=0.8, sigma=0.5)
    cases = [(cir, 0.5, 1.0, 1.0, False), (cir, 0.5, 1.0, 1.0, True)]
    with pytest.raises(CapabilityError, match=r"case 1 \(cir\): exact sampling"):
        v.mc_expectations(cases, _SMALL_MC)
    assert generator_logs == []


def test_mc_scheme_error_names_its_case():
    # lam = -1000 makes the weight exp(1000 X_t) overflow on most paths
    cases = [(cat.make_entry("cir", a=1.0, b=0.8, sigma=0.5), 0.5, 1.0, 1.0, False),
             (cat.make_entry("besq", n=3.0), -1000.0, 0.8, 1.2, False)]
    with np.errstate(over="ignore"), pytest.raises(
            SchemeError, match=r"case 1 \(besq, lam=-1000.0, t=0.8, x=1.2\): [0-9.]+% of paths"):
        v.mc_expectations(cases, _SMALL_MC)


@pytest.mark.parametrize("exact", [True, False])
def test_mc_paths_that_cannot_be_allocated_raise_domain_error(exact):
    # 10^15 paths are 8 PB per array, past any address space: the first
    # allocation fails without touching memory
    spec = v.McSpec(n_paths=10 ** 15, n_steps=1)
    with pytest.raises(DomainError, match="cannot allocate arrays of 1000000000000000 paths"):
        v.mc_expectation(cat.make_entry("besq", n=3.0), 0.5, 1.0, 1.0, spec, exact=exact)


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------

def test_check_transform_identity_row():
    entry = cat.make_entry("besq", n=3.0)
    (row,) = v.check_transform_identity(entry, (0.7,), 0.8, 1.2).rows
    assert row.passed
    assert "besq" in row.identity
    # a float lam is a sweep of one; a 2-D lams is a DomainError
    assert v.check_transform_identity(entry, 0.7, 0.8, 1.2).rows == [row]
    with pytest.raises(DomainError, match="lams"):
        v.check_transform_identity(entry, [[0.7]], 0.8, 1.2)


def test_check_mass_row():
    entry = cat.make_entry("besq", n=2.5)
    assert v.check_mass(entry, 1.0, 1.3).passed


def test_check_chapman_rejects_atom_kernels():
    entry = cat.make_entry("rational_showcase", a=1.0, b=1.0)
    with pytest.raises(CapabilityError):
        v.check_chapman(entry, 0.5, 0.5, 1.0, 1.0)


def test_bessel_expectation_by_integral_matches_closed_form():
    # independent single-integral representation of the same expectation
    a, mu = 1.2, 0.6
    for lam, t, x in [(0.5, 0.8, 1.1), (2.0, 0.4, 0.7)]:
        alt = v.bessel_expectation_by_integral(a, mu, lam, t, x)
        ref = cat.expectation("bessel", {"a": a, "mu": mu}, lam, t, x)
        assert alt == pytest.approx(ref, rel=1e-8)


def test_hartman_ratio_identity():
    for n, nu in [(3.0, 0.5), (2.5, 1.0)]:
        ref, computed = v.hartman_ratio_gap(n, nu, 1.0, 1.2, 0.9)
        assert computed == pytest.approx(ref, abs=1e-10 * max(1.0, abs(ref)))


def test_residual_convergence_order_near_two():
    entry = cat.make_entry("besq", n=3.0)
    # the kernel solves the backward equation in its starting point x
    u = lambda x, t: cat.density("besq", {"n": 3.0}, t + 0.5, x, 1.4)
    order = v.residual_convergence_order(u, entry.diffusion, entry.potential,
                                         1.2, 0.4)
    assert order == pytest.approx(2.0, abs=0.2)


# ---------------------------------------------------------------------------
# suite plumbing
# ---------------------------------------------------------------------------

def test_run_suite_unknown_name():
    with pytest.raises(DomainError):
        v.run_suite("nope")


def test_run_suite_rows_are_sorted_and_filterable():
    rep = v.run_suite("hartman")
    keys = [(r.identity, r.grid_point) for r in rep.rows]
    assert keys == sorted(keys)
    assert rep.passed

    full = v.run_suite("mass")
    filtered = v.run_suite("mass", entry_filter="besq")
    assert 0 < len(filtered.rows) < len(full.rows)
    assert all("besq" in r.identity for r in filtered.rows)


def test_run_suite_entry_filter_must_name_an_entry():
    with pytest.raises(DomainError):
        v.run_suite("hartman", entry_filter="nosuch")


def test_run_suite_tolerance_override():
    rep = v.run_suite("hartman", tol=1e-30)
    assert not rep.passed  # nothing is exact to 1e-30
