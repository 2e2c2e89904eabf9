"""Catalog of diffusions: kernels, boundary atoms, transforms, expectations.
Reference values come from independent routes: scipy.stats kernels,
elementary-function rewrites of half-integer Bessel cases, and direct
quadrature of the defining integrals."""

import dataclasses
import importlib.util
import json
import math
import os
import pathlib
import re
import select
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
import scipy.integrate as si
import scipy.special as sc
import scipy.stats as ss

import feynkac
from feynkac import catalog as cat
from feynkac import specfun as sf
from feynkac import verify
from feynkac.errors import (CapabilityError, ConvergenceError, DomainError,
                            EvalOverflowError, FeynkacError, ValidityError)
from feynkac.riccati import fit_riccati
from test_acceptance import DOCUMENTED_CONSTANTS, RADIAL_OU_CASE

T, X = 1.0, 1.0


# ---------------------------------------------------------------------------
# registry and manifest
# ---------------------------------------------------------------------------

def test_entry_names_sorted_and_complete():
    assert list(cat.ENTRY_NAMES) == sorted(cat.ENTRY_NAMES)
    assert len(cat.ENTRY_NAMES) == 11


def test_manifest_schema():
    m = cat.manifest()
    assert m["schema_version"] == 2
    assert [e["name"] for e in m["entries"]] == list(cat.ENTRY_NAMES)
    for e in m["entries"]:
        assert set(e) == {"name", "parameters", "required", "defaults", "validity"}
        assert isinstance(e["parameters"], list)
        assert sorted(e["required"] + list(e["defaults"])) == sorted(e["parameters"])
        assert isinstance(e["validity"], str) and e["validity"]


def test_make_entry_rejects_unknown_names_and_parameters():
    with pytest.raises(DomainError):
        cat.make_entry("nope")
    with pytest.raises(DomainError):
        cat.make_entry("besq", n=3.0, zz=1.0)


@pytest.mark.parametrize("name,params,missing", [
    ("sqrt_drift", {"a": 1.0, "b": 1.0}, "['A', 'B']"),
    ("cir", {"a": 1.0}, "['b', 'sigma']"),
    ("besq", {"mu": 0.5}, "['n']"),
])
def test_make_entry_names_missing_required_parameters(name, params, missing):
    # a builder's parameters without a default are required; a missing one
    # raised a raw TypeError from the builder's call
    for p in (params, {k: np.array(v) for k, v in params.items()}):  # cached, uncached
        with pytest.raises(DomainError, match=re.escape(f"{name} needs parameters {missing}")):
            cat.make_entry(name, **p)


def test_entry_parameters_are_the_builders_signatures():
    assert cat.ENTRY_PARAMETERS["cir"] == ("a", "b", "sigma", "mu", "mu_lin")
    assert cat.ENTRY_PARAMETERS["tanh_drift"] == ("mu",)
    assert cat.make_entry("tanh_drift").params == {"mu": 0.0}


def test_make_entry_shares_one_entry_per_parameter_set():
    e1 = cat.make_entry("cir", a=1.1, b=0.8, sigma=0.6)
    e2 = cat.make_entry("cir", sigma=0.6, b=0.8, a=1.1)
    assert e1 is e2
    assert cat.make_entry("cir", a=1.1, b=0.8, sigma=0.7) is not e1


def test_unknown_parameter_raises_after_the_entry_is_cached():
    cached = cat.make_entry("cir", a=1.1, b=0.8, sigma=0.6)
    for params in ({"a": 1.1, "b": 0.8, "sigma": 0.6, "zz": 1.0},
                   {"zz": 1.0, "sigma": 0.6, "b": 0.8, "a": 1.1}):
        with pytest.raises(DomainError, match="does not take parameters"):
            cat.make_entry("cir", **params)
        with pytest.raises(DomainError, match="does not take parameters"):
            cat.density("cir", params, T, X, 1.3)
    with pytest.raises(DomainError, match="unknown entry"):
        cat.make_entry("cirr", a=1.1, b=0.8, sigma=0.6)
    assert cat.make_entry("cir", a=1.1, b=0.8, sigma=0.6) is cached


def test_entry_cache_stays_within_its_bound(monkeypatch):
    monkeypatch.setattr(cat, "_ENTRIES", {})
    monkeypatch.setattr(cat, "_ENTRY_CACHE_SIZE", 8)
    first = cat.make_entry("tanh_drift", mu=0.5)
    ref = (cat.density(first, None, T, X, 1.3), cat.expectation(first, None, 0.3, T, X),
           cat.transform_rhs(first, None, 0.3, T, X))
    for k in range(20):  # in both keyword orders: two keys per set
        cat.make_entry("cir", a=1.0 + 0.01 * k, b=0.8, sigma=0.6)
        cat.make_entry("cir", sigma=0.6, b=0.8, a=1.0 + 0.01 * k)
        assert len(cat._ENTRIES) <= 8
    again = cat.make_entry("tanh_drift", mu=0.5)
    assert again is not first  # evicted, so built anew
    assert (cat.density("tanh_drift", {"mu": 0.5}, T, X, 1.3),
            cat.expectation("tanh_drift", {"mu": 0.5}, 0.3, T, X),
            cat.transform_rhs("tanh_drift", {"mu": 0.5}, 0.3, T, X)) == ref


def test_int_and_float_parameters_give_equal_values():
    # 3 and 3.0 are separate cache keys; they must still agree
    assert cat.make_entry("besq", n=3) is not cat.make_entry("besq", n=3.0)
    assert cat.density("besq", {"n": 3}, T, X, 1.3) == \
        cat.density("besq", {"n": 3.0}, T, X, 1.3)
    assert cat.expectation("besq", {"n": 3}, 0.3, T, X) == \
        cat.expectation("besq", {"n": 3.0}, 0.3, T, X)


def test_unhashable_parameter_values_still_build():
    ref = cat.density("besq", {"n": 3.0}, T, X, 1.3)
    assert cat.density("besq", {"n": np.array(3.0)}, T, X, 1.3) == ref


def test_invalid_parameters_raise_on_every_call():
    for _ in range(2):
        with pytest.raises(ValidityError):
            cat.make_entry("bessel", a=0.4)
        with pytest.raises(ValidityError):
            cat.density("bessel", {"a": 0.4}, T, X, 1.0)


@pytest.mark.parametrize("name,params,bad", [
    ("besq", {"n": 3.0}, "mu"),
    ("tanh_drift", {}, "mu"),
    ("cir", {"a": 1.0, "b": 1.0}, "sigma"),
    ("bessel", {"a": 1.2}, "mu"),
])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_make_entry_rejects_non_finite_parameters(name, params, bad, value):
    # the error names the parameter when the entry is built, on the cached
    # route and on the unhashable (uncached) one alike
    for v in (value, np.array(value)):
        with pytest.raises(ValidityError, match=f"parameter {bad} must be finite"):
            cat.make_entry(name, **params, **{bad: v})


# arithmetic failures of a builder at extreme values in the declared domains,
# which make_entry raised as a raw ValueError or OverflowError
_BUILD_OVERFLOWS = [
    ("cir", {"a": 1.8926938222665756e-108, "b": 8.307975762656482e-152,  # c omega underflows
             "sigma": 1.4933773446615243e+227, "mu": 0.2177870434809356}),
    ("generic_linear", {"sigma": 1.1011727848699844e+204, "A": 2.0713989024154565e+179,
                        "B": -0.0013883700236360856, "mu": 9.824757822787042e-186,
                        "c1": 290.2726503353613, "c2": 2.6250566988446047}),  # index inf
    ("generic_quadratic", {"sigma": 0.36492111758005746, "a": 2.7704163436392677e+237,
                           "b": -0.004652567368274137, "mu": 45.80247698201432,
                           "c1": 3.4349965511617435e+116,
                           "c2": 1.4195026805492273e+81}),  # round(nu) of an infinite nu
    ("generic_quadratic", {"sigma": 1.3986811374755758e+246, "a": 1.6952728507756854e+204,
                           "b": -3.2579842000116535e+246, "mu": 3.2327356205278482e-46,
                           "c1": 6.12505298899225e+261, "c2": -1.3660889396771583}),  # NaN nu
    ("generic_quadratic", {"sigma": 2.0536680879627707e-203, "a": 4.1484306339560525e+104,
                           "b": -7.47993902196328e+66, "mu": 1.2046329911336398,
                           "c1": -7.095137954664726e-96,
                           "c2": 9.787922555285932e-240}),  # lgamma(nu) overflows
]


@pytest.mark.parametrize("name,params", _BUILD_OVERFLOWS)
def test_builder_arithmetic_failure_is_eval_overflow(name, params):
    with pytest.raises(EvalOverflowError, match=f"make_entry: entry {name} failed"):
        cat.make_entry(name, **params)


_BOUNDS = {"finite": None, "> 0": 0.0, ">= 0": 0.0, "> 1/2": 0.5, "> -1": -1.0}
_MAGNITUDE = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)


@st.composite
def _declared_params(draw, name):
    """Each required parameter of the entry, and each other one or not, at a
    magnitude log-uniform over [1e-300, 1e300]: from 0 with either sign where
    its domain is every finite value, else into the domain from its bound."""
    params = {}
    for k, default, domain in cat._TABLE[name][1]:
        if default is ... or draw(st.booleans()):
            bound, mag = _BOUNDS[domain], draw(_MAGNITUDE)
            if bound is None:
                params[k] = draw(st.sampled_from([-mag, mag]))
            else:  # the least value past a bound that bound + mag rounds to
                params[k] = max(bound + mag, math.nextafter(bound, math.inf))
    return params


@pytest.mark.parametrize("name", cat.ENTRY_NAMES)
def test_make_entry_over_the_declared_domains(name):
    # in the domains, an entry or a FeynkacError (a builder's arithmetic
    # failed raw at extreme magnitudes); one parameter drawn below its bound,
    # the ValidityError that names it
    bounded = [(k, d) for k, _, d in cat._TABLE[name][1] if _BOUNDS[d] is not None]

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(params=_declared_params(name), bad=st.sampled_from(bounded), mag=_MAGNITUDE)
    def check(params, bad, mag):
        try:
            cat.make_entry(name, **params)
        except FeynkacError:
            pass
        k, domain = bad
        params[k] = _BOUNDS[domain] - mag
        with pytest.raises(ValidityError, match=re.escape(f"{name}: requires {k} {domain} (got")):
            cat.make_entry(name, **params)

    for n, params in _BUILD_OVERFLOWS:
        if n == name:
            check = example(params=dict(params), bad=bounded[0], mag=1.0)(check)
    check()


def test_entry_params_are_read_only():
    entry = cat.make_entry("besq", n=3.0)
    with pytest.raises(TypeError):
        entry.params["n"] = 5.0
    assert dict(entry.params) == {"n": 3.0, "mu": 0.0, "nu": 0.0}
    assert entry.params["n"] == 3.0
    assert cat.make_entry("besq", n=3.0).params["n"] == 3.0
    rows = cat.joint_laplace_in_mu(entry, None, 0.3, T, X, [0.0, 0.5])
    assert rows[0][1] == pytest.approx(0.4096281656329643, rel=1e-12, abs=0.0)
    assert rows[1][1] < rows[0][1]


def test_closed_form_arithmetic_error_is_feynkac_error():
    # x^2 overflows in the radial_ou closed form (state power 2) at x = 1e160
    with pytest.raises(EvalOverflowError):
        cat.expectation("radial_ou", {"a": 1.5, "b": 0.6}, 0.5, 1.0, 1e160)


@pytest.mark.parametrize("name,params,t", [("tanh_drift", {}, 400.0),
                                           ("radial_ou", {"a": 1.5, "b": 0.6}, 800.0)])
def test_closed_form_where_e_minus_2_omega_t_underflows(name, params, t):
    # e^(-2 omega t) underflows and lam + beta + c omega = 0 in one term: the
    # moments carry it as a log, and with lam = 0 and no killing the value is
    # the mass, 1
    assert cat.expectation(name, params, 0.0, t, 1.0) == pytest.approx(1.0, rel=1e-13, abs=0.0)


def test_closed_form_where_x_squared_underflows():
    # X = x^2 underflows to 0 at x = 1e-300 (state power 2): the moments take
    # log X as 2 log x
    assert cat.expectation("radial_ou", {"a": 1.5, "b": 0.6}, 0.0, 1.0, 1e-300) \
        == pytest.approx(1.0, rel=1e-13, abs=0.0)
    params = {"a": 1.2, "mu": 0.6}
    val = cat.expectation("bessel", params, 0.0, 1.0, 1e-300)
    assert val == pytest.approx(
        cat.expectation("bessel", params, 0.0, 1.0, 1e-300, method="quadrature"),
        rel=1e-12, abs=0.0)


def test_state_whose_square_overflows_is_an_overflow_error():
    # x = 1e160 at state power 2: x^2, and x y in the kernel's Bessel
    # argument, overflow; both raised DomainError ("non-finite argument")
    params = {"a": 1.5, "b": 0.6}
    with pytest.raises(EvalOverflowError):
        cat.expectation("radial_ou", params, 0.0, 1.0, 1e160)
    for y in (1e160, np.array([1.0, 1e160])):
        for log in (False, True):
            with pytest.raises(EvalOverflowError):
                cat.density("radial_ou", params, 1.0, 1e160, y, log=log)


def test_rational_drift_atom_at_large_t():
    # the orbit's rate sqrt(mu)/tanh(sqrt(mu) t) tends to sqrt(mu): at t = 1000
    # the atom weight is its limit 2 e^(-sqrt(mu) x)/(2 + a x), and so is the
    # expectation, whose continuous part has decayed
    a, mu, x = 0.7, 0.3, 2.0
    limit = 2.0 * math.exp(-math.sqrt(mu) * x) / (2.0 + a * x)
    (atom,) = cat.atom_weights("rational_drift", {"a": a, "mu": mu}, 1000.0, x)
    assert atom[:2] == (0.0, 0)
    assert atom[2] == pytest.approx(limit, rel=1e-12, abs=0.0)
    assert cat.expectation("rational_drift", {"a": a, "mu": mu}, 0.3, 1000.0, x) \
        == pytest.approx(limit, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("name,params,t,x", [
    ("tanh_drift", {}, 1e5, 1.0), ("tanh_drift", {}, 1e12, 1.0),
    ("tanh_drift", {}, 1e16, 1.0), ("tanh_drift", {}, 1e18, 1e3),
    ("radial_ou", {"a": 1.5, "b": 0.7}, 1e16, 1.0)])
def test_mass_where_the_e_y_term_carries_the_moment_at_large_t(name, params, t, x):
    # no killing and lam = 0: the mass, 1. The e^(c omega Y) term (D = 0 in
    # _log_core_moments) summed omega t parts that cancel: 1 + 1.3e-12 at
    # t = 1e5, 1.0000211 at 1e12, 1.119 at 1e16, 31.6 at (1e18, 1e3); radial_ou
    # 0.368 at 1e16
    for lam in (0.0, np.array([0.0, 0.0])):
        try:
            val = cat.expectation(name, params, lam, t, x)
        except EvalOverflowError:
            continue
        assert np.abs(val - 1.0).max() <= 2e-10
    # where D > 0 the terms underflow and the mass goes on decaying to the atom
    got = cat.expectation("tanh_drift", {"mu": 0.9}, np.array([0.0, 0.3]), 1e16, x)
    assert np.isfinite(got).all() and (got >= 0.0).all()


def test_kernels_where_sinh_omega_t_overflows():
    # sinh(omega t) overflows from omega t ~ 710 on (both raised
    # EvalOverflowError): the Bessel core takes its argument as a log. cir at
    # t = 3000 has reached its stationary Gamma density (mpmath); tanh_drift's
    # density at t = 1e4 underflows to 0, and its log is mpmath's
    assert cat.density("cir", {"a": 1.1, "b": 0.8, "sigma": 0.6}, 3000.0, 1.0, 1.0) \
        == pytest.approx(0.4748585660155789, rel=1e-10)
    assert cat.density("tanh_drift", {}, 1e4, 1.0, 1.0) == 0.0
    ref = float(mpmath.log(_mp_tanh_drift(0, mpmath.mpf(1e4), 1, 1)))
    assert cat.density("tanh_drift", {}, 1e4, 1.0, 1.0, log=True) \
        == pytest.approx(ref, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("name,params", [("tanh_drift", {}),
                                         ("cir", {"a": 1.1, "b": 0.8, "sigma": 0.6})])
def test_array_kernel_matches_the_scalar_kernel_where_sinh_omega_t_overflows(name, params):
    # omega t from 280 (cir) or 700 (tanh_drift) to 1e4, and Bessel arguments
    # on both sides of 1e-300, where the log ive is the series' leading term
    ys = np.geomspace(1e-3, 1e3, 13)
    for t in np.geomspace(700.0, 1e4, 9):
        for log in (False, True):
            got = cat.density(name, params, t, 1.0, ys, log=log)
            for y, g in zip(ys, got):
                want = cat.density(name, params, t, 1.0, float(y), log=log)
                assert g == pytest.approx(want, rel=1e-15, abs=1e-300)


@pytest.mark.parametrize("name,params,t,x,y,ref", [
    ("radial_ou", {"a": 0.9, "b": -0.5}, 1e-6, 1e-200, 1e-200, -401.99538249160414),
    ("bessel", {"a": 0.8}, 1e-6, 1e-200, 1e-200, -718.96683537740123),
    ("cir", {"a": 1.1, "b": 0.8, "sigma": 0.6}, 1000.0, 1000.0, 1e-300, -575.0576781902205)])
def test_kernels_where_the_bessel_argument_underflows(name, params, t, x, y, ref):
    # the core carries the Bessel argument as its log at every omega t, and
    # below 1e-300 takes the Bessel term's leading term in log z. The first
    # two raised (DomainError from I_nu(0) at nu < 0; EvalOverflowError from
    # a log of 0), and cir was off by 3e-5 from a subnormal argument.
    # References: mpmath at 60 digits
    for ys, pick in ((y, float), (np.array([y, 1.0]), lambda v: float(v[0]))):
        assert pick(cat.density(name, params, t, x, ys, log=True)) == \
            pytest.approx(ref, rel=1e-14, abs=0.0)
        # exp(ref) is subnormal for bessel: 3e-12 apart
        assert pick(cat.density(name, params, t, x, ys)) == pytest.approx(math.exp(ref), rel=1e-10)


@pytest.mark.parametrize("name,params,t,x,y", [
    ("radial_ou", {"a": 1.5, "b": 0.6}, 30.0, 1.0, 1e8),    # mpmath -18.917181771116697
    ("radial_ou", {"a": 1.5, "b": 0.6}, 100.0, 1.0, 1e10),  # -116.47477059351497
    ("radial_ou", {"a": 1.5, "b": 0.6}, 1000.0, 1e-150, 1e30),
    ("cir", {"a": 1.1, "b": 0.8, "sigma": 0.6}, 100.0, 1e12, 1.0)])
def test_kernels_where_the_h_ratio_and_the_core_cancel_raise(name, params, t, x, y):
    # where coth(wt) rounds to 1, the h-ratio's -beta (Y - X) and the core's
    # -a (sx - sy)^2 cancel: the log density was -19.0, 0.0 (both of them,
    # without warning) and off by 1.3e-5 relative
    for ys in (y, np.array([1.0, y])):
        for log in (False, True):
            with pytest.raises(EvalOverflowError, match="cancel"):
                cat.density(name, params, t, x, ys, log=log)


# log-uniform over [1e-300, 1e300], with the decades at its ends and middle often
_FULL_RANGE = st.one_of(st.sampled_from([-300.0, -200.0, -100.0, -6.0, 0.0, 3.0, 30.0, 300.0]),
                        st.floats(-300.0, 300.0)).map(lambda e: 10.0 ** e)


# beside the benchmark's pool: rational_drift's signed finite-part kernels
_CONTRACT_EXTRA = {"rational_drift": [{"a": 1.0, "mu_inv": 0.6}, {"a": 2.0, "mu_inv": 1.7}]}


@pytest.mark.parametrize("name", cat.ENTRY_NAMES)
def test_density_keeps_its_contract_over_the_whole_range(name):
    # t, x and y log-uniform over [1e-300, 1e300], linear and log, float and
    # array: a finite value (>= 0 linear, but for the signed rational_showcase
    # and finite-part kernels) or EvalOverflowError / ConvergenceError;
    # CapabilityError only for the log of a kernel without a log form. No
    # numpy warning either.
    members = WORKLOADS.POOL[name] + _CONTRACT_EXTRA.get(name, [])

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(k=st.integers(0, len(members) - 1), t=_FULL_RANGE, x=_FULL_RANGE,
           ys=st.lists(_FULL_RANGE, min_size=3, max_size=3))
    def check(k, t, x, ys):
        entry = cat.make_entry(name, **members[k])
        for log in (False, True):
            for y in ys + [np.array(ys)]:
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        val = cat.density(entry, None, t, x, y, log=log)
                except (EvalOverflowError, ConvergenceError):
                    continue
                except CapabilityError:
                    assert log and entry.kernel.log_continuous is None
                    continue
                assert np.isfinite(val).all()
                if not (log or name == "rational_showcase" or entry.kernel.finite_part):
                    assert (np.asarray(val) >= 0.0).all()

    check()


# each terms entry's drift antiderivative as it was written by hand, frozen
_HAND_WRITTEN_F = [
    ("besq", {"n": 3.0}, lambda x: 3.0 * math.log(x)),
    ("bessel", {"a": 1.2}, lambda x: 1.2 * math.log(x)),
    ("cir", {"a": 0.9, "b": 1.4, "sigma": 0.6}, lambda x: 0.9 * math.log(x) - 1.4 * x),
    ("generic_quadratic", {"sigma": 0.6, "a": 1.1, "b": 0.8},
     lambda x: 1.1 * math.log(x) - 0.8 * x),
    ("rational_drift", {"a": 2.0, "mu": 1.0}, lambda x: 2.0 * math.log(2.0 + 2.0 * x)),
    ("rational_drift", {"a": 1.5, "mu_inv": 0.3}, lambda x: 2.0 * math.log(2.0 + 1.5 * x)),
    ("tanh_drift", {}, lambda x: 2.0 * (abs(x) + math.log1p(math.exp(-2.0 * abs(x)))
                                        - math.log(2.0))),
    ("radial_ou", {"a": 0.9, "b": -0.5}, lambda x: 0.9 * math.log(x) - 0.25 * x * x),
    ("rational_showcase", {"a": 0.8, "b": 1.3},
     lambda x: -math.log(x) + 2.0 * math.log(1.3 + 0.8 * x * x)),
]


@pytest.mark.parametrize("name,params,F", _HAND_WRITTEN_F)
def test_drift_antiderivative_from_the_terms_matches_the_hand_written_one(name, params, F):
    # F = 2 sigma log sum_i c_i x^(m p_i + 1/2) e^(-beta_i x^m) of the terms;
    # finite at x = 0 where no exponent is negative, and tanh_drift's does not
    # overflow at x = 800
    got = cat.make_entry(name, **params).diffusion.drift_antiderivative
    xs = [1e-3, 0.5, 1.0, 2.0, 7.5, 40.0]
    xs += {"rational_drift": [0.0], "tanh_drift": [0.0, 800.0]}.get(name, [])
    for x in xs:
        for arg in (x, np.float64(x)):
            assert abs(got(arg) - F(x)) <= 1e-14 * max(1.0, abs(F(x)))


def test_tanh_drift_derivative_does_not_overflow():
    # 2 tanh x + 2x sech(x)^2, with sech^2 from e^(-2|x|): 1/cosh(x)^2 warned
    # of overflow from x ~ 355 on
    d = cat.make_entry("tanh_drift").diffusion.drift_derivative
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert d(400.0) == 2.0
        assert (d(np.linspace(1.0, 1e3, 1000))[500:] == 2.0).all()
    x = np.linspace(0.0, 300.0, 3001)
    with np.errstate(all="ignore"):
        old = 2.0 * np.tanh(x) + 2.0 * x / np.cosh(x) ** 2
    assert np.allclose(d(x), old, rtol=1e-15, atol=0.0)


def _sech2(x):  # 4 e^(-2|x|) / (1 + e^(-2|x|))^2, as tanh_drift's was written
    e = np.exp(-2.0 * np.abs(x))
    return 4.0 * e / (1.0 + e) ** 2


# each terms entry's drift and drift derivative as they were written by hand,
# at the parameters of _HAND_WRITTEN_F, frozen
_HAND_WRITTEN_DRIFT = [
    ("besq", {"n": 3.0}, lambda x: 3.0, lambda x: 0.0),
    ("bessel", {"a": 1.2}, lambda x: 1.2 / x, lambda x: -1.2 / (x * x)),
    ("cir", {"a": 0.9, "b": 1.4, "sigma": 0.6}, lambda x: 0.9 - 1.4 * x, lambda x: -1.4),
    ("generic_quadratic", {"sigma": 0.6, "a": 1.1, "b": 0.8},
     lambda x: 1.1 - 0.8 * x, lambda x: -0.8),
    ("rational_drift", {"a": 2.0, "mu": 1.0},
     lambda x: 2.0 * 2.0 * x / (2.0 + 2.0 * x), lambda x: 4.0 * 2.0 / (2.0 + 2.0 * x) ** 2),
    ("rational_drift", {"a": 1.5, "mu_inv": 0.3},
     lambda x: 2.0 * 1.5 * x / (2.0 + 1.5 * x), lambda x: 4.0 * 1.5 / (2.0 + 1.5 * x) ** 2),
    ("tanh_drift", {}, lambda x: 2.0 * x * np.tanh(x),
     lambda x: 2.0 * np.tanh(x) + 2.0 * x * _sech2(x)),
    ("radial_ou", {"a": 0.9, "b": -0.5},
     lambda x: 0.9 / x + -0.5 * x, lambda x: -0.9 / (x * x) + -0.5),
    ("rational_showcase", {"a": 0.8, "b": 1.3},
     lambda x: 3.0 - 4.0 * 1.3 / (1.3 + 0.8 * x * x),
     lambda x: 8.0 * 0.8 * 1.3 * x / (1.3 + 0.8 * x * x) ** 2),
]


@pytest.mark.parametrize("name,params,f,fp", _HAND_WRITTEN_DRIFT)
def test_drift_from_the_terms_matches_the_hand_written_one(name, params, f, fp):
    # f = x^gamma F' and f' of the terms, two terms mixed by T = tanh(h), h
    # half the log of term 1 over term 2, at the xs of _HAND_WRITTEN_F, as a
    # float, a numpy scalar and an array; x = 0 only for tanh_drift: the
    # rational entries' h has a log x term, and their drifts take x > 0
    diff = cat.make_entry(name, **params).diffusion
    xs = [1e-3, 0.5, 1.0, 2.0, 7.5, 40.0] + {"tanh_drift": [0.0, 800.0]}.get(name, [])
    for arg in (*xs, *map(np.float64, xs), np.array(xs)):
        want, want_p, got, got_p = (np.broadcast_to(g(arg), np.shape(arg))
                                    for g in (f, fp, diff.drift, diff.drift_derivative))
        scale = np.maximum(1.0, np.abs(want))
        assert (np.abs(got - want) <= 1e-14 * scale).all(), (arg, got, want)
        assert (np.abs(arg * (got_p - want_p))
                <= 1e-14 * np.maximum(scale, np.abs(arg * want_p))).all(), (arg, got_p, want_p)


@pytest.mark.parametrize("name,params,want", [
    # (b + a x^2)^2 overflowed in the hand-written f' = 8abx/(b + ax^2)^2: f' = 8a/b
    ("rational_showcase", {"a": 8.79e-52, "b": 2.99e261}, (-1.0, 8.0 * 8.79e-52 / 2.99e261)),
    # ... and underflowed to 0 (ZeroDivisionError): f' = 8b/a
    ("rational_showcase", {"a": 9.87e-177, "b": 1.72e-286},
     (3.0, 8.0 * 1.72e-286 / 9.87e-177)),
    # (2 + a x)^2 overflowed in the hand-written f' = 4a/(2 + ax)^2: f' = 4/a
    ("rational_drift", {"a": 5.25e204, "mu": 2.49e109}, (2.0, 4.0 / 5.25e204)),
])
def test_drift_derivative_at_extreme_parameters_is_finite(name, params, want):
    # at x = 1 as a float and on an array, no exception and no numpy warning
    diff = cat.make_entry(name, **params).diffusion
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (1.0, np.array([1.0, 1.0])):
            for func, value in zip((diff.drift, diff.drift_derivative), want):
                got = func(x)
                assert np.isfinite(got).all()
                assert np.allclose(got, value, rtol=1e-9, atol=0.0), (func, got, value)


@pytest.mark.parametrize("params", [
    {"a": 4.97e142, "b": 8.19e196, "mu": 5.34e205},
    {"a": 4.19e278, "b": 9.12e29, "mu": 1.48e-123},
    {"a": -0.9999999999999999, "b": 1.42e261},  # only the drift derivative is NaN
])
def test_bessel_drift_with_a_drift_that_is_not_finite_is_refused(params):
    # the ratio of two overflowing log-Bessel terms is NaN: a FeynkacError
    # (exit 3) when the entry is built, not a NaN drift for the Euler scheme
    with np.errstate(all="ignore"), pytest.raises(FeynkacError, match="is not finite"):
        cat.make_entry("bessel_drift", **params)


@pytest.mark.parametrize("name,params", [
    ("besq", {"n": 1.5, "mu": 0.5}),       # linear killing needs n >= 2
    ("bessel", {"a": 0.4}),                  # needs a > 1/2
    ("bessel_drift", {"a": 1.0, "b": -1.0}),
    ("cir", {"a": -1.0, "b": 1.0, "sigma": 1.0}),
    ("rational_drift", {"a": -2.0}),
    ("rational_drift", {"a": 1.0, "mu": 0.5, "mu_inv": 0.5}),
    ("radial_ou", {"a": 1.0, "b": 0.0, "mu": 0.0}),
    ("generic_linear", {"sigma": 1.0, "A": 1.0, "B": 0.0, "mu": 1.0}),
])
def test_validity_errors(name, params):
    with pytest.raises(ValidityError):
        cat.make_entry(name, **params)


def test_integer_index_finite_part_kernel_is_out_of_scope():
    # mu_inv = 2 gives sqrt(1 + 4*mu_inv) = 3, an integer: the finite-part
    # kernel degenerates to a distribution of higher order
    with pytest.raises(CapabilityError):
        cat.make_entry("rational_drift", a=1.0, mu_inv=2.0)


def test_besq_velocity_alias():
    # b is an alias for the killing strength via mu = b^2/2
    d1 = cat.density("besq", {"n": 3.0, "b": 1.0}, T, X, 1.3)
    d2 = cat.density("besq", {"n": 3.0, "mu": 0.5}, T, X, 1.3)
    assert d1 == pytest.approx(d2, rel=1e-14, abs=0.0)


# ---------------------------------------------------------------------------
# known kernel values
# ---------------------------------------------------------------------------

def test_squared_bessel_density_elementary_value():
    # n = 3: the Bessel factor of order 1/2 is elementary,
    #   p(1, 1, 1) = (1/2) e^{-1} sqrt(2/pi) sinh(1)
    ref = 0.5 * math.exp(-1.0) * math.sqrt(2.0 / math.pi) * math.sinh(1.0)
    assert ref == pytest.approx(0.17247565694412234, rel=1e-12, abs=0.0)  # frozen
    assert cat.density("besq", {"n": 3.0}, 1.0, 1.0, 1.0) == pytest.approx(
        ref, rel=1e-13, abs=0.0)


def test_squared_bessel_density_matches_noncentral_chi_square():
    # X_t / t is noncentral chi-square with df = n and noncentrality x/t
    for n in (2.0, 3.0, 4.5):
        for t, x, y in [(1.0, 1.0, 1.4), (0.5, 2.0, 0.3), (2.0, 0.7, 5.0)]:
            ref = ss.ncx2.pdf(y / t, df=n, nc=x / t) / t
            assert cat.density("besq", {"n": n}, t, x, y) == pytest.approx(
                ref, rel=1e-12, abs=0.0)


def test_squared_bessel_log_density_consistent():
    lg = cat.density("besq", {"n": 3.0}, 0.5, 1.0, 2.0, log=True)
    assert math.exp(lg) == pytest.approx(
        cat.density("besq", {"n": 3.0}, 0.5, 1.0, 2.0), rel=1e-13, abs=0.0)


def test_bessel_process_kernel_reduces_to_reflected_gaussian():
    # a = 1/2 + eps, mu = 0 is close to reflected Brownian motion; instead
    # use the exact route: the radial part of 3d Brownian motion is the a = 1
    # case, whose kernel is a Gaussian difference weighted by y/x:
    #   p(t, x, y) = (y/x) * (phi(y - x) - phi(y + x)), phi = N(0, 2*sigma*t)
    a, t, x = 1.0, 0.7, 1.2
    sd = math.sqrt(2.0 * 0.5 * t)
    for y in (0.4, 1.0, 2.5):
        ref = (y / x) * (ss.norm.pdf(y - x, scale=sd) - ss.norm.pdf(y + x, scale=sd))
        assert cat.density("bessel", {"a": a}, t, x, y) == pytest.approx(
            ref, rel=1e-11)


def test_killed_squared_bessel_expectation_elementary_value():
    # n = 2, killing strength b = 1, lam = 0: exp(-tanh(1)/2)/cosh(1)
    ref = math.exp(-0.5 * math.tanh(1.0)) / math.cosh(1.0)
    assert ref == pytest.approx(0.44282620111243914, rel=1e-12, abs=0.0)  # frozen
    assert cat.expectation("besq", {"n": 2.0, "b": 1.0}, 0.0, 1.0, 1.0) \
        == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_cosh_weighted_companion_against_elementary_formula():
    # the cosh-weighted solution's total mass has the elementary closed form
    # sqrt(2t/(pi x)) e^{-x/(2t)} + erf(sqrt(x/(2t)))
    for t, x in [(1.0, 1.0), (0.5, 2.0), (2.0, 0.6)]:
        val, err = si.quad(lambda y: cat.besq_cosh_variant(t, x, y), 0.0,
                           np.inf, epsabs=1e-13, epsrel=1e-12, limit=400)
        ref = math.sqrt(2.0 * t / (math.pi * x)) * math.exp(-x / (2.0 * t)) \
            + math.erf(math.sqrt(x / (2.0 * t)))
        assert verify.besq_cosh_mass(t, x) == pytest.approx(ref, rel=1e-13, abs=0.0)
        assert val == pytest.approx(ref, rel=1e-9)


def test_rational_showcase_continuous_mass_defect():
    # continuous part integrates to 1 - e^{-x/t} b (t + x) / (t (b + a x^2));
    # the two boundary atoms carry exactly the defect
    a, b = 0.8, 1.3
    entry = cat.make_entry("rational_showcase", a=a, b=b)
    for t, x in [(1.0, 1.0), (0.5, 1.7)]:
        val, err = si.quad(lambda y: entry.kernel.continuous(t, x, y), 0.0,
                           np.inf, epsabs=1e-13, epsrel=1e-12, limit=400)
        defect = math.exp(-x / t) * b * (t + x) / (t * (b + a * x * x))
        assert verify.rational_showcase_continuous_mass(a, b, t, x) \
            == pytest.approx(1.0 - defect, rel=1e-12, abs=0.0)
        assert val == pytest.approx(1.0 - defect, rel=1e-8)
        # the derivative-order atom carries no mass, so the order-0 atom
        # alone makes up the defect
        atoms = sum(at.weight(t, x) for at in entry.kernel.atoms
                    if at.order == 0)
        assert atoms == pytest.approx(defect, rel=1e-12, abs=0.0)


def test_atom_weights_vanish_at_time_zero():
    for name, params in [("rational_drift", {"a": 1.0, "mu": 0.7}),
                         ("tanh_drift", {"mu": 0.4}),
                         ("rational_showcase", {"a": 0.8, "b": 1.3})]:
        entry = cat.make_entry(name, **params)
        assert entry.kernel.atoms
        for at in entry.kernel.atoms:
            assert at.weight(1e-4, 1.0) < 1e-8
            assert at.weight(1.0, 1.0) > 0.0


# ---------------------------------------------------------------------------
# transforms and expectations (spot checks; the acceptance suite sweeps grids)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,params", [
    ("besq", {"n": 3.0}),
    ("besq", {"n": 2.5, "mu": 0.5}),
    ("bessel", {"a": 1.2, "mu": 0.6}),
    ("cir", {"a": 1.1, "b": 0.8, "sigma": 0.6}),
    ("rational_drift", {"a": 1.0, "mu": 0.7}),
    ("tanh_drift", {"mu": 0.4}),
    ("radial_ou", {"a": 1.5, "b": 0.7}),
    ("sqrt_drift", {"a": 0.8, "b": 0.5, "A": 1.2, "B": 0.9}),
])
def test_expectation_closed_form_agrees_with_quadrature(name, params):
    closed = cat.expectation(name, params, 0.8, 0.9, 1.1, method="closed")
    quad = cat.expectation(name, params, 0.8, 0.9, 1.1, method="quadrature")
    assert closed == pytest.approx(quad, rel=1e-8)
    assert cat.expectation(name, params, 0.8, 0.9, 1.1) == closed


def test_quadrature_expectation_non_finite_raises():
    # a kernel that overflows inside the integrand: quad then reports NaN for
    # both value and error
    entry = cat.make_entry("generic_linear", sigma=1.0, A=1.0, B=-0.3)
    nan_kernel = cat.Kernel(continuous=lambda t, x, y: math.nan, log_continuous=None)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ConvergenceError):
            cat.expectation(dataclasses.replace(entry, kernel=nan_kernel), None,
                            0.0, 0.3, 1.3, method="quadrature")


@pytest.mark.parametrize("name,params,drift,sigma", [
    ("bessel", {"a": 0.8}, 0.8e-3, 0.5),
    ("bessel_drift", {"a": 0.8, "b": 0.5}, 1.3e-3 + 0.5, 0.5),
    ("radial_ou", {"a": 0.8, "b": 0.5}, 0.8e-3 + 500.0, 1.0),
])
def test_density_at_small_time_and_large_state(name, params, drift, sigma):
    # the Bessel argument x*y/t reaches 1e10; over t = 1e-4 the kernel is the
    # Gaussian of one Euler step to well within 1e-3
    t, x = 1e-4, 1e3
    var = 2.0 * sigma * t
    ref = math.exp(-(drift * t) ** 2 / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)
    p = cat.density(name, params, t, x, x)
    assert p == pytest.approx(ref, rel=1e-3)
    assert cat.density(name, params, t, x, x, log=True) == pytest.approx(
        math.log(p), abs=1e-5)


def _mp_bessel(a, mu, t, x, y):
    d = 0.5 - a + mpmath.sqrt(mu / 2 + (a - 0.5) ** 2)
    return (y / t * (y / x) ** (a - 0.5) * mpmath.exp(-(x * x + y * y) / (2 * t))
            * mpmath.besseli(d + a - 0.5, x * y / t))


def _mp_bessel_drift(a, b, mu, t, x, y):
    return (y / t * mpmath.besseli(a, b * y) / mpmath.besseli(a, b * x)
            * mpmath.exp(-(x * x + y * y) / (2 * t) - b * b * t / 2)
            * mpmath.besseli(mpmath.sqrt(a * a + 2 * mu), x * y / t))


def _mp_radial_ou(a, b, mu, t, x, y):
    alpha, nu = mpmath.sqrt(b * b + 4 * mu), (a + 1) / 2
    at = alpha * t
    return (y / 2 * (y / x) ** (nu - 1) * alpha / mpmath.sinh(at)
            * mpmath.exp(-b * nu * t - alpha * (x * x + y * y) / (4 * mpmath.tanh(at))
                         - b * (x * x - y * y) / 4)
            * mpmath.besseli(nu - 1, alpha * x * y / (2 * mpmath.sinh(at))))


@pytest.mark.parametrize("name,params,reference", [
    ("bessel", {"a": 0.8, "mu": 0.0}, _mp_bessel),
    ("bessel", {"a": 1.2, "mu": 0.6}, _mp_bessel),
    ("bessel_drift", {"a": 0.5, "b": 1.3, "mu": 0.3}, _mp_bessel_drift),
    ("radial_ou", {"a": 2.0, "b": -0.4, "mu": 0.3}, _mp_radial_ou),
    ("radial_ou", {"a": 0.9, "b": -0.5, "mu": 0.7}, _mp_radial_ou),
])
@pytest.mark.parametrize("t,x,y", [(1e-4, 1e3, 1e3), (1e-4, 1e3, 1e3 + 1e-2),
                                   (1e-3, 50.0, 50.1), (0.8, 1.2, 0.9)])
def test_bessel_type_density_against_mpmath(name, params, reference, t, x, y):
    # -(x^2+y^2)/(2t) and log I(xy/t) are each about 1e10 at the first two
    # points; the kernels must not form them separately
    with mpmath.workdps(40):
        ref = reference(*map(mpmath.mpf, list(params.values()) + [t, x, y]))
        log_ref = float(mpmath.log(ref))
        ref = float(ref)
    assert cat.density(name, params, t, x, y) == pytest.approx(ref, rel=1e-12, abs=0.0)
    assert cat.density(name, params, t, x, y, log=True) == pytest.approx(
        log_ref, abs=1e-12)


def _mp_besq(n, mu, nu, t, x, y):
    w = mpmath.sqrt((n - 2) ** 2 + 8 * nu) / 2
    if mu == 0:
        pref, rate, scale = 1 / (2 * t), 1 / (2 * t), 1 / t
    else:
        b = mpmath.sqrt(2 * mu)
        pref, rate, scale = (b / (2 * mpmath.sinh(b * t)), b / (2 * mpmath.tanh(b * t)),
                             b / mpmath.sinh(b * t))
    return (pref * (y / x) ** ((n - 2) / 4) * mpmath.exp(-rate * (x + y))
            * mpmath.besseli(w, scale * mpmath.sqrt(x * y)))


def _mp_cir(a, b, sigma, mu, mu_lin, t, x, y):
    rA = mpmath.sqrt(b * b + 4 * mu_lin * sigma)
    nu = mpmath.sqrt((a - sigma) ** 2 + 4 * mu * sigma) / sigma
    sh, th = mpmath.sinh(rA * t / 2), mpmath.tanh(rA * t / 2)
    drift = (a * mpmath.log(y / x) - b * (y - x) + a * b * t) / (2 * sigma)
    return (rA / (2 * sigma * sh) * mpmath.sqrt(x / y)
            * mpmath.exp(drift - rA * (x + y) / (2 * sigma * th))
            * mpmath.besseli(nu, rA * mpmath.sqrt(x * y) / (sigma * sh)))


def _mp_tanh_drift(mu, t, x, y):
    k = mpmath.sqrt(1 + mu)
    return (mpmath.cosh(y) / mpmath.cosh(x) * mpmath.sqrt(x / y) * k / mpmath.sinh(k * t)
            * mpmath.exp(-k * (x + y) / mpmath.tanh(k * t))
            * mpmath.besseli(1, 2 * k * mpmath.sqrt(x * y) / mpmath.sinh(k * t)))


def _mp_rational_drift(a, mu, t, x, y):
    r = mpmath.sqrt(mu)
    pref = (2 + a * y) / (2 + a * x) * mpmath.sqrt(x / y)
    if mu == 0:
        return (pref / t * mpmath.exp(-(x + y) / t)
                * mpmath.besseli(1, 2 * mpmath.sqrt(x * y) / t))
    return (pref * r / mpmath.sinh(r * t) * mpmath.exp(-r * (x + y) / mpmath.tanh(r * t))
            * mpmath.besseli(1, 2 * r * mpmath.sqrt(x * y) / mpmath.sinh(r * t)))


def _mp_rational_showcase(a, b, t, x, y):
    return (x / y * (b + a * y * y) / (b + a * x * x) / t * mpmath.exp(-(x + y) / t)
            * mpmath.besseli(2, 2 * mpmath.sqrt(x * y) / t))


def _mp_sqrt_drift(a, b, A, B, t, x, y):
    return ((x / y) ** ((1 - a) / 2) / t
            * mpmath.exp(b * (mpmath.sqrt(x) - mpmath.sqrt(y)) - A * t / 2 - (x + y) / t)
            * mpmath.besseli(mpmath.sqrt(1 + 2 * B), 2 * mpmath.sqrt(x * y) / t))


def _mp_generic_quadratic(sigma, a, b, mu, t, x, y):
    return _mp_cir(a, b, sigma, 0, mu, t, x, y)


@pytest.mark.parametrize("name,params,reference", [
    ("besq", {"n": 3.0, "mu": 0.0, "nu": 0.0}, _mp_besq),
    ("besq", {"n": 2.5, "mu": 0.0, "nu": 0.4}, _mp_besq),
    ("besq", {"n": 4.5, "mu": 0.3, "nu": 0.2}, _mp_besq),
    ("cir", {"a": 1.1, "b": 0.8, "sigma": 0.6, "mu": 0.0, "mu_lin": 0.0}, _mp_cir),
    ("cir", {"a": 0.9, "b": 1.4, "sigma": 0.6, "mu": 0.5, "mu_lin": 0.3}, _mp_cir),
    ("tanh_drift", {"mu": 0.5}, _mp_tanh_drift),
    ("rational_drift", {"a": 2.0, "mu": 0.0}, _mp_rational_drift),
    ("rational_drift", {"a": 0.7, "mu": 0.3}, _mp_rational_drift),
    ("rational_showcase", {"a": 0.5, "b": 2.0}, _mp_rational_showcase),
    ("sqrt_drift", {"a": 1.2, "b": 0.5, "A": 1.0, "B": 0.8}, _mp_sqrt_drift),
    ("generic_quadratic", {"sigma": 1.0, "a": 1.0, "b": 1.0, "mu": 0.0},
     _mp_generic_quadratic),
    ("generic_quadratic", {"sigma": 0.6, "a": 1.1, "b": 0.8, "mu": 0.5},
     _mp_generic_quadratic),
])
@pytest.mark.parametrize("t,x,y", [(1e-4, 1e3, 1e3), (0.7, 1.3, 0.9),
                                   (1.9, 2.5, 3.7)])
def test_besq_core_density_against_mpmath(name, params, reference, t, x, y):
    # at t = 1e-4, x = y = 1e3 the exponent and log I are each about 1e7
    with mpmath.workdps(40):
        ref = reference(*map(mpmath.mpf, list(params.values()) + [t, x, y]))
        log_ref = float(mpmath.log(ref))
        ref = float(ref)
    assert cat.density(name, params, t, x, y) == pytest.approx(ref, rel=1e-12, abs=0.0)
    assert cat.density(name, params, t, x, y, log=True) == pytest.approx(
        log_ref, abs=1e-12)


# The linear-domain two-branch kernels of generic_linear and generic_quadratic
# as they were before they moved onto the log-domain Bessel core; frozen as
# oracles where the unscaled Bessel functions do not overflow.

def _linear_generic_linear(sigma, A, B, mu, c1, c2, t, x, y):
    alpha = math.sqrt(2.0 * B + sigma * sigma) / sigma
    nu = math.sqrt(2.0 * B + sigma * sigma + 4.0 * mu * sigma) / sigma
    c = math.sqrt(2.0 * A) / sigma

    def combo(order, z):
        return c1 * sf.bessel_i(order, z) + c2 * sf.bessel_i(-order, z)

    def u0(v):
        return combo(nu, c * math.sqrt(v)) / combo(alpha, c * math.sqrt(v))

    F = 2.0 * sigma * math.log(math.sqrt(x) * combo(alpha, c * math.sqrt(x)))
    st = sigma * t
    zi, zy = 2.0 * math.sqrt(x * y) / st, c * math.sqrt(y)
    bracket = (c1 * sf.bessel_i(nu, zi) * sf.bessel_i(nu, zy)
               + c2 * sf.bessel_i(-nu, zi) * sf.bessel_i(-nu, zy))
    pref = math.exp(0.5 * math.log(x) - math.log(st) - F / (2.0 * sigma)
                    - (x + y) / st - A * t / (2.0 * sigma))
    return pref * bracket / u0(y)


def _linear_generic_quadratic(sigma, a, b, mu, c1, c2, t, x, y):
    A = b * b + 4.0 * mu * sigma
    rA = math.sqrt(A)
    nu = abs(a - sigma) / sigma
    sh, th = math.sinh(0.5 * rA * t), math.tanh(0.5 * rA * t)
    z = rA * math.sqrt(x * y) / (sigma * sh)
    F = lambda v: a * math.log(v) - b * v  # noqa: E731
    pref = math.exp(0.5 * (math.log(A) + math.log(x) - math.log(y))
                    - math.log(2.0 * sigma * sh)
                    + (F(y) - F(x) + a * b * t) / (2.0 * sigma)
                    - rA * (x + y) / (2.0 * sigma * th))
    if abs(nu - round(nu)) < 1e-12:
        second = sf.bessel_k(round(nu), z)
    else:
        second = sf.bessel_i(-nu, z)
    return pref * (c1 * sf.bessel_i(nu, z) + c2 * second)


@pytest.mark.parametrize("name,params,oracle", [
    ("generic_linear", {"sigma": 1.0, "A": 1.0, "B": -0.3, "mu": 0.0,
                        "c1": 1.0, "c2": 0.0}, _linear_generic_linear),
    ("generic_linear", {"sigma": 0.8, "A": 1.5, "B": -0.2, "mu": 0.05,
                        "c1": 1.0, "c2": 0.7}, _linear_generic_linear),
    ("generic_linear", {"sigma": 1.0, "A": 1.2, "B": -0.3, "mu": 0.05,
                        "c1": 2.0, "c2": -0.5}, _linear_generic_linear),
    ("generic_linear", {"sigma": 0.8, "A": 1.5, "B": -0.2, "mu": 0.05,
                        "c1": 0.0, "c2": 1.0}, _linear_generic_linear),
    ("generic_quadratic", {"sigma": 0.6, "a": 1.1, "b": 0.8, "mu": 0.5,
                           "c1": 1.0, "c2": 0.4}, _linear_generic_quadratic),
    ("generic_quadratic", {"sigma": 0.8, "a": 2.7, "b": 0.5, "mu": 0.0,
                           "c1": 1.0, "c2": -0.3}, _linear_generic_quadratic),
    ("generic_quadratic", {"sigma": 1.0, "a": 2.0, "b": 1.0, "mu": 0.2,
                           "c1": 0.5, "c2": 1.0}, _linear_generic_quadratic),
])
@pytest.mark.parametrize("t,x,y", [(0.3, 1.3, 0.4), (0.7, 1.3, 0.9),
                                   (1.9, 2.5, 3.7), (0.05, 2.0, 2.2)])
def test_two_branch_kernels_match_linear_domain_oracle(name, params, oracle, t, x, y):
    ref = oracle(*params.values(), t, x, y)
    assert cat.density(name, params, t, x, y) == pytest.approx(ref, rel=1e-13, abs=0.0)


def test_generic_kernels_finite_where_linear_domain_overflowed():
    # I(2 sqrt(xy)/t) = I(2e7) overflows; the log-domain kernels stay finite
    assert cat.density("generic_quadratic", {"sigma": 1, "a": 1, "b": 1},
                       1e-4, 1e3, 1e3) == pytest.approx(
        cat.density("cir", {"a": 1, "b": 1, "sigma": 1}, 1e-4, 1e3, 1e3), rel=1e-14, abs=0.0)
    p = cat.density("generic_linear", {"sigma": 1, "A": 1, "B": -0.3}, 1e-4, 1e3, 1e3)
    assert math.isfinite(p) and p > 0


# generic_linear's y, drift and u0 as they were written before they moved
# onto riccati._bessel_y in the K basis: with I_-alpha itself, frozen as an
# oracle where c1 I_alpha and c2 I_-alpha do not cancel

def _frozen_generic_linear_y(sigma, A, B, mu, c1, c2):
    """(alpha, nu, log y(x, order), y'/y at index alpha)."""
    alpha = math.sqrt(2.0 * B + sigma * sigma) / sigma
    nu = math.sqrt(2.0 * B + sigma * sigma + 4.0 * mu * sigma) / sigma
    c = math.sqrt(2.0 * A) / sigma

    def combo(order, z):
        return ((c1 * sf.bessel_i(order, z, scaled=True) if c1 else 0.0)
                + (c2 * sf.bessel_i(-order, z, scaled=True) if c2 else 0.0))

    def log_y(x, order):
        z = c * math.sqrt(x)
        return 0.5 * math.log(x) + math.log(combo(order, z)) + z

    def w(x):
        z = c * math.sqrt(x)
        num = 0.5 * (combo(alpha - 1.0, z) + combo(alpha + 1.0, z))
        return 0.5 / x + (0.5 * c / math.sqrt(x)) * (num / combo(alpha, z))

    return alpha, nu, log_y, w


_GENERIC_LINEAR_Y = {"sigma": 0.8, "A": 1.5, "B": -0.2, "mu": 0.05}


@pytest.mark.parametrize("c1,c2", [(1.0, 0.7), (2.0, -0.5), (0.0, 1.0)])
def test_generic_linear_y_matches_the_frozen_i_minus_alpha_form(c1, c2):
    sigma, A, B, mu = _GENERIC_LINEAR_Y.values()
    entry = cat.make_entry("generic_linear", **_GENERIC_LINEAR_Y, c1=c1, c2=c2)
    diff = entry.diffusion
    alpha, nu, log_y, w = _frozen_generic_linear_y(sigma, A, B, mu, c1, c2)
    for x in (0.3, 0.9, 2.0, 7.5, 40.0):
        wx = w(x)
        fp = 2.0 * sigma * (wx + x * ((A * x + B) / (2.0 * sigma * sigma * x * x) - wx * wx))
        assert diff.drift_antiderivative(x) == pytest.approx(
            2.0 * sigma * log_y(x, alpha), rel=1e-13, abs=0.0)
        assert diff.drift(x) == pytest.approx(2.0 * sigma * x * wx, rel=1e-13, abs=0.0)
        assert diff.drift_derivative(x) == pytest.approx(fp, rel=1e-13, abs=1e-13)
        assert entry.u0.log_gauge(x) == pytest.approx(log_y(x, nu), rel=1e-13, abs=0.0)


def _mp_generic_linear_y(sigma, A, B, c1, c2, order, x):
    """(log y, y'/y) in mpmath of y = sqrt(x) (c1 I_order + c2 I_-order)(c sqrt(x))."""
    sigma, A, B, c1, c2, order, x = (mpmath.mpf(v) for v in (sigma, A, B, c1, c2, order, x))
    c = mpmath.sqrt(2 * A) / sigma

    def y(v):
        z = c * mpmath.sqrt(v)
        return mpmath.sqrt(v) * (c1 * mpmath.besseli(order, z) + c2 * mpmath.besseli(-order, z))
    return mpmath.log(y(x)), mpmath.diff(y, x) / y(x)


def test_generic_linear_with_c1_minus_c2_is_the_k_branch():
    # c1 = -c2: c1 I_alpha + c2 I_-alpha cancels to c2 (2/pi) sin(alpha pi) K_alpha,
    # which the K basis carries without cancellation at any x (mpmath keeps
    # 2 z log10(e) digits more than the 40 it needs: I_alpha ~ e^z, K ~ e^-z)
    sigma, A, B, mu = _GENERIC_LINEAR_Y.values()
    entry = cat.make_entry("generic_linear", **_GENERIC_LINEAR_Y, c1=-1.0, c2=1.0)
    diff = entry.diffusion
    alpha, nu = _frozen_generic_linear_y(sigma, A, B, mu, -1.0, 1.0)[:2]
    for x in (1e-4, 0.3, 2.0, 40.0, 1e3, 1e4):
        with mpmath.workdps(40 + int(math.sqrt(2.0 * A * x) / sigma)):
            log_y, w = _mp_generic_linear_y(sigma, A, B, -1.0, 1.0, alpha, x)
            log_y_nu = _mp_generic_linear_y(sigma, A, B, -1.0, 1.0, nu, x)[0]
        assert diff.drift_antiderivative(x) == pytest.approx(
            float(2 * sigma * log_y), rel=1e-13, abs=1e-13)
        assert diff.drift(x) == pytest.approx(float(2 * sigma * x * w), rel=1e-12, abs=0.0)
        assert entry.u0.log_gauge(x) == pytest.approx(float(log_y_nu), rel=1e-13, abs=1e-13)


def _mp_generic_linear_kernel(sigma, A, B, mu, c1, c2, t, x, y):
    """generic_linear's kernel in mpmath, in the I_(+-nu) form of
    _linear_generic_linear: e^(-(x + y)/(sigma t) - A t/(2 sigma))/(sigma t)
    Y_alpha(y)/Y_alpha(x) (c1 I_nu(zi) I_nu(zy) + c2 I_-nu(zi) I_-nu(zy))/Y_nu(y),
    Y_order = c1 I_order + c2 I_-order at c sqrt(.), zi = 2 sqrt(xy)/(sigma t)."""
    sigma, A, B, mu, c1, c2, t, x, y = (mpmath.mpf(v) for v in (sigma, A, B, mu, c1, c2, t, x, y))
    alpha = mpmath.sqrt(2 * B + sigma ** 2) / sigma
    nu = mpmath.sqrt(2 * B + sigma ** 2 + 4 * mu * sigma) / sigma
    c = mpmath.sqrt(2 * A) / sigma

    def combo(order, v):
        z = c * mpmath.sqrt(v)
        return c1 * mpmath.besseli(order, z) + c2 * mpmath.besseli(-order, z)

    zi, zy = 2 * mpmath.sqrt(x * y) / (sigma * t), c * mpmath.sqrt(y)
    bracket = (c1 * mpmath.besseli(nu, zi) * mpmath.besseli(nu, zy)
               + c2 * mpmath.besseli(-nu, zi) * mpmath.besseli(-nu, zy))
    return float(mpmath.exp(-(x + y) / (sigma * t) - A * t / (2 * sigma)) / (sigma * t)
                 * combo(alpha, y) / combo(alpha, x) * bracket / combo(nu, y))


@pytest.mark.parametrize("t,x,y", [(0.5, 1.0, 10.0), (2.0, 20.0, 100.0)])
def test_generic_linear_kernel_with_c1_minus_c2_against_mpmath(t, x, y):
    # c1 = -c2: the I_(+-nu) weights and cores cancelled (4.7e-10 off at the
    # first point; at the second the weights' sum rounded to 0, a division by
    # zero); in the K basis nothing cancels. The oracle's c1 I + c2 I_- loses
    # about 2 zy log10(e) digits, 19 at y = 100: 60 leave it more than 40.
    params = {**_GENERIC_LINEAR_Y, "c1": -1.0, "c2": 1.0}
    with mpmath.workdps(60):
        ref = _mp_generic_linear_kernel(*params.values(), t, x, y)
    assert cat.density("generic_linear", params, t, x, y) == pytest.approx(ref, rel=1e-13,
                                                                          abs=0.0)
    got = cat.density("generic_linear", params, t, x, np.array([y, 2.0 * y]))
    assert float(got[0]) == pytest.approx(ref, rel=1e-13, abs=0.0)


def test_generic_linear_where_y_is_not_positive_is_a_domain_error():
    # (c1, c2) = (2, -0.5): y < 0 near 0, where K_alpha outgrows I_alpha; the
    # entry builds, and evaluates to a DomainError (exit 2) there
    params = {**_GENERIC_LINEAR_Y, "c1": 2.0, "c2": -0.5}
    entry = cat.make_entry("generic_linear", **params)
    for bad in (1e-9, np.array([1.0, 1e-9])):
        with pytest.raises(DomainError):
            entry.diffusion.drift_antiderivative(bad)
        with pytest.raises(DomainError):
            cat.density("generic_linear", params, 0.5, 1.0, bad)
    with pytest.raises(DomainError):
        entry.u0(1e-9)
    assert math.isfinite(cat.density("generic_linear", params, 0.5, 1.0, 1.2))


def test_numpy_scalar_overflow_raises_like_python_floats():
    # with np.float64 arguments a division by zero used to give inf or NaN
    # (with a RuntimeWarning) or a raw ValueError; x^2 overflows in the
    # radial_ou closed form (state power 2) at x = 1e160
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for args in [(0.5, 1.0, 1e160), tuple(map(np.float64, (0.5, 1.0, 1e160)))]:
            with pytest.raises(EvalOverflowError):
                cat.expectation("radial_ou", {"a": 1.5, "b": 0.6}, *args)


@pytest.mark.parametrize("call", [
    lambda t, x: cat.expectation("tanh_drift", {}, 0.0, t, x),
    lambda t, x: cat.expectation("radial_ou", {"a": 1.5, "b": 0.6}, 0.0, t, x),
])
def test_numpy_scalar_arguments_give_the_mass_where_e_minus_2_omega_t_underflows(call):
    # lam = 0 and no killing: the mass, 1, at t = 50 and at t = 1000, where
    # the closed forms' factor e^(-2 omega t) underflows (it raised there)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (1.0, 1e3):
            assert call(np.float64(50.0), np.float64(x)) == call(50.0, x) \
                == pytest.approx(1.0, abs=1e-14)
            assert call(np.float64(1000.0), np.float64(x)) == call(1000.0, x) \
                == pytest.approx(1.0, rel=1e-13, abs=0.0)


def test_numpy_scalar_arguments_give_python_float_values():
    t, x, y, lam = (np.float64(v) for v in (0.5, 1.0, 1.2, 0.5))
    for got, want in [
            (cat.density("besq", {"n": 3.0}, t, x, y),
             cat.density("besq", {"n": 3.0}, 0.5, 1.0, 1.2)),
            (cat.transform_rhs("besq", {"n": 3.0}, lam, t, x),
             cat.transform_rhs("besq", {"n": 3.0}, 0.5, 0.5, 1.0)),
            (cat.expectation("cir", {"a": 1.1, "b": 0.8, "sigma": 0.6}, lam, t, x),
             cat.expectation("cir", {"a": 1.1, "b": 0.8, "sigma": 0.6}, 0.5, 0.5, 1.0))]:
        assert type(got) is float and got == want


def test_expectation_at_zero_killing_zero_weight_is_one():
    # lam = 0 and no killing: the kernel is a probability density
    for name, params in [("besq", {"n": 3.0}), ("bessel", {"a": 1.2}),
                         ("cir", {"a": 1.1, "b": 0.8, "sigma": 0.6})]:
        assert cat.expectation(name, params, 0.0, 0.7, 1.3) == pytest.approx(
            1.0, rel=1e-10)


def test_transform_identity_spot_check():
    # integral of exp(-lam*y) u0(y) against the kernel equals the closed form
    entry = cat.make_entry("tanh_drift", mu=0.4)
    lam, t, x = 0.7, 0.8, 1.2
    val, err = si.quad(
        lambda y: math.exp(-lam * y) * entry.u0(y) * entry.kernel.continuous(t, x, y),
        0.0, np.inf, epsabs=1e-13, epsrel=1e-12, limit=400)
    val += sum(math.exp(-lam * 0.0) * entry.u0(0.0)
               * at.weight(t, x) for at in entry.kernel.atoms if at.order == 0)
    assert val == pytest.approx(cat.transform_rhs("tanh_drift", {"mu": 0.4},
                                                  lam, t, x), rel=1e-9)


@pytest.mark.parametrize("mu", [100.0, 1e3, 1e4])
def test_tanh_drift_builds_at_large_mu(mu):
    # the exp_scaling orbit of u0 = e^(-ky)/cosh(y) was taken for a fixed
    # point above mu = 87.1158: at fixed times it moved u0 by less than an
    # absolute 1e-9, so that the atom weight, and the build, raised CapabilityError
    entry = cat.make_entry("tanh_drift", mu=mu)
    lams = np.array([0.0, 0.7, 3.0])
    for t, x in [(0.8, 1.2), (0.3, 0.5)]:
        for row in verify.check_transform_identity(entry, lams, t, x).rows:
            assert row.rel_err <= 1e-12, row
        closed = cat.expectation(entry, None, lams, t, x, method="closed")
        quad = cat.expectation(entry, None, lams, t, x, method="quadrature")
        np.testing.assert_allclose(closed, quad, rtol=1e-10, atol=0.0)


def test_expectation_capability_errors():
    # no closed form for the radially symmetric entry's transform; squared
    # state variable expectations still work by quadrature
    with pytest.raises(CapabilityError):
        cat.transform_rhs("radial_ou", {"a": 1.5, "b": 0.7}, 1.0, 1.0, 1.0)
    with pytest.raises(CapabilityError):
        cat.expectation("rational_drift", {"a": 1.0, "mu_inv": 0.6}, 1.0, 1.0,
                        1.0)
    with pytest.raises(CapabilityError):
        cat.expectation("generic_quadratic",
                        {"sigma": 0.6, "a": 1.1, "b": 0.8}, 1.0, 1.0, 1.0,
                        method="closed")


def test_joint_laplace_in_killing_strength_is_monotone():
    grid = [0.0, 0.2, 0.5, 1.0, 2.0]
    rows = cat.joint_laplace_in_mu("besq", {"n": 3.0}, 0.3, 1.0, 1.0, grid)
    assert [mu for mu, _ in rows] == grid
    vals = [v for _, v in rows]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[0] == pytest.approx(
        cat.expectation("besq", {"n": 3.0}, 0.3, 1.0, 1.0), rel=1e-10)


def test_joint_laplace_grid_validation():
    with pytest.raises(DomainError):
        cat.joint_laplace_in_mu("besq", {"n": 3.0}, 0.3, 1.0, 1.0, [0.5, 0.2])
    with pytest.raises(DomainError):
        cat.joint_laplace_in_mu("besq", {"n": 3.0}, 0.3, 1.0, 1.0, [-1.0, 0.5])
    with pytest.raises(CapabilityError):
        cat.joint_laplace_in_mu("rational_showcase", {"a": 1.0, "b": 1.0},
                                0.3, 1.0, 1.0, [0.0, 0.5])


# ---------------------------------------------------------------------------
# degenerations between entries
# ---------------------------------------------------------------------------

def test_bessel_drift_reduces_to_bessel_as_b_vanishes():
    # a_bessel = a_drift + 1/2 in the vanishing-drift limit; convergence is
    # quadratic in b, so Richardson extrapolation from b and b/2 hits the
    # reference far more accurately than either point alone
    p_ref = cat.density("bessel", {"a": 1.2}, 0.7, 1.0, 1.4)
    p1 = cat.density("bessel_drift", {"a": 0.7, "b": 2e-3}, 0.7, 1.0, 1.4)
    p2 = cat.density("bessel_drift", {"a": 0.7, "b": 1e-3}, 0.7, 1.0, 1.4)
    assert abs(p2 - p_ref) < abs(p1 - p_ref)
    extrap = (4.0 * p2 - p1) / 3.0
    assert extrap == pytest.approx(p_ref, abs=1e-9)


def test_generic_quadratic_specializes_to_square_root_diffusion():
    sigma, a, b = 0.6, 1.1, 0.8
    p_cir = cat.density("cir", {"a": a, "b": b, "sigma": sigma}, 0.8, 1.2, 0.9)
    p_gen = cat.density("generic_quadratic", {"sigma": sigma, "a": a, "b": b},
                        0.8, 1.2, 0.9)
    assert p_gen == pytest.approx(p_cir, rel=1e-10)


def test_density_domain_checks():
    with pytest.raises(DomainError):
        cat.density("besq", {"n": 3.0}, -1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        cat.density("besq", {"n": 3.0}, 1.0, 0.0, 1.0)


_ONE_PER_ENTRY = {
    "besq": {"n": 3.0},
    "bessel": {"a": 1.2, "mu": 0.5},
    "bessel_drift": {"a": 0.5, "b": 1.3},
    "cir": {"a": 1.1, "b": 0.8, "sigma": 0.6},
    "generic_linear": {"sigma": 1.0, "A": 1.0, "B": -0.3},
    "generic_quadratic": {"sigma": 0.6, "a": 1.1, "b": 0.8},
    "radial_ou": {"a": 0.9, "b": -0.5},
    "rational_drift": {"a": 1.0, "mu_inv": 0.6},
    "rational_showcase": {"a": 1.0, "b": 1.0},
    "sqrt_drift": {"a": 1.5, "b": 0.8, "A": 1.2, "B": 0.6},
    "tanh_drift": {"mu": 0.9},
}


@pytest.mark.parametrize("name", cat.ENTRY_NAMES)
@pytest.mark.parametrize("log", [False, True])
def test_density_requires_positive_y(name, log):
    # the y = 0 boundary carries the atoms; the continuous part is for y > 0
    entry = cat.make_entry(name, **_ONE_PER_ENTRY[name])
    for y in (0.0, -1.0):
        with pytest.raises(DomainError, match="y > 0"):
            cat.density(entry, None, 0.7, 1.3, y, log=log)


# ---------------------------------------------------------------------------
# transforms and atoms from the symmetry orbits
# ---------------------------------------------------------------------------

def _benchmark_module(name):
    """perfbench/<name>.py, loaded read-only (perfbench is not a package)."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"_benchmark_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _benchmark_module("workloads")
# the benchmark's parameter pool
POOL = [(name, p) for name in sorted(WORKLOADS.POOL) for p in WORKLOADS.POOL[name]]


# evaluates a route on request in its own interpreter, so that a call that
# never returns (a scipy C loop cannot be interrupted) fails its example after
# _CALL_SECONDS instead of hanging the suite: one line of JSON in, [name,
# params, lam, t, x, route], one out, the values or the error of each call.
# The route is an expectation method (a call at a float lam and one at the
# array [lam, 0]), "atom_weights" (the weights) or "transform_rhs".
_EXPECTATION_WORKER = """
import json, sys
import numpy as np
from feynkac import catalog
from feynkac.errors import FeynkacError

def calls(name, params, lam, t, x, route):
    if route == "atom_weights":
        return [lambda: [float(w) for _, _, w in catalog.atom_weights(name, params, t, x)]]
    if route == "transform_rhs":
        return [lambda: [catalog.transform_rhs(name, params, lam, t, x)]]
    return [lambda lams=lams: np.atleast_1d(
                catalog.expectation(name, params, lams, t, x, method=route)).tolist()
            for lams in (lam, np.array([lam, 0.0]))]

for line in sys.stdin:
    out = []
    for call in calls(*json.loads(line)):
        try:
            out.append(call())
        except FeynkacError as e:
            out.append(type(e).__name__)
        except Exception as e:
            out.append("raw " + repr(e))
    print(json.dumps(out), flush=True)
"""
_CALL_SECONDS = 20.0  # the first call includes the worker's start-up


class _ExpectationWorker:
    def __init__(self):
        self.proc = None

    def call(self, request):
        """The worker's answer to request, or None after _CALL_SECONDS (the
        worker is then stopped, and the next call starts another)."""
        if self.proc is None:
            env = dict(os.environ)
            src = os.path.dirname(os.path.dirname(feynkac.__file__))
            env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]]
                                                         if env.get("PYTHONPATH") else []))
            self.proc = subprocess.Popen([sys.executable, "-c", _EXPECTATION_WORKER], env=env,
                                         stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        if not select.select([self.proc.stdout], [], [], _CALL_SECONDS)[0]:
            self.close()
            return None
        return json.loads(self.proc.stdout.readline())

    def close(self):
        if self.proc is not None:
            self.proc.kill()
            self.proc.wait()
            self.proc = None


@pytest.fixture(scope="module")
def expectation_worker():
    worker = _ExpectationWorker()
    yield worker
    worker.close()


def _check_contract(name, got, bound=None):
    """A worker's answer: no time-out and no raw exception, and each value
    finite and, but for the structural entries, in [0, bound] where a bound
    is given."""
    assert got is not None, f"no answer within {_CALL_SECONDS} s"
    for val in got:
        if isinstance(val, str):
            assert not val.startswith("raw "), val
            continue
        assert all(math.isfinite(v) for v in val)
        if bound is not None and name not in WORKLOADS.STRUCTURAL:
            assert all(0.0 <= v <= bound for v in val), val


@pytest.mark.parametrize("name", sorted(WORKLOADS.CLOSED_FORM))
def test_closed_form_keeps_its_contract_over_the_whole_range(name, expectation_worker):
    # t, x and lam log-uniform over [1e-300, 1e300] (lam = 0 often), float
    # and array lam: within _CALL_SECONDS, a value in [0, 1 + 1e-12] (finite
    # for the structural rational_showcase) or a FeynkacError. The closed
    # forms hung (1F1 at large |z|) or returned 0 for the mass (an omega = 0
    # Bessel argument that underflowed)
    members = WORKLOADS.POOL[name]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(k=st.integers(0, len(members) - 1), lam=st.one_of(st.just(0.0), _FULL_RANGE),
           t=_FULL_RANGE, x=_FULL_RANGE)
    def check(k, lam, t, x):
        _check_contract(name, expectation_worker.call([name, members[k], lam, t, x, "closed"]),
                        1.0 + 1e-12)

    check()


@pytest.mark.parametrize("name", cat.ENTRY_NAMES)
def test_quadrature_keeps_its_contract_over_the_whole_range(name, expectation_worker):
    # as the closed forms, float and array lam, but to 1 + 1e-8 (the rule's
    # noise floor); the finite-part kernels raise CapabilityError
    members = WORKLOADS.POOL[name] + _CONTRACT_EXTRA.get(name, [])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(k=st.integers(0, len(members) - 1), lam=st.one_of(st.just(0.0), _FULL_RANGE),
           t=_FULL_RANGE, x=_FULL_RANGE)
    def check(k, lam, t, x):
        got = expectation_worker.call([name, members[k], lam, t, x, "quadrature"])
        if cat.make_entry(name, **members[k]).kernel.finite_part:
            assert got == ["CapabilityError"] * 2
        _check_contract(name, got, 1.0 + 1e-8)

    if name == "bessel_drift":  # 1 + 2.1e-9, past the 1e-9 the levels agree to
        check = example(k=2, lam=5.6299805044378356e-67, t=1e-6, x=277744.74930919404)(check)
    check()


@pytest.mark.parametrize("name", cat.ENTRY_NAMES)
def test_auto_keeps_its_contract_over_the_whole_range(name, expectation_worker):
    # as the routes auto takes: the closed form's 1 + 1e-12 where there is
    # one, else the quadrature's 1 + 1e-8 (a finite-part kernel has neither)
    members = WORKLOADS.POOL[name] + _CONTRACT_EXTRA.get(name, [])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(k=st.integers(0, len(members) - 1), lam=st.one_of(st.just(0.0), _FULL_RANGE),
           t=_FULL_RANGE, x=_FULL_RANGE)
    def check(k, lam, t, x):
        closed = cat.make_entry(name, **members[k]).expectation_closed is not None
        _check_contract(name, expectation_worker.call([name, members[k], lam, t, x, "auto"]),
                        1.0 + (1e-12 if closed else 1e-8))

    check()


def _members_with(what):
    """Each pool member (and contract extra) whose entry has what, by entry."""
    members = {}
    for name in cat.ENTRY_NAMES:
        for p in WORKLOADS.POOL[name] + _CONTRACT_EXTRA.get(name, []):
            if what(cat.make_entry(name, **p)):
                members.setdefault(name, []).append(p)
    return members


_WITH_ATOMS = _members_with(lambda e: e.kernel.atoms)
_WITH_TRANSFORM = _members_with(lambda e: e.transform_rhs is not None)


@pytest.mark.parametrize("route,name", [("atom_weights", n) for n in _WITH_ATOMS]
                         + [("transform_rhs", n) for n in _WITH_TRANSFORM])
def test_atoms_and_transform_keep_their_contract_over_the_whole_range(route, name,
                                                                      expectation_worker):
    # t, x and lam log-uniform over [1e-300, 1e300] (lam = 0 often): within
    # _CALL_SECONDS, finite values or a FeynkacError
    members = (_WITH_ATOMS if route == "atom_weights" else _WITH_TRANSFORM)[name]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(k=st.integers(0, len(members) - 1), lam=st.one_of(st.just(0.0), _FULL_RANGE),
           t=_FULL_RANGE, x=_FULL_RANGE)
    def check(k, lam, t, x):
        _check_contract(name, expectation_worker.call([name, members[k], lam, t, x, route]))

    check()


def _mp_besq_laplace(n, lam, t, x):
    """E_x[exp(-lam X_t)] of BESQ(n), (1 + 2 lam t)^(-n/2) exp(-lam x/(1 + 2 lam t))."""
    with mpmath.workdps(30):
        den = 1 + 2 * mpmath.mpf(lam) * mpmath.mpf(t)
        return float(den ** (-mpmath.mpf(n) / 2) * mpmath.exp(-mpmath.mpf(lam) * x / den))


@pytest.mark.parametrize("name,params,t,x,lam", [
    ("besq", {"n": 3.0}, 1.4272561494024157e247, 2.9114076013532997e-171, 0.0),
    ("bessel", {"a": 1.2}, 1.0551089053174413e76, 1.8042880893253362e-253,
     0.0073785965742169815)])
def test_closed_form_where_the_bessel_argument_underflows_at_omega_zero(name, params, t, x,
                                                                        lam):
    # omega = 0, and the moments' Bessel argument c sx/t underflows: they took
    # it as 0 and returned 0. References (mpmath): 1, and 7.4660039401066559e-127,
    # as the Bessel process's X^2 is BESQ(2a + 1)
    if name == "besq":
        ref = _mp_besq_laplace(params["n"], lam, t, x)
    else:
        ref = _mp_besq_laplace(2.0 * params["a"] + 1.0, lam, t, mpmath.mpf(x) ** 2)
    for lams in (lam, np.array([lam, lam])):
        assert np.all(np.abs(cat.expectation(name, params, lams, t, x) / ref - 1.0) <= 1e-10)


@pytest.mark.parametrize("x", [1e10, 1e20])
def test_closed_form_whose_1f1_argument_overflows(x):
    # besq n = 3 at t = 1e-300: the moments' 1F1 argument (K sx)^2/s is
    # e^714 at x = 1e10 (DomainError "non-finite argument -inf", exit 2) and
    # K sx itself overflows at x = 1e20; the large-|z| expansion, from log w
    # and the log-domain moments, gives e^(-lam x) to leading order: 0 at lam
    # = 0.5, and the mass 1 at lam = 0
    for lam in (0.5, np.array([0.5, 0.0])):
        got = cat.expectation("besq", {"n": 3.0}, lam, 1e-300, x)
        assert np.all(np.abs(got - np.where(np.asarray(lam) > 0.0, 0.0, 1.0)) <= 1e-12)


def test_core_scale_that_overflows_raises():
    # at t below about 1e-308 the core's scale c/t overflows: EvalOverflowError
    # (it was a DomainError on a NaN moment argument)
    for name, params in [("besq", {"n": 3.0}), ("sqrt_drift", {"a": 1.5, "b": 0.8, "A": 1.2, "B": 0.6})]:
        with pytest.raises(EvalOverflowError, match="c/t overflows"):
            cat.expectation(name, params, 0.5, 1e-310, 1.0)


@pytest.mark.parametrize("params,stationary", [
    ({"a": 1.0, "b": 1.0, "sigma": 1.0}, 1.0 / 1.3),
    ({"a": 0.9, "b": 1.4, "sigma": 0.6}, (1.0 + 0.3 * 0.6 / 1.4) ** (-0.9 / 0.6))])
def test_growth_and_moments_that_cancel_at_large_t_raise(params, stationary):
    # r t and the moments' omega t parts cancel in exp(r t + log B): at lam =
    # 0.3, x = 1 the value was 0.7692108677564806 at t = 1e12 and 0.7788 at
    # 1e15 (1/1.3 = 0.76923), 1.0 at 1e15 for the second; past |r t| = 2^20
    # max(1, |log E|) it loses 2e-10, and raises. At lam = 0 as well, where
    # 1.0 was exact only because log E = 0 lies on the rounding grid of r t
    for lam in (0.3, np.array([0.3, 0.3])):
        got = cat.expectation("cir", params, lam, 1e5, 1.0)
        assert np.all(np.abs(got - stationary) <= 2e-10)
        for t in (1e8, 1e12, 1e15):
            with pytest.raises(EvalOverflowError, match="cancel"):
                cat.expectation("cir", params, lam, t, 1.0)
    with pytest.raises(EvalOverflowError, match="cancel"):
        cat.expectation("cir", params, 0.0, 1e8, 1.0)


def test_growth_check_sees_the_log_of_an_underflowed_value():
    # at t = 1e58, r t and the moments cancel down to a sum of about 1e42
    # that rounded to either sign: the value read 0 where it is 1
    with pytest.raises(EvalOverflowError, match="cancel"):
        cat.expectation("cir", {"a": 1.1, "b": 0.8, "sigma": 0.6}, 0.0,
                        8.416452421720903e+58, 1.2362844982259265e-111)


# The hand-written transform right-hand sides and tanh_drift atom weight that
# the catalog carried before it derived them from the symmetry orbits, frozen
# as oracles.

def _log_cosh(z):
    return abs(z) + math.log1p(math.exp(-2.0 * abs(z))) - math.log(2.0)


def _rhs_besq(lam, t, x, n, mu=0.0, nu=0.0):
    w = 0.5 * math.sqrt((n - 2.0) ** 2 + 8.0 * nu)
    d = 0.25 * (2.0 - n) + 0.5 * w
    den = 1.0 + 2.0 * lam * t
    return x ** d * den ** (-(2.0 * d + 0.5 * n)) * math.exp(-lam * x / den)


def _rhs_bessel(lam, t, x, a, mu=0.0):
    d = 0.5 - a + math.sqrt(0.5 * mu + (a - 0.5) ** 2)
    den = 1.0 + 2.0 * lam * t
    return x ** d * den ** (-(d + a + 0.5)) * math.exp(-lam * x * x / den)


def _rhs_bessel_drift(lam, t, x, a, b, mu=0.0):
    atil = math.sqrt(a * a + 2.0 * mu)
    den = 1.0 + 2.0 * lam * t
    return math.exp(-lam * (x + b * t) ** 2 / den - math.log(den)
                    + sf.log_bessel_ive(atil, b * x / den) - sf.log_bessel_ive(a, b * x))


def _rhs_rational_drift(lam, t, x, a, mu=0.0, mu_inv=0.0):
    if mu_inv:
        root = math.sqrt(1.0 + 4.0 * mu_inv)
        dp, dm = 0.5 * (1.0 + root), 0.5 * (1.0 - root)
        den = 1.0 + lam * t
        return (a * x ** dp / den ** (2.0 * dp) + 2.0 * x ** dm / den ** (2.0 * dm)) \
            * math.exp(-lam * x / den) / (2.0 + a * x)
    if mu == 0.0:
        return math.exp(-lam * x / (1.0 + lam * t)) / (2.0 + a * x)
    rmu = math.sqrt(mu)
    em1 = math.expm1(2.0 * rmu * t)
    return math.exp(-rmu * x - math.log(2.0 + a * x)) * math.exp(
        -2.0 * lam * rmu * x / (lam * em1 + 2.0 * rmu * (em1 + 1.0)))


def _rhs_tanh_drift(lam, t, x, mu=0.0):
    k = math.sqrt(1.0 + mu)
    em1 = math.expm1(2.0 * k * t)
    return math.exp(-k * x - _log_cosh(x)
                    - 2.0 * lam * k * x / (lam * em1 + 2.0 * k * (em1 + 1.0)))


def _atom_tanh_drift(t, x, mu=0.0):
    k = math.sqrt(1.0 + mu)
    return math.exp(-k * x / math.tanh(k * t) - _log_cosh(x))


def _rhs_rational_showcase(lam, t, x, a, b):
    den = 1.0 + lam * t
    return (a * x * x + b * den ** 4) / ((b + a * x * x) * den ** 3) \
        * math.exp(-lam * x / den)


def _rhs_sqrt_drift(lam, t, x, a, b, A, B):
    w = math.sqrt(1.0 + 2.0 * B)
    den = 1.0 + lam * t
    z = math.sqrt(2.0 * A * x) / den
    return math.exp(0.5 * (1.0 - a) * math.log(x) - math.log(den) + b * math.sqrt(x)
                    - lam * (x + 0.5 * A * t * t) / den + sf.log_bessel_ive(w, z) + z)


def _rhs_generic_linear(lam, t, x, sigma, A, B, mu=0.0, c1=1.0, c2=0.0):
    alpha = math.sqrt(2.0 * B + sigma * sigma) / sigma
    nu = math.sqrt(2.0 * B + sigma * sigma + 4.0 * mu * sigma) / sigma
    c = math.sqrt(2.0 * A) / sigma

    def combo(order, z):
        return ((c1 * sf.bessel_i(order, z, scaled=True) if c1 else 0.0)
                + (c2 * sf.bessel_i(-order, z, scaled=True) if c2 else 0.0))

    zx = c * math.sqrt(x)
    log_y = 0.5 * math.log(x) + math.log(combo(alpha, zx)) + zx
    den = 1.0 + lam * sigma * t
    z = zx / den
    return math.exp(0.5 * math.log(x) - log_y + z
                    - lam * (x + 0.5 * A * t * t) / den) / den * combo(nu, z)


_RHS_ORACLES = {name[len("_rhs_"):]: fn for name, fn in dict(globals()).items()
                if name.startswith("_rhs_")}
# pool members with a transform (besq with mu > 0 has none), the transform
# suite's entries that the pool lacks, the finite-part rational_drift and a
# two-branch generic_linear
_TRANSFORM_MEMBERS = [m for m in POOL if m[0] in _RHS_ORACLES
                      and not (m[0] == "besq" and m[1].get("mu"))] + [
    ("besq", {"n": 3.0, "nu": 0.6}), ("bessel", {"a": 1.2, "mu": 0.8}),
    ("rational_drift", {"a": 1.0, "mu_inv": 0.6}),
    ("generic_linear", {"sigma": 0.8, "A": 1.5, "B": -0.2, "mu": 0.05,
                        "c1": 1.0, "c2": 0.7})]
# covers the benchmark's point ranges (lam 0-3, t 0.2-2, x 0.3-3) and the
# transform suite's grid (lam up to 5)
_TRANSFORM_GRID = [(lam, t, x) for lam in (0.0, 0.1, 0.37, 1.6, 3.0, 5.0)
                   for t in (0.2, 0.25, 0.9, 2.0) for x in (0.3, 0.5, 1.0, 2.0, 3.0)]


def _ids(member):
    return f"{member[0]}-{'-'.join(f'{k}={v:g}' for k, v in member[1].items())}"


@pytest.mark.parametrize("member", POOL, ids=_ids)
def test_by_name_and_prebuilt_calls_give_identical_floats(member):
    name, params = member
    entry = cat._build(name, dict(params))  # built apart from the cache

    def calls(target, p, t, x, y, lam):
        out = [cat.density(target, p, t, x, y)]
        if name not in WORKLOADS.NO_LOG_FORM:
            out.append(cat.density(target, p, t, x, y, log=True))
        if name in WORKLOADS.CLOSED_FORM:
            out.append(cat.expectation(target, p, lam, t, x))
        if entry.transform_rhs is not None:
            out.append(cat.transform_rhs(target, p, lam, t, x))
        return out

    for point in ((0.2, 0.3, 0.1, 0.0), (0.7, 1.3, 0.9, 0.8), (2.0, 3.0, 4.0, 3.0)):
        by_name = calls(name, dict(params), *point)
        assert by_name == calls(name, dict(reversed(params.items())), *point)
        assert by_name == calls(entry, None, *point)


@pytest.mark.parametrize("member", [
    ("bessel", {"a": 1.2}),
    ("besq", {"n": 3.0}),
    ("bessel_drift", {"a": 0.5, "b": 1.3}),
    ("sqrt_drift", {"a": 1.5, "b": 0.8, "A": 1.2, "B": 0.6}),
    ("rational_drift", {"a": 0.7, "mu_inv": 0.3}),
    ("generic_linear", {"sigma": 1.0, "A": 1.0, "B": -0.3}),
], ids=_ids)
@pytest.mark.parametrize("x", [0.0, -1.0])
def test_linear_stationary_branch_u0_is_a_domain_error_at_x_not_positive(member, x):
    u0 = cat.make_entry(member[0], **member[1]).u0
    assert math.isfinite(u0(1.3))
    for f in (u0, u0.log):
        with pytest.raises(DomainError, match="x must be > 0"):
            f(x)


@pytest.mark.parametrize("member", _TRANSFORM_MEMBERS, ids=_ids)
def test_derived_transform_matches_frozen_oracle(member):
    name, params = member
    entry = cat.make_entry(name, **params)
    for lam, t, x in _TRANSFORM_GRID:
        assert cat.transform_rhs(entry, None, lam, t, x) == pytest.approx(
            _RHS_ORACLES[name](lam, t, x, **params), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("member", _TRANSFORM_MEMBERS, ids=_ids)
def test_declared_riccati_constants_match_the_fit(member):
    entry = cat.make_entry(*member[:1], **member[1])
    fit = fit_riccati(entry.diffusion, entry.potential, np.geomspace(0.2, 20.0, 24))
    declared = entry.riccati
    assert declared.family == fit.family
    for k in ("A", "B", "C"):
        assert getattr(declared, k) == pytest.approx(getattr(fit, k), abs=1e-8)


# drifts, their derivatives and potentials take float64 arrays
_CONTRACT_XS = np.geomspace(1e-3, 100.0, 41)


@pytest.mark.parametrize("member", POOL + [
    ("generic_linear", {"sigma": 1.0, "A": 1.0, "B": -0.3, "mu": 0.05, "c2": 0.7})],
    ids=_ids)
def test_drift_and_potential_on_an_array_equal_their_values_point_by_point(member):
    # bessel_drift's f' = b^2 (1 - (2a+1) r/z - r^2) - (a+1/2)/x^2 cancels at
    # large x in both paths (a = -0.3, x = 100: to 3e-7 of its terms, which
    # are of size b^2), so f' gets an absolute floor of 1e-15
    entry = cat.make_entry(*member[:1], **member[1])
    diff = entry.diffusion
    for func, atol in ((diff.drift, 0.0), (diff.drift_derivative, 1e-15),
                       (entry.potential, 0.0)):
        got = func(_CONTRACT_XS)
        assert np.shape(got) in ((), _CONTRACT_XS.shape)
        want = [func(float(x)) for x in _CONTRACT_XS]
        np.testing.assert_allclose(np.broadcast_to(got, _CONTRACT_XS.shape), want,
                                   rtol=1e-15, atol=atol)


def test_every_entry_declares_constants_and_a_transform_with_its_u0():
    # the kernel's Bessel core comes from the declared constants, the
    # transform from them and u0
    for name, params in POOL:
        entry = cat.make_entry(name, **params)
        assert entry.riccati is not None
        assert (entry.transform_rhs is None) == (entry.u0 is None)


def test_tanh_drift_atom_weight_matches_frozen_formula():
    for name, params in POOL:
        if name != "tanh_drift":
            continue
        (atom,) = cat.make_entry(name, **params).kernel.atoms
        for t, x in [(1e-2, 0.3), (0.2, 1.0), (0.9, 3.0), (2.0, 0.5), (5.0, 10.0)]:
            assert atom.weight(t, x) == pytest.approx(
                _atom_tanh_drift(t, x, **params), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("member", [m for m in POOL if m[0] in
                                    ("rational_drift", "tanh_drift", "rational_showcase")],
                         ids=_ids)
def test_atom_weights_are_the_large_lambda_limit_of_the_transform(member):
    # the transform pairs each atom with u0 at the origin: as lam -> infinity
    # the continuous part drops out, leaving w0*u0(0+) + lam*w1*u0(0+) + O(1/lam)
    entry = cat.make_entry(*member[:1], **member[1])
    u00 = entry.u0(0.0)
    w = {atom.order: atom.weight for atom in entry.kernel.atoms}
    for t, x in [(0.3, 0.5), (1.0, 1.0), (2.0, 2.5)]:
        w0, w1 = w[0](t, x) * u00, (w[1](t, x) * u00 if 1 in w else 0.0)
        rest = [cat.transform_rhs(entry, None, lam, t, x) - lam * w1 - w0
                for lam in (1e3, 1e4)]
        assert abs(rest[1]) < 1e-3 * w0
        assert abs(rest[1]) == pytest.approx(0.1 * abs(rest[0]), rel=0.05)


def _count_specfun_calls(monkeypatch, counts):
    for name in sf.__all__:
        fn = getattr(sf, name)
        if callable(fn):
            def counted(*args, _fn=fn, **kwargs):
                counts[0] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(sf, name, counted)


@pytest.mark.parametrize("member", _TRANSFORM_MEMBERS, ids=_ids)
def test_derived_transform_makes_no_more_specfun_calls(member, monkeypatch):
    name, params = member
    counts = [0]
    _count_specfun_calls(monkeypatch, counts)
    entry = cat._build(name, params)  # built after the patch, uncached
    for lam, t, x in _TRANSFORM_GRID[::7]:
        counts[0] = 0
        _RHS_ORACLES[name](lam, t, x, **params)
        oracle = counts[0]
        counts[0] = 0
        entry.transform_rhs(lam, t, x)
        assert counts[0] <= oracle


def test_published_stationary_solutions_solve_their_ode():
    # besq with mu > 0 used to publish y^d, which ignores the mu*x killing
    for name, params in POOL + [("rational_drift", {"a": 1.0, "mu_inv": 0.6})]:
        entry = cat.make_entry(name, **params)
        if entry.u0 is not None:
            entry.u0.validate(entry.diffusion, entry.potential)


def test_besq_with_linear_killing_has_no_transform():
    entry = cat.make_entry("besq", n=4.5, mu=0.3)
    assert entry.u0 is None and entry.transform_rhs is None
    with pytest.raises(CapabilityError):
        cat.transform_rhs(entry, None, 0.5, 1.0, 1.0)


def test_quadrature_is_not_offered_on_a_finite_part_kernel():
    with pytest.raises(CapabilityError):
        cat.expectation("rational_drift", {"a": 1.0, "mu_inv": 0.6}, 0.0, 1.0, 1.0,
                        method="quadrature")


def test_quadrature_scale_out_of_range_is_an_overflow_error():
    # the bulk c over the width s underflowed to 0 in log(c/s): a raw
    # ValueError at t = 1e300, x = 1e-300. The logs are now taken apart, and a
    # width of 0 or inf (its square over- or underflows) is EvalOverflowError
    pieces = cat._de_pieces(1e-300, 1.4e150)
    assert [lo for _, lo, _, _ in pieces] == [-math.asinh(640.0 / math.pi), -cat._DE_NEAR[1]]
    for s in (0.0, math.inf):
        with pytest.raises(EvalOverflowError):
            cat._de_pieces(1.0, s)
    with pytest.raises(EvalOverflowError):
        cat.expectation("radial_ou", {"a": 0.9, "b": -0.5}, 0.5, 1e300, 1e-300,
                        method="quadrature")
    with pytest.raises(EvalOverflowError):  # s^2 = 2 t (x + t) overflows
        cat.expectation("besq", {"n": 3.0}, 0.5, 1e300, 1.0, method="quadrature")


def test_quadrature_expectation_with_negative_lambda():
    # E_1[exp(0.4 X_1)] for n = 3: the ncx2 moment generating function
    # (1 - 2*0.4)^(-3/2) exp(0.4/(1 - 2*0.4))
    ref = 0.2 ** -1.5 * math.exp(2.0)
    assert ref == pytest.approx(82.6121586338418, rel=1e-13, abs=0.0)
    assert cat.expectation("besq", {"n": 3}, -0.4, 1.0, 1.0, method="quadrature") \
        == pytest.approx(ref, rel=1e-9)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ConvergenceError):  # diverges from lam = -1/(2t) on
            cat.expectation("besq", {"n": 3}, -0.5, 1.0, 1.0, method="quadrature")


@pytest.mark.parametrize("name,params,t,x", [
    ("besq", {"n": 3.0}, 0.01, 1000.0),  # a peak of width 6 at y = 1000
    ("generic_quadratic", {"sigma": 1.0, "a": 1.0, "b": 1.0}, 1e-3, 30.0),
    ("generic_quadratic", {"sigma": 1.0, "a": 1.0, "b": 1.0}, 1e-3, 1e3),
    ("generic_linear", {"sigma": 1.0, "A": 1.0, "B": -0.3}, 1e-3, 30.0),
    ("generic_linear", {"sigma": 1.0, "A": 1.0, "B": -0.3}, 1e-3, 1e3),
])
def test_quadrature_finds_the_mass_of_narrow_kernels(name, params, t, x):
    # adaptive quadrature on [0, inf) missed these peaks and returned 0 or
    # 4e-63 without an error; the double-exponential rule is centred on them
    assert cat.expectation(name, params, 0.0, t, x, method="quadrature") \
        == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("name,params,t,x", [
    ("radial_ou", {"a": 1.0, "b": -0.8}, 0.66, 1000.0),  # the bulk moves to 590
    ("tanh_drift", {}, 2.0, 10.0),  # and to about 500
])
def test_quadrature_follows_a_bulk_that_the_drift_moves(name, params, t, x):
    assert cat.expectation(name, params, 0.0, t, x, method="quadrature") \
        == pytest.approx(cat.expectation(name, params, 0.0, t, x), rel=1e-10)


def _counting_kernel(entry, calls, nodes=None):
    """entry with kernel callables that record the type of each y (and in
    nodes, where given, each y)."""
    def wrap(fn):
        if fn is None:
            return None

        def counted(t, x, y):
            calls.append(type(y))
            if nodes is not None:
                nodes.append(np.array(y))
            return fn(t, x, y)
        return counted
    k = entry.kernel
    return dataclasses.replace(entry, kernel=cat.Kernel(
        continuous=wrap(k.continuous), log_continuous=wrap(k.log_continuous),
        atoms=k.atoms))


@pytest.mark.parametrize("name,params", [
    ("besq", {"n": 3.0}), ("cir", {"a": 1.1, "b": 0.8, "sigma": 0.6}),
    ("tanh_drift", {"mu": 0.4}), ("bessel_drift", {"a": 0.5, "b": 1.3}),
    ("generic_linear", {"sigma": 1.0, "A": 1.0, "B": -0.3}),
])
def test_quadrature_makes_a_few_array_kernel_calls(name, params):
    calls = []
    entry = _counting_kernel(cat.make_entry(name, **params), calls)
    for lam, t, x in ((0.0, 1.0, 1.0), (0.8, 0.4, 2.0), (2.0, 1.5, 0.5)):
        calls.clear()
        cat.expectation(entry, None, lam, t, x, method="quadrature")
        assert 0 < len(calls) <= 8 and set(calls) == {np.ndarray}


def test_quadrature_reuses_kernel_values_along_a_lambda_grid():
    # the nodes depend on the bulk, not on lambda: one array call integrates
    # the grid on one set of nodes, evaluating the kernel once per node, and
    # each element is its float call
    calls, nodes = [], []
    entry = _counting_kernel(cat.make_entry("cir", a=1.1, b=0.8, sigma=0.6), calls, nodes)
    lams = np.array([0.0, 0.5, 1.0, 2.0, 3.0])
    grid = cat.expectation(entry, None, lams, 0.9, 1.2, method="quadrature")
    assert len(calls) <= 8
    # each node once: only the nodes nearest the bulk c = x, which both maps
    # round to c itself, share a y
    y, count = np.unique(np.concatenate(nodes), return_counts=True)
    assert y[count > 1].tolist() == [1.2]
    for lam, val in zip(lams.tolist(), grid.tolist()):
        assert val == cat.expectation(entry, None, lam, 0.9, 1.2, method="quadrature")
        assert val == pytest.approx(cat.expectation(entry, None, lam, 0.9, 1.2),
                                    rel=1e-10, abs=0.0)


def test_quadrature_grid_where_a_float_call_moves_its_bulk():
    # at lam = 0 the float call moves its bulk from x to y of about 234; the
    # damped rows stay near x. That row is integrated alone, so every element
    # is still its float call
    entry, t, x = cat.make_entry("tanh_drift"), 1.8, 2.2576427249975612
    lams = np.linspace(0.0, 3.0, 7)
    assert cat.expectation(entry, None, lams, t, x, method="quadrature").tolist() == [
        cat.expectation(entry, None, lam, t, x, method="quadrature") for lam in lams.tolist()]


def test_quadrature_grid_where_every_term_of_a_row_underflows():
    # the closed form is 1.08e-87, and every term of the lam = 1.5e87 row
    # underflows at the shared nodes, where a shared mesh returned 0: the row
    # is integrated alone and raises ConvergenceError, as its float call does
    params, t, x = {"a": 1.0, "b": 1.0, "sigma": 1.0}, 1.0, 5.203591967919793e-14
    lam = 1.46730056364635e87
    assert cat.expectation("cir", params, lam, t, x) == pytest.approx(1.08e-87, rel=1e-2)
    for lams in (lam, np.array([lam, 0.0])):
        with pytest.raises(ConvergenceError):
            cat.expectation("cir", params, lams, t, x, method="quadrature")


def test_quadrature_row_whose_own_first_level_spans_more_is_integrated_alone():
    # f = (1 + y)^-3 e^(-lam y): at lam = 0 the far end term of exp-sinh is
    # not negligible, so that row's own first level grows its span; the
    # damped rows' do not. It leaves the shared pass and is made alone
    def kernel(y):
        return 1.0, -3.0 * np.log1p(y)

    lams, shared = np.array([0.0, 1.0, 2.0]), []
    first_level = cat._de_first_level

    def spy(*args):
        out = first_level(*args)
        shared.append(out[3].tolist())
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cat, "_de_first_level", spy)
        got = cat._de_integral(kernel, lams, 1.0, 1.0, 1.0, "test")
    assert shared[0] == [1, 2]
    assert got.tolist() == [cat._de_integral(kernel, lams[j:j + 1], 1.0, 1.0, 1.0, "test")[0]
                            for j in range(3)]
    assert got[0] == pytest.approx(0.5, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("method", ["closed", "quadrature", "auto"])
def test_an_empty_lambda_array_gives_an_empty_array(method):
    for name, params in [("besq", {"n": 3.0}),
                         ("sqrt_drift", {"a": 1.5, "b": 0.8, "A": 1.2, "B": 0.6}),
                         ("rational_showcase", {"a": 1.0, "b": 1.0}),
                         ("generic_quadratic", {"sigma": 1.0, "a": 1.0, "b": 1.0})]:
        if method == "closed" and name == "generic_quadratic":
            continue  # no closed form
        got = cat.expectation(name, params, np.array([]), 1.0, 1.0, method=method)
        assert type(got) is np.ndarray and got.shape == (0,)


@pytest.mark.parametrize("name,params,lam,ref", [
    ("generic_quadratic", {"sigma": 1.0, "a": 1.1, "b": 1.0, "c2": 0.3}, -0.1, 1.4662965408235276),
    ("generic_quadratic", {"sigma": 1.0, "a": 1.1, "b": 1.0, "c2": 0.3}, -0.3, 1.8916960346678882),
    ("generic_linear", {"sigma": 1.0, "A": 1.0, "B": -0.3, "c2": 0.5}, -0.1, 1.4776994065551616),
    ("generic_linear", {"sigma": 1.0, "A": 1.0, "B": -0.3, "c2": 0.5}, -0.3, 4.342994475418668),
])
def test_quadrature_with_negative_lambda_on_a_kernel_without_a_log_form(name, params, lam,
                                                                       ref):
    # e^(-lam y^m) q was inf * 0 = NaN at the far nodes, where q underflows
    # ("the integrand is not finite at y = 26817.86..."): f = sign(q)
    # e^(log|q| - lam y^m) is 0 there. The reference is verify's own
    # Gauss-Kronrod rule on the same integrand (m = 1)
    entry = cat.make_entry(name, **params)

    def f(y):
        with np.errstate(all="ignore"):
            q = entry.kernel.continuous(1.0, 1.0, y)
            return np.sign(q) * np.exp(np.log(np.abs(q)) - lam * y)

    assert float(verify.integrate_semi_infinite(f)) == pytest.approx(ref, rel=1e-13, abs=0.0)
    for lams in (lam, np.array([lam, 0.0])):
        got = cat.expectation(entry, None, lams, 1.0, 1.0, method="quadrature")
        assert np.atleast_1d(got)[0] == pytest.approx(ref, rel=1e-10, abs=0.0)


def test_non_finite_lambda_is_a_domain_error():
    for lam in (math.nan, math.inf):
        for method in ("closed", "quadrature", "auto"):
            with pytest.raises(DomainError):
                cat.expectation("besq", {"n": 3.0}, lam, 1.0, 1.0, method=method)
        with pytest.raises(DomainError):
            cat.transform_rhs("besq", {"n": 3.0}, lam, 1.0, 1.0)


# every entry, with the branches of its Bessel function: e^-z I_nu(z) from
# iv below z = 700 and from ive above it, the DLMF 10.40.1 expansion near
# z = 1e9, and the log-domain series where ive underflows (y = 1e-240)
_ARRAY_ENTRIES = [
    ("besq", {"n": 8.0}), ("bessel", {"a": 0.8, "mu": 0.6}),
    ("bessel_drift", {"a": -0.3, "b": 0.8}),
    ("cir", {"a": 1.1, "b": 0.8, "sigma": 0.6}),
    ("generic_linear", {"sigma": 1.0, "A": 1.0, "B": -0.3, "c2": 0.5}),
    ("generic_quadratic", {"sigma": 1.0, "a": 1.0, "b": 1.0}),
    ("generic_quadratic", {"sigma": 1.0, "a": 1.1, "b": 1.0, "c2": 0.3}),
    ("radial_ou", {"a": 1.0, "b": -0.8}),
    ("rational_drift", {"a": 2.0, "mu": 1.0}),
    ("rational_drift", {"a": 1.0, "mu_inv": 0.6}),
    ("rational_showcase", {"a": 2.0, "b": 0.7}),
    ("sqrt_drift", {"a": 1.5, "b": 0.8, "A": 1.2, "B": 0.6}),
    ("tanh_drift", {"mu": 0.9}),
]
_ARRAY_POINTS = [(1.0, 1.0, np.array([1e-240, 1e-8, 0.3, 1.0, 2.5, 40.0])),
                 (0.01, 10.0, np.array([9.0, 10.0, 11.0])),  # z about 1e3
                 (1e-6, 1e3, np.array([1e3 - 3e-3, 1e3, 1e3 + 2e-3]))]  # z about 1e9


def test_density_takes_an_array_of_y():
    ys = np.array([0.2, 1.0, 3.5])
    for log in (False, True):
        got = cat.density("cir", {"a": 1.1, "b": 0.8, "sigma": 0.6}, 0.7, 1.3, ys, log=log)
        assert isinstance(got, np.ndarray)
        for y, g in zip(ys, got):
            want = cat.density("cir", {"a": 1.1, "b": 0.8, "sigma": 0.6}, 0.7, 1.3,
                               float(y), log=log)
            assert g == pytest.approx(want, rel=1e-15, abs=0.0)
    with pytest.raises(DomainError):
        cat.density("besq", {"n": 3.0}, 1.0, 1.0, np.array([1.0, 0.0]))
    pole = dataclasses.replace(cat.make_entry("besq", n=3.0), kernel=cat.Kernel(
        continuous=lambda t, x, y: 1.0 / (y - 1.0), log_continuous=None))
    with pytest.raises(EvalOverflowError):  # inf at y = 1, as for a float
        cat.density(pole, None, 1.0, 1.0, np.array([0.5, 1.0]))


@pytest.mark.parametrize("name,params", _ARRAY_ENTRIES)
def test_array_kernel_matches_the_scalar_kernel(name, params):
    # one formula for floats and arrays: the same branches element by
    # element, and numpy's exp where the float path has math.exp
    k = cat.make_entry(name, **params).kernel
    for t, x, ys in _ARRAY_POINTS:
        for fn in (k.continuous, k.log_continuous):
            if fn is None:
                continue
            with np.errstate(all="ignore"):
                got = fn(t, x, ys)
            assert isinstance(got, np.ndarray) and got.shape == ys.shape
            for y, g in zip(ys, got):
                want = fn(t, x, float(y))
                scale = max(1.0, abs(want)) if fn is k.log_continuous else abs(want)
                assert g == want or abs(g - want) <= 1e-15 * scale, (t, x, y, g, want)


# each kernel's float-x values, (p(0.7, 1.3, 0.9), p(0.7, 1.3, 2.0), log
# p(0.7, 1.3, 0.9)) as the kernels gave them before they took x as an array
# too: a float x keeps its math-module formula, bit for bit
_FLOAT_X_VALUES = [
    (0.007611614171493883, 0.04532155346649474, -4.878080017709646),
    (0.2870398786197765, 0.4633958615659282, -1.2481341229804668),
    (0.2775524478605329, 0.44486454445430285, -1.2817453623549255),
    (0.5542605258137622, 0.255370856429848, -0.5901204395722024),
    (0.17142202664234346, 0.2233470212595754, None),
    (0.4604358224144858, 0.18356262752563574, -0.775581798005526),
    (0.6070843867869662, 0.2521837913997916, None),
    (0.5542095476224081, 0.3093058232647364, -0.5902124189455957),
    (0.11882678042299033, 0.07229988762548878, -2.1300884730219174),
    (0.17861678097437908, 0.15911122395883812, None),
    (0.12547309273515386, 0.21026728139056722, -2.075663943914077),
    (0.14730636309348563, 0.11042716562784036, -1.915240758255898),
    (0.05366577171029977, 0.040268852423082875, -2.9249798790104276),
]
# (t, xs, y): two fixed point sets and a log-uniform sweep of t in [0.05, 5]
# and x in [0.02, 10]; y is taken as the float and as 0.8 xs reversed
_SWEEP = np.random.default_rng(20261020)
_ARRAY_X_POINTS = [(1.0, np.array([1e-8, 0.3, 1.0, 2.5, 10.0]), 1.0),
                   (0.3, np.array([0.2, 0.7, 1.3, 3.0]), 0.9)] + [
    (float(t), np.exp(_SWEEP.uniform(math.log(0.02), math.log(10.0), 24)), 1.3)
    for t in np.exp(_SWEEP.uniform(math.log(0.05), math.log(5.0), 3))]


def _finite_part_branches(a, mu_inv, t, x, y):
    """|p+| + |s c2 Z-/N p_K| of rational_drift's finite-part kernel, in
    mpmath: the sizes of the I and K branches whose sum is p. I_-root =
    I_root + s K_root, s = (2/pi) sin(root pi) (DLMF 10.27.3), so p = pref
    ((2 + a y^root) I_root + 2 s K_root), pref as in
    _mp_rational_drift_inverse."""
    with mpmath.workdps(40):
        a, mu_inv, t, x, y = (mpmath.mpf(v) for v in (a, mu_inv, t, x, y))
        root = mpmath.sqrt(1 + 4 * mu_inv)
        z = 2 * mpmath.sqrt(x * y) / t
        pref = (mpmath.sqrt(x / y) / t * mpmath.exp(-(x + y) / t) * (2 + a * y)
                / ((2 + a * x) * (2 + a * y ** root)))
        s = 2 / mpmath.pi * mpmath.sin(mpmath.pi * root)
        return float(pref * ((2 + a * y ** root) * mpmath.besseli(root, z)
                             + 2 * abs(s) * mpmath.besselk(root, z)))


def _assert_array_x_matches_float_x(k, params, t, xs, ys):
    """kernel k with x an array, against y a float or an array of xs's shape,
    equals the float calls element by element within 10 eps max(1, |log M|) M
    on p and 10 eps max(1, |log p|) on log p, M = |p| or, for the signed
    finite-part kernel, the sum of its branches' sizes: numpy's exp and log
    may round one unit away from math's, log p sums terms of size |log p|
    and more, and the finite-part kernel's branches cancel near its zeros.
    A sweep of 3000 points per kernel read at most 8.4."""
    eps = np.finfo(float).eps
    for fn in (k.continuous, k.log_continuous):
        if fn is None:
            continue
        with np.errstate(all="ignore"):
            got = fn(t, xs, ys)
        assert isinstance(got, np.ndarray) and got.shape == xs.shape
        for x, y, g in zip(xs, np.broadcast_to(ys, xs.shape), got):
            want = fn(t, float(x), float(y))
            if fn is k.log_continuous:
                bound = 10.0 * eps * max(1.0, abs(want))
            else:
                size = (_finite_part_branches(params["a"], params["mu_inv"], t, x, y)
                        if k.finite_part else abs(want))
                bound = 10.0 * eps * max(1.0, abs(math.log(size))) * size
            assert abs(g - want) <= bound, (t, x, y, g, want)


@pytest.mark.parametrize("member,values", zip(_ARRAY_ENTRIES, _FLOAT_X_VALUES),
                         ids=[f"{n}-{i}" for i, (n, _) in enumerate(_ARRAY_ENTRIES)])
def test_array_x_kernel_matches_float_x_calls(member, values):
    name, params = member
    k = cat.make_entry(name, **params).kernel
    assert k.continuous(0.7, 1.3, 0.9) == values[0]
    assert k.continuous(0.7, 1.3, np.array([0.9, 2.0])).tolist() == list(values[:2])
    assert values[2] == (k.log_continuous(0.7, 1.3, 0.9) if k.log_continuous else None)
    for t, xs, y in _ARRAY_X_POINTS:
        for ys in (y, 0.8 * xs[::-1]):
            _assert_array_x_matches_float_x(k, params, t, xs, ys)


@pytest.mark.parametrize("params,t,x,y", [
    # branches 61 times |p|: the array call reads 129 eps of |p| off the float call
    ({"a": 2.0, "mu_inv": 0.3}, 0.8170366832124885, 0.05006928441478343, 2.1379168867634553),
    # 1e-6 relatively off a zero of p, whose branches are 8.8e5 times |p|
    ({"a": 1.0, "mu_inv": 0.6}, 0.7, 1.3, 0.1373273119956458),
    # no cancellation: the sweep's largest reading, 8.4 eps max(1, |log M|) M
    ({"a": 2.0, "mu_inv": 1.7}, 1.1288543296777078, 0.04451948959012961, 1.3),
])
def test_array_x_finite_part_kernel_within_its_branches(params, t, x, y):
    k = cat.make_entry("rational_drift", **params).kernel
    xs = np.array([x, 0.5 * x, 2.0 * x])
    for ys in (y, np.full(3, y)):
        _assert_array_x_matches_float_x(k, params, t, xs, ys)


# ---------------------------------------------------------------------------
# kernels derived from the declared drift-equation constants
# ---------------------------------------------------------------------------

# The kernels the catalog wrote by hand before it derived every Bessel core
# from the entry's declared constants (symmetry.bessel_core), frozen as
# oracles: bessel_drift's and sqrt_drift's log kernels, the two-branch
# kernels of generic_linear and generic_quadratic and the Gaussian form of
# besq_cosh_variant. They hold where sinh(omega t) does not overflow.

def _frozen_log_core(nu, c, omega, t, sx, sy):
    if omega == 0.0:
        return (math.log(c / t) - c * (sx - sy) ** 2 / t
                + sf.log_bessel_ive(nu, 2.0 * c * sx * sy / t))
    wt, cw = omega * t, c * omega
    sh = math.sinh(wt)
    return (math.log(cw / sh) - cw * (sx - sy) ** 2 / math.tanh(wt)
            - 2.0 * cw * math.tanh(0.5 * wt) * sx * sy
            + sf.log_bessel_ive(nu, 2.0 * cw * sx * sy / sh))


def _frozen_bessel_drift(t, x, y, a, b, mu=0.0):
    xp = np if isinstance(y, np.ndarray) else math
    atil = math.sqrt(a * a + 2.0 * mu)
    return (xp.log(2.0 * y) + b * (y - x) + sf.log_bessel_ive(a, b * y)
            - sf.log_bessel_ive(a, b * x) - 0.5 * b * b * t
            + _frozen_log_core(atil, 0.5, 0.0, t, x, y))


def _frozen_sqrt_drift(t, x, y, a, b, A, B):
    xp = np if isinstance(y, np.ndarray) else math
    sx, sy = math.sqrt(x), xp.sqrt(y)
    return (0.5 * (1.0 - a) * (math.log(x) - xp.log(y)) + b * (sx - sy) - 0.5 * A * t
            + _frozen_log_core(math.sqrt(1.0 + 2.0 * B), 1.0, 0.0, t, sx, sy))


def _frozen_scaled_sum(c1, l1, c2, l2, xp):
    if xp is np:
        m = np.maximum(l1, l2)
    else:
        if not c2:
            return c1, l1
        if not c1:
            return c2, l2
        m = max(l1, l2)
    return c1 * xp.exp(l1 - m) + c2 * xp.exp(l2 - m), m


def _frozen_generic_linear(t, x, y, sigma, A, B, mu=0.0, c1=1.0, c2=0.0):
    xp = np if isinstance(y, np.ndarray) else math
    alpha = math.sqrt(2.0 * B + sigma * sigma) / sigma
    nu = math.sqrt(2.0 * B + sigma * sigma + 4.0 * mu * sigma) / sigma
    c = math.sqrt(2.0 * A) / sigma

    def combo(order, z):
        return ((c1 * sf.bessel_i(order, z, scaled=True) if c1 else 0.0)
                + (c2 * sf.bessel_i(-order, z, scaled=True) if c2 else 0.0))

    zx = c * math.sqrt(x)
    log_yx = 0.5 * math.log(x) + math.log(combo(alpha, zx)) + zx
    sx, sy = math.sqrt(x), xp.sqrt(y)
    zy = c * sy
    l1 = _frozen_log_core(nu, 1.0 / sigma, 0.0, t, sx, sy) if c1 else 0.0
    l2 = _frozen_log_core(-nu, 1.0 / sigma, 0.0, t, sx, sy) if c2 else 0.0
    if c1 and c2:
        w1 = c1 * sf.bessel_i(nu, zy, scaled=True)
        w2 = c2 * sf.bessel_i(-nu, zy, scaled=True)
        s, m = _frozen_scaled_sum(w1, l1, w2, l2, xp)
        s = s / (w1 + w2)
    else:
        s, m = 1.0, l1 + l2
    return s * combo(alpha, zy) * xp.exp(
        m + zy + 0.5 * math.log(x) - log_yx - A * t / (2.0 * sigma))


def _frozen_generic_quadratic(t, x, y, sigma, a, b, mu=0.0, c1=1.0, c2=0.0):
    xp = np if isinstance(y, np.ndarray) else math
    A = b * b + 4.0 * mu * sigma
    nu = abs(a - sigma) / sigma
    s = 1.0 / sigma
    sx, sy = math.sqrt(x), xp.sqrt(y)
    log_p = (0.5 * a * b * s * t + (0.5 * a * s - 0.5) * (xp.log(y) - math.log(x))
             - 0.5 * b * s * (y - x) + _frozen_log_core(nu, s, 0.5 * math.sqrt(A), t, sx, sy))
    if c2 == 0.0 and c1 > 0:
        return xp.exp(math.log(c1) + log_p)
    z = xp.sqrt(A * x * y) / (sigma * math.sinh(0.5 * math.sqrt(A) * t))
    if abs(nu - round(nu)) < 1e-12:
        s2, l2 = sf.bessel_k(round(nu), z, scaled=True), -2.0 * z
    else:
        s2, l2 = sf.bessel_i(-nu, z, scaled=True), 0.0
    sm, m = _frozen_scaled_sum(c1, 0.0, c2 * s2, l2 - sf.log_bessel_ive(nu, z), xp)
    return sm * xp.exp(log_p + m)


def _frozen_besq_cosh_variant(t, x, y):
    xp = np if isinstance(y, np.ndarray) else math
    sx, sy = math.sqrt(x), xp.sqrt(y)
    return 0.5 * (xp.exp(-(sx - sy) ** 2 / (2.0 * t)) + xp.exp(-(sx + sy) ** 2 / (2.0 * t))) \
        / math.sqrt(2.0 * math.pi * t * x)


_FROZEN_KERNELS = {"bessel_drift": _frozen_bessel_drift, "sqrt_drift": _frozen_sqrt_drift,
                   "generic_linear": _frozen_generic_linear,
                   "generic_quadratic": _frozen_generic_quadratic}


def _frozen_members():
    members = [m for m in _ARRAY_ENTRIES + POOL if m[0] in _FROZEN_KERNELS]
    members += [(name, {**params, "c2": 0.7}) for name, params in members
                if name.startswith("generic") and "c2" not in params]
    return members


def _assert_same_log(got, want, y):
    """got and want, logs of kernels at y (floats or arrays), agree within
    1e-14 of the largest log-term the kernels sum: max(1, |log p|, |log y|,
    y). The h-ratio cancels terms of size |log y| at small y (the Bessel
    factor's y^(nu/2) against (y/x)^p), and an h-ratio from F(y) - F(x) of
    size b y at large y."""
    scale = np.maximum.reduce([np.ones_like(want), np.abs(want), np.abs(np.log(y)), y])
    assert (np.abs(got - want) <= 1e-14 * scale).all(), (y, got, want)


@pytest.mark.parametrize("member", _frozen_members(), ids=_ids)
def test_derived_kernel_matches_frozen_oracle(member):
    # on floats and on arrays of y; the two-branch kernels, continuous only,
    # are compared by their logs too
    name, params = member
    k = cat.make_entry(name, **params).kernel
    if k.log_continuous is not None and name != "generic_quadratic":
        fn, log = k.log_continuous, lambda v: v
    else:
        fn, log = k.continuous, lambda v: np.log(v)
    for t, x, ys in _ARRAY_POINTS:
        with np.errstate(all="ignore"):
            want = log(_FROZEN_KERNELS[name](t, x, ys, **params))
            _assert_same_log(log(fn(t, x, ys)), want, ys)
        for y, w in zip(ys, want):
            _assert_same_log(log(fn(t, x, float(y))), w, y)


# rational_drift's finite-part (mu_inv) kernel as the catalog wrote it by
# hand before it built it from the declared constants, frozen as an oracle:
# it holds where its Bessel argument and y^sqrt(1 + 4 mu_inv) are finite.

def _frozen_rational_drift_inverse(t, x, y, a, mu_inv):
    xp = np if isinstance(y, np.ndarray) else math
    root = math.sqrt(1.0 + 4.0 * mu_inv)
    dp, dm = 0.5 * (1.0 + root), 0.5 * (1.0 - root)
    c = x / (t * t)

    def g_term(rho):
        return (y / c) ** (0.5 * (rho - 1.0)) * sf.bessel_i(
            rho - 1.0, 2.0 * xp.sqrt(c * y), scaled=True)

    bracket = (a * x ** dp * t ** (-2.0 * dp) * g_term(2.0 * dp)
               + 2.0 * x ** dm * t ** (-2.0 * dm) * g_term(2.0 * dm))
    u0 = y ** dm * (2.0 + a * y ** root) / (2.0 + a * y)
    return xp.exp(-(math.sqrt(x) - xp.sqrt(y)) ** 2 / t) * bracket / ((2.0 + a * x) * u0)


def _mp_rational_drift_inverse(a, mu_inv, t, x, y):
    """sqrt(x/y)/t e^(-(x+y)/t) (2 + ay)(a y^root I_root + 2 I_-root)(z)
    / ((2 + ax)(2 + a y^root)), z = 2 sqrt(xy)/t."""
    a, mu_inv, t, x, y = (mpmath.mpf(v) for v in (a, mu_inv, t, x, y))
    root = mpmath.sqrt(1 + 4 * mu_inv)
    z = 2 * mpmath.sqrt(x * y) / t
    return float(mpmath.sqrt(x / y) / t * mpmath.exp(-(x + y) / t) * (2 + a * y)
                 * (a * y ** root * mpmath.besseli(root, z) + 2 * mpmath.besseli(-root, z))
                 / ((2 + a * x) * (2 + a * y ** root)))


_FINITE_PART = [{"a": 1.0, "mu_inv": 0.6}, {"a": 2.0, "mu_inv": 1.7},
                {"a": 0.3, "mu_inv": 0.05}, {"a": 5.0, "mu_inv": 4.2}]


@pytest.mark.parametrize("params", _FINITE_PART, ids=lambda p: _ids(("", p)))
def test_finite_part_kernel_matches_frozen_oracle(params):
    # signed, so compared where |p| > 1e-8 of its largest value at each (t, x)
    k = cat.make_entry("rational_drift", **params).kernel.continuous
    ys = np.geomspace(1e-4, 60.0, 73)
    for t in (0.02, 0.3, 1.0, 4.0):
        for x in (0.05, 0.8, 3.0, 12.0):
            want = _frozen_rational_drift_inverse(t, x, ys, **params)
            keep = np.abs(want) > 1e-8 * np.abs(want).max()
            np.testing.assert_allclose(k(t, x, ys)[keep], want[keep], rtol=1e-12)
            for y, w in zip(ys[keep][::9], want[keep][::9]):
                assert k(t, x, float(y)) == pytest.approx(w, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("params,t,x,y", [
    ({"a": 1.0, "mu_inv": 0.6}, 1.0, 1.0, 0.5),
    ({"a": 1.0, "mu_inv": 0.6}, 0.1, 2.0, 1e-3),
    ({"a": 2.0, "mu_inv": 1.7}, 3.0, 0.4, 7.0),
    ({"a": 2.0, "mu_inv": 1.7}, 1e-3, 1.0, 1.02),
    # the Bessel argument overflowed the hand-written kernel (DomainError)
    ({"a": 1.0, "mu_inv": 0.6}, 1e-70, 1e128, 1e67),
    ({"a": 1.0, "mu_inv": 0.6}, 1e-40, 1e-30, 1e-30),
    # the core's K_root passes e^700 below z = 1e-165
    ({"a": 1.0, "mu_inv": 0.6}, 1e200, 1e-60, 1e-60),
    # index 40: the core takes K_40's leading term up to z = e^-20, here at
    # z = 3.5e-10, where its factor e^-z is 3.5e-10 off 1
    ({"a": 1.0, "mu_inv": 400.0}, 1.0, 1e-22, 300.0),
])
def test_finite_part_kernel_against_mpmath(params, t, x, y):
    with mpmath.workdps(80):
        ref = _mp_rational_drift_inverse(*params.values(), t, x, y)
    for ys, pick in ((y, float), (np.array([y, 2.0 * y]), lambda v: float(v[0]))):
        assert pick(cat.density("rational_drift", params, t, x, ys)) == pytest.approx(
            ref, rel=1e-12, abs=1e-300)


def test_finite_part_u0_at_large_y_against_mpmath():
    # u0 = y^((1 - root)/2) (2 + a y^root)/(2 + a y): the power limit's
    # y^((1 + root)/2) overflowed at y = 1e300 (a raw OverflowError)
    u0 = cat.make_entry("rational_drift", a=1.0, mu_inv=0.6).u0
    for y in (1e-300, 0.3, 7.0, 1e300):
        with mpmath.workdps(40):
            v, root = mpmath.mpf(y), mpmath.sqrt(mpmath.mpf(3.4))
            ref = v ** ((1 - root) / 2) * (2 + v ** root) / (2 + v)
        assert u0(y) == pytest.approx(float(ref), rel=1e-13, abs=0.0)
        assert u0.log(y) == pytest.approx(float(mpmath.log(ref)), rel=1e-13, abs=1e-13)


def test_two_branch_kernel_where_both_branches_underflow_is_zero():
    # both branch logs are -inf: the sum is 0, as a one-branch kernel's is
    # (their max was subtracted from each, -inf - -inf, which is NaN)
    args = ("rational_drift", {"a": 1, "mu_inv": 0.6}, 4.65e-73, 1.77e287)
    assert cat.density(*args, 9.89e53) == 0.0
    assert cat.density(*args, np.array([9.89e53, 9.89e53])).tolist() == [0.0, 0.0]


@pytest.mark.parametrize("nu", [0.01, 0.5, 0.99])
@pytest.mark.parametrize("log_z", [-700.0, -800.0])
def test_k_core_leading_term_against_mpmath(nu, log_z):
    # below z = 1e-300 the K_nu core takes its leading terms: for 0 < nu < 1
    # Gamma(-nu)/2 (z/2)^nu is (z/2)^(2 nu) of the first (4e-7 at nu = 0.01)
    with mpmath.workdps(40):
        z = mpmath.exp(log_z)
        ref = float(mpmath.log(mpmath.besselk(nu, z)) - z)
    assert cat._log_bessel(nu, log_z, True, cat._LOG_TINY) == \
        pytest.approx(ref, rel=1e-13, abs=0.0)
    assert cat._log_bessel(nu, np.array([log_z, -1.0]), True, cat._LOG_TINY)[0] == \
        pytest.approx(ref, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("t,x,y", [(1e300, 1e-300, 1e200), (1.0, 1.0, 1e200),
                                   (1e-3, 1e150, 1e150), (2.0, 1e-200, 1e290)])
def test_finite_part_kernel_where_the_k_weight_underflows_against_mpmath(t, x, y):
    # the weight 4 sin(pi root)/(pi (2 + a y^root)) of p_K is subnormal, or
    # y^root overflows: as a log the weight keeps p_K, which may carry the value
    params = {"a": 1.0, "mu_inv": 0.6}
    with mpmath.workdps(80):
        ref = _mp_rational_drift_inverse(*params.values(), t, x, y)
    for ys, pick in ((y, float), (np.array([y, 2.0 * y]), lambda v: float(v[0]))):
        assert pick(cat.density("rational_drift", params, t, x, ys)) == pytest.approx(
            ref, rel=1e-12, abs=1e-300)


def test_besq_cosh_variant_is_the_second_branch_of_besq_3():
    for t, x, ys in _ARRAY_POINTS:
        want = np.log(_frozen_besq_cosh_variant(t, x, ys))
        _assert_same_log(np.log(cat.besq_cosh_variant(t, x, ys)), want, ys)
        for y, w in zip(ys, want):
            _assert_same_log(math.log(cat.besq_cosh_variant(t, x, float(y))), w, y)


@pytest.mark.parametrize("case", DOCUMENTED_CONSTANTS + [RADIAL_OU_CASE],
                         ids=lambda c: _ids(c[:2]))
def test_declared_constants_are_the_documented_ones(case):
    # the kernel's Bessel core is read from these, so they are pinned to the
    # hand-derived values of the acceptance suite
    name, params, (family, A, B, C) = case
    ric = cat.make_entry(name, **params).riccati
    assert ric.family == family
    assert (ric.A, ric.B, ric.C) == pytest.approx((A, B, C), rel=1e-15, abs=1e-15)


def _mp_affine_branches(sigma, a, b, mu, t, x, y):
    """(p+, p-) of generic_quadratic: the kernel with I_nu and with K_nu
    (integer nu) or I_-nu."""
    rA = mpmath.sqrt(b * b + 4 * mu * sigma)
    nu = abs(a - sigma) / sigma
    sh, th = mpmath.sinh(rA * t / 2), mpmath.tanh(rA * t / 2)
    pref = (rA / (2 * sigma * sh) * mpmath.sqrt(x / y)
            * mpmath.exp((a * mpmath.log(y / x) - b * (y - x) + a * b * t) / (2 * sigma)
                         - rA * (x + y) / (2 * sigma * th)))
    z = rA * mpmath.sqrt(x * y) / (sigma * sh)
    second = mpmath.besselk(nu, z) if nu == int(nu) else mpmath.besseli(-nu, z)
    return pref * mpmath.besseli(nu, z), pref * second


@pytest.mark.parametrize("params", [
    {"sigma": 1.0, "a": 1.0, "b": 1.0, "mu": 0.0},  # nu = 0
    {"sigma": 1.0, "a": 2.0, "b": 0.1, "mu": 0.25},  # nu = 1
    {"sigma": 1.0, "a": 1.5, "b": 0.1, "mu": 0.25},  # nu = 1/2
], ids=lambda p: f"nu={abs(p['a'] - p['sigma']) / p['sigma']:g}")
@pytest.mark.parametrize("t", [700.0, 3000.0])
def test_two_branch_generic_quadratic_at_large_t(t, params):
    # c1 p+ + c2 p-: sinh(sqrt(A) t/2) overflows at t = 3000, which raised
    # EvalOverflowError from the hand-written kernel, and the Bessel argument
    # of p- underflows there
    params = {**params, "c1": 1.0, "c2": 1.0}
    ys = np.array([0.5, 1.0, 2.0])
    got = cat.density("generic_quadratic", params, t, 1.0, ys)
    for y, g in zip(ys, got):
        with mpmath.workdps(40):
            p_plus, p_minus = _mp_affine_branches(*(mpmath.mpf(params[k]) for k in (
                "sigma", "a", "b", "mu")), mpmath.mpf(t), 1, mpmath.mpf(y))
            want = float(p_plus + p_minus)
        assert math.isfinite(g) and g == pytest.approx(want, rel=1e-12, abs=0.0)
        assert cat.density("generic_quadratic", params, t, 1.0, float(y)) == pytest.approx(
            want, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# closed-form expectations from the kernels' Bessel-core terms
# ---------------------------------------------------------------------------

# The seven hand-written closed-form expectations the catalog carried before
# it derived them from each kernel's Bessel-core terms, frozen as oracles
# (scipy and math in place of the specfun wrappers they called).

def _1f1(a, b, z):
    return float(sc.hyp1f1(a, b, z))


def _moment(p, nu, s, c):
    q = p + 0.5 * nu + 1.0
    return math.exp(nu * math.log(c) + math.lgamma(q) - math.lgamma(nu + 1.0)
                    - q * math.log(s)) * _1f1(q, nu + 1.0, c * c / s)


def _closed_besq(lam, t, x, n, mu=0.0, nu=0.0):
    w = 0.5 * math.sqrt((n - 2.0) ** 2 + 8.0 * nu)
    d = 0.25 * (2.0 - n) + 0.5 * w
    b = math.sqrt(2.0 * mu)
    if mu == 0.0:
        alpha, beta = d + 0.5 * n, 2.0 * d + 0.5 * n
        z = x / (2.0 * t + 4.0 * t * t * lam)
        lg = (-x / (2.0 * t) + d * (math.log(x) - math.log(2.0 * t))
              + math.lgamma(alpha) - math.lgamma(beta) - alpha * math.log1p(2.0 * lam * t))
        return math.exp(lg) * _1f1(alpha, beta, z)
    if nu == 0.0:
        cth = 1.0 / math.tanh(b * t)
        num = -(x * b / 2.0) * (1.0 + 2.0 * lam * cth / b) / (cth + 2.0 * lam / b)
        den = math.cosh(b * t) + (2.0 * lam / b) * math.sinh(b * t)
        return math.exp(num) / den ** (0.5 * n)
    sh, rate = math.sinh(b * t), 0.5 * b / math.tanh(b * t)
    q = 0.25 * (n - 2.0)
    val = _moment(q, w, lam + rate, 0.5 * b * math.sqrt(x) / sh)
    return math.exp(math.log(b / (2.0 * sh)) - q * math.log(x) - rate * x) * val


def _closed_bessel(lam, t, x, a, mu=0.0):
    d = 0.5 - a + math.sqrt(0.5 * mu + (a - 0.5) ** 2)
    nu_ix = d + a + 0.5
    alpha = 0.25 * (1.0 + 2.0 * a + 2.0 * nu_ix)
    z = x * x / (2.0 * t + 4.0 * t * t * lam)
    lg = (-x * x / (2.0 * t) + 0.5 * d * (2.0 * math.log(x) - math.log(2.0 * t))
          + math.lgamma(alpha) - math.lgamma(nu_ix) - alpha * math.log1p(2.0 * t * lam))
    return math.exp(lg) * _1f1(alpha, nu_ix, z)


def _closed_cir(lam, t, x, a, b, sigma, mu=0.0):
    nu_ix = math.sqrt((a - sigma) ** 2 + 4.0 * mu * sigma) / sigma
    k = a / (2.0 * sigma)
    alph = (b / (2.0 * sigma)) * (1.0 + 1.0 / math.tanh(0.5 * b * t)) + lam
    beta = b * math.sqrt(x) / (2.0 * sigma * math.sinh(0.5 * b * t))
    z = beta * beta / alph
    m = 0.5 * nu_ix  # Whittaker M_{-k,m}(z) = e^{-z/2} z^{m+1/2} 1F1(m+k+1/2, 1+2m, z)
    lg = (math.lgamma(k + 0.5 * nu_ix + 0.5) - math.lgamma(nu_ix + 1.0)
          + (b / (2.0 * sigma)) * (a * t + x - x / math.tanh(0.5 * b * t))
          - k * (math.log(alph) + math.log(x)) + (m + 0.5) * math.log(z))
    return math.exp(lg) * _1f1(m + k + 0.5, 1.0 + 2.0 * m, z)


def _closed_rational_drift(lam, t, x, a, mu=0.0):
    rmu = math.sqrt(mu)
    rate = rmu + 2.0 * rmu / math.expm1(2.0 * rmu * t) if mu else 1.0 / t
    log_u1 = -rate * x - math.log(2.0 + a * x)
    if mu == 0.0:
        c2, s = x / (t * t), lam + 1.0 / t
    else:
        sh = math.sinh(rmu * t)
        c2, s = mu * x / (sh * sh), lam + rmu / math.tanh(rmu * t)
    return math.exp(log_u1 + c2 / s) * (2.0 + a * c2 / (s * s))


def _closed_tanh_drift(lam, t, x, mu=0.0):
    k = math.sqrt(1.0 + mu)
    kt = k * t
    csch = 1.0 / math.sinh(kt)
    a1 = k * k * x * csch / (k * math.cosh(kt) + (lam - 1.0) * math.sinh(kt))
    a2 = k * k * x * csch / (k * math.cosh(kt) + (lam + 1.0) * math.sinh(kt))
    return 0.5 * _atom_tanh_drift(t, x, mu) * (math.exp(a1) + math.exp(a2))


def _closed_radial_ou(lam, t, x, a, b, mu=0.0):
    alpha, nu_ix = math.sqrt(b * b + 4.0 * mu), 0.5 * (a + 1.0)
    at = alpha * t
    cth = 1.0 / math.tanh(at)
    g = b - 4.0 * lam
    return math.exp(-0.25 * b * x * x
                    + alpha * (alpha - g * cth) * x * x / (4.0 * (g - alpha * cth))
                    - b * nu_ix * t
                    - nu_ix * math.log(math.cosh(at) - g * math.sinh(at) / alpha))


def _closed_sqrt_drift(lam, t, x, a, b, A, B):
    w = math.sqrt(1.0 + 2.0 * B)
    pref = (-math.log(t) + 0.5 * (1.0 - a) * math.log(x) + b * math.sqrt(x)
            - 0.5 * A * t - x / t)
    s, c = lam + 1.0 / t, math.sqrt(x) / t
    total, coef = 0.0, 1.0
    for j in range(500):
        term = coef * _moment(0.5 * (a - 1.0 + j), w, s, c)
        total += term
        if j > 3 and abs(term) < 1e-13 * abs(total):
            return math.exp(pref) * total
        coef *= -b / (j + 1.0)
    raise AssertionError("series did not converge")


_CLOSED_ORACLES = {name[len("_closed_"):]: fn for name, fn in dict(globals()).items()
                   if name.startswith("_closed_")}
# the benchmark's point ranges: t 0.2-2, x 0.3-3, lam 0-3
_CLOSED_GRID = [(lam, t, x) for lam in (0.0, 0.4, 1.5, 3.0)
                for t in (0.2, 0.55, 1.3, 2.0) for x in (0.3, 0.9, 2.0, 3.0)]


@pytest.mark.parametrize("member", [m for m in POOL if m[0] in _CLOSED_ORACLES], ids=_ids)
def test_closed_form_matches_frozen_oracle(member):
    name, params = member
    entry = cat.make_entry(name, **params)
    for lam, t, x in _CLOSED_GRID:
        assert cat.expectation(entry, None, lam, t, x, method="closed") == pytest.approx(
            _CLOSED_ORACLES[name](lam, t, x, **params), rel=1e-13, abs=0.0)


# lambda arrays: one pass over the grid, on the code path of a float lambda
_LAMBDAS = np.array([0.0, 0.05, 0.4, 1.0, 1.5, 2.2, 3.0])


@pytest.mark.parametrize("member", [m for m in POOL if m[0] in WORKLOADS.CLOSED_FORM],
                         ids=_ids)
def test_closed_form_over_a_lambda_array_matches_floats(member):
    name, params = member
    entry = cat.make_entry(name, **params)
    for _, t, x in _CLOSED_GRID[:16]:
        got = cat.expectation(entry, None, _LAMBDAS, t, x)
        assert type(got) is np.ndarray and got.shape == _LAMBDAS.shape
        want = [cat.expectation(entry, None, float(lam), t, x) for lam in _LAMBDAS]
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


def _block_widths(monkeypatch):
    """The number of lambdas of each sqrt_drift series block, as the block's
    one call of specfun's moments (its s, one per lambda) records them."""
    widths, moments = [], cat.specfun.log_laplace_bessel_moments

    def recording(terms, s, c):
        widths.append(np.size(s))
        return moments(terms, s, c)
    monkeypatch.setattr(cat.specfun, "log_laplace_bessel_moments", recording)
    return widths


def test_sqrt_drift_lambdas_leave_the_series_at_their_own_terms(monkeypatch):
    # short blocks, so that the lambdas of one grid stop in different blocks:
    # each block evaluates only the lambdas still summing
    monkeypatch.setattr(cat, "_SERIES_BLOCK", 3)
    widths = _block_widths(monkeypatch)
    params = {"a": 1.5, "b": 0.8, "A": 1.2, "B": 0.6}
    entry = cat.make_entry("sqrt_drift", **params)
    lams = np.array([0.0, 0.3, 3.0, 30.0, 300.0])
    got = cat.expectation(entry, None, lams, 1.0, 2.5)
    assert widths[0] == 5 and len(set(widths)) >= 3 and widths == sorted(widths)[::-1]
    for lam, g in zip(lams, got):
        assert g == pytest.approx(_closed_sqrt_drift(lam, 1.0, 2.5, **params), rel=1e-13, abs=0.0)
        assert g == pytest.approx(cat.expectation(entry, None, float(lam), 1.0, 2.5),
                                  rel=1e-14, abs=0.0)


@pytest.mark.parametrize("t,x", [(1.0, 8.0), (2.0, 3.0), (2.0, 5.0)])
def test_sqrt_drift_series_past_one_block(monkeypatch, t, x):
    # at lam = 0 these series run 29 to 31 terms, past the first block of 24:
    # the second block carries the first one's sums and units, as a
    # term-by-term loop would
    widths = _block_widths(monkeypatch)
    params = {"a": 1.5, "b": 0.8, "A": 1.2, "B": 0.6}
    entry = cat.make_entry("sqrt_drift", **params)
    lams = np.array([0.0, 0.5, 2.0, 10.0])
    got = cat.expectation(entry, None, lams, t, x)
    assert len(widths) >= 2 and widths[0] == 4
    for lam, g in zip(lams, got):
        assert g == pytest.approx(_closed_sqrt_drift(lam, t, x, **params), rel=1e-13, abs=0.0)
        assert g == pytest.approx(cat.expectation(entry, None, float(lam), t, x),
                                  rel=1e-14, abs=0.0)


def test_sqrt_drift_terms_past_the_float_range_raise_overflow():
    # at x = 1e200 the terms grow by about e^230 each, past e^709 units of
    # the first block's largest term: the series raises EvalOverflowError
    # itself, for a float and an array lam alike, with no NaN (it printed
    # "gave nan") and no RuntimeWarning on the way
    params = {"a": 1.5, "b": 0.8, "A": 1.2, "B": 0.6}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lam in (0.0, np.array([0.0, 1.0])):
            with pytest.raises(EvalOverflowError, match="sqrt_drift expectation: a term overflows"):
                cat.expectation("sqrt_drift", params, lam, 1.0, 1e200)


def test_sqrt_drift_terms_near_e_minus_700_give_no_negative_value():
    # the series' terms, near e^-700, lost their digits to subnormal rounding
    # and summed to -5e-300 (quadrature: 1.9e-305); summed in units of the
    # largest term, they keep them, and the cancellation check sees the loss
    params, t, x = {"a": 1.5, "b": 0.8, "A": 1.2, "B": 0.6}, 0.0007317301453327785, 778.2980706795902
    for lam in (0.9021514888745356, np.array([0.9021514888745356, 0.0])):
        try:
            val = cat.expectation("sqrt_drift", params, lam, t, x)
        except ConvergenceError:
            continue
        assert np.all(val >= 0.0)


def test_sqrt_drift_terms_far_below_the_float_range_give_zero():
    # in units of their largest term these terms are O(1); times e^(b sqrt(x)
    # + r t) they sum to under half the least subnormal, so the value is 0
    # (quadrature: 0.0), not an error from cancellation or a later moment
    params = {"a": 1.5, "b": 0.8, "A": 1.2, "B": 0.6}
    for t, x, lam in [(1e-4, 1e4, 1.0), (0.00042975297258771337, 1232.8467394420634, 1.0)]:
        assert cat.expectation("sqrt_drift", params, lam, t, x) == 0.0
        assert cat.expectation("sqrt_drift", params, np.array([lam, lam]), t, x).tolist() == [
            0.0, 0.0]


def test_quadrature_over_a_lambda_array_is_one_integral_per_element():
    entry = cat.make_entry("bessel_drift", a=0.5, b=1.3)
    lams = np.array([0.0, 0.5, 2.0])
    got = cat.expectation(entry, None, lams, 0.9, 1.2)
    assert got.tolist() == [cat.expectation(entry, None, float(lam), 0.9, 1.2)
                            for lam in lams]


@pytest.mark.parametrize("method", ["closed", "quadrature"])
def test_a_bad_lambda_anywhere_in_an_array_is_a_domain_error(method):
    for lams in (np.array([0.5, math.nan, 1.0]), np.array([0.5, 1.0, math.inf])):
        with pytest.raises(DomainError):
            cat.expectation("besq", {"n": 3.0}, lams, 1.0, 1.0, method=method)
    for name, params in [("besq", {"n": 3.0}),
                         ("sqrt_drift", {"a": 1.5, "b": 0.8, "A": 1.2, "B": 0.6})]:
        with pytest.raises(DomainError):
            cat.expectation(name, params, np.array([0.5, -1e-3]), 1.0, 1.0, method="closed")


def test_a_non_finite_value_in_a_lambda_array_names_its_lambda():
    entry = dataclasses.replace(cat.make_entry("besq", n=3.0), expectation_closed=lambda lam, t, x:
                                np.where(lam > 1.0, np.inf, 0.5))
    with pytest.raises(EvalOverflowError, match="at lam=2.0"):
        cat.expectation(entry, None, np.array([0.5, 2.0]), 1.0, 1.0)


def test_rational_showcase_expectation_is_its_transform():
    # u0 = 1, so the transform identity's right-hand side is the expectation,
    # the Dirac-derivative atom contributing lam times its weight
    for params in WORKLOADS.POOL["rational_showcase"]:
        entry = cat.make_entry("rational_showcase", **params)
        for lam, t, x in _CLOSED_GRID:
            assert cat.expectation(entry, None, lam, t, x) == pytest.approx(
                cat.transform_rhs(entry, None, lam, t, x), rel=1e-13, abs=0.0)


def _mpmath_references():
    """perfbench/references.py: mpmath formulas that import nothing from
    feynkac. Loading it sets mpmath's global precision to 30 digits; that is
    undone here, and _reference_expectation sets it per call."""
    dps = mpmath.mp.dps
    module = _benchmark_module("references")
    mpmath.mp.dps = dps
    return module


REFERENCES = _mpmath_references()


def _reference_expectation(name, params, lam, t, x):
    """The mpmath value of the entry's expectation where references.py has a
    formula for it, else None. Its formulas hold for the process that is not
    killed at 0 (besq n >= 2, cir a >= sigma), and the scale (1 - e^-bt)/2b of
    cir and radial_ou loses log10(1/|bt|) of its 30 digits, which are added."""
    p = dict(params)
    if name == "besq" and not p.get("nu") and p["n"] >= 2.0:
        formula, args = REFERENCES.besq_laplace, (p["n"], lam, t, x, p.get("mu", 0.0))
    elif name == "bessel" and not p.get("mu"):
        formula, args = REFERENCES.bessel_laplace, (p["a"], lam, t, x)
    elif (name == "cir" and not p.get("mu") and not p.get("mu_lin")
          and p["a"] >= p["sigma"]):
        formula, args = REFERENCES.cir_laplace, (p["a"], p["b"], p["sigma"], lam, t, x)
    elif name == "radial_ou" and not p.get("mu"):
        formula, args = REFERENCES.radial_ou_laplace, (p["a"], p["b"], lam, t, x)
    else:
        return None
    lost = max(0, round(-math.log10(abs(p["b"] * t)))) if "b" in p else 0
    with mpmath.workdps(30 + lost):
        return float(formula(*args))


_WIDE_GRID = [(lam, t, x) for t in np.geomspace(1e-4, 50.0, 8)
              for x in np.geomspace(1e-6, 1e3, 8) for lam in (0.0, 1.0, 100.0)]


@pytest.mark.parametrize("member", [m for m in POOL if m[0] in WORKLOADS.CLOSED_FORM],
                         ids=_ids)
def test_closed_forms_on_the_wide_grid(member):
    # small t with large x, where a closed form that forms its exponent and
    # its Bessel factor separately overflows, and large t, where cosh and
    # sinh sums cancel
    name, params = member
    entry = cat.make_entry(name, **params)
    for lam, t, x in _WIDE_GRID:
        try:
            val = cat.expectation(entry, None, lam, t, x)
        except ConvergenceError:
            assert name == "sqrt_drift"  # its series gives up where terms cancel
            continue
        if name != "rational_showcase":
            assert 0.0 <= val <= 1.0 + 1e-12
        if lam == 0.0 and name in ("tanh_drift", "rational_drift") and not params.get("mu"):
            assert val == pytest.approx(1.0, abs=1e-14)  # no killing: the mass
        ref = _reference_expectation(name, params, lam, t, x)
        if ref is not None:
            assert val == pytest.approx(ref, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("fault", WORKLOADS.Points.FAULTS, ids=lambda f: f[0])
def test_benchmark_f3_inputs_give_the_mass(fault):
    # no killing and lam = 0: the expectation is the total mass 1
    name, params, t, x = fault
    assert cat.expectation(name, params, 0.0, t, x) == pytest.approx(1.0, abs=1e-12)


def _strength(hi):
    return st.one_of(st.just(0.0), st.floats(0.0, hi))


# validity regions of the closed-form entries; sqrt_drift's keeps its induced
# potential g >= 0 (A >= b^2/2, a - a^2/2 + B >= 0, b(a - 1/2) >= 0), where
# its expectation is at most 1 as the others' are
_REGIONS = {
    "besq": st.builds(lambda n, mu, nu: {"n": n, "mu": mu if n >= 2.0 else 0.0, "nu": nu},
                      st.floats(0.2, 6.0), _strength(2.0), _strength(2.0)),
    "bessel": st.fixed_dictionaries({"a": st.floats(0.55, 3.0), "mu": _strength(2.0)}),
    "cir": st.fixed_dictionaries({"a": st.floats(0.2, 2.0), "b": st.floats(0.2, 2.0),
                                  "sigma": st.floats(0.2, 2.0), "mu": _strength(1.0),
                                  "mu_lin": _strength(1.0)}),
    "rational_drift": st.fixed_dictionaries({"a": st.floats(0.1, 3.0),
                                             "mu": _strength(2.0)}),
    "tanh_drift": st.fixed_dictionaries({"mu": _strength(2.0)}),
    "radial_ou": st.fixed_dictionaries({"a": st.floats(0.55, 3.0),
                                        "b": st.floats(-2.0, 2.0), "mu": _strength(2.0)}),
    "rational_showcase": st.fixed_dictionaries({"a": st.floats(0.1, 3.0),
                                                "b": st.floats(0.1, 3.0)}),
    "sqrt_drift": st.fixed_dictionaries({"a": st.floats(0.5, 2.0), "b": st.floats(0.0, 1.0),
                                         "A": st.floats(0.5, 2.0), "B": st.floats(0.2, 2.0)}),
}


@pytest.mark.parametrize("name", sorted(_REGIONS))
def test_closed_form_values_keep_their_contract(name):
    # a finite value in [0, 1] (rational_showcase: any finite value) or a
    # FeynkacError, for Python floats and numpy scalars alike
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(params=_REGIONS[name], log_t=st.floats(-4.0, math.log10(50.0)),
           log_x=st.floats(-6.0, 3.0), lam=_strength(100.0),
           scalar=st.sampled_from([float, np.float64]))
    def check(params, log_t, log_x, lam, scalar):
        t, x, lam = scalar(10.0 ** log_t), scalar(10.0 ** log_x), scalar(lam)
        try:
            val = cat.expectation(name, params, lam, t, x)
        except ValidityError:  # b^2 + 4 mu is 0 (b^2 may underflow)
            assert name == "radial_ou" and params["mu"] == 0.0
            return
        except ConvergenceError:
            assert name == "sqrt_drift"
            return
        assert type(val) is float and math.isfinite(val)
        if name != "rational_showcase":
            assert 0.0 <= val <= 1.0 + 1e-12
        ref = _reference_expectation(name, params, lam, t, x)
        if ref is not None:
            assert val == pytest.approx(ref, rel=1e-12, abs=1e-300)

    check()


def test_generic_linear_kernel_specfun_calls_per_point(monkeypatch):
    # one branch: the Bessel core and y(x), y(y) of the gauge, one call each;
    # two branches: two cores, two I(zy) weights and two calls per y(.)
    counts = [0]
    _count_specfun_calls(monkeypatch, counts)
    for params, want in [({"sigma": 1.0, "A": 1.0, "B": -0.3}, 3),
                         ({"sigma": 0.8, "A": 1.5, "B": -0.2, "mu": 0.05,
                           "c1": 1.0, "c2": 0.7}, 8)]:
        entry = cat._build("generic_linear", params)  # built after the patch
        counts[0] = 0
        entry.kernel.continuous(0.7, 1.3, 0.9)
        assert counts[0] == want
