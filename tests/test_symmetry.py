"""Symmetry-group layer: stationary solutions, the four orbit families, and
atom weights. Oracles: hand-expanded initial profiles, an explicit composition
rule for the group law, and finite-difference residuals of the underlying
evolution equation."""

import math

import numpy as np
import pytest
import scipy.special as sc

from feynkac import catalog as cat
from feynkac import symmetry as sym
from feynkac.errors import (CapabilityError, ConstructionError, DomainError)
from feynkac.riccati import (ZERO_POTENTIAL, DiffusionSpec, fit_riccati)
from feynkac.verify import residual_convergence_order

GRID = np.geomspace(0.2, 20.0, 24)


def _sq_bessel(n=3.0, **kw):
    e = cat.make_entry("besq", n=n, **kw)
    return e.diffusion, e.potential


def _tanh_pair(mu=0.4):
    e = cat.make_entry("tanh_drift", mu=mu)
    return e.diffusion, e.potential


# ---------------------------------------------------------------------------
# stationary solutions
# ---------------------------------------------------------------------------

def test_stationary_zero_potential_is_constant_one():
    diff, pot = _sq_bessel()
    u0 = sym.stationary_solution(diff, pot)
    for x in (0.3, 1.0, 7.0):
        assert u0(x) == pytest.approx(1.0, rel=1e-12)
        assert u0.log(x) == pytest.approx(0.0, abs=1e-12)


def test_stationary_solves_the_ode():
    # independent residual check with a second-order stencil, not the
    # validator baked into the constructor
    diff, pot = _tanh_pair()
    params = fit_riccati(diff, pot, GRID)
    for branch in ("principal", "secondary"):
        u0 = sym.stationary_solution(diff, pot, branch=branch, params=params)
        for x in (0.5, 1.0, 3.0):
            h = 1e-4 * x
            upp = (u0(x + h) - 2.0 * u0(x) + u0(x - h)) / (h * h)
            up = (u0(x + h) - u0(x - h)) / (2.0 * h)
            resid = diff.sigma * x ** diff.gamma * upp + diff.drift(x) * up \
                - pot(x) * u0(x)
            assert abs(resid) < 1e-5 * max(abs(u0(x)), 1e-3)


def test_stationary_branch_validation():
    diff, pot = _sq_bessel()
    with pytest.raises(DomainError):
        sym.stationary_solution(diff, pot, branch="third")


def test_secondary_linear_branch_is_the_k_bessel_solution():
    # sqrt_drift's pair: u0 = e^(-F/2) sqrt(x) K_w(sqrt(2 A x)), A = 1.2 the
    # entry's parameter, w = sqrt(1 + 2B)
    e = cat.make_entry("sqrt_drift", a=1.5, b=0.8, A=1.2, B=0.6)
    u0 = sym.stationary_solution(e.diffusion, e.potential, branch="secondary",
                                 params=e.riccati)
    w = math.sqrt(2.2)
    for x in (0.3, 1.0, 4.0, 25.0):
        want = math.exp(-0.5 * e.diffusion.F(x)) * math.sqrt(x) * sc.kv(w, math.sqrt(2.4 * x))
        assert u0(x) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("name,params", [
    ("besq", {"n": 3.0, "nu": 0.6}), ("bessel", {"a": 1.2, "mu": 0.8}),
    ("bessel_drift", {"a": 0.5, "b": 1e3}),
    ("sqrt_drift", {"a": 1.5, "b": 0.8, "A": 1e4, "B": 0.6})])
def test_catalog_stationary_solutions_are_the_unvalidated_branch(name, params):
    # the catalog takes u0 from stationary_branch, which does not run the
    # finite-difference check: at A = 1e4 it fails on a valid entry
    e = cat.make_entry(name, **params)
    u0 = sym.stationary_branch(e.diffusion, e.riccati, "principal")
    assert e.u0.description == u0.description
    for x in (0.3, 1.0, 2.0):
        assert e.u0.log(x) == u0.log(x)
    if name == "sqrt_drift":
        with pytest.raises(ConstructionError):
            sym.stationary_solution(e.diffusion, e.potential, params=e.riccati)


def test_stationary_rejects_wrong_profile():
    diff, pot = _tanh_pair()
    bogus = sym.StationarySolution(eval=lambda x: math.exp(-x),
                                   description="bogus")
    with pytest.raises(ConstructionError):
        bogus.validate(diff, pot)


# ---------------------------------------------------------------------------
# generalized-Laplace scaling orbit (gamma != 2)
# ---------------------------------------------------------------------------

def test_laplace_scaling_initial_profile():
    # at t = 0 the orbit must reduce to exp(-lam*x^(2-gamma)) * u0(x) exactly
    diff, pot = _sq_bessel()
    u0 = sym.stationary_solution(diff, pot)
    ls = sym.laplace_scaling_symmetry(diff, pot, u0, A=0.0)
    for lam in (0.2, 1.0, 4.0):
        for x in (0.4, 1.0, 2.7):
            assert ls(lam, x, 0.0) == pytest.approx(
                math.exp(-lam * x ** (2.0 - diff.gamma)) * u0(x), rel=1e-13)


def test_laplace_scaling_matches_catalog_transform():
    # the closed-form transform of the killing-free squared-Bessel entry is
    # exactly this orbit
    diff, pot = _sq_bessel()
    u0 = sym.stationary_solution(diff, pot)
    ls = sym.laplace_scaling_symmetry(diff, pot, u0, A=0.0)
    for lam in (0.3, 1.5):
        for t in (0.25, 1.0):
            for x in (0.5, 2.0):
                assert ls(lam, x, t) == pytest.approx(
                    cat.transform_rhs("besq", {"n": 3.0}, lam, t, x), rel=1e-12)


def test_laplace_scaling_group_law_is_additive():
    # Composition oracle: the group acts by x -> x/(1+4*eps*t)^(2/q),
    # t -> t/(1+4*eps*t) with a multiplier; applying eps1 then eps2 must agree
    # with a single application of eps1+eps2. The parameter composes
    # additively, with no correction in eps1*eps2.
    diff, pot = _sq_bessel()
    u0 = sym.stationary_solution(diff, pot)
    ls = sym.laplace_scaling_symmetry(diff, pot, u0, A=0.0)
    g, s = diff.gamma, diff.sigma
    q = 2.0 - g

    def lam_of(eps):
        return eps / (0.25 * s * q * q)

    def composed(e1, e2, x, t):
        den = 1.0 + 4.0 * e1 * t
        xbar, tbar = x / den ** (2.0 / q), t / den
        return ls(lam_of(e1), x, t) / u0(xbar) * ls(lam_of(e2), xbar, tbar)

    for e1, e2, x, t in [(0.3, 0.5, 1.2, 0.7), (0.1, 0.9, 2.0, 0.4),
                         (-0.05, 0.25, 0.6, 1.3)]:
        assert composed(e1, e2, x, t) == pytest.approx(
            ls(lam_of(e1 + e2), x, t), rel=1e-12)


def test_laplace_scaling_domain_errors():
    diff, pot = _sq_bessel()
    u0 = sym.stationary_solution(diff, pot)
    ls = sym.laplace_scaling_symmetry(diff, pot, u0, A=0.0)
    with pytest.raises(DomainError):
        ls(1.0, -1.0, 0.5)
    with pytest.raises(DomainError):
        ls(-3.0, 1.0, 5.0)  # 1 + 4*eps*t <= 0


def test_laplace_scaling_solves_the_pde():
    diff, pot = _sq_bessel()
    u0 = sym.stationary_solution(diff, pot)
    ls = sym.laplace_scaling_symmetry(diff, pot, u0, A=0.0)
    order = residual_convergence_order(lambda x, t: ls(0.8, x, t),
                                       diff, pot, 1.3, 0.6)
    assert order == pytest.approx(2.0, abs=0.2)


# ---------------------------------------------------------------------------
# log scaling orbit (gamma = 2)
# ---------------------------------------------------------------------------

def _log_family_setup(c=0.7, sigma=0.5):
    diff = DiffusionSpec(gamma=2.0, sigma=sigma, drift=lambda x: c * x,
                         drift_derivative=lambda x: c,
                         drift_antiderivative=lambda x: c * math.log(x))
    params = fit_riccati(diff, ZERO_POTENTIAL, GRID)
    u0 = sym.StationarySolution(eval=lambda x: 1.0, log_eval=lambda x: 0.0,
                                description="constant 1")
    return diff, params, u0


def test_log_scaling_initial_profile():
    diff, params, u0 = _log_family_setup()
    ls = sym.log_scaling_symmetry(diff, ZERO_POTENTIAL, u0, A=params.A)
    for eps in (0.3, 1.1):
        for x in (0.5, 1.8, 4.0):
            assert ls(eps, x, 0.0) == pytest.approx(
                math.exp(-(eps / diff.sigma) * math.log(x) ** 2), rel=1e-13)


def test_log_scaling_solves_the_pde():
    diff, params, u0 = _log_family_setup()
    ls = sym.log_scaling_symmetry(diff, ZERO_POTENTIAL, u0, A=params.A)
    order = residual_convergence_order(lambda x, t: ls(0.6, x, t),
                                       diff, ZERO_POTENTIAL, 1.3, 0.6)
    assert order == pytest.approx(2.0, abs=0.2)


def test_log_scaling_requires_gamma_two():
    diff, pot = _sq_bessel()
    u0 = sym.stationary_solution(diff, pot)
    with pytest.raises(CapabilityError):
        sym.log_scaling_symmetry(diff, pot, u0, A=0.0)
    with pytest.raises(CapabilityError):
        sym.laplace_scaling_symmetry(*(_log_family_setup()[:1] * 1),
                                     ZERO_POTENTIAL, u0, A=0.0)


# ---------------------------------------------------------------------------
# exponential scaling orbit (gamma = 1, quadratic family)
# ---------------------------------------------------------------------------

def test_exp_scaling_orbits_solve_the_pde():
    diff, pot = _tanh_pair()
    params = fit_riccati(diff, pot, GRID)
    for branch in ("principal", "secondary"):
        u0 = sym.stationary_solution(diff, pot, branch=branch, params=params)
        es = sym.exp_scaling_symmetry(diff, pot, u0, params)
        order = residual_convergence_order(lambda x, t: es(0.5, x, t),
                                           diff, pot, 1.1, 0.5)
        assert order == pytest.approx(2.0, abs=0.2)


def test_exp_scaling_detects_the_invariant_branch():
    # the growing-exponential stationary branch
    #   u0(x) = x^(B/(2 s sqrt(A))) * exp((sqrt(A)*x - F(x)) / (2 s))
    # is a fixed point of the group: multiplier and argument shift cancel
    # exactly. Its orbit therefore carries no boundary atom.
    diff, pot = _tanh_pair()
    params = fit_riccati(diff, pot, GRID)
    s, rA = diff.sigma, math.sqrt(params.A)

    def log_u0(x):
        return (params.B / (2.0 * s * rA) * math.log(x)
                + (rA * x - diff.F(x)) / (2.0 * s))

    u0 = sym.StationarySolution(eval=lambda x: math.exp(log_u0(x)),
                                log_eval=log_u0,
                                description="growing exponential branch")
    u0.validate(diff, pot)
    es = sym.exp_scaling_symmetry(diff, pot, u0, params)
    assert es.invariant
    for eps, x, t in [(0.4, 1.3, 0.8), (-0.2, 0.7, 1.5)]:
        assert es(eps, x, t) == pytest.approx(u0(x), rel=1e-12)
    with pytest.raises(CapabilityError):
        sym.atom_weight(diff, pot, u0, params)


def test_atom_weight_vanishes_at_time_zero():
    diff, pot = _tanh_pair()
    params = fit_riccati(diff, pot, GRID)
    u0 = sym.stationary_solution(diff, pot, branch="secondary", params=params)
    es = sym.exp_scaling_symmetry(diff, pot, u0, params)
    assert not es.invariant
    w = sym.atom_weight(diff, pot, u0, params)
    assert w(1.0, 1.0) > 0.0
    assert w(1.0, 1e-3) < 1e-10
    assert w(1.0, 1e-2) < w(1.0, 1e-1) < w(1.0, 1.0)


def test_exp_scaling_requires_quadratic_with_positive_leading_constant():
    diff, pot = _sq_bessel()
    u0 = sym.stationary_solution(diff, pot)
    params = fit_riccati(diff, pot, GRID)
    assert params.family == "linear"
    from feynkac.riccati import RiccatiParams
    with pytest.raises(CapabilityError):
        sym.exp_scaling_symmetry(diff, pot, u0,
                                 RiccatiParams("quadratic", A=0.0, B=0.0))


# ---------------------------------------------------------------------------
# transform right-hand sides from the orbits
# ---------------------------------------------------------------------------

def test_stationary_solutions_carry_their_gauge_part():
    # u0 = exp(log_gauge - F/(2 sigma)) for each family's constructor
    for diff, pot, branch in [(*_sq_bessel(nu=0.4), "principal"),
                              (*_tanh_pair(), "secondary")]:
        u0 = sym.stationary_solution(diff, pot, branch=branch)
        for x in (0.5, 1.3, 4.0):
            assert u0.log(x) == pytest.approx(
                u0.log_gauge(x) - diff.F(x) / (2.0 * diff.sigma), rel=1e-14, abs=1e-14)


def test_orbit_transform_starts_from_the_laplace_weight():
    # t = 0: exp(-lam*x^(2-gamma)) u0(x), for a linear-family gauge part and
    # for the decaying exponential branch of the quadratic family
    besq = cat.make_entry("besq", n=3.0, nu=0.4)
    tanh = cat.make_entry("tanh_drift", mu=0.4)
    for e in (besq, tanh):
        rhs = sym.orbit_transform(e.diffusion, e.u0, e.riccati)
        q = 2.0 - e.diffusion.gamma
        for lam in (0.0, 0.3, 2.5):
            for x in (0.4, 1.0, 2.7):
                assert rhs(lam, 0.0, x) == pytest.approx(
                    math.exp(-lam * x ** q) * e.u0(x), rel=1e-13)


def test_orbit_transform_without_a_fitted_stationary_gauge():
    # a u0 without log_gauge is moved as log u0 + F/(2 sigma)
    e = cat.make_entry("besq", n=3.0)
    bare = sym.StationarySolution(eval=e.u0.eval, description="bare")
    rhs = sym.orbit_transform(e.diffusion, bare, e.riccati)
    for lam, t, x in [(0.3, 0.25, 0.5), (1.5, 1.0, 2.0)]:
        assert rhs(lam, t, x) == pytest.approx(e.transform_rhs(lam, t, x), rel=1e-14)


def test_orbit_transform_rejects_what_it_cannot_derive():
    diff, pot = _tanh_pair()
    params = fit_riccati(diff, pot, GRID)
    kummer = sym.stationary_solution(diff, pot, branch="principal", params=params)
    with pytest.raises(CapabilityError):  # its exp_scaling orbit is not Laplace-type
        sym.orbit_transform(diff, kummer, params)
    from feynkac.riccati import RiccatiParams
    with pytest.raises(CapabilityError):
        sym.orbit_transform(diff, kummer, RiccatiParams("log_linear", A=1.0, B=0.0))


# ---------------------------------------------------------------------------
# the Bessel core of the kernel from the drift-equation constants
# ---------------------------------------------------------------------------

def test_bessel_core_reads_the_kernel_from_the_constants():
    # cir (quadratic family) and the Bessel process (linear family, gamma =
    # 0) against their textbook index, scale, rate and growth; the declared
    # constants are those fit_riccati recovers
    a, b, s, mu, mu_lin = 1.1, 0.8, 0.6, 0.5, 0.3
    cir = cat.make_entry("cir", a=a, b=b, sigma=s, mu=mu, mu_lin=mu_lin)
    got = sym.bessel_core(cir.diffusion, fit_riccati(cir.diffusion, cir.potential, GRID))
    want = (math.sqrt((a - s) ** 2 + 4.0 * mu * s) / s, 1.0 / s,
            0.5 * math.sqrt(b * b + 4.0 * s * mu_lin), a * b / (2.0 * s), 1.0)
    assert got == pytest.approx(want, rel=1e-9)
    bessel = cat.make_entry("bessel", a=1.2, mu=0.6)
    nu = math.sqrt(0.5 * 0.6 + 0.7 ** 2)
    assert sym.bessel_core(bessel.diffusion, bessel.riccati) == pytest.approx(
        (nu, 0.5, 0.0, 0.0, 2.0), rel=1e-15)
    assert sym.bessel_core(bessel.diffusion, bessel.riccati, -1.0)[0] == -sym.bessel_core(
        bessel.diffusion, bessel.riccati)[0]


def test_bessel_core_requirements():
    from feynkac.riccati import RiccatiParams
    diff, params, _ = _log_family_setup()
    with pytest.raises(CapabilityError):  # gamma = 2: the log families
        sym.bessel_core(diff, params)
    cir = cat.make_entry("cir", a=1.1, b=0.8, sigma=0.6)
    for bad in (RiccatiParams("linear", A=0.0, B=-1.0),  # complex index
                RiccatiParams("quadratic", A=-1.0, B=0.0),
                RiccatiParams("quadratic_sqrt", A=1.0, B=0.0)):
        with pytest.raises(CapabilityError):
            sym.bessel_core(cir.diffusion, bad)


# ---------------------------------------------------------------------------
# Kummer-function orbit of the exponential scaling group
# ---------------------------------------------------------------------------

def _cir_pair():
    e = cat.make_entry("cir", a=1.1, b=0.8, sigma=0.6)
    return e.diffusion, e.potential


def test_exp_kummer_orbit_solves_the_pde():
    diff, pot = _cir_pair()
    params = fit_riccati(diff, pot, GRID)
    ek = sym.exp_kummer_symmetry(diff, params)
    # eps = 0 makes the orbit time-independent (the residual is then pure
    # roundoff), so only moving orbits give a meaningful order estimate
    for eps in (0.4, -0.3):
        order = residual_convergence_order(lambda x, t: ek(eps, x, t),
                                           diff, pot, 1.1, 0.5)
        assert order == pytest.approx(2.0, abs=0.2)


def test_exp_kummer_reduces_to_stationary_branch_at_zero():
    # eps = 0, t = 0 is the Tricomi-type stationary profile itself; it solves
    # the stationary ODE
    diff, pot = _cir_pair()
    params = fit_riccati(diff, pot, GRID)
    ek = sym.exp_kummer_symmetry(diff, params)
    for x in (0.6, 1.3, 3.0):
        h = 1e-4 * x
        u = lambda y: ek(0.0, y, 0.0)
        upp = (u(x + h) - 2.0 * u(x) + u(x - h)) / (h * h)
        up = (u(x + h) - u(x - h)) / (2.0 * h)
        resid = diff.sigma * x ** diff.gamma * upp + diff.drift(x) * up \
            - pot(x) * u(x)
        assert abs(resid) < 1e-5 * max(abs(u(x)), 1e-3)


def test_exp_kummer_requirements():
    diff, pot = _sq_bessel()
    params = fit_riccati(diff, pot, GRID)  # linear family, A = 0
    from feynkac.riccati import RiccatiParams
    with pytest.raises(CapabilityError):
        sym.exp_kummer_symmetry(diff, RiccatiParams("quadratic", A=0.0, B=0.0))


# ---------------------------------------------------------------------------
# residual helper
# ---------------------------------------------------------------------------

def test_pde_residual_flags_non_solutions():
    diff, pot = _sq_bessel()
    u0 = sym.stationary_solution(diff, pot)
    ls = sym.laplace_scaling_symmetry(diff, pot, u0, A=0.0)
    good = sym.pde_residual(lambda x, t: ls(0.8, x, t), diff, pot, 1.3, 0.6)
    bad = sym.pde_residual(lambda x, t: math.exp(-0.8 * x - t * t), diff, pot,
                           1.3, 0.6)
    assert abs(good) < 1e-5
    assert abs(bad) > 1e-2
