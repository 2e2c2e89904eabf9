"""Catalog of diffusions: kernels, boundary atoms, transforms, expectations.
Reference values come from independent routes: scipy.stats kernels,
elementary-function rewrites of half-integer Bessel cases, and direct
quadrature of the defining integrals."""

import math

import numpy as np
import pytest
import scipy.integrate as si
import scipy.stats as ss

from feynkac import catalog as cat
from feynkac.errors import (CapabilityError, ConvergenceError, DomainError,
                            EvalOverflowError, ValidityError)

T, X = 1.0, 1.0


# ---------------------------------------------------------------------------
# registry and manifest
# ---------------------------------------------------------------------------

def test_entry_names_sorted_and_complete():
    assert list(cat.ENTRY_NAMES) == sorted(cat.ENTRY_NAMES)
    assert len(cat.ENTRY_NAMES) == 11


def test_manifest_schema():
    m = cat.manifest()
    assert m["schema_version"] == 1
    assert [e["name"] for e in m["entries"]] == list(cat.ENTRY_NAMES)
    for e in m["entries"]:
        assert set(e) == {"name", "parameters", "validity"}
        assert isinstance(e["parameters"], list)
        assert isinstance(e["validity"], str) and e["validity"]


def test_make_entry_rejects_unknown_names_and_parameters():
    with pytest.raises(DomainError):
        cat.make_entry("nope")
    with pytest.raises(DomainError):
        cat.make_entry("besq", n=3.0, zz=1.0)


def test_make_entry_shares_one_entry_per_parameter_set():
    e1 = cat.make_entry("cir", a=1.1, b=0.8, sigma=0.6)
    e2 = cat.make_entry("cir", sigma=0.6, b=0.8, a=1.1)
    assert e1 is e2
    assert cat.make_entry("cir", a=1.1, b=0.8, sigma=0.7) is not e1


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


def test_entry_params_are_read_only():
    entry = cat.make_entry("besq", n=3.0)
    with pytest.raises(TypeError):
        entry.params["n"] = 5.0
    assert dict(entry.params) == {"n": 3.0, "mu": 0.0, "nu": 0.0}
    assert entry.params["n"] == 3.0
    assert cat.make_entry("besq", n=3.0).params["n"] == 3.0
    rows = cat.joint_laplace_in_mu(entry, None, 0.3, T, X, [0.0, 0.5])
    assert rows[0][1] == pytest.approx(0.4096281656329643, rel=1e-12)
    assert rows[1][1] < rows[0][1]


def test_closed_form_arithmetic_error_is_feynkac_error():
    # the tanh_drift closed form overflows math.cosh here
    with pytest.raises(EvalOverflowError):
        cat.expectation("tanh_drift", {}, 1.0, 1e-4, 1000.0)


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
    assert d1 == pytest.approx(d2, rel=1e-14)


# ---------------------------------------------------------------------------
# known kernel values
# ---------------------------------------------------------------------------

def test_squared_bessel_density_elementary_value():
    # n = 3: the Bessel factor of order 1/2 is elementary,
    #   p(1, 1, 1) = (1/2) e^{-1} sqrt(2/pi) sinh(1)
    ref = 0.5 * math.exp(-1.0) * math.sqrt(2.0 / math.pi) * math.sinh(1.0)
    assert ref == pytest.approx(0.17247565694412234, rel=1e-12)  # frozen
    assert cat.density("besq", {"n": 3.0}, 1.0, 1.0, 1.0) == pytest.approx(
        ref, rel=1e-13)


def test_squared_bessel_density_matches_noncentral_chi_square():
    # X_t / t is noncentral chi-square with df = n and noncentrality x/t
    for n in (2.0, 3.0, 4.5):
        for t, x, y in [(1.0, 1.0, 1.4), (0.5, 2.0, 0.3), (2.0, 0.7, 5.0)]:
            ref = ss.ncx2.pdf(y / t, df=n, nc=x / t) / t
            assert cat.density("besq", {"n": n}, t, x, y) == pytest.approx(
                ref, rel=1e-12)


def test_squared_bessel_log_density_consistent():
    lg = cat.density("besq", {"n": 3.0}, 0.5, 1.0, 2.0, log=True)
    assert math.exp(lg) == pytest.approx(
        cat.density("besq", {"n": 3.0}, 0.5, 1.0, 2.0), rel=1e-13)


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
    assert ref == pytest.approx(0.44282620111243914, rel=1e-12)  # frozen
    assert cat.expectation("besq", {"n": 2.0, "b": 1.0}, 0.0, 1.0, 1.0) \
        == pytest.approx(ref, rel=1e-12)


def test_cosh_weighted_companion_against_elementary_formula():
    # the cosh-weighted solution's total mass has the elementary closed form
    # sqrt(2t/(pi x)) e^{-x/(2t)} + erf(sqrt(x/(2t)))
    for t, x in [(1.0, 1.0), (0.5, 2.0), (2.0, 0.6)]:
        val, err = si.quad(lambda y: cat.besq_cosh_variant(t, x, y), 0.0,
                           np.inf, epsabs=1e-13, epsrel=1e-12, limit=400)
        ref = math.sqrt(2.0 * t / (math.pi * x)) * math.exp(-x / (2.0 * t)) \
            + math.erf(math.sqrt(x / (2.0 * t)))
        assert cat.besq_cosh_mass(t, x) == pytest.approx(ref, rel=1e-13)
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
        assert cat.rational_showcase_continuous_mass(a, b, t, x) \
            == pytest.approx(1.0 - defect, rel=1e-12)
        assert val == pytest.approx(1.0 - defect, rel=1e-8)
        # the derivative-order atom carries no mass, so the order-0 atom
        # alone makes up the defect
        atoms = sum(at.weight(t, x) for at in entry.kernel.atoms
                    if at.order == 0)
        assert atoms == pytest.approx(defect, rel=1e-12)


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
    val += sum(math.exp(-lam * at.location) * entry.u0(at.location)
               * at.weight(t, x) for at in entry.kernel.atoms if at.order == 0)
    assert val == pytest.approx(cat.transform_rhs("tanh_drift", {"mu": 0.4},
                                                  lam, t, x), rel=1e-9)


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
