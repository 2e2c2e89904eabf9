"""Special-function layer: frozen series/integral oracles plus identity
properties. Every reference value below is computed by a routine that shares
no code path with the implementation under test."""

import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.integrate as si
import scipy.special as sc
from hypothesis import given, settings, strategies as st

from feynkac import specfun as sf
from feynkac.errors import (ConvergenceError, DomainError, EvalOverflowError,
                            PoleError)


# ---------------------------------------------------------------------------
# oracles (frozen; independent of scipy.special wrappers)
# ---------------------------------------------------------------------------

def oracle_bessel_i_series(nu: float, z: float, terms: int = 60) -> float:
    """Ascending series I_nu(z) = sum_k (z/2)^(nu+2k) / (k! Gamma(nu+k+1))."""
    total = 0.0
    for k in range(terms):
        lg = (nu + 2 * k) * math.log(z / 2.0) - math.lgamma(k + 1) \
            - math.lgamma(nu + k + 1)
        total += math.exp(lg)
    return total


def oracle_bessel_k0_integral(z: float) -> float:
    """K_0(z) = integral_0^inf exp(-z cosh(u)) du."""
    val, err = si.quad(lambda u: math.exp(-z * math.cosh(u)), 0.0, 30.0,
                       epsabs=1e-14, epsrel=1e-13, limit=200)
    assert err < 1e-12
    return val


def oracle_1f1_series(a: float, b: float, z: float, terms: int = 120) -> float:
    """Ascending series of the confluent hypergeometric function."""
    term, total = 1.0, 1.0
    for k in range(terms):
        term *= (a + k) * z / ((b + k) * (k + 1))
        total += term
    return total


def oracle_tricomi_integral(a: float, b: float, z: float) -> float:
    """U(a, b, z) = (1/Gamma(a)) integral_0^inf e^{-z u} u^{a-1} (1+u)^{b-a-1} du
    for a > 0, z > 0."""
    val, err = si.quad(
        lambda u: math.exp(-z * u + (a - 1.0) * math.log(u)
                           + (b - a - 1.0) * math.log1p(u)),
        0.0, np.inf, epsabs=1e-14, epsrel=1e-13, limit=400)
    assert err < 1e-11
    return val / math.gamma(a)


def oracle_erf_series(x: float, terms: int = 50) -> float:
    total = 0.0
    for k in range(terms):
        total += (-1) ** k * x ** (2 * k + 1) / (math.factorial(k) * (2 * k + 1))
    return total * 2.0 / math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# Bessel I / K
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("nu,z", [(0.0, 0.3), (0.5, 1.7), (1.0, 2.4),
                                  (2.75, 0.9), (4.0, 5.0)])
def test_bessel_i_against_series_oracle(nu, z):
    ref = oracle_bessel_i_series(nu, z)
    assert sf.bessel_i(nu, z) == pytest.approx(ref, rel=1e-13)
    assert sf.log_bessel_i(nu, z) == pytest.approx(math.log(ref), rel=1e-13)
    assert sf.bessel_i(nu, z, scaled=True) == pytest.approx(ref * math.exp(-z),
                                                            rel=1e-13)


@pytest.mark.parametrize("z", [0.4, 1.0, 3.2])
def test_bessel_k0_against_integral_oracle(z):
    assert sf.bessel_k(0.0, z) == pytest.approx(oracle_bessel_k0_integral(z),
                                                rel=1e-12)


def test_bessel_i_half_closed_form():
    # I_{1/2}(z) = sqrt(2/(pi z)) sinh(z)
    z = 1.3
    ref = math.sqrt(2.0 / (math.pi * z)) * math.sinh(z)
    assert sf.bessel_i(0.5, z) == pytest.approx(ref, rel=1e-14)


def test_log_bessel_i_large_argument_finite_and_asymptotic():
    # I_nu(z) ~ e^z / sqrt(2 pi z) for z >> nu^2
    for z in (1e3, 1e6):
        lg = sf.log_bessel_i(0.7, z)
        assert math.isfinite(lg)
        assert lg == pytest.approx(z - 0.5 * math.log(2 * math.pi * z), rel=1e-6)


@pytest.mark.parametrize("z", [2e9, 1e10, 1e14])
@pytest.mark.parametrize("nu", [0.0, 0.1, -0.3, 2.5, 30.0])
def test_bessel_i_beyond_scipy_range_against_mpmath(nu, z):
    # scipy's ive returns NaN from about z = 1e9 on; densities at small t
    # and large x reach such arguments
    with mpmath.workdps(30):
        ref = mpmath.besseli(nu, z)
        scaled_ref = float(ref * mpmath.exp(-z))
        log_ref = float(mpmath.log(ref))
    assert sf.bessel_i(nu, z, scaled=True) == pytest.approx(scaled_ref, rel=1e-14)
    assert sf.log_bessel_i(nu, z) == pytest.approx(log_ref, rel=1e-15)


@pytest.mark.parametrize("z", [2e9, 1e10, 1e14])
@pytest.mark.parametrize("nu", [0.0, 0.1, 2.5, 30.0])
def test_bessel_k_beyond_scipy_range_against_mpmath(nu, z):
    # scipy's kve returns NaN from about z = 1e9 on, as its ive does
    with mpmath.workdps(30):
        ref = float(mpmath.besselk(nu, z) * mpmath.exp(z))
    assert sf.bessel_k(nu, z, scaled=True) == pytest.approx(ref, rel=1e-14)
    got = sf.bessel_k(nu, np.array([1.0, z]), scaled=True)
    assert got[0] == sf.bessel_k(nu, 1.0, scaled=True)
    assert got[1] == pytest.approx(ref, rel=1e-14)


def test_bessel_i_failure_beyond_scipy_range_raises():
    # the large-argument series does not settle when nu^2 is comparable to z
    with pytest.raises(ConvergenceError):
        sf.bessel_i(1e6, 2e9, scaled=True)
    with pytest.raises(ConvergenceError):
        sf.log_bessel_i(1e6, 2e9)


@pytest.mark.parametrize("nu,z", [(0.0, 1e-3), (0.7, 2.5), (2.5, 40.0),
                                  (-0.3, 7.0), (30.0, 1e4), (0.1, 1e10),
                                  (300.0, 1e-6), (300.0, 10.0), (1000.0, 100.0)])
def test_log_bessel_ive_against_mpmath(nu, z):
    # the scaled log is read directly, never as log I_nu(z) - z, so it
    # keeps its relative accuracy where z dwarfs it; at (300, 10) and
    # (1000, 100) e^-z I_nu(z) underflows and the whole series is summed
    with mpmath.workdps(40):
        ref = float(mpmath.log(mpmath.besseli(nu, z)) - z)
    assert sf.log_bessel_ive(nu, z) == pytest.approx(ref, rel=1e-13)
    assert sf.log_bessel_i(nu, z) == sf.log_bessel_ive(nu, z) + z


@pytest.mark.parametrize("nu,z", [(0.6324555320336759, 4.0), (0.3, 2.8),
                                  (-0.63, 8.0)])
def test_scaled_bessel_i_at_non_integer_order_against_mpmath(nu, z):
    # scipy's ive is off by up to 6e-14 here; kernels use these values
    with mpmath.workdps(40):
        ref = mpmath.besseli(nu, z) * mpmath.exp(-z)
        log_ref = float(mpmath.log(ref))
        ref = float(ref)
    assert sf.bessel_i(nu, z, scaled=True) == pytest.approx(ref, rel=4e-15)
    assert sf.log_bessel_ive(nu, z) == pytest.approx(log_ref, abs=4e-15)


def test_log_bessel_i_at_zero():
    assert sf.log_bessel_i(0.0, 0.0) == 0.0
    assert sf.log_bessel_i(2.0, 0.0) == -math.inf
    with pytest.raises(DomainError):
        sf.log_bessel_i(-0.5, 0.0)


def test_bessel_domain_and_overflow_errors():
    with pytest.raises(DomainError):
        sf.bessel_i(1.0, -1.0)
    with pytest.raises(DomainError):
        sf.bessel_k(1.0, 0.0)
    with pytest.raises(EvalOverflowError):
        sf.bessel_i(0.0, 1e4)
    assert math.isfinite(sf.bessel_i(0.0, 1e4, scaled=True))


@settings(max_examples=60, deadline=None)
@given(nu=st.floats(0.25, 6.0), z=st.floats(0.05, 40.0))
def test_bessel_i_three_term_recurrence(nu, z):
    # I_{nu-1}(z) - I_{nu+1}(z) = (2 nu / z) I_nu(z)
    lhs = sf.bessel_i(nu - 1.0, z, scaled=True) - sf.bessel_i(nu + 1.0, z, scaled=True)
    rhs = 2.0 * nu / z * sf.bessel_i(nu, z, scaled=True)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-14)


@settings(max_examples=60, deadline=None)
@given(nu=st.floats(0.0, 5.0, allow_subnormal=False), z=st.floats(0.1, 30.0))
def test_bessel_wronskian(nu, z):
    # I_nu(z) K_{nu+1}(z) + I_{nu+1}(z) K_nu(z) = 1/z, in scaled variables
    lhs = (sf.bessel_i(nu, z, scaled=True) * sf.bessel_k(nu + 1.0, z, scaled=True)
           + sf.bessel_i(nu + 1.0, z, scaled=True) * sf.bessel_k(nu, z, scaled=True))
    assert lhs == pytest.approx(1.0 / z, rel=1e-12)


# ---------------------------------------------------------------------------
# confluent hypergeometric pair
# ---------------------------------------------------------------------------

def test_1f1_special_value():
    # 1F1(1, 2, z) = (e^z - 1)/z
    assert sf.hypergeom_1f1(1.0, 2.0, 2.0) == pytest.approx(
        (math.e ** 2 - 1.0) / 2.0, rel=1e-14)


@pytest.mark.parametrize("a,b,z", [(0.75, 1.5, 0.9), (2.2, 3.7, -1.4),
                                   (1.3, 0.4, 2.5)])
def test_1f1_against_series_oracle(a, b, z):
    assert sf.hypergeom_1f1(a, b, z) == pytest.approx(
        oracle_1f1_series(a, b, z), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(a=st.floats(0.2, 3.0), b=st.floats(0.5, 5.0), z=st.floats(-8.0, 8.0))
def test_1f1_kummer_transform(a, b, z):
    # 1F1(a, b, z) = e^z 1F1(b-a, b, -z)
    lhs = sf.hypergeom_1f1(a, b, z)
    rhs = math.exp(z) * sf.hypergeom_1f1(b - a, b, -z)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


def test_1f1_pole_at_nonpositive_integer_b():
    with pytest.raises(PoleError):
        sf.hypergeom_1f1(1.0, 0.0, 1.0)
    with pytest.raises(PoleError):
        sf.hypergeom_1f1(1.0, -2.0, 1.0)


def test_tricomi_against_integral_oracle():
    a, b, z = 0.7, 1.3, 2.0
    assert sf.tricomi_u(a, b, z) == pytest.approx(
        oracle_tricomi_integral(a, b, z), rel=1e-11)


def test_tricomi_power_law_special_case():
    # U(a, a+1, z) = z^{-a}
    assert sf.tricomi_u(1.5, 2.5, 3.0) == pytest.approx(3.0 ** -1.5, rel=1e-12)


# ---------------------------------------------------------------------------
# Whittaker pair
# ---------------------------------------------------------------------------

def test_whittaker_m_kummer_reduction():
    # M_{k,m}(z) = e^{-z/2} z^{m+1/2} 1F1(m - k + 1/2, 1 + 2m, z), with the
    # right side assembled from the frozen series oracle.
    k, m, z = 0.3, 0.8, 1.7
    ref = math.exp(-z / 2.0) * z ** (m + 0.5) * oracle_1f1_series(
        m - k + 0.5, 1.0 + 2.0 * m, z)
    assert sf.whittaker_m(k, m, z) == pytest.approx(ref, rel=1e-12)


def test_whittaker_w_large_z_asymptotic():
    # W_{k,m}(z) ~ e^{-z/2} z^k as z -> inf
    k, m, z = 0.4, 1.1, 80.0
    assert sf.whittaker_w(k, m, z) == pytest.approx(
        math.exp(-z / 2.0) * z ** k, rel=1e-2)


def test_whittaker_w_integral_oracle():
    # W_{k,m}(z) = e^{-z/2} z^k / Gamma(m - k + 1/2)
    #              * integral_0^inf e^{-u} u^{m-k-1/2} (1 + u/z)^{m+k-1/2} du
    k, m, z = -0.2, 0.9, 2.6
    val, err = si.quad(
        lambda u: math.exp(-u + (m - k - 0.5) * math.log(u)
                           + (m + k - 0.5) * math.log1p(u / z)),
        0.0, np.inf, epsabs=1e-14, epsrel=1e-13, limit=400)
    assert err < 1e-11
    ref = math.exp(-z / 2.0) * z ** k * val / math.gamma(m - k + 0.5)
    assert sf.whittaker_w(k, m, z) == pytest.approx(ref, rel=1e-11)


def test_whittaker_w_and_tricomi_u_take_arrays():
    # the verify quadrature evaluates them on whole node arrays; z = 103 at
    # (0.9167, 0.4167) takes the Kummer fallback. A float runs the array code
    z = np.concatenate([np.geomspace(1e-6, 800.0, 31), [103.0]])
    for k, m in [(-0.2, 0.9), (0.3, 0.4), (1.3, 0.25), (0.9167, 0.4167)]:
        _same_each(sf.whittaker_w, (k, m), z)
        _same_each(sf.tricomi_u, (m - k + 0.5, 1.0 + 2.0 * m), z)
    for fn in (sf.whittaker_w, sf.tricomi_u):
        with pytest.raises(DomainError):
            fn(0.5, 1.3, np.array([1.0, 0.0]))
        with pytest.raises(DomainError):
            fn(0.5, 1.3, np.array([1.0, np.nan]))
        with pytest.raises(DomainError):
            fn(np.nan, 1.3, np.array([1.0]))


def test_tricomi_u_where_scipy_is_nan_at_a_first_parameter_of_rounding_size():
    # hyperu(5.55e-17, 1.8334, 103) is NaN in scipy, so whittaker_w(0.9167,
    # 0.4167, 103), whose first Tricomi parameter m - k + 1/2 is that
    # rounding, raised ConvergenceError; Kummer's transformation is finite
    a, b, z = 0.4167 - 0.9167 + 0.5, 1.8334, 103.0
    assert 0.0 < a < 1e-16 and math.isnan(sc.hyperu(a, b, z))
    with mpmath.workdps(30):
        ref = float(mpmath.hyperu(a, b, z))
        ref_w = float(mpmath.whitw(0.9167, 0.4167, z))
    assert sf.tricomi_u(a, b, z) == pytest.approx(ref, rel=1e-14)
    assert sf.whittaker_w(0.9167, 0.4167, z) == pytest.approx(ref_w, rel=1e-13)
    zs = np.array([5.0, z])
    assert sf.tricomi_u(a, b, zs)[1] == sf.tricomi_u(a, b, z)
    assert sf.tricomi_u(a, b, zs)[0] == sf.tricomi_u(a, b, 5.0)
    assert sf.whittaker_w(0.9167, 0.4167, zs)[1] == pytest.approx(ref_w, rel=1e-13)


# ---------------------------------------------------------------------------
# gamma_ln, erf, and the Laplace-Bessel moment
# ---------------------------------------------------------------------------

def test_gamma_ln_and_erf():
    assert sf.gamma_ln(5.0) == pytest.approx(math.log(24.0), rel=1e-15)
    with pytest.raises(DomainError):
        sf.gamma_ln(0.0)
    for x in (0.3, 1.0, 2.5):
        assert sf.erf(x) == pytest.approx(oracle_erf_series(x), rel=1e-13)


@pytest.mark.parametrize("p,nu,s,c", [(0.0, 0.5, 1.2, 0.7),
                                      (1.5, 2.0, 0.8, 1.3),
                                      (-0.4, 1.0, 2.0, 0.2),
                                      (0.5, 0.0, 1.0, 3.0)])
def test_laplace_bessel_moment_against_quadrature(p, nu, s, c):
    val, err = si.quad(
        lambda y: math.exp(-s * y + sf.log_bessel_i(nu, 2.0 * c * math.sqrt(y))
                           + p * math.log(y)),
        0.0, np.inf, epsabs=1e-13, epsrel=1e-12, limit=400)
    assert err < 1e-9 * max(1.0, abs(val))
    assert sf.laplace_bessel_moment(p, nu, s, c) == pytest.approx(val, rel=1e-10)


def test_laplace_bessel_moment_large_argument_stable():
    # c^2/s large enough that the 1F1 factor alone overflows a double while
    # the moment itself is still representable: the Kummer-transform fallback
    # must kick in. Reference from arbitrary-precision arithmetic.
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    for p, nu, s, c in [(5.0, 0.0, 50.0, 185.0), (0.0, 1.0, 40.0, 160.0)]:
        q = p + 0.5 * nu + 1.0
        w = c * c / s
        ref = float(mp.mpf(c) ** nu * mp.gamma(q)
                    / (mp.gamma(nu + 1.0) * mp.mpf(s) ** q)
                    * mp.hyp1f1(q, nu + 1.0, w))
        assert sf.laplace_bessel_moment(p, nu, s, c) == pytest.approx(ref, rel=1e-10)


def test_laplace_bessel_moment_overflow_error():
    with pytest.raises(EvalOverflowError):
        sf.laplace_bessel_moment(0.0, 1.0, 0.05, 8.0)


def test_laplace_bessel_moment_domain_errors():
    with pytest.raises(DomainError):
        sf.laplace_bessel_moment(0.0, 0.5, -1.0, 1.0)
    with pytest.raises(DomainError):
        sf.laplace_bessel_moment(0.0, 0.5, 1.0, -1.0)
    with pytest.raises(DomainError):
        sf.laplace_bessel_moment(-2.0, 0.5, 1.0, 1.0)
    with pytest.raises(PoleError):
        sf.laplace_bessel_moment(1.0, -2.0, 1.0, 1.0)


@pytest.mark.parametrize("a,b,z", [(0.5, 1.5, -3.0), (-2.3, 2.0, -30.0), (0.35, 3.1, -1e4),
                                   (1.0, 2.0, -1e8), (0.0, 2.5, -1e6), (2.2, 1.7, 900.0),
                                   (0.75, 2.5, 5e4)])
def test_log_hypergeom_1f1_against_mpmath(a, b, z):
    # 1F1 overflows double precision from z of about 700 on; its log does not
    with mpmath.workdps(40):
        ref = float(mpmath.log(mpmath.hyp1f1(a, b, z)))
    assert sf.log_hypergeom_1f1(a, b, z) == pytest.approx(ref, rel=1e-13, abs=1e-14)


@pytest.mark.parametrize("a,b,z", [
    (0.339, 1.929, -5e199),      # scipy: NaN, and Kummer's transform ran without end
    (0.339, 1.929, -1e180),      # scipy: 0
    (-20.3, 1.5, -3e6), (2.2, 1.7, 4e7), (0.75, 2.5, -2.0 ** 20),
    (-3.0, 1.5, 1e12),           # a polynomial (DLMF 13.2.7), negative: DomainError
    (4.0, 1.5, -1e12),           # Gamma(b - a) < 0, so 1F1 < 0: DomainError
    (3.5, 1.5, -1e9),            # b - a = -2: e^z times a polynomial
    (1.5, 1.5, -1e7)])           # e^z: scipy took 78 ms, 7.8 s at -1e12
def test_log_hypergeom_1f1_at_large_z_against_mpmath(a, b, z):
    # from |z| = 2^20 on, the large-|z| expansion (DLMF 13.7.1, 13.2.23)
    with mpmath.workdps(40):
        value = mpmath.hyp1f1(a, b, z)
        ref = float(mpmath.log(abs(value)))
    if value > 0:
        assert sf.log_hypergeom_1f1(a, b, z) == pytest.approx(ref, rel=1e-14, abs=1e-14)
        assert sf.log_hypergeom_1f1(np.array([a, a]), b, np.array([z, 2.0 * z]))[0] == \
            sf.log_hypergeom_1f1(a, b, z)
    else:
        with pytest.raises(DomainError):
            sf.log_hypergeom_1f1(a, b, z)
    if ref < 700.0:
        want = float(value)
        assert sf.hypergeom_1f1(a, b, z) == pytest.approx(want, rel=1e-12, abs=1e-300)
    else:
        with pytest.raises(EvalOverflowError):
            sf.hypergeom_1f1(a, b, z)


def test_1f1_expansion_whose_terms_are_not_negligible_raises():
    # (a)_k (1+a-b)_k/k! w^-k with a = -1e5 at w = 2^21: the terms grow for
    # thousands of terms
    for f in (sf.hypergeom_1f1, sf.log_hypergeom_1f1):
        with pytest.raises(ConvergenceError):
            f(-1e5, 1.0, -2.0 ** 21)
    with pytest.raises(ConvergenceError):
        sf.log_hypergeom_1f1(np.array([0.5, -1e5]), 1.0, -2.0 ** 21)


@pytest.mark.parametrize("p,nu,s,c", [(-0.5, 1.0, 2e-3, 3.0), (0.25, 0.5, 0.6, 40.0),
                                      (1.7, 2.3, 1e-4, 5.0), (-0.3, 0.4, 3.0, 1e-3)])
def test_log_laplace_bessel_moment_scaled_against_mpmath(p, nu, s, c):
    # c^2/s reaches 1.6e4, where the unscaled moment overflows
    with mpmath.workdps(40):
        q = p + nu / 2 + 1
        ref = (nu * mpmath.log(c) + mpmath.loggamma(q) - mpmath.loggamma(nu + 1)
               - q * mpmath.log(s) + mpmath.log(mpmath.hyp1f1(q, nu + 1, c * c / s))
               - c * c / s)
    assert sf.log_laplace_bessel_moment_scaled(p, nu, s, c) == pytest.approx(
        float(ref), rel=1e-13, abs=1e-13)


def test_scalar_entry_points_match_the_ufuncs():
    # specfun evaluates iv and hyp1f1 through scipy.special.cython_special,
    # the same C code as the ufuncs without their per-call overhead
    for nu, z in [(0.0, 1e-3), (1.0, 3.0), (-0.4, 0.7), (2.5, 120.0), (7.3, 650.0)]:
        assert sf.bessel_i(nu, z, scaled=True) == float(sc.iv(nu, z)) * math.exp(-z)
    for a, b, z in [(1.0, 2.0, -3.0), (-20.7, 5.0, -1e3), (0.3, 1.7, 25.0)]:
        assert sf.hypergeom_1f1(a, b, z) == float(sc.hyp1f1(a, b, z))


# ---------------------------------------------------------------------------
# float64 arrays: one implementation, which a float runs as a one-element
# array wherever it leaves its one-call fast path
# ---------------------------------------------------------------------------

# z on every branch: 0, subnormal (scipy's iv is NaN there), the log-domain
# series where e^-z I_nu(z) underflows, iv e^-z below 700, ive above, and the
# DLMF 10.40.1 expansion where ive is NaN (from about 1e9)
_BRANCH_Z = np.array([0.0, 1e-318, 1e-240, 1e-5, 0.3, 5.0, 699.0, 701.0, 1e5, 2e9, 1e12])


def _same_each(fn, args, z, **kw):
    """fn(*args, z) on the array z equals fn(*args, float(zi)) element by element."""
    got = fn(*args, z, **kw)
    assert got.shape == z.shape
    for zi, g in zip(z, got):
        want = fn(*args, float(zi), **kw)
        assert type(want) is float and g == want, (fn.__name__, args, kw, zi, g, want)


@pytest.mark.parametrize("nu", [0.0, 0.5, -0.05, 2.7, 300.0])
def test_log_bessel_ive_array_matches_floats(nu):
    _same_each(sf.log_bessel_ive, (nu,), _BRANCH_Z[1:] if nu < 0 else _BRANCH_Z)


@pytest.mark.parametrize("nu", [0.0, 0.5, -0.3, 2.7])
def test_bessel_arrays_match_floats(nu):
    # scipy's kve is NaN from about z = 1e9 on, as a float or in an array;
    # unscaled, I_nu overflows from about z = 713 on
    _same_each(sf.bessel_i, (nu,), _BRANCH_Z[3:], scaled=True)
    _same_each(sf.bessel_i, (nu,), _BRANCH_Z[2:7])
    _same_each(sf.bessel_k, (nu,), _BRANCH_Z[3:9], scaled=True)
    _same_each(sf.bessel_k, (nu,), _BRANCH_Z[3:8])


def test_the_fast_path_is_within_two_ulp_of_the_array():
    # a float in range makes one scipy scalar call and takes math's exp and
    # log, which may round one ulp away from numpy's
    z = np.geomspace(1e-8, 650.0, 400)
    for nu in (0.0, 0.7, 2.3):
        for fn, kw in ((sf.bessel_i, {"scaled": True}), (sf.bessel_i, {}),
                       (sf.bessel_k, {"scaled": True}), (sf.log_bessel_ive, {})):
            got = fn(nu, z, **kw)
            want = np.array([fn(nu, float(zi), **kw) for zi in z])
            scale = np.maximum(np.abs(want), 1.0) if fn is sf.log_bessel_ive else np.abs(want)
            assert (np.abs(got - want) <= 2.0 * np.spacing(scale)).all(), (fn.__name__, nu, kw)


_BAD_ARGS = [(0.5, math.nan), (0.5, math.inf), (0.5, -1.0), (math.nan, 1.0), (math.inf, 1.0),
             (-math.inf, 1.0)]


@pytest.mark.parametrize("nu,z", _BAD_ARGS)
@pytest.mark.parametrize("fn,kw", [(sf.log_bessel_ive, {}), (sf.bessel_i, {}),
                                   (sf.bessel_i, {"scaled": True}), (sf.bessel_k, {}),
                                   (sf.bessel_k, {"scaled": True}),
                                   (lambda nu, z: sf.tricomi_u(0.3, nu, z), {}),
                                   (lambda nu, z: sf.tricomi_u(nu, 1.3, z), {}),
                                   (lambda nu, z: sf.whittaker_w(0.3, nu, z), {}),
                                   (lambda nu, z: sf.whittaker_w(nu, 0.4, z), {})])
def test_floats_and_arrays_raise_the_same_errors(fn, kw, nu, z):
    with pytest.raises(DomainError):
        fn(nu, z, **kw)
    with pytest.raises(DomainError):
        fn(nu, np.array([1.0, z]), **kw)


def test_zero_z_gives_the_same_value_or_error_as_a_float_and_in_an_array():
    # e^-0 I_nu(0) at a pole (nu < 0, not an integer) gave inf, with a numpy
    # RuntimeWarning from the series, where I_nu(0) itself raises
    for nu in (0.0, 0.5, -0.5, -0.3, -2.0):
        for fn, kw in ((sf.log_bessel_ive, {}), (sf.bessel_i, {}), (sf.bessel_k, {}),
                       (sf.bessel_i, {"scaled": True}), (sf.bessel_k, {"scaled": True})):
            try:
                want = fn(nu, 0.0, **kw)
            except (DomainError, EvalOverflowError) as exc:
                with pytest.raises(type(exc)):
                    fn(nu, np.array([1.0, 0.0]), **kw)
            else:
                assert fn(nu, np.array([1.0, 0.0]), **kw)[1] == want


def test_large_argument_expansion_stays_quiet_up_to_the_largest_double():
    # 8 j z overflowed in _large_z from z of about 1e306 on, with a numpy
    # RuntimeWarning, although its term goes to 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z in (1e307, 1.7e308):
            assert sf.bessel_i(0.5, z, scaled=True) == pytest.approx(
                1.0 / math.sqrt(2.0 * math.pi * z), rel=1e-15)
            assert sf.bessel_k(0.5, z, scaled=True) == pytest.approx(
                math.sqrt(0.5 * math.pi / z), rel=1e-15)
            assert sf.log_bessel_ive(1.3, np.array([z]))[0] == pytest.approx(
                -0.5 * (math.log(2.0 * math.pi) + math.log(z)), rel=1e-15)


def test_log_bessel_ive_series_at_subnormal_z():
    # scipy's iv and ive are NaN at subnormal z for some orders; that is the
    # series' domain, not the large-argument expansion's
    assert sf.log_bessel_ive(-0.05, 1e-318) == pytest.approx(
        float(mpmath.log(mpmath.besseli(-0.05, mpmath.mpf(1e-318)))), rel=1e-14)


@pytest.mark.parametrize("z", [1e-318, 5e-324, 1e-250])
@pytest.mark.parametrize("nu", [0.0, 0.5, -0.5, 2.0])
def test_bessel_i_at_tiny_z_against_mpmath(nu, z):
    # scipy's iv is NaN at subnormal z, and its iv and ive give 0 for nu = 0.5
    # up to z = 1e-206, where I_nu(z) is 1e-103: both take the log-domain
    # series, which forms log z, not log(z/2) (0 at z = 5e-324). I_2 underflows
    with mpmath.workdps(40):
        ref = mpmath.besseli(nu, mpmath.mpf(z))
        log_ref = float(mpmath.log(ref) - z)
        ref = float(ref)
    for scaled in (False, True):
        got = sf.bessel_i(nu, z, scaled=scaled)
        assert got == pytest.approx(ref, rel=2e-13, abs=0.0)
        assert sf.bessel_i(nu, np.array([z, 1.0]), scaled=scaled)[0] == got
    assert sf.log_bessel_ive(nu, z) == pytest.approx(log_ref, rel=1e-15, abs=1e-15)


def test_array_arguments_keep_the_float_errors():
    with pytest.raises(DomainError):
        sf.log_bessel_ive(1.0, np.array([1.0, -1.0]))
    with pytest.raises(DomainError):
        sf.log_bessel_ive(1.0, np.array([1.0, np.nan]))
    with pytest.raises(DomainError):
        sf.log_bessel_ive(-0.5, np.array([0.0, 1.0]))
    with pytest.raises(DomainError):
        sf.bessel_i(1.0, np.array([1.0, np.inf]), scaled=True)
    with pytest.raises(DomainError):
        sf.bessel_k(1.0, np.array([1.0, 0.0]), scaled=True)
    with pytest.raises(EvalOverflowError):
        sf.bessel_i(1.0, np.array([1.0, 800.0]))


@pytest.mark.parametrize("z", [1e-318, 5e-324, 1e-310])
@pytest.mark.parametrize("nu", [0.0, 0.01, 0.5, -0.5, 0.9])
def test_bessel_k_at_subnormal_z_against_mpmath(nu, z):
    # scipy's kv and kve are inf at subnormal z, where K_nu is finite
    # (K_0(1e-318) = 732.34): the small-z leading terms
    with mpmath.workdps(40):
        ref = float(mpmath.besselk(nu, mpmath.mpf(z)))
    for scaled in (False, True):
        got = sf.bessel_k(nu, z, scaled=scaled)
        assert got == pytest.approx(ref, rel=1e-13, abs=0.0)
        assert sf.bessel_k(nu, np.array([z, 1.0]), scaled=scaled)[0] == got


def test_bessel_k_raises_only_where_it_overflows():
    # K_3(1e-102) = 8e306 is finite, though scipy's kv is inf there;
    # K_3(1e-103) = 8e309 and K_2(1e-318) overflow
    with mpmath.workdps(40):
        ref = float(mpmath.besselk(3, mpmath.mpf(1e-102)))
    assert sf.bessel_k(3.0, 1e-102) == pytest.approx(ref, rel=1e-13)
    for nu, z in [(3.0, 1e-103), (2.0, 1e-318)]:
        with pytest.raises(EvalOverflowError):
            sf.bessel_k(nu, z)
        with pytest.raises(EvalOverflowError):
            sf.bessel_k(nu, np.array([1.0, z]), scaled=True)


# (a, z) where the direct 1F1 is finite and positive, and where it overflows
# or is not positive (Kummer's transform takes over)
@pytest.mark.parametrize("a,z", [
    (np.array([0.0, 0.5, 0.35, 1.0, 2.2, 0.75])[:, None],
     np.array([-3.0, -30.0, -1e4, -1e8, 0.0, 1e-17, 900.0, 5e4])),
    (np.array([-2.3, -11.5, 0.5])[:, None], np.array([-30.0, -1e4, -0.2]))])
def test_log_hypergeom_1f1_arrays_match_floats(a, z):
    got = sf.log_hypergeom_1f1(a, 2.5, z)
    assert got.shape == (len(a), len(z))
    for i, ai in enumerate(a[:, 0]):
        for k, zk in enumerate(z):
            want = sf.log_hypergeom_1f1(float(ai), 2.5, float(zk))
            assert got[i, k] == pytest.approx(want, rel=1e-15, abs=1e-15), (ai, zk)


def test_log_laplace_bessel_moment_scaled_arrays_match_floats():
    # a column of p against a row of (s, c): one moment per pair; c = 0 too
    p = np.array([-0.5, 0.25, 1.7, 6.0])[:, None]
    s = np.array([2e-3, 0.6, 1e-4, 3.0, 1.0])
    c = np.array([3.0, 40.0, 5.0, 1e-3, 0.0])
    for nu in (1.0, 0.5, 0.0):
        got = sf.log_laplace_bessel_moment_scaled(p, nu, s, c)
        assert got.shape == (4, 5)
        for i, pi in enumerate(p[:, 0]):
            for k in range(5):
                want = sf.log_laplace_bessel_moment_scaled(float(pi), nu, float(s[k]),
                                                           float(c[k]))
                assert got[i, k] == pytest.approx(want, rel=1e-15, abs=1e-15), (pi, nu, k)
    # and with s, c floats against the p column
    got = sf.log_laplace_bessel_moment_scaled(p, 0.5, 0.6, 40.0)
    assert got[:, 0] == pytest.approx(
        [sf.log_laplace_bessel_moment_scaled(float(pi), 0.5, 0.6, 40.0) for pi in p[:, 0]],
        rel=1e-15)


@pytest.mark.parametrize("args,error", [
    ((np.array([0.5, np.nan]), 1.0, 1.0, 1.0), DomainError),
    ((0.5, 1.0, np.array([1.0, -1.0]), 1.0), DomainError),
    ((0.5, 1.0, np.array([1.0, np.inf]), 1.0), DomainError),
    ((np.array([0.5, -3.0]), 1.0, 1.0, 1.0), DomainError),  # q <= 0
    ((0.5, 1.0, 1.0, np.array([1.0, -1e-3])), DomainError),
    ((0.5, -2.0, np.array([1.0]), 1.0), PoleError)])
def test_moment_arrays_raise_the_float_errors(args, error):
    with pytest.raises(error):
        sf.log_laplace_bessel_moment_scaled(*args)
    with pytest.raises(error):  # the failing element as a float
        sf.log_laplace_bessel_moment_scaled(*(float(a[-1]) if np.ndim(a) else a
                                              for a in args))


@pytest.mark.parametrize("p,nu,s,c", [(0.5, 1.0, 1e-300, 1e200), (0.7, 1.3, 1e-300, 1e200),
                                      (2.3, 0.4, 1e-250, 1e160), (10.5, 1.48, 1e-200, 1e250)])
def test_moment_whose_1f1_argument_overflows(p, nu, s, c):
    # c^2/s overflows (it raised DomainError "non-finite argument -inf"): the
    # large-|z| expansion at log(c^2/s) = 2 log c - log s, float and array
    # alike, without a numpy warning; mpmath at 30 digits
    with mpmath.workdps(30):
        q, w = p + 0.5 * nu + 1.0, mpmath.mpf(c) ** 2 / s
        want = float(nu * mpmath.log(c) + mpmath.loggamma(q) - mpmath.loggamma(nu + 1.0)
                     - q * mpmath.log(s) + mpmath.log(mpmath.hyp1f1(nu + 1.0 - q, nu + 1.0, -w)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sf.log_laplace_bessel_moment_scaled(p, nu, s, c) == pytest.approx(want, rel=1e-14)
        got = sf.log_laplace_bessel_moment_scaled(np.array([[p], [p]]), nu, np.array([s, 1.0]), c)
        assert got[0, 0] == pytest.approx(want, rel=1e-14)
        with pytest.raises(EvalOverflowError):  # the moment itself: e^(c^2/s) times that
            sf.laplace_bessel_moment(p, nu, s, c)


def test_log_hypergeom_1f1_arrays_raise_the_float_errors():
    with pytest.raises(DomainError):
        sf.log_hypergeom_1f1(np.array([0.5, np.nan]), 2.0, -1.0)
    with pytest.raises(DomainError):
        sf.log_hypergeom_1f1(0.5, 2.0, np.array([-1.0, -np.inf]))
    with pytest.raises(PoleError):
        sf.log_hypergeom_1f1(np.array([0.5]), -1.0, -1.0)
    assert sf.log_hypergeom_1f1(0.0, 2.0, np.array([-1.0, 3.0])).tolist() == [0.0, 0.0]
