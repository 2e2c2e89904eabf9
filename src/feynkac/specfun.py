"""Special-function kernels used by every closed-form density and expectation.

Thin, contract-enforcing layer over scipy.special: explicit domain/pole/overflow
errors instead of silent NaN/inf, scaled and log-domain variants for the Bessel
functions (densities routinely multiply a huge I_nu by a tiny exponential), and
the Whittaker pair assembled from the Kummer functions.

bessel_i, log_bessel_ive, bessel_k, tricomi_u and whittaker_w also take z as
a float64 array (the kernels and the verify quadrature evaluate whole y-grids
in one call); log_hypergeom_1f1 takes arrays a and z, and
log_laplace_bessel_moment_scaled arrays p, s and c, which broadcast (the
closed-form expectations evaluate a lambda grid in one call). Its array
implementation is log_laplace_bessel_moments, of a LaplaceBesselTerms: what
the moment takes from p and nu alone, which a series forms once
(laplace_bessel_terms; sqrt_drift's blocks of terms, each with a log
weight); where c^2/s overflows, 1F1 is its large-|z| expansion from log
c^2/s. Each has one implementation, on arrays (_*_array), which holds all
its checks and fallbacks, each check once per array by its smallest and
largest element. A float takes a fast path where
input and result are in range (one scipy scalar call for the Bessel
functions) and otherwise runs the array implementation as a one-element
array, so the two agree exactly there; on that fast path numpy's exp and log
may round one ulp away from math's.

All functions are pure.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np
import scipy.special as sc
from scipy.special import cython_special  # scalar entry points of the same C code

from .errors import ConvergenceError, DomainError, EvalOverflowError, PoleError

__all__ = [
    "bessel_i",
    "log_bessel_i",
    "log_bessel_ive",
    "bessel_k",
    "hypergeom_1f1",
    "log_hypergeom_1f1",
    "tricomi_u",
    "whittaker_m",
    "whittaker_w",
    "gamma_ln",
    "erf",
    "laplace_bessel_moment",
    "log_laplace_bessel_moment_scaled",
    "LaplaceBesselTerms",
    "laplace_bessel_terms",
    "log_laplace_bessel_moments",
]


# arrays take their own path, chosen by `type(z) is _NDARRAY`: on the float
# path it costs about a fifth of isinstance(z, np.ndarray)
_NDARRAY = np.ndarray
_LOG_2 = math.log(2.0)
# the reductions themselves: ndarray.min and .max add a Python-level wrapper
_MIN, _MAX = np.minimum.reduce, np.maximum.reduce


def _check_finite(name: str, *vals: float) -> None:
    for v in vals:
        if not math.isfinite(v):
            raise DomainError(f"{name}: non-finite argument {v!r}")


def _bounds(name: str, *vals):
    """(smallest, largest) of each value, a float or a float64 array, as
    floats (whose arithmetic overflows to inf without a numpy warning), or
    None where an array is empty; DomainError where an element is not finite."""
    out = []
    for v in vals:
        if type(v) is _NDARRAY:
            if not v.size:
                return None
            lo, hi = float(_MIN(v, None)), float(_MAX(v, None))
        else:
            lo = hi = float(v)
        if not (-math.inf < lo and hi < math.inf):  # a NaN makes both NaN
            _raise_non_finite(name, lo, hi)
        out.append((lo, hi))
    return out


def _raise_non_finite(name: str, lo, hi) -> None:
    """DomainError for a smallest or largest element that is not finite (a
    NaN makes both NaN); its callers test that first."""
    raise DomainError(f"{name}: non-finite argument {float(hi if math.isfinite(lo) else lo)!r}")


def _check_array(name: str, nu: float, z: np.ndarray, bound: str = ">=") -> float:
    """_check_finite of nu and of every element of the array z, and z >= 0
    (z > 0 for bound ">"); returns the smallest z."""
    _check_finite(name, nu)
    bounds = _bounds(name, z)
    if bounds is None:
        return math.inf
    lo = bounds[0][0]
    if not (lo > 0 or lo == 0 and bound == ">="):
        raise DomainError(f"{name}: z must be {bound} 0")
    return lo


def bessel_i(nu: float, z, *, scaled: bool = False):
    """Modified Bessel function of the first kind I_nu(z), z >= 0; z may be a
    float64 array.

    scaled=True returns e^{-z} I_nu(z) (finite for arbitrarily large z).
    Unscaled overflow raises EvalOverflowError rather than returning inf.
    """
    if type(z) is _NDARRAY:
        return _bessel_i_array(nu, z, scaled)
    if 0.0 <= z < math.inf and -math.inf < nu < math.inf:
        out = _ive(nu, z) if scaled else cython_special.iv(nu, z)
        if 0.0 < out < math.inf:
            return out
    return float(_bessel_i_array(nu, np.array([z], float), scaled)[0])


def _bessel_i_array(nu: float, z: np.ndarray, scaled: bool) -> np.ndarray:
    """bessel_i of each element of z: every check and fallback."""
    _check_array("bessel_i", nu, z)
    out = _ive_array(nu, z) if scaled else sc.iv(nu, z)
    if not out.size or out.min() > 0.0 and out.max() < math.inf:
        return out
    # scipy's NaN (at large z, and at subnormal z) and, where I_nu > 0 (nu > -1,
    # z > 0), its 0 (iv(0.5, z) is 0 up to z = 1e-206, where I_nu is 1e-103)
    bad = np.isnan(out) | (nu > -1.0) & (out == 0.0) & (z > 0.0)
    with np.errstate(over="ignore"):
        out[bad] = np.exp(_log_ive_array(nu, z[bad]) + (0.0 if scaled else z[bad]))
    if np.isinf(out).any():  # unscaled overflow, or the pole at z = 0 of nu < 0
        raise EvalOverflowError(f"bessel_i: I_{nu}(z) overflows (unscaled: use scaled=True)")
    return out


def _ive(nu: float, z: float) -> float:
    """e^{-z} I_nu(z) at a float z >= 0, or scipy's NaN or inf. scipy's ive
    is off by up to 6e-14 relative at non-integer nu; below z = 700, wherever
    scipy's iv is finite, iv times exp(-z) is within about 2e-15 of mpmath."""
    out = cython_special.iv(nu, z) if z < 700.0 else math.inf
    return out * math.exp(-z) if out < math.inf else cython_special.ive(nu, z)


def _ive_array(nu: float, z: np.ndarray) -> np.ndarray:
    """_ive of each element of z."""
    out = sc.iv(nu, z)
    if not z.size or z.max() < 700.0 and out.max() < math.inf:  # no inf, no NaN
        return out * np.exp(-z)
    direct = (z < 700.0) & np.isfinite(out) | (z == 0.0)  # e^-0 = 1, at a pole too
    out[direct] *= np.exp(-z[direct])
    out[~direct] = sc.ive(nu, z[~direct])
    return out


def _large_z(nu: float, z: np.ndarray, k: bool = False) -> np.ndarray:
    """e^{-z} I_nu(z), or e^z K_nu(z) where k, by the large-argument
    expansion (DLMF 10.40.1, 10.40.2), for z beyond scipy's ive and kve (NaN
    from about 1e9 on); each element stops at its own first negligible term.
    Raises ConvergenceError where the series does not settle (small z, or
    nu^2 comparable to z). z comes last in each product: 8 j z overflows."""
    mu, sign = 4.0 * nu * nu, 1.0 if k else -1.0
    term, total = np.ones(z.shape), np.ones(z.shape)
    active = np.ones(z.shape, dtype=bool)
    for j in range(1, 30):
        term[active] *= sign * (mu - (2 * j - 1) ** 2) / (8.0 * j) / z[active]
        total[active] += term[active]
        active &= ~(np.abs(term) <= 1e-17 * np.abs(total))
        if not active.any():
            return total * np.sqrt(0.5 * math.pi / z) if k \
                else total / math.sqrt(2.0 * math.pi) / np.sqrt(z)
    raise ConvergenceError(f"{'bessel_k' if k else 'bessel_i'}: evaluation failed "
                           f"at nu={nu}, z={float(z[active][0])}")


def _log_ive_series(nu: float, z: np.ndarray) -> np.ndarray:
    """log(e^{-z} I_nu(z)) from the ascending series (DLMF 10.25.2), nu > -1,
    for where e^{-z} I_nu(z) is below 1e-300 and scipy underflows or keeps
    too few digits. All terms are positive; each element's sum is carried as
    total * e^shift so that it cannot overflow, and stops at its own first
    negligible term."""
    q = 0.25 * z * z
    term, total, shift = np.ones(z.shape), np.ones(z.shape), np.zeros(z.shape)
    active = np.ones(z.shape, dtype=bool)
    for k in range(1, 10000):
        term[active] *= q[active] / (k * (k + nu))
        total[active] += term[active]
        active &= ~(term <= 1e-17 * total)
        if not active.any():
            return (nu * (np.log(z) - math.log(2.0)) - float(sc.gammaln(nu + 1.0))
                    + shift + np.log(total) - z)
        big = active & (total > 1e300)
        if big.any():
            shift[big] += np.log(total[big])
            term[big] /= total[big]
            total[big] = 1.0
    raise ConvergenceError(
        f"log_bessel_i: series failed at nu={nu}, z={float(z[active][0])}")


def log_bessel_i(nu: float, z: float) -> float:
    """log I_nu(z) for z > 0 (computed as log(ive) + z, overflow-safe).

    Only valid where I_nu(z) > 0, i.e. nu >= 0 or z large enough for
    negative non-integer orders; returns -inf on underflow at z=0+.
    """
    return log_bessel_ive(nu, z) + z


def log_bessel_ive(nu: float, z):
    """log(e^{-z} I_nu(z)) = log I_nu(z) - z, without forming either term;
    z may be a float64 array.

    For kernels whose exponent carries -z: adding log I_nu(z) and the
    exponent as two numbers of size z loses about z*1e-16 absolutely.
    Same domain and errors as log_bessel_i.
    """
    if type(z) is _NDARRAY:
        return _log_ive_array(nu, z)
    if 0.0 < z < math.inf and -math.inf < nu < math.inf:
        scaled = _ive(nu, z)
        if scaled > 1e-300:
            return math.log(scaled)
    return float(_log_ive_array(nu, np.array([z], float))[0])


def _log_ive_array(nu: float, z: np.ndarray) -> np.ndarray:
    """log_bessel_ive of each element of z: every check and fallback."""
    if _check_array("log_bessel_i", nu, z) == 0.0 and nu < 0:
        raise DomainError("log_bessel_i: I_nu(0) undefined for nu < 0")
    scaled = _ive_array(nu, z)
    if not scaled.size or scaled.min() > 1e-300:  # no NaN, no underflow
        return np.log(scaled)
    zero = z == 0.0
    if (scaled < 0.0).any():
        raise DomainError(f"log_bessel_i: I_{nu}(z) < 0, log undefined")
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(scaled)
    low = ~(scaled > 1e-300) & ~zero  # NaN, underflow, or too few digits left
    # where scipy gives NaN at z > 1, the large-argument expansion; the series
    # otherwise (scipy's iv and ive are NaN at subnormal z for some orders too)
    large = low & np.isnan(scaled) & (z > 1.0)
    out[large] = np.log(_large_z(nu, z[large]))
    series = low & ~large
    if series.any():
        if not nu > -1:
            raise ConvergenceError(f"log_bessel_i: underflow at nu={nu}, "
                                   f"z={float(z[series][0])}")
        out[series] = _log_ive_series(nu, z[series])
    out[zero] = 0.0 if nu == 0.0 else -math.inf
    return out


def bessel_k(nu: float, z, *, scaled: bool = False):
    """Modified Bessel function of the second kind K_nu(z), z > 0; z may be a
    float64 array.

    scaled=True returns e^{z} K_nu(z).
    """
    if type(z) is _NDARRAY:
        return _bessel_k_array(nu, z, scaled)
    if 0.0 < z < math.inf and -math.inf < nu < math.inf:
        out = cython_special.kve(nu, z) if scaled else cython_special.kv(nu, z)
        if out < math.inf:
            return out
    return float(_bessel_k_array(nu, np.array([z], float), scaled)[0])


def _bessel_k_array(nu: float, z: np.ndarray, scaled: bool) -> np.ndarray:
    """bessel_k of each element of z: every check and fallback."""
    _check_array("bessel_k", nu, z, ">")
    out = sc.kve(nu, z) if scaled else sc.kv(nu, z)
    if not out.size or out.max() < math.inf:  # no inf, no NaN
        return out
    nan = np.isnan(out)
    if nan.any() and not (scaled and z[nan].min() > 1.0):
        raise ConvergenceError(f"bessel_k: evaluation failed at nu={nu}")
    out[nan] = _large_z(nu, z[nan], k=True)
    # scipy's inf at subnormal z (K_0(1e-318) = 732.3), and where K_nu nears
    # the overflow threshold: the leading term, where its next term, (z/2)^2
    # relative to it over |nu - 1|, is below 1e-17 (and below z = 1e-300)
    small = np.isinf(out) & (z < max(1e-300, 2.0 * math.sqrt(1e-17 * abs(nu - 1.0))))
    if small.any():
        zs = z[small]
        with np.errstate(over="ignore"):
            out[small] = np.exp(_log_k_small(nu, np.log(zs)) + (zs if scaled else 0.0))
    if np.isinf(out).any():
        raise EvalOverflowError(f"bessel_k: K_{nu}(z) overflows; use scaled=True")
    return out


def _log_k_small(nu: float, log_z):
    """log K_nu(z) at small z = e^log_z (a float or a float64 array) from
    its leading terms (DLMF 10.31.2, 10.27.4, 10.30.2): -log(z/2) - gamma at
    nu = 0, else Gamma(nu)/2 (z/2)^-nu plus, for 0 < nu < 1, where it is not
    negligible, Gamma(-nu)/2 (z/2)^nu, which is (z/2)^(2 nu) of the first."""
    xp = np if type(log_z) is _NDARRAY else math
    nu = abs(nu)
    if nu == 0.0:
        return xp.log(_LOG_2 - log_z - np.euler_gamma)
    out = (nu - 1.0) * _LOG_2 + math.lgamma(nu) - nu * log_z
    if nu < 1.0:  # Gamma(-nu)/Gamma(nu) = -Gamma(1 - nu)/Gamma(1 + nu)
        out = out + xp.log1p(-xp.exp(math.lgamma(1.0 - nu) - math.lgamma(1.0 + nu)
                                     + 2.0 * nu * (log_z - _LOG_2)))
    return out


def _is_nonpositive_integer(b: float, tol: float = 1e-12) -> bool:
    return b <= tol and abs(b - round(b)) < tol


def hypergeom_1f1(a: float, b: float, z: float) -> float:
    """Kummer's confluent hypergeometric function 1F1(a, b, z); from |z| =
    _Z_LARGE on, its large-|z| expansion (_log_1f1_large)."""
    _check_finite("hypergeom_1f1", a, b, z)
    if _is_nonpositive_integer(b):
        raise PoleError(f"hypergeom_1f1: b={b} is a non-positive integer (parameter pole)")
    if abs(z) >= _Z_LARGE:
        sign, log = _log_1f1_large(np.array([a], float), b, np.array([z], float))
        if log[0] > 709.0:
            raise EvalOverflowError(f"hypergeom_1f1: overflow at ({a}, {b}, {z})")
        return float(sign[0] * np.exp(log[0]))
    if abs(z) < 1e-16:
        # scipy.special.hyp1f1 misbehaves for tiny |z|; the truncated series
        # is exact to double precision here
        return 1.0 + a / b * z
    out = cython_special.hyp1f1(float(a), float(b), float(z))
    if math.isnan(out):
        raise ConvergenceError(f"hypergeom_1f1: evaluation failed at ({a}, {b}, {z})")
    if math.isinf(out):
        raise EvalOverflowError(f"hypergeom_1f1: overflow at ({a}, {b}, {z})")
    return out


def tricomi_u(a: float, b: float, z):
    """Tricomi's confluent hypergeometric function U(a, b, z), principal branch z > 0.

    Satisfies z^a U(a, b, z) -> 1 as z -> +inf. z may be a float64 array.
    """
    if type(z) is _NDARRAY:
        return _tricomi_u_array(a, b, z)
    return float(_tricomi_u_array(a, b, np.array([z], float))[0])


def _tricomi_u_array(a: float, b: float, z: np.ndarray) -> np.ndarray:
    """tricomi_u of each element of z: every check and fallback."""
    _check_finite("tricomi_u", a)
    _check_array("tricomi_u", b, z, ">")
    out = sc.hyperu(a, b, z)
    nan = np.isnan(out)
    if nan.any():  # e.g. hyperu(5.55e-17, 1.8334, 103): Kummer's
        # transformation U(a, b, z) = z^(1-b) U(a-b+1, 2-b, z) (DLMF 13.2.40)
        out[nan] = z[nan] ** (1.0 - b) * sc.hyperu(a - b + 1.0, 2.0 - b, z[nan])
        if np.isnan(out).any():
            raise ConvergenceError(f"tricomi_u: evaluation failed at ({a}, {b}, "
                                   f"{float(z[np.isnan(out)][0])})")
    return out


def whittaker_m(k: float, m: float, z: float) -> float:
    """Whittaker function M_{k,m}(z) = e^{-z/2} z^{m+1/2} 1F1(m-k+1/2, 1+2m, z), z > 0."""
    _check_finite("whittaker_m", k, m, z)
    if z <= 0:
        raise DomainError("whittaker_m: z must be > 0")
    if _is_nonpositive_integer(1.0 + 2.0 * m):
        raise PoleError(f"whittaker_m: 1+2m={1+2*m} is a non-positive integer")
    f = hypergeom_1f1(m - k + 0.5, 1.0 + 2.0 * m, z)
    return float(_whittaker("whittaker_m", k, m, np.array([z], float), f)[0])


def whittaker_w(k: float, m: float, z):
    """Whittaker function W_{k,m}(z) = e^{-z/2} z^{m+1/2} U(m-k+1/2, 1+2m, z), z > 0.

    Equal to the standard combination of M_{k,+-m}; evaluated through the
    Tricomi function to stay finite at half-integer m where the combination's
    Gamma factors hit poles. z may be a float64 array.
    """
    if type(z) is _NDARRAY:
        return _whittaker_w_array(k, m, z)
    return float(_whittaker_w_array(k, m, np.array([z], float))[0])


def _whittaker_w_array(k: float, m: float, z: np.ndarray) -> np.ndarray:
    """whittaker_w of each element of z: every check."""
    _check_finite("whittaker_w", k)
    _check_array("whittaker_w", m, z, ">")
    return _whittaker("whittaker_w", k, m, z, _tricomi_u_array(m - k + 0.5, 1.0 + 2.0 * m, z))


def _whittaker(name: str, k: float, m: float, z: np.ndarray, f) -> np.ndarray:
    """e^{-z/2} z^{m+1/2} f for the Kummer factor f of a Whittaker function,
    assembled in the log domain, where the pieces would overflow one by one."""
    with np.errstate(divide="ignore"):  # f = 0 gives 0
        lg = -0.5 * z + (m + 0.5) * np.log(z) + np.log(np.abs(f))
    if (lg > 700.0).any():
        raise EvalOverflowError(f"{name}: overflow at k={k}, m={m}, "
                                f"z={float(z[lg > 700.0][0])}")
    return np.sign(f) * np.exp(lg)


def gamma_ln(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    _check_finite("gamma_ln", x)
    if x <= 0:
        raise DomainError("gamma_ln: x must be > 0")
    return float(sc.gammaln(x))


def erf(x: float) -> float:
    """Error function."""
    _check_finite("erf", x)
    return float(sc.erf(x))


def log_hypergeom_1f1(a, b: float, z):
    """log 1F1(a, b, z) where 1F1(a, b, z) > 0; where the direct value
    overflows or fails, by Kummer's transform 1F1(a, b, z) = e^z 1F1(b-a, b, -z),
    and from |z| = _Z_LARGE on by its large-|z| expansion (_log_1f1_large).
    a and z may be float64 arrays, which broadcast against each other."""
    if type(a) is _NDARRAY or type(z) is _NDARRAY:
        return _log_hypergeom_1f1_array(a, b, z)
    if -math.inf < a < math.inf and 1e-12 < b < math.inf and -_Z_LARGE < z < _Z_LARGE:
        if a == 0.0:  # 1F1(0, b, z) = 1: the moments of most catalog kernels
            return 0.0
        # hypergeom_1f1's value, without its checks
        f = cython_special.hyp1f1(a, b, z) if abs(z) >= 1e-16 else 1.0 + a / b * z
        if 0.0 < f < math.inf:
            return math.log(f)
    return float(_log_hypergeom_1f1_array(a, b, np.array([z], float))[0])


def _log(v):
    return np.log(v) if type(v) is _NDARRAY else math.log(v)


def _hyp1f1(a, b: float, z, tiny: bool) -> np.ndarray:
    """scipy's 1F1 of arrays, and hypergeom_1f1's truncated series at |z| <
    1e-16 where tiny (some z may lie there)."""
    out = sc.hyp1f1(a, b, z)
    if tiny:
        out = np.where(np.abs(z) < 1e-16, 1.0 + a / b * z, out)
    return out


def _log_hypergeom_1f1_array(a, b: float, z) -> np.ndarray:
    """log_hypergeom_1f1 of each element of the broadcast a and z: every
    check."""
    _check_finite("log_hypergeom_1f1", b)
    bounds = _bounds("log_hypergeom_1f1", a, z)
    if bounds is None:
        return np.empty(np.broadcast(a, z).shape)
    z_lo, z_hi = bounds[1]
    if _is_nonpositive_integer(b):
        raise PoleError(f"hypergeom_1f1: b={b} is a non-positive integer (parameter pole)")
    return _log_1f1(a, b, z, z_lo < 1e-16 and z_hi > -1e-16,
                    z_lo <= -_Z_LARGE or z_hi >= _Z_LARGE)


def _log_1f1(a, b: float, z, tiny: bool, large: bool = False, log_w=None) -> np.ndarray:
    """log 1F1 of checked arguments (tiny as for _hyp1f1), with Kummer's
    transform by mask where the direct value is not finite and positive, and
    where large, the large-|z| expansion by mask from |z| = _Z_LARGE on, at
    log |z| = log_w where given (z may then be -inf: |z| overflowed)."""
    if type(a) is not _NDARRAY and a == 0.0:
        return np.zeros(np.shape(z))
    if large:
        a, z = np.broadcast_arrays(a, z)
        big, out = np.abs(z) >= _Z_LARGE, np.empty(z.shape)
        log_w = np.log(np.abs(z[big])) if log_w is None else np.broadcast_to(log_w, z.shape)[big]
        sign, out[big] = _log_1f1_large(a[big], b, z[big], log_w)
        if not (sign > 0.0).all():
            raise DomainError(f"log_hypergeom_1f1: 1F1 <= 0, log undefined at "
                              f"({float(a[big][sign <= 0.0][0])}, {b}, "
                              f"{float(z[big][sign <= 0.0][0])})")
        if not big.all():
            out[~big] = _log_1f1(a[~big], b, z[~big], tiny)
        return out
    f = _hyp1f1(a, b, z, tiny)
    # no NaN, no inf, no f <= 0: argmin and argmax find a NaN first, at under
    # half the cost of a reduction
    if f.item(f.argmin()) > 0.0 and f.item(f.argmax()) < math.inf:
        return np.log(f)
    a, z = np.broadcast_arrays(a, z)
    bad = ~((f > 0.0) & (f < math.inf))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(f)
    ab, zb = a[bad], z[bad]
    g = _hyp1f1(b - ab, b, -zb, tiny)
    for fail, error, what in ((np.isnan(g), ConvergenceError, "evaluation failed"),
                              (np.isinf(g), EvalOverflowError, "overflow"),
                              (~(g > 0.0), DomainError, "1F1 <= 0, log undefined")):
        if fail.any():
            raise error(f"log_hypergeom_1f1: {what} at ({float(ab[fail][0])}, {b}, "
                        f"{float(zb[fail][0])})")
    out[bad] = zb + np.log(g)
    return out


# from |z| = 2^20 on, 1F1 is its large-|z| expansion: scipy's hyp1f1 fails
# (NaN or 0) below z of about -1e11 and takes a time that grows with z above
# it (0.25 ms at z = 1e8, 2.6 s at 1e12); at 2^20 the expansion's terms fall
# to 2^-53 of its sum within a few terms for |a|, |b| up to a few hundred
_Z_LARGE = 2.0 ** 20
_LARGE_TERMS = 60


def _log_1f1_large(a: np.ndarray, b: float, z: np.ndarray, log_w=None):
    """(sign, log|1F1(a, b, z)|) for float64 arrays a and z of one shape, |z|
    >= _Z_LARGE, w = |z| (log_w = log w, formed here where not given). In
    general by the large-|z| expansion (DLMF 13.7.1, 13.2.23): at z > 0,
    Gamma(b)/Gamma(a) e^w w^(a-b) sum_k (1-a)_k (b-a)_k/k! w^-k; at z < 0,
    by Kummer's transform, Gamma(b)/Gamma(b-a) w^-a sum_k (a)_k (1+a-b)_k/k!
    w^-k. Where the Gamma factor's argument is a nonpositive integer -n, 1F1
    (or at z < 0, e^-z 1F1) is the polynomial Gamma(b)/Gamma(b+n) (-w)^n
    sum_k (-n)_k (1-n-b)_k/k! (-w)^-k, which ends at k = n (DLMF 13.2.7).
    Each sum stops at its first term below 2^-53 of it; ConvergenceError
    where none of the first _LARGE_TERMS is."""
    neg, w = z < 0.0, np.abs(z)
    ap = np.where(neg, b - a, a)  # 1F1(a, b, z) = e^(z - w) 1F1(ap, b, w)
    poly = (ap <= 0.0) & (ap == np.floor(ap))
    flip = neg ^ poly  # the w^-a series
    c1, c2 = np.where(flip, a, 1.0 - a), np.where(flip, 1.0 + a - b, b - a)
    rho = np.where(poly, -w, w)
    total, term, done = np.ones(w.shape), np.ones(w.shape), np.zeros(w.shape, bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(_LARGE_TERMS):
            term = term * ((c1 + k) * (c2 + k) / ((k + 1.0) * rho))
            done |= np.abs(term) <= 2.0 ** -53 * np.abs(total)
            if done.all():
                break
            total += np.where(done, 0.0, term)
        else:
            bad = ~done
            raise ConvergenceError(
                f"hypergeom_1f1: large-|z| expansion does not converge at "
                f"({float(a[bad][0])}, {b}, {float(z[bad][0])})")
    g = np.where(flip, b - a, a)
    if log_w is None:
        log_w = np.log(w)
    # the exponent: z where 1F1 grows as e^w (z > 0) or is e^z times a polynomial
    log = (sc.gammaln(b) - sc.gammaln(g) + np.where(poly == neg, z, 0.0)
           + np.where(flip, -a, a - b) * log_w + np.log(np.abs(total)))
    sign = (sc.gammasgn(b) * sc.gammasgn(g) * np.sign(total)
            * np.where(poly & (ap % 2.0 == 1.0), -1.0, 1.0))
    return sign, log


def log_laplace_bessel_moment_scaled(p, nu: float, s, c):
    """log of e^{-c^2/s} times the moment integral behind every Bessel-kernel
    expectation, integral_0^inf y^p e^{-s y} I_nu(2 c sqrt(y)) dy =
    c^nu Gamma(q) / (Gamma(nu+1) s^q) 1F1(q, nu + 1, c^2 / s), q = p + nu/2 + 1.
    As log_bessel_ive leaves out e^z, this leaves out the e^{c^2/s} that 1F1
    grows by (Kummer's transform leaves 1F1(nu + 1 - q, nu + 1, -c^2/s)), for
    callers to cancel against their own exponent.

    p, s and c may be float64 arrays, which broadcast: a column of p against
    a row of s and c gives one moment per (p, s) pair."""
    if type(p) is _NDARRAY or type(s) is _NDARRAY or type(c) is _NDARRAY:
        return log_laplace_bessel_moments(laplace_bessel_terms(p, nu), s, c)
    q = p + 0.5 * nu + 1.0
    # the float path where c^2/s < 1e300, so that it cannot overflow
    if (1e-100 < s < math.inf and 0.0 < c < 1e100 and 0.0 < q < math.inf
            and (nu > -1.0 or not _is_nonpositive_integer(nu + 1.0))):
        a = nu + 1.0 - q  # 0 for the moments of most catalog kernels: 1F1 = 1
        return (nu * math.log(c) + math.lgamma(q) - math.lgamma(nu + 1.0) - q * math.log(s)
                + (log_hypergeom_1f1(a, nu + 1.0, -(c * c / s)) if a else 0.0))
    return float(log_laplace_bessel_moments(laplace_bessel_terms(np.array([p], float), nu),
                                            np.array([s], float), np.array([c], float))[0])


class LaplaceBesselTerms(NamedTuple):
    """What the moment (log_laplace_bessel_moment_scaled) takes from p and nu
    alone, for a float or float64 array p, with a log weight per p: q = p +
    nu/2 + 1, 1F1's first parameter nu + 1 - q, lg = lgamma(q) and lg_nu =
    lgamma(nu + 1) (with a weight, lg = log weight + lgamma(q) - lgamma(nu +
    1) and lg_nu = 0), and the smallest and largest p (None for an empty p).
    A series of moments at many (s, c) forms them once
    (laplace_bessel_terms); log_laplace_bessel_moments checks them at each
    call."""
    nu: float
    p: object
    q: object
    a: object
    lg: object
    lg_nu: float
    p_lo: Optional[float]
    p_hi: Optional[float]


def _lgamma(v):
    """log|Gamma(v)|, nan at a pole, of a float or a float64 array."""
    if type(v) is _NDARRAY:
        return sc.gammaln(v)
    try:
        return math.lgamma(v)
    except ValueError:  # a pole, which the moment refuses when called
        return math.nan
    except OverflowError:  # v beyond about 1e305
        return math.inf


def laplace_bessel_terms(p, nu: float, log_weight=None) -> LaplaceBesselTerms:
    """LaplaceBesselTerms of p and nu, and of log_weight (a float or an
    array like p; None for weight 1); raises nothing (the checks are made
    where the moment is taken), so that a series can form its terms ahead."""
    q = p + 0.5 * nu + 1.0
    if type(p) is not _NDARRAY:
        lo = hi = p
    elif p.size:
        lo, hi = float(_MIN(p, None)), float(_MAX(p, None))
    else:
        lo = hi = None
    lg, lg_nu = _lgamma(q), _lgamma(nu + 1.0)
    if log_weight is not None:  # -inf where a term is 0; lgamma(nu + 1) goes in too
        with np.errstate(invalid="ignore"):
            lg = log_weight + lg - lg_nu
        lg_nu = 0.0
    return LaplaceBesselTerms(nu, p, q, nu + 1.0 - q, lg, lg_nu, lo, hi)


def log_laplace_bessel_moments(terms: LaplaceBesselTerms, s, c) -> np.ndarray:
    """log_laplace_bessel_moment_scaled at every p of terms
    (laplace_bessel_terms) plus its log weight, for s and c floats or float64
    arrays that broadcast against p: every check, once per array by its
    smallest and largest element, and c = 0 by mask. Where c^2/s overflows,
    1F1 is its large-|z| expansion at log(c^2/s) = 2 log c - log s."""
    name = "laplace_bessel_moment"
    nu, p, lo, hi = terms.nu, terms.p, terms.p_lo, terms.p_hi
    _check_finite(name, nu)
    if lo is None:
        return np.empty(np.broadcast(p, s, c).shape)
    if not (-math.inf < lo and hi < math.inf):
        _raise_non_finite(name, lo, hi)
    bounds = _bounds(name, s, c)
    if bounds is None:
        return np.empty(np.broadcast(p, s, c).shape)
    (s_lo, s_hi), (c_lo, c_hi) = bounds
    if not (s_lo > 0 and c_lo >= 0 and lo + 0.5 * nu + 1.0 > 0):  # q <= 0: diverges
        raise DomainError(f"{name}: requires s > 0, c >= 0 and p + nu/2 + 1 > 0 "
                          f"(got p={lo}, nu={nu}, s={s_lo}, c={c_lo})")
    if nu <= -1.0 and _is_nonpositive_integer(nu + 1.0):
        raise PoleError(f"{name}: nu+1={nu+1} non-positive integer")
    if c_lo == 0.0:  # the moment at c = 0: 0 or inf relative to e^0
        zero = c == 0.0
        out = log_laplace_bessel_moments(terms, s, np.where(zero, 1.0, c))
        if nu == 0.0:
            return np.where(zero, terms.lg - terms.q * _log(s), out)  # lgamma(1) = 0
        return np.where(zero, -math.inf if nu > 0 else math.inf, out)
    log_c, log_s = _log(c), _log(s)
    w_hi, log_w = c_hi * c_hi / s_lo, None
    if w_hi < math.inf:
        z = -(c * c / s)
    else:  # the large-|z| expansion from log w, where w = c^2/s overflows to inf
        with np.errstate(over="ignore"):
            z = -(c * c / s)
        log_w = 2.0 * log_c - log_s
    head = nu * log_c + terms.lg
    if terms.lg_nu:  # a weighted series carries it in lg
        head = head - terms.lg_nu
    return (head - terms.q * log_s
            + _log_1f1(terms.a, nu + 1.0, z, c_lo * c_lo / s_hi < 2e-16, w_hi >= _Z_LARGE,
                       log_w))


def laplace_bessel_moment(p: float, nu: float, s: float, c: float) -> float:
    """The moment integral itself (see log_laplace_bessel_moment_scaled);
    EvalOverflowError where it exceeds double precision."""
    lg = log_laplace_bessel_moment_scaled(p, nu, s, c) + c * c / s
    if lg > 700.0:
        raise EvalOverflowError("laplace_bessel_moment: overflow; rescale the problem")
    return math.exp(lg)
