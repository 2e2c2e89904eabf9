"""Special-function kernels used by every closed-form density and expectation.

Thin, contract-enforcing layer over scipy.special: explicit domain/pole/overflow
errors instead of silent NaN/inf, scaled and log-domain variants for the Bessel
functions (densities routinely multiply a huge I_nu by a tiny exponential), and
the Whittaker pair assembled from the Kummer functions.

All functions are pure.
"""

from __future__ import annotations

import math

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
]


def _check_finite(name: str, *vals: float) -> None:
    for v in vals:
        if not math.isfinite(v):
            raise DomainError(f"{name}: non-finite argument {v!r}")


def bessel_i(nu: float, z: float, *, scaled: bool = False) -> float:
    """Modified Bessel function of the first kind I_nu(z), z >= 0.

    scaled=True returns e^{-z} I_nu(z) (finite for arbitrarily large z).
    Unscaled overflow raises EvalOverflowError rather than returning inf.
    """
    _check_finite("bessel_i", nu, z)
    if z < 0:
        raise DomainError("bessel_i: z must be >= 0")
    out = _ive(nu, z) if scaled else float(sc.iv(nu, z))
    if math.isinf(out):
        raise EvalOverflowError(
            f"bessel_i: I_{nu}({z}) overflows double precision; use scaled=True")
    if math.isnan(out):
        if scaled:
            return _ive_large_z(nu, z)
        raise ConvergenceError(f"bessel_i: evaluation failed at nu={nu}, z={z}")
    return out


def _ive(nu: float, z: float) -> float:
    """e^{-z} I_nu(z). scipy's ive is off by up to 6e-14 relative at
    non-integer nu; below z = 700, wherever scipy's iv is finite, iv times
    exp(-z) is within about 2e-15 of mpmath."""
    if z < 700.0:
        out = cython_special.iv(float(nu), float(z))
        if math.isfinite(out):
            return out * math.exp(-z)
    return float(sc.ive(nu, z))


def _ive_large_z(nu: float, z: float) -> float:
    """e^{-z} I_nu(z) by the large-argument expansion (DLMF 10.40.1), for z
    beyond scipy's ive (NaN from about 1e9 on). Raises ConvergenceError where
    the series does not settle (small z, or nu^2 comparable to z)."""
    mu = 4.0 * nu * nu
    term = total = 1.0
    for k in range(1, 30):
        term *= -(mu - (2 * k - 1) ** 2) / (8.0 * k * z)
        total += term
        if abs(term) <= 1e-17 * abs(total):
            return total / math.sqrt(2.0 * math.pi * z)
    raise ConvergenceError(f"bessel_i: evaluation failed at nu={nu}, z={z}")


def _log_ive_series(nu: float, z: float) -> float:
    """log(e^{-z} I_nu(z)) from the ascending series (DLMF 10.25.2), nu > -1,
    for where e^{-z} I_nu(z) is below 1e-300 and scipy underflows or keeps
    too few digits. All terms are positive; the sum is carried as
    total * e^shift so that it cannot overflow."""
    q = 0.25 * z * z
    term = total = 1.0
    shift = 0.0
    for k in range(1, 10000):
        term *= q / (k * (k + nu))
        total += term
        if term <= 1e-17 * total:
            return (nu * math.log(0.5 * z) - float(sc.gammaln(nu + 1.0))
                    + shift + math.log(total) - z)
        if total > 1e300:
            shift += math.log(total)
            term /= total
            total = 1.0
    raise ConvergenceError(f"log_bessel_i: series failed at nu={nu}, z={z}")


def log_bessel_i(nu: float, z: float) -> float:
    """log I_nu(z) for z > 0 (computed as log(ive) + z, overflow-safe).

    Only valid where I_nu(z) > 0, i.e. nu >= 0 or z large enough for
    negative non-integer orders; returns -inf on underflow at z=0+.
    """
    return log_bessel_ive(nu, z) + z


def log_bessel_ive(nu: float, z: float) -> float:
    """log(e^{-z} I_nu(z)) = log I_nu(z) - z, without forming either term.

    For kernels whose exponent carries -z: adding log I_nu(z) and the
    exponent as two numbers of size z loses about z*1e-16 absolutely.
    Same domain and errors as log_bessel_i.
    """
    _check_finite("log_bessel_i", nu, z)
    if z < 0:
        raise DomainError("log_bessel_i: z must be >= 0")
    if z == 0.0:
        if nu == 0.0:
            return 0.0
        if nu > 0:
            return -math.inf
        raise DomainError("log_bessel_i: I_nu(0) undefined for nu < 0")
    scaled = _ive(nu, z)
    if not scaled > 1e-300:
        if math.isnan(scaled):
            return math.log(_ive_large_z(nu, z))
        if scaled >= 0.0:  # underflow, or too few digits left
            if nu > -1:
                return _log_ive_series(nu, z)
            raise ConvergenceError(f"log_bessel_i: underflow at nu={nu}, z={z}")
        raise DomainError(f"log_bessel_i: I_{nu}({z}) < 0, log undefined")
    return math.log(scaled)


def bessel_k(nu: float, z: float, *, scaled: bool = False) -> float:
    """Modified Bessel function of the second kind K_nu(z), z > 0.

    scaled=True returns e^{z} K_nu(z).
    """
    _check_finite("bessel_k", nu, z)
    if z <= 0:
        raise DomainError("bessel_k: z must be > 0")
    out = float(sc.kve(nu, z)) if scaled else float(sc.kv(nu, z))
    if math.isnan(out):
        raise ConvergenceError(f"bessel_k: evaluation failed at nu={nu}, z={z}")
    if math.isinf(out):
        raise EvalOverflowError(f"bessel_k: K_{nu}({z}) overflows; use scaled=True")
    return out


def _is_nonpositive_integer(b: float, tol: float = 1e-12) -> bool:
    return b <= tol and abs(b - round(b)) < tol


def hypergeom_1f1(a: float, b: float, z: float) -> float:
    """Kummer's confluent hypergeometric function 1F1(a, b, z)."""
    _check_finite("hypergeom_1f1", a, b, z)
    if _is_nonpositive_integer(b):
        raise PoleError(f"hypergeom_1f1: b={b} is a non-positive integer (parameter pole)")
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


def tricomi_u(a: float, b: float, z: float) -> float:
    """Tricomi's confluent hypergeometric function U(a, b, z), principal branch z > 0.

    Satisfies z^a U(a, b, z) -> 1 as z -> +inf.
    """
    _check_finite("tricomi_u", a, b, z)
    if z <= 0:
        raise DomainError("tricomi_u: z must be > 0 (principal branch only)")
    out = float(sc.hyperu(a, b, z))
    if math.isnan(out):
        raise ConvergenceError(f"tricomi_u: evaluation failed at ({a}, {b}, {z})")
    return out


def whittaker_m(k: float, m: float, z: float) -> float:
    """Whittaker function M_{k,m}(z) = e^{-z/2} z^{m+1/2} 1F1(m-k+1/2, 1+2m, z), z > 0."""
    _check_finite("whittaker_m", k, m, z)
    if z <= 0:
        raise DomainError("whittaker_m: z must be > 0")
    if _is_nonpositive_integer(1.0 + 2.0 * m):
        raise PoleError(f"whittaker_m: 1+2m={1+2*m} is a non-positive integer")
    f = hypergeom_1f1(m - k + 0.5, 1.0 + 2.0 * m, z)
    # assemble in log domain when the pieces would overflow individually
    sign = math.copysign(1.0, f)
    if f == 0.0:
        return 0.0
    lg = -0.5 * z + (m + 0.5) * math.log(z) + math.log(abs(f))
    if lg > 700.0:
        raise EvalOverflowError(f"whittaker_m: overflow at k={k}, m={m}, z={z}")
    return sign * math.exp(lg)


def whittaker_w(k: float, m: float, z: float) -> float:
    """Whittaker function W_{k,m}(z) = e^{-z/2} z^{m+1/2} U(m-k+1/2, 1+2m, z), z > 0.

    Equal to the standard combination of M_{k,+-m}; evaluated through the
    Tricomi function to stay finite at half-integer m where the combination's
    Gamma factors hit poles.
    """
    _check_finite("whittaker_w", k, m, z)
    if z <= 0:
        raise DomainError("whittaker_w: z must be > 0")
    u = tricomi_u(m - k + 0.5, 1.0 + 2.0 * m, z)
    if u == 0.0:
        return 0.0
    sign = math.copysign(1.0, u)
    lg = -0.5 * z + (m + 0.5) * math.log(z) + math.log(abs(u))
    if lg > 700.0:
        raise EvalOverflowError(f"whittaker_w: overflow at k={k}, m={m}, z={z}")
    return sign * math.exp(lg)


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


def log_hypergeom_1f1(a: float, b: float, z: float) -> float:
    """log 1F1(a, b, z) where 1F1(a, b, z) > 0; where the direct value
    overflows or fails, by Kummer's transform 1F1(a, b, z) = e^z 1F1(b-a, b, -z)."""
    _check_finite("log_hypergeom_1f1", a, b, z)
    if a == 0.0:  # 1F1(0, b, z) = 1: the moments of most catalog kernels
        return 0.0
    try:
        f = hypergeom_1f1(a, b, z)
        if f > 0.0:
            return math.log(f)
    except (EvalOverflowError, ConvergenceError):
        pass
    f = hypergeom_1f1(b - a, b, -z)
    if not f > 0.0:
        raise DomainError(f"log_hypergeom_1f1: 1F1({a}, {b}, {z}) <= 0, log undefined")
    return z + math.log(f)


def log_laplace_bessel_moment_scaled(p: float, nu: float, s: float, c: float) -> float:
    """log of e^{-c^2/s} times the moment integral behind every Bessel-kernel
    expectation, integral_0^inf y^p e^{-s y} I_nu(2 c sqrt(y)) dy =
    c^nu Gamma(q) / (Gamma(nu+1) s^q) 1F1(q, nu + 1, c^2 / s), q = p + nu/2 + 1.
    As log_bessel_ive leaves out e^z, this leaves out the e^{c^2/s} that 1F1
    grows by (Kummer's transform leaves 1F1(nu + 1 - q, nu + 1, -c^2/s)), for
    callers to cancel against their own exponent."""
    _check_finite("laplace_bessel_moment", p, nu, s, c)
    q = p + 0.5 * nu + 1.0
    if not (s > 0 and c >= 0 and q > 0):  # q <= 0: the integral diverges
        raise DomainError("laplace_bessel_moment: requires s > 0, c >= 0 and "
                          f"p + nu/2 + 1 > 0 (got p={p}, nu={nu}, s={s}, c={c})")
    if nu <= -1.0 and _is_nonpositive_integer(nu + 1.0):
        raise PoleError(f"laplace_bessel_moment: nu+1={nu+1} non-positive integer")
    if c == 0.0:
        if nu != 0.0:
            return -math.inf if nu > 0 else math.inf
        return math.lgamma(q) - q * math.log(s)
    w = c * c / s
    return (nu * math.log(c) + math.lgamma(q) - math.lgamma(nu + 1.0) - q * math.log(s)
            + log_hypergeom_1f1(nu + 1.0 - q, nu + 1.0, -w))


def laplace_bessel_moment(p: float, nu: float, s: float, c: float) -> float:
    """The moment integral itself (see log_laplace_bessel_moment_scaled);
    EvalOverflowError where it exceeds double precision."""
    lg = log_laplace_bessel_moment_scaled(p, nu, s, c) + c * c / s
    if lg > 700.0:
        raise EvalOverflowError("laplace_bessel_moment: overflow; rescale the problem")
    return math.exp(lg)
