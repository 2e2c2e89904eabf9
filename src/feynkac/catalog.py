"""Worked diffusions with closed-form kernels, transforms and expectations.

Each entry binds a diffusion (drift, diffusion power gamma, sigma) and a
killing potential to:

  * a fundamental-solution kernel q(t, x, y) = continuous part + boundary
    atoms at y = 0 (a Dirac mass, sometimes a Dirac-derivative term);
  * the closed-form right-hand side of its generalized Laplace transform
    identity, when the symmetry provides one;
  * a closed-form expectation E_x[exp(-lambda*X_t^m - functionals)] where
    available, with a quadrature fallback.

Kernels evaluate in the log domain wherever they are positive, so small-t
Bessel factors do not overflow.

Entries
-------
besq                squared Bessel process, killing mu*x + nu/x
bessel              Bessel process with drift a/x, killing mu/(4x^2)
bessel_drift        Bessel process with Bessel-ratio drift, killing mu/x^2
cir                 mean-reverting square-root process, killing mu/x + mu_lin*x
rational_drift      drift 2ax/(2+ax), killing mu*x (atom) or mu_inv/x
tanh_drift          drift 2x*tanh(x), killing mu*x (atom)
radial_ou           radial Ornstein-Uhlenbeck, killing mu*x^2
rational_showcase   drift 3-4b/(b+ax^2), no killing; Dirac + Dirac' atoms
sqrt_drift          drift a-b*sqrt(x) with the induced computable potential
generic_linear      constructed drifts, linear Riccati family, killing mu/x
generic_quadratic   affine drift a-bx, quadratic family, killing mu*x

The rational_showcase entry is structural: its kernel is a fundamental
solution whose probabilistic meaning is unclear (the drift can push the state
negative), and its Dirac-derivative atom is carried with signed weight and
excluded from mass accounting.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Dict, Mapping, Optional, Tuple

from scipy import integrate

from .errors import (
    CapabilityError,
    ConvergenceError,
    DomainError,
    EvalOverflowError,
    ValidityError,
)
from . import specfun
from .riccati import DiffusionSpec, PotentialSpec
from .symmetry import StationarySolution

__all__ = [
    "AtomSpec",
    "Kernel",
    "CatalogEntry",
    "ENTRY_NAMES",
    "make_entry",
    "density",
    "transform_rhs",
    "expectation",
    "joint_laplace_in_mu",
    "manifest",
]


@dataclass(frozen=True)
class AtomSpec:
    """Boundary atom at y = location. order 0 is a Dirac mass (weight must lie
    in [0,1] for density entries); order 1 is a Dirac derivative, carried with
    signed weight and never counted as probability."""

    weight: Callable[[float, float], float]  # (t, x) -> weight
    order: int = 0
    location: float = 0.0


@dataclass(frozen=True)
class Kernel:
    """Continuous kernel part plus atoms. log_continuous is None only for
    kernels that can take negative values (finite-part cases)."""

    continuous: Callable[[float, float, float], float]
    log_continuous: Optional[Callable[[float, float, float], float]]
    atoms: Tuple[AtomSpec, ...] = ()


@dataclass(frozen=True)
class CatalogEntry:
    """A built entry. make_entry shares one instance among all callers with
    equal parameters, so params is a read-only mapping."""

    name: str
    params: Mapping[str, float]
    diffusion: DiffusionSpec
    potential: PotentialSpec
    kernel: Kernel
    u0: Optional[StationarySolution]
    transform_rhs: Optional[Callable[[float, float, float], float]]  # (lam,t,x)
    expectation_closed: Optional[Callable[[float, float, float], float]]  # (lam,t,x)
    state_power: float = 1.0  # expectations/transforms weight exp(-lam*y^state_power)
    functional_param: str = ""  # which param is the Laplace variable of the functional
    notes: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))


def _log_i(nu: float, z: float) -> float:
    return specfun.log_bessel_i(nu, z)


def _kernel(logf, atoms=()) -> Kernel:
    def cont(t: float, x: float, y: float) -> float:
        return math.exp(logf(t, x, y))
    return Kernel(continuous=cont, log_continuous=logf, atoms=tuple(atoms))


def _check_positive(name: str, **vals: float) -> None:
    for k, v in vals.items():
        if not v > 0:
            raise ValidityError(f"{name}: requires {k} > 0 (got {v})")


def _check_nonneg(name: str, **vals: float) -> None:
    for k, v in vals.items():
        if v < 0:
            raise ValidityError(f"{name}: requires {k} >= 0 (got {v})")


# ---------------------------------------------------------------------------
# entry 1: squared Bessel process
# ---------------------------------------------------------------------------

def _make_besq(n: float, mu: float = 0.0, nu: float = 0.0,
               b: Optional[float] = None) -> CatalogEntry:
    """dX = n dt + 2 sqrt(X) dW; killing g(x) = mu*x + nu/x.

    b is a convenience alias: b > 0 sets mu = b^2/2.

    Kernel: Bessel-type with index-shift absorbing both killings; the mu > 0
    case needs n >= 2 (the C2 = 0 branch is the transition density only
    there). Expectations: a regular-Kummer formula for mu = 0, a cosh/sinh
    formula for nu = 0, and a Laplace-Bessel moment for the joint case.
    """
    if b is not None:
        if mu:
            raise ValidityError("besq: give either mu or its alias b, not both")
        mu = 0.5 * b * b
    _check_positive("besq", n=n)
    _check_nonneg("besq", mu=mu, nu=nu)
    if mu > 0 and n < 2:
        raise ValidityError("besq: the mu*x killing kernel requires n >= 2")
    w = 0.5 * math.sqrt((n - 2.0) ** 2 + 8.0 * nu)  # Bessel index
    d = 0.25 * (2.0 - n) + 0.5 * w  # growth exponent of the stationary branch
    b = math.sqrt(2.0 * mu)

    diff = DiffusionSpec(gamma=1.0, sigma=2.0, drift=lambda x: n,
                         drift_derivative=lambda x: 0.0,
                         drift_antiderivative=lambda x: n * math.log(x),
                         label="besq")
    pot = PotentialSpec(form="inverse_plus_linear", mu=mu, nu_coeff=nu) \
        if (mu or nu) else PotentialSpec(form="zero")

    def _rates(t: float) -> Tuple[float, float, float]:
        """(log prefactor, exponential rate, Bessel argument scale /sqrt(y))."""
        if mu == 0.0:
            return -math.log(2.0 * t), 0.5 / t, 1.0 / t
        bt = b * t
        return (math.log(b) - math.log(2.0 * math.sinh(bt)),
                0.5 * b / math.tanh(bt), b / math.sinh(bt))

    def log_p(t: float, x: float, y: float) -> float:
        lg_pref, rate, bessel_scale = _rates(t)
        return (lg_pref + 0.25 * (n - 2.0) * (math.log(y) - math.log(x))
                - rate * (x + y) + _log_i(w, bessel_scale * math.sqrt(x * y)))

    def u0_log(y: float) -> float:
        return d * math.log(y)

    u0 = StationarySolution(eval=lambda y: y ** d, log_eval=u0_log,
                            description=f"power branch y^{d:.6g}",
                            limit_at_mu_zero="constant_one" if (n >= 2 or nu > 0)
                            else "nonconstant")

    def t_rhs(lam: float, t: float, x: float) -> float:
        # integral of exp(-lam*y) y^d against the kernel (no mu*x killing)
        if mu != 0.0:
            raise CapabilityError("besq: transform identity available for mu = 0 only")
        den = 1.0 + 2.0 * lam * t
        if den <= 0:
            raise DomainError("besq transform: 1 + 2*lam*t must be > 0")
        return x ** d * den ** (-(2.0 * d + 0.5 * n)) * math.exp(-lam * x / den)

    def expect(lam: float, t: float, x: float) -> float:
        if lam < 0:
            raise DomainError("besq expectation: lam >= 0 required")
        if mu == 0.0:
            alpha, beta = d + 0.5 * n, 2.0 * d + 0.5 * n
            z = x / (2.0 * t + 4.0 * t * t * lam)
            lg = (-x / (2.0 * t) + d * (math.log(x) - math.log(2.0 * t))
                  + specfun.gamma_ln(alpha) - specfun.gamma_ln(beta)
                  - alpha * math.log1p(2.0 * lam * t))
            return math.exp(lg) * specfun.hypergeom_1f1(alpha, beta, z)
        if nu == 0.0:
            cth = 1.0 / math.tanh(b * t)
            num = -(x * b / 2.0) * (1.0 + 2.0 * lam * cth / b) / (cth + 2.0 * lam / b)
            den = math.cosh(b * t) + (2.0 * lam / b) * math.sinh(b * t)
            return math.exp(num) / den ** (0.5 * n)
        lg_pref, rate, bessel_scale = _rates(t)
        q = 0.25 * (n - 2.0)
        c = 0.5 * bessel_scale * math.sqrt(x)
        val = specfun.laplace_bessel_moment(q, w, lam + rate, c)
        return math.exp(lg_pref - q * math.log(x) - rate * x) * val

    return CatalogEntry(
        name="besq", params={"n": n, "mu": mu, "nu": nu},
        diffusion=diff, potential=pot, kernel=_kernel(log_p),
        u0=u0, transform_rhs=t_rhs, expectation_closed=expect,
        state_power=1.0, functional_param="nu" if nu else "mu",
        notes="mu*x killing requires n >= 2; nu/x killing shifts the Bessel index")


def besq_cosh_variant(t: float, x: float, y: float) -> float:
    """The n=3 companion kernel with cosh in place of sinh: a fundamental
    solution that is NOT a transition density (its total mass differs from 1
    and its Cauchy solutions are discontinuous at the origin)."""
    return math.exp(-(x + y) / (2.0 * t)) * math.cosh(math.sqrt(x * y) / t) \
        / math.sqrt(2.0 * math.pi * t * x)


def besq_cosh_mass(t: float, x: float) -> float:
    """Closed-form total mass of the cosh companion kernel."""
    return math.sqrt(2.0 * t / (math.pi * x)) * math.exp(-x / (2.0 * t)) \
        + specfun.erf(math.sqrt(x / (2.0 * t)))


def besq_cosh_transform_rhs(lam: float, t: float, x: float) -> float:
    """Laplace transform of the cosh companion against y^{-1/2}."""
    den = 1.0 + 2.0 * lam * t
    return x ** -0.5 * den ** -0.5 * math.exp(-lam * x / den)


def besq3_sinh_density(t: float, x: float, y: float) -> float:
    """The n=3 transition density in its elementary sinh form."""
    return math.exp(-(x + y) / (2.0 * t)) * math.sinh(math.sqrt(x * y) / t) \
        / math.sqrt(2.0 * math.pi * t * x)


# ---------------------------------------------------------------------------
# entry 2: Bessel process with drift a/x
# ---------------------------------------------------------------------------

def _make_bessel(a: float, mu: float = 0.0) -> CatalogEntry:
    """dX = (a/X) dt + dW; killing g(x) = mu/(4x^2). gamma=0, sigma=1/2."""
    if not a > 0.5:
        raise ValidityError("bessel: requires a > 1/2")
    _check_nonneg("bessel", mu=mu)
    d = 0.5 - a + math.sqrt(0.5 * mu + (a - 0.5) ** 2)
    nu_ix = d + a + 0.5

    diff = DiffusionSpec(gamma=0.0, sigma=0.5, drift=lambda x: a / x,
                         drift_derivative=lambda x: -a / (x * x),
                         drift_antiderivative=lambda x: a * math.log(x),
                         label="bessel")
    pot = PotentialSpec(form="power", mu=mu / 4.0, n=-2.0) if mu \
        else PotentialSpec(form="zero")

    def log_p(t: float, x: float, y: float) -> float:
        return (math.log(y) - math.log(t) + (a - 0.5) * (math.log(y) - math.log(x))
                - (x * x + y * y) / (2.0 * t) + _log_i(nu_ix - 1.0, x * y / t))

    u0 = StationarySolution(eval=lambda y: y ** d,
                            log_eval=lambda y: d * math.log(y),
                            description=f"power branch y^{d:.6g}",
                            limit_at_mu_zero="constant_one")

    def t_rhs(lam: float, t: float, x: float) -> float:
        den = 1.0 + 2.0 * lam * t
        if den <= 0:
            raise DomainError("bessel transform: 1 + 2*lam*t must be > 0")
        return x ** d * den ** (-nu_ix) * math.exp(-lam * x * x / den)

    def expect(lam: float, t: float, x: float) -> float:
        # E_x[exp(-lam*X_t^2 - (mu/4) int ds/X_s^2)]
        alpha = 0.25 * (1.0 + 2.0 * a + 2.0 * nu_ix)
        z = x * x / (2.0 * t + 4.0 * t * t * lam)
        lg = (-x * x / (2.0 * t) + 0.5 * d * (2.0 * math.log(x) - math.log(2.0 * t))
              + specfun.gamma_ln(alpha) - specfun.gamma_ln(nu_ix)
              - alpha * math.log1p(2.0 * t * lam))
        return math.exp(lg) * specfun.hypergeom_1f1(alpha, nu_ix, z)

    return CatalogEntry(
        name="bessel", params={"a": a, "mu": mu},
        diffusion=diff, potential=pot, kernel=_kernel(log_p),
        u0=u0, transform_rhs=t_rhs, expectation_closed=expect,
        state_power=2.0, functional_param="mu",
        notes="expectation weight is exp(-lam*X_t^2); an independent integral "
              "representation of the same expectation is used as a cross-check")


# ---------------------------------------------------------------------------
# entry 3: Bessel process with Bessel-ratio drift
# ---------------------------------------------------------------------------

def _make_bessel_drift(a: float, b: float, mu: float = 0.0) -> CatalogEntry:
    """dX = ((a+1/2)/X + b*I_{a+1}(bX)/I_a(bX)) dt + dW; killing mu/x^2."""
    if not a > -1.0:
        raise ValidityError("bessel_drift: requires a > -1")
    _check_positive("bessel_drift", b=b)
    _check_nonneg("bessel_drift", mu=mu)
    atil = math.sqrt(a * a + 2.0 * mu)

    def _ratio(z: float) -> float:
        return math.exp(_log_i(a + 1.0, z) - _log_i(a, z))

    def drift(x: float) -> float:
        return (a + 0.5) / x + b * _ratio(b * x)

    def drift_derivative(x: float) -> float:
        z = b * x
        r = _ratio(z)
        # ratio' = 1 - (2a+1) ratio / z - ratio^2, from the index recurrences
        return -(a + 0.5) / (x * x) \
            + b * b * (1.0 - (2.0 * a + 1.0) * r / z - r * r)

    def F(x: float) -> float:
        return 0.5 * math.log(x) + _log_i(a, b * x)

    diff = DiffusionSpec(gamma=0.0, sigma=0.5, drift=drift,
                         drift_derivative=drift_derivative,
                         drift_antiderivative=F, label="bessel_drift")
    pot = PotentialSpec(form="power", mu=mu, n=-2.0) if mu \
        else PotentialSpec(form="zero")

    def log_p(t: float, x: float, y: float) -> float:
        return (math.log(y) + _log_i(a, b * y) - _log_i(a, b * x) - math.log(t)
                - (x * x + y * y) / (2.0 * t) - 0.5 * b * b * t
                + _log_i(atil, x * y / t))

    def u0_log(y: float) -> float:
        return _log_i(atil, b * y) - _log_i(a, b * y)

    u0 = StationarySolution(eval=lambda y: math.exp(u0_log(y)), log_eval=u0_log,
                            description=f"Bessel-ratio branch index {atil:.6g}/{a:.6g}",
                            limit_at_mu_zero="constant_one")

    def t_rhs(lam: float, t: float, x: float) -> float:
        den = 1.0 + 2.0 * lam * t
        if den <= 0:
            raise DomainError("bessel_drift transform: 1 + 2*lam*t must be > 0")
        lg = (-lam * (b * b * t * t + x * x) / den - math.log(den)
              + _log_i(atil, b * x / den) - _log_i(a, b * x))
        return math.exp(lg)

    return CatalogEntry(
        name="bessel_drift", params={"a": a, "b": b, "mu": mu},
        diffusion=diff, potential=pot, kernel=_kernel(log_p),
        u0=u0, transform_rhs=t_rhs, expectation_closed=None,
        state_power=2.0, functional_param="mu",
        notes="no closed-form Laplace expectation; quadrature fallback only")


# ---------------------------------------------------------------------------
# entry 4: mean-reverting square-root process
# ---------------------------------------------------------------------------

def _make_cir(a: float, b: float, sigma: float, mu: float = 0.0,
              mu_lin: float = 0.0) -> CatalogEntry:
    """dX = (a - bX) dt + sqrt(2 sigma X) dW; killing mu/x + mu_lin*x."""
    _check_positive("cir", a=a, b=b, sigma=sigma)
    _check_nonneg("cir", mu=mu, mu_lin=mu_lin)
    A = b * b + 4.0 * mu_lin * sigma
    rA = math.sqrt(A)
    B = -a * b
    nu_ix = math.sqrt((a - sigma) ** 2 + 4.0 * mu * sigma) / sigma

    diff = DiffusionSpec(gamma=1.0, sigma=sigma, drift=lambda x: a - b * x,
                         drift_derivative=lambda x: -b,
                         drift_antiderivative=lambda x: a * math.log(x) - b * x,
                         label="cir")
    if mu or mu_lin:
        pot = PotentialSpec(form="inverse_plus_linear", nu_coeff=mu, mu=mu_lin)
    else:
        pot = PotentialSpec(form="zero")

    def log_p(t: float, x: float, y: float) -> float:
        sh = math.sinh(0.5 * rA * t)
        th = math.tanh(0.5 * rA * t)
        F = diff.drift_antiderivative
        return (0.5 * (math.log(A) + math.log(x) - math.log(y))
                - math.log(2.0 * sigma * sh)
                + (F(y) - F(x) - B * t) / (2.0 * sigma)
                - rA * (x + y) / (2.0 * sigma * th)
                + _log_i(nu_ix, rA * math.sqrt(x * y) / (sigma * sh)))

    def expect(lam: float, t: float, x: float) -> float:
        # E_x[exp(-lam*X_t - mu int ds/X_s)], closed Whittaker form (mu_lin=0)
        if mu_lin != 0.0:
            raise CapabilityError("cir: closed-form expectation requires mu_lin = 0")
        if lam < 0:
            raise DomainError("cir expectation: lam >= 0 required")
        k = a / (2.0 * sigma)
        alph = (b / (2.0 * sigma)) * (1.0 + 1.0 / math.tanh(0.5 * b * t)) + lam
        beta = b * math.sqrt(x) / (2.0 * sigma * math.sinh(0.5 * b * t))
        z = beta * beta / alph
        lg = (specfun.gamma_ln(k + 0.5 * nu_ix + 0.5) - specfun.gamma_ln(nu_ix + 1.0)
              + (b / (2.0 * sigma)) * (a * t + x - x / math.tanh(0.5 * b * t))
              - k * (math.log(alph) + math.log(x)) + 0.5 * z)
        return math.exp(lg) * specfun.whittaker_m(-k, 0.5 * nu_ix, z)

    return CatalogEntry(
        name="cir", params={"a": a, "b": b, "sigma": sigma, "mu": mu,
                            "mu_lin": mu_lin},
        diffusion=diff, potential=pot, kernel=_kernel(log_p),
        u0=None, transform_rhs=None, expectation_closed=expect,
        state_power=1.0, functional_param="mu",
        notes="kernel covers mu/x, mu_lin*x and joint killing; the closed "
              "expectation covers mu/x only")


# ---------------------------------------------------------------------------
# entry 5: drift 2ax/(2+ax)
# ---------------------------------------------------------------------------

def _make_rational_drift(a: float, mu: float = 0.0,
                         mu_inv: float = 0.0) -> CatalogEntry:
    """dX = 2aX/(2+aX) dt + sqrt(2X) dW.

    Killing mu*x: kernel with a Dirac mass at y=0 whose weight is twice the
    unit-parameter symmetry orbit of the decaying stationary branch (the
    branch value at 0+ is 1/2).
    Killing mu_inv/x: pointwise kernel whose second term is a finite-part
    distribution near y=0; quadrature-based operations are not offered.
    """
    _check_positive("rational_drift", a=a)
    _check_nonneg("rational_drift", mu=mu, mu_inv=mu_inv)
    if mu > 0 and mu_inv > 0:
        raise ValidityError("rational_drift: choose mu*x or mu_inv/x killing, not both")

    diff = DiffusionSpec(gamma=1.0, sigma=1.0,
                         drift=lambda x: 2.0 * a * x / (2.0 + a * x),
                         drift_derivative=lambda x: 4.0 * a / (2.0 + a * x) ** 2,
                         drift_antiderivative=lambda x: 2.0 * math.log(2.0 + a * x),
                         label="rational_drift")

    if mu_inv > 0.0:
        return _rational_drift_inverse(a, mu_inv, diff)

    rmu = math.sqrt(mu)
    pot = PotentialSpec(form="power", mu=mu, n=1.0) if mu else PotentialSpec(form="zero")

    def log_u1(t: float, x: float) -> float:
        # unit-parameter symmetry orbit of u0 = exp(-sqrt(mu)x)/(2+ax)
        if mu == 0.0:
            return -x / t - math.log(2.0 + a * x)
        em1 = math.expm1(2.0 * rmu * t)
        return -rmu * x - 2.0 * rmu * x / em1 - math.log(2.0 + a * x)

    def log_p(t: float, x: float, y: float) -> float:
        if mu == 0.0:
            return (math.log(2.0 + a * y) - math.log(2.0 + a * x)
                    - (x + y) / t + 0.5 * (math.log(x) - math.log(y))
                    - math.log(t) + _log_i(1.0, 2.0 * math.sqrt(x * y) / t))
        em1 = math.expm1(2.0 * rmu * t)
        sh = math.sinh(rmu * t)
        return (math.log(2.0 + a * y) - math.log(2.0 + a * x)
                + rmu * (y - x) - 2.0 * rmu * (x + y * (em1 + 1.0)) / em1
                + 0.5 * (math.log(mu) + math.log(x) - math.log(y))
                - math.log(sh) + _log_i(1.0, 2.0 * math.sqrt(mu * x * y) / sh))

    atom = AtomSpec(weight=lambda t, x: 2.0 * math.exp(log_u1(t, x)), order=0)

    def u0_log(y: float) -> float:
        return -rmu * y - math.log(2.0 + a * y)

    u0 = StationarySolution(eval=lambda y: math.exp(u0_log(y)), log_eval=u0_log,
                            description="decaying exponential branch /(2+ay)",
                            limit_at_mu_zero="nonconstant")

    def t_rhs(lam: float, t: float, x: float) -> float:
        if lam < 0:
            raise DomainError("rational_drift transform: lam >= 0 required")
        if mu == 0.0:
            return math.exp(-lam * x / (1.0 + lam * t)) / (2.0 + a * x)
        em1 = math.expm1(2.0 * rmu * t)
        return math.exp(u0_log(x)) * math.exp(
            -2.0 * lam * rmu * x / (lam * em1 + 2.0 * rmu * (em1 + 1.0)))

    def expect(lam: float, t: float, x: float) -> float:
        # E_x[exp(-lam*X_t - mu int X_s ds)] = U1 * e^{z} * (2 + a c^2/s^2),
        # z = c^2/s, c^2 = mu*x/sinh^2, s = lam + sqrt(mu)*coth -- derived by
        # integrating the kernel brackets with the Laplace-Bessel moment.
        if lam < 0:
            raise DomainError("rational_drift expectation: lam >= 0 required")
        if mu == 0.0:
            c2, s = x / (t * t), lam + 1.0 / t
        else:
            sh = math.sinh(rmu * t)
            c2, s = mu * x / (sh * sh), lam + rmu / math.tanh(rmu * t)
        z = c2 / s
        return math.exp(log_u1(t, x) + z) * (2.0 + a * c2 / (s * s))

    return CatalogEntry(
        name="rational_drift", params={"a": a, "mu": mu, "mu_inv": 0.0},
        diffusion=diff, potential=pot,
        kernel=_kernel(log_p, atoms=(atom,)),
        u0=u0, transform_rhs=t_rhs, expectation_closed=expect,
        state_power=1.0, functional_param="mu",
        notes="Dirac mass at 0: weight is twice the unit symmetry orbit because "
              "the stationary branch has value 1/2 at the origin")


def _rational_drift_inverse(a: float, mu_inv: float,
                            diff: DiffusionSpec) -> CatalogEntry:
    root = math.sqrt(1.0 + 4.0 * mu_inv)
    if abs(root - round(root)) < 1e-12:
        raise CapabilityError(
            "rational_drift: mu_inv with integer sqrt(1+4*mu_inv) needs a "
            "distribution-order inverse transform that is not implemented")
    dp, dm = 0.5 * (1.0 + root), 0.5 * (1.0 - root)
    pot = PotentialSpec(form="power", mu=mu_inv, n=-1.0)

    def u0_val(y: float) -> float:
        return y ** dm * (2.0 + a * y ** root) / (2.0 + a * y)

    def g_term(rho: float, c: float, y: float) -> float:
        # (y/c)^{(rho-1)/2} I_{rho-1}(2 sqrt(c y)); finite-part kernel for rho<0
        return (y / c) ** (0.5 * (rho - 1.0)) * specfun.bessel_i(
            rho - 1.0, 2.0 * math.sqrt(c * y))

    def cont(t: float, x: float, y: float) -> float:
        c = x / (t * t)
        bracket = (a * x ** dp * t ** (-2.0 * dp) * g_term(2.0 * dp, c, y)
                   + 2.0 * x ** dm * t ** (-2.0 * dm) * g_term(2.0 * dm, c, y))
        return math.exp(-(x + y) / t) * bracket / ((2.0 + a * x) * u0_val(y))

    u0 = StationarySolution(eval=u0_val,
                            description="combined power branch (value 1 at mu_inv=0)",
                            limit_at_mu_zero="constant_one")

    def t_rhs(lam: float, t: float, x: float) -> float:
        den = 1.0 + lam * t
        if den <= 0:
            raise DomainError("rational_drift transform: 1 + lam*t must be > 0")
        return (a * x ** dp / den ** (2.0 * dp) + 2.0 * x ** dm / den ** (2.0 * dm)) \
            * math.exp(-lam * x / den) / (2.0 + a * x)

    def expect(lam: float, t: float, x: float) -> float:
        raise CapabilityError(
            "rational_drift: the mu_inv/x expectation needs finite-part "
            "integration that is not implemented")

    return CatalogEntry(
        name="rational_drift", params={"a": a, "mu": 0.0, "mu_inv": mu_inv},
        diffusion=diff, potential=pot,
        kernel=Kernel(continuous=cont, log_continuous=None),
        u0=u0, transform_rhs=t_rhs, expectation_closed=expect,
        state_power=1.0, functional_param="mu_inv",
        notes="finite-part kernel: pointwise values only; the second bracket "
              "term is non-integrable near y=0 and quadrature checks do not apply")


# ---------------------------------------------------------------------------
# entry 6: drift 2x tanh x
# ---------------------------------------------------------------------------

def _make_tanh_drift(mu: float = 0.0) -> CatalogEntry:
    """dX = 2X tanh(X) dt + sqrt(2X) dW; killing mu*x; Dirac mass at 0."""
    _check_nonneg("tanh_drift", mu=mu)
    k = math.sqrt(1.0 + mu)

    def F(x: float) -> float:
        # antiderivative of 2 tanh(x), overflow-safe
        return 2.0 * (abs(x) + math.log1p(math.exp(-2.0 * abs(x))) - math.log(2.0))

    diff = DiffusionSpec(gamma=1.0, sigma=1.0,
                         drift=lambda x: 2.0 * x * math.tanh(x),
                         drift_derivative=lambda x: 2.0 * math.tanh(x)
                         + 2.0 * x / math.cosh(x) ** 2,
                         drift_antiderivative=F, label="tanh_drift")
    pot = PotentialSpec(form="power", mu=mu, n=1.0) if mu else PotentialSpec(form="zero")

    def log_cosh(z: float) -> float:
        return abs(z) + math.log1p(math.exp(-2.0 * abs(z))) - math.log(2.0)

    def log_p(t: float, x: float, y: float) -> float:
        kt = k * t
        return (log_cosh(y) - log_cosh(x) - math.log(math.sinh(kt))
                - k * (x + y) / math.tanh(kt)
                + math.log(k) + 0.5 * (math.log(x) - math.log(y))
                + _log_i(1.0, 2.0 * k * math.sqrt(x * y) / math.sinh(kt)))

    def log_u1(t: float, x: float) -> float:
        return -k * x / math.tanh(k * t) - log_cosh(x)

    atom = AtomSpec(weight=lambda t, x: math.exp(log_u1(t, x)), order=0)

    def u0_log(y: float) -> float:
        return -k * y - log_cosh(y)

    u0 = StationarySolution(eval=lambda y: math.exp(u0_log(y)), log_eval=u0_log,
                            description="decaying branch exp(-ky)/cosh(y)",
                            limit_at_mu_zero="nonconstant")

    def t_rhs(lam: float, t: float, x: float) -> float:
        if lam < 0:
            raise DomainError("tanh_drift transform: lam >= 0 required")
        em1 = math.expm1(2.0 * k * t)
        return math.exp(u0_log(x)
                        - 2.0 * lam * k * x / (lam * em1 + 2.0 * k * (em1 + 1.0)))

    def expect(lam: float, t: float, x: float) -> float:
        # E_x[exp(-lam*X_t - mu int X_s ds)]; the two cosh exponentials each
        # integrate to a Laplace-Bessel moment in closed form.
        if lam < 0:
            raise DomainError("tanh_drift expectation: lam >= 0 required")
        kt = k * t
        csch = 1.0 / math.sinh(kt)
        u1 = math.exp(log_u1(t, x))
        a1 = k * k * x * csch / (k * math.cosh(kt) + (lam - 1.0) * math.sinh(kt))
        a2 = k * k * x * csch / (k * math.cosh(kt) + (lam + 1.0) * math.sinh(kt))
        return 0.5 * u1 * (math.exp(a1) + math.exp(a2))

    return CatalogEntry(
        name="tanh_drift", params={"mu": mu},
        diffusion=diff, potential=pot, kernel=_kernel(log_p, atoms=(atom,)),
        u0=u0, transform_rhs=t_rhs, expectation_closed=expect,
        state_power=1.0, functional_param="mu",
        notes="Dirac mass at 0 with weight equal to the unit symmetry orbit "
              "(the stationary branch has value 1 at the origin)")


# ---------------------------------------------------------------------------
# entry 7: radial Ornstein-Uhlenbeck process
# ---------------------------------------------------------------------------

def _make_radial_ou(a: float, b: float, mu: float = 0.0) -> CatalogEntry:
    """dX = (a/X + bX) dt + sqrt(2) dW; killing mu*x^2. gamma=0, sigma=1."""
    if not a > 0.5:
        raise ValidityError("radial_ou: requires a > 1/2")
    _check_nonneg("radial_ou", mu=mu)
    alpha = math.sqrt(b * b + 4.0 * mu)
    if alpha == 0.0:
        raise ValidityError("radial_ou: requires b != 0 or mu > 0")
    nu_ix = 0.5 * (a + 1.0)

    diff = DiffusionSpec(gamma=0.0, sigma=1.0, drift=lambda x: a / x + b * x,
                         drift_derivative=lambda x: -a / (x * x) + b,
                         drift_antiderivative=lambda x: a * math.log(x)
                         + 0.5 * b * x * x,
                         label="radial_ou")
    pot = PotentialSpec(form="power", mu=mu, n=2.0) if mu else PotentialSpec(form="zero")

    def log_p(t: float, x: float, y: float) -> float:
        at = alpha * t
        return (math.log(0.5) + math.log(y) + (nu_ix - 1.0) * (math.log(y) - math.log(x))
                + math.log(alpha) - math.log(math.sinh(at)) - b * nu_ix * t
                - alpha * (x * x + y * y) / (4.0 * math.tanh(at))
                - 0.25 * b * (x * x - y * y)
                + _log_i(nu_ix - 1.0, alpha * x * y / (2.0 * math.sinh(at))))

    def expect(lam: float, t: float, x: float) -> float:
        # E_x[exp(-lam*X_t^2 - mu int X_s^2 ds)]
        if lam < 0:
            raise DomainError("radial_ou expectation: lam >= 0 required")
        at = alpha * t
        cth = 1.0 / math.tanh(at)
        g = b - 4.0 * lam
        lg = (-0.25 * b * x * x
              + alpha * (alpha - g * cth) * x * x / (4.0 * (g - alpha * cth))
              - b * nu_ix * t
              - nu_ix * math.log(math.cosh(at) - g * math.sinh(at) / alpha))
        return math.exp(lg)

    return CatalogEntry(
        name="radial_ou", params={"a": a, "b": b, "mu": mu},
        diffusion=diff, potential=pot, kernel=_kernel(log_p),
        u0=None, transform_rhs=None, expectation_closed=expect,
        state_power=2.0, functional_param="mu",
        notes="expectation weight is exp(-lam*X_t^2)")


# ---------------------------------------------------------------------------
# entry 8: drift 3 - 4b/(b+ax^2), structural showcase
# ---------------------------------------------------------------------------

def _make_rational_showcase(a: float, b: float) -> CatalogEntry:
    """u_t = x u_xx + (3 - 4b/(b+ax^2)) u_x. Fundamental solution carries a
    Dirac mass AND a signed Dirac-derivative atom at y = 0; the process-level
    meaning is unclear (the drift admits negative values), so this entry is
    structural only."""
    _check_positive("rational_showcase", a=a, b=b)

    diff = DiffusionSpec(
        gamma=1.0, sigma=1.0,
        drift=lambda x: 3.0 - 4.0 * b / (b + a * x * x),
        drift_derivative=lambda x: 8.0 * a * b * x / (b + a * x * x) ** 2,
        drift_antiderivative=lambda x: -math.log(x) + 2.0 * math.log(b + a * x * x),
        label="rational_showcase")
    pot = PotentialSpec(form="zero")

    def log_r(t: float, x: float, y: float) -> float:
        return (math.log(x) - math.log(y) - math.log(t)
                + math.log(b + a * y * y) - math.log(b + a * x * x)
                - (x + y) / t + _log_i(2.0, 2.0 * math.sqrt(x * y) / t))

    atom0 = AtomSpec(order=0, weight=lambda t, x:
                     b * (x + t) * math.exp(-x / t) / (t * (b + a * x * x)))
    atom1 = AtomSpec(order=1, weight=lambda t, x:
                     b * t * math.exp(-x / t) / (b + a * x * x))

    u0 = StationarySolution(eval=lambda y: 1.0, log_eval=lambda y: 0.0,
                            description="constant 1",
                            limit_at_mu_zero="constant_one")

    def t_rhs(lam: float, t: float, x: float) -> float:
        den = 1.0 + lam * t
        if den <= 0:
            raise DomainError("rational_showcase transform: 1 + lam*t must be > 0")
        return (a * x * x + b * den ** 4) / ((b + a * x * x) * den ** 3) \
            * math.exp(-lam * x / den)

    return CatalogEntry(
        name="rational_showcase", params={"a": a, "b": b},
        diffusion=diff, potential=pot,
        kernel=_kernel(log_r, atoms=(atom0, atom1)),
        u0=u0, transform_rhs=t_rhs, expectation_closed=t_rhs,
        state_power=1.0, functional_param="",
        notes="structural entry: Dirac-derivative atom carried with signed "
              "weight, excluded from mass; continuous-only mass has a known "
              "closed-form defect")


def rational_showcase_continuous_mass(a: float, b: float, t: float, x: float) -> float:
    """Closed-form mass of the continuous part alone (both atoms dropped)."""
    return 1.0 - math.exp(-x / t) * b * (t + x) / (t * (b + a * x * x))


# ---------------------------------------------------------------------------
# entry 9: drift a - b*sqrt(x) with its computable potential
# ---------------------------------------------------------------------------

def _make_sqrt_drift(a: float, b: float, A: float, B: float) -> CatalogEntry:
    """dX = (a - b sqrt(X)) dt + sqrt(2X) dW. The potential is determined by
    the drift: g = (A - b^2/2)/2 + (a - a^2/2 + B)/(2x) + (ab - b/2)/(2 sqrt(x)).

    Sign convention: the expectation computed is E_x[exp(-lam*X_t - int g ds)],
    with the killing term entering with a minus sign (the generator is
    L - g); entries of this family are flagged because a plus convention also
    circulates for them.
    """
    _check_positive("sqrt_drift", A=A, B=B)
    w = math.sqrt(1.0 + 2.0 * B)

    def g(x: float) -> float:
        return (0.5 * (A - 0.5 * b * b) + 0.5 * (a - 0.5 * a * a + B) / x
                + 0.5 * (a * b - 0.5 * b) / math.sqrt(x))

    diff = DiffusionSpec(gamma=1.0, sigma=1.0,
                         drift=lambda x: a - b * math.sqrt(x),
                         drift_derivative=lambda x: -0.5 * b / math.sqrt(x),
                         drift_antiderivative=lambda x: a * math.log(x)
                         - 2.0 * b * math.sqrt(x),
                         label="sqrt_drift")
    pot = PotentialSpec(form="tabulated", func=g)

    def log_p(t: float, x: float, y: float) -> float:
        return (-math.log(t) + 0.5 * (1.0 - a) * (math.log(x) - math.log(y))
                + b * (math.sqrt(x) - math.sqrt(y)) - 0.5 * A * t
                - (x + y) / t + _log_i(w, 2.0 * math.sqrt(x * y) / t))

    def u0_log(y: float) -> float:
        return 0.5 * (1.0 - a) * math.log(y) + b * math.sqrt(y) \
            + _log_i(w, math.sqrt(2.0 * A * y))

    u0 = StationarySolution(eval=lambda y: math.exp(u0_log(y)), log_eval=u0_log,
                            description=f"Bessel branch index {w:.6g}",
                            limit_at_mu_zero="unknown")

    def t_rhs(lam: float, t: float, x: float) -> float:
        den = 1.0 + lam * t
        if den <= 0:
            raise DomainError("sqrt_drift transform: 1 + lam*t must be > 0")
        lg = (0.5 * (1.0 - a) * math.log(x) - math.log(den)
              + b * math.sqrt(x) - lam * (x + 0.5 * A * t * t) / den
              + _log_i(w, math.sqrt(2.0 * A * x) / den))
        return math.exp(lg)

    def expect(lam: float, t: float, x: float,
               policy: specfun.EvalPolicy = specfun.DEFAULT_POLICY) -> float:
        # series in the sqrt-term of the drift weight:
        # exp(-b sqrt(y)) = sum_j (-b)^j y^{j/2} / j!, each term a
        # Laplace-Bessel moment
        if lam < 0:
            raise DomainError("sqrt_drift expectation: lam >= 0 required")
        pref = (-math.log(t) + 0.5 * (1.0 - a) * math.log(x) + b * math.sqrt(x)
                - 0.5 * A * t - x / t)
        s = lam + 1.0 / t
        c = math.sqrt(x) / t
        total, coef, largest = 0.0, 1.0, 0.0
        for j in range(policy.max_terms):
            mom = specfun.laplace_bessel_moment(0.5 * (a - 1.0 + j), w, s, c)
            term = coef * mom
            total += term
            largest = max(largest, abs(term))
            if j > 3 and abs(term) < policy.rel_tol * max(abs(total), 1e-300):
                if largest > 1e13 * max(abs(total), 1e-300):
                    raise ConvergenceError(
                        "sqrt_drift expectation: alternating series loses "
                        f"precision (peak term {largest:.3e} vs sum {total:.3e}); "
                        "b*sqrt(x_typ) is too large for double precision")
                return math.exp(pref) * total
            coef *= -b / (j + 1.0)  # (-b)^j / j! without overflow
        raise ConvergenceError(
            "sqrt_drift expectation: series did not converge "
            f"in {policy.max_terms} terms")

    return CatalogEntry(
        name="sqrt_drift", params={"a": a, "b": b, "A": A, "B": B},
        diffusion=diff, potential=pot, kernel=_kernel(log_p),
        u0=u0, transform_rhs=t_rhs, expectation_closed=expect,
        state_power=1.0, functional_param="",
        notes="killing sign convention: exp(-int g ds); flagged because the "
              "opposite convention also appears for this family")


# ---------------------------------------------------------------------------
# entry 10: constructed drifts, linear family, killing mu/x
# ---------------------------------------------------------------------------

def _make_generic_linear(sigma: float, A: float, B: float, mu: float = 0.0,
                         c1: float = 1.0, c2: float = 0.0) -> CatalogEntry:
    """Drift f = 2*sigma*x*y'/y with y = sqrt(x)*(c1 I_alpha + c2 I_{-alpha})
    at argument sqrt(2Ax)/sigma; killing mu/x. Requires A > 0,
    2B + sigma^2 > 0, 2B + sigma^2 + 4*mu*sigma > 0 and index nu < 1."""
    _check_positive("generic_linear", sigma=sigma, A=A)
    _check_nonneg("generic_linear", mu=mu)
    if 2.0 * B + sigma * sigma <= 0:
        raise ValidityError("generic_linear: requires 2B + sigma^2 > 0")
    nu2 = 2.0 * B + sigma * sigma + 4.0 * mu * sigma
    if nu2 <= 0:
        raise ValidityError("generic_linear: requires 2B + sigma^2 + 4*mu*sigma > 0")
    alpha = math.sqrt(2.0 * B + sigma * sigma) / sigma
    nu_ix = math.sqrt(nu2) / sigma
    if not nu_ix < 1.0:
        raise ValidityError(
            f"generic_linear: requires index < 1 (got {nu_ix:.6g}); the inverse "
            "transform is otherwise distribution-valued")
    if c1 == 0.0 and c2 == 0.0:
        raise ValidityError("generic_linear: (c1, c2) must not both be zero")
    c = math.sqrt(2.0 * A) / sigma

    def _combo(order: float, z: float) -> float:
        val = 0.0
        if c1:
            val += c1 * specfun.bessel_i(order, z)
        if c2:
            val += c2 * specfun.bessel_i(-order, z)
        return val

    def y_fn(x: float) -> float:
        return math.sqrt(x) * _combo(alpha, c * math.sqrt(x))

    def w_fn(x: float) -> float:  # y'/y
        z = c * math.sqrt(x)
        num = 0.0
        if c1:
            num += 0.5 * c1 * (specfun.bessel_i(alpha - 1.0, z)
                               + specfun.bessel_i(alpha + 1.0, z))
        if c2:
            num += 0.5 * c2 * (specfun.bessel_i(-alpha - 1.0, z)
                               + specfun.bessel_i(-alpha + 1.0, z))
        den = _combo(alpha, z)
        if den == 0.0:
            raise DomainError(f"generic_linear: drift pole at x={x}")
        return 0.5 / x + (0.5 * c / math.sqrt(x)) * (num / den)

    def drift(x: float) -> float:
        return 2.0 * sigma * x * w_fn(x)

    def drift_derivative(x: float) -> float:
        wx = w_fn(x)
        wpx = (A * x + B) / (2.0 * sigma * sigma * x * x) - wx * wx
        return 2.0 * sigma * (wx + x * wpx)

    def F(x: float) -> float:
        val = y_fn(x)
        if val <= 0:
            raise DomainError(f"generic_linear: y({x}) <= 0")
        return 2.0 * sigma * math.log(val)

    diff = DiffusionSpec(gamma=1.0, sigma=sigma, drift=drift,
                         drift_derivative=drift_derivative,
                         drift_antiderivative=F, label="generic_linear")
    pot = PotentialSpec(form="power", mu=mu, n=-1.0) if mu else PotentialSpec(form="zero")

    def u0_val(y: float) -> float:
        return _combo(nu_ix, c * math.sqrt(y)) / _combo(alpha, c * math.sqrt(y))

    u0 = StationarySolution(eval=u0_val,
                            description=f"index-shift ratio {nu_ix:.6g}/{alpha:.6g}",
                            limit_at_mu_zero="constant_one")

    def cont(t: float, x: float, y: float) -> float:
        st = sigma * t
        bracket = 0.0
        zi = 2.0 * math.sqrt(x * y) / st
        zy = c * math.sqrt(y)
        if c1:
            bracket += c1 * specfun.bessel_i(nu_ix, zi) * specfun.bessel_i(nu_ix, zy)
        if c2:
            bracket += c2 * specfun.bessel_i(-nu_ix, zi) * specfun.bessel_i(-nu_ix, zy)
        pref = math.exp(0.5 * math.log(x) - math.log(st) - F(x) / (2.0 * sigma)
                        - (x + y) / st - A * t / (2.0 * sigma))
        return pref * bracket / u0_val(y)

    def t_rhs(lam: float, t: float, x: float) -> float:
        den = 1.0 + lam * sigma * t
        if den <= 0:
            raise DomainError("generic_linear transform: 1 + lam*sigma*t must be > 0")
        pref = math.sqrt(x) * math.exp(-F(x) / (2.0 * sigma)
                                       - lam * (x + 0.5 * A * t * t) / den) / den
        return pref * _combo(nu_ix, c * math.sqrt(x) / den)

    return CatalogEntry(
        name="generic_linear",
        params={"sigma": sigma, "A": A, "B": B, "mu": mu, "c1": c1, "c2": c2},
        diffusion=diff, potential=pot,
        kernel=Kernel(continuous=cont, log_continuous=None),
        u0=u0, transform_rhs=t_rhs, expectation_closed=None,
        state_power=1.0, functional_param="mu",
        notes="expectation via quadrature fallback; kernel in linear domain "
              "because the two-branch bracket can be formed from mixed signs")


# ---------------------------------------------------------------------------
# entry 11: affine drift, quadratic family, killing mu*x
# ---------------------------------------------------------------------------

def _make_generic_quadratic(sigma: float, a: float, b: float, mu: float = 0.0,
                            c1: float = 1.0, c2: float = 0.0) -> CatalogEntry:
    """dX = (a - bX) dt + sqrt(2 sigma X) dW; killing mu*x. The group-invariant
    kernel of the quadratic family, default branch weights (1, 0); I_{-nu} is
    read as K_nu at integer nu."""
    _check_positive("generic_quadratic", sigma=sigma, a=a)
    _check_nonneg("generic_quadratic", mu=mu)
    A = b * b + 4.0 * mu * sigma
    if A <= 0:
        raise ValidityError("generic_quadratic: requires b != 0 or mu > 0")
    rA = math.sqrt(A)
    B = -a * b
    C = 0.5 * a * a - a * sigma
    nu_ix = math.sqrt(sigma * sigma + 2.0 * C) / sigma  # = |a - sigma|/sigma

    diff = DiffusionSpec(gamma=1.0, sigma=sigma, drift=lambda x: a - b * x,
                         drift_derivative=lambda x: -b,
                         drift_antiderivative=lambda x: a * math.log(x) - b * x,
                         label="generic_quadratic")
    pot = PotentialSpec(form="power", mu=mu, n=1.0) if mu else PotentialSpec(form="zero")

    nu_is_int = abs(nu_ix - round(nu_ix)) < 1e-12

    def _second(z: float) -> float:
        if nu_is_int:
            return specfun.bessel_k(round(nu_ix), z)
        return specfun.bessel_i(-nu_ix, z)

    def cont(t: float, x: float, y: float) -> float:
        sh = math.sinh(0.5 * rA * t)
        th = math.tanh(0.5 * rA * t)
        F = diff.drift_antiderivative
        z = rA * math.sqrt(x * y) / (sigma * sh)
        pref = math.exp(0.5 * (math.log(A) + math.log(x) - math.log(y))
                        - math.log(2.0 * sigma * sh)
                        + (F(y) - F(x) - B * t) / (2.0 * sigma)
                        - rA * (x + y) / (2.0 * sigma * th))
        bracket = 0.0
        if c1:
            bracket += c1 * specfun.bessel_i(nu_ix, z)
        if c2:
            bracket += c2 * _second(z)
        return pref * bracket

    def log_cont(t: float, x: float, y: float) -> float:
        if c2 != 0.0:
            raise DomainError("generic_quadratic: log form available for c2 = 0 only")
        sh = math.sinh(0.5 * rA * t)
        th = math.tanh(0.5 * rA * t)
        F = diff.drift_antiderivative
        return (0.5 * (math.log(A) + math.log(x) - math.log(y))
                - math.log(2.0 * sigma * sh) + math.log(c1)
                + (F(y) - F(x) - B * t) / (2.0 * sigma)
                - rA * (x + y) / (2.0 * sigma * th)
                + _log_i(nu_ix, rA * math.sqrt(x * y) / (sigma * sh)))

    return CatalogEntry(
        name="generic_quadratic",
        params={"sigma": sigma, "a": a, "b": b, "mu": mu, "c1": c1, "c2": c2},
        diffusion=diff, potential=pot,
        kernel=Kernel(continuous=cont,
                      log_continuous=log_cont if c2 == 0.0 else None),
        u0=None, transform_rhs=None, expectation_closed=None,
        state_power=1.0, functional_param="mu",
        notes="no Laplace-type transform for this family (the group parameter "
              "enters exponentially); used by the Whittaker-transform check")


# ---------------------------------------------------------------------------
# registry and operations
# ---------------------------------------------------------------------------

_BUILDERS: Dict[str, Tuple[Callable[..., CatalogEntry], Tuple[str, ...], str]] = {
    "besq": (_make_besq, ("n", "mu", "nu", "b"),
             "n > 0; mu >= 0 (needs n >= 2); nu >= 0; b aliases mu = b^2/2"),
    "bessel": (_make_bessel, ("a", "mu"), "a > 1/2; mu >= 0"),
    "bessel_drift": (_make_bessel_drift, ("a", "b", "mu"),
                     "a > -1; b > 0; mu >= 0"),
    "cir": (_make_cir, ("a", "b", "sigma", "mu", "mu_lin"),
            "a, b, sigma > 0; mu, mu_lin >= 0"),
    "rational_drift": (_make_rational_drift, ("a", "mu", "mu_inv"),
                       "a > 0; mu, mu_inv >= 0, not both positive; "
                       "sqrt(1+4*mu_inv) must not be an integer"),
    "tanh_drift": (_make_tanh_drift, ("mu",), "mu >= 0"),
    "radial_ou": (_make_radial_ou, ("a", "b", "mu"),
                  "a > 1/2; mu >= 0; b != 0 or mu > 0"),
    "rational_showcase": (_make_rational_showcase, ("a", "b"), "a, b > 0"),
    "sqrt_drift": (_make_sqrt_drift, ("a", "b", "A", "B"), "A, B > 0"),
    "generic_linear": (_make_generic_linear,
                       ("sigma", "A", "B", "mu", "c1", "c2"),
                       "sigma, A > 0; 2B + sigma^2 > 0; "
                       "2B + sigma^2 + 4*mu*sigma in (0, sigma^2)"),
    "generic_quadratic": (_make_generic_quadratic,
                          ("sigma", "a", "b", "mu", "c1", "c2"),
                          "sigma, a > 0; b != 0 or mu > 0"),
}

ENTRY_NAMES = tuple(sorted(_BUILDERS))


def make_entry(name: str, **params: float) -> CatalogEntry:
    if name not in _BUILDERS:
        raise DomainError(f"make_entry: unknown entry {name!r} "
                          f"(known: {', '.join(ENTRY_NAMES)})")
    builder, names, _ = _BUILDERS[name]
    unknown = set(params) - set(names)
    if unknown:
        raise DomainError(f"make_entry: {name} does not take parameters "
                          f"{sorted(unknown)} (takes {list(names)})")
    # type(v) is in the key so that n=3 and n=3.0 build separate entries
    key = tuple(sorted((k, type(v), v) for k, v in params.items()))
    try:
        hash(key)
    except TypeError:  # e.g. a 0-d numpy array: built every time, not cached
        return builder(**params)
    return _build_entry(name, key)


# Distinct parameter sets seen per benchmark cycle: points 33, tabulate 695,
# verify 42. An entry is about 4 KB, so a full cache holds about 4 MB.
_ENTRY_CACHE_SIZE = 1024


@functools.lru_cache(maxsize=_ENTRY_CACHE_SIZE)
def _build_entry(name: str, key: Tuple[Tuple[str, type, float], ...]) -> CatalogEntry:
    # a build that raises is not cached, so invalid parameters raise every time
    return _BUILDERS[name][0](**{k: v for k, _, v in key})


def _resolve(entry, params: Optional[Dict[str, float]]) -> CatalogEntry:
    if isinstance(entry, CatalogEntry):
        return entry
    return make_entry(entry, **(params or {}))


def density(entry, params: Optional[Dict[str, float]], t: float, x: float,
            y: float, log: bool = False) -> float:
    """Continuous part of the fundamental solution at y (atoms are reported
    through the entry's kernel, not here)."""
    e = _resolve(entry, params)
    if t <= 0 or x <= 0 or y < 0:
        raise DomainError("density: requires t > 0, x > 0, y >= 0")
    if log:
        if e.kernel.log_continuous is None:
            raise CapabilityError(
                f"density: entry {e.name} has no log form (kernel may be signed)")
        return e.kernel.log_continuous(t, x, y)
    return e.kernel.continuous(t, x, y)


def transform_rhs(entry, params: Optional[Dict[str, float]], lam: float,
                  t: float, x: float) -> float:
    """Closed-form right-hand side of the entry's transform identity."""
    e = _resolve(entry, params)
    if lam < 0:
        raise DomainError("transform_rhs: lam >= 0 required")
    if e.transform_rhs is None:
        raise CapabilityError(f"transform_rhs: entry {e.name} has no "
                              "Laplace-type transform identity")
    return e.transform_rhs(lam, t, x)


def _quadrature_expectation(e: CatalogEntry, lam: float, t: float,
                            x: float) -> float:
    m = e.state_power

    def f(y: float) -> float:
        return math.exp(-lam * y ** m) * e.kernel.continuous(t, x, y)

    val, err = integrate.quad(f, 0.0, math.inf, limit=400,
                              epsabs=1e-12, epsrel=1e-11)
    if err > 1e-7 * max(1.0, abs(val)):
        raise ConvergenceError(
            f"expectation: quadrature for entry {e.name} did not converge "
            f"(estimate {val!r}, error {err!r})")
    for atom in e.kernel.atoms:
        w = atom.weight(t, x)
        if atom.order == 0:
            val += w  # exp(-lam*0) = 1
        else:
            val += lam * w if m == 1.0 else 0.0  # -(d/dy) exp(-lam*y^m) at 0
    return val


def expectation(entry, params: Optional[Dict[str, float]], lam: float,
                t: float, x: float, method: str = "auto") -> float:
    """E_x[exp(-lam*X_t^m - killing functionals)], m = entry.state_power.
    method: 'auto' (closed form if available), 'closed', 'quadrature'."""
    e = _resolve(entry, params)
    if t <= 0 or x <= 0:
        raise DomainError("expectation: requires t > 0, x > 0")
    if method not in ("auto", "closed", "quadrature"):
        raise DomainError(f"expectation: unknown method {method!r}")
    if method == "quadrature":
        return _quadrature_expectation(e, lam, t, x)
    if e.expectation_closed is not None:
        try:
            return e.expectation_closed(lam, t, x)
        except (OverflowError, ZeroDivisionError) as exc:
            raise EvalOverflowError(
                f"expectation: closed form for entry {e.name} failed at "
                f"lam={lam!r}, t={t!r}, x={x!r} ({exc})") from exc
    if method == "closed":
        raise CapabilityError(f"expectation: entry {e.name} has no closed form")
    return _quadrature_expectation(e, lam, t, x)


def joint_laplace_in_mu(entry, params: Optional[Dict[str, float]], lam: float,
                        t: float, x: float, mu_grid) -> list:
    """Tabulate the expectation along a grid of functional-strengths, ready
    for numerical Laplace inversion in that variable."""
    e = _resolve(entry, params)
    if not e.functional_param:
        raise CapabilityError(
            f"joint_laplace_in_mu: entry {e.name} has no functional parameter")
    grid = list(mu_grid)
    if any(m2 <= m1 for m1, m2 in zip(grid, grid[1:])) or (grid and grid[0] < 0):
        raise DomainError("joint_laplace_in_mu: mu_grid must be nonnegative "
                          "and strictly increasing")
    base = dict(e.params)
    rows = []
    for m in grid:
        base[e.functional_param] = m
        rows.append((m, expectation(e.name, base, lam, t, x)))
    return rows


def manifest() -> dict:
    """Machine-readable catalog listing."""
    entries = []
    for name in ENTRY_NAMES:
        _, param_names, validity = _BUILDERS[name]
        entries.append({
            "name": name,
            "parameters": list(param_names),
            "validity": validity,
        })
    return {"schema_version": 1, "entries": entries}
