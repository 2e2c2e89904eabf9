"""Drift-equation machinery.

A diffusion generator sigma*x^gamma*d2/dx2 + f(x)*d/dx with killing g(x) admits
useful point symmetries exactly when h(x) = x^(1-gamma)*f(x) satisfies a Riccati
equation whose right-hand side is drawn from a small set of families. This
module evaluates the residual of that equation, classifies a (drift, potential)
pair by least-squares fitting the family constants, and constructs drifts from
the Bessel-type solutions of the linearized equation.

Residual kernel (gamma != 2):

    R(x) = sigma*x*h'(x) - sigma*h(x) + h(x)^2/2 + 2*sigma*x^(2-gamma)*g(x)

Family right-hand sides (constants (A, B, C) in each family's own convention):

    linear:          R = 2*sigma*A*x^(2-gamma) + B              (C = 0)
    quadratic:       R = (A/2)*x^(2*(2-gamma)) + B*x^(2-gamma) + C
    quadratic_sqrt:  R = (A/2)*x^2 + (2*B/3)*x^(3/2) + C*x - 3*sigma^2/8
                     (gamma = 1 only; residual checking only)

For gamma = 2 the same structure reappears after the substitution
xi = ln x, H(xi) = f(x)*ln(x)/x - sigma*ln(x); the families are

    log_linear:      U[f] = A
    log_quadratic:   U[f] = A*ln(x) + B

with U[f] = (x^2/4)*v'' + (f/(4*sigma))*v' - f/(4*x) + (x*g'(x)*ln x)/2 + g(x),
v = f(x)*ln(x)/x, evaluated directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    CapabilityError,
    ConditioningError,
    ConstructionError,
    ConvergenceError,
    DomainError,
    SingularDriftError,
)
from . import specfun

__all__ = [
    "DiffusionSpec",
    "PotentialSpec",
    "RiccatiParams",
    "FAMILIES",
    "riccati_residual",
    "fit_riccati",
    "build_drift",
]

FAMILIES = ("linear", "quadratic", "quadratic_sqrt", "log_linear", "log_quadratic")

_VALIDATION_POINTS = (0.5, 1.0, 2.0)


def _derivative_4th(func: Callable[[float], float], x: float, rel_step: float = 1e-4) -> float:
    """4th-order central difference with relative step (2nd order is not
    accurate enough for 1e-10 residual targets); x may be a float64 array."""
    h = rel_step * np.maximum(1.0, np.abs(x))
    return (-func(x + 2 * h) + 8 * func(x + h) - 8 * func(x - h) + func(x - 2 * h)) / (12 * h)


def _second_derivative(func: Callable[[float], float], x: float, rel_step: float = 1e-3) -> float:
    h = rel_step * np.maximum(1.0, np.abs(x))
    return (-func(x + 2 * h) + 16 * func(x + h) - 30 * func(x)
            + 16 * func(x - h) - func(x - 2 * h)) / (12 * h * h)


def _on_array(func: Callable, xs: np.ndarray, what: str):
    """func(xs), checked against the array contract of drifts and
    potentials: it takes a float64 array and returns that shape or a scalar."""
    try:
        out = func(xs)
    except (TypeError, ValueError) as exc:  # math on an array; `if` on an array
        raise ConstructionError(f"{what} does not take a float64 array: {exc!r}") from exc
    if np.shape(out) not in ((), xs.shape):
        raise ConstructionError(f"{what} returns shape {np.shape(out)} for an array "
                                f"of shape {xs.shape}")
    return out


def _sum_of(*vals):
    """The sum of floats and float64 arrays, float zeros left out (0.0 where all are)."""
    out = None
    for v in vals:
        if type(v) is np.ndarray or v:
            out = v if out is None else out + v
    return 0.0 if out is None else out


@dataclass(frozen=True)
class DiffusionSpec:
    """A diffusion on [0, inf): generator sigma*x^gamma*d2/dx2 + f(x)*d/dx.

    drift f, and drift_derivative when given, take a float or a float64
    array and return that shape or a scalar (a constant). Construction
    evaluates both once on an array of _VALIDATION_POINTS and raises
    ConstructionError for a callable that does not, or whose values there are
    not all finite; the Euler estimator (verify.mc_expectation) and
    fit_riccati then call them once on all paths or grid points.
    drift_antiderivative is F with F'(x) = f(x)/x^gamma, float-only (checked
    numerically at construction). drift_derivative, when given, makes
    residuals exact instead of finite-differenced.
    """

    gamma: float
    sigma: float
    drift: Callable[[float], float]
    drift_antiderivative: Optional[Callable[[float], float]] = None
    label: str = ""
    drift_derivative: Optional[Callable[[float], float]] = None

    def __post_init__(self) -> None:
        if not self.sigma > 0:
            raise DomainError("DiffusionSpec: sigma must be > 0")
        xs = np.array(_VALIDATION_POINTS)
        f = _on_array(self.drift, xs, f"DiffusionSpec '{self.label}': drift")
        values = {"drift": f}
        if self.drift_derivative is not None:
            values["drift_derivative"] = _on_array(
                self.drift_derivative, xs, f"DiffusionSpec '{self.label}': drift_derivative")
        for what, v in values.items():
            if not np.isfinite(v).all():
                raise ConstructionError(f"DiffusionSpec '{self.label}': {what} is not finite "
                                        f"at x = {_VALIDATION_POINTS}: {v!r}")
        if self.drift_antiderivative is None:
            return
        for x, fx in zip(_VALIDATION_POINTS, np.broadcast_to(f, xs.shape)):
            want = float(fx) / x ** self.gamma
            got = float(_derivative_4th(self.drift_antiderivative, x))
            scale = max(1.0, abs(want))
            if abs(got - want) > 1e-8 * scale:
                raise ConstructionError(
                    f"DiffusionSpec '{self.label}': drift_antiderivative inconsistent with "
                    f"drift at x={x}: F'={got!r} vs f/x^gamma={want!r}")

    def f_prime(self, x: float) -> float:
        if self.drift_derivative is not None:
            return self.drift_derivative(x)
        return _derivative_4th(self.drift, x)

    def F(self, x: float) -> float:
        """Antiderivative of f(x)/x^gamma. Falls back to adaptive quadrature
        from x_ref = 1 (only differences F(a) - F(b) are ever used, so the
        base point is immaterial)."""
        if x <= 0:
            raise DomainError("F: x must be > 0")
        if self.drift_antiderivative is not None:
            return self.drift_antiderivative(x)
        from .verify import _adaptive_gk21  # not at the top: verify imports riccati
        lo, hi = min(1.0, x), max(1.0, x)
        try:
            val = _adaptive_gk21(lambda z: self.drift(z) / z ** self.gamma,
                                 np.array([lo]), np.array([hi]), np.array([False]))
        except ConvergenceError as exc:
            raise ConstructionError(
                f"F: quadrature for the drift antiderivative failed at x={x}") from exc
        return val if x >= 1.0 else -val


@dataclass(frozen=True)
class PotentialSpec:
    """Killing function g(x).

    form 'power': g = mu * x^n (n < 0 is singular at the origin);
    form 'inverse_plus_linear': g = nu_coeff / x + mu * x (a zero term left out);
    form 'zero': g = 0;
    form 'tabulated': a callable func under the array contract of the drift
    (checked at construction), no analytic derivative.
    """

    form: str
    mu: float = 0.0
    nu_coeff: float = 0.0
    n: float = 1.0
    func: Optional[Callable[[float], float]] = None

    def __post_init__(self) -> None:
        if self.form not in ("power", "inverse_plus_linear", "tabulated", "zero"):
            raise DomainError(f"PotentialSpec: unknown form {self.form!r}")
        if self.form == "tabulated":
            if self.func is None:
                raise DomainError("PotentialSpec: tabulated form requires func")
            _on_array(self.func, np.array(_VALIDATION_POINTS), "PotentialSpec: func")

    @property
    def singular_at_origin(self) -> bool:
        if self.form == "power":
            return self.n < 0 and self.mu != 0.0
        if self.form == "inverse_plus_linear":
            return self.nu_coeff != 0.0
        return False

    def __call__(self, x: float) -> float:
        """g(x) for a float or a float64 array: the same shape, or a scalar
        (the zero form). The Euler estimator (verify.mc_expectation) calls it
        once per step on all paths."""
        if self.form == "zero":
            return 0.0
        if self.form == "power":
            return self.mu * x ** self.n
        if self.form == "inverse_plus_linear":
            return _sum_of(self.nu_coeff and self.nu_coeff / x, self.mu and self.mu * x)
        return self.func(x)

    def derivative(self, x: float) -> float:
        """Analytic g'(x); tabulated potentials have none."""
        if self.form == "zero":
            return 0.0
        if self.form == "power":
            return self.mu * self.n * x ** (self.n - 1.0)
        if self.form == "inverse_plus_linear":
            return _sum_of(self.nu_coeff and -self.nu_coeff / (x * x), self.mu)
        raise CapabilityError("PotentialSpec: tabulated potential has no analytic derivative")


ZERO_POTENTIAL = PotentialSpec(form="zero")


@dataclass(frozen=True)
class RiccatiParams:
    """Family tag plus the constants (A, B, C) in that family's convention."""

    family: str
    A: float
    B: float
    C: float = 0.0

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise DomainError(f"RiccatiParams: unknown family {self.family!r}")
        if self.family == "linear" and self.C != 0.0:
            raise DomainError("RiccatiParams: linear family has no C term")


def _residual_lhs(diff: DiffusionSpec, pot: PotentialSpec, x: float) -> float:
    """R(x) = sigma*x*h' - sigma*h + h^2/2 + 2*sigma*x^(2-gamma)*g, h = x^(1-gamma)*f;
    x may be a float64 array."""
    g, s = diff.gamma, diff.sigma
    f = diff.drift(x)
    fp = diff.f_prime(x)
    h = x ** (1.0 - g) * f
    hp = (1.0 - g) * x ** (-g) * f + x ** (1.0 - g) * fp
    return s * x * hp - s * h + 0.5 * h * h + 2.0 * s * x ** (2.0 - g) * pot(x)


def _family_basis(family: str, sigma: float, gamma: float, x: float):
    """(columns, offset) of a family's right-hand side at x, a float or a
    float64 array: R = A*columns[0] + B*columns[1] + C*columns[2] + offset,
    over as many of the constants (A, B, C) as there are columns."""
    if family in ("log_linear", "log_quadratic"):
        if gamma != 2.0:
            raise CapabilityError("log families apply to gamma=2 only")
        return ((1.0,) if family == "log_linear" else (np.log(x), 1.0)), 0.0
    if gamma == 2.0:
        raise CapabilityError("gamma=2 diffusions use the log_linear/log_quadratic families")
    p = 2.0 - gamma
    if family == "linear":
        return (2.0 * sigma * x ** p, 1.0), 0.0
    if family == "quadratic":
        return (0.5 * x ** (2.0 * p), x ** p, 1.0), 0.0
    if gamma != 1.0:
        raise CapabilityError("quadratic_sqrt family is implemented for gamma=1 only")
    return (0.5 * x ** 2, (2.0 / 3.0) * x ** 1.5, x), -0.375 * sigma * sigma


def _u_operator(diff: DiffusionSpec, pot: PotentialSpec, x: float) -> float:
    """gamma=2 classification operator, x a float or a float64 array:
    U[f] = (x^2/4) v'' + (f/(4 sigma)) v' - f/(4x) + (x g' ln x)/2 + g,  v = f ln(x)/x."""
    s = diff.sigma

    def v(z: float) -> float:
        return diff.drift(z) * np.log(z) / z

    vp = _derivative_4th(v, x)
    vpp = _second_derivative(v, x)
    f = diff.drift(x)
    gp = pot.derivative(x)  # raises CapabilityError for tabulated potentials
    return (x * x / 4.0) * vpp + (f / (4.0 * s)) * vp - f / (4.0 * x) \
        + (x * gp * np.log(x)) / 2.0 + pot(x)


def riccati_residual(diff: DiffusionSpec, pot: PotentialSpec,
                     params: RiccatiParams, x: float) -> float:
    """Residual of the drift equation at x > 0, a float (giving a float) or a
    float64 array (giving that shape); zero (to tolerance) iff the
    (drift, potential) pair belongs to the stated family with these constants."""
    if np.any(x <= 0):
        raise DomainError("riccati_residual: x must be > 0")
    columns, offset = _family_basis(params.family, diff.sigma, diff.gamma, x)
    lhs = _u_operator(diff, pot, x) if diff.gamma == 2.0 else _residual_lhs(diff, pot, x)
    r = lhs - sum((k * col for k, col in zip((params.A, params.B, params.C), columns)),
                  offset)
    return r if type(x) is np.ndarray else float(r)


def _fit_family(family: str, lhs: np.ndarray, basis: np.ndarray,
                offset: float = 0.0) -> tuple[np.ndarray, float]:
    cond = np.linalg.cond(basis)
    if not np.isfinite(cond) or cond > 1e12:
        raise ConditioningError(
            f"fit_riccati: design matrix for family {family!r} is degenerate (cond={cond:.3g})")
    coef, *_ = np.linalg.lstsq(basis, lhs - offset, rcond=None)
    resid = lhs - offset - basis @ coef
    return coef, float(np.max(np.abs(resid)))


def fit_riccati(diff: DiffusionSpec, pot: PotentialSpec,
                grid: Sequence[float]) -> Optional[RiccatiParams]:
    """Classify (drift, potential): least-squares fit of the constants against
    each family's monomial basis, trying families with fewer free parameters
    first. Returns None when nothing fits below 1e-6 * scale (no nontrivial
    symmetry in the implemented families).
    """
    xs = np.asarray(sorted(grid), dtype=float)
    if xs.size < 8:
        raise DomainError("fit_riccati: need a grid of >= 8 points")
    if xs[0] <= 0:
        raise DomainError("fit_riccati: grid must be positive")
    if xs[-1] / xs[0] < 10.0:
        raise DomainError("fit_riccati: grid must span at least one decade")

    g, s = diff.gamma, diff.sigma
    if g == 2.0:
        lhs, families = _u_operator(diff, pot, xs), ("log_linear", "log_quadratic")
    else:
        lhs, families = _residual_lhs(diff, pot, xs), ("linear", "quadratic")
        if g == 1.0:
            families += ("quadratic_sqrt",)

    scale = max(1.0, float(np.max(np.abs(lhs))))
    for family in families:
        columns, offset = _family_basis(family, s, g, xs)
        basis = np.column_stack(np.broadcast_arrays(xs, *columns)[1:])
        coef, max_resid = _fit_family(family, lhs, basis, offset)
        if max_resid < 1e-6 * scale:
            coef[np.abs(coef) < 1e-10 * scale] = 0.0
            return RiccatiParams(family, *coef, *[0.0] * (3 - coef.size))
    return None


def _bessel_y(nu: float, c: float, c1: float, c2: float, q: float = 1.0):
    """(log y, y'/y) of y(x) = sqrt(x) (c1 I_nu + c2 K_nu)(c x^(q/2)), the
    solutions of the linearized linear family (Craddock 2009, arXiv:0902.4806),
    and at c = 0 of its limit c1 x^((1 + nu q)/2) + c2 x^((1 - nu q)/2). Both
    take x as a float or a float64 array. log y is NaN or -inf where y <= 0,
    and y'/y is not finite where y = 0: each caller raises its own error.
    I alone is log(e^-z I_nu) + z, K alone log(e^z K_nu) - z, and with both
    the K term carries e^(-2z) inside the I term's scaling, z = c x^(q/2), as
    the power limit's smaller power is in units of its larger one.
    y'/y holds at q = 1 only, where Z' = (Z_(nu-1) +- Z_(nu+1))/2 (DLMF
    10.29.1), + for I and - for K."""
    rp, rm = 0.5 * (1.0 + nu * q), 0.5 * (1.0 - nu * q)
    log_c1, log_c2 = (math.log(k) if k > 0 else math.nan for k in (c1, c2))

    def scaled(order: float, z, k: float):  # e^-z (c1 I + k K e^-2z), e^z k K for c1 = 0
        out = c1 * specfun.bessel_i(order, z, scaled=True) if c1 else 0.0
        if k:
            damp = np.exp(-2.0 * z) if c1 else 1.0
            out = out + k * specfun.bessel_k(order, z, scaled=True) * damp
        return out

    def log_y(x):
        xp = np if type(x) is np.ndarray else math
        lx = xp.log(x)
        if c == 0.0:
            if not (c1 and c2):
                return rp * lx + log_c1 if c1 else rm * lx + log_c2
            lead = np.maximum(rp * lx, rm * lx)  # the larger power's log
            s = c1 * np.exp(rp * lx - lead) + c2 * np.exp(rm * lx - lead)
        else:
            z = c * xp.sqrt(x) if q == 1.0 else c * x ** (0.5 * q)
            if not c2:
                return 0.5 * lx + specfun.log_bessel_ive(nu, z) + z + log_c1
            lead, s = 0.5 * lx + (z if c1 else -z), scaled(nu, z, c2)
        if xp is math:
            return lead + math.log(s) if s > 0 else math.nan
        with np.errstate(divide="ignore", invalid="ignore"):
            return lead + np.log(s)

    def dlog_y(x):
        with np.errstate(divide="ignore", invalid="ignore"):
            if c == 0.0:
                if not (c1 and c2):
                    return np.true_divide(rp if c1 else rm, x)
                lx = np.log(x)  # as in log y, in units of the larger power
                lead = np.maximum(rp * lx, rm * lx)
                a, b = c1 * np.exp(rp * lx - lead), c2 * np.exp(rm * lx - lead)
                return np.true_divide(rp * a + rm * b, a + b) / x
            z = c * np.sqrt(x)
            num = 0.5 * (scaled(nu - 1.0, z, -c2) + scaled(nu + 1.0, z, -c2))
            return 0.5 / x + (0.5 * c / np.sqrt(x)) * np.true_divide(num, scaled(nu, z, c2))

    return log_y, dlog_y


def _finite(f: Callable, error: type, what: str) -> Callable:
    """f of _bessel_y (log y or y'/y) at x > 0, DomainError elsewhere, raising
    error where f(x) is not finite: y <= 0 there (or y = 0, a pole of the
    drift); x a float or a float64 array."""
    def checked(x):
        grid = type(x) is np.ndarray
        if (x <= 0).any() if grid else x <= 0:
            raise DomainError(f"{what}: x must be > 0")
        v = f(x)
        if not (np.isfinite(v).all() if grid else math.isfinite(v)):
            raise error(f"{what}: y(x) <= 0 inside the domain")
        return v
    return checked


def _ratio_drift(sigma: float, A: float, B: float, y, label: str,
                 error: type) -> DiffusionSpec:
    """The gamma = 1 DiffusionSpec of f = 2 sigma x y'/y, y = (log y, y'/y) of
    _bessel_y, which solves sigma x f' - sigma f + f^2/2 = A x + B: F = 2 sigma
    log y, and f' from the Riccati identity (y'/y)' = (A x + B)/(2 sigma^2
    x^2) - (y'/y)^2. error is raised where y <= 0 (_finite)."""
    log_y, w = (_finite(f, error, label) for f in y)

    def drift_derivative(x):
        wx = w(x)
        wpx = (A * x + B) / (2.0 * sigma * sigma * x * x) - wx * wx
        return 2.0 * sigma * (wx + x * wpx)

    return DiffusionSpec(gamma=1.0, sigma=sigma, drift=lambda x: 2.0 * sigma * x * w(x),
                         drift_derivative=drift_derivative,
                         drift_antiderivative=lambda x: 2.0 * sigma * log_y(x), label=label)


def build_drift(A: float, B: float, sigma: float, c1: float, c2: float) -> DiffusionSpec:
    """Construct a gamma=1 drift solving sigma*x*f' - sigma*f + f^2/2 = A*x + B
    (the linear family with constant potential absorbed by the caller).

    Mechanism: f = 2*sigma*x*y'/y linearizes the equation to
    2*sigma^2*x^2*y'' = (A*x + B)*y, whose solutions are the y of _bessel_y
    at index sqrt(2*B + sigma^2)/sigma and c = sqrt(2*A)/sigma; F = 2*sigma*ln(y)
    so F' = f/x exactly. SingularDriftError where y <= 0.
    """
    if 2.0 * B + sigma * sigma <= 0:
        raise DomainError("build_drift: requires 2B + sigma^2 > 0")
    if A < 0:
        raise DomainError("build_drift: requires A >= 0")
    if c1 == 0.0 and c2 == 0.0:
        raise DomainError("build_drift: (c1, c2) must not both be zero")
    alpha = math.sqrt(2.0 * B + sigma * sigma) / sigma
    y = _bessel_y(alpha, math.sqrt(2.0 * A) / sigma, c1, c2)

    # sign-change scan for interior zeros of y (a negative coefficient)
    if min(c1, c2) < 0:
        xs = np.geomspace(1e-3, 100.0, 200)
        neg = ~(y[0](xs) > -math.inf)
        flips = np.flatnonzero(neg[1:] != neg[:-1])
        if flips.size:
            i = flips[0]
            raise SingularDriftError(
                f"build_drift: y changes sign between x={xs[i]:.6g} and x={xs[i + 1]:.6g}")

    spec = _ratio_drift(sigma, A, B, y, f"built(A={A}, B={B}, sigma={sigma})",
                        SingularDriftError)
    params = RiccatiParams("linear", A=A / (2.0 * sigma), B=B)
    xs = np.geomspace(0.05, 100.0, 25)
    r = riccati_residual(spec, ZERO_POTENTIAL, params, xs)
    bad = np.flatnonzero(np.abs(r) > 1e-8 * np.maximum(1.0, np.abs(A * xs + B)))
    if bad.size:
        i = bad[0]
        raise ConstructionError(
            f"build_drift: self-check residual {r[i]:.3e} at x={xs[i]:.4g}")
    return spec
