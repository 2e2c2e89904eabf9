"""Stationary solutions and one-parameter symmetry solutions.

For u_t = sigma*x^gamma*u_xx + f(x)*u_x - g(x)*u whose drift sits in one of the
Riccati families, the PDE carries a one-parameter group of point symmetries.
Applied to a stationary solution u0, the group orbit is a closed-form
time-dependent solution whose t=0 profile is u0 times an explicit weight; this
is what turns quadrature identities into generalized Laplace transforms of the
transition kernel.

Four symmetry families are implemented (names describe the t=0 weight):

    laplace_scaling   gamma != 2, linear Riccati family;
                      U_lambda(x, 0) = exp(-lambda*x^(2-gamma)) * u0(x).
    log_scaling       gamma = 2, log_linear family;
                      U_eps(x, 0) = exp(-(eps/sigma)*(ln x)^2) * u0(x).
    exp_scaling       gamma = 1, quadratic family with A > 0; group parameter
                      enters through E = exp(sqrt(A)*t).
    exp_kummer        the Tricomi-function orbit of the exp_scaling group,
                      used for Whittaker-transform verification.

The unit-parameter exp_scaling orbit U_1 of a non-invariant stationary
solution vanishes as t -> 0+ and supplies the weight of the boundary atom that
mass-deficient kernels need; orbit_transform makes transform identities of
the laplace_scaling and exp_scaling orbits. Every orbit is
log_gauge(moved x) - F(x)/(2*sigma) + elementary terms, with
log_gauge = log u0 + F/(2*sigma), so a special function in F is evaluated once.

stationary_branch builds u0 from the constants (A, B, C) alone, unvalidated,
so that the catalog can take it for every valid entry; stationary_solution
adds the fit and the ODE residual check. bessel_core reads the same
constants as the Bessel index, scale, rate and growth of the fundamental
solution that the group integrates to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import (
    CapabilityError,
    ConstructionError,
    DomainError,
)
from . import specfun
from .riccati import (DiffusionSpec, PotentialSpec, RiccatiParams, _bessel_y, _finite,
                      fit_riccati)

__all__ = [
    "StationarySolution",
    "SymmetrySolution",
    "stationary_solution",
    "stationary_branch",
    "laplace_scaling_symmetry",
    "log_scaling_symmetry",
    "exp_scaling_symmetry",
    "exp_kummer_symmetry",
    "atom_weight",
    "orbit_transform",
    "gauge_solution",
    "bessel_core",
    "pde_residual",
]

_CHECK_POINTS = (0.5, 1.0, 2.0, 5.0)


@dataclass(frozen=True)
class StationarySolution:
    """A positive solution of sigma*x^gamma*u'' + f*u' - g*u = 0 on x > 0.

    log_eval, when present, allows overflow-free propagation to large
    arguments. log_gauge, when present, is log u0 + F/(2*sigma), the part of
    u0 the symmetry groups move.
    """

    eval: Callable[[float], float]
    description: str
    log_eval: Optional[Callable[[float], float]] = None
    log_gauge: Optional[Callable[[float], float]] = None

    def __call__(self, x: float) -> float:
        return self.eval(x)

    def log(self, x: float) -> float:
        if self.log_eval is not None:
            return self.log_eval(x)
        v = self.eval(x)
        if v <= 0:
            raise DomainError(f"StationarySolution: not positive at x={x}")
        return math.log(v)

    def validate(self, diff: DiffusionSpec, pot: PotentialSpec) -> None:
        """Finite-difference residual check of the stationary ODE at
        _CHECK_POINTS, to 1e-8 relative."""
        for x in _CHECK_POINTS:
            h = 1e-3 * x
            um2, um1 = self.eval(x - 2 * h), self.eval(x - h)
            u0x, up1, up2 = self.eval(x), self.eval(x + h), self.eval(x + 2 * h)
            up = (-up2 + 8 * up1 - 8 * um1 + um2) / (12 * h)
            upp = (-up2 + 16 * up1 - 30 * u0x + 16 * um1 - um2) / (12 * h * h)
            terms = (diff.sigma * x ** diff.gamma * upp, diff.drift(x) * up,
                     -pot(x) * u0x)
            resid = sum(terms)
            scale = max(max(abs(v) for v in terms), abs(u0x), 1e-300)
            if abs(resid) > 1e-8 * scale:
                raise ConstructionError(
                    f"StationarySolution '{self.description}': ODE residual "
                    f"{resid:.3e} (scale {scale:.3e}) at x={x}")


@dataclass(frozen=True)
class SymmetrySolution:
    """Group orbit of a stationary solution: eval(parameter, x, t)."""

    eval: Callable[[float, float, float], float]
    invariant: bool = False

    def __call__(self, p: float, x: float, t: float) -> float:
        return self.eval(p, x, t)


def _linear_family_solution(diff: DiffusionSpec, params: RiccatiParams,
                            branch: str) -> Tuple[Callable[[float], float], str]:
    """Gauge part log w and description of a stationary branch for the linear
    family, gamma != 2.

    Substituting u0 = exp(-F/(2*sigma)) * w(z), z = x^(2-gamma), turns the
    stationary ODE into z^2 w'' + p*z*w' - (a*z + b)*w = 0 with
    p = (1-gamma)/(2-gamma), a = A/(sigma*(2-gamma)^2),
    b = B/(2*sigma^2*(2-gamma)^2); solutions are power-times-Bessel, of the
    index nu = sqrt((1-p)^2 + 4b) of bessel_core: w = x^(1/2) times
    I_nu or K_nu at 2 sqrt(a z), or x^((1 +- nu (2-gamma))/2) at a = 0: the
    y of riccati._bessel_y at c = 2 sqrt(a), (c1, c2) = (1, 0) or (0, 1).
    """
    nu, c, _, _, q = bessel_core(diff, params)
    a, principal = params.A * c, branch == "principal"
    if a < 0:
        raise CapabilityError("stationary_solution: A < 0 in the linear family")
    log_w = _finite(_bessel_y(nu, 2.0 * math.sqrt(a), float(principal), float(not principal),
                              q)[0], DomainError, "stationary_solution")
    if a == 0.0:
        expo = 0.5 * (1.0 + (nu if principal else -nu) * q)
        return log_w, f"power branch x^{{{expo:.6g}}} times exp(-F/(2 sigma))"
    kind = "growing Bessel branch I" if principal else "decaying Bessel branch K"
    return log_w, f"{kind}_{{{nu:.6g}}}"


def _quadratic_family_solution(diff: DiffusionSpec, params: RiccatiParams,
                               branch: str) -> Tuple[Callable[[float], float], str]:
    """Gauge part and description of a stationary branch for the quadratic
    family, gamma = 1, A > 0:
    u0 = x^(beta/2) * exp(-(F(x) + sqrt(A)*x)/(2*sigma)) * M(alpha, beta, ...)
    with M the regular Kummer function (principal) or the Tricomi function
    (secondary)."""
    s = diff.sigma
    if params.A <= 0:
        raise CapabilityError("stationary_solution: quadratic family needs A > 0")
    rA = math.sqrt(params.A)
    beta = 1.0 + bessel_core(diff, params)[0]  # 1 + sqrt(1 + 2C/s^2)
    alpha = 0.5 * beta + params.B / (2.0 * s * rA)

    principal = branch == "principal"

    def log_w(x: float) -> float:
        z = rA * x / s
        base = 0.5 * beta * math.log(x) - 0.5 * z
        if principal:
            return base + specfun.log_hypergeom_1f1(alpha, beta, z)
        val = specfun.tricomi_u(alpha, beta, z)
        if val <= 0:
            raise DomainError(f"stationary_solution: Tricomi branch not positive at x={x}")
        return base + math.log(val)

    kind = "regular Kummer" if principal else "Tricomi"
    desc = f"{kind} branch (alpha={alpha:.6g}, beta={beta:.6g})"
    return log_w, desc


def gauge_solution(diff: DiffusionSpec, log_gauge: Callable[[float], float],
                   description: str) -> StationarySolution:
    """u0 = exp(log_gauge - F/(2*sigma)), not validated. F is read directly
    where it has a closed form, so u0(0) is defined where F(0) is (atoms)."""
    s2, F = 2.0 * diff.sigma, diff.drift_antiderivative or diff.F

    def log_u0(x: float) -> float:
        return log_gauge(x) - F(x) / s2

    return StationarySolution(eval=lambda x: math.exp(log_u0(x)),
                              description=description, log_eval=log_u0,
                              log_gauge=log_gauge)


def _gauge(diff: DiffusionSpec, u0: StationarySolution) -> Tuple[Callable, Callable]:
    """(log_gauge of u0, F); F read as in gauge_solution."""
    F = diff.drift_antiderivative or diff.F
    if u0.log_gauge is not None:
        return u0.log_gauge, F
    s2 = 2.0 * diff.sigma
    return (lambda x: u0.log(x) + F(x) / s2), F


def stationary_branch(diff: DiffusionSpec, params: RiccatiParams,
                      branch: str) -> StationarySolution:
    """The stationary branch ('principal' or 'secondary') of a pair with
    constants params in the linear (gamma != 2) or quadratic (gamma = 1, A >
    0) family, by the family's formula, not validated."""
    if branch not in ("principal", "secondary"):
        raise DomainError(f"stationary_solution: unknown branch {branch!r}")
    if params.family == "linear":
        if diff.gamma == 2.0:
            raise CapabilityError("stationary_solution: gamma=2 uses the log families")
        log_w, desc = _linear_family_solution(diff, params, branch)
    elif params.family == "quadratic":
        if diff.gamma != 1.0:
            raise CapabilityError(
                "stationary_solution: quadratic family implemented for gamma=1")
        log_w, desc = _quadratic_family_solution(diff, params, branch)
    else:
        raise CapabilityError(
            f"stationary_solution: no constructor for family {params.family!r}")
    return gauge_solution(diff, log_w, desc)


def stationary_solution(diff: DiffusionSpec, pot: PotentialSpec,
                        branch: str = "principal",
                        params: Optional[RiccatiParams] = None
                        ) -> StationarySolution:
    """Construct and verify a stationary solution for a classified pair.

    branch selects between the two independent solutions ('principal' is the
    branch that tends to the constant 1 as the killing strength vanishes, when
    that holds; 'secondary' is the other one).
    """
    if params is None:
        params = fit_riccati(diff, pot, np.geomspace(0.2, 20.0, 24))
        if params is None:
            raise CapabilityError(
                "stationary_solution: (drift, potential) not in an implemented family")

    if pot.form == "zero" and params.family == "linear" and params.A == 0 \
            and params.B == 0 and branch == "principal":
        sol = StationarySolution(eval=lambda x: 1.0, log_eval=lambda x: 0.0,
                                 description="constant 1 (zero potential)")
    else:
        sol = stationary_branch(diff, params, branch)
    sol.validate(diff, pot)
    return sol


def _laplace_orbit(diff: DiffusionSpec, u0: StationarySolution,
                   A: float) -> Callable[[float, float, float], float]:
    """(lam, t, x) -> the laplace_scaling orbit of u0."""
    g, s = diff.gamma, diff.sigma
    if g == 2.0:
        raise CapabilityError("laplace_scaling_symmetry: gamma=2 uses log_scaling")
    q = 2.0 - g
    p, sq2, shift, s2, r = (1.0 - g) / q, s * q * q, A * s * q * q, 2.0 * s, 2.0 / q
    phi, F = _gauge(diff, u0)

    def orbit(lam: float, t: float, x: float) -> float:
        if x <= 0:
            raise DomainError("laplace_scaling_symmetry: x must be > 0")
        den = 1.0 + sq2 * lam * t  # 1 + 4*eps*t with eps = sigma*q^2*lam/4
        if den <= 0:
            raise DomainError(
                f"laplace_scaling_symmetry: out of the symmetry's domain (1+4*eps*t={den:.3g})")
        return math.exp(-p * math.log(den) - lam * (x ** q + shift * t * t) / den
                        + phi(x / den ** r) - F(x) / s2)

    return orbit


def laplace_scaling_symmetry(diff: DiffusionSpec, pot: PotentialSpec,
                             u0: StationarySolution, A: float) -> SymmetrySolution:
    """Symmetry for gamma != 2 drifts in the linear family (constant A).

    eval(lam, x, t) has t=0 profile exp(-lam*x^(2-gamma))*u0(x); integrating
    that profile against the transition kernel reproduces eval at (x, t), which
    is the generalized Laplace transform identity the kernels are checked
    against.
    """
    orbit = _laplace_orbit(diff, u0, A)
    return SymmetrySolution(eval=lambda lam, x, t: orbit(lam, t, x))


def log_scaling_symmetry(diff: DiffusionSpec, pot: PotentialSpec,
                         u0: StationarySolution, A: float) -> SymmetrySolution:
    """Symmetry for gamma = 2 drifts in the log_linear family (constant A);
    t=0 profile exp(-(eps/sigma)*(ln x)^2)*u0(x)."""
    s = diff.sigma
    if diff.gamma != 2.0:
        raise CapabilityError("log_scaling_symmetry: requires gamma=2")
    phi, F = _gauge(diff, u0)

    def ev(eps: float, x: float, t: float) -> float:
        if x <= 0:
            raise DomainError("log_scaling_symmetry: x must be > 0")
        den = 1.0 + 4.0 * eps * t
        if den <= 0:
            raise DomainError(
                f"log_scaling_symmetry: out of the symmetry's domain (1+4*eps*t={den:.3g})")
        lx = math.log(x)
        lg = (-0.5 * math.log(den)
              - eps * (lx * lx - 2.0 * s * t * lx + (4.0 * A + s) * s * t * t) / (s * den)
              + phi(math.exp(lx / den)) - F(x) / (2.0 * s))
        return math.exp(lg)

    return SymmetrySolution(eval=ev)


_INVARIANCE_SAMPLES = ((0.5, 1.0, 0.7), (-0.3, 2.0, 0.4), (0.9, 0.6, 1.2))


def _exp_orbit(diff: DiffusionSpec, u0: StationarySolution,
               params: RiccatiParams) -> Callable[[float, float, float], float]:
    """(eps, x, t) -> the exp_scaling orbit of u0."""
    if diff.gamma != 1.0:
        raise CapabilityError("exp_scaling_symmetry: requires gamma=1")
    if params.A <= 0:
        raise CapabilityError("exp_scaling_symmetry: requires A > 0")
    rA, s2 = math.sqrt(params.A), 2.0 * diff.sigma
    b = params.B / s2
    phi, F = _gauge(diff, u0)

    def orbit(eps: float, x: float, t: float) -> float:
        if x <= 0:
            raise DomainError("exp_scaling_symmetry: x must be > 0")
        # E - eps = E q with q = (1 - 1/E) + (1 - eps)/E, nonnegative terms
        # for eps <= 1, so that log(E - eps) = rA t + log q where E overflows
        inv_E = math.exp(-rA * t)
        q = -math.expm1(-rA * t) + (1.0 - eps) * inv_E
        if q <= 0:
            raise DomainError(
                f"exp_scaling_symmetry: out of the symmetry's domain (1-eps/E={q:.3g})")
        shift = x * eps * inv_E / q  # the group moves x to x*E/(E - eps) = x + shift
        return math.exp(b * math.log(q) / rA - rA * shift / s2
                        + phi(x + shift) - F(x) / s2)

    return orbit


def exp_scaling_symmetry(diff: DiffusionSpec, pot: PotentialSpec,
                         u0: StationarySolution,
                         params: RiccatiParams) -> SymmetrySolution:
    """Symmetry for gamma = 1 drifts in the quadratic family with A > 0. The
    group moves x to x*E/(E - eps), E = exp(sqrt(A)*t). Stationary solutions
    can be fixed points of the group; that is detected and flagged."""
    ev = _exp_orbit(diff, u0, params)
    rA = math.sqrt(params.A)
    invariant = True
    for eps, x, t in _INVARIANCE_SAMPLES:  # t in units of the group's time 1/sqrt(A)
        try:
            ref = u0(x)
            # relative to u0 alone (a u0 far below 1 moves by less than 1e-9); 0 shows nothing
            if not abs(ev(eps, x, t / rA) - ref) < 1e-9 * abs(ref):
                invariant = False
                break
        except (DomainError, OverflowError):
            invariant = False
            break

    return SymmetrySolution(eval=ev, invariant=invariant)


def exp_kummer_symmetry(diff: DiffusionSpec, params: RiccatiParams) -> SymmetrySolution:
    """Tricomi-function orbit of the exp_scaling group (gamma = 1, A > 0): the
    exp_scaling orbit of the Tricomi stationary branch, that is

        U_eps = e^{-Bt/(2s)} (E-eps)^{B/(2s rA)} z^{beta/2} e^{-F(x)/(2s)}
                * exp(-rA*x*(E+eps)/(2s(E-eps))) * TricomiU(alpha, beta, rA*z/s)

    with z = x*E/(E-eps), beta = 1+sqrt(1+2C/s^2), alpha = beta/2 + B/(2s rA).
    Its t=0, eps=0 value is the Tricomi stationary branch itself. Used by the
    Whittaker-transform verification.
    """
    u0 = stationary_branch(diff, params, "secondary")
    return SymmetrySolution(eval=_exp_orbit(diff, u0, params))


def atom_weight(diff: DiffusionSpec, pot: PotentialSpec,
                u0: StationarySolution,
                params: RiccatiParams) -> Callable[[float, float], float]:
    """Weight U_1(x, t) of the boundary atom: the unit-parameter exp_scaling
    orbit of a non-invariant stationary solution. Vanishes as t -> 0+, so the
    atom does not disturb the initial condition."""
    sym = exp_scaling_symmetry(diff, pot, u0, params)
    if sym.invariant:
        raise CapabilityError(
            "atom_weight: the chosen stationary solution is a fixed point of the "
            "symmetry; its orbit carries no atom")
    return lambda x, t: sym(1.0, x, t)


def orbit_transform(diff: DiffusionSpec, u0: StationarySolution,
                    params: RiccatiParams) -> Callable[[float, float, float], float]:
    """(lam, t, x) -> integral of exp(-lam*y^(2-gamma)) u0(y) against the
    kernel (atoms included): the orbit of u0 with t = 0 profile
    exp(-lam*x^(2-gamma)) u0(x). Linear family: the laplace_scaling orbit at
    lam. Quadratic family: the exp_scaling orbit at
    eps = sigma*lam/(sqrt(A) + sigma*lam), which has that profile only for the
    decaying exponential branch (log_gauge = -sqrt(A)*x/(2*sigma) + const,
    B = 0); other u0 raise CapabilityError."""
    if params.family == "linear":
        return _laplace_orbit(diff, u0, params.A)
    if params.family != "quadratic":
        raise CapabilityError(
            f"orbit_transform: no transform orbit for family {params.family!r}")
    orbit = _exp_orbit(diff, u0, params)
    s, rA = diff.sigma, math.sqrt(params.A)
    for x in _CHECK_POINTS:  # eps = 1/2 is lam = sqrt(A)/sigma
        want = u0(x) * math.exp(-rA * x / s)
        if abs(orbit(0.5, x, 0.0) - want) > 1e-9 * want:
            raise CapabilityError(
                "orbit_transform: the exp_scaling orbit of this stationary "
                "solution does not start from exp(-lam*x) u0(x)")
    return lambda lam, t, x: orbit(s * lam / (rA + s * lam), x, t)


def bessel_core(diff: DiffusionSpec, params: RiccatiParams,
                sign: float = 1.0) -> Tuple[float, float, float, float, float]:
    """(nu, c, omega, r, m) of the kernel that the symmetry group of a pair in
    the linear or quadratic family integrates to (Craddock 2009,
    arXiv:0902.4806): an h-transform of m y^(m-1) e^(rt) times the Bessel
    core of catalog._log_bessel_core, with m = 2 - gamma, c = 1/(m^2 sigma),

        linear:     omega = 0,            r = -A,            nu = sign sqrt(sigma^2 + 2B)/(m sigma)
        quadratic:  omega = m sqrt(A)/2,  r = -B/(2 sigma),  nu = sign sqrt(sigma^2 + 2C)/(m sigma).

    sign = -1 is the second branch, I_-nu. CapabilityError for any other
    family, gamma = 2, A < 0 in the quadratic family or a complex index."""
    m, s = 2.0 - diff.gamma, diff.sigma
    if params.family == "linear" and m != 0.0:
        omega, r, k = 0.0, -params.A, params.B
    elif params.family == "quadratic" and m != 0.0 and params.A >= 0:
        omega, r, k = 0.5 * m * math.sqrt(params.A), -params.B / (2.0 * s), params.C
    else:
        raise CapabilityError(f"bessel_core: no Bessel core for {params} at gamma={diff.gamma}")
    disc = s * s + 2.0 * k
    if disc < 0:
        raise CapabilityError(f"bessel_core: complex Bessel index (discriminant {disc:.3g})")
    return sign * math.sqrt(disc) / (m * s), 1.0 / (m * m * s), omega, r, m


def pde_residual(u: Callable[[float, float], float], diff: DiffusionSpec,
                 pot: PotentialSpec, x: float, t: float, h: float = 1e-3) -> float:
    """Central-difference residual of u_t - sigma*x^gamma*u_xx - f*u_x + g*u;
    O(h^2) for smooth solutions."""
    if x - 2 * h <= 0:
        raise DomainError("pde_residual: stencil leaves x > 0")
    if t - h <= 0:
        raise DomainError("pde_residual: stencil leaves t > 0")
    ut = (u(x, t + h) - u(x, t - h)) / (2.0 * h)
    ux = (u(x + h, t) - u(x - h, t)) / (2.0 * h)
    uxx = (u(x + h, t) - 2.0 * u(x, t) + u(x - h, t)) / (h * h)
    return ut - diff.sigma * x ** diff.gamma * uxx - diff.drift(x) * ux + pot(x) * u(x, t)
