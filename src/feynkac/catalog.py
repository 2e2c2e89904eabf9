"""Worked diffusions with closed-form kernels, transforms and expectations.

Each entry binds a diffusion (drift, diffusion power gamma, sigma) and a
killing potential to:

  * a fundamental-solution kernel q(t, x, y) = continuous part + boundary
    atoms at y = 0 (a Dirac mass, sometimes a Dirac-derivative term);
  * the right-hand side of its generalized Laplace transform identity, when
    the symmetry provides one (see "Transforms and atoms");
  * a closed-form expectation E_x[exp(-lambda*X_t^m - functionals)] where
    available, with a quadrature fallback (see "Quadrature").

Kernels evaluate in the log domain wherever they are positive, so small-t
Bessel factors do not overflow. Every kernel takes x and y each as a float
or as a float64 array (arrays broadcast), and picks the math module or numpy
for each by its type.

One Bessel core
---------------
CIR, radial Ornstein-Uhlenbeck and Bessel processes are time-changed,
rescaled squared Bessel (BESQ) processes (Goeing-Jaeschke & Yor, "A survey
and some generalizations of Bessel processes", Bernoulli 9, 2003). So every
positive kernel here is its own drift, power and Jacobian terms times one
factor in X = sx^2, Y = sy^2, the core:

  (c w / sinh wt) exp(-c w coth(wt) (X + Y)) I_nu(2 c w sx sy / sinh wt),

with the limit (c/t) exp(-(c/t)(X + Y)) I_nu(2 c sx sy / t) at w = 0.
_log_bessel_core returns its log by one formula for every w and t,

  L - a (sx - sy)^2 - b sx sy + log(e^-z I_nu(z)),  log z = L + log(2 sx sy),
  L = log(2 c w) - wt - log(1 - e^(-2wt)),  a = c w coth(wt),  b = 2 c w tanh(wt/2)

(L = log(c/t), a = c/t, b = 0 at w = 0): no two terms of size (X + Y)/t
cancel at small t, nothing overflows at large wt, and below z = 1e-300 the
Bessel term is its leading term in log z.

Here sx = x^(m/2), sy = y^(m/2) for the state power m = 2 - gamma. No entry
writes its index nu, scale c, rate w or growth r: symmetry.bessel_core
derives them from the entry's declared Riccati constants (A, B, C) (Craddock
2009), with c = 1/(m^2 sigma) and

  linear family:     w = 0,            r = -A,            nu = sqrt(sigma^2 + 2B)/(m sigma)
  quadratic family:  w = m sqrt(A)/2,  r = -B/(2 sigma),  nu = sqrt(sigma^2 + 2C)/(m sigma)

Every one-branch kernel is then

  log p = H(x, y) + log(m y^(m-1)) + r t + log core,

and a builder supplies only the h-ratio H. An entry with a closed form
states its h-function once, as the terms of u(Y) = sum_i c_i Y^p_i
e^(-beta_i Y), H = log u(Y)/u(X): from them _terms_diffusion forms its drift
antiderivative F = 2 sigma log sum_i c_i x^(m p_i + 1/2) e^(-beta_i x^m),
the drift f = x^gamma F' and f', and _core_sum the kernel with its
atoms and E_x[exp(-lam X_t^m)] = e^(r t) sum_i w_i(X) B_i + atoms, w_i(X) =
c_i X^p_i e^(-beta_i X)/u(X) and B_i the Laplace-Bessel moment of term i, one
log-1F1 (_log_core_moments), by one formula for every w and t (at s = 1,
its wt parts apart, where the core's scale B = 2 c w e^(-2wt)/(1 - e^(-2wt))
or its Bessel argument is below 1e-300 or overflows); past |r t| = 2^20 max(1, |log E|),
where r t and the moments cancel, EvalOverflowError (_check_cancellation).
sqrt_drift's sums the series of its u(y) =
y^((a-1)/2) e^(-b sqrt(y)) moment by moment, in blocks of terms, from tables
of the terms formed once per entry (_sqrt_drift_series); every closed form
takes its moments through _log_moment, the catalog's one call of specfun's
moment, with the core's scales from _core_at and _direct_scales. Both closed
forms take lam as a float or a float64 array (numpy where lam is an array, as
a kernel picks it by y), so that a lambda grid is one call. bessel_drift,
sqrt_drift and generic_linear take H = (F(y) - F(x))/(2 sigma) - log(y/x)/2
from their drift antiderivative F. Where coth(wt) rounds to 1, H and -a
(sx - sy)^2 cancel: a kernel raises EvalOverflowError where that loses 2e-10
of p (_check_cancellation). generic_linear's drift f = 2 sigma x y'/y, its F
= 2 sigma log y and its u0, and bessel_drift's F, are riccati._bessel_y's y,
the linear family's Bessel solution sqrt(x) Z_nu(c x^(m/2)), which
build_drift and symmetry.stationary_branch read too.

The second branch p- has index -nu: radial_ou takes it where a < 1, and
besq_cosh_variant is that of besq n = 3. By DLMF 10.27.3 p- is p+ + (2/pi)
sin(nu pi) p_K (p_K at integer nu), p_K the kernel with K_nu in the core, and
every two-branch kernel is one core's I and K kernels (_branch_kernel):
generic_quadratic's c1 p+ + c2 p-, and where the linear family's y mixes
both branches, generic_linear's and rational_drift's finite-part (mu_inv)
kernel, e^H (c1 Z+ p+ + c2 Z- p-)/N (_linear_pair_kernel), with N and Z-
y of riccati._bessel_y, and the K weight a signed factor and a log.

Transforms and atoms
--------------------
A transform identity integrates exp(-lam y^m) u0(y) against the kernel; its
right-hand side is symmetry.orbit_transform of the entry's u0 and declared
constants, which CatalogEntry forms wherever u0 is given. besq (mu = 0),
bessel, bessel_drift and sqrt_drift take u0 from those constants too, as
symmetry.stationary_branch's principal branch; the other entries state u0
by its gauge part, rational_showcase's as F/2. Linear entries take the
laplace_scaling orbit at lam, quadratic ones the exp_scaling orbit at
eps = sigma lam/(sqrt(A) + sigma lam). That orbit at eps = 1 is the
tanh_drift atom weight (symmetry.atom_weight), and half the rational_drift
one, whose u0 is 1/2 at 0+; rational_drift keeps its own formula because at
mu = 0 its pair is in the linear family, where the group has no eps = 1
orbit. cir, radial_ou, generic_quadratic and besq with mu > 0 have neither
u0 nor transform.

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

Quadrature
----------
_quadrature_expectation integrates exp(-lam y^m) against the kernel with a
fixed-node double-exponential rule (Takahasi & Mori 1974), split at the
kernel's bulk c (first x, with the diffusion's width s over t): tanh-sinh on
[0, c], exp-sinh on [c, inf) (_de_integral). The nodes depend on (t, x) and
the bulk, not on lam, so a lam grid is one pass, the kernel evaluated once
per node, each lam at its own first agreeing level; no state outlives a call.
verify keeps its own adaptive Gauss-Kronrod rule as the independent reference.

The rational_showcase entry is structural: its kernel is a fundamental
solution whose probabilistic meaning is unclear (the drift can push the state
negative), and its Dirac-derivative atom is carried with signed weight and
excluded from mass accounting.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Dict, Mapping, Optional, Tuple

import numpy as np
from scipy.special.cython_special import exprel as _exprel

from .errors import (
    CapabilityError,
    ConvergenceError,
    DomainError,
    EvalOverflowError,
    FeynkacError,
    ValidityError,
)
from . import specfun
from .riccati import (_VALIDATION_POINTS, DiffusionSpec, PotentialSpec, RiccatiParams,
                      _bessel_y, _finite, _on_array, _ratio_drift, _sum_of)
from .symmetry import (StationarySolution, atom_weight, bessel_core, gauge_solution,
                       orbit_transform, stationary_branch)

__all__ = [
    "AtomSpec",
    "Kernel",
    "CatalogEntry",
    "ENTRY_NAMES",
    "ENTRY_PARAMETERS",
    "make_entry",
    "density",
    "atom_weights",
    "transform_rhs",
    "expectation",
    "joint_laplace_in_mu",
    "manifest",
]


@dataclass(frozen=True)
class AtomSpec:
    """Boundary atom at y = 0. order 0 is a Dirac mass (weight must lie in
    [0,1] for density entries); order 1 is a Dirac derivative, carried with
    signed weight and never counted as probability."""

    weight: Callable[[float, float], float]  # (t, x) -> weight
    order: int = 0


@dataclass(frozen=True)
class Kernel:
    """Continuous kernel part plus atoms. continuous(t, x, y) and
    log_continuous(t, x, y) take x and y each as a float or a float64 array
    (arrays broadcast; the result is an array where either is one).
    log_continuous is None only for kernels that can take negative values. A
    finite_part kernel is not integrable near y = 0 and has pointwise values
    only."""

    continuous: Callable[[float, float, float], float]  # (t, x, y)
    log_continuous: Optional[Callable[[float, float, float], float]]
    atoms: Tuple[AtomSpec, ...] = ()
    finite_part: bool = False


@dataclass(frozen=True)
class CatalogEntry:
    """A built entry. make_entry shares one instance among all callers with
    equal parameters, so params is a read-only mapping. Where u0 is given and
    transform_rhs is not, it is symmetry.orbit_transform(diffusion, u0, riccati)."""

    name: str
    params: Mapping[str, float]
    diffusion: DiffusionSpec
    potential: PotentialSpec
    kernel: Kernel
    u0: Optional[StationarySolution] = None
    transform_rhs: Optional[Callable[[float, float, float], float]] = None  # (lam,t,x)
    expectation_closed: Optional[Callable[[float, float, float], float]] = None  # (lam,t,x)
    functional_param: str = ""  # which param is the Laplace variable of the functional
    # declared drift-equation constants, which give the kernel's Bessel core and the transform
    riccati: Optional[RiccatiParams] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))
        if self.u0 is not None and self.transform_rhs is None:
            object.__setattr__(self, "transform_rhs",
                               orbit_transform(self.diffusion, self.u0, self.riccati))

    @property
    def state_power(self) -> float:
        """m = 2 - gamma: expectations and transforms weight exp(-lam*y^m)."""
        return 2.0 - self.diffusion.gamma


# the one type test of a kernel call picks math or numpy by the type of y:
# `type(y) is _NDARRAY` costs about a fifth of isinstance(y, np.ndarray)
_NDARRAY = np.ndarray


_LOG_2, _LOG_TINY, _LOG_HUGE = math.log(2.0), math.log(1e-300), math.log(1.79e308)
# the reductions themselves: ndarray.min and .max add a Python-level wrapper
_MAX = np.maximum.reduce


def _log_bessel(nu: float, log_z, k_nu: bool, tiny: float):
    """log(e^-z I_nu(z)), or log(e^-z K_nu(z)) where k_nu, at the Bessel
    argument z = e^log_z of a core: below log z = tiny the leading term in
    log z (DLMF 10.25.2, 10.31.2, 10.30.2; nu > -1 for I_nu), each side by
    mask in an array. EvalOverflowError where z overflows, as the log kernel
    does too."""
    if type(log_z) is _NDARRAY:
        lo, top = log_z.min(initial=math.inf), log_z.max(initial=-math.inf)
        if lo < tiny <= top:
            small, out = log_z < tiny, np.empty(log_z.shape)
            out[small] = _log_bessel(nu, log_z[small], k_nu, tiny)
            out[~small] = _log_bessel(nu, log_z[~small], k_nu, tiny)
            return out
        xp, small = np, lo < tiny
    else:
        xp, small, top = math, log_z < tiny, log_z
    if small:
        if not k_nu:
            return nu * (log_z - _LOG_2) - math.lgamma(nu + 1.0)
        # times e^-z: the core's cut-off for K_nu reaches z = e^-20
        return specfun._log_k_small(nu, log_z) - (0.0 if nu == 0.0 else xp.exp(log_z))
    if top > _LOG_HUGE:
        raise EvalOverflowError("kernel: the Bessel argument overflows")
    z = xp.exp(log_z)
    if not k_nu:
        return specfun.log_bessel_ive(nu, z)
    return xp.log(specfun.bessel_k(nu, z, scaled=True)) - 2.0 * z


def _log_bessel_core(nu: float, c: float, omega: float, k_nu: bool = False) -> Callable:
    """log_core(t, sx, sy, log sx, log sy) of one kernel: the log of (c w / sinh
    wt) exp(-c w coth(wt)(sx^2 + sy^2)) I_nu(2 c w sx sy / sinh wt), the factor
    every positive kernel shares, by the module docstring's one formula (its
    limit at omega = 0); k_nu puts K_nu in place of I_nu."""
    cw = c * omega
    log_2cw = math.log(2.0 * cw) if omega else 0.0
    # the leading term below z = 1e-300, and for K_nu also where it passes
    # e^700 (e^z K_nu overflows), while z < e^-20: at nu > 1, where the
    # cut-off passes 1e-300, the next term of e^-z K_nu, (z/2)^2/(nu - 1),
    # stays below 1e-19 of it
    tiny = _LOG_TINY
    if k_nu and nu > 0.0:
        tiny = max(tiny, min(-20.0, ((nu - 1.0) * _LOG_2 + math.lgamma(nu) - 700.0) / nu))

    def log_core(t: float, sx: float, sy, log_sx: float, log_sy):
        if omega == 0.0:
            log_pre, a, b = math.log(c / t), c / t, 0.0
        else:  # em = 1 - e^(-2wt), coth(wt) = (2 - em)/em
            wt = omega * t
            em = -math.expm1(-2.0 * wt)
            log_pre = log_2cw - wt - math.log(em)
            a, b = cw * (2.0 - em) / em, 2.0 * cw * math.tanh(0.5 * wt)
        return (log_pre - a * (sx - sy) ** 2 - b * sx * sy
                + _log_bessel(nu, log_pre + _LOG_2 + log_sx + log_sy, k_nu, tiny))
    return log_core


def _scaled_sum(c1, l1, c2, l2, xp):
    """(s, m) with c1 e^l1 + c2 e^l2 = s e^m for a signed float c1 and signed
    c2, elementwise when xp is numpy; a float 0 leaves its term out, and s = 0
    where both logs are -inf. Plain math for floats: scipy.special.logsumexp
    costs 100 us a call, a kernel point 2-5 us."""
    if type(c2) is not _NDARRAY and not c2:
        return c1, l1
    if not c1:
        return c2, l2
    if xp is np:
        m = np.maximum(l1, l2)
        shift = np.where(m > -math.inf, m, 0.0)  # -inf - -inf is NaN
    else:
        m = max(l1, l2)
        shift = m if m > -math.inf else 0.0
    return c1 * xp.exp(l1 - shift) + c2 * xp.exp(l2 - shift), m


def _log_sum_exp(ls, xp=math):
    """log(sum(exp(l) for l in ls)), elementwise when xp is numpy."""
    top = max(ls) if xp is math else functools.reduce(np.maximum, ls)
    return top + xp.log(sum([xp.exp(l - top) for l in ls]))


def _core_at(c: float, omega: float, t: float, sx: float):
    """The Bessel core's scales at t, by one formula for every omega t: (X,
    log sx, omega t, log K0, B, K sx, direct), X = sx^2, K0 = 2 c omega/(1 -
    e^(-2 omega t)) (c/t at omega = 0), K = K0 e^(-omega t), B = K0 e^(-2
    omega t); direct where B and K sx lie in (1e-300, inf), so that a moment
    can be taken at s = D + B and Bessel argument K sx as they are (one test,
    of floats). EvalOverflowError where X overflows (x beyond 1e154 at state
    power 2) or K0 does (t below about 1e-308)."""
    X = sx * sx
    if X == math.inf:
        raise EvalOverflowError(f"expectation: x^2 = {sx!r}^2 overflows")
    wt = omega * t
    # exprel(u) = (e^u - 1)/u, 1 at u = 0: 1 - e^(-2wt) = 2wt exprel(-2wt)
    K0 = c / (t * _exprel(-2.0 * wt))
    if K0 == math.inf:  # t of about 1e-308 and below
        raise EvalOverflowError(f"expectation: the core's scale c/t overflows at t = {t!r}")
    k0, decay = math.log(K0), math.exp(-wt)
    B, arg = K0 * decay * decay, K0 * decay * sx
    return X, math.log(sx), wt, k0, B, arg, B > 1e-300 and 1e-300 < arg < math.inf


def _direct_scales(lam, beta, cw: float, B: float, X: float):
    """(s, X q) of a direct moment (_log_core_moments): s = D + B and q = ((c
    omega - beta) D + lam B)/s, D = lam + beta + c omega, for a float or a
    float64 array lam, with cw = c omega and B, X of _core_at."""
    D = lam + beta + cw
    s = D + B
    return s, X * (((cw - beta) * D + lam * B) / s)


_TERMS = specfun.LaplaceBesselTerms


def _log_moment(p, nu: float, s, c):
    """specfun's scaled Laplace-Bessel moment at s and Bessel argument c, for
    p a float or a float64 column, or a series' specfun.LaplaceBesselTerms,
    formed ahead with a log weight per p: the catalog's one call of the
    moment."""
    if type(p) is _TERMS:
        return specfun.log_laplace_bessel_moments(p, s, c)
    return specfun.log_laplace_bessel_moment_scaled(p, nu, s, c)


def _log_core_moments(nu: float, c: float, omega: float, lam, t: float,
                      sx: float, terms):
    """Yield, for each (p, beta) of terms, log B = log of e^(beta X) X^-p
    integral_0^inf Y^p e^(-(lam + beta) Y) core(Y) dY, X = sx^2, by one
    formula for every omega t: with the core's scales at t (_core_at), K0 =
    2 c omega/(1 - e^(-2 omega t)), K = K0 e^(-omega t) and B = K0 e^(-2
    omega t) (all c/t at omega = 0), and D = lam + beta + c omega >= 0, the
    moment at s = D + B and Bessel argument K sx plus log K, its e^(K^2 X/s)
    and the core's exponent regrouped into -X q, q = ((c omega - beta) D +
    lam B)/s (_direct_scales), whose terms are all nonnegative when c omega
    >= |beta|, so nothing cancels. lam is a float or a float64 array, p and
    beta floats or arrays that broadcast against it (a column of p gives one
    row of moments per p).

    Where B or K sx falls below 1e-300, or K sx overflows (one test, of
    floats), the moment is taken at s = 1 (y -> y/s), with s and K as logs,
    in numpy; below (K sx)^2/s = e^-600 its 1F1 factor is 1, and its log nu
    log(K sx/sqrt(s)) plus a constant. The omega t parts of log K, of log s
    (-2 omega t where B carries s, as where D = 0) and of that leading term
    are summed apart, to (2p + 1) omega t where B carries s: 0 for
    tanh_drift's e^Y term. K sx/sqrt(s) is at most sqrt(K0) sx < e^709.4, and
    where (K sx)^2/s overflows, specfun takes 1F1 from its log."""
    X, l_sx, wt, k0, B, arg, direct = _core_at(c, omega, t, sx)
    lX = 2.0 * l_sx  # not log(X): X underflows to 0 below sx ~ 2e-162
    cw = c * omega
    for p, beta in terms:
        if direct:
            s, Xq = _direct_scales(lam, beta, cw, B, X)
            yield _log_moment(p, nu, s, arg) + (k0 - wt) - Xq - p * lX
            continue
        D = lam + beta + cw
        with np.errstate(divide="ignore"):  # la, lb, ls: logs of D, B and s
            la, lb = np.log(np.maximum(D, 0.0)), k0 - 2.0 * wt
        on_e = la < lb  # B carries s: ls = base + gap - 2 on_e wt
        base, gap = np.where(on_e, k0, la), np.log1p(np.exp(-np.abs(la - lb)))
        ls = np.maximum(la, lb) + gap
        q = (cw - beta) * np.exp(la - ls) + lam * np.exp(lb - ls)
        # lc = log(K sx/sqrt(s)); lc and -(p + 1) ls + log K with their wt parts apart
        lc = k0 + l_sx - 0.5 * (base + gap) + (on_e - 1.0) * wt
        lead = np.minimum(lc + 300.0, 0.0)  # below e^-300: the leading term
        with np.errstate(over="ignore"):  # X q past the float range: log B = -inf
            Xq = X * q
        yield (_log_moment(p, nu, 1.0, np.exp(lc - lead))
               + nu * lead - (p + 1.0) * (base + gap) + k0
               + (2.0 * on_e * (p + 1.0) - 1.0) * wt - Xq - p * lX)


def _with_atoms(val, atoms, lam, t: float, x: float, m: float):
    """val plus the atoms' part of E_x[exp(-lam X_t^m)]: a Dirac mass adds its
    weight, a Dirac derivative its weight times -(d/dy) exp(-lam y^m) at 0.
    lam and val are floats, or float64 arrays of one shape (val is added to
    in place); each weight is evaluated once."""
    for atom in atoms:
        w = atom.weight(t, x)
        if atom.order == 0:
            val += w  # exp(-lam*0) = 1
        else:
            val += lam * w if m == 1.0 else 0.0
    return val


def _kernel(logf, atoms=()) -> Kernel:
    """Kernel of the log density logf(t, x, y, xp=None). Every kernel takes x
    and y each as a float or as a float64 array (arrays broadcast) and picks
    the math module or numpy for each by its type: xp for y (logf's own
    test where xp is None), numpy on x only where x is an array, so one
    formula serves all and a float x keeps math's values."""
    def cont(t: float, x, y):
        log_p = logf(t, x, y)
        return np.exp(log_p) if type(log_p) is _NDARRAY else math.exp(log_p)
    return Kernel(continuous=cont, log_continuous=logf, atoms=tuple(atoms))


_H_MAX = 2.0 ** 20


def _check_cancellation(h, log_p, what: str = "kernel: the h-ratio and the Bessel core") -> None:
    """EvalOverflowError where |H| > 2^20 max(1, |log p|): past it the
    rounding of H, about |H| 1e-16, is more than 2e-10 of p. H is a kernel's
    h-ratio, or a closed form's growth r t."""
    h = np.abs(h)
    if h.max(initial=0.0) > _H_MAX and (h / _H_MAX > np.maximum(1.0, np.abs(log_p))).any():
        raise EvalOverflowError(f"{what} cancel: the value loses 1e-10")


def _log_kernel(core, ratio, k_nu: bool = False, shift: float = 0.0) -> Callable:
    """log p(t, x, y, xp=None) = shift + H + log(m y^(m-1)) + r t + log core
    for _kernel, H = ratio(x, y, log x, log y, xp) and core = (nu, c, omega, r,
    m) of symmetry.bessel_core (m is 1 or 2 in the catalog), all from one log
    x and log y; k_nu puts K_nu in place of I_nu."""
    nu, c, omega, r, m = core
    log_core = _log_bessel_core(nu, c, omega, k_nu)
    shift += _LOG_2 if m == 2.0 else 0.0  # log 2 of the Jacobian 2y; log y is jac

    def log_p(t: float, x, y, xp=None):
        if xp is None:
            xp = np if type(y) is _NDARRAY else math
        xq = np if type(x) is _NDARRAY else math
        lx, ly = xq.log(x), xp.log(y)
        if m == 2.0:
            sx, sy, lsx, lsy, jac = x, y, lx, ly, ly
        else:
            sx, sy, lsx, lsy, jac = xq.sqrt(x), xp.sqrt(y), 0.5 * lx, 0.5 * ly, 0.0
        h = ratio(x, y, lx, ly, xp)
        log_p = shift + r * t + jac + h + log_core(t, sx, sy, lsx, lsy)
        if xp is np or xq is np or abs(h) > _H_MAX:
            _check_cancellation(h, log_p)
        return log_p
    return log_p


def _branch_kernel(ratio, core, w_i: float, k_weight) -> Kernel:
    """Kernel e^H (w_i p_I + w_K p_K), H = ratio(x, y, log x, log y, xp), p_I
    and p_K the kernels of core without an h-ratio, with I_nu and with K_nu in
    the Bessel core: w_i a constant, w_K given by k_weight(y, xp) as a signed
    factor and a log, w_K = s e^l, so that a weight far outside the float
    range is kept: continuous only."""
    log_pi, log_pk = (_log_kernel(core, lambda *_: 0.0, k_nu) for k_nu in (False, True))

    def cont(t: float, x, y):
        xp = np if type(y) is _NDARRAY else math
        xq = np if type(x) is _NDARRAY else math
        h = ratio(x, y, xq.log(x), xp.log(y), xp)
        s_k, l_k = k_weight(y, xp)
        xp_xy = xq if xp is math else np  # numpy where either is an array
        s, top = _scaled_sum(w_i, log_pi(t, x, y, xp), s_k, l_k + log_pk(t, x, y, xp), xp_xy)
        if xp_xy is np or abs(h) > _H_MAX:
            _check_cancellation(h, h + top)
        if xp_xy is np:
            return s * np.exp(h + top)
        try:
            return s * math.exp(h + top)
        except OverflowError:  # numpy's exp gives inf there
            return s * math.inf
    return Kernel(continuous=cont, log_continuous=None)


def _linear_pair_kernel(ratio, core, c: float, c1: float, c2: float) -> Callable:
    """Continuous kernel e^H (c1 Z+ p+ + c2 Z- p-)/N, N = c1 Z+ + c2 Z-, of a
    linear-family y mixing two branches, Z+- = e^-z I_(+-nu)(z) at z = c
    sqrt(y) (y^((1 +- nu)/2) at c = 0): e^H (p+ + s c2 (Z-/N) p_K), s = (2/pi)
    sin(nu pi) (DLMF 10.27.3), with N and Z- the y of riccati._bessel_y of
    coefficients (c1 + c2, c2 s) and (1, s), at c = 0 (c1, c2) and (0, 1)."""
    nu = core[0]
    s = 2.0 / math.pi * math.sin(math.pi * nu)
    log_i, log_k = _bessel_y(nu, c, 1.0, 0.0)[0], _bessel_y(nu, c, 0.0, 1.0)[0]
    n, z = ((c1 + c2, c2 * s), (1.0, s)) if c else ((c1, c2), (0.0, 1.0))

    def k_weight(y, xp):  # s c2 Z-/N from the I-alone and K-alone logs, read once
        li, lk = log_i(y), log_k(y)
        (s_z, l_z), (s_n, l_n) = (_scaled_sum(k1, li, k2, lk, xp) for k1, k2 in (z, n))
        return s * c2 * s_z / s_n, l_z - l_n
    return _branch_kernel(ratio, core, 1.0, k_weight).continuous


def _terms_ratio(terms, m: float) -> Callable:
    """H(x, y, log x, log y, xp) = log u(Y)/u(X), X = x^m, Y = y^m, of u(Y) =
    sum_i c_i Y^p_i e^(-beta_i Y), terms = ((c_i, p_i, beta_i), ...), c_i > 0."""
    if len(terms) == 1:
        _, p0, beta0 = terms[0]

        def ratio(x, y, lx, ly, xp):  # (Y/X)^p0 e^(-beta0 (Y - X))
            dY = (y - x) * (y + x) if m == 2.0 else y - x  # Y - X without cancellation
            return p0 * m * (ly - lx) - beta0 * dY
        return ratio
    logc = tuple((math.log(ci), p, beta) for ci, p, beta in terms)

    def ratio(x, y, lx, ly, xp):
        return (_log_sum_exp(_log_terms(logc, y ** m, m * ly), xp)
                - _log_sum_exp(_log_terms(logc, x ** m, m * lx),
                               np if type(x) is _NDARRAY else math))
    return ratio


def _terms_diffusion(terms, gamma: float, sigma: float, label: str) -> DiffusionSpec:
    """DiffusionSpec of one or two terms of u(Y) (_terms_ratio), gamma 0 or 1
    (1 for two), m = 2 - gamma, e_i = m p_i + 1/2: F = 2 sigma log sum_i c_i
    x^e_i e^(-beta_i x^m), f = x^gamma F' = 2 sigma sum_i w_i (e_i x^(gamma-1)
    - m beta_i x), w_i the terms' weights, and f', zero coefficients left out.
    Two terms mix each as (a_1 + a_2)/2 + T (a_1 - a_2)/2, T = tanh(h), h half
    the log of term 1 over term 2, T' = h' sech(h)^2 (4e/(1 + e)^2, e = e^-2|h|:
    1 - T^2 loses digits). f and f' take x > 0, a float or a float64 array; F
    a float, by math.log and math.pow, finite at 0 where no e_i is negative."""
    m, s2 = 2.0 - gamma, 2.0 * sigma
    (l1, e1, b1), *rest = [(math.log(ci), m * p + 0.5, beta) for ci, p, beta in terms]
    if not rest:
        log_c, e, b = s2 * l1, s2 * e1, s2 * b1
        k = -m * b  # f = e x^(gamma-1) + k x, e/x at gamma = 0: numpy's power is slow
        drift = lambda x: _sum_of(e if gamma else e / x, k and k * x)
        slope = lambda x: _sum_of(k, 0.0 if gamma else -e / (x * x))

        def F(x: float) -> float:
            return e * math.log(x) - b * math.pow(x, m) + log_c
    else:
        (l2, e2, b2), = rest
        l2 -= l1  # c_1 factored out

        def F(x: float) -> float:
            lx, z = (math.log(x) if x else -math.inf), math.pow(x, m)
            g = (e1 * lx if e1 else 0.0) - b1 * z
            h = l2 + (e2 * lx if e2 else 0.0) - b2 * z
            if g < h:
                g, h = h, g
            return s2 * (l1 + (g + math.log1p(math.exp(h - g))))
        # h = hc + hl log x + hx x (x itself where hx = 1), f = f0 + f1 T + (f2
        # + f3 T) x and f' = f2 + f3 T + sech(h)^2 h' (f1 + f3 x), h' = hl/x + hx
        hc, hl, hx = -0.5 * l2, 0.5 * (e1 - e2), 0.5 * (b2 - b1)
        f0, f1, f2, f3 = sigma * (e1 + e2), s2 * hl, -sigma * (b1 + b2), s2 * hx
        h_at = lambda x: _sum_of(hc, hl and hl * np.log(x), hx and (x if hx == 1.0 else hx * x))

        def drift(x):
            T = np.tanh(h_at(x))
            return _sum_of(f0, f1 and f1 * T, f2 and f2 * x, f3 and f3 * T * x)

        def slope(x):
            h = h_at(x)
            e = np.exp(-2.0 * np.abs(h))
            sech2_dh = 4.0 * e / (1.0 + e) ** 2 * _sum_of(hl and hl / x, hx)
            return _sum_of(sech2_dh * _sum_of(f1, f3 and f3 * x), f3 and f3 * np.tanh(h), f2)
    return DiffusionSpec(gamma=gamma, sigma=sigma, drift=drift, drift_antiderivative=F,
                         label=label, drift_derivative=slope)


def _log_terms(logc, z: float, lz: float):
    """log c_i Z^p_i e^(-beta_i Z), logc = ((log c_i, p_i, beta_i), ...), lz = log Z."""
    return [lc + p * lz - beta * z for lc, p, beta in logc]


def _gauge_ratio(diff: DiffusionSpec) -> Callable:
    """H(x, y, log x, log y, xp) = (F(y) - F(x))/(2 sigma) - log(y/x)/2 from
    the drift antiderivative F, which takes a float or a float64 array
    (checked here, once per entry)."""
    F, s2 = diff.drift_antiderivative, 2.0 * diff.sigma
    _on_array(F, np.array(_VALIDATION_POINTS),
              f"DiffusionSpec '{diff.label}': drift_antiderivative")

    def ratio(x, y, lx, ly, xp):
        return (F(y) - F(x)) / s2 - 0.5 * (ly - lx)
    return ratio


def _core_sum(diff: DiffusionSpec, ric: RiccatiParams, terms, atoms=(),
              sign: float = 1.0) -> Tuple[Kernel, Callable]:
    """(Kernel with the atoms, closed-form expectation with the atoms) of the
    kernel whose h-function is u(Y) = sum_i c_i Y^p_i e^(-beta_i Y), terms =
    ((c_i, p_i, beta_i), ...) with c_i > 0, and whose Bessel core
    symmetry.bessel_core reads from the declared constants ric. The
    expectation takes lam as a float or a float64 array; the weights w_i(X)
    and the atoms' weights are formed once per call."""
    core = nu, c, omega, g, m = bessel_core(diff, ric, sign)
    kernel = _kernel(_log_kernel(core, _terms_ratio(terms, m)), atoms)
    logc = tuple((math.log(ci), p, beta) for ci, p, beta in terms)
    pb = tuple((p, beta) for _, p, beta in terms)
    single = len(terms) == 1
    # for an array lam, the terms of a sum as one column of p and of beta
    # (one beta where they share it): one array of moments, terms x lam
    betas = {beta for _, beta in pb}
    columns = ((np.array([[p] for p, _ in pb]),
                betas.pop() if len(betas) == 1 else np.array([[beta] for _, beta in pb])),)

    def expect(lam, t: float, x: float):
        grid = type(lam) is _NDARRAY
        if (lam.min(initial=0.0) if grid else lam) < 0:
            raise DomainError("expectation: lam >= 0 required")
        sx = x if m == 2.0 else math.sqrt(x)
        gt = g * t
        if single:
            log_e = gt + next(_log_core_moments(nu, c, omega, lam, t, sx, pb))
        else:  # log w_i(X) + r t + log B_i, X = x^m
            ls = _log_terms(logc, x ** m, m * math.log(x))
            top = _log_sum_exp(ls)
            if grid:
                log_e = np.array([[l - top + gt] for l in ls]) + next(
                    _log_core_moments(nu, c, omega, lam, t, sx, columns))
            else:
                log_e = [l - top + gt + lb
                         for l, lb in zip(ls, _log_core_moments(nu, c, omega, lam, t, sx, pb))]
        if abs(gt) > _H_MAX:  # r t and the moments' omega t parts cancel
            _check_cancellation(gt, log_e if single else np.logaddexp.reduce(log_e),
                                "expectation: the growth and the moments")
        if single:
            val = (np.exp if grid else math.exp)(log_e)
        else:
            val = np.exp(log_e).sum(axis=0) if grid else sum([math.exp(v) for v in log_e])
        return _with_atoms(val, atoms, lam, t, x, m) if atoms else val

    return kernel, expect


# ---------------------------------------------------------------------------
# entry 1: squared Bessel process
# ---------------------------------------------------------------------------

def _besq_terms(n: float):
    return ((1.0, 0.25 * (n - 2.0), 0.0),)  # u(Y) = Y^((n - 2)/4)


def _make_besq(n: float, mu: float, nu: float, b: Optional[float]) -> CatalogEntry:
    """dX = n dt + 2 sqrt(X) dW; killing g(x) = mu*x + nu/x; b sets mu = b^2/2.

    Kernel: Bessel-type with index-shift absorbing both killings; the mu > 0
    case needs n >= 2 (the C2 = 0 branch is the transition density only
    there). The expectation is one Laplace-Bessel moment for all mu, nu.
    """
    if b is not None:
        if mu:
            raise ValidityError("besq: give either mu or its alias b, not both")
        mu = 0.5 * b * b
    if mu > 0 and n < 2:
        raise ValidityError("besq: the mu*x killing kernel requires n >= 2")

    terms = _besq_terms(n)
    diff = _terms_diffusion(terms, gamma=1.0, sigma=2.0, label="besq")
    pot = PotentialSpec(form="inverse_plus_linear", mu=mu, nu_coeff=nu) \
        if (mu or nu) else PotentialSpec(form="zero")
    C = 0.5 * n * (n - 4.0) + 4.0 * nu
    ric = RiccatiParams("quadratic", A=8.0 * mu, B=0.0, C=C) if mu \
        else RiccatiParams("linear", A=0.0, B=C)

    kernel, expect = _core_sum(diff, ric, terms)
    # the linear family's power branch; mu*x killing needs a Kummer one
    u0 = stationary_branch(diff, ric, "principal") if mu == 0.0 else None

    return CatalogEntry(
        name="besq", params={"n": n, "mu": mu, "nu": nu},
        diffusion=diff, potential=pot, kernel=kernel, u0=u0, riccati=ric,
        expectation_closed=expect, functional_param="nu" if nu else "mu")


@functools.lru_cache(maxsize=1)
def _besq3_second_branch() -> Kernel:
    """The kernel of the second branch, index -1/2, of besq n = 3."""
    e = make_entry("besq", n=3.0)
    return _core_sum(e.diffusion, e.riccati, _besq_terms(3.0), sign=-1.0)[0]


def besq_cosh_variant(t: float, x: float, y):
    """The n=3 companion kernel with cosh in place of sinh: the second branch
    of besq n = 3, I_-1/2 in place of I_1/2, a fundamental solution that is
    NOT a transition density (its total mass differs from 1 and its Cauchy
    solutions are discontinuous at the origin). y may be a float64 array."""
    return _besq3_second_branch().continuous(t, x, y)


# ---------------------------------------------------------------------------
# entry 2: Bessel process with drift a/x
# ---------------------------------------------------------------------------

def _make_bessel(a: float, mu: float) -> CatalogEntry:
    """dX = (a/X) dt + dW; killing g(x) = mu/(4x^2). gamma=0, sigma=1/2."""

    terms = ((1.0, 0.5 * (a - 0.5), 0.0),)
    diff = _terms_diffusion(terms, gamma=0.0, sigma=0.5, label="bessel")
    pot = PotentialSpec(form="power", mu=mu / 4.0, n=-2.0) if mu \
        else PotentialSpec(form="zero")
    ric = RiccatiParams("linear", A=0.0, B=0.5 * a * (a - 1.0) + 0.25 * mu)

    # E_x[exp(-lam*X_t^2 - (mu/4) int ds/X_s^2)]
    kernel, expect = _core_sum(diff, ric, terms)

    return CatalogEntry(
        name="bessel", params={"a": a, "mu": mu},
        diffusion=diff, potential=pot, kernel=kernel,
        u0=stationary_branch(diff, ric, "principal"), riccati=ric,
        expectation_closed=expect, functional_param="mu")


# ---------------------------------------------------------------------------
# entry 3: Bessel process with Bessel-ratio drift
# ---------------------------------------------------------------------------

def _make_bessel_drift(a: float, b: float, mu: float) -> CatalogEntry:
    """dX = ((a+1/2)/X + b*I_{a+1}(bX)/I_a(bX)) dt + dW; killing mu/x^2. No
    closed-form expectation: quadrature only."""

    log_ive = specfun.log_bessel_ive

    def _ratio(z: float) -> float:
        return np.exp(log_ive(a + 1.0, z) - log_ive(a, z))

    def drift(x: float) -> float:
        return (a + 0.5) / x + b * _ratio(b * x)

    def drift_derivative(x: float) -> float:
        z = b * x
        r = _ratio(z)
        # ratio' = 1 - (2a+1) ratio / z - ratio^2, from the index recurrences
        return -(a + 0.5) / (x * x) \
            + b * b * (1.0 - (2.0 * a + 1.0) * r / z - r * r)

    # F = log(sqrt(x) I_a(bx)), the y of the linear family at gamma = 0
    diff = DiffusionSpec(gamma=0.0, sigma=0.5, drift=drift,
                         drift_derivative=drift_derivative,
                         drift_antiderivative=_bessel_y(a, b, 1.0, 0.0, 2.0)[0],
                         label="bessel_drift")
    pot = PotentialSpec(form="power", mu=mu, n=-2.0) if mu \
        else PotentialSpec(form="zero")
    ric = RiccatiParams("linear", A=0.5 * b * b, B=0.5 * (a * a - 0.25) + mu)

    return CatalogEntry(
        name="bessel_drift", params={"a": a, "b": b, "mu": mu}, diffusion=diff, potential=pot,
        kernel=_kernel(_log_kernel(bessel_core(diff, ric), _gauge_ratio(diff))),
        u0=stationary_branch(diff, ric, "principal"), riccati=ric, functional_param="mu")


# ---------------------------------------------------------------------------
# entry 4: mean-reverting square-root process
# ---------------------------------------------------------------------------

def _affine(a: float, b: float, sigma: float, label: str):
    """(dX = (a - bX) dt + sqrt(2 sigma X) dW, the terms of its u(Y) =
    Y^(a/2s - 1/2) e^(-b Y/2s)), s = sigma; b/2s is formed as bessel_core's
    c omega is, (1/s)(sqrt(A)/2), so that the two are equal at A = b^2."""
    s = 1.0 / sigma
    terms = ((1.0, 0.5 * a * s - 0.5, 0.5 * b * s),)
    return _terms_diffusion(terms, gamma=1.0, sigma=sigma, label=label), terms


def _make_cir(a: float, b: float, sigma: float, mu: float, mu_lin: float) -> CatalogEntry:
    """dX = (a - bX) dt + sqrt(2 sigma X) dW; killing mu/x + mu_lin*x."""

    diff, terms = _affine(a, b, sigma, "cir")
    if mu or mu_lin:
        pot = PotentialSpec(form="inverse_plus_linear", nu_coeff=mu, mu=mu_lin)
    else:
        pot = PotentialSpec(form="zero")
    ric = RiccatiParams("quadratic", A=b * b + 4.0 * sigma * mu_lin, B=-a * b,
                        C=0.5 * a * a - a * sigma + 2.0 * sigma * mu)

    # E_x[exp(-lam*X_t - mu int ds/X_s - mu_lin int X_s ds)]
    kernel, expect = _core_sum(diff, ric, terms)

    return CatalogEntry(
        name="cir", params={"a": a, "b": b, "sigma": sigma, "mu": mu,
                            "mu_lin": mu_lin},
        diffusion=diff, potential=pot, kernel=kernel, riccati=ric,
        expectation_closed=expect, functional_param="mu")


# ---------------------------------------------------------------------------
# entry 5: drift 2ax/(2+ax)
# ---------------------------------------------------------------------------

def _make_rational_drift(a: float, mu: float, mu_inv: float) -> CatalogEntry:
    """dX = 2aX/(2+aX) dt + sqrt(2X) dW.

    Killing mu*x: kernel with a Dirac mass at y=0 whose weight is twice the
    unit-parameter symmetry orbit of the decaying stationary branch (the
    branch value at 0+ is 1/2).
    Killing mu_inv/x: pointwise kernel whose second term is a finite-part
    distribution near y=0; quadrature-based operations are not offered.
    """
    if mu > 0 and mu_inv > 0:
        raise ValidityError("rational_drift: choose mu*x or mu_inv/x killing, not both")

    terms = ((2.0, -0.5, 0.0), (a, 0.5, 0.0))  # u(y) = (2 + ay)/sqrt(y)
    diff = _terms_diffusion(terms, gamma=1.0, sigma=1.0, label="rational_drift")

    if mu_inv > 0.0:
        return _rational_drift_inverse(a, mu_inv, diff, terms)

    rmu = math.sqrt(mu)
    pot = PotentialSpec(form="power", mu=mu, n=1.0) if mu else PotentialSpec(form="zero")
    ric = RiccatiParams("quadratic", A=4.0 * mu, B=0.0) if mu \
        else RiccatiParams("linear", A=0.0, B=0.0)

    def log_u1(t: float, x: float) -> float:
        # unit-parameter symmetry orbit of u0 = exp(-sqrt(mu)x)/(2+ax)
        rate = rmu / math.tanh(rmu * t) if mu else 1.0 / t
        return -rate * x - math.log(2.0 + a * x)

    atom = AtomSpec(weight=lambda t, x: 2.0 * math.exp(log_u1(t, x)), order=0)
    # E_x[exp(-lam*X_t - mu int X_s ds)]
    kernel, expect = _core_sum(diff, ric, terms, atoms=(atom,))

    u0 = gauge_solution(diff, lambda y: -rmu * y, "decaying exponential branch /(2+ay)")

    return CatalogEntry(
        name="rational_drift", params={"a": a, "mu": mu, "mu_inv": 0.0},
        diffusion=diff, potential=pot, kernel=kernel, u0=u0, riccati=ric,
        expectation_closed=expect, functional_param="mu")


def _rational_drift_inverse(a: float, mu_inv: float, diff: DiffusionSpec,
                            terms) -> CatalogEntry:
    """The mu_inv/x killing: u0 and, with H from the terms, the kernel are
    those of y = a x^((1 + root)/2) + 2 x^((1 - root)/2), the power limit
    of riccati._bessel_y at the core's index root = sqrt(1 + 4 mu_inv):
    e^H (p+ + (4/pi) sin(root pi) p_K/(2 + a y^root)) (_linear_pair_kernel)."""
    ric = RiccatiParams("linear", A=0.0, B=2.0 * mu_inv)
    core = bessel_core(diff, ric)
    root = core[0]
    if abs(root - round(root)) < 1e-12:
        raise CapabilityError(
            "rational_drift: mu_inv with integer sqrt(1+4*mu_inv) needs a "
            "distribution-order inverse transform that is not implemented")
    pot = PotentialSpec(form="power", mu=mu_inv, n=-1.0)
    u0 = gauge_solution(diff, _finite(_bessel_y(root, 0.0, a, 2.0)[0], DomainError,
                                      "rational_drift"),
                        "combined power branch (value 1 at mu_inv=0)")
    cont = _linear_pair_kernel(_terms_ratio(terms, 1.0), core, 0.0, a, 2.0)

    return CatalogEntry(
        name="rational_drift", params={"a": a, "mu": 0.0, "mu_inv": mu_inv},
        diffusion=diff, potential=pot,
        kernel=Kernel(continuous=cont, log_continuous=None, finite_part=True),
        u0=u0, riccati=ric, functional_param="mu_inv")


# ---------------------------------------------------------------------------
# entry 6: drift 2x tanh x
# ---------------------------------------------------------------------------

def _make_tanh_drift(mu: float) -> CatalogEntry:
    """dX = 2X tanh(X) dt + sqrt(2X) dW; killing mu*x; Dirac mass at 0."""
    k = math.sqrt(1.0 + mu)
    terms = ((0.5, -0.5, -1.0), (0.5, -0.5, 1.0))  # u(y) = cosh(y)/sqrt(y)
    diff = _terms_diffusion(terms, gamma=1.0, sigma=1.0, label="tanh_drift")
    pot = PotentialSpec(form="power", mu=mu, n=1.0) if mu else PotentialSpec(form="zero")

    u0 = gauge_solution(diff, lambda y: -k * y, "decaying branch exp(-ky)/cosh(y)")
    ric = RiccatiParams("quadratic", A=4.0 * (1.0 + mu), B=0.0)
    u1 = atom_weight(diff, pot, u0, ric)  # (x, t); u0(0+) = 1
    atom = AtomSpec(weight=lambda t, x: u1(x, t), order=0)
    # E_x[exp(-lam*X_t - mu int X_s ds)]
    kernel, expect = _core_sum(diff, ric, terms, atoms=(atom,))

    return CatalogEntry(
        name="tanh_drift", params={"mu": mu},
        diffusion=diff, potential=pot, kernel=kernel, u0=u0, riccati=ric,
        expectation_closed=expect, functional_param="mu")


# ---------------------------------------------------------------------------
# entry 7: radial Ornstein-Uhlenbeck process
# ---------------------------------------------------------------------------

def _make_radial_ou(a: float, b: float, mu: float) -> CatalogEntry:
    """dX = (a/X + bX) dt + sqrt(2) dW; killing mu*x^2. gamma=0, sigma=1."""
    A = b * b + 4.0 * mu
    if A == 0.0:
        raise ValidityError("radial_ou: requires b != 0 or mu > 0")

    # u(y) = y^((a - 1)/2) e^(b y^2/4), the index (a - 1)/2 of the branch sign(a - 1)
    terms = ((1.0, 0.25 * (a - 1.0), -0.25 * b),)
    diff = _terms_diffusion(terms, gamma=0.0, sigma=1.0, label="radial_ou")
    pot = PotentialSpec(form="power", mu=mu, n=2.0) if mu else PotentialSpec(form="zero")
    ric = RiccatiParams("quadratic", A=A, B=b * (1.0 + a), C=0.5 * a * a - a)

    # E_x[exp(-lam*X_t^2 - mu int X_s^2 ds)]
    kernel, expect = _core_sum(diff, ric, terms, sign=math.copysign(1.0, a - 1.0))

    return CatalogEntry(
        name="radial_ou", params={"a": a, "b": b, "mu": mu},
        diffusion=diff, potential=pot, kernel=kernel, riccati=ric,
        expectation_closed=expect, functional_param="mu")


# ---------------------------------------------------------------------------
# entry 8: drift 3 - 4b/(b+ax^2), structural showcase
# ---------------------------------------------------------------------------

def _make_rational_showcase(a: float, b: float) -> CatalogEntry:
    """u_t = x u_xx + (3 - 4b/(b+ax^2)) u_x. Fundamental solution carries a
    Dirac mass AND a signed Dirac-derivative atom at y = 0; the process-level
    meaning is unclear (the drift admits negative values), so this entry is
    structural only."""

    terms = ((b, -1.0, 0.0), (a, 1.0, 0.0))  # u(y) = (b + a y^2)/y
    diff = _terms_diffusion(terms, gamma=1.0, sigma=1.0, label="rational_showcase")
    pot = PotentialSpec(form="zero")
    ric = RiccatiParams("linear", A=0.0, B=1.5)

    atom0 = AtomSpec(order=0, weight=lambda t, x:
                     b * (x + t) * math.exp(-x / t) / (t * (b + a * x * x)))
    atom1 = AtomSpec(order=1, weight=lambda t, x:
                     b * t * math.exp(-x / t) / (b + a * x * x))
    # E_x[exp(-lam*X_t)] with both atoms
    kernel, expect = _core_sum(diff, ric, terms, atoms=(atom0, atom1))
    u0 = StationarySolution(eval=lambda y: 1.0, log_eval=lambda y: 0.0, description="constant 1",
                            log_gauge=lambda y: 0.5 * diff.drift_antiderivative(y))

    return CatalogEntry(
        name="rational_showcase", params={"a": a, "b": b},
        diffusion=diff, potential=pot, kernel=kernel, u0=u0, riccati=ric,
        expectation_closed=expect, functional_param="")


# ---------------------------------------------------------------------------
# entry 9: drift a - b*sqrt(x) with its computable potential
# ---------------------------------------------------------------------------

# sqrt_drift series: it stops at a term below _SERIES_REL_TOL of the sum and raises
# where sum |term| > _SERIES_MAX_CANCELLATION |sum| (fewer than ~10 digits left)
_SERIES_REL_TOL, _SERIES_MAX_TERMS, _SERIES_MAX_CANCELLATION = 1e-13, 500, 1e5
# terms per block: over the perfbench pool ranges the series stops after 12
# to 26 terms, so that one block is mostly all
_SERIES_BLOCK = 24
_SERIES_J = np.arange(float(_SERIES_MAX_TERMS))[:, None]
_SERIES_LGAMMA = np.array([math.lgamma(j + 1.0) for j in range(_SERIES_MAX_TERMS)])[:, None]
_SERIES_TOL = np.where(_SERIES_J > 3, _SERIES_REL_TOL, 0.0)  # terms 0 to 3 never stop it
# below it, _SERIES_MAX_TERMS terms of at most 1 sum to under half the least subnormal
_SERIES_LOG_GONE = math.log(5e-324) - math.log(2.0 * _SERIES_MAX_TERMS)


def _sqrt_drift_series(a: float, b: float, nu: float) -> Callable:
    """block(j0, step): the tables of sqrt_drift's series terms j0 to j0 +
    step - 1 (_sqrt_drift_expectation), (moment terms, sign, tolerance, log
    weight, j), each a column, formed once per entry and block: the moment's
    terms of specfun.laplace_bessel_terms at p_j = (a - 1 + j)/2, which carry
    the log weight j log|b| - log j! (log 0^j at b = 0), the sign (-1)^j where
    b > 0 (the series alternates) and the stopping rule's tolerance."""
    p = 0.5 * (a - 1.0 + _SERIES_J)
    log_bj = _SERIES_J * math.log(abs(b)) if b else np.where(_SERIES_J > 0, -math.inf, 0.0)
    log_w = log_bj - _SERIES_LGAMMA
    sign = np.where(_SERIES_J % 2, -1.0, 1.0) if b > 0 else np.ones(_SERIES_J.shape)
    tables: Dict[tuple, tuple] = {}

    def block(j0: int, step: int) -> tuple:
        got = tables.get((j0, step))
        if got is None:
            j = slice(j0, j0 + step)
            got = tables[j0, step] = (specfun.laplace_bessel_terms(p[j], nu, log_w[j]),
                                      sign[j], _SERIES_TOL[j], log_w[j], _SERIES_J[j])
        return got
    return block


def _sqrt_drift_expectation(a: float, b: float, core, block: Callable, lam, t: float,
                            x: float):
    """E_x[exp(-lam*X_t - int g ds)] of sqrt_drift, whose u(y) = y^((a-1)/2)
    e^(-b sqrt(y)) is the series sum_j (-b)^j/j! y^((a-1+j)/2): term j is one
    moment of the core at p_j = (a - 1 + j)/2 (as _log_core_moments takes
    it), weighted by (-b sqrt(x))^j/j!; core = (nu, c, omega, r, m) of
    symmetry.bessel_core and block the entry's tables (_sqrt_drift_series).

    lam is a float or a float64 array, on one code path. The core's scales
    at t (_core_at), and per lam s and the exponent every term shares
    (_direct_scales; the weight's sqrt(x)^j and the moment's X^-p_j leave
    x^-((a-1)/2)), are formed once per call. The terms come in blocks of
    _SERIES_BLOCK, each one array of moments (terms x lam), one 1F1 call, for
    every lam still summing; where the core's scales leave the float range, a
    block is _log_core_moments' log-domain moments. Each lam's column stops at
    its own first negligible term, and its sum is added up in the order of a
    term-by-term loop, in units of its largest term in the first block,
    e^shift, so that terms near e^-700 keep their digits (shift goes into the
    final exp, where an overflow is EvalOverflowError, as is a later term
    past e^709 units); a column whose terms times e^(b sqrt(x) + r t) sum to
    under half the least subnormal is 0, as when they underflowed."""
    grid = type(lam) is _NDARRAY
    if (lam.min(initial=0.0) if grid else lam) < 0:
        raise DomainError("expectation: lam >= 0 required")
    nu, c, omega, r, _ = core
    sx = math.sqrt(x)
    X, l_sx, wt, k0, B, arg, direct = _core_at(c, omega, t, sx)
    cols = list(range(len(lam))) if grid else [0]
    e = [0.0] * len(cols)  # per column, the exponent all its terms share
    if direct:
        s, Xq = _direct_scales(lam, 0.0, c * omega, B, X)
        shared = (k0 - wt) - Xq - (a - 1.0) * l_sx
        e = shared.tolist() if grid else [shared]
    # below it, a column's terms times e^(b sqrt(x) + r t) sum to 0
    gone = _SERIES_LOG_GONE - (b * sx + r * t)
    out, lift = [0.0] * len(cols), [gone] * len(cols)
    j0, step = 0, _SERIES_BLOCK
    while True:
        if j0 >= _SERIES_MAX_TERMS:
            raise ConvergenceError("sqrt_drift expectation: series did not converge "
                                   f"in {_SERIES_MAX_TERMS} terms")
        terms, sign, tol, log_w, j = block(j0, step)
        try:
            if direct:
                log_term = _log_moment(terms, nu, s, arg)
            else:
                log_term = next(_log_core_moments(nu, c, omega, lam, t, sx, ((terms.p, 0.0),)))
                log_term += log_w + j * l_sx
            if j0:
                log_term -= shift
                if _MAX(log_term, None) > _LOG_HUGE:
                    raise EvalOverflowError("sqrt_drift expectation: a term overflows the "
                                            "sum; b*sqrt(x) is too large for double precision")
        except FeynkacError:
            # a block reaches past the terms a loop would evaluate: from here
            # on, term by term, so that only a term the loop reaches can raise
            if step == 1:
                raise
            step = 1
            continue
        if not j0:  # units: each column's largest term in the first block (a
            # column of zeros, as where X q overflows, is gone: no -inf - -inf)
            shift = _MAX(log_term, 0, initial=-1e300)
            log_term -= shift
            units = [u + v for u, v in zip(shift.tolist(), e)]
        mag = np.exp(log_term, out=log_term)
        term = mag * sign
        sizes = np.add.accumulate(mag, 0)
        if j0:
            term[0] += total  # so that the running sums add up as in a loop
            sizes += size
        sums = np.add.accumulate(term, 0)
        bound = np.abs(sums)
        bound *= tol
        stop = mag < bound
        live = []
        for k, (at, unit) in enumerate(zip(stop.argmax(0).tolist(), units)):
            if unit <= gone:  # these terms sum to 0
                continue
            if not stop[at, k]:
                live.append(k)
                continue
            value = float(sums[at, k])
            floor = max(abs(value), 1e-300)
            if sizes[at, k] > _SERIES_MAX_CANCELLATION * floor:
                raise ConvergenceError(
                    "sqrt_drift expectation: alternating series loses precision "
                    f"(sum of |terms| {sizes[at, k] / floor:.3e} x |sum|); "
                    "b*sqrt(x_typ) is too large for double precision")
            out[cols[k]], lift[cols[k]] = value, unit
        if not live:
            break
        if len(live) < len(units):
            cols, units = [cols[k] for k in live], [units[k] for k in live]
            live = np.array(live)
            shift, sums, sizes = shift[live], sums[:, live], sizes[:, live]
            if direct:
                s = s[live]
            else:
                lam = lam[live]
        total, size = sums[-1], sizes[-1]
        j0 += step
    if not grid:
        return math.exp(b * sx + r * t + lift[0]) * out[0]
    with np.errstate(over="ignore"):  # inf: EvalOverflowError in _evaluate
        return np.exp(b * sx + r * t + np.array(lift)) * np.array(out)


def _make_sqrt_drift(a: float, b: float, A: float, B: float) -> CatalogEntry:
    """dX = (a - b sqrt(X)) dt + sqrt(2X) dW. The potential is determined by
    the drift: g = (A - b^2/2)/2 + (a - a^2/2 + B)/(2x) + (ab - b/2)/(2 sqrt(x)).

    Sign convention: the expectation computed is E_x[exp(-lam*X_t - int g ds)],
    with the killing term entering with a minus sign (the generator is
    L - g); entries of this family are flagged because a plus convention also
    circulates for them.
    """

    def g(x: float) -> float:
        return (0.5 * (A - 0.5 * b * b) + 0.5 * (a - 0.5 * a * a + B) / x
                + 0.5 * (a * b - 0.5 * b) / np.sqrt(x))

    def F(x: float) -> float:  # x a float or a float64 array
        xp = np if type(x) is _NDARRAY else math
        return a * xp.log(x) - 2.0 * b * xp.sqrt(x)

    diff = DiffusionSpec(gamma=1.0, sigma=1.0,
                         drift=lambda x: a - b * np.sqrt(x),
                         drift_derivative=lambda x: -0.5 * b / np.sqrt(x),
                         drift_antiderivative=F, label="sqrt_drift")
    pot = PotentialSpec(form="tabulated", func=g)
    ric = RiccatiParams("linear", A=0.5 * A, B=B)
    core = bessel_core(diff, ric)

    return CatalogEntry(
        name="sqrt_drift", params={"a": a, "b": b, "A": A, "B": B},
        diffusion=diff, potential=pot,
        kernel=_kernel(_log_kernel(core, _gauge_ratio(diff))),
        u0=stationary_branch(diff, ric, "principal"), riccati=ric,
        expectation_closed=functools.partial(_sqrt_drift_expectation, a, b, core,
                                             _sqrt_drift_series(a, b, core[0])),
        functional_param="")


# ---------------------------------------------------------------------------
# entry 10: constructed drifts, linear family, killing mu/x
# ---------------------------------------------------------------------------

def _make_generic_linear(sigma: float, A: float, B: float, mu: float, c1: float,
                         c2: float) -> CatalogEntry:
    """Drift f = 2*sigma*x*y'/y with y = sqrt(x)*(c1 I_alpha + c2 I_{-alpha})
    at argument sqrt(2Ax)/sigma; killing mu/x; index nu < 1 (see the table).
    y, its drift and u0 (y at index nu over y) are riccati._bessel_y's, in
    the K basis I_-alpha = I_alpha + (2/pi) sin(alpha pi) K_alpha (DLMF
    10.27.3); DomainError where y <= 0. The kernel is p+, or where c2 != 0
    _linear_pair_kernel's (p- where c1 = 0)."""
    if 2.0 * B + sigma * sigma <= 0:
        raise ValidityError("generic_linear: requires 2B + sigma^2 > 0")
    if c1 == 0.0 and c2 == 0.0:
        raise ValidityError("generic_linear: (c1, c2) must not both be zero")
    alpha = math.sqrt(2.0 * B + sigma * sigma) / sigma
    c = math.sqrt(2.0 * A) / sigma

    def y_at(order: float):  # y = sqrt(x) (c1 I_order + c2 I_-order)(c sqrt(x))
        return _bessel_y(order, c, c1 + c2, c2 * (2.0 / math.pi) * math.sin(math.pi * order))

    diff = _ratio_drift(sigma, A, B, y_at(alpha), "generic_linear", DomainError)
    pot = PotentialSpec(form="power", mu=mu, n=-1.0) if mu else PotentialSpec(form="zero")
    ric = RiccatiParams("linear", A=0.5 * A / sigma, B=B + 2.0 * sigma * mu)
    core = bessel_core(diff, ric)
    nu = core[0]
    if not nu < 1.0:
        raise ValidityError(
            f"generic_linear: requires index < 1 (got {nu:.6g}); the inverse "
            "transform is otherwise distribution-valued")

    ratio = _gauge_ratio(diff)
    cont = (_linear_pair_kernel(ratio, core, c, c1, c2) if c2
            else _kernel(_log_kernel(core, ratio)).continuous)  # p+ where c2 = 0

    u0 = gauge_solution(diff, _finite(y_at(nu)[0], DomainError, "generic_linear"),
                        f"index-shift ratio {nu:.6g}/{alpha:.6g}")

    return CatalogEntry(
        name="generic_linear",
        params={"sigma": sigma, "A": A, "B": B, "mu": mu, "c1": c1, "c2": c2},
        diffusion=diff, potential=pot, kernel=Kernel(continuous=cont, log_continuous=None),
        u0=u0, riccati=ric, functional_param="mu")


# ---------------------------------------------------------------------------
# entry 11: affine drift, quadratic family, killing mu*x
# ---------------------------------------------------------------------------

def _make_generic_quadratic(sigma: float, a: float, b: float, mu: float, c1: float,
                            c2: float) -> CatalogEntry:
    """dX = (a - bX) dt + sqrt(2 sigma X) dW; killing mu*x. The group-invariant
    kernel of the quadratic family, c1 p+ + c2 p- with default branch weights
    (1, 0); p- takes K_nu in place of I_-nu at integer nu. No Laplace-type
    transform (the group parameter enters exponentially); the
    Whittaker-transform check uses it."""
    A = b * b + 4.0 * mu * sigma
    if A <= 0:
        raise ValidityError("generic_quadratic: requires b != 0 or mu > 0")

    diff, terms = _affine(a, b, sigma, "generic_quadratic")
    pot = PotentialSpec(form="power", mu=mu, n=1.0) if mu else PotentialSpec(form="zero")
    ric = RiccatiParams("quadratic", A=A, B=-a * b, C=0.5 * a * a - a * sigma)
    core, ratio = bessel_core(diff, ric), _terms_ratio(terms, 1.0)

    if c2 == 0.0 and c1 > 0:
        kernel = _kernel(_log_kernel(core, ratio, shift=math.log(c1)))
    else:  # c1 p+ + c2 p-, p- = p_K at integer nu, p+ + (2/pi) sin(nu pi) p_K otherwise
        nu = core[0]
        w = (c1, c2) if abs(nu - round(nu)) < 1e-12 else \
            (c1 + c2, c2 * (2.0 / math.pi) * math.sin(math.pi * nu))
        kernel = _branch_kernel(ratio, core, w[0], lambda y, xp: (w[1], 0.0))

    return CatalogEntry(
        name="generic_quadratic",
        params={"sigma": sigma, "a": a, "b": b, "mu": mu, "c1": c1, "c2": c2},
        diffusion=diff, potential=pot, kernel=kernel, riccati=ric,
        functional_param="mu")


# ---------------------------------------------------------------------------
# registry and operations
# ---------------------------------------------------------------------------

# each domain's text, as messages and the manifest give it, and its test of a finite value
_DOMAINS = {"finite": lambda v: True, "> 0": lambda v: v > 0, ">= 0": lambda v: v >= 0,
            "> 1/2": lambda v: v > 0.5, "> -1": lambda v: v > -1.0}

# name -> (builder, its parameters in its order as (name, default, domain),
# default ... where one is required, the rules that tie parameters together):
# _build fills the defaults and checks each value against its domain, and a
# builder checks only the rules. besq's alias b has no value by default.
_TABLE: Dict[str, Tuple[Callable[..., CatalogEntry], tuple, str]] = {
    "besq": (_make_besq, (("n", ..., "> 0"), ("mu", 0.0, ">= 0"), ("nu", 0.0, ">= 0"),
                          ("b", None, "finite")),
             "mu > 0 needs n >= 2; b aliases mu = b^2/2, given without mu"),
    "bessel": (_make_bessel, (("a", ..., "> 1/2"), ("mu", 0.0, ">= 0")), ""),
    "bessel_drift": (_make_bessel_drift,
                     (("a", ..., "> -1"), ("b", ..., "> 0"), ("mu", 0.0, ">= 0")), ""),
    "cir": (_make_cir, (("a", ..., "> 0"), ("b", ..., "> 0"), ("sigma", ..., "> 0"),
                        ("mu", 0.0, ">= 0"), ("mu_lin", 0.0, ">= 0")), ""),
    "rational_drift": (_make_rational_drift,
                       (("a", ..., "> 0"), ("mu", 0.0, ">= 0"), ("mu_inv", 0.0, ">= 0")),
                       "mu, mu_inv not both positive; sqrt(1+4*mu_inv) must not be an integer"),
    "tanh_drift": (_make_tanh_drift, (("mu", 0.0, ">= 0"),), ""),
    "radial_ou": (_make_radial_ou, (("a", ..., "> 1/2"), ("b", ..., "finite"),
                                    ("mu", 0.0, ">= 0")), "b != 0 or mu > 0"),
    "rational_showcase": (_make_rational_showcase, (("a", ..., "> 0"), ("b", ..., "> 0")), ""),
    "sqrt_drift": (_make_sqrt_drift, (("a", ..., "finite"), ("b", ..., "finite"),
                                      ("A", ..., "> 0"), ("B", ..., "> 0")), ""),
    "generic_linear": (_make_generic_linear,
                       (("sigma", ..., "> 0"), ("A", ..., "> 0"), ("B", ..., "finite"),
                        ("mu", 0.0, ">= 0"), ("c1", 1.0, "finite"), ("c2", 0.0, "finite")),
                       "2B + sigma^2 > 0; (c1, c2) not both 0; "
                       "2B + sigma^2 + 4*mu*sigma in (0, sigma^2)"),
    "generic_quadratic": (_make_generic_quadratic,
                          (("sigma", ..., "> 0"), ("a", ..., "> 0"), ("b", ..., "finite"),
                           ("mu", 0.0, ">= 0"), ("c1", 1.0, "finite"), ("c2", 0.0, "finite")),
                          "b != 0 or mu > 0"),
}

ENTRY_NAMES = tuple(sorted(_TABLE))
ENTRY_PARAMETERS: Mapping[str, Tuple[str, ...]] = MappingProxyType(
    {name: tuple(k for k, _, _ in row[1]) for name, row in _TABLE.items()})


def make_entry(name: str, **params: float) -> CatalogEntry:
    """The entry of that name and parameters, built once per parameter set."""
    # type(v) is in the key so that n=3 and n=3.0 build separate entries; a
    # key is stored only after its build succeeded, so a hit needs no checks
    key = (name, *params.items(), *map(type, params.values()))
    try:
        return _ENTRIES[key]
    except KeyError:
        pass
    except TypeError:  # e.g. a 0-d numpy array: built every time, not cached
        return _build(name, params)
    items = sorted(params.items())  # one entry whatever the keyword order
    canonical = (name, *items, *(type(v) for _, v in items))
    entry = _ENTRIES.get(canonical)
    if entry is None:
        entry = _ENTRIES[canonical] = _build(name, params)
    _ENTRIES[key] = entry
    while len(_ENTRIES) > _ENTRY_CACHE_SIZE:
        del _ENTRIES[next(iter(_ENTRIES))]
    return entry


# Built entries, each under at most two keys: the call's keyword order and the
# sorted one; the oldest key goes first past the bound. One cycle of each
# benchmark workload stores points 33 entries (44 keys), tabulate 695 (977)
# and verify 42 (55). An entry is about 4 KB, so a full dict holds 4-8 MB.
_ENTRIES: Dict[tuple, CatalogEntry] = {}
_ENTRY_CACHE_SIZE = 2048


def _build(name: str, params: Dict[str, float]) -> CatalogEntry:
    """The builder's entry at params and the table's defaults, each value
    finite and in its domain; EvalOverflowError where the builder's
    arithmetic fails (at magnitudes far past 1e12), as _evaluate raises."""
    if name not in _TABLE:
        raise DomainError(f"make_entry: unknown entry {name!r} "
                          f"(known: {', '.join(ENTRY_NAMES)})")
    builder, table, _ = _TABLE[name]
    names = ENTRY_PARAMETERS[name]
    unknown = set(params) - set(names)
    if unknown:
        raise DomainError(f"make_entry: {name} does not take parameters "
                          f"{sorted(unknown)} (takes {list(names)})")
    missing = [k for k, default, _ in table if default is ... and k not in params]
    if missing:
        raise DomainError(f"make_entry: {name} needs parameters {missing} "
                          f"(takes {list(names)})")
    values = [params.get(k, default) for k, default, _ in table]
    for (k, _, domain), v in zip(table, values):
        if v is None:  # besq's b
            continue
        if not math.isfinite(v):
            raise ValidityError(f"{name}: parameter {k} must be finite (got {v})")
        if not _DOMAINS[domain](v):
            raise ValidityError(f"{name}: requires {k} {domain} (got {v})")
    try:
        return builder(*values)
    except (OverflowError, ZeroDivisionError, ValueError) as exc:
        raise EvalOverflowError(f"make_entry: entry {name} failed at {params!r} "
                                f"({exc})") from exc


def _resolve(entry, params: Optional[Dict[str, float]]) -> CatalogEntry:
    if isinstance(entry, CatalogEntry):
        return entry
    return make_entry(entry, **(params or {}))


def _evaluate(route: str, e: CatalogEntry, fn: Callable[..., float], *args):
    """fn(*args) as a finite number, or as an array of them where an argument
    is a grid (lam, the first, for expectations; y, the last, for densities):
    an arithmetic failure or a non-finite result raises EvalOverflowError."""
    try:
        val = fn(*args)
    except (OverflowError, ZeroDivisionError) as exc:
        raise EvalOverflowError(f"{route}: entry {e.name} failed at {args!r} "
                                f"({exc})") from exc
    if type(val) is _NDARRAY:
        if not np.isfinite(val).all():
            bad = ~np.isfinite(val)
            at, grid = ("lam", args[0]) if route == "expectation" else ("y", args[-1])
            raise EvalOverflowError(f"{route}: entry {e.name} gave {float(val[bad][0])!r} "
                                    f"at {at}={float(grid[bad][0])!r}")
    elif not math.isfinite(val):
        raise EvalOverflowError(f"{route}: entry {e.name} gave {val!r} at {args!r}")
    return val


def density(entry, params: Optional[Dict[str, float]], t: float, x: float,
            y, log: bool = False):
    """Continuous part of the fundamental solution at y > 0 (the atoms at
    y = 0 are reported by atom_weights, not here). y may be a 1-D array: one
    kernel call then evaluates all of it, and the result is an array."""
    e = _resolve(entry, params)
    t, x, grid = float(t), float(x), type(y) is _NDARRAY and y.ndim
    y = y.astype(float) if grid else float(y)
    if not (t > 0 and x > 0 and ((y > 0).all() if grid else y > 0)):
        raise DomainError("density: requires t > 0, x > 0, y > 0")
    fn = e.kernel.log_continuous if log else e.kernel.continuous
    if fn is None:
        raise CapabilityError(
            f"density: entry {e.name} has no log form (kernel may be signed)")
    if not grid:
        return _evaluate("density", e, fn, t, x, y)
    with np.errstate(all="ignore"):
        return _evaluate("density", e, fn, t, x, y)


def atom_weights(entry, params: Optional[Dict[str, float]], t: float,
                 x: float) -> list:
    """(location, order, weight) of each boundary atom of the kernel at (t, x);
    every atom sits at location 0."""
    e = _resolve(entry, params)
    t, x = float(t), float(x)
    if not (t > 0 and x > 0):
        raise DomainError("atom_weights: requires t > 0, x > 0")
    return [(0.0, a.order, _evaluate("atom_weights", e, a.weight, t, x))
            for a in e.kernel.atoms]


def transform_rhs(entry, params: Optional[Dict[str, float]], lam: float,
                  t: float, x: float) -> float:
    """Closed-form right-hand side of the entry's transform identity."""
    e = _resolve(entry, params)
    lam, t, x = float(lam), float(t), float(x)
    if not (lam >= 0 and math.isfinite(lam)):
        raise DomainError(f"transform_rhs: finite lam >= 0 required (got {lam})")
    if e.transform_rhs is None:
        raise CapabilityError(f"transform_rhs: entry {e.name} has no "
                              "Laplace-type transform identity")
    return _evaluate("transform_rhs", e, e.transform_rhs, lam, t, x)


# ---------------------------------------------------------------------------
# quadrature: a fixed-node double-exponential rule (Takahasi & Mori 1974)
# ---------------------------------------------------------------------------

_HALF_PI = 0.5 * math.pi
_DE_H = 0.5             # node spacing in u of the first level; each level halves it
_DE_MAX_LEVEL = 6       # the last level has spacing 1/128
_DE_REL_TOL = 1e-11     # two levels agree within this times the integral of |f|
_DE_NOISE = 1e-9        # ... or within this, once rounding in f stops them converging
_DE_TAIL = 1e-15        # a far end's term, relative to the largest, of a finite sum
_DE_LOCATE = 6          # first levels at most, each centred on the last one's peak
_DE_LOG_ZERO = -800.0   # largest log|f| at the nodes below which the integral is 0
# u-ranges: towards c both maps stop where their weights fall below 1e-17 s;
# the far ends start at |u| = _DE_REACH (y of about c e^-86 and c + s e^16)
# and grow by 1 while their terms are not negligible, up to y of about
# c e^-640 and c + s e^40
_DE_NEAR = (math.asinh(44.0 / math.pi), math.asinh(44.0 / _HALF_PI))
_DE_FAR = (640.0, 40.0)
_DE_REACH = (4.0, 3.0)


def _de_pieces(c: float, s: float):
    """The two maps from u to (y, dy/du), each with its u-range and the end of
    it that lies away from c: tanh-sinh on (0, c), v = (pi/2) sinh u + delta,
    shifted so that u = 0 lies about s below c, and exp-sinh on (c, inf) with
    scale s. EvalOverflowError where s is 0 or not finite."""
    if not 0.0 < s < math.inf:
        raise EvalOverflowError(f"expectation: the quadrature scale {s!r} is out of range")
    delta = max(0.0, 0.5 * (math.log(c) - math.log(s)))

    def tanh_sinh(u):
        v = _HALF_PI * np.sinh(u) + delta
        e = np.exp(-2.0 * np.abs(v))
        return (np.where(v > 0.0, c, c * e) / (1.0 + e),
                math.pi * c * np.cosh(u) * e / (1.0 + e) ** 2)

    def exp_sinh(u):
        ev = np.exp(_HALF_PI * np.sinh(u))
        return c + s * ev, _HALF_PI * s * np.cosh(u) * ev

    return ((tanh_sinh, -math.asinh((_DE_FAR[0] + 2.0 * delta) / math.pi), _DE_NEAR[0], 0),
            (exp_sinh, -_DE_NEAR[1], math.asinh(_DE_FAR[1] / _HALF_PI), -1))


def _de_nodes(lo: float, hi: float, h: float, odd: bool) -> np.ndarray:
    """The multiples of h in [lo, hi]; only the odd ones when odd."""
    k = math.ceil(lo / h)
    k += odd and not k % 2
    return np.arange(k * h, (math.floor(hi / h) + 0.5) * h, (1 + odd) * h)  # exact: h = 2^-j


def _de_level(kernel, blocks, lam: np.ndarray, m: float, what: str):
    """(y, w f, log|f|) at the nodes u of the blocks (map, u) in turn, from one
    kernel call, kernel(y) = (sign, log|q|), a row of terms per lam: f = sign
    e^(log|q| - lam y^m), one exp of summed logs (e^(-lam y^m) overflows for
    lam < 0, and times a q of 0 is NaN); ConvergenceError where one is not finite."""
    y, w = (np.concatenate(v) for v in zip(*(mp(u) for mp, u in blocks)))
    sign, log_q = kernel(y) if len(y) else (y, y)
    damp = lam[:, None] * y ** m
    damp[lam == 0.0] = 0.0  # not 0 y^m, NaN where y^m overflows
    log_f = log_q - damp
    wf = w * (sign * np.exp(log_f))
    if not np.isfinite(wf).all():
        raise ConvergenceError(f"{what}: the integrand is not finite at "
                               f"y = {float(y[~np.isfinite(wf).all(axis=0)][0])!r}")
    return y, wf, log_f


def _de_first_level(kernel, lam: np.ndarray, m: float, c: float, s: float, what: str):
    """The pieces of (c, s), their u-spans, the first level's nodes y, and the
    rows of lam whose own first level it is, with their terms: each span
    grows at its far end, by its new nodes only, while every row's end term
    is not negligible (ConvergenceError past the end of the range); a row
    whose end term is not negligible where another's is leaves the rows."""
    pieces = _de_pieces(c, s)
    spans = [[max(lo, -_DE_REACH[0]), hi] if far == 0 else [lo, min(hi, _DE_REACH[1])]
             for _, lo, hi, far in pieces]
    y = wf = log_f = None
    count, rows = [0, 0], np.arange(len(lam))  # the nodes of each piece, the rows
    while True:
        us = [_de_nodes(a, b, _DE_H, False) for a, b in spans]
        fresh = [(mp, u[:len(u) - n] if far == 0 else u[n:])
                 for (mp, _, _, far), u, n in zip(pieces, us, count)]
        count = [len(u) for u in us]
        n = len(fresh[0][1])  # the far end of piece 0 is the first node, of piece 1 the last
        new = _de_level(kernel, fresh, lam[rows], m, what)
        y, wf, log_f = (v if old is None else np.concatenate((v[..., :n], old, v[..., n:]), -1)
                        for v, old in zip(new, (y, wf, log_f)))
        size = np.abs(wf)
        top, keep, grown = size.max(axis=1), np.ones(len(rows), bool), False
        for (_, lo, hi, far), span in zip(pieces, spans):
            need = size[:, far] > _DE_TAIL * top
            if not need.any():
                continue
            if not need[keep].all():  # their own first level spans more
                keep &= ~need
            elif span[far] == (lo, hi)[far]:
                raise ConvergenceError(f"{what}: the integrand is not negligible "
                                       "at the ends of the node range")
            else:
                span[far] = max(lo, span[far] - 1.0) if far == 0 else min(hi, span[far] + 1.0)
                grown = True
        rows, wf, log_f = rows[keep], wf[keep], log_f[keep]
        if not grown:
            return pieces, spans, y, rows, wf, log_f


def _de_peak(y: np.ndarray, log_f: np.ndarray):
    """(centre, width) of the bulk seen at the ascending nodes y, or None
    where log(y |f|) is largest at an end of the range: the vertex and
    curvature -1/(2 w^2) of the parabola through log(y |f|) at its largest
    node and the two neighbours (exact for a Gaussian bulk), else the largest
    node and half the gap between its neighbours."""
    score = log_f + np.log(y)
    j = int(np.argmax(score))
    if not 0 < j < len(y) - 1:
        return None
    y0, y1, y2 = (float(v) for v in y[j - 1:j + 2])
    s0, s1, s2 = score[j - 1:j + 2]
    if y0 < y1 < y2 and math.isfinite(s0 + s2):
        d1, d2 = (s1 - s0) / (y1 - y0), (s2 - s1) / (y2 - y1)
        a = (d2 - d1) / (y2 - y0)
        if a < 0:
            return y1 - (d1 + a * (y1 - y0)) / (2.0 * a), 1.0 / math.sqrt(-2.0 * a)
    return y1, 0.5 * (y2 - y0)


def _de_integral(kernel, lam: np.ndarray, m: float, c: float, s: float, what: str) -> np.ndarray:
    """Integral over (0, inf) of f = sign e^(log|q| - lam y^m) for each row
    lam of the float64 array lam; kernel(y) returns (sign, log|q|) and is the
    costly part, evaluated once per node for all the rows. The bulk of f
    lies near c with width about s.

    The first level (_de_first_level) locates the bulk: while the peak it
    sees (_de_peak) lies more than 4 s from c, or at an end of the range, c
    and s move to it (to the end, with s = c) and the level is made again.
    Where every term underflows, the integral is 0 if the bulk was located
    and the largest log|f| is below _DE_LOG_ZERO, and unknown otherwise.
    Each further level halves the spacing and evaluates only the new nodes
    (the first call makes three levels), until two levels agree, or stop
    converging within _DE_NOISE. Each row takes its own first agreeing level,
    equal to its lone call bit for bit; a lone call makes each row whose bulk
    would move, whose terms all underflow or whose first level is another. An
    error of the shared pass is that of a row's lone call, at the same node."""
    k = len(lam)
    val = np.full(k, np.nan)  # NaN: not integrated yet
    with np.errstate(all="ignore"):
        for _ in range(_DE_LOCATE):
            pieces, spans, y, rows, wf, log_f = _de_first_level(kernel, lam, m, c, s, what)
            bulks = [_de_peak(y, row) for row in log_f]
            located = np.array([b is not None and (abs(b[0] - c) <= 4.0 * s or not b[1] > 0.0)
                                for b in bulks])
            if k > 1 or located[0]:
                break
            c, s = bulks[0] or (float(y[np.argmax(log_f[0] + np.log(y))]),) * 2
        if k == 1 and not wf.any():
            if located[0] and log_f.max() < _DE_LOG_ZERO:
                return np.zeros(1)
            raise ConvergenceError(f"{what}: the integrand vanishes at every node")
        keep = located & wf.any(axis=1) | (k == 1)  # the other rows go alone
        # each row's [sum, sum of |f|, last step] until two of its levels agree
        state = {r: (_DE_H * total, _DE_H * l1, math.inf) for r, total, l1 in zip(
            rows[keep].tolist(), wf[keep].sum(axis=1).tolist(),
            np.abs(wf[keep]).sum(axis=1).tolist())}
        h, level = _DE_H, 0
        while level < _DE_MAX_LEVEL and state:
            new_levels = (1, 2, 3) if level == 0 else (level + 1,)
            blocks = [(mp, _de_nodes(a, b, _DE_H * 0.5 ** j, True))
                      for j in new_levels for (mp, *_), (a, b) in zip(pieces, spans)]
            rows = list(state)
            wf = _de_level(kernel, blocks, lam[rows], m, what)[1]
            start = 0
            for j in new_levels:
                stop = start + len(blocks[0][1]) + len(blocks[1][1])
                new, blocks, start = wf[:, start:stop], blocks[2:], stop
                h *= 0.5
                for r, add, add_l1 in zip(rows, new.sum(axis=1).tolist(),
                                          np.abs(new).sum(axis=1).tolist()):
                    if r not in state:  # agreed at an earlier level
                        continue
                    total, l1, last = state.pop(r)
                    new_total, l1 = total * 0.5 + h * add, l1 * 0.5 + h * add_l1
                    step = abs(new_total - total)
                    if step <= _DE_REL_TOL * l1 or (
                            j >= 3 and step <= _DE_NOISE * l1 and step > 0.125 * last):
                        val[r] = new_total
                    else:
                        state[r] = new_total, l1, step
            level = new_levels[-1]
        if state:
            raise ConvergenceError(f"{what}: no two levels agreed down to node spacing "
                                   f"{h!r} (last estimate {next(iter(state.values()))[0]!r})")
    for j in np.flatnonzero(np.isnan(val)):
        val[j] = _de_integral(kernel, lam[j:j + 1], m, c, s, what)[0]
    return val


def _quadrature_expectation(e: CatalogEntry, lam, t: float, x: float):
    """E_x[exp(-lam X_t^m)] by quadrature of the kernel, lam a float or a 1-D
    float64 array, in blocks of 128 rows (a block's (rows, nodes) arrays stay near 1 MB)."""
    if e.kernel.finite_part:
        raise CapabilityError(f"expectation: entry {e.name} has a finite-part "
                              "kernel; quadrature is not offered")
    m, log_k = e.state_power, e.kernel.log_continuous

    def kernel(y: np.ndarray):  # (sign, log|q|): one weight formula for both kinds
        if log_k is not None:
            return 1.0, log_k(t, x, y)
        q = e.kernel.continuous(t, x, y)
        return np.sign(q), np.log(np.abs(q))

    # the bulk: around x, the width of the diffusion over t (from near 0 it
    # spreads as sigma t: CIR and BESQ have variance 2 sigma t (x + sigma t / 2))
    d = e.diffusion
    s = math.sqrt(2.0 * d.sigma * t * (x + d.sigma * t) ** d.gamma)
    what = f"expectation: quadrature for entry {e.name}"
    lams = np.atleast_1d(lam)
    val = np.empty(len(lams))
    for j in range(0, len(lams), 128):
        val[j:j + 128] = _de_integral(kernel, lams[j:j + 128], m, x, s, what)
    return _with_atoms(val if type(lam) is _NDARRAY else float(val[0]),
                       e.kernel.atoms, lam, t, x, m)


def expectation(entry, params: Optional[Dict[str, float]], lam, t: float, x: float,
                method: str = "auto"):
    """E_x[exp(-lam*X_t^m - killing functionals)], m = entry.state_power.
    method: 'auto' (closed form if available), 'closed', 'quadrature'.
    lam may be a 1-D array, on every route: a closed form or the quadrature
    then evaluates all of it in one call, and the result is an array."""
    e = _resolve(entry, params)
    t, x, grid = float(t), float(x), type(lam) is _NDARRAY and lam.ndim
    lam = np.asarray(lam, float) if grid else float(lam)
    if not (t > 0 and x > 0):
        raise DomainError("expectation: requires t > 0, x > 0")
    if not (np.isfinite(lam).all() if grid else math.isfinite(lam)):
        bad = float(lam[~np.isfinite(lam)][0]) if grid else lam
        raise DomainError(f"expectation: lam must be finite (got {bad})")
    if method not in ("auto", "closed", "quadrature"):
        raise DomainError(f"expectation: unknown method {method!r}")
    fn = e.expectation_closed
    if method == "quadrature" or fn is None:
        if method == "closed":
            raise CapabilityError(f"expectation: entry {e.name} has no closed form")
        fn = functools.partial(_quadrature_expectation, e)
    if not grid:
        return _evaluate("expectation", e, fn, lam, t, x)
    with np.errstate(all="ignore"):
        return _evaluate("expectation", e, fn, lam, t, x)


def joint_laplace_in_mu(entry, params: Optional[Dict[str, float]], lam: float,
                        t: float, x: float, mu_grid, method: str = "auto") -> list:
    """Tabulate the expectation along a grid of functional-strengths, ready
    for numerical Laplace inversion in that variable; method is
    expectation's, at every grid point."""
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
        rows.append((m, expectation(e.name, base, lam, t, x, method=method)))
    return rows


def manifest() -> dict:
    """Machine-readable catalog listing: each entry's parameters, those it
    requires, the others' defaults, and its validity region (the domains of
    each run of parameters, then the rules)."""
    entries = []
    for name in ENTRY_NAMES:
        _, table, rules = _TABLE[name]
        runs = [f"{', '.join(k for k, _, _ in run)} {d}"
                for d, run in itertools.groupby(table, key=lambda p: p[2])]
        entries.append({"name": name, "parameters": list(ENTRY_PARAMETERS[name]),
                        "required": [k for k, d, _ in table if d is ...],
                        "defaults": {k: d for k, d, _ in table if d is not ...},
                        "validity": "; ".join(runs + [rules] if rules else runs)})
    return {"schema_version": 2, "entries": entries}
