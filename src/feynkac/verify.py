"""Independent numerical verification of the catalog.

Everything here checks closed forms by routes that do not reuse the closed
forms themselves:

  * adaptive Gauss-Kronrod quadrature on (0, inf) (QUADPACK's G10/K21 pair
    and error estimate) that evaluates each refinement round's nodes in one
    array call of the integrand, and integrates a lambda sweep on one shared
    mesh;
  * Gaver-Stehfest numerical Laplace inversion (with an order-stability
    diagnostic);
  * a forward Whittaker-type index transform evaluated by quadrature;
  * Monte Carlo simulation of the SDE with a full-truncation Euler scheme
    (plus an exact sampler for the squared Bessel family);
  * finite-difference PDE residuals with Richardson order estimation;
  * Chapman-Kolmogorov two-step composition;
  * limit reductions between neighboring catalog entries;
  * an alternative single-integral representation of the Bessel-entry
    expectation.

Checks produce CheckRow records collected into a VerificationReport that can
be serialized to CSV (15 significant digits) or JSON (native binary64).
"""

from __future__ import annotations

import csv
import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ._jsonout import dumps
from .errors import (
    CapabilityError,
    ConvergenceError,
    DomainError,
    InstabilityError,
    SchemeError,
)
from . import specfun
from . import catalog as cat
from .riccati import DiffusionSpec, PotentialSpec, fit_riccati, riccati_residual
from . import symmetry

__all__ = [
    "McSpec",
    "MC_SUITE_SPEC",
    "CheckRow",
    "VerificationReport",
    "integrate_semi_infinite",
    "gaver_stehfest_weights",
    "laplace_invert",
    "whittaker_forward",
    "check_whittaker_identity",
    "mc_expectation",
    "residual_convergence_order",
    "check_transform_identity",
    "check_mass",
    "check_chapman",
    "bessel_expectation_by_integral",
    "hartman_ratio_gap",
    "run_suite",
    "SUITES",
]


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckRow:
    identity: str
    grid_point: str
    reference: float
    computed: float
    tolerance: float

    @property
    def abs_err(self) -> float:
        return abs(self.computed - self.reference)

    @property
    def rel_err(self) -> float:
        scale = max(abs(self.reference), abs(self.computed))
        return self.abs_err / scale if scale > 0 else 0.0

    @property
    def passed(self) -> bool:
        return self.abs_err <= self.tolerance * max(1.0, abs(self.reference))


_CSV_COLUMNS = ("identity", "grid_point", "reference", "computed",
                "abs_err", "rel_err", "passed")


@dataclass
class VerificationReport:
    suite: str
    rows: List[CheckRow] = field(default_factory=list)

    def add(self, identity: str, grid_point: str, reference: float,
            computed: float, tolerance: float) -> CheckRow:
        row = CheckRow(identity, grid_point, float(reference), float(computed),
                       tolerance)
        self.rows.append(row)
        return row

    def extend(self, other: "VerificationReport") -> None:
        self.rows.extend(other.rows)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    @property
    def n_failed(self) -> int:
        return sum(not r.passed for r in self.rows)

    def to_csv(self, stream) -> None:
        w = csv.writer(stream, lineterminator="\n")
        w.writerow(_CSV_COLUMNS)
        for r in self.rows:
            w.writerow([r.identity, r.grid_point,
                        format(r.reference, ".15g"), format(r.computed, ".15g"),
                        format(r.abs_err, ".15g"), format(r.rel_err, ".15g"),
                        "pass" if r.passed else "fail"])

    def to_json(self, stream) -> None:
        stream.write(dumps({
            "suite": self.suite,
            "passed": self.passed,
            "checks": len(self.rows),
            "failed": self.n_failed,
            "rows": [{
                "identity": r.identity, "grid_point": r.grid_point,
                "reference": r.reference, "computed": r.computed,
                "abs_err": r.abs_err, "rel_err": r.rel_err,
                "passed": r.passed,
            } for r in self.rows],
        }) + "\n")


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

_QUAD_REL_TOL = 1e-10
_QUAD_ABS_TOL = 1e-14
_QUAD_MAX_PANELS = 800  # beyond this many panels the integral is taken to diverge
_QUAD_SPLIT_LEVELS = 16  # a panel [0, b] splits into [0, b 2^-16] and 16 pieces

# QUADPACK's qk21 (Piessens et al. 1983): the 21-point Kronrod nodes on
# [-1, 1] (positive half, the centre last) and weights, and the weights of the
# 10-point Gauss rule, whose nodes are every other Kronrod node
_XK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
       0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
       0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
       0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
       0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
       0.0)
_WK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
       0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
       0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
       0.123491976262065851077548745952558, 0.134709217311473325928054001771707,
       0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
       0.149445554002916905664936468389821)
_WG = (0.0, 0.066671344308688137593568809893332, 0.0, 0.149451349150580593145776339657697,
       0.0, 0.219086362515982043995534934228163, 0.0, 0.269266719309996355091226921569469,
       0.0, 0.295524224714752870173892994651338, 0.0)
_GK_X = np.array([-x for x in _XK[:-1]] + list(reversed(_XK)))
_GK_WK = np.array(_WK[:-1] + tuple(reversed(_WK)))
_GK_WG = np.array(_WG[:-1] + tuple(reversed(_WG)))
_EPS = np.finfo(float).eps


def _geometric(b: np.ndarray, levels: int):
    """(lo, hi) of the panels [b 2^-(k+1), b 2^-k], k < levels, and
    [0, b 2^-levels] of each b."""
    return (np.outer(b, np.append(2.0 ** -np.arange(1, levels + 1), 0.0)).ravel(),
            np.outer(b, 2.0 ** -np.arange(levels + 1)).ravel())


def _gk21(f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray,
          tail: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(Kronrod value, QUADPACK error estimate) of each panel [lo, hi], in y
    or, where tail, in u = 1/y with the integrand f(1/u)/u^2: all panels'
    nodes in one call of f. f returns shape (n,) or, for k integrands at
    once, (k, n); each panel's value and error then have shape (k, panels)."""
    c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
    s = c[:, None] + h[:, None] * _GK_X
    y = np.where(tail[:, None], 1.0 / s, s)
    fs = np.asarray(f(y.ravel()), dtype=float)
    fs = fs.reshape(fs.shape[:-1] + s.shape)
    with np.errstate(over="ignore"):
        fs = np.where(tail[:, None], fs / s / s, fs)
    if not np.isfinite(fs).all():
        raise ConvergenceError("quadrature: non-finite integrand value "
                               f"{float(fs[~np.isfinite(fs)][0])!r}")
    kronrod = fs @ _GK_WK
    mean = 0.5 * kronrod
    val, err = 2.0 * h * mean, h * np.abs(kronrod - fs @ _GK_WG)
    resabs = h * (np.abs(fs) @ _GK_WK)
    resasc = h * (np.abs(fs - mean[..., None]) @ _GK_WK)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
    return val, np.maximum(err, 50.0 * _EPS * resabs)


def _split(lo: np.ndarray, hi: np.ndarray, tail: np.ndarray):
    """Halve each panel, except that a panel [0, b] becomes [0, b 2^-16] and
    16 geometric pieces up to b, which resolves a y^alpha endpoint singularity
    in a few rounds."""
    at0 = lo == 0.0
    geo_lo, geo_hi = _geometric(hi[at0], _QUAD_SPLIT_LEVELS)
    lo, hi, tail0, tail = lo[~at0], hi[~at0], tail[at0], tail[~at0]
    mid = 0.5 * (lo + hi)
    return (np.concatenate([lo, mid, geo_lo]), np.concatenate([mid, hi, geo_hi]),
            np.concatenate([tail, tail, np.repeat(tail0, _QUAD_SPLIT_LEVELS + 1)]))


# the starting mesh: [0, 1] in y and in u, each geometric 4 levels towards 0
_START = (*(np.tile(a, 2) for a in _geometric(np.ones(1), 4)), np.arange(10) >= 5)


def _adaptive_gk21(f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray,
                   hi: np.ndarray, tail: np.ndarray):
    """Sum over the panels (lo, hi, tail) of _gk21, refined in rounds: each
    round splits every panel whose error estimate is above its share of the
    tolerance, and evaluates all the new nodes in one call of f, until the
    error is within max(1e-14, 1e-10 |value|). A non-finite value or error,
    or more than _QUAD_MAX_PANELS panels (a divergent integral), raises
    ConvergenceError. An f of shape (n,) gives a float; one of shape (k, n)
    gives the k integrals as an array, on one mesh: a panel is split while
    any integral's error on it is above that integral's share."""
    val, err = _gk21(f, lo, hi, tail)
    vector = val.ndim > 1  # f of shape (k, n): k integrals; of shape (n,): one
    while True:
        total, total_err = val.sum(-1), err.sum(-1)
        if vector:
            tol = np.maximum(_QUAD_ABS_TOL, _QUAD_REL_TOL * np.abs(total))
            finite = np.isfinite(total).all() and np.isfinite(total_err).all()
            done = (total_err <= tol).all()
        else:  # one integral by float operations: cheaper than numpy's on one value
            tol = max(_QUAD_ABS_TOL, _QUAD_REL_TOL * abs(total))
            finite = math.isfinite(total) and math.isfinite(total_err)
            done = total_err <= tol
        if not finite:
            raise ConvergenceError(f"quadrature: non-finite value {total.tolist()!r} or "
                                   f"error estimate {total_err.tolist()!r}")
        if done:
            return total if vector else float(total)
        if lo.size > _QUAD_MAX_PANELS:
            raise ConvergenceError(
                f"quadrature: error estimate {total_err.tolist()!r} out of tolerance for "
                f"value {total.tolist()!r} after {lo.size} panels")
        split = err > (tol[:, None] if vector else tol) / lo.size
        if vector:  # a panel is split while any integral's error on it is too large
            split = split.any(axis=0)
        new = _split(lo[split], hi[split], tail[split])
        new_val, new_err = _gk21(f, *new)
        keep = ~split
        lo, hi, tail = (np.concatenate([a[keep], b]) for a, b in zip((lo, hi, tail), new))
        val = np.concatenate([val.compress(keep, -1), new_val], -1)
        err = np.concatenate([err.compress(keep, -1), new_err], -1)


def integrate_semi_infinite(f: Callable[[np.ndarray], np.ndarray]):
    """Integral over (0, inf) of f, which takes a float64 array of y and
    returns that shape (a float) or, for k integrands on one shared adaptive
    mesh, shape (k, n) (an array of the k integrals): QUADPACK's G10/K21
    Gauss-Kronrod pair on [0, 1] in y and on (0, 1] in u = 1/y, adaptive from
    a mesh geometric towards both ends (_adaptive_gk21). Independent of the
    catalog's double-exponential rule."""
    return _adaptive_gk21(f, *_START)


def _atom_contribution(entry: cat.CatalogEntry,
                       phi: Callable[[float], float],
                       t: float, x: float) -> float:
    """Sum of atom contributions of a kernel against a test function phi:
    weight*phi(0) for a Dirac mass, -weight*phi'(0) for a Dirac derivative."""
    total = 0.0
    for atom in entry.kernel.atoms:
        w = atom.weight(t, x)
        if atom.order == 0:
            total += w * phi(0.0)
        elif atom.order == 1:
            h = 1e-7
            dphi = (-3.0 * phi(0.0) + 4.0 * phi(h) - phi(2.0 * h)) / (2.0 * h)
            total -= w * dphi
        else:
            raise CapabilityError(f"atom order {atom.order} not supported")
    return total


# ---------------------------------------------------------------------------
# Gaver-Stehfest Laplace inversion
# ---------------------------------------------------------------------------

def gaver_stehfest_weights(order: int) -> List[float]:
    """Weights a_k, k = 1..order, of the Gaver-Stehfest inversion formula
    f(t) ~ (ln2/t) sum_k a_k F(k ln2 / t). order must be even."""
    if order % 2 or order <= 0:
        raise DomainError("gaver_stehfest_weights: order must be a positive even number")
    m = order // 2
    weights = []
    for k in range(1, order + 1):
        total = 0
        for j in range((k + 1) // 2, min(k, m) + 1):
            total += (j ** (m + 1) * math.comb(m, j) * math.comb(2 * j, j)
                      * math.comb(j, k - j))
        weights.append((-1) ** (m + k) * total / math.factorial(m))
    return weights


_GS_ORDER = 14
_GS_DIAG_REL = 1e-3


def laplace_invert(F: Callable[[float], float], t: float) -> float:
    """Gaver-Stehfest inversion of a Laplace transform at t > 0, of order
    _GS_ORDER. Orders _GS_ORDER -/+ 2 are also evaluated, and an
    InstabilityError is raised if they disagree beyond _GS_DIAG_REL relatively."""
    if t <= 0:
        raise DomainError("laplace_invert: t must be > 0")
    ln2_t = math.log(2.0) / t

    def invert(n: int) -> float:
        w = gaver_stehfest_weights(n)
        return ln2_t * math.fsum(w[k - 1] * F(k * ln2_t) for k in range(1, n + 1))

    order = _GS_ORDER
    val = invert(order)
    lo, hi = invert(order - 2), invert(order + 2)
    spread = max(abs(lo - val), abs(hi - val))
    if spread > _GS_DIAG_REL * max(1e-30, abs(val)):
        raise InstabilityError(
            f"laplace_invert: order {order - 2}/{order}/{order + 2} values "
            f"({lo!r}, {val!r}, {hi!r}) disagree; inversion unstable here")
    return val


# ---------------------------------------------------------------------------
# forward Whittaker-type transform
# ---------------------------------------------------------------------------

def whittaker_forward(phi: Callable[[np.ndarray], np.ndarray], k: float, nu: float,
                      lam):
    """Index transform int_0^inf (lam*y)^(-k-1/2) e^(-lam*y/2)
    W_{k+1/2, nu}(lam*y) phi(y) dy computed by quadrature; phi takes a
    float64 array of y. lam is a float, or a 1-D array whose transforms are
    integrated on one mesh (an array), with phi evaluated once per node."""
    lam = np.asarray(lam, dtype=float)
    if (lam <= 0).any():
        raise DomainError("whittaker_forward: lam must be > 0")

    def f(y: np.ndarray) -> np.ndarray:
        z = lam[..., None] * y
        return z ** (-k - 0.5) * np.exp(-0.5 * z) \
            * specfun.whittaker_w(k + 0.5, nu, z) * phi(y)

    return integrate_semi_infinite(f)


def check_whittaker_identity(sigma: float, a: float, b: float, t: float,
                             x: float, lams: Sequence[float],
                             tol: float = 1e-4) -> VerificationReport:
    """For the affine-drift quadratic family without killing, the forward
    Whittaker transform of the weighted kernel equals a power of lam times the
    Tricomi symmetry orbit at group parameter 1 - sqrt(A)/(sigma*lam)."""
    report = VerificationReport("whittaker")
    entry = cat.make_entry("generic_quadratic", sigma=sigma, a=a, b=b, mu=0.0)
    ric, nu = entry.riccati, symmetry.bessel_core(entry.diffusion, entry.riccati)[0]
    rA, B = math.sqrt(ric.A), ric.B
    k = -B / (2.0 * sigma * rA) - 0.5
    beta = 1.0 + nu  # 1 + sqrt(1 + 2C/sigma^2)
    eta = B / (2.0 * sigma * rA) - 0.5 * beta
    if abs(0.5 * beta + B / (2.0 * sigma * rA)) > 1e-12:
        raise CapabilityError(
            "check_whittaker_identity: the identity is implemented on the "
            "slice where the Tricomi first parameter vanishes "
            "(quadratic-family coefficients with beta/2 + B/(2*sigma*sqrt(A)) = 0)")
    orbit = symmetry.exp_kummer_symmetry(entry.diffusion, ric)
    F = entry.diffusion.drift_antiderivative

    def phi(y: np.ndarray) -> np.ndarray:  # F is float-only: one call per node
        F_y = np.array([F(v) for v in y.tolist()])
        return np.exp(eta * math.log(rA / sigma) + (k + 0.5) * np.log(y)
                      + (rA * y - F_y) / (2.0 * sigma)
                      + entry.kernel.log_continuous(t, x, y))

    lhss = whittaker_forward(phi, k, 0.5 * nu, lams).tolist()
    for lam, lhs in zip(lams, lhss):
        eps = 1.0 - rA / (sigma * lam)
        rhs = lam ** (B / (sigma * rA)) * orbit(eps, x, t)
        report.add("whittaker_index_transform",
                   f"sigma={sigma},a={a},b={b},t={t},x={x},lam={lam}",
                   rhs, lhs, tol)
    return report


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

# the Euler coefficients see the state clipped at _MC_CLIP; a run with more
# than _MC_MAX_NAN_FRACTION of non-finite path weights raises SchemeError
_MC_CLIP = 1e-8
_MC_MAX_NAN_FRACTION = 1e-3


@dataclass(frozen=True)
class McSpec:
    n_paths: int = 20000
    n_steps: int = 400
    seed: int = 20260826

    def __post_init__(self) -> None:
        # a standard error needs two paths; numpy seeds are nonnegative
        if self.n_paths < 2 or self.n_steps < 1 or self.seed < 0:
            raise DomainError("McSpec: requires n_paths >= 2, n_steps >= 1 and "
                              f"seed >= 0 (got {self.n_paths}, {self.n_steps} "
                              f"and {self.seed})")


# the mc suite's settings; the CLI fills in from these what it is not given
MC_SUITE_SPEC = McSpec(n_paths=20000, n_steps=300)


def mc_expectation(entry: cat.CatalogEntry, lam: float, t: float, x: float,
                   spec: McSpec = McSpec(), run_index: int = 0,
                   exact: Optional[bool] = None) -> Tuple[float, float]:
    """Monte Carlo estimate (mean, standard error) of
    E_x[exp(-lam*X_t^m - int g(X_s) ds)] by full-truncation Euler simulation
    of dX = f dt + sqrt(2*sigma*X^gamma) dW; the path integral of the killing
    potential uses the trapezoid rule. For the squared-Bessel entry without
    killing an exact terminal sampler is available (exact=True, the default
    when applicable)."""
    diff, pot = entry.diffusion, entry.potential
    m = entry.state_power
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, run_index]))

    zero_pot = pot.form == "zero"
    if exact is None:
        exact = entry.name == "besq" and zero_pot
    if exact:
        if not (entry.name == "besq" and zero_pot):
            raise CapabilityError("mc_expectation: exact sampling is available "
                                  "for the killing-free squared-Bessel entry only")
        n = entry.params["n"]
        xt = t * rng.noncentral_chisquare(n, x / t, size=spec.n_paths)
        vals = np.exp(-lam * xt ** m)
        return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(spec.n_paths))

    dt = t / spec.n_steps
    sqrt_dt = math.sqrt(dt)
    X = np.full(spec.n_paths, float(x))
    Xp = np.maximum(X, _MC_CLIP)  # the truncated state the coefficients see
    g_int = np.zeros(spec.n_paths)
    if not zero_pot:
        g_prev = pot(Xp)
    for _ in range(spec.n_steps):
        dW = rng.normal(0.0, sqrt_dt, size=spec.n_paths)
        X = X + diff.drift(Xp) * dt + np.sqrt(2.0 * diff.sigma * Xp ** diff.gamma) * dW
        Xp = np.maximum(X, _MC_CLIP)
        if not zero_pot:
            g_now = pot(Xp)
            g_int += 0.5 * dt * (g_prev + g_now)
            g_prev = g_now
    Xp = np.maximum(X, 0.0)
    log_w = -lam * Xp ** m - g_int
    vals = np.exp(log_w)
    bad = ~np.isfinite(vals)
    if bad.mean() > _MC_MAX_NAN_FRACTION:
        raise SchemeError(
            f"mc_expectation: {bad.mean():.2%} of paths produced non-finite "
            "weights; the scheme broke down for these parameters")
    vals = vals[~bad]
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(vals.size))


# ---------------------------------------------------------------------------
# PDE residual order
# ---------------------------------------------------------------------------

def residual_convergence_order(u: Callable[[float, float], float],
                               diff: DiffusionSpec, pot: PotentialSpec,
                               x: float, t: float) -> float:
    """Richardson estimate of the finite-difference residual order for an
    exact solution u, from steps 2e-2 and 1e-2: the residual should shrink
    like h^2, so the estimate should sit near 2."""
    r1 = symmetry.pde_residual(u, diff, pot, x, t, h=2e-2)
    r2 = symmetry.pde_residual(u, diff, pot, x, t, h=1e-2)
    if r2 == 0.0 or r1 == 0.0:
        raise DomainError("residual_convergence_order: residual vanished; "
                          "cannot estimate an order")
    return math.log2(abs(r1) / abs(r2))


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------

def check_transform_identity(entry: cat.CatalogEntry, lams, t: float, x: float,
                             tol: float = 1e-8) -> VerificationReport:
    """Quadrature of exp(-lam*y^m)*u0(y) against the kernel (atoms included)
    versus the entry's closed-form transform, one row per lam of lams, a
    float or a sequence. The weight and a log kernel are added as logs: u0
    grows where the kernel underflows. The lams are integrated on one mesh,
    so u0 and the kernel are evaluated once per node."""
    if entry.u0 is None or entry.transform_rhs is None:
        raise CapabilityError(
            f"check_transform_identity: entry {entry.name} has no transform")
    m, u0, kernel = entry.state_power, entry.u0, entry.kernel
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    if lams.ndim != 1:
        raise DomainError("check_transform_identity: lams must be a float or a "
                          f"1-D sequence (got shape {lams.shape})")
    lam_col = lams[:, None]

    def f(y: np.ndarray) -> np.ndarray:  # u0 is float-only: one call per node
        log_w = np.array([u0.log(v) for v in y.tolist()]) - lam_col * y ** m
        if kernel.log_continuous is None:
            return np.exp(log_w) * kernel.continuous(t, x, y)
        return np.exp(log_w + kernel.log_continuous(t, x, y))

    report = VerificationReport("transform")
    for lam, integral in zip(lams.tolist(), integrate_semi_infinite(f).tolist()):
        def phi(y: float) -> float:
            return math.exp(-lam * y ** m) * u0(y)

        report.add(f"transform[{entry.name}]", f"lam={lam},t={t},x={x}",
                   entry.transform_rhs(lam, t, x),
                   integral + _atom_contribution(entry, phi, t, x), tol)
    return report


def check_mass(entry: cat.CatalogEntry, t: float, x: float,
               tol: float = 1e-8) -> CheckRow:
    """Total mass of the kernel: continuous part plus Dirac masses (Dirac
    derivatives carry no mass). A finite-part kernel has no mass integral."""
    if entry.kernel.finite_part:
        raise CapabilityError(f"check_mass: entry {entry.name} has a finite-part "
                              "kernel; it has pointwise values only")
    total = integrate_semi_infinite(
        lambda y: entry.kernel.continuous(t, x, y))
    for atom in entry.kernel.atoms:
        if atom.order == 0:
            total += atom.weight(t, x)
    return CheckRow(f"mass[{entry.name}]", f"t={t},x={x}", 1.0, total, tol)


def check_chapman(entry: cat.CatalogEntry, s: float, t: float, x: float,
                  z: float, tol: float = 1e-6) -> CheckRow:
    """Two-step composition of the kernel equals the one-step kernel. The
    integrand is two kernel calls on the nodes: as y of the first step and,
    since a kernel takes x as an array too, as x of the second."""
    if entry.kernel.atoms:
        raise CapabilityError("check_chapman: implemented for atom-free kernels")
    k = entry.kernel.continuous
    lhs = integrate_semi_infinite(lambda y: k(s, x, y) * k(t, y, z))
    rhs = k(s + t, x, z)
    return CheckRow(f"chapman[{entry.name}]", f"s={s},t={t},x={x},z={z}",
                    rhs, lhs, tol)


def bessel_expectation_by_integral(a: float, mu: float, lam: float, t: float,
                                   x: float) -> float:
    """Alternative single-integral representation of the Bessel-entry
    expectation E_x[exp(-lam*X_t^2 - (mu/4) int ds/X_s^2)]: an average of
    killing-free Laplace transforms over an auxiliary rate with a Gamma-type
    weight. Independent of the regular-Kummer closed form. The rate is v =
    w^(1/p), so that v^(p-1) dv = dw/p and the integrand is smooth at w = 0."""
    xi = a - 0.5
    gam = math.sqrt(xi * xi + 0.5 * mu)
    p = 0.5 * (gam - xi)
    if p <= 0:
        raise DomainError("bessel_expectation_by_integral: requires mu > 0")

    def f(w: np.ndarray) -> np.ndarray:
        # the rate is inf far out, where f is 0, and 0 where it underflows,
        # where the exponent's limit is 0
        with np.errstate(over="ignore", divide="ignore"):
            rate = w ** (1.0 / p) + lam
            exponent = -x * x / (1.0 / rate + 2.0 * t)
        return np.exp(exponent) / (1.0 + 2.0 * rate * t) ** (1.0 + gam)

    pref = x ** (2.0 * p) / math.gamma(p + 1.0)
    return pref * integrate_semi_infinite(f)


def hartman_ratio_gap(n: float, nu: float, t: float, x: float, y: float) -> Tuple[float, float]:
    """(reference, computed) for the conditional killing weight of the squared
    Bessel bridge: the ratio of the killed kernel to the free kernel must be a
    pure Bessel index shift at argument sqrt(xy)/t."""
    killed = cat.make_entry("besq", n=n, nu=nu)
    free = cat.make_entry("besq", n=n)
    computed = math.exp(killed.kernel.log_continuous(t, x, y)
                        - free.kernel.log_continuous(t, x, y))
    z = math.sqrt(x * y) / t
    w_killed = 0.5 * math.sqrt((n - 2.0) ** 2 + 8.0 * nu)
    w_free = 0.5 * abs(n - 2.0)
    reference = math.exp(specfun.log_bessel_i(w_killed, z)
                         - specfun.log_bessel_i(w_free, z))
    return reference, computed


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

_TRANSFORM_LAMS = (0.1, 0.5, 1.0, 2.0, 5.0)
_TRANSFORM_TS = (0.25, 1.0)
_TRANSFORM_XS = (0.5, 1.0, 2.0)


def _transform_entries() -> List[cat.CatalogEntry]:
    return [
        cat.make_entry("besq", n=3.0),
        cat.make_entry("besq", n=3.0, nu=0.6),
        cat.make_entry("bessel", a=1.2, mu=0.0),
        cat.make_entry("bessel", a=1.2, mu=0.8),
        cat.make_entry("bessel_drift", a=0.5, b=1.3, mu=0.0),
        cat.make_entry("bessel_drift", a=0.5, b=1.3, mu=0.7),
        cat.make_entry("rational_drift", a=2.0, mu=1.0),
        cat.make_entry("sqrt_drift", a=1.5, b=0.8, A=1.2, B=0.6),
    ]


def _suite_transform(tol: float = 1e-8) -> VerificationReport:
    report = VerificationReport("transform")
    for entry in _transform_entries():
        tag = ",".join(f"{k}={v:g}" for k, v in entry.params.items())
        identity = f"transform[{entry.name}:{tag}]"
        for t in _TRANSFORM_TS:
            for x in _TRANSFORM_XS:
                rows = check_transform_identity(entry, _TRANSFORM_LAMS, t, x, tol=tol).rows
                report.rows += [dataclasses.replace(row, identity=identity) for row in rows]
    return report


def besq_cosh_mass(t: float, x: float) -> float:
    """Closed-form total mass of the cosh companion kernel."""
    return math.sqrt(2.0 * t / (math.pi * x)) * math.exp(-x / (2.0 * t)) \
        + specfun.erf(math.sqrt(x / (2.0 * t)))


def besq3_sinh_density(t: float, x: float, y: float) -> float:
    """besq n = 3's density e^(-(x+y)/2t) sinh(sqrt(xy)/t)/sqrt(2 pi t x), by expm1."""
    return -0.5 * math.exp(-(math.sqrt(x) - math.sqrt(y)) ** 2 / (2.0 * t)) \
        * math.expm1(-2.0 * math.sqrt(x * y) / t) / math.sqrt(2.0 * math.pi * t * x)


def rational_showcase_continuous_mass(a: float, b: float, t: float, x: float) -> float:
    """Closed-form mass of the continuous part alone (both atoms dropped)."""
    return 1.0 - math.exp(-x / t) * b * (t + x) / (t * (b + a * x * x))


def _suite_mass(tol: float = 1e-8) -> VerificationReport:
    report = VerificationReport("mass")
    free = [cat.make_entry("besq", n=3.0),
            cat.make_entry("bessel", a=1.2),
            cat.make_entry("bessel_drift", a=0.5, b=1.3),
            cat.make_entry("cir", a=1.0, b=1.0, sigma=1.0),
            cat.make_entry("rational_drift", a=2.0),
            cat.make_entry("tanh_drift"),
            cat.make_entry("radial_ou", a=1.0, b=-0.8),
            cat.make_entry("rational_showcase", a=1.0, b=1.0),
            cat.make_entry("generic_linear", sigma=1.0, A=1.0, B=-0.3),
            cat.make_entry("generic_quadratic", sigma=1.0, a=1.0, b=1.0)]
    for entry in free:
        for t, x in ((0.5, 1.0), (1.0, 0.7), (2.0, 1.5)):
            report.rows.append(check_mass(entry, t, x, tol=tol))
    # companion kernel with cosh in place of sinh: closed-form non-unit mass
    for t, x in ((0.5, 1.0), (1.0, 0.7), (2.0, 1.5)):
        num = integrate_semi_infinite(lambda y: cat.besq_cosh_variant(t, x, y))
        report.add("mass[besq_cosh_variant]", f"t={t},x={x}",
                   besq_cosh_mass(t, x), num, tol)
    # continuous-only mass defect of the showcase kernel
    for t, x in ((0.5, 1.0), (1.0, 0.7)):
        e = cat.make_entry("rational_showcase", a=1.0, b=1.0)
        num = integrate_semi_infinite(lambda y: e.kernel.continuous(t, x, y))
        report.add("mass_defect[rational_showcase]", f"t={t},x={x}",
                   rational_showcase_continuous_mass(1.0, 1.0, t, x), num, tol)
    return report


def _suite_laplace(tol: float = 1e-4) -> VerificationReport:
    """Invert the squared-Bessel transform numerically and compare with the
    elementary closed-form density."""
    report = VerificationReport("laplace")
    entry = cat.make_entry("besq", n=3.0)
    for t, x in ((1.0, 1.0), (0.5, 1.3)):
        F = lambda lam: entry.transform_rhs(lam, t, x)
        for y in (0.5, 1.0, 2.0, 3.5):
            inv = laplace_invert(F, y)
            ref = besq3_sinh_density(t, x, y)
            report.add("laplace_inversion[besq,n=3]", f"t={t},x={x},y={y}",
                       ref, inv, tol)
    return report


def _pde_cases() -> List[cat.CatalogEntry]:
    return [cat.make_entry("besq", n=3.0, nu=0.4),
            cat.make_entry("bessel", a=1.2, mu=0.6),
            cat.make_entry("bessel_drift", a=0.5, b=1.3, mu=0.3),
            cat.make_entry("cir", a=0.9, b=1.4, sigma=0.6, mu=0.5),
            cat.make_entry("rational_drift", a=2.0, mu=1.0),
            cat.make_entry("tanh_drift", mu=0.9),
            cat.make_entry("radial_ou", a=0.9, b=-0.5, mu=0.7),
            cat.make_entry("rational_showcase", a=1.0, b=1.0),
            cat.make_entry("sqrt_drift", a=1.5, b=0.8, A=1.2, B=0.6),
            cat.make_entry("generic_linear", sigma=1.0, A=1.0, B=-0.3, mu=0.05),
            cat.make_entry("generic_quadratic", sigma=0.6, a=1.1, b=0.8, mu=0.5)]


def _suite_pde(order_tol: float = 0.2) -> VerificationReport:
    report = VerificationReport("pde")
    for entry in _pde_cases():
        u = lambda xx, tt: entry.kernel.continuous(tt, xx, 0.9)
        order = residual_convergence_order(u, entry.diffusion, entry.potential,
                                           1.2, 0.8)
        report.add(f"pde_order[{entry.name}]", "x=1.2,t=0.8,y=0.9", 2.0, order,
                   order_tol / 2.0)
    return report


def _suite_limits(tol: float = 1e-6) -> VerificationReport:
    report = VerificationReport("limits")
    pts = [(0.5, 1.0, 0.8), (1.0, 0.7, 1.4), (1.5, 1.2, 0.3)]

    def pair(identity, e_red, e_par):
        for t, x, y in pts:
            report.add(identity, f"t={t},x={x},y={y}",
                       e_red.kernel.continuous(t, x, y),
                       e_par.kernel.continuous(t, x, y), tol)

    pair("limit[besq:nu->0]", cat.make_entry("besq", n=3.0),
         cat.make_entry("besq", n=3.0, nu=1e-12))
    pair("limit[besq:mu->0]", cat.make_entry("besq", n=3.0),
         cat.make_entry("besq", n=3.0, mu=1e-12))
    pair("limit[bessel_drift:b->0]", cat.make_entry("bessel", a=1.2),
         cat.make_entry("bessel_drift", a=0.7, b=1e-7))
    pair("limit[rational_drift:mu->0]", cat.make_entry("rational_drift", a=2.0),
         cat.make_entry("rational_drift", a=2.0, mu=1e-12))
    pair("limit[tanh_drift:mu->0]", cat.make_entry("tanh_drift"),
         cat.make_entry("tanh_drift", mu=1e-9))
    pair("limit[radial_ou:mu->0]", cat.make_entry("radial_ou", a=1.0, b=-0.8),
         cat.make_entry("radial_ou", a=1.0, b=-0.8, mu=1e-12))
    pair("limit[generic_quadratic=cir]",
         cat.make_entry("cir", a=1.0, b=1.0, sigma=1.0, mu_lin=0.4),
         cat.make_entry("generic_quadratic", sigma=1.0, a=1.0, b=1.0, mu=0.4))
    # atoms must vanish with t so the initial condition is undisturbed
    for name, kw in (("rational_drift", {"a": 2.0, "mu": 1.0}),
                     ("tanh_drift", {"mu": 0.9})):
        e = cat.make_entry(name, **kw)
        for tt in (1e-3, 1e-5):
            report.add(f"limit[{name}:atom,t->0]", f"t={tt},x=1.0",
                       0.0, e.kernel.atoms[0].weight(tt, 1.0), tol)
    return report


def _closed_form_reference(entry: cat.CatalogEntry, lams: Sequence[float], t: float,
                           x: float) -> List[float]:
    """E_x[exp(-lam*X_t^m)] of each lam by adaptive quadrature of the kernel
    (atoms included), independent of the catalog's own double-exponential
    rule, all lams on one mesh. Every entry with a closed form has a log
    kernel: it is evaluated once per node, and each lam's integrand is one
    exp of the summed logs."""
    m = entry.state_power
    log_k = entry.kernel.log_continuous
    lam_col = np.array(lams, dtype=float)[:, None]
    integrals = integrate_semi_infinite(
        lambda y: np.exp(log_k(t, x, y) - lam_col * y ** m)).tolist()
    refs = []
    for lam, integral in zip(lams, integrals):
        def phi(y: float) -> float:
            return math.exp(-lam * y ** m)

        refs.append(integral + _atom_contribution(entry, phi, t, x))
    return refs


def _suite_closed_form(tol: float = 1e-8) -> VerificationReport:
    """Closed-form expectations versus direct quadrature of the kernels (the
    quadrature side is authoritative)."""
    report = VerificationReport("closed_form")
    cases = [
        cat.make_entry("besq", n=3.0),
        cat.make_entry("besq", n=2.5, nu=0.4),
        cat.make_entry("besq", n=3.0, mu=0.3),
        cat.make_entry("besq", n=3.0, mu=0.2, nu=0.5),
        cat.make_entry("bessel", a=0.8, mu=0.6),
        cat.make_entry("cir", a=1.0, b=1.0, sigma=1.0),
        cat.make_entry("cir", a=0.9, b=1.4, sigma=0.6, mu=0.5),
        cat.make_entry("rational_drift", a=2.0, mu=1.0),
        cat.make_entry("tanh_drift", mu=0.9),
        cat.make_entry("radial_ou", a=0.9, b=-0.5, mu=0.7),
        cat.make_entry("sqrt_drift", a=1.5, b=0.8, A=1.2, B=0.6),
    ]
    lams, points = (0.0, 0.4, 1.5), ((0.8, 1.2), (1.5, 0.6))
    for entry in cases:
        tag = ",".join(f"{k}={v:g}" for k, v in entry.params.items())
        for t, x in points:
            for lam, ref in zip(lams, _closed_form_reference(entry, lams, t, x)):
                val = cat.expectation(entry, None, lam, t, x, method="closed")
                report.add(f"closed_form[{entry.name}:{tag}]",
                           f"lam={lam},t={t},x={x}", ref, val, tol)
    return report


def _suite_chapman(tol: float = 1e-6) -> VerificationReport:
    report = VerificationReport("chapman")
    cases = [cat.make_entry("besq", n=3.0),
             cat.make_entry("bessel", a=1.2),
             cat.make_entry("bessel_drift", a=0.5, b=1.3),
             cat.make_entry("cir", a=1.0, b=1.0, sigma=1.0),
             cat.make_entry("radial_ou", a=1.0, b=-0.8)]
    for entry in cases:
        for s, t, x, z in ((0.4, 0.6, 1.1, 0.9), (0.2, 0.3, 0.8, 1.5)):
            report.rows.append(check_chapman(entry, s, t, x, z, tol=tol))
    return report


def _suite_riccati(tol: float = 1e-10) -> VerificationReport:
    report = VerificationReport("riccati")
    grid = np.geomspace(0.05, 50.0, 50)
    for entry in _pde_cases():
        try:
            params = fit_riccati(entry.diffusion, entry.potential,
                                 np.geomspace(0.2, 20.0, 24))
        except Exception as exc:  # surfaced as a failing row, not a crash
            report.add(f"riccati[{entry.name}]", "fit", 0.0, math.inf, tol)
            continue
        worst = float(np.max(np.abs(riccati_residual(entry.diffusion, entry.potential,
                                                     params, grid))))
        report.add(f"riccati[{entry.name}:{params.family}]",
                   "max|residual| on 50 log-spaced points",
                   0.0, worst, tol)
    return report


def _suite_whittaker(tol: float = 1e-4) -> VerificationReport:
    return check_whittaker_identity(0.6, 1.1, 0.8, 0.8, 1.2,
                                    (0.3, 0.7, 1.5, 3.0, 6.0), tol=tol)


def _suite_altrep(tol: float = 1e-8) -> VerificationReport:
    report = VerificationReport("altrep")
    for a, mu in ((1.2, 0.8), (0.8, 0.5)):
        entry = cat.make_entry("bessel", a=a, mu=mu)
        for lam in (0.2, 1.0):
            for t, x in ((0.6, 1.1), (1.2, 0.8)):
                ref = cat.expectation(entry, None, lam, t, x, method="closed")
                val = bessel_expectation_by_integral(a, mu, lam, t, x)
                report.add(f"altrep[bessel:a={a},mu={mu}]",
                           f"lam={lam},t={t},x={x}", ref, val, tol)
    return report


def _suite_hartman(tol: float = 1e-10) -> VerificationReport:
    report = VerificationReport("hartman")
    for n, nu in ((3.0, 0.7), (2.0, 1.2), (4.5, 0.3)):
        for t, x, y in ((0.5, 1.0, 0.8), (1.0, 2.0, 0.4)):
            ref, val = hartman_ratio_gap(n, nu, t, x, y)
            report.add(f"hartman[besq:n={n},nu={nu}]", f"t={t},x={x},y={y}",
                       ref, val, tol)
    return report


def _suite_mc(spec: Optional[McSpec] = None) -> VerificationReport:
    """Single-run Monte Carlo agreement at 3 standard errors."""
    report = VerificationReport("mc")
    spec = spec or MC_SUITE_SPEC
    cases = [
        (cat.make_entry("besq", n=3.0), 0.5, True),
        (cat.make_entry("besq", n=3.0), 0.5, False),
        (cat.make_entry("cir", a=1.0, b=1.0, sigma=1.0, mu=0.3), 0.4, False),
        (cat.make_entry("tanh_drift", mu=0.5), 0.3, False),
    ]
    for entry, lam, exact in cases:
        t, x = 0.8, 1.2
        ref = cat.expectation(entry, None, lam, t, x)
        est, se = mc_expectation(entry, lam, t, x, spec=spec, exact=exact)
        tag = ",".join(f"{k}={v:g}" for k, v in entry.params.items())
        report.add(f"mc[{entry.name}:{tag},exact={exact}]",
                   f"lam={lam},t={t},x={x},3se={3 * se:.3g}",
                   ref, est, max(3.0 * se, 1e-12))
    return report


SUITES: Dict[str, Callable[[], VerificationReport]] = {
    "riccati": _suite_riccati,
    "transform": _suite_transform,
    "pde": _suite_pde,
    "limits": _suite_limits,
    "mc": _suite_mc,
    "chapman": _suite_chapman,
    "whittaker": _suite_whittaker,
    "altrep": _suite_altrep,
    "mass": _suite_mass,
    "laplace": _suite_laplace,
    "closed_form": _suite_closed_form,
    "hartman": _suite_hartman,
}


def run_suite(name: str, tol: Optional[float] = None,
              mc_spec: Optional[McSpec] = None,
              entry_filter: Optional[str] = None) -> VerificationReport:
    """Run one named verification suite, or all of them ('all'). tol overrides
    the suite's default tolerance; entry_filter keeps only rows whose identity
    mentions the given catalog entry, and must name one (DomainError)."""
    if entry_filter and entry_filter not in cat.ENTRY_NAMES:
        raise DomainError(f"run_suite: unknown entry {entry_filter!r} "
                          f"(known: {', '.join(cat.ENTRY_NAMES)})")
    if name == "all":
        report = VerificationReport("all")
        for key in sorted(SUITES):
            report.extend(run_suite(key, tol=tol, mc_spec=mc_spec))
    else:
        if name not in SUITES:
            raise DomainError(f"run_suite: unknown suite {name!r} "
                              f"(known: {', '.join(sorted(SUITES))}, all)")
        if name == "mc":
            report = _suite_mc(mc_spec)
        elif tol is not None:
            report = SUITES[name](tol)
        else:
            report = SUITES[name]()
    if entry_filter:
        report.rows = [r for r in report.rows if f"[{entry_filter}" in r.identity]
    report.rows.sort(key=lambda r: (r.identity, r.grid_point))
    return report
