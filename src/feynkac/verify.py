"""Independent numerical verification of the catalog.

Everything here checks closed forms by routes that do not reuse the closed
forms themselves:

  * semi-infinite adaptive quadrature with tail control;
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
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import integrate

from .errors import (
    CapabilityError,
    ConvergenceError,
    DomainError,
    InstabilityError,
    SchemeError,
)
from . import specfun
from . import catalog as cat
from .riccati import DiffusionSpec, PotentialSpec, RiccatiParams, fit_riccati, \
    riccati_residual
from . import symmetry

__all__ = [
    "QuadratureSpec",
    "McSpec",
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
    "check_limit_reduction",
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

    def to_json_obj(self) -> dict:
        return {
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
        }

    def to_json(self, stream) -> None:
        json.dump(self.to_json_obj(), stream, indent=2)
        stream.write("\n")


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureSpec:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    limit: int = 400
    split: float = 1.0  # interior split point separating origin and tail


DEFAULT_QUADRATURE = QuadratureSpec()


def integrate_semi_infinite(f: Callable[[float], float],
                            spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Integral of f over (0, inf), split at spec.split so that an integrable
    origin singularity and the tail are resolved independently. Raises
    ConvergenceError when the combined error estimate is out of tolerance."""
    head, e1 = integrate.quad(f, 0.0, spec.split, limit=spec.limit,
                              epsabs=spec.abs_tol, epsrel=spec.rel_tol)
    tail, e2 = integrate.quad(f, spec.split, math.inf, limit=spec.limit,
                              epsabs=spec.abs_tol, epsrel=spec.rel_tol)
    total, err = head + tail, e1 + e2
    if err > 100.0 * (spec.abs_tol + spec.rel_tol * abs(total)):
        raise ConvergenceError(
            f"integrate_semi_infinite: error estimate {err!r} out of tolerance "
            f"for value {total!r}")
    return total


def _atom_contribution(entry: cat.CatalogEntry,
                       phi: Callable[[float], float],
                       t: float, x: float) -> float:
    """Sum of atom contributions of a kernel against a test function phi:
    weight*phi(0) for a Dirac mass, -weight*phi'(0) for a Dirac derivative."""
    total = 0.0
    for atom in entry.kernel.atoms:
        w = atom.weight(t, x)
        if atom.order == 0:
            total += w * phi(atom.location)
        elif atom.order == 1:
            h = 1e-7
            dphi = (-3.0 * phi(atom.location) + 4.0 * phi(atom.location + h)
                    - phi(atom.location + 2.0 * h)) / (2.0 * h)
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


def laplace_invert(F: Callable[[float], float], t: float, order: int = 14,
                   diagnostic: bool = True, diag_rel: float = 1e-3) -> float:
    """Gaver-Stehfest inversion of a Laplace transform at t > 0. When
    diagnostic is set, orders order-2 and order+2 are also evaluated and an
    InstabilityError is raised if they disagree beyond diag_rel relatively."""
    if t <= 0:
        raise DomainError("laplace_invert: t must be > 0")
    ln2_t = math.log(2.0) / t

    def invert(n: int) -> float:
        w = gaver_stehfest_weights(n)
        return ln2_t * math.fsum(w[k - 1] * F(k * ln2_t) for k in range(1, n + 1))

    val = invert(order)
    if diagnostic:
        lo, hi = invert(order - 2), invert(order + 2)
        spread = max(abs(lo - val), abs(hi - val))
        if spread > diag_rel * max(1e-30, abs(val)):
            raise InstabilityError(
                f"laplace_invert: order {order - 2}/{order}/{order + 2} values "
                f"({lo!r}, {val!r}, {hi!r}) disagree; inversion unstable here")
    return val


# ---------------------------------------------------------------------------
# forward Whittaker-type transform
# ---------------------------------------------------------------------------

def whittaker_forward(phi: Callable[[float], float], k: float, nu: float,
                      lam: float,
                      spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Index transform int_0^inf (lam*y)^(-k-1/2) e^(-lam*y/2)
    W_{k+1/2, nu}(lam*y) phi(y) dy computed by quadrature."""
    if lam <= 0:
        raise DomainError("whittaker_forward: lam must be > 0")

    def f(y: float) -> float:
        z = lam * y
        return z ** (-k - 0.5) * math.exp(-0.5 * z) \
            * specfun.whittaker_w(k + 0.5, nu, z) * phi(y)

    return integrate_semi_infinite(f, spec)


def check_whittaker_identity(sigma: float, a: float, b: float, t: float,
                             x: float, lams: Sequence[float],
                             tol: float = 1e-4) -> VerificationReport:
    """For the affine-drift quadratic family without killing, the forward
    Whittaker transform of the weighted kernel equals a power of lam times the
    Tricomi symmetry orbit at group parameter 1 - sqrt(A)/(sigma*lam)."""
    report = VerificationReport("whittaker")
    entry = cat.make_entry("generic_quadratic", sigma=sigma, a=a, b=b, mu=0.0)
    A, B, C = b * b, -a * b, 0.5 * a * a - a * sigma
    rA = math.sqrt(A)
    k = -B / (2.0 * sigma * rA) - 0.5
    beta = 1.0 + math.sqrt(1.0 + 2.0 * C / (sigma * sigma))
    nu2 = 0.5 * math.sqrt(1.0 + 2.0 * C / (sigma * sigma))
    eta = B / (2.0 * sigma * rA) - 0.5 * beta
    if abs(0.5 * beta + B / (2.0 * sigma * rA)) > 1e-12:
        raise CapabilityError(
            "check_whittaker_identity: the identity is implemented on the "
            "slice where the Tricomi first parameter vanishes "
            "(quadratic-family coefficients with beta/2 + B/(2*sigma*sqrt(A)) = 0)")
    orbit = symmetry.exp_kummer_symmetry(entry.diffusion,
                                         RiccatiParams("quadratic", A=A, B=B, C=C))
    F = entry.diffusion.drift_antiderivative

    def phi_factory(lam_val: float) -> Callable[[float], float]:
        def phi(y: float) -> float:
            lg = (eta * math.log(rA / sigma) + (k + 0.5) * math.log(y)
                  + (rA * y - F(y)) / (2.0 * sigma)
                  + entry.kernel.log_continuous(t, x, y))
            return math.exp(lg)
        return phi

    for lam in lams:
        eps = 1.0 - rA / (sigma * lam)
        lhs = whittaker_forward(phi_factory(lam), k, nu2, lam)
        rhs = lam ** (B / (sigma * rA)) * orbit(eps, x, t)
        report.add("whittaker_index_transform",
                   f"sigma={sigma},a={a},b={b},t={t},x={x},lam={lam}",
                   rhs, lhs, tol)
    return report


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def _vectorized(func: Callable[[float], float],
                probe: float) -> Callable[[np.ndarray], np.ndarray]:
    """Wrap a scalar callable for array arguments. Callables built from
    arithmetic and numpy-compatible operations are used directly (fast path);
    anything else falls back to element-wise evaluation."""
    try:
        out = func(np.full(3, float(probe)))
        arr = np.asarray(out, dtype=float)
        if arr.shape == (3,) and np.all(np.isfinite(arr)) \
                and np.allclose(arr, func(float(probe))):
            return lambda a: np.asarray(func(a), dtype=float)
    except Exception:
        pass
    return np.vectorize(func, otypes=[float])


@dataclass(frozen=True)
class McSpec:
    n_paths: int = 20000
    n_steps: int = 400
    seed: int = 20260826
    clip: float = 1e-8
    max_nan_fraction: float = 1e-3


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
    X = np.full(spec.n_paths, float(x))
    g_int = np.zeros(spec.n_paths)
    f_vec = _vectorized(diff.drift, x)
    if not zero_pot:
        g_vec = _vectorized(pot.__call__, x)
        g_prev = g_vec(np.maximum(X, spec.clip))
    for _ in range(spec.n_steps):
        Xp = np.maximum(X, spec.clip)
        dW = rng.normal(0.0, math.sqrt(dt), size=spec.n_paths)
        X = X + f_vec(Xp) * dt + np.sqrt(2.0 * diff.sigma * Xp ** diff.gamma) * dW
        if not zero_pot:
            g_now = g_vec(np.maximum(X, spec.clip))
            g_int += 0.5 * dt * (g_prev + g_now)
            g_prev = g_now
    Xp = np.maximum(X, 0.0)
    log_w = -lam * Xp ** m - g_int
    vals = np.exp(log_w)
    bad = ~np.isfinite(vals)
    if bad.mean() > spec.max_nan_fraction:
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
                               x: float, t: float, h: float = 2e-2) -> float:
    """Richardson estimate of the finite-difference residual order for an
    exact solution u: the residual should shrink like h^2, so the estimate
    should sit near 2."""
    r1 = symmetry.pde_residual(u, diff, pot, x, t, h=h)
    r2 = symmetry.pde_residual(u, diff, pot, x, t, h=0.5 * h)
    if r2 == 0.0 or r1 == 0.0:
        raise DomainError("residual_convergence_order: residual vanished; "
                          "cannot estimate an order")
    return math.log2(abs(r1) / abs(r2))


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------

def check_transform_identity(entry: cat.CatalogEntry, lam: float, t: float,
                             x: float, tol: float = 1e-8,
                             spec: QuadratureSpec = DEFAULT_QUADRATURE) -> CheckRow:
    """Quadrature of exp(-lam*y^m)*u0(y) against the kernel (atoms included)
    versus the entry's closed-form transform."""
    if entry.u0 is None or entry.transform_rhs is None:
        raise CapabilityError(
            f"check_transform_identity: entry {entry.name} has no transform")
    m = entry.state_power

    def phi(y: float) -> float:
        return math.exp(-lam * y ** m) * entry.u0(y)

    lhs = integrate_semi_infinite(
        lambda y: phi(y) * entry.kernel.continuous(t, x, y), spec)
    lhs += _atom_contribution(entry, phi, t, x)
    rhs = entry.transform_rhs(lam, t, x)
    return CheckRow(f"transform[{entry.name}]", f"lam={lam},t={t},x={x}",
                    rhs, lhs, tol)


def check_mass(entry: cat.CatalogEntry, t: float, x: float,
               expected: float = 1.0, tol: float = 1e-8,
               spec: QuadratureSpec = DEFAULT_QUADRATURE) -> CheckRow:
    """Total mass of the kernel: continuous part plus Dirac masses (Dirac
    derivatives carry no mass)."""
    total = integrate_semi_infinite(
        lambda y: entry.kernel.continuous(t, x, y), spec)
    for atom in entry.kernel.atoms:
        if atom.order == 0:
            total += atom.weight(t, x)
    return CheckRow(f"mass[{entry.name}]", f"t={t},x={x}", expected, total, tol)


def check_chapman(entry: cat.CatalogEntry, s: float, t: float, x: float,
                  z: float, tol: float = 1e-6,
                  spec: QuadratureSpec = DEFAULT_QUADRATURE) -> CheckRow:
    """Two-step composition of the kernel equals the one-step kernel."""
    if entry.kernel.atoms:
        raise CapabilityError("check_chapman: implemented for atom-free kernels")
    lhs = integrate_semi_infinite(
        lambda y: entry.kernel.continuous(s, x, y) * entry.kernel.continuous(t, y, z),
        spec)
    rhs = entry.kernel.continuous(s + t, x, z)
    return CheckRow(f"chapman[{entry.name}]", f"s={s},t={t},x={x},z={z}",
                    rhs, lhs, tol)


def check_limit_reduction(identity: str, reduced: Callable[..., float],
                          limit_of: Callable[..., float],
                          points: Sequence[Tuple[float, ...]],
                          tol: float = 1e-6) -> List[CheckRow]:
    """Compare a closed-form special case against the parent formula evaluated
    near the limiting parameter value."""
    rows = []
    for pt in points:
        rows.append(CheckRow(identity, ",".join(format(v, "g") for v in pt),
                             reduced(*pt), limit_of(*pt), tol))
    return rows


def bessel_expectation_by_integral(a: float, mu: float, lam: float, t: float,
                                   x: float,
                                   spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Alternative single-integral representation of the Bessel-entry
    expectation E_x[exp(-lam*X_t^2 - (mu/4) int ds/X_s^2)]: an average of
    killing-free Laplace transforms over an auxiliary rate with a Gamma-type
    weight. Independent of the regular-Kummer closed form."""
    xi = a - 0.5
    gam = math.sqrt(xi * xi + 0.5 * mu)
    p = 0.5 * (gam - xi)
    if p <= 0:
        raise DomainError("bessel_expectation_by_integral: requires mu > 0")

    def f(v: float) -> float:
        den = 1.0 + 2.0 * (v + lam) * t
        return v ** (p - 1.0) * math.exp(-x * x * (v + lam) / den) \
            / den ** (1.0 + gam)

    pref = x ** (2.0 * p) / math.gamma(p)
    return pref * integrate_semi_infinite(f, spec)


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
        for lam in _TRANSFORM_LAMS:
            for t in _TRANSFORM_TS:
                for x in _TRANSFORM_XS:
                    row = check_transform_identity(entry, lam, t, x, tol=tol)
                    report.rows.append(dataclasses.replace(
                        row, identity=f"transform[{entry.name}:{tag}]"))
    return report


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
                   cat.besq_cosh_mass(t, x), num, tol)
    # continuous-only mass defect of the showcase kernel
    for t, x in ((0.5, 1.0), (1.0, 0.7)):
        e = cat.make_entry("rational_showcase", a=1.0, b=1.0)
        num = integrate_semi_infinite(lambda y: e.kernel.continuous(t, x, y))
        report.add("mass_defect[rational_showcase]", f"t={t},x={x}",
                   cat.rational_showcase_continuous_mass(1.0, 1.0, t, x), num, tol)
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
            ref = cat.besq3_sinh_density(t, x, y)
            report.add("laplace_inversion[besq,n=3]", f"t={t},x={x},y={y}",
                       ref, inv, tol)
    return report


def _pde_cases() -> List[Tuple[str, cat.CatalogEntry]]:
    return [
        ("besq", cat.make_entry("besq", n=3.0, nu=0.4)),
        ("bessel", cat.make_entry("bessel", a=1.2, mu=0.6)),
        ("bessel_drift", cat.make_entry("bessel_drift", a=0.5, b=1.3, mu=0.3)),
        ("cir", cat.make_entry("cir", a=0.9, b=1.4, sigma=0.6, mu=0.5)),
        ("rational_drift", cat.make_entry("rational_drift", a=2.0, mu=1.0)),
        ("tanh_drift", cat.make_entry("tanh_drift", mu=0.9)),
        ("radial_ou", cat.make_entry("radial_ou", a=0.9, b=-0.5, mu=0.7)),
        ("rational_showcase", cat.make_entry("rational_showcase", a=1.0, b=1.0)),
        ("sqrt_drift", cat.make_entry("sqrt_drift", a=1.5, b=0.8, A=1.2, B=0.6)),
        ("generic_linear", cat.make_entry("generic_linear", sigma=1.0, A=1.0,
                                          B=-0.3, mu=0.05)),
        ("generic_quadratic", cat.make_entry("generic_quadratic", sigma=0.6,
                                             a=1.1, b=0.8, mu=0.5)),
    ]


def _suite_pde(order_tol: float = 0.2) -> VerificationReport:
    report = VerificationReport("pde")
    for name, entry in _pde_cases():
        u = lambda xx, tt: entry.kernel.continuous(tt, xx, 0.9)
        order = residual_convergence_order(u, entry.diffusion, entry.potential,
                                           1.2, 0.8)
        report.add(f"pde_order[{name}]", "x=1.2,t=0.8,y=0.9", 2.0, order,
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
    for entry in cases:
        tag = ",".join(f"{k}={v:g}" for k, v in entry.params.items())
        for lam in (0.0, 0.4, 1.5):
            for t, x in ((0.8, 1.2), (1.5, 0.6)):
                ref = cat.expectation(entry, None, lam, t, x, method="quadrature")
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
    for name, entry in _pde_cases():
        try:
            params = fit_riccati(entry.diffusion, entry.potential,
                                 np.geomspace(0.2, 20.0, 24))
        except Exception as exc:  # surfaced as a failing row, not a crash
            report.add(f"riccati[{name}]", "fit", 0.0, math.inf, tol)
            continue
        worst = max(abs(riccati_residual(entry.diffusion, entry.potential,
                                         params, float(xx))) for xx in grid)
        report.add(f"riccati[{name}:{params.family}]",
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
    spec = spec or McSpec(n_paths=20000, n_steps=300)
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
    mentions the given catalog entry."""
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
        report.rows = [r for r in report.rows
                       if f"[{entry_filter}" in r.identity
                       or f"[{entry_filter}:" in r.identity]
    report.rows.sort(key=lambda r: (r.identity, r.grid_point))
    return report
