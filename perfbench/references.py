"""Independent reference values for the benchmark's correctness checks.

Every formula here is a textbook one, written with mpmath at 30 significant
digits. Nothing in this file imports or calls feynkac: the workloads send
their outputs and the inputs that produced them, and the parent process
compares them with these references.

Notation follows the catalog: a squared Bessel process of dimension n solves
dX = n dt + 2 sqrt(X) dW; the CIR process solves dX = (a - bX) dt +
sqrt(2 sigma X) dW.

Sources: Revuz & Yor, "Continuous Martingales and Brownian Motion", ch. XI
(squared Bessel laws, index shift under 1/x killing); Pitman & Yor (1982),
"A decomposition of Bessel bridges" (linear killing); Cox, Ingersoll & Ross
(1985) and Feller (1951) for the noncentral chi-square law of the CIR process.
"""

from __future__ import annotations

import mpmath as mp

mp.mp.dps = 30

__all__ = ["REFERENCES", "evaluate"]


def besq_density(n, t, x, y, nu=0.0, mu=0.0):
    """Transition density of BESQ(n) killed at rate nu/x + mu*x.

    nu/x killing shifts the Bessel index to sqrt((n/2-1)^2 + 2 nu); mu*x
    killing (b = sqrt(2 mu)) replaces t by sinh(bt)/b in the scales and
    (x+y)/(2t) by b*coth(bt)*(x+y)/2.
    """
    n, t, x, y, nu, mu = map(mp.mpf, (n, t, x, y, nu, mu))
    index = n / 2 - 1
    w = mp.sqrt(index ** 2 + 2 * nu)
    if mu == 0:
        return (mp.exp(-(x + y) / (2 * t)) * (y / x) ** (index / 2)
                * mp.besseli(w, mp.sqrt(x * y) / t) / (2 * t))
    b = mp.sqrt(2 * mu)
    sh = mp.sinh(b * t)
    return (b / (2 * sh) * (y / x) ** (index / 2)
            * mp.exp(-b * (x + y) * mp.coth(b * t) / 2)
            * mp.besseli(w, b * mp.sqrt(x * y) / sh))


def besq_laplace(n, lam, t, x, mu=0.0):
    """E_x[exp(-lam X_t - mu int_0^t X_s ds)] for BESQ(n).

    mu = 0: (1 + 2 lam t)^(-n/2) exp(-lam x / (1 + 2 lam t)).
    mu > 0 (Pitman-Yor, b = sqrt(2 mu)):
      (cosh bt + (2 lam/b) sinh bt)^(-n/2)
      * exp(-(x b/2) (sinh bt + (2 lam/b) cosh bt) / (cosh bt + (2 lam/b) sinh bt)).
    """
    n, lam, t, x, mu = map(mp.mpf, (n, lam, t, x, mu))
    if mu == 0:
        den = 1 + 2 * lam * t
        return den ** (-n / 2) * mp.exp(-lam * x / den)
    b = mp.sqrt(2 * mu)
    c, s = mp.cosh(b * t), mp.sinh(b * t)
    den = c + 2 * lam / b * s
    return den ** (-n / 2) * mp.exp(-(x * b / 2) * (s + 2 * lam / b * c) / den)


def _cir_scale(a, b, sigma, t):
    """(c, k): X_t = c * noncentral chi-square with k degrees of freedom."""
    c = sigma * (1 - mp.exp(-b * t)) / (2 * b) if b != 0 else sigma * t / 2
    return c, 2 * a / sigma


def cir_density(a, b, sigma, t, x, y):
    """CIR transition density as a scaled noncentral chi-square (a >= sigma)."""
    a, b, sigma, t, x, y = map(mp.mpf, (a, b, sigma, t, x, y))
    c, k = _cir_scale(a, b, sigma, t)
    nc = x * mp.exp(-b * t) / c
    z = y / c
    chi2 = (mp.exp(-(z + nc) / 2) * (z / nc) ** (k / 4 - mp.mpf(1) / 2)
            * mp.besseli(k / 2 - 1, mp.sqrt(nc * z)) / 2)
    return chi2 / c


def cir_laplace(a, b, sigma, lam, t, x):
    """Affine transform E_x[exp(-lam X_t)] = (1 + 2 lam c)^(-k/2)
    exp(-lam x e^(-bt) / (1 + 2 lam c))."""
    a, b, sigma, lam, t, x = map(mp.mpf, (a, b, sigma, lam, t, x))
    c, k = _cir_scale(a, b, sigma, t)
    den = 1 + 2 * lam * c
    return den ** (-k / 2) * mp.exp(-lam * x * mp.exp(-b * t) / den)


def bessel_density(a, t, x, y, mu=0.0):
    """Bessel process dX = (a/X) dt + dW (index a - 1/2) killed at rate
    mu/(4x^2): (y/t)(y/x)^(a-1/2) exp(-(x^2+y^2)/(2t)) I_w(xy/t) with
    w = sqrt((a-1/2)^2 + mu/2)."""
    a, t, x, y, mu = map(mp.mpf, (a, t, x, y, mu))
    index = a - mp.mpf(1) / 2
    w = mp.sqrt(index ** 2 + mu / 2)
    return (y / t * (y / x) ** index * mp.exp(-(x * x + y * y) / (2 * t))
            * mp.besseli(w, x * y / t))


def bessel_laplace(a, lam, t, x):
    """E_x[exp(-lam X_t^2)] for the Bessel process: X^2 is BESQ(2a+1)."""
    return besq_laplace(2 * mp.mpf(a) + 1, lam, t, mp.mpf(x) ** 2)


def radial_ou_density(a, b, t, x, y):
    """Radial OU dX = (a/X + bX) dt + sqrt(2) dW: Y = X^2 is a CIR process
    with drift (2a+2) + 2bY and sigma = 4, so p_X(y) = 2y p_Y(y^2)."""
    y = mp.mpf(y)
    return 2 * y * cir_density(2 * mp.mpf(a) + 2, -2 * mp.mpf(b), 4, t,
                               mp.mpf(x) ** 2, y * y)


def radial_ou_laplace(a, b, lam, t, x):
    """E_x[exp(-lam X_t^2)] for the radial OU process, via Y = X^2."""
    return cir_laplace(2 * mp.mpf(a) + 2, -2 * mp.mpf(b), 4, lam, t,
                       mp.mpf(x) ** 2)


def hartman_ratio(n, nu, t, x, y):
    """Killed over free BESQ(n) kernel for nu/x killing: a pure Bessel index
    shift I_w(z)/I_|n/2-1|(z) at z = sqrt(xy)/t."""
    n, nu, t, x, y = map(mp.mpf, (n, nu, t, x, y))
    index = n / 2 - 1
    z = mp.sqrt(x * y) / t
    return mp.besseli(mp.sqrt(index ** 2 + 2 * nu), z) / mp.besseli(abs(index), z)


REFERENCES = {
    "besq_density": besq_density,
    "besq_laplace": besq_laplace,
    "cir_density": cir_density,
    "cir_laplace": cir_laplace,
    "bessel_density": bessel_density,
    "bessel_laplace": bessel_laplace,
    "radial_ou_density": radial_ou_density,
    "radial_ou_laplace": radial_ou_laplace,
    "hartman_ratio": hartman_ratio,
}


def evaluate(name: str, args: dict, log: bool = False) -> float:
    """Reference value of REFERENCES[name] at args (natural log if log)."""
    value = REFERENCES[name](**args)
    return float(mp.log(value)) if log else float(value)
