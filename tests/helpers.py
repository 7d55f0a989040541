"""Independent oracles used to freeze expected values.

Everything here recomputes targets by a route different from the library
code: adaptive quadrature for exponential moments, a local golden-section
for speed minimization, the closed linear-ODE solution for second moments,
and the closed logistic solution for the scalar equation.
"""
import math

import numpy as np
from scipy.integrate import quad


def quad_laplace(density, lam, lo=-40.0, hi=40.0):
    """Adaptive-quadrature exponential moment of a density callable."""
    val, _ = quad(lambda x: density(x) * math.exp(-lam * x), lo, hi, limit=400)
    return val


def golden_min(f, lo, hi, tol=1e-12):
    """Plain golden-section minimizer, independent of the library search."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - phi * (b - a)
    x2 = a + phi * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol * max(1.0, abs(b)):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - phi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + phi * (b - a)
            f2 = f(x2)
    return 0.5 * (a + b)


def w_closed_form(psi_pair, psi_l, psi_m, source, t):
    """Exact solution of ``w' = psi_pair w + source exp(s (psi_l + psi_m))``."""
    drive = psi_l + psi_m
    if abs(drive - psi_pair) < 1e-12:
        return math.exp(psi_pair * t) * (1.0 + source * t)
    return math.exp(psi_pair * t) + source * (
        math.exp(drive * t) - math.exp(psi_pair * t)
    ) / (drive - psi_pair)


def logistic_decay(f0, t):
    """Closed solution of ``u' = -u + u**2`` from ``u(0) = f0``."""
    e = math.exp(-t)
    return f0 * e / (1.0 - f0 + f0 * e)


def binary_death_extinction(p0, t):
    """``P[extinct by t]`` for an immobile particle with litters {0: p0, 2: 1 - p0}.

    The backward equation ``q' = p0 + (1 - p0) q^2 - q`` is a Riccati
    equation with fixed points ``r = p0 / (1 - p0)`` and 1; from ``q(0) = 0``
    its solution is ``r (1 - e^{-kt}) / (1 - r e^{-kt})`` with ``k = 1 - 2 p0``.
    """
    r = p0 / (1.0 - p0)
    e = math.exp(-(1.0 - 2.0 * p0) * t)
    return r * (1.0 - e) / (1.0 - r * e)


def extinction_fixed_point(probs, iters=10_000):
    """Smallest fixed point of the offspring generating function."""
    q = 0.0
    for _ in range(iters):
        q = sum(p * q**n for n, p in probs.items())
    return q


def binomial_se(p_hat, n):
    return math.sqrt(max(p_hat * (1.0 - p_hat), 1e-12) / n)


def ecdf(values, xs):
    """P[value <= x] for each x."""
    s = np.sort(np.asarray(values))
    return np.searchsorted(s, xs, side="right") / s.size
