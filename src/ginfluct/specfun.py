"""Numerically stable special functions and quadrature primitives.

Everything downstream (gamma-sum expectations, Fourier double sums, count
probabilities, normal tail integrals) reduces to the four workhorses here:
log-gamma, the regularized incomplete gamma pair (over a unit ladder of shapes
at once), the standard normal CDF, and Gauss-Legendre panel sums.  Gamma
ratios elsewhere are exponentiated once from `log_gamma` or its stable
half-step ratio, or (angular) stepped by exact rationals from the latter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "QuadratureRule",
    "log_gamma",
    "regularized_gamma_lower",
    "regularized_gamma_upper",
    "gamma_interval_prob",
    "std_normal_cdf",
    "legendre_rule",
    "panel_integrate",
]

# Lanczos coefficients for g = 7, n = 9 (double-precision classic set).
_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

# Stirling series coefficients B_{2n} / (2n(2n-1)) for n = 1..7.
_STIRLING = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
)

_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)


def log_gamma(x):
    """ln Gamma(x) for x > 0 (elementwise over an array, on `np.log`).

    Lanczos below 20, Stirling series above; relative error stays below
    1e-13 across [0.5, 1e6] (checked against extended precision in tests).
    """
    if isinstance(x, np.ndarray):
        if not np.all(x > 0.0):
            raise ValueError("log_gamma requires x > 0")
        small = x < 20.0
        out = np.empty(x.shape)
        out[small] = _lanczos(x[small], np)
        out[~small] = _stirling(x[~small], np)
        return out
    if not x > 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return _lanczos(x, math) if x < 20.0 else _stirling(x, math)


def _lanczos(x, xp):
    # Lanczos with argument shifted by 1: Gamma(x) = Gamma(1 + (x-1)).
    z = x - 1.0
    acc = _LANCZOS[0]
    for i in range(1, len(_LANCZOS)):
        acc += _LANCZOS[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _HALF_LOG_TWO_PI + (z + 0.5) * xp.log(t) - t + xp.log(acc)


def _stirling(x, xp):
    return (x - 0.5) * xp.log(x) - x + _HALF_LOG_TWO_PI + _stirling_tail(x)


def _stirling_tail(x: float) -> float:
    """Correction series in ln Gamma(x) ~ (x-1/2)ln x - x + ln(2 pi)/2 + tail."""
    inv = 1.0 / x
    inv2 = inv * inv
    series = 0.0
    p = inv
    for c in _STIRLING:
        series += c * p
        p *= inv2
    return series


def _half_step_log_ratio(k):
    """ln Gamma(k + 1/2) - ln Gamma(k), elementwise for k > 0; from k = 30 on in
    Stirling's collapsed form, as a log-gamma difference loses k ln k eps."""
    collapsed = (0.5 * np.log(k) + (k * np.log1p(0.5 / k) - 0.5)
                 + _stirling_tail(k + 0.5) - _stirling_tail(k))
    return np.where(k < 30.0, log_gamma(k + 0.5) - log_gamma(k), collapsed)


def _log_prefactor(k, x: float):
    """k ln x - x - ln Gamma(k) without cancellation for large k (elementwise in k).

    The three terms grow like k ln k while their sum stays O(1) when x is
    near k, so the direct form loses ~k*eps absolute accuracy.  Substituting
    the Stirling expansion of ln Gamma(k) collapses the large parts into
    k*(log1p(t) - t) with t = x/k - 1, which is evaluated stably.  The direct
    form stays below k = 30, where all terms are modest; one shape keeps it
    for x < k/2 too, where k ln(x/k) dominates and the value is far below the
    exp underflow threshold (an array takes the equally exact collapsed form).
    """
    t = (x - k) / k
    if isinstance(k, np.ndarray):
        with np.errstate(divide="ignore"):  # t = -1 once x/k < eps: -inf, exp gives 0
            out = k * (np.log1p(t) - t) + 0.5 * np.log(k) - _HALF_LOG_TWO_PI - _stirling_tail(k)
        small = k < 30.0
        out[small] = k[small] * np.log(x) - x - log_gamma(k[small])
        return out
    if k < 30.0 or x < 0.5 * k:
        return k * math.log(x) - x - log_gamma(k)
    return k * (math.log1p(t) - t) + 0.5 * math.log(k) - _HALF_LOG_TWO_PI - _stirling_tail(k)


def _gamma_series(k: float, x: float) -> float:
    """Lower regularized gamma by series, valid for x < k+1."""
    if x <= 0.0:
        return 0.0
    ap = k
    term = 1.0 / k
    total = term
    itmax = 600 + 8 * int(math.sqrt(k) + 1.0)
    for _ in range(itmax):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * 1e-17:
            return total * math.exp(_log_prefactor(k, x))
    raise RuntimeError(f"incomplete gamma series failed to converge (k={k}, x={x})")


def _gamma_cont_fraction(k: float, x: float) -> float:
    """Upper regularized gamma by modified Lentz continued fraction, x >= k+1."""
    tiny = 1e-300
    b = x + 1.0 - k
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    itmax = 600 + 8 * int(math.sqrt(k) + 1.0)
    for i in range(1, itmax + 1):
        an = -i * (i - k)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-17:
            return h * math.exp(_log_prefactor(k, x))
    raise RuntimeError(f"incomplete gamma continued fraction failed to converge (k={k}, x={x})")


def regularized_gamma_lower(k: float, x: float) -> float:
    """P(k, x) = gamma(k, x)/Gamma(k), the Gamma(k) CDF at x.

    Series for x < k+1, continued fraction beyond; absolute error <= 1e-12.
    """
    if not k > 0.0:
        raise ValueError(f"shape must be positive, got {k}")
    if x < 0.0:
        raise ValueError(f"x must be nonnegative, got {x}")
    if x == 0.0:
        return 0.0
    if x == math.inf:
        return 1.0
    if x < k + 1.0:
        return min(_gamma_series(k, x), 1.0)
    return min(max(1.0 - _gamma_cont_fraction(k, x), 0.0), 1.0)


def regularized_gamma_upper(k: float, x: float) -> float:
    """Q(k, x) = 1 - P(k, x), computed on whichever branch is well conditioned."""
    if not k > 0.0:
        raise ValueError(f"shape must be positive, got {k}")
    if x < 0.0:
        raise ValueError(f"x must be nonnegative, got {x}")
    if x == 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    if x < k + 1.0:
        return min(max(1.0 - _gamma_series(k, x), 0.0), 1.0)
    return min(_gamma_cont_fraction(k, x), 1.0)


def gamma_interval_prob(k, lo: float, hi: float):
    """P(lo <= s <= hi) for s ~ Gamma(k): one shape, or one probability per
    shape for an array of shapes k0, k0 + 1, k0 + 2, ...

    The shape is an integer in the ensemble laws (Gamma(k) for the complex
    ensemble, Gamma(2k) for the quaternion one) but any real k > 0 is
    accepted; half-integer shapes arise for odd polynomial moments.
    Result is clamped to [0, 1]; hi = inf is allowed.
    """
    a = np.array(k, dtype=float, ndmin=1)
    if a.ndim != 1 or not a.size or not a[0] > 0.0 or np.any(np.diff(a) != 1.0):
        raise ValueError(f"shapes must be positive and step by 1, got {k}")
    if not 0.0 <= lo <= hi:
        raise ValueError(f"interval needs 0 <= lo <= hi, got lo={lo}, hi={hi}")
    at_lo, at_hi = _ladder(a, lo), _ladder(a, hi)
    p = np.where(a > hi, at_hi - at_lo, np.where(a <= lo, at_lo - at_hi, 1.0 - at_lo - at_hi))
    p = np.clip(p, 0.0, 1.0)
    return p if np.ndim(k) else float(p[0])


def _ladder(a: np.ndarray, x: float) -> np.ndarray:
    """Q(a_i, x) for unit-step shapes a_i <= x and P(a_i, x) above: by
    Q(a+1, x) = Q(a, x) + x^a e^-x/Gamma(a+1) (DLMF 8.8), cumulative sums up
    from the lowest and down from the highest shape, where each side is small.
    Each term has its own `_log_prefactor`; summed log ratios would drift."""
    if x == 0.0 or x == math.inf:
        return np.zeros(len(a))  # P(a, 0) = Q(a, inf) = 0
    terms = np.exp(_log_prefactor(a, x)) / a
    q = np.cumsum(np.r_[regularized_gamma_upper(a[0], x), terms[:-1]])
    p = np.cumsum(np.r_[regularized_gamma_lower(a[-1], x), terms[-2::-1]])[::-1]
    return np.where(a <= x, q, p)


def std_normal_cdf(x: float) -> float:
    """Phi(x) via the complementary error function; absolute error <= 1e-14."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre nodes/weights mapped to [lo, hi]."""

    nodes: np.ndarray
    weights: np.ndarray
    interval: tuple[float, float]

    def integrate(self, f) -> float:
        """Apply the rule to a callable or an array of node values."""
        values = f(self.nodes) if callable(f) else f
        return float(np.dot(self.weights, values))


@lru_cache(maxsize=512)
def _reference_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only n-point Gauss-Legendre nodes and weights on [-1, 1].

    `leggauss` solves a dense n x n eigenproblem, so each n is built once
    per process; the package asks for four node counts (16, 24, 96, 320).
    It is looked up at call time so that a wrapper patched onto the numpy
    attribute sees every real build.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def legendre_rule(n: int, lo: float, hi: float) -> QuadratureRule:
    """n-point Gauss-Legendre rule on [lo, hi]; exact for degree <= 2n-1."""
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got {n}")
    if not hi > lo:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    x, w = _reference_rule(n)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    return QuadratureRule(nodes=mid + half * x, weights=half * w, interval=(lo, hi))


def panel_integrate(fn, panels, nodes: int) -> float:
    """Sum of `nodes`-point Gauss-Legendre integrals of fn over (lo, hi)
    panels, skipping empty ones; every quadrature in the package is one."""
    total = 0.0
    for lo, hi in panels:
        if hi <= lo:
            continue
        rule = legendre_rule(nodes, lo, hi)
        total += float(fn(rule.nodes) @ rule.weights)
    return total
