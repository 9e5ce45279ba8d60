"""Exact finite-N statistics for functions of the eigenvalue moduli.

The set of squared moduli of the complex ensemble equals in law
{s_l / N : l = 1..N} with s_l a Gamma(l) variable (sum of l unit-mean
exponentials), the variables independent; the quaternion ensemble replaces
s_l/N by s_{2l}/(2N).  Every mean/covariance/count formula here is a sum of
one-dimensional gamma expectations.

A `RadialTestFunction` is p(r) 1{a <= r <= b} or a callable; a product of
two is the convolved polynomial on the intersected window.  One helper
maps window edges to the incomplete-gamma ladders of the N factors; the
per-factor values of E[p(r) 1{a <= r <= b}] (a moment recurrence with one
ladder call per term), the count probabilities and the count covariances
all read it, with no quadrature.  Callable statistics
and log-MGF tilts are Gauss-Legendre integrals in r against the modulus
density, split at the window edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .specfun import (
    _fsum,
    _half_step_log_ratio,
    gamma_piece_probs,
    log_gamma,
    panel_integrate,
)

__all__ = [
    "Ensemble",
    "RadialTestFunction",
    "ModulusWindow",
    "radial_mean_exact",
    "radial_cov_exact",
    "radial_count_var",
    "radial_count_cov",
    "radial_log_mgf",
    "count_probabilities",
]

MAX_POLY_DEGREE = 32

# A modulus window is a plain (a, b) pair with 0 <= a <= b <= inf.
ModulusWindow = tuple[float, float]


class Ensemble(Enum):
    COMPLEX = "complex"
    QUATERNION = "quaternion"

    def shape(self, l):
        """Gamma shape of the l-th modulus factor (elementwise for an array of l)."""
        return l if self is Ensemble.COMPLEX else 2 * l

    def scale(self, n: int) -> float:
        """s divided by this gives the squared modulus."""
        return float(n) if self is Ensemble.COMPLEX else 2.0 * n


def _check_window(w: ModulusWindow) -> ModulusWindow:
    a, b = float(w[0]), float(w[1])
    if not 0.0 <= a <= b:
        raise ValueError(f"modulus window needs 0 <= a <= b, got [{a}, {b}]")
    return (a, b)


@dataclass(frozen=True)
class RadialTestFunction:
    """Test function of the modulus r >= 0: p(r) 1{a <= r <= b}, or a callable.

    Without `fn` it is the polynomial sum_j c_j r^j (degree <= 32) on the
    window [a, b], 0 <= a <= b <= inf, with exact moments: a polynomial has
    the window [0, inf), an indicator the coefficients (1,).  With `fn` it
    is an arbitrary bounded function, evaluable up to r_max and quadratured
    against the gamma density; `coeffs` and `window` keep their defaults.
    """

    coeffs: tuple[float, ...] = (1.0,)
    window: ModulusWindow = (0.0, math.inf)
    fn: Callable[[np.ndarray], np.ndarray] | None = None
    r_max: float = 0.0

    def __post_init__(self) -> None:
        if self.fn is not None:
            if not self.r_max >= 2.0:  # NaN fails too
                raise ValueError(f"callable domain must reach r_max >= 2, got {self.r_max}")
            if tuple(self.coeffs) != (1.0,) or tuple(self.window) != (0.0, math.inf):
                raise ValueError("a callable takes no coeffs or window; fold them into fn")
            return
        if not 1 <= len(self.coeffs) <= MAX_POLY_DEGREE + 1:
            raise ValueError(f"polynomial needs 1 to {MAX_POLY_DEGREE + 1} coefficients")
        object.__setattr__(self, "window", _check_window(self.window))

    # -- constructors ---------------------------------------------------

    @classmethod
    def poly(cls, coeffs: Sequence[float]) -> "RadialTestFunction":
        return cls(coeffs=tuple(float(c) for c in coeffs))

    @classmethod
    def indicator(cls, a: float, b: float) -> "RadialTestFunction":
        return cls(window=(a, b))

    @classmethod
    def from_callable(cls, fn: Callable, r_max: float = 4.0) -> "RadialTestFunction":
        return cls(fn=fn, r_max=float(r_max))

    # -- evaluation (MC estimators and quadrature both use this) --------

    def evaluate(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        if self.fn is not None:
            return np.asarray(self.fn(r), dtype=float)
        # Horner in place: a moduli batch is the size of the sample
        out = np.full_like(r, self.coeffs[-1])
        for c in self.coeffs[-2::-1]:
            out *= r
            out += c
        a, b = self.window
        out[(r < a) | (r > b)] = 0.0
        return out


# ---------------------------------------------------------------------------
# one-factor expectations
# ---------------------------------------------------------------------------

def _piece_probabilities(n: int, edges: Sequence[float], ens: Ensemble,
                         shift: float = 0.0) -> np.ndarray:
    """P(modulus between consecutive edges) for each of the N factors, one row
    per piece, with every gamma shape raised by `shift` (j/2 for the j-th
    moment): one `gamma_piece_probs` call on s = scale r^2 over the unit
    ladder of shapes, of which the quaternion factors take every other rung."""
    scale = ens.scale(n)
    rungs = np.arange(ens.shape(1.0), ens.shape(n) + 1.0) + shift
    return gamma_piece_probs(rungs, [scale * e * e for e in edges])[:, ::ens.shape(1)]


def _window_moments(coeffs: Sequence[float], window: ModulusWindow, n: int,
                    ens: Ensemble) -> np.ndarray:
    """E[p(r) 1{a <= r <= b}] for each of the N factors, p(r) = sum_j c_j r^j.

    The moments M_j = E[r^j] follow M_{j+2} = M_j (k + j/2)/scale from M_0 = 1 and
    M_1 = Gamma(k + 1/2)/(Gamma(k) sqrt(scale)) (the stable half-step log ratio).
    In the window, M_j picks up the probability of [a, b] under shapes k + j/2.
    """
    scale = ens.scale(n)
    k = ens.shape(np.arange(1.0, n + 1.0))
    moments = [np.ones(n), None]
    if any(coeffs[1::2]):
        moments[1] = np.exp(_half_step_log_ratio(k)) / math.sqrt(scale)
    terms = []
    for j, c in enumerate(coeffs):
        if j >= 2 and moments[j % 2] is not None:
            moments[j % 2] = moments[j % 2] * (k + 0.5 * j - 1.0) / scale
        if c != 0.0:
            prob = _piece_probabilities(n, window, ens, 0.5 * j)[0]
            terms.append(c * (moments[j % 2] * prob))
    if not terms:
        return np.zeros(n)
    if len(terms) == 1:
        return terms[0]
    return np.array([math.fsum(row) for row in np.stack(terms, axis=1).tolist()])


def _gamma_window(shape: float) -> tuple[float, float]:
    # CLT window k +/- 12 sqrt(k) in s = scale r^2, upper end padded so small
    # shapes keep their tail mass (exp(-40) and below is beyond every
    # tolerance here)
    w = 12.0 * math.sqrt(shape)
    return max(0.0, shape - w), shape + w + 40.0


# Gauss-Legendre nodes per piece of every gamma-density quadrature
_NODES = 320


def _gamma_integral(g: Callable[[np.ndarray, np.ndarray], np.ndarray], shape: float,
                    scale: float, s_left: float, s_right: float,
                    breaks: Sequence[float] = ()) -> float:
    """Integral of g(r, log density of r) for r between sqrt(s/scale) at the two
    s-ends, where scale r^2 ~ Gamma(shape).

    The rule runs in r, where the density 2 scale^k r^{2k-1} e^{-scale r^2}/Gamma(k)
    and odd powers of r are smooth down to r = 0.  `breaks` lists r-values
    (indicator edges) where the integrand jumps; the range is split there so
    Gauss-Legendre never straddles a jump.
    """
    left, right = math.sqrt(s_left / scale), math.sqrt(s_right / scale)
    cuts = sorted({left, right, *[b for b in breaks if left < b < right]})
    lognorm = math.log(2.0) + shape * math.log(scale) - log_gamma(shape)
    return panel_integrate(
        lambda r: g(r, (2.0 * shape - 1.0) * np.log(r) - scale * r * r + lognorm),
        zip(cuts[:-1], cuts[1:]), _NODES)


def _callable_product_mean(f: RadialTestFunction, g: RadialTestFunction,
                           shape: float, scale: float) -> float:
    """E[f(r) g(r)] under one gamma factor by quadrature, split at any jumps."""
    for h in (f, g):
        if h.fn is not None:
            _check_callable_window(h, shape, scale)
    # an edge at 0 or +inf falls outside the window and is dropped there
    breaks = [x for h in (f, g) if h.fn is None for x in h.window]

    def integrand(r: np.ndarray, logdens: np.ndarray) -> np.ndarray:
        return f.evaluate(r) * g.evaluate(r) * np.exp(logdens)

    return _gamma_integral(integrand, shape, scale, *_gamma_window(shape), breaks)


def _check_callable_window(f: RadialTestFunction, shape: float, scale: float) -> None:
    r_needed = math.sqrt(_gamma_window(shape)[1] / scale)
    if r_needed > f.r_max:
        raise ValueError(
            f"callable test function only evaluable up to r_max={f.r_max}, "
            f"but the gamma window for shape {shape} reaches r={r_needed:.3f}"
        )


def _factor_means(f: RadialTestFunction, g: RadialTestFunction, n: int,
                  ens: Ensemble) -> np.ndarray:
    """E[f(r) g(r)] for each of the N gamma factors."""
    if f.fn is None and g.fn is None:
        lo, hi = max(f.window[0], g.window[0]), min(f.window[1], g.window[1])
        # disjoint windows meet in the empty window [lo, lo]
        return _window_moments(np.convolve(f.coeffs, g.coeffs).tolist(), (lo, max(lo, hi)),
                               n, ens)
    scale = ens.scale(n)
    return np.array([_callable_product_mean(f, g, ens.shape(l), scale)
                     for l in range(1, n + 1)])


# ---------------------------------------------------------------------------
# public sums over the N factors
# ---------------------------------------------------------------------------

_ONE = RadialTestFunction()


def radial_mean_exact(f: RadialTestFunction, n: int, ens: Ensemble = Ensemble.COMPLEX) -> float:
    """E[X(f)] = sum_l E[f(sqrt(s/scale))]."""
    if n < 1:
        raise ValueError("N must be >= 1")
    return _fsum(_factor_means(f, _ONE, n, ens))


def radial_cov_exact(f: RadialTestFunction, g: RadialTestFunction, n: int,
                     ens: Ensemble = Ensemble.COMPLEX) -> float:
    """Cov(X(f), X(g)) = sum_l { E[fg] - E[f] E[g] }, exact per factor.

    Two plain indicators are a count covariance, whose terms cancel to far
    below E[fg] deep inside a window: `radial_count_cov` keeps their relative
    accuracy."""
    if n < 1:
        raise ValueError("N must be >= 1")
    if all(h.fn is None and tuple(h.coeffs) == (1.0,) for h in (f, g)):
        return radial_count_cov(n, f.window, g.window, ens)
    mean_f = _factor_means(f, _ONE, n, ens)
    mean_g = mean_f if g is f else _factor_means(g, _ONE, n, ens)
    return _fsum(_factor_means(f, g, n, ens) - mean_f * mean_g)


def count_probabilities(n: int, a: float, b: float,
                        ens: Ensemble = Ensemble.COMPLEX) -> np.ndarray:
    """p_k = P(modulus_k in [a, b]) for k = 1..N."""
    if n < 1:
        raise ValueError("N must be >= 1")
    return _piece_probabilities(n, _check_window((a, b)), ens)[0]


def radial_count_var(n: int, a: float, b: float,
                     ens: Ensemble = Ensemble.COMPLEX) -> float:
    """Var #{moduli in [a, b]}: the covariance of the window with itself."""
    return radial_count_cov(n, (a, b), (a, b), ens)


def radial_count_cov(n: int, w1: ModulusWindow, w2: ModulusWindow,
                     ens: Ensemble = Ensemble.COMPLEX) -> float:
    """Cov(#w1, #w2) = sum_k [ p_k(w1 cap w2) - p_k(w1) p_k(w2) ], of two indicators.

    The distinct edges {0, a1, b1, a2, b2, inf} cut [0, inf) into pieces, each
    inside or outside each window.  Per factor the four memberships (both,
    neither, w1 only, w2 only) have probabilities I, O, A, B summing to 1, so
    the term is I - (I + A)(I + B) = I O - A B.  Each is a sum of pieces, and
    the products keep their relative accuracy where the plain difference
    cancels: deep inside a window p_k = 1 to rounding, and 1 - p_k keeps only
    the absolute accuracy of 1.  The N terms are summed by `specfun._fsum`,
    which skips the terms below 2^-60 sum|t| / N (a factor far from every
    window edge has both products near 0).
    """
    if n < 1:
        raise ValueError("N must be >= 1")
    w1, w2 = _check_window(w1), _check_window(w2)
    edges = sorted({0.0, *w1, *w2, math.inf})
    # row 2 x + y sums the pieces with x = (inside w1), y = (inside w2)
    mass = np.zeros((4, n))
    for row, lo, hi in zip(_piece_probabilities(n, edges, ens), edges[:-1], edges[1:]):
        x, y = w1[0] <= lo and hi <= w1[1], w2[0] <= lo and hi <= w2[1]
        mass[2 * x + y] += row
    neither, only2, only1, both = mass
    return _fsum(both * neither - only1 * only2)


# ---------------------------------------------------------------------------
# log moment generating function (complex ensemble)
# ---------------------------------------------------------------------------

def _poly_mgf_divergent(h: RadialTestFunction, lam: float, scale: float) -> bool:
    coeffs = list(h.coeffs)
    while coeffs and coeffs[-1] == 0.0:
        coeffs.pop()
    deg = len(coeffs) - 1
    if deg <= 1 or lam == 0.0 or h.window[1] < math.inf:
        return False
    lead = lam * coeffs[-1]
    if deg > 2:
        return lead > 0.0
    return lead >= scale  # lam*c2*r^2 vs exp(-scale*r^2)


def radial_log_mgf(h: RadialTestFunction, lam: float, n: int) -> float:
    """log E[exp(lam X(h))] = sum_k log E[exp(lam h(sqrt(s_k/N)))], complex ensemble.

    A count factor (p = 1) is 1 + (e^lam - 1) p_k with p_k from
    `count_probabilities`.  Otherwise each factor integrates expm1(lam h)
    against the gamma density (log1p on the way out keeps small-lam
    accuracy); the quadrature window extends adaptively because a positive
    tilt shifts the gamma mass rightward.
    """
    if n < 1:
        raise ValueError("N must be >= 1")
    if lam == 0.0:
        return 0.0
    scale = float(n)
    if h.fn is None and _poly_mgf_divergent(h, lam, scale):
        raise ValueError("E[exp(lam h)] diverges for every factor: "
                         "lam * (leading coefficient) outgrows the Gaussian weight (k=1)")
    if h.fn is None and h.coeffs == (1.0,):
        tilted = math.expm1(lam) * count_probabilities(n, *h.window)
    else:
        tilted = [_tilted_expectation(h, lam, k, scale) for k in range(1, n + 1)]
    total = 0.0
    for t in tilted:
        total += math.log1p(t)
    return total


def _tilted_expectation(h: RadialTestFunction, lam: float, k: int, scale: float) -> float:
    """E[expm1(lam h(r))] with adaptive right extension, never past a callable's r_max."""
    def tilt(r: np.ndarray, logdens: np.ndarray) -> np.ndarray:
        arg = lam * h.evaluate(r)
        big = arg > 50.0
        return np.where(big, np.exp(arg + logdens), np.expm1(arg) * np.exp(logdens))

    lo, hi = _gamma_window(k)
    s_max = math.inf
    if h.fn is not None:
        _check_callable_window(h, k, scale)
        s_max = scale * h.r_max * h.r_max
    # split at the window edges (a callable's default window drops out)
    total = _gamma_integral(tilt, k, scale, lo, hi, h.window)
    step = hi - lo
    for _ in range(64):
        top = min(hi + step, s_max)
        piece = _gamma_integral(tilt, k, scale, hi, top, h.window)
        hi = top
        total += piece
        if abs(piece) < 1e-15 * max(1.0, abs(total)):
            return total
        if hi == s_max:
            raise ValueError(f"factor k={k}: tilted integrand still growing at r_max")
    raise ValueError(f"factor k={k}: E[exp(lam h)] does not converge (divergent tilt)")
