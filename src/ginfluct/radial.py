"""Exact finite-N statistics for functions of the eigenvalue moduli.

The set of squared moduli of the complex ensemble equals in law
{s_l / N : l = 1..N} with s_l a Gamma(l) variable (sum of l unit-mean
exponentials), the variables independent; the quaternion ensemble replaces
s_l/N by s_{2l}/(2N).  Every mean/covariance/count formula here is a sum of
one-dimensional gamma expectations, so results are exact up to quadrature
error (and polynomials avoid quadrature entirely via moment recurrences).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .specfun import gamma_interval_prob, log_gamma, panel_integrate

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

    def shape(self, l: int) -> int:
        """Gamma shape of the l-th modulus factor."""
        return l if self is Ensemble.COMPLEX else 2 * l

    def scale(self, n: int) -> float:
        """s divided by this gives the squared modulus."""
        return float(n) if self is Ensemble.COMPLEX else 2.0 * n


def _check_window(w: ModulusWindow) -> ModulusWindow:
    a, b = float(w[0]), float(w[1])
    if a < 0.0 or a > b:
        raise ValueError(f"modulus window needs 0 <= a <= b, got [{a}, {b}]")
    return (a, b)


@dataclass(frozen=True)
class RadialTestFunction:
    """Test function of the modulus r >= 0.

    kind "poly": coefficients c_j for sum_j c_j r^j (degree <= 32, exact moments);
    kind "indicator": 1_{[a,b]} routed through incomplete gammas;
    kind "callable": arbitrary bounded function, quadratured against the gamma density.
    """

    kind: str
    coeffs: tuple[float, ...] = ()
    a: float = 0.0
    b: float = 0.0
    fn: Callable[[np.ndarray], np.ndarray] | None = None
    r_max: float = 0.0

    def __post_init__(self) -> None:
        if self.kind == "poly":
            if len(self.coeffs) == 0:
                raise ValueError("polynomial needs at least one coefficient")
            if len(self.coeffs) - 1 > MAX_POLY_DEGREE:
                raise ValueError(f"polynomial degree capped at {MAX_POLY_DEGREE}")
        elif self.kind == "indicator":
            if self.a < 0.0 or self.a > self.b:
                raise ValueError(f"indicator needs 0 <= a <= b, got [{self.a}, {self.b}]")
        elif self.kind == "callable":
            if self.fn is None:
                raise ValueError("callable kind needs fn")
            if self.r_max < 2.0:
                raise ValueError(f"callable domain must reach r_max >= 2, got {self.r_max}")
        else:
            raise ValueError(f"unknown kind {self.kind!r}")

    # -- constructors ---------------------------------------------------

    @classmethod
    def poly(cls, coeffs: Sequence[float]) -> "RadialTestFunction":
        return cls(kind="poly", coeffs=tuple(float(c) for c in coeffs))

    @classmethod
    def indicator(cls, a: float, b: float) -> "RadialTestFunction":
        return cls(kind="indicator", a=float(a), b=float(b))

    @classmethod
    def from_callable(cls, fn: Callable, r_max: float = 4.0) -> "RadialTestFunction":
        return cls(kind="callable", fn=fn, r_max=float(r_max))

    # -- evaluation (MC estimators and quadrature both use this) --------

    def evaluate(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        if self.kind == "poly":
            out = np.zeros_like(r)
            for c in reversed(self.coeffs):
                out = out * r + c
            return out
        if self.kind == "indicator":
            return ((r >= self.a) & (r <= self.b)).astype(float)
        return np.asarray(self.fn(r), dtype=float)


# ---------------------------------------------------------------------------
# one-factor expectations
# ---------------------------------------------------------------------------

def _moment_table(shape: float, scale: float, jmax: int) -> list[float]:
    """E[(s/scale)^{j/2}] for j = 0..jmax, s ~ Gamma(shape).

    Even rows are rising-factorial products, odd rows hang off the single
    half-integer start E[(s/scale)^{1/2}]; both follow the two-step
    recurrence M(j+2) = M(j) * (shape + j/2) / scale.
    """
    table = [0.0] * (jmax + 1)
    table[0] = 1.0
    if jmax >= 1:
        table[1] = math.exp(log_gamma(shape + 0.5) - log_gamma(shape)) / math.sqrt(scale)
    for j in range(2, jmax + 1):
        table[j] = table[j - 2] * (shape + 0.5 * j - 1.0) / scale
    return table


def _interval_moment(shape: float, scale: float, j: int, s_lo: float, s_hi: float) -> float:
    """E[(s/scale)^{j/2} 1_{s in [s_lo, s_hi]}], s ~ Gamma(shape)."""
    if j == 0:
        return gamma_interval_prob(shape, s_lo, s_hi)
    shifted = shape + 0.5 * j
    ratio = math.exp(log_gamma(shifted) - log_gamma(shape)) / scale ** (0.5 * j)
    return ratio * gamma_interval_prob(shifted, s_lo, s_hi)


def _gamma_window(shape: float) -> tuple[float, float]:
    # CLT window k +/- 12 sqrt(k), upper end padded so small shapes keep
    # their tail mass (exp(-40) and below is beyond every tolerance here)
    w = 12.0 * math.sqrt(shape)
    return max(0.0, shape - w), shape + w + 40.0


# Gauss-Legendre nodes per piece of every gamma-density quadrature
_NODES = 320


def _gamma_integral(g: Callable[[np.ndarray, np.ndarray], np.ndarray], shape: float,
                    left: float, right: float, breaks: Sequence[float] = ()) -> float:
    """Integral over [left, right] of g(s, log Gamma(shape) density at s).

    `breaks` lists s-values (indicator edges) where the integrand jumps;
    the range is split there so Gauss-Legendre never straddles a jump.
    """
    cuts = sorted({left, right, *[b for b in breaks if left < b < right]})
    lognorm = log_gamma(shape)
    return panel_integrate(lambda s: g(s, (shape - 1.0) * np.log(s) - s - lognorm),
                           zip(cuts[:-1], cuts[1:]), _NODES)


@lru_cache(maxsize=64)
def _poly_product(a: tuple[float, ...], b: tuple[float, ...]) -> tuple[float, ...]:
    """Coefficients of the product of two polynomials, shared by all N factors."""
    return tuple(np.convolve(a, b).tolist())


def _one_factor_product_mean(f: RadialTestFunction, g: RadialTestFunction,
                             shape: float, scale: float) -> float:
    """E[f(r) g(r)] under one gamma factor, taking the exact route available."""
    if f.kind == "poly" and g.kind == "poly":
        prod = _poly_product(f.coeffs, g.coeffs)
        table = _moment_table(shape, scale, len(prod) - 1)
        return math.fsum(c * table[j] for j, c in enumerate(prod))
    if {f.kind, g.kind} == {"poly", "indicator"}:
        p, ind = (f, g) if f.kind == "poly" else (g, f)
        s_lo = scale * ind.a * ind.a
        s_hi = scale * ind.b * ind.b if math.isfinite(ind.b) else math.inf
        return math.fsum(
            c * _interval_moment(shape, scale, j, s_lo, s_hi)
            for j, c in enumerate(p.coeffs) if c != 0.0
        )
    if f.kind == "indicator" and g.kind == "indicator":
        a, b = max(f.a, g.a), min(f.b, g.b)
        if a > b:
            return 0.0
        return gamma_interval_prob(shape, scale * a * a, scale * b * b)
    # at least one callable: quadrature on the product, split at any jumps
    for h in (f, g):
        if h.kind == "callable":
            _check_callable_window(h, shape, scale)
    # an infinite upper edge falls outside the window and is dropped there
    breaks = [scale * x * x for h in (f, g) if h.kind == "indicator" for x in (h.a, h.b)]

    def integrand(s: np.ndarray, logdens: np.ndarray) -> np.ndarray:
        r = np.sqrt(s / scale)
        return f.evaluate(r) * g.evaluate(r) * np.exp(logdens)

    return _gamma_integral(integrand, shape, *_gamma_window(shape), breaks)


def _check_callable_window(f: RadialTestFunction, shape: float, scale: float) -> None:
    r_needed = math.sqrt(_gamma_window(shape)[1] / scale)
    if r_needed > f.r_max:
        raise ValueError(
            f"callable test function only evaluable up to r_max={f.r_max}, "
            f"but the gamma window for shape {shape} reaches r={r_needed:.3f}"
        )


# ---------------------------------------------------------------------------
# public sums over the N factors
# ---------------------------------------------------------------------------

_ONE = RadialTestFunction.poly([1.0])


def radial_mean_exact(f: RadialTestFunction, n: int, ens: Ensemble = Ensemble.COMPLEX) -> float:
    """E[X(f)] = sum_l E[f(sqrt(s/scale))]."""
    if n < 1:
        raise ValueError("N must be >= 1")
    scale = ens.scale(n)
    return math.fsum(_one_factor_product_mean(f, _ONE, ens.shape(l), scale)
                     for l in range(1, n + 1))


def radial_cov_exact(f: RadialTestFunction, g: RadialTestFunction, n: int,
                     ens: Ensemble = Ensemble.COMPLEX) -> float:
    """Cov(X(f), X(g)) = sum_l { E[fg] - E[f] E[g] }, exact per factor."""
    if n < 1:
        raise ValueError("N must be >= 1")
    scale = ens.scale(n)
    terms = []
    for l in range(1, n + 1):
        k = ens.shape(l)
        terms.append(
            _one_factor_product_mean(f, g, k, scale)
            - _one_factor_product_mean(f, _ONE, k, scale)
            * _one_factor_product_mean(g, _ONE, k, scale)
        )
    return math.fsum(terms)


def count_probabilities(n: int, a: float, b: float,
                        ens: Ensemble = Ensemble.COMPLEX) -> np.ndarray:
    """p_k = P(modulus_k in [a, b]) for k = 1..N.

    Only shapes whose gamma mass straddles an endpoint need incomplete
    gammas; the rest are flat 0 or 1 to far beyond every tolerance in the
    package, so they are filled directly.
    """
    if n < 1:
        raise ValueError("N must be >= 1")
    (a, b) = _check_window((a, b))
    scale = ens.scale(n)
    s_lo = scale * a * a
    s_hi = scale * b * b if math.isfinite(b) else math.inf
    p = np.zeros(n)
    for l in range(1, n + 1):
        k = ens.shape(l)
        margin = 13.0 * math.sqrt(k) + 40.0
        near_lo = abs(k - s_lo) <= margin
        near_hi = math.isfinite(s_hi) and abs(k - s_hi) <= margin
        if near_lo or near_hi:
            p[l - 1] = gamma_interval_prob(k, s_lo, s_hi)
        elif k > s_lo and k < s_hi:
            p[l - 1] = 1.0
    return p


def radial_count_var(n: int, a: float, b: float,
                     ens: Ensemble = Ensemble.COMPLEX) -> float:
    """Var #{moduli in [a, b]} = sum_k p_k (1 - p_k)."""
    if n < 1:
        raise ValueError("N must be >= 1")
    _check_window((a, b))
    if a == b:
        return 0.0
    p = count_probabilities(n, a, b, ens)
    return math.fsum(p * (1.0 - p))


def radial_count_cov(n: int, w1: ModulusWindow, w2: ModulusWindow,
                     ens: Ensemble = Ensemble.COMPLEX) -> float:
    """Cov(#w1, #w2) = sum_k [ p_k(w1 cap w2) - p_k(w1) p_k(w2) ]."""
    w1 = _check_window(w1)
    w2 = _check_window(w2)
    if w1 == w2:
        # same expression as the variance, so the two agree bit for bit
        return radial_count_var(n, *w1, ens)
    p1 = count_probabilities(n, *w1, ens)
    p2 = count_probabilities(n, *w2, ens)
    lo, hi = max(w1[0], w2[0]), min(w1[1], w2[1])
    if lo < hi:
        pint = count_probabilities(n, lo, hi, ens)
    else:
        pint = np.zeros(n)
    return math.fsum(pint - p1 * p2)


# ---------------------------------------------------------------------------
# log moment generating function (complex ensemble)
# ---------------------------------------------------------------------------

def _poly_mgf_divergent(h: RadialTestFunction, lam: float, scale: float) -> bool:
    coeffs = list(h.coeffs)
    while coeffs and coeffs[-1] == 0.0:
        coeffs.pop()
    deg = len(coeffs) - 1
    if deg <= 1 or lam == 0.0:
        return False
    lead = lam * coeffs[-1]
    if deg > 2:
        return lead > 0.0
    return lead >= scale  # lam*c2*r^2 vs exp(-scale*r^2)


def radial_log_mgf(h: RadialTestFunction, lam: float, n: int) -> float:
    """log E[exp(lam X(h))] = sum_k log E[exp(lam h(sqrt(s_k/N)))], complex ensemble.

    Each factor integrates expm1(lam h) against the gamma density (log1p on
    the way out keeps small-lam accuracy); the quadrature window extends
    adaptively because a positive tilt shifts the gamma mass rightward.
    """
    if n < 1:
        raise ValueError("N must be >= 1")
    if lam == 0.0:
        return 0.0
    scale = float(n)
    if h.kind == "poly" and _poly_mgf_divergent(h, lam, scale):
        raise ValueError("E[exp(lam h)] diverges for every factor: "
                         "lam * (leading coefficient) outgrows the Gaussian weight (k=1)")
    total = 0.0
    for k in range(1, n + 1):
        total += math.log1p(_tilted_expectation(h, lam, k, scale))
    return total


def _tilted_expectation(h: RadialTestFunction, lam: float, k: int, scale: float) -> float:
    """E[expm1(lam h(sqrt(s/scale)))] with adaptive right extension."""
    if h.kind == "indicator":
        s_hi = scale * h.b * h.b if math.isfinite(h.b) else math.inf
        return math.expm1(lam) * gamma_interval_prob(k, scale * h.a * h.a, s_hi)

    def tilt(s: np.ndarray, logdens: np.ndarray) -> np.ndarray:
        arg = lam * h.evaluate(np.sqrt(s / scale))
        big = arg > 50.0
        return np.where(big, np.exp(arg + logdens), np.expm1(arg) * np.exp(logdens))

    lo, hi = _gamma_window(k)
    if h.kind == "callable":
        _check_callable_window(h, k, scale)
    total = _gamma_integral(tilt, k, lo, hi)
    step = hi - lo
    for _ in range(64):
        piece = _gamma_integral(tilt, k, hi, hi + step)
        hi += step
        total += piece
        if abs(piece) < 1e-15 * max(1.0, abs(total)):
            return total
        if h.kind == "callable" and math.sqrt((hi + step) / scale) > h.r_max:
            raise ValueError(f"factor k={k}: tilted integrand still growing at r_max")
    raise ValueError(f"factor k={k}: E[exp(lam h)] does not converge (divergent tilt)")
