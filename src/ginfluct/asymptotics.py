"""Large-N limit laws for the fluctuation statistics, and the two scaling
functions that interpolate the counting-variance regimes.

Everything here is a prediction; the exact finite-N modules are the ground
truth it is checked against.  Regime tagging is a reporting convenience:
with x = sqrt(N) * width, windows are subcritical (x < 0.1), critical
(0.1 <= x <= 10), or wide (x > 10, split into genuinely fixed windows and
mesoscopic-supercritical ones by an absolute width threshold).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .angular import ArcWindow, ConvolvedStatistic, FourierStatistic
from .radial import Ensemble, RadialTestFunction, radial_count_var
from .specfun import panel_integrate, std_normal_cdf

__all__ = [
    "RegimeReport",
    "radial_smooth_limit",
    "angular_smooth_coeff",
    "i_arg",
    "i_mod",
    "count_var_prediction",
    "edgeworth_density",
]

SQRT_PI = math.sqrt(math.pi)

# x = sqrt(N)*width thresholds for regime tags, plus the absolute width that
# separates "fixed" from "mesoscopic-supercritical".  Reporting only.
SUBCRITICAL_X = 0.1
SUPERCRITICAL_X = 10.0
FIXED_WIDTH = 0.1


@dataclass(frozen=True)
class RegimeReport:
    n: int
    kind: str                  # "radial" | "angular"
    window: tuple[float, float]
    regime: str
    x: float                   # sqrt(N) * width
    predicted: float
    exact: float

    @property
    def ratio(self) -> float:
        return self.exact / self.predicted


# ---------------------------------------------------------------------------
# smooth-statistic limits
# ---------------------------------------------------------------------------

def _poly_derivative(coeffs: tuple[float, ...]):
    dc = tuple(j * c for j, c in enumerate(coeffs))[1:]
    return RadialTestFunction.poly(dc or (0.0,)).evaluate


def radial_smooth_limit(f: RadialTestFunction, g: RadialTestFunction,
                        f_prime=None, g_prime=None) -> float:
    """Limit covariance for smooth radial statistics: (1/2) int_0^1 f'g' r dr.

    Polynomial statistics differentiate themselves; callable ones must come
    with their derivative.  Indicators are rejected (no derivative).
    """
    def deriv(h: RadialTestFunction, supplied):
        if supplied is not None:
            return supplied
        if h.kind == "poly":
            return _poly_derivative(h.coeffs)
        raise ValueError("need an explicit derivative for non-polynomial statistics")

    df, dg = deriv(f, f_prime), deriv(g, g_prime)
    return 0.5 * panel_integrate(lambda r: df(r) * dg(r) * r, [(0.0, 1.0)], 96)


def angular_smooth_coeff(f: FourierStatistic, g: FourierStatistic) -> float:
    """sum_k k^2 fhat(k) ghat(-k); multiply by log(N)/4 for the variance law."""
    phi = ConvolvedStatistic.from_pair(f, g)
    ks = np.arange(-phi.band, phi.band + 1)
    total = complex((ks * ks) @ phi.phat)
    if abs(total.imag) > 1e-12 * max(1.0, abs(total.real)):
        raise ValueError("coefficient is complex; pair is not real-symmetric")
    return total.real


# ---------------------------------------------------------------------------
# scaling functions
# ---------------------------------------------------------------------------

def _geometric_panels(scale: float, lo: float = 0.0, hi: float = 1.0) -> list[tuple[float, float]]:
    """Panels of [lo, hi] refined geometrically towards lo on scale `scale`."""
    cuts = [hi]
    x = hi
    floor = max(scale / 8.0, 1e-300)
    while x > floor and x > lo:
        x /= 2.0
        cuts.append(max(x, lo))
    cuts.append(lo)
    cuts = sorted(set(cuts))
    return list(zip(cuts[:-1], cuts[1:]))


def i_arg(beta: float) -> float:
    """Angular critical-regime scaling factor.

    I(beta) = int_0^1 (1 - e^{-beta x^2})/(2 sqrt x) dx
            + beta int_0^1 [tail integral of e^{-t^2} from beta*sqrt(x)] dx,
    evaluated after the substitutions u = sqrt(x) (first term) and
    v = sqrt(x) (second, with the tail written via erfc):

        int_0^1 (1 - e^{-beta u^4}) du
      + beta sqrt(pi) int_0^1 erfc(beta v) v dv.

    Absolute error well below 1e-8 for beta in (0, 1e12].
    """
    if not 0.0 < beta < math.inf:
        raise ValueError(f"beta must be positive and finite, got {beta}")

    t1 = panel_integrate(
        lambda u: -np.expm1(-beta * u ** 4),
        _geometric_panels(min(1.0, beta ** -0.25)), 24)

    erfc = np.vectorize(math.erfc, otypes=[float])
    t2 = beta * SQRT_PI * panel_integrate(
        lambda v: erfc(beta * v) * v,
        _geometric_panels(min(1.0, 1.0 / beta)), 24)
    return t1 + t2


def i_mod(c: float) -> float:
    """Radial critical-regime scaling factor.

    sqrt(pi) int (G - G^2) dx with G(x) = Phi(x+2c) - Phi(x); all the mass
    sits within ~12 of the window edges x = -2c and x = 0, so the quadrature
    covers [-2c-12, 12] with dense panels at the edges and sparse ones across
    any long plateau in between.
    """
    if not 0.0 < c < math.inf:
        raise ValueError(f"c must be positive and finite, got {c}")
    phi = np.vectorize(std_normal_cdf, otypes=[float])

    def integrand(x: np.ndarray) -> np.ndarray:
        g = phi(x + 2.0 * c) - phi(x)
        return g - g * g

    panels: list[tuple[float, float]] = []

    def add_range(lo: float, hi: float, width: float) -> None:
        k = max(1, int(math.ceil((hi - lo) / width)))
        edges = np.linspace(lo, hi, k + 1)
        panels.extend(zip(edges[:-1], edges[1:]))

    left, right = -2.0 * c - 12.0, 12.0
    if right - left <= 48.0:
        add_range(left, right, 1.0)
    else:
        # across the plateau G-G^2 is below e^{-72}; keep the panel count bounded
        mid_width = max(4.0, (right - left - 48.0) / 50.0)
        add_range(left, left + 24.0, 1.0)
        add_range(left + 24.0, right - 24.0, mid_width)
        add_range(right - 24.0, right, 1.0)
    return SQRT_PI * panel_integrate(integrand, panels, 16)


# ---------------------------------------------------------------------------
# regime dispatch
# ---------------------------------------------------------------------------

def _tag(n: int, width: float) -> tuple[str, float]:
    x = math.sqrt(n) * width
    if x < SUBCRITICAL_X:
        return "subcritical", x
    if x <= SUPERCRITICAL_X:
        return "critical", x
    if width >= FIXED_WIDTH:
        return "fixed", x
    return "mesoscopic-supercritical", x


def count_var_prediction(n: int, window, kind: str) -> RegimeReport:
    """Predicted counting variance for the window, with the exact value attached.

    kind="radial": window = (a, b) moduli.  kind="angular": an ArcWindow or an
    arc length in radians (taken symmetric about 0).
    """
    if n < 1:
        raise ValueError("N must be >= 1")
    if kind == "radial":
        a, b = window
        tag, x = _tag(n, b - a)
        if tag == "subcritical":
            pred = n * (b * b - a * a)
        elif tag == "critical":
            pred = math.sqrt(n) * a / SQRT_PI * i_mod(x)
        else:
            pred = math.sqrt(n) * (a + b) / SQRT_PI
        exact = radial_count_var(n, a, b, Ensemble.COMPLEX)
        return RegimeReport(n=n, kind=kind, window=(a, b), regime=tag, x=x,
                            predicted=pred, exact=exact)
    if kind == "angular":
        from .angular import angular_count_var
        arc = window if isinstance(window, ArcWindow) else ArcWindow.symmetric(float(window))
        tag, x = _tag(n, arc.length)
        base = math.sqrt(n) / math.pi ** 1.5
        if tag == "subcritical":
            pred = n * arc.length / (2.0 * math.pi)
        elif tag == "critical":
            pred = base * i_arg(x)
        else:
            pred = base
        exact = angular_count_var(n, arc)
        return RegimeReport(n=n, kind=kind, window=(arc.alpha, arc.beta), regime=tag,
                            x=x, predicted=pred, exact=exact)
    raise ValueError(f"kind must be 'radial' or 'angular', got {kind!r}")


# ---------------------------------------------------------------------------
# local CLT correction
# ---------------------------------------------------------------------------

def edgeworth_density(a: float, m: int) -> float:
    """First Edgeworth correction to the standardized Gamma(M) density.

    phi(a) * [1 + kappa3/(6 sqrt M) * He3(a)] with kappa3 = 2 and
    He3(a) = a^3 - 3a; sup-error over a decays like 1/M.
    """
    if m < 2:
        raise ValueError("M must be >= 2")
    phi = math.exp(-0.5 * a * a) / math.sqrt(2.0 * math.pi)
    return phi * (1.0 + (a ** 3 - 3.0 * a) / (3.0 * math.sqrt(m)))
