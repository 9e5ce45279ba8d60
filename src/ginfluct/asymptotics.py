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
from .specfun import panel_integrate, regularized_gamma_lower

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

    Polynomials on [0, inf) differentiate themselves; callable ones must
    come with their derivative.  Windowed ones (indicators) are rejected.
    """
    def deriv(h: RadialTestFunction, supplied):
        if supplied is not None:
            return supplied
        if h.fn is None and h.window == (0.0, math.inf):
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

def i_arg(beta: float) -> float:
    """Angular critical-regime display, in closed form.  It is not the limit
    of the exact arc-count variance: that is `_g_arg`, 1.89 times this at 5.

    I(beta) = int_0^1 (1 - e^{-beta x^2})/(2 sqrt x) dx
            + beta int_0^1 [tail integral of e^{-t^2} from beta*sqrt(x)] dx
            = int_0^1 (1 - e^{-beta u^4}) du + beta sqrt(pi) int_0^1 erfc(beta v) v dv

    (u = v = sqrt x), each piece integrated by parts once:

        1 - e^{-beta} - Gamma(5/4) P(5/4, beta) / beta^{1/4}
      + (sqrt(pi)/2) beta erfc(beta) + (sqrt(pi)/4) P(3/2, beta^2) / beta.

    Integrated directly, the first piece is 1 - Gamma(1/4) P(1/4, beta) /
    (4 beta^{1/4}), whose O(1) terms cancel to leave O(beta) at small beta;
    here nothing cancels.  The value is within 3e-16 absolute of 40-digit
    quadrature for beta in [1e-4, 1e4].  Below beta = 1e-16 the series
    (1/5 + sqrt(pi)/2) beta - (13/18) beta^2 + ... has lost its beta^2 term to
    rounding, and P(5/4, beta) would fall into subnormals near 1e-245, so
    the slope alone is returned: positive, and within 1e-13 relative for
    every normal beta.
    """
    if not 0.0 < beta < math.inf:
        raise ValueError(f"beta must be positive and finite, got {beta}")
    if beta < 1e-16:
        return (0.2 + 0.5 * SQRT_PI) * beta
    return (-math.expm1(-beta)
            - math.gamma(1.25) * regularized_gamma_lower(1.25, beta) / beta ** 0.25
            + 0.5 * SQRT_PI * beta * math.erfc(beta)
            + 0.25 * SQRT_PI * regularized_gamma_lower(1.5, beta * beta) / beta)


def _g_arg(x: float) -> float:
    """Limit G of the arc-count variance over sqrt(N)/pi^{3/2} at x = sqrt(N) * length:

        G(x) = int_0^1 (1 - e^{-x^2 u})/(2 sqrt u) du + (sqrt(pi)/2) x int_0^1 erfc(x sqrt u) du
             = 1 - sqrt(pi) erf(x)/(4x) + (sqrt(pi)/2) x erfc(x) - e^{-x^2}/2.

    Its terms cancel to (sqrt(pi)/2) x at small x, so it serves the critical window only.
    """
    return (1.0 - SQRT_PI * math.erf(x) / (4.0 * x) + 0.5 * SQRT_PI * x * math.erfc(x)
            - 0.5 * math.exp(-x * x))


def i_mod(c: float) -> float:
    """Radial critical-regime scaling factor.

    sqrt(pi) int (G - G^2) dx with G(x) = Phi(x+2c) - Phi(x).  G integrates to
    2c, and F(a) = int (Phi(x+a) - Phi(x))^2 dx has F'(a) = erf(a/2), so

        i_mod(c) = 2 sqrt(pi) c erfc(c) - 2 expm1(-c^2),

    rising from 2 sqrt(pi) c to the plateau 2.  Absolute error against
    40-digit quadrature is below 2e-16 for c in [1e-3, 10].
    """
    if not 0.0 < c < math.inf:
        raise ValueError(f"c must be positive and finite, got {c}")
    return 2.0 * SQRT_PI * c * math.erfc(c) - 2.0 * math.expm1(-c * c)


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
        base = math.sqrt(n) * (a + b) / SQRT_PI
        if tag == "subcritical":
            pred = n * (b * b - a * a)
        elif tag == "critical":
            pred = 0.5 * base * i_mod(x)
        else:
            pred = base
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
            pred = base * _g_arg(x)
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
