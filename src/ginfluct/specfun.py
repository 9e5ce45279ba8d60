"""Numerically stable special functions and quadrature primitives.

Everything downstream (gamma-sum expectations, Fourier double sums, count
probabilities, normal tail integrals) reduces to the four workhorses here:
log-gamma, the regularized incomplete gamma (one scalar body for P and Q,
and one array engine, `gamma_piece_probs`, that builds the ladders of all
edges over a unit ladder of shapes in one pass), the standard normal CDF,
and Gauss-Legendre panel sums (rules by Newton iteration, no eigensolve).
Gamma ratios elsewhere are exponentiated once from `log_gamma` or its
stable half-step ratio, or (angular) stepped by exact rationals.  The exact sums over factors and eigenvalues share `_fsum`, an
exactly rounded sum that skips terms too small to move it.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "log_gamma",
    "regularized_gamma_lower",
    "regularized_gamma_upper",
    "gamma_interval_prob",
    "gamma_piece_probs",
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
    Stirling's collapsed form, as a log-gamma difference loses k ln k eps.
    The direct difference is evaluated only where k < 30."""
    out = (0.5 * np.log(k) + (k * np.log1p(0.5 / k) - 0.5)
           + _stirling_tail(k + 0.5) - _stirling_tail(k))
    if isinstance(k, np.ndarray):
        small = k < 30.0
        out[small] = log_gamma(k[small] + 0.5) - log_gamma(k[small])
    elif k < 30.0:
        out = log_gamma(k + 0.5) - log_gamma(k)
    return out


def _log_prefactor(k, x):
    """k ln x - x - ln Gamma(k) without cancellation for large k (elementwise
    over shapes k, and over a column of arguments x against them).

    The three terms grow like k ln k while their sum stays O(1) when x is
    near k, so the direct form loses ~k*eps absolute accuracy.  Substituting
    the Stirling expansion of ln Gamma(k) collapses the large parts into
    k*(log1p(t) - t) with t = x/k - 1, which is evaluated stably.  The direct
    form stays below k = 30, where all terms are modest.  Where t rounds to
    -1 the value is -inf (exp gives 0).
    """
    t = (x - k) / k
    if isinstance(k, np.ndarray):
        with np.errstate(divide="ignore"):
            out = k * (np.log1p(t) - t) + 0.5 * np.log(k) - _HALF_LOG_TWO_PI - _stirling_tail(k)
        small = k < 30.0
        out[..., small] = k[small] * np.log(x) - x - log_gamma(k[small])
        return out
    if k < 30.0:
        return k * math.log(x) - x - log_gamma(k)
    if t == -1.0:
        return -math.inf
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
    prefactor = math.exp(_log_prefactor(k, x))
    if prefactor == 0.0:
        # Q underflows.  Far out (x = 1e21, say) d * c misses 1 by an ulp on
        # every step, so the loop below would never meet its test.
        return 0.0
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
            return h * prefactor
    raise RuntimeError(f"incomplete gamma continued fraction failed to converge (k={k}, x={x})")


def regularized_gamma_lower(k: float, x: float) -> float:
    """P(k, x) = gamma(k, x)/Gamma(k), the Gamma(k) CDF at x.

    Series for x < k+1, continued fraction beyond; absolute error <= 1e-12.
    """
    return _regularized_gamma(k, x, upper=False)


def regularized_gamma_upper(k: float, x: float) -> float:
    """Q(k, x) = 1 - P(k, x), computed on whichever branch is well conditioned."""
    return _regularized_gamma(k, x, upper=True)


def _regularized_gamma(k: float, x: float, upper: bool) -> float:
    # the series gives P and the continued fraction Q; the other one is its
    # complement, clamped at 0
    if not k > 0.0:
        raise ValueError(f"shape must be positive, got {k}")
    if x < 0.0:
        raise ValueError(f"x must be nonnegative, got {x}")
    series = x < k + 1.0
    if series:
        v = _gamma_series(k, x)
    else:
        v = 0.0 if x == math.inf else _gamma_cont_fraction(k, x)
    if series == upper:
        v = max(1.0 - v, 0.0)
    return min(v, 1.0)


def gamma_interval_prob(k, lo: float, hi: float):
    """P(lo <= s <= hi) for s ~ Gamma(k): one shape, or one probability per
    shape for an array of shapes k0, k0 + 1, k0 + 2, ...; the one-piece row
    of `gamma_piece_probs`.

    The shape is an integer in the ensemble laws (Gamma(k) for the complex
    ensemble, Gamma(2k) for the quaternion one) but any real k > 0 is
    accepted; half-integer shapes arise for odd polynomial moments.
    Result is clamped to [0, 1]; hi = inf is allowed.
    """
    p = gamma_piece_probs(k, (lo, hi))[0]
    return p if np.ndim(k) else float(p[0])


def gamma_piece_probs(k, edges) -> np.ndarray:
    """P(e_i <= s <= e_{i+1}) for s ~ Gamma(k) between consecutive edges
    0 <= e_0 <= e_1 <= ... (inf allowed), one row per piece and one column
    per shape of the unit ladder k (shapes k0, k0 + 1, ...).

    At each edge x the ladder holds Q(k_i, x) for shapes k_i <= x and P(k_i, x)
    above, built by Q(k+1, x) = Q(k, x) + x^k e^-x/Gamma(k+1) (DLMF 8.8):
    cumulative sums up from the lowest shape and down from the highest, where
    each side is small, from one scalar seed each.  Every term has its own
    `_log_prefactor` (summed log ratios would drift), taken in one pass over
    all edges; neighbouring pieces share their edge's ladder, and P(k, 0) =
    Q(k, inf) = 0 need none.  Each piece is clamped to [0, 1].
    """
    a = np.array(k, dtype=float, ndmin=1)
    if a.ndim != 1 or not a.size or not a[0] > 0.0 or np.any(np.diff(a) != 1.0):
        raise ValueError(f"shapes must be positive and step by 1, got {k}")
    e = np.array(edges, dtype=float)
    if len(e) < 2 or not (e[0] >= 0.0 and np.all(e[1:] >= e[:-1])):
        raise ValueError(f"edges need 0 <= e_0 <= e_1 <= ..., got {list(edges)}")
    ladders = np.zeros((len(e), len(a)))
    live = (e > 0.0) & (e < math.inf)
    if live.any():
        x = e[live, None]
        terms = np.exp(_log_prefactor(a, x)) / a
        q_seed = [[regularized_gamma_upper(a[0], v)] for v in e[live]]
        p_seed = [[regularized_gamma_lower(a[-1], v)] for v in e[live]]
        q = np.cumsum(np.hstack([q_seed, terms[:, :-1]]), axis=1)
        p = np.cumsum(np.hstack([p_seed, terms[:, -2::-1]]), axis=1)[:, ::-1]
        ladders[live] = np.where(a <= x, q, p)
    lo, hi = e[:-1, None], e[1:, None]
    at_lo, at_hi = ladders[:-1], ladders[1:]
    p = np.where(a > hi, at_hi - at_lo, np.where(a <= lo, at_lo - at_hi, 1.0 - at_lo - at_hi))
    return np.clip(p, 0.0, 1.0)


def std_normal_cdf(x: float) -> float:
    """Phi(x) via the complementary error function; absolute error <= 1e-14."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


# a term below this share of the mean |term| can never move a sum
_SUM_CUT = 2.0 ** -60


def _fsum(terms: np.ndarray) -> float:
    """math.fsum of a 1-d float array, without the terms too small to move it.

    Terms with |t| < 2^-60 sum|t| / len are skipped (Higham's running-error
    argument, as for the angular C_d stop): together they are under
    2^-60 sum|t|, below 1/128 of the 2^-53 sum|t| that the terms' own
    roundings already span.  The rest is summed exactly rounded, and fsum
    keeps far fewer partials than over terms spanning 1e-300 to 1.
    Non-finite input (or a sum of |t| that overflows) sums everything, so
    NaN and inf propagate as in fsum.
    """
    mag = np.abs(terms)
    with np.errstate(over="ignore"):
        total = float(mag.sum())
    if terms.size and math.isfinite(total):
        terms = terms[mag >= _SUM_CUT * total / terms.size]
    return math.fsum(terms.tolist())


def _legendre_p(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) for |x| < 1 by the three-term recurrence."""
    p0, p1 = np.ones_like(x), x
    for k in range(2, n + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    return p1, n * (x * p1 - p0) / (x * x - 1.0)


# Newton on P_n stops once no node moves by more than this (a few ulps of 1),
# from where one more step lands at rounding; the cap keeps the loop finite
_NEWTON_TOL = 4.0 * np.finfo(float).eps
_NEWTON_CAP = 10


@lru_cache(maxsize=512)
def _reference_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only n-point Gauss-Legendre nodes and weights on [-1, 1].

    Newton iteration on P_n from Tricomi's asymptotic nodes
    (1 - 1/(8n^2) + 1/(8n^3)) cos(pi (4k - 1)/(4n + 2)), each step O(n) per
    node by the three-term recurrence, so the rule costs O(n^2) (Hale and
    Townsend, SIAM J. Sci. Comput. 35 (2013)); each n is built once per
    process, and the package asks for two (320 for the radial factors, 96
    for the smooth radial limit).  Only the nonnegative half is iterated
    (an odd n's middle node is exactly 0, where P_n vanishes) and mirrored,
    so x[::-1] == -x and w[::-1] == w hold bitwise.  Once the steps are at
    rounding level, the last one also carries P_n' to the new nodes by P_n''
    from Legendre's equation, and the weights are 2/((1 - x^2) P_n'(x)^2)
    there.
    """
    k = np.arange(1.0, (n + 1) // 2 + 1.0)
    x = (1.0 - 1.0 / (8.0 * n * n) + 1.0 / (8.0 * n ** 3)) * np.cos(
        math.pi * (4.0 * k - 1.0) / (4.0 * n + 2.0))
    if n % 2:
        x[-1] = 0.0
    p, dp = _legendre_p(n, x)
    step = -p / dp
    for _ in range(_NEWTON_CAP):
        if np.max(np.abs(step)) <= _NEWTON_TOL:
            break
        x = x + step
        p, dp = _legendre_p(n, x)
        step = -p / dp
    ddp = (2.0 * x * dp - n * (n + 1) * p) / (1.0 - x * x)
    x, dp = x + step, dp + ddp * step
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    # the descending half, mirrored into the ascending rule (0 only once)
    x = np.concatenate([-x[:n // 2], x[::-1]])
    w = np.concatenate([w[:n // 2], w[::-1]])
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def legendre_rule(n: int, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [lo, hi];
    exact for degree <= 2n-1."""
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got {n}")
    if not hi > lo:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    x, w = _reference_rule(n)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    return mid + half * x, half * w


def panel_integrate(fn, panels, nodes: int) -> float:
    """Sum of `nodes`-point Gauss-Legendre integrals of fn over (lo, hi)
    panels, skipping empty ones; every quadrature in the package is one."""
    total = 0.0
    for lo, hi in panels:
        if hi <= lo:
            continue
        x, w = legendre_rule(nodes, lo, hi)
        total += float(fn(x) @ w)
    return total
