"""Exact finite-N covariances for statistics of the eigenvalue arguments.

Conventions (fixed by the brute-force determinantal quadrature oracle in the
test suite): angles are physical radians on [-pi, pi]; the circle carries the
normalized measure dtheta/(2pi); Fourier coefficients are
fhat(k) = (1/2pi) int e^{-ik theta} f(theta) dtheta, and for phi = f * g~
(g~(theta) = g(-theta)) one has phihat(k) = fhat(k) ghat(-k), phi(0) = sum_k
phihat(k).

The exact covariance is  N phi(0) - sum_{0<=k,l<N} Gamma((k+l)/2+1)^2
phihat(k-l) / (k! l!), summed along each diagonal d = |k-l|: the diagonal
sums C_d come from a two-term recurrence in d.  Regrouping the double sum
along k+l gives the C_l kernel decomposition, read off the diagonals
themselves with factors taken by exact rational steps, so it is a second
evaluation of the same sum.  Counting statistics feed arc-indicator
coefficients through the same C_d row (their infinite Fourier tail enters
only via phi(0), which is known in closed form, so counts are exact).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .specfun import _half_step_log_ratio, _stirling_tail

__all__ = [
    "FourierStatistic",
    "ConvolvedStatistic",
    "ArcWindow",
    "DecomposedCovariance",
    "angular_cov_exact",
    "angular_cov_decomposed",
    "angular_count_var",
    "angular_count_cov",
    "kernel_c_eval",
    "kernel_c_fourier",
    "read_fourier_file",
    "write_fourier_file",
]

MAX_BAND = 4096
# largest N the exact covariances admit.  The C_d row costs O(sqrt(N)), so
# the cap is for accuracy: N phi(0) - sum_d C_d phihat(d) cancels, and a
# count's relative error grows like sqrt(N) eps
MAX_N = 10 ** 6

# the diagonal sums C_d stop below this fraction of N (see `_row_sums`)
STOP_FRACTION = 2.0 ** -60


# ---------------------------------------------------------------------------
# Gamma ratios by exact rational steps
#
# Every factor of the double sum and of the kernel is t(j, d) =
# Gamma(j + d/2 + 1)^2 / ((j + d)! j!) <= 1; the decomposition reads the
# diagonals t(., d) themselves.  Gamma(z + 1) = z Gamma(z) makes
# t(j, d) / t(j, d - 2) = (j + d/2)^2 / ((j + d - 1)(j + d)) an exact rational,
# so every t follows from t(j, 0) = 1 and t(j, 1) by rounded products, with no
# difference of large log-gamma values: each step multiplies by the exact
# square (j + d/2)^2, then by 1/((j + d - 1)(j + d)) from a table of rounded
# reciprocals, so a diagonal costs two in-place products and no division.
# ---------------------------------------------------------------------------

# t(j, 1) = pi m binom(2m, m)^2 / 16^m for m = j + 1 < 30, the rational part
# exactly rounded by integer division
_T1_HEAD = math.pi * np.array([m * math.comb(2 * m, m) ** 2 / 16 ** m for m in range(1, 30)])


def _t1(j):
    """t(j, 1) = (Gamma(j + 3/2) / Gamma(j + 1))^2 / (j + 1), elementwise over
    integers j >= 0.  From m = j + 1 = 30 on, Stirling's series collapses it to
    exp(2m log1p(1/2m) - 1 + 2 S(m + 1/2) - 2 S(m)): the exponent is O(1/m), so
    no logarithm of size ln m is exponentiated.  Below, the exact head."""
    m = j + 1.0
    out = np.exp(2.0 * (m * np.log1p(0.5 / m) - 0.5)
                 + 2.0 * (_stirling_tail(m + 0.5) - _stirling_tail(m)))
    if isinstance(j, np.ndarray):
        head = j < 29
        out[head] = _T1_HEAD[j[head].astype(int)]
    elif j < 29:
        out = _T1_HEAD[int(j)]
    return out


def _diagonals(n: int):
    """Yield t(j, d) for j < n - floor(d/2), for d = 0, 1, ..., 2n - 1.

    Each parity's diagonal is stepped in place, so a yielded array is valid
    only until the next diagonal of its parity: read it before advancing.
    """
    u = np.arange(2.0 * n + 2.0)
    # (j + d/2)^2 at index j + floor(d/2): (j + e)^2 for d = 2e, (j + e + 1/2)^2
    # for d = 2e + 1, one contiguous table per parity
    e = np.arange(n + 1.0)
    squares = (e ** 2, (e + 0.5) ** 2)
    last = (np.ones(n), _t1(u[:n]))     # the latest even and odd diagonals
    # then u becomes 1/((j + d - 1)(j + d)) at index j + d, in place; entries
    # 0 and 1 are never read
    inv_pairs = u
    inv_pairs *= u - 1.0
    np.reciprocal(inv_pairs[2:], out=inv_pairs[2:])
    for d in range(2 * n):
        t = last[d % 2][:n - d // 2]
        if d >= 2:
            t *= squares[d % 2][d // 2:n]
            t *= inv_pairs[d:d + len(t)]
        yield t


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FourierStatistic:
    """Band-limited test function of the angle, stored as fhat(-K..K)."""

    coeffs: np.ndarray  # complex, length 2K+1, index k+K
    real: bool = True

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 1 or len(c) % 2 != 1:
            raise ValueError("coefficient array must have odd length 2K+1")
        if self.band > MAX_BAND:
            raise ValueError(f"band {self.band} exceeds the supported maximum {MAX_BAND}")
        object.__setattr__(self, "coeffs", c)
        if self.real:
            sym = np.conj(c[::-1])
            if not np.allclose(c, sym, rtol=0.0, atol=1e-12 * (1.0 + np.abs(c).max())):
                raise ValueError("real statistic requires fhat(-k) = conj(fhat(k))")

    @property
    def band(self) -> int:
        return (len(self.coeffs) - 1) // 2

    def get(self, k: int) -> complex:
        if abs(k) > self.band:
            return 0.0 + 0.0j
        return complex(self.coeffs[k + self.band])

    @classmethod
    def from_dict(cls, d: dict[int, complex], real: bool = True) -> "FourierStatistic":
        if not d:
            return cls(coeffs=np.zeros(1, dtype=complex), real=real)
        band = max(abs(k) for k in d)
        c = np.zeros(2 * band + 1, dtype=complex)
        for k, v in d.items():
            c[k + band] = v
        return cls(coeffs=c, real=real)

    @classmethod
    def constant(cls, value: float) -> "FourierStatistic":
        return cls.from_dict({0: complex(value)})

    @classmethod
    def cosine(cls, k: int, amplitude: float = 1.0) -> "FourierStatistic":
        """amplitude * cos(k theta)"""
        if k == 0:
            return cls.constant(amplitude)
        return cls.from_dict({k: amplitude / 2.0, -k: amplitude / 2.0})

    @classmethod
    def sine(cls, k: int, amplitude: float = 1.0) -> "FourierStatistic":
        """amplitude * sin(k theta)"""
        if k == 0:
            return cls.constant(0.0)
        return cls.from_dict({k: -0.5j * amplitude, -k: 0.5j * amplitude})

    def conjugate(self) -> "FourierStatistic":
        """Coefficients of conj(f); equals f itself for real statistics."""
        return FourierStatistic(coeffs=np.conj(self.coeffs[::-1]), real=self.real)

    def evaluate(self, theta: np.ndarray) -> np.ndarray:
        """sum_k fhat(k) e^{ik theta} = e^{-iK theta} sum_j fhat(j - K) z^j with
        z = e^{i theta}: Horner in place, so an angle batch costs two complex
        arrays of its shape at any band."""
        theta = np.asarray(theta, dtype=float)
        z = np.empty(theta.shape, dtype=complex)
        np.cos(theta, out=z.real)
        np.sin(theta, out=z.imag)
        out = np.full(theta.shape, self.coeffs[-1])
        for c in self.coeffs[-2::-1]:
            out *= z
            out += c
        np.multiply(theta, -self.band, out=z.real)  # z becomes e^{-iK theta}
        np.sin(z.real, out=z.imag)
        np.cos(z.real, out=z.real)
        out *= z
        return out.real if self.real else out


@dataclass(frozen=True)
class ConvolvedStatistic:
    """phi = f * g~ for a band-limited pair: phihat(k) = fhat(k) ghat(-k)."""

    phat: np.ndarray  # complex, length 2K+1
    real_pair: bool

    @classmethod
    def from_pair(cls, f: FourierStatistic, g: FourierStatistic) -> "ConvolvedStatistic":
        # phihat vanishes outside the narrower band; inside it, one product
        band, m = max(f.band, g.band), min(f.band, g.band)
        phat = np.zeros(2 * band + 1, dtype=complex)
        phat[band - m:band + m + 1] = (f.coeffs[f.band - m:f.band + m + 1]
                                       * g.coeffs[::-1][g.band - m:g.band + m + 1])
        return cls(phat=phat, real_pair=f.real and g.real)

    @property
    def band(self) -> int:
        return (len(self.phat) - 1) // 2

    def get(self, k: int) -> complex:
        if abs(k) > self.band:
            return 0.0 + 0.0j
        return complex(self.phat[k + self.band])

    @property
    def phi0(self) -> complex:
        return complex(self.phat.sum())

    def folded(self) -> np.ndarray:
        """phihat(0), then phihat(d) + phihat(-d) for d = 1..band."""
        out = self.phat[self.band:].copy()
        out[1:] += self.phat[:self.band][::-1]
        return out


@dataclass(frozen=True)
class ArcWindow:
    """Arc [alpha, beta] of the circle, alpha < beta, both in [-pi, pi]."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (-math.pi <= self.alpha < self.beta <= math.pi):
            raise ValueError(
                f"arc needs -pi <= alpha < beta <= pi, got [{self.alpha}, {self.beta}]")

    @classmethod
    def symmetric(cls, length: float) -> "ArcWindow":
        return cls(alpha=-0.5 * length, beta=0.5 * length)

    @property
    def length(self) -> float:
        return self.beta - self.alpha

    def fourier(self, d):
        """what(d) = q e^{-i d m} sinc(d q) of the arc indicator in the
        normalized convention, with q = L/2pi, m the arc's midpoint and
        sinc(x) = sin(pi x)/(pi x); d is an integer or an integer array."""
        q = self.length / (2.0 * math.pi)
        m = 0.5 * (self.alpha + self.beta)
        return q * np.exp(-1j * m * d) * np.sinc(d * q)


# ---------------------------------------------------------------------------
# the C_l kernel
# ---------------------------------------------------------------------------

def kernel_c_eval(ell: int, theta):
    """C_l(theta) = a(l) cos^{2l} + b(l) cos^{2l+1}.

    a(l) = 4^l (l!)^2/(2l)! and b(l) = 2^{2l+1} Gamma(l+3/2)^2/(2l+1)! are, by
    Legendre's duplication formula, sqrt(pi) Gamma(l+1)/Gamma(l+1/2) and
    sqrt(pi) Gamma(l+3/2)/Gamma(l+1): one stable half-step ratio each.
    """
    if ell < 0 or ell > 10 ** 6:
        raise ValueError(f"l out of range: {ell}")
    la, lb = _half_step_log_ratio(np.array([ell + 0.5, ell + 1.0]))
    c = np.cos(np.asarray(theta, dtype=float))
    val = math.sqrt(math.pi) * (math.exp(la) * c ** (2 * ell) + math.exp(lb) * c ** (2 * ell + 1))
    return float(val) if np.isscalar(theta) else val


def kernel_c_fourier(ell: int, k: int) -> float:
    """Chat_l(k): even in k, zero outside |k| <= 2l+1."""
    if ell < 0:
        raise ValueError("l must be nonnegative")
    k = abs(int(k))
    if k > 2 * ell + 1:
        return 0.0
    return float(_chat_row(ell, k)[k])


def _chat_row(ell: int, kmax: int) -> np.ndarray:
    """Chat_l(k) = t(l - floor(k/2), k) for k = 0..kmax: products of the ratios
    (l-m+1)/(l+m) from 1 along even k = 2m, and (l-m+1)/(l+m+1) from t(l, 1)
    along odd k = 2m+1."""
    kmax = min(kmax, 2 * ell + 1)
    m = np.arange(1.0, kmax // 2 + 1.0)
    out = np.empty(kmax + 1)
    out[0::2] = np.cumprod(np.concatenate(([1.0], (ell + 1.0 - m) / (ell + m))))
    odd = np.cumprod(np.concatenate(([_t1(ell)], (ell + 1.0 - m) / (ell + 1.0 + m))))
    out[1::2] = odd[:(kmax + 1) // 2]
    return out


# ---------------------------------------------------------------------------
# exact covariance: the Fourier double sum, evaluated per diagonal sum C_d
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4)
def _row_sums(n: int) -> np.ndarray:
    """C_d = sum_{j<n-d} t(j, d) for d = 0..n-1, zero past the first C_d
    below STOP_FRACTION * n; cached per n.

    t is hypergeometric in both j and d, so its definite sum obeys a
    recurrence in d (creative telescoping).  Two exact Gamma steps,
    (j + 1)(j + d + 1) t(j + 1, d) = (j + d/2 + 1)^2 t(j, d) and
    (j + d + 2) t(j, d + 2) = (j + 1) t(j + 1, d), summed over j < n - d with
    sum_j j t(j, d) eliminated, give

        d^2 C_{d+2} = (d + 2)^2 C_d - tau_d (4(d + 1) n - 4d - 3d^2),

    tau_d = t(n - 1 - d, d) the top entry of diagonal d.  Run backward from
    C_d = 0 at d >= n, it is C_d = d^2 sum_{e >= d, e = d mod 2, e < n} g_e
    with g_e = tau_e (4(e + 1) n - 4e - 3e^2) / (e (e + 2))^2 > 0, and
    C_0 = n: a sum of positive terms, taken smallest first, so nothing
    cancels.  tau_0 = 1, tau_1 = t(n - 2, 1), and tau_{e+2} = tau_e
    (n - e - 1)(n - e - 2) / (n - e/2 - 1)^2, one rounded exact ratio per
    step.  That ratio is below exp(-(e + 1)/n), so tau_e < exp(-(e^2 - 1)/4n)
    is below the smallest double from e = 55 sqrt(n) on: the sums need e only
    below min(n, 56 sqrt(n)), and the row costs O(sqrt(n)).

    C_d strictly decreases in d.  On even steps every t(j, d) falls by the
    rational ratio (j + d/2)^2 / ((j + d - 1)(j + d)) < 1; on odd steps
    Gamma(x + 1/2) / Gamma(x) < sqrt(x) at x = j + d/2 + 1/2 gives
    t(j, d) / t(j, d - 1) < x / (j + d) <= 1; and the j-range shrinks as d
    grows.  So every dropped C_d is below 2^-60 n, and the dropped tail of
    sum_d C_d phihat(d) is below 2^-60 n sum_d |folded(d)|: 1/128 of one
    rounding (2^-53) of the n phihat(d) terms that N phi(0) already sums.
    The stop lies near 12 sqrt(n) and below 13 sqrt(n): C_d / n falls about
    like exp(-d^2 / 4n), and the bound is checked for n <= 400 and at
    n = 10^3 .. 2.5 10^5.
    """
    m = min(n, 56 * (math.isqrt(n) + 1))  # past 55 sqrt(n), tau underflows
    e = np.arange(float(m))
    tau = np.empty(m)
    tau[0::2] = 1.0
    if m > 1:
        tau[1::2] = _t1(n - 2)
        f = e[:-2]
        ratio = (n - 1.0 - f) * (n - 2.0 - f) / (n - 1.0 - 0.5 * f) ** 2
        for p in (0, 1):
            tau[p + 2::2] *= np.cumprod(ratio[p::2])
    e1 = e[1:]
    g = tau[1:] * (4.0 * (e1 + 1.0) * n - 4.0 * e1 - 3.0 * e1 ** 2) / (e1 * (e1 + 2.0)) ** 2
    row = np.empty(m)
    row[0] = n
    for p in (1, 2):
        row[p::2] = e[p::2] ** 2 * np.cumsum(g[p - 1::2][::-1])[::-1]
    out = np.zeros(n)
    below = np.flatnonzero(row < STOP_FRACTION * n)
    kept = below[0] + 1 if len(below) else m
    out[:kept] = row[:kept]
    return out


def _check_n(n: int) -> None:
    # before any allocation; the cap is for accuracy (see MAX_N)
    if not 1 <= n <= MAX_N:
        raise ValueError(f"N must be in 1..{MAX_N}, got {n}")


def _finite_or_raise(x, what: str) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise RuntimeError(f"internal defect: non-finite {what}")
    return x


def angular_cov_exact(f: FourierStatistic, g: FourierStatistic, n: int):
    """Cov(X(f), X(g)) = N phi(0) - sum_{|d|<N} C_|d| phihat(d), summed
    over the folded phihat(d) + phihat(-d); real when both statistics are
    real-valued."""
    _check_n(n)
    phi = ConvolvedStatistic.from_pair(f, g)
    folded = phi.folded()[:n]
    cd = _row_sums(n)[:len(folded)]
    total = n * phi.phi0 - cd[0] * folded[0] - cd[1:] @ folded[1:]
    if phi.real_pair:
        return _finite_or_raise(total.real, "angular covariance")
    _finite_or_raise(abs(total), "angular covariance")
    return complex(total)


class DecomposedCovariance(NamedTuple):
    main: float
    correction: float

    @property
    def total(self) -> float:
        return self.main + self.correction


def angular_cov_decomposed(f: FourierStatistic, g: FourierStatistic, n: int) -> DecomposedCovariance:
    """Kernel form of the covariance.

    main = N phi(0) - sum_{l<N} (C_l * phi)(0); the correction restores the
    band edges the regrouping over-counts: for each l, Fourier modes with
    |k| > 2N - 2l - 2 (nonempty once l >= floor(N/2)) re-enter with a plus
    sign.  Row l of the kernel holds t(l - floor(d/2), d) at |k| = d, so both
    parts are read off the diagonals t(., d) for d <= min(band, 2N - 1): main
    takes all j < N - floor(d/2), the correction the j >= N - d part, and
    main + correction reproduces the double sum to rounding error at any N.
    """
    _check_n(n)
    phi = ConvolvedStatistic.from_pair(f, g)
    if not phi.real_pair:
        raise ValueError("decomposition is reported for real statistic pairs")
    folded = phi.folded().real
    conv_sum = 0.0
    corr = 0.0
    for d, t in zip(range(min(phi.band, 2 * n - 1) + 1), _diagonals(n)):
        conv_sum += folded[d] * t.sum()
        corr += folded[d] * t[max(n - d, 0):].sum()
    main = n * phi.phi0.real - conv_sum
    return DecomposedCovariance(main=_finite_or_raise(main, "decomposed main"),
                                correction=_finite_or_raise(corr, "decomposed correction"))


# ---------------------------------------------------------------------------
# counting statistics (exact: the tail enters only through phi(0))
# ---------------------------------------------------------------------------

def angular_count_var(n: int, arc: ArcWindow) -> float:
    """Var #{angles in arc}: the covariance of the arc with itself, which
    depends on the arc only through its length."""
    return angular_count_cov(n, arc, arc)


def angular_count_cov(n: int, arc1: ArcWindow, arc2: ArcWindow) -> float:
    """Cov(#arc1, #arc2) via phi = 1_{arc1} * 1~_{arc2}.

    phi(0) is the overlap over 2pi, phihat(0) = q1 q2 (q = L/2pi), and
    phihat(d) + phihat(-d) = 2 Re(what1(d) conj(what2(d))) = 2 q1 q2 sinc(d q1)
    sinc(d q2) cos(d D) = 2 sin(d L1/2) sin(d L2/2) cos(d D) / (pi d)^2, with
    D the difference of the two midpoints: real, and needed only up to the
    stop of the C_d row.  A full circle counts all N points, so it has no
    covariance with anything.
    """
    _check_n(n)
    q1, q2 = arc1.length / (2.0 * math.pi), arc2.length / (2.0 * math.pi)
    if q1 >= 1.0 or q2 >= 1.0:
        return 0.0
    overlap = max(0.0, min(arc1.beta, arc2.beta) - max(arc1.alpha, arc2.alpha))
    cd = _row_sums(n)
    d = np.arange(1.0, np.count_nonzero(cd))  # C_d is zero past the stop
    shift = 0.5 * (arc1.alpha + arc1.beta) - 0.5 * (arc2.alpha + arc2.beta)
    folded = (2.0 * np.sin(d * (0.5 * arc1.length)) * np.sin(d * (0.5 * arc2.length))
              * np.cos(d * shift) / (math.pi * d) ** 2)
    total = n * (overlap / (2.0 * math.pi)) - cd[0] * (q1 * q2) - cd[1:len(d) + 1] @ folded
    return _finite_or_raise(total, "angular count covariance")


# ---------------------------------------------------------------------------
# Fourier coefficient files: one line per mode, "k re im"
# ---------------------------------------------------------------------------

def write_fourier_file(path, f: FourierStatistic) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for k in range(-f.band, f.band + 1):
            v = f.get(k)
            fh.write(f"{k} {v.real!r} {v.imag!r}\n")


def read_fourier_file(path, real: bool = True) -> FourierStatistic:
    coeffs: dict[int, complex] = {}
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 'k re im', got {line!r}")
            try:
                k = int(parts[0])
                v = complex(float(parts[1]), float(parts[2]))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: unparsable numbers") from exc
            if k in coeffs:
                raise ValueError(f"{path}:{lineno}: duplicate mode k={k}")
            coeffs[k] = v
    return FourierStatistic.from_dict(coeffs, real=real)
