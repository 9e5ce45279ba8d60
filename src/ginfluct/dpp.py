"""Counting statistics through the projection-operator route.

Restricting the planar kernel to a region A gives a self-adjoint operator
with spectrum in [0, 1]; the count in A is then a sum of independent
Bernoulli(p_j) over its eigenvalues p_j (Hough-Krishnapur-Peres-Virag).
The builders return the operator as a plain array.  The annulus one is
diagonal in the monomial basis phi_l, so `gram_annulus` returns its diagonal
(the p_j themselves).  `gram_sector` returns the real symmetric sector
matrix R in the basis e^{i l c} phi_l rotated to the arc's midpoint c; the
monomial-basis matrix is D R D* with D = diag(e^{-i l c}), a unitary
similarity, so the spectrum is the same and one real eigensolve finds it.
`cumulants_from_gram` reads a 1-d array as the p_j and diagonalizes a 2-d
one.  Count cumulants are sums of per-eigenvalue Bernoulli cumulants,

    C_n = sum_j kappa_n(p_j),   kappa_{n+1} = p(1-p) d kappa_n/dp,

each evaluated as (1-2p)^[n odd] P_n(v) with v = p(1-p) and integer
polynomials P_n, so no high-order cancellation enters.  Each sum over j is
exactly rounded over the terms at or above 2^-60 sum|t| / N; the rest total
under 1/128 of one rounding of the kept terms.  The sector route
shares only `log_gamma` with the angular module, so it checks that module
independently; the annulus diagonal is the radial module's count probabilities, so
annulus agreement with the radial module is an identity, not a check.
The quaternion radial counts pass their count probabilities as the diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .angular import ArcWindow
from .radial import count_probabilities
from .specfun import _fsum, log_gamma

__all__ = [
    "CumulantSet",
    "CltReport",
    "gram_annulus",
    "gram_sector",
    "cumulants_from_gram",
    "clt_certificate",
]

MAX_ORDER = 12
# largest sector N: the matrix holds N^2 float64 entries (128 MB at 4096)
MAX_SECTOR_N = 4096


@dataclass(frozen=True)
class CumulantSet:
    """Cluster integrals U_1..U_nmax and count cumulants C_1..C_nmax."""

    n_max: int
    u: tuple[float, ...]
    c: tuple[float, ...]

    def cumulant(self, n: int) -> float:
        if not 1 <= n <= self.n_max:
            raise ValueError(f"order {n} outside 1..{self.n_max}")
        return self.c[n - 1]

    def cluster(self, k: int) -> float:
        if not 1 <= k <= self.n_max:
            raise ValueError(f"order {k} outside 1..{self.n_max}")
        return self.u[k - 1]


# ---------------------------------------------------------------------------
# operators for the two window families
# ---------------------------------------------------------------------------

def gram_annulus(n: int, a: float, b: float) -> np.ndarray:
    """Annulus a <= |z| <= b: the operator is diagonal, so this is its
    diagonal, the modulus count probabilities of `radial.count_probabilities`."""
    return count_probabilities(n, a, b)


def gram_sector(n: int, arc: ArcWindow) -> np.ndarray:
    """Sector alpha <= arg z <= beta: the real symmetric N x N matrix
    R_{lm} = Gamma((l+m)/2 + 1)/sqrt(l! m!) * sin((l - m) L/2)/(pi (l - m)),
    L/2pi on the diagonal, its radial factor in log space from two `log_gamma`
    vectors.  It is the operator in the basis e^{i l c} phi_l, c the arc's
    midpoint: the arc indicator's coefficient (1/2pi) int_alpha^beta
    e^{-i d theta} dtheta is e^{-i d c} sin(d L/2)/(pi d), so the monomial-basis
    matrix is D R D* with D = diag(e^{-i l c}).  R depends on the arc only
    through its length; two arcs' relative position enters Tr(G_A G_B) as
    cos((l - m)(c_A - c_B)).  The full circle is the identity, exactly.
    """
    if not 1 <= n <= MAX_SECTOR_N:
        raise ValueError(f"N must be in 1..{MAX_SECTOR_N} for a sector matrix, got {n}")
    if arc.length >= 2.0 * math.pi:
        # sin(d pi) rounds to ~1e-16 off the diagonal, which eigvalsh turns
        # into a C_2 of ~1e-14 for a count that does not fluctuate
        return np.eye(n)
    lgf = log_gamma(np.arange(1.0, n + 1.0))               # ln l!
    lgh = log_gamma(0.5 * np.arange(2.0 * n - 1.0) + 1.0)   # ln Gamma(s/2 + 1)
    # Hankel lgh[l + m] and Toeplitz s(l - m) as windows on their vectors
    hankel = np.lib.stride_tricks.sliding_window_view(lgh, n)
    r = np.exp(hankel - 0.5 * (lgf[:, None] + lgf[None, :]))
    d = np.arange(1.0, n)
    s = np.sin(d * (0.5 * arc.length)) / (math.pi * d)
    svals = np.concatenate((s[::-1], [arc.length / (2.0 * math.pi)], s))
    r *= np.lib.stride_tricks.sliding_window_view(svals, n)[:, ::-1]
    return r


# ---------------------------------------------------------------------------
# cumulants
# ---------------------------------------------------------------------------

def _bernoulli_cumulant_polys(n_max: int) -> dict[int, tuple[int, ...]]:
    """Coefficients (lowest degree first) of P_2..P_nmax, where the n-th
    cumulant of Bernoulli(p) is (1-2p)^[n odd] P_n(v), v = p(1-p).

    From kappa_{n+1} = v d kappa_n/dp with dv/dp = 1-2p, (1-2p)^2 = 1-4v:
    P_{n+1} = v P_n' for even n and v (1-4v) P_n' - 2v P_n for odd n.
    """
    polys = {2: (0, 1)}
    for nn in range(2, n_max):
        c = polys[nn]
        dc = [k * c[k] for k in range(1, len(c))]       # P_n'
        nxt = [0] + dc + [0]                             # v P_n'
        if nn % 2:
            for k, d in enumerate(dc):
                nxt[k + 2] -= 4 * d
            for k, ck in enumerate(c):
                nxt[k + 1] -= 2 * ck
        while nxt[-1] == 0:
            nxt.pop()
        polys[nn + 1] = tuple(nxt)
    return polys


_POLYS = _bernoulli_cumulant_polys(MAX_ORDER)
_BOUND_FACTORS = (1, 7, 49, 391, 3601, 37927, 451249, 5995591, 88073041,
                  1418137447, 24846302449)


def cumulants_from_gram(g, n_max: int) -> CumulantSet:
    """Count cumulants C_1..C_nmax of the region count whose operator is g: a
    1-d g holds a diagonal operator's entries, the Bernoulli probabilities
    p_j; a 2-d g is a Hermitian matrix, whose eigenvalues are the p_j.

    The cluster integrals are U_k = (-1)^(k-1) (k-1)! sum_j p_j^k.  Every sum
    over j is `specfun._fsum`: exactly rounded, without the terms below
    2^-60 sum|t| / N, which together stay under 2^-60 sum|t|."""
    if not 1 <= n_max <= MAX_ORDER:
        raise ValueError(f"n_max must be in 1..{MAX_ORDER}, got {n_max}")
    g = np.asarray(g)
    if g.ndim == 2:
        # a compression of a projection: the spectrum lies in [0, 1] up to rounding
        g = np.clip(np.linalg.eigvalsh(g), 0.0, 1.0)
    elif g.ndim != 1:
        raise ValueError(f"operator must be a 1-d diagonal or a 2-d matrix, got shape {g.shape}")
    p = np.asarray(g, dtype=float)
    if len(p) == 0 or not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValueError("probabilities must be a nonempty sequence in [0, 1]")
    v = p * (1.0 - p)
    skew = 1.0 - 2.0 * p
    c = [_fsum(p)]
    for nn in range(2, n_max + 1):
        acc = np.polyval(_POLYS[nn][::-1], v)
        c.append(_fsum(skew * acc if nn % 2 else acc))
    u = []
    power = np.ones_like(p)
    for k in range(1, n_max + 1):
        power = power * p
        u.append((-1.0) ** (k - 1) * math.factorial(k - 1) * _fsum(power))
    return CumulantSet(n_max=n_max, u=tuple(u), c=tuple(c))


def cumulant_bound_factor(n: int) -> float:
    """B_n with |C_n| <= B_n * C_2 for any Bernoulli-sum count, from the
    Stirling expansion: B_n = sum_{k=2}^n S(n,k) (k-1)! (k-1)."""
    if not 2 <= n <= MAX_ORDER:
        raise ValueError(f"order must be in 2..{MAX_ORDER}, got {n}")
    return float(_BOUND_FACTORS[n - 2])


@dataclass(frozen=True)
class CltReport:
    n_max: int
    variance: float
    normalized: tuple[float, ...] = field(default=())   # C_n / C_2^{n/2}, n = 3..n_max
    bound_witness: float = 0.0                          # max |C_n| / (B_n C_2) <= 1
    tolerance: float = 0.1
    certified: bool = False


def clt_certificate(cs: CumulantSet, tolerance: float = 0.1) -> CltReport:
    """Normalized cumulants and the linear-in-variance bound witness.

    Deterministic counts (C_2 = 0) carry no normalization and are rejected,
    as is a tolerance outside (0, inf).
    """
    if not 0.0 < tolerance < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tolerance}")
    c2 = cs.cumulant(2)
    if c2 <= 0.0:
        raise ValueError("C_2 is zero: deterministic count, nothing to certify")
    normalized = tuple(cs.cumulant(nn) / c2 ** (0.5 * nn)
                       for nn in range(3, cs.n_max + 1))
    witness = 0.0
    for nn in range(3, cs.n_max + 1):
        witness = max(witness, abs(cs.cumulant(nn)) / (cumulant_bound_factor(nn) * c2))
    certified = all(abs(v) <= tolerance for v in normalized)
    return CltReport(n_max=cs.n_max, variance=c2, normalized=normalized,
                     bound_witness=witness, tolerance=tolerance, certified=certified)
