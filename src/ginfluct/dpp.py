"""Counting statistics through the projection-operator route.

Restricting the planar kernel to a region A gives a self-adjoint operator
with spectrum in [0, 1]; the count in A is then a sum of independent
Bernoulli(p_j) over its eigenvalues p_j (Hough-Krishnapur-Peres-Virag).
For annuli the Gram matrix in the monomial basis is diagonal
(incomplete-gamma entries, read off as the p_j); for sectors it is a
Hermitian matrix with closed-form entries, diagonalized once.  Count
cumulants are sums of per-eigenvalue Bernoulli cumulants,

    C_n = sum_j kappa_n(p_j),   kappa_{n+1} = p(1-p) d kappa_n/dp,

each evaluated as (1-2p)^[n odd] P_n(v) with v = p(1-p) and integer
polynomials P_n, so no high-order cancellation enters.  For sectors the
route is an independent cross-check of the angular module, with which it
shares only `log_gamma` and `ArcWindow.fourier`; the annulus
diagonal is the radial module's count probabilities, so annulus agreement
with the radial module is an identity, not a check.  The same
engine with plain probability sequences covers the quaternion radial
counts, whose moduli are independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .angular import ArcWindow
from .radial import count_probabilities
from .specfun import log_gamma

__all__ = [
    "GramOperator",
    "CumulantSet",
    "CltReport",
    "gram_annulus",
    "gram_sector",
    "cumulants_from_gram",
    "cumulants_permanental",
    "clt_certificate",
]

MAX_ORDER = 12


@dataclass(frozen=True)
class GramOperator:
    """Region-restricted projection in the monomial basis."""

    n: int
    structure: str                      # "diagonal" | "sector"
    diag: np.ndarray | None = None      # real probabilities, diagonal case
    matrix: np.ndarray | None = None    # Hermitian, sector case

    def __post_init__(self) -> None:
        if self.structure == "diagonal":
            if self.diag is None or len(self.diag) != self.n:
                raise ValueError("diagonal operator needs a length-N diag")
        elif self.structure == "sector":
            if self.matrix is None or self.matrix.shape != (self.n, self.n):
                raise ValueError("sector operator needs an N x N matrix")
        else:
            raise ValueError(f"unknown structure {self.structure!r}")

    def trace(self) -> float:
        if self.structure == "diagonal":
            return float(np.sum(self.diag))
        return math.fsum(np.diagonal(self.matrix).real)

    def eigenvalues(self) -> np.ndarray:
        if self.structure == "diagonal":
            return np.sort(np.asarray(self.diag, dtype=float))
        return np.linalg.eigvalsh(self.matrix)


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

def gram_annulus(n: int, a: float, b: float) -> GramOperator:
    """Annulus a <= |z| <= b: diagonal, its entries the modulus count
    probabilities of `radial.count_probabilities`."""
    return GramOperator(n=n, structure="diagonal", diag=count_probabilities(n, a, b))


def gram_sector(n: int, arc: ArcWindow) -> GramOperator:
    """Sector alpha <= arg z <= beta: Hermitian with closed-form entries.

    G_{lm} = Gamma((l+m)/2 + 1)/sqrt(l! m!) * what(l - m), assembled in log
    space from two `log_gamma` vectors; what is the arc indicator's Fourier
    coefficient in the same convention as the angular module.
    """
    if n < 1:
        raise ValueError("N must be >= 1")
    lgf = log_gamma(np.arange(1.0, n + 1.0))               # ln l!
    lgh = log_gamma(0.5 * np.arange(2.0 * n - 1.0) + 1.0)   # ln Gamma(s/2 + 1)
    idx = np.arange(n)
    radial = np.exp(lgh[idx[:, None] + idx[None, :]]
                    - 0.5 * (lgf[idx][:, None] + lgf[idx][None, :]))
    wvals = arc.fourier(np.arange(-(n - 1), n))
    wmat = wvals[(idx[:, None] - idx[None, :]) + (n - 1)]
    return GramOperator(n=n, structure="sector", matrix=radial * wmat)


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


def cumulants_from_gram(g: GramOperator, n_max: int) -> CumulantSet:
    """Count cumulants C_1..C_nmax of the region count described by g."""
    if not 1 <= n_max <= MAX_ORDER:
        raise ValueError(f"n_max must be in 1..{MAX_ORDER}, got {n_max}")
    if g.structure == "diagonal":
        return cumulants_permanental(g.diag, n_max)
    # a compression of a projection: the spectrum lies in [0, 1] up to rounding
    return cumulants_permanental(np.clip(g.eigenvalues(), 0.0, 1.0), n_max)


def cumulants_permanental(p, n_max: int) -> CumulantSet:
    """Cumulants of a sum of independent Bernoulli(p_k)."""
    if not 1 <= n_max <= MAX_ORDER:
        raise ValueError(f"n_max must be in 1..{MAX_ORDER}, got {n_max}")
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or len(p) == 0:
        raise ValueError("p must be a nonempty 1-d probability sequence")
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    v = p * (1.0 - p)
    skew = 1.0 - 2.0 * p
    c = [math.fsum(p)]
    for nn in range(2, n_max + 1):
        acc = np.polyval(_POLYS[nn][::-1], v)
        c.append(math.fsum(skew * acc if nn % 2 else acc))
    u = []
    power = np.ones_like(p)
    for k in range(1, n_max + 1):
        power = power * p
        u.append((-1.0) ** (k - 1) * math.factorial(k - 1) * math.fsum(power))
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

    Deterministic counts (C_2 = 0) carry no normalization and are rejected.
    """
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
