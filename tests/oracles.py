"""Independent oracles used across the test suite.

Everything here is deliberately brute-force and built from different
primitives than the library (scipy/mpmath special functions, grid
quadrature, direct enumeration) so that agreement is evidence, not
tautology.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy import special as sps


# ---------------------------------------------------------------------------
# brute-force determinantal covariance on the plane
#
# Cov = int fg K(z,z) mu - int int f(z) g(w) |K(z,w)|^2 mu mu with the
# degree-(N-1) polynomial kernel and weight e^{-N|z|^2} dA; evaluated on a
# polar product grid (Gauss-Legendre radially, trapezoid in the angle).
# ---------------------------------------------------------------------------

def quad4d_cov_rt(f, g, n: int, r_nodes: int = 120, t_nodes: int = 64,
                  r_max: float | None = None) -> float:
    """f, g: vectorized callables of (r, theta) on broadcastable grids."""
    if r_max is None:
        r_max = 1.0 + 6.0 / math.sqrt(n)
    xr, wr = np.polynomial.legendre.leggauss(r_nodes)
    r = 0.5 * r_max * (xr + 1.0)
    wr = 0.5 * r_max * wr
    theta = -math.pi + 2.0 * math.pi * np.arange(t_nodes) / t_nodes
    wt = np.full(t_nodes, 2.0 * math.pi / t_nodes)

    # basis functions with the half-weight absorbed:
    # phi_l(r, t) = sqrt(N^{l+1}/(pi l!)) r^l e^{ilt} e^{-N r^2/2}
    ells = np.arange(n)
    log_amp = 0.5 * ((ells + 1) * math.log(n) - np.log(math.pi) - sps.gammaln(ells + 1))
    rad = np.exp(log_amp[:, None] + ells[:, None] * np.log(np.maximum(r, 1e-300))[None, :]
                 - 0.5 * n * r[None, :] ** 2)          # (n, R)
    ang = np.exp(1j * np.outer(ells, theta))            # (n, T)

    pts_w = (wr[:, None] * r[:, None] * wt[None, :]).ravel()        # (R*T,)
    grid = np.broadcast_to(np.ones((r_nodes, t_nodes)), (r_nodes, t_nodes))
    fv = (f(r[:, None], theta[None, :]) * grid).ravel()
    gv = (g(r[:, None], theta[None, :]) * grid).ravel()
    phi = (rad[:, :, None] * ang[:, None, :]).reshape(n, -1)        # (n, P)

    kdiag = np.sum(np.abs(phi) ** 2, axis=0).real
    term1 = float(np.sum(fv * gv * kdiag * pts_w))

    term2 = 0.0
    p = phi.shape[1]
    chunk = max(1, 2_000_000 // p)
    wf = fv * pts_w
    wg = gv * pts_w
    for lo in range(0, p, chunk):
        hi = min(lo + chunk, p)
        kblock = phi[:, lo:hi].conj().T @ phi          # (hi-lo, P)
        term2 += float(wf[lo:hi] @ (np.abs(kblock) ** 2 @ wg))
    return term1 - term2


def quad4d_cov(f, g, n: int, r_nodes: int = 120, t_nodes: int = 64,
               r_max: float | None = None) -> float:
    """f, g: vectorized callables of the angle theta in (-pi, pi]."""
    return quad4d_cov_rt(lambda r, t: f(t) + 0.0 * r,
                         lambda r, t: g(t) + 0.0 * r,
                         n, r_nodes, t_nodes, r_max)


# ---------------------------------------------------------------------------
# closed forms and exact densities
# ---------------------------------------------------------------------------

def i_arg_closed(beta: float) -> float:
    """Closed form of the defining two-integral display (derived by
    integrating each piece in terms of incomplete-gamma/error functions)."""
    t1 = 1.0 - math.gamma(0.25) * sps.gammainc(0.25, beta) / (4.0 * beta ** 0.25)
    t2 = 0.5 * math.sqrt(math.pi) * beta * math.erfc(beta)
    t3 = math.sqrt(math.pi) / (4.0 * beta) * math.erf(beta)
    t4 = -0.5 * math.exp(-(beta ** 2))
    return t1 + t2 + t3 + t4


def gamma_std_density(a: float, m: int) -> float:
    """Exact density of (S - M)/sqrt(M) at a for S ~ Gamma(M, 1)."""
    x = m + a * math.sqrt(m)
    if x <= 0.0:
        return 0.0
    return math.sqrt(m) * math.exp((m - 1) * math.log(x) - x - sps.gammaln(m))


# ---------------------------------------------------------------------------
# independent-Bernoulli count enumeration
# ---------------------------------------------------------------------------

def bernoulli_count_pmf(p) -> np.ndarray:
    """Exact pmf of sum of independent Bernoulli(p_k), by convolution."""
    pmf = np.array([1.0])
    for pk in p:
        nxt = np.zeros(len(pmf) + 1)
        nxt[:-1] += pmf * (1.0 - pk)
        nxt[1:] += pmf * pk
        pmf = nxt
    return pmf


def cumulants_from_pmf(pmf: np.ndarray, n_max: int) -> list[float]:
    """Cumulants kappa_1..kappa_nmax from an exact pmf on {0, 1, ..}."""
    support = np.arange(len(pmf), dtype=float)
    raw = [float(np.sum(pmf * support ** j)) for j in range(n_max + 1)]
    kappa = [0.0] * (n_max + 1)
    for nn in range(1, n_max + 1):
        acc = raw[nn]
        for j in range(1, nn):
            acc -= math.comb(nn - 1, j - 1) * kappa[j] * raw[nn - j]
        kappa[nn] = acc
    return kappa[1:]


def stirling_second_kind(n: int, k: int) -> int:
    """S(n, k) by inclusion-exclusion, exact in integers."""
    if k == 0:
        return 1 if n == 0 else 0
    total = sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1))
    return total // math.factorial(k)


# ---------------------------------------------------------------------------
# extended-precision count cumulants on the operator route
#
# The classical recombination C_n = sum_k S(n,k) U_k of the cluster integrals
# U_k = (-1)^{k-1} (k-1)! sum_j p_j^k cancels heavily at high order, which
# 50 working digits absorb.
# ---------------------------------------------------------------------------

MP_DIGITS = 50


def sector_gram_mp(n: int, alpha: float, beta: float):
    """Sector Gram matrix G_{lm} = Gamma((l+m)/2+1)/sqrt(l! m!) * (1/2pi)
    int_alpha^beta e^{i(m-l)t} dt, in mpmath at MP_DIGITS digits."""
    with mpmath.workdps(MP_DIGITS):
        a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
        g = mpmath.matrix(n, n)
        for l in range(n):
            for m in range(n):
                d = m - l
                if d == 0:
                    ang = (b - a) / (2 * mpmath.pi)
                else:
                    ang = ((mpmath.expj(d * b) - mpmath.expj(d * a))
                           / (2j * mpmath.pi * d))
                rad = (mpmath.gamma(mpmath.mpf(l + m) / 2 + 1)
                       / mpmath.sqrt(mpmath.factorial(l) * mpmath.factorial(m)))
                g[l, m] = rad * ang
        return g


def sector_spectrum_mp(n: int, alpha: float, beta: float) -> list:
    """Eigenvalues of sector_gram_mp, from mpmath's Hermitian solver."""
    with mpmath.workdps(MP_DIGITS):
        return list(mpmath.eighe(sector_gram_mp(n, alpha, beta), eigvals_only=True))


def cumulants_from_spectrum_mp(p, n_max: int) -> list[float]:
    """Count cumulants C_1..C_nmax of a Bernoulli sum over the spectrum p,
    by Stirling recombination of power sums in extended precision."""
    with mpmath.workdps(MP_DIGITS):
        p = [mpmath.mpf(x) for x in p]
        u = [(-1) ** (k - 1) * math.factorial(k - 1) * mpmath.fsum(x ** k for x in p)
             for k in range(1, n_max + 1)]
        return [float(mpmath.fsum(stirling_second_kind(nn, k) * u[k - 1]
                                  for k in range(1, nn + 1)))
                for nn in range(1, n_max + 1)]


# ---------------------------------------------------------------------------
# angular Gamma ratios in extended precision
# ---------------------------------------------------------------------------

def angular_diagonal_sum_mp(n: int, d: int) -> float:
    """C_d = sum_{j<n-d} Gamma(j+d/2+1)^2 / ((j+d)! j!) in 30 digits, each term
    the one before times (j+d/2+1)^2 / ((j+d+1)(j+1)) from Gamma(d/2+1)^2 / d!."""
    with mpmath.workdps(30):
        half = mpmath.mpf(d) / 2
        t = mpmath.gamma(half + 1) ** 2 / mpmath.factorial(d)
        total = mpmath.mpf(0)
        for j in range(n - d):
            total += t
            t = t * (j + half + 1) ** 2 / ((j + d + 1) * (j + 1))
        return float(total)


def angular_factor_mp(j: int, d: int):
    """t(j, d) = Gamma(j+d/2+1)^2 / ((j+d)! j!) in 40 digits, as an mpf."""
    with mpmath.workdps(40):
        return mpmath.exp(2 * mpmath.loggamma(j + mpmath.mpf(d) / 2 + 1)
                          - mpmath.loggamma(j + d + 1) - mpmath.loggamma(j + 1))


def kernel_fourier_mp(ell: int, k: int) -> float:
    """Chat_l(k) of C_l = a(l) cos^{2l} + b(l) cos^{2l+1} in 30 digits:
    (l!)^2 / ((l-m)! (l+m)!) for k = 2m, Gamma(l+3/2)^2 / ((l+m)! (l-m+1)!)
    for k = 2m-1."""
    with mpmath.workdps(30):
        m = (k + 1) // 2
        if k % 2 == 0:
            return float(mpmath.factorial(ell) ** 2
                         / (mpmath.factorial(ell - m) * mpmath.factorial(ell + m)))
        return float(mpmath.gamma(ell + mpmath.mpf(3) / 2) ** 2
                     / (mpmath.factorial(ell + m) * mpmath.factorial(ell - m + 1)))


def kernel_c_apply_at_zero(ell: int, phi) -> complex:
    """(C_l * phi)(0) = sum_k Chat_l(k) phihat(k) for a `ConvolvedStatistic`,
    one kernel row at a time from the library's `_chat_row`: the row-by-row
    form that `angular_cov_decomposed` regroups along the diagonals."""
    from ginfluct.angular import _chat_row

    kmax = min(phi.band, 2 * ell + 1)
    return complex(_chat_row(ell, kmax) @ phi.folded()[:kmax + 1])


def angular_var_sesquilinear(f, n: int) -> float:
    """Var X(f) for a complex-valued `FourierStatistic`: the library's
    bilinear covariance against conj(f)."""
    from ginfluct.angular import angular_cov_exact

    val = angular_cov_exact(f, f.conjugate(), n)
    return val if isinstance(val, float) else val.real


# ---------------------------------------------------------------------------
# characteristic-polynomial eigenvalue oracle
# ---------------------------------------------------------------------------

def charpoly_coefficients(a: np.ndarray) -> np.ndarray:
    """Coefficients of det(zI - A) = z^n + c[1] z^{n-1} + ... + c[n], via
    sums of principal minors in extended precision."""
    a = np.asarray(a, dtype=np.clongdouble)
    n = a.shape[0]
    coeffs = np.zeros(n + 1, dtype=np.clongdouble)
    coeffs[0] = 1.0
    from itertools import combinations

    for k in range(1, n + 1):
        s = np.clongdouble(0.0)
        for rows in combinations(range(n), k):
            sub = a[np.ix_(rows, rows)]
            s += _det_cofactor(sub)
        coeffs[k] = (-1.0) ** k * s
    return coeffs


def _det_cofactor(m: np.ndarray) -> np.clongdouble:
    k = m.shape[0]
    if k == 1:
        return m[0, 0]
    if k == 2:
        return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    total = np.clongdouble(0.0)
    rest = np.arange(1, k)
    for j in range(k):
        cols = [c for c in range(k) if c != j]
        total += (-1.0) ** j * m[0, j] * _det_cofactor(m[np.ix_(rest, cols)])
    return total


def durand_kerner_roots(coeffs: np.ndarray, iters: int = 500,
                        tol: float = 1e-14) -> np.ndarray:
    """All roots of a monic polynomial given coefficient array c[0]=1."""
    c = np.asarray(coeffs, dtype=np.clongdouble)
    n = len(c) - 1
    radius = 1.0 + max(abs(np.complex128(v)) for v in c[1:])
    z = radius * np.exp(2j * np.pi * (np.arange(n) + 0.25) / n).astype(np.clongdouble)

    def poly(x):
        out = np.full_like(x, c[0])
        for ck in c[1:]:
            out = out * x + ck
        return out

    for _ in range(iters):
        move = 0.0
        pz = poly(z)
        for i in range(n):
            denom = np.clongdouble(1.0)
            for j in range(n):
                if j != i:
                    denom *= z[i] - z[j]
            delta = pz[i] / denom
            z[i] -= delta
            move = max(move, abs(np.complex128(delta)))
        if move < tol:
            break
    return np.asarray(z, dtype=complex)


def eig_via_charpoly(a: np.ndarray) -> np.ndarray:
    return durand_kerner_roots(charpoly_coefficients(a))


# ---------------------------------------------------------------------------
# radial gamma-factor expectations in extended precision
#
# scale r^2 ~ Gamma(k) for each factor, so r has density
# 2 scale^k r^(2k-1) e^(-scale r^2) / Gamma(k) on [0, inf).
# ---------------------------------------------------------------------------

def radial_cov_quad_mp(f, g, shapes, scale: float) -> float:
    """sum_k E[f g] - E[f] E[g] over the factors, each expectation an mpmath
    quadrature in r; f and g take and return mpmath numbers."""
    with mpmath.workdps(30):
        scale = mpmath.mpf(scale)
        total = mpmath.mpf(0)
        for k in shapes:
            norm = 2 * scale ** k / mpmath.gamma(k)

            def mean(h, k=k, norm=norm):
                dens = lambda r: h(r) * norm * r ** (2 * k - 1) * mpmath.exp(-scale * r * r)
                return mpmath.quad(dens, [0, mpmath.sqrt(k / scale), mpmath.inf])

            total += mean(lambda r: f(r) * g(r)) - mean(f) * mean(g)
        return float(total)


def radial_poly_indicator_cov_mp(coeffs, a: float, b: float, shapes, scale: float) -> float:
    """Cov(sum_j c_j r^j, 1{a <= r <= b}) over the factors in closed form:
    E[r^j 1] = Gamma(k + j/2)/(Gamma(k) scale^(j/2)) P(k + j/2; scale a^2, scale b^2)."""
    with mpmath.workdps(40):
        scale = mpmath.mpf(scale)
        s_lo = scale * mpmath.mpf(a) ** 2
        s_hi = scale * mpmath.mpf(b) ** 2 if math.isfinite(b) else mpmath.inf
        total = mpmath.mpf(0)
        for k in shapes:
            e_p = e_p_ind = mpmath.mpf(0)
            for j, c in enumerate(coeffs):
                kj = k + mpmath.mpf(j) / 2
                moment = c * mpmath.gamma(kj) / (mpmath.gamma(k) * scale ** (mpmath.mpf(j) / 2))
                e_p += moment
                e_p_ind += moment * mpmath.gammainc(kj, s_lo, s_hi, regularized=True)
            total += e_p_ind - e_p * mpmath.gammainc(k, s_lo, s_hi, regularized=True)
        return float(total)


def radial_count_cov_mp(w1, w2, shapes, scale: float) -> float:
    """Cov(#w1, #w2) = sum_k [P_k(w1 cap w2) - P_k(w1) P_k(w2)], P_k(a, b) the
    regularized incomplete gamma of shape k on [scale a^2, scale b^2], taken as
    that plain difference in 80 digits: a covariance of 1e-40 from terms near
    1 keeps about 40."""
    with mpmath.workdps(80):
        scale = mpmath.mpf(scale)

        def prob(k, a, b):
            if a >= b:
                return mpmath.mpf(0)
            hi = scale * mpmath.mpf(b) ** 2 if math.isfinite(b) else mpmath.inf
            return mpmath.gammainc(k, scale * mpmath.mpf(a) ** 2, hi, regularized=True)

        lo, hi = max(w1[0], w2[0]), min(w1[1], w2[1])
        return float(sum(prob(k, lo, hi) - prob(k, *w1) * prob(k, *w2) for k in shapes))


def angular_count_cov_mp(n: int, arc1, arc2, cd) -> float:
    """N phi(0) - sum_{|d|<N} C_|d| phihat(d) for two arc indicators, in 40
    digits over the given diagonal sums C_d, with each coefficient from its
    definition what(d) = (e^{-i d alpha} - e^{-i d beta}) / (2 pi i d) and
    phihat(d) = what1(d) conj(what2(d)) taken complex."""
    with mpmath.workdps(40):
        ends = [mpmath.mpf(x) for x in (arc1.alpha, arc1.beta, arc2.alpha, arc2.beta)]

        def what(d, lo, hi):
            if d == 0:
                return (hi - lo) / (2 * mpmath.pi)
            return (mpmath.expj(-d * lo) - mpmath.expj(-d * hi)) / (2j * mpmath.pi * d)

        overlap = max(mpmath.mpf(0), min(ends[1], ends[3]) - max(ends[0], ends[2]))
        total = n * overlap / (2 * mpmath.pi)
        for d in range(-n + 1, n):
            phat = what(d, *ends[:2]) * mpmath.conj(what(d, *ends[2:]))
            total -= mpmath.mpf(float(cd[abs(d)])) * phat
        return float(mpmath.re(total))


def sector_gram_phased(n: int, alpha: float, beta: float) -> np.ndarray:
    """Sector Gram matrix in the monomial basis, complex Hermitian:
    G_{lm} = Gamma((l+m)/2+1)/sqrt(l! m!) * what(l - m), with the arc
    indicator's coefficient what(d) = -e^{-i d alpha} expm1(-i d L)/(2 pi i d)
    (L/2pi at d = 0) carrying the arc's phase.  Unlike the oracles above it
    takes the radial factor from the library's `log_gamma`, so an entrywise
    comparison with the library's sector matrix sees only the arc's factor."""
    from ginfluct.specfun import log_gamma

    lgf = log_gamma(np.arange(1.0, n + 1.0))
    lgh = log_gamma(0.5 * np.arange(2.0 * n - 1.0) + 1.0)
    idx = np.arange(n)
    radial = np.exp(lgh[idx[:, None] + idx[None, :]] - 0.5 * (lgf[:, None] + lgf[None, :]))
    length = beta - alpha
    d = np.arange(1.0, n)
    pos = -np.exp(-1j * d * alpha) * np.expm1(-1j * d * length) / (2j * math.pi * d)
    wvals = np.concatenate((np.conj(pos[::-1]), [length / (2.0 * math.pi)], pos))
    return radial * wvals[(idx[:, None] - idx[None, :]) + (n - 1)]
