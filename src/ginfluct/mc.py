"""Monte Carlo ground truth for the exact modules.

Two samplers: the gamma representation of the squared moduli (exact, O(N)
per replica, covers every radial statistic) and the full matrix route
(complex Gaussian entries of variance 1/N, eigenvalues from a dense solver)
for angular and joint statistics.  Streams are counter-based (Philox), so a
(seed, stream) pair reproduces a sample path exactly, independent of
platform or thread count.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from ._version import VERSION
from .radial import Ensemble
from .specfun import std_normal_cdf

__all__ = [
    "RngStream",
    "SampleBatch",
    "save_batch",
    "load_batch",
    "save_batch_csv",
    "sample_radial_moduli",
    "sample_ginibre_eigenvalues",
    "eig_dense",
    "estimate_mean",
    "estimate_cov",
    "KsResult",
    "ks_normal_test",
    "normalized_count_samples",
]

MAX_MATRIX_N = 512
GENERATOR_NAME = "philox4x64"

# replicas are generated in fixed-size chunks; the rule is part of the
# reproducibility contract (it fixes the order of generator consumption)
_CHUNK_ELEMENTS = 4_000_000


@dataclass(frozen=True)
class RngStream:
    """Counter-based stream: (seed, stream) fully determines the path."""

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class SampleBatch:
    """Per-replica statistic values plus the provenance needed to recreate them."""

    n: int
    ensemble: Ensemble
    seed: int
    values: np.ndarray
    stream: int = 0
    statistic: str = ""
    sampler: str = ""       # "gamma" or "matrix"; empty when not recorded
    generator: str = GENERATOR_NAME
    version: str = VERSION

    @property
    def size(self) -> int:
        return len(self.values)


_MAGIC = b"GFSB"
_FORMAT_VERSION = 3
_PREFIX = struct.Struct("<4sI")      # magic, format version
_HEADER = struct.Struct("<QBBQQQI")  # N, ensemble, sampler, seed, stream, S, statistic length
_ENS_TAG = {Ensemble.COMPLEX: 0, Ensemble.QUATERNION: 1}
_TAG_ENS = {v: k for k, v in _ENS_TAG.items()}
_SAMPLER_TAG = {"": 0, "gamma": 1, "matrix": 2}
_TAG_SAMPLER = {v: k for k, v in _SAMPLER_TAG.items()}


def save_batch(batch: SampleBatch, path) -> None:
    """Binary batch: header, the statistic spec in ASCII, then S little-endian doubles."""
    if batch.sampler not in _SAMPLER_TAG:
        raise ValueError(f"unknown sampler {batch.sampler!r}")
    vals = np.ascontiguousarray(batch.values, dtype="<f8")
    statistic = batch.statistic.encode("ascii")
    with open(path, "wb") as fh:
        fh.write(_PREFIX.pack(_MAGIC, _FORMAT_VERSION))
        fh.write(_HEADER.pack(batch.n, _ENS_TAG[batch.ensemble], _SAMPLER_TAG[batch.sampler],
                              batch.seed, batch.stream, len(vals), len(statistic)))
        fh.write(statistic)
        fh.write(vals.tobytes())


def _read_struct(fh, st: struct.Struct, path) -> tuple:
    raw = fh.read(st.size)
    if len(raw) != st.size:
        raise ValueError(f"{path}: truncated header")
    return st.unpack(raw)


def load_batch(path) -> SampleBatch:
    with open(path, "rb") as fh:
        magic, fmt = _read_struct(fh, _PREFIX, path)
        if magic != _MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        if fmt != _FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported format version {fmt}")
        n, ens_tag, sampler_tag, seed, stream, s, length = _read_struct(fh, _HEADER, path)
        statistic = fh.read(length)
        if len(statistic) != length:
            raise ValueError(f"{path}: truncated header")
        data = fh.read(8 * s)
    if len(data) != 8 * s:
        raise ValueError(f"{path}: expected {s} values, file is short")
    values = np.frombuffer(data, dtype="<f8").astype(float)
    return SampleBatch(n=n, ensemble=_TAG_ENS[ens_tag], seed=seed, values=values,
                       stream=stream, statistic=statistic.decode("ascii"),
                       sampler=_TAG_SAMPLER[sampler_tag])


def save_batch_csv(batch: SampleBatch, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# n={batch.n} ensemble={batch.ensemble.value} seed={batch.seed}"
                 f" stream={batch.stream} statistic={batch.statistic} sampler={batch.sampler}"
                 f" s={batch.size}"
                 f" generator={batch.generator} version={batch.version}\n")
        fh.write("index,value\n")
        for i, v in enumerate(batch.values):
            fh.write(f"{i},{float(v)!r}\n")


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def _gamma_blocks(gen: np.random.Generator, n: int, ens: Ensemble, size: int):
    """Yield (lo, hi, block): replicas lo..hi-1 of the N gamma variables
    s_1..s_N, drawn in chunks of at most _CHUNK_ELEMENTS entries."""
    shapes = ens.shape(np.arange(1.0, n + 1.0))
    step = max(1, _CHUNK_ELEMENTS // n)
    for lo in range(0, size, step):
        hi = min(lo + step, size)
        yield lo, hi, gen.standard_gamma(np.broadcast_to(shapes, (hi - lo, n)))


def sample_radial_moduli(n: int, ens: Ensemble, rng: RngStream,
                         size: int | None = None) -> np.ndarray:
    """Moduli sets via the gamma representation; shape (N,) or (size, N).

    The set is exchangeable, not ordered by magnitude; use it only through
    symmetric statistics.
    """
    if n < 1:
        raise ValueError("N must be >= 1")
    s = np.empty((1 if size is None else size, n))
    for lo, hi, block in _gamma_blocks(rng.generator(), n, ens, len(s)):
        s[lo:hi] = block
    s /= ens.scale(n)
    np.sqrt(s, out=s)
    return s[0] if size is None else s


def sample_ginibre_eigenvalues(n: int, rng: RngStream, size: int | None = None) -> np.ndarray:
    """Eigenvalues of matrices with iid complex Gaussian entries, E|A_ij|^2 = 1/N."""
    if not 1 <= n <= MAX_MATRIX_N:
        raise ValueError(f"N must be in 1..{MAX_MATRIX_N}")
    gen = rng.generator()
    reps = 1 if size is None else size
    out = np.empty((reps, n), dtype=complex)
    sig = 1.0 / math.sqrt(2.0 * n)
    for r in range(reps):
        z = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
        try:
            out[r] = eig_dense(sig * z)
        except RuntimeError as exc:
            raise RuntimeError(
                f"eigensolver failure at replica {r} "
                f"(seed={rng.seed}, stream={rng.stream}): {exc}") from exc
    return out[0] if size is None else out


# ---------------------------------------------------------------------------
# dense eigensolver: LAPACK behind an accuracy contract
# ---------------------------------------------------------------------------

def eig_dense(a: np.ndarray) -> np.ndarray:
    """All eigenvalues of a dense square matrix.

    The LAPACK result is checked on every call against an accuracy
    contract: the eigenvalue sum must match the trace and the sum of squares
    the trace of A^2, to 1e-10*|A|_F*N and 1e-8*|A^2|_F*N respectively.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    n = a.shape[0]
    if n > MAX_MATRIX_N:
        raise ValueError(f"dimension {n} exceeds the supported maximum {MAX_MATRIX_N}")
    a_c = np.asarray(a, dtype=complex)
    if not np.all(np.isfinite(a_c)):
        raise ValueError("matrix entries must be finite")
    if n == 0:
        return np.empty(0, dtype=complex)
    lam = np.linalg.eigvals(a)

    a2 = a_c @ a_c
    norm_a = np.linalg.norm(a_c)
    norm_a2 = np.linalg.norm(a2)
    if abs(lam.sum() - np.trace(a_c)) > 1e-10 * max(norm_a, 1e-300) * n + 1e-300:
        raise RuntimeError("eigenvalue sum violates the trace contract")
    if abs((lam ** 2).sum() - np.trace(a2)) > 1e-8 * max(norm_a2, 1e-300) * n + 1e-300:
        raise RuntimeError("eigenvalue square-sum violates the trace contract")
    return lam


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

def estimate_mean(values) -> tuple[float, float]:
    """(sample mean, standard error)."""
    v = np.asarray(values, dtype=float)
    s = len(v)
    if s < 2:
        raise ValueError("need at least 2 replicas")
    return float(v.mean()), float(v.std(ddof=1) / math.sqrt(s))


def estimate_cov(values_f, values_g) -> tuple[float, float]:
    """Unbiased sample covariance with a jackknife standard error."""
    f = np.asarray(values_f, dtype=float)
    g = np.asarray(values_g, dtype=float)
    if f.shape != g.shape or f.ndim != 1:
        raise ValueError("need two equal-length 1-d sequences")
    s = len(f)
    if s < 2:
        raise ValueError("need at least 2 replicas")
    fbar, gbar = f.mean(), g.mean()
    cov = float((f - fbar) @ (g - gbar) / (s - 1))
    if s == 2:
        return cov, abs(cov)
    # leave-one-out covariances from running sums, O(S)
    sf, sg = f.sum(), g.sum()
    sfg = float(f @ g)
    fi_bar = (sf - f) / (s - 1)
    gi_bar = (sg - g) / (s - 1)
    cov_i = (sfg - f * g - (s - 1) * fi_bar * gi_bar) / (s - 2)
    se = math.sqrt(max(0.0, (s - 1) / s * np.sum((cov_i - cov_i.mean()) ** 2)))
    return cov, se


@dataclass(frozen=True)
class KsResult:
    statistic: float
    threshold: float        # 1.63/sqrt(S); studentizing puts its level far below 1%
    size: int
    passed: bool = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "passed", self.statistic <= self.threshold)


def ks_normal_test(samples) -> KsResult:
    """One-sample KS distance to N(0,1) after studentizing."""
    x = np.asarray(samples, dtype=float)
    s = len(x)
    if s < 100:
        raise ValueError("need at least 100 samples")
    spread = x.std(ddof=1)
    if not 0.0 < spread < math.inf:
        raise ValueError(f"samples need a positive finite spread to studentize, got {spread}")
    z = np.sort((x - x.mean()) / spread)
    cdf = np.array([std_normal_cdf(v) for v in z])
    grid_hi = np.arange(1, s + 1) / s
    grid_lo = np.arange(0, s) / s
    d = max(float(np.max(grid_hi - cdf)), float(np.max(cdf - grid_lo)))
    return KsResult(statistic=d, threshold=1.63 / math.sqrt(s), size=s)


def normalized_count_samples(n: int, a: float, b: float, ens: Ensemble,
                             rng: RngStream, size: int,
                             jitter: bool = True) -> np.ndarray:
    """Standardized annulus counts from the gamma sampler.

    Counts are integers; a uniform(-1/2, 1/2) dither (drawn from the same
    stream, after all counts) removes the lattice spacing so the KS distance
    to the normal limit is meaningful.  Centering and scaling use the exact
    mean/variance, not sample estimates.
    """
    from .radial import count_probabilities, radial_count_var

    if size < 1:
        raise ValueError("size must be >= 1")
    mean = float(count_probabilities(n, a, b, ens).sum())
    var = radial_count_var(n, a, b, ens)
    if var <= 0.0:
        raise ValueError("window has zero variance; nothing to normalize")
    gen = rng.generator()
    scale = ens.scale(n)
    s_lo, s_hi = scale * a * a, scale * b * b
    counts = np.empty(size)
    for lo, hi, sblock in _gamma_blocks(gen, n, ens, size):
        counts[lo:hi] = np.count_nonzero((sblock >= s_lo) & (sblock < s_hi), axis=1)
    if jitter:
        counts = counts + gen.uniform(-0.5, 0.5, size)
    return (counts - mean) / math.sqrt(var)
