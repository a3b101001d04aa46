"""Seeded generation of random matrices, signals and noise.

Matrix ensembles are scaled so that off-diagonal entry variances are 1/n
(symmetric case) or 1/m (rectangular case). Entry distributions are
standardized to mean 0, variance 1 before scaling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionError, SpecError, require_count
from .rng import RngStream
from .vecmat import vec

ENTRY_DISTS = ("gaussian", "rademacher", "uniform")
# Cumulants kappa_k of each standardized entry law through CUMULANT_ORDER (an
# order not listed has kappa_k = 0); the Gaussian's vanish above order 2.
ENTRY_CUMULANTS = {"gaussian": {2: 1.0}, "rademacher": {2: 1.0, 4: -2.0, 6: 16.0},
                   "uniform": {2: 1.0, 4: -6 / 5, 6: 48 / 7}}
CUMULANT_ORDER = 6

_SQRT3 = np.sqrt(3.0)
# sample_wigner: rows symmetrized per step, so the temporary is this many rows
SYMMETRIZE_BLOCK = 128
# smooth_image: number of low-frequency cosine modes per axis
SMOOTH_MODES = 3


def _draw_entries(dist: str, size, gen: np.random.Generator) -> np.ndarray:
    """Standardized (mean 0, variance 1) i.i.d. draws."""
    if dist == "gaussian":
        return gen.standard_normal(size)
    if dist == "rademacher":
        return 2.0 * gen.integers(0, 2, size=size).astype(np.float64) - 1.0
    if dist == "uniform":
        return gen.uniform(-_SQRT3, _SQRT3, size=size)
    raise SpecError(f"unknown entry distribution {dist!r}")


@dataclass(frozen=True)
class EnsembleSpec:
    """Declarative description of a random matrix ensemble."""

    kind: str  # "goe" | "wigner_iid" | "ginibre_iid"
    rows: int
    cols: int
    entry_dist: str = "gaussian"

    def __post_init__(self):
        if self.kind not in ("goe", "wigner_iid", "ginibre_iid"):
            raise SpecError(f"unknown ensemble kind {self.kind!r}")
        if self.entry_dist not in ENTRY_DISTS:
            raise SpecError(f"unknown entry distribution {self.entry_dist!r}")
        for name in ("rows", "cols"):
            require_count(getattr(self, name), name, DimensionError)
        if self.kind in ("goe", "wigner_iid") and self.rows != self.cols:
            raise DimensionError(
                f"{self.kind} requires a square matrix, got {self.rows}x{self.cols}"
            )


@dataclass(frozen=True)
class SignalSpec:
    """Declarative description of a signal generator: a vector of dims >= 1
    entries (DimensionError otherwise).

    kinds:
      sparse                    Bernoulli(density) support, i.i.d. N(0, 1) amplitudes
      low_rank                  M x N matrix O D U^T with Haar O, U and the rank
                                nonzero singular values uniform on [0, sqrt(N)]
      smooth_image              M x N cosine mixture of SMOOTH_MODES low
                                frequencies per axis, |entries| <= 1
    """

    kind: str
    dims: int
    M: int = 0
    N: int = 0
    rank: int = 0
    density: float = 0.0

    def __post_init__(self):
        if self.kind not in ("sparse", "low_rank", "smooth_image"):
            raise SpecError(f"unknown signal kind {self.kind!r}")
        require_count(self.dims, "dims", DimensionError)
        if self.kind in ("low_rank", "smooth_image"):
            if self.M * self.N != self.dims:
                raise SpecError("matrix signals require dims == M * N")
        if self.kind == "low_rank" and not (0 <= self.rank <= min(self.M, self.N)):
            raise SpecError("rank must satisfy 0 <= rank <= min(M, N)")
        if self.kind == "sparse" and not (0.0 <= self.density <= 1.0):
            raise SpecError("density must lie in [0, 1]")


@dataclass
class SignalSample:
    """A drawn signal vector."""

    vector: np.ndarray


def sample_wigner(spec: EnsembleSpec, rng: RngStream) -> np.ndarray:
    """Symmetric n x n matrix with off-diagonal variance 1/n.

    GOE uses Gaussian entries with diagonal variance 2/n; wigner_iid places
    i.i.d. scaled entry_dist draws on and above the diagonal and mirrors them,
    so the output is bitwise symmetric. Both symmetrize in place, a block of
    SYMMETRIZE_BLOCK rows at a time, so the peak is one n x n matrix (plus,
    for wigner_iid, its upper-triangle draws).
    """
    if spec.kind not in ("goe", "wigner_iid"):
        raise SpecError(f"sample_wigner needs a symmetric ensemble, got {spec.kind!r}")
    n = spec.rows
    gen = rng.generator()
    if spec.kind == "goe":
        a = gen.standard_normal((n, n))
        a /= np.sqrt(n)
        # (a + a.T) / sqrt(2), one block-row of the upper triangle at a time
        for i in range(0, n, SYMMETRIZE_BLOCK):
            j = i + SYMMETRIZE_BLOCK
            blk = a[i:j, i:] + a[i:, i:j].T
            blk /= np.sqrt(2.0)
            a[i:j, i:] = blk
            a[i:, i:j] = blk.T
        return a
    entries = _draw_entries(spec.entry_dist, n * (n + 1) // 2, gen)
    entries /= np.sqrt(n)
    w = np.zeros((n, n))
    w[np.triu(np.ones((n, n), dtype=bool))] = entries  # row-major upper triangle
    # w + triu(w, 1).T, one block-column at a time
    for i in range(0, n, SYMMETRIZE_BLOCK):
        w[:, i:i + SYMMETRIZE_BLOCK] += np.triu(w[i:i + SYMMETRIZE_BLOCK], i + 1).T
    return w


def sample_ginibre(spec: EnsembleSpec, rng: RngStream) -> np.ndarray:
    """m x n matrix with i.i.d. entries of mean 0 and variance 1/m."""
    if spec.kind != "ginibre_iid":
        raise SpecError(f"sample_ginibre needs kind 'ginibre_iid', got {spec.kind!r}")
    gen = rng.generator()
    m, n = spec.rows, spec.cols
    return _draw_entries(spec.entry_dist, (m, n), gen) / np.sqrt(m)


def sample_haar_orthogonal(dim: int, rng: RngStream) -> np.ndarray:
    """Haar-distributed orthogonal matrix via QR with sign correction."""
    dim = require_count(dim, "dim", DimensionError)
    gen = rng.generator()
    g = gen.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.sign(np.diag(r))
    d[d == 0] = 1.0
    return q * d


def sample_signal(spec: SignalSpec, rng: RngStream) -> SignalSample:
    """Draw a signal vector according to spec (see :class:`SignalSpec`)."""
    gen = rng.generator()
    if spec.kind == "sparse":
        mask = gen.random(spec.dims) < spec.density
        amps = gen.standard_normal(spec.dims)
        return SignalSample(np.where(mask, amps, 0.0))
    if spec.kind == "low_rank":
        o = sample_haar_orthogonal(spec.M, rng.derive(1))
        u = sample_haar_orthogonal(spec.N, rng.derive(2))
        k = min(spec.M, spec.N)
        sv = np.zeros(k)
        sv[: spec.rank] = np.sort(gen.uniform(0.0, np.sqrt(spec.N), size=spec.rank))[::-1]
        theta = (o[:, :k] * sv) @ u[:, :k].T
        return SignalSample(vec(theta))
    # smooth_image: separable low-frequency cosine mixture capped at 1
    p = SMOOTH_MODES
    coef = gen.standard_normal((p, p)) / (1.0 + np.add.outer(np.arange(p), np.arange(p)))
    ii = (np.arange(spec.M)[:, None] + 0.5) / spec.M
    jj = (np.arange(spec.N)[:, None] + 0.5) / spec.N
    basis_i = np.cos(np.pi * ii * np.arange(p))  # M x p
    basis_j = np.cos(np.pi * jj * np.arange(p))  # N x p
    img = basis_i @ coef @ basis_j.T
    img = img / np.abs(img).max()
    return SignalSample(vec(img))


def sample_noise(m: int, std: float, rng: RngStream) -> np.ndarray:
    """i.i.d. N(0, std^2) noise vector of length m; DimensionError unless m
    is an integer >= 1."""
    return std * rng.generator().standard_normal(require_count(m, "m", DimensionError))
