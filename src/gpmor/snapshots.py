"""Snapshot matrices and truncated POD bases.

A snapshot matrix stacks the discretized space-time field of one parameter
value column by column (n spatial DOFs x n_t time steps). POD extracts the
leading left singular subspace, which is a point on G(p, n). Snapshots
usually have far more DOFs than time steps, so a tall one is factored
through the n_t x n_t triangle of its QR (the R-SVD of T. F. Chan, ACM TOMS
8, 1982) and only the kept left singular vectors are formed, from S and the
right ones.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DegenerateRankError, ParameterError
from .grassmann import GrassmannPoint, _frozen_float, fix_svd_signs

# Relative gap sigma_p - sigma_{p+1} below which the minimizing subspace is
# flagged as non-unique.
UNIQUENESS_GAP_TOL = 1e-10


@dataclass(frozen=True)
class SnapshotMatrix:
    """Real n x n_t matrix of field samples at one parameter value."""

    data: np.ndarray
    param: float = 0.0

    def __post_init__(self):
        data = _frozen_float(self.data)
        if data.ndim != 2:
            raise ParameterError(f"snapshot data must be 2-D, got ndim={data.ndim}")
        if data.shape[0] < 1 or data.shape[1] < 1:
            raise ParameterError(f"snapshot data must be non-empty, got shape {data.shape}")
        if not np.all(np.isfinite(data)):
            raise DataError("snapshot data contains non-finite entries")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "param", float(self.param))

    @property
    def n(self):
        return self.data.shape[0]

    @property
    def n_t(self):
        return self.data.shape[1]


@dataclass(frozen=True)
class PodResult:
    """Truncated POD basis plus the full singular spectrum of the snapshot matrix."""

    basis: GrassmannPoint
    singular_values: np.ndarray
    mode: int
    uniqueness_flag: bool

    def __post_init__(self):
        object.__setattr__(self, "singular_values", _frozen_float(self.singular_values))


def singular_spectrum(s):
    """Full non-increasing singular value list of the snapshot matrix."""
    return factor_pod(s, 0).singular_values


@dataclass(frozen=True)
class PodFactor:
    """The full singular spectrum of a snapshot matrix and its leading signed
    left singular vectors, ready to truncate to any mode up to the number of
    vectors it keeps."""

    vectors: np.ndarray
    singular_values: np.ndarray
    shape: tuple
    param: float


def _numerical_rank(sv, shape):
    """Number of singular values above max(n, n_t) * eps * sigma_1."""
    return int(np.sum(sv > max(shape) * np.finfo(float).eps * sv[0]))


def kept_modes(sv, shape, max_mode):
    """Number of left singular vectors factor_pod keeps at max_mode for a
    matrix of `shape` with spectrum sv: min(max_mode, numerical rank), >= 0."""
    return min(max(int(max_mode), 0), _numerical_rank(sv, shape))


# Version of the bits factor_pod returns. fileio's factor cache keys on it, so
# any change that can move a bit of a factor (its QR or SVD, the Gram-Schmidt
# passes, fix_svd_signs, _numerical_rank or kept_modes) must bump it, or old
# cache entries keep being served.
POD_FACTOR_VERSION = 1


def factor_pod(s, max_mode):
    """POD factor of s keeping min(max_mode, rank) left singular vectors.

    A wide or square s (n <= n_t) is small: its own SVD gives them. A tall s
    is reduced to the n_t x n_t triangle of its QR, whose Q is never formed;
    one SVD of the triangle gives the full spectrum sigma and the right
    vectors v_j, and each kept vector is u_j = S v_j / sigma_j, one
    matrix-vector product, re-orthonormalised against u_1..u_{j-1} by two
    passes of classical Gram-Schmidt. Either way column j is bitwise the same
    for every max_mode >= j, and the vectors are F-ordered for a tall s and
    C-ordered otherwise. Signs follow fix_svd_signs. Vectors beyond the
    numerical rank are not formed: their sigma_j is noise.
    """
    data = s.data
    n, n_t = data.shape
    tall = n > n_t
    u, sv, vt = np.linalg.svd(np.linalg.qr(data, mode="r") if tall else data,
                              full_matrices=False)
    keep = kept_modes(sv, data.shape, max_mode)
    if tall:
        u = np.empty((n, keep), order="F")
        for j in range(keep):
            w = data @ vt[j] / sv[j]
            for _ in range(2):
                w -= u[:, :j] @ (u[:, :j].T @ w)
                w /= np.linalg.norm(w)
            u[:, j] = w
    else:
        # a contiguous copy of the kept columns lets the full U be freed
        u = np.ascontiguousarray(u[:, :keep])
    fix_svd_signs(u, vt[:keep])
    return PodFactor(vectors=u, singular_values=sv, shape=data.shape, param=s.param)


def truncate_pod(f, p):
    """Mode-p POD from a factor: its p leading signed left singular vectors.

    Raises ParameterError outside [1, q], DegenerateRankError when the rank
    is below p, ParameterError beyond the modes the factor keeps, and flags
    (without failing) a degenerate gap sigma_p = sigma_{p+1}.
    """
    n, n_t = f.shape
    sv = f.singular_values
    q = sv.size
    if not 1 <= p <= q:
        raise ParameterError(f"mode p={p} out of range [1, {q}] for a {n}x{n_t} matrix")
    rank = _numerical_rank(sv, f.shape)
    if rank < p:
        raise DegenerateRankError(
            f"snapshot matrix has rank {rank} < requested mode p={p}; the minimizer is not unique"
        )
    if p > f.vectors.shape[1]:
        raise ParameterError(f"mode p={p} exceeds the {f.vectors.shape[1]} modes the factor keeps")
    unique = p == q or bool(sv[p - 1] - sv[p] > UNIQUENESS_GAP_TOL * sv[0])
    if not unique:
        warnings.warn(
            f"degenerate singular spectrum at mode p={p}: "
            f"sigma_p={sv[p - 1]:.6e}, sigma_p+1={sv[p]:.6e}; POD subspace is not unique",
            RuntimeWarning,
            stacklevel=3,
        )
    return PodResult(
        basis=GrassmannPoint(f.vectors[:, :p]),
        singular_values=sv,
        mode=int(p),
        uniqueness_flag=unique,
    )


def compute_pod(s, p):
    """Truncated POD of mode p: the p leading left singular vectors of s.

    The returned subspace minimizes the Frobenius projection residual over all
    p-dimensional subspaces (Eckart-Young). Signs are fixed so the largest
    entry of each basis column is positive. This is factor_pod then
    truncate_pod; a caller that needs several modes of one matrix factors it
    once and truncates per mode.
    """
    return truncate_pod(factor_pod(s, p), p)


def reduced_model(s, basis):
    """Rank-p reconstruction Phi Phi^T S of the snapshot matrix."""
    if basis.n != s.n:
        raise ParameterError(
            f"basis has {basis.n} rows but snapshot matrix has {s.n}"
        )
    phi = basis.frame
    return phi @ (phi.T @ s.data)
