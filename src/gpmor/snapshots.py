"""Snapshot matrices and truncated POD bases.

A snapshot matrix stacks the discretized space-time field of one parameter
value column by column (n spatial DOFs x n_t time steps). POD extracts the
leading left singular subspace, which is a point on G(p, n).
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DegenerateRankError, ParameterError
from .grassmann import GrassmannPoint, fix_svd_signs

# Relative gap sigma_p - sigma_{p+1} below which the minimizing subspace is
# flagged as non-unique.
UNIQUENESS_GAP_TOL = 1e-10


@dataclass(frozen=True)
class SnapshotMatrix:
    """Real n x n_t matrix of field samples at one parameter value."""

    data: np.ndarray
    param: float = 0.0

    def __post_init__(self):
        data = np.array(self.data, dtype=float)
        if data.ndim != 2:
            raise ParameterError(f"snapshot data must be 2-D, got ndim={data.ndim}")
        if data.shape[0] < 1 or data.shape[1] < 1:
            raise ParameterError(f"snapshot data must be non-empty, got shape {data.shape}")
        if not np.all(np.isfinite(data)):
            raise DataError("snapshot data contains non-finite entries")
        data.setflags(write=False)
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
        sv = np.array(self.singular_values, dtype=float)
        sv.setflags(write=False)
        object.__setattr__(self, "singular_values", sv)


def singular_spectrum(s):
    """Full non-increasing singular value list of the snapshot matrix."""
    return np.linalg.svd(s.data, compute_uv=False)


@dataclass(frozen=True)
class PodFactor:
    """One signed thin SVD of a snapshot matrix, ready to truncate to any mode
    up to the number of left singular vectors it keeps."""

    vectors: np.ndarray
    singular_values: np.ndarray
    shape: tuple
    param: float


def factor_pod(s, max_mode):
    """Thin SVD of s keeping the min(max_mode, q) leading left singular vectors,
    q = min(n, n_t), with the signs of fix_svd_signs, and the full spectrum."""
    u, sv, vt = np.linalg.svd(s.data, full_matrices=False)
    keep = min(max(int(max_mode), 0), sv.size)
    # a contiguous copy of the kept columns lets the full U be freed
    u = np.ascontiguousarray(u[:, :keep])
    fix_svd_signs(u, vt[:keep])
    return PodFactor(vectors=u, singular_values=sv, shape=s.data.shape, param=s.param)


def truncate_pod(f, p):
    """Mode-p POD from a factor: its p leading signed left singular vectors.

    Raises ParameterError outside [1, q] or beyond the modes the factor
    keeps, DegenerateRankError when the rank is below p, and flags (without
    failing) a degenerate gap sigma_p = sigma_{p+1}.
    """
    n, n_t = f.shape
    sv = f.singular_values
    q = sv.size
    if not 1 <= p <= q:
        raise ParameterError(f"mode p={p} out of range [1, {q}] for a {n}x{n_t} matrix")
    if p > f.vectors.shape[1]:
        raise ParameterError(f"mode p={p} exceeds the {f.vectors.shape[1]} modes the factor keeps")
    rank_tol = max(n, n_t) * np.finfo(float).eps * sv[0]
    rank = int(np.sum(sv > rank_tol))
    if rank < p:
        raise DegenerateRankError(
            f"snapshot matrix has rank {rank} < requested mode p={p}; the minimizer is not unique"
        )
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
