"""Snapshot matrices and truncated POD bases.

A snapshot matrix stacks the discretized space-time field of one parameter
value column by column (n spatial DOFs x n_t time steps). POD extracts the
leading left singular subspace, which is a point on G(p, n). A snapshot is
factored through the min(n, n_t) x n_t triangle of its QR (the R-SVD of
T. F. Chan, ACM TOMS 8, 1982) and only the kept left singular vectors are
formed, from S and the right ones. The triangle is folded from row blocks of
S (TSQR: Demmel, Grigori, Hoemmen & Langou, SIAM J. Sci. Comput. 34, 2012),
so a tall snapshot streamed from a file is never held whole; a wide one is
one block. A snapshot in memory is folded from copies of the same row
blocks, so both give the same bits.
"""

import math
import os
import re
import warnings

import numpy as np

from .errors import DataError, DegenerateRankError, ParameterError
from .grassmann import GrassmannPoint, _frozen_float, fix_svd_signs
from .record import Record

# Relative gap sigma_p - sigma_{p+1} below which the minimizing subspace is
# flagged as non-unique.
UNIQUENESS_GAP_TOL = 1e-10


def _finite_param(value):
    """A record's parameter lambda as a float; NaN or infinite is a DataError."""
    value = float(value)
    if not math.isfinite(value):
        raise DataError(f"snapshot parameter lambda={value} is not finite")
    return value


class SnapshotMatrix(Record):
    """Real n x n_t matrix of field samples at one parameter value."""

    data: np.ndarray
    param: float = 0.0

    def __post_init__(self):
        data = _frozen_float(self.data)
        if data.ndim != 2:
            raise ParameterError(f"snapshot data must be 2-D, got ndim={data.ndim}")
        if data.shape[0] < 1 or data.shape[1] < 1:
            raise ParameterError(f"snapshot data must be non-empty, got shape {data.shape}")
        # min and max propagate nan and reach +-inf, and unlike isfinite they
        # make no n x n_t temporary
        if not (np.isfinite(data.min()) and np.isfinite(data.max())):
            raise DataError("snapshot data contains non-finite entries")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "param", _finite_param(self.param))

    @property
    def n(self):
        return self.data.shape[0]

    @property
    def n_t(self):
        return self.data.shape[1]


class PodResult(Record):
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


class PodFactor(Record):
    """The full singular spectrum of a snapshot matrix and its leading signed
    left singular vectors, F-ordered, ready to truncate to any mode up to
    the number of vectors it keeps."""

    vectors: np.ndarray
    singular_values: np.ndarray
    shape: tuple
    param: float

    def __post_init__(self):
        for name in ("vectors", "singular_values"):
            object.__setattr__(self, name, _frozen_float(getattr(self, name)))
        object.__setattr__(self, "param", _finite_param(self.param))


def _numerical_rank(sv, shape):
    """Number of singular values above max(n, n_t) * eps * sigma_1."""
    return int(np.sum(sv > max(shape) * np.finfo(float).eps * sv[0]))


def kept_modes(sv, shape, max_mode):
    """Number of left singular vectors factor_pod keeps at max_mode for a
    matrix of `shape` with spectrum sv: min(max_mode, numerical rank), >= 0."""
    return min(max(int(max_mode), 0), _numerical_rank(sv, shape))


# Version of the bits factor_pod returns. fileio's factor cache keys on it, so
# any change that can move a bit of a factor (its QR or SVD, the row blocks,
# the Gram-Schmidt passes, fix_svd_signs, _numerical_rank or kept_modes) must
# bump it, or old cache entries keep being served. 2: a tall snapshot of more
# than one row block is folded block by block. 3: a tall snapshot of one row
# block is factored from its row_blocks copy too, not from the array as
# read, so a CSV snapshot gives its binary twin's bits. 4: a wide or square
# snapshot is factored through its row-block triangle too, not by an SVD of
# itself, and its vectors are F-ordered.
POD_FACTOR_VERSION = 4


def _blas_threads(environ, cpus):
    """The thread count OpenBLAS starts with on `cpus` usable CPUs: the first of
    OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS and OMP_NUM_THREADS that C's atoi
    reads as positive, at most `cpus`, else `cpus`. A count set at run time
    (threadpoolctl) is not seen."""
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = re.match(r"\s*([+-]?\d+)", environ.get(name, ""))
        if value and int(value[1]) > 0:
            return min(int(value[1]), cpus)
    return cpus


# A threaded BLAS may sum in another order, so the factor's last bits depend
# on the thread count too. OpenBLAS read the environment when numpy loaded it.
BLAS_THREADS = _blas_threads(os.environ, len(os.sched_getaffinity(0))
                             if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)

# Bytes of snapshot rows held at once where a tall matrix is factored: a row
# block of a snapshot, in memory or streamed from its file (a wide or square
# one is one block). synth builds its snapshots in smaller row blocks, of
# synth.BLOCK_BYTES. Factoring holds
# about three blocks (the block, [R; block] and LAPACK's copy of it) beside
# the triangle and the kept vectors. On a 200000 x 100 snapshot (2 vCPUs,
# OpenBLAS) a factor took 0.83-0.90 s from 6 to 12 MB blocks, 1.15 s at
# 4 MB, 1.45 s at 2 MB and 1.03 s at 16 MB, against 1.16 s for one QR of the
# whole matrix. At 8 MB a snapshot of up to 5242 rows at 200 columns is one
# block.
STREAM_BYTES = 8 << 20


def row_blocks(n, n_t, fill):
    """The row blocks of an n x n_t matrix S in order, each an F-ordered view
    of one reused buffer that fill(view, start) sets to rows start.. of S.
    The buffer holds little-endian f64, as binary snapshot files do. Every
    block but the last has the rows that fit in STREAM_BYTES, and at least
    n_t, so folding a block into the n_t x n_t triangle costs little beyond
    the block's own QR."""
    rows = min(n, max(n_t, STREAM_BYTES // (8 * n_t)))
    buf = np.empty((rows, n_t), dtype="<f8", order="F")
    for start in range(0, n, rows):
        view = buf[: min(rows, n - start)]
        fill(view, start)
        yield view


def fold_triangle(blocks):
    """R of the QR of the matrix whose row blocks `blocks` yields in order,
    folded block by block as R = qr([R; block]), so one block alone is
    exactly qr(S, mode="r"), an n x n_t trapezoid when n < n_t."""
    r = None
    for block in blocks:
        r = np.linalg.qr(block if r is None else np.vstack((r, block)), mode="r")
    return r


def factor_rows(blocks, shape, param, max_mode):
    """factor_pod of the matrix S of `shape` given by its row blocks: each
    call blocks() makes one pass, yielding them in order.

    The first pass folds the blocks into the triangle R (fold_triangle);
    one SVD of R gives the full spectrum sigma and the right vectors v_j.
    The second pass forms each kept u_j = S v_j / sigma_j block by block,
    one matrix-vector product per block, and two passes of classical
    Gram-Schmidt re-orthonormalise u_j against u_1..u_{j-1}. Column j is
    bitwise the same for every max_mode >= j. The arrays come back frozen.
    """
    _, sv, vt = np.linalg.svd(fold_triangle(blocks()), full_matrices=False)
    keep = kept_modes(sv, shape, max_mode)
    u = np.empty((shape[0], keep), order="F")
    start = 0
    for block in blocks():
        stop = start + block.shape[0]
        for j in range(keep):
            u[start:stop, j] = block @ vt[j] / sv[j]
        start = stop
    # the pass's last block holds its buffer: dropped before the
    # Gram-Schmidt loop, so one buffer is alive at a time
    del block
    for j in range(keep):
        w = u[:, j].copy()
        for _ in range(2):
            w -= u[:, :j] @ (u[:, :j].T @ w)
            w /= np.linalg.norm(w)
        u[:, j] = w
    fix_svd_signs(u, vt[:keep])
    u.setflags(write=False)
    sv.setflags(write=False)
    return PodFactor(vectors=u, singular_values=sv, shape=shape, param=param)


def factor_pod(s, max_mode):
    """POD factor of s keeping min(max_mode, rank) left singular vectors:
    factor_rows on copies of its row blocks, the buffer a binary file's
    blocks are read into, so the bits do not depend on the memory order or
    the format s came in. Column j is bitwise the same for every
    max_mode >= j. Signs follow fix_svd_signs. Vectors beyond the numerical
    rank are not formed: their sigma_j is noise.
    """
    data = s.data
    n, n_t = data.shape

    def copy_rows(view, start):
        view[...] = data[start:start + len(view)]

    return factor_rows(lambda: row_blocks(n, n_t, copy_rows), data.shape, s.param, max_mode)


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
