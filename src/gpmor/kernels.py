"""The one theta_1 of gpmor: the C2 sweep kernel.

C2 needs, at a parameter lam, the largest singular value of the
Lagrange-combined lift Z(lam) = sum_i w_i(lam) Z_i. The sweep reads it at
every grid parameter, interpolate at its one target, and check_c2 and
TangentVector.theta_max for a single lift (one node, weight 1), all through
theta_curve, so every C2 verdict on one lambda has the same bits. The lifts
of a training set come in the m = max(min(n, NP), 2P) coordinates of one
fold of its node bases (TrainingSet.coords), a single lift as one
n x p matrix, so every grid point is one m x p matrix C = sum_i w_i Z_i,
whatever n is: no factorisation of the lift stack would shrink it. combine
forms C, here and for the lift interpolate exponentiates, so C2 judges that
very matrix (up to an exact power-of-two scaling) at any grid length.

theta_1 is read from the p x p Gram matrix of each C: theta_1 =
sqrt(lambda_max(C^T C)), from a batched symmetric eigensolver in place of a
batched SVD. Forming C costs O(m N p) per sample, C^T C O(m p^2) and its
eigenvalues O(p^3), so the theta_1 step is O(M (m p^2 + p^3)) for M grid
samples. The samples go through in blocks of at most _BLOCK_BYTES of
combined C, so the sweep's temporaries stay bounded whatever M is.

Accuracy: the combination C carries the Lagrange weights' rounding,
Lambda u max ||Z_i|| with Lambda = sum_i |w_i|, as the SVD route did. Its
Gram matrix adds an error of order m p u sigma_max^2 (from |C|^T |C|), and the
eigensolver one of order p u ||C^T C||: both are relative to sigma_max^2,
so the largest singular value loses nothing beyond O(u) sigma_max through
the normal equations (only the small ones would). The Gram matrix is formed
from the combined C on purpose. Precomputing the Gram blocks Z_i^T Z_j once
and summing sum_ij w_i w_j Z_i^T Z_j per sample would be cheaper, but its
rounding is u Lambda^2 max ||Z_i||^2 where the exact sum is sigma_max^2.
Where the weights cancel (lifts smooth in lam, far outside the nodes) and
Lambda is past about 1e6, that swamps theta_1.
Squaring also halves the exponent range: each sample's weights are first
divided by an exact power of two, so that C^T C neither overflows at a far
extrapolation nor underflows for tiny lifts, where the SVD needed no care.
"""

import numpy as np

from .errors import ParameterError

# Bytes of combined m x p matrices held at once. A block's C, its p x p Gram
# matrices (no larger when p <= m, as for every training set's lifts) and its
# eigenvalues are the grid loop's only temporaries, so they peak at about
# 2 * _BLOCK_BYTES whatever the grid size; beside them the kernel holds the
# M x N weights and the M results. At N = 9, n = 2000, p = 8 the kernel's time
# is flat from 128 KB to 16 MB blocks and rises below that, as per-block call
# overhead starts to count; 1 MB sits well inside the flat part.
_BLOCK_BYTES = 1 << 20


def lagrange_matrix(node_params, targets):
    """Lagrange cardinal weights w[m, i] = prod_{j != i} (t_m - l_j) / (l_i - l_j).

    At an exact node t_m = l_i, every other weight has a zero factor and every
    factor of w[m, i] is exactly 1, so the row is exactly one-hot. A weight
    that is not finite (a non-finite target, or one so far out that the
    product overflows) is a ParameterError naming the first such target, and
    nodes that are not pairwise distinct are a ParameterError.
    """
    node_params = np.asarray(node_params, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if np.unique(node_params).size != node_params.size:
        raise ParameterError("interpolation nodes must be pairwise distinct")
    w = np.ones((targets.shape[0], node_params.shape[0]))
    with np.errstate(all="ignore"):
        # one pass per j over every column: column i still takes its factors
        # in the order j = 0, 1, ..., and its own j = i factor is exactly 1
        for j, lj in enumerate(node_params):
            factor = (targets[:, np.newaxis] - lj) / (node_params - lj)
            factor[:, j] = 1.0
            w *= factor
    # a lone node's weight is the constant 1, finite even at a non-finite target
    bad = targets[~(np.isfinite(w).all(axis=1) & np.isfinite(targets))]
    if bad.size:
        raise ParameterError(f"Lagrange weights at target {bad[0]} are not finite")
    return w


def active_backend():
    """Name of the sweep kernel's implementation, for benchmark records."""
    return "numpy"


def combine(lifts, weights):
    """gpmor's one Lagrange combination: sum_i w_i Z_i of (N, m, p) `lifts`
    for each row of (M, N) `weights`, as (M, m, p). Each row is its own 1 x N
    by N x mp product, so its bits do not depend on M (as one product, one
    row would take numpy's matrix-vector path and more rows GEMM)."""
    n_nodes, m, p = lifts.shape
    weights = np.asarray(weights, dtype=np.float64)
    return np.matmul(weights[:, np.newaxis], lifts.reshape(n_nodes, m * p)).reshape(-1, m, p)


def theta_curve(lifts, node_params, grid):
    """Largest singular value of the interpolated lift at each grid parameter,
    from the Gram matrix of the combined lift (see the module docstring).

    lifts: (N, m, p) stacked horizontal lifts at the training nodes, in
        any one orthonormal basis of a subspace holding them.
    node_params: (N,) pairwise distinct training parameters.
    grid: (M,) target parameters.
    """
    lifts = np.asarray(lifts, dtype=np.float64)
    weights = lagrange_matrix(node_params, grid)
    # C's entries are at most N max|w_i| max|Z|. Dividing each sample's weights
    # by a power of two near that bound is exact and keeps C^T C clear of
    # overflow (far extrapolation) and underflow (tiny lifts); theta_1 is
    # scaled back by the same power.
    _, scale = np.frexp(np.abs(weights).max(axis=1))
    scale += np.frexp(np.abs(lifts).max())[1]
    weights = np.ldexp(weights, -scale[:, np.newaxis])
    rows = max(1, _BLOCK_BYTES // lifts[0].nbytes)
    out = np.empty(weights.shape[0])
    for start in range(0, weights.shape[0], rows):
        block = slice(start, start + rows)
        combined = combine(lifts, weights[block])
        gram = np.matmul(combined.transpose(0, 2, 1), combined)
        # rounding can leave a zero lift's eigenvalue a hair below zero
        top = np.linalg.eigvalsh(gram)[:, -1]
        out[block] = np.ldexp(np.sqrt(np.maximum(top, 0.0)), scale[block])
    return out
