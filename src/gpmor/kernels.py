"""Hot kernels for the C2 parameter sweep.

The sweep needs, for every grid parameter lam, the largest singular value of
the Lagrange-combined lift Z(lam) = sum_i w_i(lam) Z_i. Stacking the lifts as
S = [Z_1 ... Z_N] (n x Np) gives Z(lam) = S (w(lam) kron I_p), and with the
reduced QR factorisation S = QR the orthonormal Q drops out of the singular
values: sigma(Z(lam)) = sigma(R (w(lam) kron I_p)). One QR of S costs
O(n (Np)^2); every grid point is then a k x p problem with k = min(n, Np),
whatever n is.
"""

import numpy as np

from .errors import ParameterError

# Bytes of combined k x p blocks held at once; bounds the sweep's temporaries.
_BLOCK_BYTES = 16 << 20


def lagrange_matrix(node_params, targets):
    """Lagrange cardinal weights w[m, i] = prod_{j != i} (t_m - l_j) / (l_i - l_j).

    At an exact node t_m = l_i, every other weight has a zero factor and every
    factor of w[m, i] is exactly 1, so the row is exactly one-hot. A weight
    that is not finite (a non-finite target, or one so far out that the
    product overflows) is a ParameterError naming the first such target.
    """
    node_params = np.asarray(node_params, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    w = np.ones((targets.shape[0], node_params.shape[0]))
    with np.errstate(all="ignore"):
        for i, li in enumerate(node_params):
            for j, lj in enumerate(node_params):
                if i != j:
                    w[:, i] *= (targets - lj) / (li - lj)
    bad = targets[~np.isfinite(w).all(axis=1)]
    if bad.size:
        raise ParameterError(f"Lagrange weights at target {bad[0]} are not finite")
    return w


def active_backend():
    """Name of the sweep kernel's implementation, for benchmark records."""
    return "numpy"


def theta_curve(lifts, node_params, grid):
    """Largest singular value of the interpolated lift at each grid parameter.

    lifts: (N, n, p) stacked horizontal lifts at the training nodes.
    node_params: (N,) pairwise distinct training parameters.
    grid: (M,) target parameters.
    """
    lifts = np.asarray(lifts, dtype=np.float64)
    n_nodes, n, p = lifts.shape
    stacked = lifts.transpose(1, 0, 2).reshape(n, n_nodes * p)
    r = np.linalg.qr(stacked, mode="r")
    k = r.shape[0]
    # row i of blocks is R_i, the k x p slice of R that multiplies w_i, flattened
    blocks = r.reshape(k, n_nodes, p).transpose(1, 0, 2).reshape(n_nodes, k * p)
    weights = lagrange_matrix(node_params, grid)
    rows = max(1, _BLOCK_BYTES // (k * p * 8))
    out = np.empty(weights.shape[0])
    for start in range(0, weights.shape[0], rows):
        combined = (weights[start : start + rows] @ blocks).reshape(-1, k, p)
        out[start : start + rows] = np.linalg.svd(combined, compute_uv=False)[:, 0]
    return out
