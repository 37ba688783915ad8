"""Independent reference implementations used to cross-check library results.

Each oracle is deliberately written with a different algorithm than the code
under test: the SVD oracle uses one-sided Jacobi rotations instead of LAPACK,
the Lagrange oracle uses the barycentric form instead of the product form, the
metric oracles use explicit Python loops instead of vectorized numpy, the
POD oracle takes one thin SVD of the whole snapshot matrix instead of the QR
triangle and back-projection the library uses, and the Grassmann
interpolation oracle works in the ambient n with Jacobi SVDs, a projected
log lift and barycentric weights, where the library works in the
coordinates of one fold of the node bases.
The synth-family oracles are the exception: they pin a generator's random
draw by replaying the same operations, so they match bit for bit on any
platform where the library does; `synth_files` writes their snapshots the old
whole-array way, as the reference for the streamed `synth`.
"""

import math
import struct

import numpy as np


def jacobi_svd(a, sweeps=60, tol=1e-14):
    """One-sided Jacobi SVD: returns (u, s, vt) with s non-increasing.

    Orthogonalizes the columns of `a` by pairwise plane rotations applied from
    the right; converges quadratically for well-separated singular values.
    """
    a = np.array(a, dtype=float)
    m, n = a.shape
    v = np.eye(n)
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                alpha = float(a[:, p] @ a[:, p])
                beta = float(a[:, q] @ a[:, q])
                gamma = float(a[:, p] @ a[:, q])
                off = max(off, abs(gamma) / math.sqrt(alpha * beta) if alpha * beta > 0 else 0.0)
                if gamma == 0.0:
                    continue
                zeta = (beta - alpha) / (2.0 * gamma)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.sqrt(1.0 + zeta * zeta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = c * t
                ap = a[:, p].copy()
                aq = a[:, q].copy()
                a[:, p] = c * ap - s * aq
                a[:, q] = s * ap + c * aq
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
        if off < tol:
            break
    s = np.linalg.norm(a, axis=0)
    order = np.argsort(-s)
    s = s[order]
    u = np.zeros((m, n))
    for j, k in enumerate(order):
        if s[j] > 0.0:
            u[:, j] = a[:, k] / s[j]
    v = v[:, order]
    return u, s, v.T


def barycentric_eval_weights(nodes, target):
    """Lagrange cardinal weights at `target` via the barycentric form."""
    nodes = [float(x) for x in nodes]
    target = float(target)
    bary = []
    for i, xi in enumerate(nodes):
        w = 1.0
        for j, xj in enumerate(nodes):
            if i != j:
                w /= xi - xj
        bary.append(w)
    for k, xk in enumerate(nodes):
        if target == xk:
            out = [0.0] * len(nodes)
            out[k] = 1.0
            return out
    terms = [b / (target - x) for b, x in zip(bary, nodes)]
    total = sum(terms)
    return [t / total for t in terms]


def grassmann_lagrange(frames, params, target, ref):
    """Lagrange interpolation of the n x p orthonormal `frames` on G(p, n) at
    `target` from node `ref`, all in the ambient n: (theta_1, frame).

    Node i's log lift is the Jacobi SVD U S V^T of the projected
    (I - Y_0 Y_0^T) Y_i (Y_0^T Y_i)^{-1}, the overlap inverted through its own
    Jacobi SVD, as U arctan(S) V^T; the lifts are combined with barycentric
    weights, and the combination U T V^T is mapped back by
    Y_0 V cos(T) + U sin(T).
    """
    y0 = np.asarray(frames[ref], dtype=float)
    combined = np.zeros_like(y0)
    for w, y in zip(barycentric_eval_weights(params, target), frames):
        y = np.asarray(y, dtype=float)
        ou, os_, ovt = jacobi_svd(y0.T @ y)
        u, s, vt = jacobi_svd((y - y0 @ (y0.T @ y)) @ ((ovt.T / os_) @ ou.T))
        combined += w * ((u * np.arctan(s)) @ vt)
    u, theta, vt = jacobi_svd(combined)
    return float(theta[0]), (y0 @ vt.T) * np.cos(theta) + u * np.sin(theta)


def naive_l2_series(approx, reference):
    """Column-by-column relative L2 errors using explicit loops."""
    n, n_t = reference.shape
    out = []
    for j in range(n_t):
        num = 0.0
        den = 0.0
        for i in range(n):
            d = approx[i][j] - reference[i][j]
            num += d * d
            den += reference[i][j] * reference[i][j]
        out.append(math.sqrt(num) / math.sqrt(den))
    return out


def naive_frobenius_error(approx, reference):
    """Global relative Frobenius error using explicit loops."""
    n, n_t = reference.shape
    num = 0.0
    den = 0.0
    for i in range(n):
        for j in range(n_t):
            d = approx[i][j] - reference[i][j]
            num += d * d
            den += reference[i][j] * reference[i][j]
    return math.sqrt(num) / math.sqrt(den)


def line_angle(y, z):
    """Angle between two lines (p = 1) from the absolute inner product."""
    y = np.asarray(y, dtype=float).ravel()
    z = np.asarray(z, dtype=float).ravel()
    c = abs(float(y @ z)) / (np.linalg.norm(y) * np.linalg.norm(z))
    return math.acos(min(c, 1.0))


def random_grassmann_point(rng, n, p):
    """Random orthonormal frame from a Gaussian matrix."""
    from gpmor import GrassmannPoint

    q, _ = np.linalg.qr(rng.standard_normal((n, p)))
    return GrassmannPoint(q)


def random_tangent(rng, base, theta1=None):
    """Random horizontal tangent vector at `base`, optionally with a fixed
    largest singular value."""
    from gpmor import TangentVector

    n, p = base.frame.shape
    z = rng.standard_normal((n, p))
    z -= base.frame @ (base.frame.T @ z)
    if theta1 is not None:
        u, s, vt = np.linalg.svd(z, full_matrices=False)
        s = s / s[0] * theta1
        z = (u * s) @ vt
    return TangentVector(base=base, lift=z)


def nonnested_snapshots(n, n_t, p, rate, seed, params, noise, expm_apply=None):
    """Snapshot data of a nonnested family drawn from an n x n ambient
    rotation, in the generator's draw order: the n x n Gaussian QR, the time
    profiles, the skew generators K1 (n x n) and K2 (n-2 x n-2, on the
    trailing ambient columns; a draw with zero norm stays zero), then one
    noise block per parameter. expm_apply(A, B) gives exp(A) @ B; it defaults
    to the generator's own `expm_skew`, so the replay is bitwise, and
    scipy.linalg.expm is the independent check."""
    from gpmor.synth import expm_skew

    expm_apply = expm_apply or expm_skew
    rng = np.random.default_rng(np.random.PCG64(seed))

    def frame(shape):
        q, r = np.linalg.qr(rng.standard_normal(shape))
        return q * np.where(np.diag(r) < 0.0, -1.0, 1.0)

    def skew(size):
        a = rng.standard_normal((size, size))
        k = a - a.T
        norm = np.linalg.norm(k, 2)
        return k / norm if norm else k

    ambient = frame((n, n))
    profiles = frame((n_t, p))
    k1 = skew(n) * rate
    w = ambient[:, 2:]
    k2 = w @ skew(n - 2) @ w.T * rate
    ladder = 10.0 * 0.5 ** np.arange(p)
    out = []
    for lam in params:
        directions = expm_apply(lam * k1 + lam * lam * k2, ambient[:, :p])
        out.append((directions * ladder) @ profiles.T + noise * rng.standard_normal((n, n_t)))
    return out


def scipy_expm_apply(a, b):
    """exp(a) @ b by scipy's scaling-and-squaring Pade expm."""
    from scipy.linalg import expm

    return expm(a) @ b


def turning_snapshots(n, n_t, p, rate, seed, params, noise, moving):
    """Snapshot data of a rotation, crossing or nested family, in the
    generator's draw order: the n x 2p Gaussian QR, the time profiles, then
    one noise block per parameter. Direction i is built on its own: the first
    `moving` directions turn by rate * lam inside the plane (b_2i, b_2i+1),
    the others are b_2i as drawn."""
    rng = np.random.default_rng(np.random.PCG64(seed))

    def frame(shape):
        q, r = np.linalg.qr(rng.standard_normal(shape))
        return q * np.where(np.diag(r) < 0.0, -1.0, 1.0)

    ambient = frame((n, 2 * p))
    profiles = frame((n_t, p))
    ladder = 10.0 * 0.5 ** np.arange(p)
    out = []
    for lam in params:
        angle = rate * lam
        cols = []
        for i in range(p):
            even, odd = ambient[:, 2 * i], ambient[:, 2 * i + 1]
            cols.append(np.cos(angle) * even + np.sin(angle) * odd if i < moving else even.copy())
        directions = np.column_stack(cols)
        out.append((directions * ladder) @ profiles.T + noise * rng.standard_normal((n, n_t)))
    return out


def synth_files(kind, n, n_t, p, rate, seed, params, noise):
    """{file name: bytes} of the snapshot files `synth --format both` writes,
    built whole: each snapshot from the oracles above, with one n x n_t noise
    draw per parameter, then written by snapshot_files."""
    if kind == "nonnested":
        snaps = nonnested_snapshots(n, n_t, p, rate, seed, params, noise)
    else:
        nested = kind == "nested"
        snaps = turning_snapshots(n, n_t, p, rate, seed, params,
                                  min(noise, 1e-10) if nested else noise, 1 if nested else p)
    return snapshot_files(params, snaps)


def snapshot_files(params, snaps):
    """{file name: bytes} of the binary and CSV files of the snapshot data
    `snaps` at `params`: each binary payload as one tobytes(order="F"), each
    CSV as one repr per value."""
    files = {}
    for i, (lam, data) in enumerate(zip(params, snaps)):
        n, n_t = data.shape
        files[f"snapshot_{i:03d}.gpm"] = (b"GPM1" + struct.pack("<QQd", n, n_t, lam)
                                          + np.asarray(data, dtype="<f8").tobytes(order="F"))
        rows = "".join(",".join(map(repr, row)) + "\n" for row in data.tolist())
        files[f"snapshot_{i:03d}.csv"] = f"# gpm-snapshot lambda={float(lam)!r}\n{rows}".encode()
    return files


def thin_svd_pod(data, p):
    """Mode-p POD from one LAPACK thin SVD of the whole snapshot matrix:
    (the p leading left singular vectors, the full spectrum)."""
    u, s, _ = np.linalg.svd(np.asarray(data, dtype=float), full_matrices=False)
    return u[:, :p], s
