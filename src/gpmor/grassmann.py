"""Riemannian geometry of the Grassmann manifold G(p, n).

Points are orthonormal n x p frames (any frame of the same column span
represents the same point). Tangent vectors are carried by horizontal lifts,
i.e. n x p matrices Z with Z^T Y = 0. The module provides the exponential and
logarithm maps, geodesics, principal angles, the two subspace distances, and
the cut-locus / injectivity-radius predicates used by the stability checks.

Only the 2p <= n regime is supported by exp/log; inputs outside it are
rejected.
"""

import numpy as np

from . import kernels
from .errors import (
    CutTimeUndefinedError,
    LogMapDomainError,
    ParameterError,
    TangentDomainError,
)
from .record import Record

# Frames may drift from orthonormality by this much before we silently
# re-orthonormalize; past FRAME_REJECT_TOL the input is considered corrupt.
FRAME_FIX_TOL = 1e-12
FRAME_REJECT_TOL = 1e-6
HORIZONTAL_TOL = 1e-10
# Overlap matrices with a smaller relative singular value are treated as
# singular (C1 failure) instead of being regularized. Derived from
# HORIZONTAL_TOL: the log-map lift leaves the horizontal space by up to
# 3e-16 / (sigma_min / sigma_max) (measured on random pairs near the cut
# locus), so every overlap this admits keeps |Z^T Y| a decade below
# HORIZONTAL_TOL; at 1e-6 one pair in 28000 already crossed it.
# A ratio cannot see an overlap that is all rounding: when every principal
# angle is pi/2 all singular values are ~1e-17 and pass it. Each entry of the
# p x p overlap of two orthonormal n x p frames is an inner product of unit
# vectors, computed to within gamma_n ~ n u (Higham, Accuracy and Stability
# of Numerical Algorithms, 2002, eq. 3.5; u = eps / 2), so the overlap is
# known to p n u in the 2-norm. C1 therefore also asks that sigma_min carry
# that rounding to the same relative OVERLAP_SINGULAR_TOL: sigma_min >=
# p n u / OVERLAP_SINGULAR_TOL, 1.1e-7 for n = 1000, p = 10.
OVERLAP_SINGULAR_TOL = 1e-5
# Strict C2 margin: theta_1 >= pi/2 - C2_MARGIN is reported unstable so the
# verdict cannot flap on the exact boundary.
C2_MARGIN = 1e-12


def fix_svd_signs(u, vt):
    """Make a thin SVD deterministic: in each left singular vector the entry of
    largest magnitude (first on ties) is forced positive, flipping the matching
    right singular vector so the product is unchanged."""
    for j in range(u.shape[1]):
        k = int(np.argmax(np.abs(u[:, j])))
        if u[k, j] < 0.0:
            u[:, j] = -u[:, j]
            vt[j, :] = -vt[j, :]
    return u, vt


def deterministic_qr(mat):
    """Q factor of a reduced QR with every nonzero diagonal entry of R made
    positive (a zero entry leaves its column as is): one frame per input."""
    q, r = np.linalg.qr(mat)
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    return q * signs


def _frozen_float(a):
    """`a` as a read-only float64 array. An aligned, contiguous, read-only
    float64 array over which no writeable array lies (a binary read's
    payload, a factor's leading vectors) is kept as is; anything else is
    copied once and the copy frozen, so a caller's writeable array is never
    frozen or shared. An unaligned or strided view is copied too: BLAS calls
    on one run slower, and may round otherwise than on its copy."""
    keep = (isinstance(a, np.ndarray) and a.dtype == np.float64 and a.flags.aligned
            and (a.flags.c_contiguous or a.flags.f_contiguous))
    base = a
    while keep and isinstance(base, np.ndarray):
        keep = not base.flags.writeable
        base = base.base
    if keep:
        return a
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def overlap_invertible(sv, n):
    """C1 predicate on the singular values (descending) of the p x p overlap
    Y^T Y' of two orthonormal n x p frames: the smallest is at least
    OVERLAP_SINGULAR_TOL times the largest and clears the overlap's rounding
    floor p n u / OVERLAP_SINGULAR_TOL."""
    floor = sv.size * n * np.finfo(float).eps / 2.0 / OVERLAP_SINGULAR_TOL
    return bool(sv[-1] >= max(OVERLAP_SINGULAR_TOL * sv[0], floor))


def below_cut_locus(angle):
    """C2 predicate: `angle` stays below pi/2 by more than C2_MARGIN.

    A scalar gives a bool; an array gives a boolean array of the same shape,
    one verdict per element. A nan angle fails.
    """
    verdict = np.less(angle, np.pi / 2.0 - C2_MARGIN)
    return verdict if verdict.ndim else bool(verdict)


class GrassmannPoint(Record):
    """A point of G(p, n) represented by an orthonormal n x p frame."""

    frame: np.ndarray

    def __post_init__(self):
        frame = _frozen_float(self.frame)
        if frame.ndim != 2:
            raise ParameterError(f"frame must be a 2-D matrix, got ndim={frame.ndim}")
        n, p = frame.shape
        if p < 1 or n < 1 or p > n:
            raise ParameterError(f"invalid frame shape {n}x{p} (need 1 <= p <= n)")
        if not np.all(np.isfinite(frame)):
            raise ParameterError("frame contains non-finite entries")
        drift = np.max(np.abs(frame.T @ frame - np.eye(p)))
        if drift > FRAME_REJECT_TOL:
            raise ParameterError(
                f"frame is not orthonormal (max deviation {drift:.3e} > {FRAME_REJECT_TOL:g})"
            )
        if drift > FRAME_FIX_TOL:
            frame = deterministic_qr(frame)
            frame.setflags(write=False)
        object.__setattr__(self, "frame", frame)

    @property
    def n(self):
        return self.frame.shape[0]

    @property
    def p(self):
        return self.frame.shape[1]


class TangentVector(Record):
    """A tangent vector at `base`, stored as its horizontal lift (Z^T Y = 0,
    every entry within `horizontal_tol`)."""

    base: GrassmannPoint
    lift: np.ndarray
    horizontal_tol: float = HORIZONTAL_TOL

    def __post_init__(self):
        lift = _frozen_float(self.lift)
        if lift.shape != self.base.frame.shape:
            raise ParameterError(
                f"lift shape {lift.shape} does not match base frame shape {self.base.frame.shape}"
            )
        if not np.all(np.isfinite(lift)):
            raise ParameterError("lift contains non-finite entries")
        horiz = np.max(np.abs(lift.T @ self.base.frame)) if lift.size else 0.0
        if horiz > self.horizontal_tol:
            raise TangentDomainError(
                f"lift is not horizontal at base (max |Z^T Y| = {horiz:.3e})"
            )
        object.__setattr__(self, "lift", lift)

    @property
    def theta_max(self):
        """Largest singular value of the lift (the angle driving the C2
        check), read by the sweep kernel as one node of weight 1."""
        return float(kernels.theta_curve(self.lift[np.newaxis], (0.0,), (0.0,))[0])

    @property
    def norm(self):
        """Riemannian norm, sqrt of the sum of squared singular values."""
        return float(np.linalg.norm(self.lift, "fro"))


def _require_same_ambient(a, b):
    if a.n != b.n:
        raise ParameterError(f"ambient dimensions differ: {a.n} != {b.n}")


def _require_half_dimension(point):
    if 2 * point.p > point.n:
        raise ParameterError(
            f"exp/log maps require 2p <= n, got p={point.p}, n={point.n}"
        )


def exp_map(base, v):
    """Exponential map: follow the geodesic with initial velocity v for unit time.

    With the thin SVD Z = U diag(theta) V^T of the horizontal lift, the endpoint
    frame is Y V cos(theta) + U sin(theta).
    """
    return geodesic(base, v, 1.0)


def geodesic(base, v, t):
    """Point at parameter t on the maximal geodesic from `base` with velocity v."""
    if v.base is not base and not np.array_equal(v.base.frame, base.frame):
        raise ParameterError("tangent vector is not based at the given point")
    _require_half_dimension(base)
    u, theta, vt = np.linalg.svd(v.lift, full_matrices=False)
    # the signs choose the frame's columns, so they are fixed
    fix_svd_signs(u, vt)
    tt = t * theta
    # the frame is formed in u's own storage: one n x p array fewer alive
    u *= np.sin(tt)
    u += base.frame @ (vt.T * np.cos(tt))
    # frozen, so the GrassmannPoint keeps it without a copy
    u.setflags(write=False)
    return GrassmannPoint(u)


def log_lift(base, targets, n):
    """The (N, p) singular values of the overlaps Y^T Y_i' of the m x p frame
    `base` with each frame of the (N, m, p) stack `targets` and, when every
    row passes overlap_invertible at the ambient dimension n (m = n, or m
    coordinates of a subspace holding the frames), the (N, m, p) log-map
    lifts: thin SVDs of Y_i' (Y^T Y_i')^{-1} - Y, arctan on their singular
    values. Else None. A lift off the horizontal space by more than
    HORIZONTAL_TOL is a TangentDomainError."""
    overlaps = np.matmul(base.T, targets)
    svs = np.linalg.svd(overlaps, compute_uv=False)
    if not all(overlap_invertible(sv, n) for sv in svs):
        return svs, None
    mats = np.linalg.solve(overlaps.transpose(0, 2, 1), targets.transpose(0, 2, 1))
    mats = mats.transpose(0, 2, 1) - base
    # no sign fix: flipping u_j and v_j together leaves every product, and
    # so the lift, bit for bit the same
    u, s, vt = np.linalg.svd(mats, full_matrices=False)
    lifts = np.matmul(u * np.arctan(s)[:, np.newaxis], vt)
    horiz = np.max(np.abs(np.matmul(lifts.transpose(0, 2, 1), base)))
    if horiz > HORIZONTAL_TOL:
        raise TangentDomainError(f"lift is not horizontal at base (max |Z^T Y| = {horiz:.3e})")
    return svs, lifts


def log_map(base, target):
    """Logarithm map: the velocity whose geodesic reaches `target` at unit time.

    Raises LogMapDomainError when the overlap Y^T Y' is singular at tolerance
    (the C1 failure mode); see log_lift.
    """
    _require_same_ambient(base, target)
    if base.p != target.p:
        raise ParameterError(f"mode mismatch: p={base.p} vs p'={target.p}")
    _require_half_dimension(base)
    [sv], lifts = log_lift(base.frame, target.frame[np.newaxis], base.n)
    if lifts is None:
        raise LogMapDomainError(
            "target lies outside the log-map domain: overlap matrix is singular "
            f"(min/max singular values {sv[-1]:.3e}/{sv[0]:.3e})"
        )
    # frozen, so the TangentVector keeps its row without a copy
    lifts.setflags(write=False)
    return TangentVector(base=base, lift=lifts[0])


def principal_angles(a, b):
    """Jordan principal angles between the subspaces spanned by a and b.

    The subspace dimensions may differ. Returns the min(p, p') angles as a
    read-only float64 array, non-increasing, each in [0, pi/2]. Cosines are
    clamped to [0, 1] before arccos.

    Angles below pi/4 are recovered from the sine form (singular values of
    the residual after projecting one frame onto the other): arccos alone
    loses half the working precision near zero angle.
    """
    _require_same_ambient(a, b)
    overlap = a.frame.T @ b.frame
    r = min(a.p, b.p)
    cosines = np.clip(np.linalg.svd(overlap, compute_uv=False), 0.0, 1.0)
    residual = b.frame - a.frame @ overlap
    sines = np.sort(np.linalg.svd(residual, compute_uv=False))[:r]
    sines = np.clip(sines, 0.0, 1.0)
    # ascending angles: sines ascending align with cosines descending
    small = sines * sines <= 0.5
    ascending = np.where(small, np.arcsin(sines), np.arccos(cosines))
    return _frozen_float(ascending[::-1])


def riemannian_distance(a, b):
    """Geodesic distance on G(p, n): sqrt of the sum of squared principal angles."""
    _require_same_ambient(a, b)
    if a.p != b.p:
        raise ParameterError(
            f"riemannian_distance needs equal subspace dimensions ({a.p} != {b.p}); "
            "use geometric_distance for unequal dimensions"
        )
    return float(np.linalg.norm(principal_angles(a, b)))


# Angles below this are treated as exact inclusion when comparing subspaces of
# different dimensions.
INCLUSION_ANGLE_TOL = 1e-8


def geometric_distance(a, b):
    """Non-inclusion defect between subspaces of possibly different dimensions.

    Root-sum-square of the min(p, p') principal angles; zero exactly when the
    smaller subspace is contained in the larger one (angles below
    INCLUSION_ANGLE_TOL count as zero).
    """
    angles = principal_angles(a, b).copy()
    angles[angles < INCLUSION_ANGLE_TOL] = 0.0
    return float(np.linalg.norm(angles))


def diameter(p, n):
    """Maximum distance between two points of G(p, n): sqrt(min(p, n-p)) * pi/2."""
    if p < 1 or p > n:
        raise ParameterError(f"need 1 <= p <= n, got p={p}, n={n}")
    return float(np.sqrt(min(p, n - p)) * np.pi / 2.0)


def cut_time(v):
    """Time at which the geodesic with velocity v stops being minimizing: pi / (2 theta_1)."""
    theta1 = v.theta_max
    if theta1 == 0.0:
        raise CutTimeUndefinedError("cut time is undefined for the zero velocity vector")
    return float(np.pi / (2.0 * theta1))


class InjectivityCheck(Record):
    """Verdicts of the two exponential-map injectivity criteria for one vector."""

    cut_locus_ok: bool
    radius_ok: bool
    theta1: float
    norm: float


def in_injectivity_domain(v):
    """Check a tangent vector against both injectivity criteria.

    cut_locus_ok: largest lift singular value theta_1 < pi/2 (the sharp
    criterion). radius_ok: riemannian norm < pi/2 (the classical injectivity
    radius, strictly more conservative). Both use below_cut_locus, so with
    theta_1 <= norm the radius verdict still implies the cut-locus one.
    """
    theta1 = v.theta_max
    norm = v.norm
    return InjectivityCheck(
        cut_locus_ok=below_cut_locus(theta1),
        radius_ok=below_cut_locus(norm),
        theta1=theta1,
        norm=norm,
    )
