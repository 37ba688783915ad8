"""Lagrange interpolation of POD bases on G(p, n) with C1/C2 gates.

The pipeline: from the reference node the call names, stability.tangent_step
maps every training point to its tangent space (C1 gate: all overlaps
invertible); the lifts are combined with Lagrange weights, the largest
singular value of the combined lift is checked against pi/2 (C2 gate), and
the result is exponentiated back to the manifold. A TrainingSet is only data;
interpolate's reference defaults to the node nearest the target.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kernels
from .errors import ParameterError
from .grassmann import (
    FRAME_REJECT_TOL,
    HORIZONTAL_TOL,
    GrassmannPoint,
    TangentVector,
    below_cut_locus,
    geodesic,
)
from .stability import C1Record, C2Record, check_c2, tangent_step


def lagrange_weights(params, target):
    """Lagrange cardinal weights at `target` for the given distinct nodes."""
    params = [float(x) for x in params]
    if len(set(params)) != len(params):
        raise ParameterError("interpolation nodes must be pairwise distinct")
    return kernels.lagrange_matrix(params, [float(target)])[0].tolist()


@dataclass(frozen=True)
class TrainingSet:
    """Training points (parameter, subspace) sharing one mode p."""

    points: tuple

    def __post_init__(self):
        points = tuple((float(lam), pt) for lam, pt in self.points)
        if not points:
            raise ParameterError("training set is empty")
        params = [lam for lam, _ in points]
        if len(set(params)) != len(params):
            raise ParameterError("training parameters must be pairwise distinct")
        n = points[0][1].n
        p = points[0][1].p
        for lam, pt in points:
            if pt.n != n or pt.p != p:
                raise ParameterError(
                    f"all training points must share n and p; got {pt.n}x{pt.p} vs {n}x{p}"
                )
        if 2 * p > n:
            raise ParameterError(f"interpolation requires 2p <= n, got p={p}, n={n}")
        object.__setattr__(self, "points", points)

    @property
    def params(self):
        return [lam for lam, _ in self.points]

    @property
    def mode(self):
        return self.points[0][1].p

    @property
    def n(self):
        return self.points[0][1].n


@dataclass(frozen=True)
class InterpolationResult:
    """Outcome of one interpolation: the velocity and frame when stable, and
    the C1/C2 records either way (c2 is None when C1 failed, since no lift
    exists)."""

    target_param: float
    reference_index: int
    c1: C1Record
    c2: Optional[C2Record] = None
    frame: Optional[GrassmannPoint] = None
    velocity: Optional[TangentVector] = None
    extrapolated: bool = False

    @property
    def ok(self):
        return self.frame is not None


def interpolate(ts, target, reference_index=None):
    """Interpolate the training subspaces at `target` from the reference node
    `reference_index`, by default the node nearest the target.

    On a C1 failure the result carries the C1 record with every offending
    index and no lift; on a C2 failure (largest combined-lift angle at or past
    pi/2 - C2_MARGIN) it carries the C2 record and no velocity or frame.
    Neither is raised as an exception: both are verdicts the caller is
    expected to inspect. C2 is judged on the combined lift before it becomes
    a TangentVector, so a target past the cut locus gets the C2 verdict
    however far outside the hull it lies, not the horizontality check's
    error on the weights' rounding. A target that passes C2 with weights so
    large that their rounding would break the frame is a ParameterError.
    """
    target = float(target)
    ref = reference_index
    if ref is None:
        ref = int(np.argmin([abs(lam - target) for lam in ts.params]))
    extrapolated = not (min(ts.params) <= target <= max(ts.params))
    c1, lifts = tangent_step(ts, ref)
    if lifts is None:
        return InterpolationResult(target, ref, c1, extrapolated=extrapolated)
    weights = lagrange_weights(ts.params, target)
    combined = np.zeros_like(lifts[0])
    for w, z in zip(weights, lifts):
        combined += w * z
    c2 = check_c2(combined)
    if not c2.ok:
        return InterpolationResult(target, ref, c1, c2, extrapolated=extrapolated)
    # far extrapolation weights amplify the lifts' rounding: the geodesic's
    # frame leaves orthonormality by about sum |w_i| * eps (measured 0.6 to
    # 1.13 times that), so past half the frame tolerance it is an input error
    # named by its weights, not a frame that GrassmannPoint rejects
    spread = sum(map(abs, weights))
    if spread * np.finfo(float).eps > FRAME_REJECT_TOL / 2:
        raise ParameterError(
            f"target {target} needs Lagrange weights with sum |w_i| = {spread:.3e}; their "
            f"rounding would leave the frame beyond its tolerance {FRAME_REJECT_TOL:g}"
        )
    base = ts.points[ref][1]
    # each lift passed HORIZONTAL_TOL in tangent_step, so their combination leaves
    # the horizontal space by at most sum |w_i| times that
    tol = HORIZONTAL_TOL * max(1.0, spread)
    velocity = TangentVector(base=base, lift=combined, horizontal_tol=tol)
    frame = geodesic(base, velocity, 1.0)
    return InterpolationResult(target, ref, c1, c2, frame, velocity, extrapolated)


@dataclass(frozen=True)
class C2Sweep:
    """theta_1 on a uniform grid from one reference, with the C1 record there.
    The lifts do not depend on lambda: on a C1 failure every theta is nan."""

    grid: np.ndarray
    thetas: np.ndarray
    c1: C1Record

    @property
    def c2_ok(self):
        """Per-sample C2 verdicts; False wherever theta is nan."""
        return [below_cut_locus(th) for th in self.thetas]

    def unstable_intervals(self):
        """[first, last] grid value of each maximal run of C2-failing samples; none if C1 failed."""
        # padded with passing samples, the flips alternate: run start, one past its end
        bad = np.r_[False, np.logical_not(self.c2_ok) & self.c1.ok, False]
        runs = np.flatnonzero(bad[1:] != bad[:-1]).reshape(-1, 2)
        return [[self.grid[a].item(), self.grid[b - 1].item()] for a, b in runs]


def c2_sweep(ts, lo, hi, samples, reference_index):
    """Stability curve theta_1(lambda) from the reference node
    `reference_index` on a uniform grid including both endpoints.

    A C1 failure does not abort the sweep: it is the record's verdict.
    """
    lo = float(lo)
    hi = float(hi)
    samples = int(samples)
    if samples < 2:
        raise ParameterError(f"need at least 2 sweep samples, got {samples}")
    if not 0.0 < hi - lo < np.inf:  # also refuses a non-finite bound or width
        raise ParameterError(f"need finite lo < hi, got [{lo}, {hi}]")
    grid = np.linspace(lo, hi, samples)
    c1, lifts = tangent_step(ts, reference_index)
    if lifts is None:
        return C2Sweep(grid, np.full(samples, np.nan), c1)
    return C2Sweep(grid, kernels.theta_curve(lifts, np.asarray(ts.params), grid), c1)
