"""Lagrange interpolation of POD bases on G(p, n) with C1/C2 gates.

The pipeline: from the reference node the call names, stability.tangent_step
maps every training point to its tangent space (C1 gate: all overlaps
invertible), in coordinates of the node bases' joint span; the largest
singular value of their Lagrange combination is read from the sweep kernel
and checked against pi/2 (C2 gate), and only then is the combined lift
formed, exponentiated back to the manifold and mapped to n x p. A
TrainingSet is only data; interpolate's reference defaults to the node
nearest the target.
"""

from functools import cached_property, reduce
from typing import Optional

import numpy as np

from . import kernels
from .errors import ParameterError
from .grassmann import (
    FRAME_REJECT_TOL,
    HORIZONTAL_TOL,
    GrassmannPoint,
    TangentVector,
    _frozen_float,
    below_cut_locus,
    geodesic,
)
from .record import Record
from .stability import C1Record, C2Record, tangent_step


def weight_bound(weights):
    """(Lambda, past) along the last axis of `weights`: the Lebesgue function
    Lambda = sum_i |w_i|, summed in node order, and whether
    Lambda * eps > FRAME_REJECT_TOL / 2. Far-extrapolation or many-node
    weights amplify the lifts' rounding: an interpolated frame leaves
    orthonormality by about Lambda * eps (measured 0.6 to 1.13 times that),
    so past the bound the weights cannot give a frame within its tolerance."""
    spread = reduce(np.add, np.abs(weights).T)
    return spread, spread * np.finfo(float).eps > FRAME_REJECT_TOL / 2


def lagrange_weights(params, target):
    """Lagrange cardinal weights at `target` for the given distinct nodes."""
    return kernels.lagrange_matrix(params, [float(target)])[0].tolist()


class TrainingSet(Record):
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


class InterpolationResult(Record):
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
    expected to inspect. C2 is judged by c2_sweep's kernel, bit for bit as a
    sweep from the same reference judges the same lambda, before the combined
    lift exists, so a target past the cut locus gets the C2 verdict however
    far outside the hull it lies, not the horizontality check's error on the
    weights' rounding. A target that passes C2 with weights so large that
    their rounding would break the frame is a ParameterError; so is a
    non-finite target, or one whose weights overflow, before any step.
    """
    target = float(target)
    weights = lagrange_weights(ts.params, target)
    ref = reference_index
    if ref is None:
        ref = int(np.argmin([abs(lam - target) for lam in ts.params]))
    extrapolated = not (min(ts.params) <= target <= max(ts.params))
    c1, step = tangent_step(ts, ref)
    if step is None:
        return InterpolationResult(target, ref, c1, extrapolated=extrapolated)
    theta = kernels.theta_curve(step.lifts, ts.params, [target])[0]
    spread, past = weight_bound(weights)
    # past the weight bound but below the cut locus it is an input error named
    # by its weights, not a frame that GrassmannPoint rejects
    if past and below_cut_locus(theta):
        raise ParameterError(
            f"target {target} needs Lagrange weights with sum |w_i| = {spread:.3e}; their "
            f"rounding would leave the frame beyond its tolerance {FRAME_REJECT_TOL:g}"
        )
    c2 = C2Record(ok=below_cut_locus(theta), theta_max=float(theta))
    if not c2.ok:
        return InterpolationResult(target, ref, c1, c2, extrapolated=extrapolated)
    combined = np.zeros_like(step.lifts[0])
    for w, z in zip(weights, step.lifts):
        combined += w * z
    # each lift passed HORIZONTAL_TOL in tangent_step, so their combination leaves
    # the horizontal space by at most sum |w_i| times that
    tol = HORIZONTAL_TOL * max(1.0, spread)
    end = geodesic(step.base, TangentVector(step.base, combined, tol), 1.0)
    both = step.ambient(np.hstack((end.frame, combined)))
    p = ts.mode
    frame = GrassmannPoint(both[:, :p])
    velocity = TangentVector(ts.points[ref][1], both[:, p:], tol)
    return InterpolationResult(target, ref, c1, c2, frame, velocity, extrapolated)


class C2Sweep(Record):
    """theta_1 on a uniform grid from one reference, with the C1 record there.
    theta is nan at an invalid sample: at every sample on a C1 failure (the
    lifts do not depend on lambda), and where a sample passes C2 with
    weights past weight_bound."""

    grid: np.ndarray
    thetas: np.ndarray
    c1: C1Record

    def __post_init__(self):
        # frozen, so the cached verdicts below cannot go stale
        for name in ("grid", "thetas"):
            object.__setattr__(self, name, _frozen_float(getattr(self, name)))

    @cached_property
    def _passed(self):
        # the whole grid's C2 verdicts, evaluated once for every reader
        return below_cut_locus(self.thetas)

    @property
    def c2_ok(self):
        """Per-sample C2 verdicts as Python bools; False wherever theta is nan."""
        return self._passed.tolist()

    @property
    def invalid_samples(self):
        """Number of samples whose theta is nan."""
        return int(np.isnan(self.thetas).sum())

    def unstable_intervals(self):
        """[first, last] grid value of each maximal run of C2-failing samples
        with a finite theta; none if C1 failed."""
        # padded with passing samples, the flips alternate: run start, one past its end
        bad = np.r_[False, ~self._passed & np.isfinite(self.thetas), False]
        runs = np.flatnonzero(bad[1:] != bad[:-1]).reshape(-1, 2)
        return [[self.grid[a].item(), self.grid[b - 1].item()] for a, b in runs]


def c2_sweep(ts, lo, hi, samples, reference_index):
    """Stability curve theta_1(lambda) from the reference node
    `reference_index` on a uniform grid including both endpoints.

    A C1 failure does not abort the sweep: it is the record's verdict. A
    sample that passes C2 with weights past weight_bound, where interpolate
    raises, gets theta nan.
    """
    lo = float(lo)
    hi = float(hi)
    samples = int(samples)
    if samples < 2:
        raise ParameterError(f"need at least 2 sweep samples, got {samples}")
    if not 0.0 < hi - lo < np.inf:  # also refuses a non-finite bound or width
        raise ParameterError(f"need finite lo < hi, got [{lo}, {hi}]")
    grid = np.linspace(lo, hi, samples)
    c1, step = tangent_step(ts, reference_index)
    if step is None:
        return C2Sweep(grid, np.full(samples, np.nan), c1)
    thetas = kernels.theta_curve(step.lifts, ts.params, grid)
    # a sample past the cut locus keeps its C2 verdict whatever its weights
    past = weight_bound(kernels.lagrange_matrix(ts.params, grid))[1]
    thetas[past & below_cut_locus(thetas)] = np.nan
    return C2Sweep(grid, thetas, c1)
