"""Lagrange interpolation of POD bases on G(p, n) with C1/C2 gates.

The pipeline: the node bases are folded once per call, at the call's largest
mode (stability.node_coordinates), and every mode works on their coordinates
in that fold. From the reference node the call names, stability.tangent_step
maps every training point to its tangent space (C1 gate: all overlaps
invertible); the largest singular value of their Lagrange combination is
read from the sweep kernel and checked against pi/2 (C2 gate), and only then
is the combined lift formed and exponentiated back to the manifold.
interpolate_modes stops there, in coordinates; interpolate maps its one
frame to n x p. A TrainingSet is only data; the reference defaults to the
node nearest the target.
"""

from functools import cached_property, reduce
from typing import Optional

import numpy as np

from . import kernels
from .errors import GpmError, ParameterError
from .grassmann import (
    FRAME_REJECT_TOL,
    HORIZONTAL_TOL,
    GrassmannPoint,
    TangentVector,
    _frozen_float,
    below_cut_locus,
    geodesic,
)
from .record import Record, replace
from .snapshots import truncate_pod
from .stability import C1Record, C2Record, ambient, node_coordinates, tangent_step


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


def training_set(factors, modes):
    """(TrainingSet, leading modes, error) from POD factors: every mode, in
    order, passes through truncate_pod (range and rank errors, degenerate-gap
    warnings) and TrainingSet's checks until one fails. The set is the one at
    the largest of the modes before it, so that one fold serves them all, and
    error is the failing mode's (None if none fails). An error at the first
    mode is raised."""
    sets, error = [], None
    for p in modes:
        try:
            points = tuple((f.param, truncate_pod(f, p).basis) for f in factors)
            sets.append(TrainingSet(points=points))
        except GpmError as exc:
            if not sets:
                raise
            error = exc
            break
    return max(sets, key=lambda ts: ts.mode), modes[:len(sets)], error


def interpolate_modes(ts, coords, target, modes, reference_index=None):
    """interpolate at each mode p of `modes` (each at most ts.mode) from the
    node bases' mode-p truncations, on their coordinates `coords` in one fold
    of ts (stability.node_coordinates): a generator of InterpolationResults,
    in order, whose frame and velocity stay in those m coordinates, so a
    caller that stops at a failing mode judges no later one."""
    target = float(target)
    weights = lagrange_weights(ts.params, target)
    ref = reference_index
    if ref is None:
        ref = int(np.argmin([abs(lam - target) for lam in ts.params]))
    extrapolated = not (min(ts.params) <= target <= max(ts.params))
    spread, past = weight_bound(weights)
    # each lift passes HORIZONTAL_TOL in tangent_step, so their combination
    # leaves the horizontal space by at most sum |w_i| times that
    tol = HORIZONTAL_TOL * max(1.0, spread)
    for p in modes:
        if not 1 <= p <= coords.shape[2]:
            raise ParameterError(f"mode p={p} out of range [1, {coords.shape[2]}] of the fold")
        c1, base, lifts = tangent_step(coords[:, :, :p], ref, ts.n)
        c2 = frame = velocity = None
        if lifts is not None:
            theta = kernels.theta_curve(lifts, ts.params, [target])[0]
            # past the weight bound but below the cut locus it is an input
            # error named by its weights, not a frame that GrassmannPoint rejects
            if past and below_cut_locus(theta):
                raise ParameterError(
                    f"target {target} needs Lagrange weights with sum |w_i| = {spread:.3e}; their "
                    f"rounding would leave the frame beyond its tolerance {FRAME_REJECT_TOL:g}"
                )
            c2 = C2Record(ok=below_cut_locus(theta), theta_max=float(theta))
        if c2 is not None and c2.ok:
            combined = np.zeros_like(lifts[0])
            for w, z in zip(weights, lifts):
                combined += w * z
            velocity = TangentVector(base, combined, tol)
            frame = geodesic(base, velocity, 1.0)
        yield InterpolationResult(target, ref, c1, c2, frame, velocity, extrapolated)


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
    Only the frame and velocity of a stable result are mapped back to n.
    """
    coords = node_coordinates(ts)
    [res] = interpolate_modes(ts, coords, target, [ts.mode], reference_index)
    if not res.ok:
        return res
    both = ambient(ts, coords, np.hstack((res.frame.frame, res.velocity.lift)))
    p = ts.mode
    return replace(res, frame=GrassmannPoint(both[:, :p]), velocity=TangentVector(
        ts.points[res.reference_index][1], both[:, p:], res.velocity.horizontal_tol))


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
    c1, _, lifts = tangent_step(node_coordinates(ts), reference_index, ts.n)
    if lifts is None:
        return C2Sweep(grid, np.full(samples, np.nan), c1)
    thetas = kernels.theta_curve(lifts, ts.params, grid)
    # a sample past the cut locus keeps its C2 verdict whatever its weights
    past = weight_bound(kernels.lagrange_matrix(ts.params, grid))[1]
    thetas[past & below_cut_locus(thetas)] = np.nan
    return C2Sweep(grid, thetas, c1)
