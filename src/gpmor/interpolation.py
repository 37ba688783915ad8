"""Lagrange interpolation of POD bases on G(p, n) with C1/C2 gates.

The pipeline: a TrainingSet folds its node bases once, at its mode, the
first time a call reads them (TrainingSet.coords), and every call and mode on
the set works on their coordinates in that fold. From the reference node the
call names, stability.tangent_step maps every training point to its tangent
space (C1 gate: all overlaps invertible); the largest singular value of their
Lagrange combination is read from the sweep kernel and checked against pi/2
(C2 gate), and only then is that combination (kernels.combine) exponentiated
back to the manifold. interpolate_modes stops there, in coordinates, and
walk_modes runs it over the modes of a multi-mode call; interpolate maps its
one frame to n x p. The reference defaults to the node nearest the target.
"""

from functools import cached_property, reduce
from typing import Optional

import numpy as np

from . import kernels, snapshots
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
from .stability import C1Record, C2Record, ambient, tangent_step


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

    @cached_property
    def coords(self):
        """The (N, m, P) coordinates of the node bases (P = mode) in one fold,
        made once per set and read-only. The n x NP stack whose column j*N + i
        is node i's vector j is folded from row blocks into its triangle R,
        never held whole; node i's coordinates are R's columns {jN + i},
        zero-padded to m = max(R's rows, 2P). R is orthonormal coordinates of
        the stack to rounding, whatever its rank, and the mode-p stack is its
        leading Np columns, so each node's leading p columns are its mode-p
        coordinates, in rows every mode p <= P shares."""
        frames = [pt.frame for _, pt in self.points]
        nodes, p = len(frames), self.mode

        def stacked_rows(view, start):
            for i, y in enumerate(frames):
                view[:, i::nodes] = y[start:start + len(view)]

        r = snapshots.fold_triangle(snapshots.row_blocks(self.n, nodes * p, stacked_rows))
        coords = np.zeros((nodes, max(r.shape[0], 2 * p), p))
        coords[:, :r.shape[0]] = r.reshape(-1, p, nodes).transpose(2, 0, 1)
        coords.setflags(write=False)
        return coords


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


def training_set(factors, p):
    """TrainingSet of the POD factors' mode-p truncations, through
    truncate_pod's errors and warnings and TrainingSet's checks."""
    return TrainingSet(points=tuple((f.param, truncate_pod(f, p).basis) for f in factors))


def interpolate_modes(ts, target, modes, reference_index=None):
    """interpolate at each mode p of `modes` (each at most ts.mode) from the
    node bases' mode-p truncations, on the set's one fold: a generator of
    InterpolationResults, in order, whose frame and velocity stay in the
    fold's m coordinates, so a caller that stops at a failing mode judges no
    later one."""
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
        c1, base, lifts = tangent_step(ts, ref, p)
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
            velocity = TangentVector(base, kernels.combine(lifts, [weights])[0], tol)
            frame = geodesic(base, velocity, 1.0)
        yield InterpolationResult(target, ref, c1, c2, frame, velocity, extrapolated)


def walk_modes(factors, target, modes, reference_index=None):
    """(p, interpolate_modes result) at each mode p of `modes`, in order, on
    the fold of the set at the largest mode before the first whose
    training_set fails; that failure is raised after them, or at once at
    the first mode, so the first failure in `modes` order wins."""
    sets, error = [], None
    for p in modes:
        try:
            sets.append(training_set(factors, p))
        except GpmError as exc:
            if not sets:
                raise
            error = exc
            break
    ts = max(sets, key=lambda s: s.mode)
    yield from zip(modes, interpolate_modes(ts, target, modes[:len(sets)], reference_index))
    if error is not None:
        raise error


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
    [res] = interpolate_modes(ts, target, [ts.mode], reference_index)
    if not res.ok:
        return res
    both = ambient(ts, np.hstack((res.frame.frame, res.velocity.lift)))
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
    c1, _, lifts = tangent_step(ts, reference_index, ts.mode)
    if lifts is None:
        return C2Sweep(grid, np.full(samples, np.nan), c1)
    thetas = kernels.theta_curve(lifts, ts.params, grid)
    # a sample past the cut locus keeps its C2 verdict whatever its weights
    past = weight_bound(kernels.lagrange_matrix(ts.params, grid))[1]
    thetas[past & below_cut_locus(thetas)] = np.nan
    return C2Sweep(grid, thetas, c1)
