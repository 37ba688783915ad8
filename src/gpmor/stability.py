"""Auditable records for the three stability conditions C1/C2/C3.

C1: every training point lies in the log-map domain of the reference point
    (all overlap matrices non-singular). tangent_step(ts, reference_index,
    p) records it and lifts every node in one pass, on the node bases'
    coordinates in the set's one fold (TrainingSet.coords), which serves
    every mode up to the set's; check_c1(ts, reference_index) is its record
    half. Only a frame that is written goes back to n (ambient).
C2: the interpolated lift stays inside the exponential-map injectivity domain
    (largest singular value below pi/2).
C3: the non-inclusion defect across POD mode counts stays bounded
    (epsilon = (delta_max - delta_min) / delta_min below a threshold).
"""

import operator
from typing import Optional

import numpy as np

from . import kernels, snapshots
from .errors import ParameterError
from .grassmann import (
    GrassmannPoint,
    _frozen_float,
    below_cut_locus,
    geometric_distance,
    log_lift,
    overlap_invertible,
)
from .record import Record, asdict, field

DEFAULT_C3_THRESHOLD = 100.0
# The way back to n keeps the singular values of the stack [Y_1 ... Y_N] above
# sigma_1 * n * JOINT_SPAN_RTOL: a Householder QR of n rows is backward stable
# to about n u times the stack's norm (Higham, Accuracy and Stability of
# Numerical Algorithms, 2002, Thm. 19.4), so the rest are its rounding.
JOINT_SPAN_RTOL = np.finfo(float).eps

EXIT_OK = 0
EXIT_ERROR = 2
EXIT_C1 = 10
EXIT_C2 = 11
EXIT_C3 = 12


def grassmann_dimension(p, n):
    """Dimension p(n - p) of the Grassmann manifold G(p, n)."""
    p = int(p)
    n = int(n)
    if p < 1 or p > n:
        raise ParameterError(f"need 1 <= p <= n, got p={p}, n={n}")
    return p * (n - p)


class C1Record(Record):
    ok: bool
    failing_indices: tuple
    min_singular_values: tuple

    def to_dict(self):
        return asdict(self)


class C2Record(Record):
    ok: bool
    theta_max: float

    def to_dict(self):
        return asdict(self)


def _c3_modes(modes):
    """C3 compares at least 2 pairwise distinct modes; else a ParameterError."""
    if len(modes) < 2 or len(set(modes)) != len(modes):
        raise ParameterError(f"C3 needs at least 2 pairwise distinct modes, got {tuple(modes)}")


class DistanceTable(Record):
    """Pairwise geometric distances over at least 2 pairwise-distinct int
    modes, one row each: finite, non-negative, exactly symmetric, with a zero
    diagonal. Every table is checked here; a violation is a ParameterError."""

    modes: tuple
    values: np.ndarray

    def __post_init__(self):
        try:
            modes = tuple(map(operator.index, self.modes))
            values = _frozen_float(self.values)
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"C3 table: {exc}") from None
        _c3_modes(modes)
        m = len(modes)
        if values.shape != (m, m):
            raise ParameterError(f"C3 table over {m} modes must be {m}x{m}, got shape {values.shape}")
        if not np.all(np.isfinite(values) & (values >= 0.0)):
            raise ParameterError("C3 table entries must be finite and non-negative")
        if np.any(values != values.T) or np.any(np.diag(values) != 0.0):
            raise ParameterError("C3 table must be symmetric with a zero diagonal")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "modes", modes)

    def to_dict(self):
        return {"modes": list(self.modes), "values": self.values.tolist()}


class C3Record(Record):
    epsilon: float
    threshold: float
    ok: bool
    table: Optional[DistanceTable] = None

    def to_dict(self):
        d = {"epsilon": self.epsilon, "threshold": self.threshold, "ok": self.ok}
        if self.table is not None:
            d["distance_table"] = self.table.to_dict()
        return d


def ambient(ts, c):
    """The n x q matrix Q c of m x q `c` in the rows of the set's fold
    (TrainingSet.coords), where the node bases are Q coords: [Y_1 ... Y_N] g
    for g the minimum-norm least-squares solution of [coords_1 ... coords_N]
    g = c, cut at sigma_1 * n * JOINT_SPAN_RTOL, in row blocks of
    STREAM_BYTES; F-ordered and read-only, so its column blocks are views
    GrassmannPoint keeps without a copy."""
    nodes, _, p = ts.coords.shape
    g = np.linalg.lstsq(np.hstack(ts.coords), c, rcond=ts.n * JOINT_SPAN_RTOL)[0]
    out = np.empty((ts.n, c.shape[1]), order="F")
    rows = max(1, snapshots.STREAM_BYTES // (8 * c.shape[1]))
    for start in range(0, ts.n, rows):
        part = slice(start, start + rows)
        acc = ts.points[0][1].frame[part] @ g[:p]
        for i in range(1, nodes):
            acc += ts.points[i][1].frame[part] @ g[i * p:(i + 1) * p]
        out[part] = acc
    out.setflags(write=False)
    return out


def tangent_step(ts, reference_index, p):
    """C1 record at the reference node of set `ts` at mode p and, when C1
    holds, the reference's coordinate frame and every node's read-only lift
    at it (the reference's zero), else None for both: one batched log_lift
    on the leading p columns of the set's fold, with C1's floor at the
    ambient n. The one range check of a mode and of a reference index."""
    if not 1 <= p <= ts.mode:
        raise ParameterError(f"mode p={p} out of range [1, {ts.mode}] of the fold")
    if not 0 <= reference_index < len(ts.points):
        raise ParameterError(f"reference index {reference_index} out of range")
    base = GrassmannPoint(ts.coords[reference_index, :, :p])
    svs, lifts = log_lift(base.frame, ts.coords[:, :, :p], ts.n)
    failing = () if lifts is not None else tuple(
        i for i, sv in enumerate(svs) if not overlap_invertible(sv, ts.n))
    c1 = C1Record(ok=not failing, failing_indices=failing,
                  min_singular_values=tuple(svs[:, -1].tolist()))
    if failing:
        return c1, None, None
    lifts[reference_index] = 0.0
    lifts.setflags(write=False)
    return c1, base, lifts


def check_c1(ts, reference_index):
    """C1 record at the reference node: the record half of tangent_step."""
    return tangent_step(ts, reference_index, ts.mode)[0]


def check_c2(lift):
    """C2 verdict for an n x p horizontal lift: largest singular value below
    pi/2, read by the sweep kernel as one node of weight 1."""
    lift = np.asarray(lift, dtype=float)
    theta1 = float(kernels.theta_curve(lift[np.newaxis], (0.0,), (0.0,))[0])
    return C2Record(ok=below_cut_locus(theta1), theta_max=theta1)


def c3_distance_table(results):
    """Pairwise geometric distances between per-mode interpolated subspaces.

    results: list of (mode p, GrassmannPoint) with pairwise distinct modes.
    """
    frames = [pt for _, pt in results]
    m = len(frames)
    table = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            table[i, j] = table[j, i] = geometric_distance(frames[i], frames[j])
    return DistanceTable(modes=tuple(p for p, _ in results), values=table)


def _c3_threshold(threshold):
    """The C3 threshold as a float; it must be positive (NaN is not)."""
    threshold = float(threshold)
    if not threshold > 0.0:
        raise ParameterError(f"C3 threshold must be positive, got {threshold}")
    return threshold


def check_c3(table, threshold=DEFAULT_C3_THRESHOLD):
    """C3 verdict from a distance table: spread of the off-diagonal entries.

    A raw array is read as a DistanceTable over modes 0..m-1. epsilon =
    (delta_max - delta_min) / delta_min over the off-diagonal distances. An
    all-zero off-diagonal (every pair coincides up to inclusion) is defined as
    epsilon = 0 (stable); delta_min = 0 < delta_max makes the ratio infinite
    (unstable).
    """
    threshold = _c3_threshold(threshold)
    if not isinstance(table, DistanceTable):
        table = DistanceTable(range(len(table)), table)
    off = table.values[~np.eye(len(table.modes), dtype=bool)]
    dmin, dmax = float(off.min()), float(off.max())
    epsilon = (dmax - dmin) / dmin if dmin > 0.0 else (0.0 if dmax == 0.0 else float("inf"))
    return C3Record(epsilon=epsilon, threshold=threshold, ok=epsilon < threshold, table=table)


class StabilityReport(Record):
    """Bundle of whichever condition records a run produced."""

    c1: Optional[C1Record] = None
    c2: Optional[C2Record] = None
    c3: Optional[C3Record] = None
    meta: dict = field(default_factory=dict)

    def exit_code(self):
        """CLI exit-code contract: first failure wins, in C1, C2, C3 order."""
        if self.c1 is not None and not self.c1.ok:
            return EXIT_C1
        if self.c2 is not None and not self.c2.ok:
            return EXIT_C2
        if self.c3 is not None and not self.c3.ok:
            return EXIT_C3
        return EXIT_OK

    def to_dict(self):
        d = {"schema": "gpm/1"}
        if self.meta:
            d["meta"] = dict(self.meta)
        if self.c1 is not None:
            d["c1"] = self.c1.to_dict()
        if self.c2 is not None:
            d["c2"] = self.c2.to_dict()
        if self.c3 is not None:
            d["c3"] = self.c3.to_dict()
        return d
