"""Auditable records for the three stability conditions C1/C2/C3.

C1: every training point lies in the log-map domain of the reference point
    (all overlap matrices non-singular). tangent_step(ts, reference_index)
    records it and lifts every node in one pass; check_c1(ts,
    reference_index) is its record half.
C2: the interpolated lift stays inside the exponential-map injectivity domain
    (largest singular value below pi/2).
C3: the non-inclusion defect across POD mode counts stays bounded
    (epsilon = (delta_max - delta_min) / delta_min below a threshold).
"""

import operator
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ParameterError
from .grassmann import TangentVector, below_cut_locus, geometric_distance, log_lift

DEFAULT_C3_THRESHOLD = 100.0

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


@dataclass(frozen=True)
class C1Record:
    ok: bool
    failing_indices: tuple
    min_singular_values: tuple

    def to_dict(self):
        return {
            "ok": self.ok,
            "failing_indices": list(self.failing_indices),
            "min_singular_values": list(self.min_singular_values),
        }


@dataclass(frozen=True)
class C2Record:
    ok: bool
    theta_max: float

    def to_dict(self):
        return {"ok": self.ok, "theta_max": self.theta_max}


@dataclass(frozen=True)
class DistanceTable:
    """Pairwise geometric distances over at least 2 pairwise-distinct int
    modes, one row each: finite, non-negative, exactly symmetric, with a zero
    diagonal. Every table is checked here; a violation is a ParameterError."""

    modes: tuple
    values: np.ndarray

    def __post_init__(self):
        try:
            modes = tuple(map(operator.index, self.modes))
            values = np.array(self.values, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"C3 table: {exc}") from None
        m = len(modes)
        if m < 2 or len(set(modes)) != m:
            raise ParameterError(f"C3 table needs at least 2 pairwise distinct modes, got {modes}")
        if values.shape != (m, m):
            raise ParameterError(f"C3 table over {m} modes must be {m}x{m}, got shape {values.shape}")
        if not np.all(np.isfinite(values) & (values >= 0.0)):
            raise ParameterError("C3 table entries must be finite and non-negative")
        if np.any(values != values.T) or np.any(np.diag(values) != 0.0):
            raise ParameterError("C3 table must be symmetric with a zero diagonal")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "modes", modes)

    def to_dict(self):
        return {"modes": list(self.modes), "values": self.values.tolist()}


@dataclass(frozen=True)
class C3Record:
    epsilon: float
    threshold: float
    ok: bool
    table: Optional[DistanceTable] = None

    def to_dict(self):
        d = {"epsilon": self.epsilon, "threshold": self.threshold, "ok": self.ok}
        if self.table is not None:
            d["distance_table"] = self.table.to_dict()
        return d


def tangent_step(ts, reference_index):
    """C1 record at the reference node and, when C1 holds, the (N, n, p) stack
    of every node's lift from it (else None), from one log_lift per node, so
    C1 fails exactly where log_map raises. Each lift passes TangentVector's
    horizontality check as in log_map; the reference's own is exactly zero.
    The one range check of a reference index."""
    if not 0 <= reference_index < len(ts.points):
        raise ParameterError(f"reference index {reference_index} out of range")
    base = ts.points[reference_index][1]
    svs, lifts = zip(*(log_lift(base, pt) for _, pt in ts.points))
    failing = tuple(i for i, lift in enumerate(lifts) if lift is None)
    c1 = C1Record(ok=not failing, failing_indices=failing,
                  min_singular_values=tuple(float(sv[-1]) for sv in svs))
    if failing:
        return c1, None
    stack = np.stack([TangentVector(base, lift).lift for lift in lifts])
    stack[reference_index] = 0.0
    return c1, stack


def check_c1(ts, reference_index):
    """C1 record at the reference node: the record half of tangent_step."""
    return tangent_step(ts, reference_index)[0]


def check_c2(lift):
    """C2 verdict for an n x p horizontal lift: largest singular value below pi/2."""
    theta1 = float(np.linalg.norm(lift, 2))
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


@dataclass(frozen=True)
class StabilityReport:
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
