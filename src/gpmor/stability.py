"""Auditable records for the three stability conditions C1/C2/C3.

C1: every training point lies in the log-map domain of the reference point
    (all overlap matrices non-singular).
C2: the interpolated lift stays inside the exponential-map injectivity domain
    (largest singular value below pi/2).
C3: the non-inclusion defect across POD mode counts stays bounded
    (epsilon = (delta_max - delta_min) / delta_min below a threshold).
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ParameterError
from .grassmann import geometric_distance
from .interpolation import C2_MARGIN

DEFAULT_C3_THRESHOLD = 100.0

EXIT_OK = 0
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
    """Symmetric table of pairwise geometric distances over a mode set."""

    modes: tuple
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "modes", tuple(int(m) for m in self.modes))

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


def check_c1(ts, reference_index=None):
    """Record the smallest overlap singular value for every training point.

    ok iff each smallest singular value exceeds 1e-12 times the largest one of
    the same overlap matrix.
    """
    ref = ts.reference_index if reference_index is None else reference_index
    if ref is None:
        raise ParameterError("check_c1 needs a reference index")
    if not 0 <= ref < len(ts.points):
        raise ParameterError(f"reference index {ref} out of range")
    base = ts.points[ref][1]
    min_svs = []
    failing = []
    for i, (_, pt) in enumerate(ts.points):
        sv = np.linalg.svd(base.frame.T @ pt.frame, compute_uv=False)
        min_svs.append(float(sv[-1]))
        if sv[0] == 0.0 or sv[-1] < 1e-12 * sv[0]:
            failing.append(i)
    return C1Record(
        ok=not failing,
        failing_indices=tuple(failing),
        min_singular_values=tuple(min_svs),
    )


def check_c2(v):
    """C2 verdict for a tangent vector: largest lift singular value below pi/2."""
    theta1 = v.theta_max
    return C2Record(ok=bool(theta1 < np.pi / 2.0 - C2_MARGIN), theta_max=theta1)


def c3_distance_table(results):
    """Pairwise geometric distances between per-mode interpolated subspaces.

    results: list of (mode p, GrassmannPoint) with pairwise distinct modes.
    """
    modes = [int(p) for p, _ in results]
    if len(set(modes)) != len(modes):
        raise ParameterError("modes must be pairwise distinct")
    frames = [pt for _, pt in results]
    n = frames[0].n
    for pt in frames:
        if pt.n != n:
            raise ParameterError("all frames must share the ambient dimension")
    m = len(frames)
    table = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            d = geometric_distance(frames[i], frames[j])
            table[i, j] = d
            table[j, i] = d
    return DistanceTable(modes=tuple(modes), values=table)


def check_c3(table, threshold=DEFAULT_C3_THRESHOLD):
    """C3 verdict from a distance table: spread of the off-diagonal entries.

    epsilon = (delta_max - delta_min) / delta_min over the off-diagonal
    distances. An all-zero off-diagonal (every pair coincides up to inclusion)
    is defined as epsilon = 0 (stable); delta_min = 0 < delta_max makes the
    ratio infinite (unstable).
    """
    if isinstance(table, DistanceTable):
        dt = table
        values = table.values
    else:
        values = np.array(table, dtype=float)
        dt = None
    if values.ndim != 2 or values.shape[0] != values.shape[1] or values.shape[0] < 2:
        raise ParameterError("c3 needs a square distance table over at least 2 modes")
    mask = ~np.eye(values.shape[0], dtype=bool)
    off = values[mask]
    dmax = float(np.max(off))
    dmin = float(np.min(off))
    if dmax == 0.0:
        epsilon = 0.0
    elif dmin == 0.0:
        epsilon = float("inf")
    else:
        epsilon = (dmax - dmin) / dmin
    threshold = float(threshold)
    return C3Record(epsilon=float(epsilon), threshold=threshold, ok=bool(epsilon < threshold), table=dt)


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
