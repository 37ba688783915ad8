"""Relative error norms between a reconstructed and a reference snapshot matrix."""

import numpy as np

from .errors import DivisionDomainError, ParameterError
from .record import Record

# Columns with a smaller norm than this cannot serve as a relative-error
# denominator.
ZERO_NORM_TOL = 1e-300


def _check_shapes(approx, reference):
    if approx.data.shape != reference.data.shape:
        raise ParameterError(
            f"shape mismatch: approx {approx.data.shape} vs reference {reference.data.shape}"
        )


def l2_error_series(approx, reference):
    """Per-time-step relative L2 error: ||u~_i - u_i|| / ||u_i|| for each column."""
    _check_shapes(approx, reference)
    ref_norms = np.linalg.norm(reference.data, axis=0)
    bad = np.nonzero(ref_norms <= ZERO_NORM_TOL)[0]
    if bad.size:
        raise DivisionDomainError(f"reference column {int(bad[0])} has (near-)zero norm")
    diff_norms = np.linalg.norm(approx.data - reference.data, axis=0)
    return (diff_norms / ref_norms).tolist()


def frobenius_error(approx, reference):
    """Global relative error ||S~ - S||_F / ||S||_F."""
    _check_shapes(approx, reference)
    ref = np.linalg.norm(reference.data)
    if ref <= ZERO_NORM_TOL:
        raise DivisionDomainError("reference matrix has (near-)zero Frobenius norm")
    return float(np.linalg.norm(approx.data - reference.data) / ref)


class ErrorSeries(Record):
    """Per-snapshot relative L2 errors plus the global Frobenius error."""

    per_snapshot: list
    frobenius: float

    def to_dict(self):
        return {
            "schema": "gpm/1",
            "per_snapshot": list(self.per_snapshot),
            "frobenius": self.frobenius,
            "max_l2": max(self.per_snapshot),
            "mean_l2": sum(self.per_snapshot) / len(self.per_snapshot),
        }


def error_series(approx, reference):
    return ErrorSeries(
        per_snapshot=l2_error_series(approx, reference),
        frobenius=frobenius_error(approx, reference),
    )
