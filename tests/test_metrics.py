import numpy as np
import pytest

from gpmor import (
    DivisionDomainError,
    ParameterError,
    SnapshotMatrix,
    compute_pod,
    error_series,
    frobenius_error,
    l2_error_series,
    reduced_model,
)
from oracles import naive_frobenius_error, naive_l2_series


def snap(data):
    return SnapshotMatrix(data=np.asarray(data, dtype=float))


def test_identical_inputs_zero():
    rng = np.random.default_rng(0)
    s = snap(rng.standard_normal((5, 4)))
    assert l2_error_series(s, s) == [0.0] * 4
    assert frobenius_error(s, s) == 0.0


def test_doubled_input_ones():
    rng = np.random.default_rng(1)
    ref = snap(rng.standard_normal((5, 4)))
    approx = snap(2.0 * ref.data)
    assert np.allclose(l2_error_series(approx, ref), 1.0, atol=1e-15)
    assert frobenius_error(approx, ref) == pytest.approx(1.0, abs=1e-15)


def test_zero_approx_gives_one():
    rng = np.random.default_rng(2)
    ref = snap(rng.standard_normal((6, 3)))
    assert frobenius_error(snap(np.zeros((6, 3))), ref) == pytest.approx(1.0, abs=1e-15)


def test_naive_loop_oracles():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(2, 12))
        nt = int(rng.integers(1, 10))
        ref = snap(rng.standard_normal((n, nt)))
        approx = snap(rng.standard_normal((n, nt)))
        assert np.allclose(
            l2_error_series(approx, ref), naive_l2_series(approx.data, ref.data), atol=1e-13
        )
        assert frobenius_error(approx, ref) == pytest.approx(
            naive_frobenius_error(approx.data, ref.data), abs=1e-13
        )


def test_orthogonal_invariance():
    rng = np.random.default_rng(4)
    ref = snap(rng.standard_normal((8, 5)))
    approx = snap(rng.standard_normal((8, 5)))
    q = np.linalg.qr(rng.standard_normal((8, 8)))[0]
    before_l2 = l2_error_series(approx, ref)
    before_f = frobenius_error(approx, ref)
    after_l2 = l2_error_series(snap(q @ approx.data), snap(q @ ref.data))
    after_f = frobenius_error(snap(q @ approx.data), snap(q @ ref.data))
    assert np.allclose(before_l2, after_l2, atol=1e-12)
    assert before_f == pytest.approx(after_f, abs=1e-12)


def test_pod_reconstruction_frobenius_identity():
    rng = np.random.default_rng(5)
    s = snap(rng.standard_normal((10, 7)))
    pod = compute_pod(s, 3)
    approx = snap(reduced_model(s, pod.basis))
    sv = pod.singular_values
    expected = float(np.sqrt(np.sum(sv[3:] ** 2)) / np.sqrt(np.sum(sv**2)))
    assert frobenius_error(approx, s) == pytest.approx(expected, rel=1e-10)


def test_shape_mismatch():
    with pytest.raises(ParameterError):
        l2_error_series(snap(np.ones((3, 2))), snap(np.ones((3, 3))))
    with pytest.raises(ParameterError):
        frobenius_error(snap(np.ones((3, 2))), snap(np.ones((2, 2))))


def test_zero_reference_column():
    ref = snap(np.column_stack([np.ones(3), np.zeros(3)]))
    with pytest.raises(DivisionDomainError, match=r"^reference column 1 has \(near-\)zero norm$"):
        l2_error_series(snap(np.ones((3, 2))), ref)


def test_zero_reference_matrix():
    with pytest.raises(DivisionDomainError):
        frobenius_error(snap(np.ones((2, 2))), snap(np.zeros((2, 2))))


def test_error_series_summary():
    rng = np.random.default_rng(6)
    ref = snap(rng.standard_normal((4, 3)))
    approx = snap(rng.standard_normal((4, 3)))
    series = error_series(approx, reference=ref)
    d = series.to_dict()
    assert d["schema"] == "gpm/1"
    assert d["max_l2"] == max(series.per_snapshot)
    assert len(series.per_snapshot) == 3
