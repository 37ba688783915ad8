import numpy as np
import pytest

from gpmor import (
    DataError,
    DegenerateRankError,
    GrassmannPoint,
    ParameterError,
    SnapshotMatrix,
    compute_pod,
    geometric_distance,
    reduced_model,
    singular_spectrum,
)
from gpmor.grassmann import fix_svd_signs
from gpmor.snapshots import factor_pod, truncate_pod
from oracles import jacobi_svd


def test_rank_one_two_columns():
    c = np.array([3.0, 4.0, 0.0])
    s = SnapshotMatrix(data=np.column_stack([c, 2 * c]))
    pod = compute_pod(s, 1)
    unit = c / np.linalg.norm(c)
    assert np.allclose(np.abs(pod.basis.frame[:, 0]), np.abs(unit), atol=1e-14)
    assert pod.singular_values[1] == pytest.approx(0.0, abs=1e-12)


def test_diagonal_case():
    s = SnapshotMatrix(data=np.array([[3.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    pod = compute_pod(s, 1)
    assert np.allclose(np.abs(pod.basis.frame[:, 0]), [1.0, 0.0, 0.0], atol=1e-14)
    assert pod.singular_values[0] == pytest.approx(3.0, abs=1e-14)


def test_basis_matches_jacobi_oracle():
    rng = np.random.default_rng(42)
    s = SnapshotMatrix(data=rng.standard_normal((8, 5)))
    pod = compute_pod(s, 3)
    u, sv, _ = jacobi_svd(s.data)
    oracle = GrassmannPoint(u[:, :3])
    assert geometric_distance(pod.basis, oracle) < 1e-10


def test_spectrum_zero_matrix():
    sp = singular_spectrum(SnapshotMatrix(data=np.zeros((4, 3))))
    assert np.all(sp == 0.0)
    assert len(sp) == 3


def test_spectrum_embedded_diagonal():
    data = np.zeros((4, 2))
    data[0, 0] = 5.0
    data[1, 1] = 2.0
    sp = singular_spectrum(SnapshotMatrix(data=data))
    assert np.allclose(sp, [5.0, 2.0], atol=1e-14)


def test_spectrum_matches_jacobi_oracle():
    rng = np.random.default_rng(7)
    s = SnapshotMatrix(data=rng.standard_normal((10, 6)))
    sp = singular_spectrum(s)
    _, sv, _ = jacobi_svd(s.data)
    assert np.allclose(sp, sv, rtol=1e-12)


def test_reduced_model_full_rank_projection():
    rng = np.random.default_rng(3)
    s = SnapshotMatrix(data=rng.standard_normal((6, 3)))
    pod = compute_pod(s, 3)
    assert np.allclose(reduced_model(s, pod.basis), s.data, atol=1e-12)


def test_reduced_model_orthogonal_basis_gives_zero():
    s = SnapshotMatrix(data=np.column_stack([np.eye(4)[:, 0], np.eye(4)[:, 1]]))
    basis = GrassmannPoint(np.eye(4)[:, 2:4])
    assert np.allclose(reduced_model(s, basis), 0.0, atol=1e-15)


def test_reduced_model_idempotent():
    rng = np.random.default_rng(5)
    s = SnapshotMatrix(data=rng.standard_normal((8, 5)))
    basis = compute_pod(s, 2).basis
    once = reduced_model(s, basis)
    twice = reduced_model(SnapshotMatrix(data=once, param=s.param), basis)
    assert np.allclose(once, twice, atol=1e-12)


def test_eckart_young_residual_identity():
    rng = np.random.default_rng(11)
    for _ in range(20):
        s = SnapshotMatrix(data=rng.standard_normal((8, 5)))
        pod = compute_pod(s, 2)
        residual = np.linalg.norm(s.data - reduced_model(s, pod.basis))
        expected = float(np.sqrt(np.sum(pod.singular_values[2:] ** 2)))
        assert residual == pytest.approx(expected, rel=1e-10)


def test_pod_basis_orthonormal_random():
    rng = np.random.default_rng(13)
    for _ in range(100):
        n = int(rng.integers(3, 20))
        nt = int(rng.integers(2, 15))
        p = int(rng.integers(1, min(n, nt) + 1))
        pod = compute_pod(SnapshotMatrix(data=rng.standard_normal((n, nt))), p)
        frame = pod.basis.frame
        assert np.max(np.abs(frame.T @ frame - np.eye(p))) < 1e-12


def test_pod_nestedness_when_unique():
    rng = np.random.default_rng(17)
    for _ in range(20):
        s = SnapshotMatrix(data=rng.standard_normal((12, 8)))
        a = compute_pod(s, 2)
        b = compute_pod(s, 3)
        if a.uniqueness_flag and b.uniqueness_flag:
            assert geometric_distance(a.basis, b.basis) < 1e-10


def test_p_out_of_range():
    s = SnapshotMatrix(data=np.ones((4, 3)))
    with pytest.raises(ParameterError):
        compute_pod(s, 0)
    with pytest.raises(ParameterError):
        compute_pod(s, 4)


def test_non_finite_rejected():
    with pytest.raises(DataError):
        SnapshotMatrix(data=np.array([[1.0, np.nan]]))


def test_degenerate_rank_error():
    c = np.array([1.0, 2.0, 3.0])
    s = SnapshotMatrix(data=np.column_stack([c, 2 * c, 3 * c]))
    with pytest.raises(DegenerateRankError):
        compute_pod(s, 2)


def test_degenerate_gap_warns_not_fails():
    s = SnapshotMatrix(data=np.eye(4)[:, :3])  # all singular values equal 1
    with pytest.warns(RuntimeWarning):
        pod = compute_pod(s, 2)
    assert not pod.uniqueness_flag


def test_sign_convention_deterministic():
    rng = np.random.default_rng(23)
    data = rng.standard_normal((9, 6))
    a = compute_pod(SnapshotMatrix(data=data), 3)
    b = compute_pod(SnapshotMatrix(data=data.copy()), 3)
    assert np.array_equal(a.basis.frame, b.basis.frame)
    for j in range(3):
        k = int(np.argmax(np.abs(a.basis.frame[:, j])))
        assert a.basis.frame[k, j] > 0.0


def test_one_factor_serves_every_mode_bitwise():
    # each truncation equals the leading columns of one full signed thin SVD
    rng = np.random.default_rng(11)
    s = SnapshotMatrix(data=rng.standard_normal((20, 9)))
    u, sv, vt = np.linalg.svd(s.data, full_matrices=False)
    fix_svd_signs(u, vt)
    factor = factor_pod(s, 6)
    assert factor.vectors.shape == (20, 6)
    for p in range(1, 7):
        expected = GrassmannPoint(u[:, :p]).frame
        for pod in (truncate_pod(factor, p), compute_pod(s, p)):
            assert np.array_equal(pod.basis.frame, expected)
            assert np.array_equal(pod.singular_values, sv)
            assert pod.uniqueness_flag and pod.mode == p


def test_truncate_beyond_kept_modes_rejected():
    s = SnapshotMatrix(data=np.random.default_rng(12).standard_normal((10, 6)))
    factor = factor_pod(s, 2)
    with pytest.raises(ParameterError, match="keeps"):
        truncate_pod(factor, 3)
    with pytest.raises(ParameterError, match=r"\[1, 6\]"):
        truncate_pod(factor, 7)
