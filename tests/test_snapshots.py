import re
import warnings

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
from gpmor.snapshots import PodFactor, _blas_threads, factor_pod, truncate_pod
from oracles import jacobi_svd, thin_svd_pod


def test_rank_one_two_columns():
    c = np.array([3.0, 4.0, 0.0])
    s = SnapshotMatrix(data=np.column_stack([c, 2 * c]))
    pod = compute_pod(s, 1)
    unit = c / np.linalg.norm(c)
    assert np.allclose(np.abs(pod.basis.frame[:, 0]), np.abs(unit), atol=1e-14)
    assert pod.singular_values[1] == pytest.approx(0.0, abs=1e-12)


def test_writeable_input_is_copied_and_left_writeable():
    data = np.arange(6.0).reshape(3, 2)
    frame = np.eye(3)[:, :2]
    for given, kept in ((data, SnapshotMatrix(data=data).data),
                        (frame, GrassmannPoint(frame).frame)):
        assert given.flags.writeable and not kept.flags.writeable
        assert not np.shares_memory(given, kept)
    # a read-only view still aliases the writeable array under it
    view = data[:]
    view.setflags(write=False)
    assert not np.shares_memory(SnapshotMatrix(data=view).data, data)
    # a frozen float64 array with nothing writeable under it is kept as is
    frozen_data, frozen_frame = np.array(data), np.array(frame)
    frozen_data.setflags(write=False)
    frozen_frame.setflags(write=False)
    assert SnapshotMatrix(data=frozen_data).data is frozen_data
    assert GrassmannPoint(frozen_frame).frame is frozen_frame


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


@pytest.mark.parametrize("call, message", [
    (lambda: SnapshotMatrix(data=np.ones(3)), "snapshot data must be 2-D, got ndim=1"),
    (lambda: SnapshotMatrix(data=np.ones((0, 3))),
     "snapshot data must be non-empty, got shape (0, 3)"),
    (lambda: reduced_model(SnapshotMatrix(data=np.ones((4, 3))), GrassmannPoint(np.eye(5)[:, :1])),
     "basis has 5 rows but snapshot matrix has 4"),
], ids=["snapshot-1d", "snapshot-empty", "basis-rows"])
def test_bad_shapes_raise_parameter_error(call, message):
    with pytest.raises(ParameterError, match=re.escape(message)):
        call()


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
    # the mode-p frame does not depend on how many modes the factor keeps
    rng = np.random.default_rng(11)
    for shape in ((20, 9), (9, 20), (12, 12)):
        s = SnapshotMatrix(data=rng.standard_normal(shape))
        q = min(shape)
        for p in range(1, q + 1):
            pod = compute_pod(s, p)
            assert pod.uniqueness_flag and pod.mode == p
            for k in range(p, q + 1):
                truncated = truncate_pod(factor_pod(s, k), p)
                assert np.array_equal(truncated.basis.frame, pod.basis.frame)
                assert np.array_equal(truncated.singular_values, pod.singular_values)


def _sin_largest_angle(a, b):
    """Sine of the largest principal angle between the spans of orthonormal a, b."""
    return float(np.linalg.norm(a - b @ (b.T @ a), 2))


def _with_spectrum(n, n_t, seed, sigma):
    """Snapshot U diag(sigma) V^T with random orthonormal U (n x q) and V
    (n_t x q), q = min(n, n_t): its exact left singular vectors are U."""
    rng = np.random.default_rng(seed)
    q = min(n, n_t)
    u, _ = np.linalg.qr(rng.standard_normal((n, q)))
    v, _ = np.linalg.qr(rng.standard_normal((n_t, q)))
    return SnapshotMatrix(data=(u * sigma) @ v.T), u


@pytest.mark.parametrize("shape", [(50, 8), (8, 50), (30, 30), (400, 20)])
def test_pod_matches_thin_svd_oracle(shape):
    q = min(shape)
    # well-separated modes: every gap sigma_j - sigma_{j+1} is sigma_1 / q
    s, _ = _with_spectrum(*shape, q, np.arange(q, 0, -1.0))
    factor = factor_pod(s, q)
    frames, sv = thin_svd_pod(s.data, q)
    assert np.max(np.abs(factor.singular_values - sv)) <= 1e-13 * sv[0]
    assert np.array_equal(singular_spectrum(s), factor.singular_values)
    for p in range(1, q + 1):
        frame = truncate_pod(factor, p).basis.frame
        assert _sin_largest_angle(frame, frames[:, :p]) <= 1e-12


@pytest.mark.parametrize("n, n_t", [(400, 60), (4000, 200), (60, 400), (48, 48)])
def test_graded_spectrum_every_mode_accepted(n, n_t):
    # sigma log-spaced over 13 decades: u_j = S v_j / sigma_j loses
    # orthogonality like sigma_1 / sigma_j, which the re-orthonormalisation
    # must repair for every mode up to the numerical rank, whatever the shape
    q = min(n, n_t)
    s, exact = _with_spectrum(n, n_t, 5, np.logspace(0, -13, q))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        factor = factor_pod(s, q)
    rank = factor.vectors.shape[1]
    assert rank >= q * 9 // 10
    oracle, _ = thin_svd_pod(s.data, rank)
    for p in range(1, rank + 1):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            pod = truncate_pod(factor, p)
        # the only warning allowed is the documented gap flag
        assert len(caught) == (not pod.uniqueness_flag)
        assert all("degenerate singular spectrum" in str(w.message) for w in caught)
        if p % 10 == 0 or p == rank:
            got = _sin_largest_angle(pod.basis.frame, exact[:, :p])
            assert got <= 10.0 * _sin_largest_angle(oracle[:, :p], exact[:, :p])


@pytest.mark.parametrize("data, rank", [
    (np.zeros((6, 3)), 0),
    (np.zeros((3, 6)), 0),
    (np.outer(np.arange(1.0, 11.0), [1.0, -2.0, 0.5, 3.0]), 1),
    (np.outer([1.0, -2.0, 0.5, 3.0], np.arange(1.0, 11.0)), 1),
    (np.column_stack([np.eye(8)[:, 0], np.eye(8)[:, 1], np.eye(8)[:, 0] + np.eye(8)[:, 1]]), 2),
], ids=["zero-tall", "zero-wide", "rank1-tall", "rank1-wide", "rank2-tall"])
def test_rank_deficient_raises_degenerate_rank_without_warnings(data, rank):
    # modes past the rank are a DegenerateRankError, not "exceeds the modes
    # the factor keeps", and their sigma_j = 0 is never divided by
    s = SnapshotMatrix(data=data)
    q = min(data.shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        factor = factor_pod(s, q)
        assert factor.vectors.shape[1] == rank
        for p in range(rank + 1, q + 1):
            with pytest.raises(DegenerateRankError):
                compute_pod(s, p)
            with pytest.raises(DegenerateRankError):
                truncate_pod(factor, p)


def test_truncate_beyond_kept_modes_rejected():
    s = SnapshotMatrix(data=np.random.default_rng(12).standard_normal((10, 6)))
    factor = factor_pod(s, 2)
    with pytest.raises(ParameterError, match="keeps"):
        truncate_pod(factor, 3)
    with pytest.raises(ParameterError, match=r"\[1, 6\]"):
        truncate_pod(factor, 7)


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("record", ["snapshot", "factor"])
def test_records_reject_non_finite_lambda(record, lam):
    data = np.eye(3, 2)
    with pytest.raises(DataError, match=f"^snapshot parameter lambda={lam} is not finite$"):
        if record == "snapshot":
            SnapshotMatrix(data=data, param=lam)
        else:
            PodFactor(vectors=data, singular_values=np.ones(2), shape=(3, 2), param=lam)


@pytest.mark.parametrize("environ, cpus, threads", [
    ({}, 2, 2),
    ({"OPENBLAS_NUM_THREADS": "1"}, 2, 1),
    ({"OPENBLAS_NUM_THREADS": "5"}, 2, 2),
    ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 2, 1),
    ({"OPENBLAS_NUM_THREADS": "-3", "OMP_NUM_THREADS": "1"}, 2, 1),
    ({"OPENBLAS_NUM_THREADS": "abc", "OMP_NUM_THREADS": "1"}, 2, 1),
    ({"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 2, 1),
    ({"OMP_NUM_THREADS": "1,2"}, 2, 1),
    ({"OMP_NUM_THREADS": " +1 "}, 2, 1),
])
def test_blas_threads_reads_the_environment_as_openblas_does(environ, cpus, threads):
    # each case is the count OpenBLAS 0.3.31's openblas_get_num_threads gave
    # in a process started with that environment on two CPUs
    assert _blas_threads(environ, cpus) == threads
