import re
import tracemalloc

import numpy as np
import pytest

from gpmor import (
    CutTimeUndefinedError,
    GrassmannPoint,
    LogMapDomainError,
    ParameterError,
    TangentDomainError,
    TangentVector,
    cut_time,
    diameter,
    exp_map,
    geodesic,
    geometric_distance,
    in_injectivity_domain,
    log_map,
    principal_angles,
    riemannian_distance,
)
from oracles import line_angle, random_grassmann_point, random_tangent

from gpmor import grassmann
from gpmor.grassmann import C2_MARGIN, below_cut_locus, deterministic_qr


def e(n, *cols):
    return GrassmannPoint(np.eye(n)[:, list(cols)])


# -- point and tangent invariants --------------------------------------------


def test_point_rejects_non_orthonormal():
    with pytest.raises(ParameterError):
        GrassmannPoint(np.ones((3, 2)))


def test_point_reorthonormalizes_small_drift():
    frame = np.eye(3)[:, :2]
    frame = frame + 1e-9 * np.ones((3, 2))
    pt = GrassmannPoint(frame)
    assert np.max(np.abs(pt.frame.T @ pt.frame - np.eye(2))) < 1e-14


def test_deterministic_qr_positive_diagonal():
    mat = np.random.default_rng(4).standard_normal((7, 3))
    q = deterministic_qr(mat)
    r = q.T @ mat
    assert np.allclose(q @ r, mat, atol=1e-14)
    assert np.all(np.diag(r) > 0.0)
    # the positive-diagonal factorisation is unique: flipped input columns flip Q's
    flips = np.array([-1.0, 1.0, -1.0])
    assert np.allclose(deterministic_qr(mat * flips), q * flips, atol=1e-14)
    # a zero diagonal entry of R leaves its column as numpy gives it
    zero = np.zeros((4, 1))
    assert np.array_equal(deterministic_qr(zero), np.linalg.qr(zero)[0])


def test_tangent_rejects_non_horizontal():
    base = e(3, 0)
    with pytest.raises(TangentDomainError):
        TangentVector(base=base, lift=np.array([[1.0], [0.0], [0.0]]))


@pytest.mark.parametrize("call, message", [
    (lambda: GrassmannPoint(np.ones(3)), "frame must be a 2-D matrix, got ndim=1"),
    (lambda: GrassmannPoint(np.eye(3)[:2]), "invalid frame shape 2x3 (need 1 <= p <= n)"),
    (lambda: GrassmannPoint(np.zeros((3, 0))), "invalid frame shape 3x0 (need 1 <= p <= n)"),
    (lambda: GrassmannPoint(np.array([[np.nan], [0.0]])), "frame contains non-finite entries"),
    (lambda: TangentVector(base=e(3, 0), lift=np.zeros((3, 2))),
     "lift shape (3, 2) does not match base frame shape (3, 1)"),
    (lambda: TangentVector(base=e(3, 0), lift=np.array([[0.0], [np.inf], [0.0]])),
     "lift contains non-finite entries"),
    (lambda: principal_angles(e(3, 0), e(4, 0)), "ambient dimensions differ: 3 != 4"),
    (lambda: geodesic(e(4, 0), TangentVector(base=e(4, 1), lift=np.zeros((4, 1))), 1.0),
     "tangent vector is not based at the given point"),
    (lambda: log_map(e(4, 0), e(4, 0, 1)), "mode mismatch: p=1 vs p'=2"),
    (lambda: diameter(0, 3), "need 1 <= p <= n, got p=0, n=3"),
    (lambda: diameter(4, 3), "need 1 <= p <= n, got p=4, n=3"),
], ids=["point-1d", "point-wide", "point-no-columns", "point-non-finite", "lift-shape",
        "lift-non-finite", "ambient-mismatch", "base-mismatch", "mode-mismatch",
        "diameter-p-zero", "diameter-p-above-n"])
def test_invalid_arguments_raise_parameter_error(call, message):
    with pytest.raises(ParameterError, match=re.escape(message)):
        call()


# -- exp map -----------------------------------------------------------------


def test_exp_zero_velocity_is_base():
    rng = np.random.default_rng(1)
    base = random_grassmann_point(rng, 7, 2)
    v = TangentVector(base=base, lift=np.zeros((7, 2)))
    assert geometric_distance(exp_map(base, v), base) == 0.0


def test_exp_great_circle():
    base = GrassmannPoint(np.array([[1.0], [0.0]]))
    v = TangentVector(base=base, lift=np.array([[0.0], [0.7]]))
    out = exp_map(base, v)
    expected = np.array([np.cos(0.7), np.sin(0.7)])
    assert np.allclose(np.abs(out.frame[:, 0]), np.abs(expected), atol=1e-14)


def test_exp_log_round_trip_random():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(4, 20))
        p = int(rng.integers(1, n // 2 + 1))
        base = random_grassmann_point(rng, n, p)
        v = random_tangent(rng, base, theta1=rng.uniform(0.05, np.pi / 2 - 0.1))
        back = log_map(base, exp_map(base, v))
        assert np.max(np.abs(back.lift - v.lift)) < 1e-9


def test_exp_output_orthonormal():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(4, 61))
        p = int(rng.integers(1, min(6, n // 2) + 1))
        base = random_grassmann_point(rng, n, p)
        v = random_tangent(rng, base, theta1=rng.uniform(0.0, 2.0))
        frame = exp_map(base, v).frame
        assert np.max(np.abs(frame.T @ frame - np.eye(p))) < 1e-10


def test_exp_rejects_half_dimension_violation():
    base = e(3, 0, 1)  # 2p = 4 > n = 3
    v = TangentVector(base=base, lift=np.zeros((3, 2)))
    with pytest.raises(ParameterError):
        exp_map(base, v)


# -- log map -----------------------------------------------------------------


def test_log_identity_is_zero():
    rng = np.random.default_rng(4)
    base = random_grassmann_point(rng, 9, 3)
    v = log_map(base, base)
    assert np.max(np.abs(v.lift)) < 1e-12


def test_log_great_circle():
    base = GrassmannPoint(np.array([[1.0], [0.0]]))
    tgt = GrassmannPoint(np.array([[np.cos(0.7)], [np.sin(0.7)]]))
    v = log_map(base, tgt)
    assert np.allclose(np.abs(v.lift[:, 0]), [0.0, 0.7], atol=1e-14)


def test_log_orthogonal_lines_fails_c1():
    with pytest.raises(LogMapDomainError):
        log_map(e(2, 0), e(2, 1))


def test_log_exp_spans_target():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(4, 20))
        p = int(rng.integers(1, n // 2 + 1))
        base = random_grassmann_point(rng, n, p)
        tgt = random_grassmann_point(rng, n, p)
        try:
            v = log_map(base, tgt)
        except LogMapDomainError:
            continue
        assert riemannian_distance(exp_map(base, v), tgt) < 1e-9


# -- geodesics ---------------------------------------------------------------


def test_geodesic_endpoints():
    rng = np.random.default_rng(6)
    base = random_grassmann_point(rng, 8, 2)
    v = random_tangent(rng, base, theta1=0.9)
    assert geometric_distance(geodesic(base, v, 0.0), base) == 0.0
    assert np.array_equal(geodesic(base, v, 1.0).frame, exp_map(base, v).frame)


def test_geodesic_forms_its_frame_in_place():
    # 20000 x 10: the left singular vectors, which become the frame, the
    # product with the base frame, then the GrassmannPoint's finiteness
    # mask, 2.00 n x p arrays. A copy of the frame (2.13) or a frame apart
    # from u * sin (3.13) breaks the bound
    rng = np.random.default_rng(14)
    n, p = 20000, 10
    base = random_grassmann_point(rng, n, p)
    v = random_tangent(rng, base, theta1=1.2)
    tracemalloc.start()
    try:
        end = geodesic(base, v, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert end.frame.shape == (n, p)
    assert peak < 2.1 * n * p * 8


def test_geodesic_frame_is_frozen_where_it_is_made(monkeypatch):
    # the frame comes back read-only, and the GrassmannPoint keeps it
    # without a copy
    kept = []
    frozen_float = grassmann._frozen_float

    def recording(a):
        out = frozen_float(a)
        kept.append(out is a)
        return out

    rng = np.random.default_rng(15)
    base = random_grassmann_point(rng, 40, 4)
    v = random_tangent(rng, base, theta1=0.8)
    monkeypatch.setattr(grassmann, "_frozen_float", recording)
    end = geodesic(base, v, 0.6)
    assert kept == [True]
    with pytest.raises(ValueError, match="read-only"):
        end.frame[0, 0] = 0.0


def test_geodesic_unit_speed():
    rng = np.random.default_rng(7)
    base = random_grassmann_point(rng, 3, 1)
    v = random_tangent(rng, base, theta1=1.1)
    for t in np.linspace(0.0, 1.0, 11):
        d = riemannian_distance(geodesic(base, v, t), base)
        assert d == pytest.approx(t * v.norm, abs=1e-10)


def test_geodesic_unit_speed_multimode():
    rng = np.random.default_rng(8)
    base = random_grassmann_point(rng, 10, 3)
    v = random_tangent(rng, base)
    scale = 1.0 / v.theta_max  # keep t * theta_1 <= pi/2 over the sweep
    v = TangentVector(base=base, lift=v.lift * scale)
    for t in np.linspace(0.0, 1.0, 6):
        d = riemannian_distance(geodesic(base, v, t), base)
        assert d == pytest.approx(t * v.norm, abs=1e-9)


# -- principal angles and distances ------------------------------------------


def test_angles_identity():
    rng = np.random.default_rng(9)
    a = random_grassmann_point(rng, 6, 2)
    assert np.allclose(principal_angles(a, a), 0.0, atol=1e-12)


def test_angles_orthogonal_lines():
    assert principal_angles(e(3, 0), e(3, 1))[0] == pytest.approx(np.pi / 2, abs=1e-14)


def test_angles_inclusion():
    angles = principal_angles(e(3, 0), e(3, 0, 1))
    assert angles.shape == (1,)
    assert angles[0] == pytest.approx(0.0, abs=1e-14)


def test_angles_are_read_only():
    angles = principal_angles(e(4, 0, 1), e(4, 1, 2))
    assert angles.dtype == np.float64 and not angles.flags.writeable
    with pytest.raises(ValueError):
        angles[0] = 0.0


def test_angles_non_increasing_in_range():
    rng = np.random.default_rng(10)
    for _ in range(50):
        a = random_grassmann_point(rng, 9, 3)
        b = random_grassmann_point(rng, 9, 3)
        ang = principal_angles(a, b)
        assert np.all(np.diff(ang) <= 1e-15)
        assert np.all(ang >= 0.0) and np.all(ang <= np.pi / 2 + 1e-15)


def test_distance_line_oracle():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(2, 30))
        a = random_grassmann_point(rng, n, 1)
        b = random_grassmann_point(rng, n, 1)
        expected = line_angle(a.frame, b.frame)
        assert riemannian_distance(a, b) == pytest.approx(expected, abs=1e-12)


def test_distance_diameter_saturation():
    assert riemannian_distance(e(2, 0), e(2, 1)) == pytest.approx(np.pi / 2, abs=1e-14)
    assert diameter(1, 2) == pytest.approx(np.pi / 2, abs=1e-15)


def test_distance_rejects_mode_mismatch():
    with pytest.raises(ParameterError):
        riemannian_distance(e(4, 0), e(4, 0, 1))


def test_distance_metric_properties():
    rng = np.random.default_rng(12)
    for _ in range(30):
        pts = [random_grassmann_point(rng, 8, 2) for _ in range(3)]
        dab = riemannian_distance(pts[0], pts[1])
        dba = riemannian_distance(pts[1], pts[0])
        assert dab == pytest.approx(dba, abs=1e-12)
        dbc = riemannian_distance(pts[1], pts[2])
        dac = riemannian_distance(pts[0], pts[2])
        assert dac <= dab + dbc + 1e-10
        assert riemannian_distance(pts[0], pts[0]) < 1e-12


def test_distance_bounded_by_diameter():
    rng = np.random.default_rng(13)
    for _ in range(100):
        n = int(rng.integers(2, 30))
        p = int(rng.integers(1, n + 1))
        a = random_grassmann_point(rng, n, p)
        b = random_grassmann_point(rng, n, p)
        assert riemannian_distance(a, b) <= diameter(p, n) + 1e-12


def test_geometric_distance_inclusion_and_orthogonal():
    assert geometric_distance(e(3, 0), e(3, 0, 1)) == 0.0
    assert geometric_distance(e(3, 1), e(3, 0)) == pytest.approx(np.pi / 2, abs=1e-14)


def test_geometric_distance_matches_riemannian_equal_modes():
    rng = np.random.default_rng(14)
    for _ in range(30):
        a = random_grassmann_point(rng, 9, 3)
        b = random_grassmann_point(rng, 9, 3)
        assert geometric_distance(a, b) == pytest.approx(riemannian_distance(a, b), abs=1e-12)


# -- cut time and injectivity -------------------------------------------------


def test_cut_time_values():
    base = GrassmannPoint(np.eye(4)[:, :1])
    for theta1, expected in ((np.pi / 2, 1.0), (np.pi / 4, 2.0)):
        v = TangentVector(base=base, lift=np.array([[0.0], [theta1], [0.0], [0.0]]))
        assert cut_time(v) == pytest.approx(expected, abs=1e-14)


def test_cut_time_zero_vector_undefined():
    base = GrassmannPoint(np.eye(4)[:, :1])
    with pytest.raises(CutTimeUndefinedError):
        cut_time(TangentVector(base=base, lift=np.zeros((4, 1))))


def test_cut_time_marks_log_domain_boundary():
    rng = np.random.default_rng(15)
    base = random_grassmann_point(rng, 8, 2)
    v = random_tangent(rng, base, theta1=1.0)
    rho = cut_time(v)
    before = geodesic(base, v, rho - 1e-3)
    after = geodesic(base, v, rho + 1e-3)
    w = log_map(base, before)  # still inside the domain
    assert riemannian_distance(exp_map(base, w), before) < 1e-9
    # past the cut time the round trip breaks (or the log fails outright)
    try:
        w2 = log_map(base, after)
        round_trip = np.max(np.abs(w2.lift - (rho + 1e-3) * v.lift))
        assert round_trip > 1e-3
    except LogMapDomainError:
        pass


def test_injectivity_zero_vector():
    base = GrassmannPoint(np.eye(4)[:, :1])
    chk = in_injectivity_domain(TangentVector(base=base, lift=np.zeros((4, 1))))
    assert chk.cut_locus_ok and chk.radius_ok
    assert chk.theta1 == 0.0 and chk.norm == 0.0


def test_injectivity_strictness_witness():
    # two equal angles 1.2: norm 1.2 * sqrt(2) > pi/2 but theta_1 = 1.2 < pi/2
    base = GrassmannPoint(np.eye(4)[:, :2])
    lift = np.zeros((4, 2))
    lift[2, 0] = 1.2
    lift[3, 1] = 1.2
    chk = in_injectivity_domain(TangentVector(base=base, lift=lift))
    assert chk.cut_locus_ok and not chk.radius_ok
    assert chk.norm == pytest.approx(1.2 * np.sqrt(2), abs=1e-14)


def test_injectivity_large_angle():
    base = GrassmannPoint(np.eye(4)[:, :1])
    v = TangentVector(base=base, lift=np.array([[0.0], [1.6], [0.0], [0.0]]))
    assert not in_injectivity_domain(v).cut_locus_ok


def test_cut_locus_predicate_is_elementwise():
    angles = np.array([[0.0, np.pi / 2 - 2 * C2_MARGIN], [np.pi / 2 - C2_MARGIN, np.nan]])
    verdicts = below_cut_locus(angles)
    assert verdicts.shape == angles.shape
    assert verdicts.tolist() == [[True, True], [False, False]]
    assert verdicts.tolist() == [[below_cut_locus(float(a)) for a in row] for row in angles]
    assert type(below_cut_locus(0.0)) is bool


def test_radius_implies_cut_locus():
    rng = np.random.default_rng(16)
    for _ in range(200):
        n = int(rng.integers(4, 20))
        p = int(rng.integers(1, n // 2 + 1))
        base = random_grassmann_point(rng, n, p)
        v = random_tangent(rng, base, theta1=rng.uniform(0.0, 3.0))
        chk = in_injectivity_domain(v)
        if chk.radius_ok:
            assert chk.cut_locus_ok
