import tracemalloc

import numpy as np
import pytest

from gpmor import (
    C3Record,
    FamilySpec,
    GrassmannPoint,
    ParameterError,
    StabilityReport,
    TangentVector,
    TrainingSet,
    c2_sweep,
    c3_distance_table,
    check_c1,
    check_c2,
    check_c3,
    compute_pod,
    generate,
    grassmann_dimension,
    in_injectivity_domain,
    interpolate,
    principal_angles,
    riemannian_distance,
    snapshots,
)
from gpmor.grassmann import deterministic_qr
from gpmor.stability import EXIT_C1, EXIT_C2, EXIT_C3, EXIT_OK, C1Record, C2Record, tangent_step
from oracles import random_grassmann_point, random_tangent


# -- dimensions ---------------------------------------------------------------

# dimension p(n-p) of G(p, n) for two ambient sizes used as regression anchors
TABLE_1728 = {1: 1727, 2: 3452, 5: 8615, 10: 17180, 20: 34160}
TABLE_726 = {1: 725, 2: 1448, 5: 3605, 10: 7160, 20: 14120}


def test_dimension_tables():
    for p, expected in TABLE_1728.items():
        assert grassmann_dimension(p, 1728) == expected
    for p, expected in TABLE_726.items():
        assert grassmann_dimension(p, 726) == expected


def test_dimension_full_space_and_errors():
    assert grassmann_dimension(7, 7) == 0
    with pytest.raises(ParameterError):
        grassmann_dimension(8, 7)
    with pytest.raises(ParameterError):
        grassmann_dimension(0, 7)


# -- C1 -----------------------------------------------------------------------


def test_c1_identical_points_ok():
    rng = np.random.default_rng(0)
    pt = random_grassmann_point(rng, 8, 2)
    pts = tuple((float(i), GrassmannPoint(pt.frame.copy())) for i in range(3))
    rec = check_c1(TrainingSet(points=pts), 0)
    assert rec.ok
    assert np.allclose(rec.min_singular_values, 1.0, atol=1e-12)


def test_c1_orthogonal_point_fails():
    pts = (
        (0.0, GrassmannPoint(np.eye(4)[:, :1])),
        (1.0, GrassmannPoint(np.eye(4)[:, 1:2])),
    )
    rec = check_c1(TrainingSet(points=pts), 0)
    assert not rec.ok
    assert rec.failing_indices == (1,)


def test_c1_nested_family_all_modes_ok():
    spec = FamilySpec(
        n=12, n_t=30, mode_count=5, kind="nested", rate=0.05, seed=1, params=(0.0, 1.0, 2.0)
    )
    fam = generate(spec)
    for p in (1, 2, 5):
        pts = tuple((s.param, compute_pod(s, p).basis) for s in fam.snapshots)
        rec = check_c1(TrainingSet(points=pts), 0)
        assert rec.ok


# -- C2 -----------------------------------------------------------------------


def test_c2_verdicts():
    rng = np.random.default_rng(1)
    base = random_grassmann_point(rng, 8, 2)
    zero = random_tangent(rng, base, theta1=0.0)
    assert check_c2(zero.lift).ok and check_c2(zero.lift).theta_max == 0.0
    near = random_tangent(rng, base, theta1=1.5707)
    assert check_c2(near.lift).ok
    over = random_tangent(rng, base, theta1=1.58)
    assert not check_c2(over.lift).ok


def test_c2_margin_shared_with_cut_locus_check():
    # inside pi/2 but within C2_MARGIN of it: both verdicts call it unstable
    base = GrassmannPoint(np.eye(4)[:, :1])
    v = TangentVector(base=base, lift=np.array([[0.0], [np.pi / 2 - 5e-13], [0.0], [0.0]]))
    assert not in_injectivity_domain(v).cut_locus_ok
    assert not check_c2(v.lift).ok


# -- C3 -----------------------------------------------------------------------


def test_c3_table_nested_frames_zero():
    q = np.linalg.qr(np.random.default_rng(2).standard_normal((10, 4)))[0]
    results = [(p, GrassmannPoint(q[:, :p])) for p in (1, 2, 4)]
    table = c3_distance_table(results)
    assert np.all(table.values == 0.0)


def test_c3_table_hand_construction():
    # mode-2 frame shares a rotated first column; its extra column is
    # orthogonal to the mode-1 line, so the single principal angle is 0.3
    e = np.eye(5)
    y1 = GrassmannPoint(e[:, :1])
    rotated = np.cos(0.3) * e[:, 0] + np.sin(0.3) * e[:, 1]
    y2 = GrassmannPoint(np.column_stack([rotated, e[:, 2]]))
    table = c3_distance_table([(1, y1), (2, y2)])
    assert table.values[0, 1] == pytest.approx(0.3, abs=1e-12)


def test_c3_table_rejects_single_mode():
    # C3 compares modes, so a one-mode table has no off-diagonal to judge
    rng = np.random.default_rng(3)
    with pytest.raises(ParameterError, match="at least 2"):
        c3_distance_table([(2, random_grassmann_point(rng, 8, 2))])


def test_c3_table_symmetric_zero_diagonal():
    rng = np.random.default_rng(4)
    results = [(p, random_grassmann_point(rng, 12, p)) for p in (1, 2, 3, 5)]
    t = c3_distance_table(results).values
    assert np.allclose(t, t.T, atol=1e-12)
    assert np.all(np.diag(t) == 0.0)


def test_c3_table_rejects_duplicate_modes():
    rng = np.random.default_rng(5)
    with pytest.raises(ParameterError):
        c3_distance_table(
            [(2, random_grassmann_point(rng, 8, 2)), (2, random_grassmann_point(rng, 8, 2))]
        )


def test_c3_verdict_reference_values():
    # distance tables engineered to reproduce the two reference spread ratios
    def table_with_eps(eps):
        dmin = 0.01
        dmax = dmin * (1.0 + eps)
        t = np.zeros((3, 3))
        t[0, 1] = t[1, 0] = dmin
        t[0, 2] = t[2, 0] = dmax
        t[1, 2] = t[2, 1] = dmin
        return t

    unstable = check_c3(table_with_eps(554.03), threshold=100.0)
    assert not unstable.ok
    assert unstable.epsilon == pytest.approx(554.03, rel=1e-12)
    stable = check_c3(table_with_eps(73.60), threshold=100.0)
    assert stable.ok
    assert stable.epsilon == pytest.approx(73.60, rel=1e-12)


def test_c3_equal_entries_epsilon_zero():
    t = np.full((3, 3), 0.2)
    np.fill_diagonal(t, 0.0)
    rec = check_c3(t)
    assert rec.epsilon == 0.0 and rec.ok


def test_c3_zero_dmin_defined_stable():
    t = np.zeros((2, 2))
    rec = check_c3(t)
    assert rec.epsilon == 0.0 and rec.ok


def test_c3_zero_dmin_positive_dmax_unstable():
    # one coinciding pair next to a separated one: the spread ratio is infinite
    t = np.array([[0.0, 0.0, 8.7e-7], [0.0, 0.0, 8.7e-7], [8.7e-7, 8.7e-7, 0.0]])
    rec = check_c3(t)
    assert rec.epsilon == np.inf and not rec.ok


def test_c3_scale_invariance():
    rng = np.random.default_rng(6)
    t = np.abs(rng.standard_normal((4, 4)))
    t = (t + t.T) / 2
    np.fill_diagonal(t, 0.0)
    a = check_c3(t).epsilon
    b = check_c3(10.0 * t).epsilon
    assert a == pytest.approx(b, abs=1e-12)


def test_c3_rejects_single_mode_table():
    with pytest.raises(ParameterError):
        check_c3(np.zeros((1, 1)))


def test_c3_pod_bases_of_one_matrix_nest():
    rng = np.random.default_rng(7)
    from gpmor import SnapshotMatrix

    s = SnapshotMatrix(data=rng.standard_normal((20, 15)))
    results = [(p, compute_pod(s, p).basis) for p in (1, 2, 5)]
    table = c3_distance_table(results).values
    off = table[~np.eye(3, dtype=bool)]
    assert np.max(off) < 1e-8


def test_distance_table_equal_modes_degenerate_case():
    rng = np.random.default_rng(8)
    a = random_grassmann_point(rng, 9, 3)
    b = random_grassmann_point(rng, 9, 3)
    from gpmor import geometric_distance

    assert geometric_distance(a, b) == pytest.approx(riemannian_distance(a, b), abs=1e-12)


# -- report and exit codes ----------------------------------------------------


def test_exit_code_priority():
    c1_bad = C1Record(ok=False, failing_indices=(1,), min_singular_values=(0.0,))
    c1_good = C1Record(ok=True, failing_indices=(), min_singular_values=(1.0,))
    c2_bad = C2Record(ok=False, theta_max=1.6)
    c2_good = C2Record(ok=True, theta_max=0.1)
    c3_bad = C3Record(epsilon=200.0, threshold=100.0, ok=False)
    c3_good = C3Record(epsilon=1.0, threshold=100.0, ok=True)
    assert StabilityReport(c1=c1_bad, c2=c2_bad, c3=c3_bad).exit_code() == EXIT_C1
    assert StabilityReport(c1=c1_good, c2=c2_bad, c3=c3_bad).exit_code() == EXIT_C2
    assert StabilityReport(c1=c1_good, c2=c2_good, c3=c3_bad).exit_code() == EXIT_C3
    assert StabilityReport(c1=c1_good, c2=c2_good, c3=c3_good).exit_code() == EXIT_OK


def test_report_schema():
    rep = StabilityReport(c3=C3Record(epsilon=1.0, threshold=100.0, ok=True))
    d = rep.to_dict()
    assert d["schema"] == "gpm/1"
    assert d["c3"]["ok"] is True


def test_tangent_step_holds_row_blocks_not_lifts(monkeypatch):
    # five nodes of 20000 x 10 in 1 MB row blocks: the fold holds about
    # three blocks (the block, [R; block] and LAPACK's copy of it) and the
    # lifts are 50 x 10 coordinates, where n-sized lifts held ten n x p
    # arrays (16 MB)
    rng = np.random.default_rng(13)
    n, p = 20000, 10
    base = random_grassmann_point(rng, n, p)
    ts = TrainingSet(points=tuple(
        (float(i), GrassmannPoint(deterministic_qr(base.frame + 0.1 * i * rng.standard_normal((n, p)))))
        for i in range(5)))
    monkeypatch.setattr(snapshots, "STREAM_BYTES", 1 << 20)
    tracemalloc.start()
    try:
        c1, _, lifts = tangent_step(ts, 2, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert c1.ok and lifts.shape == (5, 50, p)
    assert peak < 3.5 * snapshots.STREAM_BYTES


def test_joint_span_folded_from_row_blocks_matches_one_block(monkeypatch):
    # the node bases' 900 x 12 stack in row blocks of 100 rows gives the
    # one-block fold's theta_1 and frame to rounding
    spec = FamilySpec(n=900, n_t=20, mode_count=3, kind="nonnested", rate=0.3, seed=5,
                      params=(0.0, 1.0, 2.0, 3.0))
    ts = TrainingSet(points=tuple((s.param, compute_pod(s, 3).basis) for s in generate(spec).snapshots))
    whole = interpolate(ts, 1.5)
    monkeypatch.setattr(snapshots, "STREAM_BYTES", 100 * 12 * 8)
    shapes = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda a, mode: shapes.append(a.shape) or qr(a, mode=mode))
    # a fresh set: ts keeps the fold its first call made
    folded = interpolate(TrainingSet(points=ts.points), 1.5)
    # each block below the 12 x 12 triangle, and no QR of the lift stack
    assert shapes == [(100, 12)] + [(112, 12)] * 8
    assert folded.c2.theta_max == pytest.approx(whole.c2.theta_max, rel=1e-13)
    assert principal_angles(folded.frame, whole.frame)[0] < 1e-13


def test_one_fold_per_training_set(monkeypatch):
    # README's library quick start: interpolate, two sweeps and check_c1 on
    # one set all read the set's one fold of its node bases
    spec = FamilySpec(n=16, n_t=40, mode_count=2, kind="rotation", rate=0.1, seed=1,
                      params=(0.0, 1.0, 2.0, 3.0))
    ts = TrainingSet(points=tuple((s.param, compute_pod(s, 2).basis) for s in generate(spec).snapshots))
    chains = []
    fold_triangle = snapshots.fold_triangle
    monkeypatch.setattr(snapshots, "fold_triangle",
                        lambda blocks: chains.append(ts.n) or fold_triangle(blocks))
    result = interpolate(ts, target=1.5)
    assert result.ok and c2_sweep(ts, 0.0, 3.0, 31, reference_index=0).c1.ok
    assert c2_sweep(ts, 1.5, 3.0, 7, result.reference_index).thetas[0] == result.c2.theta_max
    assert check_c1(ts, result.reference_index) == result.c1
    assert chains == [16]
