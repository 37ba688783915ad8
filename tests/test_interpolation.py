import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gpmor import (
    C1Record,
    C2Sweep,
    FamilySpec,
    GrassmannPoint,
    LogMapDomainError,
    ParameterError,
    TrainingSet,
    c2_sweep,
    check_c1,
    compute_pod,
    generate,
    interpolate,
    kernels,
    lagrange_weights,
    log_map,
    principal_angles,
    riemannian_distance,
)
from oracles import barycentric_eval_weights, random_grassmann_point

from gpmor.errors import GpmError
from gpmor.grassmann import C2_MARGIN, overlap_invertible
from gpmor.interpolation import interpolate_modes, training_set
from gpmor.snapshots import SnapshotMatrix, factor_pod


def make_training_set(rng, n, p, params):
    pts = tuple((lam, random_grassmann_point(rng, n, p)) for lam in params)
    return TrainingSet(points=pts)


# -- weights ------------------------------------------------------------------


def test_weights_node_reproduction():
    w = lagrange_weights([1.0, 2.0, 4.0], 2.0)
    assert w == [0.0, 1.0, 0.0]


def test_weights_linear_midpoint():
    assert lagrange_weights([0.0, 1.0], 0.5) == [0.5, 0.5]


def test_weights_match_barycentric_oracle():
    nodes = [50.0, 60.0, 85.0, 90.0]
    w = lagrange_weights(nodes, 75.0)
    oracle = barycentric_eval_weights(nodes, 75.0)
    assert np.allclose(w, oracle, atol=1e-12)
    assert sum(w) == pytest.approx(1.0, abs=1e-12)


def test_weights_partition_of_unity_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        k = int(rng.integers(2, 8))
        nodes = np.sort(rng.uniform(-5, 5, size=k))
        if np.min(np.diff(nodes)) < 0.2:
            continue  # nearly coincident nodes make the sum ill-conditioned
        target = rng.uniform(-6, 6)
        assert sum(lagrange_weights(nodes, target)) == pytest.approx(1.0, abs=1e-12)


def test_weights_reject_duplicates():
    with pytest.raises(ParameterError):
        lagrange_weights([1.0, 1.0], 0.5)


# -- training set -------------------------------------------------------------


def test_training_set_rejects_duplicate_params():
    rng = np.random.default_rng(1)
    pt = random_grassmann_point(rng, 6, 2)
    with pytest.raises(ParameterError):
        TrainingSet(points=((0.0, pt), (0.0, pt)))


def test_training_set_rejects_empty():
    with pytest.raises(ParameterError, match="training set is empty"):
        TrainingSet(points=())


def test_training_set_rejects_mixed_modes():
    rng = np.random.default_rng(2)
    with pytest.raises(ParameterError):
        TrainingSet(
            points=(
                (0.0, random_grassmann_point(rng, 6, 2)),
                (1.0, random_grassmann_point(rng, 6, 3)),
            )
        )


def test_training_set_rejects_half_dimension_violation():
    rng = np.random.default_rng(3)
    with pytest.raises(ParameterError):
        TrainingSet(points=((0.0, random_grassmann_point(rng, 5, 3)),))


@st.composite
def factor_families(draw):
    # snapshots U diag(s) V^T of one shape and drawn rank, spectra from a
    # few values so that some repeat, and factors that may keep fewer
    # vectors than the rank
    n, n_t = draw(st.integers(2, 10)), draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    factors = []
    for i in range(draw(st.integers(1, 3))):
        rank = draw(st.integers(1, min(n, n_t)))
        sv = sorted(draw(st.lists(st.sampled_from([1.0, 0.5, 1e-3]), min_size=rank, max_size=rank)),
                    reverse=True)
        u, v = (np.linalg.qr(rng.standard_normal((k, rank)))[0] for k in (n, n_t))
        data = SnapshotMatrix(data=(u * sv) @ v.T, param=float(i))
        factors.append(factor_pod(data, draw(st.integers(0, rank))))
    return factors


@given(factor_families())
def test_training_set_fails_on_a_tail_of_the_modes(factors):
    # every way training_set can fail (p > q, rank < p, p past the kept
    # vectors, 2p > n) is monotone in p: the modes of [1, q + 1] it builds
    # are {1, ..., p*} for some p* >= 0
    q = min(factors[0].shape)
    built = []
    for p in range(1, q + 2):
        with warnings.catch_warnings():
            # a repeated singular value flags a degenerate gap
            warnings.simplefilter("ignore", RuntimeWarning)
            try:
                built.append(training_set(factors, p).mode)
            except GpmError:
                pass
    assert built == list(range(1, len(built) + 1))
    assert len(built) <= q


@pytest.mark.parametrize("n, nodes, p, rank", [
    (200, 5, 4, None),
    (12, 5, 3, None),
    (40, 6, 3, 5),
    (1000, 3, 5, 6),
    (30, 1, 4, None),
], ids=["tall", "wide", "rank-deficient", "tall-rank-deficient", "one-node"])
def test_ambient_maps_each_nodes_coordinates_back_to_its_frame(n, nodes, p, rank):
    # the way back to n undoes the fold: node i's coordinates give Y_i, on a
    # stack wider than n, of rank below NP, and on one node, whose
    # coordinates are zero-padded to 2P rows
    rng = np.random.default_rng(n + nodes)
    span = np.linalg.qr(rng.standard_normal((n, rank)))[0] if rank else None
    ts = TrainingSet(points=tuple(
        (float(i), GrassmannPoint(np.linalg.qr(span @ rng.standard_normal((rank, p)))[0])
         if rank else random_grassmann_point(rng, n, p)) for i in range(nodes)))
    assert ts.coords.shape[1] == max(min(n, nodes * p), 2 * p)
    for i, (_, pt) in enumerate(ts.points):
        back = ts.ambient(ts.coords[i])
        assert back.flags.f_contiguous and not back.flags.writeable
        assert np.max(np.abs(back - pt.frame)) <= 1e-13


def test_reference_defaults_to_nearest_node():
    rng = np.random.default_rng(4)
    ts = make_training_set(rng, 8, 2, [0.0, 1.0, 5.0])
    assert interpolate(ts, 4.2).reference_index == 2
    assert interpolate(ts, 0.4).reference_index == 0


# -- interpolate --------------------------------------------------------------


def test_node_reproduction():
    rng = np.random.default_rng(5)
    ts = make_training_set(rng, 10, 2, [0.0, 0.3, 0.7, 1.0])
    for i, (lam, pt) in enumerate(ts.points):
        res = interpolate(ts, lam)
        assert res.ok
        assert riemannian_distance(res.frame, pt) < 1e-9


def test_single_point_constant_polynomial():
    rng = np.random.default_rng(6)
    pt = random_grassmann_point(rng, 8, 2)
    ts = TrainingSet(points=((3.0, pt),))
    res = interpolate(ts, 17.0)
    assert res.ok
    assert riemannian_distance(res.frame, pt) < 1e-12


def test_rotation_family_exact_interpolation():
    # noiseless so the only error source is the interpolation itself, which is
    # exact for a lift linear in the parameter
    spec = FamilySpec(
        n=8, n_t=20, mode_count=1, kind="rotation", rate=1.0, seed=9,
        params=(0.0, 0.2, 0.4), noise=0.0,
    )
    fam = generate(spec)
    pts = tuple((s.param, compute_pod(s, 1).basis) for s in fam.snapshots)
    ts = TrainingSet(points=pts)
    res = interpolate(ts, 0.3)
    assert res.ok
    base = pts[0][1]
    # the analytic trajectory turns at unit rate, so the target subspace sits
    # exactly 0.3 rad from the first node and 0.1 rad from the second
    assert riemannian_distance(res.frame, base) == pytest.approx(0.3, abs=1e-8)
    assert riemannian_distance(res.frame, pts[1][1]) == pytest.approx(0.1, abs=1e-8)


def test_interpolate_builds_its_weights_twice(monkeypatch):
    # once for the combination and the weight bound, once inside theta_curve
    calls = []
    lagrange_matrix = kernels.lagrange_matrix

    def counting(*args):
        calls.append(args)
        return lagrange_matrix(*args)

    spec = FamilySpec(n=8, n_t=20, mode_count=1, kind="rotation", rate=1.0, seed=9,
                      params=(0.0, 0.2, 0.4), noise=0.0)
    ts = TrainingSet(points=tuple((s.param, compute_pod(s, 1).basis)
                                  for s in generate(spec).snapshots))
    monkeypatch.setattr(kernels, "lagrange_matrix", counting)
    assert interpolate(ts, 0.3).ok
    assert len(calls) == 2


def test_c1_failure_is_verdict_not_crash():
    pts = (
        (0.0, GrassmannPoint(np.eye(4)[:, :1])),
        (1.0, GrassmannPoint(np.eye(4)[:, 1:2])),
    )
    ts = TrainingSet(points=pts)
    res = interpolate(ts, 0.5, reference_index=0)
    assert not res.c1.ok and not res.ok
    assert res.c1.failing_indices == (1,)
    assert res.frame is None


def test_interpolate_modes_refuses_a_mode_past_the_fold():
    ts = make_training_set(np.random.default_rng(4), 8, 2, [0.0, 1.0, 2.0])
    assert [r.ok for r in interpolate_modes(ts, 0.5, [2, 1])] == [True, True]
    for p in (0, 3):
        with pytest.raises(ParameterError, match=rf"^mode p={p} out of range \[1, 2\] of the fold$"):
            list(interpolate_modes(ts, 0.5, [1, p]))


def test_c1_failure_lists_every_failing_node():
    pts = tuple((float(i), GrassmannPoint(np.eye(6)[:, i:i + 1])) for i in range(3))
    res = interpolate(TrainingSet(points=pts), 0.5, reference_index=0)
    assert res.c1.failing_indices == (1, 2)
    assert res.c2 is None and not res.ok


@given(
    n=st.integers(2, 200),
    p=st.integers(1, 5),
    log_gap=st.floats(-14.0, -1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_near_cut_locus_gives_a_verdict(n, p, log_gap, seed):
    # two nodes whose largest principal angle is pi/2 - gap, each frame
    # turned by a random p x p rotation
    p = min(p, n // 2)
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((n, 2 * p)))[0]
    angles = rng.uniform(0.0, np.pi / 2, p)
    angles[0] = np.pi / 2 - 10.0**log_gap
    turn = [np.linalg.qr(rng.standard_normal((p, p)))[0] for _ in range(2)]
    base = GrassmannPoint(q[:, :p] @ turn[0])
    far = GrassmannPoint((q[:, :p] * np.cos(angles) + q[:, p:] * np.sin(angles)) @ turn[1])
    ts = TrainingSet(points=((0.0, base), (1.0, far)))
    # from every reference: C1 fails where log_map raises, and each lift,
    # formed in the fold's coordinates, maps back to log_map's; the
    # reference's own is exactly zero. The two overlaps round differently, so
    # a node whose verdict a relative 1e-9 move of its singular values flips
    # is left out of the verdict comparison.
    for ref, (_, ref_pt) in enumerate(ts.points):
        c1, _, lifts = ts.tangent_step(ref, p)
        for i, (_, pt) in enumerate(ts.points):
            sv = np.linalg.svd(ref_pt.frame.T @ pt.frame, compute_uv=False)
            firm = overlap_invertible(sv * (1 + 1e-9), n) == overlap_invertible(sv * (1 - 1e-9), n)
            try:
                lift = log_map(ref_pt, pt).lift
            except LogMapDomainError:
                assert not firm or i in c1.failing_indices
                continue
            assert not firm or i not in c1.failing_indices
            if lifts is not None and i != ref:
                np.testing.assert_allclose(ts.ambient(lifts[i]), lift, rtol=0.0, atol=1e-9)
        assert c1.ok == (lifts is not None)
        assert lifts is None or np.all(lifts[ref] == 0.0)
        assert check_c1(ts, ref) == c1
        res = interpolate(ts, 0.5, reference_index=ref)
        assert res.c1 == c1 and (res.c2 is not None) == c1.ok
        sweep = c2_sweep(ts, 0.0, 1.0, 5, ref)
        assert sweep.c1 == c1 and bool(np.all(np.isfinite(sweep.thetas))) == c1.ok


def test_c2_failure_returns_no_frame():
    spec = FamilySpec(
        n=8, n_t=20, mode_count=1, kind="crossing", rate=np.pi / 2, seed=10,
        params=(-0.8, 0.0, 0.8),
    )
    fam = generate(spec)
    pts = tuple((s.param, compute_pod(s, 1).basis) for s in fam.snapshots)
    ts = TrainingSet(points=pts)
    res = interpolate(ts, 1.3, reference_index=1)  # theta_1 = (pi/2) * 1.3 > pi/2
    assert res.c1.ok and not res.c2.ok
    assert res.frame is None
    assert res.c2.theta_max >= np.pi / 2 - 1e-12


def test_extrapolation_tagged():
    rng = np.random.default_rng(7)
    ts = make_training_set(rng, 8, 1, [0.0, 1.0])
    assert interpolate(ts, 2.0).extrapolated
    assert not interpolate(ts, 0.5).extrapolated


def test_velocity_is_horizontal():
    rng = np.random.default_rng(8)
    ts = make_training_set(rng, 12, 2, [0.0, 0.1, 0.2])
    res = interpolate(ts, 0.15, reference_index=1)
    base = ts.points[1][1]
    assert np.max(np.abs(res.velocity.lift.T @ base.frame)) < 1e-10


def test_velocity_is_the_combination_c2_judged():
    # interpolate_modes exponentiates kernels.combine's lift, the matrix
    # theta_curve judges up to an exact power-of-two scaling
    spec = FamilySpec(n=16, n_t=20, mode_count=3, kind="crossing", rate=0.5, seed=4,
                      params=(-1.0, -0.25, 0.5, 1.25), noise=1e-6)
    ts = TrainingSet(points=tuple((s.param, compute_pod(s, 3).basis)
                                  for s in generate(spec).snapshots))
    for target in (0.1, 1.6):
        [res] = interpolate_modes(ts, target, [3], reference_index=2)
        lifts = ts.tangent_step(2, 3)[2]
        combined = kernels.combine(lifts, [lagrange_weights(ts.params, target)])[0]
        assert res.ok and np.array_equal(res.velocity.lift, combined)


# -- c2 sweep -----------------------------------------------------------------


def test_sweep_identical_points_all_zero():
    rng = np.random.default_rng(9)
    pt = random_grassmann_point(rng, 8, 2)
    frames = [pt.frame, pt.frame.copy(), pt.frame.copy()]
    pts = tuple((float(i), GrassmannPoint(f)) for i, f in enumerate(frames))
    ts = TrainingSet(points=pts)
    sweep = c2_sweep(ts, 0.0, 2.0, 21, 0)
    assert sweep.c1.ok
    for theta, c2_ok in zip(sweep.thetas, sweep.c2_ok):
        assert theta == pytest.approx(0.0, abs=1e-12)
        assert c2_ok


def test_sweep_zero_at_reference_node():
    rng = np.random.default_rng(10)
    ts = make_training_set(rng, 10, 2, [0.0, 0.5, 1.0])
    sweep = c2_sweep(ts, 0.0, 1.0, 5, 1)
    assert sweep.grid[2] == 0.5  # grid point exactly at lambda = 0.5
    assert sweep.thetas[2] == pytest.approx(0.0, abs=1e-12)


def test_sweep_theta_at_nodes_matches_log():
    rng = np.random.default_rng(11)
    ts = make_training_set(rng, 10, 2, [0.0, 0.5, 1.0])
    sweep = c2_sweep(ts, 0.0, 1.0, 3, 0)
    base = ts.points[0][1]
    for grid_lam, theta, (lam, pt) in zip(sweep.grid, sweep.thetas, ts.points):
        assert grid_lam == lam
        expected = 0.0 if pt is base else float(np.linalg.norm(log_map(base, pt).lift, 2))
        assert theta == pytest.approx(expected, abs=1e-10)


def test_sweep_crossing_family_matches_prediction():
    rate = np.pi / 2
    spec = FamilySpec(
        n=12, n_t=30, mode_count=2, kind="crossing", rate=rate, seed=11,
        params=(-0.8, 0.0, 0.8),
    )
    fam = generate(spec)
    assert fam.manifest["crossing_offset"] == pytest.approx(1.0, abs=1e-15)
    pts = tuple((s.param, compute_pod(s, 2).basis) for s in fam.snapshots)
    ts = TrainingSet(points=pts)
    sweep = c2_sweep(ts, -1.5, 1.5, 201, 1)
    step = 3.0 / 200
    bad = [lam for lam, c2_ok in zip(sweep.grid, sweep.c2_ok) if not c2_ok]
    assert abs(max(x for x in bad if x < 0) - (-1.0)) <= step + 1e-12
    assert abs(min(x for x in bad if x > 0) - 1.0) <= step + 1e-12


def test_sweep_c1_failure_marks_all_invalid():
    pts = (
        (0.0, GrassmannPoint(np.eye(4)[:, :1])),
        (1.0, GrassmannPoint(np.eye(4)[:, 1:2])),
    )
    ts = TrainingSet(points=pts)
    sweep = c2_sweep(ts, 0.0, 1.0, 5, 0)
    assert not sweep.c1.ok and sweep.c1.failing_indices == (1,)
    assert np.all(np.isnan(sweep.thetas)) and not any(sweep.c2_ok)
    assert sweep.unstable_intervals() == []


def test_far_outside_hull_gives_c2_verdict_matching_sweep():
    # eight nodes extrapolated to lambda = 20..50: the Lagrange weights grow
    # so large that the combined lift leaves the horizontal space by more than
    # the TangentVector tolerance, yet the verdict must still be C2's
    spec = FamilySpec(
        n=200, n_t=40, mode_count=3, kind="rotation", rate=0.1, seed=1,
        params=tuple(float(x) for x in range(8)),
    )
    pts = tuple((s.param, compute_pod(s, 3).basis) for s in generate(spec).snapshots)
    sweep = c2_sweep(TrainingSet(points=pts), 20.0, 50.0, 4, 7)
    for target, swept in zip((20.0, 30.0, 50.0), sweep.thetas[[0, 1, 3]]):
        res = interpolate(TrainingSet(points=pts), target)
        assert res.reference_index == 7 and res.c1.ok
        assert not res.c2.ok and res.frame is None and res.velocity is None
        assert res.c2.theta_max == swept


def test_far_extrapolation_within_c2_gives_frame_matching_sweep():
    # noiseless and slow: theta_1 = 0.13 at lambda = 20, well inside C2, while
    # weights with sum |w_i| ~ 8e6 lift the lifts' 1e-16 rounding to 1e-9
    spec = FamilySpec(
        n=200, n_t=40, mode_count=3, kind="rotation", rate=0.01, seed=1, noise=0.0,
        params=(*(float(x) for x in range(8)), 20.0, 30.0),
    )
    snaps = generate(spec).snapshots
    pts = tuple((s.param, compute_pod(s, 3).basis) for s in snaps[:8])
    sweep = c2_sweep(TrainingSet(points=pts), 20.0, 30.0, 2, 7)
    for snap, swept in zip(snaps[8:], sweep.thetas):
        res = interpolate(TrainingSet(points=pts), snap.param)
        assert res.ok and res.reference_index == 7
        assert res.c2.theta_max == pytest.approx(0.01 * (snap.param - 7.0), rel=1e-6)
        # the held-out snapshot's own subspace, which the family turns exactly
        assert principal_angles(res.frame, compute_pod(snap, 3).basis)[0] < 1e-7
    res = interpolate(TrainingSet(points=pts), 20.0)
    assert res.c2.theta_max == sweep.thetas[0]


def _pod_training_set(p, **spec):
    family = generate(FamilySpec(mode_count=p, **spec))
    return TrainingSet(points=tuple((s.param, compute_pod(s, p).basis) for s in family.snapshots))


@pytest.mark.parametrize("ts, lo, hi, samples, ref, invalid", [
    # nine nodes on [-3, 3], p = 4, swept past both ends of the hull: C2
    # passes near the reference and fails beyond the cut locus on either side
    *((_pod_training_set(4, n=40, n_t=20, kind=kind, rate=rate, seed=seed,
                         params=tuple(np.linspace(-3.0, 3.0, 9).tolist())), -9.3, 9.1, 81, ref, False)
      for kind, rate in (("crossing", 0.5), ("rotation", 0.2), ("nonnested", 0.8))
      for seed, ref in ((1, 4), (2, 0), (3, 7))),
    # the 60-node noiseless family of the CLI's sixty-node sweep: samples
    # near both ends of the hull are past the weight bound
    (_pod_training_set(2, n=10, n_t=6, kind="rotation", rate=0.02,
                       seed=3, noise=0.0, params=tuple(float(x) for x in range(60))),
     0.0, 59.0, 237, 30, True),
])
def test_interpolate_agrees_with_every_sweep_sample(ts, lo, hi, samples, ref, invalid):
    # at each sample's exact lambda and reference, interpolate reads the same
    # theta_1 bits and gives the same verdict; it refuses exactly the samples
    # the sweep marks invalid
    sweep = c2_sweep(ts, lo, hi, samples, ref)
    for lam, theta, ok in zip(sweep.grid.tolist(), sweep.thetas.tolist(), sweep.c2_ok):
        if np.isnan(theta):
            with pytest.raises(ParameterError, match=r"sum \|w_i\|"):
                interpolate(ts, lam, ref)
        else:
            res = interpolate(ts, lam, ref)
            assert res.c2.theta_max == theta and res.c2.ok == ok and res.ok == ok
    # both kinds of sample occur
    assert (sweep.invalid_samples > 0) == invalid and sum(sweep.c2_ok) > 0
    assert invalid or sum(sweep.c2_ok) < samples


def test_far_extrapolation_weights_bound_is_a_parameter_error():
    # lambda = 50 passes C2 (theta_1 = 0.43), but weights with sum |w_i| ~ 1e10
    # would leave the geodesic's frame past its orthonormality tolerance
    spec = FamilySpec(n=200, n_t=40, mode_count=3, kind="rotation", rate=0.01, seed=1,
                      noise=0.0, params=tuple(float(x) for x in range(8)))
    ts = TrainingSet(points=tuple((s.param, compute_pod(s, 3).basis)
                                  for s in generate(spec).snapshots))
    assert interpolate(ts, 35.0).ok
    with pytest.raises(ParameterError, match=r"target 50.0 .* sum \|w_i\| = 1.1"):
        interpolate(ts, 50.0)


C1_PASSED = C1Record(ok=True, failing_indices=(), min_singular_values=(1.0, 1.0))


def scan_runs(grid, bad):
    """[first, last] grid value of each maximal run of True in `bad`, by a
    start/end index scan written independently of C2Sweep."""
    runs = []
    start = None
    for i, b in enumerate(list(bad) + [False]):
        if b and start is None:
            start = i
        elif not b and start is not None:
            runs.append([grid[start], grid[i - 1]])
            start = None
    return runs


@given(bad=st.lists(st.booleans(), min_size=2, max_size=40))
@example(bad=[False] * 6)  # no bad sample
@example(bad=[True] * 6)  # all bad
@example(bad=[True, True, False, False, True])  # runs touching both ends
@example(bad=[False, True, False, True, False, False, True])  # single-sample runs
def test_unstable_intervals_match_run_scan(bad):
    grid = np.linspace(-2.0, 3.0, len(bad))
    thetas = np.where(bad, np.pi / 2, 0.0)
    sweep = C2Sweep(grid, thetas, C1_PASSED)
    assert sweep.c2_ok == [not b for b in bad]
    assert sweep.unstable_intervals() == scan_runs(grid.tolist(), bad)
    # C1 failure: no lift exists, so no sample is a C2 verdict
    void = C2Sweep(grid, np.full(len(bad), np.nan),
                   C1Record(ok=False, failing_indices=(1,), min_singular_values=(1.0, 0.0)))
    assert not any(void.c2_ok) and void.unstable_intervals() == []


def test_sweep_c2_flags_use_the_margin():
    grid = np.array([0.0, 1.0, 2.0])
    thetas = np.array([np.pi / 2 - 2 * C2_MARGIN, np.pi / 2 - C2_MARGIN, 0.0])
    sweep = C2Sweep(grid, thetas, C1_PASSED)
    assert sweep.c2_ok == [True, False, True]
    assert sweep.unstable_intervals() == [[1.0, 1.0]]


def test_sweep_arrays_are_frozen_so_verdicts_cannot_go_stale():
    spec = FamilySpec(n=12, n_t=30, mode_count=2, kind="rotation", rate=0.1, seed=4,
                      params=(0.0, 1.0, 2.0, 3.0))
    pts = tuple((s.param, compute_pod(s, 2).basis) for s in generate(spec).snapshots)
    sweep = c2_sweep(TrainingSet(points=pts), 0.0, 3.0, 7, 1)
    assert all(sweep.c2_ok)
    for a in (sweep.grid, sweep.thetas):
        with pytest.raises(ValueError, match="read-only"):
            a[:] = 3.0
    assert all(sweep.c2_ok) and sweep.unstable_intervals() == []
    # a caller's writeable arrays are copied, not frozen
    grid, thetas = np.linspace(0.0, 1.0, 3), np.zeros(3)
    record = C2Sweep(grid, thetas, C1_PASSED)
    assert grid.flags.writeable and thetas.flags.writeable
    assert not np.shares_memory(record.grid, grid) and not np.shares_memory(record.thetas, thetas)


def test_sweep_validates_arguments():
    rng = np.random.default_rng(12)
    ts = make_training_set(rng, 8, 2, [0.0, 1.0])
    with pytest.raises(ParameterError):
        c2_sweep(ts, 0.0, 1.0, 1, 0)
    with pytest.raises(ParameterError):
        c2_sweep(ts, 1.0, 0.0, 10, 0)
    for ref in (2, -1):
        with pytest.raises(ParameterError, match=f"reference index {ref} out of range"):
            c2_sweep(ts, 0.0, 1.0, 10, ref)
