import tracemalloc

import numpy as np
import pytest

from gpmor import (
    FamilySpec,
    ParameterError,
    TrainingSet,
    c2_sweep,
    compute_pod,
    gen_crossing_family,
    gen_nested_family,
    gen_nonnested_family,
    gen_rotation_family,
    generate,
    principal_angles,
    riemannian_distance,
    singular_spectrum,
)
from oracles import nonnested_snapshots, scipy_expm_apply, turning_snapshots

from gpmor.synth import _ladder, expm_skew


def test_spec_validation():
    with pytest.raises(ParameterError):
        FamilySpec(n=4, n_t=10, mode_count=3, kind="rotation", rate=0.1, seed=0, params=(0.0,))
    with pytest.raises(ParameterError):
        FamilySpec(n=8, n_t=10, mode_count=2, kind="bogus", rate=0.1, seed=0, params=(0.0,))
    with pytest.raises(ParameterError):
        FamilySpec(n=8, n_t=10, mode_count=2, kind="rotation", rate=0.1, seed=0,
                   params=(0.0, 0.0))
    with pytest.raises(ParameterError):
        FamilySpec(n=8, n_t=10, mode_count=2, kind="rotation", rate=-0.1, seed=0, params=(0.0,))


@pytest.mark.parametrize("field, value", [
    ("noise", -1.0), ("noise", np.nan), ("noise", np.inf), ("rate", np.nan), ("rate", np.inf),
])
def test_spec_rejects_negative_or_non_finite_noise_and_rate(field, value):
    kwargs = dict(n=8, n_t=10, mode_count=2, kind="nested", rate=0.1, seed=0, params=(0.0,))
    with pytest.raises(ParameterError, match=f"{field} must be finite and non-negative"):
        FamilySpec(**dict(kwargs, **{field: value}))


def test_determinism_bitwise():
    spec = FamilySpec(n=8, n_t=12, mode_count=2, kind="rotation", rate=0.1, seed=5,
                      params=(0.0, 1.0))
    a = generate(spec)
    b = generate(spec)
    for sa, sb in zip(a.snapshots, b.snapshots):
        assert np.array_equal(sa.data, sb.data)


def test_rotation_rate_zero_constant_family():
    # noiseless: with noise the subspaces only agree to the noise floor
    spec = FamilySpec(n=8, n_t=12, mode_count=2, kind="rotation", rate=0.0, seed=1,
                      params=(0.0, 1.0, 2.0), noise=0.0)
    fam = gen_rotation_family(spec)
    bases = [compute_pod(s, 2).basis for s in fam.snapshots]
    for b in bases[1:]:
        assert riemannian_distance(bases[0], b) < 1e-10


def test_rotation_p1_known_angle():
    spec = FamilySpec(n=8, n_t=12, mode_count=1, kind="rotation", rate=0.1, seed=2,
                      params=(0.0, 1.0))
    fam = gen_rotation_family(spec)
    a = compute_pod(fam.snapshots[0], 1).basis
    b = compute_pod(fam.snapshots[1], 1).basis
    assert riemannian_distance(a, b) == pytest.approx(0.1, abs=1e-6)


def test_rotation_p2_known_angles():
    spec = FamilySpec(n=8, n_t=12, mode_count=2, kind="rotation", rate=0.05, seed=3,
                      params=(0.0, 2.0))
    fam = gen_rotation_family(spec)
    a = compute_pod(fam.snapshots[0], 2).basis
    b = compute_pod(fam.snapshots[1], 2).basis
    assert np.allclose(principal_angles(a, b).angles, [0.1, 0.1], atol=1e-6)


def test_rotation_warns_on_crossing_rate():
    spec = FamilySpec(n=8, n_t=12, mode_count=1, kind="rotation", rate=2.0, seed=4,
                      params=(0.0, 1.0))
    with pytest.warns(RuntimeWarning):
        gen_rotation_family(spec)


def test_singular_ladder_recovered():
    spec = FamilySpec(n=10, n_t=20, mode_count=3, kind="rotation", rate=0.1, seed=5,
                      params=(0.0,))
    fam = gen_rotation_family(spec)
    sp = singular_spectrum(fam.snapshots[0])
    assert np.allclose(sp[:3], _ladder(3), rtol=1e-4)


def test_designed_subspace_recovered():
    spec = FamilySpec(n=10, n_t=20, mode_count=2, kind="rotation", rate=0.3, seed=6,
                      params=(0.0, 0.5))
    fam = gen_rotation_family(spec)
    # distance between the two designed subspaces is rate * spread per plane
    a = compute_pod(fam.snapshots[0], 2).basis
    b = compute_pod(fam.snapshots[1], 2).basis
    assert riemannian_distance(a, b) == pytest.approx(0.15 * np.sqrt(2), abs=1e-5)


def test_rotation_family_memory_scales_with_n():
    # an n x n ambient draw would take 3.2 GB here
    n, n_t, p = 20000, 50, 10
    spec = FamilySpec(n=n, n_t=n_t, mode_count=p, kind="rotation", rate=0.1, seed=14,
                      params=(0.0, 1.0), noise=0.0)
    tracemalloc.start()
    try:
        fam = gen_rotation_family(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the two snapshots kept, plus the three n x n_t temporaries of assembling one
    assert peak < 6 * n * n_t * 8
    a = compute_pod(fam.snapshots[0], p).basis
    b = compute_pod(fam.snapshots[1], p).basis
    # noiseless, so the designed distance rate * 1.0 * sqrt(p) holds to rounding
    assert riemannian_distance(a, b) == pytest.approx(0.1 * np.sqrt(p), abs=1e-10)


def test_crossing_manifest_predictions():
    spec = FamilySpec(n=8, n_t=12, mode_count=1, kind="crossing", rate=np.pi / 2, seed=7,
                      params=(-0.5, 0.0, 0.5))
    fam = gen_crossing_family(spec)
    assert fam.manifest["crossing_offset"] == pytest.approx(1.0, abs=1e-15)
    assert fam.manifest["crossing_points"]["0.0"] == [-1.0, 1.0]


def test_crossing_low_rate_sweep_all_ok():
    spec = FamilySpec(n=8, n_t=12, mode_count=1, kind="crossing", rate=0.1, seed=8,
                      params=(-0.5, 0.0, 0.5))
    fam = gen_crossing_family(spec)
    pts = tuple((s.param, compute_pod(s, 1).basis) for s in fam.snapshots)
    ts = TrainingSet(points=pts)
    assert all(c2_sweep(ts, -0.5, 0.5, 51, 1).c2_ok)


def test_crossing_theta_zero_at_reference():
    spec = FamilySpec(n=8, n_t=12, mode_count=1, kind="crossing", rate=1.0, seed=9,
                      params=(-0.5, 0.0, 0.5))
    fam = gen_crossing_family(spec)
    pts = tuple((s.param, compute_pod(s, 1).basis) for s in fam.snapshots)
    ts = TrainingSet(points=pts)
    sweep = c2_sweep(ts, -0.5, 0.5, 5, 1)
    assert sweep.grid[2] == 0.0
    assert sweep.thetas[2] == pytest.approx(0.0, abs=1e-10)


def test_nested_rate_zero_distances_zero():
    spec = FamilySpec(n=10, n_t=20, mode_count=3, kind="nested", rate=0.0, seed=10,
                      params=(0.0, 1.0), noise=0.0)
    fam = gen_nested_family(spec)
    for p in (1, 2, 3):
        a = compute_pod(fam.snapshots[0], p).basis
        b = compute_pod(fam.snapshots[1], p).basis
        assert riemannian_distance(a, b) < 1e-10


def test_nonnested_requires_kind():
    spec = FamilySpec(n=10, n_t=20, mode_count=3, kind="nested", rate=0.1, seed=11,
                      params=(0.0, 1.0))
    with pytest.raises(ParameterError):
        gen_nonnested_family(spec)


def test_nonnested_deterministic():
    spec = FamilySpec(n=10, n_t=20, mode_count=3, kind="nonnested", rate=0.3, seed=12,
                      params=(0.0, 1.0))
    a = generate(spec)
    b = generate(spec)
    for sa, sb in zip(a.snapshots, b.snapshots):
        assert np.array_equal(sa.data, sb.data)


@pytest.mark.parametrize("n, n_t, p, seed", [(10, 20, 3, 12), (16, 40, 5, 2),
                                             (2, 5, 1, 0), (3, 5, 1, 0), (4, 5, 1, 0)])
def test_nonnested_matches_full_ambient_draw(n, n_t, p, seed):
    # n = 3 draws a 1 x 1 curvature generator and n = 2 an empty one: both have
    # zero norm and must stay the zero generator, not 0 / 0
    params = (0.0, 1.0, 2.0, 3.0)
    spec = FamilySpec(n=n, n_t=n_t, mode_count=p, kind="nonnested", rate=0.3, seed=seed,
                      params=params)
    fam = gen_nonnested_family(spec)
    expected = nonnested_snapshots(n, n_t, p, 0.3, seed, params, spec.noise)
    independent = nonnested_snapshots(n, n_t, p, 0.3, seed, params, spec.noise, scipy_expm_apply)
    for snap, data, ref in zip(fam.snapshots, expected, independent):
        assert np.array_equal(snap.data, data)
        assert np.max(np.abs(snap.data - ref)) <= 1e-12


def _random_skew(rng, n, norm):
    a = rng.standard_normal((n, n))
    a -= a.T
    return a * (norm / np.linalg.norm(a, 2))


@pytest.mark.parametrize("n", [*range(2, 61), 400])
def test_expm_skew_matches_scipy(n):
    rng = np.random.default_rng(n)
    p = max(1, n // 3)
    b = np.linalg.qr(rng.standard_normal((n, p)))[0]
    for norm in (1e-8, 0.3, 3.0, 30.0):
        a = _random_skew(rng, n, norm)
        got = expm_skew(a, b)
        assert np.max(np.abs(got - scipy_expm_apply(a, b))) <= 1e-12
        assert np.max(np.abs(got.T @ got - np.eye(p))) <= 1e-13
    # lam = 0 in the nonnested generator: zero times the generators, signed zeros included
    assert np.array_equal(expm_skew(0.0 * a, b), b)


@pytest.mark.parametrize("seed", [0, 3, 17])
@pytest.mark.parametrize("n, n_t, p", [(14, 9, 1), (14, 9, 3), (4000, 200, 10)])
@pytest.mark.parametrize("kind, rate, moving", [("rotation", 0.2, None), ("crossing", 1.1, None),
                                                ("nested", 0.4, 1)])
def test_turning_kinds_match_column_oracle(kind, rate, moving, n, n_t, p, seed):
    params = (-0.7, 0.0, 0.45, 1.3)
    spec = FamilySpec(n=n, n_t=n_t, mode_count=p, kind=kind, rate=rate, seed=seed, params=params)
    fam = generate(spec)
    noise = min(spec.noise, 1e-10) if kind == "nested" else spec.noise
    expected = turning_snapshots(n, n_t, p, rate, seed, params, noise, moving or p)
    assert [s.param for s in fam.snapshots] == list(params)
    for snap, data in zip(fam.snapshots, expected):
        assert np.array_equal(snap.data, data)


def test_manifest_contents():
    spec = FamilySpec(n=8, n_t=12, mode_count=2, kind="rotation", rate=0.1, seed=13,
                      params=(0.0, 1.0))
    fam = gen_rotation_family(spec)
    m = fam.manifest
    assert m["schema"] == "gpm/1"
    assert m["rng"] == "pcg64"
    assert m["spec"]["seed"] == 13
    assert m["singular_value_ladder"] == [10.0, 5.0]
