"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (run pytest with -s or check captured
output) and enforces both the numerical tolerance and the runtime budget of
its criterion.
"""

import time

import numpy as np
import pytest

from gpmor import (
    FamilySpec,
    SnapshotMatrix,
    TrainingSet,
    c2_sweep,
    c3_distance_table,
    check_c3,
    compute_pod,
    diameter,
    exp_map,
    gen_crossing_family,
    gen_nested_family,
    gen_nonnested_family,
    grassmann_dimension,
    in_injectivity_domain,
    interpolate,
    log_map,
    reduced_model,
    riemannian_distance,
)
from gpmor.grassmann import GrassmannPoint, TangentVector
from oracles import line_angle, random_grassmann_point, random_tangent


def report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_01_dimension_tables():
    t0 = time.perf_counter()
    table_1728 = {1: 1727, 2: 3452, 5: 8615, 10: 17180, 20: 34160}
    table_726 = {1: 725, 2: 1448, 5: 3605, 10: 7160, 20: 14120}
    ok = all(grassmann_dimension(p, 1728) == d for p, d in table_1728.items()) and all(
        grassmann_dimension(p, 726) == d for p, d in table_726.items()
    )
    elapsed = time.perf_counter() - t0
    report("criterion 1: dimension tables exact", ok and elapsed < 1e-3,
           f"elapsed {elapsed * 1e3:.3f} ms")


def test_criterion_02_c3_verdict_replay():
    check_c3(np.zeros((2, 2)), threshold=100.0)  # warm up numpy before timing
    t0 = time.perf_counter()

    def table_with_eps(eps):
        dmin = 0.01
        t = np.array([[0.0, dmin, dmin * (1 + eps)],
                      [dmin, 0.0, dmin],
                      [dmin * (1 + eps), dmin, 0.0]])
        return t

    unstable = check_c3(table_with_eps(554.03), threshold=100.0)
    stable = check_c3(table_with_eps(73.60), threshold=100.0)
    ok = (
        not unstable.ok
        and abs(unstable.epsilon - 554.03) < 1e-9
        and stable.ok
        and abs(stable.epsilon - 73.60) < 1e-9
    )
    elapsed = time.perf_counter() - t0
    report("criterion 2: C3 verdict replay (554.03 unstable, 73.60 stable)",
           ok and elapsed < 1e-3, f"elapsed {elapsed * 1e3:.3f} ms")


def test_criterion_03_exp_log_round_trip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_dist = 0.0
    worst_lift = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 61))
        p = int(rng.integers(1, min(6, n // 2) + 1))
        base = random_grassmann_point(rng, n, p)
        theta1 = rng.uniform(1e-3, np.pi / 2 - 0.05)
        v = random_tangent(rng, base, theta1=theta1)
        target = exp_map(base, v)
        back = log_map(base, target)
        worst_lift = max(worst_lift, float(np.max(np.abs(back.lift - v.lift))))
        worst_dist = max(worst_dist, riemannian_distance(exp_map(base, back), target))
    elapsed = time.perf_counter() - t0
    ok = worst_dist < 1e-9 and worst_lift < 1e-8 and elapsed < 10.0
    report("criterion 3: 1000 exp/log round trips",
           ok, f"max dist {worst_dist:.2e}, max lift err {worst_lift:.2e}, {elapsed:.1f} s")


def test_criterion_04_distance_oracle_p1():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    worst = 0.0
    bound_ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 40))
        a = random_grassmann_point(rng, n, 1)
        b = random_grassmann_point(rng, n, 1)
        d = riemannian_distance(a, b)
        worst = max(worst, abs(d - line_angle(a.frame, b.frame)))
        if d > diameter(1, n) + 1e-12:
            bound_ok = False
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and bound_ok and elapsed < 5.0
    report("criterion 4: p=1 distance oracle and diameter bound",
           ok, f"max deviation {worst:.2e}, {elapsed:.1f} s")


def test_criterion_05_radius_vs_cut_locus():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    counterexamples = 0
    for _ in range(1000):
        n = int(rng.integers(4, 30))
        p = int(rng.integers(1, n // 2 + 1))
        base = random_grassmann_point(rng, n, p)
        v = random_tangent(rng, base, theta1=rng.uniform(0.0, 3.0))
        chk = in_injectivity_domain(v)
        if chk.radius_ok and not chk.cut_locus_ok:
            counterexamples += 1
    # constructed witness: two equal angles 1.2 so the norm exceeds pi/2
    base = GrassmannPoint(np.eye(6)[:, :2])
    lift = np.zeros((6, 2))
    lift[2, 0] = 1.2
    lift[3, 1] = 1.2
    witness = in_injectivity_domain(TangentVector(base=base, lift=lift))
    elapsed = time.perf_counter() - t0
    ok = (
        counterexamples == 0
        and witness.cut_locus_ok
        and not witness.radius_ok
        and elapsed < 2.0
    )
    report("criterion 5: radius implies cut-locus, with strictness witness",
           ok, f"{counterexamples} counterexamples, {elapsed:.1f} s")


def test_criterion_06_eckart_young():
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 61))
        nt = int(rng.integers(1, 41))
        s = SnapshotMatrix(data=rng.standard_normal((n, nt)))
        p = int(rng.integers(1, min(n, nt) + 1))
        pod = compute_pod(s, p)
        residual = float(np.linalg.norm(s.data - reduced_model(s, pod.basis)))
        expected = float(np.sqrt(np.sum(pod.singular_values[p:] ** 2)))
        scale = max(expected, float(pod.singular_values[0]))
        worst = max(worst, abs(residual - expected) / scale)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 10.0
    report("criterion 6: Eckart-Young residual identity on 100 matrices",
           ok, f"max relative deviation {worst:.2e}, {elapsed:.1f} s")


def test_criterion_07_node_reproduction():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        kind = ("rotation", "nested")[int(rng.integers(0, 2))]
        modes = int(rng.integers(1, 4))
        n = int(rng.integers(2 * modes, 16))
        k = int(rng.integers(2, 5))
        params = tuple(np.sort(rng.uniform(0.0, 3.0, size=k)))
        if len(set(params)) != k:
            continue
        spec = FamilySpec(n=n, n_t=20, mode_count=modes, kind=kind, rate=0.2,
                          seed=int(rng.integers(0, 10000)), params=params)
        fam = gen_nested_family(spec) if kind == "nested" else None
        if fam is None:
            from gpmor import gen_rotation_family

            fam = gen_rotation_family(spec)
        pts = tuple((s.param, compute_pod(s, modes).basis) for s in fam.snapshots)
        ts = TrainingSet(points=pts)
        for lam, pt in ts.points:
            res = interpolate(ts, lam)
            worst = max(worst, riemannian_distance(res.frame, pt))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 10.0
    report("criterion 7: node reproduction on 50 random training sets",
           ok, f"max node distance {worst:.2e}, {elapsed:.1f} s")


def test_criterion_08_c2_interval_detection():
    t0 = time.perf_counter()
    rate = np.pi / 2  # crossing at |lambda| = 1 from the reference node at 0
    spec = FamilySpec(n=12, n_t=30, mode_count=2, kind="crossing", rate=rate, seed=11,
                      params=(-0.8, 0.0, 0.8))
    fam = gen_crossing_family(spec)
    offset = fam.manifest["crossing_offset"]
    pts = tuple((s.param, compute_pod(s, 2).basis) for s in fam.snapshots)
    ts = TrainingSet(points=pts)
    sweep = c2_sweep(ts, -1.5, 1.5, 201, 1)
    step = 3.0 / 200
    bad = [lam for lam, c2_ok in zip(sweep.grid, sweep.c2_ok) if sweep.c1.ok and not c2_ok]
    neg_edge = max(x for x in bad if x < 0)
    pos_edge = min(x for x in bad if x > 0)
    interior = all(c2_ok or sweep.c1.ok for c2_ok in sweep.c2_ok)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(neg_edge - (-offset)) <= step + 1e-12
        and abs(pos_edge - offset) <= step + 1e-12
        and interior
        and elapsed < 30.0
    )
    report("criterion 8: C2 unstable-interval endpoints within one grid step",
           ok, f"edges {neg_edge:.3f}/{pos_edge:.3f} vs +-{offset}, {elapsed:.1f} s")


def test_criterion_09_c3_dichotomy():
    t0 = time.perf_counter()
    modes = [1, 2, 3, 4, 5]
    target = 1.5

    def family_table(fam):
        frames = []
        for p in modes:
            pts = tuple((s.param, compute_pod(s, p).basis) for s in fam.snapshots)
            res = interpolate(TrainingSet(points=pts), target)
            assert res.ok
            frames.append((p, res.frame))
        return c3_distance_table(frames)

    nested = gen_nested_family(
        FamilySpec(n=16, n_t=40, mode_count=5, kind="nested", rate=0.05, seed=7,
                   params=(0.0, 1.0, 2.0, 3.0))
    )
    nested_table = family_table(nested)
    nested_rec = check_c3(nested_table)
    off = nested_table.values[~np.eye(len(modes), dtype=bool)]

    nonnested = gen_nonnested_family(
        FamilySpec(n=16, n_t=40, mode_count=5, kind="nonnested", rate=0.3, seed=2,
                   params=(0.0, 1.0, 2.0, 3.0))
    )
    nonnested_rec = check_c3(family_table(nonnested))
    elapsed = time.perf_counter() - t0
    ok = (
        float(np.max(off)) < 1e-6
        and nested_rec.ok
        and nonnested_rec.epsilon > 100.0
        and not nonnested_rec.ok
        and elapsed < 60.0
    )
    report("criterion 9: C3 dichotomy (nested stable, non-nested unstable)", ok,
           f"nested max off-diag {np.max(off):.2e} eps {nested_rec.epsilon:.2f}, "
           f"non-nested eps {nonnested_rec.epsilon:.2f}, {elapsed:.1f} s")


def test_criterion_10_metric_oracles():
    from oracles import naive_frobenius_error, naive_l2_series

    from gpmor import frobenius_error, l2_error_series

    t0 = time.perf_counter()
    rng = np.random.default_rng(10)
    worst = 0.0
    scaling_exact = True
    for _ in range(100):
        n = int(rng.integers(2, 15))
        nt = int(rng.integers(1, 12))
        ref = SnapshotMatrix(data=rng.standard_normal((n, nt)))
        approx = SnapshotMatrix(data=rng.standard_normal((n, nt)))
        got = l2_error_series(approx, ref)
        want = naive_l2_series(approx.data, ref.data)
        worst = max(worst, max(abs(a - b) for a, b in zip(got, want)))
        worst = max(
            worst,
            abs(frobenius_error(approx, ref) - naive_frobenius_error(approx.data, ref.data)),
        )
        doubled = SnapshotMatrix(data=2.0 * ref.data)
        series = l2_error_series(doubled, ref)
        if any(e != 1.0 for e in series) or frobenius_error(doubled, ref) != 1.0:
            scaling_exact = False
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-13 and scaling_exact and elapsed < 5.0
    report("criterion 10: metric oracles and exact scaling case",
           ok, f"max oracle deviation {worst:.2e}, {elapsed:.1f} s")


def test_criterion_11_pipeline_determinism(tmp_path):
    from gpmor import cli

    t0 = time.perf_counter()

    def run(*argv):
        assert cli.main([str(a) for a in argv]) in (0, 12)

    src_dir = tmp_path / "src"
    run("--out", src_dir, "--quiet", "--seed", 11, "synth", "--kind", "crossing",
        "--n", 12, "--nt", 30, "--modes", 2, "--rate", np.pi / 2,
        "--params=-0.8,0.0,0.8")
    src = sorted(str(p) for p in src_dir.glob("snapshot_*.gpm"))
    c3_dir = tmp_path / "c3src"
    run("--out", c3_dir, "--quiet", "--seed", 7, "synth", "--kind", "nested", "--n", 16,
        "--nt", 40, "--modes", 5, "--rate", 0.05, "--params", "0,1,2,3")
    c3_src = sorted(str(p) for p in c3_dir.glob("snapshot_*.gpm"))

    def pipeline(out):
        run("--out", out / "pod", "--quiet", "pod", *src, "--mode", 2)
        run("--out", out / "interp", "--quiet", "interpolate", *src, "--mode", 2,
            "--target", 0.4, "--reference-index", 1)
        run("--out", out / "sweep", "--quiet", "sweep-c2", *src, "--mode", 2,
            "--lo", -1.5, "--hi", 1.5, "--samples", 101, "--reference-index", 1)
        run("--out", out / "c3", "--quiet", "check-c3", *c3_src, "--modes", "1,2,3,4,5",
            "--target", 1.5)
        run("--out", out / "metrics", "--quiet", "metrics", "--approx", src[0],
            "--reference", src[0])

    pipeline(tmp_path / "run1")
    pipeline(tmp_path / "run2")
    files1 = sorted(p for p in (tmp_path / "run1").rglob("*") if p.is_file())
    files2 = sorted(p for p in (tmp_path / "run2").rglob("*") if p.is_file())
    identical = [p.name for p in files1] == [p.name for p in files2] and all(
        a.read_bytes() == b.read_bytes() for a, b in zip(files1, files2)
    )
    elapsed = time.perf_counter() - t0
    ok = identical and len(files1) >= 8 and elapsed < 120.0
    report("criterion 11: byte-identical full-pipeline reruns",
           ok, f"{len(files1)} files compared, {elapsed:.1f} s")
