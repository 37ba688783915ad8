import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gpmor import (
    SnapshotMatrix,
    TrainingSet,
    c3_distance_table,
    cli,
    compute_pod,
    fileio,
    interpolate,
    riemannian_distance,
)
from gpmor.fileio import fmt, read_frame, read_json, read_snapshot, write_snapshot_bin


def run(*argv):
    return cli.main([str(a) for a in argv])


def synth_family(out, kind="rotation", n=8, nt=12, modes=2, rate=0.1,
                 params="0.0,1.0,2.0", seed=3, noise=1e-6):
    code = run(
        "--out", out, "--quiet", "--seed", seed, "synth",
        "--kind", kind, "--n", n, "--nt", nt, "--modes", modes,
        "--rate", rate, f"--params={params}", "--noise", noise,
    )
    assert code == 0
    return sorted(str(p) for p in out.glob("snapshot_*.gpm"))


def test_cli_import_does_not_load_scipy():
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    code = "import sys, gpmor.cli; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


# -- synth --------------------------------------------------------------------


def test_synth_writes_files_and_manifest(tmp_path):
    files = synth_family(tmp_path / "fam")
    assert len(files) == 3
    manifest = read_json(tmp_path / "fam" / "manifest.json")
    assert manifest["schema"] == "gpm/1"
    assert manifest["files"] == [f"snapshot_{i:03d}.gpm" for i in range(3)]


def test_synth_deterministic_rerun(tmp_path):
    a = synth_family(tmp_path / "a", seed=9)
    b = synth_family(tmp_path / "b", seed=9)
    for fa, fb in zip(a, b):
        assert open(fa, "rb").read() == open(fb, "rb").read()
    assert (tmp_path / "a" / "manifest.json").read_bytes() == (
        tmp_path / "b" / "manifest.json"
    ).read_bytes()


def test_synth_rate_zero_degenerate(tmp_path):
    files = synth_family(tmp_path / "fam", rate=0.0, noise=0.0)
    bases = [compute_pod(read_snapshot(f), 2).basis for f in files]
    for b in bases[1:]:
        assert riemannian_distance(bases[0], b) < 1e-10


# -- pod ----------------------------------------------------------------------


def test_pod_outputs(tmp_path):
    files = synth_family(tmp_path / "fam")
    out = tmp_path / "pod"
    assert run("--out", out, "--quiet", "pod", *files, "--mode", 2) == 0
    for f in files:
        stem = f.split("/")[-1].removesuffix(".gpm")
        frame = read_frame(out / f"basis_{stem}.gpf").frame
        assert np.max(np.abs(frame.T @ frame - np.eye(2))) < 1e-12
    summary = read_json(out / "pod_summary.json")
    assert summary["schema"] == "gpm/1"
    assert all(rec["uniqueness"] for rec in summary["inputs"])


def test_pod_mode_out_of_range(tmp_path, capsys):
    files = synth_family(tmp_path / "fam", n=8, nt=12)
    code = run("--out", tmp_path / "pod", "pod", files[0], "--mode", 9)
    assert code == 2
    err = capsys.readouterr().err
    assert "[1, 8]" in err  # the message names the actual bound


def test_pod_spectrum_csv_full_precision(tmp_path):
    files = synth_family(tmp_path / "fam")
    out = tmp_path / "pod"
    assert run("--out", out, "--quiet", "pod", files[0], "--mode", 2) == 0
    # the spectrum cmd_pod writes comes from the POD factorization itself
    expected = compute_pod(read_snapshot(files[0]), 2).singular_values
    stem = files[0].split("/")[-1].removesuffix(".gpm")
    rows = [
        line.split(",") for line in (out / f"spectrum_{stem}.csv").read_text().splitlines()
        if not line.startswith("#")
    ]
    got = np.array([float(v) for _, v in rows])
    assert np.array_equal(got, expected)


# -- interpolate --------------------------------------------------------------


def test_interpolate_at_node(tmp_path):
    files = synth_family(tmp_path / "fam")
    out = tmp_path / "interp"
    assert run("--out", out, "--quiet", "interpolate", *files, "--mode", 2,
               "--target", 1.0) == 0
    frame = read_frame(out / "interpolated.gpf")
    node = compute_pod(read_snapshot(files[1]), 2).basis
    assert riemannian_distance(frame, node) < 1e-9
    report = read_json(out / "interpolation_report.json")
    assert report["c1"]["ok"] and report["c2"]["ok"]
    assert report["meta"]["grassmann_dimension"] == 2 * (8 - 2)
    assert report["meta"]["extrapolated"] is False


def test_interpolate_crossing_exit_11(tmp_path):
    files = synth_family(
        tmp_path / "fam", kind="crossing", rate=np.pi / 2, params="-0.8,0.0,0.8", modes=1
    )
    out = tmp_path / "interp"
    code = run("--out", out, "--quiet", "interpolate", *files, "--mode", 1,
               "--target", 1.3, "--reference-index", 1)
    assert code == 11
    report = read_json(out / "interpolation_report.json")
    assert report["c2"]["ok"] is False
    assert report["c2"]["theta_max"] >= np.pi / 2 - 1e-12
    assert not (out / "interpolated.gpf").exists()


# -- sweep-c2 -----------------------------------------------------------------


def read_sweep_csv(path):
    rows = [
        line.split(",") for line in path.read_text().splitlines() if not line.startswith("#")
    ]
    return (
        np.array([float(r[0]) for r in rows]),
        np.array([float(r[1]) for r in rows]),
        np.array([int(r[2]) for r in rows]),
    )


def test_sweep_grid_spacings(tmp_path):
    files = synth_family(tmp_path / "fam", params="50,60,85,90", rate=0.01, modes=1)
    out = tmp_path / "sweep"
    assert run("--out", out, "--quiet", "sweep-c2", *files, "--mode", 1,
               "--lo", 50, "--hi", 90, "--samples", 401, "--reference-index", 2) == 0
    lam, _, _ = read_sweep_csv(out / "sweep_c2.csv")
    assert len(lam) == 401
    assert lam[0] == 50.0 and lam[-1] == 90.0
    assert np.allclose(np.diff(lam), 0.1, atol=1e-12)

    out2 = tmp_path / "sweep2"
    files2 = synth_family(tmp_path / "fam2", params="15,20,25,30", rate=0.01, modes=1)
    assert run("--out", out2, "--quiet", "sweep-c2", *files2, "--mode", 1,
               "--lo", 15, "--hi", 30, "--samples", 151, "--reference-index", 1) == 0
    lam2, _, _ = read_sweep_csv(out2 / "sweep_c2.csv")
    assert len(lam2) == 151
    assert np.allclose(np.diff(lam2), 0.1, atol=1e-12)


def test_sweep_constant_family_all_zero(tmp_path):
    files = synth_family(tmp_path / "fam", rate=0.0, modes=1)
    out = tmp_path / "sweep"
    assert run("--out", out, "--quiet", "sweep-c2", *files, "--mode", 1,
               "--lo", 0, "--hi", 2, "--samples", 21, "--reference-index", 0) == 0
    _, theta, ok = read_sweep_csv(out / "sweep_c2.csv")
    assert np.all(theta < 1e-6)
    assert np.all(ok == 1)


def test_sweep_unstable_intervals_reported(tmp_path):
    files = synth_family(
        tmp_path / "fam", kind="crossing", rate=np.pi / 2, params="-0.8,0.0,0.8", modes=1
    )
    out = tmp_path / "sweep"
    assert run("--out", out, "--quiet", "sweep-c2", *files, "--mode", 1,
               "--lo", -1.5, "--hi", 1.5, "--samples", 201, "--reference-index", 1) == 0
    report = read_json(out / "sweep_c2.json")
    intervals = report["unstable_intervals"]
    assert len(intervals) == 2
    step = 3.0 / 200
    assert abs(intervals[0][1] - (-1.0)) <= step + 1e-12
    assert abs(intervals[1][0] - 1.0) <= step + 1e-12


# -- check-c3 -----------------------------------------------------------------


def test_check_c3_nested_ok(tmp_path):
    files = synth_family(tmp_path / "fam", kind="nested", n=16, nt=40, modes=5,
                         rate=0.05, params="0,1,2,3", seed=7)
    out = tmp_path / "c3"
    code = run("--out", out, "--quiet", "check-c3", *files, "--modes", "1,2,3,4,5",
               "--target", 1.5)
    assert code == 0
    report = read_json(out / "c3_report.json")
    assert report["c3"]["ok"] is True
    assert report["c3"]["epsilon"] < 100.0


def test_check_c3_nonnested_exit_12(tmp_path):
    files = synth_family(tmp_path / "fam", kind="nonnested", n=16, nt=40, modes=5,
                         rate=0.3, params="0,1,2,3", seed=2)
    out = tmp_path / "c3"
    code = run("--out", out, "--quiet", "check-c3", *files, "--modes", "1,2,3,4,5",
               "--target", 1.5)
    assert code == 12
    report = read_json(out / "c3_report.json")
    assert report["c3"]["epsilon"] > 100.0


def test_check_c3_injected_table_exit_12(tmp_path):
    dmin = 0.01
    dmax = dmin * (1.0 + 554.03)
    table = np.array([[0.0, dmin, dmax], [dmin, 0.0, dmin], [dmax, dmin, 0.0]])
    path = tmp_path / "table.csv"
    with open(path, "w") as fh:
        fh.write("# gpm-c3-table modes=1,2,5\n")
        for row in table:
            fh.write(",".join(fmt(x) for x in row) + "\n")
    out = tmp_path / "c3"
    code = run("--out", out, "--quiet", "check-c3", "--table", path)
    assert code == 12
    report = read_json(out / "c3_report.json")
    assert report["c3"]["epsilon"] == pytest.approx(554.03, rel=1e-12)


def test_check_c3_table_zero_and_positive_entries_exit_12(tmp_path):
    # one coinciding mode pair next to separated ones: epsilon is infinite
    path = tmp_path / "table.csv"
    with open(path, "w") as fh:
        fh.write("# gpm-c3-table modes=2,4,6\n")
        fh.write("0.0,0.0,8.7e-07\n0.0,0.0,8.7e-07\n8.7e-07,8.7e-07,0.0\n")
    out = tmp_path / "c3"
    assert run("--out", out, "--quiet", "check-c3", "--table", path) == 12
    report = read_json(out / "c3_report.json")
    assert report["c3"]["epsilon"] == np.inf
    assert report["c3"]["ok"] is False


def test_check_c3_reads_and_factors_each_snapshot_once(tmp_path, monkeypatch):
    files = synth_family(tmp_path / "fam", kind="nested", n=16, nt=40, modes=5,
                         rate=0.05, params="0,1,2,3", seed=7)
    reads = []
    snapshot_svds = []
    read_snapshot_orig = fileio.read_snapshot
    svd_orig = np.linalg.svd

    def counting_read(path):
        reads.append(str(path))
        return read_snapshot_orig(path)

    def counting_svd(a, *args, **kwargs):
        if np.shape(a) == (16, 40):
            snapshot_svds.append(np.shape(a))
        return svd_orig(a, *args, **kwargs)

    monkeypatch.setattr(fileio, "read_snapshot", counting_read)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    code = run("--out", tmp_path / "c3", "--quiet", "check-c3", *files,
               "--modes", "1,2,3,4,5", "--target", 1.5)
    assert code == 0
    assert sorted(reads) == sorted(files)
    assert len(snapshot_svds) == len(files)


def test_check_c3_table_matches_per_mode_library_path(tmp_path):
    files = synth_family(tmp_path / "fam", kind="nonnested", n=16, nt=40, modes=5,
                         rate=0.3, params="0,1,2,3", seed=2)
    modes = [3, 1, 5, 2]
    out = tmp_path / "c3"
    code = run("--out", out, "--quiet", "check-c3", *files,
               "--modes", ",".join(map(str, modes)), "--target", 1.5)
    assert code == 12
    lines = (out / "c3_table.csv").read_text().splitlines()
    assert lines[0] == "# gpm-c3-table modes=3,1,5,2"
    got = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    snaps = sorted((read_snapshot(f) for f in files), key=lambda s: s.param)
    results = []
    for p in modes:
        ts = TrainingSet(points=tuple((s.param, compute_pod(s, p).basis) for s in snaps))
        results.append((p, interpolate(ts, 1.5).frame))
    expected = c3_distance_table(results).values
    assert np.any(expected > 0.0)
    assert np.array_equal(got, expected)


def test_check_c3_verdict_before_later_mode_range_error(tmp_path):
    files = synth_family(tmp_path / "fam", kind="crossing", rate=np.pi / 2,
                         params="-0.8,0.0,0.8", modes=2, n=12, nt=30, seed=11)

    def check(target):
        return run("--out", tmp_path / "c3", "--quiet", "check-c3", *files,
                   "--modes", "2,999", "--target", target, "--reference-index", 1)

    assert check(1.3) == 11  # C2 fails at mode 2 before mode 999 is reached
    assert check(0.4) == 2  # mode 2 is stable, so mode 999's range error decides


def test_check_c3_peak_memory_below_six_snapshots(tmp_path):
    n, n_t, params = 6000, 60, range(8)
    rng = np.random.default_rng(0)
    planes = np.linalg.qr(rng.standard_normal((n, 6)))[0]
    right = np.linalg.qr(rng.standard_normal((n_t, 3)))[0]
    files = []
    for lam in params:
        frame = planes[:, :3] * np.cos(0.1 * lam) + planes[:, 3:] * np.sin(0.1 * lam)
        data = (frame * [3.0, 2.0, 1.0]) @ right.T + 1e-6 * rng.standard_normal((n, n_t))
        path = tmp_path / f"snapshot_{lam:03d}.gpm"
        write_snapshot_bin(path, SnapshotMatrix(data=data, param=float(lam)))
        files.append(path)
    del data
    tracemalloc.start()
    try:
        code = run("--out", tmp_path / "c3", "--quiet", "check-c3", *files,
                   "--modes", "1,2,3", "--target", 3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 6 * n * n_t * 8


def test_check_c3_single_mode_exit_2(tmp_path):
    files = synth_family(tmp_path / "fam")
    code = run("--out", tmp_path / "c3", "--quiet", "check-c3", *files,
               "--modes", "2", "--target", 1.0)
    assert code == 2


# -- distance and metrics -----------------------------------------------------


def test_distance_command(tmp_path):
    files = synth_family(tmp_path / "fam", rate=0.5, modes=1, params="0.0,1.0")
    pod_out = tmp_path / "pod"
    assert run("--out", pod_out, "--quiet", "pod", *files, "--mode", 1) == 0
    frames = sorted(pod_out.glob("basis_*.gpf"))
    out = tmp_path / "dist"
    assert run("--out", out, "--quiet", "distance", frames[0], frames[1]) == 0
    payload = read_json(out / "distance.json")
    assert payload["schema"] == "gpm/1"
    assert payload["riemannian_distance"] == pytest.approx(0.5, abs=1e-5)


def test_metrics_identical_and_doubled(tmp_path):
    rng = np.random.default_rng(0)
    from gpmor import SnapshotMatrix

    ref = SnapshotMatrix(data=rng.standard_normal((5, 4)), param=0.0)
    doubled = SnapshotMatrix(data=2.0 * ref.data, param=0.0)
    write_snapshot_bin(tmp_path / "ref.gpm", ref)
    write_snapshot_bin(tmp_path / "dbl.gpm", doubled)
    out = tmp_path / "m1"
    assert run("--out", out, "--quiet", "metrics", "--approx", tmp_path / "ref.gpm",
               "--reference", tmp_path / "ref.gpm") == 0
    m = read_json(out / "metrics.json")
    assert m["frobenius"] == 0.0 and all(e == 0.0 for e in m["per_snapshot"])
    out2 = tmp_path / "m2"
    assert run("--out", out2, "--quiet", "metrics", "--approx", tmp_path / "dbl.gpm",
               "--reference", tmp_path / "ref.gpm") == 0
    m2 = read_json(out2 / "metrics.json")
    assert m2["frobenius"] == pytest.approx(1.0, abs=1e-15)


def test_metrics_shape_mismatch_exit_2(tmp_path):
    rng = np.random.default_rng(1)
    from gpmor import SnapshotMatrix

    write_snapshot_bin(tmp_path / "a.gpm", SnapshotMatrix(data=rng.standard_normal((5, 4))))
    write_snapshot_bin(tmp_path / "b.gpm", SnapshotMatrix(data=rng.standard_normal((5, 3))))
    assert run("--out", tmp_path / "m", "--quiet", "metrics", "--approx", tmp_path / "a.gpm",
               "--reference", tmp_path / "b.gpm") == 2


# -- config, errors and determinism -------------------------------------------


def test_config_file_defaults(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"kind": "rotation", "n": 8, "nt": 12, "modes": 2,
                                  "params": "0.0,1.0", "rate": 0.2}))
    out = tmp_path / "fam"
    code = run("--config", config, "--out", out, "--quiet", "synth",
               "--kind", "rotation", "--n", 8, "--nt", 12, "--modes", 2,
               "--params", "0.0,1.0")
    assert code == 0
    manifest = read_json(out / "manifest.json")
    assert manifest["spec"]["rate"] == 0.2  # config overrode the untouched default


def test_missing_input_exit_2(tmp_path):
    assert run("--out", tmp_path / "pod", "pod", tmp_path / "nope.gpm", "--mode", 1) == 2


def test_full_pipeline_determinism(tmp_path):
    src = synth_family(tmp_path / "src", kind="crossing", rate=np.pi / 2,
                       params="-0.8,0.0,0.8", modes=2, n=12, nt=30, seed=11)

    def pipeline(out):
        assert run("--out", out / "pod", "--quiet", "pod", *src, "--mode", 2) == 0
        assert run("--out", out / "interp", "--quiet", "interpolate", *src, "--mode", 2,
                   "--target", 0.4, "--reference-index", 1) == 0
        assert run("--out", out / "sweep", "--quiet", "sweep-c2", *src, "--mode", 2,
                   "--lo", -1.5, "--hi", 1.5, "--samples", 101, "--reference-index", 1) == 0
        assert run("--out", out / "metrics", "--quiet", "metrics", "--approx", src[0],
                   "--reference", src[0]) == 0

    pipeline(tmp_path / "run1")
    pipeline(tmp_path / "run2")
    files1 = sorted(p for p in (tmp_path / "run1").rglob("*") if p.is_file())
    files2 = sorted(p for p in (tmp_path / "run2").rglob("*") if p.is_file())
    assert [p.name for p in files1] == [p.name for p in files2]
    for a, b in zip(files1, files2):
        assert a.read_bytes() == b.read_bytes(), a.name
