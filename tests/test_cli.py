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
from gpmor.synth import KINDS


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


def _exit_code_in_fresh_process(expr):
    """Exit code of a fresh interpreter that imports gpmor.cli, evaluates expr
    (0 on success) and exits 1 if that loaded scipy."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    code = f"import sys, gpmor.cli; sys.exit(({expr}) or ('scipy' in sys.modules))"
    return subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode


def test_cli_import_does_not_load_scipy():
    assert _exit_code_in_fresh_process("0") == 0


def _scipy_free_argv(call, fam, files):
    if call.startswith("synth-"):
        return ["--seed", 3, "synth", "--kind", call[len("synth-"):], "--n", 12, "--nt", 8,
                "--modes", 2, "--params=0,1,2"]
    return {
        "pod": ["pod", *files, "--mode", 3],
        "interpolate": ["interpolate", *files, "--mode", 3, "--target", 1.5],
        "sweep-c2": ["sweep-c2", *files, "--mode", 3, "--lo", 0, "--hi", 2, "--samples", 11,
                     "--reference-index", 1],
        "check-c3": ["check-c3", *files, "--modes", "1,2,3", "--target", 1.5],
        "distance": ["distance", fam / "a.gpf", fam / "b.gpf"],
        "metrics": ["metrics", "--approx", files[0], "--reference", files[1]],
    }[call]


@pytest.mark.parametrize("call", [*(f"synth-{kind}" for kind in KINDS), "pod", "interpolate",
                                  "sweep-c2", "check-c3", "distance", "metrics"])
def test_subcommand_does_not_load_scipy(tmp_path, call):
    # a tall family goes through the QR triangle of every snapshot
    fam = tmp_path / "fam"
    files = synth_family(fam, n=60, nt=12, modes=3)
    for name, path in (("a", files[0]), ("b", files[1])):
        fileio.write_frame_bin(fam / f"{name}.gpf", compute_pod(read_snapshot(path), 3).basis)
    argv = ["--out", tmp_path / "out", "--quiet", *_scipy_free_argv(call, fam, files)]
    assert _exit_code_in_fresh_process(f"gpmor.cli.main({list(map(str, argv))!r})") == 0


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


def test_sweep_c1_failure_exit_10_like_interpolate(tmp_path):
    # two 3-mode subspaces sharing only two directions: the overlap is singular
    n, nt = 8, 6
    profiles = np.linalg.qr(np.random.default_rng(5).standard_normal((nt, 3)))[0]
    files = []
    for lam, extra in ((0.0, 2), (1.0, 3)):
        frame = np.eye(n)[:, [0, 1, extra]]
        path = tmp_path / f"snap_{extra}.gpm"
        write_snapshot_bin(path, SnapshotMatrix(data=frame @ np.diag([3.0, 2.0, 1.0]) @ profiles.T,
                                                param=lam))
        files.append(path)
    out = tmp_path / "sweep"
    assert run("--out", out, "--quiet", "sweep-c2", *files, "--mode", 3,
               "--lo", 0, "--hi", 1, "--samples", 5, "--reference-index", 0) == 10
    report = read_json(out / "sweep_c2.json")
    assert report["c1"]["ok"] is False and report["c1"]["failing_indices"] == [1]
    assert report["invalid_samples"] == 5 and report["unstable_intervals"] == []
    _, theta, ok = read_sweep_csv(out / "sweep_c2.csv")
    assert np.all(np.isnan(theta)) and np.all(ok == 0)
    interp = tmp_path / "interp"
    assert run("--out", interp, "--quiet", "interpolate", *files, "--mode", 3,
               "--target", 0.5, "--reference-index", 0) == 10
    assert read_json(interp / "interpolation_report.json")["c1"] == report["c1"]


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


@pytest.mark.parametrize("header, rows", [
    ("modes=2,4", "0.0,1.0,2.0\n1.0,0.0,1.5\n2.0,1.5,0.0\n"),
    ("modes=1,2,3", "0.0,1.0,nan\n1.0,0.0,1.5\nnan,1.5,0.0\n"),
], ids=["mode-count", "non-finite"])
def test_check_c3_rejects_malformed_table(tmp_path, capsys, header, rows):
    path = tmp_path / "table.csv"
    path.write_text(f"# gpm-c3-table {header}\n{rows}")
    out = tmp_path / "c3"
    assert run("--out", out, "--quiet", "check-c3", "--table", path) == 2
    assert str(path) in capsys.readouterr().err
    assert not (out / "c3_report.json").exists()


def test_check_c3_table_round_trip_same_report(tmp_path):
    files = synth_family(tmp_path / "fam", kind="nonnested", n=16, nt=40, modes=5,
                         rate=0.3, params="0,1,2,3", seed=2)
    first = tmp_path / "first"
    code = run("--out", first, "--quiet", "check-c3", *files, "--modes", "1,2,3,4,5",
               "--target", 1.5)
    second = tmp_path / "second"
    assert run("--out", second, "--quiet", "check-c3", "--table", first / "c3_table.csv") == code
    assert (second / "c3_report.json").read_bytes() == (first / "c3_report.json").read_bytes()
    assert (second / "c3_table.csv").read_bytes() == (first / "c3_table.csv").read_bytes()


def test_check_c3_reads_and_factors_each_snapshot_once(tmp_path, monkeypatch):
    # a wide snapshot is factored by one SVD of itself, a tall one by one QR
    # of itself and one SVD of its nt x nt triangle
    reads = []
    calls = []
    read_snapshot_orig = fileio.read_snapshot

    def counting_read(path):
        reads.append(str(path))
        return read_snapshot_orig(path)

    def counting(name, orig):
        def wrapper(a, *args, **kwargs):
            calls.append((name, np.shape(a)))
            return orig(a, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(fileio, "read_snapshot", counting_read)
    monkeypatch.setattr(np.linalg, "svd", counting("svd", np.linalg.svd))
    monkeypatch.setattr(np.linalg, "qr", counting("qr", np.linalg.qr))
    for n, nt in ((16, 40), (40, 12)):
        files = synth_family(tmp_path / f"fam{n}", kind="nested", n=n, nt=nt, modes=5,
                             rate=0.05, params="0,1,2,3", seed=7)
        reads.clear()
        calls.clear()
        code = run("--out", tmp_path / f"c3{n}", "--quiet", "check-c3", *files,
                   "--modes", "1,2,3,4,5", "--target", 1.5)
        assert code == 0
        assert sorted(reads) == sorted(files)
        if n <= nt:
            assert calls.count(("svd", (n, nt))) == len(files)
            assert ("qr", (n, nt)) not in calls
        else:
            assert calls.count(("qr", (n, nt))) == len(files)
            assert calls.count(("svd", (nt, nt))) == len(files)
            assert ("svd", (n, nt)) not in calls


def test_one_overlap_factorisation_per_node_and_mode(tmp_path, monkeypatch):
    # the tangent step factors each overlap with the reference once: N calls
    # of the shared overlap function per training set, so m * N for m modes
    from gpmor import grassmann, stability

    calls = []

    def counting(base, target):
        calls.append(target)
        return log_lift(base, target)

    log_lift = grassmann.log_lift
    monkeypatch.setattr(grassmann, "log_lift", counting)
    monkeypatch.setattr(stability, "log_lift", counting)
    files = synth_family(tmp_path / "fam", kind="nested", n=16, nt=40, modes=5,
                         rate=0.05, params="0,1,2,3", seed=7)
    for argv, expected in (
        (["interpolate", *files, "--mode", 3, "--target", 1.5], len(files)),
        (["sweep-c2", *files, "--mode", 3, "--lo", 0, "--hi", 3, "--samples", 7,
          "--reference-index", 1], len(files)),
        (["check-c3", *files, "--modes", "1,2,3,4,5", "--target", 1.5], 5 * len(files)),
    ):
        calls.clear()
        assert run("--out", tmp_path / argv[0], "--quiet", *argv) == 0
        assert len(calls) == expected


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


def test_check_c3_c2_failure_writes_report(tmp_path):
    files = synth_family(tmp_path / "fam", kind="crossing", rate=np.pi / 2,
                         params="-0.8,0.0,0.8", modes=2, n=12)
    out = tmp_path / "c3"
    code = run("--out", out, "--quiet", "check-c3", *files, "--modes", "1,2",
               "--target", 1.3, "--reference-index", 1)
    assert code == 11
    report = read_json(out / "c3_report.json")
    assert report["meta"] == {"mode": 1, "target": 1.3, "threshold": 100.0}
    assert report["c1"]["ok"] is True
    assert report["c2"]["ok"] is False and report["c2"]["theta_max"] >= np.pi / 2 - 1e-12
    assert "c3" not in report


def test_far_outside_hull_exit_11(tmp_path):
    # eight nodes extrapolated to lambda = 20: the C2 verdict, not an error
    # from the horizontality check on the weights' rounding
    files = synth_family(tmp_path / "fam", n=200, nt=40, modes=3, seed=1,
                         params="0,1,2,3,4,5,6,7")
    out = tmp_path / "interp"
    assert run("--out", out, "--quiet", "interpolate", *files, "--mode", 3,
               "--target", 20) == 11
    assert read_json(out / "interpolation_report.json")["c2"]["ok"] is False
    out = tmp_path / "c3"
    assert run("--out", out, "--quiet", "check-c3", *files, "--modes", "1,2,3",
               "--target", 20) == 11
    report = read_json(out / "c3_report.json")
    assert report["meta"]["mode"] == 1 and report["c2"]["ok"] is False


def test_far_extrapolation_within_c2_exit_0(tmp_path):
    # the lifts' rounding, amplified by weights summing to ~8e6, is not a
    # horizontality error: the frame comes back with the sweep's theta_1
    files = synth_family(tmp_path / "fam", n=200, nt=40, modes=3, seed=1, rate=0.01,
                         noise=0, params="0,1,2,3,4,5,6,7")
    out = tmp_path / "interp"
    assert run("--out", out, "--quiet", "interpolate", *files, "--mode", 3,
               "--target", 20) == 0
    theta = read_json(out / "interpolation_report.json")["c2"]["theta_max"]
    assert read_frame(out / "interpolated.gpf").frame.shape == (200, 3)
    sweep = tmp_path / "sweep"
    assert run("--out", sweep, "--quiet", "sweep-c2", *files, "--mode", 3,
               "--reference-index", 7, "--lo", 0, "--hi", 20, "--samples", 21) == 0
    lam, swept, _ = read_sweep_csv(sweep / "sweep_c2.csv")
    assert lam[-1] == 20.0 and theta == pytest.approx(swept[-1], rel=1e-9)


@pytest.mark.parametrize("target, code", [(20, 0), (35, 0), (43, 2), (50, 2), (100, 2)])
def test_far_extrapolation_weights_bound(tmp_path, capsys, target, code):
    # the frame leaves orthonormality by about sum |w_i| * eps: 1.7e-7 at
    # lambda = 35, inside half the tolerance 1e-6; 8.4e-7 at lambda = 43 and
    # 2.6e-6 at lambda = 50 are not, and the error names the weights and the
    # target instead of the frame
    files = synth_family(tmp_path / "fam", n=200, nt=40, modes=3, seed=1, rate=0.01,
                         noise=0, params="0,1,2,3,4,5,6,7")
    out = tmp_path / "interp"
    capsys.readouterr()
    assert run("--out", out, "--quiet", "interpolate", *files, "--mode", 3,
               "--target", target) == code
    assert (out / "interpolated.gpf").exists() == (code == 0)
    if code:
        err = capsys.readouterr().err
        assert "sum |w_i|" in err and f"target {float(target)}" in err


def _target_argv(call, files, value, ref=1):
    return [call, *files, "--reference-index", ref, *{
        "interpolate": ["--mode", 3, f"--target={value}"],
        "check-c3": ["--modes", "1,2,3", f"--target={value}"],
        "sweep-c2": ["--mode", 3, "--lo", 0, f"--hi={value}", "--samples", 5],
    }[call]]


@pytest.mark.parametrize("call, value, message", [
    *((call, value, f"Lagrange weights at target {float(value)} are not finite")
      for call in ("interpolate", "check-c3") for value in ("nan", "inf", "-inf", "1e308", "1e200")),
    ("sweep-c2", "inf", "need finite lo < hi, got [0.0, inf]"),
    ("sweep-c2", "1e308", "Lagrange weights at target 2.5e+307 are not finite"),
])
def test_non_finite_weights_exit_2(tmp_path, capsys, call, value, message):
    # four nodes: a non-finite target, or one whose weights overflow, is an
    # error naming the target before any report, and no warning escapes
    files = synth_family(tmp_path / "fam", n=40, nt=20, modes=3, seed=0, params="0,1,2,3")
    out = tmp_path / "out"
    capsys.readouterr()
    assert run("--out", out, "--quiet", *_target_argv(call, files, value)) == 2
    assert message in capsys.readouterr().err
    assert not any(out.iterdir())


@pytest.mark.parametrize("ref", [7, -1])
@pytest.mark.parametrize("call", ["interpolate", "sweep-c2", "check-c3"])
def test_reference_index_out_of_range_exit_2(tmp_path, capsys, call, ref):
    files = synth_family(tmp_path / "fam", params="0,1,2,3")
    out = tmp_path / "out"
    capsys.readouterr()
    assert run("--out", out, "--quiet", *_target_argv(call, files, 1.5, ref)) == 2
    assert f"reference index {ref} out of range" in capsys.readouterr().err
    assert not any(out.iterdir())


@pytest.mark.parametrize("option, value", [
    ("--noise", "-1"), ("--noise", "nan"), ("--noise", "inf"),
    ("--rate", "nan"), ("--rate", "inf"),
])
@pytest.mark.parametrize("kind", ["nested", "crossing"])
def test_synth_non_finite_or_negative_noise_or_rate_exit_2(tmp_path, capsys, kind, option, value):
    argv = {"--noise": "1e-6", "--rate": "0.1", option: value}
    code = run("--out", tmp_path, "--quiet", "synth", "--kind", kind, "--n", 8, "--nt", 12,
               "--modes", 2, "--params=0,1", *(x for item in argv.items() for x in item))
    assert code == 2
    assert f"{option[2:]} must be finite and non-negative" in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()


def test_cli_defaults_are_the_library_constants():
    from gpmor.stability import DEFAULT_C3_THRESHOLD
    from gpmor.synth import DEFAULT_NOISE, FamilySpec

    parser = cli.build_parser()
    assert parser.parse_args(["check-c3"]).threshold == DEFAULT_C3_THRESHOLD
    synth = parser.parse_args(["synth", "--kind", "rotation", "--n", "8", "--nt", "8",
                               "--modes", "1", "--params=0"])
    assert synth.noise == DEFAULT_NOISE == FamilySpec.noise


@pytest.mark.parametrize("missing", ["--modes", "--target"])
def test_check_c3_missing_option_exit_2(tmp_path, capsys, missing):
    files = synth_family(tmp_path / "fam")
    options = {"--modes": "1,2", "--target": "1.0"}
    del options[missing]
    argv = [x for item in options.items() for x in item]
    assert run("--out", tmp_path / "c3", "--quiet", "check-c3", *files, *argv) == 2
    assert missing in capsys.readouterr().err


def test_check_c3_single_mode_exit_2(tmp_path):
    files = synth_family(tmp_path / "fam")
    code = run("--out", tmp_path / "c3", "--quiet", "check-c3", *files,
               "--modes", "2", "--target", 1.0)
    assert code == 2


def _bad_modes(tmp_path):
    return ["check-c3", *synth_family(tmp_path / "fam"), "--modes", "2,x", "--target", 1.0]


def _bad_params(tmp_path):
    return ["synth", "--kind", "rotation", "--n", 8, "--nt", 12, "--modes", 2, "--params=0,x"]


def _bad_table_header(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("# gpm-c3-table modes=a,b\n0.0,1.0\n1.0,0.0\n")
    return ["check-c3", "--table", path]


@pytest.mark.parametrize("make_argv, names", [
    (_bad_modes, ("--modes", "'x'")),
    (_bad_params, ("--params", "'x'")),
    (_bad_table_header, ("table.csv", "'a'")),
], ids=["check-c3-modes", "synth-params", "table-header"])
def test_malformed_comma_list_exit_2(tmp_path, capsys, make_argv, names):
    argv = make_argv(tmp_path)
    capsys.readouterr()
    assert run("--out", tmp_path / "out", "--quiet", *argv) == 2
    err = capsys.readouterr().err
    assert all(name in err for name in names)


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


@pytest.mark.parametrize("config", [
    {"modes": "1,2", "target": "abc"},
    {"modes": [1, "x"], "target": 0.5},
    {"modes": "1,2", "target": 0.5, "reference_index": 0.5},
    {"modes": "1,2", "target": 0.5, "threshold": None},
    {"modes": "1,2", "target": 0.5, "report": "xml"},
    {"modes": "1,2", "target": 0.5, "quiet": "yes"},
])
def test_config_bad_value_exit_2(tmp_path, config):
    src = synth_family(tmp_path / "src", kind="nested", n=10, nt=20, modes=2)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert run("--config", path, "--out", tmp_path / "c3", "check-c3", *src) == 2


def test_config_list_matches_command_line(tmp_path):
    src = synth_family(tmp_path / "src", kind="nested", n=10, nt=20, modes=2)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"modes": [1, 2], "target": 0.5, "quiet": True}))
    assert run("--config", path, "--out", tmp_path / "a", "check-c3", *src) == 0
    assert run("--out", tmp_path / "b", "--quiet", "check-c3", *src,
               "--modes", "1,2", "--target", 0.5) == 0
    for name in ("c3_report.json", "c3_table.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_missing_input_exit_2(tmp_path):
    assert run("--out", tmp_path / "pod", "pod", tmp_path / "nope.gpm", "--mode", 1) == 2


@pytest.mark.parametrize("command, name, content", [
    ("pod", "nan.csv", b"# gpm-snapshot lambda=abc\n1.0,2.0\n3.0,4.0\n"),
    ("pod", "empty.csv", b"# gpm-snapshot lambda=\n1.0,2.0\n3.0,4.0\n"),
    ("pod", "short.gpm", b"GPM1abc"),
    ("distance", "short.gpf", b"GPF1abc"),
], ids=["lambda-abc", "lambda-empty", "short-snapshot", "short-frame"])
def test_malformed_input_file_exit_2(tmp_path, capsys, command, name, content):
    path = tmp_path / name
    path.write_bytes(content)
    argv = [path, "--mode", 1] if command == "pod" else [path, path]
    assert run("--out", tmp_path / "out", command, *argv) == 2
    assert str(path) in capsys.readouterr().err


# -- --report -------------------------------------------------------------------

SNAPSHOTS = [f"snapshot_{i:03d}" for i in range(3)]

# per call: (files written always, JSON reports, CSV reports)
REPORT_FILES = {
    "synth": ({*(f"{s}.gpm" for s in SNAPSHOTS), "manifest.json"}, set(), set()),
    "pod": ({f"basis_{s}.gpf" for s in SNAPSHOTS}, {"pod_summary.json"},
            {f"spectrum_{s}.csv" for s in SNAPSHOTS}),
    "interpolate": ({"interpolated.gpf"}, {"interpolation_report.json"}, set()),
    "sweep-c2": (set(), {"sweep_c2.json"}, {"sweep_c2.csv"}),
    "check-c3": (set(), {"c3_report.json"}, {"c3_table.csv"}),
    "check-c3-table": (set(), {"c3_report.json"}, {"c3_table.csv"}),
    "distance": (set(), {"distance.json"}, set()),
    "metrics": (set(), {"metrics.json"}, {"metrics.csv"}),
}


def _report_argv(call, fam, files):
    return {
        "synth": ["--seed", 3, "synth", "--kind", "rotation", "--n", 8, "--nt", 12,
                  "--modes", 2, "--params=0.0,1.0,2.0"],
        "pod": ["pod", *files, "--mode", 2],
        "interpolate": ["interpolate", *files, "--mode", 2, "--target", 0.5],
        "sweep-c2": ["sweep-c2", *files, "--mode", 2, "--lo", 0, "--hi", 2, "--samples", 5,
                     "--reference-index", 1],
        "check-c3": ["check-c3", *files, "--modes", "1,2", "--target", 0.5],
        "check-c3-table": ["check-c3", "--table", fam / "table.csv"],
        "distance": ["distance", fam / "a.gpf", fam / "b.gpf"],
        "metrics": ["metrics", "--approx", files[0], "--reference", files[1]],
    }[call]


@pytest.mark.parametrize("report", ["json", "csv", "both"])
@pytest.mark.parametrize("call", list(REPORT_FILES))
def test_report_gates_only_json_and_csv_reports(tmp_path, call, report):
    fam = tmp_path / "fam"
    files = synth_family(fam)
    for name, path in (("a", files[0]), ("b", files[1])):
        fileio.write_frame_bin(fam / f"{name}.gpf", compute_pod(read_snapshot(path), 2).basis)
    (fam / "table.csv").write_text("# gpm-c3-table modes=1,2\n0.0,0.1\n0.1,0.0\n")
    out = tmp_path / "out"
    assert run("--out", out, "--quiet", "--report", report, *_report_argv(call, fam, files)) == 0
    always, json_reports, csv_reports = REPORT_FILES[call]
    expected = set(always)
    if report in ("json", "both"):
        expected |= json_reports
    if report in ("csv", "both"):
        expected |= csv_reports
    assert {p.name for p in out.iterdir()} == expected


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
