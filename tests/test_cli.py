import errno
import gc
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gpmor import (
    FamilySpec,
    GrassmannPoint,
    SnapshotMatrix,
    TrainingSet,
    c2_sweep,
    c3_distance_table,
    cli,
    compute_pod,
    fileio,
    generate,
    interpolate,
    interpolation,
    podcache,
    riemannian_distance,
    snapshots,
    synth,
)
from gpmor.fileio import fmt, read_frame, read_json, read_snapshot, write_snapshot_bin
from gpmor.interpolation import JOINT_SPAN_RTOL
from gpmor.synth import DEFAULT_NOISE, KINDS
from oracles import barycentric_eval_weights, grassmann_lagrange, snapshot_files, synth_files


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


FRESH_ENV = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))


def _exit_code_in_fresh_process(expr, banned=("scipy", "_hashlib", "dataclasses")):
    """Exit code of a fresh interpreter that imports gpmor.cli, evaluates expr
    (0 on success) and exits 1 if that loaded a banned module: scipy,
    _hashlib (OpenSSL, about 3.5 MB of RSS), or dataclasses (gpmor's records
    derive from gpmor.record.Record, which generates no code at import)."""
    code = f"import sys, gpmor.cli; sys.exit(({expr}) or any(m in sys.modules for m in {banned!r}))"
    return subprocess.run([sys.executable, "-c", code], env=FRESH_ENV, timeout=60).returncode


def _peak_mb_in_fresh_process(argv):
    """(exit code, peak RSS in MiB) of gpmor.cli.main(argv) in a fresh
    interpreter. The child reads its own VmHWM from /proc/self/status: the
    ru_maxrss a parent gets for a child started by vfork and exec carries the
    parent's own high-water mark."""
    code = ("import sys, gpmor.cli; code = gpmor.cli.main(sys.argv[1:]); "
            "print(code, *[l.split()[1] for l in open('/proc/self/status') if l.startswith('VmHWM:')])")
    done = subprocess.run([sys.executable, "-c", code, *map(str, argv)], env=FRESH_ENV, timeout=300,
                          capture_output=True, text=True, check=True)
    exit_code, kb = map(int, done.stdout.split()[-2:])
    return exit_code, kb / 1024


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
    # twice: the first call fills the factor cache, the second is served from
    # it. synth draws with numpy.random (about 6 MB of RSS), whose
    # SeedSequence imports secrets and so hashlib; every other subcommand
    # keeps both out.
    main = f"gpmor.cli.main({list(map(str, argv))!r})"
    banned = ("scipy", "dataclasses")
    if not call.startswith("synth-"):
        banned += ("_hashlib", "numpy.random")
    assert _exit_code_in_fresh_process(f"{main} or {main}", banned) == 0


# -- process entry ------------------------------------------------------------


def _tree(out):
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def _entry_case(fam, case):
    """(argv, exit code) of a call that exits with `case`: the family and call of
    test_interpolate_at_node, test_pod_mode_out_of_range,
    test_interpolate_crossing_exit_11 or test_check_c3_nonnested_exit_12."""
    if case == 0:
        files = synth_family(fam)
        return ["interpolate", *files, "--mode", 2, "--target", 1.0], 0
    if case == 2:
        files = synth_family(fam, n=8, nt=12)
        return ["pod", files[0], "--mode", 9], 2
    if case == 11:
        files = synth_family(fam, kind="crossing", rate=np.pi / 2, params="-0.8,0.0,0.8", modes=1)
        return ["interpolate", *files, "--mode", 1, "--target", 1.3, "--reference-index", 1], 11
    files = synth_family(fam, kind="nonnested", n=16, nt=40, modes=5, rate=0.3,
                         params="0,1,2,3", seed=2)
    return ["check-c3", *files, "--modes", "1,2,3,4,5", "--target", 1.5], 12


@pytest.mark.parametrize("case", [0, 2, 11, 12])
def test_fresh_process_gives_mains_exit_code_and_bytes(tmp_path, monkeypatch, capsys, case):
    # the process entry adds nothing to main but the heap freeze, which an
    # in-process call never makes
    argv, code = _entry_case(tmp_path / "fam", case)
    argv = ["--out", "out", *map(str, argv)]
    (tmp_path / "fresh").mkdir()
    monkeypatch.chdir(tmp_path / "fresh")
    done = subprocess.run([sys.executable, "-m", "gpmor.cli", *argv], env=FRESH_ENV, timeout=120,
                          capture_output=True, text=True)
    (tmp_path / "in").mkdir()
    monkeypatch.chdir(tmp_path / "in")
    frozen = gc.get_freeze_count()
    assert cli.main(argv) == code
    assert gc.get_freeze_count() == frozen
    assert (done.returncode, done.stdout, done.stderr) == (code, *capsys.readouterr())
    assert _tree(tmp_path / "fresh" / "out") == _tree(tmp_path / "in" / "out")


def test_entry_freezes_the_heap_and_exits_with_mains_code(tmp_path):
    argv, code = _entry_case(tmp_path / "fam", 11)
    probe = ("import atexit, gc, sys, gpmor.cli; "
             "atexit.register(lambda: print(gc.get_freeze_count() > 0)); gpmor.cli.run()")
    done = subprocess.run([sys.executable, "-c", probe, "--quiet", "--out", tmp_path / "out",
                           *map(str, argv)], env=FRESH_ENV, timeout=120,
                          capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (code, "True\n")


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


def _generated_files(spec):
    """{file name: bytes} of the snapshot files of generate(spec)."""
    snaps = generate(spec).snapshots
    return snapshot_files([s.param for s in snaps], [s.data for s in snaps])


@pytest.mark.parametrize("kind", KINDS)
def test_streamed_synth_files_match_whole_array_oracle(tmp_path, monkeypatch, kind):
    # rows: a budget of 48 rows, so each snapshot is built, and its payload
    # written by positioned column segments, in four row blocks, the last
    # short; at n = 145 the lone last row joins the block before it.
    # one-block: the default budget, so each snapshot is one row block,
    # whose binary payload goes out by n_t positioned writes too
    n_t, p, params = 9, 3, (0.0, 0.5, 1.5)
    pwrite = os.pwrite
    for n, budget, blocks in ((150, "rows", [(0, 48), (48, 96), (96, 144), (144, 150)]),
                              (145, "rows", [(0, 48), (48, 96), (96, 145)]),
                              (150, "one-block", [(0, 150)])):
        expected = synth_files(kind, n, n_t, p, 0.4, 5, params, DEFAULT_NOISE)
        spec = FamilySpec(n=n, n_t=n_t, mode_count=p, kind=kind, rate=0.4, seed=5, params=params)
        with monkeypatch.context() as patch:
            if budget == "rows":
                patch.setattr(synth, "BLOCK_BYTES", 48 * n_t * 8)
            writes = []
            patch.setattr(os, "pwrite", lambda fd, data, offset: writes.append(offset)
                          or pwrite(fd, data, offset))
            assert synth._row_ranges(n, n_t) == blocks
            out = tmp_path / f"{budget}{n}"
            assert run("--out", out, "--quiet", "--seed", 5, "synth", "--kind", kind, "--n", n,
                       "--nt", n_t, "--modes", p, "--rate", 0.4, "--params=0,0.5,1.5",
                       "--format", "both") == 0
            assert len(writes) == len(params) * len(blocks) * n_t
            got = {f.name: f.read_bytes() for f in out.glob("snapshot_*")}
            assert got == expected
            assert _generated_files(spec) == expected


def test_tall_synth_writes_partial_row_blocks(tmp_path, monkeypatch):
    # at the default budget a 3000 x 100 snapshot takes row blocks of 1296,
    # 1296 and 408 rows: each goes to the binary file as 100 positioned
    # column segments and to the CSV file as its rows
    n, n_t, p, params = 3000, 100, 3, (0.0, 1.0)
    assert synth._row_ranges(n, n_t) == [(0, 1296), (1296, 2592), (2592, 3000)]
    writes = []
    pwrite = os.pwrite
    monkeypatch.setattr(os, "pwrite", lambda fd, data, offset: writes.append(offset)
                        or pwrite(fd, data, offset))
    out = tmp_path / "fam"
    assert run("--out", out, "--quiet", "--seed", 8, "synth", "--kind", "rotation", "--n", n,
               "--nt", n_t, "--modes", p, "--rate", 0.3, "--params=0,1", "--format", "both") == 0
    assert len(writes) == len(params) * 3 * n_t
    got = {f.name: f.read_bytes() for f in out.glob("snapshot_*")}
    expected = synth_files("rotation", n, n_t, p, 0.3, 8, params, DEFAULT_NOISE)
    assert got == expected
    spec = FamilySpec(n=n, n_t=n_t, mode_count=p, kind="rotation", rate=0.3, seed=8, params=params)
    assert _generated_files(spec) == expected


@pytest.mark.parametrize("kind", KINDS)
def test_csv_inputs_give_the_binary_inputs_bytes(tmp_path, monkeypatch, kind):
    # one family written in both formats: every subcommand writes the same
    # bytes from its .csv files as from its .gpm files, for a tall snapshot
    # of one row block, one of three (20-row blocks) and a wide one. Only
    # pod_summary.json names its inputs
    for shape, n, n_t, budget in (("one-block", 60, 9, None), ("multi-block", 60, 9, 20 * 9 * 8),
                                  ("wide", 12, 30, None)):
        with monkeypatch.context() as patch:
            if budget:
                patch.setattr(snapshots, "STREAM_BYTES", budget)
            fam = tmp_path / shape
            assert run("--out", fam, "--quiet", "--seed", 4, "synth", "--kind", kind, "--n", n,
                       "--nt", n_t, "--modes", 3, "--rate", 0.6, "--params=0,0.5,1,1.5,2",
                       "--format", "both") == 0
            got = {}
            for ext in ("gpm", "csv"):
                files = sorted(fam.glob(f"snapshot_*.{ext}"))
                for call, argv in (
                        ("pod", ["pod", *files, "--mode", 3]),
                        ("interpolate", ["interpolate", *files, "--mode", 3, "--target", 0.7]),
                        ("sweep-c2", ["sweep-c2", *files, "--mode", 3, "--lo", 0, "--hi", 2,
                                      "--samples", 21, "--reference-index", 2]),
                        ("check-c3", ["check-c3", *files, "--modes", "1,2,3", "--target", 0.7]),
                        ("metrics", ["metrics", "--approx", files[0], "--reference", files[1]])):
                    out = tmp_path / f"{shape}-{ext}-{call}"
                    code = run("--out", out, "--quiet", *argv)
                    written = {f.name: f.read_bytes().replace(f".{ext}\"".encode(), b'"')
                               if f.name == "pod_summary.json" else f.read_bytes()
                               for f in out.iterdir()}
                    assert written, (shape, ext, call)
                    got.setdefault(call, []).append((code, written))
            for call, (binary, text) in got.items():
                assert text == binary, (shape, call)


@pytest.mark.parametrize("form, owner, name", [("bin", os, "pwrite"), ("csv", fileio, "_csv_rows"),
                                               ("both", os, "pwrite")], ids=["bin", "csv", "both"])
def test_interrupted_synth_leaves_no_snapshot_file(tmp_path, monkeypatch, form, owner, name):
    # row blocks of 48, 48 and 4 rows: the write fails in the first
    # snapshot's second block, whose binary file is already full-length.
    # Each file is still under its temporary name, which is removed, so no
    # file with a hole or a short CSV can pass for a snapshot
    n_t = 12
    monkeypatch.setattr(synth, "BLOCK_BYTES", 48 * n_t * 8)
    fail_at = n_t + 1 if name == "pwrite" else 2
    calls = []
    write = getattr(owner, name)

    def failing(*args):
        calls.append(args)
        if len(calls) == fail_at:
            raise OSError(errno.ENOSPC, "No space left on device")
        return write(*args)

    monkeypatch.setattr(owner, name, failing)
    out = tmp_path / "fam"
    assert run("--out", out, "--quiet", "synth", "--kind", "rotation", "--n", 100, "--nt", n_t,
               "--modes", 2, "--params=0,1", "--format", form) == 2
    assert len(calls) == fail_at
    assert list(out.iterdir()) == []


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


@pytest.mark.parametrize("twin", ["other-directory", "csv-twin"])
def test_pod_refuses_inputs_whose_outputs_collide(tmp_path, capsys, fileio_calls, twin):
    # basis_<stem>.gpf and spectrum_<stem>.csv are named by the input's stem,
    # so a second input of the same stem would overwrite the first's outputs
    fam = tmp_path / "fam"
    assert run("--out", fam, "--quiet", "synth", "--kind", "rotation", "--n", 8, "--nt", 12,
               "--modes", 2, "--params=0,1", "--format", "both") == 0
    if twin == "csv-twin":
        first, second = fam / "snapshot_000.gpm", fam / "snapshot_000.csv"
    else:
        first, second = tmp_path / "a" / "snapshot_000.gpm", tmp_path / "b" / "snapshot_000.gpm"
        for path, source in ((first, "snapshot_000.gpm"), (second, "snapshot_001.gpm")):
            path.parent.mkdir()
            shutil.copy(fam / source, path)
    loads = fileio_calls("read_pod_factor")
    out = tmp_path / "pod"
    capsys.readouterr()
    assert run("--out", out, "--quiet", "pod", first, second, "--mode", 2) == 2
    assert capsys.readouterr().err == (f"error: pod inputs {first} and {second} would write the "
                                       "same basis_snapshot_000.gpf\n")
    assert loads == [] and not any(out.iterdir())


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


def _quarter_turn_family(out, params, modes):
    """Rotation family turning every mode by pi/2 per unit parameter."""
    with pytest.warns(RuntimeWarning, match="injectivity boundary"):
        return synth_family(out, n=12, nt=20, modes=modes, rate=np.pi / 2, noise=0,
                            params=params)


def test_all_orthogonal_overlap_fails_c1(tmp_path):
    # every principal angle between nodes 0 and 1 is pi/2: the overlap's
    # singular values are rounding (~1e-17), equal, so their ratio alone passes
    files = _quarter_turn_family(tmp_path / "fam", "0,1,2", modes=2)
    out = tmp_path / "interp"
    assert run("--out", out, "--quiet", "interpolate", *files, "--mode", 2,
               "--target", 0.5, "--reference-index", 0) == 10
    c1 = read_json(out / "interpolation_report.json")["c1"]
    assert c1["failing_indices"] == [1] and c1["min_singular_values"][1] < 1e-15
    assert not (out / "interpolated.gpf").exists()


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


def test_check_c3_table_refuses_snapshot_inputs(tmp_path, capsys, monkeypatch):
    files = synth_family(tmp_path / "fam")
    table = tmp_path / "table.csv"
    table.write_text("# gpm-c3-table modes=1,2,3\n0,1,2\n1,0,1.5\n2,1.5,0\n")
    reads, read_table = [], fileio.read_distance_table
    monkeypatch.setattr(fileio, "read_distance_table", lambda *a: reads.append(a) or read_table(*a))
    out = tmp_path / "c3"
    # an existing snapshot alone is refused too, so a missing path is not the cause
    for inputs in ([files[0]], [files[0], tmp_path / "missing.gpm"]):
        assert run("--out", out, "--quiet", "check-c3", "--table", table, *inputs,
                   "--modes", "7,9", "--target", 99) == 2
        assert "no snapshot inputs with --table" in capsys.readouterr().err
    assert not reads and not any(out.iterdir())
    # --modes and --target from a shared config do not count as inputs
    monkeypatch.undo()
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"modes": "7,9", "target": 99}))
    assert run("--config", config, "--out", out, "--quiet", "check-c3", "--table", table) == 0


def test_check_c3_reads_and_factors_each_snapshot_once(tmp_path, monkeypatch):
    # a binary snapshot, wide or tall, is streamed in two passes of row
    # blocks, here one block each, and factored by one QR of that block and
    # one SVD of its min(n, nt) x nt triangle
    reads = []
    calls = []
    passes = []
    read_snapshot_orig = fileio.read_snapshot
    row_blocks_orig = fileio.row_blocks

    def counting_read(path):
        reads.append(str(path))
        return read_snapshot_orig(path)

    def counting_pass(n, n_t, fill):
        passes.append((n, n_t))
        return row_blocks_orig(n, n_t, fill)

    def counting(name, orig):
        def wrapper(a, *args, **kwargs):
            calls.append((name, np.shape(a)))
            return orig(a, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(fileio, "read_snapshot", counting_read)
    monkeypatch.setattr(fileio, "row_blocks", counting_pass)
    monkeypatch.setattr(np.linalg, "svd", counting("svd", np.linalg.svd))
    monkeypatch.setattr(np.linalg, "qr", counting("qr", np.linalg.qr))
    for n, nt in ((16, 40), (40, 12)):
        files = synth_family(tmp_path / f"fam{n}", kind="nested", n=n, nt=nt, modes=5,
                             rate=0.05, params="0,1,2,3", seed=7)
        reads.clear()
        calls.clear()
        passes.clear()
        code = run("--out", tmp_path / f"c3{n}", "--quiet", "check-c3", *files,
                   "--modes", "1,2,3,4,5", "--target", 1.5)
        assert code == 0
        assert reads == []
        assert passes == [(n, nt)] * (2 * len(files))
        # one fold of the n x 5N mode-major stack of the node bases, here one
        # block, serves every mode, and no mode takes an SVD of its triangle
        assert calls.count(("qr", (n, nt))) == len(files)
        assert calls.count(("svd", (min(n, nt), nt))) == len(files)
        assert calls.count(("qr", (n, 5 * len(files)))) == 1
        assert n <= nt or ("svd", (n, nt)) not in calls


# -- factor cache -------------------------------------------------------------


def _cache_family(tmp_path):
    fam = tmp_path / "fam"
    assert run("--out", fam, "--quiet", "--seed", 7, "synth", "--kind", "nested", "--n", 40,
               "--nt", 12, "--modes", 5, "--rate", 0.05, "--params", "0,1,2,3",
               "--format", "both") == 0
    return fam


def _cached_calls(fam, out):
    """Exit codes and output bytes of pod, interpolate and check-c3 on fam's
    binary snapshots."""
    files = sorted(str(p) for p in fam.glob("snapshot_*.gpm"))
    codes = [run("--out", out / argv[0], "--quiet", *argv) for argv in (
        ["pod", *files, "--mode", 3],
        ["interpolate", *files, "--mode", 3, "--target", 1.5],
        ["check-c3", *files, "--modes", "1,2,3", "--target", 1.5],
    )]
    return codes, {str(p.relative_to(out)): p.read_bytes()
                   for p in sorted(out.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("suffix", ["gpm", "csv"])
def test_factor_cache_factors_each_file_once(tmp_path, monkeypatch, racy_window, suffix):
    # a cold call factors and parses each file once (a tall binary snapshot
    # is parsed as two streamed passes of row blocks); a warm call at the
    # same or a lower mode does neither, nor does it touch an entry, since
    # with every file inside the racy window no entry is stamped again; a
    # higher mode factors each file once more and rewrites its cache entry
    racy_window(float("inf"))
    factored, parsed, passes = [], [], []

    def counting(log, key, orig):
        def wrapper(*args):
            log.append(key(*args))
            return orig(*args)
        return wrapper

    monkeypatch.setattr(fileio, "factor_pod",
                        counting(factored, lambda s, m: s.param, fileio.factor_pod))
    monkeypatch.setattr(fileio, "factor_rows",
                        counting(factored, lambda b, shape, param, m: param, fileio.factor_rows))
    monkeypatch.setattr(fileio, "read_snapshot", counting(parsed, str, fileio.read_snapshot))
    monkeypatch.setattr(fileio, "row_blocks",
                        counting(passes, lambda n, n_t, fill: (n, n_t), fileio.row_blocks))
    fam = _cache_family(tmp_path)
    files = sorted(str(p) for p in fam.glob(f"snapshot_*.{suffix}"))
    streamed = suffix == "gpm"  # the family's 40 x 12 snapshots are tall
    cache = fam / ".gpmor_cache"
    for i, (argv, cold) in enumerate((
        (["check-c3", *files, "--modes", "1,2,3", "--target", 1.5], True),
        (["interpolate", *files, "--mode", 3, "--target", 1.5], False),
        (["pod", *files, "--mode", 2], False),
        (["sweep-c2", *files, "--mode", 1, "--lo", 0, "--hi", 3, "--samples", 5,
          "--reference-index", 1], False),
        (["pod", *files, "--mode", 4], True),
        (["check-c3", *files, "--modes", "4,2", "--target", 1.5], False),
    )):
        before = {p.name: p.read_bytes() for p in cache.glob("*")}
        factored.clear()
        parsed.clear()
        passes.clear()
        assert run("--out", tmp_path / f"out{i}", "--quiet", *argv) == 0
        after = {p.name: p.read_bytes() for p in cache.glob("*")}
        assert sorted(after) == [f"{Path(f).name}.pod" for f in files]
        assert sorted(factored) == ([0.0, 1.0, 2.0, 3.0] if cold else [])
        assert sorted(parsed) == (files if cold and not streamed else [])
        assert passes == ([(40, 12)] * (2 * len(files)) if cold and streamed else [])
        assert all(after[k] != before.get(k) for k in after) if cold else after == before


def _rewrite_in_place(fam):
    # the same size, another spectrum: a stale factor would show in the reports
    path = fam / "snapshot_001.gpm"
    size = path.stat().st_size
    write_snapshot_bin(path, SnapshotMatrix(data=2.0 * read_snapshot(path).data, param=1.0))
    assert path.stat().st_size == size


def _corrupt_caches(change):
    def corrupt(fam):
        for p in (fam / ".gpmor_cache").glob("*.gpm.pod"):
            p.write_bytes(change(p.read_bytes()))
    return corrupt


def _flip_after_key(skip):
    # flip the lowest bit of the byte `skip` bytes after the magic, the key
    # length and the key: 32 is lambda's lowest byte (the entry would serve a
    # node at another parameter), 44 the stamp's first
    def flip(b):
        at = 8 + int.from_bytes(b[4:8], "little") + skip
        return b[:at] + bytes([b[at] ^ 1]) + b[at + 1:]
    return flip


def _cut_in_header(b):
    # end the entry inside its five header fields, after the magic and the key
    return b[:8 + int.from_bytes(b[4:8], "little") + 20]


_DAMAGES = pytest.mark.parametrize("damage", [
    _rewrite_in_place,
    _corrupt_caches(lambda b: b[: len(b) // 2]),
    _corrupt_caches(lambda b: b[:-1]),
    _corrupt_caches(lambda b: bytes(len(b))),
    _corrupt_caches(lambda b: b"GPM1" + b[4:]),
    _corrupt_caches(lambda b: b[:-1] + bytes([b[-1] ^ 1])),
    _corrupt_caches(lambda b: b + b"\0"),
    _corrupt_caches(_flip_after_key(32)),
    _corrupt_caches(_cut_in_header),
    _corrupt_caches(lambda b: b[:4] + b"\xff" * 4 + b[8:]),
    _corrupt_caches(_flip_after_key(44)),
], ids=["snapshot-rewritten", "truncated", "short", "garbage", "wrong-magic", "payload-bit",
        "trailing-byte", "lambda-bit", "cut-in-header", "key-length", "stamp-bit"])


def _assert_damage_gives_the_cold_result(tmp_path, damage):
    fam = _cache_family(tmp_path)
    first = _cached_calls(fam, tmp_path / "first")
    damage(fam)
    got = _cached_calls(fam, tmp_path / "got")
    shutil.rmtree(fam / ".gpmor_cache")
    assert got == _cached_calls(fam, tmp_path / "cold")
    assert (got == first) == (damage is not _rewrite_in_place)


@_DAMAGES
def test_stale_or_damaged_cache_gives_the_cold_result(tmp_path, racy_window, damage):
    # no entry is stamped: each is checked against its streamed key
    racy_window(float("inf"))
    _assert_damage_gives_the_cold_result(tmp_path, damage)


@_DAMAGES
def test_stamped_entry_with_damage_gives_the_cold_result(tmp_path, racy_window, damage):
    # every entry is stamped, and a damaged one is still not served
    racy_window(0)
    _assert_damage_gives_the_cold_result(tmp_path, damage)


def test_entry_of_another_factor_version_misses(tmp_path, monkeypatch):
    # a change to the bits factor_pod returns bumps POD_FACTOR_VERSION, which
    # the key names, so entries written by the older code are not served
    fam = _cache_family(tmp_path)
    files = sorted(str(p) for p in fam.glob("snapshot_*.gpm"))
    monkeypatch.setattr(fileio, "POD_FACTOR_VERSION", fileio.POD_FACTOR_VERSION + 1)
    assert run("--out", tmp_path / "other", "--quiet", "pod", *files, "--mode", 3) == 0
    monkeypatch.undo()
    factored = []
    factor_rows = fileio.factor_rows
    # the family's binary snapshots are tall, so a miss streams them to factor_rows
    monkeypatch.setattr(fileio, "factor_rows",
                        lambda b, shape, param, m: factored.append(param) or factor_rows(b, shape, param, m))
    for i in range(2):
        factored.clear()
        assert run("--out", tmp_path / f"out{i}", "--quiet", "pod", *files, "--mode", 3) == 0
        assert sorted(factored) == ([0.0, 1.0, 2.0, 3.0] if i == 0 else [])


@pytest.mark.parametrize("name", ["POD_FACTOR_VERSION", "BLAS_THREADS"])
def test_stamped_entry_of_another_key_text_misses(tmp_path, monkeypatch, racy_window,
                                                   fileio_calls, name):
    # an entry stamped under another factor version or BLAS thread count is
    # not served by its stamp: the text of its key is checked first
    racy_window(0)
    fam = _cache_family(tmp_path)
    files = sorted(str(p) for p in fam.glob("snapshot_*.gpm"))
    with monkeypatch.context() as m:
        m.setattr(fileio, name, getattr(fileio, name) + 1)
        assert run("--out", tmp_path / "other", "--quiet", "pod", *files, "--mode", 3) == 0
    streamed, factored = fileio_calls("_pod_cache_prefix"), fileio_calls("_factor_snapshot")
    for i in range(2):
        streamed.clear()
        factored.clear()
        assert run("--out", tmp_path / f"out{i}", "--quiet", "pod", *files, "--mode", 3) == 0
        assert sorted(map(str, streamed)) == sorted(map(str, factored)) == (files if i == 0 else [])


def test_stamped_warm_calls_read_no_snapshot(tmp_path, racy_window, fileio_calls):
    # once every entry is stamped, pod, interpolate, sweep-c2 and check-c3
    # stream, parse and factor no snapshot, and write what calls that stream
    # every snapshot for its key write
    fam = _cache_family(tmp_path)
    files = sorted(str(p) for p in fam.glob("snapshot_*.gpm"))
    sweep = ["sweep-c2", *files, "--mode", 3, "--lo", 0, "--hi", 3, "--samples", 5,
             "--reference-index", 1]

    def calls(out):
        code = run("--out", out / "sweep-c2", "--quiet", *sweep)
        return code, _cached_calls(fam, out)

    racy_window(float("inf"))
    streamed = calls(tmp_path / "streamed")
    racy_window(0)
    assert run("--out", tmp_path / "stamping", "--quiet", "pod", *files, "--mode", 3) == 0
    spies = [fileio_calls(name) for name in ("_pod_cache_prefix", "read_snapshot",
                                             "_factor_snapshot")]
    assert calls(tmp_path / "stamped") == streamed
    assert spies == [[], [], []]


def test_warm_call_stamps_each_entry_once(tmp_path, racy_window, fileio_calls):
    # entries written inside the racy window carry a zero stamp; the first
    # warm call outside it streams each file once and stores its entry again
    # with a stamp, and the next call streams nothing and writes nothing
    racy_window(float("inf"))
    fam = _cache_family(tmp_path)
    files = sorted(str(p) for p in fam.glob("snapshot_*.gpm"))
    assert run("--out", tmp_path / "cold", "--quiet", "pod", *files, "--mode", 3) == 0
    racy_window(0)
    streamed = fileio_calls("_pod_cache_prefix")
    entries = sorted((fam / ".gpmor_cache").glob("*.gpm.pod"))
    for i in range(2):
        before = [p.read_bytes() for p in entries]
        streamed.clear()
        assert run("--out", tmp_path / f"warm{i}", "--quiet", "pod", *files, "--mode", 3) == 0
        assert sorted(map(str, streamed)) == (files if i == 0 else [])
        for p, old in zip(entries, before):
            new = p.read_bytes()
            # the CRC and the stamp follow the key and the five fields' 40 bytes
            at = 8 + int.from_bytes(old[4:8], "little") + 44
            assert len(new) == len(old)
            assert new[:at - 4] == old[:at - 4] and new[at + 40:] == old[at + 40:]
            assert (new != old) == (i == 0) and (old[at:at + 40] == bytes(40)) == (i == 0)


def test_restamp_keeps_the_mode_an_entry_was_built_at(tmp_path, racy_window, fileio_calls):
    # entries built at mode 4 inside the racy window are stamped by a call at
    # mode 2, and still serve mode 4: neither stored at the lower mode nor cut
    racy_window(float("inf"))
    fam = _cache_family(tmp_path)
    files = sorted(str(p) for p in fam.glob("snapshot_*.gpm"))
    assert run("--out", tmp_path / "cold", "--quiet", "pod", *files, "--mode", 4) == 0
    racy_window(0)
    assert run("--out", tmp_path / "stamping", "--quiet", "pod", *files, "--mode", 2) == 0
    spies = [fileio_calls(name) for name in ("_pod_cache_prefix", "_factor_snapshot")]
    assert run("--out", tmp_path / "warm", "--quiet", "pod", *files, "--mode", 4) == 0
    assert spies == [[], []]
    assert _tree(tmp_path / "warm") == _tree(tmp_path / "cold")


def test_each_call_reads_each_entry_once(tmp_path, racy_window, fileio_calls):
    # a miss, a hit whose stamp misses (it streams the key and stamps the
    # entry) and a stamped hit each open every entry once
    fam = _cache_family(tmp_path)
    files = sorted(str(p) for p in fam.glob("snapshot_*.gpm"))
    entries = sorted(str(fam / ".gpmor_cache" / f"{Path(f).name}.pod") for f in files)
    reads = fileio_calls("read", podcache)
    for i, window in enumerate((float("inf"), 0, 0)):
        racy_window(window)
        reads.clear()
        assert run("--out", tmp_path / f"out{i}", "--quiet", "pod", *files, "--mode", 3) == 0
        assert sorted(map(str, reads)) == entries


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs two CPUs")
def test_entry_of_another_thread_count_misses(tmp_path):
    # a tall rotation snapshot whose factor's last bits differ between one and
    # two OpenBLAS threads: the key names the thread count, so a warm 2-thread
    # pod over 1-thread entries gives the cold 2-thread bases
    synth_family(tmp_path / "a", n=6000, nt=213, modes=8, params="0,1,2,3,4", seed=0)
    shutil.copytree(tmp_path / "a", tmp_path / "b")

    def pod(threads, fam, out):
        env = dict(FRESH_ENV, OPENBLAS_NUM_THREADS=str(threads))
        # --report csv: no pod_summary.json, which names the input paths
        subprocess.run([sys.executable, "-m", "gpmor.cli", "--quiet", "--report", "csv",
                        "--out", out, "pod", *sorted(fam.glob("*.gpm")), "--mode", "8"],
                       env=env, timeout=300, check=True)
        return _tree(out)

    cold1 = pod(1, tmp_path / "a", tmp_path / "cold1")
    warm2 = pod(2, tmp_path / "a", tmp_path / "warm2")
    cold2 = pod(2, tmp_path / "b", tmp_path / "cold2")
    if cold1 == cold2:
        pytest.skip("this BLAS factors the family to the same bits under 1 and 2 threads")
    assert warm2 == cold2


def test_failed_cache_write_is_skipped(tmp_path, monkeypatch):
    # tests run as root, so a read-only directory is simulated by the write failing
    fam = _cache_family(tmp_path)
    cold = _cached_calls(fam, tmp_path / "cold")
    shutil.rmtree(fam / ".gpmor_cache")

    def refuse(*args):
        raise PermissionError("read-only file system")

    monkeypatch.setattr(os, "replace", refuse)
    for i in range(2):
        assert _cached_calls(fam, tmp_path / f"refused{i}") == cold
    assert list((fam / ".gpmor_cache").iterdir()) == []


@pytest.mark.parametrize("damage", ["non-finite", "short-payload"])
def test_invalid_snapshot_exits_2_and_is_not_cached(tmp_path, damage):
    files = synth_family(tmp_path / "fam", n=40, nt=12, modes=3, params="0,1,2")
    bad = Path(files[1])
    raw = bad.read_bytes()
    if damage == "non-finite":
        bad.write_bytes(raw[:-8] + np.array([np.nan], dtype="<f8").tobytes())
    else:
        bad.write_bytes(raw[:-8])
    for i in range(2):
        assert run("--out", tmp_path / f"out{i}", "--quiet", "interpolate", *files,
                   "--mode", 3, "--target", 1.5) == 2
        assert not (bad.parent / ".gpmor_cache" / f"{bad.name}.pod").exists()


def test_one_overlap_factorisation_per_node_and_mode(tmp_path, monkeypatch):
    # the tangent step factors each overlap with the reference once, in one
    # batched log_lift over the N nodes per training set: one call of N rows
    # per mode
    from gpmor import grassmann, interpolation

    calls = []

    def counting(base, targets, n):
        calls.append(len(targets))
        return log_lift(base, targets, n)

    log_lift = grassmann.log_lift
    monkeypatch.setattr(grassmann, "log_lift", counting)
    monkeypatch.setattr(interpolation, "log_lift", counting)
    files = synth_family(tmp_path / "fam", kind="nested", n=16, nt=40, modes=5,
                         rate=0.05, params="0,1,2,3", seed=7)
    for argv, expected in (
        (["interpolate", *files, "--mode", 3, "--target", 1.5], [len(files)]),
        (["sweep-c2", *files, "--mode", 3, "--lo", 0, "--hi", 3, "--samples", 7,
          "--reference-index", 1], [len(files)]),
        (["check-c3", *files, "--modes", "1,2,3,4,5", "--target", 1.5], [len(files)] * 5),
    ):
        calls.clear()
        assert run("--out", tmp_path / argv[0], "--quiet", *argv) == 0
        assert calls == expected


def test_one_fold_of_the_node_bases_per_call(tmp_path, monkeypatch):
    # a QR chain over an n-row stack folds either a snapshot (on a factor
    # cache miss) or the node bases: once the cache is warm, every call folds
    # the node bases once, at its largest mode, whatever the number of modes
    chains = []

    def counting(blocks):
        rows = []
        r = fold_triangle((rows.append(len(b)) or b for b in blocks))
        chains.append(sum(rows))
        return r

    fold_triangle = snapshots.fold_triangle
    files = synth_family(tmp_path / "fam", kind="nested", n=16, nt=40, modes=5,
                         rate=0.05, params="0,1,2,3", seed=7)
    assert run("--out", tmp_path / "warm", "--quiet", "pod", *files, "--mode", 5) == 0
    monkeypatch.setattr(snapshots, "fold_triangle", counting)
    for argv in (["interpolate", *files, "--mode", 3, "--target", 1.5],
                 ["sweep-c2", *files, "--mode", 3, "--lo", 0, "--hi", 3, "--samples", 7,
                  "--reference-index", 1],
                 ["check-c3", *files, "--modes", "1,2,3,4,5", "--target", 1.5],
                 ["check-c3", *files, "--modes", "4,2", "--target", 1.5]):
        chains.clear()
        assert run("--out", tmp_path / argv[0], "--quiet", *argv) == 0
        assert chains == [16]


def test_one_walk_of_the_node_base_stack_per_use(tmp_path, monkeypatch):
    # once the cache is warm, a call walks the n x NP stack of its node bases
    # once to fold it, and interpolate walks it once more to map its frame
    # back to n; TrainingSet._stack_blocks alone walks it
    walks = []

    def counting(n, n_t, fill):
        walks.append((sys._getframe(1).f_code.co_name, n, n_t))
        return row_blocks(n, n_t, fill)

    row_blocks = snapshots.row_blocks
    files = synth_family(tmp_path / "fam", kind="nested", n=16, nt=40, modes=5,
                         rate=0.05, params="0,1,2,3", seed=7)
    assert run("--out", tmp_path / "warm", "--quiet", "pod", *files, "--mode", 5) == 0
    monkeypatch.setattr(snapshots, "row_blocks", counting)
    for argv, mode, uses in (
        (["interpolate", *files, "--mode", 3, "--target", 1.5], 3, 2),
        (["sweep-c2", *files, "--mode", 3, "--lo", 0, "--hi", 3, "--samples", 7,
          "--reference-index", 1], 3, 1),
        (["check-c3", *files, "--modes", "1,2,3,4,5", "--target", 1.5], 5, 1),
    ):
        walks.clear()
        assert run("--out", tmp_path / argv[0], "--quiet", *argv) == 0
        assert walks == [("_stack_blocks", 16, mode * len(files))] * uses


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
    # check-c3 folds once at mode 5, each interpolate at its own mode
    assert np.max(np.abs(got - expected)) <= 1e-14


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
    # one snapshot's row block (here the whole snapshot) at a time, then the
    # interpolation's temporaries
    assert peak < 3 * n * n_t * 8


def test_synth_traces_under_a_quarter_snapshot(tmp_path):
    # two 40000 x 100 snapshots of 32 MB each: synth holds a row block of
    # 1 MB and its noise draw or its column-major copy, beside the n x 2
    # frame (3.8 MB traced; 40 MB when each snapshot was built whole)
    n, n_t = 40000, 100
    tracemalloc.start()
    try:
        code = run("--out", tmp_path / "fam", "--quiet", "synth", "--kind", "rotation", "--n", n,
                   "--nt", n_t, "--modes", 1, "--params=0,1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < n * n_t * 8 / 4


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
def test_paper_scale_snapshots_stream_in_bounded_memory(tmp_path):
    # two 200000 x 100 snapshots of 160 MB each: synth never holds one (the
    # QR of its n x 20 frame sets its peak), pod peaks below half a snapshot
    # cold and warm, and a cold check-c3 peaks within two block budgets of
    # its warm run
    n, n_t = 200000, 100
    mib = n * n_t * 8 / 2**20
    budget = snapshots.STREAM_BYTES / 2**20
    fam = tmp_path / "fam"
    try:
        code, peak = _peak_mb_in_fresh_process(
            ["--out", fam, "--quiet", "synth", "--kind", "rotation", "--n", n, "--nt", n_t,
             "--modes", 10, "--params=0,1"])
        assert code == 0 and peak < 1.5 * mib
        files = sorted(fam.glob("snapshot_*.gpm"))
        for _ in ("cold", "warm"):
            code, peak = _peak_mb_in_fresh_process(
                ["--out", tmp_path / "pod", "--quiet", "pod", files[0], "--mode", 10])
            assert code == 0 and peak < mib / 2
        shutil.rmtree(fam / ".gpmor_cache")
        (_, cold), (_, warm) = (_peak_mb_in_fresh_process(
            ["--out", tmp_path / "c3", "--quiet", "check-c3", *files, "--modes", "1,2",
             "--target", 0.5]) for _ in ("cold", "warm"))
        assert cold <= warm + 2 * budget
    finally:
        shutil.rmtree(fam, ignore_errors=True)


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


def test_check_c3_c1_failure_at_a_later_mode_exit_10(tmp_path, capsys):
    # every node leads with e_0, e_1 (C1 holds at mode 2); the third
    # directions e_2, e_3, e_4 are pairwise orthogonal, so mode 3 fails C1
    n, nt = 8, 6
    profiles = np.linalg.qr(np.random.default_rng(5).standard_normal((nt, 3)))[0]
    files = []
    for lam, extra in ((0.0, 2), (1.0, 3), (2.0, 4)):
        frame = np.eye(n)[:, [0, 1, extra]]
        path = tmp_path / f"snap_{extra}.gpm"
        write_snapshot_bin(path, SnapshotMatrix(data=frame @ np.diag([10.0, 5.0, 2.5]) @ profiles.T,
                                                param=lam))
        files.append(path)
    out = tmp_path / "c3"
    assert run("--out", out, "check-c3", *files, "--modes", "2,3", "--target", 0.5,
               "--reference-index", 0) == 10
    assert "C1 failure at mode p=3" in capsys.readouterr().out
    report = read_json(out / "c3_report.json")
    assert report["meta"]["mode"] == 3
    assert report["c1"]["ok"] is False and report["c1"]["failing_indices"] == [1, 2]
    assert "c3" not in report
    assert not (out / "c3_table.csv").exists()


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


def test_sixty_node_sweep_marks_samples_past_the_weight_bound_invalid(tmp_path, capsys):
    # on 60 equispaced nodes sum |w_i| reaches 1.5e15 near the ends of the
    # hull; 312 of 2001 samples are past the bound interpolate refuses, and
    # their theta is nan rather than one from weights whose rounding is of
    # order 1. Noiseless lifts keep every other sample on the analytic
    # rate * |lambda - lambda_ref|
    nodes = list(range(60))
    files = synth_family(tmp_path / "fam", n=10, nt=6, modes=2, rate=0.02, noise=0,
                         params=",".join(map(str, nodes)))
    out = tmp_path / "sweep"
    capsys.readouterr()
    assert run("--out", out, "sweep-c2", *files, "--mode", 2, "--lo", 0, "--hi", 59,
               "--samples", 2001, "--reference-index", 30) == 0
    assert "312 sample(s) invalid" in capsys.readouterr().out
    report = read_json(out / "sweep_c2.json")
    assert report["invalid_samples"] == 312 and report["unstable_intervals"] == []
    lam, theta, ok = read_sweep_csv(out / "sweep_c2.csv")
    invalid = np.isnan(theta)
    assert invalid.sum() == 312 and not ok[invalid].any() and ok[~invalid].all()
    assert np.max(np.abs(theta[~invalid] - 0.02 * np.abs(lam[~invalid] - 30))) < 1e-7
    eps = np.finfo(float).eps
    for k in range(0, len(lam), 8):
        spread = sum(map(abs, barycentric_eval_weights(nodes, lam[k])))
        assert invalid[k] == (spread * eps > 5e-7)
    # interpolate refuses the first invalid sample and agrees with the sweep
    # at a valid one
    for k in (np.flatnonzero(invalid)[0], 1000):
        argv = ["--out", tmp_path / f"interp{k}", "--quiet", "interpolate", *files, "--mode", 2,
                f"--target={float(lam[k])!r}", "--reference-index", 30]
        assert run(*argv) == (2 if invalid[k] else 0)
        if not invalid[k]:
            report = read_json(tmp_path / f"interp{k}" / "interpolation_report.json")
            assert report["c2"]["theta_max"] == theta[k]
    assert "sum |w_i|" in capsys.readouterr().err


def test_interpolate_check_c3_and_sweep_agree_at_the_c2_boundary(tmp_path):
    # theta_1 at this target lies within a few ulps of pi/2 - C2_MARGIN: when
    # interpolate took a 2-norm of the combined lift and sweep-c2 its kernel,
    # interpolate read 1.5707963267938962 and exited 0 while the sweep read
    # 1.5707963267938976 and failed C2 there
    files = synth_family(tmp_path / "fam", kind="crossing", n=40, nt=20, modes=4, rate=0.5,
                         seed=2, params="-3.0,-2.25,-1.5,-0.75,0.0,0.75,1.5,2.25,3.0")
    target = "3.1415724197550343"
    common = [*files, f"--target={target}", "--reference-index", 4]
    codes = [run("--out", tmp_path / "i", "--quiet", "interpolate", "--mode", 4, *common),
             run("--out", tmp_path / "c", "--quiet", "check-c3", "--modes", "4,2", *common)]
    assert run("--out", tmp_path / "s", "--quiet", "sweep-c2", *files, "--mode", 4, f"--lo={target}",
               "--hi=4.1415724197550343", "--samples", 201, "--reference-index", 4) == 0
    lam, theta, ok = read_sweep_csv(tmp_path / "s" / "sweep_c2.csv")
    assert lam[0] == float(target)
    # one theta and one verdict from all three (numpy 2.4 with OpenBLAS
    # 0.3.31 lands this sample past the margin)
    c2 = {"ok": bool(ok[0]), "theta_max": theta[0]}
    assert read_json(tmp_path / "i" / "interpolation_report.json")["c2"] == c2
    assert codes[0] == (0 if ok[0] else 11)
    if not ok[0]:
        assert codes[1] == 11 and read_json(tmp_path / "c" / "c3_report.json")["c2"] == c2
        unstable = read_json(tmp_path / "s" / "sweep_c2.json")["unstable_intervals"]
        assert unstable[0][0] == float(target)


@pytest.mark.parametrize("kind, rate", [("nested", 0.05), ("crossing", 0.3)])
def test_check_c3_agrees_with_interpolate_at_every_mode(tmp_path, monkeypatch, kind, rate):
    # check-c3 folds the node bases once at its largest mode P and
    # interpolate --mode p at p: the same C2 record, bit for bit, at P, and
    # below it theta_1 to 1e-13 relative; its table is the interpolate
    # frames' distances to 1e-14
    files = synth_family(tmp_path / "fam", kind=kind, n=40, nt=20, modes=5, rate=rate,
                         params="0,1,2,3", seed=4)
    common = [*files, "--target", 1.3, "--reference-index", 1]
    seen = []

    def recording(ts, target, modes, reference_index):
        for p, res in zip(modes, interpolate_modes(ts, target, modes, reference_index)):
            seen.append((ts.mode, p, res))
            yield res

    interpolate_modes = interpolation.interpolate_modes
    monkeypatch.setattr(interpolation, "interpolate_modes", recording)
    out = tmp_path / "c3"
    assert run("--out", out, "--quiet", "check-c3", "--modes", "1,2,3,4,5", *common) in (0, 12)
    monkeypatch.undo()
    assert [(big, p) for big, p, _ in seen] == [(5, p) for p in range(1, 6)]
    frames = []
    for _, p, res in seen:
        out_p = tmp_path / f"i{p}"
        assert run("--out", out_p, "--quiet", "interpolate", "--mode", p, *common) == 0
        c2 = read_json(out_p / "interpolation_report.json")["c2"]
        if p == 5:
            assert c2 == res.c2.to_dict()
        assert c2["ok"] and res.c2.ok
        assert c2["theta_max"] == pytest.approx(res.c2.theta_max, rel=1e-13, abs=0.0)
        frames.append((p, read_frame(out_p / "interpolated.gpf")))
    got = np.loadtxt(out / "c3_table.csv", delimiter=",", comments="#")
    assert np.max(np.abs(got - c3_distance_table(frames).values)) <= 1e-14


def test_c1_floor_uses_the_ambient_dimension(tmp_path):
    # two lines of R^1000 at cos = 1e-9: above the p K u / OVERLAP_SINGULAR_TOL
    # floor of their K = 2 dimensional joint span (2.2e-11), below the ambient
    # p n u / OVERLAP_SINGULAR_TOL (1.1e-8), so C1 fails
    n, cos = 1000, 1e-9
    lines = np.zeros((2, n))
    lines[0, 0] = 1.0
    lines[1, :2] = cos, np.sqrt(1.0 - cos * cos)
    files = []
    for i, line in enumerate(lines):
        second = np.zeros(n)
        second[2 + i] = 1.0
        data = np.outer(10.0 * line, [1.0, 0.0, 0.0]) + np.outer(5.0 * second, [0.0, 1.0, 0.0])
        files.append(tmp_path / f"snapshot_{i:03d}.gpm")
        write_snapshot_bin(files[-1], SnapshotMatrix(data=data, param=float(i)))
    ts = TrainingSet(points=tuple((float(i), GrassmannPoint(line[:, np.newaxis]))
                                  for i, line in enumerate(lines)))
    assert interpolate(ts, 0.5, 0).c1.failing_indices == (1,)
    assert c2_sweep(ts, 0.0, 1.0, 3, 0).c1.failing_indices == (1,)
    common = [*files, "--reference-index", 0]
    for argv, report in ((["interpolate", "--mode", 1, "--target", 0.5], "interpolation_report.json"),
                         (["sweep-c2", "--mode", 1, "--lo", 0, "--hi", 1, "--samples", 3], "sweep_c2.json"),
                         (["check-c3", "--modes", "1,2", "--target", 0.5], "c3_report.json")):
        out = tmp_path / argv[0]
        assert run("--out", out, "--quiet", *argv, *common) == 10
        c1 = read_json(out / report)["c1"]
        assert c1["failing_indices"] == [1] and c1["min_singular_values"][1] == pytest.approx(cos)


def _turned_frames(rng, n, p, angles):
    """One n x p frame per angle: a fixed frame whose first column is turned
    by that angle toward a fixed direction outside it, each in its own random
    basis of the span, so the frames' joint span has dimension p + 1."""
    q = np.linalg.qr(rng.standard_normal((n, p + 1)))[0]
    frames = []
    for angle in angles:
        y = q[:, :p].copy()
        y[:, 0] = np.cos(angle) * q[:, 0] + np.sin(angle) * q[:, p]
        frames.append(y @ np.linalg.qr(rng.standard_normal((p, p)))[0])
    return frames


def _oracle_case(tmp_path, case):
    """(snapshot files, p, target, reference) of one oracle case."""
    if case in KINDS:
        return synth_family(tmp_path / "fam", kind=case, n=60, nt=20, modes=4, rate=0.3,
                            params="0,1,2,3,4", seed=6), 4, 2.3, None
    if case == "noiseless":
        return synth_family(tmp_path / "fam", kind="rotation", n=60, nt=20, modes=3, rate=0.2,
                            params="0,1,2,3,4", seed=6, noise=0.0), 3, 1.6, 1
    rng = np.random.default_rng(8)
    frames = _turned_frames(rng, 50, 3, [0.0] if case == "one-node" else [0.0, 0.01, 0.02])
    profiles = np.linalg.qr(rng.standard_normal((12, 3)))[0]
    files = []
    for i, y in enumerate(frames):
        files.append(tmp_path / f"snapshot_{i:03d}.gpm")
        write_snapshot_bin(files[-1], SnapshotMatrix(data=(y * [4.0, 2.0, 1.0]) @ profiles.T,
                                                     param=float(i)))
    return files, 3, 0.7, 0


@pytest.mark.parametrize("case", [*KINDS, "noiseless", "one-node", "near-identical"])
def test_interpolation_matches_full_dimension_oracle(tmp_path, case):
    # the library and the CLI, both working in the coordinates of one fold
    # of the node bases, against an ambient Lagrange/log/exp interpolation:
    # the noiseless family's span has K = 2p < Np and the near-identical
    # set's K = p + 1, so their Np rows hold rounding the frame's way back
    # cuts, and the one-node set's p rows are zero-padded to 2p
    files, p, target, ref = _oracle_case(tmp_path, case)
    snaps = sorted((read_snapshot(f) for f in files), key=lambda s: s.param)
    ts = TrainingSet(points=tuple((s.param, compute_pod(s, p).basis) for s in snaps))
    res = interpolate(ts, target, ref)
    coords = ts.coords
    sigma = np.linalg.svd(coords.transpose(1, 0, 2).reshape(coords.shape[1], -1), compute_uv=False)
    span = int(np.sum(sigma > sigma[0] * ts.n * JOINT_SPAN_RTOL))
    assert {"noiseless": span == 2 * p < len(files) * p == coords.shape[1],
            "one-node": span == p and coords.shape[1] == 2 * p,
            "near-identical": span == p + 1 and coords.shape[1] == len(files) * p}.get(case, True)
    theta, expected = grassmann_lagrange([pt.frame for _, pt in ts.points], ts.params, target,
                                         res.reference_index)
    out = tmp_path / "out"
    argv = ["interpolate", *files, "--mode", p, "--target", target]
    assert run("--out", out, "--quiet", *argv, *(["--reference-index", ref] if ref is not None else [])) == 0
    assert read_json(out / "interpolation_report.json")["c2"]["theta_max"] == res.c2.theta_max
    assert res.c2.theta_max == pytest.approx(theta, rel=1e-13, abs=1e-15)
    for frame in (res.frame.frame, read_frame(out / "interpolated.gpf").frame):
        assert np.max(np.abs(frame.T @ frame - np.eye(p))) < 1e-13
        # sine of the largest principal angle to the oracle's frame
        assert np.linalg.norm(frame - expected @ (expected.T @ frame), 2) < 1e-13


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


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("call", ["interpolate", "check-c3"])
@pytest.mark.parametrize("nodes", ["one-node", "c1-failing"])
def test_non_finite_target_exit_2(tmp_path, capsys, nodes, call, value):
    # a lone node's Lagrange weight is 1 whatever the target, and a C1 failure
    # ends before any weight: neither may let a non-finite target through
    if nodes == "one-node":
        files = synth_family(tmp_path / "fam", n=12, nt=20, modes=3, params="0")
    else:
        files = _quarter_turn_family(tmp_path / "fam", "0,1,2", modes=3)
    out = tmp_path / "out"
    capsys.readouterr()
    assert run("--out", out, "--quiet", *_target_argv(call, files, value, ref=0)) == 2
    assert f"target {float(value)} are not finite" in capsys.readouterr().err
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


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_synth_non_finite_params_exit_2(tmp_path, capsys, value):
    code = run("--out", tmp_path, "--quiet", "synth", "--kind", "rotation", "--n", 8, "--nt", 12,
               "--modes", 2, f"--params=0,{value},1")
    assert code == 2
    assert "family parameters must be finite" in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("form, shape", [("bin", (8, 12)), ("bin", (24, 6)), ("csv", (8, 12))],
                         ids=["bin-whole", "bin-streamed", "csv"])
def test_non_finite_snapshot_lambda_exit_2(tmp_path, capsys, form, shape):
    # a NaN lambda in a binary header (read whole, or streamed in row blocks
    # when tall) and lambda=inf in a CSV header are data errors at the read,
    # not a target's non-finite Lagrange weights, and pod writes no report
    n, n_t = shape
    fam = generate(FamilySpec(n=n, n_t=n_t, mode_count=2, kind="rotation", rate=0.1, seed=3,
                              params=(0.0, 1.0, 2.0)))
    files = []
    for i, snap in enumerate(fam.snapshots):
        path = tmp_path / f"snapshot_{i:03d}.{'gpm' if form == 'bin' else 'csv'}"
        if form == "bin":
            write_snapshot_bin(path, snap)
        else:
            fileio.write_snapshot_csv(path, snap)
        files.append(path)
    bad = "nan" if form == "bin" else "inf"
    if form == "bin":
        with open(files[1], "r+b") as fh:
            fh.seek(20)
            fh.write(np.array([np.nan], dtype="<f8").tobytes())
    else:
        text = files[1].read_text()
        files[1].write_text(text.replace("lambda=1.0", "lambda=inf", 1))
    for argv in (["pod", *files, "--mode", 2],
                 ["interpolate", *files, "--mode", 2, "--target", 0.5],
                 ["sweep-c2", *files, "--mode", 2, "--lo", 0, "--hi", 2, "--samples", 5,
                  "--reference-index", 0]):
        out = tmp_path / argv[0]
        assert run("--out", out, "--quiet", *argv) == 2
        assert f"snapshot parameter lambda={bad} is not finite" in capsys.readouterr().err
        assert not list(out.glob("*.json"))


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


@pytest.mark.parametrize("target", [5, 1.5])
def test_check_c3_repeated_mode_exit_2_before_any_read(tmp_path, capsys, monkeypatch, target):
    # at target 5 mode 2 fails C2 (exit 11 if it were interpolated), at 1.5
    # it passes twice; either way the repeat is judged before a factor is
    # loaded, as a single mode is
    files = synth_family(tmp_path / "fam", kind="crossing", n=40, nt=12, modes=3, rate=0.5,
                         params="0,1,2")
    loads = []
    monkeypatch.setattr(fileio, "read_pod_factor", lambda *a: loads.append(a))
    capsys.readouterr()
    code = run("--out", tmp_path / "c3", "--quiet", "check-c3", *files, "--modes", "2,2",
               "--target", target, "--reference-index", 0)
    assert code == 2 and loads == []
    assert capsys.readouterr().err == "error: C3 needs at least 2 pairwise distinct modes, got (2, 2)\n"
    assert list((tmp_path / "c3").iterdir()) == []


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
    # "threshold" is check-c3's: one config file may serve a whole pipeline
    config.write_text(json.dumps({"kind": "rotation", "n": 8, "nt": 12, "modes": 2,
                                  "params": "0.0,1.0", "rate": 0.2, "threshold": 5.0}))
    out = tmp_path / "fam"
    code = run("--config", config, "--out", out, "--quiet", "synth",
               "--kind", "rotation", "--n", 8, "--nt", 12, "--modes", 2,
               "--params", "0.0,1.0")
    assert code == 0
    manifest = read_json(out / "manifest.json")
    assert manifest["spec"]["rate"] == 0.2  # config overrode the untouched default


@pytest.mark.parametrize("config, message", [
    ({"modes": "1,2", "target": "abc"},
     "config 'target': could not convert string to float: 'abc'"),
    ({"modes": [1, "x"], "target": 0.5},
     "--modes: invalid literal for int() with base 10: 'x'"),
    ({"modes": "1,2", "target": 0.5, "reference_index": 0.5},
     "config 'reference_index': invalid literal for int() with base 10: '0.5'"),
    ({"modes": "1,2", "target": 0.5, "threshold": None},
     "config 'threshold': could not convert string to float: 'None'"),
    ({"modes": "1,2", "target": 0.5, "report": "xml"},
     "config 'report': 'xml' is not one of ['json', 'csv', 'both']"),
    ({"modes": "1,2", "target": 0.5, "quiet": "yes"},
     "config 'quiet': expected true or false, got 'yes'"),
    ([1, 2], "{path}: config must be a JSON object"),
    ({"modes": "1,2", "target": 0.5, "treshold": 1e-300},
     "config 'treshold': gpmor has no such option"),
], ids=[f"config{i}" for i in range(8)])
def test_config_bad_value_exit_2(tmp_path, capsys, config, message):
    src = synth_family(tmp_path / "src", kind="nested", n=10, nt=20, modes=2)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    capsys.readouterr()
    assert run("--config", path, "--out", tmp_path / "c3", "check-c3", *src) == 2
    assert capsys.readouterr().err == "error: " + message.replace("{path}", str(path)) + "\n"


@pytest.mark.parametrize("content, message", [
    (b'{"mode": 3,', "Expecting property name enclosed in double quotes: line 1 column 12 (char 11)"),
    (b"\xff\xfe", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
], ids=["truncated", "not-utf8"])
def test_config_not_utf8_json_exit_2(tmp_path, capsys, content, message):
    path = tmp_path / "config.json"
    path.write_bytes(content)
    assert run("--config", path, "--out", tmp_path / "out", "--quiet", "synth", "--kind",
               "rotation", "--n", 8, "--nt", 12, "--modes", 2, "--params=0,1") == 2
    assert capsys.readouterr().err == f"error: {path}: not UTF-8 JSON: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, argv", [
    ("c2_sweep", ["sweep-c2", "--mode", 1, "--lo", 0, "--hi", 2, "--samples", 10 ** 12,
                  "--reference-index", 0]),
    ("stream", ["synth", "--kind", "rotation", "--n", 10 ** 12, "--nt", 12, "--modes", 2,
                "--params=0,1"]),
], ids=["sweep-c2", "synth"])
@pytest.mark.parametrize("exc, message", [
    (MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000000,) "
                 "and data type float64"),
     "error: Unable to allocate 7.28 TiB for an array with shape "
     "(1000000000000,) and data type float64\n"),
    (MemoryError(), "error: out of memory\n"),
], ids=["numpy", "bare"])
def test_refused_allocation_exit_2(tmp_path, capsys, monkeypatch, name, argv, exc, message):
    # the allocation is refused by a stand-in: a real request this large can
    # be accepted by a host that overcommits memory
    def refuse(*args, **kwargs):
        raise exc

    files = synth_family(tmp_path / "fam") if argv[0] == "sweep-c2" else []
    monkeypatch.setattr(cli, name, refuse)
    capsys.readouterr()
    assert run("--out", tmp_path / "out", "--quiet", argv[0], *files, *argv[1:]) == 2
    assert capsys.readouterr().err == message


def test_config_does_not_override_the_command_line(tmp_path, monkeypatch):
    # each option given on the command line wins over --config, even at its
    # parser default; the table's epsilon is 1
    monkeypatch.chdir(tmp_path)
    table = tmp_path / "t.csv"
    table.write_text("0,1,2\n1,0,1.5\n2,1.5,0\n")
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"threshold": 1e-300, "out": "elsewhere", "report": "json"}))
    for threshold, code in ((100, 0), (99, 0), (1, 12)):
        assert run("--config", config, "--out", "gpm_out", "--report", "both", "--quiet",
                   "check-c3", "--table", table, "--threshold", threshold) == code
        assert read_json(tmp_path / "gpm_out" / "c3_report.json")["c3"]["threshold"] == threshold
    assert (tmp_path / "gpm_out" / "c3_table.csv").exists()
    assert not (tmp_path / "elsewhere").exists()
    # an option the command line leaves out still takes the config's value
    assert run("--config", config, "--quiet", "check-c3", "--table", table) == 12
    assert read_json(tmp_path / "elsewhere" / "c3_report.json")["c3"]["threshold"] == 1e-300
    assert not (tmp_path / "elsewhere" / "c3_table.csv").exists()


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


def test_binary_of_another_kind_names_its_magic_exit_2(tmp_path, capsys):
    # a gpmor binary of the wrong kind is named by its magic, not parsed as
    # CSV rows of its raw bytes
    files = synth_family(tmp_path / "fam")
    assert run("--out", tmp_path / "pod", "--quiet", "pod", *files, "--mode", 1) == 0
    basis = tmp_path / "pod" / "basis_snapshot_000.gpf"
    entry = tmp_path / "fam" / ".gpmor_cache" / "snapshot_000.gpm.pod"
    for argv, found, expected in (
        (["pod", basis, "--mode", 1], b"GPF1", b"GPM1"),
        (["pod", entry, "--mode", 1], podcache.MAGIC, b"GPM1"),
        (["distance", files[0], files[1]], b"GPM1", b"GPF1"),
    ):
        capsys.readouterr()
        assert run("--out", tmp_path / "out", *argv) == 2
        assert capsys.readouterr().err == f"error: {argv[1]}: bad magic {found!r}, expected {expected!r}\n"


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


def _json_constants(path):
    """{key path: token} of every non-standard constant (Infinity, NaN) in
    the JSON file `path`."""
    def walk(value, at):
        if isinstance(value, dict):
            return {k: t for key, v in value.items() for k, t in walk(v, at + (key,)).items()}
        if isinstance(value, list):
            return {k: t for i, v in enumerate(value) for k, t in walk(v, at + (i,)).items()}
        return {at: value[1]} if isinstance(value, tuple) else {}

    return walk(json.loads(path.read_text(), parse_constant=lambda token: ("constant", token)), ())


def test_every_json_report_is_strict_json(tmp_path):
    # README's File formats: every report is strict JSON, except that
    # c3_report.json writes an infinite epsilon or threshold as Infinity
    src = synth_family(tmp_path / "src", kind="crossing", rate=np.pi / 2,
                       params="-0.8,0.0,0.8", modes=2, n=12, nt=30, seed=11)
    out = tmp_path / "out"
    calls = [
        (0, "pod", "pod", *src, "--mode", 2),
        (0, "interp", "interpolate", *src, "--mode", 2, "--target", 0.4, "--reference-index", 1),
        (11, "interp-c2", "interpolate", *src, "--mode", 2, "--target", 1.3,
         "--reference-index", 1),
        (0, "sweep", "sweep-c2", *src, "--mode", 2, "--lo", -1.5, "--hi", 1.5, "--samples", 101,
         "--reference-index", 1),
        (None, "c3", "check-c3", *src, "--modes", "1,2", "--target", 0.4, "--reference-index", 1),
        (11, "c3-c2", "check-c3", *src, "--modes", "1,2", "--target", 1.3, "--reference-index", 1),
        (0, "distance", "distance", out / "pod" / "basis_snapshot_000.gpf",
         out / "pod" / "basis_snapshot_002.gpf"),
        (0, "metrics", "metrics", "--approx", src[0], "--reference", src[1]),
    ]
    for code, name, *argv in calls:
        got = run("--out", out / name, "--quiet", *argv)
        assert got == code if code is not None else got in (0, 12), name
    table = tmp_path / "table.csv"
    table.write_text("# gpm-c3-table modes=1,2,3\n0,0,1\n0,0,2\n1,2,0\n")
    assert run("--out", out / "c3-inf", "--quiet", "check-c3", "--table", table,
               "--threshold", "inf") == 12
    reports = sorted([*out.rglob("*.json"), tmp_path / "src" / "manifest.json"])
    assert len(reports) == 10
    allowed = {("c3", "epsilon"), ("c3", "threshold"), ("meta", "threshold")}
    for path in reports:
        constants = _json_constants(path)
        assert set(constants) <= (allowed if path.name == "c3_report.json" else set()), path
        assert set(constants.values()) <= {"Infinity"}, path
    assert _json_constants(out / "c3-inf" / "c3_report.json") == dict.fromkeys(allowed, "Infinity")
