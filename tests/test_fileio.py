import os
import re
import shutil
import tracemalloc

import numpy as np
import pytest

from gpmor import (
    DataError,
    DistanceTable,
    GrassmannPoint,
    SnapshotMatrix,
    cli,
    fileio,
    geometric_distance,
    snapshots,
)
from gpmor.fileio import (
    fmt,
    read_frame,
    read_distance_table,
    read_json,
    read_pod_factor,
    read_snapshot,
    write_csv,
    write_distance_table,
    write_frame_bin,
    write_json,
    write_snapshot_bin,
    write_snapshot_csv,
)
from gpmor.snapshots import factor_pod
from gpmor.synth import FamilySpec, generate


def _write_frame_csv(path, point):
    write_csv(path, "# gpm-frame orthonormal", map(np.ndarray.tolist, point.frame))


def test_fmt_round_trip():
    for x in (0.1, 1.0 / 3.0, 1e-300, np.pi, -2.5e17):
        assert float(fmt(x)) == x


def test_snapshot_bin_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    snap = SnapshotMatrix(data=rng.standard_normal((6, 4)), param=2.5)
    path = tmp_path / "s.gpm"
    write_snapshot_bin(path, snap)
    back = read_snapshot(path)
    assert np.array_equal(back.data, snap.data)
    assert back.param == snap.param


def test_snapshot_csv_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    snap = SnapshotMatrix(data=rng.standard_normal((5, 3)), param=-1.75)
    path = tmp_path / "s.csv"
    write_snapshot_csv(path, snap)
    back = read_snapshot(path)
    assert np.array_equal(back.data, snap.data)
    assert back.param == snap.param


def test_frame_round_trips(tmp_path):
    rng = np.random.default_rng(2)
    q = np.linalg.qr(rng.standard_normal((7, 3)))[0]
    pt = GrassmannPoint(q)
    write_frame_bin(tmp_path / "f.gpf", pt)
    assert np.array_equal(read_frame(tmp_path / "f.gpf").frame, pt.frame)
    _write_frame_csv(tmp_path / "f.csv", pt)
    assert np.array_equal(read_frame(tmp_path / "f.csv").frame, pt.frame)


def test_magic_autodetect(tmp_path):
    rng = np.random.default_rng(3)
    snap = SnapshotMatrix(data=rng.standard_normal((4, 2)), param=1.0)
    write_snapshot_bin(tmp_path / "a.gpm", snap)
    write_snapshot_csv(tmp_path / "a.csv", snap)
    assert np.array_equal(read_snapshot(tmp_path / "a.gpm").data, snap.data)
    assert np.array_equal(read_snapshot(tmp_path / "a.csv").data, snap.data)
    pt = GrassmannPoint(np.linalg.qr(rng.standard_normal((6, 2)))[0])
    write_frame_bin(tmp_path / "b.gpf", pt)
    _write_frame_csv(tmp_path / "b.csv", pt)
    assert np.array_equal(read_frame(tmp_path / "b.gpf").frame, pt.frame)
    assert np.array_equal(read_frame(tmp_path / "b.csv").frame, pt.frame)


def test_bad_magic(tmp_path):
    # another magic is read as CSV, whose rows do not parse; a payload that is
    # not UTF-8 included
    path = tmp_path / "bad.gpm"
    for payload in (b"\x00" * 24, np.array([1.5, -2.25, 3.0]).tobytes()):
        path.write_bytes(b"NOPE" + payload)
        with pytest.raises(DataError, match="unparsable row"):
            read_snapshot(path)
        with pytest.raises(DataError, match="unparsable row"):
            read_frame(path)


def test_truncated_payload(tmp_path):
    # a short or long payload names both sizes, for snapshots and frames
    rng = np.random.default_rng(4)
    snap = SnapshotMatrix(data=rng.standard_normal((4, 2)))
    point = GrassmannPoint(np.eye(4)[:, :2])
    for write, read, obj in ((write_snapshot_bin, read_snapshot, snap),
                             (write_frame_bin, read_frame, point)):
        for extra in (-8, 8):
            path = tmp_path / f"t{extra}.bin"
            write(path, obj)
            raw = path.read_bytes()
            path.write_bytes(raw[:extra] if extra < 0 else raw + b"\x00" * extra)
            with pytest.raises(DataError, match=rf"payload holds {64 + extra} bytes, expected 64$"):
                read(path)


def test_binary_shorter_than_header(tmp_path):
    for magic, read, size in ((b"GPM1", read_snapshot, 28), (b"GPF1", read_frame, 20)):
        path = tmp_path / "short.bin"
        path.write_bytes(magic + b"abc")
        with pytest.raises(DataError, match=rf"short header: 7 bytes, expected {size}$"):
            read(path)


@pytest.mark.parametrize("field", ["lambda=abc", "lambda="])
def test_malformed_snapshot_header_field(tmp_path, field):
    path = tmp_path / "s.csv"
    path.write_text(f"# gpm-snapshot {field}\n1.0,2.0\n")
    with pytest.raises(DataError, match=re.escape(f"{path}: header field lambda=")):
        read_snapshot(path)


def test_binary_read_holds_the_payload_once(tmp_path):
    # the payload is read into one aligned, frozen array that the snapshot or
    # frame keeps: no second copy, and no unaligned view that slows BLAS
    rng = np.random.default_rng(9)
    snap = SnapshotMatrix(data=rng.standard_normal((4000, 200)))
    point = GrassmannPoint(np.linalg.qr(rng.standard_normal((4000, 50)))[0])
    for write, read, obj, attr in ((write_snapshot_bin, read_snapshot, snap, "data"),
                                   (write_frame_bin, read_frame, point, "frame")):
        path = tmp_path / f"{attr}.bin"
        write(path, obj)
        tracemalloc.start()
        try:
            back = getattr(read(path), attr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * path.stat().st_size
        assert np.array_equal(back, getattr(obj, attr))
        assert back.flags.aligned and not back.flags.writeable


def test_csv_read_holds_the_matrix_once(tmp_path):
    # each row is parsed straight into one frozen, column-major array that
    # the snapshot or frame keeps: no Python float per entry (about five
    # times the matrix) and no second copy
    rng = np.random.default_rng(11)
    snap = SnapshotMatrix(data=rng.standard_normal((4000, 200)), param=0.5)
    point = GrassmannPoint(np.linalg.qr(rng.standard_normal((4000, 50)))[0])
    for write, read, obj, attr in ((write_snapshot_csv, read_snapshot, snap, "data"),
                                   (_write_frame_csv, read_frame, point, "frame")):
        path = tmp_path / f"{attr}.csv"
        write(path, obj)
        tracemalloc.start()
        try:
            back = getattr(read(path), attr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * back.nbytes
        assert np.array_equal(back, getattr(obj, attr))
        assert back.flags.f_contiguous and not back.flags.writeable


@pytest.mark.parametrize("rows", [2, 4])
def test_csv_rewritten_between_passes_is_a_data_error(tmp_path, monkeypatch, rows):
    # the file gets a row fewer or more in place after the pass that counts
    # them: no row of the matrix is left unset or has no place
    path = tmp_path / "s.csv"
    path.write_text("# gpm-snapshot lambda=0.0\n1.0,2.0\n3.0,4.0\n5.0,6.0\n")

    def rewriting_open(*args, **kwargs):
        fh = open(*args, **kwargs)
        seek = fh.seek

        def rewrite_then_seek(offset):
            path.write_text("1.0,2.0\n" * rows)
            return seek(offset)

        fh.seek = rewrite_then_seek
        return fh

    monkeypatch.setattr(fileio, "open", rewriting_open, raising=False)
    with pytest.raises(DataError, match="changed while it was read$"):
        read_snapshot(path)


def test_binary_write_of_a_c_ordered_matrix_holds_one_column(tmp_path):
    # 20000 x 50, 7.6 MB: the payload goes out one column segment at a time,
    # so the write holds a copy of one column, not a column-major copy of
    # the whole matrix, and gives the bytes of the F-ordered copy's file
    rng = np.random.default_rng(10)
    data = rng.standard_normal((20000, 50))
    frame = np.linalg.qr(data)[0]
    for write, make, matrix in ((write_snapshot_bin, SnapshotMatrix, data),
                                (write_frame_bin, GrassmannPoint, frame)):
        c_path, f_path = tmp_path / "c.bin", tmp_path / "f.bin"
        c_ordered = make(np.ascontiguousarray(matrix))
        write(f_path, make(np.asfortranarray(matrix)))
        tracemalloc.start()
        try:
            write(c_path, c_ordered)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert c_path.read_bytes() == f_path.read_bytes()


def test_csv_rows_match_per_value_fmt(tmp_path):
    values = np.array([[0.1, -0.0, 5e-324, 1.7976931348623157e308],
                       [-0.1, 0.0, -5e-324, -1.7976931348623157e308]])
    path = tmp_path / "s.csv"
    write_snapshot_csv(path, SnapshotMatrix(data=values, param=-0.0))
    rows = "".join(",".join(fmt(x) for x in row) + "\n" for row in values)
    assert path.read_text() == "# gpm-snapshot lambda=-0.0\n" + rows
    assert np.array_equal(read_snapshot(path).data, values)


def test_csv_parse_errors(tmp_path):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("# gpm-snapshot lambda=0.0\n1.0,2.0\n3.0\n")
    with pytest.raises(DataError) as exc:
        read_snapshot(ragged)
    assert "ragged" in str(exc.value)

    garbage = tmp_path / "garbage.csv"
    garbage.write_text("# gpm-snapshot lambda=0.0\n1.0,zzz\n")
    with pytest.raises(DataError) as exc:
        read_snapshot(garbage)
    assert ":2:" in str(exc.value)

    empty = tmp_path / "empty.csv"
    empty.write_text("# gpm-snapshot lambda=0.0\n")
    with pytest.raises(DataError):
        read_snapshot(empty)


def test_json_deterministic(tmp_path):
    payload = {"b": 2, "a": [1.5, {"z": True, "y": None}]}
    p1 = tmp_path / "one.json"
    p2 = tmp_path / "two.json"
    write_json(p1, payload)
    write_json(p2, payload)
    assert p1.read_bytes() == p2.read_bytes()
    assert read_json(p1) == payload


def test_csv_full_precision(tmp_path):
    # values with no short decimal representation survive the text round trip
    data = np.array([[np.pi, np.e], [1.0 / 3.0, np.sqrt(2.0)]])
    snap = SnapshotMatrix(data=data, param=np.pi)
    path = tmp_path / "pi.csv"
    write_snapshot_csv(path, snap)
    back = read_snapshot(path)
    assert np.array_equal(back.data, data)
    assert back.param == np.pi


def test_distance_table_round_trip(tmp_path):
    values = np.array([[0.0, np.pi, 0.1], [np.pi, 0.0, 1.0 / 3.0], [0.1, 1.0 / 3.0, 0.0]])
    path = tmp_path / "table.csv"
    write_distance_table(path, DistanceTable(modes=(2, 4, 6), values=values))
    assert path.read_text().splitlines()[0] == "# gpm-c3-table modes=2,4,6"
    back = read_distance_table(path)
    assert back.modes == (2, 4, 6)
    assert np.array_equal(back.values, values)


def test_distance_table_without_modes_header(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("0.0,1.0\n1.0,0.0\n")
    assert read_distance_table(path).modes == (0, 1)


@pytest.mark.parametrize("text", [
    "# gpm-c3-table modes=1,2\n0.0,1.0,2.0\n1.0,0.0,3.0\n",
    "# gpm-c3-table modes=\n0.0,1.0\n1.0,0.0\n",
    "# gpm-c3-table modes=1,2\n0.0,inf\ninf,0.0\n",
], ids=["not-square", "no-modes", "infinite"])
def test_distance_table_rejects_malformed(tmp_path, text):
    path = tmp_path / "table.csv"
    path.write_text(text)
    with pytest.raises(DataError):
        read_distance_table(path)


@pytest.mark.parametrize("write", [write_snapshot_bin, write_snapshot_csv])
@pytest.mark.parametrize("shape, rank", [((40, 12), 12), ((12, 40), 12), ((40, 12), 3)])
def test_read_pod_factor_is_factor_pod_bit_for_bit(tmp_path, write, shape, rank):
    # cold, then served at the same and at lower modes, refactored at a
    # higher one: values, dtype and memory order all match a fresh factor_pod,
    # of the snapshot as read and of C- and F-ordered copies of the matrix
    # written, whichever the format
    rng = np.random.default_rng(1)
    data = rng.standard_normal((shape[0], rank)) @ rng.standard_normal((rank, shape[1]))
    path = tmp_path / "s.snap"
    write(path, SnapshotMatrix(data=data, param=0.3))
    for mode in (5, 5, 2, 0, 8, 3, 100, 11):
        got = read_pod_factor(path, mode)
        for snap in (read_snapshot(path), SnapshotMatrix(np.ascontiguousarray(data), 0.3),
                     SnapshotMatrix(np.asfortranarray(data), 0.3)):
            want = factor_pod(snap, mode)
            assert got.shape == want.shape and got.param == want.param
            for a, b in ((got.vectors, want.vectors), (got.singular_values, want.singular_values)):
                assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
                assert a.flags.c_contiguous == b.flags.c_contiguous
                assert a.flags.f_contiguous == b.flags.f_contiguous
    assert [p.name for p in (tmp_path / ".gpmor_cache").iterdir()] == ["s.snap.pod"]


@pytest.mark.parametrize("n, n_t", [(12, 40), (24, 24)])
def test_wide_and_square_factors_agree_across_sources(tmp_path, n, n_t):
    # one factor path for every shape: the snapshot synth.generate builds in
    # memory, the binary file synth writes and its CSV twin give the same
    # F-ordered bits, cold and from the cache, at the mode built and below
    spec = FamilySpec(n=n, n_t=n_t, mode_count=3, kind="nonnested", rate=0.3, seed=2,
                      params=(0.0, 0.5))
    assert cli.main(["--out", str(tmp_path), "--quiet", "--seed", "2", "synth", "--kind",
                     "nonnested", "--n", str(n), "--nt", str(n_t), "--modes", "3", "--rate",
                     "0.3", "--params=0,0.5", "--format", "both"]) == 0
    for i, snap in enumerate(generate(spec).snapshots):
        for mode in (n, 2):
            want = factor_pod(snap, mode)
            assert want.vectors.flags.f_contiguous and want.vectors.shape[1] == mode
            for ext in ("gpm", "csv"):
                for _ in ("cold or served", "served"):
                    got = read_pod_factor(tmp_path / f"snapshot_{i:03d}.{ext}", mode)
                    assert got.shape == want.shape and got.param == want.param
                    assert np.array_equal(got.singular_values, want.singular_values)
                    assert np.array_equal(got.vectors, want.vectors)
                    assert got.vectors.flags.f_contiguous
        assert (tmp_path / ".gpmor_cache" / f"snapshot_{i:03d}.csv.pod").exists()


def _graded(n, n_t, seed):
    # singular values 10 * 0.7^k: every gap is 30% of its sigma
    rng = np.random.default_rng(seed)
    q = min(n, n_t)
    u = np.linalg.qr(rng.standard_normal((n, q)))[0]
    v = np.linalg.qr(rng.standard_normal((n_t, q)))[0]
    return (u * (10.0 * 0.7 ** np.arange(q))) @ v.T


@pytest.mark.parametrize("n", [3000, 3037])
def test_multi_block_factor_matches_one_shot(tmp_path, monkeypatch, n):
    # 100-row blocks (the last one short when n = 3037) against one QR of
    # the whole matrix; the file is streamed, the in-memory matrix copied
    # block by block, and the two agree bit for bit
    n_t, p = 40, 12
    path = tmp_path / "s.gpm"
    write_snapshot_bin(path, SnapshotMatrix(data=_graded(n, n_t, 5), param=0.5))
    one_shot = factor_pod(read_snapshot(path), p)
    monkeypatch.setattr(snapshots, "STREAM_BYTES", 100 * n_t * 8)
    got = read_pod_factor(path, p)
    again = factor_pod(read_snapshot(path), p)
    for a, b in ((got.vectors, again.vectors), (got.singular_values, again.singular_values)):
        assert np.array_equal(a, b) and a.flags.f_contiguous == b.flags.f_contiguous
    sigma_1 = one_shot.singular_values[0]
    assert np.max(np.abs(got.singular_values - one_shot.singular_values)) <= 1e-14 * sigma_1
    assert geometric_distance(GrassmannPoint(got.vectors), GrassmannPoint(one_shot.vectors)) <= 1e-13
    assert got.shape == (n, n_t) and got.param == 0.5 and got.vectors.flags.f_contiguous


def test_non_finite_entry_in_a_later_block_is_a_data_error(tmp_path, monkeypatch):
    # row 437 of column 3 lies in the ninth of ten 50-row blocks
    path = tmp_path / "s.gpm"
    write_snapshot_bin(path, SnapshotMatrix(data=_graded(500, 10, 6)))
    raw = bytearray(path.read_bytes())
    at = 28 + 8 * (3 * 500 + 437)
    raw[at:at + 8] = np.array([np.inf], dtype="<f8").tobytes()
    path.write_bytes(bytes(raw))
    monkeypatch.setattr(snapshots, "STREAM_BYTES", 50 * 10 * 8)
    with pytest.raises(DataError, match="^snapshot data contains non-finite entries$"):
        read_pod_factor(path, 3)
    assert not (tmp_path / ".gpmor_cache" / "s.gpm.pod").exists()


@pytest.mark.parametrize("shape", [(40, 12), (12, 40)])
def test_pod_factor_arrays_are_frozen_where_they_are_made(tmp_path, monkeypatch, shape):
    # read-only from factor_pod, a cache miss and a cache hit, and kept by
    # PodFactor without a copy
    kept = []
    frozen_float = snapshots._frozen_float

    def recording(a):
        out = frozen_float(a)
        kept.append(out is a)
        return out

    path = tmp_path / "s.gpm"
    write_snapshot_bin(path, SnapshotMatrix(data=_graded(*shape, 7)))
    snap = read_snapshot(path)
    monkeypatch.setattr(snapshots, "_frozen_float", recording)
    factors = [factor_pod(snap, 5), read_pod_factor(path, 5)]
    assert (tmp_path / ".gpmor_cache" / "s.gpm.pod").exists()
    factors.append(read_pod_factor(path, 5))
    for factor in factors:
        for a in (factor.vectors, factor.singular_values):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0
    assert len(kept) >= 6 and all(kept)


# -- factor cache stamps -----------------------------------------------------


def _assert_factor_of_file(path, mode):
    got, want = read_pod_factor(path, mode), factor_pod(read_snapshot(path), mode)
    assert np.array_equal(got.singular_values, want.singular_values)
    assert np.array_equal(got.vectors, want.vectors)


def _rewrite_same_size_and_mtime(path, seed):
    # another matrix of the same shape, written over the old bytes in place:
    # the inode, the size and (restored) the mtime stay, only ctime moves
    st = path.stat()
    other = path.with_name("other.gpm")
    write_snapshot_bin(other, SnapshotMatrix(data=_graded(40, 12, seed)))
    with open(path, "r+b") as fh:
        fh.write(other.read_bytes())
    other.unlink()
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
    after = path.stat()
    assert (after.st_ino, after.st_size, after.st_mtime_ns) == (st.st_ino, st.st_size, st.st_mtime_ns)


def test_in_place_rewrite_with_mtime_restored_misses(tmp_path, racy_window, fileio_calls):
    racy_window(0)
    path = tmp_path / "s.gpm"
    write_snapshot_bin(path, SnapshotMatrix(data=_graded(40, 12, 1)))
    read_pod_factor(path, 3)
    streamed = fileio_calls("_pod_cache_prefix")
    read_pod_factor(path, 3)
    assert streamed == []
    _rewrite_same_size_and_mtime(path, 2)
    _assert_factor_of_file(path, 3)
    assert streamed == [path]


def test_rewrite_inside_the_racy_window_streams_the_key(tmp_path, racy_window, fileio_calls):
    # every snapshot is younger than the window: entries are stamped with
    # zeros, so each call streams the snapshot, and a rewrite that kept the
    # stat (as on a file system with coarse timestamps) would still miss
    racy_window(float("inf"))
    path = tmp_path / "s.gpm"
    write_snapshot_bin(path, SnapshotMatrix(data=_graded(40, 12, 1)))
    read_pod_factor(path, 3)
    entry = (tmp_path / ".gpmor_cache" / "s.gpm.pod").read_bytes()
    at = 8 + int.from_bytes(entry[4:8], "little") + 44
    assert entry[at:at + 40] == bytes(40)
    streamed = fileio_calls("_pod_cache_prefix")
    read_pod_factor(path, 3)
    assert streamed == [path]
    _rewrite_same_size_and_mtime(path, 2)
    _assert_factor_of_file(path, 3)
    assert streamed == [path] * 2


def test_replaced_snapshot_misses(tmp_path, racy_window, fileio_calls):
    racy_window(0)
    path, other = tmp_path / "s.gpm", tmp_path / "other.gpm"
    write_snapshot_bin(path, SnapshotMatrix(data=_graded(40, 12, 1)))
    read_pod_factor(path, 3)
    write_snapshot_bin(other, SnapshotMatrix(data=_graded(40, 12, 2)))
    streamed = fileio_calls("_pod_cache_prefix")
    os.replace(other, path)
    _assert_factor_of_file(path, 3)
    assert streamed == [path]


def test_copied_family_hits_after_one_stream_per_file(tmp_path, racy_window, fileio_calls):
    # the copies are new inodes with a new ctime, so their entries' stamps
    # miss once: each file is streamed, its entry served and stamped again
    racy_window(0)
    (tmp_path / "a").mkdir()
    for i in range(3):
        write_snapshot_bin(tmp_path / "a" / f"s{i}.gpm",
                           SnapshotMatrix(data=_graded(40, 12, i), param=float(i)))
    files = sorted((tmp_path / "a").glob("*.gpm"))
    cold = [read_pod_factor(p, 3) for p in files]
    shutil.copytree(tmp_path / "a", tmp_path / "b")
    streamed = fileio_calls("_pod_cache_prefix")
    factored = fileio_calls("_factor_snapshot")
    copies = sorted((tmp_path / "b").glob("*.gpm"))
    for passes in (copies, []):
        streamed.clear()
        for want, path in zip(cold, copies):
            got = read_pod_factor(path, 3)
            assert np.array_equal(got.vectors, want.vectors)
            assert np.array_equal(got.singular_values, want.singular_values)
        assert streamed == passes
    assert factored == []


def test_stamp_moved_onto_another_entry_is_not_trusted(tmp_path, racy_window):
    # the entry's CRC covers the key and the stamp: a stamp moved onto the
    # entry of other bytes does not check, so that entry is not served for
    # this file
    racy_window(0)
    path, other = tmp_path / "s.gpm", tmp_path / "t.gpm"
    for seed, p in enumerate((path, other)):
        write_snapshot_bin(p, SnapshotMatrix(data=_graded(40, 12, seed)))
        read_pod_factor(p, 3)
    entry = tmp_path / ".gpmor_cache" / "s.gpm.pod"
    mine, theirs = entry.read_bytes(), (tmp_path / ".gpmor_cache" / "t.gpm.pod").read_bytes()
    at = 8 + int.from_bytes(mine[4:8], "little") + 44
    entry.write_bytes(theirs[:at] + mine[at:at + 40] + theirs[at + 40:])
    _assert_factor_of_file(path, 3)
