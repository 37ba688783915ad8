"""On-disk formats: snapshot matrices, orthonormal frames, CSV/JSON reports.

Binary snapshot ("GPM1"): magic, u64-LE n, u64-LE n_t, f64-LE lambda, then
n * n_t f64-LE values in column-major order. Binary frame ("GPF1"): magic,
u64-LE n, u64-LE p, then the frame column-major; the distinct magic is the
orthonormal-frame marker. CSV variants carry the same metadata in a leading
comment line; a C3 distance table ("# gpm-c3-table modes=...") is a square
CSV matrix with one mode per row. All text output uses the shortest
round-trip decimal form of each 64-bit float, so re-reading a file
reproduces the in-memory values exactly; the binary format remains the
source of truth.

POD factor cache: one entry per snapshot file, in the format of
gpmor.podcache, kept as `.gpmor_cache/<file name>.pod` beside it. Its key is
the snapshot file's u64-LE byte count, CRC-32 and Adler-32 (u32-LE each),
then as text snapshots.POD_FACTOR_VERSION, the numpy version, the BLAS build
and snapshots.BLAS_THREADS, since other factoring code, another build or
another thread count may give the same bytes another last bit. The key does
not name the CPU; a cache moved to a machine whose BLAS picks other kernels
should be deleted. Its stamp is the snapshot's u64-LE st_dev and st_ino and
i64-LE st_size, st_mtime_ns and st_ctime_ns when its key was streamed, or
zeros, which match no file.
"""

import contextlib
import json
import os
import struct
import time
import zlib
from pathlib import Path

import numpy as np

from . import podcache
from .errors import DataError, ParameterError
from .grassmann import GrassmannPoint
from .record import replace
from .snapshots import (
    BLAS_THREADS,
    POD_FACTOR_VERSION,
    SnapshotMatrix,
    factor_pod,
    factor_rows,
    kept_modes,
    row_blocks,
)
from .stability import DistanceTable

SNAPSHOT_MAGIC = b"GPM1"
FRAME_MAGIC = b"GPF1"
# a file that starts with any of these is read as binary, so one of another kind is named
BINARY_MAGICS = (SNAPSHOT_MAGIC, FRAME_MAGIC, podcache.MAGIC)
POD_CACHE_DIR = ".gpmor_cache"
# a snapshot is stamped only when its ctime is older than its key's stream by
# more than this, FAT's 2 s timestamp step (the coarsest in common use), so a
# write in the same timestamp tick as the stream cannot hide behind the stamp
RACY_WINDOW_NS = 2_000_000_000
# small enough that both checksums of a chunk read it from the CPU cache
_KEY_CHUNK = 1 << 18
_BLAS = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
_BUILD = " ".join([f"numpy {np.__version__};",
                   *(str(_BLAS.get(k)) for k in ("name", "version", "openblas configuration"))])


def fmt(x):
    """Shortest decimal representation that round-trips a 64-bit float."""
    return repr(float(x))


# -- binary ------------------------------------------------------------------


@contextlib.contextmanager
def _replacing(path, mode="wb"):
    """A file open at a temporary name beside `path`, moved onto `path` by
    os.replace when the block ends and removed when it raises, so a reader
    finds the old file or the whole new one, never a part."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


def _write_bin(fh, magic, header, fields):
    """Start the container _read_bin reads in fh: the magic and `fields`
    packed by `header`. Returns put(block), which writes the next row block,
    in order, of the fields[0]-row matrix that follows as column-major f64,
    so a caller need not hold the whole matrix. Each column segment of a
    block goes out by one positioned write, the mirror of _factor_snapshot's
    reads, from a copy of that one column when it is not contiguous."""
    rows = fields[0]
    fh.write(magic + struct.pack(header, *fields))
    fh.flush()
    fd, payload, start = fh.fileno(), fh.tell(), 0

    def put(block):
        nonlocal start
        for j in range(block.shape[1]):
            segment = np.ascontiguousarray(block[:, j], dtype="<f8")
            if os.pwrite(fd, segment, payload + 8 * (j * rows + start)) < segment.nbytes:
                raise OSError(f"{fh.name}: short write")
        start += len(block)

    return put


def _bin_header(fh, path, magic, header):
    """Header fields after the magic of the binary container open as fh,
    whose payload must hold the product of the first two fields in f64
    values; fh is left at the payload."""
    size = 4 + struct.calcsize(header)
    head = fh.read(size)
    if head[:4] != magic:
        raise DataError(f"{path}: bad magic {head[:4]!r}, expected {magic!r}")
    if len(head) < size:
        raise DataError(f"{path}: short header: {len(head)} bytes, expected {size}")
    fields = struct.unpack_from(header, head, 4)
    payload = os.fstat(fh.fileno()).st_size - len(head)
    expected = fields[0] * fields[1] * 8
    if payload != expected:
        raise DataError(f"{path}: payload holds {payload} bytes, expected {expected}")
    return fields


def _read_bin(path, magic, header):
    """Header fields after the magic and the column-major f64 payload, shaped
    by the first two fields. The payload is read once into a fresh, aligned
    array and frozen, so the types that take it keep it without a copy."""
    with open(path, "rb") as fh:
        fields = _bin_header(fh, path, magic, header)
        rows, cols = fields[:2]
        data = np.fromfile(fh, dtype="<f8", count=rows * cols)
    data.setflags(write=False)
    return fields, data.reshape((rows, cols), order="F")


def write_snapshot_blocks(bin_path, csv_path, shape, lam, blocks):
    """Write the snapshot of `shape` at lam, given as its row blocks in
    order, from one pass over them: as a binary file at bin_path, a CSV file
    at csv_path, or both (a None path is not written). Each file is written
    under a temporary name and replaces its path only once it is whole."""
    with contextlib.ExitStack() as files:
        puts = []
        if bin_path is not None:
            fh = files.enter_context(_replacing(bin_path))
            puts.append(_write_bin(fh, SNAPSHOT_MAGIC, "<QQd", (*shape, lam)))
        if csv_path is not None:
            fh = files.enter_context(_replacing(csv_path, "w"))
            fh.write(f"# gpm-snapshot lambda={fmt(lam)}\n")
            puts.append(lambda block, fh=fh: _csv_rows(fh, map(np.ndarray.tolist, block)))
        for block in blocks:
            for put in puts:
                put(block)
            # dropped before the next block is built
            del block


def write_snapshot_bin(path, snap):
    write_snapshot_blocks(path, None, snap.data.shape, snap.param, (snap.data,))


def write_frame_bin(path, point):
    with open(path, "wb") as fh:
        _write_bin(fh, FRAME_MAGIC, "<QQ", (point.n, point.p))(point.frame)


# -- CSV ---------------------------------------------------------------------


def _csv_rows(fh, rows):
    """One comma-separated line per row of Python ints and floats; a float's
    repr is its fmt form."""
    for row in rows:
        fh.write(",".join(map(repr, row)) + "\n")


def write_csv(path, header, rows):
    """A `# gpm-...` header line, then the rows as _csv_rows writes them."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        _csv_rows(fh, rows)


def _read_matrix_csv(path):
    """The first `#` line of a CSV matrix file ("" when it has none) and its
    rows as one frozen, column-major float64 array, as _read_bin gives a
    payload, so a matrix reduces in the same order whichever format it came
    in. A first pass counts the rows, so the second parses each straight into
    its row and the read holds the matrix once."""
    header, rows, cols = "", 0, 0
    # undecodable bytes (a binary file of another magic) make unparsable rows
    with open(path, errors="replace") as fh:
        for line in map(str.strip, fh):
            if line.startswith("#"):
                header = header or line
            elif line:
                rows += 1
                cols = cols or line.count(",") + 1
        if not rows:
            raise DataError(f"{path}: no data rows")
        data = np.empty((rows, cols), order="F")
        fh.seek(0)
        widths, i = set(), 0
        for lineno, line in enumerate(map(str.strip, fh), start=1):
            if not line or line.startswith("#"):
                continue
            values = line.split(",")
            widths.add(len(values))
            # a row that has no place in the array is parsed into a scratch
            # row, so the first unparsable row is named before any width
            row = data[i] if i < rows and len(values) == cols else np.empty(len(values))
            try:
                row[:] = values
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: unparsable row: {exc}") from exc
            i += 1
    if i != rows:
        raise DataError(f"{path}: changed while it was read")
    if widths != {cols}:
        raise DataError(f"{path}: ragged rows (widths {sorted(widths)})")
    data.setflags(write=False)
    return header, data


def _header_field(path, header, key, default, parse):
    """parse() of the text after `key=` in a CSV header line, or `default`
    when the header has no such field; a malformed value is a DataError."""
    if f"{key}=" not in header:
        return default
    text = (header.split(f"{key}=")[1].split() or [""])[0]
    try:
        return parse(text)
    except ValueError as exc:
        raise DataError(f"{path}: header field {key}=: {exc}") from None


def write_snapshot_csv(path, snap):
    write_snapshot_blocks(None, path, snap.data.shape, snap.param, (snap.data,))


def write_distance_table(path, table):
    modes = ",".join(str(m) for m in table.modes)
    write_csv(path, f"# gpm-c3-table modes={modes}", map(np.ndarray.tolist, table.values))


def read_distance_table(path):
    """Read a C3 distance table, one mode per row as the `modes=` header names
    (default 0..m-1); DistanceTable's rules hold, as DataErrors naming the file."""
    header, values = _read_matrix_csv(path)
    modes = _header_field(path, header, "modes", range(len(values)),
                          lambda t: [int(x) for x in t.split(",") if x.strip()])
    try:
        return DistanceTable(modes=modes, values=values)
    except ParameterError as exc:
        raise DataError(f"{path}: {exc}") from None


def read_snapshot(path):
    """Read a snapshot in either format, picked by file magic."""
    with open(path, "rb") as fh:
        binary = fh.read(4) in BINARY_MAGICS
    if binary:
        (_, _, lam), data = _read_bin(path, SNAPSHOT_MAGIC, "<QQd")
    else:
        header, data = _read_matrix_csv(path)
        lam = _header_field(path, header, "lambda", 0.0, float)
    return SnapshotMatrix(data=data, param=lam)


def read_frame(path):
    """Read an orthonormal frame in either format, picked by file magic."""
    with open(path, "rb") as fh:
        binary = fh.read(4) in BINARY_MAGICS
    data = _read_bin(path, FRAME_MAGIC, "<QQ")[1] if binary else _read_matrix_csv(path)[1]
    return GrassmannPoint(frame=data)


# -- POD factor cache ----------------------------------------------------------


def _file_state(st):
    """The stat fields a write to or a replacement of a file changes, packed
    as a cache entry's stamp."""
    return podcache.STAMP.pack(st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns)


def _key_text():
    """What, besides a snapshot file's bytes, sets its factor's bits: the
    text that ends a cache key."""
    return f"gpmor factor {POD_FACTOR_VERSION}; {_BUILD}; {BLAS_THREADS} threads".encode()


def _pod_cache_prefix(path):
    """The cache key of snapshot file `path` (the file streamed in
    _KEY_CHUNK pieces), and the file's _file_state when the stream began."""
    size, crc, adler = 0, 0, 1
    with open(path, "rb") as fh:
        state = _file_state(os.fstat(fh.fileno()))
        while chunk := fh.read(_KEY_CHUNK):
            size += len(chunk)
            crc = zlib.crc32(chunk, crc)
            adler = zlib.adler32(chunk, adler)
    return struct.pack("<QII", size, crc, adler) + _key_text(), state


def _factor_snapshot(path, max_mode):
    """factor_pod(read_snapshot(path), max_mode), bit for bit. A non-empty
    binary snapshot is not read whole: factor_rows takes it in row blocks,
    each filled by positioned reads of its column segments and checked for
    non-finite entries, in two passes over the file."""
    with open(path, "rb", buffering=0) as fh:
        if fh.read(4) in BINARY_MAGICS:
            fh.seek(0)
            n, n_t, lam = _bin_header(fh, path, SNAPSHOT_MAGIC, "<QQd")
            if n and n_t:
                payload = fh.tell()

                def fill(view, start):
                    for j in range(n_t):
                        fh.seek(payload + 8 * (j * n + start))
                        if fh.readinto(view[:, j]) != view[:, j].nbytes:
                            raise DataError(f"{path}: payload shrank while it was read")
                    if not np.isfinite(view).all():
                        raise DataError("snapshot data contains non-finite entries")

                return factor_rows(lambda: row_blocks(n, n_t, fill), (n, n_t), lam, max_mode)
    return factor_pod(read_snapshot(path), max_mode)


def read_pod_factor(path, max_mode):
    """factor_pod(read_snapshot(path), max_mode), bit for bit. The snapshot's
    cache entry serves it when it keeps the vectors max_mode needs (column j
    does not depend on max_mode) and is trusted as the snapshot's:
    1. when its stamp equals the file's stat and its key ends in today's
       text; then no byte of the snapshot is read;
    2. else when its key is the one the snapshot streams to; it is then
       stored again with the new stamp, unless that is its own or zeros.
    Otherwise the snapshot is factored (a binary one in row blocks, see
    _factor_snapshot) and its entry stored. The new stamp is zeros when the
    file's ctime is within RACY_WINDOW_NS of the stream's start, since a
    write in the same timestamp tick could leave the stat as it was (git's
    "racy" rule). An entry is stored whole through _replacing, and only when
    the file's stat shows no write or replacement since the stream began; a
    cache that cannot be written is skipped silently. The key's checksums
    run in file order, which a row block of a column-major file is not, so a
    miss reads the file for the key and again for the factor (twice, a
    binary one).
    """
    path = Path(path)
    cache = path.parent / POD_CACHE_DIR / f"{path.name}.pod"
    state = _file_state(os.stat(path))
    entry = podcache.read(cache)
    if entry and entry.stamp == state and entry.key[16:] == _key_text():
        key, stamp = entry.key, entry.stamp
    else:
        start = time.time_ns()
        key, state = _pod_cache_prefix(path)
        stamp = state if start - podcache.STAMP.unpack(state)[4] > RACY_WINDOW_NS else bytes(len(state))
    factor = entry and entry.key == key and entry.factor
    keep = factor and kept_modes(factor.singular_values, factor.shape, max_mode)
    if factor and keep <= factor.vectors.shape[1]:
        served, built = replace(factor, vectors=factor.vectors[:, :keep]), entry.built
        if stamp == entry.stamp or not any(stamp):
            return served
    else:
        entry = factor = None  # the old entry's arrays go before the snapshot is factored
        served = factor = _factor_snapshot(path, max_mode)
        built = max_mode
    with contextlib.suppress(OSError):
        if _file_state(os.stat(path)) == state:
            cache.parent.mkdir(exist_ok=True)
            with _replacing(cache) as fh:
                podcache.store(fh, key, factor, built, stamp)
    return served


# -- JSON --------------------------------------------------------------------


def write_json(path, payload):
    """Deterministic JSON: sorted keys, fixed layout, trailing newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path):
    """The value of a UTF-8 JSON file; a file that is not one is a DataError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:
        raise DataError(f"{path}: not UTF-8 JSON: {exc}") from None
