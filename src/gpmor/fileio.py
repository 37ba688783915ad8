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
"""

import json
import struct
from pathlib import Path

import numpy as np

from .errors import DataError
from .grassmann import GrassmannPoint
from .snapshots import SnapshotMatrix
from .stability import DistanceTable

SNAPSHOT_MAGIC = b"GPM1"
FRAME_MAGIC = b"GPF1"


def fmt(x):
    """Shortest decimal representation that round-trips a 64-bit float."""
    return repr(float(x))


# -- binary ------------------------------------------------------------------


def write_snapshot_bin(path, snap):
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(struct.pack("<QQd", snap.n, snap.n_t, snap.param))
        fh.write(np.asarray(snap.data, dtype="<f8").tobytes(order="F"))


def _read_bin(path, magic, header):
    """Header fields after the magic and the column-major f64 payload, shaped
    by the first two fields; the payload is a view of the file bytes."""
    raw = Path(path).read_bytes()
    if raw[:4] != magic:
        raise DataError(f"{path}: bad magic {raw[:4]!r}, expected {magic!r}")
    fields = struct.unpack_from(header, raw, 4)
    rows, cols = fields[:2]
    offset = 4 + struct.calcsize(header)
    expected = rows * cols * 8
    if len(raw) - offset != expected:
        raise DataError(f"{path}: payload holds {len(raw) - offset} bytes, expected {expected}")
    data = np.frombuffer(raw, dtype="<f8", count=rows * cols, offset=offset)
    return fields, data.reshape((rows, cols), order="F")


def read_snapshot_bin(path):
    (_, _, lam), data = _read_bin(path, SNAPSHOT_MAGIC, "<QQd")
    return SnapshotMatrix(data=data, param=lam)


def write_frame_bin(path, point):
    with open(path, "wb") as fh:
        fh.write(FRAME_MAGIC)
        fh.write(struct.pack("<QQ", point.n, point.p))
        fh.write(np.asarray(point.frame, dtype="<f8").tobytes(order="F"))


def read_frame_bin(path):
    _, frame = _read_bin(path, FRAME_MAGIC, "<QQ")
    return GrassmannPoint(frame=frame)


# -- CSV ---------------------------------------------------------------------


def _write_matrix_csv(path, header, matrix):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in matrix:
            # repr of a Python float is fmt, without a call per value
            fh.write(",".join(map(repr, row.tolist())) + "\n")


def _read_matrix_csv(path):
    header = None
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if header is None:
                    header = line
                continue
            try:
                rows.append([float(x) for x in line.split(",")])
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: unparsable row: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: no data rows")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise DataError(f"{path}: ragged rows (widths {sorted(widths)})")
    return header or "", np.array(rows)


def write_snapshot_csv(path, snap):
    _write_matrix_csv(path, f"# gpm-snapshot lambda={fmt(snap.param)}", snap.data)


def read_snapshot_csv(path):
    header, data = _read_matrix_csv(path)
    lam = 0.0
    if "lambda=" in header:
        lam = float(header.split("lambda=")[1].split()[0])
    return SnapshotMatrix(data=data, param=lam)


def write_frame_csv(path, point):
    _write_matrix_csv(path, "# gpm-frame orthonormal", point.frame)


def read_frame_csv(path):
    _, data = _read_matrix_csv(path)
    return GrassmannPoint(frame=data)


def write_distance_table(path, table):
    modes = ",".join(str(m) for m in table.modes)
    _write_matrix_csv(path, f"# gpm-c3-table modes={modes}", table.values)


def read_distance_table(path):
    """Read a C3 distance table: a square, finite matrix whose `modes=` header,
    when present, names one mode per row (default 0..m-1)."""
    header, values = _read_matrix_csv(path)
    m = values.shape[0]
    if values.shape[1] != m:
        raise DataError(f"{path}: distance table is {m}x{values.shape[1]}, not square")
    if not np.all(np.isfinite(values)):
        raise DataError(f"{path}: distance table has non-finite entries")
    modes = tuple(range(m))
    if "modes=" in header:
        text = (header.split("modes=")[1].split() or [""])[0]
        try:
            modes = tuple(int(x) for x in text.split(",") if x.strip())
        except ValueError as exc:
            raise DataError(f"{path}: header mode list: {exc}") from None
        if len(modes) != m:
            raise DataError(f"{path}: header names {len(modes)} modes for a {m}x{m} table")
    return DistanceTable(modes=modes, values=values)


def read_snapshot(path):
    """Read a snapshot in either format, picked by file magic."""
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == SNAPSHOT_MAGIC:
        return read_snapshot_bin(path)
    return read_snapshot_csv(path)


def read_frame(path):
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == FRAME_MAGIC:
        return read_frame_bin(path)
    return read_frame_csv(path)


# -- JSON --------------------------------------------------------------------


def write_json(path, payload):
    """Deterministic JSON: sorted keys, fixed layout, trailing newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path):
    with open(path) as fh:
        return json.load(fh)
