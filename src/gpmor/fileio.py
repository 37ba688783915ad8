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
import os
import struct
from pathlib import Path

import numpy as np

from .errors import DataError, ParameterError
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
    by the first two fields. The payload is read once into a fresh, aligned
    array and frozen, so the types that take it keep it without a copy."""
    size = 4 + struct.calcsize(header)
    with open(path, "rb") as fh:
        head = fh.read(size)
        if head[:4] != magic:
            raise DataError(f"{path}: bad magic {head[:4]!r}, expected {magic!r}")
        if len(head) < size:
            raise DataError(f"{path}: short header: {len(head)} bytes, expected {size}")
        fields = struct.unpack_from(header, head, 4)
        rows, cols = fields[:2]
        payload = os.fstat(fh.fileno()).st_size - len(head)
        expected = rows * cols * 8
        if payload != expected:
            raise DataError(f"{path}: payload holds {payload} bytes, expected {expected}")
        data = np.fromfile(fh, dtype="<f8", count=rows * cols)
    data.setflags(write=False)
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


def write_csv(path, header, rows):
    """A `# gpm-...` header line, then one comma-separated line per row of
    Python ints and floats; a float's repr is its fmt form."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(map(repr, row)) + "\n")


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
    header = f"# gpm-snapshot lambda={fmt(snap.param)}"
    write_csv(path, header, map(np.ndarray.tolist, snap.data))


def read_snapshot_csv(path):
    header, data = _read_matrix_csv(path)
    return SnapshotMatrix(data=data, param=_header_field(path, header, "lambda", 0.0, float))


def write_frame_csv(path, point):
    write_csv(path, "# gpm-frame orthonormal", map(np.ndarray.tolist, point.frame))


def read_frame_csv(path):
    _, data = _read_matrix_csv(path)
    return GrassmannPoint(frame=data)


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


def _read_either(path, magic, read_bin, read_csv):
    """Read with read_bin when the file starts with `magic`, else with read_csv."""
    path = Path(path)
    with open(path, "rb") as fh:
        head = fh.read(4)
    return (read_bin if head == magic else read_csv)(path)


def read_snapshot(path):
    """Read a snapshot in either format, picked by file magic."""
    return _read_either(path, SNAPSHOT_MAGIC, read_snapshot_bin, read_snapshot_csv)


def read_frame(path):
    return _read_either(path, FRAME_MAGIC, read_frame_bin, read_frame_csv)


# -- JSON --------------------------------------------------------------------


def write_json(path, payload):
    """Deterministic JSON: sorted keys, fixed layout, trailing newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path):
    with open(path) as fh:
        return json.load(fh)
