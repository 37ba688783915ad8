"""POD factor cache entries ("GPC3"): the file format of the entries that
fileio.read_pod_factor keeps. The key and the stamp are opaque bytes here;
fileio says what they hold and when an entry is trusted.

An entry is: magic, u32-LE key length, the key, i64-LE n, n_t, the max_mode
it was built with (clamped to [0, min(n, n_t)]) and the number of vectors
kept, f64-LE lambda, a u32-LE CRC-32, the 40-byte stamp, then the payload:
min(n, n_t) f64-LE singular values and the n x kept f64-LE vectors
column-major. The CRC covers the key, the five fields, the stamp and the
payload, in that order.
"""

import collections
import os
import struct
import zlib

import numpy as np

from .snapshots import PodFactor, kept_modes

MAGIC = b"GPC3"
STAMP = struct.Struct("<QQqqq")
_START = struct.Struct("<4sI")
_FIELDS = struct.Struct("<qqqqd")
# the fields, the CRC and the stamp
_HEAD = struct.Struct(f"<{_FIELDS.size}sI{STAMP.size}s")
# an entry as read: its key, its stamp, the max_mode it was built at and the
# factor it keeps
Entry = collections.namedtuple("Entry", "key stamp built factor")


def _crc(*parts):
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    return crc


def read(cache):
    """The Entry in file `cache`, or None when the file is missing or
    malformed. The file is opened once."""
    try:
        with open(cache, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            magic, length = _START.unpack(fh.read(_START.size))
            # the length is bounded by the file before the key is read
            if magic != MAGIC or _START.size + length + _HEAD.size > size:
                return None
            key = fh.read(length)
            fields, crc, stamp = _HEAD.unpack(fh.read(_HEAD.size))
            n, n_t, built, kept, lam = _FIELDS.unpack(fields)
            q = min(n, n_t)
            if n < 1 or n_t < 1 or not 0 <= kept <= q or size - fh.tell() != 8 * (q + n * kept):
                return None
            sv = np.fromfile(fh, dtype="<f8", count=q)
            vectors = np.fromfile(fh, dtype="<f8", count=n * kept)
    except (OSError, struct.error):
        return None
    if _crc(key, fields, stamp, sv, vectors) != crc or kept != kept_modes(sv, (n, n_t), built):
        return None
    # frozen here, so PodFactor keeps them instead of copying them
    sv.setflags(write=False)
    vectors.setflags(write=False)
    factor = PodFactor(vectors=vectors.reshape((n, kept), order="F"), singular_values=sv,
                       shape=(n, n_t), param=lam)
    return Entry(key, stamp, built, factor)


def store(fh, key, factor, max_mode, stamp):
    """Write `factor`, built at max_mode, to fh as the entry of `key` that
    carries `stamp`."""
    n, n_t = factor.shape
    sv = np.asarray(factor.singular_values, dtype="<f8")
    # the transpose of the F-ordered vectors is C-contiguous, in file order:
    # they are written and checksummed without a copy
    vectors = np.asfortranarray(factor.vectors, dtype="<f8").T
    built = min(max(int(max_mode), 0), min(n, n_t))
    fields = _FIELDS.pack(n, n_t, built, factor.vectors.shape[1], factor.param)
    head = _START.pack(MAGIC, len(key)) + key
    for part in (head, _HEAD.pack(fields, _crc(key, fields, stamp, sv, vectors), stamp), sv, vectors):
        fh.write(part)
