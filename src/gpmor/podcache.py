"""POD factor cache entries ("GPC2"), one `.gpmor_cache/<file name>.pod`
per snapshot file, beside it; fileio.read_pod_factor finds, keys and stamps
them.

An entry is: magic, u32-LE key length, the key, i64-LE n, n_t, the max_mode
it was built with (clamped to [0, min(n, n_t)]) and the number of vectors
kept, f64-LE lambda, u32-LE CRC-32 of those five fields and the payload,
the stamp (see below) and a u32-LE CRC-32 of every byte before it, then the
payload: min(n, n_t) f64-LE singular values and the n x kept f64-LE vectors
column-major. The key is the snapshot file's u64-LE byte count, its CRC-32
and Adler-32 (u32-LE each), then a text naming what else sets a factor's
bits (see fileio._cache_prefix).

The stamp is the snapshot's u64-LE st_dev and st_ino and i64-LE st_size,
st_mtime_ns and st_ctime_ns when its key was streamed, or 40 zero bytes,
which match no file. An entry whose stamp equals the snapshot's stat is
taken to hold the key of the snapshot's bytes without reading them. The
stamp's own CRC covers the rest of the header, so a stamp can be rewritten
in place by one write, and a torn or misplaced one does not check.
"""

import contextlib
import os
import struct
import zlib

import numpy as np

from .snapshots import PodFactor, kept_modes

MAGIC = b"GPC2"
STAMP = struct.Struct("<QQqqq")
_FIELDS = struct.Struct("<qqqqd")
# the fields, their CRC and the payload's, the stamp and its CRC
_HEAD = struct.Struct(f"<{_FIELDS.size}sI{STAMP.size}sI")


def prefix_of(sums, text):
    """The magic and the key that start an entry for a snapshot file whose
    byte count, CRC-32 and Adler-32 pack to the 16 bytes `sums`."""
    return MAGIC + struct.pack("<I", len(sums + text)) + sums + text


def load(cache, prefix, max_mode, stamp, streamed):
    """The factor_pod result at max_mode from entry file `cache`, or None when
    the file is missing or malformed, keeps fewer vectors than max_mode needs
    or is not known to be the snapshot's. With `streamed`, the entry must
    start with `prefix` (its magic and key), and an entry that carries
    another stamp is stamped `stamp` unless that is all zeros. Without, the
    checksums in `prefix` are not compared, but the entry must carry
    `stamp`."""
    try:
        with open(cache, "rb") as fh:
            head = fh.read(len(prefix))
            rest = fh.read(_HEAD.size)
            fields, crc, kept_stamp, stamp_crc = _HEAD.unpack(rest)
            stamped = kept_stamp == stamp and zlib.crc32(head + rest[:-4]) == stamp_crc
            # unless streamed, the entry's own checksums (the 16 bytes after
            # the magic and the key length) stand in for the file's
            want = prefix if streamed else prefix[:8] + head[8:24] + prefix[24:]
            if head != want or not (streamed or stamped):
                return None
            n, n_t, built, kept, lam = _FIELDS.unpack(fields)
            q = min(n, n_t)
            payload = os.fstat(fh.fileno()).st_size - fh.tell()
            if n < 1 or n_t < 1 or not 0 <= kept <= q or payload != 8 * (q + n * kept):
                return None
            sv = np.fromfile(fh, dtype="<f8", count=q)
            vectors = np.fromfile(fh, dtype="<f8", count=n * kept)
    except (OSError, struct.error):
        return None
    # frozen here, so PodFactor keeps them instead of copying them
    sv.setflags(write=False)
    vectors.setflags(write=False)
    if (zlib.crc32(vectors, zlib.crc32(sv, zlib.crc32(fields))) != crc
            or kept != kept_modes(sv, (n, n_t), built)):
        return None
    keep = kept_modes(sv, (n, n_t), max_mode)
    if keep > kept:
        return None
    if not stamped and any(stamp):
        # the stamp follows the fields and their CRC
        head += rest[:_FIELDS.size + 4]
        with contextlib.suppress(OSError), open(cache, "r+b") as fh:
            fh.seek(len(head))
            fh.write(stamp + struct.pack("<I", zlib.crc32(head + stamp)))
    vectors = vectors.reshape((n, kept), order="F")[:, :keep]
    return PodFactor(vectors=vectors, singular_values=sv, shape=(n, n_t), param=lam)


def store(fh, prefix, factor, max_mode, stamp):
    """Write `factor`, built at max_mode, to fh as an entry that starts with
    `prefix` and carries `stamp`."""
    n, n_t = factor.shape
    sv = np.asarray(factor.singular_values, dtype="<f8")
    # the transpose of the F-ordered vectors is C-contiguous, in file order:
    # they are written and checksummed without a copy
    vectors = np.asfortranarray(factor.vectors, dtype="<f8").T
    built = min(max(int(max_mode), 0), min(n, n_t))
    kept = factor.vectors.shape[1]
    fields = _FIELDS.pack(n, n_t, built, kept, factor.param)
    crc = zlib.crc32(vectors, zlib.crc32(sv, zlib.crc32(fields)))
    head = prefix + fields + struct.pack("<I", crc) + stamp
    for part in (head, struct.pack("<I", zlib.crc32(head)), sv, vectors):
        fh.write(part)
