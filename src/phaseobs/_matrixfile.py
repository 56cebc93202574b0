"""Explicit phase-matrix files: the row reader and the entry cache.

Only a `--matrix` that names a file loads this module (`cli._matrix_spec`);
state and window files are decoded whole by `cli`, and a command with a
builtin matrix never compiles any of this.  The file's bytes come from
`cli._read`, and `cli._CACHE_MIN_BYTES` is read there at call time.
"""

from __future__ import annotations

import math
import os
import re
import zlib
from itertools import chain

import numpy as np
import orjson

from . import cli
from .cli import _atomic_write, _read


def _load_json(path: str) -> dict:
    """Strict UTF-8 JSON: NaN, Infinity, an overflowing literal such as
    1e400, a byte order mark or invalid UTF-8 raise orjson.JSONDecodeError,
    a ValueError.  A 3-level `entries` grid is read a row at a time (see
    `_entries_by_row`); every other file, and every file that path refuses,
    is decoded whole.  A large file is first looked up in the entry cache,
    and a row-at-a-time decode of it is stored there (see `_cache_entry`)."""
    data = _read(path)
    entry = _cache_entry(data)
    doc = None if entry is None else _cached_doc(entry)
    if doc is None:
        doc = _entries_by_row(data)
        if doc is not None and entry is not None:
            _store_doc(entry, doc)
    return orjson.loads(memoryview(data)) if doc is None else doc


# The cache keeps at most this many entries and this many bytes, the most
# recently used; a larger entry is not stored.
_CACHE_ENTRIES = 8
_CACHE_BYTES = 128 << 20


def _cache_entry(data: bytes) -> str | None:
    """The path of the cache entry of a file's bytes, named by their
    BLAKE2b-256 digest; None for a file below `_CACHE_MIN_BYTES`, without a
    cache directory, or when the interpreter was built without its own
    BLAKE2.  Not SHA-256: hashlib loads OpenSSL's libcrypto, 3.4 MB of
    resident memory in every child that reads a large file."""
    directory = _cache_dir()
    if len(data) < cli._CACHE_MIN_BYTES or directory is None:
        return None
    try:
        from _blake2 import blake2b
    except ImportError:
        return None
    return os.path.join(directory, blake2b(data, digest_size=32).hexdigest())


def _cache_dir() -> str | None:
    """`$XDG_CACHE_HOME/phaseobs`, or `~/.cache/phaseobs` when that variable
    is unset or not an absolute path; None when the home directory is not
    known either (`~` does not expand)."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "phaseobs") if os.path.isabs(base) else None


def _entry_check(header: bytes, entries) -> bytes:
    """The first line of a cache entry: the CRC-32 of its header line and
    its float bytes, in 8 hex digits.  It finds an entry whose length is
    right but whose bytes are not the ones written (a crash before the
    pages reached the disk, a damaged disk, an edit)."""
    return b"%08x\n" % zlib.crc32(entries, zlib.crc32(header))


def _cached_doc(entry: str) -> dict | None:
    """The document a cache entry holds, its mtime refreshed; None when the
    entry is missing, unreadable, malformed or fails its check.  An entry is
    the check line (see `_entry_check`), one JSON line, the document with
    `entries` replaced by the array's shape, and then exactly that many
    little-endian float64 values."""
    try:
        with open(entry, "rb") as fh:
            check = fh.readline()
            header = fh.readline()
            doc = orjson.loads(header)
            shape = doc.get("entries") if type(doc) is dict else None
            if type(shape) is not list or not all(type(n) is int and n >= 0 for n in shape):
                return None
            size = os.fstat(fh.fileno()).st_size - len(check) - len(header)
            if 8 * math.prod(shape) != size:
                return None
            entries = np.empty(shape, dtype="<f8")
            if fh.readinto(entries) != entries.nbytes:
                return None
        if check != _entry_check(header, entries):
            return None
        os.utime(entry)
    except (OSError, ValueError):
        return None
    doc["entries"] = entries
    return doc


def _store_doc(entry: str, doc: dict) -> None:
    """Write the cache entry of a document that `_entries_by_row` gave, then
    delete the least recently used entries beyond `_CACHE_ENTRIES` in all or
    `_CACHE_BYTES` in all, never the new one (a coarse file clock may give
    others the same mtime).  An entry above `_CACHE_BYTES` alone is not
    written.  Any failure leaves the rest undone and is not reported."""
    entries = doc["entries"].astype("<f8", copy=False)
    try:
        header = orjson.dumps({**doc, "entries": list(entries.shape)},
                              option=orjson.OPT_APPEND_NEWLINE)
        check = _entry_check(header, entries)
        total = len(check) + len(header) + entries.nbytes
        if total > _CACHE_BYTES:
            return
        os.makedirs(os.path.dirname(entry), mode=0o700, exist_ok=True)
        _atomic_write(entry, [check, header, entries])
        with os.scandir(os.path.dirname(entry)) as found:
            others = sorted((f for f in found if f.path != entry),
                            key=lambda f: f.stat().st_mtime_ns, reverse=True)
        for rank, other in enumerate(others, 2):
            total += other.stat().st_size
            if rank > _CACHE_ENTRIES or total > _CACHE_BYTES:
                os.unlink(other.path)
    except (OSError, TypeError):
        pass


# The comma between two rows of a 3-level grid: "] ] , [ [" with any JSON
# whitespace between the tokens.  The re module compiles it on first use, so
# a command that reads no file never compiles it.
_ROW_SEAM = rb"\][ \t\n\r]*\][ \t\n\r]*(,)[ \t\n\r]*\[[ \t\n\r]*\["
_NONCE = "phaseobs row seam 9d3f0c61b2e84a57"
# A raw newline is whitespace in value position and illegal inside a string,
# so orjson accepts the marker only as an array element.
_MARKER = b'[\n"' + _NONCE.encode() + b'"]'


def _entries_by_row(data: bytes) -> dict | None:
    """The document with its `entries` as one float array, decoded a row at a
    time: the bytes from the first row seam to the last are swapped for a
    marker, orjson decodes that head and tail, and then each row between the
    seams alone.  None unless the marker comes back as a direct element of
    the top-level `entries` and every row converts to the first row's shape;
    the whole-file decode then decides.

    Accepted files give `np.ascontiguousarray(orjson.loads(data)["entries"],
    dtype=float)` bit for bit: the marker stood in value position of that
    array, so each row between the seams is one of its elements.  A file
    without a backslash spells every string plainly, so without the nonce
    none of its strings can equal the marker's.
    """
    seams = [m.start(1) for m in re.finditer(_ROW_SEAM, data)]
    # find, not `in`: `in` walks an mmap a byte at a time
    if not seams or data.find(b"\\") >= 0 or data.find(_NONCE.encode()) >= 0:
        return None
    try:
        doc = orjson.loads(data[:seams[0] + 1] + _MARKER + data[seams[-1]:])
        entries = doc.get("entries") if type(doc) is dict else None
        if type(entries) is not list:
            return None
        at = entries.index([_NONCE])
        view = memoryview(data)
        middle = (orjson.loads(view[a + 1:b]) for a, b in zip(seams, seams[1:]))
        shape = np.asarray(entries[0], dtype=float).shape
        out = np.empty((len(entries) + len(seams) - 2, *shape))
        for i, row in enumerate(chain(entries[:at], middle, entries[at + 1:])):
            row = np.asarray(row, dtype=float)
            if row.shape != shape:
                return None
            out[i] = row
    except (ValueError, TypeError):
        return None
    doc["entries"] = out
    return doc
