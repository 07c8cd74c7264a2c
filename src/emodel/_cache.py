"""A cache of parsed runs and compounds files, keyed by their content.

Every ``emodel`` command is its own process, so a pipeline over one runs file
parses that file once per command. Here a loader's parse of a whole file is
kept: the float64 matrix of its number columns, its stripped text columns and
its row numbers. The key is a BLAKE2b digest of the file's bytes together with
the parse spec (the header width and the positions of the number and text
columns) and :data:`VERSION`. A later load of the same bytes under the same
spec reads the entry and skips the CSV parse. The loader then runs every check
on the same arrays, so a hit gives the same dataset, the same faults and the
same reports as a parse.

Entries live in ``$XDG_CACHE_HOME/emodel`` (``~/.cache/emodel`` by default),
and removing them is always safe. Each entry is a header, the matrix as raw
little-endian float64 bytes, then the text columns and row numbers as JSON.
The header holds the CRC-32 of everything after it, so an entry with any
damaged bit misses. Nothing is pickled. Whatever keeps the cache from working
leaves the load to parse the file as before, silently: a missing, short,
damaged or unreadable entry, a directory that cannot be written or that is
not the user's own, or a path that is not a regular file.
"""

from __future__ import annotations

import json
import os
import stat
import zlib
from array import array

import numpy as np

try:
    # hashlib would load OpenSSL, which costs every loading process about 3.5 MiB.
    from _blake2 import blake2b
except ImportError:
    from hashlib import blake2b

#: Changed whenever a parse or an entry's layout changes, so older entries miss.
VERSION = 2
#: The number of entries kept: a write beyond it removes the oldest by mtime.
MAX_ENTRIES = 16

_MAGIC = b"emodel parse\n"
# Then the CRC-32 of the rest of the entry, and the row count: little-endian,
# in 4 and 8 bytes.
_HEADER = len(_MAGIC) + 4 + 8
_CHUNK = 1 << 18


def _directory() -> str | None:
    """The cache directory, made if it is missing; None when there is no
    absolute place for it, or when it is not this user's own or others may
    write to it, since an entry there could have been planted."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):  # the XDG rule: a relative path is ignored
        base = os.path.join(os.path.expanduser("~"), ".cache")
    # With no home to expand, "~" stays as it is: then there is no cache.
    if not os.path.isabs(base) or not hasattr(os, "getuid"):
        return None
    directory = os.path.join(base, "emodel")
    os.makedirs(directory, mode=0o700, exist_ok=True)
    status = os.stat(directory)
    private = status.st_uid == os.getuid() and not status.st_mode & (stat.S_IWGRP | stat.S_IWOTH)
    return directory if private else None


def _stamp(fd: int) -> tuple[int, int, int]:
    status = os.fstat(fd)
    return status.st_mode, status.st_size, status.st_mtime_ns


def _key(fd: int, spec: tuple) -> str:
    """The digest of the spec and of the file's bytes, read from its start.
    The descriptor's offset is put back, so the open text reader goes on
    where it stopped."""
    digest = blake2b(repr((VERSION, spec)).encode(), digest_size=32)
    offset = os.lseek(fd, 0, os.SEEK_CUR)
    os.lseek(fd, 0, os.SEEK_SET)
    try:
        while chunk := os.read(fd, _CHUNK):
            digest.update(chunk)
    finally:
        os.lseek(fd, offset, os.SEEK_SET)
    return digest.hexdigest()


def _read(path: str, columns: int, text_columns: int):
    """The parse kept at ``path``, or None when the entry is missing, not
    whole or damaged."""
    try:
        with open(path, "rb") as fh:
            head = fh.read(_HEADER)
            rows = int.from_bytes(head[-8:], "little")
            size = _HEADER + 8 * rows * columns
            if head[:len(_MAGIC)] != _MAGIC or os.fstat(fh.fileno()).st_size <= size:
                return None
            floats = bytearray(size - _HEADER)
            if fh.readinto(floats) != len(floats):
                return None
            rest = fh.read()
        if _checksum(head[-8:], floats, rest) != head[len(_MAGIC):-8]:
            return None
        texts, row_numbers = json.loads(rest)
        if len(texts) != text_columns or len(row_numbers) != rows or any(
                len(column) != rows for column in texts):
            return None
        matrix = np.frombuffer(floats, dtype="<f8").reshape(rows, columns)
        return matrix.astype(float, copy=False), texts, array("q", row_numbers), None
    except (OSError, ValueError, TypeError):
        return None


def _checksum(rows: bytes, floats, rest: bytes) -> bytes:
    """The CRC-32 of an entry's row count, matrix and JSON, as 4 little-endian bytes."""
    return zlib.crc32(rest, zlib.crc32(floats, zlib.crc32(rows))).to_bytes(4, "little")


def _write(directory: str, key: str, matrix: np.ndarray, texts, row_numbers) -> None:
    """Keep a parse: written whole to a temporary file, then renamed into place."""
    temporary = os.path.join(directory, f".{key}.{os.getpid()}")
    rows = len(matrix).to_bytes(8, "little")
    floats = np.ascontiguousarray(matrix, dtype="<f8").data
    rest = json.dumps([texts, row_numbers.tolist()], separators=(",", ":")).encode()
    try:
        with open(os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600), "wb") as fh:
            fh.write(_MAGIC + _checksum(rows, floats, rest) + rows)
            fh.write(floats)
            fh.write(rest)
        os.replace(temporary, os.path.join(directory, key))
    except BaseException:
        try:
            os.unlink(temporary)
        except OSError:
            pass
        raise
    entries = [entry for entry in os.scandir(directory) if entry.is_file()]
    if len(entries) > MAX_ENTRIES:
        # The entry just written goes last even when file times are too coarse to order it.
        entries.sort(key=lambda entry: (entry.name == key, entry.stat().st_mtime_ns))
        for entry in entries[:-MAX_ENTRIES]:
            try:
                os.unlink(entry.path)
            except OSError:
                pass


def cached_parse(rows, spec: tuple[int, tuple[int, ...], tuple[int, ...]], parse):
    """``parse()``, a loader's parse of the rows that ``_read_csv`` gives
    under ``spec`` (header width, number positions, text positions), or its
    result as an earlier parse of the same bytes under the same spec kept it.
    The result of a parse that read to the end of the file (the fourth item
    is None) is kept, unless the file changed while it was read. So when an
    entry is found, the rest of the file reads cleanly: the rows are marked
    ``clean``, and a fault the loader finds does not read it."""
    try:
        fd = rows.file.fileno()
        before = _stamp(fd)
        directory = _directory() if stat.S_ISREG(before[0]) else None
        key = _key(fd, spec) if directory else None
        if _stamp(fd) != before:
            key = None
    except OSError:
        key = None
    if key is None:
        return parse()
    kept = _read(os.path.join(directory, key), len(spec[1]), len(spec[2]))
    if kept is not None:
        rows.clean = True
        return kept
    result = parse()
    matrix, texts, row_numbers, stopped = result
    try:
        if stopped is None and _stamp(fd) == before:
            _write(directory, key, matrix, texts, row_numbers)
    except OSError:
        pass
    return result
