"""A cache of checked loads of runs, compounds and energy-function files, keyed
by their content.

Every ``emodel`` command is its own process, so a pipeline over one runs file
loads that file once per command. Here a load that passed every check is
kept: its float64 columns and its other columns, as the loader gives them to
its result. The key is a BLAKE2b digest of the file's bytes together with the
load's spec (what kind of file; for compounds the key of the runs they were
resolved against, and for an energy function the granularity asked for) and
:data:`VERSION`. A later load of the same bytes under the same spec reads the
entry and builds its result from it, with no parse and no check: the checks
passed on those bytes, and the entry holds what they passed. A file with a
fault is never kept, so it is parsed, and its fault found, on every load; so
is a file whose load keeps nothing (an energy function with an x or y that a
float64 may not hold). Reading an entry needs no numpy, and reading one
without a document no :mod:`json`.

Entries live in ``$XDG_CACHE_HOME/emodel`` (``~/.cache/emodel`` by default),
and removing them is always safe. Each entry is a header, the float columns
as raw little-endian float64 bytes, then any other columns as a JSON
document: for runs, the float columns, then ``[pmc_names, app_id, run_id,
cores, problem_size]``; for compounds, the counts and energies, then
``[compound_id, base_a, base_b]``, each base its run group's number in the
dataset the spec's runs key names; for an energy function, the samples' x,
then their y, then their energies, each in the samples' (y, x) order, and no
document. The header holds the CRC-32 of everything after it, so an entry
with any damaged bit misses. Nothing is pickled. Whatever keeps the cache
from working leaves the load to parse and check the file as before,
silently: a missing, short, damaged or unreadable entry, a directory that
cannot be written or that is not the user's own, or a path that is not a
regular file.
"""

from __future__ import annotations

import os
import stat
import sys
import zlib

try:
    # hashlib would load OpenSSL, which costs every loading process about 3.5 MiB.
    from _blake2 import blake2b
except ImportError:
    from hashlib import blake2b

#: Changed whenever a load or an entry's layout changes, so older entries miss; a
#: test pins a digest of the loaders' sources beside it, so both change together.
VERSION = 7
#: The number of entries kept: a write beyond it removes the oldest by mtime.
MAX_ENTRIES = 16

_MAGIC = b"emodel checked load\n"
# Then the CRC-32 of the rest of the entry, and the count of its float64
# values: little-endian, in 4 and 8 bytes. The 32 bytes keep the floats of an
# entry read whole 8-byte aligned, as numpy views of them want.
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


def _floats(data) -> memoryview:
    """Little-endian float64 bytes as a read-only memoryview of native doubles:
    the bytes themselves, or a swapped copy on a big-endian machine."""
    if sys.byteorder == "little":
        return memoryview(data).cast("d").toreadonly()
    from array import array

    swapped = array("d", bytes(data))
    swapped.byteswap()
    return memoryview(swapped).toreadonly()


def _float_bytes(*columns) -> bytes:
    """The numbers of ``columns``, one column after another, as little-endian
    float64 bytes: the floats of an entry, built without numpy."""
    from array import array

    floats = array("d")
    for column in columns:
        floats.extend(column)
    if sys.byteorder != "little":
        floats.byteswap()
    return floats.tobytes()


def _read(path: str):
    """The floats and the document (None when there is none) kept at ``path``,
    or None when the entry is missing, not whole or damaged. The floats are
    read into bytes of their own, which a load may keep without the rest of
    the entry."""
    try:
        with open(path, "rb") as fh:
            header = fh.read(_HEADER)
            size = 8 * int.from_bytes(header[_HEADER - 8:], "little")
            if _HEADER + size > os.fstat(fh.fileno()).st_size:  # a count past the end
                return None
            data, rest = fh.read(size), fh.read()
        crc = zlib.crc32(rest, zlib.crc32(data, zlib.crc32(header[_HEADER - 8:])))
        if header[:_HEADER - 8] != _MAGIC + crc.to_bytes(4, "little"):
            return None
        if not rest:
            return _floats(data), None
        import json

        return _floats(data), json.loads(rest)
    except (OSError, ValueError):
        return None


def _write(directory: str, key: str, data: bytes, document) -> None:
    """Keep a load: written whole to a temporary file, then renamed into place."""
    temporary = os.path.join(directory, f".{key}.{os.getpid()}")
    count = (len(data) // 8).to_bytes(8, "little")
    if document is None:
        rest = b""
    else:
        import json

        rest = json.dumps(document, separators=(",", ":")).encode()
    crc = zlib.crc32(rest, zlib.crc32(data, zlib.crc32(count))).to_bytes(4, "little")
    try:
        with open(os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600), "wb") as fh:
            fh.write(_MAGIC + crc + count)
            fh.write(data)
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


def cached_load(file, spec: tuple, load):
    """``(key, floats, document)`` for the open ``file`` (None: no cache):
    as an earlier load of the same bytes under the same ``spec`` kept them,
    or as ``load(keep)`` gives them, as little-endian float64 bytes and a JSON
    document (None: the entry has none). ``load`` parses and checks the file,
    ``keep`` false when there is no cache; what it returns is kept, unless the
    file changed while it was read or its floats are None (there is nothing to
    keep), and what it raises is never kept. ``key`` is the digest the entry is
    kept under (None when there is no cache for this file), and ``floats`` a
    read-only memoryview of doubles, or None as ``load`` gave it."""
    key = None
    try:
        if file is not None:
            fd = file.fileno()
            before = _stamp(fd)
            directory = _directory() if stat.S_ISREG(before[0]) else None
            if directory:
                key = _key(fd, spec)
                if _stamp(fd) != before:
                    key = None
    except OSError:
        key = None
    if key is not None:
        kept = _read(os.path.join(directory, key))
        if kept is not None:
            return (key, *kept)
    data, document = load(key is not None)
    if data is None:
        return key, None, document
    try:
        if key is not None and _stamp(fd) == before:
            _write(directory, key, data, document)
    except OSError:
        pass
    return key, _floats(data), document
