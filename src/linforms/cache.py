"""Append-only JSON-lines result cache for minimum computations.

One line per record, keyed by (coeffs, k, diameter).  A record is the
JSON object of its line: the `nf --json` answer without `certificate`
and `nodes`, then `timestamp` and `tool_version`.  Appends take an
advisory exclusive lock so concurrent runs interleave whole lines;
lookups let the latest record for a key win and skip records written
by another tool version.  Corrupt lines are skipped with a warning on
stderr: an interrupted append must never poison earlier results.

Each process indexes a file once and reads it again only when its
device, inode, size or modification time changes, whether through an
append of its own, another writer or a truncation.  The index keeps the
bytes it has indexed, through the last newline (about the file's size).
When the file read again starts with them, only the whole lines after
them are parsed, so an append costs only its own lines; otherwise
(truncation, rewrite in place, replacement) the index is rebuilt from
the whole file.  A last line with no newline yet is parsed on every
re-read, as a full pass would parse it, but never kept.
"""

from __future__ import annotations

import fcntl
import json
import os
import sys
from collections.abc import Iterable, Iterator
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

from . import __version__
from .engine import ExtremalResult

#: A record's fields in file order, each with its JSON type: a Python
#: type (an int is never a bool), or [kind] for a list of that kind.
_FIELDS = {
    "coeffs": [int],
    "k": int,
    "diameter": int,
    "lower": int,
    "best": int,
    "exact": bool,
    "witnesses": [[int]],
    "timestamp": str,
    "tool_version": str,
}

CacheKey = tuple[tuple[int, ...], int, int]


def record_from_result(res: ExtremalResult) -> dict:
    """An engine result's cache record, stamped with the current UTC time."""
    fields = {
        **res.to_json(),
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "tool_version": __version__,
    }
    return {name: fields[name] for name in _FIELDS}


def _checked(name: str, value, kind):
    """value if it has the JSON type `kind` (see _FIELDS); else ValueError."""
    t = list if isinstance(kind, list) else kind
    if not isinstance(value, t) or (t is int and isinstance(value, bool)):
        raise ValueError(f"cache field {name} is not {t.__name__}: {value!r}")
    if t is list:
        for item in value:
            _checked(name, item, kind[0])
    return value


def record_from_json(obj: object) -> dict:
    """Parse one cache line; raises on shape violations (caller skips).

    The line must be a JSON object.  The record holds the fields of
    _FIELDS in file order, taken as they are, never coerced; any other
    key is dropped.
    """
    if not isinstance(obj, dict):
        raise ValueError("cache record is not a JSON object")
    if not all(name in obj for name in _FIELDS):
        raise ValueError(f"cache record missing fields: {sorted(set(_FIELDS) - set(obj))}")
    return {name: _checked(name, obj[name], kind) for name, kind in _FIELDS.items()}


def append_record(path: str | Path, record: dict) -> None:
    """Append one record under an advisory exclusive lock.

    A file that does not end in a newline (an interrupted append) gets
    one first, so the record starts a line of its own.
    """
    line = (json.dumps(record) + "\n").encode("utf-8")
    with open(path, "ab+") as fh:
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
        try:
            size = fh.seek(0, os.SEEK_END)
            if size:
                fh.seek(size - 1)
                if fh.read(1) != b"\n":
                    line = b"\n" + line
            fh.write(line)
            fh.flush()
        finally:
            fcntl.flock(fh.fileno(), fcntl.LOCK_UN)


def _parse_lines(p: Path, lines: list[bytes], first_lineno: int) -> Iterator[dict]:
    """Records of `lines` in order, the first numbered `first_lineno`.

    Blank lines are skipped; corrupt ones (bad UTF-8, bad or too deeply
    nested JSON, wrong shape) are skipped with a warning on stderr.
    """
    for lineno, raw in enumerate(lines, start=first_lineno):
        try:
            text = raw.decode("utf-8").strip()
            if not text:
                continue
            rec = record_from_json(json.loads(text))
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            print(f"warning: {p}:{lineno}: skipping corrupt cache line ({exc})", file=sys.stderr)
            continue
        yield rec


def _index_records(index: dict[CacheKey, dict], records: Iterable[dict]) -> None:
    """Let each current-version record win its key over earlier ones."""
    for rec in records:
        if rec["tool_version"] == __version__:
            index[tuple(rec["coeffs"]), rec["k"], rec["diameter"]] = rec


def load_records(path: str | Path) -> list[dict]:
    """All parseable records in file order; corrupt lines are skipped."""
    p = Path(path)
    if not p.exists():
        return []
    return list(_parse_lines(p, p.read_bytes().splitlines(), 1))


class _Index(NamedTuple):
    """What one process knows of one cache file."""

    stamp: tuple[int, int, int, int]  # (dev, ino, size, mtime_ns) when read
    kept: bytes  # the bytes indexed, through the last newline
    lines: int  # number of lines in `kept`
    records: dict[CacheKey, dict]  # latest current-version record per key in `kept`
    view: dict[CacheKey, dict]  # `records` updated with an unterminated last line


_indexes: dict[str, _Index] = {}


def _read_index(path: str | Path, stamp: tuple[int, int, int, int], old: _Index | None) -> _Index:
    """The index of the file now; extends `old` when the file starts with its bytes."""
    p = Path(path)
    data = p.read_bytes()
    end = data.rfind(b"\n") + 1
    if old is not None and data.startswith(old.kept):
        records, lines = old.records, old.lines
        new = data[len(old.kept) : end].splitlines()
    else:
        records, lines = {}, 0
        new = data[:end].splitlines()
    _index_records(records, _parse_lines(p, new, lines + 1))
    lines += len(new)
    view = records
    tail = data[end:].splitlines()
    if tail:
        view = dict(records)
        _index_records(view, _parse_lines(p, tail, lines + 1))
    return _Index(stamp, data[:end], lines, records, view)


def lookup(
    path: str | Path, coeffs: tuple[int, ...], k: int, diameter: int
) -> dict | None:
    """Latest record for (coeffs, k, diameter) written by this version, if any.

    The record is the index's own: callers must not mutate it.
    """
    try:
        st = os.stat(path)
    except FileNotFoundError:
        return None
    stamp = (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns)
    name = os.fspath(path)
    index = _indexes.get(name)
    if index is None or index.stamp != stamp:
        # Stamped before reading: a write racing the read changes the
        # stamp, so the next lookup reads the file again.
        index = _indexes[name] = _read_index(path, stamp, index)
    return index.view.get((coeffs, k, diameter))
