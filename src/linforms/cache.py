"""Append-only JSON-lines result cache for minimum computations.

One line per record, keyed by (coeffs, k, diameter).  Appends take an
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
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

from . import __version__
from .engine import ExtremalResult

_FIELDS = ("coeffs", "k", "diameter", "lower", "best", "exact", "witnesses", "timestamp", "tool_version")

CacheKey = tuple[tuple[int, ...], int, int]


@dataclass(frozen=True)
class CacheRecord:
    """One cached minimum computation."""

    coeffs: tuple[int, ...]
    k: int
    diameter: int
    lower: int
    best: int
    exact: bool
    witnesses: tuple[tuple[int, ...], ...]
    timestamp: str
    tool_version: str

    @property
    def key(self) -> CacheKey:
        return (self.coeffs, self.k, self.diameter)

    def to_json(self) -> dict:
        return {
            "coeffs": list(self.coeffs),
            "k": self.k,
            "diameter": self.diameter,
            "lower": self.lower,
            "best": self.best,
            "exact": self.exact,
            "witnesses": [list(w) for w in self.witnesses],
            "timestamp": self.timestamp,
            "tool_version": self.tool_version,
        }


def record_from_result(res: ExtremalResult) -> CacheRecord:
    """Freeze an engine result into a cache record, stamped with the current UTC time."""
    return CacheRecord(
        coeffs=res.form.coeffs,
        k=res.k,
        diameter=res.diameter_searched,
        lower=res.lower,
        best=res.best,
        exact=res.exact,
        witnesses=tuple(w.elems for w in res.witnesses),
        timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        tool_version=__version__,
    )


def _typed(name: str, value, kind: type):
    """value if it is a kind (for int, one that is not a bool); else ValueError."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValueError(f"cache field {name} is not {kind.__name__}: {value!r}")
    return value


def _ints(name: str, value) -> tuple[int, ...]:
    """A list of ints as a tuple; anything else is a ValueError."""
    return tuple(_typed(name, u, int) for u in _typed(name, value, list))


def record_from_json(obj: dict) -> CacheRecord:
    """Parse one cache line; raises on shape violations (caller skips).

    Fields are taken as they are, never coerced: ints (not bools) for
    the integers, lists of them for coeffs and each witness, a bool for
    exact and strings for timestamp and tool_version.
    """
    if not all(name in obj for name in _FIELDS):
        raise ValueError(f"cache record missing fields: {sorted(set(_FIELDS) - set(obj))}")
    return CacheRecord(
        coeffs=_ints("coeffs", obj["coeffs"]),
        k=_typed("k", obj["k"], int),
        diameter=_typed("diameter", obj["diameter"], int),
        lower=_typed("lower", obj["lower"], int),
        best=_typed("best", obj["best"], int),
        exact=_typed("exact", obj["exact"], bool),
        witnesses=tuple(_ints("witnesses", w) for w in _typed("witnesses", obj["witnesses"], list)),
        timestamp=_typed("timestamp", obj["timestamp"], str),
        tool_version=_typed("tool_version", obj["tool_version"], str),
    )


def append_record(path: str | Path, record: CacheRecord) -> None:
    """Append one record under an advisory exclusive lock.

    A file that does not end in a newline (an interrupted append) gets
    one first, so the record starts a line of its own.
    """
    line = (json.dumps(record.to_json()) + "\n").encode("utf-8")
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


def _parse_lines(p: Path, lines: list[bytes], first_lineno: int) -> Iterator[CacheRecord]:
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


def _index_records(index: dict[CacheKey, CacheRecord], records: Iterable[CacheRecord]) -> None:
    """Let each current-version record win its key over earlier ones."""
    for rec in records:
        if rec.tool_version == __version__:
            index[rec.key] = rec


def load_records(path: str | Path) -> list[CacheRecord]:
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
    records: dict[CacheKey, CacheRecord]  # latest current-version record per key in `kept`
    view: dict[CacheKey, CacheRecord]  # `records` updated with an unterminated last line


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
) -> CacheRecord | None:
    """Latest record for (coeffs, k, diameter) written by this version, if any."""
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
