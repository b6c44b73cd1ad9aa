"""Append-only JSON-lines result cache for minimum computations.

One line per record, keyed by (coeffs, k, diameter).  Appends take an
advisory exclusive lock so concurrent runs interleave whole lines;
lookups let the latest record for a key win and skip records written
by another tool version.  Corrupt lines are skipped with a warning on
stderr: an interrupted append must never poison earlier results.

Each process indexes a file once and reads it again only when its
device, inode, size or modification time changes, whether through an
append of its own, another writer or a truncation.
"""

from __future__ import annotations

import fcntl
import json
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

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


def record_from_result(res: ExtremalResult, timestamp: str | None = None) -> CacheRecord:
    """Freeze an engine result into a cache record."""
    if timestamp is None:
        timestamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return CacheRecord(
        coeffs=res.form.coeffs,
        k=res.k,
        diameter=res.diameter_searched,
        lower=res.lower,
        best=res.best,
        exact=res.exact,
        witnesses=tuple(w.elems for w in res.witnesses),
        timestamp=timestamp,
        tool_version=__version__,
    )


def record_from_json(obj: dict) -> CacheRecord:
    """Parse one cache line; raises on shape violations (caller skips)."""
    if not all(name in obj for name in _FIELDS):
        raise ValueError(f"cache record missing fields: {sorted(set(_FIELDS) - set(obj))}")
    return CacheRecord(
        coeffs=tuple(int(u) for u in obj["coeffs"]),
        k=int(obj["k"]),
        diameter=int(obj["diameter"]),
        lower=int(obj["lower"]),
        best=int(obj["best"]),
        exact=bool(obj["exact"]),
        witnesses=tuple(tuple(int(x) for x in w) for w in obj["witnesses"]),
        timestamp=str(obj["timestamp"]),
        tool_version=str(obj["tool_version"]),
    )


def append_record(path: str | Path, record: CacheRecord) -> None:
    """Append one record under an advisory exclusive lock."""
    line = json.dumps(record.to_json()) + "\n"
    with open(path, "a", encoding="utf-8") as fh:
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
        try:
            fh.write(line)
            fh.flush()
        finally:
            fcntl.flock(fh.fileno(), fcntl.LOCK_UN)


def load_records(path: str | Path) -> list[CacheRecord]:
    """All parseable records in file order; corrupt lines are skipped."""
    p = Path(path)
    if not p.exists():
        return []
    records: list[CacheRecord] = []
    with open(p, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(record_from_json(json.loads(line)))
            except (ValueError, KeyError, TypeError) as exc:
                print(f"warning: {p}:{lineno}: skipping corrupt cache line ({exc})", file=sys.stderr)
    return records


# path -> (file stamp when read, latest current-version record per key)
_indexes: dict[str, tuple[tuple[int, int, int, int], dict[CacheKey, CacheRecord]]] = {}


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
    entry = _indexes.get(name)
    if entry is None or entry[0] != stamp:
        # Stamped before reading: a write racing the read changes the
        # stamp, so the next lookup reads the file again.
        index = {rec.key: rec for rec in load_records(path) if rec.tool_version == __version__}
        entry = _indexes[name] = (stamp, index)
    return entry[1].get((coeffs, k, diameter))
