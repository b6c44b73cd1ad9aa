"""Spans around calls into linforms' public functions, and the per-layer
metrics derived from them.

The tracer lives in the benchmark, not the program: it replaces every
module attribute of the ``linforms`` package that is bound to a traced
function (``explorer.compute_nf`` and ``cli.compute_nf`` as well as
``engine.compute_nf``), so calls that reach a function through any
import are recorded.  Spans are kept in memory and written out when the
round ends.  The traced functions are only called from the main thread,
so one span stack suffices.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path

# (home module, function, span name)
TRACED = (
    ("engine", "search_min", "engine.search_min"),
    ("engine", "compute_nf", "engine.compute_nf"),
    ("engine", "compute_mf", "engine.compute_mf"),
    ("sets", "composition_vectors", "sets.composition_vectors"),
    ("sets", "image", "sets.image"),
    ("sets", "image_mask", "sets.image_mask"),
    ("explorer", "scan_completeness_converse", "explorer.scan"),
    ("explorer", "scan_ap_minimizer_converse", "explorer.scan"),
    ("explorer", "spectrum", "explorer.spectrum"),
    ("theory", "verify_suite", "theory.verify_suite"),
    ("cache", "lookup", "cache.lookup"),
    ("cache", "load_records", "cache.load_records"),
    ("cache", "append_record", "cache.append_record"),
    ("cli", "main", "cli.main"),
)

# Spans whose process CPU time is taken too (for waiting = wall - CPU).
_CPU_SPANS = {"engine.search_min"}

# Per-layer metrics: name -> unit.  Order is the print order.
METRICS = {
    "engine.search_min.calls": "count",
    "engine.search_min.unique_frac": "ratio",
    "engine.search_min.s": "s",
    "engine.search_min.wait_s": "s",
    "engine.nodes.binary": "count",
    "engine.nodes.general": "count",
    "engine.nodes_per_s.binary": "1/s",
    "engine.nodes_per_s.general": "1/s",
    "engine.compute_nf.calls": "count",
    "engine.compute_nf.rung_s": "s",
    "engine.compute_nf.main_s": "s",
    "engine.compute_nf.self_s": "s",
    "engine.compute_mf.calls": "count",
    "engine.compute_mf.self_s": "s",
    "sets.composition_vectors.calls": "count",
    "sets.composition_vectors.vectors": "count",
    "sets.composition_vectors.s": "s",
    "sets.image.calls": "count",
    "sets.image.s": "s",
    "sets.image_mask.calls": "count",
    "sets.image_mask.s": "s",
    "explorer.scan.calls": "count",
    "explorer.scan.findings": "count",
    "explorer.scan.self_s": "s",
    "explorer.spectrum.calls": "count",
    "explorer.spectrum.classes": "count",
    "explorer.spectrum.self_s": "s",
    "theory.verify_suite.calls": "count",
    "theory.verify_suite.checked": "count",
    "theory.verify_suite.self_s": "s",
    "cache.lookup.calls": "count",
    "cache.lookup.hits": "count",
    "cache.lookup.s": "s",
    "cache.load_records.records": "count",
    "cache.append_record.calls": "count",
    "cache.append_record.s": "s",
    "cache.file_bytes": "B",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}

#: Metrics that are deterministic at a fixed seed and must repeat exactly.
COUNTS = tuple(
    name
    for name, unit in METRICS.items()
    if unit in ("count", "B") or name == "engine.search_min.unique_frac"
)


class Span:
    __slots__ = ("id", "parent", "op", "name", "t0", "t1", "cpu", "info")

    def __init__(self, sid, parent, op, name, t0):
        self.id = sid
        self.parent = parent
        self.op = op
        self.name = name
        self.t0 = t0
        self.t1 = t0
        self.cpu = None
        self.info = None

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "op": self.op,
            "name": self.name,
            "start": self.t0,
            "end": self.t1,
            "cpu": self.cpu,
            "info": self.info,
        }


def _search_info(args, kwargs, out) -> dict:
    f, k, diameter = args[:3]
    known = kwargs.get("known")
    key = (
        f.coeffs,
        k,
        diameter,
        kwargs.get("prune_at"),
        tuple(sorted(known.items())) if known else None,
        kwargs.get("witness_cap"),
        kwargs.get("threads"),
        kwargs.get("node_budget"),
    )
    return {"key": repr(key), "m": f.m, "nodes": out.nodes}


def _info(name, args, kwargs, out):
    """Counts taken from a traced call's arguments and result."""
    if name == "engine.search_min":
        return _search_info(args, kwargs, out)
    if name == "sets.composition_vectors":
        return {"vectors": len(out)}
    if name == "explorer.scan":
        return {"findings": len(out)}
    if name == "explorer.spectrum":
        return {"classes": sum(c for _, c in out.census)}
    if name == "theory.verify_suite":
        return {"checked": out.checked}
    if name == "cache.lookup":
        return {"hit": out is not None}
    if name == "cache.load_records":
        return {"records": len(out)}
    return None


class Tracer:
    """Collects spans for one round; ``op`` tags spans with the operation."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op = None
        self.wrapped: dict[str, list[str]] = {}

    def _wrap(self, fn, name):
        spans, stack = self.spans, self.stack
        want_cpu = name in _CPU_SPANS
        clock, cpu_clock = time.perf_counter, time.process_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(spans), stack[-1] if stack else None, self.op, name, clock())
            spans.append(span)
            stack.append(span.id)
            c0 = cpu_clock() if want_cpu else 0.0
            try:
                out = fn(*args, **kwargs)
            finally:
                span.t1 = clock()
                if want_cpu:
                    span.cpu = cpu_clock() - c0
                stack.pop()
            span.info = _info(name, args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Replace every binding of each traced function in the package."""
        modules = {
            mod_name: mod
            for mod_name, mod in list(sys.modules.items())
            if mod is not None and (mod_name == "linforms" or mod_name.startswith("linforms."))
        }
        for home, attr, name in TRACED:
            original = getattr(modules[f"linforms.{home}"], attr)
            traced = self._wrap(original, name)
            for mod_name, mod in modules.items():
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, binding, traced)
                        self.wrapped.setdefault(f"{home}.{attr}", []).append(
                            f"{mod_name}.{binding}"
                        )

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json()) + "\n")

    def metrics(self, cache_path: str | None) -> dict:
        """Per-layer metrics of this round (all but trace.overhead_s)."""
        spans = self.spans
        children: dict[int, list[Span]] = {}
        for s in spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)

        def dur(s: Span) -> float:
            return s.t1 - s.t0

        def self_time(s: Span) -> float:
            return dur(s) - sum(dur(c) for c in children.get(s.id, ()))

        def named(name: str) -> list[Span]:
            return [s for s in spans if s.name == name]

        def info_sum(name: str, field: str) -> int:
            return sum(s.info[field] for s in named(name))

        out: dict[str, float] = {}
        search = named("engine.search_min")
        out["engine.search_min.calls"] = len(search)
        out["engine.search_min.unique_frac"] = (
            len({s.info["key"] for s in search}) / len(search) if search else 0.0
        )
        out["engine.search_min.s"] = sum(dur(s) for s in search)
        out["engine.search_min.wait_s"] = sum(dur(s) - s.cpu for s in search)
        for kernel, is_binary in (("binary", True), ("general", False)):
            mine = [s for s in search if (s.info["m"] == 2) == is_binary]
            nodes = sum(s.info["nodes"] for s in mine)
            busy = sum(dur(s) for s in mine)
            out[f"engine.nodes.{kernel}"] = nodes
            out[f"engine.nodes_per_s.{kernel}"] = nodes / busy if busy > 0 else 0.0

        nf = named("engine.compute_nf")
        rung = main = 0.0
        for s in nf:
            searches = sorted(
                (c for c in children.get(s.id, ()) if c.name == "engine.search_min"),
                key=lambda c: c.t0,
            )
            if searches:
                main += dur(searches[-1])
                rung += sum(dur(c) for c in searches[:-1])
        out["engine.compute_nf.calls"] = len(nf)
        out["engine.compute_nf.rung_s"] = rung
        out["engine.compute_nf.main_s"] = main
        out["engine.compute_nf.self_s"] = sum(self_time(s) for s in nf)

        mf = named("engine.compute_mf")
        out["engine.compute_mf.calls"] = len(mf)
        out["engine.compute_mf.self_s"] = sum(self_time(s) for s in mf)

        cv = named("sets.composition_vectors")
        out["sets.composition_vectors.calls"] = len(cv)
        out["sets.composition_vectors.vectors"] = info_sum("sets.composition_vectors", "vectors")
        out["sets.composition_vectors.s"] = sum(dur(s) for s in cv)
        for name in ("sets.image", "sets.image_mask"):
            mine = named(name)
            out[f"{name}.calls"] = len(mine)
            out[f"{name}.s"] = sum(dur(s) for s in mine)

        scans = named("explorer.scan")
        out["explorer.scan.calls"] = len(scans)
        out["explorer.scan.findings"] = info_sum("explorer.scan", "findings")
        out["explorer.scan.self_s"] = sum(self_time(s) for s in scans)
        spec = named("explorer.spectrum")
        out["explorer.spectrum.calls"] = len(spec)
        out["explorer.spectrum.classes"] = info_sum("explorer.spectrum", "classes")
        out["explorer.spectrum.self_s"] = sum(self_time(s) for s in spec)

        suites = named("theory.verify_suite")
        out["theory.verify_suite.calls"] = len(suites)
        out["theory.verify_suite.checked"] = info_sum("theory.verify_suite", "checked")
        out["theory.verify_suite.self_s"] = sum(self_time(s) for s in suites)

        lookups = named("cache.lookup")
        out["cache.lookup.calls"] = len(lookups)
        out["cache.lookup.hits"] = sum(1 for s in lookups if s.info["hit"])
        out["cache.lookup.s"] = sum(dur(s) for s in lookups)
        out["cache.load_records.records"] = info_sum("cache.load_records", "records")
        appends = named("cache.append_record")
        out["cache.append_record.calls"] = len(appends)
        out["cache.append_record.s"] = sum(dur(s) for s in appends)
        out["cache.file_bytes"] = os.path.getsize(cache_path) if cache_path else 0

        mains = named("cli.main")
        out["cli.main.calls"] = len(mains)
        out["cli.main.self_s"] = sum(self_time(s) for s in mains)
        return out
