"""The benchmark workloads: fixed operation sets, how to run one
operation, and the answer fields that are checked against the stored
references.

Each workload is a fixed multiset of operations.  The seed only fixes
the order in which one client runs them (a closed loop), so every seed
does the same work and runs at different seeds are comparable.  An
operation's answer is reduced to its answer fields (values, brackets,
witnesses, findings), never node counts or timestamps; the node counts
are reported separately as deterministic counts.

Operations are plain JSON lists, so the same spec is the key of its
stored reference answer in ``reference/<workload>.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

import linforms
from linforms import cli
from linforms.forms import enumerate_normalized

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: Fixed timestamp of pre-filled cache records (they stand for answers
#: stored by an earlier run; the value is never compared).
PREFILL_TIMESTAMP = "2026-01-01T00:00:00+00:00"


def op_key(op: list) -> str:
    return json.dumps(op, separators=(",", ":"))


def _form(coeffs) -> linforms.LinearForm:
    return linforms.LinearForm(tuple(coeffs))


def _nf_answer(lower, best, exact, witnesses) -> dict:
    return {"lower": lower, "best": best, "exact": exact, "witnesses": witnesses}


# -- grid-sweep --------------------------------------------------------------

# (problem, m, coefficient bound, k) slices of `linforms scan`, and the
# bounds of the verify suites.  m=3 stops at coefficient 4 for k=5 so a
# round stays near three seconds.
GRID_SCANS = tuple(
    (p, m, c, k)
    for p in ("completeness", "ap-minimizers")
    for m, c, ks in ((2, 6, (2, 3, 4, 5)), (3, 5, (2, 3, 4)), (3, 4, (5,)))
    for k in ks
)
GRID_SUITE_BOUNDS = ((3, 4, 4), (2, 5, 5))
# Maxima and spectrum censuses, the search-free part of the toolkit.
# The operation count is odd (35), so the pooled median latency falls
# inside one operation's samples rather than in the gap between two.
# (1,2,3,4,5,6) at k=6 enumerates 26,426 composition vectors (twice:
# once directly, once in the image() witness check) and sets the peak RSS.
GRID_MAXIMA = (((1, 2, 3, 4), 8), ((1, 2, 3, 4, 5), 6), ((1, 2, 3, 4, 5, 6), 6))
GRID_SPECTRA = (
    ((1, 2), 6, None), ((1, 3), 6, None), ((2, 3), 5, None), ((1, 1, 2), 5, None),
    ((1, 2, 3), 4, None), ((1, 2, 3, 4), 4, None),
)


def _grid_ops(tiny: bool) -> list[list]:
    if tiny:
        scans = [["scan", p, 2, 3, k] for p in ("completeness", "ap-minimizers") for k in (2, 3)]
        return scans + [
            ["verify", "thm31", 2, 3, 3],
            ["verify", "lem32", 3, 3, 2],
            ["mf", [1, 2, 3, 4], 6],
            ["spectrum", [1, 3], 4, None],
        ]
    ops = [["scan", *s] for s in GRID_SCANS]
    ops += [["verify", s, *b] for b in GRID_SUITE_BOUNDS for s in linforms.SUITES]
    ops += [["mf", list(c), k] for c, k in GRID_MAXIMA]
    return ops + [["spectrum", list(c), k, d] for c, k, d in GRID_SPECTRA]


def _grid_run(op: list, ctx: dict) -> tuple[object, dict]:
    if op[0] == "scan":
        _, problem, m, c, k = op
        runner = (
            linforms.scan_completeness_converse
            if problem == "completeness"
            else linforms.scan_ap_minimizer_converse
        )
        findings = runner(m, c, k)
        return [x.to_json() for x in findings], {"findings": len(findings)}
    if op[0] == "verify":
        _, suite, max_m, max_coeff, max_k = op
        rep = linforms.verify_suite(suite, linforms.SuiteBounds(max_m, max_coeff, max_k))
        answer = {"checked": rep.checked, "mismatches": list(rep.mismatches), "passed": rep.passed}
        return answer, {"checked": rep.checked}
    if op[0] == "mf":
        _, coeffs, k = op
        res = linforms.compute_mf(_form(coeffs), k)
        return {"value": res.value, "witness": list(res.witness)}, {"mf_value": res.value}
    _, coeffs, k, diameter = op
    rep = linforms.spectrum(_form(coeffs), k, diameter=diameter)
    answer = {
        "values": list(rep.values),
        "census": [list(p) for p in rep.census],
        "mf_value": rep.mf_value,
    }
    return answer, {"classes": sum(c for _, c in rep.census)}


# -- nf-deep -----------------------------------------------------------------

# Every instance is distinct and each is dominated by its main DFS:
# two-variable forms at k=6 use the binary kernel, three- and
# four-variable forms at k=5 the general one.
NF_DEEP_BINARY = (
    (1, 6), (1, 7), (1, 8), (1, 9), (1, 10), (1, 11),
    (2, 5), (3, 4), (3, 5), (4, 5),
)
NF_DEEP_GENERAL = (
    (1, 5, 5), (1, 5, 6), (1, 6, 6), (1, 6, 7),
    (2, 2, 7), (2, 5, 6), (2, 5, 7), (2, 6, 7),
    (3, 3, 5), (3, 4, 5), (3, 4, 7), (3, 5, 7),
    (4, 4, 5), (4, 5, 6),
    (1, 4, 4, 4), (3, 3, 3, 4), (3, 4, 4, 4),
)


def _nf_deep_ops(tiny: bool) -> list[list]:
    if tiny:
        return [["nf", [1, 5], 6], ["nf", [2, 3, 5], 5], ["nf", [1, 3, 4, 4], 5]]
    ops = [["nf", list(c), 6] for c in NF_DEEP_BINARY]
    return ops + [["nf", list(c), 5] for c in NF_DEEP_GENERAL]


def _nf_deep_run(op: list, ctx: dict) -> tuple[object, dict]:
    _, coeffs, k = op
    res = linforms.compute_nf(_form(coeffs), k)
    answer = _nf_answer(res.lower, res.best, res.exact, [list(w.elems) for w in res.witnesses])
    return answer, {"nodes": res.nodes_explored}


# -- nf-cached ---------------------------------------------------------------

# U: the (m in {2,3}, coefficients <= 5, k in {4,5}) instances.  Each is
# requested once at the default ladder and once with --ladder 2; the
# cache key omits the ladder depth, so a --ladder 2 request is served
# the pre-filled default-ladder record, whose `lower` differs on 16 of
# them.  Those mismatches are the program's, counted as failed.
def _cached_u() -> list[tuple[list[int], int]]:
    return [
        (list(f.coeffs), k) for m in (2, 3) for f in enumerate_normalized(m, 5) for k in (4, 5)
    ]


def _cached_filler() -> list[tuple[list[int], int]]:
    keys = [(list(f.coeffs), k) for f in enumerate_normalized(4, 5) for k in (2, 3)]
    keys += [(list(f.coeffs), k) for f in enumerate_normalized(3, 5) for k in (2, 3)]
    keys += [(list(f.coeffs), k) for f in enumerate_normalized(2, 5) for k in (2, 3, 6)]
    return keys


# Keys absent from the pre-filled file: the first request computes and
# appends, the second is served from the appended record.
CACHED_MISSES = (
    ((1, 6), 4), ((5, 6), 4), ((1, 7), 4), ((2, 7), 4), ((3, 7), 4), ((4, 7), 4),
    ((1, 6), 5), ((5, 6), 5),
    ((1, 1, 6), 4), ((1, 2, 6), 4), ((1, 3, 6), 4), ((1, 4, 6), 4),
    ((1, 5, 6), 4), ((2, 3, 6), 4), ((2, 5, 6), 4), ((3, 4, 6), 4),
)


def cached_plan(tiny: bool) -> tuple[list[list], list[list]]:
    """(operations, pre-filled keys) for nf-cached."""
    if tiny:
        u = [([1, 4], 5), ([2, 5], 4), ([1, 2, 4], 4)]
        prefill = u + [([1, 2, 3, 4], 2), ([1, 3], 2)]
        misses = [([1, 6], 4)]
    else:
        u = _cached_u()
        prefill = u + _cached_filler()
        misses = [(list(c), k) for c, k in CACHED_MISSES]
    ops = [["cli-nf", c, k, None] for c, k in prefill]
    ops += [["cli-nf", c, k, 2] for c, k in u]
    ops += [["cli-nf", c, k, None] for c, k in misses for _ in range(2)]
    return ops, [["cli-nf", c, k, None] for c, k in prefill]


def _cached_ops(tiny: bool) -> list[list]:
    return cached_plan(tiny)[0]


def prefill_lines(prefill: list[list], answers: dict) -> str:
    """Cache lines for the pre-filled keys, built from stored answers."""
    lines = []
    for op in prefill:
        _, coeffs, k, _ = op
        ans = answers[op_key(op)]
        rec = {
            "coeffs": coeffs,
            "k": k,
            "diameter": sum(coeffs) * (k - 1),
            **ans,
            "timestamp": PREFILL_TIMESTAMP,
            "tool_version": linforms.__version__,
        }
        lines.append(json.dumps(rec) + "\n")
    return "".join(lines)


def cli_args(op: list, cache_path: str | None) -> list[str]:
    _, coeffs, k, ladder = op
    argv = ["nf", "--coeffs", ",".join(map(str, coeffs)), "--k", str(k), "--json"]
    if ladder is not None:
        argv += ["--ladder", str(ladder)]
    if cache_path is not None:
        argv += ["--cache", cache_path]
    return argv


def run_cli_nf(op: list, cache_path: str | None) -> dict:
    """One in-process `linforms nf ... --json` call; its answer fields."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(cli_args(op, cache_path))
    if code != 0:
        raise RuntimeError(f"linforms nf exited {code}")
    rec = json.loads(out.getvalue())
    return _nf_answer(rec["lower"], rec["best"], rec["exact"], rec["witnesses"])


def _cached_setup(ctx: dict, tiny: bool) -> None:
    _, prefill = cached_plan(tiny)
    answers = load_reference("nf-cached")["answers"]
    path = Path(ctx["workdir"]) / f"nf-cache-{ctx['tag']}.jsonl"
    path.write_text(prefill_lines(prefill, answers), encoding="utf-8")
    ctx["cache_path"] = str(path)


def _cached_run(op: list, ctx: dict) -> tuple[object, dict]:
    return run_cli_nf(op, ctx["cache_path"]), {}


def _cached_finish(ctx: dict) -> dict:
    path = Path(ctx["cache_path"])
    counts = {"cache_bytes": path.stat().st_size}
    with open(path, encoding="utf-8") as fh:
        counts["cache_lines"] = sum(1 for _ in fh)
    return counts


# -- registry ----------------------------------------------------------------


class Workload:
    def __init__(self, name, ops, run, setup=None, finish=None):
        self.name = name
        self.ops = ops
        self.run = run
        self.setup = setup
        self.finish = finish

    def ordered_ops(self, seed: int, tiny: bool) -> list[list]:
        ops = self.ops(tiny)
        random.Random(seed).shuffle(ops)
        return ops


# Why each workload exists is stated in run.py (WORKLOAD_WHY) and
# bench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("grid-sweep", _grid_ops, _grid_run),
        Workload("nf-deep", _nf_deep_ops, _nf_deep_run),
        Workload(
            "nf-cached", _cached_ops, _cached_run, setup=_cached_setup, finish=_cached_finish
        ),
    )
}


def load_reference(name: str) -> dict:
    with open(REFERENCE_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)

