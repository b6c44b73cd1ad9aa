"""Benchmark harness for linforms: one workload per invocation.

    python3 bench/run.py --workload grid-sweep --seed 1 --seconds 38 --trace 0
    python3 bench/run.py --write-manifest      # regenerate BENCHMARK.json

Run from the root of a checkout.  The workload runs in rounds; each
round is a fresh Python process (bench/round.py) that imports the
checkout's linforms, generates the workload's inputs and runs its fixed
operations in the order the seed gives, as one client in a closed loop.
Rounds repeat until --seconds have passed (at least MIN_ROUNDS), and
every end-to-end time is the median over rounds or over the pooled
operations.  LINFORM_THREADS is removed from the environment and
NfConfig.threads is never set, so the program runs its default worker
count, which the run records.

Every answer is checked against bench/reference/<workload>.json.  The
last line on stdout is one JSON object: correct, attempted, failed and
the metrics, end-to-end with --trace 0 and per-layer with --trace 1.
With --trace 1 the rounds alternate between untraced and traced; the
per-layer metrics come from the traced rounds, and trace.overhead_s is
the difference of their median wall times.  A run record with the
provenance, every round and every failure is written to
.bench_work/BENCH_<workload>_seed<seed>_trace<trace>.json, and the
spans of each traced round beside it.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from tracer import COUNTS as LAYER_COUNTS  # noqa: E402
from tracer import METRICS as LAYER_METRICS  # noqa: E402

ROOT = Path.cwd()
WORK_DIR = ROOT / ".bench_work"

RUN_SECONDS = 38
MIN_ROUNDS = 3
#: A run must end within this many seconds, whatever --seconds says.
RUN_DEADLINE_S = 170
#: Tail percentiles tried from the top; the highest with >= 10 samples
#: beyond it (over MIN_ROUNDS rounds) is the workload's tail.
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 97.5, 95.0, 90.0, 80.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
ROUND_FIELDS = (
    "traced", "setup_s", "wall_s", "cpu_s", "maxrss_kb", "steal_s", "counts", "latencies_ms",
)

WORKLOAD_WHY = {
    "grid-sweep": "Converse scans, the five verify suites, maxima and spectra on m<=3, "
    "coefficients<=6, k<=5: hundreds of tiny compute_nf calls that repeat searches, so a "
    "result memo or pool removal shows here.",
    "nf-deep": "27 distinct compute_nf instances dominated by their main DFS (binary kernel "
    "at k=6, general at k=5): kernel speed and the thread pool show; a memo is predicted "
    "to change nothing.",
    "nf-cached": "In-process `linforms nf --cache --json` on a pre-filled, growing cache "
    "file: the only workload on the cache and CLI layers; every lookup replays the file.",
}

# name -> (unit, better, bound)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "wall_s": ("s", "lower", 0.25),
    "cpu_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.12),
    "ok_frac": ("ratio", "higher", 0.001),
    "query_p50_ms": ("ms", "lower", 0.25),
    "query_tail_ms": ("ms", "lower", 0.25),
}


def manifest() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOAD_WHY.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, (u, b, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": _layer_better(n)} for n, u in LAYER_METRICS.items()
        ],
    }


def _layer_better(name: str) -> str:
    if name.endswith((".hits", "nodes_per_s.binary", "nodes_per_s.general", "unique_frac")):
        return "higher"
    return "lower"


# -- running rounds ----------------------------------------------------------


class HarnessError(Exception):
    """The benchmark itself could not run (not a wrong answer)."""


def run_round(args, index: int, traced: bool, deadline: float) -> dict:
    tag = f"{args.workload}-s{args.seed}-t{args.trace}-r{index}"
    cmd = [
        sys.executable,
        str(BENCH_DIR / "round.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--trace", "1" if traced else "0",
        "--workdir", str(WORK_DIR),
        "--tag", tag,
    ]
    if args.tiny:
        cmd.append("--tiny")
    env = {k: v for k, v in os.environ.items() if k != "LINFORM_THREADS"}
    steal0 = steal_seconds()
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired:
        raise HarnessError(f"round {index} passed the {RUN_DEADLINE_S} s deadline") from None
    if proc.returncode != 0:
        raise HarnessError(f"round {index} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["ready"] - spawned
    out["traced"] = traced
    if steal0 is not None:
        out["steal_s"] = steal_seconds() - steal0
    return out


def run_rounds(args) -> list[dict]:
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    rounds: list[dict] = []
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        rounds.append(run_round(args, len(rounds), traced, deadline))
        untraced = sum(1 for r in rounds if not r["traced"])
        enough = (
            min(untraced, len(rounds) - untraced) >= 2 if args.trace else untraced >= MIN_ROUNDS
        )
        if enough and time.monotonic() - start >= args.seconds:
            return rounds


# -- checking ----------------------------------------------------------------


def op_key(op: list) -> str:
    """Key of an operation's stored answer (as workloads.op_key writes it)."""
    return json.dumps(op, separators=(",", ":"))


def check_answers(workload: str, rounds: list[dict]) -> tuple[int, int, list[dict]]:
    """(attempted, failed, failures) against the stored references."""
    ref = json.loads((BENCH_DIR / "reference" / f"{workload}.json").read_text("utf-8"))
    answers = ref["answers"]
    cause = ref.get("expected_failure_cause")
    attempted = failed = 0
    failures: list[dict] = []
    for r_index, rnd in enumerate(rounds):
        errors = {op_key(e["op"]): e["error"] for e in rnd["errors"]}
        for op, got in zip(rnd["ops"], rnd["answers"]):
            attempted += 1
            if got == answers[op_key(op)]:
                continue
            failed += 1
            failure = {"round": r_index, "op": op, "known": False}
            if got is None:
                failure["error"] = errors.get(op_key(op), "raised")
            elif op[0] == "cli-nf" and op[3] is not None:
                # The cache-key defect: the default-ladder record was served.
                if got == answers.get(op_key(op[:3] + [None])):
                    failure.update(known=True, cause=cause)
            failures.append(failure)
    return attempted, failed, failures


def consistency_problems(rounds: list[dict]) -> list[str]:
    """Answers and counts that differ between rounds at the same seed."""
    problems = []
    first = rounds[0]
    for i, rnd in enumerate(rounds[1:], start=1):
        if rnd["answers"] != first["answers"]:
            kind = "traced" if rnd["traced"] != first["traced"] else "repeated"
            problems.append(f"round {i} ({kind}) answers differ from round 0")
        if rnd["counts"] != first["counts"]:
            problems.append(f"round {i} counts {rnd['counts']} != round 0 {first['counts']}")
    traced = [r for r in rounds if r["traced"]]
    for r in traced[1:]:
        for name in LAYER_COUNTS:
            if r["layers"][name] != traced[0]["layers"][name]:
                problems.append(
                    f"{name} differs between traced rounds: "
                    f"{r['layers'][name]} != {traced[0]['layers'][name]}"
                )
    return problems


def source_digest() -> str:
    """Hash of the program and benchmark sources: counts may differ only if it does."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src" / "linforms").rglob("*.py")) + sorted(BENCH_DIR.rglob("*.py"))
    for path in files + sorted((BENCH_DIR / "reference").glob("*.json")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cross_run_problems(args, rounds: list[dict]) -> list[str]:
    """Compare the counts with an earlier run of the same sources and seed.

    The counts of the first run at a (workload, seed, size) are stored in
    the work directory; a later run of the same sources must repeat them.
    """
    path = WORK_DIR / f"counts_{args.workload}_seed{args.seed}{'_tiny' if args.tiny else ''}.json"
    now = {"source": source_digest(), "counts": rounds[0]["counts"]}
    traced = [r for r in rounds if r["traced"]]
    if traced:
        now["layers"] = {name: traced[0]["layers"][name] for name in LAYER_COUNTS}
    try:
        before = json.loads(path.read_text("utf-8"))
    except (OSError, ValueError):
        before = {}
    if before.get("source") != now["source"]:
        before = {"source": now["source"]}
    problems = [
        f"{key} differ from an earlier run at seed {args.seed}: {before[key]} != {now[key]}"
        for key in ("counts", "layers")
        if key in before and key in now and before[key] != now[key]
    ]
    path.write_text(json.dumps(before | now) + "\n", "utf-8")
    return problems


# -- metrics -----------------------------------------------------------------


def tail_percentile(n: int) -> float:
    for p in TAIL_PERCENTILES:
        if n - math.ceil(p / 100 * n) >= TAIL_MIN_BEYOND:
            return p
    return TAIL_PERCENTILES[-1]


def percentile(sorted_values: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above it."""
    idx = max(0, math.ceil(p / 100 * len(sorted_values)) - 1)
    value = sorted_values[idx]
    return value, len(sorted_values) - bisect.bisect_right(sorted_values, value)


def end_to_end(rounds: list[dict], ok_frac: float) -> tuple[dict, dict]:
    ops_per_round = len(rounds[0]["ops"])
    pooled = sorted(x for r in rounds for x in r["latencies_ms"])
    p = tail_percentile(ops_per_round * MIN_ROUNDS)
    tail, beyond = percentile(pooled, p)
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
        "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in rounds) / 1024,
        "ok_frac": ok_frac,
        "query_p50_ms": statistics.median(pooled),
        "query_tail_ms": tail,
    }
    tail_info = {"percentile": p, "samples": len(pooled), "beyond": beyond}
    return values, tail_info


def per_layer(rounds: list[dict]) -> dict:
    traced = [r for r in rounds if r["traced"]]
    values = {
        name: traced[0]["layers"][name]
        if name in LAYER_COUNTS
        else statistics.median(r["layers"][name] for r in traced)
        for name in LAYER_METRICS
        if name != "trace.overhead_s"
    }
    values["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - statistics.median(
        r["wall_s"] for r in rounds if not r["traced"]
    )
    return values


# -- provenance --------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def steal_seconds() -> float | None:
    """CPU time the hypervisor took from the CPUs of a virtual machine, if Linux reports it."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text("utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text("utf-8").strip()
        for line in (git / "packed-refs").read_text("utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(args, rounds: list[dict]) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "seed": args.seed,
        "workers": rounds[0]["workers"],
        "LINFORM_THREADS": "unset",
    }


# -- main --------------------------------------------------------------------


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=list(WORKLOAD_WHY))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test size: a few small operations")
    p.add_argument("--write-manifest", action="store_true", help="rewrite BENCHMARK.json")
    args = p.parse_args()

    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n", "utf-8")
        return 0
    if args.workload is None:
        p.error("--workload is required")
    if not (ROOT / "src" / "linforms" / "__init__.py").is_file():
        print(f"error: no linforms sources under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2

    WORK_DIR.mkdir(exist_ok=True)
    try:
        rounds = run_rounds(args)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted, failed, failures = check_answers(args.workload, rounds)
    problems = consistency_problems(rounds) + cross_run_problems(args, rounds)
    unknown = [f for f in failures if not f["known"]]
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "tiny": args.tiny,
        "provenance": provenance(args, rounds),
        "rounds": [
            {k: r.get(k) for k in ROUND_FIELDS}
            | ({"layers": r["layers"], "spans": r["spans"]} if r["traced"] else {})
            for r in rounds
        ],
        "ops_per_round": len(rounds[0]["ops"]),
        "counts": rounds[0]["counts"],
        "failures": failures,
        "consistency_problems": problems,
    }
    if args.trace:
        metrics = {n: {"value": v, "unit": LAYER_METRICS[n]} for n, v in per_layer(rounds).items()}
        record["wrapped_bindings"] = next(r for r in rounds if r["traced"])["wrapped"]
    else:
        values, tail_info = end_to_end(rounds, (attempted - failed) / attempted)
        metrics = {n: {"value": v, "unit": END_TO_END[n][0]} for n, v in values.items()}
        record["query_tail"] = tail_info
        if tail_info["beyond"] < TAIL_MIN_BEYOND and not args.tiny:
            problems.append(f"query tail has only {tail_info['beyond']} samples beyond it")
    correct = not unknown and not problems
    record["metrics"] = metrics
    record["correct"] = correct
    run_name = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (WORK_DIR / run_name).write_text(json.dumps(record, indent=1) + "\n", "utf-8")

    for problem in problems + [f"failed: {f}" for f in unknown]:
        print(f"check: {problem}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
