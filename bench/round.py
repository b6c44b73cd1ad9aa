"""One round of a workload in a fresh process (started by run.py).

A round is what a user's process does: import linforms, generate the
inputs, then run the workload's fixed operations one after another.
Every round starts from a fresh interpreter, so no state of the
program (memo, pool, open file) carries over from an earlier round.

Prints one JSON object on stdout: the time at which the inputs were
ready (for setup_s, measured by the parent from process start), the
timed phase's wall and CPU time, each operation's latency and answer,
the peak RSS, the deterministic counts and, when traced, the per-layer
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def peak_rss_kb() -> int:
    """Peak resident set of this process since it started its program.

    ru_maxrss also keeps the resident size of the process that spawned
    this one at the moment of the spawn, so a growing benchmark parent
    would leak into it; VmHWM counts only this program's own memory.
    """
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--workdir", required=True)
    p.add_argument("--tag", required=True)
    args = p.parse_args()

    import linforms
    import workloads
    from linforms import engine

    if not Path(linforms.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported linforms from {linforms.__file__}, not from this checkout")

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    workload = workloads.WORKLOADS[args.workload]
    ops = workload.ordered_ops(args.seed, args.tiny)
    ctx = {"workdir": args.workdir, "tag": args.tag}
    if workload.setup is not None:
        workload.setup(ctx, args.tiny)
    ready = time.monotonic()

    latencies, answers, errors = [], [], []
    counts: dict[str, int] = {}
    clock = time.perf_counter
    cpu0, wall0 = time.process_time(), clock()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t0 = clock()
        try:
            answer, extra = workload.run(op, ctx)
        except Exception as exc:  # a raised error is a failed operation, not a crash
            answer, extra = None, {}
            errors.append({"op": op, "error": f"{type(exc).__name__}: {exc}"})
        latencies.append((clock() - t0) * 1e3)
        answers.append(answer)
        for name, value in extra.items():
            counts[name] = counts.get(name, 0) + value
    wall, cpu = clock() - wall0, time.process_time() - cpu0

    if workload.finish is not None:
        counts.update(workload.finish(ctx))
    result = {
        "ready": ready,
        "wall_s": wall,
        "cpu_s": cpu,
        "maxrss_kb": peak_rss_kb(),
        "ops": ops,
        "latencies_ms": latencies,
        "answers": answers,
        "errors": errors,
        "counts": counts,
        "workers": engine._thread_count(None) if hasattr(engine, "_thread_count") else None,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(ctx.get("cache_path"))
        result["wrapped"] = tracer.wrapped
        spans_path = Path(args.workdir) / f"spans-{args.tag}.jsonl"
        tracer.write(spans_path)
        result["spans"] = str(spans_path)
    if "cache_path" in ctx:
        os.unlink(ctx["cache_path"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
