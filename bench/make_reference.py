"""Recompute the stored reference answers in bench/reference/.

    python3 bench/make_reference.py [workload ...]

Every answer is computed fresh, one operation at a time, with no cache
file.  For nf-cached the file also records how many operations per
round are expected to fail, and why: the cache key omits the ladder
depth, so a `--ladder 2` request is served the pre-filled default-ladder
record, whose answer differs from a fresh `--ladder 2` computation on
some instances.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

CACHE_KEY_CAUSE = (
    "the cache key omits the ladder depth, so a --ladder 2 request is served the "
    "pre-filled default-ladder record"
)


def expected_failed(name: str, tiny: bool, answers: dict) -> int:
    if name != "nf-cached":
        return 0
    ops, prefill = workloads.cached_plan(tiny)
    prefilled = {workloads.op_key(op) for op in prefill}
    failed = 0
    for op in ops:
        served = workloads.op_key(op[:3] + [None])
        if served in prefilled and answers[served] != answers[workloads.op_key(op)]:
            failed += 1
    return failed


def build(name: str) -> dict:
    workload = workloads.WORKLOADS[name]
    answers: dict[str, object] = {}
    for tiny in (False, True):
        for op in workload.ops(tiny):
            key = workloads.op_key(op)
            if key in answers:
                continue
            if op[0] == "cli-nf":
                answers[key] = workloads.run_cli_nf(op, None)
            else:
                answers[key] = workload.run(op, {})[0]
    ref = {"workload": name, "answers": dict(sorted(answers.items()))}
    ref["expected_failed_per_round"] = {
        "full": expected_failed(name, False, answers),
        "tiny": expected_failed(name, True, answers),
    }
    if name == "nf-cached":
        ref["expected_failure_cause"] = CACHE_KEY_CAUSE
    return ref


def _dumps(ref: dict) -> str:
    """JSON with one answer per line, so a changed answer shows as one line."""
    head = {k: v for k, v in ref.items() if k != "answers"}
    lines = [f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in ref["answers"].items()]
    return (
        json.dumps(head)[:-1]
        + ', "answers": {\n'
        + ",\n".join(lines)
        + "\n}}\n"
    )


def main(names: list[str]) -> int:
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or list(workloads.WORKLOADS):
        ref = build(name)
        path = workloads.REFERENCE_DIR / f"{name}.json"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_dumps(ref))
        print(f"{path}: {len(ref['answers'])} answers, "
              f"expected failed per round {ref['expected_failed_per_round']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
