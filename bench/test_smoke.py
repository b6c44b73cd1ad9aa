"""Smoke test of the benchmark harness itself, at a tiny size.

    python3 -m pytest -q bench/test_smoke.py

For each workload: every metric named in BENCHMARK.json is printed with
its unit, ok_frac equals the stored expectation, and the deterministic
counts repeat between two traced runs at the same seed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracer import COUNTS  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
SEED = 7


def bench(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record_path = ROOT / ".bench_work" / f"BENCH_{workload}_seed{SEED}_trace{trace}.json"
    return result, json.loads(record_path.read_text("utf-8"))


def assert_metrics(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_manifest_is_generated_from_the_harness():
    assert MANIFEST == run.manifest()


@pytest.mark.parametrize("workload", [w["name"] for w in MANIFEST["workloads"]])
def test_workload_smoke(workload):
    result, record = bench(workload, 0)
    assert result["correct"], record
    assert_metrics(result, MANIFEST["end_to_end"])
    ref = json.loads((BENCH / "reference" / f"{workload}.json").read_text("utf-8"))
    expected_failed = ref["expected_failed_per_round"]["tiny"]
    expected_ok = 1 - expected_failed / record["ops_per_round"]
    assert result["metrics"]["ok_frac"]["value"] == pytest.approx(expected_ok)
    assert all(f["known"] for f in record["failures"])

    first, first_record = bench(workload, 1)
    second, second_record = bench(workload, 1)
    assert first["correct"] and second["correct"]
    assert_metrics(first, MANIFEST["per_layer"])
    for name in COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first_record["counts"] == second_record["counts"] == record["counts"]


def test_trace_wraps_every_binding():
    _, record = bench("nf-cached", 1)
    wrapped = {b for bindings in record["wrapped_bindings"].values() for b in bindings}
    for binding in (
        "explorer.compute_nf", "explorer.compute_mf", "explorer.image_mask",
        "theory.compute_nf", "theory.compute_mf",
        "engine.search_min", "engine.composition_vectors", "engine.image",
        "sets.composition_vectors", "cache.load_records", "cache.lookup",
        "cache.append_record", "cli.compute_nf",
    ):
        assert f"linforms.{binding}" in wrapped, binding
