"""Acceptance gate: one test per shipping criterion, integer-exact.

Each test enforces its own wall-clock budget.  The terminal summary
hook in conftest.py prints one PASS/FAIL line per criterion at the end
of the run.
"""

from __future__ import annotations

import json
import math
import random
import time
from pathlib import Path

from oracles import oracle_image, oracle_image_size, oracle_min, random_form_coeffs, random_kset
from linforms.engine import (
    clear_search_memo,
    compute_mf,
    compute_nf,
    enumerate_minimizers,
    exact_nf2,
    search_min,
)
from linforms.explorer import scan_ap_minimizer_converse, scan_completeness_converse
from linforms.forms import LinearForm, enumerate_normalized, is_complete, subset_sums
from linforms.sets import image, is_arithmetic_progression
from linforms.theory import complete_formula, nstar_formula

DATA = Path(__file__).parent / "data"


def test_criterion_1_binary_exact_families():
    """(1,1) -> 2k-1 and (1,2) -> 3k-2, exact with progression witnesses, k <= 8."""
    t0 = time.monotonic()
    for coeffs, formula in (((1, 1), lambda k: 2 * k - 1), ((1, 2), lambda k: 3 * k - 2)):
        f = LinearForm(coeffs)
        for k in range(2, 9):
            res = compute_nf(f, k)
            assert res.exact, (coeffs, k, res.lower, res.best)
            assert res.best == formula(k), (coeffs, k, res.best)
            assert all(is_arithmetic_progression(w.elems) for w in res.witnesses)
            assert [w.elems for w in res.witnesses] == [tuple(range(k))]
    assert time.monotonic() - t0 <= 5.0


def test_criterion_2_complete_forms_inverse():
    """Complete forms: exact u_total*k - u_total + 1, minimized by the progression alone."""
    t0 = time.monotonic()
    complete_forms = [
        f
        for m in (1, 2, 3)
        for f in enumerate_normalized(m, 4)
        if is_complete(f)
    ]
    coeff_set = {f.coeffs for f in complete_forms}
    for required in [(1, 1), (1, 2), (1, 1, 2), (1, 2, 3), (1, 1, 3)]:
        assert required in coeff_set, f"expected {required} among complete forms"
    mismatches = []
    for f in complete_forms:
        for k in range(1, 6):
            res = compute_nf(f, k)
            want = complete_formula(f.u_total, k)
            if not res.exact or res.best != want:
                mismatches.append((f.coeffs, k, res.lower, res.best))
                continue
            mins = enumerate_minimizers(f, k)
            if tuple(w.elems for w in mins) != (tuple(range(k)),):
                mismatches.append((f.coeffs, k, [w.elems for w in mins]))
    assert mismatches == []
    assert time.monotonic() - t0 <= 30.0


def test_criterion_3_least_minimum_formula():
    """min over strictly increasing forms (u_m <= 6) of the k-set minimum."""
    t0 = time.monotonic()
    for m in (2, 3):
        forms = list(enumerate_normalized(m, 6, strictly_increasing=True))
        assert tuple(range(1, m + 1)) in {f.coeffs for f in forms}
        for k in range(1, 6):
            target = nstar_formula(m, k)
            assert target == ((m * m + m) // 2) * k - ((m * m + m - 2) // 2)
            bests = {f.coeffs: compute_nf(f, k).best for f in forms}
            assert min(bests.values()) == target, (m, k, min(bests.values()))
            assert bests[tuple(range(1, m + 1))] == target
            natural = compute_nf(LinearForm(tuple(range(1, m + 1))), k)
            assert natural.exact and natural.best == target
    assert time.monotonic() - t0 <= 30.0


def test_criterion_4_binary_general_case():
    """Six general binaries: 3-set minimum exactly 8; certified floors beyond."""
    t0 = time.monotonic()
    for coeffs in [(1, 3), (2, 3), (1, 4), (3, 4), (2, 5), (1, 5)]:
        f = LinearForm(coeffs)
        res3 = compute_nf(f, 3)
        assert res3.exact and res3.best == 8, (coeffs, res3.lower, res3.best)
        for k in (4, 5, 6):
            required = (7 * k - 5) // 2 if k % 2 else (7 * k - 6) // 2
            res = compute_nf(f, k)
            assert res.lower >= required, (coeffs, k, res.lower, required)
    assert time.monotonic() - t0 <= 10.0


def test_criterion_5_ternary_pair_table_exhaustive():
    """Pattern table equals the subset-sum count for every ternary form <= 16."""
    from linforms.theory import ternary_nf2_table

    count = 0
    for f in enumerate_normalized(3, 16):
        assert ternary_nf2_table(f) == exact_nf2(f), f.coeffs
        count += 1
    assert count == 652  # normalized ternary vectors with entries <= 16


def test_criterion_6_maximum_results():
    """Exact maxima: power law, binomial law, and the random sandwich."""
    t0 = time.monotonic()
    f124 = LinearForm((1, 2, 4))
    for k, want in [(1, 1), (2, 8), (3, 27), (4, 64)]:
        assert compute_mf(f124, k).value == want == k**3

    for m in range(1, 5):
        ones = LinearForm((1,) * m)
        for k in range(1, 7):
            assert compute_mf(ones, k).value == math.comb(k + m - 1, m)

    rng = random.Random(2026)
    for _ in range(200):
        coeffs = random_form_coeffs(rng, max_m=4, max_coeff=9)
        k = rng.randint(1, 5)
        f = LinearForm(coeffs)
        res = compute_mf(f, k)
        m = len(coeffs)
        assert math.comb(k, m) <= res.value <= k**m, (coeffs, k, res.value)
        assert len(res.witness) == k
        assert oracle_image_size(coeffs, res.witness) == res.value
    assert time.monotonic() - t0 <= 30.0


def test_criterion_7_oracle_equivalence():
    """Pruned search == naive enumeration (values and witness sets) everywhere small."""
    t0 = time.monotonic()
    instances = 0
    for m in (1, 2, 3):
        for f in enumerate_normalized(m, 4):
            for k in (2, 3, 4):
                for diameter in range(k - 1, 11):
                    got = search_min(f, k, diameter)
                    want_best, want_wits = oracle_min(f.coeffs, k, diameter)
                    assert got.best == want_best, (f.coeffs, k, diameter)
                    assert tuple(w.elems for w in got.witnesses) == want_wits, (
                        f.coeffs,
                        k,
                        diameter,
                    )
                    instances += 1
    assert instances == 594
    assert time.monotonic() - t0 <= 60.0


def test_criterion_8_property_suite():
    """Affine invariance, monotonicity, symmetry, oracle images, determinism."""
    t0 = time.monotonic()
    rng = random.Random(777)

    # affine invariance of the image size on 1000 random (f, A, c, d)
    for _ in range(1000):
        coeffs = random_form_coeffs(rng, max_m=3, max_coeff=7)
        f = LinearForm(coeffs)
        k = rng.randint(1, 5)
        elems = random_kset(rng, k)
        c = rng.choice([x for x in range(-9, 10) if x])
        d = rng.randint(-40, 40)
        moved = [c * x + d for x in elems]
        assert len(image(f, elems)) == len(image(f, moved))

    # strict monotonicity of the minimum (on exactly-solved families) and maximum
    for coeffs in [(1, 1), (1, 2), (1, 1, 2), (1, 2, 3)]:
        f = LinearForm(coeffs)
        results = [compute_nf(f, k) for k in range(1, 7)]
        assert all(r.exact for r in results)
        mins = [r.best for r in results]
        assert all(a < b for a, b in zip(mins, mins[1:])), (coeffs, mins)
    for coeffs in [(1,), (1, 3), (2, 3, 4), (1, 1, 2)]:
        f = LinearForm(coeffs)
        maxes = [compute_mf(f, k).value for k in range(1, 7)]
        assert all(a < b for a, b in zip(maxes, maxes[1:])), (coeffs, maxes)

    # subset-sum symmetry on 200 random forms
    for _ in range(200):
        f = LinearForm(random_form_coeffs(rng, max_m=5, max_coeff=12))
        s = subset_sums(f)
        assert all(((n in s) == ((f.u_total - n) in s)) for n in range(f.u_total + 1))

    # the image equals the tuple oracle on 200 random (f, A)
    for _ in range(200):
        f = LinearForm(random_form_coeffs(rng, max_m=3, max_coeff=6))
        elems = random_kset(rng, rng.randint(1, 6), lo=-30, hi=30)
        assert image(f, elems) == tuple(sorted(oracle_image(f.coeffs, elems)))

    # byte-identical results and pinned node counts across repeated cold
    # runs, and from the search memo
    for coeffs, k, nodes in [((1, 3), 4, 161), ((1, 2, 4), 4, 181), ((2, 3), 5, 2206)]:
        outs = []
        for _ in range(3):
            clear_search_memo()
            outs.append(compute_nf(LinearForm(coeffs), k).to_json())
        outs.append(compute_nf(LinearForm(coeffs), k).to_json())
        assert outs[0] == outs[1] == outs[2] == outs[3], (coeffs, k)
        assert outs[0]["nodes"] == nodes, (coeffs, k)
    assert time.monotonic() - t0 <= 60.0


def test_criterion_9_scans_clean_and_stable():
    """Both scans: zero candidates, zero conflicts; output equals the frozen snapshot."""
    t0 = time.monotonic()

    def run_all() -> list[str]:
        lines = []
        for runner in (scan_completeness_converse, scan_ap_minimizer_converse):
            for m in range(1, 4):
                for k in range(2, 5):
                    for finding in runner(m, 5, k):
                        lines.append(json.dumps(finding.to_json()))
        return lines

    first = run_all()
    statuses = [json.loads(line)["status"] for line in first]
    assert statuses.count("candidate-counterexample") == 0
    assert statuses.count("theorem-conflict") == 0
    assert set(statuses) <= {"consistent", "inconclusive"}

    snapshot = (DATA / "scan_snapshot.jsonl").read_text().splitlines()
    assert first == snapshot, "scan output drifted from the frozen snapshot"

    second = run_all()
    assert first == second, "scan output unstable across runs"
    assert time.monotonic() - t0 <= 30.0
