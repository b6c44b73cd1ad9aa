"""Explorer: spectra with census, and the two conjecture scans."""

from __future__ import annotations

import json
import math
from types import SimpleNamespace

import pytest

from oracles import canonical_ksets, oracle_census, reflection_reps
from linforms import engine, explorer
from linforms.engine import compute_nf
from linforms.errors import BudgetExceeded, DiameterTooSmall, InputError
from linforms.explorer import (
    STATUS_CANDIDATE,
    STATUS_CONSISTENT,
    STATUS_INCONCLUSIVE,
    STATUS_THEOREM_CONFLICT,
    ScanFinding,
    scan_ap_minimizer_converse,
    scan_completeness_converse,
    spectrum,
)
from linforms.forms import LinearForm, enumerate_normalized
from linforms.sets import KSet


class TestSpectrum:
    def test_frozen_example(self):
        rep = spectrum(LinearForm((1, 3)), 3)
        assert rep.diameter == 8
        assert rep.values == (8, 9)
        assert rep.census == ((8, 2), (9, 9))
        assert rep.is_interval and rep.mf_reached and rep.mf_value == 9

    def test_frozen_census_with_diameter(self):
        rep = spectrum(LinearForm((1, 2)), 3, diameter=6)
        assert rep.census == ((7, 1), (8, 1), (9, 4))

    def test_gap(self):
        rep = spectrum(LinearForm((1, 4)), 4)
        assert rep.values == (12, 14, 15, 16)
        assert not rep.is_interval
        assert rep.mf_reached

    def test_min_matches_search(self):
        f = LinearForm((1, 3))
        rep = spectrum(f, 4)
        assert rep.values[0] == compute_nf(f, 4).best

    def test_census_against_oracle(self):
        f = LinearForm((2, 3))
        rep = spectrum(f, 3, diameter=7)
        assert sum(c for _, c in rep.census) == len(reflection_reps(canonical_ksets(3, 7)))
        assert rep.census == oracle_census(f.coeffs, 3, 7)

    @staticmethod
    def censuses(monkeypatch, cases) -> list[bool]:
        """Check each (coeffs, k, diameter)'s census with the oracle; whether the census loop ran."""
        ran = []

        def counted(*args):
            ran[-1] = True
            return engine._census_general(*args)

        monkeypatch.setattr(explorer, "_census_general", counted)
        for coeffs, k, diameter in cases:
            ran.append(False)
            rep = spectrum(LinearForm(coeffs), k, diameter)
            assert rep.census == oracle_census(coeffs, k, rep.diameter), (coeffs, k, diameter)
        return ran

    def test_census_matches_oracle_on_small_forms(self, monkeypatch):
        # Every normalized form of m <= 3 and coefficients <= 4 at k = 1..5,
        # at the default diameter where the oracle's k^m tuples per set stay
        # few, and at two explicit ones.  Run once more with the census for
        # every k >= 2, so tiny sets, with equal end gaps and with gcd > 1,
        # reach it too.
        cases = [
            (f.coeffs, k, d)
            for m in (1, 2, 3)
            for f in enumerate_normalized(m, 4)
            for k in range(1, 6)
            for d in (None, k, 2 * k + 2)
            if d is not None or math.comb(f.u_total * (k - 1), k - 1) * k**m <= 100_000
        ]
        shipped = self.censuses(monkeypatch, cases)
        monkeypatch.setattr(explorer, "_census_pays", lambda *args: True)
        everywhere = self.censuses(monkeypatch, cases)
        assert 0 < sum(shipped) < sum(everywhere) == sum(k > 1 for _, k, _ in cases)

    def test_census_matches_oracle_on_both_sides_of_the_rule(self, monkeypatch):
        # The chain loop keeps (1,2) at k = 3 (15 candidate sets) and at
        # k = 2; (1,2,4,8,16), with too many subset sums for the census;
        # and (1,2,4,8), with too large a table for frames of few sets at
        # D = 13.  (1,3,9,27) at k = 3 takes the census.
        cases = [
            ((1, 2), 3, None),
            ((1, 2), 2, 300),
            ((1, 2, 4, 8, 16), 3, None),
            ((1, 2, 4, 8), 4, 13),
            ((1, 3, 9, 27), 3, None),
        ]
        assert self.censuses(monkeypatch, cases) == [False, False, False, False, True]
        monkeypatch.setattr(explorer, "SEARCH_BITS_CAP", 0)  # masks past the cap keep the chain
        assert self.censuses(monkeypatch, cases[-1:]) == [False]

    def test_census_matches_oracle_with_a_repeated_coefficient(self, monkeypatch):
        assert self.censuses(monkeypatch, [((1, 1, 2), 5, None), ((1, 1, 2), 4, 20)]) == [True, True]

    def test_k1(self):
        rep = spectrum(LinearForm((1, 2)), 1)
        assert rep.values == (1,) and rep.census == ((1, 1),)
        assert rep.is_interval and rep.mf_reached

    def test_errors(self, monkeypatch):
        with pytest.raises(InputError):
            spectrum(LinearForm((1, 2)), 0)
        with pytest.raises(DiameterTooSmall):
            spectrum(LinearForm((1, 2)), 4, diameter=2)
        with pytest.raises(BudgetExceeded):
            spectrum(LinearForm((1, 2)), 12, diameter=40)
        monkeypatch.setattr(explorer, "SPECTRUM_BUDGET", 1000)
        with pytest.raises(BudgetExceeded, match="9880 candidate sets"):
            spectrum(LinearForm((1, 2)), 4, diameter=40)

    def test_huge_budget_message_gives_bits(self):
        # C(17997, 5999) has about 5,000 decimal digits, too many for str().
        with pytest.raises(BudgetExceeded, match=r"^over 2\^16519 candidate sets"):
            spectrum(LinearForm((1, 2)), 6000)

    def test_json_shape(self):
        out = spectrum(LinearForm((1, 3)), 3).to_json()
        assert list(out) == [
            "coeffs",
            "k",
            "diameter",
            "values",
            "census",
            "is_interval",
            "mf_value",
            "mf_reached",
        ]
        # stable round-trip, integers only
        assert json.loads(json.dumps(out)) == out


class TestCompletenessScan:
    def test_skips_complete_forms(self):
        findings = scan_completeness_converse(2, 4, 3)
        assert [f.form.coeffs for f in findings] == [(1, 3), (1, 4), (2, 3), (3, 4)]
        assert all(not f.complete for f in findings)

    def test_small_grid_all_consistent(self):
        for f in scan_completeness_converse(2, 4, 3):
            assert f.status == STATUS_CONSISTENT
            assert f.best < f.predicted

    def test_exactness_discipline(self):
        """Open brackets that still allow the predicted value stay inconclusive."""
        for f in scan_completeness_converse(3, 5, 4):
            if f.status == STATUS_INCONCLUSIVE:
                assert not f.exact
                assert f.best >= f.predicted > f.lower
            elif f.status == STATUS_CANDIDATE:
                assert f.exact and f.best == f.predicted

    def test_budget(self, monkeypatch):
        monkeypatch.setattr(explorer, "SCAN_BUDGET", 5)
        with pytest.raises(BudgetExceeded, match="more than 5 forms$"):
            scan_completeness_converse(3, 6, 3)

    def test_budget_counts_searched_forms(self, monkeypatch):
        # (2, 4) has 6 normalized forms; (1, 1) and (1, 2) are complete.
        monkeypatch.setattr(explorer, "SCAN_BUDGET", 5)
        assert len(scan_completeness_converse(2, 4, 3)) == 4
        with pytest.raises(BudgetExceeded, match="more than 5 forms$"):
            scan_ap_minimizer_converse(2, 4, 3)

    @pytest.mark.parametrize("scan", [scan_completeness_converse, scan_ap_minimizer_converse])
    def test_budget_refuses_before_walking_everything(self, monkeypatch, scan):
        drawn = 0

        def counted_forms(*args):
            nonlocal drawn
            for f in enumerate_normalized(*args):
                drawn += 1
                yield f

        def no_search(*args, **kwargs):
            raise AssertionError("searched before the budget check")

        monkeypatch.setattr(explorer, "enumerate_normalized", counted_forms)
        monkeypatch.setattr(explorer, "compute_nf", no_search)
        monkeypatch.setattr(explorer, "SCAN_BUDGET", 100)
        # Millions of 8-variable forms; the scan stops drawing just past the
        # budget (plus, for the completeness scan, the 48 complete forms it skips).
        with pytest.raises(BudgetExceeded, match="more than 100 forms$"):
            scan(8, 30, 3)
        assert drawn <= 200

    @pytest.mark.parametrize("scan", [scan_completeness_converse, scan_ap_minimizer_converse])
    def test_needs_a_variable(self, scan):
        with pytest.raises(InputError, match="need m >= 1"):
            scan(0, 4, 3)


class TestApMinimizerScan:
    def test_small_binary_all_consistent(self):
        findings = scan_ap_minimizer_converse(2, 4, 3)
        assert len(findings) == 6
        assert all(f.status == STATUS_CONSISTENT for f in findings)

    def test_k2_is_vacuous(self):
        for f in scan_ap_minimizer_converse(2, 5, 2):
            assert f.status == STATUS_CONSISTENT
            if not f.complete:
                assert "vacuous" in f.detail

    def test_single_unit_form_degenerate(self):
        (finding,) = scan_ap_minimizer_converse(1, 1, 3)
        assert finding.status == STATUS_CONSISTENT
        assert "every set minimizes" in finding.detail

    def test_open_brackets_inconclusive(self):
        findings = scan_ap_minimizer_converse(2, 4, 4)
        by_coeffs = {f.form.coeffs: f for f in findings}
        assert by_coeffs[(1, 3)].status == STATUS_INCONCLUSIVE
        assert "unverified" in by_coeffs[(1, 3)].detail
        # the two exactly-solved binaries keep their progression witnesses
        assert by_coeffs[(1, 1)].status == STATUS_CONSISTENT
        assert by_coeffs[(1, 2)].status == STATUS_CONSISTENT

    def test_no_conflicts_in_bounds(self):
        for m in (1, 2, 3):
            for k in (2, 3):
                for f in scan_ap_minimizer_converse(m, 4, k):
                    assert f.status != STATUS_THEOREM_CONFLICT
                    assert f.status != STATUS_CANDIDATE

    def test_json_shape(self):
        (finding,) = scan_ap_minimizer_converse(1, 1, 2)
        out = finding.to_json()
        assert list(out) == [
            "problem",
            "coeffs",
            "k",
            "diameter",
            "lower",
            "best",
            "exact",
            "predicted",
            "complete",
            "status",
            "detail",
        ]
        assert out["problem"] == "ap-minimizers"
        assert json.loads(json.dumps(out)) == out


def _fake_engine(monkeypatch, results):
    """Make explorer.compute_nf answer from results[coeffs] = (lower, best, exact, witness sets).

    Returns the list of (coeffs, k, keywords) calls it receives.
    """
    calls = []

    def fake(f, k, **kw):
        calls.append((f.coeffs, k, kw))
        lower, best, exact, sets = results[f.coeffs]
        return SimpleNamespace(
            k=k,
            diameter_searched=7,
            lower=lower,
            best=best,
            exact=exact,
            witnesses=tuple(KSet(s) for s in sets),
        )

    monkeypatch.setattr(explorer, "compute_nf", fake)
    return calls


def _verdicts(findings):
    return [(x.form.coeffs, x.complete, x.predicted, x.status, x.detail) for x in findings]


class TestScanVerdicts:
    """Every verdict branch of both scans, driven by crafted engine results."""

    def test_completeness_branches(self, monkeypatch):
        calls = _fake_engine(
            monkeypatch,
            {
                (1, 3): (9, 9, True, [(0, 1, 2)]),
                (1, 4): (8, 10, False, [(0, 1, 2)]),
                (2, 3): (10, 12, False, [(0, 1, 2)]),
                (3, 4): (13, 14, False, [(0, 1, 3)]),
            },
        )
        findings = scan_completeness_converse(2, 4, 3, diameter=7)
        assert calls == [
            (c, 3, {"diameter": 7}) for c in [(1, 3), (1, 4), (2, 3), (3, 4)]
        ]
        assert _verdicts(findings) == [
            ((1, 3), False, 9, STATUS_CANDIDATE, "incomplete form attains the complete-form minimum"),
            ((1, 4), False, 11, STATUS_CONSISTENT, ""),
            ((2, 3), False, 11, STATUS_INCONCLUSIVE, "bracket [10,12] still allows 11"),
            ((3, 4), False, 15, STATUS_CONSISTENT, ""),
        ]
        assert findings[2].to_json() == {
            "problem": "completeness",
            "coeffs": [2, 3],
            "k": 3,
            "diameter": 7,
            "lower": 10,
            "best": 12,
            "exact": False,
            "predicted": 11,
            "complete": False,
            "status": STATUS_INCONCLUSIVE,
            "detail": "bracket [10,12] still allows 11",
        }

    def test_ap_branches(self, monkeypatch):
        calls = _fake_engine(
            monkeypatch,
            {
                (1, 1): (5, 5, True, [(0, 1, 2), (0, 1, 3)]),
                (1, 2): (7, 7, True, [(0, 1, 2)]),
                (1, 3): (8, 8, True, [(0, 1, 2)]),
                (1, 4): (8, 8, True, [(0, 1, 2), (0, 1, 4)]),
                (2, 3): (8, 9, False, [(0, 1, 2)]),
                (3, 4): (8, 8, True, [(0, 2, 3), (0, 1, 2)]),
            },
        )
        findings = scan_ap_minimizer_converse(2, 4, 3)
        assert calls == [
            (c, 3, {"diameter": None})
            for c in [(1, 1), (1, 2), (1, 3), (1, 4), (2, 3), (3, 4)]
        ]
        assert _verdicts(findings) == [
            (
                (1, 1),
                True,
                5,
                STATUS_THEOREM_CONFLICT,
                "complete form has non-progression minimizer {0,1,3}",
            ),
            ((1, 2), True, 7, STATUS_CONSISTENT, ""),
            ((1, 3), False, 9, STATUS_CANDIDATE, "incomplete form, yet every minimizer is a progression"),
            ((1, 4), False, 11, STATUS_CONSISTENT, ""),
            ((2, 3), False, 11, STATUS_INCONCLUSIVE, "bracket [8,9] open; minimizers unverified"),
            ((3, 4), False, 15, STATUS_CONSISTENT, ""),
        ]
        assert findings[0].to_json()["problem"] == "ap-minimizers"
        assert (findings[0].diameter, findings[0].lower, findings[0].best) == (7, 5, 5)

    def test_ap_vacuous_branches(self, monkeypatch):
        _fake_engine(monkeypatch, {(1,): (3, 3, True, [(0, 1, 3)]), (1, 1): (3, 3, True, [(0, 1)])})
        assert _verdicts(scan_ap_minimizer_converse(1, 1, 3)) == [
            ((1,), True, 3, STATUS_CONSISTENT, "degenerate single-unit form: every set minimizes"),
        ]
        assert _verdicts(scan_ap_minimizer_converse(2, 1, 2)) == [
            ((1, 1), True, 3, STATUS_CONSISTENT, "every set of size <= 2 is a progression; vacuous"),
        ]
