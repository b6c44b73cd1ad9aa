"""Explorer: spectra with census, and the two conjecture scans."""

from __future__ import annotations

import json

import pytest

from oracles import canonical_ksets, oracle_image_size, reflection_reps
from linforms import explorer
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
from linforms.forms import LinearForm


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
        classes = reflection_reps(canonical_ksets(3, 7))
        assert sum(c for _, c in rep.census) == len(classes)
        sizes = [oracle_image_size(f.coeffs, elems) for elems in classes]
        assert rep.census == tuple(sorted((v, sizes.count(v)) for v in set(sizes)))

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
        with pytest.raises(BudgetExceeded):
            scan_completeness_converse(3, 6, 3)


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
