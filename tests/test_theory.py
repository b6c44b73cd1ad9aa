"""Theory: closed-form values, classifications, verification suites."""

from __future__ import annotations

import pytest

from linforms import theory
from linforms.engine import compute_nf
from linforms.errors import (
    BudgetExceeded,
    InputError,
    NotBinary,
    NotStrictlyIncreasing,
    NotTernary,
)
from linforms.forms import LinearForm, enumerate_normalized
from linforms.theory import (
    SUITES,
    SuiteBounds,
    VerificationReport,
    classify_binary,
    complete_formula,
    nstar_formula,
    ternary_lower,
    ternary_nf2_table,
    verify_suite,
)

BOUNDS = SuiteBounds(max_m=3, max_coeff=4, max_k=4)


class TestFormulas:
    def test_nstar(self):
        assert nstar_formula(1, 5) == 5
        assert nstar_formula(2, 5) == 3 * 5 - 2
        assert nstar_formula(3, 5) == 6 * 5 - 5
        assert nstar_formula(4, 3) == 10 * 3 - 9

    def test_complete(self):
        assert complete_formula(6, 4) == 19
        assert complete_formula(1, 9) == 9
        assert complete_formula(2, 2) == 3

    def test_errors(self):
        with pytest.raises(InputError):
            nstar_formula(0, 3)
        with pytest.raises(InputError):
            complete_formula(3, 0)


class TestClassifyBinary:
    def test_tags(self):
        assert classify_binary(LinearForm((1, 1))).tag == "x1+x2"
        assert classify_binary(LinearForm((1, 2))).tag == "x1+2x2"
        assert classify_binary(LinearForm((1, 3))).tag == "general"

    def test_exactness_flags(self):
        assert classify_binary(LinearForm((1, 1))).exact
        assert classify_binary(LinearForm((1, 2))).exact
        assert not classify_binary(LinearForm((2, 3))).exact

    def test_bound_values(self):
        assert [classify_binary(LinearForm((1, 1))).bound(k) for k in (2, 3, 4)] == [3, 5, 7]
        assert [classify_binary(LinearForm((1, 2))).bound(k) for k in (2, 3, 4)] == [4, 7, 10]
        general = classify_binary(LinearForm((1, 3)))
        assert [general.bound(k) for k in (3, 4, 5, 6)] == [8, 11, 15, 18]

    def test_not_binary(self):
        with pytest.raises(NotBinary):
            classify_binary(LinearForm((1, 1, 2)))

    def test_bad_k(self):
        with pytest.raises(InputError):
            classify_binary(LinearForm((1, 1))).bound(0)


class TestTernaryTable:
    @pytest.mark.parametrize(
        "coeffs,want",
        [
            ((1, 1, 1), 4),
            ((1, 1, 2), 5),
            ((1, 1, 3), 6),
            ((1, 2, 2), 6),
            ((1, 2, 3), 7),
            ((1, 2, 4), 8),
            ((2, 3, 5), 7),
            ((2, 3, 7), 8),
        ],
    )
    def test_cases(self, coeffs, want):
        assert ternary_nf2_table(LinearForm(coeffs)) == want

    def test_not_ternary(self):
        with pytest.raises(NotTernary):
            ternary_nf2_table(LinearForm((1, 2)))

    def test_exhaustive_against_subset_sums(self):
        from linforms.engine import exact_nf2

        count = 0
        for f in enumerate_normalized(3, 8):
            assert ternary_nf2_table(f) == exact_nf2(f), f
            count += 1
        assert count == 95  # normalized ternary vectors with entries <= 8


class TestTernaryLower:
    def test_sum_case(self):
        # u1 + u2 = u3 keeps the weaker floor
        assert ternary_lower(LinearForm((1, 2, 3)), 4) == 6 * 4 - 5

    def test_general_case(self):
        assert ternary_lower(LinearForm((1, 2, 4)), 4) == 7 * 4 - 6

    def test_at_k1(self):
        assert ternary_lower(LinearForm((1, 2, 4)), 1) == 1

    def test_lower_is_sound_on_samples(self):
        for coeffs in [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4), (1, 2, 5)]:
            f = LinearForm(coeffs)
            for k in (2, 3, 4):
                assert compute_nf(f, k).best >= ternary_lower(f, k), (coeffs, k)

    def test_requires_strict_increase(self):
        with pytest.raises(NotStrictlyIncreasing):
            ternary_lower(LinearForm((1, 1, 2)), 3)

    def test_errors(self):
        with pytest.raises(NotTernary):
            ternary_lower(LinearForm((1, 2)), 3)
        with pytest.raises(InputError):
            ternary_lower(LinearForm((1, 2, 4)), 0)


class TestSuites:
    @pytest.mark.parametrize("suite", SUITES)
    def test_all_pass_in_small_bounds(self, suite):
        report = verify_suite(suite, BOUNDS)
        assert report.passed, report.mismatches
        assert report.checked > 0
        assert report.suite == suite

    def test_unknown_suite(self):
        with pytest.raises(InputError):
            verify_suite("nope", BOUNDS)

    def test_budget_guard(self, monkeypatch):
        monkeypatch.setattr(theory, "INSTANCE_BUDGET", 3)
        with pytest.raises(BudgetExceeded):
            verify_suite("thm41", SuiteBounds(max_m=3, max_coeff=4, max_k=4))

    def test_report_json_shape(self):
        report = verify_suite("lem32", BOUNDS)
        out = report.to_json()
        assert list(out) == ["suite", "bounds", "checked", "mismatches", "passed"]
        assert out["passed"] is True
        assert out["bounds"]["max_coeff"] == 4

    def test_failed_report_property(self):
        report = VerificationReport(
            suite="lem32", bounds=BOUNDS, checked=1, mismatches=("boom",)
        )
        assert not report.passed
        assert report.to_json()["passed"] is False
