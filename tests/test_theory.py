"""Theory: closed-form values, classifications, verification suites."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from linforms import theory
from linforms.certificate import Certificate, check_certificate, lower_certificate, split_recursion
from linforms.engine import compute_nf
from linforms.errors import (
    BudgetExceeded,
    DiameterTooSmall,
    InputError,
    NotBinary,
    NotStrictlyIncreasing,
    NotTernary,
)
from linforms.forms import LinearForm, enumerate_complete, enumerate_normalized
from linforms.sets import KSet
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

    @pytest.mark.parametrize(
        "suite,bounds,budget",
        [
            ("thm23", SuiteBounds(3, 20, 3), 1000),  # 2,248 pairs
            ("mf_bounds", SuiteBounds(3, 14, 2), 1000),  # 1,034 pairs
            ("thm23", SuiteBounds(8, 30, 4), theory.INSTANCE_BUDGET),  # millions
            ("mf_bounds", SuiteBounds(8, 30, 4), theory.INSTANCE_BUDGET),  # ~150M pairs
        ],
    )
    def test_budget_counts_every_instance_first(self, monkeypatch, suite, bounds, budget):
        calls, drawn = [], 0

        def counted(engine_fn):
            def wrapper(*args, **kwargs):
                calls.append(args)
                return engine_fn(*args, **kwargs)

            return wrapper

        def counted_forms(*args):
            nonlocal drawn
            for f in enumerate_normalized(*args):
                drawn += 1
                yield f

        monkeypatch.setattr(theory, "compute_nf", counted(theory.compute_nf))
        monkeypatch.setattr(theory, "compute_mf", counted(theory.compute_mf))
        monkeypatch.setattr(theory, "lower_certificate", counted(theory.lower_certificate))
        monkeypatch.setattr(theory, "enumerate_normalized", counted_forms)
        monkeypatch.setattr(theory, "INSTANCE_BUDGET", budget)
        with pytest.raises(BudgetExceeded, match=f"would touch more than {budget} instances$"):
            verify_suite(suite, bounds)
        assert calls == []  # no search and no certificate before the refusal
        # Forms are drawn lazily, and only until the budget overflows.
        assert drawn <= budget + 1

    @pytest.mark.parametrize("field", ["max_m", "max_coeff", "max_k"])
    def test_bounds_select_something(self, field):
        values = {"max_m": 3, "max_coeff": 4, "max_k": 4, field: 0}
        with pytest.raises(InputError, match="need max_m, max_coeff, max_k >= 1"):
            SuiteBounds(**values)
        SuiteBounds(**{**values, field: 1})

    def test_diameter_below_max_k_refused(self):
        # Every suite shares the bounds, so a diameter too small for the
        # largest k is refused before any suite runs, as scan refuses it.
        with pytest.raises(DiameterTooSmall, match="^diameter 1 cannot hold 3 distinct integers$"):
            SuiteBounds(1, 1, 3, diameter=1)
        SuiteBounds(1, 1, 3, diameter=2)
        SuiteBounds(1, 1, 3)

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


class TestSuiteTraffic:
    """Floors are checked on certificates; compute_nf runs only for exact claims."""

    @pytest.fixture
    def searched(self, monkeypatch):
        calls = []

        def counted(f, k, **kwargs):
            calls.append((f.coeffs, k))
            return compute_nf(f, k, **kwargs)

        monkeypatch.setattr(theory, "compute_nf", counted)
        return calls

    def test_thm23_searches_only_the_first_m_integers(self, searched):
        report = verify_suite("thm23", SuiteBounds(4, 12, 4))
        assert (report.checked, report.passed) == (2160, True)
        assert searched == [(tuple(range(1, m + 1)), k) for m in (2, 3, 4) for k in (2, 3, 4)]

    def test_thm31_searches_exact_classes_and_the_3_set_value(self, searched):
        report = verify_suite("thm31", SuiteBounds(2, 12, 4))
        assert (report.checked, report.passed) == (184, True)
        exact = ((1, 1), (1, 2))
        forms = [f.coeffs for f in enumerate_normalized(2, 12)]
        assert searched == [(c, k) for c in forms for k in range(1, 5) if c in exact or k == 3]

    def test_weaker_certificate_names_its_bound(self, monkeypatch):
        # Without the 3-set value 8, (1,3) keeps only L(n) = 3n - 2: a
        # certificate check_certificate accepts, under the floor from k = 3
        # on. k = 3 claims the exact value 8, so it is searched instead.
        def weak_for_13(f, k):
            if f.coeffs != (1, 3):
                return lower_certificate(f, k)
            bounds, splits = split_recursion(4, None, k)
            return Certificate(bounds[-1], 4, None, splits)

        monkeypatch.setattr(theory, "lower_certificate", weak_for_13)
        report = verify_suite("thm31", SuiteBounds(2, 3, 5))
        assert report.mismatches == (
            "(1,3) k=4: certificate 10 under the floor 11",
            "(1,3) k=5: certificate 13 under the floor 15",
        )


class TestFloorsFromCertificates:
    """The replayed certificate alone meets every floor the suites check."""

    @staticmethod
    def replayed(f, k):
        return check_certificate(f, k, lower_certificate(f, k))[-1]

    def test_strictly_increasing_forms_meet_the_first_m_integers(self):
        for m, c in ((2, 14), (3, 14), (4, 14), (5, 9)):
            for f in enumerate_normalized(m, c, True):
                for k in range(1, 9):
                    assert self.replayed(f, k) >= nstar_formula(m, k), (f, k)

    def test_binary_forms_meet_their_class_bound(self):
        for f in enumerate_normalized(2, 30):
            cls = classify_binary(f)
            for k in range(1, 9):
                assert self.replayed(f, k) >= cls.bound(k), (f, k)

    def test_complete_forms_equal_the_formula(self):
        for m in range(1, 6):
            for f in enumerate_complete(m, 12):
                for k in range(1, 8):
                    assert self.replayed(f, k) == complete_formula(f.u_total, k), (f, k)


def _bad_nf(f, k, **kw):
    return SimpleNamespace(lower=0, best=1, exact=False, witnesses=())


def _non_progression_nf(f, k, **kw):
    want = complete_formula(f.u_total, k)
    return SimpleNamespace(lower=want, best=want, exact=True, witnesses=(KSet((0, 1, 3)),))


class TestSuiteMismatches:
    """Each suite's exact mismatch list under engine results and certificate
    replays that fail its checks."""

    @pytest.fixture(autouse=True)
    def failing_engine(self, monkeypatch):
        monkeypatch.setattr(theory, "compute_nf", _bad_nf)
        monkeypatch.setattr(theory, "check_certificate", lambda f, k, cert: [0] * k)
        monkeypatch.setattr(theory, "compute_mf", lambda f, k: SimpleNamespace(value=0))
        monkeypatch.setattr(theory, "exact_nf2", lambda f: 0)

    def test_thm23(self):
        report = verify_suite("thm23", SuiteBounds(3, 3, 3))
        assert report.checked == 8
        assert report.mismatches == (
            "(1,2) k=2: expected exact 4, got [0,1] exact=False",
            "(1,3) k=2: certificate 0 under the floor 4",
            "(2,3) k=2: certificate 0 under the floor 4",
            "(1,2) k=3: expected exact 7, got [0,1] exact=False",
            "(1,3) k=3: certificate 0 under the floor 7",
            "(2,3) k=3: certificate 0 under the floor 7",
            "(1,2,3) k=2: expected exact 7, got [0,1] exact=False",
            "(1,2,3) k=3: expected exact 13, got [0,1] exact=False",
        )

    def test_thm31(self):
        report = verify_suite("thm31", SuiteBounds(2, 3, 3))
        assert report.checked == 12
        assert report.mismatches == (
            "(1,1) k=1: expected exact 1, got [0,1] exact=False",
            "(1,1) k=2: expected exact 3, got [0,1] exact=False",
            "(1,1) k=3: expected exact 5, got [0,1] exact=False",
            "(1,2) k=1: expected exact 1, got [0,1] exact=False",
            "(1,2) k=2: expected exact 4, got [0,1] exact=False",
            "(1,2) k=3: expected exact 7, got [0,1] exact=False",
            "(1,3) k=1: certificate 0 under the floor 1",
            "(1,3) k=2: certificate 0 under the floor 4",
            "(1,3) k=3: expected exact 8, got [0,1] exact=False",
            "(2,3) k=1: certificate 0 under the floor 1",
            "(2,3) k=2: certificate 0 under the floor 4",
            "(2,3) k=3: expected exact 8, got [0,1] exact=False",
        )

    def test_lem32(self):
        report = verify_suite("lem32", SuiteBounds(3, 2, 3))
        assert report.checked == 3
        assert report.mismatches == (
            "(1,1,1): table 4 != subset-sum count 0",
            "(1,1,2): table 5 != subset-sum count 0",
            "(1,2,2): table 6 != subset-sum count 0",
        )

    def test_thm41_value(self):
        report = verify_suite("thm41", SuiteBounds(2, 2, 2))
        assert report.checked == 6
        assert report.mismatches == (
            "(1) k=1: expected exact 1, got [0,1] exact=False",
            "(1) k=2: expected exact 2, got [0,1] exact=False",
            "(1,1) k=1: expected exact 1, got [0,1] exact=False",
            "(1,1) k=2: expected exact 3, got [0,1] exact=False",
            "(1,2) k=1: expected exact 1, got [0,1] exact=False",
            "(1,2) k=2: expected exact 4, got [0,1] exact=False",
        )

    def test_thm41_minimizers(self, monkeypatch):
        # The single-unit form (1) is exempt from the uniqueness checks.
        monkeypatch.setattr(theory, "compute_nf", _non_progression_nf)
        report = verify_suite("thm41", SuiteBounds(2, 2, 2))
        assert report.checked == 6
        assert report.mismatches == (
            "(1,1) k=1: minimizers [[0, 1, 3]], expected only the progression",
            "(1,1) k=1: non-progression minimizer found",
            "(1,1) k=2: minimizers [[0, 1, 3]], expected only the progression",
            "(1,1) k=2: non-progression minimizer found",
            "(1,2) k=1: minimizers [[0, 1, 3]], expected only the progression",
            "(1,2) k=1: non-progression minimizer found",
            "(1,2) k=2: minimizers [[0, 1, 3]], expected only the progression",
            "(1,2) k=2: non-progression minimizer found",
        )

    def test_mf_bounds(self):
        report = verify_suite("mf_bounds", SuiteBounds(2, 2, 2))
        assert report.checked == 6
        assert report.mismatches == (
            "(1) k=1: M=0 outside [1,1]",
            "(1) k=1: M=0 under the strict-increase floor 1",
            "(1) k=2: M=0 outside [2,2]",
            "(1) k=2: M=0 under the strict-increase floor 2",
            "(1) k=2: M=0, k^m=2, distinct subset sums=True: equivalence broken",
            "(1,1) k=2: M=0 outside [1,4]",
            "(1,2) k=2: M=0 outside [1,4]",
            "(1,2) k=2: M=0 under the strict-increase floor 2",
            "(1,2) k=2: M=0, k^m=4, distinct subset sums=True: equivalence broken",
        )
