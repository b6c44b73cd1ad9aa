"""Forms: normalization, subset sums, completeness, enumeration."""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from linforms.errors import (
    CapacityExceeded,
    EmptyCoefficients,
    InputError,
    NonPositiveCoefficient,
    NotCoprime,
)
from linforms.forms import (
    LinearForm,
    enumerate_complete,
    enumerate_normalized,
    has_distinct_subset_sums,
    is_complete,
    normalize_form,
    parse_coeffs,
    subset_sums,
)

coeff_lists = st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=6)


class TestLinearForm:
    def test_properties(self):
        f = LinearForm((1, 2, 3))
        assert f.m == 3
        assert f.u_total == 6
        assert f.strictly_increasing
        assert str(f) == "(1,2,3)"

    def test_ties_not_strictly_increasing(self):
        assert not LinearForm((1, 1, 2)).strictly_increasing

    def test_rejects_empty(self):
        with pytest.raises(EmptyCoefficients):
            LinearForm(())

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveCoefficient):
            LinearForm((1, 0))

    @pytest.mark.parametrize("coeffs", [(True, 3), (1.5, 2), (1, 2.0), ("1", 2)])
    def test_rejects_non_integers(self, coeffs):
        # A bool would print and serialize as true; a float would reach math.gcd.
        with pytest.raises(NonPositiveCoefficient, match="positive integers"):
            LinearForm(coeffs)

    def test_rejects_unsorted(self):
        with pytest.raises(InputError):
            LinearForm((2, 1))

    def test_rejects_common_factor(self):
        with pytest.raises(NotCoprime):
            LinearForm((2, 4))


class TestNormalize:
    def test_sorts_and_reduces(self):
        f = normalize_form([6, 2, 4])
        assert f.coeffs == (1, 2, 3)

    def test_already_normal(self):
        assert normalize_form([1, 3]).coeffs == (1, 3)

    def test_scaled_inputs_are_one_form(self):
        # Order and scaling leave |f(A)| unchanged, so they leave no trace.
        assert parse_coeffs("2,6") == parse_coeffs("3,1") == LinearForm((1, 3))
        assert len({parse_coeffs("2,6"), parse_coeffs("1,3")}) == 1

    def test_rejects_bool_and_nonint(self):
        with pytest.raises(NonPositiveCoefficient):
            normalize_form([True, 2])
        with pytest.raises(NonPositiveCoefficient):
            normalize_form([1.5, 2])

    def test_capacity_cap(self):
        with pytest.raises(CapacityExceeded):
            normalize_form([1, 10**7])

    @given(coeff_lists)
    def test_idempotent(self, raw):
        f = normalize_form(raw)
        again = normalize_form(f.coeffs)
        assert again == f

    @given(coeff_lists, st.integers(min_value=1, max_value=9))
    def test_scaling_invariance(self, raw, c):
        assert normalize_form(raw).coeffs == normalize_form([c * u for u in raw]).coeffs


class TestParse:
    def test_parses(self):
        assert parse_coeffs("3, 1 ,2").coeffs == (1, 2, 3)

    def test_empty(self):
        with pytest.raises(EmptyCoefficients):
            parse_coeffs("")

    def test_garbage(self):
        with pytest.raises(NonPositiveCoefficient):
            parse_coeffs("1,x")

    @pytest.mark.parametrize("text", ["1_0,3", "+3,1", "\uff11,\uff12", "1,-", "--1,2", "0x10,1"])
    def test_only_ascii_digits(self, text):
        # int() takes underscores, a plus sign and non-ASCII digits; a
        # coefficient is an optional "-" and ASCII digits only.
        with pytest.raises(NonPositiveCoefficient, match="^not an integer coefficient: "):
            parse_coeffs(text)

    def test_zero_and_negative_keep_their_messages(self):
        for text, shown in [("0,1", "0"), ("-0,1", "0"), ("-3,1", "-3")]:
            with pytest.raises(NonPositiveCoefficient, match=f"positive integers, got {shown}$"):
                parse_coeffs(text)
        assert parse_coeffs(" 010 ,3").coeffs == (3, 10)


class TestSubsetSums:
    def test_example_1_3(self):
        s = subset_sums(LinearForm((1, 3)))
        assert s.to_list() == [0, 1, 3, 4]
        assert len(s) == 4
        assert 3 in s and 2 not in s and -1 not in s and 5 not in s
        assert list(s) == [0, 1, 3, 4]

    def test_example_1_2_3(self):
        assert subset_sums(LinearForm((1, 2, 3))).to_list() == [0, 1, 2, 3, 4, 5, 6]

    def test_matches_bruteforce(self):
        import itertools

        for coeffs in [(1,), (1, 1), (1, 4), (2, 3), (1, 2, 5), (1, 1, 3), (3, 4, 5)]:
            want = sorted(
                {
                    sum(c)
                    for r in range(len(coeffs) + 1)
                    for c in itertools.combinations(coeffs, r)
                }
            )
            assert subset_sums(LinearForm(coeffs)).to_list() == want

    @given(coeff_lists.map(lambda raw: normalize_form(raw)))
    def test_symmetry(self, f):
        """n is a subset sum exactly when u_total - n is (complement)."""
        s = subset_sums(f)
        for n in range(f.u_total + 1):
            assert (n in s) == ((f.u_total - n) in s)

    @given(coeff_lists.map(lambda raw: normalize_form(raw)))
    def test_size_bounds(self, f):
        s = subset_sums(f)
        assert 0 in s and f.u_total in s
        assert f.m + 1 <= len(s) <= min(2**f.m, f.u_total + 1)


class TestCompleteness:
    @pytest.mark.parametrize(
        "coeffs,complete",
        [
            ((1,), True),
            ((1, 1), True),
            ((1, 2), True),
            ((1, 3), False),
            ((1, 1, 3), True),
            ((1, 2, 4), True),
            ((1, 2, 5), False),
            ((2, 3), False),
        ],
    )
    def test_examples(self, coeffs, complete):
        assert is_complete(LinearForm(coeffs)) is complete

    @pytest.mark.parametrize(
        "coeffs,distinct",
        [((1,), True), ((1, 2), True), ((1, 2, 4), True), ((1, 1), False), ((1, 2, 3), False)],
    )
    def test_distinct_subset_sums(self, coeffs, distinct):
        assert has_distinct_subset_sums(LinearForm(coeffs)) is distinct

    def test_powers_of_two_distinct_and_complete(self):
        f = LinearForm((1, 2, 4, 8, 16))
        assert has_distinct_subset_sums(f)
        assert is_complete(f)


class TestEnumerate:
    def test_binary_count(self):
        forms = list(enumerate_normalized(2, 4))
        assert [f.coeffs for f in forms] == [
            (1, 1),
            (1, 2),
            (1, 3),
            (1, 4),
            (2, 3),
            (3, 4),
        ]

    def test_strict(self):
        forms = list(enumerate_normalized(3, 4, strictly_increasing=True))
        assert [f.coeffs for f in forms] == [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]

    def test_all_normalized(self):
        for f in enumerate_normalized(3, 5):
            assert f.coeffs == tuple(sorted(f.coeffs))
            assert math.gcd(*f.coeffs) == 1

    @pytest.mark.parametrize("strict", [False, True])
    def test_matches_product_oracle(self, strict):
        for m in range(1, 6):
            for max_coeff in range(0, 9):
                oracle = sorted(
                    t
                    for t in itertools.product(range(1, max_coeff + 1), repeat=m)
                    if all(a < b if strict else a <= b for a, b in zip(t, t[1:]))
                    and math.gcd(*t) == 1
                )
                got = [f.coeffs for f in enumerate_normalized(m, max_coeff, strict)]
                assert got == oracle, (m, max_coeff)

    @pytest.mark.parametrize("m", [0, -1])
    def test_needs_a_variable(self, m):
        with pytest.raises(InputError, match="need m >= 1"):
            enumerate_normalized(m, 4)
        with pytest.raises(InputError, match="need m >= 1"):
            enumerate_complete(m, 4)

    def test_complete_matches_the_filter(self):
        # Brown's criterion generates exactly the complete normalized
        # forms, in enumerate_normalized's order.
        for m in range(1, 6):
            for max_coeff in range(0, 11):
                want = [f for f in enumerate_normalized(m, max_coeff) if is_complete(f)]
                assert list(enumerate_complete(m, max_coeff)) == want, (m, max_coeff)
        assert [f.coeffs for f in enumerate_complete(3, 3)] == [
            (1, 1, 1),
            (1, 1, 2),
            (1, 1, 3),
            (1, 2, 2),
            (1, 2, 3),
        ]
