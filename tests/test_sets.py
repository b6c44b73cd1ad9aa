"""Sets: canonical forms, images by the dilate chain, composition vectors."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import oracle_image, oracle_mass_vectors
from linforms import sets
from linforms.errors import (
    CapacityExceeded,
    DuplicateElements,
    EmptyInput,
    InputError,
    ValueOverflow,
)
from linforms.forms import LinearForm, normalize_form
from linforms.sets import (
    KSet,
    canonicalize,
    composition_vectors,
    image,
    image_mask,
    is_arithmetic_progression,
    reflect_canonical,
)

int_sets = st.lists(
    st.integers(min_value=-200, max_value=200), min_size=1, max_size=7, unique=True
)
small_forms = st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=3).map(
    lambda raw: normalize_form(raw)
)
wide_forms = st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=6).map(
    lambda raw: normalize_form(raw)
)


class TestKSet:
    def test_valid(self):
        a = KSet((0, 1, 3))
        assert a.k == 3 and a.diameter == 3
        assert list(a) == [0, 1, 3]
        assert str(a) == "{0,1,3}"

    def test_rejects_empty(self):
        with pytest.raises(EmptyInput):
            KSet(())

    def test_rejects_unsorted_or_dup(self):
        with pytest.raises(DuplicateElements):
            KSet((0, 3, 1))
        with pytest.raises(DuplicateElements):
            KSet((0, 1, 1))

    def test_rejects_noncanonical(self):
        with pytest.raises(InputError):
            KSet((1, 2, 3))
        with pytest.raises(InputError):
            KSet((0, 2, 4))


class TestCanonicalize:
    def test_examples(self):
        assert canonicalize([7, 1, 3]).elems == (0, 1, 3)
        assert canonicalize([0, 2, 4]).elems == (0, 1, 2)
        assert canonicalize([-5]).elems == (0,)
        assert canonicalize([10, -10]).elems == (0, 1)

    def test_duplicate(self):
        with pytest.raises(DuplicateElements):
            canonicalize([1, 1, 2])

    @given(int_sets)
    def test_idempotent(self, xs):
        a = canonicalize(xs)
        assert canonicalize(a.elems).elems == a.elems

    @given(int_sets, st.integers(min_value=-9, max_value=9).filter(bool), st.integers(-50, 50))
    def test_affine_collapse(self, xs, c, d):
        """c*A + d canonicalizes to the same representative as A (c > 0)."""
        a = canonicalize(xs)
        b = canonicalize([c * x + d for x in xs])
        if c > 0:
            assert b.elems == a.elems
        else:
            assert b.elems == reflect_canonical(a).elems

    @given(int_sets.filter(lambda xs: len(xs) >= 2))
    def test_reflect_involution(self, xs):
        a = canonicalize(xs)
        assert reflect_canonical(reflect_canonical(a)).elems == a.elems


class TestAP:
    @pytest.mark.parametrize(
        "elems,ap",
        [
            ((0,), True),
            ((0, 7), True),
            ((0, 2, 4), True),
            ((0, 1, 3), False),
            ((5, 2, 8, 11), True),
            ((0, 1, 2, 4), False),
        ],
    )
    def test_examples(self, elems, ap):
        assert is_arithmetic_progression(elems) is ap


class TestCompositionVectors:
    def test_binary_k2(self):
        assert composition_vectors(LinearForm((1, 2)), 2) == (
            (0, 3),
            (1, 2),
            (2, 1),
            (3, 0),
        )

    def test_repeated_coeffs_collapse(self):
        # (1,1): mass splits of 2 units over k slots, order of x_1/x_2 irrelevant
        assert composition_vectors(LinearForm((1, 1)), 2) == ((0, 2), (1, 1), (2, 0))

    def test_count_is_maximum_image(self):
        # distinct subset sums => k^m vectors
        assert len(composition_vectors(LinearForm((1, 2, 4)), 3)) == 27
        # all-ones => binomial counts
        assert len(composition_vectors(LinearForm((1, 1, 1)), 4)) == 20

    def test_capacity_count(self, monkeypatch):
        # seven distinct coefficients at k=30: up to 30^7 vectors
        monkeypatch.setattr(sets, "_dilate_chain", None)  # building would now fail
        with pytest.raises(CapacityExceeded, match=r"^21870000000 values"):
            composition_vectors(LinearForm((1, 2, 3, 4, 5, 6, 7)), 30)

    def test_capacity_cells(self, monkeypatch):
        # 200^3 = 8e6 vectors, each a 200-tuple decoded from a 600-bit
        # value: the byte cap refuses before the chain runs.
        monkeypatch.setattr(sets, "_dilate_chain", None)
        with pytest.raises(CapacityExceeded, match=r"^8000000 values of 600 bits"):
            composition_vectors(LinearForm((1, 2, 4)), 200)

    def test_capacity_message_gives_bits(self):
        # 1300^1399 vectors: a count of over 4,300 decimal digits, too many for str().
        with pytest.raises(CapacityExceeded, match=r"^over 2\^14471 values of \d+ bits"):
            composition_vectors(LinearForm(tuple(range(1, 1400))), 1300)

    def test_bad_k(self):
        with pytest.raises(EmptyInput):
            composition_vectors(LinearForm((1, 2)), 0)

    @given(small_forms, st.integers(min_value=1, max_value=5))
    def test_matches_oracle(self, f, k):
        assert composition_vectors(f, k) == oracle_mass_vectors(f.coeffs, k)

    @given(small_forms, st.integers(min_value=1, max_value=4))
    def test_rows_sum_to_u_total_mass(self, f, k):
        """Each vector distributes exactly the coefficient multiset's mass."""
        for vec in composition_vectors(f, k):
            assert sum(vec) == f.u_total
            assert len(vec) == k


class TestImages:
    def test_example_1_3_on_013(self):
        assert image(LinearForm((1, 3)), [0, 1, 3]) == (0, 1, 3, 4, 6, 9, 10, 12)

    def test_example_1_1_on_013(self):
        assert len(image(LinearForm((1, 1)), [0, 1, 3])) == 6

    def test_negative_elements_fine(self):
        vs = image(LinearForm((1, 2)), [-3, 0, 2])
        assert vs[0] == -9 and vs[-1] == 6

    def test_overflow_guard(self):
        with pytest.raises(ValueOverflow):
            image(LinearForm((1, 1)), [0, 2**62])

    def test_overflow_message_gives_bits(self):
        # 3 * 10^5000 has over 4,300 decimal digits, too many for str().
        with pytest.raises(ValueOverflow, match=r"^\|f\| can reach a 16612-bit value"):
            image(LinearForm((1, 2)), [0, 10**5000])

    @given(wide_forms, st.lists(st.integers(-200, 200), min_size=1, max_size=5, unique=True))
    def test_matches_oracle(self, f, xs):
        assert image(f, xs) == tuple(sorted(oracle_image(f.coeffs, xs)))

    def test_capacity(self, monkeypatch):
        # (1, 2, 4) on 300 elements could take 300^3 values, but on a
        # progression at most 7 * 299 + 1: that one is built, fifth
        # powers are refused before the chain runs.
        f = LinearForm((1, 2, 4))
        assert len(image(f, range(300))) == 7 * 299 + 1
        monkeypatch.setattr(sets, "_dilate_chain", None)
        with pytest.raises(CapacityExceeded, match=r"^27000000 values of 44 bits"):
            image(f, [a**5 for a in range(300)])

    @given(
        small_forms,
        st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=6, unique=True),
    )
    def test_mask_agrees_on_nonnegative(self, f, xs):
        mask = image_mask(f, sorted(xs))
        want = oracle_image(f.coeffs, xs)
        assert mask.bit_count() == len(want)
        assert {n for n in range(mask.bit_length()) if (mask >> n) & 1} == want

    def test_mask_rejects_negative(self):
        # A negative element anywhere, not only first, is refused rather
        # than left to fail as a negative shift count.
        for elems in ([-1, 0, 2], [3, -1]):
            with pytest.raises(ValueOverflow):
                image_mask(LinearForm((1, 2)), elems)
        assert image_mask(LinearForm((1, 2)), []) == 0

    @given(small_forms, int_sets, st.integers(min_value=-9, max_value=9).filter(bool), st.integers(-20, 20))
    def test_affine_invariance_of_size(self, f, xs, c, d):
        assert len(image(f, xs)) == len(image(f, [c * x + d for x in xs]))
