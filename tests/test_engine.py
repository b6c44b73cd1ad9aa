"""Engine: certificates, exhaustive search, certified minima, exact maxima."""

from __future__ import annotations

import dataclasses
import itertools
import math
import sys
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import oracle_image_size, oracle_mass_vectors, oracle_min
import linforms
from linforms import engine, sets
from linforms.certificate import (
    binary_nf3_certificate,
    check_certificate,
    lower_certificate,
    split_recursion,
)
from linforms.engine import (
    NfConfig,
    clear_search_memo,
    compute_mf,
    compute_nf,
    enumerate_minimizers,
    exact_nf2,
    search_min,
)
from linforms.errors import (
    BadCertificate,
    BudgetExceeded,
    CapacityExceeded,
    DiameterTooSmall,
    InputError,
    NotBinary,
    NotCertifiedExact,
    ValueOverflow,
)
from linforms.forms import LinearForm, enumerate_normalized, normalize_form
from linforms.sets import image


class TestExactNf2:
    @pytest.mark.parametrize(
        "coeffs,want",
        [((1,), 2), ((1, 1), 3), ((1, 2), 4), ((1, 3), 4), ((2, 3), 4), ((1, 1, 1), 4), ((1, 2, 4), 8)],
    )
    def test_examples(self, coeffs, want):
        assert exact_nf2(LinearForm(coeffs)) == want

    def test_matches_two_set_oracle(self):
        for m in (1, 2, 3):
            for f in enumerate_normalized(m, 5):
                assert exact_nf2(f) == oracle_image_size(f.coeffs, (0, 1))


def test_public_names_resolve():
    for name in linforms.__all__:
        assert hasattr(linforms, name), name


class TestLowerCertificate:
    def test_k1_trivial(self):
        c = lower_certificate(LinearForm((1, 3)), 1)
        assert (c.bound, c.splits) == (1, (None,))

    def test_k2_subset_sums(self):
        c = lower_certificate(LinearForm((1, 3)), 2)
        assert (c.bound, c.nf2, c.splits) == (4, 4, (None, None))

    def test_block_example(self):
        # (1,2) has no 3-set base: every size splits off a 2-block.
        c = lower_certificate(LinearForm((1, 2)), 5)
        assert (c.bound, c.nf2, c.nf3) == (13, 4, None)
        assert c.splits == (None, None, 2, 2, 2)

    def test_longer_blocks_help(self):
        # With the exact 3-set value 8 available, k=5 jumps from 13 to 15.
        assert lower_certificate(LinearForm((1, 3)), 5, max_base=2).bound == 13
        c = lower_certificate(LinearForm((1, 3)), 5)
        assert (c.nf3, c.splits[-1], c.bound) == (8, 3, 15)

    def test_remainder_uses_best_known_rung(self):
        # k=6: two 3-blocks and one 2-block.
        c = lower_certificate(LinearForm((1, 3)), 6)
        assert c.bound == 2 * 7 + 4

    def test_bad_k(self):
        with pytest.raises(InputError):
            lower_certificate(LinearForm((1, 2)), 0)
        with pytest.raises(InputError):
            check_certificate(LinearForm((1, 2)), 0, lower_certificate(LinearForm((1, 2)), 1))

    @given(
        st.integers(min_value=3, max_value=40),
        st.integers(min_value=3, max_value=9),
        st.integers(min_value=5, max_value=17),
    )
    def test_dominates_unrefined(self, k, nf2, nf3):
        """Split bound >= ceil(((lam-1)k)/(ell-1)) - lam + 2 per base size."""
        # An exact 3-set value is at least the 2-block bound 2*nf2 - 1.
        nf3 = max(nf3, 2 * nf2 - 1)
        bound = split_recursion(nf2, nf3, k)[0][-1]
        for ell, lam in ((2, nf2), (3, nf3)):
            unrefined = -(-((lam - 1) * k) // (ell - 1)) - lam + 2
            assert bound >= unrefined

    def test_json_fields(self):
        c = lower_certificate(LinearForm((1, 3)), 5)
        assert c.to_json() == {"nf2": 4, "nf3": 8, "splits": [None, None, None, 2, 3]}

    @given(
        st.lists(st.integers(1, 6), min_size=1, max_size=4)
        .map(lambda c: tuple(sorted(c)))
        .filter(lambda t: math.gcd(*t) == 1),
        st.integers(min_value=1, max_value=7),
        st.sampled_from([2, 4]),
    )
    def test_checker_accepts_real_and_rejects_tampered(self, coeffs, k, ladder):
        f = LinearForm(coeffs)
        cert = compute_nf(f, k, NfConfig(diameter=k + 2, ladder_max_ell=ladder)).certificate
        check_certificate(f, k, cert)

        def rejected(**change):
            with pytest.raises(BadCertificate):
                check_certificate(f, k, dataclasses.replace(cert, **change))

        rejected(bound=cert.bound + 1)
        rejected(nf2=cert.nf2 + 1)
        if f.m != 2 or coeffs[1] < 3:
            rejected(nf3=8)
        if cert.splits[-1] is None:
            return  # k is a base size
        head = cert.splits[:-1]
        bounds = split_recursion(cert.nf2, cert.nf3, k - 1)[0]
        for a in (None, 1, k, *range(2, k)):
            if a in range(2, k) and bounds[a - 1] + bounds[k - a] - 1 == cert.bound:
                continue  # another split to the same bound is a valid certificate
            rejected(splits=(*head, a))

    def test_checker_rejects_nf3_outside_the_case_analysis(self):
        for coeffs in ((1, 1), (1, 2), (1, 2, 3)):
            f = LinearForm(coeffs)
            cert = lower_certificate(f, 3)
            with pytest.raises(BadCertificate, match="3-set value 8"):
                check_certificate(f, 3, dataclasses.replace(cert, nf3=8, splits=(None,) * 3))


class TestBinaryNf3Certificate:
    @pytest.mark.parametrize("coeffs", [(1, 3), (2, 3), (1, 4), (3, 4), (2, 5), (1, 5)])
    def test_general_binaries(self, coeffs):
        c = binary_nf3_certificate(LinearForm(coeffs))
        assert c is not None
        assert (c.bound, c.nf3, c.splits) == (8, 8, (None, None, None))
        assert c.nf2 == exact_nf2(LinearForm(coeffs))
        check_certificate(LinearForm(coeffs), 3, c)

    @pytest.mark.parametrize("coeffs", [(1, 1), (1, 2)])
    def test_first_cases_excluded(self, coeffs):
        assert binary_nf3_certificate(LinearForm(coeffs)) is None

    def test_not_binary(self):
        with pytest.raises(NotBinary):
            binary_nf3_certificate(LinearForm((1, 2, 3)))

    def test_witness_attains_eight(self):
        for coeffs in [(1, 3), (2, 3), (1, 4), (3, 4), (2, 5), (1, 5)]:
            u1, u2 = coeffs
            assert oracle_image_size(coeffs, (0, u1, u2)) == 8


class TestSearchMin:
    def test_frozen_binary(self):
        out = search_min(LinearForm((1, 3)), 3, 9)
        assert out.best == 8
        assert [w.elems for w in out.witnesses] == [(0, 1, 3), (0, 1, 4)]
        assert out.nodes == 25
        assert not out.witness_overflow

    def test_frozen_binary_k4(self):
        out = search_min(LinearForm((1, 3)), 4, 12)
        assert out.best == 12
        assert [w.elems for w in out.witnesses] == [(0, 1, 3, 4)]
        assert out.nodes == 161

    def test_frozen_progression_case(self):
        out = search_min(LinearForm((1, 2)), 4, 6)
        assert out.best == 10
        assert [w.elems for w in out.witnesses] == [(0, 1, 2, 3)]

    def test_best_from_later_first_gap_prunes_the_rest(self):
        # The minimizer has a_1 = 2; later subtrees are pruned by its value.
        out = search_min(LinearForm((2, 3)), 6, 14)
        assert out.best == 22
        assert [w.elems for w in out.witnesses] == [(0, 2, 3, 5, 6, 8)]
        assert out.nodes == 851

    def test_visits_one_of_each_mirror_pair(self):
        def visits(k, diameter):
            # 1 (the root) + each prefix of length >= 2 of a set whose
            # first gap is at most its last gap, by brute force
            prefixes = set()
            for rest in itertools.combinations(range(1, diameter + 1), k - 1):
                elems = (0, *rest)
                if elems[1] <= elems[-1] - elems[-2]:
                    prefixes.update(elems[:j] for j in range(2, k + 1))
            return 1 + len(prefixes)

        for k in range(2, 7):
            never = [-(10**9)] * k  # completion bounds that never prune
            for diameter in range(k - 1, k + 9):
                want = visits(k, diameter)
                assert engine._explore_binary(1, 2, k, diameter, never, None)[2] == want
                assert engine._explore_general((1, 2, 3), k, diameter, never, None)[2] == want
                # u_total = 1: every k-set has k values, so all tie and none is pruned
                assert search_min(LinearForm((1,)), k, diameter).nodes == want

    def test_k1(self):
        out = search_min(LinearForm((1, 2)), 1, 0)
        assert out.best == 1 and out.witnesses[0].elems == (0,)

    def test_diameter_too_small(self):
        with pytest.raises(DiameterTooSmall):
            search_min(LinearForm((1, 2)), 4, 2)

    def test_bits_cap(self):
        with pytest.raises(CapacityExceeded):
            search_min(LinearForm((1, 999_999)), 2, 11)

    def test_bits_cap_counts_the_mask_tables(self, monkeypatch):
        # One image of 36 * 200,000 + 1 bits fits, but the frame of the
        # sets {0, a_1}, 2^8 sub-multiset masks and 36 group masks, does not.
        f = LinearForm((1, 2, 3, 4, 5, 6, 7, 8))
        assert f.u_total * 200_000 + 1 <= engine.SEARCH_BITS_CAP
        monkeypatch.setattr(engine, "_search", None)  # a search would now fail
        with pytest.raises(CapacityExceeded, match=r"need 1062000585 bits"):
            search_min(f, 3, 200_000)

    def test_bits_cap_counts_the_root_frame(self, monkeypatch):
        # Every mask of the root {0} is {0}, but there are 2^30 + 465 of
        # them; the cap refuses before the layout is built.
        f = LinearForm(tuple(range(1, 31)))
        monkeypatch.setattr(engine, "_search", None)
        monkeypatch.setattr(engine, "_frame_layout", None)
        with pytest.raises(CapacityExceeded, match=r"need 1073742755 bits"):
            search_min(f, 2, 1)

    def test_bits_cap_near_one_image(self):
        # A 2-set search keeps the root's one-bit masks and one image at a
        # time, so an image that nearly fills the cap is still searched.
        f = LinearForm(tuple(range(1, 11)))
        assert f.u_total * 181_790 + 1 > 0.9998 * engine.SEARCH_BITS_CAP
        out = search_min(f, 2, 181_790)
        assert (out.best, out.nodes) == (56, 181_791)

    def test_frame_bits_counts_the_layout(self):
        # _frame_bits sums the masks _frame_layout numbers, without building them.
        for coeffs in ((1, 2, 3), (1, 1, 1, 2), (2, 2, 2, 3), (1, 4, 4, 4), (1, 1, 2, 3, 5)):
            f = LinearForm(coeffs)
            steps, horner = engine._frame_layout(coeffs)
            sums = [0]
            for pairs in steps[1:]:
                j, v = pairs[0]
                sums.append(sums[j] + v)
            groups = list(itertools.accumulate(d for d, _ in horner))
            assert len(groups) == exact_nf2(f) - 1
            assert all(sums[i] == w for w, (_, members) in zip(groups, horner) for i in members)
            for width in (0, 1, 7, 30):
                want = sum(s * width + 1 for s in sums) + sum(w * width + 1 for w in groups)
                assert engine._frame_bits(f, width) == want

    def test_bits_bound_the_masks_kept(self):
        # At every return from the general kernel's deepest level, the
        # tables and groups of the frames on the stack plus the last image
        # fit the count the cap checks.
        f, k, diameter = LinearForm((1, 2, 2, 3)), 4, 9
        peak = 0

        def profile(frame, event, arg):
            nonlocal peak
            if event != "return" or frame.f_code.co_name != "rec":
                return
            bits = frame.f_locals.get("Me", 0).bit_length()
            while frame is not None:
                if frame.f_code.co_name == "rec":
                    local = frame.f_locals
                    bits += sum(M.bit_length() for M in local["table"])
                    bits += sum(G.bit_length() for _, G in local["grouped"])
                frame = frame.f_back
            peak = max(peak, bits)

        sys.setprofile(profile)
        try:
            search_min(f, k, diameter)
        finally:
            sys.setprofile(None)
        assert 0 < peak <= engine._search_bits(f, k, diameter)

    def test_bits_bound_the_binary_masks_kept(self):
        # At every return from the binary kernel, D1, D2 and M of the
        # frames on the stack, and the masks of the returning frame's
        # last child, fit the count the cap checks; they span more bits
        # than one image.
        peak = 0

        def profile(frame, event, arg):
            nonlocal peak
            if event != "return" or frame.f_code.co_name != "rec":
                return
            masks = {}
            while frame is not None:
                if frame.f_code.co_name == "rec":
                    for name in ("D1", "D2", "M", "D1e", "Me"):
                        M = frame.f_locals.get(name)
                        if M is not None:
                            masks[id(M)] = M.bit_length()
                frame = frame.f_back
            peak = max(peak, sum(masks.values()))

        for coeffs, k, diameter in (((1, 3), 5, 9), ((2, 5), 4, 12)):
            f = LinearForm(coeffs)
            peak = 0
            clear_search_memo()
            sys.setprofile(profile)
            try:
                search_min(f, k, diameter)
            finally:
                sys.setprofile(None)
            assert f.u_total * diameter + 1 < peak <= engine._search_bits(f, k, diameter)
        assert engine._search_bits(LinearForm((1, 99)), 10, 100) == 180_030

    def test_witness_cap_overflow_flag(self):
        out = search_min(LinearForm((1, 3)), 3, 9, witness_cap=1)
        assert out.best == 8
        assert [w.elems for w in out.witnesses] == [(0, 1, 3)]
        assert out.witness_overflow

    def test_negative_witness_cap_is_input_error(self):
        # A negative cap would slice from the end and drop minimizers.
        with pytest.raises(InputError, match="witness cap >= 0, got -1"):
            search_min(LinearForm((1, 3)), 3, 9, witness_cap=-1)
        out = search_min(LinearForm((1, 3)), 3, 9, witness_cap=0)
        assert out.best == 8 and out.witnesses == () and out.witness_overflow

    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceeded) as info:
            search_min(LinearForm((1, 3)), 4, 12, node_budget=5)
        assert info.value.nodes == 6

    def test_negative_budget_is_input_error(self):
        with pytest.raises(InputError, match="node budget >= 0, got -1"):
            search_min(LinearForm((1, 3)), 4, 12, node_budget=-1)
        with pytest.raises(InputError, match="node budget >= 0, got -1"):
            compute_nf(LinearForm((1, 3)), 4, NfConfig(node_budget=-1))
        with pytest.raises(BudgetExceeded):
            compute_nf(LinearForm((1, 3)), 4, NfConfig(node_budget=0))

    def test_budget_stop_on_gcd_skipped_leaf(self):
        # Node 9 is {0, 2, 4}: a last element that keeps the gcd at 2 is
        # counted, so the budget still stops the search there.
        assert search_min(LinearForm((1, 2, 3)), 3, 6).nodes == 13
        clear_search_memo()
        with pytest.raises(BudgetExceeded) as info:
            search_min(LinearForm((1, 2, 3)), 3, 6, node_budget=8)
        assert info.value.nodes == 9
        assert str(info.value) == "node budget 8 exhausted (9 nodes)"

    @given(
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=0, max_value=6),
        st.sampled_from(["split", "never", "budget"]),
        st.integers(min_value=1, max_value=200),
    )
    def test_general_kernel_matches_binary(self, u1, extra, k, slack, bounds, budget):
        # Raw witness lists are compared, so the visiting order must agree too.
        u2 = u1 + extra
        diameter = k - 1 + slack
        if bounds == "never":
            cb = [-(10**9)] * k
        else:
            nf2 = len({0, u1, u2, u1 + u2})  # the kernels take forms with any gcd
            cb = engine._completion_bounds(nf2, None, k)
        limit = budget if bounds == "budget" else None

        def run(explore, *coeffs):
            try:
                return explore(*coeffs, k, diameter, cb, limit)
            except BudgetExceeded as exc:
                return exc.nodes

        assert run(engine._explore_general, (u1, u2)) == run(engine._explore_binary, u1, u2)

    def test_repeated_runs_identical(self):
        runs = []
        for _ in range(3):
            clear_search_memo()
            runs.append(search_min(LinearForm((1, 2, 3)), 4, 12))
        assert runs[0] == runs[1] == runs[2]
        assert runs[0].nodes == 58
        assert search_min(LinearForm((1, 2, 3)), 4, 12) == runs[0]

    def test_memo_answers_repeats(self, monkeypatch):
        f = LinearForm((1, 3))
        cold = search_min(f, 4, 12)
        monkeypatch.setattr(engine, "_search", None)  # a miss would now fail
        assert search_min(f, 4, 12) == cold

    def test_memo_keys_ladder(self):
        # The search always prunes with the 3-set value 8 of (1,3), so the
        # memo key has no ladder axis.
        clear_search_memo()
        assert search_min(LinearForm((1, 3)), 6, 20).nodes == 761
        assert list(engine._search_memo) == [((1, 3), 6, 20)]

    def test_memo_entry_bound(self, monkeypatch):
        monkeypatch.setattr(engine, "SEARCH_MEMO_ENTRIES", 2)
        f = LinearForm((1, 3))
        for k in (2, 3, 4):
            search_min(f, k, 9)
        assert [key[1] for key in engine._search_memo] == [3, 4]

    def test_memo_shared_by_threads(self, monkeypatch):
        # One entry and cheap k=2 searches: nearly every call evicts, so
        # unsynchronised threads would delete the same oldest key twice.
        monkeypatch.setattr(engine, "SEARCH_MEMO_ENTRIES", 1)
        f = LinearForm((1, 3))
        want = {d: search_min(f, 2, d) for d in range(1, 41)}
        errors = []

        def worker(seed: int) -> None:
            try:
                for i in range(1500):
                    d = 1 + (seed + i) % 40
                    assert search_min(f, 2, d) == want[d]
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(engine._search_memo) == 1

    @given(
        st.lists(st.integers(1, 4), min_size=1, max_size=3)
        .map(lambda c: tuple(sorted(c)))
        .filter(lambda t: math.gcd(*t) == 1),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=4),
        st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
        st.one_of(st.none(), st.integers(min_value=0, max_value=300)),
    )
    def test_memo_hit_equals_cold_run(self, coeffs, k, slack, cap, budget):
        f = LinearForm(coeffs)
        diameter = f.u_total * (k - 1) // 2 + k - 1 + slack

        def outcome():
            try:
                return search_min(f, k, diameter, witness_cap=cap, node_budget=budget)
            except BudgetExceeded as exc:
                return (str(exc), exc.nodes)

        clear_search_memo()
        cold = outcome()
        clear_search_memo()
        # Unbudgeted, so it completes; its cap of 1 must not shorten the
        # witness list that is remembered.
        search_min(f, k, diameter, witness_cap=1)
        assert outcome() == cold

    def test_matches_oracle_sweep(self):
        cases = [
            (f, k, diameter)
            for f in enumerate_normalized(2, 4)
            for k in (2, 3)
            for diameter in range(k - 1, 9)
        ]
        # Both coefficients >= 2 at k=6: at the larger diameters the
        # minimizers have a_1 >= 2, so the best is found after the a_1 = 1
        # subtree.
        cases += [(LinearForm(c), 6, d) for c in ((2, 3), (2, 5)) for d in range(5, 11)]
        # The general kernel's mask tables: coefficients repeated three
        # times, and five-variable forms.
        cases += [
            (LinearForm(c), k, diameter)
            for c in ((1, 1, 1, 2), (2, 2, 2, 3), (1, 4, 4, 4), (1, 1, 2, 3, 5), (1, 2, 4, 8, 16))
            for k in (2, 3, 4)
            for diameter in range(k - 1, 8)
        ]
        for f, k, diameter in cases:
            got = search_min(f, k, diameter)
            want_best, want_wits = oracle_min(f.coeffs, k, diameter)
            assert got.best == want_best, (f, k, diameter)
            assert tuple(w.elems for w in got.witnesses) == want_wits

    @given(
        st.lists(st.integers(1, 6), min_size=1, max_size=4)
        .map(lambda c: tuple(sorted(c)))
        .filter(lambda t: math.gcd(*t) == 1),
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=0, max_value=6),
    )
    def test_matches_oracle_random(self, coeffs, k, slack):
        # Diameters k-1 .. k+5, odd and even, so equal end gaps occur.
        f = LinearForm(coeffs)
        diameter = k - 1 + slack
        got = search_min(f, k, diameter)
        want_best, want_wits = oracle_min(coeffs, k, diameter)
        assert got.best == want_best
        assert tuple(w.elems for w in got.witnesses) == want_wits


class TestComputeNf:
    def test_exact_binary_k3(self):
        res = compute_nf(LinearForm((1, 3)), 3)
        assert res.exact and res.best == 8 and res.lower == 8
        assert res.certificate.nf3 == 8
        assert [w.elems for w in res.witnesses] == [(0, 1, 3), (0, 1, 4)]

    def test_negative_witness_cap_is_input_error(self):
        with pytest.raises(InputError, match="witness cap >= 0, got -1"):
            compute_nf(LinearForm((1, 3)), 3, NfConfig(witness_cap=-1))

    def test_open_bracket_reported(self):
        res = compute_nf(LinearForm((1, 3)), 4)
        assert not res.exact
        assert (res.lower, res.best) == (11, 12)
        assert res.certificate.splits == (None, None, None, 2)

    def test_minimizer_past_first_gap_one(self):
        res = compute_nf(LinearForm((2, 3)), 6)
        assert (res.lower, res.best, res.exact) == (18, 22, False)
        assert [w.elems for w in res.witnesses] == [(0, 2, 3, 5, 6, 8)]
        assert res.nodes_explored == 6470

    @pytest.mark.parametrize(
        "n, k, best, nodes", [(10, 3, 111, 3081), (9, 4, 136, 7572)]
    )
    def test_many_coefficients_at_default_diameter(self, n, k, best, nodes):
        # 2^n sub-multiset masks per frame still fit the bits cap at the
        # default diameter u_total * (k - 1).
        res = compute_nf(LinearForm(tuple(range(1, n + 1))), k)
        assert (res.lower, res.best, res.exact) == (best, best, True)
        assert [w.elems for w in res.witnesses] == [tuple(range(k))]
        assert res.nodes_explored == nodes

    def test_exact_complete_form(self):
        res = compute_nf(LinearForm((1, 2, 3)), 4)
        assert res.exact and res.best == 19
        assert [w.elems for w in res.witnesses] == [(0, 1, 2, 3)]

    def test_ladder_depth_changes_lower_only(self):
        shallow = compute_nf(LinearForm((1, 3)), 4, NfConfig(ladder_max_ell=2))
        deep = compute_nf(LinearForm((1, 3)), 4)
        assert shallow.best == deep.best == 12
        assert shallow.lower == 10 and deep.lower == 11
        assert shallow.nodes_explored == deep.nodes_explored  # the same search

    def test_custom_diameter(self):
        res = compute_nf(LinearForm((1, 3)), 3, NfConfig(diameter=4))
        assert res.diameter_searched == 4
        assert res.best == 8 and res.exact

    def test_bad_inputs(self):
        with pytest.raises(InputError):
            compute_nf(LinearForm((1, 2)), 0)
        with pytest.raises(DiameterTooSmall):
            compute_nf(LinearForm((1, 2)), 3, NfConfig(diameter=1))

    def test_budget_propagates(self):
        with pytest.raises(BudgetExceeded):
            compute_nf(LinearForm((1, 3)), 5, NfConfig(node_budget=3))

    def test_json_shape(self):
        res = compute_nf(LinearForm((1, 3)), 3)
        out = res.to_json()
        assert list(out) == [
            "coeffs",
            "k",
            "diameter",
            "lower",
            "certificate",
            "best",
            "exact",
            "witnesses",
            "nodes",
        ]
        assert out["coeffs"] == [1, 3]
        assert out["witnesses"] == [[0, 1, 3], [0, 1, 4]]
        assert out["certificate"] == {"nf2": 4, "nf3": 8, "splits": [None, None, None]}

    def test_deterministic_across_runs(self):
        outs = []
        for _ in range(3):
            clear_search_memo()
            outs.append(compute_nf(LinearForm((1, 2, 4)), 4).to_json())
        assert outs[0] == outs[1] == outs[2]
        assert outs[0]["nodes"] == 181
        assert compute_nf(LinearForm((1, 2, 4)), 4).to_json() == outs[0]

    @pytest.mark.parametrize(
        "coeffs,k,nodes", [((1, 5), 6, 17674), ((2, 3, 5), 5, 5552), ((1, 3, 4, 4), 5, 2008)]
    )
    def test_kernel_node_totals(self, coeffs, k, nodes):
        # The benchmark's tiny nf-deep instances: both kernels.
        assert compute_nf(LinearForm(coeffs), k).nodes_explored == nodes

    def test_budget_counts_whole_run(self):
        # The run's one search stops on node budget + 1.
        with pytest.raises(BudgetExceeded) as info:
            compute_nf(LinearForm((2, 5)), 7, NfConfig(node_budget=300_000))
        assert info.value.nodes == 300_001
        assert str(info.value) == f"node budget 300000 exhausted ({info.value.nodes} nodes)"

    def test_one_search_per_run(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(search_min(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(engine, "search_min", counting)
        for coeffs, k in [((1, 3), 2), ((1, 3), 5), ((1, 2, 4), 4), ((2, 3, 5), 5), ((1, 5), 6)]:
            calls.clear()
            res = compute_nf(LinearForm(coeffs), k)
            assert len(calls) == 1, (coeffs, k)
            assert res.nodes_explored == calls[0].nodes

    @given(
        st.lists(st.integers(1, 4), min_size=1, max_size=3)
        .map(lambda c: tuple(sorted(c)))
        .filter(lambda t: math.gcd(*t) == 1),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=2000),
    )
    def test_budget_bounds_nodes(self, coeffs, k, budget):
        f = LinearForm(coeffs)
        free = compute_nf(f, k)
        clear_search_memo()  # the budgeted run must count its nodes afresh
        try:
            res = compute_nf(f, k, NfConfig(node_budget=budget))
        except BudgetExceeded as exc:
            assert free.nodes_explored > budget
            assert exc.nodes <= budget + 1
        else:
            assert res.nodes_explored <= budget
            assert res == free


class TestComputeMf:
    def test_distinct_subset_sums_power(self):
        res = compute_mf(LinearForm((1, 2, 4)), 3)
        assert res.value == 27
        assert res.witness == (1, 13, 169) and res.base == 13

    def test_all_ones_binomial(self):
        res = compute_mf(LinearForm((1, 1, 1)), 4)
        assert res.value == 20 == math.comb(4 + 3 - 1, 3)
        assert res.witness == (1, 4, 16, 64)

    def test_single_variable(self):
        res = compute_mf(LinearForm((1,)), 7)
        assert res.value == 7 and res.base == 2

    def test_witness_reimaged(self):
        for coeffs, k in [((1, 2), 5), ((2, 3, 4), 3), ((1, 1, 2), 4)]:
            res = compute_mf(LinearForm(coeffs), k)
            assert image(LinearForm(coeffs), res.witness).size == res.value

    def test_bad_k(self):
        with pytest.raises(InputError):
            compute_mf(LinearForm((1, 2)), 0)

    def test_value_overflow(self):
        with pytest.raises(ValueOverflow):
            compute_mf(LinearForm((1, 9)), 16)

    def test_never_enumerates_vectors(self, monkeypatch):
        # The maximum is measured on the witness; no vector list is built.
        monkeypatch.setattr(sets, "composition_vectors", None)
        monkeypatch.setattr(engine, "composition_vectors", None)
        for coeffs, k in [((1, 2), 5), ((1, 2, 3), 4), ((1, 1, 2, 3), 3)]:
            assert compute_mf(LinearForm(coeffs), k).value == len(
                oracle_mass_vectors(coeffs, k)
            )

    @given(
        st.lists(st.integers(1, 7), min_size=1, max_size=4).map(normalize_form),
        st.integers(min_value=1, max_value=5),
    )
    def test_value_is_vector_count_and_witness_image(self, f, k):
        res = compute_mf(f, k)
        assert res.value == len(oracle_mass_vectors(f.coeffs, k))
        assert res.value == oracle_image_size(f.coeffs, res.witness)

    def test_six_distinct_coefficients_k10(self):
        res = compute_mf(LinearForm((1, 2, 3, 4, 5, 6)), 10)
        assert (res.value, res.base) == (720_190, 37)
        assert res.witness == tuple(37**i for i in range(10))


class TestEnumerateMinimizers:
    def test_progression_only_for_complete(self):
        assert [w.elems for w in enumerate_minimizers(LinearForm((1, 2)), 5)] == [
            (0, 1, 2, 3, 4)
        ]

    def test_open_bracket_refused(self):
        with pytest.raises(NotCertifiedExact, match=r"\[11, 12\]"):
            enumerate_minimizers(LinearForm((1, 3)), 4)

    def test_wider_diameter_keeps_exactness(self):
        wits = enumerate_minimizers(LinearForm((1, 3)), 3, diameter=20)
        assert {w.elems for w in wits} == {(0, 1, 3), (0, 1, 4)}
