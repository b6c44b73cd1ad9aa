"""Engine: certificates, exhaustive search, certified minima, exact maxima."""

from __future__ import annotations

import collections
import dataclasses
import gc
import inspect
import itertools
import math
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from nf_snapshot import snapshot_lines
from oracles import (
    canonical_ksets,
    collision_events,
    oracle_dfs,
    oracle_image,
    oracle_image_size,
    oracle_mass_vectors,
    oracle_min,
    reflection_reps,
)
import linforms
from linforms import engine, explorer, sets, theory
from linforms.certificate import (
    Certificate,
    binary_nf3_certificate,
    check_certificate,
    lower_certificate,
    split_recursion,
)
from linforms.engine import (
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
        assert split_recursion(4, None, 5)[0][-1] == 13
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
    )
    def test_checker_accepts_real_and_rejects_tampered(self, coeffs, k):
        f = LinearForm(coeffs)
        cert = compute_nf(f, k, diameter=k + 2).certificate
        assert check_certificate(f, k, cert) == split_recursion(cert.nf2, cert.nf3, k)[0]

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

    @pytest.mark.parametrize("k", range(1, 8))
    def test_checker_accepts_weaker_certificate(self, k):
        # Leaving out the 3-set value 8 of (1,3) gives a valid, weaker bound.
        bounds, splits = split_recursion(4, None, k)
        weak = Certificate(bounds[-1], 4, None, splits)
        assert check_certificate(LinearForm((1, 3)), k, weak) == bounds
        assert bounds == [3 * n - 2 for n in range(1, k + 1)]  # (nf2 - 1)(n - 1) + 1

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

    def test_frozen_binary_k4(self):
        out = search_min(LinearForm((1, 3)), 4, 12)
        assert out.best == 12
        assert [w.elems for w in out.witnesses] == [(0, 1, 3, 4)]
        assert out.nodes == 161

    def test_mirror_pairs_at_seven_elements(self):
        # Every set minimizes (1), so the witnesses are one set per mirror
        # pair; from 7 elements on, equal end gaps and equal second gaps
        # leave the third gaps to decide which member comes first.
        for d in (10, 12):
            out = search_min(LinearForm((1,)), 7, d)
            assert [w.elems for w in out.witnesses] == reflection_reps(canonical_ksets(7, d))

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

    def test_witnesses_increase_and_precede_their_mirror_images(self):
        # Each kernel reports a mirror pair once, as its lexicographically
        # smaller member, in the walk's order: the witness list is strictly
        # increasing, and no witness is larger than its mirror image.
        forms = [*enumerate_normalized(1, 1), *enumerate_normalized(2, 4)]
        for f in forms + [*enumerate_normalized(3, 3)]:
            for k in range(2, 6):
                cb = [b - 1 for b in check_certificate(f, k, lower_certificate(f, k))]
                for diameter in (k - 1, k + 2, 2 * k + 3):
                    outs = [engine._explore_general(f.coeffs, k, diameter, cb, None)]
                    if f.m == 2:
                        outs.append(engine._explore_binary(*f.coeffs, k, diameter, cb, None))
                    for _, wits, _ in outs:
                        assert all(a < b for a, b in zip(wits, wits[1:])), (f, k, diameter)
                        for w in wits:
                            assert w <= tuple(w[-1] - x for x in reversed(w)), (f, w)

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
        for name in ("_explore_binary", "_explore_general", "lower_certificate"):
            monkeypatch.setattr(engine, name, None)  # a search would now fail
        with pytest.raises(CapacityExceeded, match=r"need 1062000585 bits"):
            search_min(f, 3, 200_000)

    def test_bits_cap_counts_the_root_frame(self, monkeypatch):
        # Every mask of the root {0} is {0}, but there are 2^30 + 465 of
        # them; the cap refuses before the layout is built.
        f = LinearForm(tuple(range(1, 31)))
        for name in ("_explore_binary", "_explore_general", "lower_certificate", "_frame_layout"):
            monkeypatch.setattr(engine, name, None)
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
        # tables, head groups and tail groups (once built) of the frames on
        # the stack plus the last image fit the count the cap checks.
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
                    bits += sum(G.bit_length() for _, G in local.get("head", ()))
                    bits += sum(G.bit_length() for _, G in local.get("tail") or ())
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
        # frames on the stack, the masks of the returning frame's last
        # child, and the collision filter's packed counts (each frame's
        # and those of the child it last filtered), product, hits and
        # constants fit the count the cap checks; they span more bits
        # than one image.
        masks_kept = ("D1", "D2", "M", "D1e", "Me")
        filter_kept = ("Apoly", "Ppoly", "Qpoly", "Ae", "Pe", "Qe", "N", "hits", "ones", "high")
        peak = 0
        products = 0

        def profile(frame, event, arg):
            nonlocal peak, products
            if event != "return" or frame.f_code.co_name != "rec":
                return
            masks = {}
            while frame is not None:
                if frame.f_code.co_name == "rec":
                    local = frame.f_locals
                    products += "N" in local
                    for name in masks_kept + filter_kept:
                        M = local.get(name)
                        if M is not None:
                            masks[id(M)] = M.bit_length()
                frame = frame.f_back
            peak = max(peak, sum(masks.values()))

        for coeffs, k, diameter in (((1, 3), 5, 9), ((2, 5), 4, 12), ((1, 6), 6, 35)):
            f = LinearForm(coeffs)
            peak = products = 0
            clear_search_memo()
            sys.setprofile(profile)
            try:
                search_min(f, k, diameter)
            finally:
                sys.setprofile(None)
            assert products > 0  # the filter ran
            assert f.u_total * diameter + 1 < peak <= engine._search_bits(f, k, diameter)
        # 3 + 9 * (2 * (100 * 100 + 1) + 1) bits of masks, and fields of
        # _filter_width(10) = 8 bits at positions 0..100: 5 * 10 * 808.
        assert engine._search_bits(LinearForm((1, 99)), 10, 100) == 180_030 + 40_400

    def test_compute_nf_keeps_every_minimizer(self):
        # 530 minimizers, past the 64 the CLI shows: compute_nf keeps the
        # search's whole list, on a repeat too, and at k = 1.
        f = LinearForm((1,))
        out = search_min(f, 4, 20)
        assert len(out.witnesses) == 530
        clear_search_memo()
        assert compute_nf(f, 4, diameter=20).witnesses == out.witnesses
        assert compute_nf(f, 4, diameter=20).witnesses == out.witnesses
        assert [w.elems for w in compute_nf(LinearForm((1, 3)), 1).witnesses] == [(0,)]

    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceeded) as info:
            search_min(LinearForm((1, 3)), 4, 12, node_budget=5)
        assert info.value.nodes == 6

    @pytest.mark.parametrize("coeffs,k", [((1, 3), 1), ((1, 3), 4), ((1, 2, 3), 3)])
    def test_zero_budget_stops_at_the_root(self, coeffs, k):
        # The k = 1 answer, both kernels' first count and a compute_nf
        # memo hit all refuse a budget of 0 on the root {0}.
        f = LinearForm(coeffs)
        clear_search_memo()
        for _ in ("cold", "memo hit"):
            with pytest.raises(BudgetExceeded) as info:
                compute_nf(f, k, diameter=3 * k, node_budget=0)
            assert (str(info.value), info.value.nodes) == ("node budget 0 exhausted (1 nodes)", 1)
            compute_nf(f, k, diameter=3 * k)

    def test_negative_budget_is_input_error(self):
        with pytest.raises(InputError, match="node budget >= 0, got -1"):
            search_min(LinearForm((1, 3)), 4, 12, node_budget=-1)
        with pytest.raises(InputError, match="node budget >= 0, got -1"):
            compute_nf(LinearForm((1, 3)), 4, node_budget=-1)
        with pytest.raises(BudgetExceeded):
            compute_nf(LinearForm((1, 3)), 4, node_budget=0)

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
            cb = [b - 1 for b in split_recursion(nf2, None, k)[0]]
        limit = budget if bounds == "budget" else None

        def run(explore, *coeffs):
            try:
                return explore(*coeffs, k, diameter, cb, limit)
            except BudgetExceeded as exc:
                return exc.nodes

        assert run(engine._explore_general, (u1, u2)) == run(engine._explore_binary, u1, u2)

    def test_searches_leave_no_reference_cycles(self):
        # Each kernel's nested rec refers to itself, as do the spectrum
        # censuses'; each breaks that cycle on return or on a budget stop,
        # so the collector finds nothing.
        def stop(coeffs, k, budget):
            try:
                search_min(LinearForm(coeffs), k, 12, node_budget=budget)
            except BudgetExceeded:
                pass

        runs = [
            lambda: search_min(LinearForm((1, 3)), 5, 12),
            lambda: search_min(LinearForm((1, 2, 3)), 4, 12),
            lambda: stop((1, 3), 5, 500),
            lambda: stop((1, 2, 3), 4, 5),
            lambda: explorer.spectrum(LinearForm((1, 3)), 5),  # the binary census
            lambda: explorer.spectrum(LinearForm((1, 2, 3)), 4),  # the general census
            lambda: explorer.spectrum(LinearForm((1, 2, 3)), 4, 12),  # the chain loop
        ]
        for run in runs:
            run()  # warm-up
        gc.collect()
        gc.disable()
        collected = []
        try:
            for run in runs:
                run()
                collected.append(gc.collect())
        finally:
            gc.enable()
        assert collected == [0] * len(runs)

    def test_repeated_runs_identical(self):
        runs = []
        for _ in range(3):
            clear_search_memo()
            runs.append(search_min(LinearForm((1, 2, 3)), 4, 12))
        assert runs[0] == runs[1] == runs[2]
        assert runs[0].nodes == 58
        assert search_min(LinearForm((1, 2, 3)), 4, 12) == runs[0]

    def test_memo_answers_repeats(self, monkeypatch):
        # A compute_nf hit runs no search and builds no certificate.
        f = LinearForm((1, 3))
        cold = compute_nf(f, 4, diameter=12)
        monkeypatch.setattr(engine, "search_min", None)  # a miss would now fail
        monkeypatch.setattr(engine, "lower_certificate", None)
        assert compute_nf(f, 4, diameter=12) == cold

    def test_memo_keys_ladder(self):
        # The search always prunes with the certificate compute_nf reports,
        # so the memo key has no certificate axis.
        clear_search_memo()
        assert compute_nf(LinearForm((1, 3)), 6, diameter=20).nodes_explored == 761
        assert list(engine._search_memo) == [((1, 3), 6, 20)]

    def test_memo_entry_bound(self, monkeypatch):
        monkeypatch.setattr(engine, "SEARCH_MEMO_ENTRIES", 2)
        f = LinearForm((1, 3))
        for k in (2, 3, 4):
            compute_nf(f, k, diameter=9)
        assert [key[1] for key in engine._search_memo] == [3, 4]

    def test_memo_shared_by_threads(self, monkeypatch):
        # One entry and cheap k=2 searches: nearly every call evicts, so
        # unsynchronised threads would delete the same oldest key twice.
        monkeypatch.setattr(engine, "SEARCH_MEMO_ENTRIES", 1)
        f = LinearForm((1, 3))
        want = {d: compute_nf(f, 2, diameter=d) for d in range(1, 41)}
        errors = []

        def worker(seed: int) -> None:
            try:
                for i in range(1500):
                    d = 1 + (seed + i) % 40
                    assert compute_nf(f, 2, diameter=d) == want[d]
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
        st.one_of(st.none(), st.integers(min_value=0, max_value=300)),
    )
    def test_memo_hit_equals_cold_run(self, coeffs, k, slack, budget):
        f = LinearForm(coeffs)
        diameter = f.u_total * (k - 1) // 2 + k - 1 + slack

        def outcome():
            try:
                return compute_nf(f, k, diameter=diameter, node_budget=budget)
            except BudgetExceeded as exc:
                return (str(exc), exc.nodes)

        clear_search_memo()
        cold = outcome()
        clear_search_memo()
        stored = compute_nf(f, k, diameter=diameter)  # unbudgeted, so it completes
        hit = outcome()
        assert hit == cold
        # A hit within its budget is the stored result itself.
        assert isinstance(hit, tuple) or hit is stored

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


class TestCollisionFilter:
    def test_packed_counts_match_events_and_bound(self):
        # Every prefix {0, ...} of at most 4 elements up to 10 and every
        # candidate e up to 24, for u1 <= 5 and u1 <= u2 <= 8: field e
        # of Apoly * Ppoly + Qpoly is the number of coinciding terms, and
        # the image of A + {e} has at least s + (2n + 1 or n + 1) - N.
        diameter = 24
        width = engine._filter_width(5)
        checks = 0
        for u1 in range(1, 6):
            for u2 in range(u1, 9):
                g = math.gcd(u1, u2)
                p, q = u1 // g, u2 // g
                fresh = 1 if u1 == u2 else 2
                pshift, qstep, _ = engine._collision_tables(p, q, width, diameter)
                for n in range(1, 5):
                    for rest in itertools.combinations(range(1, 11), n - 1):
                        elems = (0, *rest)
                        Apoly = Ppoly = Qpoly = 0
                        for i, y in enumerate(elems):
                            for x in elems[:i]:
                                Ppoly += sum(1 << s for s in pshift[y - x])
                                if (s := y + qstep[y - x]) <= diameter:
                                    Qpoly += 1 << width * s
                            Apoly |= 1 << width * y
                        N = Apoly * Ppoly + Qpoly
                        values = oracle_image((u1, u2), elems)
                        counts = collision_events((u1, u2), elems, diameter)
                        for e, want in counts.items():
                            events = N >> width * e & (1 << width) - 1
                            assert events == want, (u1, u2, elems, e)
                            # f(A + {e}) is f(A) and the values that use e
                            with_e = {u1 * e + u2 * x for x in elems + (e,)}
                            with_e |= {u2 * e + u1 * x for x in elems}
                            grown = len(values | with_e)
                            assert grown >= len(values) + fresh * n + 1 - events, (u1, u2, elems, e)
                            checks += 1
        assert checks == 30 * 2849

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=0, max_value=6),
        st.sampled_from(["split", "never"]),
    )
    @example(1, 0, 4, 3, "split")  # (1,1): n + 1 new terms, not 2n + 1
    @example(3, 0, 6, 5, "split")
    @example(2, 2, 6, 6, "split")  # (2,4): p = 1, q = 2
    def test_binary_kernel_matches_unfiltered_dfs(self, u1, extra, k, slack, bounds):
        # Equal and non-coprime coefficients included; best values and node
        # counts must agree with a search that tests every candidate's
        # image, and witnesses with its own deduplicated by reflection.
        u2 = u1 + extra
        diameter = k - 1 + slack
        if bounds == "never":
            cb = [-(10**9)] * k
        else:
            nf2 = len({0, u1, u2, u1 + u2})
            cb = [b - 1 for b in split_recursion(nf2, None, k)[0]]
        best, raw, nodes = oracle_dfs((u1, u2), k, diameter, cb)
        want = best, reflection_reps(raw), nodes
        assert engine._explore_binary(u1, u2, k, diameter, cb, None) == want
        assert engine._explore_general((u1, u2), k, diameter, cb, None) == want

    @given(
        st.lists(st.integers(1, 4), min_size=3, max_size=4).map(lambda c: tuple(sorted(c))),
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=0, max_value=4),
    )
    @example((1, 2, 3, 4), 5, 3)  # 10 nonzero sums: 3 head groups and a 6-group tail
    @example((1, 1, 1, 1), 5, 4)  # 4 nonzero sums: the inner levels' tail is the constant 1 alone
    def test_general_kernel_matches_unfiltered_dfs(self, coeffs, k, slack):
        # Three- and four-variable forms, so that the head bound's heads
        # and tails are both non-trivial; best values and node counts must
        # agree with a search that tests every candidate's image, and
        # witnesses with its own deduplicated by reflection.
        diameter = k - 1 + slack
        m = len(coeffs)
        nf2 = len({sum(c) for r in range(m + 1) for c in itertools.combinations(coeffs, r)})
        cb = [b - 1 for b in split_recursion(nf2, None, k)[0]]
        best, raw, nodes = oracle_dfs(coeffs, k, diameter, cb)
        want = best, reflection_reps(raw), nodes
        assert engine._explore_general(coeffs, k, diameter, cb, None) == want

    def test_filter_leaves_few_mask_tests(self):
        # (1,11) at k=6 tries 270,000 candidates below the root; the
        # collision filter sends only these to the image-mask test.
        tests = 0

        def profile(frame, event, arg):
            nonlocal tests
            if event == "c_call" and frame.f_code.co_name == "rec":
                tests += getattr(arg, "__name__", "") == "bit_count"

        sys.setprofile(profile)
        try:
            out = search_min(LinearForm((1, 11)), 6, 60)
        finally:
            sys.setprofile(None)
        assert out.nodes == 270_001
        assert tests == 17_544

    def test_parent_enters_only_children_with_candidates(self):
        # (1,11) at k=6: the parent counts and filters each child's
        # candidates, and enters only the children that keep one (17,421
        # frames when every child filtered itself).
        frames = 0

        def profile(frame, event, arg):
            nonlocal frames
            frames += event == "call" and frame.f_code.co_name == "rec"

        sys.setprofile(profile)
        try:
            out = search_min(LinearForm((1, 11)), 6, 60)
        finally:
            sys.setprofile(None)
        assert out.nodes == 270_001
        assert frames == 1_061

    def test_pair_kinds_skip_most_products(self):
        # (1,11) at k=6: a child whose pair-kind count is below thr cannot
        # have a hit, so the parent takes only these products (16,566
        # without the count), and the DFS is unchanged.
        source, first = inspect.getsourcelines(engine._explore_binary)
        line = first + next(i for i, text in enumerate(source) if "N = Ae * Pe + Qe" in text)
        products = 0

        def trace_rec(frame, event, arg):
            nonlocal products
            products += event == "line" and frame.f_lineno == line
            return trace_rec

        sys.settrace(lambda frame, event, arg: trace_rec if frame.f_code.co_name == "rec" else None)
        try:
            out = search_min(LinearForm((1, 11)), 6, 60)
        finally:
            sys.settrace(None)
        assert out.nodes == 270_001
        assert products == 1_779

    def test_pair_kinds_bound_every_count(self):
        # For every two-variable form with coefficients <= 7, every prefix
        # {0, ...} within 10 and every candidate up to the diameter 16, the
        # candidate's event count does not exceed the prefix's pair-kind
        # count, the sum of kinds[y - x] over its pairs, and sometimes meets it.
        diameter = 16
        checks = tight = 0
        for f in enumerate_normalized(2, 7):
            u1, u2 = f.coeffs
            g = math.gcd(u1, u2)
            _, _, kinds = engine._collision_tables(u1 // g, u2 // g, 1, diameter)
            for n in range(1, 11):
                for rest in itertools.combinations(range(1, 11), n - 1):
                    elems = (0, *rest)
                    K = sum(kinds[y - x] for x, y in itertools.combinations(elems, 2))
                    for events in collision_events(f.coeffs, elems, diameter).values():
                        assert events <= K, (f.coeffs, elems)
                        tight += events == K > 0
                        checks += 1
        assert checks == 128_898
        assert tight > 0

    def test_head_bound_leaves_few_full_images(self):
        # (2,5,7) at k=5: every candidate gets the head bound, the first
        # bit_count of its level's loop, once a best exists; only these
        # build the full image and get the exact test, the second (24,123
        # when every candidate built one).  The inner levels and the last
        # one each have a loop; the counts are summed over both.
        calls = collections.Counter()

        def profile(frame, event, arg):
            if event == "c_call" and frame.f_code.co_name == "rec":
                if getattr(arg, "__name__", "") == "bit_count":
                    calls[frame.f_lineno] += 1

        sys.setprofile(profile)
        try:
            out = search_min(LinearForm((2, 5, 7)), 5, 56)
        finally:
            sys.setprofile(None)
        assert out.nodes == 27_156
        lines = sorted(calls)
        assert len(lines) == 4  # (head, full) in each loop
        heads, fulls = lines[0::2], lines[1::2]
        assert [sum(calls[line] for line in role) for role in (heads, fulls)] == [24_119, 3_149]

    def test_head_bound_never_exceeds_the_image(self):
        # For f(A + {e}) = union over subset sums w of S_w = G_w + (u_total - w)e,
        # with G_w the values of the sub-forms of sum w on A: the head, f(A)
        # and the h largest S_w below u_total, plus one value per other sum,
        # never exceeds |f(A + {e})|, for every h.  Prefixes {0, ...} of at
        # most 3 elements within 8, every e up to 12, m in {3, 4} and
        # coefficients <= 5.
        checks = 0
        for m in (3, 4):
            for f in enumerate_normalized(m, 5):
                coeffs, u = f.coeffs, f.u_total
                subforms = [
                    tuple(coeffs[i] for i in idx)
                    for r in range(m + 1)
                    for idx in itertools.combinations(range(m), r)
                ]
                for n in range(1, 4):
                    for rest in itertools.combinations(range(1, 9), n - 1):
                        elems = (0, *rest)
                        groups: dict[int, set[int]] = {}
                        for sub in subforms:
                            groups.setdefault(sum(sub), set()).update(oracle_image(sub, elems))
                        below = sorted(groups, reverse=True)[1:]  # the sums below u_total
                        for e in range(elems[-1] + 1, 13):
                            size = oracle_image_size(coeffs, elems + (e,))
                            head = set(groups[u])
                            for h in range(len(below)):
                                assert len(head) + len(below) - h <= size, (coeffs, elems, e, h)
                                w = below[h]
                                head |= {v + (u - w) * e for v in groups[w]}
                                checks += 1
        assert checks == 167_520


class TestComputeNf:
    def test_matches_the_frozen_snapshot(self):
        """Answers, witnesses and node counts on a fixed grid, byte for byte.

        Regenerate with: PYTHONPATH=src python tests/nf_snapshot.py > tests/data/nf_snapshot.jsonl
        """
        frozen = (Path(__file__).parent / "data" / "nf_snapshot.jsonl").read_text().splitlines()
        assert snapshot_lines() == frozen

    def test_exact_binary_k3(self):
        res = compute_nf(LinearForm((1, 3)), 3)
        assert res.exact and res.best == 8 and res.lower == 8
        assert res.certificate.nf3 == 8
        assert [w.elems for w in res.witnesses] == [(0, 1, 3), (0, 1, 4)]

    def test_over_cap_search_refused_before_the_certificate(self, monkeypatch):
        # The certificate's split recursion is O(k^2); the search's cap is
        # checked first, with search_min's error and message.
        def no_certificate(*args):
            raise AssertionError("certificate built before the cap check")

        monkeypatch.setattr(engine, "lower_certificate", no_certificate)
        with pytest.raises(CapacityExceeded, match=r"^search masks would need 15226182018 bits"):
            compute_nf(LinearForm((1, 2)), 6000)
        with pytest.raises(InputError, match="node budget >= 0, got -1"):
            compute_nf(LinearForm((1, 3)), 3, node_budget=-1)

    @pytest.mark.parametrize("k", [1, 4])
    def test_one_certificate_per_miss(self, monkeypatch, k):
        # search_min builds and replays the certificate it prunes with, and
        # compute_nf reports that one instead of building its own.
        f, built = LinearForm((1, 3)), []

        def counted(*args):
            built.append(args)
            return lower_certificate(*args)

        monkeypatch.setattr(engine, "lower_certificate", counted)
        res = compute_nf(f, k)
        assert built == [(f, k)]
        assert res.certificate == search_min(f, k, res.diameter_searched).certificate

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

    def test_custom_diameter(self):
        res = compute_nf(LinearForm((1, 3)), 3, diameter=4)
        assert res.diameter_searched == 4
        assert res.best == 8 and res.exact

    def test_bad_inputs(self):
        with pytest.raises(InputError):
            compute_nf(LinearForm((1, 2)), 0)
        with pytest.raises(DiameterTooSmall):
            compute_nf(LinearForm((1, 2)), 3, diameter=1)

    def test_budget_propagates(self):
        with pytest.raises(BudgetExceeded):
            compute_nf(LinearForm((1, 3)), 5, node_budget=3)

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

    @pytest.mark.parametrize(
        "coeffs,nodes,witnesses",
        [
            ((1, 6), 31_654, [[0, 1, 2, 6, 7, 8], [0, 1, 6, 7, 12, 13]]),
            ((1, 7), 53_675, [[0, 1, 2, 7, 8, 9], [0, 1, 7, 8, 14, 15]]),
            ((1, 8), 85_693, [[0, 1, 2, 8, 9, 10], [0, 1, 8, 9, 16, 17]]),
            ((1, 9), 130_396, [[0, 1, 2, 9, 10, 11], [0, 1, 9, 10, 18, 19]]),
            ((1, 10), 190_740, [[0, 1, 2, 10, 11, 12], [0, 1, 10, 11, 20, 21]]),
            ((1, 11), 270_001, [[0, 1, 2, 11, 12, 13], [0, 1, 11, 12, 22, 23]]),
            ((2, 5), 55_945, [[0, 2, 4, 5, 7, 9], [0, 2, 5, 7, 10, 12]]),
            ((3, 4), 51_922, [[0, 3, 4, 6, 7, 10], [0, 3, 4, 7, 8, 11]]),
            ((3, 5), 95_725, [[0, 3, 5, 6, 8, 11], [0, 3, 5, 8, 10, 13]]),
            ((4, 5), 129_692, [[0, 4, 5, 8, 9, 13], [0, 4, 5, 9, 10, 14]]),
        ],
    )
    def test_binary_nf_deep_pins(self, coeffs, nodes, witnesses):
        # The benchmark's two-variable nf-deep instances, where the
        # collision filter saves its time: best 24 in the bracket [18, 24].
        res = compute_nf(LinearForm(coeffs), 6)
        assert (res.lower, res.best, res.exact) == (18, 24, False)
        assert [list(w.elems) for w in res.witnesses] == witnesses
        assert res.nodes_explored == nodes

    def test_nf_deep_node_totals(self):
        # Every nf-deep benchmark instance, searched afresh: a total that
        # moves means the kernels visit or prune other sets.
        binary = [(1, 6), (1, 7), (1, 8), (1, 9), (1, 10), (1, 11), (2, 5), (3, 4), (3, 5), (4, 5)]
        general = [
            (1, 5, 5), (1, 5, 6), (1, 6, 6), (1, 6, 7), (2, 2, 7), (2, 5, 6), (2, 5, 7),
            (2, 6, 7), (3, 3, 5), (3, 4, 5), (3, 4, 7), (3, 5, 7), (4, 4, 5), (4, 5, 6),
            (1, 4, 4, 4), (3, 3, 3, 4), (3, 4, 4, 4),
        ]
        clear_search_memo()
        assert sum(compute_nf(LinearForm(c), 6).nodes_explored for c in binary) == 1_095_443
        assert sum(compute_nf(LinearForm(c), 5).nodes_explored for c in general) == 307_578

    def test_budget_counts_whole_run(self):
        # The run's one search stops on node budget + 1.
        with pytest.raises(BudgetExceeded) as info:
            compute_nf(LinearForm((2, 5)), 7, node_budget=300_000)
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

    def test_one_search_per_key_across_callers(self, monkeypatch):
        # Both converse scans and a verify suite share one store: each
        # distinct (coeffs, k, diameter) is searched once, and every
        # answer is that of a cold run.
        parts = (
            lambda: explorer.scan_completeness_converse(2, 6, 4),
            lambda: explorer.scan_ap_minimizer_converse(2, 6, 4),
            lambda: theory.verify_suite("thm31", theory.SuiteBounds(2, 6, 4)),
        )
        cold = []
        for part in parts:
            clear_search_memo()
            cold.append(part())
        clear_search_memo()
        keys = []
        for module in (explorer, theory):

            def received(f, k, *, _nf=module.compute_nf, **kwargs):
                keys.append((f.coeffs, k, engine.search_diameter(f, k, kwargs.get("diameter"))))
                return _nf(f, k, **kwargs)

            monkeypatch.setattr(module, "compute_nf", received)
        searches = []

        def counting(f, k, diameter, **kwargs):
            searches.append((f.coeffs, k, diameter))
            return search_min(f, k, diameter, **kwargs)

        monkeypatch.setattr(engine, "search_min", counting)
        assert [part() for part in parts] == cold
        assert sorted(searches) == sorted(set(keys))
        assert len(set(keys)) < len(keys)  # the callers repeat keys

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
            res = compute_nf(f, k, node_budget=budget)
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
            assert len(image(LinearForm(coeffs), res.witness)) == res.value

    def test_bad_k(self):
        with pytest.raises(InputError):
            compute_mf(LinearForm((1, 2)), 0)

    def test_value_overflow(self):
        with pytest.raises(ValueOverflow):
            compute_mf(LinearForm((1, 9)), 16)

    def test_huge_k_refused_before_any_power(self, monkeypatch):
        # g >= 2, so from k = 64 on the witness g^(k-1) alone is past 63
        # bits; the message gives bits, never thousands of decimal digits.
        assert compute_mf(LinearForm((1,)), 63).value == 63
        with pytest.raises(ValueOverflow, match="a 93-bit value"):
            compute_mf(LinearForm((1, 2)), 40)
        monkeypatch.setattr(engine, "checked_elems", None)  # building the witness would fail
        for k in (64, 7000, 20000):
            with pytest.raises(ValueOverflow, match=f"a value of {k} or more bits"):
                compute_mf(LinearForm((1, 2)), k)

    def test_never_enumerates_vectors(self, monkeypatch):
        # The maximum counts orbits of mass vectors; neither the vectors
        # nor the image of the witness is built.
        monkeypatch.setattr(sets, "composition_vectors", None)
        monkeypatch.setattr(engine, "composition_vectors", None)
        monkeypatch.setattr(engine, "image", None)
        monkeypatch.setattr(sets, "_dilate_chain", None)
        for coeffs, k in [((1, 2), 5), ((1, 2, 3), 4), ((1, 1, 2, 3), 3)]:
            assert compute_mf(LinearForm(coeffs), k).value == len(
                oracle_mass_vectors(coeffs, k)
            )

    @given(
        st.lists(st.integers(1, 7), min_size=1, max_size=5).map(normalize_form),
        st.integers(min_value=1, max_value=6),
    )
    @example(LinearForm((1, 1, 1, 1, 1)), 6)  # one orbit per partition of 5
    @example(LinearForm((1, 1, 2, 2, 3)), 3)  # repeated coefficients, k < m
    @example(LinearForm((2, 3, 3, 5, 7)), 2)  # k < m
    @example(LinearForm((1, 2, 4, 5, 7)), 1)  # k = 1: one vector
    @example(LinearForm((1, 2, 3, 4, 5)), 6)  # k > m
    def test_value_is_vector_count_and_witness_image(self, f, k):
        # The orbit count against the vectors and the witness's image, both
        # by definition.
        res = compute_mf(f, k)
        assert res.value == len(oracle_mass_vectors(f.coeffs, k))
        assert res.value == oracle_image_size(f.coeffs, res.witness)

    def test_image_cap_refuses_before_counting(self, monkeypatch):
        # The cap refuses what the image of the witness would, with the same
        # message, before any orbit is counted.
        f = LinearForm((1, 2, 3))
        witness = compute_mf(f, 4).witness
        monkeypatch.setattr(sets, "IMAGE_BYTES_CAP", 7935)
        with pytest.raises(CapacityExceeded) as refused:
            image(f, witness)
        assert str(refused.value) == "64 values of 13 bits would need 7936 bytes (cap 7935)"
        monkeypatch.setattr(engine, "_count_mass_vectors", None)  # counting would fail
        with pytest.raises(CapacityExceeded) as again:
            compute_mf(f, 4)
        assert str(again.value) == str(refused.value)

    def test_six_distinct_coefficients_k10(self):
        res = compute_mf(LinearForm((1, 2, 3, 4, 5, 6)), 10)
        assert (res.value, res.base) == (720_190, 37)
        assert res.witness == tuple(37**i for i in range(10))


class TestWitnessCap:
    def test_refuses_the_smallest_diameter_over_the_cap(self, monkeypatch):
        # Every k-set minimizes (1), and no set is pruned, so a search keeps
        # one witness per mirror pair of canonical sets.  With the cap
        # patched down to n witnesses, the largest diameter under it
        # answers in full and the next one is refused.  At k = 5 the walk
        # meets both members of some pairs: 986 sets at D = 16, over n,
        # for the 883 pairs that fit.
        f, k, n = LinearForm((1,)), 5, 950

        def reps(diameter):
            return reflection_reps(canonical_ksets(k, diameter))

        top = next(d for d in itertools.count(k - 1) if len(reps(d + 1)) > n)
        per = engine._witness_bytes(k, top + 1)
        assert per == engine._witness_bytes(k, top)
        monkeypatch.setattr(engine, "WITNESS_BYTES_CAP", n * per)
        res = compute_nf(f, k, diameter=top)
        assert [w.elems for w in res.witnesses] == reps(top)
        with pytest.raises(CapacityExceeded) as refused:
            compute_nf(f, k, diameter=top + 1)
        assert str(refused.value) == (
            f"{n + 1} witnesses of {k} elements would need {(n + 1) * per} bytes "
            f"(cap {n * per})"
        )
        assert (f.coeffs, k, top + 1) not in engine._search_memo

    def test_binary_kernel_checks_its_appends(self, monkeypatch):
        # (1,3) at k = 3 has the minimizers {0,1,3} and {0,1,4}: room for
        # two witnesses answers, and room for one refuses the second.
        f, per = LinearForm((1, 3)), engine._witness_bytes(3, 20)
        monkeypatch.setattr(engine, "WITNESS_BYTES_CAP", 2 * per)
        assert [w.elems for w in search_min(f, 3, 20).witnesses] == [(0, 1, 3), (0, 1, 4)]
        monkeypatch.setattr(engine, "WITNESS_BYTES_CAP", 2 * per - 1)
        need = f"^2 witnesses of 3 elements would need {2 * per} bytes"
        with pytest.raises(CapacityExceeded, match=need):
            search_min(f, 3, 20)

    def test_store_hit_is_refused_as_a_fresh_run(self, monkeypatch):
        # (1) keeps 530 witnesses at k = 4 and D = 20.  With room for 10,
        # the stored result is refused with the fresh run's message.
        f, k, d = LinearForm((1,)), 4, 20
        assert len(compute_nf(f, k, diameter=d).witnesses) == 530
        monkeypatch.setattr(engine, "WITNESS_BYTES_CAP", 10 * engine._witness_bytes(k, d))
        need = "11 witnesses of 4 elements would need 2464 bytes (cap 2240)"
        for _ in range(2):  # the hit, then a fresh run
            with pytest.raises(CapacityExceeded) as refused:
                compute_nf(f, k, diameter=d)
            assert str(refused.value) == need
            clear_search_memo()

    def test_default_cap_on_the_form_1_at_k6(self):
        # 2^26 bytes hold 262,144 witnesses of 6 elements: (1) keeps 70,022
        # at D = 30 and is refused on the way to D = 40's 321,572.
        f = LinearForm((1,))
        assert len(compute_nf(f, 6, diameter=30).witnesses) == 70_022
        with pytest.raises(CapacityExceeded, match="^262145 witnesses of 6 elements"):
            compute_nf(f, 6, diameter=40)


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
