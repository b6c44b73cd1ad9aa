"""Certified extremes of |f(A)| over k-element integer sets.

The minimum image size over all k-sets is pinned from two sides.

*Lower bounds* come from a block decomposition: cut an ordered k-set
into two consecutive blocks sharing one point.  A block whose least
element is b only takes values in [u_total*b, u_total*(max of block)],
so the blocks' images meet in exactly one value and the k-set has at
least (values of one block) + (values of the other) - 1.  The argument
needs only lower bounds for the blocks, never exact values, so the
split recursion L(n) = max over a + b = n + 1 of L(a) + L(b) - 1 turns
the free base values -- L(1) = 1, L(2) = nf2, and L(3) = 8 for
two-variable forms with largest coefficient >= 3, by a separate case
elimination -- into a bound for every size with no search at all
(certificate.py, which also replays the bound).

*Upper bounds* come from exhaustive search over canonical k-sets
(least element 0, gcd 1) up to a diameter.  The search prunes with the
same block argument run backwards: a partial set with image size v and
t slots still open can only finish at v + cb(t) or more, where cb(t) is
L(t + 1) - 1 from every base value (appending elements above the
current maximum glues a (t+1)-block onto the partial set in a single
shared value).  It also visits only one member of each mirror-image
pair: the reflection d - A of a set A with maximum d has the same
diameter, gcd and image size (f(d - A) = u_total*d - f(A)), so only
sets whose first gap is at most their last gap are searched.
Pruning is strict, so the representative of every set achieving the
final minimum survives; the pruned search returns the same best value
and, up to reflection, the same witness set as naive enumeration.
No node rebuilds its image: each extends masks its parent kept.  For
two-variable forms that is 3 big-integer shift-ORs per candidate, and
most candidates get none: a lost new value needs a coincidence along a
pair difference of the prefix, and one packed product of those counts
shows which of a frame's candidates could still get under the best.
The parent takes that product before it enters a child, and enters
only children with a candidate left; a count of the kinds of
coincidence the prefix's pairs allow skips most products, as no count
can exceed it (_explore_binary).  For any other form a full image is
nf2 - 1 shift-ORs (one per nonzero subset sum); a candidate first gets
a lower bound from the few groups with the largest subset sums, and
only candidates that pass it build the other groups, once per frame,
and the full image (_explore_general).  In both kernels the last
element has a loop of its own.  Each frame's whole candidate range
counts as nodes, once.

Spectra (explorer.spectrum) walk the same sets with no bound and no
budget (_census_general): every set of gcd 1 whose first gap is at most
its last gap, one with equal end gaps kept unless its mirror image is
lexicographically smaller, each image nf2 - 1 shift-ORs from the masks
its parent kept.  Where that costs more than rebuilding each image by
the dilate chain, spectra keep the chain (explorer._census_pays).

When the certified lower bound meets the searched minimum the value is
exact; otherwise the honest answer is the bracket [lower, best].

The maximum image size needs no search: no k-set has more values than
there are coefficient-mass vectors, and a geometric set G with a base
above every digit has one value per vector, so the maximum is the
number of vectors, with G its witness.  Permuting the elements maps
vectors to vectors, so they are counted by orbits: one per sorted tuple
of block sums of a partition of the coefficients into at most k blocks,
with neither f(G) nor the vectors listed (compute_mf).
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass

from .certificate import Certificate, check_certificate, lower_certificate
from .errors import (
    BudgetExceeded,
    CapacityExceeded,
    DiameterTooSmall,
    InputError,
    LinformsError,
    NotCertifiedExact,
    ValueOverflow,
)
from .forms import LinearForm, subset_sums
from .sets import KSet, _check_image_bytes, checked_elems
from .sets import composition_vectors, image  # noqa: F401  (only bench/test_smoke.py binds them)

#: The masks one search keeps may span at most this many bits in total
#: (_search_bits), checked before the search starts.
SEARCH_BITS_CAP = 10**7

#: The witnesses one search keeps may take at most this many bytes
#: (_witness_bytes), checked each time the list grows.
WITNESS_BYTES_CAP = 2**26

# Bytes per witness beyond its elements' slots, above the largest
# tracemalloc peak per witness measured, 148 B (CHANGES.md): its list
# slot, its tuple, its mirror image's, its KSet and the dedup set's slot.
_WITNESS_BYTES = 160

#: compute_nf keeps at most this many results in memory; the oldest goes first.
SEARCH_MEMO_ENTRIES = 4096

# (coeffs, k, diameter) -> the ExtremalResult of a run that completed:
# every witness, its nodes and its certificate.
# The lock serialises eviction and insertion between caller threads.
_search_memo: dict[tuple, ExtremalResult] = {}
_search_memo_lock = threading.Lock()


@dataclass(frozen=True)
class SearchOutcome:
    """Raw result of one exhaustive search: value, witnesses, nodes, pruning certificate."""

    best: int
    witnesses: tuple[KSet, ...]
    nodes: int
    certificate: Certificate


@dataclass(frozen=True)
class ExtremalResult:
    """Outcome of compute_nf: a certified bracket, exact when closed."""

    form: LinearForm
    k: int
    diameter_searched: int
    lower: int
    certificate: Certificate
    best: int
    witnesses: tuple[KSet, ...]
    exact: bool
    nodes_explored: int

    def to_json(self) -> dict:
        return {
            "coeffs": list(self.form.coeffs),
            "k": self.k,
            "diameter": self.diameter_searched,
            "lower": self.lower,
            "certificate": self.certificate.to_json(),
            "best": self.best,
            "exact": self.exact,
            "witnesses": [list(w.elems) for w in self.witnesses],
            "nodes": self.nodes_explored,
        }


@dataclass(frozen=True)
class MaxResult:
    """Exact maximum image size with its geometric witness set."""

    value: int
    witness: tuple[int, ...]
    base: int


def exact_nf2(f: LinearForm) -> int:
    """Minimum image size over 2-sets: exactly the subset-sum count.

    Every 2-set is equivalent to {0, 1}, where f takes each subset sum
    of the coefficients once.
    """
    return len(subset_sums(f))


def search_diameter(f: LinearForm, k: int, diameter: int | None = None) -> int:
    """The diameter a k-set search covers: diameter, or u_total * (k - 1) if None."""
    return diameter if diameter is not None else f.u_total * (k - 1)


def _check_diameter(k: int, diameter: int | None) -> None:
    """Refuse a diameter that cannot hold k distinct integers (None always can)."""
    if diameter is not None and diameter < k - 1:
        raise DiameterTooSmall(f"diameter {diameter} cannot hold {k} distinct integers")


def _budget_exceeded(budget: int) -> BudgetExceeded:
    """The refusal of a search that counts node budget + 1."""
    return BudgetExceeded(f"node budget {budget} exhausted ({budget + 1} nodes)", nodes=budget + 1)


def _witness_bytes(k: int, diameter: int) -> int:
    """Bytes one witness k-set within diameter may take, raw and as a result.

    _WITNESS_BYTES, 16 per element for the slots of its tuple and its
    mirror image's, and 28 per element for int objects of their own once
    elements pass 256, the largest int CPython shares.
    """
    return _WITNESS_BYTES + 16 * k + (28 * k if diameter > 256 else 0)


def _witnesses_exceeded(n: int, k: int, diameter: int) -> CapacityExceeded:
    """The refusal of a search whose witness list grew to n sets."""
    return CapacityExceeded(
        f"{n} witnesses of {k} elements would need {n * _witness_bytes(k, diameter)} bytes "
        f"(cap {WITNESS_BYTES_CAP})"
    )


def _root_frame(k: int, diameter: int, budget: int | None) -> tuple[range, int]:
    """The root {0}'s candidates, its first gaps a1, and the budget-checked nodes so far.

    Each leaves room for k - 3 more elements and a last gap >= a1, as
    _child_bounds does: 2*a1 + k - 3 <= diameter (a1 is the last gap at k = 2).
    """
    cands = range(1, (diameter - k + 3) // 2 + 1 if k > 2 else diameter + 1)
    nodes = 1 + len(cands)
    if budget is not None and nodes > budget:
        raise _budget_exceeded(budget)
    return cands, nodes


def _filter_width(k: int) -> int:
    """Bits per packed field of _explore_binary's collision counts for k-sets.

    A frame's prefix has at most k - 1 elements, so a count is at most
    3 C(k - 1, 2); one more bit keeps the fields' top bits free.
    """
    return (3 * (k - 1) * (k - 2) // 2).bit_length() + 1


def _child_bounds(a1: int, t: int, diameter: int) -> tuple[int, int]:
    """(step, stop) such that child e of a frame with t > 1 slots open has
    the candidates range(e + step, stop), where a1 is the child's first
    gap: elems[1] past the root {0}, e itself at the root.

    Only sets whose first gap is at most their last gap are visited, one
    of each mirror-image pair (see search_min).  Each bound leaves room
    for the rest of the set: the child's t - 1 open slots fit above e,
    the last gap >= a1, so every node has a completion.  Past the root
    the bounds are frame constants.
    """
    if t > 2:  # the child has t - 1 > 1 slots open
        return 1, diameter - a1 - t + 4
    return a1, diameter + 1


def _collision_tables(
    p: int, q: int, width: int, diameter: int
) -> tuple[list[tuple[int, ...]], list[int], list[int]]:
    """Per-difference offsets of _explore_binary's collision terms, and kind counts.

    A pair x < y of the prefix with d = y - x adds 2^s to Ppoly for each
    s in pshift[d]: s = width*(q*d/p) when p | d (event i) and
    s = width*(p*d/q) when q | d (event ii).  It adds the term of field
    y + qstep[d] to Qpoly when that field is within the diameter:
    qstep[d] = p*d/(q - p) when p < q and (q - p) | d (event iii), and
    diameter + 1, past every field, otherwise.  Terms past the diameter,
    where no candidate lies, are left out.  kinds[d] = len(pshift[d]) +
    (qstep[d] <= diameter) is the number of terms such a pair can add to
    any one field.  Offsets, not powers: the tables are O(diameter) small
    integers.
    """
    pshift: list[tuple[int, ...]] = [()]
    qstep = [diameter + 1]
    r = q - p
    for d in range(1, diameter + 1):
        pshift.append(
            tuple(
                width * s
                for s, divides in ((q * d // p, d % p == 0), (p * d // q, d % q == 0))
                if divides and s <= diameter
            )
        )
        qstep.append(p * d // r if r and d % r == 0 else diameter + 1)
    kinds = [len(s) + (step <= diameter) for s, step in zip(pshift, qstep)]
    return pshift, qstep, kinds


def _explore_binary(
    u1: int,
    u2: int,
    k: int,
    diameter: int,
    cb: list[int],
    budget: int | None,
) -> tuple[int, list[tuple[int, ...]], int]:
    """DFS over canonical k-sets {0, ...} for a two-variable form.

    The image bitmask is maintained incrementally: with dilate masks
    D1 = {u1*a} and D2 = {u2*a}, appending e updates the image M by
    M |= (D2 << u1*e) | ((D1 | bit(u1*e)) << u2*e) -- constant work per
    candidate instead of a full chain recompute.

    Most candidates never get that far.  Let p <= q be u1 and u2 divided
    by their gcd (so p and q are coprime), A a prefix of n elements with s = |f(A)|,
    and e > max A a candidate.  The values f(A + {e}) adds to f(A) are
    the terms u1*e + u2*x and u2*e + u1*x (x in A) and u_total*e, which
    exceeds every other value.  There are 2n + 1 distinct terms, or
    n + 1 when p = q and the two kinds coincide.  A term is lost only
    if it lands in f(A) or equals a term of the other kind, and each
    loss is one of these events:

    (i)   u1*e + u2*x = u1*a + u2*b: then p(e - a) = q(b - x) with
          e > a, so x < b, p | (b - x) and e = a + q(b - x)/p;
    (ii)  u2*e + u1*x = u1*a + u2*b: likewise x < a, q | (a - x) and
          e = b + p(a - x)/q;
    (iii) u1*e + u2*x = u2*e + u1*y with y != x, only if p < q: then
          (q - p)e = qx - py, which for e > max A needs y < x,
          (q - p) | (x - y) and e = x + p(x - y)/(q - p).

    So |f(A + {e})| >= s + (2n + 1 or n + 1) - N_A(e), with N_A(e) the
    number of events at e.  Each pair x < y of A gives at most one
    event of each kind at a given e (in (i) and (ii) the pair fixes the
    third element), so N_A(e) <= 3 C(n, 2) < 2^(width - 1).

    The counts are packed in width-bit fields, field e for candidate e
    (X = 2^width): Apoly is the sum of X^a over A; Ppoly has a term
    X^(q(b - x)/p) for each pair x < b allowed in (i) and X^(p(a - x)/q)
    for each pair x < a allowed in (ii); Qpoly has a term X^e for each
    event (iii).  Field e of N = Apoly * Ppoly + Qpoly is
    N_A(e), with no carries as no field reaches 2^(width - 1).  A child's
    polynomials add to its parent's only the terms of the pairs (x, e),
    x in A, and those depend on x only through d = e - x: offsets built
    once per search (_collision_tables) give each in a lookup, and an
    addition for (iii).  The mask test prunes e when |f(A + {e})| +
    cb[t - 1] > best, so any e with N_A(e) < thr = s + (2n + 1 or
    n + 1) + cb[t - 1] - best is pruned.  When thr > 0, one addition of
    2^(width - 1) - thr to every field and a mask of the fields' top
    bits give the other candidates, in increasing order; only they get
    the mask test.

    The parent runs each child's filter.  Once a candidate passes its
    mask test, the parent counts the child's candidate range against the
    budget, takes the child's product and its hits, and enters the child
    only with the candidates that survive: a child with no hit is
    counted but never entered.  That is the point at which the child
    would have filtered itself, and best only falls, so a filter taken
    then stays sound through the child's loop.  The DFS therefore counts
    the same nodes, recurses into the same children and records the
    same witnesses in the same order as one that tests every candidate.

    Most children have no hit, and a count of pair kinds finds them
    before their product.  At any one field, a pair x < y of the child's
    prefix with d = y - x adds at most one term of each kind it has:
    a shift s in pshift[d] reaches field c of Apoly * Ppoly only from
    the one term X^(c - s/width) of Apoly, and Qpoly gets at most one
    term per pair.  So no field of N exceeds K, the sum of kinds[d]
    (_collision_tables) over the child's pairs: the frame's own sum plus
    kinds[e - x] for x in A.  This is the argument behind 3 C(n, 2), per
    pair.  A child with K < thr has no hit, and is counted without its
    pair terms or product; K also keeps 2^(width - 1) - thr >= 0 below.
    Children of one frame differ only in e, so the child's range starts
    at e plus a frame constant and ends at another (_child_bounds; at
    the root, where e is the child's first gap, they are taken per
    child), and the child's tuple is built only if it is entered.  The
    last level (t = 1) has its own loop, with no filter: the gcd skip,
    the image, and the record, whose comparison is the mask test, as
    cb[0] <= 0.  Per candidate of a frame that is entered: 3 shift-ORs
    and a bit count; per child that passes, |A| lookups for K, and only
    when K reaches thr > 0, up to 3 |A| more, one product and its hits.

    Only sets whose first gap is at most their last gap are visited
    (_root_frame, _child_bounds): the other member of each mirror-image
    pair has the same image size, and _reflection_reps reports the
    visited one.

    Returns the best value (the progression {0, ..., k-1} always fits),
    its raw witnesses and the node count: the root {0} and every
    candidate of every frame, each frame's range counted, and checked
    against the budget, once, just before the frame would start.
    Counting past budget raises BudgetExceeded on node budget + 1.
    """
    gcd = math.gcd
    best = None
    wits: list[tuple[int, ...]] = []
    g0 = gcd(u1, u2)
    p, q = sorted((u1 // g0, u2 // g0))
    fresh = 1 if p == q else 2  # distinct new terms per element of the prefix
    width = _filter_width(k)
    half = 1 << (width - 1)
    ones = ((1 << width * (diameter + 1)) - 1) // ((1 << width) - 1)
    high = ones << (width - 1)
    pshift, qstep, kinds = _collision_tables(p, q, width, diameter)
    most = WITNESS_BYTES_CAP // _witness_bytes(k, diameter)  # witnesses kept

    def rec(
        elems: tuple[int, ...],
        g: int,
        D1: int,
        D2: int,
        M: int,
        t: int,
        Apoly: int,
        Ppoly: int,
        Qpoly: int,
        KA: int,
        cands: range | list[int],
    ) -> None:
        nonlocal best, wits, nodes
        if t == 1:
            # The last element: no filter, and the record's own comparison
            # is the mask test, as no completion bound applies (cb[0] <= 0).
            for e in cands:
                if g != 1 and gcd(g, e) != 1:
                    continue  # such a set is never recorded
                sh1 = u1 * e
                size_e = (M | (D2 << sh1) | ((D1 | (1 << sh1)) << u2 * e)).bit_count()
                if best is None or size_e < best:
                    best = size_e
                    wits = [elems + (e,)]
                elif size_e == best:
                    wits.append(elems + (e,))
                    if len(wits) > most:
                        raise _witnesses_exceeded(len(wits), k, diameter)
            return
        cbt = cb[t - 1]
        grow = fresh * (len(elems) + 1) + 1 + cb[t - 2]  # a child's new terms and completion bound
        root = len(elems) == 1
        if not root:
            step, stop = _child_bounds(elems[1], t, diameter)
        for e in cands:
            sh1 = u1 * e
            sh2 = u2 * e
            D1e = D1 | (1 << sh1)
            Me = M | (D2 << sh1) | (D1e << sh2)
            size_e = Me.bit_count()
            if best is not None and size_e + cbt > best:
                continue
            if root:
                step, stop = _child_bounds(e, t, diameter)
            lo = e + step
            nodes += stop - lo
            if budget is not None and nodes > budget:
                raise _budget_exceeded(budget)
            K = KA  # the child's pair kinds: no field of its N exceeds K
            for x in elems:
                K += kinds[e - x]
            thr = 0 if best is None else size_e + grow - best
            if thr > K:
                continue  # no count reaches thr; half - thr below stays >= 0 otherwise
            Ae, Pe, Qe = Apoly | (1 << width * e), Ppoly, Qpoly
            for x in elems:
                d = e - x
                for s in pshift[d]:
                    Pe += 1 << s
                if (s := e + qstep[d]) <= diameter:
                    Qe += 1 << width * s
            if thr > 0:
                N = Ae * Pe + Qe
                hits = ((N >> width * lo) + ones * (half - thr)) & high
                grand = []
                while hits:
                    low = hits & -hits
                    c = lo + low.bit_length() // width - 1
                    if c >= stop:
                        break
                    grand.append(c)
                    hits ^= low
                if not grand:
                    continue
            else:
                grand = range(lo, stop)
            rec(
                elems + (e,),
                g if g == 1 else gcd(g, e),
                D1e,
                D2 | (1 << sh2),
                Me,
                t - 1,
                Ae,
                Pe,
                Qe,
                K,
                grand,
            )

    try:
        cands, nodes = _root_frame(k, diameter, budget)
        rec((0,), 0, 1, 1, 1, k - 1, 1, 0, 0, 0, cands)
    finally:
        del rec  # its closure cell holds rec itself: free the cycle now
    return best, wits, nodes


def _explore_general(
    coeffs: tuple[int, ...],
    k: int,
    diameter: int,
    cb: list[int],
    budget: int | None,
) -> tuple[int, list[tuple[int, ...]], int]:
    """DFS over canonical k-sets {0, ...} (k >= 2) for any form.

    Each frame holds the image masks M_T(A) of every sub-multiset T of
    the coefficients (_frame_layout; M_empty = {0}).  Appending e > max A
    gives each variable either e or an element of A, so the image of
    A + {e} is the OR over T of M_T(A) << (u_total - sum(T))*e, with T
    the variables given A.  The parent ORs its masks into one group per
    subset sum, and each child's image is then nf2 - 1 shift-ORs
    whatever |A| is, taken in Horner order so the early ones act on
    short masks.  Only a child that is recursed into builds its own
    table, in order of growing |T|, by
    M_T(A + {e}) = M_T(A) | OR over distinct v in T of M_{T - v}(A + {e}) << v*e:
    one precomputed list of (T, T - v, v) steps applied in order to a
    copy of the parent's table, whose last entry, T = coeffs, is the
    child's image.  The last element has its own loop: one that leaves
    the gcd above 1 is counted and skipped with no mask work, as such a
    set is never recorded, and the others are recorded inline, as no
    completion bound applies to them (cb[0] <= 0).

    Most candidates never build the full image.  Write S_w for the group
    of subset sum w shifted into place: the values G_w + (u_total - w)e,
    with G_w the OR of M_T(A) over the T of sum w (G_0 = {0}).  G_w's
    largest value is w*a, with a = max A, so S_w's is w*a +
    (u_total - w)e, and for every w' > w that exceeds every value of
    S_w' by at least (w' - w)(e - a) > 0.  So each S_w brings at least
    one value, its largest, that no S_w' with w' > w holds, and these
    values differ from each other.  With w_1 > ... > w_h the h largest
    subset sums below u_total,

        |f(A + {e})| >= |f(A) | S_w1 | ... | S_wh| + (nf2 - 1 - h),

    one value for each of the nf2 - 1 - h sums below w_h.  The head
    f(A) | S_w1 | ... | S_wh is h shift-ORs in Horner order.  Only a
    candidate whose head bound plus cb[t - 1] does not exceed best builds
    the full image, by Horner over the remaining groups, the smallest w,
    on short masks, and one shift-OR that joins them to the head; it then
    gets the exact test.  The head bound is at most the image size, so
    every candidate the exact test keeps passes it: nodes, children and
    witnesses are those of building every full image.  h is 3 at inner
    levels and 1 at the last one, at most the nf2 - 2 nonzero sums below
    u_total (the {0} of w = 0 always stays in the tail).  Each level's
    head is unrolled; a form with fewer sums pads it in front with
    empty groups and shifts 0, which leave the head as it is.  A frame
    ORs only its head groups when it starts, and its tail groups when
    the first candidate passes the head bound, so a frame where none
    does builds no tail.  Per candidate: h shift-ORs and a bit count;
    per candidate that passes, nf2 - 1 - h more and a second bit count.

    Visits one member of each mirror-image pair, and returns and counts
    nodes against the budget, as _explore_binary does; a parent counts
    each child's range just before it enters the child.
    """
    gcd = math.gcd
    best = None
    wits: list[tuple[int, ...]] = []
    steps, horner = _frame_layout(coeffs)
    full = len(steps) - 1
    flat = [(i, j, v) for i in range(1, full) for j, v in steps[i]]
    groups = len(horner)
    most = WITNESS_BYTES_CAP // _witness_bytes(k, diameter)  # witnesses kept

    def split(h: int) -> tuple[list, list[int], list, int]:
        # A level's head: the members of its h + 1 groups (the h largest
        # sums below u_total, and u_total), padded in front with empty
        # groups, and the h shifts between them; its tail: (shift,
        # members) of every other group; and the shift that joins the tail.
        cut = groups - 1 - min(h, groups - 1)
        pad = h - (groups - 1 - cut)
        heads = [()] * pad + [members for _, members in horner[cut:]]
        shifts = [0] * pad + [d for d, _ in horner[cut + 1 :]]
        return heads, shifts, horner[:cut], sum(d for d, _ in horner[cut:])

    def group(table: list[int], members: list[int]) -> int:
        G = 0
        for i in members:
            G |= table[i]
        return G

    # Head sizes h (inner levels, last level), by CPU time for the 17
    # three- and four-variable nf-deep forms at k = 5 against building
    # every full image (best of 7 runs, 2 vCPU, CPython 3.11): (1,1)
    # 0.93x, (2,1) 0.73x, (3,1) 0.70x, (4,1) 0.74x, (3,2) 0.72x, and
    # 0.96x with every group in the head.  A wider head prunes little
    # more and costs every candidate a long shift-OR.
    inner_head, (d1, d2, d3), inner_tail, inner_join = split(3)
    last_head, (d0,), last_tail, last_join = split(1)

    def rec(elems: tuple[int, ...], g: int, table: list[int], t: int, cands: range) -> None:
        nonlocal best, wits, nodes
        tail = None  # (shift, group) pairs, built when a candidate first needs them
        if t == 1:
            # The last element: a set of gcd > 1 is never recorded, and
            # the record's own comparison is the exact test (cb[0] <= 0).
            head = [group(table, members) for members in last_head]
            top, G1 = head
            rest = len(last_tail) + 1 + cb[0]  # a top per tail sum, and the completion bound
            for e in cands:
                if g != 1 and gcd(g, e) != 1:
                    continue
                Me = (top << d0 * e) | G1
                if best is not None and Me.bit_count() + rest > best:
                    continue
                if tail is None:
                    tail = [(d, group(table, members)) for d, members in last_tail]
                T = 1
                for d, G in tail:
                    T = (T << d * e) | G
                Me |= T << last_join * e
                del T  # only the image is kept, as _search_bits counts
                size_e = Me.bit_count()
                if best is None or size_e < best:
                    best = size_e
                    wits = [elems + (e,)]
                elif size_e == best:
                    wits.append(elems + (e,))
                    if len(wits) > most:
                        raise _witnesses_exceeded(len(wits), k, diameter)
            return
        head = [group(table, members) for members in inner_head]
        top, G1, G2, G3 = head
        cbt = cb[t - 1]
        rest = len(inner_tail) + 1 + cbt
        for e in cands:
            Me = (((((top << d1 * e) | G1) << d2 * e) | G2) << d3 * e) | G3
            if best is not None and Me.bit_count() + rest > best:
                continue
            if tail is None:
                tail = [(d, group(table, members)) for d, members in inner_tail]
            T = 1
            for d, G in tail:
                T = (T << d * e) | G
            Me |= T << inner_join * e
            del T
            size_e = Me.bit_count()
            if best is not None and size_e + cbt > best:
                continue
            step, stop = _child_bounds(e if len(elems) == 1 else elems[1], t, diameter)
            nodes += stop - e - step
            if budget is not None and nodes > budget:
                raise _budget_exceeded(budget)
            child = table.copy()
            for i, j, v in flat:
                child[i] |= child[j] << v * e
            child[full] = Me
            rec(elems + (e,), g if g == 1 else gcd(g, e), child, t - 1, range(e + step, stop))

    try:
        cands, nodes = _root_frame(k, diameter, budget)
        rec((0,), 0, [1] * (full + 1), k - 1, cands)
    finally:
        del rec  # its closure cell holds rec itself: free the cycle now
    return best, wits, nodes


def _census_general(coeffs: tuple[int, ...], k: int, diameter: int) -> dict[int, int]:
    """Image size -> number of canonical k-sets (k >= 2) within diameter, one per mirror pair.

    The same walk as _explore_general, with no bound and no budget: every
    set whose first gap is at most its last gap (_root_frame,
    _child_bounds) is visited, and one of gcd above 1 is skipped by the
    running gcd.  A frame that has children copies its table of masks
    M_T (_frame_layout) into each child and extends it by
    M_T(A + {e}) = M_T(A) | OR over distinct v in T of M_{T - v}(A + {e}) << v*e,
    coeffs itself included.  A frame of last elements ORs its table into
    one group per subset sum once, and each of its sets' images is then
    nf2 - 1 shift-ORs in Horner order.  Of a frame of last elements only
    the first candidate, e = max A + a_1, has equal end gaps; it is
    dropped when its mirror image is lexicographically smaller, so a
    mirror pair is counted once and a symmetric set once.
    """
    gcd = math.gcd
    steps, horner = _frame_layout(coeffs)
    flat = [(i, j, v) for i in range(1, len(steps)) for j, v in steps[i]]
    # No image has more values than its span or than the mass vectors.
    most = min(
        sum(coeffs) * diameter + 1,
        math.prod(math.comb(coeffs.count(v) + k - 1, k - 1) for v in set(coeffs)),
    )
    counts = [0] * (most + 1)

    def rec(elems: tuple[int, ...], g: int, table: list[int], t: int, cands: range) -> None:
        if t == 1:
            if len(elems) > 1 and cands:
                first = elems + (cands[0],)
                if tuple(first[-1] - x for x in reversed(first)) < first:
                    cands = cands[1:]  # its mirror image is counted instead
            groups = []
            for d, members in horner:
                G = 0
                for i in members:
                    G |= table[i]
                groups.append((d, G))
            for e in cands:
                if g != 1 and gcd(g, e) != 1:
                    continue
                M = 1
                for d, G in groups:
                    M = (M << d * e) | G
                counts[M.bit_count()] += 1
            return
        root = len(elems) == 1
        if not root:
            step, stop = _child_bounds(elems[1], t, diameter)
        for e in cands:
            if root:
                step, stop = _child_bounds(e, t, diameter)
            child = table.copy()
            for i, j, v in flat:
                child[i] |= child[j] << v * e
            rec(elems + (e,), g if g == 1 else gcd(g, e), child, t - 1, range(e + step, stop))

    try:
        rec((0,), 0, [1] * len(steps), k - 1, _root_frame(k, diameter, None)[0])
    finally:
        del rec  # its closure cell holds rec itself: free the cycle now
    return {size: n for size, n in enumerate(counts) if n}


def _frame_layout(
    coeffs: tuple[int, ...],
) -> tuple[list[tuple[tuple[int, int], ...]], list[tuple[int, list[int]]]]:
    """How a frame of _explore_general numbers and groups its masks.

    The sub-multisets T of coeffs are numbered in an order of growing
    |T|: 0 is the empty multiset and the last one is coeffs itself.
    Returns, per T, the pairs (number of T - v, v) for each distinct v
    in T; and per nonzero subset sum w, in increasing order, the step
    from the previous subset sum and the numbers of the T that sum to w.
    That is prod(multiplicity + 1) masks and nf2 - 1 groups, the layout
    _frame_bits counts without building it.
    """
    values = sorted(set(coeffs))
    subs = sorted(
        itertools.product(*(range(coeffs.count(v) + 1) for v in values)), key=sum
    )
    number = {T: i for i, T in enumerate(subs)}
    steps = [
        tuple(
            (number[T[:j] + (c - 1,) + T[j + 1 :]], v)
            for j, (c, v) in enumerate(zip(T, values))
            if c
        )
        for T in subs
    ]
    groups: dict[int, list[int]] = {}
    for i, T in enumerate(subs):
        groups.setdefault(sum(c * v for c, v in zip(T, values)), []).append(i)
    # The sum 0 holds only the empty multiset, whose mask {0} starts Horner.
    order = sorted(groups)
    return steps, [(w - prev, groups[w]) for prev, w in zip(order, order[1:])]


def _frame_bits(f: LinearForm, width: int) -> int:
    """Bits of the masks one frame of _explore_general keeps for a set within width.

    The frame keeps a mask per sub-multiset T of the coefficients,
    spanning sum(T)*width + 1 bits, and a group mask per nonzero subset
    sum w, spanning w*width + 1 bits (_frame_layout).  T pairs with its
    complement and w with u_total - w, so both kinds of sums average
    u_total / 2.
    """
    table = math.prod(f.coeffs.count(v) + 1 for v in set(f.coeffs))
    nf2 = exact_nf2(f)
    return (table + nf2) * f.u_total * width // 2 + table + nf2 - 1


def _reflection_reps(raw: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Lexicographically smaller of each witness and its reflection, deduplicated."""
    reps = set()
    for elems in raw:
        d = elems[-1]
        mirrored = tuple(d - x for x in reversed(elems))
        reps.add(min(elems, mirrored))
    return sorted(reps)


def _search_bits(f: LinearForm, k: int, diameter: int) -> int:
    """The bits search_min checks against SEARCH_BITS_CAP for k-sets within diameter.

    The image of a set spans at most u_total * diameter + 1 bits; for
    k = 1 it is the one mask counted.  The binary kernel keeps D1, D2
    and M (2 * u_total * diameter + 3 bits) per set size: the root {0}'s
    are one bit each, then k - 1 frames of sets within the diameter.  Its
    collision filter packs fields at positions up to the diameter, at
    most F = _filter_width(k) * (diameter + 1) bits per value: each of
    the k - 1 frames keeps Apoly, Ppoly and Qpoly (F each) and the
    product N of the child it filtered last (positions up to twice the
    diameter, 2F); the constants
    ones and high take F each, and the one frame filtering at a time
    shifts N and adds to it (2F) to get its hits (F).  That is 5k * F
    bits.  The general kernel keeps what _general_bits counts.
    """
    image_bits = f.u_total * diameter + 1
    if k == 1:
        return image_bits
    if f.m == 2:
        fields = _filter_width(k) * (diameter + 1)
        return 3 + (k - 1) * (2 * image_bits + 1) + 5 * k * fields
    return _general_bits(f, k, diameter)


def _general_bits(f: LinearForm, k: int, diameter: int) -> int:
    """Bits of the masks _explore_general (or _census_general) keeps for k-sets, k >= 2.

    A frame per set size below k (_frame_bits): the root {0}, whose masks
    are all {0}, and k - 2 frames of sets within the diameter; the last
    level adds one image at a time.
    """
    return _frame_bits(f, 0) + (k - 2) * _frame_bits(f, diameter) + f.u_total * diameter + 1


def clear_search_memo() -> None:
    """Forget every result remembered by compute_nf."""
    with _search_memo_lock:
        _search_memo.clear()


def _check_search(f: LinearForm, k: int, diameter: int, node_budget: int | None) -> None:
    """search_min's argument checks (k, diameter, budget sign), then its bits cap."""
    if k < 1:
        raise InputError(f"need k >= 1, got {k}")
    _check_diameter(k, diameter)
    if node_budget is not None and node_budget < 0:
        raise InputError(f"need a node budget >= 0, got {node_budget}")
    bits = _search_bits(f, k, diameter)
    if bits > SEARCH_BITS_CAP:
        raise CapacityExceeded(f"search masks would need {bits} bits (cap {SEARCH_BITS_CAP})")


def search_min(
    f: LinearForm,
    k: int,
    diameter: int,
    *,
    node_budget: int | None = None,
) -> SearchOutcome:
    """Exhaustive minimum of |f(A)| over canonical k-sets within a diameter.

    One depth-first search explores {0 = a_0 < a_1 < ... < a_{k-1} <=
    diameter, gcd 1} in lexicographic order, pruning with the
    split-recursion completion bound (every base value) against the best
    value found so far; ties with it are never pruned, so the witness
    list is the full set of minimizers, deduplicated under reflection.
    The order is fixed, so results and node counts are deterministic.

    cb[t] = L(t + 1) - 1, replayed by check_certificate from
    lower_certificate(f, k), which the outcome carries: t elements above
    the current maximum splice a (t+1)-set onto the partial set in one
    shared value, so at least cb[t] values are new.

    Only sets whose first gap a_1 is at most their last gap are
    searched.  Reflection x -> a_{k-1} - x keeps the diameter, the gcd
    and the image size, and maps every other set onto one of these, its
    lexicographically smaller mirror image, which is the witness
    reported anyway; a pair with equal end gaps is visited twice and
    deduplicated.  Best values and witness lists are those of the full
    search.

    node_budget caps the nodes explored, the root {0} included: the
    search raises BudgetExceeded on node node_budget + 1, so a budget of
    0 always stops; a negative budget is an InputError.  The witness
    list is capped at WITNESS_BYTES_CAP bytes (_witness_bytes): the
    kernel raises CapacityExceeded as soon as the list of the best value
    so far outgrows it, even if a lower value found later would have
    replaced that list.  Every call searches: only compute_nf remembers
    results.
    """
    _check_search(f, k, diameter, node_budget)
    cert = lower_certificate(f, k)
    cb = [b - 1 for b in check_certificate(f, k, cert)]
    if k == 1:
        if node_budget == 0:
            raise _budget_exceeded(0)
        return SearchOutcome(best=1, witnesses=(KSet((0,)),), nodes=1, certificate=cert)
    if f.m == 2:
        u1, u2 = f.coeffs
        best, raw, nodes = _explore_binary(u1, u2, k, diameter, cb, node_budget)
    else:
        best, raw, nodes = _explore_general(f.coeffs, k, diameter, cb, node_budget)
    reps = tuple(KSet(elems) for elems in _reflection_reps(raw))
    return SearchOutcome(best=best, witnesses=reps, nodes=nodes, certificate=cert)


def compute_nf(
    f: LinearForm,
    k: int,
    *,
    diameter: int | None = None,
    node_budget: int | None = None,
) -> ExtremalResult:
    """Certified bracket (exact when closed) for the k-set minimum of |f(A)|.

    The lower bound is the split recursion from every base value that
    applies (lower_certificate): the certificate search_min replays with
    check_certificate and prunes with, built once.  The upper bound is one
    search_min over diameter (None means u_total * (k - 1)), which alone
    draws on node_budget (None is unlimited).  The search's argument
    checks and caps refuse before anything is looked up or built.
    The result keeps every minimizer the search found; a search whose
    witness list outgrows WITNESS_BYTES_CAP is refused and stores nothing.

    Completed runs are remembered per process, up to SEARCH_MEMO_ENTRIES
    results keyed by (coeffs, k, diameter), all that changes the
    outcome.  A repeat runs no search and builds no certificate, and gets
    the same result object, node count included: over node_budget it
    raises as the search would.  clear_search_memo() forgets every result.
    """
    diameter = search_diameter(f, k, diameter)
    _check_search(f, k, diameter, node_budget)
    key = (f.coeffs, k, diameter)
    res = _search_memo.get(key)
    if res is None:
        out = search_min(f, k, diameter, node_budget=node_budget)
        cert = out.certificate
        if out.best < cert.bound:
            raise LinformsError(
                f"internal: search found {out.best} under certificate {cert.bound} for {f}, k={k}"
            )
        res = ExtremalResult(
            form=f,
            k=k,
            diameter_searched=diameter,
            lower=cert.bound,
            certificate=cert,
            best=out.best,
            witnesses=out.witnesses,
            exact=out.best == cert.bound,
            nodes_explored=out.nodes,
        )
        with _search_memo_lock:
            if len(_search_memo) >= SEARCH_MEMO_ENTRIES:
                del _search_memo[next(iter(_search_memo))]
            _search_memo[key] = res
    elif node_budget is not None and res.nodes_explored > node_budget:
        raise _budget_exceeded(node_budget)
    return res


def compute_mf(f: LinearForm, k: int) -> MaxResult:
    """Exact k-set maximum of |f(A)|, counted by orbits of mass vectors.

    A value is determined by the coefficient mass on each element, so no
    k-set beats the number of mass vectors; G = {g^0, ..., g^{k-1}} with
    g = m * u_m + 1 reaches it, as every base-g digit of a value of f(G)
    is one element's mass, at most u_total < g.  So the maximum is the
    number of mass vectors, and G is its witness; neither f(G) nor the
    vectors are listed.

    The vectors are counted by orbits (_count_mass_vectors).  Permuting
    the k elements permutes the slots of every vector and maps the set of
    vectors onto itself, so that set is a union of orbits.  An orbit is
    fixed by the sorted tuple of its vectors' nonzero slots: the block
    sums of one partition of the coefficients into r <= k blocks, a block
    being the variables placed on one element.  The orbit places those r
    sums on r of the k slots, k! / ((k - r)! * prod mult!) ways, with mult
    running over the multiplicities of equal sums.  The tuples come from
    one pass over the coefficients.  From the empty tuple, each
    coefficient u either opens a block of its own, when fewer than k are
    open, or adds to one open block's sum, once per distinct sum, as
    equal sums give the same tuple.  A later coefficient sees only the
    sorted sums, so the tuples after the last coefficient are those of
    every partition, each once, and their orbit sizes add up to the
    number of vectors.

    Refusals come before any counting, in the order: k >= 64, then
    checked_elems on G (ValueOverflow), then sets._check_image_bytes on
    G (CapacityExceeded), which caps the values f(G) holds.  A tuple is
    the orbit of some mass vectors of a prefix of the coefficients, and a
    prefix has no more vectors than the whole form, so the tuples kept
    never outnumber the values that check counts.
    """
    if k < 1:
        raise InputError(f"need k >= 1, got {k}")
    g = f.m * f.coeffs[-1] + 1
    if k >= 64:  # g >= 2, so g^(k-1) alone has k bits: refused before any power is built
        raise ValueOverflow(
            f"|f| can reach a value of {k} or more bits, beyond signed 64-bit range"
        )
    witness = checked_elems(f, (g**i for i in range(k)))
    _check_image_bytes(f, witness)
    return MaxResult(value=_count_mass_vectors(f.coeffs, k), witness=witness, base=g)


def _count_mass_vectors(coeffs: tuple[int, ...], k: int) -> int:
    """The number of mass vectors of coeffs over k elements, by orbits (compute_mf).

    orbits holds the sorted nonzero block sums of every partition of the
    coefficients seen so far into at most k blocks.
    """
    orbits: set[tuple[int, ...]] = {()}
    for u in coeffs:
        grown = set()
        for sums in orbits:
            if len(sums) < k:
                grown.add(tuple(sorted(sums + (u,))))
            for v in set(sums):
                i = sums.index(v)
                grown.add(tuple(sorted(sums[:i] + (v + u,) + sums[i + 1 :])))
        orbits = grown
    return sum(
        math.perm(k, len(sums))
        // math.prod(math.factorial(len(list(run))) for _, run in itertools.groupby(sums))
        for sums in orbits
    )


def enumerate_minimizers(f: LinearForm, k: int, diameter: int | None = None) -> tuple[KSet, ...]:
    """Every canonical minimizing k-set within the diameter, up to reflection.

    Only meaningful when the minimum is certified exact; otherwise the
    listed sets might not be true minimizers, so NotCertifiedExact is
    raised.
    """
    res = compute_nf(f, k, diameter=diameter)
    if not res.exact:
        raise NotCertifiedExact(
            f"bracket [{res.lower}, {res.best}] is open for {f}, k={k}, "
            f"diameter {res.diameter_searched}"
        )
    return res.witnesses
