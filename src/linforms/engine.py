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
No node rebuilds its image: each extends masks its parent kept, at
3 big-integer shift-ORs per node for two-variable forms and nf2 - 1
(one per nonzero subset sum) for any other form.

When the certified lower bound meets the searched minimum the value is
exact; otherwise the honest answer is the bracket [lower, best].

The maximum image size needs no search: no k-set has more values than
there are coefficient-mass vectors, and a geometric set G with a base
above every digit has one value per vector, so the maximum is |f(G)|.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass

from .certificate import (
    Certificate,
    check_certificate,
    lower_certificate,
    split_recursion,
)
from .errors import (
    BudgetExceeded,
    CapacityExceeded,
    DiameterTooSmall,
    InputError,
    LinformsError,
    NotCertifiedExact,
)
from .forms import LinearForm, subset_sums
from .sets import KSet, checked_elems, image
from .sets import composition_vectors  # noqa: F401  (only bench/test_smoke.py binds it)

#: The masks one search keeps may span at most this many bits in total
#: (_search_bits), checked before the search starts.
SEARCH_BITS_CAP = 10**7

#: search_min keeps at most this many results in memory; the oldest goes first.
SEARCH_MEMO_ENTRIES = 4096

# (coeffs, k, diameter) -> (best, every reflection-deduplicated witness,
# nodes) of a search that completed.
# The lock serialises eviction and insertion between caller threads.
_search_memo: dict[tuple, tuple[int, tuple[KSet, ...], int]] = {}
_search_memo_lock = threading.Lock()


@dataclass(frozen=True)
class SearchOutcome:
    """Raw result of one exhaustive search: value, witnesses, node count."""

    best: int
    witnesses: tuple[KSet, ...]
    nodes: int
    witness_overflow: bool = False


@dataclass(frozen=True)
class NfConfig:
    """Tuning for compute_nf.

    diameter None means u_total * (k - 1); ladder_max_ell is the largest
    base size the reported lower bound may use (2 or less leaves out the
    binary 3-set value 8; the search prunes with it regardless);
    witness_cap None keeps every witness; node_budget caps the nodes of
    the search, None is unlimited.
    """

    diameter: int | None = None
    ladder_max_ell: int = 4
    witness_cap: int | None = 64
    node_budget: int | None = None


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
    witness_overflow: bool = False

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


def _completion_bounds(nf2: int, nf3: int | None, k: int) -> list[int]:
    """cb[t]: certified extra values forced by t more, larger elements.

    Appending t elements above the current maximum splices a (t+1)-set
    onto the partial set sharing exactly one value, so at least
    L(t + 1) - 1 new values appear.  cb[t] >= t always.
    """
    bounds, _ = split_recursion(nf2, nf3, k)
    return [0] + [b - 1 for b in bounds[1:]]


def _budget_exceeded(budget: int, nodes: int) -> BudgetExceeded:
    return BudgetExceeded(f"node budget {budget} exhausted ({nodes} nodes)", nodes=nodes)


def _next_elements(elems: tuple[int, ...], t: int, diameter: int) -> range:
    """Candidates for the next element of a partial set with t slots open.

    Only sets whose first gap a_1 is at most their last gap are visited,
    one member of each mirror-image pair (see search_min).  Each bound
    leaves room for the rest of the set, so every node has a completion.
    """
    last = elems[-1]
    if len(elems) == 1:  # choosing a_1: a last gap >= a_1 must still fit
        return range(1, (diameter - t + 2) // 2 + 1 if t > 1 else diameter + 1)
    a1 = elems[1]
    if t > 1:  # t - 2 more elements, then a last gap >= a_1
        return range(last + 1, diameter - a1 - t + 3)
    return range(last + a1, diameter + 1)


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
    node instead of a full chain recompute.

    Only sets whose first gap is at most their last gap are visited
    (_next_elements): the other member of each mirror-image pair has the
    same image size, and _reflection_reps reports the visited one.

    Returns the best value (the progression {0, ..., k-1} always fits),
    its raw witnesses and the node count, the root {0} included.
    Counting past budget raises BudgetExceeded.
    """
    gcd = math.gcd
    best = None
    wits: list[tuple[int, ...]] = []
    nodes = 1  # the root {0}, budget-checked by search_min

    def rec(elems: tuple[int, ...], g: int, D1: int, D2: int, M: int, size: int, t: int) -> None:
        nonlocal best, wits, nodes
        if t == 0:
            if g == 1:
                if best is None or size < best:
                    best = size
                    wits = [elems]
                elif size == best:
                    wits.append(elems)
            return
        cbt = cb[t - 1]
        for e in _next_elements(elems, t, diameter):
            nodes += 1
            if budget is not None and nodes > budget:
                raise _budget_exceeded(budget, nodes)
            sh1 = u1 * e
            sh2 = u2 * e
            D1e = D1 | (1 << sh1)
            Me = M | (D2 << sh1) | (D1e << sh2)
            size_e = Me.bit_count()
            if best is not None and size_e + cbt > best:
                continue
            rec(elems + (e,), g if g == 1 else gcd(g, e), D1e, D2 | (1 << sh2), Me, size_e, t - 1)

    rec((0,), 0, 1, 1, 1, 1, k - 1)
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
    M_T(A + {e}) = M_T(A) | OR over distinct v in T of M_{T - v}(A + {e}) << v*e.
    A last element that leaves the gcd above 1 is counted and skipped
    with no mask work: such a set is never recorded.  Other last
    elements are recorded inline, as no completion bound applies to
    them (cb[0] <= 0).

    Visits one member of each mirror-image pair, and returns and counts
    the budget, as _explore_binary does.
    """
    gcd = math.gcd
    best = None
    wits: list[tuple[int, ...]] = []
    nodes = 1  # the root {0}, budget-checked by search_min
    steps, horner = _frame_layout(coeffs)
    full = len(steps) - 1

    def rec(elems: tuple[int, ...], g: int, table: list[int], t: int) -> None:
        nonlocal best, wits, nodes
        grouped = []
        for d, members in horner:
            G = 0
            for i in members:
                G |= table[i]
            grouped.append((d, G))
        cbt = cb[t - 1]
        for e in _next_elements(elems, t, diameter):
            nodes += 1
            if budget is not None and nodes > budget:
                raise _budget_exceeded(budget, nodes)
            if t == 1 and g != 1 and gcd(g, e) != 1:
                continue
            Me = 1
            for d, G in grouped:
                Me = (Me << (d * e)) | G
            size_e = Me.bit_count()
            if t == 1:
                if best is None or size_e < best:
                    best = size_e
                    wits = [elems + (e,)]
                elif size_e == best:
                    wits.append(elems + (e,))
                continue
            if best is not None and size_e + cbt > best:
                continue
            child = [1]
            for i in range(1, full):
                M = table[i]
                for j, v in steps[i]:
                    M |= child[j] << (v * e)
                child.append(M)
            child.append(Me)
            rec(elems + (e,), g if g == 1 else gcd(g, e), child, t - 1)

    rec((0,), 0, [1] * (full + 1), k - 1)
    return best, wits, nodes


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
    are one bit each, then k - 1 frames of sets within the diameter.  The
    general kernel keeps a frame per set size below k (_frame_bits):
    the root {0}, whose masks are all {0}, and k - 2 frames of sets
    within the diameter; the last level adds one image at a time.
    """
    image_bits = f.u_total * diameter + 1
    if k == 1:
        return image_bits
    if f.m == 2:
        return 3 + (k - 1) * (2 * image_bits + 1)
    return _frame_bits(f, 0) + (k - 2) * _frame_bits(f, diameter) + image_bits


def clear_search_memo() -> None:
    """Forget every search result remembered by search_min."""
    with _search_memo_lock:
        _search_memo.clear()


def search_min(
    f: LinearForm,
    k: int,
    diameter: int,
    *,
    witness_cap: int | None = None,
    node_budget: int | None = None,
) -> SearchOutcome:
    """Exhaustive minimum of |f(A)| over canonical k-sets within a diameter.

    One depth-first search explores {0 = a_0 < a_1 < ... < a_{k-1} <=
    diameter, gcd 1} in lexicographic order, pruning with the
    split-recursion completion bound (every base value) against the best
    value found so far; ties with it are never pruned, so the witness
    list is the full set of minimizers (deduplicated under reflection,
    then capped).  The order is fixed, so results and node counts are
    deterministic.

    Only sets whose first gap a_1 is at most their last gap are
    searched.  Reflection x -> a_{k-1} - x keeps the diameter, the gcd
    and the image size, and maps every other set onto one of these, its
    lexicographically smaller mirror image, which is the witness
    reported anyway; a pair with equal end gaps is visited twice and
    deduplicated.  Best values and witness lists are those of the full
    search, but node counts are about 0.5-0.7 times those of versions
    that searched both members of each pair.

    node_budget caps the nodes explored, the root {0} included: the
    search raises BudgetExceeded on node node_budget + 1, so a budget of
    0 always stops; a negative budget is an InputError.  witness_cap
    keeps the first witness_cap witnesses (0 keeps none); a negative
    cap is an InputError.

    Completed searches are remembered per process, keyed by every input
    that changes the outcome (coeffs, k and diameter), up to
    SEARCH_MEMO_ENTRIES results.  A repeated search is answered from
    memory with the same outcome, node count included: the witness cap
    is applied on return, and a remembered count over node_budget raises
    exactly as the search would, on node node_budget + 1.
    clear_search_memo() forgets every result.
    """
    if k < 1:
        raise InputError(f"need k >= 1, got {k}")
    if diameter < k - 1:
        raise DiameterTooSmall(f"diameter {diameter} cannot hold {k} distinct integers")
    if node_budget is not None and node_budget < 0:
        raise InputError(f"need a node budget >= 0, got {node_budget}")
    if witness_cap is not None and witness_cap < 0:
        raise InputError(f"need a witness cap >= 0, got {witness_cap}")
    bits = _search_bits(f, k, diameter)
    if bits > SEARCH_BITS_CAP:
        raise CapacityExceeded(f"search masks would need {bits} bits (cap {SEARCH_BITS_CAP})")
    if node_budget == 0:
        raise _budget_exceeded(node_budget, 1)  # the root {0}
    if k == 1:
        return SearchOutcome(best=1, witnesses=(KSet((0,)),), nodes=1)
    memo_key = (f.coeffs, k, diameter)
    hit = _search_memo.get(memo_key)
    if hit is None:
        hit = _search(f, k, diameter, node_budget)
        with _search_memo_lock:
            if len(_search_memo) >= SEARCH_MEMO_ENTRIES:
                del _search_memo[next(iter(_search_memo))]
            _search_memo[memo_key] = hit
    best, reps, nodes = hit
    if node_budget is not None and nodes > node_budget:
        raise _budget_exceeded(node_budget, node_budget + 1)
    overflow = witness_cap is not None and len(reps) > witness_cap
    if overflow:
        reps = reps[:witness_cap]
    return SearchOutcome(best=best, witnesses=reps, nodes=nodes, witness_overflow=overflow)


def _search(
    f: LinearForm, k: int, diameter: int, node_budget: int | None
) -> tuple[int, tuple[KSet, ...], int]:
    """The DFS behind search_min (k >= 2): best, uncapped witnesses, nodes."""
    cert = lower_certificate(f, k)
    cb = _completion_bounds(cert.nf2, cert.nf3, k)
    if f.m == 2:
        u1, u2 = f.coeffs
        best, raw, nodes = _explore_binary(u1, u2, k, diameter, cb, node_budget)
    else:
        best, raw, nodes = _explore_general(f.coeffs, k, diameter, cb, node_budget)
    return best, tuple(KSet(elems) for elems in _reflection_reps(raw)), nodes


def compute_nf(f: LinearForm, k: int, config: NfConfig | None = None) -> ExtremalResult:
    """Certified bracket (exact when closed) for the k-set minimum of |f(A)|.

    The lower bound is the split recursion from base sizes up to
    cfg.ladder_max_ell (lower_certificate), replayed by
    check_certificate; the upper bound is one search_min, which alone
    draws on the node budget.
    """
    cfg = config or NfConfig()
    diameter = search_diameter(f, k, cfg.diameter)
    cert = lower_certificate(f, k, cfg.ladder_max_ell)
    check_certificate(f, k, cert)
    out = search_min(f, k, diameter, witness_cap=cfg.witness_cap, node_budget=cfg.node_budget)
    if out.best < cert.bound:
        raise LinformsError(
            f"internal: search found {out.best} under certificate {cert.bound} for {f}, k={k}"
        )
    return ExtremalResult(
        form=f,
        k=k,
        diameter_searched=diameter,
        lower=cert.bound,
        certificate=cert,
        best=out.best,
        witnesses=out.witnesses,
        exact=out.best == cert.bound,
        nodes_explored=out.nodes,
        witness_overflow=out.witness_overflow,
    )


def compute_mf(f: LinearForm, k: int) -> MaxResult:
    """Exact k-set maximum of |f(A)|, measured on its geometric witness.

    A value is determined by the coefficient mass on each element, so no
    k-set beats the number of mass vectors; G = {g^0, ..., g^{k-1}} with
    g = m * u_m + 1 reaches it, as every base-g digit of a value of f(G)
    is one element's mass, at most u_total < g.  The value is |f(G)|.
    """
    if k < 1:
        raise InputError(f"need k >= 1, got {k}")
    g = f.m * f.coeffs[-1] + 1
    witness = checked_elems(f, (g**i for i in range(k)))
    return MaxResult(value=image(f, witness).size, witness=witness, base=g)


def enumerate_minimizers(f: LinearForm, k: int, diameter: int | None = None) -> tuple[KSet, ...]:
    """Every canonical minimizing k-set within the diameter, up to reflection.

    Only meaningful when the minimum is certified exact; otherwise the
    listed sets might not be true minimizers, so NotCertifiedExact is
    raised.  The witness list is uncapped.
    """
    res = compute_nf(f, k, NfConfig(diameter=diameter, witness_cap=None))
    if not res.exact:
        raise NotCertifiedExact(
            f"bracket [{res.lower}, {res.best}] is open for {f}, k={k}, "
            f"diameter {res.diameter_searched}"
        )
    return res.witnesses
