"""Finite integer sets, their canonical forms, and images under a form.

For a form f and a finite set A of integers, the object of interest is
the image f(A) = { f(a_1, ..., a_m) : a_i in A }, where arguments are
drawn from A with repetition.  Its size is invariant under the affine
maps A -> c*A + d (c != 0): f(c*A + d) = c*f(A) + d*u_total elementwise.
Every k-element set is therefore equivalent to a unique canonical one:
least element 0, positive gcd of the elements equal to 1.  Reflecting a
canonical set through its diameter is the one leftover symmetry, so
witness lists are deduplicated under reflection as well.

Images are computed through composition vectors: an argument tuple only
matters through how much coefficient mass lands on each element of A,
so the k^m tuples collapse to the distinct vectors s with
f(a) = sum_t s_t * A_t.  The direct tuple enumeration is kept alongside
as an oracle, and a big-integer bitmask path serves size-only queries on
non-negative sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby, product
from typing import Iterable, Iterator, Sequence

from .errors import (
    CapacityExceeded,
    DuplicateElements,
    EmptyInput,
    InputError,
    ValueOverflow,
)
from .forms import LinearForm

#: Refuse composition-vector enumerations beyond this many raw candidates.
DEFAULT_CV_CAPACITY = 10**7

#: Values must stay inside signed 64-bit range (the wire format's promise).
INT64_MAX = (1 << 63) - 1

CompositionVector = tuple[int, ...]


@dataclass(frozen=True)
class KSet:
    """A canonical k-element integer set.

    elems is strictly increasing, starts at 0, and (for k >= 2) has
    gcd 1, so each affine equivalence class appears exactly once.
    """

    elems: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.elems:
            raise EmptyInput("empty set")
        if any(a >= b for a, b in zip(self.elems, self.elems[1:])):
            raise DuplicateElements(f"elements must be strictly increasing, got {self.elems}")
        if self.elems[0] != 0:
            raise InputError(f"canonical sets start at 0, got {self.elems}; use canonicalize()")
        if len(self.elems) >= 2 and math.gcd(*self.elems) != 1:
            raise InputError(f"canonical sets have element gcd 1, got {self.elems}; use canonicalize()")

    @property
    def k(self) -> int:
        return len(self.elems)

    @property
    def diameter(self) -> int:
        return self.elems[-1] - self.elems[0]

    def __iter__(self) -> Iterator[int]:
        return iter(self.elems)

    def __str__(self) -> str:
        return "{" + ",".join(map(str, self.elems)) + "}"


@dataclass(frozen=True)
class ValueSet:
    """The image f(A): sorted distinct values and their count."""

    values: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.values)


def canonicalize(raw: Iterable[int]) -> KSet:
    """Map any finite integer set to its canonical representative.

    Shift so the least element is 0, then divide out the gcd of the
    remaining elements.  Raises EmptyInput / DuplicateElements.
    """
    elems = sorted(raw)
    if not elems:
        raise EmptyInput("empty set")
    for a, b in zip(elems, elems[1:]):
        if a == b:
            raise DuplicateElements(f"repeated element {a}")
    base = elems[0]
    shifted = [a - base for a in elems]
    if len(shifted) == 1:
        return KSet(elems=(0,))
    g = math.gcd(*shifted)
    return KSet(elems=tuple(a // g for a in shifted))


def reflect_canonical(a: KSet) -> KSet:
    """Reflect a canonical set through its diameter; canonical again."""
    d = a.elems[-1]
    return KSet(elems=tuple(d - x for x in reversed(a.elems)))


def parse_elements(text: str) -> tuple[int, ...]:
    """Parse a comma-separated integer set such as "0,1,3" (sorted, distinct)."""
    parts = [p.strip() for p in text.split(",")]
    if parts == [""]:
        raise EmptyInput("empty element list")
    try:
        values = [int(p, 10) for p in parts]
    except ValueError as exc:
        raise EmptyInput(f"not an integer element: {exc}") from None
    elems = sorted(values)
    for a, b in zip(elems, elems[1:]):
        if a == b:
            raise DuplicateElements(f"repeated element {a}")
    return tuple(elems)


def set_to_json(elems: Sequence[int]) -> dict:
    """Wire representation of a point set."""
    return {"set": sorted(elems)}


def is_arithmetic_progression(elems: Sequence[int]) -> bool:
    """True when the sorted elements form an AP (any set of size <= 2 does)."""
    xs = sorted(elems)
    if len(xs) <= 2:
        return True
    step = xs[1] - xs[0]
    return all(b - a == step for a, b in zip(xs, xs[1:]))


def _runs(f: LinearForm) -> list[tuple[int, int]]:
    """Coefficient runs as (value, multiplicity), ascending."""
    return [(value, len(list(grp))) for value, grp in groupby(f.coeffs)]


def _weak_compositions(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """All k-tuples of non-negative integers summing to n."""
    if k == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _weak_compositions(n - first, k - 1):
            yield (first,) + rest


def composition_vectors(
    f: LinearForm, k: int, capacity: int = DEFAULT_CV_CAPACITY
) -> tuple[CompositionVector, ...]:
    """All distinct mass vectors s with f(a) = sum_t s_t * A_t, sorted.

    Equal coefficients are interchangeable, so candidates are built per
    run of equal coefficients (a multiset split each) instead of per
    argument tuple; distinct runs can still collide, hence the final
    dedup.  The raw candidate count (product of per-run split counts) is
    checked against ``capacity`` before enumerating.
    """
    if k <= 0:
        raise EmptyInput(f"need k >= 1, got {k}")
    runs = _runs(f)
    raw = math.prod(math.comb(c + k - 1, k - 1) for _, c in runs)
    if raw > capacity:
        raise CapacityExceeded(f"{raw} raw composition vectors exceed the cap {capacity}")
    # The count cap alone admits allocations of raw tuples of length k;
    # bound the cell total too so a passing check cannot exhaust memory.
    if raw * k > 8 * capacity:
        raise CapacityExceeded(
            f"{raw} vectors of length {k} exceed the memory cap of {8 * capacity} cells"
        )
    acc: set[tuple[int, ...]] = {(0,) * k}
    for value, count in runs:
        splits = [s for s in _weak_compositions(count, k)]
        acc = {
            tuple(b + value * s for b, s in zip(bins, split))
            for bins in acc
            for split in splits
        }
    return tuple(sorted(acc))


def checked_elems(f: LinearForm, elems: Iterable[int]) -> tuple[int, ...]:
    """Validate an argument set and its 64-bit value range."""
    xs = sorted(elems)
    if not xs:
        raise EmptyInput("empty set")
    for a, b in zip(xs, xs[1:]):
        if a == b:
            raise DuplicateElements(f"repeated element {a}")
    worst = max(abs(xs[0]), abs(xs[-1])) * f.u_total
    if worst > INT64_MAX:
        raise ValueOverflow(f"|f| can reach {worst}, beyond signed 64-bit range")
    return tuple(xs)


def image_via_compositions(
    f: LinearForm, elems: Iterable[int], capacity: int = DEFAULT_CV_CAPACITY
) -> ValueSet:
    """Image through composition vectors (the default path)."""
    xs = checked_elems(f, elems)
    k = len(xs)
    values = {sum(s * a for s, a in zip(vec, xs)) for vec in composition_vectors(f, k, capacity)}
    return ValueSet(values=tuple(sorted(values)))


def image_via_tuples(f: LinearForm, elems: Iterable[int]) -> ValueSet:
    """Image by direct enumeration of all k^m argument tuples (oracle path)."""
    xs = checked_elems(f, elems)
    values = {sum(u * a for u, a in zip(f.coeffs, tup)) for tup in product(xs, repeat=f.m)}
    return ValueSet(values=tuple(sorted(values)))


def image(f: LinearForm, elems: Iterable[int], capacity: int = DEFAULT_CV_CAPACITY) -> ValueSet:
    """The image f(A) as a ValueSet.

    Dispatches to direct tuple enumeration when the form has very few
    variables (where it is at least as cheap) and to the composition
    path otherwise; the two agree everywhere.
    """
    if f.m <= 2:
        return image_via_tuples(f, elems)
    return image_via_compositions(f, elems, capacity)


def image_mask(f: LinearForm, elems: Sequence[int]) -> int:
    """Bitmask of f(A) for a non-negative argument set (size-only queries).

    Bit n is set exactly when n is in f(A).  Runs the dilate chain
    M_i = { v + u_i * a } in m*k big-integer shifts; spectrum censuses
    use it where only |f(A)| matters.  The search kernels do not: they
    extend the masks of a set's parent instead of rebuilding them.
    """
    if elems and elems[0] < 0:
        raise ValueOverflow("bitmask images need non-negative elements")
    mask = 1
    for u in f.coeffs:
        cur = 0
        for a in elems:
            cur |= mask << (u * a)
        mask = cur
    return mask
