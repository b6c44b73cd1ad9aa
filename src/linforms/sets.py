"""Finite integer sets, their canonical forms, and images under a form.

For a form f and a finite set A of integers, the object of interest is
the image f(A) = { f(a_1, ..., a_m) : a_i in A }, where arguments are
drawn from A with repetition.  Its size is invariant under the affine
maps A -> c*A + d (c != 0): f(c*A + d) = c*f(A) + d*u_total elementwise.
Every k-element set is therefore equivalent to a unique canonical one:
least element 0, positive gcd of the elements equal to 1.  Reflecting a
canonical set through its diameter is the one leftover symmetry, so
witness lists are deduplicated under reflection as well.

Images are computed by one primitive, the dilate chain: start from
V = {0} and, for each coefficient u, replace V by { v + u*a : v in V,
a in A }.  An argument tuple only matters through how much coefficient
mass lands on each element of A, so f(A) = { sum_t s_t * A_t } over
the mass (composition) vectors s.  On a geometric set {1, g, ...,
g^(k-1)} with g > u_total the base-g digits of a value are its mass
vector, so the same chain lists the vectors, and the image of such a
set is as large as an image can be.  The chain's bitmask form
(image_mask) serves size-only queries on non-negative sets, where
rebuilding each image is cheaper than extending a parent's masks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from typing import Iterable, Iterator, Sequence

from .errors import (
    CapacityExceeded,
    DuplicateElements,
    EmptyInput,
    InputError,
    ValueOverflow,
)
from .forms import LinearForm

#: One image or list of mass vectors may take at most this many bytes
#: (_check_image_bytes), checked before anything is built.
IMAGE_BYTES_CAP = 2**30

# Bytes per value beyond its int and vector (set slots of the chain's last
# two sets, the sorted result), above the largest tracemalloc peak
# measured, 91 B (CHANGES.md); and of a tuple and its slot beyond items.
_VALUE_BYTES = 96
_TUPLE_BYTES = 64

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


def is_arithmetic_progression(elems: Sequence[int]) -> bool:
    """True when the sorted elements form an AP (any set of size <= 2 does)."""
    xs = sorted(elems)
    if len(xs) <= 2:
        return True
    step = xs[1] - xs[0]
    return all(b - a == step for a, b in zip(xs, xs[1:]))


def _shown(n: int) -> int | str:
    """n, or "over 2^b" past 64 bits: str() refuses ints of over 4,300 digits."""
    return n if n.bit_length() <= 64 else f"over 2^{n.bit_length() - 1}"


def _check_image_bytes(f: LinearForm, xs: Sequence[int], vector_len: int = 0) -> None:
    """CapacityExceeded if f(xs), xs sorted, could take over IMAGE_BYTES_CAP bytes.

    Values number at most the mass vectors, the product over runs of c
    equal coefficients of C(c + k - 1, k - 1), and at most the range
    u_total * (max - min) + 1.  Each takes _VALUE_BYTES, its int object
    (28 bytes and 4 per 30 bits) and, if vector_len, a decoded tuple of
    vector_len digits, separate objects once digits pass 256.
    """
    k = len(xs)
    runs = [len(list(run)) for _, run in groupby(f.coeffs)]
    count = min(
        math.prod(math.comb(c + k - 1, k - 1) for c in runs), f.u_total * (xs[-1] - xs[0]) + 1
    )
    bits = (max(abs(xs[0]), abs(xs[-1])) * f.u_total).bit_length()
    per_value = _VALUE_BYTES + 28 + 4 * (bits // 30)
    if vector_len:
        per_value += _TUPLE_BYTES + (8 if f.u_total <= 256 else 40) * vector_len
    if count * per_value > IMAGE_BYTES_CAP:
        raise CapacityExceeded(
            f"{_shown(count)} values of {bits} bits would need {_shown(count * per_value)} bytes "
            f"(cap {IMAGE_BYTES_CAP})"
        )


def _dilate_chain(f: LinearForm, xs: Sequence[int]) -> set[int]:
    """The values sum_i u_i * x_i over xs: from {0}, add u * xs per coefficient u.

    Each set is the image of the form cut to its first coefficients, so
    none holds more values than _check_image_bytes counts.
    """
    values = {0}
    for u in f.coeffs:
        steps = [u * a for a in xs]
        values = {v + s for v in values for s in steps}
    return values


def composition_vectors(f: LinearForm, k: int) -> tuple[CompositionVector, ...]:
    """All distinct mass vectors s with f(a) = sum_t s_t * A_t, sorted.

    Read off the image of the geometric set {g^(k-1), ..., g, 1}, with
    g = 2^b the least power of two above u_total: the base-g digits of a
    value are the coefficient mass on each element, each at most
    u_total < g, so distinct values are distinct vectors and ascending
    values are vectors in lexicographic order.  Values are Python ints,
    so there is no 64-bit limit; their bytes are capped (_check_image_bytes).
    """
    if k <= 0:
        raise EmptyInput(f"need k >= 1, got {k}")
    b = f.u_total.bit_length()
    shifts = [b * t for t in reversed(range(k))]
    digit = (1 << b) - 1
    xs = [1 << (b * t) for t in range(k)]
    _check_image_bytes(f, xs, vector_len=k)
    values = sorted(_dilate_chain(f, xs))
    return tuple(tuple((v >> s) & digit for s in shifts) for v in values)


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
        raise ValueOverflow(
            f"|f| can reach a {worst.bit_length()}-bit value, beyond signed 64-bit range"
        )
    return tuple(xs)


def image(f: LinearForm, elems: Iterable[int]) -> tuple[int, ...]:
    """The image f(A), its distinct values sorted, by the dilate chain (_dilate_chain)."""
    xs = checked_elems(f, elems)
    _check_image_bytes(f, xs)
    return tuple(sorted(_dilate_chain(f, xs)))


def image_mask(f: LinearForm, elems: Sequence[int]) -> int:
    """Bitmask of f(A) for a non-negative argument set (size-only queries).

    Bit n is set exactly when n is in f(A).  Runs the dilate chain
    M_i = { v + u_i * a } in m*k big-integer shifts; spectrum's chain
    loop uses it where that is cheaper than extending masks
    (explorer._census_pays).  The search kernels and the spectrum
    census extend the masks of a set's parent instead.
    """
    if elems and min(elems) < 0:
        raise ValueOverflow("bitmask images need non-negative elements")
    mask = 1
    for u in f.coeffs:
        cur = 0
        for a in elems:
            cur |= mask << (u * a)
        mask = cur
    return mask
