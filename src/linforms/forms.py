"""Linear forms with positive integer coefficients, and their subset sums.

A form is f(x_1, ..., x_m) = u_1 x_1 + ... + u_m x_m with every u_j a
positive integer.  Replacing the coefficient vector by a permutation of
itself, or scaling it by a positive constant, does not change how many
distinct values f takes on any finite set of integers, so forms are kept
in a normal form: coefficients sorted ascending with overall gcd 1.

The subset sums S(f) = { sum_{j in J} u_j : J subseteq {1..m} } drive the
small cases: f applied to {0, 1} takes exactly the values in S(f), and
several certified bounds are built from |S(f)| alone.  S(f) is kept as a
dense bit table over [0, u_total], which makes the classic shift-or DP a
handful of big-integer operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
from typing import Iterator, Sequence

from .errors import (
    CapacityExceeded,
    EmptyCoefficients,
    InputError,
    NonPositiveCoefficient,
    NotCoprime,
)

#: Widest supported bit table for subset sums; wider requests are refused.
UTOTAL_CAP = 10**6


@dataclass(frozen=True)
class LinearForm:
    """A normalized positive linear form: coeffs sorted ascending with gcd 1."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise EmptyCoefficients("form has no coefficients")
        if any(not isinstance(u, int) or isinstance(u, bool) or u <= 0 for u in self.coeffs):
            raise NonPositiveCoefficient(
                f"coefficients must be positive integers, got {self.coeffs}"
            )
        if list(self.coeffs) != sorted(self.coeffs):
            raise InputError(f"coefficients must be sorted ascending, got {self.coeffs}")
        if math.gcd(*self.coeffs) != 1:
            raise NotCoprime(
                f"LinearForm requires gcd 1 coefficients, got {self.coeffs}; use normalize_form()"
            )

    @property
    def m(self) -> int:
        """Number of variables."""
        return len(self.coeffs)

    @property
    def u_total(self) -> int:
        """Sum of all coefficients (the largest subset sum)."""
        return sum(self.coeffs)

    @property
    def strictly_increasing(self) -> bool:
        """True when u_1 < u_2 < ... < u_m."""
        return all(a < b for a, b in zip(self.coeffs, self.coeffs[1:]))

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self.coeffs)) + ")"


@dataclass(frozen=True)
class SubsetSumSet:
    """Dense membership table for the subset sums of a form.

    ``mask`` has bit n set exactly when n is a subset sum; the table
    spans [0, u_total].
    """

    mask: int
    u_total: int

    def __contains__(self, n: int) -> bool:
        return 0 <= n <= self.u_total and (self.mask >> n) & 1 == 1

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[int]:
        return iter(self.to_list())

    def to_list(self) -> list[int]:
        """All subset sums in increasing order."""
        return [n for n in range(self.u_total + 1) if (self.mask >> n) & 1]


def normalize_form(raw: Sequence[int]) -> LinearForm:
    """Validate, sort, and gcd-reduce a coefficient vector.

    Raises EmptyCoefficients / NonPositiveCoefficient on malformed input
    and CapacityExceeded when the reduced coefficient sum would not fit
    the dense bit table (UTOTAL_CAP).
    """
    coeffs = tuple(raw)
    if not coeffs:
        raise EmptyCoefficients("form has no coefficients")
    for u in coeffs:
        if not isinstance(u, int) or isinstance(u, bool) or u <= 0:
            raise NonPositiveCoefficient(f"coefficients must be positive integers, got {u!r}")
    g = math.gcd(*coeffs)
    reduced = tuple(sorted(u // g for u in coeffs))
    if sum(reduced) > UTOTAL_CAP:
        raise CapacityExceeded(
            f"coefficient sum {sum(reduced)} exceeds the bit-table cap {UTOTAL_CAP}"
        )
    return LinearForm(coeffs=reduced)


def parse_coeffs(text: str) -> LinearForm:
    """Parse a comma-separated list of ASCII integer coefficients such as "1,2,3"."""
    parts = [p.strip() for p in text.split(",")]
    if parts == [""]:
        raise EmptyCoefficients("empty coefficient list")
    values = []
    for p in parts:
        digits = p.removeprefix("-")  # int() alone also takes "+3", "1_0", full-width digits
        try:
            if not (digits.isascii() and digits.isdigit()):
                raise ValueError
            values.append(int(p))
        except ValueError:  # int() also refuses past its digit limit
            raise NonPositiveCoefficient(f"not an integer coefficient: {p!r}") from None
    return normalize_form(values)


def subset_sums(f: LinearForm) -> SubsetSumSet:
    """All subset sums of the coefficients, by shift-or DP.

    Inserting coefficient u maps the table S to S | (S << u); starting
    from {0} this runs in m big-integer shifts.
    """
    mask = 1
    for u in f.coeffs:
        mask |= mask << u
    return SubsetSumSet(mask=mask, u_total=f.u_total)


def is_complete(f: LinearForm) -> bool:
    """True when every integer in [0, u_total] is a subset sum."""
    return len(subset_sums(f)) == f.u_total + 1


def has_distinct_subset_sums(f: LinearForm) -> bool:
    """True when all 2^m subset sums are pairwise distinct."""
    return len(subset_sums(f)) == 1 << f.m


def enumerate_normalized(
    m: int, max_coeff: int, strictly_increasing: bool = False
) -> Iterator[LinearForm]:
    """Yield every normalized m-variable form with coefficients <= max_coeff.

    Ascending (optionally strict) coefficient tuples with gcd 1, in
    lexicographic order.  This is the canonical way suites and scans walk
    a bounded slice of form space.  Raises InputError for m < 1.
    """
    if m < 1:
        raise InputError(f"need m >= 1, got {m}")
    pick = combinations if strictly_increasing else combinations_with_replacement
    tuples = pick(range(1, max_coeff + 1), m)
    return (LinearForm(coeffs=tup) for tup in tuples if math.gcd(*tup) == 1)


def enumerate_complete(m: int, max_coeff: int) -> Iterator[LinearForm]:
    """Yield every complete m-variable form with coefficients <= max_coeff.

    Sorted coefficients are complete exactly when u_1 = 1 and each
    u_i <= 1 + (u_1 + ... + u_{i-1}) (Brown's criterion: J. L. Brown,
    "Note on complete sequences of integers", Amer. Math. Monthly 68,
    1961), so a depth-first search generates them directly, in the
    order of enumerate_normalized, instead of filtering every form; u_1
    = 1 makes the gcd 1.  Raises InputError for m < 1.
    """
    if m < 1:
        raise InputError(f"need m >= 1, got {m}")

    def extend(prefix: tuple[int, ...], total: int) -> Iterator[LinearForm]:
        if len(prefix) == m:
            yield LinearForm(coeffs=prefix)
            return
        for u in range(prefix[-1], min(total + 1, max_coeff) + 1):
            yield from extend(prefix + (u,), total + u)

    return extend((1,), 1) if max_coeff >= 1 else iter(())
