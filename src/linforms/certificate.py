"""Lower-bound certificates for the k-set minimum of |f(A)|, and their checker.

Cut a k-set A = {a_1 < ... < a_k} into the blocks A' = {a_1, ..., a_j}
and A'' = {a_j, ..., a_k}, which share the point x = a_j.  Every value
of f on A' lies in [u_total*a_1, u_total*x] and every value on A'' in
[u_total*x, u_total*a_k], so the two images meet only in u_total*x and

    |f(A)|  >=  |f(A')| + |f(A'')| - 1.

The argument needs only *lower bounds* for the blocks, so lower bounds
L(n) for the n-set minimum compose by the split recursion

    L(n) = max over a + b = n + 1 (a, b >= 2) of L(a) + L(b) - 1

from three base values: L(1) = 1; L(2) = nf2, the number of subset sums
of the coefficients (every 2-set is equivalent to {0, 1}); and, for
two-variable forms with u2 >= 3, L(3) = 8 (binary_nf3_certificate).

A Certificate records those base values and the first-block size a
used at every n <= k, so check_certificate can replay it from the form
alone in integer arithmetic.  Nothing in this module searches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BadCertificate, InputError, LinformsError, NotBinary, NotCoprime
from .forms import LinearForm, subset_sums

#: The exact 3-set minimum of coprime two-variable forms with u2 >= 3.
BINARY_NF3 = 8


@dataclass(frozen=True)
class Certificate:
    """A lower bound for the k-set minimum, replayable by check_certificate.

    bound = L(k) for the split recursion from the base values nf2 and
    nf3 (None when the 3-set base is not used); splits[n - 1] is the
    first-block size a behind L(n), None at the base sizes.
    """

    bound: int
    nf2: int
    nf3: int | None
    splits: tuple[int | None, ...]

    def to_json(self) -> dict:
        return {"nf2": self.nf2, "nf3": self.nf3, "splits": list(self.splits)}


def _bases(nf2: int, nf3: int | None) -> list[int]:
    return [1, nf2] if nf3 is None else [1, nf2, nf3]


def split_recursion(nf2: int, nf3: int | None, k: int) -> tuple[list[int], tuple[int | None, ...]]:
    """L(1), ..., L(k), and the least first-block size a attaining each (None at a base)."""
    bounds = _bases(nf2, nf3)[:k]
    splits: list[int | None] = [None] * len(bounds)
    for n in range(len(bounds) + 1, k + 1):
        # a and n + 1 - a give the same value, so a <= (n + 1) / 2 suffices.
        a = max(range(2, (n + 1) // 2 + 1), key=lambda a: bounds[a - 1] + bounds[n - a])
        bounds.append(bounds[a - 1] + bounds[n - a] - 1)
        splits.append(a)
    return bounds, tuple(splits)


def binary_nf3_certificate(f: LinearForm) -> Certificate | None:
    """Exact 3-set minimum for two-variable forms beyond the first cases.

    For coprime u1 <= u2 with u2 >= 3 the nine values on {a < b < c}
    admit at most one coincidence: the orderings force any collision
    into u1*(c - a) = u2*(b - a) or its mirror, and the arithmetic facts
    u2 != 2*u1 and u1^2 + u1*u2 - u2^2 != 0 rule out a second collision
    occurring together with the first.  Hence the minimum is exactly 8
    (witnessed by {0, u1, u2}).  Returns None for (1,1) and (1,2),
    where smaller images exist.
    """
    return None if _binary_nf3(f) is None else lower_certificate(f, 3)


def _binary_nf3(f: LinearForm) -> int | None:
    """The 3-set value of binary_nf3_certificate, checking its hypotheses."""
    if f.m != 2:
        raise NotBinary(f"need a two-variable form, got {f}")
    u1, u2 = f.coeffs
    if math.gcd(u1, u2) != 1:
        raise NotCoprime(f"need coprime coefficients, got {f}")
    if u2 < 3:
        return None
    # Both checks are consequences of coprimality with u2 >= 3; they are
    # asserted because the exactness of 8 stands on them.
    if u2 == 2 * u1 or u1 * u1 + u1 * u2 - u2 * u2 == 0:
        raise LinformsError(f"internal: case analysis hypotheses fail for {f}")
    return BINARY_NF3


def lower_certificate(f: LinearForm, k: int) -> Certificate:
    """The split-recursion lower bound for k-sets from every base value that applies."""
    if k < 1:
        raise InputError(f"need k >= 1, got {k}")
    nf3 = _binary_nf3(f) if f.m == 2 else None
    nf2 = len(subset_sums(f))
    bounds, splits = split_recursion(nf2, nf3, k)
    return Certificate(bounds[-1], nf2, nf3, splits)


def check_certificate(f: LinearForm, k: int, cert: Certificate) -> list[int]:
    """Replay cert as a lower bound for k-sets of f: its L(1), ..., L(k).

    nf2 is recounted from the subset sums, a 3-set value must be the 8
    of binary_nf3_certificate with its hypotheses met, and every split
    must lie in 2..n-1 and lead to the recorded bound; BadCertificate
    otherwise.  Splits other than the ones lower_certificate picks, and
    a certificate without the 3-set value, are accepted: each gives a
    valid, if weaker, bound.
    """
    if k < 1:
        raise InputError(f"need k >= 1, got {k}")

    def bad(why: str) -> BadCertificate:
        return BadCertificate(f"certificate for {f}, k={k}: {why}")

    nf2 = len(subset_sums(f))
    if cert.nf2 != nf2:
        raise bad(f"nf2 is {nf2}, not {cert.nf2}")
    if cert.nf3 is not None and (f.m != 2 or cert.nf3 != _binary_nf3(f)):
        raise bad(f"no case analysis gives the 3-set value {cert.nf3}")
    if len(cert.splits) != k:
        raise bad(f"{len(cert.splits)} splits for {k} sizes")
    bases = _bases(nf2, cert.nf3)
    bounds: list[int] = []
    for n, a in enumerate(cert.splits, start=1):
        if n <= len(bases):
            if a is not None:
                raise bad(f"size {n} is a base value, not split at {a}")
            bounds.append(bases[n - 1])
        elif a is None or not 2 <= a <= n - 1:
            raise bad(f"size {n} split at {a}")
        else:
            bounds.append(bounds[a - 1] + bounds[n - a] - 1)
    if bounds[-1] != cert.bound:
        raise bad(f"the splits give {bounds[-1]}, not {cert.bound}")
    return bounds
