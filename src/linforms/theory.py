"""Closed forms, classification tables, and batch verification suites.

The closed forms gathered here describe the k-set minimum exactly on
special families:

* coefficients (1, 2, ..., m) realize the least possible minimum among
  strictly increasing coefficient vectors:
  ((m^2+m)/2) k - (m^2+m-2)/2, on {0, ..., k-1};
* forms whose coefficients hit every subset sum in [0, u_total]
  ("complete" forms) have minimum u_total*(k-1) + 1, minimized exactly
  by arithmetic progressions;
* two-variable forms split into (1,1) -> 2k-1, (1,2) -> 3k-2, and the
  rest, where the 3-set value is exactly 8 and the block bound gives
  (7k-5)/2 for odd k, (7k-6)/2 for even k;
* three-variable minimum 2-set images follow a six-case table in the
  coefficient pattern, and strictly increasing coefficients give
  6k-5 in general, 7k-6 when u1 + u2 != u3.

Each suite replays one of these statements over a bounded slice of form
space and reports mismatches instead of raising, so a failing suite is
data, not a crash.  An exact value or a minimizer claim is searched
(compute_nf, whose exactness implies any floor); a floor alone is checked
on the replayed certificate (check_certificate), with no search.  The
suites and the converse scans share one runner (_run), which draws all
the instances of a run through one budget before the first check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Iterator

from .certificate import check_certificate, lower_certificate
from .engine import ExtremalResult, _check_diameter, compute_mf, compute_nf, exact_nf2
from .errors import (
    BudgetExceeded,
    InputError,
    NotBinary,
    NotStrictlyIncreasing,
    NotTernary,
)
from .forms import (
    LinearForm,
    enumerate_complete,
    enumerate_normalized,
    has_distinct_subset_sums,
)
from .sets import is_arithmetic_progression

#: A verify run touching more than this many (form, k) instances, over all
#: its suites, is refused before the first check.  It counts instances, not
#: their cost: `verify --suite thm31 --max-m 2 --max-coeff 330 --max-k 3`
#: holds 99,318 instances, within it, and was still running after 150 s.
INSTANCE_BUDGET = 100_000


def nstar_formula(m: int, k: int) -> int:
    """Least k-set minimum over strictly increasing coefficient vectors."""
    if m < 1 or k < 1:
        raise InputError(f"need m, k >= 1, got m={m}, k={k}")
    return ((m * m + m) // 2) * k - ((m * m + m - 2) // 2)


def complete_formula(u_total: int, k: int) -> int:
    """k-set minimum for a complete form with coefficient sum u_total."""
    if u_total < 1 or k < 1:
        raise InputError(f"need u_total, k >= 1, got {u_total}, {k}")
    return u_total * k - u_total + 1


@dataclass(frozen=True)
class BinaryClass:
    """Classification of a two-variable form with its k-set bound.

    exact is True when bound(k) is the minimum itself, False when it is
    a certified lower bound.
    """

    tag: str
    exact: bool

    def bound(self, k: int) -> int:
        if k < 1:
            raise InputError(f"need k >= 1, got {k}")
        if self.tag == "x1+x2":
            return 2 * k - 1
        if self.tag == "x1+2x2":
            return 3 * k - 2
        # (7k-5)/2 rounds down to (7k-6)/2 at even k: both block cases.
        return (7 * k - 5) // 2


def classify_binary(f: LinearForm) -> BinaryClass:
    """Sort a two-variable form into its minimum-image regime."""
    if f.m != 2:
        raise NotBinary(f"need a two-variable form, got {f}")
    if f.coeffs == (1, 1):
        return BinaryClass(tag="x1+x2", exact=True)
    if f.coeffs == (1, 2):
        return BinaryClass(tag="x1+2x2", exact=True)
    return BinaryClass(tag="general", exact=False)


def ternary_nf2_table(f: LinearForm) -> int:
    """2-set minimum for a three-variable form, by coefficient pattern.

    The six patterns classify which subset sums collide on {0, 1}:
    all equal -> 4; u1 = u2 with u3 = 2u1 -> 5; u1 = u2 otherwise -> 6;
    u1 < u2 = u3 -> 6; strictly increasing with u1 + u2 = u3 -> 7;
    strictly increasing otherwise -> 8 (all sums distinct).
    """
    if f.m != 3:
        raise NotTernary(f"need a three-variable form, got {f}")
    u1, u2, u3 = f.coeffs
    if u1 == u2 == u3:
        return 4
    if u1 == u2:
        return 5 if u3 == 2 * u1 else 6
    if u2 == u3:
        return 6
    return 7 if u1 + u2 == u3 else 8


def ternary_lower(f: LinearForm, k: int) -> int:
    """Certified k-set lower bound for strictly increasing ternary forms.

    6k-5 always; 7k-6 when u1 + u2 != u3 (then the 2-set value is 8 and
    the block bound with ell = 2 takes over).  Only strict increase is
    required; no further condition on u1 is needed.
    """
    if f.m != 3:
        raise NotTernary(f"need a three-variable form, got {f}")
    if not f.strictly_increasing:
        raise NotStrictlyIncreasing(f"need u1 < u2 < u3, got {f}")
    if k < 1:
        raise InputError(f"need k >= 1, got {k}")
    u1, u2, u3 = f.coeffs
    if u1 + u2 != u3:
        return max(6 * k - 5, 7 * k - 6)
    return 6 * k - 5


@dataclass(frozen=True)
class SuiteBounds:
    """Slice of form space a verification suite walks."""

    max_m: int
    max_coeff: int
    max_k: int
    diameter: int | None = None

    def __post_init__(self) -> None:
        if min(self.max_m, self.max_coeff, self.max_k) < 1:
            raise InputError(
                f"need max_m, max_coeff, max_k >= 1, got "
                f"{self.max_m}, {self.max_coeff}, {self.max_k}"
            )
        _check_diameter(self.max_k, self.diameter)  # for every suite, as scan refuses it


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one suite: instance count and any mismatches found."""

    suite: str
    bounds: SuiteBounds
    checked: int
    mismatches: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "bounds": {
                "max_m": self.bounds.max_m,
                "max_coeff": self.bounds.max_coeff,
                "max_k": self.bounds.max_k,
                "diameter": self.bounds.diameter,
            },
            "checked": self.checked,
            "mismatches": list(self.mismatches),
            "passed": self.passed,
        }


def _run(parts: Iterable[tuple], budget: int, refusal: str) -> Iterator[tuple[int, list]]:
    """Yield (checked, outputs) per part, in order, after drawing every part's items.

    A part is (items, check): a lazy stream of argument tuples and the
    check mapping each one to a list of outputs.  Items are drawn at
    most budget + 1 deep over all parts together, so a run over budget
    raises BudgetExceeded(refusal) before the first check, in memory
    bounded by the budget.
    """
    drawn, left = [], budget + 1
    for items, check in parts:
        items = list(islice(items, left))
        left -= len(items)
        if not left:
            raise BudgetExceeded(refusal)
        drawn.append((items, check))
    for items, check in drawn:
        yield len(items), [out for item in items for out in check(*item)]


def _expect_exact(f: LinearForm, k: int, want: int, res: ExtremalResult) -> list[str]:
    if res.exact and res.best == want:
        return []
    return [f"{f} k={k}: expected exact {want}, got [{res.lower},{res.best}] exact={res.exact}"]


def _expect_floor(f: LinearForm, k: int, floor: int) -> list[str]:
    bound = check_certificate(f, k, lower_certificate(f, k))[-1]
    return [] if bound >= floor else [f"{f} k={k}: certificate {bound} under the floor {floor}"]


def _suite_thm23(bounds: SuiteBounds) -> tuple[Iterable[tuple], Callable]:
    """Strictly increasing forms never beat the (1..m) formula, which is tight."""

    def check(f: LinearForm, k: int) -> list[str]:
        target = nstar_formula(f.m, k)
        if f.coeffs == tuple(range(1, f.m + 1)):
            return _expect_exact(f, k, target, compute_nf(f, k, diameter=bounds.diameter))
        return _expect_floor(f, k, target)

    ms, ks, c = range(2, bounds.max_m + 1), range(2, bounds.max_k + 1), bounds.max_coeff
    return ((f, k) for m in ms for k in ks for f in enumerate_normalized(m, c, True)), check


def _suite_thm31(bounds: SuiteBounds) -> tuple[Iterable[tuple], Callable]:
    """Two-variable classification: exact values searched, the general floor certified."""

    def check(f: LinearForm, k: int) -> list[str]:
        cls = classify_binary(f)
        want = cls.bound(k)
        if cls.exact or k == 3:  # the general bound at k = 3 is the exact value 8
            return _expect_exact(f, k, want, compute_nf(f, k, diameter=bounds.diameter))
        return _expect_floor(f, k, want)

    forms = enumerate_normalized(2, bounds.max_coeff) if bounds.max_m >= 2 else ()
    return ((f, k) for f in forms for k in range(1, bounds.max_k + 1)), check


def _suite_lem32(bounds: SuiteBounds) -> tuple[Iterable[tuple], Callable]:
    """Ternary 2-set table against the subset-sum count."""

    def check(f: LinearForm, k: int) -> list[str]:
        table, direct = ternary_nf2_table(f), exact_nf2(f)
        return [] if table == direct else [f"{f}: table {table} != subset-sum count {direct}"]

    forms = enumerate_normalized(3, bounds.max_coeff) if bounds.max_m >= 3 else ()
    return ((f, 2) for f in forms), check


def _suite_thm41(bounds: SuiteBounds) -> tuple[Iterable[tuple], Callable]:
    """Complete forms: exact formula and progressions as sole minimizers."""

    def check(f: LinearForm, k: int) -> list[str]:
        res = compute_nf(f, k, diameter=bounds.diameter)
        bad = _expect_exact(f, k, complete_formula(f.u_total, k), res)
        if bad or f.u_total == 1:
            # The single-unit form maps every k-set to exactly k values,
            # so every set minimizes; uniqueness only holds from sum 2 up.
            return bad
        mins = res.witnesses
        if tuple(w.elems for w in mins) != (tuple(range(k)),):
            bad.append(
                f"{f} k={k}: minimizers {[list(w.elems) for w in mins]}, "
                f"expected only the progression"
            )
        if not all(is_arithmetic_progression(w.elems) for w in mins):
            bad.append(f"{f} k={k}: non-progression minimizer found")
        return bad

    ms, ks = range(1, bounds.max_m + 1), range(1, bounds.max_k + 1)
    forms = (f for m in ms for f in enumerate_complete(m, bounds.max_coeff))
    return ((f, k) for f in forms for k in ks), check


def _suite_mf_bounds(bounds: SuiteBounds) -> tuple[Iterable[tuple], Callable]:
    """Maximum image size: sandwich, strict-increase floor, distinctness law."""

    def check(f: LinearForm, k: int) -> list[str]:
        res = compute_mf(f, k)
        bad = []
        lo, hi = math.comb(k, f.m), k**f.m
        if not (lo <= res.value <= hi):
            bad.append(f"{f} k={k}: M={res.value} outside [{lo},{hi}]")
        floor = math.perm(k, f.m)
        if f.strictly_increasing and res.value < floor:
            bad.append(f"{f} k={k}: M={res.value} under the strict-increase floor {floor}")
        # At k = 1 every form has M = 1 = k^m; the equivalence with
        # distinct subset sums only speaks for k >= 2.
        dss = has_distinct_subset_sums(f)
        if k >= 2 and (res.value == hi) != dss:
            bad.append(
                f"{f} k={k}: M={res.value}, k^m={hi}, distinct subset "
                f"sums={dss}: equivalence broken"
            )
        return bad

    ms, ks = range(1, bounds.max_m + 1), range(1, bounds.max_k + 1)
    forms = (f for m in ms for f in enumerate_normalized(m, bounds.max_coeff))
    return ((f, k) for f in forms for k in ks), check


_SUITES = {
    "thm23": _suite_thm23,
    "thm31": _suite_thm31,
    "lem32": _suite_lem32,
    "thm41": _suite_thm41,
    "mf_bounds": _suite_mf_bounds,
}

SUITES = tuple(_SUITES)


def _verify(names: list[str], bounds: SuiteBounds) -> Iterator[VerificationReport]:
    """One report per named suite, as each finishes; the run is refused over INSTANCE_BUDGET."""
    if unknown := [name for name in names if name not in _SUITES]:
        raise InputError(f"unknown suite {unknown[0]!r}; choose from {', '.join(SUITES)}")
    noun = "suite" if len(names) == 1 else "suites"
    refusal = f"{noun} would touch more than {INSTANCE_BUDGET} instances"
    runs = _run((_SUITES[name](bounds) for name in names), INSTANCE_BUDGET, refusal)
    for name, (checked, bad) in zip(names, runs):
        yield VerificationReport(suite=name, bounds=bounds, checked=checked, mismatches=tuple(bad))


def verify_suite(suite: str, bounds: SuiteBounds) -> VerificationReport:
    """Replay one named statement against the engine over bounded forms."""
    (report,) = _verify([suite], bounds)
    return report
