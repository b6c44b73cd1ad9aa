"""Image-size spectra and conjecture scans over bounded form families.

Beyond the two extremes, the full spectrum E = { |f(A)| : A canonical,
diameter <= D } says how image sizes are distributed, and two converse
questions about complete forms are worth scanning for counterexamples:

* does an incomplete form ever attain the complete-form minimum
  u_total*(k-1) + 1?
* does an incomplete form ever have arithmetic progressions as its
  only minimizers?

A scan never treats an open bracket as evidence: a form whose minimum
is not certified exact is reported inconclusive, and candidate
counterexamples are only flagged on exact values.  Everything is
relative to the searched diameter, which is recorded in each finding.
Scans share the verify suites' runner: a run draws every slice's forms
once, against one SCAN_BUDGET, before the first search.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import combinations
from typing import Iterable, Iterator

from .engine import (
    SEARCH_BITS_CAP,
    ExtremalResult,
    _census_general,
    _check_diameter,
    _general_bits,
    compute_mf,
    compute_nf,
    exact_nf2,
    search_diameter,
)
from .errors import BudgetExceeded, InputError
from .forms import LinearForm, enumerate_normalized, is_complete
from .sets import _shown, image_mask, is_arithmetic_progression
from .theory import _run, complete_formula

STATUS_CONSISTENT = "consistent"
STATUS_CANDIDATE = "candidate-counterexample"
STATUS_INCONCLUSIVE = "inconclusive"
#: A certified-exact observation contradicting a proved statement: a bug,
#: flagged loudly rather than folded into the conjecture statuses.
STATUS_THEOREM_CONFLICT = "theorem-conflict"

#: Spectrum enumeration refuses more candidate sets than this.
SPECTRUM_BUDGET = 10**6

#: Below this many candidate sets a spectrum keeps the chain loop (_census_pays).
CENSUS_MIN_SETS = 256

#: A scan run refuses to walk more forms than this, over all its slices.
SCAN_BUDGET = 10_000


@dataclass(frozen=True)
class SpectrumReport:
    """Every attained image size at (f, k, diameter), with multiplicities.

    census counts canonical, reflection-deduplicated k-sets per value;
    its totals therefore count equivalence classes, not raw sets.
    """

    form: LinearForm
    k: int
    diameter: int
    values: tuple[int, ...]
    census: tuple[tuple[int, int], ...]
    mf_value: int

    @property
    def is_interval(self) -> bool:
        return not self.values or len(self.values) == self.values[-1] - self.values[0] + 1

    @property
    def mf_reached(self) -> bool:
        return bool(self.values) and self.values[-1] == self.mf_value

    def to_json(self) -> dict:
        return {
            "coeffs": list(self.form.coeffs),
            "k": self.k,
            "diameter": self.diameter,
            "values": list(self.values),
            "census": [[v, c] for v, c in self.census],
            "is_interval": self.is_interval,
            "mf_value": self.mf_value,
            "mf_reached": self.mf_reached,
        }


@dataclass(frozen=True)
class ScanFinding:
    """One form's verdict under one conjecture scan."""

    problem: str
    form: LinearForm
    k: int
    diameter: int
    lower: int
    best: int
    exact: bool
    predicted: int
    complete: bool
    status: str
    detail: str = ""

    def to_json(self) -> dict:
        return {
            "problem": self.problem,
            "coeffs": list(self.form.coeffs),
            "k": self.k,
            "diameter": self.diameter,
            "lower": self.lower,
            "best": self.best,
            "exact": self.exact,
            "predicted": self.predicted,
            "complete": self.complete,
            "status": self.status,
            "detail": self.detail,
        }


def _census_pays(f: LinearForm, k: int, D: int, sets: int) -> bool:
    """Whether spectrum counts (f, k, D) by the census rather than the chain loop.

    Per canonical set, in shift-ORs: the census builds an image in
    nf2 - 1, and each frame of last elements, about (D - k + 2)/(k - 1)
    sets, first extends a table of t = prod(c + 1) masks in s = t * sum
    c/(c + 1) steps and ORs it into groups, c running over the
    coefficients' multiplicities; the chain loop builds an image in m*k,
    and its tuple, gcd and mirror work per candidate costs about 8 more.
    The census is taken when
    nf2 - 1 + 2(s + t)(k - 1)/(D - k + 2) < m*k + 8, for k >= 3 and at
    least CENSUS_MIN_SETS candidate sets, and only if its masks, counted
    as the general search's (_general_bits), fit SEARCH_BITS_CAP.  The
    weights 2 and 8 are fitted to the loops' times on 1,190 instances of
    256 to 30,000 candidate sets: on each one the rule gives the census,
    the census took at most 0.86x the chain loop's time.
    """
    if k < 3 or sets < CENSUS_MIN_SETS:
        return False
    mult = Counter(f.coeffs).values()
    table = math.prod(c + 1 for c in mult)
    steps = table * sum(c / (c + 1) for c in mult)
    per_set = exact_nf2(f) - 1 + 2 * (steps + table) * (k - 1) / (D - k + 2)
    return per_set < f.m * k + 8 and _general_bits(f, k, D) <= SEARCH_BITS_CAP


def spectrum(f: LinearForm, k: int, diameter: int | None = None) -> SpectrumReport:
    """Census of |f(A)| over canonical k-sets with diameter <= D.

    Counts every canonical set (gcd 1) once per reflection pair, so the
    candidate count C(D, k-1) is checked against SPECTRUM_BUDGET first.
    Two loops count the same sets.  The census (engine._census_general)
    visits only the sets whose first gap is at most their last gap, as
    the searches do, skips those of gcd > 1 by a running gcd, and gets
    each image in nf2 - 1 shift-ORs from masks its parent kept; a set
    whose end gaps are equal is kept unless its mirror image is
    lexicographically smaller.  The chain loop walks all C(D, k-1)
    candidates, compares each with its mirror image and builds the
    image of each one it keeps from nothing, m*k shift-ORs (image_mask).

    _census_pays picks the loop from the form, k and D.  The chain loop
    keeps forms with many subset sums, k = 2 (one set of gcd 1, so one
    image), fewer than CENSUS_MIN_SETS candidate sets (laying out the
    census's frames costs more than it saves), and small diameters with
    large mask tables, whose frames hold few sets each.  Timed against
    the chain loop alone, the two interleaved in one process (2 vCPUs,
    CPython 3.11): of 2,483 instances (m <= 7, k = 2..8, six diameters
    each, up to 20,000 candidate sets) the rule gave the census 826,
    each 0.19x to 0.91x the chain loop's time.  The census everywhere
    would be up to 10x slower:
    (1,...,7) at k = 7 and D = 11 23 ms against 2.3, (1,...,10) at k = 3
    67 ms against 14.
    """
    if k < 1:
        raise InputError(f"need k >= 1, got {k}")
    D = search_diameter(f, k, diameter)
    _check_diameter(k, D)
    sets = math.comb(D, k - 1)
    if sets > SPECTRUM_BUDGET:
        raise BudgetExceeded(
            f"{_shown(sets)} candidate sets exceed the spectrum budget {SPECTRUM_BUDGET}"
        )
    if k == 1:
        counts = {1: 1}
    elif _census_pays(f, k, D, sets):
        counts = _census_general(f.coeffs, k, D)
    else:
        counts = Counter()
        for rest in combinations(range(1, D + 1), k - 1):
            elems = (0,) + rest
            if math.gcd(*elems) != 1:
                continue
            mirrored = tuple(elems[-1] - x for x in reversed(elems))
            if mirrored < elems:
                continue  # the reflection partner is counted instead
            counts[image_mask(f, elems).bit_count()] += 1
    mf_value = compute_mf(f, k).value
    return SpectrumReport(
        form=f,
        k=k,
        diameter=D,
        values=tuple(sorted(counts)),
        census=tuple(sorted(counts.items())),
        mf_value=mf_value,
    )


def _scan(slices: Iterable[tuple], diameter: int | None) -> Iterator[ScanFinding]:
    """Findings of every (problem, m, max_coeff, k) slice, in order.

    Every slice's (form, complete) pairs are drawn through one budget
    before the first search: over SCAN_BUDGET forms in all is refused.
    """

    def finding(problem: str, k: int, f: LinearForm, complete: bool) -> list[ScanFinding]:
        _, verdict = _PROBLEMS[problem]
        res = compute_nf(f, k, diameter=diameter)
        predicted = complete_formula(f.u_total, k)
        status, detail = verdict(f, res, complete, predicted)
        return [
            ScanFinding(
                problem=problem, form=f, k=k, diameter=res.diameter_searched,
                lower=res.lower, best=res.best, exact=res.exact, predicted=predicted,
                complete=complete, status=status, detail=detail,
            )
        ]

    parts = (
        (_PROBLEMS[problem][0](m, max_coeff), partial(finding, problem, k))
        for problem, m, max_coeff, k in slices
    )
    for _, findings in _run(parts, SCAN_BUDGET, f"scan would walk more than {SCAN_BUDGET} forms"):
        yield from findings


def _completeness_verdict(
    f: LinearForm, res: ExtremalResult, complete: bool, predicted: int
) -> tuple[str, str]:
    if res.best < predicted:
        return STATUS_CONSISTENT, ""
    if res.exact:
        return STATUS_CANDIDATE, "incomplete form attains the complete-form minimum"
    return STATUS_INCONCLUSIVE, f"bracket [{res.lower},{res.best}] still allows {predicted}"


def scan_completeness_converse(
    m: int, max_coeff: int, k: int, diameter: int | None = None
) -> tuple[ScanFinding, ...]:
    """Hunt incomplete forms attaining the complete-form minimum.

    For every incomplete normalized form, compare the certified bracket
    with u_total*(k-1) + 1.  An exact match is a candidate
    counterexample; a best value below it is consistent; an open
    bracket that still allows equality is inconclusive.
    """
    return tuple(_scan([("completeness", m, max_coeff, k)], diameter))


def _ap_verdict(
    f: LinearForm, res: ExtremalResult, complete: bool, predicted: int
) -> tuple[str, str]:
    if not res.exact:
        return STATUS_INCONCLUSIVE, f"bracket [{res.lower},{res.best}] open; minimizers unverified"
    if f.u_total == 1:
        # Single-unit form: every k-set attains the minimum k, so the
        # progression-uniqueness dichotomy is vacuous either way.
        return STATUS_CONSISTENT, "degenerate single-unit form: every set minimizes"
    if res.k <= 2:
        # Every set of one or two integers is a progression, so
        # "all minimizers are progressions" carries no information.
        return STATUS_CONSISTENT, "every set of size <= 2 is a progression; vacuous"
    non_ap = next((w for w in res.witnesses if not is_arithmetic_progression(w.elems)), None)
    if complete and non_ap is not None:
        return STATUS_THEOREM_CONFLICT, f"complete form has non-progression minimizer {non_ap}"
    if not complete and non_ap is None:
        return STATUS_CANDIDATE, "incomplete form, yet every minimizer is a progression"
    return STATUS_CONSISTENT, ""


def scan_ap_minimizer_converse(
    m: int, max_coeff: int, k: int, diameter: int | None = None
) -> tuple[ScanFinding, ...]:
    """Hunt incomplete forms whose only minimizers are progressions.

    Complete forms must have progressions as their sole minimizers; an
    exact observation violating that is flagged as theorem-conflict
    (an engine bug, not number theory).  For incomplete forms,
    progression-only minimizers make a candidate counterexample.
    Minimizer lists are only trusted when the minimum is exact.
    """
    return tuple(_scan([("ap-minimizers", m, max_coeff, k)], diameter))


# problem -> (its (form, complete) pairs at (m, max_coeff), drawn lazily; its verdict)
_PROBLEMS = {
    "completeness": (
        lambda m, c: ((f, False) for f in enumerate_normalized(m, c) if not is_complete(f)),
        _completeness_verdict,
    ),
    "ap-minimizers": (
        lambda m, c: ((f, is_complete(f)) for f in enumerate_normalized(m, c)),
        _ap_verdict,
    ),
}
