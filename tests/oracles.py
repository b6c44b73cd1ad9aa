"""Independent oracles for checking the engine.

Everything here deliberately avoids the package's dilate chain, bitmask
images, completion-bound pruning and depth-first search: images and
mass vectors come from a plain product loop over argument tuples and
minima from full enumeration of canonical sets, so engine results are
always checked against a second, dumber code path.
"""

from __future__ import annotations

import itertools
import math
import random


def oracle_image(coeffs, elems) -> set[int]:
    """Image of the form on a set via the definition: all argument tuples."""
    return {
        sum(u * a for u, a in zip(coeffs, tup))
        for tup in itertools.product(elems, repeat=len(coeffs))
    }


def oracle_image_size(coeffs, elems) -> int:
    return len(oracle_image(coeffs, elems))


def oracle_mass_vectors(coeffs, k: int) -> tuple[tuple[int, ...], ...]:
    """Distinct mass vectors via the definition: every k^m index tuple.

    Variable j placed on element i adds its coefficient to slot i.
    """
    vectors = set()
    for tup in itertools.product(range(k), repeat=len(coeffs)):
        s = [0] * k
        for u, i in zip(coeffs, tup):
            s[i] += u
        vectors.add(tuple(s))
    return tuple(sorted(vectors))


def canonical_ksets(k: int, diameter: int):
    """All {0 = a_0 < ... < a_{k-1} <= diameter} with element gcd 1."""
    if k == 1:
        yield (0,)
        return
    for rest in itertools.combinations(range(1, diameter + 1), k - 1):
        if math.gcd(*rest) == 1:
            yield (0, *rest)


def reflection_reps(sets) -> list[tuple[int, ...]]:
    """Keep the lexicographically smaller of each set and its reflection."""
    reps = set()
    for elems in sets:
        d = elems[-1]
        mirrored = tuple(d - x for x in reversed(elems))
        reps.add(min(elems, mirrored))
    return sorted(reps)


def oracle_min(coeffs, k: int, diameter: int):
    """(best, witnesses) by exhaustive enumeration; witnesses deduped by reflection."""
    best = None
    raw: list[tuple[int, ...]] = []
    for elems in canonical_ksets(k, diameter):
        size = oracle_image_size(coeffs, elems)
        if best is None or size < best:
            best, raw = size, [elems]
        elif size == best:
            raw.append(elems)
    return best, tuple(reflection_reps(raw))


def random_form_coeffs(rng: random.Random, max_m: int = 4, max_coeff: int = 9):
    """A random normalized (ascending, gcd 1) coefficient tuple."""
    while True:
        m = rng.randint(1, max_m)
        coeffs = sorted(rng.randint(1, max_coeff) for _ in range(m))
        if math.gcd(*coeffs) == 1:
            return tuple(coeffs)


def random_kset(rng: random.Random, k: int, lo: int = -50, hi: int = 50):
    """A random set of k distinct integers (not necessarily canonical)."""
    pool = list(range(lo, hi + 1))
    return tuple(sorted(rng.sample(pool, k)))
