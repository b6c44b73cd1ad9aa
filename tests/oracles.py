"""Independent oracles for checking the engine.

Everything here deliberately avoids the package's dilate chain, bitmask
images, completion-bound pruning and depth-first search: images and
mass vectors come from a plain product loop over argument tuples and
minima from full enumeration of canonical sets, so engine results are
always checked against a second, dumber code path.
"""

from __future__ import annotations

import collections
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


def oracle_census(coeffs, k: int, diameter: int) -> tuple[tuple[int, int], ...]:
    """(image size, sets) pairs over canonical k-sets within diameter, one per mirror pair."""
    sizes = collections.Counter(
        oracle_image_size(coeffs, elems) for elems in reflection_reps(canonical_ksets(k, diameter))
    )
    return tuple(sorted(sizes.items()))


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


def collision_events(coeffs, elems, top: int) -> dict[int, int]:
    """Coincidences of the binary filter's new terms at each e in (max(elems), top], by definition.

    For f = u1*x + u2*y, counts the triples (x, a, b) of elements with
    u1*e + u2*x = u1*a + u2*b, those with u2*e + u1*x = u1*a + u2*b, and
    the pairs x != y with u1*e + u2*x = u2*e + u1*y.
    """
    u1, u2 = coeffs
    pairs = collections.Counter(u1 * a + u2 * b for a in elems for b in elems)
    counts = {}
    for e in range(max(elems) + 1, top + 1):
        events = sum(pairs[u1 * e + u2 * x] + pairs[u2 * e + u1 * x] for x in elems)
        for x, y in itertools.permutations(elems, 2):
            events += u1 * e + u2 * x == u2 * e + u1 * y
        counts[e] = events
    return counts


def oracle_dfs(coeffs, k: int, diameter: int, cb):
    """(best, raw witnesses, nodes) of the kernels' pruned search, without masks or filters.

    Visits the prefixes of the k-sets {0 < a_1 < ... <= diameter} whose
    first gap is at most their last gap, each prefix's next elements in
    increasing order.  Every next element tried is a node, the root {0}
    is one more, and a prefix with t slots left before it is dropped
    when its image size plus cb[t - 1] exceeds the best so far.  Full
    sets of gcd 1 with the best size are the witnesses, in visiting
    order.  Needs k >= 2.
    """
    nexts: dict[tuple[int, ...], set[int]] = {}
    for rest in itertools.combinations(range(1, diameter + 1), k - 1):
        elems = (0, *rest)
        if elems[1] <= elems[-1] - elems[-2]:
            for j in range(1, k):
                nexts.setdefault(elems[:j], set()).add(elems[j])
    best = None
    raw: list[tuple[int, ...]] = []
    nodes = 1

    def visit(prefix: tuple[int, ...]) -> None:
        nonlocal best, raw, nodes
        t = k - len(prefix)
        for e in sorted(nexts[prefix]):
            nodes += 1
            elems = prefix + (e,)
            size = oracle_image_size(coeffs, elems)
            if best is not None and size + cb[t - 1] > best:
                continue
            if t > 1:
                visit(elems)
            elif math.gcd(*elems) == 1:
                if best is None or size < best:
                    best, raw = size, [elems]
                elif size == best:
                    raw.append(elems)

    visit((0,))
    return best, raw, nodes


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
