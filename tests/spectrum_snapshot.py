"""The grid behind tests/data/spectrum_snapshot.jsonl: spectrum reports.

Each line is json.dumps(spectrum(...).to_json()) for one instance.  The
grid holds every normalized two-variable form with coefficients <= 6 at
k = 2..6, at the diameters k - 1, k and 2k + 2, and at the default
u_total * (k - 1) where it has at most 20,000 candidate sets; and three-
and four-variable forms on both sides of explorer._census_pays.
Regenerate the file, from the commit whose answers it should freeze, with

    PYTHONPATH=src python tests/spectrum_snapshot.py > tests/data/spectrum_snapshot.jsonl
"""

from __future__ import annotations

import json
import math

from linforms.explorer import spectrum
from linforms.forms import LinearForm, enumerate_normalized

# (coeffs, k, diameter or None for the default u_total * (k - 1))
GRID: tuple[tuple[tuple[int, ...], int, int | None], ...] = (
    *(
        (f.coeffs, k, diameter)
        for f in enumerate_normalized(2, 6)
        for k in range(2, 7)
        for diameter in (k - 1, k, 2 * k + 2, None)
        if diameter is not None or math.comb(f.u_total * (k - 1), k - 1) <= 20_000
    ),
    # The census side of _census_pays.
    ((1, 2, 3), 4, None),
    ((1, 1, 2), 5, None),
    ((1, 1, 2), 4, 20),
    ((2, 3, 4), 4, None),
    ((1, 2, 5), 4, 14),
    ((1, 1, 2, 3), 4, None),
    ((1, 1, 1, 2), 5, 14),
    ((1, 3, 9, 27), 3, None),
    # The chain side: too few candidate sets, too many subset sums, or
    # frames of few sets with large mask tables.
    ((1, 2, 3), 3, None),
    ((1, 2, 4), 4, 10),
    ((1, 3, 9), 4, 12),
    ((2, 3, 5), 3, None),
    ((1, 1, 1, 1), 4, None),
    ((1, 2, 3, 4), 3, None),
    ((1, 2, 2, 3), 4, 10),
    ((1, 2, 4, 8), 3, None),
    ((1, 2, 4, 8), 4, 13),
)


def snapshot_lines() -> list[str]:
    """One JSON line per GRID instance, in GRID order."""
    return [
        json.dumps(spectrum(LinearForm(coeffs), k, diameter).to_json())
        for coeffs, k, diameter in GRID
    ]


if __name__ == "__main__":
    print("\n".join(snapshot_lines()))
