"""The grid behind tests/data/nf_snapshot.jsonl: compute_nf answers, witnesses and nodes.

Each line is json.dumps(compute_nf(...).to_json()) for one instance.  The
grid holds forms with symmetric and equal-end-gap minimizers: (1),
(1,1), repeated coefficients, k = 2, and a few explicit diameters.
Regenerate the file, from the commit whose answers it should freeze, with

    PYTHONPATH=src python tests/nf_snapshot.py > tests/data/nf_snapshot.jsonl
"""

from __future__ import annotations

import json

from linforms.engine import compute_nf
from linforms.forms import LinearForm

# (coeffs, k, diameter or None for the default u_total * (k - 1))
GRID: tuple[tuple[tuple[int, ...], int, int | None], ...] = (
    *(((1,), k, None) for k in range(1, 8)),
    ((1,), 4, 9),
    ((1,), 5, 12),
    ((1,), 6, 14),
    ((1,), 3, 20),
    *(
        (coeffs, k, None)
        for coeffs in ((1, 1), (1, 2), (1, 3), (2, 3), (1, 4), (3, 4), (1, 5), (2, 5))
        for k in range(2, 6)
    ),
    ((1, 1), 6, None),
    ((1, 1), 4, 9),
    ((1, 2), 4, 10),
    ((2, 3), 4, 6),
    ((1, 3), 5, 20),
    *(
        (coeffs, k, None)
        for coeffs in ((1, 1, 1), (1, 1, 2), (1, 2, 2), (1, 2, 3), (2, 3, 4), (1, 1, 1, 1))
        for k in range(2, 5)
    ),
    *(
        (coeffs, k, None)
        for coeffs in ((1, 1, 3), (1, 3, 4), (1, 3, 5), (1, 4, 6), (2, 3, 6), (1, 1, 4, 4))
        for k in (3, 4)
    ),
    ((1, 5, 6), 4, None),
    ((2, 2, 5), 3, None),
    ((2, 2, 5), 4, None),
    ((2, 3, 3), 4, None),
    ((3, 4, 4), 3, 12),
    ((1, 2, 2), 5, None),
    ((1, 1, 2), 4, 8),
    ((1, 2, 3), 4, 5),
    ((1, 1, 2, 2), 3, None),
    ((1, 2, 3, 4), 3, None),
    ((1, 1, 1, 1, 1), 3, None),
)


def snapshot_lines() -> list[str]:
    """One JSON line per GRID instance, in GRID order."""
    return [
        json.dumps(compute_nf(LinearForm(coeffs), k, diameter=diameter).to_json())
        for coeffs, k, diameter in GRID
    ]


if __name__ == "__main__":
    print("\n".join(snapshot_lines()))
