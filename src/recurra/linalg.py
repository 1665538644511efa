"""Exact nullspace computation via fraction-free (Bareiss) elimination.

Input rows may mix ints and Fractions; each is scaled to coprime integers
first, and elimination and back-substitution stay in Z, every division exact.
The basis is deterministic: one primitive integer vector (content 1) per free
column, ascending, positive there and zero at the other free columns.
"""
from __future__ import annotations

import math
from typing import Sequence

from .exact import primitive


def nullspace(rows: Sequence[Sequence], ncols: int | None = None) -> list[tuple[int, ...]]:
    """Basis of {x : A x = 0} for the matrix with the given rows.

    Returns one vector per free column, ascending. An empty row list (or a
    matrix of zero rows) yields the standard basis of the full space.
    """
    if ncols is None:
        if not rows:
            raise ValueError("column count required for an empty matrix")
        ncols = len(rows[0])
    m = [primitive(row) for row in rows]
    for row in m:
        if len(row) != ncols:
            raise ValueError("ragged matrix")

    pivots: list[tuple[int, int]] = []  # (row, col) in echelon order
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot_row = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        for r in range(rank + 1, len(m)):
            if all(v == 0 for v in m[r]):
                continue
            head = m[r][col]
            lead = m[rank][col]
            for c in range(col + 1, ncols):
                q, rem = divmod(m[r][c] * lead - head * m[rank][c], prev)
                if rem:  # Bareiss divisions are exact; anything else is a bug
                    raise AssertionError("fraction-free elimination lost exactness")
                m[r][c] = q
            m[r][col] = 0
        prev = m[rank][col]
        pivots.append((rank, col))
        rank += 1
        if rank == len(m):
            break

    # Back-substitution in Z: before solving a pivot's coordinate, scale the
    # vector by the least positive factor that makes that division exact.
    pivot_cols = {c for _, c in pivots}
    basis = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        v = [0] * ncols
        v[free] = 1
        for row, col in reversed(pivots):
            lead = m[row][col]
            s = sum(m[row][c] * v[c] for c in range(col + 1, ncols) if v[c])
            scale = abs(lead) // math.gcd(s, lead)
            if scale != 1:
                v = [x * scale for x in v]
                s *= scale
            v[col] = -s // lead
        basis.append(tuple(primitive(v)))
    return basis
