"""Rediscover polynomial-coefficient recurrences from raw terms.

The linear system sum_j sum_e x_{j,e} * n^e * a(n-j) = 0 is assembled over
every usable sample index and solved for its exact nullspace; no floating
point anywhere, so a returned operator either fits the data exactly or does
not exist. A holdout window excluded from the system guards against
underdetermined fits.
"""
from __future__ import annotations

from typing import NamedTuple, Sequence

from .exact import Polynomial
from .linalg import nullspace
from .operators import ShiftOperator, _streamed_residual
from .sequences import BFileSequence

#: Extra equations demanded beyond the unknown count before a fit is trusted.
MARGIN = 10
#: Trailing terms left out of the system; every candidate must annihilate them.
HOLDOUT = 10
#: Most unknowns (order+1)(degree+1) one guess may solve for: the system is
#: dense, about that many columns by that many rows. (14, 19), 300 unknowns on
#: the default 334 terms of A032123, takes 1.2-1.3 s and peaks at 41 MB in a
#: fresh ``recurra guess`` process (2-vCPU Xeon, CPython 3.11, shared).
MAX_UNKNOWNS = 300
#: Most terms one guess may sample; each adds an equation. 1000 terms at 300
#: unknowns take 5.0-5.4 s and peak at 162 MB on A032123, measured the same way.
MAX_TERMS = 1000


class InsufficientTermsError(ValueError):
    """Too few terms for the requested (order, degree) search."""


class GuessNotFoundError(RuntimeError):
    """No holdout-verified operator exists within the search caps."""


def required_terms(order: int, degree: int) -> int:
    """Minimum term count for a trustworthy (order, degree) guess."""
    return (order + 1) * (degree + 1) + order + MARGIN + HOLDOUT


def check_size(order: int, degree: int, terms: int) -> None:
    """The one check on a guess's shape: order >= 1 and degree >= 0, then
    ``MAX_UNKNOWNS``, then ``MAX_TERMS``. Call it before generating the terms,
    which grow with the count too."""
    if order < 1 or degree < 0:
        raise ValueError("order must be >= 1 and degree >= 0")
    unknowns = (order + 1) * (degree + 1)
    if unknowns > MAX_UNKNOWNS:
        raise ValueError(
            f"order={order}, degree={degree} has {unknowns} unknowns, over the cap "
            f"MAX_UNKNOWNS = {MAX_UNKNOWNS}"
        )
    if terms > MAX_TERMS:
        raise ValueError(f"{terms} terms requested, over the cap MAX_TERMS = {MAX_TERMS}")


class GuessResult(NamedTuple):
    """One guess's nullspace, read as operators.

    ``candidates`` has one entry per basis vector: its operator, or None
    where the leading coefficient c_0 vanished. ``verified`` holds the
    candidates that also annihilate the holdout, in basis order.
    """

    candidates: tuple[ShiftOperator | None, ...]
    verified: tuple[ShiftOperator, ...]


def guess_recurrence(
    terms: Sequence[int], order: int, degree: int, offset: int = 0
) -> GuessResult:
    """Exact nullspace guess of an (order, degree) recurrence for the terms
    a(offset), a(offset + 1), ..."""
    terms = tuple(terms)
    check_size(order, degree, len(terms))
    need = required_terms(order, degree)
    if len(terms) < need:
        raise InsufficientTermsError(
            f"order={order}, degree={degree}, holdout={HOLDOUT} "
            f"needs at least {need} terms, got {len(terms)}"
        )
    r, d = order, degree
    lo = offset
    hi = lo + len(terms) - 1

    sample_hi = hi - HOLDOUT
    rows = []
    for i in range(lo + r, sample_hi + 1):
        row = []
        for j in range(r + 1):
            a = terms[i - j - lo]
            for e in range(d + 1):
                row.append(a * i**e)
        if any(row):
            rows.append(row)

    basis = nullspace(rows, ncols=(r + 1) * (d + 1))
    seq = BFileSequence("guess-input", lo, terms)
    candidates, verified = [], []
    for vec in basis:
        polys = [Polynomial(vec[j * (d + 1) : (j + 1) * (d + 1)]) for j in range(r + 1)]
        while polys and polys[-1].is_zero:
            polys.pop()
        if not polys or polys[0].is_zero:
            candidates.append(None)
            continue
        op = ShiftOperator(polys)
        candidates.append(op)
        if _streamed_residual(op, seq, max(sample_hi + 1, lo + op.order), hi) is None:
            verified.append(op)
    return GuessResult(candidates=tuple(candidates), verified=tuple(verified))


def minimal_guess(
    terms: Sequence[int],
    max_order: int,
    max_degree: int,
    offset: int = 0,
) -> ShiftOperator:
    """Smallest holdout-verified recurrence within the caps.

    Walks (order, degree) ascending, order first; within one nullspace, ties
    break toward the lexicographically smallest normalized coefficients.
    """
    terms = tuple(terms)
    skipped = 0
    for r in range(1, max_order + 1):
        for d in range(max_degree + 1):
            if len(terms) < required_terms(r, d):
                skipped += 1
                continue
            verified = guess_recurrence(terms, r, d, offset).verified
            if verified:
                return min(verified, key=lambda op: tuple(p.coeffs for p in op.coeffs))
    hint = f" ({skipped} shapes skipped for lack of terms)" if skipped else ""
    raise GuessNotFoundError(
        f"no verified recurrence within order<={max_order}, degree<={max_degree}{hint}"
    )
