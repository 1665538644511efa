"""Exact integer sequence generators and an orbit-counting oracle.

Builtin sequences (exact identifiers):

* ``A032123``                   half-sum of the two binomial summands
* ``A005418``                   reversible binary strings, length n (n >= 1)
* ``central-binomial``          C(2n, n)
* ``aerated-central-binomial``  C(n, n/2) for even n, 0 for odd n

A source is one ``SequenceSource(name, run, min_index, max_index)``, where
``run(n)`` is a generator over its terms from n on. It keeps no read state:
each reader in index order reads one run, keeping only the terms it needs, so
a sweep's memory stays flat in its length, and a read by index starts a run
of its own. A builtin is one ``_BUILTINS`` row, its first index and its run,
and serves indices up to ``MAX_INDEX``. The binomials are unrolled
from their operators ``u-op`` and ``v-op`` (``operators.unroll``), so sweeping
to n = 5000 costs one big-integer multiplication and one exact division per
step; a run starts from ``binomial_summand`` seeds. ``binomial_summand(step, n)``,
C(2j, j) at n = step * j and 0 elsewhere, is the summands' one closed form,
the step being the operator's order. A032123 is the half-sum, by shift, of the
two summands' runs read side by side; the sum is always even, as the reversal
action has even orbit defect. A005418 is the closed
form (2^n + 2^ceil(n/2)) / 2 from n = 1: its n = 0 value is deliberately not
exposed, as the catalogued offset convention starts at 1.
``builtin_sequence`` hands out a fresh source on every call;
``BFileSequence`` runs over a fixed tuple of terms, such as a parsed b-file.
``check_range`` refuses a range with an index past either end of a source,
naming that index, before any term is read.
``orbit_count_oracle`` counts equivalence classes of binary strings under
reversal over half-strings: writing s = hi.[c].lo, s <= reverse(s) iff
hi <= rev(lo), so each (c, lo) contributes the halves hi up to rev(lo).
It shares no code with the closed forms and exists to cross-check them.
``verify_ogf`` checks the generating function behind the closed form, whose
two summands it expands by the recurrence that f^(-1/2) satisfies, one exact
division per coefficient.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from itertools import count, islice
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .operators import builtin_operator, unroll

#: Length guard for the orbit oracle. A count walks the 2^(length // 2)
#: half-strings, 4096 at (24, 12) (about 8 ms; 2-vCPU Xeon, CPython 3.11),
#: where the strings themselves number about 2.7M.
ORACLE_LENGTH_CAP = 24

#: Largest index a builtin source serves. Every run starts from
#: ``math.comb`` seeds, whose cost grows faster than linearly: the first
#: A032123 term of a run took 1.0 s at n = 10^5 and 61 s at 10^6 (in process,
#: 2-vCPU Xeon, CPython 3.11). 10^5 admits ``--max-n 100000``.
MAX_INDEX = 100_000


class TermRangeError(LookupError):
    """A requested term lies outside the range a source can produce."""


class SequenceSource:
    """An integer sequence, read through its run.

    ``run(n)`` is an iterator over the terms at n, n + 1, ..., up to
    ``max_index`` (inclusive) at least. A source keeps no read state, so it
    is safe to share between threads: ``term(n)`` takes the first term of a
    run started at n, ``terms`` lists the start of one run, and a reader in
    index order, such as ``operators.verify_range``, reads one run itself.
    """

    def __init__(self, name: str, run: Callable[[int], Iterator[int]],
                 min_index: int, max_index: int):
        self.name, self.run, self.min_index, self.max_index = name, run, min_index, max_index

    def check_range(self, n_from: int, n_to: int) -> None:
        """Raise ``TermRangeError`` naming the first of n_from..n_to with no term."""
        lo, hi = self.min_index, self.max_index
        if n_from <= n_to and not lo <= n_from <= n_to <= hi:
            n = hi + 1 if lo <= n_from <= hi else n_from
            raise TermRangeError(f"{self.name} has no term at n={n} (available: {lo}..{hi})")

    def term(self, n: int) -> int:
        self.check_range(n, n)
        return next(self.run(n))

    def terms(self, n_from: int, n_to: int) -> list[int]:
        self.check_range(n_from, n_to)
        return list(islice(self.run(n_from), n_to - n_from + 1)) if n_from <= n_to else []


def binomial_summand(step: int, n: int) -> int:
    """C(2j, j) at n = step * j, else 0: u(n) at step 1, its aeration v(n) at step 2."""
    j, r = divmod(n, step)
    return 0 if r else math.comb(2 * j, j)


def _unrolled_summand(name: str, n: int) -> Iterator[int]:
    """Terms from n on of the summand operator ``name``, seeded at step = its order."""
    op = builtin_operator(name)
    return unroll(op, n, [binomial_summand(op.order, m) for m in range(n, n + op.order)])


def _half_sum(n: int, u: int, v: int) -> int:
    """(u + v) / 2, halved by shift; an odd sum means a summand is wrong."""
    s = u + v
    if s & 1:
        raise AssertionError(f"u({n}) + v({n}) is odd; generator is broken")
    return s >> 1


class BFileSequence(SequenceSource):
    """A fixed run of terms, e.g. a parsed b-file; ``min_index`` is its offset.

    A run is a slice of ``values``; ``source`` records where the terms came
    from.
    """

    def __init__(self, name: str, offset: int, values: Iterable[int], source: str = ""):
        self.values = values = tuple(values)
        self.source = source
        super().__init__(
            name, lambda n: islice(values, n - offset, None), offset, offset + len(values) - 1
        )


#: Each builtin's first index and its run. The binomial summands unroll their
#: operators from ``binomial_summand`` seeds: the terms from n on, not those before
#: n, as v-op's c_0 = n vanishes at n = 0. A032123 reads their rows.
_BUILTINS: dict[str, tuple[int, Callable[[int], Iterator[int]]]] = {
    "A032123": (0, lambda n: map(
        _half_sum, count(n), _BUILTINS["central-binomial"][1](n),
        _BUILTINS["aerated-central-binomial"][1](n),
    )),
    "A005418": (1, lambda n: ((2 ** m + 2 ** ((m + 1) // 2)) // 2 for m in count(n))),
    "central-binomial": (0, lambda n: _unrolled_summand("u-op", n)),
    "aerated-central-binomial": (0, lambda n: _unrolled_summand("v-op", n)),
}


def builtin_sequence(name: str) -> SequenceSource:
    """A fresh source for a builtin sequence, by its exact identifier."""
    try:
        min_index, run = _BUILTINS[name]
    except KeyError:
        raise ValueError(
            f"unknown sequence {name!r}; builtins: {', '.join(sorted(_BUILTINS))}"
        ) from None
    return SequenceSource(name, run, min_index, MAX_INDEX)


# -- orbit counting oracle ----------------------------------------------------

def orbit_count_oracle(length: int, ones: int | None = None) -> int:
    """Equivalence classes of binary strings under s ~ reverse(s).

    Restricted to exactly ``ones`` one-bits when given; independent of every
    closed form in this module. Lengths above ``ORACLE_LENGTH_CAP`` are
    refused outright.

    A string is counted as an orbit representative when it compares <= its
    reversal, so each {s, reverse(s)} pair contributes exactly once. Write s
    as hi.[c].lo, with h-bit halves hi and lo (h = length // 2) and a middle
    bit c only for odd lengths. Then reverse(s) = rev(lo).[c].rev(hi), and
    as the high halves are compared first and hi = rev(lo) forces
    lo = rev(hi), s <= reverse(s) iff hi <= rev(lo). So for each (c, lo) the
    representatives are the halves hi of the remaining weight up to rev(lo):
    one bisection into the ascending list of such halves counts them, in
    O(2^h log 2^h) work in all.
    """
    if length < 0:
        raise ValueError("string length must be nonnegative")
    if ones is not None and not 0 <= ones <= length:
        raise ValueError(f"ones={ones} is outside 0..{length}")
    if length > ORACLE_LENGTH_CAP:
        raise ValueError(
            f"length {length} exceeds the enumeration cap {ORACLE_LENGTH_CAP}; "
            "the string count grows exponentially"
        )
    h, odd = divmod(length, 2)
    halves = range(1 << h)
    rev = [int(format(x, f"0{h}b")[::-1], 2) for x in halves]
    by_weight: list[list[int]] = [[] for _ in range(h + 1)]
    for x in halves:
        by_weight[x.bit_count()].append(x)
    orbits = 0
    for c in range(odd + 1):
        for lo in halves:
            if ones is None:
                his: Sequence[int] = halves
            else:
                need = ones - c - lo.bit_count()
                if not 0 <= need <= h:
                    continue
                his = by_weight[need]
            orbits += bisect_right(his, rev[lo])
    return orbits


# -- generating function check ------------------------------------------------


def series_inv_sqrt(f: list[int], order: int) -> list[int]:
    """The coefficients of x^0 .. x^order of f^(-1/2), for integer f with f[0] == 1.

    g = f^(-1/2) satisfies 2f*g' + f'*g = 0, which at x^(k-1) reads
    2k*g_k = -sum_{i=1..min(k, deg f)} (2k - i)*f_i*g_(k-i), with g_0 = 1
    (J. C. P. Miller's recurrence for a power of a series; Knuth, TAOCP
    vol. 2, 4.7). Each coefficient is one exact ``divmod`` by 2k over f's
    nonzero terms: a remainder means the series is not integral there, and
    raises ``ValueError``. An entry of f that is not an ``int`` raises
    ``TypeError``.
    """
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    if not f or f[0] != 1:
        raise ValueError("inverse square root needs constant term 1")
    if not all(isinstance(c, int) for c in f):
        raise TypeError("series coefficients must be integers")
    terms = [(i, c) for i, c in enumerate(f[1 : order + 1], 1) if c]
    g = [1]
    for k in range(1, order + 1):
        total = 0
        for i, c in terms:
            if i > k:
                break
            total += (2 * k - i) * c * g[k - i]
        q, r = divmod(-total, 2 * k)
        if r:
            raise ValueError(
                f"f^(-1/2) is not integral: its coefficient of x^{k} is not an integer"
            )
        g.append(q)
    return g


class OgfReport(NamedTuple):
    """The OGF against the closed form; a mismatch is (k, g1[k] + g2[k], 2*a(k))."""

    order: int
    mismatches: tuple[tuple[int, int, int], ...] = ()

    @property
    def passed(self) -> bool:
        return not self.mismatches


def verify_ogf(order: int) -> OgfReport:
    """Expand (1/2)((1-4x)^(-1/2) + (1-4x^2)^(-1/2)) and compare term-wise.

    The first summand generates the central binomials, the second their
    even-index aeration, so the half-sum must reproduce A032123; both sides
    are compared doubled, so no division is needed.
    """
    a = builtin_sequence("A032123")
    a.check_range(0, order)
    g1 = series_inv_sqrt([1, -4], order)
    g2 = series_inv_sqrt([1, 0, -4], order)
    pairs = ((k, x + y, 2 * t) for k, x, y, t in zip(range(order + 1), g1, g2, a.run(0)))
    return OgfReport(order=order, mismatches=tuple(m for m in pairs if m[1] != m[2]))
