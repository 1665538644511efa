"""Exact integer sequence generators and brute-force orbit-counting oracles.

Builtin sequences (exact identifiers):

* ``A032123``                   half-sum of the two binomial summands
* ``A005418``                   reversible binary strings, length n (n >= 1)
* ``central-binomial``          C(2n, n)
* ``aerated-central-binomial``  C(n, n/2) for even n, 0 for odd n

Closed-form terms are produced incrementally from their one- and two-step
ratio recurrences with append-only memo lists, so sweeping to n = 5000 costs
one big-integer multiplication per step. The orbit oracles below count
equivalence classes of binary strings under reversal by direct enumeration;
they share no code with the closed forms and exist to cross-check them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from .exact import TruncatedSeries, series_inv_sqrt

#: Enumeration guard for the orbit oracles; (24, 12) is ~2.7M strings.
ORACLE_LENGTH_CAP = 24


class TermRangeError(LookupError):
    """A requested term lies outside the range a source can produce."""


def binomial(n: int, k: int) -> int:
    """C(n, k) for n >= 0; zero when k is out of range."""
    if n < 0:
        raise ValueError("binomial requires a nonnegative upper index")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


class SequenceSource:
    """An integer sequence addressable by index, with memoized terms.

    Subclasses implement ``_extend(upto)`` to grow the append-only cache;
    reads never observe a partially computed entry (the cache is only ever
    appended to, under the interpreter's single-writer semantics).
    """

    name = "?"
    min_index = 0
    max_index: int | None = None  # inclusive; None = unbounded

    def __init__(self):
        self._cache: list[int] = []

    def term(self, n: int) -> int:
        if n < self.min_index or (self.max_index is not None and n > self.max_index):
            span = f"{self.min_index}..{self.max_index if self.max_index is not None else 'inf'}"
            raise TermRangeError(f"{self.name} has no term at n={n} (available: {span})")
        idx = n - self.min_index
        if idx >= len(self._cache):
            self._extend(idx)
        return self._cache[idx]

    def terms(self, n_from: int, n_to: int) -> list[int]:
        return [self.term(i) for i in range(n_from, n_to + 1)]

    def _extend(self, upto: int) -> None:
        raise NotImplementedError


class CentralBinomial(SequenceSource):
    """u(n) = C(2n, n) via n*u(n) = (4n-2)*u(n-1), u(0) = 1."""

    name = "central-binomial"

    def __init__(self):
        super().__init__()
        self._cache.append(1)

    def _extend(self, upto: int) -> None:
        c = self._cache
        while len(c) <= upto:
            m = len(c)
            c.append(c[-1] * (4 * m - 2) // m)


class AeratedCentralBinomial(SequenceSource):
    """v(n) = C(n, n/2) for even n, else 0, via n*v(n) = 4(n-1)*v(n-2)."""

    name = "aerated-central-binomial"

    def __init__(self):
        super().__init__()
        self._cache.extend([1, 0])

    def _extend(self, upto: int) -> None:
        c = self._cache
        while len(c) <= upto:
            m = len(c)
            c.append(4 * (m - 1) * c[-2] // m if m % 2 == 0 else 0)


class ReversibleBalancedStrings(SequenceSource):
    """A032123: length-2n binary strings with n ones, up to reversal.

    Terms come from the orbit-count closed form (u(n) + v(n)) / 2; the sum
    is always even because the reversal action has even orbit defect.
    """

    name = "A032123"

    def __init__(self):
        super().__init__()
        self._u = CentralBinomial()
        self._v = AeratedCentralBinomial()

    def _extend(self, upto: int) -> None:
        c = self._cache
        while len(c) <= upto:
            m = len(c)
            s = self._u.term(m) + self._v.term(m)
            if s % 2:
                raise AssertionError(f"u({m}) + v({m}) is odd; generator is broken")
            c.append(s // 2)


class ReversibleStrings(SequenceSource):
    """A005418: length-n binary strings up to reversal, defined for n >= 1.

    Closed form (2^n + 2^ceil(n/2)) / 2. The n = 0 value is deliberately
    not exposed: the catalogued offset convention starts at 1.
    """

    name = "A005418"
    min_index = 1

    def _extend(self, upto: int) -> None:
        c = self._cache
        while len(c) <= upto:
            m = len(c) + 1
            c.append((2 ** m + 2 ** ((m + 1) // 2)) // 2)


class BFileSequence(SequenceSource):
    """A fixed window of terms, e.g. a parsed b-file; ``min_index`` is its offset.

    ``values`` doubles as the term cache, so reads go through the inherited
    range-checked ``term``; ``source`` records where the terms came from.
    """

    def __init__(self, name: str, offset: int, values: Iterable[int], source: str = ""):
        self.values = self._cache = tuple(values)
        self.name = name
        self.min_index = offset
        self.max_index = offset + len(self.values) - 1
        self.source = source

    def to_text(self) -> str:
        """The window in b-file format, one ``index value`` line per term."""
        return "".join(f"{self.min_index + i} {v}\n" for i, v in enumerate(self.values))


class OrbitOracleSequence(SequenceSource):
    """A032123 terms recomputed by brute-force orbit enumeration.

    Deliberately slow and bounded by the enumeration cap; exists so the
    closed forms can be cross-checked against a source that shares no code
    with them.
    """

    name = "A032123-oracle"
    max_index = ORACLE_LENGTH_CAP // 2

    def _extend(self, upto: int) -> None:
        c = self._cache
        while len(c) <= upto:
            m = len(c)
            c.append(orbit_count_oracle(2 * m, m))


_BUILTINS: dict[str, SequenceSource] = {
    s.name: s
    for s in (
        ReversibleBalancedStrings(),
        ReversibleStrings(),
        CentralBinomial(),
        AeratedCentralBinomial(),
    )
}


def builtin_sequence(name: str) -> SequenceSource:
    """Look up a builtin sequence by its exact identifier."""
    try:
        return _BUILTINS[name]
    except KeyError:
        raise ValueError(
            f"unknown sequence {name!r}; builtins: {', '.join(sorted(_BUILTINS))}"
        ) from None


def builtin_sequence_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILTINS))


# -- orbit enumeration oracle -------------------------------------------------

_REV8 = tuple(int(format(i, "08b")[::-1], 2) for i in range(256))


def _reverse_bits(x: int, width: int) -> int:
    out = 0
    nbytes = (width + 7) // 8
    for _ in range(nbytes):
        out = (out << 8) | _REV8[x & 0xFF]
        x >>= 8
    return out >> (nbytes * 8 - width)


_tally_cache: dict[tuple[int, int | None], tuple[int, int]] = {}


def _reversal_tally(length: int, ones: int | None, cap: int) -> tuple[int, int]:
    """(orbit count, reversal-fixed count) over the requested string set.

    A string is counted as an orbit representative when it compares <= its
    reversal, so each {s, reverse(s)} pair contributes exactly once and no
    canonical set needs to be materialized.
    """
    if length < 0:
        raise ValueError("string length must be nonnegative")
    if ones is not None and not 0 <= ones <= length:
        raise ValueError(f"ones={ones} is outside 0..{length}")
    if length > cap:
        raise ValueError(
            f"length {length} exceeds the enumeration cap {cap}; "
            "the string count grows exponentially"
        )
    key = (length, ones)
    if key in _tally_cache:
        return _tally_cache[key]

    orbits = fixed = 0
    if length == 0 or ones == 0 or ones == length:
        orbits = fixed = 1  # a single constant string, its own reversal
    elif ones is None:
        for s in range(1 << length):
            r = _reverse_bits(s, length)
            if s <= r:
                orbits += 1
                if s == r:
                    fixed += 1
    else:
        # Gosper's hack walks all length-bit masks of popcount `ones`.
        s = (1 << ones) - 1
        limit = 1 << length
        while s < limit:
            r = _reverse_bits(s, length)
            if s <= r:
                orbits += 1
                if s == r:
                    fixed += 1
            low = s & -s
            ripple = s + low
            s = ripple | (((s ^ ripple) // low) >> 2)

    _tally_cache[key] = (orbits, fixed)
    return orbits, fixed


def orbit_count_oracle(
    length: int, ones: int | None = None, cap: int = ORACLE_LENGTH_CAP
) -> int:
    """Equivalence classes of binary strings under s ~ reverse(s).

    Restricted to exactly ``ones`` one-bits when given. Pure enumeration;
    independent of every closed form in this module. Lengths above ``cap``
    are refused outright.
    """
    return _reversal_tally(length, ones, cap)[0]


def reversal_fixed_count(
    length: int, ones: int | None = None, cap: int = ORACLE_LENGTH_CAP
) -> int:
    """How many enumerated strings are palindromes (fixed by reversal)."""
    return _reversal_tally(length, ones, cap)[1]


# -- generating function check ------------------------------------------------


@dataclass(frozen=True)
class OgfReport:
    """Coefficient-by-coefficient comparison of the OGF against closed form."""

    order: int
    mismatches: tuple[tuple[int, Fraction, int], ...] = field(default=())

    @property
    def passed(self) -> bool:
        return not self.mismatches


def verify_ogf(order: int) -> OgfReport:
    """Expand (1/2)((1-4x)^(-1/2) + (1-4x^2)^(-1/2)) and compare term-wise.

    The first summand generates the central binomials, the second their
    even-index aeration, so the half-sum must reproduce A032123.
    """
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    g1 = series_inv_sqrt(TruncatedSeries([1, -4], order), order)
    g2 = series_inv_sqrt(TruncatedSeries([1, 0, -4], order), order)
    half_sum = (g1 + g2) * Fraction(1, 2)
    a = builtin_sequence("A032123")
    mism = []
    for k in range(order + 1):
        expected = a.term(k)
        if half_sum[k] != expected:
            mism.append((k, half_sum[k], expected))
    return OgfReport(order=order, mismatches=tuple(mism))
