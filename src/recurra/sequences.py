"""Exact integer sequence generators and brute-force orbit-counting oracles.

Builtin sequences (exact identifiers):

* ``A032123``                   half-sum of the two binomial summands
* ``A005418``                   reversible binary strings, length n (n >= 1)
* ``central-binomial``          C(2n, n)
* ``aerated-central-binomial``  C(n, n/2) for even n, 0 for odd n

Each source keeps a short window of recent terms, never its whole history,
so a sweep's memory stays flat in its length. The binomials step their one-
and two-step ratio recurrences from the window's end, so sweeping to
n = 5000 costs one big-integer multiplication per step, and reseed from
``math.comb`` when a read lands behind the window or far ahead of it.
``builtin_sequence`` hands out a fresh source on every call. The orbit
oracles below count equivalence classes of binary strings under reversal by
direct enumeration; they share no code with the closed forms and exist to
cross-check them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from .exact import TruncatedSeries, series_inv_sqrt

#: Enumeration guard for the orbit oracles; (24, 12) is ~2.7M strings.
ORACLE_LENGTH_CAP = 24

#: A source's window keeps at least its last WINDOW terms, and a read at
#: most WINDOW past the window's last term steps forward instead of
#: reseeding. WINDOW exceeds the order caps of ``guess`` and ``lclm`` (8 by
#: default), so applying an operator they build along a sweep only ever hits
#: or steps; a higher order stays exact and only reseeds more often.
WINDOW = 32


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
    """An integer sequence addressable by index, through a window of terms.

    ``_cache`` holds the terms at indices ``_lo``, ``_lo + 1``, ... A read
    inside the window is a hit. A read at most ``WINDOW`` past its last term
    calls ``_extend`` to step forward to it; any other read (behind the
    window, or far ahead) replaces the window with ``_seed(n)``. Past
    ``2 * WINDOW`` terms the window drops all but its last ``WINDOW``, so an
    operator of order below ``WINDOW`` applied along a sweep only ever hits
    or steps. ``term`` is the one read path and subclasses supply only the
    hooks: the defaults compute every term with ``_at``, and a source with a
    cheaper step overrides ``_extend`` and ``_seed``. A source is not safe
    to share between threads: a read may move the window under another.
    """

    name = "?"
    min_index = 0
    max_index: int | None = None  # inclusive; None = unbounded

    def __init__(self):
        self._lo, self._cache = self._seed(self.min_index)

    def term(self, n: int) -> int:
        if n < self.min_index or (self.max_index is not None and n > self.max_index):
            span = f"{self.min_index}..{self.max_index if self.max_index is not None else 'inf'}"
            raise TermRangeError(f"{self.name} has no term at n={n} (available: {span})")
        c = self._cache
        idx = n - self._lo
        if 0 <= idx < len(c):
            return c[idx]
        if idx < 0 or idx >= len(c) + WINDOW:
            self._lo, c = self._seed(n)
            self._cache = c
            idx = n - self._lo
        if idx >= len(c):
            self._extend(n)
            if len(c) > 2 * WINDOW:
                drop = len(c) - WINDOW
                del c[:drop]
                self._lo += drop
                idx -= drop
        return c[idx]

    def terms(self, n_from: int, n_to: int) -> list[int]:
        return [self.term(i) for i in range(n_from, n_to + 1)]

    def _seed(self, n: int) -> tuple[int, list[int]]:
        """A fresh window holding index n: its first index and its terms."""
        return n, [self._at(n)]

    def _extend(self, n: int) -> None:
        """Append terms to the window until it holds index n."""
        c = self._cache
        c.extend(self._at(m) for m in range(self._lo + len(c), n + 1))

    def _at(self, n: int) -> int:
        """The term at index n, computed on its own."""
        raise NotImplementedError


class CentralBinomial(SequenceSource):
    """u(n) = C(2n, n) via n*u(n) = (4n-2)*u(n-1), seeded by ``math.comb``."""

    name = "central-binomial"

    def _seed(self, n: int) -> tuple[int, list[int]]:
        return n, [math.comb(2 * n, n)]

    def _extend(self, n: int) -> None:
        c = self._cache
        for m in range(self._lo + len(c), n + 1):
            c.append(c[-1] * (4 * m - 2) // m)


class AeratedCentralBinomial(SequenceSource):
    """v(n) = C(n, n/2) for even n, else 0, via n*v(n) = 4(n-1)*v(n-2)."""

    name = "aerated-central-binomial"

    def _seed(self, n: int) -> tuple[int, list[int]]:
        # The two-step ratio steps from a pair of terms: seed the pair holding n.
        lo = max(n - 1, 0)
        return lo, [math.comb(m, m // 2) if m % 2 == 0 else 0 for m in (lo, lo + 1)]

    def _extend(self, n: int) -> None:
        c = self._cache
        for m in range(self._lo + len(c), n + 1):
            c.append(4 * (m - 1) * c[-2] // m if m % 2 == 0 else 0)


class ReversibleBalancedStrings(SequenceSource):
    """A032123: length-2n binary strings with n ones, up to reversal.

    Terms come from the orbit-count closed form (u(n) + v(n)) / 2; the sum
    is always even because the reversal action has even orbit defect.
    """

    name = "A032123"

    def __init__(self):
        self._u = CentralBinomial()
        self._v = AeratedCentralBinomial()
        super().__init__()

    def _at(self, n: int) -> int:
        s = self._u.term(n) + self._v.term(n)
        if s % 2:
            raise AssertionError(f"u({n}) + v({n}) is odd; generator is broken")
        return s // 2


class ReversibleStrings(SequenceSource):
    """A005418: length-n binary strings up to reversal, defined for n >= 1.

    Closed form (2^n + 2^ceil(n/2)) / 2. The n = 0 value is deliberately
    not exposed: the catalogued offset convention starts at 1.
    """

    name = "A005418"
    min_index = 1

    def _at(self, n: int) -> int:
        return (2 ** n + 2 ** ((n + 1) // 2)) // 2


class BFileSequence(SequenceSource):
    """A fixed window of terms, e.g. a parsed b-file; ``min_index`` is its offset.

    ``values`` doubles as the term window, which the range check never lets a
    read leave, so reads go through the inherited ``term`` and never step or
    reseed; ``source`` records where the terms came from.
    """

    def __init__(self, name: str, offset: int, values: Iterable[int], source: str = ""):
        self.values = self._cache = tuple(values)
        self.name = name
        self.min_index = self._lo = offset
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

    def _at(self, n: int) -> int:
        return orbit_count_oracle(2 * n, n)


_BUILTINS: dict[str, type[SequenceSource]] = {
    cls.name: cls
    for cls in (
        ReversibleBalancedStrings, ReversibleStrings, CentralBinomial, AeratedCentralBinomial
    )
}


def builtin_sequence(name: str) -> SequenceSource:
    """A fresh source for a builtin sequence, by its exact identifier."""
    try:
        cls = _BUILTINS[name]
    except KeyError:
        raise ValueError(
            f"unknown sequence {name!r}; builtins: {', '.join(sorted(_BUILTINS))}"
        ) from None
    return cls()


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
