"""Exact integer sequence generators and an orbit-counting oracle.

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
A032123 steps both summands itself, with the same two ratio steps, and
halves their sum by a shift.
``builtin_sequence`` hands out a fresh source on every call;
``BFileSequence`` is a fixed window of terms, such as a parsed b-file.
``orbit_count_oracle`` counts equivalence classes of binary strings under
reversal over half-strings: writing s = hi.[c].lo, s <= reverse(s) iff
hi <= rev(lo), so each (c, lo) contributes the halves hi up to rev(lo).
It shares no code with the closed forms and exists to cross-check them.
``verify_ogf`` checks the generating function behind the closed form by
integer Newton iteration.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .exact import Polynomial

#: Length guard for the orbit oracle. A count walks the 2^(length // 2)
#: half-strings, 4096 at (24, 12) (about 8 ms; 2-vCPU Xeon, CPython 3.11),
#: where the strings themselves number about 2.7M.
ORACLE_LENGTH_CAP = 24

#: A source's window keeps at least its last WINDOW terms, and a read at
#: most WINDOW past the window's last term steps forward instead of
#: reseeding. WINDOW exceeds the order caps of ``guess`` and ``lclm`` (8 by
#: default), so applying an operator they build along a sweep only ever hits
#: or steps; a higher order stays exact and only reseeds more often.
WINDOW = 32


class TermRangeError(LookupError):
    """A requested term lies outside the range a source can produce."""


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


def _u_step(u: int, m: int) -> int:
    """u(m) = C(2m, m) from u(m-1), by m*u(m) = (4m-2)*u(m-1)."""
    return u * (4 * m - 2) // m


def _v_step(v: int, m: int) -> int:
    """v(m) from v(m-2), by m*v(m) = 4(m-1)*v(m-2); odd m gets 0 from v(m-2) = 0."""
    return 4 * (m - 1) * v // m


def _half_sum(n: int, u: int, v: int) -> int:
    """(u + v) / 2, halved by shift; an odd sum means a summand is wrong."""
    s = u + v
    if s & 1:
        raise AssertionError(f"u({n}) + v({n}) is odd; generator is broken")
    return s >> 1


def _aerated(m: int) -> int:
    """v(m) = C(m, m/2) for even m >= 0, else 0 (m = -1 included)."""
    return math.comb(m, m // 2) if m % 2 == 0 else 0


class CentralBinomial(SequenceSource):
    """u(n) = C(2n, n) via n*u(n) = (4n-2)*u(n-1), seeded by ``math.comb``."""

    name = "central-binomial"

    def _seed(self, n: int) -> tuple[int, list[int]]:
        return n, [math.comb(2 * n, n)]

    def _extend(self, n: int) -> None:
        c = self._cache
        for m in range(self._lo + len(c), n + 1):
            c.append(_u_step(c[-1], m))


class AeratedCentralBinomial(SequenceSource):
    """v(n) = C(n, n/2) for even n, else 0, via n*v(n) = 4(n-1)*v(n-2)."""

    name = "aerated-central-binomial"

    def _seed(self, n: int) -> tuple[int, list[int]]:
        # The two-step ratio steps from a pair of terms: seed the pair holding n.
        lo = max(n - 1, 0)
        return lo, [_aerated(lo), _aerated(lo + 1)]

    def _extend(self, n: int) -> None:
        c = self._cache
        for m in range(self._lo + len(c), n + 1):
            c.append(_v_step(c[-2], m))


class ReversibleBalancedStrings(SequenceSource):
    """A032123: length-2n binary strings with n ones, up to reversal.

    Terms come from the orbit-count closed form (u(n) + v(n)) / 2; the sum
    is always even because the reversal action has even orbit defect. The
    source steps both summands itself, with the ratio steps of the two
    summand sources, and halves by shift: a term costs two products and
    quotients by small factors, one addition and one shift.
    """

    name = "A032123"

    def _seed(self, n: int) -> tuple[int, list[int]]:
        # _uv is (u(k), v(k-1), v(k)) at the window's last index k; v(-1) = 0.
        u, v = math.comb(2 * n, n), _aerated(n)
        self._uv = u, _aerated(n - 1), v
        return n, [_half_sum(n, u, v)]

    def _extend(self, n: int) -> None:
        c = self._cache
        u, w, v = self._uv
        for m in range(self._lo + len(c), n + 1):
            u, w, v = _u_step(u, m), v, _v_step(w, m)
            c.append(_half_sum(m, u, v))
        self._uv = u, w, v


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
    """The coefficients of x^0 .. x^order of f^(-1/2), for f[0] == 1.

    Newton's g <- g*(3 - f*g^2)/2 doubles the precision of g each step
    (Brent & Kung, J. ACM 1978). Up to an index where f^(-1/2) is integral,
    every iterate is too, so each halving is exact; an odd coefficient
    means the series is not integral there, and raises ``ValueError``.
    """
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    if not f or f[0] != 1:
        raise ValueError("inverse square root needs constant term 1")
    g, prec = Polynomial([1]), 1
    while prec <= order:  # g holds the series mod x^prec; each step doubles prec
        prec = min(2 * prec, order + 1)
        fg2 = Polynomial((g * g * Polynomial(f[:prec])).coeffs[:prec])
        twice = (g * (3 - fg2)).coeffs[:prec]
        odd = next((k for k, c in enumerate(twice) if c % 2), None)
        if odd is not None:
            raise ValueError(
                f"f^(-1/2) is not integral: its coefficient of x^{odd} is not an integer"
            )
        g = Polynomial([c // 2 for c in twice])
    return list(g.coeffs) + [0] * (order + 1 - len(g.coeffs))


@dataclass(frozen=True)
class OgfReport:
    """The OGF against the closed form; a mismatch is (k, g1[k] + g2[k], 2*a(k))."""

    order: int
    mismatches: tuple[tuple[int, int, int], ...] = field(default=())

    @property
    def passed(self) -> bool:
        return not self.mismatches


def verify_ogf(order: int) -> OgfReport:
    """Expand (1/2)((1-4x)^(-1/2) + (1-4x^2)^(-1/2)) and compare term-wise.

    The first summand generates the central binomials, the second their
    even-index aeration, so the half-sum must reproduce A032123; both sides
    are compared doubled, so no division is needed.
    """
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    g1 = series_inv_sqrt([1, -4], order)
    g2 = series_inv_sqrt([1, 0, -4], order)
    a = builtin_sequence("A032123")
    pairs = [(k, g1[k] + g2[k], 2 * a.term(k)) for k in range(order + 1)]
    return OgfReport(order=order, mismatches=tuple(m for m in pairs if m[1] != m[2]))
