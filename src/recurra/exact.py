"""Dense univariate polynomials over Z, and coefficient text.

Polynomials are dense tuples of ``int`` coefficients in the formal variable
``n``; ``Polynomial.__init__`` refuses any other type, so no ``/`` may reach a
coefficient, and every value computed from them is an ``int``, degrees included
(-1 for the zero polynomial). Rationals appear only at the file boundary:
``parse_coefficient`` reads one coefficient text as an exact rational, and
``read_polynomials`` multiplies a file's rows by the lcm of their denominators.
Every value is immutable and every operation pure, so sharing across threads is
safe.
"""
from __future__ import annotations

import math
import re
from typing import TYPE_CHECKING, Iterable, Sequence

from .check import decimal, from_decimal

if TYPE_CHECKING:
    from fractions import Fraction

#: Most decimal digits a coefficient read from text may have in its numerator
#: or in its denominator. It is checked on the text before any integer is
#: built: ``"1e10000000"`` alone would be a 33-million-bit integer.
COEFF_DIGITS = 100_000
#: Longest coefficient text in a form other than ``[-]digits[/digits]``, such
#: as ``1.5e3``; far below CPython's int-from-string cap.
_SHORT_TEXT = 1000

#: The form ``to_strings`` writes, which JSON integer literals share.
_PLAIN = re.compile(r"(-?)(\d+)(?:/(\d+))?")
#: The exponent that ends a decimal text, as ``int`` reads it.
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def primitive(values: Sequence[int]) -> list[int]:
    """Integers divided by their gcd: coprime integers (content 1).

    Signs are kept, and an all-zero input comes back as zeros.
    """
    g = math.gcd(*values)
    return [v // g for v in values] if g > 1 else list(values)


def parse_coefficient(text: str) -> int | Fraction:
    """The value of one coefficient, as ``Fraction(text)`` reads it; an int
    when integral.

    The form ``to_strings`` writes is read at any length up to
    ``COEFF_DIGITS`` digits without touching CPython's int-from-string cap.
    Any other form is left to ``Fraction`` when it has at most ``_SHORT_TEXT``
    characters and its length plus its exponent stays within ``COEFF_DIGITS``.
    Longer texts are refused by name before anything is built.
    """
    plain = _PLAIN.fullmatch(text)
    if plain:
        sign, num, den = plain.groups()
        if max(len(num), len(den or "")) > COEFF_DIGITS:
            raise _over_cap(text)
        value = from_decimal(sign + num)
        if den is None:
            return value
    else:
        exp = _EXPONENT.search(text)
        if len(text) > _SHORT_TEXT or (exp and len(text) + abs(int(exp[1])) > COEFF_DIGITS):
            raise _over_cap(text)
    from fractions import Fraction  # past the integer return: integer input never loads it
    try:
        value = Fraction(value, from_decimal(den)) if plain else Fraction(text)
    except ZeroDivisionError:  # "1/0" in a file is bad input, not a bug
        raise ValueError(f"zero denominator in coefficient {text!r}") from None
    return value.numerator if value.denominator == 1 else value


def _over_cap(text: str) -> ValueError:
    shown = text if len(text) <= 40 else f"{text[:20]}... ({len(text)} characters)"
    return ValueError(
        f"coefficient {shown!r} is over the cap COEFF_DIGITS = {COEFF_DIGITS} digits "
        f"(and {_SHORT_TEXT} characters unless written as [-]digits[/digits])"
    )


class Polynomial:
    """Dense univariate polynomial with integer coefficients.

    ``coeffs[i]`` is the ``int`` coefficient of n^i; the trailing coefficient
    is nonzero (the zero polynomial has an empty coefficient tuple).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        if any(type(c) is not int for c in cs):
            kinds = sorted({type(c).__name__ for c in cs})
            raise TypeError(f"polynomial coefficients must be int, got {kinds}")
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        """Rebuilt by the constructor, for ``pickle`` and ``copy``, which would set
        ``coeffs`` through the refusing ``__setattr__``."""
        return Polynomial, (self.coeffs,)

    # -- basic structure ---------------------------------------------------

    @property
    def degree(self) -> int:
        """The degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading_coefficient(self) -> int:
        if not self.coeffs:
            return 0
        return self.coeffs[-1]

    def __getitem__(self, i: int) -> int:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        return NotImplemented if other is NotImplemented else self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other) -> "Polynomial":
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return -self + other

    def __mul__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Polynomial()
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Polynomial":
        if not isinstance(e, int) or e < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        result = Polynomial([1])
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __call__(self, x):
        """Horner evaluation at a number, or at a Polynomial to compose."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def shifted(self, delta: int) -> "Polynomial":
        """The polynomial p(n + delta)."""
        return self(Polynomial([delta, 1])) if self.coeffs else self

    # -- canonical form ----------------------------------------------------

    def normalized(self) -> "Polynomial":
        """The primitive associate: content 1, positive lead."""
        ints = primitive(self.coeffs)
        if ints and ints[-1] < 0:
            ints = [-v for v in ints]
        return Polynomial(ints)

    # -- text forms ----------------------------------------------------------

    def to_strings(self) -> list[str]:
        """Coefficient list low-to-high as decimal strings (file format)."""
        return [decimal(c) for c in self.coeffs]

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                term = decimal(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{decimal(abs(c))}*"
                term = f"{mag}n" if i == 1 else f"{mag}n^{i}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({self.to_strings()})"


def _coerce(x):
    if isinstance(x, Polynomial):
        return x
    if type(x) is int:
        return Polynomial([x])
    return NotImplemented


def width_bits(polys: Iterable[Polynomial]) -> int:
    """Coefficient bits of polys, each coefficient at the width of the widest in
    its polynomial: the caps on certify's and lclm's inputs count this."""
    return sum(len(f.coeffs) * max(abs(c).bit_length() for c in f.coeffs)
               for f in polys if not f.is_zero)


def read_polynomials(rows: Sequence[Sequence[str | int]]) -> list[Polynomial]:
    """Coefficient rows read from a file, as polynomials over Z.

    Each text is read by ``parse_coefficient`` (JSON integers pass as they
    are), then every row is multiplied by the lcm of all the denominators.
    Content is never divided out, so integer rows come back unchanged.
    """
    values = [[c if isinstance(c, int) else parse_coefficient(c) for c in row] for row in rows]
    den = math.lcm(*(c.denominator for row in values for c in row))
    return [Polynomial([c.numerator * (den // c.denominator) for c in row]) for row in values]


#: The formal variable. Module-level so callers can write e.g. 8*(n**2 + 5*n - 19).
n = Polynomial([0, 1])


def integer_roots(p: Polynomial) -> list[int]:
    """All integer roots of a nonzero polynomial, ascending.

    The positive roots are isolated by Descartes' rule of signs (the
    Vincent-Collins-Akritas method, Collins & Akritas 1976), the negative ones
    as those of p(-n). Each lies in (0, 2^top) by Fujiwara's bound
    2 max_k |c_(d-k) / c_d|^(1/k), which tracks the largest root rather than
    the largest coefficient. An interval is split at a power of two, halving
    its range of exponents, until it is one octave, then at its middle; every
    split point is tried. An interval without a sign change (``_sign_changes``)
    holds no root; an octave's with one holds one simple root, which
    ``_simple_root`` finds or rules out. An interval narrower than 8 has its
    integers tried, which ends the splitting around a multiple root.
    """
    if p.is_zero:
        raise ValueError("the zero polynomial vanishes everywhere")
    coeffs = p.normalized().coeffs
    low = next(i for i, c in enumerate(coeffs) if c)
    q = Polynomial(coeffs[low:])  # q(0) != 0
    mirror = Polynomial([-c if k % 2 else c for k, c in enumerate(q.coeffs)])
    return [-r for r in reversed(_positive_roots(mirror))] + [0] * (low > 0) + _positive_roots(q)


def _positive_roots(q: Polynomial) -> list[int]:
    # |c_(d-k) / c_d| < 2^e, e = bits(c_(d-k)) - bits(c_d) + 1: its k-th root
    # is below 2^ceil(e / k).
    lead = q.leading_coefficient.bit_length()
    top = 1 + max(0, max((-((lead - 1 - abs(c).bit_length()) // k)
                          for k, c in enumerate(reversed(q.coeffs[:-1]), 1) if c), default=0))
    roots = [1] if q(1) == 0 else []
    intervals = [(1, (1 << top) - 1)]  # (a, w): the open interval (a, a + w)
    while intervals:
        a, w = intervals.pop()
        if w < 8:
            roots += [r for r in range(a + 1, a + w) if q(r) == 0]
            continue
        changes = _sign_changes(q, a, w)
        if changes == 1 and w <= a:
            roots += _simple_root(q, a, a + w)
        elif changes:
            # (2^i, 2^k) with k > i + 1 splits at 2^((i + k) // 2)
            m = 1 << (a.bit_length() + (a + w).bit_length() - 2) // 2 if w > a else a + w // 2
            if q(m) == 0:
                roots.append(m)
            intervals += [(a, m - a), (m, a + w - m)]
    return sorted(roots)


def _sign_changes(q: Polynomial, a: int, w: int) -> int:
    """Sign changes in the coefficients of (1 + s)^d q(a + w / (1 + s)): by
    Descartes' rule, the roots of q in (a, a + w) with multiplicity, up to an
    even excess, so 0 and 1 are exact."""
    f = q.shifted(a).coeffs
    g = Polynomial([c * w**k for k, c in enumerate(f)][::-1]).shifted(1).coeffs
    signs = [c > 0 for c in g if c]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def _simple_root(q: Polynomial, lo: int, hi: int) -> list[int]:
    """The integer root of q in (lo, hi), if any, when q has one simple root there.

    q has one sign below the root and the other above, so each point tried
    shrinks the bracket. The next is Newton's, rounded down (one less if that
    is no move), or else the bracket's middle if Newton's leaves the bracket
    or moves by over 1 and over half the last step ("rtsafe", Numerical Recipes).
    """
    dq = Polynomial([k * c for k, c in enumerate(q.coeffs)][1:])
    # The sign of q just above lo: q(lo), or if lo is a root (a split point
    # found earlier), the first nonzero Taylor coefficient there.
    neg = (q(lo) or next(c for c in q.shifted(lo).coeffs if c)) < 0
    x, step = (lo + hi) // 2, hi - lo
    while lo < x < hi:
        y = q(x)
        if y == 0:
            return [x]
        lo, hi = (x, hi) if (y < 0) == neg else (lo, x)
        d = dq(x)
        new = x - (y // d or 1) if d else lo
        if not (lo < new < hi and abs(new - x) <= max(step // 2, 1)):
            new = (lo + hi) // 2
        x, step = new, abs(new - x)
    return []
