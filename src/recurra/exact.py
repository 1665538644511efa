"""Exact rational arithmetic, dense univariate polynomials, truncated power series.

Polynomials are dense coefficient tuples over Q in the formal variable ``n``.
One rule, kept in ``Polynomial.__init__``: an integral coefficient is stored
as an ``int`` (``Fraction(6, 3)`` becomes ``2``), and only a value that is not
an integer stays a ``Fraction``, so Z[n] is plain ints and no ``/`` may reach
a coefficient. Truncated series stay over ``Fraction`` (``series_inv_sqrt``
divides by 2). Every value is immutable and every operation pure, so sharing
across threads is safe.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .check import decimal, from_decimal

#: Degree of the zero polynomial. A tagged sentinel rather than -1 so that
#: degree comparisons and sums stay honest (NEG_INF + d == NEG_INF).
NEG_INF = float("-inf")

_Scalar = Union[int, Fraction]

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


def _canonical(x) -> _Scalar:
    """The stored form of a coefficient: an int when integral, else a Fraction."""
    if isinstance(x, (int, Fraction)):
        return x.numerator if x.denominator == 1 else x
    raise TypeError(f"expected an integer or Fraction, got {type(x).__name__}")


def primitive(values: Sequence[_Scalar]) -> list[int]:
    """The values times one positive rational: coprime integers (content 1).

    Signs are kept, and an all-zero input comes back as zeros.
    """
    den = math.lcm(*(v.denominator for v in values))
    ints = [v.numerator * (den // v.denominator) for v in values]
    g = math.gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def parse_coefficient(text: str) -> _Scalar:
    """The value of one coefficient, as ``Fraction(text)`` reads it.

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
    try:
        return _canonical(Fraction(value, from_decimal(den)) if plain else Fraction(text))
    except ZeroDivisionError:  # "1/0" in a file is bad input, not a bug
        raise ValueError(f"zero denominator in coefficient {text!r}") from None


def _over_cap(text: str) -> ValueError:
    shown = text if len(text) <= 40 else f"{text[:20]}... ({len(text)} characters)"
    return ValueError(
        f"coefficient {shown!r} is over the cap COEFF_DIGITS = {COEFF_DIGITS} digits "
        f"(and {_SHORT_TEXT} characters unless written as [-]digits[/digits])"
    )


def _text(c: _Scalar) -> str:
    """A coefficient in decimal, of any length: ``-7`` or ``-7/2``."""
    if type(c) is int:
        return decimal(c)
    return f"{decimal(c.numerator)}/{decimal(c.denominator)}"


class Polynomial:
    """Dense univariate polynomial over exact rationals.

    ``coeffs[i]`` is the coefficient of n^i, an int when integral; the
    trailing coefficient is nonzero (the zero polynomial has an empty
    coefficient tuple).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[_Scalar] = ()):
        cs = [_canonical(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- basic structure ---------------------------------------------------

    @property
    def degree(self) -> int | float:
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading_coefficient(self) -> _Scalar:
        if not self.coeffs:
            return 0
        return self.coeffs[-1]

    def __getitem__(self, i: int) -> _Scalar:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Polynomial([other])
        return NotImplemented

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
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

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
        """Horner evaluation; x may be an int, a Fraction, or a Polynomial."""
        if isinstance(x, Polynomial):
            acc = Polynomial()
        else:
            x, acc = _canonical(x), 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def shifted(self, delta: int) -> "Polynomial":
        """The polynomial p(n + delta)."""
        return self(Polynomial([delta, 1]))

    # -- canonical form ----------------------------------------------------

    def normalized(self) -> "Polynomial":
        """Rational rescaling to integer coefficients, content 1, positive lead."""
        ints = primitive(self.coeffs)
        if ints and ints[-1] < 0:
            ints = [-v for v in ints]
        return Polynomial(ints)

    # -- text forms ----------------------------------------------------------

    def to_strings(self) -> list[str]:
        """Coefficient list low-to-high as decimal strings (file format)."""
        return [_text(c) for c in self.coeffs]

    @classmethod
    def from_strings(cls, items: Sequence[str | int]) -> "Polynomial":
        """Inverse of ``to_strings``; JSON integers pass through as they are."""
        return cls([s if isinstance(s, int) else parse_coefficient(s) for s in items])

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                term = _text(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{_text(abs(c))}*"
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
    if isinstance(x, (int, Fraction)):
        return Polynomial([x])
    return NotImplemented


#: The formal variable. Module-level so callers can write e.g. 8*(n**2 + 5*n - 19).
n = Polynomial([0, 1])


def falling_factorial(j: int) -> Polynomial:
    """n(n-1)...(n-j+1), the monic degree-j falling factorial; j=0 gives 1."""
    if j < 0:
        raise ValueError("falling factorial length must be nonnegative")
    out = Polynomial([1])
    for i in range(j):
        out = out * (n - i)
    return out


def integer_roots(p: Polynomial) -> list[int]:
    """All integer roots of a nonzero polynomial, ascending.

    Bisects [-B, B], B = 1 + max|c_i| // |c_d| the Cauchy bound, so the work
    grows with the coefficients' bit length. An interval of half-width h about
    m has no root if the Taylor coefficients a_k of p(m + t) give
    |a_0| > sum_{k>=1} |a_k| h^k; one of at most 8 integers is scanned.
    """
    if p.is_zero:
        raise ValueError("the zero polynomial vanishes everywhere")
    coeffs = p.normalized().coeffs
    low = next(i for i, c in enumerate(coeffs) if c)
    roots = [0] if low else []
    q = Polynomial(coeffs[low:])  # q(0) != 0
    bound = 1 + max(map(abs, q.coeffs[:-1]), default=0) // abs(q.leading_coefficient)
    intervals = [(-bound, bound)]
    while intervals:
        lo, hi = intervals.pop()
        if hi - lo < 8:
            roots.extend(r for r in range(lo, hi + 1) if q(r) == 0)
            continue
        mid = (lo + hi) // 2
        h = hi - mid
        a = q.shifted(mid).coeffs
        if abs(a[0]) > sum(abs(c) * h**k for k, c in enumerate(a) if k):
            continue
        intervals += [(lo, mid), (mid + 1, hi)]
    return sorted(roots)


class TruncatedSeries:
    """Power series truncated at a fixed order: coefficients of x^0 .. x^N."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: Iterable[_Scalar], order: int):
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        cs = [Fraction(_canonical(c)) for c in coeffs][: order + 1]
        cs += [Fraction(0)] * (order + 1 - len(cs))
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    def __getitem__(self, i: int) -> Fraction:
        return self.coeffs[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        order = min(self.order, other.order)
        return TruncatedSeries(
            [a + b for a, b in zip(self.coeffs, other.coeffs)], order
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries([c * other for c in self.coeffs], self.order)
        order = min(self.order, other.order)
        return TruncatedSeries(
            _mul_trunc(self.coeffs, other.coeffs, order + 1), order
        )

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"TruncatedSeries({[str(c) for c in self.coeffs]}, order={self.order})"


def _mul_trunc(a, b, length):
    out = [Fraction(0)] * length
    for i, ai in enumerate(a[:length]):
        if ai == 0:
            continue
        for j in range(min(length - i, len(b))):
            out[i + j] += ai * b[j]
    return out


def series_inv_sqrt(f: TruncatedSeries, order: int) -> TruncatedSeries:
    """f^(-1/2) mod x^(order+1) by Newton iteration with doubling precision.

    Requires constant term 1; the result g satisfies g*g*f == 1 truncated.
    """
    if f.coeffs[0] != 1:
        raise ValueError("inverse square root needs constant term 1")
    target = order + 1
    fc = list(f.coeffs) + [Fraction(0)] * (target - len(f.coeffs))
    g = [Fraction(1)]
    prec = 1
    while prec < target:
        prec = min(2 * prec, target)
        fg2 = _mul_trunc(_mul_trunc(g, g, prec), fc, prec)
        corr = [Fraction(3) - fg2[0]] + [-c for c in fg2[1:]]
        g = [c / 2 for c in _mul_trunc(g, corr, prec)]
    return TruncatedSeries(g, order)
