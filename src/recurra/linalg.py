"""Exact nullspace computation by elimination modulo primes, checked over Z.

Each row is scaled to coprime integers, reduced modulo a prime p, and brought
to reduced row echelon form mod p. That gives the pivot columns and, for each
free column, a kernel vector mod p. Residues from several primes combine by
CRT; each entry is rebuilt as a rational by rational reconstruction (Wang,
Guy & Davenport, SIGSAM Bull. 1982), the vector is scaled to a primitive
integer vector, and A x = 0 is checked exactly over Z before it is returned.

The result does not trust the primes. A verified vector is supported on its
own free column and on pivot columns to its left, so that column is free over
Q as well; and the nullity mod p is never below the nullity over Q. So once
every free column of one pivot list has a vector verified under that list,
the vectors are exactly the basis the contract defines: one primitive integer
vector (content 1) per free column, ascending, positive there and zero at the
other free columns.
"""
from __future__ import annotations

import math
from operator import mul
from typing import Iterator, Sequence

from .exact import primitive

#: The first modulus, the Mersenne prime 2^127 - 1; later ones are the
#: primes below it, in descending order.
FIRST_PRIME = 2**127 - 1
#: Fixed Miller-Rabin bases. A composite that passed them could only cost an
#: extra round: every returned vector is checked exactly over Z.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
#: Margin of a reconstruction: a residue t is read as the integer t when
#: |t| < modulus / 2^SLACK_BITS, and as a rational a/b when Euclid's quotient
#: after it exceeds 2^SLACK_BITS. A misreading costs one more prime, since
#: every vector is checked over Z; for a random residue it has odds of about
#: 2^-SLACK_BITS times the modulus's bit length.
SLACK_BITS = 20


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
    m = [row for row in m if any(row)]

    found: dict[int, tuple[int, ...]] = {}  # free column -> verified vector
    best: list[int] | None = None  # pivot columns of the primes being combined
    for p in _primes():
        pivots, kernel = _kernel_mod(m, ncols, p)
        if best is None or len(pivots) > len(best) or (
            len(pivots) == len(best) and pivots < best
        ):  # nearer the profile over Q: restart the CRT from this prime
            best, modulus, residues = pivots, p, kernel
            # A vector checked under the old pivot list may be nonzero at a
            # free column of the new one, so it is no contract vector.
            found.clear()
        elif pivots == best:  # same profile: extend the modulus by CRT
            scale = modulus * pow(modulus, -1, p)
            modulus *= p
            for f, old in residues.items():
                residues[f] = [
                    (x + (y - x) * scale) % modulus for x, y in zip(old, kernel[f])
                ]
        else:  # the rank drops mod p, or a later column pivots: unlucky prime
            continue
        for f, res in residues.items():
            if f not in found:
                v = _reconstruct(f, best, res, modulus, ncols)
                if v is not None and _in_kernel(m, v):
                    found[f] = v
        if all(f in found for f in residues):
            return [found[f] for f in sorted(residues)]
    raise AssertionError("unreachable: the prime sequence is infinite")


def full_column_rank(rows: Sequence[Sequence], ncols: int) -> bool:
    """Whether A x = 0 has x = 0 as its only solution, by one elimination mod FIRST_PRIME.

    True is exact, since full column rank mod a prime implies it over Q.
    False may also come from a prime under which the rank drops.
    """
    pivots, _ = _kernel_mod([primitive(row) for row in rows], ncols, FIRST_PRIME)
    return len(pivots) == ncols


def _kernel_mod(m: list[list[int]], ncols: int, p: int) -> tuple[list[int], dict[int, list[int]]]:
    """Pivot columns of the RREF of m mod p, and per free column the pivot
    coordinates of its kernel vector mod p (1 there, 0 at the other free columns).

    Only pivot rows and multipliers are reduced mod p as they are used; each
    update adds less than p^2 to an entry, so entries grow by only log2 of
    the update count.
    """
    a = [[x % p for x in row] for row in m]
    a = [row for row in a if any(row)]
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == len(a):
            break
        piv = next((r for r in range(rank, len(a)) if a[r][col] % p), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][col], -1, p)
        # Rows from rank on are zero left of col, so only columns col.. change.
        tail = [x * inv % p for x in a[rank][col:]]
        a[rank] = [0] * col + tail
        for r, row in enumerate(a):
            f = row[col] % p
            if f and r != rank:
                a[r] = row[:col] + [x - f * y for x, y in zip(row[col:], tail)]
        pivots.append(col)
    pivot_set = set(pivots)
    kernel = {
        f: [-a[i][f] % p for i in range(len(pivots))]
        for f in range(ncols)
        if f not in pivot_set
    }
    return pivots, kernel


def _reconstruct(
    free: int, pivots: list[int], residues: list[int], modulus: int, ncols: int
) -> tuple[int, ...] | None:
    """The primitive integer vector with the given residues, or None.

    Entries share one running denominator d: each residue times d is read as
    an integer when it is small, and rebuilt as a rational a/b otherwise,
    which multiplies d by b.
    """
    small = modulus >> SLACK_BITS
    d = 1
    v = [0] * ncols
    for col, r in zip(pivots, residues):
        t = r * d % modulus
        if t > modulus - t:
            t -= modulus
        if abs(t) > small:
            q = _rational(t % modulus, modulus)
            if q is None:
                return None
            t, b = q
            d *= b
            v = [x * b for x in v]
        v[col] = t
    v[free] = d
    return tuple(primitive(v))


def _rational(u: int, modulus: int) -> tuple[int, int] | None:
    """(a, b) with a = u b mod modulus and b > 0, or None.

    Maximal-quotient reconstruction (Monagan, ISSAC 2004): of the fractions
    on Euclid's remainder sequence, the one followed by the largest quotient,
    if that quotient exceeds 2^SLACK_BITS. Unlike a bound |a|, b <= sqrt(m/2)
    it needs only |a| b below about m / 2^SLACK_BITS, however the bits split.
    """
    r0, r1, s0, s1 = modulus, u, 0, 1
    top, best = 1 << SLACK_BITS, None
    while r1:
        q = r0 // r1
        if q > top:
            top, best = q, (r1, s1)
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if best is None:
        return None
    a, b = best
    if b < 0:
        a, b = -a, -b
    return (a, b) if math.gcd(a, b) == 1 else None


def _in_kernel(m: list[list[int]], v: tuple[int, ...]) -> bool:
    """Whether every row of m is orthogonal to v, exactly over Z."""
    cols = [c for c, x in enumerate(v) if x]
    vals = [v[c] for c in cols]
    return not any(sum(map(mul, map(row.__getitem__, cols), vals)) for row in m)


def _primes() -> Iterator[int]:
    """FIRST_PRIME, then the primes below it in descending order, lazily."""
    yield FIRST_PRIME
    q = FIRST_PRIME - 2
    while True:
        if _is_probable_prime(q):
            yield q
        q -= 2


def _is_probable_prime(n: int) -> bool:
    """Miller-Rabin with the fixed bases ``_WITNESSES``, for odd n > 37."""
    if any(n % w == 0 for w in _WITNESSES):  # cheap rejection of most candidates
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for w in _WITNESSES:
        x = pow(w, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
