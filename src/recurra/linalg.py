"""Exact nullspace computation by elimination modulo large moduli, checked over Z.

The rows are integer rows. Each is divided by its content and reduced modulo
a modulus p (a prime as a rule). One elimination reads them one row at a time
into a row echelon form mod p, and back-substitutes to give the pivot columns
and, for each free column, a kernel vector mod p. It need not read them all:
- At ncols pivots the rank is full, so the kernel is {0}, and it stops.
- Where a dependent row follows a dependent row, it offers the kernel of the
  prefix read so far, once per modulus. If not every vector of that offer
  verifies, it reads on from where it stopped, through the last row.
Residues from several moduli combine by CRT; each entry is rebuilt as a
rational by rational reconstruction (Wang, Guy & Davenport, SIGSAM Bull. 1982),
the vector is scaled to a primitive integer vector, and A x = 0 is checked
exactly over Z, against every row, before it is returned.

Both inner loops run on packed integers, so CPython's big-integer code does
the work per entry:
- The elimination packs each row into one int, column c in slot ncols - 1 - c,
  every slot 8·ceil((2·bits(p) + bits(ncols) + 1) / 8) bits wide. A slot
  starts below p and gains less than p^2 per update, so after at most ncols
  updates it is below (ncols + 1)·p^2 <= 2^(2·bits(p) + bits(ncols)) and
  never carries into the next.
- The exact check packs column c of A as the sum of A[r][c]·2^(w·r) over the
  rows r, with w >= bits(A) + bits(x) + bits(ncols) + 1 rounded up to bytes.
  The sum of x[c] times column c is then the sum of (A x)[r]·2^(w·r), and
  every |(A x)[r]| < ncols·2^(bits(A) + bits(x)) <= 2^(w - 1), so it is zero
  exactly when A x = 0.

The result does not trust the moduli, nor needs them prime, nor needs every
row read:
- A modulus p is skipped when a pivot has no inverse mod p, or when p shares
  a factor with the moduli it would join by CRT. Otherwise every pivot was a
  unit mod p, so the list mod p never has more pivots, or an earlier pivot,
  than the list over Q, and where the two agree the residues are images of
  the kernel over Q.
- The kernel of a prefix contains the full kernel. A prefix whose list mod p
  is A's list over Q has A's rank, so its rows span A's over Q and its
  residues are images of A's kernel.
- A vector that passes the exact check is supported on its own free column
  and on pivot columns to its left, so that column is free over Q as well:
  were it a pivot column of A over Q, the row of A's RREF over Q with its
  pivot there would give A x != 0.
- If every free column of a prefix's list verifies, that list has
  ncols - rank_p(prefix) >= ncols - rank_Q(A) free columns, all of them free
  over Q, so it is A's list over Q.
- Residues combine by CRT only between states with the same list, and a
  longer list, or an equally long one pivoting earlier, starts the CRT anew.
So once every free column of one pivot list has a vector verified under that
list, the vectors are exactly the basis the contract defines: one primitive
integer vector (content 1) per free column, ascending, positive there and
zero at the other free columns.
"""
from __future__ import annotations

import math
from typing import Callable, Iterator, Sequence

from .exact import primitive

#: The first modulus, the Mersenne prime 2^127 - 1. Only the rank bound of
#: ``nullity_bound`` needs it prime; ``nullspace`` takes any modulus.
FIRST_PRIME = 2**127 - 1
#: The odd primes up to 37, multiplied: ``_primes`` skips a multiple of one.
_SMALL_ODD_PRIMES = 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37
#: Margin of a reconstruction: a residue t is read as the integer t when
#: |t| < modulus / 2^SLACK_BITS, and as a rational a/b when Euclid's quotient
#: after it exceeds 2^SLACK_BITS. A misreading costs one more prime, since
#: every vector is checked over Z; for a random residue it has odds of about
#: 2^-SLACK_BITS times the modulus's bit length.
SLACK_BITS = 20


def nullspace(rows: Sequence[Sequence[int]], ncols: int) -> list[tuple[int, ...]]:
    """Basis of {x : A x = 0} for the matrix with the given integer rows,
    each ncols long.

    Returns one vector per free column, ascending. An empty row list (or a
    matrix of zero rows) yields the standard basis of the full space.
    """
    m = _prepare(rows, ncols)

    found: dict[int, tuple[int, ...]] = {}  # free column -> verified vector
    best: list[int] | None = None  # pivot columns of the moduli being combined
    for p in _primes():
        for pivots, kernel in _kernel_mod(m, ncols, p):
            if best is None or len(pivots) > len(best) or (
                len(pivots) == len(best) and pivots < best
            ):  # nearer the profile over Q: restart the CRT from this modulus
                best, modulus, residues = pivots, p, kernel()
                # A vector checked under the old pivot list may be nonzero at a
                # free column of the new one, so it is no contract vector.
                found.clear()
            elif pivots == best and math.gcd(modulus, p) == 1:  # extend the modulus by CRT
                scale = modulus * pow(modulus, -1, p)
                modulus *= p
                for f, new in kernel().items():
                    residues[f] = [
                        (x + (y - x) * scale) % modulus for x, y in zip(residues[f], new)
                    ]
            else:  # a short prefix, a rank drop mod p, a later pivot, or p not
                # coprime, as when p's last offer repeats the list of its prefix
                continue  # to the offer of more rows, or to the next modulus
            candidates = {}
            for f, res in residues.items():
                if f not in found:
                    v = _reconstruct(f, best, res, modulus, ncols)
                    if v is not None:
                        candidates[f] = v
            checks = _in_kernel(m, list(candidates.values()))
            found.update(fv for fv, ok in zip(candidates.items(), checks) if ok)
            if all(f in found for f in residues):
                return [found[f] for f in sorted(residues)]
    raise AssertionError("unreachable: the modulus sequence is infinite")


def nullity_bound(rows: Sequence[Sequence[int]], ncols: int) -> int:
    """ncols minus the rank of A mod FIRST_PRIME, by one elimination.

    The rank mod a prime never exceeds the rank over Q, so the result is
    never below the nullity over Q: 0 proves A x = 0 has only x = 0. It
    may exceed the nullity under a prime where the rank drops.
    """
    pivots, _ = next(_kernel_mod(_prepare(rows, ncols), ncols, FIRST_PRIME, early=False))
    return ncols - len(pivots)


def _prepare(rows: Sequence[Sequence[int]], ncols: int) -> list[list[int]]:
    """The rows divided by their contents, zero rows dropped.

    Raises ValueError on a row that is not ncols long, which would shift
    every slot of its packing, and TypeError (from ``math.gcd``) on a row
    holding anything but ints.
    """
    if any(len(row) != ncols for row in rows):
        raise ValueError("ragged matrix")
    m = [primitive(row) for row in rows]
    return [row for row in m if any(row)]


def _kernel_mod(
    m: list[list[int]], ncols: int, p: int, early: bool = True
) -> Iterator[tuple[list[int], Callable[[], dict[int, list[int]]]]]:
    """Offers (pivots, kernel) of the RREF mod p of a prefix of m, read one
    row at a time: the pivot columns, ascending, and a function that gives
    per free column the pivot coordinates of its kernel vector mod p (1
    there, 0 at the other free columns).

    At ncols pivots the rank is full: it offers every column and no kernel,
    and stops. With ``early``, a dependent row that follows a dependent row
    offers the rows read so far, once; asked for more, it reads on from
    there. A single dependent row makes no offer, since rows that raise the
    rank often follow one. The last offer covers every row. A pivot with no
    inverse mod p ends the offers.

    Each row is one int: column c sits in slot ncols - 1 - c of ``size``
    bytes. An echelon row, t scaled to 1 at its pivot column, is stored as
    ``neg``, -t mod p at the columns after the pivot, every slot below p. A
    new row is reduced from its top slot down. A slot 0 mod p is dropped; at
    an echelon row's pivot column the row becomes (row below the slot) +
    f·neg, f the slot mod p, one big-by-small multiply-add; any other slot is
    the pivot of a fresh echelon row. A row left with no slot is dependent.
    The kernel back-substitutes on copies of the echelon rows, each taking
    the later pivot columns in ascending order. Either way a slot starts
    below p and gains less than p^2 per update, at most ncols of them, so it
    stays below (ncols + 1)·p^2 < 2^(2·bits(p) + bits(ncols)) and never
    carries into the next. Slot f of a reduced row i is then the kernel
    vector's coordinate -t_i[f] at pivot i, read at the free columns only.
    """
    size = (2 * p.bit_length() + ncols.bit_length() + 8) // 8  # bytes per slot
    width = 8 * size
    mask = (1 << width) - 1
    echelon: dict[int, tuple[int, int]] = {}  # pivot column -> (neg, mask below its slot)

    def kernel() -> dict[int, list[int]]:
        pivots = sorted(echelon)
        reduced = []
        for i, col in enumerate(pivots):
            row = echelon[col][0]
            for later in pivots[i + 1 :]:
                f = (row >> width * (ncols - 1 - later) & mask) % p
                if f:
                    row += f * echelon[later][0]
            reduced.append(row.to_bytes(size * ncols, "big"))
        return {
            f: [int.from_bytes(row[f * size : (f + 1) * size], "big") % p for row in reduced]
            for f in range(ncols)
            if f not in echelon
        }

    follows = False  # whether the row before was dependent
    for row in m:
        a = int.from_bytes(b"".join((x % p).to_bytes(size, "big") for x in row), "big")
        while a:
            shift = (a.bit_length() - 1) // width * width  # the bit offset of the top slot
            col = ncols - 1 - shift // width
            top = a >> shift
            f = top % p
            if not f:
                a -= top << shift
            elif col in echelon:
                neg, low = echelon[col]
                a = (a & low) + f * neg
            else:
                break
        else:  # a dependent row
            if early and follows:  # the one early offer
                early = False
                yield sorted(echelon), kernel
            follows = True
            continue
        follows = False
        try:
            inv = pow(f, -1, p)
        except ValueError:  # no inverse: p is composite
            return
        low = (1 << shift) - 1
        tail = (a & low).to_bytes(shift // 8, "big")
        neg = int.from_bytes(
            b"".join(
                (-int.from_bytes(tail[i : i + size], "big") * inv % p).to_bytes(size, "big")
                for i in range(0, shift // 8, size)
            ),
            "big",
        )
        echelon[col] = neg, low
        if len(echelon) == ncols:
            yield list(range(ncols)), dict  # no free column: the kernel is {}
            return
    yield sorted(echelon), kernel


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


def _in_kernel(m: list[list[int]], vectors: list[tuple[int, ...]]) -> list[bool]:
    """For each vector v, whether m v = 0 exactly over Z, against one packing of m.

    Column c of m packs as col_c, the sum of m[r][c]·2^(w·r), so the sum of
    v[c]·col_c is the sum of (m v)[r]·2^(w·r). With w at least bits(m) +
    bits(v) + bits(ncols) + 1, every |(m v)[r]| < 2^(w - 1), so that sum is
    zero exactly when every row is. Slots hold m[r][c] + 2^(w - 1), which
    keeps them nonnegative: the packed column is col_c + k, with k the
    packing of 2^(w - 1) in every slot, and m v = 0 exactly when the sum of
    v[c]·(col_c + k) equals (sum of v)·k.
    """
    if not vectors or not m:
        return [True] * len(vectors)
    bits = (
        max(abs(x).bit_length() for row in m for x in row)
        + max(abs(x).bit_length() for v in vectors for x in v)
        + len(vectors[0]).bit_length()
        + 1
    )
    size = (bits + 7) // 8  # bytes per slot
    half = 1 << (8 * size - 1)
    k = int.from_bytes(half.to_bytes(size, "little") * len(m), "little")
    sums = [-sum(v) * k for v in vectors]
    for c, column in enumerate(zip(*m)):  # one packed column alive at a time
        col = int.from_bytes(b"".join((x + half).to_bytes(size, "little") for x in column), "little")
        for i, v in enumerate(vectors):
            if v[c]:
                sums[i] += v[c] * col
    return [not s for s in sums]


def _primes() -> Iterator[int]:
    """FIRST_PRIME, then in descending order the odd numbers below it that
    are prime to ``_SMALL_ODD_PRIMES`` and pass Fermat's test to base 2, lazily.

    A composite that passes costs at most a round of ``nullspace``, which
    skips it or checks what it gives exactly over Z.
    """
    yield FIRST_PRIME
    q = FIRST_PRIME - 2
    while True:
        if math.gcd(q, _SMALL_ODD_PRIMES) == 1 and pow(2, q - 1, q) == 1:
            yield q
        q -= 2
