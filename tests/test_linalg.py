import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recurra import linalg
from recurra.linalg import nullity_bound, nullspace


def test_known_one_dimensional_kernel():
    # x + y + z = 0, x - z = 0  ->  span{(1, -2, 1)}
    basis = nullspace([[1, 1, 1], [1, 0, -1]], ncols=3)
    assert len(basis) == 1
    v = basis[0]
    assert tuple(x / v[2] for x in v) == (1, -2, 1)


def test_full_rank_has_empty_kernel():
    assert nullspace([[1, 0], [0, 1]], ncols=2) == []
    assert nullspace([[2, 1], [1, 1], [5, 3]], ncols=2) == []


def test_zero_matrix_gives_standard_basis():
    basis = nullspace([[0, 0, 0]], ncols=3)
    assert len(basis) == 3
    for i, v in enumerate(basis):
        assert v[i] == 1 and sum(map(abs, v)) == 1


def test_empty_matrix_needs_explicit_width():
    assert len(nullspace([], ncols=2)) == 2


def test_fraction_rows_are_refused():
    rows = [[Fraction(1, 2), Fraction(1, 3)]]
    with pytest.raises(TypeError):
        nullspace(rows, ncols=2)
    with pytest.raises(TypeError):
        nullity_bound(rows, 2)


def test_rank_nullity_and_membership_random():
    rng = random.Random(10)
    for _ in range(50):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        basis = nullspace(m, ncols=cols)
        # every basis vector really is in the kernel
        for v in basis:
            for row in m:
                assert sum(a * x for a, x in zip(row, v)) == 0
        # rank-nullity against a Fraction-based reference rank
        assert len(basis) == cols - _reference_rank(m)


def _reference_rank(m):
    return len(_reference_pivot_columns(m, len(m[0])))


def _reference_pivot_columns(m, ncols):
    a = [[Fraction(x) for x in row] for row in m]
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(a)) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for r in range(len(a)):
            if r != rank and a[r][col] != 0:
                f = a[r][col] / a[rank][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        pivots.append(col)
    return pivots


def test_deterministic_output():
    m = [[3, 1, -2, 0], [1, 1, 1, 1]]
    assert nullspace(m, ncols=4) == nullspace(m, ncols=4)


def test_basis_vectors_are_primitive_integer_vectors():
    assert nullspace([[1, 1, 1], [1, 0, -1]], ncols=3) == [(1, -2, 1)]
    assert nullspace([[3, 2]], ncols=2) == [(-2, 3)]
    assert nullspace([[4, 6, 0]], ncols=3) == [(-3, 2, 0), (0, 0, 1)]


_entries = st.one_of(st.integers(-9, 9), st.integers(-54, 54))
_matrices = st.integers(1, 6).flatmap(
    lambda cols: st.tuples(
        st.lists(st.lists(_entries, min_size=cols, max_size=cols), max_size=6),
        st.just(cols),
    )
)


@settings(deadline=None)
@given(_matrices)
def test_nullspace_contract(matrix):
    rows, ncols = matrix
    basis = nullspace(rows, ncols=ncols)
    pivots = _reference_pivot_columns(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    assert len(basis) == ncols - len(pivots)  # rank-nullity
    for col, v in zip(free, basis):
        assert all(type(x) is int for x in v)
        assert math.gcd(*v) == 1
        assert v[col] > 0
        assert all(v[c] == 0 for c in free if c != col)
        for row in rows:
            assert sum(a * x for a, x in zip(row, v)) == 0


@settings(deadline=None)
@given(_matrices)
def test_nullity_bound_is_zero_exactly_when_the_kernel_is_zero(matrix):
    # Minors of entries this small lie far below FIRST_PRIME, so the rank
    # cannot drop mod it: the bound is 0 exactly when the kernel is zero.
    rows, ncols = matrix
    assert (nullity_bound(rows, ncols) == 0) == (nullspace(rows, ncols=ncols) == [])


@pytest.mark.parametrize("rows", [[[1, 2], [3]], [[1, 2, 3]], [[1, 2], [3, 4, 5]]])
def test_ragged_rows_are_refused(rows):
    # A row of the wrong length would shift every slot of its packed form.
    with pytest.raises(ValueError, match="ragged matrix"):
        nullity_bound(rows, 2)
    with pytest.raises(ValueError, match="ragged matrix"):
        nullspace(rows, ncols=2)


def test_nullity_bound_examples():
    assert nullity_bound([[1, 2], [3, 4]], 2) == 0
    assert nullity_bound([[1, 2], [2, 4]], 2) == 1
    assert nullity_bound([], 1) == 1
    # The rank drops mod FIRST_PRIME, so the bound exceeds the nullity over Q.
    assert nullity_bound([[MERSENNE_127, 1], [0, 1]], 2) == 1
    assert nullspace([[MERSENNE_127, 1], [0, 1]], ncols=2) == []


MERSENNE_127 = 2**127 - 1
#: The largest prime below 2^127 - 1, the second modulus ``nullspace`` uses.
SECOND_PRIME = MERSENNE_127 - 24


def test_rank_drop_mod_the_first_prime():
    # The entry 2^127 - 1 vanishes mod the first prime, so the rank drops there.
    assert nullspace([[MERSENNE_127, 1], [0, 1]], ncols=2) == []
    assert nullspace([[MERSENNE_127, 1, 1], [0, 1, 1]], ncols=3) == [(0, -1, 1)]
    # Column 2 has a kernel vector under the first prime's pivot list [1], but
    # a later prime's list [0] makes column 1 free, where that vector is not 0.
    assert nullspace([[MERSENNE_127, 1, 1]], ncols=3) == [
        (-1, MERSENNE_127, 0),
        (-1, 0, MERSENNE_127),
    ]


def test_kernel_past_one_prime_reconstruction_bound(monkeypatch):
    # One elimination per modulus, which may offer a prefix and then all rows.
    primes_used = []
    kernel_mod = linalg._kernel_mod

    def counting(m, ncols, p, early=True):
        primes_used.append(p)
        return kernel_mod(m, ncols, p, early)

    monkeypatch.setattr(linalg, "_kernel_mod", counting)
    assert nullspace([[3**190, 2**300 + 1]], ncols=2) == [(-(2**300 + 1), 3**190)]
    assert len(primes_used) >= 5  # a 600-bit kernel, 127-bit primes
    assert primes_used[:2] == [MERSENNE_127, SECOND_PRIME]


def test_a_composite_modulus_is_skipped(monkeypatch):
    # 3 has no inverse mod 15, so the elimination under 15 fails at its
    # first pivot; the moduli after it give the contract basis.
    primes = linalg._primes

    def composite_first():
        yield 15
        yield from primes()

    monkeypatch.setattr(linalg, "_primes", composite_first)
    assert nullspace([[3, 1]], ncols=2) == [(-1, 3)]


def test_a_modulus_not_coprime_to_the_crt_modulus_is_skipped(monkeypatch):
    # The pivot 1 is a unit mod 3·(2^127 - 1), which gives the first
    # modulus's pivot list but cannot join it by CRT; a 200-bit kernel entry
    # needs a second modulus, so the next one is combined instead.
    primes = linalg._primes

    def shared_factor_second():
        moduli = primes()
        yield next(moduli)
        yield 3 * MERSENNE_127
        yield from moduli

    monkeypatch.setattr(linalg, "_primes", shared_factor_second)
    assert nullspace([[1, 2**200 + 1]], ncols=2) == [(-(2**200 + 1), 1)]


def test_unlucky_prime_is_skipped_while_combining():
    # Over Q the pivots are columns 0 and 1; mod SECOND_PRIME they are 0 and 2,
    # which comes after the first prime's profile, so that prime is left out.
    rows = [[3**190, 2**300 + 1, 0], [0, SECOND_PRIME, 1]]
    assert nullspace(rows, ncols=3) == [(2**300 + 1, -(3**190), 3**190 * SECOND_PRIME)]


_big_matrices = st.integers(1, 5).flatmap(
    lambda cols: st.tuples(
        st.lists(
            st.lists(st.integers(-(2**200), 2**200), min_size=cols, max_size=cols),
            max_size=5,
        ),
        st.just(cols),
    )
)


@settings(deadline=None, max_examples=60)
@given(_big_matrices)
def test_nullspace_contract_with_200_bit_entries(matrix):
    # Kernel entries here reach about a thousand bits: many primes, combined by CRT.
    test_nullspace_contract.hypothesis.inner_test(matrix)


# Entries that vanish mod the first primes make those primes drop rank or
# pivot on later columns, so the pivot list changes from one prime to the next.
_prime_multiples = st.one_of(
    st.integers(-3, 3),
    st.builds(
        lambda k, q: k * q,
        st.integers(-3, 3),
        st.sampled_from([MERSENNE_127, SECOND_PRIME, MERSENNE_127 * SECOND_PRIME]),
    ),
)
_unlucky_matrices = st.integers(1, 5).flatmap(
    lambda cols: st.tuples(
        st.lists(st.lists(_prime_multiples, min_size=cols, max_size=cols), max_size=4),
        st.just(cols),
    )
)


@settings(deadline=None, max_examples=200)
@given(_unlucky_matrices)
def test_nullspace_contract_with_entries_vanishing_mod_the_first_primes(matrix):
    test_nullspace_contract.hypothesis.inner_test(matrix)


@settings(deadline=None, max_examples=200)
@given(st.one_of(_matrices, _unlucky_matrices))
def test_nullity_bound_is_never_below_the_nullity(matrix):
    rows, ncols = matrix
    assert nullity_bound(rows, ncols) >= len(nullspace(rows, ncols=ncols))


# Rows that depend on rows after them, read first: duplicates, multiples and
# combinations. Two of them in a row make the elimination offer the kernel of
# a prefix too large for the matrix, which the exact check must refuse.
@st.composite
def _dependent_rows_first(draw):
    cols = draw(st.integers(1, 6))
    base = draw(st.lists(st.lists(_entries, min_size=cols, max_size=cols), min_size=1, max_size=6))
    row = st.sampled_from(base)
    scale = st.integers(-5, 5)
    dependent = st.one_of(
        row,
        st.builds(lambda r, c: [c * x for x in r], row, scale),
        st.builds(lambda r, s, c, d: [c * x + d * y for x, y in zip(r, s)], row, row, scale, scale),
    )
    return draw(st.lists(dependent, min_size=1, max_size=4)) + base, cols


# Tall matrices of full column rank: a triangular block with a nonzero
# diagonal among random rows, in any order.
@st.composite
def _tall_full_rank(draw):
    cols = draw(st.integers(1, 8))
    entry = st.integers(-(2**100), 2**100)
    block = [
        [draw(entry) if c < r else draw(st.integers(1, 9)) if c == r else 0 for c in range(cols)]
        for r in range(cols)
    ]
    extra = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), max_size=2 * cols))
    return draw(st.permutations(block + extra)), cols


@settings(deadline=None, max_examples=200)
@given(st.one_of(_dependent_rows_first(), _tall_full_rank()))
def test_a_prefix_read_first_gives_the_contract_basis(matrix):
    rows, ncols = matrix
    test_nullspace_contract.hypothesis.inner_test(matrix)
    assert nullity_bound(rows, ncols) == ncols - _reference_rank(rows)


def _count_rows_read(monkeypatch):
    """Wraps ``linalg._kernel_mod``: one record per elimination, with its
    modulus, the rows it was given, the rows it read and, at each offer,
    (rows read, rank)."""
    calls = []
    kernel_mod = linalg._kernel_mod

    def counting(m, ncols, p, early=True):
        call = {"p": p, "rows": len(m), "read": 0, "offers": []}
        calls.append(call)

        class Read(list):
            def __iter__(self):
                call["read"] += 1
                return super().__iter__()

        for pivots, kernel in kernel_mod([Read(row) for row in m], ncols, p, early):
            call["offers"].append((call["read"], len(pivots)))
            yield pivots, kernel

    monkeypatch.setattr(linalg, "_kernel_mod", counting)
    return calls


def test_a_failed_early_offer_reads_on_without_restarting(monkeypatch):
    # Rows 2 and 3 depend on row 1, so the first three offer the kernel
    # spanned by (0, 1, 0) and (0, 0, 1); row 4 refutes the first. The same
    # elimination then reads row 4 alone and offers all four rows.
    calls = _count_rows_read(monkeypatch)
    assert nullspace([[1, 0, 0], [2, 0, 0], [3, 0, 0], [0, 1, 0]], ncols=3) == [(0, 0, 1)]
    assert calls == [{"p": MERSENNE_127, "rows": 4, "read": 4, "offers": [(3, 1), (4, 2)]}]


def test_one_dependent_row_makes_no_offer(monkeypatch):
    # Row 2 depends on row 1, but row 3 does not: only all rows are offered.
    calls = _count_rows_read(monkeypatch)
    assert nullspace([[1, 0, 0], [2, 0, 0], [0, 1, 0]], ncols=3) == [(0, 0, 1)]
    assert calls == [{"p": MERSENNE_127, "rows": 3, "read": 3, "offers": [(3, 2)]}]


def test_a_tall_system_of_full_rank_reads_ncols_rows(monkeypatch):
    # Any 12 rows of this Vandermonde matrix are independent.
    rows = [[(i + 1) ** j for j in range(12)] for i in range(40)]
    calls = _count_rows_read(monkeypatch)
    assert nullity_bound(rows, 12) == 0
    assert nullspace(rows, ncols=12) == []
    assert calls == [{"p": MERSENNE_127, "rows": 40, "read": 12, "offers": [(12, 12)]}] * 2


def test_the_discover_system_reads_55_of_127_rows(monkeypatch):
    # guess (8, 12) on 145 terms of A032123: rank 53, nullity 64. Rows 54 and
    # 55 are the first dependent ones, and the kernel of those 55 verifies.
    from recurra.guess import guess_recurrence
    from recurra.sequences import builtin_sequence

    calls = _count_rows_read(monkeypatch)
    result = guess_recurrence(builtin_sequence("A032123").terms(0, 144), 8, 12)
    assert len(result.candidates) == 64
    assert calls == [{"p": MERSENNE_127, "rows": 127, "read": 55, "offers": [(55, 53)]}]


def _all_rows(m, ncols, p):
    """``linalg._kernel_mod``'s offer of every row: pivots and kernel."""
    (pivots, kernel), = linalg._kernel_mod(m, ncols, p, early=False)
    return pivots, kernel()


def _reference_kernel_mod(m, ncols, p):
    """A list-based Gauss-Jordan elimination over every row: the oracle for
    the packed rows of ``linalg._kernel_mod``. Pivot columns of the RREF of m
    mod p, and per free column the pivot coordinates of its kernel vector mod p."""
    a = [[x % p for x in row] for row in m]
    a = [row for row in a if any(row)]
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == len(a):
            break
        piv = next((r for r in range(rank, len(a)) if a[r][col] % p), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][col], -1, p)
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


def _mod_p_matrices(p):
    # Multiples of p vanish mod p, so ranks drop and pivots move; small
    # entries and zero rows make pivot-free columns and all-zero rows.
    entry = st.one_of(
        st.integers(-3, 3),
        st.integers(-(2**200), 2**200),
        st.builds(lambda k: k * p, st.integers(-3, 3)),
        st.builds(lambda k, x: k * p + x, st.integers(-(2**70), 2**70), st.integers(-1, 1)),
    )
    return st.integers(1, 10).flatmap(
        lambda cols: st.tuples(
            st.lists(
                st.one_of(
                    st.lists(entry, min_size=cols, max_size=cols),
                    st.just([0] * cols),
                ),
                max_size=8,
            ),
            st.just(cols),
            st.just(p),
        )
    )


_kernel_mod_cases = st.sampled_from([2, 3, 251, MERSENNE_127, SECOND_PRIME]).flatmap(
    _mod_p_matrices
)


@settings(deadline=None, max_examples=300)
@given(_kernel_mod_cases)
def test_packed_elimination_matches_the_list_reference(case):
    # A slot that carried into its neighbour could report a longer or earlier
    # pivot list than the true one; nullspace would then restart its CRT on a
    # profile no vector verifies under, and walk the primes forever.
    rows, ncols, p = case
    assert _all_rows(rows, ncols, p) == _reference_kernel_mod(rows, ncols, p)


def test_packed_elimination_matches_the_list_reference_on_dense_systems():
    rng = random.Random(19)
    for p in (2, 3, 251, MERSENNE_127, SECOND_PRIME):
        for rows, cols in ((8, 10), (10, 8), (12, 12)):
            m = [[rng.randint(-(2**200), 2**200) for _ in range(cols)] for _ in range(rows)]
            m[1] = [x * p for x in m[0]]  # a row that vanishes mod p
            m[2] = [x + 2 * y for x, y in zip(m[3], m[4])]  # a dependent row
            assert _all_rows(m, cols, p) == _reference_kernel_mod(m, cols, p)


def _direct_in_kernel(m, vectors):
    return [not any(sum(a * x for a, x in zip(row, v)) for row in m) for v in vectors]


def _check_entries(bits):
    return st.one_of(st.integers(-9, 9), st.integers(-(2**bits), 2**bits))


_check_cases = st.integers(1, 6).flatmap(
    lambda cols: st.tuples(
        st.lists(st.lists(_check_entries(100), min_size=cols, max_size=cols), max_size=6),
        st.lists(
            st.lists(_check_entries(80), min_size=cols, max_size=cols), min_size=1, max_size=4
        ),
    )
)


@settings(deadline=None, max_examples=200)
@given(_check_cases)
def test_packed_exact_check_matches_the_direct_sums(case):
    m, vectors = case
    vectors = [tuple(v) for v in vectors]
    # Each row's last entry set so that u, ending in 1, is orthogonal to it:
    # u and its multiples are in that matrix's kernel, the random vectors
    # mostly are not.
    u = vectors[0][:-1] + (1,)
    fitted = [row[:-1] + [-sum(a * x for a, x in zip(row, u[:-1]))] for row in m]
    vectors += [u, tuple(-3 * x for x in u)]
    for rows in (m, fitted):
        assert linalg._in_kernel(rows, vectors) == _direct_in_kernel(rows, vectors)
    assert linalg._in_kernel(fitted, [u]) == [True]


@pytest.mark.parametrize("where", [0, 1, 2])
@pytest.mark.parametrize("sign", [1, -1])
def test_packed_exact_check_sees_one_nonzero_row(where, sign):
    # Bits: m 30, v 31, three columns 2, plus 1: 64, a whole number of bytes,
    # so the slot is exactly as wide as the rule asks.
    big_m, big_v = 2**30 - 1, 2**31 - 1
    cases = (
        ((big_v, big_v - 1, 0), [[0, 0, big_m], [0, 0, -big_m]], [sign, -sign, 0], sign),
        (  # the largest |(m v)_r| the rule admits
            (big_v,) * 3,
            [[big_m, -big_m, 0], [0, big_m, -big_m]],
            [sign * big_m] * 3,
            sign * 3 * big_m * big_v,
        ),
    )
    for v, zero_rows, odd_row, value in cases:
        m = zero_rows[:where] + [odd_row] + zero_rows[where:]
        products = [sum(a * x for a, x in zip(row, v)) for row in m]
        assert products == [0] * where + [value] + [0] * (2 - where)
        assert linalg._in_kernel(m, [v]) == [False]
        assert linalg._in_kernel(zero_rows, [v]) == [True]
