import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recurra.operators import builtin_operator, verify_range
from recurra.sequences import (
    ORACLE_LENGTH_CAP,
    WINDOW,
    TermRangeError,
    binomial,
    builtin_sequence,
    builtin_sequence_names,
    orbit_count_oracle,
    reversal_fixed_count,
    verify_ogf,
)

# First terms of A032123 as catalogued.
A032123_HEAD = [1, 1, 4, 10, 38, 126, 472, 1716, 6470, 24310, 92504, 352716, 1352540]

U = builtin_sequence("central-binomial")
V = builtin_sequence("aerated-central-binomial")
A = builtin_sequence("A032123")
R = builtin_sequence("A005418")


@pytest.mark.parametrize(
    "n,k,expected", [(4, 2, 6), (10, 5, 252), (5, 7, 0), (5, -1, 0), (0, 0, 1)]
)
def test_binomial(n, k, expected):
    assert binomial(n, k) == expected


def test_binomial_rejects_negative_upper():
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_u_term_examples():
    assert U.term(0) == 1
    assert U.term(1) == 2
    assert U.term(5) == 252
    assert U.term(5) == binomial(10, 5)


def test_v_term_examples():
    assert V.term(1) == 0
    assert V.term(4) == 6
    assert V.term(7) == 0
    assert V.term(0) == 1


def test_uv_against_direct_binomials():
    for k in range(0, 201):
        assert U.term(k) == math.comb(2 * k, k)
        expected = math.comb(k, k // 2) if k % 2 == 0 else 0
        assert V.term(k) == expected


def test_uv_ratio_recurrences_to_200():
    for k in range(1, 201):
        assert k * U.term(k) == (4 * k - 2) * U.term(k - 1)
    for k in range(2, 201):
        assert k * V.term(k) == 4 * (k - 1) * V.term(k - 2)


def test_a032123_closed_head():
    assert [A.term(k) for k in range(13)] == A032123_HEAD


def test_a032123_closed_specific():
    assert A.term(0) == 1
    assert A.term(3) == 10
    assert A.term(12) == 1352540


def test_half_sum_parity_holds_far_out():
    for k in range(0, 501):
        assert (U.term(k) + V.term(k)) % 2 == 0
        assert 2 * A.term(k) == U.term(k) + V.term(k)


@pytest.mark.parametrize("length,ones,expected", [(6, 3, 10), (4, 2, 4), (2, None, 3)])
def test_orbit_oracle_examples(length, ones, expected):
    assert orbit_count_oracle(length, ones) == expected


def test_orbit_oracle_small_by_hand():
    # length 3 unrestricted: 000, 001~100, 010, 011~110, 101, 111 -> 6 classes
    assert orbit_count_oracle(3) == 6
    assert orbit_count_oracle(0) == 1
    assert orbit_count_oracle(5, 0) == 1
    assert orbit_count_oracle(5, 5) == 1


def test_orbit_oracle_cap():
    with pytest.raises(ValueError, match="cap"):
        orbit_count_oracle(ORACLE_LENGTH_CAP + 1, 3)


def test_orbit_oracle_cap_is_configurable():
    with pytest.raises(ValueError, match="cap"):
        orbit_count_oracle(10, 5, cap=8)
    assert orbit_count_oracle(10, 5, cap=10) == 126


def test_closed_form_matches_oracle():
    for k in range(13):
        assert A.term(k) == orbit_count_oracle(2 * k, k)


def test_a005418_examples():
    assert R.term(1) == 2
    assert R.term(2) == 3
    assert R.term(3) == 6


def test_a005418_matches_oracle():
    for k in range(1, 17):
        assert R.term(k) == orbit_count_oracle(k)


def test_a005418_offset_starts_at_one():
    with pytest.raises(TermRangeError):
        builtin_sequence("A005418").term(0)


def test_palindrome_parity():
    # no palindrome has an odd number of ones
    for k in range(1, 11, 2):
        assert reversal_fixed_count(2 * k, k) == 0
    for k in range(2, 11, 2):
        assert reversal_fixed_count(2 * k, k) == math.comb(k, k // 2)


def test_builtin_registry():
    assert builtin_sequence_names() == (
        "A005418",
        "A032123",
        "aerated-central-binomial",
        "central-binomial",
    )
    assert builtin_sequence("central-binomial").term(5) == 252
    with pytest.raises(ValueError, match="unknown sequence"):
        builtin_sequence("A000000")


def test_term_queries_are_deterministic():
    s = builtin_sequence("A032123")
    first = [s.term(k) for k in range(50)]
    second = [s.term(k) for k in range(50)]
    assert first == second


def test_builtin_sequences_are_fresh_and_independent():
    a, b = builtin_sequence("A032123"), builtin_sequence("A032123")
    assert a is not b
    assert a.term(3000) == _reference("A032123", 3000)  # a's window moves far ahead
    assert [b.term(k) for k in range(13)] == A032123_HEAD
    assert a.term(2999) == _reference("A032123", 2999)
    assert b.term(12) == A032123_HEAD[12]


def test_sweep_memory_is_bounded():
    # Holding every term up to n = 10000 takes about 29.5 MiB; a window of
    # them about 0.4 MiB.
    tracemalloc.start()
    try:
        rep = verify_range(builtin_operator("mathar"), builtin_sequence("A032123"), 6, 10000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert peak < 2 * 2**20


def _reference(name: str, n: int) -> int:
    """Direct closed forms, with no window and no ratio steps."""
    u = math.comb(2 * n, n)
    v = math.comb(n, n // 2) if n % 2 == 0 else 0
    return {
        "central-binomial": u,
        "aerated-central-binomial": v,
        "A032123": (u + v) // 2,
        "A005418": (2**n + 2 ** ((n + 1) // 2)) // 2,
    }[name]


_LAST = 1500  # reads stay on min_index.._LAST, where math.comb is cheap
_MOVES = st.one_of(
    st.tuples(st.just("walk"), st.integers(1, 3 * WINDOW)),  # sequential reads
    st.tuples(st.just("jump"), st.integers(-(WINDOW - 1), WINDOW - 1)),
    st.tuples(st.just("jump"), st.integers(-10 * WINDOW, -WINDOW)),
    st.tuples(st.just("jump"), st.integers(WINDOW, 10 * WINDOW)),
)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(["central-binomial", "aerated-central-binomial", "A032123", "A005418"]),
    start=st.integers(0, _LAST),
    moves=st.lists(_MOVES, max_size=20),
)
def test_window_reads_match_the_closed_forms(name, start, moves):
    s = builtin_sequence(name)
    n = max(start, s.min_index)
    assert s.term(n) == _reference(name, n)
    for kind, k in moves:
        targets = range(n + 1, n + k + 1) if kind == "walk" else [n + k]
        for m in targets:
            n = min(max(m, s.min_index), _LAST)
            assert s.term(n) == _reference(name, n)


def test_verify_ogf():
    assert verify_ogf(0).passed
    rep = verify_ogf(12)
    assert rep.passed and rep.order == 12
    assert verify_ogf(50).passed


def test_verify_ogf_rejects_negative_order():
    with pytest.raises(ValueError):
        verify_ogf(-1)
