import math
import time
import tracemalloc
from itertools import count, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recurra import sequences
from recurra.cli import EXIT_FAIL, main
from recurra.oeis import compare_sequence
from recurra.operators import builtin_operator, verify_range
from recurra.sequences import (
    MAX_INDEX,
    ORACLE_LENGTH_CAP,
    BFileSequence,
    TermRangeError,
    binomial_summand,
    builtin_sequence,
    orbit_count_oracle,
    verify_ogf,
)

# First terms of A032123 as catalogued.
A032123_HEAD = [1, 1, 4, 10, 38, 126, 472, 1716, 6470, 24310, 92504, 352716, 1352540]

U = builtin_sequence("central-binomial")
V = builtin_sequence("aerated-central-binomial")
A = builtin_sequence("A032123")
R = builtin_sequence("A005418")
#: Every builtin sequence, in the order its lookup's error lists them.
_BUILTIN_NAMES = ("A005418", "A032123", "aerated-central-binomial", "central-binomial")


def test_u_term_examples():
    assert U.term(0) == 1
    assert U.term(1) == 2
    assert U.term(5) == 252
    assert U.term(5) == math.comb(10, 5)


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
    for a, u, v in zip(A.terms(0, 500), U.terms(0, 500), V.terms(0, 500)):
        assert (u + v) % 2 == 0
        assert 2 * a == u + v


@pytest.mark.parametrize("length,ones,expected", [(6, 3, 10), (4, 2, 4), (2, None, 3)])
def test_orbit_oracle_examples(length, ones, expected):
    assert orbit_count_oracle(length, ones) == expected


def test_orbit_oracle_small_by_hand():
    # length 3 unrestricted: 000, 001~100, 010, 011~110, 101, 111 -> 6 classes
    assert orbit_count_oracle(3) == 6
    assert orbit_count_oracle(0) == 1
    assert orbit_count_oracle(5, 0) == 1
    assert orbit_count_oracle(5, 5) == 1


@pytest.mark.parametrize("length, ones, match", [
    (-1, None, "string length must be nonnegative"),
    (4, 5, "ones=5 is outside 0..4"),
    (4, -1, "ones=-1 is outside 0..4"),
])
def test_orbit_oracle_refuses_a_negative_length_or_an_impossible_weight(length, ones, match):
    with pytest.raises(ValueError, match=match):
        orbit_count_oracle(length, ones)


def test_orbit_oracle_cap():
    with pytest.raises(ValueError, match="cap"):
        orbit_count_oracle(ORACLE_LENGTH_CAP + 1, 3)


def test_orbit_oracle_cap_is_configurable(monkeypatch):
    # The cap is read at call time, so the module constant is the one setting.
    monkeypatch.setattr(sequences, "ORACLE_LENGTH_CAP", 8)
    with pytest.raises(ValueError, match="cap 8"):
        orbit_count_oracle(10, 5)
    monkeypatch.setattr(sequences, "ORACLE_LENGTH_CAP", 10)
    assert orbit_count_oracle(10, 5) == 126


def _reversal_reference(length, ones):
    # String-by-string: each {s, reverse(s)} counted once, palindromes apart.
    strings = [format(s, f"0{length}b") for s in range(1 << length)]
    strings = [b for b in strings if ones is None or b.count("1") == ones]
    return sum(b <= b[::-1] for b in strings), sum(b == b[::-1] for b in strings)


def test_orbit_oracle_matches_string_reversal_exhaustively():
    # Burnside over {id, reverse}: 2 * orbits = strings + palindromes.
    for length in range(15):
        for ones in (None, *range(length + 1)):
            want = _reversal_reference(length, ones)
            orbits = orbit_count_oracle(length, ones)
            strings = 2**length if ones is None else math.comb(length, ones)
            assert (orbits, 2 * orbits - strings) == want, (length, ones)


def test_orbit_oracle_at_the_cap_is_fast():
    start = time.perf_counter()
    assert orbit_count_oracle(24, 12) == 1352540
    assert orbit_count_oracle(24) == 8390656
    assert time.perf_counter() - start < 1.0


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


def test_builtin_sources_stop_at_max_index():
    s = builtin_sequence("A005418")
    assert s.max_index == MAX_INDEX
    assert s.term(MAX_INDEX) == _reference("A005418", MAX_INDEX)
    for name in _BUILTIN_NAMES:
        with pytest.raises(TermRangeError, match=f"n={MAX_INDEX + 1} "):
            builtin_sequence(name).term(MAX_INDEX + 1)


@pytest.mark.parametrize(
    "n_from, n_to, missing",
    [(4, 6, 4), (MAX_INDEX - 1, MAX_INDEX + 1, MAX_INDEX + 1)],
    ids=["below-min-index", "past-max-index"],
)
def test_a_range_past_a_source_is_refused_before_a_term_is_drawn(
    monkeypatch, capsys, n_from, n_to, missing
):
    drawn = []

    def run(n):
        for m in count(n):
            drawn.append(m)
            yield m

    monkeypatch.setitem(sequences._BUILTINS, "counted", (5, run))
    message = f"counted has no term at n={missing} (available: 5..{MAX_INDEX})"
    bfile = BFileSequence("b", n_from, range(n_from, n_to + 1))
    reads = [
        lambda s: verify_range(builtin_operator("u-op"), s, n_from + 1, n_to),  # reads n_from on
        lambda s: compare_sequence(s, bfile, n_from, n_to),
        lambda s: s.terms(n_from, n_to),
    ]
    for read in reads:
        with pytest.raises(TermRangeError) as exc:
            read(builtin_sequence("counted"))
        assert str(exc.value) == message
    assert main(["gen", "counted", "--from", str(n_from), "--to", str(n_to)]) == EXIT_FAIL
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert drawn == []


def _palindromes(k):
    """Palindromes of length 2k with k ones, by Burnside: 2 * orbits - strings."""
    return 2 * orbit_count_oracle(2 * k, k) - math.comb(2 * k, k)


def test_palindrome_parity():
    # no palindrome has an odd number of ones
    for k in range(1, 11, 2):
        assert _palindromes(k) == 0
    for k in range(2, 11, 2):
        assert _palindromes(k) == math.comb(k, k // 2)


def test_builtin_registry():
    assert builtin_sequence("central-binomial").term(5) == 252
    with pytest.raises(ValueError) as unknown:
        builtin_sequence("A000000")
    assert str(unknown.value) == (
        f"unknown sequence 'A000000'; builtins: {', '.join(_BUILTIN_NAMES)}"
    )


def test_term_queries_are_deterministic():
    s = builtin_sequence("A032123")
    first = [s.term(k) for k in range(50)]
    second = [s.term(k) for k in range(50)]
    assert first == second


def test_builtin_sequences_are_fresh_and_independent():
    a, b = builtin_sequence("A032123"), builtin_sequence("A032123")
    assert a is not b
    assert a.term(3000) == _reference("A032123", 3000)  # a far read on a
    assert [b.term(k) for k in range(13)] == A032123_HEAD
    assert a.term(2999) == _reference("A032123", 2999)
    assert b.term(12) == A032123_HEAD[12]


def test_a032123_first_reads_on_fresh_sources():
    # Each read starts a run of its own, from seeds at n = 0, 1 or 2.
    assert [builtin_sequence("A032123").term(k) for k in range(3)] == [1, 1, 4]
    for k in range(3):
        s = builtin_sequence("A032123")
        assert s.term(320) == _reference("A032123", 320)  # a far read first
        assert [s.term(m) for m in range(k, 6)] == A032123_HEAD[k:6]
        assert list(islice(s.run(k), 6 - k)) == A032123_HEAD[k:6]


@pytest.mark.parametrize("target", [97, 98])
def test_a032123_reseeds_on_either_parity(target):
    # v steps two indices at a time, so a run must start with v(n - 1) as well as v(n).
    s = builtin_sequence("A032123")
    assert s.term(5) == _reference("A032123", 5)
    for start, length in ((target, 35), (target - 65, 5)):  # far ahead, then back
        want = [_reference("A032123", n) for n in range(start, start + length)]
        assert [s.term(n) for n in range(start, start + length)] == want
        assert list(islice(s.run(start), length)) == want


def test_a032123_odd_half_sum_still_raises(monkeypatch):
    # Off by one at odd indices only, so u(0) + v(0) stays even.
    first, real = sequences._BUILTINS["central-binomial"]
    monkeypatch.setitem(
        sequences._BUILTINS, "central-binomial",
        (first, lambda n: (u + m % 2 for m, u in enumerate(real(n), n))),
    )
    s = builtin_sequence("A032123")
    with pytest.raises(AssertionError, match=r"u\(1\) \+ v\(1\) is odd"):
        s.term(1)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(["central-binomial", "aerated-central-binomial", "A032123",
                          "binomial_summand 1", "binomial_summand 2"]),
    start=st.integers(0, 3000),
    k=st.integers(1, 40),
)
def test_unrolled_runs_match_the_closed_forms(name, start, k):
    if name.startswith("binomial_summand"):
        # The closed form that seeds the runs: u at step 1, v at step 2.
        step = int(name[-1])
        run = (binomial_summand(step, m) for m in count(start))
        name = ("central-binomial", "aerated-central-binomial")[step - 1]
    else:
        run = builtin_sequence(name).run(start)
    assert list(islice(run, k)) == [_reference(name, m) for m in range(start, start + k)]


def test_sweep_memory_is_bounded():
    # Holding every term up to n = 10000 takes about 29.5 MiB; the sweep
    # keeps its last six.
    tracemalloc.start()
    try:
        rep = verify_range(builtin_operator("mathar"), builtin_sequence("A032123"), 6, 10000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert peak < 2 * 2**20


def _reference(name: str, n: int) -> int:
    """Direct closed forms, with no run and no ratio steps."""
    name = name.removesuffix(" b-file")
    u = math.comb(2 * n, n)
    v = math.comb(n, n // 2) if n % 2 == 0 else 0
    return {
        "central-binomial": u,
        "aerated-central-binomial": v,
        "A032123": (u + v) // 2,
        "A005418": (2**n + 2 ** ((n + 1) // 2)) // 2,
    }[name]


_LAST = 1500  # reads stay on min_index.._LAST, where math.comb is cheap
_SPAN = 32  # the scale of the moves below, in indices


def _source(name: str):
    if name == "A032123 b-file":
        # Five spans long, so walks reach its end and jumps land on both sides.
        return BFileSequence(name, 3, [_reference(name, k) for k in range(3, 3 + 5 * _SPAN)])
    return builtin_sequence(name)


_MOVES = st.one_of(
    st.tuples(st.just("walk"), st.integers(1, 3 * _SPAN)),  # sequential reads
    st.tuples(st.just("jump"), st.integers(-(_SPAN - 1), _SPAN - 1)),
    st.tuples(st.just("jump"), st.integers(-10 * _SPAN, -_SPAN)),
    st.tuples(st.just("jump"), st.integers(_SPAN, 10 * _SPAN)),
)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(
        ["central-binomial", "aerated-central-binomial", "A032123", "A005418", "A032123 b-file"]
    ),
    start=st.integers(0, _LAST),
    moves=st.lists(_MOVES, max_size=20),
)
def test_reads_and_runs_match_the_closed_forms(name, start, moves):
    # A walk reads the next terms from one run, a jump reads one term by index.
    s = _source(name)
    last = min(s.max_index, _LAST)
    n = min(max(start, s.min_index), last)
    assert s.term(n) == _reference(name, n)
    for kind, k in moves:
        if kind == "walk":
            k = min(k, last - n)
            want = [_reference(name, m) for m in range(n + 1, n + k + 1)]
            assert list(islice(s.run(n + 1), k)) == want
            n += k
        else:
            n = min(max(n + k, s.min_index), last)
            assert s.term(n) == _reference(name, n)


def test_a_source_keeps_no_read_state():
    mathar = builtin_operator("mathar")
    s = builtin_sequence("A032123")
    b = BFileSequence("b", 0, A032123_HEAD, "head")
    for source, top in ((s, 400), (b, 12)):
        assert source.term(7) == A032123_HEAD[7]
        assert source.terms(0, 12) == A032123_HEAD
        assert verify_range(mathar, source, 6, top).passed
    assert vars(s).keys() == {"name", "run", "min_index", "max_index"}
    assert vars(b).keys() == {"name", "run", "min_index", "max_index", "values", "source"}


def test_verify_ogf():
    assert verify_ogf(0).passed
    rep = verify_ogf(12)
    assert rep.passed and rep.order == 12
    assert verify_ogf(50).passed


def test_verify_ogf_witnesses_are_int_triples(monkeypatch):
    # verify_ogf looks series_inv_sqrt up in its module at each call.
    real = sequences.series_inv_sqrt

    def off_at_x3(f, order):
        g = real(f, order)
        return g[:3] + [g[3] + 1] + g[4:] if f == [1, -4] else g

    monkeypatch.setattr(sequences, "series_inv_sqrt", off_at_x3)
    rep = verify_ogf(5)
    assert not rep.passed and rep.order == 5
    assert rep.mismatches == ((3, 21, 20),)  # C(6,3) + 1 + 0 against 2*a(3)
    assert all(type(x) is int for x in rep.mismatches[0])


def test_verify_ogf_rejects_negative_order():
    with pytest.raises(ValueError):
        verify_ogf(-1)
