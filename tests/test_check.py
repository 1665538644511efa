import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from recurra.check import decimal, from_decimal


def _reference(x):
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:  # no int-to-str digit cap on this interpreter
        return str(x)
    limit = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        return str(x)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "x",
    [0, 7, -7, 10**999, 10**1000 - 1, 10**1000, 10**1000 + 1, -(10**1000),
     10**2000 + 5, 123 * 10**4321, 10**4300 - 1, 10**4300, -(3**20000),
     10**3000 + 10**1000 + 1],
    ids=lambda x: f"{'-' if x < 0 else ''}{x.bit_length()}-bit",
)
def test_decimal_matches_str_across_chunk_boundaries(x):
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    assert decimal(x) == _reference(x)
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


@given(st.integers(min_value=0, max_value=4), st.integers(), st.integers(0, 2000))
def test_decimal_matches_str_on_random_wide_ints(chunks, low, shift):
    x = low * 10 ** (1000 * chunks + shift) + low
    assert decimal(x) == _reference(x)


@given(st.integers(min_value=0, max_value=4), st.integers(), st.integers(0, 2000))
def test_from_decimal_inverts_decimal(chunks, low, shift):
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    x = low * 10 ** (1000 * chunks + shift) + low
    assert from_decimal(decimal(x)) == x
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_from_decimal_reads_leading_zeros_across_chunks():
    assert from_decimal("0" * 2500 + "7") == 7
    assert from_decimal("-" + "0" * 999 + "12") == -12
