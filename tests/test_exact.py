import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from recurra.exact import (
    COEFF_DIGITS,
    Polynomial,
    integer_roots,
    n,
    parse_coefficient,
    primitive,
    read_polynomials,
)
from recurra.sequences import series_inv_sqrt


def rand_fraction(rng, bound=50):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def rand_poly(rng, max_deg=6, bound=20):
    return Polynomial([rng.randint(-bound, bound) for _ in range(rng.randint(0, max_deg + 1))])


def test_rational_field_axioms_random():
    rng = random.Random(1)
    for _ in range(200):
        a, b, c = (rand_fraction(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        # stored reduced with positive denominator
        for x in (a + b, a * b, a - c):
            assert x.denominator > 0
            assert math.gcd(abs(x.numerator), x.denominator) == 1


def test_poly_mul_difference_of_squares():
    assert (n + 1) * (n - 1) == Polynomial([-1, 0, 1])


def test_poly_mul_zero_absorbs():
    assert Polynomial() * Polynomial([5, 0, 3]) == Polynomial()


def test_poly_mul_falling_factorial_product():
    # oracle: evaluate both sides at n = 0, 1, 2, 3
    lhs = (n * (n - 1)) * (n - 2)
    rhs = Polynomial([0, 2, -3, 1])  # n^3 - 3n^2 + 2n
    for x in range(4):
        assert lhs(x) == x * (x - 1) * (x - 2)
        assert rhs(x) == x * (x - 1) * (x - 2)
    assert lhs == rhs


def test_poly_mul_degree_adds_random():
    rng = random.Random(2)
    for _ in range(100):
        a, b = rand_poly(rng), rand_poly(rng)
        if a.is_zero or b.is_zero:
            assert (a * b).is_zero
        else:
            assert (a * b).degree == a.degree + b.degree


def test_poly_eval_examples():
    assert Polynomial([-1, 0, 1])(1) == 0
    assert (n * (n - 1))(6) == 30
    assert Polynomial()(10**6) == 0


def test_eval_is_ring_morphism_random():
    rng = random.Random(3)
    for _ in range(100):
        p, q = rand_poly(rng), rand_poly(rng)
        x = rng.randint(-50, 50)
        assert (p * q)(x) == p(x) * q(x)
        assert (p + q)(x) == p(x) + q(x)


def test_degree_of_zero_is_minus_one():
    assert Polynomial().degree == -1
    assert type(Polynomial().degree) is int


def _falling_factorial(j):
    """n(n-1)...(n-j+1), multiplied out one factor at a time; j = 0 gives 1."""
    return math.prod((n - i for i in range(j)), start=Polynomial([1]))


@pytest.mark.parametrize(
    "j,expected",
    [
        (0, Polynomial([1])),
        (2, Polynomial([0, -1, 1])),
        (5, Polynomial([0, 24, -50, 35, -10, 1])),
    ],
)
def test_falling_factorial(j, expected):
    assert _falling_factorial(j) == expected


def test_falling_factorial_5_values():
    # oracle: vanishes at 0..4, equals 5! at 5
    p = _falling_factorial(5)
    for x in range(5):
        assert p(x) == 0
    assert p(5) == 120


@pytest.mark.parametrize(
    "raw,expected",
    [
        ([4, 2], [2, 1]),                        # 2n + 4 -> n + 2
        ([8, 0, -4], [-2, 0, 1]),                # -4n^2 + 8 -> n^2 - 2
        ([], []),                                # zero stays zero
    ],
)
def test_poly_normalize_examples(raw, expected):
    assert Polynomial(raw).normalized() == Polynomial(expected)


def test_poly_normalize_idempotent_and_preserves_roots():
    rng = random.Random(4)
    for _ in range(100):
        p = rand_poly(rng)
        q = p.normalized()
        assert q.normalized() == q
        if not p.is_zero:
            # roots preserved: build p with known rational roots and recheck
            assert q.degree == p.degree
            for x in [Fraction(k, 3) for k in range(-6, 7)]:
                assert (p(x) == 0) == (q(x) == 0)


def test_normalized_coeffs_are_integers_content_one():
    rng = random.Random(5)
    for _ in range(50):
        p = rand_poly(rng)
        q = p.normalized()
        if q.is_zero:
            continue
        ints = q.coeffs
        assert all(type(c) is int for c in ints)
        g = 0
        for v in ints:
            g = math.gcd(g, v)
        assert g == 1
        assert ints[-1] > 0


def test_poly_shift_composition():
    p = n**2 - 1
    assert p.shifted(-2) == (n - 2) ** 2 - 1
    assert p.shifted(3)(0) == p(3)


def test_integer_roots():
    assert integer_roots(4 * (n - 1)) == [1]
    assert integer_roots(4 * n - 2) == []
    assert integer_roots(n * (n - 3) * (n + 7)) == [-7, 0, 3]
    assert integer_roots(Polynomial([5])) == []
    with pytest.raises(ValueError):
        integer_roots(Polynomial())


def test_integer_roots_far_from_zero():
    assert integer_roots((n - 5) ** 3 * (n - 10**20) ** 2 * (3 * n + 1)) == [5, 10**20]
    assert integer_roots(4 * n - (10**24 + 7)) == []
    assert integer_roots(n**2 * (n + 10**30)) == [-(10**30), 0]


def _divisor_roots(p):
    """Integer roots by trial of every divisor of the lowest nonzero coefficient."""
    cs = p.normalized().coeffs
    low = next(i for i, c in enumerate(cs) if c)
    candidates = {0} if low else set()
    if len(cs) - low > 1:
        a = abs(cs[low])
        candidates |= {s * d for d in range(1, a + 1) if a % d == 0 for s in (1, -1)}
    return sorted(r for r in candidates if p(r) == 0)


@settings(deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, 3), st.integers(-30, 30)), max_size=3),
    st.lists(st.integers(-20, 20), min_size=1, max_size=4).filter(any),
)
def test_integer_roots_match_divisor_enumeration(factors, cofactor):
    p = Polynomial(cofactor)
    for a, b in factors:
        p = p * (a * n - b)
    assert integer_roots(p) == _divisor_roots(p)


# series_inv_sqrt lives in recurra.sequences, next to verify_ogf; its series
# are plain int lists, truncated after x^order.


def _mul_trunc(a, b, length):
    return [sum(a[i] * b[k - i] for i in range(k + 1) if i < len(a) and k - i < len(b))
            for k in range(length)]


# Bisection splits intervals at 0 and at +-powers of two and their sums, so
# roots there land on the ends of later intervals.
_split_points = st.sampled_from([0, 1, -1, 2, -2, 3, 4, -4, 6, 8, -8, 9, 12, 16, -16, 24, 32,
                                 64, -64, 96, 128, 2**20, -(2**20), 2**64 + 1])


@settings(deadline=None)
@given(
    st.lists(st.tuples(_split_points, st.integers(1, 3)), max_size=4),
    st.lists(st.integers(-20, 20), min_size=1, max_size=4).filter(any),
)
def test_integer_roots_on_interval_ends_and_with_multiplicity(roots, cofactor):
    p = Polynomial(cofactor)
    for r, mult in roots:
        p = p * (n - r) ** mult
    expected = {r for r, _ in roots} | set(_divisor_roots(Polynomial(cofactor)))
    assert integer_roots(p) == sorted(expected)


def test_integer_roots_of_huge_roots_take_few_steps():
    start = time.perf_counter()
    big = 10**3000
    assert integer_roots((n + big) * (n - 7) * (n**2 + 5)) == [-big, 7]
    assert integer_roots(n**2 + (big + 3) * n - 3 * big) == []  # roots near -10^3000 and 2.99
    assert integer_roots((n - 2**200) ** 2 * (n + 2**199 + 1)) == [-(2**199) - 1, 2**200]
    # Fujiwara's bound: a 100-digit constant leaves the roots below 2^18.
    assert integer_roots(Polynomial([10**100] + [1] * 20)) == []
    assert time.perf_counter() - start < 2.0


def test_series_inv_sqrt_identity():
    assert series_inv_sqrt([1], 5) == [1, 0, 0, 0, 0, 0]
    assert series_inv_sqrt([1, -4], 0) == [1]


def test_series_inv_sqrt_central_binomial():
    # (1-4x)^(-1/2) generates C(2n, n)
    g = series_inv_sqrt([1, -4], 3)
    assert g == [1, 2, 6, 20]
    assert g == [math.comb(2 * k, k) for k in range(4)]


def test_series_inv_sqrt_aerated():
    assert series_inv_sqrt([1, 0, -4], 4) == [1, 0, 2, 0, 6]


def test_series_inv_sqrt_ogf_identity_long():
    N = 40
    g = series_inv_sqrt([1, -4], N)
    for k in range(N + 1):
        assert g[k] == math.comb(2 * k, k)


@pytest.mark.parametrize("order", [0, 1, 2, 3, 5, 17, 64, 300])
def test_series_inv_sqrt_matches_the_binomials_at_every_precision(order):
    # order + 1 coefficients: 1 needs no Newton step, 2 and 4 end on a full
    # doubling, 65 on a one-coefficient step, and 3, 6, 18 and 301 on partial ones.
    central = [math.comb(2 * j, j) for j in range(order + 1)]
    assert series_inv_sqrt([1, -4], order) == central
    aerated = [0 if j % 2 else central[j // 2] for j in range(order + 1)]
    assert series_inv_sqrt([1, 0, -4], order) == aerated


def test_series_inv_sqrt_requires_unit_constant_term():
    for f in ([2, 1], [], [-1, 4]):
        with pytest.raises(ValueError, match="constant term 1"):
            series_inv_sqrt(f, 4)
    with pytest.raises(ValueError, match="nonnegative"):
        series_inv_sqrt([1, -4], -1)


def test_series_inv_sqrt_refuses_a_non_integral_series():
    # (1+x)^(-1/2) = 1 - x/2 + ...: the first halving leaves a remainder.
    with pytest.raises(ValueError, match=r"coefficient of x\^1 "):
        series_inv_sqrt([1, 1], 8)
    # (1-8x)^(-1/2) = sum C(2k, k) 2^k x^k is integral, and
    # (1-2x)^(-1/2) = 1 + x + (3/2)x^2 + ... only up to x^1.
    assert series_inv_sqrt([1, -8], 3) == [1, 4, 24, 160]
    assert series_inv_sqrt([1, -2], 1) == [1, 1]
    with pytest.raises(ValueError, match=r"coefficient of x\^2 "):
        series_inv_sqrt([1, -2], 2)
    # The first odd coefficient falls past a step's old precision: x^4 in the
    # step from x^4 to x^5, x^6 in the step from x^4 to x^8.
    for f, power in (([1, 2, 3], 4), ([1, -4, 0, 2], 6)):
        text = f"f^(-1/2) is not integral: its coefficient of x^{power} is not an integer"
        with pytest.raises(ValueError) as caught:
            series_inv_sqrt(f, 20)
        assert str(caught.value) == text
        assert len(series_inv_sqrt(f, power - 1)) == power


def test_series_inv_sqrt_refuses_entries_that_are_not_integers():
    for f in ([1, 0.5], [1.0, -4], [1, Fraction(-4)], [Fraction(1), -4], [1, -4, 0, 2.0]):
        for order in (0, 3):
            with pytest.raises(TypeError, match="integers"):
                series_inv_sqrt(f, order)


def _inv_sqrt_by_binomials(f, order):
    """f^(-1/2) mod x^(order+1) over Q, as sum_m C(-1/2, m) (f - 1)^m."""
    h = [Fraction(0)] + [Fraction(c) for c in f[1 : order + 1]]
    h += [Fraction(0)] * (order + 1 - len(h))
    out, power, binom = [Fraction(0)] * (order + 1), [Fraction(1)] + [Fraction(0)] * order, 1
    for m in range(order + 1):
        out = [o + binom * p for o, p in zip(out, power)]
        power = _mul_trunc(power, h, order + 1)
        binom = binom * (Fraction(-1, 2) - m) / (m + 1)
    return out


@settings(deadline=None)
@given(
    st.lists(st.one_of(st.integers(-9, 9), st.integers(-3, 3).map(lambda c: 4 * c)),
             max_size=8),
    st.integers(0, 24),
)
def test_series_inv_sqrt_matches_the_binomial_series(tail, order):
    f = [1, *tail]
    exact = _inv_sqrt_by_binomials(f, order)
    first = next((k for k, c in enumerate(exact) if c.denominator != 1), None)
    if first is None:
        assert series_inv_sqrt(f, order) == exact
    else:
        with pytest.raises(ValueError) as caught:
            series_inv_sqrt(f, order)
        assert str(caught.value) == (
            f"f^(-1/2) is not integral: its coefficient of x^{first} is not an integer"
        )
        assert series_inv_sqrt(f, first - 1) == exact[:first]


def test_series_inv_sqrt_self_consistency():
    # For an integer series h with h[0] = 1, f = h^(-2) is an integer series,
    # and f^(-1/2) must give h back.
    rng = random.Random(6)
    N = 12
    for _ in range(50):
        h = [1] + [rng.randint(-5, 5) for _ in range(N)]
        f = [1] + [0] * N  # the inverse of h*h, term by term
        hh = _mul_trunc(h, h, N + 1)
        for k in range(1, N + 1):
            f[k] = -sum(hh[i] * f[k - i] for i in range(1, k + 1))
        assert _mul_trunc(hh, f, N + 1) == [1] + [0] * N
        g = series_inv_sqrt(f, N)
        assert g == h
        assert _mul_trunc(_mul_trunc(g, g, N + 1), f, N + 1) == [1] + [0] * N


def test_polynomial_text_form_round_trip():
    p = Polynomial([0, -1, 1])
    assert p.to_strings() == ["0", "-1", "1"]
    assert read_polynomials([p.to_strings()]) == [p]


def test_read_polynomials_clears_denominators_jointly():
    # Every row is multiplied by one lcm, and content is never divided out.
    assert read_polynomials([["1/2", "3"], ["-7/3", 4], []]) == [
        Polynomial([3, 18]), Polynomial([-14, 24]), Polynomial()
    ]
    assert read_polynomials([["6", "-4"], [2]]) == [Polynomial([6, -4]), Polynomial([2])]
    assert read_polynomials([["1.5e3", "0.25"]]) == [Polynomial([6000, 1])]
    assert read_polynomials([]) == []
    with pytest.raises(ValueError, match="zero denominator"):
        read_polynomials([["1/0"]])


@example(" 12 ")
@example("\t-1.5e+2\n")
@example("1_000")
@example("+7/2")
@example("-0/5")
@example(" 1/0")
@given(st.text(alphabet=" +-./0123456789_eE", max_size=6))
def test_parse_coefficient_reads_what_fraction_reads(text):
    try:
        expected = Fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ValueError):
            parse_coefficient(text)
        return
    value = parse_coefficient(text)
    assert value == expected
    assert type(value) is (int if expected.denominator == 1 else Fraction)


def test_coefficient_digit_cap_is_checked_before_building():
    start = time.perf_counter()
    over = ["1e10000000", "-1e-10000000", "1" * (COEFF_DIGITS + 1), "1e" + "9" * 40,
            "2/1" + "0" * COEFF_DIGITS, "5" * COEFF_DIGITS + "e1", "1e-" + str(COEFF_DIGITS),
            "+" + "1" * 5000]
    for text in over:
        with pytest.raises(ValueError, match="COEFF_DIGITS"):
            parse_coefficient(text)
    assert time.perf_counter() - start < 2.0


def test_coefficients_round_trip_up_to_the_digit_cap():
    assert parse_coefficient("1e5000") == 10**5000
    assert parse_coefficient("-1/" + "1" + "0" * (COEFF_DIGITS - 1)) == Fraction(
        -1, 10 ** (COEFF_DIGITS - 1)
    )
    p = Polynomial([10**COEFF_DIGITS - 1, 1])
    assert read_polynomials([p.to_strings()]) == [p]
    # A denominator at the cap is cleared on reading.
    back = read_polynomials([["-1/" + "1" + "0" * (COEFF_DIGITS - 1), "1"]])
    assert back == [Polynomial([-1, 10 ** (COEFF_DIGITS - 1)])]


def test_polynomial_immutable():
    with pytest.raises(AttributeError):
        n.coeffs = ()


def test_coefficients_must_be_int():
    for c in (Fraction(1, 2), Fraction(6, 3), 0.5, True, "1"):
        with pytest.raises(TypeError, match="must be int"):
            Polynomial([1, c])
    with pytest.raises(TypeError):
        n * Fraction(1, 2)
    with pytest.raises(TypeError):
        n + 0.5
    assert n != Fraction(1)


_polys = st.lists(st.integers(-600, 600), max_size=6).map(Polynomial)


@settings(deadline=None)
@given(_polys, _polys, st.integers(-20, 20))
def test_coefficients_are_int_exactly_when_integral(p, q, delta):
    # Every coefficient is integral, so every result holds ints only.
    for r in (p, q, p + q, p - q, p * q, p.shifted(delta), p.normalized(), (p * q).normalized()):
        assert all(type(c) is int for c in r.coeffs)
    assert p.shifted(delta).shifted(-delta) == p
    assert p.shifted(delta)(0) == p(delta)


@settings(deadline=None)
@given(st.lists(st.integers(-600, 600), max_size=6))
def test_primitive_is_a_coprime_positive_multiple(values):
    ints = primitive(values)
    assert all(type(v) is int for v in ints)
    assert math.gcd(*ints) == (1 if any(values) else 0)
    nonzero = [(v, x) for v, x in zip(ints, values) if x]
    if nonzero:
        scale = Fraction(nonzero[0][0]) / nonzero[0][1]
        assert scale > 0
        assert all(v == scale * x for v, x in zip(ints, values))


def test_text_forms_write_coefficients_of_any_length():
    big = 10**5000
    p = Polynomial([-big, 3 * big])
    one, three = "1" + "0" * 5000, "3" + "0" * 5000
    assert p.to_strings() == [f"-{one}", three]
    assert str(p) == f"{three}*n - {one}"
    assert repr(p) == f"Polynomial({[f'-{one}', three]})"
