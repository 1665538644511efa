import pytest

from recurra import operators
from recurra.guess import (
    HOLDOUT,
    MARGIN,
    MAX_TERMS,
    GuessNotFoundError,
    InsufficientTermsError,
    guess_recurrence,
    minimal_guess,
    required_terms,
)
from recurra.operators import ShiftOperator, builtin_operator, verify_range
from recurra.sequences import builtin_sequence


def test_required_terms_formula():
    assert required_terms(1, 1) == 4 + 1 + MARGIN + HOLDOUT
    assert required_terms(5, 2) == 18 + 5 + MARGIN + HOLDOUT
    assert (MARGIN, HOLDOUT) == (10, 10)


def test_recovers_u_op_exactly():
    u = builtin_sequence("central-binomial")
    result = guess_recurrence(u.terms(0, 40), 1, 1)
    assert len(result.verified) == 1
    assert result.verified[0] == builtin_operator("u-op")


def test_recovers_geometric():
    result = guess_recurrence([2**k for k in range(26)], 1, 0)
    ops = result.verified
    assert len(ops) == 1
    assert [p.to_strings() for p in ops[0].coeffs] == [["1"], ["-2"]]


def test_order5_guess_on_a032123():
    a = builtin_sequence("A032123")
    result = guess_recurrence(a.terms(0, 60), 5, 2)
    assert result.verified
    for op in result.verified:
        assert verify_range(op, a, max(op.order, 6), 1000).passed


def test_order5_degree2_nullspace_is_exactly_mathar():
    a = builtin_sequence("A032123")
    result = guess_recurrence(a.terms(0, 60), 5, 2)
    assert builtin_operator("mathar") in result.verified


def test_scaling_invariance():
    u = builtin_sequence("central-binomial")
    terms = u.terms(0, 40)
    base = guess_recurrence(terms, 1, 1)
    scaled = guess_recurrence([7 * t for t in terms], 1, 1)
    assert base.verified == scaled.verified


def test_holdout_soundness_on_patternless_terms():
    # the primes satisfy no low-order polynomial recurrence; nothing may verify
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
              67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
              139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199]
    result = guess_recurrence(primes, 2, 1)
    assert not result.verified
    with pytest.raises(GuessNotFoundError, match="no verified recurrence"):
        minimal_guess(primes, max_order=2, max_degree=1)


def test_minimal_guess_a032123_is_order_3():
    a = builtin_sequence("A032123")
    op = minimal_guess(a.terms(0, 79), max_order=5, max_degree=4)
    assert op.order <= 3
    assert verify_range(op, a, max(op.order, 6), 2000).passed


def test_minimal_guess_central_binomial_is_u_op():
    u = builtin_sequence("central-binomial")
    op = minimal_guess(u.terms(0, 50), max_order=3, max_degree=3)
    assert op == builtin_operator("u-op")


def test_minimal_guess_deterministic():
    a = builtin_sequence("A032123")
    terms = a.terms(0, 79)
    assert minimal_guess(terms, 5, 4) == minimal_guess(terms, 5, 4)


def test_guess_respects_offset():
    u = builtin_sequence("central-binomial")
    # same sequence, window starting at n = 3
    result = guess_recurrence(u.terms(3, 45), 1, 1, offset=3)
    assert result.verified[0] == builtin_operator("u-op")


def test_guessed_and_lclm_operators_co_annihilate():
    # both routes to an order-3 annihilator must agree on the verification
    # range; operator equality is not asserted, only co-annihilation
    from recurra.operators import lclm

    a = builtin_sequence("A032123")
    guessed = minimal_guess(a.terms(0, 79), max_order=5, max_degree=4)
    computed, _, _ = lclm(builtin_operator("u-op"), builtin_operator("v-op"))
    for op in (guessed, computed):
        assert verify_range(op, a, max(op.order, 6), 2000).passed


def test_mathar_is_consistent_as_frozen_solution():
    # the order-5 operator, restated as nullspace membership: its residuals
    # vanish at every sample index of the guessing window
    a = builtin_sequence("A032123")
    m = builtin_operator("mathar")
    for i in range(6, 61):
        assert m.apply(a, i) == 0


@pytest.mark.parametrize(
    "terms, order, degree, error, match",
    [
        ([1] * 40, 0, 1, ValueError, "order must be >= 1 and degree >= 0"),
        ([1] * 40, 1, -1, ValueError, "order must be >= 1 and degree >= 0"),
        ([1] * 10, 30, 30, ValueError, "MAX_UNKNOWNS"),
        ([1] * (MAX_TERMS + 1), 1, 1, ValueError, "MAX_TERMS"),
        (list(range(10)), 1, 1, InsufficientTermsError, "needs at least"),
    ],
    ids=["order-0", "degree-negative", "unknowns", "terms", "too-few"],
)
def test_guess_refuses_a_bad_shape(terms, order, degree, error, match):
    with pytest.raises(error, match=match):
        guess_recurrence(terms, order, degree)


def test_the_holdout_verifies_an_order_over_the_verify_cap(monkeypatch):
    # guess has no order cap, and its holdout check does not go through
    # verify_range, whose work cap would refuse every sweep here.
    monkeypatch.setattr(operators, "MAX_SWEEP_WORK", 0)
    period = ShiftOperator([1] + [0] * 32 + [-1])
    terms = [(k % 33) ** 3 + 7 * (k % 33) for k in range(200)]
    assert guess_recurrence(terms, 33, 0).verified == (period,)
