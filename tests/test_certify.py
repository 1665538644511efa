import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recurra.certify import (
    DegenerateRatioError,
    HyperTermSpec,
    UnsupportedChainError,
    builtin_term,
    certify_annihilation,
    check_cancellation_identities,
    perturbed,
)
from recurra.certify import MAX_OPERATOR_ORDER, MAX_TERM_DEGREE, _reduce_residue
from recurra.exact import Polynomial, integer_roots, n
from recurra.operators import MAX_ORDER_CAP, ShiftOperator, builtin_operator, verify_range
from recurra.sequences import builtin_sequence


def test_builtin_terms():
    # Read off u-op and v-op: step = order, p = c_0, q = -c_order.
    assert builtin_term("u-spec") == HyperTermSpec(1, n, 4 * n - 2, frozenset({0}), 1)
    assert builtin_term("v-spec") == HyperTermSpec(2, n, 4 * n - 4, frozenset({0}), 2)
    with pytest.raises(ValueError) as unknown:
        builtin_term("w-spec")
    assert str(unknown.value) == "unknown term 'w-spec'; builtins: u-spec, v-spec"


def test_term_spec_validation():
    with pytest.raises(ValueError):
        HyperTermSpec(step=3, p=n, q=n, support=frozenset({0}), n_min=0)
    with pytest.raises(DegenerateRatioError):
        HyperTermSpec(step=1, p=Polynomial(), q=n, support=frozenset({0}), n_min=0)
    with pytest.raises(ValueError):
        HyperTermSpec(step=2, p=n, q=n, support=frozenset(), n_min=0)
    with pytest.raises(ValueError):
        HyperTermSpec(step=2, p=n, q=n, support=frozenset({2}), n_min=0)


def test_term_spec_validates_on_every_construction():
    doc = {"step": 3, "p": ["0", "1"], "q": ["0", "1"], "support": [0], "n_min": 0}
    with pytest.raises(ValueError, match="only step-1 and step-2"):
        HyperTermSpec.from_json(json.dumps(doc))
    with pytest.raises(DegenerateRatioError):
        HyperTermSpec.from_json(json.dumps({**doc, "step": 1, "p": []}))
    with pytest.raises(ValueError, match=r"support residues must lie in 0\.\.0"):
        HyperTermSpec.from_json(json.dumps({**doc, "step": 1, "support": [1]}))
    u = builtin_term("u-spec")
    with pytest.raises(ValueError, match=r"support residues must lie in 0\.\.0"):
        u._replace(support=frozenset({1}))
    with pytest.raises(DegenerateRatioError):
        u._replace(q=Polynomial())
    moved = u._replace(q=n - 7)
    assert type(moved) is HyperTermSpec and moved.q_roots == (7,)


def test_term_spec_keeps_q_roots_out_of_equality_and_repr():
    t = HyperTermSpec(1, n, (n - 3) * (n + 2), [0], 1)
    assert t.q_roots == (-2, 3)
    assert t.support == frozenset({0})
    assert t._fields == ("step", "p", "q", "support", "n_min")
    assert t == (1, n, (n - 3) * (n + 2), frozenset({0}), 1)
    assert repr(t) == (
        "HyperTermSpec(step=1, p=Polynomial(['0', '1']), q=Polynomial(['-6', '-1', '1']), "
        "support=frozenset({0}), n_min=1)"
    )
    with pytest.raises(AttributeError):
        t.q_roots = ()
    with pytest.raises(AttributeError):
        del t.q_roots


def _term_json(t: HyperTermSpec) -> str:
    """t as a term file holds it."""
    doc = {"step": t.step, "p": t.p.to_strings(), "q": t.q.to_strings(),
           "support": sorted(t.support), "n_min": t.n_min}
    return json.dumps(doc)


def test_term_spec_json_round_trip():
    for name in ("u-spec", "v-spec"):
        t = builtin_term(name)
        back = HyperTermSpec.from_json(_term_json(t))
        assert (back.step, back.p, back.q, back.support, back.n_min) == (
            t.step, t.p, t.q, t.support, t.n_min,
        )


def test_term_spec_json_clears_rational_coefficients_jointly():
    # p and q take one factor, so p(n) t(n) = q(n) t(n - step) still holds.
    doc = {"step": 1, "p": ["1/2", "3"], "q": ["-7", "4"], "support": [0], "n_min": 1}
    t = HyperTermSpec.from_json(json.dumps(doc))
    assert (t.p, t.q) == (6 * n + 1, 8 * n - 14)
    back = HyperTermSpec.from_json(_term_json(t))
    assert (back.p, back.q) == (t.p, t.q)
    assert t.p.to_strings() == ["1", "6"]
    # An all-integer file reads back unchanged: content is never divided out.
    doc = {"step": 2, "p": ["0", "2"], "q": ["-8", "8"], "support": [0], "n_min": 2}
    t = HyperTermSpec.from_json(json.dumps(doc))
    assert (t.p, t.q) == (2 * n, 8 * n - 8)


def test_reduce_u_part_vanishes_with_degree_bound():
    m = builtin_operator("mathar")
    detail = _reduce_residue(m, builtin_term("u-spec"), 0)
    assert detail.numerator.is_zero
    assert max(term.degree for term in detail.terms) <= 11
    assert len(detail.terms) == 6


def test_reduce_u_part_reproduces_cleared_sum():
    # once the ratio chains are substituted and the denominator product
    # (4n-2)(4n-6)...(4n-18) is cleared, the summand for shift j must be
    # c_j * n(n-1)..(n-j+1) * (remaining denominator factors)
    m = builtin_operator("mathar")
    detail = _reduce_residue(m, builtin_term("u-spec"), 0)
    q_shifts = [4 * n - 2, 4 * n - 6, 4 * n - 10, 4 * n - 14, 4 * n - 18]
    # Every coefficient of mathar is nonzero, so term j is the one for shift j.
    assert len(detail.terms) == 6
    for j, term in enumerate(detail.terms):
        expected = m.coeffs[j]
        for i in range(j):
            expected = expected * (n - i)
        for f in q_shifts[j:]:
            expected = expected * f
        assert term == expected


def test_reduce_v_even_matches_displayed_clearing():
    m = builtin_operator("mathar")
    detail = _reduce_residue(m, builtin_term("v-spec"), 0)
    assert len(detail.terms) == 3
    assert detail.terms[0] == 16 * (n - 1) * (n - 3) * m.coeffs[0]
    assert detail.terms[1] == 4 * (n - 3) * n * m.coeffs[2]
    assert detail.terms[2] == n * (n - 2) * m.coeffs[4]
    assert detail.numerator.is_zero


def test_reduce_v_odd_matches_displayed_clearing():
    m = builtin_operator("mathar")
    detail = _reduce_residue(m, builtin_term("v-spec"), 1)
    assert len(detail.terms) == 3
    assert detail.terms[0] == 16 * (n - 2) * (n - 4) * m.coeffs[1]
    assert detail.terms[1] == 4 * (n - 4) * (n - 1) * m.coeffs[3]
    assert detail.terms[2] == (n - 1) * (n - 3) * m.coeffs[5]
    assert detail.numerator.is_zero


def test_reduce_negative_case_u_op_against_v_spec():
    # on even n only the j=0 term survives, leaving the bare coefficient n
    rep = certify_annihilation(builtin_operator("u-op"), builtin_term("v-spec"))
    assert rep.residues[0].numerator == n


def test_reduce_multi_chain_is_unsupported():
    both = HyperTermSpec(step=2, p=n, q=4 * n - 2, support=frozenset({0, 1}), n_min=2)
    with pytest.raises(UnsupportedChainError):
        _reduce_residue(builtin_operator("mathar"), both, 0)


def test_certify_mathar_u():
    rep = certify_annihilation(builtin_operator("mathar"), builtin_term("u-spec"))
    assert rep.certified
    assert rep.floor <= 6
    assert max(t.degree for r in rep.residues for t in r.terms) <= 11


def test_certify_mathar_v_both_residues():
    rep = certify_annihilation(builtin_operator("mathar"), builtin_term("v-spec"))
    assert rep.certified
    assert len(rep.residues) == 2
    assert all(r.is_zero for r in rep.residues)


def test_certify_elementary_pairs():
    assert certify_annihilation(builtin_operator("u-op"), builtin_term("u-spec")).certified
    assert certify_annihilation(builtin_operator("v-op"), builtin_term("v-spec")).certified


def test_certified_floor_is_consistent_with_numerics():
    pairs = [
        ("mathar", "u-spec", "central-binomial"),
        ("mathar", "v-spec", "aerated-central-binomial"),
        ("u-op", "u-spec", "central-binomial"),
        ("v-op", "v-spec", "aerated-central-binomial"),
    ]
    for op_name, term_name, seq_name in pairs:
        op = builtin_operator(op_name)
        rep = certify_annihilation(op, builtin_term(term_name))
        assert rep.certified
        seq = builtin_sequence(seq_name)
        for i in range(rep.floor, 501):
            assert op.apply(seq, i) == 0, (op_name, term_name, i)


def test_certification_not_fooled_by_wrong_pair():
    rep = certify_annihilation(builtin_operator("u-op"), builtin_term("v-spec"))
    assert not rep.certified


def test_single_mutation_breaks_certification():
    m = builtin_operator("mathar")
    u_spec = builtin_term("u-spec")
    for shift in range(6):
        for power in range(3):
            rep = certify_annihilation(perturbed(m, shift, power), u_spec)
            assert not rep.certified, (shift, power)


def test_mutated_operator_fails_numerically():
    m = builtin_operator("mathar")
    a = builtin_sequence("A032123")
    rep = verify_range(perturbed(m, 0, 0), a, 6, 50)
    assert not rep.passed and rep.witness[0] <= 50


def _scaled_json(op, num, den):
    """An operator file holding op's coefficients times num/den."""
    rows = [[f"{c * num}/{den}" for c in p.coeffs] for p in op.coeffs]
    return json.dumps({"convention": "backward", "order": op.order, "coeffs": rows})


def test_reduce_invariant_under_rational_scaling():
    # scaling the operator cannot change the zero/nonzero classification
    m_scaled = ShiftOperator([c * 5 for c in builtin_operator("mathar").coeffs])
    assert m_scaled == builtin_operator("mathar")
    assert certify_annihilation(m_scaled, builtin_term("u-spec")).residues[0].numerator.is_zero
    m_file = ShiftOperator.from_json(_scaled_json(builtin_operator("mathar"), 5, 3))
    assert m_file == builtin_operator("mathar")
    u_file = ShiftOperator.from_json(_scaled_json(builtin_operator("u-op"), -7, 2))
    out = certify_annihilation(u_file, builtin_term("v-spec")).residues[0].numerator
    assert out == n


def test_cancellation_identities():
    checks = check_cancellation_identities()
    assert all(c.passed for c in checks)
    names = [c.name for c in checks]
    assert names == [
        "even-core-zero",
        "odd-core-zero",
        "even-factorization",
        "odd-factorization",
    ]


def test_combined_certificates_imply_numeric_sweep():
    m = builtin_operator("mathar")
    assert certify_annihilation(m, builtin_term("u-spec")).certified
    assert certify_annihilation(m, builtin_term("v-spec")).certified
    assert verify_range(m, builtin_sequence("A032123"), 6, 2000).passed


def test_term_degree_cap_is_shared_by_reader_and_library():
    top = Polynomial([1] * (MAX_TERM_DEGREE + 1))
    HyperTermSpec(step=1, p=top, q=n, support=frozenset({0}), n_min=1)
    with pytest.raises(ValueError, match="MAX_TERM_DEGREE"):
        HyperTermSpec(step=1, p=n, q=top * n, support=frozenset({0}), n_min=1)
    doc = {"step": 2, "p": ["1"] * (MAX_TERM_DEGREE + 2), "q": ["1"], "support": [0], "n_min": 2}
    with pytest.raises(ValueError, match="MAX_TERM_DEGREE"):
        HyperTermSpec.from_json(json.dumps(doc))


def test_operator_order_cap_admits_every_lclm_order():
    # (1 - S)^(r-1) after u-op still annihilates u: order r = MAX_ORDER_CAP certifies.
    assert MAX_OPERATOR_ORDER >= MAX_ORDER_CAP
    diff = ShiftOperator([Polynomial([1]), Polynomial([-1])])
    op = builtin_operator("u-op")
    while op.order < MAX_OPERATOR_ORDER:
        op = diff * op
    assert certify_annihilation(op, builtin_term("u-spec")).certified
    with pytest.raises(ValueError, match="MAX_OPERATOR_ORDER"):
        certify_annihilation(diff * op, builtin_term("u-spec"))


def _per_shift_floors(op, t):
    """Each residue's floor from the integer roots of q(n - s) for every shift s
    of the rewrite chain: the reference for roots found once per term. The
    contributing shifts, and the lowest of them, the anchor, come from op and t."""
    floors = []
    for residue in range(t.step):
        shifts = [j for j, c in enumerate(op.coeffs)
                  if not c.is_zero and (residue - j) % t.step in t.support]
        anchor = min(shifts, default=0)
        depth = (max(shifts, default=0) - anchor) // t.step
        floor = op.order
        if depth > 0:
            floor = max(floor, t.n_min + anchor + (depth - 1) * t.step)
            for m in range(depth):
                for root in integer_roots(t.q.shifted(-(anchor + m * t.step))):
                    floor = max(floor, root + 1)
        floors.append(floor)
    return floors


def test_floors_match_the_roots_of_each_shifted_q_on_the_builtins():
    for op_name in ("mathar", "u-op", "v-op"):
        for term_name in ("u-spec", "v-spec"):
            op, t = builtin_operator(op_name), builtin_term(term_name)
            rep = certify_annihilation(op, t)
            assert [r.floor for r in rep.residues] == _per_shift_floors(op, t)


# Nonzero polynomials of degree <= 2: the top coefficient is drawn nonzero.
_coeff_polys = st.tuples(st.lists(st.integers(-6, 6), max_size=2), st.integers(1, 6)).map(
    lambda t: Polynomial([*t[0], t[1]])
)
_ops = st.lists(_coeff_polys, min_size=1, max_size=5).map(ShiftOperator)
# Nonnegative coefficients with a positive constant: positive on n >= 0.
_positive_polys = st.tuples(st.integers(1, 6), st.lists(st.integers(0, 6), max_size=2)).map(
    lambda t: Polynomial([t[0], *t[1]])
)


@st.composite
def _specs(draw, invertible=False):
    """A single-chain step-1 or step-2 term; q gets up to two integer roots.

    An invertible term has p and q nonzero from n_min on, so its terms from
    nonzero seeds never vanish.
    """
    step = draw(st.sampled_from([1, 2]))
    n_min = draw(st.integers(2, 4) if invertible else st.integers(0, 4))
    polys = _positive_polys if invertible else _coeff_polys
    q = draw(st.sampled_from([1, -1])) * draw(polys)
    for root in draw(st.lists(st.integers(-5, n_min - 1 if invertible else 12), max_size=2)):
        q = q * (n - root)
    return HyperTermSpec(
        step=step, p=draw(st.sampled_from([1, -1])) * draw(polys), q=q,
        support=frozenset({draw(st.integers(0, step - 1))}), n_min=n_min,
    )


@settings(deadline=None, max_examples=60)
@given(_ops, _specs())
def test_floors_match_the_roots_of_each_shifted_q(op, t):
    rep = certify_annihilation(op, t)
    assert [r.floor for r in rep.residues] == _per_shift_floors(op, t)


class _Term:
    """t with p(n) t(n) = q(n) t(n - step) from n_min on, exact as Fractions.

    Below n_min the support class holds nonzero seeds; off it, t is 0.
    """

    def __init__(self, spec, seeds):
        self.spec, self.seeds, self.memo = spec, seeds, {}

    def term(self, m):
        t = self.spec
        if m < 0 or m % t.step not in t.support:
            return 0
        if m < t.n_min:
            return Fraction(self.seeds[m % len(self.seeds)])
        if m not in self.memo:
            self.memo[m] = Fraction(t.q(m), t.p(m)) * self.term(m - t.step)
        return self.memo[m]


@settings(deadline=None, max_examples=60)
@given(
    _specs(invertible=True),
    _ops,
    st.booleans(),
    st.lists(st.integers(1, 9) | st.integers(-9, -1), min_size=4, max_size=4),
)
def test_certify_agrees_with_numerics(t, op, left_multiple, seeds):
    if left_multiple:  # annihilates t by construction: op * (p - q S^step)
        op = op * ShiftOperator([t.p] + [Polynomial()] * (t.step - 1) + [-t.q])
    rep = certify_annihilation(op, t)
    deg = max((r.numerator.degree for r in rep.residues if not r.is_zero), default=0)
    top = rep.floor + max(20, t.step * (deg + 1))
    s = _Term(t, seeds)
    residuals = [op.apply(s, m) for m in range(rep.floor, top + 1)]
    if rep.certified:
        assert not any(residuals[:21])
    else:
        # A nonzero numerator of degree deg vanishes at most deg times in a class.
        assert any(residuals[: t.step * (deg + 1)])
    assert rep.certified or not left_multiple
