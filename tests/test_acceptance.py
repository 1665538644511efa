"""Acceptance suite: one test per release criterion, exact tolerances.

Every check is exact-arithmetic (tolerance zero); each criterion also
carries a wall-clock budget. One PASS/FAIL line per criterion is printed
so `pytest -s tests/test_acceptance.py` doubles as a report.
"""
import math
import time
from contextlib import contextmanager

from recurra.certify import (
    builtin_term,
    certify_annihilation,
    check_cancellation_identities,
    perturbed,
)
from recurra.cli import main
from recurra.guess import guess_recurrence, minimal_guess
from recurra.oeis import bundled_a032123, compare_sequence
from recurra.operators import (
    builtin_operator,
    lclm,
    verify_range,
)
from recurra.sequences import (
    BFileSequence,
    builtin_sequence,
    orbit_count_oracle,
    verify_ogf,
)

A032123_HEAD = [1, 1, 4, 10, 38, 126, 472, 1716, 6470, 24310, 92504, 352716, 1352540]


@contextmanager
def criterion(number: int, budget_seconds: float, label: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} FAIL  {label}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} exceeded its {budget_seconds}s budget: {elapsed:.2f}s"
    )
    print(f"criterion {number:02d} PASS  {label} ({elapsed:.3f}s)")


def test_criterion_01_closed_form_matches_catalogued_terms(capsys):
    with criterion(1, 0.1, "gen A032123 0..12 reproduces the 13 catalogued terms"):
        code = main(["gen", "A032123", "--from", "0", "--to", "12"])
        out = capsys.readouterr().out
        assert code == 0
        assert [int(x) for x in out.split()] == A032123_HEAD


def test_criterion_02_closed_form_vs_bfile_fixture():
    with criterion(2, 0.1, "closed form equals the b-file fixture on 0..19"):
        rep = compare_sequence(builtin_sequence("A032123"), bundled_a032123(), 0, 19)
        assert rep.passed


def test_criterion_03_oracle_equivalence():
    with criterion(3, 60.0, "orbit-enumeration oracle agrees with both closed forms"):
        for k in range(13):
            assert builtin_sequence("A032123").term(k) == orbit_count_oracle(2 * k, k)
        for k in range(1, 17):
            assert builtin_sequence("A005418").term(k) == orbit_count_oracle(k)


def test_criterion_04_elementary_recurrences():
    with criterion(4, 0.5, "1-step and 2-step recurrences annihilate u and v to 200"):
        # Closed forms, not the builtin sources, which unroll these operators.
        u = BFileSequence("u", 0, [math.comb(2 * k, k) for k in range(201)])
        v = BFileSequence("v", 0, [0 if k % 2 else math.comb(k, k // 2) for k in range(201)])
        u_rep = verify_range(builtin_operator("u-op"), u, 1, 200)
        v_rep = verify_range(builtin_operator("v-op"), v, 2, 200)
        assert u_rep.passed
        assert v_rep.passed


def test_criterion_05_symbolic_certification():
    with criterion(5, 1.0, "symbolic certificates plus transcription identities"):
        m = builtin_operator("mathar")
        u_rep = certify_annihilation(m, builtin_term("u-spec"))
        v_rep = certify_annihilation(m, builtin_term("v-spec"))
        assert u_rep.certified
        assert v_rep.certified
        # formal degree of the cleared u-part, before cancellation
        assert max(t.degree for r in u_rep.residues for t in r.terms) <= 11
        assert all(c.passed for c in check_cancellation_identities())


def test_criterion_06_numeric_sweep_to_5000():
    with criterion(6, 30.0, "order-5 recurrence annihilates A032123 on 6..5000"):
        rep = verify_range(builtin_operator("mathar"), builtin_sequence("A032123"), 6, 5000)
        assert rep.passed


def test_criterion_07_lclm_bound():
    with criterion(7, 10.0, "LCLM of the 1-step and 2-step operators is 3-step"):
        u_op, v_op = builtin_operator("u-op"), builtin_operator("v-op")
        L, P, Q = lclm(u_op, v_op)
        assert L.order <= 3
        assert P * u_op == L  # cofactor residuals vanish symbolically
        assert Q * v_op == L
        assert verify_range(L, builtin_sequence("A032123"), 3, 2000).passed


def test_criterion_08_guessing_round_trip():
    with criterion(8, 30.0, "guessing recovers u-op and an order-<=3 annihilator"):
        u = builtin_sequence("central-binomial")
        result = guess_recurrence(u.terms(0, 40), 1, 1)
        assert result.verified == (builtin_operator("u-op"),)

        a = builtin_sequence("A032123")
        op = minimal_guess(a.terms(0, 79), max_order=5, max_degree=4)
        assert op.order <= 3
        assert verify_range(op, a, max(op.order, 6), 2000).passed


def test_criterion_09_mutation_soundness():
    with criterion(9, 60.0, "every +1 coefficient perturbation is caught twice over"):
        m = builtin_operator("mathar")
        u_spec = builtin_term("u-spec")
        a = builtin_sequence("A032123")
        slots = [(shift, power) for shift in range(6) for power in range(3)]
        assert len(slots) == 18
        for shift, power in slots:
            mutated = perturbed(m, shift, power)
            assert not certify_annihilation(mutated, u_spec).certified, (shift, power)
            numeric = verify_range(mutated, a, 6, 50)
            assert not numeric.passed and numeric.witness[0] <= 50, (shift, power)


def test_criterion_10_ogf_identity():
    with criterion(10, 2.0, "series half-sum matches the closed form through n=50"):
        rep = verify_ogf(50)
        assert rep.passed
