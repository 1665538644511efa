import hashlib
import json
import os
import random
import signal
import threading
import time
from contextlib import contextmanager, nullcontext
from itertools import count, islice
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from recurra import guess, operators, sequences
from recurra.cli import EXIT_PASS, main
from recurra.exact import COEFF_DIGITS, Polynomial, n
from recurra.linalg import nullspace
from recurra.oeis import compare_sequence
from recurra.operators import (
    LclmCapError,
    ShiftOperator,
    builtin_operator,
    lclm,
    unroll,
    verify_range,
)
from recurra.sequences import (
    MAX_INDEX,
    BFileSequence,
    SequenceSource,
    TermRangeError,
    builtin_sequence,
    orbit_count_oracle,
    verify_ogf,
)

A032123_HEAD = [1, 1, 4, 10, 38, 126, 472, 1716, 6470, 24310, 92504, 352716, 1352540]


def test_builtin_names():
    for name in ("mathar", "u-op", "v-op"):
        assert builtin_operator(name).order >= 1
    with pytest.raises(ValueError) as unknown:
        builtin_operator("w-op")
    assert str(unknown.value) == "unknown operator 'w-op'; builtins: mathar, u-op, v-op"


def test_mathar_coefficients():
    m = builtin_operator("mathar")
    assert m.order == 5
    assert m.coeffs[0] == n * (n - 1)
    assert m.coeffs[1] == -2 * (n - 1) * (3 * n - 4)
    assert m.coeffs[2] == 8 * n**2 - 56 * n + 76
    assert m.coeffs[3] == 8 * n**2 + 40 * n - 152
    assert m.coeffs[4] == -16 * (n - 3) * (3 * n - 10)
    assert m.coeffs[5] == 32 * (n - 4) * (2 * n - 9)


def test_u_op_and_v_op_shapes():
    u_op = builtin_operator("u-op")
    assert u_op.order == 1
    assert u_op.coeffs[0] == n
    assert u_op.coeffs[1] == -(4 * n - 2)
    v_op = builtin_operator("v-op")
    assert v_op.order == 2
    assert v_op.coeffs[1].is_zero
    assert v_op.coeffs[2] == -4 * (n - 1)


def test_operator_requires_nonzero_ends():
    with pytest.raises(ValueError):
        ShiftOperator([Polynomial(), n])
    with pytest.raises(ValueError):
        ShiftOperator([n, Polynomial()])


def test_operator_normalization_is_canonical():
    scaled = ShiftOperator([n * -21, (4 * n - 2) * 21])
    assert scaled == builtin_operator("u-op")
    # Rational coefficients in a file are cleared jointly on reading.
    doc = {"convention": "backward", "order": 1, "coeffs": [["0", "-3/7"], ["-6/7", "12/7"]]}
    assert ShiftOperator.from_json(json.dumps(doc)) == builtin_operator("u-op")


def test_apply_at_mathar_direct_arithmetic():
    # direct evaluation with the catalogued terms:
    # 30*472 - 140*126 + 28*38 + 376*10 - 384*4 + 192*1
    weights = [30, -140, 28, 376, -384, 192]
    direct = sum(w * A032123_HEAD[6 - j] for j, w in enumerate(weights))
    assert direct == 0
    assert builtin_operator("mathar").apply(builtin_sequence("A032123"), 6) == direct


def test_apply_at_u_op_on_central_binomial():
    # 10*C(20,10) - 38*C(18,9) = 10*184756 - 38*48620
    assert 10 * 184756 - 38 * 48620 == 0
    assert builtin_operator("u-op").apply(builtin_sequence("central-binomial"), 10) == 0


def test_apply_at_below_claimed_range_returns_residual():
    # no error and no zero claim at n = 5; the value is whatever it is
    value = builtin_operator("mathar").apply(builtin_sequence("A032123"), 5)
    assert isinstance(value, int)


def test_apply_at_needs_order_terms():
    with pytest.raises(ValueError):
        builtin_operator("mathar").apply(builtin_sequence("A032123"), 4)


def test_apply_at_propagates_term_range():
    short = BFileSequence("short", 0, [1, 1, 4])
    with pytest.raises(TermRangeError):
        builtin_operator("mathar").apply(short, 6)


def test_apply_reads_no_term_where_its_coefficient_vanishes():
    op = ShiftOperator([Polynomial([1]), n - 10])  # a(n) + (n - 10) a(n - 1)
    from_10 = BFileSequence("from 10", 10, [5, 7])
    assert op.apply(from_10, 10) == 5  # a(9), which is not there, is not read
    assert op.apply(from_10, 11) == 7 + 1 * 5


def test_verify_range_past_the_source_is_refused_before_any_read():
    wrong = BFileSequence("wrong", 0, [1, 2, 3])  # u-op leaves a residual at n = 1
    with pytest.raises(TermRangeError, match="n=3 "):
        verify_range(builtin_operator("u-op"), wrong, 1, 3)
    with pytest.raises(TermRangeError, match=f"n={MAX_INDEX + 1} "):
        verify_range(builtin_operator("mathar"), builtin_sequence("A032123"), 6, MAX_INDEX + 1)


def test_verify_range_refuses_an_order_over_the_cap_before_any_read():
    drawn = []

    def run(n):
        for m in count(n):
            drawn.append(m)
            yield 0

    zero, cap = SequenceSource("zero", run, 0, MAX_INDEX), operators.MAX_VERIFY_ORDER
    shift = ShiftOperator([1] + [0] * (cap - 1) + [1])
    assert shift.order == cap == 31
    assert verify_range(shift, zero, cap, 2 * cap + 2).passed
    drawn.clear()
    deep = ShiftOperator([1] + [0] * 26 + [1]) * builtin_operator("mathar")
    assert deep.order == cap + 1
    with pytest.raises(ValueError, match=f"order {cap + 1} is over the cap "
                                         f"MAX_VERIFY_ORDER = {cap}$"):
        verify_range(deep, zero, cap + 1, MAX_INDEX)
    assert drawn == []


def test_unroll_from_a_wrong_seed_raises_at_the_first_non_integral_step():
    u_op = builtin_operator("u-op")
    run = unroll(u_op, 2, [1])  # u(3) = 10 * u(2) / 3
    assert next(run) == 1
    with pytest.raises(AssertionError, match=r"n=3\b"):
        next(run)
    assert list(islice(unroll(u_op, 2, [6]), 4)) == [6, 20, 70, 252]


def test_verify_range_passes():
    rep = verify_range(builtin_operator("u-op"), builtin_sequence("central-binomial"), 1, 200)
    assert rep.passed and rep.witness is None
    rep = verify_range(
        builtin_operator("v-op"), builtin_sequence("aerated-central-binomial"), 2, 200
    )
    assert rep.passed


def test_verify_range_reports_first_failure():
    # 2*a(2) - 6*a(1) = 8 - 6 = 2
    rep = verify_range(builtin_operator("u-op"), builtin_sequence("A032123"), 2, 10)
    assert not rep.passed
    assert rep.witness == (2, 2)


def test_verify_range_validates_bounds():
    u_op = builtin_operator("u-op")
    with pytest.raises(ValueError):
        verify_range(u_op, builtin_sequence("A032123"), 0, 10)
    with pytest.raises(ValueError):
        verify_range(u_op, builtin_sequence("A032123"), 5, 4)


def test_apply_linear_in_sequence():
    rng = random.Random(7)
    u_op = builtin_operator("u-op")
    s_vals = [rng.randint(-99, 99) for _ in range(12)]
    t_vals = [rng.randint(-99, 99) for _ in range(12)]
    s = BFileSequence("s", 0, s_vals)
    t = BFileSequence("t", 0, t_vals)
    st = BFileSequence("s+t", 0, [a + b for a, b in zip(s_vals, t_vals)])
    for i in range(1, 12):
        assert u_op.apply(st, i) == u_op.apply(s, i) + u_op.apply(t, i)


def test_identity_is_neutral_for_mul():
    ident = ShiftOperator([Polynomial([1])])
    m = builtin_operator("mathar")
    assert ident * m == m
    assert m * ident == m


def test_operator_mul_order_adds():
    rng = random.Random(8)
    for _ in range(20):
        a = ShiftOperator(
            [Polynomial([rng.randint(1, 5)]) + rng.randint(0, 3) * n
             for _ in range(rng.randint(2, 4))]
        )
        b = ShiftOperator(
            [Polynomial([rng.randint(1, 5)]) + rng.randint(0, 3) * n
             for _ in range(rng.randint(2, 4))]
        )
        assert (a * b).order == a.order + b.order


def test_left_multiple_annihilates():
    # (A*B) kills anything B kills, on the shifted validity range
    rng = random.Random(9)
    u_op = builtin_operator("u-op")
    u = builtin_sequence("central-binomial")
    for _ in range(10):
        a = ShiftOperator([1 + rng.randint(0, 2) * n, Polynomial([rng.randint(1, 4)])])
        prod = a * u_op
        rep = verify_range(prod, u, 1 + a.order, 60)
        assert rep.passed


def test_serialization_round_trip():
    for name in ("mathar", "u-op", "v-op"):
        op = builtin_operator(name)
        assert ShiftOperator.from_json(op.to_json()) == op


def test_u_op_file_format_exact():
    doc = json.loads(builtin_operator("u-op").to_json())
    assert doc == {
        "convention": "backward",
        "order": 1,
        "coeffs": [["0", "1"], ["2", "-4"]],
    }


def test_from_json_converts_forward_convention():
    # (n+1)a(n+1) - (4n+2)a(n) = 0 is the 1-step ratio written forward;
    # substituting n -> n-1 recovers the backward builtin
    doc = {"convention": "forward", "order": 1, "coeffs": [["-2", "-4"], ["1", "1"]]}
    assert ShiftOperator.from_json(json.dumps(doc)) == builtin_operator("u-op")
    doc["coeffs"] = [["-1", "-2"], ["1/2", "0.5"]]  # the same, halved
    assert ShiftOperator.from_json(json.dumps(doc)) == builtin_operator("u-op")


def test_from_json_rejects_unknown_convention():
    doc = {"convention": "sideways", "order": 0, "coeffs": [["1"]]}
    with pytest.raises(ValueError, match="backward or forward"):
        ShiftOperator.from_json(json.dumps(doc))


def test_lclm_with_self():
    u_op = builtin_operator("u-op")
    assert lclm(u_op, u_op)[0] == u_op


def test_lclm_u_v_order_bound():
    L, _, _ = lclm(builtin_operator("u-op"), builtin_operator("v-op"))
    assert L.order <= 3


def test_lclm_cofactor_residuals_vanish_symbolically():
    u_op, v_op = builtin_operator("u-op"), builtin_operator("v-op")
    L, P, Q = lclm(u_op, v_op)
    assert P * u_op == L
    assert Q * v_op == L


def test_lclm_annihilates_a032123():
    L, _, _ = lclm(builtin_operator("u-op"), builtin_operator("v-op"))
    rep = verify_range(L, builtin_sequence("A032123"), 3, 2000)
    assert rep.passed


def test_lclm_caps_exceeded_is_explicit():
    u_op, v_op = builtin_operator("u-op"), builtin_operator("v-op")
    with pytest.raises(LclmCapError, match="cap"):
        lclm(u_op, v_op, order_cap=2, degree_cap=2)


def test_lclm_skips_an_order_of_full_rank_without_solving_it(monkeypatch):
    # Degree-12 coefficients leave every system at the defaults of full column
    # rank, so no order needs a nullspace before the search fails.
    rng = random.Random(5)
    b = ShiftOperator([Polynomial([rng.randint(1, 511) for _ in range(13)]) for _ in range(2)])
    monkeypatch.setattr(operators, "nullspace", lambda *args, **kwargs: pytest.fail("solved"))
    with pytest.raises(LclmCapError, match="order_cap=8, degree_cap=10"):
        lclm(builtin_operator("u-op"), b)


def _count_lclm_systems(monkeypatch):
    """The (order, degree) of every LCLM system built from here on."""
    built, build = [], operators._lclm_system

    def counting(a, b, order, degree):
        built.append((order, degree))
        return build(a, b, order, degree)

    monkeypatch.setattr(operators, "_lclm_system", counting)
    return built


def test_lclm_builds_each_system_once(monkeypatch):
    # At degree_cap=1 every order's top is 1; order 5's bound admits only
    # degree 1, whose system is the one the bound was taken from.
    built = _count_lclm_systems(monkeypatch)
    L, _, _ = lclm(builtin_operator("u-op"), builtin_operator("v-op"), degree_cap=1)
    assert L.order == 5
    assert built == [(2, 1), (3, 1), (4, 1), (5, 1)]


def test_lclm_bits_cap_ends_the_search_after_the_last_admitted_degree(monkeypatch):
    # u-op and n*a(n) + 2^17489*a(n-1) hold 8 and 17,492 coefficient bits, so
    # order 1 takes 17,500 bits a degree: its top is 3, its probe there is
    # empty, and degree 4 is over the cap, so the search stops before order 2.
    built = _count_lclm_systems(monkeypatch)
    b = ShiftOperator([Polynomial([0, 1]), Polynomial([1 << 17489])])
    with pytest.raises(ValueError) as info:
        lclm(builtin_operator("u-op"), b)
    assert str(info.value) == (
        "the LCLM system at order=1, degree=4 is built from 87500 coefficient bits, "
        "over the cap MAX_LCLM_BITS = 70000"
    )
    assert built == [(1, 3)]


def test_lclm_deterministic():
    u_op, v_op = builtin_operator("u-op"), builtin_operator("v-op")
    assert lclm(u_op, v_op) == lclm(u_op, v_op)


def test_half_sum_identity_to_5000():
    a = builtin_sequence("A032123")
    u = builtin_sequence("central-binomial")
    v = builtin_sequence("aerated-central-binomial")
    for ai, ui, vi in zip(a.terms(0, 5000), u.terms(0, 5000), v.terms(0, 5000)):
        assert 2 * ai == ui + vi


def test_mathar_annihilates_each_summand_separately():
    # the order-5 operator kills u and v individually, which is why it
    # kills their half-sum
    m = builtin_operator("mathar")
    assert verify_range(m, builtin_sequence("central-binomial"), 6, 300).passed
    assert verify_range(m, builtin_sequence("aerated-central-binomial"), 6, 300).passed


def test_mathar_annihilates_oracle_terms():
    # independent cross-check: terms recomputed by counting reversal orbits
    oracle = BFileSequence("A032123-oracle", 0, [orbit_count_oracle(2 * k, k) for k in range(13)])
    rep = verify_range(builtin_operator("mathar"), oracle, 6, oracle.max_index)
    assert rep.passed


# -- a long sweep in two shards -------------------------------------------------


@pytest.fixture
def forks(monkeypatch):
    """Two usable CPUs; the pids forked and the signals sent, as the parent sees them."""
    seen = SimpleNamespace(pids=[], kills=[])
    fork, kill = os.fork, os.kill

    def counted_fork():
        pid = fork()
        if pid:
            seen.pids.append(pid)
        return pid

    def counted_kill(pid, signum):
        seen.kills.append((pid, signum))
        kill(pid, signum)

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(os, "kill", counted_kill)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return seen


def _sweeps(monkeypatch, op, make_source, n_from, n_to):
    """verify_range in one process, then split between two, each on a fresh source."""
    checks = []
    for shard_min in (10**9, 16):
        monkeypatch.setattr(operators, "SHARD_MIN", shard_min)
        checks.append(verify_range(op, make_source(), n_from, n_to))
    return checks


def _nothing_left(forks):
    """No child is left unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _a032123_with(wrong):
    """A032123 on 0..400 as a b-file, one more than it should be at each index in ``wrong``."""
    terms = builtin_sequence("A032123").terms(0, 400)
    return lambda: BFileSequence("A032123", 0, [t + (i in wrong) for i, t in enumerate(terms)])


def test_a_sharded_sweep_passes_as_a_serial_one(monkeypatch, forks):
    # 6..400 splits at isqrt((36 + 160000) / 2) = 282; the child seeds its
    # builtin source at 277 from binomial_summand.
    serial, sharded = _sweeps(monkeypatch, builtin_operator("mathar"),
                              lambda: builtin_sequence("A032123"), 6, 400)
    assert serial == sharded
    assert sharded.passed and sharded.detail == "all residuals zero on 6..400"
    assert len(forks.pids) == 1
    assert forks.kills == []  # the child was reaped, and its pid may be another's now
    _nothing_left(forks)


def test_a_shard_reads_each_of_its_terms_once(monkeypatch, forks):
    reads, a032123 = [], builtin_sequence("A032123")
    run = a032123.run

    def counted(n):  # the indices of the values a run yields
        for i, value in zip(count(n), run(n)):
            reads.append(i)
            yield value

    a032123.run = counted
    monkeypatch.setattr(operators, "SHARD_MIN", 16)
    assert verify_range(builtin_operator("mathar"), a032123, 6, 400).passed
    assert reads == list(range(1, 282))  # this process's shard, 6..281; the child's is unseen
    _nothing_left(forks)


@pytest.mark.parametrize("wrong, first", [({100}, 100), ({281}, 281), ({282}, 282),
                                          ({330}, 330), ({100, 330}, 100)])
def test_a_sharded_sweep_reports_the_first_failure_as_a_serial_one(
    monkeypatch, forks, wrong, first
):
    # In the lower shard, 6..281, in the upper one, 282..400, and in both.
    mathar = builtin_operator("mathar")
    make = _a032123_with(wrong)
    serial, sharded = _sweeps(monkeypatch, mathar, make, 6, 400)
    assert serial == sharded
    assert sharded.witness == (first, mathar.apply(make(), first)) and sharded.witness[1]
    assert sharded.detail == f"residual {sharded.witness[1]} at n={first}"
    assert len(forks.pids) == 1
    # Only a lower-shard failure returns before the child is reaped, so only
    # then is it killed.
    assert forks.kills == ([(forks.pids[0], signal.SIGKILL)] if first < 282 else [])
    _nothing_left(forks)


def _zeros_until(bad, error):
    """A zero sequence whose run raises ``error`` as it reaches index ``bad``."""
    def run(n):
        for m in count(n):
            if m == bad:
                raise error
            yield 0

    return lambda: SequenceSource("zeros", run, 0, MAX_INDEX)


@pytest.mark.parametrize("bad", [100, 330])
def test_a_sharded_sweep_raises_as_a_serial_one(monkeypatch, forks, bad):
    raised = []
    for shard_min in (10**9, 16):
        monkeypatch.setattr(operators, "SHARD_MIN", shard_min)
        with pytest.raises(ValueError) as info:
            verify_range(builtin_operator("u-op"),
                         _zeros_until(bad, ValueError(f"no term at n={bad}"))(), 1, 400)
        raised.append((type(info.value), str(info.value)))
    assert raised[0] == raised[1] == (ValueError, f"no term at n={bad}")
    assert len(forks.pids) == 1
    _nothing_left(forks)


def test_a_child_that_dies_has_its_shard_swept_again(monkeypatch, forks):
    parent = os.getpid()

    def run(n):  # zero but for a 1 at 350; a forked child is killed at 330
        for m in count(n):
            if m == 330 and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            yield int(m == 350)

    serial, sharded = _sweeps(monkeypatch, builtin_operator("u-op"),
                              lambda: SequenceSource("dies", run, 0, MAX_INDEX), 1, 400)
    assert serial == sharded
    assert sharded.witness == (350, 350)
    assert len(forks.pids) == 1
    _nothing_left(forks)


def test_an_interrupted_sharded_sweep_leaves_no_child(monkeypatch, forks):
    monkeypatch.setattr(operators, "SHARD_MIN", 16)
    with pytest.raises(KeyboardInterrupt):
        verify_range(builtin_operator("u-op"), _zeros_until(100, KeyboardInterrupt())(), 1, 400)
    assert len(forks.pids) == 1
    _nothing_left(forks)


def test_an_interrupt_while_waiting_for_the_child_kills_it(monkeypatch, forks):
    def run(n):  # only the child reads index 301, where it stalls
        for m in count(n):
            if m == 301:
                time.sleep(60)
            yield 0

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    monkeypatch.setattr(operators, "SHARD_MIN", 16)
    previous = signal.signal(signal.SIGALRM, interrupt)
    start = time.monotonic()
    signal.setitimer(signal.ITIMER_REAL, 0.5)
    try:
        with pytest.raises(KeyboardInterrupt):
            verify_range(builtin_operator("u-op"), SequenceSource("stall", run, 0, MAX_INDEX),
                         1, 400)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 10
    assert len(forks.pids) == 1
    _nothing_left(forks)


def test_a_sweep_that_cannot_fork_runs_in_one_process(monkeypatch, forks):
    def no_process():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_process)
    monkeypatch.setattr(operators, "SHARD_MIN", 16)
    assert verify_range(builtin_operator("mathar"), builtin_sequence("A032123"), 6, 400).passed
    _nothing_left(forks)


def test_no_fork_while_a_second_thread_is_alive(monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(operators, "SHARD_MIN", 16)
    mathar = builtin_operator("mathar")
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert verify_range(mathar, builtin_sequence("A032123"), 6, 400).passed
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    with pytest.raises(AssertionError, match="forked"):  # alone again, it would fork
        verify_range(mathar, builtin_sequence("A032123"), 6, 400)


def test_no_fork_while_sigchld_is_ignored(monkeypatch):
    # The kernel would reap the child itself, and waitpid find none.
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(operators, "SHARD_MIN", 16)
    mathar = builtin_operator("mathar")
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        assert verify_range(mathar, builtin_sequence("A032123"), 6, 400).passed
    finally:
        signal.signal(signal.SIGCHLD, previous)
    with pytest.raises(AssertionError, match="forked"):  # with SIGCHLD back, it would fork
        verify_range(mathar, builtin_sequence("A032123"), 6, 400)


@pytest.fixture
def window_reads(monkeypatch):
    """The names of the ``ShiftOperator.apply`` and ``SequenceSource.term`` calls made."""
    calls = []
    for cls, name in ((ShiftOperator, "apply"), (SequenceSource, "term")):
        def counted(self, *args, _read=getattr(cls, name), _name=name):
            calls.append(_name)
            return _read(self, *args)

        monkeypatch.setattr(cls, name, counted)
    return calls


@contextmanager
def _second_thread():
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


@contextmanager
def _sigchld_ignored():
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        yield
    finally:
        signal.signal(signal.SIGCHLD, previous)


def _failed_fork():
    raise BlockingIOError(11, "Resource temporarily unavailable")


@pytest.mark.parametrize("why", ["one CPU", "no os.fork", "a failed fork", "a second thread",
                                 "SIGCHLD ignored"])
def test_a_long_sweep_in_one_process_streams(monkeypatch, forks, window_reads, why):
    monkeypatch.setattr(operators, "SHARD_MIN", 16)
    context = nullcontext()
    if why == "one CPU":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    elif why == "no os.fork":
        monkeypatch.delattr(os, "fork")
    elif why == "a failed fork":
        monkeypatch.setattr(os, "fork", _failed_fork)
    else:
        context = _second_thread() if why == "a second thread" else _sigchld_ignored()
    mathar, wrong = builtin_operator("mathar"), _a032123_with({330})()
    with context:
        passed = verify_range(mathar, builtin_sequence("A032123"), 6, 400)
        failed = verify_range(mathar, wrong, 6, 400)
    assert passed.passed and failed.witness[0] == 330
    assert window_reads == []
    assert forks.pids == []
    _nothing_left(forks)


def test_the_shard_of_a_child_that_dies_is_streamed_again(monkeypatch, forks, window_reads):
    parent = os.getpid()

    def run(n):  # zero but for a 1 at 350; a forked child is killed at 330
        for m in count(n):
            if m == 330 and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            yield int(m == 350)

    monkeypatch.setattr(operators, "SHARD_MIN", 16)
    check = verify_range(builtin_operator("u-op"), SequenceSource("dies", run, 0, MAX_INDEX),
                         1, 400)
    assert check.witness == (350, 350)
    assert window_reads == []
    assert len(forks.pids) == 1
    _nothing_left(forks)


def _counted(run, starts):
    """``run``, appending the index of each run it starts to ``starts``."""
    def counted(n):
        starts.append(n)
        return run(n)

    return counted


def _runs_counted(s, starts):
    s.run = _counted(s.run, starts)
    return s


def _read_in_order(reader, monkeypatch, starts):
    """Run one in-order reader of A032123, its runs counted in ``starts``."""
    first, run = sequences._BUILTINS["A032123"]
    monkeypatch.setitem(sequences._BUILTINS, "A032123", (first, _counted(run, starts)))
    mathar, a = builtin_operator("mathar"), builtin_sequence("A032123")
    if reader == "short verify_range":
        assert verify_range(mathar, a, 6, 400).passed
    elif reader == "long verify_range, one process":
        monkeypatch.setattr(operators, "SHARD_MIN", 16)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert verify_range(mathar, a, 6, 400).passed
    elif reader == "verify_ogf":
        assert verify_ogf(50).passed
    elif reader == "compare_sequence":
        head = _runs_counted(BFileSequence("A032123", 0, A032123_HEAD), starts)
        assert compare_sequence(a, head, 0, 12).passed
    elif reader == "gen":
        assert main(["gen", "A032123", "--from", "3", "--to", "40"]) == EXIT_PASS
    elif reader == "terms":
        assert a.terms(3, 40)[:3] == A032123_HEAD[3:6]
    else:  # guess's holdout, on the one candidate u-op
        monkeypatch.setattr(guess, "BFileSequence",
                            lambda *args: _runs_counted(BFileSequence(*args), starts))
        u = builtin_sequence("central-binomial").terms(0, 40)
        assert guess.guess_recurrence(u, 1, 1).verified == (builtin_operator("u-op"),)


#: Each in-order reader, and the first index of each run it starts.
_RUNS = {
    "short verify_range": [1],
    "long verify_range, one process": [1],
    "verify_ogf": [0],
    "compare_sequence": [0, 0],
    "gen": [3],
    "terms": [3],
    "guess's holdout": [30],
}


@pytest.mark.parametrize("reader", _RUNS)
def test_each_in_order_reader_reads_one_run(monkeypatch, capsys, window_reads, reader):
    starts = []
    _read_in_order(reader, monkeypatch, starts)
    assert starts == _RUNS[reader]
    assert window_reads == []


def test_verify_range_refuses_a_degree_over_the_cap_before_any_read():
    drawn = []

    def run(n):
        for m in count(n):
            drawn.append(m)
            yield 1

    ones, cap = SequenceSource("ones", run, 0, MAX_INDEX), operators.MAX_VERIFY_DEGREE
    assert verify_range(ShiftOperator([n**cap, -n**cap]), ones, 1, 10).passed
    drawn.clear()
    with pytest.raises(ValueError, match=f"degree {cap + 1}, over the cap "
                                         f"MAX_VERIFY_DEGREE = {cap}$"):
        verify_range(ShiftOperator([n ** (cap + 1), -n ** (cap + 1)]), ones, 1, 10)
    assert drawn == []


def test_the_verify_degree_cap_admits_every_guess():
    # guess's highest degree comes at order 1, its least: (1 + 1)(degree + 1) unknowns.
    assert guess.MAX_UNKNOWNS // 2 - 1 <= operators.MAX_VERIFY_DEGREE


_scalars = st.integers(-20, 20)
_nonzero = st.one_of(st.integers(1, 5), st.integers(-5, -1))
# c_0 and the top coefficient get a nonzero leading term, so no draw is rejected.
_end_polys = st.tuples(st.lists(_scalars, max_size=2), _nonzero).map(
    lambda t: Polynomial([*t[0], t[1]])
)
_operators = st.tuples(
    _end_polys, st.lists(st.lists(_scalars, max_size=3).map(Polynomial), max_size=1), _end_polys
).map(lambda t: ShiftOperator([t[0], *t[1], t[2]]))


def _all_int(op):
    return all(type(c) is int for p in op.coeffs for c in p.coeffs)


# Zeros, then a few small terms: a sweep from inside the zeros fails late or passes.
_bfiles = st.tuples(st.integers(0, 20), st.lists(st.integers(-3, 3), min_size=1, max_size=6)).map(
    lambda t: [0] * t[0] + t[1]
)


@settings(deadline=None)
@given(_operators, _bfiles, st.data())
def test_the_witness_is_the_first_index_where_apply_is_not_zero(op, values, data):
    # The per-index reference: apply, reading each term by index.
    assume(len(values) > op.order)
    s = BFileSequence("s", 0, values)
    n_from = data.draw(st.integers(op.order, len(values) - 1))
    n_to = data.draw(st.integers(n_from, len(values) - 1))
    residuals = ((i, op.apply(s, i)) for i in range(n_from, n_to + 1))
    assert verify_range(op, s, n_from, n_to).witness == next(
        ((i, r) for i, r in residuals if r), None)


@settings(deadline=None)
@given(_operators, _operators, _operators)
def test_operator_mul_is_associative(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert all(map(_all_int, (a, b, c, a * b, (a * b) * c)))


@settings(max_examples=20, deadline=None)
@given(_operators, _operators)
def test_lclm_cofactor_identity(a, b):
    # Orders <= 2 and degrees <= 2: at order 4 and cofactor degree 10 the
    # system has 66 unknowns and 65 equations, so the default caps always hold.
    L, P, Q = lclm(a, b)
    assert P * a == L == Q * b
    assert max(a.order, b.order) <= L.order <= a.order + b.order


def _lclm_by_every_degree(a, b, order_cap, degree_cap):
    """The reference search: every (order, degree) solved in order, none skipped."""
    for order in range(max(a.order, b.order), order_cap + 1):
        for degree in range(degree_cap + 1):
            rows, ncols = operators._lclm_system(a, b, order, degree)
            found = operators._lclm_pick(a, order, degree, nullspace(rows, ncols=ncols))
            if found is not None:
                return found
    raise LclmCapError(
        f"no common left multiple within order_cap={order_cap}, degree_cap={degree_cap}"
    )


def _lclm_outcome(search, a, b):
    try:
        return search(a, b, 4, 6)
    except LclmCapError as e:
        return str(e)


@settings(deadline=None)
@given(_operators, _operators)
def test_lclm_degree_window_matches_the_search_of_every_degree(a, b):
    # The search starts each order at the degree its nullity bound allows;
    # the degrees it skips have empty kernels, so it finds what solving every
    # degree finds, or fails the same way.
    assert _lclm_outcome(lclm, a, b) == _lclm_outcome(_lclm_by_every_degree, a, b)


def test_order_6_lclm_and_its_cofactors_are_pinned():
    u, v = builtin_operator("u-op"), builtin_operator("v-op")
    found = lclm(u * v, v * u)
    assert found == _lclm_by_every_degree(u * v, v * u, 8, 10)
    assert found[0].order == 6
    text = "".join(op.to_json() for op in found)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "e96ebeeff6c2689e282d0b0709d30075f15edc91cce6c8f3c2afedfb5454f9b9"
    )


class _Applied:
    """The sequence m -> op.apply(s, m), read through ``term`` like a source."""

    def __init__(self, op, s):
        self.op, self.s = op, s

    def term(self, m):
        return self.op.apply(self.s, m)


@settings(deadline=None)
@given(
    _operators,
    _operators,
    st.lists(st.integers(-(10**6), 10**6), min_size=12, max_size=12),
    st.integers(4, 11),
)
def test_product_applies_as_composition(p, q, values, at):
    # p and q are primitive with c_0's lead positive, so by Gauss's lemma their
    # composition already is too: normalizing p * q does not rescale it.
    s = BFileSequence("s", 0, values)
    assert (p * q).apply(s, at) == p.apply(_Applied(q, s), at)


def test_json_round_trip_of_long_coefficients():
    # 4000 digits: written in full, and still under the int parsing cap on reading
    big = ShiftOperator([n + 10**3999, Polynomial([-7, 3 * 10**3999])])
    text = big.to_json()
    assert f'"{10**3999}"' in text
    assert ShiftOperator.from_json(text) == big
    assert repr(big).startswith("ShiftOperator(order=1")


def test_json_round_trip_past_the_int_str_digit_cap():
    big = ShiftOperator([n + 10**6000, Polynomial([-7, 3 * 10**5999])])
    assert ShiftOperator.from_json(big.to_json()) == big


def test_json_integer_literals_read_like_coefficient_text():
    # A bare JSON integer goes through the same reader and cap as a string.
    text = '{"convention": "backward", "order": 1, "coeffs": [[%s, 1], [2, -4]]}'
    op = ShiftOperator.from_json(text % ("1" + "0" * 5000))
    assert op.coeffs[0] == n + 10**5000
    with pytest.raises(ValueError, match="COEFF_DIGITS"):
        ShiftOperator.from_json(text % ("1" * (COEFF_DIGITS + 1)))


@settings(deadline=None)
@given(_operators)
def test_json_round_trip(op):
    assert ShiftOperator.from_json(op.to_json()) == op
