"""Backward shift-operator algebra over polynomial coefficients.

An operator of order r maps a sequence a to n -> sum_j c_j(n) * a(n - j),
j = 0..r. Operators are immutable and always held in normalized form:
integer coefficients, joint content 1, positive leading coefficient on c_0.
A file's rational coefficients are cleared jointly as it is read.

Builtin operators (exact names):

* ``mathar``  the conjectured order-5 annihilator of A032123
* ``u-op``    n*a(n) - (4n-2)*a(n-1)
* ``v-op``    n*a(n) - 4(n-1)*a(n-2)
"""
from __future__ import annotations

import json
from itertools import count
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .check import Check, decimal
from .exact import Polynomial, n, parse_coefficient, primitive, read_polynomials, width_bits
from .linalg import nullity_bound, nullspace

if TYPE_CHECKING:
    from .sequences import SequenceSource

#: Largest ``order_cap`` and ``degree_cap`` an LCLM search accepts. A failing
#: search tries every order up to the cap, each at its largest admitted degree,
#: and the worst systems come from two order-1 operators: u-op against one with
#: degree-20 coefficients of 2 and 9 bits fails at (10, 16) in 0.45-0.48 s,
#: every order's nullity bound 0 (17.5 s when every degree was solved); at
#: (8, 10), the defaults, with degree 12, in 0.17-0.20 s. They peak at 22 and
#: 18 MB in a fresh ``recurra lclm`` process (2-vCPU Xeon, CPython 3.11, shared).
MAX_ORDER_CAP = 10
MAX_DEGREE_CAP = 16
#: Fewest indices ``verify_range`` splits between two processes. Two shards
#: break even with one process at 500 to 1,000 indices (mathar on A032123,
#: 6..500: 6.5 ms against 6.1 ms; 6..1000: 9.1 ms against 12.4 ms) and take
#: 0.94 s against 1.79 s on 6..30000. The fork, the child's seed and two
#: processes running at once cost CPU: +7% on 6..5000, +2% on 6..30000
#: (medians of 7, in process, 2-vCPU Xeon, CPython 3.11, shared). The bound
#: lies above the proof's default sweep, 6..5000, so sweeps of tens of
#: milliseconds stay in one process.
SHARD_MIN = 10_000
#: Highest coefficient degree ``verify_range`` accepts. Horner evaluation
#: costs about D^2 per index at degree D: c_0 = n^D, c_1 = -n^D on a b-file
#: of 1s over 1..2000 took 0.09 s at D = 150, 2.0-3.2 s at D = 1000 and
#: 33.8 s at D = 4000. The cap admits every operator recurra emits: ``guess``
#: reaches degree 149 at order 1 under ``MAX_UNKNOWNS`` = 300. The worst case
#: measured at the cap: order 31, every coefficient of degree 150 (a dense
#: order-26 operator times ``mathar``), on A032123 over 32..100000 in two
#: shards, took 705 s and 22 min of CPU; on 32..5000 it took 4.2 s in one
#: process, and 0.16 s at degree 2 (2-vCPU Xeon, CPython 3.11, shared).
MAX_VERIFY_DEGREE = 150
#: Highest operator order ``verify_range`` accepts. A sweep's cost per index
#: grows with its order, as each nonzero c_j(n) multiplies one term, and the
#: worst sweep this cap and ``MAX_VERIFY_DEGREE`` admit together is the one
#: measured above: order 31 at degree 150 took 705 s over 32..100000. The cap
#: admits every order ``lclm`` builds (``MAX_ORDER_CAP``); ``guess``, which has
#: no order cap of its own, checks its holdout without it.
MAX_VERIFY_ORDER = 31
#: Most coefficient bits one LCLM system may be built from: each input's
#: coefficients counted as certify counts them (``exact.width_bits``), once per
#: cofactor term, (order - order(a) + 1)(degree + 1) times for a and likewise
#: for b. The first system of two same-order inputs is built from their joint
#: bits, so an operator with a 10^5000 constant still meets itself; a search
#: stops at the first shape over the cap. Bits cost time only where the
#: nullspace is nonempty, as its vectors grow with them: uncapped, v-op against
#: n*a(n) + C*a(n-1) took 2.4-2.8 s at a 5,000-bit C and 16 s at 10,000 bits.
#: The worst case measured at the cap: mathar against n*a(n) + C*a(n-5) with a
#: 555-bit C, found at (10, 16) in 2.6-3.1 s at the largest caps, one nullspace
#: solved (4.5-5.8 s when the 15 empty systems before it were solved too); at the
#: defaults, mathar against n*a(n) + C*a(n-2) with a 1,010-bit C in 1.2-1.4 s.
#: They peak at 20 and 18 MB in a fresh ``recurra lclm`` process (2-vCPU Xeon,
#: CPython 3.11, shared). That found search is the slowest measured, ahead of
#: any failing one.
MAX_LCLM_BITS = 70_000


class LclmCapError(RuntimeError):
    """No common left multiple found within the order/degree caps."""


class ShiftOperator:
    """Backward recurrence operator sum_{j=0..r} c_j(n) * a(n-j)."""

    __slots__ = ("coeffs", "_horner")

    def __init__(self, coeffs: Iterable[Polynomial]):
        polys = [p if isinstance(p, Polynomial) else Polynomial([p]) for p in coeffs]
        if not polys:
            raise ValueError("an operator needs at least the order-0 coefficient")
        if polys[0].is_zero or polys[-1].is_zero:
            raise ValueError("c_0 and the top coefficient must be nonzero")
        coeffs = tuple(_joint_normalize(polys))
        object.__setattr__(self, "coeffs", coeffs)
        # (j, c_j's coefficients, highest power first) of each nonzero c_j,
        # the rows ``_combine`` evaluates; c_0's is the first.
        object.__setattr__(self, "_horner", tuple(
            (j, p.coeffs[::-1]) for j, p in enumerate(coeffs) if not p.is_zero
        ))

    def __setattr__(self, name, value):
        raise AttributeError("ShiftOperator is immutable")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, ShiftOperator):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"ShiftOperator(order={self.order}, coeffs={[str(p) for p in self.coeffs]})"

    def __mul__(self, other: "ShiftOperator") -> "ShiftOperator":
        """Composition "self after other"; order adds, coefficients pick up index shifts."""
        return ShiftOperator(_compose(self.coeffs, other))

    # -- application -------------------------------------------------------

    def apply(self, s: SequenceSource, at: int) -> int:
        """Exact value of sum_j c_j(at) * s(at - j)."""
        if at < self.order:
            raise ValueError(f"need at >= order={self.order}, got {at}")
        return _combine(self._horner, at, lambda j: s.term(at - j))

    # -- file format ---------------------------------------------------------

    def to_json(self) -> str:
        doc = {
            "convention": "backward",
            "order": self.order,
            "coeffs": [p.to_strings() for p in self.coeffs],
        }
        return json.dumps(doc, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ShiftOperator":
        """Parse an operator file.

        The native convention is backward (c_j multiplies a(n-j)). Files
        declaring ``convention: "forward"`` (d_j multiplies a(n+j)) are
        converted on the way in: substituting n -> n - order reverses the
        coefficient list and shifts every polynomial by -order.
        """
        doc = json_object(text, "operator", order=INTEGER, coeffs=COEFF_ROWS)
        convention = doc.get("convention")
        if convention not in ("backward", "forward"):
            raise ValueError(
                f"operator convention must be backward or forward, got {convention!r}"
            )
        coeffs = read_polynomials(doc["coeffs"])
        if len(coeffs) != doc["order"] + 1:
            raise ValueError("declared order does not match the coefficient count")
        if convention == "forward":
            order = doc["order"]
            coeffs = [p.shifted(-order) for p in reversed(coeffs)]
        return cls(coeffs)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_coeff(v) -> bool:
    return isinstance(v, str) or _is_int(v)


def _list_of(ok):
    return lambda v: isinstance(v, list) and all(map(ok, v))


#: Field checks for ``json_object``: a predicate and what it expects.
INTEGER = (_is_int, "an integer")
INTEGERS = (_list_of(_is_int), "a list of integers")
COEFFS = (_list_of(_is_coeff), "a list of decimal-string or integer coefficients")
COEFF_ROWS = (_list_of(_list_of(_is_coeff)), "a list of coefficient lists")


def json_object(text: str, what: str, **fields) -> dict:
    """Parse a JSON object and check each required field against its check.

    A missing or mistyped field raises ValueError naming it, so a malformed
    file fails like any other bad input instead of with a traceback.
    """
    try:
        doc = json.loads(text, parse_int=parse_coefficient)  # under COEFF_DIGITS
    except RecursionError:
        raise ValueError(f"{what} file is nested too deeply to read") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{what} file must hold a JSON object, got {type(doc).__name__}")
    for key, (ok, expected) in fields.items():
        if key not in doc:
            raise ValueError(f"{what} file has no {key!r} field")
        if not ok(doc[key]):
            raise ValueError(f"{what} field {key!r} must be {expected}")
    return doc


def _joint_normalize(polys: list[Polynomial]) -> list[Polynomial]:
    """Scale all coefficients to coprime integers, c_0's lead positive."""
    sign = -1 if polys[0].leading_coefficient < 0 else 1
    flat = iter(primitive([sign * c for p in polys for c in p.coeffs]))
    return [Polynomial([next(flat) for _ in p.coeffs]) for p in polys]


#: The builtin operators, built once: a ``ShiftOperator`` is immutable.
_BUILTINS = {
    "mathar": ShiftOperator(
        [
            n * (n - 1),
            -2 * (n - 1) * (3 * n - 4),
            4 * (2 * n**2 - 14 * n + 19),
            8 * (n**2 + 5 * n - 19),
            -16 * (n - 3) * (3 * n - 10),
            32 * (n - 4) * (2 * n - 9),
        ]
    ),
    "u-op": ShiftOperator([n, -(4 * n - 2)]),
    "v-op": ShiftOperator([n, Polynomial(), -4 * (n - 1)]),
}


def builtin_operator(name: str) -> ShiftOperator:
    """Look up a builtin operator by its exact name."""
    try:
        return _BUILTINS[name]
    except KeyError:
        raise ValueError(
            f"unknown operator {name!r}; builtins: {', '.join(sorted(_BUILTINS))}"
        ) from None


def unroll(op: ShiftOperator, n: int, first: Sequence[int]) -> Iterator[int]:
    """The terms at n, n + 1, ... of the sequence op annihilates, from its first ones.

    ``first`` holds the terms from n on, op.order >= 1 of them. Each later term is
    a(m) = -sum_{j>=1} c_j(m) * a(m - j) / c_0(m), one exact ``divmod``; a
    nonzero remainder means ``first`` is not the start of an integer solution
    and raises ``AssertionError`` naming m.
    """
    (_, lead), *rest = op._horner
    yield from first
    past = [None, *reversed(first)]  # past[j] is a(m - j), j >= 1
    for m in count(n + op.order):
        den = 0
        for c in lead:
            den = den * m + c
        a, r = divmod(_combine(rest, m, past.__getitem__), -den)
        if r:
            raise AssertionError(f"the unrolled term at n={m} is not an integer; "
                                 "the first terms are wrong")
        past.insert(1, a)
        del past[-1]
        yield a


def _combine(rows, n: int, term) -> int:
    """sum_j c_j(n) * term(j) over (j, c_j's Horner list) rows, as an operator holds them.

    ``term(j)`` stands for a(n - j) and is read only where c_j(n) is not zero.
    The sum starts from its first product: adding a big integer to 0 copies
    it, at about the cost of a product.
    """
    total = 0
    for j, horner in rows:
        acc = 0
        for c in horner:
            acc = acc * n + c
        if acc:
            acc *= term(j)
            total = total + acc if total else acc
    return total


def verify_range(op: ShiftOperator, s: SequenceSource, n_from: int, n_to: int) -> Check:
    """Check op annihilates s on n_from..n_to, stopping at the first failure.

    A failure's witness is ``(n, residual)``, at the least failing n. An
    operator of order over ``MAX_VERIFY_ORDER`` or of degree over
    ``MAX_VERIFY_DEGREE``, and a range that reads past either end of the
    source, n_from - order included, are refused before any term is read.

    Every sweep reads each term once, from the source's run
    (``_streamed_residual``). One of ``SHARD_MIN`` indices or more is split in
    two at split = isqrt((n_from^2 + n_to^2) / 2), which halves the work, as
    the cost per index grows with n: this process sweeps n_from..split - 1 and
    one forked child sweeps split..n_to. A failure in the lower shard is
    reported, and the child killed, before the child is waited for. The child
    reports by its exit status alone; unless that is a pass, whether it
    failed, raised or died, its shard is swept again here, so a failure there
    takes about as long to find as in one process. So the Check, its witness
    and any error equal those of a sweep in one process. A long sweep stays in
    one process when it cannot fork: without ``os.fork``, with one usable CPU,
    while a second thread is alive or SIGCHLD is ignored, or when the fork
    fails.
    """
    if op.order > MAX_VERIFY_ORDER:
        raise ValueError(f"operator order {op.order} is over the cap "
                         f"MAX_VERIFY_ORDER = {MAX_VERIFY_ORDER}")
    degree = max(p.degree for p in op.coeffs)
    if degree > MAX_VERIFY_DEGREE:
        raise ValueError(f"operator coefficients have degree {degree}, over the cap "
                         f"MAX_VERIFY_DEGREE = {MAX_VERIFY_DEGREE}")
    if n_from < op.order:
        raise ValueError(f"range must start at or above the order {op.order}")
    if n_from > n_to:
        raise ValueError("empty verification range")
    s.check_range(n_from - op.order, n_to)
    sweep = (_two_shards if n_to - n_from + 1 >= SHARD_MIN and _may_fork()
             else _streamed_residual)
    hit = sweep(op, s, n_from, n_to)
    if hit is None:
        return Check("verify", True, f"all residuals zero on {n_from}..{n_to}")
    i, r = hit
    return Check("verify", False, f"residual {decimal(r)} at n={i}", (i, r))


def _streamed_residual(op, s, n_from, n_to):
    """The first (n, residual) on n_from..n_to that is not zero, or None.

    Each term is read once, from ``s.run(n_from - order)``, and the last
    order + 1 are kept in a list."""
    run = s.run(n_from - op.order)
    recent = [next(run) for _ in range(op.order)][::-1]
    past = recent.__getitem__  # past(j) is a(i - j)
    for i in range(n_from, n_to + 1):
        recent.insert(0, next(run))
        r = _combine(op._horner, i, past)
        if r:
            return i, r
        del recent[-1]
    return None


def _may_fork() -> bool:
    """Whether a long sweep is split across a forked child: a second CPU is
    usable, no second thread is alive, whose locks a fork would copy mid-use,
    and SIGCHLD is not ignored, which would have the kernel reap the child
    before its exit status could be read."""
    import os
    import sys

    if not hasattr(os, "fork"):
        return False
    import signal

    if signal.getsignal(signal.SIGCHLD) is signal.SIG_IGN:
        return False
    threading = sys.modules.get("threading")
    if threading is not None and threading.active_count() > 1:
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) > 1
    return (os.cpu_count() or 1) > 1


def _two_shards(op, s, n_from, n_to):
    """``_streamed_residual`` on n_from..n_to, with split..n_to swept by a forked child.

    The child's only report is its exit status, 0 when its shard passes; it
    leaves by ``os._exit``, never returning into the caller. On any other
    status, from a failure, an error or a death, this process streams the
    child's shard again, finding an upper-shard failure a second time. A child
    not yet reaped is killed and reaped on every way out; a reaped one is never
    signalled, as its pid may already name another process.
    """
    import os
    import signal
    from math import isqrt

    split = isqrt((n_from * n_from + n_to * n_to) // 2)
    try:
        pid = os.fork()
    except OSError:  # no second process to be had
        return _streamed_residual(op, s, n_from, n_to)
    if pid == 0:
        status = 1
        try:
            status = 0 if _streamed_residual(op, s, split, n_to) is None else 1
        finally:
            os._exit(status)
    status = None
    try:
        hit = _streamed_residual(op, s, n_from, split - 1)
        if hit is not None:
            return hit
        status = os.waitpid(pid, 0)[1]
        return None if status == 0 else _streamed_residual(op, s, split, n_to)
    finally:
        if status is None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _compose(a: Sequence[Polynomial], b: ShiftOperator) -> list[Polynomial]:
    """Coefficients of the composition of b with the coefficient list a."""
    out = [Polynomial()] * (len(a) + b.order)
    for i, ai in enumerate(a):
        if ai.is_zero:
            continue
        for j, bj in enumerate(b.coeffs):
            if bj.is_zero:
                continue
            out[i + j] = out[i + j] + ai * bj.shifted(-i)
    return out


def lclm(
    a: ShiftOperator,
    b: ShiftOperator,
    order_cap: int = 8,
    degree_cap: int = 10,
) -> tuple[ShiftOperator, ShiftOperator, ShiftOperator]:
    """Least common left multiple L of a and b with its cofactors: (L, P, Q), L = P*a = Q*b.

    Searches orders ascending from max(order(a), order(b)), and cofactor
    coefficient degrees ascending, solving an exact linear system at each
    (order, degree). An order admits degrees up to top, the largest within
    ``degree_cap`` and ``MAX_LCLM_BITS``. Its system at top is built once, and
    one elimination of it mod a prime bounds its nullity
    (``linalg.nullity_bound``): the order solves the degrees from top + 1
    minus that bound up to top, so a bound of 0 skips it whole. If it finds
    nothing and top is below ``degree_cap``, the search ends there with a
    ``ValueError`` naming degree top + 1. Within a nullspace, ties break
    toward the lexicographically smallest normalized coefficient vector.
    """
    if order_cap <= 0 or degree_cap < 0:
        raise ValueError(f"order_cap must be >= 1 and degree_cap >= 0, "
                         f"got order_cap={order_cap}, degree_cap={degree_cap}")
    if order_cap > MAX_ORDER_CAP:
        raise ValueError(
            f"order_cap={order_cap} is over the bound MAX_ORDER_CAP = {MAX_ORDER_CAP}"
        )
    if degree_cap > MAX_DEGREE_CAP:
        raise ValueError(
            f"degree_cap={degree_cap} is over the bound MAX_DEGREE_CAP = {MAX_DEGREE_CAP}"
        )
    bits_a, bits_b = width_bits(a.coeffs), width_bits(b.coeffs)
    for order in range(max(a.order, b.order), order_cap + 1):
        per_degree = (order - a.order + 1) * bits_a + (order - b.order + 1) * bits_b
        top = min(degree_cap, MAX_LCLM_BITS // per_degree - 1)
        # A solution v at degree d, padded with zeros, solves the system at
        # top, and so do n*v, ..., n^(top - d)*v, which are independent: a
        # kernel at d forces a nullity of at least top - d + 1 at top.
        # Degrees below top + 1 - bound are therefore empty.
        if top >= 0:  # else even degree 0 is over the bits cap
            at_top = _lclm_system(a, b, order, top)
            for degree in range(max(0, top + 1 - nullity_bound(*at_top)), top + 1):
                rows, ncols = at_top if degree == top else _lclm_system(a, b, order, degree)
                found = _lclm_pick(a, order, degree, nullspace(rows, ncols=ncols))
                if found is not None:
                    return found
        if top < degree_cap:
            raise ValueError(
                f"the LCLM system at order={order}, degree={top + 1} is built from "
                f"{per_degree * (top + 2)} coefficient bits, over the cap "
                f"MAX_LCLM_BITS = {MAX_LCLM_BITS}"
            )
    raise LclmCapError(
        f"no common left multiple within order_cap={order_cap}, "
        f"degree_cap={degree_cap}"
    )


def _lclm_system(a, b, order, degree):
    """The rows and column count of the system for cofactors P, Q with P*a = Q*b."""
    width = degree + 1
    # One unit per cofactor shift i: S^i*a for P, -S^i*b for Q. The unknown
    # for n^e * S^i scales its unit by n^e, moving each coefficient up e powers.
    units = [
        _compose([Polynomial([sign] if j == i else []) for j in range(count)], op)
        for op, count, sign in ((a, order - a.order + 1, 1), (b, order - b.order + 1, -1))
        for i in range(count)
    ]
    eq_rows = []
    for t in range(order + 1):
        top = max(unit[t].degree for unit in units)
        if top < 0:
            continue
        for k in range(top + width):
            eq_rows.append([unit[t][k - e] for unit in units for e in range(width)])
    return eq_rows, len(units) * width


def _lclm_pick(a, order, degree, kernel):
    """The least (L, P, Q) over the kernel's vectors, or None if none has order ``order``."""
    na, width = order - a.order + 1, degree + 1  # P's length and its coefficients'
    candidates = []
    for vec in kernel:
        cof = [Polynomial(vec[c : c + width]) for c in range(0, len(vec), width)]
        p_cof, q_cof = cof[:na], cof[na:]
        product = _compose(p_cof, a)
        # product[order] is P's top times a's shifted top, and also Q's top
        # times b's: it is zero exactly when either cofactor's top is.
        if product[0].is_zero or product[order].is_zero:
            continue
        candidates.append((ShiftOperator(product), p_cof, q_cof))
    if not candidates:
        return None
    lclm_op, p_cof, q_cof = min(
        candidates, key=lambda c: tuple(p.coeffs for p in c[0].coeffs)
    )
    return (
        lclm_op,
        ShiftOperator(p_cof),
        ShiftOperator(q_cof),
    )
