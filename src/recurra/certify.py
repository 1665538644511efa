"""Symbolic certification that an operator annihilates a ratio-defined term.

A term t is described by p(n) * t(n) = q(n) * t(n - k) together with the
residue classes mod k on which t is nonzero. Applying an operator to t and
rewriting every t(n - j) against a single anchor term turns the claim
"L annihilates t" into "a fully expanded polynomial is identically zero",
which exact arithmetic settles unconditionally.

Builtin term descriptions (exact names) are read off the two-term summand
operators: c_0(n) a(n) + c_k(n) a(n - k) gives step k, p = c_0, q = -c_k,
support {0} and n_min = k, so each summand's recurrence is written once.

* ``u-spec``  from ``u-op``: the central binomial, p = n, q = 4n-2, step 1
* ``v-spec``  from ``v-op``: its even-index aeration, p = n, q = 4(n-1), step 2
"""
from __future__ import annotations

from typing import Iterable, NamedTuple

from .check import Check, decimal
from .exact import Polynomial, integer_roots, n, read_polynomials, width_bits
from .operators import (
    COEFFS, INTEGER, INTEGERS, MAX_ORDER_CAP, ShiftOperator, builtin_operator, json_object,
)


#: Largest degree of p or q in a term description, and of an operator's
#: coefficients in ``certify_annihilation``. Against ``mathar``, a step-1
#: term of degree 100 takes 0.14 s with p = 1 + ... + n^100, q = 3 + ... + 2n^100,
#: 0.2 s with q = (n-1)...(n-100), 0.4 s with random 30-digit coefficients and
#: 4.3 s with 300-digit ones; at 200, 1.3, 3.7, 2.1 and 21 s (2-vCPU Xeon,
#: CPython 3.11). At degree 100, q = (n-1)...(n-100) and the 300-digit case are
#: over MAX_TERM_BITS.
MAX_TERM_DEGREE = 100

#: Most coefficient bits a term description may hold, each coefficient of p
#: and of q counted at the width of the widest one in its polynomial: the
#: products certification forms spread a wide coefficient into every other.
#: A plain sum of bit lengths would not bound the work: one 9.9k-bit
#: coefficient in q at degree 100 takes 33 s against the order-10 operator
#: below as q's constant term, and 299 s as its leading one. The worst case at
#: the term caps and the order cap is about 7 s: degree 100, q with 395-bit
#: coefficients, against the order-10 operator with coefficients n+1, ..., n+11
#: (0.45 s against ``mathar``; 2-vCPU Xeon, CPython 3.11). MAX_OPERATOR_BITS
#: gives the worst case at all the caps together.
MAX_TERM_BITS = 40_000

#: Largest operator order ``certify_annihilation`` accepts: each shift deepens
#: the rewrite chain. It is the largest order of the L that ``lclm`` returns,
#: whose cofactors P and Q are no longer, so the cap admits all three and
#: every builtin operator. Against the degree-100 term above, the operator
#: with coefficients n+1, ..., n+r+1 takes 0.2 s at r = 5 and about 3 s at
#: r = 10 (2.3 s with an n^16 term in each coefficient), against 103 s at
#: r = 20 (2-vCPU Xeon, CPython 3.11).
MAX_OPERATOR_ORDER = MAX_ORDER_CAP

#: Most coefficient bits an operator may hold in ``certify_annihilation``,
#: counted as for MAX_TERM_BITS: each summand of a residue's numerator is one
#: operator coefficient times a product of up to MAX_OPERATOR_ORDER shifted p
#: and q. (Its coefficients' degree is capped by MAX_TERM_DEGREE; dense
#: degree-2000 coefficients took 11 s.) The cap admits ``mathar`` with a
#: 10^5000 constant (49,947 bits). Uncapped, an order-10 operator with random
#: 40,000-bit constants took 4.1 s against a degree-100 term with 2-bit
#: coefficients. The worst case at all the certify caps together is about 8 s:
#: the degree-100 term p = 1 + ... + n^100 with 395-bit coefficients in q (7 s
#: under MAX_TERM_BITS) against an order-10 operator whose c_0 is one
#: 49,900-bit constant and whose other coefficients are n+1, ..., n+10 (2.5 s
#: with p = n; 7.8 s with eleven 4,545-bit constants; 2-vCPU Xeon, CPython
#: 3.11, whose speed drifts by up to 2x).
MAX_OPERATOR_BITS = 50_000


class DegenerateRatioError(ValueError):
    """The term ratio has a vanishing side and cannot be iterated."""


class UnsupportedChainError(ValueError):
    """Contributions from several independent sub-chains in one residue class."""


class _TermFields(NamedTuple):
    step: int
    p: Polynomial
    q: Polynomial
    support: frozenset[int]
    n_min: int


class HyperTermSpec(_TermFields):
    """A term satisfying p(n) * t(n) = q(n) * t(n - step).

    ``support`` lists the residues mod step where t may be nonzero; ``n_min``
    is the smallest index at which the one-step relation is valid.
    ``q_roots`` holds the integer roots of q, found once per term: those of
    q(n - s) are the same plus s. It is no field, so equality and repr leave
    it out. Every construction, ``_replace`` included, validates.
    """

    q_roots: tuple[int, ...]

    def __new__(cls, step: int, p: Polynomial, q: Polynomial, support: Iterable[int],
                n_min: int):
        if step not in (1, 2):
            raise ValueError("only step-1 and step-2 terms are supported")
        if p.is_zero or q.is_zero:
            raise DegenerateRatioError("ratio polynomials must be nonzero")
        if max(p.degree, q.degree) > MAX_TERM_DEGREE:
            raise ValueError(f"p and q have degrees {p.degree} and {q.degree}, "
                             f"over the cap MAX_TERM_DEGREE = {MAX_TERM_DEGREE}")
        bits = width_bits((p, q))
        if bits > MAX_TERM_BITS:
            raise ValueError(f"p and q take {bits} bits at the width of their widest "
                             f"coefficients, over the cap MAX_TERM_BITS = {MAX_TERM_BITS}")
        support = frozenset(support)
        if not support:
            raise ValueError("support must be nonempty")
        if any(r not in range(step) for r in support):
            raise ValueError(f"support residues must lie in 0..{step - 1}")
        self = super().__new__(cls, step, p, q, support, n_min)
        object.__setattr__(self, "q_roots", tuple(integer_roots(q)))
        return self

    def __setattr__(self, name, value):
        raise AttributeError("HyperTermSpec is immutable")

    def __delattr__(self, name):
        raise AttributeError("HyperTermSpec is immutable")

    @classmethod
    def _make(cls, iterable) -> "HyperTermSpec":
        return cls(*iterable)

    @classmethod
    def from_json(cls, text: str) -> "HyperTermSpec":
        doc = json_object(
            text, "term", step=INTEGER, p=COEFFS, q=COEFFS, support=INTEGERS, n_min=INTEGER
        )
        # One scale for p and q keeps p(n)*t(n) = q(n)*t(n - step).
        p, q = read_polynomials([doc["p"], doc["q"]])
        return cls(
            step=doc["step"], p=p, q=q, support=frozenset(doc["support"]), n_min=doc["n_min"]
        )


def builtin_term(name: str) -> HyperTermSpec:
    """Look up a builtin term description by its exact name."""
    try:
        return _builtin_terms[name]
    except KeyError:
        raise ValueError(
            f"unknown term {name!r}; builtins: {', '.join(sorted(_builtin_terms))}"
        ) from None


def _summand_term(name: str) -> HyperTermSpec:
    """The term spec of the two-term builtin operator ``name``, as in the module docstring."""
    op = builtin_operator(name)
    return HyperTermSpec(step=op.order, p=op.coeffs[0], q=-op.coeffs[-1],
                         support=frozenset({0}), n_min=op.order)


_builtin_terms = {"u-spec": _summand_term("u-op"), "v-spec": _summand_term("v-op")}


class ResidueReduction(NamedTuple):
    """One residue class reduced to a cleared-numerator polynomial."""

    residue: int
    terms: tuple[Polynomial, ...]        # summand polynomials, one per contributing shift
    numerator: Polynomial                # their sum, normalized
    floor: int                           # smallest n with every rewrite step valid

    @property
    def is_zero(self) -> bool:
        return self.numerator.is_zero


class CertificationReport(NamedTuple):
    """Outcome of certifying one operator against one term description."""

    residues: tuple[ResidueReduction, ...]
    certified: bool
    floor: int

    def detail(self) -> str:
        if self.certified:
            return f"all residue numerators vanish; valid from n={decimal(self.floor)}"
        bad = [r.residue for r in self.residues if not r.is_zero]
        return f"nonzero numerator in residue class(es) {bad}"


def _reduce_residue(op: ShiftOperator, t: HyperTermSpec, residue: int) -> ResidueReduction:
    k = t.step
    shifts = [
        j
        for j in range(op.order + 1)
        if not op.coeffs[j].is_zero and (residue - j) % k in t.support
    ]
    if not shifts:
        return ResidueReduction(residue=residue, terms=(), numerator=Polynomial(), floor=op.order)
    if len({j % k for j in shifts}) > 1:
        raise UnsupportedChainError(
            "contributing shifts span several residue chains; split the term "
            "into single-chain pieces first"
        )

    anchor = min(shifts)
    depth = (max(shifts) - anchor) // k
    # Rewrite chain: t(n - anchor - m*k) picks up p/q evaluated at
    # n - anchor - (m-1)*k for m = 1..depth. The summand at chain depth i is
    # c_j * p_1...p_i * q_(i+1)...q_depth: prefix[i] * suffix[i].
    prefix = [Polynomial([1])]
    suffix = [Polynomial([1])]
    for m in range(depth):
        prefix.append(prefix[-1] * t.p.shifted(-(anchor + m * k)))
        suffix.append(t.q.shifted(-(anchor + (depth - 1 - m) * k)) * suffix[-1])
    suffix.reverse()

    terms = []
    total = Polynomial()
    for j in shifts:
        i = (j - anchor) // k
        term = op.coeffs[j] * (prefix[i] * suffix[i])
        terms.append(term)
        total = total + term

    floor = op.order
    if depth > 0:
        # Every rewrite needs n - anchor - m*k >= n_min and off the roots of q,
        # for m up to depth - 1.
        low = max([t.n_min] + [r + 1 for r in t.q_roots])
        floor = max(floor, low + anchor + (depth - 1) * k)
    return ResidueReduction(
        residue=residue, terms=tuple(terms), numerator=total.normalized(), floor=floor
    )


def certify_annihilation(op: ShiftOperator, t: HyperTermSpec) -> CertificationReport:
    """Reduce every residue class and certify iff all numerators vanish."""
    if op.order > MAX_OPERATOR_ORDER:
        raise ValueError(f"operator order {op.order} is over the cap "
                         f"MAX_OPERATOR_ORDER = {MAX_OPERATOR_ORDER}")
    degree = max(f.degree for f in op.coeffs)
    if degree > MAX_TERM_DEGREE:
        raise ValueError(f"operator coefficients have degree {degree}, over the cap "
                         f"MAX_TERM_DEGREE = {MAX_TERM_DEGREE}")
    bits = width_bits(op.coeffs)
    if bits > MAX_OPERATOR_BITS:
        raise ValueError(f"operator coefficients take {bits} bits at the width of their widest "
                         f"coefficients, over the cap MAX_OPERATOR_BITS = {MAX_OPERATOR_BITS}")
    residues = tuple(_reduce_residue(op, t, r) for r in range(t.step))
    return CertificationReport(
        residues=residues,
        certified=all(r.is_zero for r in residues),
        floor=max(r.floor for r in residues),
    )


def check_cancellation_identities() -> tuple[Check, ...]:
    """Verify the parity-split cancellation identities behind the order-5 proof.

    Expands the even- and odd-class core combinations of the mathar
    coefficients and confirms both collapse to the zero polynomial, along
    with the factored forms of the two cleared sums. A failure here would
    mean the builtin operator was transcribed wrong.
    """
    c = builtin_operator("mathar").coeffs

    even_core = (n - 1) ** 2 + (2 * n**2 - 14 * n + 19) - (n - 2) * (3 * n - 10)
    odd_core = -(n - 2) * (3 * n - 4) + (n**2 + 5 * n - 19) + (n - 3) * (2 * n - 9)

    even_sum = (
        16 * (n - 1) * (n - 3) * c[0]
        + 4 * (n - 3) * n * c[2]
        + n * (n - 2) * c[4]
    )
    even_factored = 16 * n * (n - 3) * even_core

    odd_sum = (
        16 * (n - 2) * (n - 4) * c[1]
        + 4 * (n - 4) * (n - 1) * c[3]
        + (n - 1) * (n - 3) * c[5]
    )
    odd_factored = 32 * (n - 1) * (n - 4) * odd_core

    return (
        Check("even-core-zero", even_core.is_zero, str(even_core)),
        Check("odd-core-zero", odd_core.is_zero, str(odd_core)),
        Check("even-factorization", even_sum == even_factored, f"{even_sum} vs {even_factored}"),
        Check("odd-factorization", odd_sum == odd_factored, f"{odd_sum} vs {odd_factored}"),
    )


def perturbed(op: ShiftOperator, shift: int, power: int) -> ShiftOperator:
    """Copy of op with n^power added to the coefficient of a(n - shift)."""
    coeffs = list(op.coeffs)
    coeffs[shift] = coeffs[shift] + Polynomial([0] * power + [1])
    return ShiftOperator(coeffs)
