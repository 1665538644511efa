"""recurra: exact-arithmetic toolkit for P-recursive sequences.

Everything computes over arbitrary-precision integers, with rationals only
while a coefficient file is read; there is no floating point anywhere. The
headline capability is the fully offline proof pipeline for the order-5
recurrence of OEIS A032123 (``recurra prove-a032123``), built from reusable
pieces: shift-operator algebra, symbolic annihilation certificates, exact
recurrence guessing, orbit-counting oracles, and b-file handling.
"""
from .certify import (
    CertificationReport,
    DegenerateRatioError,
    HyperTermSpec,
    UnsupportedChainError,
    builtin_term,
    builtin_term_names,
    certify_annihilation,
    check_cancellation_identities,
    perturbed,
    reduce_to_polynomial,
)
from .check import Check
from .exact import (
    NEG_INF,
    Polynomial,
    falling_factorial,
    integer_roots,
)
from .guess import (
    GuessCandidate,
    GuessNotFoundError,
    GuessProblem,
    GuessResult,
    InsufficientTermsError,
    guess_recurrence,
    minimal_guess,
    required_terms,
)
from .oeis import (
    BFileParseError,
    BFileStructureError,
    FetchError,
    OfflineError,
    bundled_a032123,
    compare_sequence,
    fetch_bfile,
    parse_bfile,
)
from .operators import (
    LclmCapError,
    ShiftOperator,
    builtin_operator,
    builtin_operator_names,
    lclm,
    lclm_with_cofactors,
    operator_mul,
    verify_range,
)
from .sequences import (
    BFileSequence,
    OrbitOracleSequence,
    SequenceSource,
    TermRangeError,
    binomial,
    builtin_sequence,
    builtin_sequence_names,
    orbit_count_oracle,
    reversal_fixed_count,
    series_inv_sqrt,
    verify_ogf,
)

__version__ = "0.1.0"

__all__ = [
    "BFileParseError",
    "BFileSequence",
    "BFileStructureError",
    "CertificationReport",
    "Check",
    "DegenerateRatioError",
    "FetchError",
    "GuessCandidate",
    "GuessNotFoundError",
    "GuessProblem",
    "GuessResult",
    "HyperTermSpec",
    "InsufficientTermsError",
    "LclmCapError",
    "NEG_INF",
    "OfflineError",
    "OrbitOracleSequence",
    "Polynomial",
    "SequenceSource",
    "ShiftOperator",
    "TermRangeError",
    "UnsupportedChainError",
    "binomial",
    "builtin_operator",
    "builtin_operator_names",
    "builtin_sequence",
    "builtin_sequence_names",
    "builtin_term",
    "builtin_term_names",
    "bundled_a032123",
    "certify_annihilation",
    "check_cancellation_identities",
    "compare_sequence",
    "falling_factorial",
    "fetch_bfile",
    "guess_recurrence",
    "integer_roots",
    "lclm",
    "lclm_with_cofactors",
    "minimal_guess",
    "operator_mul",
    "orbit_count_oracle",
    "parse_bfile",
    "perturbed",
    "required_terms",
    "reduce_to_polynomial",
    "reversal_fixed_count",
    "series_inv_sqrt",
    "verify_ogf",
    "verify_range",
]
