"""recurra: exact-arithmetic toolkit for P-recursive sequences.

Everything computes over arbitrary-precision integers, with rationals only
while a coefficient file is read; there is no floating point anywhere. The
headline capability is the fully offline proof pipeline for the order-5
recurrence of OEIS A032123 (``recurra prove-a032123``), built from reusable
pieces: shift-operator algebra, symbolic annihilation certificates, exact
recurrence guessing, an orbit-counting oracle, and b-file handling.
"""
from .certify import (
    CertificationReport,
    DegenerateRatioError,
    HyperTermSpec,
    UnsupportedChainError,
    builtin_term,
    certify_annihilation,
    check_cancellation_identities,
    perturbed,
)
from .check import Check
from .exact import (
    Polynomial,
    integer_roots,
)
from .guess import (
    GuessNotFoundError,
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
    lclm,
    verify_range,
)
from .sequences import (
    BFileSequence,
    SequenceSource,
    TermRangeError,
    builtin_sequence,
    orbit_count_oracle,
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
    "GuessNotFoundError",
    "GuessResult",
    "HyperTermSpec",
    "InsufficientTermsError",
    "LclmCapError",
    "OfflineError",
    "Polynomial",
    "SequenceSource",
    "ShiftOperator",
    "TermRangeError",
    "UnsupportedChainError",
    "builtin_operator",
    "builtin_sequence",
    "builtin_term",
    "bundled_a032123",
    "certify_annihilation",
    "check_cancellation_identities",
    "compare_sequence",
    "fetch_bfile",
    "guess_recurrence",
    "integer_roots",
    "lclm",
    "minimal_guess",
    "orbit_count_oracle",
    "parse_bfile",
    "perturbed",
    "required_terms",
    "series_inv_sqrt",
    "verify_ogf",
    "verify_range",
]
