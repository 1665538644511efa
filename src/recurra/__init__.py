"""recurra: exact-arithmetic toolkit for P-recursive sequences.

Everything computes over arbitrary-precision integers, with rationals only
while a coefficient file is read; there is no floating point anywhere. The
headline capability is the fully offline proof pipeline for the order-5
recurrence of OEIS A032123 (``recurra prove-a032123``), built from reusable
pieces: shift-operator algebra, symbolic annihilation certificates, exact
recurrence guessing, an orbit-counting oracle, and b-file handling.

Importing the package loads none of its modules. Each public name in
``__all__``, and each submodule, is imported on first access (PEP 562), so
a command loads only the modules it runs. ``from recurra import *`` and
``dir(recurra)`` see every public name.
"""

__version__ = "0.1.0"

#: The public names, by the submodule that defines them.
_EXPORTS = {
    "certify": (
        "CertificationReport", "DegenerateRatioError", "HyperTermSpec",
        "UnsupportedChainError", "builtin_term", "certify_annihilation",
        "check_cancellation_identities", "perturbed",
    ),
    "check": ("Check",),
    "exact": ("Polynomial", "integer_roots"),
    "guess": (
        "GuessNotFoundError", "GuessResult", "InsufficientTermsError",
        "guess_recurrence", "minimal_guess", "required_terms",
    ),
    "oeis": (
        "BFileParseError", "BFileStructureError", "FetchError", "OfflineError",
        "bundled_a032123", "compare_sequence", "fetch_bfile", "parse_bfile",
    ),
    "operators": ("LclmCapError", "ShiftOperator", "builtin_operator", "lclm", "verify_range"),
    "sequences": (
        "BFileSequence", "SequenceSource", "TermRangeError", "builtin_sequence",
        "orbit_count_oracle", "series_inv_sqrt", "verify_ogf",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("certify", "check", "cli", "exact", "guess", "linalg", "oeis", "operators",
               "sequences")

__all__ = sorted(_ORIGIN)


def __getattr__(name: str):
    """Import the submodule ``name``, or the one that defines ``name``, on first access."""
    module = _ORIGIN.get(name, name if name in _SUBMODULES else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f"{__name__}.{module}")
    if module != name:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
