"""The one record every exact check reports through, and how it writes and
reads integers of any length.

An exact check either holds or fails with a concrete witness: the index and
residual of a sweep, or the index and both values of a comparison.
"""
from __future__ import annotations

from typing import NamedTuple

#: ``decimal`` and ``from_decimal`` convert integers in chunks of this many
#: digits, each well under CPython's int/str digit cap, so neither depends on
#: that cap.
_CHUNK_DIGITS = 1000
_CHUNK = 10**_CHUNK_DIGITS


class Check(NamedTuple):
    """Verdict of one exact check; ``witness`` holds the failing values."""

    name: str
    passed: bool
    detail: str
    witness: tuple[int, ...] | None = None
    seconds: float = 0.0


def decimal(x: int) -> str:
    """``str(x)`` for an int of any length, without touching the digit cap."""
    if x < 0:
        return "-" + decimal(-x)
    chunks = []
    while x >= _CHUNK:
        x, low = divmod(x, _CHUNK)
        chunks.append(str(low).zfill(_CHUNK_DIGITS))
    chunks.append(str(x))
    return "".join(reversed(chunks))


def from_decimal(text: str) -> int:
    """``int(text)`` for a decimal digit string of any length, optionally
    signed with ``-``, without touching the digit cap; ``decimal``'s inverse.

    Bound the length before calling: the work grows with its square.
    """
    if text.startswith("-"):
        return -from_decimal(text[1:])
    value = 0
    for i in range(0, len(text), _CHUNK_DIGITS):
        chunk = text[i : i + _CHUNK_DIGITS]
        value = value * 10 ** len(chunk) + int(chunk)
    return value
