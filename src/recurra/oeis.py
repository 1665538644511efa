"""OEIS b-file ingestion, comparison against sequence sources, and caching.

A b-file is plain text, one ``index value`` pair per line, ``#`` comments
and blank lines allowed. Indices must be contiguous; every downstream
consumer assumes gap-free windows. Fetching hits
``https://oeis.org/<id>/b<digits>.txt`` once and caches the raw bytes; a
bundled 20-term A032123 fixture keeps the whole test suite offline.
"""
from __future__ import annotations

import os
import re
import sys
import tempfile
import urllib.error
import urllib.request
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .sequences import BFileSequence, SequenceSource

CACHE_ENV_VAR = "RECURRA_CACHE"
_ID_RE = re.compile(r"\AA\d{6}\Z")
#: How much of an offending line a parse error echoes.
_ECHO_CHARS = 80


class BFileError(ValueError):
    """Base for b-file ingestion problems."""


class BFileParseError(BFileError):
    """A line is not two integer tokens; the message shows at most its start."""

    def __init__(self, line_no: int, line: str, problem: str = "expected '<index> <value>'"):
        shown = repr(line[:_ECHO_CHARS])
        if len(line) > _ECHO_CHARS:
            shown += f"... ({len(line)} characters)"
        super().__init__(f"line {line_no}: {problem}, got {shown}")
        self.line_no = line_no


class BFileStructureError(BFileError):
    """Indices are not contiguous."""


class OfflineError(RuntimeError):
    """A network fetch was required but offline mode is active."""


class FetchError(RuntimeError):
    """The HTTP fetch failed (network error or non-200 status)."""


class CoverageError(ValueError):
    """A comparison range is not covered by both sources."""


def parse_bfile(text: str, sequence_id: str = "", source: str = "") -> BFileSequence:
    """Parse b-file text; comments and blank lines are skipped."""
    entries: list[tuple[int, int]] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        if len(tokens) != 2:
            raise BFileParseError(line_no, line)
        idx, val = (_parse_int(t, line_no, line) for t in tokens)
        entries.append((idx, val))
    if not entries:
        raise BFileStructureError("no data lines found")
    for (i1, _), (i2, _) in zip(entries, entries[1:]):
        if i2 != i1 + 1:
            raise BFileStructureError(
                f"indices must increase by 1; gap between {i1} and {i2}"
            )
    return BFileSequence(
        sequence_id or "b-file", entries[0][0], [v for _, v in entries], source
    )


def _parse_int(token: str, line_no: int, line: str) -> int:
    try:
        return int(token)
    except ValueError:
        pass
    digits = token.lstrip("+-")
    get_limit = getattr(sys, "get_int_max_str_digits", None)  # absent before 3.10.7
    limit = get_limit() if get_limit is not None else 0
    if limit and digits.isdecimal() and len(digits) > limit:
        raise BFileParseError(
            line_no, line,
            f"value has {len(digits)} digits, more than the int parsing limit of {limit} "
            "(sys.get_int_max_str_digits()), which stays on for untrusted input on purpose",
        )
    raise BFileParseError(line_no, line)


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "recurra"


def bfile_url(sequence_id: str) -> str:
    return f"https://oeis.org/{sequence_id}/b{sequence_id[1:]}.txt"


def fetch_bfile(
    sequence_id: str,
    cache_dir: str | Path | None = None,
    *,
    offline: bool = False,
    refresh: bool = False,
    timeout: float = 30.0,
) -> BFileSequence:
    """Return the cached b-file, fetching it from oeis.org on a cold cache.

    Offline mode never touches the network and errors on a cache miss.
    Cache writes go through a temp file and an atomic rename, so concurrent
    fetchers never see a torn file.
    """
    if not _ID_RE.match(sequence_id):
        raise ValueError(f"sequence id must match A followed by 6 digits, got {sequence_id!r}")
    cache_dir = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    cache_path = cache_dir / f"{sequence_id}.txt"

    if cache_path.exists() and not refresh:
        return parse_bfile(
            cache_path.read_text(), sequence_id=sequence_id, source=str(cache_path)
        )
    if offline:
        raise OfflineError(
            f"{sequence_id} is not cached at {cache_path} and offline mode forbids fetching"
        )

    url = bfile_url(sequence_id)
    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            status = getattr(resp, "status", 200)
            if status != 200:
                raise FetchError(f"GET {url} returned HTTP {status}")
            raw = resp.read()
    except urllib.error.HTTPError as e:
        raise FetchError(f"GET {url} returned HTTP {e.code}") from e
    except urllib.error.URLError as e:
        raise FetchError(f"GET {url} failed: {e.reason}") from e

    cache_dir.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=cache_dir, prefix=f".{sequence_id}.")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(raw)
        os.replace(tmp_name, cache_path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise
    return parse_bfile(raw.decode("utf-8"), sequence_id=sequence_id, source=url)


@dataclass(frozen=True)
class CompareReport:
    """Per-index equality of a sequence source against a b-file window."""

    n_from: int
    n_to: int
    passed: bool
    empty: bool = False
    first_mismatch: tuple[int, int, int] | None = None  # (n, source value, b-file value)

    def detail(self) -> str:
        if self.empty:
            return "empty range (vacuous pass)"
        if self.passed:
            return f"all terms equal on {self.n_from}..{self.n_to}"
        i, a, b = self.first_mismatch
        return f"mismatch at n={i}: {a} != {b}"


def compare_sequence(
    s: SequenceSource, b: BFileSequence, n_from: int, n_to: int
) -> CompareReport:
    """Compare s against b term by term on an index range."""
    if n_from > n_to:
        return CompareReport(n_from, n_to, passed=True, empty=True)
    for src in (b, s):
        if n_from < src.min_index or (src.max_index is not None and n_to > src.max_index):
            hi = src.max_index if src.max_index is not None else "inf"
            raise CoverageError(
                f"{src.name} covers {src.min_index}..{hi}, requested {n_from}..{n_to}"
            )
    for i in range(n_from, n_to + 1):
        sv, bv = s.term(i), b.term(i)
        if sv != bv:
            return CompareReport(n_from, n_to, passed=False, first_mismatch=(i, sv, bv))
    return CompareReport(n_from, n_to, passed=True)


def bundled_a032123() -> BFileSequence:
    """The in-repo 20-term A032123 fixture; keeps everything offline."""
    text = resources.files("recurra").joinpath("data/b032123_first20.txt").read_text()
    return parse_bfile(text, sequence_id="A032123", source="bundled fixture")
