"""OEIS b-file ingestion, comparison against sequence sources, and caching.

A b-file is plain text, one ``index value`` pair per line, ``#`` comments
and blank lines allowed. Indices must be contiguous; every downstream
consumer assumes gap-free windows. Fetching hits
``https://oeis.org/<id>/b<digits>.txt`` once and caches the raw bytes, only
after they decode and parse, so a bad body never reaches the cache; a
bundled 20-term A032123 fixture keeps the whole test suite offline.
``read_file`` is the one way a file is read: a b-file, cached or bundled, and
the CLI's operator and term files. It and a fetch refuse more than
``MAX_FILE_BYTES``, reading at most one byte past the cap, and bytes that are
not UTF-8, naming the file or URL and the offset of the first bad byte.
"""
from __future__ import annotations

import os
import re
import sys
from pathlib import Path

from .check import Check, decimal
from .sequences import BFileSequence, SequenceSource

CACHE_ENV_VAR = "RECURRA_CACHE"
_ID_RE = re.compile(r"\AA\d{6}\Z")
_INT_RE = re.compile(r"[+-]?[0-9]+")
#: How much of an offending line a parse error echoes.
_ECHO_CHARS = 80
#: Seconds a b-file fetch may wait on oeis.org before it fails.
FETCH_TIMEOUT_S = 30.0
#: Most bytes ``read_file`` accepts. The longest A032123 b-file whose values
#: all fit under the int parsing limit, on 0..7146, takes 14.7 MiB.
MAX_FILE_BYTES = 64 << 20
#: Most bytes one read asks for, so a small file allocates no 64 MiB buffer.
_CHUNK_BYTES = 64 << 10


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


def read_file(path: str | Path) -> str:
    """The UTF-8 text of the file at path, refused past ``MAX_FILE_BYTES``.

    At most one byte past the cap is read, so a device such as ``/dev/zero``
    fails at once instead of filling memory; a pipe reads as a file does.
    """
    with open(path, "rb") as f:
        return _decode(_read_capped(f, path), path)


def _decode(data: bytes, name: str | Path) -> str:
    """data as UTF-8 text; ValueError, naming name and the offset of the first bad byte."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ValueError(f"{name} is not UTF-8 text: {e.reason} at byte {e.start}") from None


def _read_capped(stream, name: str | Path) -> bytearray:
    """The bytes of a binary stream up to EOF, read ``_CHUNK_BYTES`` at a
    time; ValueError, naming name, at the first byte past ``MAX_FILE_BYTES``."""
    data = bytearray()
    while chunk := stream.read(min(_CHUNK_BYTES, MAX_FILE_BYTES + 1 - len(data))):
        data += chunk
        if len(data) > MAX_FILE_BYTES:
            raise ValueError(f"{name} holds more than the cap MAX_FILE_BYTES = "
                             f"{MAX_FILE_BYTES} bytes")
    return data


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
    """A decimal integer token: an optional sign, then ASCII digits only."""
    if not _INT_RE.fullmatch(token):
        raise BFileParseError(line_no, line)
    try:
        return int(token)
    except ValueError:  # only the int-from-string digit limit refuses such a token
        pass
    limit = sys.get_int_max_str_digits()
    raise BFileParseError(
        line_no, line,
        f"value has {len(token.lstrip('+-'))} digits, more than the int parsing limit of {limit} "
        "(sys.get_int_max_str_digits()), which stays on for untrusted input on purpose",
    )


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
) -> BFileSequence:
    """Return the cached b-file, fetching it from oeis.org on a cold cache.

    Offline mode never touches the network and errors on a cache miss. A
    body over ``MAX_FILE_BYTES``, or one that does not decode and parse, is
    refused as ``read_file`` and ``parse_bfile`` refuse a file, and nothing is
    cached: a refresh keeps the old file. Cache writes go through a temp file
    and an atomic rename, so concurrent fetchers never see a torn file. The
    network modules are imported here, so importing the package loads none of
    them.
    """
    import tempfile
    import urllib.error
    import urllib.request

    if not _ID_RE.match(sequence_id):
        raise ValueError(f"sequence id must match A followed by 6 digits, got {sequence_id!r}")
    cache_dir = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    cache_path = cache_dir / f"{sequence_id}.txt"

    if cache_path.exists() and not refresh:
        return parse_bfile(
            read_file(cache_path), sequence_id=sequence_id, source=str(cache_path)
        )
    if offline:
        raise OfflineError(
            f"{sequence_id} is not cached at {cache_path} and offline mode forbids fetching"
        )

    url = bfile_url(sequence_id)
    try:
        with urllib.request.urlopen(url, timeout=FETCH_TIMEOUT_S) as resp:
            status = getattr(resp, "status", 200)
            if status != 200:
                raise FetchError(f"GET {url} returned HTTP {status}")
            raw = _read_capped(resp, url)
    except urllib.error.HTTPError as e:
        raise FetchError(f"GET {url} returned HTTP {e.code}") from e
    except urllib.error.URLError as e:
        raise FetchError(f"GET {url} failed: {e.reason}") from e

    b = parse_bfile(_decode(raw, url), sequence_id=sequence_id, source=url)
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
    return b


def compare_sequence(s: SequenceSource, b: BFileSequence, n_from: int, n_to: int) -> Check:
    """Compare s against b term by term on an index range.

    A mismatch's witness is ``(n, source value, b-file value)``. A range
    past either source is refused before any term is read.
    """
    if n_from > n_to:
        raise ValueError("empty comparison range")
    b.check_range(n_from, n_to)
    s.check_range(n_from, n_to)
    for i, sv, bv in zip(range(n_from, n_to + 1), s.run(n_from), b.run(n_from)):
        if sv != bv:
            detail = f"mismatch at n={i}: {decimal(sv)} != {decimal(bv)}"
            return Check("compare", False, detail, (i, sv, bv))
    return Check("compare", True, f"all terms equal on {n_from}..{n_to}")


def bundled_a032123() -> BFileSequence:
    """The in-repo 20-term A032123 fixture; keeps everything offline."""
    text = read_file(Path(__file__).parent / "data" / "b032123_first20.txt")
    return parse_bfile(text, sequence_id="A032123", source="bundled fixture")
