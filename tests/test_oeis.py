import io
import sys
import urllib.error
from importlib import resources

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from recurra import oeis
from recurra.cli import EXIT_FAIL, main
from recurra.oeis import (
    BFileParseError,
    BFileSequence,
    BFileStructureError,
    FetchError,
    OfflineError,
    bfile_url,
    bundled_a032123,
    compare_sequence,
    fetch_bfile,
    parse_bfile,
)
from recurra.sequences import SequenceSource, TermRangeError, builtin_sequence

A032123_HEAD = [1, 1, 4, 10, 38, 126, 472, 1716, 6470, 24310, 92504, 352716, 1352540]
#: The packaged 20-term A032123 b-file, as the bundled fixture reads it.
BUNDLED_TEXT = resources.files("recurra").joinpath("data/b032123_first20.txt").read_text()


def window(b):
    """What identifies a b-file window: its name, first index and terms."""
    return b.name, b.min_index, b.values


def test_parse_basic():
    b = parse_bfile("0 1\n1 1\n2 4\n3 10")
    assert b.min_index == 0
    assert b.values == (1, 1, 4, 10)


def test_parse_comments_and_blanks():
    b = parse_bfile("# comment\n\n5 42")
    assert b.min_index == 5
    assert b.values == (42,)


def test_parse_negative_values_and_offsets():
    b = parse_bfile("-2 -7\n-1 0\n0 7")
    assert b.min_index == -2
    assert b.values == (-7, 0, 7)


def test_parse_gap_is_structure_error():
    with pytest.raises(BFileStructureError, match="gap"):
        parse_bfile("0 1\n2 4")


def test_parse_malformed_line_reports_line_number():
    with pytest.raises(BFileParseError, match="line 2"):
        parse_bfile("0 1\n1 two\n2 4")
    with pytest.raises(BFileParseError, match="line 1"):
        parse_bfile("0 1 extra")


def test_parse_accepts_only_ascii_decimal_tokens():
    # int() alone reads "1_000" as 1000 and the Arabic-Indic digit three as 3.
    for text, line_no in [("0 1_000\n1 \u0663\n", 1), ("0 1000\n1 \u0663\n", 2)]:
        with pytest.raises(BFileParseError, match=f"line {line_no}: expected"):
            parse_bfile(text)
    assert parse_bfile("+0 -1000\n1 +3\n").values == (-1000, 3)


@pytest.mark.parametrize("token", ["1_000", "\u0663", "\uff15", "-\u0967\u0966"])
def test_parse_refuses_tokens_int_alone_would_read(token):
    int(token)  # underscores, Arabic-Indic, fullwidth and Devanagari digits all read
    for line in (f"{token} 1", f"0 {token}"):
        with pytest.raises(BFileParseError, match="line 1: expected"):
            parse_bfile(line)


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int parsing digit cap"
)
def test_parse_value_over_the_int_digit_cap_names_the_cap():
    limit = sys.get_int_max_str_digits()
    digits = limit + 700
    with pytest.raises(BFileParseError, match="line 2") as exc:
        parse_bfile("0 1\n1 " + "9" * digits)
    msg = str(exc.value)
    assert f"value has {digits} digits" in msg
    assert f"limit of {limit}" in msg
    assert "untrusted input" in msg
    assert len(msg) < 400  # the line is echoed only in part
    assert sys.get_int_max_str_digits() == limit  # parsing keeps the cap


def test_parse_error_echoes_only_the_start_of_a_long_line():
    line = "1 two " + "x" * 5000
    with pytest.raises(BFileParseError, match="line 2: expected '<index> <value>'") as exc:
        parse_bfile("0 1\n" + line)
    msg = str(exc.value)
    assert repr(line[:80]) in msg and repr(line[:81]) not in msg
    assert f"({len(line)} characters)" in msg


def test_parse_empty_is_error():
    with pytest.raises(BFileStructureError):
        parse_bfile("# nothing\n\n")


def test_round_trip_is_bit_exact():
    b = parse_bfile("3 10\n4 38\n5 126", sequence_id="A032123")
    assert window(b) == ("A032123", 3, (10, 38, 126))
    assert window(parse_bfile("3 10\n4 38\n5 126\n", sequence_id="A032123")) == window(b)


#: CPython's int-from-string digit cap, which the b-file parser keeps.
_DIGIT_CAP = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 4300


@st.composite
def _values(draw):
    """An int of 1 to _DIGIT_CAP digits, either sign."""
    digits = draw(st.integers(1, 40) | st.integers(1, _DIGIT_CAP))
    low = 10 ** (digits - 1) if digits > 1 else 0
    return draw(st.sampled_from([1, -1])) * draw(st.integers(low, 10**digits - 1))


@settings(deadline=None, max_examples=40)
@example(-5, [-(10**_DIGIT_CAP - 1), 10**_DIGIT_CAP - 1, 0])
@given(st.integers(-(10**6), 10**6), st.lists(_values(), min_size=1, max_size=8))
def test_to_text_round_trips_through_parse(offset, values):
    text = "".join(f"{offset + i} {v}\n" for i, v in enumerate(values))
    assert window(parse_bfile(text, sequence_id="A000001")) == ("A000001", offset, tuple(values))


def test_index_window():
    b = parse_bfile("3 10\n4 38")
    assert (b.min_index, b.max_index) == (3, 4)
    assert b.terms(3, 4) == [10, 38]


def test_bundled_fixture_matches_closed_form():
    b = bundled_a032123()
    assert b.min_index == 0 and len(b.values) == 20
    assert list(b.values[:13]) == A032123_HEAD
    rep = compare_sequence(builtin_sequence("A032123"), b, 0, 19)
    assert rep.passed


def test_compare_reports_first_mismatch():
    b = bundled_a032123()
    rep = compare_sequence(builtin_sequence("A005418"), b, 1, 5)
    assert not rep.passed
    # A005418: 2, 3, 6, ... vs A032123: 1, 4, 10, ... differ from n = 1
    assert rep.witness == (1, 2, 1)


def test_compare_empty_range_is_refused():
    with pytest.raises(ValueError, match="empty comparison range"):
        compare_sequence(builtin_sequence("A032123"), bundled_a032123(), 7, 3)


def test_compare_rejects_uncovered_range():
    with pytest.raises(TermRangeError, match="0..19"):
        compare_sequence(builtin_sequence("A032123"), bundled_a032123(), 0, 25)
    with pytest.raises(TermRangeError, match="A005418"):
        compare_sequence(builtin_sequence("A005418"), bundled_a032123(), 0, 5)


def test_fetch_rejects_bad_id():
    with pytest.raises(ValueError, match="6 digits"):
        fetch_bfile("32123", cache_dir="/nonexistent")


def test_bfile_url():
    assert bfile_url("A032123") == "https://oeis.org/A032123/b032123.txt"


def test_fetch_warm_cache_never_touches_network(tmp_path, monkeypatch):
    (tmp_path / "A032123.txt").write_text(BUNDLED_TEXT)

    def explode(*a, **kw):  # any network call is a test failure
        raise AssertionError("network touched on a warm cache")

    monkeypatch.setattr("urllib.request.urlopen", explode)
    b = fetch_bfile("A032123", cache_dir=tmp_path)
    assert b.values[:4] == (1, 1, 4, 10)
    again = fetch_bfile("A032123", cache_dir=tmp_path)
    assert window(again) == window(b)


def test_fetch_cold_cache_offline_errors(tmp_path, monkeypatch):
    def explode(*a, **kw):
        raise AssertionError("network touched in offline mode")

    monkeypatch.setattr("urllib.request.urlopen", explode)
    with pytest.raises(OfflineError, match="offline"):
        fetch_bfile("A032123", cache_dir=tmp_path, offline=True)


class _FakeResponse:
    def __init__(self, payload: bytes):
        self.body = io.BytesIO(payload)
        self.status = 200

    def read(self, size=-1):
        return self.body.read(size)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def test_fetch_cold_cache_online_populates_cache(tmp_path, monkeypatch):
    payload = BUNDLED_TEXT.encode()
    calls = []

    def fake_urlopen(url, timeout=None):
        calls.append(url)
        return _FakeResponse(payload)

    monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
    b = fetch_bfile("A032123", cache_dir=tmp_path)
    assert calls == ["https://oeis.org/A032123/b032123.txt"]
    assert b.values[:13] == tuple(A032123_HEAD)
    assert (tmp_path / "A032123.txt").read_bytes() == payload
    assert b.source == "https://oeis.org/A032123/b032123.txt"

    # second call is a cache hit: no further network operations
    b2 = fetch_bfile("A032123", cache_dir=tmp_path)
    assert calls == ["https://oeis.org/A032123/b032123.txt"]
    assert window(b2) == window(b)
    assert b2.source == str(tmp_path / "A032123.txt")


def test_fetch_network_failure_is_fetch_error(tmp_path, monkeypatch):
    def fail(url, timeout=None):
        raise urllib.error.URLError("unreachable")

    monkeypatch.setattr("urllib.request.urlopen", fail)
    with pytest.raises(FetchError, match="failed"):
        fetch_bfile("A032123", cache_dir=tmp_path)


def test_fetch_http_error_is_fetch_error(tmp_path, monkeypatch):
    def fail(url, timeout=None):
        raise urllib.error.HTTPError(url, 404, "not found", None, None)

    monkeypatch.setattr("urllib.request.urlopen", fail)
    with pytest.raises(FetchError, match="404"):
        fetch_bfile("A032123", cache_dir=tmp_path)


def test_refresh_forces_refetch(tmp_path, monkeypatch):
    (tmp_path / "A032123.txt").write_text("0 999\n")
    payload = b"0 1\n1 1\n"
    monkeypatch.setattr(
        "urllib.request.urlopen", lambda url, timeout=None: _FakeResponse(payload)
    )
    b = fetch_bfile("A032123", cache_dir=tmp_path, refresh=True)
    assert b.values == (1, 1)
    assert (tmp_path / "A032123.txt").read_bytes() == payload


@pytest.mark.parametrize("payload, error, message", [
    (b"<html><body>Not found</body></html>\n", BFileParseError, "line 1: expected"),
    (b"\xff\xfe0 1\n", ValueError,
     f"{bfile_url('A032123')} is not UTF-8 text: invalid start byte at byte 0"),
], ids=["html", "not-utf8"])
def test_a_fetched_body_that_does_not_parse_is_not_cached(
    tmp_path, monkeypatch, payload, error, message
):
    monkeypatch.setattr(
        "urllib.request.urlopen", lambda url, timeout=None: _FakeResponse(payload)
    )
    with pytest.raises(error) as refused:
        fetch_bfile("A032123", cache_dir=tmp_path)
    assert str(refused.value).startswith(message)
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(OfflineError):
        fetch_bfile("A032123", cache_dir=tmp_path, offline=True)


def test_a_refresh_whose_body_does_not_parse_keeps_the_cached_file(tmp_path, monkeypatch):
    cached = tmp_path / "A032123.txt"
    cached.write_text(BUNDLED_TEXT)
    good = cached.read_bytes()
    monkeypatch.setattr(
        "urllib.request.urlopen", lambda url, timeout=None: _FakeResponse(b"<html></html>\n")
    )
    with pytest.raises(BFileParseError):
        fetch_bfile("A032123", cache_dir=tmp_path, refresh=True)
    assert cached.read_bytes() == good
    assert [p.name for p in tmp_path.iterdir()] == ["A032123.txt"]
    assert fetch_bfile("A032123", cache_dir=tmp_path, offline=True).values[:13] == tuple(
        A032123_HEAD
    )


def test_a_fetched_body_over_the_byte_cap_is_refused_and_not_cached(
    tmp_path, monkeypatch, capsys
):
    payload = BUNDLED_TEXT.encode()
    responses = []

    def fake_urlopen(url, timeout=None):
        responses.append(_FakeResponse(payload * 10))
        return responses[-1]

    monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
    monkeypatch.setattr(oeis, "MAX_FILE_BYTES", len(payload))
    message = (f"{bfile_url('A032123')} holds more than the cap MAX_FILE_BYTES = "
               f"{len(payload)} bytes")
    with pytest.raises(ValueError) as refused:
        fetch_bfile("A032123", cache_dir=tmp_path)
    assert str(refused.value) == message
    assert responses[-1].body.tell() == len(payload) + 1  # one byte past the cap
    assert list(tmp_path.iterdir()) == []
    assert main(["--cache-dir", str(tmp_path), "bfile", "fetch", "A032123"]) == EXIT_FAIL
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_bfile_is_a_sequence_source():
    s = bundled_a032123()
    assert isinstance(s, SequenceSource)
    assert s.term(12) == 1352540
    assert s.min_index == 0 and s.max_index == 19


def test_bfile_term_range():
    b = BFileSequence("X", 2, (5, 6))
    assert b.term(3) == 6
    with pytest.raises(TermRangeError):
        b.term(4)
