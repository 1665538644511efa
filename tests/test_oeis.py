import sys
import urllib.error

import pytest

from recurra.oeis import (
    BFileParseError,
    BFileSequence,
    BFileStructureError,
    CoverageError,
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
    text = b.to_text()
    assert text == "3 10\n4 38\n5 126\n"
    assert window(parse_bfile(text, sequence_id="A032123")) == window(b)


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
    assert rep.first_mismatch == (1, 2, 1)


def test_compare_empty_range_is_vacuous():
    rep = compare_sequence(builtin_sequence("A032123"), bundled_a032123(), 7, 3)
    assert rep.passed and rep.empty
    assert "empty" in rep.detail()


def test_compare_rejects_uncovered_range():
    with pytest.raises(CoverageError, match="0..19"):
        compare_sequence(builtin_sequence("A032123"), bundled_a032123(), 0, 25)
    with pytest.raises(CoverageError, match="A005418"):
        compare_sequence(builtin_sequence("A005418"), bundled_a032123(), 0, 5)


def test_fetch_rejects_bad_id():
    with pytest.raises(ValueError, match="6 digits"):
        fetch_bfile("32123", cache_dir="/nonexistent")


def test_bfile_url():
    assert bfile_url("A032123") == "https://oeis.org/A032123/b032123.txt"


def test_fetch_warm_cache_never_touches_network(tmp_path, monkeypatch):
    (tmp_path / "A032123.txt").write_text(bundled_a032123().to_text())

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
        self._payload = payload
        self.status = 200

    def read(self):
        return self._payload

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def test_fetch_cold_cache_online_populates_cache(tmp_path, monkeypatch):
    payload = bundled_a032123().to_text().encode()
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
