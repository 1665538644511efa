import hashlib
import json
import math
import os
import re
import sys
import time
from functools import partial
from importlib import resources

import pytest

from recurra.certify import HyperTermSpec, perturbed
from recurra.check import Check, decimal
from recurra.cli import (
    EXIT_FAIL,
    EXIT_IO,
    EXIT_PASS,
    EXIT_USAGE,
    _PARSER,
    _certify,
    _run_stages,
    main,
    render,
    run_prove_a032123,
)
from recurra import oeis, operators
from recurra.exact import Polynomial
from recurra.operators import (
    MAX_SWEEP_WORK,
    LclmCapError,
    ShiftOperator,
    builtin_operator,
    lclm,
    verify_range,
)
from recurra.sequences import (
    MAX_INDEX,
    builtin_sequence,
    orbit_count_oracle,
)

A032123_HEAD = [1, 1, 4, 10, 38, 126, 472, 1716, 6470, 24310, 92504, 352716, 1352540]
#: The packaged 20-term A032123 b-file, as the bundled fixture reads it.
BUNDLED_TEXT = resources.files("recurra").joinpath("data/b032123_first20.txt").read_text()


def test_gen_matches_catalogued_terms(capsys):
    code = main(["gen", "A032123", "--from", "0", "--to", "12"])
    out = capsys.readouterr().out
    assert code == EXIT_PASS
    assert [int(x) for x in out.split()] == A032123_HEAD


def test_gen_unknown_sequence_fails(capsys):
    code = main(["gen", "A999999", "--from", "0", "--to", "3"])
    assert code == EXIT_FAIL
    assert "unknown sequence" in capsys.readouterr().err


_BUILTIN_NAMES = {
    "operator": ("mathar", "u-op", "v-op"),
    "term": ("u-spec", "v-spec"),
    "sequence": ("A005418", "A032123", "aerated-central-binomial", "central-binomial"),
}


@pytest.mark.parametrize(
    "argv, kind, spec",
    [
        (["verify", "--operator", "mathr", "--sequence", "A032123", "--from", "6", "--to", "9"],
         "operator", "mathr"),
        (["certify", "--operator", "mathr", "--term", "u-spec"], "operator", "mathr"),
        (["certify", "--operator", "mathar", "--term", "u-spc"], "term", "u-spc"),
        (["verify", "--operator", "mathar", "--sequence", "A03212", "--from", "6", "--to", "9"],
         "sequence", "A03212"),
        (["gen", "A03212", "--from", "0", "--to", "3"], "sequence", "A03212"),
        (["verify", "--operator", "", "--sequence", "A032123", "--from", "6", "--to", "9"],
         "operator", ""),
        (["verify", "--operator", "mathar", "--sequence", "", "--from", "6", "--to", "9"],
         "sequence", ""),
        (["certify", "--operator", "mathar", "--term", ""], "term", ""),
    ],
    ids=["verify-operator", "certify-operator", "certify-term", "verify-sequence", "gen",
         "empty-operator", "empty-sequence", "empty-term"],
)
def test_a_misspelled_name_lists_the_builtins_and_no_file(
    tmp_path, monkeypatch, capsys, argv, kind, spec
):
    monkeypatch.chdir(tmp_path)  # no file of that name either; "" is the directory
    assert main(argv) == EXIT_FAIL
    names = ", ".join(_BUILTIN_NAMES[kind])
    assert capsys.readouterr().err == (
        f"error: unknown {kind} {spec!r}; builtins: {names}; no file of that name either\n"
    )


@pytest.mark.parametrize("argv", [
    ["verify", "--operator", "mathar", "--sequence", "A032123", "--from", "6", "--to", "9"],
    ["certify", "--operator", "mathar", "--term", "u-spec"],
], ids=["verify", "certify"])
def test_a_builtin_wins_over_a_same_named_file(tmp_path, monkeypatch, capsys, argv):
    for name in ("mathar", "u-spec", "A032123"):
        (tmp_path / name).write_text("garbage\n")
    monkeypatch.chdir(tmp_path)
    assert main(argv) == EXIT_PASS
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", [
    ["verify", "--operator", "{file}", "--sequence", "A032123", "--from", "6", "--to", "10"],
    ["verify", "--operator", "mathar", "--sequence", "{file}", "--from", "6", "--to", "10"],
    ["bfile", "parse", "{file}"],
], ids=["operator", "sequence", "bfile-parse"])
def test_a_file_that_is_not_utf8_is_named_with_its_bad_byte(tmp_path, capsys, argv):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\xff\xfe")
    assert main([a.format(file=path) for a in argv]) == EXIT_FAIL
    assert capsys.readouterr().err == (
        f"error: {path} is not UTF-8 text: invalid start byte at byte 0\n"
    )


def test_a_read_error_on_an_existing_path_is_io(tmp_path, capsys):
    assert main(["certify", "--operator", str(tmp_path), "--term", "u-spec"]) == EXIT_IO
    assert capsys.readouterr().err.startswith("error: [Errno")


@pytest.mark.parametrize("argv", [
    ["verify", "--operator", "{file}", "--sequence", "A032123", "--from", "6", "--to", "19"],
    ["verify", "--operator", "mathar", "--sequence", "{file}", "--from", "6", "--to", "19"],
    ["bfile", "parse", "{file}"],
    ["bfile", "compare", "--sequence", "A032123", "--bfile", "{file}", "--from", "0", "--to", "19"],
    ["--offline", "--cache-dir", "{dir}", "bfile", "fetch", "A032123"],
], ids=["operator", "sequence", "bfile-parse", "bfile-compare", "cached-fetch"])
def test_a_file_over_the_byte_cap_is_refused(tmp_path, monkeypatch, capsys, argv):
    path = tmp_path / "A032123.txt"  # the name a cached fetch reads
    operator_file = argv[1:3] == ["--operator", "{file}"]
    text = builtin_operator("mathar").to_json() if operator_file else BUNDLED_TEXT
    path.write_text(text)
    argv = [a.format(file=path, dir=tmp_path) for a in argv]
    size = len(text.encode())
    monkeypatch.setattr(oeis, "MAX_FILE_BYTES", size)
    assert main(argv) == EXIT_PASS
    capsys.readouterr()
    monkeypatch.setattr(oeis, "MAX_FILE_BYTES", size - 1)
    assert main(argv) == EXIT_FAIL
    assert capsys.readouterr().err == (
        f"error: {path} holds more than the cap MAX_FILE_BYTES = {size - 1} bytes\n"
    )


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
def test_an_endless_file_is_refused_at_the_byte_cap(monkeypatch, capsys):
    monkeypatch.setattr(oeis, "MAX_FILE_BYTES", 1000)
    argv = ["verify", "--operator", "/dev/zero", "--sequence", "A032123", "--from", "6", "--to", "10"]
    assert main(argv) == EXIT_FAIL
    assert capsys.readouterr().err == (
        "error: /dev/zero holds more than the cap MAX_FILE_BYTES = 1000 bytes\n"
    )


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
def test_a_bfile_on_a_pipe_is_read(fresh_python):
    code = "import sys\nfrom recurra.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    argv = ["verify", "--operator", "mathar", "--sequence", "/dev/stdin", "--from", "6",
            "--to", "19"]
    done = fresh_python(code, *argv, input=BUNDLED_TEXT)
    assert done.returncode == EXIT_PASS, done.stderr
    assert done.stdout == "PASS\n"


def test_gen_out_of_range_fails(capsys):
    code = main(["gen", "A005418", "--from", "0", "--to", "3"])
    assert code == EXIT_FAIL


def test_gen_past_max_index_fails_at_once(capsys):
    past = str(MAX_INDEX + 1)
    start = time.perf_counter()
    assert main(["gen", "A032123", "--from", past, "--to", past]) == EXIT_FAIL
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        f"error: A032123 has no term at n={past} (available: 0..{MAX_INDEX})\n"
    )


def test_gen_past_max_index_prints_no_term(capsys):
    code = main(["gen", "A005418", "--from", str(MAX_INDEX - 1), "--to", str(MAX_INDEX + 1)])
    assert code == EXIT_FAIL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: A005418 has no term at n={MAX_INDEX + 1} (available: 1..{MAX_INDEX})\n"
    )


def test_gen_empty_range_is_an_error(capsys):
    code = main(["gen", "A032123", "--from", "9", "--to", "7"])
    assert code == EXIT_FAIL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: empty term range\n"


def test_gen_reads_a_bfile_path(tmp_path, capsys):
    bfile = tmp_path / "b.txt"
    bfile.write_text(BUNDLED_TEXT)
    code = main(["gen", str(bfile), "--from", "0", "--to", "2"])
    assert code == EXIT_PASS
    assert capsys.readouterr().out == "1\n1\n4\n"


def _a032123(k):
    return (math.comb(2 * k, k) + (math.comb(k, k // 2) if k % 2 == 0 else 0)) // 2


def _str_any_size(value):
    # CPython 3.11 refuses int-to-str beyond 4300 digits unless the cap is lifted.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit cap"
)
def test_gen_prints_terms_past_the_int_str_digit_cap(capsys):
    limit = sys.get_int_max_str_digits()
    code = main(["gen", "A032123", "--from", "7200", "--to", "7200"])
    out = capsys.readouterr().out
    assert code == EXIT_PASS
    assert out == _str_any_size(_a032123(7200)) + "\n"
    assert len(out) > 4301
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit cap"
)
def test_verify_prints_residuals_past_the_int_str_digit_cap(tmp_path, capsys):
    op_file = tmp_path / "mutated.json"
    op_file.write_text(perturbed(builtin_operator("mathar"), 0, 0).to_json())
    code = main(
        ["verify", "--operator", str(op_file), "--sequence", "A032123",
         "--from", "7200", "--to", "7200"]
    )
    assert code == EXIT_FAIL
    # the +1 on c_0 leaves exactly a(7200) as the residual
    expected = f"FAIL: residual {_str_any_size(_a032123(7200))} at n=7200\n"
    assert capsys.readouterr().out == expected


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit cap"
)
def test_verify_range_detail_past_the_int_str_digit_cap():
    limit = sys.get_int_max_str_digits()
    mutated = perturbed(builtin_operator("mathar"), 0, 0)
    rep = verify_range(mutated, builtin_sequence("A032123"), 7200, 7200)
    assert not rep.passed
    assert rep.witness == (7200, _a032123(7200))
    assert rep.detail == f"residual {_str_any_size(_a032123(7200))} at n=7200"
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit cap"
)
def test_prove_pipeline_prints_residuals_past_the_int_str_digit_cap(tmp_path, capsys):
    doc = json.loads(builtin_operator("mathar").to_json())
    assert doc["coeffs"][0][0] == "0"
    doc["coeffs"][0][0] = "1e5000"  # c_0 gains 10**5000
    op_file = tmp_path / "big.json"
    op_file.write_text(json.dumps(doc))
    code = main(
        ["--format", "machine", "prove-a032123", "--max-n", "50",
         "--operator", str(op_file)]
    )
    out = capsys.readouterr().out
    assert code == EXIT_FAIL
    assert "error:" not in out
    # mathar leaves zero at n = 5 and 6, so the residuals are 10**5000 * a(n)
    expected = (
        f"mathar-numeric\tFAIL\tresidual {_str_any_size(10**5000 * _a032123(6))} at n=6; "
        f"n=5 residual (informational): {_str_any_size(10**5000 * _a032123(5))}"
    )
    assert expected in out.splitlines()


def test_lclm_prints_coefficients_past_the_int_str_digit_cap(tmp_path, capsys):
    doc = json.loads(builtin_operator("u-op").to_json())
    doc["coeffs"][0][0] = "1e5000"  # c_0 = n + 10**5000
    op_file = tmp_path / "big.json"
    op_file.write_text(json.dumps(doc))
    code = main(["lclm", "--a", str(op_file), "--b", str(op_file)])
    captured = capsys.readouterr()
    assert code == EXIT_PASS
    assert captured.err == ""
    assert json.loads(captured.out)["coeffs"] == [["1" + "0" * 5000, "1"], ["2", "-4"]]


def test_certify_with_a_25_digit_root_bound_is_fast(tmp_path, capsys):
    term = {"step": 1, "p": ["0", "1"], "q": ["-1000000000000000000000007", "4"],
            "support": [0], "n_min": 1}
    term_file = tmp_path / "q25.json"
    term_file.write_text(json.dumps(term))
    start = time.perf_counter()
    code = main(["certify", "--operator", "u-op", "--term", str(term_file)])
    assert time.perf_counter() - start < 2.0
    assert code == EXIT_FAIL
    assert capsys.readouterr().out.startswith("NOT CERTIFIED: ")


def test_verify_pass(capsys):
    code = main(
        ["verify", "--operator", "mathar", "--sequence", "A032123",
         "--from", "6", "--to", "500"]
    )
    assert code == EXIT_PASS
    assert capsys.readouterr().out.strip() == "PASS"


def test_verify_fail_exit_code(capsys):
    code = main(
        ["verify", "--operator", "u-op", "--sequence", "A032123",
         "--from", "2", "--to", "10"]
    )
    assert code == EXIT_FAIL
    assert "FAIL" in capsys.readouterr().out


def test_verify_refuses_a_sweep_over_the_work_cap_at_once(tmp_path, capsys):
    # An order-31 operator of degree 150 that annihilates A032123; this sweep
    # took 705 s before the work cap.
    deep = ShiftOperator([Polynomial([1] * 149)] * 27) * builtin_operator("mathar")
    op_file = tmp_path / "deep.json"
    op_file.write_text(deep.to_json())
    start = time.perf_counter()
    code = main(
        ["verify", "--operator", str(op_file), "--sequence", "A032123",
         "--from", "32", "--to", str(MAX_INDEX)]
    )
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_FAIL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: sweeping 32..{MAX_INDEX} is ")
    assert captured.err.endswith(
        f" units of work, over the cap MAX_SWEEP_WORK = {MAX_SWEEP_WORK}\n"
    )


def test_verify_with_operator_and_bfile_files(tmp_path, capsys):
    op_file = tmp_path / "op.json"
    op_file.write_text(builtin_operator("mathar").to_json())
    bfile = tmp_path / "b.txt"
    bfile.write_text(BUNDLED_TEXT)
    code = main(
        ["verify", "--operator", str(op_file), "--sequence", str(bfile),
         "--from", "6", "--to", "19"]
    )
    assert code == EXIT_PASS


@pytest.mark.parametrize(
    "flag,doc",
    [
        ("--operator", {"convention": "backward", "coeffs": [["0", "1"], ["2", "-4"]]}),
        ("--operator", [["0", "1"], ["2", "-4"]]),
        ("--operator", {"convention": "backward", "order": 1, "coeffs": [[None], ["1"]]}),
        ("--operator", {"convention": "backward", "order": 2, "coeffs": [["1"], ["-4"]]}),
        ("--term", {"step": 1, "p": ["0", "1"], "support": [0], "n_min": 1}),
        ("--term", {"step": 1, "p": ["1/0"], "q": ["1"], "support": [0], "n_min": 1}),
    ],
    ids=["operator-without-order", "top-level-list", "null-coefficient", "order-mismatch",
         "term-without-q", "zero-denominator"],
)
def test_malformed_json_is_a_clean_error(tmp_path, capsys, flag, doc):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    argv = ["certify", "--operator", "mathar", "--term", "u-spec"]
    argv[argv.index(flag) + 1] = str(path)
    code = main(argv)
    err = capsys.readouterr().err
    assert code == EXIT_FAIL
    assert err.startswith("error: ") and "Traceback" not in err


def test_certify_pass(capsys):
    code = main(["certify", "--operator", "mathar", "--term", "u-spec"])
    assert code == EXIT_PASS
    assert "CERTIFIED" in capsys.readouterr().out


def test_certify_fail(capsys):
    code = main(["certify", "--operator", "u-op", "--term", "v-spec"])
    assert code == EXIT_FAIL


#: A term file for u-spec, n t(n) = (4n - 2) t(n - 1), with its n_min left open.
_U_SPEC = '{{"step": 1, "p": ["0", "1"], "q": ["-2", "4"], "support": [0], "n_min": {}}}'


def test_certify_with_term_file(tmp_path, capsys):
    from recurra.certify import builtin_term

    term_file = tmp_path / "term.json"
    term_file.write_text(_U_SPEC.format(1))
    assert HyperTermSpec.from_json(term_file.read_text()) == builtin_term("u-spec")
    code = main(["certify", "--operator", "mathar", "--term", str(term_file)])
    assert code == EXIT_PASS


def test_certify_reports_a_floor_of_any_length(tmp_path, capsys):
    # n_min = 10^5000, past CPython's int-to-str digit cap. mathar's six
    # shifts rewrite 4 steps deep in u-spec's chain, so the floor is n_min + 4.
    term_file = tmp_path / "term.json"
    term_file.write_text(_U_SPEC.format("1" + "0" * 5000))
    code = main(["certify", "--operator", "mathar", "--term", str(term_file)])
    assert code == EXIT_PASS
    assert capsys.readouterr().out == (
        "CERTIFIED: all residue numerators vanish; valid from n=1" + "0" * 4999 + "4\n"
    )


def test_guess_emits_operator_file(capsys):
    code = main(
        ["guess", "--sequence", "central-binomial", "--order", "1", "--degree", "1",
         "--terms", "41"]
    )
    assert code == EXIT_PASS
    doc = json.loads(capsys.readouterr().out)
    assert doc == json.loads(builtin_operator("u-op").to_json())


def test_guess_minimal(capsys):
    code = main(
        ["guess", "--sequence", "A032123", "--order", "5", "--degree", "4",
         "--terms", "80", "--minimal"]
    )
    assert code == EXIT_PASS
    doc = json.loads(capsys.readouterr().out)
    assert doc["order"] <= 3


@pytest.mark.parametrize("minimal", [[], ["--minimal"]], ids=["basis", "minimal"])
def test_guess_order_zero_is_refused(minimal, capsys):
    code = main(["guess", "--sequence", "A032123", "--order", "0", "--degree", "2", *minimal])
    assert code == EXIT_FAIL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: order must be >= 1 and degree >= 0\n"


def test_lclm_subcommand(capsys):
    code = main(["lclm", "--a", "u-op", "--b", "v-op"])
    assert code == EXIT_PASS
    doc = json.loads(capsys.readouterr().out)
    assert doc["order"] <= 3
    assert doc["convention"] == "backward"


def test_lclm_caps_exceeded(capsys):
    code = main(["lclm", "--a", "u-op", "--b", "v-op", "--order-cap", "2"])
    assert code == EXIT_FAIL
    assert "cap" in capsys.readouterr().err


def test_lclm_negative_degree_cap_names_both_bounds(capsys):
    code = main(["lclm", "--a", "u-op", "--b", "v-op", "--degree-cap", "-1"])
    assert code == EXIT_FAIL
    assert capsys.readouterr().err == (
        "error: order_cap must be >= 1 and degree_cap >= 0, got order_cap=8, degree_cap=-1\n"
    )


@pytest.mark.parametrize("flag", ["--operator", "--term"])
def test_deeply_nested_json_is_a_clean_error(tmp_path, capsys, flag):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    argv = ["certify", "--operator", "mathar", "--term", "u-spec"]
    argv[argv.index(flag) + 1] = str(path)
    code = main(argv)
    err = capsys.readouterr().err
    assert code == EXIT_FAIL
    assert err.startswith("error: ") and "nested too deeply" in err
    assert "Traceback" not in err


def test_parser_keeps_no_option_between_calls(capsys):
    # The parser is built once per process: a second call must see the defaults again.
    verify = ["verify", "--operator", "mathar", "--sequence", "A032123", "--from", "6", "--to", "50"]
    assert main(["--format", "machine", *verify]) == EXIT_PASS
    assert capsys.readouterr().out == "verify\tPASS\tall residuals zero on 6..50\n"
    assert main(verify) == EXIT_PASS
    assert capsys.readouterr().out == "PASS\n"

    guess = ["guess", "--sequence", "A032123", "--order", "5", "--degree", "4", "--terms", "80"]
    assert main([*guess, "--minimal"]) == EXIT_PASS
    assert capsys.readouterr().out.count('"convention"') == 1
    assert main(guess) == EXIT_PASS
    assert capsys.readouterr().out.count('"convention"') == 7


def test_bfile_parse(tmp_path, capsys):
    f = tmp_path / "b.txt"
    f.write_text("0 1\n1 1\n2 4\n")
    code = main(["bfile", "parse", str(f)])
    assert code == EXIT_PASS
    assert "3 terms" in capsys.readouterr().out


def test_bfile_parse_missing_file_is_io_error(tmp_path, capsys):
    code = main(["bfile", "parse", str(tmp_path / "nope.txt")])
    assert code == EXIT_IO


def test_bfile_fetch_offline_cold_cache(tmp_path, capsys):
    code = main(
        ["--offline", "--cache-dir", str(tmp_path), "bfile", "fetch", "A032123"]
    )
    assert code == EXIT_IO
    assert "offline" in capsys.readouterr().err


def test_bfile_fetch_warm_cache(tmp_path, capsys, monkeypatch):
    (tmp_path / "A032123.txt").write_text(BUNDLED_TEXT)
    monkeypatch.setattr(
        "urllib.request.urlopen",
        lambda *a, **kw: (_ for _ in ()).throw(AssertionError("network touched")),
    )
    code = main(
        ["--offline", "--cache-dir", str(tmp_path), "bfile", "fetch", "A032123"]
    )
    assert code == EXIT_PASS
    assert "20 terms" in capsys.readouterr().out


def test_bfile_compare(tmp_path, capsys):
    f = tmp_path / "b.txt"
    f.write_text(BUNDLED_TEXT)
    code = main(
        ["bfile", "compare", "--sequence", "A032123", "--bfile", str(f),
         "--from", "0", "--to", "19"]
    )
    assert code == EXIT_PASS


def test_bfile_compare_reads_a_bfile_sequence(tmp_path, capsys):
    f = tmp_path / "b.txt"
    f.write_text(BUNDLED_TEXT)
    code = main(
        ["bfile", "compare", "--sequence", str(f), "--bfile", str(f),
         "--from", "0", "--to", "19"]
    )
    assert code == EXIT_PASS
    assert capsys.readouterr().out == "PASS: all terms equal on 0..19\n"


def test_bfile_compare_empty_range_is_an_error(tmp_path, capsys):
    f = tmp_path / "b.txt"
    f.write_text(BUNDLED_TEXT)
    code = main(
        ["bfile", "compare", "--sequence", "A032123", "--bfile", str(f),
         "--from", "7", "--to", "3"]
    )
    assert code == EXIT_FAIL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: empty comparison range\n"


def _write_files(tmp_path):
    (tmp_path / "good.txt").write_text(BUNDLED_TEXT)
    (tmp_path / "bad.txt").write_text(
        BUNDLED_TEXT.replace("\n10 92504\n", "\n10 92505\n")
    )
    (tmp_path / "mutated.json").write_text(
        perturbed(builtin_operator("mathar"), 0, 0).to_json()
    )


@pytest.mark.parametrize(
    "argv, code, line",
    [
        (["verify", "--operator", "mathar", "--sequence", "A032123",
          "--from", "6", "--to", "200"],
         EXIT_PASS, "verify\tPASS\tall residuals zero on 6..200"),
        (["verify", "--operator", "u-op", "--sequence", "A032123",
          "--from", "2", "--to", "10"],
         EXIT_FAIL, "verify\tFAIL\tresidual 2 at n=2"),
        (["certify", "--operator", "mathar", "--term", "v-spec"],
         EXIT_PASS, "certify\tPASS\tall residue numerators vanish; valid from n=5"),
        (["certify", "--operator", "{tmp}/mutated.json", "--term", "u-spec"],
         EXIT_FAIL, "certify\tFAIL\tnonzero numerator in residue class(es) [0]"),
        (["bfile", "compare", "--sequence", "A032123", "--bfile", "{tmp}/good.txt",
          "--from", "0", "--to", "19"],
         EXIT_PASS, "compare\tPASS\tall terms equal on 0..19"),
        (["bfile", "compare", "--sequence", "A032123", "--bfile", "{tmp}/bad.txt",
          "--from", "0", "--to", "19"],
         EXIT_FAIL, "compare\tFAIL\tmismatch at n=10: 92504 != 92505"),
    ],
)
def test_machine_format_prints_one_check_line(tmp_path, capsys, argv, code, line):
    _write_files(tmp_path)
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    assert main(["--format", "machine", *argv]) == code
    captured = capsys.readouterr()
    assert captured.out == line + "\n"
    assert captured.err == ""


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == EXIT_USAGE


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["gen", "A032123", "--begin", "0"])
    assert exc.value.code == EXIT_USAGE


@pytest.mark.parametrize("max_n", ["5", "3", "-1"])
def test_prove_max_n_below_the_sweep_start_is_usage_error(max_n, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["prove-a032123", "--max-n", max_n])
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "--max-n: must be at least 6" in err
    assert "Traceback" not in err


def test_prove_max_n_past_max_index_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--format", "machine", "prove-a032123", "--max-n", str(MAX_INDEX + 1)])
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""  # no stage ran
    assert f"--max-n: must be at most {MAX_INDEX}, the last index" in captured.err
    assert "Traceback" not in captured.err
    # The cap itself parses; running that sweep would take about 17 s.
    assert _PARSER.parse_args(["prove-a032123", "--max-n", str(MAX_INDEX)]).max_n == MAX_INDEX


def test_prove_pipeline_passes(capsys):
    code = main(["prove-a032123", "--max-n", "100"])
    out = capsys.readouterr().out
    assert code == EXIT_PASS
    assert "overall: PASS" in out


def test_prove_pipeline_machine_format(capsys):
    code = main(["--format", "machine", "prove-a032123", "--max-n", "100"])
    out = capsys.readouterr().out
    assert code == EXIT_PASS
    lines = [line.split("\t") for line in out.strip().splitlines()]
    names = [parts[0] for parts in lines]
    assert names == [
        "closed-form-vs-bfile",
        "u-recurrence",
        "v-recurrence",
        "certify-u",
        "certify-v",
        "identities",
        "mathar-numeric",
        "lclm-order",
        "lclm-numeric",
    ]
    assert all(parts[1] == "PASS" for parts in lines)


def test_prove_pipeline_with_mutated_operator(tmp_path, capsys):
    mutated = perturbed(builtin_operator("mathar"), 0, 0)
    op_file = tmp_path / "mutated.json"
    op_file.write_text(mutated.to_json())
    code = main(
        ["--format", "machine", "prove-a032123", "--max-n", "50",
         "--operator", str(op_file)]
    )
    out = capsys.readouterr().out
    assert code == EXIT_FAIL
    status = dict(
        (parts[0], parts[1])
        for parts in (line.split("\t") for line in out.strip().splitlines())
    )
    assert status["certify-u"] == "FAIL"
    assert status["certify-v"] == "FAIL"
    assert status["mathar-numeric"] == "FAIL"
    # untouched stages still pass
    assert status["closed-form-vs-bfile"] == "PASS"
    assert status["u-recurrence"] == "PASS"


@pytest.mark.parametrize(
    "name, wrong, stage, detail",
    [
        ("u-op", ShiftOperator([1, -2]), "u-recurrence", "residual 2 at n=2"),
        ("v-op", ShiftOperator([1, 0, -2]), "v-recurrence", "residual 2 at n=4"),
    ],
)
def test_prove_pipeline_checks_each_summand_operator_against_its_closed_form(
    monkeypatch, name, wrong, stage, detail
):
    # The builtin summands unroll these operators, so the stages must read
    # closed forms instead: against the unrolled terms a wrong operator passes.
    monkeypatch.setitem(operators._BUILTINS, name, wrong)
    checks = {c.name: c for c in run_prove_a032123(max_n=20)}
    assert not checks[stage].passed
    assert checks[stage].detail == detail


def test_pipeline_report_is_deterministic():
    r1 = run_prove_a032123(max_n=60)
    r2 = run_prove_a032123(max_n=60)
    strip = lambda checks: [(c.name, c.passed, c.detail, c.witness) for c in checks]
    assert strip(r1) == strip(r2)


def test_machine_and_human_agree_on_facts():
    checks = run_prove_a032123(max_n=60)
    human = render(checks, "human")
    machine = render(checks, "machine")
    for check in checks:
        assert check.name in human and check.name in machine
    passed = all(c.passed for c in checks)
    assert ("overall: PASS" in human) == passed
    assert all("PASS" in line for line in machine.splitlines()) == passed


# sha256 of the stdout of three proof runs at --max-n 100, recorded before the
# stages became one table; the human table has its "(x.xxs)" seconds stripped.
PROOF_SHA256 = {
    "machine": "ddac6f56f1176f4fbc2a2b7d4efc354b186336bb05f7dfa3d71a30587b3cf280",
    "machine-mutant": "43eb26a2e2ff970ef5f736a519cab08f060106dd391e9c376279fd906b11c1b1",
    "human": "90fcde05c36804fe282f78eb8372e3bcd9a119232741cd0e1be01b5667a32e60",
}


@pytest.mark.parametrize("form", sorted(PROOF_SHA256))
def test_proof_output_is_pinned(form, tmp_path, capsys):
    argv = ["prove-a032123", "--max-n", "100"]
    if form == "machine-mutant":
        op_file = tmp_path / "mutant.json"
        op_file.write_text(perturbed(builtin_operator("mathar"), 0, 0).to_json())
        argv += ["--operator", str(op_file)]
    if form != "human":
        argv = ["--format", "machine", *argv]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == (EXIT_FAIL if form == "machine-mutant" else EXIT_PASS)
    if form == "human":
        out = re.sub(r" \(\d+\.\d\ds\)$", "", out, flags=re.MULTILINE)
    assert hashlib.sha256(out.encode()).hexdigest() == PROOF_SHA256[form]


@pytest.mark.parametrize("form", ["machine", "machine-mutant"])
def test_a_sharded_proof_prints_what_a_serial_one_does(form, tmp_path, capsys, monkeypatch):
    argv = ["--format", "machine", "prove-a032123", "--max-n", "100"]
    if form == "machine-mutant":
        op_file = tmp_path / "mutant.json"
        op_file.write_text(perturbed(builtin_operator("mathar"), 0, 0).to_json())
        argv += ["--operator", str(op_file)]
    forks, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    runs = []
    for shard_min in (10**9, 16):  # one process, then every sweep split in two
        monkeypatch.setattr(operators, "SHARD_MIN", shard_min)
        runs.append((main(argv), capsys.readouterr().out))
    assert runs[0] == runs[1]
    assert hashlib.sha256(runs[1][1].encode()).hexdigest() == PROOF_SHA256[form]
    assert len(forks) == 4  # u-recurrence, v-recurrence, mathar-numeric, lclm-numeric


def test_the_default_proof_sweeps_in_one_process(monkeypatch):
    # Its longest sweep, 6..5000, is under SHARD_MIN.
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert all(check.passed for check in run_prove_a032123())


def test_prove_accepts_an_order_6_operator_that_annihilates_a032123(tmp_path, capsys):
    # (1 + S) * mathar holds from n = 6 too; only the n = 5 note cannot read it.
    op_file = tmp_path / "order6.json"
    op_file.write_text((ShiftOperator([1, 1]) * builtin_operator("mathar")).to_json())
    code = main(["--format", "machine", "prove-a032123", "--max-n", "200",
                 "--operator", str(op_file)])
    lines = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
    assert code == EXIT_PASS
    assert [parts[1] for parts in lines] == ["PASS"] * 9
    detail = {parts[0]: parts[2] for parts in lines}
    assert detail["certify-u"].endswith("valid from n=6")
    assert detail["certify-v"].endswith("valid from n=6")
    assert detail["mathar-numeric"] == (
        "all residuals zero on 6..200; n=5 residual (informational): does not apply at order 6"
    )


def test_prove_sweeps_an_operator_of_order_7_from_its_order(tmp_path, capsys):
    # (1 + S^2) * mathar needs a(n - 7), so its sweep cannot start at n = 6.
    op_file = tmp_path / "order7.json"
    op_file.write_text((ShiftOperator([1, 0, 1]) * builtin_operator("mathar")).to_json())
    argv = ["--format", "machine", "prove-a032123", "--operator", str(op_file), "--max-n"]
    code = main([*argv, "200"])
    lines = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
    assert code == EXIT_PASS
    assert [parts[1] for parts in lines] == ["PASS"] * 9
    detail = {parts[0]: parts[2] for parts in lines}
    assert detail["certify-u"].endswith("valid from n=7")
    assert detail["certify-v"].endswith("valid from n=7")
    assert detail["mathar-numeric"] == (
        "all residuals zero on 7..200; n=5 residual (informational): does not apply at order 7"
    )
    assert main([*argv, "6"]) == EXIT_FAIL
    lines = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
    assert ["mathar-numeric", "FAIL", "error: empty verification range"] in lines


def test_prove_computes_the_lclm_once(monkeypatch):
    calls = []

    def counting_lclm(*args, **kwargs):
        calls.append(args)
        return lclm(*args, **kwargs)

    monkeypatch.setattr(operators, "lclm", counting_lclm)
    checks = run_prove_a032123(max_n=20)
    assert all(c.passed for c in checks)
    assert len(calls) == 1


def test_a_failing_lclm_fails_both_lclm_stages_with_its_error(monkeypatch):
    def failing_lclm(*args, **kwargs):
        raise LclmCapError("no common left multiple within the caps")

    monkeypatch.setattr(operators, "lclm", failing_lclm)
    checks = {c.name: c for c in run_prove_a032123(max_n=20)}
    for stage in ("lclm-order", "lclm-numeric"):
        assert not checks[stage].passed
        assert checks[stage].detail == "error: no common left multiple within the caps"
    assert checks["mathar-numeric"].passed


def _a005418_stages(op: ShiftOperator) -> list:
    """A second proof from the same pieces: A005418 = (2^n + 2^ceil(n/2)) / 2,
    annihilated by a(n) - 2a(n-1) - 2a(n-2) + 4a(n-3)."""
    one, two = Polynomial([1]), Polynomial([2])
    chain = lambda step, residue: HyperTermSpec(step, one, two, frozenset({residue}), step)
    summands = ShiftOperator([1, -2]), ShiftOperator([1, 0, -2])
    oracle = lambda: [orbit_count_oracle(k) for k in range(1, 12)]
    return [
        ("certify-2^n", partial(_certify, op, chain(1, 0))),
        ("certify-even", partial(_certify, op, chain(2, 0))),
        ("certify-odd", partial(_certify, op, chain(2, 1))),
        ("lclm", lambda: Check("lclm", lclm(*summands)[0] == op, "lclm(1 - 2S, 1 - 2S^2)")),
        ("oracle", lambda: Check(
            "oracle", oracle() == builtin_sequence("A005418").terms(1, 11), "n = 1..11"
        )),
        ("sweep", partial(verify_range, op, builtin_sequence("A005418"), 4, 3000)),
    ]


A005418_OP = ShiftOperator([1, -2, -2, 4])


def test_a005418_proof_runs_through_the_same_stage_loop():
    checks = _run_stages(_a005418_stages(A005418_OP))
    assert [c.name for c in checks] == [
        "certify-2^n", "certify-even", "certify-odd", "lclm", "oracle", "sweep"
    ]
    assert all(c.passed for c in checks), [c.detail for c in checks]
    assert checks[0].detail == "all residue numerators vanish; valid from n=3"
    assert checks[-1].detail == "all residuals zero on 4..3000"


def test_a005418_proof_fails_a_mutated_operator_with_witnesses():
    checks = {c.name: c for c in _run_stages(_a005418_stages(perturbed(A005418_OP, 0, 0)))}
    for stage in ("certify-2^n", "certify-even", "certify-odd"):
        assert not checks[stage].passed
        assert checks[stage].detail.startswith("nonzero numerator in residue class(es)")
    assert not checks["sweep"].passed
    assert checks["sweep"].witness == (4, 5)
    assert checks["oracle"].passed


def test_importing_the_cli_loads_no_network_module(fresh_python):
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import recurra.cli\n"
        "net = {'urllib.request', 'http.client', 'ssl', 'socket'}\n"
        "print(sorted(net & (set(sys.modules) - before)))\n"
    )
    done = fresh_python(code)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_a_command_loads_only_the_modules_it_runs(fresh_python, tmp_path):
    # A rational coefficient still parses once fractions is loaded on demand.
    rational = {"convention": "backward", "order": 1, "coeffs": [["0", "1/2"], ["-1", "-2"]]}
    path = tmp_path / "half.json"
    path.write_text(json.dumps(rational))
    code = (
        "import io, sys\n"
        "from contextlib import redirect_stdout\n"
        "import recurra.cli\n"
        "lazy = {'dataclasses', 'fractions', 'recurra.certify', 'recurra.guess', 'recurra.oeis'}\n"
        "print(sorted(lazy & set(sys.modules)))\n"
        "argv = ['guess', '--sequence', 'A032123', '--order', '5', '--degree', '4',\n"
        "        '--terms', '80', '--minimal']\n"
        "with redirect_stdout(io.StringIO()):\n"
        "    assert recurra.cli.main(argv) == 0\n"
        "print(sorted(lazy & set(sys.modules)))\n"
        "from recurra.operators import ShiftOperator\n"
        "print(ShiftOperator.from_json(open(sys.argv[1]).read()).to_json())\n"
    )
    done = fresh_python(code, str(path))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.split("\n", 2)
    assert lines[:2] == ["[]", "['recurra.guess']"]
    assert json.loads(lines[2])["coeffs"] == [["0", "1"], ["-2", "-4"]]


@pytest.mark.parametrize(
    "argv, code, err",
    [
        (["--offline", "--cache-dir", "{empty}", "bfile", "fetch", "A032123"], EXIT_IO,
         "error: A032123 is not cached at {empty}/A032123.txt and offline mode forbids fetching\n"),
        (["guess", "--sequence", "A032123", "--order", "2", "--degree", "1", "--minimal"],
         EXIT_FAIL, "error: no verified recurrence within order<=2, degree<=1\n"),
        (["gen", "A032123", "--from", "100001", "--to", "100001"], EXIT_FAIL,
         "error: A032123 has no term at n=100001 (available: 0..100000)\n"),
        (["lclm", "--a", "u-op", "--b", "v-op", "--order-cap", "2"], EXIT_FAIL,
         "error: no common left multiple within order_cap=2, degree_cap=10\n"),
        (["guess", "--sequence", "A032123", "--order", "1", "--degree", "0"], EXIT_FAIL,
         "no holdout-verified recurrence found\n"),
    ],
    ids=["OfflineError", "GuessNotFoundError", "TermRangeError", "LclmCapError",
         "no-verified-guess"],
)
def test_an_error_maps_to_its_exit_code_in_a_fresh_process(argv, code, err, fresh_python,
                                                           tmp_path):
    # The module that defines the error is not loaded when main starts.
    empty = str(tmp_path)
    argv = [a.replace("{empty}", empty) for a in argv]
    check_code = (
        "import sys\n"
        "from recurra.cli import main\n"
        "assert not {'recurra.guess', 'recurra.oeis'} & set(sys.modules)\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    done = fresh_python(check_code, *argv)
    assert done.returncode == code
    assert done.stderr == err.replace("{empty}", empty)
    assert done.stdout == ""


# sha256 of the stdout of two discovery commands, recorded before the modular
# nullspace replaced fraction-free elimination; the bytes must not change.
DISCOVERY_SHA256 = {
    ("guess", "--sequence", "A032123", "--order", "8", "--degree", "12"):
        "0218f253d44501abe2f78428be8fc17430323cb6f82c123634fffc66b9d2cd9b",
    ("lclm", "--a", "u-op", "--b", "v-op"):
        "752cfa5c6224440234a303af6dfd609b49e8db95822b0125f58b3a5b46a420b6",
    ("lclm", "--a", "mathar", "--b", "u-op"):
        "2ec05ad77d50b03a3dcf726bdeee26bea1bd9c45f3770c49806a3caa94d487ba",
}


@pytest.mark.parametrize(
    "argv", sorted(DISCOVERY_SHA256), ids=lambda a: "lclm-mathar" if "mathar" in a else a[0]
)
def test_discovery_output_is_pinned(argv, capsys):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == EXIT_PASS
    assert hashlib.sha256(out.encode()).hexdigest() == DISCOVERY_SHA256[argv]


def test_minimal_guess_on_45_terms_is_pinned(capsys):
    # 45 terms are fewer than (5, 4) needs; the CLI's size check must not
    # apply that bound, so the walk still reaches the order-3 operator.
    argv = ["guess", "--sequence", "A032123", "--order", "5", "--degree", "4",
            "--terms", "45", "--minimal"]
    assert main(argv) == EXIT_PASS
    out = capsys.readouterr().out
    lclm_pin = DISCOVERY_SHA256[("lclm", "--a", "u-op", "--b", "v-op")]
    assert hashlib.sha256(out.encode()).hexdigest() == lclm_pin


def test_order_6_lclm_output_is_pinned(tmp_path, capsys):
    # The composed pair crosscheck runs: u*v and v*u, whose LCLM has order 6.
    u, v = builtin_operator("u-op"), builtin_operator("v-op")
    (tmp_path / "uv.json").write_text((u * v).to_json())
    (tmp_path / "vu.json").write_text((v * u).to_json())
    code = main(["lclm", "--a", str(tmp_path / "uv.json"), "--b", str(tmp_path / "vu.json")])
    out = capsys.readouterr().out
    assert code == EXIT_PASS
    assert json.loads(out)["order"] == 6
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b8370fce94fd6fb3722ec9d1f742bdf0ec9d8f9e1ad350ad569836fb901fb0a3"
    )


@pytest.mark.parametrize(
    "argv, cap",
    [
        (["guess", "--sequence", "A032123", "--order", "200", "--degree", "200"],
         "MAX_UNKNOWNS"),
        (["guess", "--sequence", "A032123", "--order", "200", "--degree", "200",
          "--minimal"], "MAX_UNKNOWNS"),
        (["guess", "--sequence", "A032123", "--order", "2", "--degree", "2",
          "--terms", "40621"], "MAX_TERMS"),
        (["lclm", "--a", "u-op", "--b", "v-op", "--order-cap", "1000"], "MAX_ORDER_CAP"),
        (["lclm", "--a", "u-op", "--b", "v-op", "--degree-cap", "1000"], "MAX_DEGREE_CAP"),
    ],
    ids=["guess-unknowns", "minimal-unknowns", "guess-terms", "lclm-order", "lclm-degree"],
)
def test_discovery_caps_fail_fast_and_name_the_cap(argv, cap, capsys):
    start = time.perf_counter()
    code = main(argv)
    assert time.perf_counter() - start < 2.0
    assert code == EXIT_FAIL
    err = capsys.readouterr().err
    assert err.startswith("error: ") and cap in err


@pytest.mark.parametrize("over", [0, 1], ids=["at-cap", "one-bit-over"])
def test_lclm_bit_cap_fails_fast_and_names_the_cap(over, tmp_path, capsys):
    # The first system of lclm(a, b) is built from the inputs' joint bits:
    # n*a(n) + c*a(n-1) with a b-bit power of two c takes b + 2.
    from recurra.operators import MAX_LCLM_BITS

    b = MAX_LCLM_BITS // 2 - 2
    paths = []
    for bits in (b, b + over):
        path = tmp_path / f"{bits}.json"
        op = ShiftOperator([Polynomial([0, 1]), Polynomial([1 << (bits - 1)])])
        path.write_text(op.to_json())
        paths.append(str(path))
    start = time.perf_counter()
    code = main(["lclm", "--a", paths[0], "--b", paths[1]])
    assert time.perf_counter() - start < 2.0
    captured = capsys.readouterr()
    if over:
        assert code == EXIT_FAIL
        assert captured.err.startswith("error: ") and "MAX_LCLM_BITS" in captured.err
    else:
        assert code == EXIT_PASS
        assert json.loads(captured.out)["order"] == 1


def test_operator_coefficient_digit_cap_fails_fast(tmp_path, capsys):
    doc = json.loads(builtin_operator("u-op").to_json())
    doc["coeffs"][0][0] = "1e10000000"  # a 33-million-bit integer if built
    op_file = tmp_path / "huge.json"
    op_file.write_text(json.dumps(doc))
    start = time.perf_counter()
    code = main(["lclm", "--a", str(op_file), "--b", "u-op"])
    assert time.perf_counter() - start < 2.0
    assert code == EXIT_FAIL
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "COEFF_DIGITS" in err
    assert "set_int_max_str_digits" not in err


@pytest.mark.parametrize("kind, argv", [
    ("operator", ["verify", "--operator", "{}", "--sequence", "A032123", "--from", "6",
                  "--to", "10"]),
    ("term", ["certify", "--operator", "mathar", "--term", "{}"]),
])
def test_a_file_over_the_comma_cap_fails_before_it_is_parsed(tmp_path, capsys, monkeypatch,
                                                             kind, argv):
    # One row of MAX_FILE_COMMAS + 1 coefficients, as JSON integers, which the
    # JSON reader would convert one by one.
    row = [1] * (operators.MAX_FILE_COMMAS + 1)
    doc = ({"convention": "backward", "order": 1, "coeffs": [row, [1]]} if kind == "operator"
           else {"step": 1, "p": row, "q": [1], "support": [0], "n_min": 1})
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc))
    commas = path.read_text().count(",")

    def refused(*args, **kwargs):
        raise AssertionError("the file was parsed")

    monkeypatch.setattr(operators.json, "loads", refused)
    code = main([a.format(path) for a in argv])
    assert code == EXIT_FAIL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {kind} file has {commas} commas, over the cap MAX_FILE_COMMAS = "
        f"{operators.MAX_FILE_COMMAS}: no command admits that many coefficients\n"
    )


def test_lclm_reads_back_coefficients_past_the_int_str_digit_cap(tmp_path, capsys):
    doc = json.loads(builtin_operator("u-op").to_json())
    doc["coeffs"][0][0] = "1e5000"
    big = tmp_path / "big.json"
    big.write_text(json.dumps(doc))
    assert main(["lclm", "--a", str(big), "--b", str(big)]) == EXIT_PASS
    written = capsys.readouterr().out
    out_file = tmp_path / "out.json"
    out_file.write_text(written)  # a 5001-digit coefficient, as recurra writes it
    code = main(["lclm", "--a", str(out_file), "--b", str(out_file)])
    captured = capsys.readouterr()
    assert code == EXIT_PASS
    assert captured.err == ""
    assert captured.out == written


def _degree_d_term(tmp_path, d):
    """A step-1 term file with p = 1 + n + ... + n^d, q = 3 + 3n + ... + 2n^d."""
    term = {"step": 1, "p": ["1"] * (d + 1), "q": ["3"] * d + ["2"], "support": [0], "n_min": 1}
    path = tmp_path / f"deg{d}.json"
    path.write_text(json.dumps(term))
    return str(path)


def test_certify_with_a_degree_50_term_is_fast(tmp_path, capsys):
    # Cheap only because q's integer roots are found once, not once per shift.
    start = time.perf_counter()
    code = main(["certify", "--operator", "mathar", "--term", _degree_d_term(tmp_path, 50)])
    assert time.perf_counter() - start < 2.0
    assert code == EXIT_FAIL
    assert capsys.readouterr().out == "NOT CERTIFIED: nonzero numerator in residue class(es) [0]\n"


def test_term_degree_cap_fails_fast_and_names_the_cap(tmp_path, capsys):
    from recurra.certify import MAX_TERM_DEGREE

    start = time.perf_counter()
    code = main(["certify", "--operator", "mathar",
                 "--term", _degree_d_term(tmp_path, MAX_TERM_DEGREE + 1)])
    assert time.perf_counter() - start < 2.0
    assert code == EXIT_FAIL
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "MAX_TERM_DEGREE" in err


@pytest.mark.parametrize("over", [0, 1], ids=["at-cap", "one-bit-over"])
def test_term_bit_cap_fails_fast_and_names_the_cap(over, tmp_path, capsys):
    # q = c + n with a b-bit c takes 2b bits; the constant p takes the rest.
    from recurra.certify import MAX_TERM_BITS

    b = MAX_TERM_BITS // 2 - 1
    p = 1 << (MAX_TERM_BITS - 2 * b - 1 + over)
    term = {"step": 1, "p": [decimal(p)], "q": [decimal((1 << (b - 1)) + 1), "1"],
            "support": [0], "n_min": 1}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(term))
    start = time.perf_counter()
    code = main(["certify", "--operator", "mathar", "--term", str(path)])
    assert time.perf_counter() - start < 2.0
    assert code == EXIT_FAIL
    captured = capsys.readouterr()
    if over:
        assert captured.err.startswith("error: ") and "MAX_TERM_BITS" in captured.err
    else:
        assert captured.out.startswith("NOT CERTIFIED")


def _left_multiple_of_u_op(tmp_path, g):
    """An operator file for g(n) * u-op, which annihilates C(2n, n) for every nonzero g."""
    op = ShiftOperator([g * c for c in builtin_operator("u-op").coeffs])
    path = tmp_path / "g-u-op.json"
    path.write_text(op.to_json())
    return str(path)


@pytest.mark.parametrize("over", [0, 1], ids=["at-cap", "over-cap"])
def test_operator_degree_cap_fails_fast_and_names_the_cap(over, tmp_path, capsys):
    from recurra.certify import MAX_TERM_DEGREE

    g = Polynomial([1] * (MAX_TERM_DEGREE + over))  # g * n has degree MAX_TERM_DEGREE + over
    start = time.perf_counter()
    code = main(["certify", "--operator", _left_multiple_of_u_op(tmp_path, g), "--term", "u-spec"])
    assert time.perf_counter() - start < 2.0
    captured = capsys.readouterr()
    if over:
        assert code == EXIT_FAIL
        assert captured.err.startswith("error: ") and "MAX_TERM_DEGREE" in captured.err
    else:
        assert code == EXIT_PASS
        assert captured.out.startswith("CERTIFIED")


@pytest.mark.parametrize("over", [0, 1], ids=["at-cap", "over-cap"])
def test_operator_bit_cap_fails_fast_and_names_the_cap(over, tmp_path, capsys):
    # (c + n^2) * u-op = [c n + n^3, -(c + n^2)(4n - 2)] has four coefficients in
    # each polynomial, the widest c and 4c: a b-bit power of two c takes 8b + 8 bits.
    from recurra.certify import MAX_OPERATOR_BITS

    b = (MAX_OPERATOR_BITS - 8) // 8 + over
    g = Polynomial([1 << (b - 1), 0, 1])
    start = time.perf_counter()
    code = main(["certify", "--operator", _left_multiple_of_u_op(tmp_path, g), "--term", "u-spec"])
    assert time.perf_counter() - start < 2.0
    captured = capsys.readouterr()
    if over:
        assert code == EXIT_FAIL
        assert captured.err.startswith("error: ") and "MAX_OPERATOR_BITS" in captured.err
    else:
        assert code == EXIT_PASS
        assert captured.out.startswith("CERTIFIED")


@pytest.mark.parametrize("terms, why", [
    ("0", "must be at least 1; got 0"),
    ("-3", "must be at least 1; got -3"),
    ("x", "invalid int value: 'x'"),  # and no integer at all
], ids=["0", "-3", "x"])
def test_guess_terms_below_one_is_usage_error(terms, why, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["guess", "--sequence", "A032123", "--order", "1", "--degree", "1",
              "--terms", terms])
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"--terms: {why}" in err
    assert "Traceback" not in err


def test_operator_order_cap_fails_fast_and_names_the_cap(tmp_path, capsys):
    # Order 11 against the degree-100 term takes about 5 s uncapped.
    from recurra.certify import MAX_OPERATOR_ORDER

    r = MAX_OPERATOR_ORDER + 1
    op_file = tmp_path / "order.json"
    op_file.write_text(json.dumps(
        {"convention": "backward", "order": r, "coeffs": [[str(j + 1), "1"] for j in range(r + 1)]}
    ))
    start = time.perf_counter()
    code = main(["certify", "--operator", str(op_file),
                 "--term", _degree_d_term(tmp_path, 100)])
    assert time.perf_counter() - start < 2.0
    assert code == EXIT_FAIL
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "MAX_OPERATOR_ORDER" in err
