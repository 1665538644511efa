import json
import math
import sys

import pytest

from recurra.certify import perturbed
from recurra.cli import (
    EXIT_FAIL,
    EXIT_IO,
    EXIT_PASS,
    EXIT_USAGE,
    main,
    run_prove_a032123,
)
from recurra.oeis import bundled_a032123
from recurra.operators import builtin_operator

A032123_HEAD = [1, 1, 4, 10, 38, 126, 472, 1716, 6470, 24310, 92504, 352716, 1352540]


def test_gen_matches_catalogued_terms(capsys):
    code = main(["gen", "A032123", "--from", "0", "--to", "12"])
    out = capsys.readouterr().out
    assert code == EXIT_PASS
    assert [int(x) for x in out.split()] == A032123_HEAD


def test_gen_unknown_sequence_fails(capsys):
    code = main(["gen", "A999999", "--from", "0", "--to", "3"])
    assert code == EXIT_FAIL
    assert "unknown sequence" in capsys.readouterr().err


def test_gen_out_of_range_fails(capsys):
    code = main(["gen", "A005418", "--from", "0", "--to", "3"])
    assert code == EXIT_FAIL


def test_gen_reads_a_bfile_path(tmp_path, capsys):
    bfile = tmp_path / "b.txt"
    bfile.write_text(bundled_a032123().to_text())
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


def test_verify_with_operator_and_bfile_files(tmp_path, capsys):
    op_file = tmp_path / "op.json"
    op_file.write_text(builtin_operator("mathar").to_json())
    bfile = tmp_path / "b.txt"
    bfile.write_text(bundled_a032123().to_text())
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
        ("--term", {"step": 1, "p": ["0", "1"], "support": [0], "n_min": 1}),
        ("--term", {"step": 1, "p": ["1/0"], "q": ["1"], "support": [0], "n_min": 1}),
    ],
    ids=["operator-without-order", "top-level-list", "null-coefficient", "term-without-q",
         "zero-denominator"],
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


def test_certify_with_term_file(tmp_path, capsys):
    from recurra.certify import builtin_term

    term_file = tmp_path / "term.json"
    term_file.write_text(builtin_term("u-spec").to_json())
    code = main(["certify", "--operator", "mathar", "--term", str(term_file)])
    assert code == EXIT_PASS


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
    (tmp_path / "A032123.txt").write_text(bundled_a032123().to_text())
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
    f.write_text(bundled_a032123().to_text())
    code = main(
        ["bfile", "compare", "--sequence", "A032123", "--bfile", str(f),
         "--from", "0", "--to", "19"]
    )
    assert code == EXIT_PASS


def test_bfile_compare_reads_a_bfile_sequence(tmp_path, capsys):
    f = tmp_path / "b.txt"
    f.write_text(bundled_a032123().to_text())
    code = main(
        ["bfile", "compare", "--sequence", str(f), "--bfile", str(f),
         "--from", "0", "--to", "19"]
    )
    assert code == EXIT_PASS
    assert capsys.readouterr().out == "PASS: all terms equal on 0..19\n"


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


def test_pipeline_report_is_deterministic():
    r1 = run_prove_a032123(max_n=60)
    r2 = run_prove_a032123(max_n=60)
    strip = lambda rep: [(c.name, c.passed, c.detail) for c in rep.checks]
    assert strip(r1) == strip(r2)


def test_machine_and_human_agree_on_facts():
    rep = run_prove_a032123(max_n=60)
    human = rep.render("human")
    machine = rep.render("machine")
    for check in rep.checks:
        assert check.name in human and check.name in machine
    assert ("overall: PASS" in human) == rep.passed
    assert all("PASS" in line for line in machine.splitlines()) == rep.passed
