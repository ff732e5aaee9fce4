import gc
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import superlie
from superlie.cli import main
from superlie.corpus import corpus
from superlie.core import direct_sum
from superlie.fileformat import emit
from superlie.constructions import abelian, heisenberg_even

GOOD = 'algebra "H(1,1)"\neven u1 v1 z\nodd w1\n[u1,v1] = z\n[w1,w1] = z\n'
BAD_SYNTAX = 'algebra "X"\neven x\nodd\nthis is not a bracket\n'
BAD_MATH = 'algebra "X"\neven x y z\nodd\n[x,y] = x\n[x,z] = y\n'
NOT_NILPOTENT = ('algebra "so3"\neven x y z\nodd\n'
                 '[x,y] = z\n[x,z] = -1 y\n[y,z] = x\n')


@pytest.fixture
def good_file(tmp_path):
    f = tmp_path / "h11.lsa"
    f.write_text(GOOD)
    return str(f)


def test_validate_ok(good_file, capsys):
    assert main(["validate", good_file]) == 0
    assert "OK" in capsys.readouterr().out


def test_validate_parse_error(tmp_path, capsys):
    f = tmp_path / "bad.lsa"
    f.write_text(BAD_SYNTAX)
    assert main(["validate", str(f)]) == 2
    assert "parse error" in capsys.readouterr().out


def test_validate_math_error(tmp_path, capsys):
    f = tmp_path / "bad.lsa"
    f.write_text(BAD_MATH)
    assert main(["validate", str(f)]) == 1
    assert "JacobiError" in capsys.readouterr().out


@pytest.mark.parametrize("bracket, message", [
    ("[a,b] = u", "GradingError: bracket [a,b] has a component on u of the wrong parity"),
    ("[a,a] = b", "InvalidParams: [a,a] must vanish for even a"),
], ids=["grading", "even-diagonal"])
def test_validate_error_names_the_file_labels(tmp_path, capsys, bracket, message):
    f = tmp_path / "bad.lsa"
    f.write_text(f'algebra "X"\neven a b\nodd u\n{bracket}\n')
    assert main(["validate", str(f)]) == 1
    assert capsys.readouterr().out == f"invalid: {message}\n"


def test_unknown_command(capsys):
    assert main(["frobnicate"]) == 64
    assert "usage" in capsys.readouterr().err


def test_no_arguments(capsys):
    assert main([]) == 64


def test_usage_lists_exit_codes(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for code in ("0", "1", "2", "64"):
        assert f"\n  {code} " in out


def test_zero_denominator_file(tmp_path, capsys):
    f = tmp_path / "bad.lsa"
    f.write_text('algebra "X"\neven x y z\nodd\n[x,y] = 1/0 z\n')
    assert main(["invariants", str(f)]) == 2
    assert "parse error: line 4, column 9" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["validate", "invariants", "multiplier", "classify", "cover"])
def test_missing_input_file(tmp_path, capsys, cmd):
    path = tmp_path / "nope.lsa"
    assert main([cmd, str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot read {path}: No such file or directory\n"


def test_unreadable_input_file(tmp_path, capsys):
    assert main(["invariants", str(tmp_path)]) == 2  # a directory
    assert capsys.readouterr().err.startswith(f"error: cannot read {tmp_path}: ")
    f = tmp_path / "binary.lsa"
    f.write_bytes(b"\xff\xfe\x00")
    assert main(["invariants", str(f)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {f}: ")


def test_input_with_utf8_bom(tmp_path, capsys):
    f = tmp_path / "bom.lsa"
    f.write_text(emit(direct_sum(heisenberg_even(1, 0), abelian(0, 1))), encoding="utf-8-sig")
    assert f.read_bytes().startswith(b"\xef\xbb\xbf")
    assert main(["classify", str(f)]) == 0
    assert capsys.readouterr().out == "H(1,0)+Ab(0,1)  smr (1,1)\n"


def _run_in_the_c_locale(*argv):
    """Run the CLI in a fresh process whose stdout encoding is ASCII."""
    src = str(Path(superlie.__file__).parent.parent)
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "superlie.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=60)


def test_input_is_utf8_in_the_c_locale(tmp_path):
    """The file is decoded as UTF-8 whatever the locale's encoding is."""
    f = tmp_path / "e.lsa"
    f.write_bytes('algebra "é"\neven x\nodd\n'.encode())
    done = _run_in_the_c_locale("validate", str(f))
    assert (done.returncode, done.stdout, done.stderr) == (0, "OK\n", "")


@pytest.mark.parametrize("command", ["invariants", "cover"])
def test_unwritable_name_is_a_typed_error(tmp_path, command):
    """A name that ASCII stdout cannot write ends in UnwritableOutput (exit
    2) with nothing on stdout, not in a UnicodeEncodeError traceback."""
    f = tmp_path / "e.lsa"
    f.write_bytes('algebra "é"\neven x y z\nodd\n[x,y] = z\n'.encode())
    done = _run_in_the_c_locale(command, str(f))
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: stdout's encoding ascii cannot write '\\xe9'\n"


class _UnencodableStdout:
    """A stdout whose encoding can write nothing."""

    encoding = "ascii"

    def write(self, text):
        raise UnicodeEncodeError("ascii", text, 0, 1, "ordinal not in range(128)")


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["multiplier", "-h"],
    ["validate", "GOOD"], ["invariants", "GOOD"], ["invariants", "GOOD", "--json"],
    ["multiplier", "GOOD", "--cocycles"], ["multiplier", "GOOD", "--json"],
    ["classify", "GOOD"], ["classify", "GOOD", "--json"],
    ["classify", "NOT_NILPOTENT"], ["classify", "NOT_NILPOTENT", "--json"],
    ["cover", "GOOD"], ["verify-paper", "--corpus-size", "3"],
], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_every_command_reports_unwritable_stdout(tmp_path, capsys, monkeypatch, argv):
    """Every command writes stdout through one writer: a stdout that cannot
    encode its output ends in UnwritableOutput (exit 2), not a traceback."""
    for name, text in (("GOOD", GOOD), ("NOT_NILPOTENT", NOT_NILPOTENT)):
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in ("GOOD", "NOT_NILPOTENT") else a for a in argv]
    monkeypatch.setattr(sys, "stdout", _UnencodableStdout())
    assert main(argv) == 2
    # the writer quotes the first character that it could not encode
    assert re.fullmatch(r"error: stdout's encoding ascii cannot write '.'\n",
                        capsys.readouterr().err)


@pytest.mark.parametrize("text", ['algebra "n"\neven a\u00e9\nodd\n',
                                  'algebra "n"\neven x y z\nodd\n[x,y] = 2 d\u00e9\n'],
                         ids=["identifier", "term"])
def test_unwritable_validate_message_is_a_typed_error(tmp_path, text):
    """validate's message quotes the bad token; one that ASCII stdout cannot
    write ends in UnwritableOutput too, not in a traceback."""
    f = tmp_path / "e.lsa"
    f.write_bytes(text.encode())
    done = _run_in_the_c_locale("validate", str(f))
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: stdout's encoding ascii cannot write '\\xe9'\n"


@pytest.mark.parametrize("text, message", [
    ('algebra "n"\neven a\u00e9\nodd\n', "line 2, column 6: bad identifier 'a\u00e9'"),
    ('algebra "n"\neven x y z\nodd\n[x,y] = 2 d\u00e9\n', "line 4, column 9: bad term '2 d\u00e9'"),
], ids=["identifier", "term"])
def test_validate_message_quotes_a_non_ascii_token(tmp_path, capsys, text, message):
    """Where stdout can write it, validate's message quotes the token as is."""
    f = tmp_path / "e.lsa"
    f.write_bytes(text.encode())
    assert main(["validate", str(f)]) == 2
    assert capsys.readouterr().out == f"parse error: {message}\n"


@pytest.fixture
def int_string_limit():
    """Python's default limit of 4300 digits on int(str), restored after."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python reads integer strings of any length")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("coefficient, message", [
    ("-" + "1" * 5000, "coefficient of 5001 characters is too long"),
    ("1/" + "1" * 5000, "coefficient of 5002 characters is too long"),
], ids=["integer", "fraction"])
def test_validate_locates_a_coefficient_past_the_integer_string_limit(
        tmp_path, capsys, int_string_limit, coefficient, message):
    """A coefficient that int() refuses to read is a located parse error."""
    f = tmp_path / "big.lsa"
    f.write_text(f'algebra "B"\neven x y z\nodd\n[x,y] = z + {coefficient} z\n')
    assert main(["validate", str(f)]) == 2
    assert capsys.readouterr().out == f"parse error: line 4, column 13: {message}\n"


@pytest.mark.parametrize("size", ["0", "-3"])
def test_verify_paper_rejects_empty_corpus(capsys, size):
    assert main(["verify-paper", "--corpus-size", size]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--corpus-size must be at least 1" in captured.err
    assert "usage: superlie" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["invariants", "--builtin", "H(1,0)", "--bogus"], "unrecognized arguments: --bogus"),
    (["verify-paper", "--seed", "abc"], "argument --seed: invalid int value: 'abc'"),
    (["verify-paper", "--corpus-size", "x"], "argument --corpus-size: invalid int value: 'x'"),
    (["validate"], "the following arguments are required: file"),
])
def test_bad_flags_are_usage_errors(capsys, argv, message):
    assert main(argv) == 64  # returned, not raised through SystemExit
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}\n")
    assert "usage: superlie" in captured.err


def test_command_help_returns_zero(capsys):
    assert main(["invariants", "--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: superlie invariants") and captured.err == ""


def test_invariants_json(good_file, capsys):
    assert main(["invariants", good_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sdim"] == [3, 1]
    assert payload["sdim_derived"] == [1, 0]
    assert payload["sdim_center"] == [1, 0]
    assert payload["sdim_multiplier"] == [1, 2]
    assert payload["smr"] == [3, 1]
    assert payload["mr"] == 4
    assert payload["nilpotency_class"] == 2


def test_invariants_builtin_text(capsys):
    assert main(["invariants", "--builtin", "H(1,0)"]) == 0
    out = capsys.readouterr().out
    assert "sdim M(L)" in out and "(2,0)" in out
    assert "nilpotency class 2" in out


def test_invariants_unknown_builtin(capsys):
    assert main(["invariants", "--builtin", "Nope(1)"]) == 1


def test_invariants_missing_source(capsys):
    assert main(["invariants"]) == 1


@pytest.mark.parametrize("cmd", ["invariants", "multiplier", "classify", "cover"])
def test_file_and_builtin_together(good_file, tmp_path, capsys, cmd):
    """Two sources are rejected before either is read, whether or not the
    file exists."""
    for path in (good_file, str(tmp_path / "missing.lsa")):
        assert main([cmd, path, "--builtin", "H(1,0)"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: InvalidParams: give either a file or --builtin NAME, not both\n"


@pytest.mark.parametrize("cmd", ["invariants", "multiplier", "classify", "cover"])
def test_empty_source_counts_as_given(capsys, cmd):
    """An empty file name or builtin name is a source: it is looked up or
    read, and it conflicts with the other source."""
    assert main([cmd, "--builtin", ""]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: UnknownName: ")
    assert main([cmd, "", "--builtin", "H(1,0)"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: InvalidParams: give either a file or --builtin NAME, not both\n"
    assert main([cmd, ""]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: cannot read ")


def test_multiplier_json(capsys):
    assert main(["multiplier", "--builtin", "H(2)", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sdim_M"] == [4, 3]
    assert payload["sdim_Z2"] == [4, 4]
    assert payload["sdim_B2"] == [0, 1]


def test_multiplier_cocycles(capsys):
    assert main(["multiplier", "--builtin", "H(1,0)", "--cocycles", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["cocycles"]) == 2
    for c in payload["cocycles"]:
        assert c["parity"] == 0
        for label_i, label_j, coef in c["entries"]:
            assert label_i in ("u1", "v1", "z") and label_j in ("u1", "v1", "z")
            assert coef  # rendered as a rational string


def test_parser_keeps_no_flag_between_calls(capsys):
    assert main(["multiplier", "--builtin", "H(1,0)", "--json", "--cocycles"]) == 0
    assert "cocycles" in json.loads(capsys.readouterr().out)
    assert main(["multiplier", "--builtin", "H(1,0)", "--json"]) == 0
    assert "cocycles" not in json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("argv, code", [
    (["cover", "--builtin", "H(1,0)"], 0),
    (["invariants", "--builtin", "H(1,1)", "--json"], 0),
    (["invariants", "--builtin", "H(1,0)", "--bogus"], 64),
])
def test_main_leaves_no_cyclic_garbage(capsys, argv, code):
    main(argv)  # warm-up: first-call caches such as compiled regexes
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == code
    finally:
        gc.enable()
    assert gc.collect() == 0


# `multiplier --json --cocycles` stdout, frozen before the cochain
# coordinates became the elimination kernel's column labels; the corpus
# inputs are emitted corpus(0, 40) algebras with fractional constants
FROZEN_MULTIPLIER = json.loads((Path(__file__).parent / "multiplier_cocycles.json").read_text())


@pytest.mark.parametrize("name", sorted(FROZEN_MULTIPLIER))
def test_multiplier_cocycles_stdout_is_frozen(name, tmp_path, capsys):
    case = FROZEN_MULTIPLIER[name]
    if "file" in case:
        f = tmp_path / "input.lsa"
        f.write_text(case["file"])
        source = [str(f)]
    else:
        source = ["--builtin", name]
    assert main(["multiplier", *source, "--json", "--cocycles"]) == 0
    assert capsys.readouterr().out == case["stdout"]


def test_frozen_multiplier_inputs_are_the_corpus_algebras():
    algebras = corpus(0, 40)
    for case in FROZEN_MULTIPLIER.values():
        if "file" in case:
            assert emit(algebras[case["corpus_index"]]) == case["file"]


def test_classify_table_row(capsys):
    assert main(["classify", "--builtin", "H(1,0)", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"result": "table", "label": "H(1,0)", "smr": [1, 0]}


def test_classify_not_covered(capsys):
    assert main(["classify", "--builtin", "L4", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"] == "not_covered"
    assert not payload["contradiction"]
    assert "mr = 4" in payload["reason"]


def test_classify_not_nilpotent(tmp_path, capsys):
    f = tmp_path / "so3.lsa"
    f.write_text(NOT_NILPOTENT)
    assert main(["classify", str(f)]) == 1
    assert "not nilpotent" in capsys.readouterr().out


def test_classify_not_nilpotent_json(tmp_path, capsys):
    f = tmp_path / "so3.lsa"
    f.write_text(NOT_NILPOTENT)
    assert main(["classify", str(f), "--json"]) == 1
    assert json.loads(capsys.readouterr().out) == {"result": "not_nilpotent"}


def test_cover_output(capsys):
    assert main(["cover", "--builtin", "H(1,0)"]) == 0
    out = capsys.readouterr().out
    assert 'algebra "Ext(H(1,0))"' in out
    assert "kernel sdim = (2,0)" in out
    assert "stem condition: holds" in out


def test_verify_paper_small(capsys):
    assert main(["verify-paper", "--seed", "3", "--corpus-size", "12"]) == 0
    out = capsys.readouterr().out
    for key in ("Lemma 2.2", "Lemma 2.3", "Lemma 2.4", "Lemma 2.5", "Prop 3.1",
                "Prop 4.4", "Prop 4.5", "Lemma 4.1", "Lemma 4.6", "Prop 4.8",
                "Prop 5.6", "Theorem table"):
        assert f"PASS  {key}" in out
    assert "all checks passed" in out


def test_cover_round_trip_through_files(tmp_path, capsys):
    text = emit(heisenberg_even(1, 1))
    f = tmp_path / "h11.lsa"
    f.write_text(text)
    assert main(["multiplier", str(f), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sdim_M"] == [1, 2]
