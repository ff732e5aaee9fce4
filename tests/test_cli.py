import gc
import json
from pathlib import Path

import pytest

from superlie.cli import main
from superlie.corpus import corpus
from superlie.fileformat import emit
from superlie.constructions import heisenberg_even

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
