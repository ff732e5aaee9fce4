from dataclasses import replace
from fractions import Fraction
import random

import pytest

from base_change import SO3, random_parity_preserving
from superlie.constructions import model_registry, abelian, heisenberg_even
from superlie.core import change_basis
from superlie.corpus import corpus
from superlie.errors import (
    DuplicateIdentifier,
    GradingError,
    InconsistentBracket,
    InvalidParams,
    JacobiError,
    ParseError,
    UnknownIdentifier,
)
from superlie.fileformat import emit, parse
from superlie.superdim import SuperDim
from test_core import _stores_fractions

F = Fraction

H11_TEXT = """\
algebra "H(1,1)"
even u1 v1 z
odd w1
[u1,v1] = z
[w1,w1] = z
"""


def test_parse_basic():
    L = parse(H11_TEXT)
    assert L.name == "H(1,1)"
    assert L.sdim == SuperDim(3, 1)
    assert L.structure_equals(heisenberg_even(1, 1))
    assert L.labels == ("u1", "v1", "z", "w1")


def test_parse_comments_and_blank_lines():
    text = '# header\nalgebra "A"  # trailing\n\neven x  # ids\nodd\n'
    L = parse(text)
    assert L.name == "A"
    assert L.structure_equals(abelian(1, 0))


def test_parse_quoted_hash_in_name():
    L = parse('algebra "a#b"\neven x\nodd\n')
    assert L.name == "a#b"


def test_parse_coefficients():
    text = 'algebra "T"\neven x y z\nodd\n[x,y] = 1/2 z\n'
    L = parse(text)
    assert L.basis_bracket(0, 1) == {2: F(1, 2)}
    text = 'algebra "T"\neven x y z t\nodd\n[x,y] = -2 z + t\n'
    L = parse(text)
    assert L.basis_bracket(0, 1) == {2: F(-2), 3: F(1)}
    # repeated identifiers are summed; a zero sum stores no key
    L = parse('algebra "T"\neven x y z\nodd\n[x,y] = 2 z + 1/2 z\n')
    assert L.constants == (((0, 1), ((2, F(5, 2)),)),)
    L = parse('algebra "T"\neven x y z\nodd\n[x,y] = z + -1 z\n')
    assert L.constants == () and L.basis_bracket(0, 1) == {}


def test_parse_stores_one_fraction_per_constant():
    # [y, x] = -[x, y] for even x, y; [b, a] = [a, b] for odd a, b
    text = ('algebra "T"\neven x y z t\nodd a b\n'
            '[y,x] = -2 z + t\n[b,a] = 1/2 z\n[b,b] = 4/2 t\n')
    L = parse(text)
    assert _stores_fractions(L)
    assert L.basis_bracket(0, 1) == {2: F(2), 3: F(-1)}
    assert L.basis_bracket(1, 0) == {2: F(-2), 3: F(1)}
    assert L.basis_bracket(4, 5) == L.basis_bracket(5, 4) == {2: F(1, 2)}
    assert L.basis_bracket(5, 5) == {3: F(2)}


def test_parse_reversed_bracket_normalized():
    text = 'algebra "T"\neven x y z\nodd\n[y,x] = -1 z\n'
    L = parse(text)
    assert L.basis_bracket(0, 1) == {2: F(1)}


def test_parse_consistent_duplicate_allowed():
    text = 'algebra "T"\neven x y z\nodd\n[x,y] = z\n[y,x] = -1 z\n'
    L = parse(text)
    assert L.basis_bracket(0, 1) == {2: F(1)}


def test_parse_inconsistent_bracket():
    text = 'algebra "T"\neven x y z\nodd\n[x,y] = z\n[y,x] = z\n'
    with pytest.raises(InconsistentBracket):
        parse(text)


def test_parse_syntax_errors_carry_location():
    with pytest.raises(ParseError) as exc:
        parse('algebra "T"\neven x\nodd\nnonsense line\n')
    assert exc.value.line == 4
    with pytest.raises(ParseError):
        parse("even x\n")  # algebra line must come first
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse('algebra "T"\neven x\neven y\nodd\n')
    with pytest.raises(ParseError):
        parse('algebra "T"\neven x y\nodd\n[x,y] = 2.5 x\n')


def test_parse_zero_denominator_is_a_parse_error():
    with pytest.raises(ParseError) as exc:
        parse('algebra "T"\neven x y z\nodd\n[x,y] = z + 1/0 z\n')
    assert (exc.value.line, exc.value.column) == (4, 13)
    assert "zero denominator" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        parse('algebra "T"\neven x y z\nodd\n[x,y] = z + 0/0 z\n')
    assert (exc.value.line, exc.value.column) == (4, 13)
    assert "zero denominator in coefficient '0/0'" in str(exc.value)


@pytest.mark.parametrize("line,column,message", [
    ("even x1a 1a", 10, "bad identifier '1a'"),
    ("even  a\tb 9", 11, "bad identifier '9'"),
    ("[a,b] = c + 2 ?", 13, "bad term '2 ?'"),
    ("[a,b] = c +   d d", 15, "bad term 'd d'"),
    ("[a,b] = ?", 9, "bad term '?'"),
])
def test_parse_errors_point_at_their_token(line, column, message):
    text = 'algebra "T"\neven a b c\nodd\n' if line.startswith("[") else 'algebra "T"\n'
    with pytest.raises(ParseError) as exc:
        parse(text + line + "\n")
    assert exc.value.column == column
    assert message in str(exc.value)


def test_parse_identifier_errors():
    with pytest.raises(DuplicateIdentifier):
        parse('algebra "T"\neven x x\nodd\n')
    with pytest.raises(DuplicateIdentifier):
        parse('algebra "T"\neven x\nodd x\n')
    with pytest.raises(UnknownIdentifier):
        parse('algebra "T"\neven x y\nodd\n[x,q] = y\n')
    with pytest.raises(UnknownIdentifier):
        parse('algebra "T"\neven x y\nodd\n[x,y] = q\n')


@pytest.mark.parametrize("text,line,column", [
    ('algebra "T"\neven a b\nodd a\n', 3, 5),
    ('algebra "T"\n\neven x x\nodd\n', 3, 8),
    ('algebra "T"\nodd a\n  even b a\n', 3, 10),
])
def test_duplicate_identifier_points_at_the_second_declaration(text, line, column):
    with pytest.raises(DuplicateIdentifier) as exc:
        parse(text)
    assert (exc.value.line, exc.value.column) == (line, column)


@pytest.mark.parametrize("bracket,column", [
    ("[a,q] = b", 4),
    ("[q, a] = b", 2),
    ("[a,b] = c + 2 q", 15),
    ("\t[a,b] = q + c", 10),
])
def test_unknown_identifier_points_at_the_identifier(bracket, column):
    with pytest.raises(UnknownIdentifier) as exc:
        parse('algebra "T"\neven a b c\nodd\n' + bracket + "\n")
    assert (exc.value.line, exc.value.column) == (4, column)
    assert "'q'" in str(exc.value)


def test_inconsistent_bracket_points_at_the_bracket_in_the_raw_line():
    with pytest.raises(InconsistentBracket) as exc:
        parse('algebra "T"\neven x y z\nodd\n[x,y] = z\n   [y,x] = z  # again\n')
    assert (exc.value.line, exc.value.column) == (5, 4)


def test_parse_errors_count_leading_whitespace():
    with pytest.raises(ParseError) as exc:
        parse('algebra "T"\n  even x1a 1a\n')
    assert (exc.value.line, exc.value.column) == (2, 12)
    with pytest.raises(ParseError) as exc:
        parse('algebra "T"\neven a b c\nodd\n    [a,b] = c + ?\n')
    assert (exc.value.line, exc.value.column) == (4, 17)


def test_parse_mathematical_invalidity_propagates():
    with pytest.raises(GradingError):
        parse('algebra "T"\neven x y\nodd w\n[x,y] = w\n')
    with pytest.raises(JacobiError):
        parse('algebra "T"\neven x y z\nodd\n[x,y] = x\n[x,z] = y\n')


def test_emit_h11():
    assert emit(heisenberg_even(1, 1)) == H11_TEXT


def test_emit_parse_round_trip():
    rng = random.Random(11)
    conjugates = [change_basis(L, random_parity_preserving(rng, L))
                  for L in model_registry() + [SO3] for _ in range(2)]
    for L in model_registry() + [abelian(2, 2)] + corpus(0, 100) + conjugates:
        text = emit(L)
        back = parse(text)
        assert back == L and _stores_fractions(back)
        assert emit(back) == text  # byte-exact idempotence


def test_emit_rejects_a_label_with_a_space():
    # would emit "even a b c", which reads back as three basis elements
    L = abelian(2, 0)
    with pytest.raises(InvalidParams, match="not an identifier"):
        emit(replace(L, labels=("a b", "c")))


def test_emit_rejects_a_label_that_is_not_an_identifier():
    with pytest.raises(InvalidParams, match="'1a'"):
        emit(replace(abelian(1, 0), labels=("1a",)))


@pytest.mark.parametrize("name", ['say "hi"', "two\nlines", "cr\rlf", "sep\u2028"])
def test_emit_rejects_a_name_it_cannot_quote(name):
    with pytest.raises(InvalidParams, match="cannot be quoted"):
        emit(replace(abelian(1, 0), name=name))
