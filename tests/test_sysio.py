"""The system-file grammar: polynomial expressions and header lines."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from parser_oracle import parse_polynomial as oracle_parse

from wgb.errors import SystemFormatError as ErrorsSystemFormatError
from wgb.sysio import SystemFormatError, parse_polynomial, parse_system

# names with digits and underscores
HEADER = "p 13\nvars X y_1 _z2 Ab9_\nweights 2 1 1 3\n"
RING = parse_system(HEADER).ring


@st.composite
def valid_expressions(draw):
    """[sign] term (sign term)* with random spaces and tabs around every
    token: constants (0 included), powers (^0 included), repeated names."""
    space = st.text(alphabet=" \t", max_size=3)
    tokens = []
    lead = draw(st.sampled_from(["", "+", "-"]))
    if lead:
        tokens.append(lead)
    for t in range(draw(st.integers(1, 4))):
        if t:
            tokens.append(draw(st.sampled_from(["+", "-"])))
        for f in range(draw(st.integers(1, 4))):
            if f:
                tokens.append("*")
            if draw(st.booleans()):
                tokens.append(str(draw(st.integers(0, 40))))
            else:
                tokens.append(draw(st.sampled_from(RING.names)))
                if draw(st.booleans()):
                    tokens += ["^", str(draw(st.integers(0, 5)))]
    return "".join(draw(space) + tok for tok in tokens) + draw(space)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(valid_expressions())
def test_grammar_matches_hand_written_reader(expr):
    assert parse_polynomial(expr, RING).terms == oracle_parse(expr, RING).terms


@pytest.mark.parametrize(
    "expr",
    [
        "X + - y_1", "X - + 3", "X +", "- + X",  # a sign followed by an empty term
        "- - X", "X ++ y_1", "X + + y_1",  # a doubled sign
        "*X", "X*", "X * * y_1", "3 *",  # a leading or trailing '*'
        "-", "+", " - ",  # a bare sign
        "X y_1", "3 X", "X^2 y_1", "2X",  # NAME NAME and INT NAME
        "X^", "X^ + y_1", "X^y_1", "X^-2",  # '^' without an integer
        "(X)", "(X + y_1)*3", "X*(y_1)",  # parentheses
        "", "   ",
    ],
)
def test_malformed_expression_refused(expr):
    with pytest.raises(SystemFormatError, match="malformed polynomial"):
        parse_polynomial(expr, RING)


def test_hand_written_reader_misread_malformed_lines():
    # what the grammar refuses, the old reader took for another polynomial
    misread = {"X + - y_1": {(1, 0, 0, 0): 1, (0, 1, 0, 0): 12, (0, 0, 0, 0): 1},
               "- - X": {(1, 0, 0, 0): 12, (0, 0, 0, 0): 12},
               "X*": {(1, 0, 0, 0): 1},
               "-": {}}
    for expr, want in misread.items():
        assert oracle_parse(expr, RING).coeff_map() == want
        with pytest.raises(SystemFormatError):
            parse_polynomial(expr, RING)


def test_long_whitespace_runs_stay_linear():
    gap = " \t" * 50_000
    accepted = [f"X{gap}+{gap}3{gap}*{gap}y_1{gap}^{gap}2{gap}", f"{gap}-X"]
    refused = [f"X{gap}y_1", f"X{gap}+{gap}", f"X{gap}^{gap}", f"X{gap}*{gap}",
               f"X{gap}!", ("X" + gap + "+") * 2 + "("]
    for expr in accepted + refused:
        start = time.perf_counter()
        try:
            parse_polynomial(expr, RING)
            assert expr in accepted
        except SystemFormatError:
            assert expr in refused
        assert time.perf_counter() - start < 1.0


def test_undeclared_variable_named_with_line():
    with pytest.raises(SystemFormatError, match=r"line 4: undeclared variable 'Z'"):
        parse_system(HEADER + "poly X + Z\n")


def test_malformed_line_named():
    with pytest.raises(SystemFormatError, match=r"line 5: malformed polynomial 'X \+ - y_1'"):
        parse_system(HEADER + "poly X\npoly X + - y_1\n")


def test_repeated_variable_name_refused():
    with pytest.raises(SystemFormatError, match=r"line 2: variable 'X' declared twice"):
        parse_system("p 13\nvars X X\nweights 2 1\npoly X^2\n")


def test_system_format_error_is_a_typed_error():
    assert SystemFormatError is ErrorsSystemFormatError
    assert issubclass(SystemFormatError, ValueError)


@pytest.mark.parametrize(
    "header, lineno, message",
    [
        ("p abc", 1, "'p' wants one prime below 2^31, got 'abc'"),
        ("p", 1, "'p' wants one prime below 2^31, got ''"),
        ("p 7 11", 1, "'p' wants one prime below 2^31, got '7 11'"),
        ("p 15", 1, "modulus 15 is not prime"),
        ("p 2147483648", 1, "modulus 2147483648 is not below the supported bound 2^31"),
        ("vars", 2, "'vars' wants names matching"),
        ("vars 1X Y", 2, "'vars' wants names matching [A-Za-z_][A-Za-z_0-9]*, got '1X Y'"),
        ("vars X Y-1", 2, "'vars' wants names matching"),
        ("weights", 3, "'weights' wants positive integers, got ''"),
        ("weights 1.5 1", 3, "'weights' wants positive integers, got '1.5 1'"),
        ("weights 0 1", 3, "'weights' wants positive integers, got '0 1'"),
        ("weights -1 2", 3, "'weights' wants positive integers, got '-1 2'"),
    ],
)
def test_header_errors_named_with_line(header, lineno, message):
    lines = ["p 7", "vars X Y", "weights 1 1"]
    lines[lineno - 1] = header
    with pytest.raises(SystemFormatError) as info:
        parse_system("\n".join(lines) + "\npoly X\n")
    assert str(info.value).startswith(f"line {lineno}: {message}")


@pytest.mark.parametrize(
    "text, message",
    [
        ("p 7\nvars X\nvars Y\nweights 1\n", "line 3: second 'vars' line (the first is line 2)"),
        ("p 7\nvars X\nweights 1\n# note\nweights 2\n", "line 5: second 'weights' line (the first is line 3)"),
        ("p 7\nvars X\np 7\nweights 1\n", "line 3: second 'p' line (the first is line 1)"),
    ],
)
def test_repeated_header_line_refused(text, message):
    with pytest.raises(SystemFormatError) as info:
        parse_system(text)
    assert str(info.value) == message


def test_directive_split_on_any_whitespace():
    sys = parse_system("p\t7\nvars\tX  Y\nweights \t 2\t1\npoly\tX + Y^2\n")
    assert sys.ring.field.p == 7
    assert sys.ring.names == ("X", "Y")
    assert sys.ring.weights.weights == (2, 1)
    assert sys.polys[0] == parse_system("p 7\nvars X Y\nweights 2 1\npoly X + Y^2\n").polys[0]


def test_header_integers_and_names():
    sys = parse_system("p   13\nvars X y_1 _z2\nweights 2 01 10\npoly X + y_1^2\n")
    assert sys.ring.field.p == 13
    assert sys.ring.names == ("X", "y_1", "_z2")
    assert sys.ring.weights.weights == (2, 1, 10)
    # no p line: the default modulus
    assert parse_system("vars X\nweights 1\n").ring.field.p == 65521


def test_both_printers_render_terms_alike():
    # str writes each coefficient as its residue, format_polynomial as the
    # residue of least absolute value after a sign; the factors and the
    # coefficient 1 left out before them are the same in both
    from wgb import PolyRing
    from wgb.sysio import format_polynomial

    R = PolyRing(7, (2, 1, 1))
    x, y, z = R.gens()
    cases = [
        (R.zero(), "0", "0"),
        (R.one(), "1", "1"),
        (R.const(3), "3", "3"),
        (R.const(6), "6", "-1"),
        (x, "X1", "X1"),
        (6 * x, "6*X1", "-X1"),
        (3 * x**2, "3*X1^2", "3*X1^2"),
        (x**2 * y + R.one(), "X1^2*X2 + 1", "X1^2*X2 + 1"),
        (5 * x * y**2 * z + 6 * z**4 + R.one(), "5*X1*X2^2*X3 + 6*X3^4 + 1", "-2*X1*X2^2*X3 - X3^4 + 1"),
        (6 * y * z**3 + 2 * x * y + R.const(6), "6*X2*X3^3 + 2*X1*X2 + 6", "-X2*X3^3 + 2*X1*X2 - 1"),
    ]
    for f, text, formatted in cases:
        assert (str(f), format_polynomial(f)) == (text, formatted)
        assert parse_polynomial(formatted, R) == f
