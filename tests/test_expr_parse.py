"""Grammar coverage: canonical strings, round-trips, and error positions."""

import random

import pytest

from gbeq.expr import Context, ParseError, format_expr, parse
from gbeq.expr.fmt import format_head

from conftest import random_tree


@pytest.fixture
def ctx():
    c = Context()
    c.add_var("t")
    c.add_var("x")
    c.add_function("u", ("t", "x"))
    c.add_function("f", ("t", "x"))
    return c


CANONICAL = [
    ("0.5", "1/2"),
    ("2.0", "2"),
    ("1.25*x", "5*x/4"),
    ("2^3", "8"),
    ("-2^2", "-4"),
    ("(-2)^2", "4"),
    ("(4*t)^(1/2)", "2*t^(1/2)"),
    ("u_t + u*u_x + u_xx", "u*u_x + u_xx + u_t"),
    ("x - x", "0"),
    ("t*t", "t^2"),
    ("exp(0)", "1"),
    ("1/(2*x)", "1/(2*x)"),
]


@pytest.mark.parametrize("text,expected", CANONICAL)
def test_canonical_strings(ctx, text, expected):
    assert format_expr(parse(text, ctx)) == expected


ROUND_TRIPS = [
    "(t + x)/2",
    "exp(2*x)",
    "u*u_x + u_xx + u_t",
    "2*t^(1/2)",
    "f_tx",
    "int(f, x)",
    "int(exp(-x), x)",
    "1 + x^2",
    "-1/2 + 3*t*x",
    "x*(1 + t)^(1/2)",
]


@pytest.mark.parametrize("text", ROUND_TRIPS)
def test_fixed_point_strings(ctx, text):
    e = parse(text, ctx)
    assert format_expr(e) == text


@pytest.mark.parametrize(
    "text", ["x/(12 - 2*t)", "x/sin(2*t)", "x/(12 - 2*t)^(1/2)", "3/(2*x)"]
)
def test_lone_denominator_factor_parenthesized_once(ctx, text):
    # a single denominator factor was wrapped twice, as in x/((12 - 2*t))
    e = parse(text, ctx)
    assert format_expr(e) == text
    assert parse(format_expr(e), ctx) == e
    assert parse(format_expr(e), ctx) == e


def test_decimals_become_exact_rationals(ctx):
    e = parse("0.1", ctx)
    assert format_expr(e) == "1/10"
    assert format_expr(parse("3.75*t", ctx)) == "15*t/4"


ERRORS = [
    ("2/x + (t*", "expected an expression, found '' at column 10"),
    ("t +* x", "expected an expression, found '*' at column 4"),
    ("3..5", "unexpected character '.' at column 2"),
    ("q", "undeclared variable or function 'q' at column 1"),
    ("exp()", "expected an expression, found ')' at column 5"),
    ("t^x", "exponent must be a rational constant at column 2"),
    ("u_y", "u has arguments ('t', 'x'); cannot differentiate by 'y' at column 1"),
]


@pytest.mark.parametrize("text,message", ERRORS)
def test_error_messages_carry_positions(ctx, text, message):
    with pytest.raises(ParseError) as err:
        parse(text, ctx)
    assert message in str(err.value)


def test_error_shows_caret(ctx):
    with pytest.raises(ParseError) as err:
        parse("t +* x", ctx)
    lines = str(err.value).splitlines()
    assert lines[1] == "  t +* x"
    assert lines[2].rstrip() == "     ^"


def test_random_trees_round_trip(ctx):
    rng = random.Random(99)
    for _ in range(300):
        e = random_tree(rng)
        assert parse(format_expr(e), ctx) == e


def test_derivative_atoms(ctx):
    e = parse("u_tx*f - f_xx", ctx)
    assert format_expr(e) == "f*u_tx - f_xx"
    assert parse(format_expr(e), ctx) == e


def test_whitespace_is_free(ctx):
    assert parse(" t  +x ", ctx) == parse("t + x", ctx)


def test_format_head_cuts_between_terms(ctx):
    e = parse("(1 + t)^(1/2)*x - 3*(2 + x)^(5/2) + t^7 - 4", ctx)
    full = format_expr(e)
    assert full == "-4 + t^7 + x*(1 + t)^(1/2) - 3*(2 + x)^(5/2)"
    assert format_head(e, len(full)) == full
    # the cut text and its marker fit the limit
    assert format_head(e, 28) == "-4 + t^7 + x*(1 + t)^(1/2) …"
    assert format_head(e, 27) == "-4 + t^7 …"
    # the first term stays whole even past the limit
    e = parse("x*(1 + t)^(1/2) - 3*x^2", ctx)
    assert format_head(e, 5) == "x*(1 + t)^(1/2) …"
    assert format_head(parse("x*(1 + t)^(1/2)", ctx), 5) == "x*(1 + t)^(1/2)"
