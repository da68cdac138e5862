"""The integer fast path: every integral rational a node stores is an int.

Rat.value, Mul.coeff and the exponents of Mul and Pow nodes are plain
ints when integral and Fractions only otherwise, after every
constructor and every pass.  Integer powers of rationals stay exact,
although int ** -n is a float in Python.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gbeq.expr import (
    Context,
    ExprError,
    Mul,
    ParseError,
    Pow,
    Rat,
    add,
    app,
    differentiate,
    div,
    evaluate,
    exp,
    format_expr,
    integral,
    mul,
    normal_form,
    parse,
    pow_,
    rat,
    simplify,
    sqrt,
    substitute,
    var,
    walk,
)

from conftest import random_tree

CTX = Context()
CTX.add_var("t")
CTX.add_var("x")

t = var("t")
x = var("x")

TEXTS = (
    "x^-2 * x^(1/2)",
    "x^(1/2) * x^(3/2) + 6/(4*t)",
    "(4*x^2)^(1/2) + (1/8)^(-2/3)",
    "2^(1/2) * 2^(3/2) - 3^(-1/2) * x",
    "(-8)^(1/3) * x + (x^(1/2))^4",
    "exp(2*ln(x)) / x^2 + exp(x/2)^4",
    "(1 + t)^(3/2) * (1 + t)^(-1/2) / (2*x)",
    "abs(t - 1)^2 * x + sign(t - 3)^3 * x^(1/3)",
)

MAPPING = {"x": parse("t/2 + 1", CTX), "t": parse("x^(1/2)", CTX)}


def stored_rationals(e):
    """Every coefficient and exponent stored in the nodes of e."""
    for n in walk(e):
        if isinstance(n, Rat):
            yield n.value
        elif isinstance(n, Mul):
            yield n.coeff
            for _, ex in n.powers:
                yield ex
        elif isinstance(n, Pow):
            yield n.exponent


def assert_exact(e):
    for v in stored_rationals(e):
        if v.__class__ is Fraction:
            assert v.denominator != 1, (format_expr(e), v)
        else:
            assert v.__class__ is int, (format_expr(e), v)


def subtrees(e, k, rng):
    nodes = list(walk(e))
    return [rng.choice(nodes) for _ in range(k)]


CONSTRUCTORS = (
    lambda a, b: add(a, b),
    lambda a, b: mul(a, b),
    lambda a, b: div(a, b),
    lambda a, b: a - b,
    lambda a, b: pow_(a, -2),
    lambda a, b: pow_(a, Fraction(1, 2)),
    lambda a, b: pow_(a, Fraction(-3, 2)),
    lambda a, b: pow_(mul(a, b), Fraction(2, 4)),
    lambda a, b: sqrt(a) * sqrt(a),
    lambda a, b: exp(a) * exp(-b),
    lambda a, b: app("abs", a),
    lambda a, b: app("sign", mul(rat(-3, 2), a)),
    lambda a, b: integral(a, "x"),
)


@given(st.integers(0, 10 ** 6), st.sampled_from(TEXTS))
def test_passes_store_integral_rationals_as_ints(seed, text):
    rng = random.Random(seed)
    tree = random_tree(rng)
    parsed = parse(text, CTX)
    for e in (tree, parsed, mul(tree, parsed)):
        assert_exact(e)
        for a, b in zip(subtrees(e, 4, rng), subtrees(e, 4, rng)):
            for make in CONSTRUCTORS:
                try:
                    r = make(a, b)
                except (ExprError, ZeroDivisionError):
                    continue
                assert_exact(r)
        assert_exact(simplify(e, CTX))
        assert_exact(differentiate(e, "x", CTX))
        assert_exact(substitute(e, MAPPING, CTX))
        assert_exact(normal_form(e, CTX))


def test_negative_integer_powers_stay_exact():
    r = pow_(rat(2), -3)
    assert r == rat(1, 8) and r.value.__class__ is Fraction
    assert pow_(rat(1, 2), -2).value.__class__ is int
    assert pow_(rat(-2, 3), -3) == rat(-27, 8)
    assert mul(pow_(rat(3), -1), rat(6)).value == 2
    assert evaluate(pow_(rat(2), -3), {}) == 0.125


def test_powers_of_x_merge_to_exact_exponents():
    e = mul(pow_(x, -2), pow_(x, Fraction(1, 2)))
    assert isinstance(e, Mul) and e.powers == ((x, Fraction(-3, 2)),)
    assert format_expr(e) == "1/x^(3/2)"
    whole = mul(e, pow_(x, Fraction(1, 2)))
    assert whole == pow_(x, -1)
    assert whole.powers[0][1].__class__ is int
    assert parse("x^-2 * x^(1/2) * x^(1/2)", CTX) == div(1, x)


def test_radicals_fold_to_exact_parts():
    assert (sqrt(rat(2)) * sqrt(rat(2))).value.__class__ is int
    r = pow_(rat(2), Fraction(-3, 2))
    # 2^(-3/2) = 1/4 * 2^(1/2)
    assert r.coeff == Fraction(1, 4) and r.powers == ((rat(2), Fraction(1, 2)),)
    assert abs(evaluate(r, {}) - 2 ** -1.5) < 1e-15
    assert pow_(rat(-8), Fraction(1, 3)) == rat(-2)
    assert pow_(rat(4), Fraction(-1, 2)) == rat(1, 2)
    assert sqrt(rat(8)).coeff.__class__ is int


def test_zero_to_a_negative_power_still_raises():
    with pytest.raises(ZeroDivisionError):
        pow_(rat(0), -1)
    with pytest.raises(ParseError):
        parse("0^(-1)", CTX)


def test_floats_are_refused_not_rationalized():
    # the equal exact calls go first: a float must not hit their memo entries
    assert pow_(x, Fraction(1, 2)) == sqrt(x)
    assert pow_(x, Fraction(2)) == mul(x, x)
    assert rat(Fraction(1, 10)) == rat(1, 10)
    assert add(x, Fraction(1, 2)) == x + rat(1, 2)
    assert mul(Fraction(1, 2), x) == rat(1, 2) * x
    for make in (
        lambda: rat(0.1),
        lambda: rat(0.5, 2),
        lambda: pow_(x, 0.5),
        lambda: x ** 2.0,
        # add and mul coerce a number operand themselves, arithmetic sugar too
        lambda: add(x, 0.5),
        lambda: mul(0.5, x),
        lambda: x + 0.5,
        lambda: 0.5 * x,
        lambda: x - 0.5,
        lambda: 0.5 / x,
    ):
        with pytest.raises(TypeError):
            make()
    # a bool or an integral Fraction operand is stored as a plain int
    assert mul(True, x) is x
    assert mul(True, 3, x).coeff.__class__ is int
    two_x = mul(Fraction(4, 2), x)
    assert two_x is mul(2, x) and two_x.coeff.__class__ is int
    shifted = add(Fraction(4, 2), x)
    assert shifted is add(2, x) and shifted.terms[0].value.__class__ is int
    assert add(True, x).terms[0].value.__class__ is int
