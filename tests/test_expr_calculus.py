"""Differentiation, substitution, and splitting by polynomial coefficients."""

import math

import pytest

from gbeq.expr import (
    Context,
    CollectError,
    DifferentiationError,
    app,
    contains_func,
    diff_n,
    differentiate,
    evaluate,
    exp,
    format_expr,
    func,
    integral,
    mul,
    parse,
    rat,
    simplify,
    split,
    substitute,
    var,
)
from gbeq.expr.parse import MAX_NESTING


@pytest.fixture
def ctx():
    c = Context()
    c.add_var("t")
    c.add_var("x")
    c.add_function("u", ("t", "x"))
    c.add_function("f", ("t", "x"))
    return c


def d(e, wrt, ctx):
    return format_expr(differentiate(e, wrt, ctx))


def test_polynomial_rules(ctx):
    assert d(parse("t*x^2", ctx), "x", ctx) == "2*t*x"
    assert d(parse("x^(-1)", ctx), "x", ctx) == "-1/x^2"
    assert d(parse("(1 + x)^(1/2)", ctx), "x", ctx) == "1/(2*(1 + x)^(1/2))"


def test_function_symbols_bump_indices(ctx):
    u = ctx.fn("u")
    assert d(u, "x", ctx) == "u_x"
    assert format_expr(diff_n(u, "x", 2, ctx)) == "u_xx"
    assert d(differentiate(u, "t", ctx), "x", ctx) == "u_tx"
    assert d(mul(u, u), "x", ctx) == "2*u*u_x"


def test_chain_rule_through_exp(ctx):
    f = ctx.fn("f")
    assert differentiate(exp(f), "x", ctx) == mul(ctx.fn("f", (0, 1)), exp(f))


def test_chain_rule_through_sin_and_cos(ctx):
    assert d(parse("sin(t*x)", ctx), "x", ctx) == "t*cos(t*x)"
    assert d(parse("cos(x^2)", ctx), "x", ctx) == "-2*x*sin(x^2)"
    assert d(parse("sin(cos(x))", ctx), "x", ctx) == "-cos(cos(x))*sin(x)"
    # against a central difference at one point
    e = parse("cos(t*x) + sin(x^2)", ctx)
    h, point = 1e-5, {"t": 0.7, "x": 1.3}
    slope = (
        evaluate(e, {**point, "x": point["x"] + h})
        - evaluate(e, {**point, "x": point["x"] - h})
    ) / (2 * h)
    assert evaluate(differentiate(e, "x", ctx), point) == pytest.approx(slope, rel=1e-8)


def test_integral_rules(ctx):
    f = ctx.fn("f")
    e = integral(f, "x")
    assert d(e, "x", ctx) == "f"
    assert d(e, "t", ctx) == "int(f_t, x)"


def test_explicit_arguments_chain(ctx):
    g = func("f", ("t", "x"), (0, 1), (parse("2*t", ctx), parse("1 + x", ctx)))
    assert d(g, "t", ctx) == "2*f_tx(2*t, 1 + x)"
    assert d(g, "x", ctx) == "f_xx(2*t, 1 + x)"


def test_abs_needs_sign_information(ctx):
    with pytest.raises(DifferentiationError):
        differentiate(app("abs", ctx.fn("f")), "x", ctx)
    signed = Context()
    signed.add_var("x")
    signed.add_function("f", ("x",))
    signed.assume_positive(signed.fn("f"))
    df = differentiate(app("abs", signed.fn("f")), "x", signed)
    assert format_expr(simplify(df, signed)) == "f_x"


def test_substitution_is_simultaneous(ctx):
    e = parse("t + x", ctx)
    r = substitute(e, {"t": var("x"), "x": parse("2*t", ctx)}, ctx)
    # sequential application would send t -> x -> 2t
    assert format_expr(r) == "2*t + x"


def test_substitute_solution_into_jet(ctx):
    e = parse("u_x + u^2", ctx)
    r = simplify(substitute(e, {"u": parse("2/x", ctx)}, ctx), ctx)
    assert format_expr(r) == "2/x^2"


def test_substitute_composes_into_explicit_args(ctx):
    e = func("u", ("t", "x"), (0, 0), (parse("2*t", ctx), var("x")))
    r = substitute(e, {"u": parse("t*x^2", ctx)}, ctx)
    assert format_expr(r) == "2*t*x^2"
    e2 = func("u", ("t", "x"), (1, 1), (parse("2*t", ctx), var("x")))
    assert format_expr(substitute(e2, {"u": parse("t*x^2", ctx)}, ctx)) == "2*x"


def test_substitute_replacements_enter_verbatim(ctx):
    # the image of t mentions x; the image of x must not rewrite it
    e = parse("t*x", ctx)
    r = substitute(e, {"t": var("x"), "x": var("t")}, ctx)
    assert format_expr(r) == "t*x"


@pytest.mark.parametrize(
    "text, atoms, coefficients",
    [
        ("(2 + t)*x^2 + t*x + 1/2", ["x"], {(0,): "1/2", (1,): "t", (2,): "2 + t"}),
        ("t*x + (1 + t)*int(f_x, x)", ["int(f_x, x)"], {(0,): "t*x", (1,): "1 + t"}),
        ("1 + t^2", ["x"], {(0,): "1 + t^2"}),
        # t's half power puts the layout on den 2, so x's field holds 2*degree
        ("t^(1/2)*x^2 + x", ["x"], {(1,): "1", (2,): "t^(1/2)"}),
        # 5000 does not fit the first layout's fields, so the call widens
        ("x^5000 + t*x", ["x"], {(1,): "t", (5000,): "1"}),
        ("(1 + t)*x^2 + t^2*x", ["t", "x"], {(0, 2): "1", (1, 2): "1", (2, 1): "1"}),
        (
            "t*u^2*int(f_x, x) + 2*u + t^3 + f",
            ["t", "u", "int(f_x, x)"],
            {(0, 0, 0): "f", (0, 1, 0): "2", (1, 2, 1): "1", (3, 0, 0): "1"},
        ),
        ("x^2*t + 3", ["x", "u"], {(0, 0): "3", (2, 0): "t"}),
        ("0", ["t", "x"], {(0, 0): "0"}),
    ],
    ids=[
        "polynomial", "int-atom", "no-occurrence", "radical-layout", "widen",
        "two-atoms", "var-func-int", "absent-atom", "zero",
    ],
)
def test_collect_by_degree(ctx, text, atoms, coefficients):
    co = split(parse(text, ctx), [parse(a, ctx) for a in atoms])
    assert {k: format_expr(v) for k, v in co.items()} == coefficients
    assert list(co) == sorted(co)


@pytest.mark.parametrize(
    "text, atoms, message",
    [
        ("1/(1 + x)", ["x"], "occurs inside"),
        ("x^(1/2)", ["x"], "non-polynomial power"),
        ("x^(3/2)*t", ["x"], "non-polynomial power"),
        ("exp(x)*x", ["x"], "occurs inside"),
        # t is split first and passes; x, the second atom, sits in exp
        ("t*exp(x)", ["t", "x"], r"^x occurs inside exp\(x\)$"),
    ],
    ids=["sum-base", "half-power", "fractional-power", "exp-factor", "second-atom-inside"],
)
def test_collect_rejects_non_polynomial(ctx, text, atoms, message):
    with pytest.raises(CollectError, match=message):
        split(parse(text, ctx), [parse(a, ctx) for a in atoms])


def test_collect_in_function_symbol(ctx):
    u = ctx.fn("u")
    e = parse("u^2*f + u*f_x + 1", ctx)
    co = split(e, (u,))
    assert format_expr(co[(2,)]) == "f"
    assert format_expr(co[(1,)]) == "f_x"
    assert format_expr(co[(0,)]) == "1"


def test_contains_func(ctx):
    e = parse("u_x + f*t", ctx)
    assert contains_func(e, "u")
    assert contains_func(e, "f")
    assert not contains_func(e, "g")


def test_derivative_of_integral_atom_in_product(ctx):
    f = ctx.fn("f")
    e = mul(var("t"), integral(f, "x"))
    r = differentiate(e, "t", ctx)
    assert format_expr(r) == "t*int(f_t, x) + int(f, x)"


def test_derivative_of_a_continued_fraction_at_the_nesting_limit(ctx):
    # 1/(1 + 1/(1 + ... x)): its derivative repeats every inner level in
    # each factor
    depth = MAX_NESTING - 1
    e = parse("1/(1 + " * depth + "x" + ")" * depth, ctx)
    r = differentiate(e, "x", ctx)
    c, dc = 0.5, 1.0
    for _ in range(depth):
        c = 1.0 / (1.0 + c)
        dc = -c * c * dc
    assert math.isclose(evaluate(r, {"x": 0.5}), dc, rel_tol=1e-9)
