"""simplify keeps structure, expand multiplies out, normal_form clears
denominators down to the zero set, ratio_normal stays value-exact."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gbeq.expr import (
    Context,
    EvalError,
    Evaluator,
    ExprError,
    NEGATIVE,
    NONZERO,
    NONZERO_FLAG,
    POSITIVE,
    ZERO,
    app,
    contains_var,
    div,
    evaluate,
    exp,
    expand,
    format_expr,
    is_zero,
    mul,
    normal_form,
    parse,
    pow_,
    rat,
    ratio_normal,
    simplify,
    sqrt,
    var,
)

from conftest import random_tree


@pytest.fixture
def ctx():
    c = Context()
    c.add_var("t")
    c.add_var("x")
    c.add_function("f", ("t", "x"))
    return c


def close(a, b, point):
    va = evaluate(a, point)
    vb = evaluate(b, point)
    return abs(va - vb) <= 1e-9 * max(1.0, abs(va), abs(vb))


def test_simplify_does_not_expand(ctx):
    e = parse("x*(1 + x)", ctx)
    assert format_expr(simplify(e, ctx)) == "x*(1 + x)"
    assert format_expr(expand(e)) == "x + x^2"


def test_expand_binomial(ctx):
    e = parse("(1 + x)^2", ctx)
    assert format_expr(expand(e)) == "1 + 2*x + x^2"


def test_expand_keeps_values(ctx):
    e = parse("(1 + t + x)^3*(2 - x)^2", ctx)
    out = expand(e)
    for point in ({"t": 0.3, "x": 1.7}, {"t": -1.2, "x": 0.4}):
        assert close(e, out, point)


def test_normal_form_zero_set(ctx):
    e = parse("1/(1 + x) + 1/(1 - x) - 2/(1 - x^2)", ctx)
    assert normal_form(e, ctx) == ZERO
    assert normal_form(parse("x*(1 + x)", ctx), ctx) == parse("x + x^2", ctx)


def test_normal_form_may_rescale(ctx):
    # the numerator of a cleared quotient is only defined up to a
    # nonzero rational factor; the current pipeline flips this sign
    e = parse("(x^2 - 1)/(x - 1)", ctx)
    assert format_expr(normal_form(e, ctx)) == "1 - x^2"


def test_ratio_normal_pair(ctx):
    n, d = ratio_normal(parse("(x^2 - 1)/(x - 1)", ctx))
    assert format_expr(n) == "1 - x^2"
    assert format_expr(d) == "1 - x"


def test_ratio_normal_unifies_proportional_bases(ctx):
    n, d = ratio_normal(parse("1/(1 + t) + 1/(2 + 2*t)", ctx))
    assert format_expr(n) == "3"
    assert format_expr(d) == "2*(1 + t)"


def test_ratio_normal_is_value_exact(ctx):
    cases = [
        "(3*x/2 - 2)/(-1 - t) + x/2",
        "1/(1 + t) - t/(1 - t) + x",
        "(x + t)^2/(2*t) - 1/x",
    ]
    for text in cases:
        e = parse(text, ctx)
        n, d = ratio_normal(e)
        q = div(n, d)
        for point in ({"t": 0.7, "x": -1.3}, {"t": -0.4, "x": 0.9}):
            assert close(e, q, point)


def test_affine_remainder_keeps_denominator(ctx):
    # extracting the x-free part of X = (3x/2 - 2)/(-1 - t) must keep
    # the 1/(1 + t) factor; clearing it changes the value
    X = parse("(3*x/2 - 2)/(-1 - t)", ctx)
    P = simplify(parse("(3/2)/(-1 - t)", ctx), ctx)
    Q = simplify(X - P * var("x"), ctx)
    n, d = ratio_normal(Q)
    q = simplify(div(n, d), ctx)
    assert not contains_var(q, "x")
    assert close(q, parse("2/(1 + t)", ctx), {"t": 0.3, "x": 0.0})


def test_sqrt_of_square_needs_sign(ctx):
    f = ctx.fn("f")
    assert format_expr(simplify(sqrt(mul(f, f)), ctx)) == "(f^2)^(1/2)"
    pos = Context()
    pos.add_var("t")
    pos.add_var("x")
    pos.add_function("f", ("t", "x"))
    pos.assume_positive(pos.fn("f"))
    assert format_expr(simplify(sqrt(mul(pos.fn("f"), pos.fn("f"))), pos)) == "f"


def test_abs_sign_rewrites(ctx):
    tv = var("t")
    assert format_expr(simplify(mul(app("abs", tv), app("sign", tv)), ctx)) == "t"
    neg = Context()
    neg.add_var("t")
    neg.assume_negative(var("t"))
    assert format_expr(simplify(app("abs", tv), neg)) == "-t"


def test_exp_quotients_merge(ctx):
    e = parse("exp(2*t)/exp(t)", ctx)
    assert format_expr(simplify(e, ctx)) == "exp(t)"


@given(st.integers(0, 10 ** 6))
def test_simplify_idempotent(seed):
    e = random_tree(random.Random(seed))
    once = simplify(e)
    assert simplify(once) == once


@given(st.integers(0, 10 ** 6))
def test_normal_form_idempotent_on_zero(seed):
    e = random_tree(random.Random(seed))
    diff = e - e
    assert normal_form(diff) == ZERO


def test_nested_root_merges_only_over_a_positive_base(ctx):
    # (-f)^(2/3) is positive for f != 0, but (-f) is not, so the two
    # roots must not merge into (-f)^(1/3): at f = 8 they are 2 and -2
    ctx.assume_name("f", NONZERO_FLAG)
    nested = parse("((-f)^(2/3))^(1/2)", ctx)
    merged = parse("(-f)^(1/3)", ctx)
    ev = Evaluator(atom_values={ctx.fn("f"): 8.0})
    assert ev(nested, {}) == pytest.approx(2.0)
    assert ev(merged, {}) == pytest.approx(-2.0)
    assert simplify(nested, ctx) != merged
    assert is_zero(nested - merged, ctx).verdict == NONZERO


_SOUNDNESS_EXPONENTS = tuple(
    Fraction(q) for q in ("2", "3", "-1", "1/2", "1/3", "2/3", "-1/2", "3/2", "-2/3", "4/3")
)


def _signed_tree(rng, f, depth):
    """A tree over t, x and f(t, x): +, *, nested rational powers,
    abs, sign, exp of a shallow argument, and ln."""
    if depth <= 0 or rng.random() < 0.2:
        kind = rng.random()
        if kind < 0.3:
            return f
        if kind < 0.55:
            return var("t")
        if kind < 0.8:
            return var("x")
        return rat(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    op = rng.random()
    if op < 0.2:
        return _signed_tree(rng, f, depth - 1) + _signed_tree(rng, f, depth - 1)
    if op < 0.4:
        return _signed_tree(rng, f, depth - 1) * _signed_tree(rng, f, depth - 1)
    if op < 0.75:
        return pow_(_signed_tree(rng, f, depth - 1), rng.choice(_SOUNDNESS_EXPONENTS))
    fn = rng.choice(("abs", "sign", "exp", "ln"))
    if fn == "exp":
        return exp(_signed_tree(rng, f, min(depth - 1, 1)))
    return app(fn, _signed_tree(rng, f, depth - 1))


def _signed_value(rng, flag):
    """A value in 0.2 <= |v| <= 2 that obeys the sign assumption flag."""
    v = rng.uniform(0.2, 2.0)
    if flag == NEGATIVE or (flag != POSITIVE and rng.random() < 0.5):
        return -v
    return v


def test_simplify_keeps_values_under_sign_assumptions():
    """simplify(e, ctx) equals e wherever both evaluate, at points and
    values of f that obey the context's sign assumptions."""
    rng = random.Random(2026)
    mismatches = []
    for _ in range(8000):
        ctx = Context()
        ctx.add_var("t")
        ctx.add_var("x")
        f = ctx.add_function("f", ("t", "x"))
        flags = {n: rng.choice((None, POSITIVE, NEGATIVE, NONZERO_FLAG)) for n in "txf"}
        for name, flag in flags.items():
            if flag:
                ctx.assume_name(name, flag)
        try:
            e = _signed_tree(rng, f, 4)
            s = simplify(e, ctx)
        except (ExprError, ArithmeticError):
            continue  # a power of zero the constructors refuse
        for _ in range(3):
            point = {"t": _signed_value(rng, flags["t"]), "x": _signed_value(rng, flags["x"])}
            ev = Evaluator(atom_values={f: _signed_value(rng, flags["f"])})
            try:
                a, b = ev(e, point), ev(s, point)
            except (ArithmeticError, ValueError, EvalError):
                continue
            if math.isfinite(a) and math.isfinite(b):
                if abs(a - b) > 1e-7 * max(1.0, abs(a), abs(b)):
                    mismatches.append((format_expr(e), format_expr(s), flags, a, b))
    assert not mismatches, mismatches[:3]
