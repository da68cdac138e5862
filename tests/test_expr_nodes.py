"""Constructor canonicalization and node identity for the expression core."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gbeq.expr import (
    ONE,
    SYMBOLIC_ZERO,
    ZERO,
    Add,
    App,
    EvalError,
    Evaluator,
    Expr,
    ExprError,
    Rat,
    add,
    app,
    atoms_of,
    contains_var,
    div,
    exp,
    format_expr,
    func,
    integral,
    is_zero,
    ln,
    mul,
    pow_,
    rat,
    sqrt,
    var,
    walk,
)
from gbeq.expr.nodes import _log_term

from conftest import random_tree


t = var("t")
x = var("x")


def test_rat_values():
    assert rat(3).value == Fraction(3)
    assert rat(1, 2).value == Fraction(1, 2)
    assert rat(Fraction(-7, 3)).value == Fraction(-7, 3)


def test_add_merges_like_terms():
    assert add(t, t) == mul(2, t)
    assert add(t, x, mul(-1, t)) == x
    assert add(t, mul(-1, t)) == ZERO
    assert add(rat(2), rat(3)) == rat(5)
    # order of the arguments never matters
    assert add(x, t) == add(t, x)


def test_mul_merges_powers():
    assert mul(t, t) == pow_(t, 2)
    assert mul(t, pow_(t, -1)) == ONE
    assert mul(rat(2), rat(3), t) == mul(6, t)
    assert mul(t, ZERO) == ZERO
    assert mul(x, t) == mul(t, x)


def test_rational_powers_fold():
    assert pow_(rat(2), 3) == rat(8)
    assert pow_(rat(4), Fraction(1, 2)) == rat(2)
    assert sqrt(rat(4, 9)) == rat(2, 3)
    # partial extraction of square factors
    assert sqrt(rat(8)) == mul(2, sqrt(rat(2)))
    assert format_expr(sqrt(rat(2))) == "2^(1/2)"


def test_negative_radicals_keep_only_the_fractional_exponent_opaque():
    # z^(n + r) = z^n z^r: the whole power leaves the opaque Pow
    root = pow_(rat(-2), Fraction(1, 2))
    assert pow_(rat(-2), Fraction(3, 2)) == mul(-2, root)
    assert mul(root, root, root) == mul(-2, root)
    assert format_expr(pow_(rat(-2), Fraction(-1, 2))) == "-((-2)^(1/2))/2"
    assert pow_(rat(-8), Fraction(-5, 4)) == mul(
        Fraction(1, 64), pow_(rat(-8), Fraction(3, 4))
    )
    assert is_zero(
        pow_(rat(-2), Fraction(3, 2)) - mul(-2, root)
    ).verdict == SYMBOLIC_ZERO


def test_zero_base_negative_power_raises():
    with pytest.raises(ZeroDivisionError):
        pow_(ZERO, -1)


def test_pow_distributes_over_integer_exponents():
    e = pow_(mul(2, t, x), 2)
    assert e == mul(4, pow_(t, 2), pow_(x, 2))


def test_exp_factors_fold():
    f = func("f", ("t", "x"))
    assert mul(exp(f), exp(mul(-1, f))) == ONE
    assert mul(exp(t), exp(x)) == exp(add(t, x))
    assert exp(ZERO) == ONE
    assert ln(ONE) == ZERO


def test_exp_merge_that_folds_to_a_product():
    # exp(x + ln(2x)) * exp(-x) merges into exp(ln(2x)), which is 2x
    assert mul(exp(add(x, ln(mul(2, x)))), exp(mul(-1, x))) == mul(2, x)
    assert mul(x, exp(add(t, mul(-1, ln(x)))), exp(mul(-1, t))) == ONE
    half_ln = mul(Fraction(1, 2), ln(x))
    assert mul(t, exp(x), exp(add(half_ln, mul(-1, x)))) == mul(t, sqrt(x))


def test_exp_of_a_rational_multiple_of_ln_folds():
    assert exp(mul(2, ln(rat(2)))) == rat(4)
    assert exp(mul(-1, ln(x))) == pow_(x, -1)
    assert exp(mul(Fraction(1, 2), ln(t))) == sqrt(t)
    # ln of a rational <= 0 is undefined: it is refused where it is
    # built, so no exp fold can hide it or divide by 0
    for r in (ZERO, rat(-2), rat(Fraction(-1, 2))):
        with pytest.raises(ExprError, match=r"^ln\(.*\) is undefined$"):
            ln(r)


def _log_sum(rng):
    """exp's argument: rational multiples of logs plus a rest, and the logs' arguments.

    Fractional multiples take the log of a tree positive on t, x > 0,
    since pow_ splits a fractional power over a product's factors.
    """
    positive = (t, x, rat(3), exp(t - x), add(1, t), add(t, mul(2, x)))
    terms, args = [random_tree(rng, 2)], []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.5:
            a = mul(*rng.sample(positive, rng.randint(1, 2)))
            c = rng.choice((Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3)))
        else:
            a = random_tree(rng, 2)
            if isinstance(a, Rat):
                a = add(a, x) if a.value <= 0 else a
            c = rng.choice((1, -1, 2, -3))
        args.append(a)
        terms.append(mul(c, ln(a)))
    return add(*terms), args


@given(st.integers(0, 10**6))
def test_exp_of_a_sum_of_logs_folds_to_its_value(seed):
    # the folded tree against an exp node built around the same argument,
    # at points where every log is defined
    rng = random.Random(seed)
    arg, args = _log_sum(rng)
    folded, unfolded = exp(arg), App("exp", arg)
    # no exp node of the folded tree keeps a log term in its argument
    for n in walk(folded):
        if isinstance(n, App) and n.fn == "exp":
            terms = n.arg.terms if isinstance(n.arg, Add) else (n.arg,)
            assert not any(map(_log_term, terms))
    ev = Evaluator()
    for _ in range(20):
        point = {"t": rng.uniform(0.1, 2.0), "x": rng.uniform(0.1, 2.0)}
        try:
            if min(ev(a, point) for a in args) <= 0:
                continue
            want = ev(unfolded, point)
        except EvalError:
            continue
        assert ev(folded, point) == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_division_formatting():
    f = func("f", ("t", "x"))
    assert format_expr(div(1, sqrt(f))) == "1/f^(1/2)"
    assert format_expr(div(t, x)) == "t/x"
    assert div(t, t) == ONE


def test_sugar_matches_constructors():
    assert t + x == add(t, x)
    assert t - t == ZERO
    assert t * x == mul(t, x)
    assert t / x == div(t, x)
    assert -t == mul(-1, t)
    assert 2 * t == mul(2, t)
    assert t ** 2 == pow_(t, 2)


def test_func_derivative_index():
    u = func("u", ("t", "x"))
    ux = func("u", ("t", "x"), (0, 1))
    assert format_expr(u) == "u"
    assert format_expr(ux) == "u_x"
    assert format_expr(func("u", ("t", "x"), (1, 2))) == "u_txx"
    assert u != ux


def test_func_explicit_args_format():
    g = func("f", ("t", "x"), (0, 1), (2 * t, x + 1))
    assert format_expr(g) == "f_x(2*t, 1 + x)"


def test_func_didx_must_match_signature():
    with pytest.raises(ExprError):
        func("u", ("t", "x"), (1,))


def test_integral_atom():
    f = func("f", ("t", "x"))
    e = integral(f, "x")
    assert format_expr(e) == "int(f, x)"
    assert contains_var(e, "x")
    assert e in atoms_of(e + t)


def test_atoms_of_collects_unknowns():
    f = func("f", ("t", "x"))
    ux = func("u", ("t", "x"), (0, 1))
    names = sorted(format_expr(a) for a in atoms_of(t * ux + f))
    assert names == ["f", "t", "u_x"]


def test_contains_var_sees_implicit_arguments():
    f = func("f", ("t", "x"))
    assert contains_var(f, "x")
    assert not contains_var(f, "y")
    g = func("f", ("t", "x"), (0, 0), (t, rat(0)))
    # x was pinned to 0, so the node no longer depends on it
    assert not contains_var(g, "x")


def test_equal_trees_share_hashes():
    rng = random.Random(7)
    for _ in range(200):
        e = random_tree(rng)
        clone = e + ZERO
        assert clone == e
        assert hash(clone) == hash(e)


def test_unequal_examples():
    assert add(t, ONE) != add(t, rat(2))
    assert pow_(t, 2) != pow_(t, 3)
    assert exp(t) != exp(x)
    assert app("sign", t) != app("abs", t)
