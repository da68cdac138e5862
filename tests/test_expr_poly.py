"""The polynomial kernel under expand, ratio_normal and normal_form: value
exactness, the folds it must keep, exact big exponents, per-call memos."""

import random
import time
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from gbeq.expr import (
    Context,
    EvalError,
    Evaluator,
    ZERO,
    div,
    evaluate,
    exp,
    expand,
    format_expr,
    normal_form,
    parse,
    rat,
    ratio_normal,
    simplify,
    var,
)
from gbeq.expr.nodes import Add, App, Func, Mul, Rat, Var, add, pow_
from gbeq.expr.poly import _MIN_WIDTH, Kernel, Widen, run

from conftest import random_tree, verification_corpus

CTX = Context()
T = CTX.add_var("t")
X = CTX.add_var("x")
F = CTX.add_function("f", ("t", "x"))


def P(text):
    return parse(text, CTX)


def close(a, b):
    return abs(a - b) <= 1e-7 * max(1.0, abs(a), abs(b))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_ratio_normal_is_value_exact_on_random_trees(seed):
    e = random_tree(random.Random(seed))
    n, d = ratio_normal(e)
    q = div(n, d)
    rng = random.Random(seed)
    for _ in range(4):
        point = {"t": rng.uniform(0.2, 1.3), "x": rng.uniform(-1.3, -0.2)}
        try:
            want = evaluate(e, point)
            got = evaluate(q, point)
        except (EvalError, OverflowError, ZeroDivisionError):
            continue
        assert close(want, got), (format_expr(e), format_expr(q), point)


def test_exp_factors_merge_after_distribution():
    a, b = P("t*x"), P("x/(1 + t)")
    e = exp(a) * (1 + exp(b)) - exp(a) - exp(a + b)
    assert e != ZERO  # only the expansion brings the two exp factors together
    assert normal_form(e) == ZERO


def test_prime_radicals_fold():
    assert normal_form(P("2^(1/2)*2^(1/2) - 2")) == ZERO
    assert normal_form(P("(1 + 2^(1/2))^2 - 3 - 2*2^(1/2)")) == ZERO


def test_fractional_power_of_a_sum_splits_whole_and_rest():
    assert normal_form(P("(1 + t)^(3/2) - (1 + t)*(1 + t)^(1/2)")) == ZERO
    e = P("(1 + t)^(3/2) - (1 + t)^(1/2) - t*(1 + t)^(1/2)")
    assert e != ZERO
    assert normal_form(e) == ZERO


def test_proportional_bases_share_a_denominator():
    e = P("1/(1 + t) - 2/(2 + 2*t)")
    assert e != ZERO
    assert normal_form(e) == ZERO
    n, d = ratio_normal(P("1/(1 + t) + 1/(-2 - 2*t)"))
    assert format_expr(n) == "1"
    assert format_expr(d) == "2*(1 + t)"


def test_nested_moebius_quotient_matches_its_closed_form():
    # four-fold composition of z -> (2z + 1)/(z + 3); its matrix power
    # [[2, 1], [1, 3]]^4 = [[50, 75], [75, 125]] gives the closed form
    t = var("t")
    m = t
    for _ in range(4):
        m = (2 * m + 1) / (m + 3)
    closed = (2 * t + 3) / (3 * t + 5)
    assert m != closed
    assert normal_form(m - closed) == ZERO
    assert normal_form(m - closed + P("x/1000")) != ZERO


def test_huge_exponents_stay_exact_and_fast():
    start = time.perf_counter()
    assert normal_form(P("x^99999999*x - x^100000000")) == ZERO
    assert normal_form(P("x^99999999*(1 + x) - x^100000000 - x^99999999")) == ZERO
    assert expand(P("(t + x^99999999)^2")) == P("t^2 + 2*t*x^99999999 + x^199999998")
    assert time.perf_counter() - start < 5.0


def test_memos_live_for_one_call():
    a = P("1/(1 + t) + x")
    b = P("1/(1 + x) + t")
    first = ratio_normal(a)
    other = ratio_normal(b)
    again = ratio_normal(a)
    assert first == again
    assert first != other
    assert format_expr(other[1]) == "1 + x"
    # each kernel owns its atom table: nothing one call registered is
    # visible to the next
    k1, k2 = Kernel(), Kernel()
    k1.expand(a)
    assert k1.slot and not k2.slot and not k2.expanded
    assert k2.tree(k2.expand(b)) == expand(b)


def test_an_integral_numerator_is_its_own_ratio():
    # quotient hands back a polynomial with int coefficients and no
    # denominator as it is, over the denominator 1, and builds a new
    # numerator for every other polynomial
    shortcuts = 0
    for _, e, ctx in verification_corpus():
        k = Kernel()
        p = k.expand(simplify(e, ctx))
        if not p:
            continue
        n, lcm, top = k.quotient(p)
        plain = all(c.__class__ is int for c in p.values()) and not any(
            map(k._has_denominator, p)
        )
        assert (n is p) == plain
        if plain:
            assert lcm == 1 and not top
        shortcuts += plain
    assert shortcuts > 500


# denominator factors of every kind: sums whose own cleared numerator is a
# constant, one term or a sum; fractional negative powers of a variable
# and of a sum; opaque Pows with a negative exponent
DENOMINATORS = [
    "(1/t - 1/(1 + t))^-1",
    "(1/(1 + t) - 1/(2 + t))^-2",
    "(1 - 1/(1 + t))^-1",
    "(1 - 3*t/(2*(1 + t/2)) - 1/(1 + t/2))^-1",
    "(1 + 1/t)^-1",
    "(x + t/2)^-1",
    "(1 + t)^-2",
    "(2/3 + x/t^2)^-1",
    "t^(-7/2)",
    "x^(-1/2)",
    "t^-2",
    "(1 + 2*t)^(-7/2)",
    "(1 + t)^(-1/3)",
    "(1/t^2)^(-5/2)",
    "(t^2)^(-1/2)",
]
NUMERATORS = ["1", "t", "x", "t*x", "f", "exp(t)", "x^(1/2)", "(1 + t)^(1/2)"]
COEFFICIENTS = [1, -1, 2, Fraction(1, 2), Fraction(-3, 4), Fraction(5, 3)]


def drawn_sum(seed):
    """A sum of 2 to 5 terms, each a coefficient times a numerator over up
    to two denominator factors, drawn from seed."""
    rng = random.Random(seed)
    terms = []
    for _ in range(rng.randint(2, 5)):
        term = rat(rng.choice(COEFFICIENTS)) * P(rng.choice(NUMERATORS))
        for _ in range(rng.randint(0, 2)):
            term = term * P(rng.choice(DENOMINATORS))
        terms.append(term)
    return add(*terms)


def assert_quotient_is_value_exact(e, n, d, seed):
    """n/d equals e at four seeded float points with t, x > 0."""
    rng = random.Random(seed)
    evaluator = Evaluator(atom_values={F: 0.37})
    for _ in range(4):
        point = {"t": rng.uniform(0.2, 1.3), "x": rng.uniform(0.2, 1.3)}
        want, got = evaluator(e, point), evaluator(n, point) / evaluator(d, point)
        assert close(want, got), (format_expr(e), format_expr(n), format_expr(d), point)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 6))
def test_cleared_quotient_is_value_exact(seed):
    e = drawn_sum(seed)
    n, d = ratio_normal(e)
    assert_quotient_is_value_exact(e, n, d, seed)
    assert normal_form(e) == n


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 6))
def test_ratio_normal_numerator_is_the_normal_form(seed):
    # one quotient serves both, so they agree term for term, sign included
    e = kernel_tree(random.Random(seed), 4)
    assert ratio_normal(e)[0] == normal_form(e), format_expr(e)


def test_cleared_numerator_of_each_denominator_kind():
    cases = [
        # a sum atom whose own cleared numerator is one term, -2*t/(2 + t)
        ("x + 1/(1 - 3*t/(2*(1 + t/2)) - 1/(1 + t/2))", "-4 - 2*t + 4*t*x"),
        ("x + t^(-7/2)", "1 + t^(7/2)*x"),
        (
            "1/t + (1 + 2*t)^(-7/2)",
            "t + (1 + 8*t^3 + 12*t^2 + 6*t)*(1 + 2*t)^(1/2)",
        ),
        ("x/2 + (1/t^2)^(-5/2)", "2 + x*((1/t^2)^(5/2))"),
        # a lone term goes over its content-normal denominator too
        ("1/(1 + t/2)", "2"),
        ("3/(4*t)", "3"),
        ("x/(-1 - 2*t)", "-x"),
        ("2*x/(1 + 1/t)", "2*t*x"),
        ("(1/t^2)^(-5/2)", "1"),
    ]
    for seed, (text, want) in enumerate(cases):
        e = P(text)
        n, d = ratio_normal(e)
        assert n == expand(P(want)), text
        assert_quotient_is_value_exact(e, n, d, seed)


def exact_value(e, point, memo=None):
    """e at point in exact rationals, exp(n) read as 2**n.

    Only integer powers and exp of integer-valued arguments occur, and
    n -> 2**n maps sums to products as exp does, so every identity the
    kernel uses holds for this value too.  A zero under a negative power
    raises ZeroDivisionError.
    """
    memo = {} if memo is None else memo
    if e in memo:
        return memo[e]
    if isinstance(e, Rat):
        v = Fraction(e.value)
    elif isinstance(e, (Var, Func)):
        v = point[e]
    elif isinstance(e, Add):
        v = sum(exact_value(a, point, memo) for a in e.terms)
    elif isinstance(e, Mul):
        v = Fraction(e.coeff)
        for b, k in e.powers:
            v *= exact_value(b, point, memo) ** int(k)
    else:
        assert isinstance(e, App) and e.fn == "exp", e
        n = exact_value(e.arg, point, memo)
        assert n.denominator == 1, e
        v = Fraction(2) ** int(n)
    memo[e] = v
    return v


def kernel_tree(rng, depth):
    """Sums, products, integer and negative powers over t, x and f(t, x),
    with sums under negative powers and exp factors of integer arguments."""
    if depth <= 0 or rng.random() < 0.2:
        return rng.choice([T, X, F, rat(rng.randint(-3, 3)), rat(Fraction(rng.randint(-3, 3), 2))])
    op = rng.random()
    a = kernel_tree(rng, depth - 1)
    if op < 0.25:
        return a + kernel_tree(rng, depth - 1)
    if op < 0.5:
        return a * kernel_tree(rng, depth - 1)
    if op < 0.75:
        k = rng.choice([2, 3, -1, -2])
        if k < 0:
            a = a + kernel_tree(rng, depth - 1)  # most often a sum
        return pow_(a if a != ZERO else a + 1, k)
    arg = rat(rng.randint(-2, 2)) * T + rat(rng.randint(-2, 2)) * X + rat(rng.randint(-1, 1))
    return exp(arg) * a


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 6))
def test_expand_and_ratio_normal_are_exact_at_rational_points(seed):
    rng = random.Random(seed)
    e = kernel_tree(rng, 4)
    got = expand(e)
    n, d = ratio_normal(e)
    for _ in range(4):
        point = {v: Fraction(rng.randint(-3, 3)) for v in (T, X, F)}
        try:
            want = exact_value(e, point)
        except ZeroDivisionError:
            continue
        assert exact_value(got, point) == want, (format_expr(e), point)
        den = exact_value(d, point)
        if den:
            assert exact_value(n, point) / den == want, (format_expr(e), point)


def layout(e):
    """(width, den, expanded tree) of e on the layout its expansion ends on."""
    return run(lambda k: (k.width, k.den, k.tree(k.expand(e))))


def test_a_call_reruns_on_the_layout_its_exponents_need():
    cases = [
        # the product needs 27-bit fields for the exponents, not a wrap
        ("x^99999999*(x^-99999998 + t)", "x + t*x^99999999", None),
        ("x^(1/2)*(x^(1/3) + t)", "x^(5/6) + t*x^(1/2)", 6),
        # the base expands to 2^(1/2), so its root needs den 4, which no
        # exponent of the input shows
        ("(2^(1/2)*(1 + t) - 2^(1/2)*t)^(1/2)", "2^(1/4)", 4),
        # x^1200 is past the range of the starting field
        ("(x^600 + t)^2", "x^1200 + 2*t*x^600 + t^2", None),
    ]
    for text, want, den in cases:
        e = P(text)
        try:
            Kernel().expand(e)
        except Widen:
            pass
        else:
            raise AssertionError(f"{text} fits the starting layout")
        width, got_den, tree = layout(e)
        assert tree == P(want), text
        assert expand(e) == P(want), text
        if den is None:
            assert width > _MIN_WIDTH and got_den == 1, text
        else:
            assert got_den == den, text


def test_products_of_exp_factors_merge_cancel_or_fold():
    # both sides of each product carry an exp factor: they merge into
    # one exp, cancel to 1, or fold to x through exp(ln(x)) = x
    assert expand(P("(exp(t) + x)*(exp(x) + t)")) == P("exp(t + x) + t*exp(t) + x*exp(x) + t*x")
    assert expand(P("(exp(t) + 1)*(exp(-t) + 1)")) == P("2 + exp(t) + exp(-t)")
    assert expand(P("(exp(ln(x) + t) + 1)*(exp(-t) + 1)")) == P(
        "1 + x + exp(t + ln(x)) + exp(-t)"
    )


def test_products_settle_radicals_sums_and_opaque_powers():
    # each product takes a watched atom out of its settled range: a
    # radical's whole part goes to the coefficient, a sum at exponent 1
    # or more is multiplied out, and an opaque Pow goes through pow_
    assert expand(P("2^(1/2)*(x + 2^(1/2)) - 3^(1/3)*(t + 3^(2/3))")) == P(
        "-1 + 2^(1/2)*x - 3^(1/3)*t"
    )
    assert expand(P("(1 + t)^(3/4)*(x + (1 + t)^(1/2))")) == P(
        "t*(1 + t)^(1/4) + x*(1 + t)^(3/4) + (1 + t)^(1/4)"
    )
    assert expand(P("(x^(1/2))^(1/3)*(t + (x^(1/2))^(1/3))")) == P(
        "t*(x^(1/2))^(1/3) + (x^(1/2))^(2/3)"
    )
