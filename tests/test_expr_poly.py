"""The polynomial kernel under expand, ratio_normal and normal_form: value
exactness, the folds it must keep, exact big exponents, per-call memos."""

import random
import time
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from gbeq.expr import (
    Context,
    EvalError,
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
from gbeq.expr.nodes import ONE
from gbeq.expr.poly import Kernel

from conftest import random_tree, verification_corpus

CTX = Context()
CTX.add_var("t")
CTX.add_var("x")


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


def common_route(k, p):
    """expanded_ratio without its shortcut: each term over its own
    denominator, two or more terms summed by _common."""
    pairs = []
    for m, c in p.items():
        if k._has_denominator(m):
            pairs.append(k.ratio(k.tree({m: c})))
        elif isinstance(c, Fraction):
            pairs.append(({m: c.numerator}, rat(c.denominator)))
        else:
            pairs.append(({m: c}, ONE))
    return pairs[0] if len(pairs) == 1 else k._common(pairs)


def test_an_integral_numerator_is_its_own_ratio():
    # expanded_ratio hands back a polynomial with int coefficients and no
    # denominator as it is, and summing it over 1 gives the same dict
    shortcuts = 0
    for _, e, ctx in verification_corpus():
        k = Kernel()
        p = k.expand(simplify(e, ctx))
        if not p:
            continue
        n, d = k.expanded_ratio(p)
        shortcuts += n is p
        assert (n, d) == common_route(k, p)
    assert shortcuts > 500
