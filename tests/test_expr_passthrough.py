"""simplify passes a subtree it cannot rewrite through as the same object.

A node's build-time summary has the REWRITABLE bit when its subtree
holds an abs, a sign or an opaque Pow, the only nodes simplify rewrites.
simplify returns an unmarked subtree as it is, and normal_form_is_zero
builds and simplifies a nonempty numerator only over marked atoms.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gbeq.expr import (
    Add,
    App,
    Context,
    Func,
    Int,
    Mul,
    Pow,
    ZERO,
    add,
    app,
    differentiate,
    func,
    integral,
    mul,
    normal_form,
    normal_form_is_zero,
    parse,
    pow_,
    rat,
    simplify,
    substitute,
    var,
    walk,
)
from gbeq.expr.nodes import REWRITABLE, holds
from gbeq.expr.simplify import _numerator, _pair_sign_factors, _simplify_app, _simplify_pow

from conftest import random_tree, verification_corpus

t = var("t")
x = var("x")


def context(flag=None):
    c = Context()
    c.add_var("t")
    c.add_var("x")
    if flag == "positive":
        c.assume_positive(x)
    elif flag == "negative":
        c.assume_negative(x)
    return c


PLAIN, POS, NEG = context(), context("positive"), context("negative")

# replacements for x that put a node simplify rewrites at the leaves
BOTTOMS = (
    app("abs", x),
    mul(app("sign", x), x),  # pairs into abs(x) without assumptions
    pow_(pow_(x, 2), Fraction(1, 2)),  # stays an opaque Pow
)


def flagged_tree(rng):
    """A random tree over t and x, x replaced by one of BOTTOMS.

    Some are wrapped in an applied function or an antiderivative, so
    every node type with children occurs.
    """
    e = substitute(random_tree(rng), {"x": rng.choice(BOTTOMS)})
    wrap = rng.random()
    if wrap < 0.2:
        return func("g", ("t", "x"), None, (t, e))
    if wrap < 0.4:
        return add(integral(e, "x"), t)
    return e


def rewritten_here(n):
    """Does simplify rewrite the node n itself, whatever its children?"""
    return isinstance(n, Pow) or (isinstance(n, App) and n.fn in ("abs", "sign"))


def assert_flags_match_subtrees(e):
    for n in walk(e):
        assert holds(n, REWRITABLE) == any(rewritten_here(m) for m in walk(n)), n


def full_rebuild(e, ctx):
    """simplify as it was before the flag: every node rebuilt, nothing passed through."""
    if isinstance(e, App):
        return _simplify_app(e.fn, full_rebuild(e.arg, ctx), ctx)
    if isinstance(e, Pow):
        return _simplify_pow(full_rebuild(e.base, ctx), e.exponent, ctx)
    if isinstance(e, Mul):
        factors = [rat(e.coeff)]
        for b, ex in e.powers:
            factors.append(_simplify_pow(full_rebuild(b, ctx), ex, ctx))
        return _pair_sign_factors(mul(*factors), ctx)
    if isinstance(e, Add):
        return add(*[full_rebuild(term, ctx) for term in e.terms])
    if isinstance(e, Func) and e.args is not None:
        return func(e.name, e.argnames, e.didx, [full_rebuild(a, ctx) for a in e.args])
    if isinstance(e, Int):
        return integral(full_rebuild(e.body, ctx), e.var)
    return e


@given(st.integers(0, 10 ** 6))
def test_flag_matches_the_subtree_through_every_pass(seed):
    e = flagged_tree(random.Random(seed))
    for r in (
        e,
        simplify(e),
        simplify(e, POS),
        substitute(e, {"t": x + 1}),
        substitute(e, {"t": app("abs", t)}),
        differentiate(e, "x", POS),
        differentiate(e, "t", NEG),
        normal_form(e, POS),
    ):
        assert_flags_match_subtrees(r)


@given(st.integers(0, 10 ** 6))
def test_simplify_returns_an_unflagged_tree_itself(seed):
    e = random_tree(random.Random(seed))
    assert not holds(e, REWRITABLE)
    assert simplify(e) is e
    assert simplify(e, POS) is e


@given(st.integers(0, 10 ** 6))
def test_simplify_matches_the_full_rebuild(seed):
    e = flagged_tree(random.Random(seed))
    for ctx in (None, PLAIN, POS, NEG):
        assert simplify(e, ctx) == full_rebuild(e, ctx)


def test_a_product_over_a_repeated_pow_base_is_folded():
    # mul folds (-2)^(1/2) * (-2)^(1/2) to -2 as pow_ folds the square,
    # so the product is canonical at construction; simplify and
    # substitute rebuild it to the same node
    root = pow_(rat(-2), Fraction(1, 2))
    e = mul(x, root, root)
    assert e == mul(x, pow_(root, 2)) == mul(-2, x)
    assert simplify(e) == mul(-2, x) == full_rebuild(e, None)
    assert substitute(e, {"t": t + 1}) == mul(-2, x)


def test_leaves_and_unapplied_symbols_are_unflagged():
    assert not holds(rat(2), REWRITABLE)
    assert not holds(x, REWRITABLE)
    assert not holds(func("f", ("t", "x")), REWRITABLE)
    assert holds(app("abs", x), REWRITABLE)
    assert holds(app("sign", x + 1), REWRITABLE)
    assert holds(app("exp", app("abs", x)), REWRITABLE)
    assert not holds(app("exp", x), REWRITABLE)


def assert_zero_test_agrees(e, ctx):
    """normal_form_is_zero is normal_form == 0; returns the verdict."""
    verdict = normal_form_is_zero(e, ctx)
    assert verdict == (normal_form(e, ctx) == ZERO), e
    return verdict


def test_zero_test_agrees_with_the_normal_form_on_the_corpus():
    verdicts = [assert_zero_test_agrees(e, ctx) for _, e, ctx in verification_corpus()]
    assert True in verdicts and False in verdicts


@given(st.integers(0, 10 ** 6))
def test_zero_test_agrees_with_the_normal_form_on_flagged_trees(seed):
    e = flagged_tree(random.Random(seed))
    for d in (e, e - simplify(e, POS), e - full_rebuild(e, NEG)):
        for ctx in (None, PLAIN, POS, NEG):
            assert_zero_test_agrees(d, ctx)


@pytest.mark.parametrize(
    "text, ctx, zero, cleared",
    [
        ("abs(x) - x", PLAIN, False, False),
        ("abs(x) - x", POS, True, True),
        ("abs(x) + x", NEG, True, True),
        # only simplify, after expansion, pairs sign(x)*x into abs(x)
        ("sign(x)*(x + 1) - abs(x) - sign(x)", PLAIN, True, False),
        ("sign(x)*(x + 1) - abs(x) - sign(x)", NEG, True, True),
        ("(x^2)^(1/2)*(1 + t) - t*(x^2)^(1/2) - x", POS, True, True),
        ("(x^2)^(1/2)*(1 + t) - t*(x^2)^(1/2) - x", PLAIN, False, False),
    ],
)
def test_zero_test_simplifies_a_numerator_over_flagged_atoms(text, ctx, zero, cleared):
    e = parse(text, ctx)
    assert assert_zero_test_agrees(e, ctx) == zero
    _, n = _numerator(e, ctx)
    assert (not n) == cleared
