"""Constructor canonicalization and node identity for the expression core."""

import copy
import gc
import itertools
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
    Context,
    EvalError,
    Evaluator,
    Expr,
    ExprError,
    Func,
    Int,
    Mul,
    Pow,
    Rat,
    Var,
    add,
    app,
    atoms_of,
    contains_var,
    differentiate,
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
from gbeq.expr import nodes
from gbeq.expr.nodes import _log_term
from gbeq.expr.parse import MAX_NESTING, parse
from gbeq.expr.poly import run

from conftest import random_tree, shared_tree


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


# numbers, radicals of variables and of rationals, an opaque power, exps
# that merge or fold, and products and sums that flatten into others
OPERANDS = [
    0, 1, -1, 3, Fraction(1, 2), Fraction(-2, 3),
    sqrt(x), pow_(t, Fraction(-1, 2)), pow_(1 + t, -1),
    sqrt(rat(-2)), sqrt(rat(2)), exp(x), exp(-x), exp(2 * ln(x)),
    ln(1 + x), pow_(x * t, Fraction(1, 3)), 1 / (x - t),
]


@given(st.integers(0, 10**6))
def test_sums_and_products_ignore_order_and_grouping(seed):
    rng = random.Random(seed)
    p = rng.choices(OPERANDS, k=rng.randint(2, 5))
    for op in (add, mul):
        want = op(*p)
        for perm in itertools.permutations(p):
            assert op(*perm) is want, (op.__name__, p, perm)
            for i in range(1, len(perm)):
                assert op(op(*perm[:i]), *perm[i:]) is want, (op.__name__, perm, i)


def test_the_node_classes_are_final():
    # the constructors and walkers dispatch on node.__class__ is Mul and
    # so on, so a subclass would slip past them
    classes = (Rat, Var, Func, App, Int, Pow, Add, Mul)
    assert set(Expr.__subclasses__()) == set(classes)
    for cls in classes:
        assert cls.__subclasses__() == [], cls
    assert nodes._NODE_CLASSES == frozenset(classes)


def test_rational_powers_fold():
    assert pow_(rat(2), 3) == rat(8)
    assert pow_(rat(4), Fraction(1, 2)) == rat(2)
    assert sqrt(rat(4, 9)) == rat(2, 3)
    # partial extraction of square factors
    assert sqrt(rat(8)) == mul(2, sqrt(rat(2)))
    assert format_expr(sqrt(rat(2))) == "2^(1/2)"
    # radicals of one prime whose exponents sum past 1 split as pow_
    # splits: three factors 2^(1/2) are 2*2^(1/2), not 2^(3/2)
    root2 = sqrt(rat(2))
    assert mul(root2, root2, root2) is mul(2, root2) is pow_(rat(2), Fraction(3, 2))
    assert mul(root2, root2, root2, pow_(t, -1)) is mul(2, root2, pow_(t, -1))


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
        assert clone is e


# ---------------------------------------------------------------------------
# hash-consing: one live node per structure, ordered by keys of child nodes


def test_every_construction_route_hands_back_the_live_node(monkeypatch):
    u = func("u", ("t", "x"))
    # calculus builds the derivative's Func directly
    assert differentiate(u, "x") is func("u", ("t", "x"), (0, 1))
    assert Func("u", ("t", "x"), (0, 0), None) is u
    # context negates a product's coefficient into a direct Mul
    seen = []
    monkeypatch.setattr(Context, "is_positive", lambda self, e: seen.append(e))
    Context().is_negative(mul(-2, x))
    assert seen == [mul(2, x)] and seen[0] is mul(2, x)
    # the polynomial kernel builds its sums with a direct Add
    square = run(lambda k: k.tree(k.expand(pow_(x + 1, 2))))
    assert square is add(pow_(x, 2), mul(2, x), ONE)
    # _rat_power_parts keeps an even root of a negative rational as a Pow
    assert sqrt(rat(-2)) is Pow(rat(-2), Fraction(1, 2))
    assert mul(3, sqrt(rat(-2))) is Mul(3, ((Pow(rat(-2), Fraction(1, 2)), 1),))
    assert Rat(Fraction(4, 2)) is rat(2) and rat(2).value.__class__ is int
    assert Var("t") is t and Int(x, "x") is integral(x, "x")
    assert copy.copy(square) is square and copy.deepcopy([square])[0] is square


def test_a_dropped_tree_leaves_the_intern_table():
    gc.collect()
    gc.disable()  # so no collection of other garbage moves the count
    try:
        before = len(nodes._NODES)
        # raw classes, so no constructor memo keeps the tree alive
        v = Var("v_dropped")
        e = Add((App("sin", v), Mul(2, ((Pow(v, Fraction(1, 3)), 1),)), Int(v, "v_dropped")))
        assert len(nodes._NODES) == before + 6
        assert Add(e.terms) is e
        del v, e
        gc.collect()
        assert len(nodes._NODES) == before
        # the key is free again for a new node of that structure
        assert Var("v_dropped").name == "v_dropped"
        assert len(nodes._NODES) == before
    finally:
        gc.enable()


def _nested_key(e: Expr) -> tuple:
    """The sort key as it was before hash-consing: child keys in full."""
    if isinstance(e, Rat):
        return (0, e.value)
    if isinstance(e, Var):
        return (1, e.name)
    if isinstance(e, Func):
        args = (0,) if e.args is None else (1,) + tuple(map(_nested_key, e.args))
        return (2, e.name, e.argnames, e.didx, args)
    if isinstance(e, App):
        return (3, e.fn, _nested_key(e.arg))
    if isinstance(e, Int):
        return (4, e.var, _nested_key(e.body))
    if isinstance(e, Pow):
        return (5, _nested_key(e.base), e.exponent)
    if isinstance(e, Add):
        return (6,) + tuple(map(_nested_key, e.terms))
    return (7, e.coeff) + tuple((_nested_key(b), k) for b, k in e.powers)


def _nested_term_key(term: Expr) -> tuple:
    if isinstance(term, Rat):
        return ()
    powers = term.powers if isinstance(term, Mul) else ((term, 1),)
    return tuple((_nested_key(b), k) for b, k in powers)


@given(st.integers(0, 10**6))
def test_keys_of_child_nodes_order_as_nested_keys_did(seed):
    rng = random.Random(seed)
    canonical = [random_tree(rng) for _ in range(4)]
    # shared_tree adds Funcs, Ints and Pows, through raw classes too
    found = list(dict.fromkeys(
        n for e in canonical + [shared_tree(rng) for _ in range(2)] for n in walk(e)
    ))
    rng.shuffle(found)
    by_nested = sorted(found, key=_nested_key)
    assert sorted(found, key=lambda n: n._key) == by_nested
    assert sorted(found) == by_nested
    # the constructors sort sums and products in the nested order
    for n in (n for e in canonical for n in walk(e)):
        if isinstance(n, Mul):
            bases = [_nested_key(b) for b, _ in n.powers]
            assert bases == sorted(bases)
        elif isinstance(n, Add):
            terms = [_nested_term_key(term) for term in n.terms]
            assert terms == sorted(terms)


def test_a_shared_subtree_is_not_descended_into(monkeypatch):
    depth = MAX_NESTING - 1
    ctx = Context()
    ctx.add_var("x")
    chain = parse("1/(1 + " * depth + "x" + ")" * depth, ctx)
    left, right = add(chain, x), add(chain, t)
    compared = []
    real = Expr.__lt__

    def counting(a, b):
        compared.append((a, b))
        return real(a, b)

    monkeypatch.setattr(Expr, "__lt__", counting)
    assert (left < right) is (_nested_key(left) < _nested_key(right))
    # the two sums, then the one pair of terms that differ: no node of the
    # chain's 2 * depth Adds and Muls
    assert compared == [(left, right), (x, t)]


def test_unequal_examples():
    assert add(t, ONE) != add(t, rat(2))
    assert pow_(t, 2) != pow_(t, 3)
    assert exp(t) != exp(x)
    assert app("sign", t) != app("abs", t)
