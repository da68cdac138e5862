"""The children/walk protocol and the queries built on it."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gbeq.expr import (
    Add,
    App,
    Func,
    Int,
    Mul,
    Pow,
    Rat,
    Var,
    atoms_of,
    contains_func,
    contains_var,
    exp,
    format_expr,
    add,
    app,
    func,
    integral,
    mul,
    pow_,
    rat,
    var,
    walk,
)
from gbeq.expr.nodes import (
    APP,
    APPLIED,
    FUNC,
    INT,
    REWRITABLE,
    _name_bit,
    holds,
    mentions_var,
)
from gbeq.expr.zero import _collect_symbols

from conftest import shared_tree

t = var("t")
x = var("x")
f = func("f", ("t", "x"))  # applied at its own signature variables
f_t0 = func("f", ("t", "x"), None, (t, rat(0)))
f_shift = func("f", ("t", "x"), None, (t, x + 1))
int_x = integral(f, "x")  # int(f, x)
int_t = integral(f, "t")  # int(f, t): t is mentioned only as the Int variable
opaque_pow = pow_(pow_(x, 2), Fraction(1, 2))  # (x^2)^(1/2) stays a Pow


def test_node_kinds_are_as_labelled():
    assert isinstance(f, Func) and f.args is None
    assert isinstance(f_t0, Func) and f_t0.args is not None
    assert isinstance(int_x, Int) and isinstance(int_t, Int)
    assert isinstance(opaque_pow, Pow)


CHILDREN = [
    (rat(3), Rat, []),
    (x, Var, []),
    (f, Func, []),
    (f_t0, Func, ["t", "0"]),
    (exp(x), App, ["x"]),
    (int_x, Int, ["f"]),
    (opaque_pow, Pow, ["x^2"]),
    (t + x, Add, ["t", "x"]),
    (mul(2, t, pow_(x, 2)), Mul, ["t", "x"]),
]


@pytest.mark.parametrize("e, kind, children", CHILDREN)
def test_children_cover_every_node_type(e, kind, children):
    assert type(e) is kind
    assert [format_expr(c) for c in e.children()] == children


@pytest.mark.parametrize("e, kind, children", CHILDREN)
def test_rebuild_with_identity_reproduces_the_node(e, kind, children):
    assert e.rebuild(lambda c: c) == e


# expression, contains_var x, mentions_var x, contains_var t,
# mentions_var t, contains_func f, an Int or an applied Func (the
# stand-in sampler's test), an App, Func or Int (verify's opaque
# test), atoms_of
QUERIES = [
    (rat(3), False, False, False, False, False, False, False, []),
    (x, True, True, False, False, False, False, False, ["x"]),
    # unapplied f mentions its signature variables only loosely
    (f, True, False, True, False, True, False, True, ["f"]),
    (f_t0, False, False, True, True, True, True, True, ["f(t, 0)", "t"]),
    (f_shift, True, True, True, True, True, True, True, ["f(t, 1 + x)", "t", "x"]),
    (exp(x), True, True, False, False, False, False, True, ["x"]),
    # the Int variable counts for both forms; atoms stop at the Int node
    (int_x, True, True, True, False, True, True, True, ["int(f, x)"]),
    (int_t, True, False, True, True, True, True, True, ["int(f, t)"]),
    (opaque_pow, True, True, False, False, False, False, False, ["x"]),
    (t + x, True, True, True, True, False, False, False, ["t", "x"]),
    (mul(2, t, pow_(x, 2)), True, True, True, True, False, False, False, ["t", "x"]),
]


@pytest.mark.parametrize(
    "e, cv_x, strict_x, cv_t, strict_t, has_f, standins, opaque, atoms", QUERIES
)
def test_queries(e, cv_x, strict_x, cv_t, strict_t, has_f, standins, opaque, atoms):
    assert contains_var(e, "x") is cv_x
    assert mentions_var(e, "x") is strict_x
    assert contains_var(e, "t") is cv_t
    assert mentions_var(e, "t") is strict_t
    assert contains_func(e, "f") is has_f
    assert not contains_func(e, "g")
    assert holds(e, INT | APPLIED) is standins
    assert holds(e, APP | FUNC | INT) is opaque
    assert [format_expr(a) for a in atoms_of(e)] == atoms


def test_walk_is_preorder_left_to_right():
    # the t inside f's arguments is the node already met, so it is skipped
    e = t * exp(f_shift)
    assert [format_expr(n) for n in walk(e)] == [
        "t*exp(f(t, 1 + x))", "t", "exp(f(t, 1 + x))", "f(t, 1 + x)",
        "1 + x", "1", "x",
    ]


def test_atoms_keep_first_seen_order_without_duplicates():
    g = func("g", ("t",))
    e = g * exp(x * t) + int_x * x + f_t0 * g
    assert [format_expr(a) for a in atoms_of(e)] == [
        format_expr(a) for a in _reference_atoms(e)
    ]
    atoms = atoms_of(e)
    assert len(atoms) == len(set(atoms))
    # the body of int(f, x) is not opened, so the unapplied f is absent
    assert f not in atoms and int_x in atoms


def _reference_atoms(e):
    """atoms_of written out recursively, the order samplers rely on."""
    out = []

    def visit(n):
        if isinstance(n, (Var, Int, Func)) and n not in out:
            out.append(n)
        if not isinstance(n, Int):
            for c in n.children():
                visit(c)

    visit(e)
    return out


def test_collect_symbols_gathers_signatures_and_variables():
    g = func("g", ("t",))
    funcs, names = _collect_symbols(int_t * g + f_t0)
    assert funcs == {"f": ("t", "x"), "g": ("t",)}
    assert names == {"t", "x"}


def test_walk_handles_deep_trees_without_recursion():
    e = x
    for _ in range(5000):
        e = App("sin", e)
    nodes = list(walk(e))
    assert len(nodes) == 5001
    assert nodes[-1] == x
    assert contains_var(e, "x")
    assert not contains_var(e, "t")
    assert not contains_func(e, "f")
    assert atoms_of(e) == [x]


# -- build-time summaries against the walkers they replaced -----------------


def every_node(e):
    """Every node on every path from e, in preorder, repeats included."""
    stack = [e]
    while stack:
        n = stack.pop()
        yield n
        stack.extend(reversed(n.children()))


# each kind bit and the test the old walkers applied to one node
OLD_KIND_TESTS = {
    REWRITABLE: lambda n: isinstance(n, Pow)
    or (isinstance(n, App) and n.fn in ("abs", "sign")),
    INT: lambda n: isinstance(n, Int),
    APPLIED: lambda n: isinstance(n, Func) and n.args is not None,
    FUNC: lambda n: isinstance(n, Func),
    APP: lambda n: isinstance(n, App),
}


def old_contains_var(e, name):
    return any(
        (isinstance(n, Var) and n.name == name)
        or (isinstance(n, Func) and n.args is None and name in n.argnames)
        or (isinstance(n, Int) and n.var == name)
        for n in every_node(e)
    )


def old_mentions_var(e, name):
    return any(
        (isinstance(n, Var) and n.name == name)
        or (isinstance(n, Int) and n.var == name)
        for n in every_node(e)
    )


def old_contains_func(e, name):
    return any(isinstance(n, Func) and n.name == name for n in every_node(e))


def own_bits(n):
    """The summary bits n sets for itself: its kinds and the names it carries."""
    bits = 0
    for bit, test in OLD_KIND_TESTS.items():
        if test(n):
            bits |= bit
    if isinstance(n, Var):
        bits |= _name_bit("var", n.name)
    elif isinstance(n, Int):
        bits |= _name_bit("var", n.var)
    elif isinstance(n, Func):
        bits |= _name_bit("fn", n.name)
        for a in n.argnames if n.args is None else ():
            bits |= _name_bit("sig", a)
    return bits


@settings(max_examples=250, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 6))
def test_summaries_answer_as_the_walkers_did(seed):
    e = shared_tree(random.Random(seed))
    for n in walk(e):
        below = list(every_node(n))
        summary = 0
        for m in below:
            summary |= own_bits(m)
        assert n._summary == summary, n
        for bit, test in OLD_KIND_TESTS.items():
            assert holds(n, bit) == any(map(test, below)), (bit, n)
        assert holds(n, INT | APPLIED) == any(
            OLD_KIND_TESTS[INT](m) or OLD_KIND_TESTS[APPLIED](m) for m in below
        )
        for name in ("t", "x", "y", "u", "w", "unseen"):
            assert contains_var(n, name) == old_contains_var(n, name), (name, n)
            assert mentions_var(n, name) == old_mentions_var(n, name), (name, n)
        for name in ("f", "g", "h", "k", "unseen"):
            assert contains_func(n, name) == old_contains_func(n, name), (name, n)
    # walk keeps the full preorder's first meeting of each node, once
    first = {}
    for n in every_node(e):
        first.setdefault(id(n), n)
    assert [id(n) for n in walk(e)] == list(first)
    assert atoms_of(e) == _reference_atoms(e)


def test_shared_trees_cover_every_kind_and_share_subtrees():
    seen_kinds = 0
    shared = 0
    for seed in range(40):
        e = shared_tree(random.Random(seed))
        seen_kinds |= e._summary
        shared += sum(1 for _ in every_node(e)) > len(list(walk(e)))
    assert seen_kinds & (REWRITABLE | INT | APPLIED | FUNC | APP) == 31
    assert shared > 20
