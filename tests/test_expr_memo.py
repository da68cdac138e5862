"""Per-call memos of simplify, differentiate and substitute, and Evaluator's tapes.

Each pass keeps a memo from node to result for one call, so a subtree
that recurs is worked on once; Evaluator runs a tape with one operation
per distinct subtree once per evaluation point.  simplify works only on
subtrees it may rewrite and passes the rest through.  The per-node
workers, and the operations of each tape, are wrapped to count their
visits.
"""

import importlib
import math
from collections import Counter

import pytest

from gbeq.expr import (
    Context,
    Evaluator,
    ONE,
    app,
    differentiate,
    div,
    evaluate,
    integral,
    parse,
    pow_,
    simplify,
    substitute,
    var,
    walk,
)
from gbeq.expr import Expr, calculus, numeric
from gbeq.expr.nodes import REWRITABLE, holds

# the package exports the function simplify under the module's name
simplify_module = importlib.import_module("gbeq.expr.simplify")

CTX = Context()
CTX.add_var("t")
CTX.add_var("x")
CTX.add_function("g", ("t", "x"))

t = var("t")
x = var("x")


def continued_fraction(depth):
    """1/(1 + 1/(1 + ... 1/(1 + x))), depth levels deep."""
    e = x
    for _ in range(depth):
        e = div(ONE, ONE + e)
    return e


CF = continued_fraction(60)
# a derivative repeats every inner level in each of its factors; a
# shallower one keeps the differentiation of it quick
D_CF = differentiate(continued_fraction(30), "x")


def cf_value(depth, xv):
    """CF and its x-derivative at xv, by the recurrence c' = -c^2 * c_inner'."""
    c, dc = xv, 1.0
    for _ in range(depth):
        c = 1.0 / (1.0 + c)
        dc = -c * c * dc
    return c, dc


@pytest.fixture
def visits(monkeypatch):
    """Counts, per node, the calls of each pass's per-node worker.

    For Evaluator, the runs of each tape operation, by what it computes:
    a node, or a (base, exponent) factor of a product.
    """
    counts = Counter()

    def counting(module, name):
        worker = getattr(module, name)

        def counted(*args):
            counts[args[0]] += 1
            return worker(*args)

        monkeypatch.setattr(module, name, counted)

    counting(simplify_module, "_simplify_node")
    counting(calculus, "_diff_node")
    counting(calculus, "_subst_node")

    def counted_op(key, op):
        def run(*args):
            counts[key] += 1
            return op(*args)

        return run

    def counting_tape(*args, _tape=numeric._tape):
        tape = _tape(*args)
        return tape._replace(
            code=tuple(counted_op(k, op) for k, op in zip(tape.keys, tape.code))
        )

    monkeypatch.setattr(numeric, "_tape", counting_tape)
    return counts


def abs_at_bottom(e):
    """e with abs(x) for x, so every subtree over x is one simplify rewrites."""
    return substitute(e, {"x": app("abs", x)})


CLEAN = {"cf": CF, "d_cf": D_CF}
FLAGGED = {name: abs_at_bottom(e) for name, e in CLEAN.items()}


@pytest.mark.parametrize("e", ["cf", "d_cf"])
@pytest.mark.parametrize(
    "inputs, run",
    [
        # simplify passes a clean tree through untouched, so it is
        # counted on the trees with abs at the bottom
        (FLAGGED, lambda e: simplify(e, CTX)),
        (CLEAN, lambda e: differentiate(e, "x", CTX)),
        (CLEAN, lambda e: substitute(e, {"x": t + 1}, CTX)),
        (CLEAN, lambda e: evaluate(e, {"x": 0.5})),
    ],
    ids=["simplify", "differentiate", "substitute", "evaluate"],
)
def test_each_distinct_subtree_is_visited_once(visits, e, inputs, run):
    e = inputs[e]
    run(e)
    if inputs is FLAGGED:
        # every inner node is over abs(x); the leaves 1 and x are not
        assert {n for n in walk(e) if holds(n, REWRITABLE)} == {
            n for n in walk(e) if n.children()
        }
        assert set(visits) == {n for n in walk(e) if holds(n, REWRITABLE)}
    else:
        # the tape also multiplies in each factor's power on its own
        assert {n for n in visits if isinstance(n, Expr)} == set(walk(e))
    assert max(visits.values()) == 1


@pytest.mark.parametrize("e", [CF, D_CF], ids=["cf", "d_cf"])
def test_simplify_visits_nothing_on_a_clean_tree(visits, e):
    assert simplify(e, CTX) is e
    assert not visits


def test_the_derivative_repeats_subtrees():
    paths = {}

    def count(n):
        """Nodes on every path from n: n itself and the paths below each child."""
        if id(n) not in paths:
            paths[id(n)] = 1 + sum(count(c) for c in n.children())
        return paths[id(n)]

    assert count(D_CF) > 20 * len(set(walk(D_CF)))


def test_memoized_passes_keep_their_values():
    assert math.isclose(evaluate(CF, {"x": 0.5}), cf_value(60, 0.5)[0], rel_tol=1e-12)
    dc = cf_value(30, 0.5)[1]
    assert math.isclose(evaluate(D_CF, {"x": 0.5}), dc, rel_tol=1e-9)
    assert math.isclose(evaluate(simplify(D_CF, CTX), {"x": 0.5}), dc, rel_tol=1e-9)
    moved = substitute(D_CF, {"x": t + 1}, CTX)
    assert math.isclose(evaluate(moved, {"t": -0.5}), dc, rel_tol=1e-9)


def test_a_binding_is_evaluated_at_its_own_point():
    # the binding's x is 2x of the outer point, the outer x stays x
    e = x * parse("g(t, 2*x) + g_x(t, 2*x)", CTX)
    ev = Evaluator({"g": parse("x^2 + t", CTX)})
    for tv, xv in ((0.3, 0.7), (-1.0, 2.0)):
        want = xv * ((2 * xv) ** 2 + tv + 2 * (2 * xv))
        assert math.isclose(ev(e, {"t": tv, "x": xv}), want, rel_tol=1e-12)


def test_an_integrand_is_evaluated_at_each_node():
    # x outside the integral is the point, inside it runs over [0, x]
    e = x + integral(pow_(x, 2), "x")
    for xv in (0.9, -1.5):
        assert math.isclose(evaluate(e, {"x": xv}), xv + xv ** 3 / 3, rel_tol=1e-12)
