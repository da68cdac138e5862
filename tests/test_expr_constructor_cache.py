"""The memoized canonical constructors: rat, add, mul, pow_ and _rat_power_parts.

Each sits behind a typed functools.lru_cache of nodes.MEMO_SIZE
entries.  A hit must return a node that formats exactly like the one a
cold call builds, no cache may outgrow its bound, and a call that
raises must raise again.  (test_expr_exact checks that a float never
hits the entry of an equal int or Fraction.)
"""

import random
from fractions import Fraction

import pytest

from gbeq.expr import ExprError, add, exp, format_expr, mul, pow_, rat, var
from gbeq.expr import nodes

from conftest import random_tree

MEMOIZED = (nodes.rat, nodes.add, nodes.mul, nodes.pow_, nodes._rat_power_parts)

t = var("t")
x = var("x")


def clear_caches():
    for f in MEMOIZED:
        f.cache_clear()


def test_a_tree_built_warm_formats_like_one_built_cold(monkeypatch):
    seeds = range(300)
    cold = {}
    for seed in seeds:
        clear_caches()
        # the constructors' calls to each other skip the memos as well
        with monkeypatch.context() as m:
            for f in MEMOIZED:
                m.setattr(nodes, f.__name__, f.__wrapped__)
            cold[seed] = format_expr(random_tree(random.Random(seed)))
    # rebuild in another order, so the caches hold other trees' entries too
    for seed in reversed(seeds):
        assert format_expr(random_tree(random.Random(seed))) == cold[seed], seed


def test_no_cache_outgrows_its_bound():
    clear_caches()
    for seed in range(2000):
        random_tree(random.Random(seed), depth=5)
    for f in MEMOIZED:
        info = f.cache_info()
        assert info.maxsize == nodes.MEMO_SIZE
        assert info.currsize <= nodes.MEMO_SIZE, (f.__name__, info)
    # the bound was reached, so it was the bound that held the size
    assert nodes.mul.cache_info().misses > nodes.MEMO_SIZE


def test_a_call_that_raises_raises_again():
    for _ in range(2):
        with pytest.raises(ExprError):
            pow_(rat(0), Fraction(1, 2))


def test_add_keeps_a_term_that_merges_with_nothing():
    clear_caches()
    m = 3 * t * exp(t + 1)
    assert any(term is m for term in add(m, x).terms)
    assert any(term is m for term in add(x, m, t, 2).terms)
    # a merged monomial is rebuilt with the summed coefficient
    assert add(m, x, m) == add(mul(6, t, exp(t + 1)), x)
