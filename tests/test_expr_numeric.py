"""Quadrature of Int nodes, differentially against scipy.integrate.quad.

Evaluator settles an integral with a port of QUADPACK's first QAGS step
(21-point Gauss-Kronrod) and calls quad only when QAGS would go on to
bisect.  quad is the oracle here: every value must be its value, bit
for bit.
"""

import random

import pytest
import scipy.integrate
from scipy.integrate import quad

from gbeq.expr import Context, EvalError, Evaluator, integral, parse
from gbeq.expr.numeric import _qags_first_step, _qk21

TOL = 1e-11
LIMIT = 200


@pytest.fixture
def ctx():
    c = Context()
    c.add_var("s")
    return c


def _integrand(ev, body):
    return lambda s: ev(body, {"s": s})


def _intervals(seed, n=60):
    rng = random.Random(seed)
    return [(0.0 if rng.random() < 0.5 else rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
            for _ in range(n)]


@pytest.fixture
def quad_calls(monkeypatch):
    """Counts the fallback's calls of scipy.integrate.quad."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return quad(*args, **kwargs)

    monkeypatch.setattr(scipy.integrate, "quad", counted)
    return calls


@pytest.mark.parametrize(
    "text", ["1 + s + s^3", "exp(s)", "2*s*exp(s^2)", "sin(3*s)/(1 + s^2)"]
)
def test_first_step_is_quads_bit_for_bit(ctx, text):
    body = parse(text, ctx)
    ev = Evaluator()
    f = _integrand(ev, body)
    settled = 0
    for a, b in _intervals(len(text)):
        lo, hi = min(a, b), max(a, b)
        # limit=1 stops QAGS after its first step, whatever its error
        step = quad(f, lo, hi, epsabs=TOL, epsrel=TOL, limit=1, full_output=1)
        assert _qk21(f, lo, hi)[:2] == step[:2]
        out = quad(f, a, b, epsabs=TOL, epsrel=TOL, limit=LIMIT, full_output=1)
        one_step = len(out) == 3 and out[2]["last"] == 1  # ier == 0 after one step
        assert _qags_first_step(f, a, b, TOL, TOL) == (out[0] if one_step else None)
        settled += one_step
        assert ev(integral(body, "s"), {"s": b}) == quad(
            f, 0.0, b, epsabs=TOL, epsrel=TOL, limit=LIMIT
        )[0]
    assert settled >= 40


@pytest.mark.parametrize(
    "text, a, b",
    [
        ("abs(s - 1/3)^(1/2)", 0.0, 1.0),
        ("abs(s - 1/3)^(1/2)", 1.5, -0.5),
        ("1/(1/10000 + (s - 1/2)^2)", 0.0, 1.0),
        ("1/(1/10000 + (s - 1/2)^2)", 2.0, -1.0),
    ],
)
def test_unsettled_step_falls_back_to_quad(ctx, text, a, b, quad_calls):
    body = parse(text, ctx)
    ev = Evaluator(base_point=a)
    f = _integrand(ev, body)
    assert _qags_first_step(f, a, b, TOL, TOL) is None
    value, _, info = quad(f, a, b, epsabs=TOL, epsrel=TOL, limit=LIMIT, full_output=1)[:3]
    assert info["last"] > 1
    assert ev(integral(body, "s"), {"s": b}) == value
    assert quad_calls == [(a, b)]


def test_empty_interval_evaluates_nothing():
    def f(s):
        raise AssertionError("evaluated")

    assert _qags_first_step(f, 0.5, 0.5, TOL, TOL) == quad(f, 0.5, 0.5)[0] == 0.0


def test_eval_error_at_a_node_propagates(ctx):
    # the first node is the midpoint 1/2, where ln(s - 1/2) is undefined
    body = parse("ln(s - 1/2)", ctx)
    ev = Evaluator()
    with pytest.raises(EvalError, match="non-positive") as ours:
        ev(integral(body, "s"), {"s": 1.0})
    with pytest.raises(EvalError) as theirs:
        quad(_integrand(ev, body), 0.0, 1.0, epsabs=TOL, epsrel=TOL, limit=LIMIT)
    assert str(ours.value) == str(theirs.value)

    boom = EvalError("at a node")

    def f(s):
        if s > 0.9:
            raise boom
        return s

    with pytest.raises(EvalError) as caught:
        _qags_first_step(f, 0.0, 1.0, TOL, TOL)
    assert caught.value is boom
