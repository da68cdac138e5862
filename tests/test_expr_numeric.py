"""Evaluator's tapes against the recursive walk they replaced, and
quadrature of Int nodes against scipy.integrate.quad.

Evaluator runs each expression as a tape compiled once; the recursive
walk it replaced is kept here as the oracle, and over a seeded corpus
every value must be its value bit for bit, and every failure its first
EvalError.  Evaluator settles an integral with a port of QUADPACK's
first QAGS step (21-point Gauss-Kronrod) and calls quad only when QAGS
would go on to bisect.  quad is the oracle there: every value must be
its value, bit for bit.
"""

import math
import random
import re
import warnings
from typing import Dict, Mapping, Tuple

import pytest
import scipy.integrate
from scipy.integrate import quad

from gbeq.expr import (
    Add,
    App,
    Context,
    EvalError,
    Evaluator,
    Expr,
    Func,
    Int,
    Mul,
    Pow,
    Rat,
    Var,
    atoms_of,
    differentiate,
    format_expr,
    integral,
    parse,
)
from gbeq.expr.numeric import _QAGS_LIMIT, _float, _float_pow, _qags_first_step, _qk21
from gbeq.expr.nodes import APPLIED, INT, holds
from gbeq.expr.zero import _collect_symbols, _random_standin
from gbeq.hopfcole import heat_catalog

from conftest import verification_corpus

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
        ("abs(s + 1/3)^(1/2)", 0.0, -0.5),
        ("1/(1/10000 + (s - 1/2)^2)", 0.0, 1.0),
        ("1/(1/10000 + (s + 1/2)^2)", 0.0, -1.0),
    ],
)
def test_unsettled_step_falls_back_to_quad(ctx, text, a, b, quad_calls):
    # every quadrature starts at INT_BASE = 0, so a reversed interval puts
    # its kink or peak on the negative side
    body = parse(text, ctx)
    ev = Evaluator()
    f = _integrand(ev, body)
    assert _qags_first_step(f, a, b, TOL, TOL) is None
    value, _, info = quad(f, a, b, epsabs=TOL, epsrel=TOL, limit=LIMIT, full_output=1)[:3]
    assert info["last"] > 1
    assert ev(integral(body, "s"), {"s": b}) == value
    assert quad_calls == [(a, b)]


@pytest.mark.parametrize("text, upper", [("1/s^2", 1.0), ("1/s", -0.5)])
def test_a_quadrature_qags_flags_is_no_value(ctx, text, upper):
    # QAGS returns a message beside its estimate (ier > 0) for these
    # divergent integrals; the estimate is no value, and scipy prints no
    # IntegrationWarning
    body = parse(text, ctx)
    ev = Evaluator()
    f = _integrand(ev, body)
    assert _qags_first_step(f, 0.0, upper, TOL, TOL) is None
    out = quad(f, 0.0, upper, epsabs=TOL, epsrel=TOL, limit=LIMIT, full_output=1)
    assert len(out) == 4
    reason = re.escape(out[3].splitlines()[0].strip())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvalError, match=f"quadrature of s up to .* failed: {reason}"):
            ev(integral(body, "s"), {"s": upper})


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


# -- the tape against the recursive walk ------------------------------------


class ReferenceEvaluator:
    """The recursive evaluator the tapes replaced, kept as their oracle.

    Each call evaluates every distinct subtree once per point: a memo
    from node to value lives for one point, and _eval_func and
    _eval_int start a fresh one where they move to another point.
    """

    def __init__(self, bindings=None, base_point=0.0, quad_tol=1e-11, atom_values=None):
        self.bindings = dict(bindings) if bindings else {}
        self.base_point = base_point
        self.quad_tol = quad_tol
        self.atom_values = dict(atom_values) if atom_values else {}
        self._deriv_cache: Dict[Tuple[str, Tuple[int, ...]], Expr] = {}

    def __call__(self, e: Expr, point: Mapping[str, float]) -> float:
        return self._eval(e, dict(point), {})

    def _eval(self, e, point, memo):
        v = memo.get(e)
        if v is None:
            v = memo[e] = self._eval_node(e, point, memo)
        return v

    def _eval_node(self, e, point, memo):
        if isinstance(e, Rat):
            return _float(e.value)
        if isinstance(e, Var):
            try:
                return point[e.name]
            except KeyError:
                raise EvalError(f"no value for variable {e.name}") from None
        if isinstance(e, Add):
            return sum(self._eval(t, point, memo) for t in e.terms)
        if isinstance(e, Mul):
            out = _float(e.coeff)
            for b, ex in e.powers:
                out *= _float_pow(self._eval(b, point, memo), ex)
            return out
        if isinstance(e, Pow):
            return _float_pow(self._eval(e.base, point, memo), e.exponent)
        if isinstance(e, App):
            v = self._eval(e.arg, point, memo)
            if e.fn == "exp":
                if v > 700.0:
                    raise EvalError("exp overflow")
                return math.exp(v)
            if e.fn == "ln":
                if v <= 0.0:
                    raise EvalError("ln of a non-positive value")
                return math.log(v)
            if e.fn == "abs":
                return abs(v)
            if e.fn == "sign":
                if v == 0.0:
                    raise EvalError("sign(0)")
                return 1.0 if v > 0.0 else -1.0
            if e.fn == "sin":
                return math.sin(v)
            if e.fn == "cos":
                return math.cos(v)
            raise EvalError(f"cannot evaluate {e.fn}")
        if isinstance(e, Func):
            if self.atom_values and e.args is None:
                v = self.atom_values.get(e)
                if v is not None:
                    return v
            return self._eval_func(e, point, memo)
        if isinstance(e, Int):
            return self._eval_int(e, point)
        raise EvalError(f"cannot evaluate {type(e).__name__}")

    def _eval_func(self, e, point, memo):
        binding = self.bindings.get(e.name)
        if binding is None:
            raise EvalError(f"no binding for function symbol {e.name}")
        key = (e.name, e.didx)
        deriv = self._deriv_cache.get(key)
        if deriv is None:
            deriv = binding
            for argname, count in zip(e.argnames, e.didx):
                for _ in range(count):
                    deriv = differentiate(deriv, argname)
            self._deriv_cache[key] = deriv
        if e.args is None:
            argvals = []
            for an in e.argnames:
                if an not in point:
                    raise EvalError(f"no value for {an} applying {e.name}")
                argvals.append(point[an])
        else:
            argvals = [self._eval(a, point, memo) for a in e.args]
        return self._eval(deriv, dict(zip(e.argnames, argvals)), {})

    def _eval_int(self, e, point):
        if e.var not in point:
            raise EvalError(f"no value for integration variable {e.var}")
        upper = point[e.var]

        def f(s):
            inner = dict(point)
            inner[e.var] = s
            return self._eval(e.body, inner, {})

        value = _qags_first_step(f, self.base_point, upper, self.quad_tol, self.quad_tol)
        if value is None:
            value, _ = quad(
                f, self.base_point, upper, epsabs=self.quad_tol, epsrel=self.quad_tol,
                limit=_QAGS_LIMIT,
            )
        return value


def _outcome(ev, e, point):
    """ev's value of e at point, or the type and text of what it raised."""
    try:
        return ("value", ev(e, point))
    except (EvalError, ArithmeticError, ValueError) as exc:
        return ("error", type(exc).__name__, str(exc))


def assert_same(got, want):
    """Equal outcomes: the same error, or the same value bit for bit."""
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got == want
        return
    a, b = got[1], want[1]
    assert type(a) is type(b), (a, b)
    if isinstance(a, float) and math.isnan(a):
        assert math.isnan(b)
    else:
        assert a == b and math.copysign(1, a) == math.copysign(1, b), (a, b)


def _points(rng, names, n=4):
    """n seeded points in names, then points with one coordinate at 0."""
    pts = [{k: rng.uniform(-2.0, 2.0) for k in names} for _ in range(n)]
    for k in names:
        p = {k2: rng.uniform(0.1, 2.0) for k2 in names}
        p[k] = 0.0
        pts.append(p)
    return pts


def _standins(e, rng):
    """A random polynomial binding for every function symbol of e."""
    funcs, _ = _collect_symbols(e)
    return {name: _random_standin(rng, sig, {}) for name, sig in sorted(funcs.items())}


def _compare(e, bindings, points, atom_values=None):
    ours = Evaluator(bindings, atom_values=atom_values)
    ref = ReferenceEvaluator(bindings, atom_values=atom_values)
    outcomes = []
    for point in points:
        got = _outcome(ours, e, point)
        assert_same(got, _outcome(ref, e, point))
        outcomes.append(got)
    return outcomes


def test_tape_matches_the_recursive_walk_on_the_corpus():
    rng = random.Random(14)
    outcomes = []
    corpus = [(e, ctx) for _, e, ctx in verification_corpus()]
    corpus += [(v, None) for v in heat_catalog()]
    for e, _ in corpus:
        _, names = _collect_symbols(e)
        outcomes += _compare(e, _standins(e, rng), _points(rng, sorted(names)))
    kinds = {o[0] if o[0] == "value" else o[2] for o in outcomes}
    # values, and failures of several kinds at the zero coordinates
    assert {"value", "division by zero"} <= kinds


def test_tape_matches_with_atom_values():
    # the jet sampler's case: explicit applications and antiderivatives
    # go to stand-ins, so only unapplied symbols take given values
    rng = random.Random(7)
    checked = 0
    for _, e, _ in verification_corpus()[::7]:
        if holds(e, INT | APPLIED):
            continue
        atoms = atoms_of(e)
        values = {a: rng.uniform(-2.0, 2.0) for a in atoms}
        point = {format_expr(a): v for a, v in values.items()}
        _compare(e, None, [point], atom_values=values)
        checked += 1
    assert checked > 100


CTX = Context()
CTX.add_var("t")
CTX.add_var("x")
CTX.add_function("g", ("t", "x"))
G = {"g": parse("x^2 + t*x - 1/3", CTX)}


@pytest.mark.parametrize(
    "text, given",
    [("g + g_x*x", "g_x")],
)
def test_given_atoms_do_not_evaluate_their_arguments(text, given):
    # a given symbol takes its value in place of its binding's derivative
    e = parse(text, CTX)
    values = {parse(given, CTX): 0.25}
    points = [{"t": 0.5, "x": -1.0}, {"t": 0.5, "x": 2.0}]
    outcomes = _compare(e, G, points, atom_values=values)
    assert outcomes[1][0] == "value"


@pytest.mark.parametrize(
    "text, point, bindings, message",
    [
        ("ln(x) + t", {"t": 1.0, "x": -1.0}, None, "ln of a non-positive value"),
        ("ln(x) + t", {"t": 1.0, "x": 0.0}, None, "ln of a non-positive value"),
        ("x^(-2) + t", {"t": 1.0, "x": 0.0}, None, "division by zero"),
        ("x^(1/2) + t", {"t": 1.0, "x": -1.0}, None, "negative base -1.0 under even root"),
        ("(x - t)^(3/2)*t", {"t": 1.0, "x": -1.0}, None, "negative base -2.0 under even root"),
        ("exp(x) + t", {"t": 1.0, "x": 701.0}, None, "exp overflow"),
        ("sign(x) + t", {"t": 1.0, "x": 0.0}, None, "sign(0)"),
        ("x + t", {"x": 1.0}, None, "no value for variable t"),
        ("g(t, x) + x", {"t": 1.0, "x": 1.0}, None, "no binding for function symbol g"),
        ("g + x", {"x": 1.0}, G, "no value for t applying g"),
        ("int(exp(t^2), t) + x", {"x": 1.0}, None, "no value for integration variable t"),
        # a product raises at a factor's power before it evaluates the next base
        ("x^(-1)*ln(t)", {"t": -1.0, "x": 0.0}, None, "division by zero"),
        ("ln(t)*x^(-1)*exp(x)", {"t": -1.0, "x": 0.0}, None, "division by zero"),
        # an applied symbol checks its binding before its arguments
        ("g(t, ln(x))", {"t": 1.0, "x": -1.0}, None, "no binding for function symbol g"),
        ("g(t, ln(x))", {"t": 1.0, "x": -1.0}, G, "ln of a non-positive value"),
        ("g(t, 1/x) + ln(x)", {"t": 1.0, "x": 0.0}, G, "division by zero"),
        ("g_x(x^(-1), x) + t", {"t": 1.0, "x": 0.0}, None, "no binding for function symbol g"),
        ("int(ln(x - 1/2), x) + t", {"t": 1.0, "x": 1.0}, None, "ln of a non-positive value"),
    ],
)
def test_failing_points_raise_the_walks_first_error(text, point, bindings, message):
    e = parse(text, CTX)
    got, = _compare(e, bindings, [point])
    assert got == ("error", "EvalError", message)


def test_integrand_fallback_matches_the_walk(quad_calls):
    e = parse("int(abs(x - 1/3)^(1/2), x) + g(t, int(g_x(t, x), x))", CTX)
    _compare(e, G, [{"t": 0.5, "x": 1.0}, {"t": -1.5, "x": -0.75}])
    assert (0.0, 1.0) in quad_calls
