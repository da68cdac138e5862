"""Quadrature solver for the degenerate divergence-form reduction."""

import math
import random
import re
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gbeq import degdiv
from gbeq.cli import _format_grid
from gbeq.degdiv import DegDivError, DegDivSolution, solve_deg_div
from gbeq.expr import EvalError, add, mul, parse, pow_, rat, var, Context


def tctx():
    c = Context()
    c.add_var("t")
    return c


def test_trivial_coefficients_give_linear_time():
    sol = DegDivSolution(f1=rat(0), f2=rat(0))
    quad = solve_deg_div(sol)
    # f2 = 0 and C2 = 1 make T_t = (t - t0 + 1)^(-2)
    rep = quad.report()
    assert rep.verdict in ("NUMERIC_ZERO", "SYMBOLIC_ZERO")
    r1, r2 = quad.ode_residuals()
    assert r1 <= 1e-6
    assert r2 <= 1e-6


def test_closed_form_time_reparametrisation():
    # with f2 = 0: W = C2 (t - t0) + C1 and T = 2 / W - 2 / W(t0)
    sol = DegDivSolution(
        f1=rat(0), f2=rat(0), constants=(0.0, 1.0, -0.5, 0.0, 0.0)
    )
    quad = solve_deg_div(sol)
    for tv in (0.3, 0.55, 1.0):
        w = 1.0 - (tv - 0.1) / 2.0
        assert quad.T(tv) == pytest.approx(2.0 / w - 2.0, abs=1e-8)


def test_nonzero_forcing_term():
    c = tctx()
    sol = DegDivSolution(f1=parse("t", c), f2=rat(0), constants=(0.0, 1.0, -0.5, 0.0, 0.0))
    quad = solve_deg_div(sol)
    rep = quad.report()
    assert rep.ok
    ts = quad.grid(n=11)
    assert len(ts) == 11
    assert ts[0] == pytest.approx(0.1)
    assert ts[-1] == pytest.approx(1.0)


def test_exponential_weight():
    c = tctx()
    sol = DegDivSolution(f1=rat(0), f2=rat(1), constants=(0.0, 1.0, 1.0, 0.0, 0.0))
    quad = solve_deg_div(sol)
    rep = quad.report()
    assert rep.ok
    r1, r2 = quad.ode_residuals()
    assert r1 <= 1e-6
    assert r2 <= 1e-6


def test_negative_sigma_decreasing_time():
    sol = DegDivSolution(f1=rat(0), f2=rat(0), sigma=-1)
    quad = solve_deg_div(sol)
    assert quad.T(1.0) < quad.T(0.1)
    assert quad.report().ok


def test_pole_inside_span_is_rejected():
    # W = (t - 0.1) - 0.4 crosses zero at t = 0.5
    sol = DegDivSolution(
        f1=rat(0), f2=rat(0), constants=(0.0, -0.4, 1.0, 0.0, 0.0)
    )
    with pytest.raises(DegDivError, match="vanishes inside"):
        solve_deg_div(sol)


@pytest.mark.parametrize(
    "f1, where",
    [
        # an interpolation point of the default span and degree
        ("1/(t-11/20)", "t = 0.55: division by zero"),
        # between two interpolation points: only the exact count finds these
        ("1/(t-1/2)", "t = 0.5: its denominator factor -1 + 2*t vanishes there"),
        ("1/(t-1/2)^2", "t = 0.5: its denominator factor -1 + 2*t vanishes there"),
        ("1/(t^2-t+1/4)", "t = 0.5: "),
        ("t/(2*t^2-1)", "t = 0.7071067811865476: "),
    ],
)
def test_pole_of_a_coefficient_on_the_span_is_an_eval_error(f1, where):
    sol = DegDivSolution(f1=parse(f1, tctx()), f2=rat(0))
    with pytest.raises(EvalError, match=re.escape(" is undefined at " + where)):
        solve_deg_div(sol)
    with pytest.raises(EvalError, match="^f2 = .* is undefined at " + re.escape(where)):
        solve_deg_div(DegDivSolution(f1=rat(0), f2=parse(f1, tctx())))


@pytest.mark.parametrize("f1", ["1/(t^2+1)", "t/(t-3)", "1/(t+1/2)", "1/t"])
def test_rational_coefficient_without_a_pole_on_the_span_is_solved(f1):
    sol = DegDivSolution(f1=parse(f1, tctx()), f2=rat(0), constants=(0.0, 1.0, -0.5, 0.0, 0.0))
    assert solve_deg_div(sol).report().ok


def test_pole_at_the_end_of_the_span_counts():
    sol = DegDivSolution(f1=parse("1/(t-1/2)", tctx()), f2=rat(0))
    for span in ((0.5, 1.0), (0.1, 0.5)):
        with pytest.raises(EvalError, match="is undefined at t = 0.5: "):
            solve_deg_div(sol, t_span=span)
    solve_deg_div(sol, t_span=(0.5000001, 1.0))


def test_pole_that_clearing_cancels_counts():
    # 1/(1 + 1/(t - 1/2)) is (t - 1/2)/(t + 1/2) once cleared, but as
    # written the inner quotient is undefined at t = 1/2
    sol = DegDivSolution(f1=parse("1/(1+1/(t-1/2))", tctx()), f2=rat(0))
    with pytest.raises(EvalError, match="is undefined at t = 0.5: its denominator factor -1 "):
        solve_deg_div(sol)
    # a base whose own cleared numerator vanishes: 1/(1 - 1/(2*t)) at t = 1/2
    sol = DegDivSolution(f1=parse("1/(1-1/(2*t))", tctx()), f2=rat(0))
    with pytest.raises(EvalError, match="is undefined at t = 0.5: "):
        solve_deg_div(sol)


def test_exact_zero_count():
    # (t - 1/2)^2 (t^2 - 2): a double zero and two irrational ones
    p = [Fraction(c) for c in (-Fraction(1, 2), 2, Fraction(-7, 4), -1, 1)]
    assert degdiv._zero_on(p, Fraction(0), Fraction(1)) == Fraction(1, 2)
    assert degdiv._zero_on(p, Fraction(3, 5), Fraction(1)) is None
    assert float(degdiv._zero_on(p, Fraction(1), Fraction(2))) == pytest.approx(2 ** 0.5)
    assert degdiv._zero_on(p, Fraction(-3, 2), Fraction(-1, 2)) is not None
    assert degdiv._zero_on([Fraction(1)], Fraction(0), Fraction(1)) is None


def test_overflowing_weight_is_rejected():
    # exp(-2 int f2) = exp(1000 (t - 0.1)) leaves the float range; numpy
    # must not warn on the way
    sol = DegDivSolution(f1=rat(0), f2=rat(-500))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(
            DegDivError, match=re.escape("exp(-2 int f2) overflows on the span [0.1, 1.0]")
        ):
            solve_deg_div(sol)


def test_solution_validation():
    c = Context()
    c.add_var("t")
    c.add_var("x")
    with pytest.raises(DegDivError):
        DegDivSolution(f1=parse("x", c), f2=rat(0))
    with pytest.raises(DegDivError):
        DegDivSolution(f1=rat(0), f2=rat(0), kappa=Fraction(0))
    with pytest.raises(DegDivError):
        DegDivSolution(f1=rat(0), f2=rat(0), constants=(0.0, 0.0, 0.0, 0.0, 0.0))
    with pytest.raises(DegDivError):
        DegDivSolution(f1=rat(0), f2=rat(0), constants=(0.0, 1.0))
    with pytest.raises(DegDivError):
        DegDivSolution(f1=rat(0), f2=rat(0), sigma=2)


def test_report_carries_tolerance_and_samples():
    sol = DegDivSolution(f1=rat(0), f2=rat(0))
    quad = solve_deg_div(sol)
    rep = quad.report(tol=1e-6, n=51)
    assert rep.tolerance == 1e-6
    assert rep.ok


@pytest.mark.parametrize("f1, f2, degree", [
    ("0", "0", 200),
    ("0", "0", 300),
    ("0", "0", 1000),
    ("t", "1", 300),
    ("1/(1+t^2)", "t^2-1", 300),
    ("exp(t)", "sin(t)", 300),
])
def test_high_degree_stays_accurate(f1, f2, degree):
    # a least-squares fit on a uniform grid lost accuracy with degree:
    # f1 = f2 = 0 read an ODE 1 residual of 2.8e-5 at degree 200
    c = tctx()
    quad = solve_deg_div(DegDivSolution(f1=parse(f1, c), f2=parse(f2, c)), degree=degree)
    r1, r2 = quad.ode_residuals()
    assert r1 <= 1e-6
    assert r2 <= 1e-6


def test_nodes_are_second_kind_points_with_exact_ends():
    for degree in (1, 2, 64, 301):
        ts = degdiv._nodes(0.1, 1.0, degree)
        assert len(ts) == degree + 1
        assert np.all(np.diff(ts) > 0)
        assert (ts[0], ts[-1]) == (0.1, 1.0)
    # between the ends, the points are cos(pi j / degree) mapped onto the span
    ts = degdiv._nodes(0.1, 1.0, 8)
    ref = 0.55 - 0.45 * np.cos(np.pi * np.arange(9) / 8)
    assert np.allclose(ts, ref, rtol=0, atol=1e-15)


# --- the interpolant and whole-grid evaluation ----------------------------


def _chebyshev_fit(values, ts):
    """The reference: numpy's own least squares through the same nodes."""
    fit = np.polynomial.Chebyshev.fit(ts, values, deg=len(ts) - 1, domain=[ts[0], ts[-1]])
    return fit.coef


def _cases():
    c = tctx()
    t = var("t")
    small = (Fraction(-1), Fraction(-1, 2), Fraction(1, 2), Fraction(1))
    cases = [
        DegDivSolution(f1=rat(0), f2=rat(0)),
        DegDivSolution(f1=rat(0), f2=rat(0), constants=(0.0, 1.0, -0.5, 0.0, 0.0)),
        DegDivSolution(f1=parse("t", c), f2=rat(0), constants=(0.0, 1.0, -0.5, 0.0, 0.0)),
        DegDivSolution(f1=rat(0), f2=rat(1)),
        DegDivSolution(f1=rat(0), f2=rat(0), sigma=-1),
    ]
    rng = random.Random(13)
    for _ in range(6):
        cases.append(DegDivSolution(
            f1=rat(rng.choice(small)) + rat(rng.choice(small)) * t,
            f2=rat(rng.choice(small)) * t ** rng.choice((0, 1, 2)),
            kappa=rng.choice((Fraction(1), Fraction(2), Fraction(1, 2))),
            constants=(rng.choice((0, 1)), 1, rng.choice((0, 0.25, 0.5)),
                       rng.choice((-1, 0, 1)), rng.choice((-1, 0, 1))),
            sigma=rng.choice((1, -1)),
        ))
    return cases


@pytest.mark.parametrize("sol", _cases(), ids=str)
def test_factored_fit_agrees_with_chebyshev_fit(sol, monkeypatch):
    for degree in (64, 300):
        _, T_new, X0_new = solve_deg_div(sol, degree=degree).sample()
        with monkeypatch.context() as m:
            m.setattr(degdiv, "_fit", _chebyshev_fit)
            _, T_ref, X0_ref = solve_deg_div(sol, degree=degree).sample()
        for new, ref in ((T_new, T_ref), (X0_new, X0_ref)):
            # relative to the series' size, floored at 1: with C2 = 0, X0
            # vanishes identically and both fits leave only rounding noise
            scale = max(1.0, float(np.max(np.abs(ref))))
            assert np.max(np.abs(new - ref)) <= 1e-12 * scale


@pytest.mark.parametrize("sol", _cases()[:4], ids=str)
def test_grid_values_equal_pointwise_values(sol):
    quad = solve_deg_div(sol)
    for n in (9, 201):
        ts, T, X0 = quad.sample(n)
        assert np.array_equal(ts, quad.grid(n))
        assert np.array_equal(T, [quad.T(tv) for tv in ts])
        assert np.array_equal(X0, [quad.X0(tv) for tv in ts])
    # the grid file formats exactly the values a per-point walk gives
    pointwise = "".join(
        f"\n{float(tv)!r}\t{quad.T(tv)!r}\t{quad.X0(tv)!r}" for tv in quad.grid(57)
    )
    assert _format_grid(quad, 57) == "t\tT\tX0" + pointwise + "\n"


@pytest.mark.parametrize("f1, f2, span, where", [
    ("0", "ln(t)", (-1.0, 1.0), "f2 = ln(t) is undefined at t = -1.0"),
    ("0", "1/t", (-1.0, 1.0), "f2 = 1/t is undefined at t = 0.0"),
    ("0", "exp(1000*t)", (0.1, 1.0), "f2 = exp(1000*t) is undefined"),
    ("1/(t-11/20)", "0", (0.1, 1.0), "f1 = 1/(-11/20 + t) is undefined at t = 0.55"),
    ("0", "t^(-400)", (1e-3, 1.0), "f2 = 1/t^400 is not finite at t = 0.001"),
])
def test_coefficient_undefined_on_span_names_it(f1, f2, span, where):
    c = tctx()
    sol = DegDivSolution(f1=parse(f1, c), f2=parse(f2, c))
    with pytest.raises(EvalError, match=re.escape(where)):
        solve_deg_div(sol, t_span=span)


# --- coefficients in one numpy pass ----------------------------------------

_EPS = sys.float_info.epsilon


def _draw_rational(rng, ts):
    """A random coefficient rational in t, and the summed size of its terms on ts.

    A sum of terms q * P * prod (t - r)^-k: P a polynomial nested two
    levels deep, r a random rational or, one time in three, exactly one
    of ts, so that a denominator vanishes at an interpolation point.
    A term's size is its value with every rational and t in P taken by
    absolute value, which no partial sum of P exceeds.
    """
    t = var("t")

    def frac():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    def poly(depth):
        kind = rng.randrange(4 if depth else 2)
        if kind == 0:
            q = frac()
            return rat(q), np.full(len(ts), abs(float(q)))
        if kind == 1:
            return t, np.abs(ts)
        parts = [poly(depth - 1) for _ in range(rng.randint(2, 3))]
        if kind == 2:
            return add(*[p for p, _ in parts]), sum(m for _, m in parts)
        ks = [rng.randint(1, 3) for _ in parts]
        prod = mul(*[pow_(p, k) for (p, _), k in zip(parts, ks)])
        return prod, np.prod([m ** k for (_, m), k in zip(parts, ks)], axis=0)

    terms, sizes = [], []
    for _ in range(rng.randint(1, 3)):
        q = frac() or Fraction(1)
        term, size = poly(2)
        term, size = rat(q) * term, abs(float(q)) * size
        for _ in range(rng.randint(0, 2)):
            r = Fraction(float(rng.choice(ts))) if rng.random() < 1 / 3 else frac()
            k = rng.randint(1, 3)
            term = term * pow_(t - rat(r), -k)
            with np.errstate(divide="ignore", invalid="ignore"):
                size = size * np.abs(ts - float(r)) ** -k
        terms.append(term)
        sizes.append(size)
    return add(*terms), sum(sizes)


@given(st.integers(0, 2 ** 32 - 1))
def test_array_pass_matches_the_scalar_tape(seed):
    rng = random.Random(seed)
    lo = Fraction(rng.randint(-30, 20), 10)
    hi = lo + Fraction(rng.randint(1, 40), 10)
    ts = degdiv._nodes(float(lo), float(hi), rng.choice((1, 2, 8, 64)))
    e, size = _draw_rational(rng, ts)
    try:
        want = degdiv._pointwise("f1", e, ts)
    except EvalError as exc:
        # the array pass gives up, and the scalar tape raises its own text
        assert degdiv._rational_values(e, ts) is None
        with pytest.raises(EvalError) as got:
            degdiv._eval_coefficient("f1", e, ts)
        assert str(got.value) == str(exc)
        return
    got = degdiv._rational_values(e, ts)
    assert got is not None
    # numpy's integer power and Python's float ** int may differ in the
    # last place, so agreement is to a few ulp of the largest term
    assert np.all(np.abs(got - want) <= 16 * _EPS * size), np.max(np.abs(got - want) / size)
    assert np.array_equal(degdiv._eval_coefficient("f1", e, ts), got)


@pytest.mark.parametrize("inner", [False, True])
def test_a_denominator_vanishing_at_a_node_keeps_the_scalar_message(inner):
    ts = degdiv._nodes(0.1, 1.0, 8)
    r = Fraction(float(ts[3]))
    if inner:
        # 1/(1 + 1/(t - r)): in floats the infinite inner quotient would
        # give a finite 0 at r, so the pass must stop at the division
        e = pow_(1 + pow_(var("t") - rat(r), -1), -1)
    else:
        e = add(var("t"), pow_(var("t") - rat(r), -2))
    with pytest.raises(EvalError) as want:
        degdiv._pointwise("f2", e, ts)
    with pytest.raises(EvalError) as got:
        degdiv._eval_coefficient("f2", e, ts)
    assert str(got.value) == str(want.value)
    assert f"is undefined at t = {float(ts[3])!r}: division by zero" in str(got.value)


@pytest.mark.parametrize("text", ["exp(t)", "t^(1/2)", "sin(t)", "1/t + exp(t)", "(1 + t)^(3/2)"])
def test_coefficient_outside_the_fragment_takes_the_scalar_path(text):
    e = parse(text, tctx())
    ts = degdiv._nodes(0.1, 1.0, 64)
    assert degdiv._rational_values(e, ts) is None
    assert np.array_equal(degdiv._eval_coefficient("f2", e, ts), degdiv._pointwise("f2", e, ts))


def test_rational_coefficients_never_run_the_scalar_tape(monkeypatch):
    def scalar(name, e, ts):
        raise AssertionError(f"{name} ran the scalar tape")

    monkeypatch.setattr(degdiv, "_pointwise", scalar)
    c = tctx()
    sol = DegDivSolution(f1=parse("1/2 + t/(t + 2)", c), f2=parse("t^2 - 1", c))
    r1, r2 = solve_deg_div(sol).ode_residuals()
    assert r1 <= 1e-6 and r2 <= 1e-6


# --- node values, antiderivatives and derivatives on coefficient arrays ----

_SPANS = ((0.1, 1.0), (-3.0, 2.5))


def _exact_node_values(coef, degree):
    """The series at x_j = cos(pi j / degree), j = degree..0: each angle
    reduced exactly before its cosine, each sum correctly rounded."""
    n = degree
    jk = np.arange(n, -1, -1)[:, None] * np.arange(len(coef))[None, :] % (2 * n)
    return np.array([math.fsum(row) for row in coef * np.cos(np.pi * jk / n)])


@pytest.mark.parametrize("degree", [1, 2, 8, 64, 300, 1000])
@pytest.mark.parametrize("extra", [0, 1, 2])
def test_node_values_are_the_series_at_the_interpolation_points(degree, extra):
    rng = np.random.default_rng(1000 * degree + extra)
    m = degree + extra
    # unit-size coefficients, against values computed without the FFT
    coef = rng.standard_normal(m)
    err = np.abs(degdiv._node_values(coef, degree) - _exact_node_values(coef, degree))
    assert np.max(err) <= 1e-15 * np.sum(np.abs(coef))
    # decaying ones, as an interpolant of smooth data has, against
    # Clenshaw at the same points of [-1, 1]; Clenshaw's own error grows
    # with the degree, and at _nodes(...) mapped back from t it reads
    # each point an ulp off where the series is steep (2.6e-12 of the
    # coefficient sum at degree 300 on [0.1, 1])
    coef = rng.standard_normal(m) * 0.97 ** np.arange(m)
    ref = np.polynomial.Chebyshev(coef)(np.polynomial.chebyshev.chebpts2(degree + 1))
    err = np.abs(degdiv._node_values(coef, degree) - ref)
    assert np.max(err) <= 1e-13 * np.sum(np.abs(coef))


@pytest.mark.parametrize("degree", [1, 2, 8, 64, 300, 1000])
@pytest.mark.parametrize("extra", [0, 1, 2])
def test_integral_and_derivative_agree_with_numpy(degree, extra):
    rng = np.random.default_rng(1000 * degree + extra)
    coef = rng.standard_normal(degree + extra)
    for lo, hi in _SPANS:
        series = np.polynomial.Chebyshev(coef, domain=[lo, hi])
        ref = series.integ(lbnd=lo).coef
        got = degdiv._integral(coef, (hi - lo) / 2)
        assert len(got) == len(ref)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
        at_lo = np.polynomial.Chebyshev(got, domain=[lo, hi])(lo)
        assert abs(at_lo) <= 1e-15 * np.sum(np.abs(got))
        if len(coef) > 1:
            ref = series.deriv().coef
            got = degdiv._derivative(coef, (hi - lo) / 2)
            assert len(got) == len(ref)
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
