"""Verdict grading: symbolic cancellation first, seeded sampling after."""

import random

import pytest
from hypothesis import given, strategies as st

from gbeq.expr import (
    ZERO,
    Context,
    Evaluator,
    NEGATIVE,
    NONZERO,
    NONZERO_FLAG,
    NUMERIC_ZERO,
    POSITIVE,
    SYMBOLIC_ZERO,
    SamplingError,
    Rat,
    collect,
    differentiate,
    exp,
    func,
    integral,
    is_zero,
    normal_form,
    parse,
    pow_,
    rat,
    substitute,
    var,
)
from gbeq.expr.zero import _constraints_hold, _random_standin, integral_identity

from conftest import frac


@pytest.fixture
def ctx():
    c = Context()
    c.add_var("t")
    c.add_var("x")
    c.add_function("f", ("t", "x"))
    return c


def test_rational_identity_is_symbolic(ctx):
    e = parse("1/(1 + x) + 1/(1 - x) - 2/(1 - x^2)", ctx)
    z = is_zero(e, ctx)
    assert z.verdict == SYMBOLIC_ZERO
    assert bool(z)
    assert z.samples == []


def test_rational_constant_short_circuits(ctx):
    z = is_zero(rat(3), ctx)
    assert z.verdict == NONZERO
    assert not bool(z)
    # past the float range the witness is an infinity, not an OverflowError
    big = is_zero(rat(10**400), ctx)
    assert big.verdict == NONZERO and big.max_abs == float("inf")


def test_transcendental_identity_needs_samples(ctx):
    # no rule relates sin and cos, so only the samples see the identity
    e = parse("sin(x)^2 + cos(x)^2 - 1", ctx)
    z = is_zero(e, ctx)
    assert z.verdict == NUMERIC_ZERO
    assert len(z.samples) == 30
    assert z.max_abs <= z.tolerance
    assert "not symbolically zero" in z.summary()


@pytest.mark.parametrize(
    "text",
    [
        "exp(2*ln(t)) - t^2",
        "exp(2*ln(2)) - 4",
        "exp(ln(t) + ln(x)) - t*x",
        "exp(ln(2) - ln(x + 3)) - 2/(x+3)",
        "exp(t + ln(x)/2 - 3*ln(1 + t^2)) - x^(1/2)*exp(t)/(1 + t^2)^3",
    ],
)
def test_exp_of_a_rational_multiple_of_ln_is_symbolic(ctx, text):
    z = is_zero(parse(text, ctx), ctx)
    assert z.verdict == SYMBOLIC_ZERO
    assert not z.samples


def test_nonzero_reports_witness(ctx):
    z = is_zero(parse("t - x", ctx), ctx)
    assert z.verdict == NONZERO
    assert z.max_abs > 0
    assert "nonzero" in z.summary()


def test_assumptions_unlock_symbolic_cancellation(ctx):
    e = parse("(t^2)^(1/2) - t", ctx)
    assert is_zero(e, ctx).verdict == NONZERO
    pos = Context()
    pos.add_var("t")
    pos.assume_positive(var("t"))
    assert is_zero(e, pos).verdict == SYMBOLIC_ZERO


def test_sampling_error_when_no_point_is_valid(ctx):
    with pytest.raises(SamplingError):
        is_zero(parse("ln(-1 - t^2)", ctx), ctx)


def test_stand_ins_for_integral_atoms(ctx):
    f = ctx.fn("f")
    f_at0 = func("f", ("t", "x"), (0, 0), (var("t"), rat(0)))
    # the square of the integral is beyond the antiderivative rule
    squared = integral(parse("f_x", ctx), "x") ** 2 - (f - f_at0) ** 2
    z = is_zero(squared, ctx)
    assert z.verdict == NUMERIC_ZERO
    # dropping the base-point term leaves a genuine nonzero
    z2 = is_zero(integral(parse("f_x", ctx), "x") - f, ctx)
    assert z2.verdict == NONZERO


def test_stand_ins_obey_sign_assumptions(ctx):
    # h(t, 1) makes the sampler bind f and h to polynomial stand-ins;
    # abs(f + f_x) = f + f_x only where the assumptions on f and f_x hold
    ctx.add_function("h", ("t", "x"))
    e = parse("abs(f + f_x) - f - f_x", ctx) * func(
        "h", ("t", "x"), (0, 0), (var("t"), rat(1))
    )
    assert is_zero(e, ctx).verdict == NONZERO
    ctx.assume(ctx.fn("f"), POSITIVE)
    ctx.assume(ctx.fn("f", (0, 1)), POSITIVE)
    z = is_zero(e, ctx)
    assert z.verdict == NUMERIC_ZERO and z.note == "stand-in sampling"


def test_constrained_stand_in_and_its_check():
    # the x^2 coefficient carries the sign of f_xx, halved as f_xx doubles it
    p = _random_standin(random.Random(5), ("t", "x"), {(0, 2): NEGATIVE})
    c = collect(p, var("x"))[2]
    assert isinstance(c, Rat) and -0.7 <= c.value <= -0.45
    ev = Evaluator(bindings={"f": rat(1) - var("x")})
    funcs = {"f": ("t", "x")}
    point = {"t": 0.3, "x": 0.5}

    def holds(constraints, at=point):
        return _constraints_hold(ev, funcs, {"f": constraints}, at)

    assert holds({(0, 0): POSITIVE, (0, 1): NEGATIVE})
    assert not holds({(0, 0): POSITIVE}, {"t": 0.3, "x": 2.0})
    assert not holds({(0, 1): POSITIVE})
    assert holds({(0, 1): NONZERO_FLAG})
    assert not holds({(0, 2): NONZERO_FLAG})


def test_same_seed_same_samples(ctx):
    e = parse("exp(2*ln(t)) - t^2", ctx)
    a = is_zero(e, ctx, seed=11)
    b = is_zero(e, ctx, seed=11)
    assert a.samples == b.samples
    assert a.seed == 11


def test_result_fields(ctx):
    z = is_zero(parse("t - t", ctx), ctx)
    assert z.verdict == SYMBOLIC_ZERO
    assert z.tolerance == 1e-9
    assert z.seed == 42
    assert z.max_abs == 0.0
    assert z.summary()


# -- the antiderivative rule ------------------------------------------------


@pytest.mark.parametrize(
    "text",
    [
        "int(f_x, x) - f + f(t, 0)",
        "int(f_t, t) - f + f(0, x)",
        "x*(int(f_x, x) - f + f(t, 0))",
        "(int(f_x, x) - f + f(t, 0))/(1 + x^2)",
        "int(2*x*exp(x^2), x) - exp(x^2) + 1",
    ],
)
def test_an_antiderivative_identity_is_symbolic(ctx, text):
    z = is_zero(parse(text, ctx), ctx)
    assert z.verdict == SYMBOLIC_ZERO
    assert z.samples == []


@pytest.mark.parametrize(
    "text",
    [
        # the rest is 0 at x = 0, but its d/dx is not the body
        "int(f_x, x) - 2*f + 2*f(t, 0)",
        # d/dx of the rest is the body, but the rest is not 0 at x = 0
        "int(f_x, x) - f",
        "int(f_x, x) - f + f(t, 0) + 1/10^6",
        # d/dx(-1/x) = 1/x^2, but the denominator x vanishes at x = 0
        "int(1/x^2, x) + 1/x",
        # not linear in one integral atom
        "int(f_x, x)^2 - (f - f(t, 0))^2",
        "int(f_x, x) + int(f_t, t) - 2*f + f(t, 0) + f(0, x)",
        "exp(int(f_x, x)) - exp(f - f(t, 0))",
        "int(int(f_xx, x), x) - f + f(t, 0) + x*f_x(t, 0)",
        # the derivative of abs and sign needs a sign assumption
        "int(abs(x - 1/3)^(1/2), x) - 2/3*sign(x - 1/3)*abs(x - 1/3)^(3/2)"
        " - 2/27*3^(1/2)",
    ],
)
def test_the_antiderivative_rule_declines(ctx, text):
    assert not integral_identity(normal_form(parse(text, ctx), ctx), ctx)


@pytest.mark.parametrize(
    "h",
    [
        "f/(2 + exp(t)*f^2)",
        "x/(exp(t) + exp(2*t) + f)",
        "(1 + x)*exp(f)/(3 + exp(t)*f_x^2)",
    ],
)
def test_a_denominator_over_independent_atoms_is_proved_nonzero(ctx, h):
    # D at x = 0 holds t, f(t, 0), f_x(t, 0) and exp atoms whose
    # exponents differ by nonzero rational functions
    h = parse(h, ctx)
    member = integral(differentiate(h, "x", ctx), "x") - h + substitute(h, {"x": ZERO}, ctx)
    assert integral_identity(normal_form(member, ctx), ctx)


@pytest.mark.parametrize(
    "s",
    [
        # atoms that are not independent: s is 0
        "sin(t)^2 + cos(t)^2 - 1",
        # exp atoms whose exponents are equal rational functions: s is 0
        "exp((t^2 - 1)/(t - 1)) - exp(t + 1)",
    ],
)
def test_a_denominator_not_proved_nonzero_is_declined(ctx, s):
    # H = x/(x + s) has d/dx - b = 0 and N = x vanishes at x = 0, while
    # D = s has a nonzero normal form there; but s is 0, so H = 1 and
    # the member is -1
    member = parse(f"int(({s})/(x + {s})^2, x) - x/(x + {s})", ctx)
    assert normal_form(member, ctx) != ZERO
    assert not integral_identity(normal_form(member, ctx), ctx)
    assert is_zero(member, ctx).verdict == NONZERO


def test_an_integral_divergent_at_every_point_is_never_graded(ctx):
    # int_0^x s^-2 ds diverges for every x, so quad's estimates are no
    # samples; the antiderivative rule declines it, since D = x vanishes
    # at INT_BASE, and no valid point is left to grade
    member = parse("int(1/x^2, x) + 1/x", ctx)
    assert not integral_identity(normal_form(member, ctx), ctx)
    with pytest.raises(SamplingError):
        is_zero(member, ctx)


def _opaque_tree(rng, f, depth=3):
    """A tree over t, x, f, f_x and exp with no pole at x = 0."""
    if depth <= 0 or rng.random() < 0.25:
        return rng.choice(
            (var("t"), var("x"), f, differentiate(f, "x"), rat(frac(rng, nonzero=True)))
        )
    op = rng.random()
    a = _opaque_tree(rng, f, depth - 1)
    if op < 0.3:
        return a + _opaque_tree(rng, f, depth - 1)
    if op < 0.6:
        return a * _opaque_tree(rng, f, depth - 1)
    if op < 0.75:
        return pow_(a, rng.choice((2, 3)))
    if op < 0.9:
        return exp(rat(frac(rng, nonzero=True)) * rng.choice((var("t"), var("x"), f)))
    # q + a^2 with q > 0 is not 0 at x = 0 whatever a is
    return a / (rat(abs(frac(rng, nonzero=True))) + a * a)


@given(st.integers(0, 10**6))
def test_every_antiderivative_identity_is_proved(seed):
    ctx = Context()
    ctx.add_var("t")
    ctx.add_var("x")
    f = ctx.add_function("f", ("t", "x"))
    rng = random.Random(seed)
    h = _opaque_tree(rng, f)
    member = integral(differentiate(h, "x", ctx), "x") - h + substitute(h, {"x": ZERO}, ctx)
    assert is_zero(member, ctx).verdict == SYMBOLIC_ZERO
    # a nonzero constant fails the base point, a nonzero c*x the derivative
    q = rat(frac(rng, nonzero=True))
    for shifted in (member + q, member + q * var("x")):
        assert is_zero(shifted, ctx).verdict != SYMBOLIC_ZERO
