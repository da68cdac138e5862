"""Verdict grading: symbolic cancellation first, seeded sampling after."""

import random

import pytest

from gbeq.expr import (
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
    func,
    integral,
    is_zero,
    parse,
    rat,
    var,
)
from gbeq.expr.zero import _constraints_hold, _random_standin


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
    # the constructors fold exp(c*ln(a)) but not an exp of a sum of logs
    e = parse("exp(ln(t) + ln(x)) - t*x", ctx)
    z = is_zero(e, ctx)
    assert z.verdict == NUMERIC_ZERO
    assert len(z.samples) == 30
    assert z.max_abs <= z.tolerance
    assert "not symbolically zero" in z.summary()


@pytest.mark.parametrize("text", ["exp(2*ln(t)) - t^2", "exp(2*ln(2)) - 4"])
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
    fundamental = integral(parse("f_x", ctx), "x") - f + f_at0
    z = is_zero(fundamental, ctx)
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
