"""Verdict grading: symbolic cancellation first, seeded sampling after."""

import pytest

from gbeq.expr import (
    Context,
    NONZERO,
    NUMERIC_ZERO,
    SYMBOLIC_ZERO,
    SamplingError,
    func,
    integral,
    is_zero,
    parse,
    rat,
    var,
)


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
    e = parse("exp(2*ln(t)) - t^2", ctx)
    z = is_zero(e, ctx)
    assert z.verdict == NUMERIC_ZERO
    assert len(z.samples) == 30
    assert z.max_abs <= z.tolerance
    assert "not symbolically zero" in z.summary()


def test_nonzero_reports_witness(ctx):
    z = is_zero(parse("t - x", ctx), ctx)
    assert z.verdict == NONZERO
    assert z.max_abs > 0
    assert "nonzero" in z.summary()


def test_normalize_false_grades_values_not_zero_sets(ctx):
    # normal_form scales rational content away, so the default pipeline
    # sees the zero set of t; without it the tiny value passes tolerance
    e = parse("t/1000000000000", ctx)
    assert is_zero(e, ctx).verdict == NONZERO
    assert is_zero(e, ctx, normalize=False).verdict == NUMERIC_ZERO


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
