"""Residual grading and solution transport across a transform."""

import importlib
import random
import re
from fractions import Fraction

import pytest

from gbeq.classes import ClassId, EquationInstance, class_context, parse_instance
from gbeq.expr import (
    NEGATIVE, NONZERO, NUMERIC_ZERO, POSITIVE, SYMBOLIC_ZERO, ZERO, ExprError,
    format_expr, is_zero, normal_form, parse, rat, var,
)
from gbeq.expr.nodes import DivisionByZero
from gbeq.expr.poly import Kernel
from gbeq.expr.zero import integral_identity, sampled_verdict
from gbeq.report import worst_verdict
from gbeq.symmetry import solution_catalog
from gbeq.transforms import (
    LinzTransform,
    ReducedTransform,
    apply_transform,
    push_solution,
)
from gbeq.verify import residual, transport_check

from conftest import residual_expr


BURGERS = EquationInstance(ClassId.BURGERS, {})
BCTX = BURGERS.context()


def test_stationary_solution_is_symbolic():
    rep = residual(BURGERS, parse("2/x", BCTX))
    assert rep.verdict == "SYMBOLIC_ZERO"
    assert rep.ok
    assert rep.samples == []


def test_non_solution_is_graded_nonzero():
    rep = residual(BURGERS, parse("x", BCTX))
    assert rep.verdict == "NONZERO"
    assert not rep.ok
    assert rep.samples


def test_opaque_forms_fall_back_to_sampling():
    # no rule relates sin and cos, so only the samples see that they cancel
    rep = residual(BURGERS, parse("2/x + sin(x)^2 + cos(x)^2 - 1", BCTX))
    assert rep.verdict == "NUMERIC_ZERO"
    assert "opaque symbols present" in rep.summary
    assert rep.ok


def test_report_is_deterministic():
    a = residual(BURGERS, parse("x", BCTX), seed=3)
    b = residual(BURGERS, parse("x", BCTX), seed=3)
    assert a.to_json() == b.to_json()


def test_residual_samples_inside_the_box():
    # 2/x is singular at 0; every coordinate keeps a magnitude of 0.1 to 2,
    # and the sign the assumptions give it (once half the points of x > 0
    # fell at x < 0)
    for assumptions, signs in [
        ([], {1, -1}), ([("x", POSITIVE)], {1}), ([("x", NEGATIVE)], {-1}),
    ]:
        rep = residual(BURGERS, parse("2/x + 1/10^15", BCTX), assumptions=assumptions)
        assert rep.verdict == "NUMERIC_ZERO"
        assert len(rep.samples) == 30
        for point, _ in rep.samples:
            assert set(point) == {"x"}
            assert 0.1 <= abs(point["x"]) <= 2.0
        assert {1 if point["x"] > 0 else -1 for point, _ in rep.samples} == signs


@pytest.mark.parametrize(
    "text, assumptions, seed",
    [
        ("x", [], 42),
        ("x", [("x", POSITIVE)], 7),
        ("2/x + 1/10^15", [("x", NEGATIVE)], 42),
        ("x^2*t + 2/x", [], 3),
        ("(x + t)^(1/2)", [("t", POSITIVE), ("x", POSITIVE)], 5),
    ],
)
def test_residual_samples_through_the_numeric_stage_of_is_zero(text, assumptions, seed):
    # a function-free residual is sampled by is_zero's own numeric stage:
    # the same points and values for the same residual, context and seed
    ctx = BURGERS.context()
    ctx.assume_declared(assumptions)
    res = residual_expr(BURGERS, parse(text, ctx), ctx)
    rep = residual(BURGERS, parse(text, BCTX), seed=seed, assumptions=assumptions)
    zr = sampled_verdict(res, ctx, 1e-9, seed)
    assert rep.verdict == zr.verdict
    assert rep.samples == zr.samples


def test_constant_residual_is_graded_within_tolerance():
    # u = -t solves u_t + 1 = 0; a float-contaminated candidate leaves the
    # constant residual 10^-11, which the tolerance accepts, while is_zero
    # still decides that exact constant NONZERO
    inst = parse_instance("class = SUPER\nelement.F = 1\nelement.H1 = u\nelement.H0 = 1\n")
    ctx = inst.context()
    rep = residual(inst, parse("-0.99999999999*t", ctx))
    assert rep.verdict == NUMERIC_ZERO
    assert rep.residual_text == "1/100000000000"
    assert rep.samples == [({}, 1e-11)] * 30
    assert is_zero(rat(Fraction(1, 10**11)), ctx).verdict == NONZERO


def test_push_solution_through_closed_map():
    src = EquationInstance(ClassId.LINZ_F, {"f": ZERO})
    ctx = src.context()
    tr = ReducedTransform(T=parse("4*t + 1", ctx), X0=parse("t^2", ctx), eps=Fraction(1))
    res = apply_transform(tr, src)
    pushed = push_solution(res, parse("2/x", ctx))
    assert pushed is not None
    # the image solves the transformed member
    rep = residual(res.target, pushed)
    assert rep.verdict == "SYMBOLIC_ZERO"


def test_push_solution_without_inverse_returns_none():
    src = EquationInstance(ClassId.LINZ_ABC, {"a": rat(1), "b": ZERO, "f": ZERO})
    ctx = src.context()
    tr = LinzTransform(T=var("t"), X=parse("x + x^3", ctx), U0=ZERO)
    res = apply_transform(tr, src)
    assert res.inverse is None
    assert push_solution(res, parse("2/x", ctx)) is None


def test_transport_check_round():
    src = EquationInstance(ClassId.LINZ_F, {"f": ZERO})
    ctx = src.context()
    tr = ReducedTransform(T=parse("4*t + 1", ctx), X0=parse("t^2", ctx), eps=Fraction(1))
    res = apply_transform(tr, src)
    rep = transport_check(tr, src, res.target, parse("2/x", ctx))
    assert rep.ok
    assert rep.verdict == "SYMBOLIC_ZERO"
    assert "transport conditions hold" in rep.summary


def test_transport_check_flags_wrong_target():
    src = EquationInstance(ClassId.LINZ_F, {"f": ZERO})
    ctx = src.context()
    tr = ReducedTransform(T=parse("4*t + 1", ctx), X0=parse("t^2", ctx), eps=Fraction(1))
    wrong = EquationInstance(ClassId.LINZ_F, {"f": parse("t", ctx)})
    rep = transport_check(tr, src, wrong, parse("2/x", ctx))
    assert not rep.ok


def test_worst_verdict_ranks_evidence():
    assert worst_verdict([]) == "SYMBOLIC_ZERO"
    assert worst_verdict(["SYMBOLIC_ZERO", "NUMERIC_ZERO", "SYMBOLIC_ZERO"]) == "NUMERIC_ZERO"
    assert worst_verdict(["MEMBER", "NUMERIC_ZERO"]) == "MEMBER"
    assert worst_verdict(["NONZERO", "NUMERIC_ZERO"]) == "NONZERO"
    assert worst_verdict(["NONZERO", "REJECTED_PRECONDITION"]) == "REJECTED_PRECONDITION"
    assert worst_verdict(["OBSTRUCTION", "REJECTED_PRECONDITION"]) == "OBSTRUCTION"


def test_candidate_undefined_on_the_assumed_domain_is_never_proved():
    # c F^(-k) with F = 0 wherever the assumption holds: the candidate
    # is 1/0 there, so no residual of it may be a proof
    vanishing = {
        POSITIVE: ("abs({a}) - {a}", "sign({a}) - 1"),
        NEGATIVE: ("abs({a}) + {a}", "sign({a}) + 1"),
    }
    coefficients = ("1", "-3", "2*x", "t + x^2", "exp(x)", "1/(1 + t^2)")
    rng = random.Random(59)
    cases = [
        (flag, a, factor)
        for flag, factors in sorted(vanishing.items())
        for a in ("x", "t")
        for factor in factors
    ]
    for flag, a, factor in cases * 3:
        c, k = rng.choice(coefficients), rng.randint(1, 4)
        text = f"({c})*({factor.format(a=a)})^(-{k})"
        try:
            rep = residual(BURGERS, parse(text, BCTX), assumptions=[(a, flag)])
        except DivisionByZero:
            continue
        assert rep.verdict != SYMBOLIC_ZERO, (text, flag)


def test_log_of_a_rational_at_most_zero_is_refused():
    # abs(x) - x is 0 wherever x > 0, so ln(abs(x) - x) is ln(0) there,
    # and its residual, with every derivative 0, would reduce to 0
    for text, node in (
        ("ln(abs(x) - x)", "ln(0)"),
        ("3 + x*ln(abs(x) - x - 2)", "ln(-2)"),
        ("ln(sign(x) - 1)^2", "ln(0)"),
    ):
        with pytest.raises(ExprError, match=rf"^{re.escape(node)} is undefined$"):
            residual(BURGERS, parse(text, BCTX), assumptions=[("x", POSITIVE)])
    # a log whose argument is no rational constant is left to the zero test
    rep = residual(BURGERS, parse("ln(abs(x) + x)", BCTX), assumptions=[("x", POSITIVE)])
    assert rep.verdict == "NONZERO"


def test_even_root_of_a_negative_rational_is_refused():
    # pow_ keeps (-1)^(1/2) as an opaque Pow; a constant candidate's
    # residual is 0, so only the candidate on its own shows it
    for text, assume, node in (
        ("(-1)^(1/2)", [], "(-1)^(1/2)"),
        ("x + (-4)^(1/2)", [], "(-4)^(1/2)"),
        ("(-1)^(3/2)", [], "(-1)^(1/2)"),
        ("(abs(x) - x - 1)^(1/2)", [("x", POSITIVE)], "(-1)^(1/2)"),
    ):
        with pytest.raises(ExprError, match=rf"^{re.escape(node)} is undefined$"):
            residual(BURGERS, parse(text, BCTX), assumptions=assume)
    # an odd root of a negative rational is a real number
    assert residual(BURGERS, parse("(-8)^(1/3)", BCTX)).verdict == SYMBOLIC_ZERO


@pytest.mark.parametrize(
    "member, candidate",
    [
        ("class = BURGERS\n", "exp(ln(2) - ln(x))"),
        (
            "class = SUPER\nelement.F = 1\nelement.H1 = u\n"
            "element.H0 = int(F_x, x) - F + F(t, 0)\n",
            "2/x",
        ),
        ("class = LINZ_F\nelement.f = int(2*x*exp(x^2), x) - exp(x^2) + 1\n", "2/x"),
    ],
    ids=["exp-of-logs", "opaque-member", "integral-member"],
)
def test_former_sampler_inputs_are_symbolic(member, candidate):
    # these inputs pinned the jet, stand-in and integral samplers until
    # the exp fold and the antiderivative rule decided them
    inst = parse_instance(member)
    rep = residual(inst, parse(candidate, inst.context()))
    assert rep.verdict == SYMBOLIC_ZERO
    assert rep.samples == []


def _probe_member(h0):
    return parse_instance(
        f"class = SUPER\nelement.F = 1\nelement.H1 = u\nelement.H0 = {h0}\n"
    )


@pytest.mark.parametrize(
    "h0",
    [
        "int(F_x, x) - F + F(t, 0)",
        "int(F_t, t) - F + F(0, x)",
        "x*(int(F_x, x) - F + F(t, 0))",
        "(int(F_x, x) - F + F(t, 0))/(1 + x^2)",
    ],
)
def test_integral_identity_members_are_symbolic(h0):
    inst = _probe_member(h0)
    for u in solution_catalog():
        rep = residual(inst, u)
        assert rep.verdict == SYMBOLIC_ZERO, format_expr(u)
        assert rep.samples == []


@pytest.mark.parametrize(
    "h0, verdict",
    [
        ("int(F_x, x) - F", NONZERO),
        ("int(F_x, x) - F + F(t, 0) + 1/10^6", NONZERO),
        ("int(F_x, x)^2 - (F - F(t, 0))^2", NUMERIC_ZERO),
        # 0, but of degree 2 in the Int atom, where the rule takes A + C*I
        ("int(F_x, x)*(int(F_x, x) - F + F(t, 0))", NUMERIC_ZERO),
    ],
)
def test_integral_members_the_rule_declines_are_sampled(h0, verdict):
    inst = _probe_member(h0)
    for u in solution_catalog():
        rep = residual(inst, u)
        assert rep.verdict == verdict, format_expr(u)
        assert rep.samples


def test_a_pole_at_the_base_point_is_declined():
    # -1/x is an antiderivative of 1/x^2, but not one based at x = 0
    inst = _probe_member("int(1/x^2, x) + 1/x")
    ctx = inst.context()
    for u in solution_catalog():
        assert not integral_identity(normal_form(residual_expr(inst, u, ctx), ctx), ctx)


def test_residual_normalizes_once(monkeypatch):
    # opaque symbols (sin, cos) send the residual to the sampler; once
    # the zero test has found it nonzero, no normal form is computed
    import gbeq.expr.zero as zero_module
    import gbeq.verify as verify_module

    calls = []

    def counting(real):
        def counted(e, ctx=None):
            calls.append(real.__name__)
            return real(e, ctx)

        return counted

    monkeypatch.setattr(
        verify_module, "normal_form_is_zero", counting(verify_module.normal_form_is_zero)
    )
    monkeypatch.setattr(verify_module, "normal_form", counting(verify_module.normal_form))
    monkeypatch.setattr(zero_module, "normal_form", counting(zero_module.normal_form))
    rep = residual(BURGERS, parse("2/x + sin(x)^2 + cos(x)^2 - 1", BCTX))
    assert calls == ["normal_form_is_zero"]
    assert rep.verdict == "NUMERIC_ZERO"
    assert "opaque symbols present" in rep.summary



def test_witnessed_residual_builds_no_kernel(monkeypatch):
    # the modular witness proves (1+x+t)^20's residual nonzero, so the
    # zero test expands nothing before the sampler runs
    built = []
    real = Kernel.__init__

    def counting(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(Kernel, "__init__", counting)
    rep = residual(BURGERS, parse("(1+x+t)^20", BCTX))
    assert rep.verdict == "NONZERO"
    assert built == []


def continued_fraction(depth):
    """1/(1 + 1/(1 + ... 1/(1 + x))), depth levels deep, as text."""
    text = "x"
    for _ in range(depth):
        text = f"1/(1 + {text})"
    return text


@pytest.mark.parametrize(
    "solution",
    [
        "(1+x+t)^6", "(1+x+t)^20", "(1+x+t)^40", "x^99999999", "2/x + 1/10^15",
        continued_fraction(30), continued_fraction(40),
    ],
    ids=["power-6", "power-20", "power-40", "huge-power", "near-stationary", "cf-30", "cf-40"],
)
def test_witness_leaves_every_report_as_it_was(solution, monkeypatch):
    # the old path is the zero test with the witness giving up
    simplify_module = importlib.import_module("gbeq.expr.simplify")
    ctx = BURGERS.context()
    assert simplify_module._witness(residual_expr(BURGERS, parse(solution, ctx), ctx))
    new = residual(BURGERS, parse(solution, BCTX)).to_json()
    monkeypatch.setattr(simplify_module, "_witness", lambda e: None)
    assert residual(BURGERS, parse(solution, BCTX)).to_json() == new
