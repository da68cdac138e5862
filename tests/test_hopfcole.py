"""The linearizing substitution u = 2 v_x / v and its solution bridge."""

import pytest

from gbeq.classes import ClassId, EquationInstance, linearizable_from_linear
from gbeq.expr import ZERO, format_expr, is_zero, parse, rat, var
from gbeq.hopfcole import (
    HopfColeObstruction,
    burgers_catalog,
    cole_hopf_solution,
    heat_catalog,
    heat_instance,
    lift_transform,
    verify_diagram,
)
from gbeq.transforms import LinearTransform, LinzTransform
from gbeq.verify import residual


@pytest.fixture
def hctx():
    return heat_instance().context()


def test_heat_instance_is_the_unit_diffusion_member():
    inst = heat_instance()
    assert inst.class_id is ClassId.LINEAR
    out = {k: format_expr(v) for k, v in inst.elements.items()}
    assert out == {"a": "1", "b": "0", "c": "0"}


def test_bridge_instance_is_potential_free():
    inst = linearizable_from_linear(heat_instance())
    out = {k: format_expr(v) for k, v in inst.elements.items()}
    assert out == {"a": "1", "b": "0", "f": "0"}
    assert inst.class_id is ClassId.LINZ_ABC


def test_catalog_solves_the_heat_equation(hctx):
    entries = heat_catalog()
    assert len(entries) >= 6
    heat = heat_instance()
    for v in entries:
        rep = residual(heat, v)
        assert rep.verdict == "SYMBOLIC_ZERO", format_expr(v)


def test_catalog_images_solve_burgers(hctx):
    burgers = EquationInstance(ClassId.BURGERS, {})
    for v, u in burgers_catalog():
        rep = residual(burgers, u)
        assert rep.verdict == "SYMBOLIC_ZERO", format_expr(v)


def test_kink_image(hctx):
    v = parse("1 + exp(x - t)", hctx)
    u = cole_hopf_solution(v, hctx)
    assert format_expr(u) == "2*exp(-t + x)/(1 + exp(-t + x))"


def test_constant_solution_maps_to_zero(hctx):
    assert cole_hopf_solution(rat(1), hctx) == ZERO


def test_lift_requires_vanishing_offset(hctx):
    good = LinearTransform(
        T=var("t"), X=var("x"), V1=parse("exp(x)", hctx), V0=ZERO
    )
    lifted = lift_transform(good)
    assert isinstance(lifted, LinzTransform)
    assert format_expr(lifted.U0) == "2"
    bad = LinearTransform(T=var("t"), X=var("x"), V1=rat(1), V0=var("x"))
    with pytest.raises(HopfColeObstruction, match="lift needs V0 = 0"):
        lift_transform(bad)


def test_lift_of_identity_is_identity(hctx):
    ident = LinearTransform(T=var("t"), X=var("x"), V1=rat(1), V0=ZERO)
    lifted = lift_transform(ident)
    assert lifted.U0 == ZERO
    assert lifted.T == var("t")
    assert lifted.X == var("x")


def test_diagram_commutes_for_a_scaling_transform(hctx):
    tr = LinearTransform(
        T=parse("4*t", hctx), X=parse("2*x + t", hctx),
        V1=parse("exp(x/2)", hctx), V0=ZERO,
    )
    rep = verify_diagram(tr, solutions=[parse("1 + exp(x - t)", hctx)])
    assert rep.ok
    assert rep.verdict == "SYMBOLIC_ZERO"
    descriptions = [c.description for c in rep.conditions]
    assert any("element face" in d for d in descriptions)
    assert any("solution face" in d for d in descriptions)


def test_diagram_defaults_to_heat_pair(hctx):
    ident = LinearTransform(T=var("t"), X=var("x"), V1=rat(1), V0=ZERO)
    rep = verify_diagram(ident)
    assert rep.ok

