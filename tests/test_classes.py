"""Class registry: PDE shapes, membership conditions, embeddings."""

import json
import random

import pytest

from gbeq.classes import (
    ClassError,
    ClassId,
    EquationInstance,
    build_pde,
    check_membership,
    class_context,
    deg_coefficients,
    embed,
    format_instance,
    linearizable_from_linear,
    parse_instance,
)
from gbeq.cli import EXIT_MATH, main
from gbeq.expr import ZERO, format_expr, is_zero, parse, rat, var
from gbeq.report import MEMBER, REJECTED

from conftest import draw_instance


def P(text, cid):
    return parse(text, class_context(cid))


def test_class_ids_render_as_tags():
    assert str(ClassId.BURGERS) == "BURGERS"
    assert ClassId("GBE_DIV_NONDEG") is ClassId.GBE_DIV_NONDEG


def test_burgers_pde_shape():
    inst = EquationInstance(ClassId.BURGERS, {})
    assert format_expr(build_pde(inst)) == "u*u_x + u_xx + u_t"


def test_linz_f_pde_with_zero_forcing_matches_burgers():
    inst = EquationInstance(ClassId.LINZ_F, {"f": ZERO})
    assert format_expr(build_pde(inst)) == "u*u_x + u_xx + u_t"


def test_super_pde_shape():
    cid = ClassId.SUPER
    inst = EquationInstance(
        cid, {"F": P("1 + x^2", cid), "H1": P("t", cid), "H0": P("x", cid)}
    )
    pde = build_pde(inst)
    expected = P("u_t + (1 + x^2)*u_xx + t*u_x + x", cid)
    assert is_zero(pde - expected).verdict == "SYMBOLIC_ZERO"


def test_linz_abc_pde_couples_elements():
    cid = ClassId.LINZ_ABC
    inst = EquationInstance(
        cid, {"a": P("t", cid), "b": P("x", cid), "f": ZERO}
    )
    pde = build_pde(inst)
    # H1 = a u + a_x + b and H0 = a_x u^2 / 2 + b_x u + f with a = t, b = x
    expected = P("u_t + t*u_xx + (t*u + x)*u_x + u", cid)
    assert is_zero(pde - expected).verdict == "SYMBOLIC_ZERO"


def test_element_set_is_validated():
    with pytest.raises(ClassError, match=r"expects elements \['f'\], got \[\]"):
        EquationInstance(ClassId.LINZ_F, {})
    with pytest.raises(ClassError, match=r"got \['f', 'g'\]"):
        EquationInstance(ClassId.LINZ_F, {"f": ZERO, "g": rat(1)})


def test_embed_linz_f_to_super():
    inst = EquationInstance(ClassId.LINZ_F, {"f": ZERO})
    sup = embed(inst, ClassId.SUPER)
    out = {k: format_expr(v) for k, v in sup.elements.items()}
    assert out == {"F": "1", "H1": "u", "H0": "0"}


def test_embed_linear_to_super_keeps_dependent_factor():
    cid = ClassId.LINEAR
    lin = EquationInstance(
        cid, {"a": rat(1), "b": ZERO, "c": P("x", cid)}
    )
    sup = embed(lin, ClassId.SUPER)
    out = {k: format_expr(v) for k, v in sup.elements.items()}
    assert out == {"F": "1", "H1": "0", "H0": "x*u"}


def test_embed_burgers_to_super():
    sup = embed(EquationInstance(ClassId.BURGERS, {}), ClassId.SUPER)
    out = {k: format_expr(v) for k, v in sup.elements.items()}
    assert out == {"F": "1", "H1": "u", "H0": "0"}


def test_embedding_preserves_the_pde():
    # the superclass instance must grade the same jet polynomial
    rng = random.Random(5)
    for cid in (ClassId.LINZ_F, ClassId.LINZ_BF, ClassId.GBE_TX):
        inst = draw_instance(cid, rng)
        sup = embed(inst, ClassId.SUPER)
        diff = build_pde(inst) - build_pde(sup)
        assert is_zero(diff, inst.context()).verdict == "SYMBOLIC_ZERO", str(cid)


def test_linearizable_from_linear():
    cid = ClassId.LINEAR
    lin = EquationInstance(
        cid, {"a": rat(1), "b": ZERO, "c": P("x", cid)}
    )
    la = linearizable_from_linear(lin)
    assert la.class_id is ClassId.LINZ_ABC
    out = {k: format_expr(v) for k, v in la.elements.items()}
    assert out == {"a": "1", "b": "0", "f": "2"}


def test_deg_coefficients_split():
    cid = ClassId.GBE_DIV_DEG
    co = deg_coefficients(P("3*x^2 + t*x + 1", cid), class_context(cid))
    assert {k: format_expr(v) for k, v in co.items()} == {0: "1", 1: "t", 2: "3"}


def test_deg_coefficients_reject_cubic():
    cid = ClassId.GBE_DIV_DEG
    with pytest.raises(ClassError, match="x-degree 3"):
        deg_coefficients(P("x^3", cid), class_context(cid))


def test_membership_nondegenerate_needs_fxxx():
    cid = ClassId.GBE_DIV_NONDEG
    quad = EquationInstance(cid, {"f": P("1 + x^2", cid)})
    assert check_membership(quad).verdict == REJECTED
    cubic = EquationInstance(cid, {"f": P("1 + x^3", cid)})
    assert check_membership(cubic).verdict == MEMBER


def test_membership_gbe_t_needs_x_free_f():
    cid = ClassId.GBE_T
    bad = EquationInstance(cid, {"f": P("x", cid)})
    rep = check_membership(bad)
    assert rep.verdict == REJECTED
    assert not rep.ok
    good = EquationInstance(cid, {"f": P("t^2", cid)})
    assert check_membership(good).verdict == MEMBER


@pytest.mark.parametrize(
    "f, verdict, detail",
    [
        (
            "t*x^2 + x + 1", MEMBER,
            "coefficient of x^0: 1; coefficient of x^1: 1; coefficient of x^2: t",
        ),
        ("x^3", REJECTED, "f has x-degree 3, expected at most 2"),
        ("x^2*exp(x)", REJECTED, "x occurs inside exp(x)"),
    ],
)
def test_membership_deg_needs_f_quadratic_in_x(f, verdict, detail):
    cid = ClassId.GBE_DIV_DEG
    rep = check_membership(EquationInstance(cid, {"f": P(f, cid)}))
    assert rep.verdict == verdict
    (shape,) = [c for c in rep.conditions if c.description == "f must be quadratic in x"]
    assert (shape.ok, shape.detail) == (verdict == MEMBER, detail)


def test_membership_cli_exits_1_on_a_cubic_deg_member(tmp_path):
    inst, out = tmp_path / "cubic.gbeq", tmp_path / "rep.json"
    inst.write_text("class = GBE_DIV_DEG\nelement.f = x^3\n")
    assert main(["membership", str(inst), "--out", str(out)]) == EXIT_MATH
    assert json.loads(out.read_text())["verdict"] == REJECTED


def test_membership_rejects_vanishing_diffusion():
    inst = EquationInstance(
        ClassId.SUPER, {"F": ZERO, "H1": ZERO, "H0": ZERO}
    )
    assert check_membership(inst).verdict == REJECTED


def test_format_round_trip():
    cid = ClassId.GBE_DIV_NONDEG
    inst = EquationInstance(cid, {"f": P("1 + x^3", cid)})
    txt = format_instance(inst)
    assert txt == "class = GBE_DIV_NONDEG\nelement.f = 1 + x^3\n"
    back = parse_instance(txt)
    assert back.class_id is cid
    assert back.elements["f"] == inst.elements["f"]


def test_parse_instance_errors():
    with pytest.raises(ClassError):
        parse_instance("element.f = 1\n")
    with pytest.raises(ClassError):
        parse_instance("class = NO_SUCH_TAG\n")
    with pytest.raises(ClassError):
        parse_instance("class = LINZ_F\nelement.f = 1\njunk line\n")


def test_every_class_has_a_context():
    for cid in ClassId:
        ctx = class_context(cid)
        inst = draw_instance(cid, random.Random(3))
        assert inst.context() is not None
        assert build_pde(inst) is not None
        assert ctx is not None
