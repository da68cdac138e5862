"""Class registry: PDE shapes, membership conditions, embeddings."""

import json
import random

import pytest

from gbeq.classes import (
    CLASS_SPECS,
    EMBEDDINGS,
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
from gbeq.expr import (
    SYMBOLIC_ZERO,
    ZERO,
    DifferentiationError,
    differentiate,
    format_expr,
    is_zero,
    parse,
    rat,
    var,
)
from gbeq.report import MEMBER, REJECTED
from gbeq.verify import residual

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


def reference_pde(inst, ctx):
    """The class equation of inst written out by hand, one branch per class."""
    cid = inst.class_id
    el = inst.elements
    dep = CLASS_SPECS[cid].dependent
    w = ctx.fn(dep)
    w_t = ctx.fn(dep, (1, 0))
    w_x = ctx.fn(dep, (0, 1))
    w_xx = ctx.fn(dep, (0, 2))
    dx = lambda e: differentiate(e, "x", ctx)

    if cid == ClassId.BURGERS:
        return w_t + w * w_x + w_xx
    if cid == ClassId.SUPER:
        return w_t + el["F"] * w_xx + el["H1"] * w_x + el["H0"]
    if cid == ClassId.LINEAR:
        return w_t + el["a"] * w_xx + el["b"] * w_x + el["c"] * w
    if cid == ClassId.LINZ_ABC:
        a, b, f = el["a"], el["b"], el["f"]
        return (
            w_t
            + a * w_xx
            + (a * w + dx(a) + b) * w_x
            + rat(1, 2) * dx(a) * w * w
            + dx(b) * w
            + f
        )
    if cid == ClassId.LINZ_BF:
        b, f = el["b"], el["f"]
        return w_t + w_xx + (w + b) * w_x + dx(b) * w + f
    if cid == ClassId.LINZ_F:
        return w_t + w_xx + w * w_x + el["f"]
    if cid == ClassId.GBE_TX or cid == ClassId.GBE_T:
        return w_t + w * w_x + el["f"] * w_xx
    if cid in (ClassId.GBE_DIV, ClassId.GBE_DIV_NONDEG, ClassId.GBE_DIV_DEG):
        f = el["f"]
        return w_t + w * w_x + f * w_xx + dx(f) * w_x
    raise AssertionError(f"no reference equation for {cid}")


# (class, elements, candidate, residual_text): one non-solution per class
# and a second where a derivative of an element is a sum
RESIDUAL_PINS = [
    ("BURGERS", {}, "2/x + t", "1 + 4/x^3 - 2*(t + 2/x)/x^2"),
    ("LINZ_F", {"f": "t*x"}, "2/x", "t*x"),
    ("GBE_TX", {"f": "1 + x^2"}, "2/x", "-4/x^3 + 4*(1 + x^2)/x^3"),
    ("GBE_T", {"f": "1 + t^2"}, "2/x", "-4/x^3 + 4*(1 + t^2)/x^3"),
    ("GBE_DIV", {"f": "1 + t*x^2"}, "2*x/(1+t)", "4*t*x/(1 + t) + 2*x/(1 + t)^2"),
    (
        "GBE_DIV", {"f": "1 + x^2 + x^3"}, "2/x",
        "-4/x^3 + 4*(1 + x^2 + x^3)/x^3 - 2*(2*x + 3*x^2)/x^2",
    ),
    ("GBE_DIV_NONDEG", {"f": "1 + x^3"}, "2/x", "-6 - 4/x^3 + 4*(1 + x^3)/x^3"),
    (
        "GBE_DIV_NONDEG", {"f": "2 + x^3 + t*x^4"}, "t/x",
        "2*t*(2 + t*x^4 + x^3)/x^3 - t*(4*t*x^3 + 3*x^2)/x^2 - t^2/x^3 + 1/x",
    ),
    (
        "GBE_DIV_DEG", {"f": "1 + x + t*x^2"}, "x^2",
        "2*x*(1 + 2*t*x) + 2*x^3 + 2*(1 + t*x^2 + x)",
    ),
    ("LINZ_BF", {"b": "t*x", "f": "x"}, "2/x", "x"),
    ("SUPER", {"F": "1", "H1": "u + x", "H0": "0"}, "2/x", "-2/x"),
    ("LINEAR", {"a": "1", "b": "1 + x", "c": "0"}, "x^2", "2 + 2*x*(1 + x)"),
    (
        "LINZ_ABC", {"a": "1 + x", "b": "t", "f": "x"}, "2/x",
        "2/x^2 - 2*(1 + t)/x^2 + x",
    ),
    ("LINZ_ABC", {"a": "2", "b": "t*x", "f": "1"}, "x", "1 + 2*t*x + 2*x"),
]


def pinned_member(cid, elements):
    cid = ClassId(cid)
    return EquationInstance(cid, {k: P(v, cid) for k, v in elements.items()})


@pytest.mark.parametrize("cid", list(ClassId), ids=str)
def test_class_equation_matches_the_reference(cid):
    members = [draw_instance(cid, random.Random(seed)) for seed in range(3)]
    members += [pinned_member(c, el) for c, el, _, _ in RESIDUAL_PINS if c == cid]
    for inst in members:
        ctx = inst.context()
        diff = build_pde(inst, ctx) - reference_pde(inst, ctx)
        assert is_zero(diff, ctx).verdict == SYMBOLIC_ZERO, format_instance(inst)


def test_class_equation_keeps_the_callers_assumptions():
    # a_x of a = 1 + abs(x) needs the sign of x: the embedding takes it
    # from the context build_pde is given
    cid = ClassId.LINZ_ABC
    inst = pinned_member(cid, {"a": "1 + abs(x)", "b": "t*x", "f": "x"})
    ctx = inst.context()
    ctx.assume_name("x", "positive")
    diff = build_pde(inst, ctx) - reference_pde(inst, ctx)
    assert is_zero(diff, ctx).verdict == SYMBOLIC_ZERO
    rep = residual(inst, P("2/x", cid), assumptions=[("x", "positive")])
    assert rep.residual_text == "2*t/x + 2/x^2 - 2*(1 + t*x)/x^2 + x"
    with pytest.raises(DifferentiationError, match="abs"):
        build_pde(inst)


@pytest.mark.parametrize(
    "cid, elements, candidate, text", RESIDUAL_PINS,
    ids=[f"{row[0]}-{row[2]}" for row in RESIDUAL_PINS],
)
def test_non_solution_residual_text_is_pinned(cid, elements, candidate, text):
    rep = residual(pinned_member(cid, elements), P(candidate, ClassId(cid)))
    assert rep.verdict == "NONZERO"
    assert rep.residual_text == text


def routes(src, dst):
    """Every chain of EMBEDDINGS steps from src to dst."""
    if src == dst:
        return [[dst]]
    return [[src] + rest for a, b in EMBEDDINGS if a == src for rest in routes(b, dst)]


def test_embeddings_are_covering_steps():
    # no step is a chain of the others
    for a, b in EMBEDDINGS:
        assert routes(a, b) == [[a, b]], (a, b)


@pytest.mark.parametrize(
    "inst",
    [
        EquationInstance(ClassId.BURGERS, {}),
        pinned_member("GBE_T", {"f": "1 + t^2"}),
        pinned_member("GBE_T", {"f": "exp(t)"}),
    ],
    ids=["BURGERS", "GBE_T-poly", "GBE_T-exp"],
)
def test_embedding_is_independent_of_the_path(inst):
    # through GBE_TX and through GBE_DIV_DEG and GBE_DIV
    found = routes(inst.class_id, ClassId.SUPER)
    assert len(found) == 2
    ctx = inst.context()
    images = []
    for route in found:
        elements = inst.elements
        for step in zip(route, route[1:]):
            elements = EMBEDDINGS[step](elements, ctx)
        images.append(elements)
    want = embed(inst, ClassId.SUPER).elements
    for elements in images:
        for name in ("F", "H1", "H0"):
            zr = is_zero(elements[name] - want[name], ctx)
            assert zr.verdict == SYMBOLIC_ZERO, name


def test_other_classes_have_one_route_to_super():
    many = {cid for cid in ClassId if len(routes(cid, ClassId.SUPER)) > 1}
    assert many == {ClassId.BURGERS, ClassId.GBE_T}


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
    co = deg_coefficients(P("3*x^2 + t*x + 1", cid))
    assert {k: format_expr(v) for k, v in co.items()} == {0: "1", 1: "t", 2: "3"}


def test_deg_coefficients_reject_cubic():
    cid = ClassId.GBE_DIV_DEG
    with pytest.raises(ClassError, match="x-degree 3"):
        deg_coefficients(P("x^3", cid))


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
