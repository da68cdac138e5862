"""Transformation families: applications, group laws, gauges, inverses."""

import dataclasses
import random
from collections import Counter
from fractions import Fraction

import pytest

from gbeq import transforms
from gbeq.classes import (
    CLASS_SPECS,
    ClassError,
    ClassId,
    EquationInstance,
    check_membership,
    class_context,
    embed,
)
from gbeq.expr import (
    NUMERIC_ZERO,
    SYMBOLIC_ZERO,
    ZERO,
    app,
    contains_func,
    contains_var,
    differentiate,
    div,
    format_expr,
    is_zero,
    parse,
    pow_,
    rat,
    sqrt,
    substitute,
    var,
)
from gbeq.hopfcole import heat_catalog, heat_instance
from gbeq.transforms import (
    AffineDivTransform,
    DivTransform,
    GaugedTransform,
    GeneralTransform,
    ImplicitInverseOf,
    LinearTransform,
    LinzTransform,
    ProjectiveTuple,
    ReducedTransform,
    TransformError,
    apply_transform,
    closed_inverse,
    compose,
    constraint,
    format_transform,
    gauge_a_to_one,
    gauge_b_to_zero,
    identity_affine_div,
    identity_general,
    identity_linear,
    identity_linz,
    identity_projective,
    identity_reduced,
    invert,
    parse_transform,
    _general_pullback,
    _merged_context,
    to_gauged,
    to_general,
    transform_context,
    transforms_equal,
)

from conftest import (
    DRAWERS,
    GROUPOID_FAMILIES,
    INSTANCE_CLASS,
    draw_instance,
    draw_linear,
    draw_transform,
)

IDENTS = {
    "GENERAL": identity_general,
    "LINZ": identity_linz,
    "GAUGED": transforms.identity_gauged,
    "REDUCED": identity_reduced,
    "PROJECTIVE": identity_projective,
    "DIV": transforms.identity_div,
    "LINEAR": identity_linear,
    "AFFINE_DIV": identity_affine_div,
}


def P(text, cid):
    return parse(text, class_context(cid))


# -- single applications ----------------------------------------------------


def test_reduced_application_frozen_values():
    inst = EquationInstance(ClassId.LINZ_F, {"f": ZERO})
    tr = ReducedTransform(
        T=P("4*t + 1", ClassId.LINZ_F), X0=P("t^2", ClassId.LINZ_F),
        eps=Fraction(1),
    )
    res = apply_transform(tr, inst)
    assert res.closed_form_target
    assert format_expr(res.target.elements["f"]) == "-1/8"
    assert res.map.describe() == {"t": "1 + 4*t", "x": "t^2 + 2*x", "u": "t/2 + u/2"}
    # the image stays in the class
    assert check_membership(res.target).verdict == "MEMBER"


def test_gauged_application_reaches_reduced_form():
    cid = ClassId.LINZ_BF
    inst = EquationInstance(cid, {"b": P("x", cid), "f": ZERO})
    tr = GaugedTransform(T=var("t"), X0=ZERO, U0=P("x", cid), eps=Fraction(1))
    res = apply_transform(tr, inst)
    assert res.closed_form_target
    assert is_zero(res.target.elements["b"]).verdict != "NONZERO"


def test_linz_application_keeps_class():
    cid = ClassId.LINZ_ABC
    inst = EquationInstance(
        cid, {"a": rat(1), "b": P("x", cid), "f": P("t", cid)}
    )
    tr = LinzTransform(T=P("2*t", cid), X=P("x + t", cid), U0=P("x", cid))
    res = apply_transform(tr, inst)
    assert res.closed_form_target
    assert set(res.target.elements) == {"a", "b", "f"}
    assert check_membership(res.target, seed=7).verdict == "MEMBER"


def test_projective_application():
    cid = ClassId.GBE_TX
    inst = EquationInstance(cid, {"f": rat(1)})
    tr = ProjectiveTuple(*map(Fraction, (1, 0, -1, 1, 1, 0, 0)))
    res = apply_transform(tr, inst)
    assert res.closed_form_target
    assert res.map.t == parse("t/(1 - t)", inst.context())


# -- the class apply_transform acts on --------------------------------------


def test_general_embeds_a_narrow_member_into_super():
    inst = EquationInstance(ClassId.LINZ_F, {"f": P("t*x", ClassId.LINZ_F)})
    res = apply_transform(draw_transform("GENERAL", random.Random(31)), inst)
    assert res.source == embed(inst, ClassId.SUPER)
    assert set(res.pullback) == {"F", "H1", "H0"}
    assert res.target.class_id is ClassId.SUPER


def test_div_keeps_a_subclass_member_in_its_class():
    cid = ClassId.GBE_DIV_DEG
    inst = EquationInstance(cid, {"f": P("t*x^2 + x", cid)})
    tr = DivTransform(T=P("3*t + 1", cid), X0=P("t", cid), kappa=Fraction(2))
    res = apply_transform(tr, inst)
    assert res.source is inst
    assert res.target.class_id is cid


def test_linear_on_a_member_of_another_class_is_a_class_error():
    inst = EquationInstance(ClassId.GBE_DIV, {"f": rat(1)})
    with pytest.raises(ClassError, match="no embedding from GBE_DIV into LINEAR"):
        apply_transform(identity_linear(), inst)


def test_tol_and_seed_reach_the_constraint_check(monkeypatch):
    checked = []
    real = transforms.is_zero

    def spy(e, ctx=None, tol=1e-9, seed=42):
        checked.append((tol, seed))
        return real(e, ctx, tol=tol, seed=seed)

    monkeypatch.setattr(transforms, "is_zero", spy)
    cid = ClassId.GBE_DIV_NONDEG
    div_member = EquationInstance(cid, {"f": P("x^3 + 1", cid)})
    div_tr = DivTransform(T=P("3*t + 1", cid), X0=P("t", cid), kappa=Fraction(2))
    for tr, inst in ((div_tr, div_member), (identity_linear(), heat_instance())):
        checked.clear()
        apply_transform(tr, inst, tol=1e-6, seed=9)
        assert checked == [(1e-6, 9)], tr.family


# -- gauges -----------------------------------------------------------------


def test_gauge_constant_positive_a():
    cid = ClassId.LINZ_ABC
    inst = EquationInstance(cid, {"a": rat(4), "b": ZERO, "f": ZERO})
    g = gauge_a_to_one(inst)
    assert g.ok
    assert format_expr(g.transform.T) == "t"
    assert format_expr(g.transform.X) == "x/2"
    assert format_expr(g.result.map.u) == "2*u"
    assert format_expr(g.result.target.elements["a"]) == "1"
    assert g.instance.class_id is ClassId.LINZ_BF
    assert set(g.instance.elements) == {"b", "f"}


def test_gauge_negative_a_reverses_time():
    cid = ClassId.LINZ_ABC
    inst = EquationInstance(cid, {"a": rat(-1), "b": ZERO, "f": ZERO})
    g = gauge_a_to_one(inst)
    assert g.ok
    assert format_expr(g.transform.T) == "-t"
    assert format_expr(g.result.target.elements["a"]) == "1"


def test_gauge_x_dependent_a_lacks_closed_inverse():
    cid = ClassId.LINZ_ABC
    inst = EquationInstance(
        cid, {"a": P("exp(2*x)", cid), "b": ZERO, "f": ZERO}
    )
    g = gauge_a_to_one(inst)
    assert g.ok
    assert format_expr(g.transform.X) == "int(exp(-x), x)"
    # no closed inverse, so the report grades the forward pullback
    assert g.result.target is None
    assert format_expr(g.result.pullback["a"]) == "1"
    assert "forward form" in g.report.summary
    assert g.instance.class_id is ClassId.LINZ_BF


def test_gauge_b_to_zero():
    cid = ClassId.LINZ_BF
    inst = EquationInstance(cid, {"b": P("x", cid), "f": ZERO})
    g = gauge_b_to_zero(inst)
    assert g.ok
    assert g.instance.class_id is ClassId.LINZ_F
    assert format_expr(g.instance.elements["f"]) == "-x"


# -- projective tuples ------------------------------------------------------


def mobius_product(p2, p1):
    return (
        p2.alpha * p1.alpha + p2.beta * p1.gamma,
        p2.alpha * p1.beta + p2.beta * p1.delta,
        p2.gamma * p1.alpha + p2.delta * p1.gamma,
        p2.gamma * p1.beta + p2.delta * p1.delta,
    )


def test_projective_composition_is_matrix_product():
    p1 = ProjectiveTuple(*map(Fraction, (2, 1, 0, 1, 1, 1, 0)))
    p2 = ProjectiveTuple(*map(Fraction, (1, 0, 1, 3, 2, 0, 1)))
    c = compose(p2, p1)
    # composition is the unscaled matrix product
    assert (c.alpha, c.beta, c.gamma, c.delta) == mobius_product(p2, p1)


def test_projective_scale_equivalence():
    base = (2, 1, 0, 1, 1, 1, 0)
    q1 = ProjectiveTuple(*map(Fraction, base))
    for scale in (2, -1):
        assert transforms_equal(q1, ProjectiveTuple(*(scale * v for v in base)))
    # same Mobius part, kappa scaled alone: not proportional
    assert not transforms_equal(q1, ProjectiveTuple(2, 1, 0, 1, 2, 1, 0))


def test_projective_inverse_and_identity():
    rng = random.Random(12)
    for _ in range(20):
        p = draw_transform("PROJECTIVE", rng)
        q = invert(p)
        assert transforms_equal(compose(q, p), identity_projective())
        assert transforms_equal(compose(identity_projective(), p), p)


# -- divergence family ------------------------------------------------------


def test_div_constraint_blocks_curved_time():
    cid = ClassId.GBE_DIV_NONDEG
    inst = EquationInstance(cid, {"f": P("x^3 + 1", cid)})
    bad = DivTransform(T=P("t^2 + 1", cid), X0=ZERO, kappa=Fraction(1))
    with pytest.raises(TransformError, match="classifying constraint fails"):
        apply_transform(bad, inst)
    assert is_zero(constraint(bad, inst)).verdict == "NONZERO"


def test_div_affine_time_accepted():
    cid = ClassId.GBE_DIV_NONDEG
    inst = EquationInstance(cid, {"f": P("x^3 + 1", cid)})
    tr = DivTransform(T=P("3*t + 1", cid), X0=P("t", cid), kappa=Fraction(2))
    assert is_zero(constraint(tr, inst)).verdict == "SYMBOLIC_ZERO"
    res = apply_transform(tr, inst)
    assert res.closed_form_target
    assert check_membership(res.target).verdict == "MEMBER"


# DIV's constraint is read off its GENERAL lift, as LINEAR's is.  Here
# it is written out in T, X0 and f with root (sign_Tt T_t)^(1/2); the
# lifted one is that divided by -2 T_t^3.


def div_closed_constraint(tr, inst, ctx):
    f = inst.elements["f"]
    k, s = rat(tr.kappa), rat(tr.sign_Tt)
    T_t = _d(tr.T, "t", ctx)
    T_tt = _d(T_t, "t", ctx)
    T_ttt = _d(T_tt, "t", ctx)
    X0_t = _d(tr.X0, "t", ctx)
    root = sqrt(s * T_t)
    return (
        k * s * div(rat(2) * T_t * T_ttt - rat(3) * T_tt * T_tt, rat(2) * root)
        * var("x")
        + k * root * T_tt * _d(f, "x", ctx)
        + rat(2) * T_t * _d(X0_t, "t", ctx)
        - rat(2) * T_tt * X0_t
    )


def test_div_constraint_matches_closed_form():
    cid = ClassId.GBE_DIV
    # roots of a Mobius T_t stay opaque atoms, so those are sampled
    cases = [
        ("t^2 + 1", "0", 1, 1, "x^3 + 1", SYMBOLIC_ZERO),
        ("exp(t)", "t", 2, 1, "x^3 + 1", SYMBOLIC_ZERO),
        ("3*t + 1", "t", 2, 1, "x^3 + 1", SYMBOLIC_ZERO),
        ("1 - 2*t", "t^2", Fraction(-1, 2), -1, "t*x^2 + x", SYMBOLIC_ZERO),
        ("1/(t + 1)", "2*t + 1", -2, -1, "1", NUMERIC_ZERO),
        ("(2*t + 1)/(t + 3)", "t^2 - 1", Fraction(3, 2), 1, "x^3 + t", NUMERIC_ZERO),
    ]
    for T, X0, kappa, sign, f, verdict in cases:
        tr = DivTransform(
            T=P(T, cid), X0=P(X0, cid), kappa=Fraction(kappa), sign_Tt=sign
        )
        inst = EquationInstance(cid, {"f": P(f, cid)})
        ctx = _merged_context(inst, "DIV", sign)
        T_t = _d(tr.T, "t", ctx)
        lifted = rat(2) * pow_(T_t, Fraction(3)) * constraint(tr, inst)
        zr = is_zero(lifted + div_closed_constraint(tr, inst, ctx), ctx)
        assert zr.verdict == verdict, (T, format_expr(zr.residual))


def test_mobius_div_round_trips():
    # the inverse's X0 holds a root that applying it differentiates
    cid = ClassId.GBE_DIV
    tr = DivTransform(
        T=P("1/(t + 1)", cid), X0=P("2/(t + 1) + 1", cid),
        kappa=Fraction(-2), sign_Tt=-1,
    )
    for f in ("1", "t^2 + 1"):
        inst = EquationInstance(cid, {"f": P(f, cid)})
        there = apply_transform(tr, inst).target
        back = apply_transform(invert(tr), there).target
        zr = is_zero(back.elements["f"] - inst.elements["f"], class_context(cid))
        assert zr.verdict == SYMBOLIC_ZERO, (f, format_expr(back.elements["f"]))


def test_affine_div_embeds_into_div():
    ad = AffineDivTransform(
        c0=Fraction(1), c1=Fraction(2), c2=Fraction(0), c3=Fraction(1),
        kappa=Fraction(1, 2),
    )
    d = ad.to_div()
    assert format_expr(d.T) == "1 + 4*t"
    assert format_expr(d.X0) == "1"
    assert d.kappa == Fraction(1, 2)


def test_affine_div_canonical_sign():
    ad = AffineDivTransform(
        c0=Fraction(0), c1=Fraction(-1), c2=Fraction(0), c3=Fraction(0),
    )
    assert ad.c1 == 1
    assert ad.kappa == -1


# -- inversion --------------------------------------------------------------


def test_closed_inverse_of_mobius_affine_map():
    cid = ClassId.LINZ_ABC
    T = P("(-t/2 - 3)/(-t - 1)", cid)
    X = P("(3*x/2 - 2)/(-1 - t)", cid)
    ctx = class_context(cid)
    inv = closed_inverse(T, X, ctx)
    assert inv is not None
    S, xi = inv
    assert is_zero(substitute(T, {"t": S}, ctx) - var("t"), ctx).verdict == "SYMBOLIC_ZERO"
    back = substitute(X, {"t": S, "x": xi}, ctx)
    assert is_zero(back - var("x"), ctx).verdict == "SYMBOLIC_ZERO"


def test_invert_returns_marker_without_closed_form():
    cid = ClassId.LINZ_ABC
    tr = LinzTransform(T=var("t"), X=P("x + x^3", cid), U0=ZERO)
    marker = invert(tr)
    assert isinstance(marker, ImplicitInverseOf)
    assert marker.of == tr
    with pytest.raises(TransformError):
        compose(marker, tr)
    with pytest.raises(TransformError):
        apply_transform(marker, EquationInstance(ClassId.LINZ_ABC, {
            "a": rat(1), "b": ZERO, "f": ZERO,
        }))


def test_implicit_marker_round_trips():
    cid = ClassId.LINZ_ABC
    tr = LinzTransform(T=var("t"), X=P("x + x^3", cid), U0=ZERO)
    marker = invert(tr)
    text = format_transform(marker)
    assert "implicit = true" in text
    back = parse_transform(text)
    assert isinstance(back, ImplicitInverseOf)
    assert transforms_equal(back, marker)


# -- serialization ----------------------------------------------------------


@pytest.mark.parametrize("family", sorted(DRAWERS))
def test_transform_files_round_trip(family):
    rng = random.Random(31)
    for _ in range(5):
        tr = draw_transform(family, rng)
        back = parse_transform(format_transform(tr))
        assert type(back) is type(tr)
        assert transforms_equal(back, tr), format_transform(tr)


def test_affine_div_round_trip():
    ad = AffineDivTransform(
        c0=Fraction(1, 2), c1=Fraction(3), c2=Fraction(-1), c3=Fraction(0),
        kappa=Fraction(2),
    )
    back = parse_transform(format_transform(ad))
    assert back == ad


def test_parse_transform_rejects_unknown_family():
    with pytest.raises(TransformError):
        parse_transform("family = NO_SUCH\n")


# -- composition across families --------------------------------------------


def test_mixed_composition_lifts_to_general():
    rng = random.Random(8)
    linz = draw_transform("LINZ", rng)
    gauged = draw_transform("GAUGED", rng)
    out = compose(gauged, linz)
    assert isinstance(out, GeneralTransform)
    # same action on a superclass member
    inst = draw_instance(ClassId.SUPER, rng)
    direct = apply_transform(out, inst)
    lifted = apply_transform(compose(to_general(gauged), to_general(linz)), inst)
    for name in ("F", "H1", "H0"):
        diff = direct.pullback[name] - lifted.pullback[name]
        assert is_zero(diff, inst.context()).verdict != "NONZERO", name


def test_projective_member_lifts_with_its_point_maps():
    # t -> t/(1 + t), x -> x/(1 + t), u -> (1 + t) u - x
    p = ProjectiveTuple(*map(Fraction, (1, 0, 1, 1, 1, 0, 0)))
    ctx = transform_context("GENERAL")
    want = [parse(w, ctx) for w in ("t/(1 + t)", "x/(1 + t)", "1 + t", "-x")]
    # composing with another family's member lifts p the same way
    for g in (to_general(p), compose(identity_linz(), p)):
        assert isinstance(g, GeneralTransform)
        for name, w in zip(("T", "X", "U1", "U0"), want):
            zr = is_zero(getattr(g, name) - w, ctx)
            assert zr.verdict == SYMBOLIC_ZERO, (name, format_expr(getattr(g, name)))


def test_affine_div_applies_and_lifts_as_its_div_member():
    ad = AffineDivTransform(
        c0=Fraction(1), c1=Fraction(2), c2=Fraction(1), c3=Fraction(0),
        kappa=Fraction(1, 2),
    )
    cid = ClassId.GBE_DIV_NONDEG
    inst = EquationInstance(cid, {"f": P("x^3 + 1", cid)})
    ctx = class_context(cid)
    got, want = apply_transform(ad, inst), apply_transform(ad.to_div(), inst)
    assert got.map.t == P("1 + 4*t", cid)
    pairs = [(getattr(got.map, c), getattr(want.map, c)) for c in "txu"]
    pairs.append((got.target.elements["f"], want.target.elements["f"]))
    for a, b in pairs:
        assert is_zero(a - b, ctx).verdict == SYMBOLIC_ZERO, format_expr(a)
    assert transforms_equal(to_general(ad), to_general(ad.to_div()))


def test_linear_only_composes_with_linear():
    rng = random.Random(9)
    lin = draw_linear(rng)
    linz = draw_transform("LINZ", rng)
    with pytest.raises(TransformError):
        compose(lin, linz)
    both = compose(lin, draw_linear(rng))
    assert isinstance(both, LinearTransform)


def test_linear_rejects_v0_that_is_not_a_pushed_solution():
    heat = heat_instance()
    tr = LinearTransform(T=var("t"), X=var("x"), V1=rat(1), V0=P("x^2", ClassId.LINEAR))
    with pytest.raises(TransformError, match="V0 is not a pushed solution"):
        apply_transform(tr, heat)


def test_linear_admits_v0_pushed_from_a_heat_solution():
    rng = random.Random(13)
    heat = heat_instance()
    for v in heat_catalog():
        tr = draw_linear(rng)
        tr = dataclasses.replace(tr, V0=tr.V1 * v)
        assert check_membership(apply_transform(tr, heat).target).verdict == "MEMBER"


def test_to_general_matches_family_application():
    rng = random.Random(21)
    tr = draw_transform("LINZ", rng)
    inst = draw_instance(ClassId.SUPER, rng)
    a = apply_transform(to_general(tr), inst)
    b = apply_transform(tr, EquationInstance(ClassId.LINZ_ABC, {
        "a": rat(1), "b": ZERO, "f": ZERO,
    }))
    # both routes produce closed maps with the same coordinate change
    assert is_zero(a.map.t - b.map.t).verdict == "SYMBOLIC_ZERO"
    assert is_zero(a.map.x - b.map.x).verdict == "SYMBOLIC_ZERO"


# -- groupoid laws for the families outside the seeded acceptance run -------


@pytest.mark.parametrize("family", ["LINEAR", "AFFINE_DIV"])
def test_side_family_groupoid_laws(family):
    rng = random.Random(77)
    ident = IDENTS[family]()
    for _ in range(10):
        if family == "AFFINE_DIV":
            tr = AffineDivTransform(
                c0=Fraction(rng.randint(-3, 3)),
                c1=Fraction(rng.choice((1, 2, 3))),
                c2=Fraction(rng.randint(-3, 3)),
                c3=Fraction(rng.randint(-3, 3)),
                kappa=Fraction(rng.choice((1, -1, 2))),
            )
        else:
            tr = draw_linear(rng)
        assert transforms_equal(compose(tr, ident), tr)
        assert transforms_equal(compose(ident, tr), tr)
        inv = invert(tr)
        assert not isinstance(inv, ImplicitInverseOf)
        assert transforms_equal(compose(inv, tr), ident)


# -- the paper's family formulas as oracles ---------------------------------
#
# Each narrow family's pullback written out in closed form, as the paper
# states it; apply must agree with it exactly, on seeded draws and on
# members whose elements are opaque symbols.


def _d(e, v, ctx):
    return differentiate(e, v, ctx)


def linz_formula(tr, el, ctx):
    """u -> u / X_x + U0 on LINZ_ABC, with W = X_x U0."""
    a, b, f = el["a"], el["b"], el["f"]
    T_t = _d(tr.T, "t", ctx)
    X_t, X_x = _d(tr.X, "t", ctx), _d(tr.X, "x", ctx)
    X_xx = _d(X_x, "x", ctx)
    a_x = _d(a, "x", ctx)
    W = X_x * tr.U0
    W_t, W_x = _d(W, "t", ctx), _d(W, "x", ctx)
    W_xx = _d(W_x, "x", ctx)
    return {
        "a": div(X_x * X_x * a, T_t),
        "b": div(X_x * b + X_xx * a - X_x * X_x * tr.U0 * a + X_t, T_t),
        "f": div(
            div(f, T_t)
            - div(_d(W * b, "x", ctx), T_t)
            + div((W * W - rat(2) * W_x) * a_x, rat(2) * T_t)
            + div((W * W_x - W_xx) * a, T_t)
            - div(W_t, T_t),
            X_x,
        ),
    }


def gauged_formula(tr, el, ctx):
    """x -> eps (sqrt(T_t) x + X0), u -> eps (u / sqrt(T_t) + U0) on LINZ_BF."""
    b, f, U0 = el["b"], el["f"], tr.U0
    eps = rat(tr.eps)
    T_t = _d(tr.T, "t", ctx)
    T_tt = _d(T_t, "t", ctx)
    rootT = sqrt(T_t)
    U0_t, U0_x = _d(U0, "t", ctx), _d(U0, "x", ctx)
    return {
        "b": eps * (
            div(b, rootT)
            + div(T_tt, rat(2) * T_t * rootT) * var("x")
            + div(_d(tr.X0, "t", ctx), T_t)
            - U0
        ),
        "f": eps * (
            div(f, T_t * rootT)
            - div(_d(U0 * b, "x", ctx), T_t)
            + div(U0 * U0_x, rootT)
            - div(U0_t, T_t)
            - div(_d(U0_x, "x", ctx), T_t)
            - div(T_tt * U0, rat(2) * T_t * T_t)
        ),
    }


def reduced_formula(tr, el, ctx):
    """The GAUGED map whose U0 sends b = 0 to b = 0, on LINZ_F."""
    T_t = _d(tr.T, "t", ctx)
    T_tt = _d(T_t, "t", ctx)
    T_ttt = _d(T_tt, "t", ctx)
    X0_t = _d(tr.X0, "t", ctx)
    X0_tt = _d(X0_t, "t", ctx)
    return {
        "f": rat(tr.eps) * (
            div(el["f"], pow_(T_t, Fraction(3, 2)))
            + div(
                rat(3) * T_tt * T_tt - rat(2) * T_t * T_ttt,
                rat(4) * pow_(T_t, Fraction(7, 2)),
            )
            * var("x")
            + div(X0_t * T_tt - X0_tt * T_t, pow_(T_t, Fraction(3)))
        )
    }


def div_formula(tr, el, ctx):
    """x -> kappa |T_t|^(1/2) x + X0 on GBE_DIV."""
    return {"f": rat(tr.kappa * tr.kappa * tr.sign_Tt) * el["f"]}


FAMILY_FORMULAS = {
    "LINZ": linz_formula,
    "GAUGED": gauged_formula,
    "REDUCED": reduced_formula,
    "DIV": div_formula,
}

ORACLE_DRAWS = 6


def opaque_members(cid):
    """Opaque b and f with a = 1, as in acceptance 2, then with opaque a too."""
    ctx = class_context(cid)
    el = {k: ctx.fn(k) for k in CLASS_SPECS[cid].elements}
    if "a" not in el:
        return [EquationInstance(cid, el)]
    return [EquationInstance(cid, {**el, "a": rat(1)}), EquationInstance(cid, el)]


def oracle_cases(family):
    """(transform, member) pairs: seeded draws, then opaque members."""
    rng = random.Random(500 + sorted(FAMILY_FORMULAS).index(family))
    cid = INSTANCE_CLASS[family]
    cases = [
        (draw_transform(family, rng), draw_instance(cid, rng))
        for _ in range(ORACLE_DRAWS)
    ]
    for member in opaque_members(cid):
        cases += [(draw_transform(family, rng), member) for _ in range(2)]
    return cases


def _oracle_context(inst):
    ctx = class_context(inst.class_id)
    for name in CLASS_SPECS[inst.class_id].nonvanishing:
        ctx.assume_nonzero(ctx.fn(name))
    return ctx


@pytest.mark.parametrize("family", sorted(FAMILY_FORMULAS))
def test_apply_matches_family_formula(family):
    for i, (tr, inst) in enumerate(oracle_cases(family)):
        ctx = _oracle_context(inst)
        want = FAMILY_FORMULAS[family](tr, inst.elements, ctx)
        got = apply_transform(tr, inst).pullback
        assert set(got) == set(want)
        for name in want:
            zr = is_zero(got[name] - want[name], ctx)
            assert zr.verdict == SYMBOLIC_ZERO, (i, name, format_expr(zr.residual))


@pytest.mark.parametrize("family", sorted(FAMILY_FORMULAS))
def test_restriction_inverts_embed(family):
    """The narrow target, embedded in SUPER, is the general target.

    This is where the elements the restriction drops are checked to
    vanish: F = 1 for LINZ_BF and LINZ_F, b = 0 for LINZ_F, the
    u-coefficient of H1 equal to F for a LINZ target, and H0 = 0 for
    GBE_DIV.
    """
    for i, (tr, inst) in enumerate(oracle_cases(family)):
        ctx = _oracle_context(inst)
        narrow = apply_transform(tr, inst).target
        wide = apply_transform(to_general(tr), embed(inst, ClassId.SUPER)).target
        assert narrow is not None and wide is not None
        lifted = embed(narrow, ClassId.SUPER)
        for name in ("F", "H1", "H0"):
            zr = is_zero(lifted.elements[name] - wide.elements[name], ctx)
            assert zr.verdict == SYMBOLIC_ZERO, (i, name, format_expr(zr.residual))


# LINEAR reads a, b, c and its V0 constraint off the general pullback.
# Here both are written out in closed form: a, b, c free of V0, and the
# target residual of the pushed V0 formed without inverting the map.


def linear_formula(tr, el, ctx):
    """v -> V1 v + V0 on LINEAR."""
    a, b, c = el["a"], el["b"], el["c"]
    V1 = tr.V1
    T_t = _d(tr.T, "t", ctx)
    X_t, X_x = _d(tr.X, "t", ctx), _d(tr.X, "x", ctx)
    V1_t, V1_x = _d(V1, "t", ctx), _d(V1, "x", ctx)
    V1_xx = _d(V1_x, "x", ctx)
    return {
        "a": div(X_x * X_x * a, T_t),
        "b": div(
            X_x * b + _d(X_x, "x", ctx) * a - rat(2) * X_x * div(V1_x, V1) * a
            + X_t,
            T_t,
        ),
        "c": div(
            c
            - div(V1_x, V1) * b
            + div(rat(2) * V1_x * V1_x - V1 * V1_xx, V1 * V1) * a
            - div(V1_t, V1),
            T_t,
        ),
    }


def linear_residual_formula(tr, coeffs, ctx):
    """Target residual of psi, the function with V0 = psi o (T, X).

    psi_x~ o map = V0_x / X_x and
    psi_t~ o map = (V0_t - (X_t / X_x) V0_x) / T_t.
    """
    T_t = _d(tr.T, "t", ctx)
    X_t, X_x = _d(tr.X, "t", ctx), _d(tr.X, "x", ctx)
    phi = tr.V0
    phi_t, phi_x = _d(phi, "t", ctx), _d(phi, "x", ctx)
    psi_x = div(phi_x, X_x)
    psi_xx = div(_d(psi_x, "x", ctx), X_x)
    psi_t = div(phi_t - div(X_t, X_x) * phi_x, T_t)
    return psi_t + coeffs["a"] * psi_xx + coeffs["b"] * psi_x + coeffs["c"] * phi


def linear_oracle_cases():
    """Seeded draws on three members, every other one with V1 scaled by
    1 + x^2, each with V0 = 0, a pushed heat solution V1 v, and x^2."""
    rng = random.Random(600)
    cid = ClassId.LINEAR
    members = [
        heat_instance(),
        EquationInstance(cid, {"a": rat(2), "b": var("x"), "c": var("t")}),
        opaque_members(cid)[-1],
    ]
    cases = []
    for inst in members:
        for k in range(4):
            tr = draw_linear(rng)
            if k % 2:
                tr = dataclasses.replace(tr, V1=tr.V1 * P("1 + x^2", cid))
            v = rng.choice(heat_catalog())
            for V0 in (ZERO, tr.V1 * v, P("x^2", cid)):
                cases.append((dataclasses.replace(tr, V0=V0), inst))
    return cases


def _linear_read(tr, inst, ctx):
    sup = embed(inst, ClassId.SUPER)
    return _general_pullback(to_general(tr), sup, ClassId.LINEAR, ctx)


def test_linear_pullback_and_constraint_match_closed_forms():
    for i, (tr, inst) in enumerate(linear_oracle_cases()):
        ctx = _merged_context(inst, "LINEAR")
        want = linear_formula(tr, inst.elements, ctx)
        routes = [_linear_read(tr, inst, ctx)]
        if tr.V0 == ZERO:
            # always admissible, so apply runs and must agree too
            routes.append(apply_transform(tr, inst).pullback)
        for got in routes:
            assert set(got) == set(want)
            for name in want:
                zr = is_zero(got[name] - want[name], ctx)
                assert zr.verdict == SYMBOLIC_ZERO, (i, name, format_expr(zr.residual))
        # the constraint is minus the target residual of the pushed V0
        old = linear_residual_formula(tr, want, ctx)
        zr = is_zero(constraint(tr, inst) + old, ctx)
        assert zr.verdict == SYMBOLIC_ZERO, (i, "constraint", format_expr(zr.residual))


def test_linear_c_is_free_of_v0():
    rng = random.Random(601)
    inst = opaque_members(ClassId.LINEAR)[-1]
    ctx = _merged_context(inst, "LINEAR")
    tr = dataclasses.replace(draw_linear(rng), V0=ctx.fn("V0"))
    assert not contains_func(_linear_read(tr, inst, ctx)["c"], "V0")
    assert contains_func(constraint(tr, inst), "V0")


# -- compose and invert in closed form, as oracles --------------------------
#
# GAUGED, REDUCED and DIV compose and invert by restricting from their
# GENERAL lifts.  Here the same operations are written out in each
# family's own parameters; every parameter must agree symbolically,
# except the roots a Mobius T leaves in an inverse (see below).


def _at(e, T, ctx, X=None):
    return substitute(e, {"t": T} if X is None else {"t": T, "x": X}, ctx)


def gauged_compose(second, first, ctx):
    T1, e1 = first.T, rat(first.eps)
    root = sqrt(_at(_d(second.T, "t", ctx), T1, ctx))
    X1 = e1 * (sqrt(_d(T1, "t", ctx)) * var("x") + first.X0)
    return GaugedTransform(
        T=_at(second.T, T1, ctx),
        X0=root * first.X0 + e1 * _at(second.X0, T1, ctx),
        U0=div(first.U0, root) + e1 * _at(second.U0, T1, ctx, X1),
        eps=first.eps * second.eps,
    )


def gauged_invert(tr, ctx):
    eps = rat(tr.eps)
    X = eps * (sqrt(_d(tr.T, "t", ctx)) * var("x") + tr.X0)
    S, xi = closed_inverse(tr.T, X, ctx)
    root_S = sqrt(_d(S, "t", ctx))
    return GaugedTransform(
        T=S,
        X0=-eps * _at(tr.X0, S, ctx) * root_S,
        U0=-eps * div(_at(tr.U0, S, ctx, xi), root_S),
        eps=tr.eps,
    )


def reduced_compose(second, first, ctx):
    g = gauged_compose(to_gauged(second), to_gauged(first), ctx)
    return ReducedTransform(T=g.T, X0=g.X0, eps=g.eps)


def reduced_invert(tr, ctx):
    g = gauged_invert(to_gauged(tr), ctx)
    return ReducedTransform(T=g.T, X0=g.X0, eps=g.eps)


def div_compose(second, first, ctx):
    T1 = first.T
    root = sqrt(app("abs", _at(_d(second.T, "t", ctx), T1, ctx)))
    return DivTransform(
        T=_at(second.T, T1, ctx),
        X0=rat(second.kappa) * root * first.X0 + _at(second.X0, T1, ctx),
        kappa=first.kappa * second.kappa,
        sign_Tt=first.sign_Tt * second.sign_Tt,
    )


def div_invert(tr, ctx):
    k = rat(tr.kappa)
    X = k * sqrt(app("abs", _d(tr.T, "t", ctx))) * var("x") + tr.X0
    S, xi = closed_inverse(tr.T, X, ctx)
    root_S = sqrt(app("abs", _d(S, "t", ctx)))
    return DivTransform(
        T=S,
        X0=-div(_at(tr.X0, S, ctx) * root_S, k),
        kappa=1 / tr.kappa,
        sign_Tt=tr.sign_Tt,
    )


GROUPOID_FORMULAS = {
    "GAUGED": (gauged_compose, gauged_invert),
    "REDUCED": (reduced_compose, reduced_invert),
    "DIV": (div_compose, div_invert),
}

# Mobius time maps by the sign of T_t: 5/(t + 3)^2 and -1/(t + 1)^2
MOBIUS_T = {1: "(2*t + 1)/(t + 3)", -1: "1/(t + 1)"}


def _with_time(tr, T, sign):
    """tr with time map T, whose T_t has the given sign."""
    if isinstance(tr, DivTransform):
        return dataclasses.replace(tr, T=T, sign_Tt=sign)
    return dataclasses.replace(tr, T=T, eps=Fraction(-1))


def groupoid_oracle_cases(family):
    """(second, first) pairs: seeded draws, then first with a Mobius T,
    then first with an opaque T, each with eps = -1 or sign_Tt = -1."""
    rng = random.Random(700 + sorted(GROUPOID_FORMULAS).index(family))
    sign = -1 if family == "DIV" else 1
    ctx = transform_context(family, sign)
    times = [parse(MOBIUS_T[sign], ctx), ctx.fn("T")]
    cases = []
    for i in range(3 * ORACLE_DRAWS):
        second, first = draw_transform(family, rng), draw_transform(family, rng)
        if i % 3:
            first = _with_time(first, times[i % 3 - 1], sign)
        cases.append((second, first))
    return cases


def _assert_same(got, want, ctx, where, verdicts=(SYMBOLIC_ZERO,)):
    assert type(got) is type(want), where
    for name in want.param_names:
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(b, (Fraction, int)):
            assert Fraction(a) == Fraction(b), (where, name)
            continue
        zr = is_zero(a - b, ctx)
        ok = zr.verdict in (SYMBOLIC_ZERO if name == "T" else verdicts)
        assert ok, (where, name, zr.verdict, format_expr(zr.residual))


@pytest.mark.parametrize("family", sorted(GROUPOID_FORMULAS))
def test_compose_matches_family_formula(family):
    compose_formula, _ = GROUPOID_FORMULAS[family]
    for i, (second, first) in enumerate(groupoid_oracle_cases(family)):
        ctx = transform_context(family, getattr(first, "sign_Tt", 1))
        want = compose_formula(second, first, ctx)
        _assert_same(compose(second, first), want, ctx, i)


@pytest.mark.parametrize("family", sorted(GROUPOID_FORMULAS))
def test_invert_matches_family_formula(family):
    _, invert_formula = GROUPOID_FORMULAS[family]
    for i, (_, tr) in enumerate(groupoid_oracle_cases(family)):
        ctx = transform_context(family, getattr(tr, "sign_Tt", 1))
        got = invert(tr)
        if i % 3 == 2:
            # an opaque T has no closed-form inverse on either route
            assert isinstance(got, ImplicitInverseOf) and got.of == tr
            continue
        # For a Mobius T the formula takes the root of S_t and the
        # restriction the root of 1/T_t(S).  Roots of sums are atoms
        # to the normal form, so only sampling sees that they agree.
        verdicts = (SYMBOLIC_ZERO, NUMERIC_ZERO) if i % 3 else (SYMBOLIC_ZERO,)
        _assert_same(got, invert_formula(tr, ctx), ctx, i, verdicts)


# AFFINE_DIV composes and inverts as its DIV member.  Here both are
# written out on its exact constants, with c1 > 0 canonical.


def affine_div_compose(second, first):
    k1, k2 = first.kappa, second.kappa
    c11, c12 = first.c1, second.c1
    c1 = abs(c11 * c12)
    return AffineDivTransform(
        c0=c12 * c12 * first.c0 + second.c0,
        c1=c1,
        c2=k2 * c12 * first.c2 + second.c2 * c11 * c11,
        c3=k2 * c12 * first.c3 + second.c2 * first.c0 + second.c3,
        kappa=k1 * k2 * c11 * c12 / c1,
    )


def affine_div_invert(tr):
    k, c0, c1, c2, c3 = tr.kappa, tr.c0, tr.c1, tr.c2, tr.c3
    return AffineDivTransform(
        c0=-c0 / (c1 * c1),
        c1=1 / c1,
        c2=-c2 / (k * c1 * c1 * c1),
        c3=(c2 * c0 - c3 * c1 * c1) / (k * c1 * c1 * c1),
        kappa=1 / k,
    )


def test_affine_div_compose_and_invert_match_closed_forms():
    rng = random.Random(710)

    def number(nonzero=False):
        n = rng.randint(1, 5) * rng.choice((1, -1)) if nonzero else rng.randint(-5, 5)
        return Fraction(n, rng.randint(1, 4))

    def draw():
        # c1 and kappa of either sign: (c1, kappa) < 0 names (-c1, -kappa)
        return AffineDivTransform(
            c0=number(), c1=number(True), c2=number(), c3=number(),
            kappa=number(True),
        )

    for i in range(200):
        second, first = draw(), draw()
        pairs = (
            (compose(second, first), affine_div_compose(second, first)),
            (invert(first), affine_div_invert(first)),
        )
        for got, want in pairs:
            assert got == want, (i, got, want)
            assert got.c1 > 0
            assert all(type(getattr(got, n)) is Fraction for n in got.param_names)


def test_transforms_equal_distinguishes():
    a = identity_linz()
    b = LinzTransform(T=var("t"), X=var("x"), U0=rat(1))
    assert not transforms_equal(a, b)
    assert not transforms_equal(a, identity_reduced())
    assert transforms_equal(a, identity_linz())


def test_context_builders_hand_out_fresh_copies():
    """Each call builds from a cached template; a caller's changes stay its own."""
    inst = EquationInstance(ClassId.LINZ_F, {"f": ZERO})
    builders = (
        lambda: class_context(ClassId.LINZ_F),
        lambda: transform_context("DIV", -1),
        lambda: _merged_context(inst, "REDUCED"),
    )
    for build in builders:
        ctx = build()
        before = (
            dict(ctx.variables),
            dict(ctx.functions),
            {k: set(v) for k, v in ctx.assumptions.items()},
        )
        ctx.add_var("y")
        ctx.add_function("g", ("t", "x"))
        ctx.assume_name("g", "positive")
        for flags in ctx.assumptions.values():
            flags.add("nonzero")
        again = build()
        assert (again.variables, again.functions, again.assumptions) == before


# -- the lift, coordinates and inverse kept per transform --------------------

# acceptance 1's seed per family: its draws, in its order
ACCEPTANCE_SEEDS = {
    "GENERAL": 100, "GAUGED": 101, "REDUCED": 102,
    "PROJECTIVE": 103, "LINZ": 104, "DIV": 105,
}


def _acceptance_draws(family, n):
    """acceptance 1's first n (f, g, member) draws of family."""
    rng = random.Random(ACCEPTANCE_SEEDS[family])
    for _ in range(n):
        f, g = draw_transform(family, rng), draw_transform(family, rng)
        yield f, g, draw_instance(INSTANCE_CLASS[family], rng)


def _groupoid_law_item(family, f, g, inst):
    """One item of acceptance 1: identities, associativity and inverse."""
    ctx = class_context(inst.class_id)
    ident = IDENTS[family]()
    assert transforms_equal(compose(f, ident), f, ctx)
    assert transforms_equal(compose(ident, f), f, ctx)
    r1 = apply_transform(compose(g, f), inst)
    step = apply_transform(f, inst)
    r2 = apply_transform(g, step.target)
    back = {"t": step.map.t, "x": step.map.x, inst.dependent: step.map.u}
    for name in r1.pullback:
        assert is_zero(r1.pullback[name] - substitute(r2.pullback[name], back, ctx), ctx)
    assert transforms_equal(compose(invert(f), f), ident, ctx)


@pytest.fixture
def builds(monkeypatch):
    """How often each transform object's lift and inverse are built.

    Keyed by (build function, id); the objects are held, so no id is
    reused.
    """
    counts = Counter()
    held = []

    def counting(name):
        build = getattr(transforms, name)

        def counted(tr):
            held.append(tr)
            counts[name, id(tr)] += 1
            return build(tr)

        monkeypatch.setattr(transforms, name, counted)

    counting("_lift")
    counting("_closed_inverse_of")
    return counts


@pytest.mark.parametrize("family", GROUPOID_FAMILIES)
def test_a_groupoid_law_item_lifts_and_inverts_each_transform_once(family, builds):
    f, g, inst = next(_acceptance_draws(family, 1))
    _groupoid_law_item(family, f, g, inst)
    assert any(name == "_closed_inverse_of" for name, _ in builds)
    if family not in ("GENERAL", "PROJECTIVE"):
        assert any(name == "_lift" for name, _ in builds)
    assert max(builds.values()) == 1


@pytest.mark.parametrize("family", GROUPOID_FAMILIES)
def test_the_target_and_invert_share_one_closed_inverse(family, monkeypatch):
    calls = []
    real = transforms.closed_inverse

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(transforms, "closed_inverse", counting)
    f, g, inst = next(_acceptance_draws(family, 1))
    assert apply_transform(f, inst).target is not None
    assert not isinstance(invert(f), ImplicitInverseOf)
    assert len(calls) == 1


def test_affine_div_applies_and_inverts_as_one_div_member(monkeypatch):
    calls = []
    real = transforms.closed_inverse

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(transforms, "closed_inverse", counting)
    tr = AffineDivTransform(
        c0=Fraction(1), c1=Fraction(2), c2=Fraction(1, 2), c3=Fraction(0)
    )
    inst = EquationInstance(ClassId.GBE_DIV, {"f": rat(1)})
    assert apply_transform(tr, inst).target is not None
    assert isinstance(invert(tr), AffineDivTransform)
    assert len(calls) == 1
    assert tr.to_div() is tr.to_div()
    assert to_general(tr) is to_general(tr.to_div())


def _printed_ops(f, g, inst, target_first):
    """invert(f), compose(g, f) and f's apply target and inverse, as text."""
    out = {}
    order = ("target", "invert") if target_first else ("invert", "target")
    for op in order + ("compose",):
        if op == "invert":
            out[op] = format_transform(invert(f))
        elif op == "compose":
            out[op] = format_transform(compose(g, f))
        else:
            res = apply_transform(f, inst)
            out[op] = (
                {k: format_expr(v) for k, v in res.target.elements.items()},
                res.inverse.describe(),
                res.note,
            )
    return out


@pytest.mark.parametrize("target_first", [False, True], ids=["invert-first", "target-first"])
@pytest.mark.parametrize("family", GROUPOID_FAMILIES)
def test_kept_values_match_fresh_copies(family, target_first):
    for i, (f, g, inst) in enumerate(_acceptance_draws(family, 20)):
        built = _printed_ops(f, g, inst, target_first)
        # f and g are warm now; a dataclasses.replace copy keeps nothing
        fresh_f, fresh_g = dataclasses.replace(f), dataclasses.replace(g)
        assert "_inverse" in f.__dict__ and "_inverse" not in fresh_f.__dict__
        # kept values are not fields: eq, hash and repr do not see them
        assert (f, hash(f), repr(f)) == (fresh_f, hash(fresh_f), repr(fresh_f))
        warm = _printed_ops(f, g, inst, target_first)
        fresh = _printed_ops(fresh_f, fresh_g, inst, target_first)
        assert built == warm == fresh, (family, i)
