"""Transformation families: applications, group laws, gauges, inverses."""

import random
from fractions import Fraction

import pytest

from gbeq.classes import (
    CLASS_SPECS,
    ClassId,
    EquationInstance,
    check_membership,
    class_context,
    embed,
)
from gbeq.expr import (
    SYMBOLIC_ZERO,
    ZERO,
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
    apply_bf,
    apply_div,
    apply_f,
    apply_general,
    apply_linz,
    apply_transform,
    closed_inverse,
    compose,
    div_constraint,
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
    to_general,
    transforms_equal,
)

from conftest import (
    DRAWERS,
    INSTANCE_CLASS,
    draw_instance,
    draw_linear,
    draw_transform,
)

IDENTS = {
    "GENERAL": identity_general,
    "LINZ": identity_linz,
    "REDUCED": identity_reduced,
    "PROJECTIVE": identity_projective,
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
    res = apply_f(tr, inst)
    assert res.closed_form_target
    assert format_expr(res.target.elements["f"]) == "-1/8"
    assert res.map.describe() == {"t": "1 + 4*t", "x": "t^2 + 2*x", "u": "t/2 + u/2"}
    # the image stays in the class
    assert check_membership(res.target).verdict == "MEMBER"


def test_gauged_application_reaches_reduced_form():
    cid = ClassId.LINZ_BF
    inst = EquationInstance(cid, {"b": P("x", cid), "f": ZERO})
    tr = GaugedTransform(T=var("t"), X0=ZERO, U0=P("x", cid), eps=Fraction(1))
    res = apply_bf(tr, inst)
    assert res.closed_form_target
    assert is_zero(res.target.elements["b"]).verdict != "NONZERO"


def test_linz_application_keeps_class():
    cid = ClassId.LINZ_ABC
    inst = EquationInstance(
        cid, {"a": rat(1), "b": P("x", cid), "f": P("t", cid)}
    )
    tr = LinzTransform(T=P("2*t", cid), X=P("x + t", cid), U0=P("x", cid))
    res = apply_linz(tr, inst)
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
    a, b, g, d = mobius_product(p2, p1)
    # composition scales to canonical form; compare cross-ratios
    assert c.alpha * d == c.delta * a
    assert c.beta * g == c.gamma * b
    assert c.alpha * b == c.beta * a


def test_projective_scale_equivalence():
    base = (2, 1, 0, 1, 1, 1, 0)
    q1 = ProjectiveTuple(*map(Fraction, base))
    q2 = ProjectiveTuple(*(Fraction(2 * v) for v in base))
    assert q1.close_to(q2)
    assert q1.canonical() == q2.canonical()


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
        apply_div(bad, inst)
    assert is_zero(div_constraint(bad, inst)).verdict == "NONZERO"


def test_div_affine_time_accepted():
    cid = ClassId.GBE_DIV_NONDEG
    inst = EquationInstance(cid, {"f": P("x^3 + 1", cid)})
    tr = DivTransform(T=P("3*t + 1", cid), X0=P("t", cid), kappa=Fraction(2))
    assert is_zero(div_constraint(tr, inst)).verdict == "SYMBOLIC_ZERO"
    res = apply_div(tr, inst)
    assert res.closed_form_target
    assert check_membership(res.target).verdict == "MEMBER"


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


def test_linear_only_composes_with_linear():
    rng = random.Random(9)
    lin = draw_linear(rng)
    linz = draw_transform("LINZ", rng)
    with pytest.raises(TransformError):
        compose(lin, linz)
    both = compose(lin, draw_linear(rng))
    assert isinstance(both, LinearTransform)


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
        wide = apply_general(to_general(tr), embed(inst, ClassId.SUPER)).target
        assert narrow is not None and wide is not None
        lifted = embed(narrow, ClassId.SUPER)
        for name in ("F", "H1", "H0"):
            zr = is_zero(lifted.elements[name] - wide.elements[name], ctx)
            assert zr.verdict == SYMBOLIC_ZERO, (i, name, format_expr(zr.residual))


def test_transforms_equal_distinguishes():
    a = identity_linz()
    b = LinzTransform(T=var("t"), X=var("x"), U0=rat(1))
    assert not transforms_equal(a, b)
    assert not transforms_equal(a, identity_reduced())
    assert transforms_equal(a, identity_linz())
