"""Acceptance run: the seven headline guarantees, one test apiece.

Each test feeds a PASS/FAIL line into the summary section that conftest
prints after the run.  The groupoid sweep dominates the wall clock and
asserts its own two-minute ceiling; everything else is a few seconds.
"""

from __future__ import annotations

import collections
import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from conftest import (
    GROUPOID_FAMILIES,
    INSTANCE_CLASS,
    draw_gauged,
    draw_instance,
    draw_reduced,
    draw_transform,
)
from gbeq.classes import (
    ClassId,
    EquationInstance,
    check_membership,
    class_context,
)
from gbeq.degdiv import DegDivSolution, solve_deg_div
from gbeq.expr import (
    NUMERIC_ZERO,
    ONE,
    SYMBOLIC_ZERO,
    ZERO,
    Context,
    EvalError,
    differentiate,
    div,
    evaluate,
    exp,
    format_expr,
    is_zero,
    ln,
    parse,
    pow_,
    rat,
    simplify,
    sqrt,
    substitute,
    var,
)
from gbeq.hopfcole import (
    HopfColeObstruction,
    cole_hopf_solution,
    heat_catalog,
    lift_transform,
    verify_diagram,
)
from gbeq.report import MEMBER
from gbeq.symmetry import (
    bracket,
    burgers_algebra,
    flow,
    flow_generator_check,
    is_symmetry,
    reflection,
    solution_catalog,
    structure_constants,
)
from gbeq.transforms import (
    DivTransform,
    GaugedTransform,
    ImplicitInverseOf,
    LinearTransform,
    LinzTransform,
    TransformError,
    apply_transform,
    compose,
    constraint,
    gauge_a_to_one,
    identity_div,
    identity_gauged,
    identity_general,
    identity_linz,
    identity_projective,
    identity_reduced,
    invert,
    transforms_equal,
)
from gbeq.verify import residual

ZEROS = (SYMBOLIC_ZERO, NUMERIC_ZERO)


def _ctx_tx() -> Context:
    c = Context()
    c.add_var("t")
    c.add_var("x")
    return c


# ---------------------------------------------------------------------------
# 1. groupoid laws


GROUPOID_SEEDS = {
    "GENERAL": 100,
    "GAUGED": 101,
    "REDUCED": 102,
    "PROJECTIVE": 103,
    "LINZ": 104,
    "DIV": 105,
}

IDENTITIES = {
    "GENERAL": identity_general,
    "LINZ": identity_linz,
    "GAUGED": identity_gauged,
    "REDUCED": identity_reduced,
    "PROJECTIVE": identity_projective,
    "DIV": identity_div,
}

DRAWS_PER_FAMILY = 100


@pytest.mark.acceptance(num=1, title="groupoid laws, 6 families x 100 seeded draws")
def test_groupoid_laws_all_families(acceptance_detail):
    t0 = time.monotonic()
    failures = []
    family_s = {}
    verdicts = collections.Counter()
    for fam in GROUPOID_FAMILIES:
        fam_t0 = time.monotonic()
        rng = random.Random(GROUPOID_SEEDS[fam])
        for i in range(DRAWS_PER_FAMILY):
            f = draw_transform(fam, rng)
            g = draw_transform(fam, rng)
            inst = draw_instance(INSTANCE_CLASS[fam], rng)
            ctx = class_context(inst.class_id)
            ident = IDENTITIES[fam]()

            if not transforms_equal(compose(f, ident), f, ctx):
                failures.append((fam, i, "right identity"))
            if not transforms_equal(compose(ident, f), f, ctx):
                failures.append((fam, i, "left identity"))

            # associativity of application, compared in source coordinates
            r1 = apply_transform(compose(g, f), inst)
            step = apply_transform(f, inst)
            r2 = apply_transform(g, step.target)
            back = {"t": step.map.t, "x": step.map.x, inst.dependent: step.map.u}
            for name in sorted(r1.pullback):
                pulled = substitute(r2.pullback[name], back, ctx)
                z = is_zero(r1.pullback[name] - pulled, ctx)
                verdicts[z.verdict] += 1
                if not z:
                    failures.append((fam, i, "associativity", name, z.verdict))

            finv = invert(f)
            if isinstance(finv, ImplicitInverseOf):
                failures.append((fam, i, "inverse is implicit"))
            elif not transforms_equal(compose(finv, f), ident, ctx):
                failures.append((fam, i, "inverse"))
        family_s[fam] = time.monotonic() - fam_t0
    elapsed = time.monotonic() - t0
    acceptance_detail(
        f"{len(GROUPOID_FAMILIES)} families x {DRAWS_PER_FAMILY} draws, "
        f"{len(failures)} failures, {elapsed:.1f}s; "
        + ", ".join(f"{fam} {sec:.1f}s" for fam, sec in family_s.items())
        + "; associativity "
        + ", ".join(f"{v} {n}" for v, n in sorted(verdicts.items()))
    )
    assert not failures, failures[:5]
    assert elapsed < 120.0, f"suite took {elapsed:.1f}s, budget is 120s"


# ---------------------------------------------------------------------------
# 2. gauge specializations of the family formulas


@pytest.mark.acceptance(
    num=2, title="a = 1 and b = 0 specializations collapse the family formulas"
)
def test_specializations_are_exact(acceptance_detail):
    rng = random.Random(7)
    n_draws = 8

    # a = 1 on both sides: the three-element family map whose x-image has
    # the constrained width eps sqrt(T') x + X0 must act exactly like the
    # (b, f) family map built from the same data, and must keep a at 1.
    ctx_abc = class_context(ClassId.LINZ_ABC)
    b_fn, f_fn = ctx_abc.fn("b"), ctx_abc.fn("f")
    inst_abc = EquationInstance(
        ClassId.LINZ_ABC, {"a": ONE, "b": b_fn, "f": f_fn}
    )
    inst_bf = EquationInstance(ClassId.LINZ_BF, {"b": b_fn, "f": f_fn})
    for _ in range(n_draws):
        g = draw_gauged(rng)
        T_t = differentiate(g.T, "t", ctx_abc)
        eps = rat(g.eps)
        wide = LinzTransform(
            T=g.T,
            X=eps * (sqrt(T_t) * var("x") + g.X0),
            U0=eps * g.U0,
        )
        res_wide = apply_transform(wide, inst_abc)
        res_bf = apply_transform(g, inst_bf)
        assert is_zero(res_wide.pullback["a"] - ONE, ctx_abc).verdict == SYMBOLIC_ZERO
        for name in ("b", "f"):
            diff = res_wide.pullback[name] - res_bf.pullback[name]
            assert is_zero(diff, ctx_abc).verdict == SYMBOLIC_ZERO, name
        for a, b in zip(
            (res_wide.map.t, res_wide.map.x, res_wide.map.u),
            (res_bf.map.t, res_bf.map.x, res_bf.map.u),
        ):
            assert is_zero(a - b, ctx_abc).verdict == SYMBOLIC_ZERO

    # b = 0 on both sides: pinning the free shift U0 of the (b, f) family
    # to the value the (f) family prescribes must send b to exactly 0 and
    # reproduce the (f) family's pullback.
    ctx_f = class_context(ClassId.LINZ_F)
    f_only = ctx_f.fn("f")
    inst_bf0 = EquationInstance(ClassId.LINZ_BF, {"b": ZERO, "f": f_only})
    inst_f = EquationInstance(ClassId.LINZ_F, {"f": f_only})
    for _ in range(n_draws):
        r = draw_reduced(rng)
        T_t = differentiate(r.T, "t", ctx_f)
        T_tt = differentiate(T_t, "t", ctx_f)
        pinned_u0 = div(T_tt, rat(2) * pow_(T_t, Fraction(3, 2))) * var("x") + div(
            differentiate(r.X0, "t", ctx_f), T_t
        )
        pinned = GaugedTransform(T=r.T, X0=r.X0, U0=pinned_u0, eps=r.eps)
        res_pinned = apply_transform(pinned, inst_bf0)
        res_f = apply_transform(r, inst_f)
        assert is_zero(res_pinned.pullback["b"], ctx_f).verdict == SYMBOLIC_ZERO
        diff = res_pinned.pullback["f"] - res_f.pullback["f"]
        assert is_zero(diff, ctx_f).verdict == SYMBOLIC_ZERO
        for a, b in zip(
            (res_pinned.map.t, res_pinned.map.x, res_pinned.map.u),
            (res_f.map.t, res_f.map.x, res_f.map.u),
        ):
            assert is_zero(a - b, ctx_f).verdict == SYMBOLIC_ZERO

    acceptance_detail(
        f"{n_draws} draws per direction, every component difference SYMBOLIC_ZERO"
    )


# ---------------------------------------------------------------------------
# 3. linearizing bridge


def _bridge_transforms():
    t, x = var("t"), var("x")
    one = ONE
    return [
        LinearTransform(T=t, X=x, V1=one, V0=ZERO),
        LinearTransform(
            T=rat(4) * t, X=rat(2) * x + t, V1=exp(div(x, rat(2))), V0=ZERO
        ),
        LinearTransform(T=t + rat(1), X=x + rat(1), V1=one, V0=ZERO),
        LinearTransform(T=t, X=x, V1=exp(x), V0=ZERO),
        LinearTransform(
            T=div(t, rat(1) + div(t, rat(4))),
            X=div(x, rat(1) + div(t, rat(4))),
            V1=one,
            V0=ZERO,
        ),
    ]


@pytest.mark.acceptance(
    num=3, title="linearizing bridge squares commute; V0 != 0 obstructed"
)
def test_bridge_squares(acceptance_detail):
    vs = heat_catalog()
    assert len(vs) >= 6
    transforms = _bridge_transforms()
    assert len(transforms) >= 5
    for idx, tr in enumerate(transforms):
        rep = verify_diagram(tr, solutions=vs)
        assert rep.ok, (idx, rep.summary)
        n_sol = 0
        for c in rep.conditions:
            if c.description.startswith("element face"):
                assert c.verdict == SYMBOLIC_ZERO, (idx, c.description, c.verdict)
            elif c.description.startswith("solution face"):
                n_sol += 1
                assert c.verdict in ZEROS, (idx, c.description, c.verdict)
        assert n_sol == len(vs)

    t, x = var("t"), var("x")
    obstructed = [
        LinearTransform(T=t, X=x, V1=ONE, V0=x),
        LinearTransform(
            T=rat(4) * t, X=rat(2) * x + t, V1=exp(div(x, rat(2))), V0=ONE
        ),
        LinearTransform(T=t, X=x, V1=exp(x), V0=exp(x)),
    ]
    for tr in obstructed:
        with pytest.raises(HopfColeObstruction):
            lift_transform(tr)

    acceptance_detail(
        f"{len(vs)} heat solutions x {len(transforms)} lifted maps, "
        f"{len(obstructed)} V0 != 0 maps obstructed"
    )


# ---------------------------------------------------------------------------
# 4. the five-field algebra and its flows


FROZEN_BRACKETS = {
    (1, 2): {1: 2},
    (1, 3): {2: 1},
    (1, 4): {},
    (1, 5): {4: 1},
    (2, 3): {3: 2},
    (2, 4): {4: -1},
    (2, 5): {5: 1},
    (3, 4): {5: -1},
    (3, 5): {},
    (4, 5): {},
}

FLOW_EPS = {
    1: Fraction(1, 2),
    2: ln(rat(2)),
    3: Fraction(1, 4),
    4: Fraction(1, 2),
    5: Fraction(1, 3),
}


@pytest.mark.acceptance(
    num=4, title="bracket table, Jacobi, flow and reflection transport"
)
def test_symmetry_algebra_suite(acceptance_detail):
    tab = structure_constants()
    assert tab.closed
    assert tab.failures == []
    for (i, j), want in FROZEN_BRACKETS.items():
        coeffs = tab.coefficients(i, j)
        got = {k + 1: c for k, c in enumerate(coeffs) if c != 0}
        assert got == {k: Fraction(v) for k, v in want.items()}, (i, j)

    fields = burgers_algebra()
    triples = list(itertools.combinations(range(5), 3))
    assert len(triples) == 10
    for i, j, k in triples:
        v, w, z = fields[i], fields[j], fields[k]
        cyclic = [
            bracket(v, bracket(w, z)),
            bracket(w, bracket(z, v)),
            bracket(z, bracket(v, w)),
        ]
        for comps in zip(*(f.components() for f in cyclic)):
            total = comps[0] + comps[1] + comps[2]
            assert is_zero(total).verdict == SYMBOLIC_ZERO, (i, j, k)

    n_sols = len(solution_catalog())
    assert n_sols >= 4
    movers = [flow(idx, FLOW_EPS[idx]) for idx in range(1, 6)]
    movers.append(reflection())
    for idx, p in enumerate(movers):
        rep = is_symmetry(p, tol=1e-9)
        assert rep.ok, (idx, rep.summary)
        transported = [
            c for c in rep.conditions if c.description.startswith("catalog entry")
        ]
        assert len(transported) == n_sols
        # the group constraint and every transported solution are proofs
        for c in rep.conditions:
            assert c.verdict == SYMBOLIC_ZERO, (idx, c.description, c.verdict)

    for idx in range(1, 6):
        rep = flow_generator_check(idx)
        assert rep.verdict == SYMBOLIC_ZERO, (idx, rep.summary)

    acceptance_detail(
        f"10 brackets exact, 10 Jacobi triples, 5 flows + reflection "
        f"transport {n_sols} solutions symbolically, 5 generator checks symbolic"
    )


# ---------------------------------------------------------------------------
# 5. divergence-form classification and the degenerate quadrature


CURVED_T = (
    "1 + t^2",
    "t + t^2",
    "t + t^3",
    "2*t + t^2/2",
    "exp(t)",
    "t + exp(t)",
    "1 + 3*t + t^2",
    "2*t + t^3/3",
    "t + t^2 + t^3",
    "t^2/2 + t^3/3",
)


@pytest.mark.acceptance(
    num=5, title="curved time rejected on cubic f; quadrature residuals small"
)
def test_div_classification_and_quadrature(acceptance_detail):
    ctx = _ctx_tx()
    inst = EquationInstance(ClassId.GBE_DIV, {"f": parse("1 + x^3", ctx)})
    rejected = 0
    for text in CURVED_T:
        tr = DivTransform(T=parse(text, ctx), X0=ZERO)
        with pytest.raises(TransformError, match="classifying constraint fails"):
            apply_transform(tr, inst)
        rejected += 1
    assert rejected == len(CURVED_T)

    rng = random.Random(55)
    accepted = 0
    for _ in range(10):
        tr = draw_transform("DIV", rng)
        z = is_zero(constraint(tr, inst), class_context(ClassId.GBE_DIV))
        assert z.verdict == SYMBOLIC_ZERO
        res = apply_transform(tr, inst)
        assert res.target is not None
        assert check_membership(res.target).verdict == MEMBER
        accepted += 1

    cases = [
        DegDivSolution(ZERO, ZERO),
        DegDivSolution(ZERO, ONE),
        DegDivSolution(
            var("t"), ZERO, constants=(0, 1, Fraction(-1, 2), 0, 0)
        ),
    ]
    worst = 0.0
    for sol in cases:
        quad = solve_deg_div(sol)
        r1, r2 = quad.ode_residuals()
        assert r1 <= 1e-6 and r2 <= 1e-6, (r1, r2)
        worst = max(worst, r1, r2)

    acceptance_detail(
        f"{rejected} curved maps rejected, {accepted} affine maps admitted, "
        f"3 quadratures with max ODE residual {worst:.2e}"
    )


# ---------------------------------------------------------------------------
# 6. classical solutions and the a-gauges


@pytest.mark.acceptance(num=6, title="classical solutions symbolic; a-gauges reach 1")
def test_classical_checks(acceptance_detail):
    burgers = EquationInstance(ClassId.BURGERS, {})
    ctx = class_context(ClassId.BURGERS)
    t, x = var("t"), var("x")
    kink = cole_hopf_solution(rat(1) + exp(x - t), ctx)
    for sol in (parse("2/x", ctx), kink, ZERO):
        rep = residual(burgers, sol)
        assert rep.verdict == SYMBOLIC_ZERO, format_expr(sol)

    gauged_values = (parse("4", ctx), parse("-1", ctx), exp(rat(2) * x))
    for a in gauged_values:
        inst = EquationInstance(
            ClassId.LINZ_ABC, {"a": a, "b": ZERO, "f": ZERO}
        )
        g = gauge_a_to_one(inst)
        assert g.report.verdict == SYMBOLIC_ZERO, format_expr(a)
        assert g.instance is not None

    acceptance_detail(
        "2/x, the kink, and 0 all SYMBOLIC_ZERO; a in {4, -1, exp(2x)} gauged to 1"
    )


# ---------------------------------------------------------------------------
# 7. engine health


_FD_H = 5e-4
_MACHINE_EPS = 2.2e-16


def _stencil(e, name, point, h):
    vals = []
    for k in (-2, -1, 1, 2):
        p = dict(point)
        p[name] = point[name] + k * h
        vals.append(evaluate(e, p))
    fd = (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12 * h)
    return fd, max(abs(v) for v in vals)


def _fd_relative_error(e, sym, name, rng):
    """The relative symbolic-vs-stencil error at a well-conditioned point.

    A point qualifies only when the stencil's predicted rounding noise
    is far below tolerance and halving the step leaves the stencil
    value in place, so a residual discrepancy indicts the derivative
    itself rather than the numerics.  Returns None when no sampled
    point qualifies (the caller then tries the other variable).
    """
    for _ in range(60):
        point = {"t": rng.uniform(0.2, 1.8), "x": rng.uniform(0.2, 1.8)}
        try:
            sym_val = evaluate(sym, point)
            fd1, big1 = _stencil(e, name, point, _FD_H)
            fd2, big2 = _stencil(e, name, point, _FD_H / 2)
        except (EvalError, OverflowError, ZeroDivisionError, ValueError):
            continue
        if not all(map(math.isfinite, (sym_val, fd1, fd2))):
            continue
        scale = max(1.0, abs(sym_val))
        noise = 18.0 * _MACHINE_EPS * max(big1, big2) / (6.0 * _FD_H)
        if noise > 1e-7 * scale:
            continue
        if abs(fd1 - fd2) > 1e-7 * scale:
            continue
        return abs(fd2 - sym_val) / scale
    return None


@pytest.mark.acceptance(num=7, title="engine health over 1000 random trees")
def test_engine_health(acceptance_detail):
    from conftest import random_tree

    ctx = _ctx_tx()
    rng = random.Random(2026)
    n_trees = 1000
    checked_fd = 0
    worst = 0.0
    for _ in range(n_trees):
        e = random_tree(rng)
        assert parse(format_expr(e), ctx) == e
        s = simplify(e, ctx)
        assert simplify(s, ctx) == s

        names = ["t", "x"]
        rng.shuffle(names)
        err = None
        for name in names:
            sym = differentiate(e, name, ctx)
            err = _fd_relative_error(e, sym, name, rng)
            if err is not None:
                break
        assert err is not None, f"no conditioned point for {format_expr(e)}"
        assert err <= 1e-6, (format_expr(e), name, err)
        worst = max(worst, err)
        checked_fd += 1

    assert checked_fd == n_trees
    acceptance_detail(
        f"{n_trees} trees round-trip, simplify idempotent, "
        f"worst relative derivative error {worst:.2e}"
    )
