"""The logarithmic-derivative bridge between LINEAR and LINZ_ABC.

u = 2 v_x / v turns solutions of

    v_t + a v_xx + b v_x + c v = 0

into solutions of the LINZ_ABC member with the same a and b and source
f = 2 c_x.  The bridge also carries transformations across: a LINEAR
family map with V0 = 0 lifts to the LINZ family map with the same
(T, X) and U0 = 2 V1_x / (X_x V1).  A nonzero V0 breaks the lift (an
additive shift of v has no point-map counterpart on u), which callers
see as an OBSTRUCTION.

verify_diagram checks both faces of the square for a concrete LINEAR
member and family map: that the two routes to the transformed LINZ_ABC
elements agree, and that pushing a solution forward commutes with
taking logarithmic derivatives.  hopf_cole_report grades one solution
v across the bridge, with the square of a family map when one is given.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .classes import (
    ClassId,
    EquationInstance,
    class_context,
    linearizable_from_linear,
)
from .expr import (
    Context,
    Expr,
    ZERO,
    differentiate,
    div,
    exp,
    format_expr,
    is_zero,
    rat,
    simplify,
    var,
)
from .report import (
    ConditionReport,
    OBSTRUCTION,
    REJECTED,
    VerificationReport,
    combined_report,
    held,
)
from .transforms import (
    LinearTransform,
    LinzTransform,
    TransformError,
    _merged_context,
    apply_transform,
    push_solution,
    transform_context,
)
from .verify import residual


class HopfColeObstruction(Exception):
    """The LINEAR map has V0 != 0 and does not descend to the u side."""

    verdict = OBSTRUCTION


def cole_hopf_solution(v: Expr, ctx: Optional[Context] = None) -> Expr:
    """The u-side solution 2 v_x / v for a closed-form v."""
    if ctx is None:
        ctx = class_context(ClassId.LINEAR)
    return simplify(div(rat(2) * differentiate(v, "x", ctx), v), ctx)


def heat_instance() -> EquationInstance:
    """The LINEAR member v_t + v_xx = 0."""
    return EquationInstance(
        ClassId.LINEAR, {"a": rat(1), "b": ZERO, "c": ZERO}
    )


def heat_catalog() -> List[Expr]:
    """Closed-form solutions of v_t + v_xx = 0."""
    ctx = class_context(ClassId.LINEAR)
    t, x = var("t"), var("x")
    entries = [
        rat(1),
        x,
        x * x - rat(2) * t,
        x * x * x - rat(6) * t * x,
    ]
    for lam in (1, 2):
        lam_e = rat(lam)
        entries.append(exp(lam_e * x - lam_e * lam_e * t))
    entries.append(rat(1) + exp(x - t))
    return [simplify(e, ctx) for e in entries]


def burgers_catalog() -> List[Tuple[Expr, Expr]]:
    """(v, 2 v_x / v) pairs with v from the heat catalog (v = 1 gives u = 0)."""
    ctx = class_context(ClassId.LINEAR)
    return [(v, cole_hopf_solution(v, ctx)) for v in heat_catalog()]


def lift_transform(
    tr: LinearTransform, tol: float = 1e-9, seed: int = 42,
    assumptions: Sequence[Tuple[str, str]] = (),
) -> LinzTransform:
    """The LINZ family map matching tr across the bridge.

    Requires V0 = 0; otherwise raises HopfColeObstruction, since
    u = 2 (V1 v + V0)_x / (V1 v + V0) is not a function of (t, x, u)
    alone.
    """
    ctx = transform_context("LINEAR")
    ctx.assume_declared(assumptions)
    v0_zero = is_zero(tr.V0, ctx, tol=tol, seed=seed)
    if not v0_zero:
        raise HopfColeObstruction(
            "lift needs V0 = 0; got V0 = " + format_expr(tr.V0)
        )
    X_x = differentiate(tr.X, "x", ctx)
    V1_x = differentiate(tr.V1, "x", ctx)
    return LinzTransform(
        T=tr.T,
        X=tr.X,
        U0=simplify(div(rat(2) * V1_x, X_x * tr.V1), ctx),
    )


def verify_diagram(
    tr: LinearTransform,
    linear: Optional[EquationInstance] = None,
    solutions: Optional[Sequence[Expr]] = None,
    tol: float = 1e-9,
    seed: int = 42,
    assumptions: Sequence[Tuple[str, str]] = (),
) -> VerificationReport:
    """Check that the bridge commutes with the family maps.

    Element face: transform the LINEAR member and bridge the result,
    versus bridging first and transforming with the lifted map; the
    (a, b, f) pullbacks must agree.  The source comparison uses the
    chain rule f~ = 2 c~_x~ = 2 (c~ pullback)_x / X_x, so no inversion
    is needed.

    Solution face: for each given v, push v and u = 2 v_x / v forward
    and compare the pushed u with 2 v~_x~ / v~.  Skipped (with a note)
    when the coordinate change has no closed-form inverse.

    The LINEAR member defaults to the heat member.  Each context keeps
    the (name, flag) pairs of assumptions that name its own symbols.
    """
    if linear is None:
        linear = heat_instance()
    if linear.class_id != ClassId.LINEAR:
        raise ValueError("verify_diagram expects a LINEAR instance")
    lifted = lift_transform(tr, tol=tol, seed=seed, assumptions=assumptions)
    linz = linearizable_from_linear(linear)

    linear_res = apply_transform(tr, linear, tol=tol, seed=seed, assumptions=assumptions)
    linz_res = apply_transform(lifted, linz, assumptions=assumptions)

    ctx = _merged_context(ClassId.LINEAR, "LINEAR")
    ctx.add_function("u", ("t", "x"))
    ctx.assume_declared(assumptions)

    conditions: List[ConditionReport] = []
    X_x = differentiate(tr.X, "x", ctx)
    route_b = {
        "a": linear_res.pullback["a"],
        "b": linear_res.pullback["b"],
        "f": rat(2)
        * div(differentiate(linear_res.pullback["c"], "x", ctx), X_x),
    }
    for name in ("a", "b", "f"):
        zr = is_zero(linz_res.pullback[name] - route_b[name], ctx, tol=tol, seed=seed)
        conditions.append(
            ConditionReport.of(f"element face: {name} agrees along both routes", zr)
        )

    note = ""
    if solutions:
        if linear_res.inverse is None or linz_res.inverse is None:
            note = "solution face skipped: no closed-form inverse"
        else:
            sol_ctx = class_context(ClassId.LINEAR)
            sol_ctx.assume_declared(assumptions)
            for idx, v in enumerate(solutions):
                u = cole_hopf_solution(v, sol_ctx)
                v_pushed = push_solution(linear_res, v, sol_ctx)
                u_pushed = push_solution(linz_res, u, sol_ctx)
                want = cole_hopf_solution(v_pushed, sol_ctx)
                zr = is_zero(u_pushed - want, sol_ctx, tol=tol, seed=seed)
                conditions.append(
                    ConditionReport.of(
                        f"solution face: catalog entry {idx} commutes "
                        f"(v = {format_expr(v)})",
                        zr,
                    )
                )

    return combined_report(
        conditions,
        "bridge square: element face and solution face",
        tol,
        seed,
        f"{held(conditions)} bridge conditions hold" + (f" ({note})" if note else ""),
    )


def hopf_cole_report(
    linear: EquationInstance,
    v: Expr,
    tr: Optional[LinearTransform] = None,
    tol: float = 1e-9,
    seed: int = 42,
    assumptions: Sequence[Tuple[str, str]] = (),
) -> Tuple[VerificationReport, Expr]:
    """(report, u) for a solution v of a LINEAR member and u = 2 v_x / v.

    The report holds v's residual on the member, u's residual on the
    bridged LINZ_ABC member and, when tr is given, the bridge square of
    tr at v; a tr with V0 != 0 adds an OBSTRUCTION condition, and one
    the member does not admit a REJECTED one.  Each layer keeps the
    (name, flag) pairs that name its own symbols.
    """
    ctx = linear.context()
    ctx.assume_declared(assumptions)
    u = cole_hopf_solution(v, ctx)
    rep_v = residual(linear, v, tol=tol, seed=seed, assumptions=assumptions)
    rep_u = residual(
        linearizable_from_linear(linear), u, tol=tol, seed=seed,
        assumptions=assumptions,
    )
    conditions = [
        ConditionReport(
            "v solves the LINEAR member", rep_v.ok, rep_v.verdict, rep_v.summary
        ),
        ConditionReport(
            "u = 2 v_x / v solves the bridged member",
            rep_u.ok, rep_u.verdict, rep_u.summary,
        ),
    ]
    if tr is not None:
        try:
            diag = verify_diagram(
                tr, linear, solutions=[v], tol=tol, seed=seed, assumptions=assumptions
            )
            conditions.extend(diag.conditions)
        except HopfColeObstruction as exc:
            conditions.append(
                ConditionReport(
                    "transform descends across the bridge (V0 = 0)",
                    False, OBSTRUCTION, str(exc),
                )
            )
        except TransformError as exc:
            conditions.append(
                ConditionReport(
                    "transform is admissible for the LINEAR member",
                    False, REJECTED, str(exc),
                )
            )
    rep = combined_report(
        conditions,
        "v residual, bridged u residual, and the bridge square",
        tol,
        seed,
        f"u = {format_expr(u)}; {held(conditions)} conditions hold",
        rep_u.samples,
    )
    return rep, u
