"""Residual checks for concrete members and transport of solutions.

residual substitutes a candidate solution into the member's PDE and
grades the outcome: SYMBOLIC_ZERO when the residual reduces to zero
exactly, NUMERIC_ZERO when it merely stays within tolerance at
sampled points, NONZERO with a witness point otherwise.

transport_check ties a transform, a source member, a claimed target
member, and a source solution together: the transformed elements must
match the claimed ones, and the pushed solution must satisfy the
target PDE.  A transform whose own admissibility constraint fails
(the divergence-form or linear families) is REJECTED_PRECONDITION
before anything else runs.

residual first asks normal_form_is_zero whether the residual is 0;
for a rational residual the modular witness there usually shows it is
not without expanding anything, and the verdict still comes from the
samples, so a witnessed residual grades exactly as before.  A residual
whose normal form is not 0 then goes through the exact stage is_zero
runs next, the antiderivative rule (gbeq.expr.zero.integral_identity):
a residual linear in one antiderivative atom is proved 0 by
differentiating it, and reads SYMBOLIC_ZERO.  What that leaves goes
through the numeric stage of is_zero (gbeq.expr.zero.sampled_verdict),
with its box, count and attempt budget, and with the signs that the
member's context and the assumptions give each coordinate.  The seed
and those signs alone pick the points, so identical inputs and seed
give identical reports.

transport_check alone needs gbeq.transforms and imports it in its
body, so a residual check never loads the transformation layer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple, Union

from .classes import CLASS_SPECS, EquationInstance, build_pde
from .expr import (
    Expr,
    ExprError,
    NONZERO,
    Pow,
    Rat,
    SYMBOLIC_ZERO,
    ZERO,
    format_expr,
    is_zero,
    normal_form,
    normal_form_is_zero,
    simplify,
    substitute,
    walk,
)
from .expr.nodes import APP, FUNC, INT, holds
from .expr.zero import integral_identity, sampled_verdict
from .report import (
    ConditionReport,
    REJECTED,
    VerificationReport,
    combined_report,
    held,
    rejected_report,
)

if TYPE_CHECKING:
    from .transforms import ImplicitInverseOf, Transform


def residual(
    inst: EquationInstance,
    candidate: Expr,
    tol: float = 1e-9,
    seed: int = 42,
    assumptions: Sequence[Tuple[str, str]] = (),
) -> VerificationReport:
    """Does the candidate solve the member's PDE?

    SYMBOLIC_ZERO when the residual's normal form is 0, or when the
    antiderivative rule (gbeq.expr.zero.integral_identity) proves a
    residual linear in one integral atom 0.  Otherwise the residual is
    judged by its sampled values, so approximate (float-contaminated)
    candidates that track a true solution to within tolerance still
    earn NUMERIC_ZERO.  The sampling is is_zero's numeric stage: when
    the member's elements are opaque symbols its stand-in machinery
    samples them.  (name, flag) assumptions constrain how the member's
    symbols and variables simplify and sample, so every point honours
    the signs they give, and a pair naming no symbol of the member's
    class is left out.
    """
    ctx = inst.context()
    ctx.assume_declared(assumptions)
    pde = build_pde(inst, ctx)
    # the candidate alone first: a base the assumptions make 0 under a
    # negative power raises DivisionByZero here, a log of a rational <= 0
    # raises where app builds it, and an even root of a negative one (the
    # opaque Pow that pow_ keeps for it) is refused, while in the residual
    # their derivatives, which may all vanish, can cancel them
    for node in walk(simplify(candidate, ctx)):
        if isinstance(node, Pow) and isinstance(node.base, Rat) and node.base.value < 0:
            raise ExprError(f"{format_expr(node)} is undefined")
    res_expr = simplify(
        substitute(pde, {inst.dependent: candidate}, ctx), ctx
    )
    if holds(res_expr, INT):
        # the modular witness cannot read an Int: one normal form serves both
        nf = normal_form(res_expr, ctx)
        proved = nf == ZERO or integral_identity(nf, ctx)
    else:
        proved = normal_form_is_zero(res_expr, ctx)
    if proved:
        return VerificationReport(
            verdict=SYMBOLIC_ZERO,
            residual_text="0",
            tolerance=tol,
            seed=seed,
            summary="residual reduced to 0 symbolically",
        )
    zr = sampled_verdict(res_expr, ctx, tol, seed)
    if holds(res_expr, APP | FUNC | INT):
        summary = "opaque symbols present; " + zr.summary()
    elif zr.verdict == NONZERO:
        point, total = zr.samples[-1]
        summary = f"residual nonzero: |{total:.6g}| at " + ", ".join(
            f"{k} = {v:.6g}" for k, v in sorted(point.items())
        )
    else:
        summary = (
            f"residual within tolerance on {len(zr.samples)} points "
            f"(max |value| {zr.max_abs:.3g})"
        )
    return VerificationReport(
        verdict=zr.verdict,
        residual_text=format_expr(res_expr),
        tolerance=tol,
        seed=seed,
        summary=summary,
        samples=list(zr.samples),
    )


def transport_check(
    tr: Union[Transform, ImplicitInverseOf],
    source: EquationInstance,
    target: EquationInstance,
    solution: Expr,
    tol: float = 1e-9,
    seed: int = 42,
    assumptions: Sequence[Tuple[str, str]] = (),
) -> VerificationReport:
    """apply(tr, source) = target, and the pushed solution solves it.

    Element equalities are checked without inverting: each claimed
    target element is composed with the forward maps and compared to
    the pullback.  A mismatch short-circuits before any solution work.
    The solution condition then pushes the given solution into target
    coordinates and grades its residual; when the coordinate change
    has no closed-form inverse this condition is skipped with a note,
    since nothing independent can be evaluated.
    """
    from .transforms import (
        ImplicitInverseOf,
        TransformError,
        _merged_context,
        apply_transform,
        push_solution,
    )

    if isinstance(tr, ImplicitInverseOf):
        return rejected_report(
            "an implicit inverse cannot be applied; verify its forward "
            "transform instead",
            tol, seed, "transform rejected: ",
        )
    try:
        res = apply_transform(
            tr, source, tol=tol, seed=seed, assumptions=assumptions
        )
    except TransformError as exc:
        admissible = ConditionReport(
            "transform is admissible for the source member", False, REJECTED, str(exc)
        )
        return rejected_report(
            str(exc), tol, seed, "transform rejected: ", [admissible]
        )

    expected = set(res.pullback)
    claimed = set(CLASS_SPECS[target.class_id].elements)
    if expected != claimed:
        raise ValueError(
            f"target class {target.class_id} carries elements "
            f"{sorted(claimed)}, but the transform produces {sorted(expected)}"
        )

    ctx = _merged_context(source.class_id, tr.family, tr.sign_Tt)
    ctx.assume_declared(assumptions)
    conditions: List[ConditionReport] = []
    mismatch = False
    # the dependent symbol joins the mapping because superclass-style
    # elements may carry it (H1 = u and friends)
    point = {"t": res.map.t, "x": res.map.x, target.dependent: res.map.u}
    for name in sorted(res.pullback):
        composed = substitute(target.elements[name], point, ctx)
        zr = is_zero(res.pullback[name] - composed, ctx, tol=tol, seed=seed)
        conditions.append(
            ConditionReport.of(
                f"element {name}: transform of source matches target", zr
            )
        )
        if not zr:
            mismatch = True
            break

    samples: List[Tuple[Dict[str, float], float]] = []
    note = ""
    if not mismatch:
        pushed = push_solution(res, solution)
        if pushed is None:
            note = "; solution condition skipped (no closed-form inverse)"
        else:
            rep = residual(
                target, pushed, tol=tol, seed=seed, assumptions=assumptions
            )
            samples = rep.samples
            conditions.append(
                ConditionReport(
                    "pushed solution satisfies the target member",
                    rep.ok, rep.verdict, rep.summary,
                )
            )

    return combined_report(
        conditions,
        "element agreement and pushed-solution residual",
        tol,
        seed,
        f"{held(conditions)} transport conditions hold" + note,
        samples,
    )
