"""Residual checks for concrete members and transport of solutions.

residual substitutes a candidate solution into the member's PDE and
grades the outcome: SYMBOLIC_ZERO when the residual reduces to zero
exactly, NUMERIC_ZERO when it merely stays within tolerance on a
sampled domain, NONZERO with a witness point otherwise.

transport_check ties a transform, a source member, a claimed target
member, and a source solution together: the transformed elements must
match the claimed ones, and the pushed solution must satisfy the
target PDE.  A transform whose own admissibility constraint fails
(the divergence-form or linear families) is REJECTED_PRECONDITION
before anything else runs.

Sampling is governed by a SampleDomain: per-variable interval unions,
named exclusion predicates (poles of a solution, say), a sample
count, and a seed.  residual first asks normal_form_is_zero whether
the residual is 0; for a rational residual the modular witness there
usually shows it is not without expanding anything, and the verdict
still comes from the samples, so a witnessed residual grades exactly
as before.  A residual whose normal form is not 0 then goes through
the exact stage is_zero runs next, the antiderivative rule
(gbeq.expr.zero.integral_identity): a residual linear in one
antiderivative atom is proved 0 by differentiating it, and reads
SYMBOLIC_ZERO.  Only what that leaves is sampled.  Function-free
residuals are sampled on the domain through the sampling loop of
is_zero (gbeq.expr.zero.sample_zero);
residuals with opaque symbols go through the numeric stage of is_zero
(sampled_verdict), since the residual's normal form is already known
not to be 0.  Identical inputs and seed give identical reports.

transport_check alone needs gbeq.transforms and imports it in its
body, so a residual check never loads the transformation layer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union,
)

from .classes import CLASS_SPECS, EquationInstance, build_pde
from .expr import (
    EvalError,
    Evaluator,
    Expr,
    ExprError,
    NONZERO,
    Pow,
    Rat,
    SYMBOLIC_ZERO,
    Var,
    ZERO,
    atoms_of,
    format_expr,
    is_zero,
    normal_form,
    normal_form_is_zero,
    simplify,
    substitute,
    walk,
)
from .expr.nodes import APP, FUNC, INT, holds
from .expr.zero import Draw, integral_identity, sample_zero, sampled_verdict
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

DEFAULT_PIECES = ((-2.0, -0.1), (0.1, 2.0))


class VerifyError(Exception):
    """Raised when sampling cannot produce the requested points."""


@dataclass(frozen=True)
class Exclusion:
    """A named predicate accepted points must satisfy."""

    name: str
    predicate: Callable[[Dict[str, float]], bool]

    def holds(self, point: Dict[str, float]) -> bool:
        try:
            return bool(self.predicate(point))
        except (ArithmeticError, EvalError):
            return False


def magnitude_exclusion(
    e: Expr, threshold: float = 0.1, name: str = ""
) -> Exclusion:
    """Keep only points where |e| >= threshold (a tube around poles)."""
    ev = Evaluator()

    def predicate(point: Dict[str, float]) -> bool:
        return abs(ev(e, point)) >= threshold

    return Exclusion(
        name=name or f"|{format_expr(e)}| >= {threshold:g}",
        predicate=predicate,
    )


@dataclass(frozen=True)
class SampleDomain:
    """Where and how densely residuals are sampled.

    intervals maps a variable name to a union of closed intervals;
    variables not listed use the default pieces, which keep every
    coordinate away from zero.  Every accepted point satisfies all
    exclusions.
    """

    intervals: Mapping[str, Tuple[Tuple[float, float], ...]] = field(
        default_factory=dict
    )
    exclusions: Tuple[Exclusion, ...] = ()
    count: int = 30
    seed: int = 42

    def pieces(self, name: str) -> Tuple[Tuple[float, float], ...]:
        return tuple(self.intervals.get(name, DEFAULT_PIECES))

    def draw(self, names: Sequence[str], rng: random.Random) -> Dict[str, float]:
        """One point inside the intervals; exclusions are not consulted."""
        point = {}
        for name in names:
            lo, hi = rng.choice(self.pieces(name))
            point[name] = rng.uniform(lo, hi)
        return point

    def contains(self, point: Dict[str, float]) -> bool:
        for name, value in point.items():
            if not any(lo <= value <= hi for lo, hi in self.pieces(name)):
                return False
        return all(ex.holds(point) for ex in self.exclusions)

    def sample(self, names: Sequence[str]) -> List[Dict[str, float]]:
        """count points satisfying the intervals and all exclusions."""
        rng = random.Random(self.seed)
        out: List[Dict[str, float]] = []
        attempts = 0
        while len(out) < self.count:
            attempts += 1
            if attempts > max(1, self.count) * 50:
                raise VerifyError(
                    "could not draw enough points satisfying the exclusions"
                )
            point = self.draw(names, rng)
            if all(ex.holds(point) for ex in self.exclusions):
                out.append(point)
        return out


def default_domain(count: int = 30, seed: int = 42) -> SampleDomain:
    return SampleDomain(count=count, seed=seed)


def residual(
    inst: EquationInstance,
    candidate: Expr,
    tol: float = 1e-9,
    seed: Optional[int] = None,
    domain: Optional[SampleDomain] = None,
    assumptions: Sequence[Tuple[str, str]] = (),
) -> VerificationReport:
    """Does the candidate solve the member's PDE?

    SYMBOLIC_ZERO when the residual's normal form is 0, or when the
    antiderivative rule (gbeq.expr.zero.integral_identity) proves a
    residual linear in one integral atom 0.  Otherwise the residual is
    judged by its sampled values, so approximate (float-contaminated)
    candidates that track a true solution to within tolerance still
    earn NUMERIC_ZERO.  When the member's elements are opaque symbols
    the domain cannot steer the sampler and the stand-in machinery of
    is_zero takes over; (name, flag) assumptions constrain how those
    symbols simplify and sample.
    """
    if domain is None:
        domain = default_domain()
    eff_seed = domain.seed if seed is None else seed
    ctx = inst.context()
    for name, flag in assumptions:
        ctx.assume_name(name, flag)
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
            seed=eff_seed,
            summary="residual reduced to 0 symbolically",
        )
    if holds(res_expr, APP | FUNC | INT):
        zr = sampled_verdict(res_expr, ctx, tol, domain.count, eff_seed)
        summary = "opaque symbols present; " + zr.summary()
    else:
        zr = sample_zero(
            res_expr, _domain_draw(res_expr, domain, random.Random(eff_seed)),
            domain.count, max(1, domain.count) * 50,
            VerifyError("could not draw enough valid points for the residual"),
            tol, eff_seed,
        )
        if zr.verdict == NONZERO:
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
        seed=eff_seed,
        summary=summary,
        samples=list(zr.samples),
    )


def _domain_draw(e: Expr, domain: SampleDomain, rng: random.Random) -> Draw:
    """Points of the domain in e's variables; excluded points are rejected."""
    names = sorted({a.name for a in atoms_of(e) if isinstance(a, Var)})
    ev = Evaluator()

    def draw() -> Optional[Tuple[Evaluator, Dict[str, float]]]:
        point = domain.draw(names, rng)
        if not all(ex.holds(point) for ex in domain.exclusions):
            return None
        return ev, point

    return draw


def transport_check(
    tr: Union[Transform, ImplicitInverseOf],
    source: EquationInstance,
    target: EquationInstance,
    solution: Expr,
    tol: float = 1e-9,
    seed: int = 42,
    domain: Optional[SampleDomain] = None,
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
    for name, flag in assumptions:
        ctx.assume_name(name, flag)
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
            # the target context only declares the class symbols, so
            # assumptions about transform parameters stay behind
            known = set(CLASS_SPECS[target.class_id].elements)
            known |= {"t", "x", target.dependent}
            rep = residual(
                target, pushed, tol=tol, seed=seed, domain=domain,
                assumptions=tuple(p for p in assumptions if p[0] in known),
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
