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
count, and a seed.  Function-free residuals are sampled on the domain
through the sampling loop of is_zero (gbeq.expr.zero.sample_zero);
residuals with opaque symbols go through the numeric stage of is_zero
(sampled_verdict), since the residual's normal form is already known
not to be 0.  Identical inputs and seed give identical reports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .classes import CLASS_SPECS, EquationInstance, build_pde
from .expr import (
    App,
    EvalError,
    Evaluator,
    Expr,
    Func,
    Int,
    NONZERO,
    SYMBOLIC_ZERO,
    Var,
    ZERO,
    atoms_of,
    format_expr,
    is_zero,
    normal_form,
    simplify,
    substitute,
    walk,
)
from .expr.zero import Draw, sample_zero, sampled_verdict
from .report import ConditionReport, REJECTED, VerificationReport, worst_verdict
from .transforms import (
    ImplicitInverseOf,
    Transform,
    TransformError,
    _merged_context,
    apply_transform,
    push_solution,
)

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


def _has_opaque_symbols(e: Expr) -> bool:
    return any(isinstance(n, (App, Func, Int)) for n in walk(e))


def residual(
    inst: EquationInstance,
    candidate: Expr,
    tol: float = 1e-9,
    seed: Optional[int] = None,
    domain: Optional[SampleDomain] = None,
    assumptions: Sequence[Tuple[str, str]] = (),
) -> VerificationReport:
    """Does the candidate solve the member's PDE?

    The residual is judged by its sampled values, so approximate
    (float-contaminated) candidates that track a true solution to
    within tolerance still earn NUMERIC_ZERO.  When the member's
    elements are opaque symbols the domain cannot steer the sampler
    and the stand-in machinery of is_zero takes over; (name, flag)
    assumptions constrain how those symbols simplify and sample.
    """
    if domain is None:
        domain = default_domain()
    eff_seed = domain.seed if seed is None else seed
    ctx = inst.context()
    for name, flag in assumptions:
        ctx.assume_name(name, flag)
    pde = build_pde(inst, ctx)
    res_expr = simplify(
        substitute(pde, {inst.dependent: candidate}, ctx), ctx
    )
    if normal_form(res_expr, ctx) == ZERO:
        return VerificationReport(
            verdict=SYMBOLIC_ZERO,
            residual_text="0",
            tolerance=tol,
            seed=eff_seed,
            summary="residual reduced to 0 symbolically",
        )
    if _has_opaque_symbols(res_expr):
        zr = sampled_verdict(simplify(res_expr, ctx), ctx, tol, domain.count, eff_seed)
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


def _rejected(
    reason: str, tol: float, seed: int, conditions: List[ConditionReport]
) -> VerificationReport:
    return VerificationReport(
        verdict=REJECTED,
        residual_text=reason,
        tolerance=tol,
        seed=seed,
        summary="transform rejected: " + reason,
        conditions=conditions,
    )


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
    conditions: List[ConditionReport] = []
    if isinstance(tr, ImplicitInverseOf):
        return _rejected(
            "an implicit inverse cannot be applied; verify its forward "
            "transform instead",
            tol, seed, conditions,
        )
    try:
        res = apply_transform(tr, source, tol=tol, seed=seed)
    except TransformError as exc:
        conditions.append(
            ConditionReport(
                description="transform is admissible for the source member",
                ok=False,
                verdict=REJECTED,
                detail=str(exc),
            )
        )
        return _rejected(str(exc), tol, seed, conditions)

    expected = set(res.pullback)
    claimed = set(CLASS_SPECS[target.class_id].elements)
    if expected != claimed:
        raise ValueError(
            f"target class {target.class_id} carries elements "
            f"{sorted(claimed)}, but the transform produces {sorted(expected)}"
        )

    sign = getattr(tr, "sign_Tt", 1)
    ctx = _merged_context(source, tr.family, sign)
    for name, flag in assumptions:
        ctx.assume_name(name, flag)
    mismatch = False
    # the dependent symbol joins the mapping because superclass-style
    # elements may carry it (H1 = u and friends)
    point = {"t": res.map.t, "x": res.map.x, target.dependent: res.map.u}
    for name in sorted(res.pullback):
        composed = substitute(target.elements[name], point, ctx)
        zr = is_zero(res.pullback[name] - composed, ctx, tol=tol, seed=seed)
        conditions.append(
            ConditionReport(
                description=f"element {name}: transform of source matches target",
                ok=bool(zr),
                verdict=zr.verdict,
                detail=zr.summary(),
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
            samples = list(rep.samples)
            conditions.append(
                ConditionReport(
                    description="pushed solution satisfies the target member",
                    ok=rep.ok,
                    verdict=rep.verdict,
                    detail=rep.summary,
                )
            )

    return VerificationReport(
        verdict=worst_verdict(c.verdict for c in conditions),
        residual_text="element agreement and pushed-solution residual",
        tolerance=tol,
        seed=seed,
        summary=(
            f"{sum(c.ok for c in conditions)}/{len(conditions)} transport "
            "conditions hold" + note
        ),
        samples=samples,
        conditions=conditions,
    )
