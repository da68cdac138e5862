"""Transformation families and their groupoid operations.

Each family fixes a shape of point transformation between members of
one equation class:

    GENERAL     on SUPER:    t -> T(t), x -> X(t,x),
                             u -> U1(t,x) u + U0(t,x)
    LINZ        on LINZ_ABC: u -> u / X_x + U0
    GAUGED      on LINZ_BF:  t -> T, x -> eps (T_t^(1/2) x + X0),
                             u -> eps (u / T_t^(1/2) + U0),  T_t > 0
    REDUCED     on LINZ_F:   the GAUGED subfamily whose U0 is
                             T_tt/(2 T_t^(3/2)) x + X0_t/T_t
    PROJECTIVE  on GBE_TX:   fractional-linear in t, affine in x
    DIV         on GBE_DIV:  t -> T, x -> kappa |T_t|^(1/2) x + X0, with
                             a classifying constraint tying T, X0 to f
    AFFINE_DIV  on GBE_DIV:  the affine T subfamily of DIV
    LINEAR      on LINEAR:   v -> V1 v + V0, with V0 constrained to be
                             a pushed solution

Every family lifts into GENERAL (to_general) and every class embeds
into SUPER, so apply has one pullback formula, _general_pullback: the
lifted map acts on the member embedded in SUPER, and the elements of
the member's own class are read off the result.  Three families keep
closed forms of their own:

    PROJECTIVE  f~ = kappa^2 f / det, since the general route made its
                sweep items 2-3 times slower
    AFFINE_DIV  compose and invert on exact rational numbers; apply
                goes through the DIV map it names
    LINEAR      a~, b~, c~ free of V0, which linear_constraint needs
                before V0 is known to be admissible

apply_* returns the transformed elements both as pullbacks (functions
of the source coordinates) and, whenever the coordinate change inverts
in closed form, as a target-coordinate instance.  compose and invert
stay inside each family; tests cross-check the closed compositions
against the GENERAL route.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

from .classes import (
    CLASS_SPECS,
    ClassError,
    ClassId,
    EquationInstance,
    class_context,
    embed,
)
from .expr import (
    Context,
    Expr,
    NONZERO,
    ONE,
    Rat,
    ZERO,
    app,
    collect,
    contains_var,
    differentiate,
    div,
    expand,
    format_expr,
    integral,
    is_zero,
    parse,
    pow_,
    rat,
    ratio_normal,
    simplify,
    sqrt,
    substitute,
    var,
)
from .report import ConditionReport, REJECTED, VerificationReport

IMPLICIT = "IMPLICIT"

T_VAR = var("t")
X_VAR = var("x")


class TransformError(Exception):
    """Raised for ill-formed transforms or inapplicable operations."""


# ---------------------------------------------------------------------------
# families


@dataclass(frozen=True)
class GeneralTransform:
    """t -> T(t), x -> X(t,x), u -> U1(t,x) u + U0(t,x)."""

    T: Expr
    X: Expr
    U1: Expr
    U0: Expr

    family = "GENERAL"
    param_names = ("T", "X", "U1", "U0")

    def params(self) -> Dict[str, Expr]:
        return {"T": self.T, "X": self.X, "U1": self.U1, "U0": self.U0}


@dataclass(frozen=True)
class LinzTransform:
    """t -> T(t), x -> X(t,x), u -> u / X_x + U0(t,x)."""

    T: Expr
    X: Expr
    U0: Expr

    family = "LINZ"
    param_names = ("T", "X", "U0")

    def params(self) -> Dict[str, Expr]:
        return {"T": self.T, "X": self.X, "U0": self.U0}


@dataclass(frozen=True)
class GaugedTransform:
    """t -> T(t), x -> eps (sqrt(T_t) x + X0(t)), u -> eps (u / sqrt(T_t) + U0)."""

    T: Expr
    X0: Expr
    U0: Expr
    eps: Fraction = Fraction(1)

    family = "GAUGED"
    param_names = ("T", "X0", "U0", "eps")

    def __post_init__(self) -> None:
        if self.eps not in (Fraction(1), Fraction(-1)):
            raise TransformError("eps must be +1 or -1")

    def params(self) -> Dict[str, Union[Expr, Fraction]]:
        return {"T": self.T, "X0": self.X0, "U0": self.U0, "eps": self.eps}


@dataclass(frozen=True)
class ReducedTransform:
    """The GAUGED subfamily generated by (T, X0) alone."""

    T: Expr
    X0: Expr
    eps: Fraction = Fraction(1)

    family = "REDUCED"
    param_names = ("T", "X0", "eps")

    def __post_init__(self) -> None:
        if self.eps not in (Fraction(1), Fraction(-1)):
            raise TransformError("eps must be +1 or -1")

    def params(self) -> Dict[str, Union[Expr, Fraction]]:
        return {"T": self.T, "X0": self.X0, "eps": self.eps}


Number = Union[Fraction, float]


@dataclass(frozen=True)
class ProjectiveTuple:
    """(alpha, beta, gamma, delta, kappa, mu0, mu1), scale-equivalent.

    t -> (alpha t + beta)/(gamma t + delta)
    x -> (kappa x + mu1 t + mu0)/(gamma t + delta)
    u -> (kappa (gamma t + delta) u - kappa gamma x + mu1 delta - mu0 gamma)
             / (alpha delta - beta gamma)
    """

    alpha: Number
    beta: Number
    gamma: Number
    delta: Number
    kappa: Number
    mu0: Number
    mu1: Number

    family = "PROJECTIVE"
    param_names = ("alpha", "beta", "gamma", "delta", "kappa", "mu0", "mu1")

    def __post_init__(self) -> None:
        if self.det == 0:
            raise TransformError("alpha*delta - beta*gamma must not vanish")
        if self.kappa == 0:
            raise TransformError("kappa must not vanish")

    @property
    def det(self) -> Number:
        return self.alpha * self.delta - self.beta * self.gamma

    def entries(self) -> Tuple[Number, ...]:
        return (
            self.alpha, self.beta, self.gamma, self.delta,
            self.kappa, self.mu0, self.mu1,
        )

    def params(self) -> Dict[str, Number]:
        return dict(zip(self.param_names, self.entries()))

    def matrix(self) -> Tuple[Tuple[Number, ...], ...]:
        """Action on the projective column (t : x : 1)."""
        a, b, g, d, k, m0, m1 = self.entries()
        zero = a * 0
        return ((a, zero, b), (m1, k, m0), (g, zero, d))

    def canonical(self) -> "ProjectiveTuple":
        """Scale so the largest-magnitude entry is +-1 and kappa > 0."""
        pivot = max(self.entries(), key=abs)
        scale = Fraction(1) / pivot if isinstance(pivot, Fraction) else 1.0 / pivot
        if self.kappa * scale < 0:
            scale = -scale
        return ProjectiveTuple(*[e * scale for e in self.entries()])

    def close_to(self, other: "ProjectiveTuple", tol: float = 1e-12) -> bool:
        a = self.canonical().entries()
        b = other.canonical().entries()
        return all(abs(float(p) - float(q)) <= tol for p, q in zip(a, b))


@dataclass(frozen=True)
class DivTransform:
    """t -> T(t), x -> kappa |T_t|^(1/2) x + X0(t), with declared sign of T_t."""

    T: Expr
    X0: Expr
    kappa: Fraction = Fraction(1)
    sign_Tt: int = 1

    family = "DIV"
    param_names = ("T", "X0", "kappa", "sign_Tt")

    def __post_init__(self) -> None:
        if self.kappa == 0:
            raise TransformError("kappa must not vanish")
        if self.sign_Tt not in (1, -1):
            raise TransformError("sign_Tt must be +1 or -1")

    def params(self) -> Dict[str, Union[Expr, Fraction, int]]:
        return {
            "T": self.T, "X0": self.X0,
            "kappa": self.kappa, "sign_Tt": self.sign_Tt,
        }


@dataclass(frozen=True)
class AffineDivTransform:
    """t -> c1^2 t + c0, x -> kappa c1 x + c2 t + c3, canonical c1 > 0."""

    c0: Fraction
    c1: Fraction
    c2: Fraction
    c3: Fraction
    kappa: Fraction = Fraction(1)

    family = "AFFINE_DIV"
    param_names = ("c0", "c1", "c2", "c3", "kappa")

    def __post_init__(self) -> None:
        if self.c1 == 0:
            raise TransformError("c1 must not vanish")
        if self.kappa == 0:
            raise TransformError("kappa must not vanish")
        if self.c1 < 0:
            # (c1, kappa) and (-c1, -kappa) name the same map
            object.__setattr__(self, "c1", -self.c1)
            object.__setattr__(self, "kappa", -self.kappa)

    def params(self) -> Dict[str, Fraction]:
        return {
            "c0": self.c0, "c1": self.c1, "c2": self.c2, "c3": self.c3,
            "kappa": self.kappa,
        }

    def to_div(self) -> DivTransform:
        t = T_VAR
        return DivTransform(
            T=rat(self.c1 * self.c1) * t + rat(self.c0),
            X0=rat(self.c2) * t + rat(self.c3),
            kappa=self.kappa,
            sign_Tt=1,
        )


@dataclass(frozen=True)
class LinearTransform:
    """t -> T(t), x -> X(t,x), v -> V1(t,x) v + V0(t,x)."""

    T: Expr
    X: Expr
    V1: Expr
    V0: Expr

    family = "LINEAR"
    param_names = ("T", "X", "V1", "V0")

    def params(self) -> Dict[str, Expr]:
        return {"T": self.T, "X": self.X, "V1": self.V1, "V0": self.V0}


Transform = Union[
    GeneralTransform,
    LinzTransform,
    GaugedTransform,
    ReducedTransform,
    ProjectiveTuple,
    DivTransform,
    AffineDivTransform,
    LinearTransform,
]


@dataclass(frozen=True)
class ImplicitInverseOf:
    """The inverse of `of`: well defined, but with no closed form here.

    Good only for forward verification (apply `of` and compare); it
    cannot be applied or composed.  Inverting it gives back `of`, and
    it serializes as the forward transform plus an `implicit = true`
    flag.
    """

    of: Transform

    @property
    def family(self) -> str:
        return self.of.family

    @property
    def param_names(self) -> Tuple[str, ...]:
        return self.of.param_names

    def params(self):
        return self.of.params()

_FAMILY_SIGNATURES: Dict[str, Dict[str, Tuple[str, ...]]] = {
    "GENERAL": {"T": ("t",), "X": ("t", "x"), "U1": ("t", "x"), "U0": ("t", "x")},
    "LINZ": {"T": ("t",), "X": ("t", "x"), "U0": ("t", "x")},
    "GAUGED": {"T": ("t",), "X0": ("t",), "U0": ("t", "x")},
    "REDUCED": {"T": ("t",), "X0": ("t",)},
    "PROJECTIVE": {},
    "DIV": {"T": ("t",), "X0": ("t",)},
    "AFFINE_DIV": {},
    "LINEAR": {"T": ("t",), "X": ("t", "x"), "V1": ("t", "x"), "V0": ("t", "x")},
}


def transform_context(family: str, sign_Tt: int = 1) -> Context:
    """Declarations and assumptions under which a family's params parse."""
    ctx = Context()
    t = ctx.add_var("t")
    ctx.add_var("x")
    sigs = _FAMILY_SIGNATURES[family]
    for name, sig in sigs.items():
        ctx.add_function(name, sig)
    if "T" in sigs:
        T_t = ctx.fn("T", (1,))
        if family in ("GAUGED", "REDUCED"):
            ctx.assume_positive(T_t)
        elif family == "DIV":
            if sign_Tt > 0:
                ctx.assume_positive(T_t)
            else:
                ctx.assume_negative(T_t)
        else:
            ctx.assume_nonzero(T_t)
    if "X" in sigs:
        ctx.assume_nonzero(ctx.fn("X", (0, 1)))
    if "U1" in sigs:
        ctx.assume_nonzero(ctx.fn("U1"))
    if "V1" in sigs:
        ctx.assume_nonzero(ctx.fn("V1"))
    return ctx


def _merged_context(inst: EquationInstance, family: str, sign_Tt: int = 1) -> Context:
    """Class context plus family declarations and assumptions."""
    ctx = class_context(inst.class_id).copy()
    fam = transform_context(family, sign_Tt)
    for name, sig in fam.functions.items():
        ctx.add_function(name, sig)
    for target, flags in fam.assumptions.items():
        for flag in flags:
            ctx.assume(target, flag)
    for name in CLASS_SPECS[inst.class_id].nonvanishing:
        ctx.assume_nonzero(ctx.fn(name))
    return ctx


# ---------------------------------------------------------------------------
# maps and apply results


@dataclass(frozen=True)
class PointMap:
    """Target coordinates as expressions in the source ones."""

    t: Expr
    x: Expr
    u: Expr

    def describe(self) -> Dict[str, str]:
        return {
            "t": format_expr(self.t),
            "x": format_expr(self.x),
            "u": format_expr(self.u),
        }


@dataclass
class ApplyResult:
    """Everything apply_* knows about the transformed instance."""

    source: EquationInstance
    family: str
    map: PointMap
    pullback: Dict[str, Expr]
    target: Optional[EquationInstance]
    inverse: Optional[PointMap]
    note: str = ""

    @property
    def closed_form_target(self) -> bool:
        return self.target is not None


def push_solution(
    res: ApplyResult, solution: Expr, ctx: Optional[Context] = None
) -> Optional[Expr]:
    """A source solution rewritten in target coordinates, or None.

    None means the coordinate change has no closed-form inverse, so
    the image exists only parametrically.
    """
    if res.inverse is None:
        return None
    if ctx is None:
        ctx = res.source.context()
    at_source = substitute(res.map.u, {res.source.dependent: solution}, ctx)
    return simplify(
        substitute(at_source, {"t": res.inverse.t, "x": res.inverse.x}, ctx),
        ctx,
    )


def _d(e: Expr, v: str, ctx: Context) -> Expr:
    return differentiate(e, v, ctx)


def _compose_tx(e: Expr, t_expr: Expr, x_expr: Optional[Expr], ctx: Context) -> Expr:
    """Substitute t and, if given, x by expressions (simultaneously)."""
    mapping: Dict[str, Expr] = {"t": t_expr}
    if x_expr is not None:
        mapping["x"] = x_expr
    return substitute(e, mapping, ctx)


# -- closed-form inversion of the coordinate change ------------------------


def _constant_in_tx(e: Expr) -> bool:
    return not contains_var(e, "t") and not contains_var(e, "x")


def _mobius_parts(T: Expr, ctx: Context) -> Optional[Tuple[Expr, Expr, Expr, Expr]]:
    """Write T as (p t + q)/(r t + s) with coefficients constant in t, x."""
    n, d = ratio_normal(simplify(T, ctx))
    try:
        cn = collect(n, T_VAR, ctx)
        cd = collect(d, T_VAR, ctx)
    except Exception:
        return None
    if max(cn, default=0) > 1 or max(cd, default=0) > 1:
        return None
    p = cn.get(1, ZERO)
    q = cn.get(0, ZERO)
    r = cd.get(1, ZERO)
    s = cd.get(0, ZERO)
    for coeff in (p, q, r, s):
        if not _constant_in_tx(coeff):
            return None
    det = simplify(p * s - q * r, ctx)
    if isinstance(det, Rat):
        if det.value == 0:
            return None
    elif not is_zero(det, ctx).verdict == NONZERO:
        return None
    return p, q, r, s


def _invert_t(T: Expr, ctx: Context) -> Optional[Expr]:
    """Closed-form S with S(T(t)) = t, written in the variable t."""
    parts = _mobius_parts(T, ctx)
    if parts is None:
        return None
    p, q, r, s = parts
    # inverse of [[p, q], [r, s]] up to scale
    return simplify(div(s * T_VAR - q, -r * T_VAR + p), ctx)


def _affine_in_x(X: Expr, ctx: Context) -> Optional[Tuple[Expr, Expr]]:
    """Write X = P(t) x + Q(t); None when X is not affine in x."""
    P = simplify(_d(X, "x", ctx), ctx)
    if contains_var(P, "x"):
        return None
    Q = simplify(X - P * X_VAR, ctx)
    if contains_var(Q, "x"):
        # combine over a common denominator; unlike normal_form this
        # keeps the value, not just the zero set
        n, d = ratio_normal(expand(Q))
        Q = simplify(div(n, d), ctx)
        if contains_var(Q, "x"):
            return None
    return P, Q


def closed_inverse(
    T: Expr, X: Expr, ctx: Context
) -> Optional[Tuple[Expr, Expr]]:
    """(S, xi) with t = S(t~), x = xi(t~, x~), written in plain t, x.

    Requires T fractional-linear with constant coefficients and X
    affine in x; returns None otherwise.
    """
    S = _invert_t(T, ctx)
    if S is None:
        return None
    aff = _affine_in_x(X, ctx)
    if aff is None:
        return None
    P, Q = aff
    if P == ZERO:
        return None
    PS = _compose_tx(P, S, None, ctx)
    QS = _compose_tx(Q, S, None, ctx)
    xi = simplify(div(X_VAR - QS, PS), ctx)
    return S, xi


# ---------------------------------------------------------------------------
# apply


def _finish_apply(
    inst: EquationInstance,
    family: str,
    ctx: Context,
    fmap: PointMap,
    pullback: Dict[str, Expr],
    u_inverse_of: Callable[[Expr, Expr], Expr],
) -> ApplyResult:
    """Build the shared part of an ApplyResult, with the target in inst's class.

    u_inverse_of(S, xi) must return the source dependent variable as an
    expression in the target coordinates (with the target dependent
    written through the same symbol name).
    """
    pullback = {k: simplify(v, ctx) for k, v in pullback.items()}
    inv = closed_inverse(fmap.t, fmap.x, ctx)
    if inv is None:
        return ApplyResult(
            inst, family, fmap, pullback, target=None, inverse=None,
            note=f"{IMPLICIT}: coordinate change has no closed-form inverse here",
        )
    S, xi = inv
    u_back = u_inverse_of(S, xi)
    mapping = {"t": S, "x": xi, inst.dependent: u_back}
    elements = {
        k: simplify(substitute(v, mapping, ctx), ctx) for k, v in pullback.items()
    }
    return ApplyResult(
        inst, family, fmap, pullback,
        target=EquationInstance(inst.class_id, elements),
        inverse=PointMap(t=S, x=xi, u=simplify(u_back, ctx)),
    )


_LINZ_CLASSES = (ClassId.LINZ_ABC, ClassId.LINZ_BF, ClassId.LINZ_F)


def _general_pullback(
    g: GeneralTransform, sup: EquationInstance, cls: ClassId, ctx: Context
) -> Dict[str, Expr]:
    """The SUPER pullback of sup under g, read off as the elements of cls.

    SUPER keeps F, H1, H0 with the source u free.  A GBE class reads f
    off F~ alone.  A LINZ class reads a = F~, b = H1~ - (F~)_x / X_x and
    f = H0~ at the source u where the target u~ = U1 u + U0 vanishes.
    The elements a class drops vanish by the shape of its family, so
    they are not built.
    """
    T, X, U1, U0 = g.T, g.X, g.U1, g.U0
    F, H1, H0 = sup.elements["F"], sup.elements["H1"], sup.elements["H0"]
    T_t, X_x = _d(T, "t", ctx), _d(X, "x", ctx)
    F_new = div(X_x * X_x * F, T_t)
    if cls is not ClassId.SUPER and cls not in _LINZ_CLASSES:
        return {"f": F_new}
    u = ctx.fn("u")
    if cls is not ClassId.SUPER:
        # put u into the small source elements, not the pulled-back trees
        u = div(-U0, U1)
        H1 = substitute(H1, {"u": u}, ctx)
        H0 = substitute(H0, {"u": u}, ctx)
    U1_t, U1_x = _d(U1, "t", ctx), _d(U1, "x", ctx)
    U0_t, U0_x = _d(U0, "t", ctx), _d(U0, "x", ctx)
    # derivatives of U = U1 u + U0 at frozen u
    U_t = U1_t * u + U0_t
    U_x = U1_x * u + U0_x
    U_xx = _d(U1_x, "x", ctx) * u + _d(U0_x, "x", ctx)
    H0_new = div(
        U1 * H0
        + rat(2) * U_x * div(U1_x, U1) * F
        - (U_t + F * U_xx + H1 * U_x),
        T_t,
    )
    if cls is ClassId.LINZ_F:
        return {"f": H0_new}
    H1_new = div(
        X_x * H1
        + _d(X_x, "x", ctx) * F
        - rat(2) * X_x * div(U1_x, U1) * F
        + _d(X, "t", ctx),
        T_t,
    )
    if cls is ClassId.SUPER:
        return {"F": F_new, "H1": H1_new, "H0": H0_new}
    b_new = H1_new - div(_d(F_new, "x", ctx), X_x)
    read = {"a": F_new, "b": b_new, "f": H0_new}
    return {k: read[k] for k in CLASS_SPECS[cls].elements}


def _apply_lifted(tr: Transform, inst: EquationInstance) -> ApplyResult:
    """Apply tr through its GENERAL lift, read off in inst's own class."""
    ctx = _merged_context(inst, tr.family, getattr(tr, "sign_Tt", 1))
    g = to_general(tr)
    sup = embed(inst, ClassId.SUPER)
    pullback = _general_pullback(g, sup, inst.class_id, ctx)
    u = ctx.fn("u")
    fmap = PointMap(t=g.T, x=g.X, u=simplify(g.U1 * u + g.U0, ctx))

    def u_back(S: Expr, xi: Expr) -> Expr:
        U1S = _compose_tx(g.U1, S, xi, ctx)
        U0S = _compose_tx(g.U0, S, xi, ctx)
        return div(u - U0S, U1S)

    return _finish_apply(inst, tr.family, ctx, fmap, pullback, u_back)


def apply_general(tr: GeneralTransform, inst: EquationInstance) -> ApplyResult:
    """Transform a SUPER member (or anything embeddable into SUPER)."""
    return _apply_lifted(tr, embed(inst, ClassId.SUPER))


def apply_linz(tr: LinzTransform, inst: EquationInstance) -> ApplyResult:
    """Transform a LINZ_ABC member by u -> u / X_x + U0."""
    return _apply_lifted(tr, embed(inst, ClassId.LINZ_ABC))


def _gauged_x(tr: Union[GaugedTransform, ReducedTransform], ctx: Context) -> Expr:
    T_t = _d(tr.T, "t", ctx)
    return rat(tr.eps) * (sqrt(T_t) * X_VAR + tr.X0)


def apply_bf(tr: GaugedTransform, inst: EquationInstance) -> ApplyResult:
    """Transform a LINZ_BF member with the gauged family."""
    return _apply_lifted(tr, embed(inst, ClassId.LINZ_BF))


def apply_f(tr: ReducedTransform, inst: EquationInstance) -> ApplyResult:
    """Transform a LINZ_F member with the reduced family."""
    return _apply_lifted(tr, embed(inst, ClassId.LINZ_F))


def _proj_maps(tr: ProjectiveTuple, ctx: Context) -> Tuple[Expr, Expr, Expr]:
    a, b, g, d, k, m0, m1 = [_num_expr(v) for v in tr.entries()]
    t, x = T_VAR, X_VAR
    u = ctx.fn("u")
    den = g * t + d
    T = div(a * t + b, den)
    X = div(k * x + m1 * t + m0, den)
    det = _num_expr(tr.det)
    U = div(k * den * u - k * g * x + m1 * d - m0 * g, det)
    return T, X, U


def _num_expr(v: Number) -> Expr:
    if isinstance(v, Fraction):
        return rat(v)
    if isinstance(v, int):
        return rat(v)
    return rat(Fraction(v).limit_denominator(10**12))


def apply_projective(tr: ProjectiveTuple, inst: EquationInstance) -> ApplyResult:
    """Transform a GBE_TX member by a projective tuple.

    Keeps its closed form f~ = kappa^2 f / det: through the general
    pullback a PROJECTIVE sweep item ran 2-3 times slower.
    """
    inst = embed(inst, ClassId.GBE_TX)
    ctx = _merged_context(inst, "PROJECTIVE")
    T, X, U = _proj_maps(tr, ctx)
    det = _num_expr(tr.det)
    k = _num_expr(tr.kappa)
    pullback = {"f": div(k * k * inst.elements["f"], det)}
    fmap = PointMap(t=T, x=X, u=simplify(U, ctx))
    # the inverse tuple's u-map, with (t, x, u) read as target coords
    U_inv = _proj_maps(invert(tr), ctx)[2]
    return _finish_apply(
        inst, "PROJECTIVE", ctx, fmap, pullback, lambda S, xi: U_inv
    )


def div_constraint(tr: DivTransform, inst: EquationInstance) -> Expr:
    """The classifying residual tying (T, X0) to f for the DIV family.

    The transform is admissible exactly when this expression vanishes
    identically.
    """
    ctx = _merged_context(inst, "DIV", tr.sign_Tt)
    f = inst.elements["f"]
    T, X0 = tr.T, tr.X0
    k = rat(tr.kappa)
    s = rat(tr.sign_Tt)
    T_t = _d(T, "t", ctx)
    T_tt = _d(T_t, "t", ctx)
    T_ttt = _d(T_tt, "t", ctx)
    X0_t = _d(X0, "t", ctx)
    X0_tt = _d(X0_t, "t", ctx)
    root = sqrt(app("abs", T_t))
    f_x = _d(f, "x", ctx)
    return (
        k * s * div(rat(2) * T_t * T_ttt - rat(3) * T_tt * T_tt, rat(2) * root)
        * X_VAR
        + k * root * T_tt * f_x
        + rat(2) * T_t * X0_tt
        - rat(2) * T_tt * X0_t
    )


def apply_div(
    tr: DivTransform,
    inst: EquationInstance,
    tol: float = 1e-9,
    seed: int = 42,
) -> ApplyResult:
    """Transform a GBE_DIV member, checking the classifying constraint."""
    if inst.class_id not in (
        ClassId.GBE_DIV, ClassId.GBE_DIV_NONDEG, ClassId.GBE_DIV_DEG
    ):
        inst = embed(inst, ClassId.GBE_DIV)
    ctx = _merged_context(inst, "DIV", tr.sign_Tt)
    constraint = div_constraint(tr, inst)
    zr = is_zero(constraint, ctx, tol=tol, seed=seed)
    if not zr:
        raise TransformError(
            "classifying constraint fails; the map does not stay in the "
            f"class (residual {format_expr(zr.residual)[:120]})"
        )
    return _apply_lifted(tr, inst)


def linear_constraint(tr: LinearTransform, inst: EquationInstance) -> Expr:
    """Residual of the pushed zero solution; must vanish for admissibility.

    V0 must be a solution of the target equation in disguise: pushing
    v = 0 forward gives v~ = V0 along the map, and this is its target
    residual pulled back to the source coordinates.
    """
    ctx = _merged_context(inst, "LINEAR")
    pb = _linear_pullback(tr, inst, ctx)
    return _pullback_residual(
        phi=tr.V0,
        coeffs=pb,
        T=tr.T,
        X=tr.X,
        ctx=ctx,
    )


def _pullback_residual(
    phi: Expr, coeffs: Dict[str, Expr], T: Expr, X: Expr, ctx: Context
) -> Expr:
    """Target residual of the function whose pullback is phi.

    For psi(t~, x~) with phi = psi o (T, X):
        psi_x~ o map = phi_x / X_x
        psi_t~ o map = (phi_t - (X_t / X_x) phi_x) / T_t
    so the target linear residual can be formed without inverting.
    """
    T_t = _d(T, "t", ctx)
    X_t, X_x = _d(X, "t", ctx), _d(X, "x", ctx)
    phi_t, phi_x = _d(phi, "t", ctx), _d(phi, "x", ctx)
    psi_x = div(phi_x, X_x)
    psi_xx = div(_d(psi_x, "x", ctx), X_x)
    psi_t = div(phi_t - div(X_t, X_x) * phi_x, T_t)
    return (
        psi_t
        + coeffs["a"] * psi_xx
        + coeffs["b"] * psi_x
        + coeffs["c"] * phi
    )


def _linear_pullback(
    tr: LinearTransform, inst: EquationInstance, ctx: Context
) -> Dict[str, Expr]:
    """a, b, c of the target, in closed form and free of V0.

    linear_constraint needs these before V0 is known to be admissible,
    and reading c off the general H0~ would pull V0 into it.
    """
    T, X, V1 = tr.T, tr.X, tr.V1
    a, b, c = inst.elements["a"], inst.elements["b"], inst.elements["c"]
    T_t = _d(T, "t", ctx)
    X_t, X_x = _d(X, "t", ctx), _d(X, "x", ctx)
    X_xx = _d(X_x, "x", ctx)
    V1_t, V1_x = _d(V1, "t", ctx), _d(V1, "x", ctx)
    V1_xx = _d(V1_x, "x", ctx)
    a_new = div(X_x * X_x * a, T_t)
    b_new = div(
        X_x * b + X_xx * a - rat(2) * X_x * div(V1_x, V1) * a + X_t, T_t
    )
    c_new = div(
        c
        - div(V1_x, V1) * b
        + div(rat(2) * V1_x * V1_x - V1 * V1_xx, V1 * V1) * a
        - div(V1_t, V1),
        T_t,
    )
    return {"a": a_new, "b": b_new, "c": c_new}


def apply_linear(
    tr: LinearTransform,
    inst: EquationInstance,
    tol: float = 1e-9,
    seed: int = 42,
) -> ApplyResult:
    """Transform a LINEAR member by v -> V1 v + V0."""
    if inst.class_id != ClassId.LINEAR:
        raise ClassError("apply_linear expects a LINEAR instance")
    ctx = _merged_context(inst, "LINEAR")
    constraint = linear_constraint(tr, inst)
    zr = is_zero(constraint, ctx, tol=tol, seed=seed)
    if not zr:
        raise TransformError(
            "V0 is not a pushed solution; the map leaves the class "
            f"(residual {format_expr(zr.residual)[:120]})"
        )
    pullback = _linear_pullback(tr, inst, ctx)
    v = ctx.fn("v")
    fmap = PointMap(t=tr.T, x=tr.X, u=simplify(tr.V1 * v + tr.V0, ctx))

    def v_back(S: Expr, xi: Expr) -> Expr:
        V1S = _compose_tx(tr.V1, S, xi, ctx)
        V0S = _compose_tx(tr.V0, S, xi, ctx)
        return div(v - V0S, V1S)

    return _finish_apply(inst, "LINEAR", ctx, fmap, pullback, v_back)


APPLY_BY_FAMILY = {
    "GENERAL": apply_general,
    "LINZ": apply_linz,
    "GAUGED": apply_bf,
    "REDUCED": apply_f,
    "PROJECTIVE": apply_projective,
    "DIV": apply_div,
    "LINEAR": apply_linear,
}


def apply_transform(tr: Transform, inst: EquationInstance, **kw) -> ApplyResult:
    """Dispatch on the transform family."""
    if isinstance(tr, ImplicitInverseOf):
        raise TransformError(
            "an implicit inverse has no closed maps to apply; use the "
            "forward transform"
        )
    if isinstance(tr, AffineDivTransform):
        return apply_div(tr.to_div(), inst, **kw)
    fn = APPLY_BY_FAMILY[tr.family]
    return fn(tr, inst, **kw) if tr.family in ("DIV", "LINEAR") else fn(tr, inst)


# ---------------------------------------------------------------------------
# identities, composition, inversion


def identity_general() -> GeneralTransform:
    return GeneralTransform(T=T_VAR, X=X_VAR, U1=ONE, U0=ZERO)


def identity_linz() -> LinzTransform:
    return LinzTransform(T=T_VAR, X=X_VAR, U0=ZERO)


def identity_gauged() -> GaugedTransform:
    return GaugedTransform(T=T_VAR, X0=ZERO, U0=ZERO, eps=Fraction(1))


def identity_reduced() -> ReducedTransform:
    return ReducedTransform(T=T_VAR, X0=ZERO, eps=Fraction(1))


def identity_projective() -> ProjectiveTuple:
    one = Fraction(1)
    zero = Fraction(0)
    return ProjectiveTuple(one, zero, zero, one, one, zero, zero)


def identity_div() -> DivTransform:
    return DivTransform(T=T_VAR, X0=ZERO, kappa=Fraction(1), sign_Tt=1)


def identity_affine_div() -> AffineDivTransform:
    return AffineDivTransform(
        Fraction(0), Fraction(1), Fraction(0), Fraction(0), Fraction(1)
    )


def identity_linear() -> LinearTransform:
    return LinearTransform(T=T_VAR, X=X_VAR, V1=ONE, V0=ZERO)


def to_general(tr: Transform) -> GeneralTransform:
    """Lift any family member to the widest family."""
    if isinstance(tr, GeneralTransform):
        return tr
    if isinstance(tr, LinzTransform):
        ctx = transform_context("LINZ")
        X_x = _d(tr.X, "x", ctx)
        return GeneralTransform(T=tr.T, X=tr.X, U1=div(ONE, X_x), U0=tr.U0)
    if isinstance(tr, GaugedTransform):
        ctx = transform_context("GAUGED")
        rootT = sqrt(_d(tr.T, "t", ctx))
        eps = rat(tr.eps)
        return GeneralTransform(
            T=tr.T,
            X=eps * (rootT * X_VAR + tr.X0),
            U1=div(eps, rootT),
            U0=eps * tr.U0,
        )
    if isinstance(tr, ReducedTransform):
        return to_general(to_gauged(tr))
    if isinstance(tr, ProjectiveTuple):
        ctx = transform_context("PROJECTIVE")
        ctx.add_function("u", ("t", "x"))
        T, X, U = _proj_maps(tr, ctx)
        U0 = simplify(substitute(U, {"u": ZERO}, ctx), ctx)
        U1 = simplify(substitute(U - U0, {"u": ONE}, ctx), ctx)
        return GeneralTransform(T=T, X=X, U1=U1, U0=U0)
    if isinstance(tr, DivTransform):
        ctx = transform_context("DIV", tr.sign_Tt)
        T_t = _d(tr.T, "t", ctx)
        T_tt = _d(T_t, "t", ctx)
        root = sqrt(app("abs", T_t))
        k = rat(tr.kappa)
        return GeneralTransform(
            T=tr.T,
            X=k * root * X_VAR + tr.X0,
            U1=div(k * root, T_t),
            U0=div(k * T_tt * root, rat(2) * T_t * T_t) * X_VAR
            + div(_d(tr.X0, "t", ctx), T_t),
        )
    if isinstance(tr, AffineDivTransform):
        return to_general(tr.to_div())
    if isinstance(tr, LinearTransform):
        return GeneralTransform(T=tr.T, X=tr.X, U1=tr.V1, U0=tr.V0)
    raise TransformError(f"cannot lift {type(tr).__name__}")


def to_gauged(tr: ReducedTransform) -> GaugedTransform:
    """The GAUGED member with U0 = T_tt/(2 T_t^(3/2)) x + X0_t/T_t."""
    ctx = transform_context("REDUCED")
    T_t = _d(tr.T, "t", ctx)
    T_tt, X0_t = _d(T_t, "t", ctx), _d(tr.X0, "t", ctx)
    U0 = div(T_tt, rat(2) * pow_(T_t, Fraction(3, 2))) * X_VAR + div(X0_t, T_t)
    return GaugedTransform(T=tr.T, X0=tr.X0, U0=U0, eps=tr.eps)


def _compose_general(
    second: GeneralTransform, first: GeneralTransform, ctx: Context
) -> GeneralTransform:
    T1, X1, U11, U01 = first.T, first.X, first.U1, first.U0
    comp = lambda e: simplify(_compose_tx(e, T1, X1, ctx), ctx)
    return GeneralTransform(
        T=simplify(_compose_tx(second.T, T1, None, ctx), ctx),
        X=comp(second.X),
        U1=simplify(comp(second.U1) * U11, ctx),
        U0=simplify(comp(second.U1) * U01 + comp(second.U0), ctx),
    )


def compose(second: Transform, first: Transform) -> Transform:
    """The transform acting as `first, then second`.

    Members of one family compose within it in closed form.  A mixed
    pair is lifted through to_general and composed there, so the
    result is a GeneralTransform (or LinearTransform when one factor
    acts on v).
    """
    if isinstance(second, ImplicitInverseOf) or isinstance(first, ImplicitInverseOf):
        raise TransformError(
            "an implicit inverse has no closed form to compose with"
        )
    if type(second) is not type(first):
        if isinstance(second, LinearTransform) or isinstance(first, LinearTransform):
            raise TransformError(
                "transforms acting on v only compose with their own family"
            )
        ctx = transform_context("GENERAL")
        return _compose_general(to_general(second), to_general(first), ctx)
    if isinstance(first, GeneralTransform):
        return _compose_general(second, first, transform_context("GENERAL"))
    if isinstance(first, LinzTransform):
        ctx = transform_context("LINZ")
        g = _compose_general(to_general(second), to_general(first), ctx)
        return LinzTransform(T=g.T, X=g.X, U0=g.U0)
    if isinstance(first, GaugedTransform):
        ctx = transform_context("GAUGED")
        T1, X01, U01 = first.T, first.X0, first.U0
        e1 = rat(first.eps)
        T2t = _d(second.T, "t", ctx)
        rootT2_at_T1 = simplify(sqrt(_compose_tx(T2t, T1, None, ctx)), ctx)
        X1full = _gauged_x(first, ctx)
        T_new = simplify(_compose_tx(second.T, T1, None, ctx), ctx)
        X0_new = simplify(
            rootT2_at_T1 * X01 + e1 * _compose_tx(second.X0, T1, None, ctx), ctx
        )
        U0_new = simplify(
            div(U01, rootT2_at_T1) + e1 * _compose_tx(second.U0, T1, X1full, ctx),
            ctx,
        )
        return GaugedTransform(
            T=T_new, X0=X0_new, U0=U0_new, eps=first.eps * second.eps
        )
    if isinstance(first, ReducedTransform):
        g = compose(_as_gauged(second), _as_gauged(first))
        return ReducedTransform(T=g.T, X0=g.X0, eps=g.eps)
    if isinstance(first, ProjectiveTuple):
        m2 = second.matrix()
        m1 = first.matrix()
        prod = tuple(
            tuple(sum(m2[i][k] * m1[k][j] for k in range(3)) for j in range(3))
            for i in range(3)
        )
        return _unmat(prod).canonical()
    if isinstance(first, DivTransform):
        ctx = transform_context("DIV", first.sign_Tt)
        T1, X01 = first.T, first.X0
        T2t = _d(second.T, "t", ctx)
        root2_at_T1 = simplify(
            sqrt(app("abs", _compose_tx(T2t, T1, None, ctx))), ctx
        )
        return DivTransform(
            T=simplify(_compose_tx(second.T, T1, None, ctx), ctx),
            X0=simplify(
                rat(second.kappa) * root2_at_T1 * X01
                + _compose_tx(second.X0, T1, None, ctx),
                ctx,
            ),
            kappa=first.kappa * second.kappa,
            sign_Tt=first.sign_Tt * second.sign_Tt,
        )
    if isinstance(first, AffineDivTransform):
        k1, k2 = first.kappa, second.kappa
        c11, c12 = first.c1, second.c1
        kc = k1 * k2 * c11 * c12
        c1_new = abs(c11 * c12)
        kappa_new = kc / c1_new
        return AffineDivTransform(
            c0=second.c1 * second.c1 * first.c0 + second.c0,
            c1=c1_new,
            c2=k2 * c12 * first.c2 + second.c2 * c11 * c11,
            c3=k2 * c12 * first.c3 + second.c2 * first.c0 + second.c3,
            kappa=kappa_new,
        )
    if isinstance(first, LinearTransform):
        ctx = transform_context("LINEAR")
        g = _compose_general(to_general(second), to_general(first), ctx)
        return LinearTransform(T=g.T, X=g.X, V1=g.U1, V0=g.U0)
    raise TransformError(f"cannot compose {type(first).__name__}")


def _as_gauged(tr: Union[GaugedTransform, ReducedTransform]) -> GaugedTransform:
    return tr if isinstance(tr, GaugedTransform) else to_gauged(tr)


def _unmat(m: Tuple[Tuple[Number, ...], ...]) -> ProjectiveTuple:
    return ProjectiveTuple(
        alpha=m[0][0], beta=m[0][2], gamma=m[2][0], delta=m[2][2],
        kappa=m[1][1], mu0=m[1][2], mu1=m[1][0],
    )


def invert(tr: Transform) -> Union[Transform, ImplicitInverseOf]:
    """The inverse transform, or an ImplicitInverseOf marker.

    The marker appears when the coordinate change cannot be inverted
    in closed form (T not a Mobius map of t, or X not affine in x);
    the inverse still exists as a groupoid element and can be checked
    by applying the forward transform.
    """
    if isinstance(tr, ImplicitInverseOf):
        return tr.of
    if isinstance(tr, GeneralTransform):
        ctx = transform_context("GENERAL")
        inv = closed_inverse(tr.T, tr.X, ctx)
        if inv is None:
            return ImplicitInverseOf(tr)
        S, xi = inv
        U1S = _compose_tx(tr.U1, S, xi, ctx)
        U0S = _compose_tx(tr.U0, S, xi, ctx)
        return GeneralTransform(
            T=S, X=xi,
            U1=simplify(div(ONE, U1S), ctx),
            U0=simplify(-div(U0S, U1S), ctx),
        )
    if isinstance(tr, LinzTransform):
        g = invert(to_general(tr))
        if isinstance(g, ImplicitInverseOf):
            return ImplicitInverseOf(tr)
        return LinzTransform(T=g.T, X=g.X, U0=g.U0)
    if isinstance(tr, GaugedTransform):
        ctx = transform_context("GAUGED")
        inv = closed_inverse(tr.T, _gauged_x(tr, ctx), ctx)
        if inv is None:
            return ImplicitInverseOf(tr)
        S, xi = inv
        S_t = _d(S, "t", ctx)
        rootS = sqrt(S_t)
        eps = rat(tr.eps)
        return GaugedTransform(
            T=S,
            X0=simplify(-eps * _compose_tx(tr.X0, S, None, ctx) * rootS, ctx),
            U0=simplify(-eps * div(_compose_tx(tr.U0, S, xi, ctx), rootS), ctx),
            eps=tr.eps,
        )
    if isinstance(tr, ReducedTransform):
        g = invert(to_gauged(tr))
        if isinstance(g, ImplicitInverseOf):
            return ImplicitInverseOf(tr)
        return ReducedTransform(T=g.T, X0=g.X0, eps=g.eps)
    if isinstance(tr, ProjectiveTuple):
        a, b, g, d, k, m0, m1 = tr.entries()
        det = tr.det
        # adjugate of the 3x3 matrix, block by block
        adj = (
            (d * k, a * 0, -b * k),
            (m0 * g - m1 * d, det, b * m1 - a * m0),
            (-g * k, a * 0, a * k),
        )
        return _unmat(adj).canonical()
    if isinstance(tr, DivTransform):
        ctx = transform_context("DIV", tr.sign_Tt)
        T_t = _d(tr.T, "t", ctx)
        root = sqrt(app("abs", T_t))
        X = rat(tr.kappa) * root * X_VAR + tr.X0
        inv = closed_inverse(tr.T, X, ctx)
        if inv is None:
            return ImplicitInverseOf(tr)
        S, xi = inv
        S_t = _d(S, "t", ctx)
        rootS = sqrt(app("abs", S_t))
        return DivTransform(
            T=S,
            X0=simplify(
                -div(_compose_tx(tr.X0, S, None, ctx) * rootS, rat(tr.kappa)),
                ctx,
            ),
            kappa=Fraction(1) / tr.kappa,
            sign_Tt=tr.sign_Tt,
        )
    if isinstance(tr, AffineDivTransform):
        k, c0, c1, c2, c3 = tr.kappa, tr.c0, tr.c1, tr.c2, tr.c3
        c1i = Fraction(1) / c1
        return AffineDivTransform(
            c0=-c0 / (c1 * c1),
            c1=c1i,
            c2=-c2 / (k * c1 * c1 * c1),
            c3=(c2 * c0 - c3 * c1 * c1) / (k * c1 * c1 * c1),
            kappa=Fraction(1) / k,
        )
    if isinstance(tr, LinearTransform):
        g = invert(to_general(tr))
        if isinstance(g, ImplicitInverseOf):
            return ImplicitInverseOf(tr)
        return LinearTransform(T=g.T, X=g.X, V1=g.U1, V0=g.U0)
    raise TransformError(f"cannot invert {type(tr).__name__}")


def transforms_equal(
    a: Transform, b: Transform, ctx: Optional[Context] = None,
    tol: float = 1e-9, seed: int = 42,
) -> bool:
    """Parameter-wise identity test within one family."""
    if type(a) is not type(b):
        return False
    if isinstance(a, ImplicitInverseOf):
        return transforms_equal(a.of, b.of, ctx, tol=tol, seed=seed)
    if isinstance(a, ProjectiveTuple):
        return a.close_to(b)
    for name in a.param_names:
        pa, pb = getattr(a, name), getattr(b, name)
        if isinstance(pa, (Fraction, int)) or isinstance(pb, (Fraction, int)):
            if Fraction(pa) != Fraction(pb):
                return False
            continue
        family_ctx = ctx or transform_context(a.family)
        if not is_zero(pa - pb, family_ctx, tol=tol, seed=seed):
            return False
    return True


# ---------------------------------------------------------------------------
# gauge reductions


@dataclass
class GaugeResult:
    """A gauge reduction: the transform used and the evidence it worked."""

    transform: Transform
    result: ApplyResult
    instance: Optional[EquationInstance]
    report: VerificationReport

    @property
    def ok(self) -> bool:
        return self.report.ok


def _element_sign(a: Expr, ctx: Context, tol: float, seed: int) -> Tuple[int, str]:
    """Constant sign of a nonvanishing element, or TransformError."""
    plus = is_zero(a - app("abs", a), ctx, tol=tol, seed=seed)
    if plus:
        return 1, plus.verdict
    minus = is_zero(a + app("abs", a), ctx, tol=tol, seed=seed)
    if minus:
        return -1, minus.verdict
    raise TransformError(
        "the gauge needs a of one fixed sign; "
        f"a - |a| and a + |a| both fail to vanish for a = {format_expr(a)}"
    )


def gauge_a_to_one(
    inst: EquationInstance,
    tol: float = 1e-9,
    seed: int = 42,
    assumptions: Sequence[Tuple[str, str]] = (),
) -> GaugeResult:
    """Reduce a LINZ_ABC member to a = 1 by rescaling t, x, u.

    Uses t -> s t, x -> int(dx / (s a)^(1/2)), u -> (s a)^(1/2) u with
    s the (constant) sign of a.  The sign must be derivable: from the
    expression itself, by sampling, or from a (name, flag) assumption
    such as ("a", "positive").
    """
    if inst.class_id != ClassId.LINZ_ABC:
        inst = embed(inst, ClassId.LINZ_ABC)
    ctx = _merged_context(inst, "LINZ")
    for name, flag in assumptions:
        ctx.assume_name(name, flag)
    a = inst.elements["a"]
    s, sign_verdict = _element_sign(a, ctx, tol, seed)

    tr = LinzTransform(
        T=rat(s) * T_VAR,
        X=integral(pow_(rat(s) * a, Fraction(-1, 2)), "x"),
        U0=ZERO,
    )
    res = apply_linz(tr, inst)
    gauge_check = is_zero(res.pullback["a"] - ONE, ctx, tol=tol, seed=seed)
    conditions = [
        ConditionReport(
            description=f"a has constant sign ({'+' if s > 0 else '-'}1)",
            ok=True,
            verdict=sign_verdict,
        ),
        ConditionReport(
            description="transformed a equals 1",
            ok=bool(gauge_check),
            verdict=gauge_check.verdict,
            detail=gauge_check.summary(),
        ),
    ]
    narrowed = None
    note = ""
    if gauge_check:
        if res.target is not None:
            src = res.target.elements
        else:
            # no closed-form inverse: hand back the elements as
            # functions of the source coordinates, flagged as such
            src = res.pullback
            note = "; elements in source coordinates (forward form)"
        narrowed = EquationInstance(
            ClassId.LINZ_BF, {"b": src["b"], "f": src["f"]}
        )
    report = VerificationReport(
        verdict=gauge_check.verdict if gauge_check else REJECTED,
        residual_text=format_expr(simplify(res.pullback["a"] - ONE, ctx)),
        tolerance=tol,
        seed=seed,
        summary="gauge a -> 1: " + gauge_check.summary() + note,
        conditions=conditions,
    )
    return GaugeResult(transform=tr, result=res, instance=narrowed, report=report)


def gauge_b_to_zero(
    inst: EquationInstance,
    tol: float = 1e-9,
    seed: int = 42,
    assumptions: Sequence[Tuple[str, str]] = (),
) -> GaugeResult:
    """Reduce a LINZ_BF member to b = 0 by the shift u -> u + b."""
    if inst.class_id != ClassId.LINZ_BF:
        inst = embed(inst, ClassId.LINZ_BF)
    ctx = _merged_context(inst, "GAUGED")
    for name, flag in assumptions:
        ctx.assume_name(name, flag)
    b = inst.elements["b"]

    tr = GaugedTransform(T=T_VAR, X0=ZERO, U0=b, eps=Fraction(1))
    res = apply_bf(tr, inst)
    gauge_check = is_zero(res.pullback["b"], ctx, tol=tol, seed=seed)
    conditions = [
        ConditionReport(
            description="transformed b vanishes",
            ok=bool(gauge_check),
            verdict=gauge_check.verdict,
            detail=gauge_check.summary(),
        )
    ]
    narrowed = None
    if res.target is not None and gauge_check:
        narrowed = EquationInstance(
            ClassId.LINZ_F, {"f": res.target.elements["f"]}
        )
    report = VerificationReport(
        verdict=gauge_check.verdict if gauge_check else REJECTED,
        residual_text=format_expr(simplify(res.pullback["b"], ctx)),
        tolerance=tol,
        seed=seed,
        summary="gauge b -> 0: " + gauge_check.summary(),
        conditions=conditions,
    )
    return GaugeResult(transform=tr, result=res, instance=narrowed, report=report)


# ---------------------------------------------------------------------------
# file format


FAMILY_TYPES: Dict[str, type] = {
    "GENERAL": GeneralTransform,
    "LINZ": LinzTransform,
    "GAUGED": GaugedTransform,
    "REDUCED": ReducedTransform,
    "PROJECTIVE": ProjectiveTuple,
    "DIV": DivTransform,
    "AFFINE_DIV": AffineDivTransform,
    "LINEAR": LinearTransform,
}

_NUMERIC_PARAMS = {"eps", "kappa", "sign_Tt"} | set(ProjectiveTuple.param_names) | {
    "c0", "c1", "c2", "c3"
}

_OPTIONAL_PARAMS = {"eps", "kappa", "sign_Tt"}


def parse_transform(text: str) -> Transform:
    """Read the `family = TAG` / `param.<name> = <value>` file format.

    Exact numeric parameters (eps, kappa, tuple entries, affine
    constants) are fractions; everything else parses as an expression
    in t, x with the family's own symbols in scope.
    """
    family: Optional[str] = None
    implicit = False
    raw: Dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise TransformError(f"line {lineno}: expected key = value")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "family":
            if value not in FAMILY_TYPES:
                raise TransformError(f"line {lineno}: unknown family {value!r}")
            family = value
        elif key == "implicit":
            if value not in ("true", "false"):
                raise TransformError(
                    f"line {lineno}: implicit must be true or false"
                )
            implicit = value == "true"
        elif key.startswith("param."):
            raw[key[len("param."):]] = value
        else:
            raise TransformError(f"line {lineno}: unexpected key {key!r}")
    if family is None:
        raise TransformError("missing `family = <TAG>` line")
    cls = FAMILY_TYPES[family]
    expected = cls.param_names
    unknown = set(raw) - set(expected)
    if unknown:
        raise TransformError(f"unknown parameters for {family}: {sorted(unknown)}")

    sign = 1
    if "sign_Tt" in raw:
        sign = int(Fraction(raw["sign_Tt"]))
    ctx = transform_context(family, sign)
    kwargs: Dict[str, Union[Expr, Fraction, int]] = {}
    for name in expected:
        if name not in raw:
            continue
        value = raw[name]
        if name in _NUMERIC_PARAMS:
            try:
                num = Fraction(value)
            except (ValueError, ZeroDivisionError):
                raise TransformError(
                    f"parameter {name} must be an exact number, got {value!r}"
                ) from None
            kwargs[name] = int(num) if name == "sign_Tt" else num
        else:
            kwargs[name] = parse(value, ctx)
    missing = [n for n in expected if n not in kwargs and n not in _OPTIONAL_PARAMS]
    if missing:
        raise TransformError(f"{family} needs parameters {missing}")
    built = cls(**kwargs)
    return ImplicitInverseOf(built) if implicit else built


def format_transform(tr: Union[Transform, ImplicitInverseOf]) -> str:
    lines = [f"family = {tr.family}"]
    if isinstance(tr, ImplicitInverseOf):
        lines.append("implicit = true")
        tr = tr.of
    for name in tr.param_names:
        value = getattr(tr, name)
        if isinstance(value, (Fraction, int)):
            lines.append(f"param.{name} = {value}")
        else:
            lines.append(f"param.{name} = {format_expr(value)}")
    return "\n".join(lines) + "\n"
