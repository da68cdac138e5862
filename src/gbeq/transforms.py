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
    PROJECTIVE  on GBE_TX:   fractional-linear in t, affine in x, with
                             exact constant entries defined up to scale
    DIV         on GBE_DIV:  t -> T, x -> kappa (sign_Tt T_t)^(1/2) x + X0,
                             with a classifying constraint tying T, X0 to f
    AFFINE_DIV  on GBE_DIV:  the affine T subfamily of DIV
    LINEAR      on LINEAR:   v -> V1 v + V0, with V0 constrained to be
                             a pushed solution

Every family lifts into GENERAL (to_general) and every class embeds
into SUPER, so there is one entry point, apply_transform, and one
pullback formula, _general_pullback: the member is embedded into the
class its family acts on (acts_on), the lifted map acts on it embedded
in SUPER, and the elements of the member's own class are read off the
result.  compose and invert work the same way: they compose or invert
the GENERAL lifts, and one restriction, _restrict, reads the family's
own parameters back (X0 is X at x = 0; eps, kappa and sign_Tt come
from the factors).  REDUCED and DIV fix their u-map by their
coordinate change, so for them only (T, X) is composed or inverted.
AFFINE_DIV applies, composes and inverts as the DIV member it names
(to_div), and its constants are read back off T and X0.  DIV and
LINEAR check one constraint before the lifted apply: H0~ of the lift
where the target u~ (v~ for LINEAR) vanishes, read off the same
pullback.  DIV's lift takes its root of sign_Tt T_t, which is |T_t| on
the member's declared domain, so no abs enters it.  One family keeps
closed forms of its own:

    PROJECTIVE  f~ = kappa^2 f / det, since the general route made its
                sweep items 2-3 times slower; compose and invert are the
                3x3 matrix product and adjugate, left unscaled

apply_transform returns the transformed elements both as pullbacks
(functions of the source coordinates) and, whenever the coordinate
change inverts in closed form, as a target-coordinate instance.  The
pullbacks and the forward map are built by the call; the target
instance, the inverse map and the note are built together on the first
read of any of them, so a caller that reads only pullbacks never
inverts the map.  A mixed pair composes in GENERAL; tests check the
restricted compositions and inverses against closed-form formulas in
each family's parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

from .classes import (
    CLASS_SPECS,
    ClassId,
    EquationInstance,
    class_context,
    embed,
)
from .expr import (
    Add,
    Context,
    Expr,
    NONZERO,
    ONE,
    Rat,
    ZERO,
    add,
    app,
    as_expr,
    collect,
    contains_var,
    differentiate,
    div,
    format_expr,
    integral,
    is_zero,
    normal_form_is_zero,
    parse,
    pow_,
    rat,
    ratio_normal,
    simplify,
    sqrt,
    substitute,
    var,
)
from .expr.fmt import format_head
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
    acts_on = ClassId.SUPER
    param_names = ("T", "X", "U1", "U0")


@dataclass(frozen=True)
class LinzTransform:
    """t -> T(t), x -> X(t,x), u -> u / X_x + U0(t,x)."""

    T: Expr
    X: Expr
    U0: Expr

    family = "LINZ"
    acts_on = ClassId.LINZ_ABC
    param_names = ("T", "X", "U0")


@dataclass(frozen=True)
class GaugedTransform:
    """t -> T(t), x -> eps (sqrt(T_t) x + X0(t)), u -> eps (u / sqrt(T_t) + U0)."""

    T: Expr
    X0: Expr
    U0: Expr
    eps: Fraction = Fraction(1)

    family = "GAUGED"
    acts_on = ClassId.LINZ_BF
    param_names = ("T", "X0", "U0", "eps")

    def __post_init__(self) -> None:
        if self.eps not in (Fraction(1), Fraction(-1)):
            raise TransformError("eps must be +1 or -1")


@dataclass(frozen=True)
class ReducedTransform:
    """The GAUGED subfamily generated by (T, X0) alone."""

    T: Expr
    X0: Expr
    eps: Fraction = Fraction(1)

    family = "REDUCED"
    acts_on = ClassId.LINZ_F
    param_names = ("T", "X0", "eps")

    def __post_init__(self) -> None:
        if self.eps not in (Fraction(1), Fraction(-1)):
            raise TransformError("eps must be +1 or -1")


@dataclass(frozen=True)
class ProjectiveTuple:
    """(alpha, beta, gamma, delta, kappa, mu0, mu1), scale-equivalent.

    t -> (alpha t + beta)/(gamma t + delta)
    x -> (kappa x + mu1 t + mu0)/(gamma t + delta)
    u -> (kappa (gamma t + delta) u - kappa gamma x + mu1 delta - mu0 gamma)
             / (alpha delta - beta gamma)

    Entries are exact constant expressions; ints and Fractions are
    coerced to Rat nodes and a float raises TypeError.
    """

    alpha: Expr
    beta: Expr
    gamma: Expr
    delta: Expr
    kappa: Expr
    mu0: Expr
    mu1: Expr

    family = "PROJECTIVE"
    acts_on = ClassId.GBE_TX
    param_names = ("alpha", "beta", "gamma", "delta", "kappa", "mu0", "mu1")

    def __post_init__(self) -> None:
        for name in self.param_names:
            object.__setattr__(self, name, as_expr(getattr(self, name)))
        if self.det == ZERO:
            raise TransformError("alpha*delta - beta*gamma must not vanish")
        if self.kappa == ZERO:
            raise TransformError("kappa must not vanish")

    @property
    def det(self) -> Expr:
        return self.alpha * self.delta - self.beta * self.gamma

    def entries(self) -> Tuple[Expr, ...]:
        return (
            self.alpha, self.beta, self.gamma, self.delta,
            self.kappa, self.mu0, self.mu1,
        )

    def matrix(self) -> Tuple[Tuple[Expr, ...], ...]:
        """Action on the projective column (t : x : 1)."""
        a, b, g, d, k, m0, m1 = self.entries()
        return ((a, ZERO, b), (m1, k, m0), (g, ZERO, d))


@dataclass(frozen=True)
class DivTransform:
    """t -> T(t), x -> kappa (sign_Tt T_t)^(1/2) x + X0(t), sign_Tt = sign T_t."""

    T: Expr
    X0: Expr
    kappa: Fraction = Fraction(1)
    sign_Tt: int = 1

    family = "DIV"
    acts_on = ClassId.GBE_DIV
    param_names = ("T", "X0", "kappa", "sign_Tt")

    def __post_init__(self) -> None:
        if self.kappa == 0:
            raise TransformError("kappa must not vanish")
        if self.sign_Tt not in (1, -1):
            raise TransformError("sign_Tt must be +1 or -1")


@dataclass(frozen=True)
class AffineDivTransform:
    """t -> c1^2 t + c0, x -> kappa c1 x + c2 t + c3, canonical c1 > 0."""

    c0: Fraction
    c1: Fraction
    c2: Fraction
    c3: Fraction
    kappa: Fraction = Fraction(1)

    family = "AFFINE_DIV"
    acts_on = ClassId.GBE_DIV
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
    acts_on = ClassId.LINEAR
    param_names = ("T", "X", "V1", "V0")


# eps, kappa and sign_Tt: the exact numbers beside a family's
# expressions; optional in a file, multiplied under compose
_FAMILY_NUMBERS = ("eps", "kappa", "sign_Tt")


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
    """Declarations and assumptions under which a family's params parse.

    Each call returns a fresh copy, which the caller may extend.
    """
    return _transform_template(family, sign_Tt).copy()


@lru_cache(maxsize=None)
def _transform_template(family: str, sign_Tt: int) -> Context:
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
    """Class context plus family declarations and assumptions, as a fresh copy."""
    return _merged_template(inst.class_id, family, sign_Tt).copy()


@lru_cache(maxsize=None)
def _merged_template(cid: ClassId, family: str, sign_Tt: int) -> Context:
    ctx = class_context(cid)
    fam = _transform_template(family, sign_Tt)
    for name, sig in fam.functions.items():
        ctx.add_function(name, sig)
    for target, flags in fam.assumptions.items():
        for flag in flags:
            ctx.assume(target, flag)
    for name in CLASS_SPECS[cid].nonvanishing:
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


_Closed = Tuple[Optional[EquationInstance], Optional[PointMap], str]


@dataclass
class ApplyResult:
    """Everything apply_transform knows about the transformed instance.

    source, family, map and pullback are built by apply_transform.
    target, inverse and note are built together the first time any of
    them is read, by the one step _finish_apply hands over, and then
    kept: the groupoid checks read only the pullback of most results,
    and the closed-form inversion behind the target was most of their
    apply time.  An error in that step surfaces on the first read.
    """

    source: EquationInstance
    family: str
    map: PointMap
    pullback: Dict[str, Expr]
    _closed_step: Callable[[], _Closed] = field(repr=False, compare=False)

    @cached_property
    def _closed(self) -> _Closed:
        return self._closed_step()

    @property
    def target(self) -> Optional[EquationInstance]:
        """The transformed member in target coordinates, or None."""
        return self._closed[0]

    @property
    def inverse(self) -> Optional[PointMap]:
        """Source coordinates in target ones, or None."""
        return self._closed[1]

    @property
    def note(self) -> str:
        """Why target is None; empty when it is not."""
        return self._closed[2]

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
        if contains_var(coeff, "t") or contains_var(coeff, "x"):
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
        n, d = ratio_normal(Q)
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
    """Build an ApplyResult whose target, once read, is in inst's class.

    u_inverse_of(S, xi) must return the source dependent variable as an
    expression in the target coordinates (with the target dependent
    written through the same symbol name).  It runs only when the
    target, inverse or note is first read.
    """
    pullback = {k: simplify(v, ctx) for k, v in pullback.items()}
    # the step gets its own copy of the pullback and not inst, so
    # mutating either after apply returns cannot change the target
    step = partial(
        _closed_form, inst.class_id, inst.dependent, ctx, fmap,
        dict(pullback), u_inverse_of,
    )
    return ApplyResult(inst, family, fmap, pullback, _closed_step=step)


def _closed_form(
    class_id: ClassId,
    dependent: str,
    ctx: Context,
    fmap: PointMap,
    pullback: Dict[str, Expr],
    u_inverse_of: Callable[[Expr, Expr], Expr],
) -> _Closed:
    """(target, inverse, note) of an ApplyResult: see _finish_apply."""
    inv = closed_inverse(fmap.t, fmap.x, ctx)
    if inv is None:
        return (
            None, None,
            f"{IMPLICIT}: coordinate change has no closed-form inverse here",
        )
    S, xi = inv
    u_back = u_inverse_of(S, xi)
    mapping = {"t": S, "x": xi, dependent: u_back}
    # the pullback is simplified and substitute rebuilds through the
    # canonical constructors, so the elements need no second pass
    elements = {k: substitute(v, mapping, ctx) for k, v in pullback.items()}
    return (
        EquationInstance(class_id, elements),
        PointMap(t=S, x=xi, u=simplify(u_back, ctx)),
        "",
    )


_LINZ_CLASSES = (ClassId.LINZ_ABC, ClassId.LINZ_BF, ClassId.LINZ_F)


def _general_pullback(
    g: GeneralTransform, sup: EquationInstance, cls: ClassId, ctx: Context
) -> Dict[str, Expr]:
    """The SUPER pullback of sup under g, read off as the elements of cls.

    SUPER keeps F, H1, H0 with the source u free.  A GBE class reads f
    off F~ alone.  A LINZ class reads a = F~, b = H1~ - (F~)_x / X_x and
    f = H0~ at the source u where the target u~ = U1 u + U0 vanishes.
    LINEAR reads a = F~ and b = H1~.  Its H0~ is c~ (U1 u + U0) - R,
    where R, the target residual of V0 pulled back, is linear in U0
    and c~ does not involve U0.  So with U0 dropped H0~ = c~ U1 u, c
    is that at u = 1/U1, and V0 never enters its tree.  The elements a
    class drops vanish by the shape of its family, so they are not
    built.
    """
    T, X, U1, U0 = g.T, g.X, g.U1, g.U0
    F, H1, H0 = sup.elements["F"], sup.elements["H1"], sup.elements["H0"]
    # one derivative memo per variable for this call: U1, U0, X_x and
    # their derivatives share subtrees, each differentiated once
    memos: Dict[str, Dict[Expr, Expr]] = {"t": {}, "x": {}}

    def d(e: Expr, v: str) -> Expr:
        return differentiate(e, v, ctx, memos[v])

    T_t, X_x = d(T, "t"), d(X, "x")
    F_new = div(X_x * X_x * F, T_t)
    if cls is ClassId.SUPER:
        u = ctx.fn("u")
    elif cls is ClassId.LINEAR:
        U0, u = ZERO, div(ONE, U1)
    elif cls in _LINZ_CLASSES:
        u = div(-U0, U1)
    else:
        return {"f": F_new}
    if cls is not ClassId.SUPER:
        # put u into the small source elements, not the pulled-back trees
        H1 = substitute(H1, {"u": u}, ctx)
        H0 = substitute(H0, {"u": u}, ctx)
    U1_t, U1_x = d(U1, "t"), d(U1, "x")
    U0_t, U0_x = d(U0, "t"), d(U0, "x")
    # derivatives of U = U1 u + U0 at frozen u
    U_t = U1_t * u + U0_t
    U_x = U1_x * u + U0_x
    U_xx = d(U1_x, "x") * u + d(U0_x, "x")
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
        + d(X_x, "x") * F
        - rat(2) * X_x * div(U1_x, U1) * F
        + d(X, "t"),
        T_t,
    )
    if cls is ClassId.SUPER:
        return {"F": F_new, "H1": H1_new, "H0": H0_new}
    if cls is ClassId.LINEAR:
        return {"a": F_new, "b": H1_new, "c": H0_new}
    b_new = H1_new - div(d(F_new, "x"), X_x)
    read = {"a": F_new, "b": b_new, "f": H0_new}
    return {k: read[k] for k in CLASS_SPECS[cls].elements}


def _proj_maps(tr: ProjectiveTuple, u: Expr) -> Tuple[Expr, Expr, Expr]:
    """The point maps (T, X, U) of tr, with u the dependent variable."""
    a, b, g, d, k, m0, m1 = tr.entries()
    t, x = T_VAR, X_VAR
    den = g * t + d
    T = div(a * t + b, den)
    X = div(k * x + m1 * t + m0, den)
    U = div(k * den * u - k * g * x + m1 * d - m0 * g, tr.det)
    return T, X, U


def _apply_projective(tr: ProjectiveTuple, inst: EquationInstance) -> ApplyResult:
    """Transform a GBE_TX member by a projective tuple.

    Keeps its closed form f~ = kappa^2 f / det: through the general
    pullback a PROJECTIVE sweep item ran 2-3 times slower.
    """
    ctx = _merged_context(inst, "PROJECTIVE")
    T, X, U = _proj_maps(tr, ctx.fn("u"))
    k = tr.kappa
    pullback = {"f": div(k * k * inst.elements["f"], tr.det)}
    fmap = PointMap(t=T, x=X, u=simplify(U, ctx))

    def u_back(S: Expr, xi: Expr) -> Expr:
        # the inverse tuple's u-map, with (t, x, u) read as target coords
        return _proj_maps(invert(tr), ctx.fn("u"))[2]

    return _finish_apply(inst, "PROJECTIVE", ctx, fmap, pullback, u_back)


def constraint(
    tr: Union[DivTransform, LinearTransform], inst: EquationInstance
) -> Expr:
    """The residual that must vanish identically for tr to apply to inst.

    It is H0~ of the lift to_general(tr) at the source u where the
    target u~ vanishes (the LINZ read of f): minus the target residual
    of the pushed zero solution, pulled back.  For DIV that is the
    classifying constraint on (T, X0); for LINEAR, V0 must be a pushed
    solution, since v = 0 goes to v~ = V0 along the map.  apply_transform
    checks it on the lift it applies.
    """
    ctx = _merged_context(inst, tr.family, getattr(tr, "sign_Tt", 1))
    sup = embed(inst, ClassId.SUPER)
    return _general_pullback(to_general(tr), sup, ClassId.LINZ_F, ctx)["f"]


_DIV_CLASSES = (ClassId.GBE_DIV, ClassId.GBE_DIV_NONDEG, ClassId.GBE_DIV_DEG)

# what a failed constraint means, for the families that check one
_CONSTRAINT_FAILURES = {
    "DIV": "classifying constraint fails; the map does not stay in the class",
    "LINEAR": "V0 is not a pushed solution; the map leaves the class",
}


def apply_transform(
    tr: Transform, inst: EquationInstance, tol: float = 1e-9, seed: int = 42
) -> ApplyResult:
    """Transform inst, embedded into the class tr acts on.

    DIV keeps a member of GBE_DIV's two subclasses as it is, and
    AFFINE_DIV applies as the DIV member it names.  DIV and LINEAR
    first check their constraint, read off the same lift, under tol
    and seed: if it fails to vanish, TransformError names the failure
    and the residual.  PROJECTIVE keeps its closed form; every other
    family applies its GENERAL lift, read off in inst's own class.
    """
    if isinstance(tr, ImplicitInverseOf):
        raise TransformError(
            "an implicit inverse has no closed maps to apply; use the "
            "forward transform"
        )
    if isinstance(tr, AffineDivTransform):
        tr = tr.to_div()
    if tr.family != "DIV" or inst.class_id not in _DIV_CLASSES:
        inst = embed(inst, tr.acts_on)
    if isinstance(tr, ProjectiveTuple):
        return _apply_projective(tr, inst)
    ctx = _merged_context(inst, tr.family, getattr(tr, "sign_Tt", 1))
    g = to_general(tr)
    sup = embed(inst, ClassId.SUPER)
    failure = _CONSTRAINT_FAILURES.get(tr.family)
    if failure is not None:
        residual = _general_pullback(g, sup, ClassId.LINZ_F, ctx)["f"]
        zr = is_zero(residual, ctx, tol=tol, seed=seed)
        if not zr:
            shown = format_head(zr.residual, 120)
            raise TransformError(f"{failure} (residual {shown})")
    pullback = _general_pullback(g, sup, inst.class_id, ctx)
    u = ctx.fn(inst.dependent)
    fmap = PointMap(t=g.T, x=g.X, u=simplify(g.U1 * u + g.U0, ctx))

    def u_back(S: Expr, xi: Expr) -> Expr:
        U1S = _compose_tx(g.U1, S, xi, ctx)
        U0S = _compose_tx(g.U0, S, xi, ctx)
        return div(u - U0S, U1S)

    return _finish_apply(inst, tr.family, ctx, fmap, pullback, u_back)


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
    return ProjectiveTuple(1, 0, 0, 1, 1, 0, 0)


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
        T, X, U = _proj_maps(tr, ctx.fn("u"))
        U0 = simplify(substitute(U, {"u": ZERO}, ctx), ctx)
        U1 = simplify(substitute(U - U0, {"u": ONE}, ctx), ctx)
        return GeneralTransform(T=T, X=X, U1=U1, U0=U0)
    if isinstance(tr, DivTransform):
        ctx = transform_context("DIV", tr.sign_Tt)
        T, X = _coordinates(tr)
        T_t = _d(T, "t", ctx)
        T_tt = _d(T_t, "t", ctx)
        X_x = _d(X, "x", ctx)  # kappa (sign_Tt T_t)^(1/2)
        return GeneralTransform(
            T=T,
            X=X,
            U1=div(X_x, T_t),
            U0=div(T_tt * X_x, rat(2) * T_t * T_t) * X_VAR
            + div(_d(tr.X0, "t", ctx), T_t),
        )
    if isinstance(tr, AffineDivTransform):
        return to_general(tr.to_div())
    if isinstance(tr, LinearTransform):
        return GeneralTransform(T=tr.T, X=tr.X, U1=tr.V1, U0=tr.V0)
    raise TransformError(f"cannot lift {type(tr).__name__}")


def _coordinates(tr: Transform) -> Tuple[Expr, Expr]:
    """t -> T and x -> X of to_general(tr), without building its u-map.

    REDUCED and DIV fix their u-map by (T, X), so compose and invert
    need no more of them.  Building it anyway, by reading (T, X) off
    to_general, made sweep-light items 13% slower at the median (2-CPU
    Xeon, Python 3.11).  DIV's lift reads its X from here.
    """
    if isinstance(tr, DivTransform):
        ctx = transform_context("DIV", tr.sign_Tt)
        root = sqrt(rat(tr.sign_Tt) * _d(tr.T, "t", ctx))
        return tr.T, rat(tr.kappa) * root * X_VAR + tr.X0
    if isinstance(tr, ReducedTransform):
        # the GAUGED member with U0 = 0 has the same coordinate change
        tr = GaugedTransform(T=tr.T, X0=tr.X0, U0=ZERO, eps=tr.eps)
    g = to_general(tr)
    return g.T, g.X


def to_gauged(tr: ReducedTransform) -> GaugedTransform:
    """The GAUGED member with U0 = T_tt/(2 T_t^(3/2)) x + X0_t/T_t."""
    ctx = transform_context("REDUCED")
    T_t = _d(tr.T, "t", ctx)
    T_tt, X0_t = _d(T_t, "t", ctx), _d(tr.X0, "t", ctx)
    U0 = div(T_tt, rat(2) * pow_(T_t, Fraction(3, 2))) * X_VAR + div(X0_t, T_t)
    return GaugedTransform(T=tr.T, X0=tr.X0, U0=U0, eps=tr.eps)


def _restrict(
    family: type,
    T: Expr,
    x_at: Callable[[Expr], Expr],
    u_map: Callable[[], Tuple[Expr, Expr]],
    numbers: Dict[str, Union[Fraction, int]],
) -> Transform:
    """The member of family whose GENERAL lift maps t to T.

    x_at(e) is the lift's x-map with e put for x, and u_map() its
    (U1, U0); each is built only when read.  GENERAL, LINZ and LINEAR
    read X = x_at(x) and the u-map as they are.  GAUGED, REDUCED and
    DIV read X0 = x_at(0), and GAUGED reads U0, both times eps.  eps,
    kappa and sign_Tt come in numbers, from the factors.  REDUCED and
    DIV fix their u-map by (T, X), so they never call u_map.
    """
    names = family.param_names
    eps = numbers.get("eps", 1)
    read = {"T": T}
    if "X" in names:
        read["X"] = x_at(X_VAR)
    if "X0" in names:
        read["X0"] = _signed(eps, x_at(ZERO))
    if "U0" in names or "V0" in names:
        U1, U0 = u_map()
        read.update(U1=U1, V1=U1, U0=_signed(eps, U0), V0=U0)
    return family(**{n: read[n] for n in names if n not in numbers}, **numbers)


def _signed(eps: Union[Fraction, int], e: Expr) -> Expr:
    """eps e for eps = +1 or -1, a sign distributed over a sum."""
    if eps == 1:
        return e
    return add(*(-term for term in e.terms)) if isinstance(e, Add) else -e


def compose(second: Transform, first: Transform) -> Transform:
    """The transform acting as `first, then second`.

    Members of one family compose within it: PROJECTIVE in closed form,
    AFFINE_DIV as its DIV members, every other family by composing the
    GENERAL lifts and restricting the result.  A mixed pair is lifted
    through to_general and composed there, so the result is a
    GeneralTransform.
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
        second, first = to_general(second), to_general(first)
    if isinstance(first, ProjectiveTuple):
        # the maps ignore a common nonzero scale, so no normalization
        m2 = second.matrix()
        m1 = first.matrix()
        prod = tuple(
            tuple(add(*(m2[i][k] * m1[k][j] for k in range(3))) for j in range(3))
            for i in range(3)
        )
        return _unmat(prod)
    if isinstance(first, AffineDivTransform):
        return _affine_div_of(compose(second.to_div(), first.to_div()))
    ctx = transform_context(first.family, getattr(first, "sign_Tt", 1))
    (T2, X2), (T1, X1) = _coordinates(second), _coordinates(first)
    comp = lambda e, x1=X1: simplify(_compose_tx(e, T1, x1, ctx), ctx)

    def x_at(x: Expr) -> Expr:
        return comp(X2, X1 if x is X_VAR else substitute(X1, {"x": x}, ctx))

    def u_map() -> Tuple[Expr, Expr]:
        g2, g1 = to_general(second), to_general(first)
        U1_2 = comp(g2.U1)
        return simplify(U1_2 * g1.U1, ctx), simplify(U1_2 * g1.U0 + comp(g2.U0), ctx)

    numbers = {
        n: getattr(second, n) * getattr(first, n)
        for n in _FAMILY_NUMBERS if n in first.param_names
    }
    T = simplify(_compose_tx(T2, T1, None, ctx), ctx)
    return _restrict(type(first), T, x_at, u_map, numbers)


def _affine_div_of(tr: DivTransform) -> AffineDivTransform:
    """The AFFINE_DIV member that names tr, whose T and X0 are affine in t.

    c1 is the rational root of T's t-coefficient, the positive one.
    """
    ctx = transform_context("DIV")
    T, X0 = collect(tr.T, T_VAR, ctx), collect(tr.X0, T_VAR, ctx)
    c0, c1, c2, c3 = (
        Fraction(c.value)
        for c in (T.get(0, ZERO), sqrt(T[1]), X0.get(1, ZERO), X0.get(0, ZERO))
    )
    return AffineDivTransform(c0=c0, c1=c1, c2=c2, c3=c3, kappa=tr.kappa)


def _unmat(m: Tuple[Tuple[Expr, ...], ...]) -> ProjectiveTuple:
    return ProjectiveTuple(
        alpha=m[0][0], beta=m[0][2], gamma=m[2][0], delta=m[2][2],
        kappa=m[1][1], mu0=m[1][2], mu1=m[1][0],
    )


def invert(tr: Transform) -> Union[Transform, ImplicitInverseOf]:
    """The inverse transform, or an ImplicitInverseOf marker.

    PROJECTIVE inverts in closed form and AFFINE_DIV as its DIV member;
    every other family inverts its GENERAL lift and restricts the
    result.  The marker appears when the coordinate change cannot be
    inverted in closed form (T not a Mobius map of t, or X not affine in
    x); the inverse still exists as a groupoid element and can be
    checked by applying the forward transform.
    """
    if isinstance(tr, ImplicitInverseOf):
        return tr.of
    if isinstance(tr, ProjectiveTuple):
        a, b, g, d, k, m0, m1 = tr.entries()
        # adjugate of the 3x3 matrix, block by block
        adj = (
            (d * k, ZERO, -b * k),
            (m0 * g - m1 * d, tr.det, b * m1 - a * m0),
            (-g * k, ZERO, a * k),
        )
        return _unmat(adj)
    if isinstance(tr, AffineDivTransform):
        return _affine_div_of(invert(tr.to_div()))
    ctx = transform_context(tr.family, getattr(tr, "sign_Tt", 1))
    inv = closed_inverse(*_coordinates(tr), ctx)
    if inv is None:
        return ImplicitInverseOf(tr)
    S, xi = inv

    def x_at(x: Expr) -> Expr:
        return xi if x is X_VAR else simplify(substitute(xi, {"x": x}, ctx), ctx)

    def u_map() -> Tuple[Expr, Expr]:
        g = to_general(tr)
        U1S = _compose_tx(g.U1, S, xi, ctx)
        U0S = _compose_tx(g.U0, S, xi, ctx)
        return simplify(div(ONE, U1S), ctx), simplify(-div(U0S, U1S), ctx)

    # eps and sign_Tt are their own inverses
    numbers = {n: getattr(tr, n) for n in _FAMILY_NUMBERS if n in tr.param_names}
    if "kappa" in numbers:
        numbers["kappa"] = Fraction(1) / tr.kappa
    return _restrict(type(tr), S, x_at, u_map, numbers)


def transforms_equal(
    a: Transform, b: Transform, ctx: Optional[Context] = None,
    tol: float = 1e-9, seed: int = 42,
) -> bool:
    """Parameter-wise identity test within one family, PROJECTIVE up to scale."""
    if type(a) is not type(b):
        return False
    if isinstance(a, ImplicitInverseOf):
        return transforms_equal(a.of, b.of, ctx, tol=tol, seed=seed)
    if isinstance(a, ProjectiveTuple):
        # equal up to scale: a_p b_i - b_p a_i = 0 for a pivot a_p != 0
        ea, eb = a.entries(), b.entries()
        p = next(i for i, v in enumerate(ea) if v != ZERO)
        minors = [ea[p] * bi - eb[p] * ai for ai, bi in zip(ea, eb)]
        if any(isinstance(m, Rat) and m != ZERO for m in minors):
            return False
        family_ctx = ctx or transform_context(a.family)
        return all(
            isinstance(m, Rat) or is_zero(m, family_ctx, tol=tol, seed=seed)
            for m in minors
        )
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
    if is_zero(a, ctx, tol=tol, seed=seed):
        raise TransformError("a must not vanish")
    s, sign_verdict = _element_sign(a, ctx, tol, seed)

    tr = LinzTransform(
        T=rat(s) * T_VAR,
        X=integral(pow_(rat(s) * a, Fraction(-1, 2)), "x"),
        U0=ZERO,
    )
    res = apply_transform(tr, inst)
    gauge_check = is_zero(res.pullback["a"] - ONE, ctx, tol=tol, seed=seed)
    conditions = [
        ConditionReport(
            f"a has constant sign ({'+' if s > 0 else '-'}1)", True, sign_verdict
        ),
        ConditionReport.of("transformed a equals 1", gauge_check),
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
    res = apply_transform(tr, inst)
    gauge_check = is_zero(res.pullback["b"], ctx, tol=tol, seed=seed)
    conditions = [ConditionReport.of("transformed b vanishes", gauge_check)]
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


def parse_transform(text: str) -> Transform:
    """Read the `family = TAG` / `param.<name> = <value>` file format.

    A parameter the family declares no function for (eps, kappa,
    sign_Tt, tuple entries, affine constants) is an exact number; every
    other parses as an expression in t, x with the family's own symbols
    in scope.
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
        if name not in _FAMILY_SIGNATURES[family]:
            try:
                num = Fraction(value)
            except (ValueError, ZeroDivisionError):
                raise TransformError(
                    f"parameter {name} must be an exact number, got {value!r}"
                ) from None
            kwargs[name] = int(num) if name == "sign_Tt" else num
        else:
            kwargs[name] = parse(value, ctx)
    missing = [n for n in expected if n not in kwargs and n not in _FAMILY_NUMBERS]
    if missing:
        raise TransformError(f"{family} needs parameters {missing}")
    if "T" in kwargs and normal_form_is_zero(_d(kwargs["T"], "t", ctx), ctx):
        raise TransformError(
            f"T = {format_expr(kwargs['T'])} does not depend on t, "
            "so the map of t has no inverse"
        )
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
