"""The equation classes and their membership conditions.

Each class fixes a differential equation shape together with the
arbitrary elements that parametrize it.  The hierarchy, from widest to
narrowest:

    SUPER            u_t + F u_xx + H1 u_x + H0 = 0,  F != 0
    LINEAR           v_t + a v_xx + b v_x + c v = 0,  a != 0
    LINZ_ABC         u_t + a u_xx + (a u + a_x + b) u_x
                         + (1/2) a_x u^2 + b_x u + f = 0,  a != 0
    LINZ_BF          the a = 1 subclass of LINZ_ABC
    LINZ_F           the a = 1, b = 0 subclass
    GBE_TX           u_t + u u_x + f(t,x) u_xx = 0,  f != 0
    GBE_DIV          u_t + u u_x + (f(t,x) u_x)_x = 0,  f != 0
    GBE_DIV_NONDEG   GBE_DIV with f_xxx != 0
    GBE_DIV_DEG      GBE_DIV with f quadratic in x
    GBE_T            u_t + u u_x + f(t) u_xx = 0,  f != 0
    BURGERS          u_t + u u_x + u_xx = 0

Elements of SUPER may involve the dependent variable through the u
symbol; opaque elements are opaque in (t, x) only.

EMBEDDINGS holds only covering steps, each into the next wider class,
and is the one place that states a class's shape: every equation is
SUPER's, read over the member's SUPER embedding.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .expr import (
    Add,
    CollectError,
    Context,
    Expr,
    NONZERO,
    ONE,
    SYMBOLIC_ZERO,
    ZERO,
    add,
    contains_func,
    contains_var,
    diff_n,
    differentiate,
    format_expr,
    func,
    is_zero,
    parse,
    rat,
    split,
    substitute,
    var,
)
from .report import ConditionReport, MEMBER, REJECTED, VerificationReport


class ClassId(str, Enum):
    BURGERS = "BURGERS"
    SUPER = "SUPER"
    LINEAR = "LINEAR"
    LINZ_ABC = "LINZ_ABC"
    LINZ_BF = "LINZ_BF"
    LINZ_F = "LINZ_F"
    GBE_TX = "GBE_TX"
    GBE_DIV = "GBE_DIV"
    GBE_DIV_NONDEG = "GBE_DIV_NONDEG"
    GBE_DIV_DEG = "GBE_DIV_DEG"
    GBE_T = "GBE_T"

    def __str__(self) -> str:  # keep file output free of Enum noise
        return self.value


@dataclass(frozen=True)
class ClassSpec:
    """Shape data for one equation class."""

    dependent: str
    elements: Tuple[str, ...]
    signatures: Dict[str, Tuple[str, ...]]
    nonvanishing: Tuple[str, ...]


_TX = ("t", "x")

CLASS_SPECS: Dict[ClassId, ClassSpec] = {
    ClassId.BURGERS: ClassSpec("u", (), {}, ()),
    ClassId.SUPER: ClassSpec(
        "u", ("F", "H1", "H0"),
        {"F": _TX, "H1": _TX, "H0": _TX}, ("F",),
    ),
    ClassId.LINEAR: ClassSpec(
        "v", ("a", "b", "c"), {"a": _TX, "b": _TX, "c": _TX}, ("a",)
    ),
    ClassId.LINZ_ABC: ClassSpec(
        "u", ("a", "b", "f"), {"a": _TX, "b": _TX, "f": _TX}, ("a",)
    ),
    ClassId.LINZ_BF: ClassSpec("u", ("b", "f"), {"b": _TX, "f": _TX}, ()),
    ClassId.LINZ_F: ClassSpec("u", ("f",), {"f": _TX}, ()),
    ClassId.GBE_TX: ClassSpec("u", ("f",), {"f": _TX}, ("f",)),
    ClassId.GBE_DIV: ClassSpec("u", ("f",), {"f": _TX}, ("f",)),
    ClassId.GBE_DIV_NONDEG: ClassSpec("u", ("f",), {"f": _TX}, ("f",)),
    ClassId.GBE_DIV_DEG: ClassSpec("u", ("f",), {"f": _TX}, ("f",)),
    ClassId.GBE_T: ClassSpec("u", ("f",), {"f": ("t",)}, ("f",)),
}


class ClassError(Exception):
    """Raised for malformed instances or unknown embeddings."""


def class_context(cid: ClassId) -> Context:
    """A context declaring t, x, the dependent symbol, and the elements.

    Each call returns a fresh copy, which the caller may extend.
    """
    return _class_template(cid).copy()


@lru_cache(maxsize=None)
def _class_template(cid: ClassId) -> Context:
    spec = CLASS_SPECS[cid]
    ctx = Context()
    ctx.add_var("t")
    ctx.add_var("x")
    ctx.add_function(spec.dependent, _TX)
    for name in spec.elements:
        ctx.add_function(name, spec.signatures[name])
    return ctx


@dataclass
class EquationInstance:
    """A member of a class: concrete expressions for each element."""

    class_id: ClassId
    elements: Dict[str, Expr]

    def __post_init__(self) -> None:
        spec = CLASS_SPECS[self.class_id]
        given = set(self.elements)
        expected = set(spec.elements)
        if given != expected:
            raise ClassError(
                f"{self.class_id} expects elements {sorted(expected)}, "
                f"got {sorted(given)}"
            )

    @property
    def dependent(self) -> str:
        return CLASS_SPECS[self.class_id].dependent

    def context(self) -> Context:
        return class_context(self.class_id)


def build_pde(inst: EquationInstance, ctx: Optional[Context] = None) -> Expr:
    """The left-hand side of the class equation for this instance.

    It is SUPER's u_t + F u_xx + H1 u_x + H0 over the SUPER embedding
    under ctx, written in the class's dependent variable.  An addend of
    H1 that holds that variable multiplies u_x alone and the rest of H1
    multiplies it as one factor, so GBE_DIV's (u + f_x) u_x reads
    u u_x + f_x u_x.
    """
    if ctx is None:
        ctx = inst.context()
    el = embed(inst, ClassId.SUPER, ctx).elements
    H1, H0 = el["H1"], el["H0"]
    dep = inst.dependent
    if dep != "u":
        w = ctx.fn(dep)
        H1, H0 = [
            substitute(e, {"u": w}, ctx) if contains_func(e, "u") else e
            for e in (H1, H0)
        ]
    w_t, w_x, w_xx = _JETS[dep]
    addends = H1.terms if isinstance(H1, Add) else (H1,)
    held = [h * w_x for h in addends if contains_func(h, dep)]
    free = add(*[h for h in addends if not contains_func(h, dep)])
    return add(w_t, el["F"] * w_xx, *held, free * w_x, H0)


def check_membership(
    inst: EquationInstance,
    tol: float = 1e-9,
    seed: int = 42,
    assumptions: Sequence[Tuple[str, str]] = (),
) -> VerificationReport:
    """Check the constraints that make the instance a class member.

    Every condition is evaluated.  The verdict is MEMBER when all of
    them hold and REJECTED otherwise, whatever evidence each condition
    carries; the conditions keep their own verdicts.  Assumptions are
    (name, flag) pairs attached to the class's symbols before testing,
    so an opaque element can be promised nonzero or of one sign; a
    pair naming no symbol of the class is left out.
    """
    ctx = inst.context()
    ctx.assume_declared(assumptions)
    conditions: List[ConditionReport] = []
    spec = CLASS_SPECS[inst.class_id]

    for name in spec.nonvanishing:
        zr = is_zero(inst.elements[name], ctx, tol=tol, seed=seed)
        conditions.append(
            ConditionReport.of(f"{name} must not vanish", zr, ok=zr.verdict == NONZERO)
        )

    if inst.class_id == ClassId.GBE_T:
        fx = differentiate(inst.elements["f"], "x", ctx)
        zr = is_zero(fx, ctx, tol=tol, seed=seed)
        conditions.append(ConditionReport.of("f must not depend on x", zr))

    if inst.class_id == ClassId.GBE_DIV_NONDEG:
        fxxx = diff_n(inst.elements["f"], "x", 3, ctx)
        zr = is_zero(fxxx, ctx, tol=tol, seed=seed)
        conditions.append(
            ConditionReport.of("f_xxx must not vanish", zr, ok=zr.verdict == NONZERO)
        )

    if inst.class_id == ClassId.GBE_DIV_DEG:
        conditions.append(_deg_shape_condition(inst.elements["f"]))

    all_ok = all(c.ok for c in conditions)
    summary = (
        f"{inst.class_id}: "
        + ("member" if all_ok else "not a member")
        + f" ({len(conditions)} condition(s))"
    )
    return VerificationReport(
        verdict=MEMBER if all_ok else REJECTED,
        residual_text="",
        tolerance=tol,
        seed=seed,
        summary=summary,
        conditions=conditions,
    )


def _deg_shape_condition(f: Expr) -> ConditionReport:
    description = "f must be quadratic in x"
    try:
        coeffs = deg_coefficients(f)
    except (CollectError, ClassError) as err:
        return ConditionReport(description, False, REJECTED, str(err))
    detail = "; ".join(
        f"coefficient of x^{k}: {format_expr(coeffs[k])}" for k in (0, 1, 2)
    )
    return ConditionReport(description, True, SYMBOLIC_ZERO, detail)


def deg_coefficients(f: Expr) -> Dict[int, Expr]:
    """Split a degenerate f into x-degree coefficients f0, f1, f2.

    Raises ClassError when f has x-degree above two or any coefficient
    still involves x, and CollectError when f is not polynomial in x.
    """
    out = {0: ZERO, 1: ZERO, 2: ZERO}
    for (deg,), coeff in split(f, (var("x"),)).items():
        if deg > 2:
            raise ClassError(f"f has x-degree {deg}, expected at most 2")
        if contains_var(coeff, "x"):
            raise ClassError(f"coefficient of x^{deg} still involves x")
        out[deg] = coeff
    return out


# ---------------------------------------------------------------------------
# embeddings between classes


Embedding = Callable[[Dict[str, Expr], Context], Dict[str, Expr]]

# SUPER's u, whatever the source class calls its dependent variable, and
# u_t, u_x, u_xx of each dependent variable
_U = func("u", _TX)
_JETS = {
    dep: tuple(func(dep, _TX, d) for d in ((1, 0), (0, 1), (0, 2)))
    for dep in {spec.dependent for spec in CLASS_SPECS.values()}
}


def _embed_linz_f_to_bf(el, ctx):
    return {"b": ZERO, "f": el["f"]}


def _embed_linz_bf_to_abc(el, ctx):
    return {"a": ONE, "b": el["b"], "f": el["f"]}


def _embed_linz_abc_to_super(el, ctx):
    a, b, f = el["a"], el["b"], el["f"]
    a_x = differentiate(a, "x", ctx)
    b_x = differentiate(b, "x", ctx)
    return {
        "F": a,
        "H1": a * _U + a_x + b,
        "H0": rat(1, 2) * a_x * _U * _U + b_x * _U + f,
    }


def _embed_const_f(el, ctx):
    return {"f": ONE}


def _embed_keep_f(el, ctx):
    return {"f": el["f"]}


def _embed_gbe_tx_to_super(el, ctx):
    return {"F": el["f"], "H1": _U, "H0": ZERO}


def _embed_gbe_div_to_super(el, ctx):
    f = el["f"]
    return {"F": f, "H1": _U + differentiate(f, "x", ctx), "H0": ZERO}


def _embed_linear_to_super(el, ctx):
    return {"F": el["a"], "H1": el["b"], "H0": el["c"] * _U}


# the covering steps: every other embedding is a chain of these
EMBEDDINGS: Dict[Tuple[ClassId, ClassId], Embedding] = {
    (ClassId.LINZ_F, ClassId.LINZ_BF): _embed_linz_f_to_bf,
    (ClassId.LINZ_BF, ClassId.LINZ_ABC): _embed_linz_bf_to_abc,
    (ClassId.LINZ_ABC, ClassId.SUPER): _embed_linz_abc_to_super,
    (ClassId.BURGERS, ClassId.GBE_T): _embed_const_f,
    (ClassId.GBE_T, ClassId.GBE_TX): _embed_keep_f,
    (ClassId.GBE_T, ClassId.GBE_DIV_DEG): _embed_keep_f,
    (ClassId.GBE_DIV_NONDEG, ClassId.GBE_DIV): _embed_keep_f,
    (ClassId.GBE_DIV_DEG, ClassId.GBE_DIV): _embed_keep_f,
    (ClassId.GBE_TX, ClassId.SUPER): _embed_gbe_tx_to_super,
    (ClassId.GBE_DIV, ClassId.SUPER): _embed_gbe_div_to_super,
    (ClassId.LINEAR, ClassId.SUPER): _embed_linear_to_super,
}


def embed(
    inst: EquationInstance, target: ClassId, ctx: Optional[Context] = None
) -> EquationInstance:
    """Rewrite an instance as a member of a wider class.

    Multi-step embeddings chain registered single steps along the
    shortest path; the result is independent of the path taken.  Every
    step runs under ctx, the caller's context, or target's by default.
    """
    if inst.class_id == target:
        return inst
    path = _embedding_path(inst.class_id, target)
    if path is None:
        raise ClassError(f"no embedding from {inst.class_id} into {target}")
    if ctx is None:
        ctx = class_context(target)
    elements = inst.elements
    for step in zip(path, path[1:]):
        elements = EMBEDDINGS[step](elements, ctx)
    return EquationInstance(target, elements)


@lru_cache(maxsize=None)
def _embedding_path(src: ClassId, dst: ClassId) -> Optional[Tuple[ClassId, ...]]:
    """The shortest chain of EMBEDDINGS steps from src to dst, or None."""
    frontier = [(src,)]
    seen = {src}
    while frontier:
        path = frontier.pop(0)
        for (a, b) in EMBEDDINGS:
            if a == path[-1] and b not in seen:
                if b == dst:
                    return path + (b,)
                seen.add(b)
                frontier.append(path + (b,))
    return None


def linearizable_from_linear(linear: EquationInstance) -> EquationInstance:
    """The LINZ_ABC member whose solutions are 2 v_x / v for solutions v.

    The source term is twice the x-derivative of the zeroth-order
    coefficient.
    """
    if linear.class_id != ClassId.LINEAR:
        raise ClassError("expected a LINEAR instance")
    ctx = linear.context()
    c_x = differentiate(linear.elements["c"], "x", ctx)
    return EquationInstance(
        ClassId.LINZ_ABC,
        {"a": linear.elements["a"], "b": linear.elements["b"], "f": rat(2) * c_x},
    )


# ---------------------------------------------------------------------------
# file format


def parse_instance(text: str) -> EquationInstance:
    """Read the `class = TAG` / `element.<name> = <expr>` file format."""
    class_id: Optional[ClassId] = None
    raw: Dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ClassError(f"line {lineno}: expected key = value")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "class":
            try:
                class_id = ClassId(value)
            except ValueError:
                raise ClassError(f"line {lineno}: unknown class {value!r}") from None
        elif key.startswith("element."):
            raw[key[len("element."):]] = value
        else:
            raise ClassError(f"line {lineno}: unknown key {key!r}")
    if class_id is None:
        raise ClassError("missing `class = <TAG>` line")
    ctx = class_context(class_id)
    elements = {name: parse(value, ctx) for name, value in raw.items()}
    return EquationInstance(class_id, elements)


def format_instance(inst: EquationInstance) -> str:
    lines = [f"class = {inst.class_id}"]
    for name in CLASS_SPECS[inst.class_id].elements:
        lines.append(f"element.{name} = {format_expr(inst.elements[name])}")
    return "\n".join(lines) + "\n"
