"""The point-symmetry algebra of the constant-coefficient member.

u_t + u u_x + u_xx = 0 admits a five-dimensional algebra of vector
fields on (t, x, u) space:

    e1 = d_t
    e2 = 2t d_t + x d_x - u d_u
    e3 = t^2 d_t + t x d_x + (x - u t) d_u
    e4 = d_x
    e5 = t d_x + d_u

This module computes brackets and structure constants exactly, builds
the one-parameter flows of the basis fields as exact projective tuples
(e2 scales by exp(eps)), and decides membership of a tuple in the
symmetry group by the criterion

    alpha delta - beta gamma = kappa^2 > 0,

which also admits the discrete reflection (kappa = -1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .classes import ClassId, EquationInstance, build_pde, class_context
from .expr import (
    Context,
    Expr,
    ONE,
    ZERO,
    ZeroResult,
    as_expr,
    differentiate,
    exp,
    format_expr,
    is_zero,
    rat,
    simplify,
    substitute,
    var,
)
from .expr.nodes import ExprLike
from .expr.poly import run
from .hopfcole import cole_hopf_solution
from .report import ConditionReport, REJECTED, VerificationReport, combined_report, held
from .transforms import (
    ProjectiveTuple,
    _proj_maps,
    apply_transform,
    push_solution,
)

_COORDS = ("t", "x", "u")


class SymmetryError(Exception):
    """Raised when a field leaves the polynomial setting or a solve fails."""


def symmetry_context() -> Context:
    """t, x, u as independent coordinates of the field space."""
    ctx = Context()
    for name in _COORDS:
        ctx.add_var(name)
    return ctx


@dataclass(frozen=True)
class VectorField:
    """tau d_t + xi d_x + eta d_u with polynomial components."""

    tau: Expr
    xi: Expr
    eta: Expr

    def components(self) -> Tuple[Expr, Expr, Expr]:
        return (self.tau, self.xi, self.eta)

    def describe(self) -> str:
        parts = []
        for comp, sym in zip(self.components(), _COORDS):
            if comp != ZERO:
                parts.append(f"({format_expr(comp)}) d_{sym}")
        return " + ".join(parts) if parts else "0"


def burgers_algebra() -> List[VectorField]:
    """The basis e1..e5 in the order fixed above."""
    t, x, u = var("t"), var("x"), var("u")
    return [
        VectorField(rat(1), ZERO, ZERO),
        VectorField(rat(2) * t, x, -u),
        VectorField(t * t, t * x, x - u * t),
        VectorField(ZERO, rat(1), ZERO),
        VectorField(ZERO, t, rat(1)),
    ]


def bracket(v: VectorField, w: VectorField, ctx: Optional[Context] = None) -> VectorField:
    """The Lie bracket [v, w] = v(w) - w(v), componentwise."""
    if ctx is None:
        ctx = symmetry_context()
    out = []
    for i in range(3):
        acc = ZERO
        for j, cj in enumerate(_COORDS):
            acc = acc + v.components()[j] * differentiate(
                w.components()[i], cj, ctx
            )
            acc = acc - w.components()[j] * differentiate(
                v.components()[i], cj, ctx
            )
        out.append(simplify(acc, ctx))
    return VectorField(*out)


def expand_in_basis(
    v: VectorField,
    basis: Sequence[VectorField],
    ctx: Optional[Context] = None,
) -> List[Fraction]:
    """Exact coefficients c with v = sum c_k basis_k, else SymmetryError.

    Each component is expanded by one polynomial Kernel (the whole
    expansion repeats on a wider one if an exponent outgrows it); the
    rows of the linear system are the (component, monomial) pairs in the
    order first seen, with the monomials as the kernel's opaque keys.
    """
    if ctx is None:
        ctx = symmetry_context()
    trees = [
        [simplify(c, ctx) for c in field.components()] for field in list(basis) + [v]
    ]
    fields = run(lambda k: [[k.expand(c) for c in comps] for comps in trees])
    keys = dict.fromkeys(
        (i, m) for polys in fields for i, p in enumerate(polys) for m in p
    )
    # row r reads sum_k c_k basis_k = v at one (component, monomial) key
    system = [[Fraction(polys[i].get(m, 0)) for polys in fields] for i, m in keys]

    # solve by Gauss-Jordan elimination on a copy
    n = len(basis)
    m = len(system)
    aug = [list(r) for r in system]
    pivots: List[int] = []
    row = 0
    for col in range(n):
        sel = None
        for r in range(row, m):
            if aug[r][col] != 0:
                sel = r
                break
        if sel is None:
            continue
        aug[row], aug[sel] = aug[sel], aug[row]
        pv = aug[row][col]
        aug[row] = [x / pv for x in aug[row]]
        for r in range(m):
            if r != row and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
    coeffs = [Fraction(0)] * n
    for r, col in enumerate(pivots):
        coeffs[col] = aug[r][n]
    for r in range(row, m):
        if aug[r][n] != 0:
            raise SymmetryError(
                "field does not lie in the span of the basis"
            )
    # in exact Gauss-Jordan the zero rows below the pivots decide
    # consistency; this re-check of the original rows guards the solve
    for r in system:
        if sum(a * c for a, c in zip(r, coeffs)) != r[n]:
            raise SymmetryError("field does not lie in the span of the basis")
    return coeffs


@dataclass
class StructureTable:
    """Structure constants of a basis, with the closure verdict.

    constants maps 1-based (i, j) with i < j to the coefficients of
    [e_i, e_j] in the basis; pairs whose bracket left the span are in
    failures instead, and closed is False.
    """

    n: int
    constants: Dict[Tuple[int, int], List[Fraction]]
    failures: List[Tuple[int, int, str]]

    @property
    def closed(self) -> bool:
        return not self.failures

    def coefficients(self, i: int, j: int) -> List[Fraction]:
        """[e_i, e_j] in the basis, any order of i, j (1-based)."""
        if i == j:
            return [Fraction(0)] * self.n
        if i < j:
            return list(self.constants[(i, j)])
        return [-c for c in self.constants[(j, i)]]

    def matrix(self) -> List[List[List[str]]]:
        """The full antisymmetric table, coefficients as strings."""
        return [
            [[str(c) for c in self.coefficients(i, j)] for j in range(1, self.n + 1)]
            for i in range(1, self.n + 1)
        ]


def structure_constants(
    basis: Optional[Sequence[VectorField]] = None,
) -> StructureTable:
    """c^k_{ij} with [e_i, e_j] = sum_k c^k_{ij} e_k, plus closure.

    The basis must be linearly independent (checked over the monomial
    coefficients); a bracket that falls outside the span is recorded
    as a failure rather than raised.
    """
    if basis is None:
        basis = burgers_algebra()
    ctx = symmetry_context()
    for k in range(len(basis)):
        try:
            expand_in_basis(basis[k], list(basis[:k]) + list(basis[k + 1:]), ctx)
        except SymmetryError:
            continue
        raise SymmetryError(
            f"basis field {k + 1} is a combination of the others: "
            + basis[k].describe()
        )
    constants: Dict[Tuple[int, int], List[Fraction]] = {}
    failures: List[Tuple[int, int, str]] = []
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            br = bracket(basis[i], basis[j], ctx)
            try:
                constants[(i + 1, j + 1)] = expand_in_basis(br, basis, ctx)
            except SymmetryError:
                failures.append((i + 1, j + 1, br.describe()))
    return StructureTable(n=len(basis), constants=constants, failures=failures)


def format_structure_table(table: Optional[StructureTable] = None) -> str:
    """A readable commutator table for the basis."""
    if table is None:
        table = structure_constants()
    lines = []
    for (i, j), coeffs in sorted(table.constants.items()):
        terms = []
        for k, c in enumerate(coeffs):
            if c == 0:
                continue
            if c == 1:
                terms.append(f"e{k + 1}")
            elif c == -1:
                terms.append(f"-e{k + 1}")
            else:
                terms.append(f"{c}*e{k + 1}")
        rhs = " + ".join(terms).replace("+ -", "- ") if terms else "0"
        lines.append(f"[e{i}, e{j}] = {rhs}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# flows


def flow(index: int, eps: ExprLike) -> ProjectiveTuple:
    """The time-eps flow of basis field e_index, as an exact projective tuple.

    e2 scales by exp(eps), so its entries stay symbolic unless eps is a
    logarithm: flow(2, ln(rat(2))) is (4, 0, 0, 1, 2, 0, 0).  A float
    eps raises TypeError.
    """
    eps = as_expr(eps)
    if index == 1:
        return ProjectiveTuple(ONE, eps, ZERO, ONE, ONE, ZERO, ZERO)
    if index == 2:
        g = exp(eps)
        return ProjectiveTuple(g * g, ZERO, ZERO, ONE, g, ZERO, ZERO)
    if index == 3:
        return ProjectiveTuple(ONE, ZERO, -eps, ONE, ONE, ZERO, ZERO)
    if index == 4:
        return ProjectiveTuple(ONE, ZERO, ZERO, ONE, ONE, eps, ZERO)
    if index == 5:
        return ProjectiveTuple(ONE, ZERO, ZERO, ONE, ONE, ZERO, eps)
    raise SymmetryError(f"no basis field e{index}")


def flow_maps(index: int, eps_name: str = "s") -> Tuple[Expr, Expr, Expr]:
    """The flow of e_index as symbolic point maps (t~, x~, u~).

    These are the point maps of flow(index, eps) with eps the variable
    eps_name, so the maps can be differentiated at 0 to recover the
    field components.  e2 is the one field whose flow is
    transcendental (exp factors).
    """
    return _proj_maps(flow(index, var(eps_name)), var("u"))


def flow_generator(index: int) -> VectorField:
    """d/deps at 0 of the flow maps; equals the basis field."""
    ctx = symmetry_context()
    ctx.add_var("s")
    maps = flow_maps(index, "s")
    comps = []
    for m in maps:
        d = differentiate(m, "s", ctx)
        comps.append(simplify(substitute(d, {"s": ZERO}, ctx), ctx))
    return VectorField(comps[0], comps[1], comps[2])


# ---------------------------------------------------------------------------
# membership


def reflection() -> ProjectiveTuple:
    """x -> -x, u -> -u; the discrete symmetry outside the flows."""
    return ProjectiveTuple(1, 0, 0, 1, -1, 0, 0)


def satisfies_group_constraint(p: ProjectiveTuple) -> ZeroResult:
    """alpha delta - beta gamma = kappa^2, as a ZeroResult (truthy when it holds)."""
    return is_zero(p.det - p.kappa * p.kappa)


def solution_catalog() -> List[Expr]:
    """Exact solutions of the constant-coefficient member, for transport.

    The constants, 2/x, and the travelling kinks 2 lam e^..(1 + e^..)
    all come from logarithmic derivatives of heat-type functions.
    """
    ctx = class_context(ClassId.BURGERS)
    t, x = var("t"), var("x")
    vs = [rat(1), x]
    for lam in (1, 2):
        lam_e = rat(lam)
        vs.append(rat(1) + exp(lam_e * x - lam_e * lam_e * t))
    return [cole_hopf_solution(v, ctx) for v in vs]


def is_symmetry(
    p: ProjectiveTuple,
    tol: float = 1e-9,
    seed: int = 42,
    solutions: Optional[Sequence[Expr]] = None,
) -> VerificationReport:
    """Whether p preserves the constant-coefficient member.

    Checks the group constraint alpha delta - beta gamma = kappa^2
    first; a violation rejects the candidate outright.  Otherwise the
    catalog solutions are pushed through p's point maps and the PDE
    residual of each image is tested.  A reflected element is the
    tuple compose(reflection(), p).
    """
    if solutions is None:
        solutions = solution_catalog()
    inst = EquationInstance(ClassId.BURGERS, {})
    ctx = class_context(ClassId.BURGERS)
    dep = inst.dependent

    constraint = satisfies_group_constraint(p)
    constraint_ok = bool(constraint)
    conditions = [
        ConditionReport(
            description="group constraint alpha delta - beta gamma = kappa^2",
            ok=constraint_ok,
            verdict=constraint.verdict if constraint_ok else REJECTED,
            detail=(
                f"det = {format_expr(p.det)}, "
                f"kappa^2 = {format_expr(p.kappa * p.kappa)}"
            ),
        )
    ]
    if not constraint_ok:
        return VerificationReport(
            verdict=REJECTED,
            residual_text="alpha delta - beta gamma - kappa^2",
            tolerance=tol,
            seed=seed,
            summary="not a symmetry candidate: group constraint fails",
            conditions=conditions,
        )

    pde = build_pde(inst)
    # projective coordinate changes always invert in closed form
    res = apply_transform(p, inst)
    for idx, sol in enumerate(solutions):
        pushed = push_solution(res, sol, ctx)
        residual = simplify(substitute(pde, {dep: pushed}, ctx), ctx)
        zr = is_zero(residual, ctx, tol=tol, seed=seed)
        conditions.append(
            ConditionReport.of(
                f"catalog entry {idx} transports to a solution "
                f"(u = {format_expr(sol)})",
                zr,
            )
        )

    return combined_report(
        conditions,
        "PDE residual of each transported catalog solution",
        tol,
        seed,
        f"{held(conditions)} conditions hold",
    )


def flow_generator_check(index: int, tol: float = 1e-9, seed: int = 42) -> VerificationReport:
    """d/ds at 0 of flow_maps(index) against the basis field, componentwise."""
    ctx = symmetry_context()
    derived = flow_generator(index)
    expected = burgers_algebra()[index - 1]
    conditions = [
        ConditionReport.of(
            f"{name}-component of the flow derivative matches e{index}",
            is_zero(comp_d - comp_e, ctx, tol=tol, seed=seed),
        )
        for comp_d, comp_e, name in zip(
            derived.components(), expected.components(), _COORDS
        )
    ]
    all_ok = all(c.ok for c in conditions)
    return combined_report(
        conditions,
        f"flow derivative at s = 0 minus e{index}",
        tol,
        seed,
        f"flow {index}: generator "
        + ("recovered" if all_ok else "mismatch")
        + f" ({derived.describe()})",
    )
