"""The point-symmetry algebra of the constant-coefficient member.

u_t + u u_x + u_xx = 0 admits a five-dimensional algebra of vector
fields on (t, x, u) space:

    e1 = d_t
    e2 = 2t d_t + x d_x - u d_u
    e3 = t^2 d_t + t x d_x + (x - u t) d_u
    e4 = d_x
    e5 = t d_x + d_u

This module computes brackets exactly and reads the structure
constants off one elimination: every basis field and every bracket is
split by its monomials in t, x, u (simplify.split), and the rational
system is reduced once over the basis columns.  It also builds the
one-parameter flows of the basis fields as exact projective tuples (e2
scales by exp(eps)), and decides membership of a tuple in the symmetry
group by the criterion

    alpha delta - beta gamma = kappa^2 > 0,

which also admits the discrete reflection (kappa = -1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .classes import ClassId, EquationInstance, build_pde, class_context
from .expr import (
    CollectError,
    Context,
    Expr,
    ONE,
    Rat,
    ZERO,
    ZeroResult,
    as_expr,
    differentiate,
    exp,
    format_expr,
    is_zero,
    rat,
    simplify,
    split,
    substitute,
    var,
)
from .expr.nodes import ExprLike
from .hopfcole import cole_hopf_solution
from .report import ConditionReport, REJECTED, VerificationReport, combined_report, held
from .transforms import (
    ProjectiveTuple,
    _proj_maps,
    apply_transform,
    push_solution,
)

_COORDS = ("t", "x", "u")
_ATOMS = tuple(var(c) for c in _COORDS)


class SymmetryError(Exception):
    """Raised when a field leaves the polynomial setting or a basis is dependent."""


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


def _system(fields: Sequence[VectorField], ctx: Context) -> List[List[Fraction]]:
    """One row per (component, monomial in t, x, u), in sorted order, one
    column per field; an entry that is no exact rational raises SymmetryError."""
    columns: List[Dict[tuple, Fraction]] = [{} for _ in fields]
    for field, column in zip(fields, columns):
        for i, comp in enumerate(field.components()):
            try:
                parts = split(simplify(comp, ctx), _ATOMS)
            except CollectError as exc:
                raise SymmetryError(f"{field.describe()}: {exc}") from None
            for degrees, coeff in parts.items():
                if not isinstance(coeff, Rat):
                    raise SymmetryError(f"{field.describe()}: {format_expr(coeff)} is no rational")
                column[(i, degrees)] = Fraction(coeff.value)
    keys = sorted({key for column in columns for key in column})
    return [[column.get(key, Fraction(0)) for column in columns] for key in keys]


def _reduce(rows: List[List[Fraction]], n: int) -> Tuple[List[List[Fraction]], List[int]]:
    """Gauss-Jordan elimination over the first n columns, the rest riding
    along: the reduced rows, and the pivot columns of the rows in order."""
    aug, pivots = [list(r) for r in rows], []
    for col in range(n):
        row = len(pivots)
        sel = next((r for r in range(row, len(aug)) if aug[r][col]), None)
        if sel is None:
            continue
        aug[sel], aug[row] = aug[row], [a / aug[sel][col] for a in aug[sel]]
        for r in range(len(aug)):
            if r != row and (f := aug[r][col]):
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[row])]
        pivots.append(col)
    return aug, pivots


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

    The basis and the brackets of all pairs form one linear system over
    the monomial coefficients, eliminated once over the basis columns.
    The basis must be linearly independent: otherwise SymmetryError
    names the first field that is a combination of the ones before it.
    A bracket with a nonzero entry below the pivots falls outside the
    span and is recorded as a failure rather than raised.
    """
    if basis is None:
        basis = burgers_algebra()
    ctx = symmetry_context()
    n = len(basis)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    brackets = [bracket(basis[i], basis[j], ctx) for i, j in pairs]
    rows = _system([*basis, *brackets], ctx)
    aug, pivots = _reduce(rows, n)
    if len(pivots) < n:
        k = next(k for k in range(n) if k not in pivots)
        raise SymmetryError(
            f"basis field {k + 1} is a combination of the others: "
            + basis[k].describe()
        )
    constants: Dict[Tuple[int, int], List[Fraction]] = {}
    failures: List[Tuple[int, int, str]] = []
    for col, ((i, j), br) in enumerate(zip(pairs, brackets), start=n):
        coeffs = [aug[r][col] for r in range(n)]
        # in exact elimination the rows below the pivots decide the span;
        # the re-check against the original rows guards the solve
        if any(r[col] for r in aug[n:]) or any(
            sum(a * c for a, c in zip(r, coeffs)) != r[col] for r in rows
        ):
            failures.append((i + 1, j + 1, br.describe()))
        else:
            constants[(i + 1, j + 1)] = coeffs
    return StructureTable(n=n, constants=constants, failures=failures)


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
