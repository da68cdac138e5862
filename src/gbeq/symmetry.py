"""The point-symmetry algebra of the constant-coefficient member.

u_t + u u_x + u_xx = 0 admits a five-dimensional algebra of vector
fields on (t, x, u) space:

    e1 = d_t
    e2 = 2t d_t + x d_x - u d_u
    e3 = t^2 d_t + t x d_x + (x - u t) d_u
    e4 = d_x
    e5 = t d_x + d_u

This module computes brackets and structure constants exactly, builds
the one-parameter flows of the basis fields as projective tuples, and
decides membership of a tuple in the symmetry group by the criterion

    alpha delta - beta gamma = kappa^2 > 0,

which also admits the discrete reflection (kappa = -1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .classes import ClassId, EquationInstance, build_pde, class_context
from .expr import (
    Add,
    Context,
    Expr,
    Mul,
    Rat,
    ZERO,
    differentiate,
    exp,
    expand,
    format_expr,
    is_zero,
    mul,
    rat,
    simplify,
    substitute,
    var,
)
from .hopfcole import cole_hopf_solution
from .report import ConditionReport, REJECTED, VerificationReport, worst_verdict
from .transforms import (
    ProjectiveTuple,
    apply_projective,
    compose,
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


def _monomial_map(e: Expr, ctx: Context) -> Dict[Expr, Fraction]:
    """Expand into {monomial: rational coefficient}; must be polynomial."""
    e = expand(simplify(e, ctx))
    terms: Sequence[Expr]
    if isinstance(e, Add):
        terms = e.terms
    elif e == ZERO:
        return {}
    else:
        terms = (e,)
    out: Dict[Expr, Fraction] = {}
    for term in terms:
        if isinstance(term, Rat):
            key: Expr = rat(1)
            coeff = term.value
        elif isinstance(term, Mul):
            # strip the coefficient; dividing it out keeps keys canonical
            coeff = term.coeff
            key = mul(rat(Fraction(1) / coeff), term)
        else:
            key = term
            coeff = Fraction(1)
        out[key] = out.get(key, Fraction(0)) + coeff
    return {k: c for k, c in out.items() if c != 0}


def _field_vector(
    v: VectorField, rows: List[Tuple[int, Expr]], ctx: Context
) -> List[Fraction]:
    maps = [_monomial_map(c, ctx) for c in v.components()]
    return [maps[i].get(m, Fraction(0)) for i, m in rows]


def expand_in_basis(
    v: VectorField,
    basis: Sequence[VectorField],
    ctx: Optional[Context] = None,
) -> List[Fraction]:
    """Exact coefficients c with v = sum c_k basis_k, else SymmetryError."""
    if ctx is None:
        ctx = symmetry_context()
    rows_set: List[Tuple[int, Expr]] = []
    seen = set()
    for field in list(basis) + [v]:
        for i, comp in enumerate(field.components()):
            for m in _monomial_map(comp, ctx):
                if (i, m) not in seen:
                    seen.add((i, m))
                    rows_set.append((i, m))
    matrix = [_field_vector(b, rows_set, ctx) for b in basis]
    target = _field_vector(v, rows_set, ctx)

    # solve sum_k c_k matrix[k][r] = target[r] by Gaussian elimination
    n = len(basis)
    m = len(rows_set)
    aug = [[matrix[k][r] for k in range(n)] + [target[r]] for r in range(m)]
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
    # consistency: rows above may still mismatch if the system was
    # inconsistent within the pivot rows' columns; re-check directly
    for r in range(m):
        lhs = sum(matrix[k][r] * coeffs[k] for k in range(n))
        if lhs != target[r]:
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


Number = Union[Fraction, float]


def flow(index: int, eps: Number) -> ProjectiveTuple:
    """The time-eps flow of basis field e_index, as a projective tuple.

    Exact for every field except e2, whose flow involves exp(eps) and
    therefore returns float entries unless eps = 0.
    """
    one, zero = Fraction(1), Fraction(0)
    if index == 1:
        return ProjectiveTuple(one, Fraction(eps), zero, one, one, zero, zero)
    if index == 2:
        if eps == 0:
            return ProjectiveTuple(one, zero, zero, one, one, zero, zero)
        g = math.exp(float(eps))
        return ProjectiveTuple(g * g, 0.0, 0.0, 1.0, g, 0.0, 0.0)
    if index == 3:
        return ProjectiveTuple(one, zero, -Fraction(eps), one, one, zero, zero)
    if index == 4:
        return ProjectiveTuple(one, zero, zero, one, one, Fraction(eps), zero)
    if index == 5:
        return ProjectiveTuple(one, zero, zero, one, one, zero, Fraction(eps))
    raise SymmetryError(f"no basis field e{index}")


def flow_maps(index: int, eps_name: str = "s") -> Tuple[Expr, Expr, Expr]:
    """The flow of e_index as symbolic point maps (t~, x~, u~).

    The flow parameter appears as the variable eps_name, so the maps
    can be differentiated at 0 to recover the field components.  e2 is
    the one field whose flow is transcendental (exp factors).
    """
    t, x, u = var("t"), var("x"), var("u")
    s = var(eps_name)
    if index == 1:
        return (t + s, x, u)
    if index == 2:
        return (exp(rat(2) * s) * t, exp(s) * x, exp(-s) * u)
    if index == 3:
        den = rat(1) - s * t
        return (t / den, x / den, u * den + s * x)
    if index == 4:
        return (t, x + s, u)
    if index == 5:
        return (t, x + s * t, u + s)
    raise SymmetryError(f"no basis field e{index}")


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
    one, zero = Fraction(1), Fraction(0)
    return ProjectiveTuple(one, zero, zero, one, -one, zero, zero)


@dataclass(frozen=True)
class SymmetryGroupElement:
    """A projective tuple, optionally pre-composed with the reflection."""

    tuple: ProjectiveTuple
    reflect: bool = False

    def effective(self) -> ProjectiveTuple:
        """The single tuple this element acts as (reflection folded in)."""
        if self.reflect:
            return compose(reflection(), self.tuple)
        return self.tuple


def satisfies_group_constraint(p: ProjectiveTuple, tol: float = 1e-12) -> bool:
    """alpha delta - beta gamma = kappa^2, exactly or within tol."""
    det = p.det
    k2 = p.kappa * p.kappa
    if isinstance(det, Fraction) and isinstance(k2, Fraction):
        return det == k2
    return abs(float(det) - float(k2)) <= tol * max(1.0, abs(float(det)))


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
    g: Union[ProjectiveTuple, SymmetryGroupElement],
    tol: float = 1e-9,
    seed: int = 42,
    solutions: Optional[Sequence[Expr]] = None,
) -> VerificationReport:
    """Whether g preserves the constant-coefficient member.

    Checks the group constraint alpha delta - beta gamma = kappa^2
    first; a violation rejects the candidate outright.  Otherwise the
    catalog solutions are pushed through g's point maps and the PDE
    residual of each image is tested.
    """
    p = g.effective() if isinstance(g, SymmetryGroupElement) else g
    if solutions is None:
        solutions = solution_catalog()
    inst = EquationInstance(ClassId.BURGERS, {})
    ctx = class_context(ClassId.BURGERS)
    dep = inst.dependent

    det, k2 = p.det, p.kappa * p.kappa
    constraint_ok = satisfies_group_constraint(p)
    if not constraint_ok:
        constraint_verdict = REJECTED
    elif isinstance(det, Fraction) and isinstance(k2, Fraction):
        constraint_verdict = "SYMBOLIC_ZERO"
    else:
        constraint_verdict = "NUMERIC_ZERO"
    conditions = [
        ConditionReport(
            description="group constraint alpha delta - beta gamma = kappa^2",
            ok=constraint_ok,
            verdict=constraint_verdict,
            detail=f"det = {det}, kappa^2 = {k2}",
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
    res = apply_projective(p, inst)
    for idx, sol in enumerate(solutions):
        pushed = push_solution(res, sol, ctx)
        residual = simplify(substitute(pde, {dep: pushed}, ctx), ctx)
        # value semantics: a float-entry tuple is a symmetry only up to
        # rounding, so the residual is judged by its sampled size
        zr = is_zero(residual, ctx, tol=tol, seed=seed, normalize=False)
        conditions.append(
            ConditionReport(
                description=(
                    f"catalog entry {idx} transports to a solution "
                    f"(u = {format_expr(sol)})"
                ),
                ok=bool(zr),
                verdict=zr.verdict,
                detail=zr.summary(),
            )
        )

    return VerificationReport(
        verdict=worst_verdict(c.verdict for c in conditions),
        residual_text="PDE residual of each transported catalog solution",
        tolerance=tol,
        seed=seed,
        summary=f"{sum(c.ok for c in conditions)}/{len(conditions)} conditions hold",
        conditions=conditions,
    )


def flow_generator_check(index: int, tol: float = 1e-9, seed: int = 42) -> VerificationReport:
    """d/ds at 0 of flow_maps(index) against the basis field, componentwise."""
    ctx = symmetry_context()
    derived = flow_generator(index)
    expected = burgers_algebra()[index - 1]
    conditions = []
    for comp_d, comp_e, name in zip(
        derived.components(), expected.components(), _COORDS
    ):
        zr = is_zero(comp_d - comp_e, ctx, tol=tol, seed=seed)
        conditions.append(
            ConditionReport(
                description=f"{name}-component of the flow derivative matches e{index}",
                ok=bool(zr),
                verdict=zr.verdict,
                detail=zr.summary(),
            )
        )
    all_ok = all(c.ok for c in conditions)
    return VerificationReport(
        verdict=worst_verdict(c.verdict for c in conditions),
        residual_text=f"flow derivative at s = 0 minus e{index}",
        tolerance=tol,
        seed=seed,
        summary=(
            f"flow {index}: generator "
            + ("recovered" if all_ok else "mismatch")
            + f" ({derived.describe()})"
        ),
        conditions=conditions,
    )
