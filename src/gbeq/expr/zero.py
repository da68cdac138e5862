"""Deciding whether an expression vanishes identically.

The symbolic route (simplify, expand, clear denominators) settles
every rational identity exactly; the exp constructor has already
turned exp(c_1 ln a_1 + ... + r) into a_1^c_1 ... exp(r).  When the
normal form is not zero, one exact stage follows: integral_identity
splits an expression linear in a single antiderivative atom I as
A + C*I (simplify.split) and proves it zero by differentiating -A/C
(the antiderivative rule).  What that stage does not decide is
sampled by sampled_verdict: either per jet coordinate, treating each
derivative atom as an independent unknown, or, when function symbols
appear with explicit arguments or under antiderivatives, by binding
every symbol to a random polynomial stand-in so that all occurrences
stay consistent.  is_zero and gbeq.verify.residual run the same
stages in the same order, and the same sampler.

Every draw runs one loop, sample_zero: a seeded draw function proposes
points, the loop skips points that cannot be evaluated, applies a
relative-tolerance test to the sum of the terms, and stops at the first
point that fails it.  The box (MAGNITUDE), the count (SAMPLES) and the
attempt budget (ATTEMPTS) are fixed, and a coordinate takes the sign
the context gives it, so only the seed and the context's signs move
the points.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from .calculus import differentiate, substitute
from .context import Context
from .context import NEGATIVE as FLAG_NEGATIVE
from .context import NONZERO as FLAG_NONZERO
from .context import POSITIVE as FLAG_POSITIVE
from .fmt import format_expr
from .nodes import (
    APPLIED,
    INT,
    INT_BASE,
    MINUS_ONE,
    Add,
    App,
    Expr,
    ExprError,
    Func,
    Int,
    Mul,
    Rat,
    Var,
    ZERO,
    _as_coeff_powers,
    add,
    atoms_of,
    holds,
    mul,
    pow_,
    rat,
    var,
    walk,
)
from .numeric import EvalError, Evaluator
from .simplify import CollectError, normal_form, normal_form_is_zero, ratio_normal, split

SYMBOLIC_ZERO = "SYMBOLIC_ZERO"
NUMERIC_ZERO = "NUMERIC_ZERO"
NONZERO = "NONZERO"

# Every sampled coordinate has a magnitude in MAGNITUDE, of either sign
# unless the context fixes it, and a NUMERIC_ZERO verdict rests on
# SAMPLES points, drawn in at most ATTEMPTS tries: one box, one count and
# one budget for every draw.
MAGNITUDE = (0.1, 2.0)
SAMPLES = 30
ATTEMPTS = 30 * SAMPLES


@dataclass
class ZeroResult:
    """Outcome of an identity test."""

    verdict: str
    residual: Expr
    tolerance: float
    seed: int
    samples: List[Tuple[Dict[str, float], float]] = field(default_factory=list)
    max_abs: float = 0.0
    note: str = ""

    def __bool__(self) -> bool:
        return self.verdict in (SYMBOLIC_ZERO, NUMERIC_ZERO)

    def summary(self) -> str:
        if self.verdict == SYMBOLIC_ZERO:
            return "reduced to 0 symbolically"
        if self.verdict == NUMERIC_ZERO:
            return (
                f"not symbolically zero; {len(self.samples)} samples within "
                f"relative tolerance {self.tolerance:g} (max {self.max_abs:.3g})"
            )
        return f"nonzero (max sampled magnitude {self.max_abs:.3g})"


class SamplingError(ExprError):
    """Raised when no valid sample points could be drawn."""


def is_zero(
    e: Expr,
    ctx: Optional[Context] = None,
    tol: float = 1e-9,
    seed: int = 42,
) -> ZeroResult:
    """Test whether e vanishes identically, symbolically then numerically.

    SYMBOLIC_ZERO when the normal form is 0 or the antiderivative rule
    (integral_identity) proves it 0.  Otherwise the numeric stage
    samples the cleared-denominator normal form, which is the right
    notion for identities between opaque symbols.
    """
    nf = normal_form(e, ctx)
    if nf == ZERO or integral_identity(nf, ctx):
        return ZeroResult(SYMBOLIC_ZERO, nf, tol, seed)
    if isinstance(nf, Rat):
        # a nonzero constant is decided exactly, whatever the tolerance
        value = Evaluator()(nf, {})
        return ZeroResult(NONZERO, nf, tol, seed, samples=[({}, value)], max_abs=abs(value))
    return sampled_verdict(nf, ctx, tol, seed)


def integral_identity(nf: Expr, ctx: Optional[Context] = None) -> bool:
    """Is the normal form nf proved 0 by differentiating its one antiderivative atom?

    nf is a normal form (simplify.normal_form) that is not 0.  The rule
    applies when nf holds exactly one distinct Int atom I = int(b, v),
    whose body b holds none, and I occurs there only as a factor of a
    term, to the power 1: never inside an exp argument, a sum, a
    power's base or a function's argument.  Then split(nf, (I,)) reads nf
    as A + C*I with C not 0, and with H = -A/C and (N, D) =
    ratio_normal(H), nf is 0 when

    1. d(H)/dv - b has normal form 0, and
    2. N at v = INT_BASE has normal form 0, and D there is proved not
       to vanish identically (_proved_nonzero).

    This is sound: I - H has derivative 0 in v and vanishes at v =
    INT_BASE, where I is based (nodes.Int) and H = N/D = 0, so I = H on
    the interval from INT_BASE to v, and A + C*I = A + C*H = 0.  Where H
    has a pole between INT_BASE and v, b = dH/dv is not integrable
    there, so I, and with it nf, is undefined.  A derivative that needs
    a sign assumption the context lacks, a D that vanishes at INT_BASE
    or is not proved not to, or any other shape returns False, leaving
    nf to the sampler.
    """
    terms = nf.terms if isinstance(nf, Add) else (nf,)
    ints = [b for term in terms for b, _ in _as_coeff_powers(term)[1] if isinstance(b, Int)]
    if not ints or holds(ints[0].body, INT):
        return False
    atom = ints[0]
    try:
        parts = split(nf, (atom,))
    except CollectError:
        return False
    if max(parts) != (1,) or any(holds(p, INT) for p in parts.values()):
        return False
    h = mul(MINUS_ONE, parts.get((0,), ZERO), pow_(parts[(1,)], -1))
    base = {atom.var: rat(INT_BASE)}
    try:
        if not normal_form_is_zero(differentiate(h, atom.var, ctx) - atom.body, ctx):
            return False
        n, d = ratio_normal(h)
        return normal_form_is_zero(substitute(n, base, ctx), ctx) and _proved_nonzero(
            substitute(d, base, ctx), ctx
        )
    except ExprError:
        return False


def _proved_nonzero(e: Expr, ctx: Optional[Context]) -> bool:
    """Is e shown not to vanish identically?

    A normal form that is not 0 shows it only where its atoms are
    algebraically independent; sin(t)^2 + cos(t)^2 - 1 has one and is
    0.  So beyond a nonzero constant this accepts a normal form
    sum_j m_j*exp(s_j) (the kernel merges the exp factors of a term
    into one) whose m_j and s_j are rational in variables and function
    symbols applied at variables and constants (_rational), and whose
    exponents s_j, with s = 0 for the terms without exp, differ
    pairwise by a nonzero rational function.  Such atoms are
    independent, and exp(s_j - s_k) is not rational when s_j - s_k is
    not 0, so the exp(s_j) are linearly independent over the rational
    functions (Risch 1979) and a nonzero m_j makes e nonzero.  Anything
    else returns False.
    """
    nf = normal_form(e, ctx)
    if nf == ZERO:
        return False
    exponents = {ZERO}
    for term in nf.terms if isinstance(nf, Add) else (nf,):
        exps = []
        for b, k in _as_coeff_powers(term)[1]:
            if isinstance(b, App) and b.fn == "exp" and k == 1:
                exps.append(b.arg)
            elif not (k.denominator == 1 and _rational(b)):
                return False
        if len(exps) > 1 or not all(_rational(s) for s in exps):
            return False
        exponents.update(exps)
    return not any(
        normal_form_is_zero(s - r, ctx)
        for s, r in itertools.combinations(exponents, 2)
    )


def _rational(e: Expr) -> bool:
    """Is e built from rationals, variables and f at variables and constants?"""
    return all(
        isinstance(n, (Rat, Var, Add))
        or (isinstance(n, Mul) and all(k.denominator == 1 for _, k in n.powers))
        or (
            isinstance(n, Func)
            and (n.args is None or all(isinstance(a, (Rat, Var)) for a in n.args))
        )
        for n in walk(e)
    )


def sampled_verdict(e: Expr, ctx: Optional[Context], tol: float, seed: int) -> ZeroResult:
    """The numeric stage of is_zero, for an e already known not to be symbolically 0.

    e is sampled per jet coordinate, or with polynomial stand-ins when
    symbols appear with explicit arguments or under antiderivatives;
    either way each coordinate takes the sign ctx gives it.  A constant
    e is graded like any other expression, within tolerance, so a
    float-contaminated candidate whose residual is a tiny constant
    still reads NUMERIC_ZERO.
    """
    rng = random.Random(seed)
    if holds(e, INT | APPLIED):
        result = sample_zero(
            e, _standin_draw(e, ctx, rng),
            SamplingError("could not draw valid stand-in rounds"), tol, seed,
        )
        result.note = "stand-in sampling"
        return result
    return sample_zero(
        e, _jet_draw(e, ctx, rng),
        SamplingError("could not draw valid sample points"), tol, seed,
    )


def _draw_signed(rng: random.Random, sign: Optional[int]) -> float:
    mag = rng.uniform(*MAGNITUDE)
    if sign is None:
        sign = rng.choice((1, -1))
    return sign * mag


def _atom_sign(ctx: Optional[Context], atom: Expr) -> Optional[int]:
    if ctx is None:
        return None
    return ctx.sign_of(atom)


Draw = Callable[[], Optional[Tuple[Evaluator, Dict[str, float]]]]


def sample_zero(
    e: Expr,
    draw: Draw,
    failure: Exception,
    tol: float,
    seed: int,
) -> ZeroResult:
    """Grade e on SAMPLES seeded points: NUMERIC_ZERO or NONZERO.

    draw returns an evaluator and the point to evaluate at, or None to
    reject the draw; points where a term raises EvalError are skipped
    as well.  Once ATTEMPTS draws have not produced enough points,
    an exception of failure's type is raised, its message failure's
    with the last point's EvalError appended, so the report says what
    failed.  A point passes when the sum of the terms stays within tol
    times the largest term magnitude (at least 1); the first point that
    does not makes e NONZERO.  So does a point whose sum is not finite:
    past the float range nothing vouches for zero.
    """
    terms = e.terms if isinstance(e, Add) else (e,)
    samples: List[Tuple[Dict[str, float], float]] = []
    max_abs = 0.0
    attempts = 0
    error: Optional[EvalError] = None
    while len(samples) < SAMPLES:
        attempts += 1
        if attempts > ATTEMPTS:
            if error is None:
                raise failure
            raise type(failure)(f"{failure} (last: {error})")
        drawn = draw()
        if drawn is None:
            continue
        evaluator, point = drawn
        try:
            values = [evaluator(t, point) for t in terms]
        except EvalError as exc:
            error = exc
            continue
        total = sum(values)
        samples.append((point, total))
        max_abs = max(max_abs, abs(total))
        if not math.isfinite(total) or abs(total) > tol * max(
            [1.0] + [abs(v) for v in values]
        ):
            return ZeroResult(NONZERO, e, tol, seed, samples=samples, max_abs=max_abs)
    return ZeroResult(NUMERIC_ZERO, e, tol, seed, samples=samples, max_abs=max_abs)


def _jet_draw(nf: Expr, ctx: Optional[Context], rng: random.Random) -> Draw:
    """Independent values for every atom of nf, each derivative its own unknown."""
    atoms = atoms_of(nf)

    def draw() -> Tuple[Evaluator, Dict[str, float]]:
        values = {a: _draw_signed(rng, _atom_sign(ctx, a)) for a in atoms}
        # the point labels every atom; variables are read from it by name
        point = {format_expr(a): v for a, v in values.items()}
        return Evaluator(atom_values=values), point

    return draw


# -- stand-in sampling ------------------------------------------------------


def _collect_symbols(e: Expr) -> Tuple[Dict[str, Tuple[str, ...]], set]:
    """Function signatures by name, and every variable name e involves."""
    funcs: Dict[str, Tuple[str, ...]] = {}
    var_names: set = set()
    for n in walk(e):
        if isinstance(n, Var):
            var_names.add(n.name)
        elif isinstance(n, Func):
            funcs[n.name] = n.argnames
            var_names.update(n.argnames)
        elif isinstance(n, Int):
            var_names.add(n.var)
    return funcs, var_names


def _func_constraints(
    ctx: Optional[Context], name: str, argnames: Tuple[str, ...]
) -> Dict[Tuple[int, ...], str]:
    """Sign requirements on derivative atoms of a symbol, keyed by didx."""
    out: Dict[Tuple[int, ...], str] = {}
    if ctx is None:
        return out
    for target, flags in ctx.assumptions.items():
        if isinstance(target, Func) and target.name == name and target.args is None:
            if FLAG_POSITIVE in flags:
                out[target.didx] = FLAG_POSITIVE
            elif FLAG_NEGATIVE in flags:
                out[target.didx] = FLAG_NEGATIVE
            elif FLAG_NONZERO in flags:
                out[target.didx] = FLAG_NONZERO
    return out


def _random_standin(
    rng: random.Random,
    argnames: Tuple[str, ...],
    constraints: Dict[Tuple[int, ...], str],
) -> Expr:
    """A random polynomial with boosted coefficients on constrained didx.

    Constraint satisfaction is verified afterwards at the sampled
    points; this only biases the draw toward satisfying them.
    """
    max_deg = 2
    for didx in constraints:
        max_deg = max(max_deg, sum(didx))
    quiet = 0.02 if constraints else 1.0
    terms = []
    k = len(argnames)
    for alpha in itertools.product(range(max_deg + 1), repeat=k):
        if sum(alpha) > max_deg:
            continue
        flag = constraints.get(alpha)
        if flag is None:
            c = rng.uniform(-1.2, 1.2) * quiet
        else:
            c = rng.uniform(0.9, 1.4)
            if flag == FLAG_NEGATIVE or (flag == FLAG_NONZERO and rng.random() < 0.5):
                c = -c
            # divide by the factorials the derivative will multiply back
            for a in alpha:
                for j in range(2, a + 1):
                    c /= j
        coeff = Fraction(round(c * 10**6), 10**6)
        if coeff == 0:
            continue
        factors: List[Expr] = [rat(coeff)]
        for name, power in zip(argnames, alpha):
            if power:
                factors.append(pow_(var(name), power))
        terms.append(mul(*factors))
    return add(*terms)


def _standin_draw(nf: Expr, ctx: Optional[Context], rng: random.Random) -> Draw:
    """Variable values plus one random polynomial per function symbol of nf.

    Draws whose stand-ins break the sign assumptions of ctx are rejected.
    """
    funcs, var_names = _collect_symbols(nf)
    constraints = {
        name: _func_constraints(ctx, name, sig) for name, sig in funcs.items()
    }

    def draw() -> Optional[Tuple[Evaluator, Dict[str, float]]]:
        point = {
            name: _draw_signed(rng, _atom_sign(ctx, var(name)))
            for name in sorted(var_names)
        }
        bindings = {
            name: _random_standin(rng, sig, constraints[name])
            for name, sig in sorted(funcs.items())
        }
        evaluator = Evaluator(bindings=bindings)
        if not _constraints_hold(evaluator, funcs, constraints, point):
            return None
        return evaluator, point

    return draw


def _constraints_hold(
    evaluator: Evaluator,
    funcs: Dict[str, Tuple[str, ...]],
    constraints: Dict[str, Dict[Tuple[int, ...], str]],
    point: Dict[str, float],
) -> bool:
    for name, sig in funcs.items():
        for didx, flag in constraints[name].items():
            node = Func(name, sig, didx, None)
            try:
                v = evaluator(node, point)
            except EvalError:
                return False
            if flag == FLAG_POSITIVE and v < 1e-6:
                return False
            if flag == FLAG_NEGATIVE and v > -1e-6:
                return False
            if flag == FLAG_NONZERO and abs(v) < 1e-6:
                return False
    return True
