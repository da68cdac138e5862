"""Deciding whether an expression vanishes identically.

The symbolic route (simplify, expand, clear denominators) settles
every rational identity exactly.  When it does not reduce to zero the
expression is sampled: either per jet coordinate, treating each
derivative atom as an independent unknown, or, when function symbols
appear with explicit arguments or under antiderivatives, by binding
every symbol to a random polynomial stand-in so that all occurrences
stay consistent.

Both stages, and the residual sampler of gbeq.verify, run one loop,
sample_zero: a seeded draw function proposes points, the loop skips
points that cannot be evaluated, applies a relative-tolerance test to
the sum of the terms, and stops at the first point that fails it.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from .context import Context
from .context import NEGATIVE as FLAG_NEGATIVE
from .context import NONZERO as FLAG_NONZERO
from .context import POSITIVE as FLAG_POSITIVE
from .fmt import format_expr
from .nodes import (
    Add,
    Expr,
    ExprError,
    Func,
    Int,
    Rat,
    Var,
    ZERO,
    add,
    atoms_of,
    mul,
    pow_,
    rat,
    var,
    walk,
)
from .numeric import EvalError, Evaluator
from .simplify import normal_form, simplify

SYMBOLIC_ZERO = "SYMBOLIC_ZERO"
NUMERIC_ZERO = "NUMERIC_ZERO"
NONZERO = "NONZERO"

_MAGNITUDE = (0.1, 2.0)


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
    n_samples: int = 30,
    seed: int = 42,
    normalize: bool = True,
) -> ZeroResult:
    """Test whether e vanishes identically, symbolically then numerically.

    By default the numeric stage samples the cleared-denominator
    normal form, which is the right notion for identities between
    opaque symbols.  With normalize=False it samples the expression's
    own values instead (after plain simplification), so verdicts carry
    value semantics: small-but-nonzero residuals of approximate data
    count as NUMERIC_ZERO.
    """
    nf = normal_form(e, ctx)
    if nf == ZERO:
        return ZeroResult(SYMBOLIC_ZERO, nf, tol, seed)
    return sampled_verdict(nf if normalize else simplify(e, ctx), ctx, tol, n_samples, seed)


def sampled_verdict(
    e: Expr, ctx: Optional[Context], tol: float, n_samples: int, seed: int
) -> ZeroResult:
    """The numeric stage of is_zero, for an e already known not to be symbolically 0.

    Constants are graded directly; otherwise e is sampled per jet
    coordinate, or with polynomial stand-ins when symbols appear with
    explicit arguments or under antiderivatives.
    """
    if isinstance(e, Rat):
        value = Evaluator()(e, {})
        return ZeroResult(
            NONZERO, e, tol, seed, samples=[({}, value)], max_abs=abs(value)
        )
    rng = random.Random(seed)
    if _needs_standins(e):
        result = sample_zero(
            e, _standin_draw(e, ctx, rng), n_samples, n_samples * 30,
            SamplingError("could not draw valid stand-in rounds"), tol, seed,
        )
        result.note = "stand-in sampling"
        return result
    return sample_zero(
        e, _jet_draw(e, ctx, rng), n_samples, n_samples * 20,
        SamplingError("could not draw valid sample points"), tol, seed,
    )


def _needs_standins(e: Expr) -> bool:
    """Explicit applications and antiderivatives correlate occurrences."""
    return any(
        isinstance(n, Int) or (isinstance(n, Func) and n.args is not None)
        for n in walk(e)
    )


def _draw_signed(rng: random.Random, sign: Optional[int]) -> float:
    mag = rng.uniform(*_MAGNITUDE)
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
    n_samples: int,
    max_attempts: int,
    failure: Exception,
    tol: float,
    seed: int,
) -> ZeroResult:
    """Grade e on n_samples seeded points: NUMERIC_ZERO or NONZERO.

    draw returns an evaluator and the point to evaluate at, or None to
    reject the draw; points where a term raises EvalError are skipped
    as well.  failure is raised once max_attempts draws have not
    produced enough points.  A point passes when the sum of the terms
    stays within tol times the largest term magnitude (at least 1);
    the first point that does not makes e NONZERO.  So does a point
    whose sum is not finite: past the float range nothing vouches for
    zero.
    """
    terms = e.terms if isinstance(e, Add) else (e,)
    samples: List[Tuple[Dict[str, float], float]] = []
    max_abs = 0.0
    attempts = 0
    while len(samples) < n_samples:
        attempts += 1
        if attempts > max_attempts:
            raise failure
        drawn = draw()
        if drawn is None:
            continue
        evaluator, point = drawn
        try:
            values = [evaluator(t, point) for t in terms]
        except EvalError:
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
                factors.append(pow_(var(name), Fraction(power)))
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
