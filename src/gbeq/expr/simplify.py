"""Canonicalization passes beyond the constructors.

simplify applies rewrites whose validity depends on the assumption
set: resolving abs and sign, pairing sign(a)*a into abs(a), folding
even powers of abs, and upgrading opaque Pow nodes once positivity is
known.  A subtree whose build-time summary lacks the REWRITABLE bit
(nodes.holds) holds none of these nodes and is returned as it is,
without a visit; a new rewrite here must set that bit on its node in
nodes.py, or it is skipped on every tree the bit does not mark.  Each
call keeps a memo from marked node to result, so a subtree that
recurs, however often, is simplified once; the memo dies with the call.

expand, split, ratio_normal and normal_form go through the polynomial
kernel of gbeq.expr.poly and back to a tree; split buckets the monomials
by several atoms' degrees in one pass.  normal_form_is_zero answers
normal_form(e) == 0 in two steps.  An exact modular witness comes
first: over +, * and integer powers of rationals, variables and
unapplied function symbols, e is evaluated modulo the prime 2^61 - 1
at a point drawn from a fixed seed, each atom getting a residue in the
order a preorder walk first meets it, so the point does not depend on
PYTHONHASHSEED.  Where every denominator is a unit there, a nonzero
value proves e is not the zero rational function, so the kernel's
numerator is not empty and the answer is no, with nothing expanded.
Otherwise (a zero value, a zero denominator, or any other node) the
answer is read off the kernel's numerator, whose tree is built only
when simplify may rewrite one of its atoms.  The kernel holds a
polynomial as a dict from monomial to coefficient over kernel atoms
(Var, Func, Int, opaque Pow, App other than exp, radicals of
rationals, and sums kept whole under a negative or fractional
exponent, each with its arguments expanded).  A monomial is one int:
its exponents, fractional ones over a per-call denominator, packed
into fixed-width fields beside the index of its one merged exp
factor, so a term product is one integer addition.  A quotient keeps
its denominator factored as content-normal bases with exponents, and
sums of quotients go over the least common multiple of those bases;
no polynomial gcd is taken.  normal_form and ratio_normal clear the
expanded polynomial the same way, straight off its monomials, one
quotient per distinct denominator part: normal_form keeps the
numerator, and ratio_normal also writes the denominator as a tree.
Each call runs on its own kernel, whose memo maps every distinct
subtree to its polynomial once and is dropped on return; a call whose exponents
outgrow the kernel's layout is repeated on a wider one.  Clearing
denominators this way decides every rational identity exactly.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from .context import Context
from .nodes import (
    INT,
    REWRITABLE,
    Add,
    App,
    Expr,
    Func,
    Int,
    MINUS_ONE,
    Mul,
    ONE,
    Pow,
    Rat,
    RationalLike,
    Var,
    ZERO,
    app,
    contains_func,
    holds,
    mentions_var,
    mul,
    pow_,
    rat,
)
from .poly import CollectError, Kernel, Poly, run


def simplify(e: Expr, ctx: Optional[Context] = None) -> Expr:
    """Rebuild e bottom-up, applying assumption-aware rewrites."""
    return _simplified(e, ctx, {})


def _simplified(e: Expr, ctx: Optional[Context], memo: Dict[Expr, Expr]) -> Expr:
    if not holds(e, REWRITABLE):
        return e
    r = memo.get(e)
    if r is None:
        r = memo[e] = _simplify_node(e, ctx, memo)
    return r


def _simplify_node(e: Expr, ctx: Optional[Context], memo: Dict[Expr, Expr]) -> Expr:
    """simplify of one node, its children simplified through the memo."""
    if isinstance(e, App):
        return _simplify_app(e.fn, _simplified(e.arg, ctx, memo), ctx)
    if isinstance(e, Pow):
        return _simplify_pow(_simplified(e.base, ctx, memo), e.exponent, ctx)
    if isinstance(e, Mul):
        factors: List[Expr] = [rat(e.coeff)]
        for b, ex in e.powers:
            factors.append(_simplify_pow(_simplified(b, ctx, memo), ex, ctx))
        return _pair_sign_factors(mul(*factors), ctx)
    return e.rebuild(lambda c: _simplified(c, ctx, memo))


def _simplify_app(fn: str, arg: Expr, ctx: Optional[Context]) -> Expr:
    if ctx is not None:
        if fn == "abs":
            s = ctx.sign_of(arg)
            if s == 1:
                return arg
            if s == -1:
                return -arg
        if fn == "sign":
            s = ctx.sign_of(arg)
            if s is not None:
                return ONE if s == 1 else MINUS_ONE
    return app(fn, arg)


def _simplify_pow(base: Expr, exponent: RationalLike, ctx: Optional[Context]) -> Expr:
    """pow_ plus upgrades that need the context.

    Even integer powers of abs and sign shed the wrapper when the
    argument is nonzero: abs(a)^2 -> a^2 and sign(a)^2 -> 1.  Opaque
    Pow nodes distribute once positivity of the blocking factors is
    assumed.
    """
    if ctx is not None and isinstance(base, App) and exponent.denominator == 1:
        n = int(exponent)
        if base.fn == "abs" and n % 2 == 0:
            return pow_(base.arg, exponent)
        if base.fn == "sign" and ctx.is_nonzero(base.arg):
            return ONE if n % 2 == 0 else app("sign", base.arg)
    p = pow_(base, exponent)
    if isinstance(p, Pow) and ctx is not None:
        inner = p.base
        if isinstance(inner, Mul) and ctx.is_positive(inner):
            parts = [pow_(rat(inner.coeff), p.exponent)] if inner.coeff > 0 else []
            if inner.coeff < 0:
                return p
            for b, ex in inner.powers:
                if ctx.is_positive(b):
                    parts.append(_simplify_pow(b, ex * p.exponent, ctx))
                elif ex.numerator % 2 == 0 and ex.denominator == 1:
                    parts.append(pow_(app("abs", b), ex * p.exponent))
                else:
                    return p
            return mul(*parts)
        if isinstance(inner, Pow) and ctx.is_positive(inner.base):
            return _simplify_pow(inner.base, inner.exponent * p.exponent, ctx)
    return p


def _pair_sign_factors(e: Expr, ctx: Optional[Context]) -> Expr:
    """Rewrite sign(a)^j * a^k and sign(a)^j * abs(a)^k inside a product.

    sign is only defined away from zeros of its argument, so on its
    domain sign(a)^2 = 1 and sign(a)*a = abs(a) hold without further
    assumptions.
    """
    if not isinstance(e, Mul):
        return e
    signs: Dict[Expr, int] = {}
    for b, ex in e.powers:
        if isinstance(b, App) and b.fn == "sign" and ex.denominator == 1:
            signs[b.arg] = int(ex) % 2
    if not signs:
        return e
    factors: List[Expr] = [rat(e.coeff)]
    consumed: Dict[Expr, int] = dict(signs)
    for b, ex in e.powers:
        if isinstance(b, App) and b.fn == "sign" and ex.denominator == 1:
            continue  # re-added at the end with whatever power remains
        pair_with_abs = b in consumed
        pair_with_arg = (
            isinstance(b, App) and b.fn == "abs" and b.arg in consumed
        )
        target = b if pair_with_abs else (b.arg if pair_with_arg else None)
        if (
            target is None
            or ex.denominator != 1
            or ex <= 0
            or consumed[target] == 0
        ):
            factors.append(pow_(b, ex))
            continue
        consumed[target] = 0
        if pair_with_abs:
            # sign(a) * a^k = abs(a) * a^(k-1)
            factors.append(app("abs", target))
            factors.append(pow_(b, ex - 1))
        else:
            # sign(a) * abs(a)^k = a * abs(a)^(k-1)
            factors.append(target)
            factors.append(pow_(b, ex - 1))
    for a, k in consumed.items():
        if k:
            factors.append(app("sign", a))
    return mul(*factors)


def expand(e: Expr) -> Expr:
    """Distribute products over sums and expand positive integer powers."""
    return run(lambda k: k.tree(k.expand(e)))


def split(e: Expr, atoms: Sequence[Expr]) -> Dict[Tuple[int, ...], Expr]:
    """Coefficients of e as a polynomial in Var, Func or Int atoms, by degrees.

    e is expanded once and its monomials bucketed by the tuple of the
    atoms' exponents (Kernel.degrees), in sorted order; 0 gives
    {(0, ...): 0}.  A negative or fractional power of an atom, or an atom
    inside another base, raises CollectError.  An Int counts as inside
    any base holding an antiderivative in its variable.
    """
    atoms, inside = tuple(atoms), []
    for atom in atoms:
        if isinstance(atom, Var):
            inside.append(lambda b, name=atom.name: mentions_var(b, name))
        elif isinstance(atom, Func):
            inside.append(lambda b, name=atom.name: contains_func(b, name))
        elif isinstance(atom, Int):
            inside.append(lambda b, name=atom.var: holds(b, INT) and mentions_var(b, name))
        else:
            raise CollectError(f"cannot collect in {atom!r}")
    return run(lambda k: {
        d: k.tree(p) for d, p in sorted(k.degrees(k.expand(e), atoms, inside).items())
    } or {(0,) * len(atoms): ZERO})


def ratio_normal(e: Expr) -> Tuple[Expr, Expr]:
    """Write e as num/den with denominators cleared: num expanded, den factored.

    e is expanded first, and num is the numerator normal_form starts
    from; den is an integer times content-normal bases.  Only integer
    exponents are split across the quotient; fractional powers stay
    whole so no sign information is lost.  e is zero on its domain
    exactly when the returned numerator is zero.
    """
    def task(k: Kernel) -> Tuple[Expr, Expr]:
        n, lcm, top = k.quotient(k.expand(e))
        return k.tree(n), mul(rat(lcm), *[pow_(b, x) for b, x in top.items()])

    return run(task)


def normal_form(e: Expr, ctx: Optional[Context] = None) -> Expr:
    """simplify, expand, clear denominators, and simplify the numerator.

    The result is zero (the Rat node 0) exactly when e vanishes
    identically on its domain, provided e is rational in its atoms.
    """
    k, n = _numerator(e, ctx)
    return simplify(k.tree(n), ctx)


def normal_form_is_zero(e: Expr, ctx: Optional[Context] = None) -> bool:
    """normal_form(e, ctx) == ZERO, without building the normal form.

    When the modular witness proves e nonzero the answer is False and
    no kernel is built.  Otherwise the numerator's tree is built and
    simplified only when one of its kernel atoms holds a REWRITABLE
    node; over other atoms simplify hands the tree back as it is, and
    the tree of a nonempty polynomial is not 0.
    """
    if _witness(e):
        return False
    k, n = _numerator(e, ctx)
    if not n:
        return True
    if any(holds(a, REWRITABLE) for a in (*k.base, *k.exp_node)):
        return simplify(k.tree(n), ctx) == ZERO
    return False


# the witness's modulus, the Mersenne prime 2^61 - 1, and the seed of its point
_P = (1 << 61) - 1
_WITNESS_SEED = 1979


def _residue(q: RationalLike) -> Optional[int]:
    """q modulo _P, or None when its denominator is not a unit."""
    if q.__class__ is int:
        return q % _P
    d = q.denominator % _P
    return q.numerator * pow(d, -1, _P) % _P if d else None


def _witness(e: Expr) -> Optional[int]:
    """e modulo _P at the seeded point, or None when that proves nothing.

    Only Rat, Var, unapplied Func, Add and Mul with integer exponents
    are evaluated; any other node, a fractional exponent, a rational
    whose denominator vanishes modulo _P or a zero base under a
    negative exponent gives None.  On that fragment evaluation modulo
    _P is a ring map from the rational functions defined at the point,
    so a nonzero value shows e is not the zero rational function, and
    the kernel, which decides rational identities exactly, would find
    a nonempty numerator.  None of these nodes is REWRITABLE, so
    simplify would hand e back as it is.
    """
    draw = random.Random(_WITNESS_SEED).randrange
    value: Dict[Expr, int] = {}
    stack = [(e, False)]
    while stack:
        node, ready = stack.pop()
        if node in value:
            continue
        cls = node.__class__
        if cls is Add:
            if not ready:
                stack.append((node, True))
                stack.extend((t, False) for t in reversed(node.terms))
                continue
            v = sum([value[t] for t in node.terms]) % _P
        elif cls is Mul:
            if not ready:
                if any(k.__class__ is not int for _, k in node.powers):
                    return None
                stack.append((node, True))
                stack.extend((b, False) for b, _ in reversed(node.powers))
                continue
            v = _residue(node.coeff)
            if v is None:
                return None
            for b, k in node.powers:
                bv = value[b]
                if k < 0 and not bv:
                    return None
                v = v * pow(bv, k, _P) % _P
        elif cls is Rat:
            v = _residue(node.value)
            if v is None:
                return None
        elif cls is Var or (cls is Func and node.args is None):
            v = draw(1, _P)
        else:
            return None
        value[node] = v
    return value[e]


def _numerator(e: Expr, ctx: Optional[Context]) -> Tuple[Kernel, Poly]:
    """The kernel and the cleared numerator polynomial of simplify(e, ctx)."""
    s = simplify(e, ctx)
    return run(lambda k: (k, k.quotient(k.expand(s))[0]))
