"""Differentiation and substitution.

differentiate and substitute each keep a memo from node to result for
one call, so a subtree that recurs is differentiated or substituted
once; the memo dies with the call.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from .context import Context
from .nodes import (
    Add,
    App,
    Expr,
    ExprError,
    Func,
    Int,
    Mul,
    Pow,
    Rat,
    Var,
    ZERO,
    ONE,
    add,
    app,
    func,
    integral,
    mul,
    pow_,
    rat,
    var,
)


class DifferentiationError(ExprError):
    """Raised when a derivative needs a sign that is not assumed."""


class SubstitutionError(ExprError):
    """Raised for malformed replacements."""


def differentiate(
    e: Expr, wrt: str, ctx: Optional[Context] = None, memo: Optional[Dict[Expr, Expr]] = None
) -> Expr:
    """Partial derivative of e with respect to the variable named wrt.

    Function symbols at their default arguments differentiate into
    bumped derivative indices; explicitly applied symbols chain-rule
    through their arguments.  abs and sign need the context to resolve
    signs and raise DifferentiationError otherwise.  memo maps each
    subtree to its derivative; a caller that passes the same dict to
    several calls with one wrt and ctx differentiates a subtree they
    share once.
    """
    return _derived(e, wrt, ctx, {} if memo is None else memo)


def _derived(e: Expr, wrt: str, ctx: Optional[Context], memo: Dict[Expr, Expr]) -> Expr:
    r = memo.get(e)
    if r is None:
        r = memo[e] = _diff_node(e, wrt, ctx, memo)
    return r


def _diff_node(e: Expr, wrt: str, ctx: Optional[Context], memo: Dict[Expr, Expr]) -> Expr:
    """differentiate of one node, its children differentiated through the memo."""
    cls = e.__class__
    if cls is Rat:
        return ZERO
    if cls is Var:
        return ONE if e.name == wrt else ZERO
    if cls is Mul:
        parts = []
        for i, (b, ex) in enumerate(e.powers):
            db = _derived(b, wrt, ctx, memo)
            if db is ZERO:
                continue
            rest = [(b2, ex2) for j, (b2, ex2) in enumerate(e.powers) if j != i]
            factor = mul(
                rat(ex),
                pow_(b, ex - 1),
                db,
                *[pow_(b2, ex2) for b2, ex2 in rest],
            )
            parts.append(factor)
        return mul(rat(e.coeff), add(*parts)) if parts else ZERO
    if cls is Add:
        return add(*[_derived(t, wrt, ctx, memo) for t in e.terms])
    if cls is Func:
        if e.args is None:
            if wrt not in e.argnames:
                return ZERO
            i = e.argnames.index(wrt)
            didx = e.didx[:i] + (e.didx[i] + 1,) + e.didx[i + 1 :]
            return Func(e.name, e.argnames, didx, None)
        parts = []
        for i, a in enumerate(e.args):
            da = _derived(a, wrt, ctx, memo)
            if da is ZERO:
                continue
            didx = e.didx[:i] + (e.didx[i] + 1,) + e.didx[i + 1 :]
            parts.append(mul(Func(e.name, e.argnames, didx, e.args), da))
        return add(*parts)
    if cls is Pow:
        db = _derived(e.base, wrt, ctx, memo)
        if db is ZERO:
            return ZERO
        return mul(rat(e.exponent), pow_(e.base, e.exponent - 1), db)
    if cls is App:
        da = _derived(e.arg, wrt, ctx, memo)
        if da is ZERO:
            return ZERO
        if e.fn == "exp":
            return mul(e, da)
        if e.fn == "ln":
            return mul(pow_(e.arg, -1), da)
        if e.fn == "sin":
            return mul(app("cos", e.arg), da)
        if e.fn == "cos":
            return mul(rat(-1), app("sin", e.arg), da)
        if e.fn == "abs":
            sign = ctx.sign_of(e.arg) if ctx is not None else None
            if sign == 1:
                return da
            if sign == -1:
                return mul(rat(-1), da)
            if ctx is not None and ctx.is_nonzero(e.arg):
                return mul(app("sign", e.arg), da)
            raise DifferentiationError(
                f"cannot differentiate abs({e.arg!r}) without a sign assumption"
            )
        if e.fn == "sign":
            if ctx is not None and ctx.is_nonzero(e.arg):
                return ZERO
            raise DifferentiationError(
                f"cannot differentiate sign({e.arg!r}) without a nonzero assumption"
            )
    if cls is Int:
        if e.var == wrt:
            return e.body
        return integral(_derived(e.body, wrt, ctx, memo), e.var)
    raise ExprError(f"cannot differentiate {type(e).__name__}")


def diff_n(e: Expr, wrt: str, order: int, ctx: Optional[Context] = None) -> Expr:
    for _ in range(order):
        e = differentiate(e, wrt, ctx)
    return e


def substitute(e: Expr, mapping: Mapping[str, Expr], ctx: Optional[Context] = None) -> Expr:
    """Simultaneous substitution by symbol name.

    A key naming a variable replaces that variable everywhere.  A key
    naming a function symbol replaces the symbol by an expression in
    its signature variables; derivative nodes differentiate the
    replacement and explicit arguments compose into it.  Replacements
    are inserted verbatim (no re-substitution), which is what makes
    the operation simultaneous.
    """
    if not mapping:
        return e
    return _substituted(e, dict(mapping), ctx, {})


def _substituted(
    e: Expr, mapping: Dict[str, Expr], ctx: Optional[Context], memo: Dict[Expr, Expr]
) -> Expr:
    r = memo.get(e)
    if r is None:
        r = memo[e] = _subst_node(e, mapping, ctx, memo)
    return r


def _subst_node(
    e: Expr, mapping: Dict[str, Expr], ctx: Optional[Context], memo: Dict[Expr, Expr]
) -> Expr:
    """substitute of one node, its children substituted through the memo."""
    cls = e.__class__
    if cls is Var:
        return mapping.get(e.name, e)
    if cls is Func:
        rep = mapping.get(e.name)
        if rep is None:
            if e.args is None and any(n in mapping for n in e.argnames):
                # a mapped signature variable makes the application
                # explicit: f with x -> (y - 1) turns into f(t, y - 1)
                new_args = [mapping.get(n, var(n)) for n in e.argnames]
                return func(e.name, e.argnames, e.didx, new_args)
            return e.rebuild(lambda a: _substituted(a, mapping, ctx, memo))
        deriv = rep
        for name, count in zip(e.argnames, e.didx):
            deriv = diff_n(deriv, name, count, ctx)
        if e.args is None:
            return deriv
        new_args = tuple(_substituted(a, mapping, ctx, memo) for a in e.args)
        # a new mapping, so a memo of its own
        return substitute(deriv, dict(zip(e.argnames, new_args)), ctx)
    if cls is Int and e.var in mapping:
        rep = mapping[e.var]
        if rep.__class__ is not Var:
            raise SubstitutionError(
                f"cannot substitute a non-variable for the antiderivative "
                f"variable {e.var}"
            )
        return integral(_substituted(e.body, mapping, ctx, memo), rep.name)
    return e.rebuild(lambda c: _substituted(c, mapping, ctx, memo))
