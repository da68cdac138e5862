"""Deterministic plain-text rendering of canonical expressions.

The output reparses to the same node (see parse.parse), which is the
round-trip property the file formats rely on.  Negative exponents are
rendered with '/', so 3/(4*x^2) rather than 3*4^-1*x^-2.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

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
    RationalLike,
    Var,
)

# One call's texts, keyed by (node, role): a node's text on its own
# (_WHOLE) and inside a product (_FACTOR) differ, so each role keeps its
# own entry.  Equal subtrees are one node, so a shared subtree is
# formatted once per call, not once per path to it.
_Memo = Dict[Tuple[Expr, int], str]
_WHOLE, _FACTOR = 0, 1


def format_expr(e: Expr) -> str:
    return _fmt_whole(e, {})


def format_head(e: Expr, limit: int) -> str:
    """format_expr(e), cut after the leading terms that fit in limit characters.

    A cut text ends with ' …' (counted in limit).  It is cut only
    between terms of a top-level sum, so it never ends inside a term or
    a parenthesis; the first term is kept whole even when it alone is
    longer than limit.
    """
    memo: _Memo = {}
    text = _fmt_whole(e, memo)
    if len(text) <= limit or not isinstance(e, Add):
        return text
    parts = _sum_parts(e, memo)
    head = parts[0]
    for part in parts[1:]:
        if len(head) + len(part) + 3 > limit:
            break
        head += " " + part
    return head + " …"


def _fmt_whole(e: Expr, memo: _Memo) -> str:
    """format_expr(e), through the call's memo."""
    key = (e, _WHOLE)
    text = memo.get(key)
    if text is None:
        if isinstance(e, Rat):
            text = _fmt_fraction(e.value)
        elif isinstance(e, Add):
            text = " ".join(_sum_parts(e, memo))
        else:
            sign, body = _signed_term(e, memo)
            text = body if sign > 0 else "-" + body
        memo[key] = text
    return text


def _sum_parts(e: Add, memo: _Memo) -> List[str]:
    """The terms of e as format_expr joins them: '+ body' or '- body' after the first."""
    parts: List[str] = []
    for term in e.terms:
        sign, body = _signed_term(term, memo)
        if not parts:
            parts.append(body if sign > 0 else "-" + body)
        else:
            parts.append(("+ " if sign > 0 else "- ") + body)
    return parts


def _fmt_fraction(v: RationalLike) -> str:
    if v.denominator == 1:
        return str(v.numerator)
    return f"{v.numerator}/{v.denominator}"


def _signed_term(e: Expr, memo: _Memo) -> Tuple[int, str]:
    """Split a non-Add node into a sign and an unsigned rendering."""
    if isinstance(e, Rat):
        if e.value < 0:
            return -1, _fmt_fraction(-e.value)
        return 1, _fmt_fraction(e.value)
    if isinstance(e, Mul):
        sign = -1 if e.coeff < 0 else 1
        return sign, _fmt_monomial(abs(e.coeff), e.powers, memo)
    return 1, _fmt_factor(e, memo)


def _fmt_monomial(
    coeff: RationalLike, powers: Tuple[Tuple[Expr, RationalLike], ...], memo: _Memo
) -> str:
    num_parts: List[str] = []
    den_parts: List[str] = []
    if coeff.numerator != 1:
        num_parts.append(str(coeff.numerator))
    if coeff.denominator != 1:
        den_parts.append(str(coeff.denominator))
    for base, exponent in powers:
        target = num_parts if exponent > 0 else den_parts
        target.append(_fmt_power(base, abs(exponent), memo))
    if not num_parts:
        num_parts.append("1")
    num = "*".join(num_parts)
    if not den_parts:
        return num
    if len(den_parts) == 1:
        # a lone number or _fmt_power factor binds tighter than '/'
        return f"{num}/{den_parts[0]}"
    return f"{num}/({'*'.join(den_parts)})"


def _fmt_power(base: Expr, exponent: RationalLike, memo: _Memo) -> str:
    body = _fmt_base(base, memo)
    if exponent == 1:
        return body
    if exponent.denominator == 1 and exponent > 0:
        return f"{body}^{exponent.numerator}"
    return f"{body}^({_fmt_fraction(exponent)})"


def _fmt_base(base: Expr, memo: _Memo) -> str:
    """Render a power base, parenthesized when '^' would bind wrongly."""
    if isinstance(base, (Add, Mul)):
        return f"({_fmt_whole(base, memo)})"
    if isinstance(base, Pow):
        return f"({_fmt_factor(base, memo)})"
    if isinstance(base, Rat):
        if base.value < 0 or base.value.denominator != 1:
            return f"({_fmt_fraction(base.value)})"
        return _fmt_fraction(base.value)
    return _fmt_factor(base, memo)


def _fmt_factor(e: Expr, memo: _Memo) -> str:
    """Render a node for use inside a product (parenthesizing sums)."""
    key = (e, _FACTOR)
    text = memo.get(key)
    if text is None:
        text = memo[key] = _factor_text(e, memo)
    return text


def _factor_text(e: Expr, memo: _Memo) -> str:
    """_fmt_factor(e), built afresh."""
    if isinstance(e, Rat):
        return _fmt_fraction(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Func):
        suffix = "".join(
            name * count for name, count in zip(e.argnames, e.didx)
        )
        head = e.name if not suffix else f"{e.name}_{suffix}"
        if e.args is None:
            return head
        return f"{head}({', '.join(_fmt_whole(a, memo) for a in e.args)})"
    if isinstance(e, App):
        return f"{e.fn}({_fmt_whole(e.arg, memo)})"
    if isinstance(e, Int):
        return f"int({_fmt_whole(e.body, memo)}, {e.var})"
    if isinstance(e, Pow):
        return _fmt_power(e.base, e.exponent, memo)
    if isinstance(e, Add):
        return f"({_fmt_whole(e, memo)})"
    if isinstance(e, Mul):
        sign, body = _signed_term(e, memo)
        return body if sign > 0 else f"(-{body})"
    raise ExprError(f"cannot format {type(e).__name__}")
