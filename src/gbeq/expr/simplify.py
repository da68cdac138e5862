"""Canonicalization passes beyond the constructors, and zero testing.

simplify applies rewrites whose validity depends on the assumption
set: resolving abs and sign, pairing sign(a)*a into abs(a), folding
even powers of abs, and upgrading opaque Pow nodes once positivity is
known.  expand distributes products over sums.  ratio_normal puts an
expression over a common denominator, which together with expand
decides every rational identity exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .context import Context
from .nodes import (
    Add,
    App,
    Expr,
    ExprError,
    Func,
    Int,
    MINUS_ONE,
    Mul,
    ONE,
    Pow,
    Rat,
    Var,
    _as_coeff_powers,
    add,
    app,
    mul,
    pow_,
    rat,
)


def simplify(e: Expr, ctx: Optional[Context] = None) -> Expr:
    """Rebuild e bottom-up, applying assumption-aware rewrites."""
    if isinstance(e, App):
        return _simplify_app(e.fn, simplify(e.arg, ctx), ctx)
    if isinstance(e, Pow):
        return _simplify_pow(simplify(e.base, ctx), e.exponent, ctx)
    if isinstance(e, Mul):
        factors: List[Expr] = [rat(e.coeff)]
        for b, ex in e.powers:
            factors.append(_simplify_pow(simplify(b, ctx), ex, ctx))
        return _pair_sign_factors(mul(*factors), ctx)
    return e.rebuild(lambda c: simplify(c, ctx))


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


def _simplify_pow(base: Expr, exponent: Fraction, ctx: Optional[Context]) -> Expr:
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
        if ctx.is_positive(inner) and not isinstance(inner, Mul):
            if isinstance(inner, Pow):
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
    if not isinstance(e, Mul):
        return e.rebuild(expand)
    sums: List[Tuple[Expr, int]] = []
    passive: List[Expr] = [rat(e.coeff)]
    for b, ex in e.powers:
        b = expand(b)
        if isinstance(b, Add) and ex.denominator == 1 and ex > 0:
            sums.append((b, int(ex)))
        elif isinstance(b, Add) and ex > 0 and ex.denominator != 1 and ex > 1:
            whole = int(ex)  # floor for positive ex
            frac = ex - whole
            if whole:
                sums.append((b, whole))
            passive.append(pow_(b, frac))
        else:
            passive.append(pow_(b, ex))
    if not sums:
        return mul(*passive)
    # convolve over placeholder atoms: products of placeholders are
    # plain monomial merges, so exp arguments and other composite
    # bases are not re-folded on every intermediate product, and
    # merging between rounds keeps the term count polynomial
    back: Dict[str, Expr] = {}
    seen: Dict[Expr, Var] = {}
    terms: List[Expr] = [ONE]
    for base, count in sums:
        hidden = _hide_atoms(base, back, seen)
        for _ in range(count):
            merged = add(*[mul(t, s) for t in terms for s in hidden])
            terms = list(merged.terms) if isinstance(merged, Add) else [merged]
    passive_prod = mul(*passive)
    return add(*[mul(_unhide(t, back), passive_prod) for t in terms])


def _hide_atoms(a: Add, back: Dict[str, Expr], seen: Dict[Expr, Var]) -> List[Expr]:
    """Rewrite the terms of a sum over fresh placeholder variables."""
    out = []
    for m in a.terms:
        c, powers = _as_coeff_powers(m)
        parts: List[Expr] = [rat(c)]
        for b, ex in powers:
            v = seen.get(b)
            if v is None:
                v = Var(f"@{len(back)}")
                seen[b] = v
                back[v.name] = b
            parts.append(pow_(v, ex))
        out.append(mul(*parts))
    return out


def _unhide(t: Expr, back: Dict[str, Expr]) -> Expr:
    """Swap the placeholder variables back for their bases."""
    if isinstance(t, Rat):
        return t
    c, powers = _as_coeff_powers(t)
    parts: List[Expr] = [rat(c)]
    for v, ex in powers:
        parts.append(pow_(back[v.name], ex))
    return mul(*parts)


def ratio_normal(e: Expr) -> Tuple[Expr, Expr]:
    """Write e as num/den with denominators cleared, both expanded.

    Only integer exponents are split across the quotient; fractional
    powers stay whole so no sign information is lost.  e is zero on
    its domain exactly when the returned numerator is zero.
    """
    if isinstance(e, (Rat,)):
        return rat(e.value.numerator), rat(e.value.denominator)
    if isinstance(e, (Var, Func, App, Int)):
        return e, ONE
    if isinstance(e, Pow):
        if e.exponent < 0:
            return ONE, pow_(e.base, -e.exponent)
        return e, ONE
    if isinstance(e, Mul):
        num_parts: List[Expr] = [rat(e.coeff.numerator)]
        den_parts: List[Expr] = [rat(e.coeff.denominator)]
        for b, ex in e.powers:
            if ex.denominator != 1:
                num_parts.append(pow_(b, ex) if ex > 0 else ONE)
                if ex < 0:
                    den_parts.append(pow_(b, -ex))
                continue
            nb, db = ratio_normal(b)
            if ex > 0:
                num_parts.append(pow_(nb, ex))
                den_parts.append(pow_(db, ex))
            else:
                num_parts.append(pow_(db, -ex))
                den_parts.append(pow_(nb, -ex))
        return mul(*num_parts), mul(*den_parts)
    if isinstance(e, Add):
        pairs = [_content_normal(ratio_normal(t)) for t in e.terms]
        den_pow: Dict[Expr, Fraction] = {}
        den_coeff = Fraction(1)
        for _, d in pairs:
            c, powers = _as_coeff_powers(d)
            den_coeff = _lcm_fr(den_coeff, abs(c))
            for b, ex in powers:
                if den_pow.get(b, Fraction(0)) < ex:
                    den_pow[b] = ex
        den = mul(rat(den_coeff), *[pow_(b, ex) for b, ex in den_pow.items()])
        num_terms = []
        for n, d in pairs:
            num_terms.append(expand(mul(n, den, pow_(d, -1))))
        return expand(add(*num_terms)), den
    raise ExprError(f"cannot normalize {type(e).__name__}")


def _content_normal(pair: Tuple[Expr, Expr]) -> Tuple[Expr, Expr]:
    """Scale rational content out of Add bases in the denominator.

    Proportional bases gathered from different terms (1 + t versus
    2 + 2*t versus -1 - t) then agree structurally, so the common
    denominator stays tight and the per-term quotients cancel instead
    of swelling before expansion.  The quotient's value is unchanged.
    """
    n, d = pair
    c, powers = _as_coeff_powers(d)
    out = []
    changed = False
    for b, ex in powers:
        if isinstance(b, Add) and ex.denominator == 1:
            g = _add_content(b)
            if g != 1:
                b = add(*[mul(rat(Fraction(1) / g), t) for t in b.terms])
                c = c * g ** int(ex)
                changed = True
        out.append((b, ex))
    if not changed:
        return n, d
    return n, mul(rat(c), *[pow_(b, ex) for b, ex in out])


def _add_content(a: Add) -> Fraction:
    """Rational content of a sum, signed to make the leading term positive."""
    import math

    num = 0
    den = 1
    lead = Fraction(1)
    for i, t in enumerate(a.terms):
        if isinstance(t, Rat):
            c = t.value
        elif isinstance(t, Mul):
            c = t.coeff
        else:
            c = Fraction(1)
        if i == 0:
            lead = c
        num = math.gcd(num, abs(c.numerator))
        den = den * c.denominator // math.gcd(den, c.denominator)
    if num == 0:
        return Fraction(1)
    g = Fraction(num, den)
    return -g if lead < 0 else g


def _lcm_fr(a: Fraction, b: Fraction) -> Fraction:
    # least common multiple of two positive rationals
    import math

    num = (a.numerator * b.numerator) // math.gcd(a.numerator, b.numerator)
    den = math.gcd(a.denominator, b.denominator)
    return Fraction(num, den)


def normal_form(e: Expr, ctx: Optional[Context] = None) -> Expr:
    """simplify, expand, clear denominators, and simplify the numerator.

    The result is zero (the Rat node 0) exactly when e vanishes
    identically on its domain, provided e is rational in its atoms.
    """
    s = simplify(e, ctx)
    n, _ = ratio_normal(expand(s))
    return simplify(expand(n), ctx)
