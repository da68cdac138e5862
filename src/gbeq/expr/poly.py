"""Exact rational functions over kernel atoms: the engine behind expand,
ratio_normal and normal_form.

A polynomial is a dict from monomial to coefficient.  Coefficients are
ints, or Fractions where they are not integral.  A monomial is a tuple:
entry 0 is the index of its exp factor (0 for none), entry i >= 1 the
exponent of the atom registered at position i, with trailing zero
exponents dropped.  Exponents are Python ints, or Fractions for
fractional powers, so x^99999999 costs no more than x^2.

Kernel atoms are the nodes a product treats as opaque: Var, Func, Int,
opaque Pow, App other than exp, rational bases of radicals (2^(1/2)),
and sums kept whole because they carry a negative or fractional
exponent.  An atom's arguments are expanded before it is registered,
so atoms compare exactly as they did under tree expansion.  The exp
factors of a monomial stay one exp of the summed argument, as in
nodes.mul.  Products keep the folds of the tree constructors: equal
atoms add exponents (x*x^-1 -> 1), radicals fold their whole part into
the coefficient (2^(1/2)*2^(1/2) -> 2), a sum whose exponent reaches
1 or more is multiplied out, keeping the fractional rest
((1+t)^(3/2) -> (1+t)*(1+t)^(1/2)), and other powers of an opaque Pow
go through pow_, as the tree expansion did.

A quotient is a numerator polynomial over a factored denominator, a
canonical product of bases.  Over a sum, each term's denominator is
made content-normal: every sum base with an integer exponent is scaled
to integer coefficients without common factor, signed so its first
term in canonical order is positive; the common denominator is the
least common multiple over those bases and of the rational
coefficients.  There is no polynomial gcd, so common factors of
numerator and denominator stay.

One Kernel serves one public call.  Its memos map each distinct
subtree to its polynomial and to its quotient once, so a residual that
repeats the same nested denominator hundreds of times pays for it
once, and they are dropped when the call returns.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add as _plus
from typing import Dict, List, Tuple, Union

from .nodes import (
    Add,
    App,
    Expr,
    Func,
    Int,
    Mul,
    ONE,
    Pow,
    Rat,
    Var,
    ZERO,
    _as_coeff_powers,
    _exact,
    _make_mul,
    _rat_int_power,
    _scale_expr,
    _term_order,
    exp,
    mul,
    pow_,
    rat,
)

Coeff = Union[int, Fraction]
Mono = Tuple[Coeff, ...]
Poly = Dict[Mono, Coeff]

_PLAIN = 0
_SUM = 1
_RADICAL = 2
_POW = 3

_CONST: Mono = (0,)


def _strip(m: Mono) -> Mono:
    end = len(m)
    while end > 1 and not m[end - 1]:
        end -= 1
    return m[:end]


def _clean(p: Poly) -> Poly:
    """Drop zero coefficients; integral Fractions become ints."""
    out = {}
    for m, c in p.items():
        if c:
            if c.__class__ is Fraction and c.denominator == 1:
                c = c.numerator
            out[m] = c
    return out


def _base_order(power: Tuple[Expr, Coeff]):
    return power[0]._key


def _add_into(acc: Poly, p: Poly) -> None:
    get = acc.get
    for m, c in p.items():
        acc[m] = get(m, 0) + c


class Kernel:
    """Atom table and memos for one public call."""

    def __init__(self) -> None:
        self.slot: Dict[Expr, int] = {}
        self.base: List[Expr] = [ZERO]
        self.kind: List[int] = [_PLAIN]
        # positions whose exponent may need folding after a product
        self.special: List[int] = []
        # some opaque Pow atom has a negative exponent, so belongs under a quotient
        self.pow_denominators = False
        self.exp_index: Dict[Expr, int] = {}
        self.exp_node: List[Expr] = [ONE]
        self.exp_products: Dict[Tuple[int, int], Union[int, Poly]] = {}
        self.exp_powers: Dict[Tuple[int, Coeff], Union[int, Poly]] = {}
        self.expanded: Dict[Expr, Poly] = {}
        self.ratios: Dict[Expr, Tuple[Poly, Expr]] = {}
        self.powers: Dict[tuple, Poly] = {}
        self.normal: Dict[Expr, tuple] = {}
        self.primitive: Dict[Expr, Tuple[Fraction, Expr]] = {}
        self.trees: Dict[int, Tuple[Poly, Expr]] = {}

    # -- atoms ------------------------------------------------------------

    def _position(self, node: Expr, kind: int) -> int:
        pos = self.slot.get(node)
        if pos is None:
            pos = len(self.base)
            if isinstance(node, Pow):
                kind = _POW
                self.pow_denominators |= node.exponent < 0
            self.slot[node] = pos
            self.base.append(node)
            self.kind.append(kind)
            if kind in (_RADICAL, _POW):
                self.special.append(pos)
        return pos

    def _atom(self, node: Expr, kind: int, e: Coeff = 1) -> Poly:
        pos = self._position(node, kind)
        if kind == _SUM and e.__class__ is Fraction:
            self._watch(pos)
        return self._settle((0,) * pos + (e,), 1)

    def _watch(self, pos: int) -> None:
        """Check a sum atom's exponent after every product from now on.

        Sums with only negative integer exponents cannot reach 1 in a
        product, so they are left out of the check until a fractional
        exponent or a negative power could lift them.
        """
        if pos not in self.special:
            self.special.append(pos)

    def _exp(self, node: Expr) -> Union[int, Poly]:
        """Index of an exp node, or the polynomial it folded to."""
        if isinstance(node, App) and node.fn == "exp":
            i = self.exp_index.get(node)
            if i is None:
                i = len(self.exp_node)
                self.exp_index[node] = i
                self.exp_node.append(node)
            return i
        if node == ONE:
            return 0
        return self.expand(node)  # exp(ln y) folds to y

    def _exp_product(self, i: int, j: int) -> Union[int, Poly]:
        key = (i, j) if i < j else (j, i)
        r = self.exp_products.get(key)
        if r is None:
            a, b = self.exp_node[i].arg, self.exp_node[j].arg
            r = self.exp_products[key] = self._exp(exp(a + b))
        return r

    def _exp_power(self, i: int, k: Coeff) -> Union[int, Poly]:
        r = self.exp_powers.get((i, k))
        if r is None:
            arg = _scale_expr(k, self.exp_node[i].arg)
            r = self.exp_powers[(i, k)] = self._exp(exp(arg))
        return r

    def _exp_poly(self, r: Union[int, Poly]) -> Poly:
        return {(r,): 1} if r.__class__ is int else r

    def _unsettled(self, pos: int, e: Coeff) -> bool:
        kind = self.kind[pos]
        if kind == _RADICAL:
            return e < 0 or e >= 1
        if kind == _POW:
            return e != 1
        return e >= 1

    def _settle(self, m: Mono, c: Coeff) -> Poly:
        """The term c*m with radical, sum and opaque power exponents folded.

        A radical keeps an exponent in (0, 1), the whole part going to the
        coefficient; a sum keeps one below 1, the whole part multiplied
        out; an opaque Pow keeps exponent 1, other powers going through
        pow_, which merges them into the Pow where that is valid.
        """
        m = _strip(m)
        bad = [
            pos for pos in self.special
            if pos < len(m) and m[pos] and self._unsettled(pos, m[pos])
        ]
        if not bad:
            return {m: c}
        core = list(m)
        for pos in bad:
            core[pos] = 0
        p: Poly = {_strip(tuple(core)): c}
        for pos in bad:
            e = m[pos]
            node = self.base[pos]
            if self.kind[pos] == _POW:
                p = self.mul(p, self._monomial(pow_(node, e)))
                continue
            whole = math.floor(e)
            rest = e - whole
            if self.kind[pos] == _RADICAL:
                f: Poly = {_CONST: _rat_int_power(node.value, whole)}
            else:
                f = self.power(self.expand(node), whole, node)
            if rest:
                f = self.mul(f, {(0,) * pos + (rest,): 1})
            p = self.mul(p, f)
        return p

    # -- arithmetic -------------------------------------------------------

    def mul(self, p: Poly, q: Poly) -> Poly:
        """Product of two polynomials."""
        if len(p) < len(q):
            p, q = q, p
        out: Poly = {}
        get = out.get
        special = self.special
        for m1, c1 in p.items():
            l1 = len(m1)
            x1 = m1[0]
            for m2, c2 in q.items():
                l2 = len(m2)
                if l1 == l2:
                    m = tuple(map(_plus, m1, m2))
                    if l1 > 1 and not m[-1]:
                        m = _strip(m)
                elif l1 > l2:
                    m = tuple(map(_plus, m1, m2)) + m1[l2:]
                else:
                    m = tuple(map(_plus, m1, m2)) + m2[l1:]
                c = c1 * c2
                x2 = m2[0]
                if x1 and x2:
                    r = self._exp_product(x1, x2)
                    if r.__class__ is not int:
                        _add_into(out, self.mul(r, self._settle((0,) + m[1:], c)))
                        continue
                    m = (r,) + m[1:]
                if special and any(
                    pos < len(m) and m[pos] and self._unsettled(pos, m[pos])
                    for pos in special
                ):
                    _add_into(out, self._settle(m, c))
                    continue
                out[m] = get(m, 0) + c
        return _clean(out)

    def power(self, p: Poly, k: int, key: object) -> Poly:
        """p**k for an integer k >= 0; key names p for the power memo."""
        if k == 1:
            return p
        if k == 0:
            return {_CONST: 1}
        if len(p) == 1:
            (m, c), = p.items()
            return self._mono_power(m, c, k)
        r = self.powers.get((key, k))
        if r is None:
            # binomial split p = c0*m0 + rest: the powers of rest have one
            # atom fewer to range over than the powers of p
            terms = iter(p.items())
            m0, c0 = next(terms)
            rest = dict(terms)
            rest_powers = [{_CONST: 1}, rest]
            for _ in range(k - 1):
                rest_powers.append(self.mul(rest_powers[-1], rest))
            out: Poly = {}
            for j in range(k + 1):
                f = math.comb(k, j)
                lead = self._mono_power(m0, c0, j) if j else {_CONST: 1}
                lead = {m: c * f for m, c in lead.items()}
                _add_into(out, self.mul(lead, rest_powers[k - j]))
            r = self.powers[(key, k)] = _clean(out)
        return r

    def _mono_power(self, m: Mono, c: Coeff, k: Coeff) -> Poly:
        """(c*m)**k for an integer k."""
        c = _rat_int_power(c, k)
        if k < 0:
            for pos, e in enumerate(m):
                if pos and e and self.kind[pos] == _SUM:
                    self._watch(pos)
        p = self._settle((0,) + tuple(e * k for e in m[1:]), c)
        if m[0]:
            p = self.mul(p, self._exp_poly(self._exp_power(m[0], k)))
        return p

    # -- tree to polynomial ----------------------------------------------

    def expand(self, e: Expr) -> Poly:
        """The polynomial of e: products over sums and positive powers multiplied out."""
        p = self.expanded.get(e)
        if p is None:
            p = self.expanded[e] = self._expand(e)
        return p

    def _expand(self, e: Expr) -> Poly:
        if isinstance(e, Rat):
            return {_CONST: e.value} if e.value else {}
        if isinstance(e, Var):
            return self._atom(e, _PLAIN)
        if isinstance(e, Add):
            out: Poly = {}
            for t in e.terms:
                _add_into(out, self.expand(t))
            return _clean(out)
        if isinstance(e, Mul):
            p: Poly = {_CONST: e.coeff}
            for b, ex in e.powers:
                p = self.mul(p, self.factor(b, ex))
            return p
        r = e.rebuild(self.expand_tree)
        if isinstance(r, App) and r.fn == "exp":
            return self._exp_poly(self._exp(r))
        if isinstance(r, (App, Func, Int, Pow)):
            return self._atom(r, _PLAIN)
        return self.expand(r)

    def expand_tree(self, e: Expr) -> Expr:
        return self.tree(self.expand(e))

    def factor(self, b: Expr, ex: Coeff) -> Poly:
        """The polynomial of b**ex for a base b of a canonical product."""
        if isinstance(b, Rat):
            return self._monomial(pow_(b, ex))
        p = self.expand(b)
        if len(p) > 1:
            whole = math.floor(ex) if ex > 0 else 0
            q = self.power(p, whole, b)
            if ex != whole:
                q = self.mul(q, self._atom(self.tree(p), _SUM, _exact(ex - whole)))
            return q
        if not p:
            return self._monomial(pow_(ZERO, ex))  # raises for ex < 0
        (m, c), = p.items()
        if ex.denominator == 1:
            return self._mono_power(m, c, int(ex))
        if c == 1 and m[0] == 0 and m[-1] == 1 and not any(m[1:-1]):
            # a bare atom: pow_ would hand the same power back
            pos = len(m) - 1
            return self._atom(self.base[pos], self.kind[pos], ex)
        return self._monomial(pow_(self.tree(p), ex))

    def _monomial(self, p: Expr) -> Poly:
        """The polynomial of a product tree, factor by factor."""
        if not isinstance(p, Mul):
            return self.expand(p)
        out: Poly = {_CONST: p.coeff}
        for b, ex in p.powers:
            if isinstance(b, Rat):
                f = self._atom(b, _RADICAL, ex)
            else:
                f = self.factor(b, ex)
            out = self.mul(out, f)
        return out

    # -- polynomial to tree ----------------------------------------------

    def tree(self, p: Poly) -> Expr:
        """The canonical tree of p, as add and mul would build it."""
        hit = self.trees.get(id(p))
        if hit is not None:
            return hit[1]
        terms = []
        for m, c in p.items():
            powers = [(self.base[pos], _exact(e)) for pos, e in enumerate(m) if pos and e]
            if m[0]:
                powers.append((self.exp_node[m[0]], 1))
            if len(powers) > 1:
                powers.sort(key=_base_order)
            terms.append(_make_mul(c, tuple(powers)))
        if not terms:
            t: Expr = ZERO
        elif len(terms) == 1:
            t = terms[0]
        else:
            terms.sort(key=_term_order)
            t = Add(tuple(terms))
        # p stays referenced, so its id is not reused while the memo lives
        self.trees[id(p)] = (p, t)
        self.expanded.setdefault(t, p)
        return t

    # -- quotients ----------------------------------------------------------

    def ratio(self, e: Expr) -> Tuple[Poly, Expr]:
        """(numerator polynomial, factored denominator tree) of e."""
        r = self.ratios.get(e)
        if r is None:
            r = self.ratios[e] = self._ratio(e)
        return r

    def expanded_ratio(self, p: Poly) -> Tuple[Poly, Expr]:
        """ratio of the tree of an expanded polynomial p.

        Terms without a negative exponent are their own numerator over
        their coefficient's denominator, so p is its own numerator over 1
        when every coefficient is an int; only the others are built as
        trees and taken apart again.
        """
        if all(c.__class__ is int for c in p.values()) and not any(
            map(self._has_denominator, p)
        ):
            return p, ONE
        pairs = []
        for m, c in p.items():
            if self._has_denominator(m):
                pairs.append(self.ratio(self.tree({m: c})))
            elif c.__class__ is Fraction:
                pairs.append(({m: c.numerator}, rat(c.denominator)))
            else:
                pairs.append(({m: c}, ONE))
        return pairs[0] if len(pairs) == 1 else self._common(pairs)

    def _has_denominator(self, m: Mono) -> bool:
        """Does m hold a negative exponent, or an opaque Pow with one?"""
        return any(e < 0 for e in m) or self.pow_denominators and any(
            e and self.kind[pos] == _POW and self.base[pos].exponent < 0
            for pos, e in enumerate(m)
        )

    def _ratio(self, e: Expr) -> Tuple[Poly, Expr]:
        if isinstance(e, Rat):
            v = e.value
            return ({_CONST: v.numerator} if v else {}), rat(v.denominator)
        if isinstance(e, Pow) and e.exponent < 0:
            return {_CONST: 1}, pow_(e.base, -e.exponent)
        if isinstance(e, Add):
            return self._common([self.ratio(t) for t in e.terms])
        if not isinstance(e, Mul):
            return self.expand(e), ONE
        num: Poly = {_CONST: e.coeff.numerator}
        den: List[Expr] = [rat(e.coeff.denominator)]
        for b, ex in e.powers:
            if ex.denominator != 1:
                # fractional powers stay whole, so no sign is lost
                if ex > 0:
                    num = self.mul(num, self.factor(b, ex))
                else:
                    den.append(pow_(b, -ex))
                continue
            nb, db = self.ratio(b)
            k = int(ex)
            if k > 0:
                num = self.mul(num, self.power(nb, k, ("num", b)))
                if db != ONE:
                    den.append(pow_(db, k))
            else:
                if db != ONE:
                    num = self.mul(num, self._monomial(pow_(db, -k)))
                den.append(pow_(self.tree(nb), -k))
        return num, mul(*den)

    def _common(self, pairs: List[Tuple[Poly, Expr]]) -> Tuple[Poly, Expr]:
        """Sum of quotients over the least common content-normal denominator."""
        groups: Dict[tuple, Poly] = {}
        parts: Dict[tuple, tuple] = {}
        lcm = 1
        top: Dict[Expr, Coeff] = {}
        for n, d in pairs:
            c, powers, key = self._content_normal(d)
            acc = groups.get(key)
            if acc is None:
                groups[key] = acc = {}
                parts[key] = (c, powers)
                lcm = math.lcm(lcm, c.numerator)
                for base, ex in powers.items():
                    if top.get(base, 0) < ex:
                        top[base] = ex
            _add_into(acc, n)
        num: Poly = {}
        for key, n in groups.items():
            n = _clean(n)
            if not n:
                continue
            c, powers = parts[key]
            q: Poly = {_CONST: _exact(Fraction(lcm) / c)}
            for base, ex in top.items():
                k = ex - powers.get(base, 0)
                if k:
                    q = self.mul(q, self.factor(base, k))
            _add_into(num, self.mul(n, q))
        den = mul(rat(lcm), *[pow_(base, ex) for base, ex in top.items()])
        return _clean(num), den

    def _content_normal(self, d: Expr) -> tuple:
        """(coefficient, {base: exponent}, key) of d with content-normal sum bases."""
        hit = self.normal.get(d)
        if hit is not None:
            return hit
        c, powers = _as_coeff_powers(d)
        out: Dict[Expr, Coeff] = {}
        for b, ex in powers:
            if isinstance(b, Add) and ex.denominator == 1:
                g, b = self._primitive(b)
                c = c * g ** int(ex)
            out[b] = out.get(b, 0) + ex
        out = {b: ex for b, ex in out.items() if ex}
        hit = self.normal[d] = (c, out, (c, frozenset(out.items())))
        return hit

    def _primitive(self, b: Add) -> Tuple[Fraction, Expr]:
        """(g, b/g): g the rational content of b, signed by its first term."""
        hit = self.primitive.get(b)
        if hit is not None:
            return hit
        coeffs = [_as_coeff_powers(t)[0] for t in b.terms]
        g = Fraction(
            math.gcd(*(c.numerator for c in coeffs)),
            math.lcm(*(c.denominator for c in coeffs)),
        )
        if coeffs[0] < 0:
            g = -g
        if g == 1:
            hit = (g, b)
        else:
            scale = 1 / g
            p = {m: _exact(c * scale) for m, c in self.expand(b).items()}
            hit = (g, self.tree(p))
        self.primitive[b] = hit
        return hit
