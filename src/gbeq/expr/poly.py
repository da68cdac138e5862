"""Exact rational functions over kernel atoms: the engine behind expand,
ratio_normal and normal_form.

A polynomial is a dict from monomial to coefficient.  Coefficients are
ints, or Fractions where they are not integral.  A monomial is one int,
its exponent vector packed into fields of `width` bits (Kronecker
substitution): field 0 holds the index of its exp factor (0 for none),
field i >= 1 the exponent times `den` of the atom at position i, as a
signed digit.  A term product is one addition, and x^(1/2) and
x^99999999 pack like x^2.  A call starts with den 1 and _MIN_WIDTH
bits; an exponent that needs more raises Widen, and run() repeats the
call on the wider layout, so no field wraps silently.

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

A quotient is a numerator polynomial over a content-normal
denominator: a rational coefficient times bases with exponents, every
sum base with an integer exponent scaled to integer coefficients
without common factor and signed so its first term in canonical order
is positive.  A sum of quotients goes over the product of each base to
its highest exponent, times the lcm of the coefficients' numerators.
Kernel.quotient clears an expanded polynomial straight off its packed
monomials, and is the one way denominators are cleared: normal_form
keeps its numerator, ratio_normal writes its denominator as a tree.  A
term's denominator part is its negative digits and its opaque Pows
with a negative exponent; terms are bucketed by that part and by their
coefficient's denominator, and each distinct part becomes one
quotient, its atoms' quotients multiplied by adding exponents.  A sum
atom to a negative integer power clears its own expansion the same
way.  There is no polynomial gcd, so common factors of numerator and
denominator stay.

One Kernel serves one public call.  Its memos map each distinct
subtree to its polynomial, and each distinct denominator part to its
quotient, once, so a residual that repeats the same nested denominator
hundreds of times pays for it once, and they are dropped when the call
returns.

Readers take their answers off the packed monomials: tree, quotient,
and degrees, which buckets them by several atoms' fields at once for
simplify.split.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Dict, List, Sequence, Tuple, TypeVar, Union

from .nodes import (
    Add, App, Expr, ExprError, Func, Int, Mul, ONE, Pow, Rat, Var, ZERO, _as_coeff_powers,
    _base_order, _exact, _make_mul, _rat_int_power, _scale_expr, _term_order, exp, pow_,
)

Coeff = Union[int, Fraction]
Mono = int
Poly = Dict[Mono, Coeff]
T = TypeVar("T")

_PLAIN, _SUM, _RADICAL, _POW = range(4)
_CONST: Mono = 0
_UNIT: Poly = {_CONST: 1}  # shared, never mutated

# the field width a call starts with, and the bits a widening adds
_MIN_WIDTH = 12
_HEADROOM = 8


class Widen(Exception):
    """args (width, den): the layout a call must be repeated on."""


class CollectError(ExprError):
    """Raised when an expression is not polynomial in the requested atoms."""


def run(task: Callable[["Kernel"], T]) -> T:
    """task on a fresh kernel, repeated on a wider layout while one overflows."""
    kernel = Kernel()
    while True:
        try:
            return task(kernel)
        except Widen as w:
            kernel = Kernel(*w.args)


def _clean(p: Poly) -> Poly:
    """Drop zero coefficients; integral Fractions become ints."""
    out = {}
    for m, c in p.items():
        if c:
            if c.__class__ is Fraction and c.denominator == 1:
                c = c.numerator
            out[m] = c
    return out


def _add_into(acc: Poly, p: Poly) -> None:
    get = acc.get
    for m, c in p.items():
        acc[m] = get(m, 0) + c


class Kernel:
    """Atom table, monomial layout and memos for one public call."""

    def __init__(self, width: int = _MIN_WIDTH, den: int = 1) -> None:
        self.width, self.den, self.mask = width, den, (1 << width) - 1
        # a stored digit d keeps -limit <= d < limit, so the sum of two is
        # exact; bias holds limit in every field in use, so m + bias has its
        # digits in [0, 2*limit), and bias << 1 marks a digit that left it
        self.limit = self.bias = 1 << (width - 2)
        self.slot: Dict[Expr, int] = {}
        self.base: List[Expr] = [ZERO]
        self.kind: List[int] = [_PLAIN]
        self.watched = 0  # the fields whose exponent may need folding after a product
        self.pow_denominators = 0  # the fields of opaque Pows with a negative exponent
        self.exp_index: Dict[Expr, int] = {}
        self.exp_node: List[Expr] = [ONE]
        self.exp_products: Dict[Tuple[int, int], Union[int, Poly]] = {}
        self.exp_powers: Dict[Tuple[int, Coeff], Union[int, Poly]] = {}
        self.expanded: Dict[Expr, Poly] = {}
        self.parts: Dict[Tuple[int, int], tuple] = {}
        self.denominators: Dict[Mono, tuple] = {}
        self.powers: Dict[tuple, Poly] = {}
        self.trees: Dict[int, Tuple[Poly, Expr]] = {}

    def _wider(self, value: int = 0, den: int = 1) -> Widen:
        """The Widen for a digit of size value, or for exponents over den."""
        den = math.lcm(self.den, den)
        if den != self.den:  # every digit scales by den // self.den
            return Widen(self.width + (den // self.den).bit_length(), den)
        return Widen(max(self.width, abs(value).bit_length()) + _HEADROOM, den)

    def _encode(self, pos: int, e: Coeff) -> Mono:
        """The monomial atom(pos)**e."""
        d = e * self.den
        if d.__class__ is Fraction and d.denominator != 1:
            raise self._wider(den=e.denominator)
        d = int(d)
        if not -self.limit <= d < self.limit:
            raise self._wider(d)
        return d << (self.width * pos)

    def _exponent(self, d: int) -> Coeff:
        return d if self.den == 1 else _exact(Fraction(d, self.den))

    def _digits(self, m: Mono) -> List[Tuple[int, int]]:
        """(position, exponent * den) of each atom of m."""
        width, mask, limit = self.width, self.mask, self.limit
        u, b, pos, out = (m + self.bias) >> width, self.bias >> width, 1, []
        while u != b:
            if u & mask != limit:
                out.append((pos, (u & mask) - limit))
            u, b, pos = u >> width, b >> width, pos + 1
        return out

    def _position(self, node: Expr, kind: int) -> int:
        pos = self.slot.get(node)
        if pos is None:
            pos = len(self.base)
            if node.__class__ is Pow:
                kind = _POW
                if node.exponent < 0:
                    self.pow_denominators |= self.mask << (self.width * pos)
            self.slot[node] = pos
            self.base.append(node)
            self.kind.append(kind)
            self.bias |= self.limit << (self.width * pos)
            if kind in (_RADICAL, _POW):
                self._watch(pos)
        return pos

    def _atom(self, node: Expr, kind: int, e: Coeff = 1) -> Poly:
        pos = self._position(node, kind)
        if kind == _SUM and e.__class__ is Fraction:
            self._watch(pos)
        return self._settle(self._encode(pos, e), 1)

    def _watch(self, pos: int) -> None:
        """Settle the exponent at pos after every product from now on.

        A sum is watched once a fractional exponent or a negative power
        could lift it to 1; negative integer exponents cannot reach it.
        """
        self.watched |= self.mask << (self.width * pos)

    def _exp(self, node: Expr) -> Union[int, Poly]:
        """Index of an exp node, or the polynomial it folded to."""
        if node.__class__ is App and node.fn == "exp":
            i = self.exp_index.get(node)
            if i is None:
                i = self.exp_index[node] = len(self.exp_node)
                if i >= self.limit:
                    raise self._wider(i)
                self.exp_node.append(node)
            return i
        return 0 if node == ONE else self.expand(node)  # exp of logs folds to a product

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
        return {r: 1} if r.__class__ is int else r

    def _settle(self, m: Mono, c: Coeff) -> Poly:
        """The term c*m with radical, sum and opaque power exponents folded.

        A radical keeps an exponent in (0, 1), the whole part going to the
        coefficient; a sum keeps one below 1, the whole part multiplied
        out; an opaque Pow keeps exponent 1, other powers going through
        pow_, which merges them into the Pow where that is valid.
        """
        u, width, den = m + self.bias, self.width, self.den
        if u & (self.bias << 1):
            raise self._wider(4 * self.limit)
        if not (u ^ self.bias) & self.watched:
            return {m: c}
        bad = []
        for pos, d in self._digits(m):
            kind = self.kind[pos]
            if kind == _POW and d != den or kind == _SUM and d >= den or (
                kind == _RADICAL and not 0 < d < den
            ):
                bad.append((pos, d))
                m -= d << (width * pos)
        p: Poly = {m: c}
        for pos, d in bad:
            node = self.base[pos]
            if self.kind[pos] == _POW:
                p = self.mul(p, self._monomial(pow_(node, self._exponent(d))))
                continue
            whole, rest = divmod(d, den)
            if self.kind[pos] == _RADICAL:
                f: Poly = {_CONST: _rat_int_power(node.value, whole)}
            else:
                f = self.power(self.expand(node), whole, node)
            if rest:
                f = self.mul(f, {rest << (width * pos): 1})
            p = self.mul(p, f)
        return p

    def mul(self, p: Poly, q: Poly) -> Poly:
        """Product of two polynomials: a term product adds two monomials.

        Only a pair that both carry an exp factor, or both a watched atom,
        goes past the addition.
        """
        if len(p) < len(q):
            p, q = q, p
        # ((m + bias) ^ bias) & watched is nonzero where m has a watched atom
        mask, bias, watched = self.mask, self.bias, self.watched
        out: Poly = {}
        if len(q) == 1:
            (m2, c2), = q.items()
            if not (m2 & mask or ((m2 + bias) ^ bias) & watched):
                # adding m2 is one-to-one, so no two products meet
                for m1, c1 in p.items():
                    m, c = m1 + m2, c1 * c2
                    if (m + bias) & (bias << 1):
                        raise self._wider(4 * self.limit)
                    out[m] = c.numerator if c.__class__ is Fraction and c.denominator == 1 else c
                return out
        get = out.get
        for m1, c1 in p.items():
            x1 = m1 & mask
            s1 = ((m1 + bias) ^ bias) & watched
            for m2, c2 in q.items():
                m, c = m1 + m2, c1 * c2
                if x1 and m2 & mask:
                    x2 = m2 & mask
                    r = self._exp_product(x1, x2)
                    m -= x1 + x2
                    if r.__class__ is not int:
                        _add_into(out, self.mul(r, self._settle(m, c)))
                        continue
                    m += r
                if s1 and ((m2 + bias) ^ bias) & watched:
                    _add_into(out, self._settle(m, c))
                    continue
                out[m] = get(m, 0) + c
        bias = self.bias
        if any((m + bias) & (bias << 1) for m in out):
            raise self._wider(4 * self.limit)
        return _clean(out)

    def power(self, p: Poly, k: int, key: object) -> Poly:
        """p**k for an integer k >= 0; key names p for the power memo."""
        if k < 2:
            return p if k else {_CONST: 1}
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

    def _mono_power(self, m: Mono, c: Coeff, k: int) -> Poly:
        """(c*m)**k for an integer k: k times the packed exponents."""
        c = _rat_int_power(c, k)
        x = m & self.mask
        digits = self._digits(m - x)
        top = max([abs(d * k) for _, d in digits], default=0)
        if top >= self.limit:
            raise self._wider(top)
        if k < 0:
            for pos, _ in digits:
                if self.kind[pos] == _SUM:
                    self._watch(pos)
        p = self._settle((m - x) * k, c)
        if x:
            p = self.mul(p, self._exp_poly(self._exp_power(x, k)))
        return p

    def expand(self, e: Expr) -> Poly:
        """The polynomial of e: products over sums and positive powers multiplied out."""
        p = self.expanded.get(e)
        if p is None:
            p = self.expanded[e] = self._expand(e)
        return p

    def _expand(self, e: Expr) -> Poly:
        cls = e.__class__
        if cls is Mul:
            p: Poly = {_CONST: e.coeff}
            for b, ex in e.powers:
                p = self.mul(p, self.factor(b, ex))
            return p
        if cls is Add:
            out: Poly = {}
            for t in e.terms:
                _add_into(out, self.expand(t))
            return _clean(out)
        if cls is Var:
            return self._atom(e, _PLAIN)
        if cls is Rat:
            return {_CONST: e.value} if e.value else {}
        r = e.rebuild(lambda a: self.tree(self.expand(a)))
        cls = r.__class__
        if cls is App and r.fn == "exp":
            return self._exp_poly(self._exp(r))
        if cls is App or cls is Func or cls is Int or cls is Pow:
            return self._atom(r, _PLAIN)
        return self.expand(r)

    def factor(self, b: Expr, ex: Coeff) -> Poly:
        """The polynomial of b**ex for a base b of a canonical product."""
        if b.__class__ is Rat:
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
        if ex.__class__ is int or ex.denominator == 1:
            return self._mono_power(m, c, int(ex))
        digits = self._digits(m)
        if c == 1 and not m & self.mask and len(digits) == 1 and digits[0][1] == self.den:
            # a bare atom: pow_ would hand the same power back
            pos = digits[0][0]
            return self._atom(self.base[pos], self.kind[pos], ex)
        return self._monomial(pow_(self.tree(p), ex))

    def _monomial(self, p: Expr) -> Poly:
        """The polynomial of a product tree, factor by factor."""
        if p.__class__ is not Mul:
            return self.expand(p)
        out: Poly = {_CONST: p.coeff}
        for b, ex in p.powers:
            f = self._atom(b, _RADICAL, ex) if b.__class__ is Rat else self.factor(b, ex)
            out = self.mul(out, f)
        return out

    def tree(self, p: Poly) -> Expr:
        """The canonical tree of p, as add and mul would build it."""
        hit = self.trees.get(id(p))
        if hit is not None:
            return hit[1]
        terms = []
        for m, c in p.items():
            powers = [(self.base[pos], self._exponent(d)) for pos, d in self._digits(m)]
            if m & self.mask:
                powers.append((self.exp_node[m & self.mask], 1))
            if len(powers) > 1:
                powers.sort(key=_base_order)
            terms.append(_make_mul(c, tuple(powers)))
        if len(terms) > 1:
            terms.sort(key=_term_order)
        t = Add(tuple(terms)) if len(terms) > 1 else terms[0] if terms else ZERO
        # p stays referenced, so its id is not reused while the memo lives
        self.trees[id(p)] = (p, t)
        self.expanded.setdefault(t, p)
        return t

    def degrees(self, p: Poly, atoms: Sequence[Expr], inside: Sequence) -> Dict[tuple, Poly]:
        """p's monomials bucketed by the atoms' degrees, their fields cleared.

        inside holds one test per atom.  A negative digit, or one den does
        not divide, raises CollectError, and so does an exp factor or
        another base, other atoms included, that an atom's test holds for.
        """
        fields = [self._digits(next(iter(self.expand(a))))[0][0] for a in atoms]
        buckets: Dict[tuple, Poly] = {}
        for m, c in p.items():
            digits = dict(self._digits(m))
            bases = [(0, self.exp_node[m & self.mask])] + [(q, self.base[q]) for q in digits]
            key = []
            for atom, pos, test in zip(atoms, fields, inside):
                for q, b in bases:
                    if q != pos and test(b):
                        raise CollectError(f"{atom!r} occurs inside {b!r}")
                d = digits.get(pos, 0)
                if d < 0 or d % self.den:
                    raise CollectError(f"non-polynomial power {self._exponent(d)} of {atom!r}")
                key.append(d // self.den)
                m -= d << self.width * pos
            buckets.setdefault(tuple(key), {})[m] = c
        return buckets

    def _split(self, m: Mono) -> Mono:
        """The denominator part of m, its negative digits and its opaque
        Pows with a negative exponent: a digit is negative where m + bias
        has the bias bit f clear, and (f << 2) - (f >> (width - 2)) is
        the mask of f's field."""
        bias = self.bias
        u = m + bias
        f = ~u & bias
        fields = ((f << 2) - (f >> (self.width - 2))) | self.pow_denominators
        return (u & fields) - (bias & fields)

    def quotient(self, p: Poly) -> tuple:
        """(numerator, lcm, {base: exponent}) of an expanded polynomial p.

        A bucket of terms with the same denominator part and coefficient
        denominator sums coefficient numerators times positive parts,
        and is multiplied by the part's numerator factor once.
        """
        if all(c.__class__ is int for c in p.values()) and not any(
            map(self._has_denominator, p)
        ):
            return p, 1, {}
        buckets: Dict[Tuple[Mono, int], Poly] = {}
        for m, c in p.items():
            d = self._split(m)
            key = (d, 1 if c.__class__ is int else c.denominator)
            buckets.setdefault(key, {})[m - d] = c.numerator
        pairs = []
        for (d, den), n in buckets.items():
            f, c, powers = self._denominator(d)
            pairs.append((n if f == _UNIT else self.mul(n, f), c * den, powers))
        return self._common(pairs)

    def _denominator(self, d: Mono) -> tuple:
        """(numerator factor, coefficient, {base: exponent}) of a
        denominator part, its atoms' parts multiplied by adding exponents."""
        hit = self.denominators.get(d)
        if hit is None:
            f, c, powers = _UNIT, 1, {}
            for pos, e in self._digits(d):
                pf, pc, pp = self._part(pos, e)
                f, c = self.mul(f, pf), c * pc
                for b, ex in pp.items():
                    powers[b] = powers.get(b, 0) + ex
            hit = self.denominators[d] = (f, c, {b: ex for b, ex in powers.items() if ex})
        return hit

    def _part(self, pos: int, e: int) -> tuple:
        """(numerator factor, coefficient, {base: exponent}) of the atom at
        pos to the digit e in a denominator part, read off a pow_ tree: a
        sum over its own quotient n/den, to a negative integer power -k,
        is den^k over n^k.  A sum base with an integer exponent is scaled
        to its content-normal form, the scale going to the coefficient."""
        hit = self.parts.get((pos, e))
        if hit is None:
            node, ex, f = self.base[pos], self._exponent(e), _UNIT
            if self.kind[pos] == _POW and node.exponent < 0:
                d = pow_(node.base, -node.exponent)
            elif self.kind[pos] == _SUM and ex.denominator == 1:
                n, lcm, top = self.quotient(self.expand(node))
                f = {_CONST: lcm ** -ex}
                for base, x in top.items():
                    f = self.mul(f, self.factor(base, -x * ex))
                d = pow_(self.tree(n), -ex)
            else:
                d = pow_(node, -ex)
            c, powers = _as_coeff_powers(d)
            out: Dict[Expr, Coeff] = {}
            for b, x in powers:
                if b.__class__ is Add and x.denominator == 1:
                    coeffs = [_as_coeff_powers(t)[0] for t in b.terms]
                    g = Fraction(
                        math.gcd(*(k.numerator for k in coeffs)),
                        math.lcm(*(k.denominator for k in coeffs)),
                    )
                    if coeffs[0] < 0:
                        g = -g
                    if g != 1:
                        b = self.tree({m: _exact(k / g) for m, k in self.expand(b).items()})
                        c = c * g ** int(x)
                out[b] = out.get(b, 0) + x
            hit = self.parts[(pos, e)] = (f, c, {b: x for b, x in out.items() if x})
        return hit

    def _has_denominator(self, m: Mono) -> bool:
        """Does m hold a negative exponent, or an opaque Pow with one?"""
        u = m + self.bias
        return u & self.bias != self.bias or (u ^ self.bias) & self.pow_denominators != 0

    def _common(self, pairs: List[tuple]) -> tuple:
        """Sum of content-normal quotients (n, c, {base: exponent}) over
        their least common denominator: (numerator, lcm, top), the
        denominator being lcm times each base to its top exponent."""
        groups: Dict[tuple, list] = {}
        lcm = 1
        top: Dict[Expr, Coeff] = {}
        for n, c, powers in pairs:
            key = (c, frozenset(powers.items()))
            group = groups.get(key)
            if group is None:
                group = groups[key] = [c, powers, {}]
                lcm = math.lcm(lcm, c.numerator)
                for base, ex in powers.items():
                    if top.get(base, 0) < ex:
                        top[base] = ex
            _add_into(group[2], n)
        num: Poly = {}
        for c, powers, n in groups.values():
            n = _clean(n)
            if not n:
                continue
            q: Poly = {_CONST: _exact(Fraction(lcm) / c)}
            for base, ex in top.items():
                k = ex - powers.get(base, 0)
                if k:
                    q = self.mul(q, self.factor(base, k))
            _add_into(num, self.mul(n, q))
        return _clean(num), lcm, top
