"""Immutable, hash-consed expression trees with exact rational coefficients.

Every constructor in this module returns a node in canonical form:
sums are flattened, sorted, and merged by monomial; products carry a
single rational coefficient and a sorted tuple of (base, exponent)
pairs; rational powers of rational numbers extract perfect roots.

Each structure is one live object: a node class builds through
__new__, which looks its (kind, scalar fields, child nodes) up in the
weak table _NODES and returns the live node when there is one.  So ==
and hash are object identity, decided in C, for the constructor memos,
the per-call memos and the kernel's tables alike; an entry dies with
its node.  Identity hashes vary from run to run, so no output may
iterate a set of nodes.

A node's _key holds its kind, scalar fields and child nodes, and
Expr.__lt__ compares keys: the canonical order of sums and products,
the same as keys nesting their children's keys, free of id() and of
the hash seed.  A child shared by both keys is equal by identity, so a
comparison descends only where the two trees differ.

Every rational a node stores (Rat.value, Mul.coeff, Mul and Pow
exponents) is a plain int when it is integral and a Fraction only
otherwise, so the common integer case never pays for Fraction
arithmetic, hashing or comparison; the intern table keys a Fraction by
its (numerator, denominator) pair, and a product with no Fraction in it
by its sort key.  Integer powers of rationals go through _rat_int_power,
because int ** -n is a float.

Rewrites that are only valid under positivity or nonvanishing
assumptions are *not* performed here; see simplify.simplify, which
takes a Context.  The constructors only apply rules that hold on the
domain of definition of both sides (for instance exponent addition on
a shared base, exp(a)*exp(b) -> exp(a+b), or exp(c*ln(a) + r) -> a^c *
exp(r) for rational c).

A new node also sets _summary: its own bits OR'd with its children's,
so a question about a subtree is one mask test (holds, contains_var,
mentions_var, contains_func), not a walk.  Low bits mark node kinds;
each name takes a higher bit on first use in each group: explicit
variables (a Var or an Int's variable), signature variables of
unapplied Funcs, and function names.  Bit positions follow first use,
so a summary never enters a key, a hash, a sort or a print.

rat, add, mul, pow_ and _rat_power_parts are memoized, each behind its
own functools.lru_cache of MEMO_SIZE entries (typed, so an int, a
Fraction and a float argument never share an entry).  Each is a pure
function of its arguments' structure, and lru_cache stores no call that
raises, so a hit returns the node a fresh call would build and every
result and printed form stays as it is.  The groupoid checks rebuild
the same sub-products over and over: within one sweep item, more than
half of the mul, add and pow_ calls repeat an earlier call's
arguments.  The bound is set by peak RSS, since the caches keep their
argument and result trees alive: 1024 entries add under 2 MB to the
peak RSS of each benchmark workload, 16384 took sweep-light from 37 to
65 MB.

The eight node classes are final: none has a subclass, and no other
class derives from Expr.  The constructors, the calculus walkers and
the polynomial kernel dispatch on node.__class__ is Mul (and so on), an
identity test, where isinstance would walk the class hierarchy on every
node; a subclass would fall through those tests unseen.  A number
argument of add, mul or pow_ goes through as_expr, which refuses floats.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence, Tuple, Union
from weakref import ref

RationalLike = Union[int, Fraction]

# The lower limit of every antiderivative: Int nodes vanish at var = INT_BASE.
INT_BASE = 0

# Function names understood by App nodes.  sqrt is accepted by the
# parser but is rewritten to a 1/2 power immediately.
APP_NAMES = ("exp", "ln", "abs", "sign", "sin", "cos")

_KIND_RAT = 0
_KIND_VAR = 1
_KIND_FUNC = 2
_KIND_APP = 3
_KIND_INT = 4
_KIND_POW = 5
_KIND_ADD = 6
_KIND_MUL = 7


class ExprError(Exception):
    """Base class for expression-level errors."""


class DivisionByZero(ExprError, ZeroDivisionError):
    """The rational 0 raised to a negative power."""


# Kind bits of a node's _summary.  REWRITABLE marks the nodes simplify
# rewrites (abs, sign, opaque Pow): a rewrite added there must set it.
REWRITABLE, INT, APPLIED, FUNC, APP = 1, 2, 4, 8, 16  # APPLIED: Func with args
# (group, name) -> the name's bit; the groups are "var", "sig" and "fn"
_NAME_BITS: dict = {}


def _name_bit(group: str, name: str) -> int:
    return _NAME_BITS.setdefault((group, name), 32 << len(_NAME_BITS))


class Expr:
    """Base class of all expression nodes."""

    __slots__ = ("_key", "_summary", "__weakref__")

    # Arithmetic sugar so formula code reads like the mathematics; add and
    # mul coerce a number operand themselves.
    def __add__(self, other: "ExprLike") -> "Expr":
        return add(self, other)

    def __radd__(self, other: "ExprLike") -> "Expr":
        return add(other, self)

    def __sub__(self, other: "ExprLike") -> "Expr":
        return add(self, mul(MINUS_ONE, other))

    def __rsub__(self, other: "ExprLike") -> "Expr":
        return add(other, mul(MINUS_ONE, self))

    def __mul__(self, other: "ExprLike") -> "Expr":
        return mul(self, other)

    def __rmul__(self, other: "ExprLike") -> "Expr":
        return mul(other, self)

    def __truediv__(self, other: "ExprLike") -> "Expr":
        return div(self, other)

    def __rtruediv__(self, other: "ExprLike") -> "Expr":
        return div(other, self)

    def __pow__(self, other: RationalLike) -> "Expr":
        return pow_(self, other)

    def __neg__(self) -> "Expr":
        return mul(MINUS_ONE, self)

    def __lt__(self, other: "Expr") -> bool:
        return self._key < other._key  # the canonical order (module docstring)

    def __deepcopy__(self, memo: Optional[dict] = None) -> "Expr":
        return self  # one node per structure: a copy is the node itself

    __copy__ = __deepcopy__

    def children(self) -> Tuple["Expr", ...]:
        """The direct subexpressions, left to right; leaves have none."""
        return ()

    def rebuild(self, f: Callable[["Expr"], "Expr"]) -> "Expr":
        """This node over f of each child, through the canonical constructors."""
        return self

    def __repr__(self) -> str:
        from .fmt import format_expr

        return format_expr(self)


ExprLike = Union[Expr, int, Fraction]

# intern key -> weak reference to the one live node of that structure
_NODES: dict = {}


def _drop(key: tuple, dead: ref, nodes: dict = _NODES) -> None:
    # the table is bound as a default, so the callback still runs while
    # shutdown clears module globals; a newer node may own the key by now
    if nodes.get(key) is dead:
        del nodes[key]


def _live(key: tuple) -> Optional[Expr]:
    """The live node interned under key, if there is one."""
    held = _NODES.get(key)
    return None if held is None else held()


def _intern(cls: type, key: tuple, sort_key: tuple, summary: int) -> Expr:
    """A new node of cls, entered in the table under key."""
    node = object.__new__(cls)
    node._key = sort_key
    node._summary = summary
    _NODES[key] = ref(node, partial(_drop, key))
    return node


def _q(q: RationalLike):
    """q in an intern key; a Fraction, whose hash is slow, as a pair."""
    return q if q.__class__ is int else (q.numerator, q.denominator)


def as_expr(value: ExprLike) -> Expr:
    """Coerce ints and Fractions to Rat nodes, pass Expr through."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, Fraction)):
        return rat(value)
    raise TypeError(f"cannot interpret {value!r} as an expression")


class Rat(Expr):
    """An exact rational constant: an int when integral, else a Fraction."""

    __slots__ = ("value",)

    def __new__(cls, value: RationalLike):
        value = _exact(value)
        key = (_KIND_RAT, _q(value))
        node = _live(key)
        if node is None:
            node = _intern(cls, key, (_KIND_RAT, value), 0)
            node.value = value
        return node


class Var(Expr):
    """An independent variable such as t or x."""

    __slots__ = ("name",)

    def __new__(cls, name: str):
        key = (_KIND_VAR, name)
        node = _live(key)
        if node is None:
            node = _intern(cls, key, key, _name_bit("var", name))
            node.name = name
        return node


class Func(Expr):
    """A function symbol, possibly differentiated, possibly applied.

    ``argnames`` is the declared signature, e.g. ("t", "x").  ``didx``
    counts derivatives per signature slot, so X_txx has didx (1, 2).
    ``args`` is None when the symbol is applied at its own signature
    variables (the usual case when writing equations in source
    coordinates) and a tuple of expressions when applied elsewhere,
    as in T_t(S(t)) during compositions.
    """

    __slots__ = ("name", "argnames", "didx", "args")

    def __new__(cls, name: str, argnames: Tuple[str, ...], didx: Tuple[int, ...],
                args: Optional[Tuple[Expr, ...]] = None):
        key = (_KIND_FUNC, name, argnames, didx, (0,) if args is None else (1,) + args)
        node = _live(key)
        if node is not None:
            return node
        if len(didx) != len(argnames):
            raise ExprError(f"didx length {didx} does not match signature {argnames}")
        if args is not None and len(args) != len(argnames):
            raise ExprError(f"{name} expects {len(argnames)} arguments, got {len(args)}")
        summary = FUNC | _name_bit("fn", name)
        if args is None:
            for a in argnames:
                summary |= _name_bit("sig", a)
        else:
            summary |= APPLIED
            for a in args:
                summary |= a._summary
        node = _intern(cls, key, key, summary)
        node.name, node.argnames, node.didx, node.args = name, argnames, didx, args
        return node

    def children(self) -> Tuple[Expr, ...]:
        return self.args or ()

    def rebuild(self, f: Callable[[Expr], Expr]) -> Expr:
        if self.args is None:
            return self
        return func(self.name, self.argnames, self.didx, [f(a) for a in self.args])


class App(Expr):
    """Application of a fixed elementary function (exp, ln, abs, ...)."""

    __slots__ = ("fn", "arg")

    def __new__(cls, fn: str, arg: Expr):
        key = (_KIND_APP, fn, arg)
        node = _live(key)
        if node is None:
            if fn not in APP_NAMES:
                raise ExprError(f"unknown function {fn}")
            kind = APP | REWRITABLE if fn in ("abs", "sign") else APP
            node = _intern(cls, key, key, kind | arg._summary)
            node.fn, node.arg = fn, arg
        return node

    def children(self) -> Tuple[Expr, ...]:
        return (self.arg,)

    def rebuild(self, f: Callable[[Expr], Expr]) -> Expr:
        return app(self.fn, f(self.arg))


class Int(Expr):
    """The antiderivative of ``body`` with respect to ``var`` based at INT_BASE.

    The node denotes the antiderivative that vanishes at var = INT_BASE
    (0): numeric evaluation integrates from there (numeric.Evaluator),
    and the zero test's antiderivative rule (zero.integral_identity)
    proves identities against the same base.
    """

    __slots__ = ("body", "var")

    def __new__(cls, body: Expr, var: str):
        key = (_KIND_INT, var, body)
        node = _live(key)
        if node is None:
            node = _intern(cls, key, key, INT | _name_bit("var", var) | body._summary)
            node.body, node.var = body, var
        return node

    def children(self) -> Tuple[Expr, ...]:
        return (self.body,)

    def rebuild(self, f: Callable[[Expr], Expr]) -> Expr:
        return integral(f(self.body), self.var)


class Pow(Expr):
    """An opaque rational power kept unevaluated.

    Only produced when a rewrite such as (b^e)^r -> b^(e*r) is not
    valid without assumptions.  simplify upgrades these nodes when the
    context allows.
    """

    __slots__ = ("base", "exponent")

    def __new__(cls, base: Expr, exponent: RationalLike):
        key = (_KIND_POW, base, _q(exponent))
        node = _live(key)
        if node is None:
            node = _intern(cls, key, (_KIND_POW, base, exponent), REWRITABLE | base._summary)
            node.base, node.exponent = base, exponent
        return node

    def children(self) -> Tuple[Expr, ...]:
        return (self.base,)

    def rebuild(self, f: Callable[[Expr], Expr]) -> Expr:
        return pow_(f(self.base), self.exponent)


class Add(Expr):
    """A flattened, sorted sum of at least two unlike terms."""

    __slots__ = ("terms",)

    def __new__(cls, terms: Tuple[Expr, ...]):
        key = (_KIND_ADD,) + terms
        node = _live(key)
        if node is None:
            summary = 0
            for t in terms:
                summary |= t._summary
            node = _intern(cls, key, key, summary)
            node.terms = terms
        return node

    def children(self) -> Tuple[Expr, ...]:
        return self.terms

    def rebuild(self, f: Callable[[Expr], Expr]) -> Expr:
        return add(*[f(t) for t in self.terms])


class Mul(Expr):
    """coeff * prod(base_i ^ exp_i) with sorted bases and rational exponents."""

    __slots__ = ("coeff", "powers")

    def __new__(cls, coeff: RationalLike, powers: Tuple[Tuple[Expr, RationalLike], ...]):
        # the sort key is the intern key too, unless it holds a Fraction
        sort_key = key = (_KIND_MUL, coeff) + powers
        for _, e in powers:
            if e.__class__ is not int:
                key = None
                break
        if key is None or coeff.__class__ is not int:
            key = (_KIND_MUL, _q(coeff)) + tuple([(b, _q(e)) for b, e in powers])
        node = _live(key)
        if node is None:
            summary = 0
            for b, _ in powers:
                summary |= b._summary
            node = _intern(cls, key, sort_key, summary)
            node.coeff, node.powers = coeff, powers
        return node

    def children(self) -> Tuple[Expr, ...]:
        return tuple(b for b, _ in self.powers)

    def rebuild(self, f: Callable[[Expr], Expr]) -> Expr:
        return mul(rat(self.coeff), *[pow_(f(b), ex) for b, ex in self.powers])


# the node classes; none has a subclass, so the hot paths below dispatch
# on a node's __class__
_NODE_CLASSES = frozenset((Rat, Var, Func, App, Int, Pow, Add, Mul))


# ---------------------------------------------------------------------------
# canonical constructors


MEMO_SIZE = 1024
_memoized = lru_cache(maxsize=MEMO_SIZE, typed=True)


def _exact(q: RationalLike) -> RationalLike:
    """q as an int when it is integral, else q unchanged."""
    if q.__class__ is int or q.denominator != 1:
        return q
    return q.numerator


def _rat_int_power(value: RationalLike, n: int) -> RationalLike:
    """value ** n for an integer n, exactly; raises DivisionByZero for 0 ** -n."""
    if n < 0:
        if value == 0:
            raise DivisionByZero("division by zero")
        return _exact(Fraction(value) ** n)
    return _exact(value ** n)


@_memoized
def rat(value: RationalLike, den: Optional[int] = None) -> Rat:
    """Make a rational constant; rat(1, 2) is one half.

    Only ints and Fractions are taken: a float is refused with a
    TypeError, never rationalized.
    """
    if den is not None:
        value = Fraction(value, den)
    elif not isinstance(value, (int, Fraction)):
        raise TypeError(f"cannot make an exact rational of {value!r}")
    return Rat(value)


ZERO = rat(0)
ONE = rat(1)
MINUS_ONE = rat(-1)


def var(name: str) -> Var:
    return Var(name)


def func(
    name: str,
    argnames: Sequence[str],
    didx: Optional[Sequence[int]] = None,
    args: Optional[Sequence[Expr]] = None,
) -> Func:
    argnames = tuple(argnames)
    if didx is None:
        didx = (0,) * len(argnames)
    if args is not None:
        args = tuple(args)
        if args == tuple(Var(a) for a in argnames):
            args = None  # application at the signature variables is the default
    return Func(name, argnames, tuple(didx), args)


def _as_coeff_powers(
    e: Expr,
) -> Tuple[RationalLike, Tuple[Tuple[Expr, RationalLike], ...]]:
    """Split a canonical node into (coefficient, monomial)."""
    cls = e.__class__
    if cls is Mul:
        return e.coeff, e.powers
    if cls is Rat:
        return e.value, ()
    return 1, ((e, 1),)


@_memoized
def add(*terms: ExprLike) -> Expr:
    """Canonical sum: flatten, merge like monomials, drop zeros, sort.

    A term that merges with no other is kept as the same object.
    """
    const = 0
    # monomial -> (summed coefficient, the term itself while it is alone)
    acc: dict = {}
    for term in terms:
        for node in term.terms if term.__class__ is Add else (term,):
            cls = node.__class__
            if cls is Mul:
                coeff, powers = node.coeff, node.powers
            elif cls is Rat:
                const += node.value
                continue
            elif cls is Add:  # a sum built raw holds a sum: flatten a level
                return add(*[n for s in terms for n in (s.terms if s.__class__ is Add else (s,))])
            elif cls in _NODE_CLASSES:
                coeff, powers = 1, ((node, 1),)
            else:
                const += as_expr(node).value  # a number, or a TypeError
                continue
            prev = acc.get(powers)
            acc[powers] = (coeff, node) if prev is None else (prev[0] + coeff, None)
    # a constant sorts first: its monomial () precedes every other
    out = [rat(const)] if const != 0 else []
    items = sorted(acc.items(), key=_first) if len(acc) > 1 else acc.items()
    for powers, (coeff, node) in items:
        if node is None:
            if coeff == 0:
                continue
            node = _make_mul(coeff, powers)
        out.append(node)
    if len(out) > 1:
        return Add(tuple(out))
    return out[0] if out else ZERO


_first = itemgetter(0)


def _term_order(term: Expr) -> tuple:
    """Order terms of a sum by their monomial part, constants first."""
    return _as_coeff_powers(term)[1]


def _base_order(power: Tuple[Expr, RationalLike]) -> tuple:
    """Order the factors of a product by their bases."""
    return power[0]._key


def _make_mul(
    coeff: RationalLike, powers: Tuple[Tuple[Expr, RationalLike], ...]
) -> Expr:
    """coeff * powers as a canonical node; powers must be canonical already."""
    if coeff.__class__ is not int:
        if coeff.denominator == 1:
            return _make_mul(coeff.numerator, powers)
    elif coeff == 0:
        return ZERO
    elif coeff == 1 and len(powers) == 1 and powers[0][1].__class__ is int and powers[0][1] == 1:
        return powers[0][0]
    if not powers:
        return rat(coeff)
    return Mul(coeff, powers)


def _scale_expr(coeff: RationalLike, e: Expr) -> Expr:
    """coeff * e with the scalar distributed over sums.

    Keeps exp arguments flat, so that exp(s) * exp(-s) cancels through
    the merged-argument path.  Unwraps a bare scalar-times-sum first;
    those arrive from exp(c * (...)) built elsewhere.
    """
    if e.__class__ is Mul and len(e.powers) == 1:
        b, k = e.powers[0]
        if b.__class__ is Add and k == 1:
            coeff = coeff * e.coeff
            e = b
    if coeff == 1:
        return e
    if e.__class__ is Add:
        c = rat(coeff)
        return add(*[mul(c, term) for term in e.terms])
    return mul(rat(coeff), e)


@_memoized
def mul(*factors: ExprLike) -> Expr:
    """Canonical product: flatten, fold rationals, merge equal bases.

    Exponents on a shared base always add (a domain-of-definition
    convention: x * x^-1 -> 1).  All exp factors combine into a single
    exp of the summed, exponent-weighted arguments.  An opaque Pow base
    whose exponents add up to anything but 1 is folded as pow_ folds
    it, so mul(r, r) and pow_(r, 2) build the same node.
    """
    coeff: RationalLike = 1
    acc: dict = {}  # base -> summed exponent, bases in first-seen order
    exp_args: list = []  # the exponent-weighted arguments of exp factors
    for f in factors:
        cls = f.__class__
        if cls is Mul:
            c = f.coeff
            coeff = c if coeff == 1 else coeff * c
            pairs = f.powers
        elif cls is Rat:
            c = f.value
            coeff = c if coeff == 1 else coeff * c
            continue
        elif cls in _NODE_CLASSES:
            pairs = ((f, 1),)
        else:
            coeff *= as_expr(f).value  # a number, or a TypeError
            continue
        for b, e in pairs:
            cls = b.__class__
            if cls is App and b.fn == "exp":
                exp_args.append(_scale_expr(e, b.arg))
            elif cls is Rat:
                if e.__class__ is int or e.denominator == 1:
                    coeff *= _rat_int_power(b.value, e)
                    continue
                # non-integer power of a rational: keep prime bases
                for b2, e2 in _rat_power_parts(b.value, e):
                    if b2.__class__ is Rat and e2.denominator == 1:
                        coeff *= _rat_int_power(b2.value, e2)
                    else:
                        prev = acc.get(b2)
                        acc[b2] = e2 if prev is None else prev + e2
            elif cls is Mul:
                if e != 0:
                    raise ExprError("internal: a product's base is a product")
            else:
                prev = acc.get(b)
                acc[b] = e if prev is None else prev + e

    if coeff == 0:
        return ZERO

    # fold all exponential factors into one
    if exp_args:
        e = exp(add(*exp_args))
        if e.__class__ is Rat:
            coeff *= e.value
        elif e.__class__ is Mul:
            # a logarithm folded out, as in exp(x + ln(2*x)) * exp(-x)
            coeff *= e.coeff
            for b, k in e.powers:
                acc[b] = acc.get(b, 0) + k
        else:
            acc[e] = acc.get(e, 0) + 1

    powers = []
    folded = []
    for base, e in acc.items():
        if e.__class__ is not int and e.denominator == 1:
            e = e.numerator
        if e.__class__ is int:
            if e == 0:
                continue
            if base.__class__ is Rat:
                coeff *= _rat_int_power(base.value, e)
                continue
            if e != 1 and base.__class__ is Pow:
                folded.append(_pow_single(base, e))
                continue
        elif base.__class__ is Pow:
            folded.append(_pow_single(base, e))
            continue
        elif base.__class__ is Rat:
            # a radical of a rational splits as pow_ splits it: exponents
            # of one prime that summed past 1 leave a whole power
            for b2, e2 in _rat_power_parts(base.value, e):
                if e2.__class__ is int:
                    coeff *= _rat_int_power(b2.value, e2)
                else:
                    powers.append((b2, e2))
            continue
        powers.append((base, e))
    if len(powers) > 1:
        powers.sort(key=_base_order)
    if coeff == 0:
        return ZERO
    if folded:
        return mul(_make_mul(coeff, tuple(powers)), *folded)
    return _make_mul(coeff, tuple(powers))


def _int_root_split(n: int) -> Iterable[Tuple[int, int]]:
    """Factor n >= 2 into primes, yielding (prime, multiplicity)."""
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            k = 0
            while m % p == 0:
                m //= p
                k += 1
            yield p, k
        p += 1 if p == 2 else 2
    if m > 1:
        yield m, 1


@_memoized
def _rat_power_parts(value: RationalLike, exponent: Fraction) -> tuple:
    """Split value**exponent into (base, exponent) parts with prime bases.

    value must be a positive or negative rational and exponent a
    non-integral Fraction; negative values with an even exponent
    denominator produce an opaque Pow part whose exponent lies strictly
    between 0 and 1, with the whole power z^floor(e) pulled out as a
    rational factor, so (-2)^(3/2) is -2*((-2)^(1/2)).
    """
    parts: list = []
    if value < 0:
        if exponent.denominator % 2 == 1:
            # odd root of a negative number is real; pull the sign out
            sign = -1 if exponent.numerator % 2 == 1 else 1
            parts.append((rat(sign), 1))
            value = -value
        else:
            # z^(n + r) = z^n z^r for integer n
            whole = exponent.numerator // exponent.denominator
            if whole != 0:
                parts.append((rat(_rat_int_power(value, whole)), 1))
            parts.append((Pow(rat(value), exponent - whole), 1))
            return tuple(parts)
    if value == 1:
        if not parts:
            parts.append((ONE, 1))
        return tuple(parts)
    num, den = value.numerator, value.denominator
    for n, e_sign in ((num, 1), (den, -1)):
        if n == 1:
            continue
        if n > 10**12:
            parts.append((rat(n), exponent * e_sign))
            continue
        for p, k in _int_root_split(n):
            total = exponent * k * e_sign
            whole = total.numerator // total.denominator
            fracpart = total - whole
            if whole != 0:
                parts.append((rat(p), whole))
            if fracpart != 0:
                parts.append((rat(p), fracpart))
    if not parts:
        parts.append((ONE, 1))
    return tuple(parts)


def _is_surely_positive(e: Expr) -> bool:
    """Positivity decidable without a context: exp nodes and positive rationals."""
    cls = e.__class__
    if cls is Rat:
        return e.value > 0
    if cls is App:
        return e.fn == "exp"
    if cls is Mul:
        return e.coeff > 0 and all(
            _is_surely_positive(b) for b, _ in e.powers
        )
    if cls is Pow:
        return _is_surely_positive(e.base)
    return False


@_memoized
def pow_(base: ExprLike, exponent: RationalLike) -> Expr:
    """Canonical rational power.

    Integer exponents distribute over products and merge with inner
    exponents unconditionally.  Fractional exponents distribute only
    when validity does not depend on signs; otherwise an opaque Pow
    node is produced and left for assumption-aware simplification.  A
    float exponent is refused with a TypeError, never rationalized.
    """
    if base.__class__ not in _NODE_CLASSES:
        base = as_expr(base)
    if exponent.__class__ is not int:
        if not isinstance(exponent, (int, Fraction)):
            raise TypeError(f"cannot take an exact power {exponent!r}")
        exponent = _exact(exponent)
    whole = exponent.__class__ is int  # else a Fraction that is not integral
    if whole:
        if exponent == 0:
            return ONE
        if exponent == 1:
            return base
    cls = base.__class__
    if cls is Rat:
        if whole:
            return rat(_rat_int_power(base.value, exponent))
        if base.value == 0:
            raise ExprError("zero raised to a fractional power")
        return mul(*[_make_mul(1, ((b, e),)) if not (b.__class__ is Rat and e == 1) else b for b, e in _rat_power_parts(base.value, exponent)])
    if cls is Mul:
        if whole or (
            base.coeff > 0 and all(_merge_ok(b, e, exponent) for b, e in base.powers)
        ):
            parts = [pow_(rat(base.coeff), exponent)]
            for b, e in base.powers:
                parts.append(_pow_single(b, _exact(e * exponent)))
            return mul(*parts)
        return Pow(base, exponent)
    return _pow_single(base, exponent)


def _merge_ok(b: Expr, inner: RationalLike, outer: RationalLike) -> bool:
    """Is (b^inner)^outer -> b^(inner*outer) valid without assumptions?"""
    if outer.__class__ is int or outer.denominator == 1:
        return True
    if inner == 1:
        return True
    return _is_surely_positive(b)


def _pow_single(base: Expr, exponent: RationalLike) -> Expr:
    """Power of a non-Rat, non-Mul base with exponent folding guards.

    The exponent is exact: an int, or a Fraction that is not integral.
    """
    if exponent.__class__ is int:
        if exponent == 0:
            return ONE
        if exponent == 1:
            return base
    cls = base.__class__
    if cls is App and base.fn == "exp":
        return exp(mul(rat(exponent), base.arg))
    if cls is Pow:
        if _merge_ok(base.base, base.exponent, exponent):
            return pow_(base.base, base.exponent * exponent)
        return Pow(base, exponent)
    return _make_mul(1, ((base, exponent),))


def div(a: ExprLike, b: ExprLike) -> Expr:
    return mul(as_expr(a), pow_(as_expr(b), -1))


def app(fn: str, arg: ExprLike) -> Expr:
    """Apply an elementary function with a few always-valid folds."""
    arg = as_expr(arg)
    if fn == "sqrt":
        return pow_(arg, Fraction(1, 2))
    if fn == "exp":
        return exp(arg)
    cls = arg.__class__
    if fn == "ln":
        if cls is Rat and arg.value <= 0:
            raise ExprError(f"ln({arg.value}) is undefined")
        if arg is ONE:
            return ZERO
        if cls is App and arg.fn == "exp":
            return arg.arg
        return App("ln", arg)
    if fn == "abs":
        if cls is Rat:
            return rat(abs(arg.value))
        if _is_surely_positive(arg):
            return arg
        if cls is App and arg.fn == "abs":
            return arg
        if cls is App and arg.fn == "sign":
            # sign is defined away from zeros, where its modulus is 1
            return ONE
        coeff, powers = _as_coeff_powers(arg)
        inner = _make_mul(1, powers)
        if _is_surely_positive(inner):
            return mul(rat(abs(coeff)), inner)
        if abs(coeff) != 1:
            return mul(rat(abs(coeff)), App("abs", inner))
        return App("abs", inner)
    if fn == "sign":
        if cls is Rat:
            if arg.value == 0:
                raise ExprError("sign(0) is undefined here")
            return ONE if arg.value > 0 else MINUS_ONE
        if _is_surely_positive(arg):
            return ONE
        if cls is App and arg.fn == "abs":
            return ONE
        if cls is App and arg.fn == "sign":
            return arg
        coeff, powers = _as_coeff_powers(arg)
        if coeff < 0:
            return mul(MINUS_ONE, app("sign", _make_mul(-coeff, powers)))
        if coeff != 1:
            return app("sign", _make_mul(1, powers))
        return App("sign", arg)
    if fn == "sin":
        if arg is ZERO:
            return ZERO
        return App("sin", arg)
    if fn == "cos":
        if arg is ZERO:
            return ONE
        return App("cos", arg)
    raise ExprError(f"unknown function {fn}")


def _log_term(term: Expr) -> Optional[Tuple[Expr, RationalLike]]:
    """(a, c) when term is c*ln(a) for a rational c, else None."""
    if term.__class__ is App:
        return (term.arg, 1) if term.fn == "ln" else None
    if term.__class__ is Mul and len(term.powers) == 1 and term.powers[0][1] == 1:
        b = term.powers[0][0]
        if b.__class__ is App and b.fn == "ln":
            return b.arg, term.coeff
    return None


def exp(arg: ExprLike) -> Expr:
    """exp with exp(sum of c_i*ln(a_i) + r) -> prod of a_i^c_i times exp(r).

    Each c_i is rational.  The fold holds wherever every ln(a_i) is
    defined, so exp(ln(a)) is a and exp(c*ln(a)) is a^c.  An exp node's
    argument therefore never holds a rational multiple of a logarithm
    as a term.
    """
    arg = as_expr(arg)
    if arg is ZERO:
        return ONE
    terms = arg.terms if arg.__class__ is Add else (arg,)
    if not any(map(_log_term, terms)):
        return App("exp", arg)
    factors, rest = [], []
    for term in terms:
        lt = _log_term(term)
        if lt is None:
            rest.append(term)
        else:
            factors.append(pow_(*lt))
    return mul(*factors, exp(add(*rest)))


def ln(arg: ExprLike) -> Expr:
    return app("ln", arg)


def sqrt(arg: ExprLike) -> Expr:
    return pow_(as_expr(arg), Fraction(1, 2))


def integral(body: ExprLike, var_name: str) -> Expr:
    body = as_expr(body)
    if body is ZERO:
        return ZERO
    if not contains_var(body, var_name):
        # canonical antiderivative of a constant-in-var body
        return mul(body, var(var_name))
    return Int(body, var_name)


# ---------------------------------------------------------------------------
# structure helpers


def walk(e: Expr) -> Iterator[Expr]:
    """Each distinct subtree of e once, in preorder, children left to right.

    A node met again (equal subtrees are one node) is skipped with its
    subtree; the rest come in first-seen order.  No recursion.
    """
    return _preorder(e, ())


def _preorder(e: Expr, closed: tuple) -> Iterator[Expr]:
    """walk, yielding nodes of the types in closed without their subtrees."""
    seen = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        yield node
        if not isinstance(node, closed):
            stack.extend(reversed(node.children()))


def atoms_of(e: Expr) -> list:
    """All leaf unknowns of e: Vars, unapplied Func symbols, Int nodes.

    Int nodes are treated as opaque atoms; an antiderivative is a new
    transcendental as far as identity testing goes.  Explicitly applied
    Func nodes contribute their arguments' atoms plus themselves.
    """
    return list(dict.fromkeys(
        n for n in _preorder(e, (Int,)) if isinstance(n, (Var, Func, Int))
    ))


def holds(e: Expr, kinds: int) -> bool:
    """Does e hold a node of one of kinds (REWRITABLE, INT, APPLIED, FUNC, APP)?"""
    return e._summary & kinds != 0


def contains_var(e: Expr, name: str) -> bool:
    """Does e mention the variable ``name`` (including via default args)?"""
    return mentions_var(e, name) or e._summary & _NAME_BITS.get(("sig", name), 0) != 0


def mentions_var(e: Expr, name: str) -> bool:
    """Does e hold a Var or an antiderivative in name?  Default args do not count."""
    return e._summary & _NAME_BITS.get(("var", name), 0) != 0


def contains_func(e: Expr, name: str) -> bool:
    """Does e mention the function symbol called name?"""
    return e._summary & _NAME_BITS.get(("fn", name), 0) != 0
