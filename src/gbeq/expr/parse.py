"""Parser for the expression syntax used in files and on the CLI.

Grammar, loosest binding first:

    sum     := product (('+' | '-') product)*
    product := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' unary)?          right associative
    atom    := NUMBER | '(' sum ')' | call | symbol

Unary minus binds more loosely than '^', so -x^2 is -(x^2) while
2^-1 parses (the exponent position accepts a signed atom).  Numbers
are integers or decimal literals; decimals become exact rationals.
Identifiers match [A-Za-z][A-Za-z0-9]*, with an optional derivative
suffix after an underscore (X_tx).  A following '(' makes an explicit
application, checked against the declared arity.  The builtins exp,
ln, sqrt, abs, sign, sin, cos take one argument; int(body, v) names
an antiderivative with respect to the declared variable v.
Undefined arithmetic (1/0, 0^(-1), 0^(1/2), sign(0)) is a ParseError
at the offending operator.

Every parenthesis, argument list, unary minus and exponent opens one
nesting level, the whole input being level 1.  Input nested deeper
than MAX_NESTING levels is a ParseError at the token that opens the
extra level: the parser and the passes that walk the tree it builds
recurse per level, and would otherwise exhaust the interpreter stack.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Tuple

from .context import Context
from .nodes import (
    APP_NAMES,
    Expr,
    ExprError,
    Rat,
    add,
    app,
    div,
    integral,
    mul,
    pow_,
    rat,
)

BUILTINS = set(APP_NAMES) | {"sqrt", "int"}

MAX_NESTING = 100


class ParseError(ExprError):
    """Syntax or resolution failure, annotated with a position."""

    def __init__(self, message: str, text: str, pos: int):
        self.pos = pos
        pointer = " " * pos + "^"
        super().__init__(f"{message} at column {pos + 1}\n  {text}\n  {pointer}")


Token = Tuple[str, str, int]  # kind, text, position


def _tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c in " \t":
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (
                text[j].isdigit()
                or (
                    text[j] == "."
                    and not seen_dot
                    and j + 1 < n
                    and text[j + 1].isdigit()
                )
            ):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            tokens.append(("number", text[i:j], i))
            i = j
            continue
        if c.isalpha():
            j = i
            while j < n and (text[j].isalnum()):
                j += 1
            name = text[i:j]
            if j < n and text[j] == "_":
                k = j + 1
                while k < n and text[k].isalnum():
                    k += 1
                if k == j + 1:
                    raise ParseError("dangling underscore", text, j)
                tokens.append(("ident", text[i:k], i))
                i = k
            else:
                tokens.append(("ident", name, i))
                i = j
            continue
        if c in "+-*/^(),":
            tokens.append((c, c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", text, i)
    tokens.append(("end", "", n))
    return tokens


def parse(text: str, ctx: Context) -> Expr:
    """Parse ``text`` against the declarations in ``ctx``."""
    tokens = _tokenize(text)
    pos = 0
    depth = 0

    def peek() -> Token:
        return tokens[pos]

    def advance() -> Token:
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def build(at: int, make, *args) -> Expr:
        """make(*args), reporting undefined arithmetic at column at."""
        try:
            return make(*args)
        except ZeroDivisionError:
            raise ParseError("division by zero", text, at) from None
        except ExprError as exc:
            raise ParseError(str(exc), text, at) from None

    def expect(kind: str) -> Token:
        tok = peek()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", text, tok[2])
        return advance()

    def parse_sum() -> Expr:
        node = parse_product()
        while peek()[0] in ("+", "-"):
            op = advance()[0]
            rhs = parse_product()
            node = add(node, rhs if op == "+" else -rhs)
        return node

    def parse_product() -> Expr:
        node = parse_unary()
        while peek()[0] in ("*", "/"):
            op, _, at = advance()
            rhs = parse_unary()
            node = mul(node, rhs) if op == "*" else build(at, div, node, rhs)
        return node

    def parse_unary() -> Expr:
        nonlocal depth
        depth += 1
        if depth > MAX_NESTING:
            raise ParseError(
                f"expression nested deeper than {MAX_NESTING} levels", text, peek()[2]
            )
        if peek()[0] == "-":
            advance()
            node = -parse_unary()
        else:
            node = parse_power()
        depth -= 1
        return node

    def parse_power() -> Expr:
        base = parse_atom()
        if peek()[0] == "^":
            at = advance()[2]
            exponent = parse_unary()
            if not isinstance(exponent, Rat):
                raise ParseError("exponent must be a rational constant", text, at)
            return build(at, pow_, base, exponent.value)
        return base

    def parse_atom() -> Expr:
        tok = peek()
        if tok[0] == "number":
            advance()
            return rat(Fraction(tok[1]))
        if tok[0] == "(":
            advance()
            node = parse_sum()
            expect(")")
            return node
        if tok[0] == "ident":
            advance()
            return resolve_ident(tok)
        raise ParseError(f"expected an expression, found {tok[1]!r}", text, tok[2])

    def parse_args() -> List[Expr]:
        expect("(")
        args = [parse_sum()]
        while peek()[0] == ",":
            advance()
            args.append(parse_sum())
        expect(")")
        return args

    def resolve_ident(tok: Token) -> Expr:
        name = tok[1]
        at = tok[2]
        if name in BUILTINS:
            if peek()[0] != "(":
                raise ParseError(f"{name} requires an argument list", text, at)
            if name == "int":
                opened = expect("(")
                body = parse_sum()
                expect(",")
                vtok = expect("ident")
                if vtok[1] not in ctx.variables:
                    raise ParseError(
                        f"integration variable {vtok[1]!r} is not declared",
                        text,
                        vtok[2],
                    )
                expect(")")
                del opened
                return integral(body, vtok[1])
            args = parse_args()
            if len(args) != 1:
                raise ParseError(f"{name} takes one argument", text, at)
            return build(at, app, name, args[0])
        base, underscore, suffix = name.partition("_")
        if base in ctx.variables:
            if underscore:
                raise ParseError(
                    f"{base} is a variable and takes no derivative suffix", text, at
                )
            return ctx.variables[base]
        sig = ctx.functions.get(base)
        if sig is None:
            raise ParseError(f"undeclared variable or function {base!r}", text, at)
        didx = [0] * len(sig)
        for ch in suffix:
            if ch not in sig:
                raise ParseError(
                    f"{base} has arguments {sig}; cannot differentiate by {ch!r}",
                    text,
                    at,
                )
            didx[sig.index(ch)] += 1
        args: Optional[List[Expr]] = None
        if peek()[0] == "(":
            args = parse_args()
            if len(args) != len(sig):
                raise ParseError(
                    f"{base} expects {len(sig)} arguments, got {len(args)}",
                    text,
                    at,
                )
        return ctx.fn(base, didx, args)

    result = parse_sum()
    tok = peek()
    if tok[0] != "end":
        raise ParseError(f"unexpected trailing input {tok[1]!r}", text, tok[2])
    return result
