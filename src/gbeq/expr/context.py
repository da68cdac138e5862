"""Symbol declarations and sign assumptions.

A Context owns the names the parser may resolve: independent variables
and function symbols with fixed signatures.  It also carries a small
assumption set (positive / negative / nonzero) on atoms, which is what
unlocks rewrites like abs(a) -> a or (T_t^(1/2))^2 -> T_t.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from .nodes import (
    App,
    Expr,
    ExprError,
    Func,
    Mul,
    Pow,
    Rat,
    Var,
    func,
    var,
)

POSITIVE = "positive"
NEGATIVE = "negative"
NONZERO = "nonzero"


class ContextError(ExprError):
    """Raised for conflicting or malformed declarations."""


class Context:
    """Declared symbols plus assumptions.

    Variables are single names; functions carry a signature of variable
    names (each of which must be a single character so that derivative
    suffixes like X_tx stay unambiguous).
    """

    def __init__(self) -> None:
        self.variables: Dict[str, Var] = {}
        self.functions: Dict[str, Tuple[str, ...]] = {}
        self.assumptions: Dict[Expr, set] = {}

    def copy(self) -> "Context":
        out = Context()
        out.variables = dict(self.variables)
        out.functions = dict(self.functions)
        out.assumptions = {k: set(v) for k, v in self.assumptions.items()}
        return out

    # -- declarations -----------------------------------------------------

    def add_var(self, name: str) -> Var:
        if name in self.functions:
            raise ContextError(f"{name} already declared as a function")
        v = self.variables.get(name)
        if v is None:
            v = var(name)
            self.variables[name] = v
        return v

    def add_function(self, name: str, argnames: Sequence[str]) -> Func:
        argnames = tuple(argnames)
        if name in self.variables:
            raise ContextError(f"{name} already declared as a variable")
        for a in argnames:
            if len(a) != 1:
                raise ContextError(
                    f"function argument {a!r} must be a single character"
                )
        old = self.functions.get(name)
        if old is not None and old != argnames:
            raise ContextError(f"{name} redeclared with signature {argnames}")
        self.functions[name] = argnames
        return func(name, argnames)

    def fn(self, name: str, didx: Optional[Sequence[int]] = None,
           args: Optional[Sequence[Expr]] = None) -> Func:
        """Build a (possibly differentiated / applied) declared symbol."""
        sig = self.functions.get(name)
        if sig is None:
            raise ContextError(f"function {name} is not declared")
        return func(name, sig, didx, args)

    # -- assumptions ------------------------------------------------------

    def assume(self, target: Expr, flag: str) -> None:
        if flag not in (POSITIVE, NEGATIVE, NONZERO):
            raise ContextError(f"unknown assumption {flag!r}")
        flags = self.assumptions.setdefault(target, set())
        if flag == POSITIVE and NEGATIVE in flags:
            raise ContextError(f"conflicting sign assumptions on {target!r}")
        if flag == NEGATIVE and POSITIVE in flags:
            raise ContextError(f"conflicting sign assumptions on {target!r}")
        flags.add(flag)
        if flag in (POSITIVE, NEGATIVE):
            flags.add(NONZERO)

    def assume_name(self, name: str, flag: str) -> None:
        """Attach an assumption to a declared symbol by name."""
        if name in self.functions:
            self.assume(self.fn(name), flag)
        elif name in self.variables:
            self.assume(self.variables[name], flag)
        else:
            raise ContextError(f"{name} is not declared in this context")

    def assume_declared(self, pairs: Sequence[Tuple[str, str]]) -> None:
        """Attach each (name, flag) pair whose name is declared here; skip the rest."""
        for name, flag in pairs:
            if self.declares(name):
                self.assume_name(name, flag)

    def declares(self, name: str) -> bool:
        return name in self.functions or name in self.variables

    def assume_positive(self, target: Expr) -> None:
        self.assume(target, POSITIVE)

    def assume_negative(self, target: Expr) -> None:
        self.assume(target, NEGATIVE)

    def assume_nonzero(self, target: Expr) -> None:
        self.assume(target, NONZERO)

    def _flags(self, e: Expr) -> set:
        return self.assumptions.get(e, set())

    def is_positive(self, e: Expr) -> bool:
        """Conservative positivity: True only when derivable."""
        if POSITIVE in self._flags(e):
            return True
        if isinstance(e, Rat):
            return e.value > 0
        if isinstance(e, App):
            if e.fn == "exp":
                return True
            if e.fn == "abs":
                return self.is_nonzero(e.arg)
        if isinstance(e, Pow):
            # b^r with b > 0 is positive; with even numerator it is
            # nonnegative, and positive when b is nonzero
            if self.is_positive(e.base):
                return True
            if e.exponent.numerator % 2 == 0 and self.is_nonzero(e.base):
                return True
            return False
        if isinstance(e, Mul):
            if e.coeff < 0:
                return False
            for b, ex in e.powers:
                if self.is_positive(b):
                    continue
                if ex.numerator % 2 == 0 and ex.denominator == 1 and self.is_nonzero(b):
                    continue
                return False
            return True
        return False

    def is_negative(self, e: Expr) -> bool:
        if NEGATIVE in self._flags(e):
            return True
        if isinstance(e, Rat):
            return e.value < 0
        if isinstance(e, Mul):
            if e.coeff < 0:
                return self.is_positive(Mul(-e.coeff, e.powers))
        return False

    def is_nonzero(self, e: Expr) -> bool:
        flags = self._flags(e)
        if NONZERO in flags or POSITIVE in flags or NEGATIVE in flags:
            return True
        if isinstance(e, Rat):
            return e.value != 0
        if isinstance(e, App):
            if e.fn == "exp":
                return True
            if e.fn in ("abs", "sign"):
                return self.is_nonzero(e.arg)
        if isinstance(e, Pow):
            return self.is_nonzero(e.base)
        if isinstance(e, Mul):
            return all(self.is_nonzero(b) for b, _ in e.powers)
        return self.is_positive(e) or self.is_negative(e)

    def sign_of(self, e: Expr) -> Optional[int]:
        """+1, -1, or None when the sign is not derivable."""
        if self.is_positive(e):
            return 1
        if self.is_negative(e):
            return -1
        return None
