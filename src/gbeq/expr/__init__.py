"""Exact symbolic expressions: nodes, parsing, calculus, zero tests."""

from .calculus import DifferentiationError, SubstitutionError, diff_n, differentiate, substitute
from .context import Context, ContextError, NEGATIVE, NONZERO as NONZERO_FLAG, POSITIVE
from .fmt import format_expr
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
    ZERO,
    add,
    app,
    as_expr,
    atoms_of,
    contains_func,
    contains_var,
    div,
    exp,
    func,
    integral,
    ln,
    mul,
    pow_,
    rat,
    sqrt,
    var,
    walk,
)
from .numeric import EvalError, Evaluator, evaluate
from .parse import ParseError, parse
from .simplify import (
    CollectError,
    expand,
    normal_form,
    normal_form_is_zero,
    ratio_normal,
    simplify,
    split,
)
from .zero import (
    NONZERO,
    NUMERIC_ZERO,
    SYMBOLIC_ZERO,
    SamplingError,
    ZeroResult,
    is_zero,
)

__all__ = [
    "Add", "App", "Context", "ContextError", "CollectError",
    "DifferentiationError", "EvalError", "Evaluator", "Expr", "ExprError",
    "Func", "Int", "MINUS_ONE", "Mul", "NEGATIVE", "NONZERO", "NONZERO_FLAG",
    "NUMERIC_ZERO", "ONE", "POSITIVE", "ParseError", "Pow", "Rat",
    "SamplingError", "SubstitutionError", "SYMBOLIC_ZERO", "Var", "ZERO",
    "ZeroResult", "add", "app", "as_expr", "atoms_of", "contains_func",
    "contains_var", "diff_n", "differentiate", "div", "evaluate", "exp",
    "expand", "format_expr", "func", "integral", "is_zero", "ln", "mul",
    "normal_form", "normal_form_is_zero", "parse", "pow_", "rat",
    "ratio_normal", "simplify", "split", "sqrt", "substitute", "var", "walk",
]
