"""Floating-point evaluation of expressions.

An expression is compiled once into a tape: a flat post-order list of
operations, one per distinct subtree, each computing its value from
values earlier on the tape.  Tapes are cached by expression, so every
Evaluator shares them, and a call only runs the tape at its point.

Function symbols evaluate through bindings, which map a symbol name to
a closed-form expression in its signature variables; derivative nodes
differentiate the binding symbolically before evaluating, so all
occurrences of a symbol stay consistent; a symbol at its own signature
variables may instead be given a value outright, as the zero test's jet
sampler does.  Int nodes integrate their body numerically from the
base point INT_BASE (see nodes.Int) with adaptive quadrature:
QUADPACK's QAGS as scipy.integrate.quad runs it, whose first 21-point
Gauss-Kronrod step is ported here so that integrands it settles never
import scipy.  A quadrature QAGS flags (divergent, not converged, or
spoiled by roundoff) raises EvalError, so the zero test skips that
point instead of grading its estimate.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from operator import itemgetter
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple

from .calculus import diff_n
from .nodes import (
    INT_BASE,
    MEMO_SIZE,
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


class EvalError(ExprError):
    """Raised when an expression cannot be evaluated at a point."""


class Evaluator:
    """Evaluates expressions at numeric points.

    Args:
        bindings: closed forms for function symbols, keyed by name.
            Each value is an expression in the symbol's signature
            variables.
        atom_values: values that Func nodes at their own signature
            variables take as they are, without a binding.

    Every Int node is integrated from INT_BASE, where nodes.Int is
    defined to vanish, so the value computed is the antiderivative the
    symbolic stages prove things about.

    A call runs the expression's tape once (see _compile), so every
    distinct subtree is evaluated once per point, in the order of a
    depth-first walk, and the first operation that fails raises.  A
    binding's derivative and an integrand run their own tapes at the
    points they move to.
    """

    def __init__(
        self,
        bindings: Optional[Mapping[str, Expr]] = None,
        atom_values: Optional[Mapping[Expr, float]] = None,
    ):
        self.bindings = dict(bindings) if bindings else {}
        self.atom_values = dict(atom_values) if atom_values else {}
        self._deriv_cache: Dict[Tuple[str, Tuple[int, ...]], _Tape] = {}

    def __call__(self, e: Expr, point: Mapping[str, float]) -> float:
        return self._run(_tape(e), point)

    def _run(self, tape: _Tape, point: Mapping[str, float]) -> float:
        vals: List[Any] = []
        push = vals.append
        for op in tape.code:
            push(op(vals, point, self))
        return vals[-1]

    def _derivative(self, e: Func) -> _Tape:
        """The tape of e's binding, differentiated as e's didx says."""
        binding = self.bindings.get(e.name)
        if binding is None:
            raise EvalError(f"no binding for function symbol {e.name}")
        key = (e.name, e.didx)
        tape = self._deriv_cache.get(key)
        if tape is None:
            deriv = binding
            for argname, count in zip(e.argnames, e.didx):
                deriv = diff_n(deriv, argname, count)
            tape = self._deriv_cache[key] = _tape(deriv)
        return tape

    def _eval_func(self, e: Func, point: Mapping[str, float]) -> float:
        """e, a symbol at its own signature variables, through its binding."""
        tape = self._derivative(e)
        argvals = []
        for an in e.argnames:
            if an not in point:
                raise EvalError(f"no value for {an} applying {e.name}")
            argvals.append(point[an])
        return self._run(tape, dict(zip(e.argnames, argvals)))

    def _eval_int(self, e: Int, point: Mapping[str, float]) -> float:
        if e.var not in point:
            raise EvalError(f"no value for integration variable {e.var}")
        upper = point[e.var]
        body = _tape(e.body)

        def f(s: float) -> float:
            inner = dict(point)
            inner[e.var] = s
            return self._run(body, inner)

        value = _qags_first_step(f, INT_BASE, upper, _QUAD_TOL, _QUAD_TOL)
        if value is None:
            from scipy.integrate import quad

            # QAGS returns a message beside its estimate exactly when it
            # flags the integral (ier > 0): divergent, not converged, or
            # spoiled by roundoff.  Such a value is not a sample.
            value, _, _, *message = quad(
                f, INT_BASE, upper, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL,
                limit=_QAGS_LIMIT, full_output=1,
            )
            if message:
                reason = message[0].splitlines()[0].strip()
                raise EvalError(f"quadrature of {e.var} up to {upper:g} failed: {reason}")
        return value


# -- tapes ------------------------------------------------------------------

# an operation: (values so far, point, evaluator) -> its value
_Op = Callable[[List[Any], Mapping[str, float], Evaluator], Any]


class _Tape(NamedTuple):
    """An expression compiled for evaluation.

    code runs in order, op i appending value i.  keys[i] names what op
    i computes: a node; a (base, exponent) factor of a product; or
    ("binding", f), the binding check of an applied symbol f, whose
    value is the tape of f's binding.
    """

    code: Tuple[_Op, ...]
    keys: Tuple[object, ...]


_VISIT, _EMIT, _FACTOR = range(3)


def _compile(e: Expr) -> _Tape:
    """The tape of e.

    The order is that of a depth-first walk, children left to right,
    each distinct subtree (by equality) at its first occurrence: so the
    first operation that fails is the one a recursive evaluation would
    fail at.  A product computes each factor's power right after its
    base, before the next base; an applied symbol checks its binding
    before its arguments.  An Int's body is not on the tape: it runs
    its own at every quadrature node.
    """
    slot: Dict[object, int] = {}
    code: List[_Op] = []
    keys: List[object] = []

    def emit(key: object, op: _Op) -> None:
        slot[key] = len(code)
        code.append(op)
        keys.append(key)

    stack: List[Tuple[int, Any]] = [(_VISIT, e)]
    while stack:
        action, n = stack.pop()
        if action == _FACTOR:
            if n not in slot:
                emit(n, _pow_op(slot[n[0]], n[1]))
        elif action == _EMIT:
            emit(n, _node_op(n, slot))
        elif n in slot:
            continue
        elif isinstance(n, Func) and n.args is not None:
            emit(("binding", n), _binding_op(n))
            stack.append((_EMIT, n))
            stack.extend((_VISIT, a) for a in reversed(n.args))
        elif isinstance(n, Mul):
            stack.append((_EMIT, n))
            for b, ex in reversed(n.powers):
                if ex != 1:
                    stack.append((_FACTOR, (b, ex)))
                stack.append((_VISIT, b))
        elif isinstance(n, (Add, App, Pow)):
            stack.append((_EMIT, n))
            stack.extend((_VISIT, c) for c in reversed(n.children()))
        else:
            emit(n, _leaf_op(n))
    return _Tape(tuple(code), tuple(keys))


_tape = lru_cache(maxsize=MEMO_SIZE)(_compile)


def _leaf_op(n: Expr) -> _Op:
    if isinstance(n, Rat):
        value = _float(n.value)
        return lambda v, p, ev: value
    if isinstance(n, Var):
        name = n.name

        def var_op(v: List[Any], p: Mapping[str, float], ev: Evaluator) -> float:
            try:
                return p[name]
            except KeyError:
                raise EvalError(f"no value for variable {name}") from None

        return var_op
    if isinstance(n, Func):

        def func_op(v: List[Any], p: Mapping[str, float], ev: Evaluator) -> float:
            if ev.atom_values:
                value = ev.atom_values.get(n)
                if value is not None:
                    return value
            return ev._eval_func(n, p)

        return func_op
    if isinstance(n, Int):
        return lambda v, p, ev: ev._eval_int(n, p)
    return _failing_op(f"cannot evaluate {type(n).__name__}")


def _node_op(n: Expr, slot: Dict[object, int]) -> _Op:
    """The operation of an inner node, its operands already on the tape."""
    if isinstance(n, Add):
        terms = itemgetter(*[slot[t] for t in n.terms])
        # the builtin sum, not a loop of +: from 3.12 on the two round
        # differently
        return lambda v, p, ev: sum(terms(v))
    if isinstance(n, Mul):
        return _mul_op(
            _float(n.coeff), [slot[b] if ex == 1 else slot[(b, ex)] for b, ex in n.powers]
        )
    if isinstance(n, Pow):
        return _pow_op(slot[n.base], n.exponent)
    if isinstance(n, App):
        return _app_op(n.fn, slot[n.arg])
    # an applied symbol, after its binding check and its arguments
    binding = slot[("binding", n)]
    args = [slot[a] for a in n.args]
    names = n.argnames
    return lambda v, p, ev: ev._run(v[binding], dict(zip(names, [v[i] for i in args])))


def _mul_op(coeff: float, factors: List[int]) -> _Op:
    """coeff times the factor values, multiplied in one at a time."""

    def mul_op(v: List[Any], p: Mapping[str, float], ev: Evaluator) -> float:
        out = coeff
        for i in factors:
            out *= v[i]
        return out

    return mul_op


def _pow_op(i: int, exponent: RationalLike) -> _Op:
    return lambda v, p, ev: _float_pow(v[i], exponent)


def _app_op(fn: str, i: int) -> _Op:
    if fn == "exp":

        def exp_op(v: List[Any], p: Mapping[str, float], ev: Evaluator) -> float:
            x = v[i]
            if x > 700.0:
                raise EvalError("exp overflow")
            return math.exp(x)

        return exp_op
    if fn == "ln":

        def ln_op(v: List[Any], p: Mapping[str, float], ev: Evaluator) -> float:
            x = v[i]
            if x <= 0.0:
                raise EvalError("ln of a non-positive value")
            return math.log(x)

        return ln_op
    if fn == "abs":
        return lambda v, p, ev: abs(v[i])
    if fn == "sign":

        def sign_op(v: List[Any], p: Mapping[str, float], ev: Evaluator) -> float:
            x = v[i]
            if x == 0.0:
                raise EvalError("sign(0)")
            return 1.0 if x > 0.0 else -1.0

        return sign_op
    if fn == "sin":
        return lambda v, p, ev: math.sin(v[i])
    if fn == "cos":
        return lambda v, p, ev: math.cos(v[i])
    return _failing_op(f"cannot evaluate {fn}")


def _binding_op(n: Func) -> _Op:
    return lambda v, p, ev: ev._derivative(n)


def _failing_op(message: str) -> _Op:
    def fail(v: List[Any], p: Mapping[str, float], ev: Evaluator) -> float:
        raise EvalError(message)

    return fail


# QUADPACK (Piessens, de Doncker-Kapenga, Ueberhuber & Kahaner, 1983),
# dqk21's constants: the nonnegative 21-point Kronrod abscissae, whose
# entries 1, 3, ..., 9 are the 10-point Gauss abscissae, their Kronrod
# weights, and the Gauss weights.
_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
_EPMACH = sys.float_info.epsilon  # d1mach(4)
_UFLOW = sys.float_info.min  # d1mach(1)
_QAGS_LIMIT = 200
# the quadrature's absolute and relative tolerance
_QUAD_TOL = 1e-11


def _qk21(
    f: Callable[[float], float], a: float, b: float,
) -> Tuple[float, float, float, float]:
    """dqk21: (result, abserr, resabs, resasc) of the 21-point rule on [a, b].

    A line-by-line port: the same evaluation order of f and the same
    order of every sum, so the floats are those of the Fortran routine.
    """
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    fv1 = [0.0] * 10
    fv2 = [0.0] * 10
    resg = 0.0
    fc = f(centr)
    resk = _WGK[10] * fc
    resabs = abs(resk)
    for j in range(5):
        jtw = 2 * j + 1
        absc = hlgth * _XGK[jtw]
        fval1 = f(centr - absc)
        fval2 = f(centr + absc)
        fv1[jtw] = fval1
        fv2[jtw] = fval2
        fsum = fval1 + fval2
        resg = resg + _WG[j] * fsum
        resk = resk + _WGK[jtw] * fsum
        resabs = resabs + _WGK[jtw] * (abs(fval1) + abs(fval2))
    for j in range(5):
        jtwm1 = 2 * j
        absc = hlgth * _XGK[jtwm1]
        fval1 = f(centr - absc)
        fval2 = f(centr + absc)
        fv1[jtwm1] = fval1
        fv2[jtwm1] = fval2
        fsum = fval1 + fval2
        resk = resk + _WGK[jtwm1] * fsum
        resabs = resabs + _WGK[jtwm1] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _qags_first_step(
    f: Callable[[float], float], a: float, b: float, epsabs: float, epsrel: float,
) -> Optional[float]:
    """The value quad(f, a, b, ...) returns if QAGS stops after one step.

    Mirrors scipy's quad on finite limits (an empty interval is 0, the
    limits are swapped into order and the result negated) and dqagse's
    test after its first dqk21 call: the step is returned when dqagse
    would return it with ier == 0.  None means dqagse would bisect, or
    flag roundoff or bad tolerances, and the caller must run quad; so
    does a step with an infinite or NaN result or error estimate.
    """
    if a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return None
    if epsabs <= 0.0 and epsrel < max(50.0 * _EPMACH, 0.5e-28):
        return None
    flip = b < a
    if flip:
        a, b = b, a
    # dqagse calls dqk21's resabs and resasc defabs and resabs
    result, abserr, defabs, resabs = _qk21(f, a, b)
    if not (math.isfinite(result) and math.isfinite(abserr)):
        return None
    errbnd = max(epsabs, epsrel * abs(result))
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        return None
    if (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return -result if flip else result
    return None


def _float(q: RationalLike) -> float:
    """q as a float; past the float range, the infinity of q's sign."""
    try:
        return float(q)
    except OverflowError:
        return math.inf if q > 0 else -math.inf


def _float_pow(base: float, exponent: RationalLike) -> float:
    """base^exponent; past the float range, a signed infinity.

    An infinity is never small enough for a zero test to accept, so a
    point that overflows counts against the zero verdict.
    """
    if base == 0.0 and exponent < 0:
        raise EvalError("division by zero")
    if base < 0.0 and exponent.denominator % 2 == 0:
        raise EvalError(f"negative base {base} under even root")
    negative = base < 0.0 and exponent.numerator % 2 == 1
    try:
        if exponent.denominator == 1:
            return base ** int(exponent)
        mag = abs(base) ** float(exponent)
    except OverflowError:
        return -math.inf if negative else math.inf
    return -mag if negative else mag


def evaluate(
    e: Expr,
    point: Mapping[str, float],
    bindings: Optional[Mapping[str, Expr]] = None,
) -> float:
    """One-shot evaluation; see Evaluator for the conventions."""
    return Evaluator(bindings)(e, point)
