"""Floating-point evaluation of expressions.

Function symbols evaluate through bindings, which map a symbol name to
a closed-form expression in its signature variables; derivative nodes
differentiate the binding symbolically before evaluating, so all
occurrences of a symbol stay consistent.  Int nodes integrate their
body numerically from a fixed base point with adaptive quadrature:
QUADPACK's QAGS as scipy.integrate.quad runs it, whose first 21-point
Gauss-Kronrod step is ported here so that integrands it settles never
import scipy.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Callable, Dict, Mapping, Optional, Tuple

from .calculus import differentiate
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
)


class EvalError(ExprError):
    """Raised when an expression cannot be evaluated at a point."""


class Evaluator:
    """Evaluates expressions at numeric points.

    Args:
        bindings: closed forms for function symbols, keyed by name.
            Each value is an expression in the symbol's signature
            variables.
        base_point: lower limit used for Int nodes.
        quad_tol: tolerance of the quadrature, used as both its absolute
            and its relative tolerance.
    """

    def __init__(
        self,
        bindings: Optional[Mapping[str, Expr]] = None,
        base_point: float = 0.0,
        quad_tol: float = 1e-11,
        atom_values: Optional[Mapping[Expr, float]] = None,
    ):
        self.bindings = dict(bindings) if bindings else {}
        self.base_point = base_point
        self.quad_tol = quad_tol
        self.atom_values = dict(atom_values) if atom_values else {}
        self._deriv_cache: Dict[Tuple[str, Tuple[int, ...]], Expr] = {}

    def __call__(self, e: Expr, point: Mapping[str, float]) -> float:
        return self._eval(e, dict(point))

    def _eval(self, e: Expr, point: Dict[str, float]) -> float:
        if isinstance(e, Rat):
            return _float(e.value)
        if isinstance(e, Var):
            try:
                return point[e.name]
            except KeyError:
                raise EvalError(f"no value for variable {e.name}") from None
        if isinstance(e, Add):
            return sum(self._eval(t, point) for t in e.terms)
        if isinstance(e, Mul):
            out = _float(e.coeff)
            for b, ex in e.powers:
                out *= _float_pow(self._eval(b, point), ex)
            return out
        if isinstance(e, Pow):
            return _float_pow(self._eval(e.base, point), e.exponent)
        if isinstance(e, App):
            v = self._eval(e.arg, point)
            if e.fn == "exp":
                if v > 700.0:
                    raise EvalError("exp overflow")
                return math.exp(v)
            if e.fn == "ln":
                if v <= 0.0:
                    raise EvalError("ln of a non-positive value")
                return math.log(v)
            if e.fn == "abs":
                return abs(v)
            if e.fn == "sign":
                if v == 0.0:
                    raise EvalError("sign(0)")
                return 1.0 if v > 0.0 else -1.0
            if e.fn == "sin":
                return math.sin(v)
            if e.fn == "cos":
                return math.cos(v)
            raise EvalError(f"cannot evaluate {e.fn}")
        if isinstance(e, Func):
            if self.atom_values:
                v = self.atom_values.get(e)
                if v is not None:
                    return v
            return self._eval_func(e, point)
        if isinstance(e, Int):
            if self.atom_values:
                v = self.atom_values.get(e)
                if v is not None:
                    return v
            return self._eval_int(e, point)
        raise EvalError(f"cannot evaluate {type(e).__name__}")

    def _eval_func(self, e: Func, point: Dict[str, float]) -> float:
        binding = self.bindings.get(e.name)
        if binding is None:
            raise EvalError(f"no binding for function symbol {e.name}")
        key = (e.name, e.didx)
        deriv = self._deriv_cache.get(key)
        if deriv is None:
            deriv = binding
            for argname, count in zip(e.argnames, e.didx):
                for _ in range(count):
                    deriv = differentiate(deriv, argname)
            self._deriv_cache[key] = deriv
        if e.args is None:
            argvals = []
            for an in e.argnames:
                if an not in point:
                    raise EvalError(f"no value for {an} applying {e.name}")
                argvals.append(point[an])
        else:
            argvals = [self._eval(a, point) for a in e.args]
        return self._eval(deriv, dict(zip(e.argnames, argvals)))

    def _eval_int(self, e: Int, point: Dict[str, float]) -> float:
        if e.var not in point:
            raise EvalError(f"no value for integration variable {e.var}")
        upper = point[e.var]

        def f(s: float) -> float:
            inner = dict(point)
            inner[e.var] = s
            return self._eval(e.body, inner)

        value = _qags_first_step(f, self.base_point, upper, self.quad_tol, self.quad_tol)
        if value is None:
            from scipy.integrate import quad

            value, _ = quad(
                f, self.base_point, upper, epsabs=self.quad_tol, epsrel=self.quad_tol,
                limit=_QAGS_LIMIT,
            )
        return value


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


def _float(q: Fraction) -> float:
    """q as a float; past the float range, the infinity of q's sign."""
    try:
        return float(q)
    except OverflowError:
        return math.inf if q > 0 else -math.inf


def _float_pow(base: float, exponent: Fraction) -> float:
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
    base_point: float = 0.0,
) -> float:
    """One-shot evaluation; see Evaluator for the conventions."""
    return Evaluator(bindings, base_point)(e, point)
