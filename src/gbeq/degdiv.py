"""Numeric construction of admissible (T, X0) pairs in the degenerate case.

When the diffusivity of a GBE_DIV member is quadratic in x,

    f = f2(t) x^2 + f1(t) x + f0(t),

maps with nonconstant T_t become admissible provided (T, X0) solve

    (ODE 1)   4 T_t T_tt f2 + 2 T_t T_ttt - 3 T_tt^2 = 0
    (ODE 2)   (kappa/2) |T_t|^(1/2) T_tt f1 + T_t X0_tt - T_tt X0_t = 0

(the x-linear and x-free parts of the classifying residual).  Both have
quadrature solutions:

    T_t = sigma (C2 I2 + C1)^(-2),   I2 = int exp(-2 int f2),
    X0  = -(kappa/2) int T_t int (|T_t|^(1/2) T_tt / T_t^2) f1 + C3 T + C4.

This module realises those quadratures with Chebyshev series on a
finite t-interval, interpolated at the degree + 1 second-kind
Chebyshev points, and reports ODE residuals through plain central
finite differences on a uniform grid, so the check does not reuse the
spectral derivatives that built the solution.

f1 and f2 are sampled at the interpolation points, which finds a point
where either is undefined only when it is one of them.  A coefficient
rational in t is also checked exactly: for each base under a negative
exponent, as written, the real zeros of its cleared numerator, a
polynomial in t whose coefficients collect reads off, are counted on
the span with a Sturm sequence over Fractions, so a pole between nodes
is found too, even one that clearing would cancel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Tuple

import numpy as np
from numpy.polynomial import chebyshev as C
from numpy.polynomial import polyutils as pu

from .expr import (
    Add,
    EvalError,
    Expr,
    Evaluator,
    Mul,
    Rat,
    Var,
    ZERO,
    as_expr,
    collect,
    contains_var,
    format_expr,
    ratio_normal,
    var,
    walk,
)
from .report import VerificationReport

__all__ = [
    "DegDivSolution", "DegDivQuadrature", "DegDivError", "MIN_POINTS",
    "solve_deg_div",
]

class DegDivError(Exception):
    """Raised for bad parameters or a quadrature that degenerates."""


def _central_weights(half_width: int, order: int) -> np.ndarray:
    """Finite-difference weights on offsets -half_width..half_width.

    Solved from the moment conditions sum w_k k^m = m! [m == order],
    which pins the stencil to its maximal order of accuracy.
    """
    offsets = np.arange(-half_width, half_width + 1, dtype=float)
    moments = np.vander(offsets, increasing=True).T
    rhs = np.zeros(len(offsets))
    rhs[order] = float(math.factorial(order))
    return np.linalg.solve(moments, rhs)


# 9-point central stencils, O(h^6)
_D1 = _central_weights(4, 1)
_D2 = _central_weights(4, 2)
_D3 = _central_weights(4, 3)
_MARGIN = 4
# the fewest grid points a residual check can use: one interior point
MIN_POINTS = 2 * _MARGIN + 1


def _fd(values: np.ndarray, h: float, weights: np.ndarray, order: int) -> np.ndarray:
    """Apply a central stencil along the interior of a uniform grid."""
    out = np.convolve(values, weights[::-1], mode="valid") / h**order
    return out


def _eval_coefficient(name: str, e: Expr, ts: np.ndarray) -> np.ndarray:
    """The coefficient e, called name in messages, on ts.

    Raises EvalError, naming the coefficient, at the first point where
    it is undefined or not a finite float.
    """
    ev = Evaluator()
    out = np.empty(len(ts))
    for i, tv in enumerate(ts):
        try:
            out[i] = ev(e, {"t": float(tv)})
        except (ArithmeticError, ValueError, EvalError) as exc:
            raise EvalError(
                f"{name} = {format_expr(e)} is undefined at t = {float(tv)!r}: {exc}"
            ) from None
        if not math.isfinite(out[i]):
            raise EvalError(
                f"{name} = {format_expr(e)} is not finite at t = {float(tv)!r}"
            )
    return out


def _check_poles(name: str, e: Expr, t_lo: float, t_hi: float) -> None:
    """Raise EvalError when e, rational in t, has a pole on [t_lo, t_hi].

    e is undefined wherever a base under a negative exponent vanishes,
    so e is walked as written: each such base's cleared numerator is a
    polynomial in t, whose coefficients collect reads off, and its real
    zeros on the span are counted exactly.  (ratio_normal(e)'s own
    denominator would lose an inner denominator that clearing cancels,
    as in 1/(1 + 1/(t - 1/2)).)
    A coefficient with any node other than a rational, t, a sum or a
    product with integer exponents is left to the sampled nodes, and
    one with no negative exponent has no pole.
    """
    bases: List[Expr] = []
    for n in walk(e):
        if isinstance(n, Mul):
            if any(k.__class__ is not int for _, k in n.powers):
                return
            bases.extend(b for b, k in n.powers if k < 0)
        elif not (isinstance(n, (Rat, Add)) or isinstance(n, Var) and n.name == "t"):
            return
    for base in bases:
        num, _ = ratio_normal(base)
        coeffs = collect(num, var("t"))
        p = [coeffs.get(k, ZERO).value for k in range(max(coeffs) + 1)]
        zero = _zero_on(p, Fraction(t_lo), Fraction(t_hi))
        if zero is not None:
            raise EvalError(
                f"{name} = {format_expr(e)} is undefined at t = {float(zero)!r}: "
                f"its denominator factor {format_expr(num)} vanishes there"
            )


def _value(p: List[Fraction], tv: Fraction) -> Fraction:
    v = Fraction(0)
    for c in reversed(p):
        v = v * tv + c
    return v


def _remainder(a: List[Fraction], b: List[Fraction]) -> List[Fraction]:
    a = list(a)
    while len(a) >= len(b):
        q = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= q * c
        a.pop()
        while a and not a[-1]:
            a.pop()
    return a


def _zero_on(p: List[Fraction], lo: Fraction, hi: Fraction) -> Optional[Fraction]:
    """A real zero of p in [lo, hi], to within 2^-64 of the span, or None.

    The number of distinct zeros in (a, b), for a and b not zeros
    themselves, is the drop in sign changes along the Sturm sequence
    of p from a to b; bisection keeps a half that holds one.
    """
    if len(p) < 2:
        return None
    seq = [p, [c * i for i, c in enumerate(p)][1:]]
    while True:
        r = _remainder(seq[-2], seq[-1])
        if not r:
            break
        seq.append([-c for c in r])

    def changes(tv: Fraction) -> int:
        signs = [v > 0 for v in (_value(q, tv) for q in seq) if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    for end in (lo, hi):
        if not _value(p, end):
            return end
    if changes(lo) == changes(hi):
        return None
    for _ in range(64):
        mid = (lo + hi) / 2
        if not _value(p, mid):
            return mid
        if changes(lo) > changes(mid):
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def _nodes(t_lo: float, t_hi: float, degree: int) -> np.ndarray:
    """The degree + 1 second-kind Chebyshev points of [t_lo, t_hi], ascending.

    The ends are set to t_lo and t_hi exactly, so a coefficient
    undefined at an end is reported there.
    """
    ts = pu.mapdomain(C.chebpts2(degree + 1), (-1.0, 1.0), (t_lo, t_hi))
    ts[0], ts[-1] = t_lo, t_hi
    return ts


def _fit(values: np.ndarray, ts: np.ndarray) -> C.Chebyshev:
    """The Chebyshev interpolant of values on ts = _nodes(...).

    At x_j = cos(pi j / n) the coefficients are a discrete cosine
    transform, here the real FFT of the even extension, with the first
    and last halved.
    """
    n = len(ts) - 1
    v = values[::-1]
    coef = np.fft.rfft(np.concatenate([v, v[-2:0:-1]])).real / n
    coef[0] /= 2
    coef[-1] /= 2
    return C.Chebyshev(coef, domain=[ts[0], ts[-1]])


@dataclass(frozen=True)
class DegDivSolution:
    """Parameters of one quadrature solution of the degenerate-case ODEs.

    f1 and f2 are the x-linear and x-quadratic diffusivity
    coefficients (expressions in t alone); kappa is the x-scaling of
    the underlying transform; constants = (C0, C1, C2, C3, C4), where
    C0 shifts T, (C1, C2) select the T branch, and C3, C4 shift X0 by
    C3 T + C4; sigma is the sign of T_t.
    """

    f1: Expr
    f2: Expr
    kappa: Fraction = Fraction(1)
    constants: Tuple[float, float, float, float, float] = (0.0, 1.0, 1.0, 0.0, 0.0)
    sigma: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "f1", as_expr(self.f1))
        object.__setattr__(self, "f2", as_expr(self.f2))
        object.__setattr__(self, "kappa", Fraction(self.kappa))
        object.__setattr__(
            self, "constants", tuple(float(c) for c in self.constants)
        )
        for name in ("f1", "f2"):
            e = getattr(self, name)
            if contains_var(e, "x"):
                raise DegDivError(f"{name} must not involve x: {format_expr(e)}")
        if self.sigma not in (1, -1):
            raise DegDivError("sigma must be +1 or -1")
        if self.kappa == 0:
            raise DegDivError("kappa must be nonzero")
        if len(self.constants) != 5:
            raise DegDivError("constants must be (C0, C1, C2, C3, C4)")
        if self.constants[1] == 0 and self.constants[2] == 0:
            raise DegDivError("C1 and C2 must not both vanish")


@dataclass
class DegDivQuadrature:
    """A solved (T, X0) pair, with callables and a residual check."""

    solution: DegDivSolution
    t_lo: float
    t_hi: float
    T_series: C.Chebyshev = field(repr=False)
    X0_series: C.Chebyshev = field(repr=False)

    def T(self, tv: float) -> float:
        return float(self.T_series(tv))

    def X0(self, tv: float) -> float:
        return float(self.X0_series(tv))

    def grid(self, n: int = 201) -> np.ndarray:
        return np.linspace(self.t_lo, self.t_hi, n)

    def sample(self, n: int = 201) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(t, T, X0) on grid(n), each series evaluated in one call.

        chebval runs the same Clenshaw steps element by element, so the
        values equal T(tv) and X0(tv) bit for bit.
        """
        ts = self.grid(n)
        return ts, self.T_series(ts), self.X0_series(ts)

    def ode_residuals(self, n: int = 201) -> Tuple[float, float]:
        """Max abs residual of each ODE, via finite differences only.

        Derivatives of T and X0 are rebuilt from pointwise samples
        with central stencils; nothing is reused from the spectral
        construction except the sampled values themselves.
        """
        ts, Tv, Xv = self.sample(n)
        h = float(ts[1] - ts[0])
        T_t = _fd(Tv, h, _D1, 1)
        T_tt = _fd(Tv, h, _D2, 2)
        T_ttt = _fd(Tv, h, _D3, 3)
        X0_t = _fd(Xv, h, _D1, 1)
        X0_tt = _fd(Xv, h, _D2, 2)
        interior = ts[_MARGIN:-_MARGIN]
        f1v = _eval_coefficient("f1", self.solution.f1, interior)
        f2v = _eval_coefficient("f2", self.solution.f2, interior)
        r1 = 4.0 * T_t * T_tt * f2v + 2.0 * T_t * T_ttt - 3.0 * T_tt**2
        r2 = (
            0.5 * float(self.solution.kappa) * np.sqrt(np.abs(T_t)) * T_tt * f1v
            + T_t * X0_tt
            - T_tt * X0_t
        )
        return float(np.max(np.abs(r1))), float(np.max(np.abs(r2)))

    def report(self, tol: float = 1e-6, n: int = 201) -> VerificationReport:
        r1, r2 = self.ode_residuals(n)
        ok = r1 <= tol and r2 <= tol
        return VerificationReport(
            verdict="NUMERIC_ZERO" if ok else "NONZERO",
            residual_text=(
                "finite-difference residuals of the two classifying ODEs"
            ),
            tolerance=tol,
            seed=0,
            summary=(
                f"max |ODE1| = {r1:.3e}, max |ODE2| = {r2:.3e} "
                f"on [{self.t_lo}, {self.t_hi}] ({n} points)"
            ),
            samples=[({"ode": 1.0}, r1), ({"ode": 2.0}, r2)],
        )


def solve_deg_div(
    sol: DegDivSolution,
    t_span: Tuple[float, float] = (0.1, 1.0),
    degree: int = 64,
) -> DegDivQuadrature:
    """Build the (T, X0) pair sol describes, on t_span.

    All antiderivatives are anchored at the left endpoint, so the
    constants parametrise solutions relative to t_span[0].  Raises
    DegDivError when the T branch has a pole inside the interval or a
    sampled quantity overflows the float range, and EvalError when f1
    or f2 is undefined at a node or, rational in t, has a pole on
    the span.
    """
    C0, C1, C2, C3, C4 = sol.constants
    t_lo, t_hi = float(t_span[0]), float(t_span[1])
    if not t_hi > t_lo:
        raise DegDivError("t_span must be increasing")

    ts = _nodes(t_lo, t_hi, degree)
    f1_vals = _eval_coefficient("f1", sol.f1, ts)
    f2_vals = _eval_coefficient("f2", sol.f2, ts)
    _check_poles("f1", sol.f1, t_lo, t_hi)
    _check_poles("f2", sol.f2, t_lo, t_hi)
    span = f"[{t_lo}, {t_hi}]"

    def finite(what: str, values: np.ndarray) -> np.ndarray:
        if not np.isfinite(values).all():
            raise DegDivError(f"{what} overflows on the span {span}")
        return values

    # overflow shows as a non-finite sample, checked after each step
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # T_t = sigma (C2 I2 + C1)^(-2), I2 = int exp(-2 int f2)
        f2_fit = _fit(f2_vals, ts)
        I1 = f2_fit.integ(lbnd=t_lo)
        E = _fit(finite("exp(-2 int f2)", np.exp(-2.0 * I1(ts))), ts)
        I2 = E.integ(lbnd=t_lo)
        denom = finite("C2 int exp(-2 int f2) + C1", C2 * I2(ts) + C1)
        crosses = float(np.min(denom)) < 0.0 < float(np.max(denom))
        if crosses or np.min(np.abs(denom)) < 1e-9:
            raise DegDivError(
                "C2 int exp(-2 int f2) + C1 vanishes inside t_span; "
                "the T branch has a pole here"
            )
        T_t_vals = finite("T_t", float(sol.sigma) * denom**-2)
        T_t_fit = _fit(T_t_vals, ts)
        T_fit = T_t_fit.integ(lbnd=t_lo) + C0

        # X0 = -(kappa/2) int T_t int (|T_t|^(1/2) T_tt / T_t^2) f1 + C3 T + C4
        T_tt_vals = finite("T_tt", T_t_fit.deriv()(ts))
        J = finite(
            "|T_t|^(1/2) T_tt f1 / T_t^2",
            np.sqrt(np.abs(T_t_vals)) * T_tt_vals / T_t_vals**2 * f1_vals,
        )
        I_inner = _fit(J, ts).integ(lbnd=t_lo)
        outer = finite("T_t int (|T_t|^(1/2) T_tt f1 / T_t^2)", T_t_vals * I_inner(ts))
        K = _fit(outer, ts)
        X0_fit = -0.5 * float(sol.kappa) * K.integ(lbnd=t_lo) + C3 * T_fit + C4

    return DegDivQuadrature(
        solution=sol,
        t_lo=t_lo,
        t_hi=t_hi,
        T_series=T_fit,
        X0_series=X0_fit,
    )
