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
spectral derivatives that built the solution.  The quadrature works on
coefficient arrays: a series' values at the interpolation points are
one real FFT of its coefficients, and its antiderivative is an O(n)
recurrence on them (Trefethen, Approximation Theory and Approximation
Practice, 2013).  numpy loads with the first computation, not with the
module, so DegDivSolution validates its parameters without it.

f1 and f2 are sampled at the interpolation points, which finds a point
where either is undefined only when it is one of them.  A coefficient
rational in t as written is sampled in one numpy pass, and is also
checked exactly: for each base under a negative exponent, as written,
the real zeros of its cleared numerator, a polynomial in t whose
coefficients split reads off, are counted on the span with a Sturm
sequence over Fractions, so a pole between nodes is found too, even
one that clearing would cancel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

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
    contains_var,
    format_expr,
    ratio_normal,
    split,
    var,
    walk,
)
from .report import VerificationReport

if TYPE_CHECKING:
    import numpy as np
    from numpy.polynomial import chebyshev as C

__all__ = [
    "DegDivSolution", "DegDivQuadrature", "DegDivError", "MIN_POINTS",
    "solve_deg_div",
]

class DegDivError(Exception):
    """Raised for bad parameters or a quadrature that degenerates."""


@lru_cache(maxsize=None)
def _central_weights(half_width: int, order: int) -> np.ndarray:
    """Finite-difference weights on offsets -half_width..half_width.

    Solved from the moment conditions sum w_k k^m = m! [m == order],
    which pins the stencil to its maximal order of accuracy.
    """
    import numpy as np

    offsets = np.arange(-half_width, half_width + 1, dtype=float)
    moments = np.vander(offsets, increasing=True).T
    rhs = np.zeros(len(offsets))
    rhs[order] = float(math.factorial(order))
    return np.linalg.solve(moments, rhs)


# the 9-point central stencils, O(h^6), reach _MARGIN points each way
_MARGIN = 4
# the fewest grid points a residual check can use: one interior point
MIN_POINTS = 2 * _MARGIN + 1


def _fd(values: np.ndarray, h: float, order: int) -> np.ndarray:
    """Apply the central stencil of order along the interior of a uniform grid."""
    import numpy as np

    weights = _central_weights(_MARGIN, order)
    return np.convolve(values, weights[::-1], mode="valid") / h**order


def _eval_coefficient(name: str, e: Expr, ts: np.ndarray) -> np.ndarray:
    """The coefficient e, called name in messages, on ts.

    A coefficient rational in t as written, the fragment _check_poles
    reads, is evaluated on all of ts in one numpy pass.  Any other
    coefficient, or one whose pass divides by zero, overflows or
    leaves the float range, runs the scalar tape point by point, so
    its values and its EvalError are the scalar tape's.
    """
    values = _rational_values(e, ts)
    return _pointwise(name, e, ts) if values is None else values


def _rational_values(e: Expr, ts: np.ndarray) -> Optional[np.ndarray]:
    """e on ts, one numpy operation per node, when e is rational in t.

    None when e has a node other than a rational, t, a sum or a product
    with integer exponents, or when a step raises a floating-point
    flag (underflow aside) or a value is not finite.  Each node computes
    as the scalar tape does, a product multiplying its factors into its
    coefficient in order, so the values agree with it to rounding.
    """
    import numpy as np

    vals: Dict[Expr, object] = {}
    stack = [e]
    with np.errstate(all="raise", under="ignore"):
        try:
            while stack:
                n = stack[-1]
                if n in vals:
                    stack.pop()
                    continue
                if not _rational_node(n):
                    return None
                pending = [c for c in n.children() if c not in vals]
                if pending:
                    stack.extend(pending)
                    continue
                stack.pop()
                if isinstance(n, Rat):
                    vals[n] = float(n.value)
                elif isinstance(n, Add):
                    vals[n] = sum([vals[t] for t in n.terms])
                elif isinstance(n, Mul):
                    v = float(n.coeff)
                    for b, k in n.powers:
                        v = v * (vals[b] if k == 1 else vals[b] ** k)
                    vals[n] = v
                else:
                    vals[n] = ts
        except ArithmeticError:
            return None
    out = np.empty(len(ts))
    out[:] = vals[e]
    return out if np.isfinite(out).all() else None


def _rational_node(n: Expr) -> bool:
    """Is n a rational, t, a sum, or a product with integer exponents?"""
    if isinstance(n, Mul):
        return all(k.__class__ is int for _, k in n.powers)
    return isinstance(n, (Rat, Add)) or isinstance(n, Var) and n.name == "t"


def _pointwise(name: str, e: Expr, ts: np.ndarray) -> np.ndarray:
    """e on ts, one run of the scalar tape per point.

    Raises EvalError, naming the coefficient, at the first point where
    e is undefined or not a finite float.
    """
    import numpy as np

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
    polynomial in t, whose coefficients split reads off, and its real
    zeros on the span are counted exactly.  (ratio_normal(e)'s own
    denominator would lose an inner denominator that clearing cancels,
    as in 1/(1 + 1/(t - 1/2)).)
    A coefficient with any node other than a rational, t, a sum or a
    product with integer exponents is left to the sampled nodes, and
    one with no negative exponent has no pole.
    """
    bases: List[Expr] = []
    for n in walk(e):
        if not _rational_node(n):
            return
        if isinstance(n, Mul):
            bases.extend(b for b, k in n.powers if k < 0)
    for base in bases:
        num, _ = ratio_normal(base)
        coeffs = split(num, (var("t"),))
        p = [coeffs.get((k,), ZERO).value for k in range(max(coeffs)[0] + 1)]
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
    from numpy.polynomial import chebyshev as C
    from numpy.polynomial import polyutils as pu

    ts = pu.mapdomain(C.chebpts2(degree + 1), (-1.0, 1.0), (t_lo, t_hi))
    ts[0], ts[-1] = t_lo, t_hi
    return ts


def _fit(values: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """The Chebyshev coefficients of the interpolant of values on ts = _nodes(...).

    At x_j = cos(pi j / n) the coefficients are a discrete cosine
    transform, here the real FFT of the even extension, with the first
    and last halved.
    """
    import numpy as np

    n = len(ts) - 1
    v = values[::-1]
    coef = np.fft.rfft(np.concatenate([v, v[-2:0:-1]])).real / n
    coef[0] /= 2
    coef[-1] /= 2
    return coef


def _node_values(coef: np.ndarray, degree: int) -> np.ndarray:
    """The series coef, at most 2 degree + 1 terms, at _nodes(..., degree).

    At x_j = cos(pi j / n), n = degree, T_k takes the value of T_(2n-k),
    so the coefficients past n fold back onto 0..n; the values are then
    the cosine transform _fit inverts, one inverse real FFT of length 2n,
    read in ascending order.
    """
    import numpy as np

    n = degree
    k = np.arange(len(coef))
    folded = np.bincount(np.minimum(k, 2 * n - k), weights=coef, minlength=n + 1)
    folded[0] *= 2
    folded[n] *= 2
    return n * np.fft.irfft(folded, 2 * n)[n::-1]


def _integral(coef: np.ndarray, half_width: float) -> np.ndarray:
    """The antiderivative of the series coef that vanishes at x = -1.

    From int T_0 = T_1, int T_1 = T_2 / 4 and, for k >= 2,
    int T_k = T_(k+1) / (2 (k+1)) - T_(k-1) / (2 (k-1)), the coefficient
    of T_k is b_k = (c_(k-1) - c_(k+1)) / (2k), c_0 doubled, times the
    half-width of the t-span; b_0 = -sum_(k>=1) (-1)^k b_k.
    """
    import numpy as np

    c = np.concatenate([coef, (0.0, 0.0)])
    below = c[:-2].copy()
    below[0] *= 2
    b = np.empty(len(c) - 1)
    b[1:] = (below - c[2:]) / (2 * np.arange(1, len(c) - 1)) * half_width
    b[0] = b[1::2].sum() - b[2::2].sum()
    return b


def _derivative(coef: np.ndarray, half_width: float) -> np.ndarray:
    """The derivative of the series coef, one coefficient shorter.

    The recurrence d_(k-1) = d_(k+1) + 2k c_k, d_0 halved, summed from
    the top as two cumulative sums, one per parity of k, over the
    half-width of the t-span.
    """
    import numpy as np

    w = 2.0 * np.arange(len(coef)) * coef
    for parity in (0, 1):
        w[parity::2] = np.cumsum(w[parity::2][::-1])[::-1]
    d = w[1:] / half_width
    d[0] /= 2
    return d


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
        import numpy as np

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
        import numpy as np

        ts, Tv, Xv = self.sample(n)
        h = float(ts[1] - ts[0])
        T_t = _fd(Tv, h, 1)
        T_tt = _fd(Tv, h, 2)
        T_ttt = _fd(Tv, h, 3)
        X0_t = _fd(Xv, h, 1)
        X0_tt = _fd(Xv, h, 2)
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
    import numpy as np
    from numpy.polynomial import chebyshev as C

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
    half = (t_hi - t_lo) / 2
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # T_t = sigma (C2 I2 + C1)^(-2), I2 = int exp(-2 int f2)
        I1 = _node_values(_integral(_fit(f2_vals, ts), half), degree)
        E = _fit(finite("exp(-2 int f2)", np.exp(-2.0 * I1)), ts)
        I2 = _node_values(_integral(E, half), degree)
        denom = finite("C2 int exp(-2 int f2) + C1", C2 * I2 + C1)
        crosses = float(np.min(denom)) < 0.0 < float(np.max(denom))
        if crosses or np.min(np.abs(denom)) < 1e-9:
            raise DegDivError(
                "C2 int exp(-2 int f2) + C1 vanishes inside t_span; "
                "the T branch has a pole here"
            )
        T_t_vals = finite("T_t", float(sol.sigma) * denom**-2)
        T_t_coef = _fit(T_t_vals, ts)
        T_coef = _integral(T_t_coef, half)
        T_coef[0] += C0

        # X0 = -(kappa/2) int T_t int (|T_t|^(1/2) T_tt / T_t^2) f1 + C3 T + C4
        T_tt_vals = finite("T_tt", _node_values(_derivative(T_t_coef, half), degree))
        J = finite(
            "|T_t|^(1/2) T_tt f1 / T_t^2",
            np.sqrt(np.abs(T_t_vals)) * T_tt_vals / T_t_vals**2 * f1_vals,
        )
        I_inner = _node_values(_integral(_fit(J, ts), half), degree)
        outer = finite("T_t int (|T_t|^(1/2) T_tt f1 / T_t^2)", T_t_vals * I_inner)
        X0_coef = -0.5 * float(sol.kappa) * _integral(_fit(outer, ts), half) + C3 * T_coef
        X0_coef[0] += C4

    return DegDivQuadrature(
        solution=sol,
        t_lo=t_lo,
        t_hi=t_hi,
        T_series=C.Chebyshev(T_coef, domain=[t_lo, t_hi]),
        X0_series=C.Chebyshev(X0_coef, domain=[t_lo, t_hi]),
    )
