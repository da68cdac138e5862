"""Seeded draws of transforms and members for the groupoid sweeps.

The rules are a copy of the draw rules in tests/conftest.py, kept here
so that editing a test cannot shift a benchmark workload.  Every draw
consumes the random stream in the same order as the original, so with
the same seed both produce the same objects; test_draws.py checks that
their formatted forms agree.
"""

from __future__ import annotations

import random
from fractions import Fraction

from gbeq.classes import ClassId, EquationInstance
from gbeq.expr import ONE, ZERO, Expr, div, exp, rat, simplify, var
from gbeq.transforms import (
    DivTransform,
    GaugedTransform,
    GeneralTransform,
    LinzTransform,
    ProjectiveTuple,
    ReducedTransform,
)

NONZERO_FRACS = tuple(Fraction(n) for n in (-3, -2, -1, 1, 2, 3)) + (
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(3, 2),
)
_ANY = NONZERO_FRACS + (Fraction(0), Fraction(0), Fraction(0))
POS_SLOPES = (Fraction(1), Fraction(4), Fraction(9), Fraction(1, 4), Fraction(2))

# The seeds acceptance criterion 1 draws each family's stream from.
ACCEPTANCE_SEEDS = {
    "GENERAL": 100,
    "GAUGED": 101,
    "REDUCED": 102,
    "PROJECTIVE": 103,
    "LINZ": 104,
    "DIV": 105,
}


def frac(rng: random.Random, nonzero: bool = False) -> Fraction:
    return rng.choice(NONZERO_FRACS if nonzero else _ANY)


def poly_t(rng: random.Random, max_deg: int = 2) -> Expr:
    t = var("t")
    monomials = [ONE, t] + ([t * t] if max_deg >= 2 else [])
    acc = ZERO
    for m in rng.sample(monomials, rng.randint(1, 2)):
        acc = acc + rat(frac(rng, nonzero=True)) * m
    return simplify(acc)


def poly_tx(rng: random.Random) -> Expr:
    t, x = var("t"), var("x")
    monomials = [ONE, t, x, t * x, x * x, t * t]
    acc = ZERO
    for m in rng.sample(monomials, rng.randint(1, 2)):
        acc = acc + rat(frac(rng, nonzero=True)) * m
    return simplify(acc)


def draw_T(rng: random.Random, mobius: bool = False) -> Expr:
    t = var("t")
    p, q = frac(rng, nonzero=True), frac(rng)
    if mobius and rng.random() < 0.25:
        c = frac(rng, nonzero=True)
        if p != q * c:
            return simplify(div(rat(p) * t + rat(q), rat(c) * t + ONE))
    return simplify(rat(p) * t + rat(q))


def _draw_u1(rng: random.Random) -> Expr:
    c = rat(frac(rng, nonzero=True))
    if rng.random() < 0.25:
        t, x = var("t"), var("x")
        alpha = rat(rng.choice((-1, 1, 2)))
        beta = rat(rng.choice((-1, 1)))
        return simplify(c * exp(alpha * t + beta * x))
    return c


def draw_general(rng: random.Random) -> GeneralTransform:
    x = var("x")
    X = simplify(rat(frac(rng, nonzero=True)) * x + poly_t(rng))
    U0 = poly_tx(rng) if rng.random() < 0.7 else ZERO
    return GeneralTransform(T=draw_T(rng, mobius=True), X=X, U1=_draw_u1(rng), U0=U0)


def draw_linz(rng: random.Random) -> LinzTransform:
    x = var("x")
    X = simplify(rat(frac(rng, nonzero=True)) * x + poly_t(rng))
    U0 = poly_tx(rng) if rng.random() < 0.7 else ZERO
    return LinzTransform(T=draw_T(rng, mobius=True), X=X, U0=U0)


def _draw_T_increasing(rng: random.Random) -> Expr:
    t = var("t")
    return simplify(rat(rng.choice(POS_SLOPES)) * t + rat(frac(rng)))


def draw_gauged(rng: random.Random) -> GaugedTransform:
    return GaugedTransform(
        T=_draw_T_increasing(rng),
        X0=poly_t(rng),
        U0=poly_tx(rng) if rng.random() < 0.7 else ZERO,
        eps=Fraction(rng.choice((1, -1))),
    )


def draw_reduced(rng: random.Random) -> ReducedTransform:
    return ReducedTransform(
        T=_draw_T_increasing(rng),
        X0=poly_t(rng),
        eps=Fraction(rng.choice((1, -1))),
    )


def draw_projective(rng: random.Random) -> ProjectiveTuple:
    while True:
        a, b, g, d = (frac(rng) for _ in range(4))
        if a * d - b * g != 0:
            break
    return ProjectiveTuple(
        alpha=a, beta=b, gamma=g, delta=d,
        kappa=frac(rng, nonzero=True), mu0=frac(rng), mu1=frac(rng),
    )


def draw_div(rng: random.Random) -> DivTransform:
    t = var("t")
    p = frac(rng, nonzero=True)
    return DivTransform(
        T=simplify(rat(p) * t + rat(frac(rng))),
        X0=simplify(rat(frac(rng)) * t + rat(frac(rng))),
        kappa=frac(rng, nonzero=True),
        sign_Tt=1 if p > 0 else -1,
    )


DRAWERS = {
    "GENERAL": draw_general,
    "LINZ": draw_linz,
    "GAUGED": draw_gauged,
    "REDUCED": draw_reduced,
    "PROJECTIVE": draw_projective,
    "DIV": draw_div,
}

INSTANCE_CLASS = {
    "GENERAL": ClassId.SUPER,
    "LINZ": ClassId.LINZ_ABC,
    "GAUGED": ClassId.LINZ_BF,
    "REDUCED": ClassId.LINZ_F,
    "PROJECTIVE": ClassId.GBE_TX,
    "DIV": ClassId.GBE_DIV,
}


def _nonvanishing(rng: random.Random) -> Expr:
    x = var("x")
    if rng.random() < 0.3:
        return simplify(rat(frac(rng, nonzero=True)) * (ONE + x * x))
    return rat(frac(rng, nonzero=True))


def draw_instance(cid: ClassId, rng: random.Random) -> EquationInstance:
    if cid == ClassId.SUPER:
        return EquationInstance(
            cid, {"F": _nonvanishing(rng), "H1": poly_tx(rng), "H0": poly_tx(rng)}
        )
    if cid == ClassId.LINZ_ABC:
        return EquationInstance(
            cid,
            {"a": rat(frac(rng, nonzero=True)), "b": poly_tx(rng), "f": poly_tx(rng)},
        )
    if cid == ClassId.LINZ_BF:
        return EquationInstance(cid, {"b": poly_tx(rng), "f": poly_tx(rng)})
    if cid == ClassId.LINZ_F:
        return EquationInstance(cid, {"f": poly_tx(rng)})
    if cid in (ClassId.GBE_TX, ClassId.GBE_DIV):
        return EquationInstance(cid, {"f": _nonvanishing(rng)})
    raise ValueError(f"no draw rule for {cid}")


def draw_sweep(family: str, rng: random.Random):
    """One groupoid-law draw: transforms f and g, then the member."""
    f = DRAWERS[family](rng)
    g = DRAWERS[family](rng)
    return f, g, draw_instance(INSTANCE_CLASS[family], rng)

