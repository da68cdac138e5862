"""Shared fixtures: seeded draws of transforms and instances, random
expression trees, and the acceptance-criteria reporter.

Tests marked @pytest.mark.acceptance(num=..., title=...) feed one
PASS/FAIL line each into a summary section printed after the run, so
the acceptance status is readable without scanning the full log.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import settings

from gbeq.classes import ClassId, EquationInstance, build_pde, class_context
from gbeq.expr import (
    Add,
    App,
    Expr,
    Int,
    ONE,
    Pow,
    ZERO,
    add,
    app,
    differentiate,
    div,
    exp,
    func,
    integral,
    ln,
    mul,
    pow_,
    rat,
    simplify,
    substitute,
    var,
)
from gbeq.transforms import (
    DivTransform,
    GaugedTransform,
    GeneralTransform,
    LinearTransform,
    LinzTransform,
    ProjectiveTuple,
    ReducedTransform,
    Transform,
)

settings.register_profile(
    "suite", deadline=None, max_examples=50, derandomize=True
)
settings.load_profile("suite")


# ---------------------------------------------------------------------------
# acceptance reporter

_ACCEPTANCE: Dict[int, Dict] = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "acceptance(num, title): one acceptance criterion; reported as a "
        "single PASS/FAIL line in the terminal summary",
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    if rep.when != "call":
        return
    marker = item.get_closest_marker("acceptance")
    if marker is None:
        return
    _ACCEPTANCE[marker.kwargs["num"]] = {
        "title": marker.kwargs["title"],
        "passed": rep.passed,
        "detail": getattr(item, "_acceptance_detail", ""),
    }


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_ACCEPTANCE):
        entry = _ACCEPTANCE[num]
        word = "PASS" if entry["passed"] else "FAIL"
        line = f"{word}  {num}. {entry['title']}"
        if entry["detail"]:
            line += f"  [{entry['detail']}]"
        terminalreporter.write_line(line)


@pytest.fixture
def acceptance_detail(request):
    """Attach a short measurement string to the criterion's summary line."""

    def set_detail(text: str) -> None:
        request.node._acceptance_detail = text

    return set_detail


# ---------------------------------------------------------------------------
# seeded draws
#
# The pools are deliberately small: coefficients stay simple rationals
# so canonical forms remain readable and the law suites run fast.  The
# shapes respect each family's closure requirements (T invertible in
# closed form, X affine in x, radicals over literal rationals).

_NONZERO = tuple(Fraction(n) for n in (-3, -2, -1, 1, 2, 3)) + (
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(3, 2),
)
_ANY = _NONZERO + (Fraction(0), Fraction(0), Fraction(0))
_POS_SLOPES = (
    Fraction(1),
    Fraction(4),
    Fraction(9),
    Fraction(1, 4),
    Fraction(2),
)


def frac(rng: random.Random, nonzero: bool = False) -> Fraction:
    return rng.choice(_NONZERO if nonzero else _ANY)


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
    """An invertible time reparametrisation: affine, sometimes Mobius."""
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
    return GeneralTransform(
        T=draw_T(rng, mobius=True), X=X, U1=_draw_u1(rng), U0=U0
    )


def draw_linz(rng: random.Random) -> LinzTransform:
    x = var("x")
    X = simplify(rat(frac(rng, nonzero=True)) * x + poly_t(rng))
    U0 = poly_tx(rng) if rng.random() < 0.7 else ZERO
    return LinzTransform(T=draw_T(rng, mobius=True), X=X, U0=U0)


def _draw_T_increasing(rng: random.Random) -> Expr:
    t = var("t")
    return simplify(rat(rng.choice(_POS_SLOPES)) * t + rat(frac(rng)))


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
    """Affine (T, X0), so the classifying constraint holds identically."""
    t = var("t")
    p = frac(rng, nonzero=True)
    return DivTransform(
        T=simplify(rat(p) * t + rat(frac(rng))),
        X0=simplify(rat(frac(rng)) * t + rat(frac(rng))),
        kappa=frac(rng, nonzero=True),
        sign_Tt=1 if p > 0 else -1,
    )


def draw_linear(rng: random.Random) -> LinearTransform:
    x = var("x")
    X = simplify(rat(frac(rng, nonzero=True)) * x + poly_t(rng))
    return LinearTransform(
        T=draw_T(rng, mobius=True), X=X, V1=_draw_u1(rng), V0=ZERO
    )


DRAWERS = {
    "GENERAL": draw_general,
    "LINZ": draw_linz,
    "GAUGED": draw_gauged,
    "REDUCED": draw_reduced,
    "PROJECTIVE": draw_projective,
    "DIV": draw_div,
    "LINEAR": draw_linear,
}

GROUPOID_FAMILIES = ("GENERAL", "LINZ", "GAUGED", "REDUCED", "PROJECTIVE", "DIV")

INSTANCE_CLASS = {
    "GENERAL": ClassId.SUPER,
    "LINZ": ClassId.LINZ_ABC,
    "GAUGED": ClassId.LINZ_BF,
    "REDUCED": ClassId.LINZ_F,
    "PROJECTIVE": ClassId.GBE_TX,
    "DIV": ClassId.GBE_DIV,
    "LINEAR": ClassId.LINEAR,
}


def draw_transform(family: str, rng: random.Random) -> Transform:
    return DRAWERS[family](rng)


def _nonvanishing(rng: random.Random) -> Expr:
    x = var("x")
    if rng.random() < 0.3:
        return simplify(rat(frac(rng, nonzero=True)) * (ONE + x * x))
    return rat(frac(rng, nonzero=True))


def draw_instance(cid: ClassId, rng: random.Random) -> EquationInstance:
    if cid == ClassId.BURGERS:
        return EquationInstance(cid, {})
    if cid == ClassId.SUPER:
        return EquationInstance(
            cid,
            {"F": _nonvanishing(rng), "H1": poly_tx(rng), "H0": poly_tx(rng)},
        )
    if cid == ClassId.LINEAR:
        return EquationInstance(
            cid,
            {"a": _nonvanishing(rng), "b": poly_tx(rng), "c": poly_tx(rng)},
        )
    if cid == ClassId.LINZ_ABC:
        return EquationInstance(
            cid,
            {
                "a": rat(frac(rng, nonzero=True)),
                "b": poly_tx(rng),
                "f": poly_tx(rng),
            },
        )
    if cid == ClassId.LINZ_BF:
        return EquationInstance(cid, {"b": poly_tx(rng), "f": poly_tx(rng)})
    if cid == ClassId.LINZ_F:
        return EquationInstance(cid, {"f": poly_tx(rng)})
    if cid in (ClassId.GBE_TX, ClassId.GBE_T):
        return EquationInstance(cid, {"f": _nonvanishing(rng)})
    if cid in (ClassId.GBE_DIV, ClassId.GBE_DIV_NONDEG, ClassId.GBE_DIV_DEG):
        return EquationInstance(cid, {"f": _nonvanishing(rng)})
    raise ValueError(f"no draw rule for {cid}")


# ---------------------------------------------------------------------------
# random expression trees (engine-health checks)

_TREE_EXPONENTS = (Fraction(2), Fraction(3), Fraction(-1))


def random_tree(rng: random.Random, depth: int = 4) -> Expr:
    """A small expression over t and x: +, *, integer powers, exp.

    exp only takes shallow arguments so that numeric evaluation on
    moderate boxes stays in floating range.
    """
    if depth <= 0 or rng.random() < 0.25:
        kind = rng.random()
        if kind < 0.4:
            return var("x")
        if kind < 0.7:
            return var("t")
        return rat(frac(rng))
    op = rng.random()
    if op < 0.35:
        return random_tree(rng, depth - 1) + random_tree(rng, depth - 1)
    if op < 0.65:
        return random_tree(rng, depth - 1) * random_tree(rng, depth - 1)
    if op < 0.85:
        exponent = rng.choice(_TREE_EXPONENTS)
        base = random_tree(rng, depth - 1)
        if exponent < 0 and simplify(base) == ZERO:
            base = base + ONE
        return pow_(base, exponent)
    arg = rat(frac(rng, nonzero=True)) * rng.choice((var("t"), var("x")))
    return exp(simplify(arg + rat(frac(rng))))


def shared_tree(rng, steps=10):
    """A random tree whose operands are drawn from the nodes built so far.

    So subtrees are shared, and Ints, applied and unapplied Funcs, abs,
    sign and opaque Pows occur; the raw node classes keep the kinds the
    canonical constructors might fold away.
    """
    t, x = var("t"), var("x")
    pool = [
        t, x, var("y"), rat(Fraction(-3, 2)), func("f", ("t", "x")),
        func("g", ("t",), (1,)), func("k", ("u",)),
    ]
    pick = lambda: rng.choice(pool)
    makers = [
        lambda: add(pick(), pick()),
        lambda: mul(pick(), pick()),
        lambda: mul(2, pick(), pow_(pick(), 2)),
        lambda: pow_(pick(), 3),
        lambda: Pow(pick(), Fraction(1, 2)),
        lambda: App(rng.choice(("abs", "sign", "exp", "sin")), pick()),
        lambda: app("cos", pick()),
        lambda: Int(pick(), rng.choice(("t", "x", "w"))),
        lambda: func("h", ("t", "x"), None, (pick(), pick())),
        lambda: Add((pick(), pick(), pick())),
    ]
    for _ in range(steps):
        pool.append(rng.choice(makers)())
    return Add(tuple(pool[-3:]))


# ---------------------------------------------------------------------------
# expressions of the verification layer (evaluator and zero-test checks)


def residual_expr(inst: EquationInstance, candidate: Expr, ctx) -> Expr:
    """The residual verify.residual grades: candidate substituted into the PDE."""
    return simplify(
        substitute(build_pde(inst, ctx), {inst.dependent: candidate}, ctx), ctx
    )


def integral_identity_member(c: Fraction):
    """(LINZ_F member, its context): f = c (int g_x dx - g + g(t, 0)) vanishes.

    The zero test's antiderivative rule proves it; the normal form
    alone does not, since the integral is opaque.
    """
    ctx = class_context(ClassId.LINZ_F)
    ctx.add_function("g", ("t", "x"))
    g = ctx.fn("g")
    g_at0 = func("g", ("t", "x"), (0, 0), (var("t"), rat(0)))
    identity = integral(differentiate(g, "x", ctx), "x") - g + g_at0
    return EquationInstance(ClassId.LINZ_F, {"f": rat(c) * identity}), ctx


def verification_corpus() -> List[Tuple[str, Expr, object]]:
    """(label, expression, context) triples the verification layer works on.

    Acceptance 7's 1000 random trees; the residuals of the solution
    catalog on Burgers' equation, of non-solutions u + t^k and of
    (1 + x + t)^k, each with its normal form; the heat catalog and the
    Hopf-Cole solutions of it; and integral-identity members' residuals.
    """
    from gbeq.expr import normal_form
    from gbeq.hopfcole import burgers_catalog, heat_catalog
    from gbeq.symmetry import solution_catalog

    out: List[Tuple[str, Expr, object]] = []
    tx = class_context(ClassId.BURGERS)
    rng = random.Random(2026)
    out += [("tree", random_tree(rng), tx) for _ in range(1000)]
    burgers = EquationInstance(ClassId.BURGERS, {})
    t, x = var("t"), var("x")
    candidates = list(solution_catalog())
    candidates += [u + t for u in solution_catalog()]
    candidates += [u + rat(1, 2) * pow_(t, 2) for u in solution_catalog()]
    candidates += [pow_(ONE + x + t, k) for k in (2, 6)]
    candidates.append(exp(ln(rat(2)) - ln(x + rat(1))))
    for u in candidates:
        r = residual_expr(burgers, u, tx)
        out += [("residual", r, tx), ("normal form", normal_form(r, tx), tx)]
    lin = class_context(ClassId.LINEAR)
    out += [("heat", v, lin) for v in heat_catalog()]
    out += [("hopf-cole", u, lin) for _, u in burgers_catalog()]
    for c in (Fraction(1), Fraction(-3, 2)):
        inst, ctx = integral_identity_member(c)
        for u in solution_catalog()[:3]:
            r = residual_expr(inst, u, ctx)
            out += [("member", r, ctx), ("member normal form", normal_form(r, ctx), ctx)]
    return out
