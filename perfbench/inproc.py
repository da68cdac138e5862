"""The in-process workloads: sweep-heavy, sweep-light and verify-mix.

Each workload function returns the run's items and a fixed warm-up item.  An item
is a zero-argument callable returning an Outcome; its expected answer
is known by construction (a group law, a catalog solution, a seeded
perturbation that cannot solve the equation, ...), so a wrong verdict
is a failure of the program.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, List, Tuple

from gbeq.classes import ClassId, EquationInstance, class_context
from gbeq.degdiv import DegDivSolution, solve_deg_div
from gbeq.expr import (
    NONZERO,
    NUMERIC_ZERO,
    ONE,
    SYMBOLIC_ZERO,
    ZERO,
    differentiate,
    exp,
    func,
    integral,
    is_zero,
    ln,
    pow_,
    rat,
    substitute,
    var,
)
from gbeq.hopfcole import heat_catalog, verify_diagram
from gbeq.symmetry import flow, is_symmetry, solution_catalog
from gbeq.transforms import (
    ImplicitInverseOf,
    LinearTransform,
    apply_transform,
    compose,
    identity_div,
    identity_gauged,
    identity_general,
    identity_linz,
    identity_projective,
    identity_reduced,
    invert,
    transforms_equal,
)
from gbeq.verify import residual

import draws
from outcome import Item, Outcome

ZEROS = (SYMBOLIC_ZERO, NUMERIC_ZERO)

IDENTITIES = {
    "GENERAL": identity_general,
    "LINZ": identity_linz,
    "GAUGED": identity_gauged,
    "REDUCED": identity_reduced,
    "PROJECTIVE": identity_projective,
    "DIV": identity_div,
}

# Draws per family in one pass.  The heavy families' per-draw cost runs
# from 0.01 s to 6 s, so their pass is short in draws but long in time.
SWEEP_HEAVY = {"GENERAL": 10, "LINZ": 10, "PROJECTIVE": 10}
SWEEP_LIGHT = {"GAUGED": 130, "REDUCED": 130, "DIV": 130}


# ---------------------------------------------------------------------------
# groupoid sweep


def groupoid_laws(family: str, f, g, inst) -> Outcome:
    """Acceptance 1 on one draw: identities, associativity, inverse."""
    ctx = class_context(inst.class_id)
    ident = IDENTITIES[family]()
    failures = []
    if not transforms_equal(compose(f, ident), f, ctx):
        failures.append("right identity")
    if not transforms_equal(compose(ident, f), f, ctx):
        failures.append("left identity")
    r1 = apply_transform(compose(g, f), inst)
    step = apply_transform(f, inst)
    r2 = apply_transform(g, step.target)
    back = {"t": step.map.t, "x": step.map.x, inst.dependent: step.map.u}
    verdicts = []
    for name in sorted(r1.pullback):
        pulled = substitute(r2.pullback[name], back, ctx)
        z = is_zero(r1.pullback[name] - pulled, ctx)
        verdicts.append(z.verdict)
        if not z:
            failures.append(f"associativity {name}: {z.verdict}")
    finv = invert(f)
    if isinstance(finv, ImplicitInverseOf):
        failures.append("inverse is implicit")
    elif not transforms_equal(compose(finv, f), ident, ctx):
        failures.append("inverse")
    return Outcome(not failures, tuple(verdicts), "; ".join(failures))


def _sweep(counts, seed: int) -> Tuple[List[Item], Item]:
    """The first draws of each family's acceptance stream, seeded order.

    The streams start from the acceptance seeds, so every seed runs the
    same draws; the seed sets the order they run in.  A seed-drawn
    sample of these heavy-tailed costs would swing the run's throughput
    by more than any useful bound.
    """
    items = []
    for family, n in counts.items():
        rng = random.Random(draws.ACCEPTANCE_SEEDS[family])
        for i in range(n):
            f, g, inst = draws.draw_sweep(family, rng)
            items.append(
                Item(f"{family}#{i}", _bind(groupoid_laws, family, f, g, inst))
            )
    warmup = items[0]
    random.Random(seed).shuffle(items)
    return items, warmup


def sweep_heavy(seed: int) -> Tuple[List[Item], Item]:
    return _sweep(SWEEP_HEAVY, seed)


def sweep_light(seed: int) -> Tuple[List[Item], Item]:
    return _sweep(SWEEP_LIGHT, seed)


def _bind(fn: Callable[..., Outcome], *args) -> Callable[[], Outcome]:
    return lambda: fn(*args)


# ---------------------------------------------------------------------------
# verify-mix

BURGERS = EquationInstance(ClassId.BURGERS, {})
POWERS = (6, 8, 10, 12, 14, 16, 18, 20)
EPS = tuple(f for f in draws.NONZERO_FRACS if abs(f) <= 1)


def _expect(verdicts, rep) -> Outcome:
    ok = rep.verdict in verdicts
    return Outcome(ok, (rep.verdict,), "" if ok else f"got {rep.verdict}")


def _residual(inst, candidate, expected) -> Outcome:
    return _expect(expected, residual(inst, candidate))


def _diagram(tr, solutions) -> Outcome:
    rep = verify_diagram(tr, solutions=solutions)
    return Outcome(rep.ok, (rep.verdict,), "" if rep.ok else rep.summary)


def _symmetry(p) -> Outcome:
    rep = is_symmetry(p)
    return Outcome(rep.ok, (rep.verdict,), "" if rep.ok else rep.summary)


def _deg_div(sol: DegDivSolution) -> Outcome:
    r1, r2 = solve_deg_div(sol).ode_residuals()
    ok = r1 <= 1e-6 and r2 <= 1e-6
    return Outcome(
        ok, (NUMERIC_ZERO if ok else NONZERO,), "" if ok else f"ODE residuals {r1:.3g}, {r2:.3g}"
    )


def _opaque_member(c: Fraction) -> EquationInstance:
    """LINZ_F whose f is c times a vanishing integral identity in g.

    int_0^x g_x dx - g + g(t, 0) is zero for every g, but only the
    stand-in sampler can see it, since the integral atom is opaque.
    """
    ctx = class_context(ClassId.LINZ_F)
    ctx.add_function("g", ("t", "x"))
    g = ctx.fn("g")
    g_at0 = func("g", ("t", "x"), (0, 0), (var("t"), rat(0)))
    identity = integral(differentiate(g, "x", ctx), "x") - g + g_at0
    return EquationInstance(ClassId.LINZ_F, {"f": rat(c) * identity})


def _deg_div_draw(rng: random.Random) -> DegDivSolution:
    t = var("t")
    small = (Fraction(-1), Fraction(-1, 2), Fraction(1, 2), Fraction(1))
    f1 = rat(rng.choice(small)) + rat(rng.choice(small)) * t
    f2 = rat(rng.choice(small)) * pow_(t, rng.choice((0, 1, 2)))
    return DegDivSolution(
        f1,
        f2,
        kappa=rng.choice((Fraction(1), Fraction(2), Fraction(1, 2))),
        constants=(
            rng.choice((0, 1)),
            1,
            rng.choice((0, 0.25, 0.5)),
            rng.choice((-1, 0, 1)),
            rng.choice((-1, 0, 1)),
        ),
        sigma=rng.choice((1, -1)),
    )


def _bridge_maps() -> List[LinearTransform]:
    """Acceptance 3's lifted maps: V0 = 0, so each square must commute."""
    t, x = var("t"), var("x")
    return [
        LinearTransform(T=t, X=x, V1=ONE, V0=ZERO),
        LinearTransform(T=rat(4) * t, X=rat(2) * x + t, V1=exp(x / rat(2)), V0=ZERO),
        LinearTransform(T=t + rat(1), X=x + rat(1), V1=ONE, V0=ZERO),
        LinearTransform(T=t, X=x, V1=exp(x), V0=ZERO),
        LinearTransform(T=t / (rat(1) + t / rat(4)), X=x / (rat(1) + t / rat(4)), V1=ONE, V0=ZERO),
    ]


def verify_mix(seed: int) -> Tuple[List[Item], Item]:
    """One verification request per item; the kinds and counts are fixed.

    Every pass holds the same requests up to seeded data: translates of
    each catalog solution, perturbations that cannot solve the
    equation, opaque members, flow parameters and quadrature data.  The
    powers and the Hopf-Cole maps are fixed, since their cost spans
    0.01-3 s with the draw.  The seed also sets the order.
    """
    rng = random.Random(seed)
    t, x = var("t"), var("x")
    catalog = solution_catalog()
    items: List[Item] = []

    def add(label: str, fn, *args) -> None:
        items.append(Item(f"{label}#{len(items)}", _bind(fn, *args)))

    shifts = (0, Fraction(1, 2), 1, 2)
    for u in catalog * 3:
        # translates u(t + b, x + a) of a solution are solutions
        moved = substitute(u, {"x": x + rat(rng.choice(shifts)), "t": t + rat(rng.choice(shifts))})
        add("residual-zero", _residual, BURGERS, moved, ZEROS)
    for u in catalog * 3:
        # u + c t^k solves u_t + u u_x + u_xx = 0 only if u_x = -k/t
        c, k = rng.choice(draws.NONZERO_FRACS), rng.choice((1, 2))
        add("residual-nonzero", _residual, BURGERS, u + rat(c) * pow_(t, k), (NONZERO,))
    for k in POWERS:
        add("power", _residual, BURGERS, pow_(rat(1) + x + t, k), (NONZERO,))
    for _ in range(4):
        # exp(ln 2 - ln(x + a)) is the translated stationary solution 2/(x + a)
        a = rng.choice(shifts)
        add("opaque-app", _residual, BURGERS, exp(ln(rat(2)) - ln(x + rat(a))), ZEROS)
    for u in catalog:
        member = _opaque_member(rng.choice(draws.NONZERO_FRACS))
        add("opaque-member", _residual, member, u, ZEROS)
    heat = heat_catalog()
    for tr in _bridge_maps():
        add("diagram", _diagram, tr, heat)
    for idx in range(1, 6):
        add("symmetry", _symmetry, flow(idx, rng.choice(EPS)))
    for _ in range(6):
        add("deg-div", _deg_div, _deg_div_draw(rng))

    warmup = Item("warmup-deg-div", _bind(_deg_div, DegDivSolution(rat(0), rat(0))))
    random.Random(seed + 1).shuffle(items)
    return items, warmup


WORKLOAD_ITEMS = {
    "sweep-heavy": sweep_heavy,
    "sweep-light": sweep_light,
    "verify-mix": verify_mix,
}
