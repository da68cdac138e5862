"""The five-dimensional symmetry algebra and its exponentiated flows."""

import itertools
from fractions import Fraction

import pytest

from gbeq.expr import (
    NUMERIC_ZERO,
    ONE,
    ZERO,
    ZeroResult,
    exp,
    format_expr,
    is_zero,
    ln,
    parse,
    rat,
    var,
)
from gbeq.symmetry import (
    SymmetryError,
    VectorField,
    bracket,
    burgers_algebra,
    flow,
    flow_generator,
    flow_generator_check,
    flow_maps,
    format_structure_table,
    is_symmetry,
    reflection,
    satisfies_group_constraint,
    solution_catalog,
    structure_constants,
)
from gbeq.transforms import (
    ProjectiveTuple,
    compose,
    identity_projective,
    transforms_equal,
)


FROZEN_BRACKETS = {
    (1, 2): {1: 2},
    (1, 3): {2: 1},
    (1, 4): {},
    (1, 5): {4: 1},
    (2, 3): {3: 2},
    (2, 4): {4: -1},
    (2, 5): {5: 1},
    (3, 4): {5: -1},
    (3, 5): {},
    (4, 5): {},
}


def test_structure_constants_close():
    tab = structure_constants()
    assert tab.n == 5
    assert tab.closed
    assert tab.failures == []
    for (i, j), want in FROZEN_BRACKETS.items():
        coeffs = tab.coefficients(i, j)
        got = {k + 1: c for k, c in enumerate(coeffs) if c != 0}
        assert got == {k: Fraction(v) for k, v in want.items()}, (i, j)


def test_structure_constants_reproduce_every_bracket():
    basis = burgers_algebra()
    tab = structure_constants(basis)
    for i, j in itertools.combinations(range(1, 6), 2):
        br = bracket(basis[i - 1], basis[j - 1])
        for k, comp in enumerate(br.components()):
            combo = sum(
                (rat(c) * e.components()[k] for c, e in zip(tab.coefficients(i, j), basis)),
                ZERO,
            )
            assert is_zero(combo - comp).verdict == "SYMBOLIC_ZERO", (i, j, k)


def test_dependent_basis_names_its_first_dependent_field():
    t, x = var("t"), var("x")
    basis = [
        VectorField(ONE, ZERO, ZERO),
        VectorField(ZERO, ONE, ZERO),
        VectorField(t, x, ZERO),
        VectorField(rat(2), rat(3), ZERO),
    ]
    with pytest.raises(SymmetryError, match=r"^basis field 4 is a combination"):
        structure_constants(basis)


def test_bracket_outside_the_span_is_a_failure():
    x = var("x")
    tab = structure_constants([VectorField(ZERO, ONE, ZERO), VectorField(ZERO, x * x, ZERO)])
    assert not tab.closed
    assert tab.constants == {}
    assert tab.failures == [(1, 2, "(2*x) d_x")]


def test_field_that_is_no_rational_polynomial_is_refused():
    t = var("t")
    for comp, message in ((exp(t), "t occurs inside exp"), (var("a") * t, "a is no rational")):
        with pytest.raises(SymmetryError, match=message):
            structure_constants([VectorField(ONE, ZERO, ZERO), VectorField(comp, ZERO, ZERO)])


def test_structure_table_formats():
    text = format_structure_table(structure_constants())
    assert "e1" in text and "e5" in text


def test_bracket_antisymmetry():
    fields = burgers_algebra()
    for v, w in itertools.combinations(fields, 2):
        vw = bracket(v, w)
        wv = bracket(w, v)
        for a, b in zip(vw.components(), wv.components()):
            assert is_zero(a + b).verdict == "SYMBOLIC_ZERO"


def test_jacobi_identity_all_triples():
    fields = burgers_algebra()
    triples = list(itertools.combinations(range(5), 3))
    assert len(triples) == 10
    for i, j, k in triples:
        v, w, z = fields[i], fields[j], fields[k]
        acc = [
            bracket(v, bracket(w, z)),
            bracket(w, bracket(z, v)),
            bracket(z, bracket(v, w)),
        ]
        for comps in zip(*(f.components() for f in acc)):
            total = comps[0] + comps[1] + comps[2]
            assert is_zero(total).verdict == "SYMBOLIC_ZERO", (i, j, k)


def test_flows_are_projective_tuples():
    for idx in range(1, 6):
        p = flow(idx, Fraction(37, 100))
        assert isinstance(p, ProjectiveTuple)
        assert satisfies_group_constraint(p)
    # eps = 0 recovers the identity for every flow
    for idx in range(1, 6):
        assert transforms_equal(flow(idx, 0), identity_projective())


def test_scaling_flow_frozen_values():
    p = flow(2, ln(rat(2)))
    assert p.alpha == rat(4)
    assert p.beta == ZERO
    assert p.gamma == ZERO
    assert p.delta == ONE
    assert p.kappa == rat(2)


def test_scaling_flow_by_a_multiple_of_a_logarithm_is_exact(monkeypatch):
    p = flow(2, 2 * ln(rat(2)))
    assert p.entries() == tuple(rat(v) for v in (16, 0, 0, 1, 4, 0, 0))
    # every minor is a Rat, so no identity goes to the zero test
    import gbeq.transforms

    def refuse(*args, **kwargs):
        raise AssertionError("is_zero called on an exact tuple")

    monkeypatch.setattr(gbeq.transforms, "is_zero", refuse)
    assert transforms_equal(p, ProjectiveTuple(16, 0, 0, 1, 4, 0, 0))


def test_scaling_flow_with_transcendental_entries_is_symbolic():
    p = flow(2, Fraction(1, 2))
    assert format_expr(p.alpha) == "exp(1)"
    assert format_expr(p.kappa) == "exp(1/2)"
    rep = is_symmetry(p)
    assert [c.verdict for c in rep.conditions] == ["SYMBOLIC_ZERO"] * 5
    assert rep.conditions[0].detail == "det = exp(1), kappa^2 = exp(1)"


def test_flow_one_parameter_group_law():
    a, b = Fraction(3, 10), Fraction(1, 2)
    for idx in range(1, 6):
        ab = compose(flow(idx, b), flow(idx, a))
        assert transforms_equal(ab, flow(idx, a + b)), idx
        assert not transforms_equal(ab, flow(idx, a)), idx


def test_float_entries_are_refused():
    with pytest.raises(TypeError):
        flow(2, 0.5)
    with pytest.raises(TypeError):
        ProjectiveTuple(1, 0, 0, 1, 1.0, 0, 0)


def test_flow_maps_symbolic():
    t_img, x_img, u_img = flow_maps(3, eps_name="s")
    assert "1 - s*t" in format_expr(t_img)
    assert "1 - s*t" in format_expr(x_img)
    # differentiating at s = 0 recovers the generator components
    gen = flow_generator(3)
    assert [format_expr(c) for c in gen.components()] == ["t^2", "t*x", "-t*u + x"]


def test_flow_generators_match_the_algebra():
    for idx in range(1, 6):
        rep = flow_generator_check(idx)
        assert rep.verdict == "SYMBOLIC_ZERO", idx


def test_flow_generator_check_keeps_numeric_evidence(monkeypatch):
    # a component that only passed by sampling must not be reported
    # as a symbolic proof of the whole generator
    import gbeq.symmetry

    real = gbeq.symmetry.is_zero
    calls = []

    def first_numeric(e, ctx=None, **kw):
        zr = real(e, ctx, **kw)
        calls.append(zr)
        if len(calls) == 1:
            return ZeroResult(NUMERIC_ZERO, zr.residual, zr.tolerance, zr.seed)
        return zr

    monkeypatch.setattr(gbeq.symmetry, "is_zero", first_numeric)
    rep = flow_generator_check(2)
    assert [c.verdict for c in rep.conditions] == [
        "NUMERIC_ZERO", "SYMBOLIC_ZERO", "SYMBOLIC_ZERO",
    ]
    assert rep.ok
    assert rep.verdict == "NUMERIC_ZERO"


def test_generator_components():
    gen = flow_generator(5)
    comps = [format_expr(c) for c in gen.components()]
    assert comps == ["0", "t", "1"]


def test_reflection_is_a_symmetry():
    rep = is_symmetry(reflection())
    assert rep.ok
    assert rep.verdict == "SYMBOLIC_ZERO"


def test_reflected_group_element():
    rep = is_symmetry(compose(reflection(), flow(2, ln(rat(2)))))
    assert rep.ok


def test_group_constraint_rejects_det_mismatch():
    bad = ProjectiveTuple(*map(Fraction, (1, 0, 0, 1, 2, 0, 0)))
    assert not satisfies_group_constraint(bad)
    rep = is_symmetry(bad)
    assert rep.verdict == "REJECTED_PRECONDITION"
    assert "group constraint" in rep.summary


def test_solution_catalog_entries_solve_burgers():
    from gbeq.classes import ClassId, EquationInstance
    from gbeq.verify import residual

    burgers = EquationInstance(ClassId.BURGERS, {})
    entries = solution_catalog()
    assert len(entries) >= 4
    for u in entries:
        assert residual(burgers, u).verdict == "SYMBOLIC_ZERO"


def test_vector_field_describe():
    fields = burgers_algebra()
    assert len(fields) == 5
    text = fields[2].describe()
    assert "t^2" in text
