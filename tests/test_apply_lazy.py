"""apply_transform builds target, inverse and note only when one of them is read."""

import random

import pytest

from gbeq import transforms
from gbeq.classes import ClassId, EquationInstance, class_context
from gbeq.cli import EXIT_MATH, format_instance, main
from gbeq.expr import ZERO, format_expr, parse, rat
from gbeq.transforms import (
    IMPLICIT,
    GeneralTransform,
    TransformError,
    apply_transform,
    format_transform,
    identity_reduced,
)

from conftest import INSTANCE_CLASS, draw_instance, draw_transform

FAMILIES = ("GENERAL", "LINZ", "GAUGED", "REDUCED", "PROJECTIVE", "DIV")


@pytest.fixture
def inverse_calls(monkeypatch):
    """Count the calls of transforms.closed_inverse."""
    calls = []
    real = transforms.closed_inverse

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(transforms, "closed_inverse", counting)
    return calls


def _draw(family, seed):
    rng = random.Random(seed)
    tr = draw_transform(family, rng)
    return tr, draw_instance(INSTANCE_CLASS[family], rng)


def _printed(res):
    target = None
    if res.target is not None:
        target = {k: format_expr(v) for k, v in res.target.elements.items()}
    inverse = None if res.inverse is None else res.inverse.describe()
    return target, inverse, res.note


@pytest.mark.parametrize("family", FAMILIES)
def test_apply_alone_does_not_invert(family, inverse_calls):
    tr, inst = _draw(family, 3)
    res = apply_transform(tr, inst)
    assert res.pullback
    assert inverse_calls == []


@pytest.mark.parametrize("family", FAMILIES)
def test_target_inverse_and_note_share_one_step(family, inverse_calls):
    tr, inst = _draw(family, 5)
    res = apply_transform(tr, inst)
    target = res.target
    assert len(inverse_calls) == 1
    inverse, note = res.inverse, res.note
    assert res.target is target
    assert res.closed_form_target == (target is not None)
    assert (inverse is None) == (target is None)
    if target is None:
        assert note.startswith(f"{IMPLICIT}:")
    else:
        assert note == ""
    assert len(inverse_calls) == 1


@pytest.mark.parametrize("family", FAMILIES)
def test_mutating_pullback_or_source_leaves_the_target(family):
    tr, inst = _draw(family, 7)
    want = _printed(apply_transform(tr, inst))
    res = apply_transform(tr, inst)
    for name in res.pullback:
        res.pullback[name] = rat(12345)
    for name in inst.elements:
        inst.elements[name] = rat(-6789)
    assert _printed(res) == want


def test_non_mobius_time_map_has_no_closed_target(inverse_calls):
    cid = ClassId.SUPER
    ctx = class_context(cid)
    inst = EquationInstance(
        cid, {"F": rat(1), "H1": ZERO, "H0": parse("u^2", ctx)}
    )
    tr = GeneralTransform(
        T=parse("t^3 + t", ctx), X=parse("x", ctx), U1=rat(1), U0=ZERO
    )
    res = apply_transform(tr, inst)
    assert inverse_calls == []
    assert res.target is None
    assert res.inverse is None
    assert res.note.startswith(f"{IMPLICIT}:")
    assert not res.closed_form_target
    assert len(inverse_calls) == 1


def test_a_failing_step_raises_on_every_read(monkeypatch):
    def failing(*args):
        raise ZeroDivisionError("in the deferred step")

    tr, inst = _draw("REDUCED", 11)
    monkeypatch.setattr(transforms, "closed_inverse", failing)
    res = apply_transform(tr, inst)
    for _ in range(2):
        with pytest.raises(ZeroDivisionError, match="deferred step"):
            res.note


def test_cli_transform_reads_the_target_inside_its_rejection_guard(
    tmp_path, monkeypatch, capsys
):
    # a TransformError from the deferred step is a rejection, not a traceback
    def failing(*args):
        raise TransformError("deferred rejection")

    tr_file = tmp_path / "ident.tr"
    tr_file.write_text(format_transform(identity_reduced()))
    inst_file = tmp_path / "linz_f.gbeq"
    inst_file.write_text(
        format_instance(EquationInstance(ClassId.LINZ_F, {"f": ZERO}))
    )
    monkeypatch.setattr(transforms, "closed_inverse", failing)
    assert main(["transform", str(tr_file), str(inst_file)]) == EXIT_MATH
    err = capsys.readouterr().err
    assert "deferred rejection" in err
    assert "Traceback" not in err
