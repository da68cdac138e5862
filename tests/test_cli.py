"""End-to-end command coverage through main(argv): artifacts, exit codes,
byte-stable reruns."""

import json
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import pytest

import gbeq
from gbeq.classes import ClassId, EquationInstance, class_context, format_instance
from gbeq.cli import EXIT_INPUT, EXIT_MATH, EXIT_PASS, main
from gbeq.expr import ZERO, format_expr, parse, rat
from gbeq.expr.parse import MAX_NESTING
from gbeq.hopfcole import heat_instance
from gbeq.transforms import (
    DivTransform,
    GaugedTransform,
    LinearTransform,
    LinzTransform,
    ReducedTransform,
    format_transform,
    identity_reduced,
)


def P(text, cid):
    return parse(text, class_context(cid))


@pytest.fixture
def corpus(tmp_path):
    """A small on-disk corpus of instances and transforms."""
    files = {}

    def put(name, text):
        p = tmp_path / name
        p.write_text(text)
        files[name] = p
        return p

    put("burgers.gbeq", format_instance(EquationInstance(ClassId.BURGERS, {})))
    put(
        "linz_f.gbeq",
        format_instance(EquationInstance(ClassId.LINZ_F, {"f": ZERO})),
    )
    put(
        "linz_abc.gbeq",
        format_instance(
            EquationInstance(
                ClassId.LINZ_ABC, {"a": rat(4), "b": ZERO, "f": ZERO}
            )
        ),
    )
    put("heat.gbeq", format_instance(heat_instance()))
    put(
        "nondeg.gbeq",
        format_instance(
            EquationInstance(
                ClassId.GBE_DIV_NONDEG,
                {"f": P("1 + x^3", ClassId.GBE_DIV_NONDEG)},
            )
        ),
    )
    put("ident_reduced.tr", format_transform(identity_reduced()))
    put(
        "reduced.tr",
        format_transform(
            ReducedTransform(
                T=P("4*t + 1", ClassId.LINZ_F), X0=P("t^2", ClassId.LINZ_F)
            )
        ),
    )
    put(
        "linz.tr",
        format_transform(
            LinzTransform(
                T=P("2*t", ClassId.LINZ_ABC),
                X=P("x + t", ClassId.LINZ_ABC),
                U0=ZERO,
            )
        ),
    )
    put(
        "gauged.tr",
        format_transform(
            GaugedTransform(
                T=P("t", ClassId.LINZ_BF), X0=P("t", ClassId.LINZ_BF), U0=ZERO
            )
        ),
    )
    put(
        "curved_div.tr",
        format_transform(
            DivTransform(
                T=P("t^2 + 1", ClassId.GBE_DIV_NONDEG), X0=ZERO
            )
        ),
    )
    put(
        "projective.tr",
        "family = PROJECTIVE\nparam.alpha = 1\nparam.beta = 0\n"
        "param.gamma = -1\nparam.delta = 1\nparam.kappa = 1\n"
        "param.mu0 = 0\nparam.mu1 = 0\n",
    )
    put(
        "linear_scale.tr",
        format_transform(
            LinearTransform(
                T=P("4*t", ClassId.LINEAR),
                X=P("2*x + t", ClassId.LINEAR),
                V1=P("exp(x/2)", ClassId.LINEAR),
                V0=ZERO,
            )
        ),
    )
    put(
        "linear_offset.tr",
        format_transform(
            LinearTransform(
                T=P("t", ClassId.LINEAR),
                X=P("x", ClassId.LINEAR),
                V1=rat(1),
                V0=P("x", ClassId.LINEAR),
            )
        ),
    )
    put(
        "linear_square.tr",
        format_transform(
            LinearTransform(
                T=P("t", ClassId.LINEAR),
                X=P("x", ClassId.LINEAR),
                V1=rat(1),
                V0=P("x^2", ClassId.LINEAR),
            )
        ),
    )
    put("expr.txt", "u_t + u*u_x + u_xx\n")
    put("bad_expr.txt", "t +* x\n")
    put("solution.txt", "2/x\n")
    return tmp_path, files


def test_parse_check_round_trips(corpus, capsys):
    tmp, files = corpus
    assert main(["parse-check", str(files["expr.txt"])]) == EXIT_PASS
    out = capsys.readouterr()
    assert out.out == "u*u_x + u_xx + u_t\n"
    assert "round-trips" in out.err


def test_parse_check_reports_position(corpus, capsys):
    tmp, files = corpus
    assert main(["parse-check", str(files["bad_expr.txt"])]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "column 4" in err


def test_missing_file_is_an_input_error(corpus, capsys):
    tmp, files = corpus
    assert main(["parse-check", str(tmp / "nope.txt")]) == EXIT_INPUT


def test_membership_verdict_exit_codes(corpus, tmp_path):
    tmp, files = corpus
    out = tmp_path / "rep.json"
    assert main(["membership", str(files["nondeg.gbeq"]), "--out", str(out)]) == EXIT_PASS
    rep = json.loads(out.read_text())
    assert rep["verdict"] == "MEMBER"

    quad = tmp_path / "quad.gbeq"
    quad.write_text("class = GBE_DIV_NONDEG\nelement.f = 1 + x^2\n")
    assert main(["membership", str(quad), "--out", str(out)]) == EXIT_MATH
    assert json.loads(out.read_text())["verdict"] == "REJECTED_PRECONDITION"


def test_identity_transform_reproduces_the_instance(corpus, tmp_path):
    tmp, files = corpus
    out = tmp_path / "target.gbeq"
    code = main([
        "transform", str(files["ident_reduced.tr"]), str(files["linz_f.gbeq"]),
        "--out", str(out),
    ])
    assert code == EXIT_PASS
    assert out.read_bytes() == files["linz_f.gbeq"].read_bytes()


def test_transform_writes_maps(corpus, tmp_path):
    tmp, files = corpus
    out = tmp_path / "target.gbeq"
    maps = tmp_path / "maps.json"
    code = main([
        "transform", str(files["reduced.tr"]), str(files["linz_f.gbeq"]),
        "--out", str(out), "--map-out", str(maps),
    ])
    assert code == EXIT_PASS
    lines = maps.read_text().splitlines()
    assert lines[0] == "t = 1 + 4*t"
    assert any(line.startswith("inverse.t = ") for line in lines)
    assert out.read_text().startswith("class = LINZ_F\n")


def test_inapplicable_transform_exits_math(corpus, tmp_path):
    tmp, files = corpus
    out = tmp_path / "rep.json"
    code = main([
        "transform", str(files["curved_div.tr"]), str(files["nondeg.gbeq"]),
        "--out", str(out),
    ])
    assert code == EXIT_MATH
    rep = json.loads(out.read_text())
    assert rep["verdict"] == "REJECTED_PRECONDITION"


def test_inverted_mobius_div_is_rejected(tmp_path, capsys):
    # the inverse's X0 holds a root of a rational radicand; the
    # constraint must decide it, not fail to differentiate it
    tr = tmp_path / "div.tr"
    tr.write_text(
        "family = DIV\nparam.T = 1/(t + 1)\nparam.X0 = 2*t + 1\n"
        "param.kappa = -2\nparam.sign_Tt = -1\n"
    )
    inst = tmp_path / "f.gbeq"
    inst.write_text("class = GBE_DIV\nelement.f = 1\n")
    inv = tmp_path / "inv.tr"
    assert main(["invert", str(tr), "--out", str(inv)]) == EXIT_PASS
    capsys.readouterr()
    assert main(["transform", str(inv), str(inst)]) == EXIT_MATH
    err = capsys.readouterr().err
    assert err.startswith("transform: REJECTED_PRECONDITION (classifying"), err
    assert err.count("\n") == 1, err
    # the long residual is cut between terms, never inside a parenthesis
    shown = err[err.index("(residual ") + len("(residual "):].rstrip("\n")
    assert shown.endswith(" …))"), err
    depth = 0
    for ch in shown[:-2]:
        depth += {"(": 1, ")": -1}.get(ch, 0)
        assert depth >= 0, err
    assert depth == 0, err


@pytest.mark.parametrize(
    "argv",
    [
        ["transform", "gauged.tr", "bf.gbeq"],
        ["transform", "reduced.tr", "f.gbeq"],
        ["transform", "div.tr", "div.gbeq"],
        ["transform", "linz.tr", "abc.gbeq"],
        ["transform", "general.tr", "abc.gbeq"],
        ["transform", "linear.tr", "linear.gbeq"],
        ["invert", "reduced.tr"],
        ["invert", "linz.tr"],
        ["invert", "general.tr"],
        ["invert", "linear.tr"],
        ["compose", "div.tr", "div.tr"],
        ["compose", "gauged.tr", "linz.tr"],
        ["compose", "general.tr", "general.tr"],
        ["compose", "linear.tr", "linear.tr"],
    ],
    ids=lambda argv: "-".join(argv),
)
def test_constant_T_is_an_input_error(tmp_path, capsys, argv):
    # a T with T_t = 0 maps every time to one, so no family can invert it
    files = {
        "gauged.tr": "family = GAUGED\nparam.T = 1\nparam.X0 = t\nparam.U0 = 0\n",
        "reduced.tr": "family = REDUCED\nparam.T = 1\nparam.X0 = t\nparam.eps = 1\n",
        "div.tr": "family = DIV\nparam.T = 1\nparam.X0 = t\n",
        "linz.tr": "family = LINZ\nparam.T = 1\nparam.X = x\nparam.U0 = 0\n",
        "general.tr": (
            "family = GENERAL\nparam.T = 1\nparam.X = x\nparam.U1 = 1\nparam.U0 = 0\n"
        ),
        "linear.tr": (
            "family = LINEAR\nparam.T = 1\nparam.X = x\nparam.V1 = 1\nparam.V0 = 0\n"
        ),
        "bf.gbeq": "class = LINZ_BF\nelement.b = 0\nelement.f = 0\n",
        "f.gbeq": "class = LINZ_F\nelement.f = 0\n",
        "div.gbeq": "class = GBE_DIV\nelement.f = 1\n",
        "abc.gbeq": "class = LINZ_ABC\nelement.a = 1\nelement.b = 0\nelement.f = 0\n",
        "linear.gbeq": "class = LINEAR\nelement.a = 1\nelement.b = 0\nelement.c = 0\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    paths = [str(tmp_path / a) if a in files else a for a in argv]
    assert main(paths) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err == (
        f"gbeq {argv[0]}: {paths[1]}: T = 1 does not depend on t, "
        "so the map of t has no inverse\n"
    )


_DIV_ID = "family = DIV\nparam.T = t\nparam.X0 = 0\n"


@pytest.mark.parametrize(
    "transform_text, member_text, message",
    [
        # blank and comment lines are skipped but still counted
        ("# a DIV map\n\n" + _DIV_ID + "param.T\n", None, "line 6: expected key = value"),
        ("family = DIV\nimplicit = yes\n", None, "line 2: implicit must be true or false"),
        ("family = DIV\nT = t\n", None, "line 2: unexpected key 'T'"),
        ("param.T = t\n", None, "missing `family = <TAG>` line"),
        (_DIV_ID + "param.Z = 1\n", None, "unknown parameters for DIV: ['Z']"),
        (
            _DIV_ID + "param.kappa = abc\n", None,
            "parameter kappa must be an exact number, got 'abc'",
        ),
        (
            _DIV_ID + "param.sign_Tt = abc\n", None,
            "parameter sign_Tt must be an exact number, got 'abc'",
        ),
        # a fractional sign is rejected, not truncated to +1 or -1
        (_DIV_ID + "param.sign_Tt = 3/2\n", None, "sign_Tt must be +1 or -1"),
        (_DIV_ID + "param.sign_Tt = -3/2\n", None, "sign_Tt must be +1 or -1"),
        ("family = DIV\nparam.T = t\n", None, "DIV needs parameters ['X0']"),
        (
            _DIV_ID, "# a GBE_DIV member\nclass = GBE_DIV\nf = 1\n",
            "line 3: unknown key 'f'",
        ),
    ],
    ids=[
        "comment-and-blank-lines", "implicit-flag", "unexpected-key",
        "missing-family", "unknown-parameter", "kappa-not-a-number",
        "sign-not-a-number", "sign-three-halves", "sign-minus-three-halves",
        "missing-parameter", "member-unknown-key",
    ],
)
def test_file_format_errors_exit_2_with_one_line(
    tmp_path, capsys, transform_text, member_text, message
):
    tr = tmp_path / "map.tr"
    tr.write_text(transform_text)
    if member_text is None:
        argv, bad = ["invert", str(tr), "--out", str(tmp_path / "inv.tr")], tr
    else:
        bad = tmp_path / "member.gbeq"
        bad.write_text(member_text)
        argv = ["transform", str(tr), str(bad)]
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().err == f"gbeq {argv[0]}: {bad}: {message}\n"


def test_gauge_on_vanishing_a_is_rejected(tmp_path, capsys):
    path = tmp_path / "a_zero.gbeq"
    path.write_text("class = LINZ_ABC\nelement.a = 0\nelement.b = 0\nelement.f = 0\n")
    out = tmp_path / "rep.json"
    assert main(["gauge", "a-to-one", str(path), "--out", str(out)]) == EXIT_MATH
    assert json.loads(out.read_text())["verdict"] == "REJECTED_PRECONDITION"
    assert json.loads(out.read_text())["residual_text"] == "a must not vanish"
    assert capsys.readouterr().err == "gauge a-to-one: REJECTED_PRECONDITION\n"


_ABS_FILES = {
    "id.tr": "family = DIV\nparam.T = t\nparam.X0 = 0\n",
    "div.gbeq": "class = GBE_DIV\nelement.f = 1 + abs(x)\n",
    "abc.gbeq": "class = LINZ_ABC\nelement.a = 1 + abs(x)\nelement.b = 0\nelement.f = 0\n",
}


@pytest.mark.parametrize(
    "argv, status",
    [
        (
            ["transport", "id.tr", "div.gbeq", "div.gbeq", "--solution", "0"],
            "transport: SYMBOLIC_ZERO",
        ),
        (["gauge", "a-to-one", "abc.gbeq"], "gauge a-to-one: SYMBOLIC_ZERO"),
    ],
    ids=["transport", "gauge"],
)
def test_assume_reaches_the_embedding(tmp_path, capsys, argv, status):
    # the derivative of abs(x) in the element needs x > 0
    for name, text in _ABS_FILES.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in _ABS_FILES else a for a in argv]
    assert main(argv + ["--assume", "x>0"]) == EXIT_PASS
    assert capsys.readouterr().err == status + "\n"
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "cannot differentiate abs(x) without a sign assumption" in err


def test_transform_takes_assume(tmp_path, capsys):
    # under x > 0 the DIV map differentiates abs(x) in f = 1 + abs(x)
    for name, text in _ABS_FILES.items():
        (tmp_path / name).write_text(text)
    out = tmp_path / "target.gbeq"
    argv = ["transform", str(tmp_path / "id.tr"), str(tmp_path / "div.gbeq"), "--out", str(out)]
    assert main(argv + ["--assume", "x>0"]) == EXIT_PASS
    assert out.read_text() == "class = GBE_DIV\nelement.f = 1 + x\n"
    assert capsys.readouterr().err == "transform: DIV applied to GBE_DIV\n"
    out.unlink()
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "cannot differentiate abs(x) without a sign assumption" in err
    assert not out.exists()


_ASSUME_FILES = {
    "id.tr": "family = DIV\nparam.T = t\nparam.X0 = 0\n",
    "div.gbeq": "class = GBE_DIV\nelement.f = 1 + x^2\n",
    "abc.gbeq": "class = LINZ_ABC\nelement.a = 4\nelement.b = 0\nelement.f = 0\n",
    "heat.gbeq": format_instance(heat_instance()),
}


@pytest.mark.parametrize(
    "argv",
    [
        ["membership", "div.gbeq"],
        ["transform", "id.tr", "div.gbeq"],
        ["gauge", "a-to-one", "abc.gbeq"],
        ["hopf-cole", "heat.gbeq", "--v", "1"],
        ["verify-solution", "div.gbeq", "--solution", "0"],
        ["transport", "id.tr", "div.gbeq", "div.gbeq", "--solution", "0"],
    ],
    ids=lambda argv: argv[0],
)
def test_assume_on_a_symbol_no_input_declares_is_an_input_error(tmp_path, capsys, argv):
    for name, text in _ASSUME_FILES.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in _ASSUME_FILES else a for a in argv]
    assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_PASS
    capsys.readouterr()
    assert main(argv + ["--assume", "zz>0"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "--assume 'zz>0'" in captured.err


def test_hopf_cole_keeps_an_assumption_on_the_linear_member(corpus, tmp_path):
    # c is LINEAR's symbol; the bridged LINZ_ABC member has none of that name
    tmp, files = corpus
    code = main([
        "hopf-cole", str(files["heat.gbeq"]), "--v", "1 + exp(x - t)",
        "--assume", "c>0", "--out", str(tmp_path / "rep.json"),
    ])
    assert code == EXIT_PASS
    assert json.loads((tmp_path / "rep.json").read_text())["verdict"] == "SYMBOLIC_ZERO"


def test_linear_offset_off_the_solutions_exits_math(corpus, tmp_path):
    tmp, files = corpus
    out = tmp_path / "rep.json"
    code = main([
        "transform", str(files["linear_square.tr"]), str(files["heat.gbeq"]),
        "--out", str(out),
    ])
    assert code == EXIT_MATH
    assert json.loads(out.read_text())["verdict"] == "REJECTED_PRECONDITION"


def test_compose_lifts_mixed_families(corpus, tmp_path):
    tmp, files = corpus
    out = tmp_path / "combo.tr"
    code = main([
        "compose", str(files["linz.tr"]), str(files["gauged.tr"]),
        "--out", str(out),
    ])
    assert code == EXIT_PASS
    assert out.read_text().startswith("family = GENERAL\n")


def test_compose_rejects_linear_with_linz(corpus, tmp_path):
    tmp, files = corpus
    code = main([
        "compose", str(files["linz.tr"]), str(files["linear_scale.tr"]),
        "--out", str(tmp_path / "x.tr"),
    ])
    assert code == EXIT_INPUT


def test_invert_emits_closed_or_implicit(corpus, tmp_path):
    tmp, files = corpus
    out = tmp_path / "inv.tr"
    assert main(["invert", str(files["linz.tr"]), "--out", str(out)]) == EXIT_PASS
    assert "implicit" not in out.read_text()

    cubic = tmp_path / "cubic.tr"
    cubic.write_text("family = LINZ\nparam.T = t\nparam.X = x + x^3\nparam.U0 = 0\n")
    assert main(["invert", str(cubic), "--out", str(out)]) == EXIT_PASS
    assert "implicit = true" in out.read_text()


def test_gauge_writes_narrowed_instance(corpus, tmp_path):
    tmp, files = corpus
    rep_path = tmp_path / "rep.json"
    tr_path = tmp_path / "gauge.tr"
    inst_path = tmp_path / "narrowed.gbeq"
    code = main([
        "gauge", "a-to-one", str(files["linz_abc.gbeq"]),
        "--out", str(rep_path), "--transform-out", str(tr_path),
        "--instance-out", str(inst_path),
    ])
    assert code == EXIT_PASS
    assert json.loads(rep_path.read_text())["verdict"] == "SYMBOLIC_ZERO"
    assert "family = LINZ" in tr_path.read_text()
    assert inst_path.read_text().startswith("class = LINZ_BF\n")


def test_linearize_bridges_to_linz_abc(corpus, tmp_path):
    tmp, files = corpus
    out = tmp_path / "bridge.gbeq"
    assert main(["linearize", str(files["heat.gbeq"]), "--out", str(out)]) == EXIT_PASS
    assert out.read_text().startswith("class = LINZ_ABC\n")


def test_hopf_cole_maps_solutions(corpus, tmp_path):
    tmp, files = corpus
    u_path = tmp_path / "u.txt"
    code = main([
        "hopf-cole", str(files["heat.gbeq"]), "--v", "1 + exp(x - t)",
        "--out", str(tmp_path / "rep.json"), "--u-out", str(u_path),
    ])
    assert code == EXIT_PASS
    assert u_path.read_text().strip() == "2*exp(-t + x)/(1 + exp(-t + x))"


def test_hopf_cole_transform_obstruction(corpus, tmp_path):
    tmp, files = corpus
    rep_path = tmp_path / "rep.json"
    code = main([
        "hopf-cole", str(files["heat.gbeq"]), "--v", "1 + exp(x - t)",
        "--transform", str(files["linear_offset.tr"]),
        "--out", str(rep_path),
    ])
    assert code == EXIT_MATH
    rep = json.loads(rep_path.read_text())
    assert rep["verdict"] == "OBSTRUCTION"


def test_hopf_cole_transform_bridge_commutes(corpus, tmp_path):
    tmp, files = corpus
    rep_path = tmp_path / "rep.json"
    code = main([
        "hopf-cole", str(files["heat.gbeq"]), "--v", "1 + exp(x - t)",
        "--transform", str(files["linear_scale.tr"]),
        "--out", str(rep_path),
    ])
    assert code == EXIT_PASS


def test_hopf_cole_applies_assumptions_before_the_bridge(corpus, tmp_path):
    # abs(x) has a derivative only under a sign of x, so the assumption
    # must reach the context u = 2 v_x / v is built in
    tmp, files = corpus
    u_path = tmp_path / "u.txt"
    code = main([
        "hopf-cole", str(files["heat.gbeq"]), "--v", "abs(x)", "--assume", "x>0",
        "--out", str(tmp_path / "rep.json"), "--u-out", str(u_path),
    ])
    assert code == EXIT_PASS
    assert u_path.read_text().strip() == "2/x"


def test_hopf_cole_transform_keeps_assumptions(corpus, tmp_path, capsys):
    # V1 = 1 + abs(x) has a derivative only under a sign of x, so the
    # assumption must reach the lift and both sides of the bridge square
    tmp, files = corpus
    tr = tmp_path / "abs.tr"
    tr.write_text(
        "family = LINEAR\nparam.T = t\nparam.X = x\nparam.V1 = 1 + abs(x)\nparam.V0 = 0\n"
    )
    argv = ["hopf-cole", str(files["heat.gbeq"]), "--v", "1", "--transform", str(tr)]
    out = tmp_path / "rep.json"
    assert main(argv + ["--assume", "x>0", "--out", str(out)]) == EXIT_PASS
    rep = json.loads(out.read_text())
    assert [c["verdict"] for c in rep["conditions"]] == ["SYMBOLIC_ZERO"] * 6
    capsys.readouterr()
    assert main(argv) == EXIT_INPUT
    assert "cannot differentiate abs(x)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "family, source, target",
    [
        ("LINZ\nparam.X = x\nparam.U0 = 0", "class = LINZ_F\nelement.f = x\n", "LINZ_ABC"),
        (
            "GENERAL\nparam.X = x\nparam.U1 = 1\nparam.U0 = 0",
            "class = BURGERS\n",
            "SUPER",
        ),
    ],
    ids=["linz-on-linz-f", "general-on-burgers"],
)
def test_transform_without_inverse_writes_the_pullback_class(tmp_path, family, source, target):
    # T = t^3 + t has no closed-form inverse, so the target stays in
    # source coordinates, in the class the pullback is in
    tr, inst, out = tmp_path / "cubic.tr", tmp_path / "src.gbeq", tmp_path / "out.gbeq"
    tr.write_text(f"family = {family}\nparam.T = t^3 + t\n")
    inst.write_text(source)
    assert main(["transform", str(tr), str(inst), "--out", str(out)]) == EXIT_PASS
    assert out.read_text().startswith(f"class = {target}\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("GAUGED\nparam.T = t\nparam.X0 = x\nparam.U0 = 0", "X0(t) cannot depend on x"),
        (
            "GENERAL\nparam.T = t + x\nparam.X = x\nparam.U1 = 1\nparam.U0 = 0",
            "T(t) cannot depend on x",
        ),
    ],
    ids=["gauged-x0", "general-t"],
)
def test_parameter_outside_its_signature_is_an_input_error(tmp_path, capsys, text, message):
    tr = tmp_path / "bad.tr"
    tr.write_text(f"family = {text}\n")
    assert main(["invert", str(tr), "--out", str(tmp_path / "inv.tr")]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err
    assert not (tmp_path / "inv.tr").exists()


def test_verify_solution_exit_partition(corpus, tmp_path):
    tmp, files = corpus
    assert main(["verify-solution", str(files["burgers.gbeq"]), "--solution", "2/x"]) == EXIT_PASS
    assert main(["verify-solution", str(files["burgers.gbeq"]), "--solution", "x"]) == EXIT_MATH
    assert main(["verify-solution", str(files["burgers.gbeq"]), "--solution", "t +*"]) == EXIT_INPUT


@pytest.mark.parametrize(
    "solution, column",
    [
        ("1/0", 2), ("0^(-1)", 2), ("x^(1/0)", 5), ("sign(0)", 1), ("0^(1/2)", 2),
        # ln(0) is refused where it is built, before exp can fold it away,
        # alone or in a sum of logs
        ("exp(ln(0))", 5), ("exp(-ln(0))", 6), ("exp(x + ln(0) - ln(x))", 9),
        ("ln(-1)", 1),
    ],
)
def test_undefined_arithmetic_is_an_input_error(corpus, capsys, solution, column):
    tmp, files = corpus
    argv = ["verify-solution", str(files["burgers.gbeq"]), "--solution", solution]
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("gbeq verify-solution: --solution: ")
    assert f"at column {column}\n" in err


@pytest.mark.parametrize(
    "solution", ["x + 1/(sign(x) - 1)", "1/(abs(x)-x)", "(sign(x)-1)^(-2)"]
)
def test_candidate_undefined_where_assumed_is_an_input_error(corpus, capsys, solution):
    # each is 1/0 at every x > 0; every derivative of the last two is
    # exactly 0, so only the candidate on its own shows the 1/0
    tmp, files = corpus
    argv = [
        "verify-solution", str(files["burgers.gbeq"]),
        "--solution", solution, "--assume", "x>0",
    ]
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().err == "gbeq verify-solution: division by zero\n"


@pytest.mark.parametrize(
    "solution, node", [("ln(abs(x)-x)", "ln(0)"), ("x*ln(sign(x) - 3)", "ln(-2)")]
)
def test_log_of_a_rational_at_most_zero_is_an_input_error(corpus, capsys, solution, node):
    # under x > 0 the log's argument is the constant 0 or -2, so every
    # derivative of the candidate vanishes with it and its residual
    # would reduce to 0; only the candidate on its own shows the log
    tmp, files = corpus
    argv = [
        "verify-solution", str(files["burgers.gbeq"]),
        "--solution", solution, "--assume", "x>0",
    ]
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().err == f"gbeq verify-solution: {node} is undefined\n"


@pytest.mark.parametrize(
    "solution, assume, node",
    [
        ("(-1)^(1/2)", [], "(-1)^(1/2)"),
        ("(-4)^(1/2)", [], "(-4)^(1/2)"),
        ("(-1)^(1/4)", [], "(-1)^(1/4)"),
        ("(-1)^(3/2)", [], "(-1)^(1/2)"),
        ("(abs(x)-x-1)^(1/2)", ["--assume", "x>0"], "(-1)^(1/2)"),
    ],
)
def test_even_root_of_a_negative_rational_is_an_input_error(corpus, capsys, solution, assume, node):
    # a constant candidate has a residual of 0, so only the candidate on
    # its own shows that it is no real number
    tmp, files = corpus
    argv = ["verify-solution", str(files["burgers.gbeq"]), "--solution", solution, *assume]
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().err == f"gbeq verify-solution: {node} is undefined\n"


def test_odd_root_of_a_negative_rational_verifies(corpus, capsys):
    tmp, files = corpus
    argv = ["verify-solution", str(files["burgers.gbeq"]), "--solution", "(-8)^(1/3)"]
    assert main(argv) == EXIT_PASS
    assert "SYMBOLIC_ZERO" in capsys.readouterr().out


def test_exp_merge_folding_to_a_product_verifies(corpus, capsys):
    # the merged exponential exp(ln(2*x)) is the product 2*x
    tmp, files = corpus
    argv = [
        "verify-solution", str(files["burgers.gbeq"]),
        "--solution", "exp(x + ln(2*x))*exp(-x)",
    ]
    assert main(argv) == EXIT_MATH
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("solution", ["abs(x)", "abs(x)/x"])
def test_underivable_solution_is_an_input_error(corpus, capsys, solution):
    # abs(x) has no derivative without a sign assumption on x
    tmp, files = corpus
    argv = ["verify-solution", str(files["burgers.gbeq"]), "--solution", solution]
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("gbeq verify-solution: cannot differentiate abs(x)")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "solution, message, assume",
    [
        ("ln(-1-x^2)", "could not draw valid sample points (last: ln of a non-positive value)", []),
        ("(-1-x^2)^(1/2)", "could not draw valid sample points "
         "(last: negative base -1.5747014742232923 under even root)", []),
        # defined only at x >= 0, which the assumption rules out: the box
        # once ignored it and graded the residual at x = 0.565
        ("x^(1/2)", "could not draw valid sample points "
         "(last: negative base -1.1921426673394258 under even root)", ["--assume", "x<0"]),
    ],
)
def test_solution_without_valid_sample_points_is_an_input_error(
    corpus, capsys, solution, message, assume
):
    # no real point makes the solution defined, so nothing can be sampled
    tmp, files = corpus
    argv = ["verify-solution", str(files["burgers.gbeq"]), "--solution", solution, *assume]
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err == f"gbeq verify-solution: {message}\n"


def test_divergent_integral_in_the_member_is_an_input_error(tmp_path, capsys):
    # int_0^x s^-2 ds diverges for every x, so no point can be graded;
    # quad's estimates once read NUMERIC_ZERO, exit 0
    member = tmp_path / "divergent.gbeq"
    member.write_text(
        "class = SUPER\nelement.F = 1\nelement.H1 = u\n"
        "element.H0 = int(1/x^2, x) + 1/x\n"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["verify-solution", str(member), "--solution", "0"])
    assert code == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "gbeq verify-solution: could not draw valid stand-in rounds (last: quadrature "
        "of x up to -0.758091 failed: The integral is probably divergent, or slowly "
        "convergent.)\n"
    )


@pytest.mark.parametrize(
    "argv, says",
    [
        (["verify-solution", "burgers.gbeq", "--solution", "2/x", "--tol", "nan"], "--tol nan: "),
        (["verify-solution", "burgers.gbeq", "--solution", "2/x", "--tol", "inf"], "--tol inf: "),
        (["verify-solution", "burgers.gbeq", "--solution", "2/x", "--tol=-1"], "--tol -1.0: "),
        (["membership", "burgers.gbeq", "--tol", "nan"], "--tol nan: "),
        (["gauge", "a-to-one", "linz_abc.gbeq", "--tol", "inf"], "--tol inf: "),
        (["deg-div-solve", "--f1", "0", "--f2", "0", "--tol", "nan"], "--tol nan: "),
        (["deg-div-solve", "--f1", "0", "--f2", "0", "--constants", "nan,1,1,0,0"],
         "--constants: 'nan,1,1,0,0' holds a number that is not finite"),
        (["deg-div-solve", "--f1", "0", "--f2", "0", "--t-span", "0.1,inf"],
         "--t-span: '0.1,inf' holds a number that is not finite"),
    ],
    ids=[
        "verify-tol-nan", "verify-tol-inf", "verify-tol-negative", "membership-tol-nan",
        "gauge-tol-inf", "deg-div-tol-nan", "deg-div-constants-nan", "deg-div-t-span-inf",
    ],
)
def test_unusable_numbers_are_input_errors(corpus, capsys, argv, says):
    # a NaN or infinite tolerance once reached the JSON report and raised
    # there; a non-finite constant or span end was graded as if it were data
    tmp, files = corpus
    code = main([str(files.get(a, a)) for a in argv])
    assert code == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"gbeq {argv[0]}: {says}"), captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def strict_json(text):
    """json.loads that rejects NaN and Infinity, as strict JSON parsers do."""

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("solution", ["x^99999999", "10^400*x", "x^(-99999999)"])
def test_overflowing_residual_is_nonzero(corpus, capsys, tmp_path, solution):
    # the residuals are nonzero and their values leave the float range
    # (x^99999999 only for |x| > 1, where x^(-99999999) underflows to 0;
    # x^(-99999999) for |x| < 1, where its residual is inf - inf): the
    # overflowing points must decide, not be skipped, and the report
    # must still be strict JSON
    tmp, files = corpus
    out = tmp_path / "rep.json"
    argv = [
        "verify-solution", str(files["burgers.gbeq"]), "--solution", solution,
        "--out", str(out),
    ]
    assert main(argv) == EXIT_MATH
    report = strict_json(out.read_text())
    assert report["verdict"] == "NONZERO"
    assert all(
        isinstance(s["value"], float) or s["value"] in ("inf", "-inf", "nan")
        for s in report["samples"]
    )
    assert "Traceback" not in capsys.readouterr().err


def test_deep_nesting_is_an_input_error(corpus, capsys):
    tmp, files = corpus
    deep = tmp / "deep.txt"
    deep.write_text("(" * 2000 + "x" + ")" * 2000 + "\n")
    argv = ["verify-solution", str(files["burgers.gbeq"]), "--solution", f"@{deep}"]
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"nested deeper than {MAX_NESTING} levels at column {MAX_NESTING + 1}\n" in err
    assert "Traceback" not in err


def test_nesting_at_the_limit_parses_and_formats(corpus, capsys):
    tmp, files = corpus
    # the whole input is level 1; each parenthesis opens one more
    depth = MAX_NESTING - 1
    text = "x*(1 + " * depth + "t" + ")" * depth
    ctx = class_context(ClassId.BURGERS)
    e = parse(text, ctx)
    assert format_expr(e) == text
    assert parse(format_expr(e), ctx) == e
    at_limit = tmp / "at_limit.txt"
    at_limit.write_text("(" * depth + "2/x" + ")" * depth + "\n")
    argv = ["verify-solution", str(files["burgers.gbeq"]), "--solution", f"@{at_limit}"]
    assert main(argv) == EXIT_PASS
    assert json.loads(capsys.readouterr().out)["verdict"] == "SYMBOLIC_ZERO"


def test_nested_product_at_the_limit_is_nonzero(corpus, capsys):
    # x*(1 + x*(1 + ... t)) at the nesting limit is not a solution; its
    # residual repeats each level many times, which the passes' per-call
    # memos work through once
    tmp, files = corpus
    depth = MAX_NESTING - 1
    nested = tmp / "nested.txt"
    nested.write_text("x*(1 + " * depth + "t" + ")" * depth + "\n")
    argv = ["verify-solution", str(files["burgers.gbeq"]), "--solution", f"@{nested}"]
    assert main(argv) == EXIT_MATH
    assert strict_json(capsys.readouterr().out)["verdict"] == "NONZERO"


def test_solution_can_come_from_a_file(corpus, capsys):
    tmp, files = corpus
    code = main([
        "verify-solution", str(files["burgers.gbeq"]),
        "--solution", f"@{files['solution.txt']}",
    ])
    assert code == EXIT_PASS
    assert json.loads(capsys.readouterr().out)["verdict"] == "SYMBOLIC_ZERO"


def test_nonzero_witness_honours_the_assumption(corpus, tmp_path):
    # the witness point was once drawn at either sign, whatever --assume
    # said: x = -1.952 here
    tmp, files = corpus
    out = tmp_path / "rep.json"
    argv = [
        "verify-solution", str(files["burgers.gbeq"]), "--solution", "x",
        "--assume", "x>0", "--out", str(out),
    ]
    assert main(argv) == EXIT_MATH
    report = strict_json(out.read_text())
    assert report["verdict"] == "NONZERO"
    assert all(s["point"]["x"] > 0 for s in report["samples"])
    assert float(report["summary"].rsplit("x = ", 1)[1]) > 0


def test_repeated_runs_are_byte_identical(corpus, tmp_path):
    tmp, files = corpus
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    argv = ["verify-solution", str(files["burgers.gbeq"]), "--solution", "x"]
    main(argv + ["--out", str(a)])
    main(argv + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_transport_round(corpus, tmp_path):
    tmp, files = corpus
    target = tmp_path / "target.gbeq"
    main([
        "transform", str(files["reduced.tr"]), str(files["linz_f.gbeq"]),
        "--out", str(target),
    ])
    code = main([
        "transport", str(files["reduced.tr"]), str(files["linz_f.gbeq"]),
        str(target), "--solution", "2/x",
    ])
    assert code == EXIT_PASS


def test_symmetry_table_payload(corpus, capsys):
    assert main(["symmetry-table"]) == EXIT_PASS
    data = json.loads(capsys.readouterr().out)
    assert data["n"] == 5
    assert data["closed"] is True
    assert len(data["matrix"]) == 5


def test_symmetry_check_needs_projective(corpus, tmp_path):
    tmp, files = corpus
    assert main(["symmetry-check", str(files["projective.tr"])]) == EXIT_PASS
    assert main(["symmetry-check", str(files["linz.tr"])]) == EXIT_INPUT


def test_symmetry_check_reflected(corpus, tmp_path):
    tmp, files = corpus
    assert main(["symmetry-check", str(files["projective.tr"]), "--reflect"]) == EXIT_PASS


def test_deg_div_solve_writes_grid(corpus, tmp_path):
    grid = tmp_path / "grid.tsv"
    code = main([
        "deg-div-solve", "--f1", "0", "--f2", "0",
        "--constants", "0,1,-0.5,0,0",
        "--out", str(tmp_path / "rep.json"), "--grid-out", str(grid),
    ])
    assert code == EXIT_PASS
    lines = grid.read_text().strip().splitlines()
    assert lines[0] == "t\tT\tX0"
    assert len(lines) == 202


def test_deg_div_solve_pole_is_math_failure(corpus, tmp_path, capsys):
    rep_path = tmp_path / "rep.json"
    for extra, says in (
        (["--f2", "0", "--constants", "0,-0.4,1,0,0"], "the T branch has a pole here"),
        # exp(-2 int f2) = exp(1000 (t - 0.1)) leaves the float range
        (["--f2", "-500"], "exp(-2 int f2) overflows on the span [0.1, 1.0]"),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["deg-div-solve", "--f1", "0", *extra, "--out", str(rep_path)])
        assert code == EXIT_MATH, extra
        assert json.loads(rep_path.read_text())["verdict"] == "REJECTED_PRECONDITION"
        err = capsys.readouterr().err
        assert err.startswith("deg-div-solve: REJECTED_PRECONDITION (") and says in err, err
        assert err.count("\n") == 1, err


def test_deg_div_solve_bad_parameters(corpus, capsys):
    for extra, says in (
        (["--f1", "x", "--f2", "0"], "f1 must not involve x"),
        (["--f1", "0", "--f2", "0", "--constants", "0,0,0,0,0"], "must not both vanish"),
        (["--f1", "0", "--f2", "0", "--degree", "-1"], "--degree -1: "),
        (["--f1", "0", "--f2", "0", "--degree", "0"], "--degree 0: "),
        (["--f1", "0", "--f2", "0", "--degree", "100000"], "--degree 100000: "),
        (["--f1", "0", "--f2", "0", "--degree", "1001"], "--degree 1001: "),
        (["--f1", "0", "--f2", "0", "--points", "0"], "--points 0: "),
        (["--f1", "0", "--f2", "0", "--points", "3"], "--points 3: "),
        (["--f1", "0", "--f2", "0", "--points", "8"], "--points 8: "),
        # coefficients undefined somewhere on the span, named in the line
        (["--f1", "0", "--f2", "ln(t)", "--t-span=-1,1"],
         "f2 = ln(t) is undefined at t = -1.0: ln of a non-positive value"),
        (["--f1", "0", "--f2", "1/t", "--t-span=-1,1"], "f2 = 1/t is undefined"),
        (["--f1", "0", "--f2", "exp(1000*t)"], "f2 = exp(1000*t) is undefined"),
        (["--f1", "1/(t-11/20)", "--f2", "0"], "f1 = 1/(-11/20 + t) is undefined"),
        # poles between interpolation points, found from the exact denominator
        (["--f1", "1/(t-1/2)", "--f2", "0"], "f1 = 1/(-1/2 + t) is undefined at t = 0.5: "),
        (["--f1", "1/(t-1/2)^2", "--f2", "0"], "f1 = 1/(-1/2 + t)^2 is undefined at t = 0.5: "),
    ):
        assert main(["deg-div-solve", *extra]) == EXIT_INPUT, extra
        err = capsys.readouterr().err
        assert err.startswith("gbeq deg-div-solve: ") and says in err, (extra, err)
        assert err.count("\n") == 1, (extra, err)


def test_deg_div_solve_pole_that_clearing_cancels(capsys):
    # (t - 1/2)/(t + 1/2) as a function, undefined at t = 1/2 as written
    code = main(["deg-div-solve", "--f1", "1/(1+1/(t-1/2))", "--f2", "0"])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("gbeq deg-div-solve: f1 = 1/(1 + 1/(-1/2 + t)) is undefined at t = 0.5: ")
    assert err.count("\n") == 1, err


def test_deg_div_solve_smallest_settings_run(corpus, tmp_path):
    # degree 1 and the 9-point minimum are usable, if inaccurate
    code = main([
        "deg-div-solve", "--f1", "0", "--f2", "0", "--degree", "1",
        "--points", "9", "--out", str(tmp_path / "rep.json"),
    ])
    assert code in (EXIT_PASS, EXIT_MATH)


def test_unknown_subcommand_raises_argparse_exit():
    with pytest.raises(SystemExit):
        main(["no-such-command"])


_IMPORT_GUARD = textwrap.dedent("""
    import sys

    def loaded(*names):
        return sorted(n for n in names if n in sys.modules)

    import gbeq.expr
    assert loaded("scipy") == [], loaded("scipy")
    from gbeq.cli import main
    assert loaded("numpy", "scipy") == [], loaded("numpy", "scipy")
    assert main(["verify-solution", sys.argv[1], "--solution", "2/x"]) == 0
    assert loaded("numpy", "scipy") == [], loaded("numpy", "scipy")
""")


def test_cold_paths_import_neither_numpy_nor_scipy(corpus):
    # a fresh interpreter: this process has long since imported both
    tmp, files = corpus
    src = str(Path(gbeq.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_GUARD, str(files["burgers.gbeq"])],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


# What a fresh interpreter holds after one call of each subcommand: only
# the layers the call runs.  The in-process tests cannot see this, since
# this process has imported every module.
_WATCHED = (
    "gbeq.transforms", "gbeq.hopfcole", "gbeq.symmetry", "gbeq.degdiv",
    "numpy", "scipy",
)
_TRANSFORMS = ["gbeq.transforms"]
_SYMMETRY = ["gbeq.hopfcole", "gbeq.symmetry", "gbeq.transforms"]
_LOAD_TABLE = [
    (["parse-check", "expr.txt"], [], EXIT_PASS),
    (["membership", "nondeg.gbeq"], [], EXIT_PASS),
    (["linearize", "heat.gbeq"], [], EXIT_PASS),
    (["verify-solution", "burgers.gbeq", "--solution", "2/x"], [], EXIT_PASS),
    (["deg-div-solve", "--f1", "0", "--f2", "0"], ["gbeq.degdiv", "numpy"], EXIT_PASS),
    (["transform", "reduced.tr", "linz_f.gbeq"], _TRANSFORMS, EXIT_PASS),
    (["compose", "linz.tr", "gauged.tr"], _TRANSFORMS, EXIT_PASS),
    (["invert", "linz.tr"], _TRANSFORMS, EXIT_PASS),
    (["gauge", "a-to-one", "linz_abc.gbeq"], _TRANSFORMS, EXIT_PASS),
    (
        ["transport", "ident_reduced.tr", "linz_f.gbeq", "linz_f.gbeq", "--solution", "2/x"],
        _TRANSFORMS,
        EXIT_PASS,
    ),
    (
        ["hopf-cole", "heat.gbeq", "--v", "1 + exp(x - t)"],
        ["gbeq.hopfcole", "gbeq.transforms"],
        EXIT_PASS,
    ),
    (["symmetry-table"], _SYMMETRY, EXIT_PASS),
    (["symmetry-check", "projective.tr"], _SYMMETRY, EXIT_PASS),
    # DegDivSolution rejects f1 = x before any numeric work, so numpy,
    # which degdiv loads only to compute, stays out
    (["deg-div-solve", "--f1", "x", "--f2", "0"], ["gbeq.degdiv"], EXIT_INPUT),
]
_LOAD_GUARD = textwrap.dedent("""
    import json
    import sys

    def loaded(names):
        return sorted(n for n in names if n in sys.modules)

    watched = sys.argv[1].split(",")
    from gbeq.cli import main
    assert loaded(watched) == [], loaded(watched)
    code = main(sys.argv[2:])
    print(json.dumps({"exit": code, "loaded": loaded(watched)}))
""")


def _fresh(args, corpus):
    """Run a Python child in the corpus directory, with this checkout's
    gbeq first on the path and corpus file names in args made paths."""
    tmp, files = corpus
    args = [str(files[a]) if a in files else a for a in args]
    src = str(Path(gbeq.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run(
        [sys.executable, *args], cwd=tmp, env=env, capture_output=True,
        text=True, stdin=subprocess.DEVNULL, timeout=120,
    )


@pytest.mark.parametrize(
    "argv, loads, code",
    _LOAD_TABLE,
    ids=[
        argv[0] if code == EXIT_PASS else f"{argv[0]}-exit-{code}"
        for argv, _, code in _LOAD_TABLE
    ],
)
def test_each_subcommand_loads_only_its_layers(corpus, argv, loads, code):
    proc = _fresh(["-c", _LOAD_GUARD, ",".join(_WATCHED), *argv], corpus)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"exit": code, "loaded": loads}, proc.stderr


@pytest.mark.parametrize(
    "argv, says",
    [
        (["transform", "missing.tr", "linz_f.gbeq"], "missing.tr: "),
        (["symmetry-check", "linz.tr"], "symmetry-check needs family = PROJECTIVE"),
        (["hopf-cole", "burgers.gbeq", "--v", "1"], "hopf-cole needs a LINEAR member"),
        (["verify-solution", "burgers.gbeq", "--solution", "ln(-1-x^2)"], ""),
    ],
    ids=["transform", "symmetry-check", "hopf-cole", "verify-solution"],
)
def test_late_loaded_commands_exit_2_on_bad_input(corpus, argv, says):
    # a name a handler binds on import must be bound on its error path
    # too, which only a fresh interpreter exercises
    proc = _fresh(["-m", "gbeq", *argv], corpus)
    assert proc.returncode == EXIT_INPUT, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert proc.stderr.startswith(f"gbeq {argv[0]}: ") and says in proc.stderr, proc.stderr
