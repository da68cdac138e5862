"""End-to-end command coverage through main(argv): artifacts, exit codes,
byte-stable reruns."""

import json
import os
import subprocess
import sys
import textwrap
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


def test_verify_solution_exit_partition(corpus, tmp_path):
    tmp, files = corpus
    assert main(["verify-solution", str(files["burgers.gbeq"]), "--solution", "2/x"]) == EXIT_PASS
    assert main(["verify-solution", str(files["burgers.gbeq"]), "--solution", "x"]) == EXIT_MATH
    assert main(["verify-solution", str(files["burgers.gbeq"]), "--solution", "t +*"]) == EXIT_INPUT


@pytest.mark.parametrize(
    "solution, column",
    [("1/0", 2), ("0^(-1)", 2), ("x^(1/0)", 5), ("sign(0)", 1), ("0^(1/2)", 2)],
)
def test_undefined_arithmetic_is_an_input_error(corpus, capsys, solution, column):
    tmp, files = corpus
    argv = ["verify-solution", str(files["burgers.gbeq"]), "--solution", solution]
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("gbeq verify-solution: --solution: ")
    assert f"at column {column}\n" in err


@pytest.mark.parametrize("solution", ["x^99999999", "10^400*x"])
def test_overflowing_residual_is_nonzero(corpus, capsys, tmp_path, solution):
    # both residuals are nonzero polynomials whose values leave the float
    # range (x^99999999 only for |x| > 1; below that they underflow to 0):
    # the overflowing points must decide, not be skipped
    tmp, files = corpus
    out = tmp_path / "rep.json"
    argv = [
        "verify-solution", str(files["burgers.gbeq"]), "--solution", solution,
        "--out", str(out),
    ]
    assert main(argv) == EXIT_MATH
    assert json.loads(out.read_text())["verdict"] == "NONZERO"
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


def test_solution_can_come_from_a_file(corpus, capsys):
    tmp, files = corpus
    code = main([
        "verify-solution", str(files["burgers.gbeq"]),
        "--solution", f"@{files['solution.txt']}",
    ])
    assert code == EXIT_PASS
    assert json.loads(capsys.readouterr().out)["verdict"] == "SYMBOLIC_ZERO"


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


def test_deg_div_solve_pole_is_math_failure(corpus, tmp_path):
    rep_path = tmp_path / "rep.json"
    code = main([
        "deg-div-solve", "--f1", "0", "--f2", "0",
        "--constants", "0,-0.4,1,0,0", "--out", str(rep_path),
    ])
    assert code == EXIT_MATH
    assert json.loads(rep_path.read_text())["verdict"] == "REJECTED_PRECONDITION"


def test_deg_div_solve_bad_parameters(corpus):
    assert main(["deg-div-solve", "--f1", "x", "--f2", "0"]) == EXIT_INPUT
    assert main(["deg-div-solve", "--f1", "0", "--f2", "0", "--constants", "0,0,0,0,0"]) == EXIT_INPUT


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
