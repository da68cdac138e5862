"""Byte-for-byte outputs of a fixed CLI script.

The files under tests/golden/ pin the sampled points, values and
summaries the verifiers print for a fixed seed, so a refactor of the
samplers or verdict combination that changes what a user sees fails
here.  The .tr files pin the printed parameters of compose and invert
in the families that restrict from their GENERAL lift.  `PYTHONPATH=src python tests/test_golden_reports.py` rewrites
them from the current code; do that only for an intended change of output.
"""

from pathlib import Path

import pytest

from gbeq.classes import ClassId, EquationInstance, format_instance
from gbeq.cli import main
from gbeq.expr import ZERO
from gbeq.hopfcole import heat_instance

GOLDEN = Path(__file__).parent / "golden"

INPUTS = {
    "burgers.gbeq": format_instance(EquationInstance(ClassId.BURGERS, {})),
    "linz_f.gbeq": format_instance(EquationInstance(ClassId.LINZ_F, {"f": ZERO})),
    # H0 vanishes for every F (antiderivatives are based at x = 0), but
    # the antiderivative rule takes only residuals linear in the
    # integral, so the square leaves it to the stand-in sampler
    "opaque.gbeq": (
        "class = SUPER\nelement.F = 1\nelement.H1 = u\n"
        "element.H0 = int(F_x, x)^2 - (F - F(t, 0))^2\n"
    ),
    # two integral atoms: the antiderivative rule takes one, so the
    # identity is left to quadrature
    "integral.gbeq": (
        "class = LINZ_F\nelement.f = int(2*x*exp(x^2), x) + int(cos(x), x)"
        " - exp(x^2) - sin(x) + 1\n"
    ),
    # the kink at x = 1/3 keeps the first Gauss-Kronrod step from settling
    # on samples right of it, so those quadratures fall back to scipy's quad
    "kinked.gbeq": (
        "class = LINZ_F\nelement.f = int(abs(x - 1/3)^(1/2), x)"
        " - 2/3*sign(x - 1/3)*abs(x - 1/3)^(3/2) - 2/27*3^(1/2)\n"
    ),
    "heat.gbeq": format_instance(heat_instance()),
    "reduced.tr": "family = REDUCED\nparam.T = 4*t + 1\nparam.X0 = t^2\nparam.eps = 1\n",
    "linear_scale.tr": (
        "family = LINEAR\nparam.T = 4*t\nparam.X = 2*x + t\n"
        "param.V1 = exp(x/2)\nparam.V0 = 0\n"
    ),
    "projective.tr": (
        "family = PROJECTIVE\nparam.alpha = 1\nparam.beta = 0\n"
        "param.gamma = -1\nparam.delta = 1\nparam.kappa = 1\n"
        "param.mu0 = 0\nparam.mu1 = 0\n"
    ),
    # Mobius T, eps = -1 and sign_Tt = -1 for compose and invert
    "gauged.tr": (
        "family = GAUGED\nparam.T = (2*t + 1)/(t + 3)\nparam.X0 = t^2 - 1\n"
        "param.U0 = t*x + 1\nparam.eps = 1\n"
    ),
    "gauged_neg.tr": (
        "family = GAUGED\nparam.T = 4*t + 1\nparam.X0 = 1 - t^2/8\n"
        "param.U0 = x^2 - t\nparam.eps = -1\n"
    ),
    "reduced_neg.tr": (
        "family = REDUCED\nparam.T = (2*t + 1)/(t + 3)\n"
        "param.X0 = 1 - t/2\nparam.eps = -1\n"
    ),
    "div.tr": (
        "family = DIV\nparam.T = 4*t + 1\nparam.X0 = t - 2\n"
        "param.kappa = 3/2\nparam.sign_Tt = 1\n"
    ),
    "div_neg.tr": (
        "family = DIV\nparam.T = 1/(t + 1)\nparam.X0 = 2*t + 1\n"
        "param.kappa = -2\nparam.sign_Tt = -1\n"
    ),
}

SCRIPT = {
    "verify_symbolic": ["verify-solution", "burgers.gbeq", "--solution", "2/x"],
    "verify_numeric": [
        "verify-solution", "burgers.gbeq",
        "--solution", "2/x + exp(x)/10^12", "--tol", "1e-6",
    ],
    "verify_nonzero": ["verify-solution", "burgers.gbeq", "--solution", "x"],
    # function-free residual -2/(10^15 x^2): graded on the sample domain
    "verify_domain": [
        "verify-solution", "burgers.gbeq", "--solution", "2/x + 1/10^15",
    ],
    "verify_standins": ["verify-solution", "opaque.gbeq", "--solution", "2/x"],
    "verify_integral": ["verify-solution", "integral.gbeq", "--solution", "2/x"],
    "verify_kinked_integral": ["verify-solution", "kinked.gbeq", "--solution", "2/x"],
    "transport": [
        "transport", "reduced.tr", "linz_f.gbeq", "target.gbeq",
        "--solution", "2/x",
    ],
    "hopf_cole": [
        "hopf-cole", "heat.gbeq", "--v", "1 + exp(x - t)",
        "--transform", "linear_scale.tr",
    ],
    "symmetry_check": ["symmetry-check", "projective.tr", "--seed", "7"],
    "compose_gauged.tr": ["compose", "gauged_neg.tr", "gauged.tr"],
    "compose_reduced.tr": ["compose", "reduced_neg.tr", "reduced.tr"],
    "compose_div.tr": ["compose", "div_neg.tr", "div.tr"],
    "invert_gauged.tr": ["invert", "gauged_neg.tr"],
    "invert_reduced.tr": ["invert", "reduced_neg.tr"],
    "invert_div.tr": ["invert", "div_neg.tr"],
}


def golden_name(name: str) -> str:
    """The file a script entry writes: a JSON report unless it names a suffix."""
    return name if "." in name else f"{name}.json"


def run_script(work: Path) -> dict:
    """Run SCRIPT in work and return each report's bytes by name."""
    for name, text in INPUTS.items():
        (work / name).write_text(text)
    main([
        "transform", str(work / "reduced.tr"), str(work / "linz_f.gbeq"),
        "--out", str(work / "target.gbeq"),
    ])
    out = {}
    for name, argv in SCRIPT.items():
        argv = [str(work / a) if a in INPUTS or a == "target.gbeq" else a for a in argv]
        path = work / golden_name(name)
        main(argv + ["--out", str(path)])
        out[name] = path.read_bytes()
    return out


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    return run_script(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", sorted(SCRIPT))
def test_report_matches_golden(reports, name):
    assert reports[name] == (GOLDEN / golden_name(name)).read_bytes()


def test_script_covers_every_sampler_verdict(reports):
    import json

    verdicts = {
        name: json.loads(reports[name])["verdict"]
        for name in SCRIPT if golden_name(name).endswith(".json")
    }
    assert verdicts["verify_symbolic"] == "SYMBOLIC_ZERO"
    assert verdicts["verify_numeric"] == "NUMERIC_ZERO"
    assert verdicts["verify_nonzero"] == "NONZERO"
    assert verdicts["verify_domain"] == "NUMERIC_ZERO"
    assert verdicts["verify_standins"] == "NUMERIC_ZERO"
    assert verdicts["verify_integral"] == "NUMERIC_ZERO"
    assert verdicts["verify_kinked_integral"] == "NUMERIC_ZERO"
    # stand-in points carry only variables; jet points would also
    # label the opaque atoms
    for name in ("verify_standins", "verify_integral", "verify_kinked_integral"):
        first = json.loads(reports[name])["samples"][0]["point"]
        assert set(first) <= {"t", "x"}


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in run_script(Path(tmp)).items():
            (GOLDEN / golden_name(name)).write_bytes(data)
