"""The cli-cold workload: a script of `python -m gbeq` calls.

Each item starts one interpreter, so interpreter start-up and imports
dominate.  The script covers the README example, NONZERO candidates
(exit 1) and unusable inputs (exit 2).  The seed draws the members,
transforms, candidates and expressions written to the work directory,
and the order of the calls.  This module does not import gbeq: the
program only runs in the child processes.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from outcome import Item, Outcome

HERE = Path(__file__).resolve().parent
VERDICTS = ("SYMBOLIC_ZERO", "NUMERIC_ZERO", "NONZERO")
ZEROS = ("SYMBOLIC_ZERO", "NUMERIC_ZERO")
CALL_TIMEOUT_S = 60

_FRACS = ("-3", "-2", "-1", "1", "2", "3", "1/2", "-1/2", "3/2")
_POS_SLOPES = ("1", "4", "9", "1/4", "2")
# u_t + u u_x + u_xx = 0, the BURGERS member
_BURGERS_SOLUTIONS = (
    "0",
    "2/x",
    "2*exp(x - t)/(1 + exp(x - t))",
    "4*exp(2*x - 4*t)/(1 + exp(2*x - 4*t))",
)
# v_t + v_xx = 0, the LINEAR heat member
_HEAT_SOLUTIONS = (
    "1", "x", "x^2 - 2*t", "x^3 - 6*t*x", "exp(x - t)", "exp(2*x - 4*t)",
    "1 + exp(x - t)",
)


class CliRunner:
    """Runs gbeq in a child interpreter, traced when trace_dir is set."""

    def __init__(self, root: Path, work: Path):
        self.work = work
        src = str(root / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.trace_dir: Optional[Path] = None

    def call(self, item_id: str, argv: Sequence[str]) -> subprocess.CompletedProcess:
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "gbeq", *argv]
        else:
            spans = self.trace_dir / f"{item_id}.tsv"
            cmd = [sys.executable, str(HERE / "cli_traced.py"), str(spans), item_id, *argv]
        return subprocess.run(
            cmd, cwd=self.work, env=self.env, capture_output=True, text=True,
            stdin=subprocess.DEVNULL, timeout=CALL_TIMEOUT_S,
        )


def _verdict(stderr: str) -> str:
    """The verdict on the status line, `command: VERDICT ...`, if any."""
    lines = [line for line in stderr.splitlines() if line.strip()]
    if not lines or ": " not in lines[-1]:
        return ""
    words = lines[-1].split(": ", 1)[1].split()
    return words[0] if words else ""


def _check(runner: CliRunner, item_id: str, argv, code: int, verdicts) -> Outcome:
    proc = runner.call(item_id, argv)
    verdict = _verdict(proc.stderr)
    seen = (verdict,) if verdict in VERDICTS else ()
    problems = []
    if proc.returncode != code:
        problems.append(f"exit {proc.returncode}, expected {code}")
    if verdicts and verdict not in verdicts:
        problems.append(f"verdict {verdict or 'missing'}, expected {'/'.join(verdicts)}")
    return Outcome(not problems, seen, "; ".join(problems))


def _poly(rng: random.Random, monomials: Tuple[str, ...]) -> str:
    picked = rng.sample(monomials, rng.randint(1, 2))
    return " + ".join(f"({rng.choice(_FRACS)})*{m}" for m in picked)


def _reduced(rng: random.Random) -> str:
    return (
        "family = REDUCED\n"
        f"param.T = {rng.choice(_POS_SLOPES)}*t + ({rng.choice(_FRACS)})\n"
        f"param.X0 = {_poly(rng, ('1', 't', 't^2'))}\n"
        f"param.eps = {rng.choice(('1', '-1'))}\n"
    )


def _flow_tuple(rng: random.Random) -> str:
    entries = dict(alpha="1", beta="0", gamma="0", delta="1", kappa="1", mu0="0", mu1="0")
    eps = rng.choice(("1/2", "-1/2", "1/3", "1/4", "-1"))
    index = rng.choice((1, 3, 4, 5))
    if index == 1:
        entries["beta"] = eps
    elif index == 3:
        entries["gamma"] = eps[1:] if eps.startswith("-") else "-" + eps
    else:
        entries["mu0" if index == 4 else "mu1"] = eps
    return "family = PROJECTIVE\n" + "".join(
        f"param.{k} = {v}\n" for k, v in entries.items()
    )


def build(seed: int, runner: CliRunner) -> Tuple[List[Item], Item]:
    """Write the seeded input files and return the call script."""
    rng = random.Random(seed)
    tx = ("1", "t", "x", "t*x", "x^2", "t^2")
    files = {
        "burgers.txt": "class = BURGERS\n",
        "member.txt": f"class = LINZ_F\nelement.f = {_poly(rng, tx)}\n",
        "move.txt": _reduced(rng),
        "move2.txt": _reduced(rng),
        "abc.txt": (
            f"class = LINZ_ABC\nelement.a = {rng.choice(_FRACS)}\n"
            f"element.b = {_poly(rng, tx)}\nelement.f = {_poly(rng, tx)}\n"
        ),
        "linear.txt": "class = LINEAR\nelement.a = 1\nelement.b = 0\nelement.c = 0\n",
        "bad-class.txt": "class = NO_SUCH_CLASS\n",
        "proj.txt": _flow_tuple(rng),
        "expr.txt": (
            f"({_poly(rng, tx)})^2/(1 + ({_poly(rng, tx)})^2)"
            f" - exp(({rng.choice(_FRACS)})*t + x)\n"
        ),
        "bad-expr.txt": f"2*(x + ({rng.choice(_FRACS)})*t\n",
    }
    for name, text in files.items():
        (runner.work / name).write_text(text, encoding="utf-8")

    small = ("-1", "-1/2", "1/2", "1")
    f1 = f"({rng.choice(small)}) + ({rng.choice(small)})*t"
    f2 = f"({rng.choice(small)})*t^{rng.choice((0, 1, 2))}"
    u = rng.choice(_BURGERS_SOLUTIONS)
    shift = rng.choice(("0", "1/2", "1", "2"))
    # u + c t^k solves the BURGERS member only if u_x = -k/t
    off1 = f"({rng.choice(_BURGERS_SOLUTIONS)}) + ({rng.choice(_FRACS)})*t"
    off2 = f"({rng.choice(_BURGERS_SOLUTIONS)}) + ({rng.choice(_FRACS)})*t^2"
    ok, math_fail, bad_input = 0, 1, 2
    script = [
        ("transform", ["transform", "move.txt", "member.txt", "--out", "image.txt"], ok, ()),
        ("transform-2", ["transform", "move2.txt", "member.txt", "--out", "image2.txt"], ok, ()),
        ("compose", ["compose", "move.txt", "move2.txt", "--out", "composed.txt"], ok, ()),
        ("invert", ["invert", "move.txt", "--out", "inverse.txt"], ok, ()),
        ("membership", ["membership", "member.txt"], ok, ("MEMBER",)),
        ("verify-stationary", ["verify-solution", "burgers.txt", "--solution", "2/x"], ok, ("SYMBOLIC_ZERO",)),
        ("verify-catalog", ["verify-solution", "burgers.txt", "--solution", u], ok, ZEROS),
        ("verify-shifted", ["verify-solution", "burgers.txt", "--solution", f"2/(x + {shift})"], ok, ZEROS),
        ("verify-offset-t", ["verify-solution", "burgers.txt", "--solution", off1], math_fail, ("NONZERO",)),
        ("verify-offset-t2", ["verify-solution", "burgers.txt", "--solution", off2], math_fail, ("NONZERO",)),
        ("verify-x", ["verify-solution", "burgers.txt", "--solution", "x"], math_fail, ("NONZERO",)),
        ("verify-unbalanced", ["verify-solution", "burgers.txt", "--solution", "2/(x"], bad_input, ()),
        ("verify-div-zero", ["verify-solution", "burgers.txt", "--solution", "1/0"], bad_input, ()),
        ("verify-missing-file", ["verify-solution", "missing.txt", "--solution", "2/x"], bad_input, ()),
        ("symmetry-table", ["symmetry-table", "--out", "table.json"], ok, ()),
        ("symmetry-check", ["symmetry-check", "proj.txt"], ok, ZEROS),
        ("deg-div-solve", ["deg-div-solve", "--f1", f1, "--f2", f2, "--grid-out", "grid.tsv"], ok, ("NUMERIC_ZERO",)),
        ("deg-div-x", ["deg-div-solve", "--f1", "x", "--f2", "0"], bad_input, ()),
        ("parse-check", ["parse-check", "expr.txt"], ok, ()),
        ("parse-check-bad", ["parse-check", "bad-expr.txt"], bad_input, ()),
        ("membership-bad-class", ["membership", "bad-class.txt"], bad_input, ()),
        ("gauge", ["gauge", "a-to-one", "abc.txt", "--instance-out", "gauged.txt"], ok, ZEROS),
        ("linearize", ["linearize", "linear.txt", "--out", "bridged.txt"], ok, ()),
        ("hopf-cole", ["hopf-cole", "linear.txt", "--v", rng.choice(_HEAT_SOLUTIONS)], ok, ZEROS),
    ]
    items = [
        Item(item_id, _bind(runner, item_id, argv, code, verdicts))
        for item_id, argv, code, verdicts in script
    ]
    warmup = next(item for item in items if item.id == "verify-stationary")
    rng.shuffle(items)
    return items, warmup


def _bind(runner: CliRunner, item_id: str, argv, code: int, verdicts):
    return lambda: _check(runner, item_id, argv, code, verdicts)
