"""Batch command-line interface.

Thirteen subcommands expose the library over plain files: members and
transforms travel in the `key = value` formats defined by classes and
transforms, verification results leave as JSON reports, and every run
ends with one terse status line on stderr.  Artifacts go to --out
(stdout when omitted), so pipelines can be scripted without touching
Python.

Exit status partitions the outcomes:

    0  the operation succeeded and every check passed
    1  a mathematical failure: a NONZERO residual, a rejected
       precondition, or a Hopf-Cole obstruction
    2  an input error: unreadable or malformed files, unparsable
       expressions or undefined arithmetic such as 1/0 (reported
       with their position), abs or sign that must be differentiated
       without a sign assumption, an expression with no valid sample
       point in the sampled box, whose signs follow --assume (such as
       ln(-1-x^2), or x^(1/2) with --assume 'x<0'), a candidate that
       divides by zero, takes the log of a rational at most 0 or an
       even root of a negative rational wherever the assumptions
       hold, a transform whose T does not depend on t, a --tol that
       is not a finite number >= 0 or a --constants or --t-span
       number that is not finite, unknown flags

--assume must name a symbol of an input: the member's class (source's
or target's for transport), the transform's family, or for hopf-cole
the bridged member's class; any other name exits 2.  Each layer then
keeps the pairs that name its own symbols.

Repeating an invocation with the same inputs and --seed reproduces
the report byte for byte.  Expression-valued flags accept either the
expression itself or @PATH to read it from a file.

Each call runs in a fresh interpreter, so a subcommand loads only the
layers it runs: the module imports classes, expr, report and verify,
and a handler imports anything else it needs (transforms, hopfcole,
symmetry, degdiv) in its own body.  A new subcommand follows the same
rule, which keeps the cold path of every other one flat.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from .classes import (
    ClassError,
    ClassId,
    EquationInstance,
    check_membership,
    class_context,
    format_instance,
    linearizable_from_linear,
    parse_instance,
)
from .expr import (
    Context,
    Expr,
    ExprError,
    NEGATIVE,
    NONZERO_FLAG,
    ParseError,
    POSITIVE,
    format_expr,
    parse,
)
from .report import REJECTED, VerificationReport, rejected_report
from .verify import residual, transport_check

if TYPE_CHECKING:
    from .degdiv import DegDivQuadrature
    from .transforms import ApplyResult

EXIT_PASS = 0
EXIT_MATH = 1
EXIT_INPUT = 2

# deg-div-solve solves on coefficient arrays, nearly flat in the degree
# (on a 2-CPU Xeon: 0.25 ms at degree 64, 0.45 ms at 1000, 0.9 ms at
# 3000), but its report evaluates each series at every --points point,
# about degree x points steps: solve and report of f1 = f2 = 0 at 201
# points take 0.6 ms at degree 64, 4.9 ms at 1000, 14 ms at 3000.  The
# ODE residual of smooth coefficients sits near 5e-9 from degree 64 on;
# the bound keeps outside input from asking for cost that buys no
# accuracy
MAX_DEGREE = 1000

class InputError(Exception):
    """A malformed invocation or file; maps to exit status 2."""


# ---------------------------------------------------------------------------
# plumbing


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}")


def _write_text(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}")


def _status(line: str) -> None:
    print(line, file=sys.stderr)


def _report_json(rep: VerificationReport) -> str:
    return json.dumps(rep.to_json(), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _load_instance(path: str) -> EquationInstance:
    try:
        return parse_instance(_read_file(path))
    except (ClassError, ParseError) as exc:
        raise InputError(f"{path}: {exc}")


def _load_transform(path: str):
    from .transforms import TransformError, parse_transform

    try:
        return parse_transform(_read_file(path))
    except (TransformError, ParseError, ValueError) as exc:
        raise InputError(f"{path}: {exc}")


def _expr_arg(value: str) -> str:
    """The flag value itself, or the contents of @PATH."""
    if value.startswith("@"):
        return _read_file(value[1:]).strip()
    return value


def _parse_expr(text: str, ctx: Context, what: str) -> Expr:
    try:
        return parse(text, ctx)
    except ParseError as exc:
        raise InputError(f"{what}: {exc}")


def _parse_assume(
    values: Sequence[str], *contexts: Context
) -> List[Tuple[str, str]]:
    """The --assume pairs, each naming a symbol one of contexts declares."""
    pairs: List[Tuple[str, str]] = []
    for text in values:
        for suffix, flag in (
            ("!=0", NONZERO_FLAG), (">0", POSITIVE), ("<0", NEGATIVE)
        ):
            if text.endswith(suffix):
                name = text[: -len(suffix)]
                break
        else:
            raise InputError(
                f"--assume {text!r}: expected NAME>0, NAME<0, or NAME!=0"
            )
        if not name.isidentifier():
            raise InputError(f"--assume {text!r}: {name!r} is not a symbol name")
        if not any(ctx.declares(name) for ctx in contexts):
            raise InputError(
                f"--assume {text!r}: no input declares the symbol {name!r}"
            )
        pairs.append((name, flag))
    return pairs


def _parse_floats(text: str, n: int, what: str) -> List[float]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise InputError(f"{what}: expected {n} comma-separated numbers")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise InputError(f"{what}: {text!r} is not numeric")
    if not all(map(math.isfinite, values)):
        raise InputError(f"{what}: {text!r} holds a number that is not finite")
    return values


def _from_report(rep: VerificationReport) -> int:
    return EXIT_PASS if rep.ok else EXIT_MATH


# ---------------------------------------------------------------------------
# subcommands


def _cmd_parse_check(args: argparse.Namespace) -> int:
    ctx = class_context(ClassId(args.class_id))
    text = _read_file(args.exprfile).strip()
    e = _parse_expr(text, ctx, args.exprfile)
    canonical = format_expr(e)
    _write_text(args.out, canonical + "\n")
    if _parse_expr(canonical, ctx, "canonical form") == e:
        _status(f"parse-check: OK ({args.exprfile} round-trips)")
        return EXIT_PASS
    _status("parse-check: FAIL (canonical form parsed to a different tree)")
    return EXIT_MATH


def _cmd_membership(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    rep = check_membership(
        inst, tol=args.tol, seed=args.seed,
        assumptions=_parse_assume(args.assume, inst.context()),
    )
    _write_text(args.out, _report_json(rep))
    _status(f"membership: {rep.verdict}")
    return _from_report(rep)


def _format_map(res: ApplyResult, dep: str) -> str:
    lines = [
        f"t = {format_expr(res.map.t)}",
        f"x = {format_expr(res.map.x)}",
        f"{dep} = {format_expr(res.map.u)}",
    ]
    if res.inverse is not None:
        lines.append(f"inverse.t = {format_expr(res.inverse.t)}")
        lines.append(f"inverse.x = {format_expr(res.inverse.x)}")
        lines.append(f"inverse.{dep} = {format_expr(res.inverse.u)}")
    return "\n".join(lines) + "\n"


def _cmd_transform(args: argparse.Namespace) -> int:
    from .transforms import TransformError, apply_transform, transform_context

    tr = _load_transform(args.transform)
    inst = _load_instance(args.instance)
    assume = _parse_assume(
        args.assume, inst.context(), transform_context(tr.family)
    )
    try:
        res = apply_transform(
            tr, inst, tol=args.tol, seed=args.seed, assumptions=assume
        )
        # the target is built on this first read
        target = res.target
    except TransformError as exc:
        rep = rejected_report(
            str(exc), args.tol, args.seed, "transform not applicable: "
        )
        if args.out:
            _write_text(args.out, _report_json(rep))
        _status(f"transform: {REJECTED} ({exc})")
        return EXIT_MATH
    note = ""
    if target is None:
        target = EquationInstance(res.source.class_id, dict(res.pullback))
        note = " (elements in source coordinates; no closed-form inverse)"
    _write_text(args.out, format_instance(target))
    if args.map_out:
        _write_text(args.map_out, _format_map(res, inst.dependent))
    _status(f"transform: {tr.family} applied to {inst.class_id}{note}")
    return EXIT_PASS


def _cmd_compose(args: argparse.Namespace) -> int:
    from .transforms import TransformError, compose, format_transform

    first = _load_transform(args.first)
    second = _load_transform(args.second)
    try:
        out = compose(second, first)
    except TransformError as exc:
        raise InputError(str(exc))
    _write_text(args.out, format_transform(out))
    _status(f"compose: {first.family} then {second.family} -> {out.family}")
    return EXIT_PASS


def _cmd_invert(args: argparse.Namespace) -> int:
    from .transforms import ImplicitInverseOf, TransformError, format_transform, invert

    tr = _load_transform(args.transform)
    try:
        inv = invert(tr)
    except TransformError as exc:
        raise InputError(str(exc))
    _write_text(args.out, format_transform(inv))
    if isinstance(inv, ImplicitInverseOf):
        _status("invert: no closed form; implicit marker written")
    else:
        _status(f"invert: {inv.family}")
    return EXIT_PASS


def _cmd_gauge(args: argparse.Namespace) -> int:
    from .transforms import (
        TransformError, format_transform, gauge_a_to_one, gauge_b_to_zero,
    )

    inst = _load_instance(args.instance)
    assume = _parse_assume(args.assume, inst.context())
    fn = gauge_a_to_one if args.mode == "a-to-one" else gauge_b_to_zero
    try:
        g = fn(inst, tol=args.tol, seed=args.seed, assumptions=assume)
    except TransformError as exc:
        rep = rejected_report(str(exc), args.tol, args.seed, f"gauge {args.mode}: ")
        _write_text(args.out, _report_json(rep))
        _status(f"gauge {args.mode}: {REJECTED}")
        return EXIT_MATH
    _write_text(args.out, _report_json(g.report))
    if args.transform_out:
        _write_text(args.transform_out, format_transform(g.transform))
    if args.instance_out and g.instance is not None:
        _write_text(args.instance_out, format_instance(g.instance))
    _status(f"gauge {args.mode}: {g.report.verdict}")
    return EXIT_PASS if g.ok else EXIT_MATH


def _cmd_linearize(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    out_inst = linearizable_from_linear(inst)
    _write_text(args.out, format_instance(out_inst))
    _status(f"linearize: {inst.class_id} -> {out_inst.class_id} (f = 2 c_x)")
    return EXIT_PASS


def _cmd_hopf_cole(args: argparse.Namespace) -> int:
    from .hopfcole import hopf_cole_report
    from .transforms import LinearTransform

    inst = _load_instance(args.instance)
    if inst.class_id != ClassId.LINEAR:
        raise InputError(
            f"{args.instance}: hopf-cole needs a LINEAR member, "
            f"got {inst.class_id}"
        )
    assume = _parse_assume(
        args.assume, inst.context(), linearizable_from_linear(inst).context()
    )
    v = _parse_expr(_expr_arg(args.v), inst.context(), "--v")
    tr = None
    if args.transform:
        tr = _load_transform(args.transform)
        if not isinstance(tr, LinearTransform):
            raise InputError(
                f"{args.transform}: hopf-cole needs family = LINEAR, "
                f"got {tr.family}"
            )
    rep, u = hopf_cole_report(
        inst, v, tr, tol=args.tol, seed=args.seed, assumptions=assume
    )
    _write_text(args.out, _report_json(rep))
    if args.u_out:
        _write_text(args.u_out, format_expr(u) + "\n")
    _status(f"hopf-cole: {rep.verdict}")
    return _from_report(rep)


def _cmd_verify_solution(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    sol = _parse_expr(_expr_arg(args.solution), inst.context(), "--solution")
    rep = residual(
        inst, sol, tol=args.tol, seed=args.seed,
        assumptions=_parse_assume(args.assume, inst.context()),
    )
    _write_text(args.out, _report_json(rep))
    _status(f"verify-solution: {rep.verdict}")
    return _from_report(rep)


def _cmd_transport(args: argparse.Namespace) -> int:
    from .transforms import transform_context

    tr = _load_transform(args.transform)
    source = _load_instance(args.source)
    target = _load_instance(args.target)
    assume = _parse_assume(
        args.assume,
        source.context(), transform_context(tr.family), target.context(),
    )
    sol = _parse_expr(_expr_arg(args.solution), source.context(), "--solution")
    try:
        rep = transport_check(
            tr, source, target, sol, tol=args.tol, seed=args.seed,
            assumptions=assume,
        )
    except ValueError as exc:
        raise InputError(str(exc))
    _write_text(args.out, _report_json(rep))
    _status(f"transport: {rep.verdict}")
    return _from_report(rep)


def _cmd_symmetry_table(args: argparse.Namespace) -> int:
    from .symmetry import structure_constants

    table = structure_constants()
    payload = {"n": table.n, "closed": table.closed, "matrix": table.matrix()}
    if table.failures:
        payload["failures"] = [
            {"i": i, "j": j, "bracket": text} for i, j, text in table.failures
        ]
    _write_text(
        args.out, json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    )
    state = "closed" if table.closed else "not closed"
    _status(f"symmetry-table: {state} ({table.n} fields)")
    return EXIT_PASS if table.closed else EXIT_MATH


def _cmd_symmetry_check(args: argparse.Namespace) -> int:
    from .symmetry import is_symmetry, reflection
    from .transforms import ProjectiveTuple, compose

    tr = _load_transform(args.transform)
    if not isinstance(tr, ProjectiveTuple):
        raise InputError(
            f"{args.transform}: symmetry-check needs family = PROJECTIVE, "
            f"got {tr.family}"
        )
    if args.reflect:
        tr = compose(reflection(), tr)
    rep = is_symmetry(tr, tol=args.tol, seed=args.seed)
    _write_text(args.out, _report_json(rep))
    _status(f"symmetry-check: {rep.verdict}")
    return _from_report(rep)


def _format_grid(quad: DegDivQuadrature, n: int) -> str:
    lines = ["t\tT\tX0"]
    for tv, Tv, Xv in zip(*quad.sample(n)):
        lines.append(f"{float(tv)!r}\t{float(Tv)!r}\t{float(Xv)!r}")
    return "\n".join(lines) + "\n"


def _cmd_deg_div_solve(args: argparse.Namespace) -> int:
    # the only command that needs numpy
    from .degdiv import MIN_POINTS, DegDivError, DegDivSolution, solve_deg_div

    if not 1 <= args.degree <= MAX_DEGREE:
        raise InputError(f"--degree {args.degree}: need 1 <= DEGREE <= {MAX_DEGREE}")
    if args.points < MIN_POINTS:
        raise InputError(
            f"--points {args.points}: the residual stencil needs at least {MIN_POINTS}"
        )

    ctx = Context()
    ctx.add_var("t")
    ctx.add_var("x")
    f1 = _parse_expr(_expr_arg(args.f1), ctx, "--f1")
    f2 = _parse_expr(_expr_arg(args.f2), ctx, "--f2")
    try:
        kappa = Fraction(args.kappa)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"--kappa {args.kappa!r}: not a rational number")
    constants = _parse_floats(args.constants, 5, "--constants")
    t_lo, t_hi = _parse_floats(args.t_span, 2, "--t-span")
    if not t_hi > t_lo:
        raise InputError("--t-span: need LO < HI")
    try:
        sol = DegDivSolution(
            f1=f1, f2=f2, kappa=kappa,
            constants=tuple(constants), sigma=args.sigma,
        )
    except DegDivError as exc:
        raise InputError(str(exc))
    try:
        quad = solve_deg_div(sol, t_span=(t_lo, t_hi), degree=args.degree)
        rep = quad.report(tol=args.tol, n=args.points)
    except DegDivError as exc:
        rep = rejected_report(str(exc), args.tol, 0, "deg-div-solve: ")
        _write_text(args.out, _report_json(rep))
        _status(f"deg-div-solve: {REJECTED} ({exc})")
        return EXIT_MATH
    _write_text(args.out, _report_json(rep))
    if args.grid_out:
        _write_text(args.grid_out, _format_grid(quad, args.points))
    _status(f"deg-div-solve: {rep.verdict} ({rep.summary})")
    return _from_report(rep)


# ---------------------------------------------------------------------------
# parser


def _out_flag(p: argparse.ArgumentParser, what: str) -> None:
    p.add_argument(
        "--out", metavar="PATH", help=f"write {what} here (default: stdout)"
    )


def _check_flags(
    p: argparse.ArgumentParser, tol: float = 1e-9, assume: bool = True
) -> None:
    p.add_argument(
        "--seed", type=int, default=42, help="sampling seed (default 42)"
    )
    p.add_argument(
        "--tol", type=float, default=tol,
        help=f"numeric tolerance (default {tol:g})",
    )
    if assume:
        p.add_argument(
            "--assume", action="append", default=[], metavar="NAME{>0,<0,!=0}",
            help="sign or nonzero assumption on a declared symbol; repeatable",
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gbeq",
        description=(
            "Equivalence transformations of generalized Burgers classes: "
            "apply, compose, invert, gauge, bridge, and verify, over plain "
            "text files."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser(
        "parse-check",
        help="parse an expression file and confirm it round-trips",
    )
    p.add_argument("exprfile", help="file holding one expression")
    p.add_argument(
        "--class", dest="class_id", default="BURGERS",
        choices=[c.value for c in ClassId],
        help="class whose symbols are in scope (default BURGERS)",
    )
    _out_flag(p, "the canonical form")
    p.set_defaults(handler=_cmd_parse_check)

    p = sub.add_parser("membership", help="check class membership conditions")
    p.add_argument("instance", help="instance file")
    _out_flag(p, "the JSON report")
    _check_flags(p)
    p.set_defaults(handler=_cmd_membership)

    p = sub.add_parser(
        "transform", help="apply a transform to a member and emit the target"
    )
    p.add_argument("transform", help="transform file")
    p.add_argument("instance", help="instance file")
    _out_flag(p, "the target instance")
    p.add_argument(
        "--map-out", metavar="PATH",
        help="also write the point maps (and inverse when closed-form)",
    )
    _check_flags(p)
    p.set_defaults(handler=_cmd_transform)

    p = sub.add_parser(
        "compose", help="compose two transforms (first, then second)"
    )
    p.add_argument("first", help="transform applied first")
    p.add_argument("second", help="transform applied second")
    _out_flag(p, "the composite transform")
    p.set_defaults(handler=_cmd_compose)

    p = sub.add_parser("invert", help="invert a transform")
    p.add_argument("transform", help="transform file")
    _out_flag(p, "the inverse (marked implicit when no closed form exists)")
    p.set_defaults(handler=_cmd_invert)

    p = sub.add_parser("gauge", help="apply a gauge reduction")
    p.add_argument(
        "mode", choices=("a-to-one", "b-to-zero"), help="which gauge to apply"
    )
    p.add_argument("instance", help="instance file")
    _out_flag(p, "the JSON report")
    p.add_argument(
        "--transform-out", metavar="PATH", help="write the gauging transform"
    )
    p.add_argument(
        "--instance-out", metavar="PATH", help="write the narrowed instance"
    )
    _check_flags(p)
    p.set_defaults(handler=_cmd_gauge)

    p = sub.add_parser(
        "linearize", help="bridge a LINEAR member to its nonlinear image"
    )
    p.add_argument("instance", help="LINEAR instance file")
    _out_flag(p, "the bridged instance")
    p.set_defaults(handler=_cmd_linearize)

    p = sub.add_parser(
        "hopf-cole",
        help="map a linear solution to u = 2 v_x / v and verify the bridge",
    )
    p.add_argument("instance", help="LINEAR instance file")
    p.add_argument(
        "--v", required=True, metavar="EXPR",
        help="solution of the LINEAR member (or @PATH)",
    )
    p.add_argument(
        "--transform", metavar="PATH",
        help="LINEAR-family transform to carry across the bridge",
    )
    _out_flag(p, "the JSON report")
    p.add_argument("--u-out", metavar="PATH", help="write the u expression")
    _check_flags(p)
    p.set_defaults(handler=_cmd_hopf_cole)

    p = sub.add_parser(
        "verify-solution", help="grade the PDE residual of a candidate solution"
    )
    p.add_argument("instance", help="instance file")
    p.add_argument(
        "--solution", required=True, metavar="EXPR",
        help="candidate solution (or @PATH)",
    )
    _out_flag(p, "the JSON report")
    _check_flags(p)
    p.set_defaults(handler=_cmd_verify_solution)

    p = sub.add_parser(
        "transport",
        help="check that a transform carries source, target, and solution",
    )
    p.add_argument("transform", help="transform file")
    p.add_argument("source", help="source instance file")
    p.add_argument("target", help="claimed target instance file")
    p.add_argument(
        "--solution", required=True, metavar="EXPR",
        help="solution of the source member (or @PATH)",
    )
    _out_flag(p, "the JSON report")
    _check_flags(p)
    p.set_defaults(handler=_cmd_transport)

    p = sub.add_parser(
        "symmetry-table",
        help="emit the structure constants of the symmetry algebra",
    )
    _out_flag(p, "the JSON table")
    p.set_defaults(handler=_cmd_symmetry_table)

    p = sub.add_parser(
        "symmetry-check",
        help="test whether a projective tuple is a symmetry",
    )
    p.add_argument("transform", help="PROJECTIVE transform file")
    p.add_argument(
        "--reflect", action="store_true",
        help="pre-compose with the reflection x -> -x, u -> -u",
    )
    _out_flag(p, "the JSON report")
    _check_flags(p, assume=False)
    p.set_defaults(handler=_cmd_symmetry_check)

    p = sub.add_parser(
        "deg-div-solve",
        help="solve the degenerate divergence-form ODE pair by quadrature",
    )
    p.add_argument(
        "--f1", required=True, metavar="EXPR",
        help="x-linear coefficient, an expression in t (or @PATH)",
    )
    p.add_argument(
        "--f2", required=True, metavar="EXPR",
        help="x-quadratic coefficient, an expression in t (or @PATH)",
    )
    p.add_argument(
        "--kappa", default="1", metavar="Q",
        help="x-scaling of the transform, a rational (default 1)",
    )
    p.add_argument(
        "--constants", default="0,1,1,0,0", metavar="C0,C1,C2,C3,C4",
        help="integration constants (default 0,1,1,0,0)",
    )
    p.add_argument(
        "--sigma", type=int, choices=(1, -1), default=1,
        help="sign of T_t (default 1)",
    )
    p.add_argument(
        "--t-span", default="0.1,1", metavar="LO,HI",
        help="solve on [LO, HI] (default 0.1,1)",
    )
    p.add_argument(
        "--degree", type=int, default=64,
        help=f"Chebyshev interpolation degree, 1 to {MAX_DEGREE} (default 64)",
    )
    p.add_argument(
        "--points", type=int, default=201,
        help="residual / grid sample count, at least 9 (default 201)",
    )
    _out_flag(p, "the JSON report")
    p.add_argument(
        "--grid-out", metavar="PATH", help="write a t, T, X0 table"
    )
    p.add_argument(
        "--tol", type=float, default=1e-6,
        help="residual tolerance (default 1e-06)",
    )
    p.set_defaults(handler=_cmd_deg_div_solve)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # every subcommand with --tol grades against it; NaN fails this too
        if not 0.0 <= getattr(args, "tol", 0.0) < math.inf:
            raise InputError(f"--tol {args.tol!r}: need a finite number >= 0")
        return args.handler(args)
    except (InputError, ExprError, ClassError) as exc:
        print(f"gbeq {args.command}: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
