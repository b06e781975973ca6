"""Command-line surface: evaluate expressions, run checks, solve windows.

Exit codes: 0 = check passed / solve completed, 1 = check failed,
2 = usage or parse error, 3 = a map was applied outside its recorded
domain.  All report content goes to stdout and is byte-identical across
runs; timing goes to stderr.  Every command runs serially.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import __version__
from .bimaps import interior_projection, is_biderivation, solve_biderivations, symmetry_class
from .commuting import is_commuting, solve_commuting
from .core import LIE_HV, LIE_W00, Product
from .errors import DomainNotCovered, HvError, ParseError
from .leftsym import LeftSymParams, LeftSymProduct, is_left_symmetric, params_valid
from .leftsym import subadjacent_residual
from .linmaps import Window, decompose_derivation, is_derivation
from .parsing import (
    evaluate_expression,
    parse_bilinear_map_file,
    parse_linear_map_file,
    parse_scalar,
)
from .postlie import is_commutative_postlie
from .render import render_check_report, render_solution_space, render_strata_report
from .scalars import Scalar

# The bracket of the algebra each --product name works in: the full
# algebra, or its centerless quotient.
LIE = {"lie-hv": LIE_HV, "lie-w00": LIE_W00, "leftsym": LIE_HV, "leftsym-quotient": LIE_W00}
PRODUCT_NAMES = tuple(LIE)


def _ls_params(args) -> LeftSymParams:
    if args.epsilon is None:
        raise ParseError("left-symmetric products require --epsilon")
    alpha = parse_scalar(args.alpha) if args.alpha is not None else Scalar(0)
    beta = parse_scalar(args.beta) if args.beta is not None else Scalar(0)
    params = LeftSymParams(alpha, beta, parse_scalar(args.epsilon))
    if not params_valid(params):
        rule = "it needs Re > 0 with 1/epsilon not an integer, or Re = 0 with Im > 0"
        raise ParseError(f"epsilon {params.epsilon} is not admissible: {rule}")
    return params


def _product(name: str, args) -> Product:
    if name.startswith("lie-"):
        return LIE[name]
    return LeftSymProduct(_ls_params(args), quotient=not LIE[name].has_central)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as err:
        raise ParseError(f"cannot read {path}: {err.strerror or err}") from None


def _header(args) -> None:
    print(f"hvalgebra {__version__}")
    print("command: " + " ".join(args._argv))


def _finish_check(args, report) -> int:
    _header(args)
    print(render_check_report(report, args.format))
    return 0 if report.passed else 1


def _cmd_eval(args) -> int:
    lie = LIE[args.product]
    ls = None
    if args.epsilon is not None:
        ls = LeftSymProduct(_ls_params(args), quotient=not lie.has_central)
    print(evaluate_expression(args.expr, lie, ls))
    return 0


def _cmd_check_derivation(args) -> int:
    product = _product(args.product, args)
    m = parse_linear_map_file(_read(args.map), LIE[args.product])
    report = is_derivation(m, product, Window(args.window))
    return _finish_check(args, report)


def _cmd_check_biderivation(args) -> int:
    product = _product(args.product, args)
    f = parse_bilinear_map_file(_read(args.map))
    window = Window(args.window)
    code = _finish_check(args, is_biderivation(f, product, window))
    sep = "=" if args.format == "machine" else ": "
    print(f"symmetry{sep}{symmetry_class(f, window, product)}")
    return code


def _cmd_check_commuting(args) -> int:
    phi = parse_linear_map_file(_read(args.map), LIE_HV)
    report = is_commuting(phi, Window(args.window))
    return _finish_check(args, report)


def _cmd_check_postlie(args) -> int:
    text = args.product if args.product.lstrip().startswith("@") else _read(args.product)
    f = parse_bilinear_map_file(text)
    report = is_commutative_postlie(f, Window(args.window))
    return _finish_check(args, report)


def _cmd_solve_biderivations(args) -> int:
    product = _product(args.algebra, args)
    space = solve_biderivations(
        product,
        Window(args.window),
        args.outbound,
        degree=args.degree,
    )
    if args.interior is not None:
        space = interior_projection(space, args.interior)
    _header(args)
    print(render_solution_space(space, args.format))
    return 0


def _cmd_solve_commuting(args) -> int:
    space = solve_commuting(Window(args.window))
    if args.interior is not None:
        space = interior_projection(space, args.interior)
    _header(args)
    print(render_solution_space(space, args.format))
    return 0


def _cmd_report_leftsym(args) -> int:
    product = LeftSymProduct(_ls_params(args))
    window = Window(args.window)
    full = is_left_symmetric(product, window)
    # the noncentral verdict reads the same residuals off the central strata
    central_only = not any(c.residual.noncentral() for c in full.counterexamples)
    noncentral = "pass" if central_only else "fail"
    all_strata = "pass" if full.passed else "fail"
    strata = subadjacent_residual(product, window)
    _header(args)
    if args.format == "machine":
        print(f"identity-noncentral={noncentral}")
        print(f"identity-all-strata={all_strata}")
    else:
        print(f"left-symmetric identity, noncentral strata: {noncentral} "
              f"({full.checked} checked, {full.skipped} skipped)")
        print(f"left-symmetric identity, all strata: {all_strata} "
              f"({len(full.counterexamples)} nonzero residuals)")
    print(render_strata_report(strata, args.format))
    return 0


def _cmd_decompose(args) -> int:
    d = parse_linear_map_file(_read(args.map), LIE_W00)
    result = decompose_derivation(d, Window(args.window))
    _header(args)
    if result is None:
        print("status: no-solution" if args.format == "text" else "status=no-solution")
    else:
        print("status: decomposed" if args.format == "text" else "status=decomposed")
        print(str(result))
    return 0


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _add_common(parser):
    parser.add_argument("--window", type=int, required=True, metavar="N",
                        help="check/solve on basis indices |n| <= N")
    parser.add_argument("--jobs", type=positive_int, default=1,
                        help="accepted for compatibility and changes nothing "
                        "(work runs serially); at least 1")
    parser.add_argument("--format", choices=("text", "machine"), default="text")


def _add_ls_flags(parser):
    parser.add_argument("--alpha", metavar="SCALAR")
    parser.add_argument("--beta", metavar="SCALAR")
    parser.add_argument("--epsilon", metavar="SCALAR")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hval",
        description="Exact checks and window solves for a twisted "
        "Heisenberg-Virasoro algebra toolkit.",
    )
    parser.add_argument("--version", action="version", version=f"hvalgebra {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("eval", help="evaluate an element expression")
    p.add_argument("expr")
    p.add_argument("--product", choices=PRODUCT_NAMES, default="lie-hv")
    _add_ls_flags(p)
    p.set_defaults(func=_cmd_eval)

    check = sub.add_parser("check", help="verify a map against an identity")
    check_sub = check.add_subparsers(dest="what", required=True)

    p = check_sub.add_parser("derivation")
    p.add_argument("--map", required=True)
    p.add_argument("--product", choices=PRODUCT_NAMES, default="lie-hv")
    _add_ls_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_check_derivation)

    p = check_sub.add_parser("biderivation")
    p.add_argument("--map", required=True)
    p.add_argument("--product", choices=PRODUCT_NAMES, default="lie-hv")
    _add_ls_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_check_biderivation)

    p = check_sub.add_parser("commuting")
    p.add_argument("--map", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_check_commuting)

    p = check_sub.add_parser("postlie")
    p.add_argument("--product", required=True,
                   help="bilinear map file, or inline directives like '@romega { 0: 1 }'")
    _add_common(p)
    p.set_defaults(func=_cmd_check_postlie)

    solve = sub.add_parser("solve", help="solve an identity's windowed equations")
    solve_sub = solve.add_subparsers(dest="what", required=True)

    p = solve_sub.add_parser("biderivations")
    p.add_argument("--algebra", choices=PRODUCT_NAMES, default="lie-hv")
    p.add_argument("--outbound", type=int, required=True, metavar="M",
                   help="output index bound (at least 2N)")
    p.add_argument("--degree", type=int, default=None,
                   help="restrict unknowns to one graded slice")
    p.add_argument("--interior", type=int, default=None, metavar="N_INT",
                   help="project solutions to interior argument pairs")
    _add_ls_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_solve_biderivations)

    p = solve_sub.add_parser("commuting")
    p.add_argument("--interior", type=int, default=None, metavar="N_INT")
    _add_common(p)
    p.set_defaults(func=_cmd_solve_commuting)

    report = sub.add_parser("report", help="emit a diagnostic report")
    report_sub = report.add_subparsers(dest="what", required=True)
    p = report_sub.add_parser("leftsym")
    _add_ls_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_report_leftsym)

    p = sub.add_parser("decompose", help="split a quotient derivation into "
                       "inner and outer parts")
    p.add_argument("--map", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_decompose)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code or 0)
    args._argv = argv
    started = time.perf_counter()
    try:
        code = args.func(args)
    except DomainNotCovered as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (HvError, ValueError, ZeroDivisionError, OverflowError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(f"elapsed: {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
