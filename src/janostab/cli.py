"""Command-line surface.

Subcommands: coeffs | verify-lemmas | check-stability | self-check |
search | plot.  Reports are JSON, tables are CSV (17 significant digits,
round-trip exact), figures are SVG 1.1 (6-decimal coordinates).  Identical
flags always produce byte-identical output; files are written atomically.
``main`` builds its parser once per process; in-process callers reuse it.
A call that names a subcommand is parsed once, by that subcommand's parser;
any other call, or one with arguments left over, goes through the whole
parser, so every usage text, error message and exit code is the same.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys

from .figure import (
    compute_figure_geometry,
    geometry_csv_documents,
    load_geometry_csvs,
    render_svg,
)
from .inequalities import GridSpec, _lattice_size, check_alternating_identity, check_coeff_lemmas
from .janowski import JanowskiParams, coeff_table, convolution_coeffs
from .search import SWEEP_CSV_HEADER, sweep_parameter_grid
from .serialize import csv_text, dumps, write_text_atomic
from .series import BranchFailureError, check_size
from .subordination import (
    DISK_SOURCES,
    KNOWN_COUNTEREXAMPLE,
    SampleGrid,
    check_stability_vs_base,
    check_stability_vs_self,
    reference_disk_comparison,
)

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2
EXIT_BRANCH_FAILURE = 3

# The longest coefficient list (convolutions are quadratic in it), and the
# coefficient-samples one lemma value is charged (2**23 values fill MAX_WORK).
MAX_ORDER = 10_000
LEMMA_PRICE = 32


def _finite_float(text: str) -> float:
    """A tolerance; with nan or inf a margin comparison no longer depends
    on the margin."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _floats_csv(text: str) -> tuple:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}") from exc


def _ints_csv(text: str) -> tuple:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from exc


def _complex_pair(text: str):
    if text.strip() == "":
        return None
    try:
        re_s, im_s = text.split(",")
        return complex(float(re_s), float(im_s))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected 're,im', got {text!r}") from exc


def _emit(text: str, out_path) -> None:
    if out_path:
        write_text_atomic(out_path, text)
    else:
        sys.stdout.write(text)


def _params_args(sub, defaults=(None, None, None)):
    d_a, d_b, d_lam = defaults
    required = d_a is None
    sub.add_argument("--A", type=float, required=required, default=d_a)
    sub.add_argument("--B", type=float, required=required, default=d_b)
    sub.add_argument("--lambda", dest="lam", type=float, required=required, default=d_lam)


def cmd_coeffs(args) -> int:
    params = JanowskiParams(args.A, args.B, args.lam)
    if args.n_max < 0:
        raise ValueError("--n-max must be >= 0")
    check_size(args.n_max, 0, 0, MAX_ORDER)
    ns = list(range(args.n_max + 1))
    conv = convolution_coeffs(params, args.n_max) if args.method in ("convolution", "both") else None
    rec = (coeff_table(params.A, params.B, params.lam, args.n_max)
           if args.method != "convolution" else None)
    if args.method == "both":
        rows = [[n, float(conv[n]), float(rec[n]), float(abs(conv[n] - rec[n]))] for n in ns]
        header = ("n", "a_convolution", "a_recurrence", "abs_diff")
    else:
        vals = conv if conv is not None else rec
        rows = [[n, float(vals[n])] for n in ns]
        header = ("n", "a_n")
    if args.format == "csv":
        _emit(csv_text(header, rows), args.out)
    else:
        doc = {"params": params.as_dict(), "method": args.method,
               "rows": [dict(zip(header, row)) for row in rows]}
        _emit(dumps(doc), args.out)
    return EXIT_OK


def cmd_verify_lemmas(args) -> int:
    if args.alt_n_max < 1:
        raise ValueError("--alt-n-max must be >= 1")
    if args.n_max < 0 or args.m_max < 0:  # a negative one would lower the count below
        raise ValueError("--n-max and --m-max must be >= 0")
    # the grid's pairs, one point's weighted block and the alternating identity's terms
    points = GridSpec.default_size(args.step, args.lambda_step, args.allow_outside)
    values = (points * (args.n_max + 1) + (args.m_max + 1) * max(args.n_max, 1)
              + _lattice_size(args.lambda_step, 1.0, args.lambda_step) * (args.alt_n_max + 1))
    check_size(max(args.n_max, args.alt_n_max), 0, LEMMA_PRICE * values, MAX_ORDER)
    grid = GridSpec.default(args.n_max, args.m_max, args.step, args.lambda_step, args.allow_outside)
    positivity, pair, weighted = check_coeff_lemmas(grid, args.tol)
    reports = {
        "coeff_positivity": positivity,
        "alternating_identity": check_alternating_identity(grid.lambda_values, args.alt_n_max, args.tol),
        "coeff_pair_inequality": pair,
        "weighted_pair_inequality": weighted,
    }
    total = sum(rep.found for rep in reports.values())
    doc = {
        "grid": {
            "A_values": list(grid.A_values),
            "B_values": list(grid.B_values),
            "lambda_values": list(grid.lambda_values),
            "n_max": grid.n_max,
            "m_max": grid.m_max,
        },
        "tol": args.tol,
        **{name: rep.to_json_dict() for name, rep in reports.items()},
        "violations_total": total,
    }
    _emit(dumps(doc), args.out)
    return EXIT_OK if total == 0 else EXIT_FINDINGS


def cmd_check_stability(args) -> int:
    params = JanowskiParams(args.A, args.B, args.lam)
    if args.n_max < 1:
        raise ValueError("--n-max must be >= 1")
    # the largest circle, once per n: samples x the sum of n + 1 over n = 1..n_max
    check_size(args.n_max, len(args.radii) * args.samples, args.samples * args.n_max * (args.n_max + 3) // 2)
    grid = SampleGrid(radii=args.radii, points_per_circle=args.samples)
    reports = [
        check_stability_vs_base(params, n, grid, tol=args.tol, allow_outside=args.allow_outside)
        for n in range(1, args.n_max + 1)
    ]
    _emit(dumps([rep.to_json_dict() for rep in reports]), args.out)
    verdicts = {rep.verdict for rep in reports}
    if "branch_failure" in verdicts:
        return EXIT_BRANCH_FAILURE
    return EXIT_OK if verdicts == {"pass"} else EXIT_FINDINGS


def cmd_self_check(args) -> int:
    params = JanowskiParams(args.A, args.B, args.lam)
    extra = (args.z0,) if args.z0 is not None else ()
    # one evaluation: the largest circle, if any, and the explicit point
    check_size(args.n, len(args.radii) * args.samples + len(extra),
               (args.n + 1) * (args.samples * min(len(args.radii), 1) + len(extra)))
    grid = SampleGrid(radii=args.radii, points_per_circle=args.samples, extra_points=extra)
    report = check_stability_vs_self(
        params, args.n, args.r, grid, disk_source=args.disk_source, tol=args.tol
    )
    doc = report.to_json_dict()
    if report.worst_point is not None:
        ratio = report.worst_ratio
        doc["witness"] = {
            "z": {"re": report.worst_point.real, "im": report.worst_point.imag},
            "ratio": {"re": ratio.real, "im": ratio.imag},
            "margin": report.worst_margin,
        }
    known = KNOWN_COUNTEREXAMPLE
    if (
        args.disk_source == "closed_form"
        and abs(params.A - known.params.A) < 1e-9
        and abs(params.B - known.params.B) < 1e-9
        and abs(args.r - known.r) < 1e-9
    ):
        doc["reference_disk"] = reference_disk_comparison(params, args.r)
    _emit(dumps(doc), args.out)
    if report.verdict == "branch_failure":
        return EXIT_BRANCH_FAILURE
    return EXIT_FINDINGS if report.verdict == "violated" else EXIT_OK


def cmd_search(args) -> int:
    cells = sweep_parameter_grid(
        args.A_values,
        args.B_values,
        args.lambda_values,
        args.n_values,
        args.r,
        coarse_angles=args.coarse_angles,
        refine_iters=args.refine_iters,
        disk_source=args.disk_source,
    )
    _emit(csv_text(SWEEP_CSV_HEADER, [c.to_csv_row() for c in cells]), args.out)
    return EXIT_OK


def cmd_plot(args) -> int:
    if args.replot_from:
        geometry = load_geometry_csvs(args.replot_from)
    else:
        params = JanowskiParams(args.A, args.B, args.lam)
        if args.z0 is None:
            raise ValueError("--z0 must name a witness point for plotting")
        # the curve and z0 in one evaluation, and the two disks' boundaries
        check_size(args.n, max(args.angles + 1, args.boundary_samples),
                   (args.n + 1) * (args.angles + 1) + 2 * args.boundary_samples)
        geometry = compute_figure_geometry(
            params, args.n, args.r, args.z0,
            curve_angles=args.angles, boundary_samples=args.boundary_samples,
        )
    if args.csv_dir:
        from pathlib import Path

        for name, text in geometry_csv_documents(geometry).items():
            write_text_atomic(Path(args.csv_dir) / name, text)
    _emit(render_svg(geometry), args.out)
    return EXIT_OK


def _accept_negative_values(parser: argparse.ArgumentParser) -> None:
    """Let tokens like '-0.7,-0.679' or '-0.5,0.3' parse as option values.

    argparse only waives the leading-dash rule for bare negative numbers;
    comma lists and complex pairs need a wider matcher.  None of our option
    names start with a digit, so this cannot shadow a real flag.
    """
    matcher = re.compile(r"^-\d|^-\.\d")
    if hasattr(parser, "_negative_number_matcher"):
        parser._negative_number_matcher = matcher


@functools.cache
def build_parser() -> tuple:
    """The one parser of the process and its subcommand parsers by name,
    built on first use.  Reuse is safe: parsing does not mutate them; every
    default is None, a number, a complex, a string or a tuple; ``main``
    finds the ``cmd_*`` handler, and each handler its callees, by module
    global at call time; help and usage texts are formatted when printed."""
    known = KNOWN_COUNTEREXAMPLE
    parser = argparse.ArgumentParser(
        prog="janostab",
        description=(
            "Coefficients, inequality sweeps, subordination (stability) checks, "
            "counterexample search and figure export for the family "
            "((1+Az)/(1+Bz))**lambda."
        ),
    )
    _accept_negative_values(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="dump series coefficients")
    _params_args(p)
    p.add_argument("--n-max", type=int, default=20)
    p.add_argument("--method", choices=("convolution", "recurrence", "both"),
                   default="recurrence")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)

    p = sub.add_parser(
        "verify-lemmas",
        help="coefficient positivity, pair inequalities and the alternating identity on a grid",
    )
    p.add_argument("--step", type=float, default=0.05, help="A/B lattice step")
    p.add_argument("--lambda-step", type=float, default=0.05)
    p.add_argument("--n-max", type=int, default=500)
    p.add_argument("--m-max", type=int, default=100)
    p.add_argument("--alt-n-max", type=int, default=100,
                   help="order bound for the alternating identity")
    p.add_argument("--tol", type=_finite_float, default=1e-12)
    p.add_argument("--allow-outside", action="store_true",
                   help="widen the A lattice beyond 0 (no positivity guarantee there)")
    p.add_argument("--out", default=None)

    p = sub.add_parser("check-stability", help="stability against the A=0 base member")
    _params_args(p)
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--radii", type=_floats_csv, default=(0.9, 0.99, 0.999))
    p.add_argument("--samples", type=int, default=4096)
    p.add_argument("--tol", type=_finite_float, default=1e-6)
    p.add_argument("--allow-outside", action="store_true")
    p.add_argument("--out", default=None)

    p = sub.add_parser("self-check", help="stability of the family member against itself")
    _params_args(p, (known.params.A, known.params.B, known.params.lam))
    p.add_argument("--n", type=int, default=known.n)
    p.add_argument("--r", type=float, default=0.983)
    p.add_argument("--disk-source", choices=DISK_SOURCES, default="mobius_image")
    p.add_argument("--radii", type=_floats_csv, default=(0.9, 0.99, 0.999),
                   help="sample circles as fractions of r")
    p.add_argument("--samples", type=int, default=4096)
    p.add_argument("--tol", type=_finite_float, default=1e-6)
    p.add_argument("--z0", type=_complex_pair,
                   default=complex(known.z0.real, known.z0.imag),
                   help="extra probe point 're,im'; pass '' to drop it")
    p.add_argument("--out", default=None)

    p = sub.add_parser("search", help="sweep a parameter grid for self-stability violations")
    p.add_argument("--A-values", type=_floats_csv, default=(known.params.A,))
    p.add_argument("--B-values", type=_floats_csv, default=(known.params.B,))
    p.add_argument("--lambda-values", type=_floats_csv, default=(known.params.lam,))
    p.add_argument("--n-values", type=_ints_csv, default=(1, 2, 4))
    p.add_argument("--r", type=float, default=0.983)
    p.add_argument("--coarse-angles", type=int, default=256)
    p.add_argument("--refine-iters", type=int, default=8)
    p.add_argument("--disk-source", choices=DISK_SOURCES, default="mobius_image")
    p.add_argument("--out", default=None)

    p = sub.add_parser("plot", help="SVG figure of the ratio curve against the target disks")
    _params_args(p, (known.params.A, known.params.B, known.params.lam))
    p.add_argument("--n", type=int, default=known.n)
    p.add_argument("--r", type=float, default=known.r)
    p.add_argument("--z0", type=_complex_pair,
                   default=complex(known.z0.real, known.z0.imag))
    p.add_argument("--angles", type=int, default=1024)
    p.add_argument("--boundary-samples", type=int, default=720)
    p.add_argument("--csv-dir", default=None)
    p.add_argument("--replot-from", default=None,
                   help="rebuild the SVG from a --csv-dir export instead of recomputing")
    p.add_argument("--out", default=None)

    for child in sub.choices.values():
        _accept_negative_values(child)
    return parser, sub.choices


def main(argv=None) -> int:
    parser, commands = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # a named subcommand is parsed by its own parser alone; anything else, or
    # anything it leaves over, by the whole parser, for its usage and errors
    child = commands.get(argv[0]) if argv else None
    if child is not None:
        args, rest = child.parse_known_args(argv[1:])
        args.command = argv[0]
    if child is None or rest:
        args = parser.parse_args(argv)
    try:
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except BranchFailureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BRANCH_FAILURE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
