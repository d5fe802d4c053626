"""Command-line driver: place guards, verify coverage, generate corpus
polygons.

Exit codes: 0 success, 1 input error, 2 uncertified placement,
3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

# ``decompose`` is not called here; it stays importable as ``cli.decompose``,
# which bench/tracer.py wraps.
from .decomposition import FAST, MINIMAL, decompose  # noqa: F401
from .fileio import (
    ParseError,
    parse_guards,
    parse_polygon,
    write_guards,
    write_polygon,
    write_report,
)
from .generators import FAMILIES, GenSpec, GenerationError, generate
from .geometry import InvalidPolygonError
from .placement import guard_with_holes, place_guards
from .svg import render_svg
from .verify import SamplePlan, coverage

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_UNCERTIFIED = 2
EXIT_COVERAGE = 3


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)


def _cmd_place(args) -> int:
    try:
        poly, warnings = parse_polygon(_read(args.input))
    except (OSError, ParseError, InvalidPolygonError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    for w in warnings:
        print(f"note: {w}", file=sys.stderr)
    if args.k < 2:
        print("error: k must be at least 2", file=sys.stderr)
        return EXIT_INPUT
    epsilon = Fraction(args.epsilon).limit_denominator(10**12) if args.epsilon else None
    try:
        if poly.holes:
            gs, trace = guard_with_holes(
                poly, args.k, mode=args.mode, epsilon=epsilon, seed=args.seed
            )
        else:
            gs, trace = place_guards(
                poly, args.k, mode=args.mode, epsilon=epsilon, seed=args.seed
            )
    except InvalidPolygonError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    for w in trace.diagnostics.get("warnings", []):
        print(f"note: {w}", file=sys.stderr)
    out_text = write_guards(gs)
    if args.out:
        _write(args.out, out_text)
    else:
        sys.stdout.write(out_text)
    if args.svg:
        _write(
            args.svg,
            render_svg(poly, decomposition=trace.decomposition, guards=gs, trace=trace),
        )
    if args.trace:
        doc = {
            "certified": trace.certified,
            "diagnostics": trace.diagnostics,
            "steps": [
                {
                    "piece": s.piece,
                    "guards": s.guards,
                    "sweep": s.sweep_status,
                    "relocations": s.relocations,
                    "merged": (
                        [
                            [str(s.merged_diagonal.a.x), str(s.merged_diagonal.a.y)],
                            [str(s.merged_diagonal.b.x), str(s.merged_diagonal.b.y)],
                        ]
                        if s.merged_diagonal
                        else None
                    ),
                }
                for s in trace.steps
            ],
        }
        _write(args.trace, json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    if not trace.certified:
        sc = trace.diagnostics.get("self_check", {})
        print(
            f"placement uncertified: min coverage {sc.get('min_coverage')} "
            f"over {sc.get('samples')} samples",
            file=sys.stderr,
        )
        return EXIT_UNCERTIFIED
    return EXIT_OK


def _cmd_verify(args) -> int:
    try:
        poly, _ = parse_polygon(_read(args.input))
        gs = parse_guards(_read(args.guards))
    except (OSError, ParseError, InvalidPolygonError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    if not gs.guards:
        print("error: guard file holds no guards", file=sys.stderr)
        return EXIT_INPUT
    if args.k != gs.k:
        print(f"note: --k {args.k} overrides the guard file's k={gs.k}", file=sys.stderr)
    gs.k = args.k
    plan = SamplePlan(
        grid_density=args.grid,
        random_count=args.samples,
        near_feature_count=8,
        seed=args.seed,
    )
    report = coverage(poly, gs, plan, piece_count=gs.piece_count, target_m=args.m)
    text = write_report(report)
    if args.report:
        _write(args.report, text)
    else:
        sys.stdout.write(text)
    if report.min_coverage >= args.m:
        return EXIT_OK
    print(
        f"coverage failure: min {report.min_coverage} < m={args.m} "
        f"({len(report.violations)} violating samples)",
        file=sys.stderr,
    )
    return EXIT_COVERAGE


def _cmd_gen(args) -> int:
    try:
        spec = GenSpec(family=args.family, n=args.n, seed=args.seed, param=args.param)
        poly = generate(spec)
    except (ValueError, GenerationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    text = write_polygon(poly, name=f"{args.family}-{args.n}-{args.seed}")
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="kvisguard",
        description="Edge-restricted guard placement under k-visibility, "
        "with a sampling coverage oracle.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("place", help="place guards on a polygon")
    p.add_argument("--input", required=True, help="polygon file (JSON)")
    p.add_argument("--k", type=int, required=True, help="visibility parameter (even)")
    p.add_argument("--mode", choices=[MINIMAL, FAST], default=MINIMAL)
    p.add_argument("--epsilon", type=float, default=None, help="shift of each guard along its host edge")
    p.add_argument("--out", help="guard file destination (default stdout)")
    p.add_argument("--svg", help="write an SVG rendering here")
    p.add_argument("--trace", help="write the placement trace here")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_place)

    v = sub.add_parser("verify", help="verify M-coverage of a guard file")
    v.add_argument("--input", required=True)
    v.add_argument("--guards", required=True)
    v.add_argument("--k", type=int, required=True)
    v.add_argument("--m", type=int, required=True, help="required coverage multiplicity")
    v.add_argument("--samples", type=int, default=2000, help="random sample count")
    v.add_argument("--grid", type=int, default=64, help="grid density per axis")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--report", help="coverage report destination (default stdout)")
    v.set_defaults(fn=_cmd_verify)

    g = sub.add_parser("gen", help="generate a corpus polygon")
    g.add_argument("--family", required=True, choices=list(FAMILIES))
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--param", type=int, default=None, help="teeth/turns/steps/holes")
    g.add_argument("--out", help="polygon file destination (default stdout)")
    g.set_defaults(fn=_cmd_gen)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
