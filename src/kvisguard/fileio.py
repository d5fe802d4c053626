"""Line-oriented JSON documents: polygons, guard sets, coverage reports.

One JSON object per file.  Coordinates accept integers, decimal literals
(parsed exactly, never through binary floats) and rational strings "a/b";
rationals are written back as "numerator/denominator" so round-trips are
lossless.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .geometry import Point, PolygonWithHoles, coerce_coord, normalize_ring
from .placement import Guard, GuardSet
from .verify import CoverageReport


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        where = f" at line {line}, column {column}" if line is not None else ""
        super().__init__(f"{message}{where}")
        self.line = line
        self.column = column


def _loads(text: str) -> dict:
    try:
        return json.loads(text, parse_float=Fraction)
    except json.JSONDecodeError as e:
        raise ParseError(e.msg, e.lineno, e.colno) from e


def _coord_out(c):
    if isinstance(c, Fraction) and c.denominator != 1:
        return f"{c.numerator}/{c.denominator}"
    return int(c)


def _coord_in(v):
    if isinstance(v, bool):
        raise ParseError(f"invalid coordinate: {v!r}")
    if isinstance(v, (int, Fraction)):
        return coerce_coord(v)
    if isinstance(v, str):
        try:
            return coerce_coord(Fraction(v))
        except (ValueError, ZeroDivisionError) as e:
            raise ParseError(f"invalid rational literal: {v!r}") from e
    raise ParseError(f"invalid coordinate: {v!r}")


def _vertex_list(raw, what: str) -> list[Point]:
    if not isinstance(raw, list):
        raise ParseError(f"{what} must be a list of [x, y] pairs")
    out = []
    for item in raw:
        if not isinstance(item, list) or len(item) != 2:
            raise ParseError(f"{what} entries must be [x, y] pairs, got {item!r}")
        out.append(Point(_coord_in(item[0]), _coord_in(item[1])))
    return out


def parse_polygon(text: str):
    """Parse and validate a polygon document.  Returns (polygon, warnings);
    normalization (orientation fixes, collinear collapse) is reported in the
    warnings list."""
    doc = _loads(text)
    if not isinstance(doc, dict) or "outer" not in doc:
        raise ParseError('polygon document needs an "outer" vertex list')
    warnings: list[str] = []
    outer_pts = _vertex_list(doc["outer"], "outer")
    outer, w = normalize_ring(outer_pts, force_ccw=True)
    warnings.extend(f"outer: {m}" for m in w)
    holes = []
    for hi, raw in enumerate(doc.get("holes", [])):
        pts = _vertex_list(raw, f"hole {hi}")
        hole, w = normalize_ring(pts, force_ccw=False)
        warnings.extend(f"hole {hi}: {m}" for m in w)
        holes.append(hole)
    poly = PolygonWithHoles(outer, holes)  # raises InvalidPolygonError
    return poly, warnings


def write_polygon(poly: PolygonWithHoles, name: str | None = None) -> str:
    doc: dict = {}
    if name:
        doc["name"] = name
    doc["outer"] = [[_coord_out(v.x), _coord_out(v.y)] for v in poly.outer.vertices]
    if poly.holes:
        doc["holes"] = [
            [[_coord_out(v.x), _coord_out(v.y)] for v in h.vertices] for h in poly.holes
        ]
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def write_guards(gs: GuardSet) -> str:
    doc = {
        "k": gs.k,
        "target_m": gs.target_m,
        "guards": [
            {
                "position": [_coord_out(g.position.x), _coord_out(g.position.y)],
                "host": {
                    "kind": g.host_kind,
                    "index": g.host_index,
                    "t": _coord_out(g.t),
                },
                "role": g.role,
            }
            for g in gs.guards
        ],
    }
    if gs.piece_count is not None:
        doc["piece_count"] = gs.piece_count
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def parse_guards(text: str) -> GuardSet:
    doc = _loads(text)
    for key in ("k", "target_m", "guards"):
        if key not in doc:
            raise ParseError(f'guard document needs "{key}"')
    guards = []
    for i, raw in enumerate(doc["guards"]):
        try:
            host = raw["host"]
            guards.append(
                Guard(
                    position=Point(
                        _coord_in(raw["position"][0]), _coord_in(raw["position"][1])
                    ),
                    host_kind=host["kind"],
                    host_index=int(host["index"]),
                    t=Fraction(_coord_in(host["t"])),
                    k=int(doc["k"]),
                    role=raw.get("role", "base"),
                )
            )
        except (KeyError, TypeError, IndexError) as e:
            raise ParseError(f"guard {i} is malformed: {e}") from e
    return GuardSet(
        guards=tuple(guards),
        k=int(doc["k"]),
        target_m=int(doc["target_m"]),
        piece_count=doc.get("piece_count"),
    )


def write_report(report: CoverageReport, samples: int | None = None) -> str:
    doc = {
        "min_coverage": report.min_coverage,
        "target_m": report.target_m,
        "samples": samples if samples is not None else len(report.per_sample),
        "histogram": {str(k): v for k, v in report.histogram.items()},
        "violations": [
            [_coord_out(p.x), _coord_out(p.y), c] for p, c in report.violations[:256]
        ],
        "violation_count": len(report.violations),
        "degenerate_dropped": report.degenerate_dropped,
    }
    if report.guard_bound_ok is not None:
        doc["guard_bound_ok"] = report.guard_bound_ok
    if report.parallel_fallback is not None:
        doc["parallel_fallback"] = report.parallel_fallback
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def parse_report(text: str) -> dict:
    return _loads(text)
