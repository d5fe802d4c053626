"""Exact planar primitives: points, segments, rings, polygons with holes.

Coordinates are exact rationals (``int`` or ``fractions.Fraction``); every
predicate evaluates an exact sign, never a floating guess.  Floats are
accepted at construction time and converted to their exact binary rational
value.  Hot query loops elsewhere homogenize points to integer triples, so
the predicates here are also written to run fast on plain ints.  Points
are classified against rings by one test, ``point_in_ring_i``, on ints:
the point and the rings are first scaled by a common factor that clears
every denominator (``ring_edges_i``).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, NamedTuple, Sequence, Union

Coord = Union[int, Fraction]

CCW = 1
COLLINEAR = 0
CW = -1

INSIDE = "INSIDE"
BOUNDARY = "BOUNDARY"
OUTSIDE = "OUTSIDE"


class InvalidPolygonError(ValueError):
    """Raised when an input ring or polygon violates a structural invariant."""


def coerce_coord(value) -> Coord:
    """Normalize a coordinate to int or Fraction, exactly."""
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    if isinstance(value, float):
        f = Fraction(value)
        return int(f) if f.denominator == 1 else f
    if isinstance(value, str):
        f = Fraction(value)
        return int(f) if f.denominator == 1 else f
    raise TypeError(f"unsupported coordinate type: {type(value)!r}")


class Point(NamedTuple):
    x: Coord
    y: Coord

    def as_floats(self) -> tuple[float, float]:
        return float(self.x), float(self.y)


def pt(x, y) -> Point:
    return Point(coerce_coord(x), coerce_coord(y))


class Segment(NamedTuple):
    a: Point
    b: Point

    def midpoint(self) -> Point:
        mx = Fraction(self.a.x + self.b.x, 2)
        my = Fraction(self.a.y + self.b.y, 2)
        return Point(coerce_coord(mx), coerce_coord(my))

    def point_at(self, t: Fraction) -> Point:
        px = self.a.x + t * (self.b.x - self.a.x)
        py = self.a.y + t * (self.b.y - self.a.y)
        return Point(coerce_coord(px), coerce_coord(py))

    def length_sq(self) -> Coord:
        dx = self.b.x - self.a.x
        dy = self.b.y - self.a.y
        return dx * dx + dy * dy


def segment(ax, ay, bx, by) -> Segment:
    s = Segment(pt(ax, ay), pt(bx, by))
    if s.a == s.b:
        raise ValueError("degenerate segment: identical endpoints")
    return s


def orientation(p: Point, q: Point, r: Point) -> int:
    """Exact sign of the turn p->q->r: CCW (1), CW (-1) or COLLINEAR (0)."""
    det = (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)
    if det > 0:
        return CCW
    if det < 0:
        return CW
    return COLLINEAR


def _strictly_between_on_line(p: Point, a: Point, b: Point) -> bool:
    # Assumes p collinear with a,b; true iff p lies strictly inside segment ab.
    if a.x != b.x:
        return (a.x < p.x < b.x) or (b.x < p.x < a.x)
    return (a.y < p.y < b.y) or (b.y < p.y < a.y)


def point_on_segment(p: Point, s: Segment, closed: bool = True) -> bool:
    """Exact test for p on segment s (endpoints included when closed)."""
    if orientation(s.a, s.b, p) != COLLINEAR:
        return False
    if p == s.a or p == s.b:
        return closed
    return _strictly_between_on_line(p, s.a, s.b)


def segments_properly_cross(s1: Segment, s2: Segment) -> bool:
    """True iff the open interiors cross transversally in a single point.

    Endpoint touching, collinear overlap and endpoint-on-interior all
    return False.
    """
    o1 = orientation(s1.a, s1.b, s2.a)
    o2 = orientation(s1.a, s1.b, s2.b)
    if o1 == o2 or o1 == 0 or o2 == 0:
        return False
    o3 = orientation(s2.a, s2.b, s1.a)
    o4 = orientation(s2.a, s2.b, s1.b)
    return o3 != o4 and o3 != 0 and o4 != 0


class Ring:
    """Closed vertex cycle.  Validated rings are simple with no repeated or
    collinear consecutive vertices; rings built internally by decomposition
    may carry straight (pi) angles and skip validation."""

    __slots__ = ("vertices", "_area2")

    def __init__(self, vertices: Iterable[Point], validate: bool = False):
        self.vertices: tuple[Point, ...] = tuple(vertices)
        self._area2 = None
        if validate:
            problems = ring_problems(self)
            if problems:
                raise InvalidPolygonError("; ".join(problems))

    def __len__(self) -> int:
        return len(self.vertices)

    def __iter__(self):
        return iter(self.vertices)

    def __getitem__(self, i: int) -> Point:
        return self.vertices[i % len(self.vertices)]

    def __eq__(self, other) -> bool:
        return isinstance(other, Ring) and self.vertices == other.vertices

    def __hash__(self) -> int:
        return hash(self.vertices)

    def __repr__(self) -> str:
        return f"Ring({list(self.vertices)!r})"

    def edges(self) -> list[Segment]:
        n = len(self.vertices)
        return [Segment(self.vertices[i], self.vertices[(i + 1) % n]) for i in range(n)]

    def signed_area2(self) -> Coord:
        # Twice the signed area (shoelace); positive for CCW.  Cached.
        if self._area2 is None:
            total = 0
            n = len(self.vertices)
            for i in range(n):
                a = self.vertices[i]
                b = self.vertices[(i + 1) % n]
                total += a.x * b.y - a.y * b.x
            self._area2 = total
        return self._area2

    def is_ccw(self) -> bool:
        return self.signed_area2() > 0

    def reversed(self) -> "Ring":
        return Ring(reversed(self.vertices))

    def centroid(self) -> Point:
        n = len(self.vertices)
        sx = sum(v.x for v in self.vertices)
        sy = sum(v.y for v in self.vertices)
        return Point(coerce_coord(Fraction(sx, n)), coerce_coord(Fraction(sy, n)))

    def bbox(self) -> tuple[Coord, Coord, Coord, Coord]:
        xs = [v.x for v in self.vertices]
        ys = [v.y for v in self.vertices]
        return min(xs), min(ys), max(xs), max(ys)


def ring(coords: Sequence, validate: bool = False) -> Ring:
    return Ring([pt(x, y) for x, y in coords], validate=validate)


def ring_is_simple(r: Ring) -> bool:
    """No two edges intersect except consecutive edges at their shared vertex."""
    edges = r.edges()
    n = len(edges)
    for i in range(n):
        for j in range(i + 1, n):
            adjacent = j == i + 1 or (i == 0 and j == n - 1)
            e1, e2 = edges[i], edges[j]
            if segments_properly_cross(e1, e2):
                return False
            if adjacent:
                # Consecutive edges share exactly one endpoint; folding back
                # onto the previous edge is a degeneracy.
                shared = e1.b if e1.b in (e2.a, e2.b) else e1.a
                other1 = e1.a if shared == e1.b else e1.b
                other2 = e2.b if shared == e2.a else e2.a
                if point_on_segment(other1, e2) or point_on_segment(other2, e1):
                    return False
            else:
                for p in (e2.a, e2.b):
                    if point_on_segment(p, e1):
                        return False
                for p in (e1.a, e1.b):
                    if point_on_segment(p, e2):
                        return False
    return True


def ring_problems(r: Ring) -> list[str]:
    problems = []
    n = len(r.vertices)
    if n < 3:
        return [f"ring has {n} vertices, need at least 3"]
    for i in range(n):
        if r.vertices[i] == r.vertices[(i + 1) % n]:
            problems.append(f"repeated consecutive vertex at index {i}")
    if len(set(r.vertices)) != n:
        problems.append("ring repeats a vertex")
    for i in range(n):
        if orientation(r[i - 1], r[i], r[i + 1]) == COLLINEAR:
            problems.append(f"collinear consecutive vertices around index {i}")
    if not problems and not ring_is_simple(r):
        problems.append("ring is self-intersecting")
    return problems


def normalize_ring(vertices: Sequence[Point], force_ccw: bool | None = None):
    """Collapse repeated and collinear-consecutive vertices; optionally fix
    orientation.  Returns (ring, warnings)."""
    verts = list(vertices)
    warnings: list[str] = []
    changed = True
    while changed and len(verts) >= 3:
        changed = False
        out = []
        n = len(verts)
        for i in range(n):
            if verts[i] == verts[(i + 1) % n]:
                warnings.append(f"dropped duplicate vertex {verts[i]}")
                changed = True
                continue
            out.append(verts[i])
        verts = out
        n = len(verts)
        if n < 3:
            break
        out = []
        for i in range(n):
            if orientation(verts[i - 1], verts[i], verts[(i + 1) % n]) == COLLINEAR:
                warnings.append(f"collapsed collinear vertex {verts[i]}")
                changed = True
                continue
            out.append(verts[i])
        verts = out
    if len(verts) < 3:
        raise InvalidPolygonError("ring collapses to fewer than 3 vertices")
    r = Ring(verts)
    if force_ccw is True and not r.is_ccw():
        warnings.append("reversed ring to counterclockwise orientation")
        r = r.reversed()
    elif force_ccw is False and r.is_ccw():
        warnings.append("reversed ring to clockwise orientation")
        r = r.reversed()
    return r, warnings


def is_reflex(r: Ring, i: int) -> bool:
    """True iff the interior angle at vertex i exceeds pi, respecting the
    ring's own orientation (interior = bounded side)."""
    turn = orientation(r[i - 1], r[i], r[i + 1])
    return turn == CW if r.is_ccw() else turn == CCW


def is_convex(r: Ring) -> bool:
    """True iff no vertex is reflex (straight angles allowed)."""
    want = CW if not r.is_ccw() else CCW
    bad = -want
    n = len(r.vertices)
    for i in range(n):
        if orientation(r[i - 1], r[i], r[i + 1]) == bad:
            return False
    return True


IntEdge = tuple[int, int, int, int]


def ring_edges_i(r: Ring, scale: int) -> tuple[IntEdge, ...]:
    """Edges of ``r`` as integer (ax, ay, bx, by), every coordinate times
    ``scale``; ``scale`` must clear all of the ring's denominators."""
    n = len(r.vertices)
    out = []
    for i in range(n):
        a = r.vertices[i]
        b = r.vertices[(i + 1) % n]
        out.append((int(a.x * scale), int(a.y * scale), int(b.x * scale), int(b.y * scale)))
    return tuple(out)


def point_in_ring_i(px: int, py: int, edges: Sequence[IntEdge]) -> str:
    """Exact INSIDE/BOUNDARY/OUTSIDE classification of an integer point
    against one ring's integer edges (both scaled by the same positive
    factor): a closed edge through p is BOUNDARY, otherwise the parity of
    the edges the rightward ray from p crosses (half-open in y) decides.
    The package's one point-in-polygon test (Hormann & Agathos, CGTA
    2001)."""
    crossings = 0
    for ax, ay, bx, by in edges:
        if (ay > py) != (by > py):
            # The edge spans height py, so p lies on it iff p is on its line.
            den = by - ay
            lhs = (ax - px) * den + (py - ay) * (bx - ax)
            if lhs == 0:
                return BOUNDARY
            if (lhs > 0) == (den > 0):
                crossings += 1
        elif (
            (ay == py or by == py)
            and (bx - ax) * (py - ay) == (by - ay) * (px - ax)
            and min(ax, bx) <= px <= max(ax, bx)
        ):
            # The edge lies wholly at or below py and reaches it: p can
            # touch it only at that top height.
            return BOUNDARY
    return INSIDE if crossings % 2 == 1 else OUTSIDE


def point_in_polygon_i(px: int, py: int, rings: Sequence[Sequence[IntEdge]]) -> str:
    """``point_in_polygon`` on the integer lattice: ``rings`` holds the
    outer ring's edges first, then each hole's (see ``ring_edges_i``);
    inside a hole counts as OUTSIDE."""
    where = point_in_ring_i(px, py, rings[0])
    if where != INSIDE:
        return where
    for hole in rings[1:]:
        inner = point_in_ring_i(px, py, hole)
        if inner == BOUNDARY:
            return BOUNDARY
        if inner == INSIDE:
            return OUTSIDE
    return INSIDE


def denominator_lcm(poly: "PolygonWithHoles") -> int:
    """Least common multiple of every vertex coordinate's denominator."""
    denoms = [
        c.denominator
        for r in poly.rings()
        for v in r.vertices
        for c in v
        if isinstance(c, Fraction)
    ]
    return lcm(1, *denoms)


class PolygonWithHoles:
    """Input scene: CCW outer boundary plus CW hole boundaries."""

    __slots__ = ("outer", "holes")

    def __init__(self, outer: Ring, holes: Sequence[Ring] = (), validate: bool = True):
        self.outer = outer
        self.holes: tuple[Ring, ...] = tuple(holes)
        if validate:
            problems = polygon_problems(self)
            if problems:
                raise InvalidPolygonError("; ".join(problems))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolygonWithHoles)
            and self.outer == other.outer
            and self.holes == other.holes
        )

    def __repr__(self) -> str:
        return f"PolygonWithHoles(outer={self.outer!r}, holes={list(self.holes)!r})"

    def rings(self) -> list[Ring]:
        return [self.outer, *self.holes]

    def edges(self) -> list[Segment]:
        """All obstacle edges, outer ring first then holes, stable order."""
        out = []
        for r in self.rings():
            out.extend(r.edges())
        return out

    def bbox(self) -> tuple[Coord, Coord, Coord, Coord]:
        return self.outer.bbox()

    def bbox_diag(self) -> float:
        x0, y0, x1, y1 = self.bbox()
        dx, dy = float(x1 - x0), float(y1 - y0)
        return (dx * dx + dy * dy) ** 0.5

    def area2(self) -> Coord:
        total = self.outer.signed_area2()
        for h in self.holes:
            total += h.signed_area2()  # holes are CW: negative area
        return total


def polygon_problems(poly: PolygonWithHoles) -> list[str]:
    problems = list(ring_problems(poly.outer))
    # Vertex-in-ring checks run on ints, every ring scaled by one factor.
    s = denominator_lcm(poly)
    outer_i = ring_edges_i(poly.outer, s)
    holes_i = [ring_edges_i(h, s) for h in poly.holes]

    def where(v: Point, edges: Sequence[IntEdge]) -> str:
        return point_in_ring_i(int(v.x * s), int(v.y * s), edges)

    if not poly.outer.is_ccw():
        problems.append("outer ring must be counterclockwise")
    for hi, hole in enumerate(poly.holes):
        hp = ring_problems(hole)
        problems.extend(f"hole {hi}: {m}" for m in hp)
        if hp:
            continue
        if hole.is_ccw():
            problems.append(f"hole {hi} must be clockwise")
        for vi, v in enumerate(hole.vertices):
            if where(v, outer_i) != INSIDE:
                problems.append(
                    f"hole {hi} vertex {vi} {tuple(v)} is not strictly inside the outer ring"
                )
        for e1 in hole.edges():
            for e2 in poly.outer.edges():
                if segments_properly_cross(e1, e2):
                    problems.append(f"hole {hi} crosses the outer ring")
        for v in poly.outer.vertices:
            if where(v, holes_i[hi]) != OUTSIDE:
                problems.append(f"outer vertex {tuple(v)} touches hole {hi}")
    for hi in range(len(poly.holes)):
        for hj in range(hi + 1, len(poly.holes)):
            a, b = poly.holes[hi], poly.holes[hj]
            touching = False
            for e1 in a.edges():
                for e2 in b.edges():
                    if segments_properly_cross(e1, e2):
                        touching = True
            for v in a.vertices:
                if where(v, holes_i[hj]) != OUTSIDE:
                    touching = True
            for v in b.vertices:
                if where(v, holes_i[hi]) != OUTSIDE:
                    touching = True
            if touching:
                problems.append(f"holes {hi} and {hj} intersect or touch")
    return problems


def point_in_polygon(p: Point, poly: PolygonWithHoles) -> str:
    """Classify p against the polygon: inside a hole counts as OUTSIDE.
    Scales p and every ring by one factor that clears all their
    denominators, then runs ``point_in_polygon_i``."""
    s = lcm(denominator_lcm(poly), p.x.denominator, p.y.denominator)
    return point_in_polygon_i(
        int(p.x * s), int(p.y * s), [ring_edges_i(r, s) for r in poly.rings()]
    )


def convex_hull(points: Sequence[Point], keep_collinear: bool = False) -> list[Point]:
    """Andrew's monotone chain, exact.  With keep_collinear, vertices lying on
    hull edges are retained (needed for pocket extraction)."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return list(pts)
    threshold = 0 if not keep_collinear else -1

    def build(seq):
        chain = []
        for p in seq:
            while len(chain) >= 2 and orientation(chain[-2], chain[-1], p) <= threshold:
                chain.pop()
            chain.append(p)
        return chain

    lower = build(pts)
    upper = build(reversed(pts))
    return lower[:-1] + upper[:-1]
