"""Exact oracle for the benchmark's output checks, written apart from the
package: it reads the program's JSON files itself and decides every
predicate on ``Fraction``s.

* ``crossings`` counts the edges whose open interior the open segment pq
  crosses, by solving ``p + t (q - p) = a + u (b - a)`` for each edge.
  A sight line through a vertex, or along an edge, raises ``Degenerate``.
* ``inside`` is the winding-number test; a point on the boundary is not
  inside.

Nothing here imports ``kvisguard``.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

Pt = tuple[Fraction, Fraction]


class Degenerate(Exception):
    """The sight segment passes through a vertex or runs along an edge."""


def as_q(v) -> Fraction:
    if isinstance(v, bool):
        raise ValueError(f"bad coordinate {v!r}")
    if isinstance(v, (int, str)):
        return Fraction(v)
    raise ValueError(f"bad coordinate {v!r}")


def read_polygon(path) -> list[list[Pt]]:
    """Rings of a polygon file: the outer ring first, then the holes."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    rings = [doc["outer"]] + doc.get("holes", [])
    return [[(as_q(x), as_q(y)) for x, y in r] for r in rings]


def read_guards(path) -> list[Pt]:
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    return [(as_q(g["position"][0]), as_q(g["position"][1])) for g in doc["guards"]]


def edges(rings: list[list[Pt]]) -> list[tuple[Pt, Pt]]:
    return [(r[i], r[(i + 1) % len(r)]) for r in rings for i in range(len(r))]


def _cross(ox, oy, ax, ay, bx, by):
    return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)


def on_segment(p: Pt, a: Pt, b: Pt) -> bool:
    """p lies on the closed segment ab."""
    if _cross(*a, *b, *p) != 0:
        return False
    return min(a[0], b[0]) <= p[0] <= max(a[0], b[0]) and min(a[1], b[1]) <= p[1] <= max(
        a[1], b[1]
    )


def hit(p: Pt, q: Pt, a: Pt, b: Pt) -> bool:
    """True iff the open segment pq crosses the open edge ab at one point.

    An intersection at p or q is an endpoint incidence and counts as no
    hit; one at a or b strictly between p and q raises ``Degenerate``."""
    rx, ry = q[0] - p[0], q[1] - p[1]
    sx, sy = b[0] - a[0], b[1] - a[1]
    den = rx * sy - ry * sx
    wx, wy = a[0] - p[0], a[1] - p[1]
    if den == 0:
        if wx * ry - wy * rx != 0:
            return False  # parallel, on different lines
        # Collinear: project on pq and test for an overlap of positive length.
        rr = rx * rx + ry * ry
        ta = (wx * rx + wy * ry) / rr
        tb = ((b[0] - p[0]) * rx + (b[1] - p[1]) * ry) / rr
        if max(min(ta, tb), 0) < min(max(ta, tb), 1):
            raise Degenerate("sight segment runs along an edge")
        return False
    t = Fraction(wx * sy - wy * sx) / den
    u = Fraction(wx * ry - wy * rx) / den
    if not (0 < t < 1) or not (0 <= u <= 1):
        return False
    if u == 0 or u == 1:
        raise Degenerate("sight segment passes through a vertex")
    return True


def crossings(p: Pt, q: Pt, es) -> int:
    return sum(1 for a, b in es if hit(p, q, a, b))


def winding(p: Pt, r: list[Pt]) -> int:
    w = 0
    px, py = p
    for i in range(len(r)):
        (ax, ay), (bx, by) = r[i], r[(i + 1) % len(r)]
        if ay <= py:
            if by > py and _cross(ax, ay, bx, by, px, py) > 0:
                w += 1
        elif by <= py and _cross(ax, ay, bx, by, px, py) < 0:
            w -= 1
    return w


def inside(p: Pt, rings: list[list[Pt]]) -> bool:
    """Strictly interior: inside the outer ring, outside every hole, and on
    no edge."""
    if any(on_segment(p, a, b) for a, b in edges(rings)):
        return False
    if winding(p, rings[0]) == 0:
        return False
    return all(winding(p, h) == 0 for h in rings[1:])


def reflex_count(r: list[Pt]) -> int:
    """Vertices whose turn is against the ring's orientation."""
    area2 = sum(
        r[i][0] * r[(i + 1) % len(r)][1] - r[(i + 1) % len(r)][0] * r[i][1]
        for i in range(len(r))
    )
    sign = 1 if area2 > 0 else -1
    n = len(r)
    return sum(1 for i in range(n) if _cross(*r[i - 1], *r[i], *r[(i + 1) % n]) * sign < 0)


def on_boundary(g: Pt, rings: list[list[Pt]]) -> bool:
    return any(on_segment(g, a, b) for a, b in edges(rings))


def interior_points(rings: list[list[Pt]], count: int, rng: random.Random) -> list[Pt]:
    """Seeded interior points on a 2^-16 lattice of the bounding box."""
    xs = [x for r in rings for x, _ in r]
    ys = [y for r in rings for _, y in r]
    x0, y0, dx, dy = min(xs), min(ys), max(xs) - min(xs), max(ys) - min(ys)
    out = []
    while len(out) < count:
        p = (
            x0 + Fraction(rng.randrange(1, 1 << 16), 1 << 16) * dx,
            y0 + Fraction(rng.randrange(1, 1 << 16), 1 << 16) * dy,
        )
        if inside(p, rings):
            out.append(p)
    return out


def coverage_at(p: Pt, guards: list[Pt], es, k: int, enough: int) -> int:
    """Guards that see p through at most k edges, counted up to ``enough``."""
    n = 0
    for g in guards:
        if g != p and crossings(p, g, es) <= k:
            n += 1
            if n >= enough:
                break
    return n


def min_coverage(rings, guards: list[Pt], k: int, m: int, points: int, seed) -> int:
    """Least number of k-seeing guards, counted up to m, over ``points``
    seeded interior points; a point with a degenerate sight line to some
    guard is replaced by the next one drawn."""
    rng = random.Random(seed)
    es = edges(rings)
    least = m
    done = 0
    while done < points:
        (p,) = interior_points(rings, 1, rng)
        try:
            c = coverage_at(p, guards, es, k, m)
        except Degenerate:
            continue
        done += 1
        least = min(least, c)
    return least


def max_pair_crossings(r: list[Pt], pairs: int, seed) -> int:
    """Largest crossing count over seeded pairs of interior points of the
    simple ring r; pairs with a degenerate sight line are redrawn."""
    rng = random.Random(seed)
    es = edges([r])
    worst = 0
    done = 0
    while done < pairs:
        p, q = interior_points([r], 2, rng)
        if p == q:
            continue
        try:
            c = crossings(p, q, es)
        except Degenerate:
            continue
        done += 1
        worst = max(worst, c)
    return worst
