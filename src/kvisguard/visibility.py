"""k-visibility queries: crossing counts, point-pair visibility, exact
strong visibility of a convex region, and sampled strong visibility
intervals on edges.

A sight segment crosses an obstacle only when the two open interiors meet
transversally.  Segments that graze a polygon vertex or run along an edge
are DEGENERATE: the caller perturbs and retries (the verifier does this
automatically).  An edge that holds a query endpoint consumes no crossing.
All counting is exact; scene edges are pre-scaled to integers and query
points are homogenized to integer (nx, ny, d) triples so the hot loop is
pure int arithmetic.

Work that does not depend on the far endpoint is done once.  The crossing
kernel reads a per-origin edge table (``origin_table``): every edge's
endpoints relative to the origin p, so a query from p to q only forms the
two orientations that involve q.

Many queries from one point go through its ``WedgeIndex``: the scene sorted
by angle around the point, so a count is two bisections on ints, with the
kernel as the exact fallback for every query the index cannot decide
strictly.  Strong visibility of a region is decided on the same index,
wedge by wedge, by clipping the region with half-planes on ints.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from math import lcm
from typing import NamedTuple, Sequence

from .geometry import (
    Point,
    PolygonWithHoles,
    Ring,
    Segment,
    coerce_coord,
    denominator_lcm,
    ring_edges_i,
)


class DegenerateSightlineError(Exception):
    """Sight segment grazes a vertex or overlaps an obstacle edge."""

    def __init__(self, message: str, edge_index: int | None = None):
        super().__init__(message)
        self.edge_index = edge_index


class EdgeInterval(NamedTuple):
    """Parameter interval [t_lo, t_hi] on a scene edge, measured from the
    edge's first vertex."""

    edge: int
    t_lo: Fraction
    t_hi: Fraction

    def midpoint(self) -> Fraction:
        return (self.t_lo + self.t_hi) / 2

    def contains(self, t: Fraction) -> bool:
        return self.t_lo <= t <= self.t_hi


def _denominator(c) -> int:
    return c.denominator if isinstance(c, Fraction) else 1


class VisibilityQueryScene:
    """A polygon plus its flat obstacle-edge list, indexed stably (outer
    edges first, then each hole's edges in order)."""

    __slots__ = ("polygon", "obstacle_edges", "scale", "_edges_i", "_wedges", "_index")

    def __init__(self, polygon: PolygonWithHoles):
        self.polygon = polygon
        self.obstacle_edges: tuple[Segment, ...] = tuple(polygon.edges())
        self.scale = denominator_lcm(polygon)
        self._edges_i = [e for r in polygon.rings() for e in ring_edges_i(r, self.scale)]
        self._wedges: WedgeScene | None = None
        self._index: WedgeIndex | None = None

    def homogenize(self, p: Point) -> tuple[int, int, int]:
        """Integer (nx, ny, d) with p*scale == (nx/d, ny/d)."""
        sx = p.x * self.scale
        sy = p.y * self.scale
        dx, dy = _denominator(sx), _denominator(sy)
        d = lcm(dx, dy)
        return int(sx * d), int(sy * d), d

    def wedge_index(self, p: Point) -> WedgeIndex:
        """p's ``WedgeIndex``.  Only the last one built is kept, so a run of
        queries from one point shares it and a scene holds one index."""
        p_h = self.homogenize(p)
        if self._index is None or self._index.g_h != p_h:
            if self._wedges is None:
                self._wedges = WedgeScene(self._edges_i)
            self._index = WedgeIndex(self._wedges, p_h)
        return self._index


def origin_table(
    p_h: tuple[int, int, int], edges_i: Sequence[tuple[int, int, int, int]]
) -> list[tuple[int, ...]]:
    """Per-origin rows for ``crossing_count_h``: each integer edge
    (ax, ay, bx, by) followed by A - p and B - p, cleared of p's
    denominator."""
    pnx, pny, pd = p_h
    return [
        (ax, ay, bx, by, ax * pd - pnx, ay * pd - pny, bx * pd - pnx, by * pd - pny)
        for ax, ay, bx, by in edges_i
    ]


def crossing_count_h(
    p_h: tuple[int, int, int],
    q_h: tuple[int, int, int],
    table: Sequence[tuple[int, ...]],
) -> int:
    """Exact number of edges whose open interior transversally crosses the
    open segment pq, on homogenized integer points; ``table`` is
    ``origin_table(p_h, edges)``.  Raises on degeneracy, at the first
    degenerate edge in index order."""
    pnx, pny, pd = p_h
    qnx, qny, qd = q_h
    # Direction of pq, cleared of denominators: (qx - px) * pd*qd.
    ux = qnx * pd - pnx * qd
    uy = qny * pd - pny * qd
    if ux == 0 and uy == 0:
        raise ValueError("crossing_count requires two distinct points")
    count = 0
    for idx, (ax, ay, bx, by, apx, apy, bpx, bpy) in enumerate(table):
        # orient(P, Q, A) and orient(P, Q, B), scaled by positive factors.
        oa = ux * apy - uy * apx
        ob = ux * bpy - uy * bpx
        if oa > 0:
            if ob > 0:
                continue  # both edge endpoints strictly on one side
        elif oa < 0:
            if ob < 0:
                continue
        elif ob == 0:
            # Edge collinear with the sight line: overlap is degenerate,
            # single-point touch or disjoint contributes nothing.
            if _collinear_overlap(p_h, q_h, ax, ay, bx, by):
                raise DegenerateSightlineError(
                    f"sight segment collinear-overlaps edge {idx}", idx
                )
            continue
        else:
            _vertex_on_open_segment_check(p_h, q_h, ax, ay, idx)
            continue
        if ob == 0:
            _vertex_on_open_segment_check(p_h, q_h, bx, by, idx)
            continue
        # Edge endpoints straddle line(pq); side of P and Q against line(AB).
        ex = bx - ax
        ey = by - ay
        op = ey * apx - ex * apy
        oq = ex * (qny - ay * qd) - ey * (qnx - ax * qd)
        if op == 0 or oq == 0:
            # A query endpoint lies on this edge (interior, since the edge
            # straddles line(pq)): endpoint incidence, not a crossing.
            continue
        if (op > 0) != (oq > 0):
            count += 1
    return count


def _collinear_overlap(p_h, q_h, ax, ay, bx, by) -> bool:
    # All four points on one line; exact 1-D interval overlap test (in the
    # common scale d = pd*qd to compare p, q, a, b).
    pnx, pny, pd = p_h
    qnx, qny, qd = q_h
    # Project on the dominant axis of pq.
    if abs(qnx * pd - pnx * qd) >= abs(qny * pd - pny * qd):
        p1, q1 = pnx * qd, qnx * pd
        a1, b1 = ax * pd * qd, bx * pd * qd
    else:
        p1, q1 = pny * qd, qny * pd
        a1, b1 = ay * pd * qd, by * pd * qd
    lo1, hi1 = (p1, q1) if p1 <= q1 else (q1, p1)
    lo2, hi2 = (a1, b1) if a1 <= b1 else (b1, a1)
    return max(lo1, lo2) < min(hi1, hi2)


def _vertex_on_open_segment_check(p_h, q_h, vx, vy, idx) -> None:
    pnx, pny, pd = p_h
    qnx, qny, qd = q_h
    # v equals p or q: endpoint incidence, fine.
    if vx * pd == pnx and vy * pd == pny:
        return
    if vx * qd == qnx and vy * qd == qny:
        return
    # v is collinear with pq here; strictly between p and q is degenerate.
    dot1 = (vx * pd - pnx) * (qnx * pd - pnx * qd) + (vy * pd - pny) * (
        qny * pd - pny * qd
    )
    dot2 = (vx * qd - qnx) * (pnx * qd - qnx * pd) + (vy * qd - qny) * (
        pny * qd - qny * pd
    )
    if dot1 > 0 and dot2 > 0:
        raise DegenerateSightlineError(
            f"sight segment passes through vertex of edge {idx}", idx
        )


def crossing_count(p: Point, q: Point, scene: VisibilityQueryScene) -> int:
    """Number of obstacle edges properly crossed by the open segment pq.

    Edges meeting p or q (at a vertex or along their interior) contribute 0.
    Raises DegenerateSightlineError when pq
    overlaps an edge or passes exactly through a polygon vertex.
    """
    if p == q:
        raise ValueError("crossing_count requires two distinct points")
    p_h = scene.homogenize(p)
    return crossing_count_h(p_h, scene.homogenize(q), origin_table(p_h, scene._edges_i))


def k_visible(p: Point, q: Point, k: int, scene: VisibilityQueryScene) -> bool:
    """True iff the open segment pq crosses at most k obstacle edges."""
    return crossing_count(p, q, scene) <= k


class WedgeScene:
    """What every guard's ``WedgeIndex`` shares: the scene's integer edges
    (for the kernel fallback), its distinct vertices, each edge's two
    vertex ids, and each edge in both orientations as a line
    ``(ex, ey, c)``: code 2i is edge i from A to B, code 2i + 1 from B to
    A, and ``ex*qy - ey*qx - c*qd`` is the sign of orient(from, to, q)
    for a homogenized q."""

    __slots__ = ("edges_i", "vertices", "ends", "lines")

    def __init__(self, edges_i: Sequence[tuple[int, int, int, int]]):
        self.edges_i = edges_i
        ids: dict[tuple[int, int], int] = {}
        self.ends = []
        self.lines = []
        for ax, ay, bx, by in edges_i:
            self.ends.append((ids.setdefault((ax, ay), len(ids)), ids.setdefault((bx, by), len(ids))))
            ex, ey = bx - ax, by - ay
            c = ex * ay - ey * ax
            self.lines += [(ex, ey, c), (-ex, -ey, -c)]
        self.vertices = list(ids)


def _small_ints(values: list[int]):
    return bytes(values) if all(v < 256 for v in values) else tuple(values)


class WedgeIndex:
    """The scene sorted around one guard g, for exact crossing counts from g.

    Rays are the distinct directions from g to the scene vertices, in
    angular order (upper half-plane first, then by cross product).  A
    wedge is the open angle from one ray to the next; no vertex lies
    inside it, so the edges spanning it never meet there and keep one
    order by distance from g.  Each wedge lists them near to far, every
    edge oriented with g on its left, so a query q in the wedge crosses
    exactly the edges it lies strictly right of, a prefix of the list.
    Edges incident to g, seen edge-on or holding g are left out.

    ``count`` finds q's wedge and its prefix by two bisections.  A query
    the index cannot decide strictly (q equal to g, q on a ray, q on the
    line of a probed edge) goes to ``crossing_count_h`` from g's side;
    the open segment's count and degeneracy are symmetric in its
    endpoints, so the answer, or the ``DegenerateSightlineError``, is the
    kernel's.  Only small ids are kept per guard: ray vertex ids and
    per-wedge edge codes (``WedgeScene``)."""

    __slots__ = ("scene", "g_h", "rays", "split", "wedges", "_table")

    def __init__(self, scene: WedgeScene, g_h: tuple[int, int, int]):
        self.scene = scene
        self.g_h = g_h
        self._table = None
        gx, gy, gd = g_h
        rel = [(vx * gd - gx, vy * gd - gy) for vx, vy in scene.vertices]

        def before(i: int, j: int) -> int:
            (ix, iy), (jx, jy) = rel[i], rel[j]
            return jx * iy - jy * ix  # < 0 when i comes first

        upper, lower = [], []
        for v, (rx, ry) in enumerate(rel):
            if ry > 0 or (ry == 0 and rx > 0):
                upper.append(v)
            elif rx or ry:
                lower.append(v)
        rays: list[int] = []
        ray_of = {}
        for half in (upper, lower):
            half.sort(key=cmp_to_key(before))
            start = len(rays)
            for v in half:
                # Within a half-plane, a zero cross product means one direction.
                if len(rays) == start or before(rays[-1], v):
                    rays.append(v)
                ray_of[v] = len(rays) - 1
            if half is upper:
                self.split = len(rays)

        n_rays = len(rays)
        spanning: list[list[int]] = [[] for _ in range(n_rays)]
        key: dict[int, int] = {}  # code -> cross(from - g, to - g) > 0, times gd^2
        for i, (ia, ib) in enumerate(scene.ends):
            (ax, ay), (bx, by) = rel[ia], rel[ib]
            if not (ax or ay) or not (bx or by):
                continue  # incident to g
            cr = ax * by - ay * bx
            if cr == 0:
                continue  # edge-on, or g in its interior
            if cr > 0:
                code, first, last = 2 * i, ray_of[ia], ray_of[ib]
            else:
                code, first, last = 2 * i + 1, ray_of[ib], ray_of[ia]
            key[code] = abs(cr)
            w = first
            while w != last:
                spanning[w].append(code)
                w = (w + 1) % n_rays

        # d = ray w + ray w+1 points into the wedge, which is less than pi
        # wide when an edge spans it.  Along d, the oriented edge (from, to)
        # is hit at t = key / cross(d, to - from), up to one positive factor
        # shared by every edge, so near to far is by t.
        lines = scene.lines
        wedges = []
        for w, codes in enumerate(spanning):
            if len(codes) > 1:
                (ax, ay), (bx, by) = rel[rays[w]], rel[rays[(w + 1) % n_rays]]
                dx, dy = ax + bx, ay + by
                den = {c: dx * lines[c][1] - dy * lines[c][0] for c in codes}
                codes.sort(key=cmp_to_key(lambda c1, c2: key[c1] * den[c2] - key[c2] * den[c1]))
            wedges.append(_small_ints(codes))
        self.rays = _small_ints(rays)
        self.wedges = wedges

    def count(self, q_h: tuple[int, int, int]) -> int:
        """``crossing_count_h`` from g to q."""
        gx, gy, gd = self.g_h
        qx, qy, qd = q_h
        ux = qx * gd - gx * qd
        uy = qy * gd - gy * qd
        if uy > 0 or (uy == 0 and ux > 0):
            lo, hi = 0, self.split
        elif ux or uy:
            lo, hi = self.split, len(self.rays)
        else:
            return self._fallback(q_h)
        vertices, rays = self.scene.vertices, self.rays
        while lo < hi:
            mid = (lo + hi) >> 1
            vx, vy = vertices[rays[mid]]
            o = (vx * gd - gx) * uy - (vy * gd - gy) * ux
            if o > 0:
                lo = mid + 1
            elif o < 0:
                hi = mid
            else:
                return self._fallback(q_h)
        wedge = self.wedges[lo - 1]
        lines = self.scene.lines
        lo, hi = 0, len(wedge)
        while lo < hi:
            mid = (lo + hi) >> 1
            ex, ey, c = lines[wedge[mid]]
            o = ex * qy - ey * qx - c * qd
            if o < 0:
                lo = mid + 1
            elif o > 0:
                hi = mid
            else:
                return self._fallback(q_h)
        # When lo < len(wedge), edge lo was probed and q is strictly before it.
        return lo

    def _fallback(self, q_h: tuple[int, int, int]) -> int:
        if self._table is None:
            self._table = origin_table(self.g_h, self.scene.edges_i)
        return crossing_count_h(self.g_h, q_h, self._table)


def wedge_indexes(
    edges_i: Sequence[tuple[int, int, int, int]], guards_h: Sequence[tuple[int, int, int]]
) -> list[WedgeIndex]:
    """One ``WedgeIndex`` per guard over one shared ``WedgeScene``."""
    scene = WedgeScene(edges_i)
    return [WedgeIndex(scene, g_h) for g_h in guards_h]


def default_epsilon(scene: VisibilityQueryScene) -> Fraction:
    """1e-6 of the bounding-box diagonal, as a rational."""
    diag = scene.polygon.bbox_diag()
    if diag == 0:
        return Fraction(1, 10**6)
    return Fraction(diag).limit_denominator(10**9) / 10**6


# Nothing here calls ``region_boundary_samples`` any more; it stays
# importable as ``visibility.region_boundary_samples``, which
# bench/tracer.py wraps.
def region_boundary_samples(
    region: Ring, n_samples: int, nudge: Fraction
) -> list[Point]:
    """Points on (just inside) the region boundary: n_samples equally spaced
    per edge plus both endpoints, every sample pulled toward the centroid by
    the relative amount ``nudge`` to avoid vertex degeneracy."""
    if n_samples < 2:
        raise ValueError("need at least 2 samples per region edge")
    centroid = region.centroid()
    samples = []
    for e in region.edges():
        params = [Fraction(0), Fraction(1)]
        params += [Fraction(j + 1, n_samples + 1) for j in range(n_samples)]
        for t in params:
            base = e.point_at(t)
            if base == centroid:
                continue
            samples.append(
                Point(
                    coerce_coord(base.x + nudge * (centroid.x - base.x)),
                    coerce_coord(base.y + nudge * (centroid.y - base.y)),
                )
            )
    return samples


def strongly_k_sees_region(p: Point, region: Ring, k: int, scene: VisibilityQueryScene) -> bool:
    """Exact strong k-visibility of a convex region: no open set of
    ``region``'s interior lies more than k crossings from p.  Points on a
    sight line through a scene vertex or on an edge's line have measure
    zero and decide nothing.

    In a wedge of p's ``WedgeIndex``, a point crosses exactly the listed
    edges it lies beyond, so it crosses more than k iff it lies beyond the
    (k+1)-th.  p fails iff, for some wedge listing k+1 edges or more, the
    region's interior meets the open wedge beyond that edge: the region
    clipped by the wedge's two rays and the edge's line keeps a positive
    area.  Decided on ints, with the region's homogenized vertices."""
    index = scene.wedge_index(p)
    gx, gy, gd = index.g_h
    vertices, lines, rays = index.scene.vertices, index.scene.lines, index.rays
    region_h = [scene.homogenize(v) for v in region.vertices]
    for w, codes in enumerate(index.wedges):
        if len(codes) <= k:
            continue
        # Rays w and w+1, relative to p and scaled by gd.
        ax, ay = vertices[rays[w]]
        bx, by = vertices[rays[(w + 1) % len(rays)]]
        ax, ay, bx, by = ax * gd - gx, ay * gd - gy, bx * gd - gx, by * gd - gy
        ex, ey, c = lines[codes[k]]
        # (a, b, c) holds a homogenized q when a*qx + b*qy + c*qd > 0: q is
        # past ray w, before ray w+1, and beyond edge k.  A spanned wedge is
        # less than pi wide, so the first two are the open wedge.
        cuts = (
            (-ay * gd, ax * gd, ay * gx - ax * gy),
            (by * gd, -bx * gd, bx * gy - by * gx),
            (ey, -ex, c),
        )
        if any(all(a * x + b * y + c * d <= 0 for x, y, d in region_h) for a, b, c in cuts):
            continue
        if _clip_has_area(region_h, cuts):
            return False
    return True


def _clip_has_area(poly: list[tuple[int, int, int]], half_planes) -> bool:
    """True iff the convex polygon of homogenized vertices (positive d),
    clipped to the closed half-planes a*x + b*y + c*d >= 0, keeps a
    positive area."""
    for a, b, c in half_planes:
        clipped = []
        x0, y0, d0 = poly[-1]
        f0 = a * x0 + b * y0 + c * d0
        for x1, y1, d1 in poly:
            f1 = a * x1 + b * y1 + c * d1
            if (f0 < 0 < f1) or (f1 < 0 < f0):
                # |f0|*v1 + |f1|*v0 is on the line, with a positive d.
                s0, s1 = abs(f0), abs(f1)
                clipped.append((s0 * x1 + s1 * x0, s0 * y1 + s1 * y0, s0 * d1 + s1 * d0))
            if f1 >= 0:
                clipped.append((x1, y1, d1))
            x0, y0, d0, f0 = x1, y1, d1, f1
        if len(clipped) < 3:
            return False
        poly = clipped
    # Convex, so the area is positive iff some fan triangle is not flat.
    x0, y0, d0 = poly[0]
    for (x1, y1, d1), (x2, y2, d2) in zip(poly[1:], poly[2:]):
        if x0 * (y1 * d2 - y2 * d1) - y0 * (x1 * d2 - x2 * d1) + d0 * (x1 * y2 - x2 * y1):
            return True
    return False


# Candidate positions that ``strong_kvis_interval_on_edge`` tries per host edge.
HOST_EDGE_CANDIDATES = 24


def strong_kvis_interval_on_edge(
    host_edge: int, region: Ring, k: int, scene: VisibilityQueryScene
) -> list[EdgeInterval]:
    """Maximal parameter intervals on a scene edge whose sampled candidate
    positions all strongly k-see ``region``.

    Candidates sit at (2j+1)/(2n), n = ``HOST_EDGE_CANDIDATES``; qualifying
    runs are widened outward by the half-step so a fully qualifying edge
    reports [0, 1].  Returns [] when no candidate qualifies (callers fall
    back to the pocket sweep)."""
    n = HOST_EDGE_CANDIDATES
    edge = scene.obstacle_edges[host_edge]
    half = Fraction(1, 2 * n)
    qualifying = []
    for j in range(n):
        t = Fraction(2 * j + 1, 2 * n)
        pos = edge.point_at(t)
        if strongly_k_sees_region(pos, region, k, scene):
            qualifying.append(t)
    intervals: list[EdgeInterval] = []
    run_start = None
    prev = None
    for t in qualifying:
        if run_start is None:
            run_start = t
        elif t - prev > 2 * half:
            intervals.append(
                EdgeInterval(host_edge, max(Fraction(0), run_start - half), min(Fraction(1), prev + half))
            )
            run_start = t
        prev = t
    if run_start is not None:
        intervals.append(
            EdgeInterval(host_edge, max(Fraction(0), run_start - half), min(Fraction(1), prev + half))
        )
    return intervals
