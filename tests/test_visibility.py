import math
import random
from fractions import Fraction
from functools import cmp_to_key

import pytest

from kvisguard.geometry import Point, PolygonWithHoles, pt, ring
from kvisguard.generators import GenSpec, comb_ring, generate
from kvisguard.visibility import (
    HOST_EDGE_CANDIDATES,
    DegenerateSightlineError,
    VisibilityQueryScene,
    crossing_count,
    k_visible,
    strong_kvis_interval_on_edge,
    strongly_k_sees_region,
)

from .oracles import (
    OracleDegenerate,
    crossing_count_bruteforce,
    point_on_boundary,
    winding_number_inside,
)


@pytest.fixture(scope="module")
def square_scene(unit_square):
    return VisibilityQueryScene(unit_square)


@pytest.fixture(scope="module")
def hole_scene(square_with_hole):
    return VisibilityQueryScene(square_with_hole)


def test_crossing_count_examples(square_scene, hole_scene):
    # q on the edge itself: endpoint incidence, no crossing
    assert crossing_count(pt("1/2", "1/2"), pt("1/2", 0), square_scene) == 0
    assert crossing_count(pt(1, 5), pt(9, 5), hole_scene) == 2


def test_crossing_count_degenerate_cases(hole_scene, square_scene):
    with pytest.raises(DegenerateSightlineError):
        crossing_count(pt(1, 4), pt(9, 4), hole_scene)  # grazes hole corners
    with pytest.raises(DegenerateSightlineError):
        crossing_count(pt("-1/2", 0), pt(2, 0), square_scene)  # overlaps an edge
    with pytest.raises(ValueError):
        crossing_count(pt(1, 1), pt(1, 1), square_scene)


def test_crossing_count_symmetry(hole_scene):
    rng = random.Random(5)
    poly = hole_scene.polygon
    for _ in range(300):
        p = pt(rng.randrange(0, 11), Fraction(rng.randrange(1, 1 << 12), 1 << 12) * 10)
        q = pt(Fraction(rng.randrange(1, 1 << 12), 1 << 12) * 10, rng.randrange(0, 11))
        if p == q:
            continue
        try:
            a = crossing_count(p, q, hole_scene)
        except DegenerateSightlineError:
            continue
        assert a == crossing_count(q, p, hole_scene)


def test_k_visible_monotone_in_k(hole_scene):
    p, q = pt(1, 5), pt(9, 5)
    assert k_visible(p, q, 2, hole_scene)
    assert not k_visible(p, q, 1, hole_scene)
    for k in range(2, 8):
        assert k_visible(p, q, k, hole_scene)


def test_convex_scene_zero_crossings(convex_pentagon):
    scene = VisibilityQueryScene(convex_pentagon)
    rng = random.Random(11)
    x0, y0, x1, y1 = convex_pentagon.bbox()
    from kvisguard.geometry import INSIDE, point_in_polygon

    pts = []
    while len(pts) < 40:
        p = Point(
            x0 + Fraction(rng.randrange(0, 1 << 10), 1 << 10) * (x1 - x0),
            y0 + Fraction(rng.randrange(0, 1 << 10), 1 << 10) * (y1 - y0),
        )
        if point_in_polygon(p, convex_pentagon) == INSIDE:
            pts.append(p)
    for i in range(0, 40, 2):
        assert crossing_count(pts[i], pts[i + 1], scene) == 0


def test_exterior_point_to_convex_interior_crosses_once(convex_pentagon):
    # A segment from outside into a convex region enters exactly once.
    scene = VisibilityQueryScene(convex_pentagon)
    g = pt(20, "7/3")
    rng = random.Random(3)
    from kvisguard.geometry import INSIDE, point_in_polygon

    checked = 0
    while checked < 50:
        p = Point(
            Fraction(rng.randrange(0, 1 << 10), 1 << 10) * 5,
            Fraction(rng.randrange(0, 1 << 10), 1 << 10) * 5,
        )
        if point_in_polygon(p, convex_pentagon) != INSIDE:
            continue
        try:
            assert crossing_count(g, p, scene) == 1
        except DegenerateSightlineError:
            continue
        checked += 1


def test_host_edge_counting_convention(unit_square):
    # Guard on the bottom edge looking to a point "behind" the edge's line
    # never happens inside the square, so craft an L where it can.
    L = PolygonWithHoles(
        ring([(0, 0), (4, 0), (4, 4), (3, 4), (3, 1), (0, 1)])
    )
    scene = VisibilityQueryScene(L)
    g = pt(3, 2)  # on the interior of edge (3,4)->(3,1)
    target = pt(1, "1/2")
    # The sight line exits through the host edge (free) and then crosses
    # the y=1 edge once on its way into the lower bar.
    assert crossing_count(g, target, scene) == 1


def test_crossing_count_matches_bruteforce_oracle(acceptance_corpus):
    # Acceptance criterion 9 runs the full 1e5; this is the fast dev slice.
    rng = random.Random(99)
    agreed = 0
    for name, poly in acceptance_corpus:
        scene = VisibilityQueryScene(poly)
        x0, y0, x1, y1 = poly.bbox()
        for _ in range(600):
            p = Point(
                x0 + Fraction(rng.randrange(0, 1 << 10), 1 << 10) * (x1 - x0),
                y0 + Fraction(rng.randrange(0, 1 << 10), 1 << 10) * (y1 - y0),
            )
            q = Point(
                x0 + Fraction(rng.randrange(0, 1 << 10), 1 << 10) * (x1 - x0),
                y0 + Fraction(rng.randrange(0, 1 << 10), 1 << 10) * (y1 - y0),
            )
            if p == q:
                continue
            try:
                mine = crossing_count(p, q, scene)
            except DegenerateSightlineError:
                with pytest.raises(OracleDegenerate):
                    crossing_count_bruteforce(p, q, poly)
                continue
            assert mine == crossing_count_bruteforce(p, q, poly), (name, p, q)
            agreed += 1
    assert agreed > 4000


def test_strongly_sees_region_examples(unit_square):
    scene = VisibilityQueryScene(unit_square)
    tri = ring([(0, 0), (1, 0), (1, 1)])  # lower piece of the split square
    # A point on the shared diagonal itself sees all of the piece under k=2.
    assert strongly_k_sees_region(pt("1/2", "1/2"), tri, 2, scene)
    # Point near the diagonal in the upper piece sees the whole lower piece.
    assert strongly_k_sees_region(pt("1/4", "3/8"), tri, 2, scene)
    # A point inside its own convex region sees it with k = 0.
    assert strongly_k_sees_region(pt("3/4", "1/4"), tri, 0, scene)


def test_strongly_sees_region_blocked_in_comb():
    comb = PolygonWithHoles(comb_ring(3))
    scene = VisibilityQueryScene(comb)
    # Far tooth from deep inside the first (slanted) tooth: two full teeth
    # of wall between them, so 0- and 2-visibility fail and 4 suffices.
    far_tooth = ring([(4, 1), (5, 1), (5, 2), (4, 2)])
    deep = pt("31/32", "15/8")
    assert not strongly_k_sees_region(deep, far_tooth, 0, scene)
    assert not strongly_k_sees_region(deep, far_tooth, 2, scene)
    assert strongly_k_sees_region(deep, far_tooth, 4, scene)


def test_strong_interval_full_edge(unit_square):
    scene = VisibilityQueryScene(unit_square)
    tri_a = ring([(0, 0), (1, 0), (1, 1)])
    # host edge 3 = (0,1)->(0,0), in piece B across the diagonal
    ivs = strong_kvis_interval_on_edge(3, tri_a, 2, scene)
    assert ivs == [type(ivs[0])(3, Fraction(0), Fraction(1))]


def test_strong_interval_own_region_any_k(unit_square):
    scene = VisibilityQueryScene(unit_square)
    tri_a = ring([(0, 0), (1, 0), (1, 1)])
    ivs = strong_kvis_interval_on_edge(0, tri_a, 0, scene)
    assert len(ivs) == 1
    assert ivs[0].t_lo == 0 and ivs[0].t_hi == 1


def test_strong_interval_empty_for_deep_spiral():
    sp = generate(GenSpec("spiral", 13, 1))
    scene = VisibilityQueryScene(sp)
    # Innermost pocket region vs an edge on the far outside at k=0.
    inner = ring([(6, 3), (6, 5), (5, 5), (5, 3)])
    ivs = strong_kvis_interval_on_edge(0, inner, 0, scene)
    assert ivs == []


def test_strong_interval_members_recheck(acceptance_corpus):
    # Candidates inside returned intervals pass the point check used to
    # build them.
    name, poly = acceptance_corpus[3]  # comb3
    scene = VisibilityQueryScene(poly)
    region = ring([(2, 1), (3, 1), (3, 2), (2, 2)])  # middle tooth
    n = HOST_EDGE_CANDIDATES
    for edge_idx in (0, 1):
        ivs = strong_kvis_interval_on_edge(edge_idx, region, 2, scene)
        for iv in ivs:
            for j in range(n):
                t = Fraction(2 * j + 1, 2 * n)
                if iv.t_lo <= t <= iv.t_hi:
                    p = scene.obstacle_edges[edge_idx].point_at(t)
                    assert strongly_k_sees_region(p, region, 2, scene)


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def _reference_crossing_count_h(p_h, q_h, edges_i):
    """The crossing kernel as it was before the per-origin edge table: every
    term recomputed per query from the raw integer edges."""
    from kvisguard.visibility import _collinear_overlap, _vertex_on_open_segment_check

    pnx, pny, pd = p_h
    qnx, qny, qd = q_h
    ux = qnx * pd - pnx * qd
    uy = qny * pd - pny * qd
    if ux == 0 and uy == 0:
        raise ValueError("crossing_count requires two distinct points")
    count = 0
    for idx, (ax, ay, bx, by) in enumerate(edges_i):
        apx = ax * pd - pnx
        apy = ay * pd - pny
        oa = ux * apy - uy * apx
        bpx = bx * pd - pnx
        bpy = by * pd - pny
        ob = ux * bpy - uy * bpx
        sa, sb = _sign(oa), _sign(ob)
        if sa != 0 and sa == sb:
            continue
        if sa == 0 and sb == 0:
            if _collinear_overlap(p_h, q_h, ax, ay, bx, by):
                raise DegenerateSightlineError(
                    f"sight segment collinear-overlaps edge {idx}", idx
                )
            continue
        if sa == 0:
            _vertex_on_open_segment_check(p_h, q_h, ax, ay, idx)
            continue
        if sb == 0:
            _vertex_on_open_segment_check(p_h, q_h, bx, by, idx)
            continue
        ex = bx - ax
        ey = by - ay
        op = ex * (pny - ay * pd) - ey * (pnx - ax * pd)
        oq = ex * (qny - ay * qd) - ey * (qnx - ax * qd)
        sp, sq = _sign(op), _sign(oq)
        if sp == 0 or sq == 0:
            continue
        if sp != sq:
            count += 1
    return count


def _kernel_outcome(fn, *args):
    try:
        return fn(*args)
    except DegenerateSightlineError as e:
        return (type(e), e.edge_index, str(e))


def test_crossing_kernel_matches_reference(acceptance_corpus, square_with_hole, l_with_star_hole):
    # Every ordered pair of vertices, edge midpoints and edge quarter-points:
    # collinear overlaps, vertex grazes and endpoints on edge interiors all
    # occur, and the first degenerate edge in index order must be the one
    # reported.
    from kvisguard.visibility import crossing_count_h, origin_table

    polys = [dict(acceptance_corpus)["comb3"], square_with_hole, l_with_star_hole]
    seen = {"overlap": 0, "graze": 0, "counted": 0}
    for poly in polys:
        pts = []
        for e in poly.edges():
            for t in (0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
                p = e.point_at(t)
                if p not in pts:
                    pts.append(p)
        scene = VisibilityQueryScene(poly)
        hs = [scene.homogenize(p) for p in pts]
        for p_h in hs:
            table = origin_table(p_h, scene._edges_i)
            for q_h in hs:
                if q_h == p_h:
                    continue
                want = _kernel_outcome(_reference_crossing_count_h, p_h, q_h, scene._edges_i)
                got = _kernel_outcome(crossing_count_h, p_h, q_h, table)
                assert got == want, (p_h, q_h)
                if isinstance(want, tuple):
                    seen["overlap" if "collinear" in want[2] else "graze"] += 1
                seen["counted"] += not isinstance(want, tuple)
    assert all(v > 0 for v in seen.values()), seen


def _query_outcome(fn, *args):
    try:
        return fn(*args)
    except DegenerateSightlineError as e:
        return (DegenerateSightlineError, e.edge_index)
    except ValueError:
        return ValueError


def _wedge_cases(polys):
    """Per polygon: its scene, guards at every vertex, edge midpoint and edge
    quarter-point, and queries at those points and on a half-unit interior
    grid, the last two homogenized."""
    from kvisguard.geometry import INSIDE, point_in_polygon

    for poly in polys:
        guards = []
        for e in poly.edges():
            for t in (0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
                p = e.point_at(t)
                if p not in guards:
                    guards.append(p)
        x0, y0, x1, y1 = poly.bbox()
        grid = [
            pt(Fraction(i, 2), Fraction(j, 2))
            for i in range(int(2 * x0), int(2 * x1) + 1)
            for j in range(int(2 * y0), int(2 * y1) + 1)
        ]
        queries = guards + [q for q in grid if point_in_polygon(q, poly) == INSIDE]
        scene = VisibilityQueryScene(poly)
        yield scene, [scene.homogenize(g) for g in guards], [scene.homogenize(q) for q in queries]


def _on_ray(vertices, g_h, q_h) -> bool:
    """q lies on a ray from g through a scene vertex."""
    gx, gy, gd = g_h
    qx, qy, qd = q_h
    ux, uy = qx * gd - gx * qd, qy * gd - gy * qd
    return any(
        (vx * gd - gx) * uy == (vy * gd - gy) * ux
        and (vx * gd - gx) * ux + (vy * gd - gy) * uy > 0
        for vx, vy in vertices
    )


def _recording_kernel(monkeypatch):
    """Route ``visibility.crossing_count_h`` through a recorder; returns the
    list of (p_h, q_h) it was called with."""
    import kvisguard.visibility as vis

    kernel = vis.crossing_count_h
    calls = []

    def recording(p_h, q_h, table):
        calls.append((p_h, q_h))
        return kernel(p_h, q_h, table)

    monkeypatch.setattr(vis, "crossing_count_h", recording)
    return calls


def test_wedge_index_matches_kernel(acceptance_corpus, square_with_hole, l_with_star_hole, monkeypatch):
    # Guards at every vertex, edge midpoint and edge quarter-point; queries
    # at those points and on a half-unit interior grid.  The index must
    # give the kernel's count, or its exception and edge_index, and its
    # fallback must reach the module's kernel.
    import kvisguard.visibility as vis

    kernel = vis.crossing_count_h
    fallbacks = _recording_kernel(monkeypatch)
    polys = [dict(acceptance_corpus)["comb3"], square_with_hole, l_with_star_hole]
    seen = {"vertex_ray": 0, "on_edge": 0, "raise": 0}
    for scene, gs_h, qs_h in _wedge_cases(polys):
        vertices = vis.WedgeScene(scene._edges_i).vertices
        for g_h, index in zip(gs_h, vis.wedge_indexes(scene._edges_i, gs_h)):
            table = vis.origin_table(g_h, scene._edges_i)
            for q_h in qs_h:
                del fallbacks[:]
                got = _query_outcome(index.count, q_h)
                want = _query_outcome(kernel, g_h, q_h, table)
                assert got == want, (g_h, q_h)
                if isinstance(want, tuple):
                    seen["raise"] += 1
                if not fallbacks:
                    continue
                assert fallbacks == [(g_h, q_h)]
                seen["vertex_ray" if _on_ray(vertices, g_h, q_h) else "on_edge"] += 1
    assert all(v > 0 for v in seen.values()), seen


def test_wedge_tally_matches_count(acceptance_corpus, square_with_hole, l_with_star_hole, monkeypatch):
    # On the queries of test_wedge_index_matches_kernel, for k = 0..4: one
    # guard's tally gives count(q) <= k, None exactly where count raises,
    # and reaches the kernel only on pairs where count does.  Tallying all
    # guards in turn into one list matches counting each sample until its
    # first degenerate guard, and queries nothing past that guard.
    import kvisguard.visibility as vis

    calls = _recording_kernel(monkeypatch)
    polys = [dict(acceptance_corpus)["comb3"], square_with_hole, l_with_star_hole]
    seen = {"seen": 0, "unseen": 0, "raise": 0, "vertex_ray": 0, "on_edge": 0}
    for scene, gs_h, qs_h in _wedge_cases(polys):
        vertices = vis.WedgeScene(scene._edges_i).vertices
        indexes = vis.wedge_indexes(scene._edges_i, gs_h)
        counted, count_calls = [], set()
        for index in indexes:
            row = {}
            for q_h in qs_h:
                if q_h != index.g_h:
                    del calls[:]
                    row[q_h] = _query_outcome(index.count, q_h)
                    count_calls.update(calls)
            counted.append(row)
        free = [q_h for q_h in qs_h if q_h not in gs_h]
        for k in range(5):
            for index, row in zip(indexes, counted):
                qs = list(row)
                want = [None if isinstance(o, tuple) else int(o <= k) for o in row.values()]
                got = [0] * len(qs)
                del calls[:]
                index.tally(qs, k, got)
                assert got == want, (index.g_h, k)
                assert set(calls) <= count_calls
                for _, q_h in calls:
                    seen["vertex_ray" if _on_ray(vertices, index.g_h, q_h) else "on_edge"] += 1
                seen["seen"] += want.count(1)
                seen["unseen"] += want.count(0)
                seen["raise"] += want.count(None)
            want, reached = [], set()
            for q_h in free:
                total = 0
                for index, row in zip(indexes, counted):
                    if (index.g_h, q_h) in count_calls:
                        reached.add((index.g_h, q_h))
                    o = row[q_h]
                    if isinstance(o, tuple):
                        total = None
                        break
                    total += o <= k
                want.append(total)
            got = [0] * len(free)
            del calls[:]
            for index in indexes:
                index.tally(free, k, got)
            assert got == want, k
            assert set(calls) <= reached
    assert all(v > 0 for v in seen.values()), seen


def test_homogenize_matches_fraction_formula():
    # The triple is the wedge-index cache key and feeds every sign, so it
    # must equal the Fraction formula's exactly, not just in ratio.
    def reference(p, scale):
        sx, sy = Fraction(p.x) * scale, Fraction(p.y) * scale
        d = math.lcm(sx.denominator, sy.denominator)
        return int(sx * d), int(sy * d), d

    scene = VisibilityQueryScene(
        PolygonWithHoles(ring([(0, 0), (Fraction(7, 2), 0), (3, Fraction(10, 3)), (0, 4)]))
    )
    assert scene.scale == 6
    points = [
        pt(3, -7),  # ints
        pt(Fraction(1, 4), Fraction(5, 9)),  # unequal denominators, gcd 2 and 3
        pt(Fraction(-5, 3), Fraction(1, 3)),  # den divides the scale
        pt(Fraction(1, 12), Fraction(-7, 12)),  # equal denominators
        pt(Fraction(-3, 8), Fraction(-5, 27)),  # negative, unequal
        pt(2, Fraction(-11, 7)),  # one int, gcd 1
        pt(Fraction(13, 10), Fraction(-13, 10)),
    ]
    for p in points:
        got = scene.homogenize(p)
        assert got == reference(p, scene.scale), p
        assert all(type(c) is int for c in got), p


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _clip_ring(pts, a, b, c):
    """Fraction Sutherland-Hodgman: the convex polygon ``pts`` cut to the
    closed half-plane a*x + b*y + c >= 0."""
    out = []
    for i, (x1, y1) in enumerate(pts):
        x0, y0 = pts[i - 1]
        f0, f1 = a * x0 + b * y0 + c, a * x1 + b * y1 + c
        if (f0 < 0 < f1) or (f1 < 0 < f0):
            t = f0 / (f0 - f1)
            out.append((x0 + t * (x1 - x0), y0 + t * (y1 - y0)))
        if f1 >= 0:
            out.append((x1, y1))
    return out


def _reference_witness(g, region, k, poly):
    """A point of ``region``'s interior more than k oracle crossings from g,
    or None.  The region is cut into g's wedges (between consecutive
    directions from g to scene vertices); in a wedge, more than k crossings
    is a half-plane (beyond the (k+1)-th edge), so if it meets the cut piece
    it holds all points close enough to one of the piece's vertices."""
    gx, gy = Fraction(g.x), Fraction(g.y)
    dirs = []
    for v in {v for r in poly.rings() for v in r.vertices}:
        d = (v.x - gx, v.y - gy)
        if d != (0, 0) and all(_cross(d, e) or d[0] * e[0] + d[1] * e[1] < 0 for e in dirs):
            dirs.append(d)

    def before(u, v):
        hu = not (u[1] > 0 or (u[1] == 0 and u[0] > 0))
        hv = not (v[1] > 0 or (v[1] == 0 and v[0] > 0))
        return (hu > hv) - (hu < hv) or -_cross(u, v)

    dirs.sort(key=cmp_to_key(before))
    for r, s in zip(dirs, dirs[1:] + dirs[:1]):
        if _cross(r, s) <= 0:
            continue  # pi wide or more: no edge spans it, no point crosses
        pts = [(Fraction(v.x), Fraction(v.y)) for v in region.vertices]
        pts = _clip_ring(pts, -r[1], r[0], r[1] * gx - r[0] * gy)
        pts = _clip_ring(pts, s[1], -s[0], s[0] * gy - s[1] * gx) if len(pts) >= 3 else []
        if len(pts) < 3:
            continue
        cx = sum(x for x, _ in pts) / len(pts)
        cy = sum(y for _, y in pts) / len(pts)
        for ux, uy in pts:
            for m in range(20, 40):
                w = Point(ux + (cx - ux) / 2**m, uy + (cy - uy) / 2**m)
                try:
                    if crossing_count_bruteforce(g, w, poly) > k:
                        return w
                    break
                except OracleDegenerate:
                    continue
    return None


def _interior_lattice(region, n=5):
    xs = [Fraction(v.x) for v in region.vertices]
    ys = [Fraction(v.y) for v in region.vertices]
    x0, y0, w, h = min(xs), min(ys), max(xs) - min(xs), max(ys) - min(ys)
    pts = [
        Point(x0 + w * Fraction(2 * i + 1, 2 * n), y0 + h * Fraction(2 * j + 1, 2 * n))
        for i in range(n)
        for j in range(n)
    ]
    return [p for p in pts if winding_number_inside(p, region) and not point_on_boundary(p, region)]


def _oracle_counts(g, pts, poly):
    out = []
    for q in pts:
        if q == g:
            continue
        try:
            out.append(crossing_count_bruteforce(g, q, poly))
        except OracleDegenerate:
            pass
    return out


def test_strong_visibility_matches_bruteforce_oracle(acceptance_corpus, square_with_hole, l_with_star_hole):
    # Guards at edge midpoints and quarter-points, against every piece of
    # the decomposition, at k = 0, 2, 4.  A "yes" leaves no interior lattice
    # point of the piece above k crossings by the oracle; a "no" has an
    # interior witness above k, from the lattice or the reference clip.
    from kvisguard.decomposition import FAST, MINIMAL, decompose

    seen = {"yes": 0, "no_lattice": 0, "no_reference": 0}
    for poly in (dict(acceptance_corpus)["comb3"], square_with_hole, l_with_star_hole):
        scene = VisibilityQueryScene(poly)
        pieces = decompose(poly, FAST if poly.holes else MINIMAL).pieces
        for e in poly.edges():
            for t in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
                g = e.point_at(t)
                for piece in pieces:
                    counts = _oracle_counts(g, _interior_lattice(piece.ring), poly)
                    for k in (0, 2, 4):
                        if strongly_k_sees_region(g, piece.ring, k, scene):
                            assert all(c <= k for c in counts), (g, piece.ring, k)
                            seen["yes"] += 1
                        elif any(c > k for c in counts):
                            seen["no_lattice"] += 1
                        else:
                            w = _reference_witness(g, piece.ring, k, poly)
                            assert w is not None, (g, piece.ring, k)
                            seen["no_reference"] += 1
    assert all(v > 0 for v in seen.values()), seen


def test_clip_has_area_needs_a_proper_triangle():
    from kvisguard.visibility import _clip_has_area

    # A pentagon with a straight vertex at (0, 1): cut to x <= 0 it keeps
    # three collinear vertices and no area; cut to x <= 1/2 (homogeneous
    # d = 2) it keeps a strip.
    pentagon = [(0, 0, 1), (1, 0, 1), (1, 2, 1), (0, 2, 1), (0, 1, 1)]
    assert not _clip_has_area(pentagon, [(-1, 0, 0)])
    assert _clip_has_area(pentagon, [(-2, 0, 1)])
    # Two cuts that leave only the square's diagonal y = x.
    square = [(0, 0, 1), (2, 0, 1), (2, 2, 1), (0, 2, 1)]
    assert not _clip_has_area(square, [(-1, 1, 0), (1, -1, 0)])
    assert _clip_has_area(square, [(-1, 1, 0), (1, 0, -1)])


def test_strong_visibility_regression_cells(acceptance_corpus):
    # random20b at k = 4: a placed guard whose 8 nudged probes per piece
    # edge all stayed within 4 crossings, while a sliver of the piece lies
    # 6 crossings away.
    poly = dict(acceptance_corpus)["random20b"]
    g = Point(Fraction(24403197, 147898), Fraction(46291975, 295796))
    piece = ring([(40, 259), (24, 187), (16, 73), (42, 169)])
    assert not strongly_k_sees_region(g, piece, 4, VisibilityQueryScene(poly))
    w = _reference_witness(g, piece, 4, poly)
    assert w is not None and crossing_count_bruteforce(g, w, poly) == 6
    # comb3's base piece from a guard on the tooth wall x = 3: the centroid
    # of the piece is on that line too, so nudging the probe at vertex (3, 1)
    # toward it kept grazing the vertex; the guard does 2-see the piece.
    poly = dict(acceptance_corpus)["comb3"]
    g = pt(3, "3/2")
    base = ring([(0, 0), (6, 0), (5, 1), (4, 1), (3, 1), (2, 1), (1, 1)])
    assert strongly_k_sees_region(g, base, 2, VisibilityQueryScene(poly))
    counts = _oracle_counts(g, _interior_lattice(base, 24), poly)
    assert counts and max(counts) <= 2


def test_strong_visibility_wide_wedge_with_unequal_rays():
    # From g = (0, 0), the wedge between the rays to (1, 0) and to
    # (-30, 3) is almost pi wide and lists three edges: the hole's two,
    # then the outer top edge.  The region lies near the short ray, beyond
    # both hole edges, yet on the far side of the line through g normal to
    # the sum of the two ray vectors.
    outer = ring([(30, -30), (30, -1), (-30, 3), (-30, -30)])
    hole = ring([(1, 0), (-10, 1), (-20, 2)])
    poly = PolygonWithHoles(outer, [hole])
    scene = VisibilityQueryScene(poly)
    g = pt(0, 0)
    region = ring([(4, "1/4"), (6, "1/4"), (5, "1/2")])
    counts = _oracle_counts(g, _interior_lattice(region), poly)
    assert counts and set(counts) == {2}
    for k in (0, 1):
        assert not strongly_k_sees_region(g, region, k, scene)
        w = _reference_witness(g, region, k, poly)
        assert w is not None and crossing_count_bruteforce(g, w, poly) == 2
    assert strongly_k_sees_region(g, region, 2, scene)
