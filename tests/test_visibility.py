import random
from fractions import Fraction

import pytest

from kvisguard.geometry import Point, PolygonWithHoles, pt, ring
from kvisguard.generators import GenSpec, comb_ring, generate
from kvisguard.visibility import (
    DegenerateSightlineError,
    VisibilityQueryScene,
    crossing_count,
    k_visible,
    strong_kvis_interval_on_edge,
    strongly_k_sees_region,
)

from .oracles import OracleDegenerate, crossing_count_bruteforce


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
    default = VisibilityQueryScene(L)
    counting = VisibilityQueryScene(L, count_endpoint_edges=True)
    g = pt(3, 2)  # on the interior of edge (3,4)->(3,1)
    target = pt(1, "1/2")
    # The sight line exits through the host edge (free by default) and then
    # crosses the y=1 edge once on its way into the lower bar.
    assert crossing_count(g, target, default) == 1
    assert crossing_count(g, target, counting) == 2


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
    assert strongly_k_sees_region(pt("1/2", "1/2"), tri, 2, scene, 8)
    # Point near the diagonal in the upper piece sees the whole lower piece.
    assert strongly_k_sees_region(pt("1/4", "3/8"), tri, 2, scene, 8)
    # A point inside its own convex region sees it with k = 0.
    assert strongly_k_sees_region(pt("3/4", "1/4"), tri, 0, scene, 8)


def test_strongly_sees_region_blocked_in_comb():
    comb = PolygonWithHoles(comb_ring(3))
    scene = VisibilityQueryScene(comb)
    # Far tooth from deep inside the first (slanted) tooth: two full teeth
    # of wall between them, so 0- and 2-visibility fail and 4 suffices.
    far_tooth = ring([(4, 1), (5, 1), (5, 2), (4, 2)])
    deep = pt("31/32", "15/8")
    assert not strongly_k_sees_region(deep, far_tooth, 0, scene, 8)
    assert not strongly_k_sees_region(deep, far_tooth, 2, scene, 8)
    assert strongly_k_sees_region(deep, far_tooth, 4, scene, 8)


def test_strong_interval_full_edge(unit_square):
    scene = VisibilityQueryScene(unit_square)
    tri_a = ring([(0, 0), (1, 0), (1, 1)])
    # host edge 3 = (0,1)->(0,0), in piece B across the diagonal
    ivs = strong_kvis_interval_on_edge(3, tri_a, 2, scene, n_samples=16, region_samples=8)
    assert ivs == [type(ivs[0])(3, Fraction(0), Fraction(1))]


def test_strong_interval_own_region_any_k(unit_square):
    scene = VisibilityQueryScene(unit_square)
    tri_a = ring([(0, 0), (1, 0), (1, 1)])
    ivs = strong_kvis_interval_on_edge(0, tri_a, 0, scene, n_samples=16, region_samples=8)
    assert len(ivs) == 1
    assert ivs[0].t_lo == 0 and ivs[0].t_hi == 1


def test_strong_interval_empty_for_deep_spiral():
    sp = generate(GenSpec("spiral", 13, 1))
    scene = VisibilityQueryScene(sp)
    # Innermost pocket region vs an edge on the far outside at k=0.
    inner = ring([(6, 3), (6, 5), (5, 5), (5, 3)])
    ivs = strong_kvis_interval_on_edge(0, inner, 0, scene, n_samples=12, region_samples=6)
    assert ivs == []


def test_strong_interval_members_recheck(acceptance_corpus):
    # Candidates inside returned intervals pass the point check used to
    # build them.
    name, poly = acceptance_corpus[3]  # comb3
    scene = VisibilityQueryScene(poly)
    region = ring([(2, 1), (3, 1), (3, 2), (2, 2)])  # middle tooth
    n = 12
    for edge_idx in (0, 1):
        ivs = strong_kvis_interval_on_edge(
            edge_idx, region, 2, scene, n_samples=n, region_samples=6
        )
        for iv in ivs:
            for j in range(n):
                t = Fraction(2 * j + 1, 2 * n)
                if iv.t_lo <= t <= iv.t_hi:
                    p = scene.obstacle_edges[edge_idx].point_at(t)
                    assert strongly_k_sees_region(p, region, 2, scene, 6)


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def _reference_crossing_count_h(p_h, q_h, edges_i, count_endpoint_edges=False):
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
            if count_endpoint_edges:
                count += 1
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
    seen = {"overlap": 0, "graze": 0, "endpoint_edge": 0, "counted": 0}
    for poly in polys:
        pts = []
        for e in poly.edges():
            for t in (0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
                p = e.point_at(t)
                if p not in pts:
                    pts.append(p)
        for cee in (False, True):
            scene = VisibilityQueryScene(poly, count_endpoint_edges=cee)
            hs = [scene.homogenize(p) for p in pts]
            for p_h in hs:
                table = origin_table(p_h, scene._edges_i)
                for q_h in hs:
                    if q_h == p_h:
                        continue
                    want = _kernel_outcome(_reference_crossing_count_h, p_h, q_h, scene._edges_i, cee)
                    got = _kernel_outcome(crossing_count_h, p_h, q_h, table, cee)
                    assert got == want, (p_h, q_h, cee)
                    if isinstance(want, tuple):
                        seen["overlap" if "collinear" in want[2] else "graze"] += 1
                    elif cee and want != _reference_crossing_count_h(p_h, q_h, scene._edges_i):
                        seen["endpoint_edge"] += 1
                    seen["counted"] += not isinstance(want, tuple)
    assert all(v > 0 for v in seen.values()), seen


def test_region_probes_shared_scene_matches_fresh(square_with_hole, monkeypatch):
    # One scene reused across calls (its region probes built once per
    # region, n_samples and epsilon) answers as a fresh scene per call.
    import kvisguard.visibility as vis

    poly = square_with_hole
    raised = []
    kernel = vis.crossing_count_h

    def counting(*args):
        try:
            return kernel(*args)
        except DegenerateSightlineError:
            raised.append(args[1])
            raise

    monkeypatch.setattr(vis, "crossing_count_h", counting)
    # Reaches into the hole by 1/8: a tiny nudge leaves probes in the hole
    # (one crossing), epsilon 1/2 pulls them all out of it.
    near_hole = ring([("1/2", 1), ("33/8", 1), ("33/8", 5), ("1/2", 5)])
    top_right = ring([(7, 7), (9, 7), (9, 9), (7, 9)])
    lower = ring([(1, 1), (9, 1), (9, 3), (1, 3)])
    # A probe of top_right's bottom edge and the hole corner (6, 6) fix a
    # sight line; p on its extension makes that probe degenerate.
    rel = vis._relative_nudge(top_right, vis.default_epsilon(VisibilityQueryScene(poly)))
    s = Point(8, 7 + rel)
    graze = Point(6 + 3 * (6 - s.x), 6 + 3 * (6 - s.y))
    cases = [
        (near_hole, pt(1, "9/2"), 0),
        (near_hole, pt(1, "9/2"), 1),
        (top_right, graze, 2),
        (top_right, pt(1, 9), 0),
        (lower, pt(5, 9), 2),
        (lower, pt(5, 9), 1),
    ]
    shared = VisibilityQueryScene(poly)
    answers = {}
    for region, p, k in cases:
        for eps in (None, Fraction(1, 2)):
            for n in (3, 5):
                want = strongly_k_sees_region(p, region, k, VisibilityQueryScene(poly), n, eps)
                got = strongly_k_sees_region(p, region, k, shared, n, eps)
                assert got == want, (region, p, k, eps, n)
                answers[(region, p, k, eps, n)] = got
    assert not answers[(near_hole, pt(1, "9/2"), 0, None, 3)]
    assert answers[(near_hole, pt(1, "9/2"), 0, Fraction(1, 2), 3)]
    assert shared.homogenize(s) in raised  # the degenerate-retry path ran
    assert len(shared._probes) == 3 * 2 * 2


def _query_outcome(fn, *args):
    try:
        return fn(*args)
    except DegenerateSightlineError as e:
        return (DegenerateSightlineError, e.edge_index)
    except ValueError:
        return ValueError


def test_wedge_index_matches_kernel(acceptance_corpus, square_with_hole, l_with_star_hole, monkeypatch):
    # Guards at every vertex, edge midpoint and edge quarter-point; queries
    # at those points and on a half-unit interior grid.  The index must
    # give the kernel's count, or its exception and edge_index, under both
    # conventions, and its fallback must reach the module's kernel.
    import kvisguard.visibility as vis
    from kvisguard.geometry import INSIDE, point_in_polygon

    kernel = vis.crossing_count_h
    fallbacks = []

    def recording(p_h, q_h, table, cee):
        fallbacks.append((p_h, q_h))
        return kernel(p_h, q_h, table, cee)

    monkeypatch.setattr(vis, "crossing_count_h", recording)
    polys = [dict(acceptance_corpus)["comb3"], square_with_hole, l_with_star_hole]
    seen = {"vertex_ray": 0, "on_edge": 0, "host_edge": 0, "raise": 0}
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
        vertices = vis.WedgeScene(scene._edges_i).vertices
        gs_h = [scene.homogenize(g) for g in guards]
        qs_h = [scene.homogenize(q) for q in queries]
        plain = dict(zip(gs_h, vis.wedge_indexes(scene._edges_i, gs_h)))
        for cee in (False, True):
            for g_h, index in zip(gs_h, vis.wedge_indexes(scene._edges_i, gs_h, cee)):
                table = vis.origin_table(g_h, scene._edges_i)
                for q_h in qs_h:
                    del fallbacks[:]
                    got = _query_outcome(index.count, q_h)
                    want = _query_outcome(kernel, g_h, q_h, table, cee)
                    assert got == want, (g_h, q_h, cee)
                    if isinstance(want, tuple):
                        seen["raise"] += 1
                    if not fallbacks:
                        if cee and want != plain[g_h].count(q_h):
                            seen["host_edge"] += 1
                        continue
                    assert fallbacks == [(g_h, q_h)]
                    gx, gy, gd = g_h
                    qx, qy, qd = q_h
                    ux, uy = qx * gd - gx * qd, qy * gd - gy * qd
                    on_ray = any(
                        (vx * gd - gx) * uy == (vy * gd - gy) * ux
                        and (vx * gd - gx) * ux + (vy * gd - gy) * uy > 0
                        for vx, vy in vertices
                    )
                    seen["vertex_ray" if on_ray else "on_edge"] += 1
    assert all(v > 0 for v in seen.values()), seen
