from fractions import Fraction

import pytest

from kvisguard.geometry import INSIDE, PolygonWithHoles, point_in_polygon, pt, ring
from kvisguard.decomposition import MINIMAL, REAL, decompose
from kvisguard.generators import GenSpec, generate
from kvisguard.placement import (
    ROLE_HOLE_EDGE,
    GuardSet,
    guard_convex_piece,
    guard_with_holes,
    place_guards,
    relocate_guard,
)
from kvisguard.verify import SamplePlan, check_guard_bound, coverage
from kvisguard.visibility import VisibilityQueryScene, crossing_count


def test_guard_convex_piece_square(unit_square):
    d = decompose(unit_square, MINIMAL)
    guards = guard_convex_piece(d.pieces[0], 4)
    positions = sorted(g.position.as_floats() for g in guards)
    assert positions == [(0.0, 0.5), (0.5, 0.0), (0.5, 1.0), (1.0, 0.5)]
    assert all(g.host_kind == REAL for g in guards)
    assert all(g.t == Fraction(1, 2) for g in guards)


def test_guard_convex_piece_triangle_extra_param():
    tri = PolygonWithHoles(ring([(0, 0), (4, 0), (0, 3)]))
    d = decompose(tri, MINIMAL)
    guards = guard_convex_piece(d.pieces[0], 4)
    assert len(guards) == 4
    # 3 midpoints plus one extra at parameter 1/3 of the longest edge (the
    # hypotenuse, edge index 1).
    assert [g.t for g in guards[:3]] == [Fraction(1, 2)] * 3
    assert guards[3].t == Fraction(1, 3)
    assert guards[3].host_index == 1
    # every guard sees every interior sample with zero crossings
    scene = VisibilityQueryScene(tri)
    import random

    rng = random.Random(1)
    checked = 0
    while checked < 60:
        p = pt(Fraction(rng.randrange(1, 4096), 4096) * 4, Fraction(rng.randrange(1, 4096), 4096) * 3)
        if point_in_polygon(p, tri) != INSIDE:
            continue
        for g in guards:
            assert crossing_count(p, g.position, scene) == 0
        checked += 1


def test_guard_convex_piece_prefers_reused_real_edges(l_hexagon):
    d = decompose(l_hexagon, MINIMAL)
    piece = next(p for p in d.pieces if len(p.real_edge_indices()) == 3)
    guards = guard_convex_piece(piece, 5)
    assert len(guards) == 5
    real_hosts = {g.host_index for g in guards}
    assert len(real_hosts) == 3  # extras reuse already-used real edges
    assert all(g.host_kind == REAL for g in guards)


def test_guard_convex_piece_no_real_edge_raises(unit_square):
    d = decompose(unit_square, MINIMAL)
    piece = d.pieces[0]
    bad = type(piece)(piece.id, piece.ring, tuple(
        type(lab)("diagonal", i) for i, lab in enumerate(piece.labels)
    ))
    with pytest.raises(ValueError):
        guard_convex_piece(bad, 2)


def test_place_guards_convex_base_case(convex_pentagon):
    gs, trace = place_guards(convex_pentagon, 2)
    assert len(gs.guards) == 4
    assert gs.target_m == 4
    assert trace.certified
    assert len(trace.steps) == 1
    plan = SamplePlan(grid_density=20, random_count=200, near_feature_count=2, seed=1)
    report = coverage(convex_pentagon, gs, plan, piece_count=gs.piece_count)
    assert report.min_coverage >= 4
    assert report.guard_bound_ok


def test_place_guards_l_shape(l_hexagon):
    gs, trace = place_guards(l_hexagon, 2)
    assert trace.certified
    assert len(gs.guards) <= 4  # kC bound with C = 2
    d = decompose(l_hexagon, MINIMAL)
    assert check_guard_bound(gs, d)
    plan = SamplePlan(grid_density=32, random_count=1000, near_feature_count=4, seed=0)
    report = coverage(l_hexagon, gs, plan)
    assert report.min_coverage >= 4


def test_place_guards_final_guards_on_real_edges(acceptance_corpus):
    for name, poly in acceptance_corpus[:6]:
        gs, trace = place_guards(poly, 2)
        assert trace.certified, name
        for g in gs.guards:
            assert g.host_kind == REAL, name
            assert Fraction(0) < g.t < Fraction(1), name
        # positions lie exactly on their host edges
        scene = VisibilityQueryScene(poly)
        for g in gs.guards:
            seg = scene.obstacle_edges[g.host_index]
            assert seg.point_at(g.t) == g.position, name


def test_place_guards_deterministic(l_hexagon):
    a = place_guards(l_hexagon, 2, seed=3)
    b = place_guards(l_hexagon, 2, seed=3)
    assert a[0] == b[0]


def test_place_guards_odd_k_floors():
    poly = generate(GenSpec("staircase", 11, 1))
    gs, trace = place_guards(poly, 3)
    assert gs.k == 2
    assert any("floored" in w for w in trace.diagnostics["warnings"])


def test_place_guards_rejects_k_below_2(unit_square):
    with pytest.raises(ValueError):
        place_guards(unit_square, 1)
    with pytest.raises(ValueError):
        place_guards(unit_square, 0)


def test_place_guards_comb_within_bound():
    comb = generate(GenSpec("comb", 12, 1))
    gs, trace = place_guards(comb, 2)
    assert trace.certified
    d = decompose(comb, MINIMAL)
    assert len(gs.guards) <= 2 * len(d.pieces)


def test_one_touch_relocation(acceptance_corpus):
    for name, poly in acceptance_corpus:
        gs, trace = place_guards(poly, 2)
        counts = trace.relocation_counts()
        assert all(v <= 1 for v in counts.values()), name


def test_relocate_guard_identity_on_real_edge(l_hexagon):
    gs, _ = place_guards(l_hexagon, 2)
    d = decompose(l_hexagon, MINIMAL)
    scene = VisibilityQueryScene(l_hexagon)
    g = gs.guards[0]
    assert relocate_guard(g, d, 0, scene, adjacent_piece=d.pieces[0]) is g


def test_relocate_guard_from_diagonal(l_hexagon):
    from kvisguard.placement import Guard
    from kvisguard.visibility import strongly_k_sees_region

    d = decompose(l_hexagon, MINIMAL)
    scene = VisibilityQueryScene(l_hexagon)
    seg, pa, pb = d.diagonals[0]
    g = Guard(
        position=seg.midpoint(),
        host_kind="diagonal",
        host_index=0,
        t=Fraction(1, 2),
        k=2,
    )
    moved = relocate_guard(g, d, pa, scene, adjacent_piece=d.piece_by_id(pb))
    assert moved.host_kind == REAL
    assert moved.role == "relocated"
    # Re-certified: the new position still watches the piece it guarded.
    assert strongly_k_sees_region(moved.position, d.piece_by_id(pa).ring, 2, scene)


def test_guard_with_holes_square(square_with_hole):
    gs, trace = guard_with_holes(square_with_hole, 2)
    assert trace.certified
    assert gs.target_m == 2
    hole_guards = [g for g in gs.guards if g.role == ROLE_HOLE_EDGE]
    base_guards = [g for g in gs.guards if g.role != ROLE_HOLE_EDGE]
    assert len(hole_guards) == 4  # one per hole edge
    assert len(base_guards) == 4  # convex outer ring pipeline
    plan = SamplePlan(grid_density=32, random_count=500, near_feature_count=4, seed=0)
    report = coverage(square_with_hole, gs, plan)
    assert report.min_coverage >= 2


def test_guard_with_holes_star(l_with_star_hole):
    gs, trace = guard_with_holes(l_with_star_hole, 2)
    assert trace.certified
    hole_edges = len(l_with_star_hole.holes[0])
    hole_guards = [g for g in gs.guards if g.role == ROLE_HOLE_EDGE]
    assert len(hole_guards) == hole_edges


def test_guard_with_holes_requires_hole(unit_square):
    with pytest.raises(ValueError):
        guard_with_holes(unit_square, 2)


def test_place_guards_directly_on_holes(square_with_hole):
    # The cyclic dual falls back to a spanning tree; the (k+2) walk still
    # certifies because hole edges are ordinary real edges of the pieces.
    gs, trace = place_guards(square_with_hole, 2, mode="fast")
    assert trace.certified
    d = decompose(square_with_hole, "fast")
    assert len(gs.guards) <= max(2 * len(d.pieces), 4)


def test_place_guards_minimal_falls_back_on_holes(square_with_hole):
    gs, trace = place_guards(square_with_hole, 2, mode=MINIMAL)
    assert trace.certified
    assert any("fast mode" in w for w in trace.diagnostics["warnings"])


def test_guard_convex_piece_two_real_two_diagonal():
    # Piece with 2 real edges and 2 diagonals, m=4: the two
    # midpoints are followed by second-parameter guards on the same real
    # edges, never on the diagonals.
    from kvisguard.decomposition import ConvexPiece, EdgeLabel
    from kvisguard.geometry import Ring

    piece = ConvexPiece(
        0,
        Ring([pt(0, 0), pt(4, 0), pt(4, 3), pt(0, 3)]),
        (
            EdgeLabel("real", 0),
            EdgeLabel("diagonal", 0),
            EdgeLabel("real", 5),
            EdgeLabel("diagonal", 1),
        ),
    )
    guards = guard_convex_piece(piece, 4)
    assert all(g.host_kind == REAL for g in guards)
    assert sorted(g.t for g in guards) == [
        Fraction(1, 3),
        Fraction(1, 3),
        Fraction(1, 2),
        Fraction(1, 2),
    ]
    assert {g.host_index for g in guards} == {0, 5}


def test_trace_merge_replay(acceptance_corpus):
    # Replaying the merges recorded in the trace collapses the
    # decomposition back to the source polygon.
    from kvisguard.decomposition import dual_graph, merge

    for name, poly in acceptance_corpus[:5]:
        gs, trace = place_guards(poly, 2)
        d = decompose(poly, MINIMAL)
        merged = [s.merged_diagonal for s in trace.steps if s.merged_diagonal]
        if not merged:
            continue
        cur = d
        for seg in merged:
            want = {seg.a, seg.b}
            diag_id = next(
                i for i, (s, _, _) in enumerate(cur.diagonals) if {s.a, s.b} == want
            )
            cur = merge(cur, diag_id)
        assert len(cur.pieces) == 1, name
        assert sorted(cur.pieces[0].ring.vertices) == sorted(poly.outer.vertices), name


def test_relocation_pipeline_monotone():
    # The acceptance corpus never relocates; this polygon moves 8 guards
    # off diagonals onto real edges, once each, and still self-checks.
    poly = generate(GenSpec("monotone", 40, seed=1))
    gs, trace = place_guards(poly, 2)
    assert trace.certified
    relocated = [g for g in gs.guards if g.role == "relocated"]
    assert len(relocated) == 8
    assert all(g.host_kind == REAL for g in relocated)
    counts = trace.relocation_counts()
    assert len(counts) == 8 and all(v == 1 for v in counts.values())
    assert not trace.diagnostics.get("relocation_failures")
