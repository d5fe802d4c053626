import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvisguard.geometry import (
    BOUNDARY,
    CCW,
    COLLINEAR,
    CW,
    INSIDE,
    OUTSIDE,
    InvalidPolygonError,
    Point,
    PolygonWithHoles,
    Ring,
    Segment,
    convex_hull,
    denominator_lcm,
    is_convex,
    is_reflex,
    normalize_ring,
    orientation,
    point_in_polygon,
    point_in_polygon_i,
    pt,
    ring,
    ring_edges_i,
    segment,
    segments_properly_cross,
)
from kvisguard.generators import GenSpec, comb_ring, generate, l_ring

from .oracles import classify_point, interior_angle_exceeds_pi

coords = st.integers(min_value=-1000, max_value=1000)
points = st.tuples(coords, coords).map(lambda t: pt(*t))


def test_orientation_examples():
    assert orientation(pt(0, 0), pt(1, 0), pt(0, 1)) == CCW
    assert orientation(pt(0, 0), pt(1, 1), pt(2, 2)) == COLLINEAR
    assert orientation(pt(0, 0), pt(0, 1), pt(1, 1)) == CW


def test_orientation_exactness_near_collinear():
    # A float determinant gets this wrong; the exact path must not.
    a = pt(0, 0)
    b = pt(Fraction(1, 3), Fraction(1, 3))
    c = pt(Fraction(2, 3), Fraction(2, 3) + Fraction(1, 10**30))
    assert orientation(a, b, c) == CCW
    c2 = pt(Fraction(2, 3), Fraction(2, 3))
    assert orientation(a, b, c2) == COLLINEAR


@given(points, points, points)
def test_orientation_antisymmetric(p, q, r):
    assert orientation(p, q, r) == -orientation(p, r, q)


def test_properly_cross_examples():
    assert segments_properly_cross(segment(0, 0, 2, 2), segment(0, 2, 2, 0))
    assert not segments_properly_cross(segment(0, 0, 1, 1), segment(1, 1, 2, 0))
    assert not segments_properly_cross(segment(0, 0, 2, 0), segment(1, 0, 3, 0))
    # endpoint on interior
    assert not segments_properly_cross(segment(0, 0, 2, 0), segment(1, 0, 1, 5))


@given(points, points, points, points)
def test_properly_cross_symmetric(a, b, c, d):
    if a == b or c == d:
        return
    s1, s2 = segment(a.x, a.y, b.x, b.y), segment(c.x, c.y, d.x, d.y)
    assert segments_properly_cross(s1, s2) == segments_properly_cross(s2, s1)


def test_point_in_polygon_examples(unit_square, square_with_hole):
    assert point_in_polygon(pt("1/2", "1/2"), unit_square) == INSIDE
    assert point_in_polygon(pt(5, 5), square_with_hole) == OUTSIDE
    assert point_in_polygon(pt(0, "1/2"), unit_square) == BOUNDARY
    assert point_in_polygon(pt(2, 2), unit_square) == OUTSIDE
    assert point_in_polygon(pt(4, 5), square_with_hole) == BOUNDARY


def test_point_in_polygon_agrees_with_winding_oracle(square_with_hole, l_hexagon):
    rng = random.Random(42)
    for poly, count in ((square_with_hole, 100_000), (l_hexagon, 20_000)):
        x0, y0, x1, y1 = poly.bbox()
        for _ in range(count):
            p = Point(
                x0 + Fraction(rng.randrange(0, 1 << 16), 1 << 16) * (x1 - x0),
                y0 + Fraction(rng.randrange(0, 1 << 16), 1 << 16) * (y1 - y0),
            )
            assert point_in_polygon(p, poly) == classify_point(p, poly)


def _classifier_probes(poly):
    """Vertices, edge interiors, points just off each edge on both sides,
    each ring's vertex centroid (a hole's lies inside the hole) and a
    half-unit grid over the bbox."""
    probes = []
    for r in poly.rings():
        probes.append(r.centroid())
        for i, a in enumerate(r.vertices):
            e = Segment(a, r[i + 1])
            probes += [a, e.point_at(Fraction(1, 2)), e.point_at(Fraction(1, 3))]
            m = e.midpoint()
            nx, ny = -(e.b.y - e.a.y) / Fraction(1000), (e.b.x - e.a.x) / Fraction(1000)
            probes += [pt(m.x + nx, m.y + ny), pt(m.x - nx, m.y - ny)]
    x0, y0, x1, y1 = poly.bbox()
    for i in range(int(2 * (x1 - x0)) + 1):
        for j in range(int(2 * (y1 - y0)) + 1):
            probes.append(pt(x0 + Fraction(i, 2), y0 + Fraction(j, 2)))
    return probes


def _union_and_straight_vertex_polygons():
    """Union rings from decomposition.merge, which the merge-lemma check
    classifies against, and a triangle with a straight (pi) vertex on a
    horizontal and on a slanted edge."""
    from kvisguard.decomposition import MINIMAL, decompose, merge

    polys = []
    for spec in (GenSpec("comb", 12, seed=1), GenSpec("monotone", 10, seed=0)):
        d = decompose(generate(spec), MINIMAL)
        for diag_id, (_, pa, pb) in enumerate(d.diagonals):
            union = merge(d, diag_id).piece_by_id(min(pa, pb)).ring
            polys.append(PolygonWithHoles(union, validate=False))
    straight = ring([(0, 0), (2, 0), (4, 0), (4, 3), (2, "3/2")], validate=False)
    assert orientation(straight[0], straight[1], straight[2]) == COLLINEAR
    assert orientation(straight[3], straight[4], straight[0]) == COLLINEAR
    polys.append(PolygonWithHoles(straight, validate=False))
    return polys


def test_point_in_polygon_i_agrees_with_point_in_polygon(square_with_hole, l_with_star_hole):
    # The star hole sits on a 1/8 lattice, so the ring scale is not 1.
    assert denominator_lcm(l_with_star_hole) == 8
    for poly in (square_with_hole, l_with_star_hole, *_union_and_straight_vertex_polygons()):
        probes = _classifier_probes(poly)
        scale = denominator_lcm(poly)
        for p in probes:
            for c in p:
                if isinstance(c, Fraction):
                    scale = scale * c.denominator // math.gcd(scale, c.denominator)
        rings_i = [ring_edges_i(r, scale) for r in poly.rings()]
        seen = set()
        for p in probes:
            want = point_in_polygon(p, poly)
            got = point_in_polygon_i(int(p.x * scale), int(p.y * scale), rings_i)
            assert got == want, (p, got, want)
            seen.add(want)
        assert seen == {INSIDE, BOUNDARY, OUTSIDE}
        for hole in poly.holes:
            c = hole.centroid()
            assert point_in_polygon_i(int(c.x * scale), int(c.y * scale), rings_i) == OUTSIDE


def test_is_reflex_l_shape():
    L = l_ring()
    flags = [is_reflex(L, i) for i in range(6)]
    assert flags == [False, False, False, True, False, False]
    assert L.vertices[3] == pt(1, 1)


def test_is_reflex_respects_orientation():
    L = l_ring()
    Lcw = L.reversed()
    for i in range(6):
        # same geometric vertex, index mirrored under reversal
        j = (5 - i) % 6
        assert is_reflex(L, i) == is_reflex(Lcw, j)


def test_comb_reflex_matches_angle_oracle():
    comb = comb_ring(3)
    assert len(comb) == 12
    reflex = [i for i in range(12) if is_reflex(comb, i)]
    oracle = [i for i in range(12) if interior_angle_exceeds_pi(comb, i)]
    assert reflex == oracle
    assert len(reflex) == 5


def test_is_convex():
    assert is_convex(ring([(0, 0), (1, 0), (1, 1), (0, 1)]))
    assert not is_convex(l_ring())
    assert is_convex(ring([(0, 0), (3, 0), (1, 2)]))


def test_is_convex_iff_no_reflex_vertex():
    rng = random.Random(7)
    for trial in range(40):
        fam = ("dart", 4) if trial % 2 else ("random_simple", 10)
        poly = generate(GenSpec(fam[0], fam[1], seed=trial))
        r = poly.outer
        assert is_convex(r) == (not any(is_reflex(r, i) for i in range(len(r))))


def test_ring_validation_rejects_bad_rings():
    with pytest.raises(InvalidPolygonError):
        Ring([pt(0, 0), pt(1, 0)], validate=True)
    with pytest.raises(InvalidPolygonError):  # self-intersecting bowtie
        Ring([pt(0, 0), pt(2, 2), pt(2, 0), pt(0, 2)], validate=True)
    with pytest.raises(InvalidPolygonError):  # collinear triple
        Ring([pt(0, 0), pt(1, 0), pt(2, 0), pt(2, 2)], validate=True)


def test_normalize_ring_collapses():
    r, warnings = normalize_ring(
        [pt(0, 0), pt(1, 0), pt(2, 0), pt(2, 2), pt(2, 2), pt(0, 2)]
    )
    assert len(r) == 4
    assert len(warnings) == 2


def test_polygon_rejects_touching_hole():
    outer = ring([(0, 0), (10, 0), (10, 10), (0, 10)])
    touching = ring([(0, 4), (4, 6), (4, 4)])  # vertex on the outer boundary
    touching = touching.reversed() if touching.is_ccw() else touching
    with pytest.raises(InvalidPolygonError) as exc:
        PolygonWithHoles(outer, [touching])
    assert "hole 0" in str(exc.value)


def test_polygon_rejects_overlapping_holes():
    outer = ring([(0, 0), (10, 0), (10, 10), (0, 10)])
    h1 = ring([(2, 2), (5, 2), (5, 5), (2, 5)]).reversed()
    h2 = ring([(4, 4), (7, 4), (7, 7), (4, 7)]).reversed()
    with pytest.raises(InvalidPolygonError):
        PolygonWithHoles(outer, [h1, h2])


def test_convex_hull_keeps_collinear_when_asked():
    pts = [pt(0, 0), pt(2, 0), pt(4, 0), pt(4, 4), pt(0, 4), pt(1, 1)]
    strict = convex_hull(pts)
    kept = convex_hull(pts, keep_collinear=True)
    assert pt(2, 0) not in strict
    assert pt(2, 0) in kept
    assert pt(1, 1) not in kept
