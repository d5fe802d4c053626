import random
from collections import Counter
from fractions import Fraction

import pytest

from kvisguard.geometry import (
    InvalidPolygonError,
    PolygonWithHoles,
    Ring,
    is_convex,
    is_reflex,
    pt,
    ring,
)
from kvisguard.decomposition import (
    DIAGONAL,
    FAST,
    MINIMAL,
    REAL,
    NotATreeError,
    decompose,
    dual_graph,
    ears,
    leftmost_ear,
    merge,
    merge_all,
    pocket_against,
    pockets_of,
)
from kvisguard.generators import GenSpec, generate, l_ring

from .oracles import minimum_convex_pieces


def assert_valid_decomposition(poly, d):
    # pieces convex, labels complete, area preserved, real edges used once
    area = 0
    for p in d.pieces:
        assert is_convex(p.ring), f"piece {p.id} is not convex"
        assert len(p.labels) == len(p.ring)
        area += p.ring.signed_area2()
    assert area == poly.area2()
    counts = Counter(
        lab.index for p in d.pieces for lab in p.labels if lab.kind == REAL
    )
    n_edges = len(poly.edges())
    assert sorted(counts.keys()) == list(range(n_edges))
    assert all(v == 1 for v in counts.values())
    diag_counts = Counter(
        lab.index for p in d.pieces for lab in p.labels if lab.kind == DIAGONAL
    )
    for diag_id, (seg, pa, pb) in enumerate(d.diagonals):
        assert diag_counts[diag_id] == 2
        assert pa != pb


def test_convex_pentagon_single_piece(convex_pentagon):
    d = decompose(convex_pentagon, MINIMAL)
    assert len(d.pieces) == 1
    assert d.diagonals == []
    assert_valid_decomposition(convex_pentagon, d)


def test_l_shape_two_pieces(l_hexagon):
    d = decompose(l_hexagon, MINIMAL)
    assert len(d.pieces) == 2
    assert len(d.diagonals) == 1
    seg, _, _ = d.diagonals[0]
    assert pt(1, 1) in (seg.a, seg.b)  # incident to the reflex vertex
    assert_valid_decomposition(l_hexagon, d)
    assert minimum_convex_pieces(l_hexagon) == 2


def test_minimal_matches_bruteforce_small_corpus(acceptance_corpus):
    for name, poly in acceptance_corpus:
        if len(poly.outer) > 12 or poly.holes:
            continue
        d = decompose(poly, MINIMAL)
        assert len(d.pieces) == minimum_convex_pieces(poly), name


def test_fast_within_twice_minimal(acceptance_corpus):
    for name, poly in acceptance_corpus:
        dm = decompose(poly, MINIMAL)
        df = decompose(poly, FAST)
        assert_valid_decomposition(poly, df)
        assert len(dm.pieces) <= len(df.pieces) <= 2 * len(dm.pieces), name


def test_invalid_polygon_rejected():
    bowtie = Ring([pt(0, 0), pt(2, 2), pt(2, 0), pt(0, 2)])
    with pytest.raises(InvalidPolygonError):
        decompose(PolygonWithHoles(bowtie, validate=False), FAST)


def test_dual_graph_tree_on_simple(acceptance_corpus):
    for name, poly in acceptance_corpus:
        d = decompose(poly, MINIMAL)
        g = dual_graph(d)
        assert g.is_tree(), name
        assert len(g.edges) == len(d.pieces) - 1, name


def test_dual_graph_single_node(convex_pentagon):
    d = decompose(convex_pentagon, MINIMAL)
    g = dual_graph(d)
    assert g.nodes == [0]
    assert g.edges == []
    assert ears(g) == [0]


def test_ears_have_two_real_edges(acceptance_corpus):
    for name, poly in acceptance_corpus:
        d = decompose(poly, MINIMAL)
        g = dual_graph(d)
        for pid in ears(g):
            piece = d.piece_by_id(pid)
            assert len(piece.real_edge_indices()) >= 2, name


def test_ears_raises_on_cycles():
    wh = generate(GenSpec("with_holes", 8, 1))
    d = decompose(wh, FAST)
    g = dual_graph(d)
    if not g.is_tree():
        with pytest.raises(NotATreeError):
            ears(g)


def test_leftmost_ear_l_shape(l_hexagon):
    d = decompose(l_hexagon, MINIMAL)
    g = dual_graph(d)
    # Both pieces are ears and share min-x = 0; min-y tie-break picks the
    # piece containing (0,0).
    pid = leftmost_ear(g, d)
    piece = d.piece_by_id(pid)
    assert pt(0, 0) in piece.ring.vertices


def test_leftmost_ear_tie_rules():
    # Two ears share min-x = 0: smaller min-y wins.
    poly = PolygonWithHoles(
        ring([(0, 0), (4, 0), (4, 5), (0, 5), (1, 3), (1, 2)])
    )
    d = decompose(poly, MINIMAL)
    g = dual_graph(d)
    pid = leftmost_ear(g, d)
    piece = d.piece_by_id(pid)
    assert min(v.y for v in piece.ring.vertices) == 0


def test_merge_round_trip_l(l_hexagon):
    d = decompose(l_hexagon, MINIMAL)
    merged = merge(d, 0)
    assert len(merged.pieces) == 1
    assert sorted(merged.pieces[0].ring.vertices) == sorted(l_hexagon.outer.vertices)
    assert all(lab.kind == REAL for lab in merged.pieces[0].labels)


def test_merge_vertex_count_and_reflex(acceptance_corpus):
    for name, poly in acceptance_corpus:
        d = decompose(poly, MINIMAL)
        for diag_id in range(len(d.diagonals)):
            _, pa, pb = d.diagonals[diag_id]
            a = d.piece_by_id(pa)
            b = d.piece_by_id(pb)
            merged = merge(d, diag_id)
            union = merged.piece_by_id(min(pa, pb))
            assert len(union.ring) == len(a.ring) + len(b.ring) - 2, name
            reflex = sum(
                1 for i in range(len(union.ring)) if is_reflex(union.ring, i)
            )
            assert reflex <= 2, name


def test_merge_all_reproduces_source(acceptance_corpus):
    for name, poly in acceptance_corpus:
        d = decompose(poly, MINIMAL)
        survivor = merge_all(d)
        assert sorted(survivor.ring.vertices) == sorted(poly.outer.vertices), name
        # same cyclic order
        vs = survivor.ring.vertices
        src = poly.outer.vertices
        start = vs.index(src[0])
        rotated = vs[start:] + vs[:start]
        assert rotated == src, name


def test_pockets_convex_ring_empty(convex_pentagon):
    assert pockets_of(convex_pentagon.outer) == []


def test_pockets_l_shape(l_hexagon):
    ps = pockets_of(l_hexagon.outer)
    assert len(ps) == 1
    assert pt(1, 1) in ps[0].chain
    assert ps[0].chain[0] == ps[0].mouth.a
    assert ps[0].chain[-1] == ps[0].mouth.b


def test_pockets_nonconvex_quad_exactly_one():
    dart = ring([(0, 0), (4, 1), (0, 2), (1, 1)])
    assert len(pockets_of(dart)) == 1
    for seed in range(60):
        quad = generate(GenSpec("dart", 4, seed=seed))
        assert len(pockets_of(quad.outer)) == 1, seed


def test_pocket_against_region():
    L = l_ring()
    d = decompose(PolygonWithHoles(L), MINIMAL)
    seg = d.diagonals[0][0]
    piece = d.piece_by_id(0)
    p = pocket_against(piece.ring, seg)
    assert p.chain[0] in (seg.a, seg.b)
    assert p.chain[-1] in (seg.a, seg.b)
    assert len(p.chain) == len(piece.ring)


def test_decompose_with_holes_fast(square_with_hole):
    d = decompose(square_with_hole, FAST)
    assert_valid_decomposition(square_with_hole, d)
    g = dual_graph(d)
    assert not g.is_tree()  # the hole puts a cycle in the dual


def test_minimal_with_holes_falls_back(square_with_hole):
    # MINIMAL is defined for simple polygons; with holes it must still
    # produce a valid decomposition (fast path).
    d = decompose(square_with_hole, FAST)
    assert sum(p.ring.signed_area2() for p in d.pieces) == square_with_hole.area2()


def test_random_monotone_minimal_at_most_fast():
    for seed in range(8):
        poly = generate(GenSpec("monotone", 12, seed=seed))
        dm = decompose(poly, MINIMAL)
        df = decompose(poly, FAST)
        assert len(dm.pieces) <= len(df.pieces) <= 2 * len(dm.pieces)


def test_minimal_decompose_leaves_no_garbage():
    # The MINIMAL DP's tables are freed on return, not left in a reference
    # cycle for the collector.
    import gc

    polys = [generate(GenSpec("comb", 12, seed=1)), generate(GenSpec("staircase", 45))]
    gc.collect()
    gc.disable()
    try:
        for poly in polys:
            decompose(poly, MINIMAL)
            assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("mode", [MINIMAL, FAST])
def test_no_diagonal_is_removable(mode):
    # Removing any one diagonal of a MINIMAL or Hertel-Mehlhorn
    # decomposition leaves a non-convex union: a convex one would contradict
    # minimality, or Hertel-Mehlhorn would have removed that diagonal.
    specs = [
        GenSpec(fam, n, seed)
        for fam in ("random_simple", "monotone")
        for n in range(8, 57, 8)
        for seed in (1, 2, 3)
    ]
    specs += [GenSpec("comb", n) for n in range(8, 61, 8)]
    specs += [GenSpec("spiral", n) for n in range(9, 58, 8)]
    specs += [GenSpec("staircase", n) for n in range(5, 60, 8)]
    specs += [GenSpec("dart", 4, seed) for seed in range(1, 11)]
    specs += [GenSpec("with_holes", 8, seed) for seed in range(1, 7)]
    tried = 0
    for spec in specs:
        d = decompose(generate(spec), mode)
        for i, (_, pa, pb) in enumerate(d.diagonals):
            union = merge(d, i).piece_by_id(min(pa, pb))
            assert not is_convex(union.ring), (spec, i)
            tried += 1
    assert tried > 100
