import random
from fractions import Fraction

import pytest

from kvisguard.geometry import (
    INSIDE,
    Point,
    PolygonWithHoles,
    coerce_coord,
    point_in_polygon,
    pt,
    ring,
)
from kvisguard.decomposition import MINIMAL, decompose
from kvisguard.generators import GenSpec, generate
from kvisguard.placement import Guard, GuardSet, place_guards
from kvisguard.verify import (
    SamplePlan,
    check_merge_crossing_bound,
    check_boundary_guarding,
    check_guard_bound,
    check_quad_pocket,
    coverage,
    sample_points,
)


def square_guards(k=2, drop=0):
    hosts = [(0, pt("1/2", 0)), (1, pt(1, "1/2")), (2, pt("1/2", 1)), (3, pt(0, "1/2"))]
    guards = tuple(
        Guard(position=p, host_kind="real", host_index=i, t=Fraction(1, 2), k=k)
        for i, p in hosts[: len(hosts) - drop]
    )
    return GuardSet(guards=guards, k=k, target_m=4, piece_count=1)


def test_sample_points_interior_and_deterministic(unit_square):
    plan = SamplePlan(grid_density=3, random_count=50, near_feature_count=2, seed=9)
    pts1 = sample_points(unit_square, plan)
    pts2 = sample_points(unit_square, plan)
    assert pts1 == pts2
    assert pt("1/2", "1/2") in pts1
    for p in pts1:
        assert point_in_polygon(p, unit_square) == INSIDE


def test_sample_points_thin_polygon_terminates():
    thin = PolygonWithHoles(ring([(0, 0), (1000, 0), (1000, 1), (0, 1)]))
    plan = SamplePlan(grid_density=8, random_count=200, near_feature_count=1, seed=2)
    pts = sample_points(thin, plan)
    assert len(pts) >= 100
    for p in pts[:50]:
        assert point_in_polygon(p, thin) == INSIDE


def _fraction_reference_samples(poly, count, seed):
    """The uniform sampler written directly on Fractions: each candidate is
    x0 + round(u * 2^20) / 2^20 * (x1 - x0), kept when point_in_polygon
    says INSIDE, at most 100 * count candidates."""
    q = 1 << 20
    rng = random.Random(f"{seed}:random")
    x0, y0, x1, y1 = poly.bbox()
    out = []
    tries = 0
    while len(out) < count and tries < 100 * count:
        tries += 1
        p = Point(
            coerce_coord(Fraction(x0) + Fraction(round(rng.random() * q), q) * Fraction(x1 - x0)),
            coerce_coord(Fraction(y0) + Fraction(round(rng.random() * q), q) * Fraction(y1 - y0)),
        )
        if point_in_polygon(p, poly) == INSIDE:
            out.append(p)
    return out


def test_random_samples_match_fraction_reference(l_with_star_hole):
    # Same samples, same order and same coordinate types as the Fraction
    # sampler: reports and criterion 10 depend on it.
    comb3 = generate(GenSpec("comb", 12, seed=1))
    for poly in (l_with_star_hole, comb3):
        plan = SamplePlan(grid_density=0, random_count=1500, near_feature_count=0, seed=3)
        got = sample_points(poly, plan)
        want = _fraction_reference_samples(poly, 1500, 3)
        assert len(got) == 1500
        assert got == want
        assert [tuple(map(type, p)) for p in got] == [tuple(map(type, p)) for p in want]


def _fraction_reference_grid(poly, density):
    """The grid written directly on Fractions: cell centres
    x0 + (2i+1)/(2 density) * (x1 - x0), x-major, kept when
    point_in_polygon says INSIDE."""
    x0, y0, x1, y1 = poly.bbox()
    out = []
    for i in range(density):
        px = x0 + Fraction(2 * i + 1, 2 * density) * (x1 - x0)
        for j in range(density):
            py = y0 + Fraction(2 * j + 1, 2 * density) * (y1 - y0)
            p = Point(coerce_coord(px), coerce_coord(py))
            if point_in_polygon(p, poly) == INSIDE:
                out.append(p)
    return out


def test_grid_samples_match_fraction_reference(l_with_star_hole):
    # Density 24 is the placement self-check's grid.
    comb3 = generate(GenSpec("comb", 12, seed=1))
    for poly in (l_with_star_hole, comb3):
        for density in (5, 24):
            plan = SamplePlan(grid_density=density, random_count=0, near_feature_count=0)
            got = sample_points(poly, plan)
            want = _fraction_reference_grid(poly, density)
            assert got and got == want, density
            assert [tuple(map(type, p)) for p in got] == [tuple(map(type, p)) for p in want]


def _fraction_reference_near_feature(poly, per_feature):
    """Near-feature probes written directly on Fractions: from each vertex
    toward its neighbours' midpoint, and from each edge midpoint along the
    inward normal, the first of +-unit*j inside (j = 1..per_feature) by
    point_in_polygon."""
    eps = Fraction(poly.bbox_diag()).limit_denominator(10**9) / 10**6

    def probe(origin, target):
        if origin == target:
            return []
        dx, dy = float(target.x - origin.x), float(target.y - origin.y)
        unit = Fraction(float(eps) / (dx * dx + dy * dy) ** 0.5).limit_denominator(10**12)
        for j in range(1, per_feature + 1):
            for delta in (unit * j, -unit * j):
                p = Point(
                    coerce_coord(origin.x + delta * (target.x - origin.x)),
                    coerce_coord(origin.y + delta * (target.y - origin.y)),
                )
                if point_in_polygon(p, poly) == INSIDE:
                    yield p
                    break

    out = []
    for r in poly.rings():
        for i in range(len(r)):
            a, b, prev = r[i], r[i + 1], r[i - 1]
            out += probe(a, Point(coerce_coord(Fraction(prev.x + b.x, 2)), coerce_coord(Fraction(prev.y + b.y, 2))))
            em = Point(coerce_coord(Fraction(a.x + b.x, 2)), coerce_coord(Fraction(a.y + b.y, 2)))
            out += probe(em, Point(coerce_coord(em.x - (b.y - a.y)), coerce_coord(em.y + (b.x - a.x))))
    return out


def test_near_feature_samples_match_fraction_reference(l_with_star_hole, square_with_hole):
    # 8 probes per feature is verify's default, 2 the self-check's.
    comb3 = generate(GenSpec("comb", 12, seed=1))
    for poly in (l_with_star_hole, square_with_hole, comb3):
        for per_feature in (8, 2):
            plan = SamplePlan(grid_density=0, random_count=0, near_feature_count=per_feature)
            got = sample_points(poly, plan)
            want = _fraction_reference_near_feature(poly, per_feature)
            assert got and got == want, per_feature
            assert [tuple(map(type, p)) for p in got] == [tuple(map(type, p)) for p in want]


def _fraction_candidate(rng, bbox):
    q = 1 << 20
    x0, y0, x1, y1 = bbox
    return Point(
        coerce_coord(Fraction(x0) + Fraction(round(rng.random() * q), q) * Fraction(x1 - x0)),
        coerce_coord(Fraction(y0) + Fraction(round(rng.random() * q), q) * Fraction(y1 - y0)),
    )


def _fraction_reference_merge_check(polys, pairs_per_union, seed, mode=MINIMAL):
    """check_merge_crossing_bound with every candidate built and classified
    on Fractions: p and q are both drawn before either inside test.  Also
    returns every pair handed to crossing_count, in order."""
    from kvisguard.decomposition import merge
    from kvisguard.visibility import DegenerateSightlineError, VisibilityQueryScene, crossing_count

    violations, cases, worst, fewest, queried = [], 0, 0, None, []
    for pi, poly in enumerate(polys):
        d = decompose(poly, mode)
        for diag_id, (_, pa, pb) in enumerate(d.diagonals):
            u_ring = merge(d, diag_id).piece_by_id(min(pa, pb)).ring
            u_poly = PolygonWithHoles(u_ring, validate=False)
            u_scene = VisibilityQueryScene(u_poly)
            rng = random.Random(f"{seed}:{pi}:{diag_id}")
            cases += 1
            got = attempts = 0
            while got < pairs_per_union and attempts < 100 * pairs_per_union:
                attempts += 1
                p = _fraction_candidate(rng, u_ring.bbox())
                q = _fraction_candidate(rng, u_ring.bbox())
                if p == q or point_in_polygon(p, u_poly) != INSIDE or point_in_polygon(q, u_poly) != INSIDE:
                    continue
                queried.append((p, q))
                try:
                    c = crossing_count(p, q, u_scene)
                except DegenerateSightlineError:
                    continue
                got += 1
                worst = max(worst, c)
                if c > 2:
                    violations.append((pi, diag_id, p, q, c))
            fewest = got if fewest is None else min(fewest, got)
    return cases, violations, {"max_crossings": worst, "min_pairs": fewest}, queried


def _fraction_reference_boundary_check(convex_ring, g, samples, seed):
    """check_boundary_guarding with every candidate built and classified
    on Fractions.  Also returns every pair handed to crossing_count."""
    from kvisguard.visibility import DegenerateSightlineError, VisibilityQueryScene, crossing_count

    poly = PolygonWithHoles(convex_ring, validate=False)
    scene = VisibilityQueryScene(poly)
    rng = random.Random(seed)
    violations, got, attempts, queried = [], 0, 0, []
    while got < samples and attempts < 200 * samples:
        attempts += 1
        p = _fraction_candidate(rng, convex_ring.bbox())
        if point_in_polygon(p, poly) != INSIDE:
            continue
        queried.append((g, p))
        try:
            c = crossing_count(g, p, scene)
        except DegenerateSightlineError:
            continue
        got += 1
        if c != 1:
            violations.append((p, c))
    return got, violations, {}, queried


def _record_queries(monkeypatch):
    """Every (a, b) pair verify hands to crossing_count, in order."""
    import kvisguard.verify as verify_mod
    from kvisguard.visibility import crossing_count

    queried = []

    def recording(a, b, scene):
        queried.append((a, b))
        return crossing_count(a, b, scene)

    monkeypatch.setattr(verify_mod, "crossing_count", recording)
    return queried


def test_merge_check_matches_fraction_reference(monkeypatch, l_hexagon):
    # Same pairs in the same order, so the same draw order, as the Fraction
    # check: criterion 4's report depends on it.
    monotone = [generate(GenSpec("monotone", n, seed=s)) for n, s in ((10, 0), (12, 1))]
    for polys, pairs, seed in (([l_hexagon], 300, 1), (monotone, 200, 2)):
        queried = _record_queries(monkeypatch)
        report = check_merge_crossing_bound(polys, pairs_per_union=pairs, seed=seed)
        cases, violations, detail, want = _fraction_reference_merge_check(polys, pairs, seed)
        assert queried == want
        assert [tuple(map(type, p + q)) for p, q in queried] == [tuple(map(type, p + q)) for p, q in want]
        assert report.cases == cases > 0
        assert report.violations == violations
        assert report.detail == detail
        assert detail["min_pairs"] == pairs


def test_boundary_check_matches_fraction_reference(monkeypatch):
    from kvisguard.geometry import Ring, convex_hull

    rng = random.Random(5)
    hulls = []
    while len(hulls) < 4:
        hull = convex_hull([pt(rng.randrange(0, 64), rng.randrange(0, 64)) for _ in range(10)])
        if len(hull) >= 3:
            hulls.append((Ring(hull), pt(100 + rng.randrange(0, 50), rng.randrange(-50, 120)), 30))
    # A sliver over about 1% of its bbox, so the attempt cap matters.
    hulls.append((ring([(0, 0), (100, 99), (99, 100)]), pt(200, 0), 30))
    # Not convex: some samples behind a tooth are reached through 3 edges.
    comb3 = generate(GenSpec("comb", 12, seed=1)).outer
    hulls.append((comb3, pt(-50, -40), 100))
    for trial, (r, g, samples) in enumerate(hulls):
        queried = _record_queries(monkeypatch)
        report = check_boundary_guarding(r, g, samples=samples, seed=trial)
        cases, violations, detail, want = _fraction_reference_boundary_check(r, g, samples, trial)
        assert queried == want
        assert (report.cases, report.violations, report.detail) == (cases, violations, detail)
    assert report.cases == 100 and report.violations


def test_merge_check_reports_capped_union(l_hexagon):
    # A thin diagonal band with one reflex vertex: one diagonal, and the
    # union covers about 4% of its bbox, so pairs accepted both inside are
    # rare and the attempt cap of 100 times the pairs stops the union short.
    band = PolygonWithHoles(
        ring([(0, 0), (2, 0), (100, 98), (100, 100), (98, 100), (50, 51), (0, 2)])
    )
    report = check_merge_crossing_bound([l_hexagon, band], pairs_per_union=20, seed=0)
    assert report.cases == 2
    assert report.ok()
    assert 0 < report.detail["min_pairs"] < 20
    assert report.detail == _fraction_reference_merge_check([l_hexagon, band], 20, 0)[2]


def test_sample_plan_validation():
    with pytest.raises(ValueError):
        SamplePlan(grid_density=0, random_count=0, near_feature_count=0)
    with pytest.raises(ValueError):
        SamplePlan(grid_density=-1)


def test_coverage_square_full(unit_square):
    plan = SamplePlan(grid_density=16, random_count=300, near_feature_count=2, seed=0)
    report = coverage(unit_square, square_guards(), plan, piece_count=1)
    assert report.min_coverage == 4
    assert not report.violations
    assert report.guard_bound_ok
    assert report.histogram == {4: len(report.per_sample)}


def test_coverage_square_one_removed(unit_square):
    plan = SamplePlan(grid_density=16, random_count=300, near_feature_count=2, seed=0)
    report = coverage(unit_square, square_guards(drop=1), plan, target_m=4)
    assert report.min_coverage == 3
    assert report.violations


def test_coverage_requires_guards(unit_square):
    empty = GuardSet(guards=(), k=2, target_m=2)
    with pytest.raises(ValueError):
        coverage(unit_square, empty, SamplePlan(grid_density=4, random_count=0, near_feature_count=0))


def test_coverage_deterministic(l_hexagon):
    gs, _ = place_guards(l_hexagon, 2)
    plan = SamplePlan(grid_density=12, random_count=200, near_feature_count=2, seed=5)
    r1 = coverage(l_hexagon, gs, plan)
    r2 = coverage(l_hexagon, gs, plan)
    assert r1.per_sample == r2.per_sample
    assert r1.histogram == r2.histogram


def test_coverage_monotone_in_k(l_hexagon):
    gs, _ = place_guards(l_hexagon, 2)
    plan = SamplePlan(grid_density=10, random_count=100, near_feature_count=1, seed=4)
    base = coverage(l_hexagon, gs, plan)
    bigger = GuardSet(
        guards=tuple(Guard(g.position, g.host_kind, g.host_index, g.t, 4, g.role) for g in gs.guards),
        k=4,
        target_m=gs.target_m,
    )
    wider = coverage(l_hexagon, bigger, plan)
    counts_base = dict(zip([p for p, _ in base.per_sample], [c for _, c in base.per_sample]))
    for p, c in wider.per_sample:
        if p in counts_base:
            assert c >= counts_base[p]


def test_coverage_end_to_end_l_shape(l_hexagon):
    gs, trace = place_guards(l_hexagon, 2)
    plan = SamplePlan(grid_density=64, random_count=2000, near_feature_count=8, seed=0)
    report = coverage(l_hexagon, gs, plan, piece_count=gs.piece_count)
    assert len(report.per_sample) >= 4000
    assert report.min_coverage >= 4
    assert report.guard_bound_ok


def test_check_guard_bound_cases(l_hexagon, convex_pentagon):
    gs, _ = place_guards(convex_pentagon, 2)
    d = decompose(convex_pentagon, MINIMAL)
    # C = 1: the k+2 base case dominates the kC bound.
    assert len(gs.guards) == 4
    assert check_guard_bound(gs, d)
    gs_l, _ = place_guards(l_hexagon, 2)
    d_l = decompose(l_hexagon, MINIMAL)
    assert check_guard_bound(gs_l, d_l)
    too_many = GuardSet(guards=gs_l.guards * 3, k=2, target_m=4)
    assert not check_guard_bound(too_many, d_l)


def test_merge_crossing_bound_l_shape(l_hexagon):
    report = check_merge_crossing_bound([l_hexagon], pairs_per_union=300, seed=1)
    assert report.ok()
    assert report.detail["max_crossings"] <= 2


def test_merge_crossing_bound_monotone_sample():
    polys = [generate(GenSpec("monotone", 12, seed=s)) for s in range(4)]
    report = check_merge_crossing_bound(polys, pairs_per_union=150, seed=2)
    assert report.ok()


def test_boundary_guarding_unit_square(unit_square):
    report = check_boundary_guarding(unit_square.outer, pt(2, "1/2"), samples=40, seed=0)
    assert report.ok()
    far = check_boundary_guarding(unit_square.outer, pt(500, 333), samples=40, seed=1)
    assert far.ok()


def test_boundary_guarding_random_convex():
    from kvisguard.geometry import Ring, convex_hull

    rng = random.Random(12)
    for trial in range(10):
        pts_ = [pt(rng.randrange(0, 64), rng.randrange(0, 64)) for _ in range(10)]
        hull = convex_hull(pts_)
        if len(hull) < 3:
            continue
        a = Ring(hull)
        g = pt(100 + rng.randrange(0, 50), rng.randrange(-50, 120))
        report = check_boundary_guarding(a, g, samples=30, seed=trial)
        assert report.ok(), trial


def test_quad_single_pocket():
    quads = [generate(GenSpec("dart", 4, seed=s)) for s in range(40)]
    report = check_quad_pocket(quads)
    assert report.cases == 40
    assert report.ok()


def test_coverage_jitters_degenerate_samples(square_with_hole):
    # Grid density 5 samples at odd integer coordinates; the sight line from
    # a guard at (0, 8/3) to the sample (7, 5) passes exactly through the
    # hole corner (4, 4).  The query is degenerate and the sample must be
    # jittered (seeded), not dropped.
    from kvisguard.visibility import (
        DegenerateSightlineError,
        VisibilityQueryScene,
        crossing_count,
    )

    guard = Guard(
        position=pt(0, "8/3"), host_kind="real", host_index=3, t=Fraction(11, 15), k=2
    )
    gs = GuardSet(guards=(guard,), k=2, target_m=1)
    scene = VisibilityQueryScene(square_with_hole)
    with pytest.raises(DegenerateSightlineError):
        crossing_count(pt(7, 5), guard.position, scene)
    plan = SamplePlan(grid_density=5, random_count=0, near_feature_count=0, seed=0)
    report = coverage(square_with_hole, gs, plan, target_m=1)
    assert report.degenerate_dropped == 0
    assert len(report.per_sample) == len(
        [p for p in sample_points(square_with_hole, plan)]
    )


def test_threads_env_fallback(monkeypatch, unit_square):
    monkeypatch.setenv("KVIS_THREADS", "not-a-number")
    plan = SamplePlan(grid_density=6, random_count=20, near_feature_count=1, seed=0)
    report = coverage(unit_square, square_guards(), plan)
    assert report.min_coverage == 4


def test_coverage_process_pool_matches_sequential(monkeypatch, l_hexagon):
    # Two workers over at least 256 samples: the pool really runs (no
    # fallback) and gives the sequential path's counts, sample by sample.
    from kvisguard.fileio import write_report

    gs, _ = place_guards(l_hexagon, 2)
    plan = SamplePlan(grid_density=16, random_count=200, near_feature_count=1, seed=4)
    assert len(sample_points(l_hexagon, plan)) >= 256
    monkeypatch.delenv("KVIS_THREADS", raising=False)
    seq = coverage(l_hexagon, gs, plan)
    monkeypatch.setenv("KVIS_THREADS", "2")
    par = coverage(l_hexagon, gs, plan)
    assert seq.parallel_fallback is None and par.parallel_fallback is None
    assert par.per_sample == seq.per_sample
    assert write_report(par) == write_report(seq)


def test_coverage_process_pool_fallback_is_reported(monkeypatch, l_hexagon):
    import concurrent.futures

    from kvisguard.fileio import write_report

    class NoPool:
        def __init__(self, *args, **kwargs):
            raise OSError("no worker processes")

    gs, _ = place_guards(l_hexagon, 2)
    plan = SamplePlan(grid_density=16, random_count=200, near_feature_count=1, seed=4)
    monkeypatch.delenv("KVIS_THREADS", raising=False)
    seq = coverage(l_hexagon, gs, plan)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
    monkeypatch.setenv("KVIS_THREADS", "2")
    fell_back = coverage(l_hexagon, gs, plan)
    assert fell_back.parallel_fallback == "OSError: no worker processes"
    assert fell_back.per_sample == seq.per_sample
    assert '"parallel_fallback":"OSError: no worker processes"' in write_report(fell_back)
    assert "parallel_fallback" not in write_report(seq)


def test_coverage_chunk_boundary(square_with_hole):
    # 1,536 grid samples, so coverage counts them in two chunks.  The sight
    # line from the guard at (0, 0) to a diagonal sample (t, t), t > 6,
    # passes through the hole corner (4, 4): those samples are degenerate,
    # some past the first chunk, and are jittered.  Every count must match
    # a sample-by-sample reference with WedgeIndex.count that stops at a
    # sample's first degenerate guard.
    from kvisguard.verify import _COVERAGE_CHUNK
    from kvisguard.visibility import DegenerateSightlineError, VisibilityQueryScene, wedge_indexes

    k = 2
    positions = [pt(10, 5), pt(0, 0), pt(5, 10), pt(0, "8/3")]
    gs = GuardSet(
        guards=tuple(Guard(position=p, host_kind="real", host_index=0, t=Fraction(0), k=k) for p in positions),
        k=k,
        target_m=2,
    )
    plan = SamplePlan(grid_density=40, random_count=0, near_feature_count=0, seed=0)
    samples = sample_points(square_with_hole, plan)
    assert len(samples) > _COVERAGE_CHUNK
    scene = VisibilityQueryScene(square_with_hole)
    indexes = wedge_indexes(scene._edges_i, [scene.homogenize(p) for p in positions])

    def reference(p):
        total = 0
        for index in indexes:
            try:
                total += index.count(scene.homogenize(p)) <= k
            except DegenerateSightlineError:
                return None
        return total

    want = [reference(s) for s in samples]
    degenerate = [i for i, c in enumerate(want) if c is None]
    assert degenerate and degenerate[-1] >= _COVERAGE_CHUNK
    report = coverage(square_with_hole, gs, plan)
    assert report.degenerate_dropped == 0
    assert len(report.per_sample) == len(samples)
    histogram = {}
    for s, c, (p, got) in zip(samples, want, report.per_sample):
        if c is None:
            assert p != s and point_in_polygon(p, square_with_hole) == INSIDE
            c = reference(p)
        else:
            assert p == s
        assert got == c, (s, p)
        histogram[c] = histogram.get(c, 0) + 1
    assert report.histogram == dict(sorted(histogram.items()))
