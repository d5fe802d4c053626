"""Brute-force coverage oracle and geometric property checks.

The oracle never looks at placement internals: it samples interior points
(grid, seeded-uniform, and near-feature), counts k-visible guards per
sample with the exact crossing counter, and reports the minimum coverage,
a histogram, and every violation.  Degenerate sight lines are retried with
a seeded jitter, then the sample is re-drawn.

Grid and seeded candidates, here and in the lemma checks, are built and
classified as integers by ``_LatticeSampler``; only the near-feature probes
and jitter retries, whose steps land on no fixed lattice, use ``Fraction``s
and ``point_in_polygon``.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .geometry import (
    INSIDE,
    Point,
    PolygonWithHoles,
    Ring,
    Segment,
    coerce_coord,
    denominator_lcm,
    point_in_polygon,
    point_in_polygon_i,
    ring_edges_i,
)
from .decomposition import Decomposition, pockets_of
from .visibility import (
    DegenerateSightlineError,
    VisibilityQueryScene,
    crossing_count,
    crossing_count_h,
    default_epsilon,
)

_QUANTUM = 1 << 20  # sample coordinates snap to this lattice (exact rationals)


@dataclass(frozen=True)
class SamplePlan:
    grid_density: int = 64
    random_count: int = 2000
    near_feature_count: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.grid_density < 0 or self.random_count < 0 or self.near_feature_count < 0:
            raise ValueError("sample counts must be nonnegative")
        if self.grid_density == 0 and self.random_count == 0 and self.near_feature_count == 0:
            raise ValueError("sample plan would produce no samples")


@dataclass
class CoverageReport:
    per_sample: list[tuple[Point, int]]
    min_coverage: int
    histogram: dict[int, int]
    violations: list[tuple[Point, int]]
    guard_bound_ok: bool | None
    target_m: int
    degenerate_dropped: int = 0

    def ok(self) -> bool:
        return self.min_coverage >= self.target_m and not self.violations


class _LatticeSampler:
    """Candidates ``x0 + r/q * (x1 - x0)`` over the polygon's bbox, held as
    integers on the lattice ``L = s * q`` (``s`` clears every coordinate
    denominator) and classified there by the integer ``point_in_polygon_i``.
    ``candidate`` draws r uniformly (two ``rng`` draws, x first); only
    accepted candidates become ``Point``s."""

    __slots__ = ("q", "scale", "rings", "x0", "y0", "dx", "dy")

    def __init__(self, poly: PolygonWithHoles, q: int = _QUANTUM):
        s = denominator_lcm(poly)
        self.q = q
        self.scale = s * q
        self.rings = [ring_edges_i(r, self.scale) for r in poly.rings()]
        x0, y0, x1, y1 = poly.bbox()
        self.x0, self.y0 = int(x0 * self.scale), int(y0 * self.scale)
        self.dx, self.dy = int((x1 - x0) * s), int((y1 - y0) * s)

    def candidate(self, rng: random.Random) -> tuple[int, int]:
        return (
            self.x0 + round(rng.random() * self.q) * self.dx,
            self.y0 + round(rng.random() * self.q) * self.dy,
        )

    def inside(self, ix: int, iy: int) -> bool:
        return point_in_polygon_i(ix, iy, self.rings) == INSIDE

    def point(self, ix: int, iy: int) -> Point:
        return Point(coerce_coord(Fraction(ix, self.scale)), coerce_coord(Fraction(iy, self.scale)))

    def draw(self, rng: random.Random) -> Point | None:
        """One candidate; the sample if strictly interior, else None."""
        ix, iy = self.candidate(rng)
        return self.point(ix, iy) if self.inside(ix, iy) else None


def _grid_points(poly: PolygonWithHoles, density: int) -> list[Point]:
    """Cell centres of a density x density grid over the bbox: point (i, j)
    is ``x0 + (2i+1)/(2 density) * (x1 - x0)``, x-major order."""
    if density <= 0:
        return []
    grid = _LatticeSampler(poly, 2 * density)
    xs = [grid.x0 + (2 * i + 1) * grid.dx for i in range(density)]
    ys = [grid.y0 + (2 * j + 1) * grid.dy for j in range(density)]
    return [grid.point(ix, iy) for ix in xs for iy in ys if grid.inside(ix, iy)]


def _random_points(poly: PolygonWithHoles, count: int, rng: random.Random) -> list[Point]:
    if count <= 0:
        return []
    lattice = _LatticeSampler(poly)
    out = []
    for _ in range(100 * count):
        p = lattice.draw(rng)
        if p is not None:
            out.append(p)
            if len(out) == count:
                break
    return out


def _near_feature_points(
    poly: PolygonWithHoles, per_feature: int, eps: Fraction
) -> list[Point]:
    if per_feature <= 0:
        return []
    out = []
    for ring_ in poly.rings():
        n = len(ring_)
        interior_sign = 1  # rings oriented so interior is on the left
        for i in range(n):
            a, b = ring_[i], ring_[i + 1]
            prev = ring_[i - 1]
            # Vertex probe: walk toward the neighbour midpoint (or away for
            # reflex corners) at shrinking distances.
            mid = Point(
                coerce_coord(Fraction(prev.x + b.x, 2)),
                coerce_coord(Fraction(prev.y + b.y, 2)),
            )
            out.extend(_probe_toward(poly, a, mid, per_feature, eps))
            # Edge-midpoint probe along the inward normal.
            em = Segment(a, b).midpoint()
            nx = -(b.y - a.y) * interior_sign
            ny = (b.x - a.x) * interior_sign
            target = Point(coerce_coord(em.x + nx), coerce_coord(em.y + ny))
            out.extend(_probe_toward(poly, em, target, per_feature, eps))
    return out


def _probe_toward(poly, origin: Point, target: Point, count: int, eps: Fraction):
    """Points roughly eps, 2*eps, ... inside the polygon from ``origin``
    along (or against) the direction to ``target``; misses are dropped."""
    if origin == target:
        return []
    dx = float(target.x - origin.x)
    dy = float(target.y - origin.y)
    norm = (dx * dx + dy * dy) ** 0.5
    if norm == 0:
        return []
    unit = Fraction(float(eps) / norm).limit_denominator(10**12)
    out = []
    for j in range(count):
        for sign in (1, -1):
            delta = sign * unit * (j + 1)
            p = Point(
                coerce_coord(origin.x + delta * (target.x - origin.x)),
                coerce_coord(origin.y + delta * (target.y - origin.y)),
            )
            if point_in_polygon(p, poly) == INSIDE:
                out.append(p)
                break
    return out


def sample_points(poly: PolygonWithHoles, plan: SamplePlan) -> list[Point]:
    """Strictly interior samples: grid + seeded-uniform + near-feature."""
    eps = Fraction(poly.bbox_diag()).limit_denominator(10**9) / 10**6
    rng = random.Random(f"{plan.seed}:random")
    samples = _grid_points(poly, plan.grid_density)
    samples += _random_points(poly, plan.random_count, rng)
    samples += _near_feature_points(poly, plan.near_feature_count, eps)
    return samples


def _threads() -> int:
    try:
        return max(1, int(os.environ.get("KVIS_THREADS", "1")))
    except ValueError:
        return 1


def _count_visible(
    sample_h, guards_h, edges_i, k: int, count_endpoint_edges: bool
) -> int | None:
    """Visible-guard count for one homogenized sample; None on degeneracy."""
    n = 0
    for g_h in guards_h:
        try:
            if crossing_count_h(sample_h, g_h, edges_i, count_endpoint_edges) <= k:
                n += 1
        except DegenerateSightlineError:
            return None
    return n


def _coverage_chunk(args):
    samples_h, guards_h, edges_i, k, cee = args
    return [_count_visible(s, guards_h, edges_i, k, cee) for s in samples_h]


def coverage(
    poly: PolygonWithHoles,
    guards,
    plan: SamplePlan,
    piece_count: int | None = None,
    target_m: int | None = None,
) -> CoverageReport:
    """Count k-visible guards at every sample; report minimum coverage,
    histogram, violations and the guard bound when a piece count is known.

    ``guards`` is a GuardSet (its ``k`` and ``target_m`` drive the check).
    A degenerate query jitters its sample up to 8 times, then the sample is
    re-drawn from a reserve stream (both seeded).
    """
    if not guards.guards:
        raise ValueError("coverage requires a nonempty guard set")
    k = guards.k
    m = target_m if target_m is not None else guards.target_m
    scene = VisibilityQueryScene(poly)
    eps = default_epsilon(scene)
    samples = sample_points(poly, plan)
    guards_h = [scene.homogenize(g.position) for g in guards.guards]
    edges_i = scene._edges_i
    cee = scene.count_endpoint_edges

    def jittered(p: Point, rng: random.Random) -> Point:
        jx = Fraction(round((rng.random() * 2 - 1) * _QUANTUM), _QUANTUM)
        jy = Fraction(round((rng.random() * 2 - 1) * _QUANTUM), _QUANTUM)
        return Point(
            coerce_coord(p.x + jx * eps), coerce_coord(p.y + jy * eps)
        )

    reserve = random.Random(f"{plan.seed}:reserve")
    lattice = _LatticeSampler(poly)

    def redraw() -> Point | None:
        for _ in range(200):
            p = lattice.draw(reserve)
            if p is not None:
                return p
        return None

    threads = _threads()
    counts: list[int | None]
    if threads > 1 and len(samples) >= 256:
        from concurrent.futures import ProcessPoolExecutor

        chunks = [samples[i::threads] for i in range(threads)]
        args = [
            ([scene.homogenize(s) for s in ch], guards_h, edges_i, k, cee)
            for ch in chunks
        ]
        try:
            with ProcessPoolExecutor(max_workers=threads) as ex:
                results = list(ex.map(_coverage_chunk, args))
            counts = [None] * len(samples)
            for t, res in enumerate(results):
                for w, val in enumerate(res):
                    counts[t + w * threads] = val
        except Exception:
            counts = [
                _count_visible(scene.homogenize(s), guards_h, edges_i, k, cee)
                for s in samples
            ]
    else:
        counts = [
            _count_visible(scene.homogenize(s), guards_h, edges_i, k, cee)
            for s in samples
        ]

    per_sample: list[tuple[Point, int]] = []
    dropped = 0
    for idx, (s, c) in enumerate(zip(samples, counts)):
        if c is None:
            rng = random.Random(f"{plan.seed}:jitter:{idx}")
            fixed = None
            attempt = s
            for _ in range(8):
                attempt = jittered(s, rng)
                if point_in_polygon(attempt, poly) != INSIDE:
                    continue
                c2 = _count_visible(scene.homogenize(attempt), guards_h, edges_i, k, cee)
                if c2 is not None:
                    fixed = (attempt, c2)
                    break
            if fixed is None:
                repl = redraw()
                if repl is not None:
                    c3 = _count_visible(scene.homogenize(repl), guards_h, edges_i, k, cee)
                    if c3 is not None:
                        fixed = (repl, c3)
            if fixed is None:
                dropped += 1
                continue
            per_sample.append(fixed)
        else:
            per_sample.append((s, c))

    histogram: dict[int, int] = {}
    for _, c in per_sample:
        histogram[c] = histogram.get(c, 0) + 1
    min_cov = min((c for _, c in per_sample), default=0)
    violations = [(p, c) for p, c in per_sample if c < m]
    bound_ok = None
    if piece_count is not None:
        bound_ok = len(guards.guards) <= max(k * piece_count, k + 2)
    return CoverageReport(
        per_sample=per_sample,
        min_coverage=min_cov,
        histogram=dict(sorted(histogram.items())),
        violations=violations,
        guard_bound_ok=bound_ok,
        target_m=m,
        degenerate_dropped=dropped,
    )


def check_guard_bound(guards, d: Decomposition) -> bool:
    """|guards| <= max(k*C, k+2): the kC bound with the convex base case."""
    c = len(d.pieces)
    return len(guards.guards) <= max(guards.k * c, guards.k + 2)


@dataclass
class PropertyReport:
    cases: int
    violations: list
    detail: dict = field(default_factory=dict)

    def ok(self) -> bool:
        return not self.violations


def check_merge_crossing_bound(
    polys,
    pairs_per_union: int = 1000,
    seed: int = 0,
    mode: str = "minimal",
) -> PropertyReport:
    """Merging two adjacent convex pieces exposes at most one two-edge
    obstruction: sampled point pairs inside each union must cross at most 2
    of the union's own edges.  ``detail["min_pairs"]`` is the fewest pairs
    accepted for a union; below ``pairs_per_union``, that union ran out of
    its ``100 * pairs_per_union`` attempts."""
    from .decomposition import decompose, merge

    violations = []
    cases = 0
    worst = 0
    fewest = None
    for pi, poly in enumerate(polys):
        d = decompose(poly, mode)
        for diag_id, (_, pa, pb) in enumerate(d.diagonals):
            union_ring = merge(d, diag_id).piece_by_id(min(pa, pb)).ring
            u_poly = PolygonWithHoles(union_ring, validate=False)
            u_scene = VisibilityQueryScene(u_poly)
            lattice = _LatticeSampler(u_poly)
            rng = random.Random(f"{seed}:{pi}:{diag_id}")
            cases += 1
            got = 0
            for _ in range(100 * pairs_per_union):
                if got == pairs_per_union:
                    break
                ip = lattice.candidate(rng)
                iq = lattice.candidate(rng)
                if ip == iq or not lattice.inside(*ip) or not lattice.inside(*iq):
                    continue
                p, q = lattice.point(*ip), lattice.point(*iq)
                try:
                    c = crossing_count(p, q, u_scene)
                except DegenerateSightlineError:
                    continue
                got += 1
                worst = max(worst, c)
                if c > 2:
                    violations.append((pi, diag_id, p, q, c))
            fewest = got if fewest is None else min(fewest, got)
    detail = {"max_crossings": worst, "min_pairs": fewest}
    return PropertyReport(cases=cases, violations=violations, detail=detail)


def check_boundary_guarding(
    convex_ring: Ring, g: Point, samples: int = 64, seed: int = 0
) -> PropertyReport:
    """Exterior point vs convex polygon: every interior sample is reached
    with exactly one boundary crossing."""
    poly = PolygonWithHoles(convex_ring, validate=False)
    scene = VisibilityQueryScene(poly)
    lattice = _LatticeSampler(poly)
    rng = random.Random(seed)
    violations = []
    got = 0
    for _ in range(200 * samples):
        if got == samples:
            break
        p = lattice.draw(rng)
        if p is None:
            continue
        try:
            c = crossing_count(g, p, scene)
        except DegenerateSightlineError:
            continue
        got += 1
        if c != 1:
            violations.append((p, c))
    return PropertyReport(cases=got, violations=violations)


def check_quad_pocket(quads) -> PropertyReport:
    """Non-convex simple quadrilaterals have exactly one pocket."""
    violations = []
    cases = 0
    for qi, quad in enumerate(quads):
        cases += 1
        ps = pockets_of(quad.outer if isinstance(quad, PolygonWithHoles) else quad)
        if len(ps) != 1:
            violations.append((qi, len(ps)))
    return PropertyReport(cases=cases, violations=violations)
