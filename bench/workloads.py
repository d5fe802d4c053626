"""The benchmark's three workloads.

Each workload builds its inputs from the seed (set-up), runs one round of
timed cases through the program's public entry points, and checks the
outputs of a round against ``oracle`` outside the timed section.

A round is the same list of cases every time; ``run.py`` repeats rounds
while they fit in the run length.  An operation is one ``place``, one
``verify`` or one lemma-check call.
"""

from __future__ import annotations

import json
import random
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import oracle
from kvisguard import cli, decomposition, generators, verify
from kvisguard.fileio import write_polygon
from kvisguard.geometry import PolygonWithHoles, Ring, convex_hull, pt, ring

# Set-up and the oracle's re-check use the untraced decomposition.
_decompose, _merge = decomposition.decompose, decomposition.merge

ORACLE_POINTS = 12  # seeded interior points per placed case
UNION_PAIRS = 12  # seeded point pairs per union in the merge re-check


@dataclass
class Outcome:
    """What one round did: per case its (start, end) on perf_counter, and
    per operation whether it failed and why."""

    case_spans: list[tuple[float, float]] = field(default_factory=list)
    ops: list[tuple[str, str | None]] = field(default_factory=list)  # (op, failure)


@dataclass
class PlaceCase:
    name: str
    path: Path
    k: int
    m: int


class PlaceVerify:
    """``place`` then ``verify`` through ``kvisguard.cli.main``, one case per
    (polygon, k)."""

    def __init__(self, seed: int, work: Path, svg: bool, samples: int, grid: int):
        self.seed, self.work = seed, work
        self.svg, self.samples, self.grid = svg, samples, grid
        self.cases: list[PlaceCase] = []
        self.first: dict[str, tuple[bytes, bytes]] = {}
        self.notes: list[str] = []
        # Guards above max(k(r+1), k+2), summed over the simple cases; a
        # per-layer metric, since that bound is no check (see the README).
        self.guards_over_bound = 0

    def add(self, name: str, poly: PolygonWithHoles, k: int):
        path = self.work / f"{name}.json"
        path.write_text(write_polygon(poly, name=name), encoding="utf-8")
        self.cases.append(PlaceCase(name, path, k, 2 if poly.holes else k + 2))

    def round(self) -> Outcome:
        out = Outcome()
        for c in self.cases:
            g, r = self._out(c, "guards.json"), self._out(c, "report.json")
            place = ["place", "--input", str(c.path), "--k", str(c.k), "--out", str(g), "--seed", "0"]
            if self.svg:
                place += ["--svg", str(self._out(c, "svg"))]
            t0 = time.perf_counter()
            place_rc = _guarded(cli.main, place)
            verify_rc = _guarded(cli.main, [
                "verify", "--input", str(c.path), "--guards", str(g), "--k", str(c.k),
                "--m", str(c.m), "--samples", str(self.samples), "--grid", str(self.grid),
                "--seed", str(self.seed), "--report", str(r),
            ])
            out.case_spans.append((t0, time.perf_counter()))
            out.ops.append((f"place {c.name}", None if place_rc == 0 else f"place exit {place_rc}"))
            out.ops.append((f"verify {c.name}", None if verify_rc == 0 else f"verify exit {verify_rc}"))
        return out

    def _out(self, c: PlaceCase, suffix: str) -> Path:
        return self.work / f"{c.name}.{suffix}"

    def check(self, out: Outcome) -> None:
        """Check each case's files; the oracle runs on the first round, and
        later rounds must write the same bytes."""
        for i, c in enumerate(self.cases):
            if out.ops[2 * i][1] or out.ops[2 * i + 1][1]:
                continue
            gb, rb = self._out(c, "guards.json").read_bytes(), self._out(c, "report.json").read_bytes()
            if c.name in self.first:
                same = self.first[c.name] == (gb, rb)
                if not same:
                    _fail(out, 2 * i, "output differs from the first round")
                continue
            self.first[c.name] = (gb, rb)
            rings = oracle.read_polygon(c.path)
            guards = oracle.read_guards(self._out(c, "guards.json"))
            problem = place_problem(rings, guards, c.k, json.loads(gb).get("piece_count"))
            if problem:
                _fail(out, 2 * i, problem)
            r = oracle.reflex_count(rings[0])
            if len(rings) == 1 and len(guards) > max(c.k * (r + 1), c.k + 2):
                self.notes.append(f"{c.name}: {len(guards)} guards > max(k(r+1), k+2) with r = {r}")
                self.guards_over_bound += len(guards) - max(c.k * (r + 1), c.k + 2)
            report = json.loads(rb)
            if report["min_coverage"] < c.m or report["samples"] < self.samples:
                _fail(out, 2 * i + 1, f"report {report['min_coverage']=} {report['samples']=}")
            seen = oracle.min_coverage(
                rings, guards, c.k, c.m, ORACLE_POINTS, f"{self.seed}:{c.name}"
            )
            if seen < c.m:
                _fail(out, 2 * i + 1, f"oracle coverage {seen} < m={c.m}")

    def controls(self) -> list[str]:
        """Planted failures that the checks must flag; returns the missed."""
        missed = []
        sq = [(Fraction(x), Fraction(y)) for x, y in ((0, 0), (4, 0), (4, 4), (0, 4))]
        k = 2
        edge_mids = [(Fraction(2), Fraction(0)), (Fraction(4), Fraction(2)), (Fraction(2), Fraction(4))]
        # k+1 guards on a convex square: one short of the exact k+2 and of m.
        if place_problem([sq], edge_mids, k, 1) is None:
            missed.append("convex input with k+1 guards passed")
        if oracle.min_coverage([sq], edge_mids, k, k + 2, 4, 0) >= k + 2:
            missed.append("guard set one short of m passed the oracle")
        # k+2 guards on the top of a comb's right tooth: enough by number,
        # but the left tooth is seen from them only through 4 edges.
        top = [(Fraction(4) + Fraction(i, 5), Fraction(2)) for i in range(1, 5)]
        if oracle.min_coverage([_q(generators.comb_ring(3))], top, k, k + 2, 64, 0) >= k + 2:
            missed.append("guards that see part of a comb only through more than k edges passed the oracle")
        c = self.cases[-1]
        rings = oracle.read_polygon(c.path)
        guards = oracle.read_guards(self._out(c, "guards.json"))
        pieces = json.loads(self._out(c, "guards.json").read_bytes()).get("piece_count")
        off = [oracle.interior_points(rings, 1, random.Random(0))[0]] + guards[1:]
        if place_problem(rings, off, c.k, pieces) is None:
            missed.append("guard off the boundary passed")
        cap = guard_cap(rings, c.k, pieces)
        if place_problem(rings, guards + [guards[0]] * (cap + 1 - len(guards)), c.k, pieces) is None:
            missed.append("guard count above the bound passed")
        if place_problem(rings, guards, c.k, 2 * oracle.reflex_count(rings[0]) + 2) is None:
            missed.append("a piece count above 2r+1 passed")
        return missed


def guard_cap(rings, k: int, pieces: int | None) -> int:
    """max(kC, k+2) for C convex pieces, plus one guard per hole edge.  A
    holed placement reports no C; it is bounded there by 2r+1, r the reflex
    vertices of the outer ring."""
    if pieces is None:
        pieces = 2 * oracle.reflex_count(rings[0]) + 1
    return max(k * pieces, k + 2) + sum(len(h) for h in rings[1:])


def place_problem(rings, guards, k: int, pieces: int | None) -> str | None:
    """The properties a placement must have, decided by the oracle.

    A decomposition by diagonals where each diagonal is needed at one of
    its reflex ends has at most 2r+1 pieces; a minimal one has no more."""
    off = [g for g in guards if not oracle.on_boundary(g, rings)]
    if off:
        return f"{len(off)} guards off the boundary"
    r = oracle.reflex_count(rings[0])
    if pieces is not None and pieces > 2 * r + 1:
        return f"{pieces} pieces > 2r+1 = {2 * r + 1}"
    if len(guards) > guard_cap(rings, k, pieces):
        return f"{len(guards)} guards > bound {guard_cap(rings, k, pieces)}"
    if len(rings) == 1 and r == 0 and len(guards) != k + 2:
        return f"convex input got {len(guards)} guards, not k+2 = {k + 2}"
    return None


def _guarded(fn, *args):
    """fn(*args), or the exception's name when it raises: a crash of the
    program is a failed operation, not an end of the run."""
    try:
        return fn(*args)
    except Exception as e:  # noqa: BLE001 - reported, the run goes on
        traceback.print_exc()
        return type(e).__name__


def _fail(out: Outcome, i: int, why: str) -> None:
    op, prior = out.ops[i]
    out.ops[i] = (op, prior or why)


# -- corpus ----------------------------------------------------------------

def corpus_polygons():
    """The acceptance corpus, with the generator specs of tests/conftest.py."""
    gen = generators.generate
    G = generators.GenSpec
    return [
        ("pentagon", PolygonWithHoles(ring([(0, 0), (4, 0), (5, 3), (2, 5), (-1, 3)]))),
        ("l_hexagon", PolygonWithHoles(generators.l_ring())),
        ("dart", gen(G("dart", 4, seed=7))),
        ("comb3", gen(G("comb", 12, seed=1))),
        ("comb5", gen(G("comb", 20, seed=1))),
        ("staircase4", gen(G("staircase", 11, seed=1))),
        ("spiral2", gen(G("spiral", 13, seed=1))),
        ("monotone16", gen(G("monotone", 16, seed=1))),
        ("random20a", gen(G("random_simple", 20, seed=1))),
        ("random20b", gen(G("random_simple", 20, seed=2))),
    ]


def corpus(seed: int, work: Path) -> PlaceVerify:
    """Each polygon once per round, alternately at k = 2 and k = 4 in corpus
    order; the seed seeds verify's samples and the oracle's points."""
    wl = PlaceVerify(seed, work, svg=True, samples=10_000, grid=16)
    for i, (name, poly) in enumerate(corpus_polygons()):
        k = 2 if i % 2 == 0 else 4
        wl.add(f"{name}.k{k}", poly, k)
    return wl


# -- large -----------------------------------------------------------------

def holed_staircase(rng: random.Random, steps: int = 7, scale: int = 4, holes: int = 2):
    """A staircase scaled by ``scale`` with unit-square holes at seeded
    lattice cells, kept apart from each other and from the boundary."""
    outer = [(v.x * scale, v.y * scale) for v in generators.staircase_ring(steps).vertices]
    outer_q = [(Fraction(x), Fraction(y)) for x, y in outer]
    span = (steps + 1) * scale
    cells: list[tuple[int, int]] = []
    while len(cells) < holes:
        x, y = rng.randrange(1, span - 1), rng.randrange(1, span - 1)
        ring_ = [(x - 1, y - 1), (x + 2, y - 1), (x + 2, y + 2), (x - 1, y + 2)]  # 1-cell margin
        if any(abs(x - a) < 3 and abs(y - b) < 3 for a, b in cells):
            continue
        if all(oracle.inside((Fraction(px), Fraction(py)), [outer_q]) for px, py in ring_):
            cells.append((x, y))
    hole_rings = [ring([(x, y), (x, y + 1), (x + 1, y + 1), (x + 1, y)]) for x, y in cells]
    return PolygonWithHoles(ring(outer), hole_rings)


def large(seed: int, work: Path) -> PlaceVerify:
    """Place-heavy: n = 29 to 45 from five families at k in {2, 4, 6}, plus a
    staircase with holes at seeded cells; a light verify after each place.
    The simple polygons are fixed, so that the seed changes the samples and
    the holes but not the size of the work."""
    G = generators.GenSpec
    wl = PlaceVerify(seed, work, svg=False, samples=500, grid=8)
    wl.add("comb32", generators.generate(G("comb", 32)), 6)
    wl.add("spiral29", generators.generate(G("spiral", 29)), 4)
    wl.add("staircase45", generators.generate(G("staircase", 45)), 2)
    wl.add("monotone36", generators.generate(G("monotone", 36, seed=1)), 6)
    wl.add("random30", generators.generate(G("random_simple", 30, seed=3)), 4)
    wl.add("holed_staircase", holed_staircase(random.Random(f"large:{seed}")), 2)
    return wl


# -- lemmas ----------------------------------------------------------------

class Lemmas:
    """The three lemma checks of ``kvisguard.verify``, one call per case.

    * merge: monotone polygons with generator seeds 0, 1, 2, ... and n
      cycling through 10, 12, 14, as acceptance criterion 4 makes them,
      taken until their MINIMAL decompositions hold exactly ``UNIONS``
      adjacent unions; one ``check_merge_crossing_bound`` call per polygon
      with 1000 pairs per union, drawn from the seed.
    * boundary: 40 calls of 25 samples each, drawn from the seed, on the
      first 40 convex hulls with an exterior point that acceptance
      criterion 5 draws.
    * quad: 10 calls of 100 seeded darts each.
    """

    UNIONS = 24

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        rng = random.Random(f"lemmas:{seed}")
        self.merge_polys: list[PolygonWithHoles] = []
        self.merge_unions: list[int] = []  # adjacent unions per merge polygon
        total, gen_seed = 0, 0
        while total < self.UNIONS:
            n = (10, 12, 14)[gen_seed % 3]
            poly = generators.generate(generators.GenSpec("monotone", n, seed=gen_seed))
            gen_seed += 1
            u = len(_decompose(poly, decomposition.MINIMAL).diagonals)
            if 0 < u <= self.UNIONS - total:
                self.merge_polys.append(poly)
                self.merge_unions.append(u)
                total += u
        # The hull triples are criterion 5's first 40, the same for every
        # seed: with seeded hulls a call's time differed by up to 2x
        # between seeds.
        triple_rng = random.Random(17)
        self.triples = [boundary_triple(triple_rng) for _ in range(40)]
        self.darts = [
            [generators.generate(generators.GenSpec("dart", 4, seed=rng.randrange(1 << 30))) for _ in range(100)]
            for _ in range(10)
        ]
        with open(work / "lemmas.json", "w", encoding="utf-8") as f:
            json.dump({
                "merge": [write_polygon(p) for p in self.merge_polys],
                "boundary": [[write_polygon(PolygonWithHoles(r)), [g.x, g.y]] for r, g in self.triples],
                "quad": [[write_polygon(p) for p in batch] for batch in self.darts],
            }, f)
        # The short calls are spread between the merge calls, so that their
        # times sample the whole round, not one stretch of it.
        short = [("boundary", j) for j in range(len(self.triples))] + [("quad", j) for j in range(len(self.darts))]
        per_merge = -(-len(short) // len(self.merge_polys))
        self.calls: list[tuple[str, int]] = []
        for j in range(len(self.merge_polys)):
            self.calls += [("merge", j)] + short[j * per_merge:(j + 1) * per_merge]
        self.reports: list = []
        self.first_checked = False
        self.notes: list[str] = []

    def _call(self, kind: str, j: int):
        # ``verify.<check>`` is looked up at each call, so that a traced run
        # sees the wrapped check.
        if kind == "merge":
            return verify.check_merge_crossing_bound([self.merge_polys[j]], pairs_per_union=1000, seed=self.seed)
        if kind == "boundary":
            r, g = self.triples[j]
            return verify.check_boundary_guarding(r, g, samples=25, seed=self.seed * 1000 + j)
        return verify.check_quad_pocket(self.darts[j])

    def round(self) -> Outcome:
        out = Outcome()
        self.reports = []
        for kind, j in self.calls:
            t0 = time.perf_counter()
            rep = _guarded(self._call, kind, j)
            out.case_spans.append((t0, time.perf_counter()))
            if isinstance(rep, str):
                out.ops.append((kind, f"{kind} raised {rep}"))
                rep = None
            else:
                out.ops.append((kind, None if rep.ok() else f"{kind}: {len(rep.violations)} violations"))
            self.reports.append(rep)
        return out

    def check(self, out: Outcome) -> None:
        for i, ((kind, j), rep) in enumerate(zip(self.calls, self.reports)):
            if rep is None:
                continue
            if kind == "merge" and rep.cases != self.merge_unions[j]:
                _fail(out, i, f"{rep.cases} of {self.merge_unions[j]} unions")
            if kind == "merge" and rep.detail["max_crossings"] > 2:
                _fail(out, i, f"max crossings {rep.detail['max_crossings']}")
            if kind == "boundary" and rep.cases != 25:
                _fail(out, i, f"{rep.cases} of 25 triples")
            if kind == "quad" and rep.cases != 100:
                _fail(out, i, f"{rep.cases} of 100 quads")
        if self.first_checked:
            return
        self.first_checked = True
        # The oracle re-checks each lemma on its own samples.
        for i, (kind, j) in enumerate(self.calls):
            if kind == "merge":
                if any(oracle.max_pair_crossings(u, UNION_PAIRS, f"{self.seed}:{j}") > 2
                       for u in union_rings(self.merge_polys[j])):
                    _fail(out, i, "oracle: a union pair crosses more than 2 edges")
            elif kind == "boundary":
                if boundary_problem(*self.triples[j], f"{self.seed}:{j}"):
                    _fail(out, i, "oracle: a boundary triple does not cross exactly once")
            elif any(oracle.reflex_count(_q(p.outer)) != 1 for p in self.darts[j]):
                _fail(out, i, "oracle: a dart without exactly one reflex vertex")

    def controls(self) -> list[str]:
        missed = []
        comb = generators.comb_ring(3)
        if oracle.max_pair_crossings(_q(comb), 200, 0) <= 2:
            missed.append("merge re-check passed a comb, which is no union of two convex pieces")
        g = pt(-9, 2)
        if not boundary_problem(comb, g, 0):
            missed.append("boundary oracle passed a non-convex ring")
        if verify.check_boundary_guarding(comb, g, samples=100, seed=0).ok():
            missed.append("check_boundary_guarding passed a non-convex ring")
        if verify.check_quad_pocket([PolygonWithHoles(comb)]).ok():
            missed.append("check_quad_pocket passed a comb with several pockets")
        return missed


def _q(r: Ring):
    return [(Fraction(v.x), Fraction(v.y)) for v in r.vertices]


def union_rings(poly: PolygonWithHoles):
    """The rings check_merge_crossing_bound samples: each adjacent pair of
    MINIMAL pieces merged across its diagonal."""
    d = _decompose(poly, decomposition.MINIMAL)
    for diag_id, (_, pa, pb) in enumerate(d.diagonals):
        yield _q(_merge(d, diag_id).piece_by_id(min(pa, pb)).ring)


def boundary_triple(rng: random.Random):
    """A convex hull of 12 lattice points and a point outside it, drawn as
    acceptance criterion 5 draws them."""
    while True:
        hull = convex_hull([pt(rng.randrange(0, 128), rng.randrange(0, 128)) for _ in range(12)])
        if len(hull) >= 3:
            break
    side = rng.choice(("e", "w", "n", "s"))
    gx = rng.randrange(200, 400) if side == "e" else rng.randrange(-300, -100)
    gy = rng.randrange(-300, 400)
    if side in ("n", "s"):
        gx, gy = gy, gx
    return Ring(hull), pt(gx, gy)


def boundary_problem(r: Ring, g, seed, points: int = 4) -> bool:
    """Some seeded interior point of r is not reached from g through
    exactly one boundary edge."""
    rings = [_q(r)]
    es = oracle.edges(rings)
    gq = (Fraction(g.x), Fraction(g.y))
    rng = random.Random(seed)
    for p in oracle.interior_points(rings, points * 4, rng):
        try:
            if oracle.crossings(gq, p, es) != 1:
                return True
        except oracle.Degenerate:
            continue
    return False


WORKLOADS = {"corpus": corpus, "large": large, "lemmas": Lemmas}
