"""Convex decomposition by diagonals, real-edge labels, dual graph, merging
and pocket extraction.

Two modes: MINIMAL finds the minimum number of convex pieces for a simple
polygon with a dynamic program over convex fans; FAST triangulates (holes
are bridged into the outer ring first) and greedily removes inessential
diagonals Hertel-Mehlhorn style.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .geometry import (
    CCW,
    COLLINEAR,
    CW,
    INSIDE,
    InvalidPolygonError,
    Point,
    PolygonWithHoles,
    Ring,
    Segment,
    IntEdge,
    convex_hull,
    denominator_lcm,
    orientation,
    point_in_polygon_i,
    point_on_segment,
    polygon_problems,
    ring_edges_i,
    segments_properly_cross,
)
# ``point_in_polygon`` is not called here; it stays importable as
# ``decomposition.point_in_polygon``, which bench/tracer.py wraps.
from .geometry import point_in_polygon  # noqa: F401

MINIMAL = "minimal"
FAST = "fast"

REAL = "real"
DIAGONAL = "diagonal"


class NotATreeError(Exception):
    """Dual graph has cycles (polygon with holes); use a spanning tree."""


@dataclass(frozen=True)
class EdgeLabel:
    kind: str  # REAL or DIAGONAL
    index: int  # scene edge index, or diagonal id

    def is_real(self) -> bool:
        return self.kind == REAL


@dataclass
class ConvexPiece:
    id: int
    ring: Ring
    labels: tuple[EdgeLabel, ...]  # labels[i] labels edge ring[i] -> ring[i+1]

    def real_edge_indices(self) -> list[int]:
        """Positions within the piece ring whose edge is a real edge."""
        return [i for i, lab in enumerate(self.labels) if lab.is_real()]

    def edge_segment(self, i: int) -> Segment:
        return Segment(self.ring[i], self.ring[i + 1])


@dataclass
class Decomposition:
    pieces: list[ConvexPiece]
    diagonals: list[tuple[Segment, int, int]]  # (segment, piece id, piece id)
    source: PolygonWithHoles

    def piece_by_id(self, pid: int) -> ConvexPiece:
        for p in self.pieces:
            if p.id == pid:
                return p
        raise KeyError(pid)


@dataclass
class DualGraph:
    nodes: list[int]
    edges: list[tuple[int, int, int]]  # (piece id, piece id, diagonal id)

    def neighbors(self, pid: int) -> list[tuple[int, int]]:
        out = []
        for a, b, d in self.edges:
            if a == pid:
                out.append((b, d))
            elif b == pid:
                out.append((a, d))
        return out

    def is_tree(self) -> bool:
        if len(self.edges) != len(self.nodes) - 1:
            return False
        seen = set()
        stack = [self.nodes[0]] if self.nodes else []
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            stack.extend(n for n, _ in self.neighbors(v) if n not in seen)
        return len(seen) == len(self.nodes)


@dataclass
class Pocket:
    """Boundary chain between two mouth endpoints.  The chain is stored in
    ring (CCW) walk order; interior reflex vertices are the spikes the sweep
    cares about."""

    chain: tuple[Point, ...]
    mouth: Segment


# ---------------------------------------------------------------------------
# Triangulation


def _rings_at_twice(poly: PolygonWithHoles) -> tuple[int, list[tuple[IntEdge, ...]]]:
    """(s, rings): s = ``denominator_lcm(poly)`` and every ring's integer
    edges at scale 2s, on which the midpoint of two vertices a, b is the
    integer point ((a.x + b.x) * s, (a.y + b.y) * s)."""
    s = denominator_lcm(poly)
    return s, [ring_edges_i(r, 2 * s) for r in poly.rings()]


def _midpoint_inside(a: Point, b: Point, s: int, rings_2s: Sequence[Sequence[IntEdge]]) -> bool:
    return point_in_polygon_i(int((a.x + b.x) * s), int((a.y + b.y) * s), rings_2s) == INSIDE


def _valid_diagonal(
    i: int, j: int, verts: Sequence[Point], edges: Sequence[Segment], s: int,
    rings_2s: Sequence[Sequence[IntEdge]],
) -> bool:
    a, b = verts[i], verts[j]
    if a == b:
        return False
    seg = Segment(a, b)
    for e in edges:
        if segments_properly_cross(seg, e):
            return False
    for v in verts:
        if v != a and v != b and point_on_segment(v, seg):
            return False
    return _midpoint_inside(a, b, s, rings_2s)


def _ear_clip(indices: list[int], verts: Sequence[Point]) -> list[tuple[int, int, int]]:
    """Ear-clipping triangulation of a CCW (possibly bridge-pinched) ring
    given as indices into verts.  Exact predicates throughout."""
    work = list(indices)
    triangles = []
    guard = 0
    limit = 4 * len(work) * len(work) + 64
    while len(work) > 3:
        guard += 1
        if guard > limit:
            raise InvalidPolygonError("ear clipping failed to converge")
        n = len(work)
        clipped = False
        for pos in range(n):
            ip, iv, inx = work[pos - 1], work[pos], work[(pos + 1) % n]
            a, b, c = verts[ip], verts[iv], verts[inx]
            if orientation(a, b, c) != CCW:
                continue
            blocked = False
            for w in work:
                if w in (ip, iv, inx):
                    continue
                p = verts[w]
                if p == a or p == b or p == c:
                    continue  # bridge duplicate sitting on a corner
                o1 = orientation(a, b, p)
                o2 = orientation(b, c, p)
                o3 = orientation(c, a, p)
                if o1 >= 0 and o2 >= 0 and o3 >= 0:
                    blocked = True
                    break
            if blocked:
                continue
            triangles.append((ip, iv, inx))
            del work[pos]
            clipped = True
            break
        if not clipped:
            raise InvalidPolygonError("no ear found; polygon may be degenerate")
    a, b, c = work
    if orientation(verts[a], verts[b], verts[c]) == CCW:
        triangles.append((a, b, c))
    else:
        raise InvalidPolygonError("final triangle is not counterclockwise")
    return triangles


def _bridge_holes(poly: PolygonWithHoles):
    """Cut each hole into the outer ring along a mutually visible vertex
    pair (classic earcut bridging).  Returns (verts, ring_ids, combined ring
    indices, bridge index pairs).  ``verts``/``ring_ids`` identify original
    vertices; bridge edges become diagonals."""
    verts: list[Point] = list(poly.outer.vertices)
    origins: list[tuple[int, int]] = [(0, i) for i in range(len(verts))]
    combined = list(range(len(verts)))
    bridges: list[tuple[int, int]] = []

    all_edges = poly.edges()
    s, rings_2s = _rings_at_twice(poly)
    all_vertices = [v for r in poly.rings() for v in r.vertices]
    # Process holes by decreasing max-x so earlier bridges never block later
    # ones on the left.
    order = sorted(
        range(len(poly.holes)),
        key=lambda h: max(v.x for v in poly.holes[h].vertices),
        reverse=True,
    )
    used_bridges: list[Segment] = []
    for h in order:
        hole = poly.holes[h]
        base = len(verts)
        verts.extend(hole.vertices)
        origins.extend((h + 1, i) for i in range(len(hole.vertices)))
        hn = len(hole.vertices)
        # Rightmost hole vertex: connect it to a visible combined-ring vertex.
        hv_local = max(range(hn), key=lambda i: (hole.vertices[i].x, hole.vertices[i].y))
        hv = base + hv_local
        best = None
        for pos, ci in enumerate(combined):
            cand = Segment(verts[hv], verts[ci])
            if cand.a == cand.b:
                continue
            ok = True
            for e in all_edges:
                if segments_properly_cross(cand, e):
                    ok = False
                    break
            if ok:
                for v in all_vertices:
                    if v not in (cand.a, cand.b) and point_on_segment(v, cand):
                        ok = False
                        break
            if not ok:
                continue
            if not _midpoint_inside(cand.a, cand.b, s, rings_2s):
                continue
            d2 = cand.length_sq()
            if best is None or d2 < best[0]:
                best = (d2, pos, ci)
        if best is None:
            raise InvalidPolygonError(f"could not bridge hole {h} into the outer ring")
        _, pos, ci = best
        bridges.append((ci, hv))
        used_bridges.append(Segment(verts[ci], verts[hv]))
        # Splice: ... ci, hv, hole walk, hv, ci, ...
        hole_walk = [base + ((hv_local + t) % hn) for t in range(hn)]
        combined = (
            combined[: pos + 1] + hole_walk + [hv, ci] + combined[pos + 1 :]
        )
        all_edges = all_edges + [used_bridges[-1]]
    return verts, origins, combined, bridges


def _scene_edge_index(poly: PolygonWithHoles, ring_id: int, vertex_id: int) -> int:
    offset = 0
    rings = poly.rings()
    for r in range(ring_id):
        offset += len(rings[r])
    return offset + vertex_id


def _build_pieces(
    poly: PolygonWithHoles,
    verts: Sequence[Point],
    origins: Sequence[tuple[int, int]],
    rings_idx: list[list[int]],
) -> Decomposition:
    """Label piece-ring edges as real scene edges or shared diagonals and
    assemble the Decomposition."""
    ring_sizes = [len(r) for r in poly.rings()]

    def real_index(i: int, j: int) -> int | None:
        ri, vi = origins[i]
        rj, vj = origins[j]
        if ri != rj:
            return None
        n = ring_sizes[ri]
        if (vi + 1) % n == vj:
            return _scene_edge_index(poly, ri, vi)
        return None

    diag_ids: dict[tuple[Point, Point], int] = {}
    diag_sides: dict[int, list[int]] = {}
    pieces: list[ConvexPiece] = []
    for pid, idxs in enumerate(rings_idx):
        labels = []
        m = len(idxs)
        for t in range(m):
            i, j = idxs[t], idxs[(t + 1) % m]
            rid = real_index(i, j)
            if rid is not None:
                labels.append(EdgeLabel(REAL, rid))
            else:
                key = tuple(sorted((verts[i], verts[j])))
                if key not in diag_ids:
                    diag_ids[key] = len(diag_ids)
                d = diag_ids[key]
                diag_sides.setdefault(d, []).append(pid)
                labels.append(EdgeLabel(DIAGONAL, d))
        pieces.append(
            ConvexPiece(pid, Ring([verts[i] for i in idxs]), tuple(labels))
        )
    diagonals: list[tuple[Segment, int, int]] = [None] * len(diag_ids)  # type: ignore
    for key, d in diag_ids.items():
        sides = diag_sides[d]
        if len(sides) != 2:
            raise InvalidPolygonError(
                f"diagonal {key} is shared by {len(sides)} pieces, expected 2"
            )
        diagonals[d] = (Segment(key[0], key[1]), sides[0], sides[1])
    return Decomposition(pieces, diagonals, poly)


def _hertel_mehlhorn(rings_idx: list[list[int]], verts: Sequence[Point]) -> list[list[int]]:
    """Greedy diagonal removal: merge triangle pairs while both junction
    angles stay convex and the union ring stays unpinched."""

    def try_merge(ra: list[int], rb: list[int]) -> list[int] | None:
        shared = None
        na, nb = len(ra), len(rb)
        for i in range(na):
            u, v = ra[i], ra[(i + 1) % na]
            for j in range(nb):
                if rb[j] == v and rb[(j + 1) % nb] == u:
                    shared = (i, j)
                    break
            if shared:
                break
        if shared is None:
            return None
        i, j = shared
        merged = [ra[(i + 1 + t) % na] for t in range(na - 1)]
        merged += [rb[(j + 1 + t) % nb] for t in range(nb - 1)]
        coords = [verts[ix] for ix in merged]
        if len(set(coords)) != len(coords):
            return None  # pinched through a bridge duplicate
        m = len(merged)
        for t in range(m):
            if orientation(coords[t - 1], coords[t], coords[(t + 1) % m]) == CW:
                return None
        return merged

    pieces = [list(r) for r in rings_idx]
    changed = True
    while changed:
        changed = False
        for a in range(len(pieces)):
            for b in range(a + 1, len(pieces)):
                merged = try_merge(pieces[a], pieces[b])
                if merged is not None:
                    pieces[a] = merged
                    del pieces[b]
                    changed = True
                    break
            if changed:
                break
    return pieces


# ---------------------------------------------------------------------------
# Minimum convex partition (simple polygons)


def _walk_parents(parent, state) -> list[int]:
    chain = [state[1]]
    while state is not None:
        chain.append(state[0])
        state = parent[state]
    chain.reverse()
    return chain


def _minimal_partition(ring_pts: Sequence[Point]) -> list[list[int]]:
    """Minimum number of convex pieces via a DP over convex fans rooted at
    each candidate diagonal.  Pure-int inner loops on precomputed sign and
    diagonal-validity tables; straight (pi) interior angles are allowed."""
    n = len(ring_pts)
    poly = PolygonWithHoles(Ring(ring_pts), validate=False)
    edges = poly.outer.edges()
    s, rings_2s = _rings_at_twice(poly)

    orient_sign = [[[0] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        pa = ring_pts[a]
        for b in range(n):
            if b == a:
                continue
            pb = ring_pts[b]
            for c in range(n):
                orient_sign[a][b][c] = orientation(pa, pb, ring_pts[c])

    link = [[False] * n for _ in range(n)]
    for i in range(n - 1):
        link[i][i + 1] = True  # polygon edge
    for i in range(n):
        for j in range(i + 2, n):
            if i == 0 and j == n - 1:
                continue  # the closing polygon edge, not a diagonal
            if _valid_diagonal(i, j, ring_pts, edges, s, rings_2s):
                link[i][j] = True

    INF = 1 << 30
    memo: dict[tuple[int, int], int] = {}
    choice: dict[tuple[int, int], list[int]] = {}

    def f(i: int, j: int) -> int:
        # Min pieces for the region bounded by chain i..j and segment (j, i).
        if j == i + 1:
            return 0
        key = (i, j)
        if key in memo:
            return memo[key]
        best = INF
        best_chain: list[int] | None = None
        # The piece touching the closing segment is a convex fan
        # i = u0 < u1 < ... < um = j; DAG shortest path over states
        # (prev, cur), processed in increasing cur.
        g: dict[tuple[int, int], int] = {}
        parent: dict[tuple[int, int], tuple[int, int] | None] = {}
        for u1 in range(i + 1, j):
            if not link[i][u1]:
                continue
            if orient_sign[j][i][u1] == CW:
                continue  # corner at i must stay convex
            sub = f(i, u1)
            if sub < INF:
                g[(i, u1)] = sub
                parent[(i, u1)] = None
        for cur in range(i + 1, j):
            for prev in range(i, cur):
                state = (prev, cur)
                if state not in g:
                    continue
                cost = g[state]
                for u in range(cur + 1, j + 1):
                    if not link[cur][u]:
                        continue
                    if orient_sign[prev][cur][u] == CW:
                        continue
                    sub = f(cur, u)
                    if sub >= INF:
                        continue
                    ncost = cost + sub
                    if u == j:
                        if orient_sign[cur][j][i] == CW:
                            continue  # corner at j must stay convex
                        if 1 + ncost < best:
                            best = 1 + ncost
                            best_chain = _walk_parents(parent, state) + [j]
                    elif ncost < g.get((cur, u), INF):
                        g[(cur, u)] = ncost
                        parent[(cur, u)] = state
        memo[key] = best
        if best_chain is not None:
            choice[key] = best_chain
        return best

    # Root the recursion at polygon edge (n-1, 0): region = whole polygon.
    total = f(0, n - 1)
    del f  # f and collect each refer to themselves: drop the cycles here
    if total >= INF:
        raise InvalidPolygonError("minimal decomposition failed")

    pieces: list[list[int]] = []

    def collect(i: int, j: int) -> None:
        if j == i + 1:
            return
        chain = choice[(i, j)]
        pieces.append(chain)
        for t in range(len(chain) - 1):
            collect(chain[t], chain[t + 1])

    collect(0, n - 1)
    del collect
    return pieces


# ---------------------------------------------------------------------------
# Public operations


def decompose(poly: PolygonWithHoles, mode: str = MINIMAL) -> Decomposition:
    """Convex decomposition by vertex-to-vertex diagonals.

    MINIMAL: minimum piece count (simple polygons; falls back to FAST with
    holes).  FAST: Hertel-Mehlhorn greedy merge of an exact triangulation.
    """
    if mode not in (MINIMAL, FAST):
        raise ValueError(f"unknown decomposition mode: {mode}")
    problems = polygon_problems(poly)
    if problems:
        raise InvalidPolygonError("; ".join(problems))

    if mode == MINIMAL and not poly.holes:
        ring_pts = poly.outer.vertices
        rings_idx = _minimal_partition(ring_pts)
        origins = [(0, i) for i in range(len(ring_pts))]
        return _build_pieces(poly, ring_pts, origins, rings_idx)

    # FAST (and any polygon with holes).
    if poly.holes:
        verts, origins, combined, _bridges = _bridge_holes(poly)
    else:
        verts = list(poly.outer.vertices)
        origins = [(0, i) for i in range(len(verts))]
        combined = list(range(len(verts)))
    triangles = _ear_clip(combined, verts)
    rings_idx = _hertel_mehlhorn([list(t) for t in triangles], verts)
    return _build_pieces(poly, verts, origins, rings_idx)


def dual_graph(d: Decomposition) -> DualGraph:
    nodes = [p.id for p in d.pieces]
    edges = [(a, b, i) for i, (_, a, b) in enumerate(d.diagonals)]
    return DualGraph(nodes, edges)


def ears(g: DualGraph) -> list[int]:
    """Leaves of the dual tree (a single node is its own ear)."""
    if not g.is_tree():
        raise NotATreeError("dual graph is not a tree; use a spanning tree")
    if len(g.nodes) == 1:
        return [g.nodes[0]]
    degree = {n: 0 for n in g.nodes}
    for a, b, _ in g.edges:
        degree[a] += 1
        degree[b] += 1
    return [n for n in g.nodes if degree[n] == 1]


def leftmost_ear(g: DualGraph, d: Decomposition) -> int:
    """Ear with the smallest min-x vertex; ties by min-y, then piece id."""
    best = None
    for pid in ears(g):
        piece = d.piece_by_id(pid)
        x0, y0, _, _ = piece.ring.bbox()
        key = (x0, y0, pid)
        if best is None or key < best:
            best = key
    assert best is not None
    return best[2]


def merge(d: Decomposition, diagonal_id: int) -> Decomposition:
    """Remove one diagonal, replacing its two pieces by their union ring.

    Labels are preserved edge-for-edge; collinear junction vertices are
    collapsed when their two edges carry the same label (cannot occur for
    valid decompositions, kept as a defensive normalization)."""
    seg, pa, pb = d.diagonals[diagonal_id]
    A = d.piece_by_id(pa)
    B = d.piece_by_id(pb)

    def find_edge(piece: ConvexPiece) -> int:
        for i, lab in enumerate(piece.labels):
            if lab.kind == DIAGONAL and lab.index == diagonal_id:
                return i
        raise KeyError(f"diagonal {diagonal_id} not on piece {piece.id}")

    ia = find_edge(A)
    ib = find_edge(B)
    na, nb = len(A.ring), len(B.ring)
    verts: list[Point] = []
    labels: list[EdgeLabel] = []
    # Walk A from just after the diagonal all the way round to its start,
    # then B likewise.
    for t in range(na - 1):
        i = (ia + 1 + t) % na
        verts.append(A.ring[i])
        labels.append(A.labels[i])
    for t in range(nb - 1):
        i = (ib + 1 + t) % nb
        verts.append(B.ring[i])
        labels.append(B.labels[i])
    # Defensive collinear collapse (same-label junctions only).
    out_v: list[Point] = []
    out_l: list[EdgeLabel] = []
    m = len(verts)
    for i in range(m):
        prev_label = labels[i - 1] if not out_l else out_l[-1]
        if (
            orientation(verts[i - 1], verts[i], verts[(i + 1) % m]) == COLLINEAR
            and prev_label == labels[i]
        ):
            continue
        out_v.append(verts[i])
        out_l.append(labels[i])
    union = ConvexPiece(min(pa, pb), Ring(out_v), tuple(out_l))

    pieces = [p for p in d.pieces if p.id not in (pa, pb)] + [union]
    pieces.sort(key=lambda p: p.id)
    diagonals = []
    remap: dict[int, int] = {}
    for i, (s, x, y) in enumerate(d.diagonals):
        if i == diagonal_id:
            continue
        nx = union.id if x in (pa, pb) else x
        ny = union.id if y in (pa, pb) else y
        remap[i] = len(diagonals)
        diagonals.append((s, nx, ny))
    # Re-point diagonal labels at their new ids.
    new_pieces = []
    for p in pieces:
        labs = tuple(
            EdgeLabel(DIAGONAL, remap[l.index]) if l.kind == DIAGONAL else l
            for l in p.labels
        )
        new_pieces.append(ConvexPiece(p.id, p.ring, labs))
    return Decomposition(new_pieces, diagonals, d.source)


def merge_all(d: Decomposition) -> ConvexPiece:
    """Collapse every diagonal; the survivor should reproduce the source."""
    while d.diagonals:
        d = merge(d, 0)
    return d.pieces[0]


def pockets_of(r: Ring) -> list[Pocket]:
    """Maximal boundary chains strictly inside convex-hull bridges, each
    with its hull-bridge mouth.  Collinear hull vertices are kept so flat
    runs do not read as pockets."""
    work = r if r.is_ccw() else r.reversed()
    hull = set(convex_hull(list(work.vertices), keep_collinear=True))
    n = len(work)
    hull_pos = [i for i in range(n) if work[i] in hull]
    pockets: list[Pocket] = []
    for t in range(len(hull_pos)):
        i = hull_pos[t]
        j = hull_pos[(t + 1) % len(hull_pos)]
        length = (j - i) % n
        if length <= 1:
            continue
        chain = tuple(work[(i + s) % n] for s in range(length + 1))
        pockets.append(Pocket(chain, Segment(work[i], work[j])))
    return pockets


def pocket_against(region: Ring, mouth: Segment) -> Pocket:
    """Pocket formed by a region's boundary against one of its own edges
    (typically a diagonal about to be crossed).  The chain is the CCW walk
    of everything except the mouth edge."""
    work = region if region.is_ccw() else region.reversed()
    n = len(work)
    for i in range(n):
        if work[i] == mouth.a and work[(i + 1) % n] == mouth.b:
            a_idx, b_idx = i, (i + 1) % n
            break
        if work[i] == mouth.b and work[(i + 1) % n] == mouth.a:
            a_idx, b_idx = i, (i + 1) % n
            break
    else:
        raise ValueError("mouth is not an edge of the region")
    chain = tuple(work[(b_idx + s) % n] for s in range(n))
    return Pocket(chain, Segment(work[a_idx], work[b_idx]))
