"""Guard placement pipelines: the (k+2)-guarding walk over the dual tree,
diagonal-guard relocation, and the 2-guarding construction for polygons
with holes.

Placement follows the decomposition's dual tree from the leftmost ear.
Each piece receives two guards: one inside a feasible region aimed at its
parent piece across the shared diagonal (pocket sweep first, then sampled
host-edge positions tested by exact strong visibility), one aimed at its
first child or at the best-scoring free real edge.  Every guard is nudged
along its host edge away from the root.  Undercovered pieces are then
topped up within the max(kC, k+2) budget, and a sampling self-check
certifies the result; an uncertified placement is returned with
diagnostics, never silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .geometry import Point, PolygonWithHoles, Segment
from .decomposition import (
    DIAGONAL,
    FAST,
    MINIMAL,
    REAL,
    ConvexPiece,
    Decomposition,
    DualGraph,
    NotATreeError,
    decompose,
    dual_graph,
    leftmost_ear,
    merge,
    pocket_against,
)
from .sweep import sweep
from .verify import SamplePlan, coverage
from .visibility import (
    VisibilityQueryScene,
    default_epsilon,
    strong_kvis_interval_on_edge,
    strongly_k_sees_region,
)

ROLE_BASE = "base"
ROLE_HOLE_EDGE = "hole_edge"
ROLE_RELOCATED = "relocated"


class RelocationFailedError(Exception):
    """No certified relocation target exists for a diagonal guard."""


@dataclass(frozen=True)
class Guard:
    position: Point
    host_kind: str  # REAL or DIAGONAL
    host_index: int  # scene edge index, or diagonal id while provisional
    t: Fraction
    k: int
    role: str = ROLE_BASE


@dataclass
class GuardSet:
    guards: tuple[Guard, ...]
    k: int
    target_m: int
    piece_count: int | None = None


@dataclass
class TraceStep:
    piece: int
    guards: list[int]
    sweep_status: str | None = None
    relocations: list[int] = field(default_factory=list)
    merged_diagonal: Segment | None = None


@dataclass
class PlacementTrace:
    steps: list[TraceStep]
    certified: bool = False
    diagnostics: dict = field(default_factory=dict)
    feasible_marks: list[tuple[int, Fraction, Fraction]] = field(default_factory=list)
    # The decomposition the pipeline guarded (for holed inputs, the outer
    # ring's), so a rendering shows the pieces the guards were placed for.
    decomposition: Decomposition | None = None

    def relocation_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for s in self.steps:
            for g in s.relocations:
                counts[g] = counts.get(g, 0) + 1
        return counts


def _extra_params():
    """1/3, 2/3, 1/4, 3/4, 1/5, 2/5, ... — distinct parameters that never
    collide with the midpoint."""
    den = 3
    seen = {Fraction(1, 2)}
    while True:
        for num in range(1, den):
            f = Fraction(num, den)
            if f not in seen:
                seen.add(f)
                yield f
        den += 1


def _convex_placements(piece: ConvexPiece, m: int):
    """(piece edge position, t) pairs on real edges: real-edge midpoints
    first, then extra distinct parameters on the longest real edges."""
    if m < 1:
        raise ValueError("need at least one guard")
    real_pos = piece.real_edge_indices()
    if not real_pos:
        raise ValueError(f"piece {piece.id} has no real edge")
    placements: list[tuple[int, Fraction]] = [(pos, Fraction(1, 2)) for pos in real_pos[:m]]
    extras = m - len(placements)
    if extras > 0:
        by_len = sorted(
            real_pos, key=lambda pos: (-piece.edge_segment(pos).length_sq(), pos)
        )
        gens = {pos: _extra_params() for pos in by_len}
        i = 0
        while extras > 0:
            pos = by_len[i % len(by_len)]
            placements.append((pos, next(gens[pos])))
            extras -= 1
            i += 1
    return placements


def guard_convex_piece(piece: ConvexPiece, m: int, k: int = 2) -> list[Guard]:
    """m guards covering one convex piece: midpoints of distinct real edges,
    then extra guards at distinct parameters (1/3, 2/3, 1/4, ...) on the
    longest real edges.  Host parameters are in piece-edge coordinates; the
    pipeline reparameterizes onto scene edges."""
    out = []
    for pos, t in _convex_placements(piece, m):
        out.append(
            Guard(
                position=piece.edge_segment(pos).point_at(t),
                host_kind=REAL,
                host_index=piece.labels[pos].index,
                t=t,
                k=k,
            )
        )
    return out


def _piece_param_to_scene(piece: ConvexPiece, pos: int, t: Fraction, scene) -> tuple[int, Fraction]:
    """Convert a parameter on a piece-ring edge to the scene edge's own
    parameterization (scene edges have a fixed direction)."""
    lab = piece.labels[pos]
    seg = piece.edge_segment(pos)
    scene_seg = scene.obstacle_edges[lab.index]
    if seg.a == scene_seg.a and seg.b == scene_seg.b:
        return lab.index, t
    if seg.a == scene_seg.b and seg.b == scene_seg.a:
        return lab.index, 1 - t
    raise ValueError("piece edge does not match its scene edge")


def _scene_param_point(scene, edge_index: int, t: Fraction) -> Point:
    return scene.obstacle_edges[edge_index].point_at(t)


@dataclass
class _Pipeline:
    poly: PolygonWithHoles
    k: int
    mode: str
    epsilon: Fraction
    seed: int
    _guard_origin: dict = field(default_factory=dict, init=False)

    def __post_init__(self):
        c = self.poly.outer.centroid()
        self._root_centroid = (float(c.x), float(c.y))

    def run(self):
        diagnostics: dict = {"warnings": []}
        decomp = self._decompose(diagnostics)
        scene = VisibilityQueryScene(self.poly)
        trace = PlacementTrace(steps=[], diagnostics=diagnostics, decomposition=decomp)
        if len(decomp.pieces) == 1:
            guards = self._single_piece(decomp, scene, trace)
        else:
            guards = self._walk(decomp, scene, trace)
        guards = self._certify_and_repair(decomp, scene, trace, guards)
        gs = GuardSet(
            guards=tuple(guards),
            k=self.k,
            target_m=self.k + 2,
            piece_count=len(decomp.pieces),
        )
        return gs, trace

    # -- setup ------------------------------------------------------------

    def _decompose(self, diagnostics) -> Decomposition:
        mode = self.mode
        if self.poly.holes and mode == MINIMAL:
            diagnostics["warnings"].append(
                "minimal mode supports simple polygons only; using fast mode"
            )
            mode = FAST
        return decompose(self.poly, mode)

    # -- single convex piece ----------------------------------------------

    def _single_piece(self, decomp, scene, trace):
        piece = decomp.pieces[0]
        m = self.k + 2
        guards = []
        for pos, t in _convex_placements(piece, m):
            guards.append(self._make_guard(piece, pos, t, scene))
        trace.steps.append(TraceStep(piece=piece.id, guards=list(range(m))))
        return guards

    # -- dual-tree walk -----------------------------------------------------

    def _walk(self, decomp, scene, trace):
        g = dual_graph(decomp)
        try:
            root = leftmost_ear(g, decomp)
            tree_edges = g.edges
        except NotATreeError:
            tree_edges = _spanning_tree(g)
            tree = DualGraph(g.nodes, tree_edges)
            root = leftmost_ear(tree, decomp)
        adjacency: dict[int, list[tuple[int, int]]] = {n: [] for n in g.nodes}
        for a, b, diag in tree_edges:
            adjacency[a].append((b, diag))
            adjacency[b].append((a, diag))

        pieces = {p.id: p for p in decomp.pieces}

        def child_angle(parent_id, item):
            child_id, diag = item
            seg = decomp.diagonals[diag][0]
            mid = seg.midpoint()
            c = pieces[parent_id].ring.centroid()
            return (
                math.atan2(float(mid.y - c.y), float(mid.x - c.x)),
                diag,
            )

        order: list[int] = []
        parent_diag: dict[int, int] = {}
        parent_of: dict[int, int] = {}
        children: dict[int, list[int]] = {n: [] for n in g.nodes}
        stack = [root]
        seen = {root}
        while stack:
            v = stack.pop()
            order.append(v)
            kids = [(c, diag) for c, diag in adjacency[v] if c not in seen]
            kids.sort(key=lambda it: child_angle(v, it))
            children[v] = [c for c, _ in kids]
            for c, diag in reversed(kids):
                seen.add(c)
                parent_diag[c] = diag
                parent_of[c] = v
                stack.append(c)

        guards: list[Guard] = []
        used_params: dict[tuple[str, int], set[Fraction]] = {}
        cur = decomp
        region_id = root

        for step_idx, pid in enumerate(order):
            piece = pieces[pid]
            step = TraceStep(piece=pid, guards=[])
            sweep_status = None
            target_parent = pieces[parent_of[pid]].ring if pid != root else None
            first_child = children[pid][0] if children[pid] else None
            second_child = children[pid][1] if len(children[pid]) > 1 else None
            if pid == root:
                targets = [
                    pieces[first_child].ring if first_child is not None else None,
                    pieces[second_child].ring if second_child is not None else None,
                ]
            else:
                targets = [
                    target_parent,
                    pieces[first_child].ring if first_child is not None else None,
                ]
            for slot, target in enumerate(targets):
                placed = None
                if target is not None and slot == 0 and pid != root:
                    placed, sweep_status = self._place_toward_parent(
                        piece, pid, cur, region_id, parent_diag[pid], decomp,
                        target, scene, used_params, trace
                    )
                if placed is None and target is not None:
                    placed = self._place_by_strong_vis(piece, target, scene, used_params)
                if placed is None:
                    placed = self._place_free(
                        piece, pid, parent_of.get(pid), children[pid], pieces,
                        scene, used_params, decomp
                    )
                if placed is None:
                    placed = self._place_on_diagonal(piece, pid, children[pid], parent_diag, decomp, used_params)
                if placed is None:
                    continue  # piece cannot host more guards
                guards.append(placed)
                self._guard_origin[len(guards) - 1] = pid
                step.guards.append(len(guards) - 1)
            step.sweep_status = sweep_status
            # Merge this piece into the built region (root starts it).
            if pid != root:
                seg = decomp.diagonals[parent_diag[pid]][0]
                cur_diag_id = _find_diag(cur, seg)
                guards, relocated = self._relocate_diagonal_guards(
                    guards, parent_diag[pid], pid, pieces, decomp, scene, used_params, trace
                )
                step.relocations = relocated
                cur = merge(cur, cur_diag_id)
                region_id = min(region_id, pid)
                step.merged_diagonal = seg
            trace.steps.append(step)
        return guards

    # -- placement strategies ----------------------------------------------

    def _place_toward_parent(
        self, piece, pid, cur, region_id, diag_id, decomp, parent_ring,
        scene, used_params, trace
    ):
        seg = decomp.diagonals[diag_id][0]
        region_ring = cur.piece_by_id(region_id).ring
        try:
            pocket = pocket_against(region_ring, seg)
        except ValueError:
            return None, None
        for pos in self._host_positions(piece, prefer_near=seg):
            edge_seg = piece.edge_segment(pos)
            x = None
            if edge_seg.a in (seg.a, seg.b):
                x = edge_seg.a
            elif edge_seg.b in (seg.a, seg.b):
                x = edge_seg.b
            if x is None:
                continue
            try:
                res = sweep(pocket, edge_seg, x, self.k)
            except ValueError:
                continue
            iv = res.feasible
            t_piece = (iv.t_lo + iv.t_hi) / 2
            guard = self._try_certified(
                piece, pos, t_piece, parent_ring, scene, used_params
            )
            if guard is not None:
                scene_idx, lo = _piece_param_to_scene(piece, pos, iv.t_lo, scene)
                _, hi = _piece_param_to_scene(piece, pos, iv.t_hi, scene)
                lo, hi = sorted((lo, hi))
                trace.feasible_marks.append((scene_idx, lo, hi))
                return guard, res.status
        return None, None

    def _place_by_strong_vis(self, piece, target_ring, scene, used_params):
        for pos in self._host_positions(piece):
            t_piece = self._strong_vis_param(piece, pos, target_ring, scene)
            if t_piece is None:
                continue
            guard = self._try_certified(
                piece, pos, t_piece, target_ring, scene, used_params
            )
            if guard is not None:
                return guard
        return None

    def _place_free(
        self, piece, pid, parent_id, kids, pieces, scene, used_params, decomp
    ):
        """Free real-edge guard, scored by how many neighbour pieces it
        certifiably sees."""
        neighbours = []
        if parent_id is not None and parent_id != pid:
            neighbours.append(pieces[parent_id].ring)
        neighbours.extend(pieces[c].ring for c in kids)
        best = None
        for pos in self._host_positions(piece):
            t = self._fresh_param(piece, pos, scene, used_params)
            if t is None:
                continue
            position = piece.edge_segment(pos).point_at(t)
            score = 0
            for ring_ in neighbours:
                if strongly_k_sees_region(position, ring_, self.k, scene):
                    score += 1
            if best is None or score > best[0]:
                best = (score, pos, t)
        if best is None:
            return None
        _, pos, t = best
        return self._commit(piece, pos, t, scene, used_params)

    def _place_on_diagonal(self, piece, pid, kids, parent_diag, decomp, used_params):
        """Last resort: park the guard on a child diagonal; it is relocated
        when that child merges."""
        for pos, lab in enumerate(piece.labels):
            if lab.kind != DIAGONAL:
                continue
            # Prefer a diagonal toward a child (it will still be walked).
            seg, pa, pb = decomp.diagonals[lab.index]
            other = pb if pa == pid else pa
            if kids and other not in kids:
                continue
            key = (DIAGONAL, lab.index)
            used = used_params.setdefault(key, set())
            t = Fraction(1, 2)
            gen = _extra_params()
            while t in used:
                t = next(gen)
            used.add(t)
            diag_seg = decomp.diagonals[lab.index][0]
            piece_seg = piece.edge_segment(pos)
            t_diag = t if piece_seg.a == diag_seg.a else 1 - t
            return Guard(
                position=diag_seg.point_at(t_diag),
                host_kind=DIAGONAL,
                host_index=lab.index,
                t=t_diag,
                k=self.k,
                role=ROLE_BASE,
            )
        return None

    def _host_positions(self, piece, prefer_near: Segment | None = None):
        """Real-edge positions of the piece, optionally ordering edges that
        touch ``prefer_near``'s endpoints first."""
        real = piece.real_edge_indices()
        if prefer_near is None:
            return real
        touching = []
        rest = []
        for pos in real:
            seg = piece.edge_segment(pos)
            if (
                seg.a in (prefer_near.a, prefer_near.b)
                or seg.b in (prefer_near.a, prefer_near.b)
            ):
                touching.append(pos)
            else:
                rest.append(pos)
        return touching + rest

    def _try_certified(self, piece, pos, t_piece, target_ring, scene, used_params):
        t_piece = _clamp_param(t_piece)
        position = piece.edge_segment(pos).point_at(t_piece)
        if not strongly_k_sees_region(position, target_ring, self.k, scene):
            return None
        return self._commit(piece, pos, t_piece, scene, used_params)

    def _commit(self, piece, pos, t_piece, scene, used_params) -> Guard:
        scene_idx, t_scene = _piece_param_to_scene(piece, pos, t_piece, scene)
        t_scene = self._shift_away_from_root(piece, pos, t_scene, scene)
        key = (REAL, scene_idx)
        used = used_params.setdefault(key, set())
        if t_scene in used:
            step = Fraction(1, 997)
            bumped = _clamp_param(t_scene + step)
            gen = _extra_params()
            while bumped in used:
                nxt = _clamp_param(bumped + step)
                if nxt == bumped:  # pinned at the clamp; fall back to the
                    nxt = next(gen)  # distinct-parameter sequence
                bumped = nxt
            t_scene = bumped
        used.add(t_scene)
        return Guard(
            position=_scene_param_point(scene, scene_idx, t_scene),
            host_kind=REAL,
            host_index=scene_idx,
            t=t_scene,
            k=self.k,
            role=ROLE_BASE,
        )

    def _shift_away_from_root(self, piece, pos, t_scene, scene) -> Fraction:
        """Epsilon-shift along the host edge away from the root piece
        (proxied by the root centroid); ties shift toward the edge's second
        vertex."""
        scene_idx, _ = _piece_param_to_scene(piece, pos, Fraction(1, 2), scene)
        seg = scene.obstacle_edges[scene_idx]
        root_c = self._root_centroid
        da = (float(seg.a.x - root_c[0])) ** 2 + (float(seg.a.y - root_c[1])) ** 2
        db = (float(seg.b.x - root_c[0])) ** 2 + (float(seg.b.y - root_c[1])) ** 2
        length = math.sqrt(float(seg.length_sq()))
        delta = Fraction(float(self.epsilon) / length).limit_denominator(1 << 24) if length else Fraction(0)
        delta = min(delta, Fraction(1, 64))
        shifted = t_scene + delta if db >= da else t_scene - delta
        return _clamp_param(shifted)

    # -- relocation ---------------------------------------------------------

    def _relocate_diagonal_guards(
        self, guards, diag_id, merging_pid, pieces, decomp, scene, used_params, trace
    ):
        relocated = []
        out = list(guards)
        for gi, g in enumerate(out):
            if g.host_kind != DIAGONAL or g.host_index != diag_id:
                continue
            origin_pid = self._guard_origin.get(gi)
            try:
                new_guard = relocate_guard(
                    g, decomp, origin_pid, scene,
                    adjacent_piece=pieces[merging_pid],
                    used_params=used_params,
                )
            except RelocationFailedError as exc:
                trace.diagnostics.setdefault("relocation_failures", []).append(str(exc))
                continue
            out[gi] = new_guard
            relocated.append(gi)
        return out, relocated

    # -- certification / repair ---------------------------------------------

    def _certify_and_repair(self, decomp, scene, trace, guards):
        k = self.k
        need = k + 2
        cap = max(k * len(decomp.pieces), k + 2)
        pieces = decomp.pieces

        def certified_for(guard, piece) -> bool:
            host_piece = _hosting_piece(guard, pieces)
            if host_piece is not None and host_piece.id == piece.id:
                return True
            return strongly_k_sees_region(guard.position, piece.ring, k, scene)

        matrix = {
            (gi, p.id): certified_for(g, p)
            for gi, g in enumerate(guards)
            for p in pieces
        }

        def assured(p):
            return sum(1 for gi in range(len(guards)) if matrix[(gi, p.id)])

        used_params: dict = {}
        for g in guards:
            used_params.setdefault((g.host_kind, g.host_index), set()).add(g.t)

        progress = True
        while progress:
            progress = False
            for p in sorted(pieces, key=lambda q: q.id):
                while assured(p) < need and len(guards) < cap:
                    newg = self._repair_guard(p, pieces, scene, used_params, decomp)
                    if newg is None:
                        break
                    gi = len(guards)
                    guards.append(newg)
                    for q in pieces:
                        matrix[(gi, q.id)] = certified_for(newg, q)
                    trace.steps.append(
                        TraceStep(piece=p.id, guards=[gi])
                    )
                    progress = True

        # Final sampling self-check against the whole polygon.  It adds no
        # guard: a violating sample can only lie in a piece that repair
        # above already left short.
        plan = SamplePlan(
            grid_density=24, random_count=400, near_feature_count=2, seed=self.seed
        )
        gs = GuardSet(tuple(guards), k, need, piece_count=len(pieces))
        report = coverage(self.poly, gs, plan, piece_count=len(pieces))
        stranded = any(g.host_kind == DIAGONAL for g in guards)
        failed_reloc = bool(trace.diagnostics.get("relocation_failures"))
        trace.certified = (
            report.min_coverage >= need
            and not report.violations
            and not stranded
            and not failed_reloc
        )
        trace.diagnostics["self_check"] = _self_check_summary(report, len(guards), guard_cap=cap)
        return guards

    def _repair_guard(self, piece, pieces, scene, used_params, decomp):
        for pos in self._host_positions(piece):
            t = self._fresh_param(piece, pos, scene, used_params)
            if t is not None:
                return self._commit(piece, pos, t, scene, used_params)
        # No real edges: place on a neighbour's real edge inside the strong
        # visibility region of this piece.
        for other in pieces:
            if other.id == piece.id:
                continue
            for pos in other.real_edge_indices():
                t_piece = self._strong_vis_param(other, pos, piece.ring, scene)
                if t_piece is not None:
                    return self._commit(other, pos, t_piece, scene, used_params)
        return None

    def _strong_vis_param(self, piece, pos, target_ring, scene) -> Fraction | None:
        """Piece parameter of the midpoint of the widest interval on the
        real edge at ``pos`` whose positions strongly k-see ``target_ring``;
        None when there is none."""
        scene_idx, _ = _piece_param_to_scene(piece, pos, Fraction(1, 2), scene)
        ivs = strong_kvis_interval_on_edge(scene_idx, target_ring, self.k, scene)
        if not ivs:
            return None
        t_scene = max(ivs, key=lambda iv: iv.t_hi - iv.t_lo).midpoint()
        seg = piece.edge_segment(pos)
        scene_seg = scene.obstacle_edges[scene_idx]
        return t_scene if seg.a == scene_seg.a else 1 - t_scene

    def _fresh_param(self, piece, pos, scene, used_params) -> Fraction | None:
        scene_idx, _ = _piece_param_to_scene(piece, pos, Fraction(1, 2), scene)
        used = used_params.setdefault((REAL, scene_idx), set())
        candidates = [Fraction(1, 2)]
        gen = _extra_params()
        candidates += [next(gen) for _ in range(30)]
        for t_scene in candidates:
            if t_scene not in used and all(
                abs(t_scene - u) > Fraction(1, 1 << 22) for u in used
            ):
                seg = piece.edge_segment(pos)
                scene_seg = scene.obstacle_edges[scene_idx]
                return t_scene if seg.a == scene_seg.a else 1 - t_scene
        return None

    def _make_guard(self, piece, pos, t_piece, scene) -> Guard:
        scene_idx, t_scene = _piece_param_to_scene(piece, pos, t_piece, scene)
        t_scene = self._shift_away_from_root(piece, pos, t_scene, scene)
        return Guard(
            position=_scene_param_point(scene, scene_idx, t_scene),
            host_kind=REAL,
            host_index=scene_idx,
            t=t_scene,
            k=self.k,
        )


def _clamp_param(t: Fraction) -> Fraction:
    lo, hi = Fraction(1, 128), Fraction(127, 128)
    return min(max(t, lo), hi)


def _find_diag(d: Decomposition, seg: Segment) -> int:
    want = {seg.a, seg.b}
    for i, (s, _, _) in enumerate(d.diagonals):
        if {s.a, s.b} == want:
            return i
    raise KeyError(f"diagonal {seg} not present")


def _spanning_tree(g: DualGraph) -> list[tuple[int, int, int]]:
    seen = {g.nodes[0]}
    out = []
    frontier = [g.nodes[0]]
    edges = sorted(g.edges, key=lambda e: e[2])
    while frontier:
        v = frontier.pop(0)
        for a, b, diag in edges:
            if a == v and b not in seen:
                seen.add(b)
                out.append((a, b, diag))
                frontier.append(b)
            elif b == v and a not in seen:
                seen.add(a)
                out.append((a, b, diag))
                frontier.append(a)
    return out


def _hosting_piece(guard: Guard, pieces) -> ConvexPiece | None:
    if guard.host_kind != REAL:
        return None
    for p in pieces:
        for lab in p.labels:
            if lab.kind == REAL and lab.index == guard.host_index:
                return p
    return None


def relocate_guard(
    g: Guard,
    d: Decomposition,
    previous_piece_id: int | None,
    scene: VisibilityQueryScene,
    adjacent_piece: ConvexPiece,
    used_params: dict | None = None,
) -> Guard:
    """Move a diagonal guard onto a real edge of the adjacent piece, inside
    the strong k-visibility region of the piece it was guarding.  Falls back
    to a real edge sharing a vertex with the diagonal (interior-piece case),
    then to the adjacent piece's sweep interval.  Raises when no certified
    position exists."""
    if g.host_kind == REAL:
        return g
    prev_ring = None
    if previous_piece_id is not None:
        prev_ring = d.piece_by_id(previous_piece_id).ring
    diag_seg = d.diagonals[g.host_index][0]

    def attempt(piece: ConvexPiece) -> Guard | None:
        for pos in piece.real_edge_indices():
            seg = piece.edge_segment(pos)
            scene_seg_idx = piece.labels[pos].index
            target = prev_ring if prev_ring is not None else adjacent_piece.ring
            ivs = strong_kvis_interval_on_edge(scene_seg_idx, target, g.k, scene)
            if not ivs:
                continue
            widest = max(ivs, key=lambda iv: iv.t_hi - iv.t_lo)
            t_scene = _clamp_param(widest.midpoint())
            if used_params is not None:
                used = used_params.setdefault((REAL, scene_seg_idx), set())
                gen = _extra_params()
                while t_scene in used:
                    t_scene = _clamp_param(widest.t_lo + next(gen) * (widest.t_hi - widest.t_lo))
                used.add(t_scene)
            return Guard(
                position=_scene_param_point(scene, scene_seg_idx, t_scene),
                host_kind=REAL,
                host_index=scene_seg_idx,
                t=t_scene,
                k=g.k,
                role=ROLE_RELOCATED,
            )
        return None

    out = attempt(adjacent_piece)
    if out is not None:
        return out
    # Interior-piece case: a piece with a real edge sharing a vertex with
    # the removed diagonal.
    for piece in d.pieces:
        if piece.id == adjacent_piece.id:
            continue
        touches = any(v in (diag_seg.a, diag_seg.b) for v in piece.ring.vertices)
        if not touches or not piece.real_edge_indices():
            continue
        out = attempt(piece)
        if out is not None:
            return out
    raise RelocationFailedError(
        f"no certified relocation for guard on diagonal {g.host_index}"
    )


def place_guards(
    poly: PolygonWithHoles,
    k: int,
    mode: str = MINIMAL,
    epsilon: Fraction | None = None,
    seed: int = 0,
):
    """The (k+2)-guarding pipeline.  Returns (GuardSet, PlacementTrace);
    an undercovered result carries trace.certified == False with
    diagnostics rather than raising."""
    if k < 2:
        raise ValueError("k must be at least 2")
    warnings = []
    if k % 2 == 1:
        warnings.append(f"odd k={k} floored to {k - 1}")
        k = k - 1
    scene_eps = epsilon
    if scene_eps is None:
        scene_eps = default_epsilon(VisibilityQueryScene(poly))
    pipeline = _Pipeline(
        poly=poly,
        k=k,
        mode=mode,
        epsilon=Fraction(scene_eps),
        seed=seed,
    )
    gs, trace = pipeline.run()
    trace.diagnostics.setdefault("warnings", []).extend(warnings)
    return gs, trace


def guard_with_holes(
    poly: PolygonWithHoles,
    k: int,
    mode: str = FAST,
    epsilon: Fraction | None = None,
    seed: int = 0,
):
    """2-guarding for polygons with holes: the (k+2) pipeline on the outer
    ring plus one guard at the midpoint of every hole edge, certified
    against the full scene."""
    if not poly.holes:
        raise ValueError("guard_with_holes requires at least one hole")
    outer_only = PolygonWithHoles(poly.outer, (), validate=False)
    # place_guards checks k and floors an odd k, with its warning.
    base_set, base_trace = place_guards(
        outer_only, k, mode=mode, epsilon=epsilon, seed=seed
    )
    k = base_set.k
    # Outer edges come first in the full scene, so base guard indices match.
    scene = VisibilityQueryScene(poly)
    n_outer = len(poly.outer)
    guards = list(base_set.guards)
    offset = n_outer
    for hole in poly.holes:
        for j in range(len(hole)):
            idx = offset + j
            seg = scene.obstacle_edges[idx]
            guards.append(
                Guard(
                    position=seg.point_at(Fraction(1, 2)),
                    host_kind=REAL,
                    host_index=idx,
                    t=Fraction(1, 2),
                    k=k,
                    role=ROLE_HOLE_EDGE,
                )
            )
        offset += len(hole)
    # The kC guard bound is a main-pipeline notion; the holes construction
    # deliberately adds one guard per hole edge, so no piece count is
    # attached and the bound check stays out of coverage reports.
    gs = GuardSet(tuple(guards), k=k, target_m=2, piece_count=None)
    plan = SamplePlan(grid_density=24, random_count=400, near_feature_count=2, seed=seed)
    report = coverage(poly, gs, plan)
    trace = PlacementTrace(
        steps=base_trace.steps, certified=report.ok(), decomposition=base_trace.decomposition
    )
    trace.diagnostics = dict(base_trace.diagnostics)
    trace.diagnostics["self_check"] = _self_check_summary(report, len(guards))
    return gs, trace


def _self_check_summary(report, guard_count: int, **extra) -> dict:
    return {
        "min_coverage": report.min_coverage,
        "samples": len(report.per_sample),
        "violations": [(float(p.x), float(p.y), c) for p, c in report.violations[:16]],
        "guard_count": guard_count,
        **extra,
    }
