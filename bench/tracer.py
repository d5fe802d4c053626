"""Per-layer tracing from outside the package.

``Tracer.install`` replaces each traced function at the place where its
caller looks it up (``module.name``), so the program itself is unchanged.
A span wrapper records ``[name, start, end, parent]`` in memory; a counter
wrapper only bumps a count, for the hot predicates where a span would cost
more than the call.  ``uninstall`` puts every original back.
"""

from __future__ import annotations

import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def span(self, name, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def count(self, name, fn, error=None, error_name=None):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[name] += 1
            if error is None:
                return fn(*args, **kwargs)
            try:
                return fn(*args, **kwargs)
            except error:
                counters[error_name] += 1
                raise

        return wrapper

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr: str, make):
        """Replace ``owner.attr`` by ``make(original)``."""
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def install(self, kv):
        """Wrap the layers of the package ``kv`` (a namespace holding its
        modules: cli, decomposition, generators, placement, sweep, verify,
        visibility)."""
        c = self.counters
        span = lambda name, **kw: (lambda fn: self.span(name, fn, **kw))  # noqa: E731
        count = lambda name, **kw: (lambda fn: self.count(name, fn, **kw))  # noqa: E731
        degenerate = dict(
            error=kv.visibility.DegenerateSightlineError,
            error_name="visibility.degenerate_sightlines",
        )

        def add_guards(result):
            c["placement.guards"] += len(result[0].guards)

        def add_samples(result):
            c["verify.samples"] += len(result)

        def drawn(fn):
            def wrapper(*args, **kwargs):
                p = fn(*args, **kwargs)
                c["verify.sampler_drawn"] += 1
                if p is not None:
                    c["verify.sampler_accepted"] += 1
                return p

            return wrapper

        cli, vis, ver, dec, pla = kv.cli, kv.visibility, kv.verify, kv.decomposition, kv.placement
        self.patch(cli, "_cmd_place", span("cli.place"))
        self.patch(cli, "_cmd_verify", span("cli.verify"))
        for name in ("_read", "_write", "parse_polygon", "parse_guards", "write_guards", "write_report"):
            self.patch(cli, name, span("fileio"))
        self.patch(cli, "render_svg", span("svg.render_svg"))
        for name in ("place_guards", "guard_with_holes"):
            self.patch(cli, name, span("placement.place", on_result=add_guards))
        for owner in (cli, pla, dec):
            self.patch(owner, "decompose", span("decomposition.decompose"))
        for owner in (pla, dec):
            self.patch(owner, "merge", span("decomposition.merge"))
        self.patch(pla, "sweep", span("sweep.sweep"))
        for owner in (pla, vis):
            self.patch(owner, "strongly_k_sees_region", span("visibility.strongly_k_sees_region"))
        self.patch(pla, "strong_kvis_interval_on_edge", span("visibility.strong_kvis_interval_on_edge"))
        self.patch(vis, "region_boundary_samples", span("visibility.region_boundary_samples"))
        for owner in (vis, ver):
            self.patch(owner, "crossing_count_h", count("visibility.crossing_count_h_calls", **degenerate))
            self.patch(owner, "crossing_count", count("visibility.crossing_count_calls"))
        self.patch(pla, "coverage", span("placement.self_check"))
        self.patch(cli, "coverage", span("verify.coverage"))
        self.patch(ver, "sample_points", span("verify.sample_points", on_result=add_samples))
        self.patch(ver._LatticeSampler, "draw", drawn)
        for name in ("check_merge_crossing_bound", "check_boundary_guarding", "check_quad_pocket"):
            self.patch(ver, name, span(f"verify.{name}"))
        for owner in (dec, ver):
            self.patch(owner, "point_in_polygon", count("geometry.point_in_polygon_calls"))
        self.patch(ver, "point_in_polygon_i", count("geometry.point_in_polygon_i_calls"))
        self.patch(kv.generators, "generate", span("generators.generate"))

    # -- summaries ---------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds and self seconds,
        where self time is the span minus its child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            t = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["total_s"] += end - start
            t["self_s"] += end - start - child[i]
        return out
