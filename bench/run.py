"""Benchmark of kvisguard: one workload, timed end to end, or traced per layer.

    python3 bench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run also
writes its spans and counters to ``bench/out/trace-<workload>-<seed>.json``.
See bench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path


BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# Per-layer metric -> span name.  A ``_s`` metric is its spans' inclusive
# time; a ``_calls`` metric their number.
SPAN_SECONDS = {
    "cli.place_s": "cli.place",
    "cli.verify_s": "cli.verify",
    "svg.render_svg_s": "svg.render_svg",
    "fileio.s": "fileio",
    "decomposition.decompose_s": "decomposition.decompose",
    "decomposition.merge_s": "decomposition.merge",
    "sweep.sweep_s": "sweep.sweep",
    "visibility.strongly_k_sees_region_s": "visibility.strongly_k_sees_region",
    "visibility.strong_kvis_interval_on_edge_s": "visibility.strong_kvis_interval_on_edge",
    "visibility.region_boundary_samples_s": "visibility.region_boundary_samples",
    "placement.self_check_s": "placement.self_check",
    "verify.coverage_s": "verify.coverage",
    "verify.sample_points_s": "verify.sample_points",
    "verify.check_merge_crossing_bound_s": "verify.check_merge_crossing_bound",
    "verify.check_boundary_guarding_s": "verify.check_boundary_guarding",
    "verify.check_quad_pocket_s": "verify.check_quad_pocket",
}
SPAN_CALLS = {
    f"{span}_calls": span
    for span in ("decomposition.decompose", "decomposition.merge", "sweep.sweep",
                 "visibility.strongly_k_sees_region", "visibility.strong_kvis_interval_on_edge")
}
COUNTERS = ("visibility.crossing_count_calls", "visibility.crossing_count_h_calls",
            "visibility.degenerate_sightlines", "placement.guards", "verify.samples",
            "geometry.point_in_polygon_calls", "geometry.point_in_polygon_i_calls")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("corpus", "large", "lemmas"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    os.environ.pop("KVIS_THREADS", None)  # coverage stays sequential: one process

    src = ROOT / "src"
    if not (src / "kvisguard" / "__init__.py").is_file():
        print(f"error: no kvisguard package under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(BENCH)]
    import speed

    # The end-to-end times are reference seconds (speed.py).  The traced
    # run's spans are plain wall time, calibrations included.
    clock = speed.Clock()
    clock.start()
    # Set-up: importing the package, then building and writing the inputs.
    t_setup = time.perf_counter()
    import kvisguard
    import workloads

    if Path(kvisguard.__file__).resolve().parent != (src / "kvisguard").resolve():
        clock.stop()
        print(f"error: kvisguard imported from {kvisguard.__file__}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(kvisguard)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, work)
        setup_end = time.perf_counter()

        rounds: list[tuple[float, float]] = []  # (start, end) on perf_counter
        cases: list[list[tuple[float, float]]] = []
        attempted = failed = 0
        failures: list[str] = []
        while True:
            t0 = time.perf_counter()
            out = wl.round()
            rounds.append((t0, time.perf_counter()))
            if tracer:
                tracer.uninstall()
            wl.check(out)
            if tracer:
                tracer.install(kvisguard)
            cases.append(out.case_spans)
            attempted += len(out.ops)
            bad = [f"{op}: {why}" for op, why in out.ops if why]
            failed += len(bad)
            failures += bad
            # Start another round only if it is expected to end in time.
            round_s = [b - a for a, b in rounds]
            if sum(round_s) + statistics.median(round_s) > args.seconds:
                break
        if tracer:
            tracer.uninstall()
        missed = wl.controls()
    finally:
        clock.stop()
        shutil.rmtree(work, ignore_errors=True)

    for f in failures[:20]:
        print(f"FAILED {f}", file=sys.stderr)
    for m in missed:
        print(f"CONTROL MISSED {m}", file=sys.stderr)
    for note in wl.notes:
        print(f"NOTE {note}", file=sys.stderr)
    ref = clock.ref_seconds
    for a, b in rounds:
        print(f"ROUND {b - a:.3f} s wall, {clock.calibration_s(a, b):.3f} s of it calibrating, "
              f"{ref(a, b):.3f} reference s", file=sys.stderr)

    if tracer:
        metrics = per_layer(tracer, wl, len(round_s))
        trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
        with open(trace_path, "w", encoding="utf-8") as f:
            json.dump({
                "workload": args.workload, "seed": args.seed, "rounds": len(round_s),
                "traced_round_s": round_s, "traced_round_ref_s": [ref(*r) for r in rounds],
                "totals": tracer.totals(),
                "counters": dict(tracer.counters), "spans": tracer.spans,
            }, f)
    else:
        per_case = sorted(statistics.median(ref(*c) for c in runs) for runs in zip(*cases))
        quarter = len(per_case) // 4
        metrics = {
            "setup_s": (ref(t_setup, setup_end), "s"),
            "wall_s": (statistics.median(ref(*r) for r in rounds), "s"),
            # Mean of the middle half of the cases' times: blind to the
            # largest and smallest cases, like a median, but it averages
            # over several cases and so over more of the machine's speed
            # swings.
            "case_iqm_s": (statistics.fmean(per_case[quarter:len(per_case) - quarter]), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    print(json.dumps({
        "correct": not missed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def per_layer(tracer, wl, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per round; generators.generate_s is the set-up's,
    and placement.guards_over_kr1_bound the first round's output check's."""
    totals = tracer.totals()
    c = tracer.counters
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    m: dict[str, tuple[float, str]] = {}
    for metric, span in SPAN_SECONDS.items():
        m[metric] = (totals.get(span, zero)["total_s"] / rounds, "s")
    for metric, span in SPAN_CALLS.items():
        m[metric] = (totals.get(span, zero)["calls"] / rounds, "count")
    m["verify.kernel_s"] = (totals.get("verify.coverage", zero)["self_s"] / rounds, "s")
    for name in COUNTERS:
        m[name] = (c[name] / rounds, "count")
    drawn = c["verify.sampler_drawn"]
    m["verify.sampler_accept_ratio"] = (c["verify.sampler_accepted"] / drawn if drawn else 0.0, "ratio")
    m["generators.generate_s"] = (totals.get("generators.generate", zero)["total_s"], "s")
    m["placement.guards_over_kr1_bound"] = (getattr(wl, "guards_over_bound", 0), "count")
    return m


if __name__ == "__main__":
    sys.exit(main())
