import json
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest

from kvisguard.cli import main
from kvisguard.fileio import (
    ParseError,
    parse_guards,
    parse_polygon,
    parse_report,
    write_guards,
    write_polygon,
)
from kvisguard.generators import GenSpec, generate
from kvisguard.geometry import InvalidPolygonError, pt
from kvisguard.placement import place_guards
from kvisguard.svg import render_svg


def test_polygon_round_trip(acceptance_corpus):
    for name, poly in acceptance_corpus:
        text = write_polygon(poly, name=name)
        back, warnings = parse_polygon(text)
        assert back == poly, name
        assert warnings == []


def test_parse_polygon_unit_square():
    poly, warnings = parse_polygon('{"outer": [[0,0],[1,0],[1,1],[0,1]]}')
    assert len(poly.outer) == 4
    assert poly.holes == ()
    assert warnings == []


def test_parse_polygon_rational_and_decimal():
    poly, _ = parse_polygon('{"outer": [[0,0],["7/2",0],["7/2","0.5"],[0,0.5]]}')
    assert poly.outer.vertices[2] == pt(Fraction(7, 2), Fraction(1, 2))
    # decimals parse exactly, not through binary floats
    assert poly.outer.vertices[3].y == Fraction(1, 2)


def test_parse_polygon_auto_reverses_clockwise():
    poly, warnings = parse_polygon('{"outer": [[0,0],[0,1],[1,1],[1,0]]}')
    assert poly.outer.is_ccw()
    assert any("reversed" in w for w in warnings)


def test_parse_polygon_touching_hole_rejected():
    doc = json.dumps(
        {
            "outer": [[0, 0], [10, 0], [10, 10], [0, 10]],
            "holes": [[[0, 4], [4, 6], [4, 4]]],
        }
    )
    with pytest.raises(InvalidPolygonError) as exc:
        parse_polygon(doc)
    assert "hole 0" in str(exc.value)


def test_parse_polygon_errors_positioned():
    with pytest.raises(ParseError) as exc:
        parse_polygon('{"outer": [[0,0],[1,0],\n  [1,]]}')
    assert exc.value.line == 2


def test_guards_round_trip(l_hexagon):
    gs, _ = place_guards(l_hexagon, 2)
    text = write_guards(gs)
    back = parse_guards(text)
    assert back.k == gs.k and back.target_m == gs.target_m
    assert back.piece_count == gs.piece_count
    assert back.guards == gs.guards  # exact rationals survive


def test_guard_file_malformed():
    with pytest.raises(ParseError):
        parse_guards('{"k": 2}')
    with pytest.raises(ParseError):
        parse_guards('{"k": 2, "target_m": 4, "guards": [{"position": [1]}]}')


def test_svg_valid_and_marker_count(l_hexagon):
    from kvisguard.decomposition import MINIMAL, decompose

    gs, trace = place_guards(l_hexagon, 2)
    d = decompose(l_hexagon, MINIMAL)
    svg = render_svg(l_hexagon, decomposition=d, guards=gs, trace=trace)
    root = ET.fromstring(svg)  # valid XML
    circles = [e for e in root.iter() if e.tag.endswith("circle") and e.get("class") == "guard"]
    assert len(circles) == len(gs.guards)
    diagonals = [e for e in root.iter() if e.get("class") == "diagonal"]
    assert len(diagonals) == len(d.diagonals)


def run_cli(args):
    return main(args)


def test_cli_gen_place_verify_round(tmp_path):
    poly_p = tmp_path / "comb.json"
    guards_p = tmp_path / "guards.json"
    svg_p = tmp_path / "out.svg"
    report_p = tmp_path / "report.json"
    assert run_cli(["gen", "--family", "comb", "--n", "12", "--seed", "1", "--out", str(poly_p)]) == 0
    assert run_cli([
        "place", "--input", str(poly_p), "--k", "2",
        "--out", str(guards_p), "--svg", str(svg_p),
        "--trace", str(tmp_path / "trace.json"),
    ]) == 0
    gs = parse_guards(guards_p.read_text())
    root = ET.fromstring(svg_p.read_text())
    circles = [e for e in root.iter() if e.tag.endswith("circle") and e.get("class") == "guard"]
    assert len(circles) == len(gs.guards)
    assert run_cli([
        "verify", "--input", str(poly_p), "--guards", str(guards_p),
        "--k", "2", "--m", "4", "--samples", "800", "--grid", "16",
        "--report", str(report_p),
    ]) == 0
    rep = parse_report(report_p.read_text())
    assert rep["min_coverage"] >= 4
    assert rep["guard_bound_ok"] is True


def test_cli_verify_coverage_failure_exit_3(tmp_path, unit_square):
    poly_p = tmp_path / "square.json"
    guards_p = tmp_path / "guards.json"
    poly_p.write_text(write_polygon(unit_square))
    gs, _ = place_guards(unit_square, 2)
    guards_p.write_text(write_guards(gs))
    # m = 5 cannot be met by 4 guards
    code = run_cli([
        "verify", "--input", str(poly_p), "--guards", str(guards_p),
        "--k", "2", "--m", "5", "--samples", "100", "--grid", "8",
    ])
    assert code == 3


def test_cli_verify_k_override_noted(tmp_path, capsys, unit_square):
    poly_p = tmp_path / "square.json"
    guards_p = tmp_path / "guards.json"
    poly_p.write_text(write_polygon(unit_square))
    gs, _ = place_guards(unit_square, 2)
    guards_p.write_text(write_guards(gs))
    args = ["verify", "--input", str(poly_p), "--guards", str(guards_p),
            "--samples", "50", "--grid", "4"]
    assert run_cli(args + ["--k", "2", "--m", "4"]) == 0
    assert "overrides" not in capsys.readouterr().err
    assert run_cli(args + ["--k", "4", "--m", "4"]) == 0
    assert "note: --k 4 overrides the guard file's k=2" in capsys.readouterr().err
    # The exit code still follows the coverage at the overriding k.
    assert run_cli(args + ["--k", "4", "--m", "5"]) == 3


def test_cli_place_parse_error_exit_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"outer": [[0,0],[1,0]')
    assert run_cli(["place", "--input", str(bad), "--k", "2"]) == 1
    missing = tmp_path / "nope.json"
    assert run_cli(["place", "--input", str(missing), "--k", "2"]) == 1


def test_cli_gen_invalid_spec_exit_1(tmp_path):
    assert run_cli(["gen", "--family", "comb", "--n", "2", "--seed", "1"]) == 1


def test_cli_place_with_holes_uses_two_guarding(tmp_path, square_with_hole):
    poly_p = tmp_path / "holes.json"
    guards_p = tmp_path / "guards.json"
    poly_p.write_text(write_polygon(square_with_hole))
    assert run_cli([
        "place", "--input", str(poly_p), "--k", "2", "--out", str(guards_p)
    ]) == 0
    gs = parse_guards(guards_p.read_text())
    assert gs.target_m == 2
    assert any(g.role == "hole_edge" for g in gs.guards)
    assert run_cli([
        "verify", "--input", str(poly_p), "--guards", str(guards_p),
        "--k", "2", "--m", "2", "--samples", "600", "--grid", "16",
    ]) == 0


def test_cli_place_uncertified_exit_2(tmp_path, monkeypatch, l_hexagon):
    # Exit-code contract: an uncertified placement (trace.certified False)
    # still writes its guards but exits 2.
    import kvisguard.cli as cli_mod
    from kvisguard.placement import PlacementTrace

    real_place = cli_mod.place_guards

    def uncertified(poly, k, **kw):
        gs, trace = real_place(poly, k, **kw)
        broken = PlacementTrace(steps=trace.steps, certified=False)
        broken.diagnostics = {"self_check": {"min_coverage": 0, "samples": 1}}
        return gs, broken

    monkeypatch.setattr(cli_mod, "place_guards", uncertified)
    poly_p = tmp_path / "l.json"
    guards_p = tmp_path / "g.json"
    poly_p.write_text(write_polygon(l_hexagon))
    rc = run_cli(["place", "--input", str(poly_p), "--k", "2", "--out", str(guards_p)])
    assert rc == 2
    assert guards_p.exists()  # diagnostics returned, never silent


def test_verifier_parallel_matches_sequential(monkeypatch, l_hexagon):
    from kvisguard.verify import SamplePlan, coverage

    gs, _ = place_guards(l_hexagon, 2)
    plan = SamplePlan(grid_density=20, random_count=300, near_feature_count=2, seed=6)
    seq = coverage(l_hexagon, gs, plan)
    monkeypatch.setenv("KVIS_THREADS", "2")
    par = coverage(l_hexagon, gs, plan)
    assert seq.histogram == par.histogram
    assert seq.min_coverage == par.min_coverage
    assert sorted(seq.per_sample) == sorted(par.per_sample)


def test_cli_place_deterministic_outputs(tmp_path):
    poly_p = tmp_path / "stair.json"
    assert run_cli(["gen", "--family", "staircase", "--n", "11", "--seed", "1", "--out", str(poly_p)]) == 0
    outs = []
    for i in (1, 2):
        g = tmp_path / f"g{i}.json"
        s = tmp_path / f"s{i}.svg"
        assert run_cli([
            "place", "--input", str(poly_p), "--k", "2",
            "--out", str(g), "--svg", str(s), "--seed", "7",
        ]) == 0
        outs.append((g.read_bytes(), s.read_bytes()))
    assert outs[0] == outs[1]


def test_cli_place_svg_draws_the_guarded_decomposition(tmp_path, monkeypatch, l_with_star_hole):
    # A holed input is guarded on its outer ring's decomposition; the SVG
    # draws that one, and place decomposes once in all.
    import kvisguard.cli as cli_mod
    import kvisguard.placement as placement_mod
    from kvisguard.decomposition import MINIMAL, decompose
    from kvisguard.geometry import PolygonWithHoles
    from kvisguard.svg import _f

    calls = []

    def counted(poly, mode):
        calls.append(mode)
        return decompose(poly, mode)

    monkeypatch.setattr(placement_mod, "decompose", counted)
    monkeypatch.setattr(cli_mod, "decompose", counted)
    poly_p = tmp_path / "holed.json"
    svg_p = tmp_path / "out.svg"
    poly_p.write_text(write_polygon(l_with_star_hole))
    assert run_cli([
        "place", "--input", str(poly_p), "--k", "2",
        "--out", str(tmp_path / "g.json"), "--svg", str(svg_p),
    ]) == 0
    assert calls == [MINIMAL]
    outer = decompose(PolygonWithHoles(l_with_star_hole.outer, (), validate=False), MINIMAL)
    root = ET.fromstring(svg_p.read_text())
    drawn = [
        ((e.get("x1"), e.get("y1")), (e.get("x2"), e.get("y2")))
        for e in root.iter() if e.get("class") == "diagonal"
    ]
    assert drawn == [
        ((_f(s.a.x), _f(s.a.y)), (_f(s.b.x), _f(s.b.y))) for s, _, _ in outer.diagonals
    ]
