import math
from fractions import Fraction

import pytest

from phaseatlas.atlas import scan_grid
from phaseatlas.blowup import classify_nilpotent_origin
from phaseatlas.desing import PolyField, cdk_poly_field
from phaseatlas.equilibria import ClassificationKind, cdk_stationary_points
from phaseatlas.polycore import BiPoly, X, Y
from phaseatlas.portrait import (
    GLYPH_MAP,
    PortraitStyle,
    glyph_for,
    render_portrait,
    render_region_map,
    trace_separatrices,
)

F = Fraction


def test_glyph_map_total_over_kinds():
    from phaseatlas.equilibria import KIND_NAMES, SEMI_HYPERBOLIC_SUBKINDS

    style = PortraitStyle()
    for name in KIND_NAMES:
        assert glyph_for(style, ClassificationKind(name)) is not None
        if name == "semi_hyperbolic":
            for sub in SEMI_HYPERBOLIC_SUBKINDS:
                assert glyph_for(style, ClassificationKind(name, subkind=sub))


def test_linear_saddle_four_separatrices():
    f = PolyField(X, -Y)
    pts = [
        __import__("phaseatlas.equilibria", fromlist=["_make_point"])._make_point(
            f, (F(0), F(0)), None
        )
    ]
    seps = trace_separatrices(f, pts)
    assert len(seps) == 4
    stable = [s for s in seps if s.stable]
    assert len(stable) == 2
    # stable rays hug the y-axis, unstable rays the x-axis
    for s in stable:
        x, y = s.trajectory.last_point
        assert abs(x) < 1e-3 or abs(y) > abs(x)


def test_saddle_separatrices_separate_basins():
    # stable manifolds of s3/s4 exist for a > 1 > b
    a, b = F(5, 2), F(1, 2)
    f = cdk_poly_field(a, b)
    pts = cdk_stationary_points(a, b)
    seps = trace_separatrices(f, pts)
    assert any(s.stable and s.source == "s3" for s in seps)
    assert any(s.stable and s.source == "s4" for s in seps)


def test_render_deterministic_bytes():
    f = cdk_poly_field(F(5, 2), F(1, 2))
    svg1 = render_portrait(f).to_svg()
    svg2 = render_portrait(f).to_svg()
    assert svg1 == svg2
    assert svg1.startswith("<?xml")
    assert "<svg" in svg1 and svg1.rstrip().endswith("</svg>")


def test_render_circle_case_draws_continua():
    f = cdk_poly_field(1, 1)
    doc = render_portrait(f)
    svg = doc.to_svg()
    # finite stationary circle in green plus the cyan infinity circle
    assert "#1f9d36" in svg
    assert "#00bcd4" in svg


def test_render_elliptic_case_has_black_x_at_origin():
    f = cdk_poly_field(F(1, 2), F(1, 2))
    svg = render_portrait(f).to_svg()
    assert 'stroke="#000000"' in svg  # the nilpotent-origin x glyph


def test_all_coordinates_inside_viewport():
    f = cdk_poly_field(F(1, 2), F(19, 10))
    doc = render_portrait(f)
    for el in doc.elements:
        if el[0] == "path":
            for x, y in el[1]:
                assert math.hypot(x, y) <= 1.0 + 1e-6
        elif el[0] == "marker":
            x, y = el[2]
            assert math.hypot(x, y) <= 1.0 + 1e-6


def test_empty_field_renders_disc_and_warning():
    doc = render_portrait(PolyField(BiPoly.zero(), BiPoly.zero()))
    svg = doc.to_svg()
    assert "degenerate field" in svg
    assert "<circle" in svg


def test_region_map_renders_all_colors():
    res = scan_grid((0, 3), (0, 3), 8)
    svg = render_region_map(res)
    assert svg.count("<rect") == 64
    assert render_region_map(res) == svg


def test_glyphs_match_stationary_point_kinds():
    style = PortraitStyle()
    for a, b in [(F(5, 2), F(1, 2)), (F(1, 2), F(19, 10)), (F(1), F(19, 10))]:
        pts = cdk_stationary_points(a, b)
        expected = sorted(glyph_for(style, p.kind) for p in pts)
        doc = render_portrait(cdk_poly_field(a, b))
        markers = [el for el in doc.elements if el[0] == "marker"]
        finite_markers = sorted((el[1], el[4]) for el in markers[: len(pts)])
        assert finite_markers == expected, (a, b)


def test_slope_points_at_infinity_sit_at_their_directions():
    # saddle with invariant directions (1, 2) and (1, -2): one equator point
    # in each quadrant, all four owned by the y-direction charts
    doc = render_portrait(PolyField(X + 2 * Y, 8 * X + Y))
    markers = [el[2] for el in doc.elements if el[0] == "marker"]
    rim = [(x, y) for x, y in markers if abs(math.hypot(x, y) - 1) < 1e-9]
    got = sorted(math.degrees(math.atan2(y, x)) % 360 for x, y in rim)
    directions = ((1, 2), (-1, 2), (-1, -2), (1, -2))
    want = sorted(math.degrees(math.atan2(dy, dx)) % 360 for dx, dy in directions)
    assert got == pytest.approx(want, abs=1e-9)
