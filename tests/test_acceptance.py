"""Acceptance suite: every exit criterion at its stated tolerance.

One test per criterion; the conftest hook prints one pass/fail line each.
"""

import math
import random
from fractions import Fraction

import pytest

from phaseatlas import (
    atlas,
    blowup,
    compact,
    dynamics,
    equilibria,
    portrait,
    sysio,
)
from phaseatlas.desing import (
    RationalField,
    cdk_poly_field,
    cdk_rational_field,
    desingularize,
    sprott_field,
)
from phaseatlas.polycore import BiPoly, NewtonWeights, X, Y, poly_gcd

from oracles import default_cdk_options, slope_limit_check

F = Fraction
W11 = NewtonWeights(1, 1)
W12 = NewtonWeights(1, 2)


# -- criterion 1: stationary-point table ------------------------------------------------


def test_criterion_1_stationary_point_table():
    cases = {
        (F(5, 2), F(1, 2)): 4,
        (F(1, 2), F(19, 10)): 4,
        (F(7, 10), F(1, 2)): 2,
        (F(19, 10), F(19, 10)): 2,
        (F(1), F(1)): "circle",
    }
    for (a, b), expected in cases.items():
        result = equilibria.cdk_stationary_points(a, b)
        f = cdk_poly_field(a, b)
        if expected == "circle":
            assert isinstance(result, equilibria.StationaryCircle)
            assert result.center == (0, F(1, 2)) and result.radius == F(1, 2)
            numeric = equilibria.find_stationary(f, (-2, 2, -2, 2), tol=1e-8)
            assert isinstance(numeric, equilibria.Continuum)
            continue
        assert len(result) == expected, (a, b)
        for p in result:
            if p.exact:
                assert f.P.eval(*p.location) == 0  # exact zero for rational points
                assert f.Q.eval(*p.location) == 0
            else:
                fx, fy = f.compiled()(*p.location_floats())
                assert abs(fx) < 1e-12 and abs(fy) < 1e-12
        numeric = equilibria.find_stationary(f, (-2, 2, -2, 2), tol=1e-10)
        got = sorted(p.location_floats() for p in numeric)
        want = sorted(p.location_floats() for p in result)
        assert len(got) == len(want)
        for (gx, gy), (wx, wy) in zip(got, want):
            assert math.hypot(gx - wx, gy - wy) < 1e-8


# -- criterion 2: blown-up system identities -----------------------------------------------


def test_criterion_2_blownup_system_identities():
    # generic weights (1,1) at exact rational parameters
    a, b = F(1, 3), F(1, 2)
    f = cdk_poly_field(a, b)
    c = blowup.blowup_directional(f, "+x", W11)
    assert c.px == X * (Y - a * X * (1 + Y**2))
    assert c.py == (b - 1) * (Y**2 + 1) + X * Y * (a - b) * (Y**2 + 1)
    c = blowup.blowup_directional(f, "+y", W11)
    assert c.px == (X**2 + 1) * (Y * X * (b - a) + X * (1 - b))
    assert c.py == Y * (b + (b - 1) * X**2 - b * Y * (X**2 + 1))
    c = blowup.blowup_directional(f, "-y", W11)
    assert c.px == (X**2 + 1) * (X * Y * (b - a) + (b - 1) * X)
    assert c.py == -Y * (b * Y * (1 + X**2) + b + (b - 1) * X**2)

    # weights (1,2) on the b = 1 line
    a = F(3, 10)
    f = cdk_poly_field(a, 1)
    c = blowup.blowup_directional(f, "+x", W12)
    assert c.px == X * (Y - a - a * X**2 * Y**2)
    assert c.py == Y * ((2 * a - 1) * (X**2 * Y**2 + 1) - Y)
    c = blowup.blowup_directional(f, "+y", W12)
    assert c.px == -X * ((2 * a - 1) * (Y**2 + X**2) - 1)
    assert c.py == -Y * (Y**2 + X**2 - 1)
    c = blowup.blowup_directional(f, "-y", W12)
    assert c.px == -X * ((2 * a - 1) * (Y**2 + X**2) + 1)
    assert c.py == -Y * (Y**2 + X**2 + 1)


# -- criterion 3: divisor Jacobians ---------------------------------------------------------


def test_criterion_3_divisor_jacobians():
    for b in (F(1, 2), F(19, 10)):
        chart = blowup.blowup_directional(cdk_poly_field(F(2, 5), b), "+y", W11)
        pts, _ = blowup.divisor_stationary_points(chart)
        assert [p.coordinate for p in pts] == [0]
        assert pts[0].jacobian == ((1 - b, 0), (0, b))
    for a in (F(3, 10), F(7, 10), F(5, 2)):
        chart = blowup.blowup_directional(cdk_poly_field(a, 1), "+x", W12)
        pts, _ = blowup.divisor_stationary_points(chart)
        by_coord = {p.coordinate: p for p in pts}
        assert by_coord[0].jacobian == ((-a, 0), (0, 2 * a - 1))
        assert by_coord[2 * a - 1].jacobian == ((a - 1, 0), (0, 1 - 2 * a))


# -- criterion 4: sector golden table --------------------------------------------------------

# (elliptic, hyperbolic, parabolic, index, homoclinic) per (a, b)
_SECTOR_TABLE = {}
for _a in (F(1, 5), F(1, 2), F(7, 10), F(5, 2)):
    _SECTOR_TABLE[(_a, F(1, 2))] = (2, 0, 0, 2, True)
    _SECTOR_TABLE[(_a, F(19, 10))] = (0, 2, 0, 0, False)
_SECTOR_TABLE[(F(1, 5), F(1))] = (2, 0, 4, 2, True)
_SECTOR_TABLE[(F(1, 2), F(1))] = (2, 0, 2, 2, True)
_SECTOR_TABLE[(F(7, 10), F(1))] = (2, 0, 4, 2, True)
_SECTOR_TABLE[(F(5, 2), F(1))] = (0, 2, 4, 0, False)


def test_criterion_4_sector_golden_table():
    for (a, b), (e, h, p, index, hom) in sorted(_SECTOR_TABLE.items()):
        dec = blowup.classify_nilpotent_origin(cdk_poly_field(a, b))
        assert dec.counts() == (e, h, p), (a, b)
        assert dec.index == index, (a, b)
        assert dec.homoclinic == hom, (a, b)
        if b < 1:
            assert all(s.kind == "elliptic" for s in dec.sectors)
        if b == 1:
            ell = [s for s in dec.sectors if s.kind == "elliptic"]
            assert all(s.halfplane == "upper" for s in ell)


def test_criterion_4_probe_agreement():
    others = lambda a, b: tuple(
        p.location_floats()
        for p in equilibria.cdk_stationary_points(a, b)
        if p.label != "s1"
    )
    for (a, b), (_, _, _, _, hom) in sorted(_SECTOR_TABLE.items()):
        # on b = 1 the homoclinic return has cubic axis contact (xdot ~ -a x^3),
        # so reaching radius/10 takes tau ~ 1/(2a (r/10)^2) ~ 1e5
        horizon = 2.5e5 if b == 1 else 1e4
        pm = blowup.sector_probe(
            cdk_poly_field(a, b), 0.05, 16, horizon=horizon, other_equilibria=others(a, b)
        )
        assert (pm.elliptic_arc_count() > 0) == hom, (a, b, pm.evidence)


# -- criterion 5: index checks -----------------------------------------------------------------


def test_criterion_5_index_checks():
    f_ell = cdk_poly_field(F(1, 2), F(1, 2))
    f_flow = cdk_poly_field(F(1, 2), F(19, 10))
    for r in (0.05, 0.1, 0.2):
        assert dynamics.index_on_circle(f_ell, (0, 0), r) == 2
        assert dynamics.index_on_circle(f_flow, (0, 0), r) == 0
    f = cdk_poly_field(F(5, 2), F(1, 2))
    pts = {p.label: p for p in equilibria.cdk_stationary_points(F(5, 2), F(1, 2))}
    assert dynamics.index_on_circle(f, pts["s3"].location_floats(), 0.1) == -1
    assert dynamics.index_on_circle(f, (0, 0), 2.0) == 1  # 2 + 1 - 1 - 1


# -- criterion 6: infinity -----------------------------------------------------------------------


def test_criterion_6_infinity():
    for a, b, x_kind, y_kind in (
        (F(1, 2), F(19, 10), "saddle", "repelling_node"),
        (F(5, 2), F(1, 2), "repelling_node", "saddle"),
    ):
        f = cdk_poly_field(a, b)
        charts = compact.PoincareCharts(f)
        Fu = BiPoly({(i, 0): c for i, c in enumerate(charts.divisor_polynomial("U1")) if c})
        Gu = BiPoly({(i, 0): c for i, c in enumerate(charts.divisor_polynomial("U2")) if c})
        assert Fu == (a - b) * X * (X**2 + 1)
        assert Gu == (b - a) * X * (X**2 + 1)
        pts = compact.infinite_stationary_points(f)
        kinds = {p.direction_label: p.kind.name for p in pts}
        assert kinds == {"+x": x_kind, "-x": x_kind, "+y": y_kind, "-y": y_kind}
    cont = compact.infinite_stationary_points(cdk_poly_field(F(1, 2), F(1, 2)))
    assert isinstance(cont, compact.InfinityContinuum)
    assert cont.tangential_eigenvalue == 0
    assert all(lam > 0 for _, lam in cont.sample_transverse)


# -- criterion 7: sixteen regions -----------------------------------------------------------------


def test_criterion_7_sixteen_regions():
    representatives = {
        (F(5, 2), F(1, 2)): "2a",
        (F(1, 2), F(19, 10)): "2b",
        (F(7, 10), F(19, 10)): "2c",
        (F(1), F(19, 10)): "3a",
        (F(1), F(1, 2)): "3b",
        (F(19, 10), F(19, 10)): "3c",
        (F(6, 5), F(19, 10)): "3d",
        (F(5, 2), F(19, 10)): "3e",
        (F(1, 2), F(1, 2)): "3f",
        (F(1, 5), F(1, 2)): "3g",
        (F(7, 10), F(1, 2)): "3h",
        (F(1, 5), F(1)): "3i",
        (F(1, 2), F(1)): "3j",
        (F(7, 10), F(1)): "3k",
        (F(5, 2), F(1)): "3l",
        (F(1), F(1)): "1",
    }
    boundary_points = {
        (F(1), F(1)): "1",
        (F(1, 2), F(1)): "3j",
        (F(1), F(1, 2)): "3b",
        (F(19, 10), F(19, 10)): "3c",
    }
    for (a, b), region in {**representatives, **boundary_points}.items():
        assert atlas.classify_region(a, b) == region, (a, b)
    # cross-validation must raise no internal inconsistency anywhere
    for (a, b), region in sorted(representatives.items()):
        summary = atlas.region_summary(a, b)
        assert summary.region == region
    res = atlas.scan_grid((0, 3), (0, 3), 200)
    assert res.distinct_regions() == set(atlas.REGION_IDS)


# -- criterion 8: refutation of the absorbing-circle claim -----------------------------------------


def test_criterion_8_absorbing_circle_refutation():
    a, b = F(5, 2), F(19, 10)
    r_squared = max(1 / a**2, (2 - b) / b**2)
    assert r_squared == F(4, 25)  # r = 2/5 = 0.4 exactly
    pts = equilibria.cdk_stationary_points(a, b)
    opts = default_cdk_options(pts, max_time=1e3, equilibrium_capture_radius=1e-6)
    res = dynamics.omega_limit(cdk_poly_field(a, b), (0.1, 0.9), opts)
    assert res.kind == "equilibrium"
    assert math.hypot(res.point[0] - 0.0, res.point[1] - 1.0) <= 1e-6
    assert math.hypot(*res.point) > float(F(2, 5))


# -- criterion 9: logarithmic fixture ---------------------------------------------------------------


def test_criterion_9_sprott_fixture():
    s = sprott_field()
    w, mw = s.fixed_point()
    assert abs(w - 0.56714) < 1e-5 and abs(mw + 0.56714) < 1e-5
    assert abs(w - 0.567143290409784) < 1e-6
    # y = ln|x| and x = -y hold at the fixed point
    assert abs(math.log(abs(w)) - mw) < 1e-12
    kind = equilibria.classify_linear(s.jacobian_original(w, mw))
    assert kind.name == "repelling_focus"
    assert abs(slope_limit_check(s, 0.0, 1e-8) - 1.0) < 1e-2


# -- criterion 10: property suites -------------------------------------------------------------------


def test_criterion_10_trajectory_equivalence():
    rng = random.Random(41)
    systems = [
        cdk_rational_field(F(1, 2), F(1, 2)),
        cdk_rational_field(F(5, 2), F(19, 10)),
        RationalField(BiPoly.const(1), X, BiPoly.const(1), Y),
        RationalField(X * Y + 1, X**2 + 1, Y - X, Y**2 + 1),
    ]
    checked = 0
    while checked < 200:
        f = systems[checked % len(systems)]
        g = desingularize(f)
        x = F(rng.randint(-9, 9), rng.randint(1, 7))
        y = F(rng.randint(-9, 9), rng.randint(1, 7))
        if f.q.eval(x, y) == 0 or f.s.eval(x, y) == 0:
            continue
        ex, ey = f.eval(x, y)
        ell = g.time_factor.eval(x, y)
        assert g.P.eval(x, y) == ell * ex and g.Q.eval(x, y) == ell * ey
        checked += 1


def test_criterion_10_minimal_generator():
    rng = random.Random(43)

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(1, 4)):
            terms[(rng.randint(0, 2), rng.randint(0, 2))] = F(
                rng.randint(-4, 4) or 2, rng.randint(1, 3)
            )
        return BiPoly(terms)

    produced = 0
    while produced < 100:
        p, q, r, s = (rand_poly() for _ in range(4))
        if p.is_zero() or q.is_zero() or r.is_zero() or s.is_zero():
            continue
        g = desingularize(RationalField(p, q, r, s))
        if g.P.is_zero() or g.Q.is_zero():
            continue
        assert poly_gcd(poly_gcd(g.P, g.Q), g.time_factor).is_constant()
        produced += 1


def test_criterion_10_circle_field_vanishes_exactly():
    f = cdk_poly_field(1, 1)
    for k in range(100):
        t = F(k - 50, 7)
        x = t / (1 + t * t)
        y = 1 / (1 + t * t)
        assert x * x + (y - F(1, 2)) ** 2 == F(1, 4)
        assert f.P.eval(x, y) == 0
        assert f.Q.eval(x, y) == 0


def test_criterion_10_forward_boundedness():
    rng = random.Random(4096)
    pairs = [
        (F(5, 2), F(1, 2)),
        (F(1, 2), F(19, 10)),
        (F(7, 10), F(1, 2)),
        (F(19, 10), F(19, 10)),
        (F(1), F(1)),
    ]
    for a, b in pairs:
        f = cdk_poly_field(a, b)
        opts = dynamics.IntegratorOptions(max_time=20.0, box=(-1e6, 1e6, -1e6, 1e6))
        for _ in range(50):
            z0 = (rng.uniform(-4, 4), rng.uniform(-4, 4))
            traj = dynamics.integrate(f, z0, opts)
            assert traj.termination.kind != "left_box", (a, b, z0)


def test_criterion_10_parser_roundtrip():
    from phaseatlas.polycore import format_poly

    rng = random.Random(47)

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(1, 4)):
            terms[(rng.randint(0, 2), rng.randint(0, 2))] = F(
                rng.randint(-5, 5) or 1, rng.randint(1, 4)
            )
        return BiPoly(terms)

    done = 0
    while done < 100:
        num, den = rand_poly(), rand_poly() + 1
        if den.is_zero():
            continue
        text = f"({format_poly(num)})/({format_poly(den)}) ; {format_poly(rand_poly())}"
        try:
            spec = sysio.parse_system(text)
        except Exception:
            continue
        assert sysio.parse_system(spec.canonical_text()) == spec
        done += 1
    assert done == 100


def test_criterion_10_svg_byte_identical():
    f = cdk_poly_field(F(1, 2), F(19, 10))
    first = portrait.render_portrait(f).to_svg()
    second = portrait.render_portrait(f).to_svg()
    assert first == second
