import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from phaseatlas.blowup import (
    DIRECTIONS,
    BlowupChart,
    DivisorContinuum,
    blow_down,
    blowup_directional,
    blowup_origin,
    classify_nilpotent_origin,
    divisor_stationary_points,
)
from phaseatlas.desing import PolyField, cdk_poly_field
from phaseatlas.errors import InternalInconsistencyError, PreconditionError, UnresolvedError
from phaseatlas.polycore import BiPoly, NewtonWeights, X, Y

from oracles import sector_probe, substitution_jacobian

F = Fraction
W11 = NewtonWeights(1, 1)
W12 = NewtonWeights(1, 2)


# -- displayed blown-up systems -----------------------------------------------------


def test_plus_x_chart_generic_b():
    a, b = F(1, 3), F(1, 2)
    c = blowup_directional(cdk_poly_field(a, b), "+x", W11)
    assert c.px == X * (Y - a * X * (1 + Y**2))
    # last term reads x̄ȳ(a-b)(ȳ²+1); see the ledger note on the source display
    assert c.py == (b - 1) * (Y**2 + 1) + X * Y * (a - b) * (Y**2 + 1)
    assert c.cancelled_coeff == 1 and c.cancelled_power == 1


def test_plus_x_chart_half_half():
    a = b = F(1, 2)
    c = blowup_directional(cdk_poly_field(a, b), "+x", W11)
    assert c.px == X * (Y - a * X * (1 + Y**2))
    assert c.py == (b - 1) * (Y**2 + 1)  # the (a-b) term vanishes here


def test_plus_y_chart_generic_b():
    a, b = F(1, 3), F(1, 2)
    c = blowup_directional(cdk_poly_field(a, b), "+y", W11)
    assert c.px == (X**2 + 1) * (Y * X * (b - a) + X * (1 - b))
    assert c.py == Y * (b + (b - 1) * X**2 - b * Y * (X**2 + 1))
    assert c.cancelled_coeff == 1 and c.cancelled_power == 1


def test_minus_y_chart_generic_b():
    a, b = F(1, 3), F(1, 2)
    c = blowup_directional(cdk_poly_field(a, b), "-y", W11)
    assert c.px == (X**2 + 1) * (X * Y * (b - a) + (b - 1) * X)
    assert c.py == -Y * (b * Y * (1 + X**2) + b + (b - 1) * X**2)


def test_b1_plus_x_chart():
    a = F(3, 10)
    c = blowup_directional(cdk_poly_field(a, 1), "+x", W12)
    assert c.px == X * (Y - a - a * X**2 * Y**2)
    assert c.py == Y * ((2 * a - 1) * (X**2 * Y**2 + 1) - Y)
    assert c.cancelled_coeff == 1 and c.cancelled_power == 2


def test_b1_plus_y_chart():
    a = F(3, 10)
    c = blowup_directional(cdk_poly_field(a, 1), "+y", W12)
    assert c.px == -X * ((2 * a - 1) * (Y**2 + X**2) - 1)
    assert c.py == -Y * (Y**2 + X**2 - 1)
    assert c.cancelled_coeff == F(1, 2) and c.cancelled_power == 2


def test_b1_minus_y_chart():
    a = F(3, 10)
    c = blowup_directional(cdk_poly_field(a, 1), "-y", W12)
    assert c.px == -X * ((2 * a - 1) * (Y**2 + X**2) + 1)
    assert c.py == -Y * (Y**2 + X**2 + 1)
    assert c.cancelled_coeff == F(1, 2) and c.cancelled_power == 2


def test_linear_node_chart():
    c = blowup_directional(PolyField(X, Y), "+x", W11)
    assert c.px == X
    assert c.py.is_zero()
    assert c.cancelled_coeff == 1 and c.cancelled_power == 0


def test_requires_stationary_origin():
    with pytest.raises(PreconditionError):
        blowup_directional(PolyField(X + 1, Y), "+x", W11)


# -- exact reconstruction (chain-rule oracle) -----------------------------------------


def _check_reconstruction(f, chart, rng, tries=12):
    alpha, beta = chart.weights
    k = chart.cancelled_power
    coeff = chart.cancelled_coeff
    done = 0
    while done < tries:
        u = F(rng.randint(-7, 7), rng.randint(1, 5))
        v = F(rng.randint(-7, 7), rng.randint(1, 5))
        radial = u if chart.radial_var == "x" else v
        if radial == 0:
            continue
        scale = coeff * radial**k
        cu = scale * chart.px.eval(u, v)
        cv = scale * chart.py.eval(u, v)
        J = substitution_jacobian(chart, u, v)
        push = (J[0][0] * cu + J[0][1] * cv, J[1][0] * cu + J[1][1] * cv)
        plane = blow_down(chart.direction, chart.weights, u, v)
        expected = (f.P.eval(*plane), f.Q.eval(*plane))
        assert push == expected
        done += 1


@pytest.mark.parametrize("direction", ["+x", "-x", "+y", "-y"])
def test_reconstruction_generic_weights(direction):
    rng = random.Random(hash(direction) % 1000)
    f = cdk_poly_field(F(2, 7), F(5, 3))
    chart = blowup_directional(f, direction, W11)
    _check_reconstruction(f, chart, rng)


@pytest.mark.parametrize("direction", ["+x", "-x", "+y", "-y"])
def test_reconstruction_b1_weights(direction):
    rng = random.Random(hash(direction) % 997)
    f = cdk_poly_field(F(3, 10), 1)
    chart = blowup_directional(f, direction, W12)
    _check_reconstruction(f, chart, rng)


def test_minus_x_redundant_for_odd_alpha():
    # the CDK symmetry x -> -x makes the -x chart literally coincide with +x
    for a, b, w in [(F(2, 7), F(5, 3), W11), (F(3, 10), 1, W12)]:
        f = cdk_poly_field(a, b)
        plus = blowup_directional(f, "+x", w)
        minus = blowup_directional(f, "-x", w)
        assert minus.px == plus.px and minus.py == plus.py


# -- divisor stationary points ----------------------------------------------------------


def test_divisor_points_plus_x_generic_none_real():
    pts, complex_count = divisor_stationary_points(
        blowup_directional(cdk_poly_field(F(1, 2), F(1, 2)), "+x", W11)
    )
    assert pts == []
    assert complex_count == 2  # ȳ²+1 has no real roots


def test_divisor_points_plus_y_generic():
    b = F(1, 2)
    pts, _ = divisor_stationary_points(
        blowup_directional(cdk_poly_field(F(1, 2), b), "+y", W11)
    )
    assert len(pts) == 1
    p = pts[0]
    assert p.coordinate == 0 and p.exact
    assert p.jacobian == ((1 - b, 0), (0, b))
    assert p.kind.name == "repelling_node"
    # saddle for b > 1
    pts, _ = divisor_stationary_points(
        blowup_directional(cdk_poly_field(F(1, 2), F(19, 10)), "+y", W11)
    )
    assert pts[0].kind.name == "saddle"


def test_divisor_points_minus_y_generic():
    b = F(1, 2)
    pts, _ = divisor_stationary_points(
        blowup_directional(cdk_poly_field(F(1, 2), b), "-y", W11)
    )
    assert pts[0].jacobian == ((b - 1, 0), (0, -b))
    assert pts[0].kind.name == "attracting_node"


def test_divisor_points_b1_plus_x():
    a = F(3, 10)
    pts, _ = divisor_stationary_points(
        blowup_directional(cdk_poly_field(a, 1), "+x", W12)
    )
    coords = sorted(p.coordinate for p in pts)
    assert coords == [2 * a - 1, 0]  # (0,0) and (0, 2a-1) with 2a-1 = -2/5
    by_coord = {p.coordinate: p for p in pts}
    assert by_coord[0].jacobian == ((-a, 0), (0, 2 * a - 1))
    assert by_coord[2 * a - 1].jacobian == ((a - 1, 0), (0, 1 - 2 * a))
    assert by_coord[0].kind.name == "attracting_node"
    assert by_coord[2 * a - 1].kind.name == "saddle"


def test_divisor_points_b1_plus_y_irrational_pair():
    # the +y divisor also vanishes at u = ±1/sqrt(2a - 1): (x, y) = (u ȳ, ȳ²) there is the curve
    # y = (2a - 1)x² of the ±x charts' points at 2a - 1, so the +y scan gives its u = 0 point alone
    a = F(7, 10)
    chart = blowup_directional(cdk_poly_field(a, 1), "+y", W12)
    pts, complex_count = divisor_stationary_points(chart)
    assert [p.coordinate for p in pts] == [0] and complex_count is None
    r = 1 / math.sqrt(2 * 0.7 - 1)
    assert [chart.px.eval(u, 0.0) for u in (-r, r)] == pytest.approx([0.0, 0.0], abs=1e-9)
    _, _, divisor = blowup_origin(cdk_poly_field(a, 1))
    assert all(2 * a - 1 in [p.coordinate for p in divisor[d][0]] for d in ("+x", "-x"))


def test_divisor_continuum_for_star_node():
    pts, _ = divisor_stationary_points(blowup_directional(PolyField(X, Y), "+x", W11))
    assert isinstance(pts[0], DivisorContinuum)
    assert pts[0].kind.name == "degenerate_curve"


def test_a_dicritical_origin_is_a_divisor_continuum():
    # the radial nilpotent field: every direction out of the origin is a trajectory
    g = X**2 + Y**2
    f = PolyField(X * g, Y * g)
    w, charts, divisor = blowup_origin(f)
    assert w == W11
    for d in DIRECTIONS:
        (point,), _ = divisor[d]
        assert isinstance(point, DivisorContinuum) and point.direction == d
    with pytest.raises(UnresolvedError, match="^continuum of stationary points on the divisor$"):
        classify_nilpotent_origin(f)


def test_a_divisor_that_is_not_invariant_is_an_internal_error():
    # divisor_power never builds such a chart: its radial component 1 + x*y is 1 on x = 0
    g = X**2 + Y**2
    chart = replace(blowup_directional(PolyField(X * g, Y * g), "+x", W11), px=1 + X * Y)
    with pytest.raises(InternalInconsistencyError, match="radial component of the \\+x chart does not vanish"):
        divisor_stationary_points(chart)


def test_b1_saddle_node_divisor_point():
    # a = 1/2 merges the two divisor points into a semi-hyperbolic saddle-node
    pts, _ = divisor_stationary_points(
        blowup_directional(cdk_poly_field(F(1, 2), 1), "+x", W12)
    )
    assert len(pts) == 1
    p = pts[0]
    assert p.coordinate == 0
    assert p.kind.name == "semi_hyperbolic" and p.kind.subkind == "saddle_node"


# -- sector assembly -----------------------------------------------------------------------


def _kinds(dec):
    return [s.kind for s in dec.sectors]


def test_sectors_b_below_one():
    dec = classify_nilpotent_origin(cdk_poly_field(F(7, 10), F(1, 2)))
    assert _kinds(dec) == ["elliptic", "elliptic"]
    assert dec.homoclinic is True
    assert dec.index == 2
    assert {s.halfplane for s in dec.sectors} == {"upper", "lower"} or all(
        s.kind == "elliptic" for s in dec.sectors
    )
    # the two sectors are the right and left half-planes, bounded by ±y
    labels = {(s.start, s.end) for s in dec.sectors}
    assert labels == {("+y", "-y"), ("-y", "+y")}


def test_sectors_nilpotent_saddle_float_divisor_roots():
    # y' = x^3: the +-x-chart divisor roots +-1/sqrt(2) are irrational, so the
    # divisor flow on the arcs is sampled at float chart points
    dec = classify_nilpotent_origin(PolyField(Y, X**3))
    assert _kinds(dec) == ["hyperbolic"] * 4
    assert dec.index == -1
    assert dec.homoclinic is False


def test_sectors_b_above_one():
    dec = classify_nilpotent_origin(cdk_poly_field(F(7, 10), F(19, 10)))
    assert _kinds(dec) == ["hyperbolic", "hyperbolic"]
    assert dec.homoclinic is False
    assert dec.index == 0


def test_sectors_b1_small_a():
    dec = classify_nilpotent_origin(cdk_poly_field(F(3, 10), 1))
    kinds = _kinds(dec)
    assert kinds.count("elliptic") == 2
    assert kinds.count("parabolic") == 4
    assert kinds.count("hyperbolic") == 0
    assert dec.index == 2 and dec.homoclinic
    for s in dec.sectors:
        if s.kind == "elliptic":
            assert s.halfplane == "upper"
        else:
            assert s.halfplane == "lower"
    assert dec.weights == (1, 2)


def test_sectors_b1_a_half():
    dec = classify_nilpotent_origin(cdk_poly_field(F(1, 2), 1))
    kinds = _kinds(dec)
    assert kinds.count("elliptic") == 2 and kinds.count("parabolic") == 2
    assert dec.index == 2 and dec.homoclinic
    uppers = [s for s in dec.sectors if s.kind == "elliptic"]
    assert all(s.halfplane == "upper" for s in uppers)


def test_sectors_b1_mid_a():
    dec = classify_nilpotent_origin(cdk_poly_field(F(7, 10), 1))
    kinds = _kinds(dec)
    assert kinds.count("elliptic") == 2 and kinds.count("parabolic") == 4
    assert dec.index == 2 and dec.homoclinic
    ell = [s for s in dec.sectors if s.kind == "elliptic"]
    assert all(s.halfplane == "upper" for s in ell)
    # the two attracting sectors flanking the +x/-x axes sit in the upper half
    upper = [s for s in dec.sectors if s.halfplane == "upper"]
    assert len(upper) == 4


def test_sectors_b1_large_a():
    dec = classify_nilpotent_origin(cdk_poly_field(F(5, 2), 1))
    kinds = _kinds(dec)
    assert kinds.count("elliptic") == 0
    assert kinds.count("hyperbolic") == 2
    assert kinds.count("parabolic") == 4
    assert dec.index == 0 and not dec.homoclinic
    hyp = [s for s in dec.sectors if s.kind == "hyperbolic"]
    assert all(s.halfplane == "upper" for s in hyp)
    rep = [s for s in dec.sectors if s.stability == "repelling"]
    assert len(rep) == 2 and all(s.halfplane == "upper" for s in rep)


def test_sectors_monodromic_origin():
    # y' = -x^3: no characteristic direction, so no sectors (a center or focus)
    dec = classify_nilpotent_origin(PolyField(Y, -(X**3)))
    assert dec.sectors == ()
    assert dec.index == 1
    assert dec.homoclinic is False


def test_sectors_rejects_hyperbolic_origin():
    with pytest.raises(PreconditionError):
        classify_nilpotent_origin(PolyField(X, -Y))


def test_sectors_unresolved_on_circle_case():
    with pytest.raises(UnresolvedError):
        classify_nilpotent_origin(cdk_poly_field(1, 1))


def test_bendixson_count_consistency():
    from phaseatlas import dynamics

    for a, b in [(F(1, 2), F(1, 2)), (F(1, 2), F(19, 10)), (F(3, 10), 1), (F(5, 2), 1)]:
        dec = classify_nilpotent_origin(cdk_poly_field(a, b))
        e, h, _ = dec.counts()
        assert dec.index == 1 + (e - h) // 2
        numeric = dynamics.index_on_circle(cdk_poly_field(a, b), (0, 0), 0.05, n=4096)
        assert numeric == dec.index


def test_boundary_seeds_are_distinct_beside_a_float_tie():
    # at (1/2 + 10^-400, 1) each x-chart has points at u = 0 and 2a - 1 = 2e-400, 0.0 as floats:
    # +x and +x:u both seeded at (0.05, 0.0), -x:u and -x both at (-0.05, 0.0)
    dec = classify_nilpotent_origin(cdk_poly_field(F(1, 2) + F(1, 10**400), 1))
    cycle = [p.label() for p in dec.boundary_directions]
    assert cycle == ["+x", f"+x:{F(2, 10**400)}", "+y", f"-x:{F(2, 10**400)}", "-x", "-y"]
    seeds = dec.boundary_seeds(0.05)
    assert [label for label, _ in seeds] == ["+x", "+y", f"-x:{F(2, 10**400)}", "-y"]
    assert len({seed for _, seed in seeds}) == 4
    assert [seed for _, seed in seeds][0::2] == [(0.05, 0.0), (-0.05, 0.0)]


# -- empirical probe --------------------------------------------------------------------


def test_probe_two_elliptic_arcs_for_b_below_one():
    f = cdk_poly_field(F(7, 10), F(1, 2))
    pm = sector_probe(f, 0.05, 64, other_equilibria=((0.0, 1.0),))
    assert pm.elliptic_arc_count() == 2
    # the separations happen at the y-axis starts (indices 16 and 48 of 64)
    assert pm.evidence[16] != "elliptic"
    assert pm.evidence[48] != "elliptic"
    assert not pm.gaps


def test_probe_no_elliptic_arcs_for_b_above_one():
    f = cdk_poly_field(F(7, 10), F(19, 10))
    others = ((0.0, 1.0), (0.7133693286, 0.75), (-0.7133693286, 0.75))
    pm = sector_probe(f, 0.05, 32, other_equilibria=others)
    assert pm.elliptic_arc_count() == 0


def test_probe_linear_saddle_four_hyperbolic_arcs():
    f = PolyField(X, -Y)
    pm = sector_probe(f, 0.05, 32)
    hyp = [a for a in pm.arcs if a.evidence == "hyperbolic"]
    assert len(hyp) == 4
