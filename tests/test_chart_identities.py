"""Property tests: every blow-up and Poincaré chart against its defining formula.

The oracles evaluate the plane field F = (P, Q) directly at the mapped
point; none of them exchanges x and y, so they check the y-direction charts
independently of how those charts are built.  The blow-up of a nilpotent
origin, whose minus charts are mostly antipodes of the plus charts, is also
checked against the four charts built one by one, and the half-plane of each
of its sectors against the float angles of the divisor points that bound it.
"""

import math
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from phaseatlas.blowup import DIRECTIONS, assemble_sectors, blow_down, blowup_directional, blowup_origin
from phaseatlas.compact import compactify_chart
from phaseatlas.desing import PolyField, cdk_poly_field
from phaseatlas.errors import UnresolvedError
from phaseatlas.polycore import BiPoly, NewtonWeights

from oracles import arc_middle_axis, float_arc_middle, four_chart_blowup_origin

_coeff = st.fractions(min_value=-4, max_value=4, max_denominator=3)
_exponent = st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda e: 0 < sum(e) <= 4)
# a polynomial without constant term, so the origin is stationary
_poly = st.dictionaries(_exponent, _coeff, max_size=5).map(BiPoly)
_fields = st.tuples(_poly, _poly).map(lambda pq: PolyField(*pq))
_weights = (
    st.tuples(st.integers(1, 4), st.integers(1, 4))
    .filter(lambda w: math.gcd(*w) == 1)
    .map(lambda w: NewtonWeights(*w))
)
_value = st.fractions(min_value=-3, max_value=3, max_denominator=5)
_nonzero = _value.filter(bool)


def _assert_pushes_forward(f, chart, points):
    # dφ · (c · v^k · (px, py)) = F ∘ φ, v the radial variable of the chart
    for u, v in points:
        radial = u if chart.radial_var == "x" else v
        scale = chart.cancelled_coeff * radial**chart.cancelled_power
        cu, cv = scale * chart.px.eval(u, v), scale * chart.py.eval(u, v)
        J = chart.substitution_jacobian(u, v)
        push = (J[0][0] * cu + J[0][1] * cv, J[1][0] * cu + J[1][1] * cv)
        assert push == f.eval(*blow_down(chart.direction, chart.weights, u, v)), (chart.direction, u, v)


_points = st.lists(st.tuples(_nonzero, _nonzero), min_size=1, max_size=3)


@settings(derandomize=True, database=None, deadline=None)
@given(_fields, _weights, _points)
def test_blowup_chart_pushes_forward_to_the_plane_field(f, w, points):
    for direction in DIRECTIONS:
        chart = blowup_directional(f, direction, w)
        assert (chart.direction, chart.weights) == (direction, w)
        _assert_pushes_forward(f, chart, points)


_NEWTON_WEIGHTS = [(1, 1), (1, 2), (2, 1), (2, 3), (3, 2), (1, 3), (3, 4), (4, 3)]
_small_exponents = [(i, j) for i in range(5) for j in range(5)]


@st.composite
def _nilpotent_fields(draw):
    """A field with a nilpotent origin, quasi-homogeneous of drawn weights (α, β) plus higher terms.

    A term x^i y^j of P sits at α(i−1) + βj on the Newton polygon, one of Q
    at αi + β(j−1).  P ∋ y^(mα−1) and Q ∋ x^(mβ−1) end the lowest edge on
    both axes, so it is the only one; its further terms have random, often
    irrational, divisor roots.  A radial principal part (α·x·h, β·y·h)
    instead puts a continuum of stationary points on the divisor.
    """
    alpha, beta = draw(st.sampled_from(_NEWTON_WEIGHTS))
    coeff = _coeff.filter(bool)
    if draw(st.booleans()):
        level = alpha * beta  # h ∋ x^β, y^α
        h = {(i, j): draw(coeff) for i, j in _small_exponents if alpha * i + beta * j == level}
        P = {(i + 1, j): alpha * c for (i, j), c in h.items()}
        Q = {(i, j + 1): beta * c for (i, j), c in h.items()}
    else:
        m = max(-(-2 // alpha), -(-3 // beta))  # Q's anchor is not linear
        level = m * alpha * beta - alpha - beta
        P = {e: draw(_coeff) for e in _small_exponents if alpha * (e[0] - 1) + beta * e[1] == level}
        Q = {e: draw(_coeff) for e in _small_exponents if alpha * e[0] + beta * (e[1] - 1) == level}
        P[0, m * alpha - 1], Q[m * beta - 1, 0] = draw(coeff), draw(coeff)
    higher = st.sampled_from(_small_exponents)
    for part, shift in ((P, (1, 0)), (Q, (0, 1))):
        above = higher.filter(lambda e, s=shift: alpha * (e[0] - s[0]) + beta * (e[1] - s[1]) > level)
        part |= draw(st.dictionaries(above, coeff, max_size=2))
    return PolyField(BiPoly(P), BiPoly(Q))


def _blowup_record(build, f):
    """repr of (weights, charts, divisor), with each chart's term order and float table."""
    w, charts, divisor = build(f)
    terms = [(list(p.terms), p.float_terms()) for c in charts.values() for p in (c.px, c.py)]
    return repr((w, charts, divisor)), terms


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(_nilpotent_fields())
@example(cdk_poly_field(Fraction(7, 10), Fraction(1, 2)))  # weights (1, 1): both minus charts derived
@example(cdk_poly_field(Fraction(3, 10), 1))  # weights (1, 2): -y built
@example(PolyField(BiPoly({(0, 1): 1}), BiPoly({(2, 0): 1})))  # weights (2, 3): irrational roots, -x built
def test_blowup_origin_is_the_four_chart_reference(f):
    # repr tells a float -0.0 from +0.0 and each exact from each float root
    assert _blowup_record(blowup_origin, f) == _blowup_record(four_chart_blowup_origin, f)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(_nilpotent_fields(), _points)
def test_blowup_origin_charts_push_forward_to_the_plane_field(f, points):
    w, charts, _ = blowup_origin(f)
    assert list(charts) == list(DIRECTIONS)
    for chart in charts.values():
        assert chart.weights == w
        _assert_pushes_forward(f, chart, points)


_decimal = st.integers(6, 14).flatmap(lambda d: st.integers(1, 4 * 10**d - 1).map(lambda n: Fraction(n, 10**d)))
_near_half = st.tuples(st.integers(17, 400), st.sampled_from((-1, 1))).map(
    lambda ks: (Fraction(1, 2) + Fraction(ks[1], 10 ** ks[0]), Fraction(1)))
_cdk_points = st.one_of(
    st.tuples(_decimal, _decimal),
    _decimal.map(lambda a: (a, Fraction(1))),
    _decimal.map(lambda a: (a, a)),
    st.integers(15, 300).map(lambda k: (Fraction(10**k), Fraction(1))),
    _near_half,
)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.one_of(_nilpotent_fields(), _cdk_points.map(lambda ab: cdk_poly_field(*ab))))
@example(PolyField(BiPoly({(0, 1): 1}), BiPoly({(3, 0): 2})))  # ±x points at ±1: middles on both half-axes
@example(cdk_poly_field(Fraction(7, 10), Fraction(1, 2)))  # ±y points alone: middles on both half-axes
def test_sector_halfplanes_are_the_float_angle_reference(f):
    # a sector's half-plane is the side of the x-axis of its arc's middle; where the float
    # middle is clear of the axis it decides, and a middle exactly on it is lower at +x, upper at -x
    try:
        w, charts, divisor = blowup_origin(f)
        sectors = assemble_sectors(w, charts, divisor).sectors
    except UnresolvedError:
        return  # a divisor continuum, or a divisor point that is not elementary
    points = {p.label(): p for pts, _ in divisor.values() for p in pts}
    for s in sectors:
        a, b = points[s.start], points[s.end]
        axis = arc_middle_axis(a, b)
        if axis is not None:
            assert s.halfplane == ("lower" if axis == "+x" else "upper"), s
            continue
        middle = float_arc_middle(a, b)
        if middle is not None and min(middle % math.pi, math.pi - middle % math.pi) > 1e-9:
            assert s.halfplane == ("upper" if math.sin(middle) > 0 else "lower"), s


def _poincare_formula(f, chart, u, z):
    """(u̇, ż) of the compact module docstring, from P and Q at the chart's plane point."""
    d = f.max_degree()
    if chart in ("U1", "V1"):
        p, q = f.eval(1 / z, u / z)
        udot, zdot = z**d * (q - u * p), -(z ** (d + 1)) * p
    else:
        p, q = f.eval(u / z, 1 / z)
        udot, zdot = z**d * (p - u * q), -(z ** (d + 1)) * q
    sign = 1 if chart in ("U1", "U2") else (-1) ** (d - 1)
    return sign * udot, sign * zdot


@settings(derandomize=True, database=None, deadline=None)
@given(
    _fields.filter(lambda f: f.max_degree() >= 0),
    st.lists(st.tuples(_value, _nonzero), min_size=3, max_size=3, unique_by=lambda p: abs(p[1])),
)
def test_poincare_chart_is_the_docstring_formula(f, points):
    # the chart sheds one power z^s of the formula, the same at every point;
    # a V chart is its U chart times (-1)^(d-1), and only the U charts are built
    d = f.max_degree()
    for chart in ("U1", "U2", "V1", "V2"):
        cf = compactify_chart(f, "U" + chart[1])
        sign = 1 if chart[0] == "U" else (-1) ** (d - 1)
        assert not any(c for (_, j), c in cf.Q if j == 0)  # {z = 0} is invariant
        values = [(_poincare_formula(f, chart, u, z), z, cf.eval(u, z)) for u, z in points]
        assert any(
            all(formula == (sign * z**s * pu, sign * z**s * pz) for formula, z, (pu, pz) in values)
            for s in range(d + 2)
        ), chart

