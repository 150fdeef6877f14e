"""Property tests: every blow-up and Poincaré chart against its defining formula.

The oracles evaluate the plane field F = (P, Q) directly at the mapped
point; none of them exchanges x and y, so they check the y-direction charts
independently of how those charts are built.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from phaseatlas.blowup import DIRECTIONS, blowup_directional
from phaseatlas.compact import compactify_chart
from phaseatlas.desing import PolyField
from phaseatlas.polycore import BiPoly, NewtonWeights

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


@settings(derandomize=True, database=None, deadline=None)
@given(_fields, _weights, st.lists(st.tuples(_nonzero, _nonzero), min_size=1, max_size=3))
def test_blowup_chart_pushes_forward_to_the_plane_field(f, w, points):
    # dφ · (c · v^k · (px, py)) = F ∘ φ, v the radial variable of the chart
    for direction in DIRECTIONS:
        chart = blowup_directional(f, direction, w)
        assert (chart.direction, chart.weights) == (direction, w)
        for u, v in points:
            radial = u if direction in ("+x", "-x") else v
            scale = chart.cancelled_coeff * radial**chart.cancelled_power
            cu, cv = scale * chart.px.eval(u, v), scale * chart.py.eval(u, v)
            J = chart.substitution_jacobian(u, v)
            push = (J[0][0] * cu + J[0][1] * cv, J[1][0] * cu + J[1][1] * cv)
            assert push == f.eval(*chart.substitution(u, v)), (direction, u, v)


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

