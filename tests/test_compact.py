import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaseatlas.compact import (
    InfinityContinuum,
    PoincareCharts,
    compactify_chart,
    disc_coords,
    infinite_stationary_points,
)
from phaseatlas.desing import PolyField, cdk_poly_field
from phaseatlas.errors import DomainError
from phaseatlas.polycore import BiPoly, X, Y

from oracles import InfinityMarker, disc_coords_inverse, four_chart_points_at_infinity

F = Fraction


def _poly_from_coeffs(coeffs):
    return BiPoly({(i, 0): c for i, c in enumerate(coeffs) if c})


def test_u1_divisor_polynomial_is_F():
    a, b = F(2, 5), F(7, 4)
    coeffs = PoincareCharts(cdk_poly_field(a, b)).divisor_polynomial("U1")
    # F(u) = (a-b) u (u²+1)
    assert _poly_from_coeffs(coeffs) == (a - b) * (X**3 + X)


def test_u2_divisor_polynomial_is_G():
    a, b = F(2, 5), F(7, 4)
    coeffs = PoincareCharts(cdk_poly_field(a, b)).divisor_polynomial("U2")
    assert _poly_from_coeffs(coeffs) == (b - a) * (X**3 + X)


def test_chart_jacobians_match_closed_forms():
    a, b = F(2, 5), F(7, 4)
    f = cdk_poly_field(a, b)
    pts = infinite_stationary_points(f)
    by_label = {p.direction_label: p for p in pts}
    assert set(by_label) == {"+x", "-x", "+y", "-y"}
    for lbl in ("+x", "-x"):
        assert by_label[lbl].jacobian == ((a - b, b - 1), (0, a))
    for lbl in ("+y", "-y"):
        assert by_label[lbl].jacobian == ((b - a, 0), (0, b))


def test_linear_field_divisor_vanishes():
    f = PolyField(X, Y)
    coeffs = PoincareCharts(f).divisor_polynomial("U1")
    assert all(c == 0 for c in coeffs) or coeffs == []
    result = infinite_stationary_points(f)
    assert isinstance(result, InfinityContinuum)


def test_infinite_kinds_b_greater_a():
    pts = infinite_stationary_points(cdk_poly_field(F(1, 2), F(19, 10)))
    kinds = {p.direction_label: p.kind.name for p in pts}
    assert kinds["+x"] == kinds["-x"] == "saddle"
    assert kinds["+y"] == kinds["-y"] == "repelling_node"


def test_infinite_kinds_a_greater_b():
    pts = infinite_stationary_points(cdk_poly_field(F(5, 2), F(1, 2)))
    kinds = {p.direction_label: p.kind.name for p in pts}
    assert kinds["+x"] == kinds["-x"] == "repelling_node"
    assert kinds["+y"] == kinds["-y"] == "saddle"


def test_infinite_continuum_when_a_equals_b():
    result = infinite_stationary_points(cdk_poly_field(F(1, 2), F(1, 2)))
    assert isinstance(result, InfinityContinuum)
    assert result.tangential_eigenvalue == 0
    assert result.one_outgoing_trajectory_each()
    # transverse eigenvalue is b(u²+1) at each sample
    b = F(1, 2)
    for u, lam in result.sample_transverse:
        assert lam == b * (u * u + 1)


def test_no_incoming_trajectories_for_cdk():
    for a, b in [(F(1, 2), F(19, 10)), (F(5, 2), F(1, 2)), (F(3, 10), 1), (F(2), F(3))]:
        pts = infinite_stationary_points(cdk_poly_field(a, b))
        if isinstance(pts, InfinityContinuum):
            assert pts.one_outgoing_trajectory_each()
        else:
            assert all(p.transverse_eigenvalue > 0 for p in pts)


def test_antipodal_identification_recorded():
    pts = infinite_stationary_points(cdk_poly_field(F(5, 2), F(1, 2)))
    charts = {p.chart: p.antipode_chart for p in pts}
    assert charts == {"U1": "V1", "V1": "U1", "U2": "V2", "V2": "U2"}


_coeff = st.fractions(min_value=-4, max_value=4, max_denominator=3)
_nonzero = _coeff.filter(bool)
# equator roots at and near |u| = 1, rational and irrational: ±(1 + 10⁻²⁰)
# and a root of u² − (1 + 10⁻²⁰) round to ±1.0
_NEAR_ONE = [F(1), F(-1), F(99, 100), F(-101, 100), 1 + F(1, 10**20), -1 - F(1, 10**20)]
_ROOTS = _NEAR_ONE + [F(0), F(1, 3), F(-5, 2), F(3)]
_SQUARES = [1 + F(1, 10**20), 1 - F(1, 10**20), F(2), F(3), F(1, 2), F(5, 4), F(-1)]
_linear = st.sampled_from(_ROOTS).map(lambda r: [-r, F(1)])
_quadratic = st.sampled_from(_SQUARES).map(lambda k: [-k, F(0), F(1)])
_near_one = st.one_of(
    st.sampled_from(_NEAR_ONE).map(lambda r: [-r, F(1)]),
    st.sampled_from(_SQUARES[:2]).map(lambda k: [-k, F(0), F(1)]),
)


def _umul(g, h):
    out = [F(0)] * (len(g) + len(h) - 1)
    for i, a in enumerate(g):
        for j, b in enumerate(h):
            out[i + j] += a * b
    return out


@st.composite
def _equator_fields(draw, d):
    """A degree-d field whose U1 divisor polynomial is a drawn product of factors, one near |u| = 1."""
    g = _umul([draw(_nonzero)], draw(_near_one))
    for factor in draw(st.lists(st.one_of(_linear, _quadratic), max_size=3)):
        if len(g) + len(factor) - 2 <= d + 1:
            g = _umul(g, factor)
    g += [F(0)] * (d + 2 - len(g))
    # Q_d(1, u) − u·P_d(1, u) = g(u), so P's y^d coefficient cancels g's u^(d+1) one
    p_top = [draw(_coeff) for _ in range(d)] + [-g[d + 1]]  # x^(d-k) y^k by k
    q_top = [g[k] + (p_top[k - 1] if k else 0) for k in range(d + 1)]
    lower = st.dictionaries(
        st.tuples(st.integers(0, d), st.integers(0, d)).filter(lambda e: sum(e) < d), _coeff,
        max_size=4,
    )
    P = {(d - k, k): c for k, c in enumerate(p_top)} | draw(lower)
    Q = {(d - k, k): c for k, c in enumerate(q_top)} | draw(lower)
    return PolyField(BiPoly(P), BiPoly(Q))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(data=st.data())
def test_v_points_are_the_antipodes_of_the_four_chart_reference(d, data):
    # 4 × 60 fields; repr tells a float −0.0 from +0.0
    f = data.draw(_equator_fields(d))
    assert f.max_degree() == d
    assert repr(infinite_stationary_points(f)) == repr(four_chart_points_at_infinity(f))


def test_v_chart_is_not_built():
    with pytest.raises(DomainError):
        compactify_chart(cdk_poly_field(F(7, 10), F(1, 2)), "V1")


def test_chart_overlap_transition():
    # on the overlap, the U1 and U2 fields are conjugate by u' = 1/u,
    # z' = z/u with the time factor u^(d-1)
    f = cdk_poly_field(F(2, 7), F(5, 3))
    d = f.max_degree()
    u1 = compactify_chart(f, "U1")
    u2 = compactify_chart(f, "U2")
    rng = random.Random(12)
    for _ in range(100):
        u = rng.uniform(0.2, 3.0)
        z = rng.uniform(0.01, 0.5)
        du, dz = u1.compiled()(u, z)
        up, zp = 1.0 / u, z / u
        dup, dzp = u2.compiled()(up, zp)
        lam = u ** (d - 1)
        # transition derivative: du' = -du/u², dz' = dz/u - z du/u²
        assert -du / u**2 == pytest.approx(lam * dup, rel=1e-9)
        assert dz / u - z * du / u**2 == pytest.approx(lam * dzp, rel=1e-9)


def test_disc_roundtrip_random_points():
    rng = random.Random(3)
    worst = 0.0
    for _ in range(1000):
        x = rng.uniform(-50, 50)
        y = rng.uniform(-50, 50)
        q = disc_coords((x, y))
        assert q[0] ** 2 + q[1] ** 2 < 1.0
        back = disc_coords_inverse(q)
        worst = max(worst, abs(back[0] - x), abs(back[1] - y))
    assert worst < 1e-12 * 50


def test_disc_center_and_ray_limit():
    assert disc_coords((0.0, 0.0)) == (0.0, 0.0)
    prev = 0.0
    for t in (1.0, 10.0, 1e3, 1e6):
        qx, qy = disc_coords((t, 0.0))
        assert qy == 0.0 and qx > prev
        prev = qx
    assert prev > 1 - 1e-12


def test_disc_coords_of_a_point_whose_squared_norm_overflows():
    # 1 + x² + y² overflows to inf at these finite points, which used to go to the centre
    assert disc_coords((1e200, 0.0)) == (1.0, 0.0)
    qx, qy = disc_coords((1e154, 1e154))
    assert abs(qx - math.sqrt(0.5)) <= 1e-15 and abs(qy - math.sqrt(0.5)) <= 1e-15


def test_disc_inverse_boundary_marker():
    res = disc_coords_inverse((1.0, 0.0))
    assert isinstance(res, InfinityMarker)
    assert res.direction == (1.0, 0.0)
