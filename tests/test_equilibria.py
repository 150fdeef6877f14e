import math
import random
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, example, given, settings

from phaseatlas.atlas import FieldAnalysis, classify_region
from phaseatlas.desing import PolyField, cdk_poly_field
from phaseatlas.equilibria import (
    Continuum,
    SemiHyperbolicAnalysis,
    StationaryCircle,
    cdk_closed_form,
    classify_linear,
    classify_point,
    cdk_stationary_points,
    eigenvalues_2x2,
    find_stationary,
    jacobian_at,
    semihyperbolic_analysis,
    sqrt_exact_or_float,
)
from phaseatlas.errors import DomainError, InconclusiveError, PreconditionError
from phaseatlas.polycore import BiPoly, X, Y

from oracles import _s34_kind, interval_box_test, s34_eigenvalues, shift_to_origin

F = Fraction


def linear_field(a11, a12, a21, a22):
    return PolyField(
        BiPoly.monomial(a11, 1, 0) + BiPoly.monomial(a12, 0, 1),
        BiPoly.monomial(a21, 1, 0) + BiPoly.monomial(a22, 0, 1),
    )


# -- closed-form solver -----------------------------------------------------------


def test_circle_case():
    result = cdk_stationary_points(1, 1)
    assert isinstance(result, StationaryCircle)
    assert result.center == (0, F(1, 2))
    assert result.radius == F(1, 2)
    assert result.contains(0, 0) and result.contains(0, 1)
    assert result.contains(F(1, 2), F(1, 2))


def test_four_point_case_values():
    pts = cdk_stationary_points(F(5, 2), F(1, 2))
    by_label = {p.label: p for p in pts}
    assert set(by_label) == {"s1", "s2", "s3", "s4"}
    assert by_label["s1"].location == (0, 0)
    assert by_label["s2"].location == (0, 1)
    s3 = by_label["s3"]
    assert s3.location[1] == F(1, 4)
    assert float(s3.location[0]) == pytest.approx(math.sqrt(0.0375), abs=1e-14)
    assert by_label["s4"].location[0] == -s3.location[0]
    # residuals in the stationarity system
    f = cdk_poly_field(F(5, 2), F(1, 2))
    for p in pts:
        x, y = p.location_floats()
        fx, fy = f.compiled()(x, y)
        assert abs(fx) < 1e-12 and abs(fy) < 1e-12


def test_two_point_case():
    pts = cdk_stationary_points(F(7, 10), F(1, 2))
    assert [p.label for p in pts] == ["s1", "s2"]
    assert pts[0].location == (0, 0)
    assert pts[1].location == (0, 1)


def test_closed_form_follows_a_shifted_field():
    a, b = F(5, 2), F(1, 2)
    base, _ = FieldAnalysis(cdk_poly_field(a, b)).finite
    f = cdk_poly_field(a, b).shifted(0, 1)
    pts, circle = FieldAnalysis(f).finite
    assert circle is None
    assert [p.label for p in pts] == ["s1", "s2", "s3", "s4"]
    assert pts[0].location == (0, -1) and pts[1].location == (0, 0)
    for p in pts[:2]:
        assert f.eval(*p.location) == (0, 0)
    root = math.sqrt(F(3, 80))
    assert pts[2].location == (root, F(-3, 4)) and pts[3].location == (-root, F(-3, 4))
    assert [p.kind for p in pts] == [p.kind for p in base]
    _, circle = FieldAnalysis(cdk_poly_field(1, 1).shifted(F(1, 3), 0)).finite
    assert circle.center == (F(-1, 3), F(1, 2)) and circle.radius == F(1, 2)


def test_rejects_nonpositive():
    with pytest.raises(DomainError):
        cdk_stationary_points(0, 1)


def test_s1_is_nilpotent_everywhere():
    for a, b in [(F(5, 2), F(1, 2)), (F(1, 2), F(19, 10)), (F(7, 10), F(1, 2))]:
        pts = cdk_stationary_points(a, b)
        s1 = next(p for p in pts if p.label == "s1")
        assert s1.kind.name == "nilpotent"
        assert all(v == 0 for row in s1.jacobian for v in row)


def test_s2_kinds_follow_parameter_a():
    s2 = lambda a, b: next(p for p in cdk_stationary_points(a, b) if p.label == "s2")
    assert s2(F(7, 10), F(1, 2)).kind.name == "saddle"
    assert s2(F(5, 2), F(19, 10)).kind.name == "attracting_node"
    p = s2(1, F(19, 10))
    assert p.kind.name == "semi_hyperbolic" and p.kind.subkind == "attracting_node"
    p = s2(1, F(1, 2))
    assert p.kind.name == "semi_hyperbolic" and p.kind.subkind == "saddle"


def test_s34_kinds_follow_focus_node_saddle_split():
    kinds = lambda a, b: {
        p.kind.name for p in cdk_stationary_points(a, b) if p.label in ("s3", "s4")
    }
    # |8a(a-1)| = 2 > 1.9: strong attracting focus
    assert kinds(F(1, 2), F(19, 10)) == {"attracting_focus"}
    # |8*0.7*(-0.3)| = 1.68 <= 1.9: attracting node
    assert kinds(F(7, 10), F(19, 10)) == {"attracting_node"}
    assert kinds(F(5, 2), F(1, 2)) == {"saddle"}


# s3/s4 exist exactly when a and b straddle 1
_below_one = st.fractions(min_value=0, max_value=1, max_denominator=10**6).filter(lambda v: 0 < v < 1)
_above_one = st.fractions(min_value=1, max_value=50, max_denominator=10**6).filter(lambda v: v > 1)
# 14-digit decimals on either side of 1
_decimal_below = st.builds(lambda n: F(n, 10**14), st.integers(1, 10**14 - 1))
_decimal_above = st.builds(lambda n: F(n, 10**13), st.integers(10**13 + 1, 10**14 - 1))


@st.composite
def _straddling(draw, below, above):
    pair = (draw(below), draw(above))
    return pair if draw(st.booleans()) else pair[::-1]


@st.composite
def _near_the_curve(draw):
    # on |8a(a-1)| = b, where s3/s4 turn from focus to node (a < 1 < b), and 1e-12 either side
    a = draw(st.one_of(st.fractions(F(15, 100), F(85, 100), max_denominator=10**6),
                       st.fractions(1, F(111, 100), max_denominator=10**6)))
    b = abs(8 * a * (a - 1)) + draw(st.sampled_from([0, F(1, 10**12), -F(1, 10**12)]))
    assume(b > 1 > a or b < 1 < a)
    return a, b


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.one_of(_straddling(_below_one, _above_one), _near_the_curve(),
                 _straddling(_decimal_below, _decimal_above)))
@example((F(3, 4), F(3, 2)))
@example((F(1, 2), F(19, 10)))
@example((F(5, 2), F(1, 2)))
def test_s34_kinds_are_the_closed_form_oracle(ab):
    a, b = ab
    f = cdk_poly_field(a, b)
    for g in (f, f.shifted(F(1, 3), F(-1, 2))):
        kinds = [p.kind for p in cdk_closed_form(g) if p.label in ("s3", "s4")]
        assert kinds == [_s34_kind(a, b)] * 2


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.fractions(min_value=0, max_value=20, max_denominator=1000).filter(bool),
       st.fractions(min_value=0, max_value=1, max_denominator=1000).filter(lambda v: 0 < v < 1))
@example(F(2, 3), F(2, 3))  # (a, b) = (3/4, 3/2), on |8a(a-1)| = b
def test_rational_s34_kinds_are_classify_point_on_their_jacobian(x, y2):
    # s3/s4 = (±x, y2) for a = y2/(x² + y2²) and b = (1 - a·y2)/(1 - y2); y2 in (0, 1) straddles 1
    a = y2 / (x * x + y2 * y2)
    assume(a != 1)
    f = cdk_poly_field(a, (1 - a * y2) / (1 - y2))
    points = {p.label: p for p in cdk_closed_form(f)}
    for label, z in (("s3", (x, y2)), ("s4", (-x, y2))):
        assert points[label].location == z and points[label].exact
        assert points[label].kind == classify_point(f, z, jacobian_at(f, z))


def test_closed_form_classifies_s1_s2_and_the_s34_pair_once_each(count_calls):
    f = cdk_poly_field(F(1, 2), F(19, 10))
    assert classify_region(F(1, 2), F(19, 10)) == "2b"
    counts = count_calls((classify_linear,))
    assert [p.label for p in cdk_closed_form(f)] == ["s1", "s2", "s3", "s4"]
    assert counts == {"classify_linear": 3}


# -- Jacobians and shifting --------------------------------------------------------


def test_jacobian_at_origin_zero_matrix():
    for a, b in [(F(1, 3), F(8, 5)), (2, 3)]:
        J = jacobian_at(cdk_poly_field(a, b), (0, 0))
        assert J == ((0, 0), (0, 0))


def test_shifted_s2_jacobian_diagonal():
    a, b = F(3, 4), F(6, 5)
    g = shift_to_origin(cdk_poly_field(a, b), (0, 1))
    assert jacobian_at(g, (0, 0)) == ((1 - a, 0), (0, -b))


def test_trivial_saddle_jacobian():
    f = linear_field(1, 0, 0, -1)
    assert jacobian_at(f, (0, 0)) == ((1, 0), (0, -1))


def test_shift_matches_displayed_s2_system():
    a, b = F(2, 7), F(5, 3)
    g = shift_to_origin(cdk_poly_field(a, b), (0, 1))
    expected_p = X * (Y * (1 - 2 * a - a * Y) - a * X**2 + 1 - a)
    expected_q = -b * Y * (Y**2 + 2 * Y + X**2 + 1) - X**2
    assert g.P == expected_p
    assert g.Q == expected_q


def test_shift_identity_and_inverse():
    f = cdk_poly_field(1, 2)
    assert shift_to_origin(f, (0, 0)).P == f.P
    g = shift_to_origin(shift_to_origin(f, (F(1, 2), F(-1, 3))), (F(-1, 2), F(1, 3)))
    assert g.P == f.P and g.Q == f.Q


# -- linear classification ----------------------------------------------------------


def test_classify_linear_table():
    assert classify_linear(((-1, 0), (0, -2))).name == "attracting_node"
    assert classify_linear(((1, 0), (0, 2))).name == "repelling_node"
    assert classify_linear(((1, 0), (0, -1))).name == "saddle"
    assert classify_linear(((-1, 2), (-2, -1))).name == "attracting_focus"
    assert classify_linear(((1, 2), (-2, 1))).name == "repelling_focus"
    assert classify_linear(((0, 1), (-1, 0))).name == "center_linear"
    assert classify_linear(((0, 0), (0, 0))).name == "nilpotent"
    assert classify_linear(((0, 1), (0, 0))).name == "nilpotent"
    assert classify_linear(((1, 0), (0, 0))).name == "semi_hyperbolic"


def test_classify_linear_similarity_invariant():
    rng = random.Random(5)
    mats = [
        ((-1, 0), (0, -2)),
        ((1, 0), (0, -1)),
        ((-1, 2), (-2, -1)),
        ((3, 1), (0, 2)),
    ]
    for J in mats:
        base = classify_linear(J).name
        for _ in range(10):
            while True:
                s = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
                det = s[0][0] * s[1][1] - s[0][1] * s[1][0]
                if det != 0:
                    break
            Jn = np.array(s) @ np.array(J, dtype=float) @ np.linalg.inv(np.array(s, dtype=float))
            assert classify_linear(tuple(map(tuple, Jn))).name == base


# -- s3/s4 eigenvalues ----------------------------------------------------------------


def test_s34_eigenvalues_complex_case():
    lam1, lam2 = s34_eigenvalues(F(1, 2), F(19, 10))
    assert lam1.imag != 0
    assert lam1.real == pytest.approx(lam2.real)
    assert lam1.real < 0
    # radicand b(b+8a(a-1)) = 1.9 * (-0.1)
    assert lam1.imag == pytest.approx(-lam2.imag)


def test_s34_eigenvalues_saddle_case():
    lam1, lam2 = s34_eigenvalues(F(5, 2), F(1, 2))
    assert lam1.imag == 0 and lam2.imag == 0
    assert lam1.real * lam2.real < 0


def test_s34_eigenvalues_outside_domain():
    with pytest.raises(DomainError):
        s34_eigenvalues(F(1, 2), F(1, 2))


def test_s34_formula_matches_numeric_eigensolve():
    for a, b in [(F(1, 2), F(19, 10)), (F(7, 10), F(19, 10)), (F(5, 2), F(1, 2))]:
        expected = sorted(s34_eigenvalues(a, b), key=lambda z: (z.real, z.imag))
        f = cdk_poly_field(a, b)
        for label in ("s3", "s4"):
            pt = next(p for p in cdk_stationary_points(a, b) if p.label == label)
            J = np.array([[float(v) for v in row] for row in pt.jacobian])
            got = sorted(np.linalg.eigvals(J), key=lambda z: (z.real, z.imag))
            for e, g in zip(expected, got):
                assert abs(e - g) < 1e-10


def test_x_squared_identity_exact():
    # x² + (b-1)²/(a-b)² + (b-1)/(a(a-b)) = 0 with x² kept exact
    for a, b in [(F(5, 2), F(1, 2)), (F(1, 3), F(7, 4))]:
        y2 = -(b - 1) / (a - b)
        x_sq = y2 / a - y2 * y2
        assert x_sq + (b - 1) ** 2 / (a - b) ** 2 + (b - 1) / (a * (a - b)) == 0


def test_sqrt_exact_detection():
    assert sqrt_exact_or_float(F(9, 4)) == F(3, 2)
    v = sqrt_exact_or_float(F(3, 80))
    assert isinstance(v, float) and v == pytest.approx(math.sqrt(3 / 80), rel=1e-15)


# -- semi-hyperbolic classification -----------------------------------------------------


def test_semihyperbolic_s2_cases():
    f = cdk_poly_field(1, F(19, 10))
    assert semihyperbolic_analysis(f, (0, 1)).subkind == "attracting_node"
    f = cdk_poly_field(1, F(1, 2))
    assert semihyperbolic_analysis(f, (0, 1)).subkind == "saddle"


def test_semihyperbolic_saddle_node_normal_form():
    # xdot = x^2, ydot = -y is the saddle-node prototype
    f = PolyField(X**2, -Y)
    assert semihyperbolic_analysis(f, (0, 0)).subkind == "saddle_node"


def test_semihyperbolic_node_prototypes():
    assert semihyperbolic_analysis(PolyField(-(X**3), -Y), (0, 0)).subkind == "attracting_node"
    assert semihyperbolic_analysis(PolyField(X**3, Y), (0, 0)).subkind == "repelling_node"
    assert semihyperbolic_analysis(PolyField(X**3, -Y), (0, 0)).subkind == "saddle"


def test_semihyperbolic_analysis_refuses_a_float_point():
    # the center-manifold analysis is exact; a float point is a domain error
    with pytest.raises(DomainError):
        semihyperbolic_analysis(PolyField(X**2, -Y), (0.0, 0.0))


def _series_mul(a, b, order):
    out = [F(0)] * (order + 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if i + j > order:
                    break
                out[i + j] += ca * cb
    return out


def _series_of_bipoly(p, h, order):
    """Series of p(xi, h(xi)) truncated at the given order; h[0] = h[1] = 0."""
    if p.is_zero():
        return [F(0)] * (order + 1)
    hpow = [[F(1)] + [F(0)] * order]
    for _ in range(p.degree_in("y")):
        hpow.append(_series_mul(hpow[-1], h, order))
    out = [F(0)] * (order + 1)
    for (i, j), c in p.terms.items():
        if i > order:
            continue
        for k, hk in enumerate(hpow[j]):
            if i + k > order:
                break
            out[i + k] += c * hk
    return out


def _series_semihyperbolic_analysis(f, z, order=6):
    """Reference: the center manifold as truncated Fraction series, one list per power series."""
    x0, y0 = F(z[0]), F(z[1])
    (a11, a12), (a21, a22) = jacobian_at(f, (x0, y0))
    tr, det = a11 + a22, a11 * a22 - a12 * a21
    if det != 0 or tr == 0:
        raise PreconditionError("point does not have exactly one zero eigenvalue")
    mu = tr
    v0 = (a12, -a11) if (a12, a11) != (0, 0) else (a22, -a21)
    vmu = (a12, mu - a11) if (a12, mu - a11) != (0, 0) else (mu - a22, a21)
    (t11, t21), (t12, t22) = v0, vmu
    dT = t11 * t22 - t12 * t21
    if dT == 0:
        raise PreconditionError("degenerate eigenbasis")
    xi_x = BiPoly.monomial(t11, 1, 0) + BiPoly.monomial(t12, 0, 1) + x0
    xi_y = BiPoly.monomial(t21, 1, 0) + BiPoly.monomial(t22, 0, 1) + y0
    Pn, Qn = f.P.subst(xi_x, xi_y), f.Q.subst(xi_x, xi_y)
    A = (t22 * Pn - t12 * Qn) * (F(1) / dT)
    B = (-t21 * Pn + t11 * Qn) * (F(1) / dT)
    h = [F(0)] * (order + 1)
    for k in range(2, order + 1):
        bs, as_ = _series_of_bipoly(B, h, k), _series_of_bipoly(A, h, k)
        hp = [F(0)] * (order + 1)
        for m in range(1, order):
            hp[m] = (m + 1) * h[m + 1]
        h[k] = -(bs[k] - _series_mul(hp, as_, k)[k]) / mu
    g = _series_of_bipoly(A, h, order)
    m = next((k for k in range(2, order + 1) if g[k] != 0), None)
    if m is None:
        raise InconclusiveError("center-manifold flow vanishes", order=order)
    coeff = g[m]
    if m % 2 == 0:
        subkind = "saddle_node"
    elif coeff > 0:
        subkind = "saddle" if mu < 0 else "repelling_node"
    else:
        subkind = "attracting_node" if mu < 0 else "saddle"
    return SemiHyperbolicAnalysis(subkind, mu, m, coeff, v0, vmu)


def _outcome(analysis, f, z):
    try:
        return repr(analysis(f, z))
    except (InconclusiveError, PreconditionError) as exc:
        return type(exc)


_coef = st.integers(min_value=-3, max_value=3)
_rational = st.fractions(min_value=-2, max_value=2, max_denominator=5)
# one coefficient per monomial of degree 2-4, each zero half the time
_MONOMIALS = [(i, d - i) for d in (2, 3, 4) for i in range(d + 1)]
_nonlinear = st.tuples(*[st.sampled_from((0, 0, 0, 0, 1, -1, 2, -3))] * len(_MONOMIALS)).map(
    lambda cs: dict(zip(_MONOMIALS, cs))
)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(_coef, _coef, _coef, _coef, _coef, _nonlinear, _nonlinear, _rational, _rational)
def test_semihyperbolic_analysis_matches_the_series_solution(t11, t12, t21, t22, mu, a, b, x0, y0):
    # xi' = a(xi, eta), eta' = mu*eta + b(xi, eta) in the frame (x, y) = T (xi, eta),
    # moved to (x0, y0): the Jacobian T diag(0, mu) T^-1 has rank one and trace
    # mu, and sparse a, b often leave the reduced flow no xi^2 or xi^3 term
    d = t11 * t22 - t12 * t21
    assume(d != 0 and mu != 0)
    xi = (t22 * X - t12 * Y) * F(1, d)
    eta = (-t21 * X + t11 * Y) * F(1, d)
    A = BiPoly(a).subst(xi, eta)
    B = mu * eta + BiPoly(b).subst(xi, eta)
    f = PolyField(t11 * A + t12 * B, t21 * A + t22 * B).shifted(-x0, -y0)
    z = (x0, y0)
    assert _outcome(semihyperbolic_analysis, f, z) == _outcome(_series_semihyperbolic_analysis, f, z)


# -- numeric finder -----------------------------------------------------------------------


def test_find_stationary_matches_closed_form():
    f = cdk_poly_field(F(5, 2), F(1, 2))
    found = find_stationary(f, (-2, 2, -2, 2), tol=1e-10)
    expected = cdk_stationary_points(F(5, 2), F(1, 2))
    assert len(found) == 4
    exp = sorted(p.location_floats() for p in expected)
    got = sorted(p.location_floats() for p in found)
    for (ex, ey), (gx, gy) in zip(exp, got):
        assert math.hypot(ex - gx, ey - gy) < 1e-8


def test_find_stationary_continuum_flag():
    f = cdk_poly_field(1, 1)
    result = find_stationary(f, (-2, 2, -2, 2), tol=1e-8)
    assert isinstance(result, Continuum)
    # every sample actually lies on the stationary circle x²+(y-1/2)²=1/4
    for x, y in result.samples:
        assert abs(x * x + (y - 0.5) ** 2 - 0.25) < 1e-6


def test_find_stationary_single_linear_node():
    f = linear_field(1, 0, 0, 1)
    found = find_stationary(f, (-1, 1, -1, 1), tol=1e-10)
    assert len(found) == 1
    assert found[0].location_floats() == pytest.approx((0.0, 0.0), abs=1e-10)


def test_grid_agreement_closed_form_vs_numeric():
    # seeded sample of a 20x20 rational grid avoiding the lines a=1, b=1, a=b
    rng = random.Random(9)
    values = [F(2 * k + 1, 16) for k in range(20)]  # 1/16 .. 39/16, never 1
    pairs = [(a, b) for a in values for b in values if a != b]
    for a, b in rng.sample(pairs, 12):
        expected = cdk_stationary_points(a, b)
        found = find_stationary(cdk_poly_field(a, b), (-4, 4, -4, 4), tol=1e-10)
        exp = sorted(p.location_floats() for p in expected)
        got = sorted(p.location_floats() for p in found)
        assert len(exp) == len(got), (a, b)
        for (ex, ey), (gx, gy) in zip(exp, got):
            assert math.hypot(ex - gx, ey - gy) < 1e-8


def test_eigenvalues_compensated():
    lam1, lam2 = eigenvalues_2x2(((1e8, 1), (0, 1e-8)))
    assert lam1.real == pytest.approx(1e8)
    assert lam2.real == pytest.approx(1e-8, rel=1e-6)


def test_find_stationary_ambiguity_on_near_tangent_curves():
    from phaseatlas.errors import AmbiguityError

    # two parabolas 1e-4 apart never meet: cells survive the interval test
    # but Newton cannot push the residual below tolerance
    f = PolyField(Y - X**2, Y - X**2 + F(1, 10000))
    with pytest.raises(AmbiguityError) as err:
        find_stationary(f, (-1, 1, -1, 1), tol=1e-10)
    assert err.value.clusters


@pytest.mark.parametrize("P, Q", [(X**2, X * Y), (X**2 * Y, X**3 + X * Y**2), (X**2 * Y, X**2 * (Y - 1))])
def test_a_shared_factor_that_changes_sign_is_a_continuum(P, Q):
    # each pair vanishes on the line x = 0 (the last shares x^2); fewer than 16 points merge
    result = find_stationary(PolyField(P, Q), (-8, 8, -8, 8), tol=1e-10)
    assert isinstance(result, Continuum)
    assert result.samples and all(abs(x) < 1e-8 for x, _ in result.samples)


def test_a_shared_factor_without_real_zeros_leaves_the_points():
    # x^2 + y^2 + 1 is shared but never vanishes: the one zero is the origin
    g = X**2 + Y**2 + 1
    found = find_stationary(PolyField(X * g, Y * g), (-8, 8, -8, 8), tol=1e-10)
    assert [(p.location_floats(), str(p.kind)) for p in found] == [((0.0, 0.0), "repelling_node")]


def test_q_is_read_only_where_p_holds_a_zero():
    # P = 1 excludes every box, so Q's coefficient, beyond the float range, is never read
    f = PolyField(BiPoly.const(1), BiPoly.monomial(10**400, 1, 0))
    assert find_stationary(f, (-8, 8, -8, 8)) == []
    assert f.box_test()(-8.0, 8.0, -8.0, 8.0) == (True, 1.0 - 1e-14, 1.0 + 1e-14)
    with pytest.raises(PreconditionError, match="coefficient of x overflows a float"):
        PolyField(X, BiPoly.monomial(10**400, 1, 0)).box_test()(-8.0, 8.0, -8.0, 8.0)


_coefficients = st.one_of(
    st.integers(-9, 9).filter(bool).map(F),
    # 6-10 significant digits with the point anywhere
    st.builds(lambda n, sign, k: F(sign * n, 10**k), st.integers(10**5, 10**10 - 1),
              st.sampled_from((1, -1)), st.integers(0, 10)),
)
_components = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda ij: sum(ij) <= 4), _coefficients, max_size=8
).map(BiPoly)


@st.composite
def _boxes(draw):
    """The full (-8, 8)^2, or a cell from 16 wide down to depth-40 size, each side across 0 or anywhere."""
    if draw(st.integers(0, 7)) == 0:
        return (-8.0, 8.0, -8.0, 8.0)
    box = ()
    for _ in "xy":
        width = 16.0 / 2 ** draw(st.integers(0, 40))
        lo = draw(st.one_of(st.floats(-1, 0, exclude_max=True).map(lambda u: u * width), st.floats(-8, 8)))
        box += (lo, lo + width)
    return box


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.builds(PolyField, _components, _components), st.lists(_boxes(), min_size=1, max_size=12))
@example(PolyField(X * (3 - X - 2 * Y), Y * (2 - X - Y)), [(-8.0, 8.0, -8.0, 8.0), (0.0, 0.5, -0.5, 0.0)])
@example(PolyField(3 - X**4 + F(1234567, 10**7) * Y**3, X**2 * Y**2 - 5), [(-1e-12, 2.0, -3.0, 1e-12)])
def test_box_test_is_the_interval_reference_bit_for_bit(f, boxes):
    box_test = f.box_test()
    for box in boxes:
        got, want = box_test(*box), interval_box_test(f, *box)
        assert got[0] is want[0], box
        assert [v.hex() for v in got[1:]] == [v.hex() for v in want[1:]], box
