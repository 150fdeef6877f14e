import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phaseatlas.desing import (
    PolyField,
    RationalField,
    cdk_poly_field,
    cdk_rational_field,
    desingularize,
    sprott_field,
)
from phaseatlas.dynamics import IntegratorOptions, integrate
from phaseatlas.equilibria import jacobian_at
from phaseatlas.errors import DomainError, PreconditionError, UndefinedPointError
from phaseatlas.polycore import BiPoly, X, Y, poly_gcd

from oracles import literal_box_test, literal_integrate, literal_rhs


def test_cdk_rational_field_a1_b1():
    f = cdk_rational_field(1, 1)
    assert f.p == X * Y - X**3 - X * Y**2
    assert f.q == X**2 + Y**2
    assert f.s == X**2 + Y**2


def test_cdk_rational_field_denominators():
    f = cdk_rational_field(Fraction(1, 2), Fraction(1, 2))
    assert f.q == X**2 + Y**2
    assert f.s == X**2 + Y**2


def test_cdk_rejects_nonpositive_parameters():
    with pytest.raises(DomainError):
        cdk_rational_field(0, 1)
    with pytest.raises(DomainError):
        cdk_rational_field(1, Fraction(-1, 2))


def test_desingularize_cdk_matches_cleared_system():
    a = b = Fraction(1, 2)
    f = desingularize(cdk_rational_field(a, b))
    assert f.P == X * Y - Fraction(1, 2) * (X**3 + X * Y**2)
    assert f.Q == Y**2 - (Fraction(1, 2) * Y + Fraction(1, 2)) * (X**2 + Y**2)
    assert f.time_factor == X**2 + Y**2


def test_desingularize_polynomial_system_unchanged():
    f = desingularize(RationalField(X, BiPoly.const(1), Y, BiPoly.const(1)))
    assert f.P == X
    assert f.Q == Y
    assert f.time_factor == BiPoly.const(1)


def test_desingularize_reciprocal_axes():
    # xdot = 1/x, ydot = 1/y: lcm of denominators is xy
    f = desingularize(RationalField(BiPoly.const(1), X, BiPoly.const(1), Y))
    assert f.time_factor == X * Y
    assert f.P == Y
    assert f.Q == X
    # pointwise P/l = 1/x off the axes
    for x, y in [(Fraction(2), Fraction(3)), (Fraction(-1, 2), Fraction(5, 7))]:
        ell = f.time_factor.eval(x, y)
        assert f.P.eval(x, y) / ell == 1 / x
        assert f.Q.eval(x, y) / ell == 1 / y


def _random_poly(rng, max_deg=2, max_terms=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        terms[(rng.randint(0, max_deg), rng.randint(0, max_deg))] = Fraction(
            rng.randint(-4, 4) or 1, rng.randint(1, 3)
        )
    return BiPoly(terms)


def test_trajectory_equivalence_exact():
    rng = random.Random(100)
    fields = [
        cdk_rational_field(Fraction(1, 2), Fraction(1, 2)),
        cdk_rational_field(Fraction(5, 2), Fraction(19, 10)),
        RationalField(BiPoly.const(1), X, BiPoly.const(1), Y),
        RationalField(X + Y, X - Y, X * Y, X**2 + 1),
    ]
    checked = 0
    while checked < 200:
        f = fields[checked % len(fields)]
        g = desingularize(f)
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        y = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        if f.q.eval(x, y) == 0 or f.s.eval(x, y) == 0:
            continue
        ex, ey = f.eval(x, y)
        ell = g.time_factor.eval(x, y)
        assert g.P.eval(x, y) == ell * ex
        assert g.Q.eval(x, y) == ell * ey
        checked += 1


def test_minimal_generator_property():
    rng = random.Random(17)
    produced = 0
    while produced < 100:
        p, q = _random_poly(rng), _random_poly(rng)
        r, s = _random_poly(rng), _random_poly(rng)
        if q.is_zero() or s.is_zero() or p.is_zero() or r.is_zero():
            continue
        f = RationalField(p, q, r, s)  # constructor reduces both fractions
        g = desingularize(f)
        if g.P.is_zero() or g.Q.is_zero():
            continue
        common = poly_gcd(poly_gcd(g.P, g.Q), g.time_factor)
        assert common.is_constant()
        produced += 1


def test_cdk_origin_jacobian_vanishes():
    f = cdk_poly_field(Fraction(7, 10), Fraction(1, 2))
    px, py, qx, qy = f.jacobian_polys()
    assert all(p.eval(0, 0) == 0 for p in (px, py, qx, qy))


def test_cdk_provenance_recorded():
    f = cdk_poly_field(Fraction(1, 2), Fraction(19, 10))
    assert f.provenance[0] == "cdk"
    assert f.provenance[1:] == (Fraction(1, 2), Fraction(19, 10))


def test_fields_built_without_a_time_factor_share_one_unit():
    # the default is built once, not by the BiPoly constructor for each field
    f, g = PolyField(X, Y), PolyField(Y, -X)
    assert f.time_factor is g.time_factor and f.time_factor == BiPoly.const(1)


_cdk_parameter = st.one_of(
    st.just(Fraction(1)),
    st.fractions(min_value=Fraction(1, 20), max_value=5, max_denominator=20),
    # decimals of 6-14 digits
    st.builds(lambda n, k: Fraction(n, 10**k), st.integers(10**5, 10**14 - 1), st.integers(0, 14)),
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.tuples(_cdk_parameter, _cdk_parameter) | _cdk_parameter.map(lambda a: (a, a)))
@example((Fraction(1), Fraction(1)))
@example((Fraction(7, 10), Fraction(1)))
@example((Fraction(12345678901234, 10**13), Fraction(98765432109876, 10**14)))
def test_cdk_poly_field_is_the_desingularized_rational_field(params):
    a, b = params
    got, want = cdk_poly_field(a, b), desingularize(cdk_rational_field(a, b))
    assert got.provenance == ("cdk", a, b)
    for mine, theirs in ((got.P, want.P), (got.Q, want.Q), (got.time_factor, want.time_factor)):
        assert mine == theirs
        # storage order is the integrator's summation order
        assert mine.float_terms() == theirs.float_terms()


@pytest.mark.parametrize("a, b", [(0, 1), (1, Fraction(-1, 2)), (Fraction(-7, 10), 0)])
def test_cdk_poly_field_rejects_nonpositive_parameters(a, b):
    with pytest.raises(DomainError, match="^CDK parameters must be positive$"):
        cdk_poly_field(a, b)


def _dulac_residual(P, Q, b):
    """x·s·(P_x + Q_y) − (3x² + y²)·P − 2xy·Q + b·x·s², s = x² + y²: zero where the Dulac identity holds."""
    s = X**2 + Y**2
    return X * s * (P.diff_x() + Q.diff_y()) - (3 * X**2 + Y**2) * P - 2 * X * Y * Q + b * X * s**2


def test_cdk_field_has_no_periodic_orbit_by_a_dulac_function():
    """No CDK field has a periodic orbit, for any a, b > 0 (Bendixson-Dulac).

    The y-axis is invariant, since P = x(y − a(x² + y²)) vanishes on it, so a
    periodic orbit lies in one open half-plane x > 0 or x < 0.  There the
    function B = 1/(x·s), s = x² + y², is smooth, and the identity
    x·s·(P_x + Q_y) − (3x² + y²)·P − 2xy·Q = −b·x·s² gives
    div(B·F) = −b/x, which has one sign on each open half-plane for every
    b > 0: so neither holds a periodic orbit.  Both sides are affine in (a, b),
    so the identity at three affinely independent points holds for every (a, b).
    """
    for a, b in ((Fraction(5, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(19, 10)), (Fraction(7, 10), 1)):
        f = cdk_poly_field(a, b)
        assert f.P.monomial_order("x") >= 1  # x divides P: the y-axis is invariant
        assert _dulac_residual(f.P, f.Q, b).is_zero(), (a, b)
        # the identity sees every term: Q without its −b·y³ term fails it
        assert not _dulac_residual(f.P, f.Q + b * Y**3, b).is_zero(), (a, b)


# -- Sprott fixture -------------------------------------------------------------


def test_sprott_multiplied_values():
    s = sprott_field()
    assert s.multiplied(1.0, 0.0) == (0.0, 1.0)
    for y0 in (-3.0, 0.0, 2.5):
        assert s.multiplied(0.0, y0) == (0.0, 0.0)


def test_sprott_original_undefined_on_axis():
    s = sprott_field()
    with pytest.raises(UndefinedPointError):
        s.original(0.0, 1.0)


def test_sprott_fixed_point_is_omega_constant():
    import math

    s = sprott_field()
    w, mw = s.fixed_point()
    assert w == pytest.approx(0.567143290409784, abs=1e-12)
    assert mw == -w
    # it really is stationary for both variants, and w solves w*e^w = 1
    fx, fy = s.original(w, mw)
    assert abs(fx) < 1e-12 and abs(fy) < 1e-12
    assert w * math.exp(w) == pytest.approx(1.0, abs=1e-14)


def test_shifted_field_composes():
    f = cdk_poly_field(1, 2)
    g = f.shifted(Fraction(1, 3), Fraction(-2, 5))
    x, y = Fraction(1, 7), Fraction(2, 9)
    assert g.P.eval(x, y) == f.P.eval(x + Fraction(1, 3), y - Fraction(2, 5))


# -- generated kernels: named coefficients bound to code shared by one term shape ------------


def _outcome(kernel, *args):
    """float.hex of every float a kernel returns (flattened), or its error's class and text."""
    try:
        value = kernel(*args)
    except PreconditionError as err:
        return type(err).__name__, str(err)
    flat = []
    for v in value:
        flat.extend(v) if isinstance(v, tuple) else flat.append(v)
    return [v.hex() if isinstance(v, float) else v for v in flat]


def _trajectory(integrator, f, z0, opts, direction):
    try:
        traj = integrator(f, z0, opts, direction)
    except PreconditionError as err:
        return type(err).__name__, str(err)
    return repr(traj.termination), [(t.hex(), x.hex(), y.hex()) for t, (x, y) in traj.samples]


_coefficients = st.one_of(
    st.integers(-9, 9).filter(bool).map(Fraction),
    # 6-10 significant digits, below 10 in size so that a trajectory takes few steps
    st.builds(lambda n, sign, k: Fraction(sign * n, 10 ** (len(str(n)) - 1 + k)), st.integers(10**5, 10**10 - 1),
              st.sampled_from((1, -1)), st.integers(0, 6)),
)
_exponents = st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda ij: sum(ij) <= 4)


@st.composite
def _fields(draw):
    """Degree <= 4, sometimes with a coefficient that is ±0.0 as a float, or one of Q beyond the float range."""
    P, Q = (draw(st.dictionaries(_exponents, _coefficients, max_size=7)) for _ in "PQ")
    if draw(st.integers(0, 3)) == 0:
        P[draw(_exponents)] = Fraction(draw(st.sampled_from((1, -1))), 10**400)
    if draw(st.integers(0, 5)) == 0:
        Q[draw(_exponents)] = Fraction(-(10**400) if draw(st.booleans()) else 10**400)
    return PolyField(BiPoly(P), BiPoly(Q))


_points = st.one_of(st.tuples(st.floats(-8, 8), st.floats(-8, 8)),
                    # a power that overflows, a sum that overflows with no power that does, signed zeros
                    st.sampled_from(((1e80, -3.0), (2.0, -1e160), (1e300, 1e300), (1.5e308, -1.0),
                                     (-0.5, 1.5e308), (-0.0, 0.0))))
_boxes = st.builds(lambda x, y, wx, wy: (x, x + wx, y, y + wy), st.floats(-8, 8), st.floats(-8, 8),
                   st.sampled_from((16.0, 1.0, 2.0**-20, 16.0 / 2**40)), st.sampled_from((16.0, 0.5, 2.0**-30)))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(_fields(), st.lists(_points, min_size=1, max_size=6), st.lists(_boxes, min_size=1, max_size=4),
       st.tuples(st.floats(-2, 2), st.floats(-2, 2)), st.sampled_from(("forward", "backward")))
@example(cdk_poly_field(Fraction(7, 10), Fraction(1, 2)), [(0.3, 0.4)], [(-8.0, 8.0, -8.0, 8.0)], (0.3, 0.4),
         "forward")
@example(PolyField(3 - X**4 + Fraction(1234567, 10**7) * Y**3, X**2 * Y**2 - 5), [(1.5, -2.0)],
         [(-1e-12, 2.0, -3.0, 1e-12)], (0.5, 0.5), "backward")
def test_bound_kernels_are_the_literal_coefficient_kernels_bit_for_bit(f, points, boxes, z0, direction):
    try:
        rhs = f.compiled()
    except PreconditionError as err:
        with pytest.raises(PreconditionError, match=f"^{re.escape(str(err))}$"):
            literal_rhs(f)
    else:
        literal = literal_rhs(f)
        for point in points:
            assert _outcome(rhs, *point) == _outcome(literal, *point), point
    jac = f.float_jacobian()
    for point in points:
        assert _outcome(jac, *point) == _outcome(jacobian_at, f, point), point
    box, literal_box = f.box_test(), literal_box_test(f)
    for b in boxes:
        assert _outcome(box, *b) == _outcome(literal_box, *b), b
    opts = IntegratorOptions(max_time=1.0, box=(-4.0, 4.0, -4.0, 4.0), equilibria=((0.0, 0.0),))
    assert _trajectory(integrate, f, z0, opts, direction) == _trajectory(literal_integrate, f, z0, opts, direction)
