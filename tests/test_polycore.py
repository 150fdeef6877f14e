import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phaseatlas import polycore
from phaseatlas.desing import PolyField
from phaseatlas.errors import DomainError, PreconditionError
from phaseatlas.polycore import (
    BiPoly,
    NewtonWeights,
    X,
    Y,
    format_poly,
    is_nilpotent_origin,
    newton_weight_candidates,
    newton_weights,
    poly_divexact,
    poly_gcd,
    poly_lcm,
    real_roots,
    reduce_fraction,
)

F = Fraction


def cdk_rhs(a, b):
    """Hand-expanded polynomial right-hand sides of the cleared CDK system."""
    a, b = Fraction(a), Fraction(b)
    P = X * Y - a * (X**3 + X * Y**2)
    Q = Y**2 - (b * Y - b + 1) * (X**2 + Y**2)
    return P, Q


def random_poly(rng, max_deg=3, max_terms=5):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        i, j = rng.randint(0, max_deg), rng.randint(0, max_deg)
        terms[(i, j)] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return BiPoly(terms)


# -- arithmetic ---------------------------------------------------------------


def test_eval_exact_point():
    p = X**2 + Y**2
    assert p.eval(3, 4) == 25


def test_eval_float_matches_exact():
    rng = random.Random(7)
    for _ in range(50):
        p = random_poly(rng)
        x = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
        y = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
        assert p.eval(float(x), float(y)) == pytest.approx(float(p.eval(x, y)), rel=1e-12, abs=1e-12)


def test_eval_float_is_the_compiled_field_bit_for_bit():
    # Jacobians and Newton (BiPoly.eval) and the integrator (PolyField.compiled)
    # share one float arithmetic; compared by repr, because == hides -0.0
    rng = random.Random(11)
    cases = []
    for _ in range(50):
        p = random_poly(rng, max_deg=5, max_terms=8)
        q = random_poly(rng, max_deg=5, max_terms=8)
        cases.append((p, q, rng.uniform(-3, 3), rng.uniform(-3, 3)))
    # zero, constant, one odd term (its -0.0 shows whether the sum starts at 0.0),
    # total degree 7, and a coefficient that rounds to -0.0
    special = [BiPoly.zero(), BiPoly.const(F(-3, 7)), -X * Y**2,
               X**5 * Y**2 - F(1, 3) * Y**6 + 2 * X, X - F(1, 10**400)]
    zeros = [(0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (-0.0, 2.5), (1.5, -0.0)]
    cases += [(p, q, x, y) for p in special for q in special for x, y in zeros]
    for p, q, x, y in cases:
        assert repr(PolyField(p, q).compiled()(x, y)) == repr((p.eval(x, y), q.eval(x, y)))


_small_ints = st.integers(-10**6, 10**6)
_coefficients = st.builds(Fraction, _small_ints, st.sampled_from([1, 2, 3, 7, 10**12, 3**40, 10**40]))
_polys = st.dictionaries(st.tuples(st.integers(0, 5), st.integers(0, 5)), _coefficients, max_size=6).map(BiPoly)
_rationals = st.builds(Fraction, _small_ints, st.integers(1, 10**30))
_floats = st.floats(-8, 8)


def _exact_sum(p, x, y):
    return sum((c * x**i * y**j for (i, j), c in p.terms.items()), F(0))


def _float_sum(p, x, y):
    """`float_terms()` summed term by term as c·x^i·y^j, the float arithmetic of `BiPoly.eval`."""
    total = 0.0
    for c, i, j in p.float_terms():
        total += c * x**i * y**j
    return total


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.lists(_polys, min_size=1, max_size=4), _rationals, _rationals, _floats, _floats)
@example([BiPoly.zero()], F(-1, 3), F(2, 5), -0.0, 0.5)
@example([BiPoly.zero(), BiPoly.const(F(-7, 10**40)), X**5 * Y], F(-3, 10**30 + 1), F(-10**6, 7), -1.5, -2.0)
@example([X**3 - Y, BiPoly.const(2)], F(0), F(5), 0.0, -0.0)
def test_eval_many_is_each_polynomial_summed_alone(polys, x, y, u, v):
    # exact: direct Fraction sums of c·x^i·y^j; float: the per-polynomial sum, bit for bit
    for a, b in ((x, y), (x.numerator, y.numerator)):
        values = polycore.eval_many(polys, a, b)
        assert all(type(value) is Fraction for value in values)
        assert values == tuple(_exact_sum(p, a, b) for p in polys)
    for a, b in ((u, v), (u, y), (x, v)):
        got = polycore.eval_many(polys, a, b)
        assert [value.hex() for value in got] == [_float_sum(p, float(a), float(b)).hex() for p in polys]


def test_compiled_field_is_built_once():
    f = PolyField(X * Y - X**3, Y**2 - 1)
    assert f.compiled() is f.compiled()


def test_diff_x_against_termwise_oracle():
    # independent term-by-term differentiation of x*y - (x^3 + x*y^2)
    p, _ = cdk_rhs(1, 1)
    expected_terms = {}
    for (i, j), c in p.terms.items():
        if i > 0:
            expected_terms[(i - 1, j)] = expected_terms.get((i - 1, j), Fraction(0)) + c * i
    assert p.diff_x() == BiPoly(expected_terms)
    # matches the closed form y - 3x^2 - y^2
    assert p.diff_x() == Y - 3 * X**2 - Y**2


def test_mul_by_zero_annihilates():
    p, q = cdk_rhs(2, 3)
    assert (p * BiPoly.zero()).is_zero()
    assert (BiPoly.zero() * q).is_zero()


def test_pow_negative_rejected():
    with pytest.raises(DomainError):
        X ** (-1)


def test_ring_axioms_on_random_triples():
    rng = random.Random(42)
    for _ in range(60):
        p, q, r = (random_poly(rng) for _ in range(3))
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + q == q + p
        assert p * q == q * p


def test_shift_and_subst_roundtrip():
    rng = random.Random(3)
    for _ in range(20):
        p = random_poly(rng)
        assert p.shift(Fraction(1, 2), -2).shift(Fraction(-1, 2), 2) == p


# -- gcd / lcm ---------------------------------------------------------------


def test_gcd_idempotent():
    p = X**2 + Y**2
    assert poly_gcd(p, p) == p


def test_gcd_factored_oracle():
    common = X**2 + Y**2
    assert poly_gcd(X * common, Y * common) == common


def test_gcd_coprime_variables():
    assert poly_gcd(X, Y) == BiPoly.const(1)


def test_gcd_both_zero_rejected():
    with pytest.raises(DomainError):
        poly_gcd(BiPoly.zero(), BiPoly.zero())


def test_gcd_divides_both_and_scales():
    rng = random.Random(11)
    checked = 0
    while checked < 25:
        p, q, c = random_poly(rng, 2, 3), random_poly(rng, 2, 3), random_poly(rng, 1, 2)
        if p.is_zero() or q.is_zero() or c.is_zero():
            continue
        g = poly_gcd(p, q)
        assert poly_divexact(p, g) * g == p
        assert poly_divexact(q, g) * g == q
        assert poly_gcd(p * c, q * c) == (g * c).primitive()
        checked += 1


def test_lcm_times_gcd_is_product_up_to_scale():
    p = (X + Y) * (X - Y)
    q = (X + Y) * Y
    g, l = poly_gcd(p, q), poly_lcm(p, q)
    assert (g * l).primitive() == (p * q).primitive()


# -- Newton weights -------------------------------------------------------------


def test_cdk_weights_generic_b():
    P, Q = cdk_rhs(Fraction(1, 2), Fraction(1, 2))
    assert newton_weights(P, Q) == (1, 1)


def test_cdk_weights_b_equal_one():
    P, Q = cdk_rhs(Fraction(1, 2), 1)
    assert newton_weights(P, Q) == (1, 2)


def _bruteforce_weights(P, Q, bound=6):
    """Enumeration oracle: smallest coprime pair whose minimal quasi-degree
    is attained by at least two support points (i.e. supports an edge)."""
    import math

    support = {(i - 1, j) for (i, j), _ in P} | {(i, j - 1) for (i, j), _ in Q}
    hits = []
    for alpha in range(1, bound + 1):
        for beta in range(1, bound + 1):
            if math.gcd(alpha, beta) != 1:
                continue
            degs = [alpha * i + beta * j for i, j in support]
            m = min(degs)
            if sum(1 for d in degs if d == m) >= 2:
                hits.append((alpha, beta))
    return min(hits) if hits else None


def test_weights_cubic_hamiltonian_example():
    P, Q = Y, X**3
    assert newton_weights(P, Q) == (1, 2)
    assert _bruteforce_weights(P, Q) == (1, 2)


def test_weights_match_bruteforce_on_cdk():
    for a, b in [(Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), 1), (Fraction(7, 10), Fraction(19, 10))]:
        P, Q = cdk_rhs(a, b)
        assert tuple(newton_weights(P, Q)) == _bruteforce_weights(P, Q)


def test_weights_are_coprime_and_validated():
    with pytest.raises(DomainError):
        NewtonWeights(2, 4)
    with pytest.raises(DomainError):
        NewtonWeights(0, 1)


def test_weights_require_nilpotent_origin():
    with pytest.raises(PreconditionError):
        newton_weights(X, Y)  # diag(1,1) linear part is not nilpotent
    with pytest.raises(PreconditionError):
        newton_weights(X + 1, Y)  # origin not even stationary


def test_weight_candidates_exposed():
    P, Q = cdk_rhs(Fraction(1, 2), Fraction(1, 2))
    cands = newton_weight_candidates(P, Q)
    assert (1, 1) in cands


@pytest.mark.parametrize(
    "points, normals",
    [
        # convex staircase: both edges are compact edges of the polygon
        ([(0, 4), (1, 1), (3, 0)], [(3, 1), (1, 2)]),
        # concave staircase: the middle point lies above the chord
        ([(0, 4), (2, 3), (3, 0)], [(4, 3)]),
        # collinear staircase: one edge through all three points
        ([(0, 4), (1, 2), (2, 0)], [(2, 1)]),
    ],
)
def test_lower_hull_keeps_only_convex_staircase_vertices(points, normals):
    assert polycore._lower_hull_normals(points) == normals


def test_weights_from_the_lowest_of_two_edges():
    # support {(1, 1), (3, 0), (0, 4)}: edges of weights (3, 1) and (1, 2), not the chord (4, 3)
    P, Q = X**2 * Y + X**4, Y**5
    assert newton_weights(P, Q) == (1, 2)
    assert newton_weight_candidates(P, Q) == [(1, 2), (3, 1)]
    assert _bruteforce_weights(P, Q) == (1, 2)


# -- canonical text -------------------------------------------------------------


def test_format_examples():
    # graded-lex descending with x > y: leading term first
    assert format_poly(X * Y - Fraction(1, 2) * X**3) == "-1/2*x^3 + x*y"
    assert format_poly(BiPoly.zero()) == "0"
    assert format_poly(-X**3 + 1) == "-x^3 + 1"
    assert format_poly(BiPoly.const(Fraction(3, 4))) == "3/4"


def test_format_graded_lex_order():
    p = Y**2 + X**2 + X * Y + X + Y + 1
    assert format_poly(p) == "x^2 + x*y + y^2 + x + y + 1"


# -- univariate real roots ------------------------------------------------------


def test_real_roots_strips_root_at_zero():
    # x^2 (x - 1): the double root at 0 is reported once
    exact, floats, complex_count = real_roots([F(0), F(0), F(-1), F(1)])
    assert exact == [0, 1]
    assert floats == [] and complex_count == 0


def test_real_roots_repeated_rational_root_once():
    # (2x - 1)^2 (x + 3)
    exact, floats, complex_count = real_roots([F(3), F(-11), F(8), F(4)])
    assert exact == [F(-3), F(1, 2)]
    assert floats == [] and complex_count == 0


def test_real_roots_irrational_roots_are_floats():
    # x^2 - 2
    exact, floats, complex_count = real_roots([F(-2), F(0), F(1)])
    assert exact == []
    assert floats == pytest.approx([-(2**0.5), 2**0.5], abs=1e-12)
    assert complex_count == 0


def test_real_roots_counts_complex_roots():
    # (x^2 + 1)(x - 2)(3x^2 + 3x + 1)
    coeffs = [F(-2), F(-5), F(-5), F(-2), F(-3), F(3)]
    exact, floats, complex_count = real_roots(coeffs)
    assert exact == [2]
    assert floats == [] and complex_count == 4


def _upoly(factors):
    """Ascending coefficients of the product of (coefficients, multiplicity) factors."""
    out = [F(1)]
    for coeffs, mult in factors:
        for _ in range(mult):
            prod = [F(0)] * (len(out) + len(coeffs) - 1)
            for i, u in enumerate(out):
                for j, v in enumerate(coeffs):
                    prod[i + j] += u * v
            out = prod
    return out


def _uvalue(coeffs, x):
    return sum(c * x**i for i, c in enumerate(coeffs))


def _sign_change_across(coeffs, f):
    """True when the polynomial changes sign between the half-ulp points around the double f."""
    below = (F(f) + F(math.nextafter(f, -math.inf))) / 2
    above = (F(f) + F(math.nextafter(f, math.inf))) / 2
    return _uvalue(coeffs, below) * _uvalue(coeffs, above) < 0


@pytest.mark.parametrize("mult", [2, 3])
def test_real_roots_of_a_power_are_distinct_and_real(mult):
    # (x^2 - 2)^mult: one float per root, and no root counted as complex
    exact, floats, complex_count = real_roots(_upoly([([F(-2), F(0), F(1)], mult)]))
    assert exact == []
    assert floats == [-math.sqrt(2), math.sqrt(2)]
    assert complex_count == 0


def test_real_roots_floats_are_the_nearest_doubles():
    # 3/5 x^3 - x = x (3/5 x^2 - 1), irrational roots +-sqrt(5/3)
    coeffs = [F(0), F(-1), F(0), F(3, 5)]
    exact, floats, complex_count = real_roots(coeffs)
    assert exact == [0] and complex_count == 0
    assert floats[0] == -floats[1]
    assert all(_sign_change_across(coeffs, f) for f in floats)


def test_real_roots_rational_root_on_a_bisection_point():
    # x (2/5 - x): the root 0 is the first bisection point of the search interval
    exact, floats, complex_count = real_roots([F(0), F(2, 5), F(-1)])
    assert exact == [0, F(2, 5)]
    assert floats == [] and complex_count == 0


@pytest.mark.parametrize(
    "coeffs, exact, n_floats",
    [
        # x (3x^2 - 132x - 4): 0, a root, is the rational of denominator <= 3
        # nearest the irrational root -0.0303...
        ([F(0), F(-4), F(-132), F(3)], [0], 2),
        # (4x + 1)(...): likewise -1/4 beside the irrational root -0.2166...
        ([F(1, 4), F(11, 5), F(5), F(3, 4), F(-1, 5)], [F(-1, 4)], 3),
    ],
)
def test_real_roots_keeps_an_irrational_root_beside_a_rational_one(coeffs, exact, n_floats):
    got_exact, floats, complex_count = real_roots(coeffs)
    assert got_exact == exact and complex_count == 0
    assert len(floats) == n_floats and all(_sign_change_across(coeffs, f) for f in floats)


_linear = st.tuples(st.integers(-6, 6), st.integers(1, 5)).map(lambda t: [F(t[0]), F(t[1])])
_quadratic = st.tuples(st.integers(-8, 8), st.integers(-8, 8), st.integers(1, 4)).map(
    lambda t: [F(t[0]), F(t[1]), F(t[2])]
)


@settings(derandomize=True, database=None, deadline=None)
@given(
    st.lists(st.tuples(st.one_of(_linear, _quadratic), st.integers(1, 3)), min_size=1, max_size=3),
    st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool),
)
def test_real_roots_of_products_of_linear_and_quadratic_factors(factors, scale):
    rational, irrational, complex_count = set(), set(), 0
    for coeffs, mult in factors:
        if len(coeffs) == 2:
            rational.add(-coeffs[0] / coeffs[1])
            continue
        c, b, a = coeffs
        disc = b * b - 4 * a * c
        if disc < 0:
            complex_count += 2 * mult
        elif math.isqrt(int(disc)) ** 2 == disc:
            root = math.isqrt(int(disc))
            rational.update({(-b - root) / (2 * a), (-b + root) / (2 * a)})
        else:
            irrational.add((b / a, c / a))
    coeffs = [scale * v for v in _upoly(factors)]
    exact, floats, got_complex = real_roots(coeffs)
    assert exact == sorted(rational)
    assert got_complex == complex_count
    assert len(floats) == 2 * len(irrational) and floats == sorted(set(floats))
    # the product need not change sign at a root of even multiplicity; its factor does
    for f in floats:
        assert any(_sign_change_across(q, f) for q, _ in factors)


def test_real_roots_zero_polynomial_rejected():
    for coeffs in ([], [F(0), F(0)]):
        with pytest.raises(DomainError):
            real_roots(coeffs)


def test_reduce_fraction_normalizes_denominator():
    n, d = reduce_fraction((X - Y) * X, -2 * (X - Y) * (X**2 + 1))
    assert d == X**2 + 1
    assert n == F(-1, 2) * X
    assert reduce_fraction(BiPoly.zero(), 3 * X + 1) == (BiPoly.zero(), BiPoly.const(1))


# -- integer numerators over one denominator against the Fraction loops ---------
#
# The oracle keeps a polynomial as a dict of Fractions and copies the loops
# BiPoly ran on that representation, pop-on-cancel included, so comparing
# list(p) pins storage order as well as values.


def _o_add(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, F(0)) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _o_mul(a, b):
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            e = (i1 + i2, j1 + j2)
            s = out.get(e, F(0)) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def _o_pow(a, n):
    result, base = {(0, 0): F(1)}, a
    while n:
        if n & 1:
            result = _o_mul(result, base)
        base = _o_mul(base, base)
        n >>= 1
    return result


def _o_diff(a, k):
    out = {}
    for (i, j), c in a.items():
        e = (i, j)[k]
        if e:
            ne = (i - 1, j) if k == 0 else (i, j - 1)
            out[ne] = out.get(ne, F(0)) + c * e
    return out


def _o_subst(a, px, py):
    xpows, ypows = [{(0, 0): F(1)}], [{(0, 0): F(1)}]
    for _ in range(max((i for i, _ in a), default=0)):
        xpows.append(_o_mul(xpows[-1], px))
    for _ in range(max((j for _, j in a), default=0)):
        ypows.append(_o_mul(ypows[-1], py))
    out = {}
    for (i, j), c in a.items():
        out = _o_add(out, _o_mul(_o_mul({(0, 0): c}, xpows[i]), ypows[j]))
    return out


def _o_eval(a, x, y):
    total = F(0)
    for (i, j), c in a.items():
        total += c * x**i * y**j
    return total


_coeff = st.fractions(min_value=-4, max_value=4, max_denominator=6)
# few exponents, so that sums and products cancel terms often
_oracle_poly = st.lists(
    st.tuples(st.tuples(st.integers(0, 3), st.integers(0, 3)), _coeff), max_size=6
).map(lambda items: {e: c for e, c in dict(items).items() if c})


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_oracle_poly, _oracle_poly, st.integers(0, 3), _coeff, _coeff)
def test_arithmetic_matches_the_fraction_loops_in_storage_order(a, b, n, u, v):
    p, q = BiPoly(a), BiPoly(b)
    cases = [
        (p + q, _o_add(a, b)),
        (p - q, _o_add(a, {e: -c for e, c in b.items()})),
        (p * q, _o_mul(a, b)),
        (p**n, _o_pow(a, n)),
        (p.diff("x"), _o_diff(a, 0)),
        (p.diff("y"), _o_diff(a, 1)),
        (p.swapped(), {(j, i): c for (i, j), c in a.items()}),
        (p.subst(q, p), _o_subst(a, b, a)),
        # a term map: x -> -x^2 y, y -> 3 x y^2, times 2 x, keeps the terms in storage order
        (p.subst_monomials((-1, 2, 1), (3, 1, 2), (2, 1, 0)),
         _o_mul(_o_subst(a, {(2, 1): F(-1)}, {(1, 2): F(3)}), {(1, 0): F(2)})),
        (p.shift(u, v), _o_subst(a, _o_add({(1, 0): F(1)}, {(0, 0): u} if u else {}),
                                 _o_add({(0, 1): F(1)}, {(0, 0): v} if v else {}))),
    ]
    for got, want in cases:
        assert list(got) == list(want.items())
        assert got == BiPoly(want) and hash(got) == hash(BiPoly(want))
    assert p.eval(u, v) == _o_eval(a, u, v)


@settings(derandomize=True, database=None, deadline=None)
@given(st.lists(st.tuples(
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    st.tuples(st.integers(-(10**300), 10**300), st.integers(1, 10**400)),
), max_size=6))
@example([((0, 0), (-1, 10**400)), ((1, 0), (3, 10**310)), ((0, 1), (2**53 + 1, 2**53))])
def test_float_terms_are_float_of_each_fraction_bit_for_bit(items):
    # numerators up to 300 digits and denominators up to 400 reach underflow
    # to ±0.0, subnormals and the last bit of rounding, but not overflow
    p = BiPoly({e: F(n, d) for e, (n, d) in items})
    want = [(float(c), i, j) for (i, j), c in p]
    got = p.float_terms()
    assert got == want and repr(got) == repr(want)
    assert [math.copysign(1, c) for c, _, _ in got] == [math.copysign(1, c) for c, _, _ in want]


def test_integer_loops_make_no_fraction_arithmetic(monkeypatch):
    P, Q = cdk_rhs(F(7, 10), F(1, 2))
    f = PolyField(P, Q).shifted(0, 1)
    R = X**2 + F(3, 7) * Y - F(1, 2)
    coeffs = [F(-2), F(0), F(3, 5), F(1, 3)]
    calls = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__pow__"):
        method = getattr(F, name)
        monkeypatch.setattr(F, name, lambda *args, _m=method, _n=name: calls.append(_n) or _m(*args))
    products = [P + Q, P - Q, P * Q, f.P * f.Q, (P * R) ** 2, P.diff("x"), f.Q.diff("y")]
    g = poly_gcd(P * R, Q * R)
    quotient = poly_divexact(P * R, g)
    roots = real_roots(coeffs)
    monkeypatch.undo()
    assert calls == []
    assert g == (R * 42).primitive() and quotient * g == P * R
    assert products[2] == P * Q and roots == real_roots(coeffs)


def _nilpotent_by_jacobian(P, Q):
    """The nilpotency test as it read the Jacobian: differentiate, then evaluate at 0."""
    if P.eval(0, 0) != 0 or Q.eval(0, 0) != 0:
        return False
    a11, a12 = P.diff_x().eval(0, 0), P.diff_y().eval(0, 0)
    a21, a22 = Q.diff_x().eval(0, 0), Q.diff_y().eval(0, 0)
    return a11 + a22 == 0 and a11 * a22 - a12 * a21 == 0


@pytest.mark.parametrize(
    "P, Q, nilpotent",
    [
        (*cdk_rhs(F(1, 2), F(1, 2)), True),
        (*cdk_rhs(F(7, 10), 1), True),
        (Y, X**3, True),
        (Y, X**2, True),
        (Y, BiPoly.zero(), True),
        (F(2, 3) * X - F(4, 9) * Y, F(1, 1) * X - F(2, 3) * Y + X**2, True),
        (X, Y, False),
        (X + 1, Y, False),
        (Y, -X, False),
        (F(1, 2) * X + Y, F(-1, 4) * X - F(1, 2) * Y + F(1, 5), False),
        (F(1, 2) * X, F(-1, 3) * Y, False),
    ],
)
def test_nilpotent_origin_verdict_is_the_jacobian_one(P, Q, nilpotent):
    assert is_nilpotent_origin(P, Q) is nilpotent
    assert _nilpotent_by_jacobian(P, Q) is nilpotent


@settings(derandomize=True, database=None, deadline=None)
@given(_oracle_poly, _oracle_poly)
def test_nilpotent_origin_agrees_with_the_jacobian_on_random_fields(a, b):
    P, Q = BiPoly(a), BiPoly(b)
    assert is_nilpotent_origin(P, Q) == _nilpotent_by_jacobian(P, Q)


def test_subst_monomials_refuses_to_merge_or_drop_a_term():
    p = X + Y + X * Y
    with pytest.raises(DomainError):
        p.subst_monomials((1, 1, 0), (1, 1, 0))  # x and y both to x: x + y would merge
    with pytest.raises(DomainError):
        p.subst_monomials((1, 1, 0), (1, 0, 1), (1, 0, -1))  # x has no factor y to divide by
    with pytest.raises(DomainError):
        p.subst_monomials((0, 1, 0), (1, 0, 1))  # a zero coefficient would drop terms
    # Laurent monomials are fine while every product term stays a monomial: z^2 p(1/z, u/z)
    assert p.subst_monomials((1, 0, -1), (1, 1, -1), (1, 0, 2)) == BiPoly({(0, 1): 1, (1, 1): 1, (1, 0): 1})
    assert (X**2 * Y).div_monomial("x", 2) == Y and (X * Y**3).div_monomial("y", 1) == X * Y**2
    with pytest.raises(DomainError):
        (X + Y).div_monomial("x", 1)
