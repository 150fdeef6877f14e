import random
from fractions import Fraction

import pytest

from phaseatlas.errors import DomainError, PreconditionError
from phaseatlas.polycore import (
    BiPoly,
    NewtonWeights,
    X,
    Y,
    format_poly,
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


def test_eval_float_horner_matches_exact():
    rng = random.Random(7)
    for _ in range(50):
        p = random_poly(rng)
        x = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
        y = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
        assert p.eval(float(x), float(y)) == pytest.approx(float(p.eval(x, y)), rel=1e-12, abs=1e-12)


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


# -- homogeneous decomposition -------------------------------------------------


def test_homogeneous_parts_of_cdk_y_component():
    _, q = cdk_rhs(Fraction(1, 2), Fraction(1, 2))
    b = Fraction(1, 2)
    assert q.homogeneous_part(2) == b * Y**2 + (b - 1) * X**2
    assert q.homogeneous_part(3) == -b * (Y**3 + Y * X**2)


def test_homogeneous_part_absent_degree():
    assert (X + 1).homogeneous_part(5).is_zero()


def test_homogeneous_parts_reconstruct():
    rng = random.Random(5)
    for _ in range(30):
        p = random_poly(rng, 4, 8)
        total = BiPoly.zero()
        for d in range(p.total_degree() + 1):
            total = total + p.homogeneous_part(d)
        assert total == p


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
    # x^2 (x - 1): the double root at 0 is split off before the search
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


def test_real_roots_zero_polynomial_rejected():
    for coeffs in ([], [F(0), F(0)]):
        with pytest.raises(DomainError):
            real_roots(coeffs)


def test_reduce_fraction_normalizes_denominator():
    n, d = reduce_fraction((X - Y) * X, -2 * (X - Y) * (X**2 + 1))
    assert d == X**2 + 1
    assert n == F(-1, 2) * X
    assert reduce_fraction(BiPoly.zero(), 3 * X + 1) == (BiPoly.zero(), BiPoly.const(1))
