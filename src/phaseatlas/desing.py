"""Rational planar systems and their trajectory-equivalent polynomial fields.

A rational system ẋ = p/q, ẏ = r/s (p,q,r,s bivariate polynomials, both
fractions reduced) is turned into the polynomial field

    ẋ = q̄·p,  ẏ = s̄·r,       ℓ = lcm(q, s) = q·q̄ = s·s̄,

which has the same trajectories off the zero set of the denominators; the
multiplier ℓ records how the time parametrisation was stretched.  For
reduced inputs gcd(ℓ, q̄p, s̄r) = 1, i.e. the construction is minimal; a
residual common factor is nevertheless removed defensively.

Also provides the two built-in fixtures: the CDK system

    ẋ = xy/(x²+y²) − ax,   ẏ = y²/(x²+y²) − by + b − 1     (a, b > 0)

and the logarithmic Sprott system, which is not rational and therefore
lives outside the symbolic pipeline as an evaluable field object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DomainError, UndefinedPointError
from .polycore import BiPoly, X, Y, as_rational, poly_divexact, poly_gcd, poly_lcm, reduce_fraction


@dataclass(frozen=True)
class RationalField:
    """Planar system ẋ = p/q, ẏ = r/s with both fractions kept reduced."""

    p: BiPoly
    q: BiPoly
    r: BiPoly
    s: BiPoly

    def __post_init__(self):
        p, q = reduce_fraction(self.p, self.q)
        r, s = reduce_fraction(self.r, self.s)
        for key, value in (("p", p), ("q", q), ("r", r), ("s", s)):
            object.__setattr__(self, key, value)

    def eval(self, x, y):
        """Exact value of (p/q, r/s); raises off the domain."""
        qv, sv = self.q.eval(x, y), self.s.eval(x, y)
        if qv == 0 or sv == 0:
            raise UndefinedPointError(f"field undefined at ({x}, {y})")
        return (self.p.eval(x, y) / qv, self.r.eval(x, y) / sv)


@dataclass(frozen=True)
class PolyField:
    """Polynomial planar field (P, Q) with the time multiplier that produced it."""

    P: BiPoly
    Q: BiPoly
    time_factor: BiPoly = field(default_factory=lambda: BiPoly.const(1))
    provenance: tuple = ("general",)

    def eval(self, x, y):
        return (self.P.eval(x, y), self.Q.eval(x, y))

    def eval_float(self, x: float, y: float) -> tuple[float, float]:
        return (self.P.eval(float(x), float(y)), self.Q.eval(float(x), float(y)))

    def compiled(self):
        """Fast float evaluator (x, y) -> (u, v) for the numeric pipeline."""
        ptab = [(float(c), i, j) for (i, j), c in self.P.terms.items()]
        qtab = [(float(c), i, j) for (i, j), c in self.Q.terms.items()]

        def rhs(x: float, y: float) -> tuple[float, float]:
            u = 0.0
            for c, i, j in ptab:
                u += c * x**i * y**j
            v = 0.0
            for c, i, j in qtab:
                v += c * x**i * y**j
            return u, v

        return rhs

    def jacobian_polys(self):
        return (self.P.diff_x(), self.P.diff_y(), self.Q.diff_x(), self.Q.diff_y())

    def max_degree(self) -> int:
        return max(self.P.total_degree(), self.Q.total_degree())

    def shifted(self, dx, dy) -> "PolyField":
        """Field in coordinates centred at (dx, dy); exact recomposition."""
        dx, dy = as_rational(dx), as_rational(dy)
        return PolyField(
            self.P.shift(dx, dy),
            self.Q.shift(dx, dy),
            self.time_factor.shift(dx, dy),
            self.provenance + (("shift", dx, dy),),
        )


def cdk_rational_field(a, b) -> RationalField:
    """The CDK system with concrete positive rational parameters."""
    a, b = as_rational(a), as_rational(b)
    if a <= 0 or b <= 0:
        raise DomainError("CDK parameters must be positive")
    den = X**2 + Y**2
    p = X * Y - a * (X**3 + X * Y**2)
    r = Y**2 - (b * Y - b + 1) * den
    return RationalField(p, den, r, den)


def desingularize(f: RationalField) -> PolyField:
    """Trajectory-equivalent polynomial field with multiplier lcm(q, s)."""
    ell = poly_lcm(f.q, f.s)
    qbar = poly_divexact(ell, f.q)
    sbar = poly_divexact(ell, f.s)
    P = qbar * f.p
    Q = sbar * f.r
    # minimal-generator property makes this gcd constant for reduced inputs;
    # strip a residual factor anyway so the invariant is unconditional
    g = poly_gcd(poly_gcd(P, Q) if not (P.is_zero() and Q.is_zero()) else ell, ell)
    if not g.is_constant():
        P, Q, ell = poly_divexact(P, g), poly_divexact(Q, g), poly_divexact(ell, g)
    return PolyField(P, Q, time_factor=ell, provenance=("general",))


def cdk_poly_field(a, b) -> PolyField:
    """Desingularized CDK field ẋ = xy − a(x³+xy²), ẏ = y² − (by−b+1)(x²+y²)."""
    a, b = as_rational(a), as_rational(b)
    f = desingularize(cdk_rational_field(a, b))
    return PolyField(f.P, f.Q, f.time_factor, provenance=("cdk", a, b))


# -- Sprott logarithmic fixture -------------------------------------------------


class SprottField:
    """The logarithmic system ẋ = ½ln x² − y, ẏ = ½ln x² + x.

    Not expressible in the rational grammar, hence a closure-style field:
    `original` is undefined on the y-axis, `multiplied` (both components
    times x²) extends continuously by (0, 0) there and is C¹ on the plane.
    Excluded from all symbolic operations.
    """

    name = "sprott"

    def original(self, x: float, y: float) -> tuple[float, float]:
        if x == 0:
            raise UndefinedPointError("logarithmic field undefined on x = 0")
        half_log = math.log(abs(x))
        return (half_log - y, half_log + x)

    def multiplied(self, x: float, y: float) -> tuple[float, float]:
        if x == 0.0:
            return (0.0, 0.0)
        half_log = math.log(abs(x))
        x2 = x * x
        return (x2 * (half_log - y), x2 * (half_log + x))

    # callable protocol used by the integrator: multiplied field, defined everywhere
    def __call__(self, x: float, y: float) -> tuple[float, float]:
        return self.multiplied(x, y)

    def fixed_point(self) -> tuple[float, float]:
        """Unique stationary point (w, −w) with w·e^w = 1 (the omega constant)."""
        w = 0.5
        for _ in range(60):
            # Newton for g(w) = w e^w − 1
            ew = math.exp(w)
            step = (w * ew - 1.0) / (ew * (1.0 + w))
            w -= step
            if abs(step) < 1e-16:
                break
        return (w, -w)

    def jacobian_original(self, x: float, y: float):
        if x == 0:
            raise UndefinedPointError("logarithmic field undefined on x = 0")
        return ((1.0 / x, -1.0), (1.0 / x + 1.0, 0.0))


def sprott_field() -> SprottField:
    return SprottField()


BUILTIN_FIXTURES = ("cdk", "sprott")
