"""Poincaré compactification: chart fields, infinite points, disc coordinates.

The plane embeds into the unit sphere; the equator carries the directions
at infinity.  Four affine charts cover it: U1/V1 the front and back (±x)
hemispheres via (x, y) = (1/z, u/z), U2/V2 the right and left (±y) ones
via (x, y) = (u/z, 1/z), with z > 0 on U1/U2 and z < 0 on V1/V2.  For a
field of maximal degree d the chart field, after the time rescaling
|z|^(d-1), is

    U1:  u̇ = z^d (Q − u·P)(1/z, u/z),    ż = −z^(d+1) P(1/z, u/z)
    U2:  u̇ = z^d (P − u·Q)(u/z, 1/z),    ż = −z^(d+1) Q(u/z, 1/z)

with V1/V2 equal to U1/U2 times s = (−1)^(d−1); in the charts −(1/z, u/z)
and −(u/z, 1/z) with z > 0 their Jacobians' off-diagonals change sign.  The
divisor {z = 0} is the equator; its stationary points are the roots of u̇(u, 0).

Only U1 and U2 are built.  Exchanging x and y turns U2 into U1: the U2
chart of (P, Q) is the U1 chart of its mirror image `PolyField.swapped`,
(Q(y, x), P(y, x)), so one construction serves both.  A V point is the
antipode of a U point: the same u, and the U Jacobian times s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .desing import PolyField
from .equilibria import ClassificationKind, classify_linear, jacobian_at
from .errors import DomainError, PreconditionError
from .polycore import axis_restriction, divisor_power, real_roots

# chart -> the axis direction of its u = 0 divisor point, and its antipodal chart
_CHART_AXIS = {"U1": "+x", "V1": "-x", "U2": "+y", "V2": "-y"}
_ANTIPODE = {"U1": "V1", "V1": "U1", "U2": "V2", "V2": "U2"}

# chart -> (polar angle of its u = 0 point, sign of dθ/du): the chart maps
# send u to the plane directions (1, u), (-1, -u), (u, 1) and (-u, -1)
_CHART_ANGLE = {"U1": (0.0, 1), "V1": (math.pi, 1), "U2": (math.pi / 2, -1), "V2": (-math.pi / 2, -1)}


@dataclass(frozen=True)
class InfinitePoint:
    """A stationary point on the equator of the Poincaré sphere."""

    chart: str
    u: object  # Fraction or float position on the divisor
    direction_label: str  # "+x" | "-x" | "+y" | "-y" | "slope"
    jacobian: tuple
    kind: ClassificationKind

    @property
    def exact(self) -> bool:
        return isinstance(self.u, Fraction)

    @property
    def transverse_eigenvalue(self):
        return self.jacobian[1][1]

    @property
    def antipode_chart(self) -> str:
        return _ANTIPODE[self.chart]

    def angle(self) -> float:
        """Polar angle of the plane direction this equator point represents."""
        base, sign = _CHART_ANGLE[self.chart]
        return base + sign * math.atan(float(self.u))


@dataclass(frozen=True)
class InfinityContinuum:
    """Every equator point is stationary (the a = b case of the CDK family)."""

    tangential_eigenvalue: object  # identically zero along the divisor
    sample_transverse: tuple  # ((u, eigenvalue), ...) at sample positions

    def one_outgoing_trajectory_each(self) -> bool:
        return all(lam > 0 for _, lam in self.sample_transverse)


def compactify_chart(f: PolyField, chart: str) -> PolyField:
    """U1 or U2 chart field of the compactified system, common z-power cancelled."""
    if chart not in ("U1", "U2"):
        raise DomainError(f"unknown chart {chart!r}: only U1 and U2 are built")
    if chart == "U2":  # U2 is U1 of the field with x and y exchanged
        f = f.swapped()
    d = f.max_degree()
    if d < 0:
        raise PreconditionError("cannot compactify the zero field")

    # u̇ = z^d (Q - u P)(1/z, u/z), ż = -z^(d+1) P(1/z, u/z): x^i y^j -> u^j z^(d-i-j)
    phi = ((1, 0, -1), (1, 1, -1))
    pu = f.Q.subst_monomials(*phi, (1, 0, d)) - f.P.subst_monomials(*phi, (1, 1, d))
    pz = f.P.subst_monomials(*phi, (-1, 0, d + 1))

    # cancel a shared z power, keeping the divisor {z = 0} invariant
    s = divisor_power(pz, pu, "y")
    pu, pz = pu.div_monomial("y", s), pz.div_monomial("y", s)
    return PolyField(pu, pz, provenance=("compactified", chart))


class PoincareCharts(dict):
    """The U1 and U2 chart fields of one polynomial field, each built on first lookup."""

    def __init__(self, f: PolyField):
        super().__init__()
        self.field = f

    def __missing__(self, chart: str) -> PolyField:
        self[chart] = cf = compactify_chart(self.field, chart)
        return cf

    def divisor_polynomial(self, chart: str) -> list[Fraction]:
        """Coefficients (ascending) of u̇(u, 0) in the chart."""
        return axis_restriction(self[chart].P, "y")


def infinite_stationary_points(f: PolyField):
    """Classified stationary points at infinity of f, or a continuum marker."""
    return points_at_infinity(PoincareCharts(f))


def points_at_infinity(charts: PoincareCharts):
    """Classified stationary points at infinity, or a continuum marker.

    Points are listed per direction chart (U1 = +x, U2 = +y, V1 = −x,
    V2 = −y); slope points (u ≠ 0) appear in the x-direction charts for
    |u| <= 1 and in the y-direction charts otherwise, so each equator
    point is reported exactly once per hemisphere end, with its antipodal
    partner chart recorded.  Only U1 and U2 are built: a V point is the
    antipode of a U point, with its u and its Jacobian times (−1)^(d−1).
    A continuum is decided on U1 alone.
    """
    if not any(charts.divisor_polynomial("U1")):
        # every equator point stationary: report the structure along it
        samples = tuple((u, jacobian_at(charts["U1"], (u, Fraction(0)))[1][1])
                        for u in (Fraction(0), Fraction(1), Fraction(-1), Fraction(2)))
        return InfinityContinuum(tangential_eigenvalue=Fraction(0), sample_transverse=samples)

    found = []
    for chart in ("U1", "U2"):
        exact, floats, _ = real_roots(charts.divisor_polynomial(chart))
        for u in exact + floats:
            au = abs(float(u))
            if u != 0 and ((chart == "U1" and au > 1) or (chart == "U2" and au >= 1)):
                continue  # the other chart family owns this slope
            found.append((chart, u, jacobian_at(charts[chart], (u, 0))))
    odd = charts.field.max_degree() % 2  # then s = (−1)^(d−1) is 1
    # s = −1 takes 0 - v, not -v: a float +0.0 stays +0.0, as the V chart's own evaluation gives
    found += [(_ANTIPODE[c], u, J if odd else tuple(tuple(0 - v for v in row) for row in J))
              for c, u, J in found]
    return [InfinitePoint(chart, u, _CHART_AXIS[chart] if u == 0 else "slope", J, classify_linear(J))
            for chart, u, J in found]


# -- Poincaré disc coordinates -----------------------------------------------------


def disc_coords(z) -> tuple[float, float]:
    """Diffeomorphism of the plane onto the open unit disc.

    The central projection onto the Poincaré sphere followed by vertical
    projection: p -> p / sqrt(1 + |p|²), see `disc_points`.
    """
    return next(disc_points([(float(z[0]), float(z[1]))]))


def disc_points(points):
    """`disc_coords` of each float point (x, y), lazily; r = hypot(1, x, y) where 1 + x² + y² overflows."""
    for x, y in points:
        r = math.sqrt(1.0 + x * x + y * y)
        if r == math.inf:  # a finite point far out: hypot does not overflow, and is inf where x or y is
            r = math.hypot(1.0, x, y)
        yield x / r, y / r


def boundary_point(direction_angle: float) -> tuple[float, float]:
    """Point on the disc boundary for a direction at infinity."""
    return (math.cos(direction_angle), math.sin(direction_angle))
