"""Poincaré compactification: chart fields, infinite points, disc coordinates.

The plane embeds into the unit sphere; the equator carries the directions
at infinity.  Work happens in four affine charts: U1/V1 cover the front
and back (±x) hemispheres via (x, y) = (±1/z, ±u/z), U2/V2 the right and
left (±y) ones via (x, y) = (±u/z, ±1/z).  For a field of maximal degree d
the chart field, after the standard z^(d-1) time rescaling, is

    U1:  u̇ = z^d (Q − u·P)(1/z, u/z),    ż = −z^(d+1) P(1/z, u/z)
    U2:  u̇ = z^d (P − u·Q)(u/z, 1/z),    ż = −z^(d+1) Q(u/z, 1/z)

with V1/V2 equal to U1/U2 times (−1)^(d−1).  The divisor {z = 0} is the
equator; its stationary points are the roots of u̇(u, 0).

Exchanging x and y turns U2 into U1: the U2 (V2) chart of (P, Q) is the
U1 (V1) chart of the swapped field (Q(y, x), P(y, x)), and that is how it
is built, so one construction serves all four charts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .desing import PolyField
from .equilibria import ClassificationKind, classify_linear, jacobian_at
from .errors import DomainError, PreconditionError
from .polycore import BiPoly, axis_restriction, divisor_power, real_roots

CHART_IDS = ("U1", "U2", "V1", "V2")

# chart -> the axis direction of its u = 0 divisor point
_CHART_AXIS = {"U1": "+x", "V1": "-x", "U2": "+y", "V2": "-y"}

# chart -> (polar angle of its u = 0 point, sign of dθ/du): the chart maps
# send u to the plane directions (1, u), (-1, -u), (u, 1) and (-u, -1)
_CHART_ANGLE = {
    "U1": (0.0, 1),
    "V1": (math.pi, 1),
    "U2": (math.pi / 2, -1),
    "V2": (-math.pi / 2, -1),
}


@dataclass(frozen=True)
class InfinitePoint:
    """A stationary point on the equator of the Poincaré sphere."""

    chart: str
    u: object  # Fraction or float position on the divisor
    exact: bool
    direction_label: str  # "+x" | "-x" | "+y" | "-y" | "slope"
    jacobian: tuple
    kind: ClassificationKind
    transverse_eigenvalue: object
    antipode_chart: str

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
    """Chart field of the compactified system, common z-power cancelled."""
    if chart not in CHART_IDS:
        raise DomainError(f"unknown chart {chart!r}")
    if chart in ("U2", "V2"):  # U2/V2 are U1/V1 of the field with x and y exchanged
        f = PolyField(f.Q.swapped(), f.P.swapped())
    d = f.max_degree()
    if d < 0:
        raise PreconditionError("cannot compactify the zero field")

    # u̇ = z^d (Q - u P)(1/z, u/z), ż = -z^(d+1) P(1/z, u/z): x^i y^j -> u^j z^(d-i-j)
    sign = 1 if chart in ("U1", "U2") else (-1) ** (d - 1)
    q_part = BiPoly({(j, d - i - j): c for (i, j), c in f.Q})
    up_part = BiPoly({(j + 1, d - i - j): c for (i, j), c in f.P})
    pu = (q_part - up_part) * sign
    pz = BiPoly({(j, d + 1 - i - j): -c for (i, j), c in f.P}) * sign

    # cancel a shared z power, keeping the divisor {z = 0} invariant
    s = divisor_power(pz, pu, "y")
    pu, pz = pu.div_monomial("y", s), pz.div_monomial("y", s)
    return PolyField(pu, pz, provenance=("compactified", chart))


class PoincareCharts(dict):
    """The chart fields of one polynomial field by chart id, each built on first lookup."""

    def __init__(self, f: PolyField):
        super().__init__()
        self.field = f

    def __missing__(self, chart: str) -> PolyField:
        self[chart] = cf = compactify_chart(self.field, chart)
        return cf

    def divisor_polynomial(self, chart: str) -> list[Fraction]:
        """Coefficients (ascending) of u̇(u, 0) in the chart."""
        return axis_restriction(self[chart].P, "y")


_ANTIPODE = {"U1": "V1", "V1": "U1", "U2": "V2", "V2": "U2"}


def infinite_stationary_points(f: PolyField):
    """Classified stationary points at infinity of f, or a continuum marker."""
    return points_at_infinity(PoincareCharts(f))


def points_at_infinity(charts: PoincareCharts):
    """Classified stationary points at infinity, or a continuum marker.

    Points are listed per direction chart (U1 = +x, V1 = −x, U2 = +y,
    V2 = −y); slope points (u ≠ 0) appear in the x-direction charts for
    |u| <= 1 and in the y-direction charts otherwise, so each equator
    point is reported exactly once per hemisphere end, with its antipodal
    partner chart recorded.  A continuum is decided on U1 alone, so no
    other chart is built for it.
    """
    if not any(charts.divisor_polynomial("U1")):
        # every equator point stationary: report the structure along it
        samples = []
        for u in (Fraction(0), Fraction(1), Fraction(-1), Fraction(2)):
            J = jacobian_at(charts["U1"], (u, Fraction(0)))
            samples.append((u, J[1][1]))
        return InfinityContinuum(
            tangential_eigenvalue=Fraction(0), sample_transverse=tuple(samples)
        )

    points = []
    for chart in CHART_IDS:
        cf = charts[chart]
        exact, floats, _ = real_roots(charts.divisor_polynomial(chart))
        for u in exact + floats:
            au = abs(float(u))
            in_x_chart = chart in ("U1", "V1")
            if u != 0 and ((in_x_chart and au > 1) or (not in_x_chart and au >= 1)):
                continue  # the other chart family owns this slope
            J = jacobian_at(cf, (u, 0))
            kind = classify_linear(J)
            label = _CHART_AXIS[chart] if u == 0 else "slope"
            points.append(
                InfinitePoint(
                    chart=chart,
                    u=u,
                    exact=isinstance(u, Fraction),
                    direction_label=label,
                    jacobian=J,
                    kind=kind,
                    transverse_eigenvalue=J[1][1],
                    antipode_chart=_ANTIPODE[chart],
                )
            )
    return points


# -- Poincaré disc coordinates -----------------------------------------------------


def disc_coords(z) -> tuple[float, float]:
    """Diffeomorphism of the plane onto the open unit disc.

    The central projection onto the Poincaré sphere followed by vertical
    projection: p -> p / sqrt(1 + |p|²).
    """
    x, y = float(z[0]), float(z[1])
    r = math.sqrt(1.0 + x * x + y * y)
    return (x / r, y / r)


def boundary_point(direction_angle: float) -> tuple[float, float]:
    """Point on the disc boundary for a direction at infinity."""
    return (math.cos(direction_angle), math.sin(direction_angle))
