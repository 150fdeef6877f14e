"""Quasi-homogeneous directional blow-ups and the local sector structure.

A nilpotent stationary point at the origin is resolved by the four
directional substitutions with weights (α, β) from the Newton polygon:

    +x: (x, y) = ( x̄^α, x̄^β ȳ)        −x: (x, y) = (−x̄^α, x̄^β ȳ)
    +y: (x, y) = ( x̄ ȳ^α, ȳ^β)        −y: (x, y) = ( x̄ ȳ^α, −ȳ^β)

Differentiating the substitution puts the structural factor α·v^(α+β−1)
(x-directions) resp. β·v^(α+β−1) (y-directions) under the pulled-back
field, v being the radial chart variable; the chart field then sheds the
largest common monomial power v^k that keeps the exceptional divisor
{v = 0} invariant.  The shed factor is recorded so the pullback can be
reconstituted exactly.

Exchanging x and y turns the ±y substitutions into the ±x ones with the
weights exchanged, and P and Q; the ±y chart is built by that mirror image.
A substitution maps monomials to monomials, so it re-keys the terms.

`blowup_origin` builds +x and +y, −x only if α is even, −y only if β is
even.  Else the minus chart is F₋(z) = s·D·F₊(D·z), a sign on each term,
with s = (−1)^k and D = diag(−1, (−1)^β) for −x, diag((−1)^α, −1) for −y;
its divisor points are D·z, with Jacobians s·D·J·D.

Sector assembly walks the divisor stationary points of the four charts in
counterclockwise order, samples the divisor flow on each open arc (exact
rational signs), and classifies each arc by the radial stability of its
flow source and sink: source repelling + sink attracting gives an elliptic
sector, attracting + repelling a hyperbolic one, equal signs a parabolic
one.  The Bendixson count 1 + (elliptic − hyperbolic)/2 is the index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .desing import PolyField
from .equilibria import ClassificationKind, classify_point, jacobian_at
from .errors import DomainError, InternalInconsistencyError, PreconditionError, UnresolvedError
from .polycore import (
    BiPoly,
    NewtonWeights,
    axis_restriction,
    divisor_power,
    newton_weights,
    real_roots,
)

DIRECTIONS = ("+x", "-x", "+y", "-y")


def blow_down(direction: str, weights, xb, yb):
    """Plane point of the chart point (x̄, ȳ) of a directional blow-up."""
    alpha, beta = weights
    if direction == "+x":
        return (xb**alpha, xb**beta * yb)
    if direction == "-x":
        return (-(xb**alpha), xb**beta * yb)
    if direction == "+y":
        return (xb * yb**alpha, yb**beta)
    return (xb * yb**alpha, -(yb**beta))


@dataclass(frozen=True)
class BlowupChart:
    """One directional blow-up: chart field plus exact bookkeeping.

    The chart field (px, py) relates to the plane field F by

        dφ · (cancelled_coeff · v^cancelled_power · (px, py)) = F ∘ φ

    where φ is `substitution` and v the radial variable (x̄ in x-direction
    charts, ȳ in y-direction charts).
    """

    direction: str
    weights: NewtonWeights
    px: BiPoly
    py: BiPoly
    cancelled_coeff: Fraction
    cancelled_power: int

    @property
    def radial_var(self) -> str:
        return "x" if self.direction in ("+x", "-x") else "y"

    def field(self) -> PolyField:
        return PolyField(self.px, self.py, provenance=("blowup", self.direction, tuple(self.weights)))

    def substitution(self, u, v):
        """Plane point of the chart point (x̄, ȳ) = (u, v)."""
        return blow_down(self.direction, self.weights, u, v)

    def substitution_jacobian(self, u, v):
        alpha, beta = self.weights
        sv = 1 if self.direction[0] == "+" else -1
        if self.radial_var == "x":
            return ((sv * alpha * u ** (alpha - 1), 0 * u), (beta * u ** (beta - 1) * v, u**beta))
        return ((v**alpha, alpha * v ** (alpha - 1) * u), (0 * v, sv * beta * v ** (beta - 1)))


def blowup_directional(f: PolyField, direction: str, w: NewtonWeights) -> BlowupChart:
    """Blow up the origin of f in one direction with the given weights."""
    if direction not in DIRECTIONS:
        raise DomainError(f"unknown blow-up direction {direction!r}")
    if f.P.eval(0, 0) != 0 or f.Q.eval(0, 0) != 0:
        raise PreconditionError("origin is not a stationary point of the field")
    alpha, beta = w
    sv, var = (1 if direction[0] == "+" else -1), direction[1]
    # φ: x^i y^j -> sv^i x^(αi+βj) y^j; xdot = sv*P∘φ/(α x^(α-1)), ydot over α*x^(α+β-1)
    if var == "x":
        phi = ((sv, alpha, 0), (1, beta, 1))
        n1 = f.P.subst_monomials(*phi, (sv, beta, 0))
        n2 = (f.Q.subst_monomials(*phi, (alpha, alpha - 1, 0))
              - f.P.subst_monomials(*phi, (sv * beta, beta - 1, 1)))
    else:  # the same with x and y, P and Q, α and β exchanged
        phi = ((1, 1, alpha), (sv, 0, beta))
        n1 = f.Q.subst_monomials(*phi, (sv, 0, alpha))
        n2 = (f.P.subst_monomials(*phi, (beta, 0, beta - 1))
              - f.Q.subst_monomials(*phi, (sv * alpha, 1, alpha - 1)))
    s = divisor_power(n1, n2, var)
    n1, n2 = n1.div_monomial(var, s), n2.div_monomial(var, s)
    return BlowupChart(direction, w, *((n1, n2) if var == "x" else (n2, n1)),
                       cancelled_coeff=Fraction(1, alpha if var == "x" else beta),
                       cancelled_power=s - (alpha + beta - 1))


# -- stationary points on the exceptional divisor ---------------------------------


@dataclass(frozen=True)
class DivisorPoint:
    """A stationary point of a chart field on its exceptional divisor."""

    direction: str
    coordinate: object  # Fraction (exact) or float, along the divisor
    exact: bool
    jacobian: tuple
    kind: ClassificationKind
    radial_eigenvalue: object
    tangential_eigenvalue: object

    def label(self) -> str:
        if self.coordinate == 0:
            return self.direction
        return f"{self.direction}:{self.coordinate}"


@dataclass(frozen=True)
class DivisorContinuum:
    direction: str
    kind: ClassificationKind


def _divisor_restriction(chart: BlowupChart):
    """Tangential component on the divisor, as coefficient list; None if dicritical."""
    radial, tang = (chart.px, chart.py) if chart.radial_var == "x" else (chart.py, chart.px)
    # invariance: the radial component must vanish identically on the divisor
    if axis_restriction(radial, chart.radial_var):
        return None
    return axis_restriction(tang, chart.radial_var)


def _chart_point(chart: BlowupChart, u):
    return (0, u) if chart.radial_var == "x" else (u, 0)


def divisor_stationary_points(chart: BlowupChart):
    """Real stationary points of the chart field on its exceptional divisor.

    Complex roots are reflected only in the returned count.  A divisor made
    entirely of stationary points comes back as a DivisorContinuum.
    """
    coeffs = _divisor_restriction(chart)
    if coeffs is None:
        raise PreconditionError(
            f"divisor of the {chart.direction} chart is not invariant (dicritical blow-up)"
        )
    if coeffs == []:
        return [DivisorContinuum(chart.direction, ClassificationKind("degenerate_curve"))], 0

    exact, floats, complex_count = real_roots(coeffs)
    f = chart.field()
    points = [_divisor_point(chart, f, u, jacobian_at(f, _chart_point(chart, u))) for u in exact + floats]
    return points, complex_count


def _divisor_point(chart: BlowupChart, f: PolyField, u, J) -> DivisorPoint:
    kind = classify_point(f, _chart_point(chart, u), J)
    lam_r, lam_t = (J[0][0], J[1][1]) if chart.radial_var == "x" else (J[1][1], J[0][0])
    return DivisorPoint(chart.direction, u, isinstance(u, Fraction), J, kind, lam_r, lam_t)


def _antipode(plus: BlowupChart, plus_divisor):
    """The minus chart of a plus chart with odd radial weight, and its divisor points."""
    D = (-1, (-1) ** plus.weights[1]) if plus.radial_var == "x" else ((-1) ** plus.weights[0], -1)
    s = -1 if plus.cancelled_power % 2 else 1
    X, Y = (D[0], 1, 0), (D[1], 0, 1)
    px, py = (poly.subst_monomials(X, Y, (s * d, 0, 0)) for poly, d in zip((plus.px, plus.py), D))
    minus = replace(plus, direction="-" + plus.direction[1], px=px, py=py)
    pts, complex_count = plus_divisor
    if pts and isinstance(pts[0], DivisorContinuum):
        return minus, ([replace(pts[0], direction=minus.direction)], complex_count)
    # s·D·J·D: the diagonal times s, the off-diagonal times s·D₁·D₂; 0 - v, not -v,
    # so a float +0.0 stays +0.0, as the minus chart's own evaluation gives
    f, t, o = minus.field(), D[plus.radial_var == "x"], s * D[0] * D[1]
    signs, points = ((s, o), (o, s)), []
    for p in pts:
        J = tuple(tuple(v if g > 0 else 0 - v for g, v in zip(gs, row)) for gs, row in zip(signs, p.jacobian))
        points.append(_divisor_point(minus, f, t * p.coordinate, J))
    return minus, (sorted(points, key=lambda p: (not p.exact, p.coordinate)), complex_count)


# -- sector assembly ------------------------------------------------------------------


@dataclass(frozen=True)
class Sector:
    kind: str  # "elliptic" | "hyperbolic" | "parabolic"
    start: str  # label of the bounding divisor point, ccw start
    end: str
    start_angle: float
    end_angle: float
    halfplane: str  # "upper" | "lower"
    stability: str | None = None  # parabolic only: "attracting" | "repelling"


@dataclass(frozen=True)
class SectorDecomposition:
    sectors: tuple
    homoclinic: bool
    index: int
    weights: NewtonWeights
    boundary_directions: tuple = ()  # (chart_direction, coordinate, label, angle)

    def counts(self):
        e = sum(1 for s in self.sectors if s.kind == "elliptic")
        h = sum(1 for s in self.sectors if s.kind == "hyperbolic")
        p = sum(1 for s in self.sectors if s.kind == "parabolic")
        return e, h, p

    def boundary_seeds(self, r: float):
        """One plane point per characteristic direction, at curve radius r.

        A divisor point at coordinate u of an x-direction chart blows down
        to the curve y = u·(±x)^β; seeds sit on those curves close to the
        origin, where separatrix tracing starts.
        """
        seeds = []
        for direction, u, label, _ in self.boundary_directions:
            chart_point = (r, float(u)) if direction in ("+x", "-x") else (float(u), r)
            seeds.append((label, blow_down(direction, self.weights, *chart_point)))
        return seeds


def _nominal_angle(direction: str, u) -> float:
    uf = float(u)
    if direction == "+x":
        return math.atan(uf)
    if direction == "-x":
        return math.pi - math.atan(uf)
    if direction == "+y":
        return math.pi / 2
    return 3 * math.pi / 2


@dataclass(frozen=True)
class _CycleEntry:
    point: DivisorPoint
    angle: float

    @property
    def radial_sign(self) -> int:
        lam = self.point.radial_eigenvalue
        if lam > 0:
            return 1
        if lam < 0:
            return -1
        raise UnresolvedError(
            f"zero radial eigenvalue at divisor point {self.point.label()}",
            partial=self.point,
        )


def _arc_samples(entries, i, charts):
    """Sampling positions for the open arc between cycle entries i and i+1.

    Each sample is (chart, u, ccw_orientation): in the +x chart increasing u
    moves counterclockwise, in the -x chart it moves clockwise.  An arc that
    spans several charts gets one sample near each end; the divisor flow has
    no zero in the open arc, so all samples must agree on its direction.
    """
    a = entries[i]
    b = entries[(i + 1) % len(entries)]
    da, db = a.point.direction, b.point.direction
    ua, ub = a.point.coordinate, b.point.coordinate

    # consecutive roots inside one x-chart: a single interior sample decides
    if da == db == "+x" and ub > ua:
        return [(charts["+x"], (ua + ub) / 2, +1)]
    if da == db == "-x" and ub < ua:
        return [(charts["-x"], (ua + ub) / 2, -1)]

    samples = []
    if da == "+x":  # arc leaves the +x chart upward (ccw = increasing u)
        samples.append((charts["+x"], ua + 1, +1))
    elif da == "-x":  # arc leaves the -x chart downward (ccw = decreasing u)
        samples.append((charts["-x"], ua - 1, -1))
    if db == "+x":  # arc arrives from below in the +x chart
        samples.append((charts["+x"], ub - 1, +1))
    elif db == "-x":  # arc arrives from above in the -x chart
        samples.append((charts["-x"], ub + 1, -1))
    if not samples:
        # arc between axis points only: +y -> -y passes the -x chart going
        # ccw, -y -> +y passes the +x chart; the chart has no divisor roots
        # on that side, so any sample height works
        if (da, db) == ("+y", "-y"):
            samples.append((charts["-x"], Fraction(0), -1))
        elif (da, db) == ("-y", "+y"):
            samples.append((charts["+x"], Fraction(0), +1))
        elif da == db:  # single-entry cycle: one full loop around the divisor
            samples.append((charts["+x"], Fraction(0), +1))
            samples.append((charts["-x"], Fraction(0), -1))
        else:
            raise InternalInconsistencyError(f"unexpected arc {da} -> {db}")
    return samples


def _arc_flow_ccw(samples) -> bool:
    verdicts = []
    for chart, u, orient in samples:
        tang = chart.py if chart.radial_var == "x" else chart.px
        t = tang.eval(*_chart_point(chart, u))
        if t == 0:
            raise InternalInconsistencyError(
                f"divisor flow vanishes at sample {u} of the {chart.direction} chart"
            )
        verdicts.append((t > 0) == (orient > 0))
    if len(set(verdicts)) != 1:
        raise InternalInconsistencyError("inconsistent divisor flow across chart overlap")
    return verdicts[0]


# the counterclockwise walk around the divisor: +x ascending, the +y axis
# point, -x descending, the -y axis point
_CYCLE_ORDER = (("+x", 1), ("+y", 0), ("-x", -1), ("-y", 0))


def blowup_origin(f: PolyField):
    """(weights, charts, divisor) of a nilpotent origin, each built once.

    The Newton-polygon weights; the four directional charts by direction,
    in DIRECTIONS order; and `divisor_stationary_points` of each chart.
    """
    w = newton_weights(f.P, f.Q)  # raises PreconditionError unless the origin is nilpotent
    charts, divisor = {}, {}
    for d in DIRECTIONS:  # each minus chart after its plus chart
        if d[0] == "-" and w[d == "-y"] % 2:
            charts[d], divisor[d] = _antipode(charts["+" + d[1]], divisor["+" + d[1]])
        else:
            charts[d] = blowup_directional(f, d, w)
            divisor[d] = divisor_stationary_points(charts[d])
    return w, charts, divisor


def classify_nilpotent_origin(f: PolyField) -> SectorDecomposition:
    """Sector structure of an isolated nilpotent stationary point at the origin."""
    return assemble_sectors(*blowup_origin(f))


def assemble_sectors(w: NewtonWeights, charts, divisor) -> SectorDecomposition:
    """Sector cycle of the blown-up nilpotent origin that `blowup_origin` returns.

    Walks the divisor stationary points of the four charts around the
    divisor, classifies the arc between each two, and assembles the sectors
    by blow-down.  Raises UnresolvedError when a divisor point is itself
    non-elementary or when the divisor carries a continuum.
    """
    cycle: list[_CycleEntry] = []
    for d, order in _CYCLE_ORDER:
        pts, _ = divisor[d]
        if pts and isinstance(pts[0], DivisorContinuum):
            raise UnresolvedError("continuum of stationary points on the divisor", partial=pts[0])
        if order:
            pts = sorted(pts, key=lambda p: order * float(p.coordinate))
        else:
            pts = [p for p in pts if p.coordinate == 0]
        cycle.extend(_CycleEntry(p, _nominal_angle(d, p.coordinate)) for p in pts)

    if not cycle:
        # no characteristic directions: monodromic point (focus/center-like)
        return SectorDecomposition(sectors=(), homoclinic=False, index=1, weights=w)

    for entry in cycle:
        if entry.point.kind.name in ("nilpotent", "degenerate_curve"):
            raise UnresolvedError(
                f"divisor point {entry.point.label()} is non-elementary",
                partial=charts,
            )

    sectors = []
    n = len(cycle)
    for i in range(n):
        a, b = cycle[i], cycle[(i + 1) % n]
        ccw = _arc_flow_ccw(_arc_samples(cycle, i, charts))
        src, dst = (a, b) if ccw else (b, a)
        s_src, s_dst = src.radial_sign, dst.radial_sign
        if s_src > 0 and s_dst < 0:
            kind, stab = "elliptic", None
        elif s_src < 0 and s_dst > 0:
            kind, stab = "hyperbolic", None
        elif s_src > 0:
            kind, stab = "parabolic", "repelling"
        else:
            kind, stab = "parabolic", "attracting"
        span = (b.angle - a.angle) % (2 * math.pi)
        if span == 0.0:
            span = 2 * math.pi
        mid = (a.angle + span / 2) % (2 * math.pi)
        halfplane = "upper" if math.sin(mid) > 0 else "lower"
        sectors.append(
            Sector(
                kind=kind,
                start=a.point.label(),
                end=b.point.label(),
                start_angle=a.angle,
                end_angle=b.angle,
                halfplane=halfplane,
                stability=stab,
            )
        )

    e = sum(1 for s in sectors if s.kind == "elliptic")
    h = sum(1 for s in sectors if s.kind == "hyperbolic")
    if (e - h) % 2 != 0:
        raise InternalInconsistencyError(
            f"sector cycle has odd elliptic-hyperbolic difference {e - h}"
        )
    index = 1 + (e - h) // 2
    boundary = tuple(
        (c.point.direction, float(c.point.coordinate), c.point.label(), c.angle)
        for c in cycle
    )
    return SectorDecomposition(
        sectors=tuple(sectors),
        homoclinic=e > 0,
        index=index,
        weights=w,
        boundary_directions=boundary,
    )
