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
weights exchanged: a ±y chart, and its blow-down, is the mirror image of the
±x one of `PolyField.swapped` with weights (β, α), so the ±x term map is the
only one written.  A substitution maps monomials to monomials: it re-keys terms.

`blowup_origin` builds +x and +y, −x only if α is even, −y only if β is
even.  Else the minus chart is F₋(z) = s·D·F₊(D·z), a sign on each term,
with s = (−1)^k and D = diag(−1, (−1)^β) for −x, diag((−1)^α, −1) for −y;
its divisor points are D·z, with Jacobians s·D·J·D.  The ±x charts cover
each ±y chart's divisor but for its point on the y-axis, u = 0 (Dumortier,
Llibre & Artés, *Qualitative Theory of Planar Differential Systems*, ch. 3),
so `divisor_stationary_points` isolates the roots of a ±x divisor and takes
a ±y chart's point at u = 0 alone.  `blowup_origin` scans each chart it
builds once, and every reader, the `blowup` printout included, reads that
record.

Sector assembly walks those divisor stationary points in
counterclockwise order, each chart's sorted by exact coordinate (+x
ascending, −x descending), samples the divisor flow on each open arc
(exact rational signs), and classifies each arc by the radial stability
of its flow source and sink: source repelling + sink attracting gives an
elliptic sector, attracting + repelling a hyperbolic one, equal signs a
parabolic one.  A sector's half-plane is the side of the x-axis of its
arc's middle, which the two end points' charts and an exact comparison
of their coordinates decide (`_upper`).  The index, the Bendixson count
1 + (elliptic − hyperbolic)/2, and the homoclinic flag, an elliptic
sector, are read off the sectors.
"""

from __future__ import annotations

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
    if direction[1] == "y":  # the mirror image of the ±x point (ȳ, x̄) with the weights exchanged
        y, x = blow_down(direction[0] + "x", weights[::-1], yb, xb)
        return (x, y)
    alpha, beta = weights
    return (xb**alpha if direction == "+x" else -(xb**alpha), xb**beta * yb)


@dataclass(frozen=True)
class BlowupChart:
    """One directional blow-up: chart field plus exact bookkeeping.

    The chart field (px, py) relates to the plane field F by

        dφ · (cancelled_coeff · v^cancelled_power · (px, py)) = F ∘ φ

    where φ is `blow_down` and v the radial variable (x̄ in x-direction
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


def blowup_directional(f: PolyField, direction: str, w: NewtonWeights) -> BlowupChart:
    """Blow up the origin of f in one direction with the given weights."""
    if direction not in DIRECTIONS:
        raise DomainError(f"unknown blow-up direction {direction!r}")
    if f.P.eval(0, 0) != 0 or f.Q.eval(0, 0) != 0:
        raise PreconditionError("origin is not a stationary point of the field")
    alpha, beta = w
    sv = 1 if direction[0] == "+" else -1
    if direction[1] == "x":
        chart, s = _x_chart(f, sv, alpha, beta)
    else:  # the ±x chart of the mirror image, with the weights exchanged, mirrored back
        chart, s = _x_chart(f.swapped(), sv, beta, alpha)
        chart = chart.swapped()
    return BlowupChart(direction, w, chart.P, chart.Q, Fraction(1, alpha if direction[1] == "x" else beta),
                       cancelled_power=s - (alpha + beta - 1))


def _x_chart(f: PolyField, sv: int, alpha: int, beta: int):
    """(chart field, shed power s) of the sv·x blow-up of f with weights (α, β): the one term map."""
    # φ: x^i y^j -> sv^i x^(αi+βj) y^j; xdot = sv*P∘φ/(α x^(α-1)), ydot over α*x^(α+β-1)
    phi = ((sv, alpha, 0), (1, beta, 1))
    n1 = f.P.subst_monomials(*phi, (sv, beta, 0))
    n2 = (f.Q.subst_monomials(*phi, (alpha, alpha - 1, 0))
          - f.P.subst_monomials(*phi, (sv * beta, beta - 1, 1)))
    s = divisor_power(n1, n2, "x")
    return PolyField(n1.div_monomial("x", s), n2.div_monomial("x", s)), s


# -- stationary points on the exceptional divisor ---------------------------------


@dataclass(frozen=True)
class DivisorPoint:
    """A stationary point of a chart field on its exceptional divisor."""

    direction: str
    coordinate: object  # Fraction (exact) or float, along the divisor
    jacobian: tuple
    kind: ClassificationKind

    @property
    def radial_eigenvalue(self):
        """The Jacobian's entry along the radial variable: x̄ on a ±x chart, ȳ on a ±y chart."""
        return self.jacobian[0][0] if self.direction[1] == "x" else self.jacobian[1][1]

    @property
    def exact(self) -> bool:
        return isinstance(self.coordinate, Fraction)

    def label(self) -> str:
        if self.coordinate == 0:
            return self.direction
        return f"{self.direction}:{self.coordinate}"


@dataclass(frozen=True)
class DivisorContinuum:
    direction: str
    kind: ClassificationKind


def _divisor_restriction(chart: BlowupChart):
    """Tangential component on the divisor, as coefficient list ([] where it vanishes).

    The radial component vanishes on the divisor, which is therefore invariant: `divisor_power`
    always leaves it a factor of the radial variable.  A dicritical origin thus restricts to []
    and comes back from `divisor_stationary_points` as a DivisorContinuum.
    """
    radial, tang = (chart.px, chart.py) if chart.radial_var == "x" else (chart.py, chart.px)
    if axis_restriction(radial, chart.radial_var):
        raise InternalInconsistencyError(
            f"radial component of the {chart.direction} chart does not vanish on the divisor, "
            "but divisor_power leaves it a factor of the radial variable")
    return axis_restriction(tang, chart.radial_var)


def _chart_point(chart: BlowupChart, u):
    return (0, u) if chart.radial_var == "x" else (u, 0)


def divisor_stationary_points(chart: BlowupChart):
    """(points, complex count) of the chart field's stationary points on its exceptional divisor.

    A ±x chart gives every real root, and the number of complex ones.  A ±y
    chart gives its point at u = 0 alone, with no root isolation, so None in
    place of the count: the ±x charts cover the rest of its divisor.  A
    divisor made entirely of stationary points comes back as a
    DivisorContinuum, on every chart.
    """
    coeffs = _divisor_restriction(chart)
    complex_count = 0 if chart.radial_var == "x" else None
    if coeffs == []:
        return [DivisorContinuum(chart.direction, ClassificationKind("degenerate_curve"))], complex_count
    if chart.radial_var == "x":
        exact, floats, complex_count = real_roots(coeffs)
        roots = exact + floats
    else:
        roots = [] if coeffs[0] else [Fraction(0)]
    f = chart.field()
    return [_divisor_point(chart, f, u, jacobian_at(f, _chart_point(chart, u))) for u in roots], complex_count


def _divisor_point(chart: BlowupChart, f: PolyField, u, J) -> DivisorPoint:
    return DivisorPoint(chart.direction, u, J, classify_point(f, _chart_point(chart, u), J))


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
    halfplane: str  # "upper" | "lower"
    stability: str | None = None  # parabolic only: "attracting" | "repelling"


@dataclass(frozen=True)
class SectorDecomposition:
    sectors: tuple
    weights: NewtonWeights
    boundary_directions: tuple = ()  # the cycle's DivisorPoints, counterclockwise

    def counts(self):
        e = sum(1 for s in self.sectors if s.kind == "elliptic")
        h = sum(1 for s in self.sectors if s.kind == "hyperbolic")
        p = sum(1 for s in self.sectors if s.kind == "parabolic")
        return e, h, p

    @property
    def index(self) -> int:
        """The Bendixson count 1 + (elliptic − hyperbolic)/2."""
        e, h, _ = self.counts()
        return 1 + (e - h) // 2

    @property
    def homoclinic(self) -> bool:
        """Whether an elliptic sector, full of homoclinic orbits, is present."""
        return self.counts()[0] > 0

    def boundary_seeds(self, r: float):
        """(label, plane point) per characteristic direction, at curve radius r.

        A divisor point at coordinate u of an x-direction chart blows down
        to the curve y = u·(±x)^β; seeds sit on those curves close to the
        origin, where separatrix tracing starts.  Divisor points whose seeds
        are equal as floats give one seed, under the first one's label.
        """
        seeds = {}
        for p in self.boundary_directions:
            u = float(p.coordinate)
            chart_point = (r, u) if p.direction[1] == "x" else (u, r)
            seeds.setdefault(blow_down(p.direction, self.weights, *chart_point), p.label())
        return [(label, seed) for seed, label in seeds.items()]


def _radial_sign(p: DivisorPoint) -> int:
    lam = p.radial_eigenvalue
    if lam > 0:
        return 1
    if lam < 0:
        return -1
    raise UnresolvedError(f"zero radial eigenvalue at divisor point {p.label()}")


def _upper(a: DivisorPoint, b: DivisorPoint, wrap: bool) -> bool:
    """Whether the counterclockwise arc from a to b has its middle above the x-axis, decided exactly.

    A point of the chart k in `_QUARTER` lies at the angle kπ/2 + atan(u) (+x), kπ/2 − atan(u) (−x)
    or kπ/2 (±y, where u = 0), so the middle's half-plane depends on ka + kb alone, and on 0 or 4
    on whether atan(ua) + atan(ub) > 0, that is ua > −ub.  A middle on the axis counts as lower
    at +x and upper at −x.  The wrap arc, from the cycle's last point to its first, turns the
    middle by π; a one-point cycle is a wrap arc from the point to itself.
    """
    k, ua, ub = _QUARTER[a.direction] + _QUARTER[b.direction], a.coordinate, b.coordinate
    upper = ua > -ub if k == 0 else ua >= -ub if k == 4 else k < 4
    return upper != wrap


def _arc_samples(a: DivisorPoint, b: DivisorPoint, charts):
    """Sampling positions for the open counterclockwise arc from divisor point a to b.

    Each sample is (chart, u, o), o the x-chart's orientation: +1 on +x, where
    increasing u moves counterclockwise, −1 on −x, where it moves clockwise.  An
    arc that spans several charts gets one sample near each end; the divisor flow
    has no zero in the open arc, so all samples must agree on its direction.
    """
    da, db = a.direction, b.direction
    ua, ub = a.coordinate, b.coordinate
    oa, ob = (1 if d == "+x" else -1 for d in (da, db))  # o·u increases counterclockwise

    # consecutive roots inside one x-chart: a single interior sample decides
    if da == db and da[1] == "x" and oa * ub > oa * ua:
        return [(charts[da], (ua + ub) / 2, oa)]

    samples = []
    if da[1] == "x":  # the arc leaves a's chart counterclockwise, toward larger o·u
        samples.append((charts[da], ua + oa, oa))
    if db[1] == "x":  # and arrives in b's chart from smaller o·u
        samples.append((charts[db], ub - ob, ob))
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
# point, -x descending, the -y axis point; k of `_upper`'s angle kπ/2
_QUARTER = {"+x": 0, "+y": 1, "-x": 2, "-y": 3}


def blowup_origin(f: PolyField):
    """(weights, charts, divisor) of a nilpotent origin, each built once: what the sector cycle reads.

    The Newton-polygon weights; the four directional charts by direction,
    in DIRECTIONS order; and by direction the (points, complex count) of
    `divisor_stationary_points`, the one scan of each chart built: every
    real root on a ±x chart, the point at u = 0 alone and None on a ±y one.
    A minus chart derived from its plus chart takes its points from the plus
    chart's scan.
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
    cycle: list[DivisorPoint] = []
    for d in _QUARTER:
        pts, _ = divisor[d]
        if pts and isinstance(pts[0], DivisorContinuum):
            raise UnresolvedError("continuum of stationary points on the divisor")
        cycle += sorted(pts, key=lambda p: p.coordinate, reverse=d == "-x")

    if not cycle:
        # no characteristic directions: monodromic point (focus/center-like)
        return SectorDecomposition(sectors=(), weights=w)

    for p in cycle:
        if p.kind.name in ("nilpotent", "degenerate_curve"):
            raise UnresolvedError(f"divisor point {p.label()} is non-elementary")

    sectors = []
    n = len(cycle)
    for i in range(n):
        a, b = cycle[i], cycle[(i + 1) % n]
        ccw = _arc_flow_ccw(_arc_samples(a, b, charts))
        s_src, s_dst = (_radial_sign(p) for p in ((a, b) if ccw else (b, a)))
        if s_src > 0 and s_dst < 0:
            kind, stab = "elliptic", None
        elif s_src < 0 and s_dst > 0:
            kind, stab = "hyperbolic", None
        elif s_src > 0:
            kind, stab = "parabolic", "repelling"
        else:
            kind, stab = "parabolic", "attracting"
        halfplane = "upper" if _upper(a, b, wrap=i == n - 1) else "lower"
        sectors.append(Sector(kind=kind, start=a.label(), end=b.label(), halfplane=halfplane, stability=stab))

    dec = SectorDecomposition(sectors=tuple(sectors), weights=w, boundary_directions=tuple(cycle))
    e, h, _ = dec.counts()
    if (e - h) % 2 != 0:
        raise InternalInconsistencyError(
            f"sector cycle has odd elliptic-hyperbolic difference {e - h}"
        )
    return dec
