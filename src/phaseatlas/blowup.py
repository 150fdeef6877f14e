"""Quasi-homogeneous directional blow-ups and the local sector structure.

A nilpotent stationary point at the origin is resolved by the four
directional substitutions with weights (α, β) from the Newton polygon:

    +x: (x, y) = ( x̄^α, x̄^β ȳ)        −x: (x, y) = (−x̄^α, x̄^β ȳ)
    +y: (x, y) = ( x̄ ȳ^α, ȳ^β)        −y: (x, y) = ( x̄ ȳ^α, −ȳ^β)

Differentiating the substitution puts the structural factor α·v^(α+β−1)
(x-directions) resp. β·v^(α+β−1) (y-directions) under the pulled-back
field, v being the radial chart variable; the chart field then sheds the
largest common monomial power of v that keeps the exceptional divisor
{v = 0} invariant.  The shed factor is recorded so the pullback can be
reconstituted exactly.

Sector assembly walks the divisor stationary points of the four charts in
counterclockwise order, samples the divisor flow on each open arc (exact
rational signs), and classifies each arc by the radial stability of its
flow source and sink: source repelling + sink attracting gives an elliptic
sector, attracting + repelling a hyperbolic one, equal signs a parabolic
one.  The Bendixson count 1 + (elliptic − hyperbolic)/2 is the index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import dynamics
from .desing import PolyField
from .equilibria import ClassificationKind, classify_linear, classify_point, jacobian_at
from .errors import DomainError, InternalInconsistencyError, PreconditionError, UnresolvedError
from .polycore import (
    BiPoly,
    NewtonWeights,
    axis_restriction,
    divisor_power,
    is_nilpotent_origin,
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
        if self.direction in ("+x", "-x"):
            sx = 1 if self.direction == "+x" else -1
            xb, yb = u, v
            return (
                (sx * alpha * xb ** (alpha - 1), 0 * xb),
                (beta * xb ** (beta - 1) * yb, xb**beta),
            )
        sy = 1 if self.direction == "+y" else -1
        xb, yb = u, v
        return (
            (yb**alpha, alpha * xb * yb ** (alpha - 1)),
            (0 * yb, sy * beta * yb ** (beta - 1)),
        )


def blowup_directional(f: PolyField, direction: str, w: NewtonWeights) -> BlowupChart:
    """Blow up the origin of f in one direction with the given weights."""
    if direction not in DIRECTIONS:
        raise DomainError(f"unknown blow-up direction {direction!r}")
    if f.P.eval(0, 0) != 0 or f.Q.eval(0, 0) != 0:
        raise PreconditionError("origin is not a stationary point of the field")
    alpha, beta = w
    x, y = BiPoly.var("x"), BiPoly.var("y")

    if direction in ("+x", "-x"):
        sx = 1 if direction == "+x" else -1
        phi_x = BiPoly.monomial(sx, alpha, 0)
        phi_y = BiPoly.monomial(1, beta, 1)
        Pphi = f.P.subst(phi_x, phi_y)
        Qphi = f.Q.subst(phi_x, phi_y)
        # xdot = sx*Pphi/(alpha v^(alpha-1)), ydot over common denom alpha*v^(a+b-1)
        n1 = Pphi.mul_monomial(sx, beta, 0)
        n2 = Qphi.mul_monomial(alpha, alpha - 1, 0) - (y * Pphi).mul_monomial(sx * beta, beta - 1, 0)
        denom_coeff = Fraction(alpha)
        var = "x"
    else:
        sy = 1 if direction == "+y" else -1
        phi_x = BiPoly.monomial(1, 1, alpha)
        phi_y = BiPoly.monomial(sy, 0, beta)
        Pphi = f.P.subst(phi_x, phi_y)
        Qphi = f.Q.subst(phi_x, phi_y)
        n1 = Pphi.mul_monomial(beta, 0, beta - 1) - (x * Qphi).mul_monomial(sy * alpha, 0, alpha - 1)
        n2 = Qphi.mul_monomial(sy, 0, alpha)
        denom_coeff = Fraction(beta)
        var = "y"

    s = divisor_power(n1, n2, var) if var == "x" else divisor_power(n2, n1, var)
    px = n1.div_monomial(var, s)
    py = n2.div_monomial(var, s)
    k = s - (alpha + beta - 1)
    return BlowupChart(
        direction=direction,
        weights=w,
        px=px,
        py=py,
        cancelled_coeff=Fraction(1) / denom_coeff,
        cancelled_power=k,
    )


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
    if chart.radial_var == "x":
        tang, radial = chart.py, chart.px
    else:
        tang, radial = chart.px, chart.py
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
    points = []
    for u in exact:
        z = _chart_point(chart, u)
        J = jacobian_at(f, z)
        kind = classify_point(f, z)
        lam_r, lam_t = (J[0][0], J[1][1]) if chart.radial_var == "x" else (J[1][1], J[0][0])
        points.append(
            DivisorPoint(chart.direction, u, True, J, kind, lam_r, lam_t)
        )
    for u in floats:
        z = _chart_point(chart, u)
        J = jacobian_at(f, (float(z[0]), float(z[1])))
        kind = classify_linear(J)
        lam_r, lam_t = (J[0][0], J[1][1]) if chart.radial_var == "x" else (J[1][1], J[0][0])
        points.append(
            DivisorPoint(chart.direction, u, False, J, kind, lam_r, lam_t)
        )
    return points, complex_count


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


def _tangential_value(chart: BlowupChart, u):
    coeffs = _divisor_restriction(chart)
    val = Fraction(0) if isinstance(u, Fraction) or isinstance(u, int) else 0.0
    for c in reversed(coeffs):
        val = val * u + (c if not isinstance(val, float) else float(c))
    return val


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

    def mid(u1, u2):
        if isinstance(u1, Fraction) and isinstance(u2, Fraction):
            return (u1 + u2) / 2
        return (float(u1) + float(u2)) / 2

    # consecutive roots inside one x-chart: a single interior sample decides
    if da == db == "+x" and ub > ua:
        return [(charts["+x"], mid(ua, ub), +1)]
    if da == db == "-x" and ub < ua:
        return [(charts["-x"], mid(ua, ub), -1)]

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
        t = _tangential_value(chart, u)
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


def classify_nilpotent_origin(f: PolyField) -> SectorDecomposition:
    """Sector structure of an isolated nilpotent stationary point at the origin.

    Runs the Newton-polygon weights, all four directional blow-ups,
    classifies the divisor stationary points, and assembles the sector
    cycle by blow-down.  Raises UnresolvedError when a divisor point is
    itself non-elementary or when the divisor carries a continuum.
    """
    if not is_nilpotent_origin(f.P, f.Q):
        raise PreconditionError("origin is not a nilpotent stationary point")
    w = newton_weights(f.P, f.Q)
    charts = {d: blowup_directional(f, d, w) for d in DIRECTIONS}

    cycle: list[_CycleEntry] = []
    for d, order in _CYCLE_ORDER:
        pts, _ = divisor_stationary_points(charts[d])
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


# -- empirical probe ---------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeArc:
    evidence: str  # "elliptic" | "hyperbolic" | "parabolic"
    start_index: int
    end_index: int
    start_angle: float
    end_angle: float


@dataclass(frozen=True)
class ProbeMap:
    radius: float
    count: int
    evidence: tuple  # per-start evidence strings
    arcs: tuple
    gaps: tuple  # indices where integration failed

    def elliptic_arc_count(self) -> int:
        return sum(1 for a in self.arcs if a.evidence == "elliptic")


def sector_probe(
    f: PolyField,
    radius: float,
    n: int,
    horizon: float = 1e4,
    other_equilibria: tuple = (),
) -> ProbeMap:
    """Empirical sector evidence from forward/backward integrations.

    Starts on the circle of the given radius; a run counts as "returned"
    when it enters radius/10 around the origin, and as "exited" when it
    leaves the ball of radius max(10·radius, 2) or is captured by one of
    the other equilibria.  Both returned: elliptic evidence; both exited:
    hyperbolic; otherwise parabolic.
    """
    if radius <= 0 or n <= 0:
        raise PreconditionError("radius and sample count must be positive")
    exit_radius = max(10 * radius, 2.0)
    box = (-exit_radius, exit_radius, -exit_radius, exit_radius)
    eqs = ((0.0, 0.0),) + tuple(other_equilibria)
    opts = dynamics.IntegratorOptions(
        rel_tol=1e-8,
        abs_tol=1e-11,
        max_time=horizon,
        box=box,
        equilibrium_capture_radius=radius / 10,
        equilibria=eqs,
    )

    evidence = []
    gaps = []
    for i in range(n):
        theta = 2 * math.pi * i / n
        z0 = (radius * math.cos(theta), radius * math.sin(theta))
        verdict = {}
        failed = False
        for direction in ("forward", "backward"):
            traj = dynamics.integrate(f, z0, opts, direction)
            term = traj.termination
            if term.kind == "reached_equilibrium" and term.which == (0.0, 0.0):
                verdict[direction] = "returned"
            elif term.kind in ("left_box", "reached_equilibrium"):
                verdict[direction] = "exited"
            elif term.kind == "step_underflow":
                failed = True
                verdict[direction] = "failed"
            else:
                verdict[direction] = "undecided"
        if failed:
            gaps.append(i)
            evidence.append("gap")
        elif verdict["forward"] == "returned" and verdict["backward"] == "returned":
            evidence.append("elliptic")
        elif verdict["forward"] == "exited" and verdict["backward"] == "exited":
            evidence.append("hyperbolic")
        else:
            evidence.append("parabolic")

    arcs = []
    i = 0
    visited = [False] * n
    while i < n:
        if visited[i] or evidence[i] == "gap":
            i += 1
            continue
        kind = evidence[i]
        # extend backwards across the wrap to find the arc start
        start = i
        while evidence[(start - 1) % n] == kind and (start - 1) % n != i:
            start = (start - 1) % n
            if start == i:
                break
        end = start
        while evidence[(end + 1) % n] == kind and (end + 1) % n != start:
            end = (end + 1) % n
        j = start
        while True:
            visited[j] = True
            if j == end:
                break
            j = (j + 1) % n
        arcs.append(
            ProbeArc(
                evidence=kind,
                start_index=start,
                end_index=end,
                start_angle=2 * math.pi * start / n,
                end_angle=2 * math.pi * end / n,
            )
        )
        i += 1
    arcs.sort(key=lambda a: a.start_index)
    return ProbeMap(
        radius=radius, count=n, evidence=tuple(evidence), arcs=tuple(arcs), gaps=tuple(gaps)
    )
