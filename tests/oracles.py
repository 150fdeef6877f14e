"""Reference code that only the tests use: independent checks of the package's answers."""

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from phaseatlas import blowup, compact, dynamics
from phaseatlas.desing import PolyField
from phaseatlas.dynamics import IntegratorOptions
from phaseatlas.equilibria import classify_linear, jacobian_at, sqrt_exact_or_float
from phaseatlas.errors import DomainError, PreconditionError, SingularEvaluationError
from phaseatlas.polycore import (
    Y,
    BiPoly,
    NewtonWeights,
    as_rational,
    axis_restriction,
    divisor_power,
    newton_weights,
    real_roots,
)


def slope_limit_check(fixture, y0: float, x_eval: float) -> float:
    """Trajectory slope dy/dx of the logarithmic system at (x_eval, y0).

    Equals (½ln x² + x) / (½ln x² − y0); the limit for x → 0 is 1 for
    every y0, which is how the streamlines cross the y-axis.
    """
    if x_eval == 0:
        raise PreconditionError("x_eval must be nonzero")
    half_log = math.log(x_eval * x_eval) / 2.0
    denom = half_log - y0
    if denom == 0.0:
        raise SingularEvaluationError("evaluation point lies on the x-nullcline")
    return (half_log + x_eval) / denom


def default_cdk_options(points, **overrides) -> IntegratorOptions:
    """Options preloaded with capture targets from a stationary-point list."""
    eqs = tuple(p.location_floats() for p in points)
    base = IntegratorOptions(equilibria=eqs)
    return replace(base, **overrides) if overrides else base


@dataclass(frozen=True)
class InfinityMarker:
    """Returned by the inverse map on the boundary circle."""

    direction: tuple


def disc_coords_inverse(q):
    """Inverse of disc_coords; boundary points map to an InfinityMarker."""
    X, Y = float(q[0]), float(q[1])
    rho2 = X * X + Y * Y
    if rho2 >= 1.0:
        norm = math.sqrt(rho2)
        return InfinityMarker(direction=(X / norm, Y / norm))
    r = math.sqrt(1.0 - rho2)
    return (X / r, Y / r)


def shift_to_origin(f: PolyField, z) -> PolyField:
    """Field in coordinates moving z to the origin (exact recomposition)."""
    return f.shifted(as_rational(z[0]), as_rational(z[1]))


def s34_eigenvalues(a, b) -> tuple[complex, complex]:
    """Shared eigenvalue pair of s3/s4:
    [b(1-b) ± (b-1)·sqrt(b(b+8a(a-1)))] / (2a(b-a))."""
    a, b = as_rational(a), as_rational(b)
    if not (b > 1 > a or a > 1 > b):
        raise DomainError("s3/s4 exist only for b>1>a or a>1>b")
    radicand = b * (b + 8 * a * (a - 1))
    denom = 2 * a * (b - a)
    base = b * (1 - b)
    if radicand >= 0:
        root = sqrt_exact_or_float(radicand)
        lam1 = (float(base) + float(b - 1) * float(root)) / float(denom)
        lam2 = (float(base) - float(b - 1) * float(root)) / float(denom)
        return (complex(lam1), complex(lam2))
    root = math.sqrt(float(-radicand))
    re = float(base) / float(denom)
    im = float(b - 1) * root / float(denom)
    return (complex(re, abs(im)), complex(re, -abs(im)))


# criterion 4's float probe of the sectors round the origin
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


# -- the Poincaré compactification with all four charts built ----------------------

CHART_IDS = ("U1", "U2", "V1", "V2")


def four_chart_field(f: PolyField, chart: str) -> PolyField:
    """Chart field of any of U1, U2, V1, V2, each built by the docstring formula."""
    if chart not in CHART_IDS:
        raise DomainError(f"unknown chart {chart!r}")
    if chart in ("U2", "V2"):  # U2/V2 are U1/V1 of the field with x and y exchanged
        f = PolyField(f.Q.swapped(), f.P.swapped())
    d = f.max_degree()
    if d < 0:
        raise PreconditionError("cannot compactify the zero field")
    sign = 1 if chart in ("U1", "U2") else (-1) ** (d - 1)
    q_part = BiPoly({(j, d - i - j): c for (i, j), c in f.Q})
    up_part = BiPoly({(j + 1, d - i - j): c for (i, j), c in f.P})
    pu = (q_part - up_part) * sign
    pz = BiPoly({(j, d + 1 - i - j): -c for (i, j), c in f.P}) * sign
    s = divisor_power(pz, pu, "y")
    pu, pz = pu.div_monomial("y", s), pz.div_monomial("y", s)
    return PolyField(pu, pz, provenance=("compactified", chart))


def four_chart_points_at_infinity(f: PolyField):
    """Points at infinity with every chart built, isolated and linearized on its own."""
    charts = {chart: four_chart_field(f, chart) for chart in CHART_IDS}
    if not any(axis_restriction(charts["U1"].P, "y")):
        samples = []
        for u in (Fraction(0), Fraction(1), Fraction(-1), Fraction(2)):
            J = jacobian_at(charts["U1"], (u, Fraction(0)))
            samples.append((u, J[1][1]))
        return compact.InfinityContinuum(
            tangential_eigenvalue=Fraction(0), sample_transverse=tuple(samples)
        )
    antipode = {"U1": "V1", "V1": "U1", "U2": "V2", "V2": "U2"}
    axis = {"U1": "+x", "V1": "-x", "U2": "+y", "V2": "-y"}
    points = []
    for chart in CHART_IDS:
        cf = charts[chart]
        exact, floats, _ = real_roots(axis_restriction(cf.P, "y"))
        for u in exact + floats:
            au = abs(float(u))
            in_x_chart = chart in ("U1", "V1")
            if u != 0 and ((in_x_chart and au > 1) or (not in_x_chart and au >= 1)):
                continue
            J = jacobian_at(cf, (u, 0))
            points.append(
                compact.InfinitePoint(
                    chart=chart,
                    u=u,
                    exact=isinstance(u, Fraction),
                    direction_label=axis[chart] if u == 0 else "slope",
                    jacobian=J,
                    kind=classify_linear(J),
                    transverse_eigenvalue=J[1][1],
                    antipode_chart=antipode[chart],
                )
            )
    return points


# -- the blow-up of a nilpotent origin with all four charts built --------------------


def four_chart_blowup_directional(f: PolyField, direction: str, w: NewtonWeights) -> blowup.BlowupChart:
    """One directional chart, by composing P and Q with the substitution through `BiPoly.subst`."""
    alpha, beta = w
    if direction in ("+y", "-y"):  # the ±x chart of the swapped field, swapped back
        swapped = PolyField(f.Q.swapped(), f.P.swapped())
        c = four_chart_blowup_directional(swapped, direction[0] + "x", NewtonWeights(beta, alpha))
        return blowup.BlowupChart(direction, w, c.py.swapped(), c.px.swapped(),
                                  c.cancelled_coeff, c.cancelled_power)
    sx = 1 if direction == "+x" else -1
    phi = (BiPoly.monomial(sx, alpha, 0), BiPoly.monomial(1, beta, 1))
    Pphi, Qphi = f.P.subst(*phi), f.Q.subst(*phi)
    n1 = Pphi.mul_monomial(sx, beta, 0)
    n2 = Qphi.mul_monomial(alpha, alpha - 1, 0) - (Y * Pphi).mul_monomial(sx * beta, beta - 1, 0)
    s = divisor_power(n1, n2, "x")
    return blowup.BlowupChart(
        direction=direction,
        weights=w,
        px=n1.div_monomial("x", s),
        py=n2.div_monomial("x", s),
        cancelled_coeff=Fraction(1, alpha),
        cancelled_power=s - (alpha + beta - 1),
    )


def four_chart_blowup_origin(f: PolyField):
    """(weights, charts, divisor) as `blowup.blowup_origin` gives them, each chart built and scanned alone."""
    w = newton_weights(f.P, f.Q)
    charts = {d: four_chart_blowup_directional(f, d, w) for d in blowup.DIRECTIONS}
    return w, charts, {d: blowup.divisor_stationary_points(c) for d, c in charts.items()}


# -- the numeric finder's box test, interpreted term by term ------------------------


def interval_box_test(f: PolyField, xlo, xhi, ylo, yhi):
    """(excluded, plo, phi[, qlo, qhi]) as `PolyField.box_test` gives it: Q is bounded only when P holds 0."""
    plo, phi = interval_eval(f.P, xlo, xhi, ylo, yhi)
    if plo > 0 or phi < 0:
        return True, plo, phi
    qlo, qhi = interval_eval(f.Q, xlo, xhi, ylo, yhi)
    return qlo > 0 or qhi < 0, plo, phi, qlo, qhi


def interval_eval(p: BiPoly, xlo, xhi, ylo, yhi):
    """Crude interval range of p over the box (monomial-wise products)."""
    lo = hi = 0.0
    for cf, i, j in p.float_terms():
        xs = interval_pow(xlo, xhi, i)
        ys = interval_pow(ylo, yhi, j)
        cands = [xs[0] * ys[0], xs[0] * ys[1], xs[1] * ys[0], xs[1] * ys[1]]
        tlo, thi = min(cands), max(cands)
        if cf >= 0:
            lo += cf * tlo
            hi += cf * thi
        else:
            lo += cf * thi
            hi += cf * tlo
    pad = 1e-14 * max(abs(lo), abs(hi), 1.0)
    return lo - pad, hi + pad


def interval_pow(lo, hi, n):
    if n == 0:
        return (1.0, 1.0)
    pl, ph = lo**n, hi**n
    if n % 2 == 0 and lo < 0 < hi:
        return (0.0, max(pl, ph))
    return (min(pl, ph), max(pl, ph))
