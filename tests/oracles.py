"""Reference code that only the tests use: independent checks of the package's answers."""

import math
import re
import textwrap
from dataclasses import dataclass, replace
from fractions import Fraction

from phaseatlas import blowup, compact, dynamics
from phaseatlas.desing import PolyField
from phaseatlas.dynamics import IntegratorOptions
from phaseatlas.equilibria import ClassificationKind, classify_linear, jacobian_at, sqrt_exact_or_float
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


def per_point_path_data(points):
    """`portrait._path_data` point by point: `compact.disc_coords` of each point, its finite ones
    written "x -y" with "%.4f" and "-0.0000" read as "0.0000", or None if fewer than two."""
    out = []
    for z in points:
        x, y = compact.disc_coords(z)
        if math.isfinite(x) and math.isfinite(y):
            out.append(" ".join("0.0000" if s == "-0.0000" else s for s in ("%.4f" % x, "%.4f" % -y)))
    return "M " + " L ".join(out) if len(out) >= 2 else None


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


def _s34_kind(a: Fraction, b: Fraction) -> ClassificationKind:
    """Kind shared by s3 and s4, decided by exact sign tests on the closed form."""
    radicand = b * (b + 8 * a * (a - 1))
    denom = 2 * a * (b - a)
    if radicand < 0:
        # complex pair, common real part b(1-b)/denom
        re = b * (1 - b) / denom
        if re < 0:
            return ClassificationKind("attracting_focus")
        if re > 0:
            return ClassificationKind("repelling_focus")
        return ClassificationKind("center_linear")
    # real eigenvalues: det carries the sign of b² - radicand = -8ab(a-1)
    if b * b - radicand < 0:
        return ClassificationKind("saddle")
    tr = b * (1 - b) / (a * (b - a))
    return ClassificationKind("attracting_node" if tr < 0 else "repelling_node")


def fraction_classify_linear(J) -> ClassificationKind:
    """classify_linear on an exact matrix, by the same sign tests made in Fraction arithmetic."""
    (a11, a12), (a21, a22) = ((as_rational(v) for v in row) for row in J)
    tr = a11 + a22
    det = a11 * a22 - a12 * a21
    disc = tr * tr - 4 * det
    if det == 0 and tr == 0:
        return ClassificationKind("nilpotent")
    if det == 0:
        return ClassificationKind("semi_hyperbolic")
    if det < 0:
        return ClassificationKind("saddle")
    if tr == 0:
        return ClassificationKind("center_linear")
    if disc < 0:
        return ClassificationKind("attracting_focus" if tr < 0 else "repelling_focus")
    return ClassificationKind("attracting_node" if tr < 0 else "repelling_node")


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
                    direction_label=axis[chart] if u == 0 else "slope",
                    jacobian=J,
                    kind=classify_linear(J),
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
    n1 = Pphi * BiPoly.monomial(sx, beta, 0)
    n2 = Qphi * BiPoly.monomial(alpha, alpha - 1, 0) - Y * Pphi * BiPoly.monomial(sx * beta, beta - 1, 0)
    s = divisor_power(n1, n2, "x")
    return blowup.BlowupChart(
        direction=direction,
        weights=w,
        px=n1.div_monomial("x", s),
        py=n2.div_monomial("x", s),
        cancelled_coeff=Fraction(1, alpha),
        cancelled_power=s - (alpha + beta - 1),
    )


def substitution_jacobian(chart: blowup.BlowupChart, u, v):
    """Jacobian dφ at (u, v) of the chart's substitution φ = `blowup.blow_down`, each direction written out."""
    alpha, beta = chart.weights
    sv = 1 if chart.direction[0] == "+" else -1
    if chart.radial_var == "x":
        return ((sv * alpha * u ** (alpha - 1), 0 * u), (beta * u ** (beta - 1) * v, u**beta))
    return ((v**alpha, alpha * v ** (alpha - 1) * u), (0 * v, sv * beta * v ** (beta - 1)))


def four_chart_blowup_origin(f: PolyField):
    """(weights, charts, divisor) as `blowup.blowup_origin` gives them, each chart built and scanned alone."""
    w = newton_weights(f.P, f.Q)
    charts = {d: four_chart_blowup_directional(f, d, w) for d in blowup.DIRECTIONS}
    return w, charts, {d: blowup.divisor_stationary_points(c) for d, c in charts.items()}


# -- the half-plane of a blow-up sector, from float angles --------------------------


def nominal_angle(direction: str, u) -> float:
    """Float angle of the plane direction of a divisor point at coordinate u of a blow-up chart."""
    uf = float(u)
    if direction == "+x":
        return math.atan(uf)
    if direction == "-x":
        return math.pi - math.atan(uf)
    if direction == "+y":
        return math.pi / 2
    return 3 * math.pi / 2


def float_arc_middle(a, b):
    """Float angle in [0, 2π) of the middle of the counterclockwise divisor arc from point a to b.

    A one-point cycle's arc (a is b) is the whole divisor.  Distinct points at one float angle
    leave the arc no float middle: None.  The sector's half-plane is upper iff sin of it is > 0.
    """
    ta, tb = nominal_angle(a.direction, a.coordinate), nominal_angle(b.direction, b.coordinate)
    span = (tb - ta) % (2 * math.pi)
    if span == 0.0 and a is not b:
        return None
    return (ta + (span or 2 * math.pi) / 2) % (2 * math.pi)


def arc_middle_axis(a, b):
    """"+x" or "-x" when the middle of the counterclockwise divisor arc from point a to b lies
    exactly on that half-axis, else None.

    Counterclockwise, u rises in the +x chart and falls in the -x chart.  So an arc between the
    points ±u of one x-chart passes that chart's axis point, u = 0, when it runs the chart's way,
    and the opposite half-axis otherwise (a one-point cycle at u = 0 included).  An arc from +y
    to -y passes -x, and one from -y to +y passes +x.
    """
    da, db, ua, ub = a.direction, b.direction, a.coordinate, b.coordinate
    if {da, db} == {"+y", "-y"}:
        return "-x" if da == "+y" else "+x"
    if da != db or da[1] != "x" or ua != -ub:
        return None
    own_way = ua < ub if da == "+x" else ua > ub
    return da if own_way else {"+x": "-x", "-x": "+x"}[da]


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


# -- the kernels with each coefficient written into the source as a literal ---------------
#
# The package's generators before they named their coefficients: one compile per field.  The
# bound kernels of `desing` and `dynamics` must do their float operations bit for bit.


def _factors(i: int, j: int, x: str, y: str) -> str:
    """Source of the factors x**i, y**j of a term; x**0 is 1.0 and x**1 is x, exactly."""
    return "".join(f" * {v}" + (f"{e}" if e > 1 else "") for v, e in ((x, i), (y, j)) if e)


def literal_field_source(tabs, x: str, y: str, out: str) -> str:
    """Lines that set `out` to the float term tables (P, Q) summed at the point named (x, y).

    Sums c * x**i * y**j from 0.0 in table order, each power taken once by `**`; a value that
    overflows a float is a PreconditionError naming the point.
    """
    powers = sorted({(v, e) for tab in tabs for _, i, j in tab for v, e in ((x, i), (y, j)) if e > 1})
    sums = ["0.0" + "".join(f" + {c!r}{_factors(i, j, x, y)}" for c, i, j in tab) for tab in tabs]
    return ("try:\n" + "".join(f"    {v}{e} = {v}**{e}\n" for v, e in powers)
            + f"    {out} {sums[0]}, {sums[1]}\nexcept OverflowError:\n    raise PreconditionError("
            f"f'field value at ({{{x}!r}}, {{{y}!r}}) overflows a float') from None\n")


def _monomial(i: int, j: int) -> str:
    return "".join(f"{v}{e}" for v, e in (("x", i), ("y", j)) if e)


def _range_lines(i: int, j: int, have: set) -> str:
    """Lines that set the range {m}l, {m}h of the monomial m = x**i * y**j and of its powers, once each."""
    lines = ""
    for v, e in ((v, e) for v, e in (("x", i), ("y", j)) if e and (v, e) not in have):
        have.add((v, e))
        a, b = (f"{v}lo", f"{v}hi") if e == 1 else ("a", "b")
        lines += "" if e == 1 else f"    a, b = {v}lo**{e}, {v}hi**{e}\n"
        lo = f"0.0 if {v}lo < 0 < {v}hi else " if e % 2 == 0 else ""  # min and max as the builtins: ties keep a
        lines += f"    {v}{e}l, {v}{e}h = {lo}({b} if {b} < {a} else {a}), ({b} if {b} > {a} else {a})\n"
    if i and j and (i, j) not in have:
        have.add((i, j))
        m = _monomial(i, j)
        lines += (f"    c = x{i}l * y{j}l, x{i}l * y{j}h, x{i}h * y{j}l, x{i}h * y{j}h\n"
                  f"    {m}l, {m}h = min(c), max(c)\n")
    return lines


def _bound_lines(tab, s: str, have: set) -> str:
    """Lines that set {s}lo, {s}hi to the padded interval bounds of a term table; an error table raises."""
    if isinstance(tab, Exception):
        return f"    raise PreconditionError({str(tab)!r})\n"
    lines = "".join(_range_lines(i, j, have) for _, i, j in tab)
    for end in ("lo", "hi"):  # a negative c takes the other end of its term's range
        lines += f"    {s}{end} = 0.0" + "".join(
            f" + {c!r}" + (f" * {_monomial(i, j)}{'lh'[(c >= 0) != (end == 'lo')]}" if i or j else "")
            for c, i, j in tab) + "\n"
    return lines + (f"    pad = 1e-14 * max(abs({s}lo), abs({s}hi), 1.0)\n"
                    f"    {s}lo, {s}hi = {s}lo - pad, {s}hi + pad\n")


def literal_box_source(tabs) -> str:
    """Source of box(xlo, xhi, ylo, yhi) -> (excluded, plo, phi[, qlo, qhi]) for the tables (P, Q)."""
    have = set()
    return ("def box(xlo, xhi, ylo, yhi):\n" + _bound_lines(tabs[0], "p", have)
            + "    if plo > 0 or phi < 0:\n        return True, plo, phi\n" + _bound_lines(tabs[1], "q", have)
            + "    return qlo > 0 or qhi < 0, plo, phi, qlo, qhi\n")


def _defined(source: str, name: str, **names):
    namespace = dict(names, PreconditionError=PreconditionError)
    exec(compile(source, f"<literal {name}>", "exec"), namespace)
    return namespace[name]


def literal_rhs(f: PolyField):
    """`PolyField.compiled()` with the coefficients as literals."""
    tabs = (f.P.float_terms(), f.Q.float_terms())
    rhs = _defined("def rhs(x, y):\n" + textwrap.indent(literal_field_source(tabs, "x", "y", "return"), "    "),
                   "rhs")
    rhs.float_terms = tabs
    return rhs


def literal_box_test(f: PolyField):
    """`PolyField.box_test()` with the coefficients as literals."""
    try:
        qtab = f.Q.float_terms()
    except PreconditionError as err:
        qtab = err
    return _defined(literal_box_source((f.P.float_terms(), qtab)), "box")


def literal_integrate(f: PolyField, z0, opts=None, direction="forward"):
    """`dynamics.integrate` of f on the step loop with the field's coefficients as literals."""
    base = literal_rhs(f)
    field = literal_field_source(base.float_terms, "px", "py", "u, v =")

    def weighted(start, weights, k):
        return start + "".join(f" + {w!r} * k{j}{k}" for j, w in enumerate(weights))
    stage = "        px, py = x + h * ({}), y + h * ({})\n        FIELD\n        k{}u, k{}v = sign * u, sign * v\n"
    source = dynamics._LOOP.format(
        stages="".join(stage.format(weighted("0.0", dynamics._A[i], "u"), weighted("0.0", dynamics._A[i], "v"), i, i)
                       for i in range(1, 7)),
        b4u=weighted("0", dynamics._B4, "u"), b4v=weighted("0", dynamics._B4, "v"))
    source = re.sub(r"^( *)FIELD\n", lambda m: textwrap.indent(field, m[1]), source, flags=re.M)
    loop = _defined(source, "dopri5", **vars(math), Trajectory=dynamics.Trajectory,
                    Termination=dynamics.Termination, _MAX_STEPS=dynamics._MAX_STEPS)
    return loop(base, z0, IntegratorOptions() if opts is None else opts, direction)
