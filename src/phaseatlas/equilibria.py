"""Finite stationary points: location, Jacobians, and classification.

The CDK system gets a closed-form solver (two axis points s1, s2 always;
a symmetric pair s3, s4 exactly when the parameters straddle 1; the full
circle x² + (y-1/2)² = 1/4 at a = b = 1).  Every other polynomial field
gets a numeric finder based on interval subdivision plus Newton polishing;
`atlas.FieldAnalysis` chooses between the two.  The subdivision's box test
is each field's natural interval extension, and Newton's step reads the
field's float Jacobian, both generated code compiled once per term shape
(`PolyField.box_test`, `PolyField.float_jacobian`); a factor shared by both
components is a curve of zeros once it changes sign, decided in exact
arithmetic.

Classification: hyperbolic kinds drop out of the 2x2 eigenvalue structure;
points with exactly one zero eigenvalue get an exact polynomial center
manifold and the standard semi-hyperbolic trichotomy.

Every stationary point the package classifies, finite, on a blow-up divisor
or at infinity, is linearized on one path: `jacobian_at` evaluates its
Jacobian once, from derivatives each `PolyField` takes once;
`classify_linear`, one body for exact and float matrices (an exact one
tested in integers), gives its linear kind; and `classify_point` adds the
center-manifold subkind at an exact semi-hyperbolic point.  The CDK closed
form gives coordinates only: s1 and s2 are classified on their exact
Jacobians, and s3/s4 on a rational matrix similar to theirs, so no kind is
decided beside `classify_linear`.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from fractions import Fraction

from .desing import PolyField, cdk_poly_field
from .errors import (
    AmbiguityError,
    DomainError,
    InconclusiveError,
    PreconditionError,
)
from .polycore import X, BiPoly, as_rational, eval_many, poly_divexact, poly_gcd

KIND_NAMES = (
    "saddle",
    "attracting_node",
    "repelling_node",
    "attracting_focus",
    "repelling_focus",
    "center_linear",
    "semi_hyperbolic",
    "nilpotent",
    "degenerate_curve",
)

SEMI_HYPERBOLIC_SUBKINDS = ("saddle", "attracting_node", "repelling_node", "saddle_node")

# relative threshold below which a float eigenvalue real part counts as zero
_ZERO_EIG_REL = 1e-10

# highest order of the center-manifold series: the solve stops at the reduced
# flow's first nonzero term, and a flow that vanishes through it is inconclusive
_CENTER_ORDER = 6


@dataclass(frozen=True)
class ClassificationKind:
    name: str
    subkind: str | None = None
    boundary: bool = False

    def __post_init__(self):
        if self.name not in KIND_NAMES:
            raise DomainError(f"unknown classification kind {self.name!r}")
        if self.subkind is not None and self.subkind not in SEMI_HYPERBOLIC_SUBKINDS:
            raise DomainError(f"unknown semi-hyperbolic subkind {self.subkind!r}")

    def __str__(self):
        s = self.name if self.subkind is None else f"{self.name}({self.subkind})"
        return s + (" [boundary]" if self.boundary else "")


@dataclass(frozen=True)
class StationaryPoint:
    """A finite stationary point with its local linear data."""

    location: tuple
    jacobian: tuple
    kind: ClassificationKind
    label: str | None = None
    error_bound: float | None = None

    @property
    def eigenvalues(self) -> tuple[complex, complex]:
        """The Jacobian's float eigenvalues, computed on each read: a Jacobian beyond the float range
        raises only where they are read."""
        return eigenvalues_2x2(self.jacobian)

    @property
    def exact(self) -> bool:
        return all(isinstance(v, Fraction) for v in self.location)

    def location_floats(self) -> tuple[float, float]:
        return (float(self.location[0]), float(self.location[1]))


@dataclass(frozen=True)
class StationaryCircle:
    """A whole circle of stationary points: x² + (y - cy)² = radius²."""

    center: tuple
    radius: Fraction

    def contains(self, x, y) -> bool:
        cx, cy = self.center
        return (as_rational(x) - cx) ** 2 + (as_rational(y) - cy) ** 2 == self.radius**2


@dataclass(frozen=True)
class Continuum:
    """Numeric evidence of a curve of zeros rather than isolated points."""

    samples: tuple


# -- eigenvalues and linear classification -------------------------------------


def eigenvalues_2x2(J) -> tuple[complex, complex]:
    """Eigenvalues of a 2x2 matrix via the quadratic formula.

    Cancellation is avoided by computing the small root from the product of
    roots when the discriminant is positive.
    """
    try:
        (a11, a12), (a21, a22) = ((float(v) for v in row) for row in J)
    except OverflowError:
        raise PreconditionError("a Jacobian entry overflows a float") from None
    tr = a11 + a22
    det = a11 * a22 - a12 * a21
    disc = tr * tr - 4.0 * det
    if disc >= 0.0:
        root = math.sqrt(disc)
        big = (tr + root) / 2.0 if tr >= 0 else (tr - root) / 2.0
        if big == 0.0:
            return (0j, 0j)
        small = det / big
        lam1, lam2 = complex(big), complex(small)
    else:
        root = math.sqrt(-disc)
        lam1 = complex(tr / 2.0, root / 2.0)
        lam2 = complex(tr / 2.0, -root / 2.0)
    return (lam1, lam2) if (lam1.real, lam1.imag) >= (lam2.real, lam2.imag) else (lam2, lam1)


def _matrix_is_exact(J) -> bool:
    return all(not isinstance(J[i][j], float) for i in range(2) for j in range(2))


def classify_linear(J) -> ClassificationKind:
    """Kind of an equilibrium from its Jacobian alone.

    Exact matrices (int or Fraction entries) are classified by exact sign tests
    on L·J, L the entries' common denominator, whose tr, det and tr² − 4·det are
    ints with the signs of J's; float matrices use a relative threshold of 1e-10
    on the matrix norm and set `boundary` when a decisive quantity sits below it.
    """
    exact = _matrix_is_exact(J)
    if exact:
        L = math.lcm(*(v.denominator for row in J for v in row))
        (a11, a12), (a21, a22) = ((v.numerator * (L // v.denominator) for v in row) for row in J)
    else:
        (a11, a12), (a21, a22) = ((float(v) for v in row) for row in J)
    tr = a11 + a22
    det = a11 * a22 - a12 * a21
    disc = tr * tr - 4 * det
    if exact:
        tol = 0
    else:
        norm = max(abs(a11), abs(a12), abs(a21), abs(a22), 1e-300)
        tol = _ZERO_EIG_REL * norm * max(1.0, norm)

    def near(v):
        return abs(v) <= tol

    boundary = not exact and (near(det) or (det > 0 and near(tr)) or (disc < 0 and near(tr)))
    if near(det) and near(tr):
        return ClassificationKind("nilpotent", boundary=boundary)
    if near(det):
        return ClassificationKind("semi_hyperbolic", boundary=boundary)
    if det < 0:
        return ClassificationKind("saddle", boundary=boundary)
    # det > 0 from here on
    if near(tr):
        return ClassificationKind("center_linear", boundary=boundary)
    if disc < 0:
        name = "attracting_focus" if tr < 0 else "repelling_focus"
    else:
        name = "attracting_node" if tr < 0 else "repelling_node"
    return ClassificationKind(name, boundary=boundary)


# -- Jacobians and shifts --------------------------------------------------------


def jacobian_at(f: PolyField, z):
    """2x2 Jacobian of (P, Q) at z, its four entries in one `eval_many`; exact whenever z has exact coordinates."""
    px, py, qx, qy = eval_many(f.jacobian_polys(), *z)
    return ((px, py), (qx, qy))


# -- semi-hyperbolic analysis ------------------------------------------------------


@dataclass(frozen=True)
class SemiHyperbolicAnalysis:
    subkind: str
    nonzero_eigenvalue: Fraction
    center_order: int
    center_coefficient: Fraction
    center_direction: tuple
    hyperbolic_direction: tuple


def semihyperbolic_analysis(f: PolyField, z) -> SemiHyperbolicAnalysis:
    """Center-manifold classification at a point with one zero eigenvalue.

    Moves z to the origin and aligns the zero eigendirection with the first
    axis in one affine substitution, solves the invariance equation for the
    center manifold eta = h(xi) order by order up to the reduced flow's
    lowest nonzero coefficient (at most `_CENTER_ORDER`), and reads the
    trichotomy off that coefficient together with the sign of the nonzero
    eigenvalue.  All arithmetic is exact.
    """
    x0, y0 = as_rational(z[0]), as_rational(z[1])
    (a11, a12), (a21, a22) = jacobian_at(f, (x0, y0))
    tr = a11 + a22
    det = a11 * a22 - a12 * a21
    if det != 0 or tr == 0:
        raise PreconditionError("point does not have exactly one zero eigenvalue")
    mu = tr

    v0 = (a12, -a11) if (a12, a11) != (0, 0) else (a22, -a21)
    vmu = (a12, mu - a11) if (a12, mu - a11) != (0, 0) else (mu - a22, a21)
    t11, t21 = v0
    t12, t22 = vmu
    dT = t11 * t22 - t12 * t21
    if dT == 0:
        raise PreconditionError("degenerate eigenbasis")

    # field in eigen-coordinates: (x, y) = z + T (xi, eta), Ftilde = T^-1 F(z + T.)
    xi_x = BiPoly.monomial(t11, 1, 0) + BiPoly.monomial(t12, 0, 1) + x0
    xi_y = BiPoly.monomial(t21, 1, 0) + BiPoly.monomial(t22, 0, 1) + y0
    Pn = f.P.subst(xi_x, xi_y)
    Qn = f.Q.subst(xi_x, xi_y)
    A = (t22 * Pn - t12 * Qn) * (Fraction(1) / dT)
    B = (-t21 * Pn + t11 * Qn) * (Fraction(1) / dT)

    # h(xi) = sum c_k xi^k from the invariance equation B(xi,h) = h'(xi) A(xi,h).
    # A has no linear term, so its xi^m coefficient on h reads c_2 .. c_(m-1) only:
    # the first nonzero one is the reduced flow's lowest term, and the solve stops
    # there.  B's linear eta-term contributes mu * c_m at order m, so solve it out
    h = BiPoly.zero()
    for m in range(2, _CENTER_ORDER + 1):
        g = A.subst(X, h)
        if coeff := g.terms.get((m, 0)):
            break
        c = (B.subst(X, h) - h.diff_x() * g).terms.get((m, 0), 0)
        h = h + BiPoly.monomial(-c / mu, m, 0)
    else:
        raise InconclusiveError(
            f"center-manifold flow vanishes through order {_CENTER_ORDER}", order=_CENTER_ORDER
        )

    if m % 2 == 0:
        subkind = "saddle_node"
    elif coeff > 0:  # center direction unstable
        subkind = "saddle" if mu < 0 else "repelling_node"
    else:  # center direction stable
        subkind = "attracting_node" if mu < 0 else "saddle"
    return SemiHyperbolicAnalysis(
        subkind=subkind,
        nonzero_eigenvalue=mu,
        center_order=m,
        center_coefficient=coeff,
        center_direction=v0,
        hyperbolic_direction=vmu,
    )


def classify_point(f: PolyField, z, J) -> ClassificationKind:
    """Kind of the stationary point z of f whose Jacobian there is J.

    The linear kind, refined by the center-manifold subkind at an exact
    semi-hyperbolic point; a float J is only linearized.
    """
    kind = classify_linear(J)
    if kind.name == "semi_hyperbolic" and _matrix_is_exact(J):
        try:
            return ClassificationKind("semi_hyperbolic", subkind=semihyperbolic_analysis(f, z).subkind)
        except (InconclusiveError, PreconditionError):
            return kind
    return kind


# -- CDK closed-form solver --------------------------------------------------------


def sqrt_exact_or_float(v: Fraction):
    """Square root of a nonnegative rational: Fraction if perfect square, else float.

    The float branch is correctly rounded from the exact numerator and
    denominator roots, or from v scaled by a power of 4 when they exceed the
    float range; its relative error is bounded by a few ulp (< 1e-15).  A
    root that is not a double raises PreconditionError.
    """
    if v < 0:
        raise DomainError("square root of a negative rational")
    n, d = v.numerator, v.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    try:
        return math.sqrt(n / d) if n < 2**52 and d < 2**52 else math.sqrt(n) / math.sqrt(d)
    except OverflowError:
        pass
    # n or d is beyond float range: scale v by 4^-s to within (1/2, 4), and the root back by 2^s
    s = (n.bit_length() - d.bit_length()) // 2
    with contextlib.suppress(OverflowError):
        if root := math.ldexp(math.sqrt(n / (d << 2 * s) if s >= 0 else (n << -2 * s) / d), s):
            return root
    raise PreconditionError(f"square root of ~1e{round(math.log10(n) - math.log10(d))} is not a double")


def _make_point(f: PolyField, loc, label, kind=None, error_bound=None):
    J = jacobian_at(f, loc)
    return StationaryPoint(
        location=tuple(loc),
        jacobian=J,
        kind=classify_point(f, loc, J) if kind is None else kind,
        label=label,
        error_bound=error_bound,
    )


def cdk_stationary_points(a, b):
    """Finite stationary points of the CDK polynomial field of (a, b); see `cdk_closed_form`."""
    return cdk_closed_form(cdk_poly_field(a, b))


def cdk_closed_form(f: PolyField):
    """Finite stationary points of a field built by `cdk_poly_field`, in closed form.

    Returns a StationaryCircle for a = b = 1; otherwise a list holding
    s1 = (0,0), s2 = (0,1) and, exactly when the parameters straddle 1,
    the pair s3/s4 = (±sqrt(y2/a − y2²), y2) with y2 = −(b−1)/(a−b).
    A field moved by `PolyField.shifted` has every point moved by minus
    the summed shifts recorded in its provenance.
    """
    a, b = f.provenance[1:3]
    dx, dy = (-sum((s[k] for s in f.provenance[3:]), Fraction(0)) for k in (1, 2))
    if a == 1 and b == 1:
        return StationaryCircle(center=(dx, Fraction(1, 2) + dy), radius=Fraction(1, 2))

    points = [_make_point(f, (dx, dy), "s1"), _make_point(f, (dx, 1 + dy), "s2")]
    if b > 1 > a or b < 1 < a:
        y2 = -(b - 1) / (a - b)
        x_sq = y2 / a - y2 * y2
        if x_sq < 0:
            raise DomainError("inconsistent closed form: negative x^2")
        root = sqrt_exact_or_float(x_sq)
        err = None if isinstance(root, Fraction) else 5e-16 * (float(root) + abs(float(dx)))
        # P is odd in x and Q even, so an entry of the unshifted Jacobian summed over
        # (x²)^(i//2) is Px or Qy at x = ±√x², or Py or Qx divided by x: the rational
        # matrix diag(x, 1)·J·diag(1/x, 1), which has J's kind at s3 and at s4
        px, py, qx, qy = (
            sum(c * x_sq ** (i // 2) * y2**j for (i, j), c in g.terms.items())
            for g in (f if len(f.provenance) == 3 else cdk_poly_field(a, b)).jacobian_polys()
        )
        kind = classify_linear(((px, x_sq * py), (qx, qy)))
        for label, sign in (("s3", 1), ("s4", -1)):
            points.append(_make_point(f, (sign * root + dx, y2 + dy), label, kind=kind, error_bound=err))
    return points


# -- numeric finder -----------------------------------------------------------------


def _shared_curve(f: PolyField, cells) -> bool:
    """True when the square-free part of gcd(P, Q) takes both signs at corners of the cells.

    Its zeros, all common zeros of P and Q, then separate two points of the box, so they hold
    a curve: an exact verdict.  The cells cover every zero the box test could not exclude.
    """
    g = poly_gcd(f.P, f.Q)
    if g.total_degree() < 1:
        return False
    g = poly_divexact(g, poly_gcd(poly_gcd(g, g.diff_x()), g.diff_y()))
    signs = set()
    for xlo, xhi, ylo, yhi in cells:
        values = (g.eval(Fraction(x), Fraction(y)) for x in (xlo, xhi) for y in (ylo, yhi))
        signs.update(v > 0 for v in values if v)
        if len(signs) == 2:
            return True
    return False


def _newton_polish(f: PolyField, x, y, tol, max_iter=60):
    rhs, jac = f.compiled(), f.float_jacobian()
    for _ in range(max_iter):
        fx, fy = rhs(x, y)
        res = math.hypot(fx, fy)
        (a11, a12), (a21, a22) = jac(x, y)
        det = a11 * a22 - a12 * a21
        if abs(det) > 1e-14 * max(1.0, a11 * a11 + a12 * a12 + a21 * a21 + a22 * a22):
            dx = (-fx * a22 + fy * a12) / det
            dy = (-fy * a11 + fx * a21) / det
        else:
            # near-singular Jacobian (continuum direction): damped gradient step
            import numpy as np

            sol, *_ = np.linalg.lstsq(
                np.array([[a11, a12], [a21, a22]]), np.array([-fx, -fy]), rcond=None
            )
            dx, dy = float(sol[0]), float(sol[1])
        x, y = x + dx, y + dy
        if res < tol and math.hypot(dx, dy) < tol:
            return x, y, res
    fx, fy = rhs(x, y)
    return x, y, math.hypot(fx, fy)


def find_stationary(f: PolyField, box, tol: float = 1e-10):
    """All isolated common zeros of (P, Q) in the box, to residual < tol.

    Recursive interval subdivision discards boxes where either component is
    sign-definite, by the field's generated `box_test`; surviving cells are
    polished by Newton.  Points closer than 10*tol are merged.  Returns a
    Continuum marker, with the merged points as samples, when the zero set
    is a curve: more than 16 merged points, or a factor shared by P and Q
    that changes sign over the cells (no samples for the zero field, which
    is not searched); raises AmbiguityError if resolution runs out first.
    """
    xmin, xmax, ymin, ymax = (float(v) for v in box)
    if not (xmin < xmax and ymin < ymax and all(map(math.isfinite, (xmin, xmax, ymin, ymax)))):
        raise PreconditionError("box bounds must be finite and ordered")
    if tol <= 0:
        raise PreconditionError("tolerance must be positive")
    if f.P.is_zero() and f.Q.is_zero():
        return Continuum(samples=())

    excludes = f.box_test()
    min_diam = max((xmax - xmin), (ymax - ymin)) / 2**9
    stack = [(xmin, xmax, ymin, ymax)]
    candidates, failed, leaves = [], [], []
    while stack:
        xlo, xhi, ylo, yhi = stack.pop()
        if excludes(xlo, xhi, ylo, yhi)[0]:
            continue
        if max(xhi - xlo, yhi - ylo) <= min_diam:
            leaves.append((xlo, xhi, ylo, yhi))
            cx, cy = (xlo + xhi) / 2, (ylo + yhi) / 2
            x, y, res = _newton_polish(f, cx, cy, tol)
            if res < tol:
                margin = 2 * max(xhi - xlo, yhi - ylo)
                if xlo - margin <= x <= xhi + margin and ylo - margin <= y <= yhi + margin:
                    candidates.append((x, y))
                # converged far away: that root is caught by its own cell
            else:
                failed.append((cx, cy))
            continue
        xm, ym = (xlo + xhi) / 2, (ylo + yhi) / 2
        stack.extend(
            [
                (xlo, xm, ylo, ym),
                (xm, xhi, ylo, ym),
                (xlo, xm, ym, yhi),
                (xm, xhi, ym, yhi),
            ]
        )

    merged: list[tuple[float, float]] = []
    radius = 10 * max(tol, 1e-12)
    for x, y in sorted(candidates):
        if not any(math.hypot(x - mx, y - my) <= radius for mx, my in merged):
            merged.append((x, y))

    # a curve of zeros floods the subdivision with distinct converged points, or is a
    # shared factor: report it before the handful of stalled cells on it
    if len(merged) > 16 or _shared_curve(f, leaves):
        return Continuum(samples=tuple(sorted(merged)))

    if failed:
        raise AmbiguityError(
            f"{len(failed)} cells exhausted resolution without separating",
            clusters=failed,
        )

    points = []
    for x, y in sorted(merged):
        points.append(_make_point(f, (x, y), None, error_bound=tol))
    return points
