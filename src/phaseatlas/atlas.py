"""The parameter atlas: sixteen qualitative regions in the positive quadrant.

Every pair of positive parameters (a, b) lands in exactly one region; the
decision tree uses exact rational comparisons so the boundary lines a = 1,
b = 1, a = b, {a = 1/2, b = 1} and the curve |8a(a-1)| = b are first-class
regions of their own.  Regions are labeled 1, 2a-2c, 3a-3l.

`FieldAnalysis` is one polynomial field's analysis in the order the paper
sorts each region: the finite stationary points, the origin's blow-up
sectors, the points at infinity, each computed once, on first use.
`analyze`, `stationary`, `omega` and `portrait` read it.  For a cdk field,
`cdk_field_summary` reads the record into a `RegionContent` in the table's
own terms and compares it with the region's `REGION_TABLE` row in one
comparison; a mismatch raises InternalInconsistencyError, which signals a
bug, never a user error.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from . import blowup, compact, equilibria
from .desing import cdk_poly_field
from .errors import DomainError, InternalInconsistencyError
from .polycore import as_rational, is_nilpotent_origin

REGION_IDS = (
    "1",
    "2a",
    "2b",
    "2c",
    "3a",
    "3b",
    "3c",
    "3d",
    "3e",
    "3f",
    "3g",
    "3h",
    "3i",
    "3j",
    "3k",
    "3l",
)


def classify_region(a, b) -> str:
    """Region label of (a, b), boundaries included: `_region` on a and b over one denominator."""
    a, b = as_rational(a), as_rational(b)
    if a <= 0 or b <= 0:
        raise DomainError("parameters must be positive")
    return _region(a.numerator * b.denominator, b.numerator * a.denominator, a.denominator * b.denominator)


def _region(A: int, B: int, D: int) -> str:
    """Region label of (A/D, B/D), ints A, B, D > 0: the one tree of `classify_region` and `scan_grid`."""
    if A == D:
        return "1" if B == D else ("3a" if B > D else "3b")
    if B == D:
        if 2 * A < D:
            return "3i"
        if 2 * A == D:
            return "3j"
        return "3k" if A < D else "3l"
    if A > D and B < D:
        return "2a"
    if A < D and B > D:
        # the boundary |8a(a-1)| = b belongs to the node case
        return "2b" if abs(8 * A * (A - D)) > B * D else "2c"
    if A > D and B > D:
        return "3c" if A == B else ("3d" if A < B else "3e")
    # 0 < a, b < 1
    return "3f" if A == B else ("3g" if A < B else "3h")


@dataclass(frozen=True)
class RegionContent:
    """Qualitative content of one region: a `REGION_TABLE` row, or a cdk field's record in its terms."""

    s2_kind: str | None  # None when s2 is not isolated (the circle case)
    s34_kind: str | None
    s1_case: str  # local case at the origin: "1","2","3a".."3d" or "circle"
    infinity: object  # "continuum" or (x_direction_kind, y_direction_kind)
    almost_attractors: tuple

    @property
    def homoclinic(self) -> bool:
        """Whether the origin case's sector pattern has an elliptic sector (the circle case has none)."""
        return any(tag[0] == "elliptic" for tag in _SECTOR_PATTERNS.get(self.s1_case, ()))


_ATTRACTING = ("attracting_node", "attracting_focus", "semi_hyperbolic(attracting_node)")
_X_SADDLE = ("saddle", "repelling_node")
_X_NODE = ("repelling_node", "saddle")

REGION_TABLE: dict[str, RegionContent] = {
    "1": RegionContent(None, None, "circle", "continuum", ("s1", "circle")),
    "2a": RegionContent("attracting_node", "saddle", "1", _X_NODE, ("s1", "s2")),
    "2b": RegionContent("saddle", "attracting_focus", "2", _X_SADDLE, ("s3", "s4")),
    "2c": RegionContent("saddle", "attracting_node", "2", _X_SADDLE, ("s3", "s4")),
    "3a": RegionContent("semi_hyperbolic(attracting_node)", None, "2", _X_SADDLE, ("s2",)),
    "3b": RegionContent("semi_hyperbolic(saddle)", None, "1", _X_NODE, ("s1",)),
    "3c": RegionContent("attracting_node", None, "2", "continuum", ("s2",)),
    "3d": RegionContent("attracting_node", None, "2", _X_SADDLE, ("s2",)),
    "3e": RegionContent("attracting_node", None, "2", _X_NODE, ("s2",)),
    "3f": RegionContent("saddle", None, "1", "continuum", ("s1",)),
    "3g": RegionContent("saddle", None, "1", _X_SADDLE, ("s1",)),
    "3h": RegionContent("saddle", None, "1", _X_NODE, ("s1",)),
    "3i": RegionContent("saddle", None, "3a", _X_SADDLE, ("s1",)),
    "3j": RegionContent("saddle", None, "3b", _X_SADDLE, ("s1",)),
    "3k": RegionContent("saddle", None, "3c", _X_SADDLE, ("s1",)),
    "3l": RegionContent("attracting_node", None, "3d", _X_NODE, ("s1", "s2")),
}

# origin case -> the multiset of (kind, halfplane, stability) sector tags, each written out
_E_UP, _E_LO = ("elliptic", "upper", None), ("elliptic", "lower", None)
_H_UP, _H_LO = ("hyperbolic", "upper", None), ("hyperbolic", "lower", None)
_P_UP_IN, _P_UP_OUT = ("parabolic", "upper", "attracting"), ("parabolic", "upper", "repelling")
_P_LO_IN = ("parabolic", "lower", "attracting")
_SECTOR_PATTERNS: dict[str, tuple] = {
    "1": (_E_UP, _E_LO),
    "2": (_H_UP, _H_LO),
    "3a": (_E_UP, _E_UP, _P_LO_IN, _P_LO_IN, _P_LO_IN, _P_LO_IN),
    "3b": (_E_UP, _E_UP, _P_LO_IN, _P_LO_IN),
    "3c": (_E_UP, _E_UP, _P_UP_IN, _P_UP_IN, _P_LO_IN, _P_LO_IN),
    "3d": (_H_UP, _H_UP, _P_UP_OUT, _P_UP_OUT, _P_LO_IN, _P_LO_IN),
}


class FieldAnalysis:
    """A polynomial field's analysis; each part is computed on first use and kept, an exception is not."""

    def __init__(self, field, tol=1e-10):
        self.field, self.tol = field, tol

    @cached_property
    def finite(self):
        """(points, circle), or a Continuum: a cdk field's closed form, else `find_stationary` on (-8, 8)²."""
        f = self.field
        if f.provenance[0] == "cdk":
            found = equilibria.cdk_closed_form(f)
            return ([], found) if isinstance(found, equilibria.StationaryCircle) else (found, None)
        found = equilibria.find_stationary(f, (-8, 8, -8, 8), tol=self.tol)
        return found if isinstance(found, equilibria.Continuum) else (found, None)

    @cached_property
    def sectors(self):
        """The origin's SectorDecomposition when it is nilpotent and every finite point is isolated, else None."""
        f = self.field
        if isinstance(self.finite, tuple) and self.finite[1] is None and is_nilpotent_origin(f.P, f.Q):
            return blowup.classify_nilpotent_origin(f)
        return None

    @cached_property
    def infinity(self):
        """The points at infinity: a list of InfinitePoint, or an InfinityContinuum."""
        return compact.infinite_stationary_points(self.field)


@dataclass(frozen=True)
class RegionSummary:
    """The region, its `REGION_TABLE` row and the record that row was checked against."""

    region: str
    content: RegionContent
    analysis: FieldAnalysis


def region_summary(a, b) -> RegionSummary:
    """Full qualitative record of the region of (a, b); see `cdk_field_summary`."""
    return cdk_field_summary(FieldAnalysis(cdk_poly_field(a, b)))


def cdk_field_summary(analysis: FieldAnalysis) -> RegionSummary:
    """The region of a `cdk_poly_field` field, its `REGION_TABLE` row checked against the field's record.

    The record is read in its order (closed form, blow-up, infinity), so its first error is raised first;
    a record that differs from the row raises after the whole record is read.
    """
    region = classify_region(*analysis.field.provenance[1:3])
    row, record = REGION_TABLE[region], _record(analysis)
    if record != row:
        raise InternalInconsistencyError(f"region {region}: row {row} does not match record {record}")
    return RegionSummary(region=region, content=row, analysis=analysis)


def _record(analysis: FieldAnalysis) -> RegionContent:
    """A cdk field's `FieldAnalysis` in `REGION_TABLE` terms.

    Almost attractors by a local rule: s1 when its sectors include an elliptic or an attracting
    parabolic one, s2-s4 when their kind attracts, ("s1", "circle") on the circle.  The Dulac
    function 1/(x(x² + y²)), with divergence -b/x, rules out periodic orbits; forward boundedness
    and the absence of an attracting graphic are assumed, not checked.
    """
    f = analysis.field
    points, circle = analysis.finite
    kinds = {p.label: str(p.kind) for p in points}
    attractors = [label for label in ("s2", "s3", "s4") if kinds.get(label) in _ATTRACTING]
    if circle is not None:
        for t in (Fraction(0), Fraction(1), Fraction(-2, 3)):
            x = t / (1 + t * t)
            y = 1 / (1 + t * t)
            if f.P.eval(x, y) != 0 or f.Q.eval(x, y) != 0:
                raise InternalInconsistencyError("field does not vanish on the circle")
        case, attractors = "circle", ["s1", "circle"]
    else:
        tags = sorted(((s.kind, s.halfplane, s.stability) for s in analysis.sectors.sectors), key=str)
        cases = (c for c, pattern in _SECTOR_PATTERNS.items() if sorted(pattern, key=str) == tags)
        case = next(cases, tuple(tags))  # a cycle of no case is recorded as its tags, which no row holds
        if any(kind == "elliptic" or stability == "attracting" for kind, _, stability in tags):
            attractors.insert(0, "s1")
    inf = analysis.infinity
    if isinstance(inf, compact.InfinityContinuum):
        infinity = "continuum" if inf.one_outgoing_trajectory_each() else "continuum, not one outgoing each"
    else:  # the kinds at ±x and at the other directions; a row holds one kind for each
        on_x = {p.kind.name for p in inf if p.direction_label in ("+x", "-x")}
        off_x = {p.kind.name for p in inf if p.direction_label not in ("+x", "-x")}
        infinity = ("/".join(sorted(on_x)), "/".join(sorted(off_x)))
    return RegionContent(kinds.get("s2"), kinds.get("s3"), case, infinity, tuple(attractors))


# -- grid scan ------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanResult:
    a_values: tuple  # exact cell-midpoint coordinates, ascending
    b_values: tuple
    cells: tuple  # rows indexed by b, columns by a (row-major)
    boundary_loci: dict  # locus name -> tuple of region ids found on it

    def distinct_regions(self) -> set:
        out = set()
        for row in self.cells:
            out.update(row)
        for ids in self.boundary_loci.values():
            out.update(ids)
        return out


# The largest scan resolution, whose region-map SVG is about 77 MB.  An
# unbounded n = 10^5 would ask for 10^10 cells and run out of memory.
MAX_RESOLUTION = 1000


def scan_grid(a_range, b_range, resolution: int) -> ScanResult:
    """Region map over a rectangle of the parameter plane.

    Cells are classified at their exact rational midpoints; the
    measure-zero boundary loci (a=1, b=1, a=b, a=1/2 on b=1, |8a(a-1)|=b)
    are sampled separately so every region that meets the rectangle shows
    up in the result.

    The scan runs on ints: each midpoint lo + (hi - lo)(2k+1)/(2n) is a
    numerator A over D = 2n * lcm(denominators of the range ends), labeled by
    `_region`; a curve point (a, 8a(1-a)) is (A*D, 8A(D-A)) over D^2.

    A row of fixed b is filled by runs.  Every predicate `_region` reads
    (a against 1/2, 1 and b, and |8a(a-1)| > b) is monotone in a on each
    of a < 1/2, 1/2 <= a < 1 and a >= 1, so bisection over the sorted
    midpoints finds, exactly, every index where one of them can change; a
    midpoint on a line gets a run of its own.  The curve key |8A(A-D)| is
    computed once per column, so the bisections compare ints with no call.
    The first cell of each run is labeled and the label fills the run.
    Exact comparisons thus grow as rows * log(columns), while the output
    stays n^2 cells.

    The resolution n runs from 1 to `MAX_RESOLUTION` (1000); any other
    value is a DomainError, raised before a cell is made.
    """
    ends = [as_rational(v) for v in (*a_range, *b_range)]
    L = lcm(*(v.denominator for v in ends))
    a_lo, a_hi, b_lo, b_hi = (v.numerator * (L // v.denominator) for v in ends)
    if not (0 <= a_lo < a_hi and 0 <= b_lo < b_hi):
        raise DomainError("ranges must be ascending and nonnegative")
    if resolution < 1:
        raise DomainError("resolution must be at least 1")
    if resolution > MAX_RESOLUTION:
        raise DomainError(f"resolution must be at most {MAX_RESOLUTION}")
    n = resolution
    D = 2 * n * L
    a_vals = [2 * n * a_lo + (a_hi - a_lo) * (2 * k + 1) for k in range(n)]
    b_vals = [2 * n * b_lo + (b_hi - b_lo) * (2 * k + 1) for k in range(n)]
    a_lo, a_hi, b_lo, b_hi = (2 * n * v for v in (a_lo, a_hi, b_lo, b_hi))  # over D

    # the curve key |8A(A-D)| of each column, and its negation for the falling piece
    rising = [abs(8 * A * (A - D)) for A in a_vals]
    falling = [-c for c in rising]
    half = bisect_left(a_vals, D // 2)
    one = bisect_left(a_vals, D)
    fixed = {0, n, half, one, bisect_right(a_vals, D // 2), bisect_right(a_vals, D)}
    cells = []
    for B in b_vals:
        K = B * D  # b over D^2, the denominator of the curve key
        cuts = sorted(fixed | {
            bisect_left(a_vals, B),
            bisect_right(a_vals, B),
            # |8a(a-1)| > b: it rises below a = 1/2, falls up to a = 1, rises after
            bisect_right(rising, K, 0, half),
            bisect_left(falling, -K, half, one),
            bisect_right(rising, K, one, n),
        })
        row = []
        for lo, hi in zip(cuts, cuts[1:]):
            row += [_region(a_vals[lo], B, D)] * (hi - lo)
        cells.append(tuple(row))

    a_one, b_one = a_lo < D <= a_hi, b_lo < D <= b_hi  # the lines a = 1 and b = 1 meet the rectangle
    loci: dict[str, tuple] = {}
    if a_one:
        ids = {_region(D, B, D) for B in b_vals}
        if b_one:
            ids.add(_region(D, D, D))
        loci["a=1"] = tuple(sorted(ids))
    if b_one:
        ids = {_region(A, D, D) for A in a_vals}
        if a_lo < D // 2 <= a_hi:
            ids.add(_region(D // 2, D, D))
        if a_one:
            ids.add(_region(D, D, D))
        loci["b=1"] = tuple(sorted(ids))
    ids = {_region(V, V, D) for V in a_vals if b_lo < V <= b_hi}
    if ids:
        if a_one and b_one:
            ids.add("1")
        loci["a=b"] = tuple(sorted(ids))
    # the focus/node boundary b = |8a(a-1)| inside b>1>a, at b = C/D^2
    curve_ids = set()
    for A in a_vals:
        C = 8 * A * (D - A)
        if C > D * D and b_lo * D < C <= b_hi * D:
            curve_ids.add(_region(A * D, C, D * D))
    if curve_ids:
        loci["|8a(a-1)|=b"] = tuple(sorted(curve_ids))
    return ScanResult(
        a_values=tuple(Fraction(A, D) for A in a_vals),
        b_values=tuple(Fraction(B, D) for B in b_vals),
        cells=tuple(cells),
        boundary_loci=loci,
    )
