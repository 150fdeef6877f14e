"""The parameter atlas: sixteen qualitative regions in the positive quadrant.

Every pair of positive parameters (a, b) lands in exactly one region; the
decision tree uses exact rational comparisons so the boundary lines a = 1,
b = 1, a = b, {a = 1/2, b = 1} and the curve |8a(a-1)| = b are first-class
regions of their own.  Regions are labeled 1, 2a-2c, 3a-3l.

`region_summary` is the self-checking core: the region's expected
qualitative content (stationary points and their kinds, the sector
structure at the origin, the behaviour at infinity, the almost-attractor
list) is cross-validated at runtime against the closed-form solver, the
blow-up machinery, and the compactification, and the computed objects are
returned with it; any mismatch raises InternalInconsistencyError, which
signals a bug, never a user error.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

from . import blowup, compact, equilibria
from .desing import cdk_poly_field
from .errors import DomainError, InternalInconsistencyError
from .polycore import as_rational

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


def _rationalize(value, diagnostics=None):
    if isinstance(value, float):
        if diagnostics is not None:
            diagnostics.append(
                f"parameter {value!r} was rationalized from a float; exact region "
                "boundaries need exact rational input"
            )
        return Fraction(value)
    return as_rational(value)


def classify_region(a, b, diagnostics=None) -> str:
    """Region label of (a, b); exact comparisons, boundaries included."""
    a = _rationalize(a, diagnostics)
    b = _rationalize(b, diagnostics)
    if a <= 0 or b <= 0:
        raise DomainError("parameters must be positive")
    if a == 1 and b == 1:
        return "1"
    if a == 1:
        return "3a" if b > 1 else "3b"
    if b == 1:
        if a < Fraction(1, 2):
            return "3i"
        if a == Fraction(1, 2):
            return "3j"
        return "3k" if a < 1 else "3l"
    if a > 1 and b < 1:
        return "2a"
    if a < 1 and b > 1:
        # the boundary |8a(a-1)| = b belongs to the node case
        return "2b" if abs(8 * a * (a - 1)) > b else "2c"
    if a > 1 and b > 1:
        return "3c" if a == b else ("3d" if a < b else "3e")
    # 0 < a, b < 1
    return "3f" if a == b else ("3g" if a < b else "3h")


@dataclass(frozen=True)
class RegionContent:
    """Expected qualitative content of one region."""

    s2_kind: str | None  # None when s2 is not isolated (the circle case)
    s34_kind: str | None
    s1_case: str  # local case at the origin: "1","2","3a".."3d" or "circle"
    infinity: object  # "continuum" or (x_direction_kind, y_direction_kind)
    homoclinic: bool
    almost_attractors: tuple


_X_SADDLE = ("saddle", "repelling_node")
_X_NODE = ("repelling_node", "saddle")

REGION_TABLE: dict[str, RegionContent] = {
    "1": RegionContent(None, None, "circle", "continuum", False, ("s1", "circle")),
    "2a": RegionContent("attracting_node", "saddle", "1", _X_NODE, True, ("s1", "s2")),
    "2b": RegionContent("saddle", "attracting_focus", "2", _X_SADDLE, False, ("s3", "s4")),
    "2c": RegionContent("saddle", "attracting_node", "2", _X_SADDLE, False, ("s3", "s4")),
    "3a": RegionContent("semi_hyperbolic(attracting_node)", None, "2", _X_SADDLE, False, ("s2",)),
    "3b": RegionContent("semi_hyperbolic(saddle)", None, "1", _X_NODE, True, ("s1",)),
    "3c": RegionContent("attracting_node", None, "2", "continuum", False, ("s2",)),
    "3d": RegionContent("attracting_node", None, "2", _X_SADDLE, False, ("s2",)),
    "3e": RegionContent("attracting_node", None, "2", _X_NODE, False, ("s2",)),
    "3f": RegionContent("saddle", None, "1", "continuum", True, ("s1",)),
    "3g": RegionContent("saddle", None, "1", _X_SADDLE, True, ("s1",)),
    "3h": RegionContent("saddle", None, "1", _X_NODE, True, ("s1",)),
    "3i": RegionContent("saddle", None, "3a", _X_SADDLE, True, ("s1",)),
    "3j": RegionContent("saddle", None, "3b", _X_SADDLE, True, ("s1",)),
    "3k": RegionContent("saddle", None, "3c", _X_SADDLE, True, ("s1",)),
    "3l": RegionContent("attracting_node", None, "3d", _X_NODE, False, ("s1", "s2")),
}

# origin case -> expected multiset of (kind, halfplane, stability) sector tags;
# None entries are wildcards
_SECTOR_PATTERNS: dict[str, tuple] = {
    "1": (("elliptic", None, None), ("elliptic", None, None)),
    "2": (("hyperbolic", None, None), ("hyperbolic", None, None)),
    "3a": (
        ("elliptic", "upper", None),
        ("elliptic", "upper", None),
        ("parabolic", "lower", None),
        ("parabolic", "lower", None),
        ("parabolic", "lower", None),
        ("parabolic", "lower", None),
    ),
    "3b": (
        ("elliptic", "upper", None),
        ("elliptic", "upper", None),
        ("parabolic", "lower", None),
        ("parabolic", "lower", None),
    ),
    "3c": (
        ("elliptic", "upper", None),
        ("elliptic", "upper", None),
        ("parabolic", "upper", None),
        ("parabolic", "upper", None),
        ("parabolic", "lower", None),
        ("parabolic", "lower", None),
    ),
    "3d": (
        ("hyperbolic", "upper", None),
        ("hyperbolic", "upper", None),
        ("parabolic", "upper", "repelling"),
        ("parabolic", "upper", "repelling"),
        ("parabolic", "lower", "attracting"),
        ("parabolic", "lower", "attracting"),
    ),
}

_CASE_INDEX = {"1": 2, "2": 0, "3a": 2, "3b": 2, "3c": 2, "3d": 0}


@dataclass(frozen=True)
class RegionSummary:
    """The region's expected content, with the computed objects it was checked against."""

    region: str
    finite_points: dict
    s1_sectors: str
    infinity: object
    homoclinic: bool
    almost_attractors: tuple
    stationary: object  # list of StationaryPoint, or the StationaryCircle in region 1
    sectors: object  # SectorDecomposition of the origin; None in region 1
    at_infinity: object  # list of InfinitePoint, or an InfinityContinuum


def _kind_string(kind) -> str:
    return kind.name if kind.subkind is None else f"{kind.name}({kind.subkind})"


def _validate_sectors(dec, case: str):
    pattern = _SECTOR_PATTERNS[case]
    got = [(s.kind, s.halfplane, s.stability) for s in dec.sectors]
    # match the multiset against the wildcard pattern, most specific first
    remaining = list(got)
    for entry in sorted(pattern, key=lambda e: -sum(v is not None for v in e)):
        for tag in remaining:
            if all(ev is None or ev == tv for ev, tv in zip(entry, tag)):
                remaining.remove(tag)
                break
        else:
            raise InternalInconsistencyError(
                f"sector structure {sorted(got)} does not match case {case} "
                f"expectation {sorted(pattern)}: no sector fits {entry}"
            )
    if remaining:
        raise InternalInconsistencyError(
            f"sector structure {sorted(got)} has {len(remaining)} sectors beyond "
            f"case {case} expectation"
        )
    if dec.index != _CASE_INDEX[case]:
        raise InternalInconsistencyError(
            f"origin index {dec.index} does not match case {case}"
        )
    if dec.homoclinic != any(k[0] == "elliptic" for k in pattern):
        raise InternalInconsistencyError("homoclinic flag inconsistent with sectors")


def region_summary(a, b) -> RegionSummary:
    """Full qualitative record of the region of (a, b); see `cdk_field_summary`."""
    return cdk_field_summary(cdk_poly_field(_rationalize(a), _rationalize(b)))


def cdk_field_summary(f) -> RegionSummary:
    """Full qualitative record of the region of a field built by `cdk_poly_field`.

    Every claim in the record is recomputed from the constituent modules
    and compared; a mismatch raises InternalInconsistencyError.  The
    computed objects are returned with the record.
    """
    region = classify_region(*f.provenance[1:3])
    expected = REGION_TABLE[region]
    stationary = equilibria.cdk_closed_form(f)
    sectors = None

    finite: dict = {}
    if region == "1":
        finite["circle"] = "stationary_circle"
        if not isinstance(stationary, equilibria.StationaryCircle):
            raise InternalInconsistencyError("expected a stationary circle at a=b=1")
        for t in (Fraction(0), Fraction(1), Fraction(-2, 3)):
            x = t / (1 + t * t)
            y = 1 / (1 + t * t)
            if f.P.eval(x, y) != 0 or f.Q.eval(x, y) != 0:
                raise InternalInconsistencyError("field does not vanish on the circle")
    else:
        by_label = {p.label: p for p in stationary}
        finite["s1"] = f"nilpotent (case {expected.s1_case})"
        finite["s2"] = expected.s2_kind
        got = _kind_string(by_label["s2"].kind)
        if got != expected.s2_kind:
            raise InternalInconsistencyError(
                f"s2 kind {got} != expected {expected.s2_kind} in region {region}"
            )
        if expected.s34_kind is not None:
            finite["s3"] = finite["s4"] = expected.s34_kind
            if "s3" not in by_label:
                raise InternalInconsistencyError(f"s3/s4 missing in region {region}")
            got = _kind_string(by_label["s3"].kind)
            if got != expected.s34_kind:
                raise InternalInconsistencyError(
                    f"s3/s4 kind {got} != expected {expected.s34_kind}"
                )
        elif "s3" in by_label:
            raise InternalInconsistencyError(f"unexpected s3/s4 in region {region}")
        sectors = blowup.classify_nilpotent_origin(f)
        _validate_sectors(sectors, expected.s1_case)

    inf = compact.infinite_stationary_points(f)
    if expected.infinity == "continuum":
        if not isinstance(inf, compact.InfinityContinuum):
            raise InternalInconsistencyError(f"expected infinity continuum in {region}")
        if not inf.one_outgoing_trajectory_each():
            raise InternalInconsistencyError("continuum transverse eigenvalues not positive")
    else:
        if isinstance(inf, compact.InfinityContinuum):
            raise InternalInconsistencyError(f"unexpected infinity continuum in {region}")
        x_kind, y_kind = expected.infinity
        for p in inf:
            want = x_kind if p.direction_label in ("+x", "-x") else y_kind
            if p.kind.name != want:
                raise InternalInconsistencyError(
                    f"infinite point {p.direction_label} is {p.kind.name}, expected {want}"
                )

    return RegionSummary(
        region=region,
        finite_points=finite,
        s1_sectors=expected.s1_case,
        infinity=expected.infinity,
        homoclinic=expected.homoclinic,
        almost_attractors=expected.almost_attractors,
        stationary=stationary,
        sectors=sectors,
        at_infinity=inf,
    )


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


def _midpoints(lo: Fraction, hi: Fraction, n: int):
    step = (hi - lo) / n
    return [lo + step * Fraction(2 * k + 1, 2) for k in range(n)]


def _curve(a: Fraction) -> Fraction:
    return abs(8 * a * (a - 1))


def scan_grid(a_range, b_range, resolution: int) -> ScanResult:
    """Region map over a rectangle of the parameter plane.

    Cells are classified at their exact rational midpoints; the
    measure-zero boundary loci (a=1, b=1, a=b, a=1/2 on b=1, |8a(a-1)|=b)
    are sampled separately so every region that meets the rectangle shows
    up in the result.

    A row of fixed b is filled by runs.  Every predicate `classify_region`
    reads (a against 1/2, 1 and b, and |8a(a-1)| > b) is monotone in a on
    each of a < 1/2, 1/2 <= a < 1 and a >= 1, so bisection over the sorted
    midpoints finds, exactly, every index where one of them can change; a
    midpoint on a line gets a run of its own.  `classify_region` labels the
    first cell of each run and the label fills the run.  Exact comparisons
    thus grow as rows * log(columns), while the output stays n^2 cells.
    """
    a_lo, a_hi = (as_rational(v) for v in a_range)
    b_lo, b_hi = (as_rational(v) for v in b_range)
    if not (0 <= a_lo < a_hi and 0 <= b_lo < b_hi):
        raise DomainError("ranges must be ascending and nonnegative")
    if resolution < 1:
        raise DomainError("resolution must be at least 1")

    a_vals = _midpoints(a_lo, a_hi, resolution)
    b_vals = _midpoints(b_lo, b_hi, resolution)

    n = len(a_vals)
    half = bisect_left(a_vals, Fraction(1, 2))
    one = bisect_left(a_vals, 1)
    fixed = {0, n, half, one, bisect_right(a_vals, Fraction(1, 2)), bisect_right(a_vals, 1)}
    cells = []
    for b in b_vals:
        cuts = sorted(fixed | {
            bisect_left(a_vals, b),
            bisect_right(a_vals, b),
            # |8a(a-1)| > b: it rises below a = 1/2, falls up to a = 1, rises after
            bisect_right(a_vals, b, 0, half, key=_curve),
            bisect_left(a_vals, -b, half, one, key=lambda a: -_curve(a)),
            bisect_right(a_vals, b, one, n, key=_curve),
        })
        row = []
        for lo, hi in zip(cuts, cuts[1:]):
            row += [classify_region(a_vals[lo], b)] * (hi - lo)
        cells.append(tuple(row))

    def in_a(v):
        return a_lo < v <= a_hi

    def in_b(v):
        return b_lo < v <= b_hi

    loci: dict[str, tuple] = {}
    if in_a(Fraction(1)):
        ids = {classify_region(1, b) for b in b_vals}
        if in_b(Fraction(1)):
            ids.add(classify_region(1, 1))
        loci["a=1"] = tuple(sorted(ids))
    if in_b(Fraction(1)):
        ids = {classify_region(a, 1) for a in a_vals if in_a(a)}
        if in_a(Fraction(1, 2)):
            ids.add(classify_region(Fraction(1, 2), 1))
        if in_a(Fraction(1)):
            ids.add(classify_region(1, 1))
        loci["b=1"] = tuple(sorted(ids))
    diag = [v for v in a_vals if in_b(v)]
    if diag:
        ids = {classify_region(v, v) for v in diag}
        if in_a(Fraction(1)) and in_b(Fraction(1)):
            ids.add("1")
        loci["a=b"] = tuple(sorted(ids))
    # the focus/node boundary b = |8a(a-1)| inside b>1>a
    curve_ids = set()
    for a in a_vals:
        if a < 1:
            bval = 8 * a * (1 - a)
            if bval > 1 and in_b(bval):
                curve_ids.add(classify_region(a, bval))
    if curve_ids:
        loci["|8a(a-1)|=b"] = tuple(sorted(curve_ids))
    return ScanResult(
        a_values=tuple(a_vals),
        b_values=tuple(b_vals),
        cells=tuple(cells),
        boundary_loci=loci,
    )
