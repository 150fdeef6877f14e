import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaseatlas.atlas import (
    REGION_IDS,
    REGION_TABLE,
    classify_region,
    region_summary,
    scan_grid,
)
from phaseatlas.compact import InfinityContinuum
from phaseatlas.equilibria import StationaryCircle
from phaseatlas.errors import DomainError, InternalInconsistencyError

F = Fraction

# one representative per region: the appendix parameter pairs
APPENDIX_PAIRS = {
    (F(5, 2), F(1, 2)): "2a",
    (F(1), F(1, 2)): "3b",
    (F(7, 10), F(1, 2)): "3h",
    (F(1, 2), F(1, 2)): "3f",
    (F(1, 5), F(1, 2)): "3g",
    (F(1), F(1)): "1",
    (F(1, 5), F(1)): "3i",
    (F(1, 2), F(1)): "3j",
    (F(7, 10), F(1)): "3k",
    (F(5, 2), F(1)): "3l",
    (F(1, 2), F(19, 10)): "2b",
    (F(7, 10), F(19, 10)): "2c",
    (F(1), F(19, 10)): "3a",
    (F(6, 5), F(19, 10)): "3d",
    (F(19, 10), F(19, 10)): "3c",
    (F(5, 2), F(19, 10)): "3e",
}


def test_appendix_pairs_cover_all_sixteen_regions():
    assert sorted(APPENDIX_PAIRS.values()) == sorted(REGION_IDS)
    for (a, b), region in APPENDIX_PAIRS.items():
        assert classify_region(a, b) == region, (a, b)


def test_boundary_points():
    assert classify_region(1, 1) == "1"
    assert classify_region(F(1, 2), 1) == "3j"
    assert classify_region(1, F(1, 2)) == "3b"
    assert classify_region(F(19, 10), F(19, 10)) == "3c"


def test_focus_node_split_uses_nonstrict_inequality():
    # |8a(a-1)| = 2 > 1.9 at a = 1/2
    assert classify_region(F(1, 2), F(19, 10)) == "2b"
    # equality belongs to the node case: a = 1/2, b = 2
    assert classify_region(F(1, 2), 2) == "2c"


def test_rejects_nonpositive():
    with pytest.raises(DomainError):
        classify_region(0, 1)
    with pytest.raises(DomainError):
        classify_region(F(1, 2), F(-1, 2))


def _independent_predicates(a, b):
    """The sixteen region predicates stated separately (partition oracle)."""
    half = F(1, 2)
    return {
        "1": a == 1 and b == 1,
        "2a": b < 1 < a,
        "2b": a < 1 < b and abs(8 * a * (a - 1)) > b,
        "2c": a < 1 < b and abs(8 * a * (a - 1)) <= b,
        "3a": a == 1 and b > 1,
        "3b": a == 1 and b < 1,
        "3c": a > 1 and b > 1 and a == b,
        "3d": a > 1 and b > 1 and a < b,
        "3e": a > 1 and b > 1 and a > b,
        "3f": a < 1 and b < 1 and a == b,
        "3g": a < 1 and b < 1 and a < b,
        "3h": a < 1 and b < 1 and a > b,
        "3i": b == 1 and a < half,
        "3j": b == 1 and a == half,
        "3k": b == 1 and half < a < 1,
        "3l": b == 1 and a > 1,
    }


def test_partition_on_random_parameters():
    rng = random.Random(123)
    for _ in range(10_000):
        if rng.random() < 0.3:  # force boundary values often
            a = rng.choice([F(1), F(1, 2), F(3, 2)])
        else:
            a = F(rng.randint(1, 60), rng.randint(1, 20))
        if rng.random() < 0.3:
            b = rng.choice([F(1), a])
        else:
            b = F(rng.randint(1, 60), rng.randint(1, 20))
        preds = _independent_predicates(a, b)
        fired = [r for r, v in preds.items() if v]
        assert len(fired) == 1, (a, b, fired)
        assert classify_region(a, b) == fired[0]


def test_homoclinic_depends_only_on_b():
    for b in (F(1, 2), F(9, 10), F(1), F(11, 10), F(19, 10)):
        flags = set()
        for k in range(1, 21):
            a = F(k, 7)
            region = classify_region(a, b)
            flag = REGION_TABLE[region].homoclinic
            expected = b < 1 or (b == 1 and a < 1)
            assert flag == expected, (a, b, region)
            if not (b == 1):
                flags.add(flag)
        if b != 1:
            assert len(flags) == 1


def test_region_summary_cross_validation_on_all_representatives():
    for (a, b), region in sorted(APPENDIX_PAIRS.items()):
        summary = region_summary(a, b)
        assert summary.region == region
        assert summary.content is REGION_TABLE[region]


@pytest.mark.parametrize("field", ["s2_kind", "s34_kind", "s1_case", "infinity"])
def test_region_summary_catches_every_edited_row(monkeypatch, field):
    # each compared cell of each appendix pair's row, given in turn every other value its column holds
    values = {getattr(row, field) for row in REGION_TABLE.values()}
    for (a, b), region in sorted(APPENDIX_PAIRS.items()):
        row = REGION_TABLE[region]
        for value in values - {getattr(row, field)}:
            with monkeypatch.context() as m:
                m.setitem(REGION_TABLE, region, replace(row, **{field: value}))
                with pytest.raises(InternalInconsistencyError, match=f"region {region}: row "):
                    region_summary(a, b)
        assert region_summary(a, b).content is row


@st.composite
def _sector_sweep_points(draw):
    """(a, b): 6-14-digit decimals in (0, 4), free or on a = 1, b = 1, a = b or the curve
    |8a(a-1)| = b, and on b = 1 a = 10^15 ... 10^300, or a = 1/2 and 1/2 ± 10^-17 ... 10^-31."""
    digits = draw(st.integers(6, 14))
    decimal = st.integers(1, 4 * 10**digits - 1).map(lambda n: F(n, 10**digits))
    a, b = draw(decimal), draw(decimal)
    locus = draw(st.sampled_from(["free", "a=1", "b=1", "a=b", "curve", "large", "half"]))
    if locus == "a=1":
        return F(1), b
    if locus == "b=1":
        return a, F(1)
    if locus == "a=b":
        return a, a
    if locus == "curve":
        a = F(3, 20) + a * F(7, 40)  # in (3/20, 17/20), where 8a(1-a) > 1
        return a, 8 * a * (1 - a)
    if locus == "large":
        return F(10) ** draw(st.integers(15, 300)), F(1)
    if locus == "half":
        return F(1, 2) + draw(st.sampled_from([-1, 0, 1])) * F(1, 10 ** draw(st.integers(17, 31))), F(1)
    return a, b


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(_sector_sweep_points())
def test_every_origin_case_has_its_whole_sector_cycle(point):
    # region_summary compares the origin's sectors, with each halfplane and parabolic stability,
    # against the case's multiset; any other cycle raises InternalInconsistencyError
    summary = region_summary(*point)
    assert summary.region == classify_region(*point)


def test_region_summary_examples():
    s = region_summary(F(7, 10), F(1, 2))
    assert s.region == "3h"
    assert s.content.s2_kind == "saddle"
    assert s.content.infinity == ("repelling_node", "saddle")
    assert s.content.homoclinic
    assert s.analysis.sectors.index == 2
    x_kind, y_kind = s.content.infinity
    assert sorted((p.direction_label, p.kind.name) for p in s.analysis.infinity) == [
        ("+x", x_kind), ("+y", y_kind), ("-x", x_kind), ("-y", y_kind)
    ]

    s = region_summary(F(1), F(1))
    assert s.region == "1"
    assert s.analysis.sectors is None
    assert s.analysis.finite[0] == [] and isinstance(s.analysis.finite[1], StationaryCircle)

    s = region_summary(F(19, 10), F(19, 10))
    assert s.region == "3c"
    assert s.content.s2_kind == "attracting_node"
    assert s.content.infinity == "continuum"

    s = region_summary(F(3, 10), F(1))
    assert s.region == "3i"
    assert s.content.s1_case == "3a"
    assert s.content.s2_kind == "saddle"


# -- grid scan -------------------------------------------------------------------------


def test_scan_three_by_three():
    res = scan_grid((F(1, 2), F(5, 2)), (F(1, 2), F(5, 2)), 3)
    # midpoints are 5/6, 3/2, 13/6 in both directions
    assert res.a_values == (F(5, 6), F(3, 2), F(13, 6))
    corner_low = res.cells[0][0]  # (5/6, 5/6): a=b<1
    assert corner_low == "3f"
    assert res.cells[0][2] == "2a"  # a=13/6 > 1 > b=5/6
    assert res.cells[2][0] == classify_region(F(5, 6), F(13, 6))


def test_scan_degenerate_single_cell():
    res = scan_grid((F(1, 2), F(3, 2)), (F(1, 2), F(3, 2)), 1)
    assert res.cells == (("1",),)  # midpoint is exactly (1, 1)


def test_scan_resolution_200_hits_all_sixteen():
    res = scan_grid((0, 3), (0, 3), 200)
    assert res.distinct_regions() == set(REGION_IDS)


# a grid puts its midpoint k of n at the target t when its step is 2tu/(2k+1),
# 0 < u <= 1; the targets lie on a = 1/2, 1, b = 1 and the curve |8a(a-1)| = b
_LOCUS_POINTS = (F(1, 2), F(1), F(1, 4), F(3, 4), F(3, 2), F(2), F(7, 8), F(6))
_target = st.one_of(
    st.sampled_from(_LOCUS_POINTS),
    st.fractions(min_value=F(1, 16), max_value=8, max_denominator=16),
)


@st.composite
def _range_through(draw, resolution):
    t = draw(_target)
    k = draw(st.integers(0, resolution - 1))
    u = draw(st.fractions(min_value=F(1, 8), max_value=1, max_denominator=8))
    lo = t * (1 - u)
    return lo, lo + 2 * t * u / (2 * k + 1) * resolution


@st.composite
def _rectangles(draw):
    n = draw(st.integers(1, 40))
    a_range = draw(_range_through(n))
    # an equal b range puts midpoints on a = b
    b_range = a_range if draw(st.booleans()) else draw(_range_through(n))
    return a_range, b_range, n


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_rectangles())
def test_scan_cells_match_classify_region(rect):
    a_range, b_range, n = rect
    res = scan_grid(a_range, b_range, n)
    assert res.cells == tuple(
        tuple(classify_region(a, b) for a in res.a_values) for b in res.b_values
    )


# -- one integer decision tree ----------------------------------------------------------


def _fraction_tree(a, b):
    """The region decision tree as it read in Fraction arithmetic (oracle for the integer one)."""
    if a == 1 and b == 1:
        return "1"
    if a == 1:
        return "3a" if b > 1 else "3b"
    if b == 1:
        if a < F(1, 2):
            return "3i"
        if a == F(1, 2):
            return "3j"
        return "3k" if a < 1 else "3l"
    if a > 1 and b < 1:
        return "2a"
    if a < 1 and b > 1:
        return "2b" if abs(8 * a * (a - 1)) > b else "2c"
    if a > 1 and b > 1:
        return "3c" if a == b else ("3d" if a < b else "3e")
    return "3f" if a == b else ("3g" if a < b else "3h")


_positive = st.fractions(min_value=F(1, 10**9), max_value=9, max_denominator=10**9)


@st.composite
def _points_on_the_loci(draw):
    """(a, b) mostly on a = 1/2, a = 1, b = 1, a = b or b = |8a(a-1)|."""
    a = draw(st.one_of(st.sampled_from([F(1, 2), F(1), F(1, 4), F(3, 4)]), _positive))
    locus = draw(st.sampled_from(["b=1", "a=b", "curve", "curve", "free"]))
    if locus == "b=1":
        return a, F(1)
    if locus == "a=b":
        return a, a
    if locus == "curve" and a != 1:
        return a, abs(8 * a * (a - 1))  # (1/4, 3/2) and (3/4, 3/2) among them
    return a, draw(_positive)


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(_points_on_the_loci())
def test_integer_tree_matches_the_fraction_tree(point):
    a, b = point
    assert classify_region(a, b) == _fraction_tree(a, b)
    assert classify_region(str(a), str(b)) == _fraction_tree(a, b)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.fractions(max_value=0), st.fractions())
def test_nonpositive_parameter_is_a_domain_error(nonpositive, other):
    for a, b in ((nonpositive, other), (abs(other) + 1, nonpositive)):
        with pytest.raises(DomainError, match="parameters must be positive"):
            classify_region(a, b)


def test_float_parameters_are_refused():
    # exact region boundaries need exact input, and Fraction(1.9) is not 19/10
    for call, a, b in ((classify_region, 0.5, 1.0), (classify_region, F(1, 2), 1.9),
                       (region_summary, 0.5, F(19, 10))):
        with pytest.raises(DomainError, match="refusing to coerce float"):
            call(a, b)


_FRACTION_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__",
                 "__rtruediv__", "__floordiv__", "__pow__", "__neg__", "__abs__", "__eq__",
                 "__lt__", "__le__", "__gt__", "__ge__")


def test_scan_of_17_digit_ranges_runs_on_integers(monkeypatch):
    a_range = (F("0.12345678901234567"), F("3.12345678901234567"))
    b_range = (F("0.98765432109876543"), F("3.98765432109876543"))
    calls = []
    for name in _FRACTION_OPS:
        method = getattr(F, name)
        monkeypatch.setattr(F, name, lambda *args, _m=method, _n=name: calls.append(_n) or _m(*args))
    res = scan_grid(a_range, b_range, 200)
    monkeypatch.undo()
    assert calls == []
    assert res.cells == tuple(
        tuple(classify_region(a, b) for a in res.a_values) for b in res.b_values
    )
    assert res.a_values[0] == a_range[0] + F(3, 400) and res.b_values[-1] == b_range[1] - F(3, 400)
    assert len(res.distinct_regions()) >= 10


# -- the sixteen regions swept across every boundary ------------------------------------

# the rational boundaries as linear forms c0 + ca·a + cb·b: a = 1, b = 1, a = b, and a = 1/2,
# a boundary on b = 1 alone, which elsewhere only adds samples
_LINES = ((-1, 1, 0), (-1, 0, 1), (0, 1, -1), (-1, 2, 0))

# REGION_TABLE rows whose records are equal, so a label change between them moves no record
_EQUAL_ROWS: set = set()


def _curve_sign(a, b) -> int:
    """Sign of |8a(a-1)| - b: 1 on the focus side of the 2b/2c boundary, 0 on it."""
    g = abs(8 * a * (a - 1)) - b
    return (g > 0) - (g < 0)


def _segment_path(p0, p1, steps, bisections=40):
    """Rational points from p0 to p1 in order: a grid of steps, each `_LINES` crossing with a point
    on each side, and each sign change of `_curve_sign` bracketed by exact bisection."""
    (a0, b0), (a1, b1) = p0, p1
    ts = {F(k, steps) for k in range(steps + 1)}
    crossings = set()
    for c0, ca, cb in _LINES:
        l0, l1 = c0 + ca * a0 + cb * b0, c0 + ca * a1 + cb * b1
        if l0 != l1 and 0 < l0 / (l0 - l1) < 1:
            crossings.add(l0 / (l0 - l1))
    ts |= crossings
    grid = sorted(ts)
    eps = min(r - l for l, r in zip(grid, grid[1:])) / 4
    ts |= {t + s for t in crossings for s in (eps, -eps)}
    at = lambda t: (a0 + t * (a1 - a0), b0 + t * (b1 - b0))
    grid = sorted(ts)
    for lo, hi in zip(grid, grid[1:]):
        s_lo, s_hi = _curve_sign(*at(lo)), _curve_sign(*at(hi))
        if s_lo * s_hi >= 0:
            continue
        for _ in range(bisections):
            mid = (lo + hi) / 2
            s_mid = _curve_sign(*at(mid))
            if s_mid == 0:
                ts.add(mid)
                break
            lo, hi = (mid, hi) if s_mid == s_lo else (lo, mid)
        ts |= {lo, hi}
    return [at(t) for t in sorted(ts)]


def _record(summary):
    """The record that `region_summary` checked, read off its analysis: the finite points' kinds,
    the origin's sector tags and the points at infinity."""
    analysis = summary.analysis
    points, circle = analysis.finite
    sectors, inf = analysis.sectors, analysis.infinity
    return (circle is not None,
            sorted((p.label, str(p.kind)) for p in points),
            None if sectors is None else sorted(((s.kind, s.halfplane, s.stability) for s in sectors.sectors), key=str),
            "continuum" if isinstance(inf, InfinityContinuum)
            else sorted((p.chart, p.direction_label, p.kind.name) for p in inf))


def test_sixteen_regions_swept_across_every_boundary():
    # the record is constant along each region and changes across each boundary: random rational
    # segments in (0, 4]², some on a = 1, b = 1 or a = b, and points on b = 8a(1 - a), the node side
    rng = random.Random(31)
    rand = lambda lo, hi: lo + (hi - lo) * F(rng.randint(1, 999), 1000)
    paths = []
    for k in range(48):
        p0 = (rand(0, 4), rand(0, 4))
        p1 = (rand(0, 1), rand(1, 2)) if k % 2 else (rand(0, 4), rand(0, 4))  # across the curve
        paths.append(_segment_path(p0, p1, 12))
    for _ in range(4):
        a0, a1, b0, b1 = rand(0, 1), rand(1, 4), rand(0, 1), rand(1, 4)
        paths += [_segment_path((a0, 1), (a1, 1), 12), _segment_path((1, b0), (1, b1), 12),
                  _segment_path((a0, a0), (a1, a1), 12)]
    for _ in range(40):
        a = rand(F(3, 20), F(17, 20))  # 8a(1 - a) > 1
        b, d = 8 * a * (1 - a), F(1, 10**6)
        paths.append([(a, b - d), (a, b), (a, b + d)])

    summaries = {}
    for path in paths:
        for p in path:
            if p not in summaries:
                summaries[p] = region_summary(*p)
    assert {s.region for s in summaries.values()} == set(REGION_IDS)
    assert len(summaries) <= 2000
    for path in paths:
        for p, q in zip(path, path[1:]):
            sp, sq = summaries[p], summaries[q]
            if sp.region == sq.region:
                assert _record(sp) == _record(sq), (p, q, sp.region)
            elif _record(sp) == _record(sq):
                assert frozenset((sp.region, sq.region)) in _EQUAL_ROWS, (p, q, sp.region, sq.region)
