import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaseatlas.atlas import (
    REGION_IDS,
    REGION_TABLE,
    RegionSummary,
    classify_region,
    region_summary,
    scan_grid,
)
from phaseatlas.equilibria import StationaryCircle
from phaseatlas.errors import DomainError

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
        content = REGION_TABLE[region]
        assert summary.homoclinic == content.homoclinic
        assert summary.almost_attractors == content.almost_attractors
        assert summary.s1_sectors == content.s1_case


def test_region_summary_examples():
    s = region_summary(F(7, 10), F(1, 2))
    assert s.region == "3h"
    assert s.finite_points["s2"] == "saddle"
    assert s.infinity == ("repelling_node", "saddle")
    assert s.homoclinic
    assert s.analysis.sectors.index == 2
    x_kind, y_kind = s.infinity
    assert sorted((p.direction_label, p.kind.name) for p in s.analysis.infinity) == [
        ("+x", x_kind), ("+y", y_kind), ("-x", x_kind), ("-y", y_kind)
    ]

    s = region_summary(F(1), F(1))
    assert s.region == "1"
    assert s.analysis.sectors is None
    assert s.analysis.finite[0] == [] and isinstance(s.analysis.finite[1], StationaryCircle)

    s = region_summary(F(19, 10), F(19, 10))
    assert s.region == "3c"
    assert s.finite_points["s2"] == "attracting_node"
    assert s.infinity == "continuum"

    s = region_summary(F(3, 10), F(1))
    assert s.region == "3i"
    assert s.s1_sectors == "3a"
    assert s.finite_points["s2"] == "saddle"


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
