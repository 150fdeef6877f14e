import random
from fractions import Fraction

import pytest

from phaseatlas.atlas import (
    REGION_IDS,
    REGION_TABLE,
    RegionSummary,
    classify_region,
    region_summary,
    scan_grid,
)
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
        summary = region_summary(a, b, validate=True)
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
