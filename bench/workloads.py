"""Seeded item lists for the three benchmark workloads, with their output oracles.

An item is one request a researcher makes: one or more `phaseatlas` CLI calls
whose outputs are checked together.  `build(name, seed, workdir)` returns the
item list of one pass; the same seed always gives the same list.  The program
sees only the argv lists (and the spec files written into `workdir`).
"""

from __future__ import annotations

import json
import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

REGIONS = (
    "1", "2a", "2b", "2c", "3a", "3b", "3c", "3d",
    "3e", "3f", "3g", "3h", "3i", "3j", "3k", "3l",
)


@dataclass(frozen=True)
class Item:
    """One closed-loop request: CLI calls run in order, outputs checked together."""

    id: str
    calls: tuple  # argv lists for phaseatlas.cli.main
    check: Callable[[list], str | None]  # outputs -> failure message or None
    output_files: tuple = ()  # per call: path written by -o, or None for stdout


# -- parameter draws -----------------------------------------------------------------


def _rat(rng, lo, hi, maxden=12):
    """A small-denominator rational strictly inside (lo, hi)."""
    lo, hi = Fraction(lo), Fraction(hi)
    while True:
        q = rng.randint(2, maxden)
        p_lo, p_hi = int(lo * q) + 1, -int(-hi * q) - 1
        if p_lo <= p_hi:
            return Fraction(rng.randint(p_lo, p_hi), q)


def _decimal(rng, lo, hi, digits):
    """A decimal literal strictly inside (lo, hi) with exactly `digits` places.

    The last digit is odd and not 5, so the literal never reduces to a
    shorter decimal: every such parameter has its full bit size.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    scale = 10**digits
    while True:
        m = rng.randint(int(lo * scale) + 1, -int(-hi * scale) - 1)
        if m % 10 in (1, 3, 7, 9):
            whole, frac = divmod(m, scale)
            return f"{whole}.{frac:0{digits}d}"


def region_point(rng, region, free=None):
    """(a, b) drawn inside `region` by construction.

    `free(lo, hi)` draws the coordinate the region leaves free (the first
    one for two-dimensional regions); by default a small-denominator
    rational.  Points on the line regions are drawn on that line.
    """
    draw = free or (lambda lo, hi: _rat(rng, lo, hi))
    one, half = Fraction(1), Fraction(1, 2)
    if region == "1":
        return one, one
    if region == "3j":
        return half, one
    if region == "2a":
        return draw(1, 3), _rat(rng, 0, 1)
    if region == "2b":  # 1 < b < 8a(1-a), so a lies in (0.15, 0.85)
        a = draw(Fraction(1, 5), Fraction(4, 5))
        return a, _rat(rng, 1, min(8 * Fraction(a) * (1 - Fraction(a)), 3))
    if region == "2c":  # b >= 8a(1-a), b > 1
        a = draw(0, 1)
        fa = Fraction(a)
        return a, _rat(rng, max(one, 8 * fa * (1 - fa)), 3)
    if region == "3a":
        return one, draw(1, 3)
    if region == "3b":
        return one, draw(0, 1)
    if region == "3c":
        v = draw(1, 3)
        return v, v
    if region == "3d":
        a = draw(1, Fraction(5, 2))
        return a, _rat(rng, a, 3)
    if region == "3e":
        a = draw(Fraction(3, 2), 3)
        return a, _rat(rng, 1, a)
    if region == "3f":
        v = draw(0, 1)
        return v, v
    if region == "3g":
        a = draw(Fraction(1, 10), Fraction(4, 5))
        return a, _rat(rng, a, 1)
    if region == "3h":
        a = draw(Fraction(1, 5), Fraction(9, 10))
        return a, _rat(rng, 0, a)
    if region == "3i":
        return draw(0, half), one
    if region == "3k":
        return draw(half, 1), one
    if region == "3l":
        return draw(1, 3), one
    raise ValueError(f"unknown region {region!r}")


# -- oracles ----------------------------------------------------------------------------


def _check_report(region=None, n_equilibria=None):
    def check(outputs):
        doc = json.loads(outputs[0])
        if region is not None and doc.get("region") != region:
            return f"region {doc.get('region')!r}, drawn from {region!r}"
        if n_equilibria is not None and len(doc.get("equilibria", ())) != n_equilibria:
            return f"{len(doc.get('equilibria', ()))} equilibria, expected {n_equilibria}"
        return None

    return check


def _svg_error(text):
    try:
        root = ET.fromstring(text.encode("utf-8"))
    except ET.ParseError as exc:
        return f"SVG does not parse: {exc}"
    if root.tag != "{http://www.w3.org/2000/svg}svg":
        return f"root element is {root.tag}, not svg"
    return None


def _check_svg(outputs):
    return _svg_error(outputs[0])


def _check_scan(resolution):
    def check(outputs):
        doc = json.loads(outputs[0])
        cells = doc["cells"]
        if len(cells) != resolution or any(len(row) != resolution for row in cells):
            return f"scan is not {resolution}x{resolution}"
        bad = {c for row in cells for c in row} - set(REGIONS)
        if bad:
            return f"unknown region labels {sorted(bad)}"
        return _svg_error(outputs[1])

    return check


# -- spec-file systems ---------------------------------------------------------------------

_SPEC_CDK = "x*y/(x^2+y^2) - a*x ; y^2/(x^2+y^2) - b*y + b - 1"


def _spec_systems(rng):
    """(name, spec text, expected finite stationary point count), params from rng.

    Counts: cdk has s1 and s2 off the 2a-2c regions; competition
    x(p-x-2y), y(2-x-y) with 2 < p < 4 has (0,0), (p,0), (0,2), (4-p, p-2);
    the rotation field has only the origin; x - c x^3 has 0 and +-1/sqrt(c).
    """
    a, b = region_point(rng, rng.choice(("3g", "3h")))
    p = _rat(rng, Fraction(5, 2), Fraction(7, 2))
    k = _rat(rng, Fraction(1, 4), 1)
    c = _rat(rng, Fraction(1, 2), 3)
    return [
        ("cdk", f"param a = {a}\nparam b = {b}\n{_SPEC_CDK}\n", 2),
        ("competition", f"param p = {p}\nx*(p-x-2*y) ; y*(2-x-y)\n", 4),
        ("rotation", f"param k = {k}\ny/(1+x^2) ; -x/(1+y^2) - k*y\n", 1),
        ("cubic", f"param c = {c}\nx - c*x^3 ; -y\n", 3),
    ]


def _write_specs(rng, workdir: Path):
    out = []
    for name, text, count in _spec_systems(rng):
        path = workdir / f"spec-{name}.txt"
        path.write_text(text, encoding="utf-8")
        out.append((name, str(path), count))
    return out


# -- workloads -----------------------------------------------------------------------------

# Decimal items of exact-analyze: (region, digits).  The 6-digit values come
# from the seed.  The 7-10 digit values come from one fixed stream, the same
# for every seed: their cost swings 5-20x with the factorization of the
# digits (the O(sqrt n) trial division of ROADMAP item 2), so drawing them per
# seed would make throughput differ between seeds by more than any bound.
SEEDED_DECIMALS = (("3g", 6), ("3h", 6), ("3f", 6), ("2a", 6))
FIXED_DECIMALS = (("3h", 7), ("3a", 8), ("3h", 9), ("3b", 9), ("3g", 10), ("3c", 10))
FIXED_DECIMAL_STREAM = "phaseatlas-long-decimals"


def _analyze_argv(a, b):
    return ["analyze", "--a", str(a), "--b", str(b), "--format", "json"]


def _exact_analyze(seed, workdir):
    rng = random.Random(seed)
    items = []
    for region in REGIONS:
        a, b = region_point(rng, region)
        items.append(Item(f"region-{region}", (_analyze_argv(a, b),), _check_report(region)))
    fixed = random.Random(FIXED_DECIMAL_STREAM)
    for tag, source, table in (("dec", rng, SEEDED_DECIMALS), ("long", fixed, FIXED_DECIMALS)):
        for region, digits in table:
            a, b = region_point(source, region, lambda lo, hi: _decimal(source, lo, hi, digits))
            items.append(
                Item(f"{tag}{digits}-{region}", (_analyze_argv(a, b),), _check_report(region))
            )
    for name, path, count in _write_specs(rng, workdir):
        argv = ["analyze", "--system", path, "--format", "json"]
        items.append(Item(f"spec-{name}", (argv,), _check_report(n_equilibria=count)))
    return items


# Two cdk points per region: a pass of 36 distinct items, so the spread of
# one point's cost (up to 1.7x within a region) averages out between seeds.
PORTRAITS_PER_REGION = 2


def _portrait_render(seed, workdir):
    rng = random.Random(seed)
    items = []
    for k in range(1, PORTRAITS_PER_REGION + 1):
        for region in REGIONS:
            a, b = region_point(rng, region)
            argv = ["portrait", "--a", str(a), "--b", str(b)]
            items.append(Item(f"portrait-{region}-{k}", (argv,), _check_svg))
    for name, path, _ in _write_specs(rng, workdir):
        items.append(Item(f"portrait-spec-{name}", (["portrait", "--system", path],), _check_svg))
    return items


SCAN_RESOLUTION = 200
SCANS_PER_PASS = 4


def _scan_map(seed, workdir, resolution=SCAN_RESOLUTION):
    rng = random.Random(seed)
    items = []
    for k in range(SCANS_PER_PASS):
        oa, ob = _rat(rng, 0, Fraction(1, 2), 24), _rat(rng, 0, Fraction(1, 2), 24)
        path = str(workdir / f"scan-{k}.json")
        scan = [
            "scan", "--a-range", f"{oa}:{oa + 3}", "--b-range", f"{ob}:{ob + 3}",
            "--resolution", str(resolution), "-o", path,
        ]
        items.append(
            Item(f"scan-{k}", (scan, ["portrait", "--scan-map", path]),
                 _check_scan(resolution), output_files=(path, None))
        )
    return items


@dataclass(frozen=True)
class Workload:
    build: Callable  # (seed, workdir) -> list[Item]
    tail_percentile: int  # highest percentile with >= 10 samples beyond it at run_seconds


WORKLOADS = {
    "exact-analyze": Workload(_exact_analyze, 95),
    "portrait-render": Workload(_portrait_render, 90),
    "scan-map": Workload(_scan_map, 75),
}


def build(name: str, seed: int, workdir: Path) -> list:
    return WORKLOADS[name].build(seed, workdir)
