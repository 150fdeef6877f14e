import json
import time
import tracemalloc
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings
from test_atlas import APPENDIX_PAIRS
from test_output_lock import CUSP, LOTKA_VOLTERRA, SCANS

from phaseatlas import cli, errors, sysio
from phaseatlas.atlas import scan_grid
from phaseatlas.cli import main
from phaseatlas.desing import sprott_field
from phaseatlas.portrait import render_region_map


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_region_3h(capsys):
    code, out, _ = run(
        capsys, "analyze", "--system", "cdk", "--a", "7/10", "--b", "1/2", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["region"] == "3h"
    labels = {p.get("label") for p in doc["equilibria"]}
    assert labels == {"s1", "s2"}
    kinds = [s["kind"] for s in doc["origin_sectors"]["sectors"]]
    assert kinds.count("elliptic") == 2
    assert doc["origin_sectors"]["index"] == 2


@pytest.mark.parametrize(
    "argv, calls",
    [
        pytest.param(("analyze", "--a", "7/10", "--b", "1/2"), (0, 1, 1, 2, 1), id="analyze-7/10-1/2"),
        pytest.param(("analyze", "--a", "1", "--b", "1"), (0, 0, 1, 1, 1), id="analyze-1-1"),
        pytest.param(("analyze", "--system", "CUSP"), (1, 1, 1, 2, 0), id="analyze-cusp"),
        pytest.param(("portrait", "--a", "7/10", "--b", "1/2"), (0, 1, 1, 2, 1), id="portrait-7/10-1/2"),
        # a spec-file portrait draws no origin separatrices, so it never blows up the origin
        pytest.param(("portrait", "--system", "CUSP"), (1, 0, 1, 2, 0), id="portrait-cusp"),
    ],
)
def test_analyze_computes_each_exact_analysis_once(count_calls, tmp_path, capsys, argv, calls):
    from phaseatlas import blowup, compact, desing, equilibria

    cusp = tmp_path / "cusp.txt"
    cusp.write_text("y ; x^2\n")
    counts = count_calls((
        equilibria.find_stationary,
        blowup.classify_nilpotent_origin,
        compact.infinite_stationary_points,
        compact.compactify_chart,
        desing.cdk_poly_field,
    ))
    argv = [str(cusp) if arg == "CUSP" else arg for arg in argv]
    code, _, _ = run(capsys, *argv, "-o", str(tmp_path / "out"))
    assert code == 0
    assert tuple(counts.values()) == calls


def test_unresolved_spec_origin_is_a_note_computed_once(count_calls, tmp_path, capsys):
    from phaseatlas import blowup

    path = tmp_path / "s.txt"
    path.write_text("x^3 + x*y ; x*y - y^2\n")  # zeros (0, 0) and (-1, -1)
    counts = count_calls((blowup.classify_nilpotent_origin,))
    code, out, err = run(capsys, "analyze", "--system", str(path))
    assert code == 0 and err == ""
    assert "note: origin sectors unresolved: zero radial eigenvalue at divisor point +x\n" in out
    assert counts == {"classify_nilpotent_origin": 1}


def test_blowup_builds_each_chart_once(count_calls, capsys):
    from phaseatlas import blowup, polycore

    counts = count_calls((polycore.newton_weights, blowup.blowup_directional, blowup.divisor_stationary_points))
    # a minus chart is built only when its radial weight is even: weights (1, 1) at (7/10, 1/2)
    # derive both, weights (1, 2) on b = 1 build the -y chart.  The record scans each chart it
    # builds once, and the blowup printout reads the record
    for command in ("blowup", "analyze"):
        for a, b, charts in (("7/10", "1/2", 2), ("3/10", "1", 3)):
            counts.update(dict.fromkeys(counts, 0))
            code, _, _ = run(capsys, command, "--a", a, "--b", b)
            assert code == 0
            assert counts == {"newton_weights": 1, "blowup_directional": charts,
                              "divisor_stationary_points": charts}, (command, a, b)


@pytest.mark.parametrize("sign", ["+", "-"])
def test_blowup_prints_the_record_beside_a_float_tie(capsys, sign):
    # a = 1/2 ± 10^-401: the +y divisor's roots off u = 0, about ±2.2e200, are not scanned, so
    # no float linearization overflows; the -x and +x points 2a - 1 and 0 are both printed
    a = "0.5" + "0" * 399 + "1" if sign == "+" else "0.4" + "9" * 400
    code, out, err = run(capsys, "blowup", "--a", a, "--b", "1")
    assert code == 0 and err == ""
    assert out.count("  divisor points off u=0: those of the +x and -x charts\n") == 2
    assert "sectors: " in out


@pytest.mark.parametrize("a, b, charts", [("7/10", "1/2", 2), ("1", "1", 2)])
def test_infinity_builds_each_chart_once(count_calls, capsys, a, b, charts):
    from phaseatlas import compact

    counts = count_calls((compact.compactify_chart,))
    code, _, _ = run(capsys, "infinity", "--a", a, "--b", b)
    assert code == 0
    assert counts == {"compactify_chart": charts}


@pytest.mark.parametrize("a, b", [("0", "1/2"), ("7/10", "-1")])
def test_analyze_nonpositive_parameter_exits_3(capsys, a, b):
    code, out, err = run(capsys, "analyze", "--a", a, "--b", b)
    assert code == 3 and out == ""
    assert err == "error: CDK parameters must be positive\n"


@pytest.mark.parametrize("a, b", [("7/10", "1/2"), ("1", "1")])
def test_portrait_builds_the_field_once(count_calls, tmp_path, capsys, a, b):
    from phaseatlas import desing

    counts = count_calls((desing.cdk_poly_field,))
    code, _, _ = run(capsys, "portrait", "--a", a, "--b", b, "-o", str(tmp_path / "p.svg"))
    assert code == 0
    assert counts == {"cdk_poly_field": 1}


def test_spec_file_analyze_matches_cdk_sectors_and_infinity(tmp_path, capsys):
    path = tmp_path / "cdk.txt"
    path.write_text(
        "param a = 7/10\nparam b = 1/2\n"
        "x*y/(x^2+y^2) - a*x ; y^2/(x^2+y^2) - b*y + b - 1\n"
    )
    code, out, _ = run(capsys, "analyze", "--system", str(path), "--format", "json")
    assert code == 0
    spec = json.loads(out)
    _, out, _ = run(
        capsys, "analyze", "--system", "cdk", "--a", "7/10", "--b", "1/2", "--format", "json"
    )
    cdk = json.loads(out)
    assert spec["origin_sectors"]["index"] == 2
    assert spec["origin_sectors"] == cdk["origin_sectors"]
    assert spec["infinity"] == cdk["infinity"]


def test_index_prints_two(capsys):
    code, out, _ = run(
        capsys,
        "index",
        "--system", "cdk", "--a", "1/2", "--b", "1/2",
        "--center", "0,0", "--radius", "0.1",
    )
    assert code == 0
    assert out.strip() == "2"


def test_missing_parameter_binding_exits_2(capsys):
    code, _, err = run(capsys, "analyze", "--system", "cdk", "--a", "1/2")
    assert code == 2
    assert "--b" in err or "b" in err


def test_index_through_equilibrium_exits_3(capsys):
    code, _, err = run(
        capsys,
        "index",
        "--system", "cdk", "--a", "5/2", "--b", "1/2",
        "--center", "0,0", "--radius", "1.0",
    )
    assert code == 3
    assert "circle" in err


@pytest.mark.parametrize("n", ["3", "4"])
def test_index_undersampled_circle_prints_two(capsys, n):
    code, out, _ = run(capsys, "index", "--a", "1/2", "--b", "1/2", "--radius", "0.1", "-n", n)
    assert code == 0
    assert out.strip() == "2"


def test_index_without_samples_exits_3(capsys):
    code, out, err = run(capsys, "index", "--a", "1/2", "--b", "1/2", "--radius", "0.1", "-n", "0")
    assert code == 3
    assert out == ""
    assert "at least 3" in err


@pytest.mark.parametrize("n", ["1048577", "100000000000"])
def test_index_above_the_sample_bound_exits_3_at_once(capsys, n):
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code, out, err = run(capsys, "index", "--a", "1/2", "--b", "1/2", "--radius", "0.1", "-n", n)
        # unbounded, 10^11 started building 10^11 samples
        assert time.perf_counter() - start < 1.0
        assert tracemalloc.get_traced_memory()[1] < 2**20 * 8  # no list of n samples was built
    finally:
        tracemalloc.stop()
    assert code == 3 and out == "" and err == "error: sample count must be at most 1048576\n"


def test_index_on_overflowing_circle_exits_3(capsys):
    # x**3 overflows a float at radius 1e200; this used to end in an OverflowError traceback
    code, out, err = run(capsys, "index", "--a", "1/2", "--b", "1/2", "--radius", "1e200")
    assert code == 3
    assert out == ""
    assert err == "error: field value at (1e+200, 0.0) overflows a float\n"


def test_index_equilibrium_between_samples_exits_3(capsys):
    code, out, err = run(
        capsys, "index", "--a", "5/2", "--b", "1/2", "--radius", "1.0", "-n", "255"
    )
    assert code == 3
    assert out == ""
    assert "equilibrium on the circle" in err


@pytest.mark.parametrize(
    "extra", [("--max-time", "nan"), ("--capture-radius", "-1", "--max-time", "50")]
)
def test_omega_rejects_unusable_options_exits_3(capsys, extra):
    code, out, _ = run(
        capsys,
        "omega",
        "--a", "5/2", "--b", "19/10", "--start", "0.1,0.9",
        *extra,
    )
    assert code == 3
    assert out == ""


@pytest.mark.parametrize("start", ["nan,0.9", "inf,0.9", "0.1,-inf"])
def test_omega_from_a_start_that_is_not_finite_exits_3(capsys, start):
    # this used to print "omega limit: unresolved (left_box)" and exit 0
    code, out, err = run(capsys, "omega", "--a", "5/2", "--b", "19/10", "--start", start)
    assert code == 3 and out == ""
    assert err.startswith("error: start point (") and err.endswith(") is not finite\n")


def test_omega_unresolved_within_max_time(capsys):
    code, out, _ = run(
        capsys, "omega", "--a", "5/2", "--b", "19/10", "--start", "0.1,0.9", "--max-time", "0.5"
    )
    assert (code, out) == (0, "omega limit: unresolved (time_exhausted)\n")


def test_sprott_omega_from_its_fixed_point(capsys):
    x, y = sprott_field().fixed_point()
    code, out, _ = run(capsys, "omega", "--system", "sprott", "--start", f"{x!r},{y!r}")
    assert (code, out) == (0, "omega limit: equilibrium (0.56714329041, -0.56714329041)\n")


def test_region_subcommand(capsys):
    code, out, _ = run(capsys, "region", "--a", "0.5", "--b", "1.9")
    assert code == 0
    doc = json.loads(out)
    assert doc["region"] == "2b"
    assert doc["almost_attractors"] == ["s3", "s4"]


def test_region_human_format(capsys):
    code, out, _ = run(capsys, "region", "--a", "7/10", "--b", "1/2", "--format", "human")
    assert code == 0
    assert out == (
        "region: 3h\n"
        "finite stationary points:\n"
        "  s1: nilpotent (case 1)\n"
        "  s2: saddle\n"
        "s1 sectors: 1\n"
        "infinity:\n"
        "  x: repelling_node\n"
        "  y: saddle\n"
        "homoclinic: True\n"
        "almost attractors: s1\n"
    )


def test_region_human_format_continuum_at_infinity(capsys):
    code, out, _ = run(capsys, "region", "--a", "1", "--b", "1", "--format", "human")
    assert code == 0
    assert "\ninfinity: every point stationary\n" in out
    assert out.endswith("almost attractors: s1, circle\n")


def test_region_rejects_nonpositive(capsys):
    code, _, err = run(capsys, "region", "--a", "0", "--b", "1")
    assert code == 3


def test_scan_and_region_map(tmp_path, capsys):
    map_path = tmp_path / "map.json"
    code, _, _ = run(
        capsys,
        "scan", "--a-range", "0:3", "--b-range", "0:3",
        "--resolution", "12", "-o", str(map_path),
    )
    assert code == 0
    doc = json.loads(map_path.read_text())
    assert len(doc["cells"]) == 12
    svg_path = tmp_path / "map.svg"
    code, _, _ = run(capsys, "portrait", "--scan-map", str(map_path), "-o", str(svg_path))
    assert code == 0
    assert svg_path.read_text().startswith("<?xml")


def test_scan_classifies_once_per_run(count_calls, capsys):
    from phaseatlas import atlas

    counts = count_calls((atlas.classify_region,))
    code, _, _ = run(capsys, "scan", "--a-range", "0:3", "--b-range", "0:3", "--resolution", "200")
    assert code == 0
    assert counts["classify_region"] <= 2500  # one per cell would be 40,000


def test_scan_labels_once_per_run(count_calls, capsys):
    from phaseatlas import atlas

    counts = count_calls((atlas._region,))
    code, _, _ = run(capsys, "scan", "--a-range", "0:3", "--b-range", "0:3", "--resolution", "200")
    assert code == 0
    assert 0 < counts["_region"] <= 2500  # one per cell would be 40,000


@pytest.mark.parametrize("resolution", ["1001", "1000000000"])
def test_scan_above_the_resolution_bound_exits_3_at_once(capsys, resolution):
    start = time.perf_counter()
    code, out, err = run(capsys, "scan", "--resolution", resolution)
    # unbounded, 10^9 would ask for 10^18 cells
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == "" and "resolution must be at most 1000" in err


_SCAN_DOC = {
    "a_values": ["1/2", "3/2"],
    "b_values": ["1/2", "3/2"],
    "cells": [["3f", "2a"], ["2b", "3c"]],
    "boundary_loci": {},
}


@pytest.mark.parametrize(
    "text, message",
    [
        (json.dumps({**_SCAN_DOC, "cells": [["3f", "9z"], ["2b", "3c"]]}), "'9z'"),
        ("a_values: 1/2\n", "is not JSON"),
        (json.dumps({**_SCAN_DOC, "a_values": ["1/2", "x"]}), "'x'"),
        (json.dumps({k: v for k, v in _SCAN_DOC.items() if k != "a_values"}), "'a_values'"),
        (json.dumps({**_SCAN_DOC, "cells": [["3f"], ["2b", "3c"]]}), "2 by 2"),
        # unknown labels of mixed types are listed, not compared
        (json.dumps({**_SCAN_DOC, "cells": [["3f", 7], ["2b", "9z"]]}), "labels ['9z', 7]"),
        (json.dumps({**_SCAN_DOC, "boundary_loci": {"a=1": [1, "zz"]}}), "labels ['zz', 1]"),
        # a descending or repeated axis gave a negative or zero cell width
        (json.dumps({**_SCAN_DOC, "a_values": ["5/4", "3/4"]}), "a_values are not strictly ascending"),
        (json.dumps({**_SCAN_DOC, "a_values": ["5/4", "5/4"]}), "a_values are not strictly ascending"),
        (json.dumps({**_SCAN_DOC, "b_values": ["3/2", "1/2"]}), "b_values are not strictly ascending"),
        # a string or an object where a list belongs was read item by item: "13" as the axis [1, 3],
        # and an object's keys as a row's labels
        (json.dumps({**_SCAN_DOC, "a_values": "13"}), "must be lists"),
        (json.dumps({**_SCAN_DOC, "cells": [{"3h": 1, "1": 2}, ["2b", "3c"]]}), "must be lists"),
        (json.dumps({**_SCAN_DOC, "boundary_loci": {"a=1": "1"}}), "must be lists"),
        # a document or loci table of the wrong JSON type gave Python's indexing message
        ("[1, 2]", "is not a JSON object"),
        ("3", "is not a JSON object"),
        ('"x"', "is not a JSON object"),
        ("null", "is not a JSON object"),
        (json.dumps({**_SCAN_DOC, "boundary_loci": []}), "boundary_loci is not an object"),
    ],
    ids=["unknown-label", "not-json", "bad-value", "missing-key", "short-row", "mixed-cells", "mixed-locus",
         "descending-a", "repeated-a", "descending-b", "string-axis", "object-row", "string-locus",
         "array-document", "number-document", "string-document", "null-document", "array-loci"],
)
def test_malformed_scan_map_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "map.json"
    path.write_text(text)
    code, out, err = run(capsys, "portrait", "--scan-map", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: scan map ") and message in err


def test_scan_json_is_the_indent_2_encoding(capsys):
    for argv in (["--resolution", "1"], ["--resolution", "7"], ["--a-range", "1/2:3/2", "--resolution", "3"]):
        code, out, _ = run(capsys, "scan", *argv)
        assert code == 0
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
    doc = {"b": [], "a": {"z": ["1"], "y": {}}, "c": [[], ["x", "y"]], "d": [{"k": [1, 2.5, None]}], "e": "s"}
    assert sysio.indented_json(doc) == json.dumps(doc, sort_keys=True, indent=2)


_LOCKED_SPECS = {"lotka-volterra": LOTKA_VOLTERRA, "cusp": CUSP}


@pytest.mark.parametrize("argv", [
    *(("analyze", "--a", str(a), "--b", str(b)) for a, b in APPENDIX_PAIRS),
    *(("region", "--a", str(a), "--b", str(b)) for a, b in APPENDIX_PAIRS),
    *(("analyze", "--system", name) for name in _LOCKED_SPECS),
], ids=" ".join)
def test_report_json_is_the_indent_2_encoding(capsys, tmp_path, argv):
    if argv[1] == "--system":
        spec = tmp_path / "spec.txt"
        spec.write_text(_LOCKED_SPECS[argv[2]], encoding="utf-8")
        argv = (*argv[:2], str(spec))
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


# strings json.dumps writes as they are, which indented_json joins, and the
# same with one character it escapes: a quote, a backslash, controls,
# non-ASCII or a lone surrogate
_plain_strings = st.text(st.sampled_from(" a7/-#~"), max_size=3)
_strings = _plain_strings | st.builds(str.__add__, _plain_strings, st.sampled_from('"\\\n\x00\x7fé\ud800'))
_scalars = st.one_of(st.integers(), st.floats(), st.booleans(), st.none(), _strings)
# lists of strings alone, of scalars alone, and of containers and scalars mixed; tuples, which
# json.dumps writes as lists; and empty containers, at any depth
_json_docs = st.recursive(
    st.lists(_strings) | st.lists(_scalars) | st.dictionaries(_strings, _scalars, max_size=3) | _scalars,
    lambda docs: st.lists(docs, max_size=3) | st.lists(docs, max_size=3).map(tuple)
    | st.dictionaries(_strings, docs, max_size=3),
    max_leaves=12,
)


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(_json_docs)
@example({"e": ['"', "\\", "\n", "\x00", "\x7f", "é", " ", "\ud800", ""], "p": ["3f", "1/2", "", " ~"], "s": [1, -2.5, True, None]})
@example([1, [2]])
@example(("a",))
@example({"a": [[], {}, ([],), "", 0, {"b": ()}]})
def test_indented_json_is_json_dumps(doc):
    assert sysio.indented_json(doc) == json.dumps(doc, sort_keys=True, indent=2)


# rectangles with cell midpoints on the loci: (1/2, 2) is on a = 1/2 and the
# curve b = |8a(a-1)|; (1/4, 3/2) and (3/4, 3/2) on the curve; 1 on a = 1, b = 1
# and a = b
_LOCUS_SCANS = {
    "a=1/2": ("--a-range", "0:1", "--b-range", "0:4", "--resolution", "1"),
    "curve": ("--a-range", "0:3/2", "--b-range", "1:2", "--resolution", "3"),
    "a=b=1": ("--a-range", "0:2", "--b-range", "0:2", "--resolution", "3"),
}


@pytest.mark.parametrize("argv", [*SCANS.values(), *_LOCUS_SCANS.values()], ids=[*SCANS, *_LOCUS_SCANS])
def test_scan_map_reads_back_the_scan(tmp_path, argv):
    args = cli.build_parser().parse_args(["scan", *argv])
    path = tmp_path / "scan.json"
    assert main(["scan", *argv, "-o", str(path)]) == 0
    scan = scan_grid(args.a_range, args.b_range, args.resolution)
    read = cli._read_scan_map(path)
    assert read == scan
    assert render_region_map(read) == render_region_map(scan)


def test_product_above_degree_24_exits_2_at_once(tmp_path, capsys):
    spec = tmp_path / "product.txt"
    spec.write_text("(x+y+1)^24*(x+y+1)^24*(x+y+1)^24*(x+y+1)^24 ; y\n", encoding="utf-8")
    start = time.perf_counter()
    code, _, err = run(capsys, "analyze", "--system", str(spec))
    # expanding the product took about 11 s before products were bounded
    assert time.perf_counter() - start < 1.0
    assert code == 2 and "product of total degree above 24" in err


@pytest.mark.parametrize(
    "argv", [("stationary",), ("analyze",), ("portrait",), ("omega", "--start", "0.1,0.1"), ("index", "--radius", "1")]
)
def test_coefficient_beyond_float_range_exits_3(tmp_path, capsys, argv):
    # 10^400 has no float; this used to end in an OverflowError traceback
    spec = tmp_path / "wide.txt"
    spec.write_text("x*1" + "0" * 400 + " ; -y\n", encoding="utf-8")
    code, out, err = run(capsys, argv[0], "--system", str(spec), *argv[1:])
    assert (code, out, err) == (3, "", "error: coefficient of x overflows a float\n")


@pytest.mark.parametrize(
    "argv",
    [
        # square roots of rationals beyond float range whose roots are doubles
        ("analyze", "--a", "1e160", "--b", "1/2"),
        ("analyze", "--a", "1/2", "--b", "1e200"),
        ("stationary", "--a", "1e-300", "--b", "3"),
        # a Jacobian entry beyond float range
        ("analyze", "--a", "1e400", "--b", "1/2"),
        ("region", "--a", "1e400", "--b", "1/2"),
        ("portrait", "--a", "1e400", "--b", "1/2"),
    ],
)
def test_parameter_beyond_float_range_never_crashes(capsys, argv):
    # each of these used to end in an OverflowError traceback
    code, _, _ = run(capsys, *argv)
    assert code in (0, 3)


@pytest.mark.parametrize("spec, each", [("x ; y", False), ("-x ; -y", True)])
def test_human_analyze_reports_the_infinity_continuum_flag(tmp_path, capsys, spec, each):
    path = tmp_path / "sys.txt"
    path.write_text(spec + "\n", encoding="utf-8")
    code, out, _ = run(capsys, "analyze", "--system", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["infinity"]["one_outgoing_trajectory_each"] is each
    code, out, _ = run(capsys, "analyze", "--system", str(path))
    assert code == 0
    text = "one outgoing trajectory each" if each else "not one outgoing trajectory each"
    assert f"infinity: every point stationary ({text})\n" in out


def test_portrait_output_file(tmp_path, capsys):
    out_path = tmp_path / "p.svg"
    code, _, _ = run(
        capsys, "portrait", "--system", "cdk", "--a", "1/2", "--b", "1/2", "-o", str(out_path)
    )
    assert code == 0
    data = out_path.read_text()
    assert data.startswith("<?xml") and data.rstrip().endswith("</svg>")


def test_spec_file_system(tmp_path, capsys):
    path = tmp_path / "sys.txt"
    path.write_text(
        "param a = 1/2\nparam b = 1/2\n"
        "x*y/(x^2+y^2) - a*x ; y^2/(x^2+y^2) - b*y + b - 1\n"
    )
    code, out, _ = run(capsys, "stationary", "--system", str(path), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["equilibria"]) == 2  # a = b < 1: only s1 and s2 (unlabeled here)


def test_bad_spec_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("ln(x) ; y\n")
    code, _, err = run(capsys, "stationary", "--system", str(path))
    assert code == 2
    assert "ln" in err


@pytest.mark.parametrize("text", ["x ;; y", "x ; y ;", "; x ; y"])
def test_spec_file_with_an_empty_side_exits_2(tmp_path, capsys, text):
    # these used to parse as "x ; y" and exit 0
    path = tmp_path / "sys.txt"
    path.write_text(text + "\n")
    code, out, err = run(capsys, "stationary", "--system", str(path))
    assert (code, out) == (2, "")
    assert err == "error: expected exactly two right-hand sides, found 3 (line 1, column 1)\n"


def test_missing_file_exits_2(capsys):
    code, _, _ = run(capsys, "stationary", "--system", "/nonexistent/path.txt")
    assert code == 2


@pytest.mark.parametrize("error, code, err", [
    (errors.InternalInconsistencyError("e"), 4, "internal inconsistency: e\n"),
    (errors.ParseError("e"), 2, "error: e\n"),
    (errors.UnknownSymbolError("e"), 2, "error: e\n"),
    (errors.DomainError("e"), 3, "error: e\n"),
    (errors.PreconditionError("e"), 3, "error: e\n"),
    (errors.UnresolvedError("e"), 3, "error: e\n"),
    (PermissionError("e"), 2, "error: e\n"),
], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else None)
def test_each_error_exits_with_its_code(capsys, monkeypatch, error, code, err):
    # the exit code is the class's exit_code, and an OSError exits 2; only an inconsistency is named so
    def fail(a, b):
        raise error

    monkeypatch.setattr(cli.atlas, "region_summary", fail)
    assert run(capsys, "region", "--a", "1", "--b", "1") == (code, "", err)


@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_unreadable_spec_file_exits_2(tmp_path, capsys, kind):
    path = tmp_path
    if kind == "not-utf8":
        path = tmp_path / "latin1.txt"
        path.write_bytes("x*\xe9 ; y\n".encode("latin-1"))
    code, _, err = run(capsys, "stationary", "--system", str(path))
    assert code == 2
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "command", [["stationary"], ["analyze"], ["omega", "--start", "1,1"]], ids=lambda c: c[0]
)
def test_zero_field_is_a_continuum(tmp_path, capsys, command):
    path = tmp_path / "zero.txt"
    path.write_text("0 ; 0\n")
    code, _, err = run(capsys, command[0], "--system", str(path), *command[1:])
    assert code == 3
    assert "continuum of stationary points" in err


@pytest.mark.parametrize("text", ["x^2 ; x*y\n", "x^2*y ; x^3 + x*y^2\n"])
def test_shared_factor_is_a_continuum(tmp_path, capsys, text):
    # both vanish on the line x = 0, and used to list one semi_hyperbolic [boundary] point
    path = tmp_path / "shared.txt"
    path.write_text(text)
    code, out, err = run(capsys, "analyze", "--system", str(path))
    assert (code, out) == (3, "")
    assert err == "error: continuum of stationary points detected; no point list to report\n"


def test_a_dicritical_origin_is_reported_unresolved(tmp_path, capsys):
    # x*(x^2+y^2) ; y*(x^2+y^2): every divisor point of every chart is stationary
    path = tmp_path / "radial.txt"
    path.write_text("x*(x^2+y^2) ; y*(x^2+y^2)\n")
    code, out, err = run(capsys, "blowup", "--system", str(path))
    assert (code, err) == (0, "")
    assert out.count("  divisor: continuum of stationary points\n") == 4
    assert out.endswith("sector assembly unresolved: continuum of stationary points on the divisor\n")
    code, out, err = run(capsys, "analyze", "--system", str(path))
    assert (code, err) == (0, "")
    assert "note: origin sectors unresolved: continuum of stationary points on the divisor\n" in out


def test_each_kernel_source_is_compiled_once_per_process(tmp_path, capsys, monkeypatch):
    from phaseatlas import desing

    kinds = []

    def counted(source, filename, mode):
        kinds.append(filename.split()[1])  # <phaseatlas KIND CRC>
        return compile(source, filename, mode)

    desing.compile_named.cache_clear()
    monkeypatch.setattr(desing, "compile", counted, raising=False)
    # two cdk fields of one term shape: one rhs and one step loop for both
    for a in ("7/10", "1/5"):
        assert run(capsys, "portrait", "--a", a, "--b", "1/2", "-o", str(tmp_path / "p.svg"))[0] == 0
    assert sorted(kinds) == ["dopri5", "rhs"]
    # one spec file analysed twice: its box test, rhs and Newton Jacobian compiled once
    spec = tmp_path / "competition.txt"
    spec.write_text("x*(3-x-2*y) ; y*(2-x-y)\n")
    for _ in range(2):
        assert run(capsys, "analyze", "--system", str(spec))[0] == 0
    assert sorted(kinds) == ["box", "dopri5", "jac", "rhs", "rhs"]


def test_infinity_of_the_zero_field_exits_3(tmp_path, capsys):
    path = tmp_path / "zero.txt"
    path.write_text("0 ; 0\n")
    code, out, err = run(capsys, "infinity", "--system", str(path))
    assert (code, out, err) == (3, "", "error: cannot compactify the zero field\n")


def test_finite_continuum_in_portrait_and_blowup(tmp_path, capsys):
    # x*y ; x*y vanishes on both axes: two lines of stationary points
    path = tmp_path / "xy.txt"
    path.write_text("x*y ; x*y\n")
    code, out, _ = run(capsys, "portrait", "--system", str(path))
    assert code == 0
    assert "<!-- warning: continuum of finite stationary points detected -->\n" in out
    code, out, _ = run(capsys, "blowup", "--system", str(path))
    assert code == 0
    assert "sector assembly unresolved: zero radial eigenvalue at divisor point +x\n" in out


def test_omega_with_dump(tmp_path, capsys):
    dump = tmp_path / "traj.csv"
    code, out, _ = run(
        capsys,
        "omega",
        "--system", "cdk", "--a", "5/2", "--b", "19/10",
        "--start", "0.1,0.9", "--dump", str(dump),
    )
    assert code == 0
    assert "equilibrium (0, 1)" in out or "equilibrium (0, 1)" in out.replace(".0", "")
    lines = dump.read_text().strip().splitlines()
    assert all(len(line.split(",")) == 3 for line in lines)


def test_blowup_subcommand(capsys):
    code, out, _ = run(capsys, "blowup", "--system", "cdk", "--a", "3/10", "--b", "1")
    assert code == 0
    assert "weights: (1, 2)" in out
    assert "chart +x" in out
    assert "index: 2" in out


def test_infinity_subcommand(capsys):
    code, out, _ = run(capsys, "infinity", "--system", "cdk", "--a", "1/2", "--b", "19/10")
    assert code == 0
    assert "divisor polynomial" in out
    assert "saddle" in out and "repelling_node" in out


def test_sprott_rejected_for_symbolic_commands(capsys):
    code, _, err = run(capsys, "blowup", "--system", "sprott")
    assert code == 3
    assert "sprott" in err


def test_analyze_deterministic_without_stamp(capsys):
    args = ["analyze", "--system", "cdk", "--a", "7/10", "--b", "1/2", "--format", "json"]
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_stamp_adds_only_a_generated_diagnostic(capsys):
    args = ["analyze", "--system", "cdk", "--a", "7/10", "--b", "1/2", "--format", "json"]
    _, plain, _ = run(capsys, *args)
    code, stamped, _ = run(capsys, *args, "--stamp")
    assert code == 0
    plain, stamped = json.loads(plain), json.loads(stamped)
    notes = stamped["diagnostics"]
    stamped["diagnostics"] = [d for d in notes if not d.startswith("generated ")]
    assert len(notes) == len(stamped["diagnostics"]) + 1
    assert stamped == plain


@pytest.mark.parametrize(
    "argv",
    [
        ("blowup", "--format", "json"),
        ("infinity", "--format", "json"),
        ("portrait", "--format", "human"),
        ("stationary", "--stamp"),
        ("omega", "--start", "0.1,0.9", "--stamp"),
    ],
)
def test_flag_a_subcommand_ignores_is_a_usage_error(capsys, argv):
    code, _, err = run(capsys, argv[0], "--a", "7/10", "--b", "1/2", *argv[1:])
    assert code == 2
    assert "unrecognized arguments" in err


def test_sprott_index_around_focus(capsys):
    code, out, _ = run(
        capsys,
        "index", "--system", "sprott",
        "--center", "0.567143,-0.567143", "--radius", "0.1",
    )
    assert code == 0
    assert out.strip() == "1"


def test_analyze_spec_file(tmp_path, capsys):
    path = tmp_path / "sys.txt"
    path.write_text("param c = 2\nx - c*x^3 ; -y\n")
    code, out, _ = run(capsys, "analyze", "--system", str(path), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    # saddle at the origin plus the pair (±1/sqrt(2), 0)
    assert len(doc["equilibria"]) == 3
    assert "region" not in doc


@pytest.mark.parametrize(
    "command, flag, point, rest",
    [
        ("omega", "--start", "-0.1,0.9", ("--a", "5/2", "--b", "19/10", "--max-time", "0.5")),
        ("index", "--center", "-0.5,0", ("--a", "1/2", "--b", "1/2", "--radius", "0.1")),
    ],
)
def test_negative_point_after_a_space(capsys, command, flag, point, rest):
    # argparse read "-0.1,0.9" as a flag: "expected one argument", exit 2
    joined = run(capsys, command, f"{flag}={point}", *rest)
    assert joined[0] == 0
    assert run(capsys, command, flag, point, *rest) == joined


@pytest.mark.parametrize(
    "argv, message",
    [
        (("analyze", "--a", "-1/2", "--b", "1"), "CDK parameters must be positive"),
        (("region", "--a", "-1/2", "--b", "1"), "CDK parameters must be positive"),
        (("scan", "--a-range", "-1:2"), "ranges must be ascending and nonnegative"),
        (("index", "--a", "1/2", "--b", "1/2", "--radius", "-1e3"), "radius must be finite and positive"),
    ],
)
def test_negative_value_after_a_space_reaches_the_domain_check(capsys, argv, message):
    # argparse read "-1/2", "-1:2" and "-1e3" as flags: "expected one argument", exit 2
    assert run(capsys, *argv) == (3, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("analyze", "--a", "--b", "1"), "argument --a: expected one argument"),
        (("analyze", "--b", "--a", "-1/2"), "argument --b: expected one argument"),
        (("analyze", "--a", "--b=1"), "argument --a: expected one argument"),
        (("analyze", "--b", "1", "--a", "-h"), "argument --a: expected one argument"),
    ],
)
def test_a_flag_after_a_value_taking_flag_is_not_its_value(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.endswith(f"phaseatlas analyze: error: {message}\n")


@pytest.mark.parametrize("a", ["1e-308", "1e-310"])
@pytest.mark.parametrize("command", ["analyze", "stationary", "portrait"])
def test_overflowing_float_jacobian_exits_3(capsys, tmp_path, command, a):
    # s3/s4 sit near x = 1e154: 1e-308 printed "-inf" and "nan", 1e-310 raised OverflowError
    code, out, err = run(capsys, command, "--a", a, "--b", "3", "-o", str(tmp_path / "out"))
    assert code == 3 and out == ""
    assert err.startswith("error: polynomial value at (") and err.endswith(") overflows a float\n")


@pytest.mark.parametrize(
    "a, region, case",
    [
        *((a, "3l", "3d") for a in ("1e15", "1e16", "10000000000000001", "1e30", "1e300")),
        ("0.49999999999999999", "3i", "3a"),
        ("0.50000000000000001", "3k", "3c"),
        ("0.5" + "0" * 28 + "1", "3k", "3c"),
        pytest.param("0.5" + "0" * 398 + "1", "3k", "3c", id="1/2+1e-400-3k-3c"),
        pytest.param("0.4" + "9" * 399, "3i", "3a", id="1/2-1e-400-3i-3a"),
    ],
)
def test_divisor_points_at_one_float_angle_keep_their_sectors(capsys, a, region, case):
    # distinct divisor points share a float angle: from a = 1e16 the +x point at u = 2a - 1 and
    # the +y point (π/2), near a = 1/2 the -x points at u = 0 and u = 2a - 1 (π); the zero span
    # between them was read as a whole loop, or its midpoint as on the x-axis, and both commands
    # exited 4 for a = 1e16 and a = 1/2 + 1e-17 (a = 1e15 and 1/2 - 1e-17 passed).  At
    # a = 1/2 ± 1e-400 both exited 3: the ±y charts' divisor roots off u = 0, about ±7e199, were
    # linearized in floats, which overflowed
    code, out, _ = run(capsys, "region", "--a", a, "--b", "1")
    assert code == 0 and json.loads(out)["s1_sectors"] == case
    # analyze checks the origin's sectors against the case
    code, out, _ = run(capsys, "analyze", "--a", a, "--b", "1", "--format", "json")
    assert code == 0 and json.loads(out)["region"] == region


@pytest.mark.parametrize(
    "a, u, labels",
    [
        ("0.5" + "0" * 398 + "1", Fraction(1, 5 * 10**399), ["+x", "+x:u", "+y", "-x:u", "-x", "-y"]),
        ("0.4" + "9" * 399, Fraction(-1, 5 * 10**399), ["+x:u", "+x", "+y", "-x", "-x:u", "-y"]),
    ],
    ids=["1/2+1e-400", "1/2-1e-400"],
)
def test_origin_sectors_run_counterclockwise_by_exact_coordinate(capsys, a, u, labels):
    # on b = 1 each x-chart has divisor points at u = 0 and u = 2a - 1, here ±2e-400; both were
    # 0.0 as floats, so the -x pair was walked clockwise: +y, -x, -x:u, -y at 1/2 + 1e-400
    code, out, _ = run(capsys, "analyze", "--a", a, "--b", "1", "--format", "json")
    assert code == 0
    got = [s["from"] for s in json.loads(out)["origin_sectors"]["sectors"]]
    assert got == [label.replace(":u", f":{u}") for label in labels]


@pytest.mark.parametrize("a, b", [("27/10", "1"), ("0.2000000003", "1"),
                                  *((str(a), str(b)) for a, b in APPENDIX_PAIRS)])
def test_cdk_analyze_classifies_no_float_matrix(monkeypatch, capsys, a, b):
    # the blow-up linearizes a ±y chart at u = 0 alone, an exact point; its irrational divisor
    # points, such as +y's ±0.4767 at (27/10, 1), were the cdk field's only float verdicts
    from phaseatlas import compact, equilibria

    matrices = []
    classify_linear = equilibria.classify_linear
    for module in (equilibria, compact):
        monkeypatch.setattr(module, "classify_linear", lambda J: matrices.append(J) or classify_linear(J))
    code, _, _ = run(capsys, "analyze", "--a", a, "--b", b)
    assert code == 0 and (matrices or (a, b) == ("1", "1"))  # a = b = 1 has no isolated point
    floats = [J for J in matrices if not all(isinstance(v, (int, Fraction)) for row in J for v in row)]
    assert floats == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (("omega", "--start", "0.1,0.9,3"), "argument --start: expected 'x,y', got '0.1,0.9,3'"),
        (("omega", "--start", "0.1,y"), "argument --start: expected 'x,y', got '0.1,y'"),
        (("index", "--radius", "1", "--center", "1"), "argument --center: expected 'x,y', got '1'"),
        (("scan", "--a-range", "1"), "argument --a-range: expected 'lo:hi', got '1'"),
        (("scan", "--b-range", "0:x"), "argument --b-range: invalid rational literal 'x': "),
    ],
)
def test_type_converter_errors_name_the_expected_form(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert f"phaseatlas {argv[0]}: error: {message}" in err
    assert "_point" not in err and "_range" not in err


_SYSTEM_COMMANDS = ("analyze", "stationary", "blowup", "infinity", "index", "omega", "portrait")

EQUIVALENCE_CORPUS = [
    (),
    ("-h",),
    ("bogus",),
    ("analyz",),
    *((name, "-h") for name in cli.COMMANDS),
    *((name, "--bogus", "1") for name in cli.COMMANDS),
    *((name, "--format", "xml") for name in cli.COMMANDS),
    *((name, "--system") for name in _SYSTEM_COMMANDS),
    ("index",),
    ("omega", "--a", "1/2"),
    ("region", "--a", "1"),
    ("region", "--b", "1", "--format", "human"),
    ("analyze", "--a", "x", "--b", "1"),
    ("index", "--radius", "x"),
    ("index", "--radius", "1", "-n", "many"),
    ("index", "--radius", "1", "--center", "1,2,3"),
    ("omega", "--start", "x"),
    ("omega", "--start", "0,1", "--max-time", "long"),
    ("omega", "--start", "0,1", "--capture-radius", "wide"),
    ("region", "--a", "x", "--b", "1"),
    ("scan", "--resolution", "x"),
    ("scan", "--a-range", "1"),
    ("scan", "--b-range", "x:1"),
    ("portrait", "--scan-map"),
]


@pytest.mark.parametrize("columns", ["60", "200"])
def test_one_command_parser_prints_what_the_full_parser_prints(monkeypatch, capsys, columns):
    # the one parser main() keeps for the process prints, at each terminal width, what a
    # freshly built full parser prints
    monkeypatch.setenv("COLUMNS", columns)
    one = [run(capsys, *argv) for argv in EQUIVALENCE_CORPUS]
    # a fresh full parser for each call, not one main() has kept
    monkeypatch.setattr(cli, "_parser", lambda: cli.build_parser())
    full = [run(capsys, *argv) for argv in EQUIVALENCE_CORPUS]
    for argv, got, expected in zip(EQUIVALENCE_CORPUS, one, full):
        assert got == expected, argv
        assert got[0] in (0, 2), argv
    assert sum(code == 0 for code, _, _ in one) == 1 + len(cli.COMMANDS)
    assert one[0][2].endswith("error: the following arguments are required: command\n")


def test_equivalence_corpus_prints_the_same_twice_in_one_process(capsys):
    cli._parser.cache_clear()
    first = [run(capsys, *argv) for argv in EQUIVALENCE_CORPUS]  # builds the parser
    second = [run(capsys, *argv) for argv in EQUIVALENCE_CORPUS]  # reuses it
    assert first == second


def test_main_builds_each_command_parser_once(count_calls, capsys):
    cli._parser.cache_clear()
    counts = count_calls((cli.build_parser,))
    for argv in (("analyze", "--a", "7/10", "--b", "1/2"), ("analyze", "--a", "1", "--b", "1")):
        assert run(capsys, *argv)[0] == 0
    assert run(capsys, "region", "--a", "1", "--b", "1")[0] == 0
    assert counts == {"build_parser": 1}
