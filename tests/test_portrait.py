import math
import os
import signal
import subprocess
import sys
import threading
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from phaseatlas import cli, compact, dynamics, portrait
from phaseatlas.atlas import REGION_IDS, ScanResult, scan_grid
from phaseatlas.blowup import classify_nilpotent_origin
from phaseatlas.desing import PolyField, cdk_poly_field, desingularize
from phaseatlas.equilibria import ClassificationKind, cdk_stationary_points
from phaseatlas.errors import PreconditionError
from phaseatlas.polycore import BiPoly, X, Y
from phaseatlas.portrait import (
    GLYPH_MAP,
    REGION_COLORS,
    _fmt,
    glyph_for,
    render_portrait,
    render_region_map,
)
from phaseatlas.sysio import parse_system

from oracles import per_point_path_data

F = Fraction


@pytest.fixture(autouse=True)
def no_child_left():
    """Each test in this file starts without a worker, and no child outlives the shutdown hook."""
    portrait._shutdown()
    yield
    portrait._shutdown()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_glyph_map_total_over_kinds():
    from phaseatlas.equilibria import KIND_NAMES, SEMI_HYPERBOLIC_SUBKINDS

    for name in KIND_NAMES:
        assert glyph_for(ClassificationKind(name)) is not None
        if name == "semi_hyperbolic":
            for sub in SEMI_HYPERBOLIC_SUBKINDS:
                assert glyph_for(ClassificationKind(name, subkind=sub))


def _separatrices(f, points):
    """(trajectory, stable, source) of each separatrix job, integrated as render_portrait does."""
    opts, jobs = portrait._separatrix_jobs(f, points, None)
    return [(dynamics.integrate(f, seed, opts, direction), stable, source)
            for seed, direction, stable, source in jobs]


def test_origin_separatrices_are_traced_once_beside_a_float_tie():
    # at (1/2 + 10^-400, 1) the 6 origin boundary points give 4 distinct float seeds, each traced
    # forward and backward once
    f = cdk_poly_field(F(1, 2) + F(1, 10**400), 1)
    _, jobs = portrait._separatrix_jobs(f, cdk_stationary_points(F(1, 2) + F(1, 10**400), 1),
                                        classify_nilpotent_origin(f))
    origin = [(seed, direction) for seed, direction, _, source in jobs if source.startswith("origin[")]
    assert len(origin) == len(set(origin)) == 8


def test_linear_saddle_four_separatrices():
    f = PolyField(X, -Y)
    pts = [
        __import__("phaseatlas.equilibria", fromlist=["_make_point"])._make_point(
            f, (F(0), F(0)), None
        )
    ]
    seps = _separatrices(f, pts)
    assert len(seps) == 4
    stable = [trajectory for trajectory, is_stable, _ in seps if is_stable]
    assert len(stable) == 2
    # stable rays hug the y-axis, unstable rays the x-axis
    for trajectory in stable:
        x, y = trajectory.samples[-1][1]
        assert abs(x) < 1e-3 or abs(y) > abs(x)


def test_saddle_separatrices_separate_basins():
    # stable manifolds of s3/s4 exist for a > 1 > b
    a, b = F(5, 2), F(1, 2)
    f = cdk_poly_field(a, b)
    pts = cdk_stationary_points(a, b)
    seps = _separatrices(f, pts)
    assert any(stable and source == "s3" for _, stable, source in seps)
    assert any(stable and source == "s4" for _, stable, source in seps)


def test_render_deterministic_bytes():
    f = cdk_poly_field(F(5, 2), F(1, 2))
    svg1 = render_portrait(f).to_svg()
    svg2 = render_portrait(f).to_svg()
    assert svg1 == svg2
    assert svg1.startswith("<?xml")
    assert "<svg" in svg1 and svg1.rstrip().endswith("</svg>")


def test_render_circle_case_draws_continua():
    f = cdk_poly_field(1, 1)
    doc = render_portrait(f)
    svg = doc.to_svg()
    # finite stationary circle in green plus the cyan infinity circle
    assert "#1f9d36" in svg
    assert "#00bcd4" in svg


def test_render_elliptic_case_has_black_x_at_origin():
    f = cdk_poly_field(F(1, 2), F(1, 2))
    svg = render_portrait(f).to_svg()
    assert 'stroke="#000000"' in svg  # the nilpotent-origin x glyph


def test_all_coordinates_inside_viewport(monkeypatch):
    # the path writer projects the plane points it receives; check their finite projections
    monkeypatch.setattr(portrait, "_use_worker", lambda: False)
    received, real = [], portrait._path_data

    def path_data(points):
        points = list(points)
        received.extend(points)
        return real(points)

    monkeypatch.setattr(portrait, "_path_data", path_data)
    f = cdk_poly_field(F(1, 2), F(19, 10))
    doc = render_portrait(f)
    disc = [compact.disc_coords(z) for z in received]
    finite = [(x, y) for x, y in disc if math.isfinite(x) and math.isfinite(y)]
    assert len(finite) > 1000
    for x, y in finite:
        assert math.hypot(x, y) <= 1.0 + 1e-6
    for el in doc.elements:
        if el[0] == "marker":
            x, y = el[2]
            assert math.hypot(x, y) <= 1.0 + 1e-6


def test_empty_field_renders_disc_and_warning():
    doc = render_portrait(PolyField(BiPoly.zero(), BiPoly.zero()))
    svg = doc.to_svg()
    assert "degenerate field" in svg
    assert "<circle" in svg


def test_region_map_renders_all_colors():
    res = scan_grid((0, 3), (0, 3), 8)
    svg = render_region_map(res)
    assert svg.count("<rect") == 64
    assert render_region_map(res) == svg


def _per_cell_region_map(scan):
    """The region map written with one f-string per cell, the reference for the run writer."""
    n_a, n_b = len(scan.a_values), len(scan.b_values)
    a_lo = float(scan.a_values[0]) - (float(scan.a_values[1]) - float(scan.a_values[0])) / 2 if n_a > 1 else 0.0
    b_lo = float(scan.b_values[0]) - (float(scan.b_values[1]) - float(scan.b_values[0])) / 2 if n_b > 1 else 0.0
    da = (float(scan.a_values[1]) - float(scan.a_values[0])) if n_a > 1 else 1.0
    db = (float(scan.b_values[1]) - float(scan.b_values[0])) if n_b > 1 else 1.0
    width, height = n_a * da, n_b * db
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="600" height="600" '
        f'viewBox="{_fmt(a_lo)} {_fmt(-b_lo - height)} {_fmt(width)} {_fmt(height)}">',
    ]
    columns = [f'<rect x="{_fmt(a_lo + i * da)}" y="' for i in range(n_a)]
    size = f'" width="{_fmt(da)}" height="{_fmt(db)}" fill="'
    for j in range(n_b):
        tail = _fmt(-(b_lo + (j + 1) * db)) + size
        out += [f'{x}{tail}{REGION_COLORS[c]}"/>' for x, c in zip(columns, scan.cells[j])]
    out.append("</svg>")
    return "\n".join(out) + "\n"


_labels = st.sampled_from(REGION_IDS)
_row_kinds = st.sampled_from(["one label", "single cells", "all 16", "runs"])
_steps = st.integers(1, 15)
_runs = st.lists(st.tuples(_labels, st.integers(1, 8)), max_size=26)
_sizes = st.integers(2, 24)
_length_offsets = st.integers(-2, 2)  # rows shorter and longer than a_values
_orders = st.permutations(REGION_IDS)


def _row(draw, n):
    """A row of about n labels: one label, single-cell runs, all 16 labels or random runs."""
    length = max(0, n + draw(_length_offsets))
    kind = draw(_row_kinds)
    if kind == "one label":
        return (draw(_labels),) * length
    if kind == "single cells":
        steps = [draw(_steps) for _ in range(length)]
        return tuple(REGION_IDS[i % 16] for i in accumulate(steps, initial=draw(_steps)))[:length]
    if kind == "all 16":
        return tuple(draw(_orders) * (length // 16 + 1))[:length]
    return tuple(label for label, size in draw(_runs) for _ in range(size))[: n + 2]


def _axis(draw, n):
    start = Fraction(draw(st.integers(0, 500)), draw(_sizes))
    step = Fraction(draw(st.integers(1, 200)), draw(_sizes))
    return tuple(start + k * step for k in range(n))


@st.composite
def _region_maps(draw):
    n = draw(_sizes)
    n_a, n_b = draw(st.sampled_from([(1, 1), (1, n), (n, 1), (n, draw(_sizes))]))
    cells = tuple(_row(draw, n_a) for _ in range(n_b))
    return ScanResult(_axis(draw, n_a), _axis(draw, n_b), cells, {})


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_region_maps())
@example(ScanResult(tuple(range(1, 17)), (1,), (REGION_IDS,), {}))
# labels equal to the region ids but not the same objects, as JSON decodes them
@example(ScanResult(tuple(range(1, 17)), (1,), (tuple("".join(list(label)) for label in REGION_IDS),), {}))
def test_region_map_matches_the_per_cell_writer(scan):
    assert render_region_map(scan) == _per_cell_region_map(scan)


_PATH_COORDINATES = st.one_of(
    st.floats(-1e300, 1e300),
    st.sampled_from([0.0, -0.0, 1e-5, -1e-5, 1e154, -1e154, 1e200, -1e300, math.inf, -math.inf, math.nan]),
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.lists(st.tuples(_PATH_COORDINATES, _PATH_COORDINATES), max_size=8))
@example([(0.0, 0.0), (1e200, 0.0)])
@example([(-1e-5, 1e-5), (math.nan, 0.0), (math.inf, 1.0), (1e154, -1e154)])
def test_path_data_matches_the_per_point_writer(points):
    assert portrait._path_data(points) == per_point_path_data(points)


def test_glyphs_match_stationary_point_kinds():
    for a, b in [(F(5, 2), F(1, 2)), (F(1, 2), F(19, 10)), (F(1), F(19, 10))]:
        pts = cdk_stationary_points(a, b)
        expected = sorted(glyph_for(p.kind) for p in pts)
        doc = render_portrait(cdk_poly_field(a, b))
        markers = [el for el in doc.elements if el[0] == "marker"]
        finite_markers = sorted((el[1], el[4]) for el in markers[: len(pts)])
        assert finite_markers == expected, (a, b)


def test_slope_points_at_infinity_sit_at_their_directions():
    # saddle with invariant directions (1, 2) and (1, -2): one equator point
    # in each quadrant, all four owned by the y-direction charts
    doc = render_portrait(PolyField(X + 2 * Y, 8 * X + Y))
    markers = [el[2] for el in doc.elements if el[0] == "marker"]
    rim = [(x, y) for x, y in markers if abs(math.hypot(x, y) - 1) < 1e-9]
    got = sorted(math.degrees(math.atan2(y, x)) % 360 for x, y in rim)
    directions = ((1, 2), (-1, 2), (-1, -2), (1, -2))
    want = sorted(math.degrees(math.atan2(dy, dx)) % 360 for dx, dy in directions)
    assert got == pytest.approx(want, abs=1e-9)


# -- the forked trajectory worker ----------------------------------------------------------

_WORKER_FIELDS = {
    "s3-s4-saddles": cdk_poly_field(F(5, 2), F(1, 2)),
    "elliptic-origin": cdk_poly_field(F(1, 2), F(1, 2)),
    "circle": cdk_poly_field(1, 1),
    "on-b-1": cdk_poly_field(F(5, 2), 1),
    "lotka-volterra": desingularize(parse_system("x*(3 - x - 2*y) ; y*(2 - x - y)").field),
}


def _render(monkeypatch, f, worker):
    monkeypatch.setattr(portrait, "_use_worker", lambda: worker)
    return render_portrait(f).to_svg()


def _integrate_calls(monkeypatch, f, worker):
    """(seed, options, direction) of each integrate call this process makes while rendering f."""
    calls, real = [], dynamics.integrate

    def recording(field, seed, opts, direction):
        calls.append((seed, opts, direction))
        return real(field, seed, opts, direction)

    with monkeypatch.context() as m:
        m.setattr(dynamics, "integrate", recording)
        _render(m, f, worker)
    return calls


@pytest.mark.parametrize("name", sorted(_WORKER_FIELDS))
def test_worker_gives_the_serial_bytes(monkeypatch, name):
    f = _WORKER_FIELDS[name]
    serial = _integrate_calls(monkeypatch, f, False)
    parent = _integrate_calls(monkeypatch, f, True)
    # this process runs every separatrix in order, then the background jobs it claims
    n = 2 * (portrait.RING_SEED_COUNT + portrait.INNER_SEED_COUNT)
    background, separatrices = serial[:n], serial[n:]
    assert parent[: len(separatrices)] == separatrices
    claimed = [background.index(call) for call in parent[len(separatrices):]]
    assert claimed == sorted(set(claimed))
    assert _render(monkeypatch, f, True) == _render(monkeypatch, f, False)


def test_worker_needs_a_single_thread():
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert not portrait._use_worker()
    finally:
        release.set()
        other.join()


def _failing_at(monkeypatch, jobs, indices):
    """Make integrate raise PreconditionError, naming the job, on the jobs at these indices."""
    real, failing = dynamics.integrate, {jobs[i]: i % len(jobs) for i in indices}

    def integrate(field, seed, opts, direction):
        k = failing.get((seed, opts, direction))
        if k is not None:
            raise PreconditionError(f"forced failure at job {k}")
        return real(field, seed, opts, direction)

    monkeypatch.setattr(dynamics, "integrate", integrate)
    return min(failing.values())


# serial job indices: the 64 background jobs, claimed by either process, then the separatrices,
# which run in this process; -1 is the last separatrix
@pytest.mark.parametrize("failing", [(6,), (11,), (6, 11), (3, 10), (-1,)])
def test_worker_raises_the_first_failure_of_a_serial_run(monkeypatch, capsys, failing):
    f = _WORKER_FIELDS["s3-s4-saddles"]
    serial, real = _render(monkeypatch, f, False), dynamics.integrate
    first = _failing_at(monkeypatch, _integrate_calls(monkeypatch, f, False), failing)
    message = f"forced failure at job {first}"
    for worker in (False, True):
        with pytest.raises(PreconditionError) as exc:
            _render(monkeypatch, f, worker)
        assert type(exc.value) is PreconditionError and str(exc.value) == message
        assert cli.main(["portrait", "--a", "5/2", "--b", "1/2"]) == 3
        assert capsys.readouterr() == ("", f"error: {message}\n")
    # the error came after both processes stopped, so the worker is idle and serves the next portrait
    monkeypatch.setattr(dynamics, "integrate", real)
    assert _render(monkeypatch, f, True) == serial


def test_worker_that_dies_without_output_changes_nothing(monkeypatch):
    f = _WORKER_FIELDS["elliptic-origin"]
    serial = _render(monkeypatch, f, False)
    parent, real = os.getpid(), dynamics.integrate

    def integrate(*args):
        if os.getpid() != parent:
            os._exit(1)
        return real(*args)

    monkeypatch.setattr(dynamics, "integrate", integrate)
    assert _render(monkeypatch, f, True) == serial
    assert portrait._worker is None  # reaped: the next portrait forks afresh
    monkeypatch.setattr(dynamics, "integrate", real)
    assert _render(monkeypatch, f, True) == serial
    assert portrait._worker is not None


def test_error_after_the_fork_is_the_serial_error(monkeypatch, capsys):
    f, real = _WORKER_FIELDS["s3-s4-saddles"], compact.infinite_stationary_points
    serial = _render(monkeypatch, f, False)

    def infinite_stationary_points(f):
        raise PreconditionError("forced failure at infinity")

    monkeypatch.setattr(compact, "infinite_stationary_points", infinite_stationary_points)
    for worker in (False, True):
        monkeypatch.setattr(portrait, "_use_worker", lambda: worker)
        assert cli.main(["portrait", "--a", "5/2", "--b", "1/2"]) == 3
        assert capsys.readouterr() == ("", "error: forced failure at infinity\n")
    assert portrait._worker is None  # its jobs were in flight, so it was reaped
    monkeypatch.setattr(compact, "infinite_stationary_points", real)
    assert _render(monkeypatch, f, True) == serial
    assert portrait._worker is not None


def test_a_process_forked_after_a_portrait_keeps_off_the_worker(monkeypatch):
    f = _WORKER_FIELDS["s3-s4-saddles"]
    serial = _render(monkeypatch, f, False)
    assert _render(monkeypatch, f, True) == serial
    worker, (rfd, wfd) = portrait._worker, os.pipe()
    pid = os.fork()
    if pid == 0:  # the inherited worker is dropped; this process forks and reaps its own
        signal.alarm(120)  # a child that hangs dies, and the parent reads no verdict
        verdict = b"dropped" if portrait._worker is None else b"inherited"
        try:
            if verdict == b"dropped":
                same = _render(monkeypatch, f, True) == serial
                verdict = b"same" if same and portrait._worker not in (None, worker) else b"different"
                portrait._shutdown()
        finally:
            os.write(wfd, verdict)
            os._exit(0)
    os.close(wfd)
    with open(rfd, "rb") as pipe:
        verdict = pipe.read()
    os.waitpid(pid, 0)
    assert verdict == b"same"
    assert _render(monkeypatch, f, True) == serial and portrait._worker is worker


def test_no_worker_outlives_the_interpreter(tmp_path):
    script = f"""
import atexit, os

def no_child():  # registered first, so it runs after the worker's shutdown hook
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        print("no child")

atexit.register(no_child)
from phaseatlas import cli, portrait
portrait._use_worker = lambda: True
for a in ("7/10", "1/5"):
    assert cli.main(["portrait", "--a", a, "--b", "1/2", "-o", {str(tmp_path / "p.svg")!r}]) == 0
print(portrait._worker.pid)
"""
    src = str(Path(portrait.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    pid, *after_exit = proc.stdout.splitlines()
    assert after_exit == ["no child"]
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid), 0)
