"""Phase portraits on the Poincaré disc, rendered as SVG 1.1.

Legend conventions: a green square marks a saddle, a blue square a stable
node, a red square an unstable node, a blue diamond a stable strong focus,
a red diamond an unstable focus, a blue triangle a semi-hyperbolic stable
node, a green triangle a semi-hyperbolic saddle, a purple triangle a
saddle-node, and a black x a non-elementary point.  Curves consisting
entirely of stationary points are drawn in green (finite) or cyan (at
infinity); separatrices are red (unstable) and blue (stable).

Rendering is deterministic: fixed background seeds, fixed layer order
(continua, trajectories, separatrices, glyphs), fixed float formatting.
Identical inputs give byte-identical SVG.  Each trajectory is written as SVG
path data by the process that integrated it.  Where `os.fork` exists, two
CPUs are usable and no other thread runs, the field's step loop is built and
one worker is forked as soon as the background seeds are known: it claims
background trajectories from a queue while this process runs the blow-up,
the analysis at infinity and the separatrices, then claims from the same
queue.  The SVG bytes are the same with or without the worker.
"""

from __future__ import annotations

import contextlib
import marshal
import math
import os
import threading
from dataclasses import dataclass, field
from itertools import chain, groupby

import numpy as np

from . import atlas, compact, dynamics, equilibria
from .desing import PolyField
from .errors import PhaseAtlasError

GLYPH_MAP = {
    "saddle": ("square", "#1f9d36"),
    "attracting_node": ("square", "#1f4fd8"),
    "repelling_node": ("square", "#d62728"),
    "attracting_focus": ("diamond", "#1f4fd8"),
    "repelling_focus": ("diamond", "#d62728"),
    "center_linear": ("diamond", "#1f9d36"),
    "semi_hyperbolic(attracting_node)": ("triangle", "#1f4fd8"),
    "semi_hyperbolic(repelling_node)": ("triangle", "#d62728"),
    "semi_hyperbolic(saddle)": ("triangle", "#1f9d36"),
    "semi_hyperbolic(saddle_node)": ("triangle", "#9467bd"),
    "semi_hyperbolic": ("triangle", "#9467bd"),
    "nilpotent": ("x", "#000000"),
    "degenerate_curve": ("x", "#000000"),
}

FINITE_CONTINUUM_COLOR = "#1f9d36"  # green
INFINITE_CONTINUUM_COLOR = "#00bcd4"  # cyan
STABLE_SEPARATRIX_COLOR = "#1f4fd8"  # blue
UNSTABLE_SEPARATRIX_COLOR = "#d62728"  # red
TRAJECTORY_COLOR = "#9a9a9a"

TRAJECTORY_WIDTH = 0.004
SEPARATRIX_WIDTH = 0.008
GLYPH_SIZE = 0.025

# background seeds: a ring near the rim of the disc, a small one round the origin
RING_SEED_COUNT = 24
RING_DISC_RADIUS = 0.85
INNER_SEED_COUNT = 8
INNER_PLANE_RADIUS = 0.05
TRAJECTORY_TIME = 40.0


def glyph_for(kind) -> tuple[str, str]:
    key = str(kind).replace(" [boundary]", "")
    if key in GLYPH_MAP:
        return GLYPH_MAP[key]
    base = key.split("(")[0]
    return GLYPH_MAP[base]


# -- vector document ----------------------------------------------------------------


def _fmt(v: float) -> str:
    out = f"{v:.4f}"
    return "0.0000" if out == "-0.0000" else out


def _path_data(points):
    """SVG path data of plane points drawn on the disc, or None if fewer than two project to finite points.

    Each point is projected by `compact.disc_coords` and written with one "%.4f %.4f",
    y flipped; "-0.0000" can only be a whole coordinate, so it is fixed once per path.
    """
    pts = ["%.4f %.4f" % (x, -y) for x, y in map(compact.disc_coords, points)
           if math.isfinite(x) and math.isfinite(y)]
    return ("M " + " L ".join(pts)).replace("-0.0000", "0.0000") if len(pts) >= 2 else None


@dataclass
class VectorDocument:
    """An ordered list of draw elements, serializable to SVG 1.1."""

    elements: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    def add_circle(self, center, radius, color, width):
        self.elements.append(("circle", center, radius, color, width))

    def add_path(self, points, color, width):
        """Draw plane points on the disc, see `_path_data`."""
        self.add_path_data(_path_data(points), color, width)

    def add_path_data(self, d, color, width):
        if d is not None:
            self.elements.append(("path", d, color, width))

    def add_marker(self, shape, center, size, color):
        self.elements.append(("marker", shape, center, size, color))

    def add_warning(self, text):
        self.warnings.append(text)

    def to_svg(self) -> str:
        out = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            'width="600" height="600" viewBox="-1.1 -1.1 2.2 2.2">',
        ]
        for w in self.warnings:
            out.append(f"<!-- warning: {w} -->")
        out.append('<rect x="-1.1" y="-1.1" width="2.2" height="2.2" fill="#ffffff"/>')
        for el in self.elements:
            if el[0] == "circle":
                _, (cx, cy), r, color, width = el
                out.append(
                    f'<circle cx="{_fmt(cx)}" cy="{_fmt(-cy)}" r="{_fmt(r)}" '
                    f'stroke="{color}" stroke-width="{_fmt(width)}" fill="none"/>'
                )
            elif el[0] == "path":
                _, d, color, width = el
                out.append(
                    f'<path d="{d}" stroke="{color}" stroke-width="{_fmt(width)}" '
                    'fill="none" stroke-linejoin="round"/>'
                )
            elif el[0] == "marker":
                _, shape, (cx, cy), size, color = el
                out.append(_marker_svg(shape, cx, -cy, size, color))
        out.append("</svg>")
        return "\n".join(out) + "\n"


def _marker_svg(shape, cx, cy, s, color) -> str:
    if shape == "square":
        return (
            f'<rect x="{_fmt(cx - s)}" y="{_fmt(cy - s)}" width="{_fmt(2 * s)}" '
            f'height="{_fmt(2 * s)}" fill="{color}"/>'
        )
    if shape == "diamond":
        pts = [(cx, cy - s), (cx + s, cy), (cx, cy + s), (cx - s, cy)]
    elif shape == "triangle":
        pts = [(cx, cy - s), (cx + s, cy + s), (cx - s, cy + s)]
    elif shape == "x":
        return (
            f'<path d="M {_fmt(cx - s)} {_fmt(cy - s)} L {_fmt(cx + s)} {_fmt(cy + s)} '
            f'M {_fmt(cx - s)} {_fmt(cy + s)} L {_fmt(cx + s)} {_fmt(cy - s)}" '
            f'stroke="{color}" stroke-width="{_fmt(s / 2)}" fill="none"/>'
        )
    else:  # dot
        return f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(s)}" fill="{color}"/>'
    d = "M " + " L ".join(f"{_fmt(x)} {_fmt(y)}" for x, y in pts) + " Z"
    return f'<path d="{d}" fill="{color}"/>'


# -- separatrices --------------------------------------------------------------------


def _eigen_directions(J):
    a = np.array([[float(J[0][0]), float(J[0][1])], [float(J[1][0]), float(J[1][1])]])
    vals, vecs = np.linalg.eig(a)
    out = []
    for k in range(2):
        if abs(vals[k].imag) > 1e-12:
            continue
        v = vecs[:, k].real
        norm = math.hypot(v[0], v[1])
        if norm > 0:
            out.append((vals[k].real, (v[0] / norm, v[1] / norm)))
    return out


def _separatrix_jobs(f: PolyField, points, sectors):
    """(options, [(seed, direction, stable, source), ...]) of the separatrices, in drawing order."""
    opts = dynamics.IntegratorOptions(
        max_time=200.0,
        box=(-40, 40, -40, 40),
        equilibria=tuple(p.location_floats() for p in points),
        equilibrium_capture_radius=1e-5,
    )
    jobs = []
    for p in points:
        name = p.kind.name
        if name == "saddle" or (name == "semi_hyperbolic" and p.kind.subkind in ("saddle", "saddle_node")):
            x0, y0 = p.location_floats()
            for lam, (vx, vy) in _eigen_directions(p.jacobian):
                stable = lam < 0
                if lam == 0:
                    continue
                eps = 1e-5 * (1.0 + abs(lam))
                for sgn in (1.0, -1.0):
                    seed = (x0 + sgn * eps * vx, y0 + sgn * eps * vy)
                    jobs.append((seed, "backward" if stable else "forward", stable, p.label or name))
    if sectors is not None:
        for label, seed in sectors.boundary_seeds(5e-3):
            for direction in ("forward", "backward"):
                jobs.append((seed, direction, direction == "forward", f"origin[{label}]"))
    return opts, jobs


# -- portrait assembly -----------------------------------------------------------------


def _use_worker():
    """True where one forked worker can share the trajectories: os.fork, two CPUs, one thread."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2 and threading.active_count() == 1)


def _run_jobs(f, jobs, indices, results):
    """Store (termination kind, path data) of jobs[i] in results[i] for each index in order; raises."""
    for i in indices:
        traj = dynamics.integrate(f, *jobs[i])
        results[i] = traj.termination.kind, _path_data(z for _, z in traj.samples)


def _claimed(queue):
    """Job indices claimed from the queue pipe, one byte each, until it is empty."""
    while index := os.read(queue, 1):
        yield index[0]


class _Worker:
    """One forked child that runs the background jobs it claims from a queue pipe.

    The background job indices are written to the queue before the fork, so the write
    cannot block.  The child claims indices until the queue is empty or a job raises, and
    sends {index: result} of the jobs it finished as one marshal string; it writes nothing
    else, calls no numpy and always ends in os._exit.  Where `_use_worker()` is false or
    the fork fails there is no child, and `gather` returns {}.
    """

    def __init__(self, f, background):
        self.f, self.background, self.pid = f, background, None
        if not _use_worker():
            return
        dynamics.step_loop(f)  # built before the fork, so the child does not build it again
        self.queue, wfd = os.pipe()
        os.write(wfd, bytes(range(len(background))))
        os.close(wfd)
        rfd, wfd = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (self.queue, rfd, wfd):
                os.close(fd)
            return
        if self.pid == 0:
            try:
                os.close(rfd)
                results = {}
                with contextlib.suppress(Exception):
                    _run_jobs(f, background, _claimed(self.queue), results)
                with open(wfd, "wb") as pipe:
                    pipe.write(marshal.dumps(results))
            finally:
                os._exit(0)
        os.close(wfd)
        self.results = open(rfd, "rb")

    def gather(self, jobs):
        """{index: result} of the jobs either process finished; jobs begins with the background jobs.

        This process runs the jobs after the background ones in order, then claims background
        jobs until the queue is empty; each process stops at its first exception.
        """
        if self.pid is None:
            return {}
        claims = chain(range(len(self.background), len(jobs)), _claimed(self.queue))
        results = {}
        with contextlib.suppress(Exception):
            _run_jobs(self.f, jobs, claims, results)
        data = self.results.read()
        if self.close() == 0 and data:
            results.update(marshal.loads(data))
        return results

    def close(self):
        """Reap the child and return its wait status; None where there is no child."""
        if self.pid is None:
            return None
        os.read(self.queue, len(self.background))  # claim what is left: the child stops after its job
        os.close(self.queue)
        self.results.close()  # before the wait: a child still writing gets EPIPE, not a full pipe
        pid, self.pid = self.pid, None
        return os.waitpid(pid, 0)[1]


def _circle_points(center, radius, n=256):
    cx, cy = center
    return [
        (cx + radius * math.cos(2 * math.pi * k / n), cy + radius * math.sin(2 * math.pi * k / n))
        for k in range(n + 1)
    ]


def render_portrait(f: PolyField) -> VectorDocument:
    """Full phase portrait on the Poincaré disc.

    Layer order: stationary continua, background trajectories,
    separatrices, equilibrium glyphs, disc boundary.
    """
    doc = VectorDocument()

    if f.P.is_zero() and f.Q.is_zero():
        doc.add_warning("degenerate field: both components vanish identically")
        doc.add_circle((0.0, 0.0), 1.0, "#000000", 0.01)
        return doc

    # stationary continua, drawn from their analytic descriptions
    finite_points, circle, sectors = [], None, None
    analysis = atlas.FieldAnalysis(f, tol=1e-9)
    if isinstance(analysis.finite, equilibria.Continuum):
        doc.add_warning("continuum of finite stationary points detected")
    else:
        finite_points, circle = analysis.finite

    # background trajectories from the fixed seed ring; the worker starts on them here
    eqs = tuple(p.location_floats() for p in finite_points)
    opts = dynamics.IntegratorOptions(
        max_time=TRAJECTORY_TIME,
        box=(-50, 50, -50, 50),
        equilibria=eqs,
        equilibrium_capture_radius=1e-4,
        rel_tol=1e-8,
    )
    plane_r = RING_DISC_RADIUS / math.sqrt(1.0 - RING_DISC_RADIUS * RING_DISC_RADIUS)
    seeds = []
    for k in range(RING_SEED_COUNT):
        th = 2 * math.pi * k / RING_SEED_COUNT
        seeds.append((plane_r * math.cos(th), plane_r * math.sin(th)))
    for k in range(INNER_SEED_COUNT):
        th = 2 * math.pi * k / INNER_SEED_COUNT
        seeds.append((INNER_PLANE_RADIUS * math.cos(th), INNER_PLANE_RADIUS * math.sin(th)))
    background = [(seed, opts, direction) for seed in seeds for direction in ("forward", "backward")]
    worker = _Worker(f, background)
    try:
        # only cdk origins get sector separatrices; spec-file portraits keep their drawing
        if f.provenance[0] == "cdk":
            try:
                sectors = analysis.sectors
            except PhaseAtlasError as exc:
                doc.add_warning(f"origin sectors unresolved: {exc}")
        infinity = analysis.infinity
        sep_opts, separatrices = _separatrix_jobs(f, finite_points, sectors)
        jobs = background + [(seed, sep_opts, d) for seed, d, _, _ in separatrices]
        results = worker.gather(jobs)
    finally:
        worker.close()
    # what neither process finished runs here in job order, so an error is a serial run's
    _run_jobs(f, jobs, [i for i in range(len(jobs)) if i not in results], results)
    paths = iter([results[i] for i in range(len(jobs))])

    if circle is not None:
        doc.add_path(_circle_points((float(circle.center[0]), float(circle.center[1])), float(circle.radius)),
                     FINITE_CONTINUUM_COLOR, SEPARATRIX_WIDTH)
    if isinstance(infinity, compact.InfinityContinuum):
        doc.add_circle((0.0, 0.0), 1.0, INFINITE_CONTINUUM_COLOR, SEPARATRIX_WIDTH)

    for (seed, _, _), (kind, d) in zip(background, paths):
        if kind == "step_underflow":
            doc.add_warning(f"trajectory from {seed} stopped: step underflow")
        doc.add_path_data(d, TRAJECTORY_COLOR, TRAJECTORY_WIDTH)

    # separatrices
    for (_, _, stable, source), (kind, d) in zip(separatrices, paths):
        if kind == "step_underflow":
            doc.add_warning(f"separatrix of {source} stopped: step underflow")
        color = STABLE_SEPARATRIX_COLOR if stable else UNSTABLE_SEPARATRIX_COLOR
        doc.add_path_data(d, color, SEPARATRIX_WIDTH)

    # glyphs: finite equilibria, then infinite stationary points on the rim
    for p in finite_points:
        shape, color = glyph_for(p.kind)
        doc.add_marker(shape, compact.disc_coords(p.location_floats()), GLYPH_SIZE, color)
    if not isinstance(infinity, compact.InfinityContinuum):
        for p in infinity:
            shape, color = glyph_for(p.kind)
            doc.add_marker(shape, compact.boundary_point(p.angle()), GLYPH_SIZE, color)

    doc.add_circle((0.0, 0.0), 1.0, "#000000", 0.01)
    return doc


# -- parameter-plane map -----------------------------------------------------------------

REGION_COLORS = {
    "1": "#000000",
    "2a": "#1f77b4",
    "2b": "#aec7e8",
    "2c": "#ff7f0e",
    "3a": "#ffbb78",
    "3b": "#2ca02c",
    "3c": "#98df8a",
    "3d": "#d62728",
    "3e": "#ff9896",
    "3f": "#9467bd",
    "3g": "#c5b0d5",
    "3h": "#8c564b",
    "3i": "#c49c94",
    "3j": "#e377c2",
    "3k": "#f7b6d2",
    "3l": "#bcbd22",
}


def render_region_map(scan) -> str:
    """Colorable SVG map of a parameter-plane scan (one rect per cell).

    A scan row has few runs of equal labels, so each run is written by one
    join of its columns' `<rect x=...` prefixes, with the row's `y`, the cell
    size and the run's fill as the separator.  The bytes are those of one
    line per cell.  A row longer than `a_values` is cut at the last column;
    a shorter row draws only its own cells.
    """
    n_a, n_b = len(scan.a_values), len(scan.b_values)
    a_lo = float(scan.a_values[0]) - (float(scan.a_values[1]) - float(scan.a_values[0])) / 2 if n_a > 1 else 0.0
    b_lo = float(scan.b_values[0]) - (float(scan.b_values[1]) - float(scan.b_values[0])) / 2 if n_b > 1 else 0.0
    da = (float(scan.a_values[1]) - float(scan.a_values[0])) if n_a > 1 else 1.0
    db = (float(scan.b_values[1]) - float(scan.b_values[0])) if n_b > 1 else 1.0
    width, height = n_a * da, n_b * db
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="600" height="600" '
        f'viewBox="{_fmt(a_lo)} {_fmt(-b_lo - height)} {_fmt(width)} {_fmt(height)}">\n',
    ]
    # each coordinate is formatted once, per column and per row
    columns = [f'<rect x="{_fmt(a_lo + i * da)}" y="' for i in range(n_a)]
    size = f'" width="{_fmt(da)}" height="{_fmt(db)}" fill="'
    for j in range(n_b):
        tail = _fmt(-(b_lo + (j + 1) * db)) + size
        i = 0
        for c, run in groupby(scan.cells[j][:n_a]):
            k = i + len(list(run))
            line_end = f'{tail}{REGION_COLORS[c]}"/>\n'
            out += (line_end.join(columns[i:k]), line_end)
            i = k
    out.append("</svg>\n")
    return "".join(out)
