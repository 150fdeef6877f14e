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
Identical inputs give byte-identical SVG.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import blowup, compact, dynamics, equilibria
from .desing import PolyField
from .errors import PhaseAtlasError, UnresolvedError

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


@dataclass(frozen=True)
class PortraitStyle:
    glyphs: dict = field(default_factory=lambda: dict(GLYPH_MAP))
    ring_seed_count: int = 24
    inner_seed_count: int = 8
    ring_disc_radius: float = 0.85
    inner_plane_radius: float = 0.05
    trajectory_width: float = 0.004
    separatrix_width: float = 0.008
    glyph_size: float = 0.025
    trajectory_time: float = 40.0


def glyph_for(style: PortraitStyle, kind) -> tuple[str, str]:
    key = str(kind).replace(" [boundary]", "")
    if key in style.glyphs:
        return style.glyphs[key]
    base = key.split("(")[0]
    return style.glyphs[base]


# -- vector document ----------------------------------------------------------------


def _fmt(v: float) -> str:
    out = f"{v:.4f}"
    return "0.0000" if out == "-0.0000" else out


@dataclass
class VectorDocument:
    """An ordered list of draw elements, serializable to SVG 1.1."""

    elements: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    def add_circle(self, center, radius, color, width, fill="none"):
        self.elements.append(("circle", center, radius, color, width, fill))

    def add_path(self, points, color, width):
        pts = [p for p in points if math.isfinite(p[0]) and math.isfinite(p[1])]
        if len(pts) >= 2:
            self.elements.append(("path", tuple(pts), color, width))

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
                _, (cx, cy), r, color, width, fill = el
                out.append(
                    f'<circle cx="{_fmt(cx)}" cy="{_fmt(-cy)}" r="{_fmt(r)}" '
                    f'stroke="{color}" stroke-width="{_fmt(width)}" fill="{fill}"/>'
                )
            elif el[0] == "path":
                _, pts, color, width = el
                d = "M " + " L ".join(f"{_fmt(x)} {_fmt(-y)}" for x, y in pts)
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


@dataclass(frozen=True)
class Separatrix:
    trajectory: dynamics.Trajectory
    stable: bool  # stable manifolds blue, unstable red
    source: str  # label of the equilibrium it belongs to


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


def trace_separatrices(f: PolyField, points, sectors=None, opts=None):
    """Separatrices of saddles and semi-hyperbolic points, plus the
    characteristic orbits bounding the sectors of a nilpotent origin.

    Integrator failures are collected as document warnings by the caller,
    never raised.
    """
    if opts is None:
        eqs = tuple(p.location_floats() for p in points)
        opts = dynamics.IntegratorOptions(
            max_time=200.0,
            box=(-40, 40, -40, 40),
            equilibria=eqs,
            equilibrium_capture_radius=1e-5,
        )
    out = []
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
                    direction = "backward" if stable else "forward"
                    traj = dynamics.integrate(f, seed, opts, direction)
                    out.append(Separatrix(traj, stable, p.label or name))
    if sectors is not None:
        for label, seed in sectors.boundary_seeds(5e-3):
            for direction in ("forward", "backward"):
                traj = dynamics.integrate(f, seed, opts, direction)
                stable = direction == "forward"
                out.append(Separatrix(traj, stable, f"origin[{label}]"))
    return out


# -- portrait assembly -----------------------------------------------------------------


def _disc_path(samples):
    return [compact.disc_coords(z) for _, z in samples]


def _circle_points(center, radius, n=256):
    cx, cy = center
    return [
        (cx + radius * math.cos(2 * math.pi * k / n), cy + radius * math.sin(2 * math.pi * k / n))
        for k in range(n + 1)
    ]


def render_portrait(f: PolyField, style: PortraitStyle | None = None, a=None, b=None) -> VectorDocument:
    """Full phase portrait on the Poincaré disc.

    Layer order: stationary continua, background trajectories,
    separatrices, equilibrium glyphs, disc boundary.
    """
    style = style or PortraitStyle()
    doc = VectorDocument()

    if f.P.is_zero() and f.Q.is_zero():
        doc.add_warning("degenerate field: both components vanish identically")
        doc.add_circle((0.0, 0.0), 1.0, "#000000", 0.01)
        return doc

    is_cdk = f.provenance and f.provenance[0] == "cdk"
    if is_cdk:
        a, b = f.provenance[1], f.provenance[2]

    # stationary continua, drawn from their analytic descriptions
    finite_points = []
    circle = None
    sectors = None
    if is_cdk:
        result = equilibria.cdk_stationary_points(a, b)
        if isinstance(result, equilibria.StationaryCircle):
            circle = result
        else:
            finite_points = result
            try:
                sectors = blowup.classify_nilpotent_origin(f)
            except (UnresolvedError, PhaseAtlasError) as exc:
                doc.add_warning(f"origin sectors unresolved: {exc}")
        infinity = compact.infinite_stationary_points(f)
    else:
        found = equilibria.find_stationary(f, (-8, 8, -8, 8), tol=1e-9)
        if isinstance(found, equilibria.Continuum):
            doc.add_warning("continuum of finite stationary points detected")
        else:
            finite_points = found
        infinity = compact.infinite_stationary_points(f)

    if circle is not None:
        pts = [compact.disc_coords(z) for z in _circle_points(
            (float(circle.center[0]), float(circle.center[1])), float(circle.radius))]
        doc.add_path(pts, FINITE_CONTINUUM_COLOR, style.separatrix_width)
    if isinstance(infinity, compact.InfinityContinuum):
        doc.add_circle((0.0, 0.0), 1.0, INFINITE_CONTINUUM_COLOR, style.separatrix_width)

    # background trajectories from the fixed seed ring
    eqs = tuple(p.location_floats() for p in finite_points)
    opts = dynamics.IntegratorOptions(
        max_time=style.trajectory_time,
        box=(-50, 50, -50, 50),
        equilibria=eqs,
        equilibrium_capture_radius=1e-4,
        rel_tol=1e-8,
    )
    rr = style.ring_disc_radius
    plane_r = rr / math.sqrt(1.0 - rr * rr)
    seeds = []
    for k in range(style.ring_seed_count):
        th = 2 * math.pi * k / style.ring_seed_count
        seeds.append((plane_r * math.cos(th), plane_r * math.sin(th)))
    for k in range(style.inner_seed_count):
        th = 2 * math.pi * k / style.inner_seed_count
        seeds.append(
            (style.inner_plane_radius * math.cos(th), style.inner_plane_radius * math.sin(th))
        )
    for seed in seeds:
        for direction in ("forward", "backward"):
            traj = dynamics.integrate(f, seed, opts, direction)
            if traj.termination.kind == "step_underflow":
                doc.add_warning(f"trajectory from {seed} stopped: step underflow")
            doc.add_path(_disc_path(traj.samples), TRAJECTORY_COLOR, style.trajectory_width)

    # separatrices
    for sep in trace_separatrices(f, finite_points, sectors):
        if sep.trajectory.termination.kind == "step_underflow":
            doc.add_warning(f"separatrix of {sep.source} stopped: step underflow")
        color = STABLE_SEPARATRIX_COLOR if sep.stable else UNSTABLE_SEPARATRIX_COLOR
        doc.add_path(_disc_path(sep.trajectory.samples), color, style.separatrix_width)

    # glyphs: finite equilibria, then infinite stationary points on the rim
    for p in finite_points:
        shape, color = glyph_for(style, p.kind)
        doc.add_marker(shape, compact.disc_coords(p.location_floats()), style.glyph_size, color)
    if not isinstance(infinity, compact.InfinityContinuum):
        for p in infinity:
            shape, color = glyph_for(style, p.kind)
            doc.add_marker(shape, compact.boundary_point(p.angle()), style.glyph_size, color)

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
    """Colorable SVG map of a parameter-plane scan (one rect per cell)."""
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
    for j, b in enumerate(scan.b_values):
        for i, a in enumerate(scan.a_values):
            color = REGION_COLORS[scan.cells[j][i]]
            x = a_lo + i * da
            y = -(b_lo + (j + 1) * db)
            out.append(
                f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(da)}" height="{_fmt(db)}" '
                f'fill="{color}"/>'
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"
