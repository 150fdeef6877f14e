"""Command-line interface.

    phaseatlas analyze   --system cdk --a 7/10 --b 1/2
    phaseatlas stationary --system cdk --a 5/2 --b 1/2
    phaseatlas blowup    --system cdk --a 3/10 --b 1
    phaseatlas infinity  --system cdk --a 1/2 --b 19/10
    phaseatlas index     --system cdk --a 1/2 --b 1/2 --center 0,0 --radius 0.1
    phaseatlas omega     --system cdk --a 5/2 --b 19/10 --start 0.1,0.9
    phaseatlas region    --a 7/10 --b 1/2
    phaseatlas scan      --a-range 0:3 --b-range 0:3 --resolution 200 -o map.json
    phaseatlas portrait  --system cdk --a 1/2 --b 1/2 -o out.svg

Systems come from the built-in fixtures ("cdk" with --a/--b, "sprott") or
from a spec file (two rational expressions, optional "param n = v" lines).
Rational flags accept "n/d" or decimal literals; decimals are rationalized
exactly from their digits.  Exit codes: 0 success, 2 usage or parse error,
3 precondition or domain violation, 4 internal inconsistency.
Output is deterministic.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import atlas, blowup, compact, dynamics, equilibria, portrait, sysio
from .desing import cdk_poly_field, sprott_field
from .errors import (
    DomainError,
    InternalInconsistencyError,
    ParseError,
    PhaseAtlasError,
    PreconditionError,
)
from .polycore import format_poly

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_INCONSISTENT = 4


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"invalid rational literal {text!r}: {exc}")


def _point(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError(f"expected 'x,y', got {text!r}")
    return (float(parts[0]), float(parts[1]))


def _range(text: str) -> tuple[Fraction, Fraction]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ParseError(f"expected 'lo:hi', got {text!r}")
    return (_rational(parts[0]), _rational(parts[1]))


class _System:
    """Resolved system source: field, parameters, description."""

    def __init__(self, args, need_field=True):
        self.kind = args.system
        self.a = self.b = None
        self.spec = None
        if args.system == "cdk":
            if args.a is None or args.b is None:
                raise ParseError("the cdk fixture needs both --a and --b")
            self.a, self.b = _rational(args.a), _rational(args.b)
            self.field = cdk_poly_field(self.a, self.b)
            self.text = "cdk"
            self.params = (("a", self.a), ("b", self.b))
        elif args.system == "sprott":
            self.field = sprott_field()
            self.text = "sprott"
            self.params = ()
        else:
            with open(args.system, "r", encoding="utf-8") as fh:
                self.spec = sysio.parse_system(fh.read())
            from .desing import desingularize

            self.field = desingularize(self.spec.to_rational_field())
            self.text = self.spec.canonical_text().strip()
            self.params = self.spec.parameters

    def require_polynomial(self):
        if self.kind == "sprott":
            raise PreconditionError(
                "the sprott fixture is not polynomial; this subcommand needs a "
                "rational system"
            )
        return self.field


def _emit(args, text: str):
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _stationary_pieces(system):
    """(points, circle) from the closed form for cdk, numerically otherwise."""
    if system.kind == "cdk":
        result = equilibria.cdk_stationary_points(system.a, system.b)
        if isinstance(result, equilibria.StationaryCircle):
            return [], result
        return result, None
    found = equilibria.find_stationary(system.field, (-8, 8, -8, 8), tol=1e-10)
    if isinstance(found, equilibria.Continuum):
        raise PreconditionError(
            "continuum of stationary points detected; no point list to report"
        )
    return found, None


def _base_diagnostics(args):
    out = ["integration time is the reparametrised polynomial time"]
    if getattr(args, "stamp", False):
        import datetime

        out.append(f"generated {datetime.datetime.now().isoformat()}")
    return out


def cmd_analyze(args):
    system = _System(args)
    f = system.require_polynomial()
    points, circle = _stationary_pieces(system)
    diagnostics = _base_diagnostics(args)
    sectors = None
    region = None
    if circle is None and not any(v != 0 for v in f.eval(0, 0)):
        from .polycore import is_nilpotent_origin

        if is_nilpotent_origin(f.P, f.Q):
            try:
                sectors = blowup.classify_nilpotent_origin(f)
            except PhaseAtlasError as exc:
                diagnostics.append(f"origin sectors unresolved: {exc}")
    inf = compact.infinite_stationary_points(f)
    continuum = inf if isinstance(inf, compact.InfinityContinuum) else None
    inf_points = None if continuum else inf
    if system.kind == "cdk":
        summary = atlas.region_summary(system.a, system.b)
        region = summary.region
        diagnostics.append(f"almost attractors: {', '.join(summary.almost_attractors)}")
    doc = sysio.build_report(
        system.text,
        parameters=system.params,
        equilibria=points or None,
        circle=circle,
        infinity=inf_points,
        infinity_continuum=continuum,
        region=region,
        sectors=sectors,
        diagnostics=diagnostics,
    )
    _emit(args, sysio.format_report(doc, args.format))
    return EXIT_OK


def cmd_stationary(args):
    system = _System(args)
    system.require_polynomial()
    points, circle = _stationary_pieces(system)
    doc = sysio.build_report(
        system.text, parameters=system.params, equilibria=points or None, circle=circle
    )
    _emit(args, sysio.format_report(doc, args.format))
    return EXIT_OK


def cmd_blowup(args):
    system = _System(args)
    f = system.require_polynomial()
    from .polycore import is_nilpotent_origin, newton_weights

    if not is_nilpotent_origin(f.P, f.Q):
        raise PreconditionError("origin is not a nilpotent stationary point")
    w = newton_weights(f.P, f.Q)
    lines = [f"weights: ({w.alpha}, {w.beta})"]
    for direction in blowup.DIRECTIONS:
        chart = blowup.blowup_directional(f, direction, w)
        lines.append(f"chart {direction}:")
        lines.append(f"  xdot = {format_poly(chart.px)}")
        lines.append(f"  ydot = {format_poly(chart.py)}")
        lines.append(
            f"  cancelled factor: {chart.cancelled_coeff} * "
            f"{chart.radial_var}^{chart.cancelled_power}"
        )
        pts, complex_count = blowup.divisor_stationary_points(chart)
        for p in pts:
            if isinstance(p, blowup.DivisorContinuum):
                lines.append("  divisor: continuum of stationary points")
            else:
                lines.append(f"  divisor point u={p.coordinate}: {p.kind}")
        if complex_count:
            lines.append(f"  ({complex_count} complex divisor roots suppressed)")
    try:
        dec = blowup.classify_nilpotent_origin(f)
        kinds = ", ".join(s.kind for s in dec.sectors)
        lines.append(f"sectors: {kinds}")
        lines.append(f"index: {dec.index}; homoclinic: {dec.homoclinic}")
    except PhaseAtlasError as exc:
        lines.append(f"sector assembly unresolved: {exc}")
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_infinity(args):
    system = _System(args)
    f = system.require_polynomial()
    lines = []
    for chart in ("U1", "U2"):
        coeffs = compact.divisor_polynomial(f, chart)
        from .polycore import BiPoly

        poly = BiPoly({(i, 0): c for i, c in enumerate(coeffs) if c})
        lines.append(f"{chart} divisor polynomial: {format_poly(poly).replace('x', 'u')}")
    inf = compact.infinite_stationary_points(f)
    if isinstance(inf, compact.InfinityContinuum):
        lines.append("every point at infinity is stationary")
        lines.append(
            "one outgoing trajectory each: "
            + ("yes" if inf.one_outgoing_trajectory_each() else "no")
        )
    else:
        for p in inf:
            lines.append(f"{p.direction_label} ({p.chart}, u={p.u}): {p.kind}")
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_index(args):
    system = _System(args)
    f = system.field if system.kind == "sprott" else system.require_polynomial()
    value = dynamics.index_on_circle(f, args.center, args.radius, n=args.samples)
    _emit(args, f"{value}\n")
    return EXIT_OK


def cmd_omega(args):
    system = _System(args)
    f = system.field
    if system.kind == "sprott":
        eqs = (f.fixed_point(),)
    else:
        points, _ = _stationary_pieces(system)
        eqs = tuple(p.location_floats() for p in points)
    opts = dynamics.IntegratorOptions(
        max_time=args.max_time,
        equilibria=eqs,
        equilibrium_capture_radius=args.capture_radius,
    )
    res = dynamics.omega_limit(f, args.start, opts)
    lines = []
    if res.kind == "equilibrium":
        lines.append(f"omega limit: equilibrium ({res.point[0]:.12g}, {res.point[1]:.12g})")
    else:
        lines.append(f"omega limit: unresolved ({res.trajectory.termination.kind})")
    if args.dump:
        with open(args.dump, "w", encoding="utf-8") as fh:
            for tau, (x, y) in res.trajectory.samples:
                fh.write(f"{tau:.12g},{x:.12g},{y:.12g}\n")
        lines.append(f"trajectory written to {args.dump}")
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_region(args):
    if args.a is None or args.b is None:
        raise ParseError("region classification needs --a and --b")
    a, b = _rational(args.a), _rational(args.b)
    summary = atlas.region_summary(a, b)
    doc = {
        "region": summary.region,
        "finite_points": summary.finite_points,
        "s1_sectors": summary.s1_sectors,
        "infinity": summary.infinity
        if isinstance(summary.infinity, str)
        else {"x": summary.infinity[0], "y": summary.infinity[1]},
        "homoclinic": summary.homoclinic,
        "almost_attractors": list(summary.almost_attractors),
    }
    if args.format == "json":
        _emit(args, json.dumps(doc, sort_keys=True, indent=2) + "\n")
    else:
        _emit(args, f"region {summary.region}: {doc}\n")
    return EXIT_OK


def cmd_scan(args):
    res = atlas.scan_grid(args.a_range, args.b_range, args.resolution)
    doc = {
        "a_values": [str(v) for v in res.a_values],
        "b_values": [str(v) for v in res.b_values],
        "cells": [list(row) for row in res.cells],
        "boundary_loci": {k: list(v) for k, v in sorted(res.boundary_loci.items())},
        "distinct_regions": sorted(res.distinct_regions()),
    }
    _emit(args, json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return EXIT_OK


def cmd_portrait(args):
    if args.scan_map:
        with open(args.scan_map, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        res = atlas.ScanResult(
            a_values=tuple(Fraction(v) for v in doc["a_values"]),
            b_values=tuple(Fraction(v) for v in doc["b_values"]),
            cells=tuple(tuple(row) for row in doc["cells"]),
            boundary_loci={k: tuple(v) for k, v in doc["boundary_loci"].items()},
        )
        _emit(args, portrait.render_region_map(res))
        return EXIT_OK
    system = _System(args)
    f = system.require_polynomial()
    doc = portrait.render_portrait(f)
    _emit(args, doc.to_svg())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phaseatlas",
        description="Qualitative analysis of planar rational ODE systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_system(p, with_params=True):
        p.add_argument("--system", default="cdk", help="'cdk', 'sprott', or a spec file path")
        if with_params:
            p.add_argument("--a", help="rational value for parameter a (n/d or decimal)")
            p.add_argument("--b", help="rational value for parameter b")
        p.add_argument("-o", "--output", help="write output to this file instead of stdout")
        p.add_argument("--format", choices=("json", "human"), default="human")
        p.add_argument(
            "--stamp",
            action="store_true",
            help="include a wall-clock timestamp (output is bit-stable without it)",
        )

    p = sub.add_parser("analyze", help="full report: stationary points, sectors, infinity, region")
    add_system(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("stationary", help="finite stationary points")
    add_system(p)
    p.set_defaults(func=cmd_stationary)

    p = sub.add_parser("blowup", help="directional blow-up charts at the origin")
    add_system(p)
    p.set_defaults(func=cmd_blowup)

    p = sub.add_parser("infinity", help="stationary points at infinity")
    add_system(p)
    p.set_defaults(func=cmd_infinity)

    p = sub.add_parser("index", help="winding number of the field on a circle")
    add_system(p)
    p.add_argument("--center", type=_point, default=(0.0, 0.0))
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("-n", "--samples", type=int, default=4096)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("omega", help="forward limit set of a trajectory")
    add_system(p)
    p.add_argument("--start", type=_point, required=True)
    p.add_argument("--max-time", type=float, default=1e4)
    p.add_argument("--capture-radius", type=float, default=1e-6)
    p.add_argument("--dump", help="write the trajectory as tau,x,y lines to this file")
    p.set_defaults(func=cmd_omega)

    p = sub.add_parser("region", help="parameter-plane region of (a, b)")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("-o", "--output")
    p.add_argument("--format", choices=("json", "human"), default="json")
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("scan", help="region map over a parameter rectangle")
    p.add_argument("--a-range", type=_range, default=(Fraction(0), Fraction(3)))
    p.add_argument("--b-range", type=_range, default=(Fraction(0), Fraction(3)))
    p.add_argument("--resolution", type=int, default=60)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("portrait", help="phase portrait (or scan map) as SVG")
    add_system(p)
    p.add_argument("--scan-map", help="render a scan JSON document instead of a portrait")
    p.set_defaults(func=cmd_portrait)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DomainError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PhaseAtlasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
