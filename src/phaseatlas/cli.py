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
exactly from their digits.  A value may start with a minus sign after a
space (--a -1/2, --start -0.1,0.9).  Exit codes: 0 success, 2 usage or
parse error, 3 precondition or domain violation, 4 internal inconsistency.
Output is deterministic.

main() parses with one parser of every command (COMMANDS lists each one's
arguments), built once per process: parse_args and error leave a parser as it
was, and help is wrapped to COLUMNS when it is printed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import atlas, blowup, compact, dynamics, equilibria, portrait, sysio
from .desing import cdk_poly_field, desingularize, sprott_field
from .errors import (
    DomainError,
    InternalInconsistencyError,
    ParseError,
    PhaseAtlasError,
    PreconditionError,
)
from .polycore import BiPoly, format_poly

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
    try:
        x, y = map(float, text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'x,y', got {text!r}") from None
    return (x, y)


def _range(text: str) -> tuple[Fraction, Fraction]:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'lo:hi', got {text!r}")
    try:
        return (_rational(parts[0]), _rational(parts[1]))
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


class _System:
    """Resolved system source: field, parameters, description."""

    def __init__(self, args):
        self.kind = args.system
        if args.system == "cdk":
            if args.a is None or args.b is None:
                raise ParseError("the cdk fixture needs both --a and --b")
            a, b = _rational(args.a), _rational(args.b)
            self.field = cdk_poly_field(a, b)
            self.text = "cdk"
            self.params = (("a", a), ("b", b))
        elif args.system == "sprott":
            self.field = sprott_field()
            self.text = "sprott"
            self.params = ()
        else:
            try:
                with open(args.system, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except UnicodeDecodeError as exc:
                raise ParseError(f"system file {args.system} is not UTF-8 text: {exc}") from None
            spec = sysio.parse_system(text)
            self.field = desingularize(spec.field)
            self.text = spec.canonical_text().strip()
            self.params = spec.parameters

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


def _stationary_pieces(analysis):
    """(points, circle) of a field's analysis; a continuum is a precondition error."""
    if isinstance(analysis.finite, equilibria.Continuum):
        raise PreconditionError("continuum of stationary points detected; no point list to report")
    return analysis.finite


def cmd_analyze(args):
    system = _System(args)
    analysis = atlas.FieldAnalysis(system.require_polynomial())
    diagnostics = ["integration time is the reparametrised polynomial time"]
    if args.stamp:
        import datetime

        diagnostics.append(f"generated {datetime.datetime.now().isoformat()}")
    region = None
    if system.kind == "cdk":
        # reads the whole record, raising its first error, then checks it against the region table
        summary = atlas.cdk_field_summary(analysis)
        region = summary.region
        diagnostics.append(f"almost attractors: {', '.join(summary.content.almost_attractors)}")
    points, circle = _stationary_pieces(analysis)
    try:
        sectors = analysis.sectors
    except PhaseAtlasError as exc:  # a cdk error has already left cdk_field_summary
        sectors = None
        diagnostics.append(f"origin sectors unresolved: {exc}")
    doc = sysio.build_report(
        system.text,
        parameters=system.params,
        equilibria=points or None,
        circle=circle,
        infinity=analysis.infinity,
        region=region,
        sectors=sectors,
        diagnostics=diagnostics,
    )
    _emit(args, sysio.format_report(doc, args.format))
    return EXIT_OK


def cmd_stationary(args):
    system = _System(args)
    points, circle = _stationary_pieces(atlas.FieldAnalysis(system.require_polynomial()))
    doc = sysio.build_report(
        system.text, parameters=system.params, equilibria=points or None, circle=circle
    )
    _emit(args, sysio.format_report(doc, args.format))
    return EXIT_OK


def cmd_blowup(args):
    system = _System(args)
    w, charts, divisor = blowup.blowup_origin(system.require_polynomial())
    lines = [f"weights: ({w.alpha}, {w.beta})"]
    for direction, chart in charts.items():
        lines.append(f"chart {direction}:")
        lines.append(f"  xdot = {format_poly(chart.px)}")
        lines.append(f"  ydot = {format_poly(chart.py)}")
        lines.append(
            f"  cancelled factor: {chart.cancelled_coeff} * "
            f"{chart.radial_var}^{chart.cancelled_power}"
        )
        pts, complex_count = divisor[direction]
        for p in pts:
            if isinstance(p, blowup.DivisorContinuum):
                lines.append("  divisor: continuum of stationary points")
            else:
                lines.append(f"  divisor point u={p.coordinate}: {p.kind}")
        if complex_count:
            lines.append(f"  ({complex_count} complex divisor roots suppressed)")
        if direction[1] == "y":
            lines.append("  divisor points off u=0: those of the +x and -x charts")
    try:
        dec = blowup.assemble_sectors(w, charts, divisor)
        kinds = ", ".join(s.kind for s in dec.sectors)
        lines.append(f"sectors: {kinds}")
        lines.append(f"index: {dec.index}; homoclinic: {dec.homoclinic}")
    except PhaseAtlasError as exc:
        lines.append(f"sector assembly unresolved: {exc}")
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_infinity(args):
    system = _System(args)
    charts = compact.PoincareCharts(system.require_polynomial())
    lines = []
    for chart in ("U1", "U2"):
        coeffs = charts.divisor_polynomial(chart)
        poly = BiPoly({(i, 0): c for i, c in enumerate(coeffs) if c})
        lines.append(f"{chart} divisor polynomial: {format_poly(poly).replace('x', 'u')}")
    inf = compact.points_at_infinity(charts)
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
    value = dynamics.index_on_circle(system.field, args.center, args.radius, n=args.samples)
    _emit(args, f"{value}\n")
    return EXIT_OK


def cmd_omega(args):
    system = _System(args)
    f = system.field
    if system.kind == "sprott":
        eqs = (f.fixed_point(),)
    else:
        points, _ = _stationary_pieces(atlas.FieldAnalysis(f))
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
    a, b = _rational(args.a), _rational(args.b)
    summary = atlas.region_summary(a, b)
    row = summary.content
    if row.s1_case == "circle":
        finite = {"circle": "stationary_circle"}
    else:
        finite = {"s1": f"nilpotent (case {row.s1_case})", "s2": row.s2_kind}
        if row.s34_kind is not None:
            finite["s3"] = finite["s4"] = row.s34_kind
    doc = {
        "region": summary.region,
        "finite_points": finite,
        "s1_sectors": row.s1_case,
        "infinity": row.infinity if isinstance(row.infinity, str) else {"x": row.infinity[0], "y": row.infinity[1]},
        "homoclinic": row.homoclinic,
        "almost_attractors": list(row.almost_attractors),
    }
    if args.format == "json":
        _emit(args, sysio.indented_json(doc) + "\n")
        return EXIT_OK
    lines = [f"region: {summary.region}", "finite stationary points:"]
    lines += [f"  {label}: {kind}" for label, kind in finite.items()]
    lines.append(f"s1 sectors: {row.s1_case}")
    if isinstance(row.infinity, str):
        lines.append("infinity: every point stationary")
    else:
        lines += ["infinity:", f"  x: {row.infinity[0]}", f"  y: {row.infinity[1]}"]
    lines.append(f"homoclinic: {row.homoclinic}")
    lines.append(f"almost attractors: {', '.join(row.almost_attractors)}")
    _emit(args, "\n".join(lines) + "\n")
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
    _emit(args, sysio.indented_json(doc) + "\n")
    return EXIT_OK


def _read_scan_map(path) -> atlas.ScanResult:
    """The ScanResult a `scan` JSON document describes; ParseError if it is malformed."""
    with open(path, "rb") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise ParseError(f"scan map {path} is not JSON: {exc}")
    try:
        lists = (doc["a_values"], doc["b_values"], doc["cells"], *doc["cells"], *doc["boundary_loci"].values())
        if not all(isinstance(v, list) for v in lists):  # a string or an object would be read item by item
            raise ParseError("a_values, b_values, cells, each row and each boundary locus must be lists")
        res = atlas.ScanResult(
            a_values=tuple(_rational(v) for v in doc["a_values"]),
            b_values=tuple(_rational(v) for v in doc["b_values"]),
            cells=tuple(tuple(row) for row in doc["cells"]),
            boundary_loci={k: tuple(v) for k, v in doc["boundary_loci"].items()},
        )
        unknown = res.distinct_regions() - set(atlas.REGION_IDS)
    except KeyError as exc:
        raise ParseError(f"scan map {path} has no {exc} entry")
    except (ParseError, TypeError, AttributeError) as exc:
        raise ParseError(f"scan map {path}: {exc}")
    if unknown:
        raise ParseError(f"scan map {path} has unknown region labels {sorted(unknown, key=repr)}")
    n_a, n_b = len(res.a_values), len(res.b_values)
    if len(res.cells) != n_b or any(len(row) != n_a for row in res.cells):
        raise ParseError(f"scan map {path}: cells are not {n_b} by {n_a}")
    for key in ("a_values", "b_values"):  # the map's cell widths are the first step of each axis
        values = getattr(res, key)
        if any(u >= v for u, v in zip(values, values[1:])):
            raise ParseError(f"scan map {path}: {key} are not strictly ascending")
    return res


def cmd_portrait(args):
    if args.scan_map:
        _emit(args, portrait.render_region_map(_read_scan_map(args.scan_map)))
        return EXIT_OK
    system = _System(args)
    f = system.require_polynomial()
    doc = portrait.render_portrait(f)
    _emit(args, doc.to_svg())
    return EXIT_OK


_SYSTEM = (
    ("--system", dict(default="cdk", help="'cdk', 'sprott', or a spec file path")),
    ("--a", dict(help="rational value for parameter a (n/d or decimal)")),
    ("--b", dict(help="rational value for parameter b")),
    ("-o --output", dict(help="write output to this file instead of stdout")),
)
_FORMAT = ("--format", dict(choices=("json", "human"), default="human"))

# name -> (handler, help, *arguments as ("flags", add_argument keywords)), in --help order
COMMANDS = {
    "analyze": (
        cmd_analyze,
        "full report: stationary points, sectors, infinity, region",
        *_SYSTEM,
        _FORMAT,
        ("--stamp", dict(action="store_true", help="include a wall-clock timestamp (output is bit-stable without it)")),
    ),
    "stationary": (cmd_stationary, "finite stationary points", *_SYSTEM, _FORMAT),
    "blowup": (cmd_blowup, "directional blow-up charts at the origin", *_SYSTEM),
    "infinity": (cmd_infinity, "stationary points at infinity", *_SYSTEM),
    "index": (
        cmd_index,
        "winding number of the field on a circle",
        *_SYSTEM,
        ("--center", dict(type=_point, default=(0.0, 0.0))),
        ("--radius", dict(type=float, required=True)),
        ("-n --samples", dict(type=int, default=4096)),
    ),
    "omega": (
        cmd_omega,
        "forward limit set of a trajectory",
        *_SYSTEM,
        ("--start", dict(type=_point, required=True)),
        ("--max-time", dict(type=float, default=1e4)),
        ("--capture-radius", dict(type=float, default=1e-6)),
        ("--dump", dict(help="write the trajectory as tau,x,y lines to this file")),
    ),
    "region": (
        cmd_region,
        "parameter-plane region of (a, b)",
        ("--a", dict(required=True)),
        ("--b", dict(required=True)),
        ("-o --output", {}),
        ("--format", dict(choices=("json", "human"), default="json")),
    ),
    "scan": (
        cmd_scan,
        "region map over a parameter rectangle",
        ("--a-range", dict(type=_range, default=(Fraction(0), Fraction(3)))),
        ("--b-range", dict(type=_range, default=(Fraction(0), Fraction(3)))),
        ("--resolution", dict(type=int, default=60)),
        ("-o --output", {}),
    ),
    "portrait": (
        cmd_portrait,
        "phase portrait (or scan map) as SVG",
        *_SYSTEM,
        ("--scan-map", dict(help="render a scan JSON document instead of a portrait")),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command in COMMANDS."""
    parser = argparse.ArgumentParser(
        prog="phaseatlas",
        description="Qualitative analysis of planar rational ODE systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, *arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flags, keywords in arguments:
            p.add_argument(*flags.split(), **keywords)
        p.set_defaults(func=handler)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser, once per process."""
    return build_parser()


def _attach_values(argv):
    """Write `--a -1/2` as `--a=-1/2`; argparse reads a value that starts with '-' as a flag.

    A value-taking flag of the named command is joined to a following argument
    that starts with '-' and is not one of that command's flags (`--b=1` is one).
    """
    arguments = COMMANDS[argv[0]][2:] if argv and argv[0] in COMMANDS else ()
    flags = {"-h", "--help"} | {flag for names, _ in arguments for flag in names.split()}
    takes_value = {flag for names, keywords in arguments if "action" not in keywords for flag in names.split()}
    for k in range(len(argv) - 1, 1, -1):
        if argv[k - 1] in takes_value and argv[k].startswith("-") and argv[k].split("=")[0] not in flags:
            argv[k - 1 : k + 1] = [f"{argv[k - 1]}={argv[k]}"]
    return argv


def main(argv=None) -> int:
    argv = _attach_values(sys.argv[1:] if argv is None else list(argv))
    try:
        args = _parser().parse_args(argv)
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
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PhaseAtlasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
