"""Per-layer spans and counters, recorded by wrapping phaseatlas functions from outside.

`Tracer.install()` replaces each traced function in every `phaseatlas` module
that binds it (a name imported with `from .x import f` is a separate binding),
so every call path is counted.  Spans nest: a span's self time is its
duration minus the time of the traced spans it contains.  `uninstall()`
restores the original bindings.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# (module, attribute) of each traced function or method; the span is named module.attribute
SPANS = (
    ("polycore", "poly_gcd"),
    ("desing", "cdk_poly_field"),
    ("desing", "desingularize"),
    ("equilibria", "cdk_stationary_points"),
    ("equilibria", "find_stationary"),
    ("blowup", "classify_nilpotent_origin"),
    ("compact", "infinite_stationary_points"),
    ("atlas", "region_summary"),
    ("atlas", "classify_region"),
    ("atlas", "scan_grid"),
    ("sysio", "parse_system"),
    ("sysio", "build_report"),
    ("sysio", "format_report"),
    ("dynamics", "integrate"),
    ("portrait", "render_portrait"),
    ("portrait", "VectorDocument.to_svg"),
    ("portrait", "render_region_map"),
    ("cli", "main"),
)

TERMINATIONS = ("reached_equilibrium", "left_box", "time_exhausted", "step_underflow")

# The per-layer metrics a traced run prints on its result line (BENCHMARK.json per_layer).
PER_LAYER = (
    "polycore.poly_gcd.calls",
    "polycore.poly_gcd.total_s",
    "desing.cdk_poly_field.calls",
    "desing.cdk_poly_field.total_s",
    "desing.desingularize.calls",
    "desing.desingularize.total_s",
    "desing.desingularize.self_s",
    "equilibria.cdk_stationary_points.calls",
    "equilibria.cdk_stationary_points.total_s",
    "equilibria.find_stationary.calls",
    "equilibria.find_stationary.total_s",
    "equilibria.find_stationary.points",
    "equilibria.find_stationary.continuum",
    "equilibria.find_stationary.ambiguity",
    "blowup.classify_nilpotent_origin.calls",
    "blowup.classify_nilpotent_origin.total_s",
    "blowup.classify_nilpotent_origin.unresolved",
    "compact.infinite_stationary_points.calls",
    "compact.infinite_stationary_points.total_s",
    "atlas.region_summary.calls",
    "atlas.region_summary.total_s",
    "atlas.region_summary.self_s",
    "atlas.classify_region.calls",
    "atlas.classify_region.total_s",
    "atlas.scan_grid.total_s",
    "sysio.parse_system.total_s",
    "sysio.build_report.total_s",
    "sysio.format_report.total_s",
    "dynamics.integrate.calls",
    "dynamics.integrate.total_s",
    "dynamics.accepted_steps",
    "dynamics.field_evals",
    "dynamics.evals_per_accepted_step",
    "dynamics.steps_per_s",
) + tuple(f"dynamics.termination.{kind}" for kind in TERMINATIONS) + (
    "portrait.render_portrait.total_s",
    "portrait.render_portrait.self_s",
    "portrait.to_svg.total_s",
    "portrait.svg_bytes",
    "portrait.render_region_map.total_s",
    "cli.main.self_s",
    "import.phaseatlas_s",
    "import.numpy_s",
    "trace.untraced_items_per_s",
    "trace.traced_items_per_s",
    "trace.overhead_ratio",
)


def _resolve(module, attr):
    owner = sys.modules[f"phaseatlas.{module}"]
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def span_name(module, attr):
    return f"{module}.{attr.split('.')[-1]}"


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.total_ns = Counter()
        self.self_ns = Counter()
        self.counts = Counter()
        self._stack = []  # child-time accumulators of the open spans
        self._depth = Counter()  # open spans per name, so recursion is not counted twice
        self._bindings = []  # (owner, attribute, original) to restore

    # -- recording ---------------------------------------------------------------------

    def _wrap(self, name, fn, on_result=None, on_error=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children = [0]
            tracer._stack.append(children)
            tracer._depth[name] += 1
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                dt = time.perf_counter_ns() - t0
                tracer._stack.pop()
                tracer._depth[name] -= 1
                if tracer._stack:
                    tracer._stack[-1][0] += dt
                tracer.calls[name] += 1
                tracer.self_ns[name] += dt - children[0]
                if tracer._depth[name] == 0:
                    tracer.total_ns[name] += dt
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__bench_original__ = fn
        return wrapper

    def _on_find_stationary(self, result):
        from phaseatlas.equilibria import Continuum

        if isinstance(result, Continuum):
            self.counts["equilibria.find_stationary.continuum"] += 1
        else:
            self.counts["equilibria.find_stationary.points"] += len(result)

    def _on_find_stationary_error(self, exc):
        from phaseatlas.errors import AmbiguityError

        if isinstance(exc, AmbiguityError):
            self.counts["equilibria.find_stationary.ambiguity"] += 1

    def _on_classify_error(self, exc):
        from phaseatlas.errors import UnresolvedError

        if isinstance(exc, UnresolvedError):
            self.counts["blowup.classify_nilpotent_origin.unresolved"] += 1

    def _on_integrate(self, traj):
        self.counts["dynamics.accepted_steps"] += len(traj.samples) - 1
        self.counts[f"dynamics.termination.{traj.termination.kind}"] += 1

    def _on_svg(self, text):
        self.counts["portrait.svg_bytes"] += len(text.encode("utf-8"))

    def _counted_compiled(self, compiled):
        """PolyField.compiled whose closures count evaluations made by the integrator."""
        tracer = self

        @functools.wraps(compiled)
        def wrapper(field):
            rhs = compiled(field)
            if not tracer._depth["dynamics.integrate"]:
                return rhs
            counts = tracer.counts

            def counted(x, y):
                counts["dynamics.field_evals"] += 1
                return rhs(x, y)

            return counted

        wrapper.__bench_original__ = compiled
        return wrapper

    # -- installation ------------------------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        """Rebind every phaseatlas module attribute that is `original`."""
        for modname, module in list(sys.modules.items()):
            if modname != "phaseatlas" and not modname.startswith("phaseatlas."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._bindings.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self):
        import phaseatlas.cli  # noqa: F401  (imports every traced module)

        hooks = {
            "equilibria.find_stationary": (self._on_find_stationary, self._on_find_stationary_error),
            "blowup.classify_nilpotent_origin": (None, self._on_classify_error),
            "dynamics.integrate": (self._on_integrate, None),
            "portrait.to_svg": (self._on_svg, None),
        }
        for module, attr in SPANS:
            owner, name = _resolve(module, attr)
            original = getattr(owner, name)
            key = span_name(module, attr)
            wrapper = self._wrap(key, original, *hooks.get(key, (None, None)))
            if isinstance(owner, type):
                self._bindings.append((owner, name, original))
                setattr(owner, name, wrapper)
            else:
                self._replace_everywhere(original, wrapper)
        from phaseatlas.desing import PolyField

        self._bindings.append((PolyField, "compiled", PolyField.compiled))
        PolyField.compiled = self._counted_compiled(PolyField.compiled)
        return self

    def uninstall(self):
        while self._bindings:
            owner, attr, original = self._bindings.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -----------------------------------------------------------------------

    def metrics(self, passes: int) -> dict:
        """Every per-layer value, per pass over the item list: (value, unit) by name."""
        out = {}
        for module, attr in SPANS:
            key = span_name(module, attr)
            out[f"{key}.calls"] = (self.calls[key] / passes, "count")
            out[f"{key}.total_s"] = (self.total_ns[key] / 1e9 / passes, "s")
            out[f"{key}.self_s"] = (self.self_ns[key] / 1e9 / passes, "s")
        names = [
            "equilibria.find_stationary.points",
            "equilibria.find_stationary.continuum",
            "equilibria.find_stationary.ambiguity",
            "blowup.classify_nilpotent_origin.unresolved",
            "dynamics.accepted_steps",
            "dynamics.field_evals",
            "portrait.svg_bytes",
        ] + [f"dynamics.termination.{kind}" for kind in TERMINATIONS]
        for name in names:
            out[name] = (self.counts[name] / passes, "count" if "bytes" not in name else "bytes")
        steps = self.counts["dynamics.accepted_steps"]
        integrate_s = self.total_ns["dynamics.integrate"] / 1e9
        out["dynamics.evals_per_accepted_step"] = (
            self.counts["dynamics.field_evals"] / steps if steps else 0.0, "count")
        out["dynamics.steps_per_s"] = (steps / integrate_s if integrate_s else 0.0, "1/s")
        return out
