"""Reference code that only the tests use: independent checks of the package's answers."""

import math
from dataclasses import dataclass, replace

from phaseatlas.dynamics import IntegratorOptions
from phaseatlas.errors import PreconditionError, SingularEvaluationError


def slope_limit_check(fixture, y0: float, x_eval: float) -> float:
    """Trajectory slope dy/dx of the logarithmic system at (x_eval, y0).

    Equals (½ln x² + x) / (½ln x² − y0); the limit for x → 0 is 1 for
    every y0, which is how the streamlines cross the y-axis.
    """
    if x_eval == 0:
        raise PreconditionError("x_eval must be nonzero")
    half_log = math.log(x_eval * x_eval) / 2.0
    denom = half_log - y0
    if denom == 0.0:
        raise SingularEvaluationError("evaluation point lies on the x-nullcline")
    return (half_log + x_eval) / denom


def default_cdk_options(points, **overrides) -> IntegratorOptions:
    """Options preloaded with capture targets from a stationary-point list."""
    eqs = tuple(p.location_floats() for p in points)
    base = IntegratorOptions(equilibria=eqs)
    return replace(base, **overrides) if overrides else base


@dataclass(frozen=True)
class InfinityMarker:
    """Returned by the inverse map on the boundary circle."""

    direction: tuple


def disc_coords_inverse(q):
    """Inverse of disc_coords; boundary points map to an InfinityMarker."""
    X, Y = float(q[0]), float(q[1])
    rho2 = X * X + Y * Y
    if rho2 >= 1.0:
        norm = math.sqrt(rho2)
        return InfinityMarker(direction=(X / norm, Y / norm))
    r = math.sqrt(1.0 - rho2)
    return (X / r, Y / r)
