"""Numerical flow machinery: adaptive integration, ω-limits, field index.

Integration always runs on the reparametrised (polynomial) time τ, never on
the original rational-system time; the two differ by the positive factor
recorded in PolyField.time_factor, so trajectories coincide away from its
zero set.

The integrator is an embedded Dormand-Prince 5(4) pair with standard
proportional step control.  Termination is part of the contract: capture
near a known equilibrium (with the field pointing inward), box exit, time
exhaustion, or step underflow — never a silent stop.  For fixed options the
result is bit-deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .desing import PolyField
from .errors import PreconditionError, SingularEvaluationError

# Dormand-Prince 5(4) coefficients (the classic DOPRI5 tableau)
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)

# backstop on the step attempts of one trajectory
_MAX_STEPS = 500_000


@dataclass(frozen=True)
class IntegratorOptions:
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_time: float = 1e4
    box: tuple = (-1e6, 1e6, -1e6, 1e6)
    equilibrium_capture_radius: float = 1e-6
    equilibria: tuple = ()
    fixed_step: float | None = None

    def __post_init__(self):
        # written so that NaN fails every test
        if not (0 < self.rel_tol < math.inf and 0 < self.abs_tol < math.inf):
            raise PreconditionError("tolerances must be finite and positive")
        if not 0 < self.max_time < math.inf:
            raise PreconditionError("max_time must be finite and positive")
        if not self.equilibrium_capture_radius >= 0:
            raise PreconditionError("equilibrium capture radius must be nonnegative")


@dataclass(frozen=True)
class Termination:
    kind: str  # reached_equilibrium | left_box | time_exhausted | step_underflow
    which: tuple | None = None


@dataclass(frozen=True)
class Trajectory:
    samples: tuple  # ((tau, (x, y)), ...) with tau strictly increasing
    termination: Termination
    direction: str = "forward"

    @property
    def last_point(self) -> tuple[float, float]:
        return self.samples[-1][1]


def _as_rhs(f):
    if isinstance(f, PolyField):
        return f.compiled()
    if callable(f):
        return f
    raise PreconditionError(f"cannot evaluate object of type {type(f).__name__} as a field")


def integrate(f, z0, opts: IntegratorOptions | None = None, direction: str = "forward") -> Trajectory:
    """Integrate the field from z0 until a termination condition fires."""
    if opts is None:
        opts = IntegratorOptions()
    if direction not in ("forward", "backward"):
        raise PreconditionError("direction must be 'forward' or 'backward'")
    base = _as_rhs(f)
    sign = 1.0 if direction == "forward" else -1.0
    xmin, xmax, ymin, ymax = opts.box
    caps = [(float(ex), float(ey)) for ex, ey in opts.equilibria]
    crad = opts.equilibrium_capture_radius
    rel_tol, abs_tol, max_time, fixed_step = opts.rel_tol, opts.abs_tol, opts.max_time, opts.fixed_step

    def capture_at(x, y):
        for ex, ey in caps:
            if math.hypot(x - ex, y - ey) <= crad:
                u, v = base(x, y)
                inward = sign * (u * (ex - x) + v * (ey - y))
                if inward > 0 or math.hypot(u, v) <= abs_tol:
                    return (ex, ey)
        return None

    x, y = float(z0[0]), float(z0[1])
    tau = 0.0
    samples = [(tau, (x, y))]

    hit = capture_at(x, y)
    if hit is not None:
        return Trajectory(tuple(samples), Termination("reached_equilibrium", hit), direction)
    if not (xmin <= x <= xmax and ymin <= y <= ymax):
        return Trajectory(tuple(samples), Termination("left_box"), direction)

    speed = math.hypot(*base(x, y))
    if fixed_step is not None:
        h = fixed_step
    else:
        h = min(1.0, 0.01 * (1.0 + math.hypot(x, y)) / (speed + 1e-30))

    # the tableau written out: each sum keeps a loop's order, start (0.0 for a stage, 0 for a
    # solution) and zero weights, so zero signs, NaN and inf come out as from that loop
    (a10,), (a20, a21), (a30, a31, a32), (a40, a41, a42, a43), (a50, a51, a52, a53, a54), (
        a60, a61, a62, a63, a64, a65) = _A[1:]
    b0, b1, b2, b3, b4, b5, b6 = _B5
    e0, e1, e2, e3, e4, e5, e6 = _B4
    for _ in range(_MAX_STEPS):
        if tau >= max_time:
            return Trajectory(tuple(samples), Termination("time_exhausted"), direction)
        h = min(h, max_time - tau)
        if h < 1e-14 * max(1.0, abs(tau)):
            return Trajectory(tuple(samples), Termination("step_underflow"), direction)

        u, v = base(x, y)
        k0u, k0v = sign * u, sign * v
        u, v = base(x + h * (0.0 + a10 * k0u), y + h * (0.0 + a10 * k0v))
        k1u, k1v = sign * u, sign * v
        u, v = base(x + h * (0.0 + a20 * k0u + a21 * k1u), y + h * (0.0 + a20 * k0v + a21 * k1v))
        k2u, k2v = sign * u, sign * v
        u, v = base(x + h * (0.0 + a30 * k0u + a31 * k1u + a32 * k2u),
                    y + h * (0.0 + a30 * k0v + a31 * k1v + a32 * k2v))
        k3u, k3v = sign * u, sign * v
        u, v = base(x + h * (0.0 + a40 * k0u + a41 * k1u + a42 * k2u + a43 * k3u),
                    y + h * (0.0 + a40 * k0v + a41 * k1v + a42 * k2v + a43 * k3v))
        k4u, k4v = sign * u, sign * v
        u, v = base(x + h * (0.0 + a50 * k0u + a51 * k1u + a52 * k2u + a53 * k3u + a54 * k4u),
                    y + h * (0.0 + a50 * k0v + a51 * k1v + a52 * k2v + a53 * k3v + a54 * k4v))
        k5u, k5v = sign * u, sign * v
        u, v = base(
            x + h * (0.0 + a60 * k0u + a61 * k1u + a62 * k2u + a63 * k3u + a64 * k4u + a65 * k5u),
            y + h * (0.0 + a60 * k0v + a61 * k1v + a62 * k2v + a63 * k3v + a64 * k4v + a65 * k5v))
        k6u, k6v = sign * u, sign * v

        x5 = x + h * (0 + b0 * k0u + b1 * k1u + b2 * k2u + b3 * k3u + b4 * k4u + b5 * k5u + b6 * k6u)
        y5 = y + h * (0 + b0 * k0v + b1 * k1v + b2 * k2v + b3 * k3v + b4 * k4v + b5 * k5v + b6 * k6v)
        x4 = x + h * (0 + e0 * k0u + e1 * k1u + e2 * k2u + e3 * k3u + e4 * k4u + e5 * k5u + e6 * k6u)
        y4 = y + h * (0 + e0 * k0v + e1 * k1v + e2 * k2v + e3 * k3v + e4 * k4v + e5 * k5v + e6 * k6v)

        if fixed_step is not None:
            accept, hnew = True, h
        else:
            sx = abs_tol + rel_tol * max(abs(x), abs(x5))
            sy = abs_tol + rel_tol * max(abs(y), abs(y5))
            err = math.sqrt((((x5 - x4) / sx) ** 2 + ((y5 - y4) / sy) ** 2) / 2.0)
            accept = err <= 1.0
            factor = 0.9 * (err + 1e-300) ** -0.2
            hnew = h * min(5.0, max(0.2, factor))

        if accept:
            tau += h
            x, y = x5, y5
            samples.append((tau, (x, y)))
            if not (math.isfinite(x) and math.isfinite(y)):
                return Trajectory(tuple(samples), Termination("step_underflow"), direction)
            hit = capture_at(x, y)
            if hit is not None:
                return Trajectory(
                    tuple(samples), Termination("reached_equilibrium", hit), direction
                )
            if not (xmin <= x <= xmax and ymin <= y <= ymax):
                return Trajectory(tuple(samples), Termination("left_box"), direction)
        h = hnew

    return Trajectory(tuple(samples), Termination("time_exhausted"), direction)


@dataclass(frozen=True)
class OmegaResult:
    kind: str  # "equilibrium" | "unresolved"
    point: tuple | None
    trajectory: Trajectory


def omega_limit(f, z0, opts: IntegratorOptions | None = None) -> OmegaResult:
    """Forward limit set: an equilibrium if captured, unresolved otherwise.

    The systems this package analyses have no limit cycles, so no cycle
    detection is attempted; slow convergence lands in "unresolved".
    """
    traj = integrate(f, z0, opts, "forward")
    if traj.termination.kind == "reached_equilibrium":
        return OmegaResult("equilibrium", traj.termination.which, traj)
    return OmegaResult("unresolved", None, traj)


def index_on_circle(f, center, radius: float, n: int = 4096) -> int:
    """Winding number of the field direction around a circle.

    Samples the field at n points and adds up the direction changes between
    neighbours, each wrapped into [-π, π].  Wrapped changes always add up to
    a multiple of 2π, so the sum cannot expose an undersampled circle;
    instead each step that turns the field by π/2 or more is bisected until
    its parts turn less.  Rejected when an equilibrium sits on a sample or a
    step stays unresolved down to the float resolution of the angle.
    """
    rhs = _as_rhs(f)
    cx, cy = float(center[0]), float(center[1])
    if not 0 < radius < math.inf:
        raise PreconditionError("radius must be finite and positive")
    if n < 3:
        # the samples are the vertices of a polygon that must enclose the centre
        raise PreconditionError("sample count must be at least 3")

    def field_at(theta):
        return rhs(cx + radius * math.cos(theta), cy + radius * math.sin(theta))

    thetas = [2.0 * math.pi * i / n for i in range(n)] + [2.0 * math.pi]
    values = [field_at(theta) for theta in thetas[:n]]
    norms = [math.hypot(u, v) for u, v in values]
    if max(norms) == 0.0 or min(norms) <= 1e-12 * max(norms):
        raise PreconditionError("field vanishes on the circle (equilibrium on circle?)")
    angles = [math.atan2(v, u) for u, v in values]
    angles.append(angles[0])

    def turn(t0, a0, t1, a1):
        d = math.remainder(a1 - a0, 2.0 * math.pi)
        if abs(d) < math.pi / 2:
            return d
        tm = (t0 + t1) / 2
        # a NaN turn would bisect every part of its step
        if not (t0 < tm < t1 and math.isfinite(d)):
            raise PreconditionError(
                f"field direction turns by {abs(d):.3f} rad at angle {t0:.9g} of the circle "
                "however finely it is sampled (equilibrium on the circle?)"
            )
        um, vm = field_at(tm)
        am = math.atan2(vm, um)
        return turn(t0, a0, tm, am) + turn(tm, am, t1, a1)

    total = sum(turn(thetas[i], angles[i], thetas[i + 1], angles[i + 1]) for i in range(n))
    return round(total / (2.0 * math.pi))


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
