"""Numerical flow machinery: adaptive integration, ω-limits, field index.

Integration always runs on the reparametrised (polynomial) time τ, never on
the original rational-system time; the two differ by the positive factor
recorded in PolyField.time_factor, so trajectories coincide away from its
zero set.

The integrator is an embedded Dormand-Prince 5(4) pair with standard
proportional step control.  Termination is part of the contract: capture
near a known equilibrium (with the field pointing inward), box exit, time
exhaustion, or step underflow — never a silent stop.  A start point that is
not finite is rejected before the loop.  For fixed options the result is
bit-deterministic.

The step loop is one source template, `_LOOP`: for an evaluator built by
`desing.float_field` (`PolyField.compiled()`, and the portrait worker's) it is
bound once, on the evaluator's first `integrate`, with the field's powers and
term sums written into each stage, and kept on the evaluator; any other
callable gets one loop that calls it at each stage.
The sums name the coefficients, so fields of one term shape share one
compiled loop (`desing.bind`), each reading its own coefficients.  Both give
a tableau loop's floats in its order, so trajectories agree bit for bit.
First same as last: the fifth-order solution is the stage-6 point (px, py),
so it is not summed again and k6 is the next k0.  The b5 weights are the
stage-6 ones and a zero b6; a sum started at +0.0 is never -0.0, so
b6 * k6 = ±0.0 changes no bit of it while k6 is finite.  A stage value that
is not finite leaves x5 or y5 (stages 0-5) or a b4 sum (stage 6) not finite,
so the error estimate is inf or NaN and the step is rejected, with or
without that term: every accepted step, and so every sample, is finite, and
a rejected step keeps its k0.
"""

from __future__ import annotations

import functools
import math
import re
import textwrap
from dataclasses import dataclass

from .desing import PolyField, bind, field_source
from .errors import PreconditionError

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

# largest sample count of index_on_circle: its lists are built before any field value
MAX_SAMPLES = 2**20


@dataclass(frozen=True)
class IntegratorOptions:
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_time: float = 1e4
    box: tuple = (-1e6, 1e6, -1e6, 1e6)
    equilibrium_capture_radius: float = 1e-6
    equilibria: tuple = ()

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


def _as_rhs(f):
    if isinstance(f, PolyField):
        return f.compiled()
    if callable(f):
        return f
    raise PreconditionError(f"cannot evaluate object of type {type(f).__name__} as a field")


def integrate(f, z0, opts: IntegratorOptions | None = None, direction: str = "forward") -> Trajectory:
    """Integrate the field from z0 until a termination condition fires."""
    opts = IntegratorOptions() if opts is None else opts
    if direction not in ("forward", "backward"):
        raise PreconditionError("direction must be 'forward' or 'backward'")
    if not (math.isfinite(z0[0]) and math.isfinite(z0[1])):
        raise PreconditionError(f"start point ({z0[0]}, {z0[1]}) is not finite")
    base = _as_rhs(f)
    tabs = getattr(base, "float_terms", None)  # set by desing.float_field: inline the field
    if tabs is not None and not hasattr(base, "dopri5"):
        base.dopri5 = _build_loop(field_source(tabs, "px", "py", ("u", "v")), tabs)
    return (_calling_loop() if tabs is None else base.dopri5)(base, z0, opts, direction)


@functools.cache
def _calling_loop():
    return _build_loop("u, v = base(px, py)\n", ())


def _build_loop(field, tabs):
    """Bind _LOOP with the tableau's stage sums in {stages} and the fourth-order ones in {b4u} and
    {b4v}, `field` at each FIELD line and the coefficients of the tables `tabs` that `field` sums.

    Each sum keeps a loop's order, start (0.0 for a stage, 0 for a solution) and zero weights,
    so zero signs, NaN and inf come out as from that loop.  The fifth-order solution is the
    stage-6 point, which is that loop's on every step it accepts, as the module docstring says.
    """
    def weighted(start, weights, k):  # start + w0 * k0{k} + w1 * k1{k} + ...
        return start + "".join(f" + {w!r} * k{j}{k}" for j, w in enumerate(weights))
    stage = "        px, py = x + h * ({}), y + h * ({})\n        FIELD\n        k{}u, k{}v = sign * u, sign * v\n"
    source = _LOOP.format(
        stages="".join(stage.format(weighted("0.0", _A[i], "u"), weighted("0.0", _A[i], "v"), i, i)
                       for i in range(1, 7)),
        b4u=weighted("0", _B4, "u"), b4v=weighted("0", _B4, "v"))
    source = re.sub(r"^( *)FIELD\n", lambda m: textwrap.indent(field, m[1]), source, flags=re.M)
    return bind(source, "dopri5", tabs, _LOOP_GLOBALS)


_LOOP_GLOBALS = dict(vars(math), Trajectory=Trajectory, Termination=Termination,
                     PreconditionError=PreconditionError, _MAX_STEPS=_MAX_STEPS)

# The integrator; each FIELD line sets u, v to the unsigned field at (px, py), see _build_loop
_LOOP = """\
def dopri5(base, z0, opts, direction):
    sign = 1.0 if direction == "forward" else -1.0
    xmin, xmax, ymin, ymax = opts.box
    caps = [(float(ex), float(ey)) for ex, ey in opts.equilibria]
    crad = opts.equilibrium_capture_radius
    rel_tol, abs_tol, max_time = opts.rel_tol, opts.abs_tol, opts.max_time

    def capture_at(x, y):
        for ex, ey in caps:
            dx, dy = x - ex, y - ey
            # |dx| > crad or |dy| > crad implies hypot(dx, dy) > crad: hypot is called near only
            if dx > crad or -dx > crad or dy > crad or -dy > crad or not hypot(dx, dy) <= crad:
                continue
            u, v = base(x, y)
            inward = sign * (u * (ex - x) + v * (ey - y))
            if inward > 0 or hypot(u, v) <= abs_tol:
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

    u, v = base(x, y)
    k0u, k0v = sign * u, sign * v  # the first step's k0
    h = min(1.0, 0.01 * (1.0 + hypot(x, y)) / (hypot(u, v) + 1e-30))

    for _ in range(_MAX_STEPS):
        if tau >= max_time:
            return Trajectory(tuple(samples), Termination("time_exhausted"), direction)
        h = max_time - tau if max_time - tau < h else h
        at = abs(tau)
        if h < 1e-14 * (at if at > 1.0 else 1.0):
            return Trajectory(tuple(samples), Termination("step_underflow"), direction)

{stages}        x5, y5 = px, py  # the b5 sums, see the module docstring
        x4, y4 = x + h * ({b4u}), y + h * ({b4v})

        ax, ax5, ay, ay5 = abs(x), abs(x5), abs(y), abs(y5)
        sx = abs_tol + rel_tol * (ax5 if ax5 > ax else ax)
        sy = abs_tol + rel_tol * (ay5 if ay5 > ay else ay)
        try:
            err = sqrt((((x5 - x4) / sx) ** 2 + ((y5 - y4) / sy) ** 2) / 2.0)
        except OverflowError:  # float ** raises where * gives inf: the step is rejected
            err = inf
        factor = 0.9 * (err + 1e-300) ** -0.2
        factor = factor if factor > 0.2 else 0.2
        hnew = h * (factor if factor < 5.0 else 5.0)

        if err <= 1.0:  # False for a NaN estimate, see the module docstring
            tau += h
            k0u, k0v = k6u, k6v  # first same as last, exact as the module docstring says
            x, y = x5, y5
            samples.append((tau, (x, y)))
            for ex, ey in caps:  # capture_at's cheap rejection inline: it is called only when it may capture
                if not (abs(x - ex) > crad or abs(y - ey) > crad):
                    hit = capture_at(x, y)
                    if hit is not None:
                        return Trajectory(tuple(samples), Termination("reached_equilibrium", hit), direction)
                    break
            if not (xmin <= x <= xmax and ymin <= y <= ymax):
                return Trajectory(tuple(samples), Termination("left_box"), direction)
        h = hnew

    return Trajectory(tuple(samples), Termination("time_exhausted"), direction)
"""


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

    Samples the field at n points, 3 <= n <= MAX_SAMPLES, and adds up the direction changes between
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
    if n > MAX_SAMPLES:
        raise PreconditionError(f"sample count must be at most {MAX_SAMPLES}")

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

