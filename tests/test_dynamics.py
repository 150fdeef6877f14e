import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaseatlas.desing import cdk_poly_field, desingularize, sprott_field, PolyField
from phaseatlas.dynamics import (
    _A,
    _B4,
    _B5,
    _MAX_STEPS,
    _calling_loop,
    MAX_SAMPLES,
    IntegratorOptions,
    Termination,
    Trajectory,
    index_on_circle,
    integrate,
    omega_limit,
)
from phaseatlas.equilibria import cdk_stationary_points
from phaseatlas.errors import PreconditionError, SingularEvaluationError
from phaseatlas.polycore import BiPoly, X, Y
from phaseatlas.sysio import parse_system

from oracles import default_cdk_options, slope_limit_check

F = Fraction


def _cdk_opts(a, b, **kw):
    return default_cdk_options(cdk_stationary_points(a, b), **kw)


# -- integrator basics -----------------------------------------------------------


def test_capture_at_attracting_node():
    a, b = F(5, 2), F(19, 10)
    f = cdk_poly_field(a, b)
    traj = integrate(f, (0.1, 0.9), _cdk_opts(a, b, max_time=1e3))
    assert traj.termination.kind == "reached_equilibrium"
    assert traj.termination.which == (0.0, 1.0)


def test_y_axis_is_invariant():
    f = cdk_poly_field(F(3, 4), F(6, 5))
    opts = IntegratorOptions(max_time=20.0, equilibria=((0.0, 1.0),))
    traj = integrate(f, (0.0, 0.5), opts)
    for _, (x, _y) in traj.samples:
        assert abs(x) < 1e-9


def test_immediate_capture_at_equilibrium():
    a, b = F(5, 2), F(19, 10)
    f = cdk_poly_field(a, b)
    traj = integrate(f, (0.0, 1.0), _cdk_opts(a, b))
    assert traj.termination.kind == "reached_equilibrium"
    assert len(traj.samples) == 1


def test_tau_strictly_increasing_and_deterministic():
    f = cdk_poly_field(F(1, 2), F(19, 10))
    opts = IntegratorOptions(max_time=5.0)
    t1 = integrate(f, (0.5, 0.5), opts)
    t2 = integrate(f, (0.5, 0.5), opts)
    assert t1.samples == t2.samples
    times = [t for t, _ in t1.samples]
    assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))


@pytest.mark.parametrize("z0", [(math.nan, 0.9), (math.inf, 0.9), (0.1, -math.inf)])
def test_integrate_rejects_a_start_that_is_not_finite(z0):
    # a NaN start used to fail the box test and end as left_box
    f = cdk_poly_field(F(5, 2), F(19, 10))
    for direction in ("forward", "backward"):
        with pytest.raises(PreconditionError, match="is not finite"):
            integrate(f, z0, IntegratorOptions(), direction)


def test_left_box_termination():
    f = PolyField(X, Y)  # everything escapes
    opts = IntegratorOptions(max_time=1e3, box=(-2, 2, -2, 2))
    traj = integrate(f, (0.5, 0.5), opts)
    assert traj.termination.kind == "left_box"


def test_fixed_step_order_five():
    # xdot = x has exact solution e^tau; halving h should shrink the error ~2^5.  The step is fixed
    # on the tableau loop, which integrate matches bit for bit on every case below
    f = PolyField(X, Y)
    errs = []
    for h in (0.1, 0.05):
        opts = IntegratorOptions(max_time=1.0, box=(-10, 10, -10, 10))
        traj = _reference_integrate(f, (1.0, 1.0), opts, step=h)
        tau, (x, _) = traj.samples[-1]
        errs.append(abs(x - math.exp(tau)))
    ratio = errs[0] / errs[1]
    assert 20 < ratio < 50  # 2^5 = 32 up to higher-order noise


# -- the straight-line step against the loop over the tableau ------------------------


def _sum0(terms):
    """Left to right from int 0: what sum() does with floats up to CPython 3.11 (3.12 compensates)."""
    total = 0
    for t in terms:
        total = total + t
    return total


def _term_sum(p, x, y):
    """c·x^i·y^j summed from 0.0 in `float_terms` order: BiPoly.eval's sum, left non-finite."""
    total = 0.0
    for c, i, j in p.float_terms():
        total += c * x**i * y**j
    return total


def _reference_integrate(f, z0, opts=None, direction="forward", step=None):
    """DOPRI5 as a loop over the tableau, with the field summed term by term as BiPoly.eval sums it.

    A `step` fixes h and accepts every step, non-finite ones included; `integrate` has no such mode.
    """
    if opts is None:
        opts = IntegratorOptions()
    if isinstance(f, PolyField):
        P, Q = f.P, f.Q
        base = lambda x, y: (_term_sum(P, x, y), _term_sum(Q, x, y))  # noqa: E731
    else:
        base = f
    sign = 1.0 if direction == "forward" else -1.0

    def rhs(x, y):
        u, v = base(x, y)
        return sign * u, sign * v

    xmin, xmax, ymin, ymax = opts.box
    caps = [(float(ex), float(ey)) for ex, ey in opts.equilibria]
    crad = opts.equilibrium_capture_radius

    def capture_at(x, y):
        for ex, ey in caps:
            if math.hypot(x - ex, y - ey) <= crad:
                u, v = rhs(x, y)
                inward = u * (ex - x) + v * (ey - y)
                if inward > 0 or math.hypot(u, v) <= opts.abs_tol:
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

    u0, v0 = rhs(x, y)
    speed = math.hypot(u0, v0)
    if step is not None:
        h = step
    else:
        h = min(1.0, 0.01 * (1.0 + math.hypot(x, y)) / (speed + 1e-30))

    k = [(0.0, 0.0)] * 7
    for _ in range(_MAX_STEPS):
        if tau >= opts.max_time:
            return Trajectory(tuple(samples), Termination("time_exhausted"), direction)
        h = min(h, opts.max_time - tau)
        if h < 1e-14 * max(1.0, abs(tau)):
            return Trajectory(tuple(samples), Termination("step_underflow"), direction)

        k[0] = rhs(x, y)
        for i in range(1, 7):
            ai = _A[i]
            dx = dy = 0.0
            for j, a in enumerate(ai):
                dx += a * k[j][0]
                dy += a * k[j][1]
            k[i] = rhs(x + h * dx, y + h * dy)

        x5 = x + h * _sum0(b * ki[0] for b, ki in zip(_B5, k))
        y5 = y + h * _sum0(b * ki[1] for b, ki in zip(_B5, k))
        x4 = x + h * _sum0(b * ki[0] for b, ki in zip(_B4, k))
        y4 = y + h * _sum0(b * ki[1] for b, ki in zip(_B4, k))

        if step is not None:
            accept, hnew = True, h
        else:
            sx = opts.abs_tol + opts.rel_tol * max(abs(x), abs(x5))
            sy = opts.abs_tol + opts.rel_tol * max(abs(y), abs(y5))
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


_LOTKA_VOLTERRA = desingularize(parse_system("x*(3 - x - 2*y) ; y*(2 - x - y)").field)
_LV_POINTS = ((0.0, 0.0), (3.0, 0.0), (0.0, 2.0), (1.0, 1.0))
_SQUARE = (-3.0, 3.0, -3.0, 3.0)
_PLANE = (-math.inf, math.inf, -math.inf, math.inf)

def _axis_capture_case():
    """x' = 1 along the x-axis, with a target exactly crad beyond the third sample."""
    f = PolyField(BiPoly.const(1), BiPoly.const(0))
    opts = IntegratorOptions(max_time=1.0, box=_SQUARE)
    x3, y3 = _reference_integrate(f, (0.5, 0.0), opts).samples[3][1]
    crad = 2.0**-10
    assert (x3 - (x3 + crad), y3) == (-crad, 0.0)
    opts = replace(opts, equilibria=((x3 + crad, 0.0),), equilibrium_capture_radius=crad)
    return f, (0.5, 0.0), opts, "forward", "reached_equilibrium"


_CASES = [
    # (field, start, options, direction, termination)
    (cdk_poly_field(F(7, 10), F(1, 2)), (0.01, 0.01),
     _cdk_opts(F(7, 10), F(1, 2), max_time=5e3, equilibrium_capture_radius=1e-3),
     "forward", "reached_equilibrium"),
    (cdk_poly_field(F(5, 2), F(19, 10)), (0.1, 0.9),
     _cdk_opts(F(5, 2), F(19, 10), max_time=1e3), "forward", "reached_equilibrium"),
    (cdk_poly_field(F(1, 2), F(19, 10)), (0.5, 0.5),
     _cdk_opts(F(1, 2), F(19, 10), max_time=40.0, box=_SQUARE), "backward", "left_box"),
    (cdk_poly_field(F(5, 2), F(1, 2)), (-0.3, 0.7),
     IntegratorOptions(max_time=20.0, box=_SQUARE), "forward", "time_exhausted"),
    (cdk_poly_field(F(3, 10), 1), (0.4, -0.2),
     IntegratorOptions(max_time=1.0, box=_SQUARE), "backward", "time_exhausted"),
    (cdk_poly_field(1, 1), (0.2, 0.3),
     IntegratorOptions(max_time=5.0), "forward", "time_exhausted"),
    (_LOTKA_VOLTERRA, (0.5, 0.5),
     IntegratorOptions(max_time=200.0, equilibria=_LV_POINTS), "forward", "reached_equilibrium"),
    (_LOTKA_VOLTERRA, (1.2, 0.9),
     IntegratorOptions(max_time=50.0, box=_SQUARE), "backward", "left_box"),
    # backward on the invariant y-axis from x = -0.0: the field's u is -0.0 there
    (cdk_poly_field(F(7, 10), F(1, 2)), (-0.0, 0.5),
     IntegratorOptions(max_time=10.0, box=_SQUARE), "backward", "time_exhausted"),
    # a field that reads the sign of a zero x, from (-0.0, -0.0)
    (lambda x, y: (y, math.copysign(1.0, x)), (-0.0, -0.0),
     IntegratorOptions(max_time=1.0, box=_SQUARE), "forward", "time_exhausted"),
    # x' = x^2 blows up at tau = 1 on an unbounded box
    (PolyField(X**2, -Y), (1.0, 1.0), IntegratorOptions(box=_PLANE), "forward", "step_underflow"),
    # the same blow-up without powers, on x = y
    (PolyField(X * Y, X * Y), (1.0, 1.0), IntegratorOptions(box=_PLANE), "forward", "step_underflow"),
    # from a slow start h is 1.0: steps are rejected and retried from the same k0
    (PolyField(Y, -X), (1e-3, 0.0), IntegratorOptions(max_time=2.0, box=_SQUARE), "forward", "time_exhausted"),
    # x goes from -0.0 to +0.0 in the first step, and the next k0 must be the field at +0.0:
    # k6, whose stage point is +0.0 as well
    (lambda x, y: (0.0 * y, math.copysign(1.0, x)), (-0.0, 0.5),
     IntegratorOptions(max_time=1.0, box=_SQUARE), "forward", "time_exhausted"),
    # captured at distance exactly crad, on the x-axis
    _axis_capture_case(),
]


@pytest.mark.parametrize("f, z0, opts, direction, kind", _CASES)
def test_integrate_matches_the_tableau_loop_bit_for_bit(f, z0, opts, direction, kind):
    got = integrate(f, z0, opts, direction)
    want = _reference_integrate(f, z0, opts, direction)
    assert got.termination.kind == kind
    assert repr(got.termination) == repr(want.termination)
    assert repr(got.samples) == repr(want.samples)


def _overflow_as_precondition(f):
    """f summed term by term as BiPoly.eval sums it, with an overflow reported as PolyField.compiled does."""

    def base(x, y):
        try:
            return _term_sum(f.P, x, y), _term_sum(f.Q, x, y)
        except OverflowError:
            raise PreconditionError(f"field value at ({x!r}, {y!r}) overflows a float") from None

    return base


def _polynomial(coefficients):
    return sum((c * X**i * Y**j for (i, j), c in coefficients.items()), BiPoly.const(0))


_TERMS = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda e: sum(e) <= 3), st.integers(-3, 3),
    max_size=5,
)
_SIMPLE = st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0])


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    p=_TERMS,
    q=_TERMS,
    start=st.tuples(st.floats(-2, 2), st.floats(-2, 2)),
    direction=st.sampled_from(["forward", "backward"]),
    targets=st.lists(st.tuples(_SIMPLE, _SIMPLE), max_size=3),
    crad=st.sampled_from([0.0, 1e-3, 0.1, 0.5]),
)
def test_generated_loop_matches_the_tableau_loop_on_random_fields(p, q, start, direction, targets, crad):
    f = PolyField(_polynomial(p), _polynomial(q))
    # the origin is an equilibrium of every field without constant terms
    opts = IntegratorOptions(max_time=10.0, box=(-4.0, 4.0, -4.0, 4.0), equilibria=((0.0, 0.0), *targets),
                             equilibrium_capture_radius=crad)

    def outcome(run, field):
        try:
            traj = run(field, start, opts, direction)
        except PreconditionError as exc:
            return str(exc)
        return repr(traj.termination), repr(traj.samples)

    assert outcome(integrate, f) == outcome(_reference_integrate, _overflow_as_precondition(f))


# -- field evaluations on the call-per-stage path ------------------------------------


def _counting(base):
    calls = []

    def counted(x, y):
        calls.append((x, y))
        return base(x, y)

    return counted, calls


def _capture_calls(traj, opts):
    """Field evaluations of the capture test along a trajectory: one per target within reach."""
    caps = [(float(ex), float(ey)) for ex, ey in opts.equilibria]
    calls = 0
    for _, (x, y) in traj.samples:
        if not (math.isfinite(x) and math.isfinite(y)):
            break
        for cap in caps:
            if math.hypot(x - cap[0], y - cap[1]) <= opts.equilibrium_capture_radius:
                calls += 1
                if cap == traj.termination.which and (x, y) == traj.samples[-1][1]:
                    break
    return calls


@pytest.mark.parametrize("f, z0, opts, direction, kind", _CASES)
def test_call_per_stage_path_evaluates_the_field_six_times_per_attempted_step(f, z0, opts, direction, kind):
    base = f.compiled() if isinstance(f, PolyField) else f
    counted, calls = _counting(base)
    got = integrate(counted, z0, opts, direction)
    assert repr(got.samples) == repr(integrate(f, z0, opts, direction).samples)
    # the tableau loop evaluates seven times per attempted step, after one start evaluation
    reference, reference_calls = _counting(base)
    _reference_integrate(reference, z0, opts, direction)
    captures = _capture_calls(got, opts)
    attempts, rest = divmod(len(reference_calls) - 1 - captures, 7)
    assert rest == 0 and attempts >= len(got.samples) - 1
    assert len(calls) == 1 + 6 * attempts + captures


def test_generated_functions_are_filed_apart_for_profilers():
    # (7/10, 1/2) and (1/5, 1/2) have one term shape; on b = 1 the x^2 term of Q drops out
    f, g, h = (cdk_poly_field(F(a), F(b)) for a, b in (("7/10", "1/2"), ("1/5", "1/2"), ("7/10", "1")))
    for field in (f, g, h):
        integrate(field, (0.3, 0.4), _cdk_opts(*field.provenance[1:3]))

    def codes(field):
        return {"rhs": field.compiled().__code__, "dopri5": field.compiled().dopri5.__code__,
                "box": field.box_test().__code__, "jac": field.float_jacobian().__code__}

    same, other = codes(f), codes(h)
    for kind, code in same.items():
        assert code.co_filename.startswith(f"<phaseatlas {kind} ")
        # one code object per kernel kind for one shape, each field binding its own coefficients
        assert codes(g)[kind] is code
        assert other[kind].co_filename != code.co_filename
    assert f.compiled() is not g.compiled() and f.compiled()(0.3, 0.4) != g.compiled()(0.3, 0.4)
    calling = _calling_loop().__code__.co_filename
    assert calling.startswith("<phaseatlas dopri5 ")
    assert len({calling} | {code.co_filename for code in (*same.values(), *other.values())}) == 9


# -- float overflow ------------------------------------------------------------------


def test_overflowing_field_value_is_a_precondition_error():
    f = cdk_poly_field(F(1, 2), F(1, 2))
    with pytest.raises(PreconditionError, match="overflows a float"):
        index_on_circle(f, (0, 0), 1e200)
    with pytest.raises(PreconditionError, match=r"field value at \(1e\+200, 0\.0\) overflows"):
        integrate(f, (1e200, 0.0), IntegratorOptions(box=_PLANE))


def test_overflow_inside_a_stage_names_the_stage_point():
    # x' = x: x = e^tau passes 1.34e154, where Q's x**2 overflows, before tau = 400; a stage gets there first
    f, z0 = PolyField(X, F(1, 10**300) * X**2), (1.0, 0.0)
    opts = IntegratorOptions(max_time=400.0, box=_PLANE)
    with pytest.raises(PreconditionError, match="overflows a float") as want:
        _reference_integrate(_overflow_as_precondition(f), z0, opts)
    for field in (f, _counting(f.compiled())[0]):
        with pytest.raises(PreconditionError) as got:
            integrate(field, z0, opts)
        assert str(got.value) == str(want.value)
    x = float(str(want.value).split("(")[1].split(",")[0])
    assert x == 1.3765709555586396e154  # a stage point, where x**2 overflows; no sample gets there


def test_an_error_estimate_beyond_the_float_range_rejects_the_step():
    # only the first step's stage-6 value is 1e300: x4 is about 2.5e296 and x5 about 0.01, so the
    # scaled error's square overflows.  The step is rejected, as an infinite error is, and the
    # retry at h / 5 = 0.002 is accepted.  (portrait --a 1e7 --b 1/2 met this in a cdk field.)
    calls = []

    def field(x, y):
        calls.append((x, y))
        return (1e300 if len(calls) == 7 else 1.0), 0.0

    traj = integrate(field, (0.0, 0.0), IntegratorOptions(max_time=0.1, box=_SQUARE))
    assert traj.termination.kind == "time_exhausted"
    assert traj.samples[1][0] == 0.01 * 0.2


def test_an_infinite_stage_6_value_rejects_the_step():
    # the first step has h = 0.01 and its stage-6 point is x = 0.009999999999999998, no other
    # stage's.  k6 = inf makes x4 inf, with x5 = px finite, so the error estimate is not finite
    # and the step is retried at h / 5, as the tableau's x5 = NaN is; no sample is NaN or inf
    stage6 = 0.009999999999999998
    opts = IntegratorOptions(max_time=0.1, box=_SQUARE)
    for run in (integrate, _reference_integrate):
        calls = []

        def field(x, y):
            calls.append(x)
            return (math.inf if x == stage6 else 1.0), 0.0

        traj = run(field, (0.0, 0.0), opts)
        assert stage6 in calls
        assert traj.samples[1] == (0.01 * 0.2, (0.0019999999999999996, 0.0))
        assert all(math.isfinite(x) for _, (x, _) in traj.samples)
        assert traj.termination.kind == "time_exhausted"
    # held to its step, the tableau loop takes that step and ends on the NaN sample
    traj = _reference_integrate(field, (0.0, 0.0), opts, step=0.01)
    assert repr(traj.samples) == repr(((0.0, (0.0, 0.0)), (0.01, (math.nan, 0.0))))


# -- omega limits -----------------------------------------------------------------


def test_omega_returns_to_origin_in_elliptic_sector():
    a, b = F(7, 10), F(1, 2)
    f = cdk_poly_field(a, b)
    opts = _cdk_opts(a, b, max_time=5e4, equilibrium_capture_radius=1e-3)
    res = omega_limit(f, (0.01, 0.01), opts)
    assert res.kind == "equilibrium"
    assert res.point == (0.0, 0.0)


def test_omega_reaches_s3_or_s4_for_b_large():
    a, b = F(1, 2), F(19, 10)
    f = cdk_poly_field(a, b)
    res = omega_limit(f, (0.5, 0.5), _cdk_opts(a, b, max_time=1e4))
    assert res.kind == "equilibrium"
    pts = {p.label: p.location_floats() for p in cdk_stationary_points(a, b)}
    assert res.point in (pts["s3"], pts["s4"])


def test_omega_refutes_absorbing_circle_claim():
    # claimed absorbing radius r = sqrt(max(a^-2, (2-b)/b^2)) = 0.4 at (2.5, 1.9),
    # yet the forward limit from (0.1, 0.9) is (0, 1), at distance 1 > 0.4
    a, b = F(5, 2), F(19, 10)
    r_sq = max(1 / a**2, (2 - b) / b**2)
    assert r_sq == F(4, 25)
    assert F(2, 5) ** 2 == r_sq
    f = cdk_poly_field(a, b)
    res = omega_limit(f, (0.1, 0.9), _cdk_opts(a, b, max_time=1e3))
    assert res.kind == "equilibrium" and res.point == (0.0, 1.0)
    assert math.hypot(*res.point) == 1.0 > 0.4


@pytest.mark.parametrize(
    "kw",
    [
        {"max_time": math.nan},
        {"max_time": math.inf},
        {"max_time": 0.0},
        {"rel_tol": math.nan},
        {"abs_tol": math.inf},
        {"equilibrium_capture_radius": -1.0},
        {"equilibrium_capture_radius": math.nan},
    ],
)
def test_options_reject_unusable_values(kw):
    with pytest.raises(PreconditionError):
        IntegratorOptions(**kw)


def test_omega_unresolved_without_capture_targets():
    f = cdk_poly_field(F(1, 2), F(19, 10))
    res = omega_limit(f, (0.5, 0.5), IntegratorOptions(max_time=10.0))
    assert res.kind == "unresolved"


# -- index ---------------------------------------------------------------------------


def test_index_two_for_elliptic_origin():
    f = cdk_poly_field(F(1, 2), F(1, 2))
    for r in (0.05, 0.1, 0.2):
        assert index_on_circle(f, (0, 0), r) == 2


def test_index_zero_for_flowthrough_origin():
    f = cdk_poly_field(F(1, 2), F(19, 10))
    for r in (0.05, 0.1, 0.2):
        assert index_on_circle(f, (0, 0), r) == 0


def test_index_minus_one_at_saddle():
    pts = {p.label: p for p in cdk_stationary_points(F(5, 2), F(1, 2))}
    f = cdk_poly_field(F(5, 2), F(1, 2))
    s3 = pts["s3"].location_floats()
    assert index_on_circle(f, s3, 0.1) == -1


def test_index_additivity():
    f = cdk_poly_field(F(5, 2), F(1, 2))
    total = index_on_circle(f, (0, 0), 2.0)
    assert total == 2 + 1 - 1 - 1 == 1


def test_index_rejects_equilibrium_on_circle():
    f = cdk_poly_field(F(5, 2), F(1, 2))
    with pytest.raises(PreconditionError):
        index_on_circle(f, (0, 0), 1.0, n=256)  # s2 = (0,1) sits on this circle


@pytest.mark.parametrize("n", [3, 4])
def test_index_bisects_undersampled_circle(n):
    # the origin has index 2; 3 and 4 samples used to report -1 and 0
    f = cdk_poly_field(F(1, 2), F(1, 2))
    assert index_on_circle(f, (0, 0), 0.1, n=n) == 2


def test_index_rejects_equilibrium_between_samples():
    # s2 = (0, 1) lies on the circle but on no sample point of 255
    f = cdk_poly_field(F(5, 2), F(1, 2))
    with pytest.raises(PreconditionError, match="however finely"):
        index_on_circle(f, (0, 0), 1.0, n=255)


@pytest.mark.parametrize("n", [-1, 0, 1, 2])
def test_index_rejects_too_few_samples(n):
    f = cdk_poly_field(F(1, 2), F(1, 2))
    with pytest.raises(PreconditionError, match="at least 3"):
        index_on_circle(f, (0, 0), 0.1, n=n)


def test_index_rejects_too_many_samples_before_sampling():
    def field(x, y):
        raise AssertionError("sampled the field")

    with pytest.raises(PreconditionError, match=f"at most {MAX_SAMPLES}"):
        index_on_circle(field, (0, 0), 0.1, n=MAX_SAMPLES + 1)


@pytest.mark.parametrize("radius", [0.0, -0.1, math.nan, math.inf])
def test_index_rejects_unusable_radius(radius):
    f = cdk_poly_field(F(1, 2), F(1, 2))
    with pytest.raises(PreconditionError, match="radius must be finite and positive"):
        index_on_circle(f, (0, 0), radius)


# -- slope check at the logarithmic fixture ------------------------------------------


def test_slope_limit_near_axis():
    s = sprott_field()
    assert abs(slope_limit_check(s, 0.0, 1e-8) - 1.0) < 1e-2


def test_slope_limit_frozen_value_for_offset_start():
    # direct evaluation at y0 = -3, x = 1e-8 (converges to 1 much more slowly)
    val = slope_limit_check(sprott_field(), -3.0, 1e-8)
    half_log = math.log(1e-16) / 2
    assert val == pytest.approx((half_log + 1e-8) / (half_log + 3.0), rel=1e-12)
    assert abs(val - 1.0) == pytest.approx(0.19454, abs=1e-4)
    # approach to the limit from even smaller x
    closer = slope_limit_check(sprott_field(), -3.0, 1e-30)
    assert abs(closer - 1.0) < abs(val - 1.0)


def test_slope_limit_singular_on_nullcline():
    with pytest.raises(SingularEvaluationError):
        slope_limit_check(sprott_field(), 0.0, 1.0)
    with pytest.raises(PreconditionError):
        slope_limit_check(sprott_field(), 0.0, 0.0)


# -- boundedness -----------------------------------------------------------------------


def test_forward_orbits_stay_bounded():
    rng = random.Random(2024)
    params = [
        (F(5, 2), F(1, 2)),
        (F(1, 2), F(19, 10)),
        (F(7, 10), F(1, 2)),
        (F(19, 10), F(19, 10)),
        (F(3, 10), 1),
        (1, 1),
    ]
    for a, b in params:
        opts = IntegratorOptions(max_time=25.0, box=(-1e6, 1e6, -1e6, 1e6))
        f = cdk_poly_field(a, b)
        for _ in range(50):
            z0 = (rng.uniform(-3, 3), rng.uniform(-3, 3))
            traj = integrate(f, z0, opts)
            assert traj.termination.kind != "left_box", (a, b, z0)
