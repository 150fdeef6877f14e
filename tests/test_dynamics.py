import math
import random
from fractions import Fraction

import pytest

from phaseatlas.desing import cdk_poly_field, sprott_field, PolyField
from phaseatlas.dynamics import (
    IntegratorOptions,
    default_cdk_options,
    index_on_circle,
    integrate,
    omega_limit,
    slope_limit_check,
)
from phaseatlas.equilibria import cdk_stationary_points
from phaseatlas.errors import PreconditionError, SingularEvaluationError
from phaseatlas.polycore import X, Y

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


def test_left_box_termination():
    f = PolyField(X, Y)  # everything escapes
    opts = IntegratorOptions(max_time=1e3, box=(-2, 2, -2, 2))
    traj = integrate(f, (0.5, 0.5), opts)
    assert traj.termination.kind == "left_box"


def test_fixed_step_order_five():
    # xdot = x has exact solution e^tau; halving h should shrink the error ~2^5
    f = PolyField(X, Y)
    errs = []
    for h in (0.1, 0.05):
        opts = IntegratorOptions(max_time=1.0, fixed_step=h, box=(-10, 10, -10, 10))
        traj = integrate(f, (1.0, 1.0), opts)
        tau, (x, _) = traj.samples[-1]
        errs.append(abs(x - math.exp(tau)))
    ratio = errs[0] / errs[1]
    assert 20 < ratio < 50  # 2^5 = 32 up to higher-order noise


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
