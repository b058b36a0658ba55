"""Zone flows, slope parametrizations, half-plane passage maps."""

import math

import numpy as np
import pytest

from pwlcones import (
    EigenTriple,
    NoReturnFound,
    PwlSystem,
    WrongHalfPlane,
    ZoneSide,
    entry_slope,
    exit_slope,
    g_ratio,
    half_map,
    invert_entry_slope,
    radial_ratio,
    slope_ratios,
    slope_transition,
    tau_hat,
    zone_flow,
)
from pwlcones.halfmaps import passage_slope_rows
from conftest import random_focus_eigen

PI = math.pi


def _rk4_step_matrix(a: np.ndarray, h: float) -> np.ndarray:
    ha = h * a
    return np.eye(3) + ha + ha @ ha / 2.0 + ha @ ha @ ha / 6.0 + ha @ ha @ ha @ ha / 24.0


def _rk4_first_return(matrix, x0, t_cap, n_steps=20000, refine=1000):
    """Independent event-detecting integration: fixed-step RK4 until x1
    crosses back, bisection-free two-level refinement plus linear interp."""
    a = np.asarray(matrix, dtype=float)
    h = t_cap / n_steps
    s = _rk4_step_matrix(a, h)
    x = np.asarray(x0, dtype=float).copy()
    inside_sign = None
    for i in range(n_steps):
        x_new = s @ x
        if inside_sign is None and x_new[0] != 0.0:
            inside_sign = math.copysign(1.0, x_new[0])
        if inside_sign is not None and x_new[0] * inside_sign < 0.0:
            h2 = h / refine
            s2 = _rk4_step_matrix(a, h2)
            y = x.copy()
            t = i * h
            for _ in range(refine):
                y_new = s2 @ y
                if y_new[0] * inside_sign < 0.0:
                    w = y[0] / (y[0] - y_new[0])
                    return t + w * h2, (1.0 - w) * y + w * y_new
                y = y_new
                t += h2
            return t, y
        x = x_new
    raise AssertionError("oracle found no return inside the cap")


def test_zone_flow_identity_at_zero():
    rng = np.random.default_rng(31)
    for _ in range(20):
        e = random_focus_eigen(rng)
        x0 = rng.normal(size=3)
        assert np.allclose(zone_flow(e, x0, 0.0), x0, rtol=1e-12, atol=1e-12)


def test_zone_flow_semigroup():
    rng = np.random.default_rng(32)
    for _ in range(200):
        e = random_focus_eigen(rng)
        x0 = rng.normal(size=3)
        s, t = rng.uniform(0.0, 1.0, 2)
        once = zone_flow(e, zone_flow(e, x0, s), t)
        direct = zone_flow(e, x0, s + t)
        assert np.linalg.norm(once - direct) < 1e-10 * max(1.0, np.linalg.norm(direct))


def test_zone_flow_reference_crossing(ex1):
    e = ex1.minus.eigen
    t_cross = (PI / 4) / e.beta
    assert t_cross == pytest.approx(0.2435, abs=1e-4)
    # the printed start point's first component returns to the plane
    out = zone_flow(e, [0.0, 4.0, -1.3040], t_cross)
    assert abs(out[0]) < 1e-6
    # with the exact cone slope the return is clean to machine level
    exact = zone_flow(e, [0.0, 4.0, 4.0 * entry_slope(e, PI / 4)], t_cross)
    assert abs(exact[0]) < 1e-10


def test_zone_flow_accepts_time_arrays():
    rng = np.random.default_rng(33)
    e = random_focus_eigen(rng)
    x0 = rng.normal(size=3)
    ts = np.linspace(0.0, 2.0, 17)
    batch = zone_flow(e, x0, ts)
    assert batch.shape == (17, 3)
    for i, t in enumerate(ts):
        assert np.allclose(batch[i], zone_flow(e, x0, float(t)), rtol=1e-14, atol=1e-14)


def test_slope_formulas_match_flow():
    rng = np.random.default_rng(34)
    for _ in range(200):
        e = random_focus_eigen(rng)
        th = tau_hat(e.gamma).tau
        tau = float(rng.uniform(0.05, 0.9)) * th
        p = np.array([0.0, 1.0, entry_slope(e, tau)])
        q = zone_flow(e, p, tau / e.beta)
        scale = np.linalg.norm(q)
        assert abs(q[0]) < 1e-9 * max(1.0, scale)
        assert q[2] / q[1] == pytest.approx(exit_slope(e, tau), rel=1e-9, abs=1e-9)
        assert q[1] == pytest.approx(radial_ratio(e, tau), rel=1e-9)


def test_slope_ratios_symmetric_center():
    e = EigenTriple(lam=0.0, alpha=0.0, beta=1.0)
    u0, u1 = slope_ratios(e, PI)
    assert abs(u0) < 1e-14 and abs(u1) < 1e-14


def test_slope_ratios_reference_entry(ex1):
    u0, _ = slope_ratios(ex1.minus.eigen, PI / 4)
    assert u0 == pytest.approx(-0.3260, abs=1e-4)


def test_slopes_symmetric_about_lambda_for_zero_gamma():
    rng = np.random.default_rng(35)
    for _ in range(50):
        lam = float(rng.uniform(-3, 3))
        be = float(rng.uniform(0.2, 3.0))
        e = EigenTriple(lam=lam, alpha=lam, beta=be)
        tau = float(rng.uniform(0.1, 2 * PI - 0.1))
        u0, u1 = slope_ratios(e, tau)
        assert u0 + u1 == pytest.approx(2.0 * lam, rel=1e-12, abs=1e-10)


def test_radial_ratio_center_is_minus_one():
    e = EigenTriple(lam=0.0, alpha=0.0, beta=1.7)
    for tau in np.linspace(0.1, 2 * PI - 0.1, 50):
        assert radial_ratio(e, float(tau)) == pytest.approx(-1.0, abs=1e-12)


def test_radial_ratio_product_at_reference_angles(ex1):
    prod = radial_ratio(ex1.minus.eigen, PI / 4) * radial_ratio(ex1.plus.eigen, 5 * PI / 4)
    assert prod == pytest.approx(1.0, abs=1e-6)


def test_radial_ratio_equals_growth_ratio_when_exponents_cancel():
    # alpha = beta makes the exponent (gamma + alpha/beta) tau = 2 gamma tau
    # at gamma = 1, so the ratio is exactly -g_ratio
    e = EigenTriple(lam=0.0, alpha=1.0, beta=1.0)
    val = radial_ratio(e, PI / 4)
    assert val == pytest.approx(-g_ratio(1.0, PI / 4), rel=1e-13)
    assert val == pytest.approx(-1.7087, abs=1e-4)


def test_radial_ratio_always_negative():
    rng = np.random.default_rng(36)
    for _ in range(200):
        e = random_focus_eigen(rng, lam_scale=3.0)
        th = tau_hat(e.gamma).tau
        tau = float(rng.uniform(1e-3, 1.0 - 1e-6)) * th
        assert radial_ratio(e, tau) < 0.0


def test_half_map_reference_point(ex1):
    res = half_map(ZoneSide.MINUS, ex1, [0.0, 4.0, -1.3040])
    assert res.tau == pytest.approx(PI / 4, abs=1e-6)
    assert res.exit_slope == pytest.approx(exit_slope(ex1.minus.eigen, PI / 4), rel=1e-5)
    assert res.dwell_time == pytest.approx(res.tau / ex1.minus.eigen.beta, rel=1e-14)


def test_half_map_symmetric_center(symmetric_center):
    res = half_map(ZoneSide.MINUS, symmetric_center, [0.0, 1.0, 0.0])
    assert res.tau == pytest.approx(PI, abs=1e-12)
    assert np.allclose(res.exit_point, [0.0, -1.0, 0.0], atol=1e-12)


def test_half_map_parametric_consistency():
    rng = np.random.default_rng(37)
    for _ in range(200):
        em = random_focus_eigen(rng)
        ep = random_focus_eigen(rng)
        system = PwlSystem.from_eigen(minus=em, plus=ep)
        th = tau_hat(em.gamma).tau
        tau = float(rng.uniform(0.02, 0.95)) * th
        res = half_map(ZoneSide.MINUS, system, [0.0, 1.0, entry_slope(em, tau)])
        assert res.tau == pytest.approx(tau, abs=1e-9)


def test_half_map_matches_zone_flow():
    rng = np.random.default_rng(38)
    for _ in range(100):
        em = random_focus_eigen(rng)
        ep = random_focus_eigen(rng)
        system = PwlSystem.from_eigen(minus=em, plus=ep)
        y0 = float(rng.uniform(0.2, 3.0))
        slope = float(rng.uniform(-5.0, 5.0))
        point = np.array([0.0, y0, slope * y0])
        try:
            res = half_map(ZoneSide.MINUS, system, point)
        except NoReturnFound:
            assert em.gamma < 0.0  # only negative shape ratios lack returns
            continue
        flown = zone_flow(em, point, res.dwell_time)
        scale = max(1.0, np.linalg.norm(flown))
        assert np.linalg.norm(res.exit_point - flown) < 1e-8 * scale


def test_half_map_agrees_with_rk4_event_detection():
    rng = np.random.default_rng(39)
    checked = 0
    for _ in range(100):
        em = random_focus_eigen(rng, lam_scale=2.0, beta_range=(0.5, 2.0))
        ep = random_focus_eigen(rng, lam_scale=2.0, beta_range=(0.5, 2.0))
        system = PwlSystem.from_eigen(minus=em, plus=ep)
        slope = float(rng.uniform(-4.0, 4.0))
        point = np.array([0.0, 1.0, slope])
        try:
            res = half_map(ZoneSide.MINUS, system, point)
        except NoReturnFound:
            assert em.gamma < 0.0
            continue
        t_cap = 1.2 * tau_hat(em.gamma).tau / em.beta
        t_oracle, x_oracle = _rk4_first_return(system.minus.matrix, point, t_cap)
        assert t_oracle == pytest.approx(res.dwell_time, rel=1e-5, abs=1e-6)
        assert np.linalg.norm(res.exit_point - x_oracle) < 1e-6 * max(
            1.0, np.linalg.norm(x_oracle)
        )
        checked += 1
    assert checked >= 70


def test_half_map_sign_contract():
    rng = np.random.default_rng(40)
    for _ in range(50):
        em = random_focus_eigen(rng)
        ep = random_focus_eigen(rng)
        system = PwlSystem.from_eigen(minus=em, plus=ep)
        try:
            res = half_map(ZoneSide.MINUS, system, [0.0, 1.0, float(rng.uniform(-3, 3))])
        except NoReturnFound:
            continue
        assert res.exit_point[1] < 0.0
        assert res.radial_ratio < 0.0
        assert 0.0 < res.tau < tau_hat(em.gamma).tau


def test_half_map_rejects_bad_points(symmetric_center):
    with pytest.raises(WrongHalfPlane):
        half_map(ZoneSide.MINUS, symmetric_center, [0.0, -1.0, 0.0])
    with pytest.raises(WrongHalfPlane):
        half_map(ZoneSide.PLUS, symmetric_center, [0.0, 1.0, 0.0])
    with pytest.raises(WrongHalfPlane):
        half_map(ZoneSide.MINUS, symmetric_center, [0.0, 0.0, 1.0])
    with pytest.raises(WrongHalfPlane):
        half_map(ZoneSide.MINUS, symmetric_center, [0.5, 1.0, 0.0])


def _far_off_plane(ex1):
    return ex1, (1e200, 1e-12, 0.0)


def _far_on_plane(ex1):
    return ex1, (0.0, 1e200, 1e200 * entry_slope(ex1.minus.eigen, 0.7))


def _large_exit_point(ex1):
    system = PwlSystem.from_eigen(
        EigenTriple(-14.623007655412646, 33.707276100603686, 0.22171222976978588),
        EigenTriple(40.009605192207296, 32.64262240312389, 1.9935794012820174),
    )
    return system, (0.0, 0.5624943938490351, -106.77959986907487)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "case, on_plane",
    [(_large_exit_point, True), (_far_on_plane, True), (_far_off_plane, False)],
    ids=["large_exit_point", "far_on_plane", "far_off_plane"],
)
def test_half_map_plane_test_at_large_norms(ex1, case, on_plane):
    # the plane test scales its tolerance by |p| without overflowing, so a
    # far point is judged by its x1, and a far exit point needs no norm
    system, point = case(ex1)
    if not on_plane:
        with pytest.raises(WrongHalfPlane):
            half_map(ZoneSide.MINUS, system, point)
        return
    res = half_map(ZoneSide.MINUS, system, point)
    assert res.exit_point[0] == 0.0
    assert not res.exit_point.flags.writeable


def test_slope_transition_center_fixed_point(symmetric_center):
    assert slope_transition(ZoneSide.MINUS, symmetric_center, 0.0) == pytest.approx(
        0.0, abs=1e-12
    )


def test_slope_transition_fixed_point_at_lambda():
    rng = np.random.default_rng(41)
    for _ in range(30):
        em = random_focus_eigen(rng)
        ep = random_focus_eigen(rng)
        system = PwlSystem.from_eigen(minus=em, plus=ep)
        out = slope_transition(ZoneSide.MINUS, system, em.lam)
        assert out == pytest.approx(em.lam, rel=1e-9, abs=1e-9)
        tau = invert_entry_slope(em, em.lam)
        assert tau == pytest.approx(PI, abs=1e-9)


def test_composite_slope_map_fixed_point(ex1):
    u0 = -0.3260
    out = slope_transition(ZoneSide.PLUS, ex1, slope_transition(ZoneSide.MINUS, ex1, u0))
    assert out == pytest.approx(u0, abs=1e-6)


def test_slope_transition_total_for_nonnegative_gamma():
    rng = np.random.default_rng(42)
    slopes = np.concatenate(
        [
            -np.logspace(6, -6, 15),
            [0.0],
            np.logspace(-6, 6, 15),
        ]
    )
    for _ in range(10):
        lam_m = float(rng.uniform(-2, 2))
        lam_p = float(rng.uniform(-2, 2))
        be_m = float(rng.uniform(0.5, 2.0))
        be_p = float(rng.uniform(0.5, 2.0))
        em = EigenTriple(lam=lam_m, alpha=lam_m + float(rng.uniform(0, 2)) * be_m, beta=be_m)
        ep = EigenTriple(lam=lam_p, alpha=lam_p + float(rng.uniform(0, 2)) * be_p, beta=be_p)
        system = PwlSystem.from_eigen(minus=em, plus=ep)
        for s in slopes:
            for side in (ZoneSide.MINUS, ZoneSide.PLUS):
                assert math.isfinite(slope_transition(side, system, float(s)))


def test_no_return_below_reachable_range_for_negative_gamma():
    e = EigenTriple(lam=0.0, alpha=-1.0, beta=1.0)  # shape ratio -1
    th = tau_hat(e.gamma).tau
    edge = entry_slope(e, th * (1.0 - 1e-9))
    with pytest.raises(NoReturnFound):
        invert_entry_slope(e, edge - 0.5)
    # independent confirmation: the orbit from slope edge-0.5 stays in x1 < 0
    a = np.array([[e.lam + 2 * e.alpha, -1.0, 0.0],
                  [2 * e.lam * e.alpha + e.alpha**2 + e.beta**2, 0.0, -1.0],
                  [e.lam * (e.alpha**2 + e.beta**2), 0.0, 0.0]])
    h = 1e-3
    s = _rk4_step_matrix(a, h)
    x = np.array([0.0, 1.0, edge - 0.5])
    worst = -np.inf
    for _ in range(60000):
        x = s @ x
        worst = max(worst, x[0])
    assert worst < -1e-9


def test_passage_slope_rows_are_the_slopes_bit_for_bit(ex1):
    # the cone scan's one stacked slope_increment call gives the bits of
    # entry_slope and exit_slope on each zone, on grids that reach the
    # series branch (tiny tau), the +inf branch (strong shape ratios) and
    # the inset grid of the scan itself
    rng = np.random.default_rng(91)
    zones = [ex1.minus.eigen, ex1.plus.eigen] + [random_focus_eigen(rng) for _ in range(8)]
    zones += [
        EigenTriple(lam=-1.0, alpha=300.0, beta=1.0), EigenTriple(lam=2.0, alpha=-250.0, beta=0.5)
    ]
    for a, b in zip(zones[::2], zones[1::2]):
        tha, thb = tau_hat(a.gamma).tau, tau_hat(b.gamma).tau
        for n in (2, 17, 256):
            taus = (
                np.linspace(1e-6 * tha, tha * (1.0 - 1e-6), n),
                np.geomspace(1e-9, thb * (1.0 - 1e-9), n),
            )
            rows = passage_slope_rows((a, b), taus)
            expected = [
                entry_slope(a, taus[0]), exit_slope(a, taus[0]),
                entry_slope(b, taus[1]), exit_slope(b, taus[1]),
            ]
            assert rows.shape == (4, n)
            for row, want in zip(rows, expected):
                assert row.tobytes() == want.tobytes()
