"""Kernel function: values, symmetry, first zero, growth ratio."""

import functools
import math
import warnings

import mpmath
import numpy as np
import pytest

from pwlcones import DomainError, PhiRoot, auxiliary, g_ratio, phi, phi_deriv, phi_scaled, tau_hat
from pwlcones.auxiliary import (
    _LOG_FLOAT_MAX,
    SERIES_CUTOFF,
    SERIES_GT_CUTOFF,
    _phi_closed,
    _phi_series,
)
from pwlcones.halfmaps import (
    entry_slope,
    entry_slope_deriv,
    exit_slope,
    exit_slope_deriv,
    slope_increment,
    slope_increment_deriv,
)

PI = math.pi


def test_phi_vanishes_at_zero():
    for g in [-10.0, -1.0, 0.0, 0.5, 3.0]:
        assert phi(g, 0.0) == 0.0


def test_phi_zero_gamma_is_one_minus_cos():
    assert phi(0.0, PI) == pytest.approx(2.0, abs=1e-15)
    ts = np.linspace(0.01, 6.0, 200)
    assert np.allclose(phi(0.0, ts), 1.0 - np.cos(ts), atol=1e-14)


def test_phi_forced_value_at_quarter_turn():
    # cos(pi/4) - sin(pi/4) = 0 kills the exponential term entirely
    assert phi(1.0, PI / 4) == pytest.approx(1.0, abs=1e-15)


def test_phi_symmetry_under_joint_negation():
    rng = np.random.default_rng(11)
    gs = rng.uniform(-10.0, 10.0, 1000)
    ts = rng.uniform(-8.0, 8.0, 1000)
    assert np.max(np.abs(phi(gs, ts) - phi(-gs, -ts))) < 1e-12


def test_phi_positive_before_first_zero():
    rng = np.random.default_rng(12)
    for _ in range(20):
        g = float(rng.uniform(-5.0, 5.0))
        th = tau_hat(g).tau
        ts = np.linspace(th * 1e-6, th * (1.0 - 1e-9), 1000)
        assert np.all(phi(abs(g), ts) > 0.0)


def test_phi_deriv_matches_finite_differences():
    rng = np.random.default_rng(13)
    for _ in range(50):
        g = float(rng.uniform(-3.0, 3.0))
        t = float(rng.uniform(0.2, 5.5))
        h = 1e-6
        fd = (phi(g, t + h) - phi(g, t - h)) / (2 * h)
        assert phi_deriv(g, t) == pytest.approx(fd, rel=1e-7, abs=1e-9)


def test_series_and_closed_form_agree_at_switchover():
    gs = np.linspace(-10.0, 10.0, 81)
    for t in (SERIES_CUTOFF, -SERIES_CUTOFF):
        s = _phi_series(gs, np.full_like(gs, t))
        c = _phi_closed(gs, np.full_like(gs, t))
        assert np.max(np.abs(s - c) / np.abs(c)) < 1e-9


def test_phi_scaled_identity():
    from pwlcones import phi_scaled

    rng = np.random.default_rng(19)
    for _ in range(300):
        g = float(rng.uniform(-6.0, 6.0))
        t = float(rng.uniform(1e-6, 2 * PI))
        lhs = phi_scaled(g, t)
        rhs = phi(g, t) * math.exp(-g * t)
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-300)
    # strong shape ratios overflow the plain kernel but not the scaled one
    assert math.isfinite(phi_scaled(200.0, 4.0))
    assert phi_scaled(200.0, 4.0) == pytest.approx(
        -1.0 + 2.0 * math.sin(2.0) ** 2 + 200.0 * math.sin(4.0), rel=1e-12
    )


def _around(x):
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


def test_phi_scaled_scalar_and_vector_agree_bitwise():
    # a grid straddling the series switchover and, for negative gamma, the
    # overflow edge -gamma*tau = log(DBL_MAX)
    gs = [-1e3, -300.0, -7.5, -1.0, -1e-9, 0.0, 1e-9, 0.5, 3.0, 230.0, 1e3]
    ts = [-2.0, -SERIES_CUTOFF, -1e-7, 0.0, 1e-7, 0.3, 1.0, 2.5, 4.0, 6.2]
    ts += _around(SERIES_CUTOFF) + [-t for t in _around(SERIES_CUTOFF)]
    for g in gs:
        row = list(ts)
        if g < 0.0:
            row += _around(_LOG_FLOAT_MAX / -g)
        vector = phi_scaled(g, np.array(row))
        scalar = np.array([phi_scaled(g, t) for t in row])
        assert all(isinstance(phi_scaled(g, t), float) for t in row)
        assert np.array_equal(vector, scalar), g
        grid = phi_scaled(np.full(len(row), g), np.array(row))
        assert np.array_equal(grid, scalar), g
        over = -g * np.array(row) > _LOG_FLOAT_MAX
        assert np.all(np.isinf(vector[over])) and np.all(np.isfinite(vector[~over])), g


def test_phi_scaled_reaches_inf_without_overflow():
    # -gamma*tau = 1200 puts e^{-gamma tau} beyond the float range: the value
    # is +inf, and the suite turns any overflow warning into an error
    assert phi_scaled(-300.0, 4.0) == math.inf
    assert phi_scaled(-1e8, 5e-5) == math.inf  # past the edge inside the series range
    out = phi_scaled(-300.0, np.array([1e-5, 2.0, 2.5, 4.0]))
    assert np.isfinite(out[:2]).all() and np.isinf(out[2:]).all()
    # huge positive gamma*tau never evaluates the series, whose g^3 overflows
    assert math.isfinite(phi_scaled(1e62, 4.0))
    assert math.isfinite(phi_scaled(1e100, np.array([3.2, 4.0]))[0])


@pytest.mark.parametrize("g", [1e308, -1e308])
def test_kernel_past_float_range_of_gamma_tau(g):
    # gamma*tau itself leaves the float range: the product is +/-inf, the
    # limit each branch expects, and no overflow warning is raised
    assert tau_hat(g).tau == math.nextafter(PI, 4.0)
    expected = math.inf if g < 0.0 else g * math.sin(3.0)
    assert phi_scaled(g, 3.0) == expected
    assert phi_scaled(np.array([g, g]), np.array([3.0, 3.0])).tolist() == [expected] * 2
    if g > 0.0:
        assert phi_scaled(g, 3.0) == pytest.approx(1.4112000805986722e307, rel=1e-15)


def test_phi_scaled_matches_high_precision_in_series_range():
    # the series is truncated in powers of gamma*tau as well as tau, so it
    # serves only where |gamma*tau| is small too; over the tau range below
    # SERIES_CUTOFF, for |gamma| up to 1e6, both paths stay within 1e-12
    # relative of e^{-g t} - cos t + g sin t at 50 digits
    ts = np.append(np.geomspace(1e-9, SERIES_CUTOFF, 16)[:-1], math.nextafter(SERIES_CUTOFF, 0.0))
    mags = np.geomspace(1e-3, 1e6, 28)
    with mpmath.workdps(50):
        for g in np.concatenate([mags, -mags, [0.0, 1e-8, -1e-8]]).tolist():
            vector = phi_scaled(g, ts)
            gm = mpmath.mpf(g)
            for t, v in zip(ts.tolist(), vector.tolist()):
                assert phi_scaled(g, t) == v
                exact = mpmath.exp(-gm * t) - mpmath.cos(t) + gm * mpmath.sin(t)
                assert abs(mpmath.mpf(v) - exact) <= 1e-12 * abs(exact), (g, t)
    assert phi_scaled(-1e6, 1e-5) == pytest.approx(22015.465794806936, rel=1e-12)
    # the series' g^2 would overflow here; the direct form does not
    assert math.isfinite(phi_scaled(1e200, 1e-5))


def _phi_scaled_reference(g: float, t: float) -> mpmath.mpf:
    # phi e^{-g t} to 50 significant digits: the working precision covers the
    # cancellation in 1 - e^{gt}(cos t - g sin t), which loses about
    # -log10((g t)^2 + t^2) digits
    lost = int(-math.log10((g * t) ** 2 + t * t)) if t else 0
    with mpmath.workdps(50 + lost):
        gm, tm = mpmath.mpf(g), mpmath.mpf(t)
        return +((1 - mpmath.exp(gm * tm) * (mpmath.cos(tm) - gm * mpmath.sin(tm)))
                 * mpmath.exp(-gm * tm))


def test_series_branch_past_the_cube_of_gamma():
    # past |gamma| = 5.643803094122361e102 the power g^3 overflows although phi
    # itself is tiny there; the series is formed in x = gamma*tau, so it stays
    # finite, with no warning, on both paths and in phi, on both sides of that
    # magnitude
    assert phi_scaled(1e200, 1e-205) == pytest.approx(5.0e-11, rel=1e-9)
    cube_max = 5.643803094122361e102
    mags = np.append(
        np.geomspace(1e150, 1e300, 16),
        [1e100, cube_max, math.nextafter(cube_max, math.inf), 1e103, 1e120],
    )
    for g in np.concatenate([mags, -mags]).tolist():
        ts = [c / abs(g) for c in (0.999 * SERIES_GT_CUTOFF, 1e-3, 3e-7, 1e-30)] + [0.0]
        vector = phi_scaled(g, np.array(ts))
        for t, v in zip(ts, vector.tolist()):
            assert phi_scaled(g, t) == v
            exact = _phi_scaled_reference(g, t)
            assert abs(mpmath.mpf(v) - exact) <= 1e-12 * abs(exact), (g, t)
            assert phi(g, t) == pytest.approx(float(exact * mpmath.exp(g * t)), rel=1e-12)
    g, t = 1e100, 1e-103
    assert phi_scaled(g, t) == _phi_series(g, t) * float(np.exp(-g * t))


def _scalar_forms(t):
    forms = [float(t), np.float64(t), np.array(float(t))]
    return forms + [int(t)] if float(t).is_integer() else forms


def test_scalar_path_returns_the_vector_element_for_every_scalar_type(ex1):
    # float, int, numpy scalar and 0-d array take the same float path, and it
    # returns the bits of the array path's element
    ts = [1e-5, 0.3, 1.0, 2.0, 2.5, 3.0]
    funcs = []
    for g in (-1.0, 0.5, 7.5):
        funcs += [
            functools.partial(phi_scaled, g),
            functools.partial(slope_increment, g),
            functools.partial(slope_increment_deriv, g),
        ]
    for eigen in (ex1.minus.eigen, ex1.plus.eigen):
        for fn in (entry_slope, exit_slope, entry_slope_deriv, exit_slope_deriv):
            funcs.append(functools.partial(fn, eigen))
    for fn in funcs:
        vector = fn(np.array(ts))
        for k, t in enumerate(ts):
            for form in _scalar_forms(t):
                out = fn(form)
                assert type(out) is float, (fn, form)
                assert out == vector[k], (fn, form)
    # the kernel's gamma takes every form as well
    for form in _scalar_forms(3.0):
        assert phi_scaled(form, 2.0) == phi_scaled(np.array([3.0]), 2.0)[0]


def test_tau_hat_zero_gamma_exact():
    root = tau_hat(0.0)
    assert root.tau == 2.0 * PI


def test_tau_hat_unit_gamma_bracket():
    # sign change pins the root: phi_1(5pi/4) = 1 exactly, phi_1(3pi/2) < 0
    assert phi(1.0, 5 * PI / 4) == pytest.approx(1.0, abs=1e-13)
    assert phi(1.0, 3 * PI / 2) < 0.0
    t = tau_hat(1.0).tau
    assert 5 * PI / 4 < t < 3 * PI / 2


def test_tau_hat_depends_on_magnitude_only():
    rng = np.random.default_rng(14)
    for _ in range(50):
        g = float(rng.uniform(0.01, 8.0))
        assert tau_hat(g).tau == tau_hat(-g).tau


def test_tau_hat_bracket_for_nonzero_gamma():
    rng = np.random.default_rng(15)
    for _ in range(200):
        g = float(10.0 ** rng.uniform(-3, 1.3)) * (1 if rng.uniform() < 0.5 else -1)
        t = tau_hat(g).tau
        assert PI < t < 2.0 * PI


def test_tau_hat_residual_absolute_for_moderate_gamma():
    rng = np.random.default_rng(16)
    for _ in range(100):
        g = float(rng.uniform(-1.5, 1.5))
        if abs(g) < 1e-6:
            continue
        assert abs(phi(abs(g), tau_hat(g).tau)) < 1e-12


def test_tau_hat_scaled_residual_for_strong_gamma():
    for g in [2.0, 5.0, 10.0, 20.0, 150.0, 230.0, 400.0, 1000.0]:
        root = tau_hat(g)
        assert root.residual < 1e-12


def test_tau_hat_matches_high_precision_root():
    # the 60-digit zero of phi(g, .) e^{-g t} = e^{-g t} - cos(t) + g sin(t) on (pi, 2 pi)
    with mpmath.workdps(60):
        # past |g| ~ 4.6e3 the roots are certified by a sign change
        for g in [1e-3, 0.1, 1.0, 10.0, 100.0, 150.0, 230.0, 400.0, 1000.0, 5e3, 1e4, 1e6]:
            t = tau_hat(g).tau
            gm = mpmath.mpf(g)
            exact = mpmath.findroot(
                lambda x: mpmath.exp(-gm * x) - mpmath.cos(x) + gm * mpmath.sin(x),
                (mpmath.pi, 2 * mpmath.pi),
                solver="anderson",
            )
            assert PI < t < 2.0 * PI
            assert abs(mpmath.mpf(t) - exact) <= math.ulp(t), g


@pytest.mark.parametrize("g", [1e-31, 1e-32, 1e-300, 1e17, 1e20, 1e62, 1e100])
def test_tau_hat_inside_bracket_at_extreme_gamma(g):
    # the zero lies within about one ulp of an end of (pi, 2 pi): near
    # 2 pi - sqrt(4 pi g) for tiny g, at pi + atan(1/g) up to e^{-g pi} for
    # huge g; the root is the float next to that end, on the inside, and no
    # float further inside is closer to the zero
    t = tau_hat(g).tau
    end = 2.0 * PI if g < 1.0 else PI
    assert t == math.nextafter(end, 1.5 * PI)
    assert tau_hat(-g).tau == t
    with mpmath.workdps(60):
        gm = mpmath.mpf(g)
        if g < 1.0:
            exact = 2 * mpmath.pi - mpmath.sqrt(4 * mpmath.pi * gm)
        else:
            exact = mpmath.pi + mpmath.atan(1 / gm)
        inner = math.nextafter(t, 1.5 * PI)
        assert abs(mpmath.mpf(t) - exact) < abs(mpmath.mpf(inner) - exact)


# (|gamma|, tau_hat(gamma).tau.hex(), phi_scaled calls of one cache miss when
# (pi, 2*pi) was bisected down to adjacent floats before the Newton polish)
TAU_HAT_PINS = [
    (0.0, "0x1.921fb54442d18p+2", 0),
    (1e-300, "0x1.921fb54442d17p+2", 60),
    (1e-31, "0x1.921fb54442d17p+2", 56),
    (1e-20, "0x1.921fb543e1607p+2", 60),
    (1e-12, "0x1.921fa665f2025p+2", 59),
    (1e-08, "0x1.9219e66cb2e68p+2", 60),
    (0.02, "0x1.729ba951b4838p+2", 60),
    (0.3, "0x1.2a3b712c63c76p+2", 59),
    (1.0, "0x1.f869f1820844dp+1", 60),
    (10.0, "0x1.9ee1a685b437dp+1", 61),
    (50.0, "0x1.94aefb0ff8d16p+1", 61),
    (4600.0, "0x1.9226d4e08663cp+1", 60),
    (1e8, "0x1.921fb559bc606p+1", 63),
    (1e16, "0x1.921fb54442d19p+1", 63),
    (1e17, "0x1.921fb54442d19p+1", 63),
    (1e100, "0x1.921fb54442d19p+1", 58),
    (1.3e154, "0x1.921fb54442d19p+1", 58),
    (1e185, "0x1.921fb54442d19p+1", 59),
    (1.7e308, "0x1.921fb54442d19p+1", 59),
    (math.inf, "0x1.921fb54442d19p+1", 59),
]


def _tau_hat_miss(monkeypatch, gamma):
    """tau_hat(gamma) past its cache, with the phi_scaled calls it made."""
    calls = []

    def counted(g, t):
        calls.append(t)
        return phi_scaled(g, t)

    with monkeypatch.context() as m:
        m.setattr(auxiliary, "phi_scaled", counted)
        root = tau_hat.__wrapped__(gamma)
    return root, len(calls)


@pytest.mark.parametrize("g, pinned, bisect_calls", TAU_HAT_PINS, ids=repr)
def test_tau_hat_pinned_bits_and_calls(monkeypatch, g, pinned, bisect_calls):
    for gamma in (g, -g):
        root, calls = _tau_hat_miss(monkeypatch, gamma)
        assert root.tau.hex() == pinned
        assert calls <= bisect_calls


def test_tau_hat_miss_takes_few_kernel_calls(monkeypatch):
    # bisecting (pi, 2*pi) to the float floor took 59 to 61 calls here
    for g in np.geomspace(0.02, 50.0, 101).tolist():
        for gamma in (g, -g):
            root, calls = _tau_hat_miss(monkeypatch, gamma)
            assert calls <= 20, gamma
            assert root.tau == tau_hat(gamma).tau


def test_phi_root_rejects_non_roots():
    with pytest.raises(ValueError):
        PhiRoot(gamma=1.0, tau=5.0)
    with pytest.raises(ValueError):
        PhiRoot(gamma=0.0, tau=PI)
    # two ulps past the root: no sign change across the float neighbours
    t = tau_hat(1e4).tau
    with pytest.raises(ValueError):
        PhiRoot(gamma=1e4, tau=math.nextafter(math.nextafter(t, 4.0), 4.0))


def test_g_is_one_for_zero_gamma():
    ts = np.linspace(0.05, 2 * PI - 0.05, 200)
    assert np.allclose(g_ratio(0.0, ts), 1.0, atol=1e-13)


def test_g_value_at_quarter_turn():
    # independent evaluation: phi(-1, pi/4) = 1 - e^{-pi/4} sqrt(2), phi(1, pi/4) = 1
    expected = (1.0 - math.exp(-PI / 4) * math.sqrt(2.0)) * math.exp(PI / 2)
    val = g_ratio(1.0, PI / 4)
    assert val == pytest.approx(expected, rel=1e-13)
    assert val == pytest.approx(1.7087, abs=1e-4)


def test_g_blows_up_at_right_end_for_positive_gamma():
    th = tau_hat(1.0).tau
    assert g_ratio(1.0, th - 1e-4) > 1e3


def test_g_vanishes_at_right_end_for_negative_gamma():
    for g in (-0.5, -1.0, -2.5):
        th = tau_hat(g).tau
        assert g_ratio(g, th * (1.0 - 1e-8)) < 1e-6


def test_g_tends_to_one_at_zero():
    for g in np.linspace(-5.0, 5.0, 21):
        assert g_ratio(float(g), 1e-6) == pytest.approx(1.0, abs=1e-4)


def test_g_monotone_in_tau():
    rng = np.random.default_rng(17)
    for sign in (1.0, -1.0):
        for _ in range(20):
            g = sign * float(rng.uniform(0.05, 3.0))
            th = tau_hat(g).tau
            ts = np.linspace(th * 1e-4, th * (1.0 - 1e-6), 400)
            diffs = np.diff(g_ratio(g, ts))
            if sign > 0:
                assert np.all(diffs > 0.0)
            else:
                assert np.all(diffs < 0.0)


def test_g_monotone_finite_difference_slope():
    rng = np.random.default_rng(18)
    for _ in range(100):
        g = float(rng.uniform(-3.0, 3.0))
        if abs(g) < 1e-3:
            continue
        th = tau_hat(g).tau
        t = float(rng.uniform(0.05 * th, 0.95 * th))
        h = 1e-7 * th
        slope = (g_ratio(g, t + h) - g_ratio(g, t - h)) / (2 * h)
        assert math.copysign(1.0, slope) == math.copysign(1.0, g)


def test_g_domain_enforced():
    th = tau_hat(1.0).tau
    with pytest.raises(DomainError):
        g_ratio(1.0, th + 0.1)
    with pytest.raises(DomainError):
        g_ratio(1.0, 0.0)
    with pytest.raises(DomainError):
        g_ratio(1.0, -0.3)


def test_phi_past_float_range_is_signed_inf():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _check_phi_past_float_range()


def _check_phi_past_float_range():
    assert phi(1000.0, 1.0) == math.inf
    assert phi(1000.0, 4.0) == -math.inf and phi_scaled(1000.0, 4.0) < 0.0
    assert phi(1e200, 1e200) == math.copysign(math.inf, phi_scaled(1e200, 1e200))
    # gamma*exp(gamma*tau) passes DBL_MAX below the exp cut
    assert phi(1e6, 7e-4) == math.inf
    gs = np.array([1000.0, 1000.0, 1.0, -3.0, 1e6])
    ts = np.array([1.0, 4.0, 2.0, 0.5, 7e-4])
    out = phi(gs, ts)
    assert out[0] == math.inf and out[1] == -math.inf and out[4] == math.inf
    # finite values keep the closed form's bits
    assert out[2] == phi(1.0, 2.0) == float(_phi_closed(np.array([1.0]), np.array([2.0]))[0])
    assert out[3] == phi(-3.0, 0.5)
    assert math.isfinite(phi(700.0, 1.0))
