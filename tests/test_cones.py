"""Cone existence, the continuum family, classification, screens."""

import hashlib
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pwlcones import (
    ConeDynamics,
    ConeKind,
    DomainError,
    EigenTriple,
    MalformedInput,
    NotApplicable,
    PwlError,
    PwlSystem,
    ScreenResult,
    SynthesisInput,
    ZoneSide,
    analyze_system,
    cone_continuum,
    example_system,
    half_map,
    matching_residuals,
    necessary_screen,
    one_zone_cone_check,
    phi_scaled,
    sample_admissible_angles,
    slope_map_multiplier,
    solve_invariant_cones,
    synthesize,
    system_from_json,
    tau_hat,
    zone_flow,
)
from pwlcones import auxiliary, halfmaps
from pwlcones.cones import (
    CENTER_TOL,
    FAMILY_SAMPLES,
    _SCAN_BLOCK,
    _candidate_cells,
    _cell_intervals,
    _cramer_step,
    _ieee_divide,
    _keeps_sign,
    _singular_values,
    _slope_scale,
)
from pwlcones.halfmaps import entry_slope, exit_slope
from conftest import random_focus_eigen

PI = math.pi


def _system(lam_m, al_m, be_m, lam_p, al_p, be_p):
    return PwlSystem.from_eigen(
        minus=EigenTriple(lam=lam_m, alpha=al_m, beta=be_m),
        plus=EigenTriple(lam=lam_p, alpha=al_p, beta=be_p),
    )


def test_matching_residuals_reference_one(ex1):
    ra, rb, rc = matching_residuals(ex1, PI / 4, 5 * PI / 4)
    assert abs(ra) < 1e-6 and abs(rb) < 1e-6 and abs(rc) < 1e-6


def test_matching_residuals_reference_two(ex2):
    ra, rb, rc = matching_residuals(ex2, 5 * PI / 4, PI / 4)
    assert abs(ra) < 1e-6 and abs(rb) < 1e-6 and abs(rc) < 1e-6


def test_matching_residuals_symmetric_center(symmetric_center):
    ra, rb, rc = matching_residuals(symmetric_center, PI, PI)
    assert abs(ra) < 1e-14 and abs(rb) < 1e-14 and abs(rc) < 1e-14


def test_matching_residuals_domain(ex1):
    with pytest.raises(DomainError):
        matching_residuals(ex1, 0.0, PI)
    with pytest.raises(DomainError):
        matching_residuals(ex1, PI / 4, 6.0)  # above the plus zone's bound


def test_solve_reference_system(ex1):
    findings = solve_invariant_cones(ex1)
    assert findings.family is None
    nontrivial = [c for c in findings.cones if c.kind is ConeKind.NON_TRIVIAL]
    assert len(nontrivial) == 1
    cone = nontrivial[0]
    assert cone.tau_minus == pytest.approx(PI / 4, abs=1e-6)
    assert cone.tau_plus == pytest.approx(5 * PI / 4, abs=1e-6)
    assert cone.dynamics is ConeDynamics.CENTER
    assert cone.return_ratio == pytest.approx(1.0, abs=1e-9)
    ra, rb, _ = matching_residuals(ex1, cone.tau_minus, cone.tau_plus)
    assert abs(ra) < 1e-9 and abs(rb) < 1e-9


def test_solve_cone_soundness_random_systems():
    import pwlcones as pw

    rng = np.random.default_rng(57)
    done = 0
    while done < 15:
        g = float(rng.uniform(0.1, 2.0)) * (1 if rng.uniform() < 0.5 else -1)
        k = float(rng.uniform(0.3, 2.0))
        c = float(rng.uniform(0.1, 8.0)) * (1 if rng.uniform() < 0.5 else -1)
        tm, tp = pw.sample_admissible_angles(g, k, c, rng)
        system = pw.synthesize(
            pw.SynthesisInput(gamma=g, k=k, c=c, tau_minus=tm, tau_plus=tp)
        ).system
        cones = [
            cn
            for cn in solve_invariant_cones(system).cones
            if cn.kind is ConeKind.NON_TRIVIAL
        ]
        if abs(pw.slope_map_multiplier(system, tm, tp)) > 1e6:
            continue  # transversally stiff; ray shooting cannot resolve 1e-8
        for cone in cones:
            first = half_map(ZoneSide.MINUS, system, [0.0, 1.0, cone.u0])
            second = half_map(ZoneSide.PLUS, system, first.exit_point)
            back = second.exit_point[2] / second.exit_point[1]
            assert back == pytest.approx(cone.u0, abs=1e-8)
        done += 1


def test_solve_cone_soundness_geometric(ex1):
    cone = [c for c in solve_invariant_cones(ex1).cones if c.kind is ConeKind.NON_TRIVIAL][0]
    first = half_map(ZoneSide.MINUS, ex1, [0.0, 1.0, cone.u0])
    second = half_map(ZoneSide.PLUS, ex1, first.exit_point)
    back_slope = second.exit_point[2] / second.exit_point[1]
    assert back_slope == pytest.approx(cone.u0, abs=1e-8)


def test_family_mode_zero_gammas_equal_lams():
    system = _system(0.0, 0.0, 1.0, 0.0, 0.0, 2.0)
    findings = solve_invariant_cones(system)
    assert findings.family is not None
    kinds = [c.kind for c in findings.cones]
    assert kinds == [ConeKind.TRIVIAL]
    fam = findings.family
    for tm, tp in fam.pairs[::10]:
        ra, rb, rc = matching_residuals(system, float(tm), float(tp))
        assert abs(ra) < 1e-8 and abs(rb) < 1e-8
        assert rc == 0.0  # zero shape ratios and zero eigenvalue: exact


def test_family_equal_betas_mirror_curve():
    system = _system(0.0, 0.0, 1.3, 0.0, 0.0, 1.3)
    fam = cone_continuum(system)
    tms = fam.pairs[:, 0]
    tps = fam.pairs[:, 1]
    assert np.max(np.abs(tps - (2.0 * PI - tms))) < 1e-9
    assert fam.tau_plus_of(PI) == pytest.approx(PI, abs=1e-12)


def test_family_requires_structure(ex1, symmetric_center):
    with pytest.raises(NotApplicable):
        cone_continuum(ex1)
    with pytest.raises(NotApplicable):
        cone_continuum(_system(0.0, 0.0, 1.0, 0.5, 0.5, 1.0))  # unequal lams
    cone_continuum(symmetric_center)  # applicable


def test_near_zero_gammas_give_degenerate_roots_not_a_family():
    # gamma = 1e-11 in both zones: no continuum, only the trivial cone, and
    # the matching roots next to (pi, pi) are reported as degenerate
    zone = EigenTriple(0.0, 1e-11, 1.0)
    system = PwlSystem.from_eigen(minus=zone, plus=zone)
    findings = solve_invariant_cones(system)
    assert findings.family is None
    assert [c.kind for c in findings.cones] == [ConeKind.TRIVIAL]
    assert len(findings.degenerate_pairs) == 2
    for tm, tp in findings.degenerate_pairs:
        assert abs(tm - PI) < 1e-7 and abs(tp - PI) < 1e-7
    notes = analyze_system(system).notes
    assert notes.count("degenerate matching root") == 2
    assert "flow alone returns" not in notes


def test_zero_gammas_unequal_lams_yield_nothing():
    rng = np.random.default_rng(51)
    for _ in range(20):
        lam_m, lam_p = rng.uniform(-2.0, 2.0, 2)
        if abs(lam_p - lam_m) < 0.1:
            lam_p = lam_m + 0.5
        system = _system(
            float(lam_m), float(lam_m), float(rng.uniform(0.3, 2.0)),
            float(lam_p), float(lam_p), float(rng.uniform(0.3, 2.0)),
        )
        findings = solve_invariant_cones(system)
        assert findings.family is None
        assert findings.cones == []


def test_trivial_cone_appended_when_lams_match():
    rng = np.random.default_rng(52)
    for _ in range(20):
        lam = float(rng.uniform(-1.5, 1.5))
        em = EigenTriple(lam=lam, alpha=float(rng.uniform(-2, 2)), beta=float(rng.uniform(0.3, 2)))
        ep = EigenTriple(lam=lam, alpha=float(rng.uniform(-2, 2)), beta=float(rng.uniform(0.3, 2)))
        system = PwlSystem.from_eigen(minus=em, plus=ep)
        cones = solve_invariant_cones(system).cones
        trivial = [c for c in cones if c.kind is ConeKind.TRIVIAL]
        assert len(trivial) == 1
        assert trivial[0].tau_minus == PI and trivial[0].tau_plus == PI
        assert trivial[0].u0 == pytest.approx(lam)


def test_trivial_cone_matches_plane_invariance():
    # equal real eigenvalues: the shared focus plane is invariant for both flows
    rng = np.random.default_rng(53)
    for _ in range(20):
        lam = float(rng.uniform(-1.0, 1.0))
        em = EigenTriple(lam=lam, alpha=float(rng.uniform(-1, 1)), beta=float(rng.uniform(0.4, 2)))
        ep = EigenTriple(lam=lam, alpha=float(rng.uniform(-1, 1)), beta=float(rng.uniform(0.4, 2)))
        system = PwlSystem.from_eigen(minus=em, plus=ep)
        normal = np.array([lam * lam, -lam, 1.0])
        y0 = 1.0
        p = np.array([0.0, y0, lam * y0])  # on the plane, entering the minus zone
        for eig, t in ((em, 0.3 / em.beta), (ep, 0.0)):
            q = zone_flow(eig, p, t)
            assert abs(float(normal @ q)) < 1e-9 * max(1.0, np.linalg.norm(q))


def test_classify_reference_center(ex1):
    cone = [c for c in solve_invariant_cones(ex1).cones if c.kind is ConeKind.NON_TRIVIAL][0]
    assert cone.dynamics is ConeDynamics.CENTER
    # the full-revolution radial factor at the cone's phase pair puts it in
    # the center band, and the reported return ratio is that factor
    rc = matching_residuals(ex1, cone.tau_minus, cone.tau_plus)[2]
    assert abs(rc) < CENTER_TOL
    assert cone.return_ratio - 1.0 == pytest.approx(rc, abs=1e-15)


def test_classify_trivial_cone_balance():
    # alpha+/beta+ + alpha-/beta- = 0 puts a center on the trivial cone
    system = _system(0.3, 0.8, 1.0, 0.3, -1.6, 2.0)
    trivial = [c for c in solve_invariant_cones(system).cones if c.kind is ConeKind.TRIVIAL][0]
    assert trivial.dynamics is ConeDynamics.CENTER
    # half a turn in each zone: expm1(pi (0.8/1.0 - 1.6/2.0)) = 0
    assert trivial.return_ratio == 1.0


def test_classify_zero_gamma_negative_lambda_contracts():
    system = _system(-0.5, -0.5, 1.0, -0.5, -0.5, 1.7)
    findings = solve_invariant_cones(system)
    assert findings.family is not None
    assert findings.family.dynamics is ConeDynamics.STABLE_FOCUS
    trivial = [c for c in findings.cones if c.kind is ConeKind.TRIVIAL][0]
    assert trivial.dynamics is ConeDynamics.STABLE_FOCUS


def test_continuum_report_is_strict_json():
    system = _system(-0.5, -0.5, 1.0, -0.5, -0.5, 1.7)
    report = analyze_system(system)
    doc = json.loads(json.dumps(report.to_json(), allow_nan=False))
    family = doc["family"]
    assert family["relation"] == "cot(tau_minus/2)/cot(tau_plus/2) = -beta_plus/beta_minus"
    assert (family["beta_minus"], family["beta_plus"]) == (1.0, 1.7)
    assert family["includes_half_turn_pair"] is True
    assert family["dynamics"] == "StableFocus"
    assert len(family["sampled_pairs"]) == FAMILY_SAMPLES
    assert family["sampled_pairs"] == report.family.pairs.tolist()
    assert [PI, PI] in family["sampled_pairs"]


def test_slope_scale_stays_finite_past_the_float_range(ex1):
    # beta (1 + gamma^2) passes DBL_MAX for gamma about 1.1e185; the scale,
    # and with it the residual target, stays finite
    wide = PwlSystem.from_eigen(
        minus=EigenTriple(lam=-1.4429064688064747e+203, alpha=-9.909770983704536e-283,
                          beta=1.2851500808183788e+18),
        plus=ex1.plus.eigen,
    )
    assert _slope_scale(wide) == sys.float_info.max
    # below the limit the scale keeps its formula, bit for bit
    assert _slope_scale(ex1) == max(
        1.0, *(abs(e.lam) + e.beta * (1.0 + e.gamma**2) for e in (ex1.minus.eigen, ex1.plus.eigen))
    )


def test_family_shares_the_trivial_cones_dynamics(symmetric_center):
    # a family always comes with the trivial cone, so the report's periodic
    # flag follows from the cones alone
    cases = [
        (symmetric_center, ConeDynamics.CENTER),
        (_system(1e-12, 1e-12, 1.0, 1e-12, 1e-12, 1.3), ConeDynamics.CENTER),
        (_system(-0.5, -0.5, 1.0, -0.5, -0.5, 1.3), ConeDynamics.STABLE_FOCUS),
    ]
    for system, dynamics in cases:
        report = analyze_system(system)
        [trivial] = report.cones
        assert trivial.kind is ConeKind.TRIVIAL and trivial.dynamics is dynamics
        assert report.family.dynamics is trivial.dynamics
        assert report.periodic == (trivial.dynamics is ConeDynamics.CENTER)


def test_multiplier_of_a_flat_entry_slope_is_ieee():
    assert [_ieee_divide(a, b) for a, b in ((3.0, 2.0), (1.0, 0.0), (1.0, -0.0), (-2.0, 0.0))] == [
        1.5, math.inf, -math.inf, -math.inf
    ]
    assert math.isnan(_ieee_divide(0.0, -0.0))
    # the plus zone's entry slope is flat at the trivial cone: exactly 0.0
    system = _system(
        -3.0, 2.6793786170616363, 2.7342230241841587, -3.0, -3473444.102586655, 2.6724383368196634
    )
    assert slope_map_multiplier(system, PI, PI) == math.inf


def test_necessary_screen_cases(ex1):
    assert necessary_screen(ex1) is ScreenResult.PASS
    # both shape ratios zero, same-sign eigenvalues
    assert necessary_screen(_system(1.0, 1.0, 1.0, 2.0, 2.0, 1.0)) is ScreenResult.FAIL_A
    assert necessary_screen(_system(-1.0, -1.0, 1.0, 2.0, 2.0, 1.0)) is ScreenResult.PASS
    # both ratios negative, no positive eigenvalue
    assert necessary_screen(_system(-2.0, -3.0, 1.0, -1.0, -2.0, 1.0)) is ScreenResult.FAIL_C
    # both ratios positive, no negative eigenvalue
    assert necessary_screen(_system(1.0, 2.0, 1.0, 0.5, 1.5, 1.0)) is ScreenResult.FAIL_B
    # mixed signs: no screen applies
    assert necessary_screen(_system(1.0, 2.0, 1.0, 1.0, 0.0, 1.0)) is ScreenResult.NOT_APPLICABLE


def test_one_zone_cone_check_examples():
    assert one_zone_cone_check(EigenTriple(lam=1.0, alpha=1.0, beta=2.0)).exists
    res = one_zone_cone_check(EigenTriple(lam=0.0, alpha=1.0, beta=1.0))
    assert not res.exists
    expected = math.exp(2 * PI) * (1.0 - math.exp(2 * PI)) / 2.0
    assert res.witness_residual == pytest.approx(expected, rel=1e-12)
    # a shape ratio vanishes within the solver's GAMMA_ZERO_ATOL only
    assert one_zone_cone_check(EigenTriple(0.0, 1e-11, 1.0)).exists is False


def test_one_zone_full_turn_closure_for_zero_gamma():
    rng = np.random.default_rng(54)
    for _ in range(50):
        lam = float(rng.uniform(-1.0, 1.0))
        be = float(rng.uniform(0.3, 3.0))
        e = EigenTriple(lam=lam, alpha=lam, beta=be)
        y0, z0 = rng.uniform(0.5, 2.0), rng.uniform(-2.0, 2.0)
        out = zone_flow(e, [0.0, y0, z0], 2 * PI / be)
        assert abs(out[0]) < 1e-9 * max(1.0, np.linalg.norm(out))
        assert out[2] / out[1] == pytest.approx(z0 / y0, rel=1e-9, abs=1e-9)


def test_screen_consistency_with_solver():
    rng = np.random.default_rng(55)
    centers = 0
    for _ in range(500):
        system = PwlSystem.from_eigen(
            minus=random_focus_eigen(rng), plus=random_focus_eigen(rng)
        )
        findings = solve_invariant_cones(system)
        found_center = any(c.dynamics is ConeDynamics.CENTER for c in findings.cones) or (
            findings.family is not None
            and findings.family.dynamics is ConeDynamics.CENTER
        )
        if found_center:
            centers += 1
            assert necessary_screen(system) in (
                ScreenResult.PASS,
                ScreenResult.NOT_APPLICABLE,
            )


def test_return_ratio_threshold_matches_orbit_closure(ex1):
    from pwlcones import closure_check

    cone = [c for c in solve_invariant_cones(ex1).cones if c.kind is ConeKind.NON_TRIVIAL][0]
    assert abs(cone.return_ratio - 1.0) < 1e-9
    assert closure_check(ex1, cone) < 1e-7
    # contracting perturbation: scale the plus zone's real eigenvalue
    ep = ex1.plus.eigen
    pert = PwlSystem.from_eigen(
        minus=ex1.minus.eigen,
        plus=EigenTriple(lam=ep.lam * 1.01, alpha=ep.alpha, beta=ep.beta),
    )
    pcone = [c for c in solve_invariant_cones(pert).cones if c.kind is ConeKind.NON_TRIVIAL][0]
    assert pcone.return_ratio < 1.0
    assert pcone.dynamics is ConeDynamics.STABLE_FOCUS
    resid = closure_check(pert, pcone)
    assert resid > 1e-5  # bounded away from closure, consistent with contraction
    assert resid == pytest.approx(abs(pcone.return_ratio - 1.0) * math.hypot(1.0, pcone.u0), rel=0.2)


def test_analyze_report_shape(ex1):
    report = analyze_system(ex1)
    assert report.periodic
    assert report.necessary_screen is ScreenResult.PASS
    doc = report.to_json()
    assert doc["periodic"] is True
    assert doc["necessary_screen"] == "Pass"
    assert doc["family"] is None
    assert len(doc["cones"]) == 1
    assert doc["cones"][0]["kind"] == "NonTrivial"
    assert doc["cones"][0]["dynamics"] == "Center"
    assert "return ratio" in report.notes


def test_analyze_periodic_implies_center_cone():
    rng = np.random.default_rng(56)
    for _ in range(50):
        system = PwlSystem.from_eigen(
            minus=random_focus_eigen(rng), plus=random_focus_eigen(rng)
        )
        report = analyze_system(system)
        if report.periodic:
            has_center = any(c.dynamics is ConeDynamics.CENTER for c in report.cones) or (
                report.family is not None and report.family.dynamics is ConeDynamics.CENTER
            )
            assert has_center


# (gamma, k, c, tau_minus, tau_plus): zones with alpha/beta beyond
# log(DBL_MAX)/(2*pi), shape ratios near 100 after the design, or |gamma| = 150,
# where the unscaled kernel overflows
STRONG_SHAPE_DESIGNS = [
    (24.0, 5.0, 10.0, 1.9580463744360055, 3.1537859356556166),
    (-24.0, 5.0, 10.0, 3.146786412687692, 0.9198835948765263),
    (-5.222012993705557, 2.2501962277324936, 6.632133797599711, 3.1491479992147244,
     0.1724235149691435),
    (150.0, 1.0, 10.0, 2.4331717769006014, 3.1467735549083615),
    (-150.0, 0.5, 10.0, 3.1484428210723574, 0.9651639971431465),
]


@pytest.mark.parametrize("design", STRONG_SHAPE_DESIGNS)
def test_analyze_strong_shape_designs(design):
    g, k, c, tm, tp = design
    out = synthesize(SynthesisInput(gamma=g, k=k, c=c, tau_minus=tm, tau_plus=tp))
    report = analyze_system(out.system)
    centers = [
        cn
        for cn in report.cones
        if cn.dynamics is ConeDynamics.CENTER
        and abs(cn.tau_minus - tm) < 1e-9
        and abs(cn.tau_plus - tp) < 1e-9
    ]
    assert centers


def test_one_zone_witness_limits():
    assert one_zone_cone_check(EigenTriple(lam=0.5, alpha=0.5, beta=2.0)).witness_residual == 0.0
    # alpha/beta = 200 puts exp(2 pi alpha/beta) far beyond the float range
    assert one_zone_cone_check(EigenTriple(lam=0.0, alpha=200.0, beta=1.0)).witness_residual == (
        -math.inf
    )
    assert one_zone_cone_check(EigenTriple(lam=400.0, alpha=200.0, beta=1.0)).witness_residual == (
        math.inf
    )
    # and exp(-2 pi 200) underflows to zero without a warning
    assert one_zone_cone_check(EigenTriple(lam=400.0, alpha=-200.0, beta=1.0)).witness_residual == (
        0.0
    )


def _sign_scan_cells(u, v):
    # the grid scan as the solver once wrote it: the cell straddles when
    # np.sign of the residual v[j] - u[i] differs between its four corners
    s = np.sign(v[None, :] - u[:, None])
    ref = s[:-1, :-1]
    return ~((ref == s[1:, :-1]) & (ref == s[:-1, 1:]) & (ref == s[1:, 1:]))


def _straddles(u, v):
    # mask over the grid cells (i, j) on whose four corners the residual
    # v[j'] - u[i'] (i' in {i, i+1}, j' in {j, j+1}) does not keep one sign:
    # the solver's interval test on every cell, with no block pre-screen, so
    # a NaN corner, or an inf - inf one, makes its cell straddle
    lo_u, hi_u = _cell_intervals(u)
    lo_v, hi_v = _cell_intervals(v)
    return ~_keeps_sign(lo_u[:, None], hi_u[:, None], lo_v, hi_v)


def _grid_slopes(system):
    em, ep = system.minus.eigen, system.plus.eigen
    thm, thp = tau_hat(em.gamma).tau, tau_hat(ep.gamma).tau
    tms = np.linspace(1e-6 * thm, thm * (1.0 - 1e-6), 256)
    tps = np.linspace(1e-6 * thp, thp * (1.0 - 1e-6), 256)
    return (
        entry_slope(em, tms), exit_slope(em, tms), entry_slope(ep, tps), exit_slope(ep, tps)
    )


def test_interval_scan_matches_sign_scan_on_systems(ex1, ex2):
    rng = np.random.default_rng(71)
    systems = [ex1, ex2] + [
        PwlSystem.from_eigen(minus=random_focus_eigen(rng), plus=random_focus_eigen(rng))
        for _ in range(50)
    ]
    for system in systems:
        u0, u1, v1, v2 = _grid_slopes(system)
        for u, v in ((u0, v2), (u1, v1)):
            assert np.array_equal(_straddles(u, v), _sign_scan_cells(u, v))
        # the two-stage scan keeps the cells of the full masks, in row-major order
        i, j = _candidate_cells(u0, u1, v1, v2)
        ei, ej = np.nonzero(_straddles(u0, v2) & _straddles(u1, v1))
        assert np.array_equal(i, ei) and np.array_equal(j, ej)


def test_interval_scan_matches_sign_scan_on_special_values():
    # exact zeros and ties, signed zeros, NaN, infinities (inf - inf is a NaN
    # corner) and values whose difference overflows
    specials = np.array(
        [0.0, -0.0, 1.0, -1.0, 2.0, 5e-324, math.nan, math.inf, -math.inf, 1e308, -1e308]
    )
    rng = np.random.default_rng(72)
    for _ in range(400):
        u = rng.choice(specials, size=int(rng.integers(2, 7)))
        v = rng.choice(specials, size=int(rng.integers(2, 7)))
        with np.errstate(invalid="ignore", over="ignore"):
            expected = _sign_scan_cells(u, v)
        assert np.array_equal(_straddles(u, v), expected), (u, v)
    # a cell whose four corners are exactly zero does not straddle
    flat = np.array([3.0, 3.0])
    assert not _straddles(flat, flat).any()
    assert _straddles(np.array([math.inf, math.inf]), np.array([math.inf, math.inf])).all()


def test_closed_form_singular_values_and_step():
    rng = np.random.default_rng(73)
    for _ in range(500):
        m = rng.normal(size=(2, 2)) * 10.0 ** rng.uniform(-3.0, 3.0)
        f = rng.normal(size=2)
        smax, smin = _singular_values(*m.ravel())
        svals = np.linalg.svd(m, compute_uv=False)
        assert abs(smax - svals[0]) <= 1e-13 * svals[0]
        assert abs(smin - svals[1]) <= 1e-13 * svals[0]
        step = np.array(_cramer_step(*m.ravel(), *f))
        ref = np.linalg.solve(m, f)
        assert np.max(np.abs(step - ref)) <= 1e-13 * np.max(np.abs(ref))
    # singular: the ratio is zero and there is no step, where LAPACK finds an
    # exactly zero pivot
    singular = np.array([[1.0, 2.0], [2.0, 4.0]])
    smax, smin = _singular_values(*singular.ravel())
    assert smax == pytest.approx(5.0, rel=1e-15) and smin == 0.0
    assert _cramer_step(*singular.ravel(), 1.0, 1.0) is None
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(singular, [1.0, 1.0])


_SCAN_VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324]),
    st.integers(-6, 6).map(float),
    st.floats(-1e3, 1e3),
)


@st.composite
def _scan_vector(draw, size):
    # runs of equal values, cycled to ``size``; sorted ones let whole blocks
    # be screened out, as the slopes of a real grid do
    runs = draw(st.lists(st.tuples(_SCAN_VALUES, st.integers(1, 12)), min_size=1, max_size=40))
    v = np.resize(np.repeat([x for x, _ in runs], [k for _, k in runs]), size)
    order = draw(st.sampled_from(["as drawn", "ascending", "descending"]))
    if order != "as drawn":
        v = np.sort(v)
    return v[::-1].copy() if order == "descending" else v


@st.composite
def _scan_vectors(draw):
    # lengths 1-600 that are not multiples of the block size, so most grids
    # end in a partial block
    size = st.integers(1, 600).filter(lambda n: n % _SCAN_BLOCK != 0)
    rows, cols = draw(size), draw(size)
    return [draw(_scan_vector(n)) for n in (rows, rows, cols, cols)]


@given(_scan_vectors())
def test_block_screened_cells_match_full_masks(vectors):
    u0, u1, v1, v2 = vectors
    i, j = _candidate_cells(u0, u1, v1, v2)
    ei, ej = np.nonzero(_straddles(u0, v2) & _straddles(u1, v1))
    assert np.array_equal(i, ei) and np.array_equal(j, ej)


# the cones the solver reported before the block-screened scan, bit for bit:
# (tau_minus, tau_plus, u0, u1, return_ratio) of each system's Center cone
_PINNED_CONES = {
    (1, 2): (0.7853981633974483, 3.926990816987242, -0.3259998512438447, -16.187857719993524,
             1.0000000000000133),
    (1, 3): (0.7853981633974484, 3.9269908169872414, -0.3259998512438447, -16.187857719993524,
             1.000000000000003),
    (1, 17): (0.7853981633974486, 3.9269908169872414, -0.32599985124384645, -16.18785771999352,
              1.0000000000000027),
    (1, 1000): (0.7853981633974485, 3.9269908169872414, -0.32599985124384645,
                -16.187857719993524, 1.0000000000000027),
    (2, 2): (3.926990816987242, 0.7853981633974483, -16.187857719993705, -0.3259998512438469,
             1.0000000000000133),
    (2, 3): (3.9269908169872414, 0.7853981633974484, -16.187857719993524, -0.3259998512438469,
             1.0000000000000027),
    (2, 17): (3.9269908169872414, 0.7853981633974486, -16.187857719993524, -0.3259998512438469,
              1.0000000000000027),
    (2, 1000): (3.9269908169872414, 0.7853981633974485, -16.187857719993524,
                -0.3259998512438469, 1.0000000000000027),
}


@pytest.mark.parametrize("which, grid", sorted(_PINNED_CONES))
def test_reference_cones_at_small_and_large_grids(which, grid):
    report = analyze_system(example_system(which), grid=grid)
    assert report.periodic
    [cone] = report.cones
    assert (cone.tau_minus, cone.tau_plus, cone.u0, cone.u1, cone.return_ratio) == (
        _PINNED_CONES[which, grid]
    )
    assert cone.kind is ConeKind.NON_TRIVIAL and cone.dynamics is ConeDynamics.CENTER


@pytest.mark.parametrize(
    "option",
    [
        {"grid": -1},
        {"grid": 0},
        {"grid": 1},
        {"grid": 256.0},
    ],
    ids=repr,
)
def test_solver_options_out_of_range_are_malformed(ex1, option):
    # each of these once ended in a raw ValueError or a missed cone
    with pytest.raises(MalformedInput):
        analyze_system(ex1, **option)


def test_solver_options_at_their_bounds(ex1):
    report = analyze_system(ex1, grid=np.int64(2))
    assert [c.kind for c in report.cones] == [ConeKind.NON_TRIVIAL]
    assert report.cones[0].tau_minus == pytest.approx(PI / 4, abs=1e-12)


def _report_digest(system) -> str:
    text = json.dumps(analyze_system(system).to_json(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _seeded_designs(count: int):
    rng = np.random.default_rng(2718)
    while count:
        g, k, c = (float(rng.uniform(lo, hi)) for lo, hi in ((-3.0, 3.0), (0.2, 3.0), (-5.0, 5.0)))
        tm, tp = sample_admissible_angles(g, k, c, rng)
        try:
            out = synthesize(SynthesisInput(gamma=g, k=k, c=c, tau_minus=tm, tau_plus=tp))
        except PwlError:
            continue
        count -= 1
        yield out.system


# the flat spec: lambda -3 in both zones, the plus zone's alpha/beta about -1.3e6
FLAT_SPEC = {"minus": {"lambda": -3.0, "alpha": 2.6793786170616363, "beta": 2.7342230241841587},
             "plus": {"lambda": -3.0, "alpha": -3473444.102586655, "beta": 2.6724383368196634}}
# minus gamma about 1.1e185, past sqrt(DBL_MAX)
GAMMA_1E185_SPEC = {
    "minus": {"lambda": -1.4429064688064747e+203, "alpha": -9.909770983704536e-283,
              "beta": 1.2851500808183788e+18},
    "plus": {"delta": 2.2108489903745417e-16, "m": -2.1498843687217464e-245,
             "d": 1.9384207812089657e+95},
}
_PINNED_REPORTS = {
    "ex1": "5c321ca6e5566defbe22d9f763d01d908facfef4b75ae125e8aaf9e61bf542cb",
    "ex2": "68d9f72d1637696142154fe51e65ccba823c7e67632cd84cf57fa33ff4b1a198",
    "flat": "eb55f42f70a92e5674cf6fae78a1b6dcec2f020d15d73efbb9c8cc6648a5a5b4",
    "gamma-1.1e185": "d7dc381cb90aa879b7ef1e16c9fc31961240a1a426315eed0e6bd84f83acc63d",
}


def test_pinned_report_digests():
    systems = {
        "ex1": example_system(1),
        "ex2": example_system(2),
        "flat": system_from_json(FLAT_SPEC),
        "gamma-1.1e185": system_from_json(GAMMA_1E185_SPEC),
    }
    assert {name: _report_digest(s) for name, s in systems.items()} == _PINNED_REPORTS
    digests = hashlib.sha256()
    for system in _seeded_designs(50):
        digests.update(_report_digest(system).encode())
    assert digests.hexdigest() == "79e91e127bd54276e1ea8584f48b3bcb9fc154d3317a4f38a97dfd5e2fd9b28b"


def test_analyzer_kernel_calls(monkeypatch, ex1):
    # each Newton point costs one kernel call per zone and slope direction,
    # and a tau_hat miss about a dozen; with the slopes and their derivatives
    # formed apart and (pi, 2*pi) bisected to the float floor, ex1 took 184
    # calls with a cold cache and 71 with a warm one
    calls = []

    def counted(g, t):
        calls.append(t)
        return phi_scaled(g, t)

    for module in (auxiliary, halfmaps):
        monkeypatch.setattr(module, "phi_scaled", counted)
    tau_hat.cache_clear()
    analyze_system(ex1)
    cold = len(calls)
    calls.clear()
    analyze_system(ex1)
    assert (cold, len(calls)) == (60, 43)
