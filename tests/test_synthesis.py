"""Closed-form construction of periodic-orbit-carrying systems."""

import math

import numpy as np
import pytest

from pwlcones import (
    AngleRegionViolation,
    ConeDynamics,
    ConeKind,
    DomainError,
    MalformedInput,
    NonPositiveBeta,
    SynthesisInput,
    analyze_system,
    closure_check,
    example_system,
    matching_residuals,
    nabla_log,
    phi,
    sample_admissible_angles,
    solve_invariant_cones,
    synthesis_determinant,
    synthesize,
    synthesize_balanced,
)

PI = math.pi

EX1_INPUT = dict(gamma=1.0, k=1.0, c=10.0, tau_minus=PI / 4, tau_plus=5 * PI / 4)
EX2_INPUT = dict(gamma=1.0, k=1.0, c=-10.0, tau_minus=5 * PI / 4, tau_plus=PI / 4)

EX1_PRINTED = {
    "lam_minus": -10.3322,
    "alpha_minus": -7.1060,
    "beta_minus": 3.2259,
    "lam_plus": -0.3321,
    "alpha_plus": -0.1111,
    "beta_plus": 0.2209,
    "A_minus_col1": (-24.5442, 207.7430, -629.2483),
    "A_plus_col1": (-0.5542, 0.1349, -0.0203),
}


def _det_via_linear_system(inp: SynthesisInput) -> float:
    # independent evaluation: the determinant of the 2x2 system
    # a11 b_minus + a12 b_plus = c ; a21 b_minus + a22 b_plus = c
    g, k = inp.gamma, inp.k
    tm, tp = inp.tau_minus, inp.tau_plus
    a11 = (1 + (k * g) ** 2) * math.exp(k * g * tm) * math.sin(tm) / phi(k * g, tm)
    a12 = (1 + g * g) * math.exp(-g * tp) * math.sin(tp) / phi(-g, tp)
    a21 = -(1 + (k * g) ** 2) * math.exp(-k * g * tm) * math.sin(tm) / phi(-k * g, tm)
    a22 = -(1 + g * g) * math.exp(g * tp) * math.sin(tp) / phi(g, tp)
    return a11 * a22 - a12 * a21


def test_determinant_equals_matching_system_determinant():
    rng = np.random.default_rng(61)
    for _ in range(50):
        g = float(rng.uniform(0.1, 3.0)) * (1 if rng.uniform() < 0.5 else -1)
        k = float(rng.uniform(0.2, 5.0))
        c = float(rng.uniform(0.1, 20.0)) * (1 if rng.uniform() < 0.5 else -1)
        tm, tp = sample_admissible_angles(g, k, c, rng)
        inp = SynthesisInput(gamma=g, k=k, c=c, tau_minus=tm, tau_plus=tp)
        det = synthesis_determinant(inp)
        assert det == pytest.approx(_det_via_linear_system(inp), rel=1e-11)


def test_determinant_sign_law():
    rng = np.random.default_rng(62)
    for sign in (1.0, -1.0):
        for _ in range(50):
            g = sign * float(rng.uniform(0.1, 3.0))
            k = float(rng.uniform(0.2, 5.0))
            c = float(rng.uniform(0.1, 20.0)) * (1 if rng.uniform() < 0.5 else -1)
            tm, tp = sample_admissible_angles(g, k, c, rng)
            det = synthesis_determinant(SynthesisInput(gamma=g, k=k, c=c, tau_minus=tm, tau_plus=tp))
            assert math.copysign(1.0, det) == sign


def test_reference_one_reproduction():
    out = synthesize(SynthesisInput(**EX1_INPUT))
    assert out.eigen_minus.lam == pytest.approx(EX1_PRINTED["lam_minus"], abs=1e-3)
    assert out.eigen_minus.alpha == pytest.approx(EX1_PRINTED["alpha_minus"], abs=1e-3)
    assert out.eigen_minus.beta == pytest.approx(EX1_PRINTED["beta_minus"], abs=1e-3)
    assert out.eigen_plus.lam == pytest.approx(EX1_PRINTED["lam_plus"], abs=1e-3)
    assert out.eigen_plus.alpha == pytest.approx(EX1_PRINTED["alpha_plus"], abs=1e-3)
    assert out.eigen_plus.beta == pytest.approx(EX1_PRINTED["beta_plus"], abs=1e-3)
    assert synthesis_determinant(SynthesisInput(**EX1_INPUT)) > 0.0
    for col, zone in (("A_minus_col1", out.system.minus), ("A_plus_col1", out.system.plus)):
        assert np.abs(np.asarray(zone.matrix)[:, 0] - EX1_PRINTED[col]).max() < 1e-3


def test_reference_one_back_substitution():
    # the printed beta_minus is recovered through the determinant formula
    inp = SynthesisInput(**EX1_INPUT)
    delta = synthesis_determinant(inp)
    g, c, tp = inp.gamma, inp.c, inp.tau_plus
    beta_m = -(c / delta) * (1 + g * g) * math.sin(tp) * (
        math.exp(g * tp) / phi(g, tp) + math.exp(-g * tp) / phi(-g, tp)
    )
    assert beta_m == pytest.approx(EX1_PRINTED["beta_minus"], abs=1e-3)


def test_reference_two_is_zone_swap():
    s1 = synthesize(SynthesisInput(**EX1_INPUT)).system
    s2 = synthesize(SynthesisInput(**EX2_INPUT)).system
    assert np.abs(np.asarray(s1.minus.matrix) - np.asarray(s2.plus.matrix)).max() < 1e-9
    assert np.abs(np.asarray(s1.plus.matrix) - np.asarray(s2.minus.matrix)).max() < 1e-9


def test_printed_eigen_consistency():
    # the printed eigenvalues reproduce the printed first column through the
    # coefficient relations
    lam, al, be = (
        EX1_PRINTED["lam_minus"],
        EX1_PRINTED["alpha_minus"],
        EX1_PRINTED["beta_minus"],
    )
    assert lam + 2 * al == pytest.approx(-24.5442, abs=1e-2)
    assert 2 * lam * al + al * al + be * be == pytest.approx(207.7430, abs=1e-2)
    assert lam * (al * al + be * be) == pytest.approx(-629.2483, abs=1e-2)


def test_synthesize_postconditions_hold():
    rng = np.random.default_rng(63)
    for _ in range(40):
        g = float(rng.uniform(0.1, 3.0)) * (1 if rng.uniform() < 0.5 else -1)
        k = float(rng.uniform(0.2, 5.0))
        c = float(rng.uniform(0.1, 20.0)) * (1 if rng.uniform() < 0.5 else -1)
        tm, tp = sample_admissible_angles(g, k, c, rng)
        out = synthesize(SynthesisInput(gamma=g, k=k, c=c, tau_minus=tm, tau_plus=tp))
        em, ep = out.eigen_minus, out.eigen_plus
        assert em.beta > 0.0 and ep.beta > 0.0
        assert ep.lam - em.lam == pytest.approx(c, rel=1e-9)
        assert em.alpha == pytest.approx(em.lam + k * g * em.beta, rel=1e-12)
        assert ep.alpha == pytest.approx(ep.lam + g * ep.beta, rel=1e-12)
        residuals = matching_residuals(out.system, tm, tp)
        scale = max(1.0, abs(em.lam), abs(ep.lam), em.beta, ep.beta)
        assert max(abs(r) for r in residuals) < 1e-9 * scale
        # the closure budget identity behind the eigenvalue split
        assert ep.lam * tp / ep.beta + em.lam * tm / em.beta == pytest.approx(
            nabla_log(SynthesisInput(gamma=g, k=k, c=c, tau_minus=tm, tau_plus=tp)),
            rel=1e-9,
            abs=1e-9,
        )


def test_synthesize_analyze_roundtrip():
    from pwlcones import Diverged, OriginReached, slope_map_multiplier

    rng = np.random.default_rng(64)
    eps = np.finfo(float).eps
    plain = 0
    for _ in range(20):
        g = float(rng.uniform(0.1, 3.0)) * (1 if rng.uniform() < 0.5 else -1)
        k = float(rng.uniform(0.2, 5.0))
        c = float(rng.uniform(0.1, 20.0)) * (1 if rng.uniform() < 0.5 else -1)
        tm, tp = sample_admissible_angles(g, k, c, rng)
        out = synthesize(SynthesisInput(gamma=g, k=k, c=c, tau_minus=tm, tau_plus=tp))
        cones = solve_invariant_cones(out.system).cones
        match = [
            cn
            for cn in cones
            if abs(cn.tau_minus - tm) < 1e-6 and abs(cn.tau_plus - tp) < 1e-6
        ]
        assert match and match[0].dynamics is ConeDynamics.CENTER
        cone = match[0]
        # shooting from a double-rounded start ray can only resolve closure
        # down to about eps times the cone's transverse multiplier
        mult = abs(slope_map_multiplier(out.system, cone.tau_minus, cone.tau_plus))
        floor = 100.0 * eps * (1.0 + abs(cone.u0)) * max(1.0, mult)
        if floor < 1e-6:
            assert closure_check(out.system, cone) < 1e-6
            plain += 1
        else:
            try:
                assert closure_check(out.system, cone) < floor
            except (OriginReached, Diverged):
                pass  # shooting left the cone's basin entirely; certificate below
            residuals = matching_residuals(out.system, tm, tp)
            assert max(abs(r) for r in residuals) < 1e-9 * max(
                1.0, abs(out.eigen_minus.lam), abs(out.eigen_plus.lam)
            )
    assert plain >= 10


@pytest.mark.parametrize(
    "design",
    [
        (230.0, 1.0, 10.0, 2.4331717769006014, 3.1449715310413744),
        (400.0, 2.0, -5.0, 3.142114685673999, 0.28509222757788727),
        (-300.0, 1.0, 10.0, 3.141905592229613, 2.982183541137226),
    ],
)
def test_synthesize_past_kernel_float_range_is_malformed(design):
    # e^{|gamma| tau} leaves the float range: the kernel reads +inf without an
    # overflow warning, and the rates it implies give non-finite coefficients
    g, k, c, tm, tp = design
    with pytest.raises(MalformedInput, match="finite"):
        synthesize(SynthesisInput(gamma=g, k=k, c=c, tau_minus=tm, tau_plus=tp))


def test_balanced_construction_for_zero_offset():
    out = synthesize_balanced(alpha_plus=0.7, beta_plus=1.4, beta_minus=0.6, lam=-0.25)
    em, ep = out.eigen_minus, out.eigen_plus
    assert ep.lam == em.lam
    assert ep.alpha / ep.beta + em.alpha / em.beta == pytest.approx(0.0, abs=1e-14)
    report = analyze_system(out.system)
    trivial = [c for c in report.cones if c.kind is ConeKind.TRIVIAL]
    assert trivial and trivial[0].dynamics is ConeDynamics.CENTER
    assert report.periodic


def test_balanced_construction_rejects_bad_rates():
    with pytest.raises(NonPositiveBeta):
        synthesize_balanced(alpha_plus=0.7, beta_plus=-1.4, beta_minus=0.6, lam=0.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(gamma=1.0, k=0.0, c=10.0, tau_minus=PI / 4, tau_plus=5 * PI / 4),
        dict(gamma=1.0, k=1.0, c=0.0, tau_minus=PI / 4, tau_plus=5 * PI / 4),
        dict(gamma=1.0, k=1.0, c=10.0, tau_minus=PI, tau_plus=5 * PI / 4),
        dict(gamma=1.0, k=1.0, c=10.0, tau_minus=PI / 4, tau_plus=PI / 2),  # same-sign sines
        dict(gamma=1.0, k=1.0, c=-10.0, tau_minus=PI / 4, tau_plus=5 * PI / 4),  # sign law
        dict(gamma=1.0, k=1.0, c=10.0, tau_minus=PI / 4, tau_plus=6.0),  # beyond the bound
        dict(gamma=1.0, k=1.0, c=10.0, tau_minus=-0.1, tau_plus=5 * PI / 4),
    ],
)
def test_angle_region_violations(kwargs):
    with pytest.raises(AngleRegionViolation):
        SynthesisInput(**kwargs)


def test_angle_region_violation_is_domain_error():
    with pytest.raises(DomainError):
        SynthesisInput(gamma=1.0, k=1.0, c=10.0, tau_minus=PI, tau_plus=5 * PI / 4)


def test_example_system_matches_direct_synthesis():
    direct = synthesize(SynthesisInput(**EX1_INPUT)).system
    bundled = example_system(1)
    assert np.array_equal(np.asarray(direct.minus.matrix), np.asarray(bundled.minus.matrix))
    with pytest.raises(ValueError):
        example_system(3)


def test_sampled_angles_are_admissible():
    rng = np.random.default_rng(65)
    for _ in range(200):
        g = float(rng.uniform(0.1, 3.0)) * (1 if rng.uniform() < 0.5 else -1)
        k = float(rng.uniform(0.2, 5.0))
        c = float(rng.uniform(0.1, 20.0)) * (1 if rng.uniform() < 0.5 else -1)
        tm, tp = sample_admissible_angles(g, k, c, rng)
        SynthesisInput(gamma=g, k=k, c=c, tau_minus=tm, tau_plus=tp)  # must not raise
