"""System types, spectrum/coefficient conversions, canonicalization, JSON."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwlcones import (
    CanonicalCoeffs,
    ConeKind,
    EigenTriple,
    MalformedInput,
    NotContinuous,
    NotFocusType,
    NotObservable,
    PwlError,
    PwlSystem,
    ZoneSpec,
    canonicalize,
    coeffs_from_eigen,
    companion_matrix,
    eigen_from_coeffs,
    focus_plane,
    invariant_line,
    solve_invariant_cones,
    system_from_json,
    system_to_json,
)
from conftest import random_focus_eigen

# printed reference values of the bundled example's zones
EX1_MINUS_EIGEN = (-10.3322, -7.1060, 3.2259)
EX1_PLUS_EIGEN = (-0.3321, -0.1111, 0.2209)
EX1_MINUS_COEFFS = (-24.5442, 207.7430, -629.2483)
EX1_PLUS_COEFFS = (-0.5542, 0.1349, -0.0203)


def test_eigen_triple_derives_gamma():
    e = EigenTriple(lam=-10.3322, alpha=-7.1060, beta=3.2259)
    assert e.gamma == (e.alpha - e.lam) / e.beta
    with pytest.raises(TypeError):
        EigenTriple(lam=0.0, alpha=1.0, beta=1.0, gamma=1.0)  # derived, never supplied
    # replacing part of the spectrum derives gamma afresh
    moved = dataclasses.replace(EigenTriple(-1.0, 0.5, 2.0), lam=0.0)
    assert moved == EigenTriple(0.0, 0.5, 2.0)
    assert moved.gamma == 0.25


def test_eigen_triple_requires_positive_beta():
    with pytest.raises(NotFocusType):
        EigenTriple(lam=1.0, alpha=1.0, beta=0.0)
    with pytest.raises(NotFocusType):
        EigenTriple(lam=1.0, alpha=1.0, beta=-2.0)


def test_coeffs_from_eigen_pure_center():
    c = coeffs_from_eigen(EigenTriple(lam=0.0, alpha=0.0, beta=1.0))
    assert c.as_tuple() == (0.0, 1.0, 0.0)


def test_coeffs_from_eigen_printed_minus_zone():
    c = coeffs_from_eigen(EigenTriple(*EX1_MINUS_EIGEN))
    assert c.delta == pytest.approx(EX1_MINUS_COEFFS[0], abs=1e-2)
    assert c.m == pytest.approx(EX1_MINUS_COEFFS[1], abs=1e-2)
    assert c.d == pytest.approx(EX1_MINUS_COEFFS[2], abs=1e-2)


def test_coeffs_from_eigen_printed_plus_zone():
    c = coeffs_from_eigen(EigenTriple(*EX1_PLUS_EIGEN))
    assert c.delta == pytest.approx(EX1_PLUS_COEFFS[0], abs=1e-3)
    assert c.m == pytest.approx(EX1_PLUS_COEFFS[1], abs=1e-3)
    assert c.d == pytest.approx(EX1_PLUS_COEFFS[2], abs=1e-3)


def test_eigen_from_coeffs_pure_center():
    e = eigen_from_coeffs(CanonicalCoeffs(0.0, 1.0, 0.0))
    assert (e.lam, e.alpha, e.beta) == pytest.approx((0.0, 0.0, 1.0), abs=1e-14)


def test_eigen_from_coeffs_printed_minus_zone():
    e = eigen_from_coeffs(CanonicalCoeffs(*EX1_MINUS_COEFFS))
    assert e.lam == pytest.approx(EX1_MINUS_EIGEN[0], abs=1e-3)
    assert e.alpha == pytest.approx(EX1_MINUS_EIGEN[1], abs=1e-3)
    assert e.beta == pytest.approx(EX1_MINUS_EIGEN[2], abs=1e-3)


def test_eigen_from_coeffs_rejects_triple_real_root():
    with pytest.raises(NotFocusType):
        eigen_from_coeffs(CanonicalCoeffs(3.0, 3.0, 1.0))  # (x-1)^3


def test_eigen_from_coeffs_rejects_three_distinct_real_roots():
    # roots 1, 2, 3:  x^3 - 6x^2 + 11x - 6
    with pytest.raises(NotFocusType):
        eigen_from_coeffs(CanonicalCoeffs(6.0, 11.0, 6.0))


def _conditioning_ok(lam, al, be):
    # beta is recoverable to 1e-10 relative only while beta^2 dominates the
    # rounding of m = 2*lam*al + al^2 + beta^2 in doubles
    q = max(abs(2.0 * lam * al), al * al, abs(2.0 * lam * al + al * al + be * be))
    return be * be > 1e5 * 2.2e-16 * q


def test_roundtrip_eigen_coeffs_eigen():
    rng = np.random.default_rng(21)
    checked = 0
    for _ in range(1000):
        lam = float(rng.uniform(-1e3, 1e3))
        al = float(rng.uniform(-1e3, 1e3))
        be = float(rng.uniform(1e-3, 1e3))
        e = EigenTriple(lam=lam, alpha=al, beta=be)
        c = coeffs_from_eigen(e)
        back = eigen_from_coeffs(c)
        # coefficient-space round trip is exact to rounding regardless of
        # conditioning
        c2 = coeffs_from_eigen(back)
        for a, b in zip(c.as_tuple(), c2.as_tuple()):
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))
        if _conditioning_ok(lam, al, be):
            checked += 1
            assert back.lam == pytest.approx(lam, rel=1e-10, abs=1e-10)
            assert back.alpha == pytest.approx(al, rel=1e-10, abs=1e-10)
            assert back.beta == pytest.approx(be, rel=1e-10)
    assert checked > 950


def test_companion_matrix_patterns():
    assert np.array_equal(
        companion_matrix(CanonicalCoeffs(0.0, 1.0, 0.0)),
        np.array([[0.0, -1.0, 0.0], [1.0, 0.0, -1.0], [0.0, 0.0, 0.0]]),
    )
    assert np.array_equal(
        companion_matrix(CanonicalCoeffs(1.0, 2.0, 3.0)),
        np.array([[1.0, -1.0, 0.0], [2.0, 0.0, -1.0], [3.0, 0.0, 0.0]]),
    )
    printed = np.array(
        [[-24.5442, -1.0, 0.0], [207.7430, 0.0, -1.0], [-629.2483, 0.0, 0.0]]
    )
    assert np.abs(companion_matrix(CanonicalCoeffs(*EX1_MINUS_COEFFS)) - printed).max() < 1e-4


def test_companion_characteristic_polynomial():
    # det(xI - A) evaluated by LU must equal x^3 - delta x^2 + m x - d
    rng = np.random.default_rng(22)
    for _ in range(20):
        dl, m, d = rng.uniform(-5, 5, 3)
        a = companion_matrix(CanonicalCoeffs(float(dl), float(m), float(d)))
        for x in rng.uniform(-4, 4, 5):
            det = np.linalg.det(x * np.eye(3) - a)
            poly = x**3 - dl * x**2 + m * x - d
            assert det == pytest.approx(poly, rel=1e-10, abs=1e-10)


def test_invariant_line_examples():
    assert np.allclose(invariant_line(EigenTriple(0.0, 0.0, 1.0)), [1.0, 0.0, 1.0])
    v = invariant_line(EigenTriple(*EX1_MINUS_EIGEN))
    assert np.abs(v - np.array([1.0, -14.2120, 60.9036])).max() < 1e-2


def test_invariant_line_is_eigenvector():
    rng = np.random.default_rng(23)
    for _ in range(100):
        e = random_focus_eigen(rng, lam_scale=5.0, beta_range=(0.1, 5.0))
        a = companion_matrix(coeffs_from_eigen(e))
        v = invariant_line(e)
        resid = np.linalg.norm(a @ v - e.lam * v) / np.linalg.norm(v)
        assert resid < 1e-10 * max(1.0, abs(e.lam), np.abs(a).max())


def test_focus_plane_examples():
    assert np.allclose(focus_plane(EigenTriple(0.0, 1.0, 1.0)), [0.0, 0.0, 1.0])
    assert np.allclose(focus_plane(EigenTriple(1.0, 1.5, 1.0)), [1.0, -1.0, 1.0])
    n = focus_plane(EigenTriple(*EX1_MINUS_EIGEN))
    assert np.abs(n - np.array([106.754, 10.3322, 1.0])).max() < 1e-2


def test_focus_plane_is_flow_invariant():
    rng = np.random.default_rng(24)
    for _ in range(100):
        e = random_focus_eigen(rng, lam_scale=3.0)
        a = companion_matrix(coeffs_from_eigen(e))
        n = focus_plane(e)
        # the normal is a left eigenvector: n . (A q) = lam (n . q) for any q
        q = rng.normal(size=3)
        assert float(n @ (a @ q)) == pytest.approx(e.lam * float(n @ q), rel=1e-10, abs=1e-9)
        # and a point on the plane stays tangent: n . (A p) = 0
        p = np.array([1.0, rng.normal(), 0.0])
        p[2] = -(n[0] * p[0] + n[1] * p[1])  # solve n.p = 0 (n[2] = 1)
        assert abs(float(n @ (a @ p))) < 1e-9 * max(1.0, np.abs(a).max() * np.linalg.norm(p))


def test_zone_spec_validates_pattern():
    coeffs = CanonicalCoeffs(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        # spectrum of a different zone
        ZoneSpec(coeffs=coeffs, eigen=EigenTriple(1.0, 1.0, 2.0))


_FOCUS_ZONES = st.builds(
    EigenTriple,
    lam=st.floats(-2.0, 2.0),
    alpha=st.floats(-2.0, 2.0),
    beta=st.floats(0.3, 2.0),
)


@given(_FOCUS_ZONES, _FOCUS_ZONES)
def test_systems_are_continuous_by_construction(em, ep):
    # the invariant the constructor no longer checks: both zone matrices are
    # the read-only companion matrices of their coefficients, so they share
    # their second and third columns bit for bit
    system = PwlSystem.from_eigen(minus=em, plus=ep)
    for zone in (system.minus, system.plus):
        assert not zone.matrix.flags.writeable
        assert np.array_equal(zone.matrix, companion_matrix(zone.coeffs))
    assert np.array_equal(system.minus.matrix[:, 1:], system.plus.matrix[:, 1:])


def test_canonicalize_identity_on_canonical_input(ex1):
    rec = canonicalize(ex1.plus.matrix, ex1.minus.matrix)
    assert np.abs(rec.minus.matrix - ex1.minus.matrix).max() < 1e-9
    assert np.abs(rec.plus.matrix - ex1.plus.matrix).max() < 1e-9


def test_canonicalize_recovers_conjugated_pair(ex1):
    rng = np.random.default_rng(25)
    t = np.eye(3)
    t[1:, :] = rng.normal(size=(2, 3))
    t[1, 1] += 3.0
    t[2, 2] += 3.0  # keep it comfortably invertible; first row stays e1
    ti = np.linalg.inv(t)
    rec = canonicalize(t @ ex1.plus.matrix @ ti, t @ ex1.minus.matrix @ ti)
    for zone, ref in ((rec.minus, ex1.minus), (rec.plus, ex1.plus)):
        scale = max(1.0, np.abs(ref.matrix).max())
        assert np.abs(zone.matrix - ref.matrix).max() < 1e-9 * scale


def test_canonicalize_reference_zone_choice_is_immaterial(ex1):
    # the transform is built from the first zone argument's data; feeding the
    # pair with roles swapped must recover the same per-matrix coefficients
    rng = np.random.default_rng(26)
    t = np.eye(3)
    t[1:, :] = rng.normal(size=(2, 3))
    t[1, 1] += 3.0
    t[2, 2] += 3.0
    ti = np.linalg.inv(t)
    raw_minus = t @ ex1.minus.matrix @ ti
    raw_plus = t @ ex1.plus.matrix @ ti
    direct = canonicalize(raw_plus, raw_minus)
    swapped = canonicalize(raw_minus, raw_plus)
    assert np.abs(np.asarray(direct.minus.matrix) - np.asarray(swapped.plus.matrix)).max() < 1e-9 * 630
    assert np.abs(np.asarray(direct.plus.matrix) - np.asarray(swapped.minus.matrix)).max() < 1e-9


@pytest.mark.parametrize("scale", [1e-6, 1e5, 1e7, 1e20])
def test_canonicalize_time_scale_invariance(ex1, scale):
    # scaling both matrices scales time only, so the cones stay put, although
    # the observability matrix's rows scale like 1, s and s^2
    def cone(system):
        (c,) = [c for c in solve_invariant_cones(system).cones if c.kind is ConeKind.NON_TRIVIAL]
        return c

    am, ap = np.asarray(ex1.minus.matrix), np.asarray(ex1.plus.matrix)
    ref = cone(canonicalize(ap, am))
    got = cone(canonicalize(scale * ap, scale * am))
    assert got.tau_minus == pytest.approx(ref.tau_minus, rel=1e-12)
    assert got.tau_plus == pytest.approx(ref.tau_plus, rel=1e-12)


def test_canonicalize_at_tiny_scale_fails_the_focus_test_like_its_coefficients(ex1):
    # the pair scaled by 1e-13 is observable, but its rotation rates fall
    # under the eigen step's absolute BETA_FLOOR: raw matrices and the same
    # system given as coefficients both end in NotFocusType
    s = 1e-13
    am, ap = np.asarray(ex1.minus.matrix), np.asarray(ex1.plus.matrix)
    with pytest.raises(NotFocusType):
        canonicalize(s * ap, s * am)
    c = coeffs_from_eigen(ex1.minus.eigen)
    with pytest.raises(NotFocusType):
        ZoneSpec.from_coeffs(CanonicalCoeffs(c.delta * s, c.m * s * s, c.d * s**3))


def test_canonicalize_rejects_unobservable():
    # first row (a, 0, 0) makes e1^T A parallel to e1^T
    am = np.array([[2.0, 0.0, 0.0], [1.0, 1.0, -1.0], [0.5, 1.0, 0.0]])
    ap = am.copy()
    ap[:, 0] = [3.0, 0.7, 0.1]
    ap[0, 1:] = am[0, 1:]
    with pytest.raises(NotObservable):
        canonicalize(ap, am)


def test_canonicalize_rejects_discontinuous_pair(ex1):
    broken = np.array(ex1.plus.matrix)
    broken[1, 2] += 1e-6
    with pytest.raises(NotContinuous):
        canonicalize(broken, ex1.minus.matrix)


def test_pwl_system_construction_roundtrips(ex1):
    doc = system_to_json(ex1)
    again = system_from_json(doc)
    assert np.array_equal(again.minus.matrix, ex1.minus.matrix)
    assert np.array_equal(again.plus.matrix, ex1.plus.matrix)


def test_system_from_json_eigen_representation(ex1):
    doc = {
        "minus": {
            "lambda": ex1.minus.eigen.lam,
            "alpha": ex1.minus.eigen.alpha,
            "beta": ex1.minus.eigen.beta,
        },
        "plus": {
            "lambda": ex1.plus.eigen.lam,
            "alpha": ex1.plus.eigen.alpha,
            "beta": ex1.plus.eigen.beta,
        },
    }
    sys2 = system_from_json(doc)
    assert np.abs(sys2.minus.matrix - ex1.minus.matrix).max() < 1e-9


def test_system_from_json_raw_matrices(ex1):
    doc = {
        "A_minus": np.asarray(ex1.minus.matrix).tolist(),
        "A_plus": np.asarray(ex1.plus.matrix).tolist(),
    }
    sys2 = system_from_json(doc)
    assert np.abs(sys2.minus.matrix - ex1.minus.matrix).max() < 1e-9


@pytest.mark.parametrize(
    "doc",
    [
        [],
        {},
        {"minus": {"delta": 0.0, "m": 1.0, "d": 0.0}},
        {"minus": {"delta": 0.0, "m": 1.0, "d": 0.0}, "plus": {"delta": 0.0}},
        {
            "minus": {"delta": 0.0, "m": 1.0, "d": 0.0, "lambda": 0.0},
            "plus": {"delta": 0.0, "m": 1.0, "d": 0.0},
        },
        {"minus": {"delta": 0.0, "m": 1.0, "d": 0.0}, "plus": {"delta": 0, "m": "x", "d": 0}},
        {"A_minus": [[0, -1, 0], [1, 0, -1], [0, 0, 0]]},
        {"A_minus": [[0, -1], [1, 0]], "A_plus": [[0, -1], [1, 0]]},
    ],
)
def test_system_from_json_rejects_malformed(doc):
    with pytest.raises(MalformedInput):
        system_from_json(doc)


# hypothesis' own floats favour a few magnitudes; a mantissa times a power of
# two spreads them evenly over the exponents, subnormal to near DBL_MAX
_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(math.ldexp, st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
              st.integers(-1074, 1024)),
)


def _zone_docs(keys):
    return st.tuples(_FINITE, _FINITE, _FINITE).map(lambda values: dict(zip(keys, values)))


@st.composite
def _matrix_docs(draw):
    # the pair shares its second and third columns, so most documents get
    # past the continuity check to the scaled checks and the coefficients
    shared = [draw(st.lists(_FINITE, min_size=2, max_size=2)) for _ in range(3)]
    first_minus, first_plus = (draw(st.lists(_FINITE, min_size=3, max_size=3)) for _ in range(2))
    return {
        "A_minus": [[first_minus[i]] + shared[i] for i in range(3)],
        "A_plus": [[first_plus[i]] + shared[i] for i in range(3)],
    }


_ZONE_DOCS = st.one_of(_zone_docs(("delta", "m", "d")), _zone_docs(("lambda", "alpha", "beta")))
_SPEC_DOCS = st.one_of(st.fixed_dictionaries({"minus": _ZONE_DOCS, "plus": _ZONE_DOCS}), _matrix_docs())


@settings(max_examples=200)
@given(_SPEC_DOCS)
def test_system_from_json_is_total_on_finite_numbers(doc):
    # every finite document gives a system or a PwlError; a RuntimeWarning
    # is an error under the suite's warning filter
    try:
        system = system_from_json(doc)
    except PwlError:
        return
    assert isinstance(system, PwlSystem)


def test_json_reports_not_focus_type_distinctly():
    doc = {
        "minus": {"delta": 3.0, "m": 3.0, "d": 1.0},
        "plus": {"delta": 3.0, "m": 3.0, "d": 1.0},
    }
    with pytest.raises(NotFocusType):
        system_from_json(doc)


def test_zone_swap_between_examples(ex1, ex2):
    assert np.abs(np.asarray(ex1.minus.matrix) - np.asarray(ex2.plus.matrix)).max() < 1e-9
    assert np.abs(np.asarray(ex1.plus.matrix) - np.asarray(ex2.minus.matrix)).max() < 1e-9
