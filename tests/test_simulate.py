"""Orbit tracing, closure measurement, and the fixed-step oracle."""

import csv
import io
import math

import numpy as np
import pytest

from pwlcones import (
    ConeKind,
    Diverged,
    EigenTriple,
    OriginReached,
    PwlSystem,
    ZoneSide,
    closure_check,
    half_map,
    invariant_line,
    rk4_flow,
    solve_invariant_cones,
    trace_orbit,
    trace_summary,
    write_trace_csv,
    zone_flow,
)
from conftest import random_focus_eigen

PI = math.pi
X0_REF = np.array([0.0, 4.0, -1.3040])


def test_rk4_constant_when_matrix_zero():
    times, states = rk4_flow(np.zeros((3, 3)), [1.0, -2.0, 0.5], 1.0, 1e-2)
    assert np.allclose(states, states[0], atol=0.0)
    assert times[-1] == pytest.approx(1.0)


def test_rk4_matches_closed_form_on_reference_zone(ex1):
    e = ex1.minus.eigen
    times, states = rk4_flow(ex1.minus.matrix, X0_REF, 0.24, 1e-4)
    exact = zone_flow(e, X0_REF, times)
    assert np.abs(states - exact).max() < 1e-6


def test_rk4_conserves_center_radius():
    # lam=0, alpha=0, beta=1: on the invariant plane z=0 the flow is a circle
    a = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, -1.0], [0.0, 0.0, 0.0]])
    times, states = rk4_flow(a, [1.0, 0.0, 0.0], 2 * PI, 1e-3)
    assert np.abs(states[:, 2]).max() < 1e-12
    radius = np.hypot(states[:, 0], states[:, 1])
    assert np.abs(radius - 1.0).max() < 1e-8


def test_rk4_vs_closed_form_random_systems():
    rng = np.random.default_rng(71)
    for _ in range(10):
        e = random_focus_eigen(rng, lam_scale=5.0, beta_range=(0.2, 5.0))
        system = PwlSystem.from_eigen(minus=e, plus=random_focus_eigen(rng))
        x0 = rng.normal(size=3)
        times, states = rk4_flow(system.minus.matrix, x0, 1.0, 1e-4)
        exact = zone_flow(e, x0, times)
        scale = np.maximum(1.0, np.linalg.norm(exact, axis=1))
        assert (np.linalg.norm(states - exact, axis=1) / scale).max() < 1e-6


def test_trace_reference_orbit_closes(ex1):
    trace = trace_orbit(ex1, X0_REF, max_crossings=2)
    assert len(trace.crossings) == 2
    assert trace.closed
    assert trace.closure_residual < 1e-4 * np.linalg.norm(X0_REF)
    em, ep = ex1.minus.eigen, ex1.plus.eigen
    expected_period = (PI / 4) / em.beta + (5 * PI / 4) / ep.beta
    assert trace.period == pytest.approx(expected_period, rel=1e-6)


def test_trace_mirrored_orbit_closes(ex2):
    trace = trace_orbit(ex2, -X0_REF, max_crossings=2)
    assert trace.closed
    assert trace.closure_residual < 1e-4 * np.linalg.norm(X0_REF)


def test_trace_crossing_invariants(ex1):
    trace = trace_orbit(ex1, X0_REF, max_crossings=4)
    for cr in trace.crossings:
        assert cr.point[0] == 0.0
        expected = "IntoMinus" if cr.point[1] > 0 else "IntoPlus"
        assert cr.direction.value == expected
    # zone labels match the sign of x1 between crossings
    for t, state, zone in trace.samples:
        if state[0] < -1e-12:
            assert zone is ZoneSide.MINUS
        elif state[0] > 1e-12:
            assert zone is ZoneSide.PLUS


def test_trace_samples_satisfy_zone_flow(ex1):
    trace = trace_orbit(ex1, X0_REF, max_crossings=2, samples_per_dwell=50)
    by_zone: dict = {}
    for t, state, zone in trace.samples:
        by_zone.setdefault(zone, []).append((t, state))
    for zone, pts in by_zone.items():
        eig = (ex1.minus if zone is ZoneSide.MINUS else ex1.plus).eigen
        for (t1, s1), (t2, s2) in zip(pts[:-1], pts[1:]):
            if t2 <= t1:
                continue
            prop = zone_flow(eig, s1, t2 - t1)
            assert np.linalg.norm(prop - s2) < 1e-8 * max(1.0, np.linalg.norm(s2))


def test_trace_dwell_times_match_half_map(ex1):
    trace = trace_orbit(ex1, X0_REF, max_crossings=2)
    res = half_map(ZoneSide.MINUS, ex1, X0_REF)
    assert trace.crossings[0].t == pytest.approx(res.dwell_time, rel=1e-8)
    res2 = half_map(ZoneSide.PLUS, ex1, trace.crossings[0].point)
    dwell2 = trace.crossings[1].t - trace.crossings[0].t
    assert dwell2 == pytest.approx(res2.dwell_time, rel=1e-8)


def test_trace_homogeneity(ex1):
    base = trace_orbit(ex1, X0_REF, max_crossings=2, samples_per_dwell=40)
    for mu in (1e-3, 2.0, 1e3):
        scaled = trace_orbit(ex1, mu * X0_REF, max_crossings=2, samples_per_dwell=40)
        assert len(scaled.samples) == len(base.samples)
        for (t1, s1, z1), (t2, s2, z2) in zip(base.samples, scaled.samples):
            assert t2 == pytest.approx(t1, rel=1e-10, abs=1e-12)
            assert z1 is z2
            assert np.linalg.norm(mu * s1 - s2) <= 1e-10 * max(1e-300, mu * np.linalg.norm(s1))


def test_trace_vector_fields_agree_at_crossings(ex1):
    trace = trace_orbit(ex1, X0_REF, max_crossings=3)
    am = np.asarray(ex1.minus.matrix)
    ap = np.asarray(ex1.plus.matrix)
    for cr in trace.crossings:
        # x1 = 0 exactly, and the zones share columns two and three
        assert np.array_equal(am @ cr.point, ap @ cr.point)


def test_trace_eigendirection_decay_reaches_origin():
    # slow stable invariant line (lam > alpha, both negative): the orbit hugs
    # the line into the origin and never crosses the plane
    em = EigenTriple(lam=-0.5, alpha=-2.0, beta=1.0)  # shape ratio -1.5
    ep = EigenTriple(lam=-0.5, alpha=-1.0, beta=1.0)
    system = PwlSystem.from_eigen(minus=em, plus=ep)
    x0 = -invariant_line(em)  # x1 = -1: inside the minus zone
    with pytest.raises(OriginReached) as excinfo:
        trace_orbit(system, x0, max_crossings=4, t_max=1e5)
    assert len(excinfo.value.trace.crossings) == 0
    assert excinfo.value.trace.termination == "origin"


def test_trace_tangency_start():
    system = PwlSystem.from_eigen(
        minus=EigenTriple(0.0, 0.0, 1.0), plus=EigenTriple(0.0, 0.0, 1.0)
    )
    trace = trace_orbit(system, [0.0, 0.0, 1.0])
    assert trace.termination == "tangency"
    assert trace.crossings == []


def test_trace_t_max_termination(ex1):
    trace = trace_orbit(ex1, X0_REF, max_crossings=50, t_max=1.0)
    assert trace.termination == "t_max"
    assert all(cr.t <= 1.0 for cr in trace.crossings)
    assert all(t <= 1.0 for t, _, _ in trace.samples)
    assert len(trace.crossings) == 1  # only the first passage fits the budget


def test_trace_rejects_zero_start(ex1):
    with pytest.raises(ValueError):
        trace_orbit(ex1, [0.0, 0.0, 0.0])


def test_closure_check_reference_cone(ex1):
    cone = [c for c in solve_invariant_cones(ex1).cones if c.kind is ConeKind.NON_TRIVIAL][0]
    assert closure_check(ex1, cone) < 1e-7


def test_closure_check_synthesized_systems():
    import pwlcones as pw

    rng = np.random.default_rng(72)
    done = 0
    while done < 20:
        g = float(rng.uniform(0.1, 2.0)) * (1 if rng.uniform() < 0.5 else -1)
        k = float(rng.uniform(0.3, 2.0))
        c = float(rng.uniform(0.1, 10.0)) * (1 if rng.uniform() < 0.5 else -1)
        tm, tp = pw.sample_admissible_angles(g, k, c, rng)
        out = pw.synthesize(pw.SynthesisInput(gamma=g, k=k, c=c, tau_minus=tm, tau_plus=tp))
        cones = [
            cn
            for cn in pw.solve_invariant_cones(out.system).cones
            if abs(cn.tau_minus - tm) < 1e-6
        ]
        mult = abs(pw.slope_map_multiplier(out.system, tm, tp))
        if mult > 1e6:
            continue  # transverse conditioning dominates; covered elsewhere
        assert cones and closure_check(out.system, cones[0]) < 1e-6
        done += 1


def test_trace_summary_and_csv_roundtrip(ex1, tmp_path):
    trace = trace_orbit(ex1, X0_REF, max_crossings=2, samples_per_dwell=25)
    summary = trace_summary(trace)
    assert summary["closed"] is True
    assert summary["crossings"] == 2
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    text = path.read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "t,x1,y,z,zone"
    comments = [ln for ln in lines if ln.startswith("# crossing ")]
    assert len(comments) == 2
    assert "dir=IntoPlus" in comments[0]
    rows = list(csv.reader(io.StringIO("\n".join(ln for ln in lines[1:] if not ln.startswith("#")))))
    assert len(rows) == len(trace.samples)
    # 17-significant-digit round trip: parsed floats match stored states
    t0, s0, zone0 = trace.samples[0]
    assert float(rows[0][0]) == t0
    assert float(rows[0][2]) == s0[1]
    assert rows[0][4] == zone0.value


def test_trace_norm_guard_past_sum_of_squares_overflow():
    # the cone repels transversally (multiplier ~ 576): the orbit shot from its
    # rounded ray soon misses the plane for good and grows through norms near
    # 1e154, where a sum of squares overflows, on to the divergence guard
    import pwlcones as pw

    out = pw.synthesize(pw.SynthesisInput(-1.0, 1.0, 10.0, 3.6396693605935058, 0.9198835948765263))
    cone = pw.analyze_system(out.system).cones[0]
    with pytest.raises(Diverged) as excinfo:
        trace_orbit(out.system, [0.0, 1.0, cone.u0], max_crossings=16)
    trace = excinfo.value.trace
    assert trace.termination == "diverged"
    assert len(trace.crossings) < 16


@pytest.mark.parametrize("scale", [1e-4, 1e3])
def test_time_scale_invariance(ex1, scale):
    # scaling every eigenvalue by s only rescales time: the cone phases stay put
    em, ep = ex1.minus.eigen, ex1.plus.eigen
    scaled = PwlSystem.from_eigen(
        minus=EigenTriple(lam=em.lam * scale, alpha=em.alpha * scale, beta=em.beta * scale),
        plus=EigenTriple(lam=ep.lam * scale, alpha=ep.alpha * scale, beta=ep.beta * scale),
    )
    cones = [c for c in solve_invariant_cones(scaled).cones if c.kind is ConeKind.NON_TRIVIAL]
    assert len(cones) == 1
    assert cones[0].tau_minus == pytest.approx(PI / 4, abs=1e-12)
    assert cones[0].tau_plus == pytest.approx(5 * PI / 4, abs=1e-12)
    trace = trace_orbit(scaled, [0.0, 1.0, cones[0].u0], max_crossings=2, t_max=1e12)
    assert trace.closed
    assert trace.period * scale == pytest.approx(
        trace_orbit(ex1, [0.0, 1.0, cones[0].u0 / scale], max_crossings=2).period, rel=1e-9
    )
