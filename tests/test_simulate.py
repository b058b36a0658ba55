"""Orbit tracing, closure measurement, and the fixed-step oracle."""

import csv
import hashlib
import io
import math

import numpy as np
import pytest

from pwlcones import (
    ConeKind,
    Diverged,
    EigenTriple,
    MalformedInput,
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
from pwlcones.simulate import TraceSamples
from conftest import random_focus_eigen

PI = math.pi
X0_REF = np.array([0.0, 4.0, -1.3040])


def test_rk4_constant_when_matrix_zero():
    times, states = rk4_flow(np.zeros((3, 3)), [1.0, -2.0, 0.5], 1.0, 1e-2)
    assert np.allclose(states, states[0], atol=0.0)
    assert times[-1] == pytest.approx(1.0)


def _rk4_per_step(matrix, x0, n, step):
    # the plain recurrence: one product with the step matrix per state
    ha = step * np.asarray(matrix, dtype=float)
    s = np.eye(3) + ha + ha @ ha / 2.0 + ha @ ha @ ha / 6.0 + ha @ ha @ ha @ ha / 24.0
    states = np.empty((n + 1, 3))
    x = np.asarray(x0, dtype=float)
    for i in range(n + 1):
        states[i] = x
        x = s @ x
    return states


@pytest.mark.parametrize("n", [1, 2, 511, 512, 513, 2000, 100001])
def test_rk4_blocks_match_per_step_loop(ex1, n):
    step = 1e-5
    for matrix in (np.zeros((3, 3)), ex1.minus.matrix, ex1.plus.matrix):
        times, states = rk4_flow(matrix, X0_REF, n * step, step)
        ref = _rk4_per_step(matrix, X0_REF, n, step)
        assert states.shape == ref.shape == (n + 1, 3)
        assert np.array_equal(times, np.arange(n + 1) * step)
        assert np.array_equal(states[:2], ref[:2])
        gap = np.linalg.norm(states - ref, axis=1) / np.linalg.norm(ref, axis=1)
        assert gap.max() <= 1e-10


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
        assert cr.zone is (ZoneSide.MINUS if cr.point[1] > 0 else ZoneSide.PLUS)
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


@pytest.mark.parametrize(
    "option", [{"t_max": math.nan}, {"samples_per_dwell": -3}, {"samples_per_dwell": 2.5}], ids=repr
)
def test_trace_rejects_malformed_budgets(ex1, option):
    # a NaN time budget once ended in a RuntimeWarning, a negative sample
    # count in a raw ValueError from linspace
    with pytest.raises(MalformedInput):
        trace_orbit(ex1, X0_REF, **option)


def test_trace_keeps_degenerate_budgets(ex1):
    # a negative time or crossing budget stops at once; zero samples per
    # dwell still traces the crossings
    assert trace_summary(trace_orbit(ex1, X0_REF, t_max=-5.0)) == {
        "closed": False, "closure_residual": None, "period": None, "crossings": 0,
        "samples": 0, "termination": "t_max", "note": "",
    }
    assert trace_summary(trace_orbit(ex1, X0_REF, max_crossings=-1))["termination"] == "crossings"
    trace = trace_orbit(ex1, X0_REF, max_crossings=2, samples_per_dwell=0)
    assert len(trace.samples) == 0 and len(trace.crossings) == 2 and trace.closed


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


@pytest.mark.parametrize(
    "crossings, per_dwell, digest",
    [
        (2, 25, "6c19bcf246386cd9b44565fe7cebf67e7a8a6ea12f8c3736f448641e631a810a"),
        (16, 400, "943c1f8178eb60d2f6e645a3449bfbf1d4d031c19566e14fa72187f18c4995ad"),
    ],
)
def test_trace_csv_bytes_pinned(ex1, tmp_path, crossings, per_dwell, digest):
    # the digests of the CSV written when samples were stored row by row
    trace = trace_orbit(ex1, X0_REF, max_crossings=crossings, samples_per_dwell=per_dwell)
    assert len(trace.samples) == crossings * per_dwell
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_trace_sample_columns(ex1):
    trace = trace_orbit(ex1, X0_REF, max_crossings=2, samples_per_dwell=30)
    samples = trace.samples
    assert samples.t.shape == (60,) and samples.states.shape == (60, 3)
    assert samples.zones == [ZoneSide.MINUS] * 30 + [ZoneSide.PLUS] * 30
    assert samples.t[30] == trace.crossings[0].t
    assert np.allclose(samples.states[30], trace.crossings[0].point, rtol=1e-12, atol=1e-12)
    for i, (t, state, zone) in enumerate(samples):
        assert (t, zone) == (samples[i][0], samples[i][2]) == (samples.t[i], samples.zones[i])
        assert type(t) is float
        assert np.array_equal(state, samples.states[i])
    with pytest.raises(ValueError):
        samples.states[0, 0] = 1.0  # the columns are read-only


def test_trace_samples_add_block_after_read():
    # a read builds the columns and drops the blocks; blocks added after it
    # are appended on the next read, and columns read before stay as they were
    samples = TraceSamples()
    assert len(samples) == 0 and samples.t.shape == (0,) and samples.states.shape == (0, 3)
    zones = [ZoneSide.MINUS, ZoneSide.PLUS, ZoneSide.MINUS, ZoneSide.PLUS]
    blocks = [(np.arange(k, k + 3.0), np.arange(9.0 * k, 9.0 * k + 9).reshape(3, 3), zone)
              for k, zone in enumerate(zones)]
    samples.add_block(*blocks[0])
    first = samples.states
    for block in blocks[1:3]:
        samples.add_block(*block)
    assert len(samples) == 9 and samples.t.shape == (9,)
    samples.add_block(*blocks[3])
    assert len(samples) == 12
    rows = [(float(t), state, zone) for bt, bs, zone in blocks for t, state in zip(bt, bs)]
    assert samples.zones == [zone for _, _, zone in rows]
    for (t, state, zone), (t2, state2, zone2) in zip(rows, samples, strict=True):
        assert (t, zone) == (t2, zone2) and np.array_equal(state, state2)
    assert np.array_equal(first, blocks[0][1]) and not first.flags.writeable
    assert not samples.t.flags.writeable and not samples.states.flags.writeable


def _repelling_cone_orbit():
    # the cone repels transversally (multiplier ~ 576): the orbit shot from its
    # rounded ray soon misses the plane for good and grows through norms near
    # 1e154, where a sum of squares overflows, on to the divergence guard
    import pwlcones as pw

    out = pw.synthesize(pw.SynthesisInput(-1.0, 1.0, 10.0, 3.6396693605935058, 0.9198835948765263))
    cone = pw.analyze_system(out.system).cones[0]
    with pytest.raises(Diverged) as excinfo:
        trace_orbit(out.system, [0.0, 1.0, cone.u0], max_crossings=16)
    return excinfo.value.trace


def test_trace_norm_guard_past_sum_of_squares_overflow():
    trace = _repelling_cone_orbit()
    assert trace.termination == "diverged"
    assert len(trace.crossings) < 16


def test_partial_traces_export(tmp_path):
    trace = _repelling_cone_orbit()
    path = tmp_path / "diverged.csv"
    write_trace_csv(trace, path)
    lines = path.read_text().splitlines()
    rows = [ln for ln in lines[1:] if not ln.startswith("#")]
    assert len(rows) == len(trace.samples) > 0
    assert sum(ln.startswith("# crossing ") for ln in lines) == len(trace.crossings)
    t, state, zone = trace.samples[len(trace.samples) - 1]
    assert rows[-1] == f"{t:.17g},{state[0]:.17g},{state[1]:.17g},{state[2]:.17g},{zone.value}"
    # an orbit that reaches the origin before its first crossing has no samples
    decay = PwlSystem.from_eigen(
        minus=EigenTriple(lam=-0.5, alpha=-2.0, beta=1.0),
        plus=EigenTriple(lam=-0.5, alpha=-1.0, beta=1.0),
    )
    with pytest.raises(OriginReached) as excinfo:
        trace_orbit(decay, -invariant_line(decay.minus.eigen), t_max=1e5)
    assert len(excinfo.value.trace.samples) == 0
    write_trace_csv(excinfo.value.trace, path)
    assert path.read_text() == "t,x1,y,z,zone\n"


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


def _bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


def _zone_eigen(system, point):
    return (system.minus if point[1] > 0.0 else system.plus).eigen


def _trace_with_dwells(monkeypatch, system, x0, **options):
    """The trace from x0, also when a norm guard raises with it attached, and
    the length of every dwell that ended in a crossing, read from the
    crossing-time solver (a crossing time is stored as the sum of the dwell
    lengths)."""
    from pwlcones import simulate

    dwells = []

    def recording_root(*args, **kwargs):
        dwells.append(simulate_root(*args, **kwargs))
        return dwells[-1]

    simulate_root = simulate._bracket_root
    with monkeypatch.context() as patch:
        patch.setattr(simulate, "_bracket_root", recording_root)
        try:
            trace = trace_orbit(system, x0, **options)
        except (OriginReached, Diverged) as exc:
            trace = exc.trace
    return trace, dwells


def _assert_blocks_are_zone_flow(system, x0, trace, dwells, n):
    """Dwell k's block of ``n`` samples is the public zone_flow from the
    dwell's start at the same times, in the dwell's zone, bit for bit, and
    so is the crossing point that ends it (where one was recorded)."""
    starts = [np.asarray(x0, dtype=float)] + [cr.point for cr in trace.crossings]
    t_start = 0.0
    for k, (start, dwell) in enumerate(zip(starts, dwells)):
        zone = ZoneSide.MINUS if start[1] > 0.0 else ZoneSide.PLUS
        eigen = _zone_eigen(system, start)
        ts = np.linspace(0.0, dwell, n, endpoint=False)
        block = slice(k * n, (k + 1) * n)
        assert _bits(trace.samples.t[block]) == _bits(t_start + ts)
        assert _bits(trace.samples.states[block]) == _bits(zone_flow(eigen, start, ts))
        assert trace.samples.zones[block] == [zone] * n
        if k < len(trace.crossings):
            point = zone_flow(eigen, start, dwell)
            point[0] = 0.0
            assert _bits(trace.crossings[k].point) == _bits(point)
            t_start = trace.crossings[k].t


def _assert_dwells_are_zone_flow(monkeypatch, system, x0, crossings, n=37):
    """Each dwell's block of samples and its crossing point are the public
    zone_flow from the dwell's start at the same times, bit for bit."""
    trace, dwells = _trace_with_dwells(
        monkeypatch, system, x0, max_crossings=crossings, t_max=1e12, samples_per_dwell=n
    )
    assert trace.termination == "crossings"
    assert len(trace.crossings) == len(dwells) == crossings
    assert len(trace.samples) == crossings * n
    _assert_blocks_are_zone_flow(system, x0, trace, dwells, n)


def test_trace_dwells_equal_zone_flow_on_reference_systems(ex1, ex2, monkeypatch):
    _assert_dwells_are_zone_flow(monkeypatch, ex1, X0_REF, 16)
    _assert_dwells_are_zone_flow(monkeypatch, ex2, -X0_REF, 16)


def test_trace_dwells_equal_zone_flow_on_random_designs(monkeypatch):
    import pwlcones as pw

    rng = np.random.default_rng(2026)
    done = 0
    while done < 3:
        g = float(rng.uniform(0.1, 2.0)) * (1 if rng.uniform() < 0.5 else -1)
        k = float(rng.uniform(0.3, 2.0))
        c = float(rng.uniform(0.1, 10.0)) * (1 if rng.uniform() < 0.5 else -1)
        tm, tp = pw.sample_admissible_angles(g, k, c, rng)
        out = pw.synthesize(pw.SynthesisInput(gamma=g, k=k, c=c, tau_minus=tm, tau_plus=tp))
        if abs(pw.slope_map_multiplier(out.system, tm, tp)) >= 1.0:
            continue  # a repelling cone may leave the plane for good
        u0 = float(pw.entry_slope(out.system.minus.eigen, tm))
        _assert_dwells_are_zone_flow(monkeypatch, out.system, [0.0, 1.5, 1.5 * u0], 6)
        done += 1


# float.hex of the 16 crossing times of the reference orbit (ex1 from X0_REF;
# ex2 from -X0_REF is its mirror image and crosses at the same times)
REF_CROSSING_TIMES = [
    "0x1.f29e7edcc9898p-3", "0x1.20534adfe92b1p+4", "0x1.243887dc834dcp+4",
    "0x1.20534adf6c7d6p+5", "0x1.2245e95db989dp+5", "0x1.b07cf04ee47b0p+5",
    "0x1.b26f8ecd31913p+5", "0x1.20534adf2e2f6p+6", "0x1.214c9a1e54ba8p+6",
    "0x1.68681d96ea2a3p+6", "0x1.69616cd610ab8p+6", "0x1.b07cf04ea61b3p+6",
    "0x1.b1763f8dcc9c8p+6", "0x1.f891c306620c3p+6", "0x1.f98b1245888d8p+6",
    "0x1.20534adf0efeap+7",
]


def test_trace_crossing_times_pinned(ex1, ex2):
    for system, x0 in ((ex1, X0_REF), (ex2, -X0_REF)):
        trace = trace_orbit(system, x0, max_crossings=16)
        assert [cr.t.hex() for cr in trace.crossings] == REF_CROSSING_TIMES


def test_trace_crossing_past_first_turn():
    # off the plane near the stable invariant line of a slowly growing focus:
    # the first crossing comes after more than two scanned turns
    e = EigenTriple(lam=-1.0, alpha=0.05, beta=1.0)
    system = PwlSystem.from_eigen(minus=e, plus=e)
    x0 = -invariant_line(e) + np.array([0.0, 0.01, 0.0])
    n = 50
    trace = trace_orbit(system, x0, max_crossings=1, samples_per_dwell=n)
    t_cross = trace.crossings[0].t
    assert t_cross.hex() == "0x1.15c9335a55505p+3"
    from pwlcones import tau_hat

    assert t_cross > 2.0 * tau_hat(e.gamma).tau / e.beta
    ts = np.linspace(0.0, t_cross, n, endpoint=False)
    assert _bits(trace.samples.states) == _bits(zone_flow(e, x0, ts))
    point = zone_flow(e, x0, t_cross)
    point[0] = 0.0
    assert _bits(trace.crossings[0].point) == _bits(point)


def test_trace_t_max_mid_dwell_is_zone_flow(ex1):
    n = 40
    trace = trace_orbit(ex1, X0_REF, max_crossings=50, t_max=1.0, samples_per_dwell=n)
    assert trace.termination == "t_max" and len(trace.crossings) == 1
    cr = trace.crossings[0]
    ts = np.linspace(0.0, 1.0 - cr.t, n, endpoint=False)
    assert _bits(trace.samples.t[n:]) == _bits(cr.t + ts)
    assert _bits(trace.samples.states[n:]) == _bits(zone_flow(ex1.plus.eigen, cr.point, ts))


@pytest.mark.parametrize(
    "alpha, offset, sign",
    [(-1.0, 0.0, -1.0), (-1.0, 0.0, 1.0), (-0.5, 0.05, -1.0), (0.0, 0.3, 1.0)],
)
@pytest.mark.parametrize("t_max", [1e4, math.inf])
def test_trace_ends_orbits_that_never_return(alpha, offset, sign, t_max):
    # lam = 0 and alpha <= 0: x1 tends to its invariant-line part, which keeps
    # the zone's sign, while the norm stays bounded; the scan would otherwise
    # run turn after turn until t_max
    e = EigenTriple(lam=0.0, alpha=alpha, beta=1.0)
    system = PwlSystem.from_eigen(minus=e, plus=e)
    x0 = sign * invariant_line(e) + np.array([0.0, offset, 0.0])
    trace = trace_orbit(system, x0, t_max=t_max, samples_per_dwell=100)
    assert trace.termination == "no_return"
    assert trace.crossings == []
    assert "never returns" in trace.note
    assert len(trace.samples) == 100
    assert np.all(np.sign(trace.samples.states[:, 0]) == sign)
    assert trace_summary(trace)["termination"] == "no_return"


def test_trace_no_return_keeps_norm_guard_endings():
    # x1 keeps its sign here too, but the norm leaves the guard before t_max:
    # the trace still ends by the guard, as it always did
    decay = PwlSystem.from_eigen(
        minus=EigenTriple(lam=-0.5, alpha=-2.0, beta=1.0),
        plus=EigenTriple(lam=-0.5, alpha=-1.0, beta=1.0),
    )
    with pytest.raises(OriginReached):
        trace_orbit(decay, -invariant_line(decay.minus.eigen), t_max=math.inf)
    grow = PwlSystem.from_eigen(
        minus=EigenTriple(lam=0.5, alpha=-1.0, beta=1.0),
        plus=EigenTriple(lam=0.5, alpha=-1.0, beta=1.0),
    )
    with pytest.raises(Diverged):
        trace_orbit(grow, -invariant_line(grow.minus.eigen), t_max=math.inf)
    # with a budget that ends before the guard, the dwell provably never returns
    assert trace_orbit(decay, -invariant_line(decay.minus.eigen), t_max=100.0).termination == (
        "no_return"
    )


def test_trace_dwells_equal_zone_flow_across_sample_batches(ex1, monkeypatch):
    # the samples are formed a batch of dwells at a time: more dwells than two
    # batches take several flushes, each over both zones
    from pwlcones import simulate

    n = 997
    per_batch = max(1, simulate._SAMPLE_BLOCK // n)
    _assert_dwells_are_zone_flow(monkeypatch, ex1, X0_REF, 2 * per_batch + 3, n)


def test_partial_traces_carry_every_completed_dwell(monkeypatch):
    # a norm guard raises mid-trace: every dwell that ended in a crossing
    # time is sampled in the attached trace, as the zone flow from its start
    import pwlcones as pw

    n = 23
    out = pw.synthesize(pw.SynthesisInput(-1.0, 1.0, 10.0, 3.6396693605935058, 0.9198835948765263))
    x0 = [0.0, 1.0, pw.analyze_system(out.system).cones[0].u0]
    trace, dwells = _trace_with_dwells(
        monkeypatch, out.system, x0, max_crossings=16, samples_per_dwell=n
    )
    assert trace.termination == "diverged"
    assert len(trace.crossings) == len(dwells) >= 1
    assert len(trace.samples) == len(dwells) * n
    _assert_blocks_are_zone_flow(out.system, x0, trace, dwells, n)
    # a fast spiral into the origin: the last dwell ends at a crossing point
    # below the norm floor, so it is sampled but records no crossing
    e = EigenTriple(lam=-10.0, alpha=-10.0, beta=1.0)
    spiral = PwlSystem.from_eigen(minus=e, plus=e)
    x0 = [0.0, 1.0, 0.5]
    trace, dwells = _trace_with_dwells(
        monkeypatch, spiral, x0, max_crossings=1000, t_max=math.inf, samples_per_dwell=n
    )
    assert trace.termination == "origin"
    assert len(dwells) == len(trace.crossings) + 1 > 1
    assert len(trace.samples) == len(dwells) * n
    _assert_blocks_are_zone_flow(spiral, x0, trace, dwells, n)


def test_trace_tangency_after_a_dwell(ex1, monkeypatch):
    # with a wide enough tolerance the first crossing counts as grazing the
    # tangency line: the dwell's block comes first, then the grazing point
    from pwlcones import simulate

    n = 31
    monkeypatch.setattr(simulate, "TANGENCY_RTOL", 10.0)
    trace, dwells = _trace_with_dwells(monkeypatch, ex1, X0_REF, samples_per_dwell=n)
    assert trace.termination == "tangency" and "grazes" in trace.note
    assert trace.crossings == [] and len(dwells) == 1
    assert len(trace.samples) == n + 1
    assert trace.samples.zones == [ZoneSide.MINUS] * (n + 1)
    _assert_blocks_are_zone_flow(ex1, X0_REF, trace, dwells, n)
    point = zone_flow(ex1.minus.eigen, X0_REF, dwells[0])
    point[0] = 0.0
    t, state, zone = trace.samples[n]
    assert t == dwells[0] and zone is ZoneSide.MINUS
    assert _bits(state) == _bits(point)


@pytest.mark.parametrize("t_max", [5e-324, 1e-322, 1e-320])
def test_trace_samples_keep_linspace_bits_when_the_step_underflows(ex1, t_max):
    # below n * 5e-324 the sample step rounds to zero and np.linspace scales
    # its grid by another route: the samples still follow it bit for bit
    n = 400
    trace = trace_orbit(ex1, X0_REF, t_max=t_max, samples_per_dwell=n)
    assert trace.termination == "t_max" and trace.crossings == []
    ts = np.linspace(0.0, t_max, n, endpoint=False)
    assert _bits(trace.samples.t) == _bits(ts)
    assert _bits(trace.samples.states) == _bits(zone_flow(ex1.minus.eigen, X0_REF, ts))
