"""Independent validation: orbit tracing, closure measurement, RK4 oracle.

Primary propagation between plane crossings uses the exact closed-form zone
flow -- the fields are linear per zone, so numerical drift would be
self-inflicted.  The fixed-step integrator exists only to catch algebra
errors in the modal construction.  Crossing times come from a coarse scan of
x1 along the closed-form flow followed by bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .auxiliary import _bracket_root, tau_hat
from .errors import Diverged, OriginReached, PwlError
from .halfmaps import ZoneSide, _zone_of, flow_coefficients, x1_at, zone_flow
from .model import PwlSystem

NORM_FLOOR = 1e-300
NORM_CEIL = 1e300
CROSS_TIME_RTOL = 1e-13
CLOSURE_RTOL = 1e-6
SCAN_PER_TURN = 1024
SAMPLES_PER_DWELL = 400
TANGENCY_RTOL = 1e-12


class CrossDir(Enum):
    INTO_MINUS = "IntoMinus"
    INTO_PLUS = "IntoPlus"


@dataclass(frozen=True, eq=False)
class Crossing:
    t: float
    point: np.ndarray
    direction: CrossDir


@dataclass
class OrbitTrace:
    """Time-stamped trajectory with zone labels and plane-crossing events."""

    samples: list[tuple[float, np.ndarray, ZoneSide]] = field(default_factory=list)
    crossings: list[Crossing] = field(default_factory=list)
    closed: bool = False
    closure_residual: float | None = None
    period: float | None = None
    termination: str = ""
    note: str = ""


def rk4_flow(matrix, x0, t_end: float, step: float):
    """Classic fixed-step fourth-order integration of xdot = A x.

    For a constant matrix the four stages collapse to one constant step
    matrix I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24 applied per step.
    Returns ``(times, states)`` with states of shape (n+1, 3).  Cross-check
    only; never the primary propagator.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    a = np.asarray(matrix, dtype=float)
    n = max(1, int(round(t_end / step)))
    ha = step * a
    s = np.eye(3) + ha + ha @ ha / 2.0 + ha @ ha @ ha / 6.0 + ha @ ha @ ha @ ha / 24.0
    times = np.arange(n + 1) * step
    states = np.empty((n + 1, 3))
    x = np.asarray(x0, dtype=float).copy()
    for i in range(n + 1):
        states[i] = x
        x = s @ x
    return times, states


def _zone_of_state(x: np.ndarray) -> ZoneSide | None:
    if x[0] < 0.0:
        return ZoneSide.MINUS
    if x[0] > 0.0:
        return ZoneSide.PLUS
    if x[1] > 0.0:
        return ZoneSide.MINUS
    if x[1] < 0.0:
        return ZoneSide.PLUS
    return None  # tangency line


def _check_norm(trace: OrbitTrace, n: float, t: float) -> float:
    """Abort the trace when the state norm ``n`` leaves [NORM_FLOOR, NORM_CEIL].
    Callers take norms with math.hypot, which scales internally and so stays
    finite up to the ceiling, where a sum of squares would overflow."""
    if n < NORM_FLOOR:
        trace.termination = "origin"
        raise OriginReached(f"trajectory norm fell below {NORM_FLOOR} at t={t!r}", trace=trace)
    if n > NORM_CEIL:
        trace.termination = "diverged"
        raise Diverged(f"trajectory norm exceeded {NORM_CEIL} at t={t!r}", trace=trace)
    return n


def _sample_dwell(
    trace: OrbitTrace, eigen, x, zone: ZoneSide, t_start: float, duration: float, n: int
) -> None:
    """Append ``n`` states of the dwell from ``x`` at ``t_start``, evenly
    spaced over [0, duration)."""
    ts = np.linspace(0.0, duration, n, endpoint=False)
    states = zone_flow(eigen, x, ts)
    trace.samples.extend((t_start + float(t), states[i].copy(), zone) for i, t in enumerate(ts))


def trace_orbit(
    system: PwlSystem,
    x0,
    max_crossings: int = 16,
    t_max: float = 1e4,
    samples_per_dwell: int = SAMPLES_PER_DWELL,
) -> OrbitTrace:
    """Trace the orbit through zone passages until a crossing budget, a time
    budget, or a degeneracy stops it.

    Within each zone the closed-form flow is scanned one focus-plane turn at
    a time (the passage phase of a plane-to-plane dwell is bounded by the
    zone's kernel zero, so plane starts cross within the first turn), the
    first sign change of x1 is bisected to relative time tolerance
    ``CROSS_TIME_RTOL``, and ``samples_per_dwell`` states are emitted per
    dwell.  Closure is declared at the first crossing that returns to the
    starting plane point (same sign of y) within ``CLOSURE_RTOL`` relative;
    the gap to that first sign-matching return is recorded either way.

    Raises :class:`OriginReached` / :class:`Diverged` (with the partial
    trace attached) when the state norm leaves [NORM_FLOOR, NORM_CEIL], and
    ends with ``termination='tangency'`` if a crossing lands on y = 0.
    """
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (3,):
        raise ValueError("x0 must be a 3-vector")
    norm0 = math.hypot(*x)
    if norm0 == 0.0:
        raise ValueError("x0 must be nonzero")
    trace = OrbitTrace()
    on_plane = abs(x[0]) <= 1e-10 * norm0
    ref = x.copy() if on_plane else None
    ref_sign = float(np.sign(x[1])) if ref is not None else 0.0

    zone = _zone_of_state(x)
    if zone is None:
        trace.samples.append((0.0, x.copy(), ZoneSide.PLUS))
        trace.termination = "tangency"
        trace.note = "start lies on the tangency line y = 0"
        return trace

    t_global = 0.0
    while True:
        if len(trace.crossings) >= max_crossings:
            trace.termination = "crossings"
            return trace
        if t_global >= t_max:
            trace.termination = "t_max"
            return trace
        eigen = _zone_of(system, zone).eigen
        chunk = tau_hat(eigen.gamma).tau / eigen.beta
        coeffs = flow_coefficients(eigen, x)
        inside_positive = zone is ZoneSide.PLUS
        t_cross = math.inf
        t_off = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            while t_cross == math.inf and t_global + t_off < t_max:
                ts = np.linspace(t_off, t_off + chunk, SCAN_PER_TURN + 1)
                x1 = x1_at(eigen, coeffs, ts)
                finite = np.isfinite(x1)
                if not finite.all():  # the state left the float range in this turn
                    _check_norm(trace, math.inf, t_global + float(ts[np.argmin(finite)]))
                left = x1 < 0.0 if inside_positive else x1 > 0.0
                left[0] = False
                if left.any():
                    k = int(np.argmax(left))
                    lo, hi = float(ts[k - 1]), float(ts[k])
                    t_cross = _bracket_root(
                        lambda t: x1_at(eigen, coeffs, t),
                        lo,
                        hi,
                        1.0 if inside_positive else -1.0,
                        tol=CROSS_TIME_RTOL * max(1.0, t_global + hi),
                    )
                else:
                    t_off += chunk
                    edge = zone_flow(eigen, x, t_off)
                    _check_norm(trace, math.hypot(*edge), t_global + t_off)
        if t_global + t_cross > t_max:
            _sample_dwell(trace, eigen, x, zone, t_global, t_max - t_global, samples_per_dwell)
            trace.termination = "t_max"
            return trace
        _sample_dwell(trace, eigen, x, zone, t_global, t_cross, samples_per_dwell)

        point = zone_flow(eigen, x, t_cross)
        point[0] = 0.0
        t_global += t_cross
        norm_cross = _check_norm(trace, math.hypot(*point), t_global)
        if abs(point[1]) <= TANGENCY_RTOL * norm_cross:
            trace.samples.append((t_global, point.copy(), zone))
            trace.termination = "tangency"
            trace.note = f"crossing at t={t_global!r} grazes the tangency line y = 0"
            return trace
        direction = CrossDir.INTO_MINUS if point[1] > 0.0 else CrossDir.INTO_PLUS
        trace.crossings.append(Crossing(t=t_global, point=point.copy(), direction=direction))
        if ref is not None and trace.closure_residual is None and float(np.sign(point[1])) == ref_sign:
            gap = math.hypot(*(point - ref))
            trace.closure_residual = gap
            trace.period = t_global
            trace.closed = gap <= CLOSURE_RTOL * norm0
        zone = ZoneSide.MINUS if direction is CrossDir.INTO_MINUS else ZoneSide.PLUS
        x = point


def closure_check(system: PwlSystem, cone) -> float:
    """Geometric closure of a solved cone: start at (0, 1, u0), run both
    passages with the exact flow, return the gap to the starting point.
    Center cones must land below 1e-7 here."""
    x0 = np.array([0.0, 1.0, float(cone.u0)])
    trace = trace_orbit(system, x0, max_crossings=2, t_max=1e12)
    if len(trace.crossings) < 2:
        raise PwlError(
            f"cone orbit produced {len(trace.crossings)} crossings, expected 2 "
            f"(termination {trace.termination!r})"
        )
    return float(np.linalg.norm(trace.crossings[-1].point - x0))


def trace_summary(trace: OrbitTrace) -> dict:
    return {
        "closed": trace.closed,
        "closure_residual": trace.closure_residual,
        "period": trace.period,
        "crossings": len(trace.crossings),
        "samples": len(trace.samples),
        "termination": trace.termination,
        "note": trace.note,
    }


def write_trace_csv(trace: OrbitTrace, path) -> None:
    """Columns t,x1,y,z,zone at 17 significant digits; crossings appended as
    comment lines."""
    with open(path, "w") as fh:
        fh.write("t,x1,y,z,zone\n")
        for t, state, zone in trace.samples:
            fh.write(
                f"{t:.17g},{state[0]:.17g},{state[1]:.17g},{state[2]:.17g},{zone.value}\n"
            )
        for cr in trace.crossings:
            fh.write(
                f"# crossing t={cr.t:.17g} x=0,y={cr.point[1]:.17g},"
                f"z={cr.point[2]:.17g} dir={cr.direction.value}\n"
            )
