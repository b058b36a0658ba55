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

import numpy as np

from .auxiliary import _bracket_root, tau_hat
from .errors import Diverged, MalformedInput, OriginReached, PwlError
from .halfmaps import (ZoneSide, _flow_factors, _modal_flow, _x1_function, _x1_of, _zone_of,
                       modal_matrix, x1_at)
from .model import PwlSystem

NORM_FLOOR = 1e-300
NORM_CEIL = 1e300
CROSS_TIME_RTOL = 1e-13
CLOSURE_RTOL = 1e-6
SCAN_PER_TURN = 1024
SAMPLES_PER_DWELL = 400
TANGENCY_RTOL = 1e-12
NO_RETURN_RTOL = 1e-9
_LOG_NORM_FLOOR = math.log(NORM_FLOOR)
_LOG_NORM_CEIL = math.log(NORM_CEIL)
_LOG_EXP_SAFE = 700.0  # |lam t| up to this keeps exp(lam t) a normal float
_RK4_BLOCK = 512  # states per block of rk4_flow: S^0 ... S^(_RK4_BLOCK-1)
_SAMPLE_BLOCK = 8192  # samples per flush of a trace's pending dwells (see _PendingDwells)


@dataclass(frozen=True, eq=False)
class Crossing:
    """A plane crossing at time ``t``; ``zone`` is the zone it enters."""

    t: float
    point: np.ndarray
    zone: ZoneSide


class TraceSamples:
    """The sampled states of a trace, stored as columns.

    Each dwell adds one block: its times, its ``(n, 3)`` states and the one
    zone they lie in.  :func:`trace_orbit` forms the blocks in batches of
    dwells and adds them in dwell order, all of them before it returns or
    raises.  On read the blocks added since the last read are appended to
    the columns ``t`` (shape ``(n,)``), ``states`` (shape ``(n, 3)``) and
    ``zones`` (one ``ZoneSide`` per row) and dropped, so a trace that has
    been read holds one copy of its samples; both arrays are read-only.
    Indexing and iteration yield ``(t, state, zone)`` triples with ``t`` a
    float and ``state`` a row of ``states``.
    """

    def __init__(self):
        self._blocks: list[tuple[np.ndarray, np.ndarray, ZoneSide]] = []
        self._columns = (np.broadcast_to(0.0, (0,)), np.broadcast_to(0.0, (0, 3)), [])  # read-only

    def add_block(self, t: np.ndarray, states: np.ndarray, zone: ZoneSide) -> None:
        self._blocks.append((t, states, zone))

    def _concat(self):
        if self._blocks:
            t0, states0, zones0 = self._columns
            t = np.concatenate([t0, *(b[0] for b in self._blocks)])
            states = np.concatenate([states0, *(b[1] for b in self._blocks)])
            t.setflags(write=False)
            states.setflags(write=False)
            zones = list(zones0)
            for bt, _, zone in self._blocks:
                zones += [zone] * len(bt)
            self._columns, self._blocks = (t, states, zones), []
        return self._columns

    @property
    def t(self) -> np.ndarray:
        return self._concat()[0]

    @property
    def states(self) -> np.ndarray:
        return self._concat()[1]

    @property
    def zones(self) -> list[ZoneSide]:
        return self._concat()[2]

    def __len__(self) -> int:
        return len(self._columns[0]) + sum(len(bt) for bt, _, _ in self._blocks)

    def __getitem__(self, i: int) -> tuple[float, np.ndarray, ZoneSide]:
        t, states, zones = self._concat()
        return float(t[i]), states[i], zones[i]

    def __iter__(self):
        t, states, zones = self._concat()
        return zip(t.tolist(), states, zones)


@dataclass
class OrbitTrace:
    """Time-stamped trajectory with zone labels and plane-crossing events."""

    samples: TraceSamples = field(default_factory=TraceSamples)
    crossings: list[Crossing] = field(default_factory=list)
    closed: bool = False
    closure_residual: float | None = None
    period: float | None = None
    termination: str = ""
    note: str = ""


def rk4_flow(matrix, x0, t_end: float, step: float):
    """Classic fixed-step fourth-order integration of xdot = A x.

    For a constant matrix the four stages collapse to one constant step
    matrix S = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24, and state i is
    S^i x0.  The states are filled in blocks of b = ``_RK4_BLOCK`` (or n+1 if
    fewer): the powers S^0 ... S^(b-1) are built once by doubling (S^k
    times the first k powers gives the next k), each block is those powers
    applied to the block's first state, and S^b carries that state to the
    next block.
    Returns ``(times, states)`` with states of shape (n+1, 3).  Cross-check
    only; never the primary propagator.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    a = np.asarray(matrix, dtype=float)
    n = max(1, int(round(t_end / step)))
    ha = step * a
    s = np.eye(3) + ha + ha @ ha / 2.0 + ha @ ha @ ha / 6.0 + ha @ ha @ ha @ ha / 24.0
    # Powers and block-to-block states are carried in extended precision
    # where the platform has it, so their rounding stays well below that of
    # the per-step recurrence.
    s_ext = s.astype(np.longdouble)
    b = min(_RK4_BLOCK, n + 1)
    pows = np.empty((b, 3, 3), dtype=np.longdouble)
    pows[0] = np.eye(3)
    k = 1
    while k < b:
        j = min(k, b - k)
        pows[k : k + j] = (pows[k - 1] @ s_ext) @ pows[:j]
        k += j
    s_block = pows[-1] @ s_ext
    stacked = pows.reshape(3 * b, 3).astype(float)
    times = np.arange(n + 1) * step
    states = np.empty((n + 1, 3))
    x = np.asarray(x0, dtype=float).astype(np.longdouble)
    for i in range(0, n + 1, b):
        if i:
            x = s_block @ x
        m = min(b, n + 1 - i)
        states[i : i + m] = (stacked[: 3 * m] @ x.astype(float)).reshape(m, 3)
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


class _ZoneScan:
    """What a trace needs of one zone, formed once per trace: its spectrum,
    the scan length of one focus-plane turn, the modal matrix (as an array
    and as rows of floats) and the time factors of :func:`_flow_factors`
    on the first turn's scan grid ``ts``, which every dwell of the zone
    starts with."""

    def __init__(self, eigen):
        self.eigen = eigen
        self.chunk = tau_hat(eigen.gamma).tau / eigen.beta
        self.m = modal_matrix(eigen)
        self.rows = self.m.tolist()
        # bounds of |x| by the focus and the invariant-line terms (see _never_returns)
        norms = [math.hypot(*column) for column in self.m.T.tolist()]
        self.k_focus, self.k_line = norms[0] + norms[1], norms[2]
        self.ts = np.linspace(0.0, self.chunk, SCAN_PER_TURN + 1)
        with np.errstate(over="ignore"):
            self.factors = _flow_factors(eigen, self.ts)

    def flow(self, coeffs, t):
        """The states at ``t`` of the flow with modal coordinates ``coeffs``
        (see :func:`_modal_flow`)."""
        return _modal_flow(self.eigen, self.rows, coeffs, t)


def _never_returns(scan: _ZoneScan, coeffs, positive: bool, t: float, t_end: float) -> bool:
    """Whether x1 keeps the sign of its zone at every time in [t, t_end]
    while the state norm stays inside [NORM_FLOOR, NORM_CEIL], so that the
    scan could only run on to ``t_max`` without a crossing.

    With x1 = e^{alpha s} r cos(beta s + psi) + c3 e^{lam s}, r = hypot(c1,
    c2): if alpha <= lam, c3 has the zone's sign and r e^{alpha t} <
    |c3| e^{lam t}, then the ratio rho of the two terms only falls after t,
    and |c3| e^{lam s} (1 - rho) <= |x| <= |c3| e^{lam s} (rho k_focus +
    k_line).  Everything is compared in logs with the relative margin
    ``NO_RETURN_RTOL``, so nothing overflows; exp(lam s) must stay a normal
    float, which for an infinite ``t_end`` needs lam = 0."""
    c1, c2, c3 = coeffs
    lam, al = scan.eigen.lam, scan.eigen.alpha
    if al > lam or not (c3 > 0.0 if positive else c3 < 0.0):
        return False
    log_c3 = math.log(abs(c3))
    r = math.hypot(c1, c2)
    rho = 0.0
    if r > 0.0:
        log_r = math.log(r)
        gap = (log_c3 + lam * t) - (log_r + al * t)
        scale = 1.0 + abs(log_c3) + abs(lam * t) + abs(log_r) + abs(al * t)
        if not gap > NO_RETURN_RTOL * scale:
            return False
        rho = math.exp(-gap)
    line = (lam * t, lam * t_end) if lam else (0.0, 0.0)
    if not max(abs(line[0]), abs(line[1])) <= _LOG_EXP_SAFE:
        return False
    hi = log_c3 + max(line) + math.log(rho * scan.k_focus + scan.k_line)
    lo = log_c3 + min(line) + math.log1p(-rho)
    margin = NO_RETURN_RTOL * (1.0 + abs(log_c3) + _LOG_EXP_SAFE)
    return hi < _LOG_NORM_CEIL - margin and lo > _LOG_NORM_FLOOR + margin


class _PendingDwells:
    """The dwells of a trace whose samples are not yet formed.  Each dwell
    records its zone scan, zone, modal coordinates, start time and duration;
    :meth:`flush` forms the ``n`` states of every pending dwell, evenly
    spaced over [0, duration) as by ``np.linspace(0, duration, n,
    endpoint=False)``, with one :func:`_modal_flow` call per zone over a
    ``(dwells, n)`` time array, and adds them as blocks in dwell order.  A
    flush comes at the latest every ``_SAMPLE_BLOCK // n`` dwells (at least
    one), which bounds the temporaries of one flush."""

    def __init__(self, samples: TraceSamples, n: int):
        self.samples, self.n = samples, n
        self.limit = max(1, _SAMPLE_BLOCK // max(n, 1))
        self.dwells: list[tuple[_ZoneScan, ZoneSide, list, float, float]] = []

    def add(self, scan: _ZoneScan, zone: ZoneSide, coeffs, t_start: float, duration: float) -> None:
        self.dwells.append((scan, zone, coeffs, t_start, duration))
        if len(self.dwells) >= self.limit:
            self.flush()

    def flush(self) -> None:
        dwells, self.dwells = self.dwells, []
        blocks = [None] * len(dwells)
        for zone in {d[1] for d in dwells}:
            index = [i for i, d in enumerate(dwells) if d[1] is zone]
            coeffs, t_start, durations = map(np.array, zip(*(dwells[i][2:] for i in index)))
            # the per-dwell call's products, unless a step underflows to zero: then every
            # row takes linspace's other route, but only a lone dwell is that short
            ts = np.linspace(0.0, durations, self.n, endpoint=False, axis=1)
            t = t_start[:, None] + ts
            states = dwells[index[0]][0].flow(coeffs.T[:, :, None], ts)  # (3, k, 1) columns
            for j, i in enumerate(index):
                blocks[i] = (t[j], states[j], zone)
        for block in blocks:
            self.samples.add_block(*block)


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
    dwell.  Each dwell solves for its modal coordinates once; each zone's
    first-turn scan grid and time factors are formed once per trace.  The
    samples of completed dwells are formed in batches, one flow evaluation
    per zone and batch (see :class:`_PendingDwells`), and all of them
    before the trace returns or raises, so partial traces carry them too.
    Closure is declared at the first crossing that returns to the starting
    plane point (same sign of y) within ``CLOSURE_RTOL`` relative; the gap
    to that first sign-matching return is recorded either way.

    Raises :class:`OriginReached` / :class:`Diverged` (with the partial
    trace attached) when the state norm leaves [NORM_FLOOR, NORM_CEIL], and
    ends with ``termination='tangency'`` if a crossing lands on y = 0.  A
    dwell that after some full turn provably never reaches the plane before
    ``t_max`` while its norm stays inside the guard (see
    :func:`_never_returns`) ends with ``termination='no_return'``, sampled
    up to that turn; without this an infinite ``t_max`` would scan forever.
    Raises :class:`MalformedInput` for a NaN ``t_max``, a non-finite ``x0``
    or a ``samples_per_dwell`` that is not an integer >= 0.
    """
    if math.isnan(t_max):
        raise MalformedInput("t_max must be a number, got nan")
    if not isinstance(samples_per_dwell, (int, np.integer)) or samples_per_dwell < 0:
        raise MalformedInput(f"samples_per_dwell must be an integer >= 0, got {samples_per_dwell!r}")
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (3,):
        raise ValueError("x0 must be a 3-vector")
    if not np.isfinite(x).all():
        raise MalformedInput(f"x0 must be finite, got {x.tolist()!r}")
    norm0 = math.hypot(*x)
    if norm0 == 0.0:
        raise ValueError("x0 must be nonzero")
    trace = OrbitTrace()
    on_plane = abs(x[0]) <= 1e-10 * norm0
    ref = x.copy() if on_plane else None
    ref_sign = float(np.sign(x[1])) if ref is not None else 0.0

    zone = _zone_of_state(x)
    if zone is None:
        trace.samples.add_block(np.zeros(1), x[None, :], ZoneSide.PLUS)
        trace.termination = "tangency"
        trace.note = "start lies on the tangency line y = 0"
        return trace

    scans: dict[ZoneSide, _ZoneScan] = {}
    pending = _PendingDwells(trace.samples, samples_per_dwell)
    t_global = 0.0
    try:
        while True:
            if len(trace.crossings) >= max_crossings:
                trace.termination = "crossings"
                return trace
            if t_global >= t_max:
                trace.termination = "t_max"
                return trace
            scan = scans.get(zone)
            if scan is None:
                scan = scans[zone] = _ZoneScan(_zone_of(system, zone).eigen)
            eigen, chunk = scan.eigen, scan.chunk
            coeffs = np.linalg.solve(scan.m, x).tolist()  # the dwell's modal coordinates
            inside_positive = zone is ZoneSide.PLUS
            t_cross = math.inf
            t_off = 0.0
            with np.errstate(over="ignore", invalid="ignore"):
                while t_cross == math.inf and t_global + t_off < t_max:
                    # later turns built from these vectors move crossings by ulps, so they
                    # are rescanned
                    if t_off == 0.0:
                        ts = scan.ts
                        x1 = _x1_of(coeffs, *scan.factors)
                    else:
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
                            _x1_function(eigen, coeffs),
                            lo,
                            hi,
                            1.0 if inside_positive else -1.0,
                            tol=CROSS_TIME_RTOL * max(1.0, t_global + hi),
                        )
                    else:
                        t_off += chunk
                        _check_norm(trace, math.hypot(*scan.flow(coeffs, t_off)), t_global + t_off)
                        t_end = t_max - t_global + chunk  # the last scanned turn ends before it
                        if _never_returns(scan, coeffs, inside_positive, t_off, t_end):
                            pending.add(scan, zone, coeffs, t_global, t_off)
                            trace.termination = "no_return"
                            trace.note = (
                                f"x1 keeps its sign from t={t_global + t_off!r} on: "
                                "the orbit never returns to the plane"
                            )
                            return trace
            if t_global + t_cross > t_max:
                pending.add(scan, zone, coeffs, t_global, t_max - t_global)
                trace.termination = "t_max"
                return trace
            pending.add(scan, zone, coeffs, t_global, t_cross)

            point = scan.flow(coeffs, t_cross)
            point[0] = 0.0
            t_global += t_cross
            norm_cross = _check_norm(trace, math.hypot(*point), t_global)
            if abs(point[1]) <= TANGENCY_RTOL * norm_cross:
                pending.flush()  # the grazing point comes after the dwell's samples
                trace.samples.add_block(np.array([t_global]), np.array([point]), zone)
                trace.termination = "tangency"
                trace.note = f"crossing at t={t_global!r} grazes the tangency line y = 0"
                return trace
            x = np.array(point)
            zone = ZoneSide.MINUS if point[1] > 0.0 else ZoneSide.PLUS
            trace.crossings.append(Crossing(t=t_global, point=x, zone=zone))
            first_return = ref is not None and trace.closure_residual is None
            if first_return and float(np.sign(point[1])) == ref_sign:
                gap = math.hypot(*(x - ref))
                trace.closure_residual = gap
                trace.period = t_global
                trace.closed = gap <= CLOSURE_RTOL * norm0
    finally:
        pending.flush()  # every completed dwell is sampled, also when a norm guard raises


def closure_check(system: PwlSystem, cone) -> float:
    """Geometric closure of a solved cone: start at (0, 1, u0), run both
    passages with the exact flow, return the gap to the starting point (the
    trace's ``closure_residual``).  Center cones must land below 1e-7 here."""
    x0 = np.array([0.0, 1.0, float(cone.u0)])
    trace = trace_orbit(system, x0, max_crossings=2, t_max=1e12)
    if len(trace.crossings) < 2:
        raise PwlError(
            f"cone orbit produced {len(trace.crossings)} crossings, expected 2 "
            f"(termination {trace.termination!r})"
        )
    return trace.closure_residual


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
    samples = trace.samples
    rows = np.column_stack([samples.t, samples.states]).tolist()
    with open(path, "w") as fh:
        fh.write("t,x1,y,z,zone\n")
        fh.writelines(
            f"{t:.17g},{x1:.17g},{y:.17g},{z:.17g},{zone.value}\n"
            for (t, x1, y, z), zone in zip(rows, samples.zones)
        )
        for cr in trace.crossings:
            fh.write(
                f"# crossing t={cr.t:.17g} x=0,y={cr.point[1]:.17g},"
                f"z={cr.point[2]:.17g} dir=Into{cr.zone.value}\n"
            )
