"""Closed-form zone flows and the parametric half-plane passage maps.

A trajectory that leaves the separation plane x1 = 0 at a point with y != 0
sweeps through one zone and (when the zone's geometry allows) comes back to
the plane after a rotation phase tau measured in the zone's focus plane.
Entry slope z/y, exit slope, and the radial stretch of y are all explicit
functions of tau, which turns each half-plane passage into a one-parameter
family and the passage map into a parameter inversion.

Both zones share one parametric shape: negating a solution maps a passage
through x1 >= 0 onto a passage through x1 <= 0 and leaves slopes and ratios
unchanged, so the formulas below apply to either side with that zone's
spectrum plugged in.  The ``ZoneSide`` argument only selects which zone's
data to use and which sign of y is admissible at entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .auxiliary import (_bracket_root, _finite_float, _scalar_or_array, check_phase, g_ratio,
                        phi_scaled, tau_hat)
from .errors import NoReturnFound, WrongHalfPlane
from .model import EigenTriple, PwlSystem

EDGE_GUARD = 1e-9        # relative inset of the scanned (0, tau_hat) interval
EDGE_TAIL = 1e-15        # innermost relative offset of the log-spaced tails
INVERSION_GRID = 2048
_TAIL_POINTS = 33
PLANE_ATOL = 1e-10


class ZoneSide(Enum):
    MINUS = "Minus"
    PLUS = "Plus"


def modal_matrix(eigen: EigenTriple) -> np.ndarray:
    """Columns: real/imaginary parts spanning the focus plane, then the
    invariant-line eigenvector.  det = beta^3 (1 + gamma^2) > 0 always.
    The modal coordinates c of a state x solve M c = x."""
    lam, al, be = eigen.lam, eigen.alpha, eigen.beta
    return np.array(
        [
            [1.0, 0.0, 1.0],
            [lam + al, be, 2.0 * al],
            [lam * al, lam * be, al * al + be * be],
        ]
    )


def _flow_factors(eigen: EigenTriple, t):
    """The time factors exp(alpha t), cos(beta t), sin(beta t), exp(lam t)
    of the zone flow.  An array ``t`` gives arrays; a float ``t`` gives
    floats from ``math.cos``/``math.sin`` and numpy's ``exp``, the bits of
    the array path."""
    al, be, lam = eigen.alpha, eigen.beta, eigen.lam
    if isinstance(t, float):
        return float(np.exp(al * t)), math.cos(be * t), math.sin(be * t), float(np.exp(lam * t))
    return np.exp(al * t), np.cos(be * t), np.sin(be * t), np.exp(lam * t)


def _x1_of(coeffs, ea, ct, st, el):
    """x1 = exp(alpha t) (c1 cos(beta t) - c2 sin(beta t)) + c3 exp(lam t)
    from the modal coordinates and the time factors of :func:`_flow_factors`."""
    c1, c2, c3 = coeffs
    return ea * (c1 * ct - c2 * st) + c3 * el


def _x1_function(eigen: EigenTriple, coeffs):
    """x1 along the zone flow as a function of a float t, on Python floats.
    It raises ``OverflowError`` where an exponential leaves the float range,
    so callers use it only between times at which x1 is known to be finite
    (each exponential is monotone in t)."""
    al, be, lam = eigen.alpha, eigen.beta, eigen.lam
    c1, c2, c3 = coeffs

    def x1(t: float) -> float:
        return math.exp(al * t) * (c1 * math.cos(be * t) - c2 * math.sin(be * t)) + c3 * math.exp(
            lam * t
        )

    return x1


def x1_at(eigen: EigenTriple, coeffs, t):
    """First state component along the zone flow; vectorized over t (a
    scalar ``t`` gives a float).  For a float function of t, on Python
    floats, see :func:`_x1_function`."""
    out = _x1_of(coeffs, *_flow_factors(eigen, np.asarray(t, dtype=float)))
    return float(out) if out.ndim == 0 else out


def _modal_flow(eigen: EigenTriple, rows, coeffs, t):
    """The state at ``t`` of the zone flow exp(alpha t) M R(beta t) c from
    the modal coordinates ``coeffs`` = c, with ``rows`` the rows of
    M = modal_matrix(eigen).  A float ``t`` gives a list of three floats; an
    array ``t`` of shape (n,) or () gives states of shape (n, 3) or (3,)."""
    ea, ct, st, el = _flow_factors(eigen, t)
    c1, c2, c3 = coeffs
    w1 = ea * (c1 * ct - c2 * st)
    w2 = ea * (c1 * st + c2 * ct)
    w3 = el * c3
    state = [w1 * a + w2 * b + w3 * d for a, b, d in rows]
    return state if isinstance(t, float) else np.stack(state, axis=-1)


def zone_flow(eigen: EigenTriple, x0, t):
    """Exact flow of the zone's linear field:
    exp(alpha t) . M . block-rotation(t) . M^{-1} . x0.

    ``t`` may be a scalar (returns a 3-vector) or an array of shape (n,)
    (returns an (n, 3) array of states).
    """
    m = modal_matrix(eigen)
    c = np.linalg.solve(m, np.asarray(x0, dtype=float))
    return _modal_flow(eigen, m.tolist(), c.tolist(), np.asarray(t, dtype=float))


def slope_increment(gamma: float, tau):
    """S(gamma, tau) = (1+gamma^2) sin(tau) / phi_scaled(gamma, tau), the
    kernel of both passage slopes: entry = lam + beta S(gamma, tau) and
    exit = lam - beta S(-gamma, tau).  With phi_scaled = phi exp(-gamma tau)
    the fraction equals (1+gamma^2) exp(gamma tau) sin(tau) / phi(gamma, tau)
    without the overflow of strong shape ratios.  A finite 0-d tau takes a
    Python-float path, as in phi_scaled; with an array tau, gamma may be an
    array that broadcasts against it."""
    t = _finite_float(tau)
    if t is None:
        return (1.0 + gamma * gamma) * np.sin(tau) / phi_scaled(gamma, tau)
    d = phi_scaled(gamma, t)
    # a zero divisor divides as numpy does: +/-inf or nan, with its warning
    return (1.0 + gamma * gamma) * math.sin(t) / (d or np.float64(d))


def slope_increment_deriv(gamma: float, tau):
    """d S(gamma, tau) / d tau.  With D = phi_scaled(gamma, .), which satisfies
    D' = -gamma D + (1+gamma^2) sin, and q = (1+gamma^2) / D:
    S' = q (cos + gamma sin) - (q sin)^2.  Dividing by D twice, never by
    D*D, keeps it finite where D*D would overflow."""
    t = _finite_float(tau)
    if t is None:
        d, st, ct = np.asarray(phi_scaled(gamma, tau)), np.sin(tau), np.cos(tau)
    else:
        d, st, ct = phi_scaled(gamma, t), math.sin(t), math.cos(t)
        d = d or np.float64(d)  # a zero divisor divides as numpy does
    q = (1.0 + gamma * gamma) / d
    qs = q * st
    return q * (ct + gamma * st) - qs * qs


def _passage_slope(lam, signed_beta, s):
    """lam + signed_beta * s: the entry slope with beta and S(gamma, tau),
    the exit slope with -beta and S(-gamma, tau).  Adding -beta*S gives the
    bits of subtracting beta*S, so every slope is formed here."""
    return lam + signed_beta * s


def entry_slope(eigen: EigenTriple, tau):
    """Slope z/y of the ray that begins a passage of phase tau:
    lam + beta S(gamma, tau)."""
    return _scalar_or_array(
        _passage_slope(eigen.lam, eigen.beta, slope_increment(eigen.gamma, tau))
    )


def exit_slope(eigen: EigenTriple, tau):
    """Slope z/y where the passage of phase tau lands back on the plane:
    lam - beta S(-gamma, tau)."""
    return _scalar_or_array(
        _passage_slope(eigen.lam, -eigen.beta, slope_increment(-eigen.gamma, tau))
    )


def passage_slope_rows(eigens, taus) -> np.ndarray:
    """Entry and exit slopes of each zone ``eigens[k]`` over its phases
    ``taus[k]`` (all of one length), from one slope_increment call over the
    stacked rows; row 2k is entry_slope(eigens[k], taus[k]) and row 2k+1
    exit_slope(eigens[k], taus[k]), bit for bit."""
    # one column vector each of gamma, lam and beta, signed for the exit rows
    gammas, lams, signed_betas = np.array(
        [(sign * e.gamma, e.lam, sign * e.beta) for e in eigens for sign in (1.0, -1.0)]
    ).T[:, :, None]
    s = slope_increment(gammas, np.repeat(np.asarray(taus, dtype=float), 2, axis=0))
    return _passage_slope(lams, signed_betas, s)


def entry_slope_deriv(eigen: EigenTriple, tau):
    """d(entry_slope)/d(tau) = beta S'(gamma, tau)."""
    return _scalar_or_array(eigen.beta * slope_increment_deriv(eigen.gamma, tau))


def exit_slope_deriv(eigen: EigenTriple, tau):
    """d(exit_slope)/d(tau) = -beta S'(-gamma, tau)."""
    return _scalar_or_array(-eigen.beta * slope_increment_deriv(-eigen.gamma, tau))


def slope_ratios(eigen: EigenTriple, tau):
    """(entry slope, exit slope) of the passage with phase tau; the formula
    pair is the same for both sides (see the module docstring)."""
    check_phase(eigen.gamma, tau)
    return entry_slope(eigen, tau), exit_slope(eigen, tau)


def radial_ratio(eigen: EigenTriple, tau):
    """Signed stretch y_out/y_in of one passage:
    -(phi(-gamma, tau)/phi(gamma, tau)) exp((gamma + alpha/beta) tau).

    Since gamma + alpha/beta = 2 gamma + lam/beta, this is -g_ratio times
    exp(lam tau / beta).  Always negative: the passage lands on the opposite
    half of the plane.
    """
    t = np.asarray(tau, dtype=float)
    growth = np.asarray(g_ratio(eigen.gamma, t))
    return _scalar_or_array(-growth * np.exp(eigen.lam / eigen.beta * t))


def _scan_grid(th: float) -> np.ndarray:
    lo = EDGE_GUARD * th
    hi = th * (1.0 - EDGE_GUARD)
    head = np.geomspace(EDGE_TAIL * th, lo, _TAIL_POINTS)[:-1]
    body = np.linspace(lo, hi, INVERSION_GRID)
    tail = th - np.geomspace(EDGE_TAIL * th, EDGE_GUARD * th, _TAIL_POINTS)[::-1][1:]
    return np.concatenate([head, body, tail])


def invert_entry_slope(eigen: EigenTriple, slope: float) -> float:
    """Smallest tau in (0, tau_hat) whose entry slope equals ``slope``.

    Sign changes of entry_slope - slope are located on a dense grid (with
    log-spaced refinement toward both ends, where the slope diverges) and the
    first bracket is bisected, then polished by guarded Newton steps.  No
    monotonicity of the slope parametrization is assumed.  Raises
    :class:`NoReturnFound` when no bracket exists -- for zones with negative
    shape ratio that is a genuine outcome: slopes below the reachable range
    belong to rays whose forward orbit never meets the plane again.
    """
    th = tau_hat(eigen.gamma).tau
    taus = _scan_grid(th)
    vals = entry_slope(eigen, taus) - slope
    exact = np.nonzero(vals == 0.0)[0]
    signs = np.sign(vals)
    flips = np.nonzero((signs[1:] * signs[:-1]) < 0.0)[0]
    first_exact = int(exact[0]) if exact.size else None
    first_flip = int(flips[0]) if flips.size else None
    if first_exact is not None and (first_flip is None or first_exact <= first_flip):
        root = float(taus[first_exact])
    elif first_flip is not None:
        i = first_flip
        root = _bracket_root(
            lambda t: entry_slope(eigen, t) - slope,
            float(taus[i]),
            float(taus[i + 1]),
            float(vals[i]),
            lambda t: entry_slope_deriv(eigen, t),
        )
    else:
        lo_val = float(vals[0]) + slope
        hi_val = float(vals[-1]) + slope
        raise NoReturnFound(
            f"no passage phase matches entry slope {slope!r} "
            f"(scanned slope range [{min(lo_val, hi_val)!r}, {max(lo_val, hi_val)!r}] "
            f"for gamma={eigen.gamma!r})"
        )
    return float(root)


@dataclass(frozen=True, eq=False)
class HalfMapResult:
    """One resolved half-plane passage; ``exit_point`` is read-only and has
    x1 = 0 exactly."""

    tau: float
    dwell_time: float
    entry_slope: float
    exit_slope: float
    radial_ratio: float
    exit_point: np.ndarray


def _zone_of(system: PwlSystem, side: ZoneSide):
    return system.minus if side is ZoneSide.MINUS else system.plus


def half_map(side: ZoneSide, system: PwlSystem, point) -> HalfMapResult:
    """Carry a separation-plane point through one zone back to the plane.

    The minus side accepts y > 0 (the flow enters x1 < 0 there, since
    dx1/dt = -y on the plane), the plus side accepts y < 0.  Points with
    y = 0 sit on the tangency line and are rejected.
    """
    p = np.asarray(point, dtype=float)
    if p.shape != (3,):
        raise WrongHalfPlane("point must be a 3-vector on the separation plane")
    if abs(p[0]) > PLANE_ATOL * max(1.0, math.hypot(*p)):
        raise WrongHalfPlane(f"point must lie on x1 = 0 (got x1={p[0]!r})")
    y, z = float(p[1]), float(p[2])
    if side is ZoneSide.MINUS and not y > 0.0:
        raise WrongHalfPlane(f"minus-side passage needs y > 0, got y={y!r}")
    if side is ZoneSide.PLUS and not y < 0.0:
        raise WrongHalfPlane(f"plus-side passage needs y < 0, got y={y!r}")
    zone = _zone_of(system, side)
    eigen = zone.eigen
    slope = z / y
    tau = invert_entry_slope(eigen, slope)
    out_slope = exit_slope(eigen, tau)
    ratio = radial_ratio(eigen, tau)
    y_out = ratio * y
    exit_point = np.array([0.0, y_out, out_slope * y_out])
    exit_point.setflags(write=False)
    return HalfMapResult(
        tau=tau,
        dwell_time=tau / eigen.beta,
        entry_slope=slope,
        exit_slope=out_slope,
        radial_ratio=ratio,
        exit_point=exit_point,
    )


def slope_transition(side: ZoneSide, system: PwlSystem, slope_in: float) -> float:
    """The induced map on ray slopes z/y: invert the entry-slope
    parametrization at ``slope_in`` and report the exit slope."""
    eigen = _zone_of(system, side).eigen
    tau = invert_entry_slope(eigen, float(slope_in))
    return exit_slope(eigen, tau)
