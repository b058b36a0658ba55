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

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .auxiliary import _bracket_root, _scalar_or_array, check_phase, g_ratio, phi_scaled, tau_hat
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
    invariant-line eigenvector.  det = beta^3 (1 + gamma^2) > 0 always."""
    lam, al, be = eigen.lam, eigen.alpha, eigen.beta
    return np.array(
        [
            [1.0, 0.0, 1.0],
            [lam + al, be, 2.0 * al],
            [lam * al, lam * be, al * al + be * be],
        ]
    )


def flow_coefficients(eigen: EigenTriple, x0) -> np.ndarray:
    """Coordinates of x0 in the modal basis; the x1 component of the flow is
    then  exp(alpha t) (c1 cos(beta t) - c2 sin(beta t)) + c3 exp(lam t)."""
    return np.linalg.solve(modal_matrix(eigen), np.asarray(x0, dtype=float))


def x1_at(eigen: EigenTriple, coeffs: np.ndarray, t):
    """First state component along the zone flow; vectorized over t."""
    t = np.asarray(t, dtype=float)
    c1, c2, c3 = coeffs
    be = eigen.beta
    out = np.exp(eigen.alpha * t) * (c1 * np.cos(be * t) - c2 * np.sin(be * t)) + c3 * np.exp(
        eigen.lam * t
    )
    if out.ndim == 0:
        return float(out)
    return out


def zone_flow(eigen: EigenTriple, x0, t):
    """Exact flow of the zone's linear field:
    exp(alpha t) . M . block-rotation(t) . M^{-1} . x0.

    ``t`` may be a scalar (returns a 3-vector) or an array of shape (n,)
    (returns an (n, 3) array of states).
    """
    m = modal_matrix(eigen)
    c = flow_coefficients(eigen, x0)
    t_arr = np.asarray(t, dtype=float)
    be = eigen.beta
    ct, st = np.cos(be * t_arr), np.sin(be * t_arr)
    ea = np.exp(eigen.alpha * t_arr)
    el = np.exp(eigen.lam * t_arr)
    w1 = ea * (c[0] * ct - c[1] * st)
    w2 = ea * (c[0] * st + c[1] * ct)
    w3 = el * c[2]
    out = (
        np.multiply.outer(w1, m[:, 0])
        + np.multiply.outer(w2, m[:, 1])
        + np.multiply.outer(w3, m[:, 2])
    )
    if t_arr.ndim == 0:
        return out.reshape(3)
    return out


def slope_increment(gamma: float, tau):
    """S(gamma, tau) = (1+gamma^2) sin(tau) / phi_scaled(gamma, tau), the
    kernel of both passage slopes: entry = lam + beta S(gamma, tau) and
    exit = lam - beta S(-gamma, tau).  With phi_scaled = phi exp(-gamma tau)
    the fraction equals (1+gamma^2) exp(gamma tau) sin(tau) / phi(gamma, tau)
    without the overflow of strong shape ratios."""
    return (1.0 + gamma * gamma) * np.sin(tau) / phi_scaled(gamma, tau)


def slope_increment_deriv(gamma: float, tau):
    """d S(gamma, tau) / d tau.  With D = phi_scaled(gamma, .), which satisfies
    D' = -gamma D + (1+gamma^2) sin, and q = (1+gamma^2) / D:
    S' = q (cos + gamma sin) - (q sin)^2.  Dividing by D twice, never by
    D*D, keeps it finite where D*D would overflow."""
    q = (1.0 + gamma * gamma) / np.asarray(phi_scaled(gamma, tau))
    st = np.sin(tau)
    return q * (np.cos(tau) + gamma * st) - (q * st) ** 2


def entry_slope(eigen: EigenTriple, tau):
    """Slope z/y of the ray that begins a passage of phase tau:
    lam + beta S(gamma, tau)."""
    return _scalar_or_array(eigen.lam + eigen.beta * slope_increment(eigen.gamma, tau))


def exit_slope(eigen: EigenTriple, tau):
    """Slope z/y where the passage of phase tau lands back on the plane:
    lam - beta S(-gamma, tau)."""
    return _scalar_or_array(eigen.lam - eigen.beta * slope_increment(-eigen.gamma, tau))


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
    """One resolved half-plane passage."""

    tau: float
    dwell_time: float
    entry_slope: float
    exit_slope: float
    radial_ratio: float
    exit_point: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.exit_point, dtype=float)
        if abs(p[0]) > PLANE_ATOL * max(1.0, float(np.linalg.norm(p))):
            raise ValueError("exit point must lie on the separation plane")
        obj = p.copy()
        obj.setflags(write=False)
        object.__setattr__(self, "exit_point", obj)


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
    if abs(p[0]) > PLANE_ATOL * max(1.0, float(np.linalg.norm(p))):
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
    return HalfMapResult(
        tau=tau,
        dwell_time=tau / eigen.beta,
        entry_slope=slope,
        exit_slope=out_slope,
        radial_ratio=ratio,
        exit_point=np.array([0.0, y_out, out_slope * y_out]),
    )


def slope_transition(side: ZoneSide, system: PwlSystem, slope_in: float) -> float:
    """The induced map on ray slopes z/y: invert the entry-slope
    parametrization at ``slope_in`` and report the exit slope."""
    eigen = _zone_of(system, side).eigen
    tau = invert_entry_slope(eigen, float(slope_in))
    return exit_slope(eigen, tau)
