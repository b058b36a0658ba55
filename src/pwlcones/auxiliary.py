"""Scalar kernel underlying every closed-form passage formula.

The analysis of a spiral passage through one half-space reduces to a single
scalar function of the zone's dimensionless shape ratio ``gamma`` and the
rotation angle ``tau`` accumulated during the passage::

    phi(gamma, tau) = 1 - exp(gamma*tau) * (cos(tau) - gamma*sin(tau))

Its first positive zero ``tau_hat(gamma)`` bounds the admissible passage
phase, and ``g_ratio`` (the phi ratio at opposite shape signs times an
exponential) carries the radial growth of one passage.  Useful identities:

* ``phi(gamma, tau) == phi(-gamma, -tau)``
* ``d(phi)/d(tau) == (1 + gamma**2) * exp(gamma*tau) * sin(tau)``
* ``phi(0, tau) == 1 - cos(tau)``, so ``tau_hat(0) == 2*pi``
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError

# Below this |tau| the direct formula loses roughly eight digits to
# cancellation, so a fifth-order series takes over.
SERIES_CUTOFF = 1e-4

ROOT_RESIDUAL_TOL = 1e-12
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _scalar_or_array(value):
    arr = np.asarray(value)
    return float(arr) if arr.ndim == 0 else arr


def _phi_series(g, t):
    # phi = (1+g^2) t^2 [1/2 + g t/3 + (3g^2-1) t^2/24 + g(g^2-1) t^3/30] + O(t^6)
    return (1.0 + g * g) * t * t * (
        0.5
        + g * t / 3.0
        + (3.0 * g * g - 1.0) * t * t / 24.0
        + g * (g * g - 1.0) * t * t * t / 30.0
    )


def _phi_closed(g, t):
    # Algebraically identical to 1 - e^{gt}(cos t - g sin t); grouping the
    # constant with cos via 1 - cos t = 2 sin^2(t/2) and using expm1 keeps
    # full relative accuracy down to the series switchover.
    return (
        2.0 * np.sin(0.5 * t) ** 2
        - np.expm1(g * t) * np.cos(t)
        + g * np.exp(g * t) * np.sin(t)
    )


def phi(gamma, tau):
    """Evaluate the passage kernel; accepts scalars or numpy arrays.

    Uses the series branch for |tau| < SERIES_CUTOFF and a cancellation-free
    grouping of the closed form elsewhere; the two branches agree to better
    than 1e-9 relative at the switchover.
    """
    g = np.asarray(gamma, dtype=float)
    t = np.asarray(tau, dtype=float)
    return _scalar_or_array(
        np.where(np.abs(t) < SERIES_CUTOFF, _phi_series(g, t), _phi_closed(g, t))
    )


def phi_deriv(gamma, tau):
    """d(phi)/d(tau) = (1 + gamma^2) e^{gamma tau} sin(tau); exact, no branches."""
    g = np.asarray(gamma, dtype=float)
    t = np.asarray(tau, dtype=float)
    return _scalar_or_array((1.0 + g * g) * np.exp(g * t) * np.sin(t))


def phi_scaled(gamma, tau):
    """phi(gamma, tau) * exp(-gamma * tau), evaluated without the exp(gamma*tau)
    overflow of the plain kernel.  Each element takes one of three branches,
    and only that branch is evaluated:

    * -gamma*tau > log(DBL_MAX): +inf, the value's float limit (hence zero
      slope contribution), without calling expm1;
    * |tau| < SERIES_CUTOFF: the series of phi times exp(-gamma*tau);
    * otherwise the direct form
      expm1(-gamma*tau) + 2 sin^2(tau/2) + gamma sin(tau),
      finite for arbitrarily large positive gamma*tau.

    Scalar arguments return a float, arrays an array of their broadcast shape.
    """
    g = np.asarray(gamma, dtype=float)
    t = np.asarray(tau, dtype=float)
    if g.ndim == 0 and t.ndim == 0:
        x = -g * t
        if x > _LOG_FLOAT_MAX:
            return math.inf
        if abs(t) < SERIES_CUTOFF:
            return float(_phi_series(g, t) * np.exp(x))
        return float(np.expm1(x) + 2.0 * np.sin(0.5 * t) ** 2 + g * np.sin(t))
    g, t = np.broadcast_arrays(g, t)
    x = -g * t
    out = np.full(x.shape, math.inf)
    in_range = ~(x > _LOG_FLOAT_MAX)
    small = in_range & (np.abs(t) < SERIES_CUTOFF)
    direct = in_range & ~small
    out[small] = _phi_series(g[small], t[small]) * np.exp(x[small])
    gd, td = g[direct], t[direct]
    out[direct] = np.expm1(x[direct]) + 2.0 * np.sin(0.5 * td) ** 2 + gd * np.sin(td)
    return out


def _bracket_root(f, lo: float, hi: float, flo: float, fprime=None, tol: float = 0.0) -> float:
    """Root of ``f`` in [lo, hi], given ``flo = f(lo)`` and a sign change
    between the ends.

    Bisects until the bracket is no wider than ``tol`` or cannot be split in
    floating point, returning at once on an exact zero; then takes up to
    three Newton steps with ``fprime``, each kept inside the final bracket.
    """
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    t = 0.5 * (lo + hi)
    if fprime is not None:
        for _ in range(3):
            d = fprime(t)
            if d == 0.0:
                break
            cand = t - f(t) / d
            if not lo <= cand <= hi:
                break
            t = cand
    return t


@dataclass(frozen=True)
class PhiRoot:
    """First positive zero of phi(|gamma|, .).

    The raw residual |phi(|gamma|, tau)| scales like exp(|gamma| tau) near the
    root, so for large |gamma| one ulp of tau already moves phi by more than
    any fixed absolute tolerance.  ``residual`` therefore reports the scaled
    kernel |phi_scaled(|gamma|, tau)| = |phi| exp(-|gamma| tau).  Near the
    root it moves by about |gamma| per unit of tau, so it stays below
    ROOT_RESIDUAL_TOL up to |gamma| of about 4.6e3; the raw value itself is
    below 1e-12 for moderate shape ratios.  Beyond that, tau is accepted
    when the scaled kernel changes sign across its two float neighbours:
    no float lies closer to the zero.
    """

    gamma: float
    tau: float

    def __post_init__(self):
        g = abs(self.gamma)
        if g == 0.0:
            if self.tau != 2.0 * math.pi:
                raise ValueError("zero shape ratio forces tau = 2*pi")
            return
        if not math.pi < self.tau < 2.0 * math.pi:
            raise ValueError("first kernel zero must lie in (pi, 2*pi)")
        if self.residual > ROOT_RESIDUAL_TOL and not self._sign_change_at_tau():
            raise ValueError("stored tau is not a kernel zero")

    def _sign_change_at_tau(self) -> bool:
        g = abs(self.gamma)
        below = phi_scaled(g, math.nextafter(self.tau, 0.0))
        above = phi_scaled(g, math.nextafter(self.tau, math.inf))
        return below <= 0.0 <= above or above <= 0.0 <= below

    @property
    def residual(self) -> float:
        return abs(phi_scaled(abs(self.gamma), self.tau))


@lru_cache(maxsize=None)
def tau_hat(gamma: float) -> PhiRoot:
    """First positive zero of phi(|gamma|, .): exactly 2*pi for gamma = 0,
    otherwise the zero of the overflow-free phi_scaled(|gamma|, .), which has
    the sign of phi, bracketed by (pi, 2*pi) and polished by Newton with
    d(phi_scaled)/d(tau) = (1+gamma^2) sin(tau) - |gamma| phi_scaled.  The
    result stays strictly inside (pi, 2*pi): for |gamma| below about 1e-31
    the zero, near 2*pi - sqrt(4*pi*|gamma|), rounds to 2*pi and the float
    just below 2*pi is returned; for |gamma| above about 1e16 the zero, near
    pi + 1/|gamma|, rounds to pi and the float just above pi is returned."""
    g = abs(float(gamma))
    if g == 0.0:
        return PhiRoot(gamma=float(gamma), tau=2.0 * math.pi)

    def f(t):
        return phi_scaled(g, t)

    def fprime(t):
        return (1.0 + g * g) * math.sin(t) - g * f(t)

    t = _bracket_root(f, math.pi, 2.0 * math.pi, f(math.pi), fprime)
    t = min(max(t, math.nextafter(math.pi, 4.0)), math.nextafter(2.0 * math.pi, 0.0))
    return PhiRoot(gamma=float(gamma), tau=float(t))


def check_phase(gamma: float, tau, name: str = "tau") -> None:
    """Raise :class:`DomainError` unless every tau lies in (0, tau_hat(gamma)),
    the admissible passage phases of a zone with shape ratio gamma."""
    th = tau_hat(gamma).tau
    t = np.asarray(tau, dtype=float)
    if not np.all((t > 0.0) & (t < th)):
        raise DomainError(f"{name}={tau!r} outside (0, {th!r}) for gamma={gamma!r}")


def g_ratio(gamma: float, tau):
    """Radial growth ratio of one passage:
    (phi(-gamma, tau) / phi(gamma, tau)) * exp(2*gamma*tau).

    Computed as phi_scaled(-gamma, tau) / phi_scaled(gamma, tau), which is
    the same quantity with the exponential absorbed, so strongly shaped
    zones do not overflow.  Defined on (0, tau_hat(gamma)); tends to 1 as
    tau -> 0+ (both kernel evaluations fall into the series branch there,
    so the limit is smooth).
    """
    check_phase(gamma, tau)
    t = np.asarray(tau, dtype=float)
    return _scalar_or_array(np.asarray(phi_scaled(-gamma, t)) / phi_scaled(gamma, t))


def log_g(gamma: float, tau):
    """log(g_ratio), from logarithms of the scaled kernel."""
    check_phase(gamma, tau)
    t = np.asarray(tau, dtype=float)
    return _scalar_or_array(np.log(phi_scaled(-gamma, t)) - np.log(phi_scaled(gamma, t)))
