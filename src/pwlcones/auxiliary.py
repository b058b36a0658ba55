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
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError

# Below this |tau| the direct formula loses roughly eight digits to
# cancellation, so a fifth-order series takes over.
SERIES_CUTOFF = 1e-4

ROOT_RESIDUAL_TOL = 1e-12
_BISECT_STEPS = 120


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
    overflow of the plain kernel:

        expm1(-gamma*tau) + 2 sin^2(tau/2) + gamma sin(tau)

    This is the natural denominator of the passage slope formulas; it stays
    finite for arbitrarily large positive gamma*tau (and degrades gracefully
    to +inf, hence zero slope contribution, for very negative gamma*tau).
    """
    g = np.asarray(gamma, dtype=float)
    t = np.asarray(tau, dtype=float)
    direct = np.expm1(-g * t) + 2.0 * np.sin(0.5 * t) ** 2 + g * np.sin(t)
    series = _phi_series(g, t) * np.exp(-g * t)
    return _scalar_or_array(np.where(np.abs(t) < SERIES_CUTOFF, series, direct))


@dataclass(frozen=True)
class PhiRoot:
    """First positive zero of phi(|gamma|, .).

    The raw residual |phi(|gamma|, tau)| scales like exp(|gamma| tau) near the
    root, so for large |gamma| one ulp of tau already moves phi by more than
    any fixed absolute tolerance.  ``residual`` therefore reports the value
    divided by that natural scale; it is below ROOT_RESIDUAL_TOL always, and
    the raw value itself is below 1e-12 for moderate shape ratios.
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
        if self.residual > ROOT_RESIDUAL_TOL:
            raise ValueError("stored tau is not a kernel zero")

    @property
    def residual(self) -> float:
        g = abs(self.gamma)
        return abs(phi(g, self.tau)) / max(1.0, math.exp(g * self.tau))


@lru_cache(maxsize=None)
def tau_hat(gamma: float) -> PhiRoot:
    """First positive zero of phi(|gamma|, .): exactly 2*pi for gamma = 0,
    otherwise bisection on the guaranteed bracket (pi, 2*pi) followed by one
    round of Newton polish with the analytic derivative."""
    g = abs(float(gamma))
    if g == 0.0:
        return PhiRoot(gamma=float(gamma), tau=2.0 * math.pi)
    lo, hi = math.pi, 2.0 * math.pi
    flo = phi(g, lo)
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = phi(g, mid)
        if fm == 0.0:
            lo = hi = mid
            break
        if (flo > 0.0) == (fm > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    t = 0.5 * (lo + hi)
    for _ in range(3):
        d = phi_deriv(g, t)
        if d == 0.0:
            break
        step = phi(g, t) / d
        t_new = t - step
        if not lo <= t_new <= hi:
            break
        t = t_new
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
