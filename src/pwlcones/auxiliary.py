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

from .errors import DomainError, MalformedInput

# Below this |tau| the direct formula loses roughly eight digits to
# cancellation, so a fifth-order series takes over; the series is truncated
# in gamma*tau too, so it also needs |gamma*tau| < SERIES_GT_CUTOFF.
SERIES_CUTOFF = 1e-4
SERIES_GT_CUTOFF = 2e-3

ROOT_RESIDUAL_TOL = 1e-12
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_SQRT_FLOAT_MAX = math.sqrt(sys.float_info.max)  # 1 + g*g is finite up to this |g|
TAU_HAT_CACHE_SIZE = 4096  # roots tau_hat keeps; 400 synthesized designs bring ~940 zones


def _finite_float(value):
    """``value`` as a Python float if it is a finite 0-d value (float, int,
    numpy scalar or 0-d array), else None."""
    f = float(value) if isinstance(value, float) or np.ndim(value) == 0 else math.nan
    return f if math.isfinite(f) else None


def _scalar_or_array(value):
    return float(value) if isinstance(value, float) or np.ndim(value) == 0 else np.asarray(value)


def _phi_series(g, t):
    # phi = (t^2 + x^2) [1/2 + x/3 + (3x^2 - t^2)/24 + x(x^2 - t^2)/30] + O(t^6),
    # x = g t: formed in x, it stays finite where powers of g would overflow
    x = g * t
    return (t * t + x * x) * (
        0.5 + x / 3.0 + (3.0 * x * x - t * t) / 24.0 + x * (x * x - t * t) / 30.0
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

    Uses the series branch for small |tau| and |gamma*tau| (SERIES_CUTOFF)
    and a cancellation-free grouping of the closed form elsewhere; the two
    branches agree to better than 1e-9 relative at the switchover.  Where
    the value passes the float range -- gamma*tau > log(DBL_MAX), where
    exp(gamma*tau) itself overflows and the closed form is not evaluated,
    or gamma*exp(gamma*tau) overflowing for |gamma| > 1 -- finite arguments
    give +/-inf with the sign of phi_scaled(gamma, tau), without a warning.
    """
    g, t = np.broadcast_arrays(np.asarray(gamma, dtype=float), np.asarray(tau, dtype=float))
    with np.errstate(over="ignore"):  # +inf past the float range, as in phi_scaled
        x = g * t
    small = (np.abs(t) < SERIES_CUTOFF) & (np.abs(x) < SERIES_GT_CUTOFF)
    finite = np.isfinite(g) & np.isfinite(t)
    past = finite & (x > _LOG_FLOAT_MAX)
    direct = ~small & ~past
    out = np.empty(g.shape)
    out[small] = _phi_series(g[small], t[small])
    with np.errstate(over="ignore"):  # only gamma*exp(gamma*tau) can pass DBL_MAX here
        out[direct] = _phi_closed(g[direct], t[direct])
    past |= finite & np.isinf(out)
    if past.any():
        out[past] = np.copysign(np.inf, phi_scaled(g[past], t[past]))
    return _scalar_or_array(out)


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
    * small |tau| and |gamma*tau|: the series of phi times exp(-gamma*tau);
    * otherwise the direct form
      expm1(-gamma*tau) + 2 sin^2(tau/2) + gamma sin(tau),
      finite for arbitrarily large positive gamma*tau.

    Finite 0-d arguments take a Python-float path that returns the array
    path's bits as a float; arrays return an array of their broadcast shape.
    """
    g, t = _finite_float(gamma), _finite_float(tau)
    if g is not None and t is not None:
        x = -g * t
        if x > _LOG_FLOAT_MAX:
            return math.inf
        if abs(t) < SERIES_CUTOFF and abs(x) < SERIES_GT_CUTOFF:
            return _phi_series(g, t) * float(np.exp(x))
        s = math.sin(0.5 * t)
        return float(np.expm1(x)) + 2.0 * (s * s) + g * math.sin(t)
    g, t = np.broadcast_arrays(np.asarray(gamma, dtype=float), np.asarray(tau, dtype=float))
    with np.errstate(over="ignore"):  # +/-inf past the float range, as on the float path
        x = -g * t
    out = np.full(x.shape, math.inf)
    in_range = ~(x > _LOG_FLOAT_MAX)
    small = in_range & (np.abs(t) < SERIES_CUTOFF) & (np.abs(x) < SERIES_GT_CUTOFF)
    direct = in_range & ~small
    out[small] = _phi_series(g[small], t[small]) * np.exp(x[small])
    gd, td = g[direct], t[direct]
    out[direct] = np.expm1(x[direct]) + 2.0 * np.sin(0.5 * td) ** 2 + gd * np.sin(td)
    return out if out.ndim else float(out)


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


@lru_cache(maxsize=TAU_HAT_CACHE_SIZE)
def tau_hat(gamma: float) -> PhiRoot:
    """First positive zero of phi(|gamma|, .): exactly 2*pi for gamma = 0,
    otherwise the zero of the overflow-free phi_scaled(|gamma|, .), which has
    the sign of phi, so it changes sign once on (pi, 2*pi), where phi' < 0.
    Guarded Newton, with d(phi_scaled)/d(tau) = (1+gamma^2) sin(tau) -
    |gamma| phi_scaled from the same kernel value, narrows (pi, 2*pi) to the
    two floats around the sign change, starting from the larger of the lower
    bounds 2*pi - sqrt(4*pi*|gamma|) and pi + atan(1/|gamma|); a step that
    leaves the bracket or is not below half the step before bisects instead.
    :func:`_bracket_root` then polishes the pair.  The result stays strictly
    inside (pi, 2*pi): where the zero rounds to an end, below |gamma| of
    about 1e-31 or above about 1e16 (and at +/-inf), it is the float next to
    that end.  A NaN gamma raises :class:`MalformedInput`."""
    g = abs(float(gamma))
    if math.isnan(g):
        raise MalformedInput("gamma must be a number, got nan")
    if g == 0.0:
        return PhiRoot(gamma=float(gamma), tau=2.0 * math.pi)

    def f(t):
        return phi_scaled(g, t)

    def fprime(t, v=None):  # v: f(t), where it is known
        return (1.0 + g * g) * math.sin(t) - g * (f(t) if v is None else v)

    # f(pi) = e^(-g pi) + 1 > 0; hi stays 2*pi until some f(t) < 0
    lo, flo, hi, last_step = math.pi, 1.0, 2.0 * math.pi, math.inf
    t = max(hi - math.sqrt(4.0 * math.pi * g), lo + math.atan2(1.0, g), math.nextafter(lo, hi))
    t = min(t, math.nextafter(hi, lo))
    while math.nextafter(lo, hi) < hi:
        v = f(t)
        if v == 0.0:
            return PhiRoot(gamma=float(gamma), tau=t)
        if v > 0.0:
            lo, flo = t, v
        else:
            hi = t
        d = fprime(t, v)
        step = v / d if d else math.inf
        cand = t - step
        if abs(step) < math.ulp(t):  # within an ulp of the zero: the float across it
            cand = math.nextafter(t, hi if v > 0.0 else lo)
        elif not (lo < cand < hi and abs(step) <= 0.5 * last_step):
            cand = 0.5 * (lo + hi)
        last_step, t = abs(cand - t), cand
    t = _bracket_root(f, lo, hi, flo, fprime)
    t = min(max(t, math.nextafter(math.pi, 4.0)), math.nextafter(2.0 * math.pi, 0.0))
    return PhiRoot(gamma=float(gamma), tau=float(t))


def check_phase(gamma: float, tau, name: str = "tau") -> None:
    """Raise :class:`DomainError` unless every tau lies in (0, tau_hat(gamma)),
    the admissible passage phases of a zone with shape ratio gamma."""
    th = tau_hat(gamma).tau
    t = _finite_float(tau)
    if t is None:
        t = np.asarray(tau, dtype=float)
    if not (0.0 < t < th if isinstance(t, float) else np.all((t > 0.0) & (t < th))):
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
    return _scalar_or_array(np.asarray(phi_scaled(-gamma, tau)) / phi_scaled(gamma, tau))


def log_g(gamma: float, tau):
    """log(g_ratio), from logarithms of the scaled kernel."""
    check_phase(gamma, tau)
    return _scalar_or_array(np.log(phi_scaled(-gamma, tau)) - np.log(phi_scaled(gamma, tau)))
