"""Construct systems guaranteed to carry periodic orbits.

Given a plus-zone shape ratio ``gamma``, the minus/plus ratio factor ``k``
(the minus zone gets ``k * gamma``), the real-eigenvalue offset
``c = lam_plus - lam_minus`` and an admissible phase pair, the two
slope-matching conditions become a linear 2x2 system in the rotation rates
``beta_minus, beta_plus`` and the radial closure condition then fixes the
real eigenvalues.  Solving in closed form yields a system whose cone at the
chosen phase pair is a center, i.e. a carrier of periodic orbits.

For ``c = 0`` no angles are needed: any spectra with equal real eigenvalues
and alpha_plus/beta_plus + alpha_minus/beta_minus = 0 put a center on the
trivial cone; :func:`synthesize_balanced` builds those directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .auxiliary import check_phase, log_g, tau_hat
from .cones import matching_residuals, _slope_scale
from .errors import AngleRegionViolation, DomainError, MalformedInput, NonPositiveBeta, PwlError
from .halfmaps import slope_increment
from .model import EigenTriple, PwlSystem

SIN_FLOOR = 1e-12
SELF_CHECK_TOL = 1e-9
ANGLE_MARGIN = 0.05  # of each subinterval, in sample_admissible_angles


def _sign(x: float) -> int:
    if x > 0.0:
        return 1
    if x < 0.0:
        return -1
    return 0


@dataclass(frozen=True)
class SynthesisInput:
    """Design parameters for the closed-form construction (``c != 0``).

    The admissible phase region requires: each angle inside its zone's open
    interval, neither equal to pi, opposite signs of sin(tau_minus) and
    sin(tau_plus), and sgn(sin(tau_minus)) * sgn(gamma) = sgn(c).  Violations
    raise :class:`AngleRegionViolation` at construction time; a NaN or
    infinite field raises :class:`MalformedInput` before any of them.
    """

    gamma: float
    k: float
    c: float
    tau_minus: float
    tau_plus: float

    def __post_init__(self):
        fields = (self.gamma, self.k, self.c, self.tau_minus, self.tau_plus)
        if not all(math.isfinite(v) for v in fields):
            raise MalformedInput(f"design parameters {fields!r} must be finite")
        if not self.k > 0.0:
            raise AngleRegionViolation(f"k must be positive, got {self.k!r}")
        if self.c == 0.0:
            raise AngleRegionViolation(
                "c = 0 admits no angle-based construction; use synthesize_balanced"
            )
        try:
            check_phase(self.gamma_minus, self.tau_minus, "tau_minus")
            check_phase(self.gamma_plus, self.tau_plus, "tau_plus")
        except DomainError as exc:
            raise AngleRegionViolation(str(exc)) from exc
        sm, sp = math.sin(self.tau_minus), math.sin(self.tau_plus)
        if abs(sm) < SIN_FLOOR or abs(sp) < SIN_FLOOR:
            raise AngleRegionViolation("angles must stay away from pi (and 0)")
        if not sm * sp < 0.0:
            raise AngleRegionViolation(
                "sin(tau_minus) and sin(tau_plus) must have opposite signs"
            )
        if _sign(sm) * _sign(self.gamma) != _sign(self.c):
            raise AngleRegionViolation(
                "need sgn(sin(tau_minus)) * sgn(gamma) = sgn(c)"
            )

    @property
    def gamma_minus(self) -> float:
        return self.k * self.gamma

    @property
    def gamma_plus(self) -> float:
        return self.gamma


@dataclass(frozen=True)
class SynthesisOutput:
    system: PwlSystem
    eigen_minus: EigenTriple
    eigen_plus: EigenTriple


def _solve_rates(inp: SynthesisInput) -> tuple[float, float, float]:
    """Cramer's rule on the slope-matching conditions read as a linear system
    for the rotation rates, with S the slope increment:

        [[ S(g-, tau-),   S(-g+, tau+)],   [beta_minus]   [c]
         [-S(-g-, tau-), -S(g+, tau+) ]] . [beta_plus ] = [c]

    Returns ``(determinant, beta_minus, beta_plus)``.
    """
    gm, gp = inp.gamma_minus, inp.gamma_plus
    tm, tp = inp.tau_minus, inp.tau_plus
    a11, a12 = slope_increment(gm, tm), slope_increment(-gp, tp)
    a21, a22 = -slope_increment(-gm, tm), -slope_increment(gp, tp)
    det = a11 * a22 - a12 * a21
    return float(det), float(inp.c * (a22 - a12) / det), float(inp.c * (a11 - a21) / det)


def synthesis_determinant(inp: SynthesisInput) -> float:
    """Determinant of the 2x2 linear system the slope-matching conditions
    impose on (beta_minus, beta_plus); its sign equals sgn(gamma) on the
    admissible region, which is what keeps both rates positive."""
    return _solve_rates(inp)[0]


def nabla_log(inp: SynthesisInput) -> float:
    """-log of the product of the two passage growth ratios; radial closure
    forces lam_plus tau_plus/beta_plus + lam_minus tau_minus/beta_minus to
    equal exactly this value."""
    return -(log_g(inp.gamma, inp.tau_plus) + log_g(inp.gamma_minus, inp.tau_minus))


def synthesize(inp: SynthesisInput) -> SynthesisOutput:
    """Closed-form construction of a periodic-orbit-carrying system.

    Solves the slope-matching pair for the rotation rates by Cramer's rule,
    then splits the closure budget between the real eigenvalues subject to
    lam_plus - lam_minus = c.  The output is self-checked: all three
    matching residuals at the input phase pair must come out below
    ``SELF_CHECK_TOL`` (scaled), otherwise construction fails loudly.
    """
    c, tm, tp = inp.c, inp.tau_minus, inp.tau_plus
    _, beta_m, beta_p = _solve_rates(inp)
    if not (beta_m > 0.0 and beta_p > 0.0):
        raise NonPositiveBeta(
            f"construction produced beta_minus={beta_m!r}, beta_plus={beta_p!r}"
        )
    nabla = nabla_log(inp)
    denom = tp / beta_p + tm / beta_m
    lam_m = (nabla - tp * c / beta_p) / denom
    lam_p = (nabla + tm * c / beta_m) / denom
    eigen_m = EigenTriple(lam=lam_m, alpha=lam_m + inp.gamma_minus * beta_m, beta=beta_m)
    eigen_p = EigenTriple(lam=lam_p, alpha=lam_p + inp.gamma_plus * beta_p, beta=beta_p)
    system = PwlSystem.from_eigen(minus=eigen_m, plus=eigen_p)
    resid = max(abs(r) for r in matching_residuals(system, tm, tp))
    if resid > SELF_CHECK_TOL * _slope_scale(system):
        raise PwlError(
            f"synthesized system fails its own matching conditions (residual {resid:.3e})"
        )
    return SynthesisOutput(system=system, eigen_minus=eigen_m, eigen_plus=eigen_p)


def synthesize_balanced(
    alpha_plus: float, beta_plus: float, beta_minus: float, lam: float
) -> SynthesisOutput:
    """The ``c = 0`` construction: equal real eigenvalues and balanced spiral
    strengths alpha_plus/beta_plus + alpha_minus/beta_minus = 0, so the
    trivial cone (the shared focus plane) is a center.  The cone's phase
    pair is an output of the analyzer here, not an input."""
    if not (beta_plus > 0.0 and beta_minus > 0.0):
        raise NonPositiveBeta("rotation rates must be positive")
    alpha_minus = -beta_minus * alpha_plus / beta_plus
    eigen_m = EigenTriple(lam=lam, alpha=alpha_minus, beta=beta_minus)
    eigen_p = EigenTriple(lam=lam, alpha=alpha_plus, beta=beta_plus)
    return SynthesisOutput(
        system=PwlSystem.from_eigen(minus=eigen_m, plus=eigen_p),
        eigen_minus=eigen_m,
        eigen_plus=eigen_p,
    )


def example_system(which: int) -> PwlSystem:
    """Two bundled reference systems with a center cone by construction.

    ``1``: offset +10 with phase pair (pi/4, 5*pi/4); ``2``: offset -10 with
    the swapped pair.  They are zone swaps of each other and both carry a
    periodic orbit through the plane point (0, +/-4, -/+1.3040...).
    """
    if which == 1:
        inp = SynthesisInput(
            gamma=1.0, k=1.0, c=10.0, tau_minus=math.pi / 4.0, tau_plus=5.0 * math.pi / 4.0
        )
    elif which == 2:
        inp = SynthesisInput(
            gamma=1.0, k=1.0, c=-10.0, tau_minus=5.0 * math.pi / 4.0, tau_plus=math.pi / 4.0
        )
    else:
        raise ValueError(f"which must be 1 or 2, got {which!r}")
    return synthesize(inp).system


def sample_admissible_angles(
    gamma: float, k: float, c: float, rng: np.random.Generator
) -> tuple[float, float]:
    """Draw a uniformly random admissible phase pair for the given design
    parameters, keeping ``ANGLE_MARGIN`` (as a fraction of each subinterval)
    away from the endpoints 0, pi and the interval's upper bound."""
    if c == 0.0 or gamma == 0.0:
        raise AngleRegionViolation("admissible angles need gamma != 0 and c != 0")
    thm = tau_hat(k * gamma).tau
    thp = tau_hat(gamma).tau
    want_sin_m = _sign(gamma) * _sign(c)

    def draw(th: float, want_positive_sin: bool) -> float:
        lo, hi = (0.0, math.pi) if want_positive_sin else (math.pi, th)
        pad = ANGLE_MARGIN * (hi - lo)
        return float(rng.uniform(lo + pad, hi - pad))

    tau_minus = draw(thm, want_sin_m > 0)
    tau_plus = draw(thp, want_sin_m < 0)
    return tau_minus, tau_plus
