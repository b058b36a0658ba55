"""Existence and classification of two-zonal invariant cones.

A ray on the separation plane sits on an invariant cone exactly when the
two half-plane passages chain back to the starting slope.  Writing the
minus-zone passage phase as ``tau_minus`` and the plus-zone one as
``tau_plus``, that is a pair of slope-matching equations; adding the radial
closure condition (the product of the two y-stretches equals one) upgrades
the cone to a carrier of periodic orbits.  This module solves the matching
system, handles the degenerate one-parameter family that appears when both
shape ratios vanish with equal real eigenvalues, appends the trivial cone
(the shared focus plane) when the real eigenvalues agree, and classifies
the radial dynamics on every cone found.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .auxiliary import _LOG_FLOAT_MAX, check_phase, log_g, tau_hat
from .errors import NotApplicable
from .halfmaps import (
    entry_slope,
    entry_slope_deriv,
    exit_slope,
    exit_slope_deriv,
    slope_increment,
)
from .model import EigenTriple, PwlSystem

RESIDUAL_TARGET = 1e-12
CENTER_TOL = 1e-9
DEGENERACY_TOL = 1e-8
DEDUPE_TOL = 1e-8
GRID_DEFAULT = 256
GAMMA_ZERO_ATOL = 1e-12
LAM_MATCH_RTOL = 1e-9
_GRID_INSET = 1e-6
_NEWTON_ITERS = 60
_MAX_HALVINGS = 50


class ConeKind(Enum):
    TRIVIAL = "Trivial"
    NON_TRIVIAL = "NonTrivial"
    FAMILY = "Family"


class ConeDynamics(Enum):
    CENTER = "Center"
    STABLE_FOCUS = "StableFocus"
    UNSTABLE_FOCUS = "UnstableFocus"


class ScreenResult(Enum):
    PASS = "Pass"
    FAIL_A = "FailA"
    FAIL_B = "FailB"
    FAIL_C = "FailC"
    NOT_APPLICABLE = "NotApplicable"


@dataclass(frozen=True)
class ConeSolution:
    """A solved passage-phase pair with its slopes and radial classification."""

    tau_minus: float
    tau_plus: float
    u0: float
    u1: float
    return_ratio: float
    kind: ConeKind
    dynamics: ConeDynamics

    def to_json(self) -> dict:
        return {
            "tau_minus": self.tau_minus,
            "tau_plus": self.tau_plus,
            "u0": self.u0,
            "u1": self.u1,
            "return_ratio": self.return_ratio,
            "kind": self.kind.value,
            "dynamics": self.dynamics.value,
        }


@dataclass(frozen=True, eq=False)
class ConeFamily:
    """One-parameter continuum of cones (both shape ratios zero, equal real
    eigenvalues): cot(tau_minus/2) / cot(tau_plus/2) = -beta_plus/beta_minus,
    plus the half-turn pair (pi, pi) that the parametrization passes through.
    """

    beta_minus: float
    beta_plus: float
    pairs: np.ndarray
    dynamics: ConeDynamics

    def tau_plus_of(self, tau_minus):
        check_phase(0.0, tau_minus, "tau_minus")  # tau_hat(0) = 2*pi
        return _family_tau_plus(self.beta_minus, self.beta_plus, tau_minus)

    def to_json(self) -> dict:
        return {
            "relation": "cot(tau_minus/2)/cot(tau_plus/2) = -beta_plus/beta_minus",
            "beta_minus": self.beta_minus,
            "beta_plus": self.beta_plus,
            "includes_half_turn_pair": True,
            "dynamics": self.dynamics.value,
            "sampled_pairs": [[float(a), float(b)] for a, b in self.pairs],
        }


@dataclass
class ConeFindings:
    """Everything the cone solver located on one system."""

    cones: list[ConeSolution]
    family: ConeFamily | None = None
    degenerate_pairs: list[tuple[float, float]] = field(default_factory=list)


@dataclass(frozen=True)
class OneZoneCone:
    """Single-zone check: does one zone's own flow return every plane ray?"""

    exists: bool
    witness_residual: float


@dataclass
class ExistenceReport:
    cones: list[ConeSolution]
    family: ConeFamily | None
    periodic: bool
    necessary_screen: ScreenResult
    notes: str

    def to_json(self) -> dict:
        return {
            "cones": [c.to_json() for c in self.cones],
            "family": self.family.to_json() if self.family is not None else None,
            "periodic": self.periodic,
            "necessary_screen": self.necessary_screen.value,
            "notes": self.notes,
        }


def _family_tau_plus(beta_minus: float, beta_plus: float, tau_minus):
    """The continuum's relation cot(tau_minus/2)/cot(tau_plus/2) =
    -beta_plus/beta_minus solved for tau_plus; arccot onto (0, pi) keeps
    tau_plus in (0, 2*pi) and sends pi to pi."""
    t = np.asarray(tau_minus, dtype=float)
    cot_half = np.cos(0.5 * t) / np.sin(0.5 * t)
    out = 2.0 * (0.5 * math.pi - np.arctan(-(beta_minus / beta_plus) * cot_half))
    if out.ndim == 0:
        return float(out)
    return out


def _check_pair(system: PwlSystem, tau_minus: float, tau_plus: float) -> None:
    check_phase(system.minus.eigen.gamma, tau_minus, "tau_minus")
    check_phase(system.plus.eigen.gamma, tau_plus, "tau_plus")


def return_log_ratio(system: PwlSystem, tau_minus: float, tau_plus: float) -> float:
    """log of the radial factor accumulated over one full revolution
    (minus passage then plus passage); zero exactly at radial closure."""
    em, ep = system.minus.eigen, system.plus.eigen
    return (
        log_g(em.gamma, tau_minus)
        + log_g(ep.gamma, tau_plus)
        + ep.lam * tau_plus / ep.beta
        + em.lam * tau_minus / em.beta
    )


def matching_residuals(system: PwlSystem, tau_minus: float, tau_plus: float):
    """Residuals of the cone conditions at a phase pair.

    Returns ``(ra, rb, rc)``: plus-exit minus minus-entry slope, plus-entry
    minus minus-exit slope, and the full-revolution radial factor minus one.
    All three vanish together exactly on phase pairs whose cone carries
    periodic orbits.
    """
    _check_pair(system, tau_minus, tau_plus)
    em, ep = system.minus.eigen, system.plus.eigen
    ra = exit_slope(ep, tau_plus) - entry_slope(em, tau_minus)
    rb = entry_slope(ep, tau_plus) - exit_slope(em, tau_minus)
    rc = _expm1_capped(return_log_ratio(system, tau_minus, tau_plus))
    return ra, rb, rc


def _zero_gammas(system: PwlSystem) -> bool:
    return (
        abs(system.minus.eigen.gamma) <= GAMMA_ZERO_ATOL
        and abs(system.plus.eigen.gamma) <= GAMMA_ZERO_ATOL
    )


def _equal_lams(system: PwlSystem) -> bool:
    lm, lp = system.minus.eigen.lam, system.plus.eigen.lam
    return abs(lp - lm) <= LAM_MATCH_RTOL * max(1.0, abs(lm), abs(lp))


def _expm1_capped(x: float) -> float:
    """expm1(x), or +inf where e^x exceeds the float range: a radial factor
    minus one from its logarithm."""
    return math.inf if x > _LOG_FLOAT_MAX else math.expm1(x)


def _trivial_rm1(system: PwlSystem) -> float:
    """Radial factor minus one of the trivial cone (the shared focus plane):
    half a turn in each zone, expm1(pi (alpha-/beta- + alpha+/beta+))."""
    em, ep = system.minus.eigen, system.plus.eigen
    return _expm1_capped(math.pi * (em.alpha / em.beta + ep.alpha / ep.beta))


def cone_continuum(system: PwlSystem, n: int = 201) -> ConeFamily:
    """The full cone continuum of a system with both shape ratios zero and
    equal real eigenvalues, sampled at ``n`` phase pairs (odd ``n`` hits the
    half-turn pair exactly)."""
    if not _zero_gammas(system):
        raise NotApplicable("cone continuum requires both shape ratios ~ 0")
    if not _equal_lams(system):
        raise NotApplicable("cone continuum requires equal real eigenvalues")
    em, ep = system.minus.eigen, system.plus.eigen
    # the family's radial factor is the same on every pair, so it equals the
    # trivial cone's at the half-turn pair
    dynamics = _classify_rm1(_trivial_rm1(system), CENTER_TOL)
    margin = 1e-3
    tms = np.linspace(margin, 2.0 * math.pi - margin, n)
    pairs = np.column_stack([tms, _family_tau_plus(em.beta, ep.beta, tms)])
    pairs.setflags(write=False)
    return ConeFamily(beta_minus=em.beta, beta_plus=ep.beta, pairs=pairs, dynamics=dynamics)


def one_zone_cone_check(eigen: EigenTriple) -> OneZoneCone:
    """Single-matrix criterion: the zone flow returns every plane-crossing
    ray to itself after a full turn iff the shape ratio vanishes (the real
    eigenvalue equals the spiral's real part).  The witness is the
    x1 displacement factor after one full turn,
    exp(2 pi alpha/beta) (1 - exp(2 pi gamma)) / (beta^2 (1 + gamma^2)),
    which is zero exactly at gamma = 0.  It is formed in log form and is
    +/-inf where its magnitude exceeds the float range."""
    g = eigen.gamma
    witness = 0.0
    if g != 0.0:
        x = 2.0 * math.pi * g
        # log|expm1(x)| = max(x, 0) + log(-expm1(-|x|))
        log_mag = (
            2.0 * math.pi * eigen.alpha / eigen.beta
            + max(x, 0.0)
            + math.log(-math.expm1(-abs(x)))
            - 2.0 * math.log(eigen.beta)
            - math.log1p(g * g)
        )
        mag = math.exp(log_mag) if log_mag < _LOG_FLOAT_MAX else math.inf
        witness = -math.copysign(mag, g)
    return OneZoneCone(exists=abs(g) < 1e-9, witness_residual=witness)


def necessary_screen(system: PwlSystem) -> ScreenResult:
    """Sign screen on the real eigenvalues implied by radial closure.

    Case A (both shape ratios zero): the revolution factor reduces to a pure
    exponential in the real eigenvalues, so closure needs lam+ * lam- <= 0.
    Case B (both ratios >= 0, not both zero): the passage growth factors
    both exceed one, so at least one real eigenvalue must be negative.
    Case C is the mirror image.  Mixed-sign ratios admit no screen.
    """
    em, ep = system.minus.eigen, system.plus.eigen
    gm, gp = em.gamma, ep.gamma
    lm, lp = em.lam, ep.lam
    if _zero_gammas(system):
        return ScreenResult.PASS if lm * lp <= 0.0 else ScreenResult.FAIL_A
    if gm >= -GAMMA_ZERO_ATOL and gp >= -GAMMA_ZERO_ATOL:
        return ScreenResult.PASS if min(lm, lp) < 0.0 else ScreenResult.FAIL_B
    if gm <= GAMMA_ZERO_ATOL and gp <= GAMMA_ZERO_ATOL:
        return ScreenResult.PASS if max(lm, lp) > 0.0 else ScreenResult.FAIL_C
    return ScreenResult.NOT_APPLICABLE


def _classify_rm1(rm1: float, center_tol: float) -> ConeDynamics:
    if abs(rm1) < center_tol:
        return ConeDynamics.CENTER
    return ConeDynamics.STABLE_FOCUS if rm1 < 0.0 else ConeDynamics.UNSTABLE_FOCUS


def classify_dynamics(
    system: PwlSystem, cone: ConeSolution, center_tol: float = CENTER_TOL
) -> ConeDynamics:
    """Radial dynamics on a cone: center / stable focus / unstable focus.

    Generic cones use the full-revolution radial factor at the cone's phase
    pair (for zero shape ratios its growth terms vanish and it reduces to the
    real eigenvalues); the trivial cone uses the same factor in the closed
    form of :func:`_trivial_rm1`.
    """
    if cone.kind is ConeKind.TRIVIAL:
        rm1 = _trivial_rm1(system)
    else:
        rm1 = _expm1_capped(return_log_ratio(system, cone.tau_minus, cone.tau_plus))
    return _classify_rm1(rm1, center_tol)


def _slope_scale(system: PwlSystem) -> float:
    em, ep = system.minus.eigen, system.plus.eigen
    return max(
        1.0,
        abs(em.lam) + em.beta * (1.0 + em.gamma**2),
        abs(ep.lam) + ep.beta * (1.0 + ep.gamma**2),
    )


def _singular_values(a: float, b: float, c: float, d: float) -> tuple[float, float]:
    """(sigma_max, sigma_min) of [[a, b], [c, d]] in closed form: with
    q = hypot((a+d)/2, (c-b)/2) and r = hypot((a-d)/2, (c+b)/2) they are
    q + r and |q - r|."""
    q = math.hypot(0.5 * (a + d), 0.5 * (c - b))
    r = math.hypot(0.5 * (a - d), 0.5 * (c + b))
    return q + r, abs(q - r)


def _cramer_step(a: float, b: float, c: float, d: float, f0: float, f1: float):
    """Solution of [[a, b], [c, d]] x = (f0, f1) by Cramer's rule; None when
    the determinant is exactly zero."""
    det = a * d - b * c
    if det == 0.0:
        return None
    return (f0 * d - b * f1) / det, (a * f1 - c * f0) / det


def _newton_refine(system, tm, tp, bounds, target):
    em, ep = system.minus.eigen, system.plus.eigen
    (lo_m, hi_m, lo_p, hi_p) = bounds

    def res(a, b):
        return np.array(
            [
                exit_slope(ep, b) - entry_slope(em, a),
                entry_slope(ep, b) - exit_slope(em, a),
            ]
        )

    f = res(tm, tp)
    smin_ratio = math.inf
    for _ in range(_NEWTON_ITERS):
        if not np.all(np.isfinite(f)):
            break
        jac = (
            -entry_slope_deriv(em, tm),
            exit_slope_deriv(ep, tp),
            -exit_slope_deriv(em, tm),
            entry_slope_deriv(ep, tp),
        )
        if not all(map(math.isfinite, jac)):
            break
        smax, smin = _singular_values(*jac)
        if smax > 0.0:
            smin_ratio = smin / smax
        step = _cramer_step(*jac, float(f[0]), float(f[1]))
        if step is None:
            break
        size = float(np.max(np.abs(f)))
        scale = 1.0
        moved = False
        for _ in range(_MAX_HALVINGS):
            cm = tm - scale * step[0]
            cp = tp - scale * step[1]
            if cm == tm and cp == tp:
                break  # every further halving lands on the same point
            if lo_m < cm < hi_m and lo_p < cp < hi_p:
                fc = res(cm, cp)
                if float(np.max(np.abs(fc))) < size:
                    tm, tp, f = cm, cp, fc
                    moved = True
                    break
            scale *= 0.5
        if not moved:
            break
        if float(np.max(np.abs(f))) < target * 1e-3:
            break
    return tm, tp, float(np.max(np.abs(f))), smin_ratio


def _straddles(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Grid cells (i, j) on whose four corners the residual v[j'] - u[i']
    (i' in {i, i+1}, j' in {j, j+1}) does not keep one sign.

    The corners are all positive exactly when min(v[j:j+2]) > max(u[i:i+2]),
    all negative when max(v[j:j+2]) < min(u[i:i+2]), and all exactly zero when
    the four values are one finite number, so the scan compares the ends of
    these intervals instead of forming the residual on the grid.  A NaN
    corner, or an inf - inf one (a shared infinite value), fails all three
    tests, so its cell straddles.
    """
    lo_u, hi_u = np.minimum(u[:-1], u[1:]), np.maximum(u[:-1], u[1:])
    lo_v, hi_v = np.minimum(v[:-1], v[1:]), np.maximum(v[:-1], v[1:])
    point_u = np.where((lo_u == hi_u) & np.isfinite(lo_u), lo_u, np.nan)
    point_v = np.where(lo_v == hi_v, lo_v, np.nan)
    return ~(
        (lo_v[None, :] > hi_u[:, None])
        | (hi_v[None, :] < lo_u[:, None])
        | (point_v[None, :] == point_u[:, None])
    )


def solve_invariant_cones(
    system: PwlSystem,
    *,
    grid: int = GRID_DEFAULT,
    residual_target: float = RESIDUAL_TARGET,
    center_tol: float = CENTER_TOL,
    degeneracy_tol: float = DEGENERACY_TOL,
) -> ConeFindings:
    """Locate all invariant cones of the two-zone system.

    Isolated cones come from a sign-structure scan of the two slope-matching
    residuals on a ``grid`` x ``grid`` lattice over the open phase rectangle,
    with damped Newton refinement from every candidate cell and deduplication
    of converged roots.  When both shape ratios vanish with equal real
    eigenvalues the matching residuals are negatives of each other, the root
    set is a curve, and the solver reports it as a :class:`ConeFamily`
    instead of isolated points.  A trivial cone (the shared focus plane) is
    appended whenever the real eigenvalues agree.  Results are sorted by
    phase pair, so the outcome does not depend on scan order.
    """
    em, ep = system.minus.eigen, system.plus.eigen
    thm = tau_hat(em.gamma).tau
    thp = tau_hat(ep.gamma).tau
    equal_lams = _equal_lams(system)
    findings = ConeFindings(cones=[])

    if _zero_gammas(system) and equal_lams:
        findings.family = cone_continuum(system)
    else:
        ins_m, ins_p = _GRID_INSET * thm, _GRID_INSET * thp
        tms = np.linspace(ins_m, thm - ins_m, grid)
        tps = np.linspace(ins_p, thp - ins_p, grid)
        u0 = entry_slope(em, tms)
        u1 = exit_slope(em, tms)
        v1 = entry_slope(ep, tps)
        v2 = exit_slope(ep, tps)
        cells = np.nonzero(_straddles(u0, v2) & _straddles(u1, v1))
        target = residual_target * _slope_scale(system)
        bounds = (1e-12 * thm, thm * (1.0 - 1e-12), 1e-12 * thp, thp * (1.0 - 1e-12))
        roots: list[tuple[float, float]] = []
        for i, j in zip(*cells):
            tm0 = 0.5 * (tms[i] + tms[i + 1])
            tp0 = 0.5 * (tps[j] + tps[j + 1])
            tm, tp, resid, smin_ratio = _newton_refine(system, tm0, tp0, bounds, target)
            if resid > target:
                continue
            if equal_lams and max(abs(tm - math.pi), abs(tp - math.pi)) < DEDUPE_TOL:
                continue  # re-added below as the trivial cone
            if any(abs(tm - a) < DEDUPE_TOL and abs(tp - b) < DEDUPE_TOL for a, b in roots):
                continue
            roots.append((tm, tp))
            if smin_ratio < degeneracy_tol:
                findings.degenerate_pairs.append((tm, tp))
                continue
            rm1 = _expm1_capped(return_log_ratio(system, tm, tp))
            findings.cones.append(
                ConeSolution(
                    tau_minus=float(tm),
                    tau_plus=float(tp),
                    u0=float(entry_slope(em, tm)),
                    u1=float(exit_slope(em, tm)),
                    return_ratio=1.0 + rm1,
                    kind=ConeKind.NON_TRIVIAL,
                    dynamics=_classify_rm1(rm1, center_tol),
                )
            )

    if equal_lams:
        rm1 = _trivial_rm1(system)
        findings.cones.append(
            ConeSolution(
                tau_minus=math.pi,
                tau_plus=math.pi,
                u0=em.lam,
                u1=em.lam,
                return_ratio=1.0 + rm1,
                kind=ConeKind.TRIVIAL,
                dynamics=_classify_rm1(rm1, center_tol),
            )
        )

    findings.cones.sort(key=lambda c: (c.tau_minus, c.tau_plus))
    return findings


def _dlog_g(gamma: float, tau: float) -> float:
    # d(log g)/d(tau) = S(-g, tau) - S(g, tau) + 2g, S the slope increment
    return slope_increment(-gamma, tau) - slope_increment(gamma, tau) + 2.0 * gamma


def slope_map_multiplier(system: PwlSystem, tau_minus: float, tau_plus: float) -> float:
    """Derivative of the composite slope-transition map at a cone's ray:
    (exit'/entry')(tau_minus) * (exit'/entry')(tau_plus).

    This measures how strongly the cone attracts or repels neighboring rays
    transversally.  When |multiplier| is large, geometric closure shot from a
    double-rounded start ray degrades to about eps * |multiplier| no matter
    how exact the cone itself is; callers validating closure numerically
    should budget for that.
    """
    _check_pair(system, tau_minus, tau_plus)
    em, ep = system.minus.eigen, system.plus.eigen
    s_minus = exit_slope_deriv(em, tau_minus) / entry_slope_deriv(em, tau_minus)
    s_plus = exit_slope_deriv(ep, tau_plus) / entry_slope_deriv(ep, tau_plus)
    return float(s_minus * s_plus)


def analyze_system(
    system: PwlSystem,
    *,
    grid: int = GRID_DEFAULT,
    residual_target: float = RESIDUAL_TARGET,
    center_tol: float = CENTER_TOL,
    degeneracy_tol: float = DEGENERACY_TOL,
) -> ExistenceReport:
    """Full existence analysis: solve for cones, classify, screen, annotate."""
    findings = solve_invariant_cones(
        system,
        grid=grid,
        residual_target=residual_target,
        center_tol=center_tol,
        degeneracy_tol=degeneracy_tol,
    )
    em, ep = system.minus.eigen, system.plus.eigen
    screen = necessary_screen(system)
    periodic = any(c.dynamics is ConeDynamics.CENTER for c in findings.cones) or (
        findings.family is not None and findings.family.dynamics is ConeDynamics.CENTER
    )

    lines = [f"necessary screen: {screen.value}"]
    if findings.family is not None:
        lines.append(
            "cone continuum: cot(tau_minus/2)/cot(tau_plus/2) = "
            f"-{ep.beta / em.beta:.6g} on (0, 2*pi)^2 plus the half-turn pair; "
            f"dynamics {findings.family.dynamics.value}"
        )
    for cone in findings.cones:
        rm1 = cone.return_ratio - 1.0
        # first-order sensitivity of the log radial factor to the phase pair,
        # at the solver's residual floor, so borderline centers can be judged
        grad = math.hypot(
            _dlog_g(em.gamma, cone.tau_minus) + em.lam / em.beta,
            _dlog_g(ep.gamma, cone.tau_plus) + ep.lam / ep.beta,
        )
        sens = grad * residual_target * _slope_scale(system)
        mult = slope_map_multiplier(system, cone.tau_minus, cone.tau_plus)
        lines.append(
            f"{cone.kind.value} cone at ({cone.tau_minus:.9g}, {cone.tau_plus:.9g}): "
            f"return ratio - 1 = {rm1:.3e} (sensitivity ~ {sens:.1e}), "
            f"transverse multiplier {mult:.3e}, dynamics {cone.dynamics.value}"
        )
    for label, eig in (("minus", em), ("plus", ep)):
        check = one_zone_cone_check(eig)
        if check.exists:
            lines.append(
                f"{label} zone flow alone returns every plane ray after a full "
                "turn (its shape ratio vanishes)"
            )
    for tm, tp in findings.degenerate_pairs:
        lines.append(
            f"degenerate matching root near ({tm:.6g}, {tp:.6g}): "
            "possible continuum, not reported as an isolated cone"
        )
    return ExistenceReport(
        cones=findings.cones,
        family=findings.family,
        periodic=periodic,
        necessary_screen=screen,
        notes="\n".join(lines),
    )
