"""System representation: spectra, characteristic coefficients, zone matrices.

A two-zone system is stored in the companion shape

    [[delta, -1,  0],
     [m,      0, -1],
     [d,      0,  0]]

per zone, where (delta, m, d) are the coefficients of the characteristic
polynomial  x^3 - delta*x^2 + m*x - d.  Every zone fact is derived from one
input: a zone is given by its coefficients or by its spectrum, and the shape
ratio ``gamma`` and the matrix are computed from it, never supplied.  Both
zones share the constant second and third columns, which is exactly the
continuity requirement across the separation plane x1 = 0, so every system
built here is continuous by construction.  Every zone handled here has one
real eigenvalue ``lam`` and a complex pair ``alpha +/- beta*j`` with
beta > 0; anything else raises :class:`~pwlcones.errors.NotFocusType`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import MalformedInput, NotContinuous, NotFocusType, NotObservable

BETA_FLOOR = 1e-12
CONTINUITY_ATOL = 1e-12   # scaled by the pair's max-norm
OBSERVABILITY_RTOL = 1e-12
EIGENVECTOR_RTOL = 1e-10
_CUBIC_NEWTON_STEPS = 6


@dataclass(frozen=True)
class EigenTriple:
    """One zone's spectrum and its shape ratio.

    ``gamma = (alpha - lam) / beta`` is the single dimensionless parameter
    all passage formulas depend on.  It is derived, never supplied, so
    ``dataclasses.replace`` on the spectrum derives it afresh.
    """

    lam: float
    alpha: float
    beta: float
    gamma: float = field(init=False)

    def __post_init__(self):
        if not self.beta > BETA_FLOOR:
            raise NotFocusType(
                f"imaginary part beta={self.beta!r} must exceed {BETA_FLOOR}"
            )
        object.__setattr__(self, "gamma", (self.alpha - self.lam) / self.beta)


@dataclass(frozen=True)
class CanonicalCoeffs:
    """Characteristic-polynomial coefficients (delta, m, d) of one zone."""

    delta: float
    m: float
    d: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in self.as_tuple()):
            raise MalformedInput(f"characteristic coefficients {self.as_tuple()!r} must be finite")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.delta, self.m, self.d)


def _expand(lam, al, be) -> tuple:
    """(delta, m, d) = (lam + 2*alpha, 2*lam*alpha + alpha^2 + beta^2,
    lam * (alpha^2 + beta^2)), the characteristic coefficients of the
    spectrum (lam, alpha +/- beta*j)."""
    mod2 = al * al + be * be
    return lam + 2.0 * al, 2.0 * lam * al + mod2, lam * mod2


def coeffs_from_eigen(eigen: EigenTriple) -> CanonicalCoeffs:
    """Expand the spectrum into characteristic coefficients (see ``_expand``)."""
    return CanonicalCoeffs(*_expand(eigen.lam, eigen.alpha, eigen.beta))


def _coeff_residual(x: np.ndarray, target: np.ndarray) -> float:
    fwd = np.array(_expand(*x))
    scale = np.maximum(1.0, np.abs(target))
    return float(np.max(np.abs(fwd - target) / scale))


def eigen_from_coeffs(coeffs: CanonicalCoeffs) -> EigenTriple:
    """Invert the coefficient map: recover (lam, alpha, beta > 0).

    The cubic's roots seed the answer; a damped Newton iteration on the
    three-dimensional coefficient map then polishes the triple until the
    forward residual stops improving.  Cubics with three real roots (the
    discriminant test) fall outside this library's scope.
    """
    dl, m, d = coeffs.delta, coeffs.m, coeffs.d
    # discriminant of x^3 + B x^2 + C x + D with B=-delta, C=m, D=-d;
    # for a real root plus a complex pair it equals -4 beta^2 ((lam-alpha)^2+beta^2)^2 < 0
    B, C, D = -dl, m, -d
    try:
        disc = (
            18.0 * B * C * D
            - 4.0 * B**3 * D
            + B * B * C * C
            - 4.0 * C**3
            - 27.0 * D * D
        )
    except OverflowError:
        disc = math.inf
    if not math.isfinite(disc):
        raise MalformedInput(
            f"characteristic cubic of ({dl!r}, {m!r}, {d!r}) has no finite discriminant"
        )
    if disc >= 0.0:
        raise NotFocusType(
            f"characteristic cubic of ({dl!r}, {m!r}, {d!r}) has three real roots"
        )
    roots = np.roots([1.0, -dl, m, -d])
    order = np.argsort(np.abs(roots.imag))
    lam0 = float(roots[order[0]].real)
    al0 = float(roots[order[2]].real)
    be0 = float(abs(roots[order[2]].imag))
    x = np.array([lam0, al0, be0])
    target = np.array([dl, m, d])
    best, best_res = x.copy(), _coeff_residual(x, target)
    for _ in range(_CUBIC_NEWTON_STEPS):
        lam, al, be = x
        mod2 = al * al + be * be
        jac = np.array(
            [
                [1.0, 2.0, 0.0],
                [2.0 * al, 2.0 * lam + 2.0 * al, 2.0 * be],
                [mod2, 2.0 * lam * al, 2.0 * lam * be],
            ]
        )
        try:
            step = np.linalg.solve(jac, np.array(_expand(lam, al, be)) - target)
        except np.linalg.LinAlgError:
            break
        x = x - step
        res = _coeff_residual(x, target)
        if res < best_res:
            best, best_res = x.copy(), res
        else:
            break
    lam, al, be = best
    scale = max(1.0, abs(lam), abs(al))
    if not be > BETA_FLOOR * scale:
        raise NotFocusType(
            f"complex pair of ({dl!r}, {m!r}, {d!r}) degenerates (beta ~ {be!r})"
        )
    return EigenTriple(lam=float(lam), alpha=float(al), beta=float(be))


def companion_matrix(coeffs: CanonicalCoeffs) -> np.ndarray:
    """The zone matrix in companion shape for the given coefficients."""
    out = np.array(
        [
            [coeffs.delta, -1.0, 0.0],
            [coeffs.m, 0.0, -1.0],
            [coeffs.d, 0.0, 0.0],
        ]
    )
    out.setflags(write=False)
    return out


def invariant_line(eigen: EigenTriple) -> np.ndarray:
    """Direction (1, 2*alpha, alpha^2+beta^2) of the zone's one-dimensional
    invariant manifold; an eigenvector of the companion matrix for ``lam``."""
    return np.array([1.0, 2.0 * eigen.alpha, eigen.alpha**2 + eigen.beta**2])


def focus_plane(eigen: EigenTriple) -> np.ndarray:
    """Normal (lam^2, -lam, 1) of the zone's two-dimensional invariant plane
    lam^2 * x1 - lam * y + z = 0; a left eigenvector of the companion matrix,
    so normal . (A p) = lam * (normal . p)."""
    return np.array([eigen.lam * eigen.lam, -eigen.lam, 1.0])


@dataclass(frozen=True, eq=False)
class ZoneSpec:
    """One zone: its coefficients and spectrum, which must agree, and the
    read-only companion matrix derived from the coefficients.  They agree
    when the invariant line v, scaled by a power of two so that its norms
    stay finite, satisfies |A v - lam v| <= EIGENVECTOR_RTOL |v| max(1,
    |lam|, max |A_ij|), checked on Python floats; else ``ValueError``."""

    coeffs: CanonicalCoeffs
    eigen: EigenTriple
    matrix: np.ndarray = field(init=False)

    def __post_init__(self):
        c, lam = self.coeffs, self.eigen.lam
        v = invariant_line(self.eigen).tolist()
        e = -math.frexp(max(map(abs, v)))[1]
        v1, v2, v3 = (math.ldexp(x, e) for x in v)
        # companion_matrix(c) @ v - lam v, row by row
        resid = math.hypot(
            c.delta * v1 - v2 - lam * v1, c.m * v1 - v3 - lam * v2, c.d * v1 - lam * v3
        )
        scale = math.hypot(v1, v2, v3) * max(1.0, abs(lam), *map(abs, c.as_tuple()))
        if resid > EIGENVECTOR_RTOL * scale:
            raise ValueError("spectrum does not match the zone matrix")
        object.__setattr__(self, "matrix", companion_matrix(c))

    @classmethod
    def from_eigen(cls, eigen: EigenTriple) -> "ZoneSpec":
        return cls(coeffs=coeffs_from_eigen(eigen), eigen=eigen)

    @classmethod
    def from_coeffs(cls, coeffs: CanonicalCoeffs) -> "ZoneSpec":
        return cls(coeffs=coeffs, eigen=eigen_from_coeffs(coeffs))


@dataclass(frozen=True, eq=False)
class PwlSystem:
    """The two-zone system: ``minus`` governs x1 < 0, ``plus`` governs x1 >= 0.

    Continuous by construction: both zone matrices are in companion shape,
    so they share their second and third columns.
    """

    minus: ZoneSpec
    plus: ZoneSpec

    @classmethod
    def from_eigen(cls, minus: EigenTriple, plus: EigenTriple) -> "PwlSystem":
        return cls(minus=ZoneSpec.from_eigen(minus), plus=ZoneSpec.from_eigen(plus))

    @classmethod
    def from_coeffs(cls, minus: CanonicalCoeffs, plus: CanonicalCoeffs) -> "PwlSystem":
        return cls(minus=ZoneSpec.from_coeffs(minus), plus=ZoneSpec.from_coeffs(plus))


def _char_coeffs(a: np.ndarray) -> CanonicalCoeffs:
    # numpy's det is sign*exp(log|det|), which takes log(0) on an exactly
    # singular or underflowing pivot; past the float range the coefficients
    # are inf or NaN, which CanonicalCoeffs rejects
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        tr = float(np.trace(a))
        second = 0.5 * (tr * tr - float(np.trace(a @ a)))
        det = float(np.linalg.det(a))
    return CanonicalCoeffs(delta=tr, m=second, d=det)


def canonicalize(raw_a_plus, raw_a_minus) -> PwlSystem:
    """Bring a raw continuous observable pair into companion shape.

    The change of variables is x -> T x with rows

        T = [e1;  delta*e1 - e1 A;  m*e1 - delta*e1 A + e1 A^2]

    built from the minus-zone matrix (delta, m its characteristic
    coefficients).  T's first row is e1, so the plane x1 = 0 and the sign of
    x1 -- hence the zone assignment -- are preserved exactly.  T is a
    unit-triangular row recombination of the observability matrix
    [e1; e1 A; e1 A^2], so it exists precisely when the pair is observable,
    and then T A T^-1 is the minus companion matrix.  Continuity makes
    A_plus - A_minus = w e1^T, and e1^T T^-1 = e1^T, so T A_plus T^-1
    differs from it only in its first column: the plus companion matrix.
    Hence no transform is formed; the companion forms are fixed by the
    characteristic coefficients of the raw matrices.

    Scaling both matrices by s scales time by 1/s and leaves the cones
    unchanged, but the rows of the observability matrix scale like 1, s and
    s^2.  So after the continuity check the minus matrix is divided by 2^k,
    k the binary exponent of the pair's largest entry, before the
    observability check.  The coefficients (delta, m, d) are those of the
    raw pair; where they leave the float range, MalformedInput is raised.
    """
    ap = np.asarray(raw_a_plus, dtype=float)
    am = np.asarray(raw_a_minus, dtype=float)
    if ap.shape != (3, 3) or am.shape != (3, 3):
        raise MalformedInput("zone matrices must be 3x3")
    scale = max(1.0, float(np.abs(ap).max()), float(np.abs(am).max()))
    if np.abs(ap[:, 1:] - am[:, 1:]).max() > CONTINUITY_ATOL * scale:
        raise NotContinuous(
            "raw matrices must share their second and third columns "
            f"(max deviation {np.abs(ap[:, 1:] - am[:, 1:]).max():.3e})"
        )
    k = math.frexp(max(float(np.abs(ap).max()), float(np.abs(am).max())))[1]
    sm = np.ldexp(am, -k)
    obs = np.vstack([[1.0, 0.0, 0.0], sm[0, :], (sm @ sm)[0, :]])
    svals = np.linalg.svd(obs, compute_uv=False)
    if svals[-1] <= OBSERVABILITY_RTOL * svals[0]:
        raise NotObservable("observability matrix of the minus zone is singular")
    return PwlSystem.from_coeffs(minus=_char_coeffs(am), plus=_char_coeffs(ap))


# ---------------------------------------------------------------------------
# JSON system-spec schema
#
#   {"minus": {"delta": ..., "m": ..., "d": ...}, "plus": {...}}
#   {"minus": {"lambda": ..., "alpha": ..., "beta": ...}, "plus": {...}}
#   {"A_minus": [[...], [...], [...]], "A_plus": [[...], [...], [...]]}
#
# Exactly one representation per zone; numbers are finite IEEE doubles.
# ---------------------------------------------------------------------------

_COEFF_KEYS = {"delta", "m", "d"}
_EIGEN_KEYS = {"lambda", "alpha", "beta"}


def _finite_floats(values, shape: tuple, what: str) -> np.ndarray:
    """``values`` as a float array of ``shape``; MalformedInput unless every
    entry is a finite number."""
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise MalformedInput(f"{what} must be numeric") from exc
    if arr.shape != shape:
        raise MalformedInput(f"{what} must have shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise MalformedInput(f"{what} must be finite (NaN and infinities are rejected)")
    return arr


def _zone_from_json(obj, label: str) -> ZoneSpec:
    if not isinstance(obj, Mapping):
        raise MalformedInput(f"zone {label!r} must be an object")
    keys = set(obj.keys())
    if keys == _COEFF_KEYS:
        delta, m, d = _finite_floats(
            [obj["delta"], obj["m"], obj["d"]], (3,), f"zone {label!r} coefficients"
        ).tolist()
        return ZoneSpec.from_coeffs(CanonicalCoeffs(delta=delta, m=m, d=d))
    if keys == _EIGEN_KEYS:
        lam, alpha, beta = _finite_floats(
            [obj["lambda"], obj["alpha"], obj["beta"]], (3,), f"zone {label!r} eigenvalues"
        ).tolist()
        return ZoneSpec.from_eigen(EigenTriple(lam=lam, alpha=alpha, beta=beta))
    raise MalformedInput(
        f"zone {label!r} must carry exactly the keys {sorted(_COEFF_KEYS)} "
        f"or {sorted(_EIGEN_KEYS)}, got {sorted(keys)}"
    )


def system_from_json(doc) -> PwlSystem:
    """Build a system from a parsed system-spec document."""
    if not isinstance(doc, Mapping):
        raise MalformedInput("system spec must be a JSON object")
    keys = set(doc.keys())
    if keys == {"A_minus", "A_plus"}:
        am = _finite_floats(doc["A_minus"], (3, 3), "A_minus")
        ap = _finite_floats(doc["A_plus"], (3, 3), "A_plus")
        return canonicalize(ap, am)
    if keys == {"minus", "plus"}:
        return PwlSystem(
            minus=_zone_from_json(doc["minus"], "minus"),
            plus=_zone_from_json(doc["plus"], "plus"),
        )
    raise MalformedInput(
        "system spec must carry exactly the keys {'minus', 'plus'} or "
        f"{{'A_minus', 'A_plus'}}, got {sorted(keys)}"
    )


def system_to_json(system: PwlSystem) -> dict:
    """Serialize in the coefficient representation (exact for the matrices)."""
    return {
        side: dict(zip(("delta", "m", "d"), zone.coeffs.as_tuple()))
        for side, zone in (("minus", system.minus), ("plus", system.plus))
    }


def load_system(path) -> PwlSystem:
    """Read and validate a system-spec JSON file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise MalformedInput(f"cannot read system spec {path!r}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"system spec {path!r} is not valid JSON: {exc}") from exc
    return system_from_json(doc)
