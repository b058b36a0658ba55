"""Correctness checks computed apart from the library.

Each check reads the compact record a workload kept for one operation and
recomputes what it can with ``scipy.linalg.expm`` and ``numpy.linalg.eigvals``
from the zone matrices alone.  A check returns a list of ``"<id>: <detail>"``
strings, empty when the answer passes.  ``self_test`` shows that every check
id rejects a deliberately perturbed answer.
"""

from __future__ import annotations

import copy
import math

import numpy as np
from scipy.linalg import expm

PI = math.pi

# Printed reference values of example 1 (paper); example 2 is its zone swap.
EX1_COEFFS = {"minus": (-24.5442, 207.7430, -629.2483), "plus": (-0.5542, 0.1349, -0.0203)}
EX1_EIGEN = {"minus": (-10.3322, -7.1060, 3.2259), "plus": (-0.3321, -0.1111, 0.2209)}
EX_PAIRS = {1: (PI / 4.0, 5.0 * PI / 4.0), 2: (5.0 * PI / 4.0, PI / 4.0)}
PRINTED_ATOL = 1e-3


def _fails(out: list, cid: str, ok: bool, detail: str) -> None:
    if not ok:
        out.append(f"{cid}: {detail}")


def _rel(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.abs(a - b).max() / max(1.0, float(np.abs(b).max())))


def _spectrum(a) -> np.ndarray:
    """(lam, alpha, beta) of a matrix with one real eigenvalue and a complex pair."""
    ev = np.linalg.eigvals(np.asarray(a, dtype=float))
    ev = ev[np.argsort(np.abs(ev.imag))]
    return np.array([ev[0].real, ev[2].real, abs(ev[2].imag)])


def _interior_sign(a, p, dwell: float, sign: float, n: int = 64) -> bool:
    """x1 has the given sign at n-1 evenly spaced interior times of the dwell."""
    step = expm(np.asarray(a) * (dwell / n))
    x = np.asarray(p, dtype=float)
    for _ in range(n - 1):
        x = step @ x
        if not sign * x[0] > 0.0:
            return False
    return True


def check_design_roundtrip(rec: dict) -> list:
    """The Center cone sits at the design's angles, the ray (0, 1, u0) closes
    under the exact zone flows, and the matrices carry the synthesized
    spectra.

    The flow residuals are measured against the size of the computation,
    |expm(A dwell)| times the size of the state carried: a cone whose
    transverse multiplier is large comes with a flow that amplifies the
    rounding of u0 by as much, so a shot can close no sharper than that.
    """
    out: list = []
    tm, tp = rec["design"][3:5]
    cone = rec["cone"]
    _fails(out, "design.cone_found", cone is not None, "no cone reported")
    if cone is None:
        return out
    ctm, ctp, u0, dyn = cone
    _fails(out, "design.cone_at_angles", abs(ctm - tm) < 1e-9 and abs(ctp - tp) < 1e-9,
           f"cone at ({ctm!r}, {ctp!r}), designed ({tm!r}, {tp!r})")
    _fails(out, "design.cone_center", dyn == "Center", f"dynamics {dyn}")
    for side in ("minus", "plus"):
        want = np.array(rec[f"eigen_{side}"])
        got = _spectrum(rec[f"A_{side}"])
        _fails(out, "design.eigenvalues", _rel(got, want) < 1e-9,
               f"{side} eigvals {got.tolist()} vs synthesized {want.tolist()}")
    flow_m = expm(np.array(rec["A_minus"]) * (ctm / rec["eigen_minus"][2]))
    flow_p = expm(np.array(rec["A_plus"]) * (ctp / rec["eigen_plus"][2]))
    x0 = np.array([0.0, 1.0, u0])
    x1 = flow_m @ x0
    x2 = flow_p @ x1
    scale1 = np.linalg.norm(flow_m, 2) * np.linalg.norm(x0)
    scale2 = np.linalg.norm(flow_p, 2) * scale1
    tol = 1e-8
    _fails(out, "design.flow_lands_on_plane",
           abs(x1[0]) <= tol * scale1 and abs(x2[0]) <= tol * scale2
           and not x1[1] > tol * scale1 and not x2[1] < -tol * scale2,
           f"after the minus dwell {x1.tolist()}, after the plus dwell {x2.tolist()} "
           f"(scales {scale1:.3e}, {scale2:.3e})")
    gap = abs(x2[2] - u0 * x2[1])
    _fails(out, "design.flow_closes_slope", gap <= tol * (1.0 + abs(u0)) * scale2,
           f"closing slope residual {gap:.3e}, scale {scale2:.3e}")
    return out


def check_return_map(rec: dict) -> list:
    """Each exit point is the exact flow of its entry point over the dwell,
    lies on x1 = 0, and x1 keeps the zone's sign in between (first return)."""
    out: list = []
    entry = np.array(rec["point"])
    for i, (key, sign) in enumerate((("A_minus", -1.0), ("A_plus", 1.0))):
        a, dwell = np.array(rec[key]), rec["dwell"][i]
        exit_point = np.array(rec["exit"][i])
        flowed = expm(a * dwell) @ entry
        scale = max(np.linalg.norm(entry), np.linalg.norm(exit_point))
        _fails(out, "return.exit_is_flow",
               float(np.abs(flowed - exit_point).max()) <= 1e-9 * scale,
               f"{key}: exit {exit_point.tolist()} vs expm flow {flowed.tolist()}")
        _fails(out, "return.exit_on_plane",
               exit_point[0] == 0.0 and abs(flowed[0]) <= 1e-9 * scale
               and sign * exit_point[1] > 0.0,
               f"{key}: exit {exit_point.tolist()}, flowed x1 {flowed[0]!r}")
        _fails(out, "return.first_return", _interior_sign(a, entry, dwell, sign),
               f"{key}: x1 changes sign inside the dwell {dwell!r}")
        entry = exit_point
    return out


def check_orbit_validate(rec: dict) -> list:
    """The first return takes tau_minus/beta_minus + tau_plus/beta_plus, each
    crossing is the exact flow of the previous one, and RK4 follows expm."""
    out: list = []
    am, ap = np.array(rec["A_minus"]), np.array(rec["A_plus"])
    crossings = rec["crossings"]
    _fails(out, "orbit.crossings", len(crossings) == 16, f"{len(crossings)} crossings")
    period = rec["period"]
    want = rec["expected_period"]
    _fails(out, "orbit.period", period is not None and abs(period - want) <= 1e-8 * want,
           f"period {period!r} vs designed {want!r}")
    _fails(out, "orbit.closed", rec["closed"] is True, "trace not closed")
    prev_t, prev = 0.0, np.array(rec["x0"])
    for t, point in crossings:
        a = am if prev[1] > 0.0 else ap
        flowed = expm(a * (t - prev_t)) @ prev
        point = np.array(point)
        if not np.abs(flowed - point).max() <= 1e-8 * np.linalg.norm(point):
            out.append(f"orbit.crossing_is_flow: at t={t!r} {point.tolist()} "
                       f"vs expm flow {flowed.tolist()}")
            break
        prev_t, prev = t, point
    x0 = np.array(rec["x0"])
    ref = np.array([expm(am * t) @ x0 for t in rec["rk4_times"]])
    err = float(np.abs(np.array(rec["rk4_states"]) - ref).max() / np.abs(ref).max())
    _fails(out, "orbit.rk4_matches_expm", err <= 1e-6, f"relative gap {err:.3e}")
    return out


def _cone_pairs(report: dict) -> list:
    return [(c["tau_minus"], c["tau_plus"], c["dynamics"]) for c in report["cones"]]


def check_cli_reference(rec: dict) -> list:
    """The session reproduces the printed reference system, reports its
    Center cone, agrees on a raw-matrix spec, and the CSV orbit closes."""
    out: list = []
    which = rec["which"]
    zones = {"minus": "minus", "plus": "plus"} if which == 1 else {"minus": "plus", "plus": "minus"}
    for side, ref_side in zones.items():
        z = rec["system"][side]
        got = (z["delta"], z["m"], z["d"])
        _fails(out, "cli.printed_matrices",
               np.abs(np.subtract(got, EX1_COEFFS[ref_side])).max() < PRINTED_ATOL,
               f"{side} coefficients {got} vs printed {EX1_COEFFS[ref_side]}")
        companion = [[got[0], -1.0, 0.0], [got[1], 0.0, -1.0], [got[2], 0.0, 0.0]]
        spec = _spectrum(companion)
        _fails(out, "cli.printed_eigenvalues",
               np.abs(spec - EX1_EIGEN[ref_side]).max() < PRINTED_ATOL,
               f"{side} eigenvalues {spec.tolist()} vs printed {EX1_EIGEN[ref_side]}")
    tm, tp = EX_PAIRS[which]
    pairs = _cone_pairs(rec["report"])
    centers = [(a, b) for a, b, d in pairs if d == "Center"]
    _fails(out, "cli.center_cone",
           any(abs(a - tm) < 1e-8 and abs(b - tp) < 1e-8 for a, b in centers),
           f"cones {pairs}, expected a Center at ({tm!r}, {tp!r})")
    raw = _cone_pairs(rec["raw_report"])
    _fails(out, "cli.raw_spec_same_cones",
           len(raw) == len(pairs) and all(
               abs(a - c) < 1e-7 and abs(b - d) < 1e-7 and e == f
               for (a, b, e), (c, d, f) in zip(raw, pairs)),
           f"raw-matrix cones {raw} vs companion cones {pairs}")
    x0 = np.array(rec["x0"])
    last = rec["csv_crossings"][-1] if rec["csv_crossings"] else ""
    fields = dict(f.split("=", 1) for f in last.replace(",", " ").split()[2:] if "=" in f)
    try:
        closing = np.array([0.0, float(fields["y"]), float(fields["z"])])
    except (KeyError, ValueError):
        closing = np.full(3, np.nan)
    _fails(out, "cli.csv_closes",
           len(rec["csv_crossings"]) == 2 and rec["csv_rows"] == 800
           and np.abs(closing - x0).max() <= 1e-7 * np.linalg.norm(x0),
           f"{rec['csv_rows']} rows, closing crossing {last!r} vs x0 {x0.tolist()}")
    return out


CHECKS = {
    "design_roundtrip": check_design_roundtrip,
    "return_map": check_return_map,
    "orbit_validate": check_orbit_validate,
    "cli_reference": check_cli_reference,
}


# ---------------------------------------------------------------------------
# self-test: each perturbation must trip the named check id


def _later_return(a, p, dwell: float, sign: float):
    """A later zero of x1 under the same zone flow: the answer a solver that
    skipped the first return would give."""
    a = np.asarray(a)
    step = dwell / 64.0
    x1 = [(expm(a * (dwell + j * step)) @ p)[0] for j in range(1, 64 * 20)]
    for j in range(32, len(x1) - 1):  # past the first zone visit of the other side
        if -sign * x1[j] > 0.0 >= -sign * x1[j + 1]:
            lo, hi = dwell + (j + 1) * step, dwell + (j + 2) * step
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if -sign * (expm(a * mid) @ p)[0] > 0.0:
                    lo = mid
                else:
                    hi = mid
            x = expm(a * hi) @ p
            x[0] = 0.0
            return hi, x
    raise ValueError("no later return within 20 dwells")


def _perturbations(name: str, rec: dict):
    """(check id, perturbed record) pairs for one workload's record."""
    def edit(fn):
        r = copy.deepcopy(rec)
        fn(r)
        return r

    if name == "design_roundtrip":
        def cone(i, f):
            return edit(lambda r: r["cone"].__setitem__(i, f(r["cone"][i])))

        return [
            ("design.cone_found", edit(lambda r: r.update(cone=None))),
            ("design.cone_at_angles", cone(0, lambda v: v + 1e-4)),
            ("design.cone_center", cone(3, lambda v: "StableFocus")),
            ("design.eigenvalues",
             edit(lambda r: r["eigen_plus"].__setitem__(0, r["eigen_plus"][0] * (1 + 1e-5)))),
            ("design.flow_closes_slope", cone(2, lambda v: v + 1e-4 * max(1.0, abs(v)))),
            ("design.flow_lands_on_plane", cone(1, lambda v: v * (1 + 1e-3))),
        ]
    if name == "return_map":
        def skip_first(r):
            p = np.array(r["point"])
            dwell, x = _later_return(r["A_minus"], p, r["dwell"][0], -1.0)
            r["dwell"][0] = dwell
            r["exit"][0] = x.tolist()

        return [
            ("return.exit_is_flow",
             edit(lambda r: r["exit"][1].__setitem__(2, r["exit"][1][2] * (1 + 1e-6)))),
            ("return.exit_on_plane", edit(lambda r: r["exit"][0].__setitem__(0, 1e-3))),
            ("return.first_return", edit(skip_first)),
        ]
    if name == "orbit_validate":
        def nudge(row, i, delta):
            row[i] += delta * max(1.0, float(np.linalg.norm(row)))

        return [
            ("orbit.crossings", edit(lambda r: r["crossings"].pop())),
            ("orbit.period", edit(lambda r: r.update(period=r["period"] * (1 + 1e-6)))),
            ("orbit.closed", edit(lambda r: r.update(closed=False))),
            ("orbit.crossing_is_flow", edit(lambda r: nudge(r["crossings"][3][1], 1, 1e-6))),
            ("orbit.rk4_matches_expm", edit(lambda r: nudge(r["rk4_states"][-1], 2, 1e-5))),
        ]
    if name == "cli_reference":
        def shift_raw(r):
            r["raw_report"]["cones"][0]["tau_minus"] += 1e-5

        def move_closing(r):
            r["csv_crossings"][-1] = r["csv_crossings"][-1].replace(",z=", ",z=1")

        def all_unstable(r):
            for cn in r["report"]["cones"]:
                cn["dynamics"] = "UnstableFocus"

        return [
            ("cli.printed_matrices",
             edit(lambda r: r["system"]["minus"].update(d=r["system"]["minus"]["d"] + 0.01))),
            ("cli.printed_eigenvalues",
             edit(lambda r: r["system"]["plus"].update(m=r["system"]["plus"]["m"] * 1.01))),
            ("cli.center_cone", edit(all_unstable)),
            ("cli.raw_spec_same_cones", edit(shift_raw)),
            ("cli.csv_closes", edit(move_closing)),
        ]
    raise KeyError(name)


def self_test(name: str, rec: dict) -> list:
    """Run every perturbation of one record; return the problems found."""
    problems = []
    base = CHECKS[name](rec)
    if base:
        problems.append(f"{name}: unperturbed answer rejected: {base}")
    for cid, bad in _perturbations(name, rec):
        got = CHECKS[name](bad)
        if not any(msg.startswith(cid + ":") for msg in got):
            problems.append(f"{name}: perturbation for {cid} not rejected (got {got})")
    return problems
