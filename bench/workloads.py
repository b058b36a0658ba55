"""The four benchmark workloads: seeded inputs, the timed operation, and the
compact record of each answer that the checks in ``checks.py`` read.

Every workload turns ``--seed`` into a fixed list of operations (one round).
A run repeats whole rounds, so each run performs the same operations in the
same order and the share of failed operations never depends on run length.
Only the generated inputs reach the library; the library is driven through
its public functions (``pwlcones.*`` and ``pwlcones.cli.main``), looked up
at call time so that the traced mode can wrap them.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np

import pwlcones as pw
from pwlcones import cli
from pwlcones.halfmaps import ZoneSide

PI = math.pi
# The lru_cache object itself, also after the traced mode has replaced the
# module attributes by wrappers.
tau_hat_cache = pw.tau_hat

# Design domain shared by the workloads that draw synthesized systems.
GAMMA_ABS = (0.1, 10.0)
K_RANGE = (0.2, 5.0)
C_ABS = (0.1, 20.0)
# math.exp(2*pi*alpha/beta) in cones.one_zone_cone_check overflows once a
# zone's alpha/beta passes log(DBL_MAX)/(2*pi) ~ 113; designs are kept
# below this margin so that only the fixed failing block fails.
ALPHA_OVER_BETA_MAX = 100.0

# Designs that fail every time at the parent commit of this benchmark.  They
# are independent of the seed and stay in every round as counted failures.
FAILING_DESIGNS = (
    (24.0, 5.0, 10.0, 1.9580463744360055, 3.1537859356556166),
    (-24.0, 5.0, 10.0, 3.146786412687692, 0.9198835948765263),
    (-5.222012993705557, 2.2501962277324936, 6.632133797599711, 3.1491479992147244,
     0.1724235149691435),
)

# The two bundled reference systems as synthesis inputs, with the angles as
# the README's command-line session types them.
REFERENCE_DESIGNS = {
    1: (1.0, 1.0, 10.0, PI / 4.0, 5.0 * PI / 4.0),
    2: (1.0, 1.0, -10.0, 5.0 * PI / 4.0, PI / 4.0),
}
CLI_ANGLES = {1: ("0.7853981634", "3.9269908170"), 2: ("3.9269908170", "0.7853981634")}


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def zone_alpha_over_beta(out) -> float:
    return max(e.alpha / e.beta for e in (out.eigen_minus, out.eigen_plus))


def draw_designs(rng, count: int, positive_gamma: bool = False, accept=None):
    """Draw ``count`` admissible designs from the design domain.

    Returns ``(designs, drawn)``: the accepted ``(gamma, k, c, tau_minus,
    tau_plus, output)`` tuples and the number of draws it took.  A draw is
    rejected when a zone's alpha/beta exceeds ``ALPHA_OVER_BETA_MAX`` or
    when ``accept`` (if given) returns False for it.
    """
    designs, drawn = [], 0
    while len(designs) < count:
        drawn += 1
        sign = 1.0 if positive_gamma else float(rng.choice((-1.0, 1.0)))
        gamma = sign * float(rng.uniform(*GAMMA_ABS))
        k = float(rng.uniform(*K_RANGE))
        c = float(rng.choice((-1.0, 1.0))) * float(rng.uniform(*C_ABS))
        tm, tp = pw.sample_admissible_angles(gamma, k, c, rng)
        out = pw.synthesize(pw.SynthesisInput(gamma=gamma, k=k, c=c, tau_minus=tm, tau_plus=tp))
        if zone_alpha_over_beta(out) > ALPHA_OVER_BETA_MAX:
            continue
        if accept is not None and not accept(out, tm, tp):
            continue
        designs.append((gamma, k, c, tm, tp, out))
    return designs, drawn


def _matrices(system) -> dict:
    return {
        "A_minus": np.asarray(system.minus.matrix, dtype=float).tolist(),
        "A_plus": np.asarray(system.plus.matrix, dtype=float).tolist(),
    }


def _eigen(e) -> list:
    return [e.lam, e.alpha, e.beta]


class Workload:
    """One workload: ``ops`` is the round, ``run`` the timed operation."""

    name = ""
    ops: list

    def warm_up(self) -> None:
        for spec in self.warm_ops:
            self.record(spec, self.run(spec))

    def begin_round(self) -> None:
        pass

    def may_fail(self, spec) -> bool:
        return False

    def close(self) -> None:
        pass


class DesignRoundtrip(Workload):
    """synthesize -> analyze_system -> locate the Center cone at the design's
    phase pair; every zone is new to ``tau_hat`` in every round."""

    name = "design_roundtrip"
    DESIGNS = 400

    def __init__(self, seed: int, workdir: Path):
        designs, self.drawn = draw_designs(_rng(seed, 1), self.DESIGNS)
        self.ops = [(g, k, c, tm, tp, False) for g, k, c, tm, tp, _ in designs]
        self.ops += [(*d, True) for d in FAILING_DESIGNS]
        self.warm_ops = self.ops[:2]

    def begin_round(self) -> None:
        tau_hat_cache.cache_clear()

    def may_fail(self, spec) -> bool:
        return spec[5]

    def run(self, spec):
        g, k, c, tm, tp, _ = spec
        out = pw.synthesize(pw.SynthesisInput(gamma=g, k=k, c=c, tau_minus=tm, tau_plus=tp))
        report = pw.analyze_system(out.system)
        cone = min(
            report.cones,
            key=lambda cn: abs(cn.tau_minus - tm) + abs(cn.tau_plus - tp),
            default=None,
        )
        return out, report, cone

    def record(self, spec, result) -> dict:
        out, report, cone = result
        return {
            "design": list(spec[:5]),
            "eigen_minus": _eigen(out.eigen_minus),
            "eigen_plus": _eigen(out.eigen_plus),
            **_matrices(out.system),
            "cone": None if cone is None else [
                cone.tau_minus, cone.tau_plus, cone.u0, cone.dynamics.value
            ],
            "cones": len(report.cones),
        }


class ReturnMap(Workload):
    """One full return (minus then plus half_map) from plane points on rays
    around the cone ray of a few fixed systems."""

    name = "return_map"
    DESIGNS = 4
    POINTS = 32
    SLOPE_SPREAD = 0.25

    def __init__(self, seed: int, workdir: Path):
        rng = _rng(seed, 2)
        # positive shape ratios in both zones: every entry slope is reachable
        designs, self.drawn = draw_designs(rng, self.DESIGNS, positive_gamma=True)
        systems = [(pw.example_system(w), REFERENCE_DESIGNS[w][3]) for w in (1, 2)]
        systems += [(out.system, tm) for _, _, _, tm, _, out in designs]
        self.ops = []
        for system, tm in systems:
            u0 = float(pw.entry_slope(system.minus.eigen, tm))
            width = self.SLOPE_SPREAD * max(1.0, abs(u0))
            for _ in range(self.POINTS):
                r = math.exp(float(rng.uniform(math.log(0.5), math.log(2.0))))
                s = u0 + width * float(rng.uniform(-1.0, 1.0))
                self.ops.append((system, np.array([0.0, r, r * s])))
        self.warm_ops = self.ops[:: self.POINTS]

    def run(self, spec):
        system, p = spec
        r1 = pw.half_map(ZoneSide.MINUS, system, p)
        r2 = pw.half_map(ZoneSide.PLUS, system, r1.exit_point)
        return r1, r2

    def record(self, spec, result) -> dict:
        system, p = spec
        r1, r2 = result
        return {
            **_matrices(system),
            "point": p.tolist(),
            "dwell": [r1.dwell_time, r2.dwell_time],
            "exit": [r1.exit_point.tolist(), r2.exit_point.tolist()],
        }


class OrbitValidate(Workload):
    """trace_orbit from a cone ray for a fixed crossing budget, then rk4_flow
    over the first dwell at a fixed step."""

    name = "orbit_validate"
    DESIGNS = 14
    STARTS = 2
    CROSSINGS = 16
    RK4_STEPS = 2000
    RK4_KEEP = 50  # states kept per op for the check (every 40th step)
    # At RK4_STEPS steps per dwell, RK4 resolves the minus zone's spiral to
    # 1e-6 only while the dwell spans a bounded number of its radians.
    RK4_RADIANS_MAX = 30.0

    def __init__(self, seed: int, workdir: Path):
        rng = _rng(seed, 3)

        def usable(out, tm, tp):
            e = out.eigen_minus
            return (abs(pw.slope_map_multiplier(out.system, tm, tp)) < 1.0
                    and math.hypot(e.alpha, e.beta) * tm / e.beta <= self.RK4_RADIANS_MAX)

        designs, self.drawn = draw_designs(rng, self.DESIGNS, accept=usable)
        systems = [(pw.example_system(w), *REFERENCE_DESIGNS[w][3:]) for w in (1, 2)]
        systems += [(out.system, tm, tp) for _, _, _, tm, tp, out in designs]
        self.ops = []
        for system, tm, tp in systems:
            u0 = float(pw.entry_slope(system.minus.eigen, tm))
            period = tm / system.minus.eigen.beta + tp / system.plus.eigen.beta
            for _ in range(self.STARTS):
                r = math.exp(float(rng.uniform(math.log(0.5), math.log(4.0))))
                self.ops.append((system, np.array([0.0, r, r * u0]), period))
        self.warm_ops = self.ops[:: self.STARTS]

    def run(self, spec):
        system, x0, _ = spec
        trace = pw.trace_orbit(system, x0, max_crossings=self.CROSSINGS, t_max=1e12)
        dwell = trace.crossings[0].t
        times, states = pw.rk4_flow(system.minus.matrix, x0, dwell, dwell / self.RK4_STEPS)
        return trace, times, states

    def record(self, spec, result) -> dict:
        system, x0, period = spec
        trace, times, states = result
        keep = np.linspace(0, len(times) - 1, self.RK4_KEEP + 1).astype(int)
        return {
            **_matrices(system),
            "x0": x0.tolist(),
            "expected_period": period,
            "period": trace.period,
            "closed": trace.closed,
            "samples": len(trace.samples),
            "crossings": [[cr.t, cr.point.tolist()] for cr in trace.crossings],
            "rk4_times": times[keep].tolist(),
            "rk4_states": states[keep].tolist(),
        }


class CliReference(Workload):
    """The README's command-line session, in process through cli.main, on the
    two reference systems in turn, plus analyze of a raw-matrix spec."""

    name = "cli_reference"

    def __init__(self, seed: int, workdir: Path):
        rng = _rng(seed, 4)
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.ops = []
        for which in (1, 2):
            raw_path = workdir / f"raw_{which}.json"
            raw_path.write_text(json.dumps(raw_spec(pw.example_system(which), rng)))
            self.ops.append((which, raw_path))
        self.warm_ops = list(self.ops)
        self._sink = open(os.devnull, "w")

    def _paths(self, which: int) -> dict:
        return {
            key: self.workdir / f"{key}_{which}.{ext}"
            for key, ext in (("system", "json"), ("report", "json"), ("trace", "csv"),
                             ("raw_report", "json"))
        }

    def _main(self, argv) -> None:
        code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"pwlcones {' '.join(argv)} exited with {code}")

    def run(self, spec):
        which, raw_path = spec
        paths = self._paths(which)
        c = REFERENCE_DESIGNS[which][2]
        tm, tp = CLI_ANGLES[which]
        with contextlib.redirect_stdout(self._sink):
            self._main(["synthesize", "--gamma", "1", "--k", "1", "--c", f"{c:g}",
                        "--tau-minus", tm, "--tau-plus", tp, "--out", str(paths["system"])])
            self._main(["analyze", "--system", str(paths["system"]),
                        "--json", str(paths["report"])])
            report = json.loads(paths["report"].read_text())
            u0 = next(cn["u0"] for cn in report["cones"] if cn["dynamics"] == "Center")
            x0 = f"0,4,{4.0 * u0!r}"
            self._main(["simulate", "--system", str(paths["system"]), "--x0", x0,
                        "--crossings", "2", "--t-max", "100", "--out", str(paths["trace"])])
            self._main(["analyze", "--system", str(raw_path),
                        "--json", str(paths["raw_report"])])
        return paths, x0

    def record(self, spec, result) -> dict:
        paths, x0 = result
        texts = {key: path.read_text() for key, path in paths.items()}
        rows = texts["trace"].splitlines()
        return {
            "which": spec[0],
            "x0": [float(v) for v in x0.split(",")],
            "system": json.loads(texts["system"]),
            "report": json.loads(texts["report"]),
            "raw_report": json.loads(texts["raw_report"]),
            "csv_rows": sum(1 for r in rows[1:] if not r.startswith("#")),
            "csv_crossings": [r for r in rows if r.startswith("# crossing")],
            "digest": hashlib.sha256("".join(texts.values()).encode()).hexdigest(),
        }

    def close(self) -> None:
        self._sink.close()


def raw_spec(system, rng) -> dict:
    """The system in raw coordinates x_raw = S^-1 x, where S has first row
    e1: the plane x1 = 0 and the zone assignment are unchanged, and the
    matrices S^-1 A S still share their second and third columns."""
    while True:
        s = np.vstack([[1.0, 0.0, 0.0], rng.normal(size=(2, 3))])
        if np.linalg.cond(s) < 20.0:
            break
    s_inv = np.linalg.inv(s)
    am = s_inv @ np.asarray(system.minus.matrix) @ s
    ap = s_inv @ np.asarray(system.plus.matrix) @ s
    ap[:, 1:] = am[:, 1:]  # equal up to rounding; make continuity exact
    return {"A_minus": am.tolist(), "A_plus": ap.tolist()}


def fingerprint(name: str, record: dict):
    """What must repeat bit for bit between rounds of one run."""
    if name == "cli_reference":
        return record["digest"]
    return json.dumps(record, sort_keys=True)


WORKLOADS = {
    cls.name: cls for cls in (DesignRoundtrip, ReturnMap, OrbitValidate, CliReference)
}
