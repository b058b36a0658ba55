"""Command-line interface: kernel utilities, analysis, synthesis, simulation."""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .auxiliary import phi, tau_hat
from .cones import GRID_DEFAULT, ConeKind, analyze_system
from .errors import (
    AngleRegionViolation,
    Diverged,
    MalformedInput,
    NonPositiveBeta,
    NotContinuous,
    NotFocusType,
    NotObservable,
    OriginReached,
    PwlError,
)
from .model import load_system, system_to_json
from .simulate import SAMPLES_PER_DWELL, trace_orbit, trace_summary, write_trace_csv
from .synthesis import SynthesisInput, synthesize

EXIT_OK = 0
EXIT_NOT_FOCUS = 2
EXIT_MALFORMED = 3
EXIT_ANGLE_REGION = 4
EXIT_NONPOSITIVE_BETA = 5


def _fmt_eigen(label, eigen) -> str:
    return (
        f"  {label}: lam={eigen.lam:.10g}  alpha={eigen.alpha:.10g}  "
        f"beta={eigen.beta:.10g}  gamma={eigen.gamma:.10g}"
    )


def _fmt_matrix(a) -> str:
    rows = ["    [" + ", ".join(f"{v: .10g}" for v in row) + "]" for row in np.asarray(a)]
    return "\n".join(rows)


def _cmd_phi(args) -> int:
    if not (math.isfinite(args.gamma) and math.isfinite(args.tau)):
        raise MalformedInput(f"--gamma and --tau must be finite, got {args.gamma!r}, {args.tau!r}")
    print(repr(phi(args.gamma, args.tau)))
    return EXIT_OK


def _cmd_tau_hat(args) -> int:
    print(repr(tau_hat(args.gamma).tau))
    return EXIT_OK


def _cmd_analyze(args) -> int:
    system = load_system(args.system)
    report = analyze_system(system, grid=args.grid)
    print("system:")
    print(_fmt_eigen("minus", system.minus.eigen))
    print(_fmt_eigen("plus ", system.plus.eigen))
    n_iso = sum(1 for c in report.cones if c.kind is ConeKind.NON_TRIVIAL)
    n_triv = sum(1 for c in report.cones if c.kind is ConeKind.TRIVIAL)
    print(
        f"cones: {n_iso} isolated, {n_triv} trivial, "
        f"continuum: {'yes' if report.family is not None else 'no'}"
    )
    print(f"periodic orbits through the plane: {'yes' if report.periodic else 'no'}")
    print("notes:")
    for line in report.notes.splitlines():
        print(f"  {line}")
    doc = json.dumps(report.to_json(), indent=2)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(doc + "\n")
    else:
        print(doc)
    return EXIT_OK


def _cmd_synthesize(args) -> int:
    out = synthesize(
        SynthesisInput(
            gamma=args.gamma,
            k=args.k,
            c=args.c,
            tau_minus=args.tau_minus,
            tau_plus=args.tau_plus,
        )
    )
    print("eigenvalues:")
    print(_fmt_eigen("minus", out.eigen_minus))
    print(_fmt_eigen("plus ", out.eigen_plus))
    print("A_minus:")
    print(_fmt_matrix(out.system.minus.matrix))
    print("A_plus:")
    print(_fmt_matrix(out.system.plus.matrix))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(system_to_json(out.system), fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    system = load_system(args.system)
    try:
        x0 = np.array([float(v) for v in args.x0.split(",")])
        if x0.shape != (3,) or not x0.any():
            raise ValueError
    except ValueError:
        raise MalformedInput(
            f"--x0 must be three comma-separated numbers, not all zero, got {args.x0!r}"
        ) from None
    try:
        trace = trace_orbit(
            system,
            x0,
            max_crossings=args.crossings,
            t_max=args.t_max,
            samples_per_dwell=args.samples_per_dwell,
        )
    except (OriginReached, Diverged) as exc:
        trace = exc.trace
        trace.note = str(exc)
    if args.out:
        write_trace_csv(trace, args.out)
    print(json.dumps(trace_summary(trace), indent=2))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors raise :class:`MalformedInput`, so they exit through ``_EXIT_CODES``."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise MalformedInput(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pwlcones",
        description=(
            "Analyze three-dimensional two-zone continuous piecewise-linear "
            "systems: invariant cones, periodic orbits, synthesis, simulation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phi", help="evaluate the passage kernel")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--tau", type=float, required=True)
    p.set_defaults(func=_cmd_phi)

    p = sub.add_parser("tau-hat", help="first positive zero of the kernel")
    p.add_argument("--gamma", type=float, required=True)
    p.set_defaults(func=_cmd_tau_hat)

    p = sub.add_parser("analyze", help="cone existence analysis of a system JSON")
    p.add_argument("--system", required=True, help="path to a system-spec JSON file")
    p.add_argument("--json", help="write the report JSON here instead of stdout")
    p.add_argument("--grid", type=int, default=GRID_DEFAULT)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("synthesize", help="construct a periodic-orbit-carrying system")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--tau-minus", type=float, required=True)
    p.add_argument("--tau-plus", type=float, required=True)
    p.add_argument("--out", help="write the system-spec JSON here")
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("simulate", help="trace an orbit and export it as CSV")
    p.add_argument("--system", required=True)
    p.add_argument("--x0", required=True, help="comma-separated start state, e.g. 0,4,-1.3040")
    p.add_argument("--crossings", type=int, default=16)
    p.add_argument("--t-max", type=float, default=1e4)
    p.add_argument("--samples-per-dwell", type=int, default=SAMPLES_PER_DWELL)
    p.add_argument("--out", help="write the trace CSV here")
    p.set_defaults(func=_cmd_simulate)
    return parser


# exit code of each library error; any other PwlError exits with 1
_EXIT_CODES = (
    (NotFocusType, EXIT_NOT_FOCUS),
    ((MalformedInput, NotContinuous, NotObservable), EXIT_MALFORMED),
    (AngleRegionViolation, EXIT_ANGLE_REGION),
    (NonPositiveBeta, EXIT_NONPOSITIVE_BETA),
)


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built on its first call; each parse makes
    a new namespace, so no state carries over from one call to the next."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except PwlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for kinds, code in _EXIT_CODES if isinstance(exc, kinds)), 1)


if __name__ == "__main__":
    sys.exit(main())
