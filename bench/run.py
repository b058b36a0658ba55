"""Benchmark of the pwlcones library, driven from outside through its public
functions.  Run from the repository root:

    python3 bench/run.py                       # all four workloads, one fresh process each
    python3 bench/run.py --workload return_map --seed 3 --seconds 25 --trace 0
    python3 bench/run.py --workload all --repeat 10 --sets 2   # medians, quartiles, drift
    python3 bench/run.py --self-test           # every check rejects a perturbed answer

With ``--workload <name>`` one workload runs in this process and the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported here or in any child process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORKLOAD_NAMES = ("design_roundtrip", "return_map", "orbit_validate", "cli_reference")
SETUP_SAMPLES = 5      # set-ups per run: this process plus four fresh ones; median reported
MIN_COMPLETED = 200    # leaves at least ten operations beyond the logged 95th percentile
CHILD_TIMEOUT_S = 170


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def require_source() -> None:
    """Import the library from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "pwlcones" / "__init__.py").is_file():
        log(f"error: library source not found at {SRC / 'pwlcones'}")
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def set_up(name: str, seed: int, workdir: Path):
    """Import the library, generate the inputs and warm up; returns the
    workload and the seconds this took (the setup_s sample)."""
    t0 = time.perf_counter()
    import workloads  # imports numpy and pwlcones

    wl = workloads.WORKLOADS[name](seed, workdir)
    wl.warm_up()
    return wl, time.perf_counter() - t0


def child(argv: list) -> dict:
    """Run this script in a fresh process and parse its last output line."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"run.py {' '.join(argv)} failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def timed_phase(wl, seconds: float, tracer=None) -> dict:
    """Repeat whole rounds of ``wl.ops`` until ``seconds`` of operation time
    and MIN_COMPLETED completed operations.  Keeping the answers for the
    checks, and comparing later rounds with the first, is excluded from the
    phase's wall time."""
    import numpy as np
    import workloads

    n = len(wl.ops)
    records: list = [None] * n
    prints: list = [None] * n
    durations: list = []
    attempted = failed = 0
    unexpected: list = []
    mismatches: list = []
    excluded = 0.0
    rounds = 0
    start = time.perf_counter()
    while True:
        b0 = time.perf_counter()
        wl.begin_round()
        excluded += time.perf_counter() - b0
        for i, spec in enumerate(wl.ops):
            if tracer is not None:
                tracer.op = attempted
            t0 = time.perf_counter()
            try:
                result = wl.run(spec)
            except Exception as exc:  # counted and reported; the run goes on
                attempted += 1
                failed += 1
                if not wl.may_fail(spec) and len(unexpected) < 5:
                    unexpected.append(f"op {i}: {type(exc).__name__}: {exc}")
                continue
            t1 = time.perf_counter()
            attempted += 1
            durations.append(t1 - t0)
            rec = wl.record(spec, result)
            del result
            fp = workloads.fingerprint(wl.name, rec)
            if rounds == 0:
                records[i], prints[i] = rec, fp
            elif fp != prints[i] and len(mismatches) < 5:
                mismatches.append(f"op {i}: answer differs from round 1 in round {rounds + 1}")
            excluded += time.perf_counter() - t1
        rounds += 1
        wall = time.perf_counter() - start - excluded
        if wall >= seconds and len(durations) >= MIN_COMPLETED:
            break
    p50, p95 = np.percentile(np.array(durations) * 1e3, [50, 95])
    return {
        "op_ms_p95": float(p95),
        "records": records,
        "attempted": attempted,
        "failed": failed,
        "rounds": rounds,
        "unexpected": unexpected,
        "mismatches": mismatches,
        "metrics": {
            "ops_per_s": len(durations) / wall,
            "op_ms_p50": float(p50),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
    }


def run_one(args) -> dict:
    require_source()
    name, seed = args.workload, args.seed
    if args.setup_only:
        workdir = RESULTS / f"tmp-{os.getpid()}"
        try:
            wl, setup_s = set_up(name, seed, workdir)
            wl.close()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return {"setup_s": setup_s}

    setups = []
    if not args.trace:
        argv = ["--workload", name, "--seed", str(seed), "--setup-only"]
        setups = [child(argv)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    workdir = RESULTS / f"tmp-{os.getpid()}"
    tracer = None
    try:
        wl, setup_s = set_up(name, seed, workdir)
        setups.append(setup_s)
        if args.trace:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracer.install()
        try:
            timed = timed_phase(wl, args.seconds, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        wl.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    import checks

    problems = timed["unexpected"] + timed["mismatches"]
    for rec in timed["records"]:
        if rec is not None:
            problems += checks.CHECKS[name](rec)
    for p in problems[:20]:
        log(f"CHECK FAILED [{name}]: {p}")
    e2e = {"setup_s": statistics.median(setups), **timed["metrics"]}
    log(f"{name} seed {seed}: {timed['rounds']} rounds of {len(wl.ops)} ops, "
        f"setup samples {[round(s, 4) for s in setups]}, "
        f"op_ms_p95 {timed['op_ms_p95']:.4g} (not gated)")
    result = {
        "correct": not problems,
        "attempted": timed["attempted"],
        "failed": timed["failed"],
    }
    spec = bench_spec()
    if tracer is None:
        result["metrics"] = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                             for m in spec["end_to_end"]}
        return result

    layer = tracer.layer_metrics([m["name"] for m in spec["per_layer"]], timed["attempted"])
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = RESULTS / f"trace-{name}-seed{seed}"
    tracer.write(stem.with_suffix(".npz"))
    stem.with_suffix(".json").write_text(json.dumps(
        {"workload": name, "seed": seed, "traced_end_to_end": timed["metrics"],
         "per_layer": layer, "spans": len(tracer.start)}, indent=2) + "\n")
    log(f"traced end-to-end: {json.dumps(timed['metrics'])}; spans in {stem}.npz")
    result["metrics"] = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]}
                         for m in spec["per_layer"]}
    return result


def bench_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def summarize(values: list) -> tuple:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def run_repeat(args, names) -> int:
    """``--sets`` sets of ``--repeat`` runs, each run a fresh process with its
    own seed; per metric the median, quartiles and spread of every set, and
    for two sets the drift of the second median against the metric's bound."""
    metrics = bench_spec()["end_to_end"]
    RESULTS.mkdir(parents=True, exist_ok=True)
    ok = True
    for name in names:
        sets = []
        for s in range(args.sets):
            runs = []
            for i in range(args.repeat):
                seed = args.seed + s * args.repeat + i
                runs.append(child(["--workload", name, "--seed", str(seed),
                                   "--seconds", str(args.seconds), "--trace", "0"]))
                log(f"{name} set {s + 1} seed {seed}: "
                    + ", ".join(f"{k}={v['value']:.5g}" for k, v in runs[-1]["metrics"].items()))
            sets.append(runs)
        out = {"workload": name, "seconds": args.seconds, "first_seed": args.seed, "sets": sets}
        (RESULTS / f"repeat-{name}-seed{args.seed}.json").write_text(json.dumps(out, indent=1))
        print(f"\n{name}: {args.sets} x {args.repeat} runs")
        ok &= len({r["failed"] / r["attempted"] for runs in sets for r in runs}) == 1
        for s, runs in enumerate(sets):
            shares = {r["failed"] / r["attempted"] for r in runs}
            correct = all(r["correct"] for r in runs)
            ok &= correct
            print(f"  set {s + 1}: correct={correct} failed/attempted={sorted(shares)} "
                  f"attempted={[r['attempted'] for r in runs]}")
        for m in metrics:
            metric, unit, bound = m["name"], m["unit"], m["bound"]
            rows = [summarize([r["metrics"][metric]["value"] for r in runs]) for runs in sets]
            text = "  ".join(
                f"set{s + 1} median {med:.5g} [{q1:.5g}, {q3:.5g}] spread {spr:.3f}"
                for s, (med, q1, q3, spr) in enumerate(rows))
            verdict = ""
            if len(rows) == 2:
                sign = 1.0 if m["better"] == "lower" else -1.0
                drift = sign * (rows[1][0] - rows[0][0]) / rows[0][0]
                spread_ok = metric == "setup_s" or all(r[3] <= bound for r in rows)
                verdict = (f"  drift {drift:+.3f} (bound {bound}) "
                           f"{'ok' if drift <= bound and spread_ok else 'OUT OF BOUND'}")
                ok &= drift <= bound and spread_ok
            print(f"  {metric:12s} {unit:6s} {text}{verdict}")
    return 0 if ok else 1


def run_all(args) -> int:
    """Every workload once, each in a fresh process; a table and one JSON line."""
    results = {}
    for name in WORKLOAD_NAMES:
        results[name] = child(["--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)])
        r = results[name]
        print(f"{name}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}")
        for metric, v in r["metrics"].items():
            print(f"  {metric:44s} {v['value']:14.6g} {v['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def run_self_test(args) -> int:
    require_source()
    import checks

    problems = []
    for name in WORKLOAD_NAMES:
        workdir = RESULTS / f"tmp-{os.getpid()}"
        try:
            wl, _ = set_up(name, args.seed, workdir)
            spec = next(s for s in wl.ops if not wl.may_fail(s))
            rec = wl.record(spec, wl.run(spec))
            wl.close()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        found = checks.self_test(name, rec)
        print(f"{name}: {'ok' if not found else 'FAILED'}")
        problems += found
    for p in problems:
        print(p)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOAD_NAMES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="runs per set, each a fresh process with the next seed")
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(bench_spec()["run_seconds"])

    if args.self_test:
        return run_self_test(args)
    if not (SRC / "pwlcones" / "__init__.py").is_file():
        require_source()  # reports and exits
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    if args.repeat:
        return run_repeat(args, names)
    if args.workload == "all":
        return run_all(args)
    print(json.dumps(run_one(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
